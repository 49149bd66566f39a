"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import run  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from tracer import Span, Tracer, self_times, wrapped_names  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs.generate(workload, seed, str(tmp_path / name))
    first = inputs.digest(str(tmp_path / "a"))
    assert inputs.digest(str(tmp_path / "b")) == first
    assert inputs.digest(str(tmp_path / "c")) != first


def test_cli_small_cycles_the_drift_kinds(tmp_path):
    import numpy as np
    manifest = inputs.generate("cli_small", 7, str(tmp_path))
    seeds = [[c["argvs"][0][2] for c in g] for g in manifest["items"]
             if g[0]["argvs"][0][0] == "verify"]
    kinds = [{str(np.random.default_rng(int(s)).choice(
        list(inputs.VERIFY_KINDS))) for s in variants} for variants in seeds]
    assert kinds == [{inputs.VERIFY_KINDS[r % 3]}
                     for r in range(inputs.CLI_SMALL_ROUNDS)]
    assert all(len(set(variants)) == inputs.VARIANTS for variants in seeds)


def test_pass_count_depends_only_on_workload_and_budget():
    for workload in inputs.WORKLOADS:
        assert run.pass_count(workload, 20) == run.pass_count(workload, 20)
        assert run.pass_count(workload, 1) == run.MIN_PASSES
    assert run.pass_count("cli_small", 20) > run.pass_count("verify_poly", 20)
    # Passes over rotating variants come in whole turns.
    assert run.pass_count("cli_small", 16, 3) == 6
    assert run.pass_count("verify_poly", 16, 3) == 3


class _Screener:
    """Stands in for ``Runner``: a screen argv fails early when its
    subject starts with ``bad``."""

    def run(self, argv, item=None):
        status = "exit2" if argv[1].startswith("bad") else "ok"
        return run.Outcome(tuple(argv), 0.0, status)


def _candidate(name):
    return {"screen": ["spectrum", name],
            "argvs": [["spectrum", name], ["verify", name]]}


def test_screen_rotates_the_picks_and_skips_early_failures():
    groups = [[{"argvs": [["fock", "f.json"]]}],
              [{"argvs": [["verify", "v%d" % v]]} for v in range(3)],
              [_candidate(n) for n in ("a0", "bad1", "a2", "a3", "a4")],
              [_candidate(n) for n in ("bad0", "b1")]]
    variants, excluded = run.screen(_Screener(), groups, picks=3)
    assert [[argv[1] for argv in items] for items in variants] == [
        ["f.json", "v0", "a0", "a0", "b1", "b1"],
        ["f.json", "v1", "a2", "a2", "b1", "b1"],
        ["f.json", "v2", "a3", "a3", "b1", "b1"]]
    assert [name for name, _, _ in excluded] == ["bad1", "bad0"]


def _pass_of(*seconds, pace=1.0):
    return [run.Outcome(("spectrum", "m.json"), t, "ok", pace=pace)
            for t in seconds]


def test_pass_time_is_the_sum_of_item_medians():
    # The slow second item of pass 1 moves no median.
    passes = [_pass_of(1.0, 9.0), _pass_of(2.0, 3.0), _pass_of(3.0, 2.0)]
    assert run.pass_wall(passes) == 2.0 + 3.0


def test_pacing_cancels_a_slow_machine_but_not_a_slow_program():
    steady = [_pass_of(1.0, 2.0) for _ in range(3)]
    # Two passes on a machine running at half speed: the program and the
    # reference kernel both took twice as long.
    spell = steady[:1] + [_pass_of(2.0, 4.0, pace=2.0) for _ in range(2)]
    assert run.pass_wall(spell) == run.pass_wall(steady) == 3.0
    assert run.pass_wall(spell, paced=False) == 6.0
    slower_program = [_pass_of(1.5, 2.0) for _ in range(3)]
    assert run.pass_wall(slower_program) == 3.5


def test_pace_reports_the_kernel_slowdown_and_pays_its_debt():
    now = [0.0]
    calls = []

    def kernel():                # each call takes two nominal times
        calls.append(1)
        now[0] += 2 * NOMINAL_S

    pace = Pace(clock=lambda: now[0], run=kernel)
    del calls[:]
    pace.owe(3 * NOMINAL_S)      # two calls pay a debt of three nominals
    assert len(calls) == 2
    pace.owe(0.5 * NOMINAL_S)    # the overpayment covers this one
    assert len(calls) == 2
    assert pace.take() == pytest.approx(2.0)


@pytest.fixture
def fake_package():
    """``fakepkg.core`` defines a nest of calls; ``fakepkg.user`` binds
    ``outer`` by name, as the real package's modules do."""
    core = types.ModuleType("fakepkg.core")
    exec("def leaf():\n    return 1\n"
         "def inner():\n    return leaf()\n"
         "def outer():\n    return inner() + inner() + leaf()\n",
         core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.outer = core.outer
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_self_time_arithmetic_on_a_nest_of_calls(fake_package):
    core, user = fake_package
    ticks = iter(range(1, 1000))
    tracer = Tracer({"core": ("outer", "inner", "leaf")},
                    package="fakepkg", clock=lambda: next(ticks))
    with tracer:
        user.outer()          # reached through the other module's binding
    names = [s.name for s in tracer.spans]
    assert names == ["core.outer", "core.inner", "core.leaf", "core.inner",
                     "core.leaf", "core.leaf"]
    # Each clock read is one tick: outer 1..12, inner 2..5 and 6..9 with
    # a leaf of one tick inside each, and the last leaf 10..11.
    assert [s.duration for s in tracer.spans] == [11, 3, 1, 3, 1, 1]
    assert self_times(tracer.spans) == [11 - 3 - 3 - 1, 2, 1, 2, 1, 1]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration


def test_self_time_of_handmade_spans():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 4.0, parent=0),
             Span("c", 2.0, 3.0, parent=1), Span("d", 5.0, 9.0, parent=0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_failed_calls_are_marked(fake_package):
    core, user = fake_package

    def boom():
        raise ValueError("no")
    core.leaf = boom
    tracer = Tracer({"core": ("leaf",)}, package="fakepkg")
    with tracer, pytest.raises(ValueError):
        core.inner()
    assert [s.failed for s in tracer.spans] == [True]


def test_all_wrappers_are_removed_after_the_traced_run():
    import ou_spectra.cli as cli
    from ou_spectra import spectra, verification
    before = (cli.main, verification.model_suite, verification.eig,
              spectra.SpectrumSet.__init__)
    tracer = run.make_tracer()
    with tracer:
        assert cli.main is not before[0]
        assert verification.eig is not before[2]
        assert len(wrapped_names()) > 40
        spectra.SpectrumSet([1.0, 2.0])
    assert wrapped_names() == []
    assert (cli.main, verification.model_suite, verification.eig,
            spectra.SpectrumSet.__init__) == before
    assert [s.name for s in tracer.spans] == ["spectra.SpectrumSet"]


def test_a_traced_call_ends_as_the_untraced_one(tmp_path):
    import ou_spectra.cli as cli
    argv = ["verify", "classical_1d", "--degree", "2", "--levels", "2",
            "--out", str(tmp_path / "v.json")]
    runner = run.Runner(cli)
    try:
        plain = runner.run(argv)
        runner.tracer = run.make_tracer()
        with runner.tracer:
            traced = runner.run(argv, item=(0, 0))
    finally:
        runner.close()
    assert (plain.status, traced.status) == ("ok", "ok")
    names = {s.name for s in runner.tracer.spans}
    assert {"cli.main", "gramian.gramian_inf", "ou_operator.mehler_matrix",
            "tensor_fock.sym_power"} <= names
    assert all(s.item == (0, 0) for s in runner.tracer.spans)


def test_p90_is_emitted_only_with_ten_samples_beyond_it():
    assert run.percentile_with_tail(list(range(1, 101)), 0.9) is not None
    assert run.percentile_with_tail(list(range(1, 51)), 0.9) is None
    assert run.percentile_with_tail([1.0], 0.9) is None
    cut = run.percentile_with_tail(list(range(1, 101)), 0.9)
    assert sum(v > cut for v in range(1, 101)) >= 10


def test_peak_rss_excludes_the_probes():
    import numpy as np

    def probe():
        block = np.ones(20_000_000)        # 160 MB, touched
        return float(block.sum())

    _, peak, probed = run.measure(lambda: None, probe)
    assert probed == 20_000_000.0
    assert run.peak_rss_mb() - peak > 100


def test_metric_names_and_units_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    outcome = run.Outcome(("verify", "m.json"), 1.0, "ok", margin=0.5)
    report = {"plain": [[outcome]], "traced": [[outcome]], "spans": [],
              "setup_raw_s": 1.0, "peak_rss_mb": 50.0, "errors": [],
              "ceilings": {"ceiling_d": (32, ""), "ceiling_n": (7, ""),
                           "ceiling_d_defective": (8, "")}}
    for key, metrics in (("end_to_end", run.end_to_end(report)),
                         ("per_layer", run.trace_metrics(report))):
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: unit for name, (_, unit) in metrics.items()}
