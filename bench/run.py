"""Benchmark of the ou-spectra command line, end to end and per module.

    python3 bench/run.py --workload cli_small --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process serves one workload as a closed loop with a single
client: each item is one call to ``ou_spectra.cli.main(argv)`` on input
files generated from the seed, so the program sees only files and argv.
The item list runs a fixed number of passes, chosen from the time budget
and the workload, so the same seed always attempts the same operations.
After the timed loop come the closed-form oracles and the capability
ceilings.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (the
passes of half the budget untraced, then as many traced, to measure the
tracing overhead).  The lines before it give the environment, the failing
check names and the metrics that are not part of the JSON contract.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs
from pace import Pace
from tracer import Tracer, self_times

#: BLAS threads, fixed before numpy loads.  On 2 cores one thread was both
#: faster and steadier than two on every workload.
BLAS_THREADS = 1
SETUP_REPEATS = 5
ORACLE_TOL = 1e-8            # tolerances of acceptance tests 01 and 02
CLASSICAL_TOL = 1e-9
FOCK_TOL = 1e-7
P90_MIN_TAIL = 10
#: Seconds one pass of the item list takes on a 2-core VM; sets the pass
#: count of a run from ``--seconds``.
NOMINAL_PASS_S = {"cli_small": 3.2, "verify_poly": 11.0,
                  "analyze_large": 4.4}
#: At least three passes, so that each item's time is a median.
MIN_PASSES = 3
#: Share of the items' time the reference kernel runs between them (see
#: ``pace.py``).
REFERENCE_SHARE = 0.1

TRACE_TARGETS = {
    "gramian": ("flow", "gramian_t", "gramian_inf", "rkhs_factor",
                "smu_matrix", "contractivity_constant",
                "strong_feller_check", "controllability_rank"),
    "ou_operator": ("assemble_L", "mehler_matrix", "chaos_decomposition",
                    "verify_second_quantization"),
    "tensor_fock": ("tensor_power", "sym_power", "embedding",
                    "second_quantization"),
    "spectra": ("SpectrumSet", "eig", "lattice_spectrum", "hausdorff",
                "match_report", "product_set"),
    "verification": ("model_suite", "contraction_suite", "spectra_suite"),
    "cli": ("main", "load_model", "write_json_report"),
}
REPEAT_TRACKED = ("gramian.gramian_inf", "gramian.gramian_t",
                  "ou_operator.mehler_matrix",
                  "ou_operator.chaos_decomposition")


# --- items ---------------------------------------------------------------

@dataclass
class Outcome:
    """How one CLI call ended.  ``status`` is ``ok``, ``exit1``, ``exit2``,
    ``exit3``, ``report_fail`` (exit 0 but the report says FAIL) or
    ``exception``; ``names`` are the failing checks.  ``pace`` is the
    reference kernel's slowdown over the pass the call ran in."""

    argv: tuple
    seconds: float
    status: str
    names: tuple = ()
    message: str = ""
    oracle_error: str = ""
    margin: float | None = None
    pace: float = 1.0


def _subject(argv):
    """The input an argv names: model, matrix file or random seed."""
    return argv[2] if argv[1].startswith("-") else argv[1]


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().split()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _jordan_oracle(curve_csv):
    worst = max(abs(row[1] - math.exp(-row[0])
                    * (row[0] + math.sqrt(row[0] ** 2 + 1.0)))
                for row in _read_csv(curve_csv))
    if not worst <= ORACLE_TOL:
        return ("jordan_omega1 curve deviates from e^-t (t + sqrt(t^2+1)) "
                "by %.3e" % worst)
    return ""


def _classical_oracle(computed_csv):
    points = sorted(_read_csv(computed_csv))
    want = [[-float(k), 0.0] for k in range(8, -1, -1)]
    worst = max((max(abs(p[0] - w[0]), abs(p[1])) for p, w in
                 zip(points, want)), default=math.inf)
    if len(points) != len(want) or not worst <= CLASSICAL_TOL:
        return ("classical_1d degree-8 spectrum is not {0,...,-8}: %d "
                "points, worst deviation %.3e" % (len(points), worst))
    return ""


def _check(argv, rc):
    """Failing check names, oracle error and verify margin of a finished
    call, read from the files it wrote."""
    command = argv[0]
    out = _option(argv, "--out")
    stem = os.path.splitext(out)[0]
    names, oracle, margin = (), "", None
    if command == "verify" and rc in (0, 3):
        with open(out) as fh:
            report = json.load(fh)
        names = tuple(c["name"] for c in report["failures"])
        ratios = [c["residual"] / c["tolerance"] for c in report["checks"]
                  if c["passed"] and c["tolerance"] > 0]
        margin = max(ratios, default=0.0)
    elif command == "spectrum" and rc in (0, 3):
        if rc == 3:
            names = ("spectrum_match",)
        if argv[1] == "classical_1d":
            oracle = _classical_oracle(stem + ".computed.csv")
    elif command == "analyze" and rc == 0:
        with open(out) as fh:
            report = json.load(fh)
        names = tuple(k for k, ok in sorted(report["checks"].items())
                      if not ok)
        if argv[1] == "jordan_omega1":
            oracle = _jordan_oracle(stem + ".curve.csv")
    elif command == "fock" and rc == 0:
        with open(out) as fh:
            report = json.load(fh)
        if max(report["hausdorff"].values()) > FOCK_TOL:
            names = ("fock_spectra_disagree",)
    return names, oracle, margin


class Runner:
    """Calls ``cli.main`` on one argv at a time and classifies the result.

    Only the call itself is timed; reading its reports happens after.
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self._null = open(os.devnull, "w")

    def close(self):
        self._null.close()

    def run(self, argv, item=None):
        err = io.StringIO()
        if self.tracer is not None:
            self.tracer.item = item
        exc = None
        with contextlib.redirect_stdout(self._null), \
                contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 1
            except Exception as caught:   # the program's own failure
                exc = caught
            seconds = time.perf_counter() - start
        message = (err.getvalue().strip().splitlines() or [""])[-1]
        if exc is not None:
            return Outcome(tuple(argv), seconds, "exception",
                           (type(exc).__name__,),
                           "%s: %s" % (type(exc).__name__, exc))
        names, oracle, margin = _check(argv, rc)
        if rc != 0:
            status = "exit%d" % rc
        else:
            status = "report_fail" if names else "ok"
        return Outcome(tuple(argv), seconds, status, names, message, oracle,
                       margin)


# --- timed loop, oracles, probes ------------------------------------------

def pass_count(workload, budget, variants=1):
    """Passes of the item list that fill about ``budget`` seconds on the
    reference machine, rounded up to a whole number of turns through the
    ``variants`` of the list.  The count depends only on the workload and
    the budget, never on how fast this run goes, so the same seed always
    attempts the same operations."""
    passes = max(MIN_PASSES, round(budget / NOMINAL_PASS_S[workload]))
    return -(-passes // variants) * variants


def run_passes(runner, variants, n_passes, pace):
    """Run ``n_passes`` passes, pass k over the item list
    ``variants[k % len(variants)]``, sampling the reference kernel after
    each item; one list of outcomes per pass, each carrying its pass's
    slowdown."""
    passes = []
    for k in range(n_passes):
        outcomes = []
        for i, argv in enumerate(variants[k % len(variants)]):
            outcomes.append(runner.run(argv, item=(k, i)))
            pace.owe(REFERENCE_SHARE * outcomes[-1].seconds)
        slowdown = pace.take()
        for outcome in outcomes:
            outcome.pace = slowdown
        passes.append(outcomes)
    return passes


#: Statuses of a call that stopped before doing its work.
EARLY_FAILURES = ("exit1", "exit2", "exception")


def screen(runner, groups, picks=1):
    """Pick the timed argvs: per group, the first ``picks`` candidates
    that have no screen argv or whose screen argv does not fail early,
    reporting the ones passed over.  Returns ``picks`` item lists, the
    j-th holding each group's j-th pick, and the exclusions.

    An input that raises in 40 ms would make its later fix read as a
    slowdown, so such inputs stay out of the timed items; the ceilings
    measure those failures instead.  A group with fewer picks than wanted
    repeats them.
    """
    variants = [[] for _ in range(picks)]
    excluded = []
    for candidates in groups:
        chosen = []
        for cand in candidates:
            if len(chosen) == picks:
                break
            outcome = runner.run(cand["screen"]) if "screen" in cand else None
            if outcome is None or outcome.status not in EARLY_FAILURES:
                chosen.append(cand)
            else:
                excluded.append((_subject(cand["screen"]), outcome.status,
                                 outcome.message))
        for j, items in enumerate(variants):
            if chosen:
                items += chosen[j % len(chosen)]["argvs"]
    return variants, excluded


ORACLE_ITEMS = (
    ["analyze", "jordan_omega1", "--t-grid", inputs.FULL_GRID,
     "--out", "out/oracle.analyze.json"],
    ["spectrum", "classical_1d", "--degree", "8",
     "--out", "out/oracle.spectrum.json"],
)


def ceiling(runner, ladder):
    """Largest step of the ladder whose one-point analyze exits 0, with
    every smaller step also exiting 0; and why the next step stopped."""
    best = 0
    for step in ladder:
        outcome = runner.run(step["argv"])
        if outcome.status not in ("ok", "report_fail"):
            return best, "d=%d %s: %s" % (step["d"], outcome.status,
                                          outcome.message)
        best = step["d"]
    return best, "every step completed"


def ceiling_n(cli, probe):
    """Largest degree N at which the three-way check returns at d=3."""
    from ou_spectra.errors import OUSpectraError
    from ou_spectra.ou_operator import verify_second_quantization
    model = cli.load_model(probe["model"])
    best = 0
    for N in probe["degrees"]:
        try:
            verify_second_quantization(model, 1.0, N)
        except OUSpectraError as exc:
            return best, "N=%d %s: %s" % (N, type(exc).__name__, exc)
        best = N
    return best, "every degree returned"


def stall_seconds():
    """Seconds in which some task of this machine waited for a CPU or for
    I/O, from /proc/pressure; empty where the kernel does not report it.
    It tells a slow machine from a slow program."""
    totals = {}
    for resource_name in ("cpu", "io"):
        try:
            with open("/proc/pressure/" + resource_name) as fh:
                some = fh.readline().split()
        except OSError:
            continue
        totals[resource_name] = int(some[-1].split("=")[1]) / 1e6
    return totals


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(loop, probes):
    """Run the timed loop, read the process peak RSS, then run the probes,
    so that the probes never show in ``peak_rss_mb``."""
    looped = loop()
    peak = peak_rss_mb()
    return looped, peak, probes()


# --- metrics ---------------------------------------------------------------

def percentile_with_tail(values, q, min_tail=P90_MIN_TAIL):
    """The q-quantile of ``values`` if at least ``min_tail`` samples lie
    strictly above it, else None."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]
    if sum(v > cut for v in values) < min_tail:
        return None
    return cut


def pass_wall(passes, paced=True):
    """Time of one pass of the item list: the sum over item positions of
    the median time at that position across the passes, each time divided
    by its pass's slowdown unless ``paced`` is false.  A slow spell of the
    machine that the slowdown misses moves no median unless it covers most
    of the passes."""
    return sum(statistics.median(o.seconds / (o.pace if paced else 1.0)
                                 for o in column)
               for column in zip(*passes))


def fingerprint(value):
    """A hashable stand-in that is equal for equal arguments."""
    import dataclasses
    import numpy as np
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, f.name))
            for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    return value


def _call_key(args, kwargs):
    return {"key": hash((fingerprint(args),
                         fingerprint(sorted(kwargs.items()))))}


def _gramian_inf_note(args, kwargs):
    note = _call_key(args, kwargs)
    note["dim"] = args[0].dim                 # gramian_inf(model)
    return note


def _sym_power_note(args, kwargs):
    return {"side": len(args[0]) ** args[1]}  # sym_power(T, n)


def make_tracer():
    annotate = {label: _call_key for label in REPEAT_TRACKED}
    annotate["gramian.gramian_inf"] = _gramian_inf_note
    annotate["tensor_fock.sym_power"] = _sym_power_note
    return Tracer(TRACE_TARGETS, annotate)


def layer_metrics(spans, n_passes):
    """Per-layer metrics from the spans of ``n_passes`` traced passes;
    counts and times are per pass."""
    selfs = self_times(spans)
    metrics = {}
    for module, names in TRACE_TARGETS.items():
        module_self = 0.0
        for name in names:
            label = "%s.%s" % (module, name)
            own = [i for i, s in enumerate(spans) if s.name == label]
            seconds = sum(selfs[i] for i in own)
            module_self += seconds
            metrics[label + ".calls"] = (len(own) / n_passes, "count")
            metrics[label + ".self_s"] = (seconds / n_passes, "s")
        metrics[module + ".self_s"] = (module_self / n_passes, "s")
        if module != "cli":
            fails = sum(s.failed for s in spans
                        if s.name.startswith(module + "."))
            metrics[module + ".fails"] = (fails / n_passes, "count")
    for label in REPEAT_TRACKED:
        seen, repeats, calls = set(), 0, 0
        for s in spans:
            if s.name == label:
                key = (s.item, s.note["key"])
                repeats += key in seen
                calls += 1
                seen.add(key)
        metrics[label + ".repeat_frac"] = (repeats / calls if calls else 0.0,
                                           "ratio")
    flops = sum(2.0 / 3.0 * s.note["dim"] ** 6 for s in spans
                if s.name == "gramian.gramian_inf")
    metrics["gramian.gramian_inf.gflop"] = (flops / 1e9 / n_passes, "GFLOP")
    side = max((s.note["side"] for s in spans
                if s.name == "tensor_fock.sym_power"), default=0)
    metrics["tensor_fock.sym_power.kron_mb"] = (8.0 * side ** 2 / 1e6, "MB")
    return metrics


# --- environment -----------------------------------------------------------

def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_in_use():
    """Threads OpenBLAS reports, asked through ctypes; None if the library
    cannot be found."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(root):
    import numpy as np
    import scipy
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads_in_use(),
    }


# --- the run ----------------------------------------------------------------

def write_spans(spans, path):
    """One JSON line per span; ``parent`` indexes the line of the
    enclosing span and ``item`` is ``[pass, position]``."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "item": s.item, "failed": s.failed})
                     + "\n")
    print("spans -> %s" % path)


def set_up(root, work, workload, seed):
    """Generate the inputs ``SETUP_REPEATS`` times, each in a fresh
    interpreter that first imports ``ou_spectra.cli``.  Returns the median
    time, the input directory, and whether every set-up wrote the same
    bytes."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = Path(__file__).resolve().parent / "inputs.py"
    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        out = work / ("setup%d" % k)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(script), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError("set-up failed:\n" + done.stderr)
        digests.add(done.stdout.strip())
        if k:
            shutil.rmtree(out)
    return statistics.median(times), work / "setup0", len(digests) == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ou_spectra" / "cli.py").is_file():
        print("error: no ou_spectra source under %s; run from the root of "
              "a checkout" % src, file=sys.stderr)
        return 2
    pin_threads()
    work = root / ".bench_work" / ("%s-s%d-p%d" % (args.workload, args.seed,
                                                   os.getpid()))
    work.mkdir(parents=True)
    try:
        setup_raw_s, input_dir, same_inputs = set_up(
            root, work, args.workload, args.seed)
        sys.path.insert(0, str(src))
        import ou_spectra.cli as cli
        if Path(cli.__file__).resolve().parent != (src / "ou_spectra"
                                                   ).resolve():
            print("error: imported ou_spectra from %s, not from %s"
                  % (cli.__file__, src), file=sys.stderr)
            return 2
        here = os.getcwd()
        os.chdir(input_dir)
        try:
            report = run_workload(cli, args)
        finally:
            os.chdir(here)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        write_spans(report["spans"], root / ".bench_work" / (
            "spans-%s-s%d.jsonl" % (args.workload, args.seed)))
    report["env"] = environment(root)
    report["setup_raw_s"] = setup_raw_s
    if not same_inputs:
        report["errors"].append("set-ups wrote different inputs for the "
                                "same seed")
    result = finish(report, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_workload(cli, args):
    with open("manifest.json") as fh:
        manifest = json.load(fh)
    runner = Runner(cli)
    pace = Pace()
    try:
        report = {"errors": [], "excluded": []}
        variants, report["excluded"] = screen(runner, manifest["items"],
                                              manifest["picks"])
        report["n_items"] = len(variants[0])

        def loop():
            before = stall_seconds()
            if not args.trace:
                looped = run_passes(runner, variants, pass_count(
                    args.workload, args.seconds, len(variants)), pace), None
            else:
                half = pass_count(args.workload, args.seconds / 2,
                                  len(variants))
                plain = run_passes(runner, variants, half, pace)
                runner.tracer = make_tracer()
                with runner.tracer:
                    traced = run_passes(runner, variants, half, pace)
                report["spans"] = runner.tracer.spans
                runner.tracer = None
                looped = plain, traced
            after = stall_seconds()
            report["stall"] = {k: after[k] - v for k, v in before.items()}
            return looped

        def probes():
            oracles = [runner.run(argv) for argv in ORACLE_ITEMS]
            return oracles, {
                "ceiling_d": ceiling(runner, manifest["probes"]["ceiling_d"]),
                "ceiling_d_defective": ceiling(
                    runner, manifest["probes"]["ceiling_d_defective"]),
                "ceiling_n": ceiling_n(cli, manifest["probes"]["ceiling_n"]),
            }

        start = time.perf_counter()
        (plain, traced), peak, (oracles, ceilings) = measure(loop, probes)
        loop_and_probes_s = time.perf_counter() - start
    finally:
        runner.close()
    report.update(plain=plain, traced=traced, peak_rss_mb=peak,
                  ceilings=ceilings, loop_and_probes_s=loop_and_probes_s)
    for outcome in oracles + [o for p in plain + (traced or []) for o in p]:
        if outcome.oracle_error:
            report["errors"].append(outcome.oracle_error)
    changed = sum(t.status != p.status
                  for t_pass, p_pass in zip(traced or [], plain)
                  for t, p in zip(t_pass, p_pass))
    if changed:
        report["errors"].append("tracing changed the outcome of %d items"
                                % changed)
    for outcome in oracles:
        if outcome.status != "ok":
            report["errors"].append("oracle item ended %s: %s"
                                    % (outcome.status, outcome.message))
    return report


def finish(report, args):
    """Print the human-readable report and return the result object."""
    plain = report["plain"]
    outcomes = [o for p in plain for o in p]
    times = [o.seconds for o in outcomes]
    failed = [o for o in outcomes if o.status != "ok"]
    ceilings = report["ceilings"]
    env = report["env"]

    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env: " + "  ".join("%s=%s" % kv for kv in env.items()))
    print("load: closed loop, 1 client, %d items per pass, %d passes "
          "(%s s)" % (report["n_items"], len(plain), " ".join(
              "%.3f" % sum(o.seconds for o in p) for p in plain)))
    print("pace: kernel slowdown per pass %s; set-up median %.6g s raw"
          % (" ".join("%.3f" % p[0].pace for p in plain),
             report["setup_raw_s"]))
    for name, status, message in report["excluded"]:
        print("excluded from timed items: %s (%s: %s)"
              % (name, status, message))
    e2e = end_to_end(report)
    for name, (value, unit) in e2e.items():
        print("%-20s %12.6g %s" % (name, value, unit))
    print("%-20s %12.6g s (raw, not paced)"
          % ("wall_s", pass_wall(plain, paced=False)))
    by_command = {}
    for o in outcomes:
        by_command.setdefault(o.argv[0], []).append(o.seconds)
    print("item median by command: " + "  ".join(
        "%s %.4g s (n=%d)" % (c, statistics.median(t), len(t))
        for c, t in sorted(by_command.items())))
    print("%-20s %12.6g s (%d samples)"
          % ("item_p50_s", statistics.median(times), len(times)))
    p90 = percentile_with_tail(times, 0.9)
    if p90 is None:
        print("%-20s not reported: %d samples, fewer than %d above p90"
              % ("item_p90_s", len(times), P90_MIN_TAIL))
    else:
        print("%-20s %12.6g s (%d samples)" % ("item_p90_s", p90, len(times)))
    print("%-20s %12.6g (%d of %d operations)"
          % ("fail_frac", len(failed) / len(outcomes), len(failed),
             len(outcomes)))
    print("%-20s %12d dim" % ("ceiling_d_defective",
                              ceilings["ceiling_d_defective"][0]))
    for name, (_, why) in ceilings.items():
        print("  %s stops at %s" % (name, why))
    print("timed loop, oracles and probes took %.1f s; stalls in the timed "
          "loop: %s" % (report["loop_and_probes_s"], "  ".join(
              "%s %.3f s" % kv for kv in report["stall"].items()) or "n/a"))
    tally = Counter("%s %s %s: %s" % (o.argv[0], _subject(o.argv),
                                       o.status, name)
                    for o in failed for name in (o.names or (o.message,)))
    for line, count in sorted(tally.items()):
        print("failing: %s x%d" % (line, count))

    metrics = trace_metrics(report) if args.trace else e2e
    for error in report["errors"]:
        print("CHECK FAILED: " + error)
    return {
        "correct": not report["errors"],
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def setup_time(report):
    """The median set-up time over the median slowdown of the untraced
    passes.  The set-ups run seconds before the passes, within the same
    spell of the machine; the kernel samples between five set-ups alone
    were too few to pace each set-up by its own."""
    return report["setup_raw_s"] / statistics.median(
        p[0].pace for p in report["plain"])


def end_to_end(report):
    ceilings = report["ceilings"]
    return {
        "setup_s": (setup_time(report), "s"),
        "pass_s": (pass_wall(report["plain"]), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ceiling_d": (ceilings["ceiling_d"][0], "dim"),
        "ceiling_n": (ceilings["ceiling_n"][0], "degree"),
    }


def trace_metrics(report):
    plain, traced = report["plain"], report["traced"]
    spans = report["spans"]
    metrics = layer_metrics(spans, len(traced))
    traced_outcomes = [o for p in traced for o in p]
    metrics["cli.fails"] = (sum(o.status != "ok" for o in traced_outcomes)
                            / len(traced), "count")
    metrics["verification.margin_max"] = (max(
        (o.margin for o in traced_outcomes if o.margin is not None),
        default=0.0), "ratio")
    metrics["gramian.ceiling_d_defective"] = (
        report["ceilings"]["ceiling_d_defective"][0], "dim")
    traced_wall, plain_wall = pass_wall(traced), pass_wall(plain)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0,
                                      "ratio")
    # Both sides are per-pass means, so the comparison is exact.
    module_self = sum(metrics[m + ".self_s"][0] for m in TRACE_TARGETS)
    item_time = sum(o.seconds for o in traced_outcomes) / len(traced)
    print("traced pass_s %.6g s, untraced %.6g s (medians); per pass, the "
          "module self times sum to %.6g s of %.6g s traced item time"
          % (traced_wall, plain_wall, module_self, item_time))
    if module_self > item_time:
        report["errors"].append("module self times %.6g s exceed the "
                                "traced item time %.6g s"
                                % (module_self, item_time))
    for name, (value, unit) in metrics.items():
        print("%-48s %12.6g %s" % (name, value, unit))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
