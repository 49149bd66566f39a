"""End-to-end CLI contract: exit codes, report files, determinism."""

import ast
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ou_spectra import cli, config, gramian, verification
from ou_spectra.errors import DegenerateMeasure, InputError, Unstable
from ou_spectra.ou_operator import (chaos_decomposition, poly_basis,
                                    verify_second_quantization)

from report_reference import report_text, to_jsonable


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# model loading and grid parsing
# ---------------------------------------------------------------------------

def test_list_bundled():
    names = cli.list_bundled()
    assert names == ["classical_1d", "degenerate_2d", "hypoelliptic_2d",
                     "jordan_omega1"]


def test_load_model_bundled_by_name():
    m = cli.load_model("classical_1d")
    assert m.name == "classical_1d"
    assert m.dim == 1


def test_load_model_file_with_overrides(tmp_path):
    path = _write(tmp_path / "m.json", {
        "A": [[-2.0]], "Q": [[1.0]],
        "tolerances": {"rank_tol": 1e-6},
    })
    m = cli.load_model(path)
    assert m.name == "m"
    assert m.tol.rank_tol == 1e-6


def test_load_model_unknown_tolerance_key(tmp_path):
    path = _write(tmp_path / "m.json", {
        "A": [[-2.0]], "Q": [[1.0]], "tolerances": {"nope": 1.0}})
    with pytest.raises(InputError):
        cli.load_model(path)


def test_removed_tolerance_field_is_rejected(tmp_path, capsys):
    path = _write(tmp_path / "m.json", {
        "A": [[-2.0]], "Q": [[1.0]], "tolerances": {"cluster_radius": 1e-5}})
    assert cli.main(["verify", path]) == 1
    assert "cluster_radius" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "spectrum", "verify"])
@pytest.mark.parametrize("A,field,value", [
    ([[-2.0]], "rank_tol", "abc"),
    ([[-2.0]], "rank_tol", None),
    ([[-2.0]], "rank_tol", [1]),
    ([[-2.0]], "rank_tol", True),
    ([[-2.0]], "psd_tol", float("nan")),
    ([[-2.0]], "lyap_tol", float("inf")),
    # a negative margin would let this unstable drift past the guard
    ([[0.5]], "stab_tol", -1),
])
def test_bad_tolerance_values_are_refused(tmp_path, capsys, command, A,
                                          field, value):
    # refused where the model file is read: exit 1, one line naming the
    # field, no report
    path = _write(tmp_path / "m.json",
                  {"A": A, "Q": [[1.0]], "tolerances": {field: value}})
    out = tmp_path / "r.json"
    assert cli.main([command, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: bad tolerance overrides in ")
    assert "tolerance %s must be a finite number >= 0" % field in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("rank_tol", [1.0, 2, 1e300])
def test_rank_tol_of_one_or_more_is_refused(tmp_path, capsys, command,
                                            rank_tol):
    # verify ended in a ValueError traceback on this file: the cut kept no
    # direction of Q_inf, so the restricted flow was 0 x 0
    path = _write(tmp_path / "m.json", {
        "A": [[-1.0, 0.0], [0.0, -1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]],
        "tolerances": {"rank_tol": rank_tol}})
    out = tmp_path / "r.json"
    assert cli.main([command, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: bad tolerance overrides in %s: tolerance rank_tol "
                   "must be below 1 (got %r)" % (path, rank_tol)]
    assert not out.exists()


def test_load_model_missing_and_malformed(tmp_path):
    with pytest.raises(InputError):
        cli.load_model(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        cli.load_model(str(bad))
    with pytest.raises(InputError):
        cli.load_model(_write(tmp_path / "noq.json", {"A": [[-1.0]]}))
    with pytest.raises(InputError):
        cli.load_model(_write(tmp_path / "list.json", {
            "A": [[-1.0]], "Q": [[1.0]], "tolerances": ["rank_tol"]}))


def test_tolerance_profile_variable_is_ignored(tmp_path, monkeypatch,
                                               capsys):
    # the tolerance profiles are gone: a model file's "tolerances" object
    # is the one way to change a bound, and the old variable changes no
    # byte of a report
    argv = ["verify", "classical_1d", "--degree", "2", "--levels", "2",
            "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.json")]) == 0
    for profile in ("loose", "bogus"):
        monkeypatch.setenv("OU_SPECTRA_TOL_PROFILE", profile)
        assert cli.load_model("classical_1d").tol is config.DEFAULT
        out = tmp_path / (profile + ".json")
        assert cli.main(argv + [str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "plain.json").read_bytes()
    capsys.readouterr()


def test_verify_refuses_the_tol_option(tmp_path, capsys):
    # verify takes no --tol: a usage error, exit 1, one usage line
    out = tmp_path / "v.json"
    assert cli.main(["verify", "classical_1d", "--tol", "strict",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: ")
    assert err[1] == "error: unrecognized arguments: --tol strict"
    assert not out.exists()


def test_parse_t_grid():
    g = cli.parse_t_grid("0.1:5.0:0.1")
    assert len(g) == 50
    assert math.isclose(g[0], 0.1) and math.isclose(g[-1], 5.0)
    # endpoint not on the grid is dropped
    g = cli.parse_t_grid("0.5:2.0:0.7")
    assert np.allclose(g, [0.5, 1.2, 1.9])
    for bad in ("1:2", "a:b:c", "0:1:0.1", "1:0.5:0.1", "1:2:-1"):
        with pytest.raises(InputError):
            cli.parse_t_grid(bad)
    most = cli.T_GRID_MAX_POINTS
    assert len(cli.parse_t_grid("1:%d:1" % most)) == most
    with pytest.raises(InputError, match="has more than %d points" % most):
        cli.parse_t_grid("1:%d:1" % (most + 1))
    # (0.3001 - 0.3) / 1e-5 rounds below 10 by more than 1e-12, so the
    # floor drops the endpoint and the append puts it back
    assert math.floor((0.3001 - 0.3) / 1e-5 + 1e-12) == 9
    g = cli.parse_t_grid("0.3:0.3001:1e-5")
    assert len(g) == 11 and g[-1] == (0.3 + 9 * 1e-5) + 1e-5
    assert abs(g[-1] - 0.3001) <= 1e-12


@pytest.mark.parametrize("grid, message", [
    ("nan:1:1", "t-grid entries must be finite, got 'nan:1:1'"),
    ("0.1:1:nan", "t-grid entries must be finite, got '0.1:1:nan'"),
    ("0.1:inf:1", "t-grid entries must be finite, got '0.1:inf:1'"),
    ("0.1:5:1e-9", "t-grid '0.1:5:1e-9' has more than 100000 points"),
])
def test_analyze_refuses_a_nonfinite_or_oversized_t_grid(
        tmp_path, monkeypatch, capsys, grid, message):
    # refused from the three numbers, before any grid is built: a range in
    # the module would raise here
    def no_grid(*args):
        raise AssertionError("a t-grid was built: range%r" % (args,))

    monkeypatch.setattr(cli, "range", no_grid, raising=False)
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "classical_1d", "--t-grid", grid,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def _message(fn):
    """The text of the exception that ``fn()`` raises."""
    with pytest.raises(Exception) as info:
        fn()
    return str(info.value)


def _undecodable(path):
    """`path` holding bytes that are not text, and the text of the error
    that reading it as JSON raises."""
    path.write_bytes(b"\xff\xfe{}")
    with open(path) as fh:
        return str(path), _message(lambda: json.load(fh))


def test_model_file_refusals_exit_1_with_one_line(tmp_path, capsys):
    malformed = tmp_path / "bad.json"
    malformed.write_text("{not json")
    binary, why = _undecodable(tmp_path / "binary.json")
    words = _write(tmp_path / "words.json", {"A": [["x"]], "Q": [[1.0]]})
    nonfinite = tmp_path / "nan.json"
    nonfinite.write_text('{"A": [[NaN]], "Q": [[1.0]]}')
    cases = [
        (binary, "cannot read model file %s: %s" % (binary, why)),
        (malformed, "cannot read model file %s: %s" % (
            malformed, _message(lambda: json.loads("{not json")))),
        (words, "model file %s does not parse to matrices: %s" % (
            words, _message(lambda: np.asarray([["x"]], dtype=float)))),
        (nonfinite, "model matrices must have finite entries"),
    ]
    for path, message in cases:
        out = tmp_path / "r.json"
        assert cli.main(["analyze", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()


def _written(tmp_path, report):
    """The text write_json_report writes for `report`."""
    path = tmp_path / "report.json"
    cli.write_json_report(str(path), report)
    return path.read_text()


def test_writer_replaces_nonfinite(tmp_path):
    out = json.loads(_written(tmp_path, {"k": math.inf, "v": [1.0, math.nan],
                                         "z": 1.0 + 2.0j}))
    assert out["k"] == "inf"
    assert out["v"][1] == "nan"
    assert out["z"] == {"re": 1.0, "im": 2.0}


def test_writer_matches_reference_on_arrays_and_scalars(tmp_path):
    rng = np.random.default_rng(5)
    report = {
        "float": rng.standard_normal((3, 4)) * 1e7,
        "tiny": np.array([5e-324, -0.0, 1e-300, 0.1 + 0.2]),
        "float32": np.array([0.1, 3.5], dtype=np.float32),
        "int": np.arange(-3, 3),
        "uint": np.array([0, 7], dtype=np.uint8),
        "bool": np.array([True, False]),
        "nonfinite": np.array([[1.0, np.inf], [-np.inf, np.nan]]),
        "complex": np.array([1.0 + 2.0j, np.inf * 1j]),
        "finite_complex": rng.standard_normal(5) + 1j * np.array(
            [0.0, -0.0, 1e-300, -2.5, 1e300]),
        "complex_rows": np.array([[1 + 1j, -0.0j], [2.5 - 1j, 3j]]),
        "scalar": np.float64(2.5),
        "scalars": (np.int8(-3), np.bool_(False), np.complex128(1 - 2j),
                    np.float32(0.1), None, "é\n"),
        "zero_d": np.array(7.25),
        "empty": np.zeros((0, 3)),
        "empty_rows": np.zeros((2, 0)),
        "nested": [np.eye(2), {"k": np.array([np.nan])}, [], {}],
        3: "a non-str key", 0.5: {"t": True},
    }
    got = _written(tmp_path, report)
    assert got == report_text(report)
    assert '"inf"' in got and '"nan"' in got and '"-inf"' in got


# The hand-written serializers the result classes carried before the
# encoder learned to write dataclasses.  They stay here as the reference
# for the report format: encoding a result must give the bytes these
# dicts gave.
def _pairs(zs):
    return [{"re": float(z.real), "im": float(z.imag)} for z in zs]


_REFERENCE = {
    "GramianReport": lambda r: {
        "t": r.t,
        "spectral_abscissa": r.spectral_abscissa,
        "stable": r.stable,
        "Q_t": r.Q_t.tolist(),
        "rank_Q_t": r.rank_Q_t,
        "strong_feller": r.strong_feller,
        "Q_inf": None if r.Q_inf is None else r.Q_inf.tolist(),
        "rank_Q_inf": r.rank_Q_inf,
        "q_inf_invertible": r.q_inf_invertible,
    },
    "InvertibilityReport": lambda r: {
        "stable": r.stable,
        "q_inf_invertible": r.q_inf_invertible,
        "q_t_invertible": {repr(k): v for k, v in r.q_t_invertible.items()},
        "equivalent": r.equivalent,
        "note": r.note,
    },
    "MatchReport": lambda r: {
        "tol": r.tol,
        "hausdorff": r.hausdorff,
        "n_computed": r.n_computed,
        "n_predicted": r.n_predicted,
        "unmatched_computed": _pairs(r.unmatched_computed),
        "unmatched_predicted": _pairs(r.unmatched_predicted),
        "passed": r.passed,
    },
    "SpectrumSet": lambda s: {
        "cluster_radius": s.cluster_radius,
        "points": _pairs(s.points),
    },
    "CheckResult": lambda c: {
        "name": c.name,
        "passed": bool(c.passed),
        "residual": c.residual,
        "tolerance": c.tolerance,
        "detail": c.detail,
    },
    "SecondQuantizationReport": lambda r: {
        "t": r.t,
        "N": r.N,
        "tol": r.tol,
        "residual_generator_vs_mehler": r.residual_generator_vs_mehler,
        "residual_generator_vs_lift": r.residual_generator_vs_lift,
        "residual_mehler_vs_lift": r.residual_mehler_vs_lift,
        "max_residual": r.max_residual,
        "passed": r.passed,
    },
}


def _results():
    from ou_spectra.ou_operator import verify_second_quantization
    from ou_spectra.spectra import SpectrumSet, match_report
    from ou_spectra.verification import CheckResult
    stable = cli.load_model("hypoelliptic_2d")
    degenerate = cli.load_model("degenerate_2d")
    unstable = gramian.validate([[1.0, 0.0], [0.0, -1.0]], np.eye(2))
    computed = SpectrumSet([0.0, -1.0, -7.0 + 0.5j])
    return [
        gramian.gramian_report(stable, 1.0),
        gramian.gramian_report(degenerate, 1.0),
        gramian.gramian_report(unstable, 0.5),
        gramian.invertibility_equivalence_report(stable),
        gramian.invertibility_equivalence_report(unstable),
        match_report(computed, SpectrumSet([0.0, -1.0, -2.0]), 1e-6),
        CheckResult("strong_feller_rank_agreement", False, math.inf, 0.0,
                    "rank(Q_t) = 1"),
        computed,
        verify_second_quantization(stable, 0.5, 2),
    ]


def test_result_dataclasses_encode_as_their_fields(tmp_path):
    results = _results()
    assert {type(r).__name__ for r in results} == set(_REFERENCE)
    assert any(r.unmatched_computed for r in results
               if type(r).__name__ == "MatchReport")
    for r in results:
        assert list(to_jsonable(r)) == [f.name for f in dataclasses.fields(r)]
        got = _written(tmp_path, r)
        assert got == report_text(r)
        assert got == report_text(_REFERENCE[type(r).__name__](r))


@pytest.mark.parametrize("argv", [
    ["analyze", "jordan_omega1", "--t-grid", "0.5:1.5:0.5"],
    ["spectrum", "hypoelliptic_2d", "--degree", "4"],
    ["verify", "degenerate_2d"],
    ["fock", "--matrix", "T.json", "--levels", "3"],
])
def test_each_command_writes_the_reference_text(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "T.json", {"T": [[0.5, 0.2], [-0.1, 0.3]]})
    reports = []
    real = cli.write_json_report

    def spy(path, report):
        reports.append(report)
        real(path, report)
    monkeypatch.setattr(cli, "write_json_report", spy)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert len(reports) == 1
    assert out.read_text() == report_text(reports[0])


# ---------------------------------------------------------------------------
# subcommands, happy paths
# ---------------------------------------------------------------------------

def test_analyze_writes_report_and_curve(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    code = cli.main(["analyze", "jordan_omega1",
                     "--t-grid", "0.5:1.5:0.5", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["schema"] == 1
    assert report["passed"] is True
    assert report["rkhs_rank"] == 2
    assert report["gramian"]["strong_feller"] is True
    # the Lyapunov residual is reported, not checked: OUModel refuses a
    # Q_inf above the bound with exit 2
    assert set(report["checks"]) == {"splitting_identity_ok",
                                     "contraction_ok"}
    assert 0.0 <= report["lyapunov_residual"] <= 1e-10
    csv_path = report["curve_csv"]
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "t,smu_norm,K"
    assert len(lines) == 4
    # t=1 row reproduces the closed form for this model
    t, nrm, _ = (float(v) for v in lines[2].split(","))
    assert math.isclose(t, 1.0)
    assert abs(nrm - math.exp(-1) * (1 + math.sqrt(2))) < 1e-10
    assert "strong_feller=True" in capsys.readouterr().out


def test_analyze_solves_lyapunov_once(tmp_path, monkeypatch):
    import ou_spectra.gramian as gr
    calls = []
    real = gr.lyapunov

    def counting(a, q, eigenvalues):
        calls.append(a.shape)
        return real(a, q, eigenvalues)

    monkeypatch.setattr(gr, "lyapunov", counting)
    out = str(tmp_path / "h.json")
    assert cli.main(["analyze", "hypoelliptic_2d",
                     "--t-grid", "0.1:5.0:0.1", "--out", out]) == 0
    assert json.loads(open(out).read())["t_grid"]["count"] == 50
    assert calls == [(2, 2)]


def _analyze_calls(tmp_path, monkeypatch, grid):
    """Calls of the numpy.linalg SVD and eigensolvers, and of the flow and
    Q_t, in one ``analyze hypoelliptic_2d`` over `grid`."""
    import numpy.linalg._linalg as la
    counts = dict.fromkeys(("svd", "eigh", "eigvalsh", "flow",
                            "gramian_t"), 0)

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        # np.linalg.norm reaches svd through the private module
        for name in ("svd", "eigh", "eigvalsh"):
            wrapped = counting(name, getattr(la, name))
            patch.setattr(la, name, wrapped)
            patch.setattr(np.linalg, name, wrapped)
        for name in ("flow", "gramian_t"):
            wrapped = counting(name, getattr(gramian, name))
            for module in (gramian, cli, verification):
                if hasattr(module, name):
                    patch.setattr(module, name, wrapped)
        out = str(tmp_path / "h.json")
        assert cli.main(["analyze", "hypoelliptic_2d", "--t-grid", grid,
                         "--out", out]) == 0
    return counts


def test_analyze_curve_solves_once_per_grid(tmp_path, monkeypatch):
    # the curve's SVD norms, rank splits and compressions take one call per
    # stack of horizons, while each horizon makes its own flow and Q_t
    short = _analyze_calls(tmp_path, monkeypatch, "0.1:1.0:0.1")
    full = _analyze_calls(tmp_path, monkeypatch, "0.1:5.0:0.1")
    for name in ("svd", "eigh", "eigvalsh"):
        assert full[name] == short[name] > 0, name
    assert full["flow"] - short["flow"] == 40
    assert full["gramian_t"] - short["gramian_t"] == 40


def test_analyze_exits_2_on_a_nan_lyapunov_solve(tmp_path, monkeypatch,
                                                 capsys):
    import ou_spectra.gramian as gr
    monkeypatch.setattr(gr, "lyapunov",
                        lambda a, q, eigenvalues: np.full(a.shape, np.nan))
    out = str(tmp_path / "h.json")
    assert cli.main(["analyze", "hypoelliptic_2d", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "Lyapunov solve is unreliable" in err[0]
    assert not os.path.exists(out)


def test_analyze_one_point_at_d128(tmp_path):
    from ou_spectra.verification import random_stable_model
    model = random_stable_model(np.random.default_rng(128), d=128,
                                kind="complex")
    path = _write(tmp_path / "big.json", {
        "A": model.A.tolist(), "Q": model.Q.tolist(), "name": "big"})
    out = str(tmp_path / "big_report.json")
    assert cli.main(["analyze", path, "--t-grid", "1.0:1.0:1.0",
                     "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["gramian"]["strong_feller"] is True
    assert report["rkhs_rank"] == 128


def test_exit_2_names_rank_gap(tmp_path, capsys):
    # single-input chain on 8 of 16 coordinates: Q_t at t = 1 resolves
    # only 5 of the 8 reachable directions
    A = -2.0 * np.eye(16)
    A[:8, :8] = -np.eye(8) + np.eye(8, k=-1)
    Q = np.zeros((16, 16))
    Q[0, 0] = 1.0
    path = _write(tmp_path / "chain.json", {"A": A.tolist(), "Q": Q.tolist()})
    assert cli.main(["analyze", path, "--t-grid", "1.0:1.0:1.0",
                     "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "controllability rank is 8" in err
    assert err.count("largest dropped") == 2


def test_import_leaves_quadrature_modules_unloaded(tmp_path):
    # the dense kernels and verify's quadrature oracle are written in
    # numpy, so neither the import nor any command loads scipy, whose
    # linalg alone adds about 28 MB and 0.2 s to every process; one
    # process runs the four commands in turn and lists the scipy modules
    # loaded after the import and after each command
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    matrix = _write(tmp_path / "T.json", {"T": [[0.5, 0.2], [0.0, -0.3]]})
    out = ["--out", str(tmp_path / "report.json")]
    argvs = [["verify", "--random", "1", "1"] + out,
             ["verify", "hypoelliptic_2d"] + out,
             ["analyze", "jordan_omega1"] + out,
             ["spectrum", "classical_1d", "--degree", "8"] + out,
             ["fock", "--matrix", matrix] + out]
    code = ("import json, sys, ou_spectra.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "seen = [loaded()]\n"
            "for argv in %r:\n"
            "    assert ou_spectra.cli.main(argv) == 0, argv\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen), file=sys.stderr)\n" % argvs)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         check=True, capture_output=True, text=True)
    assert json.loads(run.stderr) == [[]] * (1 + len(argvs))


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # the parser (whose help text scans the bundled models) is cached;
    # a usage mistake still exits 1 with the same usage text every time
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    errors = []
    for _ in range(2):
        assert cli.main(["analyze", "classical_1d", "--bogus-flag"]) == 1
        errors.append(capsys.readouterr().err)
    assert cli.main(["verify"]) == 1
    capsys.readouterr()
    assert built == [1]
    assert errors[0] == errors[1] == (
        "usage: ou-spectra [-h] {analyze,spectrum,verify,fock} ...\n"
        "error: unrecognized arguments: --bogus-flag\n")
    cli._parser.cache_clear()


def test_analyze_deterministic_output(tmp_path):
    out = str(tmp_path / "a.json")
    assert cli.main(["analyze", "classical_1d", "--out", out]) == 0
    first = open(out, "rb").read()
    assert cli.main(["analyze", "classical_1d", "--out", out]) == 0
    second = open(out, "rb").read()
    assert first == second


def test_spectrum_classical(tmp_path):
    out = str(tmp_path / "spec.json")
    code = cli.main(["spectrum", "classical_1d", "--degree", "4",
                     "--tol", "1e-9", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["passed"] is True
    got = sorted(p["re"] for p in report["computed"]["points"])
    assert np.allclose(got, [-4, -3, -2, -1, 0], atol=1e-9)
    assert os.path.exists(report["predicted_csv"])
    lines = open(report["computed_csv"]).read().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + len(report["computed"]["points"])


def test_analyze_classical_report_values(tmp_path):
    out = str(tmp_path / "rep.json")
    assert cli.main(["analyze", "classical_1d", "--out", out]) == 0
    gram = json.loads(open(out).read())["gramian"]
    assert gram["spectral_abscissa"] == -1.0
    assert np.allclose(gram["Q_inf"], [[0.5]], atol=1e-12)


def test_spectrum_jordan_small_degree(tmp_path):
    out = str(tmp_path / "spec.json")
    assert cli.main(["spectrum", "jordan_omega1", "--degree", "2",
                     "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["passed"] is True
    for key in ("predicted", "computed"):
        got = sorted(p["re"] for p in report[key]["points"])
        assert np.allclose(got, [-2, -1, 0], atol=1e-9)


def test_spectrum_rotation_drift_is_numerical_failure(tmp_path, capsys):
    rot = _write(tmp_path / "rot.json",
                 {"A": [[0.0, -1.0], [1.0, 0.0]],
                  "Q": [[1.0, 0.0], [0.0, 1.0]]})
    assert cli.main(["spectrum", rot]) == 2
    assert "stab" in capsys.readouterr().err


def test_spectrum_rejects_eigenvalue_at_rank_threshold(tmp_path, capsys):
    # With A = -I/2, Q_inf = Q = diag(1, tiny) exactly: an eigenvalue at
    # rank_tol * max gives rank 1, the next float above it rank 2
    rank_tol = config.DEFAULT.rank_tol
    out = str(tmp_path / "spec.json")
    for tiny, code in ((rank_tol, 2), (np.nextafter(rank_tol, 1.0), 0)):
        path = _write(tmp_path / "m.json", {
            "A": [[-0.5, 0.0], [0.0, -0.5]], "Q": [[1.0, 0.0], [0.0, tiny]]})
        assert cli.main(["spectrum", path, "--out", out]) == code
        err = capsys.readouterr().err
        assert ("rank 1 < 2" in err) == (code == 2)


@pytest.mark.parametrize("broken", ["raise", "nan"])
def test_spectrum_galerkin_eig_failure_exits_2(tmp_path, monkeypatch, capsys,
                                               broken):
    # only the parity blocks of L are larger than the 2x2 drift
    real = np.linalg.eigvals

    def eigvals(M):
        if M.shape[0] <= 2:
            return real(M)
        if broken == "raise":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.full(M.shape[0], np.nan)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    out = str(tmp_path / "spec.json")
    assert cli.main(["spectrum", "jordan_omega1", "--out", out]) == 2
    assert "eigenvalue computation" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_spectrum_explicit_window(tmp_path):
    out = str(tmp_path / "spec.json")
    code = cli.main(["spectrum", "classical_1d", "--degree", "5",
                     "--re-min", "-2.5", "--im-max", "1.0", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    got = sorted(p["re"] for p in report["predicted"]["points"])
    assert np.allclose(got, [-2, -1, 0], atol=1e-12)


def test_verify_model_and_random(tmp_path, capsys):
    out = str(tmp_path / "v.json")
    assert cli.main(["verify", "hypoelliptic_2d", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["all_passed"] is True
    assert report["untested_theory"]
    assert "PASS" in capsys.readouterr().out

    assert cli.main(["verify", "--random", "5", "2", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["n_checks"] > 50


def test_verify_random_reports_the_model_and_contraction_suites(tmp_path,
                                                               capsys):
    # one model suite and one contraction suite: the spectra self-tests
    # of the package's helpers are tier-1 tests, not report entries
    out = str(tmp_path / "v.json")
    assert cli.main(["verify", "--random", "3", "1", "--out", out]) == 0
    report = json.loads(open(out).read())
    rng = np.random.default_rng(3)
    model = verification.random_stable_model(rng, d=2)
    want = [c.name for c in verification.model_suite(
        model, seed=int(rng.integers(2 ** 31)))]
    T = verification.random_contraction(rng, d=2, kind="diagonalizable")
    want += [c.name for c in verification.contraction_suite(
        T, seed=int(rng.integers(2 ** 31)), prefix="contraction_0_")]
    assert [c["name"] for c in report["checks"]] == want
    assert report["n_checks"] == len(want) == 34
    stdout = capsys.readouterr().out
    for check in verification.spectra_suite(0):
        assert check.name not in stdout


@pytest.mark.parametrize("A,Q", [
    ([[-1.0]], [[0.0]]),
    ([[-1.0, 0.0], [0.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]]),
    ([[-1.0]], [[5e-324]]),
])
def test_verify_on_zero_noise_writes_its_report(tmp_path, capsys, A, Q):
    # a rank-0 factor has 0x0 restricted flows; the suite runs through
    # them to its chaos SKIP, as a rank-1 factor does.  The subnormal Q
    # exits 3 on the strong Feller rank agreement (ROADMAP item 22).
    path = _write(tmp_path / "zero.json", {"A": A, "Q": Q})
    out = tmp_path / "zero.out.json"
    assert cli.main(["verify", path, "--out", str(out)]) in (0, 3)
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"restricted_flow_semigroup_law", "chaos_checks"} <= names
    assert "SKIP chaos_checks" in capsys.readouterr().out


def test_fock_subcommand(tmp_path):
    mat = _write(tmp_path / "T.json", {"T": [[0.5, 0.3], [0.0, -0.4]]})
    out = str(tmp_path / "fock.json")
    assert cli.main(["fock", "--matrix", mat, "--levels", "3",
                     "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["levels"] == 3
    assert report["hausdorff"]["sym_vs_predicted"] <= 1e-10
    assert report["hausdorff"]["tensor_vs_predicted"] <= 1e-10
    # bare nested list is accepted too
    mat2 = _write(tmp_path / "T2.json", [[0.25]])
    assert cli.main(["fock", "--matrix", mat2, "--out", out]) == 0


def test_fock_scalar_and_diagonal_oracles(tmp_path):
    out = str(tmp_path / "fock.json")
    half = _write(tmp_path / "half.json", {"T": [[0.5]]})
    assert cli.main(["fock", "--matrix", half, "--levels", "2",
                     "--out", out]) == 0
    report = json.loads(open(out).read())
    got = sorted(p["re"] for p in report["sym_spectrum"]["points"])
    assert np.allclose(got, [0.25, 0.5, 1.0], atol=1e-12)
    assert report["hausdorff"]["sym_vs_predicted"] == 0.0

    diag = _write(tmp_path / "diag.json",
                  {"T": [[0.5, 0.0], [0.0, 1.0 / 3.0]]})
    assert cli.main(["fock", "--matrix", diag, "--levels", "2",
                     "--out", out]) == 0
    report = json.loads(open(out).read())
    got = sorted(p["re"] for p in report["sym_spectrum"]["points"])
    want = sorted([1.0, 0.5, 1 / 3, 0.25, 1 / 6, 1 / 9])
    assert np.allclose(got, want, atol=1e-12)


def test_fock_past_level_20(tmp_path, capsys):
    # alpha! passes 2^63 at level 21: a 1x1 T runs (to level 170, where
    # 170! is the last factorial below the float range); a 2x2 T meets
    # the tensor size cap, as at levels 13 to 20
    out = tmp_path / "fock.json"
    half = _write(tmp_path / "half.json", {"T": [[0.5]]})
    assert cli.main(["fock", "--matrix", half, "--levels", "21",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["hausdorff"]["sym_vs_predicted"] == 0.0
    assert cli.main(["fock", "--matrix", half, "--levels", "171",
                     "--out", str(out)]) == 1
    tri = _write(tmp_path / "tri.json", {"T": [[0.5, 0.1], [0.0, 0.3]]})
    assert cli.main(["fock", "--matrix", tri, "--levels", "21",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: level 171 over R^1 holds an alpha! beyond the float range",
        "error: tensor power 13 would have side 8192, above the cap 4096"]


@pytest.mark.parametrize("T,levels,message", [
    ([[0.5, 0.1], [0.0, 0.3]], "13",
     "tensor power 13 would have side 8192, above the cap 4096"),
    ([[0.5, 0.1], [0.0, 0.3]], "200",
     "tensor power 13 would have side 8192, above the cap 4096"),
    ([[0.5]], "1000000",
     "level 171 over R^1 holds an alpha! beyond the float range"),
])
def test_fock_refuses_before_it_builds_a_level(tmp_path, capsys, T, levels,
                                               message):
    # each truncation's guards run before its first level, and the route
    # that refuses first is built first: over R^2 the tensor route, whose
    # 4096^2 level 12 is never built and whose level 13 is named rather
    # than the symmetric alpha! overflow at level 171; over R^1 the
    # symmetric route, before a million 1x1 tensor levels
    path = _write(tmp_path / "T.json", {"T": T})
    out = tmp_path / "fock.json"
    tracemalloc.start()
    try:
        code = cli.main(["fock", "--matrix", path, "--levels", levels,
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert peak < 1 << 20
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_exit_1_on_input_errors(tmp_path, capsys):
    assert cli.main(["analyze", "no_such_model"]) == 1
    assert cli.main(["analyze", "classical_1d", "--t-grid", "oops"]) == 1
    big = _write(tmp_path / "big.json", {"T": [[2.0]]})
    assert cli.main(["fock", "--matrix", big]) == 1
    assert cli.main(["verify"]) == 1  # neither model nor --random
    capsys.readouterr()


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_fock_rejects_a_nonfinite_matrix(tmp_path, capsys, entry):
    # Python's json reads NaN and Infinity; the matrix must be refused as
    # input, not reach the SVD of its operator norm and raise from there
    path = tmp_path / "T.json"
    path.write_text('{"T": [[%s, 0.1], [0.0, 0.3]]}' % entry)
    out = tmp_path / "fock.json"
    assert cli.main(["fock", "--matrix", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: matrix must have finite entries\n"
    assert not out.exists()


def test_fock_refusals_exit_1_with_one_line(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    malformed = tmp_path / "bad.json"
    malformed.write_text("[[0.5,")
    ragged = _write(tmp_path / "ragged.json", {"T": [[0.5, 0.1], [0.2]]})
    wide = _write(tmp_path / "wide.json", [[0.5, 0.1, 0.0], [0.2, 0.3, 0.0]])
    binary, why = _undecodable(tmp_path / "binary.json")
    cases = [
        (binary, "cannot read matrix file %s: %s" % (binary, why)),
        (missing, "cannot read matrix file %s: %s" % (
            missing, _message(lambda: open(missing)))),
        (malformed, "cannot read matrix file %s: %s" % (
            malformed, _message(lambda: json.loads("[[0.5,")))),
        (ragged, "matrix file %s does not parse: %s" % (ragged, _message(
            lambda: np.asarray([[0.5, 0.1], [0.2]], dtype=float)))),
        (wide, "matrix must be square, got shape (2, 3)"),
    ]
    for path, message in cases:
        out = tmp_path / "fock.json"
        assert cli.main(["fock", "--matrix", str(path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()


def test_exit_1_on_usage_error(capsys):
    # a parser refusal returns exit 1 like any other input error: the
    # usage line, then one error line
    assert cli.main(["analyze", "classical_1d", "--bogus-flag"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: ")
    assert err[-1] == "error: unrecognized arguments: --bogus-flag"


@pytest.mark.parametrize("argv,message", [
    (["verify", "--random", "1", "0"],
     "argument --random: COUNT must be >= 1 (got 0)"),
    (["verify", "--random", "1", "-1"],
     "argument --random: COUNT must be >= 1 (got -1)"),
    (["verify", "--random", "-1", "1"],
     "argument --random: SEED must be >= 0 (got -1)"),
    (["verify", "--random", "x", "1"],
     "argument --random: invalid int value: 'x'"),
    (["verify", "classical_1d", "--degree", "0"],
     "argument --degree: must be >= 1 (got 0)"),
    (["verify", "classical_1d", "--levels", "-1"],
     "argument --levels: must be >= 0 (got -1)"),
    (["spectrum", "classical_1d", "--degree", "-2"],
     "argument --degree: must be >= 1 (got -2)"),
    (["fock", "--matrix", "T.json", "--levels", "-1"],
     "argument --levels: must be >= 0 (got -1)"),
    # a usage error, not a FAIL report (exit 3) or a vacuous pass
    (["spectrum", "classical_1d", "--tol", "nan"],
     "argument --tol: must be a finite number >= 0 (got nan)"),
    (["spectrum", "classical_1d", "--tol", "-1"],
     "argument --tol: must be a finite number >= 0 (got -1)"),
    (["spectrum", "classical_1d", "--tol", "inf"],
     "argument --tol: must be a finite number >= 0 (got inf)"),
    (["spectrum", "classical_1d", "--tol", "x"],
     "argument --tol: invalid float value: 'x'"),
])
def test_out_of_range_counts_are_refused_by_the_parser(tmp_path, capsys,
                                                        argv, message):
    # refused before any model is read or report written: exit 1 with a
    # line that names the flag
    out = tmp_path / "r.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: " + message
    assert not out.exists()


def test_smallest_counts_are_accepted(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert cli.main(["verify", "classical_1d", "--degree", "1",
                     "--levels", "0", "--out", out]) == 0
    assert cli.main(["verify", "--random", "0", "1", "--out", out]) == 0
    assert json.loads(open(out).read())["subject"] == \
        "1 random models (seed 0)"
    T = _write(tmp_path / "T.json", {"T": [[0.5]]})
    assert cli.main(["fock", "--matrix", T, "--levels", "0",
                     "--out", out]) == 0
    capsys.readouterr()


def test_exit_2_on_numerical_hypothesis(tmp_path, capsys):
    unstable = _write(tmp_path / "u.json",
                      {"A": [[1.0]], "Q": [[1.0]], "name": "u"})
    assert cli.main(["analyze", unstable]) == 2
    assert cli.main(["spectrum", unstable]) == 2
    assert cli.main(["spectrum", "degenerate_2d"]) == 2
    err = capsys.readouterr().err
    assert "hypothesis" in err


def test_verify_exits_2_on_a_nonfinite_exponential(tmp_path, monkeypatch,
                                                   capsys):
    # at degree 3 over d = 2 the odd-degree block of L has side 6; every
    # other exponential of verify is at most 4 x 4 or a stack of 2 x 2
    real = gramian.expm

    def expm(M):
        if M.ndim == 2 and M.shape[0] > 4:
            return np.full(M.shape, np.nan)
        return real(M)

    monkeypatch.setattr(gramian, "expm", expm)
    out = str(tmp_path / "v.json")
    assert cli.main(["verify", "jordan_omega1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "matrix exponential" in err
    assert err.endswith("at t=1, for M = the odd-degree block of L\n")
    assert not os.path.exists(out)


def test_one_message_per_hypothesis(tmp_path, capsys):
    # stability and nondegeneracy are each refused in one place, so every
    # route that needs one of them reports the same text
    out = str(tmp_path / "r.json")
    unstable = _write(tmp_path / "u.json", {"A": [[1.0]], "Q": [[1.0]]})
    errs = []
    for command in ("analyze", "spectrum"):
        assert cli.main([command, unstable, "--out", out]) == 2
        errs.append(capsys.readouterr().err)
    with pytest.raises(Unstable) as exc:
        verify_second_quantization(cli.load_model(unstable), 1.0, 2)
    assert errs == ["error: %s\n" % exc.value] * 2
    assert str(exc.value).endswith("hypothesis failed: stability")
    # verify skips the checks that need a steady state, with that message
    assert cli.main(["verify", unstable, "--out", out]) == 0
    capsys.readouterr()
    skips = {c["name"]: c["detail"] for c in json.loads(open(out).read())
             ["checks"] if c["detail"].startswith("skipped: ")}
    assert skips == dict.fromkeys(
        ("invertibility_equivalence", "steady_state_checks"),
        "skipped: %s" % exc.value)

    assert cli.main(["spectrum", "degenerate_2d", "--out", out]) == 2
    err = capsys.readouterr().err
    degenerate = cli.load_model("degenerate_2d")
    with pytest.raises(DegenerateMeasure) as exc:
        chaos_decomposition(degenerate, poly_basis(2, 2))
    assert err == "error: %s\n" % exc.value
    (skip,) = [c for c in verification.model_suite(degenerate)
               if c.name == "chaos_checks"]
    assert skip.detail == "skipped: %s" % exc.value
    assert str(exc.value).startswith(
        "invariant covariance Q_inf has rank 1 < 2, smallest kept 0.5 ")
    assert str(exc.value).endswith("hypothesis failed: nondegeneracy")


def test_verify_fails_on_disagreeing_rank_criteria(tmp_path, monkeypatch,
                                                  capsys):
    # the disagreement is a failed check, not a refusal: the suite runs on,
    # without the strict-contraction check that needs the Feller verdict
    monkeypatch.setattr(gramian, "controllability_rank", lambda *a, **k: 0)
    out = tmp_path / "v.json"
    assert cli.main(["verify", "classical_1d", "--out", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("PASS")] == [
        lines[3], "22 checks, 1 failed -> %s" % out]
    assert lines[3].startswith(
        "FAIL strong_feller_rank_agreement             residual inf "
        "(tol 0.000e+00)  [rank(Q_t) = 1 but the controllability rank is 0 "
        "at t=0.1; Q_t eigenvalues: ")
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert "restricted_flow_contraction" in names
    assert "restricted_flow_strict_contraction" not in names


def test_verify_prints_skipped_checks_as_skip(tmp_path, capsys):
    # a skipped check is no pass: stdout says SKIP, the report is unchanged
    out = str(tmp_path / "v.json")
    unstable = _write(tmp_path / "u.json", {"A": [[1.0]], "Q": [[1.0]]})
    for model, names in (("degenerate_2d", ["chaos_checks"]),
                         (unstable, ["invertibility_equivalence",
                                     "steady_state_checks"])):
        assert cli.main(["verify", model, "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        skips = [c for c in json.loads(open(out).read())["checks"]
                 if c["detail"].startswith(verification.SKIPPED)]
        assert [c["name"] for c in skips] == names
        for c in skips:
            assert (c["passed"], c["residual"], c["tolerance"]) == (
                True, 0.0, 0.0)
            assert "SKIP %-40s  [%s]" % (c["name"], c["detail"]) in lines
        assert not [line for line in lines
                    if line.startswith("PASS") and "skipped" in line]
        assert sum(line.startswith("SKIP") for line in lines) == len(names)


def test_analyze_names_the_overflowing_block_exponential(tmp_path, capsys):
    # A = -400 is stable and Q_t is finite, but Q_t's Van Loan block
    # matrix carries exp(400 t), which overflows at the report horizon
    stiff = _write(tmp_path / "stiff.json", {"A": [[-400.0]], "Q": [[1.0]]})
    assert cli.main(["analyze", stiff,
                     "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: matrix exponential exp(tM) produced non-finite "
                   "values at t=5, for M = Q_t's Van Loan block matrix "
                   "[[A, Q], [0, -A']]\n")


def test_bench_trace_targets_resolve():
    # the benchmark's tracer wraps each of these names by attribute, so a
    # renamed or deleted one breaks every traced run; read from the file,
    # without importing the benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACE_TARGETS"]]
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module("ou_spectra." + module)
        assert [n for n in names if not hasattr(mod, n)] == [], module


def test_verify_exits_2_when_q_t_overflows(tmp_path):
    # A = 200: Q_t is 9.4e257 at t = 1.5 and overflows at t = 2, on
    # verify's Gramian grid, while the block exponential is still finite;
    # run in a process of its own, so that stderr is exactly what a shell
    # sees, without a numpy overflow warning
    model = _write(tmp_path / "fast.json", {"A": [[200]], "Q": [[1]]})
    out = tmp_path / "v.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-m", "ou_spectra.cli", "verify", model,
         "--out", str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "error: Q_t is not finite at t=2: the growth of exp(tA) overflows "
        "float64"]
    assert not out.exists()


def test_exit_3_on_failed_suite(tmp_path, monkeypatch, capsys):
    from ou_spectra import verification
    real = verification._q_inf
    monkeypatch.setattr(verification, "_q_inf", lambda m: real(m) * 1.05)
    out = str(tmp_path / "v.json")
    code = cli.main(["verify", "jordan_omega1", "--out", out])
    assert code == 3
    report = json.loads(open(out).read())
    assert report["all_passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_allow_noncontraction_flag(tmp_path):
    big = _write(tmp_path / "big.json", {"T": [[2.0]]})
    out = str(tmp_path / "fock.json")
    assert cli.main(["fock", "--matrix", big, "--allow-noncontraction",
                     "--out", out]) == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "classical_1d"], ["spectrum", "classical_1d"],
    ["verify", "classical_1d"], ["fock", "--matrix", "T.json"]])
def test_out_into_missing_directory_exits_1(tmp_path, monkeypatch, capsys,
                                           argv):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "T.json", {"T": [[0.5]]})
    out = str(tmp_path / "missing" / "x.json")
    assert cli.main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["T.json"]


@pytest.mark.parametrize("command", ["analyze", "spectrum", "verify"])
def test_each_command_derives_the_model_frame_once(tmp_path, monkeypatch,
                                                   command):
    # one eigvals of the drift and one eigh of Q_inf per command, and no
    # eigvalsh of Q_inf: its rank is decided once, by the invariant factor
    model = cli.load_model("hypoelliptic_2d")
    A, Qi = model.A, gramian.gramian_inf(model)
    calls = []
    for name in ("eigvals", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(M, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, np.array(M)))
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    out = str(tmp_path / "r.json")
    assert cli.main([command, "hypoelliptic_2d", "--out", out]) == 0
    assert [n for n, M in calls if np.array_equal(M, A)] == ["eigvals"]
    assert [n for n, M in calls if np.array_equal(M, Qi)] == ["eigh"]


def test_no_temp_files_left_behind(tmp_path):
    out = str(tmp_path / "rep.json")
    assert cli.main(["analyze", "classical_1d", "--out", out]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []
