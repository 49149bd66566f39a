"""The refusal contract of the commands, first pass: fixed model files,
and fixed matrix files of ``fock``.

Every run of ``analyze``, ``spectrum``, ``verify`` or ``fock`` ends in one
of two ways: exit 0 or 3 with its report written and nothing on stderr, or
exit 1 or 2 with exactly one stderr line.  No run raises out of
``cli.main`` and none emits a warning.  Only the shape of each outcome is
asserted here, not its reason: some refusals below give a false reason (a
representable ``Q_inf`` refused, a Van Loan overflow on a stiff drift),
which is a defect of the Gramian kernel, not of the contract.
"""

import json
import warnings

import numpy as np
import pytest

from ou_spectra import cli

JORDAN_CONJUGATED = [[-15.5, 5, 12], [12, -3.5, -9], [-23, 7, 17.5]]
#: The drift and the noise shape of the large-noise models.
SWEEP_A = [[-1.0, 0.3], [0.0, -2.0]]
SWEEP_Q = np.array([[1.0, 0.2], [0.2, 0.5]])

MODELS = {
    "zero_noise_1d": {"A": [[-1]], "Q": [[0]]},
    "zero_noise_2d": {"A": [[-1, 0], [0, -2]], "Q": [[0, 0], [0, 0]]},
    "subnormal_noise": {"A": [[-1]], "Q": [[5e-324]]},
    # the whitening W = 1.4e150: level 3 of the chaos frame's S(W) is past
    # the float range at the default degree
    "tiny_noise": {"A": [[-1]], "Q": [[1e-300]]},
    "huge_noise": {"A": [[-1]], "Q": [[1e300]]},
    # noise of scale 2^800: the quadrature oracle takes the scale out, so
    # its norms do not overflow
    "huge_noise_2d": {"A": SWEEP_A, "Q": (2.0 ** 800 * SWEEP_Q).tolist()},
    "huge_drift": {"A": [[-1e300]], "Q": [[1]]},
    "fast_drift": {"A": [[-400]], "Q": [[1]]},
    # the Van Loan block overflows from t = 0.3, the flow at t = 5: each
    # horizon is formed, and refused, only where a check reads it
    # (test_a_horizon_is_refused_only_where_a_check_reads_it)
    "steep_drift": {"A": [[-3000]], "Q": [[1]]},
    "unstable_quiet": {"A": [[200]], "Q": [[0]]},
    "stiff_drift": {"A": [[-25, 4], [0, -0.5]], "Q": [[1, 0], [0, 1]]},
    "half_noise": {"A": [[-1, 0], [0, -3]], "Q": [[0, 0], [0, 1]]},
    "unstable": {"A": [[1]], "Q": [[1]]},
    "negative_margin": {"A": [[0.5]], "Q": [[1]],
                        "tolerances": {"stab_tol": -1}},
    "rank_cut_one": {"A": [[-1, 0], [0, -1]], "Q": [[1, 0], [0, 1]],
                     "tolerances": {"rank_tol": 1.0}},
    "empty": {"A": [], "Q": []},
    "scalar": {"A": -1, "Q": 1},
    "nan_lyap_tol": {"A": [[-1]], "Q": [[1]],
                     "tolerances": {"lyap_tol": float("nan")}},
    "infinite_drift": {"A": [[float("inf")]], "Q": [[1]]},
    "jordan_conjugated": {"A": JORDAN_CONJUGATED,
                          "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    # a "tolerances" value that is not an object is refused even when falsy
    **{"falsy_tolerances_%s" % label: {"A": [[-1]], "Q": [[1]],
                                       "tolerances": value}
       for label, value in (("list", []), ("false", False), ("zero", 0),
                            ("string", ""), ("null", None))},
}


JORDAN_3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
NONCONTRACTION = ["--allow-noncontraction"]

#: Matrix files of ``fock``, each with the options it runs with.
MATRICES = {
    "nan": ([[float("nan")]], []),
    "inf": ([[float("inf"), 0], [0, 0.5]], []),
    "ragged": ([[0.5, 0], [0]], []),
    "one_d": ([0.5, 0.2], []),
    "zero_d": (0.5, []),
    "empty": ([], []),
    "empty_row": ([[]], []),
    "string": ("T", []),
    "boolean": ([[True]], []),
    "no_T": ({"A": [[0.5]]}, []),
    "norm_above_one": ([[2.0]], []),
    "zero": ([[0.0]], []),
    "negative_zero": ([[-0.0]], []),
    "subnormal_diagonal": ([[5e-324, 0], [0, 5e-324]], []),
    "identity_1d": ([[1.0]], []),
    # refused at tensor power 8, the first side above the cap
    "jordan_levels_12": (JORDAN_3, ["--levels", "12"] + NONCONTRACTION),
    # the lift passes the float range at level 2
    "overflowing_level": ({"T": [[1e160, 0], [0, 0.5]]},
                          ["--levels", "3"] + NONCONTRACTION),
    "overflowing_scalar": ([[1e300]], ["--levels", "2"] + NONCONTRACTION),
    # every level is finite, the product 3.2e308 of two eigenvalues is not
    "overflowing_product": ([[0.9e154, 0.9e154], [0.9e154, 0.9e154]],
                            ["--levels", "2"] + NONCONTRACTION),
}


#: Runs of a bundled model at a degree past what the package builds, each
#: with its one stderr line: a polynomial basis above the size cap,
#: refused before any monomial is enumerated (the lattice walk and the
#: Galerkin blocks included), and an alpha! of the chaos family past the
#: float range, refused before exp(L) and the Mehler matrices overflow.
OVERSIZED = [
    (["spectrum", "classical_1d", "--degree", "100000"],
     "error: the polynomial basis of degree 100000 over R^1 would have "
     "dimension 100001, above the cap 4096"),
    (["verify", "degenerate_2d", "--degree", "200"],
     "error: the polynomial basis of degree 200 over R^2 would have "
     "dimension 20301, above the cap 4096"),
    (["spectrum", "hypoelliptic_2d", "--degree", "3000"],
     "error: the polynomial basis of degree 3000 over R^2 would have "
     "dimension 4504501, above the cap 4096"),
    (["verify", "classical_1d", "--degree", "400"],
     "error: level 171 over R^1 holds an alpha! beyond the float range"),
]


def _ends_in_a_report_or_one_line(argv, out, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    if code in (0, 3):
        assert err == ""
        assert out.is_file()
    else:
        assert err.count("\n") == 1 and err.startswith("error: "), err
    return code, err


@pytest.mark.parametrize("command", ["analyze", "spectrum", "verify"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_each_run_ends_in_a_report_or_one_line(tmp_path, capsys, command,
                                               name):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(MODELS[name]))
    _ends_in_a_report_or_one_line([command, str(path)],
                                  tmp_path / "report.json", capsys)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_each_fock_run_ends_in_a_report_or_one_line(tmp_path, capsys, name):
    matrix, options = MATRICES[name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(matrix))
    code, err = _ends_in_a_report_or_one_line(
        ["fock", "--matrix", str(path)] + options, tmp_path / "report.json",
        capsys)
    if name.startswith("overflowing"):
        assert code == 1 and "overflows the float range" in err, err


def test_an_overflowing_chaos_frame_is_refused_in_one_line(tmp_path, capsys):
    # verify on noise of scale 1e-300 at the default degree: the level of
    # the frame past the float range is named, with no warning and no NaN
    # verdict; spectrum and analyze build no frame and report
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(MODELS["tiny_noise"]))
    code, err = _ends_in_a_report_or_one_line(
        ["verify", str(path)], tmp_path / "report.json", capsys)
    assert code == 1
    assert err == ("error: level 3 of the chaos frame's substitution S(W) "
                   "overflows the float range\n")
    for command in ("analyze", "spectrum"):
        code, _ = _ends_in_a_report_or_one_line(
            [command, str(path)], tmp_path / "report.json", capsys)
        assert code == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6, take the scale out "
                   "of Q: the Van Loan Q_t of noise 2^500 is already wrong, "
                   "and the Rayleigh quotients of gramian._ratio_sups "
                   "overflow with a warning")
def test_verify_of_noise_at_2_to_the_500_ends_without_a_warning(tmp_path,
                                                               capsys):
    path = tmp_path / "noise500.json"
    path.write_text(json.dumps({"A": SWEEP_A,
                                "Q": (2.0 ** 500 * SWEEP_Q).tolist()}))
    _ends_in_a_report_or_one_line(["verify", str(path), "--degree", "2"],
                                  tmp_path / "report.json", capsys)


@pytest.mark.parametrize("name, code, err", [
    ("steep_drift", 2, "error: matrix exponential exp(tM) produced "
     "non-finite values at t=0.5, for M = Q_t's Van Loan block matrix "
     "[[A, Q], [0, -A']]\n"),
    ("unstable_quiet", 0, "")])
def test_a_horizon_is_refused_only_where_a_check_reads_it(tmp_path, capsys,
                                                         name, code, err):
    # verify forms its transitions in one stack per kind, but a horizon
    # past a stack's finite prefix is refused only by a check that reads
    # it.  No Gramian check reads t = 0.3, where the Van Loan block of
    # A = -3000 first overflows, so the line names t = 0.5.  Only the
    # splitting identity reads the flow at t = 5, where exp(200 t)
    # overflows, and it is skipped for an unstable drift: exit 0
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(MODELS[name]))
    assert _ends_in_a_report_or_one_line(
        ["verify", str(path)], tmp_path / "report.json", capsys) == (code,
                                                                      err)


@pytest.mark.parametrize("argv, line", OVERSIZED,
                         ids=["-".join(argv) for argv, _ in OVERSIZED])
def test_an_oversized_degree_is_refused_in_one_line(tmp_path, capsys, argv,
                                                     line):
    code, err = _ends_in_a_report_or_one_line(argv, tmp_path / "report.json",
                                              capsys)
    assert code == 1 and err == line + "\n", err
