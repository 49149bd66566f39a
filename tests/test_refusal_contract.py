"""The refusal contract of the commands, first pass: fixed model files.

Every run of ``analyze``, ``spectrum`` or ``verify`` ends in one of two
ways: exit 0 or 3 with its report written and nothing on stderr, or exit 1
or 2 with exactly one stderr line.  No run raises out of ``cli.main`` and
none emits a warning.  Only the shape of each outcome is asserted here,
not its reason: some refusals below give a false reason (a representable
``Q_inf`` refused, a Van Loan overflow on a stiff drift), which is a
defect of the Gramian kernel, not of the contract.
"""

import json
import warnings

import pytest

from ou_spectra import cli

JORDAN_CONJUGATED = [[-15.5, 5, 12], [12, -3.5, -9], [-23, 7, 17.5]]

MODELS = {
    "zero_noise_1d": {"A": [[-1]], "Q": [[0]]},
    "zero_noise_2d": {"A": [[-1, 0], [0, -2]], "Q": [[0, 0], [0, 0]]},
    "subnormal_noise": {"A": [[-1]], "Q": [[5e-324]]},
    "huge_noise": {"A": [[-1]], "Q": [[1e300]]},
    "huge_drift": {"A": [[-1e300]], "Q": [[1]]},
    "fast_drift": {"A": [[-400]], "Q": [[1]]},
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
}


@pytest.mark.parametrize("command", ["analyze", "spectrum", "verify"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_each_run_ends_in_a_report_or_one_line(tmp_path, capsys, command,
                                               name):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(MODELS[name]))
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    if code in (0, 3):
        assert err == ""
        assert out.is_file()
    else:
        assert err.count("\n") == 1 and err.startswith("error: "), err
