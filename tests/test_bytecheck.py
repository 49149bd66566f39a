"""The report byte check, ``tools/bytecheck.py``: its diff logic on one
bundled model, run through the checkout and through ``git archive HEAD``."""

import copy
import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "bytecheck", ROOT / "tools" / "bytecheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bytecheck = _load()


def test_bytecheck_reports_each_difference_on_a_bundled_model(tmp_path):
    try:
        root = bytecheck.checkout_root()
    except (RuntimeError, OSError):
        root = None
    if root is None or root.resolve() != ROOT:
        pytest.skip("not inside a git checkout of this repository")
    base = bytecheck.archive(root, "HEAD", tmp_path / "base")
    assert (base / "src" / "ou_spectra" / "cli.py").is_file()
    argvs = bytecheck.bundled_argvs(["jordan_omega1"])
    assert [a[0] for a in argvs] == ["analyze", "spectrum", "verify"]
    base_records = bytecheck.run_tree(base, None, argvs, tmp_path / "b")
    head = bytecheck.run_tree(root, None, argvs, tmp_path / "h")
    assert [r["argv"] for r in base_records] == argvs
    assert [r["rc"] for r in head] == [0, 0, 0]
    assert sorted(head[0]["files"]) == ["jordan_omega1.analyze.curve.csv",
                                        "jordan_omega1.analyze.json"]
    # each written file is recorded with its mode, 0o666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    assert head[0]["modes"] == dict.fromkeys(head[0]["files"],
                                             "%o" % (0o666 & ~umask))
    # a tree differs from HEAD only where it changed the program
    for argv, found in bytecheck.compare(base_records, head):
        assert argv in argvs and found

    changed = copy.deepcopy(head)
    analyze, spectrum, verify = changed
    report = json.loads(analyze["files"]["jordan_omega1.analyze.json"])
    report["rkhs_rank"] = 3
    del report["checks"]["contraction_ok"]
    report["extra"] = [1]
    analyze["files"]["jordan_omega1.analyze.json"] = json.dumps(report)
    csv = analyze["files"]["jordan_omega1.analyze.curve.csv"].splitlines()
    csv[2] = "0.2,0.5,1.0"
    analyze["files"]["jordan_omega1.analyze.curve.csv"] = "\n".join(csv)
    mode = head[0]["modes"]["jordan_omega1.analyze.json"]
    analyze["modes"]["jordan_omega1.analyze.json"] = \
        "600" if mode != "600" else "644"
    spectrum["rc"] = 3
    spectrum["files"].pop("jordan_omega1.spectrum.computed.csv")
    verify["stdout"] += "one more line\n"

    found = dict((tuple(argv), diffs) for argv, diffs in
                 bytecheck.compare(head, changed))
    assert found.pop(tuple(argvs[0])) == [
        ("jordan_omega1.analyze.curve.csv",
         "line 3: %r -> '0.2,0.5,1.0'" % head[0]["files"][
             "jordan_omega1.analyze.curve.csv"].splitlines()[2]),
        ("jordan_omega1.analyze.json checks.contraction_ok",
         "removed (was true)"),
        ("jordan_omega1.analyze.json extra", "added ([1])"),
        ("jordan_omega1.analyze.json rkhs_rank", "2 -> 3"),
        ("jordan_omega1.analyze.json mode",
         "%s -> %s" % (mode, analyze["modes"]["jordan_omega1.analyze.json"])),
    ]
    assert found.pop(tuple(argvs[1])) == [
        ("exit code", "0 -> 3"),
        ("jordan_omega1.spectrum.computed.csv", "not written"),
    ]
    assert found.pop(tuple(argvs[2])) == [("stdout", "%d lines -> %d lines"
                                           % (len(head[2]["stdout"]
                                                  .splitlines()),
                                              len(head[2]["stdout"]
                                                  .splitlines()) + 1))]
    assert not found
    assert bytecheck._kind(argvs[0], "x.json checks[3].residual",
                           "1 -> 2") == "analyze checks[].residual changed"


def _record(rc, report):
    return {"argv": ["verify", "m"], "rc": rc, "stdout": "", "stderr": "",
            "files": {"v.json": json.dumps(report)}}


def test_drift_of_a_roundoff_only_difference():
    # residuals move in their last digits; no check changes its verdict
    base = {"checks": [{"passed": True, "residual": 1.0e-16},
                       {"passed": True, "residual": 2.0e-12}],
            "all_passed": True, "n_checks": 2}
    head = copy.deepcopy(base)
    head["checks"][0]["residual"] = 1.5e-16
    head["checks"][1]["residual"] = 2.0e-12 * (1 + 2 ** -50)
    moved, verdict = bytecheck.drift(_record(0, base), _record(0, head))
    assert moved == {"v.json checks[].residual": 0.5e-16 / 1.5e-16}
    assert verdict is False
    assert bytecheck.drift(_record(0, base), _record(0, base)) == ({}, False)


def test_drift_of_a_verdict_change():
    # one residual crosses its tolerance: a passed field and the exit code
    # move, each of which alone counts as a verdict
    base = {"checks": [{"passed": True, "residual": 1e-9, "tolerance": 1e-8}],
            "all_passed": True}
    head = copy.deepcopy(base)
    head["checks"][0].update(passed=False, residual=4e-8)
    head["all_passed"] = False
    moved, verdict = bytecheck.drift(_record(0, base), _record(3, head))
    assert moved == {"v.json checks[].residual": (4e-8 - 1e-9) / 4e-8}
    assert verdict is True
    assert bytecheck.drift(_record(0, base), _record(0, head))[1] is True
    assert bytecheck.drift(_record(0, base), _record(3, base)) == ({}, True)


def test_refusal_contract_models_are_run_as_files(tmp_path):
    # the refusal-contract models go through each command as model files;
    # on fast_drift, verify's refusal names the first failing horizon of
    # the stacked T_GRID Gramians, t=2
    from test_refusal_contract import MODELS
    argvs = bytecheck.refusal_argvs(MODELS, tmp_path / "in")
    assert len(argvs) == 3 * len(MODELS) == 75
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) \
        == sorted(name + ".json" for name in MODELS)
    fast = [a for a in argvs if a[1] == "fast_drift.json"]
    records = bytecheck.run_tree(ROOT, tmp_path / "in", fast,
                                 tmp_path / "run")
    assert [r["rc"] for r in records] == [2, 0, 2]
    assert records[2]["stderr"].count("\n") == 1
    assert "at t=2," in records[2]["stderr"]


def test_fock_refusal_contract_matrices_are_run_as_files(tmp_path):
    # each matrix file of the contract goes through fock with its options;
    # a NaN matrix is refused with one line, and a level past the float
    # range is refused at that level
    from test_refusal_contract import MATRICES
    argvs = bytecheck.fock_argvs(MATRICES, tmp_path / "in")
    assert len(argvs) == len(MATRICES) == 19
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) \
        == sorted(name + ".json" for name in MATRICES)
    assert ["fock", "--matrix", "jordan_levels_12.json", "--levels", "12",
            "--allow-noncontraction", "--out",
            "out/jordan_levels_12.fock.json"] in argvs
    picked = [a for a in argvs
              if a[2] in ("nan.json", "overflowing_level.json",
                          "zero.json")]
    records = bytecheck.run_tree(ROOT, tmp_path / "in", picked,
                                 tmp_path / "run")
    assert [r["rc"] for r in records] == [1, 1, 0]
    for record in records[:2]:
        assert record["stderr"].count("\n") == 1 and not record["files"]
    assert "overflows the float range" in records[1]["stderr"]
    assert sorted(records[2]["files"]) == ["zero.fock.json"]


def test_check_tally_counts_moved_verdicts_and_factors():
    # rows are matched by name and occurrence; a row whose residual and
    # verdict are unchanged is not a move, and the factor is that of the
    # residual over its tolerance, inf from or to zero
    base = {"checks": [
        {"name": "a", "passed": True, "residual": 1e-9, "tolerance": 1e-8},
        {"name": "b", "passed": False, "residual": 2e-8, "tolerance": 1e-8},
        {"name": "a", "passed": True, "residual": 4e-9, "tolerance": 1e-8},
        {"name": "c", "passed": True, "residual": 0.0, "tolerance": 0.0},
        {"name": "d", "passed": True, "residual": 5e-9, "tolerance": 1e-8}]}
    head = copy.deepcopy(base)
    head["checks"][0].update(passed=False, residual=3e-8)
    head["checks"][1].update(passed=True, residual=5e-9)
    head["checks"][2].update(residual=2e-9)
    head["checks"][3].update(residual=1e-300)
    moves = bytecheck.check_moves(_record(3, base), _record(0, head))
    assert [m[:3] for m in moves] == [
        ("a", True, False), ("a", True, True), ("b", False, True),
        ("c", True, True)]
    assert bytecheck.tally_checks(moves) == {
        "a": [1, 0, pytest.approx(30.0), 2, 0, 0],
        "b": [0, 1, pytest.approx(4.0), 1, 0, 0],
        "c": [0, 0, float("inf"), 1, 0, 0]}
    assert bytecheck.check_moves(_record(0, base), _record(0, base)) == []
    # a report without a list of checks, or an argv that wrote none, adds
    # nothing
    assert bytecheck.check_moves(
        _record(0, {"checks": {"ok": True}}),
        _record(0, {"checks": {"ok": False}})) == []
    refused = dict(_record(1, base), files={})
    assert bytecheck.check_moves(_record(3, base), refused) == []


def test_check_tally_counts_rows_that_one_side_lacks():
    # a row that only one report holds is counted per name as removed or
    # added, not as a moved verdict, and the rows present on both sides
    # keep their occurrence keys: a verify --random report that drops one
    # name from each model suite reads as that name removed twice
    row = {"passed": True, "residual": 1e-9, "tolerance": 1e-8}
    base = {"checks": [dict(row, name=n) for n in "abcab"]}
    head = {"checks": [dict(row, name=n) for n in "acad"]}
    head["checks"][1].update(residual=2e-9)
    moves = bytecheck.check_moves(_record(0, base), _record(0, head))
    assert [m[:3] for m in moves] == [
        ("b", True, bytecheck.REMOVED), ("b", True, bytecheck.REMOVED),
        ("c", True, True), ("d", bytecheck.ADDED, True)]
    assert bytecheck.tally_checks(moves) == {
        "b": [0, 0, 1.0, 0, 2, 0],
        "c": [0, 0, pytest.approx(2.0), 1, 0, 0],
        "d": [0, 0, 1.0, 0, 0, 1]}
    # a report that only one side wrote holds no rows to compare
    refused = dict(_record(1, base), files={})
    assert bytecheck.check_moves(refused, _record(0, head)) == []
    # the field diff matches the rows the same way, in the base's order:
    # one difference per removed, added or changed row, not a shift of
    # every row after it
    found = bytecheck.diff_json(base, head)
    assert [where for where, _ in found] == [
        "checks[b#0]", "checks[c#0].residual", "checks[b#1]",
        "checks[d#0]"]
    assert [change.split(" ", 1)[0] for _, change in found] == [
        "removed", "1e-09", "removed", "added"]
    assert bytecheck._kind(["verify"], "v.json checks[b#1]", "removed (x)") \
        == "verify checks[b] removed"
    moved, _ = bytecheck.drift(_record(0, base), _record(0, head))
    assert moved == {"v.json checks[c].residual": 0.5}
