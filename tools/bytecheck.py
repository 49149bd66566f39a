"""Byte check of command-line reports against another revision.

    python3 tools/bytecheck.py --base HEAD~ [--seeds 1 2 3]

Run from anywhere inside a git checkout.  The base revision is unpacked
with ``git archive`` into a temporary directory; the other tree is the
checkout's working tree.  The inputs of each benchmark workload and seed
are written once, by the checkout's ``bench/inputs.py`` (run as a script,
which only reads it), and every item argv of the workload (screens
included) and every ceiling-probe argv is run through both trees; so are
``analyze``, ``spectrum`` and ``verify`` on each bundled model and on each
model file of the refusal-contract test (``MODELS`` of
``tests/test_refusal_contract.py``), and ``fock`` on each of its matrix
files (``MATRICES``, each with its options), so that refusal lines are
checked too.  Each tree
runs in its own process, which calls ``ou_spectra.cli.main`` on one argv
at a time with one BLAS thread, and records the exit code, stdout, stderr
and every report and CSV file the call wrote, with its permission bits.

Every argv whose record differs is printed with its differences: exit
code, stdout, stderr, each changed, added or removed JSON field (with both
values; the rows of a list of named checks are matched by name and
occurrence, not by position), the first differing CSV line, and each file
whose mode changed.  Below them come how far the numbers moved, as the largest
relative change of each changed numeric JSON field (list indices
dropped), and whether a verdict moved: the exit code or a ``passed``
field.  Last comes one tally per check name of the
reports (a JSON file whose ``checks`` is a list of named checks, as
``verify`` writes): how many of its rows went from PASS to FAIL and from
FAIL to PASS, and the largest factor by which its residual over its
tolerance moved, over every row whose residual or verdict moved, and how
many of its rows a report holds in the base only (removed) and in the
head only (added).  The exit
status is 0 when every record is byte-identical, 1 otherwise.  Roundoff digits differ
between BLAS builds, so compare two trees on one machine and never
against stored digests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

WORKLOADS = ("cli_small", "verify_poly", "analyze_large")
COMMANDS = ("analyze", "spectrum", "verify")
#: Fixed before numpy loads in a worker, as in the benchmark.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


# --- trees and inputs --------------------------------------------------------

def checkout_root():
    """Top of the git checkout holding this file."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          cwd=Path(__file__).resolve().parent,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("not inside a git checkout: "
                           + done.stderr.strip())
    return Path(done.stdout.strip())


def archive(root, rev, dest):
    """Unpack ``git archive rev`` of the checkout at `root` into `dest`."""
    done = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                          capture_output=True)
    if done.returncode != 0:
        raise RuntimeError("git archive %s failed: %s"
                           % (rev, done.stderr.decode().strip()))
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        # the "data" filter (Python >= 3.10.12) refuses links out of dest
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return Path(dest)


def generate_inputs(root, workload, seed, out_dir):
    """Write a workload's inputs with the checkout's ``bench/inputs.py``
    and return the argvs to run: item argvs and screens, then the
    ceiling-probe argvs, each once, in order."""
    subprocess.run(
        [sys.executable, str(root / "bench" / "inputs.py"), "--workload",
         workload, "--seed", str(seed), "--out", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV),
        check=True, capture_output=True)
    with open(Path(out_dir) / "manifest.json") as fh:
        manifest = json.load(fh)
    argvs = []
    for group in manifest["items"]:
        for candidate in group:
            if "screen" in candidate:
                argvs.append(candidate["screen"])
            argvs.extend(candidate["argvs"])
    for ladder in ("ceiling_d", "ceiling_d_defective"):
        argvs.extend(step["argv"] for step in manifest["probes"][ladder])
    return _unique(argvs)


def bundled_argvs(names):
    """``analyze``, ``spectrum`` and ``verify`` on each bundled model, with
    the reports under ``out/``."""
    return [[command, name, "--out", "out/%s.%s.json" % (name, command)]
            for name in names for command in COMMANDS]


def refusal_argvs(models, out_dir):
    """Write each model of `models` (name to the JSON of a model file) to
    ``out_dir/<name>.json`` and return ``analyze``, ``spectrum`` and
    ``verify`` on each, with the reports under ``out/``."""
    out_dir.mkdir(parents=True)
    for name, model in models.items():
        (out_dir / (name + ".json")).write_text(json.dumps(model))
    return [[command, name + ".json", "--out",
             "out/%s.%s.json" % (name, command)]
            for name in sorted(models) for command in COMMANDS]


def fock_argvs(matrices, out_dir):
    """Write each matrix of `matrices` (name to the JSON of a matrix file
    and the options it runs with) to ``out_dir/<name>.json`` and return
    ``fock`` on each, with the report under ``out/``."""
    out_dir.mkdir(parents=True)
    for name, (matrix, _) in matrices.items():
        (out_dir / (name + ".json")).write_text(json.dumps(matrix))
    return [["fock", "--matrix", name + ".json"] + matrices[name][1]
            + ["--out", "out/%s.fock.json" % name] for name in sorted(matrices)]


def _unique(argvs):
    seen, out = set(), []
    for argv in argvs:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(list(argv))
    return out


# --- running one tree --------------------------------------------------------

def run_tree(tree, input_dir, argvs, work):
    """Run `argvs` through the package under ``tree/src`` in one fresh
    process, in a private copy of `input_dir`; return one record per
    argv (see :func:`_worker`)."""
    work = Path(work)
    cwd = work / "inputs"
    if input_dir is None:
        cwd.mkdir(parents=True)
    else:
        shutil.copytree(input_dir, cwd)
    request, result = work / "argvs.json", work / "records.json"
    request.write_text(json.dumps(argvs))
    src = Path(tree).resolve() / "src"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(src), str(request), str(result)],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV),
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("worker on %s failed:\n%s" % (src, done.stderr))
    return json.loads(result.read_text())


def _worker(src, request, result):
    """Call ``cli.main`` on each argv of `request` (a JSON list) from the
    current directory and write one record per argv to `result`: the exit
    code (or the uncaught exception), stdout, stderr, and the text and the
    octal permission bits of every file the call left under ``out/``,
    which is emptied before each call."""
    sys.path.insert(0, src)
    from ou_spectra import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError("imported ou_spectra from %s, not from %s"
                           % (cli.__file__, src))
    with open(request) as fh:
        argvs = json.load(fh)
    records = []
    for argv in argvs:
        shutil.rmtree("out", ignore_errors=True)
        os.mkdir("out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(list(argv))
            except Exception as exc:  # a traceback is an outcome too
                rc = "exception %s: %s" % (type(exc).__name__, exc)
        files, modes = {}, {}
        for name in sorted(os.listdir("out")):
            path = os.path.join("out", name)
            with open(path) as fh:
                files[name] = fh.read()
            modes[name] = "%o" % stat.S_IMODE(os.stat(path).st_mode)
        records.append({"argv": argv, "rc": rc, "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue(), "files": files,
                        "modes": modes})
    with open(result, "w") as fh:
        json.dump(records, fh)


# --- differences -------------------------------------------------------------

_MISSING = object()
#: The side of a check row that only the other side's report holds.
REMOVED, ADDED = "removed", "added"


def _named_rows(rows):
    """The rows of a list of named check rows (dicts with a ``name``),
    each keyed by its name and its occurrence (a ``verify --random``
    report repeats the model suite's names); None for any other list."""
    if not all(isinstance(row, dict) and "name" in row for row in rows):
        return None
    seen, out = Counter(), {}
    for row in rows:
        out[row["name"], seen[row["name"]]] = row
        seen[row["name"]] += 1
    return out


def _place(path):
    """`path` with list indices and occurrences dropped."""
    return re.sub(r"#\d+\]", "]", re.sub(r"\[\d+\]", "[]", path))


def _changed_leaves(base, head, path=""):
    """``(path, base value, head value)`` for each field that differs
    between two parsed JSON values, down to the first level where they
    stop having the same shape; a side without the field holds
    ``_MISSING``.  Two lists of named check rows are matched by name and
    occurrence, as ``checks[name#k]``, so that a row one side lacks is
    one difference, not a shift of every row after it."""
    if isinstance(base, dict) and isinstance(head, dict):
        out = []
        for key in sorted(set(base) | set(head)):
            out += _changed_leaves(base.get(key, _MISSING),
                                   head.get(key, _MISSING),
                                   "%s.%s" % (path, key) if path else key)
        return out
    b_rows, h_rows = (_named_rows(side) if isinstance(side, list) and side
                      else None for side in (base, head))
    if b_rows is not None and h_rows is not None:
        out = []
        for key in list(b_rows) + [k for k in h_rows if k not in b_rows]:
            out += _changed_leaves(b_rows.get(key, _MISSING),
                                   h_rows.get(key, _MISSING),
                                   "%s[%s#%d]" % (path, *key))
        return out
    if isinstance(base, list) and isinstance(head, list) \
            and len(base) == len(head):
        out = []
        for k, (b, h) in enumerate(zip(base, head)):
            out += _changed_leaves(b, h, "%s[%d]" % (path, k))
        return out
    if _MISSING not in (base, head) and json.dumps(base) == json.dumps(head):
        return []
    return [(path or "(root)", base, head)]


def diff_json(base, head):
    """``(path, change)`` for each field that differs between two parsed
    JSON values; `change` is ``base -> head``, ``removed (was base)`` or
    ``added (head)``."""
    out = []
    for path, b, h in _changed_leaves(base, head):
        if h is _MISSING:
            out.append((path, "removed (was %s)" % json.dumps(b)))
        elif b is _MISSING:
            out.append((path, "added (%s)" % json.dumps(h)))
        else:
            out.append((path, "%s -> %s" % (json.dumps(b), json.dumps(h))))
    return out


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def drift(base, head):
    """How far the numbers of two records of one argv moved: a dict from
    each changed numeric JSON field (file name and path, list indices
    dropped) to its largest relative change ``|h - b| / max(|b|, |h|)``,
    and whether a verdict moved (the exit code, or a field named
    ``passed`` or ending in ``_passed``)."""
    moved = {}
    verdict = base["rc"] != head["rc"]
    b_files, h_files = base["files"], head["files"]
    for name in sorted(set(b_files) & set(h_files)):
        if not name.endswith(".json"):
            continue
        for path, b, h in _changed_leaves(json.loads(b_files[name]),
                                          json.loads(h_files[name])):
            key = path.rsplit(".", 1)[-1]
            verdict |= key == "passed" or key.endswith("_passed")
            if _is_number(b) and _is_number(h):
                place = "%s %s" % (name, _place(path))
                rel = abs(h - b) / max(abs(b), abs(h)) if h != b else 0.0
                moved[place] = max(moved.get(place, 0.0), rel)
    return moved, verdict


def _check_rows(text):
    """The named check rows of one JSON report (:func:`_named_rows`);
    none if the report holds no list of them."""
    report = json.loads(text)
    checks = report.get("checks") if isinstance(report, dict) else None
    return (_named_rows(checks) if isinstance(checks, list) else None) or {}


def _scaled_residual(row):
    """``|residual / tolerance|`` of a check row, ``|residual|`` for a
    zero tolerance, None when the residual is not a number."""
    residual, tolerance = row.get("residual"), row.get("tolerance")
    if not _is_number(residual):
        return None
    if _is_number(tolerance) and tolerance != 0:
        return abs(residual / tolerance)
    return abs(residual)


def _factor(base, head):
    """The factor by which a scaled residual moved: at least 1, inf when
    one side is 0, NaN or not a number and the other is not the same."""
    if base == head:
        return 1.0
    if None in (base, head) or math.isnan(base) or math.isnan(head) \
            or min(base, head) == 0:
        return math.inf
    return max(base, head) / min(base, head)


def check_moves(base, head):
    """``(name, passed before, passed after, factor)`` for each check row
    whose residual or verdict differs between two records of one argv, in
    the reports both wrote; `factor` is :func:`_factor` of the residuals
    over their tolerances.  A row that one side's report lacks comes as
    ``(name, passed before, REMOVED, None)`` or ``(name, ADDED, passed
    after, None)``."""
    out = []
    b_files, h_files = base["files"], head["files"]
    for name in sorted(set(b_files) & set(h_files)):
        if not name.endswith(".json"):
            continue
        b_rows, h_rows = _check_rows(b_files[name]), _check_rows(h_files[name])
        for key in sorted(set(b_rows) | set(h_rows)):
            b, h = b_rows.get(key), h_rows.get(key)
            if h is None:
                out.append((key[0], b.get("passed"), REMOVED, None))
                continue
            if b is None:
                out.append((key[0], ADDED, h.get("passed"), None))
                continue
            if json.dumps([b.get("residual"), b.get("passed")]) == \
                    json.dumps([h.get("residual"), h.get("passed")]):
                continue
            out.append((key[0], b.get("passed"), h.get("passed"),
                        _factor(_scaled_residual(b), _scaled_residual(h))))
    return out


def tally_checks(moves):
    """Per check name: ``[PASS->FAIL, FAIL->PASS, largest factor, rows,
    removed, added]`` over `moves`, rows of :func:`check_moves`; a removed
    or added row counts in its own column only."""
    out = {}
    for name, before, after, factor in moves:
        entry = out.setdefault(name, [0, 0, 1.0, 0, 0, 0])
        if after is REMOVED or before is ADDED:
            entry[4 if after is REMOVED else 5] += 1
            continue
        entry[0] += before is True and after is False
        entry[1] += before is False and after is True
        entry[2] = max(entry[2], factor)
        entry[3] += 1
    return out


def _diff_text(base, head):
    if base == head:
        return []
    b_lines, h_lines = base.splitlines(), head.splitlines()
    for k, (b, h) in enumerate(zip(b_lines, h_lines)):
        if b != h:
            return ["line %d: %r -> %r" % (k + 1, b, h)]
    return ["%d lines -> %d lines" % (len(b_lines), len(h_lines))]


def diff_records(base, head):
    """``(where, change)`` for every difference between two records of one
    argv; `where` is ``exit code``, ``stdout``, ``stderr``, a file name,
    a file name and a JSON field, or a file name and ``mode``.  A record
    without modes (one built by hand) has none to compare."""
    out = []
    if base["rc"] != head["rc"]:
        out.append(("exit code", "%s -> %s" % (base["rc"], head["rc"])))
    for stream in ("stdout", "stderr"):
        out += [(stream, c) for c in _diff_text(base[stream], head[stream])]
    b_files, h_files = base["files"], head["files"]
    for name in sorted(set(b_files) | set(h_files)):
        if name not in h_files:
            out.append((name, "not written"))
        elif name not in b_files:
            out.append((name, "newly written"))
        elif name.endswith(".json"):
            out += [("%s %s" % (name, field), change)
                    for field, change in diff_json(
                        json.loads(b_files[name]), json.loads(h_files[name]))]
        else:
            out += [(name, c) for c in _diff_text(b_files[name],
                                                  h_files[name])]
        b_mode, h_mode = (r.get("modes", {}).get(name) for r in (base, head))
        if name in b_files and name in h_files and b_mode != h_mode:
            out.append(("%s mode" % name, "%s -> %s" % (b_mode, h_mode)))
    return out


def compare(base_records, head_records):
    """``(argv, differences)`` for each argv whose records differ."""
    out = []
    for b, h in zip(base_records, head_records, strict=True):
        if b["argv"] != h["argv"]:
            raise ValueError("records of different argvs: %r, %r"
                             % (b["argv"], h["argv"]))
        found = diff_records(b, h)
        if found:
            out.append((b["argv"], found))
    return out


def _kind(argv, where, change):
    """The tally key of one difference: the command, the place with list
    indices dropped, and removed/added/changed."""
    place = _place(where.split(" ", 1)[-1])
    verb = change.split(" ", 1)[0]
    return "%s %s %s" % (argv[0], place,
                         verb if verb in ("removed", "added") else "changed")


# --- command line ------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    root = checkout_root()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from ou_spectra.cli import list_bundled
    from test_refusal_contract import MATRICES, MODELS
    sets = [("bundled", None, bundled_argvs(list_bundled()))]
    total, differing, tally, moves = 0, 0, Counter(), []
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        base = archive(root, args.base, tmp / "base")
        refusal = tmp / "refusal"
        sets.append(("refusal contract", refusal,
                     refusal_argvs(MODELS, refusal)))
        fock = tmp / "fock-refusal"
        sets.append(("fock refusal contract", fock,
                     fock_argvs(MATRICES, fock)))
        for workload in WORKLOADS:
            for seed in args.seeds:
                inputs = tmp / ("%s-s%d" % (workload, seed))
                sets.append(("%s seed %d" % (workload, seed), inputs,
                             generate_inputs(root, workload, seed, inputs)))
        for label, input_dir, argvs in sets:
            work = tmp / "run" / label.replace(" ", "-")
            records = [run_tree(tree, input_dir, argvs, work / side)
                       for side, tree in (("base", base), ("head", root))]
            diffs = compare(*records)
            total += len(argvs)
            differing += len(diffs)
            print("%s: %d argvs, %d differ" % (label, len(argvs),
                                                len(diffs)))
            record_pair = dict(zip(map(tuple, argvs), zip(*records)))
            for call, found in diffs:
                print("  %s" % " ".join(call))
                for where, change in found:
                    print("    %s: %s" % (where, change))
                    tally[_kind(call, where, change)] += 1
                moved, verdict = drift(*record_pair[tuple(call)])
                moves += check_moves(*record_pair[tuple(call)])
                for place, rel in sorted(moved.items()):
                    print("    largest relative change %.3g: %s"
                          % (rel, place))
                print("    verdict moved: %s" % ("yes" if verdict else "no"))
    print("%d argvs against %s, %d differ" % (total, args.base, differing))
    for kind, count in sorted(tally.items()):
        print("  %5d  %s" % (count, kind))
    print("checks whose residual or verdict moved: PASS->FAIL, FAIL->PASS, "
          "largest factor of residual/tolerance, rows; rows removed, added")
    for name, entry in sorted(tally_checks(moves).items()):
        print("  %-40s %5d %5d %10.4g %6d %7d %5d" % (name, *entry))
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5])
    else:
        sys.exit(main())
