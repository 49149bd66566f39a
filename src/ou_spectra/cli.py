"""Command-line front end.

Four subcommands: ``analyze`` (Gramians, ranks, contractivity curve),
``spectrum`` (predicted lattice spectrum versus the computed generator
spectrum), ``verify`` (the named invariant suite, on a model file or on
random models), and ``fock`` (spectra of truncated second quantizations of
an arbitrary contraction).

Exit codes: 0 success, 1 input or validation error, 2 numerical hypothesis
failure (unstable drift, eigensolver breakdown, degenerate measure where a
nondegenerate one is required), 3 invariant or match failure.  Human
summaries go to stdout, machine reports to JSON/CSV files written
atomically (temp file, then rename).  A report section that holds a
result object (``GramianReport``, ``InvertibilityReport``,
``SpectrumSet``, ``MatchReport``, ``CheckResult``) is that result's
dataclass fields, by name, written by :func:`_json_text`.  Every model
is held to :data:`~ou_spectra.config.DEFAULT` tolerances, with the fields
that its file's ``"tolerances"`` object overrides; ``verify --random``
runs at the defaults.  No flag moves a bound: ``spectrum``'s match is held
to ``verification.LATTICE_MATCH_TOL``, as ``verify``'s lattice check is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import config
from .errors import InputError, NumericalError
from .gramian import (
    _curve,
    _Transitions,
    gramian_inf,
    gramian_report,
    invertibility_equivalence_report,
    nondegenerate_factor,
    validate,
)
from .ou_operator import galerkin_blocks, poly_basis
from .spectra import (
    LatticeWindow,
    SpectrumSet,
    _eigvals,
    _square,
    eig,
    hausdorff,
    lattice_spectrum,
    match_report,
)
from .tensor_fock import _product_fold, second_quantization
from . import verification

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_SUITE = 3

#: Most horizons an ``analyze --t-grid`` may hold.
T_GRID_MAX_POINTS = 10 ** 5


# --- model files -------------------------------------------------------------

def list_bundled():
    """Names of the example models that ship with the package."""
    root = resources.files(__package__) / "models"
    return sorted(p.name[:-len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def _read_json(path, what):
    """The JSON value in the `what` file `path`, or an input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSON or text decoding
        raise InputError("cannot read %s file %s: %s"
                         % (what, path, exc)) from None


def load_model(path):
    """Read a model JSON file (or a bundled model name) into an OUModel.

    The file must contain row-major nested arrays under "A" and "Q";
    optional keys "name" and "tolerances" (field -> value overrides).
    """
    if not os.path.exists(path):
        bundled = resources.files(__package__) / "models" / (path + ".json")
        if not bundled.is_file():
            raise InputError("model file not found: %s" % path)
        path = str(bundled)
    data = _read_json(path, "model")
    if not isinstance(data, dict) or "A" not in data or "Q" not in data:
        raise InputError('model file %s must be a JSON object with keys '
                         '"A" and "Q"' % path)
    tol = config.DEFAULT
    # every present value is checked, so a falsy non-object is refused too
    if "tolerances" in data:
        try:
            tol = tol.with_overrides(data["tolerances"])
        except (ValueError, TypeError) as exc:
            raise InputError("bad tolerance overrides in %s: %s"
                             % (path, exc)) from None
    name = data.get("name", os.path.splitext(os.path.basename(path))[0])
    try:
        return validate(data["A"], data["Q"], name=name, tol=tol)
    except (TypeError, ValueError) as exc:
        raise InputError("model file %s does not parse to matrices: %s"
                         % (path, exc)) from None


def parse_t_grid(text):
    """Parse ``start:stop:step`` into an inclusive positive grid.

    The endpoint is included when it lies within 1e-12 of a grid point.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("t-grid must look like start:stop:step, got %r"
                         % text)
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InputError("t-grid entries must be numbers, got %r"
                         % text) from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError("t-grid entries must be finite, got %r" % text)
    if start <= 0 or step <= 0 or stop < start:
        raise InputError("t-grid needs 0 < start <= stop and step > 0")
    span = (stop - start) / step + 1e-12
    if not span < T_GRID_MAX_POINTS:
        raise InputError("t-grid %r has more than %d points"
                         % (text, T_GRID_MAX_POINTS))
    count = int(math.floor(span))
    grid = [start + k * step for k in range(count + 1)]
    if abs(grid[-1] - stop) > 1e-12 * max(1.0, abs(stop)) \
            and grid[-1] + step <= stop + 1e-12 * max(1.0, abs(stop)):
        grid.append(grid[-1] + step)
    return np.asarray(grid)


# --- report plumbing ---------------------------------------------------------

def _json_text(obj, nl="\n"):
    """`obj` as ``json.dumps(indent=2, sort_keys=True)`` writes it on a
    line that `nl` starts, once a result dataclass is its fields by name, an
    array its nested lists, a complex number ``{"re", "im"}``, a dict key
    its ``str`` and a non-finite float the string of its repr.  This is the
    one writer of the report format."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return repr(val) if math.isfinite(val) else '"%r"' % val
    inner = nl + "  "
    if isinstance(obj, np.ndarray):
        # finite numbers a row at a time, by join or one % over tolist()
        if obj.ndim == 0 or obj.dtype.kind not in "iufc" \
                or not np.isfinite(obj).all():
            return _json_text(obj.tolist(), nl)
        if obj.ndim > 1:
            return _block("[]", [_json_text(row, inner) for row in obj], nl)
        if obj.dtype.kind != "c":
            return _block("[]", list(map(repr, obj.tolist())), nl)
        entry = '{%s  "im": %%r,%s  "re": %%r%s}' % (inner, inner, inner)
        parts = np.stack((obj.imag, obj.real), axis=-1).ravel().tolist()
        return _block("[]", [entry] * len(obj), nl) % tuple(parts)
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        return _block("{}", ["%s: %s" % (_quote(k), _json_text(obj[k], inner))
                             for k in sorted(obj)], nl)
    if isinstance(obj, (list, tuple)):
        return _block("[]", [_json_text(v, inner) for v in obj], nl)
    return json.dumps(obj)


def _block(brackets, items, nl):
    """`items` one to a line, a level in from `nl`, between `brackets`,
    which stay empty when there are none."""
    if not items:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _atomic_write_text(path, text):
    """Write through a temp file in the target's directory, then rename;
    an ``OSError`` (say, a missing directory) is an input error.  The temp
    file has a fresh random name, which ``O_EXCL`` keeps from any existing
    file, and the mode that ``open(path, "w")`` gives, 0o666 less the
    umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       "tmp%s.tmp" % os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError("cannot write %s: %s"
                         % (path, exc.strerror or exc)) from None


def write_json_report(path, report):
    _atomic_write_text(path, _json_text(report) + "\n")


def _write_csv(path, rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _default_out(args, suffix):
    if args.out:
        return args.out
    stem = os.path.splitext(os.path.basename(args.model))[0]
    return stem + suffix


# --- subcommands -------------------------------------------------------------

def cmd_analyze(args):
    model = load_model(args.model)
    grid = parse_t_grid(args.t_grid)
    out_path = _default_out(args, ".analyze.json")
    csv_path = os.path.splitext(out_path)[0] + ".curve.csv"

    # Q_inf comes first: an unstable drift is refused there (exit 2).
    Qi = gramian_inf(model)
    report_t = float(grid[-1])
    gram = gramian_report(model, report_t)

    rows = list(zip(grid.tolist(), *_curve(model, grid)))
    _write_csv(csv_path, rows, header=("t", "smu_norm", "K"))

    lyap = float(np.abs(model.A @ Qi + Qi @ model.A.T + model.Q).max())
    # one table holds the splitting identity's t = 1 and the invertibility
    # report's horizons
    ts = (0.1, 1.0, 5.0)
    table = _Transitions(model, ts)
    F_1, Q_1 = table.transition(1.0)
    split = verification.splitting_residual(Qi, Q_1, F_1)
    # The Lyapunov residual is reported, not checked: OUModel refuses a
    # Q_inf whose residual exceeds the same bound (exit 2).  The other two
    # are held to verify's bounds.
    checks = {
        "splitting_identity_ok":
            split <= verification.splitting_tolerance(Qi),
        "contraction_ok": all(r[1] - 1.0 <= verification.CONTRACTION_TOL
                              for r in rows),
    }
    report = {
        "schema": 1,
        "command": "analyze",
        "model": {"name": model.name, "A": model.A, "Q": model.Q},
        "t_grid": {"start": float(grid[0]), "stop": float(grid[-1]),
                   "count": len(grid)},
        "gramian": gram,
        "rkhs_rank": model.invariant_factor.rank,
        "lyapunov_residual": lyap,
        "splitting_residual_t1": split,
        "invertibility": invertibility_equivalence_report(
            model, dict(zip(ts, table.gramians(ts)))),
        "curve_csv": csv_path,
        "curve_first": {"t": rows[0][0], "smu_norm": rows[0][1],
                        "K": rows[0][2]},
        "curve_last": {"t": rows[-1][0], "smu_norm": rows[-1][1],
                       "K": rows[-1][2]},
        "checks": checks,
        "passed": all(checks.values()),
    }
    write_json_report(out_path, report)
    print("model %s: abscissa %.6g, rank(Q_inf)=%d, strong_feller=%s"
          % (model.name, gram.spectral_abscissa, gram.rank_Q_inf,
             gram.strong_feller))
    print("curve over %d points -> %s" % (len(rows), csv_path))
    print("report -> %s (%s)" % (out_path,
                                 "pass" if report["passed"] else "FAIL"))
    return EXIT_OK


def cmd_spectrum(args):
    model = load_model(args.model)
    out_path = _default_out(args, ".spectrum.json")
    # Refuses an unstable drift or a singular Q_inf (exit 2).
    nondegenerate_factor(model)

    N = args.degree
    # Refuses a basis above the size cap before the lattice walk.
    basis = poly_basis(model.dim, N)
    drift = SpectrumSet(model.drift_eigenvalues)
    cover = LatticeWindow.covering(drift.points, N)
    re_min = cover.re_min if args.re_min is None else args.re_min
    im_max = cover.im_max if args.im_max is None else args.im_max
    window = LatticeWindow(re_min=re_min, im_max=im_max, max_terms=N)

    predicted = lattice_spectrum(drift, window)
    galerkin = SpectrumSet(np.concatenate(
        [_eigvals(block) for block in galerkin_blocks(model, basis)]))
    computed = galerkin.restricted(re_min=re_min, im_max=im_max)
    match = match_report(computed, predicted,
                         verification.LATTICE_MATCH_TOL)

    pred_csv = os.path.splitext(out_path)[0] + ".predicted.csv"
    comp_csv = os.path.splitext(out_path)[0] + ".computed.csv"
    for path, spec in ((pred_csv, predicted), (comp_csv, computed)):
        _write_csv(path, [(z.real, z.imag) for z in spec.points],
                   header=("re", "im"))
    report = {
        "schema": 1,
        "command": "spectrum",
        "model": {"name": model.name, "A": model.A, "Q": model.Q},
        "degree": N,
        "window": {"re_min": re_min, "im_max": im_max, "max_terms": N},
        "predicted": predicted,
        "computed": computed,
        "match": match,
        "predicted_csv": pred_csv,
        "computed_csv": comp_csv,
        "passed": match.passed,
    }
    write_json_report(out_path, report)
    print("predicted %d points, computed %d points, hausdorff %.3e (tol %g)"
          % (len(predicted), len(computed), match.hausdorff, match.tol))
    print("report -> %s (%s)" % (out_path,
                                 "pass" if match.passed else "FAIL"))
    return EXIT_OK if match.passed else EXIT_SUITE


def cmd_verify(args):
    if (args.model is None) == (args.random is None):
        raise InputError(
            "verify needs exactly one of a model path or --random SEED "
            "COUNT")
    if args.model is not None:
        model = load_model(args.model)
        checks = verification.model_suite(
            model, degree=args.degree, levels=args.levels)
        subject = "model %s" % model.name
    else:
        seed, count = args.random
        checks = verification.random_suite(
            seed, count, degree=args.degree, levels=args.levels)
        subject = "%d random models (seed %d)" % (count, seed)
    summary = verification.summarize(checks)
    summary["command"] = "verify"
    summary["subject"] = subject
    out_path = args.out or "verify_report.json"
    write_json_report(out_path, summary)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = "%s %-40s residual %.3e (tol %.3e)" % (
            status, c.name, c.residual, c.tolerance)
        if c.detail.startswith(verification.SKIPPED):
            line = "SKIP %-40s" % c.name
        if c.detail:
            line += "  [%s]" % c.detail
        print(line)
    print("%d checks, %d failed -> %s"
          % (summary["n_checks"], summary["n_failed"], out_path))
    return EXIT_OK if summary["all_passed"] else EXIT_SUITE


def cmd_fock(args):
    data = _read_json(args.matrix, "matrix")
    raw = data["T"] if isinstance(data, dict) and "T" in data else data
    try:
        T = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("matrix file %s does not parse: %s"
                         % (args.matrix, exc)) from None
    _square(T, "matrix")
    if not np.all(np.isfinite(T)):
        raise InputError("matrix must have finite entries")
    N = args.levels
    # Each truncation runs all its guards before it builds a level.  The
    # tensor cap refuses first when d > 1, as d**n >= sym_dim(d, n); when
    # d = 1 only the symmetric route's alpha! guard can refuse.
    lifts = {s: second_quantization(
        T, N, symmetric=s, allow_noncontraction=args.allow_noncontraction)
        for s in ((False, True) if len(T) > 1 else (True, False))}
    _, predicted = _product_fold(eig(T), N)
    sym_spec, full_spec = lifts[True].spectrum(), lifts[False].spectrum()
    distances = {
        "sym_vs_predicted": hausdorff(sym_spec, predicted),
        "tensor_vs_predicted": hausdorff(full_spec, predicted),
        "sym_vs_tensor": hausdorff(sym_spec, full_spec),
    }
    out_path = args.out or "fock_report.json"
    report = {
        "schema": 1,
        "command": "fock",
        "T": T,
        "levels": N,
        "operator_norm": float(np.linalg.norm(T, 2)),
        "sym_spectrum": sym_spec,
        "tensor_spectrum": full_spec,
        "predicted": predicted,
        "hausdorff": distances,
    }
    write_json_report(out_path, report)
    print("norm %.6g, %d symmetric / %d tensor spectrum points"
          % (report["operator_norm"], len(sym_spec), len(full_spec)))
    for key, val in sorted(distances.items()):
        print("  %-22s %.3e" % (key, val))
    print("report -> %s" % out_path)
    return EXIT_OK


# --- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors, not numerical ones: after the usage
    # line, main prints the message and returns exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`.  A refusal
    names the flag and exits 1 through :meth:`_Parser.error`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be >= %d (got %d)" % (low, value))
        return value

    # argparse calls a value that int() refuses "invalid int value".
    parse.__name__ = "int"
    return parse


class _SeedCount(argparse.Action):
    """``--random SEED COUNT``: a seed >= 0 and at least one model."""

    def __call__(self, parser, namespace, values, option_string=None):
        seed, count = values
        if seed < 0:
            parser.error("argument --random: SEED must be >= 0 (got %d)"
                         % seed)
        if count < 1:
            parser.error("argument --random: COUNT must be >= 1 (got %d)"
                         % count)
        setattr(namespace, self.dest, (seed, count))


def build_parser():
    parser = _Parser(
        prog="ou-spectra",
        description="Gramians, second quantization, and spectral "
                    "cross-validation for finite-dimensional "
                    "Ornstein-Uhlenbeck generators.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="Gramians, ranks, contractivity "
                                       "curve")
    p.add_argument("model", help="model JSON path or bundled name (%s)"
                   % ", ".join(list_bundled()))
    p.add_argument("--t-grid", default="0.1:5.0:0.1",
                   help="start:stop:step, inclusive endpoints "
                        "(default %(default)s)")
    p.add_argument("--out", default=None,
                   help="report path (default <model>.analyze.json)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectrum", help="lattice prediction vs computed "
                                        "generator spectrum")
    p.add_argument("model")
    p.add_argument("--degree", type=_int_at_least(1), default=4,
                   help="polynomial degree cap (default %(default)s)")
    p.add_argument("--re-min", type=float, default=None,
                   help="window floor for Re (default: cover all sums)")
    p.add_argument("--im-max", type=float, default=None,
                   help="window cap for |Im| (default: cover all sums)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--random", nargs=2, metavar=("SEED", "COUNT"),
                   type=int, action=_SeedCount, default=None,
                   help="verify random stable models instead")
    p.add_argument("--degree", type=_int_at_least(1), default=3)
    p.add_argument("--levels", type=_int_at_least(0), default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fock", help="spectra of truncated second "
                                    "quantizations")
    p.add_argument("--matrix", required=True,
                   help='JSON file: nested array or {"T": [[...]]}')
    p.add_argument("--levels", type=_int_at_least(0), default=4)
    p.add_argument("--allow-noncontraction", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fock)
    return parser


@lru_cache(maxsize=None)
def _parser():
    # Built once per process: the help text scans the bundled models.
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
