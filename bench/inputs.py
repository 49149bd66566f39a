"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every model and matrix file a
workload needs, plus ``manifest.json`` listing the CLI items (as argv
lists relative to ``out_dir``) and the ceiling probes.  The same workload
and seed always produce byte-identical files.

Run as a script, it is one set-up step of the benchmark: a fresh
interpreter that imports ``ou_spectra.cli`` and then writes the inputs, so
the time of the whole process is what a user pays before the first call.

    python3 bench/inputs.py --workload cli_small --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("cli_small", "verify_poly", "analyze_large")

#: Bundled models used by ``cli_small``.  ``jordan_omega1`` and
#: ``classical_1d`` also carry the closed-form oracles.
BUNDLED = ("classical_1d", "jordan_omega1", "hypoelliptic_2d")
CLI_SMALL_ROUNDS = 25            # 4 commands per round, 100 items per pass
#: Seeded inputs per randomly drawn item of ``cli_small`` and per shape of
#: ``verify_poly``; pass k times the (k mod 3)-th of each.  The cost of a
#: pass depends on the inputs drawn: on ``cli_small`` one seed's passes
#: took 3.4-3.5 s (paced) in three runs and another's 2.85-3.2 s, so with a
#: single draw per item the seed moved the pass time more than the
#: machine's noise did.
VARIANTS = 3
#: Drift kinds of the ``verify --random`` items and kinds of the ``fock``
#: contractions, cycled per round.  The seed draws only the values: with
#: the kinds drawn too, the cost of a pass differed by up to 25% between
#: seeds, more than the machine's own noise.
VERIFY_KINDS = ("real", "complex", "defective")
FOCK_KINDS = ("diagonalizable", "defective")
FULL_GRID = "0.1:5.0:0.1"
ONE_POINT = "1.0:1.0:1.0"

#: (d, N, drift kind): high degree over few variables down to low degree
#: over many.  The kind is fixed per shape and the seed draws the values:
#: the polynomial layers expand dicts over the nonzero entries, so at d=8 a
#: dense drift costs about twice a triangular (defective) one, and a kind
#: drawn from the seed would move wall_s by far more than any bound.
POLY_SHAPES = ((3, 7, "defective"), (4, 6, "real"), (6, 4, "complex"),
               (8, 4, "defective"))
LARGE_DIMS = (16, 24, 32)
#: Seeded candidate models per shape of ``verify_poly`` and dimension of
#: ``analyze_large``; the runner times the first ``VARIANTS`` of them on
#: ``verify_poly``, and the first one on ``analyze_large``, that do not
#: fail early (see ``run.screen``).
POLY_CANDIDATES = 6
CANDIDATES = 3

CEILING_DIMS = (8, 16, 24, 32, 48, 64)
CEILING_DEGREES = (7, 8, 9, 10)
CEILING_N_DIM = 3

# Independent streams per purpose, so adding items to one workload does
# not change the inputs of another.
_STREAM = {"cli_small": 1, "verify_poly": 2, "analyze_large": 3,
           "ceiling_d": 4, "ceiling_d_defective": 5, "ceiling_n": 6}


def _rng(seed, purpose):
    import numpy as np
    return np.random.default_rng([int(seed), _STREAM[purpose]])


def _dump(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_model(out_dir, stem, model):
    name = stem + ".json"
    _dump(os.path.join(out_dir, name),
          {"name": stem, "A": model.A.tolist(), "Q": model.Q.tolist()})
    return name


def _random_seed_of_kind(rng, kind):
    """A seed for ``verify --random SEED 1`` whose model has drift
    ``kind``: ``random_suite`` draws the kind first from
    ``default_rng(SEED)``, so the seed is drawn until that draw matches."""
    import numpy as np
    while True:
        candidate = int(rng.integers(2 ** 31))
        drawn = np.random.default_rng(candidate).choice(list(VERIFY_KINDS))
        if drawn == kind:
            return candidate


def _cli_small(seed, out_dir):
    from ou_spectra.verification import random_contraction
    rng = _rng(seed, "cli_small")
    groups = []
    for r in range(CLI_SMALL_ROUNDS):
        bundled = BUNDLED[r % len(BUNDLED)]
        verify, fock = [], []
        for v in range(VARIANTS):
            matrix = "fock_%02d_%d.json" % (r, v)
            T = random_contraction(rng, d=3,
                                   kind=FOCK_KINDS[r % len(FOCK_KINDS)])
            _dump(os.path.join(out_dir, matrix), {"T": T.tolist()})
            verify_seed = _random_seed_of_kind(
                rng, VERIFY_KINDS[r % len(VERIFY_KINDS)])
            verify.append({"argvs": [["verify", "--random", str(verify_seed),
                                      "1", "--out", "out/verify.json"]]})
            fock.append({"argvs": [["fock", "--matrix", matrix, "--levels",
                                    "4", "--out", "out/fock.json"]]})
        groups += [
            verify,
            [{"argvs": [["spectrum", bundled, "--degree", "8",
                         "--out", "out/spectrum.json"]]}],
            [{"argvs": [["analyze", bundled, "--t-grid", FULL_GRID,
                         "--out", "out/analyze.json"]]}],
            fock,
        ]
    return groups


def _verify_poly(seed, out_dir):
    from ou_spectra.verification import random_stable_model
    rng = _rng(seed, "verify_poly")
    groups = []
    for d, N, kind in POLY_SHAPES:
        candidates = []
        for c in range(POLY_CANDIDATES):
            model = _write_model(out_dir, "poly_d%d_n%d_%d" % (d, N, c),
                                 random_stable_model(rng, d=d, kind=kind))
            spectrum = ["spectrum", model, "--degree", str(N),
                        "--out", "out/spectrum.json"]
            candidates.append({"screen": spectrum, "argvs": [
                spectrum,
                ["verify", model, "--degree", str(N), "--levels", str(N),
                 "--out", "out/verify.json"]]})
        groups.append(candidates)
    return groups


def _analyze_large(seed, out_dir):
    from ou_spectra.verification import random_stable_model
    rng = _rng(seed, "analyze_large")
    groups = []
    for d in LARGE_DIMS:
        candidates = []
        for c in range(CANDIDATES):
            kind = str(rng.choice(["real", "complex"]))
            model = _write_model(out_dir, "large_d%d_%d" % (d, c),
                                 random_stable_model(rng, d=d, kind=kind))
            candidates.append({
                "screen": ["analyze", model, "--t-grid", ONE_POINT,
                           "--out", "out/screen.json"],
                "argvs": [["analyze", model, "--t-grid", FULL_GRID,
                           "--out", "out/analyze.json"]]})
        groups.append(candidates)
    return groups


def _probes(seed, out_dir):
    from ou_spectra.verification import random_stable_model
    ladders = {}
    for purpose, kinds in (("ceiling_d", ("real", "complex")),
                           ("ceiling_d_defective", ("defective",))):
        rng = _rng(seed, purpose)
        ladders[purpose] = []
        for d in CEILING_DIMS:
            kind = str(rng.choice(kinds))
            model = _write_model(out_dir, "%s_d%d" % (purpose, d),
                                 random_stable_model(rng, d=d, kind=kind))
            ladders[purpose].append(
                {"d": d, "argv": ["analyze", model, "--t-grid", ONE_POINT,
                                  "--out", "out/probe.json"]})
    rng = _rng(seed, "ceiling_n")
    model = _write_model(out_dir, "ceiling_n_d%d" % CEILING_N_DIM,
                         random_stable_model(rng, d=CEILING_N_DIM))
    return {"ceiling_d": ladders["ceiling_d"],
            "ceiling_d_defective": ladders["ceiling_d_defective"],
            "ceiling_n": {"model": model,
                          "degrees": list(CEILING_DEGREES)}}


_BUILDERS = {"cli_small": _cli_small, "verify_poly": _verify_poly,
             "analyze_large": _analyze_large}


def generate(workload, seed, out_dir):
    """Write the inputs of one workload into ``out_dir`` and return the
    manifest.  ``items`` is a list of groups; a group is a list of
    candidates, each the ``argvs`` to time for one input and, where it
    must be screened, a cheap ``screen`` argv that fails early exactly
    when the input does.  ``picks`` candidates per group are timed, one
    per pass in turn."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    os.makedirs(os.path.join(out_dir, "out"), exist_ok=True)
    manifest = {
        "workload": workload,
        "seed": int(seed),
        "items": _BUILDERS[workload](seed, out_dir),
        "picks": 1 if workload == "analyze_large" else VARIANTS,
        "probes": _probes(seed, out_dir),
    }
    _dump(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def digest(out_dir):
    """SHA-256 over the names and bytes of every input file."""
    import hashlib
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import ou_spectra.cli  # noqa: F401  (the import is part of set-up)
    generate(args.workload, args.seed, args.out)
    print(digest(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
