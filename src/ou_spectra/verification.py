"""Named residual checks for every structural identity the package
promises, runnable on a concrete model or on randomly generated ones.

Each check returns a :class:`CheckResult` with the measured residual and
the tolerance it was held to; the CLI turns a failed list into exit code 3.
Checks that do not apply to a model (no steady state for an unstable drift,
no chaos layers for a singular invariant covariance) are skipped with a
note rather than silently passed.  ``verify --random`` runs the model and
contraction suites; :func:`spectra_suite` tests the package's own Hausdorff
and lattice helpers, not a model, and runs in the tier-1 tests only, as do
the tests of the embedding, of ``dgamma`` and of the Galerkin assembly.

A check is printed only if a wrong number on its input can make it fail.
The chaos frame's own identities -- the layer projections resolve the
identity, are idempotent and are mutually orthogonal -- measure only
``Phi^-1 Phi - I``, which the Newton step of ``chaos_decomposition`` makes
small for any invertible ``Phi``, right or wrong; they are tier-1 tests,
next to ``Phi' G Phi = I`` in the Gaussian moment Gram matrix ``G``.  A
wrong invariant measure shows here in ``invariant_measure_fixed_mean``,
``chaos_covariance_permanent``, ``generator_chaos_block_diagonal`` and
``second_quantization_mehler_lift``.  The Lyapunov residual of ``Q_inf`` is
decided in one place, the guard of :func:`~ou_spectra.gramian.gramian_inf`,
which refuses the model before any check runs; ``analyze`` reports it.
No eigenvector is computed: ``galerkin_blocks`` builds L block triangular
in the degree grading by construction, so a check of the degrees that its
eigenvectors reach could see only LAPACK's roundoff.  A wrong entry below
that diagonal moves the spectrum, which the lattice match sees.

The horizon Gramians are checked against an independent oracle, an
adaptive Gauss-Legendre quadrature of ``int_0^t exp(sA) Q exp(sA') ds``
written out in numpy (:func:`_adaptive_gauss`), so that ``verify`` does
not import ``scipy.integrate``; the tests hold it to ``quad_vec``.  The
second chaos layer is checked in the ``L^2(mu)`` inner product of
quadratics, in closed form from ``Q_inf`` alone (:func:`_quadratic_inner`).

The module also hosts the random generators for stable models and strict
contractions used by the property tests, so the CLI's ``--random`` mode and
the test suite draw from the same distributions.  Defective (Jordan-type)
test matrices are always produced in exactly triangular form: the dense
eigensolver returns triangular eigenvalues exactly, whereas a similarity
transform of a defective matrix perturbs them at the k-th root of roundoff,
which would drown every tight spectral tolerance in this suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gramian as _gr
from ._linalg import expm, pow2_scale
from .errors import CriteriaDisagree, DegenerateMeasure, Unstable
from .gramian import nondegenerate_factor, validate
from .ou_operator import (
    THREE_WAY_TOL,
    _generator_residual,
    _hermite_norms,
    _leading,
    _mehler_lift,
    chaos_decomposition,
    galerkin_blocks,
    mehler_matrix,
    poly_basis,
)
from .spectra import (
    LatticeWindow,
    SpectrumSet,
    _eigvals,
    _multisets,
    _nearest_distances,
    _row_blocks,
    eig,
    hausdorff,
    lattice_spectrum,
)
from .tensor_fock import (_product_fold, _substitution_tables, dgamma,
                          second_quantization)

__all__ = [
    "CheckResult", "UNTESTED_THEORY", "SPLITTING_TOL", "CONTRACTION_TOL",
    "LATTICE_MATCH_TOL", "splitting_residual", "splitting_tolerance",
    "model_suite", "contraction_suite", "spectra_suite", "random_suite",
    "summarize", "random_stable_model", "random_contraction", "SKIPPED",
]

#: Claims from the underlying theory that desk-scale computation cannot
#: exercise; reported verbatim in verify output so nobody mistakes the
#: passing suite for evidence about them.
UNTESTED_THEORY = (
    "L^p independence for p != 2: only the L^2 realization is computed; "
    "the p-independence of the spectrum is reported, not tested.",
    "Infinite-dimensional state spaces: every statement is exercised on "
    "finite-dimensional truncations only.",
    "Spectral closure: with finitely many eigenvalues no closure points "
    "exist inside a bounded window, so windowed set equality is the whole "
    "testable content.",
    "Hypercontractivity constants of the transition semigroup are not "
    "computed.",
)


@dataclass(frozen=True)
class CheckResult:
    """One named invariant with its measured residual."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _check(name, residual, tolerance, detail=""):
    residual = float(residual)
    return CheckResult(name=name, passed=residual <= tolerance,
                       residual=residual, tolerance=float(tolerance),
                       detail=detail)


def _worst(values, floor=-math.inf):
    """The largest of `values` and `floor`, NaN if any is NaN.  Python's
    ``max(acc, x)`` keeps ``acc`` when ``x`` is NaN, so a NaN residual
    would pass its check."""
    return float(np.max([floor, *values]))


#: The start of the detail of a check that was not run.
SKIPPED = "skipped: "


def _skip(name, detail):
    return CheckResult(name=name, passed=True, residual=0.0, tolerance=0.0,
                       detail=SKIPPED + detail)


def _q_inf(model):
    # Small indirection so tests can inject a corrupted steady-state
    # covariance and watch the suite fail (negative control).
    return _gr.gramian_inf(model)


#: Nodes and weights of the 16-point Gauss-Legendre panel on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: Relative tolerance of the quadrature oracle, in the 2-norm.
_QUAD_EPS = 1e-14
#: Panel evaluations the oracle may spend in total.
_QUAD_BUDGET = 200


def _adaptive_gauss(integrand):
    """Adaptive Gauss-Legendre quadrature over [0, 1] (Gander & Gautschi,
    BIT 40, 2000).  A panel ``[a, b]`` with estimate ``S`` is accepted as
    the sum of its halves' estimates when ``|left + right - S|_2`` is at
    most ``_QUAD_EPS (b - a)`` times the norm of the one-panel estimate
    over [0, 1]; otherwise each half is refined in turn.  Once
    ``_QUAD_BUDGET`` panel evaluations are spent, the panels still open
    keep their own estimates.  A non-finite estimate returns NaN.
    `integrand` takes the nodes of a panel at once and returns their
    values stacked on axis 0."""
    def panel(a, b):
        h = 0.5 * (b - a)
        fv = integrand(a + h * (_GL_NODES + 1.0))
        return h * np.tensordot(_GL_WEIGHTS, fv, axes=1)
    whole = panel(0.0, 1.0)
    tol = _QUAD_EPS * np.linalg.norm(whole)
    total, evals, stack = np.zeros_like(whole), 1, [(0.0, 1.0, whole)]
    while stack:
        a, b, est = stack.pop()
        if evals + 2 > _QUAD_BUDGET:
            total += est
            continue
        c = 0.5 * (a + b)
        left, right = panel(a, c), panel(c, b)
        evals += 2
        err = np.linalg.norm(left + right - est)
        if not math.isfinite(err):
            return np.full_like(whole, np.nan)
        if err <= tol * (b - a):
            total += left + right
        else:
            stack += [(c, b, right), (a, c, left)]
    return total


def _quadrature_gramians(model, t_grid):
    """``Q_t = int_0^t exp(sA) Q exp(sA') ds`` at every horizon of
    `t_grid`, by one adaptive quadrature (:func:`_adaptive_gauss`): with
    ``s = u t`` all horizons share ``u`` in [0, 1], and each panel forms
    its integrand one horizon at a time (one stacked exponential of
    ``u t A`` over its 16 nodes) into one stack of all horizons, the one
    panel-sized array it holds.  Independent of the Van Loan block
    exponential of ``gramian_t``, which it checks.  The rule is written
    out here rather than taken from ``scipy.integrate``, whose import
    loads ``scipy.optimize``, ``sparse``, ``spatial`` and ``special``:
    about 21 MB and 0.2 s in every process that runs ``verify``.  The rule
    integrates ``Q / c``, ``c = 2^floor(log2 max|Q|)``
    (:func:`~ou_spectra._linalg.pow2_scale`), and each ``Q_t`` is
    multiplied back by c: in the normal range neither step rounds, and the
    rule's norms cannot overflow however large the noise."""
    ts = np.array(t_grid)
    c = pow2_scale(model.Q)
    Q = model.Q / c

    def integrand(u):
        out = np.empty((len(u),) + ts.shape + Q.shape)
        for j, t in enumerate(ts):
            E = expm(model.A, u * t)
            np.multiply(t, E @ Q @ E.swapaxes(-1, -2), out=out[:, j])
        return out
    return dict(zip(t_grid, c * _adaptive_gauss(integrand)))


def _quadrature_residual(grams, oracle):
    """``max |Q_t - oracle_t| / max |Q_t|``, the worst over the horizons
    of `grams`: relative, so a fault reads the same at every scale of the
    noise.  A horizon without a gap reads 0, ``Q = 0`` included; one
    whose gap is not 0 while ``Q_t`` is, or whose ratio overflows, reads
    inf; a NaN entry reads NaN."""
    def gap(t):
        diff = np.abs(grams[t] - oracle[t]).max()
        if diff == 0:
            return 0.0
        with np.errstate(over="ignore", divide="ignore"):
            return diff / np.abs(grams[t]).max()
    return _worst(map(gap, grams), 0.0)


#: Horizons of the Gramian checks in :func:`model_suite`.
T_GRID = (0.1, 0.5, 1.0, 2.0)
#: Every horizon at which :func:`model_suite` reads a transition:
#: ``T_GRID``, the splitting identity's 5 and the semigroup laws' 0.3 and
#: 0.7.  It reads them from one table, which it passes to every check
#: that reads one (:class:`~ou_spectra.gramian._Transitions`).
HORIZONS = (0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 5.0)

# Bounds that ``analyze`` and ``spectrum`` share with the suite.
#: The splitting identity's, relative to ``||Q_inf||_2``.
SPLITTING_TOL = 1e-8
#: The restricted flow's, on ``||S_mu(t)|| - 1``.
CONTRACTION_TOL = 1e-10
#: The Galerkin spectrum's Hausdorff distance to the lattice.
LATTICE_MATCH_TOL = 1e-6


def splitting_residual(Qi, Qt, F):
    """``||Q_inf - Q_t - F Q_inf F'||_2`` for the steady-state covariance
    `Qi`, and the Gramian `Qt` and flow ``F = exp(tA)`` at one horizon."""
    return float(np.linalg.norm(Qi - Qt - F @ Qi @ F.T, 2))


def splitting_tolerance(Qi):
    """The splitting identity's bound, ``SPLITTING_TOL * ||Q_inf||_2``."""
    return SPLITTING_TOL * max(float(np.linalg.norm(Qi, 2)), 1e-300)


def model_suite(model, *, degree=3, levels=3, seed=0):
    """All model-applicable invariants, as a list of check results."""
    rng = np.random.default_rng(seed)
    out = []
    d = model.dim
    table = _gr._Transitions(model, HORIZONS)

    # -- horizon Gramian versus an independent quadrature oracle ---------
    grams = dict(zip(T_GRID, table.gramians(T_GRID)))
    out.append(_check("gramian_t_quadrature_agreement", _quadrature_residual(
        grams, _quadrature_gramians(model, T_GRID)), 1e-8))

    # -- PSD and monotonicity of the Gramian family ----------------------
    scale = _worst((np.abs(g).max() for g in grams.values()), 1.0)
    psd_floor = _worst((-np.linalg.eigvalsh(grams[t])[0] for t in T_GRID),
                       0.0)
    mono_floor = _worst((-np.linalg.eigvalsh(grams[t] - grams[s])[0]
                         for s, t in zip(T_GRID, T_GRID[1:])), 0.0)
    out.append(_check("gramian_t_psd", psd_floor, 1e-10 * scale))
    out.append(_check("gramian_monotone_in_t", mono_floor, 1e-10 * scale))

    # -- rank criteria must agree ----------------------------------------
    try:
        feller = _gr._checked_rank(model, grams[T_GRID[0]],
                                   T_GRID[0]) == model.dim
        out.append(_check("strong_feller_rank_agreement", 0.0, 0.0,
                          detail="strong_feller=%s" % feller))
    except CriteriaDisagree as exc:
        feller = None
        out.append(CheckResult("strong_feller_rank_agreement", False,
                               math.inf, 0.0, str(exc)))

    inv_rep = _gr.invertibility_equivalence_report(
        model, {t: grams[t] for t in T_GRID[:3]})
    if inv_rep.equivalent is None:
        out.append(_skip("invertibility_equivalence", inv_rep.note))
    else:
        out.append(_check("invertibility_equivalence",
                          0.0 if inv_rep.equivalent else math.inf, 0.0,
                          detail=inv_rep.note))

    # -- steady-state identities ------------------------------------------
    try:
        Qi = _q_inf(model)
    except Unstable as exc:
        out.append(_skip("steady_state_checks", str(exc)))
        return out
    ts = (0.1, 1.0, 5.0)
    split = _worst((splitting_residual(Qi, Qt, F) for Qt, F in zip(
        table.gramians(ts), table.flows(ts))), 0.0)
    out.append(_check("splitting_identity", split, splitting_tolerance(Qi)))

    mono_inf = _worst(-np.linalg.eigvalsh(Qi - grams[t])[0] for t in T_GRID)
    out.append(_check("gramian_dominated_by_steady_state", mono_inf,
                      1e-10 * scale))

    factor = model.invariant_factor
    fact_resid = np.abs(Qi - factor.factor @ factor.factor.T).max()
    out.append(_check("rkhs_factorization", fact_resid,
                      1e-10 * (1.0 + np.abs(Qi).max()),
                      detail="rank=%d" % factor.rank))

    # -- restricted flow: contraction, semigroup law, norm identity ------
    norms = np.linalg.norm(table.restricted(T_GRID), 2,
                           axis=(-2, -1)).tolist()
    ks = _gr._ratio_sups(Qi, np.stack(list(grams.values())),
                         model.tol.rank_tol).tolist()
    worst_norm = _worst(norms)
    out.append(_check("restricted_flow_contraction", worst_norm - 1.0,
                      CONTRACTION_TOL))
    if feller:
        out.append(_check("restricted_flow_strict_contraction",
                          worst_norm - 1.0, -1e-15,
                          detail="norm must stay below 1"))

    # a rank-0 factor gives 0x0 flows: the worst entry of none is 0
    semi = np.abs(table.smu_matrix(0.3) @ table.smu_matrix(0.7) -
                  table.smu_matrix(1.0)).max(initial=0.0)
    out.append(_check("restricted_flow_semigroup_law", semi, 1e-8))

    def ident_residual(norm, K):
        if not math.isfinite(K) or K <= 0:
            return 0.0
        lhs = norm ** 2
        rhs = 1.0 - 1.0 / K
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)

    ident = _worst(map(ident_residual, norms, ks), 0.0)
    out.append(_check("norm_identity_vs_rayleigh_quotient", ident, 1e-6))

    # -- generator-level identities ---------------------------------------
    # L, the Mehler matrices and the chaos frame are held as their two
    # parity-class blocks, and every product and deviation is taken per
    # class.  Each array is dropped after its last reader: the blocks of L
    # once the frame's generator check is formed, and the Mehler matrices
    # at t = 0.3 and 0.7 once their products are.
    basis = poly_basis(d, degree)
    blocks = list(galerkin_blocks(model, basis))

    # The eigenvalues of each block, as ``spectrum`` takes them, matched
    # to the lattice of the drift's eigenvalues.
    drift = SpectrumSet(model.drift_eigenvalues)
    out.append(_check("galerkin_spectrum_lattice_match", hausdorff(
        SpectrumSet(np.concatenate([_eigvals(B) for B in blocks])),
        lattice_spectrum(drift, LatticeWindow.covering(drift.points,
                                                       degree))),
        LATTICE_MATCH_TOL, detail="degree=%d" % degree))

    # A singular Q_inf ends the suite at the chaos layers, before the
    # generator check, so it is not formed for it; the skip is decided
    # here, once, and reported in the chaos checks' place.  An alpha! of
    # the chaos family past the float range is refused here, before the
    # Mehler matrices overflow.
    try:
        nondegenerate_factor(model)
        chaos_skip = None
    except DegenerateMeasure as exc:
        chaos_skip = _skip("chaos_checks", str(exc))
    if chaos_skip is None:
        _hermite_norms(basis)
    else:
        blocks.clear()

    # P(t) and the chaos family are block upper triangular in the graded
    # order: their leading blocks are the same objects on the degrees <= N.
    N = min(levels, degree)

    P_1 = mehler_matrix(*table.transition(1.0), basis)
    early, late = (list(mehler_matrix(*table.transition(t), basis))
                   for t in (0.3, 0.7))
    semi = []
    while early:  # odd class first; each pair is freed after its product
        prod = early.pop() @ late.pop()
        prod -= P_1[len(early)]
        semi.append(np.abs(prod, out=prod).max())
    del prod
    out.append(_check("transition_semigroup_law", _worst(semi), 1e-9))

    if chaos_skip is not None:
        out.append(chaos_skip)
        return out

    chaos = chaos_decomposition(model, basis)
    # max |Phi_0 (Psi_0 P(1) - Psi_0)| on the even class, where the
    # constants live.  Phi_0 is one column and the bracket one row, so the
    # product is their outer product: rounding is monotone, so its largest
    # entry is the product of their largest, bit for bit, and the
    # class-sized matrix is not formed.
    Phi_0, Psi_0 = chaos.layer(0)
    inv = np.abs(Phi_0).max() * np.abs(Psi_0 @ P_1[0] - Psi_0).max()
    out.append(_check("invariant_measure_fixed_mean", inv, 1e-10))

    name = "chaos_covariance_permanent"
    out.append(_skip(name, "degree %d has no second chaos layer" % degree)
               if degree < 2 else
               _check(name, _chaos_covariance_residual(model, chaos, rng),
                      1e-9))
    out.append(_check("generator_chaos_block_diagonal",
                      _generator_residual(model, blocks, chaos),
                      THREE_WAY_TOL, detail="degree=%d" % degree))
    name = "second_quantization_mehler_lift"
    out.append(_skip(name, "levels 0: P(1) and the lift are both 1 on the "
                     "constants") if N == 0 else
               _check(name, _mehler_lift(table.smu_matrix(1.0),
                                         _leading(P_1, poly_basis(d, N)),
                                         chaos.leading(N)),
                      THREE_WAY_TOL, detail="t=1, N=%d" % N))
    return out


def _chaos_covariance_residual(model, chaos, rng):
    """Pairing identity for the covariance of projected products of linear
    functionals: the second-layer inner product of phi_h1 phi_h2 and
    phi_k1 phi_k2 equals the permanent of the kernel-space Gram matrix.
    `chaos` holds the degrees <= 2.  Each ``phi_h = <inv_sqrt' h, .>`` is
    drawn in the whitened coordinates of ``model.invariant_factor``, not
    the frame's, so a wrong measure still shows; its Gram matrix is the
    Euclidean one of the draws, whose norms scale each residual."""
    # I_2 keeps a quadratic supported in degrees <= 2, whose inner product
    # comes from Q_inf alone, without the Hermite family.  The second layer
    # is even: I_2 is zero on and onto the linear monomials.
    low = poly_basis(model.dim, 2)
    Qi = _gr.gramian_inf(model)
    Phi_2, Psi_2 = chaos.layer(2)
    even = low.parity_classes[0]
    I2 = np.zeros((low.dim, low.dim))
    I2[np.ix_(even, even)] = Phi_2[:len(even)] @ Psi_2[:, :len(even)]
    white = model.invariant_factor.inv_sqrt.T

    def pairing_residual():
        h = rng.standard_normal((2, model.dim))
        k = rng.standard_normal((2, model.dim))
        f, g = (_linear_product(low, white @ pair[0], white @ pair[1])
                for pair in (h, k))
        lhs = _quadratic_inner(Qi, I2 @ f, I2 @ g)
        rhs = (h[0] @ k[0]) * (h[1] @ k[1]) + (h[0] @ k[1]) * (h[1] @ k[0])
        scale = np.prod(np.linalg.norm(np.concatenate((h, k)), axis=1))
        return abs(lhs - rhs) / scale

    return _worst((pairing_residual() for _ in range(3)), 0.0)


def _quadratic_inner(Sigma, p, q):
    """``E[p(x) q(x)]`` for ``x ~ N(0, Sigma)`` and coefficient vectors `p`,
    `q` on ``poly_basis(d, 2)``, in closed form by Isserlis' theorem.

    With ``p = c + <b, x> + <x, M x>``, ``q = c2 + <b2, x> + <x, M2 x>``,
    ``E[p q] = (c + tr M Sigma)(c2 + tr M2 Sigma) + <b, Sigma b2>
    + 2 tr(M Sigma M2 Sigma)``; the ``up`` table puts each degree-2
    coefficient at ``(i, j)`` and ``(j, i)`` of ``C``, so
    ``M = (C + diag C) / 2``.  It never uses the Hermite family.
    """
    low = poly_basis(len(Sigma), 2)
    _, _, up, _ = _substitution_tables(low.d, 2)

    def parts(coeffs):
        C = coeffs[low.degree_slice(2)][up]
        MS = 0.5 * (C + np.diag(np.diag(C))) @ Sigma
        return coeffs[0] + np.trace(MS), coeffs[low.degree_slice(1)], MS

    (c, b, MS), (c2, b2, MS2) = parts(p), parts(q)
    return float(c * c2 + b @ Sigma @ b2 + 2.0 * np.trace(MS @ MS2))


def _linear_product(basis, a, b):
    """Coefficients of ``<a, x> <b, x>`` on `basis` (degree at least 2).

    Term ``a_i b_j`` lands on the monomial ``e_i + e_j`` through the
    ``up`` table of the substitution kernel; ``np.add.at`` sums the
    terms in row-major ``(i, j)`` order, one term at a time.
    """
    _, _, up, _ = _substitution_tables(basis.d, 2)
    c = np.zeros(basis.dim)
    np.add.at(c[basis.degree_slice(2)], up, np.outer(a, b))
    return c


def contraction_suite(T, *, levels=3, seed=0, prefix=""):
    """Tensor-algebra invariants for one contraction matrix."""
    rng = np.random.default_rng(seed)
    T = np.asarray(T, dtype=float)
    d = T.shape[0]
    out = []
    tnorm = np.linalg.norm(T, 2)
    # Each lift of T, S and T @ S (from one truncation), each spectrum of a
    # symmetric power of T (held by its truncation) and each product set
    # is built once for every check below; the suite keeps its norm guard.
    lift = lambda M, top, symmetric=True: second_quantization(
        M, top, symmetric=symmetric, allow_noncontraction=True)
    ns = range(1, levels + 1)
    tens = lift(T, levels, symmetric=False).levels
    sym_trunc = lift(T, levels + 1)
    syms = sym_trunc.levels

    norm_resid = _worst((abs(np.linalg.norm(tens[n], 2) - tnorm ** n)
                         for n in ns), 0.0)
    sym_resid = _worst((abs(np.linalg.norm(syms[n], 2) - tnorm ** n)
                        for n in ns), 0.0)
    out.append(_check(prefix + "tensor_norm_law", norm_resid, 1e-10))
    out.append(_check(prefix + "sym_norm_law", sym_resid, 1e-8))

    S = random_contraction(rng, d=d, kind="diagonalizable")
    snorm = np.linalg.norm(S, 2)
    s_tens = lift(S, levels, symmetric=False).levels
    gap = np.linalg.norm(T - S, 2)

    def tele_excess(n):
        diff = np.linalg.norm(tens[n] - s_tens[n], 2)
        bound = gap * sum(
            snorm ** j * tnorm ** (n - 1 - j) for j in range(n))
        return diff - bound

    tele = _worst(map(tele_excess, ns), 0.0)
    out.append(_check(prefix + "telescoping_bound", tele, 1e-10))

    ts_syms, s_syms = lift(T @ S, levels).levels, lift(S, levels).levels
    homo = _worst((np.abs(ts_syms[n] - syms[n] @ s_syms[n]).max()
                   for n in ns), 0.0)
    out.append(_check(prefix + "sym_power_homomorphism", homo, 1e-10))

    base = eig(T)
    prods, pred = _product_fold(base, levels)
    spec_resid = _worst((hausdorff(spec, prods[n - 1]) for n in ns
                         for spec in (eig(tens[n]),
                                      sym_trunc.level_spectra[n])), 0.0)
    out.append(_check(prefix + "tensor_sym_product_spectra", spec_resid,
                      1e-7))

    sums, sizes = _multisets(base.points, levels)
    dg_resid = _worst((hausdorff(eig(dgamma(T, n)), SpectrumSet(
        sums[sizes == n])) for n in ns), 0.0)
    out.append(_check(prefix + "dgamma_sum_spectrum", dg_resid, 1e-7))

    if tnorm < 1:
        out.append(_check(prefix + "second_quantization_spectrum",
                          hausdorff(sym_trunc.spectrum(levels), pred), 1e-7))
        out.append(_check(
            prefix + "truncation_stability",
            hausdorff(sym_trunc.embedded_spectrum(levels),
                      sym_trunc.embedded_spectrum()),
            tnorm ** (levels + 1) + 1e-9))
    return out


# No command runs this suite; it stays in this module only because the
# benchmark's trace targets name it.
def spectra_suite(seed=0):
    """Metric and enumeration properties of the spectrum-set algebra."""
    rng = np.random.default_rng(seed)
    out = []

    sym, tri = [], []
    for _ in range(5):
        a, b, c = (SpectrumSet(rng.standard_normal(4)
                               + 1j * rng.standard_normal(4))
                   for _ in range(3))
        sym.append(abs(hausdorff(a, b) - hausdorff(b, a)))
        tri.append(hausdorff(a, c) - hausdorff(a, b) - hausdorff(b, c))
    out.append(_check("hausdorff_symmetry", _worst(sym, 0.0), 0.0))
    out.append(_check("hausdorff_triangle_inequality", _worst(tri, 0.0),
                      1e-12))

    z = -0.5 - rng.random(2) - 1j * rng.standard_normal(2)
    z = np.concatenate([z, z.conj()])
    window = LatticeWindow(re_min=-4.0, im_max=8.0, max_terms=12)
    lat = lattice_spectrum(SpectrumSet(z), window)
    zero_gap = np.abs(lat.points).min()
    out.append(_check("lattice_contains_zero", zero_gap, 1e-12))

    # sums u + v over a row block of points u, each to its nearest point
    closure = 0.0
    pts = lat.points
    for rows in _row_blocks(len(pts), len(pts) ** 2):
        w = (pts[rows, None] + pts).ravel()
        w = w[(w.real >= window.re_min) & (np.abs(w.imag) <= window.im_max)]
        closure = np.abs(pts - w[:, None]).min(axis=1).max(initial=closure)
    out.append(_check("lattice_additive_closure", closure, 1e-9))

    big = lattice_spectrum(SpectrumSet(z), LatticeWindow(
        re_min=-6.0, im_max=12.0, max_terms=16))
    missing = _nearest_distances(pts, big.points)[0].max()
    out.append(_check("lattice_window_monotone", missing, 1e-9))
    return out


def random_stable_model(rng, d=2, kind=None):
    """A random validated stable model with a controlled eigenproblem.

    ``kind`` is one of ``"real"``, ``"complex"``, ``"defective"`` (drawn at
    random when omitted).  Diagonalizable drifts are built as V D V^-1
    with a similarity of condition number at most ~10 so that downstream
    eigenvalue comparisons hold at tight tolerance; defective drifts are
    exactly triangular for the same reason.  The diffusion is a random
    full-rank PSD matrix, so the pair is controllable.
    """
    kind = kind or rng.choice(["real", "complex", "defective"])
    if kind == "defective":
        A = np.zeros((d, d))
        lam = -0.3 - 1.5 * rng.random()
        for i in range(d):
            A[i, i] = lam
            if i:
                A[i, i - 1] = 0.5 + rng.random()
    else:
        if kind == "complex" and d >= 2:
            D = np.zeros((d, d))
            a, b = -0.3 - 1.5 * rng.random(), 0.3 + rng.random()
            D[0, 0] = D[1, 1] = a
            D[0, 1], D[1, 0] = b, -b
            for i in range(2, d):
                D[i, i] = -0.3 - 1.5 * rng.random()
        else:
            D = np.diag(-0.3 - 1.5 * rng.random(d))
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V = U @ np.diag(1.0 + 2.0 * rng.random(d))
        A = V @ D @ np.linalg.inv(V)
    R = rng.standard_normal((d, d))
    Q = R @ R.T + 0.1 * np.eye(d)
    return validate(A, Q, name="random-%s" % kind)


def random_contraction(rng, d=2, kind=None, norm=None):
    """A random strict contraction; defective draws are exactly
    triangular."""
    kind = kind or rng.choice(["diagonalizable", "defective"])
    target = norm if norm is not None else 0.3 + 0.6 * rng.random()
    if kind == "defective":
        T = np.triu(rng.standard_normal((d, d)), 1)
        T += np.eye(d) * (0.2 + 0.5 * rng.random()) * rng.choice([-1.0, 1.0])
    else:
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V = U @ np.diag(1.0 + 1.5 * rng.random(d))
        D = np.diag(rng.uniform(-1.0, 1.0, d))
        T = V @ D @ np.linalg.inv(V)
    return T * (target / max(np.linalg.norm(T, 2), 1e-12))


def random_suite(seed, count, *, degree=3, levels=3):
    """Model suites on `count` random stable models, plus contraction
    suites on random contractions, with per-item derived seeds."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        model = random_stable_model(rng, d=2)
        out.extend(model_suite(model, degree=degree, levels=levels,
                               seed=int(rng.integers(2 ** 31))))
    for i in range(max(count // 2, 1)):
        kind = "defective" if i % 2 else "diagonalizable"
        T = random_contraction(rng, d=2, kind=kind)
        out.extend(contraction_suite(
            T, levels=min(levels, 3), seed=int(rng.integers(2 ** 31)),
            prefix="contraction_%d_" % i))
    return out


def summarize(checks):
    """Digest of a suite run: every check, the failures, and the untested
    theory notes.  The checks stay :class:`CheckResult` objects; the
    report writer encodes each as its fields."""
    failures = [c for c in checks if not c.passed]
    return {
        "schema": 1,
        "checks": list(checks),
        "n_checks": len(checks),
        "n_failed": len(failures),
        "all_passed": not failures,
        "failures": failures,
        "untested_theory": list(UNTESTED_THEORY),
    }
