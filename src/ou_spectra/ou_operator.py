"""The generator on polynomial cores: Galerkin matrix, exact transition
action, chaos projections, and a path sampler.

Everything here exploits one structural fact: because the drift is linear,
polynomials of total degree at most N form an invariant subspace of both the
generator ``L f = 1/2 Tr(Q D^2 f) + <Ax, Df>`` and its transition semigroup.
The Galerkin matrix of L on monomials is therefore exact (no projection
error), block upper triangular in graded order, and its eigenvalues are
honest eigenvalues of L.

The transition action and the chaos family are both the substitution
kernel ``S(M)`` of ``tensor_fock`` (the matrix of ``f -> f(M x)``, one
:func:`~ou_spectra.tensor_fock.substitution_block` per degree) composed
with the exponential of a heat operator ``Delta_Q = 1/2 Tr(Q D^2)``, which
lowers the degree by two, so its exponential is a finite sum:

    P(t) = S(exp(tA)) exp(Delta_(Q_t))               (Mehler formula),
    Phi  = S(W) exp(Delta_(-I)) diag(alpha!)^(-1/2)  (Hermite chaos),

with ``W`` the whitening of the invariant covariance.  The columns of
``Phi`` are the normalized Hermite products ``He_alpha(W x) / sqrt(alpha!)``
indexed like the occupation basis of symmetric tensor powers, and the
projection onto the n-th chaos layer is ``Phi[:, n] Phi^-1[n, :]``.

The path sampler is deliberately crude (Euler-Maruyama): it is a
statistical cross-check of the exact formulas above, not a production
integrator, and its step bias is O(dt).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod, sqrt

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateMeasure,
    DimensionMismatch,
    InputError,
    InvalidStep,
)
from .gramian import (
    _rank_cut,
    flow,
    gramian_inf,
    gramian_t,
    psd_sqrt,
    rkhs_factor,
    smu_matrix,
)
from .tensor_fock import (derivation_block, heat_block, multi_indices,
                          substitution_levels, sym_power)

__all__ = [
    "PolyBasis", "poly_basis", "Polynomial", "poly_mul",
    "assemble_L", "mehler_apply", "mehler_matrix", "ChaosDecomposition",
    "chaos_decomposition", "SecondQuantizationReport",
    "verify_second_quantization", "PathStats", "simulate_paths",
    "euler_mean_cov",
]


# --- polynomial plumbing ----------------------------------------------------

@dataclass(frozen=True)
class PolyBasis:
    """Monomials of total degree <= N in d variables, graded order.

    Within each degree the multi-indices are in descending lexicographic
    order, matching the occupation-number ordering of the tensor levels, so
    level-by-level transports line up index for index.
    """

    d: int
    N: int
    monomials: tuple

    @property
    def dim(self):
        return len(self.monomials)

    def position(self, alpha):
        return _poly_position_table(self.d, self.N)[tuple(alpha)]

    def degree_slice(self, n):
        """Slice of coordinates of total degree exactly n."""
        start = sum(comb(self.d + k - 1, k) for k in range(n))
        return slice(start, start + comb(self.d + n - 1, n))


@lru_cache(maxsize=None)
def _poly_position_table(d, N):
    return {alpha: i for i, alpha in enumerate(poly_basis(d, N).monomials)}


@lru_cache(maxsize=None)
def poly_basis(d, N):
    if d < 1 or N < 0:
        raise InputError("poly_basis needs d >= 1 and N >= 0")
    monomials = tuple(alpha for n in range(N + 1)
                      for alpha in multi_indices(d, n))
    assert len(monomials) == comb(d + N, N)
    return PolyBasis(d=d, N=N, monomials=monomials)


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector over a :class:`PolyBasis`."""

    basis: PolyBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.shape != (self.basis.dim,):
            raise DimensionMismatch(
                "coefficient vector has length %d, basis has dimension %d"
                % (c.size, self.basis.dim))
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def degree(self):
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return 0
        return sum(self.basis.monomials[nz[-1]])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = 0.0 * self.coeffs[0]
        for alpha, c in zip(self.basis.monomials, self.coeffs):
            if c != 0:
                total += c * prod(xi ** a for xi, a in zip(x, alpha))
        return total

    def to_json_dict(self):
        out = {}
        for alpha, c in zip(self.basis.monomials, self.coeffs):
            if c != 0:
                if np.iscomplexobj(self.coeffs):
                    raise InputError(
                        "only real polynomials serialize to JSON")
                out[",".join(str(a) for a in alpha)] = float(c)
        return out

    @classmethod
    def from_json_dict(cls, data, basis=None):
        parsed = {tuple(int(s) for s in key.split(",")): float(val)
                  for key, val in data.items()}
        if basis is None:
            if not parsed:
                raise InputError("cannot infer a basis from an empty "
                                 "polynomial; pass one explicitly")
            d = len(next(iter(parsed)))
            basis = poly_basis(d, max(sum(a) for a in parsed))
        coeffs = np.zeros(basis.dim)
        for alpha, val in parsed.items():
            coeffs[basis.position(alpha)] = val
        return cls(basis=basis, coeffs=coeffs)


def monomial(basis, alpha, coeff=1.0):
    """The single-term polynomial ``coeff * x^alpha``."""
    c = np.zeros(basis.dim, dtype=type(coeff) if not isinstance(
        coeff, int) else float)
    c[basis.position(alpha)] = coeff
    return Polynomial(basis=basis, coeffs=c)


def poly_mul(f, g, basis=None):
    """Product of two polynomials, in `basis` (default: f's basis).

    Raises ``InputError`` when the product degree does not fit.
    """
    basis = f.basis if basis is None else basis
    out = np.zeros(basis.dim, dtype=np.result_type(f.coeffs, g.coeffs))
    for alpha, ca in zip(f.basis.monomials, f.coeffs):
        if ca == 0:
            continue
        for beta, cb in zip(g.basis.monomials, g.coeffs):
            if cb == 0:
                continue
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            if sum(gamma) > basis.N:
                raise InputError(
                    "product has degree %d, basis holds %d"
                    % (sum(gamma), basis.N))
            out[basis.position(gamma)] += ca * cb
    return Polynomial(basis=basis, coeffs=out)


# --- the Galerkin matrix ----------------------------------------------------

def assemble_L(model, basis):
    """Matrix of ``f -> 1/2 Tr(Q D^2 f) + <Ax, Df>`` on the monomials.

    Each degree block of the drift term is
    :func:`~ou_spectra.tensor_fock.derivation_block` of A and each
    ``n -> n - 2`` block of the diffusion term is
    :func:`~ou_spectra.tensor_fock.heat_block` of Q, both scattered from
    the integer index tables of ``tensor_fock``, so the matrix is exact up
    to float products of entries of A, Q with small integers.  The drift
    term preserves total degree and the diffusion term lowers it by two,
    making the matrix block upper triangular in the graded order; that
    structure is exact, not a numerical accident, and is asserted by the
    tests.
    """
    if basis.d != model.dim:
        raise DimensionMismatch(
            "basis is over %d variables, model has dimension %d"
            % (basis.d, model.dim))
    L = np.zeros((basis.dim, basis.dim))
    for n in range(basis.N + 1):
        sel = basis.degree_slice(n)
        L[sel, sel] = derivation_block(model.A, n)
    return L + _heat_matrix(model.Q, basis)


def _heat_matrix(Q, basis):
    """Matrix of ``f -> 1/2 Tr(Q D^2 f)`` on the monomials: the diffusion
    half of :func:`assemble_L`, which lowers the degree by two."""
    H = np.zeros((basis.dim, basis.dim))
    for n in range(2, basis.N + 1):
        H[basis.degree_slice(n - 2), basis.degree_slice(n)] = heat_block(Q, n)
    return H


def _heat_exp(Q, basis):
    """``exp(1/2 Tr(Q D^2))`` on the monomials.  The heat operator lowers
    the degree by two, so the series stops after ``N // 2`` terms."""
    H = _heat_matrix(Q, basis)
    term = total = np.eye(basis.dim)
    for k in range(1, basis.N // 2 + 1):
        term = term @ H / k
        total = total + term
    return total


def _substitution(M, basis):
    """The substitution ``f -> f(M x)`` on all degrees of `basis`."""
    return scipy.linalg.block_diag(*substitution_levels(M, basis.N))


# --- exact transition action ------------------------------------------------

def mehler_apply(model, t, f):
    """Exact transition action on a polynomial: ``mehler_matrix`` applied
    to its coefficients.  The result is again a polynomial of no higher
    degree on the same basis; ``t = 0`` is the identity."""
    P = mehler_matrix(model, t, f.basis)
    return Polynomial(basis=f.basis, coeffs=P @ f.coeffs)


def mehler_matrix(model, t, basis):
    """Matrix of the transition action ``P(t) f(x) = E f(exp(tA) x + G)``,
    ``G ~ N(0, Q_t)``, on all basis monomials at once.

    Averaging over G is the heat operator ``exp(1/2 Tr(Q_t D^2))``; the
    substitution ``x -> exp(tA) x`` follows it.
    """
    t = float(t)
    if t < 0:
        raise InputError("mehler_matrix needs t >= 0, got %g" % t)
    if basis.d != model.dim:
        raise DimensionMismatch(
            "basis is over %d variables, model has dimension %d"
            % (basis.d, model.dim))
    return _substitution(flow(model, t), basis) \
        @ _heat_exp(gramian_t(model, t), basis)


# --- chaos decomposition ----------------------------------------------------

@dataclass(frozen=True)
class ChaosDecomposition:
    """Orthogonal layers of the polynomial space under the invariant
    measure.

    Attributes
    ----------
    basis : PolyBasis
    Q_inf : ndarray
        Covariance of the invariant measure.
    factor : RKHSFactor
        The kernel-space coordinates all layers are expressed in.
    occupation_hermite : ndarray
        The product-form orthonormal family ``Phi``: column for
        multi-index alpha holds the monomial coefficients of
        ``prod_i He_(alpha_i)(xi_i) / sqrt(alpha!)`` where ``xi`` are the
        whitened coordinates from `factor`.  Its degree-n columns span the
        n-th layer and match the occupation-number indexing of symmetric
        tensor powers, which is what level-by-level transports need.
    occupation_hermite_inv : ndarray
        ``Phi^-1``, formed once here and shared with every transport back
        to monomial coordinates.
    projections : tuple of ndarray
        ``projections[n]`` projects onto the degree-n layer, in monomial
        coordinates: ``Phi[:, n-block] Phi^-1[n-block, :]``.
    """

    basis: PolyBasis
    Q_inf: np.ndarray
    factor: object
    occupation_hermite: np.ndarray
    occupation_hermite_inv: np.ndarray
    projections: tuple

    def project(self, n, f):
        """Apply the n-th layer projection to a Polynomial (or raw
        coefficient vector)."""
        P = self.projections[n]
        if isinstance(f, Polynomial):
            return Polynomial(basis=f.basis, coeffs=P @ f.coeffs)
        return P @ np.asarray(f)


def chaos_decomposition(model, basis):
    """The Hermite chaos of the invariant measure on `basis`.

    ``He_alpha = exp(-1/2 Tr(D^2)) xi^alpha`` in the whitened coordinates
    ``xi = W x``, so the family is ``Phi = S(W) exp(Delta_(-I))
    diag(alpha!)^(-1/2)``; it is block upper triangular in graded order
    and the layer projections follow from one inverse.  A warning is
    issued when the covariance is ill-conditioned (eigenvalue ratio beyond
    1e12).

    Raises
    ------
    DegenerateMeasure
        When ``Q_inf`` is singular: a full polynomial basis in d variables
        necessarily contains kernel directions, along which no L2 inner
        product exists.  Analyze a reduced model on the range instead.
    """
    if basis.d != model.dim:
        raise DimensionMismatch(
            "basis is over %d variables, model has dimension %d"
            % (basis.d, model.dim))
    Qi = gramian_inf(model)
    lam = np.linalg.eigvalsh(Qi)
    if not _rank_cut(lam, model.tol.rank_tol).all():
        raise DegenerateMeasure(
            "invariant covariance is singular (eigenvalues %s); polynomials "
            "in kernel directions have no square-integrable normalization"
            % np.array2string(lam, precision=3))
    if lam[-1] / lam[0] > 1e12:
        warnings.warn(
            "invariant covariance is ill-conditioned (ratio %.3e); "
            "the chaos family may lose digits" % (lam[-1] / lam[0]),
            RuntimeWarning, stacklevel=2)
    factor = rkhs_factor(Qi, model.tol.rank_tol)
    norms = np.sqrt([prod(factorial(a) for a in alpha)
                     for alpha in basis.monomials])
    Phi = _substitution(factor.inv_sqrt, basis) \
        @ _heat_exp(-np.eye(basis.d), basis) / norms
    Phi_inv = np.linalg.inv(Phi)
    projections = []
    for n in range(basis.N + 1):
        sel = basis.degree_slice(n)
        projections.append(Phi[:, sel] @ Phi_inv[sel, :])
    return ChaosDecomposition(
        basis=basis,
        Q_inf=Qi,
        factor=factor,
        occupation_hermite=Phi,
        occupation_hermite_inv=Phi_inv,
        projections=tuple(projections),
    )


# --- three-way consistency --------------------------------------------------

@dataclass(frozen=True)
class SecondQuantizationReport:
    """Pairwise deviations between three routes to the transition matrix:
    the exponential of the Galerkin generator, the exact Gaussian
    substitution, and the level-by-level lift of the restricted flow
    transported through the chaos decomposition."""

    t: float
    N: int
    tol: float
    residual_generator_vs_mehler: float
    residual_generator_vs_lift: float
    residual_mehler_vs_lift: float
    max_residual: float
    passed: bool


def verify_second_quantization(model, t, N, tol=1e-8):
    """Compute the transition matrix three ways and compare.

    (a) ``expm(t L)`` with L the Galerkin matrix; (b) the exact Gaussian
    substitution applied to every monomial; (c) the block-diagonal lift
    acting as the n-th symmetric power of the adjoint restricted flow on
    the n-th chaos layer, conjugated back to monomial coordinates by the
    occupation-indexed Hermite family.  All three must agree entrywise;
    the largest pairwise deviation is reported.
    """
    t = float(t)
    if t < 0:
        raise InputError("verify_second_quantization needs t >= 0")
    basis = poly_basis(model.dim, N)
    # Shares no code with (b) and (c), which both rest on the substitution
    # kernel; that kernel is pinned to the Kronecker route by the tests.
    P_gen = scipy.linalg.expm(t * assemble_L(model, basis))
    P_meh = mehler_matrix(model, t, basis)
    chaos = chaos_decomposition(model, basis)
    B = smu_matrix(model, chaos.factor, t)
    blocks = [sym_power(B.T, n) for n in range(N + 1)]
    lift = scipy.linalg.block_diag(*blocks)
    P_lift = chaos.occupation_hermite @ lift @ chaos.occupation_hermite_inv
    r_ab = float(np.abs(P_gen - P_meh).max())
    r_ac = float(np.abs(P_gen - P_lift).max())
    r_bc = float(np.abs(P_meh - P_lift).max())
    worst = max(r_ab, r_ac, r_bc)
    return SecondQuantizationReport(
        t=t,
        N=N,
        tol=float(tol),
        residual_generator_vs_mehler=r_ab,
        residual_generator_vs_lift=r_ac,
        residual_mehler_vs_lift=r_bc,
        max_residual=worst,
        passed=worst <= tol,
    )


# --- sampling cross-check ---------------------------------------------------

@dataclass(frozen=True)
class PathStats:
    """Empirical moments of an Euler-Maruyama ensemble at the horizon."""

    mean: np.ndarray
    cov: np.ndarray
    stderr_mean: np.ndarray
    stderr_cov: np.ndarray
    n_paths: int
    steps: int
    dt: float
    effective_t: float
    seed: int


def simulate_paths(model, x0, t, dt, n_paths, seed):
    """Euler-Maruyama ensemble started at x0, summarized at time t.

    The number of steps is ``round(t / dt)``; the exact horizon actually
    integrated is reported as ``effective_t``.  Increments use a seeded
    generator, so results are reproducible bit for bit.  Standard errors
    are the usual Gaussian ones (for the covariance,
    ``sqrt((C_ii C_jj + C_ij^2) / n)``).
    """
    t, dt = float(t), float(dt)
    if dt <= 0:
        raise InvalidStep("dt must be positive, got %g" % dt)
    if t <= 0 or dt >= t:
        raise InvalidStep("need 0 < dt < t, got dt=%g, t=%g" % (dt, t))
    if n_paths < 1:
        raise InvalidStep("n_paths must be at least 1, got %d" % n_paths)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (model.dim,):
        raise DimensionMismatch(
            "x0 has length %d, model has dimension %d"
            % (x0.size, model.dim))
    steps = max(int(round(t / dt)), 1)
    rng = np.random.default_rng(seed)
    X = np.tile(x0, (n_paths, 1))
    noise = psd_sqrt(model.Q) * sqrt(dt)
    At = model.A.T
    for _ in range(steps):
        X = X + (X @ At) * dt + rng.standard_normal(X.shape) @ noise
    mean = X.mean(axis=0)
    if n_paths > 1:
        cov = np.atleast_2d(np.cov(X.T, ddof=1))
    else:
        cov = np.zeros((model.dim, model.dim))
    var = np.clip(np.diag(cov), 0.0, None)
    stderr_mean = np.sqrt(var / n_paths)
    stderr_cov = np.sqrt(
        (np.outer(var, var) + cov ** 2) / max(n_paths - 1, 1))
    return PathStats(
        mean=mean,
        cov=cov,
        stderr_mean=stderr_mean,
        stderr_cov=stderr_cov,
        n_paths=int(n_paths),
        steps=steps,
        dt=dt,
        effective_t=steps * dt,
        seed=int(seed),
    )


def euler_mean_cov(model, x0, t, dt):
    """Exact mean and covariance of the Euler-Maruyama scheme itself.

    Iterates ``m -> (I + dt A) m`` and ``C -> (I + dt A) C (I + dt A)' +
    dt Q`` for ``round(t / dt)`` steps.  The difference between this
    covariance and the true one quantifies the O(dt) discretization bias
    separately from Monte-Carlo noise.
    """
    t, dt = float(t), float(dt)
    if dt <= 0 or dt >= t:
        raise InvalidStep("need 0 < dt < t, got dt=%g, t=%g" % (dt, t))
    steps = max(int(round(t / dt)), 1)
    d = model.dim
    F = np.eye(d) + dt * model.A
    m = np.asarray(x0, dtype=float).ravel().copy()
    C = np.zeros((d, d))
    for _ in range(steps):
        m = F @ m
        C = F @ C @ F.T + dt * model.Q
    return m, C, steps * dt
