"""The generator on polynomial cores: Galerkin matrix, exact transition
action and chaos projections.

Everything here exploits one structural fact: because the drift is linear,
polynomials of total degree at most N form an invariant subspace of both the
generator ``L f = 1/2 Tr(Q D^2 f) + <Ax, Df>`` and its transition semigroup.
The Galerkin matrix of L on monomials is therefore exact (no projection
error), block upper triangular in graded order, and its eigenvalues are
honest eigenvalues of L.  It also never couples even degrees to odd ones:
the reflection ``x -> -x`` is the second quantization ``Gamma(-I)``, which
acts as ``(-1)^n`` on degree n and commutes with every ``Gamma(T)``, with
L and with ``exp(tL)``.  So L is built as its even-degree and odd-degree
principal blocks (:func:`galerkin_blocks`), and its eigendecomposition
and its form in the chaos frame run on those, at ``n_even^3 + n_odd^3``
instead of ``dim^3``; the whole L (:func:`assemble_L`) and its
exponential are the tests' dense oracles.

The transition action and the chaos family are both the substitution
kernel ``S(M)`` of ``tensor_fock`` (the matrix of ``f -> f(M x)``, its
blocks from :func:`~ou_spectra.tensor_fock.substitution_levels`) composed
with the exponential of a heat operator ``Delta_Q = 1/2 Tr(Q D^2)``, which
lowers the degree by two, so its exponential is a finite sum:

    P(t)   = S(exp(tA)) exp(Delta_(Q_t))               (Mehler formula),
    Phi    = S(W) exp(Delta_(-I)) diag(alpha!)^(-1/2)   (Hermite chaos),
    Phi^-1 = diag(alpha!)^(1/2) exp(Delta_(+I)) S(W^-1),

with ``W`` the whitening of the invariant covariance.  All three are built
one degree block at a time: ``S(M)`` is block diagonal, and the heat
series is a product of :func:`~ou_spectra.tensor_fock.heat_block` sweeps,
so no dense power of the heat operator and no dense substitution matmul is
formed.  Each chaos layer has one parity, so all three are exact zeros
between the even and the odd degrees too, and, like L, each is held as
its two parity-class blocks: the second quantization acts layer by layer,
and nothing in this module forms a whole ``dim x dim`` matrix but the
tests' oracle :func:`assemble_L`.  ``Phi`` is never inverted: the closed
form of ``Phi^-1`` gets one Newton step against ``Phi``, class by class.
The columns of ``Phi`` are the
normalized Hermite products ``He_alpha(W x) / sqrt(alpha!)`` indexed like
the occupation basis of symmetric tensor powers.  The projection onto the
n-th chaos layer is ``Phi[:, n] Phi^-1[n, :]``; it is kept as that factor
pair, and an operator acting on each layer is lifted through the pairs.
The frame is held to the measure by the tier-1 tests (``Phi' G Phi = I``
in the Gaussian moment Gram matrix ``G``); that the projections resolve
the identity and are idempotent and orthogonal follows from
``Phi^-1 Phi = I`` alone, which the Newton step gives any invertible
``Phi``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DimensionMismatch, InputError, SizeCap
from .gramian import _horizon, _Transitions, nondegenerate_factor
from .spectra import _row_blocks
from .tensor_fock import (DEFAULT_SIZE_CAP, _readonly, _sqrt_factorials,
                          derivation_block, heat_block, multi_indices,
                          substitution_levels, sym_power)

__all__ = [
    "PolyBasis", "poly_basis", "assemble_L", "galerkin_blocks",
    "mehler_matrix", "ChaosDecomposition", "chaos_decomposition",
    "SecondQuantizationReport", "verify_second_quantization",
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

    @property
    def degrees(self):
        """Total degree of each monomial, as a read-only integer array."""
        return _poly_degrees(self.d, self.N)

    @property
    def parity_classes(self):
        """Positions of the even-degree and of the odd-degree monomials,
        each in graded order, as read-only integer arrays; an empty class
        is dropped (degree 0 has no odd monomials)."""
        return _parity_classes(self.d, self.N)

    def degree_slice(self, n):
        """Slice of coordinates of total degree exactly n."""
        start = sum(comb(self.d + k - 1, k) for k in range(n))
        return slice(start, start + comb(self.d + n - 1, n))

    def class_slice(self, n):
        """Slice of the degree-n monomials within their parity class,
        ``parity_classes[n % 2]``, which holds the degrees of that parity
        in graded order."""
        start = sum(comb(self.d + k - 1, k) for k in range(n % 2, n, 2))
        return slice(start, start + comb(self.d + n - 1, n))


@lru_cache(maxsize=None)
def _poly_degrees(d, N):
    return _readonly(np.repeat(np.arange(N + 1),
                               [comb(d + n - 1, n) for n in range(N + 1)]))


@lru_cache(maxsize=None)
def _parity_classes(d, N):
    deg = _poly_degrees(d, N)
    return tuple(_readonly(np.flatnonzero(deg % 2 == p))
                 for p in range(min(2, N + 1)))


@lru_cache(maxsize=None)
def poly_basis(d, N):
    if d < 1 or N < 0:
        raise InputError("poly_basis needs d >= 1 and N >= 0")
    dim = comb(d + N, N)
    if dim > DEFAULT_SIZE_CAP:
        raise SizeCap("the polynomial basis of degree %d over R^%d would "
                      "have dimension %d, above the cap %d"
                      % (N, d, dim, DEFAULT_SIZE_CAP))
    monomials = tuple(alpha for n in range(N + 1)
                      for alpha in multi_indices(d, n))
    assert len(monomials) == dim
    return PolyBasis(d=d, N=N, monomials=monomials)


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
    tests.  Both terms change the degree by an even number, so no entry
    couples an even degree to an odd one: the commands build only the two
    parity blocks (:func:`galerkin_blocks`), of which this is the oracle.
    """
    _require_basis(model.dim, basis)
    return _galerkin(model, range(basis.N + 1))


def galerkin_blocks(model, basis):
    """The principal blocks of :func:`assemble_L` on the even-degree and
    on the odd-degree monomials (``basis.parity_classes``), bit for bit,
    written straight from the degree blocks; degree 0 has only the even
    block."""
    _require_basis(model.dim, basis)
    return tuple(_galerkin(model, range(parity, basis.N + 1, 2))
                 for parity in range(len(basis.parity_classes)))


def _galerkin(model, degrees):
    """The Galerkin matrix on the monomials of the increasing total
    `degrees`, in graded order: a ``derivation_block`` on each degree and
    a ``heat_block`` from each degree n to n - 2 when both are held."""
    sel, start = {}, 0
    for n in degrees:
        sel[n] = slice(start, start + comb(model.dim + n - 1, n))
        start = sel[n].stop
    # Every block is added in place onto the zeros: the result is the
    # only square array held.
    M = np.zeros((start, start))
    for n, cols in sel.items():
        M[cols, cols] += derivation_block(model.A, n)
        if n - 2 in sel:
            M[sel[n - 2], cols] += heat_block(model.Q, n)
    return M


def _require_basis(d, basis):
    if basis.d != d:
        raise DimensionMismatch(
            "basis is over %d variables, model has dimension %d"
            % (basis.d, d))


def _graded(Q, basis, parity, left=None, right=None):
    """``diag(left) exp(1/2 Tr(Q D^2)) diag(right)`` on the monomials of
    the parity class ``basis.parity_classes[parity]``, one degree block at
    a time; `left` and `right` are per-degree blocks over all degrees (the
    identity when omitted), such as ``substitution_levels``.

    The heat operator lowers the degree by two, so its exponential is the
    finite series ``I + H + H^2/2 + ...`` and its block from degree
    ``m + 2k`` to degree m is the product ``H_(m+2) ... H_(m+2k) / k!`` of
    heat blocks, taken from the left.  Every other block of the result is
    zero: it is block upper triangular in the graded order, and a degree
    block only meets degree blocks of its own parity, so the class block
    is the whole operator but for exact zeros.
    """
    N = basis.N
    degrees = range(parity, N + 1, 2)
    heat = {n: heat_block(Q, n) for n in degrees if n >= 2}
    blocks = [b for b in (left, right) if b is not None]
    size = len(basis.parity_classes[parity])
    out = np.zeros((size, size),
                   dtype=np.result_type(Q, float, *(b[-1] for b in blocks)))
    for m in degrees:
        rows = basis.class_slice(m)
        term = None  # the identity
        for k, n in enumerate(range(m, N + 1, 2)):
            if k:
                term = heat[n] if term is None else term @ heat[n] / k
            block = term
            if left is not None:
                block = left[m] if block is None else left[m] @ block
            if right is not None:
                block = right[n] if block is None else block @ right[n]
            out[rows, basis.class_slice(n)] = \
                np.eye(rows.stop - rows.start) if block is None else block
    return out


def _leading(blocks, basis):
    """The class blocks on the degrees <= ``basis.N`` of class blocks on a
    larger basis: block upper triangular in the graded order, they are the
    same operator there.  Views, not copies."""
    return tuple(M[:len(idx), :len(idx)]
                 for M, idx in zip(blocks, basis.parity_classes))


# --- exact transition action ------------------------------------------------

def mehler_matrix(F, Q_t, basis):
    """Matrix of the transition action ``P f(x) = E f(F x + G)``,
    ``G ~ N(0, Q_t)``, on the basis monomials, as its principal blocks on
    the even-degree and the odd-degree monomials (``basis.parity_classes``,
    like :func:`galerkin_blocks`): every entry between them is an exact
    zero.  At ``F = exp(tA)`` and the Gramian ``Q_t`` it is the Mehler
    semigroup ``P(t)``, which reads the model through that pair alone.

    Averaging over G is the heat operator ``exp(1/2 Tr(Q_t D^2))``; the
    substitution ``x -> F x`` follows it.
    """
    _require_basis(len(F), basis)
    levels = list(substitution_levels(F, basis.N))
    return tuple(_graded(Q_t, basis, parity, left=levels)
                 for parity in range(len(basis.parity_classes)))


# --- chaos decomposition ----------------------------------------------------

@dataclass(frozen=True)
class ChaosDecomposition:
    """Orthogonal layers of the polynomial space under the invariant
    measure.

    The n-th layer is kept as its factor pair, the degree-n columns of
    ``Phi`` and the degree-n rows of ``Phi^-1`` (:meth:`layer`); its
    projection ``Phi[:, n] Phi^-1[n, :]`` is never formed.  An operator
    acting on each layer is lifted through the pairs (:meth:`lift`).

    Attributes
    ----------
    basis : PolyBasis
    frame : tuple of ndarray
        The product-form orthonormal family ``Phi`` as its principal
        blocks on ``basis.parity_classes``; between the classes it is an
        exact zero, which is not stored.  The column for multi-index alpha
        holds the monomial coefficients of ``prod_i He_(alpha_i)(xi_i) /
        sqrt(alpha!)`` where ``xi`` are the whitened coordinates from
        ``model.invariant_factor``.  Its degree-n columns span the n-th
        layer and match the occupation-number indexing of symmetric tensor
        powers, which is what level-by-level transports need.
    frame_inv : tuple of ndarray
        ``Phi^-1`` on the same classes, from its closed form
        ``diag(sqrt(alpha!)) exp(Delta_(+I)) S(W^-1)`` and one Newton step
        per class, with no inversion; shared with every transport back to
        monomial coordinates.

    Every block is upper triangular by degree blocks in the graded order.
    """

    basis: PolyBasis
    frame: tuple
    frame_inv: tuple

    def layer(self, n):
        """The factor pair ``(Phi[:, n], Phi^-1[n, :])`` of the n-th layer
        projection on its class ``basis.parity_classes[n % 2]``, as views
        of the class blocks."""
        sel = self.basis.class_slice(n)
        return self.frame[n % 2][:, sel], self.frame_inv[n % 2][sel]

    def lift(self, blocks):
        """``sum_n Phi[:, n] blocks[n] Phi^-1[n, :]``: the operator acting
        as ``blocks[n]`` on the n-th layer, in monomial coordinates, kept
        as a factor pair ``(Phi_c, Y_c)`` on each class of
        ``basis.parity_classes``, whose product is the operator's block on
        the class; ``Y_c`` holds ``blocks[n] Phi^-1[n, :]`` in the rows of
        each degree n of the class.  The blocks are applied to ``Phi^-1``
        first: on defective drifts, whose lifts reach 1e4, that order
        leaves about half the roundoff of ``(Phi blocks) Phi^-1``.  It
        empties the list `blocks`, top degree first, so that each block is
        freed once its rows are written."""
        Y = [np.zeros(Psi.shape, dtype=np.result_type(Psi, *blocks))
             for Psi in self.frame_inv]
        while blocks:
            n = len(blocks) - 1
            sel = self.basis.class_slice(n)
            np.matmul(blocks.pop(), self.frame_inv[n % 2][sel],
                      out=Y[n % 2][sel])
        return tuple(zip(self.frame, Y))

    def leading(self, N):
        """The same family on the degrees <= N.  ``Phi`` and ``Phi^-1``
        are block upper triangular in the graded order, so their leading
        class blocks are the family and its inverse on the smaller basis
        (the inverse to roundoff: its Newton step sums in another
        order)."""
        basis = poly_basis(self.basis.d, N)
        return replace(self, basis=basis,
                       frame=_leading(self.frame, basis),
                       frame_inv=_leading(self.frame_inv, basis))


def _hermite_norms(basis):
    """``sqrt(alpha!)`` over the monomials of `basis`, the scales of the
    chaos family; the first level whose ``alpha!`` is past the float range
    is refused as :class:`SizeCap`."""
    return np.concatenate([_sqrt_factorials(basis.d, n)
                           for n in range(basis.N + 1)])


def _finite_levels(M, N, name):
    """``substitution_levels(M, N)`` as a list; the first level past the
    float range is refused as :class:`SizeCap`, named, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        levels = list(substitution_levels(M, N))
    for n, level in enumerate(levels):
        if not np.isfinite(level).all():
            raise SizeCap("level %d of the chaos frame's substitution %s "
                          "overflows the float range" % (n, name))
    return levels


def _frame_blocks(model, basis):
    """The closed forms of ``Phi`` and ``Phi^-1`` (see
    :func:`chaos_decomposition`), before the Newton step, as two tuples of
    blocks on ``basis.parity_classes``."""
    factor = nondegenerate_factor(model)
    norms = _hermite_norms(basis)
    # W is the inverse of W^-1 = factor.factor, not the RKHS inv_sqrt: the
    # two agree only to roundoff times sqrt(cond Q_inf), and that gap,
    # magnified by the Hermite coefficients, would keep S(W^-1) S(W) from
    # the identity by more than the frame's 1e-10 bound allows.
    eye = np.eye(basis.d)
    parities = range(len(basis.parity_classes))
    levels = _finite_levels(np.linalg.inv(factor.factor), basis.N, "S(W)")
    Phi = tuple(_graded(-eye, basis, p, left=levels) for p in parities)
    levels = _finite_levels(factor.factor, basis.N, "S(W^-1)")
    Psi = tuple(_graded(eye, basis, p, right=levels) for p in parities)
    for F, F_inv, idx in zip(Phi, Psi, basis.parity_classes):
        F /= norms[idx]
        F_inv *= norms[idx, None]
    return Phi, Psi


def chaos_decomposition(model, basis):
    """The Hermite chaos of the invariant measure on `basis`.

    ``He_alpha = exp(-1/2 Tr(D^2)) xi^alpha`` in the whitened coordinates
    ``xi = W x``, so the family is ``Phi = S(W) exp(Delta_(-I))
    diag(alpha!)^(-1/2)``.  Each factor has a closed-form inverse, so
    ``Phi^-1 = diag(alpha!)^(1/2) exp(Delta_(+I)) S(W^-1)`` with ``W^-1``
    the factor of ``model.invariant_factor``; the order of the factors
    matters, since the heat operator and the substitution do not commute.
    Only the d x d factor is inverted, never ``Phi``.  Both are built and
    held as their parity-class blocks.  The closed form carries the
    roundoff of its own products, so one Newton step ``Phi^-1 + Phi^-1
    (I - Phi Phi^-1)`` on each class, in row blocks, squares its residual
    against ``Phi``.

    Raises
    ------
    DegenerateMeasure
        For a singular ``Q_inf`` (see ``gramian.nondegenerate_factor``).
    SizeCap
        For an ``alpha!``, or a level of ``S(W)`` or ``S(W^-1)``, past the
        float range; the first one is named.
    """
    _require_basis(model.dim, basis)
    Phi, Psi = _frame_blocks(model, basis)
    for F, F_inv in zip(Phi, Psi):
        # I - Phi Phi^-1, formed in the product's own buffer; each row of
        # the step reads only its own row of Phi^-1, so it is taken in row
        # blocks (spectra._row_blocks) and no second class-sized product
        # is held.
        step = F @ F_inv
        np.negative(step, out=step)
        step[np.diag_indices(len(step))] += 1.0
        for rows in _row_blocks(*step.shape):
            F_inv[rows] += F_inv[rows] @ step
    return ChaosDecomposition(basis=basis, frame=Phi, frame_inv=Psi)


# --- the second quantization, two routes ------------------------------------

@dataclass(frozen=True)
class SecondQuantizationReport:
    """The residuals of the generator identity in the chaos frame and of
    the Mehler matrix against the level-by-level lift, on one basis."""

    t: float
    N: int
    tol: float
    residual_generator: float
    residual_mehler_vs_lift: float
    max_residual: float
    passed: bool


#: Bound on the generator identity's relative residual and on the entries
#: of the Mehler matrix less the lift.
THREE_WAY_TOL = 1e-8


def verify_second_quantization(model, t, N):
    """Check ``P(t) = Gamma(S_mu(t)*)`` on the degrees <= N by two routes:
    (a) the Galerkin matrix L in the chaos frame is ``sum_n
    dGamma_n(A_mu')`` (:func:`_generator_residual`); (b) the exact Gaussian
    substitution equals the lift of the n-th symmetric power of the
    adjoint restricted flow on each chaos layer (:func:`_mehler_lift`).
    Both must hold within ``THREE_WAY_TOL``; the larger residual is
    reported, NaN if either is NaN.  Once (a) holds, ``exp(tL)`` is the
    exponential of a block-diagonal similarity, so a dense ``exp(tL)``
    would add no third route.  A singular ``Q_inf`` or an ``alpha!`` of the
    chaos family past the float range is refused before L is built, and a
    level of the frame's substitution past that range when the frame is.
    """
    t = _horizon(t, "verify_second_quantization")
    basis = poly_basis(model.dim, N)
    nondegenerate_factor(model)
    _hermite_norms(basis)
    blocks = list(galerkin_blocks(model, basis))
    chaos = chaos_decomposition(model, basis)
    r_gen = _generator_residual(model, blocks, chaos)
    table = _Transitions(model, [t])
    P_meh = mehler_matrix(*table.transition(t), basis)
    r_lift = _mehler_lift(table.smu_matrix(t), P_meh, chaos)
    worst = float(np.max([r_gen, r_lift]))
    return SecondQuantizationReport(
        t=t, N=N, tol=THREE_WAY_TOL, residual_generator=r_gen,
        residual_mehler_vs_lift=r_lift, max_residual=worst,
        passed=worst <= THREE_WAY_TOL)


def _generator_residual(model, blocks, chaos):
    """``max |G - D| / max(max |G|, 1)``, NaN if an entry is, for
    ``G = Phi^-1 L Phi`` in the frame `chaos` and its prediction D:
    ``diag(sqrt(alpha!)) derivation_block(A_mu, n) diag(sqrt(alpha!))^-1``
    on each degree n, which is ``dGamma_n(A_mu')`` in the orthonormal
    Hermite basis, with ``A_mu = inv_sqrt A factor`` from
    ``model.invariant_factor``, and zero off the degree diagonal.

    `blocks` is the list of L's parity blocks on ``chaos.basis``.  G is
    formed per class, from the frame's class blocks, and the list is
    emptied so that each block is freed once used.
    """
    basis = chaos.basis
    factor = model.invariant_factor
    A_mu = factor.inv_sqrt @ model.A @ factor.factor
    sqrt_fact = _hermite_norms(basis)
    tops, diffs = [1.0], []
    while blocks:
        parity = len(blocks) - 1
        G = blocks.pop() @ chaos.frame[parity]
        G = chaos.frame_inv[parity] @ G
        tops += [G.max(), -G.min()]  # max |G| without a copy of |G|
        for n in range(parity, basis.N + 1, 2):
            w = sqrt_fact[basis.degree_slice(n)]
            D = derivation_block(A_mu, n)
            D *= w[:, None]
            D /= w
            G[basis.class_slice(n), basis.class_slice(n)] -= D
        diffs.append(np.abs(G, out=G).max())
    return float(np.max(diffs) / np.max(tops))


def _mehler_lift(B, P_meh, chaos):
    """``max |P_meh - lift|``, NaN if an entry is, for the class blocks
    `P_meh` of a Mehler matrix at t and the lift of ``Gamma_n(B')``,
    ``B = S_mu(t)``, through `chaos`, on one basis.  Both are exact zeros
    between the parity classes, so it is taken on the class blocks alone,
    and the lift's product ``Phi_c Y_c`` in ``spectra._row_blocks`` row
    blocks, so that no class-sized product is held."""
    lift = chaos.lift([sym_power(B.T, n) for n in range(chaos.basis.N + 1)])
    # np.max, not max: max(r, nan) keeps r.
    return float(np.max([np.abs(P[rows] - Phi[rows] @ Y).max()
                         for P, (Phi, Y) in zip(P_meh, lift)
                         for rows in _row_blocks(*P.shape)]))
