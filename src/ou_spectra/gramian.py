"""Drift-diffusion models, covariance Gramians, and the restricted flow.

A model is the linear stochastic system ``dX = A X dt + Q^(1/2) dW`` on
``R^d``.  Two covariance matrices organize everything this package computes:
the finite-horizon Gramian

    Q_t = integral_0^t exp(sA) Q exp(sA') ds,

and, when the drift is stable (spectral abscissa < 0), its steady-state
limit ``Q_inf``, the unique solution of ``A X + X A' + Q = 0``.  The
invariant Gaussian measure has covariance ``Q_inf``; its reproducing-kernel
space is ``range(Q_inf)`` with the norm that makes the columns of any factor
``R`` with ``R R' = Q_inf`` an isometry.  In the orthonormal coordinates
supplied by such a factor, the flow ``exp(tA)`` restricted to that space
becomes an ordinary ``r x r`` matrix (:func:`smu_matrix`), a contraction
whose norm is tied to the generalized Rayleigh quotient

    K(t) = sup_x <Q_inf x, x> / <Q_t x, x>

by ``norm^2 = 1 - 1/K(t)``.

Numerical choices: ``Q_t`` comes from one block matrix exponential (exact up
to expm accuracy, no quadrature grid), ``Q_inf`` from squared Smith
iteration on a Cayley transform of A, O(d^3) per doubling (both kernels in
numpy, :mod:`ou_spectra._linalg`), the controllability rank from the
orthogonal staircase, O(d^3) per step, and all rank decisions use one
relative threshold from :class:`~ou_spectra.config.Tolerances`.

The drift eigenvalues, ``Q_inf`` and its rank-cut factor are derived at
most once per model and cached on it (:class:`OUModel`); every caller
reads them there, so the rank of ``Q_inf`` is decided in one place, and
an unstable drift (:func:`gramian_inf`) and a singular ``Q_inf``
(:func:`nondegenerate_factor`) are each refused in one place.  Nothing
that depends on a horizon is cached on the model: the transition
``exp(tA)``, ``Q_t``, ``S_mu(t)`` has one path, a table at a set of
horizons (:class:`_Transitions`), which :func:`flow`, :func:`gramian_t`
and :func:`smu_matrix` read at one horizon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import expm, lyapunov
from .config import DEFAULT, Tolerances
from .errors import (
    AsymmetricQ,
    CriteriaDisagree,
    DegenerateMeasure,
    DimensionMismatch,
    EigFailure,
    ExpmFailure,
    InputError,
    NotPSD,
    RangeNotInvariant,
    Unstable,
)
from .spectra import _eigvals, _row_blocks

__all__ = [
    "OUModel", "validate", "spectral_abscissa", "is_stable", "flow",
    "gramian_t", "gramian_inf", "RKHSFactor", "rkhs_factor",
    "nondegenerate_factor", "smu_matrix", "contractivity_constant",
    "rank_psd", "controllability_rank",
    "strong_feller_check", "GramianReport", "gramian_report",
    "InvertibilityReport", "invertibility_equivalence_report",
]


def _readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _cut(values, rank_tol):
    """The rank cut of a set of values (of each row of a stack): ``rank_tol``
    times the largest, or zero when the largest is not positive."""
    return rank_tol * np.max(values, axis=-1, initial=0.0)


def _psd_split(M, rank_tol):
    """The one rank decision on a symmetric PSD matrix, or on each of a
    stack: the eigenvalues of the symmetrized ``M`` in descending order,
    their eigenvectors, and the mask of the kept ones, those strictly above
    the :func:`_cut` (nothing is kept when the largest is not positive)."""
    M = np.asarray(M, dtype=float)
    lam, U = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    lam, U = lam[..., ::-1], U[..., ::-1]
    return lam, U, lam > _cut(lam, rank_tol)[..., None]


def _rank_gap(steps):
    """The closest calls of a series of ``(values, cut)`` rank decisions:
    the smallest kept and the largest dropped value, each with its cut,
    ranked by value over cut."""
    pairs = [(float(v), float(cut)) for values, cut in steps for v in values]

    def ratio(pair):
        return pair[0] / pair[1] if pair[1] > 0 else pair[0]

    kept = min((p for p in pairs if p[0] > p[1]), key=ratio, default=None)
    dropped = max((p for p in pairs if p[0] <= p[1]), key=ratio, default=None)
    return "smallest kept %s, largest dropped %s" % tuple(
        "none" if p is None else "%.3g (cut %.3g)" % p
        for p in (kept, dropped))


@dataclass(frozen=True)
class OUModel:
    """A validated drift-diffusion pair with its tolerance settings.

    Construct through :func:`validate`; the dataclass itself only
    normalizes dtypes and freezes the arrays.  The drift eigenvalues
    (:attr:`drift_eigenvalues`), the steady-state covariance
    (:func:`gramian_inf`) and its factor (:attr:`invariant_factor`) are
    derived from the frozen fields once, on first use, and cached on the
    instance, read-only; a raise is not cached.  These three are
    functions of ``(A, Q)`` and the tolerances alone; a model made by
    ``dataclasses.replace`` derives its own.
    """

    A: np.ndarray
    Q: np.ndarray
    name: str = ""
    tol: Tolerances = field(default=DEFAULT)

    def __post_init__(self):
        object.__setattr__(self, "A", _readonly(self.A))
        object.__setattr__(self, "Q", _readonly(self.Q))

    @property
    def dim(self):
        return self.A.shape[0]

    @functools.cached_property
    def drift_eigenvalues(self):
        """Eigenvalues of A (``EigFailure`` as in
        :func:`~ou_spectra.spectra.eig`)."""
        return _readonly(_eigvals(self.A), complex)

    @functools.cached_property
    def invariant_factor(self):
        """:func:`rkhs_factor` of ``Q_inf`` at ``tol.rank_tol``, the one
        rank decision on ``Q_inf`` (raises as :func:`gramian_inf`)."""
        return rkhs_factor(self._q_inf, self.tol.rank_tol)

    @functools.cached_property
    def _q_inf(self):
        # A raise is not cached, so Unstable and EigFailure recur per call.
        # This is the package's one refusal of an unstable drift.
        if not is_stable(self):
            raise Unstable(
                "no steady-state covariance: spectral abscissa %.6g is not "
                "below the stability margin -%g; hypothesis failed: "
                "stability" % (spectral_abscissa(self), self.tol.stab_tol))
        X = lyapunov(self.A, self.Q, self.drift_eigenvalues)
        X = 0.5 * (X + X.T)
        resid = float(np.abs(self.A @ X + X @ self.A.T + self.Q).max())
        allowed = self.tol.lyap_tol * (1.0 + float(np.abs(self.Q).max()))
        if not resid <= allowed:  # a NaN residual is refused too
            raise EigFailure(
                "steady-state covariance residual %.3e exceeds %.3e; the "
                "Lyapunov solve is unreliable for this model"
                % (resid, allowed))
        return _readonly(X)


def validate(A, Q, name="", tol=None):
    """Check a drift-diffusion pair and return it as an :class:`OUModel`.

    Parameters
    ----------
    A : (d, d) array_like
        Drift matrix.
    Q : (d, d) array_like
        Diffusion matrix; must be symmetric within ``tol.sym_tol`` and
        positive semidefinite within ``tol.psd_tol``.  The stored copy is
        exactly symmetrized.
    name : str, optional
        Label carried into reports.
    tol : Tolerances, optional

    Raises
    ------
    DimensionMismatch
        If the matrices are not square with equal shape.
    AsymmetricQ
        If ``max|Q - Q.T|`` exceeds ``sym_tol * max(1, max|Q|)``.
    NotPSD
        If an eigenvalue of the symmetrized Q falls below
        ``-psd_tol * max(1, max eigenvalue)``.
    """
    tol = DEFAULT if tol is None else tol
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("A must be square, got shape %r" % (A.shape,))
    if Q.shape != A.shape:
        raise DimensionMismatch(
            "Q must match A: got %r versus %r" % (Q.shape, A.shape))
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Q))):
        raise InputError("model matrices must have finite entries")
    scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
    skew = float(np.abs(Q - Q.T).max(initial=0.0))
    if skew > tol.sym_tol * scale:
        raise AsymmetricQ(
            "Q is not symmetric: max|Q - Q.T| = %.3e (allowed %.3e)"
            % (skew, tol.sym_tol * scale))
    Qs = 0.5 * (Q + Q.T)
    lam = np.linalg.eigvalsh(Qs)
    floor = -tol.psd_tol * max(1.0, float(lam[-1]))
    if lam[0] < floor:
        raise NotPSD(
            "Q has eigenvalue %.3e below the PSD tolerance %.3e"
            % (lam[0], floor))
    return OUModel(A=A, Q=Qs, name=name, tol=tol)


def spectral_abscissa(model):
    """Largest real part of the drift eigenvalues."""
    return float(model.drift_eigenvalues.real.max())


def is_stable(model):
    """True when the spectral abscissa clears the stability margin."""
    return spectral_abscissa(model) < -model.tol.stab_tol


def _horizon(t, what, positive=False):
    """`t` as a float, or an :class:`InputError` naming the function `what`
    unless it is finite and at least 0 (above 0 when `positive`)."""
    t = float(t)
    if not (math.isfinite(t) and (t > 0 if positive else t >= 0)):
        raise InputError("%s needs a finite t %s 0, got %g"
                         % (what, ">" if positive else ">=", t))
    return t


def _finite_prefix(X, ts, message):
    """The matrices of the stack `X` before the first one with a non-finite
    entry, and the :class:`ExpmFailure` of `message` at that horizon of
    the array `ts`, None if every one is finite."""
    finite = np.isfinite(X).all(axis=(-2, -1))
    if finite.all():
        return X, None
    first = int(finite.argmin())
    return X[:first], ExpmFailure(message % ts[first])


#: The refusal of an exponential ``exp(tM)`` with a non-finite entry.
_NONFINITE = ("matrix exponential exp(tM) produced non-finite values at "
              "t=%g, for M = ")


def _flows(model, ts):
    """``exp(tA)`` at each horizon of the array `ts`, stacked, as
    :func:`_finite_prefix` keeps it."""
    return _finite_prefix(expm(model.A, ts), ts, _NONFINITE + "the drift A")


def _van_loan(model, ts):
    """``Q_t`` at each horizon of the array `ts` (finite, at least 0),
    stacked, before the first horizon that has a refusal, and that
    refusal, None if none has: :func:`gramian_t`, which is its
    one-horizon case, documents the method.  At one horizon the refusal
    is its product's, then its exponential's."""
    d = model.dim
    H = np.block([[model.A, model.Q], [np.zeros((d, d)), -model.A.T]])
    with np.errstate(over="ignore", invalid="ignore"):
        E, refusal = _finite_prefix(expm(H, ts), ts, _NONFINITE + (
            "Q_t's Van Loan block matrix [[A, Q], [0, -A']]"))
        Qt = E[:, :d, d:] @ np.swapaxes(E[:, :d, :d], -1, -2)
        del E
        Qt = Qt + np.swapaxes(Qt, -1, -2)
        Qt *= 0.5
    Qt[ts[:len(Qt)] == 0.0] = 0.0
    Qt, overflow = _finite_prefix(Qt, ts, "Q_t is not finite at t=%g: the "
                                  "growth of exp(tA) overflows float64")
    return Qt, overflow or refusal


def flow(model, t):
    """The propagator ``exp(tA)``, for a finite ``t`` of any sign."""
    t = float(t)
    if not math.isfinite(t):
        raise InputError("flow needs a finite t, got %g" % t)
    return _Transitions(model, [t])._read("_exp", t)


def gramian_t(model, t):
    """Finite-horizon covariance ``Q_t``.

    Computed from a single exponential of the block matrix
    ``[[A, Q], [0, -A.T]] * t``: writing its exponential as
    ``[[F, G], [0, H]]``, one has ``F = exp(tA)`` and
    ``G = exp(tA) * integral_0^t exp(-sA) Q exp(-sA') ds``, hence
    ``Q_t = G F.T`` after the change of variable ``s -> t - s``.  No
    quadrature grid is involved.  ``t = 0`` returns the zero matrix.  A
    non-finite ``Q_t`` raises :class:`ExpmFailure`, with no overflow
    warning: ``G F.T`` can overflow while both factors are finite.
    """
    t = _horizon(t, "gramian_t")
    return _Transitions(model, [t])._read("_gram", t)


def gramian_inf(model):
    """Steady-state covariance ``Q_inf`` for a stable drift.

    Solves ``A X + X A' + Q = 0`` by squared Smith iteration on a Cayley
    transform of ``A`` shifted from the drift eigenvalues
    (:func:`~ou_spectra._linalg.lyapunov`; matrix products, O(d^3) time
    per doubling, O(d^2) memory); the result is symmetrized and its
    residual in the equation is checked against
    ``lyap_tol * (1 + max|Q|)``.  The checked result is cached on
    the model (:class:`OUModel`), so every call for one model returns the
    same read-only array.

    Raises
    ------
    Unstable
        If the spectral abscissa is not below ``-stab_tol``; the
        package's one refusal of an unstable drift.
    EigFailure
        If the residual exceeds the guard or is NaN.
    """
    return model._q_inf


@dataclass(frozen=True)
class RKHSFactor:
    """Orthonormal coordinates for the reproducing-kernel space of the
    invariant measure.

    Attributes
    ----------
    rank : int
        Numerical rank r of the covariance.
    factor : (d, r) ndarray
        Columns are an orthogonal eigenbasis scaled by sqrt-eigenvalues,
        so ``factor @ factor.T`` reproduces the covariance and the columns
        are an orthonormal basis of the kernel space in its own inner
        product.
    basis : (d, r) ndarray
        Orthonormal (Euclidean) eigenvectors spanning the range.
    inv_sqrt : (r, d) ndarray
        Pseudo-inverse of ``factor``; maps a vector to its coordinates.
    eigenvalues : (d,) ndarray
        All eigenvalues of the covariance, descending: the rank cut's.
    """

    rank: int
    factor: np.ndarray
    basis: np.ndarray
    inv_sqrt: np.ndarray
    eigenvalues: np.ndarray


def rkhs_factor(Q_inf, rank_tol=DEFAULT.rank_tol):
    """Spectral square-root factor of a PSD covariance, rank-truncated.

    Eigenvalues at or below ``rank_tol`` times the largest one are treated
    as zero; the kept eigenpairs (sorted descending, deterministic up to
    column signs) define the factor.
    """
    lam, U, keep = _psd_split(Q_inf, rank_tol)
    lam_k = lam[keep]
    U_k = U[:, keep]
    sq = np.sqrt(lam_k)
    return RKHSFactor(
        rank=int(keep.sum()),
        factor=_readonly(U_k * sq),
        basis=_readonly(U_k),
        inv_sqrt=_readonly((U_k / sq).T if lam_k.size else U_k.T),
        eigenvalues=_readonly(lam),
    )


def nondegenerate_factor(model):
    """``model.invariant_factor`` if ``Q_inf`` has full rank, or else the
    package's one :class:`DegenerateMeasure`, naming the rank and the rank
    gap of the cut: a polynomial in a kernel direction has no
    square-integrable normalization, so the chaos frame cannot span."""
    factor = model.invariant_factor
    if factor.rank < model.dim:
        lam = factor.eigenvalues
        raise DegenerateMeasure(
            "invariant covariance Q_inf has rank %d < %d, %s; hypothesis "
            "failed: nondegeneracy"
            % (factor.rank, model.dim,
               _rank_gap([(lam, _cut(lam, model.tol.rank_tol))])))
    return factor


def _curve(model, ts):
    """``||S_mu(t)||`` and ``K(t)`` at each horizon of `ts`, as two lists.
    The horizons go in row blocks of
    :func:`~ou_spectra.spectra._row_blocks`, one :class:`_Transitions`
    table each, read horizon by horizon, ``S_mu(t)`` and then ``Q_t``: the
    refusal is the first in horizon order, and at one horizon the flow's,
    then the leak's, then the Gramian's.  The norms and the quotients are
    one numpy call per block, bitwise the one-horizon result."""
    Qi, ts = gramian_inf(model), np.asarray(ts, dtype=float)
    norms, ks = [], []
    for rows in _row_blocks(len(ts), model.dim ** 2):
        chunk = ts[rows].tolist()
        table = _Transitions(model, chunk)
        S, Qt = zip(*[(table.smu_matrix(t), table._read("_gram", t))
                      for t in chunk])
        norms += np.linalg.norm(np.stack(S), 2, axis=(-2, -1)).tolist()
        ks += _ratio_sups(Qi, np.stack(Qt), model.tol.rank_tol).tolist()
    return norms, ks


def _restricted(model, ts, F):
    """:func:`smu_matrix` from the stack of flows `F` at horizons `ts`, up
    to the first flow that moves the kernel space out of itself, and that
    flow's refusal (None if none does)."""
    factor = model.invariant_factor
    img = F @ factor.factor
    leak = img - factor.basis @ (factor.basis.T @ img)
    resid, size = np.linalg.norm(np.stack((leak, img)), 2, axis=(-2, -1))
    for k, (t, r, allowed) in enumerate(
            zip(ts, resid, model.tol.inv_tol * (1.0 + size))):
        if r > allowed:
            return factor.inv_sqrt @ img[:k], RangeNotInvariant(
                "exp(tA) moves the kernel space out of itself at t=%g: "
                "residual %.3e exceeds %.3e" % (t, r, allowed))
    return factor.inv_sqrt @ img, None


def _ratio_sups(P, Rs, rank_tol):
    """Supremum of ``<Px, x> / <Rx, x>`` over the range of each ``R`` of
    the stack `Rs` (symmetric PSD): ``math.inf`` where `P` has mass outside
    ``range(R)``, else the top eigenvalue of `P` compressed by
    ``R^(-1/2)``.  One rank split, then one compression per rank."""
    P = np.asarray(P, dtype=float)
    lam, V, keep = _psd_split(Rs, rank_tol)
    out, ranks = np.zeros(len(Rs)), keep.sum(axis=1)
    for r in set(ranks.tolist()):  # a kept set is a prefix of the order
        rows, mask = ranks == r, np.arange(keep.shape[1]) < r
        if r:
            inv_sq = 1.0 / np.sqrt(lam[rows][:, mask])
            X = V[rows][..., mask] * inv_sq[:, None]
            M = np.swapaxes(X, -1, -2) @ P @ X
            top = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))
            out[rows] = np.maximum(top[:, -1], 0.0)
        if not mask.all():
            W = V[rows][..., ~mask]
            outside = np.abs(np.swapaxes(W, -1, -2) @ P @ W).max(
                axis=(-2, -1), initial=0.0)
            out[rows] = np.where(outside > rank_tol * max(
                1.0, float(np.abs(P).max(initial=0.0))), math.inf, out[rows])
    return out


def smu_matrix(model, t):
    """The flow restricted to the kernel space, in factor coordinates.

    Returns the ``r x r`` matrix ``B(t) = pinv(R) exp(tA) R`` where ``R``
    is ``model.invariant_factor.factor``.  Before compressing, the
    residual of ``exp(tA) R`` outside ``range(R)`` is checked: the
    restriction only means anything if the flow maps the space into
    itself.

    Raises
    ------
    RangeNotInvariant
        If ``exp(tA)`` leaks out of the range beyond
        ``inv_tol * (1 + norm of the image)``.
    """
    t = _horizon(t, "smu_matrix")
    return _Transitions(model, [t]).smu_matrix(t)


def _frozen(stack, refusal):
    stack.flags.writeable = False
    return stack, refusal


class _Transitions:
    """``exp(tA)``, ``Q_t`` and ``S_mu(t)`` of `model` at the horizons `ts`
    (finite; at least 0 for ``Q_t`` and ``S_mu``), the one path of each.
    A family is one stacked call at its first read, after the reader's
    checks (:func:`_flows`, :func:`_van_loan`, and :func:`_restricted` of
    the flows, none for a rank-0 factor, whose ``S_mu`` are 0 x 0).  It
    keeps, read-only, the horizons before its first refusal, bitwise their
    one-horizon results, and that refusal, which a read at that horizon
    raises; any other horizon is read from a one-horizon table, which
    refuses it itself.  Each reader has its own method, so a test can fault
    one reader's route."""

    def __init__(self, model, ts):
        self.model, self._ts = model, np.asarray(ts, dtype=float)
        self._index = {t: k for k, t in enumerate(self._ts.tolist())}

    @functools.cached_property
    def _exp(self):
        return _frozen(*_flows(self.model, self._ts))

    @functools.cached_property
    def _gram(self):
        return _frozen(*_van_loan(self.model, self._ts))

    @functools.cached_property
    def _smu(self):
        F, refusal = (self._exp if self.model.invariant_factor.rank else
                      (np.zeros((len(self._ts),) + self.model.A.shape), None))
        S, leak = _restricted(self.model, self._ts[:len(F)], F)
        return _frozen(S, leak or refusal)

    def _read(self, family, t):
        stack, refusal = getattr(self, family)
        k = self._index.get(t, -1)
        if 0 <= k < len(stack):
            return stack[k]
        if k == len(stack):
            raise refusal
        return _Transitions(self.model, [t])._read(family, t)

    def smu_matrix(self, t):
        return self._read("_smu", t)

    def transition(self, t):
        """``(exp(tA), Q_t)``; ``Q_t`` is read, and refused, first."""
        Qt = self._read("_gram", t)
        return self._read("_exp", t), Qt

    def flows(self, ts):
        return np.stack([self._read("_exp", t) for t in ts])

    def gramians(self, ts):
        return np.stack([self._read("_gram", t) for t in ts])

    def restricted(self, ts):
        return np.stack([self._read("_smu", t) for t in ts])


def contractivity_constant(model, t):
    """The generalized Rayleigh quotient ``K(t)`` of (Q_inf, Q_t).

    Always at least 1 (the steady-state covariance dominates every
    finite-horizon one); returns ``math.inf`` if Q_inf has mass outside
    ``range(Q_t)``, which cannot happen for a valid stable model but is the
    honest answer for hand-built covariance pairs.
    """
    t = _horizon(t, "contractivity_constant", positive=True)
    Qt = gramian_t(model, t)
    Qi = gramian_inf(model)
    return float(_ratio_sups(Qi, Qt[None], model.tol.rank_tol)[0])


def rank_psd(M, rank_tol=DEFAULT.rank_tol):
    """Numerical rank of a symmetric PSD matrix by relative eigenvalue cut
    (:func:`_psd_split`)."""
    return int(_psd_split(M, rank_tol)[2].sum())


def _staircase(A, Q, rank_tol):
    """Rank decisions of the orthogonal controllability staircase.

    The pair is ``(A, B)`` with ``B`` the rank-cut spectral factor of Q
    scaled to unit Frobenius norm (Varga 1981; Van Dooren 1981).  Returns
    one ``(values, cut)`` pair per step; the controllability rank is the
    number of values strictly above their cut.

    The first step is the eigendecomposition of Q: it keeps the eigenvalues
    above ``rank_tol`` times the largest, the split :func:`_psd_split` of
    :func:`rank_psd` and :func:`rkhs_factor`, and rotates A into that
    eigenbasis, kept directions first.  Each later step takes the SVD of
    the block ``A21`` that maps the directions reached so far into the
    rest, keeps its singular values above ``rank_tol * ||[B, A]||_F`` (a
    scale that does not change under ``Q -> cQ``), and rotates the
    trailing block so that the newly reached directions come first.  The recursion ends when a
    step keeps nothing or the whole space is reached: O(d^3) per step and
    no ``d x d^2`` Kalman matrix, whose columns ``A^k B`` grow or shrink
    geometrically and drown the rank in roundoff.

    The first ``A21`` block is weighted by ``B``: it is the part of ``AB``
    outside ``range(B)``.  The eigenvector of a kept eigenvalue ``lam`` is
    known only to about ``eps * lam_max / lam``; unweighted, that error
    passes the cut when ``lam`` is small and leads the recursion into
    directions that Q does not drive.
    """
    A = np.asarray(A, dtype=float)
    lam, U, keep = _psd_split(Q, rank_tol)
    steps = [(lam, _cut(lam, rank_tol))]
    r = int(keep.sum())
    cut = rank_tol * math.hypot(1.0, float(np.linalg.norm(A)))
    T = U.T @ A @ U
    block = T[r:, :r] * np.sqrt(lam[:r] / lam[:r].sum())
    while 0 < r < len(T):
        V, s, _ = np.linalg.svd(block)
        steps.append((s, cut))
        T, r = V.T @ T[r:, r:] @ V, int((s > cut).sum())
        block = T[r:, :r]
    return steps


def controllability_rank(A, Q, rank_tol=DEFAULT.rank_tol):
    """Rank of the controllable pair ``(A, Q^(1/2))``, the dimension of the
    span of ``B, AB, ..., A^(d-1) B``, from the orthogonal staircase
    (see :func:`_staircase`)."""
    return sum(int((values > cut).sum())
               for values, cut in _staircase(A, Q, rank_tol))


def strong_feller_check(model, t):
    """Whether the transition kernel at time t has a density (full-rank Q_t).

    Two independent criteria are evaluated: the eigenvalue rank of the
    computed ``Q_t``, and the controllability rank of ``(A, Q^(1/2))``,
    which equals ``rank(Q_t)`` for every ``t > 0``.

    Raises
    ------
    CriteriaDisagree
        If the two ranks differ: one of the computations cannot be
        trusted, and guessing would silently corrupt downstream results.
        The message names, for each criterion, the smallest kept and the
        largest dropped value, each against its cut.
    """
    t = _horizon(t, "strong_feller_check", positive=True)
    return _checked_rank(model, gramian_t(model, t), t) == model.dim


def _checked_rank(model, Qt, t):
    """``rank(Q_t)`` of the Gramian ``Qt`` at horizon ``t > 0``, after
    checking it against the controllability rank (see
    :func:`strong_feller_check`, which documents the raise)."""
    lam, _, keep = _psd_split(Qt, model.tol.rank_tol)
    r_gram = int(keep.sum())
    r_kalman = controllability_rank(model.A, model.Q, model.tol.rank_tol)
    if r_gram != r_kalman:
        raise CriteriaDisagree(
            "rank(Q_t) = %d but the controllability rank is %d at t=%g; "
            "Q_t eigenvalues: %s; staircase: %s"
            % (r_gram, r_kalman, t,
               _rank_gap([(lam, _cut(lam, model.tol.rank_tol))]),
               _rank_gap(_staircase(model.A, model.Q, model.tol.rank_tol))))
    return r_gram


@dataclass(frozen=True)
class GramianReport:
    """Covariance summary of a model at one horizon."""

    t: float
    spectral_abscissa: float
    stable: bool
    Q_t: np.ndarray
    rank_Q_t: int
    strong_feller: bool
    Q_inf: np.ndarray | None
    rank_Q_inf: int | None
    q_inf_invertible: bool


def gramian_report(model, t):
    """Gramian facts at horizon t: ranks, stability, smoothing.

    ``Q_inf`` fields are present only when the drift is stable.  At
    ``t = 0`` the kernel is a point mass, so ``strong_feller`` is False by
    convention and the rank cross-check (which needs ``t > 0``) is skipped.
    """
    t = _horizon(t, "gramian_report")
    stable = is_stable(model)
    Qt = gramian_t(model, t)
    if t > 0:
        rank_t = _checked_rank(model, Qt, t)
        feller = rank_t == model.dim
    else:
        rank_t, feller = rank_psd(Qt, model.tol.rank_tol), False
    if stable:
        Qi = gramian_inf(model)
        rank_i = model.invariant_factor.rank
        invertible = rank_i == model.dim
    else:
        Qi, rank_i, invertible = None, None, False
    return GramianReport(
        t=t,
        spectral_abscissa=spectral_abscissa(model),
        stable=stable,
        Q_t=Qt,
        rank_Q_t=rank_t,
        strong_feller=feller,
        Q_inf=Qi,
        rank_Q_inf=rank_i,
        q_inf_invertible=invertible,
    )


@dataclass(frozen=True)
class InvertibilityReport:
    """Cross-check of the equivalence: for a stable drift, ``Q_inf`` is
    invertible iff ``Q_t`` is invertible for every t > 0."""

    stable: bool
    q_inf_invertible: bool | None
    q_t_invertible: dict
    equivalent: bool | None
    note: str


def invertibility_equivalence_report(model, grams=None):
    """Check that ``Q_inf`` and all ``Q_t`` agree on invertibility.

    The rank of ``Q_t`` is constant over ``t > 0`` (it equals the Kalman
    rank), so for a stable drift invertibility of ``Q_inf`` must match the
    verdict of each ``Q_t`` in `grams` (horizon to ``Q_t``; by default
    ``t = 0.1, 1, 5``).  A mismatch is reported with ``equivalent=False``,
    never hidden; for an unstable drift the equivalence is vacuous,
    ``equivalent`` is None and the note is :func:`gramian_inf`'s refusal.
    """
    if grams is None:
        grams = {t: gramian_t(model, t) for t in (0.1, 1.0, 5.0)}
    per_t = {t: rank_psd(Qt, model.tol.rank_tol) == model.dim
             for t, Qt in grams.items()}
    try:
        inv = model.invariant_factor.rank == model.dim
    except Unstable as exc:
        return InvertibilityReport(
            stable=False, q_inf_invertible=None, q_t_invertible=per_t,
            equivalent=None, note=str(exc))
    equivalent = all(v == inv for v in per_t.values())
    note = "" if equivalent else (
        "invertibility of Q_inf disagrees with Q_t on the grid; "
        "rank decisions near the tolerance threshold are suspect")
    return InvertibilityReport(
        stable=True,
        q_inf_invertible=inv,
        q_t_invertible=per_t,
        equivalent=equivalent,
        note=note,
    )
