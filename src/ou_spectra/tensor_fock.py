"""Symmetric tensor powers and truncated second quantization over a
finite-dimensional base space.

Level n of the symmetric tensor algebra over ``R^d`` is coordinatized by
occupation vectors: multi-indices ``alpha`` with ``|alpha| = n``, where the
basis vector ``e_alpha`` is the normalized symmetrization of the word with
``alpha_i`` copies of the i-th base vector.  Identifying ``e_alpha`` with
the monomial ``x^alpha / sqrt(alpha!)`` turns level n into the homogeneous
polynomials of degree n, and the symmetric power of T into the substitution
``x -> T' x``.

One index kernel, the cached table ``up[beta, j] = pos(beta + e_j)`` from
level n - 1 to level n with the multi-indices beta beside it, builds every
graded operator as a numpy scatter, with no ``d**n`` intermediate: the
substitution ``S_n(M): x^alpha -> (M x)^alpha`` (:func:`substitution_levels`),
the derivation ``f -> <M x, grad f>`` (:func:`derivation_block`), the heat
operator ``1/2 Tr(Q D^2)`` (:func:`heat_block`, degree n to n - 2).  With
``D_n = diag(sqrt(alpha!))``,

    sym_power(T, n)  =  D_n S_n(T') D_n^-1.

The same kernel gives the polynomial side of the package (Galerkin
generator, Mehler matrix, Hermite chaos) in ``ou_operator``.  The
isometric embedding ``J_n`` of level n into the full n-fold tensor power is
kept as the independent Kronecker route: ``J_n' (T (x) ... (x) T) J_n`` is
the oracle the tests pin ``sym_power`` to, and the number-operator lift is
its compression, which the tests pin ``derivation_block`` to:

    dgamma(M, n)  =  J_n' (sum_j I (x)...(x) M (x)...(x) I) J_n
                  =  D_n derivation_block(M', n) D_n^-1.

A :class:`FockTruncation` keeps the blocks of all levels up to a cap N.  Its
``spectrum`` is the union of the block spectra; ``embedded_spectrum`` adds
the point 0, which is the action on all discarded levels when the truncation
is viewed inside the full algebra, and is the right object for comparing
truncations of different depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product as _iter_product
from math import comb, factorial, prod

import numpy as np

from .errors import DimensionMismatch, InputError, NotContraction, SizeCap
from .spectra import SpectrumSet, eig

__all__ = [
    "multi_indices", "sym_dim", "embedding", "tensor_power",
    "substitution_levels", "derivation_block",
    "heat_block", "sym_power", "dgamma",
    "FockTruncation", "second_quantization",
]

#: Largest matrix side the package will materialize: a memory guard, not
#: a precision knob.
DEFAULT_SIZE_CAP = 4096


@lru_cache(maxsize=None)
def multi_indices(d, n):
    """All multi-indices of length d summing to n, in descending
    lexicographic order (e.g. d=2, n=2: (2,0), (1,1), (0,2))."""
    if d < 1:
        raise InputError("multi_indices needs d >= 1")
    if n < 0:
        raise InputError("multi_indices needs n >= 0")
    if d == 1:
        return ((n,),)
    out = []
    for k in range(n, -1, -1):
        for rest in multi_indices(d - 1, n - k):
            out.append((k,) + rest)
    return tuple(out)


def sym_dim(d, n):
    """Dimension of level n over R^d: C(d + n - 1, n)."""
    return comb(d + n - 1, n)


@lru_cache(maxsize=None)
def _position_table(d, n):
    return {alpha: i for i, alpha in enumerate(multi_indices(d, n))}


def _check_cap(side, what):
    if side > DEFAULT_SIZE_CAP:
        raise SizeCap("%s would have side %d, above the cap %d"
                      % (what, side, DEFAULT_SIZE_CAP))


def _readonly(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _embedding_cached(d, n):
    dim = sym_dim(d, n)
    J = np.zeros((d ** n, dim))
    if n == 0:
        J[0, 0] = 1.0
        return _readonly(J)
    pos = _position_table(d, n)
    nfact = factorial(n)
    weights = [np.sqrt(prod(factorial(a) for a in alpha) / nfact)
               for alpha in multi_indices(d, n)]
    for word in _iter_product(range(d), repeat=n):
        flat = 0
        alpha = [0] * d
        for letter in word:
            flat = flat * d + letter
            alpha[letter] += 1
        col = pos[tuple(alpha)]
        J[flat, col] = weights[col]
    return J


# The Kronecker route (embedding, tensor_power, dgamma) stays as the
# independent oracle that the tests pin sym_power against.
def embedding(d, n):
    """Isometry from level n (occupation coordinates) into the plain n-fold
    tensor power, as a ``(d**n, sym_dim(d, n))`` matrix with orthonormal
    columns."""
    _check_cap(d ** n, "embedding of level %d" % n)
    return _embedding_cached(d, n)


@lru_cache(maxsize=None)
def _sqrt_factorials(d, n):
    """The diagonal of ``D_n = diag(sqrt(alpha!))`` over ``multi_indices(d,
    n)``, read-only.  Each ``alpha!`` is rounded to a float as numpy
    rounds an int64 below 2^63; one past the float range is refused."""
    try:
        facts = [float(prod(factorial(a) for a in alpha))
                 for alpha in multi_indices(d, n)]
    except OverflowError:
        raise SizeCap("level %d over R^%d holds an alpha! beyond the float "
                      "range" % (n, d)) from None
    return _readonly(np.sqrt(facts))


def _square(T, name):
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DimensionMismatch("%s must be square, got shape %r"
                                % (name, T.shape))
    return T


def tensor_power(T, n):
    """Plain n-fold Kronecker power of T (n = 0 gives the 1x1 identity)."""
    T = _square(T, "tensor_power argument")
    if n < 0:
        raise InputError("tensor_power needs n >= 0")
    d = T.shape[0]
    _check_cap(d ** n, "tensor power %d" % n)
    out = np.eye(1, dtype=T.dtype)
    for _ in range(n):
        out = np.kron(out, T)
    return out


@lru_cache(maxsize=None)
def _substitution_tables(d, n):
    """Integer tables from level n - 1 to level n: for each alpha, its
    first nonzero slot i and the position of ``alpha - e_i``; for each beta
    of level n - 1 and each j, the position of ``beta + e_j``; and the
    beta themselves, as rows of an integer array."""
    pos_prev = _position_table(d, n - 1)
    pos = _position_table(d, n)
    alphas = multi_indices(d, n)
    first = np.array([next(k for k, a in enumerate(alpha) if a)
                      for alpha in alphas])
    parent = np.array([pos_prev[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
                       for alpha, i in zip(alphas, first)])
    betas = multi_indices(d, n - 1)
    up = np.array([[pos[beta[:j] + (beta[j] + 1,) + beta[j + 1:]]
                    for j in range(d)] for beta in betas])
    return tuple(_readonly(np.array(t)) for t in (first, parent, up, betas))


def substitution_levels(M, N):
    """The degree-n blocks ``S_n(M)`` for n = 0..N, in order: column alpha
    holds the monomial coefficients of ``(M x)^alpha``.

    Level n comes from level n - 1 through
    ``(M x)^alpha = (M x)^(alpha - e_i) * sum_j M[i, j] x_j`` with i the
    first nonzero slot of alpha: one numpy update per j, on the cached
    index tables of ``(d, n)``.
    """
    M = _square(M, "substitution argument")
    d = M.shape[0]
    block = np.ones((1, 1), dtype=np.result_type(M, float))
    yield block
    for n in range(1, N + 1):
        first, parent, up, _ = _substitution_tables(d, n)
        prev = block[:, parent]
        block = np.zeros((len(first), len(first)), dtype=prev.dtype)
        for j in range(d):
            block[up[:, j]] += prev * M[first, j]
        yield block


def derivation_block(M, n):
    """Degree-n block of ``f -> <M x, grad f>``, the generator of the
    substitution ``S_n(expm(t M))``.  With ``alpha = beta + e_i``,
    ``(M x)_i d_i x^alpha = sum_j M[i, j] (beta_i + 1) x^(beta + e_j)``."""
    M = _square(M, "derivation argument")
    if n < 0:
        raise InputError("derivation_block needs n >= 0")
    d = M.shape[0]
    block = np.zeros((sym_dim(d, n),) * 2, dtype=np.result_type(M, float))
    if n > 0:
        _, _, up, beta = _substitution_tables(d, n)
        np.add.at(block, (up[:, None, :], up[:, :, None]),
                  M * (beta[:, :, None] + 1.0))
    return block


def heat_block(Q, n):
    """Degree-n to degree-(n - 2) block of ``f -> 1/2 Tr(Q D^2 f)``.  With
    ``alpha = gamma + e_i + e_j`` at ``up_n[up_(n-1)][gamma, i, j]``,
    ``d_i d_j x^alpha = (gamma_i + 1) (gamma_j + 1 + delta_ij) x^gamma``."""
    Q = _square(Q, "heat argument")
    if n < 2:
        raise InputError("heat_block needs n >= 2")
    d = Q.shape[0]
    _, _, up_prev, gamma = _substitution_tables(d, n - 1)
    _, _, up, _ = _substitution_tables(d, n)
    weight = (gamma[:, :, None] + 1.0) * (gamma[:, None, :] + 1.0 + np.eye(d))
    block = np.zeros((len(gamma), sym_dim(d, n)),
                     dtype=np.result_type(Q, float))
    np.add.at(block, (np.arange(len(gamma))[:, None, None], up[up_prev]),
              0.5 * Q * weight)
    return block


def sym_power(T, n):
    """Restriction of the n-fold tensor power to the symmetric subspace,
    in occupation coordinates.

    Built as ``D_n S_n(T') D_n^-1`` (:func:`substitution_levels`) with
    ``D_n = diag(sqrt(alpha!))``, so the cap applies to the symmetric
    dimension only.
    """
    T = _square(T, "sym_power argument")
    if n < 0:
        raise InputError("sym_power needs n >= 0")
    d = T.shape[0]
    _check_cap(sym_dim(d, n), "symmetric power %d" % n)
    D = _sqrt_factorials(d, n)
    block = list(substitution_levels(T.T, n))[-1]  # lower levels freed
    return D[:, None] * block / D[None, :]


def dgamma(M, n):
    """Derivation (number-operator style lift) of M on level n:
    the compression of ``sum_j I (x)...(x) M (x)...(x) I``.

    Level 0 gives the 1x1 zero matrix.  The eigenvalues of the result are
    all sums of n eigenvalues of M (with repetition).
    """
    M = _square(M, "dgamma argument")
    if n < 0:
        raise InputError("dgamma needs n >= 0")
    d = M.shape[0]
    if n == 0:
        return np.zeros((1, 1), dtype=M.dtype)
    _check_cap(d ** n, "dgamma on level %d" % n)
    total = sum(np.kron(np.kron(np.eye(d ** j, dtype=M.dtype), M),
                        np.eye(d ** (n - 1 - j), dtype=M.dtype))
                for j in range(n))
    J = embedding(d, n)
    return J.T @ total @ J


@dataclass(frozen=True)
class FockTruncation:
    """Block-diagonal truncation of a second quantization at level cap N.

    ``levels[n]`` is the block acting on level n (symmetric occupation
    coordinates when ``symmetric``, plain tensor coordinates otherwise);
    ``levels[0]`` is the 1x1 identity block of the vacuum.  The full
    matrix on the truncated algebra has these blocks on its diagonal.
    """

    base_dim: int
    symmetric: bool
    levels: tuple

    def spectrum(self):
        """Union of the block spectra (always contains 1, from the
        vacuum)."""
        return SpectrumSet(np.concatenate([eig(block).points
                                           for block in self.levels]))

    def embedded_spectrum(self):
        """Spectrum of the truncation viewed inside the full algebra.

        Extending by zero on every discarded level adds the point 0; with
        it, truncations at different caps of the same contraction are
        comparable in Hausdorff distance (the missing levels contribute
        points of modulus at most ``norm(T)**(N+1)``, all within that
        distance of 0).
        """
        return self.spectrum().union([0.0 + 0.0j])


def second_quantization(T, N, *, symmetric=True,
                        allow_noncontraction=False):
    """All (symmetric) tensor powers of T up to level N, as one truncation.

    T must be a contraction (operator norm at most ``1 + 1e-12``) unless
    ``allow_noncontraction`` is set; without the contraction property the
    discarded levels are not small and the truncation does not approximate
    anything.  All guards run, level by level, before the first level is
    built; one sweep (as in :func:`sym_power`) or one Kronecker chain follows.
    """
    T = _square(T, "second_quantization argument")
    if N < 0:
        raise InputError("second_quantization needs N >= 0")
    norm = 0.0 if allow_noncontraction else float(np.linalg.norm(T, 2))
    if norm > 1.0 + 1e-12:
        raise NotContraction(
            "operator norm %.12g exceeds 1; pass allow_noncontraction=True "
            "to lift anyway" % norm)
    d = T.shape[0]
    scales = []
    for n in range(N + 1):
        _check_cap(sym_dim(d, n) if symmetric else d ** n, "%s power %d"
                   % ("symmetric" if symmetric else "tensor", n))
        scales.append(_sqrt_factorials(d, n) if symmetric else None)
    if symmetric:
        levels = tuple(D[:, None] * block / D[None, :] for D, block
                       in zip(scales, substitution_levels(T.T, N)))
    else:
        levels = tuple(accumulate(range(N), lambda out, _: np.kron(out, T),
                                  initial=np.eye(1, dtype=T.dtype)))
    return FockTruncation(base_dim=d, symmetric=symmetric, levels=levels)
