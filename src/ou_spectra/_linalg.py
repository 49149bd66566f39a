"""The package's two dense kernels, in numpy alone: the matrix exponential
(:func:`expm`, of one matrix at its horizons) and the Lyapunov solve
(:func:`lyapunov`).

Every Gramian, flow and transition matrix rests on them.  They are not
taken from ``scipy.linalg``, whose import costs every process about 28 MB
and 0.2 s, and whose ``expm`` squares a triangular input through a closed
form for its diagonal and superdiagonal: on the upper-triangular parity
blocks of the Galerkin generator of a defective drift that misses
``exp(L)`` by 27.8 where its largest entry is 1.7e3.  The tests hold both
kernels to ``scipy.linalg`` and to ``mpmath``.
"""

from __future__ import annotations

import math

import numpy as np

#: Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31, 2009, Table 3.1 and
#: Algorithm 5.1): the largest ``eta`` at which the [m/m] Pade approximant
#: of degree m has a backward error below unit roundoff.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}
#: Coefficients ``b_k = (2m - k)! / (k! (m - k)!)`` of the Pade numerator,
#: ``p_m(x) = sum_k b_k x^k``; the denominator is ``p_m(-x)``.
_PADE = {m: np.array([math.factorial(2 * m - k)
                      // (math.factorial(k) * math.factorial(m - k))
                      for k in range(m + 1)], dtype=float)
         for m in _THETA}


def _parts(b):
    """The parts of the approximant with coefficients ``b``, as rows of
    coefficients on ``A^2, A^4, A^6``: the high parts ``U_hi, V_hi``, the
    low parts ``U_lo, V_lo`` and the identity's coefficients ``b_1, b_0``,
    with ``U = A (A^6 U_hi + U_lo + b_1 I)`` and
    ``V = A^6 V_hi + V_lo + b_0 I``.  Below degree 9 the high parts are
    zero; at degree 9 they carry ``A^8 = A^6 A^2``."""
    c = np.zeros(14)
    c[:len(b)] = b
    high = [c[9::2], c[8:13:2]] if len(b) == 14 else [[c[9], 0, 0],
                                                       [c[8], 0, 0]]
    return (np.array(high), np.array([c[3:8:2], c[2:7:2]]),
            c[1::-1, None, None])


#: The parts of the approximant of each degree (:func:`_parts`).
_PARTS = {m: _parts(b) for m, b in _PADE.items()}
#: ``log2`` of the reciprocal of the leading coefficient of the Pade
#: error series, ``(2m)! (2m + 1)! / (m!)^2``.
_LOG2_C = {m: math.log2(math.factorial(2 * m) * math.factorial(2 * m + 1)
                        // math.factorial(m) ** 2) for m in _THETA}
#: Entries per slice, its horizons included, up to which :func:`_norms`
#: takes one pass and :class:`_AbsPowers` steps by ``|M|^2``, and the
#: most entries :func:`expm` groups in one slice.  Measured on a
#: 2-core VM with one BLAS thread: at n <= 6, where a numpy call's
#: overhead is the cost, these take 14 and 6 of about 50 microseconds off
#: an exponential; at n = 16-128 both ways time alike.  Above the cut are
#: the matrices of side over 64: the Van Loan blocks from d = 33 (those of
#: the benchmark's ``ceiling_d`` probes at d = 48 and 64 among them), the
#: flows from d = 65, and the parity blocks of L in the tests' dense
#: ``exp(tL)`` (``tests/generator_exp.py``); no command exponentiates L.
#: On its 920-row block the norms slot by slot hold 9 input-sized arrays
#: at the peak instead of 14 (8 since each ``|M^k|`` is taken in a free
#: buffer), and steps by ``|M|`` save one product (33 of 430 ms).
_SMALL = 64 * 64
#: The largest side :func:`expm` groups by plan; above it, each horizon
#: is a slice of its own.  Grouped over one-by-one time on
#: the 50 flows of a random drift at t = 0.1-5 (2-core VM, one BLAS
#: thread) was 0.25, 0.27 and 0.33 at n = 2, 4 and 8, then 0.45, 0.73,
#: 0.63, 1.01 and 0.96 at n = 16, 24, 32, 48 and 64.  Every matrix of
#: ``analyze`` at d >= 16 is above the cut: a faster ``analyze`` there
#: stops the benchmark's pacer (ROADMAP item 8), so a cut of 16-32 waits
#: on that fix.
_EACH_SIDE = 8
#: The powers of M scaled with it, held in the first four buffers of
#: :func:`expm`.
_POWERS = np.array([1.0, 2.0, 4.0, 6.0])[:, None]
#: Doublings the Lyapunov solve may take: 2**64 terms of its series.
_SMITH_STEPS = 64


def _norms(P, C):
    """The 1-norm of each matrix of each stack ``P[k]``, as an array of
    shape ``(len(P), len(P[0]))``: in one pass over a small stack and slot
    by slot over a large one, whose ``|P[k]|`` is taken in the free slot
    ``C[0]``, a C-contiguous stack of the same shape."""
    if P[0].size <= _SMALL:
        return np.abs(P).sum(axis=-2).max(axis=-1)
    return np.array([np.abs(X, out=C[0]).sum(axis=-2).max(axis=-1)
                     for X in P])


class _AbsPowers:
    """``|| |M|^(2m+1) ||_1 / ||M||_1`` in units of ``norm^(2m)`` of each
    matrix of a stack ``M``, for degrees m asked for in any order: an
    array of shape ``(k, 1)``.  ``norm`` is each matrix's own 1-norm, of
    shape ``(k, 1, 1)``.  With
    ``G = |M| / norm`` (which cannot overflow), the column sums of
    ``|M|^(k+1)`` are the row vector ``1' G G^k``: one chain of products
    with a vector, O(n^2) each, started on the first ask and taken only
    as far as asked, in steps of ``G^2`` on a small input.  ``G`` and
    ``G^2`` are held in ``work``."""

    def __init__(self, M, norm, work):
        self.start, self.ratios = (M, norm, work), {}

    def __call__(self, m):
        if self.start:
            M, norm, work = self.start
            self.start = None
            G = np.abs(M, out=work[0])
            G /= norm
            self.v = G.sum(axis=-2, keepdims=True)
            # each matrix's 1-norm over norm, the largest of its column sums
            self.own = np.maximum(self.v.max(axis=-1), 1e-300)
            if M.size <= _SMALL:
                self.step, self.by = np.matmul(G, G, out=work[1]), 2
            else:
                self.step, self.by = G, 1
            self.k = 0
        while self.k < 2 * m:
            self.v = self.v @ self.step
            self.k += self.by
            if self.k % 2 == 0:
                self.ratios[self.k // 2] = self.v.max(axis=-1) / self.own
        return self.ratios[m]


def _plans(B, C):
    """The plan (:func:`_degree_and_scaling`) of each matrix of the stack
    ``(k, n, n)`` whose powers are ``B`` (:func:`_powers`); ``C`` is two
    free slots.  The norms and the powers of ``|M|`` are taken for the
    whole stack, each over its own matrix, and only the choice is made
    matrix by matrix."""
    norms = _norms(B, C)
    powers = _AbsPowers(B[0], norms[0][:, None, None], C)
    return [_degree_and_scaling(own, lambda m, i=i: float(powers(m)[i, 0]))
            for i, own in enumerate(norms.T.tolist())]


def _degree_and_scaling(norms, ratio):
    """The Pade degree m and the scaling ``2^-s`` of Al-Mohy & Higham's
    Algorithm 5.1 for ``M``, from the 1-norms of the powers of
    :func:`_powers` and from ``ratio(m)``, the bound of :class:`_AbsPowers`
    for ``M``, or None if a norm is not finite."""
    norm, _, n4, n6, n8, n10 = norms
    if not math.isfinite(norm + n4 + n6 + n8 + n10):
        return None
    d4, d6, d8, d10 = n4 ** 0.25, n6 ** (1 / 6), n8 ** 0.125, n10 ** 0.1

    def ell(m, s=0):
        # The extra squarings ell(2^-s M, m): how far the truncation bound
        # |c_{2m+1}| || |M|^(2m+1) ||_1 / ||M||_1 of 2^-s M sits above unit
        # roundoff, in steps of 2m binary orders.  The bound is at most
        # |c_{2m+1}| ||M||_1^(2m), so a small norm needs no power of |M|.
        log2_bound = 2 * m * (math.log2(max(norm, 1e-300)) - s) - _LOG2_C[m]
        if log2_bound <= -53:
            return 0
        r = ratio(m)
        if r == 0.0:
            return 0
        return max(math.ceil((math.log2(r) + log2_bound + 53) / (2 * m)), 0)

    if max(d4, d6) <= _THETA[3] and ell(3) == 0:
        return 3, 0
    if max(d4, d6) <= _THETA[5] and ell(5) == 0:
        return 5, 0
    if max(d6, d8) <= _THETA[7] and ell(7) == 0:
        return 7, 0
    if max(d6, d8) <= _THETA[9] and ell(9) == 0:
        return 9, 0
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta > 0 else 0
    return 13, s + ell(13, s)


def expm(M, t=1.0):
    """``exp(tM)`` of one real square matrix ``M`` at a horizon ``t`` or
    at each of an array of horizons, of shape ``t.shape + M.shape``, by
    scaling and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
    2009, Algorithm 5.1).  Each horizon has the bits of its own call
    ``expm(t_k * M)``: ``t_k M`` is formed with that product, in the first
    buffer of the powers, so no input-sized stack and no scaled copy of
    ``M`` is made.

    Each horizon gets its own Pade degree m and scaling ``2^-s``, from
    exact 1-norms of ``t_k M`` and of its powers 4, 6, 8 and 10.
    ``r_m(2^-s t_k M)`` is then squared s times, with no shortcut for
    triangular input.  A horizon at which ``t_k M`` is not finite, or its
    powers overflow, gives NaN in its own slot only (a 1 x 1 ``M`` takes
    ``np.exp``, which gives inf), with no overflow warning.

    Up to side ``_EACH_SIDE`` the horizons are taken in slices of at most
    ``_SMALL`` entries; above it each horizon is a slice of its own.  The
    powers of a slice are formed once, and the horizons of a slice that
    share a plan take one Pade step together.  The powers and the parts
    of the approximant live in eight buffers of the slice's size, updated
    in place, and six of them are dropped before the solve; each stage is
    one stacked operation, so a small matrix costs few calls.  A slice
    that is the whole input is returned as its Pade step leaves it, with
    no copy.
    """
    M, t = np.asarray(M), np.asarray(t, dtype=float)
    n = len(M)
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= 1:
            return np.exp(t[..., None, None] * M)
        ts = t.reshape(-1, 1, 1)
        step = _SMALL // (n * n) if n <= _EACH_SIDE else 1
        if len(ts) <= step:
            return _grouped_pade(ts, M).reshape(t.shape + M.shape)
        out = np.empty((len(ts), n, n))
        for i in range(0, len(ts), step):
            out[i:i + step] = _grouped_pade(ts[i:i + step], M)
    return out.reshape(t.shape + M.shape)


def _grouped_pade(t, M):
    """:func:`expm` of one slice ``t * M``, ``M`` of side at least 2 and
    ``t`` of shape ``(k, 1, 1)``."""
    buffers = _powers(t, M)
    plans = {}  # (m, s), or None for a non-finite norm, to its horizons
    for i, plan in enumerate(_plans(*buffers)):
        plans.setdefault(plan, []).append(i)
    if len(plans) == 1 and None not in plans:
        return _pade(buffers, *plans.popitem()[0])
    B = buffers[0]
    X = np.full_like(B[0], np.nan)
    for plan, rows in plans.items():
        if plan is not None:
            # a fancy-indexed slice is not C-contiguous; _pade scales it
            # in place through reshape, which would act on a copy
            X[rows] = _pade([np.ascontiguousarray(B[:, rows]),
                             np.empty((2, len(rows)) + B.shape[2:])], *plan)
    return X


def _powers(t, M):
    """The buffers ``[B, C]`` of the stack ``t * M``, ``M`` of side
    ``n`` at least 2 and ``t`` of shape ``(k, 1, 1)``: ``B`` of shape
    ``(6, k, n, n)`` holds ``A = t * M``, formed in its first slot,
    ``A^2, A^4, A^6, A^8`` and ``A^4 A^6``, formed here, and ``C`` is
    two free slots of the shape ``(2, k, n, n)``."""
    n = len(M)
    B = np.empty((6, len(t), n, n))
    C = np.empty((2, len(t), n, n))
    A = np.multiply(t, M, out=B[0])
    np.matmul(A, A, out=B[1])
    np.matmul(B[1], B[1], out=B[2])
    np.matmul(B[1], B[2], out=B[3])
    np.matmul(B[2], B[2:4], out=B[4:])
    return [B, C]


def _pade(buffers, m, s):
    """``r_m(2^-s M)`` squared s times, from the C-contiguous buffers
    ``[B, C]`` of :func:`_powers`.  It empties the list, so that ``B`` is
    freed before the solve, and overwrites both: ``B`` takes the scaled
    powers, then the high parts in its last two slots; ``C`` the low
    parts, then ``V - U`` and ``V + U``."""
    B, C = buffers
    buffers.clear()
    A = B[0]
    if s:
        B[:4].reshape(4, -1)[...] *= 0.5 ** (s * _POWERS)
    high, low, units = _PARTS[m]
    n = A.shape[-1]
    np.dot(low, B[1:4].reshape(3, -1), out=C.reshape(2, -1))
    C.reshape(2, -1, n * n)[..., ::n + 1] += units
    if m >= 9:
        np.dot(high, B[1:4].reshape(3, -1), out=B[4:].reshape(2, -1))
        # A^6 times the high parts, into the slots of A^2 and A^4
        C += np.matmul(B[3], B[4:], out=B[1:3])
    U = np.matmul(A, C[0], out=B[1])
    np.subtract(C[1], U, out=C[0])
    C[1] += U
    del A, B, U
    X = np.linalg.solve(C[0], C[1])
    del C
    for _ in range(s):
        X = X @ X
    return X


def pow2_scale(X):
    """``c = 2^floor(log2 max|X|)``, 0.5 for a zero ``X``: dividing by c or
    multiplying by it rounds nothing in the float's normal range."""
    return math.ldexp(1.0, math.frexp(float(np.abs(X).max()))[1] - 1)


def lyapunov(A, Q, eigenvalues):
    """The solution X of ``A X + X A' + Q = 0`` for a stable real ``A``
    with the given eigenvalues, by squared Smith iteration (Smith, SIAM J.
    Appl. Math. 16, 1968).

    With the Cayley transform ``F = (A - pI)^-1 (A + pI)`` and
    ``G = 2p (A - pI)^-1 Q (A - pI)^-T`` the equation reads
    ``X = F X F' + G``, solved by ``X = sum_k F^k G F'^k``; each step
    doubles the number of terms summed, ``X <- X + F X F'`` and
    ``F <- F^2``, and X is symmetrized after each step, so roundoff builds
    no antisymmetric part.  The shift ``p = sqrt(min |Re lambda| max
    |lambda|)`` balances the contraction of ``F`` between the slowest and
    the largest eigenvalue.  ``A``, ``Q`` and the eigenvalues are first
    divided by ``c = 2^floor(log2 max|A|)`` (:func:`pow2_scale`): X solves
    the scaled equation too, and the shift's product cannot
    overflow however large the drift.  The doubling stops once an
    increment is below the roundoff of X, or after ``_SMITH_STEPS`` steps;
    the caller checks the residual.  Matrix products and one inverse,
    O(d^3) per step.
    """
    c = pow2_scale(A)
    A, Q, lam = A / c, Q / c, np.asarray(eigenvalues) / c
    eye = np.eye(len(A))
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        p = math.sqrt(float(np.abs(lam.real).min() * np.abs(lam).max()))
        R = np.linalg.inv(A - p * eye)
        X = (2.0 * p) * (R @ Q @ R.T)
        F = (2.0 * p) * R + eye
        for _ in range(_SMITH_STEPS):
            step = F @ X @ F.T
            X += step
            X = 0.5 * (X + X.T)
            if np.abs(step).max() <= eps * np.abs(X).max():
                break
            F = F @ F
    return X
