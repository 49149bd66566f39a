"""The restricted flow's norm and the Rayleigh quotient one horizon at a
time: the loop that ``gramian._curve`` replaced, kept as its reference.

Every numpy call here is the one the stacked kernel makes on a stack, on
one ``d x d`` matrix, and each flow and ``Q_t`` here is its own
exponential, which ``_linalg.expm`` gives each matrix of the kernel's
stacks bit for bit; the tests hold the two ``tobytes``-equal.  Flows and
Gramians are read through ``gramian.flow`` and ``gramian.gramian_t``,
the one-horizon cases of the stacked kernels ``gramian._flows`` and
``gramian._gramians``, so a test that patches a stacked kernel there
patches both.
"""

from __future__ import annotations

import math

import numpy as np

from ou_spectra import gramian
from ou_spectra.errors import RangeNotInvariant


def psd_split(M, rank_tol):
    """Eigenvalues of the symmetrized ``M``, descending, their vectors and
    the mask of those above ``rank_tol`` times the largest."""
    M = np.asarray(M, dtype=float)
    lam, U = np.linalg.eigh(0.5 * (M + M.T))
    lam, U = lam[::-1], U[:, ::-1]
    return lam, U, lam > rank_tol * float(np.max(lam, initial=0.0))


def smu_matrix(model, t):
    """``pinv(R) exp(tA) R`` after the range check."""
    factor = model.invariant_factor
    if factor.rank == 0:
        return np.zeros((0, 0))
    R = factor.factor
    img = gramian.flow(model, t) @ R
    leak = img - factor.basis @ (factor.basis.T @ img)
    resid = float(np.linalg.norm(leak, 2))
    allowed = model.tol.inv_tol * (1.0 + float(np.linalg.norm(img, 2)))
    if resid > allowed:
        raise RangeNotInvariant(
            "exp(tA) moves the kernel space out of itself at t=%g: "
            "residual %.3e exceeds %.3e" % (t, resid, allowed))
    return factor.inv_sqrt @ img


def smu_norm(model, t):
    B = smu_matrix(model, t)
    if B.size == 0:
        return 0.0
    return float(np.linalg.norm(B, 2))


def ratio_sup(P, R, rank_tol):
    """Supremum of ``<Px, x> / <Rx, x>`` over the range of R."""
    P = np.asarray(P, dtype=float)
    lam, V, keep = psd_split(R, rank_tol)
    pscale = max(1.0, float(np.abs(P).max(initial=0.0)))
    if not keep.all():
        W = V[:, ~keep]
        outside = float(np.abs(W.T @ P @ W).max(initial=0.0))
        if outside > rank_tol * pscale:
            return math.inf
    if not keep.any():
        return 0.0
    Vk = V[:, keep]
    inv_sq = 1.0 / np.sqrt(lam[keep])
    M = (Vk * inv_sq).T @ P @ (Vk * inv_sq)
    M = 0.5 * (M + M.T)
    return float(max(np.linalg.eigvalsh(M)[-1], 0.0))


def curve(model, ts):
    """``(||S_mu(t)||, K(t))`` at each horizon, in order: the norm, then
    ``Q_t`` and the quotient."""
    norms, ks = [], []
    for t in ts:
        t = float(t)
        norms.append(smu_norm(model, t))
        Qt = gramian.gramian_t(model, t)
        ks.append(ratio_sup(gramian.gramian_inf(model), Qt,
                            model.tol.rank_tol))
    return np.array(norms), np.array(ks)
