"""``exp(tL)`` of the Galerkin generator, the dense route that ``verify``
no longer takes, kept as the tests' oracle of the second quantization.

Once ``Phi^-1 L Phi = sum_n dGamma_n(A_mu')`` holds (the check
``generator_chaos_block_diagonal``), ``exp(tL)`` is the exponential of a
block-diagonal similarity, so the package compares only the Mehler matrix
with the lift.  This exponential shares no code with either: it is
``gramian.expm`` of the parity blocks of L, so the tests can still hold
all three routes to one another.
"""

from __future__ import annotations

import numpy as np

from ou_spectra import gramian
from ou_spectra.ou_operator import galerkin_blocks, poly_basis

from dense_reference import dense


def generator_exp(blocks, basis, t):
    """``exp(t L)`` on `basis` from the parity blocks of L
    (``galerkin_blocks``) on `basis` or a larger one, whose leading
    sub-blocks are those on `basis` (L is block upper triangular).  It is
    returned as L's blocks are, one exponential per class of
    ``basis.parity_classes``: every entry between the classes is an exact
    zero, so it is not stored.  A non-finite exponential is refused with
    the error of ``gramian._finite_prefix``, which names the block."""
    out = []
    for idx, block, parity in zip(basis.parity_classes, blocks,
                                  ("even", "odd")):
        ts = np.array([t])
        E, refusal = gramian._finite_prefix(
            gramian.expm(block[:len(idx), :len(idx)], ts), ts,
            gramian._NONFINITE + "the %s-degree block of L" % parity)
        if refusal is not None:
            raise refusal
        out.append(E[0])
    return out


def dense_generator_exp(model, t, N):
    """``exp(t L)`` on the degrees <= N as one dense matrix, with exact
    zeros between the parity classes."""
    basis = poly_basis(model.dim, N)
    return dense(generator_exp(galerkin_blocks(model, basis), basis, t),
                 basis)
