"""Dense ``dim x dim`` forms of the objects that ``ou_operator`` holds as
parity-class blocks, kept as the tests' oracle of the class form.

The Mehler matrix, the chaos frame ``Phi`` and its inverse are exact zeros
between the even and the odd degrees, so the package builds and stores only
their principal blocks on ``basis.parity_classes``.  The dense assembly
below is the route those blocks replaced: the same degree-block products,
written into one matrix over the whole basis (:func:`dense_graded`), and the
Newton step of ``Phi^-1`` taken on the whole matrix (:func:`dense_chaos`).
"""

from __future__ import annotations

import numpy as np

from ou_spectra.gramian import flow, gramian_t, nondegenerate_factor
from ou_spectra.ou_operator import _hermite_norms, mehler_matrix
from ou_spectra.tensor_fock import heat_block, substitution_levels


def mehler_at(model, t, basis):
    """The class blocks of the model's Mehler matrix ``P(t)``: its Gramian
    and flow at t, in the order ``verify_second_quantization`` reads them,
    through ``mehler_matrix``."""
    Q_t = gramian_t(model, t)
    return mehler_matrix(flow(model, t), Q_t, basis)


def dense(blocks, basis):
    """The ``dim x dim`` matrix whose principal blocks on
    ``basis.parity_classes`` are `blocks`, with exact zeros between the
    classes."""
    dtype = np.result_type(*blocks)
    out = np.zeros((basis.dim, basis.dim), dtype=dtype)
    for idx, block in zip(basis.parity_classes, blocks):
        out[np.ix_(idx, idx)] = block
    return out


def lifted(pairs):
    """The class blocks of a lift, from the factor pairs of
    ``ChaosDecomposition.lift``."""
    return [Phi @ Y for Phi, Y in pairs]


def dense_graded(Q, basis, left=None, right=None):
    """``diag(left) exp(1/2 Tr(Q D^2)) diag(right)`` on all monomials of
    `basis` at once, one degree block at a time, as one dense matrix."""
    N = basis.N
    heat = {n: heat_block(Q, n) for n in range(2, N + 1)}
    blocks = [b for b in (left, right) if b is not None]
    out = np.zeros((basis.dim, basis.dim),
                   dtype=np.result_type(Q, float, *(b[-1] for b in blocks)))
    for m in range(N + 1):
        rows = basis.degree_slice(m)
        term = None  # the identity
        for k, n in enumerate(range(m, N + 1, 2)):
            if k:
                term = heat[n] if term is None else term @ heat[n] / k
            block = term
            if left is not None:
                block = left[m] if block is None else left[m] @ block
            if right is not None:
                block = right[n] if block is None else block @ right[n]
            out[rows, basis.degree_slice(n)] = \
                np.eye(rows.stop - rows.start) if block is None else block
    return out


def dense_frame(model, basis):
    """The closed forms of ``Phi`` and ``Phi^-1``, before the Newton step,
    as dense matrices."""
    factor = nondegenerate_factor(model)
    norms = _hermite_norms(basis)
    eye = np.eye(basis.d)
    Phi = dense_graded(-eye, basis, left=list(substitution_levels(
        np.linalg.inv(factor.factor), basis.N)))
    Phi /= norms
    Psi = dense_graded(eye, basis, right=list(
        substitution_levels(factor.factor, basis.N)))
    Psi *= norms[:, None]
    return Phi, Psi


def dense_chaos(model, basis):
    """``Phi`` and ``Phi^-1`` as dense matrices, the inverse after one
    Newton step on the whole matrix."""
    Phi, Psi = dense_frame(model, basis)
    Psi = Psi + Psi @ (np.eye(basis.dim) - Phi @ Psi)
    return Phi, Psi
