"""Helpers on occupation coordinates that only the tests call: the ladder
operators of the symmetric tensor algebra and the index of a monomial in a
:class:`~ou_spectra.ou_operator.PolyBasis`.

Both are built on the package's index tables (``_substitution_tables``,
``_position_table``), so they address the same coordinates as
``sym_power``, ``derivation_block`` and the Galerkin blocks.
"""

from __future__ import annotations

import numpy as np

from ou_spectra.errors import DimensionMismatch, InputError
from ou_spectra.tensor_fock import (
    _check_cap,
    _position_table,
    _substitution_tables,
    sym_dim,
)


def creation(h, n):
    """Creation by the vector h, mapping level n to level n + 1.

    Sends ``e_alpha`` to ``sum_i h_i sqrt(alpha_i + 1) e_(alpha+delta_i)``.
    """
    h = np.asarray(h).ravel()
    if n < 0:
        raise InputError("creation needs a level n >= 0")
    d = h.shape[0]
    if d < 1:
        raise DimensionMismatch("creation needs a nonempty vector")
    _check_cap(sym_dim(d, n + 1), "creation target level %d" % (n + 1))
    _, _, up, alpha = _substitution_tables(d, n + 1)
    C = np.zeros((sym_dim(d, n + 1), len(alpha)),
                 dtype=np.result_type(h, float))
    C[up, np.arange(len(alpha))[:, None]] = h * np.sqrt(alpha + 1.0)
    return C


def annihilation(h, n):
    """Annihilation by the vector h, mapping level n to level n - 1.

    Defined as the adjoint of :func:`creation`, taken literally: the
    returned matrix is the conjugate transpose of ``creation(h, n - 1)``,
    so the duality holds exactly by construction.
    """
    if n < 1:
        raise InputError("annihilation needs a level n >= 1")
    return creation(h, n - 1).conj().T.copy()


def position(basis, alpha):
    """Index of the monomial `alpha` in `basis` (``KeyError`` if not
    held)."""
    alpha = tuple(alpha)
    n = sum(alpha)
    if n > basis.N:
        raise KeyError(alpha)
    return basis.degree_slice(n).start + _position_table(basis.d, n)[alpha]
