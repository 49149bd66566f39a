"""Tolerance defaults and overrides, and the error taxonomy."""

import pytest

from ou_spectra import config, tensor_fock
from ou_spectra.errors import (
    InputError,
    NotContraction,
    NumericalError,
    OUSpectraError,
    Unstable,
)


def test_default_values():
    tol = config.DEFAULT
    assert tol.sym_tol == 1e-10
    assert tol.rank_tol == 1e-10
    assert tensor_fock.DEFAULT_SIZE_CAP == 4096
    # the memory guard is a module constant, not a tolerance
    assert not hasattr(tol, "size_cap")


def test_with_overrides():
    tol = config.DEFAULT.with_overrides({"rank_tol": 1e-5})
    assert tol.rank_tol == 1e-5
    assert tol.sym_tol == config.DEFAULT.sym_tol
    with pytest.raises(ValueError):
        config.DEFAULT.with_overrides({"rank_toll": 1e-5})
    # zero and an integer are valid values; the boundary is >= 0
    assert config.DEFAULT.with_overrides({"stab_tol": 0}).stab_tol == 0
    assert config.DEFAULT.with_overrides({"inv_tol": 1}).inv_tol == 1


@pytest.mark.parametrize("value", [1, 1.0, 2, 1e300])
def test_rank_tol_of_one_or_more_is_refused(value):
    # a relative cut at 1 or more keeps no direction
    with pytest.raises(ValueError, match="tolerance rank_tol must be below 1"):
        config.DEFAULT.with_overrides({"rank_tol": value})
    assert config.DEFAULT.with_overrides({"rank_tol": 0.5}).rank_tol == 0.5


def test_tolerances_frozen():
    with pytest.raises(Exception):
        config.DEFAULT.sym_tol = 1.0


def test_error_hierarchy():
    # input-class errors map to CLI exit 1, numerical ones to exit 2
    assert issubclass(NotContraction, InputError)
    assert issubclass(Unstable, NumericalError)
    assert issubclass(InputError, OUSpectraError)
    assert issubclass(NumericalError, OUSpectraError)
    assert not issubclass(NumericalError, InputError)
