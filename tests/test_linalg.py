"""The two dense kernels, ``expm`` and ``lyapunov``, against independent
oracles: a 50-digit ``mpmath`` exponential, ``scipy.linalg.expm`` and
``solve_continuous_lyapunov``, and the Kronecker Lyapunov solve.

The defective model below is the one on which ``scipy.linalg.expm`` squares
the upper-triangular blocks of the Galerkin generator through its
triangular shortcut and misses the even block by 27.8 (``|exp| = 1.7e3``);
the package's own kernel squares without a shortcut.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ou_spectra._linalg import expm, lyapunov
from ou_spectra.errors import EigFailure
from ou_spectra.gramian import gramian_inf
from ou_spectra.ou_operator import (galerkin_blocks, poly_basis,
                                    verify_second_quantization)
from ou_spectra.verification import random_stable_model
from test_gramian import kronecker_lyapunov


def _triangular_generator_model():
    model = random_stable_model(np.random.default_rng(2), d=2)
    assert model.name == "random-defective"
    return model


@pytest.mark.parametrize("parity", [0, 1])
def test_expm_matches_mpmath_on_triangular_generator_blocks(parity):
    block = galerkin_blocks(_triangular_generator_model(),
                            poly_basis(2, 6))[parity]
    assert not np.tril(block, -1).any()
    with mpmath.workdps(50):
        want = np.array(mpmath.expm(mpmath.matrix(block.tolist())).tolist(),
                        dtype=float)
    assert np.abs(expm(block) - want).max() <= 1e-12 * np.abs(want).max()


def test_three_way_passes_on_triangular_generator_blocks():
    rep = verify_second_quantization(_triangular_generator_model(), 1.0, 6)
    assert rep.passed, rep


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64])
@pytest.mark.parametrize("kind", ["real", "complex", "stacked"])
def test_expm_matches_scipy(n, kind):
    rng = np.random.default_rng(n)
    for norm in (0.01, 0.5, 3.0, 20.0):
        shape = (3, 2, n, n) if kind == "stacked" else (n, n)
        M = rng.standard_normal(shape)
        if kind == "complex":
            M = M + 1j * rng.standard_normal(shape)
        M *= norm / np.abs(M).sum(axis=-2).max()
        got, want = expm(M), scipy.linalg.expm(M)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), norm


def test_expm_of_a_nonfinite_matrix_is_nan():
    for bad in (np.nan, np.inf):
        M = np.array([[-1.0, bad], [0.0, -2.0]])
        assert np.isnan(expm(M)).all()


@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_lyapunov_matches_scipy_and_kronecker(kind, d):
    for seed in range(3):
        m = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
        got = lyapunov(m.A, m.Q, m.drift_eigenvalues)
        for want in (scipy.linalg.solve_continuous_lyapunov(m.A, -m.Q),
                     kronecker_lyapunov(m.A, m.Q)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("d", [8, 16, 24, 32, 48, 64])
def test_lyapunov_guard_verdict_matches_scipy_on_defective_drifts(d):
    # the residual guard of gramian_inf accepts exactly the defective
    # models on which it accepts the Bartels-Stewart solution; several
    # overflow or miss the guard on both routes
    for seed in range(5):
        m = random_stable_model(np.random.default_rng(seed), d=d,
                                kind="defective")
        X = scipy.linalg.solve_continuous_lyapunov(m.A, -m.Q)
        X = 0.5 * (X + X.T)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs(m.A @ X + X @ m.A.T + m.Q).max()
        want = bool(resid <= m.tol.lyap_tol * (1.0 + np.abs(m.Q).max()))
        try:
            gramian_inf(m)
            got = True
        except EigFailure:
            got = False
        assert got == want, seed
