"""The two dense kernels, ``expm`` and ``lyapunov``, against independent
oracles: a 50-digit ``mpmath`` exponential, ``scipy.linalg.expm`` and
``solve_continuous_lyapunov``, and the Kronecker Lyapunov solve.

The defective model below is the one on which ``scipy.linalg.expm`` squares
the upper-triangular blocks of the Galerkin generator through its
triangular shortcut and misses the even block by 27.8 (``|exp| = 1.7e3``);
the package's own kernel squares without a shortcut.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ou_spectra import _linalg
from ou_spectra._linalg import expm, lyapunov
from ou_spectra.errors import EigFailure
from ou_spectra.gramian import gramian_inf, validate
from ou_spectra.ou_operator import (galerkin_blocks, mehler_matrix,
                                    poly_basis, verify_second_quantization)
from ou_spectra.verification import random_stable_model
from dense_reference import dense
from generator_exp import dense_generator_exp
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
    # the package's two routes, and the tests' dense exp(tL) of these
    # blocks against the Mehler matrix at the same bound
    model = _triangular_generator_model()
    rep = verify_second_quantization(model, 1.0, 6)
    assert rep.passed, rep
    basis = poly_basis(2, 6)
    P_meh = dense(mehler_matrix(model, 1.0, basis), basis)
    assert np.abs(dense_generator_exp(model, 1.0, 6) - P_meh).max() \
        <= rep.tol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64])
@pytest.mark.parametrize("kind", ["real", "complex", "stacked"])
def test_expm_matches_scipy(n, kind):
    # "complex" is a drift with a pair of complex eigenvalues, "stacked" a
    # matrix at a (3, 2) array of horizons, each against its own oracle
    rng = np.random.default_rng(n)
    ts = np.linspace(0.5, 1.5, 6).reshape(3, 2) if kind == "stacked" else 1.0
    for norm in (0.01, 0.5, 3.0, 20.0):
        if kind == "complex":
            M = random_stable_model(rng, d=n, kind=kind).A
        else:
            M = rng.standard_normal((n, n))
        M = M * (norm / np.abs(M).sum(axis=0).max())
        got = expm(M, ts)
        want = np.array([scipy.linalg.expm(t * M) for t in np.ravel(ts)])
        assert got.shape == np.shape(ts) + M.shape and got.dtype == float
        got = got.reshape(want.shape)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), norm


def test_expm_refuses_complex_and_stacked_input():
    # t is cast to float and M never is, so a complex matrix or a stack
    # fails at the first product instead of being truncated
    A = random_stable_model(np.random.default_rng(3), d=3).A
    for M in (A + 1j * A, np.array([A, A])):
        with pytest.raises((TypeError, ValueError)):
            expm(M)


def test_expm_of_a_nonfinite_matrix_is_nan():
    for bad in (np.nan, np.inf):
        M = np.array([[-1.0, bad], [0.0, -2.0]])
        assert np.isnan(expm(M)).all()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 25: M @ M leaves an "
                   "off-diagonal of 6.4e234 where the exact entry is 0, so "
                   "the plan is (13, 98) and 98 squarings of 1 - eps give 0")
def test_expm_of_a_large_norm_triangular_matrix_is_its_closed_form():
    # exp([[a, b], [0, c]]) = [[e^a, b (e^c - e^a) / (c - a)], [0, e^c]]
    M = 5.0 * np.array([[-1.0, 1e250], [0.0, 1.0]])
    want = np.array([[np.exp(-5.0), 1e250 * np.sinh(5.0)],
                     [0.0, np.exp(5.0)]])
    np.testing.assert_allclose(expm(M), want, rtol=1e-12, atol=0)


#: Horizons whose exponentials of a drift take every Pade degree and
#: scalings up to 2^-3 and beyond.
EACH_HORIZONS = np.geomspace(1e-6, 50.0, 120)


def _plans_seen(monkeypatch):
    """The (m, s) of every plan made from here on."""
    seen = set()
    real = _linalg._degree_and_scaling

    def recording(B, work):
        plan = real(B, work)
        seen.add(plan)
        return plan

    monkeypatch.setattr(_linalg, "_degree_and_scaling", recording)
    return seen


def _assert_each_is_alone(A, ts):
    got = expm(A, ts)
    assert got.shape == ts.shape + A.shape and got.dtype == float
    for X, t in zip(got, ts):
        assert X.tobytes() == expm(t * A).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
def test_expm_each_is_expm_of_each_matrix_alone(monkeypatch, n, kind):
    # each horizon has the bits of its own call expm(t * A); n = 12 is
    # above the side cut and takes one slice per horizon; at n = 8 the
    # 120 horizons span two slices of _SMALL entries
    seen = _plans_seen(monkeypatch)
    A = random_stable_model(np.random.default_rng(n), d=n, kind=kind).A
    _assert_each_is_alone(A, EACH_HORIZONS)
    if n > 1:
        assert {m for m, _ in seen} == {3, 5, 7, 9, 13}, seen
        assert {s for _, s in seen} >= {0, 1, 2, 3}, seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
def test_expm_at_horizons_is_expm_of_the_scaled_stack(n, kind):
    # t_k M is formed in the first power buffer with the product t_k * M,
    # so each horizon has the bits of the scaled matrix's own
    # exponential, whatever the shape or type of t
    A = random_stable_model(np.random.default_rng(n), d=n, kind=kind).A
    for ts in (EACH_HORIZONS.reshape(4, 30), np.float64(0.7), 1.0, 2):
        want = np.array([expm(t * A) for t in np.ravel(ts)])
        got = expm(A, ts)
        assert got.shape == np.shape(ts) + A.shape and got.dtype == float
        assert got.tobytes() == want.tobytes()


def _peak_over_input(M):
    """The traced peak of a second ``expm(M)``, in units of ``M``."""
    expm(M)
    tracemalloc.start()
    try:
        expm(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / M.nbytes


@pytest.mark.parametrize("n", [65, 100])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_expm_of_a_large_matrix_holds_eight_arrays_above_its_input(n, kind):
    # the powers and the parts of the approximant take eight buffers of
    # the input's size; |A^k| for the 1-norms is taken in a free one, so
    # no ninth array is made (vectors of side n make up the rest)
    M = random_stable_model(np.random.default_rng(n), d=n, kind=kind).A
    for norm in (0.01, 30.0):
        ratio = _peak_over_input(M * (norm / np.abs(M).sum(axis=0).max()))
        assert ratio <= 8.5, (norm, ratio)


def test_expm_each_scales_a_group_that_is_not_the_whole_slice(monkeypatch):
    # two horizons with two plans, the second scaled: each group is a
    # fancy-indexed slice of the powers, scaled in place after it is made
    # contiguous (a scaling dropped there misses by about 1e-3)
    seen = _plans_seen(monkeypatch)
    M = random_stable_model(np.random.default_rng(3), d=3).A
    ts = np.array([1e-3, 20.0])
    _assert_each_is_alone(M, ts)
    assert len(seen) == 2 and max(s for _, s in seen) > 0
    want = scipy.linalg.expm(20.0 * M)
    assert np.abs(expm(M, ts)[1] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 4, 12])
def test_expm_each_gives_nan_only_where_a_matrix_fails(n):
    # a non-finite horizon and one whose powers overflow each give NaN in
    # their own slot; NaN anywhere else would hide the first failing
    # horizon of a grid
    A = random_stable_model(np.random.default_rng(n), d=n).A
    ts = np.array([0.5, np.nan, 2.0, 1e200, 3.0])
    got = expm(A, ts)
    assert np.isnan(got[[1, 3]]).all()
    for k in (0, 2, 4):
        assert got[k].tobytes() == expm(ts[k] * A).tobytes()
        assert np.isfinite(got[k]).all()


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


@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
def test_lyapunov_is_bitwise_invariant_under_power_of_two_scaling(kind):
    # the solve divides out 2^floor(log2 max|A|) first, so scaling A, Q
    # and the eigenvalues by a power of two changes no bit of X
    for d in (1, 2, 5):
        m = random_stable_model(np.random.default_rng(d), d=d, kind=kind)
        X = lyapunov(m.A, m.Q, m.drift_eigenvalues)
        for k in (-900, -7, 3, 900):
            c = 2.0 ** k
            got = lyapunov(c * m.A, c * m.Q, c * m.drift_eigenvalues)
            assert got.tobytes() == X.tobytes(), (d, k)


def test_gramian_inf_of_a_huge_drift_is_representable():
    # Q_inf = 1 / (2 * 1e300): the shift's product min|Re l| max|l| would
    # overflow without the scale taken out
    X = gramian_inf(validate([[-1e300]], [[1.0]]))
    assert abs(X[0, 0] - 5e-301) <= 1e-15 * 5e-301
