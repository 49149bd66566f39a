"""Gramians, steady-state covariance, and the RKHS-restricted semigroup.

The closed forms used as oracles:

* classical 1-d model (A=-1, Q=1): Q_t = (1 - e^{-2t})/2, Q_inf = 1/2,
  ||S_mu(t)|| = e^{-t}, K(t) = 1/(1 - e^{-2t});
* Jordan model (A=[[-1,1],[0,-1]], Q=diag(0,1)): Q_inf =
  [[1/4,1/4],[1/4,1/2]], ||S_mu(t)|| = e^{-t}(t + sqrt(t^2+1));
* oscillator model (A=[[0,1],[-1,-1]], Q=diag(0,1)): Q_inf = I/2, solved
  by hand from A X + X A' + Q = 0.

The quadrature oracle integrates e^{sA} Q e^{sA'} directly with quad_vec,
independent of the block-exponential route used by gramian_t; the Kronecker
oracle solves the vectorized steady-state equation, independent of the
squared Smith route used by gramian_inf.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.linalg import expm

from ou_spectra import cli, gramian, spectra
from ou_spectra.config import DEFAULT
from ou_spectra.errors import (
    AsymmetricQ,
    CriteriaDisagree,
    DimensionMismatch,
    EigFailure,
    ExpmFailure,
    InputError,
    NotPSD,
    NumericalError,
    RangeNotInvariant,
    Unstable,
)
from ou_spectra.gramian import (
    OUModel,
    contractivity_constant,
    controllability_rank,
    flow,
    gramian_inf,
    gramian_report,
    gramian_t,
    invertibility_equivalence_report,
    is_stable,
    rank_psd,
    rkhs_factor,
    smu_matrix,
    spectral_abscissa,
    strong_feller_check,
    validate,
)
from ou_spectra.ou_operator import (mehler_matrix, poly_basis,
                                    verify_second_quantization)
from ou_spectra.verification import HORIZONS, random_stable_model

from euler_maruyama import psd_sqrt
import curve_reference
from report_reference import to_jsonable


def smu_norm(model, t):
    # ||S_mu(t)||, the curve kernel on one horizon
    return gramian._curve(model, [t])[0][0]


def ratio_sup(P, R, rank_tol):
    # sup <Px, x> / <Rx, x> over range(R), the stacked kernel on one R
    return float(gramian._ratio_sups(P, np.asarray(R, dtype=float)[None],
                                     rank_tol)[0])


CLASSICAL = validate([[-1.0]], [[1.0]], name="classical")
JORDAN = validate([[-1.0, 1.0], [0.0, -1.0]],
                  [[0.0, 0.0], [0.0, 1.0]], name="jordan")
OSCILLATOR = validate([[0.0, 1.0], [-1.0, -1.0]],
                      [[0.0, 0.0], [0.0, 1.0]], name="oscillator")
DEGENERATE = validate([[-1.0, 0.0], [0.0, -1.0]],
                      [[0.0, 0.0], [0.0, 1.0]], name="degenerate")

JORDAN_Q_INF = np.array([[0.25, 0.25], [0.25, 0.5]])
OSCILLATOR_Q_INF = np.eye(2) / 2.0


def quadrature_gramian(model, t):
    """Independent oracle: direct integration of the covariance integrand."""
    val, _ = quad_vec(
        lambda s: expm(s * model.A) @ model.Q @ expm(s * model.A).T,
        0.0, t, epsabs=1e-13, epsrel=1e-13)
    return val


def kronecker_lyapunov(A, Q):
    """Independent oracle for Q_inf: dense LU on the d^2 x d^2 system
    ``(kron(A, I) + kron(I, A)) vec(X) = -vec(Q)``.  O(d^6) time and O(d^4)
    memory, so it stays here, as a cross-check of the Smith solver, and not
    in the library."""
    d = A.shape[0]
    eye = np.eye(d)
    lhs = np.kron(A, eye) + np.kron(eye, A)
    return np.linalg.solve(lhs, -Q.ravel()).reshape(d, d)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        validate([[-1.0, 0.0]], [[1.0]])
    with pytest.raises(DimensionMismatch):
        validate([[-1.0]], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(AsymmetricQ):
        validate(-np.eye(2), [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotPSD):
        validate([[-1.0]], [[-0.5]])
    for A, Q in (([[np.nan]], [[1.0]]), ([[-1.0]], [[np.inf]])):
        with pytest.raises(InputError) as info:
            validate(A, Q)
        assert str(info.value) == "model matrices must have finite entries"


def test_validate_symmetrizes_roundoff():
    q = np.array([[1.0, 0.3 + 1e-14], [0.3, 2.0]])
    m = validate(-np.eye(2), q)
    assert_allclose(m.Q, m.Q.T, atol=0)


def test_model_immutable():
    with pytest.raises(ValueError):
        CLASSICAL.A[0, 0] = 5.0


def test_stability_predicates():
    assert is_stable(CLASSICAL)
    assert spectral_abscissa(CLASSICAL) == -1.0
    assert not is_stable(validate([[0.5]], [[1.0]]))
    # oscillator eigenvalues are (-1 +- i sqrt(3))/2
    assert_allclose(spectral_abscissa(OSCILLATOR), -0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# finite-time Gramian
# ---------------------------------------------------------------------------

def test_gramian_t_classical_closed_form():
    for t in (0.1, 0.5, 1.0, 3.0):
        want = (1.0 - math.exp(-2.0 * t)) / 2.0
        assert_allclose(gramian_t(CLASSICAL, t), [[want]], atol=1e-14)


def test_gramian_t_zero_and_negative():
    assert_allclose(gramian_t(JORDAN, 0.0), np.zeros((2, 2)), atol=0)
    with pytest.raises(InputError):
        gramian_t(JORDAN, -0.5)


HORIZON_GUARDS = [
    ("flow", flow, None),  # any sign
    ("gramian_t", gramian_t, False),
    ("smu_matrix", smu_matrix, False),
    ("contractivity_constant", contractivity_constant, True),
    ("strong_feller_check", strong_feller_check, True),
    ("gramian_report", gramian_report, False),
    ("mehler_matrix",
     lambda model, t: mehler_matrix(model, t, poly_basis(2, 2)), False),
    ("verify_second_quantization",
     lambda model, t: verify_second_quantization(model, t, 2), False),
]


@pytest.mark.parametrize("name,call,positive", HORIZON_GUARDS,
                         ids=[g[0] for g in HORIZON_GUARDS])
def test_horizon_guards_refuse_bad_t_as_input(name, call, positive):
    # a NaN or infinite horizon is bad input, refused before any
    # exponential is formed; flow takes a t of any sign
    bad = [math.nan, math.inf, -math.inf]
    if positive is None:
        for t in bad:
            with pytest.raises(InputError) as info:
                call(JORDAN, t)
            assert str(info.value) == "%s needs a finite t, got %g" % (name, t)
        call(JORDAN, -1.0)
        return
    for t in bad + [-1.0] + ([0.0] if positive else []):
        with pytest.raises(InputError) as info:
            call(JORDAN, t)
        want = "%s needs a finite t %s 0, got %g" % (
            name, ">" if positive else ">=", t)
        assert str(info.value) == want
    call(JORDAN, 0.5 if positive else 0.0)


def test_gramian_t_refuses_an_overflowing_product():
    # for A = 200 the block exponential is finite at t = 2 (its entries
    # are near e^400), but Q_t = G F' is near e^800 and overflows; the
    # refusal names Q_t and t, and no overflow warning is left behind
    fast = validate([[200.0]], [[1.0]], name="fast")
    want = math.expm1(2 * 200.0 * 1.5) / (2 * 200.0)
    assert_allclose(gramian_t(fast, 1.5), [[want]], rtol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpmFailure, match=r"^Q_t .* at t=2:"):
            gramian_t(fast, 2.0)


def test_flow_refusal_names_the_drift_and_t():
    with np.errstate(over="ignore"), pytest.raises(
            ExpmFailure, match=r"at t=1, for M = the drift A$"):
        flow(validate([[800.0]], [[1.0]]), 1.0)


def test_the_prime_keeps_each_finite_prefix_and_raises_nothing():
    # for A = 200, exp(tA) overflows at t = 5 and Q_t at t = 2: the prime
    # keeps the horizons before each, with no warning, and the consumer
    # that asks for a later one forms and refuses it itself
    fast = validate([[200.0]], [[1.0]], name="fast")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gramian._prime_transitions(fast, HORIZONS)
        flows, grams = fast._transitions
        assert list(flows) == [0.1, 0.3, 0.5, 0.7, 1.0, 2.0]
        assert list(grams) == [0.1, 0.3, 0.5, 0.7, 1.0]
        with pytest.raises(ExpmFailure, match=r"^Q_t .* at t=2:"):
            gramian_t(fast, 2.0)
        with pytest.raises(ExpmFailure, match=r"at t=5, for M = the drift"):
            flow(fast, 5.0)


def test_gramian_t_matches_quadrature_oracle():
    rng = np.random.default_rng(42)
    models = [CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE]
    for _ in range(3):
        a = rng.standard_normal((2, 2)) - 2.0 * np.eye(2)
        r = rng.standard_normal((2, 2))
        models.append(validate(a, r @ r.T))
    for model in models:
        for t in (0.3, 1.0, 2.5):
            got = gramian_t(model, t)
            want = quadrature_gramian(model, t)
            assert_allclose(got, want, atol=1e-10)
            # symmetric PSD by construction
            assert_allclose(got, got.T, atol=0)
            assert np.linalg.eigvalsh(got).min() >= -1e-12


# ---------------------------------------------------------------------------
# metamorphic relations of Q_t
# ---------------------------------------------------------------------------

#: The bundled models and four random draws.
METAMORPHIC_MODELS = (
    [cli.load_model(name) for name in cli.list_bundled()]
    + [random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
       for seed, d, kind in ((0, 2, "real"), (1, 3, "complex"),
                             (2, 3, "defective"), (3, 4, "real"))])
METAMORPHIC_T = (0.1, 1.0, 5.0)


def _noise_scaled(k):
    """``(model, t, Q_t, Q_t of the model with Q scaled by 2^k, over 2^k)``
    over the metamorphic models and horizons."""
    c = 2.0 ** k
    for model in METAMORPHIC_MODELS:
        scaled = validate(model.A, c * model.Q)
        for t in METAMORPHIC_T:
            yield model, t, gramian_t(model, t), gramian_t(scaled, t) / c


def test_gramian_t_is_bitwise_invariant_under_a_change_of_time_unit():
    # (2^k A, 2^k Q) at t / 2^k has the Van Loan block t [[A, Q], [0, -A']]
    # bit for bit
    for model in METAMORPHIC_MODELS:
        for k in (-3, -1, 1, 3, 10):
            c = 2.0 ** k
            scaled = validate(c * model.A, c * model.Q)
            for t in METAMORPHIC_T:
                assert (gramian_t(scaled, t / c).tobytes()
                        == gramian_t(model, t).tobytes()), (model.name, k, t)


@pytest.mark.parametrize("k", [-20, -7, -1, 1, 7, 20])
def test_gramian_t_is_linear_in_the_noise(k):
    for model, t, want, got in _noise_scaled(k):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
            (model.name, t)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6, take the scale out "
                   "of Q: the Van Loan block holds Q at its own scale, so "
                   "Q_t of 2^k Q is 2^k Q_t only to roundoff, and from "
                   "k = 200 not even to 1e-7")
def test_gramian_t_is_bitwise_linear_in_the_noise():
    for k in (-600, -20, 20, 300, 600):
        for model, t, want, got in _noise_scaled(k):
            assert got.tobytes() == want.tobytes(), (model.name, k, t)


# ---------------------------------------------------------------------------
# steady-state Gramian
# ---------------------------------------------------------------------------

def test_gramian_inf_closed_forms():
    assert_allclose(gramian_inf(CLASSICAL), [[0.5]], atol=1e-14)
    assert_allclose(gramian_inf(JORDAN), JORDAN_Q_INF, atol=1e-14)
    assert_allclose(gramian_inf(OSCILLATOR), OSCILLATOR_Q_INF, atol=1e-14)
    assert_allclose(gramian_inf(DEGENERATE), np.diag([0.0, 0.5]),
                    atol=1e-14)


def test_gramian_inf_lyapunov_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
        r = rng.standard_normal((3, 3))
        m = validate(a, r @ r.T)
        q_inf = gramian_inf(m)
        res = m.A @ q_inf + q_inf @ m.A.T + m.Q
        assert np.abs(res).max() <= 1e-10 * (1.0 + np.abs(m.Q).max())


def test_gramian_inf_requires_stability():
    with pytest.raises(Unstable):
        gramian_inf(validate([[0.1]], [[1.0]]))


@pytest.mark.parametrize("d,kind", [
    (d, kind) for d in (2, 3, 8) for kind in ("real", "complex", "defective")
] + [(16, "real"), (16, "complex"), (32, "real"), (32, "complex")])
def test_gramian_inf_matches_kronecker_oracle(d, kind):
    rng = np.random.default_rng(1000 + d)
    for _ in range(3):
        m = random_stable_model(rng, d=d, kind=kind)
        got = gramian_inf(m)
        want = kronecker_lyapunov(m.A, m.Q)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-13 * scale


def test_gramian_inf_peak_memory_at_d64():
    # The Kronecker system alone would take (64^2)^2 * 8 bytes = 134 MB.
    m = random_stable_model(np.random.default_rng(64), d=64, kind="real")
    tracemalloc.start()
    try:
        gramian_inf(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_gramian_inf_cached_read_only():
    m = validate([[-1.0, 1.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 1.0]])
    q_inf = gramian_inf(m)
    assert gramian_inf(m) is q_inf
    assert not q_inf.flags.writeable
    with pytest.raises(ValueError):
        q_inf[0, 0] = 1.0
    assert_allclose(gramian_inf(m), JORDAN_Q_INF, atol=1e-14)
    # the drift eigenvalues and the invariant factor are cached the same way
    w, fac = m.drift_eigenvalues, m.invariant_factor
    assert m.drift_eigenvalues is w and m.invariant_factor is fac
    assert not w.flags.writeable and not fac.factor.flags.writeable
    assert_allclose(w, [-1.0, -1.0], atol=0)
    want = rkhs_factor(q_inf, m.tol.rank_tol)
    assert fac.rank == want.rank == 2
    assert np.array_equal(fac.factor, want.factor)


def test_gramian_inf_failures_are_not_cached(monkeypatch):
    import ou_spectra.gramian as gr
    unstable = validate([[0.1]], [[1.0]])
    for _ in range(3):
        with pytest.raises(Unstable):
            gramian_inf(unstable)
        with pytest.raises(Unstable):
            unstable.invariant_factor
    assert "invariant_factor" not in vars(unstable)

    calls = []
    real = gr.lyapunov

    def off_by_one(a, q, eigenvalues):
        calls.append(1)
        return real(a, q, eigenvalues) + 1.0

    m = validate([[-1.0]], [[1.0]])
    monkeypatch.setattr(gr, "lyapunov", off_by_one)
    for _ in range(2):
        with pytest.raises(EigFailure, match="Lyapunov solve is unreliable"):
            gramian_inf(m)
    assert len(calls) == 2
    monkeypatch.setattr(gr, "lyapunov", real)
    assert_allclose(gramian_inf(m), [[0.5]], atol=1e-14)


def test_gramian_inf_refuses_a_nan_solve(monkeypatch):
    # every comparison with NaN is false: a NaN residual must still be
    # refused, and nothing cached
    import ou_spectra.gramian as gr
    monkeypatch.setattr(gr, "lyapunov",
                        lambda a, q, eigenvalues: np.full(a.shape, np.nan))
    m = validate([[-1.0, 1.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 1.0]])
    for _ in range(2):
        with pytest.raises(EigFailure, match="residual nan"):
            gramian_inf(m)
    assert "_q_inf" not in vars(m)


def test_gramian_inf_replaced_model_solves_again(monkeypatch):
    import ou_spectra.gramian as gr
    calls = []
    real = gr.lyapunov

    def counting(a, q, eigenvalues):
        calls.append(1)
        return real(a, q, eigenvalues)

    monkeypatch.setattr(gr, "lyapunov", counting)
    m = validate([[-1.0, 1.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 1.0]])
    first = gramian_inf(m)
    gramian_inf(m)
    assert len(calls) == 1
    loose = dataclasses.replace(m, tol=DEFAULT.with_overrides(
        {"lyap_tol": 1e-6}))
    second = gramian_inf(loose)
    assert len(calls) == 2
    assert second is not first
    assert gramian_inf(loose) is second
    assert_allclose(second, first, atol=0)
    assert loose.invariant_factor is not m.invariant_factor


def test_splitting_identity():
    for model in (CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE):
        q_inf = gramian_inf(model)
        for t in (0.2, 1.0, 4.0):
            f = flow(model, t)
            lhs = q_inf
            rhs = gramian_t(model, t) + f @ q_inf @ f.T
            assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# RKHS factor and restricted semigroup
# ---------------------------------------------------------------------------

def test_rkhs_factor_reconstructs():
    for model in (CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE):
        q_inf = gramian_inf(model)
        fac = rkhs_factor(q_inf, model.tol.rank_tol)
        assert_allclose(fac.factor @ fac.factor.T, q_inf, atol=1e-12)
        # pseudo-inverse coordinates: inv_sqrt @ factor = I_r
        assert_allclose(fac.inv_sqrt @ fac.factor, np.eye(fac.rank),
                        atol=1e-12)


def test_rkhs_rank_degenerate():
    fac = rkhs_factor(gramian_inf(DEGENERATE), 1e-10)
    assert fac.rank == 1


def test_smu_norm_classical_exact():
    for t in (0.1, 1.0, 2.0):
        assert_allclose(smu_norm(CLASSICAL, t), math.exp(-t), atol=1e-13)


def test_smu_norm_jordan_formula():
    for t in (0.25, 1.0, 3.0):
        want = math.exp(-t) * (t + math.sqrt(t * t + 1.0))
        assert_allclose(smu_norm(JORDAN, t), want, atol=1e-12)


def test_smu_is_contraction_on_random_models():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
        r = rng.standard_normal((3, 3))
        m = validate(a, r @ r.T)
        for t in (0.1, 1.0):
            assert smu_norm(m, t) <= 1.0 + 1e-10


def test_smu_semigroup_property():
    b1 = smu_matrix(JORDAN, 0.3)
    b2 = smu_matrix(JORDAN, 0.7)
    b3 = smu_matrix(JORDAN, 1.0)
    assert_allclose(b1 @ b2, b3, atol=1e-12)


def test_smu_range_leak_detected():
    # a factor from an unrelated rank-1 covariance is not flow-invariant
    # for the oscillator (rotation mixes the coordinates); it is put in
    # the cache of a fresh copy of the model
    model = dataclasses.replace(OSCILLATOR)
    model.__dict__["invariant_factor"] = rkhs_factor(np.diag([1.0, 0.0]),
                                                     1e-10)
    with pytest.raises(RangeNotInvariant):
        smu_matrix(model, 1.0)


def test_contractivity_constant_classical():
    for t in (0.2, 1.0, 2.0):
        want = 1.0 / (1.0 - math.exp(-2.0 * t))
        assert_allclose(contractivity_constant(CLASSICAL, t), want,
                        atol=1e-10)


def test_norm_identity():
    # ||S_mu(t)||^2 = 1 - 1/K(t) whenever K is finite
    for model in (CLASSICAL, JORDAN, OSCILLATOR):
        for t in (0.3, 1.0):
            k = contractivity_constant(model, t)
            n = smu_norm(model, t)
            assert math.isfinite(k)
            assert_allclose(n * n, 1.0 - 1.0 / k, rtol=1e-9)


def test_quadratic_form_ratio_inf_sentinel():
    # mass outside range(R) -> sup is infinite
    val = ratio_sup(np.eye(2), np.diag([1.0, 0.0]), 1e-10)
    assert val == math.inf


def test_contractivity_requires_positive_t():
    with pytest.raises(InputError):
        contractivity_constant(CLASSICAL, 0.0)


# ---------------------------------------------------------------------------
# the stacked curve kernel against the per-horizon loop
# ---------------------------------------------------------------------------

GRID = np.arange(1, 51) * 0.1


def _assert_same_curve(model, ts):
    try:
        want = curve_reference.curve(model, ts)
    except NumericalError as exc:
        with pytest.raises(type(exc)) as info:
            gramian._curve(model, ts)
        assert str(info.value) == str(exc)
        return False
    got = [np.array(x) for x in gramian._curve(model, ts)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return True


@pytest.mark.parametrize("name", ["classical_1d", "degenerate_2d",
                                  "hypoelliptic_2d", "jordan_omega1"])
def test_curve_matches_the_loop_on_bundled_models(name):
    model = cli.load_model(name)
    _assert_same_curve(model, cli.parse_t_grid("0.1:5.0:0.1"))
    if name == "degenerate_2d":  # Q_inf and Q_t keep rank 1 of 2
        assert model.invariant_factor.rank == 1


def test_curve_matches_the_loop_where_the_rank_of_q_t_changes():
    # below t ~ 5e-5 the hypoelliptic Q_t keeps rank 1 and K is infinite:
    # one stack holds both rank splits
    model = cli.load_model("hypoelliptic_2d")
    ts = [1e-6, 1e-4, 3e-5, 1e-3, 1.0]
    assert _assert_same_curve(model, ts)
    K = gramian._curve(model, ts)[1]
    assert np.isinf(K).tolist() == [True, False, True, False, False]


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 32])
@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
def test_curve_matches_the_loop_on_random_models(d, kind):
    # two draws each; where the Lyapunov guard refuses one (defective,
    # d = 32, seed 32: ROADMAP item 19), the kernel must refuse it alike
    done = [_assert_same_curve(random_stable_model(
        np.random.default_rng(seed), d=d, kind=kind), GRID)
        for seed in (0, d)]
    assert done[0]


def test_one_horizon_calls_match_the_loop():
    for model in (CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE):
        _assert_same_curve(model, [2.5])
        for t in (0.1, 2.5):
            Qt = gramian_t(model, t)
            want = curve_reference.ratio_sup(gramian_inf(model), Qt, 1e-10)
            assert smu_norm(model, t) == curve_reference.smu_norm(model, t)
            assert (smu_matrix(model, t).tobytes()
                    == curve_reference.smu_matrix(model, t).tobytes())
            assert contractivity_constant(model, t) == want
            assert ratio_sup(gramian_inf(model), Qt, 1e-10) == want


def test_ratio_sup_matches_the_loop_on_hand_built_pairs():
    # an R that is symmetrized before its split, a P of zeros, a negative
    # P (the sup is floored at 0), an R of rank 0, mass outside range(R),
    # and a compression on a rank-2 range
    rng = np.random.default_rng(4)
    G = rng.standard_normal((3, 3))
    skew = 1e-3 * (G - G.T)
    cases = [(G @ G.T, G @ G.T + skew), (-np.zeros((3, 3)), np.eye(3)),
             (-np.eye(3), np.eye(3)),
             (np.eye(3), np.zeros((3, 3))), (np.eye(3), np.diag([1, 1, 0.0])),
             (np.diag([1, 1, 0.0]), np.diag([2, 1, 0.0]) + skew)]
    for P, R in cases:
        got = ratio_sup(P, R, 1e-10)
        want = curve_reference.ratio_sup(P, R, 1e-10)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (P, R)
    assert ratio_sup(-np.eye(3), np.eye(3), 1e-10) == 0.0


def test_curve_of_a_rank_0_factor_makes_no_flow(monkeypatch):
    # Q = 0: Q_inf = 0 keeps no direction, so every norm and K is 0
    model = validate([[-1.0, 0.0], [0.0, -2.0]], np.zeros((2, 2)))
    monkeypatch.setattr(gramian, "_flows", None)
    assert gramian._curve(model, GRID[:3]) == ([0.0] * 3, [0.0] * 3)
    assert smu_matrix(model, 1.0).shape == (0, 0)
    assert smu_norm(model, 1.0) == 0.0


def test_curve_spans_several_stacks(monkeypatch):
    model = random_stable_model(np.random.default_rng(5), d=3, kind="real")
    sizes = []
    real = gramian._ratio_sups

    def counting(P, Rs, rank_tol):
        sizes.append(len(Rs))
        return real(P, Rs, rank_tol)

    monkeypatch.setattr(gramian, "_ratio_sups", counting)
    gramian._curve(model, GRID)
    assert sizes == [50]  # a d <= 32 grid stacks whole
    sizes.clear()
    monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", 3 * 3 * 3)
    _assert_same_curve(model, GRID)
    assert sizes == [3] * 16 + [2]


def _refusal(fn):
    """The type and text of what ``fn()`` raises."""
    with pytest.raises((ExpmFailure, RangeNotInvariant)) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("leak_at, nan_at, which", [
    (1.0, None, None),          # a leak alone
    (None, 1.5, "flow"),        # the flow's exponential alone
    (None, 1.5, "gram"),        # the Van Loan block's alone
    (1.5, 1.5, "gram"),         # the leak comes before Q_t
    (1.5, 1.5, "flow"),         # the flow comes before its leak
    (1.6, 1.5, "gram"),         # an earlier Q_t comes before a later leak
    (1.5, 1.6, "flow"),         # an earlier leak comes before a later flow
])
@pytest.mark.parametrize("stack", [None, 4])
def test_curve_refuses_at_the_loops_first_horizon(monkeypatch, leak_at,
                                                    nan_at, which, stack):
    # DEGENERATE keeps only e2: a flow with an e2 -> e1 entry leaks.  The
    # faults go into the stacked kernels, which the reference reaches
    # through flow and gramian_t, one horizon at a time; a NaN goes into
    # each stacked exponential as the refusal's scan in _expm receives it.
    real_flows, real_expm = gramian._flows, gramian.expm
    d = DEGENERATE.dim

    def leaking_flows(model, ts):
        F, refusal = real_flows(model, ts)
        if leak_at is not None:
            F = F.copy()
            F[ts[:len(F)] >= leak_at - 1e-12, 0, 1] += 0.5
        return F, refusal

    def failing_expm(M, ts):
        E = real_expm(M, ts)
        if nan_at is not None and len(M) == (d if which == "flow"
                                             else 2 * d):
            E[ts >= nan_at - 1e-12] = np.nan
        return E

    monkeypatch.setattr(gramian, "_flows", leaking_flows)
    monkeypatch.setattr(gramian, "expm", failing_expm)
    if stack is not None:
        monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", stack * d * d)
    want = _refusal(lambda: curve_reference.curve(DEGENERATE, GRID))
    assert _refusal(lambda: gramian._curve(DEGENERATE, GRID)) == want
    first = min(t for t in (leak_at, nan_at) if t is not None)
    assert ("t=%g" % first) in want[1]


# ---------------------------------------------------------------------------
# strong Feller / rank diagnostics
# ---------------------------------------------------------------------------

# Stays as the oracle for the controllability staircase: the rank of the
# Kalman block row [B, AB, ..., A^(d-1) B] by one SVD.  Its columns grow or
# shrink like powers of A, so it is only trustworthy at small d.
def controllability_matrix(A, B):
    """Kalman block row ``[B, AB, ..., A^(d-1) B]``."""
    A = np.asarray(A, dtype=float)
    blocks = [np.asarray(B, dtype=float)]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


@pytest.mark.parametrize("rank_tol", [0.25, 2.0**-30])
def test_rank_cut_drops_value_at_threshold(rank_tol):
    # A value exactly at rank_tol * max is dropped by all five cuts, and
    # the next float above it is kept: the comparison is strict.
    for tiny, want in ((rank_tol, 1), (np.nextafter(rank_tol, 1.0), 2)):
        Q = np.diag([1.0, tiny])
        assert np.array_equal(np.linalg.eigvalsh(Q), [tiny, 1.0])
        assert rkhs_factor(Q, rank_tol).rank == want
        assert rank_psd(Q, rank_tol) == want
        assert controllability_rank(np.zeros((2, 2)), Q, rank_tol) == want
        # mass off the kept range makes the supremum infinite
        ratio = ratio_sup(np.eye(2), Q, rank_tol)
        assert (ratio == math.inf) == (want == 1)
    # Kalman matrix [B, 0B] with B = psd_sqrt(diag(1, rank_tol^2))
    Q = np.diag([1.0, rank_tol ** 2])
    C = controllability_matrix(np.zeros((2, 2)), psd_sqrt(Q))
    assert np.array_equal(np.linalg.svd(C, compute_uv=False),
                          [1.0, rank_tol])
    assert controllability_rank(np.zeros((2, 2)), Q, rank_tol) == 1
    assert controllability_rank(np.zeros((2, 2)), np.eye(2), rank_tol) == 2


def test_rank_cuts_agree_next_to_the_cut():
    # an eigenvalue within 5e-7 relative of the cut: the eigvalsh and eigh
    # drivers of LAPACK round it differently, and on this seed their two
    # cuts gave ranks 3 and 2; the four rank routines share one split
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lam = [1.0, 0.3, 1e-10 * (1 + rng.uniform(-5e-7, 5e-7)), 0.0]
    M = (U * lam) @ U.T
    r = rank_psd(M, 1e-10)
    assert rkhs_factor(M, 1e-10).rank == r
    assert controllability_rank(np.zeros((4, 4)), M, 1e-10) == r
    # the direction next to the cut is inside the range iff it is kept
    u = U[:, 2:3]
    ratio = ratio_sup(u @ u.T, M, 1e-10)
    assert (ratio < math.inf) == (r == 3)


def test_rank_and_controllability():
    assert rank_psd(gramian_inf(DEGENERATE), 1e-10) == 1
    assert controllability_rank(OSCILLATOR.A, OSCILLATOR.Q, 1e-10) == 2
    assert controllability_rank(DEGENERATE.A, DEGENERATE.Q, 1e-10) == 1


def test_strong_feller_check():
    assert strong_feller_check(OSCILLATOR, 1.0)
    assert strong_feller_check(JORDAN, 0.01)
    assert not strong_feller_check(DEGENERATE, 1.0)


def test_strong_feller_disagreement_raises(monkeypatch):
    import ou_spectra.gramian as gr
    monkeypatch.setattr(gr, "controllability_rank", lambda *a, **k: 0)
    with pytest.raises(CriteriaDisagree):
        strong_feller_check(OSCILLATOR, 1.0)


def test_gramian_report_computes_q_t_once(monkeypatch):
    import ou_spectra.gramian as gr
    calls = []
    real = gr.gramian_t

    def counting(model, t):
        calls.append(t)
        return real(model, t)

    monkeypatch.setattr(gr, "gramian_t", counting)
    rep = gramian_report(OSCILLATOR, 1.0)
    assert calls == [1.0]
    assert rep.rank_Q_t == 2 and rep.strong_feller
    monkeypatch.setattr(gr, "controllability_rank", lambda *a, **k: 0)
    with pytest.raises(CriteriaDisagree):
        gramian_report(OSCILLATOR, 1.0)


def test_gramian_report_at_t_0(monkeypatch):
    # Q_0 = 0: rank 0 and no strong Feller property, by convention; the
    # rank cross-check needs t > 0 and is not run
    def no_cross_check(*args):
        raise AssertionError("rank cross-check at t = 0")

    monkeypatch.setattr(gramian, "_checked_rank", no_cross_check)
    rep = gramian_report(OSCILLATOR, 0.0)
    assert rep.t == 0.0 and np.array_equal(rep.Q_t, np.zeros((2, 2)))
    assert rep.rank_Q_t == 0 and rep.strong_feller is False
    assert rep.rank_Q_inf == 2 and rep.q_inf_invertible
    assert_allclose(rep.Q_inf, OSCILLATOR_Q_INF, atol=1e-14)


def _chain(d, c):
    """-1 on the diagonal and +1 on the subdiagonal of the first c
    coordinates, -2 elsewhere: e_1 reaches exactly the first c."""
    A = -2.0 * np.eye(d)
    for i in range(c):
        A[i, i] = -1.0
        if i:
            A[i, i - 1] = 1.0
    return A


def _kalman_oracle_rank(A, Q, rank_tol=1e-10):
    B = rkhs_factor(Q, rank_tol).factor
    s = np.linalg.svd(controllability_matrix(A, B), compute_uv=False)
    return int((s > rank_tol * s.max(initial=0.0)).sum())


def _block_uncontrollable(rng, kind, Q11, d):
    """(A, Q): A block upper triangular with a leading block the size of
    Q11, Q driving only that block, both in a random orthogonal basis, so
    the controllable subspace has the dimension of Q11 when Q11 reaches
    all of its block."""
    k = len(Q11)
    A = np.zeros((d, d))
    A[:k, :k] = random_stable_model(rng, d=k, kind=kind).A
    A[k:, k:] = random_stable_model(rng, d=d - k, kind=kind).A
    A[:k, k:] = rng.standard_normal((k, d - k))
    Q = np.zeros((d, d))
    Q[:k, :k] = Q11
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return V @ A @ V.T, V @ Q @ V.T


@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
def test_staircase_matches_kalman_oracle_small_d(kind):
    # the Kalman SVD of the rank-cut factor agrees, and Q -> cQ changes
    # nothing
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for d in range(1, 7):
            A = random_stable_model(rng, d=d, kind=kind).A
            for k in range(1, d + 1):
                G = rng.standard_normal((d, k))
                Q = G @ G.T
                r = controllability_rank(A, Q)
                assert r == _kalman_oracle_rank(A, Q)
                for c in (1e-6, 1e6):
                    assert controllability_rank(A, c * Q) == r


@pytest.mark.parametrize("d", [5, 6, 16, 32])
def test_staircase_single_input_defective_chain(d):
    # A lower bidiagonal Jordan block with a nonzero subdiagonal is reached
    # from any input with a nonzero first entry.  The Kalman SVD drops a
    # direction on some of these already at d = 5, which is why it is only
    # an oracle at small d.
    rng = np.random.default_rng(d)
    A = random_stable_model(rng, d=d, kind="defective").A
    v = rng.standard_normal(d)
    assert controllability_rank(A, np.outer(v, v)) == d


@pytest.mark.parametrize("d", [4, 8, 16, 32])
def test_staircase_block_uncontrollable_known_rank(d):
    for k in sorted({1, d // 4, d // 2, d - 1}):
        for kind in ("real", "complex", "defective"):
            rng = np.random.default_rng([d, k])
            Q11 = random_stable_model(rng, d=k).Q
            A, Q = _block_uncontrollable(rng, kind, Q11, d)
            assert controllability_rank(A, Q) == k
            for c in (1e-6, 1e6):
                assert controllability_rank(A, c * Q) == k
            if k <= 4:
                v = rng.standard_normal(k)
                A, Q = _block_uncontrollable(rng, kind, np.outer(v, v), d)
                assert controllability_rank(A, Q) == k
    # the single-input chain, in place and in a random orthogonal basis
    V, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    A = _chain(d, d // 2)
    Q = np.zeros((d, d))
    Q[0, 0] = 1.0
    assert controllability_rank(A, Q) == d // 2
    assert controllability_rank(V @ A @ V.T, V @ Q @ V.T) == d // 2


@pytest.mark.parametrize("d", [16, 32])
def test_staircase_weak_kept_directions_do_not_leak(d):
    # Q drives half the space with eigenvalues graded down to 1e-7 of the
    # largest.  The eigenvector of a kept eigenvalue lam is known only to
    # about eps * lam_max / lam, so an unweighted first A21 block lets that
    # roundoff pass the cut and climb into the undriven block; weighted by
    # the factor it stays below.  The limit moves, it does not vanish: at
    # 1e-8 about half of such models still over-count.
    k = d // 2
    for kind in ("real", "complex", "defective"):
        for seed in range(3):
            rng = np.random.default_rng([seed, d])
            W, _ = np.linalg.qr(rng.standard_normal((k, k)))
            Q11 = (W * np.logspace(0, -7, k)) @ W.T
            A, Q = _block_uncontrollable(rng, kind, Q11, d)
            assert controllability_rank(A, Q) == k


def test_staircase_later_cut_scales_with_the_pair():
    # e_1 drives e_2 through A[1, 0] = c, and the second step keeps c only
    # above rank_tol * ||[B, A]||_F = 0.25 * hypot(1, c), i.e. c > 0.258,
    # whatever the size of Q
    for c, want in ((0.22, 1), (0.3, 2)):
        A = np.array([[0.0, 0.0], [c, 0.0]])
        for q in (1e-6, 1.0, 1e6):
            assert controllability_rank(A, np.diag([q, 0.0]), 0.25) == want


@pytest.mark.parametrize("d", [48, 64, 128])
def test_staircase_full_rank_at_large_d(d):
    rng = np.random.default_rng(d)
    for kind in ("real", "complex", "defective"):
        m = random_stable_model(rng, d=d, kind=kind)
        assert controllability_rank(m.A, m.Q) == d


def test_criteria_disagree_names_rank_gap():
    # The Gramian of a single-input chain decays geometrically: Q_t keeps
    # only 5 of the 8 reachable directions at t = 1, both Kalman routes
    # keep 8, and the message says where each cut fell.
    d = 16
    A = _chain(d, 8)
    Q = np.zeros((d, d))
    Q[0, 0] = 1.0
    assert _kalman_oracle_rank(A, Q) == controllability_rank(A, Q) == 8
    with pytest.raises(CriteriaDisagree) as info:
        strong_feller_check(validate(A, Q), 1.0)
    msg = str(info.value)
    assert "rank(Q_t) = 5 but the controllability rank is 8" in msg
    num = r"([-+0-9.e]+)"
    gaps = re.findall(r"smallest kept %s \(cut %s\), largest dropped %s "
                      r"\(cut %s\)" % (num, num, num, num), msg)
    assert len(gaps) == 2
    (kept, kcut, dropped, dcut), stair = [[float(x) for x in g]
                                          for g in gaps]
    assert kept > kcut == dcut > dropped
    assert_allclose([kept, dropped, kcut], [1.5e-8, 3.7e-11, 4.9e-11],
                    rtol=0.05)
    assert stair[0] > stair[1] and stair[2] <= stair[3]


def test_gramian_report_branches():
    rep = gramian_report(OSCILLATOR, 1.0)
    assert rep.strong_feller
    assert rep.q_inf_invertible
    assert rep.rank_Q_inf == 2

    rep = gramian_report(DEGENERATE, 1.0)
    assert not rep.strong_feller
    assert not rep.q_inf_invertible
    assert rep.rank_Q_inf == 1

    unstable = validate([[1.0]], [[1.0]])
    rep = gramian_report(unstable, 1.0)
    assert rep.Q_inf is None
    assert rep.rank_Q_inf is None

    d = to_jsonable(gramian_report(OSCILLATOR, 1.0))
    assert d["strong_feller"] is True


def test_invertibility_equivalence_bundled():
    for model in (CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE):
        rep = invertibility_equivalence_report(model)
        assert rep.equivalent is True

    unstable = validate([[1.0]], [[1.0]])
    assert invertibility_equivalence_report(unstable).equivalent is None
