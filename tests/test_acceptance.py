"""Acceptance gate: ten end-to-end checks, one per headline guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per item.  Each test states its tolerance inline; nothing here is tuned —
if one of these fails, the library is wrong, not the test.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.linalg import expm

from ou_spectra.cli import load_model
from ou_spectra import gramian
from ou_spectra.gramian import (
    flow,
    gramian_inf,
    gramian_report,
    gramian_t,
    invertibility_equivalence_report,
    validate,
)
from ou_spectra.ou_operator import (
    assemble_L,
    poly_basis,
    verify_second_quantization,
)
from ou_spectra.spectra import (
    LatticeWindow,
    eig,
    hausdorff,
    lattice_spectrum,
    product_set,
)
from ou_spectra.tensor_fock import (
    second_quantization,
    sym_dim,
    sym_power,
    tensor_power,
)
from ou_spectra.verification import random_contraction, random_stable_model

from dense_reference import dense, mehler_at
from euler_maruyama import euler_mean_cov, simulate_paths
from generator_exp import dense_generator_exp
from occupation import annihilation, creation

CLASSICAL = validate([[-1.0]], [[1.0]], name="classical_1d")
JORDAN = validate([[-1.0, 1.0], [0.0, -1.0]],
                  [[0.0, 0.0], [0.0, 1.0]], name="jordan_omega1")

BUNDLED = [load_model(name) for name in
           ("classical_1d", "jordan_omega1", "hypoelliptic_2d",
            "degenerate_2d")]


def test_01_restricted_semigroup_norm_closed_form():
    # ||S_mu(t)|| = e^{-t} (t + sqrt(t^2 + 1)) on the 2x2 shear model,
    # 50 grid points in (0, 5], absolute tolerance 1e-8
    worst = 0.0
    for t in np.linspace(0.1, 5.0, 50):
        got = gramian._curve(JORDAN, [float(t)])[0][0]
        want = math.exp(-t) * (t + math.sqrt(t * t + 1.0))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8, "worst deviation %.3e" % worst


def test_02_classical_spectrum_is_minus_naturals():
    # Galerkin matrix at degree 6 must have eigenvalues {0,-1,...,-6}
    # to 1e-9
    L = assemble_L(CLASSICAL, poly_basis(1, 6))
    ev = np.sort(np.linalg.eigvals(L).real)
    assert np.abs(np.linalg.eigvals(L).imag).max() <= 1e-9
    assert_allclose(ev, np.arange(-6.0, 1.0), atol=1e-9)


def test_03_lattice_formula_on_random_stable_models():
    # 10 random stable 2x2 drifts (real, complex-pair, and defective
    # spectra; diffusion full rank): the degree-4 Galerkin spectrum
    # matches the additive eigenvalue lattice to Hausdorff 1e-6
    rng = np.random.default_rng(2024)
    kinds = ["real", "complex", "defective", "real", "complex",
             "defective", "real", "complex", "defective", "real"]
    for kind in kinds:
        m = random_stable_model(rng, kind=kind)
        drift = eig(m.A)
        window = LatticeWindow(
            re_min=4.0 * float(drift.points.real.min()) - 1e-6,
            im_max=max(4.0 * float(np.abs(drift.points.imag).max()),
                       1e-6) + 1e-6,
            max_terms=4)
        predicted = lattice_spectrum(drift, window)
        computed = eig(assemble_L(m, poly_basis(2, 4)))
        dist = hausdorff(computed, predicted)
        assert dist <= 1e-6, "%s: hausdorff %.3e" % (m.name, dist)


def test_04_tensor_and_symmetric_spectra_are_products():
    # 20 random strict contractions (d <= 3, n <= 3, alternating
    # diagonalizable / Jordan-type): spectra of both powers agree with
    # each other and with the product set to Hausdorff 1e-7
    rng = np.random.default_rng(77)
    for i in range(20):
        d = 2 + (i % 2)
        n = 1 + (i % 3)
        kind = "defective" if i % 2 == 0 else "diagonalizable"
        T = random_contraction(rng, d=d, kind=kind,
                               norm=0.4 + 0.5 * rng.random())
        base = eig(T)
        prods = product_set(base, n)
        s_tensor = eig(tensor_power(T, n))
        s_sym = eig(sym_power(T, n))
        assert hausdorff(s_sym, prods) <= 1e-7
        assert hausdorff(s_tensor, prods) <= 1e-7
        assert hausdorff(s_sym, s_tensor) <= 1e-7


def test_05_ladder_operator_identities():
    # commutation residual <= 1e-12 for n <= 4; adjoint duality exact;
    # the lower bound ||a+(h) g|| >= ||h|| ||g|| on 100 random pairs
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for n in range(0, 5):
            h = rng.standard_normal(d)
            lhs = annihilation(h, n + 1) @ creation(h, n)
            if n >= 1:
                lhs = lhs - creation(h, n - 1) @ annihilation(h, n)
            res = np.abs(lhs - (h @ h) * np.eye(sym_dim(d, n))).max()
            assert res <= 1e-12
            assert np.array_equal(annihilation(h, n + 1),
                                  creation(h, n).conj().T)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(0, 4))
        h = rng.standard_normal(d)
        g = rng.standard_normal(sym_dim(d, n))
        lhs = np.linalg.norm(creation(h, n) @ g)
        rhs = np.linalg.norm(h) * np.linalg.norm(g)
        assert lhs >= rhs - 1e-12 * max(1.0, rhs)


def test_06_three_way_semigroup_consistency():
    # generator exponential, Mehler matrix, and the Fock-side lift agree
    # to 1e-8 on the classical model (N=4, t in {0.5, 1}) and the 2x2
    # shear model (N=3, t=1): the package checks the generator identity
    # and Mehler against lift, and the dense exp(tL) of the tests closes
    # the triangle
    for model, t, N in [(CLASSICAL, 0.5, 4), (CLASSICAL, 1.0, 4),
                        (JORDAN, 1.0, 3)]:
        rep = verify_second_quantization(model, t, N)
        assert rep.max_residual <= 1e-8, \
            "max residual %.3e" % rep.max_residual
        P_gen = dense_generator_exp(model, t, N)
        basis = poly_basis(model.dim, N)
        P_meh = dense(mehler_at(model, t, basis), basis)
        assert np.abs(P_gen - P_meh).max() <= 1e-8


def test_07_truncation_stability_of_fock_spectra():
    # deepening a truncated lift from 4 to 6 levels moves the embedded
    # spectrum by at most ||T||^5 (+1e-9 roundoff headroom) at ||T||=0.6
    rng = np.random.default_rng(99)
    T = random_contraction(rng, d=2, kind="diagonalizable", norm=0.6)
    assert abs(np.linalg.norm(T, 2) - 0.6) <= 1e-12
    s4 = second_quantization(T, 4).embedded_spectrum()
    s6 = second_quantization(T, 6).embedded_spectrum()
    dist = hausdorff(s4, s6)
    assert dist <= 0.6 ** 5 + 1e-9, "hausdorff %.3e" % dist


def test_08_gramian_identities_bundled_and_random():
    # Lyapunov residual <= 1e-10; splitting identity <= 1e-8;
    # block-exponential Gramian vs direct quadrature <= 1e-8
    rng = np.random.default_rng(13)
    models = list(BUNDLED)
    for kind in ("real", "complex", "defective"):
        models.append(random_stable_model(rng, kind=kind))
    for m in models:
        q_inf = gramian_inf(m)
        lyap = np.abs(m.A @ q_inf + q_inf @ m.A.T + m.Q).max()
        assert lyap <= 1e-10, "%s: lyapunov %.3e" % (m.name, lyap)
        for t in (0.3, 1.0, 3.0):
            F = flow(m, t)
            split = np.abs(q_inf - gramian_t(m, t)
                           - F @ q_inf @ F.T).max()
            assert split <= 1e-8, "%s: splitting %.3e" % (m.name, split)
            quad, _ = quad_vec(
                lambda s: expm(s * m.A) @ m.Q @ expm(s * m.A).T,
                0.0, t, epsabs=1e-12, epsrel=1e-12)
            agree = np.abs(gramian_t(m, t) - quad).max()
            assert agree <= 1e-8, "%s: quadrature %.3e" % (m.name, agree)


def test_09_feller_and_invertibility_branches():
    # the hypoelliptic model is smoothing with invertible steady-state
    # covariance; the degenerate one is neither; the rank equivalence
    # holds on every bundled model
    by_name = {m.name: m for m in BUNDLED}
    rep = gramian_report(by_name["hypoelliptic_2d"], 1.0)
    assert rep.strong_feller is True
    assert rep.q_inf_invertible is True
    rep = gramian_report(by_name["degenerate_2d"], 1.0)
    assert rep.strong_feller is False
    assert rep.rank_Q_inf == 1
    for m in BUNDLED:
        assert invertibility_equivalence_report(m).equivalent is True


def test_10_monte_carlo_covariance_reproduction():
    # 20000 Euler paths at dt=1e-3 reproduce Q_1 entrywise within
    # 5 * (standard error + discretization bias), fixed seed
    for m in (CLASSICAL, JORDAN):
        x0 = np.zeros(m.dim)
        stats = simulate_paths(m, x0, t=1.0, dt=1e-3, n_paths=20000,
                               seed=2024)
        q_t = gramian_t(m, stats.effective_t)
        _, scheme_cov, _ = euler_mean_cov(m, x0, t=1.0, dt=1e-3)
        bias = np.abs(scheme_cov - q_t)
        err = np.abs(stats.cov - q_t)
        bound = 5.0 * (stats.stderr_cov + bias)
        assert np.all(err <= bound), \
            "%s: worst ratio %.3f" % (m.name, float((err / bound).max()))
