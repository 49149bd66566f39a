"""Galerkin generator, Mehler semigroup, chaos layers, and the path
sampler the tests hold ``Q_t`` to.

Hand oracles used below:

* classical model (A=-1, Q=1, d=1): L x^n = n(n-1)/2 x^(n-2) - n x^n,
  P(t) x^2 = e^{-2t} x^2 + Q_t, invariant variance 1/2, orthonormal layer
  polynomials proportional to He_n(x sqrt 2);
* Gaussian moments for Sigma = [[2,1],[1,3]] by Wick pairing, which pin
  the moment-generating-function oracle of ``gaussian_moments``:
  E[x^2]=2, E[xy]=1, E[y^2]=3, E[x^4]=12, E[x^3 y]=6, E[x^2 y^2]=8,
  E[x y^3]=9, E[y^4]=27 (e.g. E[x^2y^2] = 2*3 + 2*1^2 = 8);
* the Euler scheme for the classical model has exact variance
  dt * (1 - (1-dt)^(2n)) / (1 - (1-dt)^2) after n steps.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, expm

from ou_spectra import ou_operator
from ou_spectra.cli import load_model
from ou_spectra.config import DEFAULT
from ou_spectra.errors import (DegenerateMeasure, DimensionMismatch,
                               InputError, SizeCap)
from ou_spectra.gramian import (
    flow,
    gramian_inf,
    gramian_t,
    smu_matrix,
    validate,
)
from ou_spectra.ou_operator import (
    assemble_L,
    chaos_decomposition,
    galerkin_blocks,
    mehler_matrix,
    poly_basis,
    verify_second_quantization,
)
from ou_spectra.spectra import SpectrumSet, _eigvals, hausdorff
from ou_spectra.tensor_fock import (heat_block, substitution_levels, sym_dim,
                                   sym_power)
from ou_spectra.verification import random_stable_model

from dense_reference import (dense, dense_chaos, dense_frame, dense_graded,
                             lifted, mehler_at)
from euler_maruyama import InvalidStep, euler_mean_cov, simulate_paths
from gaussian_moments import mgf_gram
from generator_exp import dense_generator_exp, generator_exp
from occupation import position
from report_reference import to_jsonable

CLASSICAL = validate([[-1.0]], [[1.0]], name="classical")
JORDAN = validate([[-1.0, 1.0], [0.0, -1.0]],
                  [[0.0, 0.0], [0.0, 1.0]], name="jordan")
OSCILLATOR = validate([[0.0, 1.0], [-1.0, -1.0]],
                      [[0.0, 0.0], [0.0, 1.0]], name="oscillator")
DEGENERATE = validate([[-1.0, 0.0], [0.0, -1.0]],
                      [[0.0, 0.0], [0.0, 1.0]], name="degenerate")

WICK_ORACLE = {
    (0, 0): 1.0, (1, 0): 0.0, (0, 1): 0.0,
    (2, 0): 2.0, (1, 1): 1.0, (0, 2): 3.0,
    (3, 0): 0.0, (2, 1): 0.0,
    (4, 0): 12.0, (3, 1): 6.0, (2, 2): 8.0, (1, 3): 9.0, (0, 4): 27.0,
}


# ---------------------------------------------------------------------------
# polynomial plumbing
# ---------------------------------------------------------------------------

def test_poly_basis_graded_order():
    b = poly_basis(2, 2)
    assert b.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert b.dim == 6
    assert b.degree_slice(1) == slice(1, 3)
    assert b.degree_slice(2) == slice(3, 6)


def test_poly_basis_degrees():
    b = poly_basis(3, 4)
    assert b.degrees.tolist() == [sum(alpha) for alpha in b.monomials]
    assert not b.degrees.flags.writeable
    for n in range(b.N + 1):
        assert (b.degrees[b.degree_slice(n)] == n).all()


def _monomial(basis, alpha):
    """Coefficient vector of ``x^alpha``."""
    c = np.zeros(basis.dim)
    c[position(basis, alpha)] = 1.0
    return c


def _polynomial_to_json(basis, coeffs):
    """Nonzero coefficients keyed by comma-joined exponents."""
    return {",".join(str(a) for a in alpha): float(c)
            for alpha, c in zip(basis.monomials, coeffs) if c != 0}


def _polynomial_from_json(data, basis=None):
    """Inverse of `_polynomial_to_json`, as ``(basis, coeffs)``; infers
    the smallest basis when none is given."""
    parsed = {tuple(int(s) for s in key.split(",")): float(val)
              for key, val in data.items()}
    if basis is None:
        d = len(next(iter(parsed)))
        basis = poly_basis(d, max(sum(a) for a in parsed))
    coeffs = np.zeros(basis.dim)
    for alpha, val in parsed.items():
        coeffs[position(basis, alpha)] = val
    return basis, coeffs


def test_polynomial_json_round_trip():
    b = poly_basis(2, 3)
    c = np.zeros(b.dim)
    c[position(b, (2, 1))] = 1.5
    c[position(b, (0, 0))] = -2.0
    data = json.loads(json.dumps(_polynomial_to_json(b, c)))
    _, g = _polynomial_from_json(data, basis=b)
    assert_allclose(g, c, atol=0)
    # basis inference from the dict alone
    inferred, h = _polynomial_from_json(data)
    assert inferred is b
    assert_allclose(h, c, atol=0)


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

def test_mgf_gram_wick_oracle():
    # E[x^a x^b] on the degree-2 basis reaches every moment of degree <= 4
    b = poly_basis(2, 2)
    G = mgf_gram(b, np.array([[2.0, 1.0], [1.0, 3.0]]))
    for i, alpha in enumerate(b.monomials):
        for j, beta in enumerate(b.monomials):
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            if gamma in WICK_ORACLE:
                assert G[i, j] == WICK_ORACLE[gamma]


# ---------------------------------------------------------------------------
# Galerkin matrix of the generator
# ---------------------------------------------------------------------------

def test_assemble_L_classical_columns():
    # L x^n = n(n-1)/2 * x^(n-2) - n x^n
    b = poly_basis(1, 5)
    L = assemble_L(CLASSICAL, b)
    for n in range(6):
        col = L[:, position(b, (n,))]
        want = np.zeros(b.dim)
        want[position(b, (n,))] = -n
        if n >= 2:
            want[position(b, (n - 2,))] = n * (n - 1) / 2.0
        assert_allclose(col, want, atol=0)


def test_assemble_L_drift_hand_oracle():
    # pure drift A = [[0,1],[0,0]] means <Ax, Df> = x2 d/dx1, so
    # L(x1) = x2, L(x2) = 0, L(x1 x2) = x2^2
    m = validate([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    b = poly_basis(2, 2)
    L = assemble_L(m, b)
    want = np.zeros(b.dim)
    want[position(b, (0, 1))] = 1.0
    assert_allclose(L[:, position(b, (1, 0))], want, atol=0)
    assert_allclose(L[:, position(b, (0, 1))], 0.0, atol=0)
    want = np.zeros(b.dim)
    want[position(b, (0, 2))] = 1.0
    assert_allclose(L[:, position(b, (1, 1))], want, atol=0)


def _sympy_generator(model, basis):
    # independent oracle: sympy differentiates every monomial, and the
    # integer coefficients it returns are weighted by A and Q here
    xs = sympy.symbols("x0:%d" % basis.d)
    L = np.zeros((basis.dim, basis.dim))
    for col, alpha in enumerate(basis.monomials):
        f = sympy.prod([x ** a for x, a in zip(xs, alpha)])
        for i in range(basis.d):
            f_i = sympy.diff(f, xs[i])
            for j in range(basis.d):
                for weight, term in ((model.A[i, j], xs[j] * f_i),
                                     (0.5 * model.Q[i, j],
                                      sympy.diff(f_i, xs[j]))):
                    for monom, coeff in sympy.Poly(term, *xs).terms():
                        L[position(basis, monom), col] += weight * int(coeff)
    return L


@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_assemble_L_matches_sympy_differentiation(d, kind):
    model = random_stable_model(np.random.default_rng(20 + d), d=d,
                                kind=kind)
    want = _sympy_generator(model, poly_basis(d, 4))
    for N in range(5):
        b = poly_basis(d, N)
        ref = want[:b.dim, :b.dim]
        assert np.abs(assemble_L(model, b) - ref).max() \
            <= 1e-13 * np.abs(ref).max()


def test_assemble_L_is_mehler_derivative():
    # (P(h) - I)/h -> L as h -> 0, on each bundled model
    for model in (CLASSICAL, JORDAN, OSCILLATOR):
        b = poly_basis(model.dim, 3)
        L = assemble_L(model, b)
        h1, h2 = 1e-5, 1e-6
        e1 = np.abs((dense(mehler_at(model, h1, b), b) - np.eye(b.dim))
                    / h1 - L).max()
        e2 = np.abs((dense(mehler_at(model, h2, b), b) - np.eye(b.dim))
                    / h2 - L).max()
        assert e1 <= 1e-3
        assert e2 <= 0.2 * e1  # O(h) convergence, not just closeness


def test_galerkin_spectrum_classical():
    b = poly_basis(1, 6)
    ev = np.sort(np.linalg.eigvals(assemble_L(CLASSICAL, b)).real)
    assert_allclose(ev, [-6, -5, -4, -3, -2, -1, 0], atol=1e-9)


# ---------------------------------------------------------------------------
# Mehler semigroup
# ---------------------------------------------------------------------------

def test_mehler_classical_squares():
    b = poly_basis(1, 2)
    f = _monomial(b, (2,))
    for t in (0.3, 1.0):
        g = dense(mehler_at(CLASSICAL, t, b), b) @ f
        qt = gramian_t(CLASSICAL, t)[0, 0]
        # P(t) x^2 = e^{-2t} x^2 + Q_t
        assert_allclose(g[position(b, (2,))], math.exp(-2 * t), atol=1e-12)
        assert_allclose(g[position(b, (0,))], qt, atol=1e-12)


def test_mehler_cross_term_jordan():
    # P(t)(x1 x2) = (Fx)_1 (Fx)_2 + (Q_t)_12 with F = e^{tA}
    b = poly_basis(2, 2)
    f = _monomial(b, (1, 1))
    t = 0.7
    g = dense(mehler_at(JORDAN, t, b), b) @ f
    F = expm(t * JORDAN.A)
    qt = gramian_t(JORDAN, t)
    want = np.zeros(b.dim)
    want[position(b, (0, 0))] = qt[0, 1]
    want[position(b, (2, 0))] = F[0, 0] * F[1, 0]
    want[position(b, (1, 1))] = F[0, 0] * F[1, 1] + F[0, 1] * F[1, 0]
    want[position(b, (0, 2))] = F[0, 1] * F[1, 1]
    assert_allclose(g, want, atol=1e-13)


def test_mehler_identity_and_errors():
    b = poly_basis(1, 3)
    f = _monomial(b, (3,))
    assert_allclose(dense(mehler_at(CLASSICAL, 0.0, b), b) @ f, f,
                    atol=0)
    with pytest.raises(InputError):
        mehler_at(CLASSICAL, -1.0, b)


def test_mehler_matrix_at_zero_checks_the_basis():
    with pytest.raises(DimensionMismatch):
        mehler_matrix(np.eye(2), np.zeros((2, 2)), poly_basis(3, 2))
    for model in (CLASSICAL, JORDAN, OSCILLATOR):
        b = poly_basis(model.dim, 6)
        assert all(np.array_equal(P, np.eye(len(P)))
                   for P in mehler_at(model, 0.0, b))


def test_mehler_semigroup_law():
    for model in (CLASSICAL, JORDAN, OSCILLATOR, DEGENERATE):
        b = poly_basis(model.dim, 3)
        for p1, p2, p3 in zip(*(mehler_at(model, t, b)
                                for t in (0.4, 0.6, 1.0))):
            assert_allclose(p1 @ p2, p3, atol=1e-11)


def test_mehler_matches_expm_of_galerkin():
    for model in (CLASSICAL, JORDAN, OSCILLATOR):
        b = poly_basis(model.dim, 4)
        L = assemble_L(model, b)
        assert_allclose(dense(mehler_at(model, 0.5, b), b),
                        expm(0.5 * L), atol=1e-10)


# ---------------------------------------------------------------------------
# chaos decomposition
# ---------------------------------------------------------------------------

def _projection(chaos, n):
    """The n-th layer projection as a dense matrix, from its factor pair
    on its parity class."""
    Phi_n, Psi_n = chaos.layer(n)
    idx = chaos.basis.parity_classes[n % 2]
    P = np.zeros((chaos.basis.dim,) * 2)
    P[np.ix_(idx, idx)] = Phi_n @ Psi_n
    return P


def test_chaos_classical_hermite():
    # orthonormal degree-2 polynomial for N(0, 1/2) is (2x^2 - 1)/sqrt(2);
    # the projection of x^2 onto layer 2 is x^2 - 1/2
    b = poly_basis(1, 4)
    chaos = chaos_decomposition(CLASSICAL, b)
    f = _monomial(b, (2,))
    proj = _projection(chaos, 2) @ f
    want = np.zeros(b.dim)
    want[position(b, (2,))] = 1.0
    want[position(b, (0,))] = -0.5
    assert_allclose(proj, want, atol=1e-12)


def _frame_models():
    """The models ``verify`` builds a chaos frame on: the bundled ones
    with a nondegenerate measure, and one ``random_stable_model`` draw of
    each kind at d = 2 and 3."""
    return [load_model(name) for name in
            ("classical_1d", "hypoelliptic_2d", "jordan_omega1")] + [
        random_stable_model(np.random.default_rng(d), d=d, kind=kind)
        for d in (2, 3) for kind in ("real", "complex", "defective")]


def _resolution_deviation(chaos):
    """Largest entry of ``sum_n P_n - I``, ``P_n P_n - P_n`` and
    ``P_n P_m`` (n != m) over the dense layer projections."""
    b = chaos.basis
    projections = [_projection(chaos, n) for n in range(b.N + 1)]
    devs = [np.abs(sum(projections) - np.eye(b.dim)).max()]
    for i, P in enumerate(projections):
        devs.append(np.abs(P @ P - P).max())
        devs += [np.abs(P @ Pother).max() for Pother in projections[i + 1:]]
    return max(devs)


def _mu_deviation(model, chaos):
    """Largest entry of ``Phi' G Phi - I``, with ``G`` the moment Gram
    matrix of the invariant measure."""
    b = chaos.basis
    G = mgf_gram(b, gramian_inf(model))
    O = dense(chaos.frame, b)
    return np.abs(O.T @ G @ O - np.eye(b.dim)).max()


def test_chaos_projections_resolve_identity():
    # the layer projections resolve the identity and are idempotent and
    # mutually orthogonal: the Newton step's Phi^-1 Phi = I, which holds
    # for any invertible Phi, so it is held here and not printed by verify
    for model in _frame_models():
        chaos = chaos_decomposition(model, poly_basis(model.dim, 3))
        assert _resolution_deviation(chaos) <= 1e-10, model.name


def test_chaos_layers_mu_orthogonal():
    # the occupation family is orthonormal in the moment Gram inner
    # product, and each layer projection is self-adjoint in it
    for model in _frame_models():
        b = poly_basis(model.dim, 3)
        chaos = chaos_decomposition(model, b)
        assert _mu_deviation(model, chaos) <= 1e-10, model.name
    b = poly_basis(2, 3)
    chaos = chaos_decomposition(JORDAN, b)
    G = mgf_gram(b, gramian_inf(JORDAN))
    O = dense(chaos.frame, b)
    # so the stored inverse is the G-adjoint of the family
    assert_allclose(dense(chaos.frame_inv, b), O.T @ G, atol=1e-10)
    for n in range(b.N + 1):
        P = _projection(chaos, n)
        assert_allclose(G @ P, P.T @ G, atol=1e-10)


def test_chaos_layers_mu_orthogonal_negative_control(monkeypatch):
    # the frame of a measure whose factor is 0.1 % too large: its
    # projections still resolve the identity to roundoff, and it fails
    # Phi' G Phi = I by 6.0e-3 on every model
    real = ou_operator.nondegenerate_factor

    def crooked(model):
        factor = real(model)
        return replace(factor, factor=factor.factor * 1.001)
    monkeypatch.setattr(ou_operator, "nondegenerate_factor", crooked)
    for model in _frame_models():
        chaos = chaos_decomposition(model, poly_basis(model.dim, 3))
        assert _resolution_deviation(chaos) <= 1e-10, model.name
        assert _mu_deviation(model, chaos) >= 5e-3, model.name


@pytest.mark.parametrize("d, N", [(1, 4), (2, 3), (3, 4), (4, 2)])
def test_position_indexes_the_monomials(d, N):
    b = poly_basis(d, N)
    assert [position(b, alpha) for alpha in b.monomials] == list(range(b.dim))
    with pytest.raises(KeyError):
        position(b, (N + 1,) + (0,) * (d - 1))


def test_chaos_rejects_degenerate():
    b = poly_basis(2, 2)
    with pytest.raises(DegenerateMeasure):
        chaos_decomposition(DEGENERATE, b)


def test_chaos_decides_degeneracy_and_conditioning_from_one_eigh(
        monkeypatch):
    model = random_stable_model(np.random.default_rng(3), d=3,
                                kind="complex")
    gramian_inf(model)  # cached on the model
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    chaos_decomposition(model, poly_basis(3, 3))
    assert calls == ["eigh"]


def test_chaos_rejects_eigenvalue_at_rank_threshold():
    # an eigenvalue exactly at rank_tol * max is cut by the relative rank
    # cut, so the measure is degenerate; the next float above it is kept.
    # With A = -I/2, Q_inf = Q exactly.
    rank_tol = DEFAULT.rank_tol
    b = poly_basis(2, 2)
    for tiny, degenerate in ((rank_tol, True),
                             (np.nextafter(rank_tol, 1.0), False)):
        model = validate(-0.5 * np.eye(2), np.diag([1.0, tiny]))
        assert np.array_equal(gramian_inf(model), np.diag([1.0, tiny]))
        if degenerate:
            with pytest.raises(DegenerateMeasure):
                chaos_decomposition(model, b)
        else:
            chaos_decomposition(model, b)
            assert model.invariant_factor.rank == 2


def test_gram_is_moment_matrix():
    # N(0, 1/2): E[x^m] = (m-1)!! / 2^(m/2) for even m, 0 for odd m; the
    # chaos family is orthonormal in that Gram matrix
    b = poly_basis(1, 3)
    chaos = chaos_decomposition(CLASSICAL, b)
    G = mgf_gram(b, gramian_inf(CLASSICAL))
    for i, a in enumerate(b.monomials):
        for j, bb in enumerate(b.monomials):
            m = a[0] + bb[0]
            want = 0.0 if m % 2 else \
                math.prod(range(m - 1, 0, -2)) / 2 ** (m / 2)
            assert_allclose(G[i, j], want, atol=1e-12)
    O = dense(chaos.frame, b)
    assert_allclose(O.T @ G @ O, np.eye(b.dim), atol=1e-10)


# The three models of the closed-form inverse: defective, complex and real
# drifts at the (d, N) shapes of the polynomial benchmark.
ORACLE_MODELS = ((1, 3, 7, "defective"), (2, 4, 6, "complex"),
                 (3, 8, 4, "real"))


def _oracle_chaos(seed, d, N, kind):
    model = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
    return model, chaos_decomposition(model, poly_basis(d, N))


def _dense_heat_exp(Q, basis):
    """``exp(1/2 Tr(Q D^2))`` as the dense sum of matrix powers."""
    H = np.zeros((basis.dim, basis.dim))
    for n in range(2, basis.N + 1):
        H[basis.degree_slice(n - 2), basis.degree_slice(n)] = heat_block(Q, n)
    term = total = np.eye(basis.dim)
    for k in range(1, basis.N // 2 + 1):
        term = term @ H / k
        total = total + term
    return total


def _dense_substitution(M, basis):
    return block_diag(*substitution_levels(M, basis.N))


@pytest.mark.parametrize("seed,d,N,kind", ORACLE_MODELS)
def test_chaos_inverse_closed_form_matches_inv(seed, d, N, kind):
    # np.linalg.inv stays as the oracle of the closed form: it shares
    # nothing with the heat series and the substitution that build Phi^-1.
    _, chaos = _oracle_chaos(seed, d, N, kind)
    eps = np.finfo(float).eps
    for Phi, Psi in zip(chaos.frame, chaos.frame_inv):
        inv = np.linalg.inv(Phi)
        assert np.abs(Psi - inv).max() <= 1e-13 * np.abs(inv).max()
        # On both sides Psi inverts Phi up to the rounding of the product
        # that checks it, |fl(X Y) - X Y| <= n * eps * |X| |Y| entrywise in
        # any summation order, with n the side of the class block; the
        # refined closed form stays below 2 % of that bound on these
        # models.
        n = len(Phi)
        for X, Y in ((Psi, Phi), (Phi, Psi)):
            assert np.all(np.abs(X @ Y - np.eye(n))
                          <= n * eps * (np.abs(X) @ np.abs(Y)))


@pytest.mark.parametrize("seed,d,N,kind", ORACLE_MODELS)
def test_graded_blocks_match_dense_route(seed, d, N, kind):
    # The dense block_diag(S) @ heat-series product is the route the graded
    # blocks replaced; it stays here as their oracle.
    model, chaos = _oracle_chaos(seed, d, N, kind)
    b = chaos.basis
    P = dense(mehler_at(model, 0.7, b), b)
    want = _dense_substitution(flow(model, 0.7), b) \
        @ _dense_heat_exp(gramian_t(model, 0.7), b)
    assert np.abs(P - want).max() <= 1e-13 * np.abs(want).max()
    norms = np.sqrt([math.prod(math.factorial(a) for a in alpha)
                     for alpha in b.monomials])
    W_inv = model.invariant_factor.factor
    Phi = _dense_substitution(np.linalg.inv(W_inv), b) \
        @ _dense_heat_exp(-np.eye(d), b) / norms
    Psi = norms[:, None] * _dense_heat_exp(np.eye(d), b) \
        @ _dense_substitution(W_inv, b)
    # the Newton step on the inverse moves it by roundoff only
    for got, want in ((chaos.frame, Phi), (chaos.frame_inv, Psi)):
        assert np.abs(dense(got, b) - want).max() \
            <= 1e-13 * np.abs(want).max()


def _class_models():
    """Models of every drift kind, with (d, N) from the polynomial
    benchmark's shapes down to N = 0 and 1."""
    return [(model, N) for model, N in
            [(CLASSICAL, 6), (JORDAN, 5), (OSCILLATOR, 1), (OSCILLATOR, 0)]
            + [(random_stable_model(np.random.default_rng(seed), d=d,
                                    kind=kind), N)
               for seed, d, N, kind in ORACLE_MODELS + ((4, 6, 4, "complex"),
                                                        (5, 8, 4, "defective"))]]


@pytest.mark.parametrize("case", range(9))
def test_class_blocks_are_the_dense_closed_forms_bit_for_bit(case):
    # before the Newton step, each class block of Phi and Phi^-1, and of the
    # Mehler matrix, has the bits of the dense closed form's block on the
    # class: the same degree-block products, written to other places
    model, N = _class_models()[case]
    b = poly_basis(model.dim, N)
    Phi, Psi = ou_operator._frame_blocks(model, b)
    want_Phi, want_Psi = dense_frame(model, b)
    P_meh = mehler_at(model, 0.7, b)
    want_meh = dense_graded(gramian_t(model, 0.7), b, left=list(
        substitution_levels(flow(model, 0.7), N)))
    assert len(Phi) == len(Psi) == len(P_meh) == len(b.parity_classes)
    for c, idx in enumerate(b.parity_classes):
        at = np.ix_(idx, idx)
        for got, want in ((Phi, want_Phi), (Psi, want_Psi),
                          (P_meh, want_meh)):
            assert got[c].tobytes() == want[at].tobytes()
    for want in (want_Phi, want_Psi, want_meh):
        assert np.all(want[_cross_parity(b)] == 0.0)


@pytest.mark.parametrize("case", range(9))
def test_class_newton_step_keeps_the_frame_bounds(case):
    # the Newton step runs per class: each class block inverts its frame
    # block within the frame's 1e-10, and agrees with the class block of
    # the dense step to roundoff
    model, N = _class_models()[case]
    b = poly_basis(model.dim, N)
    chaos = chaos_decomposition(model, b)
    Phi_d, Psi_d = dense_chaos(model, b)
    for idx, Phi, Psi in zip(b.parity_classes, chaos.frame, chaos.frame_inv):
        eye = np.eye(len(idx))
        assert np.abs(Phi @ Psi - eye).max() <= 1e-10
        assert np.abs(Psi @ Phi - eye).max() <= 1e-10
        want = Psi_d[np.ix_(idx, idx)]
        assert np.abs(Psi - want).max() <= 1e-13 * np.abs(want).max()
        assert Phi.tobytes() == Phi_d[np.ix_(idx, idx)].tobytes()


@pytest.mark.parametrize("case", range(9))
def test_layer_leading_and_lift_agree_with_the_dense_frame(case):
    # the class form of each method against the dense frame: the layer
    # pair is the dense pair on its class, with exact zeros off it; the
    # leading family is the dense one's leading block; the lift is the
    # dense Phi (+) blocks Phi^-1
    model, N = _class_models()[case]
    b = poly_basis(model.dim, N)
    chaos = chaos_decomposition(model, b)
    Phi_d, Psi_d = dense_chaos(model, b)
    scale = np.abs(Psi_d).max()
    for n in range(N + 1):
        idx = b.parity_classes[n % 2]
        rest = np.setdiff1d(np.arange(b.dim), idx)
        Phi_n, Psi_n = chaos.layer(n)
        cols = Phi_d[:, b.degree_slice(n)]
        rows = Psi_d[b.degree_slice(n)]
        assert Phi_n.tobytes() == cols[idx].tobytes()
        assert not cols[rest].any() and not rows[:, rest].any()
        assert np.abs(Psi_n - rows[:, idx]).max() <= 1e-13 * scale
    for top in range(N + 1):
        small = poly_basis(model.dim, top)
        lead = chaos.leading(top)
        assert lead.basis == small
        assert np.array_equal(dense(lead.frame, small),
                              Phi_d[:small.dim, :small.dim])
        assert np.abs(dense(lead.frame_inv, small)
                      - Psi_d[:small.dim, :small.dim]).max() <= 1e-13 * scale
    B = smu_matrix(model, 0.6)
    levels = [sym_power(B.T, n) for n in range(N + 1)]
    want = Phi_d @ block_diag(*levels) @ Psi_d
    got = lifted(chaos.lift(list(levels)))
    assert [X.shape for X in got] == [(len(idx),) * 2
                                      for idx in b.parity_classes]
    assert np.abs(dense(got, b) - want).max() <= 1e-12 * np.abs(want).max()


def test_chaos_refuses_an_overflowing_frame_level():
    # noise of scale 1e-300 whitens by 1e150: level 3 of S(W) is past the
    # float range, and is refused, named, before any product warns
    import warnings
    model = validate([[-1.0]], [[1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chaos_decomposition(model, poly_basis(1, 2))
        with pytest.raises(SizeCap) as info:
            chaos_decomposition(model, poly_basis(1, 3))
    assert str(info.value) == ("level 3 of the chaos frame's substitution "
                               "S(W) overflows the float range")


def test_factor_pair_checks_match_dense_projection_products():
    # The dense projections are what the factor pairs replaced; they stay
    # here as the oracle.  The inverse is perturbed on its block pattern so
    # that the pairs are far from a frame and its inverse.
    _, chaos = _oracle_chaos(2, 4, 6, "complex")
    b = chaos.basis
    rng = np.random.default_rng(0)
    crooked = []
    for idx, Psi in zip(b.parity_classes, chaos.frame_inv):
        deg = b.degrees[idx]
        pattern = deg[:, None] <= deg[None, :]
        crooked.append(Psi + 1e-6 * rng.standard_normal(Psi.shape) * pattern)
    crooked = replace(chaos, frame_inv=tuple(crooked))
    P = [_projection(crooked, n) for n in range(b.N + 1)]
    blocks = [sym_power(np.diag(np.arange(1.0, b.d + 1)), n)
              for n in range(b.N + 1)]
    want = dense(crooked.frame, b) @ block_diag(*blocks) \
        @ dense(crooked.frame_inv, b)
    assert np.abs(dense(lifted(crooked.lift(list(blocks))), b)
                  - want).max() \
        <= 1e-12 * np.abs(want).max()
    f = np.random.default_rng(1).standard_normal(b.dim)
    Phi_3, Psi_3 = crooked.layer(3)
    odd = b.parity_classes[1]
    assert_allclose(Phi_3 @ (Psi_3 @ f[odd]), (P[3] @ f)[odd], rtol=1e-12,
                    atol=1e-12 * np.abs(P[3] @ f).max())


def test_chaos_leading_blocks_are_the_smaller_family():
    # the family and its inverse are block upper triangular in the graded
    # order, so the degree <= N blocks are the family on the smaller basis
    model, chaos = _oracle_chaos(2, 4, 6, "complex")
    small = chaos_decomposition(model, poly_basis(4, 3))
    lead = chaos.leading(3)
    assert lead.basis == small.basis
    for got, want in zip(lead.frame, small.frame):
        assert np.array_equal(got, want)
    # the Newton step on the inverse sums its class products in another
    # order on the larger basis, so the inverses agree to roundoff
    for got, want in zip(lead.frame_inv, small.frame_inv):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# degree parity: Gamma(-I) commutes with L
# ---------------------------------------------------------------------------

def _cross_parity(basis):
    """Mask of the (row, column) pairs whose degrees differ in parity."""
    par = np.array([sum(alpha) % 2 for alpha in basis.monomials])
    return par[:, None] != par[None, :]


def _parity_models():
    return [CLASSICAL, JORDAN, OSCILLATOR] + [
        random_stable_model(np.random.default_rng(s), d=d, kind=k)
        for s, d, _, k in ORACLE_MODELS]


@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_parity_zeros_across_classes(N):
    for model in _parity_models():
        b = poly_basis(model.dim, N)
        cross = _cross_parity(b)
        classes = b.parity_classes
        assert sorted(np.concatenate(classes).tolist()) == list(range(b.dim))
        assert len(classes) == (1 if N == 0 else 2)
        chaos = chaos_decomposition(model, b)
        assert np.all(assemble_L(model, b)[cross] == 0.0)
        # the Mehler matrix, the frame, its inverse and the oracle's exp(L)
        # are held as their class blocks: the zeros between the classes
        # are not stored
        exps = generator_exp(galerkin_blocks(model, b), b, 1.0)
        for blocks in (mehler_at(model, 0.7, b), chaos.frame,
                       chaos.frame_inv, exps):
            assert [E.shape for E in blocks] == [(len(idx), len(idx))
                                                 for idx in classes]


@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_galerkin_blocks_are_principal_blocks_of_L(N):
    # each block is written from the degree blocks directly, and is bit
    # for bit the block of the whole L on its class
    for model in _parity_models():
        b = poly_basis(model.dim, N)
        L = assemble_L(model, b)
        blocks = galerkin_blocks(model, b)
        assert len(blocks) == len(b.parity_classes)
        for idx, block in zip(b.parity_classes, blocks):
            want = L[np.ix_(idx, idx)]
            assert block.shape == want.shape
            assert block.tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        galerkin_blocks(OSCILLATOR, poly_basis(3, N))


#: The model files shipped with the package, by the names the CLI takes.
BUNDLED = ("classical_1d", "degenerate_2d", "hypoelliptic_2d",
           "jordan_omega1")


@pytest.mark.parametrize("N", range(1, 7))
def test_galerkin_blocks_are_exactly_zero_below_the_degree_diagonal(N):
    # L raises no degree: the drift keeps a monomial's degree and the heat
    # term lowers it by two, so no entry maps a degree into a higher one
    models = [load_model(name) for name in BUNDLED] + [
        random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
        for seed, d in enumerate((2, 3))
        for kind in ("real", "complex", "defective")]
    for model in models:
        b = poly_basis(model.dim, N)
        for idx, block in zip(b.parity_classes, galerkin_blocks(model, b)):
            g = b.degrees[idx]
            assert not block[g[:, None] > g[None, :]].any(), model.name


# the diagonalizable models on which the dense exponential and eigensolver
# are accurate, so they can stand as the oracle of the split kernels
DIAGONALIZABLE = ((2, 3, 6, "real"), (2, 4, 5, "complex"),
                  (3, 8, 3, "real"), (4, 6, 4, "complex"))


@pytest.mark.parametrize("seed,d,N,kind", DIAGONALIZABLE)
def test_split_expm_matches_dense(seed, d, N, kind):
    # The dense scipy.linalg.expm of the whole L is the kernel the parity
    # split replaced; it stays here as the oracle of the split oracle.
    model = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
    b = poly_basis(d, N)
    L = assemble_L(model, b)
    blocks = galerkin_blocks(model, b)
    for t in (0.3, 1.0):
        dense = expm(t * L)
        split = np.zeros_like(dense)
        for idx, E in zip(b.parity_classes, generator_exp(blocks, b, t)):
            split[np.ix_(idx, idx)] = E
        assert np.abs(split - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("seed,d,N,kind", DIAGONALIZABLE)
def test_split_eig_matches_dense(seed, d, N, kind):
    # The dense eigvals of the whole L stays as the oracle of the split.
    model = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
    b = poly_basis(d, N)
    L = assemble_L(model, b)
    blocks = galerkin_blocks(model, b)
    vals = []
    for idx, block in zip(b.parity_classes, blocks):
        w, V = np.linalg.eig(block)
        # each eigenvalue keeps its own eigenvector, which is one of the
        # whole L once put on the block's class
        vecs = np.zeros((b.dim, len(w)), dtype=V.dtype)
        vecs[idx] = V
        assert np.abs(L @ vecs - vecs * w).max() <= 1e-12 * np.abs(L).max()
        vals.append(w)
    vals = np.concatenate(vals)
    assert hausdorff(SpectrumSet(vals),
                     SpectrumSet(np.linalg.eigvals(L))) <= 1e-10
    values_only = np.concatenate([_eigvals(block) for block in blocks])
    assert hausdorff(SpectrumSet(values_only), SpectrumSet(vals)) <= 1e-10


# ---------------------------------------------------------------------------
# the second quantization: generator identity, Mehler against lift, and the
# dense exp(tL) of the tests
# ---------------------------------------------------------------------------

def test_verify_second_quantization_passes():
    rep = verify_second_quantization(OSCILLATOR, 0.8, 3)
    assert rep.passed
    assert rep.max_residual <= 1e-10
    d = to_jsonable(rep)
    assert d["passed"] is True


def test_verify_second_quantization_degree_8_in_three_dims():
    # the level-8 lift has symmetric dimension 45 but Kronecker side
    # 3**8 = 6561, above the default size cap
    model = random_stable_model(np.random.default_rng(3), d=3, kind="real")
    rep = verify_second_quantization(model, 1.0, 8)
    assert rep.passed, rep
    assert rep.max_residual <= 1e-8


def _dense_deviations(model, t, N):
    """The three pairwise deviations of ``exp(tL)`` (the tests' oracle,
    with exact zeros between the parity classes), the Mehler matrix and
    the lift, taken over dense matrices: the reference of the per-class
    deviation of Mehler against lift."""
    b = poly_basis(model.dim, N)
    P_gen = dense_generator_exp(model, t, N)
    P_meh = dense(mehler_at(model, t, b), b)
    B = smu_matrix(model, t)
    P_lift = dense(lifted(chaos_decomposition(model, b).lift(
        [sym_power(B.T, n) for n in range(N + 1)])), b)
    return [float(np.abs(X - Y).max())
            for X, Y in ((P_gen, P_meh), (P_gen, P_lift), (P_meh, P_lift))]


@pytest.mark.parametrize("seed,d,N,kind", [
    (0, 2, 6, "defective"), (1, 3, 7, "real"), (2, 4, 5, "complex"),
    (0, 8, 4, "defective")])
def test_three_way_deviations_are_the_dense_ones(seed, d, N, kind):
    # the deviation of Mehler against lift is taken per parity class, with
    # the lift's product in row blocks (three at d = 8, N = 4): a maximum
    # is exact, but BLAS may round a row block's sums otherwise than the
    # whole product's, so it is the dense one to the rounding of that
    # product; the dense exp(tL) agrees with both routes exactly when the
    # generator identity and that deviation pass
    model = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
    b = poly_basis(d, N)
    eps = np.finfo(float).eps
    for t in (0.3, 1.0):
        rep = verify_second_quantization(model, t, N)
        want = _dense_deviations(model, t, N)
        scale = max(np.abs(P).max() for P in mehler_at(model, t, b))
        assert abs(rep.residual_mehler_vs_lift - want[2]) \
            <= b.dim * eps * scale
        assert rep.max_residual == max(rep.residual_generator,
                                       rep.residual_mehler_vs_lift)
        assert rep.passed == (max(want) <= rep.tol)


def test_verify_second_quantization_detects_corruption(monkeypatch):
    import ou_spectra.ou_operator as op
    real = op.mehler_matrix

    def crooked(F, Q_t, basis):
        blocks = [M.copy() for M in real(F, Q_t, basis)]
        blocks[0][0, 0] += 1e-3
        return tuple(blocks)

    monkeypatch.setattr(op, "mehler_matrix", crooked)
    rep = op.verify_second_quantization(CLASSICAL, 0.5, 3)
    assert not rep.passed


def test_verify_second_quantization_fails_on_a_nan_lift(monkeypatch):
    # Python's max(r_gen, nan) is r_gen: the worst residual must be taken
    # so that a NaN lift fails
    monkeypatch.setattr(ou_operator, "sym_power",
                        lambda T, n: np.full((sym_dim(len(T), n),) * 2,
                                             np.nan))
    rep = verify_second_quantization(OSCILLATOR, 1.0, 3)
    assert rep.residual_generator <= 1e-12
    assert math.isnan(rep.residual_mehler_vs_lift)
    assert math.isnan(rep.max_residual)
    assert not rep.passed


def test_verify_second_quantization_fails_on_a_nan_generator(monkeypatch):
    real = ou_operator.galerkin_blocks
    monkeypatch.setattr(ou_operator, "galerkin_blocks", lambda *args: [
        np.full_like(B, np.nan) for B in real(*args)])
    rep = verify_second_quantization(OSCILLATOR, 1.0, 3)
    assert math.isnan(rep.residual_generator)
    assert rep.residual_mehler_vs_lift <= 1e-12
    assert math.isnan(rep.max_residual)
    assert not rep.passed


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------

def test_euler_mean_cov_classical_closed_form():
    dt, t = 1e-3, 1.0
    n = round(t / dt)
    m, C, eff = euler_mean_cov(CLASSICAL, [1.0], t, dt)
    r = 1.0 - dt
    assert_allclose(m, [r ** n], atol=1e-14)
    want = dt * (1.0 - r ** (2 * n)) / (1.0 - r * r)
    assert_allclose(C, [[want]], atol=1e-14)
    assert_allclose(eff, t, atol=1e-12)


def test_simulate_paths_deterministic_and_consistent():
    stats1 = simulate_paths(OSCILLATOR, np.zeros(2), 0.5, 1e-2, 400, seed=7)
    stats2 = simulate_paths(OSCILLATOR, np.zeros(2), 0.5, 1e-2, 400, seed=7)
    assert_allclose(stats1.cov, stats2.cov, atol=0)
    assert_allclose(stats1.mean, stats2.mean, atol=0)
    assert stats1.n_paths == 400
    assert stats1.steps == 50

    stats3 = simulate_paths(OSCILLATOR, np.zeros(2), 0.5, 1e-2, 400, seed=8)
    assert np.abs(stats1.cov - stats3.cov).max() > 0.0


def test_simulate_paths_hits_euler_moments():
    # large-ish ensemble must sit within a few standard errors of the
    # *scheme's* exact moments (no discretization bias in this comparison)
    stats = simulate_paths(CLASSICAL, [2.0], 1.0, 1e-2, 4000, seed=21)
    m, C, _ = euler_mean_cov(CLASSICAL, [2.0], 1.0, 1e-2)
    assert np.abs(stats.mean - m) <= 4.0 * stats.stderr_mean
    assert np.abs(stats.cov - C) <= 4.0 * stats.stderr_cov


def test_simulate_paths_argument_checks():
    with pytest.raises(InvalidStep):
        simulate_paths(CLASSICAL, [0.0], 1.0, -0.1, 10, seed=0)
    with pytest.raises(InvalidStep):
        simulate_paths(CLASSICAL, [0.0], 1.0, 2.0, 10, seed=0)
    with pytest.raises(InvalidStep):
        simulate_paths(CLASSICAL, [0.0], 1.0, 0.1, 0, seed=0)
    with pytest.raises(DimensionMismatch):
        simulate_paths(CLASSICAL, [0.0, 0.0], 1.0, 0.1, 10, seed=0)
