"""Fault injection on ``contraction_suite`` and ``model_suite``: each check
they run fails when one route it reads returns a wrong number (ROADMAP
item 27).

A passing check is evidence only if a wrong number in one of its routes
would make it fail (mutation analysis; DeMillo, Lipton & Sayward, IEEE
Computer 11(4), 1978).  Each witness plants one fault in a route that the
suite calls through the ``verification`` or ``gramian`` module -- for the
contraction suite the lifts of ``second_quantization`` or ``dgamma``, and
``product_set``, which it reaches through the fold of ``tensor_fock`` --
never in the check code, and pins the exact set of checks that then fail.
The model suite reads every transition from one table
(``gramian._Transitions``), so a witness on a transition faults one read
of the table; the Mehler-lift witness faults the restricted flow that
``_mehler_lift`` takes, which the semigroup law reads from the same read.

The second contraction S of ``random_contraction`` feeds only
``telescoping_bound`` and ``sym_power_homomorphism``, and both hold for
every S, so no choice of S can be a witness.  ``truncation_stability``
bounds the extra level's spectrum by ``||T||^(levels + 1)``, so its
witness has to move that spectrum by more than the bound's slack.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ou_spectra import gramian, ou_operator, tensor_fock, verification
from ou_spectra.cli import load_model
from ou_spectra.gramian import validate
from ou_spectra.spectra import SpectrumSet
from ou_spectra.tensor_fock import multi_indices

LEVELS = 3

#: Two contractions whose checks all pass unfaulted: a diagonalizable one
#: at d = 2 and a triangular defective one at d = 3.
CONTRACTIONS = {
    "diagonalizable": verification.random_contraction(
        np.random.default_rng(11), d=2, kind="diagonalizable"),
    "defective": verification.random_contraction(
        np.random.default_rng(12), d=3, kind="defective"),
}

_second_quantization = verification.second_quantization
_product_set = tensor_fock.product_set
_dgamma = verification.dgamma


def _each_level(fault):
    """A lift whose level n is ``fault(M, level, n, symmetric, top)`` of
    the true one, for the truncation of M at level ``top``."""
    def lift(M, top, *, symmetric=True, **kwargs):
        trunc = _second_quantization(M, top, symmetric=symmetric, **kwargs)
        return replace(trunc, levels=tuple(
            fault(np.asarray(M), level, n, symmetric, top)
            for n, level in enumerate(trunc.levels)))
    return "second_quantization", lift


def _tensor_levels_scaled(first, factor):
    def fault(M, level, n, symmetric, top):
        return level * factor if not symmetric and n >= first else level
    return _each_level(fault)


def _monomial_coordinates(M, level, n, symmetric, top):
    # D A D^-1 with D = diag sqrt(alpha!): the spectrum and the products
    # of the occupation coordinates, but another norm
    if not symmetric:
        return level
    w = np.sqrt([math.prod(map(math.factorial, alpha))
                 for alpha in multi_indices(len(M), n)])
    return w[:, None] * level / w[None, :]


def _tensor_rows_reversed(M, level, n, symmetric, top):
    # a permuted output index: the norm of the level, another spectrum
    return level[::-1] if not symmetric and n >= 1 else level


def _vacuum_dropped(M, level, n, symmetric, top):
    return np.zeros_like(level) if symmetric and n == 0 else level


def _extra_level_shifted(M, level, n, symmetric, top):
    # the eigenvalues of the level past LEVELS move by 3, out of the unit
    # disk that holds every other point
    if symmetric and n == top == LEVELS + 1:
        return level + 3.0 * np.eye(len(level))
    return level


def _transposed_symmetric_lift(M, top, *, symmetric=True, **kwargs):
    # Gamma(M') = Gamma(M)' has the norm and the spectrum of Gamma(M), but
    # Gamma((TS)') differs from Gamma(T') Gamma(S') unless T and S commute
    if symmetric:
        M = np.asarray(M).T
    return _second_quantization(M, top, symmetric=symmetric, **kwargs)


def _shifted_dgamma(M, n):
    G = _dgamma(M, n)
    return G + 1e-6 * np.eye(len(G))


def _shifted_product_set(base, n):
    return SpectrumSet(_product_set(base, n).points + 1e-6)


#: For each check: a witness (the route and its faulty stand-in) and every
#: check that the fault flips, the same on both contractions.
WITNESSES = {
    "tensor_norm_law": (
        _tensor_levels_scaled(2, 1 + 1e-8), {"tensor_norm_law"}),
    "sym_norm_law": (
        _each_level(_monomial_coordinates), {"sym_norm_law"}),
    # level 1 of the bound holds with equality, ||T - S|| <= ||T - S||
    "telescoping_bound": (
        _tensor_levels_scaled(1, 1 + 1e-8),
        {"telescoping_bound", "tensor_norm_law"}),
    "sym_power_homomorphism": (
        ("second_quantization", _transposed_symmetric_lift),
        {"sym_power_homomorphism"}),
    "tensor_sym_product_spectra": (
        _each_level(_tensor_rows_reversed), {"tensor_sym_product_spectra"}),
    "dgamma_sum_spectrum": (
        ("dgamma", _shifted_dgamma), {"dgamma_sum_spectrum"}),
    "second_quantization_spectrum": (
        _each_level(_vacuum_dropped), {"second_quantization_spectrum"}),
    "truncation_stability": (
        _each_level(_extra_level_shifted), {"truncation_stability"}),
}


def _failed(T):
    return {c.name for c in verification.contraction_suite(T, levels=LEVELS)
            if not c.passed}


@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
def test_every_check_has_a_witness(kind):
    checks = verification.contraction_suite(CONTRACTIONS[kind],
                                            levels=LEVELS)
    assert [c.name for c in checks if not c.passed] == []
    assert {c.name for c in checks} == set(WITNESSES)


@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
@pytest.mark.parametrize("check", sorted(WITNESSES))
def test_the_witness_flips_its_check(monkeypatch, check, kind):
    (route, fault), flips = WITNESSES[check]
    monkeypatch.setattr(verification, route, fault)
    assert _failed(CONTRACTIONS[kind]) == flips


@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
def test_a_shifted_product_set_flips_both_product_checks(monkeypatch, kind):
    monkeypatch.setattr(tensor_fock, "product_set", _shifted_product_set)
    assert _failed(CONTRACTIONS[kind]) == {
        "tensor_sym_product_spectra", "second_quantization_spectrum"}


# --- model_suite -------------------------------------------------------------

#: Models whose checks all pass unfaulted, at degree 3.  Each is built
#: afresh per run: a model caches its Q_inf and factor on first use, so a
#: shared one would keep a faulted value, or dodge the fault.
MODELS = {
    "hypoelliptic_2d": lambda: load_model("hypoelliptic_2d"),
    "jordan_omega1": lambda: load_model("jordan_omega1"),
    "complex_3": lambda: verification.random_stable_model(
        np.random.default_rng(3), d=3, kind="complex"),
    "defective_3": lambda: verification.random_stable_model(
        np.random.default_rng(3), d=3, kind="defective"),
}


def _around(module, name, fault):
    """The route `name` of `module` replaced by ``fault(real, *args)``."""
    real = getattr(module, name)
    return module, name, lambda *args, **kwargs: fault(real, *args,
                                                       **kwargs)


def _scaled(factor):
    return lambda real, *args, **kwargs: real(*args, **kwargs) * factor


def _above_degree_diagonal_scaled(factor):
    # the heat term's entries, which map a degree n to n - 2, scaled: the
    # degree-diagonal blocks, so L's spectrum and the degrees that its
    # eigenvectors reach, are untouched
    def fault(real, model, basis):
        out = []
        for idx, B in zip(basis.parity_classes, real(model, basis)):
            g = basis.degrees[idx]
            out.append(np.where(g[:, None] < g[None, :], B * factor, B))
        return tuple(out)
    return fault


def _gramians_indefinite(real, table, ts):
    # every Q_t less the same multiple of I, just past the smallest
    # eigenvalue of the first: the differences are untouched
    G = real(table, ts)
    shift = np.linalg.eigvalsh(G[0])[0] + 1e-9 * np.abs(G).max()
    return G - shift * np.eye(G.shape[-1])


def _gramians_reversed(real, table, ts):
    return real(table, ts)[::-1]


def _q_inf_nudged(real, model):
    # below the splitting identity's bound, above the factorization's
    Qi = real(model)
    return Qi + 1e-9 * np.abs(Qi).max() * np.eye(model.dim)


def _norms_to(top):
    # the restricted flows of the grid rescaled so that their largest norm
    # is `top`
    def fault(real, table, ts):
        S = real(table, ts)
        return S * (top / np.linalg.norm(S, 2, axis=(-2, -1)).max())
    return fault


def _at_squared_time(real, table, t):
    # a read of the table at t^2: the one at t = 1 is right
    return real(table, t * t)


def _blocks_shifted(real, model, basis):
    return tuple(B + 1e-3 * np.eye(len(B)) for B in real(model, basis))


def _mehler_of_more_noise(real, F, Q_t, basis):
    # a true semigroup, of a model whose invariant measure is wider: Q_t
    # is linear in Q
    return real(F, 1.01 * Q_t, basis)


def _lift_of_a_scaled_flow(real, B, P_meh, chaos):
    # the restricted flow that the lift takes
    return real(B * (1.0 + 1e-6), P_meh, chaos)


def _second_layer_scaled(real, model, basis):
    # the degree-2 rows of the even class block of Phi^-1
    chaos = real(model, basis)
    Psi = chaos.frame_inv[0].copy()
    Psi[chaos.basis.class_slice(2)] *= 1.0 + 1e-3
    return replace(chaos, frame_inv=(Psi,) + chaos.frame_inv[1:])


def _wrong_measure(scale, shear=0.0):
    """The chaos frame of a wrong invariant measure: the factor of
    ``Q_inf`` scaled by `scale`, its last column moved by `shear` times
    its first."""
    def fault(real, model):
        factor = real(model)
        S = np.eye(model.dim)
        S[0, -1] += shear
        return replace(factor, factor=factor.factor @ S * scale)
    return fault


ALL_CHAOS = {"invariant_measure_fixed_mean", "chaos_covariance_permanent",
             "generator_chaos_block_diagonal",
             "second_quantization_mehler_lift"}

#: For each check: a witness (the module, the route and its faulty
#: stand-in) and every check that the fault flips, the same on every model.
MODEL_WITNESSES = {
    "gramian_t_quadrature_agreement": (
        _around(gramian._Transitions, "gramians", _scaled(1.0 + 1e-7)),
        {"gramian_t_quadrature_agreement", "splitting_identity"}),
    "gramian_t_psd": (
        _around(gramian._Transitions, "gramians", _gramians_indefinite),
        {"gramian_t_psd", "gramian_t_quadrature_agreement",
         "strong_feller_rank_agreement", "invertibility_equivalence",
         "splitting_identity", "norm_identity_vs_rayleigh_quotient"}),
    "gramian_monotone_in_t": (
        _around(gramian._Transitions, "gramians", _gramians_reversed),
        {"gramian_monotone_in_t", "gramian_t_quadrature_agreement",
         "splitting_identity", "norm_identity_vs_rayleigh_quotient"}),
    "strong_feller_rank_agreement": (
        _around(gramian, "controllability_rank", lambda real, *a, **k: 0),
        {"strong_feller_rank_agreement"}),
    "invertibility_equivalence": (
        _around(gramian, "rank_psd",
                lambda real, *a, **k: real(*a, **k) - 1),
        {"invertibility_equivalence"}),
    "splitting_identity": (
        _around(gramian._Transitions, "flows", _scaled(1.0 + 1e-6)),
        {"splitting_identity"}),
    "gramian_dominated_by_steady_state": (
        _around(verification, "_q_inf", _scaled(0.5)),
        {"gramian_dominated_by_steady_state", "splitting_identity",
         "rkhs_factorization", "norm_identity_vs_rayleigh_quotient"}),
    "rkhs_factorization": (
        _around(verification, "_q_inf", _q_inf_nudged),
        {"rkhs_factorization"}),
    "restricted_flow_contraction": (
        _around(gramian._Transitions, "restricted", _norms_to(1.0 + 1e-6)),
        {"restricted_flow_contraction", "restricted_flow_strict_contraction",
         "norm_identity_vs_rayleigh_quotient"}),
    "restricted_flow_strict_contraction": (
        _around(gramian._Transitions, "restricted", _norms_to(1.0)),
        {"restricted_flow_strict_contraction",
         "norm_identity_vs_rayleigh_quotient"}),
    "restricted_flow_semigroup_law": (
        _around(gramian._Transitions, "smu_matrix", _at_squared_time),
        {"restricted_flow_semigroup_law"}),
    "norm_identity_vs_rayleigh_quotient": (
        _around(gramian, "_ratio_sups", _scaled(1.001)),
        {"norm_identity_vs_rayleigh_quotient"}),
    "galerkin_spectrum_lattice_match": (
        _around(verification, "galerkin_blocks", _blocks_shifted),
        {"galerkin_spectrum_lattice_match",
         "generator_chaos_block_diagonal"}),
    "transition_semigroup_law": (
        _around(gramian._Transitions, "transition", _at_squared_time),
        {"transition_semigroup_law"}),
    "invariant_measure_fixed_mean": (
        _around(verification, "mehler_matrix", _mehler_of_more_noise),
        {"invariant_measure_fixed_mean", "second_quantization_mehler_lift"}),
    "chaos_covariance_permanent": (
        _around(verification, "chaos_decomposition", _second_layer_scaled),
        {"chaos_covariance_permanent", "generator_chaos_block_diagonal",
         "second_quantization_mehler_lift"}),
    # only the frame's form of L reads the heat term's entries
    "generator_chaos_block_diagonal": (
        _around(verification, "galerkin_blocks",
                _above_degree_diagonal_scaled(1.0 + 1e-7)),
        {"generator_chaos_block_diagonal"}),
    "second_quantization_mehler_lift": (
        _around(verification, "_mehler_lift", _lift_of_a_scaled_flow),
        {"second_quantization_mehler_lift"}),
}

#: A wrong invariant measure under the chaos frame, through the factor
#: that ``chaos_decomposition`` reads: the four checks that read the
#: frame against the semigroup or the generator flip on every model.  The
#: frame's own identities, which ``Phi^-1 Phi = I`` alone decides, would
#: not (``test_chaos_layers_mu_orthogonal_negative_control``).
WRONG_MEASURES = {
    "scaled_1.001": (_wrong_measure(1.001), ALL_CHAOS),
    "scaled_1.1": (_wrong_measure(1.1), ALL_CHAOS),
    "sheared_1e-3": (_wrong_measure(1.0, 1e-3), ALL_CHAOS),
}


def _below_degree_diagonal_added(amplitude):
    """Blocks of L with ``amplitude * max(max |L|, 1)`` added to each entry
    in a row of degree n + 2 and a column of degree n of each parity
    class, where neither the drift nor the heat term has one: L is no
    longer block triangular in the degree grading, so both its spectrum
    and the degrees that its eigenvectors reach move."""
    def fault(real, model, basis):
        blocks = real(model, basis)
        shift = amplitude * max(
            max(np.abs(B).max(initial=0.0) for B in blocks), 1.0)
        out = []
        for idx, B in zip(basis.parity_classes, blocks):
            g = basis.degrees[idx]
            out.append(np.where(g[:, None] == g[None, :] + 2, B + shift, B))
        return tuple(out)
    return fault


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_wrong_L_below_its_degree_diagonal_flips_the_lattice_match(
        monkeypatch, model):
    # verify computes no eigenvector, so the degrees that they reach are
    # checked through the spectrum: the lattice match and the frame's
    # generator check see this fault on every model
    monkeypatch.setattr(*_around(verification, "galerkin_blocks",
                                 _below_degree_diagonal_added(1e-5)))
    assert _model_failed(MODELS[model]()) == {
        "galerkin_spectrum_lattice_match", "generator_chaos_block_diagonal"}


def _model_failed(model):
    return {c.name for c in verification.model_suite(model, degree=3)
            if not c.passed}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_model_check_has_a_witness(model):
    checks = verification.model_suite(MODELS[model](), degree=3)
    assert [c.name for c in checks if not c.passed] == []
    assert {c.name for c in checks} == set(MODEL_WITNESSES)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("check", sorted(MODEL_WITNESSES))
def test_the_witness_flips_its_model_check(monkeypatch, check, model):
    (module, route, fault), flips = MODEL_WITNESSES[check]
    monkeypatch.setattr(module, route, fault)
    assert _model_failed(MODELS[model]()) == flips


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("measure", sorted(WRONG_MEASURES))
def test_a_wrong_measure_flips_the_chaos_checks(monkeypatch, measure,
                                                model):
    fault, flips = WRONG_MEASURES[measure]
    monkeypatch.setattr(*_around(ou_operator, "nondegenerate_factor", fault))
    assert _model_failed(MODELS[model]()) == flips


@pytest.mark.parametrize("model", sorted(MODELS))
def test_the_generator_identity_holds_to_roundoff(model):
    # the headroom of generator_chaos_block_diagonal: its witness is a
    # 1e-7 fault, and unfaulted it reads 3.3e-16 to 2.4e-15 here
    (check,) = [c for c in verification.model_suite(MODELS[model](),
                                                    degree=3)
                if c.name == "generator_chaos_block_diagonal"]
    assert check.residual <= 1e-13


def test_the_pairing_check_sees_its_witness_at_every_noise_scale():
    # the permanent is taken in the whitened coordinates of Q_inf and
    # relative to the draws' norms, so neither the clean residual nor the
    # witness's reading moves with the scale of the noise: each read of
    # 1 + 1e-3 on the second layer stays near 2.6e-3, against 1e-9
    A = [[-1.0, 0.3], [0.0, -2.0]]
    Q0 = np.array([[1.0, 0.2], [0.2, 0.5]])
    basis = ou_operator.poly_basis(2, 2)
    seen = []
    for k in (-500, -250, -100, 0, 100, 250, 500, 800):
        model = validate(A, 2.0 ** k * Q0)
        chaos = ou_operator.chaos_decomposition(model, basis)
        crooked = _second_layer_scaled(lambda *_: chaos, model, basis)
        clean, seen_k = (verification._chaos_covariance_residual(
            model, frame, np.random.default_rng(1))
            for frame in (chaos, crooked))
        assert clean <= 1e-11, k
        assert seen_k > 1e-9, k
        seen.append(seen_k)
    assert max(seen) <= 1e-2 and min(seen) >= 1e-3


#: The drift and noise of the noise-scale sweeps.
SWEEP_A = [[-1.0, 0.3], [0.0, -2.0]]
SWEEP_Q = np.array([[1.0, 0.2], [0.2, 0.5]])


def _quadrature_readings(k):
    """The quadrature check's residual on the sweep model with noise
    ``2^k SWEEP_Q``, from the true Gramians and from its witness's."""
    model = validate(SWEEP_A, 2.0 ** k * SWEEP_Q)
    ts = verification.T_GRID
    oracle = verification._quadrature_gramians(model, ts)
    table = gramian._Transitions(model, ts)
    (_, _, witness), _ = MODEL_WITNESSES["gramian_t_quadrature_agreement"]
    return tuple(verification._quadrature_residual(
        dict(zip(ts, gramians(table, ts))), oracle)
        for gramians in (gramian._Transitions.gramians, witness))


@pytest.mark.parametrize("k", [-500, -250, -100, 0, 100, 250, 500, 800])
def test_the_quadrature_check_sees_its_witness_at_every_noise_scale(k):
    # the residual is relative to max |Q_t|, so the witness's 1 + 1e-7
    # reads 1e-7 from 2^-500 to 2^100; divided by 1 + max |Q_t| it read
    # 3.4e-8 at k = 0 and 1.6e-158 at k = -500.  From k = 250 the true
    # Gramians are wrong too (the next test), and the witness reads
    # 1.6e-7, inf and NaN: it fails at every scale
    _, seen = _quadrature_readings(k)
    assert not seen <= 1e-8, seen
    if k <= 100:
        assert abs(seen - 1e-7) <= 1e-9, seen


@pytest.mark.parametrize("k", [
    -500, -250, -100, 0, 100,
    *(pytest.param(k, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 6, take the scale out of Q: the "
        "Van Loan block holds Q at its own scale, so Q_t is off by 5.5e-8 "
        "relative at k = 250 and is not finite at k = 500"))
      for k in (250, 500, 800))])
def test_the_quadrature_check_passes_clean_at_every_noise_scale(k):
    clean, _ = _quadrature_readings(k)
    assert clean <= 1e-11, clean
