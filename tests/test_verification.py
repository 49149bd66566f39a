"""The named-check suites: they pass on honest inputs and, just as
important, they fail when fed corrupted numerics (negative control)."""

import math
from dataclasses import replace

import numpy as np
import pytest
import sympy

from ou_spectra.cli import list_bundled, load_model
from ou_spectra.gramian import validate
from ou_spectra.ou_operator import (galerkin_blocks, poly_basis,
                                    verify_second_quantization)
from ou_spectra import gramian, tensor_fock, verification
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

from ou_spectra.spectra import SpectrumSet, eig, hausdorff, product_set
from ou_spectra.tensor_fock import second_quantization

from dense_reference import mehler_at
from gaussian_moments import mgf_gram
from generator_exp import generator_exp
from occupation import position

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


@pytest.mark.parametrize("model", [CLASSICAL, JORDAN, DEGENERATE,
                                   validate([[0.5]], [[1.0]])],
                         ids=["classical", "jordan", "degenerate", "unstable"])
def test_model_suite_invertibility_entry_is_the_report(model):
    # the suite reads the library report on the Gramians it already holds
    grams = {t: gramian.gramian_t(model, t) for t in verification.T_GRID[:3]}
    rep = gramian.invertibility_equivalence_report(model, grams)
    (entry,) = [c for c in model_suite(model)
                if c.name == "invertibility_equivalence"]
    if rep.equivalent is None:
        assert entry == verification._skip("invertibility_equivalence",
                                           rep.note)
    else:
        assert entry == verification._check(
            "invertibility_equivalence",
            0.0 if rep.equivalent else math.inf, 0.0, detail=rep.note)


def test_model_suite_three_way_shares_leading_blocks():
    # with levels < degree the Mehler-lift check reads the leading blocks
    # of the suite's own Mehler matrix and chaos family, and matches the
    # stand-alone check built on the smaller basis to roundoff (the leading
    # blocks of the inverse are summed in another order); the generator
    # identity runs on the suite's whole basis.  The tests' dense exp(tL)
    # from the leading blocks of the suite's L is the one on the smaller
    # basis, and agrees with the Mehler matrix at the same bound.
    checks = {c.name: c for c in model_suite(OSCILLATOR, degree=4, levels=2)}
    lift = checks["second_quantization_mehler_lift"]
    assert lift.passed and lift.detail == "t=1, N=2"
    assert checks["generator_chaos_block_diagonal"].detail == "degree=4"
    rep = verify_second_quantization(OSCILLATOR, 1.0, 2)
    assert rep.passed
    assert abs(lift.residual - rep.residual_mehler_vs_lift) <= 1e-13
    small = poly_basis(2, 2)
    leading = generator_exp(galerkin_blocks(OSCILLATOR, poly_basis(2, 4)),
                            small, 1.0)
    own = generator_exp(galerkin_blocks(OSCILLATOR, small), small, 1.0)
    P_meh = mehler_at(OSCILLATOR, 1.0, small)
    for E, F, P in zip(leading, own, P_meh):
        assert E.tobytes() == F.tobytes()
        assert np.abs(E - P).max() <= rep.tol


def test_model_suite_unstable_skips_steady_state():
    unstable = validate([[0.3]], [[1.0]], name="unstable")
    checks = model_suite(unstable)
    names = [c.name for c in checks]
    assert "steady_state_checks" in names
    assert not _failures(checks)
    assert all("lyapunov" not in n for n in names)


GRAMIAN_CHECKS = ["gramian_t_quadrature_agreement", "gramian_t_psd",
                  "gramian_monotone_in_t", "strong_feller_rank_agreement",
                  "invertibility_equivalence"]
STEADY_CHECKS = ["splitting_identity", "gramian_dominated_by_steady_state",
                 "rkhs_factorization", "restricted_flow_contraction"]
GENERATOR_CHECKS = ["restricted_flow_semigroup_law",
                    "norm_identity_vs_rayleigh_quotient",
                    "galerkin_spectrum_lattice_match",
                    "transition_semigroup_law"]


def test_model_suite_check_order():
    # the report lists the checks in this order
    unstable = validate([[0.3]], [[1.0]], name="unstable")
    assert [c.name for c in model_suite(unstable)] == \
        GRAMIAN_CHECKS + ["steady_state_checks"]
    assert [c.name for c in model_suite(DEGENERATE)] == \
        GRAMIAN_CHECKS + STEADY_CHECKS + GENERATOR_CHECKS + ["chaos_checks"]
    assert [c.name for c in model_suite(OSCILLATOR)] == \
        GRAMIAN_CHECKS + STEADY_CHECKS + [
            "restricted_flow_strict_contraction"] + GENERATOR_CHECKS + [
            "invariant_measure_fixed_mean", "chaos_covariance_permanent",
            "generator_chaos_block_diagonal",
            "second_quantization_mehler_lift"]


def test_model_suite_degenerate_measure_takes_no_exponential(monkeypatch):
    # a singular Q_inf ends the suite at the chaos layers: neither the
    # generator in the chaos frame nor the lift is formed for it
    def refuse(*args):
        raise AssertionError("formed for a degenerate measure")

    monkeypatch.setattr(verification, "_generator_residual", refuse)
    monkeypatch.setattr(verification, "_mehler_lift", refuse)
    checks = model_suite(DEGENERATE, degree=4)
    assert checks[-1].name == "chaos_checks"
    assert not _failures(checks)


#: Peak of traced allocations, in dense dim x dim float arrays, that the
#: suites may hold at (d, N) = (8, 4); they held 13.0-14.0 and 9.5-10.0
#: before each array was dropped after its last reader, 6.5 after, and
#: 5.6-5.7 since exp(tL) was kept as its parity blocks, the three-way
#: deviations were taken per class and the lift frees each level early.
#: Since the Mehler matrices and the chaos frame are held as their parity
#: blocks too, the frame's Newton step runs per class and the lift is
#: compared in row blocks, model_suite holds 3.52-3.57 and
#: verify_second_quantization 3.51 (5.0 before).
WORKING_SET_ARRAYS = 3.75
SECOND_QUANTIZATION_ARRAYS = 3.6


def _peak_arrays(run, dim):
    import tracemalloc
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * dim * dim)


@pytest.mark.parametrize("kind", ["real", "complex", "defective"])
def test_working_set_at_d8_n4(kind):
    model = random_stable_model(np.random.default_rng(5), d=8, kind=kind)
    dim = poly_basis(8, 4).dim
    suite = _peak_arrays(lambda: model_suite(model, degree=4, levels=4), dim)
    three = _peak_arrays(lambda: verify_second_quantization(model, 1.0, 4),
                         dim)
    assert suite <= WORKING_SET_ARRAYS, suite
    assert three <= SECOND_QUANTIZATION_ARRAYS, three


def test_warm_verify_peak_at_d8_n4(tmp_path):
    # L is held as its parity blocks, the Mehler-lift deviation is taken
    # per class, the lift frees each sym_power level once its rows are
    # written and expm scales in place: about 12.8 MB before, 11.0 MB
    # after; with the Mehler matrices and the chaos frame held as their
    # parity blocks, the Newton step per class and the lift compared in
    # row blocks, 6.9 MB
    import json
    import tracemalloc
    from ou_spectra import cli
    model = random_stable_model(np.random.default_rng(0), d=8,
                                kind="defective")
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"A": model.A.tolist(),
                                "Q": model.Q.tolist()}))
    argv = ["verify", str(path), "--degree", "4", "--levels", "4",
            "--out", str(tmp_path / "v.json")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.2e6, peak


def test_verify_exponentiates_no_matrix_above_the_van_loan_block(
        tmp_path, monkeypatch):
    # a cost count, pinned where it fell: the Van Loan block of Q_t, of
    # side 2d, is the largest matrix verify exponentiates; the even block
    # of L, of side 367 at d = 8, N = 4, was, until the generator identity
    # in the chaos frame took the place of exp(tL)
    import json
    from ou_spectra import cli
    model = random_stable_model(np.random.default_rng(0), d=8,
                                kind="defective")
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"A": model.A.tolist(),
                                "Q": model.Q.tolist()}))
    sides = []
    for module in (gramian, verification):
        def counting(M, t=1.0, real=module.expm):
            sides.append(len(M))
            return real(M, t)
        monkeypatch.setattr(module, "expm", counting)
    assert cli.main(["verify", str(path), "--degree", "4", "--levels", "4",
                     "--out", str(tmp_path / "v.json")]) == 0
    assert sides and max(sides) == 2 * model.dim


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
    assert "splitting_identity" in names


def test_chaos_covariance_negative_control(monkeypatch):
    # the degree-2 rows of Phi^-1 scaled by 1 + 1e-3 scale the second
    # layer projection, so the pairing identity must fail; the other chaos
    # checks see the honest family
    real = verification._chaos_covariance_residual

    def crooked(model, chaos, rng):
        Psi = chaos.frame_inv[0].copy()
        Psi[chaos.basis.class_slice(2)] *= 1.0 + 1e-3
        return real(model, replace(
            chaos, frame_inv=(Psi,) + chaos.frame_inv[1:]), rng)

    for model in (CLASSICAL, JORDAN, OSCILLATOR):
        honest = {c.name: c for c in model_suite(model)}
        assert honest["chaos_covariance_permanent"].passed
        with monkeypatch.context() as m:
            m.setattr(verification, "_chaos_covariance_residual", crooked)
            checks = model_suite(model)
        assert [c.name for c in _failures(checks)] == \
            ["chaos_covariance_permanent"]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_linear_form_product_matches_sympy(d):
    # integer coefficients keep every product exact, so the two must agree
    # bit for bit
    rng = np.random.default_rng(40 + d)
    basis = poly_basis(d, 3)
    xs = sympy.symbols("x0:%d" % d)
    for _ in range(5):
        a, b = rng.integers(-9, 10, size=(2, d))
        want = np.zeros(basis.dim)
        form = lambda v: sum(int(v_i) * x for v_i, x in zip(v, xs))
        expanded = sympy.Poly(sympy.expand(form(a) * form(b)), *xs)
        for monom, coeff in expanded.terms():
            want[position(basis, monom)] = int(coeff)
        got = verification._linear_product(basis, a.astype(float),
                                           b.astype(float))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadratic_inner_matches_mgf_moments(d):
    # the Isserlis closed form against sympy's expansion of the moment
    # generating function, on random quadratics and a random covariance
    rng = np.random.default_rng(50 + d)
    R = rng.standard_normal((d, d))
    Sigma = R @ R.T + 0.1 * np.eye(d)
    low = poly_basis(d, 2)
    G = mgf_gram(low, Sigma)
    for _ in range(5):
        p, q = rng.standard_normal((2, low.dim))
        want = p @ G @ q
        got = verification._quadratic_inner(Sigma, p, q)
        assert abs(got - want) <= 1e-13 * (np.abs(p) @ np.abs(G) @ np.abs(q))


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


def test_dgamma_sum_spectrum_runs_on_every_contraction(monkeypatch):
    # sigma(dGamma_n(T)) is the set of n-fold sums of eigenvalues of T,
    # whatever their sign: the check runs on eigenvalues of both signs, on
    # both kinds of contraction, and fails for a perturbed dgamma
    rng = np.random.default_rng(3)
    Ts = [np.array([[0.5, 0.3], [0.0, -0.4]]),
          np.array([[0.4, 0.5], [0.0, 0.4]])]
    Ts += [random_contraction(rng, d=3, kind=kind)
           for kind in ("diagonalizable", "defective")]

    def dgamma_check(T):
        return next(c for c in contraction_suite(T)
                    if c.name == "dgamma_sum_spectrum")

    assert all(dgamma_check(T).passed for T in Ts)
    real = verification.dgamma

    def shifted(M, n):
        G = real(M, n)
        return G + 1e-5 * np.eye(len(G))

    monkeypatch.setattr(verification, "dgamma", shifted)
    for T in Ts:
        check = dgamma_check(T)
        assert not check.passed
        assert abs(check.residual - 1e-5) <= 1e-9


def test_spectra_suite():
    assert not _failures(spectra_suite(0))


#: The self-tests of the Hausdorff and lattice helpers, which ``verify
#: --random`` does not run: they check the package, not a model.
SPECTRA_CHECKS = ("hausdorff_symmetry", "hausdorff_triangle_inequality",
                  "lattice_contains_zero", "lattice_additive_closure",
                  "lattice_window_monotone")


@pytest.mark.parametrize("seed", range(5))
def test_spectra_self_checks_pass(seed):
    checks = spectra_suite(seed)
    assert tuple(c.name for c in checks) == SPECTRA_CHECKS
    assert not _failures(checks)


def test_model_suite_reuses_gramians_and_norms(monkeypatch):
    # every flow, Q_t and S_mu(t) the suite reads comes from its one
    # transition table: no one-horizon route and no curve call runs, the
    # flows, the Gramians and the S_mu(t) of every horizon are one
    # _flows, _van_loan and _restricted call each (5 _restricted calls
    # before the table was passed explicitly), and the K(t) of the grid
    # one _ratio_sups call
    calls = {name: _count_calls(monkeypatch, gramian, name,
                                key=lambda model, ts, *rest:
                                np.atleast_1d(ts).tolist())
             for name in ("flow", "gramian_t", "smu_matrix", "_curve",
                          "_flows", "_van_loan", "_restricted")}
    ratios = _count_calls(monkeypatch, gramian, "_ratio_sups",
                          key=lambda P, Rs, rank_tol: len(Rs))
    grid = verification.T_GRID
    assert grid == (0.1, 0.5, 1.0, 2.0)
    assert not _failures(model_suite(OSCILLATOR))
    for name in ("_flows", "_van_loan", "_restricted"):
        assert calls.pop(name) == [list(verification.HORIZONS)], name
    assert calls == dict.fromkeys(calls, [])
    assert ratios == [len(grid)]


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
    # Q_0.1 and Q_1 serve the quadrature check, the rank criteria, the
    # splitting identity and P(1); each is formed once, in the table's one
    # Van Loan stack over HORIZONS, and the T_GRID family and the splitting
    # identity's horizons are one stacked read of it each
    formed = _count_calls(monkeypatch, gramian, "_van_loan",
                          key=lambda model, ts: ts.tolist())
    read = _count_calls(monkeypatch, gramian._Transitions, "gramians",
                        key=lambda table, ts: list(ts))
    assert not _failures(model_suite(OSCILLATOR))
    assert formed == [list(verification.HORIZONS)]
    assert read == [list(verification.T_GRID), [0.1, 1.0, 5.0]]


#: The models of the transition-table pins: each bundled one, and a
#: random stable draw of each kind.
SUITE_MODELS = {
    **{name: lambda name=name: load_model(name) for name in list_bundled()},
    **{kind: lambda kind=kind: random_stable_model(
        np.random.default_rng(7), d=3, kind=kind)
       for kind in ("real", "complex", "defective")},
}


@pytest.mark.parametrize("name", sorted(SUITE_MODELS))
def test_model_suite_takes_two_exponentials_outside_the_oracle(
        monkeypatch, name):
    # every flow and Q_t the suite reads comes from one stacked exponential
    # of A and one of the Van Loan block, each over HORIZONS once: 16
    # calls over 22 horizons before the transitions were cached on the
    # model.  Each is formed at its first read, the Gramians' first.  The
    # quadrature oracle calls verification.expm, not this one.
    model = SUITE_MODELS[name]()
    calls = []

    def counting(M, t=1.0, real=gramian.expm):
        calls.append((len(M), np.atleast_1d(t).tolist()))
        return real(M, t)

    monkeypatch.setattr(gramian, "expm", counting)
    model_suite(model, degree=3)
    horizons = list(verification.HORIZONS)
    assert calls == [(2 * model.dim, horizons), (model.dim, horizons)]


@pytest.mark.parametrize("name", sorted(SUITE_MODELS))
def test_cached_transitions_are_the_unprimed_ones_bit_for_bit(name):
    # the suite's transition table holds every horizon, read-only, and
    # each of its reads, one horizon or a stacked family, is bitwise the
    # one-horizon route
    model = SUITE_MODELS[name]()
    horizons = verification.HORIZONS
    table = gramian._Transitions(model, horizons)
    built = [getattr(table, family) for family in ("_exp", "_gram", "_smu")]
    assert [refusal for _, refusal in built] == [None] * 3
    stacks = [stack for stack, _ in built]
    assert [len(stack) for stack in stacks] == [len(horizons)] * 3
    assert not any(stack.flags.writeable for stack in stacks)
    families = (table.gramians(horizons), table.restricted(horizons))
    for k, t in enumerate(horizons):
        read = table.transition(t) + (table.smu_matrix(t),)
        for got, route in zip(read, (gramian.flow, gramian.gramian_t,
                                     gramian.smu_matrix)):
            assert not got.flags.writeable
            assert got.tobytes() == route(model, t).tobytes()
        assert families[0][k].tobytes() == read[1].tobytes()
        assert families[1][k].tobytes() == read[2].tobytes()


@pytest.mark.parametrize("name", sorted(SUITE_MODELS))
def test_model_suite_leaves_no_horizon_state_on_the_model(name):
    # after a suite, the one-horizon routes return on the model what they
    # return on a fresh copy, bit for bit and equally writeable, and the
    # model holds only its fields and what depends on (A, Q) alone
    model = SUITE_MODELS[name]()
    model_suite(model, degree=3)
    fresh = replace(model)
    for route in (gramian.flow, gramian.gramian_t, gramian.smu_matrix):
        for t in verification.HORIZONS:
            got, want = route(model, t), route(fresh, t)
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable == want.flags.writeable
    assert set(vars(model)) <= {"A", "Q", "name", "tol", "drift_eigenvalues",
                                "_q_inf", "invariant_factor"}


def _count_calls(monkeypatch, module, name, key=lambda *args: args[-1]):
    """Wrap ``module.name`` and return the list of ``key(*args)`` of its
    calls."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_model_suite_assembles_L_and_the_drift_spectrum_once(monkeypatch):
    # the three-way check reads the leading blocks of the suite's own
    # parity blocks of L, no dense L is built, and the drift spectrum is
    # the model's own, computed once
    from ou_spectra import ou_operator
    assembled = [_count_calls(monkeypatch, verification, "galerkin_blocks",
                              key=lambda model, basis: basis.N)]
    dense = _count_calls(monkeypatch, ou_operator, "assemble_L",
                         key=lambda model, basis: basis.N)
    spectra = [_count_calls(monkeypatch, module, name,
                            key=lambda M: M.shape)
               for module, name in ((gramian, "_eigvals"),
                                    (verification, "eig"))]
    model = replace(OSCILLATOR)
    assert not _failures(model_suite(model, degree=3, levels=3))
    assert assembled == [[3]]
    assert dense == []
    assert spectra == [[(2, 2)], []]


def test_model_suite_walks_the_lattice_once(monkeypatch):
    # the lattice match walks the lattice once and takes the eigenvalues
    # of each parity block of L once, as spectrum does
    calls = _count_calls(monkeypatch, verification, "lattice_spectrum")
    blocks = _count_calls(monkeypatch, verification, "_eigvals",
                          key=lambda M: M.shape)
    checks = {c.name: c for c in model_suite(OSCILLATOR, degree=3)}
    assert checks["galerkin_spectrum_lattice_match"].passed
    assert len(calls) == 1
    # the even class (degrees 0 and 2) and the odd one (1 and 3)
    assert blocks == [(4, 4), (6, 6)]


def test_leading_block_of_L_is_L_on_the_smaller_basis():
    from ou_spectra.ou_operator import assemble_L, poly_basis
    for seed, (d, N) in enumerate([(2, 5), (3, 4), (4, 3)]):
        for kind in ("real", "complex", "defective"):
            model = random_stable_model(np.random.default_rng(seed), d=d,
                                        kind=kind)
            L = assemble_L(model, poly_basis(d, N))
            for n in range(N):
                small = assemble_L(model, poly_basis(d, n))
                k = small.shape[0]
                assert np.array_equal(L[:k, :k], small)


def test_contraction_suite_builds_each_object_once(monkeypatch):
    T = random_contraction(np.random.default_rng(5), d=2, kind="defective")

    def key(*args):
        return (np.asarray(args[0]).tobytes(), args[1])

    # the lifts of T, S and T @ S come from one truncation each; a
    # symmetric truncation takes one substitution sweep
    truncations = _count_calls(
        monkeypatch, verification, "second_quantization",
        key=lambda M, N, symmetric=True, **_: key(M, N) + (symmetric,))
    products = _count_calls(monkeypatch, tensor_fock, "product_set", key)
    sweeps = _count_calls(monkeypatch, tensor_fock, "substitution_levels",
                          key)
    checks = contraction_suite(T, levels=3)
    assert not _failures(checks)
    assert "second_quantization_spectrum" in {c.name for c in checks}
    for calls in (truncations, products, sweeps):
        assert calls and len(set(calls)) == len(calls)
    # no (matrix, level) lift is built twice
    lifts = [(M, n, symmetric) for M, N, symmetric in truncations
             for n in range(N + 1)]
    assert len(set(lifts)) == len(lifts)
    assert len({M for M, _, _ in truncations}) == 3
    # T's symmetric levels 0-4 come from one sweep of T'
    assert [N for M, N, symmetric in truncations
            if M == T.tobytes() and symmetric] == [4]
    assert [N for M, N in sweeps if M == T.T.tobytes()] == [4]


def _spectral_residuals(T, levels):
    """The three spectral checks of ``contraction_suite`` as the
    FockTruncation methods make them on two truncations, the prediction
    folded here: each symmetric level is decomposed once per truncation."""
    base = eig(T)
    prods = [product_set(base, n) for n in range(1, levels + 1)]
    trunc, bigger = (second_quantization(T, top, allow_noncontraction=True)
                     for top in (levels, levels + 1))
    tens = second_quantization(T, levels, symmetric=False).levels
    pred = SpectrumSet([1.0 + 0.0j])
    for p in prods:
        pred = pred.union(p)
    return {
        "tensor_sym_product_spectra": max(
            hausdorff(eig(power[n]), prods[n - 1])
            for n in range(1, levels + 1) for power in (tens, trunc.levels)),
        "second_quantization_spectrum": hausdorff(trunc.spectrum(), pred),
        "truncation_stability": hausdorff(trunc.embedded_spectrum(),
                                          bigger.embedded_spectrum()),
    }


@pytest.mark.parametrize("kind", ["diagonalizable", "defective"])
def test_contraction_suite_takes_each_spectrum_once(monkeypatch, kind):
    # T, its three tensor powers, its five symmetric levels and its three
    # dGamma lifts: one eig each, the symmetric levels taken by their
    # truncation and shared by the product, truncation and stability
    # checks, with the same bits
    T = random_contraction(np.random.default_rng(5), d=2, kind=kind)
    want = _spectral_residuals(T, 3)
    own, held = (_count_calls(monkeypatch, module, "eig",
                              key=lambda M: M.shape)
                 for module in (verification, tensor_fock))
    checks = {c.name: c for c in contraction_suite(T, levels=3)}
    assert sorted(own) == sorted(
        [(2, 2)] + [(2, 2), (4, 4), (8, 8)] + [(2, 2), (3, 3), (4, 4)])
    assert held == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
    for name, residual in want.items():
        assert checks[name].residual == residual, name


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


def _stacked_quad_vec(model, grid):
    """``quad_vec`` on the stacked integrand of ``_quadrature_gramians``:
    the reference of its built-in adaptive Gauss-Legendre rule."""
    import scipy.integrate
    import scipy.linalg

    ts = np.array(grid)[:, None, None]

    def integrand(u):
        E = scipy.linalg.expm(u * ts * model.A)
        return ts * (E @ model.Q @ E.swapaxes(1, 2))
    val, _ = scipy.integrate.quad_vec(integrand, 0.0, 1.0,
                                      epsabs=1e-12, epsrel=1e-12)
    return dict(zip(grid, val))


def _counting_expm(monkeypatch, fake=None):
    """Replace the exponential that ``verification`` calls (only its
    quadrature does, in ``model_suite``) and count the calls: one per
    panel and horizon."""
    calls = []
    real = verification.expm

    def expm(M, t=1.0):
        shape = np.broadcast_shapes(np.shape(t) + (1, 1), M.shape)
        calls.append(shape)
        return real(M, t) if fake is None else fake(shape)
    monkeypatch.setattr(verification, "expm", expm)
    return calls


def _counting(f):
    calls = []
    return calls, lambda u: calls.append(u) or f(u)


def test_adaptive_rule_accepts_a_smooth_integrand_after_one_split():
    # [0, 1] and its two halves: the halves agree with the whole panel
    calls, f = _counting(lambda u: np.exp(u)[:, None] * np.array([1.0, -2.0]))
    got = verification._adaptive_gauss(f)
    assert len(calls) == 3
    want = np.expm1(1.0) * np.array([1.0, -2.0])
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_quadrature_of_zero_diffusion_is_exactly_zero(monkeypatch):
    model = validate([[-1.0, 2.0], [0.0, -3.0]], np.zeros((2, 2)),
                     name="no noise")
    calls = _counting_expm(monkeypatch)
    got = verification._quadrature_gramians(model, verification.T_GRID)
    assert len(calls) == 3 * len(verification.T_GRID)
    assert all(not g.any() for g in got.values())


def _stacked_integrand_gramians(model, grid):
    """The quadrature oracle with its integrand formed in one exponential
    of every node and horizon of a panel, as it was before it took one
    horizon at a time."""
    from ou_spectra._linalg import expm, pow2_scale
    ts = np.array(grid)
    c = pow2_scale(model.Q)
    Q = model.Q / c

    def integrand(u):
        E = expm(model.A, u[:, None] * ts)
        return ts[:, None, None] * (E @ Q @ E.swapaxes(-1, -2))
    return dict(zip(grid, c * verification._adaptive_gauss(integrand)))


@pytest.mark.parametrize("name", sorted(set(list_bundled()) | {
    "d%d_%s" % (d, kind) for d in (2, 5, 16)
    for kind in ("real", "complex", "defective")}))
def test_quadrature_integrand_by_horizon_is_the_stacked_one(name):
    # each horizon's exponential and product are bitwise those of the stack
    # of all horizons, so the joint acceptance test sees the same numbers
    if name in list_bundled():
        model = load_model(name)
    else:
        d, kind = name[1:].split("_")
        model = random_stable_model(np.random.default_rng(int(d)),
                                    d=int(d), kind=kind)
    grid = verification.T_GRID + (5.0,)
    got = verification._quadrature_gramians(model, grid)
    want = _stacked_integrand_gramians(model, grid)
    assert all(got[t].tobytes() == want[t].tobytes() for t in grid)


def test_quadrature_oracle_holds_one_panel_sized_stack():
    # a cost count, pinned where it fell: at d = 32 the integrand's stack
    # of 16 nodes x 4 horizons is 0.52 MB, and the oracle peaks at 1.03 MB
    # traced, where the stacked integrand held four such stacks and the
    # exponential's buffers (1.75 MB; 26.9 -> 16.4 MB at d = 128)
    import tracemalloc
    model = random_stable_model(np.random.default_rng(32), d=32,
                                kind="complex")
    verification._quadrature_gramians(model, verification.T_GRID)
    tracemalloc.start()
    try:
        verification._quadrature_gramians(model, verification.T_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6, peak


def _singular(u):
    # algebraic singularities at 0 and a peak at 0.3
    u = np.asarray(u)[..., None]
    return np.concatenate([np.sqrt(u), u * np.sqrt(u),
                           1.0 / (1e-3 + (u - 0.3) * (u - 0.3))], axis=-1)


def test_adaptive_rule_stops_at_its_panel_budget():
    # sqrt(u) meets the per-length tolerance near 0 only after about a
    # hundred bisections, more than the budget allows: the refinement stops
    # there, and the panels still open keep their own estimates
    calls, f = _counting(_singular)
    got = verification._adaptive_gauss(f)
    budget = verification._QUAD_BUDGET
    assert budget - 2 < len(calls) <= budget
    assert np.isfinite(got).all()
    r = math.sqrt(1e-3)
    want = [2 / 3, 2 / 5, (math.atan(0.7 / r) + math.atan(0.3 / r)) / r]
    assert np.abs(got - want).max() <= 1e-10 * max(want)


def test_quadrature_rule_matches_closed_form_diagonal():
    # A = diag(a): Q_t[i, j] = Q[i, j] (exp((a_i + a_j) t) - 1)/(a_i + a_j)
    a = np.array([-0.3, -1.2, -2.5, -4.0])
    R = np.random.default_rng(0).standard_normal((4, 4))
    Q = R @ R.T + 0.1 * np.eye(4)
    model = validate(np.diag(a), Q, name="diagonal")
    got = verification._quadrature_gramians(model, verification.T_GRID)
    s = a[:, None] + a[None, :]
    for t in verification.T_GRID:
        want = Q * np.expm1(s * t) / s
        assert np.abs(got[t] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("seed,d,kind", [(0, 2, "real"), (1, 3, "complex"),
                                         (2, 8, "defective"),
                                         (3, 16, "complex")])
def test_quadrature_rule_matches_quad_vec(seed, d, kind, monkeypatch):
    model = random_stable_model(np.random.default_rng(seed), d=d, kind=kind)
    want = _stacked_quad_vec(model, verification.T_GRID)
    calls = _counting_expm(monkeypatch)
    got = verification._quadrature_gramians(model, verification.T_GRID)
    # three panels: [0, 1] and its two halves, 16 nodes each, one
    # exponential per horizon
    assert calls == [(16, d, d)] * 3 * 4
    for t in verification.T_GRID:
        assert np.abs(got[t] - want[t]).max() \
            <= 1e-15 * np.abs(want[t]).max()


def test_quadrature_rule_subdivides_a_stiff_model(monkeypatch):
    # |2 A| = 50.6: the integrand at t = 2 falls by e^-50 across [0, 1]
    model = validate([[-25.0, 4.0], [0.0, -0.5]], np.eye(2), name="stiff")
    want = _stacked_quad_vec(model, verification.T_GRID)
    calls = _counting_expm(monkeypatch)
    got = verification._quadrature_gramians(model, verification.T_GRID)
    assert len(calls) > 3 * len(verification.T_GRID)
    for t in verification.T_GRID:
        scale = np.abs(want[t]).max()
        assert np.abs(got[t] - want[t]).max() <= 1e-15 * scale
        assert np.abs(got[t] - _quadrature_gramian(model, t)).max() \
            <= 1e-13 * scale
        van_loan = gramian.gramian_t(model, t)
        assert np.abs(got[t] - van_loan).max() <= 1e-12 * scale


def test_nan_integrand_returns_nan_and_fails_its_check(monkeypatch):
    calls = _counting_expm(monkeypatch,
                           fake=lambda shape: np.full(shape, np.nan))
    got = verification._quadrature_gramians(OSCILLATOR, verification.T_GRID)
    assert all(np.isnan(g).all() for g in got.values())
    # the first split already stops: no refinement of a NaN panel, whose
    # horizons take one exponential each
    assert len(calls) == 3 * len(verification.T_GRID)
    checks = {c.name: c for c in model_suite(OSCILLATOR)}
    check = checks["gramian_t_quadrature_agreement"]
    assert np.isnan(check.residual)
    assert not check.passed
    assert len(calls) == 6 * len(verification.T_GRID)


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


@pytest.mark.parametrize("seed,count", [(0, 1), (7, 2), (123, 3)])
def test_random_suite_is_the_model_and_contraction_suites(seed, count):
    # the same draws as the two suites called directly: the spectra
    # self-tests' seed was the last draw, so no earlier one moved
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(count):
        model = random_stable_model(rng, d=2)
        want += model_suite(model, seed=int(rng.integers(2 ** 31)))
    for i in range(max(count // 2, 1)):
        kind = "defective" if i % 2 else "diagonalizable"
        T = random_contraction(rng, d=2, kind=kind)
        want += contraction_suite(T, seed=int(rng.integers(2 ** 31)),
                                  prefix="contraction_%d_" % i)
    got = random_suite(seed, count)
    assert got == want
    assert not {c.name for c in got} & set(SPECTRA_CHECKS)


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
