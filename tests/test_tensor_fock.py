"""Symmetric tensor powers, ladder operators, and truncated lifts.

Frozen oracles, derived by hand in occupation coordinates with the
graded ordering (2,0) > (1,1) > (0,2):

* the level-2 embedding of C^2 is the 4x3 matrix with rows indexed by
  words (0,0),(0,1),(1,0),(1,1) and entries sqrt(alpha!/2!);
* for T = [[a,b],[c,d]] (columns = images of the basis), the symmetric
  square is [[a^2, sqrt2*ab, b^2], [sqrt2*ac, ad+bc, sqrt2*bd],
  [c^2, sqrt2*cd, d^2]];
* creation by h from level 1 sends e_(1,0) to sqrt2*h1*e_(2,0) +
  h2*e_(1,1) and e_(0,1) to h1*e_(1,1) + sqrt2*h2*e_(0,2);
* the number-operator lift of diag(m1, m2) on level 2 is
  diag(2*m1, m1+m2, 2*m2).
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, expm

from ou_spectra.errors import InputError, NotContraction, SizeCap
from ou_spectra.spectra import SpectrumSet, eig, hausdorff, product_set
from ou_spectra.tensor_fock import (
    FockTruncation,
    _sqrt_factorials,
    _substitution_tables,
    derivation_block,
    dgamma,
    embedding,
    multi_indices,
    second_quantization,
    sym_dim,
    sym_power,
    tensor_power,
)

from occupation import annihilation, creation

SQ2 = math.sqrt(2.0)

EMBEDDING_2_2 = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0 / SQ2, 0.0],
    [0.0, 1.0 / SQ2, 0.0],
    [0.0, 0.0, 1.0],
])

T_HAND = np.array([[1.0, 2.0], [3.0, 4.0]])
SYM2_HAND = np.array([
    [1.0, 2.0 * SQ2, 4.0],
    [3.0 * SQ2, 10.0, 8.0 * SQ2],
    [9.0, 12.0 * SQ2, 16.0],
])

CREATION_1_HAND = lambda h1, h2: np.array([
    [SQ2 * h1, 0.0],
    [h2, h1],
    [0.0, SQ2 * h2],
])


# ---------------------------------------------------------------------------
# bases and embeddings
# ---------------------------------------------------------------------------

def test_multi_indices_order():
    assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert multi_indices(2, 0) == ((0, 0),)
    assert multi_indices(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # graded descending-lex at d=3, n=2
    assert multi_indices(3, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_sym_dim_binomial():
    for d in range(1, 5):
        for n in range(0, 5):
            assert sym_dim(d, n) == math.comb(d + n - 1, n)
            assert len(multi_indices(d, n)) == sym_dim(d, n)


def test_substitution_tables_up_invariant():
    # the invariant every graded operator rests on: up[b, j] is the
    # position of beta_b + e_j, with beta the multi-indices of level n - 1
    for d, n in [(1, 1), (1, 4), (2, 1), (2, 3), (3, 4), (4, 3)]:
        *_, up, beta = _substitution_tables(d, n)
        assert beta.tolist() == [list(b) for b in multi_indices(d, n - 1)]
        level = np.array(multi_indices(d, n))
        assert up.shape == (sym_dim(d, n - 1), d)
        for b in range(len(beta)):
            for j in range(d):
                assert np.array_equal(level[up[b, j]],
                                      beta[b] + np.eye(d, dtype=int)[j])


def test_embedding_hand_oracle():
    assert_allclose(embedding(2, 2), EMBEDDING_2_2, atol=1e-15)


def test_embedding_is_isometry():
    for d, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        J = embedding(d, n)
        assert J.shape == (d ** n, sym_dim(d, n))
        assert_allclose(J.T @ J, np.eye(sym_dim(d, n)), atol=1e-14)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def test_tensor_power_is_kron():
    rng = np.random.default_rng(5)
    T = rng.standard_normal((3, 3))
    assert_allclose(tensor_power(T, 2), np.kron(T, T), atol=0)
    assert_allclose(tensor_power(T, 0), np.eye(1), atol=0)


def test_tensor_power_norm_law():
    rng = np.random.default_rng(6)
    for _ in range(5):
        T = rng.standard_normal((2, 2))
        nrm = np.linalg.norm(T, 2)
        for n in (2, 3):
            got = np.linalg.norm(tensor_power(T, n), 2)
            assert_allclose(got, nrm ** n, rtol=1e-10)


def test_sym_power_hand_oracle():
    assert_allclose(sym_power(T_HAND, 2), SYM2_HAND, atol=1e-13)


def test_sym_power_diagonal():
    T = np.diag([2.0, 3.0])
    assert_allclose(sym_power(T, 2), np.diag([4.0, 6.0, 9.0]), atol=1e-14)
    assert_allclose(sym_power(T, 3), np.diag([8.0, 12.0, 18.0, 27.0]),
                    atol=1e-13)


def test_sym_power_homomorphism():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        for n in (2, 3):
            assert_allclose(sym_power(A @ B, n),
                            sym_power(A, n) @ sym_power(B, n), atol=1e-10)


def test_sym_power_triangular_stays_triangular():
    T = np.array([[0.5, 0.7], [0.0, -0.3]])
    for n in (2, 3, 4):
        S = sym_power(T, n)
        assert_allclose(np.tril(S, -1), 0.0, atol=0)
        # diagonal = products of diagonal entries per multi-index
        want = [T[0, 0] ** a * T[1, 1] ** b for a, b in multi_indices(2, n)]
        assert_allclose(np.diag(S), want, atol=1e-15)


def test_sym_power_matches_kronecker_compression():
    # the substitution kernel against the independent route J' T^(x)n J
    rng = np.random.default_rng(8)
    cases = [(2, n) for n in range(5)] + [(3, 3), (4, 3)]
    for d, n in cases:
        J = embedding(d, n)
        for T in (rng.standard_normal((d, d)),
                  rng.standard_normal((d, d))
                  + 1j * rng.standard_normal((d, d))):
            assert_allclose(sym_power(T, n), J.T @ tensor_power(T, n) @ J,
                            atol=1e-12)


def test_sym_power_beyond_kronecker_cap():
    # 8**6 = 262144 is far above the default cap; sym_dim(8, 6) = 1716 is not
    S = sym_power(0.5 * np.eye(8), 6)
    assert_allclose(S, 0.5 ** 6 * np.eye(sym_dim(8, 6)), atol=1e-8)


def test_size_cap():
    # sides 2**13 = 8192 and sym_dim(2, 4096) = 4097, both above
    # DEFAULT_SIZE_CAP = 4096; the guard fires before anything is built
    tracemalloc.start()
    try:
        with pytest.raises(SizeCap):
            tensor_power(np.eye(2), 13)
        with pytest.raises(SizeCap):
            sym_power(np.eye(2), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sqrt_factorials_keep_the_int64_bits():
    # every alpha! below 2^63 (levels <= 20) gives the bits of the root of
    # numpy's int64 array, as the diagonal was built before
    for d in (1, 2, 3):
        for n in range(21):
            old = np.sqrt([math.prod(math.factorial(a) for a in alpha)
                           for alpha in multi_indices(d, n)])
            assert old.dtype == np.float64
            assert _sqrt_factorials(d, n).tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [21, 100])
def test_sqrt_factorials_past_int64_agree_with_mpmath(n):
    (got,) = _sqrt_factorials(1, n)
    with mpmath.workdps(60):
        want = float(mpmath.sqrt(math.factorial(n)))
    assert abs(got - want) <= math.ulp(want)


def test_sqrt_factorials_refuse_an_alpha_beyond_the_float_range():
    assert math.isfinite(_sqrt_factorials(1, 170)[0])
    with pytest.raises(SizeCap, match="level 171 over R\\^1"):
        _sqrt_factorials(1, 171)


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_creation_hand_oracle():
    h = np.array([0.3, -1.2])
    assert_allclose(creation(h, 1), CREATION_1_HAND(0.3, -1.2), atol=1e-15)
    # from the vacuum: a^dag(h) e_0 = h
    assert_allclose(creation(h, 0), h.reshape(2, 1), atol=0)


def test_creation_integer_vector():
    # the square-root weights are not truncated to the integer dtype of h
    assert_allclose(creation(np.array([1, 2]), 1), CREATION_1_HAND(1, 2),
                    atol=1e-15)


def _creation_loop(h, n):
    # reference: one dictionary lookup per occupation vector and slot
    d = len(h)
    pos = {beta: i for i, beta in enumerate(multi_indices(d, n + 1))}
    C = np.zeros((len(pos), sym_dim(d, n)), dtype=h.dtype)
    for col, alpha in enumerate(multi_indices(d, n)):
        for i in range(d):
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            C[pos[beta], col] += h[i] * np.sqrt(alpha[i] + 1.0)
    return C


def test_creation_matches_loop_reference():
    # the indexed assignment does the same arithmetic as the loop
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        h = rng.standard_normal(d)
        h[0] = 0.0
        for hh in (h, h + 1j * rng.standard_normal(d)):
            for n in range(5):
                assert np.array_equal(creation(hh, n), _creation_loop(hh, n))


def test_annihilation_is_exact_adjoint():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        for n in (1, 2, 3):
            h = rng.standard_normal(d)
            assert np.array_equal(annihilation(h, n),
                                  creation(h, n - 1).conj().T)


def test_commutation_relation():
    # [a_(m+1)(h), a^dag_m(h)] = ||h||^2 I on level m
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for m in range(0, 4):
            h = rng.standard_normal(d)
            lhs = (annihilation(h, m + 1) @ creation(h, m)
                   - (creation(h, m - 1) @ annihilation(h, m)
                      if m >= 1 else 0.0))
            want = (h @ h) * np.eye(sym_dim(d, m))
            assert np.abs(lhs - want).max() <= 1e-12


def test_creation_lower_bound():
    # ||a^dag(h) g|| >= ||h|| ||g||, at the absolute 1e-12 that verify's
    # ladder check held it to
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = rng.integers(2, 4)
        n = rng.integers(0, 4)
        h = rng.standard_normal(d)
        g = rng.standard_normal(sym_dim(d, n))
        lhs = np.linalg.norm(creation(h, n) @ g)
        rhs = np.linalg.norm(h) * np.linalg.norm(g)
        assert rhs - lhs <= 1e-12


def test_creation_number_operator():
    # a^dag(e_i) a(e_i) summed over i counts particles: dGamma(I)
    d = 2
    for n in (1, 2, 3):
        total = np.zeros((sym_dim(d, n), sym_dim(d, n)))
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            total += creation(e, n - 1) @ annihilation(e, n)
        assert_allclose(total, n * np.eye(sym_dim(d, n)), atol=1e-13)


# ---------------------------------------------------------------------------
# generator lift
# ---------------------------------------------------------------------------

def test_dgamma_diagonal_hand_oracle():
    M = np.diag([5.0, -2.0])
    assert_allclose(dgamma(M, 2), np.diag([10.0, 3.0, -4.0]), atol=1e-14)
    assert_allclose(dgamma(M, 0), [[0.0]], atol=0)
    assert_allclose(dgamma(M, 1), M, atol=0)


def test_dgamma_is_derivative_of_sym_power():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((2, 2))
    for n in (2, 3):
        want = dgamma(M, n)
        h = 1e-6
        fd = (sym_power(expm(h * M), n) - np.eye(sym_dim(2, n))) / h
        assert_allclose(fd, want, atol=1e-4)


def test_derivation_block_matches_kronecker_dgamma():
    # the scatter kernel against the independent route
    # dgamma(M, n) = D_n derivation_block(M', n) D_n^-1, D_n = diag sqrt(a!)
    rng = np.random.default_rng(11)
    cases = [(2, n) for n in range(5)] + [(3, 3), (4, 3)]
    for d, n in cases:
        D = np.sqrt([math.prod(math.factorial(a) for a in alpha)
                     for alpha in multi_indices(d, n)])
        for M in (rng.standard_normal((d, d)),
                  rng.standard_normal((d, d))
                  + 1j * rng.standard_normal((d, d))):
            got = D[:, None] * derivation_block(M.T, n) / D[None, :]
            assert_allclose(got, dgamma(M, n), atol=1e-12)


def test_dgamma_spectrum_is_eigenvalue_sums():
    M = np.diag([-1.0, -2.5])
    got = eig(dgamma(M, 2))
    want = SpectrumSet([-2.0, -3.5, -5.0])
    assert hausdorff(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# truncated second quantization
# ---------------------------------------------------------------------------

def _side(fock):
    # the side of the block-diagonal matrix on the truncated algebra
    return sum(block.shape[0] for block in fock.levels)


def test_second_quantization_block_structure():
    T = np.array([[0.5, 0.1], [0.0, 0.3]])
    fock = second_quantization(T, 2)
    assert len(fock.levels) - 1 == 2
    assert _side(fock) == 1 + 2 + 3
    M = block_diag(*fock.levels)
    assert_allclose(M[0, 0], 1.0, atol=0)
    assert_allclose(M[1:3, 1:3], T, atol=0)
    assert_allclose(M[3:, 3:], sym_power(T, 2), atol=0)
    assert_allclose(M[0, 1:], 0.0, atol=0)
    assert_allclose(M[1:, 0], 0.0, atol=0)


def test_second_quantization_spectrum_is_products():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((2, 2))
    T = 0.8 * A / np.linalg.norm(A, 2)
    fock = second_quantization(T, 3)
    base = eig(T)
    want = SpectrumSet([1.0])
    for n in (1, 2, 3):
        want = want.union(product_set(base, n))
    assert hausdorff(fock.spectrum(), want) <= 1e-10


def test_embedded_spectrum_adds_zero():
    T = np.array([[-0.6]])
    plain = second_quantization(T, 3).spectrum()
    embedded = second_quantization(T, 3).embedded_spectrum()
    assert np.abs(plain.points).min() > 0.1
    assert np.abs(embedded.points).min() <= 1e-15
    assert len(embedded) == len(plain) + 1


def test_truncation_stability_with_embedding():
    # deepening the truncation moves the embedded spectrum by at most
    # ||T||^(N+1); the plain union would violate this for T = -0.6
    T = np.array([[-0.6]])
    s4 = second_quantization(T, 4).embedded_spectrum()
    s6 = second_quantization(T, 6).embedded_spectrum()
    assert hausdorff(s4, s6) <= 0.6 ** 5 + 1e-9


def test_non_contraction_rejected():
    with pytest.raises(NotContraction):
        second_quantization(2.0 * np.eye(2), 2)
    fock = second_quantization(2.0 * np.eye(2), 2,
                               allow_noncontraction=True)
    assert _side(fock) == 6


def test_tensor_fock_matches_sym_on_spectrum():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((3, 3))
    T = 0.7 * A / np.linalg.norm(A, 2)
    sym = second_quantization(T, 2, symmetric=True)
    full = second_quantization(T, 2, symmetric=False)
    assert _side(full) == 1 + 3 + 9
    assert hausdorff(sym.spectrum(), full.spectrum()) <= 1e-10


def test_second_quantization_input_checks():
    with pytest.raises(InputError):
        second_quantization(np.ones((2, 3)), 2)
    with pytest.raises(InputError):
        second_quantization(np.eye(2), -1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("complex_T", [False, True])
def test_second_quantization_levels_are_the_single_powers(d, complex_T):
    # one substitution sweep (or one Kronecker chain) gives each level
    # with the bits of sym_power (or tensor_power) at that level alone
    rng = np.random.default_rng(d)
    T = rng.standard_normal((d, d))
    if complex_T:
        T = T + 1j * rng.standard_normal((d, d))
    for N in range(6):
        for symmetric, power in ((True, sym_power), (False, tensor_power)):
            levels = second_quantization(T, N, symmetric=symmetric,
                                         allow_noncontraction=True).levels
            assert len(levels) == N + 1
            for n, block in enumerate(levels):
                want = power(T, n)
                assert block.dtype == want.dtype
                assert block.shape == want.shape
                assert block.tobytes() == want.tobytes(), (N, n, symmetric)


@pytest.mark.parametrize("T,N,symmetric,message", [
    (0.5 * np.eye(2), 13, False,
     "tensor power 13 would have side 8192, above the cap 4096"),
    (0.5 * np.eye(2), 200, False,
     "tensor power 13 would have side 8192, above the cap 4096"),
    (0.5 * np.eye(1), 171, True,
     "level 171 over R^1 holds an alpha! beyond the float range"),
])
def test_refused_truncation_builds_no_level(T, N, symmetric, message):
    # every level's guard runs before the first level is built: the levels
    # below the refused one (4096^2 doubles at level 12 of the tensor
    # route) are never allocated
    tracemalloc.start()
    try:
        with pytest.raises(SizeCap) as info:
            second_quantization(T, N, symmetric=symmetric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 1 << 20
