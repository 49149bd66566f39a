"""Spectrum-set container, lattice enumeration, and Hausdorff matching."""

from collections import deque
from itertools import combinations_with_replacement

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ou_spectra import spectra
from ou_spectra.errors import (DimensionMismatch, EmptySet, EnumCap,
                               InputError, Unstable)
from ou_spectra.spectra import (
    LatticeWindow,
    SpectrumSet,
    eig,
    hausdorff,
    lattice_spectrum,
    match_report,
    product_set,
)

from report_reference import to_jsonable


# ---------------------------------------------------------------------------
# hand oracles
# ---------------------------------------------------------------------------

# two points 1e-9 apart must merge at radius 1e-7; 1 apart must not
CLUSTER_IN = [0.0 + 0.0j, 1e-9 + 0.0j, 1.0 + 0.0j]
CLUSTER_OUT = [0.0, 1.0]

# products of {-1, -2} taken twice, by hand: 1, 2, 4
PRODUCT2_ORACLE = sorted([1.0, 2.0, 4.0])

# lattice of {-1, -0.5} up to 3 terms, by hand (sums k1*(-1)+k2*(-0.5),
# k1+k2 <= 3): 0, -0.5, -1 (two ways), -1.5 (two ways), -2 (two ways),
# -2.5, -3
LATTICE_ORACLE = sorted([0.0, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0])

# hausdorff({0, 3}, {1}) = max(max(1, 2), max(1)) = 2, by hand
HAUSDORFF_ORACLE = 2.0


def test_clustering_merges_close_points():
    # the fixed clustering radius is 1e-7
    s = SpectrumSet(CLUSTER_IN)
    assert_allclose(sorted(s.points.real), CLUSTER_OUT, atol=1e-8)
    assert len(s) == 2


def _single_linkage_loop(pts, radius):
    """The pairwise sweep that the numpy merge replaced, kept as its
    reference: same pair tests, same union order, same centroids."""
    n = len(pts)
    if n <= 1:
        return pts.copy()
    order = np.argsort(pts.real, kind="stable")
    spts = pts[order]
    parent = list(range(n))

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    lo = 0
    for i in range(n):
        while spts[i].real - spts[lo].real > radius:
            lo += 1
        for j in range(lo, i):
            if abs(spts[i] - spts[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(spts[i])
    return np.array([np.mean(members) for members in clusters.values()],
                    dtype=complex)


def _by_value(pts):
    return pts[np.lexsort((pts.imag, pts.real))]


def _adversarial_set(rng, n):
    """`n` points around few centres: exact repeats, conjugates, signed
    zeros and chains of near points."""
    centers = rng.standard_normal(int(rng.integers(1, 8))) \
        + 1j * rng.standard_normal(1)
    pts = rng.choice(centers, n) + 1e-8 * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pts[: n // 4] = pts[n // 4: 2 * (n // 4)]
    pts[-2:] = np.conj(pts[:2])
    pts[::7] = complex(-0.0, -0.0)
    pts[3::11] = complex(rng.standard_normal(), -0.0)
    pts[1::9] = 0.6e-7 * np.arange(len(pts[1::9]))
    return pts


def _clustering_cases():
    rng = np.random.default_rng(0)
    r = spectra.DEFAULT_CLUSTER_RADIUS
    step = 0.9 * r * np.arange(12)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    cases = {
        "signed_zeros": np.array([-0.0 - 0.0j, 0.0 + 0.0j, -0.0 + 1.0j,
                                  1.0 - 0.0j]),
        "one_point": np.array([2.0 + 0.0j]),
        "empty": np.array([], dtype=complex),
        "all_distinct": z,
        "conjugate_pairs": np.concatenate([z, z.conj(), [-1 + 0.4e-7j,
                                                         -1 - 0.4e-7j]]),
        "shared_real_part": np.array([-1 + 1j, -1 + 0j, -1 - 1j,
                                      -3 + 0.6e-7j, -3 + 0j, -3 - 0.6e-7j]),
        "chains_at_0.9_radius": np.concatenate([
            -2 + step, 2j + 1j * step[::-1], 5 + (1 + 1j) / np.sqrt(2) * step,
            step[::3] - 7]),
        "exact_copies": np.repeat(z[:3], [1, 4, 9]),
        "chain_with_copies": np.repeat(-2 + step, 3),
        # real parts exactly one radius apart, at 1e-7 and at 0.5
        "spaced_at_radius": np.array([0.0, r, 0.5, 1.0, 1.5 + 1j, 3.0]),
    }
    for k in range(3):
        cases["over_64_points_%d" % k] = _adversarial_set(
            rng, int(rng.integers(65, 120)))
    sweep = np.random.default_rng(0)
    for k in range(300):
        cases["adversarial_%d" % k] = _adversarial_set(
            sweep, int(sweep.integers(2, 60)))
    return cases


def test_single_linkage_matches_loop_reference():
    # the merge returns its clusters in value order, the loop in real-part
    # order, so both are compared sorted by value, as SpectrumSet stores
    for name, pts in _clustering_cases().items():
        want = _by_value(_single_linkage_loop(
            pts, spectra.DEFAULT_CLUSTER_RADIUS))
        got = SpectrumSet(pts).points
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
        for radius in (0.0, 1e-7, 1e-8, 0.5):
            got = _by_value(spectra._single_linkage_merge(pts, radius))
            want = _by_value(_single_linkage_loop(pts, radius))
            assert got.dtype == want.dtype, (name, radius)
            assert got.tobytes() == want.tobytes(), (name, radius)


def _components_loop(n, edges):
    """Smallest index in each point's component, by repeated relaxation."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return label


def test_join_labels_each_point_by_its_smallest_cluster_member():
    # joined in two rounds, as the merge joins one offset at a time: the
    # second round starts from labels that point past its own pairs
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        first, second = (rng.integers(0, n, (int(rng.integers(0, n)), 2))
                         for _ in range(2))
        root = spectra._join(np.arange(n), first[:, 0], first[:, 1])
        assert root.tolist() == _components_loop(n, first.tolist())
        root = spectra._join(root, second[:, 0], second[:, 1])
        assert root.tolist() == _components_loop(
            n, first.tolist() + second.tolist())


def test_single_linkage_matches_loop_reference_on_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        spread = rng.choice([0.0, 1e-9, 1e-8, 5e-8])
        centers = rng.standard_normal(int(rng.integers(1, 8))) \
            + 1j * rng.standard_normal(int(rng.integers(1, 3)))[0]
        pts = rng.choice(centers, n) + spread * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        pts[-1] = np.conj(pts[0])
        want = _single_linkage_loop(pts, spectra.DEFAULT_CLUSTER_RADIUS)
        assert SpectrumSet(pts).points.tobytes() == _by_value(want).tobytes()


def test_a_signed_zero_is_plus_zero_in_sets_of_any_size():
    # a singleton is 0j + z, whatever the size of the set it sits in, so
    # a one-point spectrum and a larger one write the same 0.0
    z = complex(-0.0, -0.0)
    plus = np.array([0j]).tobytes()
    assert SpectrumSet([z]).points.tobytes() == plus
    assert SpectrumSet([z, 5.0]).points[:1].tobytes() == plus
    for pts in ([z], [z, 5.0]):
        merged = spectra._single_linkage_merge(np.array(pts), 1e-7)
        assert merged[:1].tobytes() == plus
    assert SpectrumSet([]).points.dtype == np.complex128


def test_points_sorted_and_read_only():
    s = SpectrumSet([1.0 + 1.0j, -2.0, 1.0 - 1.0j, 0.5])
    re = s.points.real
    assert np.all(np.diff(re) >= 0)
    # equal real parts tie-break on imaginary part
    both = s.points[np.isclose(re, 1.0)]
    assert both[0].imag < both[1].imag
    with pytest.raises(ValueError):
        s.points[0] = 99.0


def test_spectrum_set_empty_and_len():
    # empty sets are constructible; consumers that need points raise
    empty = SpectrumSet([])
    assert len(empty) == 0
    with pytest.raises(EmptySet):
        hausdorff(empty, SpectrumSet([1.0]))
    with pytest.raises(EmptySet):
        product_set(empty, 2)
    assert len(SpectrumSet([1.0, 2.0, 3.0])) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_spectrum_set_refuses_nonfinite_points(bad):
    with pytest.raises(InputError) as info:
        SpectrumSet([1.0, bad])
    assert str(info.value) == "spectrum points must be finite"


def test_union_reclusters():
    a = SpectrumSet([0.0])
    b = SpectrumSet([1e-9, 5.0])
    u = a.union(b)
    assert len(u) == 2
    assert_allclose(sorted(u.points.real), [0.0, 5.0], atol=1e-8)


def test_restricted_window():
    s = SpectrumSet([-3.0, -1.0 + 2.0j, -1.0 - 2.0j, -0.5])
    r = s.restricted(re_min=-2.0, im_max=1.0)
    assert_allclose(r.points, [-0.5 + 0.0j])


def test_eig_matches_numpy_on_diagonal():
    D = np.diag([-1.0, -2.0, -3.5])
    s = eig(D)
    assert_allclose(sorted(s.points.real), [-3.5, -2.0, -1.0], atol=0)
    assert_allclose(s.points.imag, 0.0, atol=0)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
def test_eig_refuses_a_non_square_matrix(shape):
    # the square check that tensor_fock and fock share
    with pytest.raises(DimensionMismatch) as info:
        eig(np.zeros(shape))
    assert str(info.value) == \
        "eig argument must be square, got shape %r" % (shape,)


def test_product_set_hand_oracle():
    base = SpectrumSet([-1.0, -2.0])
    p = product_set(base, 2)
    assert_allclose(sorted(p.points.real), PRODUCT2_ORACLE, atol=1e-12)


def test_product_set_rejects_n_zero():
    with pytest.raises(InputError):
        product_set(SpectrumSet([-3.0, 4.0]), 0)


def test_product_set_cap():
    # C(45, 6) = 8,145,060 products, above DEFAULT_ENUM_CAP = 200,000
    base = SpectrumSet(np.linspace(1, 2, 40))
    with pytest.raises(EnumCap):
        product_set(base, 6)


def test_lattice_hand_oracle():
    base = SpectrumSet([-1.0, -0.5])
    win = LatticeWindow(re_min=-3.0, im_max=0.5, max_terms=3)
    lat = lattice_spectrum(base, win)
    assert_allclose(sorted(lat.points.real), LATTICE_ORACLE, atol=1e-12)
    assert_allclose(lat.points.imag, 0.0, atol=1e-12)


def test_lattice_conjugate_pair_real_sums():
    # z = -1 +- 2j: the sum z + conj(z) = -2 must survive an im_max
    # window that excludes the individual eigenvalues
    base = SpectrumSet([-1.0 + 2.0j, -1.0 - 2.0j])
    win = LatticeWindow(re_min=-2.5, im_max=0.1, max_terms=2)
    lat = lattice_spectrum(base, win)
    assert_allclose(sorted(lat.points.real), [-2.0, 0.0], atol=1e-12)


def test_lattice_rejects_unstable_base():
    with pytest.raises(Unstable):
        lattice_spectrum(SpectrumSet([0.5, -1.0]),
                         LatticeWindow(re_min=-2.0, im_max=1.0, max_terms=2))


def test_lattice_window_validation():
    with pytest.raises(InputError):
        LatticeWindow(re_min=1.0, im_max=1.0, max_terms=2)
    with pytest.raises(InputError):
        LatticeWindow(re_min=-1.0, im_max=-1.0, max_terms=2)
    with pytest.raises(InputError):
        LatticeWindow(re_min=-1.0, im_max=1.0, max_terms=0)


def _bfs_lattice_walk(z, window, radius):
    """The breadth-first walk over count vectors that the level-order
    kernel replaced, kept as its reference: the value and total count of
    every sum inside the real-part cut, once per count vector."""
    start = (0,) * len(z)
    seen, queue, out = {start}, deque([(start, 0.0 + 0.0j)]), []
    while queue:
        counts, val = queue.popleft()
        out.append((val, sum(counts)))
        if sum(counts) >= window.max_terms:
            continue
        for j in range(len(z)):
            nxt = counts[:j] + (counts[j] + 1,) + counts[j + 1:]
            if nxt in seen:
                continue
            nval = val + z[j]
            if nval.real < window.re_min - radius:
                continue
            seen.add(nxt)
            queue.append((nxt, nval))
    values, sizes = zip(*out)
    return np.array(values, dtype=complex), np.array(sizes)


def _random_points(rng):
    """One to five points in the open left half plane: real ones and
    conjugate pairs, as the drift spectra of real matrices come."""
    pts, m = [], rng.integers(1, 6)
    while len(pts) < m:
        re = -0.05 - 2.0 * rng.random()
        if rng.random() < 0.5:
            pts.append(complex(re, 0.0))
        else:
            im = 3.0 * rng.random()
            pts += [complex(re, im), complex(re, -im)]
    return SpectrumSet(pts)


@pytest.mark.parametrize("max_terms", range(1, 7))
def test_multisets_walk_equals_the_bfs_bitwise(max_terms):
    # values, sizes and their order, under covering and pruning windows
    rng = np.random.default_rng(max_terms)
    r = spectra.DEFAULT_CLUSTER_RADIUS
    for _ in range(50):
        base = _random_points(rng)
        cover = LatticeWindow.covering(base.points, max_terms)
        pruning = LatticeWindow(re_min=rng.uniform(0.2, 0.9) * cover.re_min,
                                im_max=rng.uniform(0.1, 1.0) * cover.im_max,
                                max_terms=max_terms)
        for window in (cover, pruning):
            want, depth = _bfs_lattice_walk(base.points, window, r)
            got, sizes = spectra._multisets(base.points, max_terms,
                                            floor=window.re_min - r)
            assert got.tobytes() == want.tobytes()
            assert sizes.tobytes() == depth.tobytes()
            keep = np.abs(want.imag) <= window.im_max + r
            walk = spectra._lattice_walk(base, window)
            assert walk[0].tobytes() == want[keep].tobytes()
            assert walk[1].tobytes() == depth[keep].tobytes()
            assert lattice_spectrum(base, window).points.tobytes() == \
                SpectrumSet(want[keep]).points.tobytes()


@pytest.mark.parametrize("n", range(1, 6))
def test_product_set_and_sums_equal_combinations_bitwise(n):
    # the products and sums each draw once formed, combination by
    # combination, in combinations_with_replacement order
    rng = np.random.default_rng(10 + n)
    for _ in range(60):
        base = eig(rng.standard_normal((4, 4))) if rng.random() < 0.5 \
            else _random_points(rng)
        combos = list(combinations_with_replacement(base.points, n))
        prods = np.array([np.prod(c) for c in combos])
        sums = np.array([sum(c) for c in combos])
        got, sizes = spectra._multisets(base.points, n, product=True)
        assert got[sizes == n].tobytes() == prods.tobytes()
        got, sizes = spectra._multisets(base.points, n)
        assert got[sizes == n].tobytes() == sums.tobytes()
        assert product_set(base, n).points.tobytes() == \
            SpectrumSet(prods).points.tobytes()


def test_hausdorff_hand_oracle():
    a = SpectrumSet([0.0, 3.0])
    b = SpectrumSet([1.0])
    assert_allclose(hausdorff(a, b), HAUSDORFF_ORACLE, atol=1e-15)
    assert hausdorff(a, a) == 0.0


def test_hausdorff_symmetric_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = SpectrumSet(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        b = SpectrumSet(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, b) >= 0.0


@pytest.mark.parametrize("n,m,entries", [(7, 5, 1 << 16), (300, 400, 1 << 16),
                                          (300, 400, 1000), (50, 3, 1)])
def test_nearest_distances_in_blocks_equal_the_dense_table(monkeypatch, n, m,
                                                           entries):
    # minima are exact, so any blocking gives the dense table's bits; the
    # sets repeat points, within and across, so ties and zeros are hit
    monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(n + m)
    pool = np.round(rng.standard_normal(40) + 1j * rng.standard_normal(40), 1)
    pa, pb = rng.choice(pool, n), rng.choice(pool, m)
    dense = np.abs(pa[:, None] - pb[None, :])
    near_a, near_b = spectra._nearest_distances(pa, pb)
    assert near_a.tobytes() == dense.min(axis=1).tobytes()
    assert near_b.tobytes() == dense.min(axis=0).tobytes()
    assert np.any(near_a == 0.0) and np.any(near_b == 0.0)


def test_nearest_distances_never_hold_the_table():
    # the dense 20000 x 20000 table would be 6.4 GB of complex differences
    import tracemalloc
    rng = np.random.default_rng(3)
    pa = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
    pb = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
    tracemalloc.start()
    try:
        near_a, near_b = spectra._nearest_distances(pa, pb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak
    assert near_a[:3].tobytes() == \
        np.abs(pa[:3, None] - pb[None, :]).min(axis=1).tobytes()
    assert near_b[-3:].tobytes() == \
        np.abs(pa[:, None] - pb[None, -3:]).min(axis=0).tobytes()


def test_match_report_pass_and_fail():
    a = SpectrumSet([0.0, -1.0])
    b = SpectrumSet([1e-9, -1.0 + 1e-9])
    rep = match_report(a, b, tol=1e-6)
    assert rep.passed
    assert rep.hausdorff <= 1e-6
    assert len(rep.unmatched_computed) == 0
    assert len(rep.unmatched_predicted) == 0

    c = SpectrumSet([0.0, -1.0, -7.0])
    rep = match_report(c, b, tol=1e-6)
    assert not rep.passed
    assert any(abs(z - (-7.0)) < 1e-9 for z in rep.unmatched_computed)


def test_spectrum_set_is_immutable():
    s = SpectrumSet([1.0 + 2.0j, -0.5])
    with pytest.raises(AttributeError):
        s.points = np.zeros(2, dtype=complex)
    # a name that is not a field: slots leave no room for it, and the
    # frozen check of Python 3.10 and 3.11 raises TypeError on its way there
    with pytest.raises((AttributeError, TypeError)):
        s.extra = 1
    with pytest.raises(ValueError):
        s.points[0] = 0.0


def _spectrum_from_json(data):
    """Reads back a spectrum set as the report writer encodes it."""
    pts = [complex(p["re"], p["im"]) for p in data["points"]]
    assert data["cluster_radius"] == spectra.DEFAULT_CLUSTER_RADIUS
    return SpectrumSet(pts)


def test_json_round_trip():
    s = SpectrumSet([1.0 + 2.0j, -0.5])
    d = to_jsonable(s)
    back = _spectrum_from_json(d)
    assert_allclose(back.points, s.points)

