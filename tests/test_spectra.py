"""Spectrum-set container, lattice enumeration, and Hausdorff matching."""

from collections import deque
from itertools import combinations_with_replacement

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ou_spectra import spectra
from ou_spectra.cli import _to_jsonable
from ou_spectra.errors import EmptySet, EnumCap, InputError, Unstable
from ou_spectra.spectra import (
    LatticeWindow,
    SpectrumSet,
    eig,
    hausdorff,
    lattice_spectrum,
    match_report,
    product_set,
)


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


def test_single_linkage_matches_loop_reference():
    rng = np.random.default_rng(0)
    cases = [np.array([-0.0 - 0.0j, 0.0 + 0.0j, -0.0 + 1.0j, 1.0 - 0.0j]),
             np.array([2.0 + 0.0j]), np.array([], dtype=complex)]
    for _ in range(300):
        n = int(rng.integers(2, 60))
        centers = rng.standard_normal(int(rng.integers(1, 8))) \
            + 1j * rng.standard_normal(1)
        pts = rng.choice(centers, n) + 1e-8 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # exact repeats, conjugates, signed zeros and chains of near points
        pts[: n // 4] = pts[n // 4: 2 * (n // 4)]
        pts[-2:] = np.conj(pts[:2])
        pts[::7] = complex(-0.0, -0.0)
        pts[3::11] = complex(rng.standard_normal(), -0.0)
        pts[1::9] = 0.6e-7 * np.arange(len(pts[1::9]))
        cases.append(pts)
    for pts in cases:
        for radius in (0.0, 1e-7, 1e-8, 0.5):
            got = spectra._single_linkage_merge(pts, radius)
            want = _single_linkage_loop(pts, radius)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    d = _to_jsonable(s)
    back = _spectrum_from_json(d)
    assert_allclose(back.points, s.points)

