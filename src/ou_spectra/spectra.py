"""Finite spectra as point sets: clustering, lattice sums, set distances.

Spectra computed by different routes (dense eigensolver, closed-form sums,
block assembly) agree only up to roundoff and up to multiplicity bookkeeping.
:class:`SpectrumSet` normalizes both issues away: points are merged by
single-linkage clustering at a fixed radius and stored sorted, so two sets
describing the same spectrum compare equal under the Hausdorff metric at
roundoff scale.

One kernel (:func:`_multisets`) enumerates the multisets of a point set:
their sums make the lattice of :func:`lattice_spectrum`, their products
:func:`product_set`.  The lattice walk prunes on the real part only: in the
open left half plane the real part is monotone along the walk while the
imaginary part is not (conjugate pairs cancel).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (DimensionMismatch, EigFailure, EmptySet, EnumCap,
                     InputError, SizeCap, Unstable)

#: Radius at which every spectrum set merges its points.
DEFAULT_CLUSTER_RADIUS = 1e-7

#: Cap on the number of enumerated points in product sets.
DEFAULT_ENUM_CAP = 200_000

#: Margin of :meth:`LatticeWindow.covering` beyond the extreme sums.
_WINDOW_SLACK = 1e-6

#: Entries in one row block of a pairwise table (:func:`_row_blocks`):
#: 2**16 complex differences are 1 MB.
_BLOCK_ENTRIES = 1 << 16


def _points(points):
    """The points of a :class:`SpectrumSet` or any iterable, flat complex."""
    if isinstance(points, SpectrumSet):
        return points.points
    pts = points if isinstance(points, np.ndarray) else list(points)
    return np.asarray(pts, dtype=complex).ravel()


def _single_linkage_merge(pts, radius):
    """Merge points at mutual distance <= radius (single linkage).

    Returns one centroid per cluster, clusters in the order of their
    first point by value, (real, imaginary) part.  In that order exactly
    equal points are adjacent: they always share a cluster, and the sweep
    runs over the distinct values only.  Their pairs ``(i, i - k)`` are
    tested in numpy one offset ``k`` at a time, a row leaving as soon as
    its real parts differ by more than the radius (they only grow with
    ``k``; this is exact because |z - w| >= |Re z - Re w|), so memory
    stays O(n); the pairs that pass are joined by :func:`_join`.  A
    singleton comes out as ``0j + z``, which is what ``np.mean`` of one
    point gives (it turns a signed zero into +0); any other centroid is
    the mean over its members in the stable real-part order of `pts`.
    """
    n = len(pts)
    if n <= 1:
        return 0j + pts
    by_value = np.lexsort((pts.imag, pts.real))
    values = pts[by_value]
    new = np.concatenate(([True], values[1:] != values[:-1]))
    first = new.nonzero()[0]
    # each copy is labelled by its first copy, the smallest index
    root = None if len(first) == n else np.maximum.accumulate(
        np.where(new, np.arange(n), 0))
    upts = values[first]
    re = upts.real
    i, k = (re[1:] - re[:-1] <= radius).nonzero()[0] + 1, 1
    while i.size:
        hit = i[np.abs(upts[i] - upts[i - k]) <= radius]
        if hit.size:
            root = _join(np.arange(n) if root is None else root,
                         first[hit - k], first[hit])
        k += 1
        i = i[i >= k]
        i = i[re[i] - re[i - k] <= radius]
    if root is None:
        return 0j + values
    head = np.flatnonzero(root == np.arange(n))
    size = np.bincount(root)[head]
    label = root[np.argsort(by_value)]
    order = np.argsort(pts.real, kind="stable")
    # members grouped by cluster, in heads' order, each in real-part order
    members = pts[order][np.argsort(label[order], kind="stable")]
    start = np.cumsum(size) - size
    out = 0j + values[head]
    for c in np.flatnonzero(size > 1):
        out[c] = members[start[c]:start[c] + size[c]].mean()
    return out


def _join(root, a, b):
    """`root`, each point's label the smallest index in its cluster, after
    joining each pair ``(a[k], b[k])``: joined clusters take the smaller
    label, and pointer jumping carries it to every member."""
    ra, rb = root[a], root[b]
    while (ra != rb).any():
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]
        ra, rb = root[a], root[b]
    return root


@dataclass(frozen=True, eq=False, init=False, slots=True)
class SpectrumSet:
    """A finite set of complex spectrum points.

    On construction, points at mutual distance within
    ``DEFAULT_CLUSTER_RADIUS`` are merged by single linkage and replaced
    by their centroid; the survivors are stored sorted by (real,
    imaginary) part.  The resulting array is read-only.  The radius is
    kept as the field ``cluster_radius``, so reports state it.
    """

    points: np.ndarray
    cluster_radius: float

    def __init__(self, points):
        pts = _points(points)
        if not np.isfinite(pts.view(float)).all():
            raise InputError("spectrum points must be finite")
        merged = _single_linkage_merge(pts, DEFAULT_CLUSTER_RADIUS)
        order = np.lexsort((merged.imag, merged.real))
        merged = merged[order]
        merged.flags.writeable = False
        object.__setattr__(self, "points", merged)
        object.__setattr__(self, "cluster_radius", DEFAULT_CLUSTER_RADIUS)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return "SpectrumSet(%d points, radius=%g)" % (
            len(self.points), self.cluster_radius)

    def union(self, other):
        """Union with another set (or iterable), re-clustered."""
        return SpectrumSet(np.concatenate([self.points, _points(other)]))

    def restricted(self, re_min=-np.inf, im_max=np.inf):
        """Points with ``Re >= re_min`` and ``|Im| <= im_max`` (small slack
        of one cluster radius is allowed on both cuts)."""
        r = self.cluster_radius
        keep = (self.points.real >= re_min - r) & (
            np.abs(self.points.imag) <= im_max + r)
        return SpectrumSet(self.points[keep])


def _square(M, name):
    """`M` as an array, or a :class:`DimensionMismatch` naming it."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("%s must be square, got shape %r"
                                % (name, M.shape))
    return M


def eig(matrix):
    """Eigenvalues of a dense matrix as a :class:`SpectrumSet`.

    Raises
    ------
    DimensionMismatch
        If the matrix is not square.
    EigFailure
        If the QR iteration fails to converge or produces non-finite values.
    """
    return SpectrumSet(_eigvals(_square(matrix, "eig argument")))


def _eigvals(M, vectors=False):
    """``np.linalg.eigvals(M)``, or with `vectors` the pair ``(w, V)`` of
    ``np.linalg.eig(M)``, raising :class:`EigFailure` where the QR
    iteration fails or an eigenvalue is not finite."""
    try:
        out = np.linalg.eig(M) if vectors else np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigFailure("eigenvalue computation failed: %s" % exc) from exc
    w = out[0] if vectors else out
    if not np.all(np.isfinite(w.view(float))):
        raise EigFailure("eigenvalue computation returned non-finite values")
    return tuple(out) if vectors else out


def product_set(base, n):
    """All products of exactly `n` points of `base`, drawn with repetition.

    This is the spectrum of the n-fold (symmetric) tensor power of an
    operator whose spectrum is `base`.  The number of combinations
    ``C(m + n - 1, n)`` is checked against ``DEFAULT_ENUM_CAP`` before
    enumerating; a product past the float range is refused as
    :class:`SizeCap`.
    """
    if not isinstance(base, SpectrumSet):
        base = SpectrumSet(base)
    if n < 1:
        raise InputError("product_set needs n >= 1, got %d" % n)
    m = len(base)
    if m == 0:
        raise EmptySet("product_set of an empty spectrum")
    count = comb(m + n - 1, n)
    if count > DEFAULT_ENUM_CAP:
        raise EnumCap("product_set would enumerate %d points (cap %d)"
                      % (count, DEFAULT_ENUM_CAP))
    with np.errstate(over="ignore", invalid="ignore"):
        prods, sizes = _multisets(base.points, n, product=True)
    prods = prods[sizes == n]
    if not np.isfinite(prods.view(float)).all():
        raise SizeCap("a product of %d spectrum points overflows the float "
                      "range" % n)
    return SpectrumSet(prods)


def _times(a, b):
    """``a * b`` entrywise, formed as the scalar complex product forms it:
    numpy's vector loop fuses multiply-adds, which round differently."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _multisets(points, max_size, product=False, floor=-np.inf):
    """Values and sizes of the multisets of at most `max_size` `points`, as
    index sequences ``i_1 <= ... <= i_k`` by size, then lexicographically.
    A value is its prefix's plus ``points[i_k]`` (from 0), or with
    `product` times it (from 1).  A sum with real part below `floor` goes
    with all its extensions: points in the open left half plane lower it."""
    combine = _times if product else np.add
    vals, last = np.array([complex(product)]), np.zeros(1, dtype=np.intp)
    levels = [vals]
    while len(vals) and len(levels) <= max_size:
        reps = len(points) - last
        parent = np.repeat(np.arange(len(vals)), reps)
        # the children of a parent append the indices last, ..., m - 1
        last = np.arange(len(parent)) - np.repeat(
            np.cumsum(reps) - reps - last, reps)
        vals = combine(vals[parent], points[last])
        keep = ~(vals.real < floor)
        vals, last = vals[keep], last[keep]
        levels.append(vals)
    sizes = np.repeat(np.arange(len(levels)), [len(v) for v in levels])
    return np.concatenate(levels), sizes


@dataclass(frozen=True)
class LatticeWindow:
    """Search window for :func:`lattice_spectrum`.

    ``re_min`` must be negative (the walk starts at 0 and moves left),
    ``im_max`` positive, and ``max_terms`` caps the total count
    ``sum_j k_j`` as a backstop against slow leftward drift.
    """

    re_min: float
    im_max: float
    max_terms: int = 64

    def __post_init__(self):
        if not self.re_min < 0:
            raise InputError("re_min must be negative (got %g)" % self.re_min)
        if not self.im_max > 0:
            raise InputError("im_max must be positive (got %g)" % self.im_max)
        if self.max_terms < 1:
            raise InputError("max_terms must be >= 1")

    @classmethod
    def covering(cls, points, n_terms):
        """The window holding every sum of at most `n_terms` of `points`,
        with a margin of ``_WINDOW_SLACK`` on each cut."""
        re_min = n_terms * float(points.real.min()) - _WINDOW_SLACK
        im_max = max(n_terms * float(np.abs(points.imag).max()),
                     _WINDOW_SLACK) + _WINDOW_SLACK
        return cls(re_min=re_min, im_max=im_max, max_terms=n_terms)


def lattice_spectrum(base, window):
    """The lattice sums inside `window` (:func:`_lattice_walk`)."""
    return SpectrumSet(_lattice_walk(base, window)[0])


def _lattice_walk(base, window):
    """Values and sizes ``sum_j k_j`` of the sums ``sum_j k_j * z_j`` of
    `base` inside `window`, over counts ``k_j >= 0``.  `base` must lie in
    the open left half plane, or the walk would not end.  A sum is pruned
    only when its real part has left the window, never on the imaginary
    part, whose cut is a final filter; sums of more than
    ``window.max_terms`` points are not formed (with a valid window the
    real-part pruning ends the walk well before that cap)."""
    if not isinstance(base, SpectrumSet):
        base = SpectrumSet(base)
    z = base.points
    if len(z) == 0:
        raise EmptySet("lattice_spectrum of an empty spectrum")
    if np.any(z.real >= 0):
        raise Unstable(
            "lattice_spectrum needs all points in the open left half plane; "
            "max real part is %g" % z.real.max())
    r = base.cluster_radius
    values, sizes = _multisets(z, window.max_terms, floor=window.re_min - r)
    keep = np.abs(values.imag) <= window.im_max + r
    return values[keep], sizes[keep]


def _row_blocks(n_rows, row_len):
    """Slices of consecutive rows of an ``n_rows x row_len`` table, each
    block holding at most ``_BLOCK_ENTRIES`` entries (and at least one
    row), so a pairwise table is never held whole."""
    step = max(1, _BLOCK_ENTRIES // max(row_len, 1))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def _nearest_distances(pa, pb):
    """Distance from each point of `pa` to the nearest point of `pb`, and
    from each point of `pb` to the nearest point of `pa`.

    The distance table is taken in row blocks (:func:`_row_blocks`); a
    minimum is exact, so the result does not depend on the blocking."""
    near_a = np.empty(len(pa))
    near_b = np.full(len(pb), np.inf)
    for rows in _row_blocks(len(pa), len(pb)):
        dist = np.abs(pa[rows, None] - pb[None, :])
        near_a[rows] = dist.min(axis=1)
        np.minimum(near_b, dist.min(axis=0), out=near_b)
    return near_a, near_b


def hausdorff(a, b):
    """Hausdorff distance between two nonempty spectrum sets."""
    pa, pb = _points(a), _points(b)
    if len(pa) == 0 or len(pb) == 0:
        raise EmptySet("hausdorff distance needs two nonempty sets")
    near_a, near_b = _nearest_distances(pa, pb)
    return float(max(near_a.max(), near_b.max()))


@dataclass(frozen=True)
class MatchReport:
    """Result of matching a computed spectrum against a predicted one."""

    tol: float
    hausdorff: float
    n_computed: int
    n_predicted: int
    unmatched_computed: tuple
    unmatched_predicted: tuple
    passed: bool


def match_report(computed, predicted, tol):
    """Match two spectra at tolerance `tol` and report the discrepancies.

    A point is unmatched when no point of the other set lies within `tol`.
    The report passes when the Hausdorff distance is at most `tol`
    (equivalently, when both unmatched lists are empty).
    """
    pc, pp = _points(computed), _points(predicted)
    if len(pc) == 0 or len(pp) == 0:
        raise EmptySet("match_report needs two nonempty sets")
    near_c, near_p = _nearest_distances(pc, pp)
    un_c = tuple(pc[near_c > tol])
    un_p = tuple(pp[near_p > tol])
    h = float(max(near_c.max(), near_p.max()))
    return MatchReport(
        tol=float(tol),
        hausdorff=h,
        n_computed=len(pc),
        n_predicted=len(pp),
        unmatched_computed=un_c,
        unmatched_predicted=un_p,
        passed=h <= tol,
    )
