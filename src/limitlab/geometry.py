"""Point-cloud metrics: Hausdorff distances, diameter, sampling resolution.

Inputs are ``(m, d)`` float arrays, or clouds prepared once with
:func:`_prepare` (below). Nearest-neighbour distances to a cloud (Hausdorff
distances, the sampling gap) come from a KD tree on its distinct rows or from
brute-force ``cdist`` blocks of ``_CHUNK`` rows, all in one loop
(:func:`_nearest_max`); :func:`_by_tree` picks the path (see below). The
symmetric Hausdorff distance is the larger of its two directed distances,
each computed on its own.

Distances *within* one cloud (the diameter here, the injectivity probe in
``immersion``) walk its unordered pairs ``(r, c)``, ``r < c``, once each, in
row-major order (:func:`_pair_blocks`): per block of rows, ``pdist`` gives
the pairs inside the block and ``cdist`` those from the block to every later
row. Both compute a pair with the same Euclidean kernel, and a distance does
not depend on the order of its two points (``(a - b)**2 == (b - a)**2``), so
each value is bit for bit the corresponding entry of the full ``cdist(p, p)``
matrix; the walk only skips the diagonal and the mirrored lower triangle. A
block of ``b`` rows starting at row ``i`` holds ``b*(b-1)/2 + b*(m-i-b) <
b*m`` distances, less than a ``b``-row chunk of the full matrix.

Every metric runs on the *distinct* rows of its clouds. Limit-set clouds are
raw tail windows, so a fixed point is hundreds of copies of one point and a
period-2 orbit has two distinct values; deduplicating first makes those
cases cost what their distinct points cost. A copy adds no pairwise distance
its original does not already have, so Hausdorff distances and the diameter
are maxima and minima over the same values, computed by the same
arithmetic, and come out bit for bit as on the raw cloud (``sampling_gap``
needs the multiplicities too; see there).

The path rule (:func:`_by_tree`) takes the tree for a cloud of at least
``_TREE_DISTINCT`` distinct rows, in every dimension, so every metric
depends only on a cloud's distinct rows. Below 8 columns the tree and
``cdist`` both add the squared coordinate differences in column order and
take one square root, so they return the same bits (with scipy 1.17, on
lattice ties, near-duplicates and magnitudes from 1e-310 to 1e300); the
tree is then only a cheaper way to the same value. From 8 columns on the two
can round a distance differently, each within the error that :func:`_margin`
bounds.

A cloud that is measured many times (a tail window compared with the next
one, an estimate against every catalog cluster, a catalog member against
every query) is prepared once as a :class:`_Cloud`. It keeps the validated
points as passed and computes on first use, then keeps, its distinct rows,
their counts, its bounding box and a KD tree on the distinct rows. Every
metric takes a prepared cloud wherever it takes an array and returns the
same value to the bit: the derived forms are the ones the metric would
otherwise compute from the raw points. It also keeps its sampling gap and
its diameter once computed, so a window classified as a curve and then
clustered is measured once, and a diameter is computed only where something
reads it: the shape test of ``limits`` brackets it by one row of distances
(:func:`_diameter_bracket`) and computes it only where the bracket leaves
the shape open, and a catalog member's diameter is read only by the
catalog report.

Catalog loops skip a Hausdorff distance that a lower bound already decides
(:func:`_hausdorff_lower_bounds`). Every point of one cloud has its nearest
point of the other inside the other's bounding box, so the largest distance
from a point of either cloud to the other's box is at most their Hausdorff
distance. The computed bound and the computed distance both carry rounding
error, so the bound is narrowed by the margin of :func:`_margin`, which
exceeds both errors together: the narrowed bound never exceeds the distance
:func:`hausdorff` returns, and a pair it rules out could not have changed a
comparison or a minimum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .dynamics import _fold_norm

_CHUNK = 1024
_TREE_DISTINCT = 128    # distinct rows from which a cloud takes the KD tree


def _as_cloud(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError(f"expected a nonempty (m, d) point cloud, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point cloud contains non-finite entries")
    return p


def _distinct_rows(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of cloud ``p`` and their multiplicities, from one sort.

    Rows are sorted lexicographically and runs of equal neighbours collapsed:
    ``np.unique(p, axis=0)`` without its structured-dtype sort, which costs
    several times more on the few-hundred-point clouds used here. Rows equal
    under ``==`` (so 0.0 and -0.0) are merged; they are at distance zero.
    """
    s = p[np.lexsort(p.T[::-1])]
    new = np.empty(len(s), dtype=bool)
    new[0] = True
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    return s[starts], np.diff(starts, append=len(s))


class _Cloud:
    """A validated ``(m, d)`` point cloud and the forms the metrics derive from it.

    ``points`` is the cloud as passed; ``len()`` and ``np.asarray`` give it.
    The distinct rows, their counts, the bounding box of the distinct rows, a
    KD tree on them, the sampling gap and the diameter are computed on first
    use and kept. The points must not change afterwards. Make one with
    :func:`_prepare`.
    """

    __slots__ = ("points", "_distinct", "_counts", "_box", "_tree", "_gap", "_diameter")

    def __init__(self, points: np.ndarray):
        self.points = points
        self._distinct = self._counts = self._box = self._tree = None
        self._gap = self._diameter = None

    def __len__(self) -> int:
        return len(self.points)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)

    @property
    def distinct(self) -> np.ndarray:
        if self._distinct is None:
            self._distinct, self._counts = _distinct_rows(self.points)
        return self._distinct

    @property
    def counts(self) -> np.ndarray:
        """Multiplicity of each distinct row, in the order of :attr:`distinct`."""
        self.distinct               # the rows and their counts come together
        return self._counts

    @property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate minima and maxima of the points."""
        if self._box is None:
            self._box = self.distinct.min(axis=0), self.distinct.max(axis=0)
        return self._box

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.distinct)
        return self._tree

    @property
    def gap(self) -> float:
        """:func:`sampling_gap` of the points."""
        if self._gap is None:
            self._gap = _sampling_gap(self)
        return self._gap

    @property
    def diameter(self) -> float:
        """:func:`diameter` of the points."""
        if self._diameter is None:
            self._diameter = _diameter(self)
        return self._diameter


def _by_tree(c: _Cloud) -> bool:
    """Whether nearest-neighbour queries against ``c`` use its KD tree: from
    ``_TREE_DISTINCT`` distinct rows (see the module docstring)."""
    return len(c.distinct) >= _TREE_DISTINCT


def _prepare(points) -> _Cloud:
    """``points`` as a :class:`_Cloud`: a prepared cloud is returned as it is,
    anything else is validated as a nonempty, finite ``(m, d)`` float array
    (a flat array is a cloud of scalars)."""
    if isinstance(points, _Cloud):
        return points
    return _Cloud(_as_cloud(points))


def _margin(d: int) -> tuple[float, float]:
    """The relative and absolute widening, ``(16 (d + 2) eps, 16 sqrt(d)
    2**-537)``, that makes a bound computed from 2-norms of ``d`` coordinate
    differences safe against another computed distance.

    A computed 2-norm of ``d`` differences is within ``(d + 2) eps`` relative
    and ``sqrt(d) 2**-537`` absolute of the exact norm: each difference,
    square, sum and the root round once, and a square that underflows loses
    at most ``2**-1075``. ``cdist``, ``pdist`` and the KD tree carry the same
    error. The margin is more than both errors together, so a bound widened by
    it sits on the right side of the computed distance it is compared with,
    and a tie, a near-tie or an underflowed distance decides nothing."""
    return 16 * (d + 2) * np.finfo(float).eps, 16 * np.sqrt(d) * 2.0 ** -537


def _box_lower(Q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A lower bound on the distance from each point of ``Q`` (``(..., d)``)
    to the box ``[lo, hi]`` (broadcast against ``Q``), safe against computed
    distances: the computed box distance narrowed by :func:`_margin`, or
    ``-inf`` where it overflowed.

    The box distance is :func:`dynamics._fold_norm` over the per-column
    gaps: each column's gap ``max(lo - q, q - hi, 0)`` is formed in one
    scratch buffer and handed to the fold, whose accumulator then takes the
    margin. Those are the operations of the row norm of the full gap array,
    on the same operands in the same order, so the bits are the same, in
    either memory order of ``Q``, without the ``(..., d)`` temporaries."""
    d = Q.shape[-1]
    rho, alpha = _margin(d)

    def gaps():
        gap = above = None
        for j in range(d):
            q = Q[..., j]
            gap = np.subtract(lo[..., j], q, out=gap)
            above = np.subtract(q, hi[..., j], out=above)
            np.maximum(gap, above, out=gap)
            yield np.maximum(gap, 0.0, out=gap)

    with np.errstate(over="ignore"):
        box = _fold_norm(gaps())
        finite = np.isfinite(box)
        np.multiply(box, 1 - rho, out=box)
        box -= alpha
        np.copyto(box, -np.inf, where=~finite)
        return box


def _hausdorff_lower_bounds(a: _Cloud, others: list[_Cloud]) -> np.ndarray:
    """For each cloud ``b`` of ``others``, a value that never exceeds
    ``hausdorff(a, b)``: the largest distance from a point of ``a`` to the box
    of ``b`` or from a point of ``b`` to the box of ``a``, narrowed by
    :func:`_box_lower`. The nearest point of ``b`` to a point of ``a`` lies in
    the box of ``b``, so the exact distance to the box is at most the exact
    directed distance, and the margin keeps that order for the computed
    values."""
    if not others:
        return np.empty(0)
    lo = np.array([b.box[0] for b in others])
    hi = np.array([b.box[1] for b in others])
    u = a.distinct
    bound = np.full(len(others), -np.inf)
    for i in range(0, len(u), _CHUNK):
        np.maximum(bound, _box_lower(u[i:i + _CHUNK, None], lo, hi).max(axis=0), out=bound)
    rows = [b.distinct for b in others]
    starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
    back = np.maximum.reduceat(_box_lower(np.concatenate(rows), *a.box), starts)
    return np.maximum(bound, back)


def _pair_blocks(p: np.ndarray, rows: int):
    """Walk the pairs ``(r, c)``, ``r < c``, of cloud ``p`` in blocks of ``rows`` rows.

    Yields ``(i, b, dist)`` per block: its first row ``i``, its row count
    ``b`` and the flat distances of its pairs, the ``b*(b-1)/2`` pairs inside
    the block (``pdist`` order) followed by the ``b x (m - i - b)`` pairs from
    the block to the later rows (row-major). :func:`_pair_rows` maps
    positions in ``dist`` back to ``(r, c)``.
    """
    m = len(p)
    for i in range(0, m, rows):
        b = min(rows, m - i)
        inner = b * (b - 1) // 2
        dist = np.empty(inner + b * (m - i - b))
        pdist(p[i:i + b], out=dist[:inner])
        cdist(p[i:i + b], p[i + b:], out=dist[inner:].reshape(b, m - i - b))
        yield i, b, dist


def _pair_rows(m: int, i: int, b: int, pos: np.ndarray, first: int):
    """The first ``first`` pairs, in row-major order, among the positions
    ``pos`` (ascending) of the :func:`_pair_blocks` block that starts at row
    ``i`` with ``b`` rows of an ``m``-row cloud: their positions and rows,
    as arrays ``(pos, r, c)``."""
    inner = b * (b - 1) // 2
    split = int(np.searchsorted(pos, inner))
    # each part is row-major on its own, so the block's first pairs are among
    # the first pairs of each part
    pin, pout = pos[:split][:first], pos[split:][:first]
    k = np.arange(b)
    starts = k * (2 * b - k - 1) // 2          # position of each row's first inner pair
    r_in = np.searchsorted(starts, pin, side="right") - 1
    c_in = pin - starts[r_in] + r_in + 1
    r_out, c_out = np.divmod(pout - inner, max(m - i - b, 1))
    r = np.concatenate((r_in, r_out)) + i
    c = np.concatenate((c_in, c_out + b)) + i
    order = np.lexsort((c, r))[:first]
    return np.concatenate((pin, pout))[order], r[order], c[order]


def _pair(a, b) -> tuple[_Cloud, _Cloud]:
    a, b = _prepare(a), _prepare(b)
    if a.points.shape[1] != b.points.shape[1]:
        raise ValueError("clouds have mismatched dimension")
    return a, b


def _nearest_max(q: np.ndarray, c: _Cloud, skip: np.ndarray | None = None) -> float:
    """The largest distance from a row of ``q`` to its nearest distinct point
    of ``c``, by ``c``'s KD tree or by ``cdist`` blocks as :func:`_by_tree`
    picks. ``skip``, when given, holds for each row of ``q`` the index of that
    row among ``c``'s distinct rows: the row is not its own nearest point."""
    if _by_tree(c):
        if skip is None:
            d, _ = c.tree.query(q, k=1)
            return float(np.max(d))
        # the nearest hit is the row itself, the second its neighbour
        d, _ = c.tree.query(q, k=2)
        return float(np.max(d[:, 1]))
    worst = 0.0
    for i in range(0, len(q), _CHUNK):
        block = cdist(q[i : i + _CHUNK], c.distinct)
        if skip is not None:
            block[np.arange(len(block)), skip[i : i + _CHUNK]] = np.inf
        worst = max(worst, float(block.min(axis=1).max()))
    return worst


def directed_hausdorff(a, b) -> float:
    """sup over points of `a` of the distance to the nearest point of `b`."""
    a, b = _pair(a, b)
    return _nearest_max(a.distinct, b)


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    a, b = _pair(a, b)
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def diameter(points) -> float:
    """Largest pairwise distance within a cloud. A prepared cloud computes it
    once."""
    return _prepare(points).diameter


def _diameter(c: _Cloud) -> float:
    p = c.distinct
    if len(p) == 1:
        return 0.0
    return max(float(dist.max()) for _, _, dist in _pair_blocks(p, _CHUNK)
               if dist.size)


def _diameter_bracket(c: _Cloud) -> tuple[float, float]:
    """``(low, high)`` with ``low <= diameter(c) <= high``, from one row of
    distances: ``low`` is the largest distance from the first distinct row to
    the others, and ``high`` is ``2 low`` widened by :func:`_margin`.

    ``low`` is a pair distance of the cloud, computed by the kernel that
    computes the diameter, so the diameter is at least it to the bit. Every
    point lies within the exact ``low`` of the first row, so the exact
    diameter is at most twice that, and the margin, which exceeds the
    rounding of both computed values together, keeps ``high`` above the
    computed diameter, as it keeps the separation bound of
    ``limits._SettleStage`` on the right side of the tree's distances."""
    p = c.distinct
    low = float(cdist(p[:1], p).max())
    rho, alpha = (float(v) for v in _margin(p.shape[1]))
    return low, (low + low) * (1 + rho) + alpha


def sampling_gap(points) -> float:
    """max over points of the distance to the nearest *other* sample.

    This is the cloud's own resolution: a finite window sampled from a curve
    can only agree with another window up to roughly this scale. Duplicated
    points give gap 0, so clouds that have genuinely settled (fixed points,
    periodic orbits) report a strict resolution.

    The gap is computed on the distinct rows and their counts, and equals the
    raw-cloud value exactly: a point with a twin has a nearest other sample
    at distance 0, and a point without one has as its nearest other sample
    the nearest *other distinct* point. So the gap is the largest such
    distance over the singletons, or 0 when every point has a twin. (The gap
    of the distinct rows alone differs: a settled period-2 cloud would report
    its spacing instead of 0.) A prepared cloud computes it once.
    """
    return _prepare(points).gap


def _sampling_gap(p: _Cloud) -> float:
    alone = np.flatnonzero(p.counts == 1)
    if alone.size == 0 or len(p.distinct) == 1:
        return 0.0
    return _nearest_max(p.distinct[alone], p, skip=alone)


def split_discrepancy(points) -> float:
    """Hausdorff distance between two fixed random halves of one cloud.

    This measures the cloud's sampling noise floor: two independent windows
    drawn from the same limit set disagree by about as much as two random
    halves of a single window do. Nearest-neighbour gaps underestimate that
    scale when the samples cluster unevenly (the largest hole in the cloud
    can dwarf the typical nearest-neighbour spacing), so settle checks that
    compare whole windows calibrate against this instead.

    The split is the permutation of :func:`_split_permutation`, which depends
    only on the cloud size, so the result is deterministic for a given input.
    """
    p = _prepare(points).points
    n = len(p)
    if n < 4:
        return 0.0
    perm = _split_permutation(n)
    half = n // 2
    return hausdorff(_Cloud(p[perm[:half]]), _Cloud(p[perm[half:]]))


@lru_cache(maxsize=64)
def _split_permutation(n: int) -> np.ndarray:
    """``np.random.default_rng(0).permutation(n)``, drawn once per size and
    kept read-only: a settle test splits every window of a tail length the
    same way."""
    perm = np.random.default_rng(0).permutation(n)
    perm.flags.writeable = False
    return perm
