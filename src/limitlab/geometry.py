"""Point-cloud metrics: Hausdorff distances, diameter, sampling resolution.

All inputs are ``(m, d)`` float arrays. Distances between two clouds are
brute force (``cdist``) in row chunks of ``_CHUNK``, with a KD-tree shortcut
once the target cloud is large enough to make it worthwhile. Cloud sizes
around here are <= 1e4 points, so nothing fancier is needed.

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
needs the multiplicities too; see there). Whether the KD tree or the
brute-force path runs still follows the raw size: the two can round a
distance differently (they do in eight or more dimensions with scipy 1.17),
and keying the choice to the cloud as passed keeps every result identical to
the undeduplicated computation.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

_CHUNK = 1024
_TREE_MIN = 512


def _as_cloud(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError(f"expected a nonempty (m, d) point cloud, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point cloud contains non-finite entries")
    return p


def _distinct_rows(p: np.ndarray, counts: bool = False):
    """The distinct rows of cloud ``p``, and with ``counts`` their multiplicities.

    Rows are sorted lexicographically and runs of equal neighbours collapsed:
    ``np.unique(p, axis=0)`` without its structured-dtype sort, which costs
    several times more on the few-hundred-point clouds used here. Rows equal
    under ``==`` (so 0.0 and -0.0) are merged; they are at distance zero.
    """
    s = p[np.lexsort(p.T[::-1])]
    new = np.empty(len(s), dtype=bool)
    new[0] = True
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    if not counts:
        return s[new]
    starts = np.flatnonzero(new)
    return s[starts], np.diff(starts, append=len(s))


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


def directed_hausdorff(a, b) -> float:
    """sup over points of `a` of the distance to the nearest point of `b`."""
    a, b = _as_cloud(a), _as_cloud(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("clouds have mismatched dimension")
    use_tree = len(b) >= _TREE_MIN
    a, b = _distinct_rows(a), _distinct_rows(b)
    if use_tree:
        d, _ = cKDTree(b).query(a, k=1)
        return float(np.max(d))
    worst = 0.0
    for i in range(0, len(a), _CHUNK):
        block = cdist(a[i : i + _CHUNK], b)
        worst = max(worst, float(block.min(axis=1).max()))
    return worst


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def diameter(points) -> float:
    """Largest pairwise distance within a cloud."""
    p = _distinct_rows(_as_cloud(points))
    if len(p) == 1:
        return 0.0
    return max(float(dist.max()) for _, _, dist in _pair_blocks(p, _CHUNK)
               if dist.size)


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
    its spacing instead of 0.)
    """
    p = _as_cloud(points)
    u, count = _distinct_rows(p, counts=True)
    alone = np.flatnonzero(count == 1)
    if alone.size == 0 or len(u) == 1:
        return 0.0
    if len(p) >= _TREE_MIN:
        # the nearest hit is the singleton itself, the second its neighbour
        d, _ = cKDTree(u).query(u[alone], k=2)
        return float(np.max(d[:, 1]))
    gap = 0.0
    for i in range(0, alone.size, _CHUNK):
        rows = alone[i : i + _CHUNK]
        block = cdist(u[rows], u)
        block[np.arange(len(rows)), rows] = np.inf
        gap = max(gap, float(block.min(axis=1).max()))
    return gap


def split_discrepancy(points) -> float:
    """Hausdorff distance between two fixed random halves of one cloud.

    This measures the cloud's sampling noise floor: two independent windows
    drawn from the same limit set disagree by about as much as two random
    halves of a single window do. Nearest-neighbour gaps underestimate that
    scale when the samples cluster unevenly (the largest hole in the cloud
    can dwarf the typical nearest-neighbour spacing), so settle checks that
    compare whole windows calibrate against this instead.

    The split is seeded per call and depends only on the cloud size, so the
    result is deterministic for a given input.
    """
    p = _as_cloud(points)
    n = len(p)
    if n < 4:
        return 0.0
    perm = np.random.default_rng(0).permutation(n)
    half = n // 2
    return hausdorff(p[perm[:half]], p[perm[half:]])
