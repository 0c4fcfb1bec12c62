"""Point-cloud metric helpers, checked against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from limitlab import (diameter, directed_hausdorff, hausdorff, sampling_gap,
                      split_discrepancy)
from limitlab.geometry import (_TREE_DISTINCT, _box_lower, _by_tree, _diameter_bracket,
                               _hausdorff_lower_bounds, _margin, _prepare,
                               _split_permutation)

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def clouds(max_points=12, dim=2):
    return st.lists(st.lists(finite, min_size=dim, max_size=dim),
                    min_size=1, max_size=max_points).map(np.array)


def brute_directed(a, b):
    return max(min(float(np.linalg.norm(p - q)) for q in b) for p in a)


# -- oracle agreement ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(clouds(), clouds())
def test_directed_hausdorff_matches_bruteforce(a, b):
    assert directed_hausdorff(a, b) == pytest.approx(brute_directed(a, b), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(clouds(), clouds())
def test_hausdorff_is_max_of_directed(a, b):
    expected = max(brute_directed(a, b), brute_directed(b, a))
    assert hausdorff(a, b) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_diameter_matches_bruteforce(a):
    expected = max((float(np.linalg.norm(p - q)) for p in a for q in a), default=0.0)
    assert diameter(a) == pytest.approx(expected, rel=1e-12, abs=1e-300)


# -- metric properties -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(clouds(), clouds())
def test_hausdorff_symmetry(a, b):
    assert hausdorff(a, b) == hausdorff(b, a)


@settings(max_examples=40, deadline=None)
@given(clouds())
def test_hausdorff_self_distance_zero(a):
    assert hausdorff(a, a) == 0.0


@settings(max_examples=40, deadline=None)
@given(clouds(), clouds(), clouds())
def test_hausdorff_triangle_inequality(a, b, c):
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


@settings(max_examples=40, deadline=None)
@given(clouds(max_points=8))
def test_directed_subset_is_zero(a):
    superset = np.vstack([a, a + 50.0])
    assert directed_hausdorff(a, superset) == 0.0
    assert directed_hausdorff(superset, a) >= 0.0


def test_hausdorff_known_values():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [3.0]])
    assert directed_hausdorff(a, b) == 1.0   # 1 is 1 away from {0, 3}
    assert directed_hausdorff(b, a) == 2.0   # 3 is 2 away from {0, 1}
    assert hausdorff(a, b) == 2.0


def test_kdtree_and_direct_paths_agree(rng):
    # the implementation switches to a spatial tree for large clouds; both
    # paths must compute the same metric
    big = rng.normal(size=(2000, 2))
    small = rng.normal(size=(40, 2))
    assert directed_hausdorff(small, big) == pytest.approx(
        brute_directed(small, big), rel=1e-12)
    sub = big[::50]
    assert directed_hausdorff(sub, big) == 0.0


# -- diameter / sampling gap -----------------------------------------------------

def test_diameter_edge_cases():
    assert diameter(np.array([[1.0, 2.0]])) == 0.0
    assert diameter(np.array([[0.0], [3.0]])) == 3.0


def test_sampling_gap_regular_grid():
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    assert sampling_gap(pts) == pytest.approx(0.1, rel=1e-12)


def test_sampling_gap_with_duplicates_is_zero():
    pts = np.array([[0.7], [-0.7], [0.7], [-0.7]])
    assert sampling_gap(pts) == 0.0


def test_sampling_gap_single_point():
    assert sampling_gap(np.array([[2.0, 1.0]])) == 0.0


def test_scalar_cloud_promotion():
    # 1-d inputs are treated as a cloud of scalars
    assert hausdorff([0.0, 1.0], [0.0, 3.0]) == 2.0


# -- split discrepancy ------------------------------------------------------------

def test_split_discrepancy_settled_clouds_are_silent():
    # fixed points and periodic orbits have no sampling noise: any half of
    # the cloud already covers the other half exactly
    assert split_discrepancy(np.full((500, 1), 0.25)) == 0.0
    per2 = np.array([[-1.0], [1.0]] * 250)
    assert split_discrepancy(per2) == 0.0


def test_split_discrepancy_tiny_clouds_are_zero():
    assert split_discrepancy(np.array([[0.0], [1.0], [2.0]])) == 0.0


def test_split_discrepancy_matches_coverage_scale():
    # an even sampling of a segment: the halves miss each other by the longest
    # run the split assigns to one side, a few spacings (~log2 n), never the
    # diameter
    pts = np.linspace(0.0, 1.0, 1000)[:, None]
    spacing = 1.0 / 999
    d = split_discrepancy(pts)
    assert spacing <= d < 15.0 * spacing


def test_split_discrepancy_sees_holes_that_nearest_neighbours_miss(rng):
    # two tight clumps: nearest-neighbour gaps stay tiny while any split
    # still has to bridge within-clump spread only -- but thin out one clump
    # and the lone straggler lands in one half, forcing the other half to
    # reach across to it
    clump = rng.normal(scale=1e-4, size=(200, 1))
    cloud = np.vstack([clump, [[1.0]]])
    assert sampling_gap(cloud) == pytest.approx(1.0, rel=1e-2)
    assert split_discrepancy(cloud) == pytest.approx(1.0, rel=1e-2)


def test_split_discrepancy_deterministic():
    pts = np.random.default_rng(7).normal(size=(501, 2))
    assert split_discrepancy(pts) == split_discrepancy(pts)


# -- duplicate-heavy clouds: exact agreement with the raw cloud ---------------------
#
# The metrics run on distinct rows. A copy adds no new pairwise distance, so
# the results must equal, bit for bit, an all-pairs computation on the cloud
# as given. The oracle sums squared coordinate differences in order, column
# by column, and takes the square root: the arithmetic of scipy's ``cdist``
# and ``pdist`` in any dimension, and of the KD tree in the few dimensions
# these tests give it. (numpy's ``sum`` over eight or more columns adds
# pairwise, so it is not used.)

def pairwise(a, b):
    acc = np.zeros((len(a), len(b)))
    sq = np.empty_like(acc)
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=sq)
        sq *= sq
        acc += sq
    return np.sqrt(acc)


def oracle_directed(a, b):
    return float(pairwise(a, b).min(axis=1).max())


def oracle_diameter(a):
    return max(float(pairwise(a[i:i + 256], a).max()) for i in range(0, len(a), 256))


def oracle_gap(a):
    if len(a) == 1:
        return 0.0
    d = pairwise(a, a)
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).max())


@st.composite
def repeated_clouds(draw, dim=2, big=None):
    """A few rows, each repeated some number of times, then shuffled.

    ``big`` adds ``_TREE_DISTINCT`` seeded rows, once each, so the cloud's
    distinct rows reach the KD-tree threshold, and pads the first row's
    copies to 512 raw rows.
    """
    rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                         min_size=1, max_size=10))
    reps = draw(st.lists(st.sampled_from([1, 1, 2, 3, 17]),
                         min_size=len(rows), max_size=len(rows)))
    if big is None:
        big = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if big:
        rows += rng.uniform(-100.0, 100.0, (_TREE_DISTINCT, dim)).tolist()
        reps += [1] * _TREE_DISTINCT
        reps[0] += max(0, 512 - sum(reps))
    cloud = np.repeat(np.array(rows, dtype=float), reps, axis=0)
    return cloud[rng.permutation(len(cloud))]


@settings(max_examples=80, deadline=None)
@given(repeated_clouds(), repeated_clouds())
def test_directed_hausdorff_exact_on_repeated_clouds(a, b):
    assert directed_hausdorff(a, b) == oracle_directed(a, b)
    assert directed_hausdorff(b, a) == oracle_directed(b, a)


@settings(max_examples=80, deadline=None)
@given(repeated_clouds(dim=1), repeated_clouds(dim=1))
def test_hausdorff_exact_on_repeated_clouds(a, b):
    assert hausdorff(a, b) == max(oracle_directed(a, b), oracle_directed(b, a))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda d: st.tuples(repeated_clouds(dim=d), repeated_clouds(dim=d))))
def test_hausdorff_exact_on_repeated_clouds_in_the_plane_and_in_space(pair):
    # both directions from one distance block (or the tree, from _TREE_DISTINCT
    # distinct rows)
    a, b = pair
    assert hausdorff(a, b) == max(oracle_directed(a, b), oracle_directed(b, a))


@settings(max_examples=80, deadline=None)
@given(repeated_clouds(dim=3))
def test_diameter_exact_on_repeated_clouds(a):
    assert diameter(a) == oracle_diameter(a)


@pytest.mark.parametrize("n", [1100, 2100])
@pytest.mark.parametrize("d", [1, 8, 20])
@pytest.mark.parametrize("scale", [1e-310, 1.0, 1e150])
def test_diameter_exact_on_large_clouds(n, d, scale, rng):
    # more distinct rows than one and two chunks of the pair walk, with
    # duplicate rows and zeros of both signs mixed in
    a = rng.normal(size=(n, d)) * scale
    cloud = np.vstack([a, a[::7], np.zeros((3, d)), -np.zeros((3, d))])
    cloud = cloud[rng.permutation(len(cloud))]
    assert len(np.unique(cloud, axis=0)) == n + 1
    assert diameter(cloud) == oracle_diameter(cloud)


@settings(max_examples=120, deadline=None)
@given(repeated_clouds())
def test_sampling_gap_exact_on_mixed_clouds(a):
    # rows repeated once are singletons, the rest have twins
    assert sampling_gap(a) == oracle_gap(a)


@settings(max_examples=40, deadline=None)
@given(repeated_clouds(big=True), repeated_clouds(big=False))
def test_exact_across_the_tree_threshold(big, small):
    # the big cloud takes the KD-tree path, the small one brute force
    assert _by_tree(_prepare(big)) and not _by_tree(_prepare(small))
    assert directed_hausdorff(small, big) == oracle_directed(small, big)
    assert directed_hausdorff(big, small) == oracle_directed(big, small)
    assert sampling_gap(big) == oracle_gap(big)
    assert diameter(big) == oracle_diameter(big)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("scale", [1e-310, 1e-160, 1e-23, 1.0, 1e150, 1e300])
def test_the_one_row_bracket_holds_the_diameter(d, scale, rng):
    for n in list(range(1, 12)) + [200, 1100]:
        cloud = rng.normal(size=(n, d)) * scale
        low, high = _diameter_bracket(_prepare(cloud))
        assert low <= diameter(cloud) <= high


def test_a_prepared_cloud_keeps_its_diameter(rng):
    cloud = _prepare(rng.normal(size=(300, 2)))
    assert cloud._diameter is None
    first = diameter(cloud)
    assert cloud._diameter == first == diameter(cloud.points)


def test_the_split_is_drawn_once_per_size_and_kept_read_only():
    for n in (4, 5, 200, 201):
        perm = _split_permutation(n)
        assert np.array_equal(perm, np.random.default_rng(0).permutation(n))
        assert _split_permutation(n) is perm and not perm.flags.writeable


def test_sampling_gap_counts_only_singletons(rng):
    # a settled cloud plus one straggler: only the straggler has a gap, and
    # its gap is to the nearest other distinct point
    settled = np.repeat([[0.0, 0.0], [1.0, 0.0]], 300, axis=0)
    cloud = np.vstack([settled, [[0.0, 0.5]]])[rng.permutation(601)]
    assert sampling_gap(cloud) == 0.5
    assert sampling_gap(settled) == 0.0
    assert sampling_gap(np.vstack([cloud, [[0.0, 0.5]]])) == 0.0


def test_signed_zeros_are_one_point():
    # 0.0 and -0.0 are at distance zero, so each is the other's twin
    assert sampling_gap(np.array([[0.0], [-0.0], [1e-3], [1e-3]])) == 0.0
    assert diameter(np.array([[0.0], [-0.0]])) == 0.0


def test_path_choice_follows_the_distinct_rows(rng):
    # in eight or more dimensions the KD tree and the brute-force path can
    # round a distance differently; the distinct rows pick the path, so a
    # cloud's copies change no distance
    base = rng.normal(size=(40, 10))
    big = np.repeat(base, 16, axis=0)[rng.permutation(640)]
    wide = rng.normal(size=(_TREE_DISTINCT, 10))
    tree = cKDTree(wide)
    wide_copies = np.repeat(wide, 3, axis=0)[rng.permutation(3 * _TREE_DISTINCT)]
    for q in rng.normal(size=(100, 1, 10)):
        nearest = float(cdist(q, base).min())
        assert directed_hausdorff(q, big) == directed_hausdorff(q, base) == nearest
        # every row of big has twins, so the lone query sets the gap
        assert sampling_gap(np.vstack([big, q])) == nearest
        nearest = float(tree.query(q)[0][0])
        assert directed_hausdorff(q, wide_copies) == directed_hausdorff(q, wide) == nearest


# -- the path rule: the KD tree below 8 columns gives cdist's bits ------------------------
#
# A cloud with _TREE_DISTINCT distinct rows takes the KD tree, whatever its
# raw size. The clouds below sit on both sides of that cut, with raw sizes on
# both sides of 512; the oracle is scipy's cdist on the raw clouds.

def cdist_directed(a, b):
    return float(cdist(a, b).min(axis=1).max())


def cdist_gap(a):
    if len(a) == 1:
        return 0.0
    d = cdist(a, a)
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).max())


# (distinct rows, raw rows) on either side of _TREE_DISTINCT and of 512
PATH_SIZES = [(_TREE_DISTINCT - 1, _TREE_DISTINCT - 1), (_TREE_DISTINCT, _TREE_DISTINCT),
              (_TREE_DISTINCT - 1, 511), (_TREE_DISTINCT, 511),
              (40, 511), (40, 512), (300, 300)]


def _path_cloud(rng, d, distinct, raw, kind, scale):
    """``distinct`` rows of one kind, topped up with copies to ``raw`` rows:
    integer lattice points (many tied distances), rows that each have a
    near-duplicate 1e-13 away in relative terms, or plain normal rows."""
    if kind == "lattice":
        side = int(np.ceil(distinct ** (1 / d))) + 1
        grid = np.unique(rng.integers(-side, side + 1, size=(8 * distinct, d)), axis=0)
        rows = grid[rng.permutation(len(grid))[:distinct]].astype(float)
    elif kind == "near-duplicate":
        half = rng.normal(size=((distinct + 1) // 2, d))
        rows = np.vstack([half, half * (1 + 1e-13 * rng.normal(size=half.shape))])[:distinct]
    else:
        rows = rng.normal(size=(distinct, d))
    cloud = np.vstack([rows, rows[rng.integers(0, distinct, raw - distinct)]]) * scale
    return cloud[rng.permutation(raw)]


# squares in the subnormal range (scale 1e-155) are slow to compute, so that
# scale runs at one and at three columns only
@pytest.mark.parametrize("d, scale", [(d, scale) for d in range(1, 8)
                                      for scale in (1e-310, 1.0, 1e150)]
                         + [(1, 1e-155), (3, 1e-155)])
@pytest.mark.parametrize("kind", ["lattice", "near-duplicate", "normal"])
def test_path_rule_below_eight_columns_gives_the_cdist_bits(d, scale, kind, rng):
    clouds = [_path_cloud(rng, d, distinct, raw, kind, scale) for distinct, raw in PATH_SIZES]
    tree_sides = set()
    for k, c in enumerate(clouds):
        other = clouds[(k + 3) % len(clouds)]
        distinct = len(np.unique(c, axis=0))
        by_tree = distinct >= _TREE_DISTINCT
        tree_sides.add(by_tree)
        pc = _prepare(c)
        assert _by_tree(pc) == by_tree
        assert directed_hausdorff(other, pc) == cdist_directed(other, c)
        assert (pc._tree is not None) == by_tree      # the rule picked the path
        assert directed_hausdorff(pc, other) == cdist_directed(c, other)
        assert hausdorff(pc, other) == hausdorff(other, c) == max(
            cdist_directed(c, other), cdist_directed(other, c))
        assert sampling_gap(pc) == sampling_gap(c) == cdist_gap(c)
        # a lone extra point: the k = 2 self query of the tree path
        lone = other[:1] * 0.5
        assert sampling_gap(np.vstack([c, lone])) == cdist_gap(np.vstack([c, lone]))
    assert tree_sides == {True, False}


def test_path_rule_reads_only_the_distinct_rows_in_every_dimension(rng):
    # the tree from _TREE_DISTINCT distinct rows, brute force below, however
    # many copies each row has
    for d in (7, 8, 10):
        for distinct, copies in ((_TREE_DISTINCT - 1, 5), (_TREE_DISTINCT, 1), (300, 1)):
            rows = rng.normal(size=(distinct, d))
            pc = _prepare(np.repeat(rows, copies, axis=0))
            assert _by_tree(pc) == (distinct >= _TREE_DISTINCT)


# -- prepared clouds: the same values as the raw arrays ---------------------------------
#
# A prepared cloud keeps its distinct rows, counts, box and KD tree after the
# first metric that needs them, so the same object is measured several times
# and in varying orders. Its distinct rows pick the path, as they do for the
# raw array: d = 8 and 10 are where the KD tree and the brute-force path can
# round differently.

SCALES = [1e-310, 1e-155, 1.0, 1e150]


@st.composite
def scaled_clouds(draw, dim, scale):
    """Repeated rows of one dimension and scale, some of them signed zeros,
    distinct rows past the tree threshold about half the time."""
    cloud = draw(repeated_clouds(dim=dim)) * scale
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
    for z in zeros:
        cloud = np.vstack([cloud, np.full((1, dim), z)])
    return cloud


@st.composite
def cloud_pairs(draw):
    dim = draw(st.sampled_from([1, 2, 8, 10]))
    scale = draw(st.sampled_from(SCALES))
    return draw(scaled_clouds(dim, scale)), draw(scaled_clouds(dim, scale))


def _one_cloud_metrics(p):
    return [diameter(p), sampling_gap(p), split_discrepancy(p)]


@settings(max_examples=150, deadline=None)
@given(cloud_pairs(), st.permutations(range(4)))
def test_metrics_on_prepared_clouds_equal_the_raw_arrays(pair, order):
    a, b = pair
    want = {"ab": directed_hausdorff(a, b), "ba": directed_hausdorff(b, a),
            "h": hausdorff(a, b), "one": _one_cloud_metrics(a) + _one_cloud_metrics(b)}
    pa, pb = _prepare(a), _prepare(b)
    assert len(pa) == len(a) and np.asarray(pa) is pa.points
    # the cached forms are filled in a different order in each example
    steps = [lambda: _one_cloud_metrics(pa) + _one_cloud_metrics(pb),
             lambda: directed_hausdorff(pa, pb), lambda: directed_hausdorff(pb, pa),
             lambda: hausdorff(pa, pb)]
    got = {}
    for k in order:
        got[k] = steps[k]()
    assert got[0] == want["one"]
    assert got[1] == want["ab"] and got[2] == want["ba"] and got[3] == want["h"]
    # mixed arguments, and every metric again on the now-filled caches
    assert directed_hausdorff(pa, b) == directed_hausdorff(a, pb) == want["ab"]
    assert hausdorff(pb, a) == hausdorff(b, pa) == hausdorff(pb, pa) == want["h"]
    assert _one_cloud_metrics(pa) + _one_cloud_metrics(pb) == want["one"]


@pytest.mark.parametrize("d", [1, 2, 8, 10])
@pytest.mark.parametrize("scale", SCALES)
def test_prepared_clouds_keep_the_path_of_the_raw_size(d, scale, rng):
    # 642 raw rows, 40 distinct and two signed zeros: the raw array and its
    # prepared cloud take the brute-force path of their distinct rows
    base = rng.normal(size=(40, d)) * scale
    big = np.vstack([np.repeat(base, 16, axis=0), np.zeros((1, d)), -np.zeros((1, d))])
    big = big[rng.permutation(len(big))]
    small = rng.normal(size=(100, d)) * scale
    prepared = _prepare(big)
    assert len(prepared) == 642 and len(prepared.distinct) == 41
    assert not _by_tree(prepared)
    distinct = np.unique(big, axis=0)
    for q in small:
        nearest = float(cdist(q[None], distinct).min())
        assert directed_hausdorff(q[None], prepared) == directed_hausdorff(q[None], big) == nearest
        # every row of big has a twin, so the lone query sets the gap
        assert sampling_gap(_prepare(np.vstack([big, q]))) == nearest
    assert directed_hausdorff(prepared, small) == oracle_directed(big, small)
    assert diameter(prepared) == oracle_diameter(big)


# -- the box bound never exceeds the computed distance ------------------------------------

def _bound(a, b):
    return float(_hausdorff_lower_bounds(_prepare(a), [_prepare(b)])[0])


@settings(max_examples=150, deadline=None)
@given(cloud_pairs())
def test_box_bound_is_below_the_hausdorff_distance(pair):
    a, b = pair
    h = hausdorff(a, b)
    assert _bound(a, b) <= h and _bound(b, a) <= h


@st.composite
def near_ties(draw):
    """``a`` is one point straight out from a face of ``b``'s box, through a
    point of ``b`` on that face: in exact arithmetic the box distance and the
    Hausdorff distance from ``a`` are both the offset, so the computed values
    tie or nearly tie."""
    dim = draw(st.sampled_from([1, 2, 8, 10]))
    scale = draw(st.sampled_from(SCALES))
    b = draw(repeated_clouds(dim=dim, big=False)) * scale
    axis = draw(st.integers(0, dim - 1))
    face = b[np.argmax(b[:, axis])]
    offset = draw(st.floats(min_value=1e-6, max_value=1e3)) * scale
    a = face.copy()
    a[axis] += offset
    return a[None], b


@settings(max_examples=200, deadline=None)
@given(near_ties())
def test_box_bound_on_near_ties(case):
    a, b = case
    h = hausdorff(a, b)
    assert _bound(a, b) <= h
    # and the bound gives up no more than its margin
    assert _bound(a, b) >= directed_hausdorff(a, b) * (1 - 1e-12) - 1e-159


def test_box_bound_on_subnormal_and_huge_clouds(rng):
    for scale in (5e-324, 1e-310, 1e150, 1e300):
        for _ in range(50):
            a = rng.normal(size=(int(rng.integers(1, 30)), 2)) * scale
            b = rng.normal(size=(int(rng.integers(1, 30)), 2)) * scale + scale
            assert _bound(a, b) <= hausdorff(a, b)
    # a distance that overflows bounds nothing
    far = np.array([[1e308, -1e308]])
    assert _bound(far, -far) == -np.inf


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _box_lower_of_the_gap_array(Q, lo, hi):
    # the box bound written on the full (..., d) gap array, its squares added
    # in column order at every width
    rho, alpha = _margin(Q.shape[-1])
    with np.errstate(over="ignore"):
        gap = np.maximum(np.maximum(lo - Q, Q - hi), 0.0)
        sq = gap * gap
        acc = sq[..., 0]
        for k in range(1, Q.shape[-1]):
            acc = acc + sq[..., k]
        box = np.sqrt(acc)
        return np.where(np.isfinite(box), box * (1 - rho) - alpha, -np.inf)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_box_lower_folds_columns_to_the_bits_of_the_gap_array(d, rng):
    # rows inside, beside and far from the boxes, rows whose squared gaps
    # overflow (-inf) and rows whose gaps are subnormal
    lo = rng.normal(size=(5, d))
    hi = lo + rng.uniform(0.0, 3.0, (5, d))
    lo[0], hi[0], lo[1], hi[1] = -1.0, 0.0, 0.0, 1.0   # subnormal gaps from faces at 0
    Q = np.vstack([rng.normal(scale=3.0, size=(40, d)),
                   rng.choice([-1.0, 1.0], (20, d)) * 10.0 ** rng.uniform(150, 308, (20, d)),
                   rng.uniform(0.0, 1e-308, (10, d)),
                   -5e-324 * rng.integers(0, 4, (10, d))])
    # a chunk of rows against every box, as _hausdorff_lower_bounds asks
    got = _box_lower(Q[:, None], lo, hi)
    want = _box_lower_of_the_gap_array(Q[:, None], lo, hi)
    assert got.shape == want.shape == (len(Q), len(lo))
    assert np.array_equal(_bits(got), _bits(want))
    assert np.isneginf(got[40:60]).any()
    assert (got[60:70, 0] < 0).all() and (got[70:, 1] < 0).all()
    # every row against one box, as the settle stage asks
    for b in range(len(lo)):
        assert np.array_equal(_bits(_box_lower(Q, lo[b], hi[b])),
                              _bits(_box_lower_of_the_gap_array(Q, lo[b], hi[b])))
