"""Point-cloud metric helpers, checked against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from limitlab import (diameter, directed_hausdorff, hausdorff, sampling_gap,
                      split_discrepancy)
from limitlab.geometry import _TREE_MIN

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

    ``big`` pads the first row's copies until the raw cloud reaches the
    KD-tree threshold while its distinct rows stay far below it.
    """
    rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                         min_size=1, max_size=10))
    reps = draw(st.lists(st.sampled_from([1, 1, 2, 3, 17]),
                         min_size=len(rows), max_size=len(rows)))
    if big is None:
        big = draw(st.booleans())
    if big:
        reps[0] += max(0, _TREE_MIN - sum(reps))
    cloud = np.repeat(np.array(rows, dtype=float), reps, axis=0)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(cloud))
    return cloud[order]


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
    # the raw cloud takes the KD-tree path, its distinct rows would not
    assert len(big) >= _TREE_MIN > len(np.unique(big, axis=0))
    assert directed_hausdorff(small, big) == oracle_directed(small, big)
    assert directed_hausdorff(big, small) == oracle_directed(big, small)
    assert sampling_gap(big) == oracle_gap(big)
    assert diameter(big) == oracle_diameter(big)


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


def test_path_choice_follows_the_raw_size(rng):
    # in eight or more dimensions the KD tree and the brute-force path can
    # round a distance differently, so a raw cloud past the threshold must
    # get the tree's distances even when its distinct rows are few
    base = rng.normal(size=(40, 10))
    big = np.repeat(base, 16, axis=0)[rng.permutation(640)]
    tree = cKDTree(big)
    for q in rng.normal(size=(100, 1, 10)):
        nearest = float(tree.query(q)[0][0])
        assert directed_hausdorff(q, big) == nearest
        # every row of big has twins, so the lone query sets the gap
        assert sampling_gap(np.vstack([big, q])) == nearest
