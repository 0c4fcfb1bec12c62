"""Guarded domains, map evaluation, and finite-orbit iteration."""

import itertools
import os
import platform
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlab import (DiscreteMap, DomainRegion, LinearSystem, Settings, Trajectory,
                      get_system, iterate, iterate_batch, list_systems, write_trajectory_csv)
import limitlab
from limitlab.dynamics import (_CODE, COMPLETED, LEFT_DOMAIN, SINGULAR, _max_abs, _row_norm,
                               _state_codes, as_state)
from limitlab.errors import NoInverseError
from limitlab.geometry import _box_lower


# -- states ----------------------------------------------------------------------

def test_as_state_promotes_scalars():
    assert as_state(0.5).shape == (1,)
    assert as_state([1.0, 2.0], dim=2).shape == (2,)


def test_as_state_rejects_bad_input():
    with pytest.raises(ValueError):
        as_state([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_state([1.0], dim=2)
    with pytest.raises(ValueError):
        as_state([np.nan])
    with pytest.raises(ValueError):
        as_state([np.inf])


# -- regions -----------------------------------------------------------------------

def test_interval_bounds_are_closed():
    region = DomainRegion.interval(-1.0, 1.0)
    assert region.contains([-1.0]) and region.contains([1.0])
    assert not region.contains([1.0 + 1e-12])
    assert region.violation([2.0]) == "out-of-bounds"


def test_excluded_points_carry_a_protective_ball():
    region = DomainRegion.full_space(1, excluded=[3.0])
    assert region.violation([3.0]) == "excluded-point"
    assert region.violation([3.0 + 1e-12]) == "excluded-point"
    assert region.contains([3.1])


@pytest.mark.parametrize("excluded", [[1.0, -1.0], 1.0, np.array([1.0, -1.0])])
def test_a_flat_list_excludes_the_same_points_from_every_1d_region(excluded):
    # full_space and box made [1.0, -1.0] one 2-d point and raised, while
    # interval took it as two 1-d exclusions
    regions = [DomainRegion.interval(-2.0, 2.0, excluded=excluded),
               DomainRegion.full_space(1, excluded=excluded),
               DomainRegion.box([[-2.0, 2.0]], excluded=excluded)]
    want = np.reshape(excluded, (-1, 1))
    X = np.array([1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 1.0 + 1e-6, -1.0 + 1e-6, 0.0,
                  1.5])[:, None]
    inside = np.abs(X - want.T).min(axis=1) > 1e-9      # outside every exclusion ball
    for region in regions:
        assert np.array_equal(region.excluded, want), region.kind
        assert region.contains_batch(X).tolist() == inside.tolist(), region.kind


def test_an_empty_exclusion_list_excludes_no_point():
    # every constructor reads [] (or a (0, d) array) as no excluded point:
    # the region is the one built without it
    for build, args in [(DomainRegion.interval, (0.0, 1.0)),
                        (DomainRegion.box, ([[0.0, 1.0], [0.0, 1.0]],)),
                        (DomainRegion.full_space, (2,))]:
        plain = build(*args)
        for empty in ([], [[]], np.empty((0, plain.dim))):
            region = build(*args, excluded=empty)
            assert (region.kind, region.dim, region.excluded) == (plain.kind, plain.dim, None)
            assert region.contains([0.5] * plain.dim)


def test_annulus_membership_is_radial():
    region = DomainRegion.annulus(1.0, 2.0)
    assert region.contains([1.5, 0.0])
    assert region.contains([0.0, 2.0])
    assert not region.contains([0.5, 0.0])
    assert not region.contains([2.0, 1.0])


def test_region_validation_errors():
    with pytest.raises(ValueError):
        DomainRegion("blob", 1)
    with pytest.raises(ValueError):
        DomainRegion.interval(1.0, 1.0)          # needs lo < hi
    with pytest.raises(ValueError):
        DomainRegion.annulus(-0.5, 1.0)
    with pytest.raises(ValueError):
        DomainRegion("interval", 1, np.array([[0.0, np.nan]]))


def test_grid_includes_endpoints_and_exact_interior_nodes():
    region = DomainRegion.box([[-2.0, 2.0]])
    (axis,) = region.grid(401)
    assert axis[0] == -2.0 and axis[-1] == 2.0
    assert axis[300] == 1.0                      # exactly representable node
    with pytest.raises(ValueError):
        DomainRegion.full_space(1).grid(11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_whose_width_overflows_span_no_grid_and_no_draw(rng):
    # np.linspace(-1e308, 1e308, 3) is [nan, inf, 1e308], and a uniform draw
    # between those bounds overflows
    region = DomainRegion.interval(-1e308, 1e308)
    assert not region.has_finite_box()
    with pytest.raises(ValueError):
        region.grid(3)
    with pytest.raises(ValueError, match="unbounded region"):
        region.sample(4, rng)
    assert (np.abs(region.sample(4, rng, box=[[-1.0, 1.0]])) <= 1.0).all()
    assert DomainRegion.interval(-1e307, 1e307).has_finite_box()


def test_sample_stays_in_region_and_respects_exclusions(rng):
    region = DomainRegion.interval(-1.0, 1.0, excluded=[0.0], eps_excl=0.2)
    pts = region.sample(256, rng)
    assert pts.shape == (256, 1)
    assert region.contains_batch(pts).all()
    assert (np.abs(pts[:, 0]) > 0.2).all()


def _recursive_sample(region, n, rng, box=None):
    """Sampling as it was written before the redraws became a loop: each
    redraw samples the excluded points again, recursively."""
    if region.kind == "annulus":
        r = rng.uniform(region.bounds[0, 0], region.bounds[0, 1], size=n)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    else:
        b = region.bounds if region.bounds is not None else np.asarray(box, dtype=float)
        pts = rng.uniform(b[:, 0], b[:, 1], size=(n, region.dim))
    bad = ~region.contains_batch(pts)
    while bad.any():
        pts[bad] = _recursive_sample(region, int(bad.sum()), rng, box)
        bad = ~region.contains_batch(pts)
    return pts


@pytest.mark.parametrize("region, box", [
    (DomainRegion.interval(-1.0, 1.0, excluded=[0.0], eps_excl=0.5), None),
    (DomainRegion.box([[-1.0, 1.0], [-1.0, 1.0]], excluded=[[0.0, 0.0], [0.5, -0.5]],
                      eps_excl=0.6), None),
    (DomainRegion.full_space(2, excluded=[[0.0, 0.0]], eps_excl=0.9), [[-1.0, 1.0]] * 2),
    (DomainRegion("annulus", 2, [[0.5, 2.0]], excluded=[[1.0, 0.0]], eps_excl=1.0), None),
])
def test_sample_redraws_as_the_recursive_sampler_did(region, box):
    # regions where a good share of the draws needs a redraw, some of them
    # more than one: the loop draws the same numbers in the same order
    for seed in range(5):
        got = region.sample(300, np.random.default_rng(seed), box=box)
        want = _recursive_sample(region, 300, np.random.default_rng(seed), box)
        assert np.array_equal(got, want)
        assert region.contains_batch(got).all()


def test_sample_gives_up_when_every_draw_is_excluded(rng):
    # every point of [0, 1e-10] lies inside the exclusion ball around 0: the
    # redraws used to recurse until Python's recursion limit
    region = DomainRegion.interval(0.0, 1e-10, excluded=[0.0])
    with pytest.raises(ValueError, match="exclusion ball"):
        region.sample(3, rng)


def test_sample_unbounded_needs_a_box(rng):
    region = DomainRegion.full_space(2)
    with pytest.raises(ValueError):
        region.sample(8, rng)
    pts = region.sample(8, rng, box=[[-1.0, 1.0], [-1.0, 1.0]])
    assert (np.abs(pts) <= 1.0).all()


def test_contains_batch_matches_pointwise(rng):
    region = DomainRegion.annulus(0.5, 2.0)
    pts = rng.uniform(-3, 3, size=(128, 2))
    mask = region.contains_batch(pts)
    assert mask.tolist() == [region.contains(p) for p in pts]


def test_annulus_membership_agrees_alone_and_in_a_batch(rng):
    # points within an ulp of both radial bounds, where a 1-d norm and a
    # row-wise norm can round apart
    region = DomainRegion.annulus(0.5, 2.0)
    theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
    radius = np.repeat([0.5, 2.0], 1000)
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    pts = np.vstack([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf),
                     np.nextafter(pts, 0.0)])
    mask = region.contains_batch(pts)
    assert 0 < mask.sum() < len(pts)
    assert [region.violation(p) is None for p in pts] == mask.tolist()
    assert [region.contains(p) for p in pts] == mask.tolist()


EDGE_REGIONS = {
    "interval": DomainRegion.interval(-1.0, 1.0, excluded=[0.5], eps_excl=0.1),
    "half-line": DomainRegion.interval(-np.inf, 1.0, excluded=[1.0]),
    "box": DomainRegion.box([[-1.0, 1.0], [-2.0, 2.0]]),
    "punctured-box": DomainRegion.box([[-1.0, 1.0], [-2.0, 2.0]],
                                      excluded=[[0.0, 0.0], [1.0, 2.0]], eps_excl=0.25),
    "annulus": DomainRegion.annulus(0.5, 2.0),
    "full-space": DomainRegion.full_space(2),
    "punctured-line": DomainRegion.full_space(1, excluded=[3.0]),
    "punctured-plane": DomainRegion.full_space(2, excluded=[[0.0, 0.0]]),
}


def _edge_rows(region):
    """Rows where a verdict can go wrong: NaN and infinite coordinates, rows
    whose squared norm overflows, rows on a bound and an ulp either side, and
    rows at, just inside and just outside each exclusion radius."""
    d = region.dim
    rows = [np.full(d, np.nan), np.full(d, np.inf), np.full(d, -np.inf), np.zeros(d),
            np.full(d, 1e200), np.full(d, -1e200),
            np.r_[np.zeros(d - 1), np.nan], np.r_[np.full(d - 1, 0.5), -np.inf]]
    if region.kind == "annulus":
        on = [r * np.array([np.cos(t), np.sin(t)]) for r in region.bounds[0] for t in (0.0, 0.7)]
    elif region.bounds is not None:
        on = [region.bounds[:, 0], region.bounds[:, 1]]
    else:
        on = []
    for p in on:
        rows += [p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    eps = region.eps_excl
    for e in [] if region.excluded is None else region.excluded:
        rows.append(e)
        for r in (eps, np.nextafter(eps, 0.0), np.nextafter(eps, np.inf)):
            rows += [e + r * np.eye(d)[0], e - r * np.eye(d)[-1]]
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("kind", EDGE_REGIONS)
def test_violation_is_the_batch_verdict_row_for_row(kind):
    region = EDGE_REGIONS[kind]
    X = _edge_rows(region)
    inside, hit = region.contains_batch(X), region.exclusion_batch(X)
    assert not (inside & hit).any()
    expected = [None if i else "excluded-point" if h else "out-of-bounds"
                for i, h in zip(inside, hit)]
    assert [region.violation(x) for x in X] == expected
    assert [region.contains(x) for x in X] == inside.tolist()


def test_a_nan_state_is_outside_a_punctured_full_space():
    region = DomainRegion.full_space(1, excluded=[3.0])
    assert region.violation([np.nan]) == "out-of-bounds"
    assert not region.contains_batch(np.array([[np.nan]]))[0]


def test_a_state_check_takes_each_exclusion_distance_once(monkeypatch):
    region = get_system("mobius").domain
    real = DomainRegion._exclusion_distances
    asked = []

    def counted(self, X):
        asked.append(len(X))
        return real(self, X)

    monkeypatch.setattr(DomainRegion, "_exclusion_distances", counted)
    P = np.linspace(-2.0, 2.0, 101)[:, None]
    code = _state_codes(region, P, np.zeros(len(P), dtype=bool))
    assert code is None and asked == [101]          # every state passes: no codes built
    asked.clear()
    code = _state_codes(region, np.vstack([P, [[3.0]]]), np.zeros(len(P) + 1, dtype=bool))
    assert code[-1] == _CODE[SINGULAR] and asked == [102, 1]


# -- maps --------------------------------------------------------------------------

def test_map_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        DiscreteMap(dim=2, forward=lambda x: x,
                    domain=DomainRegion.interval(0.0, 1.0))


def test_reversed_swaps_directions():
    mob = get_system("mobius")
    rev = mob.reversed()
    x = np.array([0.5])
    assert rev.forward(x) == pytest.approx(mob.inverse(x))
    assert rev.domain is mob.inverse_domain
    twice = rev.reversed()
    assert twice.forward(x) == pytest.approx(mob.forward(x))


# -- iteration ----------------------------------------------------------------------

def test_iterate_mobius_matches_closed_form():
    mob = get_system("mobius")
    traj = iterate(mob, [0.0], 40)
    k = np.arange(41)
    closed = -(2.0 ** k - 1.0) / (2.0 ** k + 1.0)
    assert traj.termination == "completed"
    assert np.abs(traj.points[:, 0] - closed).max() < 1e-12


def test_iterate_is_deterministic_bitwise():
    cot = get_system("cot-map")
    a = iterate(cot, [1.3], 200)
    b = iterate(cot, [1.3], 200)
    assert np.array_equal(a.points, b.points)


def test_iterate_semigroup_property():
    # running a+b steps equals running a then b: same float ops in same order
    cot = get_system("cot-map")
    for a, b in [(0, 10), (7, 3), (25, 75)]:
        whole = iterate(cot, [1.3], a + b)
        part = iterate(cot, iterate(cot, [1.3], a).last, b)
        assert whole.last == part.last


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40),
       st.floats(min_value=-0.99, max_value=0.99))
def test_iterate_semigroup_property_random_splits(a, b, x0):
    mob = get_system("mobius")
    whole = iterate(mob, [x0], a + b)
    part = iterate(mob, iterate(mob, [x0], a).last, b)
    assert whole.last == part.last


def test_singular_termination_keeps_the_offending_point():
    mob = get_system("mobius")
    traj = iterate(mob, [5.0 / 3.0], 10)  # maps straight onto the excluded pole
    assert traj.termination == "singular"
    assert traj.steps_taken == 1
    assert traj.last[0] == pytest.approx(3.0, abs=1e-12)


def test_diverged_termination_exceeds_guard_radius():
    doubler = get_system("scalar-linear", a=2.0)
    traj = iterate(doubler, [1.0], 10_000, r_div=1e6)
    assert traj.termination == "diverged"
    assert np.abs(traj.last).max() > 1e6


def test_a_huge_step_budget_records_only_the_steps_run():
    # the record grows with the steps run, not with the budget: 10**12
    # steps of one state would not fit in memory
    traj = iterate(get_system("scalar-linear", a=2.0), [1.0], 10 ** 12, r_div=1e6)
    assert (traj.termination, traj.steps_taken) == ("diverged", 20)
    assert traj.points[:, 0].tolist() == [2.0 ** i for i in range(21)]


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=1.5, max_value=3.0))
def test_diverged_guard_property(x0, a):
    sys = get_system("scalar-linear", a=a)
    traj = iterate(sys, [x0], 5000, r_div=1e8)
    assert traj.termination == "diverged"
    assert np.abs(traj.last).max() > 1e8


def test_left_domain_termination():
    mob = get_system("mobius").restrict(DomainRegion.interval(0.0, 0.5))
    traj = iterate(mob, [0.4], 10)
    assert traj.termination == "left-domain"


def test_iterate_back_without_inverse_raises():
    one_way = DiscreteMap(dim=1, forward=lambda x: 0.5 * x,
                          domain=DomainRegion.full_space(1))
    with pytest.raises(NoInverseError):
        one_way.reversed()


# -- row norms ---------------------------------------------------------------------

def _wide_rows(rng, n, d):
    # signed magnitudes across 1e-150..1e150, plus rows holding inf and NaN
    X = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-150, 150, (n, d))
    X[:: 97, rng.integers(d)] = np.inf
    X[1:: 89, rng.integers(d)] = np.nan
    X[2:: 83, rng.integers(d)] = -np.inf
    return X


@pytest.mark.parametrize("d", range(1, 8))
def test_row_norm_is_numpy_norm_to_the_bit(d, rng):
    X = _wide_rows(rng, 20000, d)
    assert np.array_equal(_row_norm(X), np.linalg.norm(X, axis=1), equal_nan=True)


@pytest.mark.parametrize("d", [8, 9, 16])
def test_row_norm_folds_eight_columns_and_more_in_order(d, rng):
    # numpy adds 8 or more squares pairwise; the helper keeps the in-order
    # sum at every width, the sum whose error geometry._margin bounds
    X = _wide_rows(rng, 20000, d)
    want = np.sqrt(reduce(np.add, [c * c for c in X.T]))
    assert np.array_equal(_bits(_row_norm(X)), _bits(want))
    finite = np.isfinite(want)
    assert (want[finite] != np.linalg.norm(X, axis=1)[finite]).any()


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_max_abs_is_the_fold_on_fresh_arrays_to_the_bit(d, rng):
    # on rows holding NaN and inf, for a batch and for a block of batches
    X = _wide_rows(rng, 6000, d)
    for A in (X, X.reshape(3, 2000, d)):
        want = reduce(np.maximum, np.moveaxis(np.abs(A), -1, 0))
        assert np.array_equal(_max_abs(A).view(np.uint64), want.view(np.uint64))


# -- the lockstep engine --------------------------------------------------------------

def _reciprocal(vectorized):
    # 1/(x-1): a pole at 1 gives a non-finite image; the domain [-5, 50]
    # excludes 3 and is wider than the guard radius used below
    return DiscreteMap(dim=1, forward=lambda x: 1.0 / (np.asarray(x, dtype=float) - 1.0),
                       domain=DomainRegion.interval(-5.0, 50.0, excluded=[3.0]),
                       vectorized=vectorized)


# start state -> (termination, valid points) with r_div = 20
_MIXED = {0.0: ("completed", 41),      # settles near (1 - sqrt 5) / 2
          3.0: ("singular", 1),        # excluded point
          1.0: ("singular", 1),        # non-finite image, dropped
          0.9: ("left-domain", 2),     # image -10 lies outside [-5, 50]
          30.0: ("diverged", 1),       # the state itself is past the guard
          1.01: ("diverged", 2)}       # the image is past the guard, and kept


@pytest.mark.parametrize("vectorized", [True, False])
def test_iterate_batch_mixed_batch_matches_iterate_row_by_row(vectorized):
    system = _reciprocal(vectorized)
    starts = list(_MIXED)
    run = iterate_batch(system, np.array(starts)[:, None], 40, r_div=20.0, record=True)
    assert sorted({run.cause(i) for i in range(len(starts))}) == sorted(
        ["completed", "left-domain", "singular", "diverged"])
    for i, x0 in enumerate(starts):
        traj = iterate(system, [x0], 40, r_div=20.0)
        assert (run.cause(i), int(run.valid[i])) == _MIXED[x0]
        assert (traj.termination, len(traj)) == _MIXED[x0]
        valid = int(run.valid[i])
        assert np.array_equal(run.states[:valid - 1, i], traj.points[:-1])
        assert np.array_equal(run.last[i], traj.last)


# marker -> what the countdown map writes in its place: the offending
# coordinate of a non-finite or past-r_div image
_POISON = {-1.0: np.nan, -2.0: np.inf, -3.0: -np.inf, -4.0: 1e3}


def _countdown_map(d, vectorized):
    """Column 0 counts down by one per step. On the step that takes it to 0,
    every other column holding a marker of _POISON gets the marker's value."""
    def forward(X):
        X = np.asarray(X, dtype=float)
        Y = X.copy()
        Y[..., 0] -= 1.0
        fire = (Y[..., 0] == 0.0)[..., None]
        for marker, value in _POISON.items():
            Y[..., 1:][fire & (X[..., 1:] == marker)] = value
        return Y
    return DiscreteMap(dim=d, forward=forward, domain=DomainRegion.full_space(d),
                       vectorized=vectorized)


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_iterate_batch_guards_every_column(d, vectorized):
    # every mix of markers, a harmless 0.5 and a state past r_div (500) over
    # columns 1..d-1, fired on the first step, a later one, or never
    system = _countdown_map(d, vectorized)
    values = [0.5, 500.0, *_POISON]
    X0 = np.array([(t, *rest) for t in (1.0, 3.0, 9.0)
                   for rest in itertools.product(values, repeat=d - 1)])
    run = iterate_batch(system, X0, 4, r_div=100.0)
    for i, x0 in enumerate(X0):
        t, rest = int(x0[0]), set(x0[1:])
        if 500.0 in rest:
            want = ("diverged", 1)
        elif t > 4:
            want = ("completed", 5)
        elif rest & {-1.0, -2.0, -3.0}:
            want = ("singular", t)          # the non-finite image is dropped
        elif -4.0 in rest:
            want = ("diverged", t + 1)      # the image past r_div is kept
        else:
            want = ("completed", 5)
        traj = iterate(system, x0, 4, r_div=100.0)
        assert (run.cause(i), int(run.valid[i])) == want == (traj.termination, len(traj)), x0
        assert np.array_equal(run.last[i], traj.last), x0


@pytest.mark.parametrize("case", ["no stop", "late stop"])
def test_iterate_batch_steps_in_place_until_a_row_stops(case, rng):
    # no row stops: every step runs on the whole batch; late stop: the first
    # rows stop at the third step, and the rest go on from the indexed path
    if case == "no stop":
        system = get_system("rotation-scaling")
        X0 = system.domain.sample(40, rng, box=[[-2.0, 2.0]] * 2)
    else:
        system = _countdown_map(2, True)
        X0 = np.array([[3.0, -1.0], [9.0, 0.5], [3.0, -4.0], [5.0, 0.5], [3.0, 0.5]])
    run = iterate_batch(system, X0, 6, r_div=100.0, record=True)
    assert run.states.shape == (6, len(X0), 2)
    for i, x0 in enumerate(X0):
        traj = iterate(system, x0, 6, r_div=100.0)
        assert (run.cause(i), int(run.valid[i])) == (traj.termination, len(traj))
        assert np.array_equal(run.states[:len(traj) - 1, i], traj.points[:-1])
        assert np.array_equal(run.last[i], traj.last)
    stopped = {i for i in range(len(X0)) if run.cause(i) != "completed"}
    assert stopped == (set() if case == "no stop" else {0, 2})


def test_iterate_batch_keeps_only_current_states_unless_recording():
    run = iterate_batch(get_system("negation"), [[0.5], [-2.0]], 7)
    assert run.states is None
    assert run.last[:, 0].tolist() == [-0.5, 2.0]
    assert run.valid.tolist() == [8, 8]
    window = iterate_batch(get_system("negation"), [[0.5], [-2.0]], 3, record=True).states
    assert window.shape == (3, 2, 1)
    with pytest.raises(ValueError):
        iterate_batch(get_system("negation"), [0.5], 3)       # needs (n, d)


def test_a_non_integral_step_count_is_refused():
    # 2.5 ran 2 steps and 1.7 one; an integral float and numpy integers run
    mobius, halver = get_system("mobius"), get_system("scalar-linear", a=0.5)
    for k in (2.5, 1.7, -0.5, float("nan"), float("inf"), "3", None):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            iterate_batch(halver, [[1.0]], k)
    with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
        iterate(mobius, 0.0, 2.5)
    for k in (np.int64(3), np.int32(3), np.uint8(3), 3.0, np.float64(3.0)):
        run = iterate_batch(halver, [[1.0], [-2.0]], k, record=True)
        assert run.last[:, 0].tolist() == [0.125, -0.25] and run.states.shape == (3, 2, 1)
        assert iterate(mobius, 0.0, k).steps_taken == 3
    assert iterate(mobius, 0.0, np.int64(0)).steps_taken == 0


def _reference_orbit(system, x0, k, r_div):
    """One orbit, one state at a time, in the documented check order:
    ``(points, cause, steps begun)``. Shares no code with the engine."""
    points = [np.array(x0, dtype=float)]
    for step in range(k):
        x = points[-1]
        with np.errstate(over="ignore"):    # a huge state's distance to an excluded point is inf
            reason = system.domain.violation(x)
        if reason is not None:
            return points, "singular" if reason == "excluded-point" else "left-domain", step + 1
        if np.abs(x).max() > r_div:
            return points, "diverged", step + 1
        with np.errstate(all="ignore"):
            y = system.forward(x[None, :] if system.vectorized else x)
        y = np.asarray(y, dtype=float).reshape(system.dim)
        if not np.isfinite(y).all():
            return points, "singular", step + 1
        points.append(y)
        if np.abs(y).max() > r_div:
            return points, "diverged", step + 1
    return points, "completed", k


def _assert_matches_reference(system, X0, k, r_div, record):
    run = iterate_batch(system, X0, k, r_div=r_div, record=record)
    refs = [_reference_orbit(system, x0, k, r_div) for x0 in X0]
    assert [run.cause(i) for i in range(len(X0))] == [cause for _, cause, _ in refs]
    assert run.valid.tolist() == [len(points) for points, _, _ in refs]
    assert np.array_equal(run.last, np.array([points[-1] for points, _, _ in refs]))
    if not record:
        assert run.states is None
        return run
    # a row's recorded state after its stop is its last point, frozen; the
    # record is as long as the longest-running row
    ran = max((begun for _, _, begun in refs), default=0)
    want = np.array([[points[min(t, len(points) - 1)] for points, _, _ in refs]
                     for t in range(ran)]).reshape(ran, len(X0), system.dim)
    assert run.states.shape == want.shape
    assert np.array_equal(run.states, want)
    return run


_R_DIV = 1e4


def _lanes_map(d, vectorized, raising=False):
    """Column 0 counts up by one per step, with a trap at each lane's mark
    (the other columns 0): an image past ``_R_DIV`` (kept) from 300, NaN
    from 500, inf from 700, a jump below the domain from 800 and from 900,
    and excluded points at 1000 and 1200. A start ``mark - s`` stops after
    ``s`` steps. The states the domain rejects from 800 and 1000 have images
    that would fail too, so only the check order decides their cause; those
    from 900 and 1200 have finite images. A state past ``_R_DIV`` grows until
    its square overflows. ``raising`` makes the map raise on any non-finite
    state or any state past ``_R_DIV``."""
    def forward(X):
        X = np.asarray(X, dtype=float)
        if raising and not (np.isfinite(X).all() and np.abs(X).max() <= _R_DIV):
            raise FloatingPointError("state past the guard")
        Y = X.copy()
        Y[..., 0] += 1.0
        Y[..., -1][np.abs(X[..., -1]) > _R_DIV] *= 1e150
        at = X[..., 0]
        Y[..., -1][at == 300.0] = 10 * _R_DIV
        Y[..., 0][at == 500.0] = np.nan
        Y[..., -1][at == 700.0] = np.inf
        Y[..., 0][at == 800.0] = -1e3
        Y[..., -1][at == -1e3] = 10 * _R_DIV
        Y[..., 0][at == 900.0] = -500.0
        Y[..., 0][at == 1000.0] = np.nan
        return Y
    excluded = [[1000.0] + [0.0] * (d - 1), [1200.0] + [0.0] * (d - 1)]
    domain = DomainRegion.box([[-100.0, np.inf]] + [[-np.inf, np.inf]] * (d - 1),
                              excluded=excluded)
    return DiscreteMap(dim=d, forward=forward, domain=domain, vectorized=vectorized)


_MARKS = (300.0, 500.0, 700.0, 800.0, 900.0, 1000.0, 1200.0)
# steps before the trap: inside and across blocks of any length, and past k
_STOPS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 47, 58, 59, 60, 70)


def _lanes(d, marks=_MARKS, stops=_STOPS, free=(-50.0, 5 * _R_DIV)):
    # every lane's trap at every stop, plus a row that runs free and a row
    # whose start is past the guard
    rows = [[mark - s] + [0.0] * (d - 1) for mark in marks for s in stops]
    rows += [[x] + [0.25] * (d - 1) for x in free]
    return np.array(rows)


@pytest.mark.parametrize("raising", [False, True])
@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_iterate_batch_matches_a_one_orbit_reference(d, vectorized, raising):
    system = _lanes_map(d, vectorized, raising)
    X0 = _lanes(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for record in (False, True):
            run = _assert_matches_reference(system, X0, 60, _R_DIV, record)
            for x0 in X0[::7]:
                _assert_matches_reference(system, x0[None, :], 60, _R_DIV, record)
        assert {run.cause(i) for i in range(len(X0))} == {
            "completed", "singular", "left-domain", "diverged"}
        # every row stops before the budget: the record is only as long as
        # the longest-running row
        early = _lanes(d, stops=(0, 3, 9, 21), free=())
        run = _assert_matches_reference(system, early, 60, _R_DIV, True)
        assert len(run.states) == 23
        if raising:
            return      # the raising map's guard is _R_DIV; an infinite one passes it states beyond
        # with no guard radius, a non-finite image still stops its row: a
        # last coordinate started past _R_DIV overflows to inf at step three
        X0 = np.vstack([X0, [0.0] * (d - 1) + [5 * _R_DIV]])
        for record in (False, True):
            run = _assert_matches_reference(system, X0, 60, np.inf, record)
        assert run.cause(len(X0) - 1) == "singular"
        assert run.valid[-1] == 3


# stop step -> (start, length) of the block it falls in, and the rows going
# there, when every row stops at one of these steps and one runs free: the
# blocks [0], [1, 2], [3, 6] are cut at 4; 4 runs alone and doubling starts
# again, [5, 6], [7, 10], [11, 18] is cut at 13; then [14, 15], [16, 19],
# [20, 27], [28, 43] is cut at 30
_CUTS = {4: (3, 4, 4), 13: (11, 8, 3), 30: (28, 16, 2)}


@pytest.mark.parametrize("mark, lead", [(300.0, 0), (500.0, 0), (900.0, 1), (1200.0, 0)],
                         ids=["diverged-kept", "non-finite", "left-domain", "excluded"])
def test_a_cut_block_re_steps_no_more_than_its_unkept_tail(mark, lead):
    # a row of _lanes_map stops at step s of the list, by the check its mark
    # names (its state leaves the domain a step after the jump from 900)
    system = _lanes_map(1, True)
    rows = []

    def counted(X):
        rows.append(len(X))
        return system.forward(X)

    counting = DiscreteMap(dim=1, forward=counted, domain=system.domain)
    X0 = np.array([[mark - s + lead] for s in _CUTS] + [[-50.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_reference(system, X0, 60, _R_DIV, True)
        iterate_batch(counting, X0, 60, r_div=_R_DIV)
        stepped, rows[:] = sum(rows), []
        refs = [_reference_orbit(counting, x0, 60, _R_DIV) for x0 in X0]
    assert [begun for _, _, begun in refs] == [s + 1 for s in _CUTS] + [60]
    tails = sum((start + length - s) * going for s, (start, length, going) in _CUTS.items())
    assert stepped <= sum(rows) + tails


def test_an_infinite_guard_radius_still_stops_at_a_non_finite_image():
    doubler = get_system("scalar-linear", a=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X0 in ([[1.0]], [[1.0], [0.5], [3.0], [0.0]]):
            for record in (False, True):
                _assert_matches_reference(doubler, np.array(X0), 1100, np.inf, record)
        traj = iterate(doubler, [1.0], 1100, r_div=np.inf)
    assert traj.termination == "singular"
    assert traj.steps_taken == 1023 and traj.last[0] == 2.0 ** 1023


@pytest.mark.parametrize("r_div", [1.0, 3.0 * 2.0 ** 100, np.finfo(float).max, np.inf])
def test_the_image_guard_at_and_just_past_the_radius(r_div):
    # an image equal to r_div passes, the next float up is diverged (kept),
    # and an inf image is singular (dropped), also with r_div = inf; the
    # reference checks with ``not finite`` and ``> r_div``
    doubler = get_system("scalar-linear", a=2.0)
    fmax = np.finfo(float).max
    top = min(r_div, fmax)
    with np.errstate(over="ignore"):
        past = np.nextafter(top, np.inf)        # inf past fmax
    X0 = np.array([[top / 2], [past / 2], [top / 8], [-top / 2], [top], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 6):        # one step, and blocks of 2 and 3 steps
            for record in (False, True):
                _assert_matches_reference(doubler, X0, k, r_div, record)
        run = iterate_batch(doubler, X0[:2], 1, r_div=r_div)
    assert run.cause(0) == "completed" and run.last[0, 0] == top
    if np.isfinite(past):
        assert run.cause(1) == "diverged" and run.valid[1] == 2 and run.last[1, 0] == past
    else:           # the start is inf: past a finite guard, else its image is not finite
        want = "singular" if np.isinf(r_div) else "diverged"
        assert run.cause(1) == want and run.valid[1] == 1
    run = iterate_batch(doubler, [[fmax]], 1, r_div=r_div)
    if r_div >= fmax:       # an inf image stops a row even with no guard radius
        assert (run.cause(0), run.valid[0], run.last[0, 0]) == ("singular", 1, fmax)


def test_a_nan_guard_radius_is_rejected():
    # ``M > nan`` is always false, so a NaN radius would drop the guard; a
    # radius of 0 or less stops every orbit: mobius from 0 converges to -1,
    # yet it stopped ``diverged`` after one step at 0.0 and at step 0 at -1.0
    doubler, mobius = get_system("scalar-linear", a=2.0), get_system("mobius")
    for r_div in (np.nan, 0.0, -0.0, -1.0):
        with pytest.raises(ValueError, match="r_div"):
            iterate_batch(doubler, [[1.0]], 3, r_div=r_div)
        with pytest.raises(ValueError, match="r_div"):
            iterate(mobius, [0.0], 5, r_div=float(r_div))
    assert iterate(mobius, [0.0], 5, r_div=np.inf).termination == "completed"


def _trigger_map(r_div):
    """Column 0 counts down by one per step. On the step that takes it to 0,
    a row whose column 1 holds a code of ``_TRIGGERS`` gets that code's
    image: column 1 becomes NaN, +-inf, exactly +-``top`` (``r_div``, or the
    largest float for an infinite ``r_div``), +-float max, or the next float
    past ``top``; or column 0 jumps to -1e3, outside the domain, with an
    image well inside the guard. Any other code runs free."""
    fmax = np.finfo(float).max
    top = min(r_div, fmax)
    with np.errstate(over="ignore"):
        past = np.nextafter(top, np.inf)
    values = {1.0: np.nan, 2.0: np.inf, 3.0: -np.inf, 4.0: top, 5.0: -top,
              6.0: fmax, 7.0: -fmax, 8.0: past}

    def forward(X):
        X = np.asarray(X, dtype=float)
        Y = X.copy()
        Y[..., 0] -= 1.0
        fire = Y[..., 0] == 0.0
        for code, value in values.items():
            Y[..., 1][fire & (X[..., 1] == code)] = value
        Y[..., 0][fire & (X[..., 1] == 9.0)] = -1e3
        return Y
    domain = DomainRegion.box([[-100.0, np.inf], [-np.inf, np.inf]])
    return DiscreteMap(dim=2, forward=forward, domain=domain)


_TRIGGERS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)


def _trigger_rows(r_div, k):
    # every code fired at every step of a k-step run (inside and across
    # blocks of 1, 2, 4 and 8 steps) and never, a state outside the domain,
    # and, for a finite guard, a start past it at the guard's edge
    rows = [[t, code] for code in _TRIGGERS for t in range(1, k + 2)]
    rows += [[-500.0, 0.5], [k + 5.0, 0.5]]
    if r_div < np.finfo(float).max:
        rows += [[3.0, 2.0 * r_div], [3.0, -np.nextafter(r_div, np.inf)], [3.0, -r_div]]
    return np.array(rows)


def _assert_rows_match_iterate(run, system, X0, k, r_div):
    for i, x0 in enumerate(X0):
        traj = iterate(system, x0, k, r_div=r_div)
        assert (run.cause(i), int(run.valid[i])) == (traj.termination, len(traj)), x0
        assert _bits(run.last[i]) == _bits(traj.last), x0
        assert _bits(run.states[:len(traj) - 1, i]) == _bits(traj.points[:-1]), x0


@pytest.mark.parametrize("r_div,k", [(1e4, 12), (np.finfo(float).max, 12),
                                     (np.inf, 12), (np.inf, 1), (1e4, 1)])
def test_guards_by_reduction_match_row_by_row_orbits(r_div, k):
    # the engine decides a block's guard with two reductions and takes each
    # row's max-abs only where some row stops: NaN and +-inf images, images
    # exactly at +-r_div and +-float max, the next float past the guard and
    # starts past it must stop (or pass) exactly as one orbit at a time does.
    # The narrow batch steps blocks of several steps; the wide one, over
    # 2**15 floats of rows that never stop, one step per block
    system = _trigger_map(r_div)
    X0 = _trigger_rows(r_div, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        narrow = _assert_matches_reference(system, X0, k, r_div, True)
        _assert_rows_match_iterate(narrow, system, X0, k, r_div)
        free = np.column_stack([np.full(2 ** 14, k + 5.0), np.linspace(-1.0, 1.0, 2 ** 14)])
        wide = iterate_batch(system, np.vstack([free, X0]), k, r_div=r_div, record=True)
    rows = slice(len(free), None)
    assert _bits(wide.last[rows]) == _bits(narrow.last)
    assert np.array_equal(wide.termination[rows], narrow.termination)
    assert np.array_equal(wide.valid[rows], narrow.valid)
    assert _bits(wide.states[:, rows]) == _bits(narrow.states)
    assert (wide.termination[:len(free)] == _CODE[COMPLETED]).all()
    assert _bits(wide.last[:len(free)]) == _bits(free - [k, 0.0])
    # nothing diverges past a guard at float max: the next float up is inf
    want = {"completed", "singular", "left-domain"}
    assert {narrow.cause(i) for i in range(len(X0))} == \
        want | ({"diverged"} if r_div < np.finfo(float).max else set())


def test_a_row_leaves_the_domain_inside_a_block_whose_images_all_pass_the_guard():
    # every image of these blocks is within the guard, so the block skips
    # the per-row max-abs; the rows jump out of the domain at steps 2, 4, 5
    # and 6, and the state checks inside the blocks of steps 2-3 and 4-7
    # stop them there, as left-domain, with the jump kept as their last state
    system = _trigger_map(1e4)
    X0 = np.array([[t, 9.0] for t in (2.0, 4.0, 5.0, 6.0)] + [[20.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _assert_matches_reference(system, X0, 10, 1e4, True)
        _assert_rows_match_iterate(run, system, X0, 10, 1e4)
    assert [run.cause(i) for i in range(4)] == ["left-domain"] * 4
    assert run.valid[:4].tolist() == [3, 5, 6, 7]
    assert run.last[:4, 0].tolist() == [-1e3] * 4


def test_iterate_batch_matches_the_reference_on_catalog_maps(rng):
    # near the mobius pole (escapes, one singular), the cot map and a
    # rotation-scaling batch, with a guard radius some rows cross
    cases = [("mobius", np.r_[rng.uniform(2.5, 3.5, 20), 3.0, 5.0 / 3.0][:, None], 1e3),
             ("cot-map", get_system("cot-map").domain.sample(16, rng), Settings.r_div),
             ("rotation-scaling", rng.uniform(-40.0, 40.0, (16, 2)), 30.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, X0, r_div in cases:
            _assert_matches_reference(get_system(name), X0, 200, r_div, True)


def test_iterate_batch_rows_do_not_depend_on_the_batch(rng):
    for name, box in [("rotation-scaling", [[-2.0, 2.0]] * 2), ("cot-map", None),
                      ("mobius", [[-5.0, 5.0]])]:
        system = get_system(name)
        X = system.domain.sample(64, rng, box=box)
        whole = iterate_batch(system, X, 300, record=True)
        for i in (0, 17, 63):
            alone = iterate_batch(system, X[i:i + 1], 300, record=True)
            assert np.array_equal(alone.last[0], whole.last[i]), name
            assert np.array_equal(alone.states[:, 0], whole.states[:, i]), name


# -- layout ----------------------------------------------------------------------
#
# A basin grid is column-major and a seed list row-major, so each step must
# give the same bits in either layout of one batch.

def _bits(X):
    """``X``'s bytes in row-major order: equal exactly when every element
    has the same bits, NaN payloads and signed zeros included."""
    return np.ascontiguousarray(X).tobytes()


def _assert_same_run(a, b, name):
    assert _bits(a.last) == _bits(b.last), name
    assert np.array_equal(a.termination, b.termination), name
    assert np.array_equal(a.valid, b.valid), name
    assert _bits(a.states) == _bits(b.states), name


def _nine_d_linear():
    # a 9-d contraction with an excluded point: its state checks take the
    # row norm from 8 columns on, which numpy reduces pairwise
    rng = np.random.default_rng(5)
    A = rng.normal(size=(9, 9))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    return LinearSystem(A, name="linear-9d").as_map().restrict(
        DomainRegion.full_space(9, excluded=[np.full(9, 0.25)], eps_excl=0.5))


def _layout_cases():
    rng = np.random.default_rng(11)
    for entry in list_systems():
        system = get_system(entry["name"])
        box = [[-2.0, 2.0]] * system.dim
        yield entry["name"], system, system.domain.sample(301, rng, box=box)
    yield "linear-9d", _nine_d_linear(), rng.uniform(-2.0, 2.0, (301, 9))


@pytest.mark.parametrize("name,system,X", list(_layout_cases()),
                         ids=[case[0] for case in _layout_cases()])
def test_steps_give_the_same_bits_in_either_layout(name, system, X):
    # every catalog map forward and backward, and iterate_batch over both,
    # on row-major and column-major copies of one batch; 301 rows take
    # blocks of several steps, and some rows stop
    C, F = np.ascontiguousarray(X), np.asfortranarray(X)
    assert F.flags.f_contiguous and (system.dim == 1 or not F.flags.c_contiguous)
    for s in [system] + ([system.reversed()] if system.inverse is not None else []):
        with np.errstate(all="ignore"):
            assert _bits(s.forward(C)) == _bits(s.forward(F)), s.name
        runs = [iterate_batch(s, Y, 40, r_div=1e3, record=True) for Y in (C, F)]
        _assert_same_run(*runs, s.name)


def test_a_row_that_stops_inside_a_block_stops_alike_in_either_layout():
    # the backward rotation-scaling map pushes r = 1 + 1e-3 and 1 + 1e-5 out
    # of its disc at steps 9 and 16; the first lies inside the block of
    # steps 7-14, which is cut back to 7-8, and the second starts a block
    back = get_system("rotation-scaling").reversed()
    r = np.r_[np.linspace(0.1, 0.9, 30), 1.0 + 1e-3, 1.0 + 1e-5]
    angle = np.linspace(0.0, 6.0, len(r))
    X = np.column_stack([r * np.cos(angle), r * np.sin(angle)])
    C, F = (iterate_batch(back, Y, 60, record=True)
            for Y in (np.ascontiguousarray(X), np.asfortranarray(X)))
    assert C.valid[-2:].tolist() == [10, 17]
    assert (C.termination[-2:] == _CODE[LEFT_DOMAIN]).all()
    _assert_same_run(C, F, back.name)


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 33])
def test_row_norm_and_box_bound_give_the_same_bits_in_either_layout(d, rng):
    # the fold adds whole columns, so no reduction depends on the layout
    X = _wide_rows(rng, 4000, d)
    F = np.asfortranarray(X)
    assert _bits(_row_norm(F)) == _bits(_row_norm(X))
    lo, hi = -rng.uniform(0.0, 2.0, d), rng.uniform(0.0, 2.0, d)
    with np.errstate(invalid="ignore"):
        assert _bits(_box_lower(F, lo, hi)) == _bits(_box_lower(X, lo, hi))


# -- catalog-wide inverse consistency ------------------------------------------------

def test_inverse_consistency_across_catalog(rng):
    # f(f^-1(x)) ~ x for every catalogued map with an inverse
    box_by_dim = {1: [[-2.0, 2.0]], 2: [[-1.8, 1.8]] * 2}
    for entry in list_systems():
        system = get_system(entry["name"])
        if system.inverse is None:
            continue
        region = system.inverse_domain or system.domain
        pts = region.sample(1000, rng, box=box_by_dim[system.dim])
        with np.errstate(all="ignore"):
            back = np.asarray(system.inverse(pts), dtype=float).reshape(pts.shape)
            ok = np.isfinite(back).all(axis=1) & system.domain.contains_batch(
                np.where(np.isfinite(back), back, 0.0))
            fwd = np.asarray(system.forward(back[ok]), dtype=float).reshape(-1, system.dim)
        assert ok.sum() > 900, entry["name"]
        rel = np.linalg.norm(fwd - pts[ok], axis=1) / (1.0 + np.linalg.norm(pts[ok], axis=1))
        assert rel.max() < 1e-9, entry["name"]


# -- trajectory CSV -------------------------------------------------------------------

def test_trajectory_csv_round_trip(tmp_path):
    rot = get_system("rotation-scaling")
    traj = iterate(rot, [2.0, 0.0], 25)
    path = tmp_path / "orbit.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x1,x2"
    loaded = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:-1]])
    assert np.array_equal(loaded, traj.points)   # repr round-trips floats
    assert lines[-1] == f"# termination={traj.termination}"

    singular = iterate(get_system("mobius"), [5.0 / 3.0], 10)
    write_trajectory_csv(singular, path)
    assert path.read_text().splitlines()[-1] == "# termination=singular"


def test_trajectory_csv_bytes_are_pinned(tmp_path):
    # signed zeros, a subnormal, a huge value and pi, each as its shortest
    # round-trip repr; LF line endings, no quoting, the comment a final row
    traj = Trajectory(points=np.array([[0.0, -0.0], [1e-310, 1e300], [np.pi, -1.5]]),
                      termination="diverged", steps_taken=2)
    path = tmp_path / "orbit.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == (b"k,x1,x2\n0,0.0,-0.0\n1,1e-310,1e+300\n"
                                 b"2,3.141592653589793,-1.5\n# termination=diverged\n")


# -- the heap -------------------------------------------------------------------------

_STEP_FAULTS = """
import resource
import numpy as np
import limitlab
from limitlab import Settings, get_system
from limitlab.dynamics import _grid_nodes, iterate_batch

system = get_system("rotation-scaling")
X = _grid_nodes([np.linspace(-2.0, 2.0, 201)] * 2)
assert X.flags.f_contiguous
for _ in range(5):
    X = iterate_batch(system, X, 1, r_div=Settings.escape_radius).last
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    X = iterate_batch(system, X, 1, r_div=Settings.escape_radius).last
assert X.flags.f_contiguous
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the 16 MiB block at import sets glibc's malloc thresholds")
def test_a_fresh_process_steps_a_wide_grid_without_page_faults():
    # a fresh interpreter, whose heap only limitlab's import has grown: each
    # step's full-size temporaries must come from the heap, not from new
    # mappings whose pages fault at every step (about 360 per step without
    # the block that dynamics allocates and frees at import)
    env = dict(os.environ)
    package_root = str(Path(limitlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _STEP_FAULTS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 5
