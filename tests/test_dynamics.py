"""Guarded domains, map evaluation, and finite-orbit iteration."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlab import (DiscreteMap, DomainRegion, get_system, iterate,
                      iterate_batch, list_systems, write_trajectory_csv)
from limitlab import config
from limitlab.dynamics import _row_norm, as_state
from limitlab.errors import NoInverseError


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


def test_sample_stays_in_region_and_respects_exclusions(rng):
    region = DomainRegion.interval(-1.0, 1.0, excluded=[0.0], eps_excl=0.2)
    pts = region.sample(256, rng)
    assert pts.shape == (256, 1)
    assert region.contains_batch(pts).all()
    assert (np.abs(pts[:, 0]) > 0.2).all()


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
def test_row_norm_leaves_eight_columns_and_more_to_numpy(d, rng):
    # numpy may sum 8 or more terms pairwise, where a column fold would not
    # be its sum, so the helper hands these widths to numpy
    X = _wide_rows(rng, 20000, d)
    assert np.array_equal(_row_norm(X), np.linalg.norm(X, axis=1), equal_nan=True)


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


def test_iterate_batch_matches_the_reference_on_catalog_maps(rng):
    # near the mobius pole (escapes, one singular), the cot map and a
    # rotation-scaling batch, with a guard radius some rows cross
    cases = [("mobius", np.r_[rng.uniform(2.5, 3.5, 20), 3.0, 5.0 / 3.0][:, None], 1e3),
             ("cot-map", get_system("cot-map").domain.sample(16, rng), config.R_DIV),
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
