"""Limit-set estimation, clustering, boundedness, basins, and witnesses."""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from limitlab import (LimitSetEstimate, Settings, basin_closedness_witness, catalog_from_seeds,
                      catalog_to_dict, cluster_limit_sets,
                      compute_basins, estimate_alpha, estimate_omega,
                      estimate_omega_batch, get_system, hausdorff, iterate,
                      list_systems, write_basin_csv, DomainRegion,
                      LinearSystem, LimitSetCatalog, CatalogMember, default_seeds)
from limitlab import config
from limitlab.dynamics import DiscreteMap, _grid_nodes
from limitlab.errors import UnconvergedError
from limitlab import geometry, limits
from limitlab.geometry import _prepare, diameter, sampling_gap
from limitlab.limits import (BasinMap, CODE_ESCAPED, CODE_SINGULAR, CODE_UNDETERMINED,
                             _SettleStage, _classify_shape, _thin)
from limitlab.serialize import validate

FAST = Settings(burn=200, tail=200, max_rounds=6)


# -- estimates -------------------------------------------------------------------

def test_omega_mobius_attracting_fixed_point():
    est = estimate_omega(get_system("mobius"), [0.0])
    assert est.converged and est.status == "converged"
    assert est.shape == "fixed-point" and est.period == 1
    assert hausdorff(est.points, [[-1.0]]) < 1e-12
    assert est.settle_gap <= est.settle_tol


def test_omega_at_exact_fixed_point():
    est = estimate_omega(get_system("mobius"), [1.0])
    assert est.converged
    assert (est.points == 1.0).all()        # the repelling point is exactly fixed


def test_omega_escape_is_a_status_not_an_error():
    est = estimate_omega(get_system("scalar-linear", a=1.1), [1.0])
    assert not est.converged
    assert est.status == "escaped"


def test_omega_singular_status():
    est = estimate_omega(get_system("mobius"), [5.0 / 3.0])
    assert est.status == "singular"
    assert not est.converged


def test_omega_unconverged_status():
    # defective unit eigenvalue: the orbit drifts forever without escaping fast
    est = estimate_omega(get_system("jordan", lam=1.0, m=2), [0.0, 1.0], FAST)
    assert est.status == "unconverged"
    assert not est.converged


def test_alpha_mobius_repelling_fixed_point():
    est = estimate_alpha(get_system("mobius"), [0.0])
    assert est.converged and est.source == "alpha"
    assert hausdorff(est.points, [[1.0]]) < 1e-6


def test_omega_rotation_invariant_circle():
    est = estimate_omega(get_system("rotation-scaling"), [2.0, 0.0])
    assert est.converged
    assert est.shape == "curve" and est.period is None
    radii = np.linalg.norm(est.points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-9


def test_omega_negation_period_two():
    est = estimate_omega(get_system("negation"), [0.7])
    assert est.converged
    assert est.shape == "periodic-orbit" and est.period == 2
    assert est.diameter == pytest.approx(1.4)


def test_omega_burn_invariance():
    # pushing the whole sampling window forward in time moves a converged
    # estimate by less than its own settle tolerance (limit sets map into
    # themselves)
    for name, x0 in [("mobius", [0.0]), ("cot-map", [1.0]),
                     ("rotation-scaling", [2.0, 0.0])]:
        system = get_system(name)
        e1 = estimate_omega(system, x0)
        e2 = estimate_omega(system, x0,
                            dataclasses.replace(Settings(),
                                                burn=Settings().burn + Settings().tail))
        assert e1.converged and e2.converged
        tol = max(e1.settle_tol, e2.settle_tol)
        assert hausdorff(e1.points, e2.points) <= tol, name


def assert_same_estimate(a, b):
    for f in dataclasses.fields(LimitSetEstimate):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and (x == y).all(), f.name
        else:
            assert x == y, f.name


def _batch_cases():
    rng = np.random.default_rng(7)
    for entry in list_systems():
        system = get_system(entry["name"])
        box = [[-2.0, 2.0]] * system.dim
        seeds = default_seeds(entry["name"]) + list(system.domain.sample(6, rng, box=box))
        yield entry["name"], system, seeds
    # escaping seeds and the pole itself, on the benchmark's window
    mob = get_system("mobius").restrict(DomainRegion.interval(-5.0, 5.0))
    yield "mobius[-5,5]", mob, [[0.5], [1.5], [2.9], [3.0], [4.5], [-4.0], [1.0], [5.0 / 3.0]]
    # a defective unit eigenvalue never settles
    yield "jordan-lam-1", get_system("jordan", lam=1.0), [[0.0, 1.0], [0.5, 0.5], [0.3, -0.2]]


@pytest.mark.parametrize("name,system,seeds", list(_batch_cases()),
                         ids=[case[0] for case in _batch_cases()])
def test_batch_estimates_equal_single_seed_estimates(name, system, seeds):
    batch = estimate_omega_batch(system, seeds, FAST)
    assert len(batch) == len(seeds)
    for seed, est in zip(seeds, batch):
        assert_same_estimate(est, estimate_omega(system, seed, FAST))
    if name == "mobius[-5,5]":
        assert {e.status for e in batch} == {"converged", "escaped", "singular"}
    if name == "jordan-lam-1":
        assert {e.status for e in batch} == {"unconverged"}


def test_batch_estimates_do_not_depend_on_order_or_company():
    system = get_system("rotation-scaling")
    rng = np.random.default_rng(3)
    seeds = list(rng.uniform(-2.0, 2.0, (24, 2))) + [np.zeros(2)]
    whole = estimate_omega_batch(system, seeds, FAST)
    order = rng.permutation(len(seeds))
    shuffled = estimate_omega_batch(system, [seeds[i] for i in order], FAST)
    for k, i in enumerate(order):
        assert_same_estimate(shuffled[k], whole[i])
    sub = [3, 11, 24]
    for k, est in enumerate(estimate_omega_batch(system, [seeds[i] for i in sub], FAST)):
        assert_same_estimate(est, whole[sub[k]])
    assert estimate_omega_batch(system, [], FAST) == []


def test_an_orbit_that_escapes_inside_a_tail_window_is_an_escaped_estimate():
    # 1.01^n passes r_div = 1e12 near n = 2,777: after the burn and four
    # tail windows that did not settle, inside the fifth
    system = get_system("scalar-linear", a=1.01)
    cfg = Settings()
    seeds = [1.0, 0.0, -3.0]
    batch = estimate_omega_batch(system, seeds, cfg)
    for seed, est in zip(seeds, batch):
        assert_same_estimate(est, estimate_omega(system, seed, cfg))
    assert batch[1].status == "converged"
    for est in batch[0], batch[2]:
        orbit = iterate(system, est.seed, cfg.burn + 5 * cfg.tail, r_div=cfg.r_div)
        assert cfg.burn + 4 * cfg.tail < orbit.steps_taken < cfg.burn + 5 * cfg.tail
        assert (est.status, est.converged, est.shape) == ("escaped", False, "unknown")
        assert np.array_equal(est.points, orbit.points[-1:])     # the image kept
        assert np.abs(est.points).max() > cfg.r_div
        assert est.settle_gap == float("inf")


def test_estimator_config_rejects_impossible_settings():
    for bad in ({"burn": -1}, {"tail": 0}, {"max_rounds": -1}):
        with pytest.raises(ValueError):
            Settings(**bad)
    Settings(burn=0, tail=1, max_rounds=0)


@pytest.mark.parametrize("bad", [
    {"r_div": 0.0}, {"r_div": -1.0}, {"r_div": float("inf")}, {"r_div": float("nan")},
    {"tol_settle": -1.0}, {"tol_settle": float("inf")}, {"gap_factor": -1.0},
    {"gap_factor": float("nan")}, {"tol_fp": -1e-6}, {"tol_fp": float("inf")},
    {"max_period": -5}])
def test_estimator_config_rejects_impossible_tolerances(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        Settings(**bad)


def test_estimator_config_accepts_zero_tolerances():
    Settings(tol_settle=0.0, gap_factor=0.0, tol_fp=0.0, max_period=0)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Settings)
                                  if type(f.default) is int])
def test_settings_reject_a_value_an_integer_field_does_not_hold(name):
    # each used to construct: tail=3.7 ran a 3-point window, and burn=nan
    # failed inside the orbit engine without naming the setting
    for bad in (float("nan"), float("inf"), -float("inf"), 2.5):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            Settings(**{name: bad})


def test_settings_store_each_value_as_its_fields_type():
    sets = Settings(tol_cluster=1, burn=5.0)
    assert (sets.tol_cluster, type(sets.tol_cluster)) == (1.0, float)
    assert (sets.burn, type(sets.burn)) == (5, int)
    with pytest.raises(ValueError, match="^tol_fp must be a number, got nan"):
        Settings(tol_fp=float("nan"))


# -- boundedness ------------------------------------------------------------------

def test_omega_convergence_matches_boundedness_on_linear_maps():
    # bounded linear orbits settle; unbounded ones escape
    cases = [(np.diag([0.5, 0.5]), [1.0, 1.0], True),
             (np.diag([1.1, 0.5]), [1.0, 1.0], False),
             (0.9 * np.array([[np.cos(1), np.sin(1)], [-np.sin(1), np.cos(1)]]),
              [1.0, 1.0], True)]
    for A, xi, bounded in cases:
        system = LinearSystem(A).as_map()
        est = estimate_omega(system, xi)
        assert est.converged == bounded


# -- clustering -------------------------------------------------------------------

def test_cluster_rejects_unconverged_estimates():
    good = estimate_omega(get_system("mobius"), [0.0])
    bad = estimate_omega(get_system("scalar-linear", a=1.1), [1.0])
    with pytest.raises(UnconvergedError):
        cluster_limit_sets([good, bad])


def test_cluster_negation_families_stay_distinct():
    system = get_system("negation")
    ests = [estimate_omega(system, [s]) for s in (0.7, 1.3, 0.0, -0.4)]
    catalog = cluster_limit_sets(ests)
    assert catalog.labels == ["S0", "S1", "S2", "S3"]
    # members are ordered by first-seen seed: -0.4, 0.0, 0.7, 1.3
    assert [m.diameter for m in catalog.members] == pytest.approx([0.8, 0.0, 1.4, 2.6], abs=1e-9)
    assert [m.shape for m in catalog.members] == [
        "periodic-orbit", "fixed-point", "periodic-orbit", "periodic-orbit"]


def test_cluster_merges_phase_shifted_curve_samples(rotation_catalog):
    # three circle estimates sampled at different orbit phases sit ~half a
    # sampling gap apart; the merge tolerance adapts and keeps them together
    system = get_system("rotation-scaling")
    ests = [estimate_omega(system, s) for s in ([2.0, 0.0], [0.5, 0.5], [-1.5, 0.25])]
    catalog = cluster_limit_sets(ests)
    assert len(catalog) == 1
    assert catalog.members[0].n_estimates == 3
    assert catalog.members[0].shape == "curve"


def test_cluster_is_idempotent(rotation_catalog):
    synthetic = [
        LimitSetEstimate(points=m.points, source="omega", seed=m.first_seed,
                         diameter=m.diameter, shape=m.shape, period=m.period,
                         converged=True, status="converged",
                         settle_gap=0.0, settle_tol=1e-7)
        for m in rotation_catalog.members
    ]
    again = cluster_limit_sets(synthetic)
    assert len(again) == len(rotation_catalog)
    for a, b in zip(again.members, rotation_catalog.members):
        assert hausdorff(a.points, b.points) == 0.0


def test_catalog_takes_each_converged_window_gap_once(monkeypatch):
    # the shape test and the clustering share the estimate's prepared window,
    # so the gap worker sees each converged window once and each merged
    # member's final cloud once
    measured, estimates = [], []
    worker, batch = geometry._sampling_gap, limits.estimate_omega_batch

    def count(cloud):
        measured.append(cloud.points)
        return worker(cloud)

    def keep(*args, **kwargs):
        estimates.extend(batch(*args, **kwargs))
        return estimates

    monkeypatch.setattr(geometry, "_sampling_gap", count)
    monkeypatch.setattr(limits, "estimate_omega_batch", keep)
    seeds = default_seeds("rotation-scaling") + [[1.2, -0.7], [0.1, 1.9]]
    catalog, skipped = catalog_from_seeds(get_system("rotation-scaling"), seeds, cfg=FAST)
    assert skipped == [] and len(estimates) == len(seeds)
    assert sum(e.shape == "curve" for e in estimates) == len(seeds) - 1
    for e in estimates:
        assert sum(points is e.points for points in measured) == 1
    merged = sum(m.n_estimates > 1 for m in catalog.members)
    assert merged > 0 and len(measured) == len(estimates) + merged


def _shape_over_every_lag(points, tol_fp, max_period):
    """The shape test checking every lag in full, in ascending order."""
    diam = diameter(points)
    if diam < tol_fp:
        return "fixed-point", 1, diam
    for p in range(1, min(max_period, len(points) - 1) + 1):
        if np.linalg.norm(points[p:] - points[:-p], axis=1).max() < tol_fp:
            return "periodic-orbit", p, diam
    if sampling_gap(points) < 0.05 * diam:
        return "curve", None, diam
    return "unknown", None, diam


def test_shape_test_checks_in_full_only_lags_whose_first_step_is_close(rng):
    angle = np.arange(300) * 1.0
    windows = [
        np.tile([[0.0], [1.0], [2.0]], (60, 1)) + 1e-9 * rng.normal(size=(180, 1)),
        # x_2 == x_0 but x_3 != x_1: lag 2 passes its first step only, lag 4 passes
        np.tile([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], (50, 1)),
        np.column_stack([np.cos(angle), np.sin(angle)]),         # a curve
        rng.normal(size=(40, 3)),
        np.zeros((1, 2)),
        np.array([[0.0], [1.0]]),
    ]
    for w in windows:
        for tol_fp in (1e-12, 1e-6, 0.5):
            for max_period in (0, 1, 3, 8):
                got = _classify_shape(_prepare(w), tol_fp, max_period)
                assert got == _shape_over_every_lag(w, tol_fp, max_period)
                assert got[1] is None or type(got[1]) is int
    assert _classify_shape(_prepare(windows[1]), 1e-6, 8)[:2] == ("periodic-orbit", 4)


def test_catalog_from_seeds_reports_skips():
    catalog, skipped = catalog_from_seeds(get_system("jordan"),  # lam=1, defective
                                          [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                          cfg=FAST)
    assert len(catalog) == 1                     # only the fixed ray converges
    assert hausdorff(catalog.members[0].points, [[1.0, 0.0]]) < 1e-9
    assert len(skipped) == 2
    assert {status for _, status in skipped} == {"unconverged"}


def test_catalog_from_seeds_reads_a_flat_list_as_one_seed_per_number():
    system = get_system("mobius")
    flat, flat_skipped = catalog_from_seeds(system, [0.0, -0.5], cfg=FAST)
    rows, rows_skipped = catalog_from_seeds(system, [[0.0], [-0.5]], cfg=FAST)
    assert catalog_to_dict(flat) == catalog_to_dict(rows)
    assert flat_skipped == rows_skipped == []


def test_catalog_lookup_and_separation(mobius_unit_catalog, rotation_catalog):
    cat = mobius_unit_catalog
    assert cat.labels == ["S0", "S1"]
    assert hausdorff(cat.member("S0").points, [[-1.0]]) < 1e-9
    assert hausdorff(cat.member("S1").points, [[1.0]]) < 1e-9
    assert cat.min_separation() == pytest.approx(2.0, rel=1e-9)
    assert rotation_catalog.min_separation() == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(KeyError):
        cat.member("S9")


def test_catalog_match_and_tolerance(mobius_unit_catalog):
    cat = mobius_unit_catalog
    assert cat.match(np.array([[-1.0 + 1e-9]])) == "S0"
    assert cat.match(np.array([[1.0 - 1e-9]])) == "S1"
    assert cat.match(np.array([[0.3]])) is None
    for m in cat.members:
        assert 0.0 < cat.match_tolerance(m) < cat.min_separation()


def test_catalog_to_dict_validates(rotation_catalog, mobius_unit_catalog):
    for cat in (rotation_catalog, mobius_unit_catalog):
        doc = catalog_to_dict(cat)
        validate(doc, "limit-set-catalog")
        assert len(doc["members"]) == len(cat)


# -- basins -----------------------------------------------------------------------

def test_basins_mobius_unit_interval(mobius_unit, mobius_unit_catalog):
    basins = compute_basins(mobius_unit, mobius_unit_catalog, resolution=401)
    codes = basins.codes
    assert codes.shape == (401,)
    labels = [basins.label_of_code(c) for c in np.unique(codes)]
    counts = {lab: int((codes == c).sum())
              for c, lab in zip(np.unique(codes), labels)}
    # everything attracts to -1 except the repelling endpoint node at exactly 1.0
    assert counts == {"S0": 400, "S1": 1}
    assert basins.node((400,))[0] == 1.0
    assert basins.label_at((400,)) == "S1"


def test_basins_are_thread_count_independent(mobius_unit, mobius_unit_catalog):
    a = compute_basins(mobius_unit, mobius_unit_catalog, resolution=101, threads=1)
    b = compute_basins(mobius_unit, mobius_unit_catalog, resolution=101, threads=4)
    assert np.array_equal(a.codes, b.codes)


def test_basins_settle_in_at_least_one_chunk_per_thread(mobius_unit, mobius_unit_catalog,
                                                        monkeypatch):
    import limitlab.limits as limits
    chunks = []
    settle = limits._settle_batch

    def counted(system, X0, *rest):
        chunks.append(len(X0))
        return settle(system, X0, *rest)

    monkeypatch.setattr(limits, "_settle_batch", counted)
    default = limits._BATCH
    for threads, batch, want in [(1, default, [101]), (4, default, [26, 25, 25, 25]),
                                 (3, 20, [17] * 5 + [16])]:
        chunks.clear()
        monkeypatch.setattr(limits, "_BATCH", batch)
        compute_basins(mobius_unit, mobius_unit_catalog, resolution=101, threads=threads)
        assert sorted(chunks, reverse=True) == want
    for bad in ({"threads": 0}, {"threads": -2}, {"resolution": 0}, {"resolution": -3}):
        with pytest.raises(ValueError):
            compute_basins(mobius_unit, mobius_unit_catalog, **{"resolution": 11, **bad})


def test_basins_refuse_a_non_integral_resolution_or_thread_count(mobius_unit,
                                                                 mobius_unit_catalog):
    # as Settings refuses burn=2.5: a resolution of 2.5 would settle a
    # 2-node grid, and 1.5 threads is no thread count
    for name, value in [("resolution", 2.5), ("resolution", [3, 2.5]), ("resolution", "11"),
                        ("resolution", float("nan")), ("threads", 1.5)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            compute_basins(mobius_unit, mobius_unit_catalog, **{"resolution": 11, name: value})
    # integral values of any numeric type are accepted
    want = compute_basins(mobius_unit, mobius_unit_catalog, resolution=11).codes
    for ok in ({"resolution": 11.0}, {"resolution": np.int64(11)}, {"resolution": [11]},
               {"threads": 2.0}, {"threads": np.int32(2)}):
        got = compute_basins(mobius_unit, mobius_unit_catalog, **{"resolution": 11, **ok})
        assert np.array_equal(got.codes, want)


def _layout_grid(name):
    """``(system, seeds, region, resolution, cfg)`` of a basin grid."""
    box = DomainRegion.box([[-2.0, 2.0]] * 2)
    if name == "linear-9d":
        rng = np.random.default_rng(5)
        A = rng.normal(size=(9, 9))
        A *= 0.5 / np.abs(np.linalg.eigvals(A)).max()
        return (LinearSystem(A, name=name).as_map(), [np.zeros(9)],
                DomainRegion.box([[-1.0, 1.0]] * 9), 3, Settings(basin_burn=100, basin_window=8))
    if name == "rotation-scaling-back":     # most rows leave the disc, at many steps
        return get_system("rotation-scaling").reversed(), [[0.1, 0.1]], box, 41, None
    if name == "mobius":
        return get_system(name), default_seeds(name), DomainRegion.interval(-5.0, 5.0), 201, None
    system = get_system(name, **({"lam": 0.9} if name == "jordan" else {}))
    return system, default_seeds(name), box, 41, None


@pytest.mark.parametrize("name", ["mobius", "rotation-scaling", "rotation-scaling-back",
                                  "jordan", "linear-9d"])
def test_basin_codes_do_not_depend_on_the_grid_layout(name, monkeypatch):
    # the grid is column-major; a row-major copy of it gives the same codes,
    # also where rows stop (and are gathered out) and in 9-d, where the
    # bounds take numpy's pairwise row norm
    from limitlab import dynamics

    system, seeds, region, resolution, cfg = _layout_grid(name)
    catalog, _ = catalog_from_seeds(system, seeds, FAST)

    def codes():
        return compute_basins(system, catalog, region=region, resolution=resolution,
                              cfg=cfg, threads=2).codes

    column_major = codes()
    monkeypatch.setattr(limits, "_grid_nodes",
                        lambda axes: np.ascontiguousarray(dynamics._grid_nodes(axes)))
    assert np.array_equal(codes(), column_major)
    if name not in ("jordan", "linear-9d"):     # those have one basin
        assert len(np.unique(column_major)) >= 2


def test_basins_ask_for_at_most_max_threads_workers(mobius_unit, mobius_unit_catalog,
                                                    monkeypatch):
    # a serial stand-in for the pool records the workers asked for and the
    # chunks given, and starts no thread; above config.MAX_THREADS no pool
    # is made at all
    import concurrent.futures
    asked, sizes = [], []
    settle = limits._settle_batch

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def counted(system, X0, *rest):
        sizes.append(len(X0))
        return settle(system, X0, *rest)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(limits, "_settle_batch", counted)
    serial = compute_basins(mobius_unit, mobius_unit_catalog, resolution=101)
    sizes.clear()
    most = compute_basins(mobius_unit, mobius_unit_catalog, resolution=101,
                          threads=config.MAX_THREADS)
    assert asked == [config.MAX_THREADS]
    assert sorted(sizes, reverse=True) == [2] * 37 + [1] * 27     # 64 chunks, not 51
    assert np.array_equal(most.codes, serial.codes)
    sizes.clear()
    few = compute_basins(mobius_unit, mobius_unit_catalog, resolution=5,
                         threads=config.MAX_THREADS)
    assert asked == [config.MAX_THREADS, 5] and sizes == [1] * 5    # a worker per node
    assert np.array_equal(few.codes, compute_basins(mobius_unit, mobius_unit_catalog,
                                                    resolution=5).codes)
    over = config.MAX_THREADS + 1
    with pytest.raises(ValueError, match=f"<= {config.MAX_THREADS}, got {over}$"):
        compute_basins(mobius_unit, mobius_unit_catalog, resolution=101, threads=over)
    assert asked == [config.MAX_THREADS, 5]


def test_basin_escape_and_singular_codes():
    doubler = get_system("scalar-linear", a=2.0)
    catalog, _ = catalog_from_seeds(doubler, [0.0], cfg=FAST)
    region = DomainRegion.interval(-1.0, 1.0, excluded=[0.5], eps_excl=0.015)
    basins = compute_basins(doubler.restrict(region), catalog,
                            region=region, resolution=101)
    labels = [basins.label_at((i,)) for i in range(101)]
    assert labels[50] == "S0"                   # the node at exactly 0.0
    assert labels[75] == "singular"             # the node inside the excluded ball
    assert labels.count("escaped") >= 90
    assert set(labels) == {"S0", "singular", "escaped"}


def _brute_force_basin_codes(system, catalog, nodes, cfg):
    """The settling protocol with the nearest member found over raw points."""
    X = nodes.copy()
    for _ in range(cfg.basin_burn):
        X = system.forward(X)
    owner = np.full(len(X), -1)
    consistent = np.ones(len(X), dtype=bool)
    max_dist = np.zeros(len(X))
    for _ in range(cfg.basin_window):
        dist = np.stack([np.linalg.norm(X[:, None, :] - m.points[None], axis=-1).min(axis=1)
                         for m in catalog.members], axis=1)
        who = dist.argmin(axis=1)
        owner = np.where(owner == -1, who, owner)
        consistent &= owner == who
        max_dist = np.maximum(max_dist, dist.min(axis=1))
        X = system.forward(X)
    tol = np.array([catalog.match_tolerance(m) for m in catalog.members])
    ok = consistent & (max_dist <= tol[owner])
    return np.where(ok, owner, -1)


def _reference_basin_code(system, catalog, node, cfg):
    """One node's code from its own orbit: the engine's termination cause,
    else the nearest member of every window state and the tolerance rule."""
    traj = iterate(system, node, cfg.basin_burn + cfg.basin_window, r_div=cfg.escape_radius)
    if traj.termination != "completed":
        return CODE_SINGULAR if traj.termination == "singular" else CODE_ESCAPED
    owners, worst = set(), 0.0
    for x in traj.points[cfg.basin_burn:cfg.basin_burn + cfg.basin_window]:
        dist = [np.linalg.norm(m.points - x, axis=1).min() for m in catalog.members]
        owners.add(int(np.argmin(dist)))
        worst = max(worst, min(dist))
    if len(owners) == 1 and worst <= catalog.match_tolerance(catalog.members[min(owners)]):
        return owners.pop()
    return CODE_UNDETERMINED


# each reference case is (system, catalog, region, grid resolution per axis);
# the reference steps every node alone, so the 2-d cases whose orbits all run
# the full burn and window use a 9 x 9 grid

def _seeded(system, seeds, region, resolution=41):
    return system, catalog_from_seeds(system, seeds, cfg=FAST)[0], region, resolution


def _point_members(*points):
    # one single-point member per point, held to the cluster tolerance 1e-3
    members = tuple(CatalogMember(label=f"S{i}", points=np.array([p], dtype=float),
                                  shape="fixed-point", period=1, diameter=0.0,
                                  first_seed=np.array(p, dtype=float), n_estimates=1,
                                  precompact=True, resolution=0.0)
                    for i, p in enumerate(points))
    return LimitSetCatalog(members=members, tol_cluster=1e-3)


_STILL = LinearSystem(np.eye(2)).as_map()


def _pole_map():
    # the rational map confined to [-5, 5]: the pole at 3 is an excluded
    # point, and the images of nodes near it leave the interval
    region = DomainRegion.interval(-5.0, 5.0, excluded=[3.0])
    return _seeded(get_system("mobius").restrict(region), [[0.0], [1.0]], region)


def _pole_map_per_row():
    system, catalog, region, resolution = _pole_map()
    return dataclasses.replace(system, vectorized=False), catalog, region, resolution


def _excluded_ball_doubler():
    region = DomainRegion.interval(-1.0, 1.0, excluded=[0.5], eps_excl=0.015)
    return _seeded(get_system("scalar-linear", a=2.0).restrict(region), [0.0], region)


def _shear_doubler():
    # x is kept and y doubled: nodes off the x axis escape, nodes on it stay
    # where they are and only the origin sits on the member
    system = LinearSystem(np.diag([1.0, 2.0])).as_map()
    return _seeded(system, [[0.0, 0.0]], DomainRegion.box([[-1.0, 1.0], [-1.0, 1.0]]))


def _tiny_spread_contraction():
    # one compact member: distinct points of a decaying orbit near 1e-43
    return _seeded(get_system("jordan", lam=0.9), [[0.5, 0.7], [-0.3, 0.9], [0.8, -0.6]],
                   DomainRegion.box([[-1.0, 1.0], [-1.0, 1.0]]), 9)


def _origin_inside_circle():
    # the compact origin sits inside the box of the circle, which is not
    # compact: rows near either must go to the tree
    return _seeded(get_system("rotation-scaling"), default_seeds("rotation-scaling"),
                   DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]]), 9)


def _near_tie():
    # two points 2**-60 apart, seen from 1e-4 away: each row's distances to
    # the two differ by less than the bounds' margin, and the middle row ties
    return (_STILL, _point_members([0.0, 0.0], [0.0, 2.0 ** -60]),
            DomainRegion.box([[-1e-4, 1e-4], [-1e-4, 1e-4]]), 9)


def _subnormal_members():
    # members and rows below the smallest normal float: every square underflows
    return (_STILL, _point_members([0.0, 0.0], [2e-310, 1e-310]),
            DomainRegion.box([[-4e-310, 4e-310], [-4e-310, 4e-310]]), 9)


def _ruled_out_rows():
    # every orbit decays to the origin, which no member holds: each row's
    # distance to both members' boxes exceeds their tolerance
    return (LinearSystem(0.5 * np.eye(2)).as_map(),
            _point_members([1.5, 1.5], [-1.5, 1.5]),
            DomainRegion.box([[-1.0, 1.0], [-1.0, 1.0]]), 9)


def _period_three():
    # a 120-degree rotation pulled onto the unit circle, one seeded orbit: a
    # period-3 member, held to 0.3 so that nodes turning beside it settle on
    # it at every window step, each step one member point further on
    system = get_system("rotation-scaling", theta=2 * np.pi / 3)
    catalog, _ = catalog_from_seeds(system, [[1.0, 0.0]],
                                    cfg=dataclasses.replace(FAST, tol_cluster=0.3))
    return system, catalog, DomainRegion.box([[-1.5, 1.5], [-1.5, 1.5]]), 9


def _thinned_successor():
    # x -> x/2 beside a hand-built member {0, 0.01, 0.02}: the image 0.005 of
    # 0.01 is farther than the tolerance from every stored point, so a row
    # anchored at 0.01 finds no member point near its next state
    half = get_system("scalar-linear", a=0.5)
    catalog, _ = catalog_from_seeds(half, [0.0], cfg=FAST)
    member = dataclasses.replace(catalog.members[0], resolution=0.0,
                                 points=np.array([[0.0], [0.01], [0.02]]))
    catalog = LimitSetCatalog(members=(member,), tol_cluster=catalog.tol_cluster)
    return half, catalog, DomainRegion.interval(-0.2, 0.2), 41


def _wide_beside_point():
    # the origin and, 1e-12 to its right, a member spread along a line (box
    # diagonal 2, past its tolerance): rows right of the origin are clearly
    # nearer the line, and rows on the middle column are nearer the origin
    # by less than the bounds' margin
    catalog = _point_members([0.0, 0.0], [1e-12, 0.0])
    line = dataclasses.replace(catalog.members[1], shape="curve",
                               points=np.array([[1e-12, -1.0], [1e-12, 0.0], [1e-12, 1.0]]))
    catalog = LimitSetCatalog(members=(catalog.members[0], line),
                              tol_cluster=catalog.tol_cluster)
    return _STILL, catalog, DomainRegion.box([[-1e-4, 1e-4], [-1e-4, 1e-4]]), 9


_BASIN_CASES = [_pole_map, _pole_map_per_row, _excluded_ball_doubler, _shear_doubler,
                _tiny_spread_contraction, _origin_inside_circle, _near_tie,
                _subnormal_members, _ruled_out_rows, _period_three, _thinned_successor,
                _wide_beside_point]


@pytest.mark.parametrize("case", _BASIN_CASES)
@pytest.mark.parametrize("cfg", [Settings(),
                                 Settings(basin_burn=3, basin_window=4, escape_radius=40.0)])
def test_basin_codes_equal_a_per_node_reference(case, cfg):
    system, catalog, region, resolution = case()
    basins = compute_basins(system, catalog, region=region, resolution=resolution, cfg=cfg)
    for idx in np.ndindex(basins.codes.shape):
        want = _reference_basin_code(system, catalog, basins.node(idx), cfg)
        assert basins.codes[idx] == want, (idx, basins.node(idx))


_TREE = -1      # the verdict of a row that :meth:`_SettleStage.nearest` asks the tree about


def _verdicts(stage, Q, anchor, live=None):
    """``(verdict, bound, cand)`` of every row of ``Q``: the owner the
    separation test settled it on, or ``_TREE`` where the stage asks the tree
    (every row is ``live`` unless said otherwise), with the bound and
    candidate it was measured against. A row the tree answers reports the
    tree's distance, which lies below the row's bound, and the tree's owner
    and point."""
    Q = np.asarray(Q, dtype=float)
    anchor = np.asarray(anchor)
    live = np.ones(len(Q), dtype=bool) if live is None else live
    who, bound, cand = stage.nearest(Q, anchor, np.zeros(len(Q), dtype=bool))
    owner, dist, point = stage.nearest(Q, anchor, live)
    asked = dist < bound
    assert (asked <= live).all()
    dist_t, idx_t = stage.tree.query(Q[asked], k=1)
    assert np.array_equal(dist[asked], dist_t) and np.array_equal(point[asked], idx_t)
    assert np.array_equal(owner[asked], stage.owners[idx_t])
    kept = ~asked
    assert np.array_equal(owner[kept], who[kept]) and np.array_equal(dist[kept], bound[kept])
    assert np.array_equal(point[kept], cand[kept])
    return np.where(asked, _TREE, who), bound, cand


@pytest.mark.parametrize("case", _BASIN_CASES)
def test_the_separation_test_gives_the_box_bounds_verdict(case):
    # the case's grid nodes under random anchors; rows around their
    # candidate, in random directions, up to past its tolerance; and rows on
    # the way from the candidate to the nearest point of another member's
    # box, where the separation test must leave open what the tree decides.
    # A row it settles gets the verdict the members' boxes prove, the tree's
    # owner, with a bound at least the tree's distance and within the
    # owner's tolerance
    system, catalog, region, resolution = case()
    tol = np.array([catalog.match_tolerance(m) for m in catalog.members])
    stage = _SettleStage(system, [m._cloud.distinct for m in catalog.members], tol)
    rng = np.random.default_rng(7)
    nodes = _grid_nodes(region.grid(resolution))
    anchor = rng.integers(-1, len(stage.points), len(nodes) + 4000)
    cand = np.maximum(stage.succ[anchor[len(nodes):]], 0)
    p = stage.points[cand]
    around, toward = slice(0, 2000), slice(2000, None)
    spread = tol[stage.owners[cand[around]]] * rng.uniform(0.0, 1.5, 2000)
    unit = rng.normal(size=(2000, p.shape[1]))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    # each box's nearest point to the candidate; with one member, its own
    boxes = np.array([np.clip(p[toward], lo, hi) for lo, hi in zip(stage.lo, stage.hi)])
    dist = np.linalg.norm(boxes - p[toward], axis=2)
    dist[stage.owners[cand[toward]], np.arange(2000)] = np.inf
    nearest = boxes[dist.argmin(axis=0), np.arange(2000)]
    t = rng.uniform(0.0, 1.2, 2000)[:, None]
    Q = np.vstack([nodes, p[around] + unit * spread[:, None],
                   p[toward] + t * (nearest - p[toward])])
    verdict, bound, got = _verdicts(stage, Q, anchor)
    dist_t, idx_t = stage.tree.query(Q, k=1)
    settled = verdict != _TREE
    assert np.array_equal(verdict[settled], stage.owners[idx_t[settled]])
    assert (bound[settled] >= dist_t[settled]).all()
    assert (bound[settled] <= tol[verdict[settled]]).all()
    # a row whose anchor has a successor is measured against it; any other
    # row against the first point of a member
    follows = stage.succ[anchor] >= 0
    assert np.array_equal(got[follows], stage.succ[anchor][follows])
    assert np.isin(got[~follows], stage.first).all()


def test_the_tree_takes_at_most_one_row_per_step_after_the_first(monkeypatch,
                                                                 rotation_catalog):
    # on the rotation-scaling grid every orbit but the origin's turns along
    # the circle: once its first step has anchored a row, the separation
    # test settles it, and only the origin's row, inside the circle's box,
    # goes to the tree
    rows = []
    nearest = _SettleStage.nearest

    def counted(self, Q, anchor, live):
        tree = self.tree
        rows.append(0)

        class Spy:
            def query(self, X, k):
                rows[-1] += len(X)
                return tree.query(X, k=k)

        self.tree = Spy()
        try:
            return nearest(self, Q, anchor, live)
        finally:
            self.tree = tree

    monkeypatch.setattr(_SettleStage, "nearest", counted)
    basins = compute_basins(get_system("rotation-scaling"), rotation_catalog,
                            region=DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]]), resolution=41)
    assert (basins.codes >= 0).all()
    assert len(rows) == Settings().basin_window
    assert 0 < rows[0] <= 41 * 41 and max(rows[1:]) <= 1


def _unanchored(stage, rows):
    Q = np.array(rows, dtype=float)
    return _verdicts(stage, Q, np.full(len(Q), -1))


def test_basin_bounds_decide_only_clear_rows():
    tol = np.array([1e-3, 1e-3])
    stage = _SettleStage(_STILL, [np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])], tol)
    tol_edge = 1e-3 * np.array([1 - 1e-15, 1 + 1e-15])
    rows = [[1e-4, 0.0], [1.0, 5e-4], [0.5, 0.3], [tol_edge[0], 0.0], [tol_edge[1], 0.0]]
    who, bound, _ = _unanchored(stage, rows)
    # settled on each member, with a bound between the distance and the
    # tolerance; far from both, or within the margin of the tolerance either
    # way, asked of the tree, whose distance far from both is past both
    # tolerances
    assert who.tolist() == [0, 1, _TREE, _TREE, _TREE]
    assert 1e-4 <= bound[0] <= 1e-3 and 5e-4 <= bound[1] <= 1e-3
    assert stage.tree.query(rows[2])[0] > tol.max()

    # near-ties and underflowed distances between two compact members go to
    # the tree
    for members, rows in [(([0.0, 0.0], [0.0, 2.0 ** -60]), [[1e-4, 1e-5], [1e-4, 0.0]]),
                          (([0.0, 0.0], [2e-310, 1e-310]), [[3e-310, 0.0], [-1e-310, 0.0]])]:
        stage = _SettleStage(_STILL, [np.array([m]) for m in members], tol)
        assert _unanchored(stage, rows)[0].tolist() == [_TREE, _TREE]
    # alone, a subnormal member settles the rows within its tolerance
    stage = _SettleStage(_STILL, [np.array([[2e-310, 1e-310]])], tol[:1])
    assert _unanchored(stage, [[0.0, 0.0]])[0].tolist() == [0]

    # a member whose box diagonal exceeds its tolerance: an unanchored row
    # is measured against its first point, an anchored one against its
    # anchor's successor, and its box shields the compact member inside it
    wide = np.array([[-1.0, 0.0], [1.0, 0.0]])
    stage = _SettleStage(_STILL, [wide], tol[:1])
    Q = np.array([[-1.0 + 1e-4, 0.0], [1.0 - 1e-4, 0.0], [1.0 - 1e-4, 0.0]])
    who, _, cand = _verdicts(stage, Q, np.array([-1, -1, 1]))
    assert who.tolist() == [0, _TREE, 0] and cand.tolist() == [0, 0, 1]
    stage = _SettleStage(_STILL, [np.array([[0.0, 0.0]]), wide], tol)
    rows = [[1e-4, 0.0], [0.0, 0.5]]
    assert _unanchored(stage, rows)[0].tolist() == [_TREE, _TREE]
    assert stage.tree.query(rows[1])[0] > tol.max()
    # a row that is not live is never asked of the tree
    Q = np.array(rows)
    who, dist, cand = stage.nearest(Q, np.full(2, -1), np.array([False, True]))
    assert dist[0] > 0.9 and cand[0] == 1 and dist[1] == 0.5


def test_basin_successors_follow_the_map_on_the_member():
    # a period-3 member: each point's successor is the next point of the
    # cycle, and a row beside the image of its anchor settles on that image
    system = get_system("rotation-scaling", theta=2 * np.pi / 3)
    angle = 2 * np.pi / 3 * np.arange(3)
    cycle = np.column_stack([np.cos(angle), np.sin(angle)])
    stage = _SettleStage(system, [cycle], np.array([1e-3]))
    succ = stage.succ[:3]
    assert sorted(succ.tolist()) == [0, 1, 2] and (succ != np.arange(3)).all()
    assert succ[succ[succ]].tolist() == [0, 1, 2]
    assert np.allclose(stage.points[succ], system.forward(stage.points), atol=1e-12)
    Q = stage.points[succ] + [1e-4, 0.0]
    who, _, cand = _verdicts(stage, Q, np.arange(3))
    assert who.tolist() == [0, 0, 0] and cand.tolist() == succ.tolist()
    # unanchored, only the row beside the member's first point settles
    who, _, cand = _unanchored(stage, Q)
    assert (who == 0).sum() == 1 and cand.tolist() == [0, 0, 0]

    # a point outside the domain, at an excluded point or with a non-finite
    # image has no successor; a row anchored there falls back to the first
    # point of its nearest box
    region = DomainRegion.box([[-1.0, 1.0], [-1.0, 1.0]], excluded=[[0.5, 0.0]])
    stage = _SettleStage(_STILL.restrict(region),
                         [np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])], np.array([1e-3]))
    assert stage.succ.tolist() == [0, -1, -1, -1]
    assert _verdicts(stage, [[1e-4, 0.0]], [2])[2].tolist() == [0]
    ratio = DiscreteMap(dim=2, forward=lambda X: X / X[:, :1],
                        domain=DomainRegion.full_space(2))
    stage = _SettleStage(ratio, [np.array([[0.0, 1.0], [1.0, 0.0]])], np.array([1e-3]))
    assert stage.succ.tolist() == [-1, 1, -1]


def test_a_row_past_its_tolerance_is_not_asked_again(monkeypatch):
    # one member of two points 2 apart, each held to 1e-3, and a still map:
    # every node of the grid between them sits inside the member's box, at
    # about 1 from both points. Its first query finds it past its
    # tolerance, so it turns inconsistent, and the tree is not asked about
    # it again: the tree sees the member points' images and the nodes once
    asked = []

    class Counted(cKDTree):
        def query(self, x, *args, **kwargs):
            asked.append(len(x))
            return super().query(x, *args, **kwargs)

    member = _point_members([-1.0, 0.0]).members[0]
    member = dataclasses.replace(member, shape="curve", points=np.array([[-1.0, 0.0], [1.0, 0.0]]))
    catalog = LimitSetCatalog(members=(member,), tol_cluster=1e-3)
    monkeypatch.setattr(limits, "cKDTree", Counted)
    basins = compute_basins(_STILL, catalog, region=DomainRegion.box([[-0.1, 0.1]] * 2),
                            resolution=3)
    assert (basins.codes == CODE_UNDETERMINED).all()
    assert asked == [2, 9]


def test_basin_rows_ask_the_tree_once_then_follow_their_anchors(monkeypatch, rotation_catalog):
    # every orbit but the origin's turns along the circle: once its first
    # query has anchored a row, the successor bound settles every later
    # window step, so the tree is asked about the member points once, each
    # node at most once, and the origin's row, inside the circle's box, at
    # most at each later step
    asked = []

    class Counted(cKDTree):
        def query(self, x, *args, **kwargs):
            asked.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(limits, "cKDTree", Counted)
    basins = compute_basins(get_system("rotation-scaling"), rotation_catalog,
                            region=DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]]), resolution=41)
    assert basins.label_at((20, 20)) == "S0" and (basins.codes >= 0).all()
    points = sum(len(m._cloud.distinct) for m in rotation_catalog.members)
    assert sum(asked) <= points + 41 * 41 + Settings().basin_window - 1


BASIN_FIXTURE = Path(__file__).parent / "fixtures" / "basin_codes.json"


def test_basin_codes_equal_the_pinned_fixture():
    # the grids tools/regenerate_fixtures.py pins: every node's code, by the
    # sha256 of the code array, the count of each label, and each closedness
    # witness's limit point and labels
    for grid in json.loads(BASIN_FIXTURE.read_text())["grids"]:
        system = get_system(grid["system"], **grid["params"])
        catalog, _ = catalog_from_seeds(system, default_seeds(grid["system"]))
        basins = compute_basins(system, catalog, region=DomainRegion.box(grid["region"]),
                                resolution=grid["resolution"])
        codes, counts = np.unique(basins.codes, return_counts=True)
        assert {basins.label_of_code(int(c)): int(n)
                for c, n in zip(codes, counts)} == grid["counts"], grid["system"]
        assert hashlib.sha256(basins.codes.tobytes()).hexdigest() == grid["sha256"], \
            grid["system"]
        witnesses = [{"limit_point": w.limit_point.tolist(), "boundary_label": w.sequence_label,
                      "limit_label": w.limit_label}
                     for w in basin_closedness_witness(system, basins)]
        assert witnesses == grid["witnesses"], grid["system"]


def test_basin_reference_cases_hit_every_code():
    seen = set()
    for case in (_pole_map, _excluded_ball_doubler, _shear_doubler):
        system, catalog, region, resolution = case()
        for cfg in (Settings(), Settings(basin_burn=3, basin_window=4, escape_radius=40.0)):
            basins = compute_basins(system, catalog, region=region, resolution=resolution,
                                    cfg=cfg)
            seen |= {int(min(c, 0)) for c in np.unique(basins.codes)}
    assert seen == {0, CODE_UNDETERMINED, CODE_SINGULAR, CODE_ESCAPED}


def test_basin_escape_is_the_max_abs_guard_on_every_image():
    # a fixed point with |x|_max = 0.9 is inside the radius 1, though its
    # Euclidean norm is 1.27
    ident = LinearSystem(np.eye(2)).as_map()
    catalog, _ = catalog_from_seeds(ident, [[0.9, 0.9]], cfg=FAST)
    corner = compute_basins(ident, catalog, region=DomainRegion.box([[0.9, 1.0], [0.9, 1.0]]),
                            resolution=1, cfg=Settings(escape_radius=1.0))
    assert corner.codes.tolist() == [[0]]

    # both windows sit on the member; the image 2.4 of the second window's
    # last state is past the radius, so that node is not labelled
    doubler = get_system("scalar-linear", a=2.0)
    catalog, _ = catalog_from_seeds(doubler, [0.0], cfg=FAST)
    member = dataclasses.replace(catalog.members[0], resolution=0.0,
                                 points=np.array([[0.3], [0.6], [1.2]]))
    catalog = LimitSetCatalog(members=(member,), tol_cluster=catalog.tol_cluster)
    basins = compute_basins(doubler, catalog, region=DomainRegion.interval(0.3, 0.6),
                            resolution=2,
                            cfg=Settings(basin_burn=0, basin_window=2, escape_radius=2.0))
    assert basins.codes.tolist() == [0, CODE_ESCAPED]


def test_basin_config_rejects_impossible_settings():
    for bad in ({"basin_burn": -1}, {"basin_window": 0}, {"escape_radius": 0.0},
                {"escape_radius": -1.0}, {"escape_radius": float("nan")},
                {"escape_radius": float("inf")}):
        with pytest.raises(ValueError):
            Settings(**bad)
    Settings(basin_burn=0, basin_window=1, escape_radius=1e-300)


def test_basins_on_copies_of_one_point_match_brute_force():
    # a contraction whose member is 200 copies of its fixed point, behind a
    # decoy member of 300 copies of a point the orbits pass close to: the
    # basin tree holds one point per member, and each must keep its owner
    half = get_system("scalar-linear", a=0.5)
    catalog, _ = catalog_from_seeds(half, [0.0], cfg=FAST)
    origin = catalog.members[0]
    assert origin.points.shape == (200, 1) and not origin.points.any()
    decoy = dataclasses.replace(origin, label="S0", points=np.full((300, 1), 1.5e-3))
    catalog = LimitSetCatalog(members=(decoy, dataclasses.replace(origin, label="S1")),
                              tol_cluster=catalog.tol_cluster)
    cfg = Settings(basin_burn=10, basin_window=4)
    basins = compute_basins(half, catalog, region=DomainRegion.interval(-2.0, 2.0),
                            resolution=101, cfg=cfg)
    expected = _brute_force_basin_codes(half, catalog, basins.axes[0][:, None], cfg)
    assert np.array_equal(basins.codes, expected)
    assert set(np.unique(expected)) == {-1, 1}  # settled and undetermined nodes


def test_basin_csv_golden(tmp_path):
    half = get_system("scalar-linear", a=0.5)
    catalog, _ = catalog_from_seeds(half, [1.0], cfg=FAST)
    basins = compute_basins(half, catalog,
                            region=DomainRegion.interval(-1.0, 1.0), resolution=3)
    path = tmp_path / "basins.csv"
    write_basin_csv(basins, path)
    assert path.read_text() == "i,label\n0,S0\n1,S0\n2,S0\n"


def test_basin_csv_labels_every_node_as_label_at(tmp_path, rotation_catalog, rng):
    # 1-d, 2-d and 3-d grids of codes that are not contiguous, each holding
    # every special code and every member at least once
    every = [CODE_UNDETERMINED, CODE_SINGULAR, CODE_ESCAPED] + list(range(len(rotation_catalog)))
    for shape in [(7,), (7, 5), (3, 4, 5)]:
        wide = rng.choice(every, size=shape[:-1] + (2 * shape[-1],))
        codes = wide.astype(np.int16)[..., ::2]
        codes.flat[rng.permutation(codes.size)[:len(every)]] = every
        assert set(codes.ravel().tolist()) == set(every) and not codes.flags.c_contiguous
        bounds = [[-1.0 - a, 1.0 + a] for a in range(len(shape))]
        basins = BasinMap(region=DomainRegion.box(bounds), resolution=shape,
                          axes=tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)),
                          codes=codes, catalog=rotation_catalog, params={})
        path = tmp_path / f"basins{len(shape)}.csv"
        write_basin_csv(basins, path)
        header = ",".join("ijk"[:len(shape)]) + ",label\n"
        want = header + "".join(",".join(map(str, idx)) + f",{basins.label_at(idx)}\n"
                                for idx in np.ndindex(shape))
        assert path.read_text() == want


def test_basin_params_record_the_settling_policy(mobius_unit, mobius_unit_catalog):
    basins = compute_basins(mobius_unit, mobius_unit_catalog, resolution=11)
    assert basins.params["tol_cluster"] == mobius_unit_catalog.tol_cluster
    assert set(basins.params["match_tolerances"]) == {"S0", "S1"}


# -- closedness witnesses ------------------------------------------------------------

def test_witness_found_on_the_open_basin(mobius_unit, mobius_unit_catalog):
    basins = compute_basins(mobius_unit, mobius_unit_catalog, resolution=101)
    witnesses = basin_closedness_witness(mobius_unit, basins)
    assert witnesses
    w = witnesses[0]
    # a sequence inside the attracting basin shrinks onto the repelling point
    assert w.sequence_label == "S0"
    assert w.limit_label == "S1"
    assert w.limit_point[0] == pytest.approx(1.0)
    gaps = np.abs(w.sequence[:, 0] - w.limit_point[0])
    assert (np.diff(gaps) < 0).all()            # strictly shrinking toward the limit


def test_boundary_pairs_follow_a_row_major_walk(rng):
    from limitlab.limits import _boundary_pairs

    def walk(codes):
        # every node in row-major order, each axis, the pair from the node first
        for idx in np.ndindex(codes.shape):
            for axis in range(codes.ndim):
                j = tuple(i + (a == axis) for a, i in enumerate(idx))
                if j[axis] < codes.shape[axis] and codes[idx] != codes[j]:
                    if codes[idx] >= 0:
                        yield idx, j
                    if codes[j] >= 0:
                        yield j, idx

    for shape in [(1,), (9,), (1, 1), (5, 1), (6, 7), (3, 4, 5)]:
        for _ in range(10):
            codes = rng.integers(-3, 3, size=shape).astype(np.int16)
            basins = BasinMap(region=None, resolution=shape, axes=(), codes=codes,
                              catalog=None, params={})
            assert list(_boundary_pairs(basins)) == list(walk(codes)), shape


def _witnesses_pair_by_pair(system, basins, cfg, depth, max_pairs):
    """The witness search made one estimate at a time, as the search reaches it."""
    from limitlab.limits import _boundary_pairs

    catalog = basins.catalog
    found, seen = [], set()
    for count, (a_idx, b_idx) in enumerate(_boundary_pairs(basins)):
        if count >= max_pairs:
            break
        label_a = basins.label_at(a_idx)
        xa, xb = basins.node(a_idx), basins.node(b_idx)
        sequence = np.array([xb + (xa - xb) * 2.0 ** (-j) for j in range(1, depth + 1)])
        if not all(est.converged and catalog.match(est.points) == label_a
                   for est in (estimate_omega(system, x, cfg) for x in sequence)):
            continue
        est_b = estimate_omega(system, xb, cfg)
        label_b = catalog.match(est_b.points) if est_b.converged else None
        if label_b is None or label_b == label_a:
            continue
        key = (label_a, label_b, tuple(np.round(xb, 12)))
        if key not in seen:
            seen.add(key)
            found.append((xa, xb, sequence, label_a, label_b))
    return found


@pytest.mark.parametrize("name,region", [
    ("rotation-scaling", DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]])),
    ("cot-map", None)])
def test_batched_witness_search_equals_pair_by_pair_search(name, region):
    system = get_system(name)
    cfg = Settings()
    catalog, _ = catalog_from_seeds(system, default_seeds(name), cfg)
    basins = compute_basins(system, catalog, region=region, resolution=21)
    for depth, max_pairs in [(8, 64), (3, 3)]:
        got = basin_closedness_witness(system, basins, Settings(witness_depth=depth,
                                                                witness_max_pairs=max_pairs))
        want = _witnesses_pair_by_pair(system, basins, cfg, depth, max_pairs)
        assert len(got) == len(want) >= 1
        for w, (xa, xb, sequence, label_a, label_b) in zip(got, want):
            assert np.array_equal(w.sequence_seed, xa) and np.array_equal(w.limit_point, xb)
            assert np.array_equal(w.sequence, sequence)
            assert (w.sequence_label, w.limit_label) == (label_a, label_b)
    assert basin_closedness_witness(system, basins, Settings(witness_max_pairs=0)) == []
    with pytest.raises(ValueError):
        basin_closedness_witness(system, basins, Settings(witness_depth=0))


@pytest.mark.parametrize("name,bounds,resolution,pairs,candidates,witness", [
    ("rotation-scaling", [[-2.0, 2.0], [-2.0, 2.0]], 21, 8, 8, ([0.0, 0.0], "S1", "S0")),
    # 3 singular nodes by the pole at 3: their pairs are not candidates
    ("mobius", [[-5.0, 5.0]], 301, 10, 4, ([1.0], "S0", "S1"))],
    ids=["rotation-scaling-21", "mobius-301"])
def test_witness_search_settles_its_points_in_one_basin_batch(
        monkeypatch, name, bounds, resolution, pairs, candidates, witness):
    # a pair is a candidate when its limit node has a member code; every
    # candidate's 8 sequence points are settled in one _settle_batch call, as
    # the grid's nodes are, and no limit set is estimated, classified or matched
    system = get_system(name)
    catalog, _ = catalog_from_seeds(system, default_seeds(name))
    basins = compute_basins(system, catalog, region=DomainRegion.box(bounds),
                            resolution=resolution)
    walked = list(itertools.islice(limits._boundary_pairs(basins), config.WITNESS_MAX_PAIRS))
    assert len(walked) == pairs
    assert sum(int(basins.codes[b] >= 0) for _, b in walked) == candidates
    shapes = []
    settle = limits._settle_batch

    def counted(system, X0, *rest):
        shapes.append(X0.shape)
        return settle(system, X0, *rest)

    def refused(*args, **kwargs):
        raise AssertionError("the witness search estimated or matched a limit set")

    monkeypatch.setattr(limits, "_settle_batch", counted)
    for fn in ("estimate_omega_batch", "estimate_omega", "_classify_shape"):
        monkeypatch.setattr(limits, fn, refused)
    monkeypatch.setattr(limits.LimitSetCatalog, "match", refused)
    witnesses = basin_closedness_witness(system, basins)
    assert shapes == [(candidates * config.WITNESS_DEPTH, system.dim)]
    assert [(w.limit_point.tolist(), w.sequence_label, w.limit_label)
            for w in witnesses] == [witness]


def _witnesses_from_point_codes(system, basins, cfg):
    """The witness search with each sequence point labelled alone by the
    per-node reference, and each limit label taken from the map."""
    from limitlab.limits import _boundary_pairs

    found, seen = [], set()
    for a_idx, b_idx in itertools.islice(_boundary_pairs(basins), cfg.witness_max_pairs):
        if basins.codes[b_idx] < 0:
            continue
        xa, xb = basins.node(a_idx), basins.node(b_idx)
        sequence = np.array([xb + (xa - xb) * 2.0 ** (-j)
                             for j in range(1, cfg.witness_depth + 1)])
        if not all(_brute_force_basin_codes(system, basins.catalog, x[None], cfg)[0]
                   == basins.codes[a_idx] for x in sequence):
            continue
        key = (basins.label_at(a_idx), basins.label_at(b_idx), tuple(np.round(xb, 12)))
        if key not in seen:
            seen.add(key)
            found.append((xa, xb, sequence) + key[:2])
    return found


_SEED_110 = [[0.0, 0.0], [1.0229351769447144, -0.47749356045363867],
             [-0.6676936022014206, -0.05228599461227615],
             [-0.4161237398125139, -1.7344001269398368]]


@pytest.mark.parametrize("name,seeds,bounds,resolution,found", [
    ("rotation-scaling", None, [[-2.0, 2.0], [-2.0, 2.0]], 21, 1),
    ("cot-map", None, None, 21, 1),
    ("mobius", None, [[-5.0, 5.0]], 301, 1),
    # the basins-grid seed-110 catalog: its circle member's tolerance leaves
    # 106 nodes undetermined, whose pairs fill the budget, and none witnesses
    ("rotation-scaling", _SEED_110, [[-2.0, 2.0], [-2.0, 2.0]], 201, 0)],
    ids=["rotation-scaling-21", "cot-map-21", "mobius-301", "rotation-scaling-seed-110-201"])
def test_witness_search_equals_a_per_point_reference(name, seeds, bounds, resolution, found):
    system = get_system(name)
    cfg = Settings()
    catalog, _ = catalog_from_seeds(system, seeds or default_seeds(name), cfg)
    region = DomainRegion.box(bounds) if bounds else None
    basins = compute_basins(system, catalog, region=region, resolution=resolution)
    if seeds:
        assert (basins.codes == CODE_UNDETERMINED).sum() == 106
    got = basin_closedness_witness(system, basins, cfg)
    want = _witnesses_from_point_codes(system, basins, cfg)
    assert len(got) == len(want) == found
    for w, (xa, xb, sequence, label_a, label_b) in zip(got, want):
        assert np.array_equal(w.sequence_seed, xa) and np.array_equal(w.limit_point, xb)
        assert np.array_equal(w.sequence, sequence)
        assert (w.sequence_label, w.limit_label) == (label_a, label_b)


def test_a_sequence_that_crosses_into_the_limit_basin_is_no_witness():
    # x -> 1.5 x - 0.5 x^3 sends (-inf, 0) to -1 and (0, inf) to 1. Nodes at
    # -0.07 and 0.03 straddle the repeller 0. The sequence from -0.07 toward
    # 0.03 starts at -0.02, in its own node's basin, but its later points
    # cross 0; the one from 0.03 toward -0.07 starts at -0.02 too, in the
    # other basin. Neither pair is a witness.
    system = DiscreteMap(dim=1, forward=lambda x: 1.5 * x - 0.5 * x ** 3,
                         domain=DomainRegion.full_space(1), name="bistable")
    cfg = Settings()
    catalog, _ = catalog_from_seeds(system, [[-0.5], [0.5]], cfg)
    basins = compute_basins(system, catalog, region=DomainRegion.interval(-0.97, 1.03),
                            resolution=21)
    a, b = (9,), (10,)
    assert basins.node(a)[0] == pytest.approx(-0.07) and basins.node(b)[0] == pytest.approx(0.03)
    assert (basins.label_at(a), basins.label_at(b)) == ("S0", "S1")
    sequence = np.array([basins.node(b) + (basins.node(a) - basins.node(b)) * 2.0 ** -j
                         for j in range(1, cfg.witness_depth + 1)])
    codes = [int(_brute_force_basin_codes(system, catalog, x[None], cfg)[0]) for x in sequence]
    assert codes[0] == 0 and 1 in codes
    assert _witnesses_from_point_codes(system, basins, cfg) == []
    assert basin_closedness_witness(system, basins, cfg) == []


def test_no_witness_on_linear_system():
    A = np.diag([0.5, 2.0])
    system = LinearSystem(A).as_map()
    catalog, _ = catalog_from_seeds(system, [[1.0, 0.0]], cfg=FAST)
    basins = compute_basins(system, catalog,
                            region=DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]]),
                            resolution=101)
    assert basin_closedness_witness(system, basins) == []


# -- pruned catalog loops against the loops they replaced ---------------------------
#
# Clustering and ``min_separation`` skip the Hausdorff distances that a lower
# bound already decides. The references below are the same rules as all-pairs
# loops, on raw arrays and with every distance computed; the catalogs must
# come out equal to the bit.

def _reference_members(estimates, tol_cluster=1e-3, gap_factor=2.0):
    """Each estimate against each cluster's first window; each member's
    windows joined in order and thinned once at the end."""
    clusters: list[list] = []
    for est in estimates:
        res = sampling_gap(est.points)
        hit = None
        best = float("inf")
        for c in clusters:
            d = hausdorff(est.points, c[0].points)
            tol_eff = max(tol_cluster, gap_factor * max(res, sampling_gap(c[0].points)))
            if d < tol_eff and d < best:
                hit, best = c, d
        if hit is None:
            clusters.append([est])
        else:
            hit.append(est)
    clusters.sort(key=lambda c: tuple(c[0].seed))
    members = []
    for i, c in enumerate(clusters):
        points = _thin(np.vstack([e.points for e in c]))
        members.append((f"S{i}", points, float(sampling_gap(points)),
                        float(diameter(points)), len(c)))
    return members


def _all_pairs_min(catalog):
    return min((hausdorff(a.points, b.points)
                for a, b in itertools.combinations(catalog.members, 2)),
               default=float("inf"))


def _seed_sets():
    rng = np.random.default_rng(8)
    angle, radius = rng.uniform(0.0, 2 * np.pi, 12), rng.uniform(0.1, 2.0, 12)
    rotation = [(0.0, 0.0)] + list(zip(radius * np.cos(angle), radius * np.sin(angle)))
    # the repelling fixed point 1 settles only from itself
    mobius = [[x] for x in rng.uniform(-4.5, 0.95, 12)] + [[1.0]]
    # period-2 orbits {x, -x}: members 0.02 apart, and a run of seeds whose
    # orbits sit about tol_cluster = 1e-3 from each other, where merging is a
    # near-tie
    offsets = [0.0, 5e-4, 9.99e-4, 1e-3, 1.001e-3, 2e-3, 2.999e-3, 3e-3]
    negation = ([[s * (0.05 + 0.02 * k)] for k, s in enumerate(rng.choice([-1.0, 1.0], 16))]
                + [[0.6 + o] for o in offsets] + [[-(0.9 + o)] for o in offsets[::-1]])
    return {"rotation-scaling": (get_system("rotation-scaling"), rotation),
            "mobius": (get_system("mobius").restrict(DomainRegion.interval(-5.0, 5.0)), mobius),
            "negation": (get_system("negation"), negation)}


@pytest.fixture(scope="module")
def seed_set_estimates():
    out = {}
    for name, (system, seeds) in _seed_sets().items():
        out[name] = [e for e in estimate_omega_batch(system, seeds) if e.converged]
    return out


@pytest.mark.parametrize("name", ["rotation-scaling", "mobius", "negation"])
@pytest.mark.parametrize("shuffled", [False, True])
def test_pruned_clustering_equals_the_all_pairs_loop(seed_set_estimates, name, shuffled):
    ests = list(seed_set_estimates[name])
    if shuffled:
        ests = [ests[i] for i in np.random.default_rng(3).permutation(len(ests))]
    catalog = cluster_limit_sets(ests)
    want = _reference_members(ests)
    assert len(catalog) == len(want) > 1
    for m, (label, points, resolution, diam, n) in zip(catalog.members, want):
        assert m.label == label
        assert m.points.shape == points.shape and np.array_equal(m.points, points)
        assert m.resolution == resolution
        assert m.diameter == diam
        assert m.n_estimates == n
    assert catalog.min_separation() == _all_pairs_min(catalog)


def test_near_tie_seeds_exercise_both_sides_of_the_merge(seed_set_estimates):
    # the negation set must both merge and keep apart seeds at the tolerance
    catalog = cluster_limit_sets(seed_set_estimates["negation"])
    counts = sorted(m.n_estimates for m in catalog.members)
    assert counts[-1] > 1 and counts[0] == 1
    assert catalog.min_separation() < 2e-3


def _arc_estimate(n, seed, radius=1.0, shift=0.0):
    """A converged curve estimate: ``n`` even samples of the arc of angles
    [0, 1) on the circle of ``radius``, shifted by ``shift`` of a step."""
    t = (np.arange(n) + shift) / n
    points = radius * np.column_stack([np.cos(t), np.sin(t)])
    return LimitSetEstimate(points=points, source="omega", seed=np.array([0.0, seed]),
                            diameter=diameter(points), shape="curve", period=None,
                            converged=True, status="converged", settle_gap=0.0,
                            settle_tol=1e-7)


def _gap_deciding_estimates():
    """A coarse arc, a dense window on it and a dense window on a slightly
    larger arc. Each dense window's own tolerance is too tight for its
    distance to the coarse arc, so the coarse arc's gap decides: the first
    window joins it, and the second, just past that gap's tolerance but not
    ruled out by its lower bound, starts a cluster of its own."""
    coarse, dense, far = (_arc_estimate(50, 0.0), _arc_estimate(500, 1.0, shift=0.5),
                          _arc_estimate(2000, 2.0, radius=1.0347, shift=0.25))
    tol_own = [max(1e-3, 2.0 * sampling_gap(e.points)) for e in (dense, far)]
    tol = 2.0 * sampling_gap(coarse.points)
    assert tol_own[0] < hausdorff(dense.points, coarse.points) < tol
    bound = geometry._hausdorff_lower_bounds(_prepare(far.points), [_prepare(coarse.points)])[0]
    assert max(tol_own[1], bound) < tol <= hausdorff(far.points, coarse.points) < 1.02 * tol
    return [coarse, dense, far]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_a_cluster_gap_read_on_demand_equals_the_eager_loop(order):
    ests = _gap_deciding_estimates()
    ests = [ests[i] for i in order]
    catalog = cluster_limit_sets(ests)
    want = _reference_members(ests)
    if order == (0, 1, 2):
        assert [m.n_estimates for m in catalog.members] == [2, 1]
    assert len(catalog) == len(want)
    for m, (label, points, resolution, diam, n) in zip(catalog.members, want):
        assert m.label == label
        assert m.points.shape == points.shape and np.array_equal(m.points, points)
        assert m.resolution == resolution
        assert m.diameter == diam
        assert m.n_estimates == n
    assert catalog.min_separation() == _all_pairs_min(catalog)


def test_clustering_takes_a_merged_gap_only_when_a_decision_reads_it(
        seed_set_estimates, monkeypatch):
    # merge decisions read only the windows' own gaps, so the only merged
    # cloud measured is the final one, for the member's resolution
    ests = seed_set_estimates["rotation-scaling"]
    measured = []
    worker = geometry._sampling_gap

    def count(cloud):
        measured.append(cloud)
        return worker(cloud)

    monkeypatch.setattr(geometry, "_sampling_gap", count)
    catalog = cluster_limit_sets(ests)
    circle = max(catalog.members, key=lambda m: m.n_estimates)
    assert circle.n_estimates == len(ests) - 1 > 2
    merged = [c for c in measured if not any(c is e._cloud for e in ests)]
    assert len(merged) == 1 and merged[0] is vars(circle)["_cloud"]
    assert circle.resolution == merged[0].gap
    origin = next(m for m in catalog.members if m is not circle)
    assert vars(origin)["_cloud"] is next(e._cloud for e in ests if e.shape == "fixed-point")

    # the members' clouds come prepared: a separation deduplicates no member
    # and builds no tree again
    want = _all_pairs_min(catalog)
    rebuilt = []
    monkeypatch.setattr(geometry, "_distinct_rows",
                        lambda p, real=geometry._distinct_rows: rebuilt.append(p) or real(p))
    monkeypatch.setattr(geometry, "cKDTree",
                        lambda p, real=geometry.cKDTree: rebuilt.append(p) or real(p))
    assert catalog.min_separation() == want
    assert rebuilt == []


def test_clustering_prepares_only_the_merged_members_final_clouds(monkeypatch):
    # the estimator hands over prepared windows, so every merge decision
    # reuses their distinct rows and trees: the clustering deduplicates and
    # builds a tree only for each merged member's one final cloud
    estimates = {name: [e for e in estimate_omega_batch(system, seeds) if e.converged]
                 for name, (system, seeds) in _seed_sets().items()}
    distinct, trees = [], []
    monkeypatch.setattr(geometry, "_distinct_rows",
                        lambda p, real=geometry._distinct_rows: distinct.append(p) or real(p))
    monkeypatch.setattr(geometry, "cKDTree",
                        lambda p, real=geometry.cKDTree: trees.append(p) or real(p))
    thinned = plain = 0
    for name, ests in estimates.items():
        distinct.clear()
        trees.clear()
        catalog = cluster_limit_sets(ests)
        merged = [vars(m)["_cloud"] for m in catalog.members if m.n_estimates > 1]
        assert [id(p) for p in distinct] == [id(c.points) for c in merged]
        assert [id(p) for p in trees] == [id(c.distinct) for c in merged
                                          if geometry._by_tree(c)]
        windows = {tuple(e.seed): i for i, e in enumerate(ests)}
        for m in catalog.members:
            if m.n_estimates == 1:
                continue
            first = windows[tuple(m.first_seed)]
            width = len(ests[first].points)
            if m.n_estimates * width > limits._MEMBER_CAP:
                thinned += 1
                continue
            # a member within the cap is its windows joined in input order, from
            # its first one, bit for bit
            assert len(m.points) == m.n_estimates * width
            blocks = np.split(m.points, m.n_estimates)
            assert blocks[0].tobytes() == ests[first].points.tobytes()
            at = [next(i for i, e in enumerate(ests) if e.points.tobytes() == b.tobytes())
                  for b in blocks]
            assert at[0] == first and at == sorted(at)
            plain += 1
    assert thinned > 0 and plain > 0
    # every circle window joins the circle, so its member is all of them,
    # thinned once
    ests = estimates["rotation-scaling"]
    circle = max(cluster_limit_sets(ests).members, key=lambda m: m.n_estimates)
    want = _thin(np.vstack([e.points for e in ests if e.shape == "curve"]))
    assert circle.points.tobytes() == want.tobytes()


def _random_catalog(rng):
    """Members of a few shapes, some translated copies of others, so that
    bounds and distances tie."""
    dim = int(rng.integers(1, 4))
    scale = float(rng.choice([1e-300, 1e-3, 1.0, 1e100]))
    base = rng.normal(size=(int(rng.integers(1, 30)), dim)) * scale
    members = []
    for i in range(int(rng.integers(2, 14))):
        if rng.random() < 0.5:
            pts = base + rng.integers(-3, 4, dim) * scale
        else:
            pts = rng.normal(size=(int(rng.integers(1, 40)), dim)) * scale
        pts = np.repeat(pts, rng.integers(1, 4, len(pts)), axis=0)
        members.append(CatalogMember(label=f"S{i}", points=pts, shape="unknown", period=None,
                                     diameter=0.0, first_seed=pts[0], n_estimates=1,
                                     precompact=True, resolution=0.0))
    return LimitSetCatalog(members=tuple(members), tol_cluster=1e-3)


def test_min_separation_equals_the_all_pairs_minimum(rng):
    for _ in range(60):
        catalog = _random_catalog(rng)
        assert catalog.min_separation() == _all_pairs_min(catalog)


def test_tol_cluster_must_be_finite_and_positive(seed_set_estimates):
    ests = seed_set_estimates["negation"][:2]
    for bad in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol_cluster"):
            cluster_limit_sets(ests, Settings(tol_cluster=bad))
        with pytest.raises(ValueError, match="tol_cluster"):
            catalog_from_seeds(get_system("negation"), [0.3],
                               cfg=dataclasses.replace(FAST, tol_cluster=bad))
