"""The worked-systems catalog: registry, golden behaviour, exact conjugacies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlab import (DomainRegion, catalog, catalog_from_seeds, conjugacy_residual,
                      default_seeds, estimate_omega, exact_immersion,
                      exact_immersions, get_system, list_systems)
from limitlab.errors import InvalidParamError, NoExactImmersionError, UnknownSystemError
from limitlab.serialize import validate

ALL_NAMES = ["cot-map", "jordan", "mobius", "mobius-inverse", "negation",
             "rotation-scaling", "scalar-linear"]


# sample boxes sit inside each chart, clear of poles and branch points
SAMPLE_BOXES = {
    ("mobius", 0): [[-5.0, 0.5]],
    ("mobius", 1): [[-0.5, 2.5]],
    ("mobius-inverse", 0): [[-0.5, 10.0]],
    ("mobius-inverse", 1): [[-2.0, 0.5]],
    ("cot-map", 0): None,
    ("scalar-linear", 0): [[-2.0, 2.0]],
    ("jordan", 0): [[-2.0, 2.0], [-2.0, 2.0]],
}


def conjugacy_samples(name, system, variant, rng):
    if name == "rotation-scaling":
        return DomainRegion.annulus(0.1, 3.0).sample(1000, rng)
    box = SAMPLE_BOXES[(name, variant)]
    return system.domain.sample(1000, rng, box=box)


# -- registry ----------------------------------------------------------------

def test_listing_is_complete_and_sorted():
    rows = list_systems()
    assert [r["name"] for r in rows] == ALL_NAMES
    assert all(set(r) == {"name", "dim", "summary", "params",
                          "has_exact_immersion"} for r in rows)
    assert all(r["has_exact_immersion"] is True for r in rows)
    assert {r["name"]: r["params"] for r in rows if r["params"]} == {
        "jordan": {"lam": 1.0, "m": 2}, "rotation-scaling": {"theta": 1.0},
        "scalar-linear": {"a": 0.5}}


def test_unknown_system_raises():
    with pytest.raises(UnknownSystemError):
        get_system("henon")


def test_param_validation():
    with pytest.raises(InvalidParamError):
        get_system("mobius", pole=4.0)
    with pytest.raises(InvalidParamError):
        get_system("jordan", m=5)
    with pytest.raises(InvalidParamError):
        get_system("rotation-scaling", theta=0.0)
    assert get_system("jordan", lam=0.3, m=4).dim == 4
    assert get_system("jordan", m=2.0).dim == 2
    assert get_system("scalar-linear", a=-0.5).forward([2.0])[0] == -1.0


@pytest.mark.parametrize("m", [2.5, 2.9999, float("nan")])
def test_jordan_rejects_a_block_size_that_is_not_an_integer(m):
    # the block size used to be truncated: m=2.5 built jordan(lam=1,m=2)
    with pytest.raises(InvalidParamError, match="block size m must be an integer"):
        get_system("jordan", m=m)


def test_default_seeds_match_dimensions():
    cases = [(name, {}) for name in ALL_NAMES] + [
        ("jordan", {"m": 1}), ("jordan", {"m": 2}), ("jordan", {"m": 3}),
        ("jordan", {"m": 4}), ("scalar-linear", {"a": 2}), ("rotation-scaling", {"theta": 2})]
    for name, params in cases:
        system = get_system(name, **params)
        seeds = default_seeds(name, **params)
        if name == "jordan":
            # the block's unit vectors, then the all-ones vector unless it is one of them
            want = np.eye(system.dim)
            if system.dim > 1:
                want = np.vstack([want, np.ones(system.dim)])
            assert np.array_equal(seeds, want)
        else:
            assert len(seeds) >= 3
        assert all(s.shape == (system.dim,) for s in seeds)
        assert all(system.domain.contains(s) for s in seeds)
        assert len({s.tobytes() for s in seeds}) == len(seeds), (name, params)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_maps_and_charts_act_on_any_leading_axes(name):
    # the documented (..., d) contract: a (3, 4, d) stack is the (12, d) batch
    system = get_system(name)
    X = np.random.default_rng(7).uniform(0.1, 1.9, (12, system.dim))
    funcs = [system.forward, system.inverse]
    funcs += [chart.immersion.func for chart in exact_immersions(name)]
    for fn in funcs:
        batch = np.asarray(fn(X))
        stacked = np.asarray(fn(X.reshape(3, 4, system.dim)))
        assert stacked.shape == (3, 4, batch.shape[-1]), fn
        assert stacked.reshape(batch.shape).tobytes() == batch.tobytes(), fn


def test_default_parameter_seeds_are_pinned():
    pinned = {
        "cot-map": [[1.0], [2.0], [0.5], [0.0], [np.pi]],
        "jordan": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "mobius": [[0.0], [-0.5], [0.5], [2.0], [1.0]],
        "mobius-inverse": [[0.0], [-0.5], [0.5], [2.0], [-1.0]],
        "negation": [[0.7], [1.3], [0.0], [-0.4]],
        "rotation-scaling": [[2.0, 0.0], [0.5, 0.5], [-1.5, 0.25], [0.0, 0.0]],
        "scalar-linear": [[1.0], [-2.0], [0.25]],
    }
    for name in ALL_NAMES:
        seeds = default_seeds(name)
        assert all(s.dtype == np.float64 for s in seeds)
        assert np.array(seeds).tobytes() == np.array(pinned[name]).tobytes(), name


def test_a_system_without_a_chart_raises_no_exact_immersion(monkeypatch):
    def chartless():
        return get_system("negation"), (), (0.7,)

    monkeypatch.setitem(catalog._SYSTEMS, "chartless", ("negation, no chart", chartless))
    assert exact_immersions("chartless") == ()
    with pytest.raises(NoExactImmersionError, match="chartless"):
        exact_immersion("chartless")
    row, = [r for r in list_systems() if r["name"] == "chartless"]
    assert row["has_exact_immersion"] is False and row["params"] == {}


# scalar-linear's and jordan's maps are LinearSystem.as_map: the map itself
# takes its rank and inverse from LAPACK
_NOT_LINEAR_SYSTEMS = [n for n in ALL_NAMES if n not in ("scalar-linear", "jordan")]


@pytest.mark.parametrize("name", _NOT_LINEAR_SYSTEMS)
def test_a_system_and_its_seeds_leave_the_charts_unbuilt(monkeypatch, name):
    # a chart's linear target takes its rank and inverse from LAPACK; a
    # system and its seeds build no chart, so they make no such call
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for fn in ("matrix_rank", "inv", "svd"):
        monkeypatch.setattr(np.linalg, fn, refuse)
    assert get_system(name).dim == len(default_seeds(name)[0])
    monkeypatch.undo()
    charts = exact_immersions(name)
    assert charts and all(isinstance(c, catalog.ExactImmersion) for c in charts)
    assert all(c.target.dim == c.immersion.dim_out for c in charts)


def test_immersion_variant_counts():
    counts = {n: len(exact_immersions(n))
              for n in ALL_NAMES if n != "negation"}
    assert counts == {"mobius": 2, "mobius-inverse": 2, "cot-map": 1,
                      "rotation-scaling": 1, "scalar-linear": 1, "jordan": 1}
    with pytest.raises(InvalidParamError):
        exact_immersion("cot-map", 1)


def test_negation_identity_chart_has_zero_residual():
    # x -> -x is itself linear, so the identity is an exact chart
    pair = exact_immersion("negation")
    f = get_system("negation")
    samples = DomainRegion.interval(-2.0, 2.0).sample(1000, np.random.default_rng(0))
    rep = conjugacy_residual(pair.immersion, f, pair.target, samples)
    assert pair.immersion.name == "identity"
    assert rep.max_residual == 0.0 and rep.samples_used == 1000


# -- golden conjugacies --------------------------------------------------------

@pytest.mark.parametrize("name,variant", [
    ("mobius", 0), ("mobius", 1),
    ("mobius-inverse", 0), ("mobius-inverse", 1),
    ("cot-map", 0), ("rotation-scaling", 0),
    ("scalar-linear", 0), ("jordan", 0),
])
def test_catalog_conjugacies_hold_everywhere(name, variant, rng):
    system = get_system(name)
    ent = exact_immersion(name, variant)
    samples = conjugacy_samples(name, system, variant, rng)
    report = conjugacy_residual(ent.immersion, system, ent.target, samples)
    assert report.samples_used == 1000
    assert report.max_residual < 1e-13, (name, variant, report.max_residual)
    validate(report.to_dict(), "conjugacy-report")


def test_mobius_variants_straddle_the_pole():
    low = exact_immersion("mobius", 0)
    up = exact_immersion("mobius", 1)
    assert low.immersion.domain.contains([-5.0])
    assert not low.immersion.domain.contains([2.0])
    assert up.immersion.domain.contains([2.0])
    assert not up.immersion.domain.contains([-5.0])
    # the two charts linearize to reciprocal rates
    lam_low = low.target.forward([1.0])[0]
    lam_up = up.target.forward([1.0])[0]
    assert lam_low == pytest.approx(0.5)
    assert lam_up == pytest.approx(2.0)


# -- golden limit sets ----------------------------------------------------------

def test_default_seed_catalogs_recover_known_limit_sets():
    expected = {
        "mobius": [(-1.0,), (1.0,)],
        "mobius-inverse": [(-1.0,), (1.0,)],
        "cot-map": [(0.0,), (np.pi,)],
        "scalar-linear": [(0.0,)],
    }
    for name, members in expected.items():
        system = get_system(name)
        catalog, skipped = catalog_from_seeds(system, default_seeds(name))
        assert skipped == [], name
        got = sorted(tuple(m.points.mean(axis=0)) for m in catalog.members)
        assert len(got) == len(members), name
        for g, e in zip(got, sorted(members)):
            assert np.allclose(g, e, atol=1e-6), (name, g, e)


def test_rotation_catalog_splits_origin_from_circle():
    catalog, skipped = catalog_from_seeds(get_system("rotation-scaling"),
                                          default_seeds("rotation-scaling"))
    assert skipped == []
    shapes = sorted((m.shape, len(m.points)) for m in catalog.members)
    assert shapes[0][0] == "curve"
    radii = {round(float(np.linalg.norm(m.points, axis=1).mean()), 6)
             for m in catalog.members}
    assert radii == {0.0, 1.0}


def test_negation_default_catalog_is_all_period_two():
    catalog, skipped = catalog_from_seeds(get_system("negation"),
                                          default_seeds("negation"))
    assert skipped == []
    assert all(m.shape in ("fixed-point", "periodic-orbit")
               for m in catalog.members)
    for m in catalog.members:
        if m.shape == "periodic-orbit":
            a = abs(m.first_seed[0])
            assert np.allclose(np.unique(m.points[:, 0]), [-a, a])


def test_jordan_default_seeds_mostly_diverge():
    catalog, skipped = catalog_from_seeds(get_system("jordan"),
                                          default_seeds("jordan"))
    assert len(catalog) == 1
    assert np.allclose(catalog.members[0].points, [[1.0, 0.0]], atol=1e-6)
    assert len(skipped) == 2


# -- exactness at the anchors ---------------------------------------------------

def test_fixed_points_are_exact_in_floating_point():
    cot = get_system("cot-map")
    assert cot.forward([0.0])[0] == 0.0
    assert cot.forward([np.pi])[0] == np.pi
    mob = get_system("mobius")
    assert mob.forward([1.0])[0] == 1.0
    assert mob.forward([-1.0])[0] == -1.0


def test_mobius_inverse_is_the_reversed_system():
    mob = get_system("mobius")
    inv = get_system("mobius-inverse")
    xs = np.linspace(-0.9, 0.9, 17)
    for x in xs:
        assert inv.forward([x])[0] == pytest.approx(mob.inverse([x])[0], abs=1e-15)


@settings(max_examples=120, deadline=None)
@given(st.floats(min_value=1e-12, max_value=np.pi - 1e-12))
def test_cot_map_stays_on_the_principal_branch(x):
    y = get_system("cot-map").forward([x])[0]
    assert 0.0 < y < np.pi


@settings(max_examples=120, deadline=None)
@given(st.floats(min_value=-0.95, max_value=0.95))
def test_mobius_round_trip(x):
    f = get_system("mobius")
    y = f.forward([x])
    assert f.inverse(y)[0] == pytest.approx(x, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.1, max_value=1.9),
       st.floats(min_value=-np.pi, max_value=np.pi))
def test_rotation_round_trip(r, phi):
    f = get_system("rotation-scaling")
    x = np.array([r * np.cos(phi), r * np.sin(phi)])
    y = f.forward(x)
    assert np.allclose(f.inverse(y), x, atol=1e-10)


def test_omega_from_both_sides_of_the_pole():
    f = get_system("mobius")
    for x0 in (-4.0, 0.0, 0.5, 10.0):
        est = estimate_omega(f, [x0])
        assert est.status == "converged"
        assert abs(est.points.mean() - (-1.0)) < 1e-6, x0


def test_rotation_scaling_steps_to_the_bits_of_the_fresh_array_form():
    # forward (2 / (r + 1)) * (P R^T) and backward (P R_inv^T) / (2 - s),
    # written on fresh arrays, on zero, huge and subnormal rows and on rows
    # where the backward denominator vanishes or the product overflows; the
    # rows stepped alone, in a batch, in column-major order and as a stack
    from limitlab.catalog import _rotation_matrix
    from limitlab.linear import apply_matrix

    theta = 1.0
    system = get_system("rotation-scaling", theta=theta)
    R, R_inv = _rotation_matrix(theta), _rotation_matrix(-theta)
    P = np.array([[0.0, 0.0], [-0.0, 0.0], [5e-324, -5e-324], [1e-310, 2e-310],
                  [1e300, -1e300], [1.7e308, 1.7e308], [-1.7e308, 3e307], [2.0, 0.0],
                  [0.6, -0.8], [1.0, 0.5], [-3.0, 4.0], [0.0, -2.5]])
    with np.errstate(all="ignore"):
        r = np.linalg.norm(P, axis=1)
        want_f = (2.0 / (r + 1.0))[:, None] * apply_matrix(P, R)
        want_b = apply_matrix(P, R_inv) / (2.0 - r)[:, None]
        batches = [(Q, system.forward(Q), system.inverse(Q))
                   for Q in (P, np.asfortranarray(P), P.reshape(3, 4, 2))]
        alone = [(system.forward(p), system.inverse(p)) for p in P]
    assert not np.isfinite(want_b).all() and not np.isfinite(want_f).all()
    for Q, got_f, got_b in batches:
        for got, want in ((got_f, want_f), (got_b, want_b)):
            assert got.shape == Q.shape
            assert np.array_equal(got.reshape(-1, 2).view(np.uint64), want.view(np.uint64))
    assert np.array_equal(np.array([f for f, _ in alone]).view(np.uint64), want_f.view(np.uint64))
    assert np.array_equal(np.array([b for _, b in alone]).view(np.uint64), want_b.view(np.uint64))
