"""Conjugacy residuals, limit-set pushforwards, collapse, and injectivity."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from limitlab import (DiscreteMap, DomainRegion, ImmersionMap, LimitSetCatalog,
                      LinearSystem, Settings, catalog_from_seeds,
                      collapse_report, conjugacy_residual, directed_hausdorff,
                      estimate_alpha, exact_immersion, get_system, hausdorff, immersion,
                      injectivity_probe, omega_alpha_consistency,
                      pushforward_check)
from limitlab.catalog import exact_immersions, list_systems
from limitlab.config import DELTA_SEP
from limitlab.errors import DomainError, UnconvergedError
from limitlab.serialize import validate


def cos_map(lo, hi):
    return ImmersionMap(1, 1, lambda X: np.cos(np.asarray(X, dtype=float)),
                        DomainRegion.interval(lo, hi), name="cos")


def rotation_block_map(theta=1.0):
    A = np.zeros((3, 3))
    c, s = np.cos(theta), np.sin(theta)
    A[:2, :2] = [[c, s], [-s, c]]
    A[2, 2] = 0.5
    return LinearSystem(A, name="rotation-block").as_map()


# -- ImmersionMap ------------------------------------------------------------------

def test_immersion_domain_checks():
    F = exact_immersion("mobius", 0).immersion     # (x+1)/(x-1) on x < 1
    assert F([0.0])[0] == -1.0
    with pytest.raises(DomainError) as exc:
        F([1.0])
    assert exc.value.reason == "excluded-point"
    with pytest.raises(DomainError) as exc:
        F([2.0])
    assert exc.value.reason == "out-of-bounds"


def test_immersion_apply_raises_on_first_offender():
    F = exact_immersion("mobius", 0).immersion
    with pytest.raises(DomainError):
        F.apply(np.array([[0.0], [0.5], [1.5]]))
    out = F.apply(np.array([[0.0], [0.5]]))
    assert out.shape == (2, 1)


def test_immersion_restriction_narrows_the_domain():
    F = cos_map(-np.pi, np.pi)
    G = F.restricted(DomainRegion.interval(0.0, np.pi))
    assert G([1.0]) == pytest.approx(F([1.0]))
    with pytest.raises(DomainError):
        G([-1.0])


def _outcome(evaluate):
    """The image's bytes, or the reason of the :class:`DomainError` raised."""
    try:
        return evaluate().tobytes()
    except DomainError as exc:
        return exc.reason


def _probe_points(F, rng):
    """Points inside and outside ``F``'s domain: random ones, each excluded
    point and one inside its ball, one past each finite axis bound, and one
    whose norm overflows."""
    D, d = F.domain, F.dim_in
    pts = list(rng.uniform(-2.0, 2.0, size=(16, d))) + [np.full(d, 1e200)]
    for e in [] if D.excluded is None else D.excluded:
        pts += [e, e + 0.5 * D.eps_excl]
    if D.bounds is not None and D.kind != "annulus":
        pts += [np.where(np.isfinite(b), b + s, 0.0)
                for b, s in ((D.bounds[:, 0], -1.0), (D.bounds[:, 1], 1.0))]
    return pts


def test_a_call_is_apply_on_one_row_for_every_catalogued_chart(rng):
    reasons = set()
    for entry in list_systems():
        if not entry["has_exact_immersion"]:
            continue
        for pair in exact_immersions(entry["name"]):
            F = pair.immersion
            for x in _probe_points(F, rng):
                alone = _outcome(lambda: F(x))
                assert alone == _outcome(lambda: F.apply([x])[0]), (F.name, x)
                reasons.add(alone if isinstance(alone, str) else "image")
    assert reasons == {"image", "excluded-point", "out-of-bounds", "non-finite-image"}


# -- conjugacy residual ----------------------------------------------------------------

def test_conjugacy_residual_matches_handrolled_oracle():
    # brute-force the defining expression point by point and compare
    ent = exact_immersion("cot-map", 0)
    f = get_system("cot-map")
    samples = np.linspace(0.1, np.pi - 0.1, 57)[:, None]
    expected = []
    for x in samples:
        lhs = ent.immersion(np.asarray(f.forward(x), dtype=float))
        rhs = ent.target.forward(ent.immersion(x))
        expected.append(float(np.abs(lhs - rhs).max()))
    report = conjugacy_residual(ent.immersion, f, ent.target, samples)
    assert report.samples_used == 57 and report.samples_skipped == 0
    assert report.max_residual == pytest.approx(max(expected), abs=1e-18)
    assert report.mean_residual == pytest.approx(np.mean(expected), abs=1e-18)
    assert report.max_residual < 1e-14


def test_conjugacy_residual_detects_a_non_immersion():
    # x^2 does not intertwine the rational map with halving: at x=0 the
    # defect is exactly |f(0)^2 - 0| = 1/9
    F = ImmersionMap(1, 1, lambda X: np.asarray(X, dtype=float) ** 2,
                     DomainRegion.full_space(1), name="square")
    f = get_system("mobius")
    g = LinearSystem(np.array([[0.5]])).as_map()
    report = conjugacy_residual(F, f, g, np.array([[0.0]]))
    assert report.max_residual == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert report.worst_point[0] == 0.0


def test_conjugacy_residual_skip_accounting():
    ent = exact_immersion("mobius", 0)
    f = get_system("mobius")
    samples = np.array([[0.5], [3.0], [2.0], [np.nan]])
    # 3.0 is excluded from f's domain, 2.0 is outside the immersion's domain,
    # nan is never usable; only 0.5 contributes
    report = conjugacy_residual(ent.immersion, f, ent.target, samples)
    assert report.samples_used == 1
    assert report.samples_skipped == 3


def test_conjugacy_residual_needs_at_least_one_sample():
    ent = exact_immersion("mobius", 0)
    with pytest.raises(DomainError):
        conjugacy_residual(ent.immersion, get_system("mobius"), ent.target,
                           np.array([[2.0], [5.0]]))
    with pytest.raises(ValueError):
        conjugacy_residual(ent.immersion, get_system("mobius"), ent.target,
                           np.array([[0.0, 0.0]]))


def shift_map(c):
    return DiscreteMap(dim=1, forward=lambda x: np.asarray(x, dtype=float) + c,
                       domain=DomainRegion.full_space(1), name=f"shift{c:g}")


def chart_1d(func, domain=None):
    return ImmersionMap(1, 1, func, domain or DomainRegion.full_space(1), name="chart")


NO_SAMPLES = "no usable conjugacy samples on this domain"


@pytest.mark.parametrize("stage,F,f,g,reason", [
    # every step image leaves the chart's domain
    ("samples", chart_1d(lambda X: X, DomainRegion.interval(0.0, 1.0)),
     shift_map(10.0), shift_map(0.0), "out-of-bounds"),
    # every chart image is non-finite
    ("images", chart_1d(lambda X: np.full(np.shape(X), np.nan)),
     shift_map(0.5), shift_map(0.0), "non-finite-image"),
    # every target image is non-finite
    ("tail", chart_1d(lambda X: X), shift_map(0.5),
     DiscreteMap(dim=1, forward=lambda z: np.asarray(z, dtype=float) * np.inf,
                 domain=DomainRegion.full_space(1), name="blow-up"),
     "non-finite-image"),
])
def test_conjugacy_residual_stage_failures_name_the_first_sample(stage, F, f, g, reason):
    samples = np.array([[0.25], [0.5], [0.75]])
    with pytest.raises(DomainError) as exc:
        conjugacy_residual(F, f, g, samples)
    assert exc.value.reason == reason
    assert np.array_equal(exc.value.point, samples[0])
    assert str(exc.value) == f"domain violation ({reason}) at [0.25]: {NO_SAMPLES}"


def test_conjugacy_residual_counts_rows_dropped_at_every_stage():
    # 2.0 is off the chart's domain, 0.95 steps off it, 0.1 has a NaN chart
    # image, 0.2 a NaN target image; only 0.5 is used
    F = chart_1d(lambda X: np.where(X == 0.1, np.nan, X), DomainRegion.interval(0.0, 1.0))
    g = DiscreteMap(dim=1, forward=lambda z: np.where(z == 0.2, np.nan, z + 0.25),
                    domain=DomainRegion.full_space(1), name="g")
    report = conjugacy_residual(F, shift_map(0.25), g,
                                np.array([[2.0], [0.95], [0.1], [0.2], [0.5]]))
    assert report.samples_used == 1 and report.samples_skipped == 4
    assert report.worst_point[0] == 0.5 and report.max_residual == 0.0


def test_conjugacy_residual_names_both_dimensions_of_a_mismatched_chart():
    def refuse(x):
        raise AssertionError("the source map was stepped")

    f = DiscreteMap(dim=1, forward=refuse, domain=DomainRegion.full_space(1), name="f")
    F = ImmersionMap(2, 2, lambda X: X, DomainRegion.full_space(2), name="planar")
    with pytest.raises(ValueError, match="chart planar takes dimension 2, but the "
                                         "source system has dimension 1"):
        conjugacy_residual(F, f, f, np.array([[0.5]]))
    with pytest.raises(ValueError, match="sample dimension 2 does not match the "
                                         "source system's dimension 1"):
        conjugacy_residual(chart_1d(lambda X: X), f, f, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("name,samples", [
    ("mobius", np.linspace(-2.0, 0.9, 41)[:, None]),
    ("rotation-scaling", np.stack(np.meshgrid(np.linspace(-2, 2, 9),
                                              np.linspace(-2, 2, 8)), -1).reshape(-1, 2)),
])
@pytest.mark.parametrize("vectorized", [True, False])
def test_per_row_evaluation_matches_the_batch_call(name, samples, vectorized):
    ent = exact_immersion(name, 0)
    F, f, g = ent.immersion, get_system(name), ent.target
    Fv, fv, gv = (replace(m, vectorized=vectorized) for m in (F, f, g))
    inside = samples[F.domain.contains_batch(samples)]
    assert np.array_equal(Fv.apply(inside), F.apply(inside))
    got = conjugacy_residual(Fv, fv, gv, samples)
    want = conjugacy_residual(F, f, g, samples)
    assert got.to_dict() == want.to_dict()
    assert got.rms_residual == want.rms_residual


@pytest.mark.parametrize("vectorized", [True, False])
def test_empty_batches(vectorized):
    ent = exact_immersion("mobius", 0)
    F = replace(ent.immersion, vectorized=vectorized)
    f = replace(get_system("mobius"), vectorized=vectorized)
    assert F.apply(np.empty((0, 1))).shape == (0, 1)
    with pytest.raises(DomainError):       # no sample lies in F's domain
        conjugacy_residual(F, f, ent.target, np.array([[2.0], [5.0]]))


def test_conjugacy_report_validates():
    ent = exact_immersion("mobius", 0)
    report = conjugacy_residual(ent.immersion, get_system("mobius"), ent.target,
                                np.linspace(-2, 0.5, 40)[:, None])
    validate(report.to_dict(), "conjugacy-report")


# -- pushforward -------------------------------------------------------------------------

def assert_geometry_distances(F, h, one, source, target):
    """The report's two distances are geometry's own on the raw windows, bit
    for bit, though the check takes each directed distance once."""
    image = F.apply(source.points)
    assert h == hausdorff(image, target.points)
    assert one == directed_hausdorff(image, target.points)


def test_pushforward_mobius_alpha_is_vacuous():
    ent = exact_immersion("mobius", 0)
    report = pushforward_check(ent.immersion, get_system("mobius"), ent.target, [0.0])
    assert report.hausdorff_omega < 1e-12
    assert_geometry_distances(ent.immersion, report.hausdorff_omega, report.one_sided_omega,
                              report.omega_source, report.omega_target)
    assert report.one_sided_omega <= report.hausdorff_omega
    # the halved target has no backward limit set from a nonzero start
    assert report.alpha_status == "escape-vacuous"
    assert report.hausdorff_alpha is None
    validate(report.to_dict(), "pushforward-report")


def test_pushforward_cot_checks_alpha():
    ent = exact_immersion("cot-map", 0)
    f = get_system("cot-map")
    report = pushforward_check(ent.immersion, f, ent.target, [1.0])
    assert report.hausdorff_omega < 1e-12
    assert report.alpha_status == "checked"
    assert report.hausdorff_alpha < 1e-12
    assert report.one_sided_alpha <= report.hausdorff_alpha
    assert_geometry_distances(ent.immersion, report.hausdorff_omega, report.one_sided_omega,
                              report.omega_source, report.omega_target)
    assert_geometry_distances(ent.immersion, report.hausdorff_alpha, report.one_sided_alpha,
                              estimate_alpha(f, [1.0]),
                              estimate_alpha(ent.target, ent.immersion([1.0])))


def test_pushforward_rotation_scaling():
    ent = exact_immersion("rotation-scaling", 0)
    report = pushforward_check(ent.immersion, get_system("rotation-scaling"),
                               ent.target, [2.0, 0.0])
    assert report.hausdorff_omega < 1e-10
    assert report.omega_source.shape == "curve"
    assert_geometry_distances(ent.immersion, report.hausdorff_omega, report.one_sided_omega,
                              report.omega_source, report.omega_target)
    # backward iteration leaves the annulus on the source side
    assert report.alpha_status == "escape-vacuous"


def test_pushforward_requires_converged_omega():
    ent = exact_immersion("jordan", 0)        # identity lift of the defective block
    with pytest.raises(UnconvergedError):
        pushforward_check(ent.immersion, get_system("jordan"), ent.target,
                          [0.0, 1.0], Settings(burn=100, tail=100, max_rounds=3))


def test_pushforward_without_inverse_reports_no_inverse():
    half_domain = DomainRegion.full_space(1)
    f = DiscreteMap(dim=1, forward=lambda x: 0.5 * np.asarray(x, dtype=float),
                    domain=half_domain, name="half-one-way")
    F = ImmersionMap(1, 1, lambda X: np.asarray(X, dtype=float), half_domain)
    report = pushforward_check(F, f, f, [1.0])
    assert report.alpha_status == "no-inverse"


# -- collapse ---------------------------------------------------------------------------

def test_collapse_raises_at_unrepresentable_member(rotation_catalog):
    ent = exact_immersion("rotation-scaling", 0)
    with pytest.raises(DomainError) as exc:
        collapse_report(ent.immersion, rotation_catalog, seed=42)
    assert exc.value.reason == "excluded-point"
    assert np.linalg.norm(np.asarray(exc.value.point)) < 1e-9


def test_collapse_separated_members(cot_catalog):
    F = cos_map(0.0, np.pi)
    report = collapse_report(F, cot_catalog, seed=42)
    assert report.labels == ("S0", "S1")
    assert report.pairwise[0, 1] == pytest.approx(2.0, rel=1e-9)   # cos{0} vs cos{pi}
    assert report.maximal_member is None
    assert report.collapse_ratio == pytest.approx(1.0, rel=1e-3)
    validate(report.to_dict(), "collapse-report")


def test_collapse_constant_map_is_total(cot_catalog):
    F = ImmersionMap(1, 1, lambda X: np.ones_like(np.asarray(X, dtype=float)),
                     DomainRegion.interval(0.0, np.pi), name="one")
    report = collapse_report(F, cot_catalog, seed=42)
    assert report.collapse_ratio == 0.0
    assert report.image_diameter == 0.0
    assert report.maximal_member == "S0"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collapse_refuses_overflowing_distances(mobius_unit_catalog):
    # the members sit at -1 and 1, so their images are 2e154 apart, and the
    # square of that distance overflows
    apart = chart_1d(lambda X: 1e154 * np.asarray(X, dtype=float))
    with pytest.raises(DomainError) as exc:
        collapse_report(apart, mobius_unit_catalog, seed=42)
    assert exc.value.reason == "non-finite-distance"
    assert np.array_equal(exc.value.point, mobius_unit_catalog.members[0].points[0])
    assert "images of S0 and S1 overflows" in str(exc.value)
    # the member images nearly coincide, but the sampled image's diameter overflows
    spread = chart_1d(lambda X: 1e154 * (2 * np.asarray(X, dtype=float) ** 2 - 1))
    with pytest.raises(DomainError) as exc:
        collapse_report(spread, mobius_unit_catalog, samples=[[0.0], [0.5], [1.0]])
    assert exc.value.reason == "non-finite-distance"
    assert exc.value.point[0] == 0.0
    assert "diameter of the sampled image overflows" in str(exc.value)


def test_collapse_single_member_has_no_ratio():
    member_points = np.array([[0.0]])
    catalog_one, _ = __import__("limitlab").catalog_from_seeds(
        get_system("scalar-linear", a=0.5), [0.5])
    F = ImmersionMap(1, 1, lambda X: np.asarray(X, dtype=float),
                     DomainRegion.interval(-1.0, 1.0))
    report = collapse_report(F, catalog_one, seed=42)
    assert len(catalog_one) == 1
    assert report.collapse_ratio is None
    assert member_points.shape == (1, 1)


def test_collapse_maximal_member_reads_the_catalogs_tol_cluster(cot_catalog):
    # the images cos{0} and cos{pi} sit 2 apart: no member holds the other
    # within 1e-3, but either does within 3
    F = cos_map(0.0, np.pi)
    samples = np.linspace(0.0, np.pi, 64)[:, None]
    tight = collapse_report(F, cot_catalog, samples=samples)
    loose = collapse_report(F, replace(cot_catalog, tol_cluster=3.0), samples=samples)
    assert cot_catalog.tol_cluster == 1e-3
    assert (tight.maximal_member, loose.maximal_member) == (None, "S0")


def test_collapse_is_permutation_equivariant(cot_catalog):
    F = cos_map(0.0, np.pi)
    flipped = LimitSetCatalog(members=tuple(reversed(cot_catalog.members)),
                              tol_cluster=cot_catalog.tol_cluster,
                              gap_factor=cot_catalog.gap_factor)
    samples = np.linspace(0.0, np.pi, 64)[:, None]
    a = collapse_report(F, cot_catalog, samples=samples)
    b = collapse_report(F, flipped, samples=samples)
    assert b.labels == tuple(reversed(a.labels))
    perm = [1, 0]
    assert np.array_equal(b.pairwise, a.pairwise[np.ix_(perm, perm)])
    assert a.collapse_ratio == b.collapse_ratio


def _reference_collapse(F, catalog, tol_cluster=1e-3):
    """The pairwise matrix and maximal member as computed before member images
    were prepared: every distance on the raw image arrays."""
    images = [F.apply(m.points) for m in catalog.members]
    k = len(images)
    pairwise = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pairwise[i, j] = pairwise[j, i] = hausdorff(images[i], images[j])
    maximal = None
    for i in range(k):
        if all(directed_hausdorff(images[j], images[i]) < tol_cluster
               for j in range(k) if j != i):
            maximal = catalog.members[i].label
            break
    return pairwise, maximal


def _negation_catalog():
    seeds = [[0.05 * k] for k in range(-6, 7)] + [[0.3 + 4e-4], [0.3 + 1e-3]]
    return catalog_from_seeds(get_system("negation"), seeds)[0]


@pytest.mark.parametrize("case", ["cos", "constant", "square", "coarse", "identity"])
def test_collapse_report_equals_the_unprepared_computation(cot_catalog, case):
    line = DomainRegion.full_space(1)
    catalog = cot_catalog if case in ("cos", "constant") else _negation_catalog()
    F = {
        "cos": cos_map(0.0, np.pi),
        "constant": ImmersionMap(1, 1, lambda X: np.ones_like(np.asarray(X, dtype=float)),
                                 DomainRegion.interval(0.0, np.pi)),
        # glues each period-2 orbit {x, -x} to one point
        "square": ImmersionMap(1, 1, lambda X: np.asarray(X, dtype=float) ** 2, line),
        # rounds images to a grid near the cluster tolerance, so one-sided
        # distances tie with it
        "coarse": ImmersionMap(1, 1, lambda X: np.round(np.asarray(X, dtype=float), 3), line),
        "identity": ImmersionMap(1, 1, lambda X: np.asarray(X, dtype=float), line),
    }[case]
    report = collapse_report(F, catalog, samples=np.linspace(-1.0, 1.0, 33)[:, None]
                             if case not in ("cos", "constant") else None, seed=42)
    pairwise, maximal = _reference_collapse(F, catalog)
    assert np.array_equal(report.pairwise, pairwise)
    assert report.maximal_member == maximal


# -- injectivity -------------------------------------------------------------------------

def test_injectivity_cos_is_injective_on_half_period(rng):
    F = cos_map(0.0, np.pi)
    samples = rng.uniform(0.0, np.pi, size=(600, 1))
    report = injectivity_probe(F, samples)
    assert report.n_collisions == 0
    assert report.collisions == ()
    assert report.min_separation_ratio > 0.0
    validate(report.to_dict(), "injectivity-report")


def test_injectivity_cos_folds_on_full_period():
    F = cos_map(-np.pi, np.pi)
    grid = np.linspace(-np.pi, np.pi, 401)[:, None]
    report = injectivity_probe(F, grid)
    # every mirror pair (x, -x) lands on the same image
    assert report.n_collisions == 200
    assert report.min_separation_ratio == 0.0
    worst = report.collisions[0]
    assert worst[0][0] == pytest.approx(-worst[1][0])


def test_injectivity_recording_is_capped_but_counting_is_not():
    F = ImmersionMap(1, 1, lambda X: np.ones_like(np.asarray(X, dtype=float)),
                     DomainRegion.interval(0.0, 1.0))
    pts = np.linspace(0.0, 1.0, 80)[:, None]
    report = injectivity_probe(F, pts)
    assert report.pairs_checked == 80 * 79 // 2
    assert report.n_collisions == report.pairs_checked
    assert len(report.collisions) == 256


def reference_probe(F, samples, delta_sep=1e-3, delta_img=1e-6, max_recorded=256):
    """The full-matrix walk: per 512-row chunk, every distance to every sample,
    upper triangle kept by index."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    X = X[F.domain.contains_batch(X)]
    FX = F.apply(X)
    collisions = []
    n_collisions = 0
    min_ratio = float("inf")
    pairs = 0
    for i in range(0, len(X), 512):
        dx = cdist(X[i:i + 512], X)
        di = cdist(FX[i:i + 512], FX)
        rows, cols = np.nonzero(dx > delta_sep)
        keep = (rows + i) < cols
        rows, cols = rows[keep], cols[keep]
        pairs += len(rows)
        if len(rows):
            ratios = di[rows, cols] / dx[rows, cols]
            min_ratio = min(min_ratio, float(ratios.min()))
            hit = di[rows, cols] < delta_img
            n_collisions += int(hit.sum())
            for r, c in zip(rows[hit], cols[hit]):
                if len(collisions) >= max_recorded:
                    break
                collisions.append((X[r + i], X[c], float(dx[r, c]), float(di[r, c])))
    return collisions, n_collisions, min_ratio, pairs


def assert_probe_equals_reference(F, samples, **kw):
    report = injectivity_probe(F, samples, **kw)
    collisions, n_collisions, min_ratio, pairs = reference_probe(F, samples, **kw)
    assert report.pairs_checked == pairs
    assert report.n_collisions == n_collisions
    assert report.min_separation_ratio == min_ratio
    assert len(report.collisions) == len(collisions)
    for got, want in zip(report.collisions, collisions):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] and got[3] == want[3]
    return report


@pytest.mark.parametrize("n", [2, 511, 512, 513, 1100, 2000])
@pytest.mark.parametrize("d_in,d_out", [(1, 1), (1, 13), (2, 3), (3, 1), (3, 13)])
def test_injectivity_probe_equals_the_full_matrix_walk(n, d_in, d_out):
    # a smooth folding map gives a nontrivial worst ratio; quantising its
    # image glues whole cells together, so collisions overflow the record
    rng = np.random.default_rng(1000 * n + 10 * d_in + d_out)
    W = rng.normal(scale=3.0, size=(d_in, d_out))
    samples = rng.uniform(-1.0, 1.0, size=(n, d_in))
    region = DomainRegion.full_space(d_in)
    smooth = ImmersionMap(d_in, d_out, lambda X: np.sin(X @ W), region)
    folded = ImmersionMap(d_in, d_out, lambda X: np.floor(4.0 * np.sin(X @ W)), region)
    assert assert_probe_equals_reference(smooth, samples).min_separation_ratio > 0.0
    report = assert_probe_equals_reference(folded, samples)
    if n >= 511 and d_out < 13:
        assert report.n_collisions > 256


def test_injectivity_record_cap_falls_in_a_later_block():
    # the first 512 samples collide in 40 pairs: 40 of them are copies of
    # others shifted by 10, which F shifts back. The rest fall into two
    # cells, so the cap of 256 fills inside the second block, which holds
    # pairs inside it and pairs with the samples after it
    rng = np.random.default_rng(5)
    head = np.linspace(0.0, 1.0, 472)
    samples = np.concatenate([head, head[:40] + 10.0,
                              rng.uniform(20.0, 20.5, size=600)])[:, None]
    F = ImmersionMap(1, 1, lambda X: np.where(X < 5.0, X, np.where(
        X < 15.0, X - 10.0, np.floor(4.0 * X))), DomainRegion.full_space(1))
    report = assert_probe_equals_reference(F, samples)
    first = reference_probe(F, samples[:512])
    assert 0 < first[1] < 256 < report.n_collisions
    rows = [np.flatnonzero(samples[:, 0] == x[0])[0] for x, *_ in report.collisions]
    assert rows == sorted(rows) and rows[-1] >= 512
    assert_probe_equals_reference(F, samples, max_recorded=1000)
    assert_probe_equals_reference(F, samples, max_recorded=0)


def test_injectivity_ratio_is_null_without_separated_pairs():
    F = cos_map(0.0, np.pi)
    report = injectivity_probe(F, np.array([[1.0], [1.0005], [1.0002]]))
    assert report.pairs_checked == 0 and report.n_collisions == 0
    assert report.min_separation_ratio is None
    doc = report.to_dict()
    assert doc["min_separation_ratio"] is None
    validate(doc, "injectivity-report")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("func,samples", [
    # the sample distance overflows
    (lambda X: np.asarray(X, dtype=float), [[0.0], [-1e154], [1e154]]),
    # the image distance overflows
    (lambda X: 1e154 * np.asarray(X, dtype=float), [[0.0], [-1.0], [1.0]]),
])
def test_injectivity_refuses_overflowing_distances(func, samples):
    # the first overflowing pair in row-major order is (1, 2)
    with pytest.raises(DomainError) as exc:
        injectivity_probe(chart_1d(func), np.array(samples))
    assert exc.value.reason == "non-finite-distance"
    assert exc.value.point[0] == samples[1][0]


def test_injectivity_needs_two_samples():
    F = cos_map(0.0, np.pi)
    with pytest.raises(ValueError):
        injectivity_probe(F, np.array([[1.0]]))
    # two samples, one of them in the domain; refused when they are prepared
    samples = np.array([[-1.0], [1.0]])
    with pytest.raises(ValueError, match="at least two in-domain samples"):
        immersion._probe_samples(F.domain, samples, DELTA_SEP)
    with pytest.raises(ValueError, match="at least two in-domain samples"):
        injectivity_probe(F, samples)


# -- prepared probe samples -----------------------------------------------------------

def probe_outcome(F, samples, **kw):
    """The probe's report as a dict, or the error it raises as its fields."""
    try:
        return injectivity_probe(F, samples, **kw).to_dict()
    except (DomainError, ValueError) as exc:
        return type(exc).__name__, str(exc), list(getattr(exc, "point", []))


def assert_prepared_equals_raw(F, samples, **kw):
    prepared = immersion._probe_samples(F.domain, samples, kw.get("delta_sep", DELTA_SEP))
    raw = probe_outcome(F, samples, **kw)
    assert probe_outcome(F, prepared, **kw) == raw
    # a prepared set is only read: it probes the next chart the same way
    assert probe_outcome(F, prepared, **kw) == raw
    return raw


@pytest.mark.parametrize("delta_sep", [DELTA_SEP, 0.1])
@pytest.mark.parametrize("max_recorded", [0, 10, 256, 5000])
def test_prepared_samples_give_the_raw_samples_report(max_recorded, delta_sep):
    # 1,100 samples, some outside the box, the rest three blocks of the walk
    rng = np.random.default_rng(11)
    samples = rng.uniform(-1.0, 1.0, size=(1100, 2))
    W = rng.normal(scale=3.0, size=(2, 3))
    region = DomainRegion.box([[-0.98, 1.0], [-1.0, 1.0]])
    prepared = immersion._probe_samples(region, samples, delta_sep)
    n = len(prepared.X)
    assert 1024 < n < 1100
    assert [block[:2] for block in prepared.blocks] == [(0, 512), (512, 512), (1024, n - 1024)]
    kw = {"delta_sep": delta_sep, "max_recorded": max_recorded}
    for func in (lambda X: np.sin(X @ W), lambda X: np.floor(4.0 * np.sin(X @ W))):
        F = ImmersionMap(2, 3, func, region)
        report = assert_prepared_equals_raw(F, samples, **kw)
        assert injectivity_probe(F, prepared, **kw).to_dict() == report
        _, n_collisions, _, pairs = reference_probe(F, samples, **kw)
        assert report["pairs_checked"] == prepared.pairs == pairs
        assert report["n_collisions"] == n_collisions
        assert len(report["collisions"]) == min(max_recorded, n_collisions)
    # at 1e-3 a few pairs are too close, so some blocks are separated
    # throughout and some not; at 0.1 none is
    whole = [dx.size == dx_sep.size for _, _, dx, _, _, dx_sep in prepared.blocks]
    assert whole == ([False, True, True] if delta_sep == DELTA_SEP else [False] * 3)
    assert n_collisions > 5000


def non_finite_case(where):
    """1,100 samples of [0, 1] whose first overflowing pair, in row-major
    order, lies in the second block: in input space or in image space."""
    samples = np.random.default_rng(12).uniform(0.0, 1.0, size=(1100, 1))
    if where == "input":
        samples[[700, 900, 1050], 0] = [1e154, -1e154, -1e154]
    else:
        samples[[600, 1050], 0] = [7.0, -7.0]
    F = ImmersionMap(1, 1, lambda X: np.where(np.abs(X) == 7.0, 1e154 * np.sign(X),
                                              np.tanh(X)), DomainRegion.full_space(1))
    return F, samples


@pytest.mark.parametrize("where", ["input", "image"])
def test_prepared_samples_raise_at_the_first_overflowing_pair(where):
    F, samples = non_finite_case(where)
    X = samples
    FX = F.apply(X)
    bad = ~(np.isfinite(cdist(X, X)) & np.isfinite(cdist(FX, FX)))
    bad[np.tril_indices(len(X))] = False
    r, c = np.argwhere(bad)[0]
    assert 512 <= r < 1024
    outcome = assert_prepared_equals_raw(F, samples)
    assert outcome[0] == "DomainError" and outcome[2] == [X[r, 0]]
    assert f"the distance to {X[c]}" in outcome[1]


def test_prepared_samples_are_refused_for_another_domain_or_separation():
    samples = np.linspace(-3.0, 3.0, 1100)[:, None]
    full = ImmersionMap(1, 1, lambda X: np.cos(np.asarray(X)), DomainRegion.full_space(1))
    half = replace(full, domain=DomainRegion.interval(0.0, 3.0))
    prepared = immersion._probe_samples(full.domain, samples, DELTA_SEP)
    assert immersion._probe_samples(full.domain, prepared, DELTA_SEP) is prepared
    for F, kw in ((half, {}), (full, {"delta_sep": 0.5})):
        with pytest.raises(ValueError, match="prepared for another domain"):
            injectivity_probe(F, prepared, **kw)


# -- forward/backward consistency -----------------------------------------------------------

def test_consistency_flags_the_open_basin(mobius_unit):
    report = omega_alpha_consistency(mobius_unit, [0.0])
    assert not report.consistent
    assert report.hausdorff_distance == pytest.approx(2.0, rel=1e-9)
    assert "inconsistent" in report.detail
    validate(report.to_dict(), "consistency-report")


def test_consistency_flags_cot_interior_point():
    report = omega_alpha_consistency(get_system("cot-map"), [2.0])
    assert not report.consistent
    assert report.hausdorff_distance == pytest.approx(np.pi, rel=1e-9)


def test_consistency_vacuous_on_escape():
    report = omega_alpha_consistency(get_system("scalar-linear", a=0.5), [0.7])
    assert report.consistent
    assert report.detail == "escape (vacuous)"
    assert report.hausdorff_distance is None


def test_consistency_matched_on_linear_invariant_circle():
    report = omega_alpha_consistency(rotation_block_map(), [1.0, 0.0, 0.0])
    assert report.consistent
    assert report.detail == "matched"
    assert report.hausdorff_distance < report.tolerance


def test_consistency_never_flags_linear_targets():
    # closed basins forward and backward: any mismatch would be estimator noise
    cases = [
        (LinearSystem(np.array([[0.5]])).as_map(), [[0.0], [0.7], [-2.0]]),
        (LinearSystem(np.array([[2.0]])).as_map(), [[0.0], [0.3]]),
        (rotation_block_map(), [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.4, 0.3, 0.2]]),
        (get_system("jordan", lam=0.5, m=2), [[1.0, 1.0], [0.0, 0.0]]),
    ]
    for g, points in cases:
        for z0 in points:
            report = omega_alpha_consistency(g, z0)
            assert report.consistent, (g.name, z0)


def test_consistency_unconverged_raises():
    with pytest.raises(UnconvergedError):
        omega_alpha_consistency(get_system("jordan"), [0.0, 1.0],
                                Settings(burn=100, tail=100, max_rounds=3))
