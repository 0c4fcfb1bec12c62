"""Dictionary regression: construction, fitting, recovery, and the sweep."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from limitlab import (DomainRegion, TradeoffRow, build_dictionary,
                      catalog_from_seeds, conjugacy_residual, fit_lift,
                      get_system, immersion, lifting, obstruction_sweep,
                      training_pairs)
from limitlab.config import RANDOM_SAMPLES
from limitlab.errors import (CatalogGuardError, DomainError, InvalidParamError,
                             SingularGramError)
from limitlab.linear import apply_matrix
from limitlab.serialize import validate

MOBIUS_REGION = DomainRegion.interval(-0.9, 0.5)


def rotation_observables():
    def x_over_r(X):
        X = np.atleast_2d(X)
        return X[:, 0] / np.linalg.norm(X, axis=1)

    def y_over_r(X):
        X = np.atleast_2d(X)
        return X[:, 1] / np.linalg.norm(X, axis=1)

    def radial(X):
        r = np.linalg.norm(np.atleast_2d(X), axis=1)
        return (r - 1.0) / r

    return [x_over_r, y_over_r, radial]


# -- constructors ------------------------------------------------------------

def test_dictionary_sizes_and_labels():
    d = build_dictionary("monomial", 2, 2)
    # 1, x1, x2, x1^2, x1 x2, x2^2
    assert d.size == 6
    assert d.labels[0] == "1"
    assert d.evaluate(np.array([[1.0, 2.0]])).shape == (1, 6)

    f = build_dictionary("fourier", 1, 3)
    assert f.size == 7
    assert {l.split("(")[0] for l in f.labels[1:]} == {"cos", "sin"}

    r = build_dictionary("rational-pole", 1, 3, pole=1.0)
    assert r.size == 4
    u = r.evaluate(np.array([[0.0]]))
    assert np.allclose(u, [[1.0, -1.0, 1.0, -1.0]])   # powers of (0+1)/(0-1)


def test_dictionary_without_constant():
    d = build_dictionary("monomial", 1, 2, include_constant=False)
    assert d.size == 2
    with pytest.raises(InvalidParamError):
        build_dictionary("monomial", 1, 0, include_constant=False)


def test_dictionary_rejects_bad_params():
    with pytest.raises(InvalidParamError):
        build_dictionary("chebyshev", 1, 2)
    with pytest.raises(InvalidParamError):
        build_dictionary("fourier", 2, 2)
    with pytest.raises(InvalidParamError):
        build_dictionary("rational-pole", 3, 2)
    with pytest.raises(InvalidParamError):
        build_dictionary("monomial", 1, 33)
    with pytest.raises(InvalidParamError):
        build_dictionary("monomial", 1, -1)
    with pytest.raises(InvalidParamError):
        build_dictionary("custom", 1, funcs=None)
    with pytest.raises(InvalidParamError):
        build_dictionary("custom", 1, funcs=[lambda X: X], labels=["a", "b"])


def test_dictionary_single_point_call():
    d = build_dictionary("monomial", 2, 1)
    v = d([0.5, 2.0])
    assert v.shape == (3,)
    assert np.allclose(v, [1.0, 0.5, 2.0])


# -- evaluation against the per-feature formulas ------------------------------

def reference_funcs(kind, dim, order, include_constant=True, pole=1.0):
    """One closure per feature, each computing its formula on the batch."""
    funcs = [lambda X: np.ones(len(X))] if include_constant and kind != "monomial" else []
    if kind == "monomial":
        for total in range(0 if include_constant else 1, order + 1):
            for combo in itertools.combinations_with_replacement(range(dim), total):
                c = np.bincount(combo, minlength=dim).astype(float)
                funcs.append(lambda X, c=c: np.prod(X ** c, axis=1))
    elif kind == "fourier":
        for j in range(1, order + 1):
            funcs.append(lambda X, j=j: np.cos(j * X[:, 0]))
            funcs.append(lambda X, j=j: np.sin(j * X[:, 0]))
    else:
        for j in range(1, order + 1):
            funcs.append(lambda X, j=j: ((X[:, 0] + pole) / (X[:, 0] - pole)) ** j)
    return funcs


def reference_dictionary(kind, dim, order=2, **kw):
    """``build_dictionary``'s dictionary, evaluated by the per-feature closures."""
    d = build_dictionary(kind, dim, order, **kw)
    funcs = reference_funcs(kind, dim, order, **kw)
    return replace(build_dictionary("custom", dim, funcs=funcs, labels=d.labels),
                   kind=d.kind)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, -1e-310, 1e-170, 1e154, -1e155, 1e300,
           -1e300, 0.5, -1.5, 1.0, -1.0, 2.0]


def awkward_states(dim, seed):
    """Normal draws at three scales, then rows made of the special values."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 1e3, 1e60], size=(300, dim))
    return np.vstack([rng.normal(size=(300, dim)) * scale,
                      rng.choice(SPECIAL, size=(400, dim))])


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.flags["C_CONTIGUOUS"]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# order 0 without the constant is an empty dictionary, which is refused
@pytest.mark.parametrize("dim,order,include_constant", [
    (dim, order, const) for dim in (1, 2, 3, 4) for order in range(9)
    for const in (True, False) if order or const])
def test_monomials_equal_the_per_feature_products(dim, order, include_constant):
    X = awkward_states(dim, 100 * dim + order)
    got = build_dictionary("monomial", dim, order,
                           include_constant=include_constant).evaluate(X)
    want = reference_dictionary("monomial", dim, order,
                                include_constant=include_constant).evaluate(X)
    assert_same_bits(got, want)


@pytest.mark.parametrize("kind,order,include_constant", [
    (kind, order, const)
    for kind, orders in (("rational-pole", range(1, 5)), ("fourier", range(5)))
    for order in orders for const in (True, False) if order or const])
def test_one_dimensional_kinds_equal_the_per_feature_formulas(kind, order,
                                                              include_constant):
    X = np.concatenate([awkward_states(1, order), [[1.0], [-1.0]]])  # the poles
    kw = {"include_constant": include_constant}
    if kind == "rational-pole":
        kw["pole"] = -1.0 if order % 2 else 1.0
    got = build_dictionary(kind, 1, order, **kw).evaluate(X)
    assert_same_bits(got, reference_dictionary(kind, 1, order, **kw).evaluate(X))


def test_monomials_do_not_depend_on_the_batch_memory_order():
    # numpy picks its power kernel from the layout of the operands; on some
    # hosts a column-major batch took another kernel and other last bits
    X = np.random.default_rng(7).normal(size=(100_000, 2)) * 3.0
    d = build_dictionary("monomial", 2, 3)
    assert_same_bits(d.evaluate(np.asfortranarray(X)), d.evaluate(X))


# -- training data -----------------------------------------------------------

def test_training_pairs_are_forward_images():
    f = get_system("mobius")
    X, Y = training_pairs(f, MOBIUS_REGION, n_grid=64, n_random=32, seed=1)
    assert X.shape == Y.shape == (96, 1)
    direct = np.stack([np.asarray(f.forward(x), dtype=float) for x in X])
    assert np.array_equal(Y, direct.reshape(Y.shape))
    assert MOBIUS_REGION.contains_batch(X).all()


@pytest.mark.parametrize("vectorized", [True, False])
def test_training_pairs_per_row_path_matches(vectorized):
    f = get_system("mobius")
    X, Y = training_pairs(f, MOBIUS_REGION, n_grid=64, n_random=32, seed=1)
    Xv, Yv = training_pairs(replace(f, vectorized=vectorized), MOBIUS_REGION,
                            n_grid=64, n_random=32, seed=1)
    assert np.array_equal(Xv, X) and np.array_equal(Yv, Y)


def test_training_pairs_skip_grid_on_non_box_regions():
    f = get_system("rotation-scaling")
    ring = DomainRegion.annulus(0.1, 3.0)
    X, Y = training_pairs(f, ring, n_grid=100, n_random=50, seed=1)
    # the annulus is not a product of intervals, so only random draws remain
    assert len(X) == 50
    assert ring.contains_batch(X).all()


def survey_reference(region, per_axis, n, seed, box=None):
    """The grid nodes inside ``region`` in row-major order, then ``n`` seeded
    draws: the grid spelled out node by node."""
    parts = []
    if region.has_finite_box():
        nodes = np.array(list(itertools.product(*region.grid(per_axis))))
        parts.append(nodes[region.contains_batch(nodes)])
    parts.append(region.sample(n, np.random.default_rng(seed), box=box))
    return np.vstack(parts)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SURVEY_REGIONS = {
    "interval": DomainRegion.interval(-0.9, 0.5),
    # the excluded point is a node of the 17-per-axis grid, so it is dropped
    "punctured-box": DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]], excluded=[[0.5, 0.5]]),
    "annulus": DomainRegion.annulus(0.1, 3.0),
    "cube": DomainRegion.box([[-1.0, 1.0]] * 3),
    "tesseract": DomainRegion.box([[-1.0, 1.0]] * 4),
}


@pytest.mark.parametrize("name", ["interval", "punctured-box", "cube", "tesseract"])
def test_survey_samples_are_the_grid_then_the_draws(name):
    from limitlab import runs
    region = SURVEY_REGIONS[name]
    per_axis = {1: 129, 2: 17, 3: 6, 4: 4}[region.dim]
    got = runs.survey_samples(region, 7)
    want = survey_reference(region, per_axis, 512, 7)
    assert same_bits(got, want)
    if name == "punctured-box":
        assert len(want) == 17 * 17 - 1 + 512
    if region.dim > 2:
        # the most per axis within 17**2 nodes: the injectivity probe keeps
        # every pair distance of the survey
        assert len(got) <= 17 ** 2 + 512 < len(survey_reference(region, per_axis + 1, 512, 7))


def test_survey_samples_on_a_region_without_a_finite_box_are_the_draws():
    from limitlab import runs
    ring = SURVEY_REGIONS["annulus"]
    assert same_bits(runs.survey_samples(ring, 7), ring.sample(512, np.random.default_rng(7)))
    with pytest.raises(ValueError, match="unbounded region: pass an explicit sample box"):
        runs.survey_samples(DomainRegion.full_space(2), 7)


@pytest.mark.parametrize("name,system", [("interval", "mobius"),
                                         ("punctured-box", "rotation-scaling"),
                                         ("annulus", "rotation-scaling")])
def test_training_pairs_are_the_survey_of_the_region(name, system):
    region = SURVEY_REGIONS[name]
    X, _ = training_pairs(get_system(system), region, n_grid=100, n_random=50, seed=3)
    per_axis = max(2, int(round(100 ** (1.0 / region.dim))))
    # no row of these surveys is rejected by the step, so X is the whole survey
    assert same_bits(X, survey_reference(region, per_axis, 50, 3))


# -- fitting -----------------------------------------------------------------

def test_rational_pole_dictionary_linearizes_the_rational_map():
    f = get_system("mobius")
    d = build_dictionary("rational-pole", 1, 3)
    lift = fit_lift(f, d, region=MOBIUS_REGION, seed=42)
    assert lift.report.rms_residual < 1e-9
    assert lift.report.method == "normal-equations"
    # the learned operator is diagonal with the exact halving cascade
    assert np.allclose(lift.K, np.diag([1.0, 0.5, 0.25, 0.125]), atol=1e-10)
    assert np.allclose(lift.eigenvalues.real, [1.0, 0.5, 0.25, 0.125], atol=1e-10)
    assert np.abs(lift.eigenvalues.imag).max() < 1e-12
    validate(lift.report.to_dict(), "fit-report")


def test_fit_is_bit_identical_across_runs():
    f = get_system("mobius")
    d = build_dictionary("rational-pole", 1, 3)
    a = fit_lift(f, d, region=MOBIUS_REGION, seed=42)
    b = fit_lift(f, d, region=MOBIUS_REGION, seed=42)
    assert np.array_equal(a.K, b.K)
    assert a.report.rms_residual == b.report.rms_residual


def test_ridge_penalty_never_improves_training_residual():
    f = get_system("cot-map")
    d = build_dictionary("fourier", 1, 2)
    rms = [fit_lift(f, d, ridge=r, seed=42).report.rms_residual
           for r in (0.0, 1e-8, 1e-4, 1e-2, 1.0)]
    assert rms[0] == pytest.approx(0.07068578377806801, rel=1e-9)
    assert rms[-1] == pytest.approx(0.07803127981558686, rel=1e-9)
    assert all(a <= b + 1e-15 for a, b in zip(rms, rms[1:]))


def test_ill_conditioned_gram_switches_to_qr():
    # past SVD_COND_SWITCH the fit leaves the normal equations for
    # np.linalg.lstsq, LAPACK's SVD solver, and the report says "svd"
    f = get_system("mobius")
    d = build_dictionary("monomial", 1, 12)
    lift = fit_lift(f, d, region=MOBIUS_REGION, seed=42)
    assert lift.report.method == "svd"
    assert lift.report.gram_condition > 1e8


def test_numerically_singular_gram_is_refused():
    f = get_system("mobius")
    d = build_dictionary("monomial", 1, 16)
    with pytest.raises(SingularGramError):
        fit_lift(f, d, region=MOBIUS_REGION, seed=42)


def test_duplicate_observables_need_ridge():
    f = get_system("mobius")
    dup = build_dictionary("custom", 1, funcs=[
        lambda X: np.atleast_2d(X)[:, 0],
        lambda X: np.atleast_2d(X)[:, 0],
    ])
    with pytest.raises(SingularGramError):
        fit_lift(f, dup, region=MOBIUS_REGION, ridge=0.0, seed=42)
    lift = fit_lift(f, dup, region=MOBIUS_REGION, ridge=1e-8, seed=42)
    assert np.isfinite(lift.K).all()


def test_more_functions_than_samples_is_refused():
    f = get_system("mobius")
    d = build_dictionary("monomial", 1, 2)
    with pytest.raises(SingularGramError):
        fit_lift(f, d, region=MOBIUS_REGION, n_grid=2, n_random=0, seed=42)


def test_a_training_set_with_no_usable_row_is_refused():
    # every survey node lies in mobius's exclusion ball at its pole, 3, so
    # the step rejects them all and no row is left to fit
    f = get_system("mobius")
    ball = DomainRegion.interval(3.0 - 1e-10, 3.0 + 1e-10)
    assert len(training_pairs(f, ball, seed=42)[0]) == 0
    with pytest.raises(SingularGramError,
                       match="^only 0 usable samples for a 4-function dictionary$"):
        fit_lift(f, build_dictionary("rational-pole", 1, 3), region=ball, seed=42)


# (system, dictionary, region, sample box), the region and box as ``learn`` picks them
FIT_CASES = {
    "rational-pole:3": ("mobius", ("rational-pole", 1, 3), MOBIUS_REGION, None),
    "monomial:5": ("rotation-scaling", ("monomial", 2, 5), None, [[-2.0, 2.0]] * 2),
    "fourier:4": ("cot-map", ("fourier", 1, 4), None, None),
}


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_report_is_the_conjugacy_residual_on_the_training_pairs(case):
    name, spec, region, box = FIT_CASES[case]
    f = get_system(name)
    lift = fit_lift(f, build_dictionary(*spec), region=region, seed=42, box=box)
    X, _ = training_pairs(f, region, seed=42, box=box)
    report = conjugacy_residual(
        lift.as_immersion().restricted(DomainRegion.full_space(f.dim)), f,
        lift.lifted_map(), X)
    assert report.samples_used == lift.report.samples_used == len(X)
    assert report.rms_residual.hex() == lift.report.rms_residual.hex()
    assert report.max_residual.hex() == lift.report.max_residual.hex()


def test_rotation_custom_dictionary_recovers_block_operator(rng):
    f = get_system("rotation-scaling")
    region = DomainRegion.annulus(0.1, 3.0)
    d = build_dictionary("custom", 2, funcs=rotation_observables(),
                         labels=["x/r", "y/r", "(r-1)/r"])
    lift = fit_lift(f, d, region=region, seed=42)
    train_rms = lift.report.rms_residual
    assert train_rms < 1e-12

    c, s = np.cos(1.0), np.sin(1.0)
    K_true = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 0.5]])
    assert np.allclose(lift.K, K_true, atol=1e-12)
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(K_true))[::-1]
                         - lift.eigenvalues)) < 1e-6

    # held-out one-step defect stays within an order of magnitude of training
    heldout = region.sample(1000, np.random.default_rng(43))
    F = lift.as_immersion()
    worst = 0.0
    for x in heldout:
        lhs = F(np.asarray(f.forward(x), dtype=float))
        worst = max(worst, float(np.linalg.norm(lhs - lift.K @ F(x))))
    assert worst <= 10.0 * max(train_rms, 1e-15)


def test_lifted_map_exposes_inverse_and_predict():
    f = get_system("mobius")
    d = build_dictionary("rational-pole", 1, 3)
    lift = fit_lift(f, d, region=MOBIUS_REGION, seed=42)
    g = lift.lifted_map()
    z = lift.as_immersion()([0.2])
    fwd = g.forward(z)
    assert np.allclose(g.inverse(fwd), z, atol=1e-12)


def test_lifted_map_steps_a_row_alone_as_in_a_batch(rng):
    f = get_system("mobius")
    lift = fit_lift(f, build_dictionary("monomial", 1, 4), region=MOBIUS_REGION,
                    seed=42)
    g = lift.lifted_map()
    Z = lift.as_immersion().apply(MOBIUS_REGION.sample(200, rng))
    forward, backward = g.forward(Z), g.inverse(Z)
    for i, z in enumerate(Z):
        assert np.array_equal(g.forward(z), forward[i])
        assert np.array_equal(g.forward(Z[i:i + 1])[0], forward[i])
        assert np.array_equal(g.inverse(z), backward[i])


def test_non_finite_fit_is_a_singular_gram_error():
    # 1 on the region, 1e308 where the map leaves it below: the Gram matrix
    # is fine, but Phi(X)^T Phi(f(X)) overflows and so does K
    jump = build_dictionary("custom", 1,
                            funcs=[lambda X: 1.0 + 1e308 * (X[:, 0] < -0.9)])
    with pytest.raises(SingularGramError):
        fit_lift(get_system("mobius"), jump, region=MOBIUS_REGION, seed=42)


# -- residuals of dictionaries with 8 or more features ---------------------------
#
# Every row norm is the in-order sum of squares, also where numpy's
# ``np.linalg.norm`` adds eight or more squares pairwise and rounds some rows
# differently. The oracle adds them one column at a time, with fresh arrays.
# The reports' means and maxima can hide a last-bit change in a few rows, so
# the residual of every row is recorded where the module takes it.

def in_order_norms(E):
    acc = np.zeros(len(E))
    for k in range(E.shape[1]):
        acc = acc + E[:, k] * E[:, k]
    return np.sqrt(acc)


def _record_row_norms(monkeypatch, module):
    seen, row_norm = [], module._row_norm

    def recording(E):
        seen.append((E.copy(), row_norm(E)))
        return seen[-1][1]

    monkeypatch.setattr(module, "_row_norm", recording)
    return seen


# (system, dictionary, sample box): 9 and 21 features
WIDE = [("cot-map", ("fourier", 1, 4), None),
        ("rotation-scaling", ("monomial", 2, 5), [[-2.0, 2.0], [-2.0, 2.0]])]


@pytest.mark.parametrize("name, spec, box", WIDE, ids=["fourier:4", "monomial:5"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_wide_fit_residual_is_the_in_order_sum(name, spec, box, order, monkeypatch):
    f, d = get_system(name), build_dictionary(*spec)
    assert d.size >= 8
    # the fit takes its row norms in the conjugacy residual's tail
    seen = _record_row_norms(monkeypatch, immersion)
    lift = fit_lift(f, d, seed=42, box=box)
    X, Y = training_pairs(f, seed=42, box=box)
    _, _, PhiX, PhiY = immersion._residual_images(lift.as_immersion(), X, X, Y)
    E = PhiY - lift.lifted_map().forward(PhiX)
    want = in_order_norms(E)
    assert (want != np.linalg.norm(E, axis=1)).any()     # numpy's sum differs here
    [(E_fit, got)] = seen
    assert E_fit.tobytes() == E.tobytes() and got.tobytes() == want.tobytes()
    assert immersion._row_norm(np.asarray(E, order=order)).tobytes() == want.tobytes()
    assert lift.report.max_residual == float(want.max())
    assert lift.report.rms_residual == float(np.sqrt(np.mean(want ** 2)))


@pytest.mark.parametrize("name, spec, box", WIDE, ids=["fourier:4", "monomial:5"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_wide_conjugacy_residual_is_the_in_order_sum(name, spec, box, order, monkeypatch,
                                                     rng):
    f, d = get_system(name), build_dictionary(*spec)
    lift = fit_lift(f, d, seed=42, box=box)
    F, g = lift.as_immersion(), lift.lifted_map()
    bounds = np.array(box or f.domain.bounds)
    X = np.asarray(rng.uniform(bounds[:, 0], bounds[:, 1], (400, f.dim)), order=order)
    seen = _record_row_norms(monkeypatch, immersion)
    report = conjugacy_residual(F, f, g, X)
    _, Xv, FX, FY = immersion._residual_images(F, *immersion._residual_samples(F.domain, f, X))
    E = FY - g.forward(FX)
    want = in_order_norms(E)
    assert (want != np.linalg.norm(E, axis=1)).any()     # numpy's sum differs here
    [(E_conj, got)] = seen
    assert E_conj.tobytes() == E.tobytes() and got.tobytes() == want.tobytes()
    assert report.samples_used == len(want) > 300
    assert report.max_residual == float(want.max())
    assert report.mean_residual == float(want.mean())
    assert report.rms_residual == float(np.sqrt(np.mean(want ** 2)))


# -- sweep -------------------------------------------------------------------

def test_sweep_rows_are_sorted_and_validate(cot_catalog):
    f = get_system("cot-map")
    report = obstruction_sweep(f, cot_catalog,
                               specs=[("fourier", 1), ("fourier", 0)],
                               ridges=(0.0, 1e-4), seed=42)
    assert [(r.dict_size, r.ridge) for r in report.rows] == \
        [(1, 0.0), (1, 1e-4), (3, 0.0), (3, 1e-4)]
    assert all(r.error is None for r in report.rows)
    trivial = report.rows[0]
    assert trivial.residual_heldout < 1e-9
    assert trivial.collapse_ratio == 0.0
    validate(report.to_dict(), "tradeoff-report")


def test_sweep_keeps_failed_rows():
    f = get_system("mobius").restrict(DomainRegion.interval(-1.2, 1.2))
    catalog, skipped = catalog_from_seeds(f, [[0.0], [1.0]])
    assert not skipped
    report = obstruction_sweep(f, catalog, specs=[("rational-pole", 2)],
                               ridges=(0.0,), seed=42)
    row = report.rows[0]
    # the dictionary poles sit on a catalog member, so the collapse stage
    # fails while the held-out residual from the fit is preserved
    assert row.error is not None and row.error.startswith("collapse:")
    assert row.residual_heldout is not None
    assert row.collapse_ratio is None and row.min_sep_ratio is None


def test_sweep_records_singular_fits():
    f = get_system("mobius")
    catalog, _ = catalog_from_seeds(
        f.restrict(DomainRegion.interval(-1.0, 1.0)), [[0.0], [1.0]])
    report = obstruction_sweep(f.restrict(MOBIUS_REGION), catalog,
                               specs=[("monomial", 16)], ridges=(0.0,), seed=42)
    row = report.rows[0]
    assert row.error is not None and "gram condition" in row.error
    assert row.residual_heldout is None


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
def test_fit_rejects_a_ridge_that_is_not_finite_and_non_negative(ridge):
    with pytest.raises(InvalidParamError, match="ridge must be finite and non-negative"):
        fit_lift(get_system("mobius"), build_dictionary("monomial", 1, 2),
                 region=MOBIUS_REGION, ridge=ridge, seed=42)


def test_sweep_turns_a_nan_ridge_into_an_error_row(cot_catalog):
    report = obstruction_sweep(get_system("cot-map"), cot_catalog, specs=[("fourier", 1)],
                               ridges=(0.0, float("nan")), seed=42)
    assert len(report.rows) == 2
    good, bad = sorted(report.rows, key=lambda r: r.error is not None)
    assert good.error is None and good.ridge == 0.0
    assert bad.error == "ridge must be finite and non-negative, got nan"
    assert bad.residual_heldout is None


def test_sweep_guards_against_huge_catalogs():
    f = get_system("negation")
    catalog, _ = catalog_from_seeds(f, np.linspace(0.1, 4.0, 65)[:, None])
    assert len(catalog) == 65
    with pytest.raises(CatalogGuardError):
        obstruction_sweep(f, catalog, specs=[("monomial", 1)])


def test_sweep_csv_golden(tmp_path, cot_catalog):
    f = get_system("cot-map")
    report = obstruction_sweep(f, cot_catalog, specs=[("fourier", 0)],
                               ridges=(0.0,), seed=42)
    out = tmp_path / "sweep.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "dict_kind,dict_size,ridge,residual_heldout,collapse_ratio,min_sep_ratio"
    assert lines[1].startswith("fourier,1,0.0,")
    assert len(lines) == 2


def test_sweep_csv_blanks_missing_fields(tmp_path):
    f = get_system("mobius")
    catalog, _ = catalog_from_seeds(
        f.restrict(DomainRegion.interval(-1.0, 1.0)), [[0.0], [1.0]])
    report = obstruction_sweep(f.restrict(MOBIUS_REGION), catalog,
                               specs=[("monomial", 16)], ridges=(0.0,), seed=42)
    out = tmp_path / "sweep.csv"
    report.write_csv(out)
    row = out.read_text().splitlines()[1]
    assert row == "monomial,17,0.0,,,"


def test_sweep_residual_keeps_step_images_outside_the_region():
    f = get_system("mobius")
    catalog, _ = catalog_from_seeds(
        f.restrict(DomainRegion.interval(-1.0, 1.0)), [[0.0], [1.0]])
    report = obstruction_sweep(f, catalog, specs=[("monomial", 2)], ridges=(0.0,),
                               region=MOBIUS_REGION, seed=42)
    lift = fit_lift(f, build_dictionary("monomial", 1, 2), region=MOBIUS_REGION,
                    seed=42)
    X = MOBIUS_REGION.sample(RANDOM_SAMPLES, np.random.default_rng(43))
    Y = f.forward(X)
    assert f.domain.contains_batch(X).all()
    assert not MOBIUS_REGION.contains_batch(Y).all()    # so the rule matters
    phi = lift.dictionary.evaluate
    res = np.linalg.norm(phi(Y) - apply_matrix(phi(X), lift.K), axis=1)
    assert report.rows[0].residual_heldout == np.sqrt(np.mean(res ** 2))
    # checked on the training region instead, as verify does, it differs
    on_region = conjugacy_residual(lift.as_immersion(), f, lift.lifted_map(), X)
    assert on_region.samples_skipped > 0
    assert on_region.rms_residual != report.rows[0].residual_heldout


# -- the sweep against one fit per (spec, ridge) -------------------------------

def reference_sweep(system, catalog, specs, ridges, region=None, seed=42,
                    pole=1.0, box=None):
    """The sweep's rows as one fit per (spec, ridge), from the public
    functions alone. They are looked up on ``lifting``, so a monkeypatch there
    reaches both sides; the residual comes from ``immersion``, whose stages
    the sweep imports, so a stage is patched on both modules."""
    region = region or system.domain
    heldout = region.sample(RANDOM_SAMPLES, np.random.default_rng(seed + 1), box=box)
    full_space = DomainRegion.full_space(system.dim)
    rows = []
    for kind, order in specs:
        for ridge in ridges:
            try:
                dictionary = build_dictionary(kind, system.dim, order, pole=pole)
                lift = fit_lift(system, dictionary, region=region, ridge=ridge,
                                seed=seed, box=box)
                F = lift.as_immersion()
                resid = immersion.conjugacy_residual(
                    F.restricted(full_space), system, lift.lifted_map(),
                    heldout).rms_residual
                try:
                    ratio = lifting.collapse_report(F, catalog, seed=seed).collapse_ratio
                except DomainError as exc:
                    rows.append(TradeoffRow(kind, dictionary.size, float(ridge),
                                            resid, None, None, error=f"collapse: {exc}"))
                    continue
                inj = lifting.injectivity_probe(F, heldout)
                rows.append(TradeoffRow(kind, dictionary.size, float(ridge),
                                        resid, ratio, inj.min_separation_ratio))
            except (SingularGramError, DomainError, InvalidParamError) as exc:
                try:
                    size = build_dictionary(kind, system.dim, order).size
                except InvalidParamError:
                    size = -1
                rows.append(TradeoffRow(kind, size, float(ridge), None, None, None,
                                        error=str(exc)))
    rows.sort(key=lambda r: (r.dict_size, r.dict_kind, r.ridge))
    return tuple(rows)


def assert_sweep_matches_reference(system, catalog, specs, ridges, **kw):
    rows = obstruction_sweep(system, catalog, specs, ridges=ridges, seed=42, **kw).rows
    assert rows == reference_sweep(system, catalog, specs, ridges, **kw)
    return rows


def test_sweep_matches_one_fit_per_spec_and_ridge(cot_catalog):
    # the nan ridge is the one object both sides hold, so its rows compare equal
    rows = assert_sweep_matches_reference(
        get_system("cot-map"), cot_catalog, [("fourier", k) for k in range(3)],
        (0.0, 1e-8, float("nan")))
    assert len(rows) == 9
    assert sum(r.error is None for r in rows) == 6


def test_sweep_repeats_a_collapse_failure_at_every_ridge():
    f = get_system("mobius").restrict(DomainRegion.interval(-1.2, 1.2))
    catalog, _ = catalog_from_seeds(f, [[0.0], [1.0]])
    rows = assert_sweep_matches_reference(f, catalog, [("rational-pole", 2)],
                                          (0.0, 1e-8, 1e-4))
    assert len(rows) == 3
    assert all(r.error.startswith("collapse:") and r.residual_heldout is not None
               for r in rows)


def test_sweep_matches_a_fit_singular_at_one_ridge_only(mobius_unit_catalog):
    rows = assert_sweep_matches_reference(
        get_system("mobius").restrict(MOBIUS_REGION), mobius_unit_catalog,
        [("monomial", 16)], (0.0, 1e-4, float("nan")))
    singular, fitted, no_ridge = rows
    assert "gram condition" in singular.error and singular.residual_heldout is None
    assert fitted.residual_heldout is not None
    # the ridge is checked before the solve, whose error it would otherwise be
    assert no_ridge.error == "ridge must be finite and non-negative, got nan"


def test_sweep_matches_an_invalid_spec_at_every_ridge(rotation_catalog):
    rows = assert_sweep_matches_reference(
        get_system("rotation-scaling"), rotation_catalog,
        [("fourier", 1), ("monomial", 1)], (0.0, 1e-8), box=[[-2.0, 2.0]] * 2)
    invalid = [r for r in rows if r.dict_kind == "fourier"]
    assert len(invalid) == 2
    assert all(r.dict_size == -1 and r.error == "fourier dictionaries are one-dimensional"
               for r in invalid)


def test_sweep_matches_an_injectivity_failure_without_collapse_prefix(
        monkeypatch, cot_catalog):
    def refuse(F, samples):
        raise DomainError(np.zeros(1), "out-of-bounds", detail="refused")

    monkeypatch.setattr(lifting, "injectivity_probe", refuse)
    rows = assert_sweep_matches_reference(
        get_system("cot-map"), cot_catalog, [("fourier", 1)], (0.0, 1e-8))
    assert [r.error for r in rows] == ["domain violation (out-of-bounds) at [0.]: refused"] * 2
    assert all(r.residual_heldout is None for r in rows)


def test_sweep_runs_shared_work_once_per_sweep_and_per_fitted_dictionary(
        monkeypatch, cot_catalog):
    calls = {"training_pairs": 0, "collapse_report": 0, "injectivity_probe": 0,
             "_residual_samples": 0, "_residual_images": 0, "_probe_samples": 0}

    def counted(name):
        fn = getattr(lifting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lifting, name, counted(name))
    # fourier:1 and fourier:2 fit at ridge 0, each with its training and its
    # held-out images; monomial:16 has its training images, but is singular
    # there and nan is no ridge, so it fits at none; fourier:40 is no
    # dictionary at all
    specs = [("fourier", 1), ("fourier", 2), ("monomial", 16), ("fourier", 40)]
    rows = obstruction_sweep(get_system("cot-map"), cot_catalog, specs,
                             ridges=(0.0, float("nan")), seed=42).rows
    assert len(rows) == 8
    assert calls == {"training_pairs": 1, "collapse_report": 2, "injectivity_probe": 2,
                     "_residual_samples": 1, "_residual_images": 5, "_probe_samples": 1}


def test_sweep_rows_equal_those_of_per_feature_dictionaries(monkeypatch,
                                                            rotation_catalog):
    system = get_system("rotation-scaling")
    specs = [("monomial", k) for k in range(1, 6)]
    kw = {"ridges": (0.0, 1e-8, 1e-4), "seed": 42, "box": [[-2.0, 2.0]] * 2}
    rows = obstruction_sweep(system, rotation_catalog, specs, **kw).rows
    assert sum(r.error is None for r in rows) >= 10
    monkeypatch.setattr(lifting, "build_dictionary", reference_dictionary)
    assert obstruction_sweep(system, rotation_catalog, specs, **kw).rows == rows


@pytest.mark.parametrize("stage", ["_residual_samples", "_residual_images",
                                   "_residual_tail"])
def test_sweep_matches_a_residual_stage_failure_at_every_ridge(
        monkeypatch, mobius_unit_catalog, stage):
    def refuse(*args):
        raise DomainError(np.zeros(1), "out-of-bounds", detail="refused")

    monkeypatch.setattr(immersion, stage, refuse)
    monkeypatch.setattr(lifting, stage, refuse)
    rows = assert_sweep_matches_reference(
        get_system("mobius").restrict(MOBIUS_REGION), mobius_unit_catalog,
        [("monomial", 2), ("monomial", 16)], (0.0, 1e-4, float("nan")))
    refused = "domain violation (out-of-bounds) at [0.]: refused"
    no_ridge = "ridge must be finite and non-negative, got nan"
    # the ridge check comes first; the training images come before a singular
    # solve, and the solve before the held-out samples and the tail
    assert [r.dict_size for r in rows] == [3, 3, 3, 17, 17, 17]
    errors = [r.error for r in rows]
    assert errors[:3] == [refused, refused, no_ridge]
    if stage == "_residual_images":
        assert errors[3] == refused
    else:
        assert "gram condition" in errors[3]
    assert errors[4:] == [refused, no_ridge]
    assert all(r.residual_heldout is None for r in rows)
