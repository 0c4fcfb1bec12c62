"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single line of measured values so a ``pytest -v`` run reads
as a checklist. The numeric thresholds here are contractual — do not loosen.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import limitlab as L
from limitlab import (DomainRegion, Settings, LinearSystem,
                      basin_closedness_witness, build_dictionary,
                      catalog_from_seeds, classify_growth, collapse_report,
                      compute_basins, conjugacy_residual, estimate_alpha,
                      estimate_omega, exact_immersion, fit_lift, get_system,
                      injectivity_probe, iterate, jordan_block_power,
                      obstruction_sweep, omega_nonempty_linear,
                      pushforward_check)
from limitlab.errors import DomainError
from limitlab.geometry import hausdorff

FIXTURE = Path(__file__).parent / "fixtures" / "obstruction_sweep.json"


# -- brute-force growth oracle (independent of the library's classifier) --------

def growth_oracle(A, xi, k=200, tol_vanish=1e-8, tol_unbounded=1e8):
    norms = []
    x = np.asarray(xi, dtype=float)
    for _ in range(k):
        x = A @ x
        norms.append(np.linalg.norm(x))
    if norms[-1] < tol_vanish:
        return "vanishes"
    if max(norms) > tol_unbounded:
        return "unbounded"
    tail = norms[-50:]
    if max(tail) / max(min(tail), 1e-300) >= 10.0:
        return "undetermined"
    return "bounded"


def random_linear_family(n, seed=42, dim=4, eigs=(0.3, 0.9, 1.0, 1.1)):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        lam = rng.choice(eigs, size=dim)
        S = rng.standard_normal((dim, dim))
        if np.linalg.cond(S) >= 50:
            continue
        A = S @ np.diag(lam) @ np.linalg.inv(S)
        xi = rng.standard_normal(dim)
        out.append((A, xi))
    return out


def circle_cloud(n=20000):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(t), np.sin(t)])


# -- criteria ----------------------------------------------------------------------


def test_criterion_1_rational_map_chart_and_closed_form():
    t0 = time.perf_counter()
    f = get_system("mobius")
    ent = exact_immersion("mobius", 0)
    samples = f.domain.sample(1000, np.random.default_rng(42), box=[[-5.0, 0.5]])
    rep = conjugacy_residual(ent.immersion, f, ent.target, samples)

    traj = iterate(f, [0.0], 40)
    ks = np.arange(41)
    closed_form = -(2.0 ** ks - 1.0) / (2.0 ** ks + 1.0)
    orbit_err = float(np.abs(traj.points[:, 0] - closed_form).max())
    elapsed = time.perf_counter() - t0

    print(f"\ncriterion 1: residual={rep.max_residual:.3e} (n={rep.samples_used}) "
          f"orbit_err={orbit_err:.3e} time={elapsed:.2f}s")
    assert rep.samples_used == 1000
    assert rep.max_residual < 1e-12
    assert orbit_err < 1e-12
    assert elapsed < 1.0


def test_criterion_2_time_reversal_chart_and_alpha_limit():
    f_inv = get_system("mobius-inverse")
    ent = exact_immersion("mobius-inverse", 0)
    samples = f_inv.domain.sample(1000, np.random.default_rng(42),
                                  box=[[-0.5, 10.0]])
    rep = conjugacy_residual(ent.immersion, f_inv, ent.target, samples)

    f = get_system("mobius")
    f_half = dataclasses.replace(
        f, domain=DomainRegion.interval(-1.0, np.inf, excluded=[3.0]),
        inverse_domain=DomainRegion.interval(-1.0, np.inf))
    est = estimate_alpha(f_half, [0.0])
    alpha_err = float(np.abs(est.points - 1.0).max())

    print(f"\ncriterion 2: residual={rep.max_residual:.3e} "
          f"alpha_err={alpha_err:.3e}")
    assert rep.samples_used == 1000
    assert rep.max_residual < 1e-12
    assert est.status == "converged"
    assert alpha_err < 1e-6


def test_criterion_3_half_angle_chart_and_open_basin_witness():
    f = get_system("cot-map")
    ent = exact_immersion("cot-map", 0)
    samples = f.domain.sample(1000, np.random.default_rng(42),
                              box=[[0.05, np.pi - 0.05]])
    rep = conjugacy_residual(ent.immersion, f, ent.target, samples)

    target = get_system("mobius").restrict(DomainRegion.interval(-1.0, 1.0))
    catalog, skipped = catalog_from_seeds(target, [[0.0], [1.0]])
    basins = compute_basins(target, catalog, resolution=101)
    witnesses = basin_closedness_witness(target, basins)
    attractor_label = next(m.label for m in catalog.members
                           if abs(m.points.mean() + 1.0) < 1e-6)
    hits = [w for w in witnesses if w.sequence_label == attractor_label]

    print(f"\ncriterion 3: residual={rep.max_residual:.3e} "
          f"witnesses={[(w.sequence_label, w.limit_label) for w in witnesses]}")
    assert rep.samples_used == 1000
    assert rep.max_residual < 1e-9
    # the attracting basin accumulates at the repelling endpoint it excludes
    assert hits, "no witness that the attracting basin fails to be closed"
    assert all(abs(w.limit_point[0] - 1.0) < 1e-6 for w in hits)


def test_criterion_4_planar_spiral_chart_circle_and_origin_obstruction():
    t0 = time.perf_counter()
    f = get_system("rotation-scaling")
    ent = exact_immersion("rotation-scaling", 0)
    ring = DomainRegion.annulus(0.1, 10.0)
    samples = ring.sample(10_000, np.random.default_rng(42))
    rep = conjugacy_residual(ent.immersion, f, ent.target, samples)

    est = estimate_omega(f, [2.0, 0.0], Settings(tail=10_000))
    d_circle = hausdorff(est.points, circle_cloud())

    inj = injectivity_probe(ent.immersion, ring.sample(2000, np.random.default_rng(7)))

    catalog, skipped = catalog_from_seeds(f, [[0.0, 0.0], [2.0, 0.0]])
    assert not skipped and len(catalog) == 2
    with pytest.raises(DomainError) as exc:
        collapse_report(ent.immersion, catalog, seed=42)
    origin_norm = float(np.linalg.norm(np.atleast_1d(exc.value.point)))
    elapsed = time.perf_counter() - t0

    print(f"\ncriterion 4: residual={rep.max_residual:.3e} "
          f"d_circle={d_circle:.3e} collisions={inj.n_collisions} "
          f"origin_norm={origin_norm:.1e} time={elapsed:.1f}s")
    assert rep.max_residual < 1e-9
    assert est.status == "converged" and d_circle < 1e-2
    assert inj.n_collisions == 0
    assert origin_norm < 1e-9
    assert elapsed < 30.0


def test_criterion_5_growth_classifier_against_brute_force():
    family = random_linear_family(100, seed=42)
    agree = disagree = undetermined = 0
    verdict_of = {"vanishes": "vanishes", "bounded": "bounded-nonvanishing",
                  "unbounded": "unbounded"}
    for A, xi in family:
        oracle = growth_oracle(A, xi)
        if oracle == "undetermined":
            undetermined += 1
            continue
        got = classify_growth(LinearSystem(A), xi).verdict
        if got == verdict_of[oracle]:
            agree += 1
        else:
            disagree += 1

    jordan_err = 0.0
    for lam in (0.5, 1.0, 2.0):
        for m in (1, 2, 3, 4):
            J = np.diag([lam] * m) + np.diag([1.0] * (m - 1), 1)
            P = np.eye(m)
            for k in range(51):
                Jk = jordan_block_power(lam, m, k)
                scale = max(np.abs(P).max(), 1.0)
                jordan_err = max(jordan_err, np.abs(Jk - P).max() / scale)
                P = P @ J

    print(f"\ncriterion 5: agree={agree} disagree={disagree} "
          f"oracle_undetermined={undetermined} jordan_rel_err={jordan_err:.3e}")
    assert agree + undetermined == 100 and disagree == 0
    assert agree >= 60          # the oracle must settle most draws
    assert jordan_err < 1e-9


def test_criterion_6_nonempty_limit_sets_and_closed_linear_basins():
    family = random_linear_family(100, seed=42)
    checked = skipped = 0
    for A, xi in family:
        oracle = growth_oracle(A, xi)
        if oracle == "undetermined":
            skipped += 1
            continue
        nonempty = omega_nonempty_linear(LinearSystem(A), xi)
        assert nonempty == (oracle != "unbounded"), (A, xi, oracle)
        checked += 1

    witness_counts = []
    targets = [
        LinearSystem(np.diag([0.5, 0.5]), name="contraction").as_map(),
        LinearSystem(np.diag([0.5, 2.0]), name="saddle").as_map(),
        LinearSystem(0.9 * np.array([[np.cos(1.0), np.sin(1.0)],
                                     [-np.sin(1.0), np.cos(1.0)]]),
                     name="stable-focus").as_map(),
    ]
    region = DomainRegion.box([[-2.0, 2.0], [-2.0, 2.0]])
    for g in targets:
        catalog, _ = catalog_from_seeds(g, [[0.0, 0.0]])
        for resolution in (101, 401):
            basins = compute_basins(g, catalog, region=region,
                                    resolution=resolution, threads=4)
            witnesses = basin_closedness_witness(g, basins)
            witness_counts.append(len(witnesses))

    print(f"\ncriterion 6: boundedness_checked={checked} skipped={skipped} "
          f"witness_counts={witness_counts}")
    assert checked + skipped == 100 and checked >= 60
    assert witness_counts == [0] * 6


def test_criterion_7_limit_sets_push_forward_along_every_chart():
    cases = {
        "mobius": [(-4.0,), (-1.5,), (-0.5,), (0.0,), (0.5,)],
        "mobius-inverse": [(-0.5,), (0.0,), (0.5,), (2.0,), (10.0,)],
        "cot-map": [(0.3,), (0.9,), (1.5,), (2.2,), (2.9,)],
        "rotation-scaling": [(2.0, 0.0), (0.5, 0.5), (-1.5, 0.25),
                             (3.0, 1.0), (0.1, -0.2)],
        "scalar-linear": [(1.0,), (-2.0,), (0.25,), (5.0,), (-0.1,)],
        "jordan": [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -0.5)],
    }
    params = {"jordan": {"lam": 0.5, "m": 2}}
    worst_one_sided = worst_full = 0.0
    for name, seeds in cases.items():
        f = get_system(name, **params.get(name, {}))
        ent = exact_immersion(name, 0, **params.get(name, {}))
        for seed in seeds:
            rep = pushforward_check(ent.immersion, f, ent.target, list(seed))
            worst_one_sided = max(worst_one_sided, rep.one_sided_omega)
            worst_full = max(worst_full, rep.hausdorff_omega)
            assert rep.one_sided_omega < 1e-4, (name, seed, rep.one_sided_omega)
            assert rep.omega_source.converged
            assert np.isfinite(rep.omega_source.diameter)
            assert rep.hausdorff_omega < 1e-2, (name, seed, rep.hausdorff_omega)

    print(f"\ncriterion 7: 30 chart/seed pairs, worst one-sided "
          f"{worst_one_sided:.3e}, worst full {worst_full:.3e}")


def test_criterion_8_dictionary_obstruction_regression():
    t0 = time.perf_counter()
    pinned = json.loads(FIXTURE.read_text())

    f = get_system("cot-map")
    catalog, _ = catalog_from_seeds(f, L.default_seeds("cot-map"))
    report = obstruction_sweep(f, catalog,
                               specs=[("fourier", o) for o in (0, 1, 2, 3)],
                               ridges=(0.0, 1e-8, 1e-4), seed=42)
    rows = [r.to_dict() for r in report.rows]

    assert len(rows) == len(pinned["sweep"]["rows"])
    for got, want in zip(rows, pinned["sweep"]["rows"]):
        assert got["dict_size"] == want["dict_size"]
        assert got["ridge"] == want["ridge"]
        assert got["error"] == want["error"]
        for key in ("residual_heldout", "collapse_ratio", "min_sep_ratio"):
            assert got[key] == pytest.approx(want[key], rel=1e-6, abs=1e-9), \
                (key, got, want)

    fitting = [r for r in rows if r["residual_heldout"] is not None]
    qualifying = [r for r in fitting if r["residual_heldout"] < 1e-6]
    violations = [r for r in qualifying if not r["collapse_ratio"] < 0.05]

    region = DomainRegion.interval(-0.9, 0.5)
    mob = get_system("mobius")
    lift = fit_lift(mob, build_dictionary("rational-pole", 1, 3),
                    region=region, seed=42)
    heldout = region.sample(1000, np.random.default_rng(43))
    ctl = conjugacy_residual(lift.as_immersion(), mob, lift.lifted_map(), heldout)
    ctl_inj = injectivity_probe(lift.as_immersion(), heldout)
    elapsed = time.perf_counter() - t0

    print(f"\ncriterion 8: rows={len(rows)} fit<1e-6: {len(qualifying)} "
          f"(all collapse<0.05: {not violations}) control residual="
          f"{ctl.max_residual:.3e} collisions={ctl_inj.n_collisions} "
          f"time={elapsed:.1f}s")
    assert qualifying, "no dictionary fit below 1e-6 — the check is vacuous"
    assert not violations, f"accurate dictionaries without collapse: {violations}"
    assert ctl.max_residual < 1e-9
    assert ctl_inj.n_collisions == 0
    assert pinned["control"]["heldout_max"] < 1e-9
    assert pinned["control"]["n_collisions"] == 0
    assert elapsed < 120.0


def test_criterion_9_demo_determinism(tmp_path):
    exe = shutil.which("limitlab")
    base = [exe] if exe else [sys.executable, "-m", "limitlab.cli"]

    def run_demo(out: Path, threads: int) -> dict:
        out.mkdir()
        proc = subprocess.run(
            base + ["demo", "--seed", "42", "--threads", str(threads),
                    "--out", str(out)],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_demo(tmp_path / "run1", 1)
    second = run_demo(tmp_path / "run2", 1)
    threaded = run_demo(tmp_path / "run8", 8)

    assert first.keys() == second.keys() == threaded.keys()
    mismatched = [n for n in first
                  if first[n] != second[n] or first[n] != threaded[n]]
    print(f"\ncriterion 9: {len(first)} artifacts, byte-identical across "
          f"reruns and thread counts (mismatched: {mismatched})")
    assert not mismatched
