"""Run steps and report builders: what a subcommand or the demo composes from
checked settings; the command line only parses, prints and names the files.
Library calls go through their modules (``limits.compute_basins``), so a
wrapper set on a module attribute, as perfbench's tracer sets, sees each one."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import catalog as systems, config, immersion, lifting, limits, linear, serialize
from .dynamics import DomainRegion, _grid_nodes
from .errors import DomainError

_SURVEY_RANDOM = 512        # random draws added to a survey grid


class Settings(NamedTuple):
    """What a run passes on to the library, one field per reader."""

    estimator: limits.EstimatorConfig   # also holds simulate's r_div
    tol_cluster: float
    basin: limits.BasinConfig
    witness: dict                       # basin_closedness_witness's depth and max_pairs


def survey_samples(region: DomainRegion, seed: int) -> np.ndarray:
    """The grid nodes inside ``region``, then 512 uniform draws from it."""
    per_axis = 129 if region.dim == 1 else 17
    grid = _grid_nodes(region.grid(per_axis))
    grid = grid[region.contains_batch(grid)]
    rng = np.random.default_rng(seed)
    rand = region.sample(_SURVEY_RANDOM, rng)
    return np.vstack([grid, rand])


def basins_step(system, catalog, region, resolution: int, threads: int,
                sets: Settings, out: Path, stem: str):
    """Label the grid, search it for closedness witnesses, and write
    ``stem.csv`` and ``stem.json``. Returns the summary and the witnesses."""
    basins = limits.compute_basins(system, catalog, region=region, resolution=resolution,
                                   cfg=sets.basin, threads=threads)
    witnesses = limits.basin_closedness_witness(system, basins, sets.estimator, **sets.witness)
    limits.write_basin_csv(basins, out / f"{stem}.csv")
    labels, counts = np.unique(basins.codes, return_counts=True)
    summary = {
        "schema_version": 1, "kind": "basin-summary", "system": system.name,
        "resolution": [int(r) for r in basins.resolution],
        "counts": {basins.label_of_code(int(c)): int(n) for c, n in zip(labels, counts)},
        "params": basins.params,
        "witnesses": [{
            "boundary_label": w.sequence_label, "limit_label": w.limit_label,
            "limit_point": [float(v) for v in w.limit_point],
        } for w in witnesses],
    }
    serialize.dump(summary, out / f"{stem}.json")
    return summary, witnesses


def verify_step(system, pair, samples, xi, seed: int, cfg: limits.EstimatorConfig,
                tol: float, path: Path):
    """Check the chart ``pair`` on ``samples`` (and its limit-set pushforward
    from ``xi`` unless that is None) and write the ``verify-report`` to
    ``path``: ``ok`` if no residual exceeds ``tol`` and no sample pair
    collides, else ``failed``. Returns the report and the three results."""
    F, target = pair.immersion, pair.target
    conj = immersion.conjugacy_residual(F, system, target, samples)
    push = None if xi is None else immersion.pushforward_check(F, system, target, xi, cfg)
    inj = immersion.injectivity_probe(F, samples)
    report = {
        "schema_version": 1, "kind": "verify-report", "system": system.name,
        "immersion": F.name, "seed": seed,
        "status": "ok" if conj.max_residual <= tol and inj.n_collisions == 0 else "failed",
        "conjugacy": conj.to_dict(),
        "pushforward": push.to_dict() if push else None,
        "injectivity": inj.to_dict(),
    }
    serialize.dump(report, path)
    return report, conj, push, inj


def learned_lift(system, dictionary, lift) -> dict:
    """The ``learned-lift`` report of a fitted lift, its fit report under ``fit``."""
    K = lift.K
    return {
        "schema_version": 1, "kind": "learned-lift", "system": system.name,
        "dict_kind": dictionary.kind, "labels": list(dictionary.labels),
        "K": {"shape": [int(K.shape[0]), int(K.shape[1])],
              "data_colmajor": [float(v) for v in K.flatten(order="F")]},
        "eigenvalues": [[float(ev.real), float(ev.imag)] for ev in lift.eigenvalues],
        "fit": lift.report.to_dict(),
    }


# -- the demo ---------------------------------------------------------------------

def _demo_catalog(name: str, sets: Settings):
    system = systems.get_system(name)
    catalog, _ = limits.catalog_from_seeds(system, systems.default_seeds(name),
                                           sets.estimator, sets.tol_cluster)
    return system, catalog


def _demo_mobius(out: Path, seed: int, threads: int, sets: Settings, f,
                 catalog) -> dict:
    serialize.dump(limits.catalog_to_dict(catalog), out / "mobius-catalog.json")

    region = DomainRegion.interval(-2.0, 2.0)
    _, witnesses = basins_step(f, catalog, region, 401, threads, sets, out,
                               "mobius-basins")
    report, conj, push, _ = verify_step(
        f, systems.exact_immersion("mobius"), survey_samples(region, seed), [0.0], seed,
        sets.estimator, config.VERIFY_TOL, out / "mobius-verify.json")

    return {
        "name": "rational-fixed-points", "status": report["status"],
        "metrics": {
            "members": len(catalog), "witnesses": len(witnesses),
            "max_residual": conj.max_residual,
            "hausdorff_omega": push.hausdorff_omega,
            "alpha_status": push.alpha_status,
        },
    }


def _demo_cot(out: Path, seed: int, sets: Settings) -> dict:
    f = systems.get_system("cot-map")
    report, conj, push, _ = verify_step(
        f, systems.exact_immersion("cot-map"), survey_samples(f.domain, seed), [1.0], seed,
        sets.estimator, config.VERIFY_TOL, out / "cot-verify.json")
    consistency = immersion.omega_alpha_consistency(f, [2.0], sets.estimator)
    serialize.dump(consistency.to_dict(), out / "cot-consistency.json")
    return {
        "name": "half-angle-conjugacy", "status": report["status"],
        "metrics": {
            "max_residual": conj.max_residual,
            "hausdorff_omega": push.hausdorff_omega,
            "forward_backward_consistent": consistency.consistent,
            "consistency_detail": consistency.detail,
        },
    }


def _demo_rotation(out: Path, seed: int, sets: Settings) -> dict:
    f, catalog = _demo_catalog("rotation-scaling", sets)
    serialize.dump(limits.catalog_to_dict(catalog), out / "rotation-catalog.json")

    pair = systems.exact_immersion("rotation-scaling")
    collapse_error = None
    try:
        immersion.collapse_report(pair.immersion, catalog, seed=seed)
    except DomainError as exc:
        # expected: the fixed point at the origin is outside the immersion's
        # domain, so its limit set cannot even be carried over
        collapse_error = {"reason": exc.reason,
                          "point": [float(v) for v in np.atleast_1d(exc.point)]}

    push = immersion.pushforward_check(pair.immersion, f, pair.target, [2.0, 0.0], sets.estimator)

    A = np.zeros((3, 3))
    c, s = math.cos(1.0), math.sin(1.0)
    A[:2, :2] = [[c, s], [-s, c]]
    A[2, 2] = 0.5
    target = linear.LinearSystem(A, name="rotation-block")
    split = linear.spectral_split(target)
    serialize.dump(linear.spectral_split_to_dict(split), out / "rotation-spectral.json")
    basis = np.hstack([split.stable_basis, split.unit_basis])
    bound = linear.stability_bound(target, basis)

    serialize.dump(push.to_dict() | {"collapse_error": collapse_error},
                   out / "rotation-pushforward.json")

    status = "ok" if collapse_error else "unexpected"
    return {
        "name": "circle-collapse-obstruction", "status": status,
        "metrics": {
            "members": len(catalog),
            "collapse_domain_failure": collapse_error,
            "one_sided_omega": push.one_sided_omega,
            "alpha_status": push.alpha_status,
            "spectral_dims": list(split.dims),
            "stability_bound": bound,
        },
    }


def _demo_sweep(out: Path, seed: int, f, catalog) -> dict:
    region = DomainRegion.interval(-1.2, 1.2)
    specs = [("monomial", 1), ("monomial", 2), ("monomial", 4),
             ("fourier", 2), ("rational-pole", 1)]
    report = lifting.obstruction_sweep(f, catalog, specs, ridges=(0.0,), region=region,
                                       seed=seed)
    report.write_csv(out / "mobius-sweep.csv")
    serialize.dump(report.to_dict(), out / "mobius-sweep.json")

    lift = lifting.fit_lift(f, lifting.build_dictionary("rational-pole", 1, 1),
                            region=region, seed=seed)
    ok_rows = [r for r in report.rows if r.residual_heldout is not None]
    best = min(ok_rows, key=lambda r: r.residual_heldout)
    return {
        "name": "dictionary-tradeoff", "status": "ok",
        "metrics": {
            "rows": len(report.rows),
            "best_dict": best.dict_kind,
            "best_residual": best.residual_heldout,
            "rational_pole_eigenvalues": [
                [float(e.real), float(e.imag)] for e in lift.eigenvalues],
        },
    }


def demo_examples(out: Path, seed: int, threads: int, sets: Settings) -> list:
    """The four worked examples, as calls that each run one, write its files
    under ``out`` and return its entry of the demo summary. The first and the
    last share the mobius catalog, built here once."""
    mobius = _demo_catalog("mobius", sets)
    return [
        lambda: _demo_mobius(out, seed, threads, sets, *mobius),
        lambda: _demo_cot(out, seed, sets),
        lambda: _demo_rotation(out, seed, sets),
        lambda: _demo_sweep(out, seed, *mobius),
    ]


def demo_summary(seed: int, examples: list) -> dict:
    """The ``demo-summary`` report of the examples' entries."""
    return {"schema_version": 1, "kind": "demo-summary", "seed": seed,
            "examples": examples}
