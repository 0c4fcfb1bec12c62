"""Run steps and report builders: what a subcommand or the demo composes from
one checked :class:`limits.Settings`, handed whole to every library call that
reads a setting; the command line only parses, prints and names the files.
Library calls go through their modules (``limits.compute_basins``), so a
wrapper set on a module attribute, as perfbench's tracer sets, sees each one."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import catalog as systems, config, immersion, lifting, limits, linear, serialize
from .dynamics import DomainRegion
from .errors import DomainError

_SURVEY_RANDOM = 512        # random draws added to a survey grid


def survey_samples(region: DomainRegion, seed: int) -> np.ndarray:
    """The region's survey (:meth:`DomainRegion.survey`): the nodes of a grid
    of 129 per axis in 1-d, 17 in 2-d, and above that the most per axis whose
    grid holds at most 17**2 nodes (6 in 3-d, 4 in 4-d), then 512 uniform
    draws. A grid of 17 per axis in 4-d would hold 83,521 nodes, and the
    injectivity probe keeps every pair distance of them."""
    d = region.dim
    per_axis = 129 if d == 1 else max(n for n in range(1, 18) if n ** d <= 17 ** 2)
    return region.survey(per_axis, _SURVEY_RANDOM, seed)


def basins_step(system, catalog, region, resolution: int, threads: int,
                sets: limits.Settings, out: Path, stem: str):
    """Label the grid, search it for closedness witnesses, and write
    ``stem.csv`` and ``stem.json``. Returns the written summary and the witnesses."""
    basins = limits.compute_basins(system, catalog, region=region, resolution=resolution,
                                   cfg=sets, threads=threads)
    witnesses = limits.basin_closedness_witness(system, basins, sets)
    limits.write_basin_csv(basins, out / f"{stem}.csv")
    labels, counts = np.unique(basins.codes, return_counts=True)
    summary = {
        "schema_version": 1, "kind": "basin-summary", "system": system.name,
        "resolution": basins.resolution,
        "counts": dict(zip(map(basins.label_of_code, labels), counts)),
        "params": basins.params,
        "witnesses": [{"boundary_label": w.sequence_label, "limit_label": w.limit_label,
                       "limit_point": w.limit_point} for w in witnesses],
    }
    return serialize.dump(summary, out / f"{stem}.json"), witnesses


def verify_step(system, pair, samples, xi, seed: int, cfg: limits.Settings,
                tol: float, path: Path):
    """Check the chart ``pair`` on ``samples`` (and its limit-set pushforward
    from ``xi`` unless that is None) and write the ``verify-report`` to
    ``path``: ``ok`` if no residual exceeds ``tol`` and no sample pair
    collides, else ``failed``. Returns the written report and the three results."""
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
    return serialize.dump(report, path), conj, push, inj


def learned_lift(system, dictionary, lift) -> dict:
    """The ``learned-lift`` report of a fitted lift, its fit report under ``fit``."""
    return serialize._coerce({
        "schema_version": 1, "kind": "learned-lift", "system": system.name,
        "dict_kind": dictionary.kind, "labels": dictionary.labels,
        "K": linear._colmajor(lift.K),
        "eigenvalues": [[ev.real, ev.imag] for ev in lift.eigenvalues],
        "fit": lift.report.to_dict(),
    })


# -- the demo ---------------------------------------------------------------------

def _demo_catalog(name: str, sets: limits.Settings):
    system = systems.get_system(name)
    catalog, _ = limits.catalog_from_seeds(system, systems.default_seeds(name), sets)
    return system, catalog


def _demo_mobius(out: Path, seed: int, threads: int, sets: limits.Settings, f,
                 catalog) -> dict:
    serialize.dump(limits.catalog_to_dict(catalog), out / "mobius-catalog.json")

    region = DomainRegion.interval(-2.0, 2.0)
    _, witnesses = basins_step(f, catalog, region, 401, threads, sets, out,
                               "mobius-basins")
    report, conj, push, _ = verify_step(
        f, systems.exact_immersion("mobius"), survey_samples(region, seed), [0.0], seed,
        sets, config.VERIFY_TOL, out / "mobius-verify.json")

    return {
        "name": "rational-fixed-points", "status": report["status"],
        "metrics": {
            "members": len(catalog), "witnesses": len(witnesses),
            "max_residual": conj.max_residual,
            "hausdorff_omega": push.hausdorff_omega,
            "alpha_status": push.alpha_status,
        },
    }


def _demo_cot(out: Path, seed: int, sets: limits.Settings) -> dict:
    f = systems.get_system("cot-map")
    report, conj, push, _ = verify_step(
        f, systems.exact_immersion("cot-map"), survey_samples(f.domain, seed), [1.0], seed,
        sets, config.VERIFY_TOL, out / "cot-verify.json")
    consistency = immersion.omega_alpha_consistency(f, [2.0], sets)
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


def _demo_rotation(out: Path, seed: int, sets: limits.Settings) -> dict:
    f, catalog = _demo_catalog("rotation-scaling", sets)
    serialize.dump(limits.catalog_to_dict(catalog), out / "rotation-catalog.json")

    pair = systems.exact_immersion("rotation-scaling")
    collapse_error = None
    try:
        immersion.collapse_report(pair.immersion, catalog, seed=seed)
    except DomainError as exc:
        # expected: the fixed point at the origin is outside the immersion's
        # domain, so its limit set cannot even be carried over
        collapse_error = {"reason": exc.reason, "point": np.atleast_1d(exc.point)}

    push = immersion.pushforward_check(pair.immersion, f, pair.target, [2.0, 0.0], sets)

    target = systems.rotation_block(1.0)
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
            "spectral_dims": split.dims,
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
            "rational_pole_eigenvalues": [[e.real, e.imag] for e in lift.eigenvalues],
        },
    }


def demo(out: Path, seed: int, threads: int, sets: limits.Settings) -> dict:
    """Run the four worked examples, each writing its files under ``out``, and
    return the ``demo-summary`` report of their entries. The first and the
    last share the mobius catalog, built here once."""
    mobius = _demo_catalog("mobius", sets)
    examples = [_demo_mobius(out, seed, threads, sets, *mobius), _demo_cot(out, seed, sets),
                _demo_rotation(out, seed, sets), _demo_sweep(out, seed, *mobius)]
    return {"schema_version": 1, "kind": "demo-summary", "seed": seed,
            "examples": examples}
