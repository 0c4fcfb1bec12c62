#!/usr/bin/env python3
"""Regenerate the pinned regression fixtures under tests/fixtures/.

The obstruction-sweep acceptance test compares a fresh sweep against the
values pinned in ``obstruction_sweep.json``, and the basin-code test compares
fresh basin grids against the sha256 of their codes, their label counts and
their closedness witnesses in ``basin_codes.json``, so a genuine behaviour
change shows up as an explicit fixture diff instead of silent drift. Run
from the repository root after an intentional change, then review the diff:

    python3 tools/regenerate_fixtures.py

To confirm that a change leaves the fixtures alone, recompute them and compare
with the committed files at the acceptance gate's tolerance (rel 1e-6,
abs 1e-9), writing nothing; the exit status is 1 on any drift:

    python3 tools/regenerate_fixtures.py --check
"""

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the sources beside this script, not whatever limitlab is installed
sys.path.insert(0, str(ROOT / "src"))

from limitlab import (DomainRegion, basin_closedness_witness,  # noqa: E402
                      build_dictionary, catalog_from_seeds, compute_basins,
                      conjugacy_residual, default_seeds, fit_lift, get_system,
                      injectivity_probe, obstruction_sweep)
from limitlab.serialize import _coerce, dump, dumps  # noqa: E402

FIXTURE_DIR = ROOT / "tests" / "fixtures"

SWEEP_SEED = 42
SWEEP_RIDGES = (0.0, 1e-8, 1e-4)
# fourier orders 0..3 give dictionary sizes 1, 3, 5, 7 — every size such a
# dictionary can take below 8 features
SWEEP_ORDERS = (0, 1, 2, 3)

CONTROL_REGION = (-0.9, 0.5)
CONTROL_ORDER = 3
CONTROL_SAMPLES = 1000


def sweep_fixture() -> dict:
    system = get_system("cot-map")
    catalog, skipped = catalog_from_seeds(system, default_seeds("cot-map"))
    report = obstruction_sweep(system, catalog,
                               specs=[("fourier", o) for o in SWEEP_ORDERS],
                               ridges=SWEEP_RIDGES, seed=SWEEP_SEED)
    return {
        "system": "cot-map",
        "seed": SWEEP_SEED,
        "orders": list(SWEEP_ORDERS),
        "ridges": list(SWEEP_RIDGES),
        "catalog_members": len(catalog),
        "seeds_skipped": len(skipped),
        "rows": [r.to_dict() for r in report.rows],
    }


def control_fixture() -> dict:
    system = get_system("mobius")
    lo, hi = CONTROL_REGION
    region = DomainRegion.interval(lo, hi)
    dictionary = build_dictionary("rational-pole", 1, CONTROL_ORDER)
    lift = fit_lift(system, dictionary, region=region, seed=SWEEP_SEED)
    F = lift.as_immersion()
    g = lift.lifted_map()
    heldout = region.sample(CONTROL_SAMPLES, np.random.default_rng(SWEEP_SEED + 1))
    conj = conjugacy_residual(F, system, g, heldout)
    inj = injectivity_probe(F, heldout)
    eigs = lift.eigenvalues
    return {
        "system": "mobius",
        "region": list(CONTROL_REGION),
        "dictionary": ["rational-pole", CONTROL_ORDER],
        "seed": SWEEP_SEED,
        "n_heldout": CONTROL_SAMPLES,
        "train_rms": lift.report.rms_residual,
        "train_max": lift.report.max_residual,
        "heldout_max": conj.max_residual,
        "heldout_mean": conj.mean_residual,
        "n_collisions": inj.n_collisions,
        "min_sep_ratio": inj.min_separation_ratio,
        "eigenvalues_real": [float(e.real) for e in eigs],
        "eigenvalues_imag": [float(e.imag) for e in eigs],
    }


# basin grids pinned by their codes and closedness witnesses: system, its
# parameters, the grid's per-axis bounds (None: the system's own domain) and
# nodes per axis; each catalog comes from the system's default seeds
BASIN_GRIDS = (
    ("rotation-scaling", {}, [[-2.0, 2.0], [-2.0, 2.0]], 201),
    ("jordan", {"lam": 0.9}, [[-1.0, 1.0], [-1.0, 1.0]], 101),
    ("mobius", {}, [[-2.0, 2.0]], 401),
    ("cot-map", {}, None, 201),
)


def basin_codes_fixture() -> dict:
    grids = []
    for name, params, bounds, resolution in BASIN_GRIDS:
        system = get_system(name, **params)
        bounds = bounds or system.domain.bounds.tolist()
        catalog, _ = catalog_from_seeds(system, default_seeds(name))
        basins = compute_basins(system, catalog, region=DomainRegion.box(bounds),
                                resolution=resolution)
        codes, counts = np.unique(basins.codes, return_counts=True)
        grids.append({
            "system": name,
            "params": params,
            "region": bounds,
            "resolution": resolution,
            "sha256": hashlib.sha256(basins.codes.tobytes()).hexdigest(),
            "counts": {basins.label_of_code(int(c)): int(n) for c, n in zip(codes, counts)},
            "witnesses": [{"limit_point": w.limit_point.tolist(),
                           "boundary_label": w.sequence_label, "limit_label": w.limit_label}
                          for w in basin_closedness_witness(system, basins)],
        })
    return {"kind": "basin-codes-fixture", "schema_version": 1, "grids": grids}


# the acceptance gate compares pinned numbers at this tolerance
CHECK_REL = 1e-6
CHECK_ABS = 1e-9


def drift(got, want, path="$"):
    """Where ``got`` departs from ``want``: numbers at the gate's tolerance,
    everything else exactly. Yields one line per difference."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                yield f"{path}.{key}: present on one side only"
            else:
                yield from drift(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{path}: {len(got)} items, fixture has {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            yield from drift(g, w, f"{path}[{i}]")
    elif (isinstance(want, (int, float)) and isinstance(got, (int, float))
          and not isinstance(want, bool) and not isinstance(got, bool)):
        if abs(got - want) > max(CHECK_REL * abs(want), CHECK_ABS):
            yield f"{path}: {got!r}, fixture has {want!r}"
    elif got != want:
        yield f"{path}: {got!r}, fixture has {want!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixtures, write nothing, "
                             "exit 1 on drift")
    args = parser.parse_args(argv)
    sweep = {
        "kind": "sweep-regression-fixture",
        "schema_version": 1,
        "sweep": sweep_fixture(),
        "control": control_fixture(),
    }
    fixtures = {"obstruction_sweep.json": sweep, "basin_codes.json": basin_codes_fixture()}
    if args.check:
        drifted = False
        for name, payload in fixtures.items():
            out = FIXTURE_DIR / name
            # round-trip through JSON so both sides hold the same types
            got = json.loads(dumps(payload))
            diffs = list(drift(got, json.loads(out.read_text())))
            for line in diffs:
                print(f"drift: {line}")
            print(f"{out}: {'drifted' if diffs else 'matches the recomputed fixture'}")
            drifted |= bool(diffs)
        return 1 if drifted else 0
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in fixtures.items():
        dump(_coerce(payload), FIXTURE_DIR / name)
        print(f"wrote {FIXTURE_DIR / name}")
    for row in sweep["sweep"]["rows"]:
        print("  sweep row:", row)
    print("  control:", {k: sweep["control"][k]
                         for k in ("train_rms", "heldout_max", "n_collisions")})
    for grid in fixtures["basin_codes.json"]["grids"]:
        print(f"  basins {grid['system']}:", grid["counts"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
