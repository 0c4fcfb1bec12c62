"""The benchmark's workloads: jobs whose inputs are made from a seed, and the
checks on what each job writes.

A job is one ``limitlab`` command line. Every input it receives (seed lists
and ``--seed``) is drawn here from the workload seed; the program gets only
the generated values. Within a workload the amount of work per job does not
depend on the seed (the number of seeds of each kind is fixed, only their
positions move), so runs with different seeds measure the same work.

Expected facts come from the mathematics of the catalogued systems, checked
against the program at the commit that introduced the benchmark: basin label
counts and witnesses, catalog member shapes, periods and estimate counts,
skipped-seed statuses. Sweep rows have no closed form; they are pinned in
``pinned.json`` (written by ``pin.py``) for each ``--seed`` a sweep job can
be given. Numeric values are compared with the acceptance gate's tolerance
(``rel=1e-6, abs=1e-9``, as ``pytest.approx``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = Path(__file__).with_name("pinned.json")

REL, ABS = 1e-6, 1e-9

SWEEP_SEEDS = tuple(range(40, 56))
SWEEP_RIDGES = "0,1e-8,1e-4"
DICTS_1D = ("monomial:1,monomial:2,monomial:3,monomial:4,monomial:6,"
            "fourier:0,fourier:1,fourier:2,fourier:3,fourier:4,"
            "rational-pole:1,rational-pole:2,rational-pole:3")
DICTS_2D = ("monomial:1,monomial:2,monomial:3,monomial:4,monomial:5,"
            "fourier:1,rational-pole:1")
SWEEPS = {  # job name -> command line without --seed/--out
    "cot-map": ("sweep", "--system", "cot-map", "--dicts", DICTS_1D,
                "--ridges", SWEEP_RIDGES),
    "mobius": ("sweep", "--system", "mobius", "--domain=-0.9,0.5", "--dicts", DICTS_1D,
               "--ridges", SWEEP_RIDGES),
    "rotation-scaling": ("sweep", "--system", "rotation-scaling", "--dicts", DICTS_2D,
                         "--ridges", SWEEP_RIDGES),
}

@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]     # without --out
    items: int                # grid nodes, seeds or sweep rows
    check: Callable[[Path, str], list]   # (output dir, captured stdout) -> problems


def close(got, want) -> bool:
    """``got == pytest.approx(want, rel=REL, abs=ABS)``; ``None`` only equals ``None``."""
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= max(REL * abs(want), ABS)


def fmt_points(points) -> str:
    return ";".join(",".join(repr(float(v)) for v in np.atleast_1d(p)) for p in points)


def _job_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# -- reading artifacts -------------------------------------------------------------

def _report(path: Path, kind: str, problems: list):
    """Load a JSON artifact and validate it against its bundled schema."""
    import jsonschema
    from limitlab import serialize

    if not path.exists():
        problems.append(f"{path.name}: missing")
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        problems.append(f"{path.name}: not JSON: {exc}")
        return None
    if data.get("kind") != kind:
        problems.append(f"{path.name}: kind {data.get('kind')!r}, expected {kind!r}")
        return None
    try:
        serialize.validate(data, kind)
    except (jsonschema.ValidationError, jsonschema.SchemaError) as exc:
        problems.append(f"{path.name}: schema {kind}: {str(exc).splitlines()[0]}")
        return None
    return data


def _csv_rows(path: Path, problems: list) -> list[list[str]]:
    if not path.exists():
        problems.append(f"{path.name}: missing")
        return []
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


# -- basins ----------------------------------------------------------------------

def check_basins(out: Path, stdout: str, *, resolution, counts, witnesses) -> list:
    """``counts``: expected node counts per label, as a multiset. ``witnesses``:
    ``(limit_point, count of the limit label, count of the boundary label)``."""
    problems: list = []
    summary = _report(out / "basins.json", "basin-summary", problems)
    if summary is None:
        return problems
    if summary["resolution"] != list(resolution):
        problems.append(f"resolution {summary['resolution']} != {list(resolution)}")
    got = summary["counts"]
    if sorted(got.values()) != sorted(counts):
        problems.append(f"label counts {sorted(got.values())} != {sorted(counts)}")

    rows = _csv_rows(out / "basins.csv", problems)
    if rows:
        tally = Counter(r[-1] for r in rows[1:])
        if dict(tally) != got:
            problems.append(f"basins.csv labels {dict(tally)} disagree with basins.json {got}")

    found = summary["witnesses"]
    if len(found) != len(witnesses):
        problems.append(f"{len(found)} witnesses, expected {len(witnesses)}")
    for w, (point, limit_count, boundary_count) in zip(found, witnesses):
        if not all(close(a, b) for a, b in zip(w["limit_point"], point)):
            problems.append(f"witness limit point {w['limit_point']} != {point}")
        if (got.get(w["limit_label"]), got.get(w["boundary_label"])) != (limit_count, boundary_count):
            problems.append(f"witness labels {w['limit_label']}/{w['boundary_label']} "
                            f"do not have counts {limit_count}/{boundary_count}")
    return problems


def basins_grid(rng) -> list[Job]:
    """Both jobs put their time in ``compute_basins``: the rotation grid in the
    batched map kernel, settle bookkeeping and the witness search; the Jordan
    grid in KD queries against a fixed-point member of near-identical points."""
    angle = rng.uniform(0.0, 2.0 * np.pi, 3)
    radius = rng.uniform(0.25, 2.0, 3)
    rot_seeds = [(0.0, 0.0)] + list(zip(radius * np.cos(angle), radius * np.sin(angle)))
    jordan_seeds = rng.uniform(0.2, 1.0, (3, 2)) * rng.choice([-1.0, 1.0], (3, 2))
    return [
        Job("rotation-scaling-201",
            ("basins", "--system", "rotation-scaling", "--domain=-2,2;-2,2",
             "--resolution", "201", f"--seeds={fmt_points(rot_seeds)}",
             "--seed", _job_seed(rng)),
            201 * 201,
            # every node but the origin settles on the unit circle; the
            # origin's basin is a single node, which makes the circle's basin
            # not closed
            lambda out, stdout: check_basins(
                out, stdout, resolution=(201, 201), counts=[1, 201 * 201 - 1],
                witnesses=[((0.0, 0.0), 1, 201 * 201 - 1)])),
        Job("jordan-101",
            ("basins", "--system", "jordan", "--param", "lam=0.9", "--domain=-1,1;-1,1",
             "--resolution", "101", f"--seeds={fmt_points(jordan_seeds)}",
             "--seed", _job_seed(rng)),
            101 * 101,
            # a linear contraction: every node settles on the origin
            lambda out, stdout: check_basins(
                out, stdout, resolution=(101, 101), counts=[101 * 101], witnesses=[])),
    ]


# -- limit-set catalogs ------------------------------------------------------------

def check_catalog(out: Path, stdout: str, *, members, skipped, numeric=None) -> list:
    """``members``: ``(shape, period, n_estimates)`` multiset. ``skipped``:
    statuses of skipped seeds, as counts. ``numeric(members) -> problems``."""
    problems: list = []
    catalog = _report(out / "catalog.json", "limit-set-catalog", problems)
    if catalog is None:
        return problems
    got = sorted((m["shape"], m["period"] or 0, m["n_estimates"]) for m in catalog["members"])
    want = sorted((s, p or 0, n) for s, p, n in members)
    if got != want:
        problems.append(f"members {got} != {want}")
    statuses = Counter(line.rsplit(": ", 1)[1] for line in stdout.splitlines()
                       if line.startswith("skipped seed "))
    if statuses != Counter(skipped):
        problems.append(f"skipped {dict(statuses)} != {dict(skipped)}")
    if numeric is not None and not problems:
        problems += numeric(catalog["members"])
    return problems


def _all_near(members, shape, value, target, what) -> list:
    """``value(points)`` is ``target`` for every point of every ``shape`` member."""
    bad = []
    for m in members:
        if m["shape"] != shape:
            continue
        values = value(np.asarray(m["representative_points"], dtype=float))
        if not all(close(float(v), target) for v in values):
            worst = float(np.max(np.abs(values - target)))
            bad.append(f"{m['label']}: {what} off by {worst:.3e}")
    return bad


def _norms(points):
    return np.linalg.norm(points, axis=1)


def _rotation_numeric(members) -> list:
    return (_all_near(members, "fixed-point", _norms, 0.0, "origin")
            + _all_near(members, "curve", _norms, 1.0, "unit circle"))


def _mobius_numeric(members) -> list:
    return _all_near(members, "fixed-point", lambda p: p[:, 0], -1.0, "fixed point -1")


def _negation_numeric(seeds):
    want = sorted(2.0 * abs(float(s)) for s in seeds)

    def numeric(members) -> list:
        got = sorted(m["diameter"] for m in members)
        bad = [(g, w) for g, w in zip(got, want) if not close(g, w)]
        return [f"period-2 orbit diameters differ from 2|x0|: {bad[:3]}"] if bad else []

    return numeric


def limits_seeds(rng) -> list[Job]:
    """Python-level orbit stepping, settle tests and clustering."""
    n = 47
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    radius = rng.uniform(0.1, 2.0, n)
    rot_seeds = list(zip(radius * np.cos(angle), radius * np.sin(angle))) + [(0.0, 0.0)]
    rng.shuffle(rot_seeds)

    # x < 1 falls to the attracting point -1; on [-5, 5], 1 < x climbs away
    # from the repelling point 1 and leaves over the pole at 3; 3 itself is
    # singular
    n_settle, n_escape = 30, 17
    mob_seeds = np.concatenate([rng.uniform(-4.5, 0.95, n_settle),
                                rng.uniform(1.05, 4.5, n_escape), [3.0]])
    rng.shuffle(mob_seeds)

    # every nonzero x0 is its own period-2 orbit {x0, -x0}; magnitudes are
    # 0.015 apart at least, far beyond the clustering tolerance
    m = 48
    neg_seeds = ((0.05 + 0.02 * np.arange(m) + rng.uniform(0.0, 0.005, m))
                 * rng.choice([-1.0, 1.0], m))
    rng.shuffle(neg_seeds)

    return [
        Job("rotation-scaling",
            ("limits", "--system", "rotation-scaling", f"--seeds={fmt_points(rot_seeds)}",
             "--seed", _job_seed(rng)),
            len(rot_seeds),
            lambda out, stdout: check_catalog(
                out, stdout, members=[("fixed-point", 1, 1), ("curve", None, n)],
                skipped={}, numeric=_rotation_numeric)),
        Job("mobius",
            ("limits", "--system", "mobius", "--domain=-5,5",
             f"--seeds={fmt_points(mob_seeds)}", "--seed", _job_seed(rng)),
            len(mob_seeds),
            lambda out, stdout: check_catalog(
                out, stdout, members=[("fixed-point", 1, n_settle)],
                skipped={"escaped": n_escape, "singular": 1}, numeric=_mobius_numeric)),
        Job("negation",
            ("limits", "--system", "negation", f"--seeds={fmt_points(neg_seeds)}",
             "--seed", _job_seed(rng)),
            m,
            lambda out, stdout: check_catalog(
                out, stdout, members=[("periodic-orbit", 2, 1)] * m, skipped={},
                numeric=_negation_numeric(neg_seeds))),
    ]


# -- dictionary sweeps ---------------------------------------------------------------

SWEEP_COLUMNS = ("residual_heldout", "collapse_ratio", "min_sep_ratio")


def sweep_facts(report: dict) -> list:
    """Per row: ``[kind, size, ridge, has_error, *numeric columns]``."""
    return [[r["dict_kind"], r["dict_size"], r["ridge"], r["error"] is not None]
            + [r[c] for c in SWEEP_COLUMNS] for r in report["rows"]]


def check_sweep(out: Path, stdout: str, *, pinned) -> list:
    problems: list = []
    report = _report(out / "sweep.json", "tradeoff-report", problems)
    if report is None:
        return problems
    got = sweep_facts(report)
    if len(got) != len(pinned):
        problems.append(f"{len(got)} sweep rows, pinned {len(pinned)}")
    for g, w in zip(got, pinned):
        if g[:4] != w[:4]:
            problems.append(f"row {g[:4]} != pinned {w[:4]}")
        elif not all(close(a, b) for a, b in zip(g[4:], w[4:])):
            problems.append(f"row {g[:4]} numbers {g[4:]} != pinned {w[4:]}")
    rows = _csv_rows(out / "sweep.csv", problems)
    if rows and len(rows) - 1 != len(got):
        problems.append(f"sweep.csv has {len(rows) - 1} rows, sweep.json {len(got)}")
    return problems


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def charts_sweep(rng) -> list[Job]:
    """Fits, residuals, collapse and injectivity probes on default-seed catalogs."""
    pinned = load_pinned()["sweep"]
    jobs = []
    for name, argv in SWEEPS.items():
        seed = str(int(rng.choice(SWEEP_SEEDS)))
        rows = pinned[name][seed]
        jobs.append(Job(name, argv + ("--seed", seed), len(rows),
                        lambda out, stdout, rows=rows: check_sweep(out, stdout, pinned=rows)))
    return jobs


WORKLOADS = {
    "basins-grid": basins_grid,
    "limits-seeds": limits_seeds,
    "charts-sweep": charts_sweep,
}


def build(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](np.random.default_rng(seed))
