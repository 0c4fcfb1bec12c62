"""The ``limitlab`` command line.

Subcommands map one-to-one onto the library surface: ``simulate`` (orbits),
``limits`` (limit-set catalogs), ``basins`` (grid labeling + closedness
witnesses), ``verify`` (exact-immersion diagnostics), ``learn``/``sweep``
(dictionary lifts and the residual/collapse/injectivity trade-off), ``demo``
(four deterministic worked examples), and ``report`` (render saved artifacts
into text tables, whitespace point files, and basin rasters). This module
parses and checks the arguments, names the files and prints; the steps and
report builders it calls live in :mod:`limitlab.runs`.

Exit codes: 0 on success, 2 for usage/parameter problems, 3 when the requested
mathematics fails (domain violations, unconverged estimates, singular
regressions, ...). Failures print a single JSON line to stderr so scripts can
parse them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import config, runs, serialize
from .catalog import default_seeds, exact_immersion, get_system
from .dynamics import DomainRegion, iterate, write_trajectory_csv
from .errors import (DomainError, InvalidParamError, LimitLabError,
                     MissingArtifactError, UnknownSystemError)
from .lifting import build_dictionary, fit_lift, obstruction_sweep
from .limits import EstimatorConfig, catalog_from_seeds, catalog_to_dict

_USAGE_ERRORS = (UnknownSystemError, InvalidParamError)

_DEFAULT_BOX_HALF = 2.0


# -- small parsing helpers -----------------------------------------------------

def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(serialize._coerce(payload), sort_keys=True), file=sys.stderr)


def _parse_params(pairs, flag: str, names=None) -> dict:
    """Numbers from repeated ``flag NAME=VALUE`` items. When ``names`` is
    given, a name outside it is rejected."""
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InvalidParamError(f"{flag} expects name=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if names is not None and key not in names:
            raise InvalidParamError(
                f"{flag}: unknown name {key!r} (known: {', '.join(sorted(names)) or 'none'})")
        try:
            out[key] = int(raw) if raw.lstrip("+-").isdigit() else float(raw)
        except ValueError:
            raise InvalidParamError(f"could not parse {flag} value {raw!r}") from None
    return out


def _parse_domain(spec: str, dim: int, excluded=None, eps_excl=config.EPS_EXCL) -> DomainRegion:
    axes = []
    for part in spec.split(";"):
        nums = [_number("--domain", v) for v in part.split(",") if v.strip()]
        if len(nums) != 2 or not nums[0] < nums[1]:
            raise InvalidParamError(
                f"--domain axis {part!r} must be 'lo,hi' with lo < hi")
        axes.append(nums)
    if len(axes) != dim:
        raise InvalidParamError(
            f"--domain has {len(axes)} axis spec(s) but the system is {dim}-dimensional")
    if dim == 1:
        return DomainRegion.interval(axes[0][0], axes[0][1], excluded, eps_excl)
    return DomainRegion.box(axes, excluded, eps_excl)


def _parse_points(flag: str, spec: str, dim: int) -> list[np.ndarray]:
    points = []
    for part in spec.split(";"):
        nums = [_number(flag, v) for v in part.split(",") if v.strip()]
        if len(nums) != dim:
            raise InvalidParamError(
                f"{flag} point {part!r} has {len(nums)} coordinate(s), expected {dim}")
        points.append(np.asarray(nums, dtype=float))
    return points


def _at_least(low: int, args, *flags, at_most: float = math.inf) -> None:
    """Reject a count option below ``low`` or above ``at_most``, naming it."""
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        if value < low:
            raise InvalidParamError(f"--{flag} must be >= {low}, got {value}")
        if value > at_most:
            raise InvalidParamError(f"--{flag} must be <= {at_most}, got {value}")


def _number(flag: str, raw: str) -> float:
    """One value of the number option ``flag``, parsed as a float."""
    try:
        return float(raw)
    except ValueError:
        raise InvalidParamError(f"{flag}: {raw!r} is not a number") from None


def _finite(flag: str, value: float, nonnegative: bool = True) -> float:
    """``value`` of the number option ``flag``. NaN, infinity and, when
    ``nonnegative``, a value below 0 are rejected, naming the option."""
    if not math.isfinite(value) or (nonnegative and value < 0):
        rule = "finite and >= 0" if nonnegative else "finite"
        raise InvalidParamError(f"{flag} must be {rule}, got {value}")
    return value


def _seed(value, source: str) -> int:
    """``value``, read from ``source``, as a seed: an integer at least 0.
    Anything else is a usage error that names the source."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise InvalidParamError(f"{source} must be an integer >= 0, got {value!r}")
    return seed


def _seed_option(raw: str) -> int:
    """The type of ``--seed``: :func:`_seed`, showing a value that reads as
    an integer as that integer."""
    try:
        raw = int(raw)
    except ValueError:
        pass
    return _seed(raw, "--seed")


# The type of each --set setting, by name: the fields of runs.Settings.
_SET_KINDS = {f.name: type(f.default) for f in dataclasses.fields(runs.Settings)}
_ESTIMATOR = tuple(f.name for f in dataclasses.fields(EstimatorConfig))


def _settings(args, names) -> runs.Settings:
    """The settings of a run: the ``--set`` values for ``names`` as their
    field's type, over the ``runs.Settings`` defaults. Any other ``--set``
    name, a value the type does not hold exactly (``burn=2.5``,
    ``tol_fp=nan``) and a value the code that reads it rejects are usage
    errors, raised here, before the run steps an orbit or writes a file."""
    sets = _parse_params(args.set, "--set", names)
    for name, value in sets.items():
        kind = _SET_KINDS[name]
        try:
            exact = kind(value) == value
        except (ValueError, OverflowError):     # int(nan), int(inf)
            exact = False
        if not exact:
            raise InvalidParamError(f"--set {name}={value!r} is not a valid {kind.__name__}")
        sets[name] = kind(value)
    return runs.Settings(**sets)


def _region(args, system) -> tuple[DomainRegion, Optional[list]]:
    """The region a run works on, and the box to sample it within when it has
    no finite box of its own: ``--domain``, else the system's domain, sampled
    within ``[-2, 2]`` per axis when it is unbounded."""
    if args.domain is not None:
        return _parse_domain(args.domain, system.dim), None
    region = system.domain
    if region.has_finite_box():
        return region, None
    return region, [[-_DEFAULT_BOX_HALF, _DEFAULT_BOX_HALF]] * system.dim


def _catalog(args, system, sets: runs.Settings, region=None, box=None):
    """The catalog a run works against, from ``--auto-seeds`` points drawn in
    the region (``sweep`` only), the ``--seeds`` list, or the system's default
    seeds. Returns ``(catalog, skipped)`` as :func:`catalog_from_seeds` does."""
    if getattr(args, "auto_seeds", 0):
        rng = np.random.default_rng(args.seed)
        seeds = list(region.sample(args.auto_seeds, rng, box=box))
    elif args.seeds is not None:
        seeds = _parse_points("--seeds", args.seeds, system.dim)
    else:
        seeds = default_seeds(args.system)
    return catalog_from_seeds(system, seeds, sets, sets.tol_cluster)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _table(header, rows) -> str:
    cells = [list(map(str, header))] + [[_fmt(v) for v in r] for r in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    lines = ["  ".join(row[c].ljust(widths[c]) for c in range(len(header))).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _eigenvalue(re: float, im: float) -> str:
    return f"{re:.6g}{im:+.6g}j" if im else f"{re:.6g}"


def _leading_eigenvalues(pairs) -> str:
    """The first six of a lift's ``[re, im]`` eigenvalue pairs."""
    return ", ".join(_eigenvalue(re, im) for re, im in pairs[:6])


def _ratio(v) -> str:
    """A separation ratio, or ``n/a`` when no sample pair was separated."""
    return "n/a" if v is None else f"{v:.3e}"


# -- subcommands ------------------------------------------------------------------

def _stepped_system(args):
    """The named system and the one a ``simulate`` or ``limits`` run steps:
    reversed under ``--backward``, then restricted to ``--domain``. The region
    keeps the excluded points and ``eps_excl`` of the direction that runs."""
    system = get_system(args.system, **_parse_params(args.param, "--param"))
    run = system.reversed() if args.backward else system
    if args.domain is not None:
        own = run.domain
        run = run.restrict(_parse_domain(args.domain, run.dim, own.excluded, own.eps_excl))
    return system, run


def cmd_simulate(args) -> int:
    system, system_run = _stepped_system(args)
    sets = _settings(args, ("r_div",))
    x0 = _parse_points("--x0", args.x0, system.dim)[0]
    traj = iterate(system_run, x0, args.steps, r_div=sets.r_div)
    out = _out_dir(args)
    path = out / "trajectory.csv"
    write_trajectory_csv(traj, path)
    last = ",".join(repr(float(v)) for v in traj.last)
    print(f"system={system.name} direction={'backward' if args.backward else 'forward'} "
          f"steps={traj.steps_taken} termination={traj.termination} last={last}")
    print(f"wrote {path}")
    return 0


def cmd_limits(args) -> int:
    system = _stepped_system(args)[1]
    sets = _settings(args, _ESTIMATOR + ("tol_cluster",))
    catalog, skipped = _catalog(args, system, sets)

    out = _out_dir(args)
    path = out / "catalog.json"
    serialize.dump(catalog_to_dict(catalog), path)

    rows = [(m.label, m.shape, m.period if m.period is not None else "-",
             m.diameter, m.n_estimates, m.resolution)
            for m in catalog.members]
    print(_table(["label", "shape", "period", "diameter", "estimates", "resolution"], rows))
    for seed, status in skipped:
        print(f"skipped seed {','.join(repr(float(v)) for v in seed)}: {status}")
    print(f"wrote {path}")
    return 0


def cmd_basins(args) -> int:
    _at_least(1, args, "resolution")
    _at_least(1, args, "threads", at_most=config.MAX_THREADS)
    system = get_system(args.system, **_parse_params(args.param, "--param"))
    sets = _settings(args, tuple(_SET_KINDS))
    region, box = _region(args, system)
    if box is not None:
        raise InvalidParamError(
            f"{system.name} lives on an unbounded domain; pass --domain to pick "
            "the grid window")

    catalog, skipped = _catalog(args, system, sets)
    out = _out_dir(args)
    summary, witnesses = runs.basins_step(system, catalog, region, args.resolution,
                                          args.threads, sets, out, "basins")

    print(_table(["label", "nodes"], sorted(summary["counts"].items())))
    for w in witnesses:
        pt = ",".join(repr(float(v)) for v in w.limit_point)
        print(f"witness: basin of {w.sequence_label} is not closed — points "
              f"arbitrarily close to ({pt}) settle on {w.sequence_label}, "
              f"the point itself settles on {w.limit_label}")
    for seed, status in skipped:
        print(f"skipped seed {','.join(repr(float(v)) for v in seed)}: {status}")
    print(f"wrote {out / 'basins.csv'}")
    print(f"wrote {out / 'basins.json'}")
    return 0


def cmd_verify(args) -> int:
    _finite("--tol", args.tol)
    params = _parse_params(args.param, "--param")
    system = get_system(args.system, **params)
    pair = exact_immersion(args.system, variant=args.variant, **params)
    F, target = pair.immersion, pair.target
    sets = _settings(args, _ESTIMATOR)

    region, box = _region(args, system)
    if box is not None:
        region = DomainRegion.box(box)
    samples = runs.survey_samples(region, args.seed)
    if args.domain is not None:
        # the user is claiming the immersion works on this whole region —
        # every grid node must be usable, endpoints included
        try:
            for x in samples:
                F(x)
                y = system.domain.violation(x)
                if y is not None:
                    raise DomainError(x, y, detail=system.name)
        except DomainError as exc:
            point = [float(v) for v in np.atleast_1d(exc.point)]
            _emit_error("immersion-undefined", str(exc),
                        system=args.system, immersion=F.name, reason=exc.reason,
                        immersion_undefined_at=point[0] if len(point) == 1 else point,
                        point=point)
            return 3

    xi = None
    if args.x0 is not None:
        xi = _parse_points("--x0", args.x0, system.dim)[0]
    else:
        for cand in default_seeds(args.system):
            if region.contains(cand) and F.domain.contains(cand) \
                    and system.domain.contains(cand):
                xi = cand
                break
    path = _out_dir(args) / "verify.json"
    report, conj, push, inj = runs.verify_step(system, pair, samples, xi, args.seed,
                                               sets, args.tol, path)

    print(f"immersion {F.name} -> {target.name}")
    print(f"conjugacy: max residual {conj.max_residual:.3e} over "
          f"{conj.samples_used} samples ({conj.samples_skipped} outside the domain)")
    if push:
        print(f"pushforward: hausdorff(omega image, target omega) = "
              f"{push.hausdorff_omega:.3e}; alpha: {push.alpha_status}"
              + (f", hausdorff {push.hausdorff_alpha:.3e}"
                 if push.hausdorff_alpha is not None else ""))
    print(f"injectivity: {inj.n_collisions} collision(s) over "
          f"{inj.pairs_checked} pairs; worst separation ratio {_ratio(inj.min_separation_ratio)}")
    print(f"status: {report['status']}")
    print(f"wrote {path}")
    if report["status"] != "ok":
        _emit_error("verification-failed",
                    f"max residual {conj.max_residual!r} exceeds tol {args.tol!r} "
                    f"or collisions found", system=args.system)
        return 3
    return 0


def cmd_learn(args) -> int:
    _finite("--ridge", args.ridge)
    _finite("--pole", args.pole, nonnegative=False)
    params = _parse_params(args.param, "--param")
    system = get_system(args.system, **params)
    _settings(args, ())         # a lift fit reads no --set name
    region, box = _region(args, system)

    dictionary = build_dictionary(args.dict, system.dim, args.order, pole=args.pole)
    lift = fit_lift(system, dictionary, region=region, ridge=args.ridge,
                    seed=args.seed, box=box)

    out = _out_dir(args)
    lift_doc = runs.learned_lift(system, dictionary, lift)
    fit_path = out / "fit.json"
    serialize.dump(lift_doc["fit"], fit_path)
    lift_path = out / "lift.json"
    serialize.dump(lift_doc, lift_path)

    print(f"dictionary {dictionary.kind} size {dictionary.size} "
          f"({lift.report.method}, ridge {args.ridge:g})")
    print(f"train rms residual {lift.report.rms_residual:.3e}, "
          f"gram condition {lift.report.gram_condition:.3e}")
    print(f"leading eigenvalues: {_leading_eigenvalues(lift_doc['eigenvalues'])}")
    print(f"wrote {fit_path}")
    print(f"wrote {lift_path}")
    return 0


def _parse_dict_specs(spec: str) -> list[tuple[str, int]]:
    out = []
    for part in spec.split(","):
        if ":" not in part:
            raise InvalidParamError(f"--dicts expects kind:order items, got {part!r}")
        kind, order = part.rsplit(":", 1)
        try:
            out.append((kind.strip(), int(order)))
        except ValueError:
            raise InvalidParamError(f"bad dictionary order in {part!r}") from None
    return out


def cmd_sweep(args) -> int:
    _at_least(0, args, "auto-seeds")
    _finite("--pole", args.pole, nonnegative=False)
    ridges = ([_finite("--ridges", _number("--ridges", r)) for r in args.ridges.split(",")]
              if args.ridges is not None else [0.0])
    params = _parse_params(args.param, "--param")
    system = get_system(args.system, **params)
    sets = _settings(args, _ESTIMATOR + ("tol_cluster",))
    region, box = _region(args, system)
    if args.dicts is not None:
        specs = _parse_dict_specs(args.dicts)
    elif system.dim == 1:
        specs = [("monomial", 1), ("monomial", 2), ("monomial", 3), ("monomial", 4),
                 ("fourier", 2), ("rational-pole", 1)]
    else:
        specs = [("monomial", 1), ("monomial", 2), ("monomial", 3)]
    catalog, _skipped = _catalog(args, system, sets, region, box)

    report = obstruction_sweep(system, catalog, specs, ridges=ridges,
                               region=region, seed=args.seed, pole=args.pole, box=box)
    out = _out_dir(args)
    csv_path = out / "sweep.csv"
    report.write_csv(csv_path)
    json_path = out / "sweep.json"
    data = report.to_dict()
    serialize.dump(data, json_path)

    _render_sweep(data)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_demo(args) -> int:
    _at_least(1, args, "threads", at_most=config.MAX_THREADS)
    sets = _settings(args, tuple(_SET_KINDS))     # the demo reads every setting
    out = _out_dir(args)
    examples = []
    steps = runs.demo_examples(out, args.seed, args.threads, sets)
    for i, step in enumerate(steps, 1):
        result = step()
        examples.append(result)
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in result["metrics"].items()
                         if not isinstance(v, (list, dict)))
        print(f"[{i}/{len(steps)}] {result['name']}: {result['status']} ({keys})")
    path = out / "demo-summary.json"
    serialize.dump(runs.demo_summary(args.seed, examples), path)
    print(f"wrote {path}")
    return 0


# -- report rendering ----------------------------------------------------------

_PALETTE = [(31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
            (148, 103, 189), (140, 86, 75), (227, 119, 194), (23, 190, 207)]
_SPECIAL_COLORS = {"undetermined": (160, 160, 160), "singular": (0, 0, 0),
                   "escaped": (255, 255, 255)}


def _render_catalog(data: dict, stem: str, out: Path) -> list[str]:
    rows = [(m["label"], m["shape"],
             m["period"] if m["period"] is not None else "-",
             m["diameter"], m["n_estimates"]) for m in data["members"]]
    print(_table(["label", "shape", "period", "diameter", "estimates"], rows))
    written = []
    for m in data["members"]:
        path = out / f"{stem}.{m['label']}.xy"
        lines = [" ".join(repr(float(v)) for v in p)
                 for p in m["representative_points"]]
        path.write_text("\n".join(lines) + "\n")
        written.append(str(path))
    return written


def _render_sweep(data: dict) -> None:
    rows = [(r["dict_kind"], r["dict_size"], r["ridge"], r["residual_heldout"],
             r["collapse_ratio"], r["min_sep_ratio"], (r["error"] or "")[:48])
            for r in data["rows"]]
    print(_table(["dict", "size", "ridge", "residual", "collapse", "min-sep", "note"],
                 rows))


def _render_verify(data: dict) -> None:
    conj = data["conjugacy"]
    print(f"{data['system']} via {data['immersion']}: status {data['status']}")
    print(f"  max residual {conj['max_residual']:.3e} "
          f"({conj['samples_used']} samples)")
    push = data.get("pushforward")
    if push:
        print(f"  hausdorff omega {push['hausdorff_omega']:.3e}, "
              f"alpha {push['alpha_status']}")
    inj = data["injectivity"]
    print(f"  collisions {inj.get('n_collisions', len(inj['collisions']))}, "
          f"min separation ratio {_ratio(inj['min_separation_ratio'])}")


def _render_spectral(data: dict) -> None:
    rows = [(_eigenvalue(*ev["value"]),
             ev["alg_mult"], ev["geo_mult"], ev["abs_class"], ev["split_class"])
            for ev in data["eigenvalues"]]
    print(_table(["eigenvalue", "alg", "geo", "band", "subspace"], rows))
    d = data["dims"]
    print(f"subspace dims: stable {d[0]}, unit {d[1]}, unstable {d[2]}")


def _render_basin_csv(path: Path, out: Path) -> list[str]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    dims = len(header) - 1
    if dims not in (1, 2):
        return []
    idx = []
    labels = []
    for line in lines[1:]:
        parts = line.split(",")
        idx.append(tuple(int(v) for v in parts[:dims]))
        labels.append(parts[dims])
    shape = tuple(max(i[a] for i in idx) + 1 for a in range(dims))
    member_labels = sorted({l for l in labels if l not in _SPECIAL_COLORS})
    color_of = {l: _PALETTE[i % len(_PALETTE)] for i, l in enumerate(member_labels)}
    color_of.update(_SPECIAL_COLORS)

    if dims == 1:
        width, height = shape[0], 1
        grid = {(0, i[0]): l for i, l in zip(idx, labels)}
    else:
        height, width = shape
        grid = {(i[0], i[1]): l for i, l in zip(idx, labels)}
    body = []
    for r in range(height):
        row = []
        for c in range(width):
            row.append(" ".join(str(v) for v in color_of[grid[(r, c)]]))
        body.append("  ".join(row))
    ppm = out / (path.stem + ".ppm")
    ppm.write_text(f"P3\n{width} {height}\n255\n" + "\n".join(body) + "\n")
    counts = {}
    for l in labels:
        counts[l] = counts.get(l, 0) + 1
    print(_table(["label", "nodes"], sorted(counts.items())))
    return [str(ppm)]


def cmd_report(args) -> int:
    src = Path(args.dir)
    out = Path(args.out) if args.out != "." else src / "render"
    out.mkdir(parents=True, exist_ok=True)
    rendered = []

    for path in sorted(src.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if not isinstance(data, dict):
            continue
        kind = data.get("kind")
        if kind is None:
            continue
        print(f"== {path.name} ==")
        if kind == "limit-set-catalog":
            rendered += _render_catalog(data, path.stem, out)
        elif kind == "tradeoff-report":
            _render_sweep(data)
        elif kind == "verify-report":
            _render_verify(data)
        elif kind == "spectral-split":
            _render_spectral(data)
        elif kind == "demo-summary":
            for ex in data["examples"]:
                print(f"  {ex['name']}: {ex['status']}")
        elif kind == "basin-summary":
            print(_table(["label", "nodes"], sorted(data["counts"].items())))
            for w in data.get("witnesses", []):
                print(f"  witness: {w['boundary_label']} not closed at "
                      f"{w['limit_point']} (limit settles on {w['limit_label']})")
        elif kind == "consistency-report":
            print(f"  consistent: {data['consistent']} ({data['detail']})")
        elif kind == "pushforward-report":
            print(f"  hausdorff omega {data['hausdorff_omega']:.3e} "
                  f"(one-sided {data['one_sided_omega']:.3e}), "
                  f"alpha {data['alpha_status']}")
        elif kind == "fit-report":
            print(f"  rms residual {data['rms_residual']:.3e}, gram condition "
                  f"{data['gram_condition']:.3e}, {data['method']}")
        elif kind == "learned-lift":
            print(f"  {data['dict_kind']} lift of {data['system']}: "
                  f"eigenvalues {_leading_eigenvalues(data['eigenvalues'])}")
        else:
            print(f"  (no renderer for kind {kind!r})")
        rendered.append(str(path))
        print()

    for path in sorted(src.glob("*.csv")):
        with open(path) as fh:
            first = fh.readline().strip()
        if first.startswith("i,") and first.endswith(",label"):
            print(f"== {path.name} ==")
            rendered += _render_basin_csv(path, out)
            print()

    if not rendered:
        raise MissingArtifactError(f"no renderable artifacts under {src}")
    print(f"rendered {len(rendered)} artifact(s); derived files in {out}")
    return 0


# -- argument wiring -----------------------------------------------------------

def _add_common(p, system: bool = True) -> None:
    if system:
        p.add_argument("--system", required=True,
                       help="catalog system name (see README for the list)")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="system parameter override (repeatable)")
        p.add_argument("--domain", metavar="LO,HI[;LO,HI...]",
                       help="restrict/select the working region (use --domain=-1,1 "
                            "for negative bounds)")
    p.add_argument("--out", default=".", help="directory for written artifacts")
    p.add_argument("--seed", type=_seed_option, default=None,
                   help="random seed (default: $LIMITLAB_SEED or 42)")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="override a tolerance/iteration setting (repeatable)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (a malformed value, a missing or
    unknown option) raise :class:`InvalidParamError`, so that ``main``
    reports them as every other usage error."""

    def error(self, message):
        raise InvalidParamError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="limitlab",
        description="limit sets, basins, and linear-representation diagnostics "
                    "for discrete-time systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="iterate an orbit and write it as CSV")
    _add_common(p)
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--backward", action="store_true",
                   help="iterate the inverse map instead")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("limits", help="estimate and catalog limit sets from seeds")
    _add_common(p)
    p.add_argument("--seeds", help="semicolon-separated seed states")
    p.add_argument("--backward", action="store_true",
                   help="catalog backward-time limit sets")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("basins", help="label a grid by settled limit set")
    _add_common(p)
    p.add_argument("--seeds", help="semicolon-separated seed states for the catalog")
    p.add_argument("--resolution", type=int, default=101,
                   help="grid nodes per axis (endpoints included)")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_basins)

    p = sub.add_parser("verify", help="check a catalogued exact immersion")
    _add_common(p)
    p.add_argument("--variant", type=int, default=0,
                   help="which catalogued immersion to check")
    p.add_argument("--x0", help="state for the limit-set pushforward check")
    p.add_argument("--tol", type=float, default=config.VERIFY_TOL,
                   help="max conjugacy residual to count as ok")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("learn", help="fit a dictionary lift by least squares")
    _add_common(p)
    p.add_argument("--dict", default="monomial",
                   choices=["monomial", "fourier", "rational-pole"])
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--pole", type=float, default=1.0,
                   help="pole location for rational-pole dictionaries")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("sweep", help="dictionary trade-off sweep against a catalog")
    _add_common(p)
    p.add_argument("--dicts", help="comma-separated kind:order specs")
    p.add_argument("--ridges", help="comma-separated ridge values (default 0)")
    p.add_argument("--seeds", help="semicolon-separated catalog seed states")
    p.add_argument("--auto-seeds", type=int, default=0,
                   help="draw this many catalog seeds uniformly from the region")
    p.add_argument("--pole", type=float, default=1.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="run the four worked examples deterministically")
    _add_common(p, system=False)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("report", help="render saved artifacts to text/xy/ppm")
    p.add_argument("--dir", default=".", help="directory holding artifacts")
    p.add_argument("--out", default=".",
                   help="directory for derived files (default: DIR/render)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "seed" in vars(args) and args.seed is None:
            args.seed = _seed(os.environ.get("LIMITLAB_SEED") or config.DEFAULT_SEED,
                              "LIMITLAB_SEED")
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _emit_error("usage", str(exc))
        return 2
    except DomainError as exc:
        _emit_error("domain-error", str(exc), reason=exc.reason,
                    point=[float(v) for v in np.atleast_1d(exc.point)])
        return 3
    except LimitLabError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
