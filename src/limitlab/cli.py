"""The ``limitlab`` command line.

Subcommands map one-to-one onto the library surface: ``simulate`` (orbits),
``limits`` (limit-set catalogs), ``basins`` (grid labeling + closedness
witnesses), ``verify`` (exact-immersion diagnostics), ``learn``/``sweep``
(dictionary lifts and the residual/collapse/injectivity trade-off), ``demo``
(four deterministic worked examples), and ``report`` (render saved artifacts
into text tables, whitespace point files, and basin rasters). This module
parses and checks the arguments, names the files and prints; the steps and
report builders it calls live in :mod:`limitlab.runs`.

Each report kind has one renderer, looked up by kind in ``_RENDERERS``. A
subcommand prints each report it names in a ``wrote`` line through it, from
the document ``serialize.dump`` returned, the values the file holds, and
``report`` renders the saved file through it, so the two print the same
lines. Every subcommand but ``report`` prints through ``_print_run``: the
renders, then the skipped seeds, then the ``wrote`` lines. Before them only
what no report holds is printed: ``simulate``'s orbit summary and
``verify``'s chart target.

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
from .limits import Settings, catalog_from_seeds, catalog_to_dict

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


# every --set name, and the names the limit-set estimator reads
_ALL_SETTINGS = tuple(f.name for f in dataclasses.fields(Settings))
_ESTIMATOR = ("burn", "tail", "max_rounds", "tol_settle", "gap_factor", "tol_fp",
              "max_period", "r_div")


def _settings(args, names) -> Settings:
    """The settings of a run: the ``--set`` values for ``names`` over the
    ``Settings`` defaults. Any other ``--set`` name, and a value
    ``Settings`` rejects (``burn=2.5``, ``tol_fp=nan``, ``r_div=0``), are
    usage errors, raised here, before the run steps an orbit or writes a
    file."""
    return Settings(**_parse_params(args.set, "--set", names))


def _region(args, system) -> tuple[DomainRegion, Optional[list]]:
    """The region a run works on, and the box to sample it within when it has
    no finite box of its own: ``--domain``, else the system's domain, sampled
    within ``[-2, 2]`` per axis when it is unbounded. A ``--domain`` with an
    infinite bound, or a width past the float range, is a usage error: these
    runs grid or sample the region."""
    if args.domain is not None:
        region = _parse_domain(args.domain, system.dim)
        if not region.has_finite_box():
            need = ("widths within the float range" if np.isfinite(region.bounds).all()
                    else "finite bounds")
            raise InvalidParamError(f"--domain must have {need} for "
                                    f"{args.command}, got {args.domain!r}")
        return region, None
    region = system.domain
    if region.has_finite_box():
        return region, None
    return region, [[-_DEFAULT_BOX_HALF, _DEFAULT_BOX_HALF]] * system.dim


def _catalog(args, system, sets: Settings, region=None, box=None):
    """The catalog a run works against, from ``--auto-seeds`` points drawn in
    the region (``sweep`` only), the ``--seeds`` list, or the system's default
    seeds at its ``--param`` values. Returns ``(catalog, skipped)`` as
    :func:`catalog_from_seeds` does."""
    if getattr(args, "auto_seeds", 0):
        rng = np.random.default_rng(args.seed)
        seeds = list(region.sample(args.auto_seeds, rng, box=box))
    elif args.seeds is not None:
        seeds = _parse_points("--seeds", args.seeds, system.dim)
    else:
        seeds = default_seeds(args.system, **_parse_params(args.param, "--param"))
    return catalog_from_seeds(system, seeds, sets)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_run(docs, paths, skipped=()) -> None:
    """What a run prints: the render of each report in ``docs``, a line for
    each catalog seed in ``skipped`` that gave no estimate and why, then a
    ``wrote`` line for each file in ``paths``."""
    for doc in docs:
        print(_render(doc))
    for seed, status in skipped:
        print(f"skipped seed {','.join(repr(float(v)) for v in seed)}: {status}")
    for path in paths:
        print(f"wrote {path}")


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
    _at_least(0, args, "steps")
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
    _print_run((), [path])
    return 0


def cmd_limits(args) -> int:
    system = _stepped_system(args)[1]
    sets = _settings(args, _ESTIMATOR + ("tol_cluster",))
    catalog, skipped = _catalog(args, system, sets)

    path = _out_dir(args) / "catalog.json"
    doc = serialize.dump(catalog_to_dict(catalog), path)

    _print_run([doc], [path], skipped)
    return 0


def cmd_basins(args) -> int:
    _at_least(1, args, "resolution")
    _at_least(1, args, "threads", at_most=config.MAX_THREADS)
    system = get_system(args.system, **_parse_params(args.param, "--param"))
    sets = _settings(args, _ALL_SETTINGS)
    region, box = _region(args, system)
    if box is not None:
        raise InvalidParamError(
            f"{system.name} lives on an unbounded domain; pass --domain to pick "
            "the grid window")

    catalog, skipped = _catalog(args, system, sets)
    out = _out_dir(args)
    summary, _ = runs.basins_step(system, catalog, region, args.resolution,
                                  args.threads, sets, out, "basins")

    _print_run([summary], [out / "basins.csv", out / "basins.json"], skipped)
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
            point = np.atleast_1d(exc.point)
            _emit_error("immersion-undefined", str(exc),
                        system=args.system, immersion=F.name, reason=exc.reason,
                        immersion_undefined_at=point[0] if len(point) == 1 else point,
                        point=point)
            return 3

    xi = None
    if args.x0 is not None:
        xi = _parse_points("--x0", args.x0, system.dim)[0]
    else:
        for cand in default_seeds(args.system, **params):
            if region.contains(cand) and F.domain.contains(cand) \
                    and system.domain.contains(cand):
                xi = cand
                break
    path = _out_dir(args) / "verify.json"
    report, conj, _, _ = runs.verify_step(system, pair, samples, xi, args.seed,
                                          sets, args.tol, path)

    print(f"immersion {F.name} -> {target.name}")     # the report names no target
    _print_run([report], [path])
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
    fit_path, lift_path = out / "fit.json", out / "lift.json"
    fit_doc = serialize.dump(lift_doc["fit"], fit_path)
    lift_doc = serialize.dump(lift_doc, lift_path)

    _print_run([fit_doc, lift_doc], [fit_path, lift_path])
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
    catalog, skipped = _catalog(args, system, sets, region, box)

    report = obstruction_sweep(system, catalog, specs, ridges=ridges,
                               region=region, seed=args.seed, pole=args.pole, box=box)
    out = _out_dir(args)
    csv_path = out / "sweep.csv"
    report.write_csv(csv_path)
    json_path = out / "sweep.json"
    data = serialize.dump(report.to_dict(), json_path)

    _print_run([data], [csv_path, json_path], skipped)
    return 0


def cmd_demo(args) -> int:
    _at_least(1, args, "threads", at_most=config.MAX_THREADS)
    sets = _settings(args, _ALL_SETTINGS)     # the demo reads every setting
    out = _out_dir(args)
    path = out / "demo-summary.json"
    summary = serialize.dump(runs.demo(out, args.seed, args.threads, sets), path)
    _print_run([summary], [path])
    return 0


# -- report rendering ----------------------------------------------------------
# One renderer per report kind: it takes the report dict and returns the text
# it prints as. The subcommand that writes a report and ``report`` both print
# it through _render, so the two read the same.

def _render_catalog(data: dict) -> str:
    rows = [(m["label"], m["shape"], m["period"], m["diameter"], m["n_estimates"],
             m["resolution"]) for m in data["members"]]
    return _table(["label", "shape", "period", "diameter", "estimates", "resolution"], rows)


def _render_basins(data: dict) -> str:
    lines = [_table(["label", "nodes"], sorted(data["counts"].items()))]
    for w in data["witnesses"]:
        near, point = w["boundary_label"], ",".join(repr(float(v)) for v in w["limit_point"])
        lines.append(f"witness: basin of {near} is not closed — points arbitrarily close "
                     f"to ({point}) settle on {near}, the point itself settles on "
                     f"{w['limit_label']}")
    return "\n".join(lines)


def _render_pushforward(data: dict) -> str:
    alpha = data["hausdorff_alpha"]
    return (f"pushforward: hausdorff(omega image, target omega) = "
            f"{data['hausdorff_omega']:.3e} (one-sided {data['one_sided_omega']:.3e}); "
            f"alpha: {data['alpha_status']}"
            + ("" if alpha is None else f", hausdorff {alpha:.3e}"))


def _render_verify(data: dict) -> str:
    conj, push, inj = data["conjugacy"], data["pushforward"], data["injectivity"]
    ratio = inj["min_separation_ratio"]
    lines = [f"{data['system']} via {data['immersion']}",
             f"conjugacy: max residual {conj['max_residual']:.3e} over "
             f"{conj['samples_used']} samples ({conj['samples_skipped']} outside the domain)"]
    if push:
        lines.append(_render_pushforward(push))
    lines += [f"injectivity: {inj['n_collisions']} collision(s) over {inj['pairs_checked']} "
              f"pairs; min separation ratio {'n/a' if ratio is None else f'{ratio:.3e}'}",
              f"status: {data['status']}"]
    return "\n".join(lines)


def _render_fit(data: dict) -> str:
    return (f"rms residual {data['rms_residual']:.3e} over {data['samples_used']} samples, "
            f"gram condition {data['gram_condition']:.3e} "
            f"({data['method']}, ridge {data['ridge']:g})")


def _eigenvalue(re: float, im: float) -> str:
    return f"{re:.6g}{im:+.6g}j" if im else f"{re:.6g}"


def _render_lift(data: dict) -> str:
    leading = ", ".join(_eigenvalue(re, im) for re, im in data["eigenvalues"][:6])
    return f"{data['dict_kind']} lift of {data['system']}: eigenvalues {leading}"


def _render_sweep(data: dict) -> str:
    rows = [(r["dict_kind"], r["dict_size"], r["ridge"], r["residual_heldout"],
             r["collapse_ratio"], r["min_sep_ratio"], (r["error"] or "")[:48])
            for r in data["rows"]]
    return _table(["dict", "size", "ridge", "residual", "collapse", "min-sep", "note"], rows)


def _render_spectral(data: dict) -> str:
    rows = [(_eigenvalue(*ev["value"]), ev["alg_mult"], ev["geo_mult"], ev["abs_class"],
             ev["split_class"]) for ev in data["eigenvalues"]]
    d = data["dims"]
    return (_table(["eigenvalue", "alg", "geo", "band", "subspace"], rows)
            + f"\nsubspace dims: stable {d[0]}, unit {d[1]}, unstable {d[2]}")


def _render_demo(data: dict) -> str:
    examples = data["examples"]
    lines = []
    for i, ex in enumerate(examples, 1):
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(ex["metrics"].items())
                         if not isinstance(v, (list, dict)))
        lines.append(f"[{i}/{len(examples)}] {ex['name']}: {ex['status']} ({keys})")
    return "\n".join(lines)


_RENDERERS = {
    "basin-summary": _render_basins,
    "consistency-report": lambda data: f"consistent: {data['consistent']} ({data['detail']})",
    "demo-summary": _render_demo,
    "fit-report": _render_fit,
    "learned-lift": _render_lift,
    "limit-set-catalog": _render_catalog,
    "pushforward-report": _render_pushforward,
    "spectral-split": _render_spectral,
    "tradeoff-report": _render_sweep,
    "verify-report": _render_verify,
}


def _render(data: dict) -> str:
    """The text of the report ``data``, by the renderer of its kind."""
    renderer = _RENDERERS.get(data["kind"])
    return renderer(data) if renderer else f"(no renderer for kind {data['kind']!r})"


def _saved_report(path: Path) -> Optional[dict]:
    """The report a JSON file holds: an object with a ``kind``, else None."""
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return data if isinstance(data, dict) and data.get("kind") is not None else None


def _basin_dims(path: Path) -> int:
    """The grid dimension of a basin CSV (header ``i,...,label``, then a row
    per node), else 0."""
    with open(path) as fh:
        header, node = fh.readline().strip(), fh.readline().strip()
    is_basin = node and header.startswith("i,") and header.endswith(",label")
    return header.count(",") if is_basin else 0


def _write_xy(data: dict, stem: str, out: Path) -> None:
    """Each catalog member's representative points, one a line, as
    ``out/<stem>.<label>.xy``."""
    for m in data["members"]:
        lines = [" ".join(repr(float(v)) for v in p) for p in m["representative_points"]]
        (out / f"{stem}.{m['label']}.xy").write_text("\n".join(lines) + "\n")


_PALETTE = [(31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
            (148, 103, 189), (140, 86, 75), (227, 119, 194), (23, 190, 207)]
_SPECIAL_COLORS = {"undetermined": (160, 160, 160), "singular": (0, 0, 0),
                   "escaped": (255, 255, 255)}


def _write_raster(path: Path, out: Path) -> str:
    """The 1-d or 2-d basin CSV ``path`` as ``out/<stem>.ppm``, a pixel per node.
    Its rows are the nodes in row-major order, as ``limits.write_basin_csv``
    writes them, so the last row's last index, plus one, is the width."""
    rows = path.read_text().strip().split("\n")[1:]
    labels = [row.rsplit(",", 1)[1] for row in rows]
    width = int(rows[-1].split(",")[-2]) + 1
    height = len(labels) // width
    members = sorted(set(labels) - _SPECIAL_COLORS.keys())
    color_of = {l: _PALETTE[i % len(_PALETTE)] for i, l in enumerate(members)}
    color_of.update(_SPECIAL_COLORS)
    pixel = {l: " ".join(map(str, c)) for l, c in color_of.items()}
    body = ["  ".join(pixel[l] for l in labels[r * width:(r + 1) * width])
            for r in range(height)]
    ppm = out / (path.stem + ".ppm")
    ppm.write_text(f"P3\n{width} {height}\n255\n" + "\n".join(body) + "\n")
    return f"raster {width}x{height}: {ppm}"


def cmd_report(args) -> int:
    src = Path(args.dir)
    out = src / "render" if args.out is None else Path(args.out)
    reports = [(path, data) for path in sorted(src.glob("*.json"))
               if (data := _saved_report(path)) is not None]
    rasters = [path for path in sorted(src.glob("*.csv")) if _basin_dims(path) in (1, 2)]
    if not reports and not rasters:
        raise MissingArtifactError(f"no renderable artifacts under {src}")
    out.mkdir(parents=True, exist_ok=True)

    for path, data in reports:
        print(f"== {path.name} ==\n{_render(data)}\n")
        if data["kind"] == "limit-set-catalog":
            _write_xy(data, path.stem, out)
    for path in rasters:
        print(f"== {path.name} ==\n{_write_raster(path, out)}\n")
    print(f"rendered {len(reports) + len(rasters)} artifact(s); derived files in {out}")
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
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", help="semicolon-separated catalog seed states")
    seeds.add_argument("--auto-seeds", type=int, default=0,
                       help="draw this many catalog seeds uniformly from the region")
    p.add_argument("--pole", type=float, default=1.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="run the four worked examples deterministically")
    _add_common(p, system=False)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("report", help="print saved reports as their subcommands do; "
                                      "write .xy/.ppm files")
    p.add_argument("--dir", default=".", help="directory holding artifacts")
    p.add_argument("--out", help="directory for derived files (default: DIR/render)")
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
                    point=np.atleast_1d(exc.point))
        return 3
    except LimitLabError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
