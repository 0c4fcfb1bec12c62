"""Outside-in layer tracing for the limitlab benchmark.

The program itself carries no timers. This module wraps the public functions
of the traced limitlab modules from the outside: every namespace that binds a
function (``from .geometry import hausdorff`` copies the name into
``limitlab.limits``) gets the same wrapper, so a call is recorded whichever
module it goes through. Private names are never wrapped.

A span records its name, start, end and parent. Spans stay in flat arrays in
memory and are written out once, at the end of the run. A span's self time is
its duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict
from dataclasses import replace

import numpy as np

# Modules whose public functions are wrapped. ``linear`` (and with it the
# ``verify``/``demo`` paths) is not on the performance list and stays bare.
TRACED_MODULES = ("cli", "catalog", "dynamics", "geometry", "limits",
                  "immersion", "lifting", "serialize")


class Recorder:
    """In-memory span store. Records only while ``enabled`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self.enabled = False

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, measure: str, value) -> None:
        self.counts[(name, measure)] += value

    def call(self, name: str, fn, args, kwargs, measure=None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result unchanged."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(float("nan"))
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.add(name, "errors", 1)
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            for key, value in measure(args, kwargs, result):
                self.add(name, key, value)
        return result

    def arrays(self):
        """``(name_id, parent, start, end)`` as numpy arrays."""
        ints = f"i{self.name_id.itemsize}"
        return (np.frombuffer(self.name_id, dtype=ints),
                np.frombuffer(self.parent, dtype=ints),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def write(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Per-span self time: its duration minus the durations of its direct children."""
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    has = parent >= 0
    children = np.bincount(parent[has], weights=duration[has], minlength=len(duration))
    return duration - children


def wrap(rec: Recorder, name: str, fn, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, measure)
    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


# -- what each layer counts ------------------------------------------------------

def _rows(x) -> int:
    return 1 if np.ndim(x) <= 1 else int(np.shape(x)[0])


def _forward_rows(args, kwargs, result):
    yield "rows", _rows(args[0])


def _iterate_steps(args, kwargs, result):
    yield "steps", result.steps_taken


def _one_row(args, kwargs, result):
    yield "rows", 1


def _domain_rows(args, kwargs, result):
    # bound methods of DomainRegion: args[0] is the region
    yield "rows", _rows(args[1])


def _pair_points(args, kwargs, result):
    yield "points", len(np.atleast_1d(args[0])) + len(np.atleast_1d(args[1]))


def _cloud_points(args, kwargs, result):
    yield "points", len(np.atleast_1d(args[0]))


def _omega_converged(args, kwargs, result):
    yield "converged", int(result.converged)


def _cluster_members(args, kwargs, result):
    yield "members", len(result)


def _basin_nodes(args, kwargs, result):
    yield "nodes", int(result.codes.size)
    yield "labelled", int((result.codes >= 0).sum())


def _witnesses(args, kwargs, result):
    yield "witnesses", len(result)


def _fit_rows(args, kwargs, result):
    yield "rows", int(result.report.samples_used)


def _sweep_rows(args, kwargs, result):
    yield "rows", len(result.rows)
    yield "error_rows", sum(r.error is not None for r in result.rows)


def _file_bytes(args, kwargs, result):
    yield "bytes", os.path.getsize(args[1])


MEASURES = {
    "dynamics.iterate": _iterate_steps,
    "geometry.hausdorff": _pair_points,
    "geometry.directed_hausdorff": _pair_points,
    "geometry.sampling_gap": _cloud_points,
    "geometry.split_discrepancy": _cloud_points,
    "geometry.diameter": _cloud_points,
    "limits.estimate_omega": _omega_converged,
    "limits.cluster_limit_sets": _cluster_members,
    "limits.compute_basins": _basin_nodes,
    "limits.basin_closedness_witness": _witnesses,
    "lifting.fit_lift": _fit_rows,
    "lifting.obstruction_sweep": _sweep_rows,
    "serialize.dump": _file_bytes,
    "limits.write_basin_csv": _file_bytes,
}


class _TracedTree:
    """Stands in for a ``cKDTree``: builds the real one, traces ``query``."""

    def __init__(self, rec: Recorder, tree):
        self._rec = rec
        self._tree = tree

    def query(self, x, *args, **kwargs):
        return self._rec.call("kdtree.query", self._tree.query, (x,) + args, kwargs,
                              _cloud_points)

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def install(rec: Recorder) -> set[str]:
    """Wrap every public function of the traced modules in every namespace
    that binds it, plus the layers reached through objects: the catalog
    maps' ``forward``/``inverse``, ``DomainRegion`` membership,
    ``LimitSetCatalog.match`` and scipy's ``cKDTree`` where limitlab imports it.

    Returns the span names the wrappers record."""
    package = importlib.import_module("limitlab")
    modules = {m: importlib.import_module(f"limitlab.{m}") for m in TRACED_MODULES}
    if getattr(modules["cli"].main, "__wrapped_by_perfbench__", False):
        raise RuntimeError("tracing is already installed in this process")
    origin = {f"limitlab.{m}": m for m in TRACED_MODULES}

    wrappers: dict[int, object] = {}
    spans: set[str] = set()

    def wrapper_for(fn):
        key = id(fn)
        if key not in wrappers:
            name = f"{origin[fn.__module__]}.{fn.__name__}"
            spans.add(name)
            if name == "catalog.get_system":
                wrappers[key] = _traced_get_system(rec, fn)
            else:
                wrappers[key] = wrap(rec, name, fn, MEASURES.get(name))
        return wrappers[key]

    for ns in [package, *modules.values()]:
        for attr, value in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ not in origin or getattr(value, "__wrapped_by_perfbench__", False):
                continue
            setattr(ns, attr, wrapper_for(value))

    dynamics, limits, geometry = modules["dynamics"], modules["limits"], modules["geometry"]
    region = dynamics.DomainRegion
    for method in ("violation", "contains_batch", "exclusion_batch"):
        measure = _one_row if method == "violation" else _domain_rows
        setattr(region, method, wrap(rec, "dynamics.domain", getattr(region, method), measure))
    limits.LimitSetCatalog.match = wrap(rec, "limits.match", limits.LimitSetCatalog.match)

    real_tree = limits.cKDTree

    def traced_tree(data, *args, **kwargs):
        tree = rec.call("kdtree.build", real_tree, (data,) + args, kwargs, _cloud_points)
        return _TracedTree(rec, tree) if rec.enabled else tree

    limits.cKDTree = traced_tree
    geometry.cKDTree = traced_tree
    return spans | {
        "catalog.forward", "dynamics.domain", "limits.match", "kdtree.build", "kdtree.query"}


def _traced_get_system(rec: Recorder, get_system):
    def build(*args, **kwargs):
        system = get_system(*args, **kwargs)
        inverse = system.inverse
        return replace(
            system,
            forward=wrap(rec, "catalog.forward", system.forward, _forward_rows),
            inverse=(None if inverse is None
                     else wrap(rec, "catalog.forward", inverse, _forward_rows)))

    return wrap(rec, "catalog.get_system", functools.wraps(get_system)(build))


# -- from spans to per-layer numbers ---------------------------------------------

def layer_table(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, the counters recorded
    at its boundary, and how many direct children of each name it had."""
    name_id, parent, start, end = rec.arrays()
    duration = end - start
    own = self_times(parent, duration)
    table: dict[str, dict[str, float]] = {}
    for nid, name in enumerate(rec.names):
        mask = name_id == nid
        table[name] = {"calls": float(mask.sum()),
                       "incl_s": float(duration[mask].sum()),
                       "self_s": float(own[mask].sum())}
    for (name, measure), value in rec.counts.items():
        table[name][measure] = float(value)
    has = parent >= 0
    if has.any():
        pairs, n = np.unique(np.stack([name_id[parent[has]], name_id[has]], axis=1),
                             axis=0, return_counts=True)
        for (p, c), k in zip(pairs, n):
            table[rec.names[p]][f"children.{rec.names[c]}"] = float(k)
    return table


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# per-layer measures that are not a per-round sum of a recorded counter
DERIVED = {
    "rows_per_call": lambda t, n: _ratio(t.get("rows", 0.0), t["calls"]),
    "steps_per_s": lambda t, n: _ratio(t.get("steps", 0.0), t["incl_s"]),
    "converged_ratio": lambda t, n: _ratio(t.get("converged", 0.0), t["calls"]),
    # one burn call, then one call per tail window
    "windows_per_call": lambda t, n: _ratio(
        t.get("children.dynamics.iterate", 0.0) - t["calls"], t["calls"]),
    "labelled_ratio": lambda t, n: _ratio(t.get("labelled", 0.0), t.get("nodes", 0.0)),
    "estimates": lambda t, n: t.get("children.limits.estimate_omega", 0.0) / n,
    # sweep rows kept with an error, or calls that raised
    "error_rows": lambda t, n: (t.get("error_rows", 0.0) + t.get("errors", 0.0)) / n,
}


def module_split(table) -> dict[str, float]:
    """Self seconds summed per module (the span name's first part)."""
    split: dict[str, float] = defaultdict(float)
    for name, row in table.items():
        split[name.split(".", 1)[0]] += row["self_s"]
    return dict(split)


def per_layer_metrics(names, table, rounds: int, overhead: float,
                      traced_seconds: float) -> dict[str, float]:
    """Values for ``<module>.<function>.<measure>`` names; sums are per round.

    ``trace.overhead_ratio`` is traced over untraced job time, minus one;
    ``trace.unaccounted_ratio`` is the share of traced job time outside any
    span (self times sum to the root spans' durations)."""
    empty = {"calls": 0.0, "incl_s": 0.0, "self_s": 0.0}
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = overhead
        elif name == "trace.unaccounted_ratio":
            out[name] = 1.0 - _ratio(sum(module_split(table).values()), traced_seconds)
        else:
            span, measure = name.rsplit(".", 1)
            row = table.get(span, empty)
            if measure in DERIVED:
                out[name] = DERIVED[measure](row, rounds)
            else:
                out[name] = row.get(measure, 0.0) / rounds
    return out


def print_table(table, rounds: int, traced_seconds: float) -> None:
    """Every span name with per-round calls, self and inclusive seconds and
    counters, then each module's share of the traced job time."""
    print(f"per-layer, per round ({rounds} traced rounds, {traced_seconds / rounds:.3f} s each)")
    print(f"{'span':40s} {'calls':>10s} {'self_s':>10s} {'incl_s':>10s}  counters")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        extra = " ".join(f"{k}={v / rounds:.6g}" for k, v in sorted(row.items())
                         if k not in ("calls", "self_s", "incl_s"))
        print(f"{name:40s} {row['calls'] / rounds:10.6g} {row['self_s'] / rounds:10.4f} "
              f"{row['incl_s'] / rounds:10.4f}  {extra}")
    split = module_split(table)
    print("self-time split by module (share of traced job time): " + ", ".join(
        f"{m}={s / traced_seconds:.1%}" for m, s in sorted(split.items(), key=lambda kv: -kv[1])))
