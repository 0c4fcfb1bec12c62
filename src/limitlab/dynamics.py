"""Discrete-time maps on guarded domains, and finite-orbit iteration.

States are plain float64 arrays of shape ``(d,)`` (scalars promote to shape
``(1,)``). A :class:`DiscreteMap` bundles the step function with the region it
is allowed to act on; iteration records exactly what happened — early
termination (domain exit, singularity, divergence) is data on the returned
:class:`Trajectory`, not an exception.

There is one orbit engine, :func:`iterate_batch`: it steps an ``(n, d)``
array of states in lockstep, with the per-row checks of a single orbit, and
reports per row why it stopped and how many valid points it has.
:func:`iterate` is its ``n = 1`` case (a backward orbit is an orbit of
:meth:`DiscreteMap.reversed`); limit-set estimates step whole seed lists
through it, basin maps whole grids (with the escape radius as ``r_div``).
A row's orbit does not depend on which rows share its batch: every check is
row-wise, and catalog maps are built so that their steps are too
(``linear.apply_matrix`` replaces BLAS products, which round one row
differently from several). A seed stepped alone and the same seed stepped
among others therefore agree to the bit.

The same invariant lets the engine step a block of steps at a time: it
applies the map several times with no check in between, then runs each
check once over every state and image of the block, and stops each row at
its first failed check. Rows that stop inside a block change nothing for the
others, so the result is that of checking step by step, while a small batch
pays the checks' fixed cost once per block instead of once per step.

Row-wise Euclidean norms go through one helper, :func:`_row_norm`. numpy's
``np.linalg.norm(X, axis=1)`` reduces along the short last axis, which is
slow; below 8 columns it adds the squares in column order, so a column-by-
column fold gives the same bits, faster. From 8 columns on numpy adds them
pairwise, and the helper calls numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Optional

import numpy as np

from . import config
from .errors import NoInverseError

# Termination causes.
COMPLETED = "completed"
LEFT_DOMAIN = "left-domain"
SINGULAR = "singular"
DIVERGED = "diverged"

TERMINATIONS = (COMPLETED, LEFT_DOMAIN, SINGULAR, DIVERGED)


def as_state(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 state vector of shape ``(d,)``.

    Scalars become 1-vectors. Non-finite coordinates are rejected outright:
    NaN/inf states are never legal inputs anywhere in the library.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"state must be a scalar or 1-d vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"state has dimension {p.shape[0]}, expected {dim}")
    if not np.isfinite(p).all():
        raise ValueError(f"state has non-finite coordinates: {p}")
    return p


@dataclass(frozen=True)
class DomainRegion:
    """A region of state space with optional excluded points.

    ``kind`` is one of ``interval``, ``box``, ``annulus``, ``punctured-box``,
    ``full-space``. Interval/box bounds are closed and may be infinite on a
    side; ``annulus`` bounds are radial ``(r_min, r_max)``. Excluded points
    carry a protective radius ``eps_excl``: anything within it is outside the
    region. (Closed bounds are deliberate — orbits that converge to a boundary
    fixed point land exactly on it in float64 and must stay legal.)
    """

    kind: str
    dim: int
    bounds: Optional[np.ndarray] = None          # (dim, 2) or (1, 2) radial
    excluded: Optional[np.ndarray] = None        # (n_excl, dim)
    eps_excl: float = config.EPS_EXCL

    def __post_init__(self):
        if self.kind not in ("interval", "box", "annulus", "punctured-box", "full-space"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.bounds is not None:
            b = np.asarray(self.bounds, dtype=float)
            if b.ndim != 2 or b.shape[1] != 2:
                raise ValueError("bounds must be (k, 2) [lo, hi] pairs")
            if np.isnan(b).any():
                raise ValueError("bounds may not be NaN")
            if not (b[:, 0] < b[:, 1]).all():
                raise ValueError("each bounds pair needs lo < hi")
            object.__setattr__(self, "bounds", b)
        if self.excluded is not None:
            e = np.atleast_2d(np.asarray(self.excluded, dtype=float))
            if e.shape[0] == 0:
                e = None
            elif e.shape[1] != self.dim or not np.isfinite(e).all():
                raise ValueError("excluded points must be finite and match the region dimension")
            object.__setattr__(self, "excluded", e)
        if not (self.eps_excl > 0):
            raise ValueError("eps_excl must be positive")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def interval(lo: float, hi: float, excluded=None, eps_excl: float = config.EPS_EXCL) -> "DomainRegion":
        return DomainRegion("interval", 1, np.array([[lo, hi]], dtype=float),
                            _column(excluded), eps_excl)

    @staticmethod
    def box(bounds, excluded=None, eps_excl: float = config.EPS_EXCL) -> "DomainRegion":
        b = np.asarray(bounds, dtype=float)
        kind = "punctured-box" if excluded is not None and len(np.atleast_2d(excluded)) else "box"
        return DomainRegion(kind, b.shape[0], b, excluded, eps_excl)

    @staticmethod
    def annulus(r_min: float, r_max: float, dim: int = 2,
                eps_excl: float = config.EPS_EXCL) -> "DomainRegion":
        if r_min < 0:
            raise ValueError("annulus needs r_min >= 0")
        return DomainRegion("annulus", dim, np.array([[r_min, r_max]], dtype=float),
                            None, eps_excl)

    @staticmethod
    def full_space(dim: int, excluded=None, eps_excl: float = config.EPS_EXCL) -> "DomainRegion":
        return DomainRegion("full-space", dim, None, excluded, eps_excl)

    # -- membership --------------------------------------------------------

    def violation(self, x) -> Optional[str]:
        """None if ``x`` is inside; otherwise the reason it is not.

        Answered from the same row masks as :meth:`contains_batch`, so a
        point on a bound gets the same verdict alone and in a batch."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        if self.exclusion_batch(X)[0]:
            return "excluded-point"
        if not self._in_bounds(X)[0]:
            return "out-of-bounds"
        return None

    def contains(self, x) -> bool:
        return self.violation(x) is None

    def contains_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (m, d) batch; returns a bool mask."""
        ok = self._in_bounds(X)
        for d in self._exclusion_distances(X):
            ok &= d > self.eps_excl
        return ok

    def exclusion_batch(self, X: np.ndarray) -> np.ndarray:
        """Mask of batch rows inside some excluded-point ball."""
        hit = np.zeros(len(X), dtype=bool)
        for d in self._exclusion_distances(X):
            hit |= d <= self.eps_excl
        return hit

    def _in_bounds(self, X: np.ndarray) -> np.ndarray:
        if self.bounds is None:
            return np.ones(len(X), dtype=bool)
        if self.kind == "annulus":
            r = _row_norm(X)
            return (r >= self.bounds[0, 0]) & (r <= self.bounds[0, 1])
        return ((X >= self.bounds[:, 0]) & (X <= self.bounds[:, 1])).all(axis=1)

    def _exclusion_distances(self, X: np.ndarray) -> list[np.ndarray]:
        if self.excluded is None:
            return []
        return [_row_norm(X - e[None, :]) for e in self.excluded]

    # -- sampling ----------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator, box=None) -> np.ndarray:
        """Draw ``n`` points from the region (uniform per axis / radius).

        Unbounded regions need an explicit ``box`` to draw from. Samples that
        land inside an exclusion ball are redrawn.
        """
        if self.kind == "annulus":
            r = rng.uniform(self.bounds[0, 0], self.bounds[0, 1], size=n)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
            if self.dim != 2:
                raise NotImplementedError("annulus sampling implemented for dim 2")
            pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        else:
            if self.bounds is not None and np.isfinite(self.bounds).all():
                lo, hi = self.bounds[:, 0], self.bounds[:, 1]
            elif box is not None:
                b = np.asarray(box, dtype=float)
                lo, hi = b[:, 0], b[:, 1]
            else:
                raise ValueError("unbounded region: pass an explicit sample box")
            pts = rng.uniform(lo, hi, size=(n, self.dim))
        if self.excluded is not None:
            bad = ~self.contains_batch(pts)
            while bad.any():
                pts[bad] = self.sample(int(bad.sum()), rng, box=box)
                bad = ~self.contains_batch(pts)
        return pts

    def has_finite_box(self) -> bool:
        """Whether the region has finite per-axis bounds (an annulus bounds the
        radius, not the axes): the regions :meth:`grid` can span."""
        return (self.bounds is not None and self.kind != "annulus"
                and bool(np.isfinite(self.bounds).all()))

    def grid(self, resolution) -> list[np.ndarray]:
        """Per-axis sample nodes: ``resolution[i]`` points spanning axis i inclusive."""
        if not self.has_finite_box():
            raise ValueError("grids need finite per-axis bounds")
        res = np.broadcast_to(np.asarray(resolution, dtype=int), (self.dim,))
        return [np.linspace(self.bounds[i, 0], self.bounds[i, 1], int(res[i]))
                for i in range(self.dim)]


def _grid_nodes(axes) -> np.ndarray:
    """The nodes of the grid with per-axis coordinates ``axes`` as an
    ``(N, d)`` array, in row-major order: the last axis varies fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _column(excluded):
    if excluded is None:
        return None
    e = np.atleast_1d(np.asarray(excluded, dtype=float))
    return e[:, None] if e.ndim == 1 else e


@dataclass(frozen=True)
class DiscreteMap:
    """A discrete-time system ``x_{k+1} = forward(x_k)`` on a domain.

    ``forward`` (and ``inverse`` when present) act on float64 arrays shaped
    ``(..., dim)`` — catalog maps broadcast over leading axes, which the basin
    mapper exploits; set ``vectorized=False`` for evaluators that only accept
    single states. ``inverse_domain`` guards backward iteration (defaults to
    ``domain``).
    """

    dim: int
    forward: Callable[[np.ndarray], np.ndarray]
    domain: DomainRegion
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_domain: Optional[DomainRegion] = None
    name: str = "map"
    vectorized: bool = True

    def __post_init__(self):
        if self.domain.dim != self.dim:
            raise ValueError("domain dimension does not match map dimension")

    def reversed(self) -> "DiscreteMap":
        """The time-reversed system (forward <-> inverse)."""
        if self.inverse is None:
            raise NoInverseError(f"{self.name} has no inverse")
        return DiscreteMap(
            dim=self.dim,
            forward=self.inverse,
            inverse=self.forward,
            domain=self.inverse_domain or self.domain,
            inverse_domain=self.domain,
            name=f"{self.name}^-1",
            vectorized=self.vectorized,
        )

    def restrict(self, region: DomainRegion) -> "DiscreteMap":
        """Same dynamics on a smaller domain (used for basin/limit studies)."""
        if region.dim != self.dim:
            raise ValueError("region dimension does not match map dimension")
        return replace(self, domain=region)


@dataclass(frozen=True)
class Trajectory:
    """A stored finite orbit. ``points[k+1] = f(points[k])`` by construction."""

    points: np.ndarray          # (m, dim)
    termination: str            # one of TERMINATIONS
    steps_taken: int

    @property
    def last(self) -> np.ndarray:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)


def _step_rows(step, X: np.ndarray, vectorized: bool,
               width: Optional[int] = None) -> np.ndarray:
    """Apply ``step`` to every row of an (n, d) batch: in one call when the
    evaluator is vectorized, else one call per row. Each image has ``width``
    coordinates (default ``d``); an empty batch gives an empty (0, width)
    array without calling a per-row ``step``."""
    width = X.shape[1] if width is None else width
    if vectorized:
        return np.asarray(step(X), dtype=float).reshape(len(X), width)
    out = np.empty((len(X), width))
    for i, x in enumerate(X):
        out[i] = np.asarray(step(x), dtype=float).reshape(width)
    return out


# Termination causes by code, as :attr:`BatchOrbit.termination` stores them.
_CODE = {cause: code for code, cause in enumerate(TERMINATIONS)}

# A block holds at most about this many floats: a small batch steps many
# times per round of checks, and a batch this wide (a 40k-row grid of 2-d
# states) steps once per round, with a per-step loop's memory.
_BLOCK_FLOATS = 2 ** 15


def _max_abs(X: np.ndarray) -> np.ndarray:
    """Each state's largest coordinate magnitude (over the last axis), NaN or
    inf if a coordinate is: folded column by column, as reducing along the
    short last axis is slow."""
    return reduce(np.maximum, np.moveaxis(np.abs(X), -1, 0))


def _row_norm(X: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, equal to ``np.linalg.norm(X, axis=1)`` to
    the bit. Below 8 columns numpy sums the squares in order, so folding them
    column by column is the same sum, and faster; from 8 on it sums pairwise,
    and numpy does the work."""
    if X.shape[1] >= 8:
        return np.linalg.norm(X, axis=1)
    return np.sqrt(reduce(np.add, [c * c for c in X.T]))


@dataclass(frozen=True)
class BatchOrbit:
    """Per-row outcome of :func:`iterate_batch` on an (n, d) batch.

    Row ``i`` has ``valid[i]`` points: ``states[:valid[i] - 1, i]`` followed
    by ``last[i]``. A row that completed has ``valid[i] == k + 1``.
    """

    last: np.ndarray                 # (n, d) each row's last valid point
    termination: np.ndarray          # (n,) index into TERMINATIONS
    valid: np.ndarray                # (n,) valid points, start state included
    states: Optional[np.ndarray]     # (steps run, n, d) states before each step, if recorded

    def cause(self, i: int) -> str:
        return TERMINATIONS[int(self.termination[i])]


def _state_codes(domain: DomainRegion, P: np.ndarray, over: np.ndarray) -> np.ndarray:
    """Each state's checks before a step: an excluded point is ``singular``,
    anything else outside the domain ``left-domain``, a state past ``r_div``
    (the mask ``over``) ``diverged``, and ``completed`` if all pass. Written in
    reverse check order, so a state's first failed check wins."""
    code = np.where(over, np.int8(_CODE[DIVERGED]), np.int8(_CODE[COMPLETED]))
    code[~domain.contains_batch(P)] = _CODE[LEFT_DOMAIN]
    code[domain.exclusion_batch(P)] = _CODE[SINGULAR]
    return code


def _run_block(system: DiscreteMap, P: np.ndarray, b: int) -> np.ndarray:
    """``(b, m, d)``: the next ``b`` images of the states ``P``, with no check
    in between. A one-step block is the map's own output: on a wide batch, a
    fresh buffer per step costs more in page faults than the step itself. It
    is made contiguous, as a buffer is, since the next step maps it, and a
    ufunc may round a strided input differently."""
    first = _step_rows(system.forward, P, system.vectorized)
    if b == 1:
        return np.ascontiguousarray(first)[None]
    Y = np.empty((b,) + P.shape)
    Y[0] = first
    for j in range(1, b):
        Y[j] = _step_rows(system.forward, Y[j - 1], system.vectorized)
    return Y


def _room(states: np.ndarray, size: int, k: int) -> np.ndarray:
    """``states`` with room for ``size`` recorded steps. It grows by doubling,
    up to ``k``, so a long run whose rows all stop early holds only about
    the steps it ran."""
    if len(states) >= size:
        return states
    grown = np.empty((min(k, max(size, 2 * len(states))),) + states.shape[1:])
    grown[:len(states)] = states
    return grown


def iterate_batch(system: DiscreteMap, X0, k: int, r_div: float = config.R_DIV,
                  record: bool = False) -> BatchOrbit:
    """Step every row of ``X0`` (shape ``(n, d)``) up to ``k`` times in lockstep.

    Each step makes a row's checks in a fixed order: domain (an excluded point
    is ``singular``, anything else outside is ``left-domain``), then the
    ``r_div`` max-abs guard on the state, then the step, then a non-finite
    image (``singular``, the image is dropped), then the ``r_div`` guard on
    the image (``diverged``, the image is kept). A stopped row is not stepped
    again. Only the current states are kept unless ``record`` is set.

    The steps run in blocks. A block checks its starting states and drops the
    rows that fail, applies the map ``b`` times with no check in between, and
    then makes every check of its ``b`` steps at once, on the states inside
    the block and on every image. Each row's first failed check, in the order
    above, sets its cause, its ``valid`` count and its ``last`` state; what
    the block computed for it after that is discarded. This is exactly the
    step-by-step result, because a row's images do not depend on the other
    rows of its batch (see the module docstring). The map may meet states
    past a row's stop (an excluded point, a state outside the domain, an
    inf): the block runs with floating-point warnings off, and a block in
    which the map raises is run again one step long, where the map sees only
    states that passed their checks, so an error surfaces at the step where
    a per-step loop raises it.

    ``b`` starts at 1 and doubles per block, so a batch whose rows all stop
    early wastes few steps. It is capped by the steps left and by about
    ``2**15`` floats per block, so a basin grid keeps one step per block. A
    map that takes one state at a time (``vectorized=False``) steps one at a
    time: it pays a call per row anyway.
    """
    last = np.array(X0, dtype=float)
    if last.ndim != 2 or last.shape[1] != system.dim:
        raise ValueError(f"expected an (n, {system.dim}) batch of states, got shape {last.shape}")
    if k < 0:
        raise ValueError("step count must be >= 0")
    k = int(k)
    n, d = last.shape
    termination = np.full(n, _CODE[COMPLETED], dtype=np.int8)
    valid = np.full(n, k + 1, dtype=np.intp)    # a row that never stops keeps all k images
    states = np.empty((0, n, d)) if record else None
    # The rows still going are ``active``, with their states ``P`` and
    # max-abs ``mag`` in the same order. ``last`` takes a row's last state
    # when it stops, after the block has read everything it needs (``P`` or
    # an image may be a view of it), and the going rows' states at the end.
    active, P, mag = np.arange(n), last, _max_abs(last)
    t = ran = 0             # steps done; steps in which some row was still going
    span = 1                # the next block's length before its caps
    with np.errstate(all="ignore"):
        while t < k and active.size:
            b = min(span, k - t, max(1, _BLOCK_FLOATS // P.size)) if system.vectorized else 1
            ran = t + 1
            code = _state_codes(system.domain, P, mag > r_div)
            ok = code == _CODE[COMPLETED]
            if not ok.all():
                gone, stopped = active[~ok], P[~ok]
                active, P, mag = active[ok], P[ok], mag[ok]
                termination[gone], valid[gone], last[gone] = code[~ok], t + 1, stopped
                if active.size == 0:
                    if states is not None:
                        states = _room(states, t + 1, k)
                        states[t] = last
                    break
            try:
                Y = _run_block(system, P, b)
            except Exception:
                # a state past some row's stop may have made the map raise
                if b == 1:
                    raise
                b = 1
                Y = _run_block(system, P, b)
            span = 2 * b

            M = _max_abs(Y)                     # (b, m): each image's max-abs
            failed = ~np.isfinite(M) | (M > r_div)  # NaN or inf, even with r_div = inf
            if b > 1:   # the states inside the block, checked before their step
                inner = _state_codes(system.domain, Y[:-1].reshape(-1, d),
                                     M[:-1].ravel() > r_div).reshape(b - 1, -1)
                failed[1:] |= inner != _CODE[COMPLETED]
            stops = failed.any(axis=0)
            stopping = stops.any()
            kept = b                            # images each row keeps
            if stopping:
                kept = np.full(len(active), b)
                sub = np.flatnonzero(stops)
                first = failed[:, sub].argmax(axis=0)   # the step each one stops at
                cause = np.where(np.isfinite(M[first, sub]), _CODE[DIVERGED], _CODE[SINGULAR])
                if b > 1:   # a state's own checks come before its image's
                    own = np.where(first > 0, inner[first - 1, sub], _CODE[COMPLETED])
                    cause = np.where(own == _CODE[COMPLETED], cause, own)
                kept[sub] = first + (cause == _CODE[DIVERGED])    # a diverged image is kept
                at = kept[sub]
                stopped = np.where((at > 0)[:, None], Y[at - 1, sub], P[sub])
            if states is not None:
                states = _room(states, t + b, k)
                states[t:t + b] = last              # rows stopped before: frozen
                B = np.concatenate([P[None], Y])    # the block's states, then its last image
                states[t:t + b, active] = B[np.minimum(np.arange(b)[:, None], kept),
                                            np.arange(len(active))]
            if stopping:
                going, gone = ~stops, active[sub]
                ran = t + b if going.any() else t + 1 + int(first.max())
                active, P, mag = active[going], Y[-1][going], M[-1][going]
                termination[gone], valid[gone], last[gone] = cause, t + 1 + at, stopped
            else:
                ran, P, mag = t + b, Y[-1], M[-1]
            t += b
    last[active] = P
    if states is not None:
        states = states[:ran]
    return BatchOrbit(last=last, termination=termination, valid=valid, states=states)


def iterate(system: DiscreteMap, x0, k: int, r_div: float = config.R_DIV) -> Trajectory:
    """Forward orbit of up to ``k`` steps; stops early on domain exit,
    singularity, or once a coordinate magnitude exceeds ``r_div``."""
    x0 = as_state(x0, system.dim)
    run = iterate_batch(system, x0[None, :], k, r_div=r_div, record=True)
    steps = int(run.valid[0]) - 1
    pts = np.concatenate([run.states[:steps, 0], run.last[:1]])
    return Trajectory(points=pts, termination=run.cause(0), steps_taken=steps)


# -- trajectory CSV ---------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """``k,x1,...,xd`` rows plus a trailing ``# termination=<cause>`` comment."""
    d = traj.points.shape[1]
    lines = ["k," + ",".join(f"x{i+1}" for i in range(d))]
    for k, row in enumerate(traj.points):
        lines.append(f"{k}," + ",".join(repr(float(v)) for v in row))
    lines.append(f"# termination={traj.termination}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

