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
through it, basin maps whole grids (with the escape radius as ``r_div``), and
``lifting.training_pairs``, ``limits._SettleStage`` and
``immersion.conjugacy_residual`` take one checked step through it.
A row's orbit does not depend on which rows share its batch: every check is
row-wise, and catalog maps are built so that their steps are too
(``linear.apply_matrix`` replaces BLAS products, which round one row
differently from several). A seed stepped alone and the same seed stepped
among others therefore agree to the bit.

The same invariant lets the engine step a block of steps at a time: it
applies the map several times with no check in between, then checks every
state and image of the block at once. A block that fails no check is kept;
otherwise it is cut back to the steps before the first failing one, which
runs again alone. So every stop is decided one step at a time, and the
result is that of checking step by step, while a small batch pays the
checks' fixed cost once per block instead of once per step.

Row-wise Euclidean norms go through one fold, :func:`_fold_norm`, at every
width: it adds the squares in column order and takes one square root, the
in-order sum whose error ``geometry._margin`` bounds. :func:`_row_norm` is
that fold over a batch's last axis. Below 8 columns numpy's
``np.linalg.norm(X, axis=1)`` adds the squares in the same order, so the
fold gives its bits; from 8 columns on numpy sums pairwise, and the fold
does not follow it.

The per-step kernels of a wide batch (the norm fold :func:`_fold_norm`,
which ``geometry._box_lower`` and the basin bounds share with
:func:`_row_norm`, the max-abs fold of :func:`_max_abs` and the catalog's
rotation-scaling steps) work column by column, in place: each column goes
through one scratch buffer into one accumulator, with ``out=``. An
elementwise operation rounds its result alone, whatever buffer receives it,
so running the same operations on the same operands in the same order
gives the same bits as building a fresh array for each; only the
temporaries, and the page faults of allocating them, are gone. On a grid
of 40k states, those temporaries cost more than the arithmetic.

The layout contract. A batch has the shape ``(n, d)`` in either memory
order, and no result depends on which. A basin grid (:func:`_grid_nodes`)
is column-major, so that each coordinate is one contiguous column for those
kernels; seed lists, windows and the witness batch are row-major, and an
``(n, 1)`` batch is both. A wide grid, which takes one step per block,
stays column-major: a one-step block is the map's own output, and
``linear.apply_matrix`` writes in its input's order. A multi-step block
and a row gather (the rows that go on after some stop) are row-major.
Each step gives the same bits in either order. The catalog maps of two or more
dimensions use only +, -, *, / and sqrt, which round each element alone,
whatever the strides, and so does the norm fold: it adds whole columns, so
no reduction is grouped by the memory order. A user map that multiplies
through BLAS (``X @ A.T``) may round differently in the two orders, as it
does for one row against several.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import config
from .config import Settings, _bound, _exact
from .errors import NoInverseError
from .serialize import write_csv

# Keep the heap warm. glibc serves a block above its mmap threshold (128 KiB
# at start) by mmap and unmaps it on free, and the first such free raises the
# threshold to that block's size and the trim threshold to twice it
# (mallopt(3), M_MMAP_THRESHOLD). Until then each full-size temporary of a
# wide grid step (a 40,401 x 2 array is 646 kB) is mapped afresh, and its
# pages fault again at every step: a fresh process took about 360 minor
# faults per rotation-scaling step on the 201^2 grid. One 16 MiB block,
# allocated and freed here, sets both thresholds at once; its pages are never
# touched. 32 MiB would not: with its header it is above the 32 MiB ceiling
# of the dynamic threshold, which then stays where it was.
np.empty(1 << 24, dtype=np.uint8)

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


# Rounds of redraws DomainRegion.sample makes for points that land in an
# exclusion ball before it gives up with a ValueError.
_REDRAW_ROUNDS = 1000


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
            e = np.asarray(self.excluded, dtype=float)
            # a 1-d region's exclusions may come as a flat list of numbers
            e = e.reshape(-1, 1) if self.dim == 1 and e.ndim < 2 else np.atleast_2d(e)
            if e.size == 0:         # [], [[]] or a (0, d) array: no excluded point
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
                            excluded, eps_excl)

    @staticmethod
    def box(bounds, excluded=None, eps_excl: float = config.EPS_EXCL) -> "DomainRegion":
        b = np.asarray(bounds, dtype=float)
        kind = "punctured-box" if excluded is not None and np.size(excluded) else "box"
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

        Answered by :meth:`contains_batch` and :meth:`exclusion_batch`, so a
        point gets the same verdict alone and in a batch, NaN included."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        if self.contains_batch(X)[0]:
            return None
        return "excluded-point" if self.exclusion_batch(X)[0] else "out-of-bounds"

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
            with np.errstate(over="ignore"):    # a norm past the float range is inf
                r = _row_norm(X)
            return (r >= self.bounds[0, 0]) & (r <= self.bounds[0, 1])
        return ((X >= self.bounds[:, 0]) & (X <= self.bounds[:, 1])).all(axis=1)

    def _exclusion_distances(self, X: np.ndarray) -> list[np.ndarray]:
        if self.excluded is None:
            return []
        with np.errstate(over="ignore"):        # a distance past the float range is inf
            return [_row_norm(X - e[None, :]) for e in self.excluded]

    # -- sampling ----------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator, box=None) -> np.ndarray:
        """Draw ``n`` points from the region (uniform per axis / radius).

        Unbounded regions need an explicit ``box`` to draw from. Samples that
        land inside an exclusion ball are redrawn, in up to
        ``_REDRAW_ROUNDS`` rounds; a sample still excluded after them is a
        ``ValueError``.
        """
        pts = self._draw(n, rng, box)
        rounds = 0
        while self.excluded is not None and not (ok := self.contains_batch(pts)).all():
            if rounds == _REDRAW_ROUNDS:
                raise ValueError(f"samples still inside an exclusion ball after "
                                 f"{_REDRAW_ROUNDS} redraws")
            pts[~ok] = self._draw(int((~ok).sum()), rng, box)
            rounds += 1
        return pts

    def _draw(self, n: int, rng: np.random.Generator, box) -> np.ndarray:
        """``n`` uniform draws from the region's box (or ``box``) or annulus,
        exclusion balls ignored."""
        if self.kind == "annulus":
            r = rng.uniform(self.bounds[0, 0], self.bounds[0, 1], size=n)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
            if self.dim != 2:
                raise NotImplementedError("annulus sampling implemented for dim 2")
            return np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        if self.has_finite_box():
            lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        elif box is not None:
            b = np.asarray(box, dtype=float)
            lo, hi = b[:, 0], b[:, 1]
        else:
            raise ValueError("unbounded region: pass an explicit sample box")
        return rng.uniform(lo, hi, size=(n, self.dim))

    def has_finite_box(self) -> bool:
        """Whether the region has per-axis bounds with finite widths ``hi - lo``
        (an annulus bounds the radius, not the axes): the regions :meth:`grid`
        can span and :meth:`sample` can draw from without a box."""
        if self.bounds is None or self.kind == "annulus":
            return False
        with np.errstate(over="ignore"):        # a width past the float range is inf
            return bool(np.isfinite(self.bounds[:, 1] - self.bounds[:, 0]).all())

    def grid(self, resolution) -> list[np.ndarray]:
        """Per-axis sample nodes: ``resolution[i]`` points spanning axis i inclusive."""
        if not self.has_finite_box():
            raise ValueError("grids need finite per-axis bounds and widths")
        res = np.broadcast_to(np.asarray(resolution, dtype=int), (self.dim,))
        return [np.linspace(self.bounds[i, 0], self.bounds[i, 1], int(res[i]))
                for i in range(self.dim)]

    def survey(self, per_axis: int, n: int, seed: int, box=None) -> np.ndarray:
        """The nodes of the ``per_axis`` grid inside the region, in the grid's
        row-major order, then ``n`` :meth:`sample` draws seeded with ``seed``.
        A region with no finite box gives the draws alone."""
        parts = []
        if self.has_finite_box():
            nodes = _grid_nodes(self.grid(per_axis))
            parts.append(nodes[self.contains_batch(nodes)])
        parts.append(self.sample(n, np.random.default_rng(seed), box=box))
        return np.vstack(parts)


def _grid_nodes(axes) -> np.ndarray:
    """The nodes of the grid with per-axis coordinates ``axes`` as an
    ``(N, d)`` array, listed in the grid's row-major order (the last axis
    varies fastest) and stored column-major, each column filled in place
    (see the module docstring)."""
    shape = tuple(len(a) for a in axes)
    nodes = np.empty((int(np.prod(shape)), len(axes)), order="F")
    for j, m in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        nodes[:, j].reshape(shape)[...] = m
    return nodes


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
    inf if a coordinate is: folded column by column into one accumulator, in
    place, as reducing along the short last axis is slow."""
    acc, col = np.abs(X[..., 0]), None
    for j in range(1, X.shape[-1]):
        col = np.abs(X[..., j], out=col)
        np.maximum(acc, col, out=acc)
    return acc


def _within(X: np.ndarray, cap: float) -> bool:
    """Whether every entry of ``X`` lies in ``[-cap, cap]``, by two
    reductions: a NaN fails both comparisons, so it is never within. Then
    every row's max-abs is at most ``cap`` too, and no row needs
    :func:`_max_abs`."""
    return X.size == 0 or bool(X.max() <= cap and X.min() >= -cap)


def _row_norm(X: np.ndarray) -> np.ndarray:
    """Each state's Euclidean norm: :func:`_fold_norm` over the last axis of
    ``X``, the same bits in either memory order and at every width. Below 8
    columns these are the bits of ``np.linalg.norm(X, axis=-1)``."""
    return _fold_norm(X[..., j] for j in range(X.shape[-1]))


def _fold_norm(columns) -> np.ndarray:
    """The one row-norm arithmetic: the Euclidean norm across ``columns``,
    same-shaped arrays taken in coordinate order, each squared into one
    scratch buffer and added to one accumulator, in place. It runs the same
    operations on the same operands in the same order as a sum of fresh
    arrays, so the same bits, without a temporary per column. ``columns`` is
    read one at a time, so a generator may hand over every column in one
    buffer of its own."""
    acc = sq = None
    for c in columns:
        if acc is None:
            acc = c * c
        else:
            sq = np.multiply(c, c, out=sq)
            acc += sq
    return np.sqrt(acc, out=acc)


@dataclass(frozen=True)
class BatchOrbit:
    """Per-row outcome of :func:`iterate_batch` on an (n, d) batch.

    Row ``i`` has ``valid[i]`` points: ``states[:valid[i] - 1, i]`` followed
    by ``last[i]``. A row that completed has ``valid[i] == k + 1``; one
    stopped at step ``s`` (see :func:`iterate_batch`) has ``s + 1``, or
    ``s + 2`` if its image diverged and is kept, and its later ``states``
    entries are ``last[i]``.
    """

    last: np.ndarray                 # (n, d) each row's last valid point
    termination: np.ndarray          # (n,) index into TERMINATIONS
    valid: np.ndarray                # (n,) valid points, start state included
    states: Optional[np.ndarray]     # (steps begun, n, d) states before each step, if recorded

    def cause(self, i: int) -> str:
        return TERMINATIONS[int(self.termination[i])]


def _state_codes(domain: DomainRegion, P: np.ndarray,
                 over: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Each state's checks before a step: an excluded point is ``singular``,
    anything else outside the domain ``left-domain``, a state past ``r_div``
    (the mask ``over``; none if it is ``None``) ``diverged``, and
    ``completed`` if all pass; ``None`` when every state passes, with no
    codes built. Written in reverse check order, so a state's first failed
    check wins. Only a state outside the domain can be in an exclusion ball,
    so only those are asked."""
    inside = domain.contains_batch(P)
    if inside.all() and (over is None or not over.any()):
        return None
    code = np.full(len(P), _CODE[COMPLETED], dtype=np.int8)
    if over is not None:
        code[over] = _CODE[DIVERGED]
    out = np.flatnonzero(~inside)
    if out.size:
        code[out] = _CODE[LEFT_DOMAIN]
        code[out[domain.exclusion_batch(P[out])]] = _CODE[SINGULAR]
    return code


def _run_block(system: DiscreteMap, P: np.ndarray, b: int) -> np.ndarray:
    """``(b, m, d)``: the next ``b`` images of the states ``P``, with no check
    in between. A one-step block is the map's own output, in the layout the
    map gave it: on a wide batch, a fresh buffer per step costs more in page
    faults than the step itself, and a column-major batch stays column-major.
    That changes no bit: an elementwise ufunc rounds each element alone,
    whatever the strides, and the norm fold of :func:`_row_norm` and
    ``geometry._box_lower`` is elementwise across whole columns."""
    first = _step_rows(system.forward, P, system.vectorized)
    if b == 1:
        return first[None]
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


def iterate_batch(system: DiscreteMap, X0, k: int, r_div: float = Settings.r_div,
                  record: bool = False) -> BatchOrbit:
    """Step every row of ``X0`` (shape ``(n, d)``) up to ``k`` times in lockstep.

    Each step makes a row's checks in a fixed order: domain (an excluded point
    is ``singular``, anything else outside is ``left-domain``), then the
    ``r_div`` max-abs guard on the state, then the step, then a non-finite
    image (``singular``, the image is dropped), then the ``r_div`` guard on
    the image (``diverged``, the image is kept). A stopped row is not stepped
    again. Only the current states are kept unless ``record`` is set.

    The steps run in blocks. A block checks its starting states and drops
    the rows that fail, then applies the map ``b`` times with no check in
    between. A one-step block then stops each row whose image fails; it is
    the only place where an image stops a row. A longer block stops none: it
    is kept whole when every image passes the guard and every state inside
    it lies in the domain, and is otherwise cut back to the steps before the
    first step at which some row fails, which then runs as a one-step block
    after its own start check. This is exactly the step-by-step result,
    because a row's images do not depend on the other rows of its batch
    (see the module docstring). The map may meet states past a row's stop
    (an excluded point, a state outside the domain, an inf): the block runs
    with floating-point warnings off, and a block in which the map raises
    is run again one step long, where the map sees only states that passed
    their checks, so an error surfaces at the step where a per-step loop
    raises it.

    ``b`` starts at 1 and doubles per block, and starts at 1 again at a
    cut, so a batch whose rows stop early wastes few steps. It is capped by
    the steps left and by about ``2**15`` floats per block, so a basin grid
    keeps one step per block. A map that takes one state at a time
    (``vectorized=False``) steps one at a time: it pays a call per row
    anyway. ``k = 1`` with ``r_div = np.inf`` is one checked step with no
    divergence guard: the rows that complete are the states inside the
    domain with a finite image, and ``last`` holds it. An ``r_div`` of 0 or
    less would stop every orbit, and nothing compares past a NaN, which
    would drop the guard: both raise ``ValueError``. So does a ``k`` that
    is not an integer (``1.7``; ``3.0`` and numpy integers are taken),
    which would be truncated.

    The guards go by reduction first. When the largest entry of a block's
    images is at most the cap and the smallest at least its negative, no
    image fails (a NaN fails both comparisons), so the block skips the
    per-row max-abs; the start states take the same test against ``r_div``.
    Each image's max-abs is computed only in a block where the reductions
    find a failure: a one-step block reads it to tell a diverged image from
    a non-finite one, a longer block to find the step it is cut at. While no
    row has stopped, ``last`` takes the going states by a plain copy. The
    verdicts are those of the per-row test.
    """
    last = np.array(X0, dtype=float)
    if last.ndim != 2 or last.shape[1] != system.dim:
        raise ValueError(f"expected an (n, {system.dim}) batch of states, got shape {last.shape}")
    k = _bound("k", _exact(int, "k", k), 0)
    _bound("r_div", r_div, 0, above=True)
    # One comparison is the image guard: ``M <= cap`` is false for a NaN or
    # inf image and for one past ``r_div``, also when ``r_div`` is inf.
    cap = min(r_div, np.finfo(float).max)
    n, d = last.shape
    termination = np.full(n, _CODE[COMPLETED], dtype=np.int8)
    valid = np.full(n, k + 1, dtype=np.intp)    # a row that never stops keeps all k images
    states = np.empty((0, n, d)) if record else None
    # The rows still going are ``active``, with their states ``P`` in the
    # same order. ``last`` takes a row's last state when it stops, after the
    # block has read everything it needs (``P`` or an image may be a view of
    # it), and the going rows' states at the end. Only the start states can
    # be past ``r_div``: every later state is an image that passed the guard.
    active, P = np.arange(n), last
    over = None if _within(last, r_div) else _max_abs(last) > r_div
    t = 0                   # steps begun by some row
    span = 1                # the next block's length before its caps
    with np.errstate(all="ignore"):
        while t < k and active.size:
            b = min(span, k - t, max(1, _BLOCK_FLOATS // P.size)) if system.vectorized else 1
            code, over = _state_codes(system.domain, P, over), None
            if code is not None:
                ok = code == _CODE[COMPLETED]
                gone, stopped = active[~ok], P[~ok]
                active, P = active[ok], P[ok]
                termination[gone], valid[gone], last[gone] = code[~ok], t + 1, stopped
                if active.size == 0:
                    if states is not None:
                        states = _room(states, t + 1, k)
                        states[t] = last
                    t += 1
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
            M = None                # (m,) a one-step block's image max-abs, if some image fails
            if b > 1:
                # the steps at which some row fails: its image, or its state
                # inside the block (the image of the step before)
                fails = (np.zeros(b, dtype=bool) if _within(Y, cap)
                         else ~(_max_abs(Y) <= cap).all(axis=1))
                inside = system.domain.contains_batch(Y[:-1].reshape(-1, d))
                fails[1:] |= ~inside.reshape(b - 1, -1).all(axis=1)
                if fails.any():
                    b, span = int(fails.argmax()), 1
                    Y = Y[:b]
            elif not _within(Y, cap):
                M = _max_abs(Y[0])
            if states is not None and b:
                states = _room(states, t + b, k)
                states[t:t + b] = last              # rows stopped before: frozen
                states[t:t + b, active] = np.concatenate([P[None], Y[:-1]])
            if M is not None:
                going = M <= cap
                gone, kept = active[~going], np.isfinite(M[~going])    # a diverged image is kept
                termination[gone] = np.where(kept, _CODE[DIVERGED], _CODE[SINGULAR])
                valid[gone] = t + 1 + kept
                last[gone] = np.where(kept[:, None], Y[0][~going], P[~going])
                active, P = active[going], Y[0][going]
            elif b:
                P = Y[-1]
            t += b
    if active.size == n:
        last[...] = P
    else:
        last[active] = P
    if states is not None:
        states = states[:t]
    return BatchOrbit(last=last, termination=termination, valid=valid, states=states)


def iterate(system: DiscreteMap, x0, k: int, r_div: float = Settings.r_div) -> Trajectory:
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
    header = ["k"] + [f"x{i+1}" for i in range(traj.points.shape[1])]
    rows = [[k, *row] for k, row in enumerate(traj.points)]
    write_csv(path, header, rows + [[f"# termination={traj.termination}"]])

