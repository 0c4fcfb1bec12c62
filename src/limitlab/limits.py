"""Limit-set estimation, basins of attraction, and closedness probes.

The forward limit set of a seed is estimated from tail windows of its orbit:
consecutive windows must agree in Hausdorff distance before the estimate
counts as converged. Two finite windows sampled from the same curve disagree
by about as much as two random halves of a single window do, so the settle
tolerance is ``max(tol_settle, gap_factor * split_discrepancy(window))`` —
fixed points and periodic orbits have discrepancy ~0 and are held to the
strict tolerance, while dense orbits settle once they stop moving at the
scale they are sampled at. The discrepancy is taken from the later of the
two windows, so a decaying transient is still measured against a tight
tolerance. The effective tolerance is recorded on the estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from . import config
from .config import Settings, _bound, _exact
from .dynamics import (_CODE, COMPLETED, DIVERGED, LEFT_DOMAIN, SINGULAR,
                       TERMINATIONS, DiscreteMap, DomainRegion, _fold_norm,
                       _grid_nodes, _row_norm, as_state, iterate_batch)
from .errors import UnconvergedError
from .geometry import (_Cloud, _box_lower, _diameter_bracket, _hausdorff_lower_bounds,
                       _margin, _prepare, diameter, directed_hausdorff, hausdorff,
                       sampling_gap, split_discrepancy)
from .serialize import _coerce


@dataclass(frozen=True)
class LimitSetEstimate:
    """A tail-window point cloud standing in for an omega/alpha-limit set.

    Its ``diameter`` is :func:`geometry.diameter` of ``points``, computed when
    first read and kept on the prepared window; the shape test reads it only
    where its one-row bounds leave the shape open (:func:`_classify_shape`)."""

    points: np.ndarray           # (m, d); the last tail window
    source: str                  # "omega" | "alpha"
    seed: np.ndarray             # the starting state
    shape: str                   # "fixed-point" | "periodic-orbit" | "curve" | "unknown"
    period: Optional[int]
    converged: bool
    status: str                  # "converged" | "unconverged" | "escaped" | "singular"
    settle_gap: float            # Hausdorff distance between the last two windows
    settle_tol: float            # effective tolerance that was applied to it

    @cached_property
    def _cloud(self) -> _Cloud:
        """The window, prepared. :func:`estimate_omega_batch` hands over the
        one it measured, so clustering reuses its distinct rows, tree and
        sampling gap. Not a field: estimates compare by their values."""
        return _prepare(self.points)

    @property
    def diameter(self) -> float:
        return diameter(self._cloud)


def _classify_shape(window: _Cloud, tol_fp: float, max_period: int):
    """``(shape, period)`` of a tail window: a fixed point when its diameter
    ``D`` is below ``tol_fp``, else a periodic orbit at the first lag ``p <=
    max_period`` whose every step ``|x_{k+p} - x_k|`` is below ``tol_fp``,
    else a curve when its sampling gap is below ``0.05 D``, else unknown.

    Both tests on ``D`` are monotone in it, so each is first put to the ends
    of the bracket ``low <= D <= high`` of :func:`geometry._diameter_bracket`,
    taken from one row of distances; where the two ends agree, so does ``D``.
    Only a threshold inside the bracket needs the full O(m^2) diameter, which
    the window then keeps. The shapes are those of comparing ``D`` itself."""
    low, high = _diameter_bracket(window)

    def decided(test) -> bool:
        at_low = test(low)
        return at_low if at_low == test(high) else test(diameter(window))

    if decided(lambda diam: diam < tol_fp):
        return "fixed-point", 1
    points = window.points
    # lag p passes when every |x_{k+p} - x_k| < tol_fp, so |x_p - x_0| must;
    # those first distances, taken for all lags at once, leave few lags to
    # check in full, still in ascending order. A square that overflows is
    # inf, which no lag passes
    lags = min(max_period, len(points) - 1)
    with np.errstate(over="ignore"):
        first = _row_norm(points[1:lags + 1] - points[0])
        for p in np.flatnonzero(first < tol_fp) + 1:
            lagged = _row_norm(points[p:] - points[:-p])
            if lagged.max() < tol_fp:
                return "periodic-orbit", int(p)
    gap = sampling_gap(window)
    if decided(lambda diam: gap < 0.05 * diam):
        return "curve", None
    return "unknown", None


def estimate_omega(system: DiscreteMap, x0, cfg: Optional[Settings] = None,
                   source: str = "omega") -> LimitSetEstimate:
    """Forward limit-set estimate at ``x0``.

    Escape (divergence or leaving the domain) and singular hits are embedded
    in the returned status rather than raised — an orbit with no forward limit
    set is a result, not a failure.
    """
    return estimate_omega_batch(system, [x0], cfg, source)[0]


_STATUS_OF = {DIVERGED: "escaped", LEFT_DOMAIN: "escaped", SINGULAR: "singular"}


def estimate_omega_batch(system: DiscreteMap, seeds,
                         cfg: Optional[Settings] = None,
                         source: str = "omega") -> list[LimitSetEstimate]:
    """:func:`estimate_omega` at every seed, with the orbits stepped in lockstep.

    The burn runs for all seeds at once, then one tail window at a time for
    the seeds that have not yet settled, escaped or hit a singularity; the
    shape of each seed's last window is then classified. Estimates come back
    in seed order, and each equals the one-seed estimate to the bit: no
    seed's result depends on which seeds share the call. Each tail window is
    prepared once (:func:`geometry._prepare`) for its settle test, the next
    round's comparison and its shape; the estimate keeps it for
    :func:`cluster_limit_sets`.
    """
    cfg = cfg or Settings()
    seeds = [as_state(s, system.dim) for s in seeds]
    if not seeds:
        return []
    out: list[Optional[LimitSetEstimate]] = [None] * len(seeds)

    def fail(i, cause, point):
        points = np.atleast_2d(point).copy()
        out[i] = LimitSetEstimate(
            points=points, source=source, seed=seeds[i], shape="unknown", period=None,
            converged=False, status=_STATUS_OF[cause],
            settle_gap=float("inf"), settle_tol=cfg.tol_settle)

    burn = iterate_batch(system, np.stack(seeds), cfg.burn, r_div=cfg.r_div)
    rows = []
    for i in range(len(seeds)):
        if burn.cause(i) == COMPLETED:
            rows.append(i)
        else:
            fail(i, burn.cause(i), burn.last[i])
    current = burn.last[rows]

    prev: dict[int, _Cloud] = {}
    # each seed's last window, whose shape is classified after the loop: done
    # between a round's window gathers, it took 10% longer on 48 negation seeds
    settled: dict[int, _Cloud] = {}
    gap = dict.fromkeys(rows, float("inf"))
    tol_eff = dict.fromkeys(rows, cfg.tol_settle)
    for _ in range(cfg.max_rounds + 1):
        if not rows:
            break
        run = iterate_batch(system, current, cfg.tail, r_div=cfg.r_div, record=True)
        still = []
        for j, i in enumerate(rows):
            if run.cause(j) != COMPLETED:
                fail(i, run.cause(j), run.last[j])
                continue
            window = _prepare(np.ascontiguousarray(run.states[:, j]))
            if i in prev:
                gap[i] = hausdorff(prev[i], window)
                tol_eff[i] = max(cfg.tol_settle, cfg.gap_factor * split_discrepancy(window))
                if gap[i] <= tol_eff[i]:
                    settled[i] = window
                    continue
            prev[i] = window
            still.append(j)
        rows = [rows[j] for j in still]
        current = run.last[still]

    settled.update((i, prev[i]) for i in rows)
    for i, window in settled.items():
        converged = gap[i] <= tol_eff[i]
        shape, period = _classify_shape(window, cfg.tol_fp, cfg.max_period)
        est = LimitSetEstimate(points=window.points, source=source, seed=seeds[i],
                               shape=shape, period=period,
                               converged=converged,
                               status="converged" if converged else "unconverged",
                               settle_gap=float(gap[i]), settle_tol=float(tol_eff[i]))
        vars(est)["_cloud"] = window        # the cached_property's slot
        out[i] = est
    return out


def estimate_alpha(system: DiscreteMap, x0,
                   cfg: Optional[Settings] = None) -> LimitSetEstimate:
    """Backward limit-set estimate: the omega estimate of the inverse dynamics."""
    return estimate_omega(system.reversed(), x0, cfg, source="alpha")


# -- clustering --------------------------------------------------------------

_MEMBER_CAP = 2048  # a merged member's windows are thinned evenly beyond this


@dataclass(frozen=True)
class CatalogMember:
    """One distinct limit set of a catalog: its stored cloud, the shape and
    period of its first estimate, and its sampling gap as ``resolution``.
    Its ``diameter`` is :func:`geometry.diameter` of ``points``, computed
    when first read (by the catalog report) and kept on the prepared cloud;
    basin maps and sweeps never read it."""

    label: str
    points: np.ndarray
    shape: str
    period: Optional[int]
    first_seed: np.ndarray
    n_estimates: int
    precompact: bool
    resolution: float            # sampling gap of the stored cloud

    @cached_property
    def _cloud(self) -> _Cloud:
        """The stored cloud, prepared once for every match, separation and
        basin query against this member. :func:`cluster_limit_sets` hands over
        the cloud it measured, a lone window or a merged member's thinned
        windows. Not a field: members compare by their values."""
        return _prepare(self.points)

    @property
    def diameter(self) -> float:
        return diameter(self._cloud)


@dataclass(frozen=True)
class LimitSetCatalog:
    members: tuple[CatalogMember, ...]
    tol_cluster: float
    gap_factor: float = Settings.gap_factor

    def __post_init__(self):
        # stored as floats, so the catalog report writes 1.0 for a tolerance of 1
        object.__setattr__(self, "tol_cluster", float(self.tol_cluster))
        object.__setattr__(self, "gap_factor", float(self.gap_factor))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def labels(self) -> list[str]:
        return [m.label for m in self.members]

    def member(self, label: str) -> CatalogMember:
        for m in self.members:
            if m.label == label:
                return m
        raise KeyError(label)

    def min_separation(self) -> float:
        """The smallest Hausdorff distance between two members (inf below two).

        Pairs are measured in ascending order of a lower bound on their
        distance (:func:`geometry._hausdorff_lower_bounds`), and the walk stops
        at the first pair whose bound reaches the smallest distance so far: no
        pair from there on can be closer. The result is the all-pairs minimum
        to the bit."""
        k = len(self.members)
        if k < 2:
            return float("inf")
        clouds = [m._cloud for m in self.members]
        first, second = np.triu_indices(k, 1)
        bound = np.concatenate([_hausdorff_lower_bounds(clouds[i], clouds[i + 1:])
                                for i in range(k - 1)])
        best = float("inf")
        for n in np.argsort(bound, kind="stable"):
            if bound[n] >= best:
                break
            best = min(best, hausdorff(clouds[first[n]], clouds[second[n]]))
        return best

    def match_tolerance(self, member: CatalogMember) -> float:
        return max(self.tol_cluster, self.gap_factor * member.resolution)

    def match(self, points) -> Optional[str]:
        """Label of the member the cloud sits on (one-sided, resolution-aware):
        the member at the smallest directed Hausdorff distance from the cloud,
        if that is within its match tolerance. The cloud is prepared once and
        each member's cloud is kept on the member, so repeated matches
        deduplicate neither again."""
        best_label, best_d = None, float("inf")
        points = _prepare(points)
        for m in self.members:
            d = directed_hausdorff(points, m._cloud)
            if d <= self.match_tolerance(m) and d < best_d:
                best_label, best_d = m.label, d
        return best_label


def _thin(points: np.ndarray, cap: int = _MEMBER_CAP) -> np.ndarray:
    if len(points) <= cap:
        return points
    idx = np.linspace(0, len(points) - 1, cap).astype(int)
    return points[idx]


def cluster_limit_sets(estimates: Sequence[LimitSetEstimate],
                       cfg: Optional[Settings] = None) -> LimitSetCatalog:
    """Greedy Hausdorff clustering of converged estimates into distinct limit
    sets.

    Each estimate is compared with the first window of every cluster so far:
    a converged window already stands for its whole limit set, as its settle
    test held it against the window before. It joins the cluster whose first
    window is at the smallest Hausdorff distance below the merge tolerance,
    the first such one on a tie, or starts a new cluster. Two samples of one
    curve can sit half a sampling gap apart, so the merge tolerance is
    ``max(cfg.tol_cluster, cfg.gap_factor * g)``, with ``g`` the larger
    sampling gap of the two windows. The windows come prepared by the
    estimator, with their trees and gaps. A cluster whose lower bound
    (:func:`geometry._hausdorff_lower_bounds`) already reaches its merge
    tolerance or the best distance so far cannot be the one joined, so its
    distance is not computed; the clusters come out as if every distance were.

    A member of one estimate keeps that window's prepared cloud. A merged
    member holds its windows in the order they joined, thinned once to at
    most ``_MEMBER_CAP`` rows evenly across them (:func:`_thin`); its
    ``resolution`` is that cloud's sampling gap. Labels follow the seeds of
    the clusters' first estimates, sorted as tuples. Estimate order decides
    which window anchors a cluster, so it can change the labels and which
    windows a member holds: with rotation-scaling's default seeds ``S0`` is
    the origin, with the same seeds reversed it is the circle, whose first
    estimate then has the seed ``(-1.5, 0.25)``. The catalog records both
    settings."""
    cfg = cfg or Settings()
    tol_cluster, gap_factor = cfg.tol_cluster, cfg.gap_factor
    if len(estimates) == 0:
        raise ValueError("no estimates to cluster")
    bad = [i for i, e in enumerate(estimates) if not e.converged]
    if bad:
        raise UnconvergedError(f"estimates at positions {bad} did not converge; "
                               "cluster only converged estimates", estimates[bad[0]])

    clusters: list[list[LimitSetEstimate]] = []
    for est in estimates:
        cloud = est._cloud
        tol_own = max(tol_cluster, gap_factor * cloud.gap)
        hit = None
        best = float("inf")
        firsts = [c[0]._cloud for c in clusters]
        for c, first, bound in zip(clusters, firsts,
                                   _hausdorff_lower_bounds(cloud, firsts)):
            tol = min(best, max(tol_own, gap_factor * first.gap))
            if bound < tol and (d := hausdorff(cloud, first)) < tol:
                hit, best = c, d
        if hit is None:
            clusters.append([est])
        else:
            hit.append(est)

    clusters.sort(key=lambda c: tuple(c[0].seed))
    members = []
    for i, ests in enumerate(clusters):
        first = ests[0]
        cloud = (first._cloud if len(ests) == 1 else
                 _Cloud(_thin(np.vstack([e._cloud.points for e in ests]))))
        member = CatalogMember(
            label=f"S{i}",
            points=cloud.points,
            shape=first.shape,
            period=first.period,
            first_seed=first.seed,
            n_estimates=len(ests),
            precompact=all(e.status == "converged" for e in ests),
            resolution=float(cloud.gap),
        )
        vars(member)["_cloud"] = cloud     # the cached_property's slot
        members.append(member)
    return LimitSetCatalog(members=tuple(members), tol_cluster=tol_cluster,
                           gap_factor=gap_factor)


def catalog_from_seeds(system: DiscreteMap, seeds, cfg: Optional[Settings] = None):
    """Estimate omega at each seed and cluster what converged.

    ``seeds`` lists states, as :func:`estimate_omega_batch` takes them: for a
    1-d system a flat list of numbers is one seed per number.
    Returns ``(catalog, skipped)`` where skipped lists (seed, status) for
    orbits that escaped, hit a singularity, or failed to settle. The
    estimates read ``cfg``'s estimator fields, and the clustering, and so
    every match tolerance, its ``tol_cluster`` and ``gap_factor``.
    """
    cfg = cfg or Settings()
    seeds = [as_state(s, system.dim) for s in seeds]
    ests, skipped = [], []
    for s, est in zip(seeds, estimate_omega_batch(system, seeds, cfg)):
        if est.converged:
            ests.append(est)
        else:
            skipped.append((s, est.status))
    if not ests:
        raise UnconvergedError("no seed produced a converged estimate")
    return cluster_limit_sets(ests, cfg), skipped


# -- basins ------------------------------------------------------------------

CODE_UNDETERMINED = -1
CODE_SINGULAR = -2
CODE_ESCAPED = -3

_SPECIAL_LABELS = {CODE_UNDETERMINED: "undetermined",
                   CODE_SINGULAR: "singular",
                   CODE_ESCAPED: "escaped"}

# basin code of each engine termination code; the causes group as in _STATUS_OF
_BASIN_CODE = np.array([{"escaped": CODE_ESCAPED, "singular": CODE_SINGULAR}.get(
    _STATUS_OF.get(cause), CODE_UNDETERMINED) for cause in TERMINATIONS], dtype=np.int16)


_BATCH = 65536      # most grid nodes settled in one chunk; bounds its memory


@dataclass(frozen=True)
class BasinMap:
    """Grid of limit-set labels: each node's orbit was settled and matched."""

    region: DomainRegion
    resolution: tuple[int, ...]
    axes: tuple[np.ndarray, ...]     # per-axis node coordinates (inclusive)
    codes: np.ndarray                # member index or a CODE_* sentinel
    catalog: LimitSetCatalog
    params: dict

    def label_of_code(self, code: int) -> str:
        if code >= 0:
            return self.catalog.members[code].label
        return _SPECIAL_LABELS[int(code)]

    def node(self, idx: tuple[int, ...]) -> np.ndarray:
        return np.array([self.axes[a][i] for a, i in enumerate(idx)], dtype=float)

    def label_at(self, idx: tuple[int, ...]) -> str:
        return self.label_of_code(int(self.codes[idx]))


class _SettleStage:
    """The nearest-member query of :func:`_settle_batch`, for one catalog.

    It holds the member points (the distinct rows of every member, stacked
    in catalog order), the member that owns each, the members' boxes and
    match tolerances, a KD tree on the points, and each point's successor:
    the tree's nearest member point to the point's image under the map, or
    -1 where the point is outside the domain (an excluded point included) or
    its image is not finite. The points take one checked step together and
    their images are asked of the tree in one query. ``succ`` ends with one
    more -1, which an anchor of -1 reads.

    Each point also has its separation ``sep``: the :func:`geometry._box_lower`
    distance from the point to the nearest box of another member (+inf when
    the catalog has one member). :meth:`nearest` gives each row the tree's
    answer, or a bound that gives the same owner. With ``u`` the row's
    distance to its candidate point ``p``, of member ``i``, widened by the
    margin ``(rho, alpha)`` of :func:`geometry._margin`, the separation test
    ``u <= tol_i`` and ``(u + u)(1 + rho) + alpha < sep[p]`` settles the row
    on ``i`` with distance ``u``, for this reason. Write ``|.|`` for exact
    distances, ``D_j`` for the exact distance to member ``j``'s box, ``e_r =
    (d + 2) eps`` and ``e_a = sqrt(d) 2**-537`` for the errors of a computed
    distance, the tree's included, so that ``rho = 16 e_r`` and ``alpha = 16
    e_a``. The widening puts ``u`` above the tree's distance to ``p`` as well
    as the exact one: ``|q - p| <= u - 15 alpha / 16``. The narrowing puts
    ``sep[p]`` below the exact distance: ``D_j(p) >= sep[p] > 2u (1 + rho) +
    alpha``, less the few ulps of rounding the test itself makes, which
    ``rho`` covers many times over. A box distance is 1-Lipschitz, so every
    point ``x`` of another member ``j`` has ``|q - x| >= D_j(q) >= D_j(p) -
    |q - p| > u (1 + 2 rho) + alpha``, and the tree's distance to ``x`` is
    that less at most ``e_r`` of it and ``e_a``, still above ``u``. So the
    tree's nearest point lies in ``i``, at a distance of at most ``u <=
    tol_i``: the owner is the tree's, and both distances are within ``tol_i``.
    A bound that overflows fails ``u <= tol_i``, and a separation that
    overflows is ``-inf``, so neither settles a row; a tie, a near-tie or an
    underflowed distance fails the margin and goes to the tree."""

    def __init__(self, system: DiscreteMap, member_pts: list[np.ndarray], tol: np.ndarray):
        self.points = np.vstack(member_pts)
        sizes = [len(p) for p in member_pts]
        self.owners = np.repeat(np.arange(len(sizes)), sizes)
        self.first = np.cumsum([0] + sizes[:-1])
        self.lo = np.array([p.min(axis=0) for p in member_pts])
        self.hi = np.array([p.max(axis=0) for p in member_pts])
        self.tol = tol
        self.margin = _margin(self.points.shape[1])
        self.columns = self.points.T.copy()     # each coordinate, contiguous
        self.tree = cKDTree(self.points)
        self.succ = np.full(len(self.points) + 1, -1, dtype=np.intp)
        run = iterate_batch(system, self.points, 1, r_div=np.inf)
        done = np.flatnonzero(run.termination == _CODE[COMPLETED])
        self.succ[done] = self.tree.query(run.last[done], k=1)[1]
        self.sep = np.full(len(self.points), np.inf)
        for i, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            box = _box_lower(self.points, lo, hi)
            box[self.owners == i] = np.inf
            np.minimum(self.sep, box, out=self.sep)

    def _bound(self, Q: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Each row's distance to its candidate member point, widened by the
        margin. The rows less their candidate points go to the fold a column
        at a time, each formed in place in its gathered column: a row gather
        of the points costs more, and so do fresh buffers."""
        rho, alpha = self.margin
        norm = _fold_norm(np.subtract(q, p, out=p) for q, p in
                          zip(Q.T, (column[cand] for column in self.columns)))
        norm *= 1 + rho
        norm += alpha
        return norm

    def nearest(self, Q: np.ndarray, anchor: np.ndarray, live: np.ndarray):
        """``(who, dist, cand)`` per row of ``Q``, whose ``anchor`` is a member
        point index or -1. A row's candidate is its anchor's successor or, with
        none, the first point of the member whose box is nearest; ``dist`` is
        its bound and ``who`` its owner. A ``live`` row the separation test
        leaves open takes the tree's nearest point, distance and owner
        instead. The point each row was measured against is its next
        anchor."""
        rho, alpha = self.margin
        cand = self.succ[anchor]
        lost = cand < 0
        if lost.any():
            lower = [_box_lower(Q[lost], lo, hi) for lo, hi in zip(self.lo, self.hi)]
            cand[lost] = self.first[np.argmin(lower, axis=0)]
        who = self.owners[cand]
        with np.errstate(over="ignore"):
            dist = self._bound(Q, cand)
            ask = live & ~((dist <= self.tol[who])
                           & ((dist + dist) * (1 + rho) + alpha < self.sep[cand]))
        if ask.any():
            dist[ask], cand[ask] = self.tree.query(Q[ask], k=1)
            who[ask] = self.owners[cand[ask]]
        return who, dist, cand


def _settle_batch(system: DiscreteMap, X0: np.ndarray, catalog: LimitSetCatalog,
                  cfg: Settings) -> np.ndarray:
    """Settle a batch of start points and match each tail to a catalog member:
    the one basin labelling, of the grid nodes of :func:`compute_basins` and
    the sequence points of :func:`basin_closedness_witness` alike.
    :func:`iterate_batch`, with ``cfg.escape_radius`` as ``r_div``, runs the
    ``cfg.basin_burn`` steps and then each of the ``cfg.basin_window`` window
    steps after its nearest-member query; a row it stops gets the code of its
    cause.

    A row is labelled ``i`` when every window state's nearest member point
    belongs to member ``i`` at a distance of at most ``tol_i``, the member's
    match tolerance. The codes are those of asking the KD tree at every
    window step: a row turns inconsistent at the first step whose nearest
    member differs from its first one or whose distance exceeds that
    member's tolerance, and is not asked again (a step with no consistent
    row asks nothing); it keeps stepping, as it may yet stop. At the end
    every consistent row still going takes its owner.

    :meth:`_SettleStage.nearest` answers a row without the tree where the
    separation test of :class:`_SettleStage` proves the tree's owner, with a
    distance within its tolerance. It measures the row against a candidate
    member point, chosen so that the bound is small. A limit set is
    invariant, so the image of a member point lies near another point of the
    same member, and a state near member point ``p`` steps to a state near
    ``f(p)``. Each row therefore carries an anchor, the member point it was
    last measured against (the candidate that settled it, or the tree's
    nearest point), and its next candidate is the anchor's successor: the
    member point nearest the anchor's image, found once, when the stage is
    built. A row with no anchor yet, or whose anchor has no successor, takes
    the first distinct point of the member whose box is nearest.

    While no row has stopped, the window loop reads and writes its per-row
    records through a full slice, with no gather and scatter by row index.

    The tree and the bounds run on the distinct rows of each member's cloud,
    which the member keeps: copies of a point add nothing to a nearest-member
    query but still cost tree depth, and a fixed-point member is hundreds of
    copies of one point."""
    n = len(X0)
    codes = np.full(n, CODE_UNDETERMINED, dtype=np.int16)
    stage = _SettleStage(system, [m._cloud.distinct for m in catalog.members],
                         np.array([catalog.match_tolerance(m) for m in catalog.members]))

    def advance(rows, X, k):
        run = iterate_batch(system, X, k, r_div=cfg.escape_radius)
        going = run.termination == _CODE[COMPLETED]
        if going.all():
            return rows, run.last
        codes[rows[~going]] = _BASIN_CODE[run.termination[~going]]
        return rows[going], run.last[going]

    rows, X = advance(np.arange(n), X0, cfg.basin_burn)
    owner = np.full(n, -1, dtype=np.int32)
    anchor = np.full(n, -1, dtype=np.intp)
    consistent = np.ones(n, dtype=bool)
    for step in range(cfg.basin_window):
        if rows.size == 0:
            break
        asked = slice(None) if rows.size == n else rows     # no stop yet: views
        live = consistent[asked]
        if live.any():
            who, d, anchor[asked] = stage.nearest(X, anchor[asked], live)
            if step == 0:
                owner[asked] = who
            consistent[asked] &= (owner[asked] == who) & (d <= stage.tol[who])
        rows, X = advance(rows, X, 1)

    # basin_window >= 1, so every consistent row still going has an owner
    rows = rows[consistent[rows]]
    codes[rows] = owner[rows]
    return codes


def compute_basins(system: DiscreteMap, catalog: LimitSetCatalog,
                   region: Optional[DomainRegion] = None, resolution=101,
                   cfg: Optional[Settings] = None, threads: int = 1) -> BasinMap:
    """Label every grid node of ``region`` with the catalog member its orbit
    settles onto (``resolution`` nodes per axis, endpoints included).

    A node's orbit drops ``cfg.basin_burn`` steps, and the node is labeled
    only when the next ``cfg.basin_window`` states sit entirely within the
    member's match tolerance. Orbits that hit an excluded point or a
    non-finite image are ``singular``, orbits that leave the domain or get a
    coordinate past ``cfg.escape_radius`` are ``escaped``, the rest
    ``undetermined``; the image of the last window state is checked too. The
    map's ``params`` record the three settings as ``burn``, ``window`` and
    ``escape_radius``. :func:`basin_closedness_witness` labels its sequence
    points by the same :func:`_settle_batch`, so a point and a node at the
    same place get the same code.

    The nodes are settled in ``max(threads, ceil(nodes / _BATCH))`` chunks of
    near-equal size, but no more chunks than nodes, so that every thread has
    one and no chunk holds more than ``_BATCH``; ``min(threads, chunks)``
    threads run them. ``threads`` is at most ``config.MAX_THREADS``. A
    node's code does not depend on its chunk: :func:`_settle_batch` decides
    each row on its own, and its codes are those of asking the KD tree for
    the nearest member point at every window step. ``threads`` and each
    ``resolution`` must be integers, or it is a ``ValueError``.
    """
    threads = _exact(int, "threads", threads)
    for r in np.ravel(resolution).tolist():
        _exact(int, "resolution", r)
    _bound("threads", threads, 1, config.MAX_THREADS)
    if np.min(resolution) < 1:
        raise ValueError(f"resolution must be >= 1 node per axis, got {resolution}")
    cfg = cfg or Settings()
    region = region or system.domain
    axes = region.grid(resolution)
    res = tuple(len(a) for a in axes)
    centers = _grid_nodes(axes)
    n = len(centers)
    chunks = np.array_split(centers, min(n, max(threads, -(-n // _BATCH))))

    def settle(X):
        return _settle_batch(system, X, catalog, cfg)

    workers = min(threads, len(chunks))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(settle, chunks))
    else:
        parts = [settle(X) for X in chunks]
    codes = np.concatenate(parts).reshape(res)

    params = {
        "burn": cfg.basin_burn, "window": cfg.basin_window,
        "escape_radius": cfg.escape_radius,
        "tol_cluster": catalog.tol_cluster,
        "match_tolerances": {m.label: catalog.match_tolerance(m)
                             for m in catalog.members},
    }
    return BasinMap(region=region, resolution=res, axes=tuple(axes),
                    codes=codes, catalog=catalog, params=params)


# -- closedness witnesses ------------------------------------------------------

@dataclass(frozen=True)
class ClosednessWitness:
    """A shrinking sequence whose limit leaves the basin it rode in on.

    Every ``sequence`` point has limit set ``sequence_label``; the limit point
    has ``limit_label != sequence_label`` — so the domain of attraction of
    ``sequence_label`` is not closed.
    """

    sequence_seed: np.ndarray
    limit_point: np.ndarray
    sequence: np.ndarray
    sequence_label: str
    limit_label: str


def _boundary_pairs(basins: BasinMap):
    """Neighbouring nodes ``(a, b)`` with different codes, ``a`` labelled,
    ordered as a row-major walk meets them: by the lower node of the two,
    then by axis, the pair that starts at the lower node first."""
    codes = basins.codes
    keys, pairs = [], []
    for axis in range(codes.ndim):
        def cut(part):
            return tuple(part if a == axis else slice(None) for a in range(codes.ndim))
        lower = np.argwhere(codes[cut(slice(0, -1))] != codes[cut(slice(1, None))])
        upper = lower.copy()
        upper[:, axis] += 1
        flat = np.ravel_multi_index(lower.T, codes.shape)
        for order, (a, b) in enumerate(((lower, upper), (upper, lower))):
            keep = codes[tuple(a.T)] >= 0
            keys.append(np.stack([flat[keep], np.full(keep.sum(), axis),
                                  np.full(keep.sum(), order)]))
            pairs.append(np.stack([a[keep], b[keep]], axis=1))
    keys, pairs = np.concatenate(keys, axis=1), np.concatenate(pairs)
    for k in np.lexsort(keys[::-1]):
        yield tuple(int(v) for v in pairs[k, 0]), tuple(int(v) for v in pairs[k, 1])


def basin_closedness_witness(system: DiscreteMap, basins: BasinMap,
                             cfg: Optional[Settings] = None) -> list[ClosednessWitness]:
    """Search basin boundaries for evidence that a domain of attraction is not
    closed: a sequence shrinking toward a neighboring node whose members all
    settle on one limit set while the node itself settles on another.

    Heuristic and bounded (first ``cfg.witness_max_pairs`` boundary pairs in
    row-major order, ``cfg.witness_depth`` sequence points each); an empty
    result is consistent with closed basins on the sampled grid, not a proof.
    The labelling is the map's: a pair is a candidate only when its limit
    node has a member code, which is the limit label, and the sequence points
    of every candidate are settled together by :func:`_settle_batch`, with
    ``cfg``'s basin settling fields, as :func:`compute_basins` settles the
    nodes. A candidate is a witness when each of its points gets the code of
    the pair's labelled node.
    """
    cfg = cfg or Settings()
    cases = []
    for a_idx, b_idx in itertools.islice(_boundary_pairs(basins), cfg.witness_max_pairs):
        if basins.codes[b_idx] >= 0:
            xa, xb = basins.node(a_idx), basins.node(b_idx)
            sequence = np.array([xb + (xa - xb) * 2.0 ** (-j)
                                 for j in range(1, cfg.witness_depth + 1)])
            cases.append((a_idx, b_idx, xa, xb, sequence))
    if not cases:
        return []
    codes = _settle_batch(system, np.concatenate([c[-1] for c in cases]), basins.catalog, cfg)

    witnesses: list[ClosednessWitness] = []
    seen: set[tuple] = set()
    for (a_idx, b_idx, xa, xb, sequence), got in zip(
            cases, codes.reshape(len(cases), cfg.witness_depth)):
        if not (got == basins.codes[a_idx]).all():
            continue
        label_a, label_b = basins.label_at(a_idx), basins.label_at(b_idx)
        key = (label_a, label_b, tuple(np.round(xb, 12)))
        if key in seen:
            continue
        seen.add(key)
        witnesses.append(ClosednessWitness(
            sequence_seed=xa, limit_point=xb, sequence=sequence,
            sequence_label=label_a, limit_label=label_b))
    return witnesses


# -- serialization -----------------------------------------------------------

def write_basin_csv(basins: BasinMap, path) -> None:
    """One row per grid node, row-major: ``i,j,...,label``."""
    dims = len(basins.resolution)
    header = ",".join(chr(ord("i") + a) for a in range(dims)) + ",label"
    label = {code: basins.label_of_code(code) for code in np.unique(basins.codes).tolist()}
    prefix = [""]       # each node's "i,j,...," in row-major order, an axis at a time
    for size in basins.codes.shape:
        step = [f"{i}," for i in range(size)]
        prefix = [p + s for p in prefix for s in step]
    lines = [header] + [p + label[code] for p, code in zip(prefix, basins.codes.ravel().tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def catalog_to_dict(catalog: LimitSetCatalog, max_points: int = 128) -> dict:
    members = [{
        "label": m.label,
        "shape": m.shape,
        "period": m.period,
        "diameter": m.diameter,
        "precompact": m.precompact,
        "first_seed": m.first_seed,
        "n_estimates": m.n_estimates,
        "resolution": m.resolution,
        "representative_points": _thin(m.points, max_points),
    } for m in catalog.members]
    return _coerce({
        "schema_version": 1, "kind": "limit-set-catalog",
        "tol_cluster": catalog.tol_cluster,
        "gap_factor": catalog.gap_factor,
        "min_separation": None if len(catalog) < 2 else catalog.min_separation(),
        "members": members,
    })
