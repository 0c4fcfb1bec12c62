"""Diagnostics for candidate immersions between discrete-time systems.

An immersion candidate F is judged by (i) how well it intertwines the two
step maps (`F(f(x)) ~ g(F(x))`), (ii) whether it pushes estimated limit sets
of the source onto limit sets of the target, (iii) whether it glues distinct
limit sets together (collapse), and (iv) whether it glues any *points*
together (injectivity probing). None of these are proofs — they are sampled
evidence with explicit tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import config
from .dynamics import (_CODE, COMPLETED, DiscreteMap, DomainRegion, _row_norm,
                       _step_rows, as_state, iterate_batch)
from .errors import DomainError, UnconvergedError
from .geometry import (_pair, _pair_blocks, _pair_rows, _prepare, diameter,
                       directed_hausdorff, hausdorff, split_discrepancy)
from .limits import (LimitSetCatalog, LimitSetEstimate, Settings, estimate_alpha,
                     estimate_omega)
from .serialize import _coerce


@dataclass(frozen=True)
class ImmersionMap:
    """A candidate immersion ``F: domain -> R^{dim_out}``.

    ``func`` acts on arrays shaped ``(..., dim_in)`` and broadcasts over
    leading axes (set ``vectorized=False`` otherwise). Calls check the domain
    and reject non-finite images with :class:`DomainError`.
    """

    dim_in: int
    dim_out: int
    func: Callable[[np.ndarray], np.ndarray]
    domain: DomainRegion
    name: str = "immersion"
    vectorized: bool = True

    def __call__(self, x) -> np.ndarray:
        return self.apply(as_state(x, self.dim_in)[None])[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Batch map with domain checks; raises on the first offending point."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        ok = self.domain.contains_batch(P)
        if not ok.all():
            bad = P[~ok][0]
            raise DomainError(bad, self.domain.violation(bad), detail=self.name)
        with np.errstate(all="ignore"):
            out = _step_rows(self.func, P, self.vectorized, self.dim_out)
        if not np.isfinite(out).all():
            bad = P[~np.isfinite(out).all(axis=1)][0]
            raise DomainError(bad, "non-finite-image", detail=self.name)
        return out

    def restricted(self, region: DomainRegion) -> "ImmersionMap":
        return replace(self, domain=region)


# -- conjugacy ---------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyReport:
    max_residual: float
    mean_residual: float
    rms_residual: float
    worst_point: np.ndarray
    samples_used: int
    samples_skipped: int

    def to_dict(self) -> dict:
        return _coerce({
            "schema_version": 1, "kind": "conjugacy-report",
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_point": self.worst_point,
            "samples_used": self.samples_used,
            "samples_skipped": self.samples_skipped,
        })


def conjugacy_residual(F: ImmersionMap, f: DiscreteMap, g: DiscreteMap,
                       samples) -> ConjugacyReport:
    """Sampled residual ``||F(f(x)) - g(F(x))||`` over the given states.

    The residual is checked on ``F.domain``: samples outside it or outside
    ``f``'s domain, samples whose step image leaves ``F.domain``, and samples
    with a non-finite image anywhere are skipped and counted, not fatal — but
    at least one sample must survive. A caller that wants every step image
    kept, wherever it lands, passes ``F`` restricted to the full space (the
    dictionary sweep does, because a learned lift is evaluated off the region
    it was fitted on).

    The residual is three stages run in sequence, split at the one place it
    reads ``g``: :func:`_residual_samples` (the kept samples and their source
    step; reads only ``F.domain``, ``f`` and the samples),
    :func:`_residual_images` (``F(x)`` and ``F(f(x))``) and
    :func:`_residual_tail` (``g(F(x))`` and the report). A caller that scores
    many charts or targets on one sample set may run each stage once per
    change of its inputs, as ``lifting.obstruction_sweep`` does; the result
    is this function's.
    """
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[1] != f.dim:
        raise ValueError(f"sample dimension {X.shape[1]} does not match the "
                         f"source system's dimension {f.dim}")
    if F.dim_in != f.dim:
        raise ValueError(f"chart {F.name} takes dimension {F.dim_in}, but the "
                         f"source system has dimension {f.dim}")
    return _residual_tail(g, *_residual_images(F, *_residual_samples(F.domain, f, X)))


_NO_SAMPLES = "no usable conjugacy samples on this domain"


def _residual_samples(domain: DomainRegion, f: DiscreteMap, X: np.ndarray):
    """The residual's first stage: ``(X, Xv, Y)``, the samples ``X`` as
    passed, those finite and in ``domain`` whose one checked step of ``f``
    completes inside ``domain``, and those steps. Raises ``out-of-bounds`` at
    ``X[0]`` when none survive."""
    Xv = X[np.isfinite(X).all(axis=1) & domain.contains_batch(X)]
    run = iterate_batch(f, Xv, 1, r_div=np.inf)
    good = (run.termination == _CODE[COMPLETED]) & domain.contains_batch(run.last)
    if not good.any():
        raise DomainError(X[0], "out-of-bounds", detail=_NO_SAMPLES)
    return X, Xv[good], run.last[good]


def _residual_images(F: ImmersionMap, X: np.ndarray, Xv: np.ndarray, Y: np.ndarray):
    """The second stage: ``(X, Xv, F(Xv), F(Y))`` over the rows where both
    chart images are finite. Raises ``non-finite-image`` at ``X[0]`` when
    none are."""
    with np.errstate(all="ignore"):
        FX = _step_rows(F.func, Xv, F.vectorized, F.dim_out)
        FY = _step_rows(F.func, Y, F.vectorized, F.dim_out)
    finite = np.isfinite(FX).all(axis=1) & np.isfinite(FY).all(axis=1)
    if not finite.any():
        raise DomainError(X[0], "non-finite-image", detail=_NO_SAMPLES)
    return X, Xv[finite], FX[finite], FY[finite]


def _residual_tail(g: DiscreteMap, X: np.ndarray, Xv: np.ndarray,
                   FX: np.ndarray, FY: np.ndarray) -> ConjugacyReport:
    """The last stage, the only one that reads ``g``: ``g(F(x))`` over the
    rows where it is finite, and the report. Raises ``non-finite-image`` at
    ``X[0]`` when it is finite nowhere."""
    with np.errstate(all="ignore"):
        GFX = _step_rows(g.forward, FX, g.vectorized)
    finite = np.isfinite(GFX).all(axis=1)
    Xv, FY, GFX = Xv[finite], FY[finite], GFX[finite]
    if len(Xv) == 0:
        raise DomainError(X[0], "non-finite-image", detail=_NO_SAMPLES)

    res = _row_norm(FY - GFX)
    worst = int(np.argmax(res))
    return ConjugacyReport(
        max_residual=float(res[worst]),
        mean_residual=float(res.mean()),
        rms_residual=float(np.sqrt(np.mean(res ** 2))),
        worst_point=Xv[worst],
        samples_used=int(len(Xv)),
        samples_skipped=int(len(X) - len(Xv)),
    )


# -- limit-set pushforward -----------------------------------------------------

@dataclass(frozen=True)
class PushforwardReport:
    hausdorff_omega: float
    one_sided_omega: float
    hausdorff_alpha: Optional[float]
    one_sided_alpha: Optional[float]
    alpha_status: str            # "checked" | "escape-vacuous" | "no-inverse"
    omega_source: LimitSetEstimate
    omega_target: LimitSetEstimate

    def to_dict(self) -> dict:
        return _coerce({
            "schema_version": 1, "kind": "pushforward-report",
            "hausdorff_omega": self.hausdorff_omega,
            "one_sided_omega": self.one_sided_omega,
            "hausdorff_alpha": self.hausdorff_alpha,
            "one_sided_alpha": self.one_sided_alpha,
            "alpha_status": self.alpha_status,
            "omega_shapes": [self.omega_source.shape, self.omega_target.shape],
        })


def _image_distances(image, est: LimitSetEstimate) -> tuple[float, float]:
    """The Hausdorff distance between ``image`` and the estimate's window, and
    the one-sided distance from ``image`` to it: each cloud prepared once and
    each directed distance taken once (:func:`hausdorff` is their maximum)."""
    image, window = _pair(image, est._cloud)
    one = directed_hausdorff(image, window)
    return max(one, directed_hausdorff(window, image)), one


def pushforward_check(F: ImmersionMap, f: DiscreteMap, g: DiscreteMap, xi,
                      cfg: Optional[Settings] = None) -> PushforwardReport:
    """Compare the image of the source limit-set estimate with the target's own.

    Both omega estimates must converge (:class:`UnconvergedError` otherwise).
    The alpha variant runs when both systems have inverses; backward escape on
    either side is recorded as vacuous rather than failing.
    """
    cfg = cfg or Settings()
    xi = as_state(xi, f.dim)
    z0 = F(xi)

    est_x = estimate_omega(f, xi, cfg)
    est_z = estimate_omega(g, z0, cfg)
    for est, side in ((est_x, "source"), (est_z, "target")):
        if not est.converged:
            raise UnconvergedError(
                f"omega estimate on the {side} side did not converge "
                f"(status={est.status})", est)

    h_omega, one_omega = _image_distances(F.apply(est_x.points), est_z)

    h_alpha = one_alpha = None
    if f.inverse is None or g.inverse is None:
        alpha_status = "no-inverse"
    else:
        est_xa = estimate_alpha(f, xi, cfg)
        est_za = estimate_alpha(g, z0, cfg)
        if est_xa.status in ("escaped", "singular") or est_za.status in ("escaped", "singular"):
            # the backward orbit leaves the domain, so there is nothing to compare
            alpha_status = "escape-vacuous"
        elif est_xa.converged and est_za.converged:
            h_alpha, one_alpha = _image_distances(F.apply(est_xa.points), est_za)
            alpha_status = "checked"
        else:
            raise UnconvergedError("alpha estimate did not converge and did not escape")

    return PushforwardReport(
        hausdorff_omega=float(h_omega), one_sided_omega=float(one_omega),
        hausdorff_alpha=h_alpha, one_sided_alpha=one_alpha,
        alpha_status=alpha_status, omega_source=est_x, omega_target=est_z)


# -- collapse ------------------------------------------------------------------

@dataclass(frozen=True)
class CollapseReport:
    labels: tuple[str, ...]
    pairwise: np.ndarray             # Hausdorff distances between member images
    maximal_member: Optional[str]
    collapse_ratio: Optional[float]  # min pairwise / image diameter; None if <2 members
    image_diameter: float
    samples_used: int

    def to_dict(self) -> dict:
        return _coerce({
            "schema_version": 1, "kind": "collapse-report",
            "labels": self.labels,
            "pairwise_hausdorff": self.pairwise,
            "maximal_member": self.maximal_member,
            "collapse_ratio": self.collapse_ratio,
            "image_diameter": self.image_diameter,
            "samples_used": self.samples_used,
        })


_COLLAPSE_SAMPLES = 512     # domain samples drawn for the image diameter


def collapse_report(F: ImmersionMap, catalog: LimitSetCatalog,
                    samples=None, seed: int = config.DEFAULT_SEED) -> CollapseReport:
    """How far apart the images of the catalog's limit sets sit, relative to
    the overall spread of F over its domain.

    Raises :class:`DomainError` if any member point falls outside F's domain —
    that failure is itself evidence (the candidate cannot even represent the
    limit set) — and, with reason ``non-finite-distance``, if a distance
    between two member images or the diameter of the sampled image
    overflows, since a ratio of overflowed distances means nothing.
    ``maximal_member`` is the member whose image contains every other image
    within ``catalog.tol_cluster``, the tolerance the catalog was clustered
    with, one-sidedly, when one exists. Each member's image is prepared once
    (:func:`geometry._prepare`) for all the distances it takes part in.
    """
    images = [_prepare(F.apply(m.points)) for m in catalog.members]
    labels = tuple(m.label for m in catalog.members)
    k = len(images)
    pairwise = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pairwise[i, j] = pairwise[j, i] = hausdorff(images[i], images[j])
            if not np.isfinite(pairwise[i, j]):
                raise DomainError(catalog.members[i].points[0], "non-finite-distance",
                                  detail=f"{F.name}: the distance between the "
                                  f"images of {labels[i]} and {labels[j]} overflows")

    maximal = None
    for i in range(k):
        if all(directed_hausdorff(images[j], images[i]) < catalog.tol_cluster
               for j in range(k) if j != i):
            maximal = labels[i]
            break

    if samples is None:
        rng = np.random.default_rng(seed)
        box = _bounding_box(catalog)
        samples = F.domain.sample(_COLLAPSE_SAMPLES, rng, box=box)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    sample_images = F.apply(samples)
    img_diam = diameter(sample_images)
    if not np.isfinite(img_diam):
        far = int(np.abs(sample_images).max(axis=1).argmax())
        raise DomainError(samples[far], "non-finite-distance",
                          detail=f"{F.name}: the diameter of the sampled image overflows")

    ratio = None
    if k >= 2:
        off = pairwise[np.triu_indices(k, 1)]
        if img_diam > 0:
            ratio = float(off.min() / img_diam)
        else:
            # the whole domain maps to one point: total collapse, not separation
            ratio = 0.0 if off.min() == 0 else float("inf")

    return CollapseReport(labels=labels, pairwise=pairwise, maximal_member=maximal,
                          collapse_ratio=ratio, image_diameter=float(img_diam),
                          samples_used=int(len(samples)))


def _bounding_box(catalog: LimitSetCatalog) -> np.ndarray:
    """Fallback sample box: the catalog's spread, padded, for unbounded domains."""
    pts = np.vstack([m.points for m in catalog.members])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    return np.column_stack([lo - 0.5 * span, hi + 0.5 * span])


# -- injectivity ----------------------------------------------------------------

@dataclass(frozen=True)
class InjectivityReport:
    collisions: tuple               # rows (x, x_prime, input_dist, image_dist), capped
    n_collisions: int               # total found (may exceed len(collisions))
    min_separation_ratio: Optional[float]  # min ||F(x)-F(x')|| / ||x-x'||; None if none separated
    pairs_checked: int
    delta_sep: float
    delta_img: float

    def to_dict(self) -> dict:
        return _coerce({
            "schema_version": 1, "kind": "injectivity-report",
            "collisions": [{"x": a, "x_prime": b, "input_dist": dx, "image_dist": di}
                           for a, b, dx, di in self.collisions],
            "n_collisions": self.n_collisions,
            "min_separation_ratio": self.min_separation_ratio,
            "pairs_checked": self.pairs_checked,
            "delta_sep": self.delta_sep,
            "delta_img": self.delta_img,
        })


def injectivity_probe(F: ImmersionMap, samples,
                      delta_sep: float = config.DELTA_SEP,
                      delta_img: float = config.DELTA_IMG,
                      max_recorded: int = 256) -> InjectivityReport:
    """All-pairs search for samples that are far apart but map close together.

    A collision is ``||x - x'|| > delta_sep`` with ``||F(x) - F(x')|| <
    delta_img``. Also reports the worst contraction ratio over separated
    pairs (zero collisions implies it is positive), or ``None`` when no pair
    is separated. Each unordered pair of in-domain samples is measured once,
    in both spaces, by :func:`geometry._pair_blocks`, and its distances are
    the ones the full pairwise matrices hold. Only the first
    ``max_recorded`` collision pairs are kept, in row-major order of their
    sample indices ``(r, c)``, ``r < c``; ``n_collisions`` counts all.
    A pair whose distance in either space overflows raises
    :class:`DomainError` (``non-finite-distance``) at its first sample.

    ``samples`` may be prepared once by :func:`_probe_samples` for every
    chart probed on them over one domain at one ``delta_sep``; raw samples
    are prepared here, so both give the same report.
    """
    S = _probe_samples(F.domain, samples, delta_sep)
    X = S.X
    FX = F.apply(X)

    collisions = []
    n_collisions = 0
    min_ratio = float("inf")
    n = len(X)
    for (i, b, dx, finite, sep, dx_sep), (_, _, di) in zip(
            S.blocks, _pair_blocks(FX, _PROBE_CHUNK)):
        ok = np.isfinite(di)
        ok &= finite
        if not ok.all():
            _, (r,), (c,) = _pair_rows(n, i, b, np.flatnonzero(~ok), 1)
            raise DomainError(X[r], "non-finite-distance",
                              detail=f"{F.name}: the distance to {X[c]} or "
                              "between their images overflows")
        if dx_sep.size:
            di_sep = di if dx_sep.size == di.size else di[sep]
            min_ratio = min(min_ratio, float((di_sep / dx_sep).min()))
            close = di_sep < delta_img
            n_hit = int(np.count_nonzero(close))
            n_collisions += n_hit
            room = max_recorded - len(collisions)
            if n_hit and room > 0:
                hit = np.flatnonzero(sep)[close]
                pos, rows, cols = _pair_rows(n, i, b, hit, room)
                collisions.extend((X[r], X[c], float(dx[k]), float(di[k]))
                                  for k, r, c in zip(pos, rows, cols))
    return InjectivityReport(collisions=tuple(collisions),
                             n_collisions=n_collisions,
                             min_separation_ratio=min_ratio if S.pairs else None,
                             pairs_checked=S.pairs,
                             delta_sep=float(delta_sep), delta_img=float(delta_img))


_PROBE_CHUNK = 512      # sample rows per block of the probe's pair walk


class _ProbeSamples:
    """Samples prepared for :func:`injectivity_probe`: the part of the probe
    that reads no chart, for one domain at one ``delta_sep``.

    ``X`` holds the in-domain rows of ``samples``, and ``blocks`` one entry
    per :func:`geometry._pair_blocks` block of them, ``(i, b, dx, finite,
    sep, dx_sep)``: the block's first row and row count, its input-space
    pair distances, which of them are finite, which exceed ``delta_sep``,
    and those distances, ``dx[sep]``. ``pairs`` counts the separated pairs
    of all blocks. Make one with :func:`_probe_samples`.
    """

    __slots__ = ("domain", "delta_sep", "X", "blocks", "pairs")

    def __init__(self, domain: DomainRegion, samples: np.ndarray, delta_sep: float):
        X = samples[domain.contains_batch(samples)]
        if len(X) < 2:
            raise ValueError("need at least two in-domain samples")
        self.domain, self.delta_sep, self.X = domain, delta_sep, X
        self.blocks = []
        for i, b, dx in _pair_blocks(X, _PROBE_CHUNK):
            sep = dx > delta_sep
            self.blocks.append((i, b, dx, np.isfinite(dx), sep, dx[sep]))
        self.pairs = sum(block[-1].size for block in self.blocks)


def _probe_samples(domain: DomainRegion, samples, delta_sep: float) -> _ProbeSamples:
    """``samples`` prepared for probing charts on ``domain`` at ``delta_sep``.
    Samples already prepared are returned as they are; prepared for another
    domain or ``delta_sep``, they are refused with a ``ValueError``, as are
    fewer than two samples in ``domain``."""
    if not isinstance(samples, _ProbeSamples):
        return _ProbeSamples(domain, np.atleast_2d(np.asarray(samples, dtype=float)),
                             delta_sep)
    if samples.domain is not domain or samples.delta_sep != delta_sep:
        raise ValueError("these samples were prepared for another domain or delta_sep")
    return samples


# -- forward/backward consistency ------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    detail: str
    hausdorff_distance: Optional[float]
    tolerance: Optional[float]
    omega: LimitSetEstimate
    alpha: Optional[LimitSetEstimate]

    def to_dict(self) -> dict:
        return _coerce({
            "schema_version": 1, "kind": "consistency-report",
            "consistent": self.consistent,
            "detail": self.detail,
            "hausdorff_distance": self.hausdorff_distance,
            "tolerance": self.tolerance,
        })


def omega_alpha_consistency(g: DiscreteMap, z0,
                            cfg: Optional[Settings] = None) -> ConsistencyReport:
    """Do the forward and backward limit sets of ``z0`` agree?

    For a system whose domains of attraction/repulsion are closed, a point in
    both (with precompact orbits both ways) must have matching limit sets —
    a flagged mismatch is evidence the basins are not closed on this domain.
    Escape on either side makes the check vacuous (consistent). The
    estimates read ``cfg``'s estimator fields, and the two sets match within
    ``max(cfg.tol_cluster, cfg.gap_factor * discrepancy)``.
    """
    cfg = cfg or Settings()
    est_o = estimate_omega(g, z0, cfg)
    est_a = estimate_alpha(g, z0, cfg)

    if est_o.status in ("escaped", "singular") or est_a.status in ("escaped", "singular"):
        return ConsistencyReport(consistent=True, detail="escape (vacuous)",
                                 hausdorff_distance=None, tolerance=None,
                                 omega=est_o, alpha=est_a)
    if not (est_o.converged and est_a.converged):
        raise UnconvergedError(
            f"limit-set estimates did not converge (omega={est_o.status}, "
            f"alpha={est_a.status})")
    d = hausdorff(est_o.points, est_a.points)
    # two finite samplings of one curve disagree by about as much as two
    # random halves of either sampling do, so the comparison tolerance
    # adapts to the noisier estimate
    tol_eff = max(cfg.tol_cluster, cfg.gap_factor * max(split_discrepancy(est_o.points),
                                                        split_discrepancy(est_a.points)))
    consistent = d < tol_eff
    detail = "matched" if consistent else "inconsistent: forward and backward limit sets differ"
    return ConsistencyReport(consistent=consistent, detail=detail,
                             hausdorff_distance=float(d), tolerance=float(tol_eff),
                             omega=est_o, alpha=est_a)
