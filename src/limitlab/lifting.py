"""Learning linear representations of a nonlinear step map.

Fits a square matrix ``K`` so that ``Phi(f(x)) ~ K Phi(x)`` over a training
region, where ``Phi`` stacks dictionary functions. The learned ``Phi`` is then
treated as a candidate immersion into the linear system ``z -> K z`` and run
through the same diagnostics as hand-built candidates: conjugacy residual on
held-out samples, limit-set collapse against a catalog, and injectivity
probing. The sweep makes the residual/collapse/injectivity trade-off visible
across dictionary families and sizes.

Every lift is fitted and scored by the stages of one conjugacy residual,
:func:`immersion.conjugacy_residual`'s: :func:`fit_lift` runs its images
stage (``F(x)`` and ``F(f(x))``) and its tail (``K F(x)`` and the norms) on
the training pairs. A sweep draws the training pairs, runs the samples stage
on the held-out samples and prepares those for the injectivity probe once;
per dictionary, the images stage on both sets and the collapse and
injectivity probes; per ridge, only the solve and the held-out tail. That
reuse is exact: nothing but the solve and the tail reads ``K`` or the ridge.

A dictionary evaluates a batch by one evaluator per kind, which computes
what its features share once per batch: a monomial dictionary each product
its monomials share as a prefix, a rational-pole dictionary its base and
running powers, a Fourier dictionary each ``j*x``. Its values are the
per-feature formulas' to the bit. Monomials and rational-pole powers take
only multiplications, in an order the code fixes; an IEEE product is
correctly rounded, so those features do not depend on the host.

Byte-for-byte reproducibility holds per host and numpy build, not across
them, by two paths. First, numpy's SIMD ``tan``, ``arctan`` and ``exp``
loops: with its AVX-512 loops switched off, ``demo --seed 42`` writes a
different ``cot-verify.json``. Second, OpenBLAS's kernel, which it picks at
run time and which forms the Gram products and runs the solve here: under
another kernel the demo writes a different ``mobius-sweep.*`` and
``demo-summary.json``. The demo's catalog, basin, spectral, pushforward and
consistency files stayed byte-identical under every setting tried.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import config
from .dynamics import _CODE, COMPLETED, DiscreteMap, DomainRegion, iterate_batch
from .errors import (CatalogGuardError, DomainError, InvalidParamError,
                     SingularGramError)
from .immersion import (ImmersionMap, _probe_samples, _residual_images,
                        _residual_samples, _residual_tail, collapse_report,
                        injectivity_probe)
from .limits import LimitSetCatalog
from .linear import LinearSystem
from .serialize import _coerce, write_csv


# -- dictionaries -------------------------------------------------------------

@dataclass(frozen=True)
class Dictionary:
    """A finite family of observables ``R^dim -> R``, evaluated as columns.

    A batch is evaluated by the one evaluator of its kind that
    :func:`build_dictionary` made, on the states in C order, into
    one C-ordered ``(m, size)`` array.
    """

    kind: str
    dim: int
    labels: tuple[str, ...]
    _evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Columns ``Phi(X)`` for ``X`` shaped ``(m, dim)`` -> ``(m, size)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError(f"dictionary expects dim {self.dim}, got {X.shape[1]}")
        with np.errstate(all="ignore"):
            # every evaluator, custom ones too, gets the states in C order
            return self._evaluate(np.ascontiguousarray(X))

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.atleast_2d(x))[0]


def _monomials(dim: int, order: int, include_constant: bool):
    """The evaluator and labels of every monomial up to total degree ``order``.

    A monomial is the left-to-right product of its factors in axis order,
    starting from 1.0: ``x1^2*x2`` is ``((1.0*x1)*x1)*x2``, which is
    ``(x1*x1)*x2``. Each monomial is its prefix's product times its last
    factor, so a prefix that monomials share is multiplied out once per call.
    """
    combos = [combo for total in range(0 if include_constant else 1, order + 1)
              for combo in itertools.combinations_with_replacement(range(dim), total)]
    labels = ["*".join(f"x{i + 1}" if c == 1 else f"x{i + 1}^{c}"
                       for i, c in Counter(combo).items()) or "1" for combo in combos]

    def evaluate(X):
        out = np.ones((len(X), len(combos)))
        product = {(): 1.0}
        for col, combo in zip(out.T, combos):
            if combo:
                np.multiply(product[combo[:-1]], X[:, combo[-1]], out=col)
            product[combo] = col
        return out
    return evaluate, labels


def _fourier(order: int, include_constant: bool):
    """``cos(jx)`` and ``sin(jx)`` for ``j`` up to ``order``, ``j*x`` once per ``j``."""
    labels = ["1"] if include_constant else []
    for j in range(1, order + 1):
        labels += [f"cos({j}x)", f"sin({j}x)"]

    def evaluate(X):
        out = np.empty((len(X), len(labels)))
        if include_constant:
            out[:, 0] = 1.0
        for j in range(1, order + 1):
            jx = j * X[:, 0]
            k = int(include_constant) + 2 * (j - 1)
            out[:, k] = np.cos(jx)
            out[:, k + 1] = np.sin(jx)
        return out
    return evaluate, labels


def _rational_pole(order: int, pole: float, include_constant: bool):
    """Powers ``1..order`` of ``(x+pole)/(x-pole)``, its base once per call.

    The powers are a running product starting from 1.0: the ``j``-th is the
    ``(j-1)``-th times the base, so the cube is ``(b*b)*b``.
    """
    labels = ["1"] if include_constant else []
    labels += [f"((x+{pole:g})/(x-{pole:g}))^{j}" if j > 1
               else f"(x+{pole:g})/(x-{pole:g})" for j in range(1, order + 1)]

    def evaluate(X):
        out = np.ones((len(X), len(labels)))
        base = (X[:, 0] + pole) / (X[:, 0] - pole)
        power = 1.0
        for col in out.T[int(include_constant):]:
            power = np.multiply(power, base, out=col)
        return out
    return evaluate, labels


def _custom(funcs: Sequence[Callable]):
    """One column per callable on the whole ``(m, dim)`` batch."""
    def evaluate(X):
        return np.column_stack([np.asarray(fn(X), dtype=float).reshape(len(X))
                                for fn in funcs])
    return evaluate


def build_dictionary(kind: str, dim: int, order: int = 2, *,
                     include_constant: bool = True, pole: float = 1.0,
                     funcs: Optional[Sequence[Callable]] = None,
                     labels: Optional[Sequence[str]] = None) -> Dictionary:
    """Construct a dictionary of observables.

    Kinds: ``monomial`` (all monomials up to total degree ``order``),
    ``fourier`` (1D, ``cos(jx)/sin(jx)`` up to ``order``), ``rational-pole``
    (1D, powers of ``(x+pole)/(x-pole)``), ``custom`` (explicit callables on
    ``(m, dim)`` arrays).
    """
    if order < 0 or order > config.MAX_DICT_ORDER:
        raise InvalidParamError(
            f"dictionary order must lie in [0, {config.MAX_DICT_ORDER}], got {order}")
    if kind == "monomial":
        evaluate, labs = _monomials(dim, order, include_constant)
    elif kind == "fourier":
        if dim != 1:
            raise InvalidParamError("fourier dictionaries are one-dimensional")
        evaluate, labs = _fourier(order, include_constant)
    elif kind == "rational-pole":
        if dim != 1:
            raise InvalidParamError("rational-pole dictionaries are one-dimensional")
        evaluate, labs = _rational_pole(order, pole, include_constant)
    elif kind == "custom":
        if not funcs:
            raise InvalidParamError("custom dictionaries need explicit funcs")
        evaluate = _custom(tuple(funcs))
        labs = list(labels) if labels else [f"phi{i}" for i in range(len(funcs))]
        if len(labs) != len(funcs):
            raise InvalidParamError("labels must match funcs one-to-one")
    else:
        raise InvalidParamError(f"unknown dictionary kind {kind!r}")
    if not labs:
        raise InvalidParamError("dictionary is empty")
    return Dictionary(kind=kind, dim=dim, labels=tuple(labs), _evaluate=evaluate)


# -- training data ------------------------------------------------------------

def training_pairs(system: DiscreteMap, region: Optional[DomainRegion] = None,
                   n_grid: int = config.GRID_SAMPLES,
                   n_random: int = config.RANDOM_SAMPLES,
                   seed: int = config.DEFAULT_SEED,
                   box=None) -> tuple[np.ndarray, np.ndarray]:
    """State/next-state pairs over ``region``: its survey
    (:meth:`DomainRegion.survey`) of about ``n_grid`` grid nodes and
    ``n_random`` draws, less the rows one checked step of the system rejects.
    """
    region = region or system.domain
    per_axis = max(2, int(round(n_grid ** (1.0 / region.dim))))
    X = region.survey(per_axis, n_random, seed, box=box)
    run = iterate_batch(system, X, 1, r_div=np.inf)
    keep = run.termination == _CODE[COMPLETED]
    return X[keep], run.last[keep]


# -- regression ---------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    rms_residual: float
    max_residual: float
    gram_condition: float
    samples_used: int
    ridge: float
    method: str                     # the solver that ran: "normal-equations" | "svd"

    def to_dict(self) -> dict:
        return _coerce({"schema_version": 1, "kind": "fit-report", **asdict(self)})


@dataclass(frozen=True)
class LearnedLift:
    """A fitted dictionary immersion together with its linear target."""

    dictionary: Dictionary
    K: np.ndarray
    domain: DomainRegion
    report: FitReport

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.sort_complex(np.linalg.eigvals(self.K))[::-1]

    def as_immersion(self) -> ImmersionMap:
        return _immersion(self.dictionary, self.domain)

    def lifted_map(self) -> DiscreteMap:
        """``z -> K z`` on the full space, stepped like every linear map: a
        state's image does not depend on what shares its batch."""
        return _lifted_map(self.dictionary, self.K)


def _immersion(dictionary: Dictionary, domain: DomainRegion) -> ImmersionMap:
    return ImmersionMap(dim_in=dictionary.dim, dim_out=dictionary.size,
                        func=dictionary.evaluate, domain=domain,
                        name=f"{dictionary.kind}-lift[{dictionary.size}]")


def _lifted_map(dictionary: Dictionary, K: np.ndarray) -> DiscreteMap:
    name = f"lifted[{dictionary.kind},{dictionary.size}]"
    return LinearSystem(K, name=name).as_map()


def _check_ridge(ridge: float) -> None:
    if not (math.isfinite(ridge) and ridge >= 0):
        raise InvalidParamError(f"ridge must be finite and non-negative, got {ridge}")


def _solve(PhiX: np.ndarray, PhiY: np.ndarray,
           ridge: float) -> tuple[np.ndarray, float, str]:
    """``(K^T, gram condition, method)`` for one ridge, solved as
    :func:`fit_lift` describes."""
    m, N = PhiX.shape
    if m < N:
        raise SingularGramError(
            f"only {m} usable samples for a {N}-function dictionary")
    with np.errstate(over="ignore", invalid="ignore"):
        # products past the float range overflow the Gram matrix: all +inf,
        # its condition is inf and the checks below refuse it; +inf and -inf
        # in one sum give NaN, which the condition number cannot take
        G = PhiX.T @ PhiX + ridge * np.eye(N)
    if np.isnan(G).any():
        raise SingularGramError("the gram matrix has NaN entries: its feature "
                                "products overflow the float range")
    cond = float(np.linalg.cond(G))
    if cond > config.SINGULAR_COND and ridge == 0.0:
        raise SingularGramError(
            f"gram condition {cond:.3e} exceeds {config.SINGULAR_COND:.1e}; "
            "add ridge regularisation or shrink the dictionary")
    if cond > config.SVD_COND_SWITCH:
        if ridge > 0.0:
            A = np.vstack([PhiX, np.sqrt(ridge) * np.eye(N)])
            B = np.vstack([PhiY, np.zeros((N, N))])
        else:
            A, B = PhiX, PhiY
        Kt, *_ = np.linalg.lstsq(A, B, rcond=None)
        method = "svd"
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflow here gives a non-finite K, rejected below
            Kt = np.linalg.solve(G, PhiX.T @ PhiY)
        method = "normal-equations"
    if not np.isfinite(Kt).all():
        raise SingularGramError("the fitted K has non-finite entries")
    return Kt, cond, method


def fit_lift(system: DiscreteMap, dictionary: Dictionary,
             region: Optional[DomainRegion] = None, ridge: float = 0.0,
             seed: int = config.DEFAULT_SEED,
             n_grid: int = config.GRID_SAMPLES,
             n_random: int = config.RANDOM_SAMPLES,
             box=None) -> LearnedLift:
    """Least-squares fit of ``K`` with ``Phi(f(x)) ~ K Phi(x)``.

    Runs the conjugacy residual's images and tail stages on the
    :func:`training_pairs`: the features are the finite rows of the images,
    and the report's residuals are :func:`immersion.conjugacy_residual`'s
    of the lift on those pairs. Uses normal equations while the Gram matrix
    is comfortably conditioned, switching past ``SVD_COND_SWITCH`` to
    ``np.linalg.lstsq``, LAPACK's SVD-based least squares (``gelsd``); the
    report's ``method`` names the solver that ran. Fewer usable rows than
    features, or a Gram condition beyond ``SINGULAR_COND`` with no ridge,
    raise :class:`SingularGramError` instead of returning garbage
    coefficients.
    """
    _check_ridge(ridge)
    region = region or system.domain
    X, Y = training_pairs(system, region, n_grid=n_grid, n_random=n_random,
                          seed=seed, box=box)
    images = _residual_images(_immersion(dictionary, region), X, X, Y)
    Kt, cond, method = _solve(*images[2:], ridge)
    fit = _residual_tail(_lifted_map(dictionary, Kt.T), *images)
    report = FitReport(rms_residual=fit.rms_residual, max_residual=fit.max_residual,
                       gram_condition=cond, samples_used=len(images[2]),
                       ridge=float(ridge), method=method)
    return LearnedLift(dictionary=dictionary, K=Kt.T, domain=region, report=report)


# -- sweep --------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffRow:
    dict_kind: str
    dict_size: int
    ridge: float
    residual_heldout: Optional[float]
    collapse_ratio: Optional[float]
    min_sep_ratio: Optional[float]
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return _coerce(asdict(self))


@dataclass(frozen=True)
class TradeoffReport:
    system_name: str
    rows: tuple[TradeoffRow, ...]
    seed: int

    def to_dict(self) -> dict:
        return _coerce({"schema_version": 1, "kind": "tradeoff-report",
                        "system": self.system_name, "seed": self.seed,
                        "rows": [asdict(r) for r in self.rows]})

    def write_csv(self, path) -> None:
        header = ["dict_kind", "dict_size", "ridge", "residual_heldout",
                  "collapse_ratio", "min_sep_ratio"]
        rows = [[r.dict_kind, r.dict_size, r.ridge,
                 r.residual_heldout, r.collapse_ratio, r.min_sep_ratio]
                for r in self.rows]
        write_csv(path, header, rows)


def obstruction_sweep(system: DiscreteMap, catalog: LimitSetCatalog,
                      specs: Sequence[tuple[str, int]],
                      ridges: Sequence[float] = (0.0,),
                      region: Optional[DomainRegion] = None,
                      seed: int = config.DEFAULT_SEED,
                      pole: float = 1.0, box=None) -> TradeoffReport:
    """Fit every (dictionary spec, ridge) combination and score the resulting
    immersion candidate on held-out samples.

    ``specs`` are ``(kind, order)`` pairs. Scores per row: held-out conjugacy
    RMS residual against the lifted linear system, limit-set collapse ratio
    against ``catalog``, and the worst injectivity separation ratio. The
    residual is :func:`immersion.conjugacy_residual`'s, with the lift checked
    on the full space rather than on ``region``: a held-out sample whose step
    image leaves the training region still counts, since the lift is defined
    there too. Rows that fail to fit (singular Gram, domain escapes) are kept
    with an ``error`` field so the sweep output is total.

    Each piece of work runs once at the level where its inputs change. Once
    per sweep, when first needed: :func:`training_pairs`, the residual's
    samples stage (``immersion._residual_samples``: the held-out samples
    kept on the full space and their one source step) and the injectivity
    probe's input-space stage (``immersion._probe_samples``: the held-out
    samples in ``region``, their pair distances and which pairs are
    separated). Once per dictionary, at its first ridge that gets that far:
    the residual's images stage (``immersion._residual_images``: ``F(x)``
    and ``F(f(x))``) on the training pairs, the solve's features, and on the
    held-out samples, :func:`collapse_report` and :func:`injectivity_probe`.
    Per ridge: the ridge check, the solve and the residual's held-out tail
    (``immersion._residual_tail``: ``K F(x)`` and the report). Reusing the
    shared work is exact, because nothing but the solve and the tail reads
    ``K`` or the ridge. A stage that raised raises the same error again at
    each later ridge, at the same point of the row, so every row is the one
    a fit and a :func:`immersion.conjugacy_residual` call per (spec, ridge)
    give, but for the fit's tail on its training rows, which the sweep skips
    and which raises only if ``K F(x)`` is non-finite on every such row.
    """
    if len(catalog) > config.CATALOG_GUARD:
        raise CatalogGuardError(
            f"catalog has {len(catalog)} members; sweeps are guarded at "
            f"{config.CATALOG_GUARD} to keep pairwise image costs sane")
    region = region or system.domain
    rng = np.random.default_rng(seed + 1)          # held-out draw, distinct stream
    heldout = region.sample(config.RANDOM_SAMPLES, rng, box=box)
    pairs = _once(lambda: training_pairs(system, region, seed=seed, box=box))
    samples = _once(lambda: _residual_samples(DomainRegion.full_space(system.dim),
                                              system, heldout))
    probe_samples = _once(lambda: _probe_samples(region, heldout, config.DELTA_SEP))

    rows = []
    for kind, order in specs:
        try:
            dictionary = build_dictionary(kind, system.dim, order, pole=pole)
        except InvalidParamError as exc:
            # a spec build_dictionary refuses has no size: it reads -1
            rows.extend(TradeoffRow(kind, -1, float(ridge), None, None, None,
                                    error=str(exc)) for ridge in ridges)
            continue
        F = _immersion(dictionary, region)
        features = _once(lambda F=F: _residual_images(F, pairs()[0], *pairs()))
        images = _once(lambda F=F: _residual_images(F, *samples()))
        collapse = _once(lambda F=F: collapse_report(F, catalog, seed=seed))
        injectivity = _once(lambda F=F: injectivity_probe(F, probe_samples()))
        for ridge in ridges:
            try:
                _check_ridge(ridge)
                Kt, _, _ = _solve(*features()[2:], ridge)
                resid = _residual_tail(_lifted_map(dictionary, Kt.T),
                                       *images()).rms_residual
                try:
                    ratio = collapse().collapse_ratio
                except DomainError as exc:
                    rows.append(TradeoffRow(kind, dictionary.size, float(ridge),
                                            resid, None, None,
                                            error=f"collapse: {exc}"))
                    continue
                inj = injectivity()
                rows.append(TradeoffRow(kind, dictionary.size, float(ridge),
                                        resid, ratio, inj.min_separation_ratio))
            except _ROW_ERRORS as exc:
                rows.append(TradeoffRow(kind, dictionary.size, float(ridge),
                                        None, None, None, error=str(exc)))
    rows.sort(key=lambda r: (r.dict_size, r.dict_kind, r.ridge))
    return TradeoffReport(system_name=system.name, rows=tuple(rows), seed=seed)


# The errors a sweep keeps as a row's ``error`` instead of raising.
_ROW_ERRORS = (SingularGramError, DomainError, InvalidParamError)


def _once(fn: Callable):
    """``fn`` made to run at most once: each call returns its value, or
    raises the row error it raised, again."""
    outcome = []

    def call():
        if not outcome:
            try:
                outcome.append((fn(), None))
            except _ROW_ERRORS as exc:
                outcome.append((None, exc))
        value, error = outcome[0]
        if error is not None:
            raise error
        return value
    return call
