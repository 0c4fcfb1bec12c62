"""Named example systems with known limit sets and, where available, exact
immersions onto linear targets.

Each system is one ``make(**params)`` in ``_SYSTEMS``: it builds a fresh
:class:`DiscreteMap` with vectorized evaluators and an honest domain (poles and
other singular points are excluded up front, so orbits hitting them terminate
as singular rather than overflowing silently), and returns it with its charts,
unbuilt, as zero-argument callables (a linear target's rank test calls LAPACK),
and its default seeds, all for the same parameters. A parameter's default is
the default of its keyword in ``make``. ``exact_immersion`` returns a
catalogued closed-form immersion together with the linear (or simpler) system
it intertwines with — the pair the verification pipeline consumes.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import DiscreteMap, DomainRegion, _fold_norm, _row_norm
from .errors import InvalidParamError, NoExactImmersionError, UnknownSystemError
from .immersion import ImmersionMap
from .linear import LinearSystem, apply_matrix


@dataclass(frozen=True)
class ExactImmersion:
    """A closed-form immersion ``F`` with ``F(f(x)) = target(F(x))`` on its domain."""

    immersion: ImmersionMap
    target: DiscreteMap
    note: str = ""


# -- the two rational maps -----------------------------------------------------

def _mobius_forward(x):
    x = np.asarray(x, dtype=float)
    return -(3.0 * x - 1.0) / (x - 3.0)


def _mobius_backward(x):
    x = np.asarray(x, dtype=float)
    return (3.0 * x + 1.0) / (x + 3.0)


def _mobius_map() -> DiscreteMap:
    return DiscreteMap(
        dim=1,
        forward=_mobius_forward,
        inverse=_mobius_backward,
        domain=DomainRegion.full_space(1, excluded=[3.0]),
        inverse_domain=DomainRegion.full_space(1, excluded=[-3.0]),
        name="mobius",
    )


def _mobius():
    half = LinearSystem(np.array([[0.5]]), name="scale-1/2")
    double = LinearSystem(np.array([[2.0]]), name="scale-2")
    F_low = ImmersionMap(
        dim_in=1, dim_out=1,
        func=lambda X: (np.asarray(X, dtype=float) + 1.0) / (np.asarray(X, dtype=float) - 1.0),
        domain=DomainRegion.interval(-np.inf, 1.0, excluded=[1.0]),
        name="(x+1)/(x-1)")
    F_up = ImmersionMap(
        dim_in=1, dim_out=1,
        func=lambda X: (np.asarray(X, dtype=float) - 1.0) / (np.asarray(X, dtype=float) + 1.0),
        domain=DomainRegion.interval(-1.0, np.inf, excluded=[-1.0]),
        name="(x-1)/(x+1)")
    charts = (
        lambda: ExactImmersion(F_low, half.as_map(),
                               note="x < 1; sends the attracting point to 0"),
        lambda: ExactImmersion(F_up, double.as_map(),
                               note="x > -1; sends the repelling point to 0"),
    )
    return _mobius_map(), charts, (0.0, -0.5, 0.5, 2.0, 1.0)


def _mobius_inverse():
    system, (low, up), _ = _mobius()
    charts = (
        lambda: ExactImmersion(up().immersion, low().target,
                               note="x > -1; roles swap under time reversal"),
        lambda: ExactImmersion(low().immersion, up().target, note="x < 1"),
    )
    return system.reversed(), charts, (0.0, -0.5, 0.5, 2.0, -1.0)


# -- the half-angle cotangent map ------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _arccot(t):
    # branch with range (0, pi); arccot(+inf)=0, arccot(-inf)=pi, arccot(0)=pi/2
    return np.pi / 2.0 - np.arctan(t)


def _cot_forward(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        t = 1.0 / np.tan(x / 2.0)
        return 2.0 * _arccot(t / _SQRT2)


def _cot_backward(y):
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        t = 1.0 / np.tan(y / 2.0)
        return 2.0 * _arccot(_SQRT2 * t)


def _cot_map():
    system = DiscreteMap(
        dim=1,
        forward=_cot_forward,
        inverse=_cot_backward,
        domain=DomainRegion.interval(0.0, np.pi),
        name="cot-map",
    )
    target = _mobius_map().restrict(DomainRegion.interval(-1.0, 1.0))
    F = ImmersionMap(
        dim_in=1, dim_out=1,
        func=lambda X: np.cos(np.asarray(X, dtype=float)),
        domain=DomainRegion.interval(0.0, np.pi),
        name="cos")
    charts = (lambda: ExactImmersion(F, target,
                                     note="cos is injective on [0, pi]; fold at the "
                                          "endpoints squares the multipliers"),)
    return system, charts, (1.0, 2.0, 0.5, 0.0, float(np.pi))


# -- planar rotation with radial contraction to the unit circle -------------------

def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def rotation_block(theta: float) -> LinearSystem:
    """The linear target of the rotation-scaling chart: the rotation by
    ``theta`` on the first two axes and the contraction by 1/2 on the third."""
    A = np.zeros((3, 3))
    A[:2, :2] = _rotation_matrix(theta)
    A[2, 2] = 0.5
    return LinearSystem(A, name=f"rotation-block(theta={theta:g})")


def _circle_chart(X):
    """``(x/r, y/r, (r-1)/r)``: the angle on the unit circle and the radius,
    undefined at the origin."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    P = np.atleast_2d(X)
    r = _row_norm(P)
    with np.errstate(all="ignore"):
        out = np.stack([P[..., 0] / r, P[..., 1] / r, (r - 1.0) / r], axis=-1)
    return out[0] if single else out


def _rotation_scaling(theta: float = 1.0):
    if not (0.0 < theta < 2.0 * np.pi):
        raise InvalidParamError(f"theta must lie in (0, 2*pi), got {theta}")
    rows = _rotation_matrix(theta).tolist()
    R_inv = _rotation_matrix(-theta)

    def forward(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        P = np.atleast_2d(X)
        # (2 / (r + 1)) * (P R^T) one output column at a time, in place: the
        # operations, operands and order of apply_matrix and a scale product,
        # so the same bits without their temporaries and broadcasts
        x, y = P[..., 0], P[..., 1]
        scale = _fold_norm((x, y))
        scale += 1.0
        np.divide(2.0, scale, out=scale)
        out, term = np.empty_like(P), np.empty_like(scale)
        for i, (a, b) in enumerate(rows):
            col = out[..., i]
            np.multiply(x, a, out=col)
            col += np.multiply(y, b, out=term)
            col *= scale
        return out[0] if single else out

    def backward(Y):
        Y = np.asarray(Y, dtype=float)
        single = Y.ndim == 1
        P = np.atleast_2d(Y)
        out, s = apply_matrix(P, R_inv), _row_norm(P)
        with np.errstate(all="ignore"):     # (P R_inv^T) / (2 - s), in place
            np.subtract(2.0, s, out=s)
            np.divide(out, s[..., None], out=out, order="F")
        return out[0] if single else out

    system = DiscreteMap(
        dim=2,
        forward=forward,
        inverse=backward,
        domain=DomainRegion.full_space(2),
        inverse_domain=DomainRegion.annulus(0.0, 2.0),
        name=f"rotation-scaling(theta={theta:g})",
    )
    F = ImmersionMap(
        dim_in=2, dim_out=3, func=_circle_chart,
        domain=DomainRegion.full_space(2, excluded=[[0.0, 0.0]]),
        name="(x/r, y/r, (r-1)/r)")
    charts = (lambda: ExactImmersion(F, rotation_block(theta).as_map(),
                                     note="undefined at the origin — the fixed point "
                                          "there cannot be represented"),)
    return system, charts, ((2.0, 0.0), (0.5, 0.5), (-1.5, 0.25), (0.0, 0.0))


# -- small linear / symmetry examples ---------------------------------------------

def _linear(system: DiscreteMap, seeds):
    """A linear system with the identity as its chart."""
    F = ImmersionMap(dim_in=system.dim, dim_out=system.dim,
                     func=lambda X: np.asarray(X, dtype=float),
                     domain=system.domain, name="identity")
    return system, (lambda: ExactImmersion(F, system, note="already linear"),), seeds


def _negation():
    neg = lambda x: -np.asarray(x, dtype=float)
    return _linear(DiscreteMap(dim=1, forward=neg, inverse=neg,
                               domain=DomainRegion.full_space(1), name="negation"),
                   (0.7, 1.3, 0.0, -0.4))


def _scalar_linear(a: float = 0.5):
    if not np.isfinite(a):
        raise InvalidParamError("a must be finite")
    return _linear(LinearSystem(np.array([[float(a)]]), name=f"scalar-linear(a={a:g})").as_map(),
                   (1.0, -2.0, 0.25))


def _jordan(lam: float = 1.0, m: int = 2):
    """The block's seeds are its ``m`` unit vectors, then the all-ones vector."""
    if not np.isfinite(lam):
        raise InvalidParamError("lam must be finite")
    if not 1 <= m <= 4 or m != int(m):
        raise InvalidParamError(f"block size m must be an integer in 1..4, got {m}")
    m = int(m)
    A = np.eye(m) * float(lam) + np.eye(m, k=1)
    return _linear(LinearSystem(A, name=f"jordan(lam={lam:g},m={m})").as_map(),
                   (*np.eye(m), np.ones(m)))


# -- registry ---------------------------------------------------------------------

# name -> (summary, make); make(**params) returns (system, charts, seeds)
_SYSTEMS: dict[str, tuple[str, Callable[..., tuple]]] = {
    "mobius": ("rational map with an attracting and a repelling fixed point and a pole",
               _mobius),
    "mobius-inverse": ("time reversal of the rational map: the fixed points trade stability",
                       _mobius_inverse),
    "cot-map": ("half-angle cotangent map on [0, pi], conjugate to the rational map via cos",
                _cot_map),
    "rotation-scaling": ("planar rotation with radial pull toward the unit circle",
                         _rotation_scaling),
    "negation": ("sign flip: every nonzero point lies on its own period-2 orbit", _negation),
    "scalar-linear": ("one-dimensional linear contraction/expansion x -> a*x", _scalar_linear),
    "jordan": ("single Jordan block: polynomial transients on top of geometric rates", _jordan),
}


def _defaults(make) -> dict:
    return {p.name: p.default for p in inspect.signature(make).parameters.values()}


def _make(name: str, params: dict) -> tuple:
    """``make(**params)`` of the named system, after checking the names."""
    if name not in _SYSTEMS:
        known = ", ".join(sorted(_SYSTEMS))
        raise UnknownSystemError(f"unknown system {name!r}; catalogued: {known}")
    make = _SYSTEMS[name][1]
    defaults = _defaults(make)
    unknown = set(params) - set(defaults)
    if unknown:
        raise InvalidParamError(
            f"{name} takes parameters {sorted(defaults) or 'none'}; "
            f"got unexpected {sorted(unknown)}")
    return make(**params)


def list_systems() -> list[dict]:
    """The catalogued systems by name, each at its default parameters."""
    out = []
    for name, (summary, make) in sorted(_SYSTEMS.items()):
        system, charts, _ = make()
        out.append({
            "name": name,
            "dim": system.dim,
            "summary": summary,
            "params": _defaults(make),
            "has_exact_immersion": bool(charts),
        })
    return out


def get_system(name: str, **params) -> DiscreteMap:
    return _make(name, params)[0]


def exact_immersions(name: str, **params) -> tuple[ExactImmersion, ...]:
    """All catalogued closed-form immersions for the named system, built."""
    return tuple(chart() for chart in _make(name, params)[1])


def exact_immersion(name: str, variant: int = 0, **params) -> ExactImmersion:
    """The catalogued immersion (first variant by default).

    Raises :class:`NoExactImmersionError` for a system with none; every
    catalogued system has one (the identity, for the linear ones).
    """
    charts = _make(name, params)[1]
    if not charts:
        raise NoExactImmersionError(f"{name} has no catalogued exact immersion")
    if not 0 <= variant < len(charts):
        raise InvalidParamError(
            f"{name} has {len(charts)} immersion variant(s); got variant={variant}")
    return charts[variant]()


def default_seeds(name: str, **params) -> list[np.ndarray]:
    """The named system's default seeds at these parameters, one array each,
    less any seed equal to an earlier one (jordan's all-ones vector at m=1)."""
    seeds = [np.array(s, dtype=float, ndmin=1) for s in _make(name, params)[2]]
    return [s for i, s in enumerate(seeds)
            if not any(np.array_equal(s, t) for t in seeds[:i])]
