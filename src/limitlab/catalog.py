"""Named example systems with known limit sets and, where available, exact
immersions onto linear targets.

Each entry builds a fresh :class:`DiscreteMap` with vectorized evaluators and
an honest domain (poles and other singular points are excluded up front, so
orbits hitting them terminate as singular rather than overflowing silently).
``exact_immersion`` returns the catalogued closed-form immersion together with
the linear (or simpler) system it intertwines with — the pair the verification
pipeline consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import DiscreteMap, DomainRegion, _row_norm
from .errors import InvalidParamError, NoExactImmersionError, UnknownSystemError
from .immersion import ImmersionMap
from .linear import LinearSystem, apply_matrix


@dataclass(frozen=True)
class ExactImmersion:
    """A closed-form immersion ``F`` with ``F(f(x)) = target(F(x))`` on its domain."""

    immersion: ImmersionMap
    target: DiscreteMap
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    summary: str
    defaults: dict = field(default_factory=dict)
    build: Callable[..., DiscreteMap] = None
    immersions: Callable[..., tuple[ExactImmersion, ...]] = None
    seeds: tuple = ()


# -- the two rational maps -----------------------------------------------------

def _mobius_forward(x):
    x = np.asarray(x, dtype=float)
    return -(3.0 * x - 1.0) / (x - 3.0)


def _mobius_backward(x):
    x = np.asarray(x, dtype=float)
    return (3.0 * x + 1.0) / (x + 3.0)


def _build_mobius() -> DiscreteMap:
    return DiscreteMap(
        dim=1,
        forward=_mobius_forward,
        inverse=_mobius_backward,
        domain=DomainRegion.full_space(1, excluded=[3.0]),
        inverse_domain=DomainRegion.full_space(1, excluded=[-3.0]),
        name="mobius",
    )


def _build_mobius_inverse() -> DiscreteMap:
    return _build_mobius().reversed()


def _mobius_immersions() -> tuple[ExactImmersion, ...]:
    half = LinearSystem(np.array([[0.5]]), name="scale-1/2").as_map()
    double = LinearSystem(np.array([[2.0]]), name="scale-2").as_map()
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
    return (
        ExactImmersion(F_low, half, note="x < 1; sends the attracting point to 0"),
        ExactImmersion(F_up, double, note="x > -1; sends the repelling point to 0"),
    )


def _mobius_inverse_immersions() -> tuple[ExactImmersion, ...]:
    half = LinearSystem(np.array([[0.5]]), name="scale-1/2").as_map()
    double = LinearSystem(np.array([[2.0]]), name="scale-2").as_map()
    lo, up = _mobius_immersions()
    return (
        ExactImmersion(up.immersion, half, note="x > -1; roles swap under time reversal"),
        ExactImmersion(lo.immersion, double, note="x < 1"),
    )


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


def _build_cot_map() -> DiscreteMap:
    return DiscreteMap(
        dim=1,
        forward=_cot_forward,
        inverse=_cot_backward,
        domain=DomainRegion.interval(0.0, np.pi),
        name="cot-map",
    )


def _cot_immersions() -> tuple[ExactImmersion, ...]:
    target = _build_mobius().restrict(DomainRegion.interval(-1.0, 1.0))
    F = ImmersionMap(
        dim_in=1, dim_out=1,
        func=lambda X: np.cos(np.asarray(X, dtype=float)),
        domain=DomainRegion.interval(0.0, np.pi),
        name="cos")
    return (ExactImmersion(F, target,
                           note="cos is injective on [0, pi]; fold at the endpoints "
                                "squares the multipliers"),)


# -- planar rotation with radial contraction to the unit circle -------------------

def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _build_rotation_scaling(theta: float = 1.0) -> DiscreteMap:
    if not (0.0 < theta < 2.0 * np.pi):
        raise InvalidParamError(f"theta must lie in (0, 2*pi), got {theta}")
    R = _rotation_matrix(theta)
    R_inv = _rotation_matrix(-theta)

    def forward(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        P = np.atleast_2d(X)
        # (2 / (r + 1)) * (P R^T) in place, the scale still the left operand,
        # so the same bits without the temporaries; order "F" runs the inner
        # loop down each column, not across a row of two
        out, scale = apply_matrix(P, R), _row_norm(P)
        scale += 1.0
        np.divide(2.0, scale, out=scale)
        np.multiply(scale[:, None], out, out=out, order="F")
        return out[0] if single else out

    def backward(Y):
        Y = np.asarray(Y, dtype=float)
        single = Y.ndim == 1
        P = np.atleast_2d(Y)
        out, s = apply_matrix(P, R_inv), _row_norm(P)
        with np.errstate(all="ignore"):     # (P R_inv^T) / (2 - s), in place
            np.subtract(2.0, s, out=s)
            np.divide(out, s[:, None], out=out, order="F")
        return out[0] if single else out

    return DiscreteMap(
        dim=2,
        forward=forward,
        inverse=backward,
        domain=DomainRegion.full_space(2),
        inverse_domain=DomainRegion.annulus(0.0, 2.0),
        name=f"rotation-scaling(theta={theta:g})",
    )


def _rotation_scaling_immersions(theta: float = 1.0) -> tuple[ExactImmersion, ...]:
    R = _rotation_matrix(theta)
    A = np.zeros((3, 3))
    A[:2, :2] = R
    A[2, 2] = 0.5
    target = LinearSystem(A, name=f"rotation-block(theta={theta:g})").as_map()

    def func(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        P = np.atleast_2d(X)
        r = _row_norm(P)
        with np.errstate(all="ignore"):
            out = np.column_stack([P[:, 0] / r, P[:, 1] / r, (r - 1.0) / r])
        return out[0] if single else out

    F = ImmersionMap(
        dim_in=2, dim_out=3, func=func,
        domain=DomainRegion.full_space(2, excluded=[[0.0, 0.0]]),
        name="(x/r, y/r, (r-1)/r)")
    return (ExactImmersion(F, target,
                           note="undefined at the origin — the fixed point there "
                                "cannot be represented"),)


# -- small linear / symmetry examples ---------------------------------------------

def _build_negation() -> DiscreteMap:
    neg = lambda x: -np.asarray(x, dtype=float)
    return DiscreteMap(
        dim=1, forward=neg, inverse=neg,
        domain=DomainRegion.full_space(1),
        name="negation",
    )


def _build_scalar_linear(a: float = 0.5) -> DiscreteMap:
    if not np.isfinite(a):
        raise InvalidParamError("a must be finite")
    return LinearSystem(np.array([[float(a)]]), name=f"scalar-linear(a={a:g})").as_map()


def _build_jordan(lam: float = 1.0, m: int = 2) -> DiscreteMap:
    if not np.isfinite(lam):
        raise InvalidParamError("lam must be finite")
    m = int(m)
    if not 1 <= m <= 4:
        raise InvalidParamError(f"block size m must lie in 1..4, got {m}")
    A = np.eye(m) * float(lam) + np.eye(m, k=1)
    return LinearSystem(A, name=f"jordan(lam={lam:g},m={m})").as_map()


def _identity_immersion(system: DiscreteMap) -> tuple[ExactImmersion, ...]:
    F = ImmersionMap(dim_in=system.dim, dim_out=system.dim,
                     func=lambda X: np.asarray(X, dtype=float),
                     domain=system.domain, name="identity")
    return (ExactImmersion(F, system, note="already linear"),)


# -- registry ---------------------------------------------------------------------

_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    _ENTRIES[entry.name] = entry


_register(CatalogEntry(
    name="mobius", dim=1,
    summary="rational map with an attracting and a repelling fixed point and a pole",
    build=lambda: _build_mobius(),
    immersions=lambda: _mobius_immersions(),
    seeds=(0.0, -0.5, 0.5, 2.0, 1.0),
))
_register(CatalogEntry(
    name="mobius-inverse", dim=1,
    summary="time reversal of the rational map: the fixed points trade stability",
    build=lambda: _build_mobius_inverse(),
    immersions=lambda: _mobius_inverse_immersions(),
    seeds=(0.0, -0.5, 0.5, 2.0, -1.0),
))
_register(CatalogEntry(
    name="cot-map", dim=1,
    summary="half-angle cotangent map on [0, pi], conjugate to the rational map via cos",
    build=lambda: _build_cot_map(),
    immersions=lambda: _cot_immersions(),
    seeds=(1.0, 2.0, 0.5, 0.0, float(np.pi)),
))
_register(CatalogEntry(
    name="rotation-scaling", dim=2,
    summary="planar rotation with radial pull toward the unit circle",
    defaults={"theta": 1.0},
    build=lambda theta=1.0: _build_rotation_scaling(theta),
    immersions=lambda theta=1.0: _rotation_scaling_immersions(theta),
    seeds=((2.0, 0.0), (0.5, 0.5), (-1.5, 0.25), (0.0, 0.0)),
))
_register(CatalogEntry(
    name="negation", dim=1,
    summary="sign flip: every nonzero point lies on its own period-2 orbit",
    build=lambda: _build_negation(),
    immersions=lambda: _identity_immersion(_build_negation()),
    seeds=(0.7, 1.3, 0.0, -0.4),
))
_register(CatalogEntry(
    name="scalar-linear", dim=1,
    summary="one-dimensional linear contraction/expansion x -> a*x",
    defaults={"a": 0.5},
    build=lambda a=0.5: _build_scalar_linear(a),
    immersions=lambda a=0.5: _identity_immersion(_build_scalar_linear(a)),
    seeds=(1.0, -2.0, 0.25),
))
_register(CatalogEntry(
    name="jordan", dim=2,    # with the default block size; m sets the dimension
    summary="single Jordan block: polynomial transients on top of geometric rates",
    defaults={"lam": 1.0, "m": 2},
    build=lambda lam=1.0, m=2: _build_jordan(lam, m),
    immersions=lambda lam=1.0, m=2: _identity_immersion(_build_jordan(lam, m)),
    seeds=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
))


def list_systems() -> list[dict]:
    """Deterministic manifest of the catalogued systems."""
    out = []
    for name in sorted(_ENTRIES):
        e = _ENTRIES[name]
        out.append({
            "name": e.name,
            "dim": e.dim,
            "summary": e.summary,
            "params": dict(e.defaults),
            "has_exact_immersion": _has_immersion(e),
        })
    return out


def _has_immersion(entry: CatalogEntry) -> bool:
    try:
        entry.immersions(**entry.defaults)
        return True
    except NoExactImmersionError:
        return False


def _entry(name: str) -> CatalogEntry:
    if name not in _ENTRIES:
        known = ", ".join(sorted(_ENTRIES))
        raise UnknownSystemError(f"unknown system {name!r}; catalogued: {known}")
    return _ENTRIES[name]


def _check_params(entry: CatalogEntry, params: dict) -> dict:
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise InvalidParamError(
            f"{entry.name} takes parameters {sorted(entry.defaults) or 'none'}; "
            f"got unexpected {sorted(unknown)}")
    merged = dict(entry.defaults)
    merged.update(params)
    return merged


def get_system(name: str, **params) -> DiscreteMap:
    entry = _entry(name)
    return entry.build(**_check_params(entry, params))


def exact_immersions(name: str, **params) -> tuple[ExactImmersion, ...]:
    """All catalogued closed-form immersions for the named system."""
    entry = _entry(name)
    return entry.immersions(**_check_params(entry, params))


def exact_immersion(name: str, variant: int = 0, **params) -> ExactImmersion:
    """The catalogued immersion (first variant by default).

    Raises :class:`NoExactImmersionError` for a system with none; every
    catalogued system has one (the identity, for the linear ones).
    """
    pairs = exact_immersions(name, **params)
    if not 0 <= variant < len(pairs):
        raise InvalidParamError(
            f"{name} has {len(pairs)} immersion variant(s); got variant={variant}")
    return pairs[variant]


def default_seeds(name: str) -> list[np.ndarray]:
    entry = _entry(name)
    return [np.atleast_1d(np.asarray(s, dtype=float)) for s in entry.seeds]


def manifest() -> dict:
    return {"schema_version": 1, "kind": "system-manifest", "systems": list_systems()}
