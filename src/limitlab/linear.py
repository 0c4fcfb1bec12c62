"""Linear system analysis: spectral splitting and the growth trichotomy.

The split separates state space into stable / unit / unstable invariant
subspaces, where "unit" admits only unit-modulus eigenvalues whose blocks are
trivial (geometric multiplicity equals algebraic). Unit-modulus eigenvalues
with nontrivial blocks land in the unstable subspace — but a vector that
depends only on their rank-1 generalized eigenvectors still has a bounded
orbit, and the growth classifier accounts for that.

No full Jordan form is ever computed: generalized eigenspaces come from SVD
null spaces of annihilating polynomial powers, and per-vector chain depth from
repeatedly applying the annihilator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import config
from .dynamics import DiscreteMap, DomainRegion
from .errors import IllConditionedError, NotStableError
from .serialize import _coerce


@dataclass(frozen=True)
class LinearSystem:
    """``x_{k+1} = A x_k`` on all of R^n."""

    A: np.ndarray
    name: str = "linear"

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        object.__setattr__(self, "A", A)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def as_map(self) -> DiscreteMap:
        A = self.A
        inverse = None
        # invertible => backward iteration available
        if np.linalg.matrix_rank(A) == A.shape[0]:
            Ainv = np.linalg.inv(A)
            inverse = lambda x: apply_matrix(x, Ainv)
        return DiscreteMap(
            dim=A.shape[0],
            forward=lambda x: apply_matrix(x, A),
            inverse=inverse,
            domain=DomainRegion.full_space(A.shape[0]),
            name=self.name,
            vectorized=True,
        )


def apply_matrix(X, A) -> np.ndarray:
    """``X @ A.T`` for states along the last axis of ``X``, rounded the same
    way whatever the number of rows.

    BLAS multiplies a single row (gemv) and a stack of rows (gemm) with
    kernels that round differently, so a state stepped alone would drift from
    the same state stepped in a batch. Here each output coordinate is one
    fixed-order sum over the columns of ``X``, elementwise, so every row is
    rounded alike, in either memory order: one pass per column ``j`` of
    ``X`` adds ``X[..., j] * A[i, j]`` to every output ``i`` at once. The
    result takes the order of ``X``, so a column-major batch writes
    contiguous columns. A matrix whose column count is not the states'
    dimension is refused with a ``ValueError``.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    if A.ndim != 2 or X.ndim == 0 or A.shape[1] != X.shape[-1]:
        raise ValueError(f"a matrix of shape {A.shape} cannot act on states "
                         f"of shape {X.shape}")
    out = np.empty_like(X, shape=X.shape[:-1] + (len(A),))
    np.multiply(X[..., :1], A[:, 0], out=out)
    term = np.empty_like(out)
    for j in range(1, A.shape[1]):
        np.multiply(X[..., j:j + 1], A[:, j], out=term)
        out += term
    return out


def _matrix(sys) -> np.ndarray:
    if isinstance(sys, LinearSystem):
        return sys.A
    A = np.asarray(sys, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
        raise ValueError("expected a finite square matrix or LinearSystem")
    return A


# -- eigenstructure ----------------------------------------------------------

@dataclass(frozen=True)
class EigenGroup:
    """One clustered eigenvalue (or conjugate pair) of A."""

    value: complex               # representative; Im > 0 for pairs
    is_pair: bool                # True when this stands for value and its conjugate
    alg: int                     # algebraic multiplicity (per conjugate for pairs)
    geo: int                     # geometric multiplicity (per conjugate for pairs)
    basis: np.ndarray            # real basis of the (realified) generalized eigenspace
    annihilator: np.ndarray      # real B with B^alg * basis = 0
    abs_class: str               # "stable" | "unit-band" | "unstable-band"
    split_class: str             # "stable" | "unit" | "unstable"

    @property
    def real_dim(self) -> int:
        return self.basis.shape[1]


def _null_basis(M: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of M."""
    _, s, Vt = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(M.shape[1])
    rank = int(np.sum(s > rel_tol * s[0]))
    return Vt[rank:].T


def _eigen_groups(A: np.ndarray, tol_eig: float, tol_rank: float) -> list[EigenGroup]:
    n = A.shape[0]
    lam, V = np.linalg.eig(A)
    scale = max(float(np.linalg.norm(A)), np.finfo(float).tiny)
    resid = float(np.linalg.norm(A @ V - V * lam[None, :])) / scale
    if resid > max(tol_rank, 1e-10):
        raise IllConditionedError(
            f"eigen-decomposition residual {resid:.3e} exceeds tolerance")

    # Cluster computed eigenvalues. Defective eigenvalues scatter ~eps^(1/m)
    # under similarity, so the grouping radius is much looser than tol_eig.
    group_tol = 1e-5 * max(1.0, float(np.max(np.abs(lam))))
    order = np.argsort(lam.real + 1e-9 * lam.imag, kind="stable")
    unused = list(order)
    clusters: list[list[int]] = []
    while unused:
        i = unused.pop(0)
        members = [i]
        rest = []
        for j in unused:
            if abs(lam[j] - lam[i]) <= group_tol:
                members.append(j)
            else:
                rest.append(j)
        unused = rest
        clusters.append(members)

    # One group per real cluster and per conjugate pair of clusters, the pair
    # represented by its cluster with Im > 0.
    groups: list[EigenGroup] = []
    for members in clusters:
        mu = complex(np.mean(lam[members]))
        m = len(members)
        if abs(mu.imag) <= group_tol:
            mu = complex(mu.real, 0.0)
            B = A - mu.real * np.eye(n)
            b_ref = scale + abs(mu)
            is_pair = False
        else:
            if mu.imag < 0:
                continue  # handled from the positive-imag side
            a, b2 = mu.real, abs(mu) ** 2
            B = A @ A - 2.0 * a * A + b2 * np.eye(n)
            b_ref = scale * scale + 2.0 * abs(a) * scale + b2
            is_pair = True

        # A nearly scalar annihilator is pure rounding noise: powering it and
        # taking a *relative* null space finds nothing, even though the
        # cluster plainly spans the whole space and mu is semisimple.
        if float(np.linalg.norm(B)) <= max(tol_rank, 1e-12) * b_ref:
            basis = np.eye(n)
            geo = m
        else:
            Bp = np.linalg.matrix_power(B, m)
            basis = _null_basis(Bp, tol_rank)
            geo_real = _null_basis(B, tol_rank).shape[1]
            geo = geo_real // 2 if is_pair else geo_real
        expected = 2 * m if is_pair else m
        if basis.shape[1] != expected:
            raise IllConditionedError(
                f"generalized eigenspace of {mu} has numerical dimension "
                f"{basis.shape[1]}, expected {expected}")

        mod = abs(mu)
        if abs(mod - 1.0) <= tol_eig:
            abs_class = "unit-band"
            split_class = "unit" if geo == m else "unstable"
        elif mod < 1.0 - tol_eig:
            abs_class, split_class = "stable", "stable"
        else:
            abs_class, split_class = "unstable-band", "unstable"

        groups.append(EigenGroup(value=mu, is_pair=is_pair, alg=m, geo=geo,
                                 basis=basis, annihilator=B,
                                 abs_class=abs_class, split_class=split_class))

    if sum(g.real_dim for g in groups) != n:
        raise IllConditionedError("generalized eigenspaces do not fill state space")
    return groups


@dataclass(frozen=True)
class SpectralSplit:
    """Stable/unit/unstable invariant real subspaces of a linear system."""

    A: np.ndarray
    stable_basis: np.ndarray     # (n, k_s)
    unit_basis: np.ndarray       # (n, k_1)
    unstable_basis: np.ndarray   # (n, k_u)
    groups: tuple[EigenGroup, ...]
    tol_eig: float
    tol_rank: float

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.stable_basis.shape[1],
                self.unit_basis.shape[1],
                self.unstable_basis.shape[1])

    def eigen_report(self) -> list[dict]:
        """One row per eigenvalue: value, multiplicities, modulus class."""
        rows = []
        for g in self.groups:
            entries = [g.value, g.value.conjugate()] if g.is_pair else [g.value]
            for v in entries:
                rows.append({
                    "value": v,
                    "alg_mult": g.alg,
                    "geo_mult": g.geo,
                    "abs_class": g.abs_class,
                    "split_class": g.split_class,
                })
        rows.sort(key=lambda r: (r["value"].real, r["value"].imag))
        return rows


def spectral_split(sys, tol_eig: float = config.TOL_EIG,
                   tol_rank: float = config.TOL_RANK) -> SpectralSplit:
    """Split R^n into stable / unit / unstable invariant subspaces of A.

    Unit requires unit-band modulus *and* trivial blocks; unit-band
    eigenvalues with nontrivial blocks are charged to the unstable subspace.
    Raises :class:`IllConditionedError` when the eigenstructure cannot be
    resolved at the requested tolerances.
    """
    A = _matrix(sys)
    n = A.shape[0]
    groups = _eigen_groups(A, tol_eig, tol_rank)

    def gather(cls):
        mats = [g.basis for g in groups if g.split_class == cls]
        return np.hstack(mats) if mats else np.zeros((n, 0))

    split = SpectralSplit(
        A=A,
        stable_basis=gather("stable"),
        unit_basis=gather("unit"),
        unstable_basis=gather("unstable"),
        groups=tuple(groups),
        tol_eig=tol_eig,
        tol_rank=tol_rank,
    )
    joint = np.hstack([split.stable_basis, split.unit_basis, split.unstable_basis])
    if joint.shape[1] != n or np.linalg.matrix_rank(joint, tol=1e-10 * max(1.0, n)) != n:
        raise IllConditionedError("subspace bases do not jointly span state space")
    return split


# -- Jordan block powers -----------------------------------------------------

def jordan_block_power(lmbda, m: int, k: int) -> np.ndarray:
    """k-th power of the m x m upper Jordan block with eigenvalue lmbda.

    Closed form: entries on superdiagonal i are C(k, i) * lmbda^(k-i),
    for i up to min(k, m-1).
    """
    if m < 1:
        raise ValueError("block size must be >= 1")
    if k < 0 or int(k) != k:
        raise ValueError("power must be a nonnegative integer")
    k = int(k)
    dtype = complex if isinstance(lmbda, complex) else float
    out = np.zeros((m, m), dtype=dtype)
    for i in range(min(k, m - 1) + 1):
        coeff = math.comb(k, i) * lmbda ** (k - i)
        for r in range(m - i):
            out[r, r + i] = coeff
    return out


# -- growth classification ---------------------------------------------------

@dataclass(frozen=True)
class GrowthClass:
    """Asymptotic behaviour of ``A^k xi``.

    ``verdict`` is one of "vanishes", "bounded-nonvanishing", "unbounded";
    ``rate`` is ``(alpha, j)`` — growth like alpha^k * k^j — when unbounded.
    """

    verdict: str
    rate: Optional[tuple[float, int]] = None
    component_norms: dict = field(default_factory=dict)


def _chain_depth(group: EigenGroup, comp: np.ndarray, thresh: float) -> int:
    """Smallest q >= 1 with annihilator^q * comp ~ 0 (capped at alg mult)."""
    B = group.annihilator
    scale = max(1.0, float(np.linalg.norm(B)))
    v = comp
    for q in range(1, group.alg + 1):
        v = B @ v
        if np.linalg.norm(v) <= thresh * scale ** q:
            return q
    return group.alg


def classify_growth(sys, xi, tol: float = config.TOL_EIG) -> GrowthClass:
    """Trichotomy for the orbit ``A^k xi``: decays to zero, stays bounded away
    from both zero and infinity, or grows without bound (with rate).

    A component on a defective unit-modulus eigenvalue only produces growth
    when its chain depth exceeds 1; depth-1 components (true eigenvectors)
    stay exactly bounded.
    """
    A = _matrix(sys)
    xi = np.asarray(xi, dtype=float).reshape(A.shape[0])
    groups = _eigen_groups(A, tol_eig=tol, tol_rank=config.TOL_RANK)

    G = np.hstack([g.basis for g in groups])
    coeffs = np.linalg.solve(G, xi)
    recon = G @ coeffs
    if np.linalg.norm(recon - xi) > 1e-8 * max(1.0, np.linalg.norm(xi)):
        raise IllConditionedError("eigen-decomposition of the input vector failed")

    zero_thresh = tol * max(1.0, float(np.linalg.norm(xi)))
    norms = {"stable": 0.0, "unit": 0.0, "unstable": 0.0}
    growth_rates: list[tuple[float, int]] = []
    persistent = False

    offset = 0
    for g in groups:
        comp = g.basis @ coeffs[offset: offset + g.real_dim]
        offset += g.real_dim
        cnorm = float(np.linalg.norm(comp))
        norms[g.split_class] += cnorm
        if cnorm <= zero_thresh:
            continue
        if g.split_class == "stable":
            continue
        if g.split_class == "unit":
            persistent = True
            continue
        # unstable subspace: separate true growth from bounded depth-1 pieces
        q = _chain_depth(g, comp, zero_thresh) if g.alg > 1 else 1
        if g.abs_class == "unit-band":
            if q == 1:
                persistent = True          # ||A^k comp|| == ||comp||
            else:
                growth_rates.append((1.0, q - 1))
        else:
            growth_rates.append((abs(g.value), q - 1))

    if growth_rates:
        alpha = max(r[0] for r in growth_rates)
        j = max(r[1] for r in growth_rates if abs(r[0] - alpha) <= tol)
        return GrowthClass("unbounded", (alpha, j), norms)
    if persistent:
        return GrowthClass("bounded-nonvanishing", None, norms)
    return GrowthClass("vanishes", None, norms)


def omega_nonempty_linear(sys, xi, tol: float = config.TOL_EIG) -> bool:
    """Forward limit points exist iff the orbit does not grow without bound."""
    return classify_growth(sys, xi, tol=tol).verdict != "unbounded"


# -- transient bound ---------------------------------------------------------

def stability_bound(sys, subspace_basis, tol_eig: float = config.TOL_EIG,
                    horizon: Optional[int] = None) -> float:
    """Uniform bound M = max_{k <= K} ||A^k restricted to the subspace||_2.

    The subspace must be A-invariant and free of unstable growth
    (:class:`NotStableError` otherwise). The default horizon is
    ``10 * n * max(1, ceil(1/(1 - rho_s)))`` with rho_s the largest stable
    modulus — long enough for every transient to have peaked.
    """
    A = _matrix(sys)
    n = A.shape[0]
    B = np.asarray(subspace_basis, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != n or B.shape[1] == 0:
        raise ValueError("subspace basis must be (n, s) with s >= 1")
    Q, _ = np.linalg.qr(B)

    T = Q.T @ A @ Q
    if np.linalg.norm(A @ Q - Q @ T) > 1e-8 * max(1.0, np.linalg.norm(A)):
        raise ValueError("subspace is not A-invariant")

    sub = spectral_split(T, tol_eig=tol_eig)
    if sub.dims[2] > 0:
        raise NotStableError("subspace has unstable growth; no uniform bound exists")

    if horizon is None:
        stable_mods = [abs(g.value) for g in sub.groups if g.split_class == "stable"]
        rho_s = max(stable_mods) if stable_mods else 0.0
        horizon = 10 * n * max(1, math.ceil(1.0 / (1.0 - rho_s)))
        horizon = min(horizon, 10 ** 6)

    M = 1.0
    P = np.eye(T.shape[0])
    for _ in range(int(horizon)):
        P = T @ P
        nrm = float(np.linalg.norm(P, 2))
        if not np.isfinite(nrm) or nrm > 1e12:
            raise NotStableError("growth detected while scanning the horizon")
        M = max(M, nrm)
    return M


# -- serialization -----------------------------------------------------------

def _colmajor(mat: np.ndarray) -> dict:
    """A real matrix as its shape and its entries in column-major order."""
    return {"shape": mat.shape, "data_colmajor": mat.ravel(order="F")}


def spectral_split_to_dict(split: SpectralSplit) -> dict:
    """JSON-ready form: eigenvalue report plus column-major bases. Each
    eigenvalue is written as ``[re, im]``."""
    return _coerce({
        "schema_version": 1,
        "kind": "spectral-split",
        "dims": split.dims,
        "eigenvalues": [r | {"value": [r["value"].real, r["value"].imag]}
                        for r in split.eigen_report()],
        "stable_basis": _colmajor(split.stable_basis),
        "unit_basis": _colmajor(split.unit_basis),
        "unstable_basis": _colmajor(split.unstable_basis),
        "tol_eig": split.tol_eig,
        "tol_rank": split.tol_rank,
    })
