"""Spectral splitting and growth classification for linear systems.

The growth trichotomy is checked against a brute-force iteration oracle; the
closed-form block powers are checked against repeated multiplication.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlab import (LinearSystem, classify_growth, jordan_block_power,
                      omega_nonempty_linear, spectral_split,
                      spectral_split_to_dict, stability_bound)
from limitlab.errors import NotStableError
from limitlab.linear import apply_matrix
from limitlab.serialize import validate


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def rotation_block(theta=1.0):
    A = np.zeros((3, 3))
    A[:2, :2] = rotation(theta)
    A[2, 2] = 0.5
    return A


# -- oracle -----------------------------------------------------------------------

def growth_oracle(A, xi, k=200, tol_vanish=1e-8, tol_unbounded=1e8):
    """Plain iteration: vanishes if the final norm is tiny, unbounded if the
    peak is huge, bounded if the tail has flattened, undetermined otherwise."""
    x = np.asarray(xi, dtype=float)
    norms = [np.linalg.norm(x)]
    for _ in range(k):
        x = A @ x
        norms.append(np.linalg.norm(x))
    norms = np.asarray(norms)
    if norms[-1] < tol_vanish:
        return "vanishes"
    if norms.max() > tol_unbounded:
        return "unbounded"
    tail = norms[-50:]
    if tail.max() / tail.min() >= 10.0:
        return "undetermined"
    return "bounded"


VERDICT_OF_ORACLE = {"vanishes": "vanishes",
                     "bounded": "bounded-nonvanishing",
                     "unbounded": "unbounded"}


def random_linear_family(n, seed=42, dim=4, eigs=(0.3, 0.9, 1.0, 1.1)):
    """Diagonalizable systems with prescribed eigenvalue choices under a
    well-conditioned random similarity, plus a random initial state."""
    rng = np.random.default_rng(seed)
    choices = np.asarray(eigs)
    family = []
    for _ in range(n):
        lam = rng.choice(choices, size=dim)
        while True:
            S = rng.normal(size=(dim, dim))
            if np.linalg.cond(S) < 50.0:
                break
        A = S @ np.diag(lam) @ np.linalg.inv(S)
        xi = rng.normal(size=dim)
        family.append((A, lam, xi))
    return family


# -- LinearSystem -------------------------------------------------------------------

def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        LinearSystem(np.array([[np.nan]]))


def test_as_map_inverse_presence():
    invertible = LinearSystem(np.diag([0.5, 2.0])).as_map()
    assert invertible.inverse is not None
    x = np.array([1.0, 3.0])
    assert invertible.inverse(invertible.forward(x)) == pytest.approx(x)

    singular = LinearSystem(np.diag([0.0, 1.0])).as_map()
    assert singular.inverse is None


@pytest.mark.parametrize("A", [rotation(1.0), np.array([[0.9, 1.0], [0.0, 0.9]]),
                               rotation_block(), np.arange(16.0).reshape(4, 4) / 7.0 - 1.0],
                         ids=["rotation", "jordan", "rotation-block", "dense-4"])
def test_apply_matrix_rows_do_not_depend_on_the_batch(A, rng):
    X = rng.normal(size=(500, A.shape[0]))
    batch = apply_matrix(X, A)
    assert batch.shape == X.shape
    for i in range(len(X)):
        assert np.array_equal(apply_matrix(X[i:i + 1], A)[0], batch[i])
        assert np.array_equal(apply_matrix(X[i], A), batch[i])
    # a fixed-order sum and BLAS each stay within the textbook dot-product
    # error bound, gamma_d * sum_j |x_j a_ij|, so they are within twice it
    d = A.shape[0]
    u = np.finfo(float).eps / 2
    bound = 2 * d * u / (1 - d * u) * (np.abs(X) @ np.abs(A).T)
    assert (np.abs(batch - X @ A.T) <= bound).all()


def per_output_sums(X, A):
    """``X @ A.T`` as one loop per output coordinate, each a left-to-right sum."""
    out = np.empty_like(X, shape=X.shape[:-1] + (len(A),))
    for i, row in enumerate(A):
        acc = out[..., i]
        np.multiply(X[..., 0], row[0], out=acc)
        for j in range(1, len(row)):
            acc += X[..., j] * row[j]
    return out


@pytest.mark.parametrize("shape", [(k, k) for k in range(1, 22)] + [(3, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_apply_matrix_equals_the_per_output_sums(shape):
    rng = np.random.default_rng(100 * shape[0] + shape[1])
    A = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3], size=shape)
    d = shape[1]
    X = rng.normal(size=(300, d)) * rng.choice([1e-8, 1.0, 1e8], size=(300, d))
    batches = {"C": X, "F": np.asfortranarray(X), "state": X[7],
               "stack": rng.normal(size=(3, 40, d))}
    for name, batch in batches.items():
        got = apply_matrix(batch, A)
        want = per_output_sums(batch, A)
        assert got.shape == batch.shape[:-1] + (shape[0],), name
        assert np.array_equal(got, want), name
        # the result keeps the input's memory order
        layout = "F_CONTIGUOUS" if name == "F" else "C_CONTIGUOUS"
        assert got.flags[layout], name


def test_apply_matrix_refuses_a_matrix_of_another_width():
    # the first two columns used to give a (3, 2) result
    with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 5\)"):
        LinearSystem(np.eye(2)).as_map().forward(np.ones((3, 5)))
    # and this an IndexError
    with pytest.raises(ValueError, match=r"\(3, 3\).*\(4, 2\)"):
        apply_matrix(np.ones((4, 2)), np.eye(3))
    with pytest.raises(ValueError):
        apply_matrix(np.ones(2), np.ones(2))


# -- spectral split -----------------------------------------------------------------

def test_spectral_split_three_way():
    split = spectral_split(np.diag([0.5, 2.0, 1.0]))
    assert split.dims == (1, 1, 1)


def test_spectral_split_rotation_block():
    split = spectral_split(rotation_block())
    assert split.dims == (1, 2, 0)


def test_spectral_split_bases_span_everything():
    A = rotation_block()
    split = spectral_split(A)
    combined = np.hstack([b for b in (split.stable_basis, split.unit_basis,
                                      split.unstable_basis) if b.size])
    assert combined.shape == (3, 3)
    assert np.linalg.matrix_rank(combined) == 3
    # each basis spans an A-invariant subspace
    for B in (split.stable_basis, split.unit_basis):
        if B.size:
            proj = B @ np.linalg.pinv(B)
            assert np.linalg.norm(A @ B - proj @ (A @ B)) < 1e-8


def test_spectral_split_dict_validates():
    doc = spectral_split_to_dict(spectral_split(rotation_block()))
    validate(doc, "spectral-split")
    classes = {g["abs_class"] for g in doc["eigenvalues"]}
    assert classes == {"stable", "unit-band"}


# -- jordan block powers --------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_jordan_block_power_matches_repeated_multiplication(lam, m):
    J = np.eye(m) * lam + np.eye(m, k=1)
    P = np.eye(m)
    for k in range(51):
        closed = jordan_block_power(lam, m, k)
        np.testing.assert_allclose(closed, P, rtol=1e-9, atol=0.0)
        P = J @ P


def test_jordan_block_power_complex_and_validation():
    out = jordan_block_power(0.5 + 0.5j, 2, 3)
    assert out.dtype == complex
    assert out[0, 0] == pytest.approx((0.5 + 0.5j) ** 3)
    with pytest.raises(ValueError):
        jordan_block_power(1.0, 0, 3)
    with pytest.raises(ValueError):
        jordan_block_power(1.0, 2, -1)
    with pytest.raises(ValueError):
        jordan_block_power(1.0, 2, 2.5)


# -- growth classification -------------------------------------------------------------

def test_growth_trichotomy_frozen_cases():
    assert classify_growth(np.diag([0.5, 0.3]), [1.0, 1.0]).verdict == "vanishes"
    assert classify_growth(rotation(1.0), [1.0, 0.0]).verdict == "bounded-nonvanishing"

    grow = classify_growth(np.diag([1.1, 0.5]), [1.0, 1.0])
    assert grow.verdict == "unbounded"
    assert grow.rate == (pytest.approx(1.1), 0)


def test_defective_unit_block_depends_on_chain_depth():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    # a true eigenvector stays exactly bounded ...
    assert classify_growth(J, [1.0, 0.0]).verdict == "bounded-nonvanishing"
    # ... while depth-2 components grow polynomially, rate k^1
    grow = classify_growth(J, [0.0, 1.0])
    assert grow.verdict == "unbounded"
    assert grow.rate == (pytest.approx(1.0), 1)


def test_defective_stable_block_still_vanishes():
    J = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    assert classify_growth(J, [1.0, 1.0, 1.0]).verdict == "vanishes"


def test_growth_component_norms_reported():
    cls = classify_growth(np.diag([0.5, 1.0, 2.0]), [1.0, 1.0, 0.0])
    assert cls.component_norms["stable"] == pytest.approx(1.0)
    assert cls.component_norms["unit"] == pytest.approx(1.0)
    assert cls.component_norms["unstable"] == pytest.approx(0.0, abs=1e-12)


def test_growth_agrees_with_oracle_small_family():
    determined = 0
    for A, lam, xi in random_linear_family(25, seed=7):
        oracle = growth_oracle(A, xi)
        if oracle == "undetermined":
            continue
        determined += 1
        assert classify_growth(A, xi).verdict == VERDICT_OF_ORACLE[oracle], lam
    assert determined >= 15


def test_omega_nonempty_iff_not_unbounded():
    for A, lam, xi in random_linear_family(10, seed=11):
        cls = classify_growth(A, xi)
        assert omega_nonempty_linear(A, xi) == (cls.verdict != "unbounded")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_strictly_stable_random_matrices_vanish(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    rho = np.abs(np.linalg.eigvals(A)).max()
    A *= 0.8 / max(rho, 1e-9)
    assert classify_growth(A, rng.normal(size=3)).verdict == "vanishes"


# -- transient bound ---------------------------------------------------------------------

def test_stability_bound_rotation_block_is_one():
    M = stability_bound(rotation_block(), np.eye(3))
    assert M == pytest.approx(1.0, abs=1e-12)


def test_stability_bound_sees_transient_peak():
    # stable but non-normal: the orbit overshoots before decaying
    A = np.array([[0.5, 10.0], [0.0, 0.5]])
    M = stability_bound(A, np.eye(2))
    assert M > 5.0


def test_stability_bound_rejects_unstable_subspace():
    with pytest.raises(NotStableError):
        stability_bound(np.diag([2.0, 0.5]), np.array([[1.0], [0.0]]))


def test_stability_bound_rejects_noninvariant_subspace():
    with pytest.raises(ValueError):
        stability_bound(rotation(1.0), np.array([[1.0], [0.0]]))
