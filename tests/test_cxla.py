from __future__ import annotations

import numpy as np
import pytest

from charbound import cxla
from conftest import random_su


def test_inverse_examples():
    assert np.allclose(cxla.inverse(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]))
    assert np.allclose(cxla.inverse(np.eye(4)), np.eye(4))


def test_inverse_residual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a += 3 * np.eye(3)  # keep well-conditioned
        assert np.linalg.norm(a @ cxla.inverse(a) - np.eye(3)) < 1e-10


def test_inverse_singular():
    with pytest.raises(np.linalg.LinAlgError):
        cxla.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        cxla.inverse(np.zeros((2, 3)))


def test_svd_rank_basic():
    assert cxla.svd_rank(np.eye(5), 1e-8) == 5
    assert cxla.svd_rank(np.zeros((3, 4))) == 0
    rng = np.random.default_rng(3)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert cxla.svd_rank(np.outer(u, v)) == 1


def test_svd_rank_rejects_negative_tol():
    with pytest.raises(ValueError):
        cxla.svd_rank(np.eye(2), -1.0)


def test_svd_rank_unitary_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        a[:, 4] = a[:, 0] + a[:, 1]  # force a rank drop
        base = cxla.svd_rank(a)
        u = random_su(rng, 4)
        v = random_su(rng, 5)
        assert cxla.svd_rank(u @ a) == base
        assert cxla.svd_rank(a @ v) == base
        assert cxla.svd_rank(u @ a @ v) == base


def test_svd_rank_monotone_in_tol():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) @ np.diag([1, 1e-2, 1e-4, 1e-6, 1e-9, 0])
    tols = [0.0, 1e-10, 1e-8, 1e-5, 1e-3, 1e-1, 1.0]
    ranks = [cxla.svd_rank(a, t) for t in tols]
    assert ranks == sorted(ranks, reverse=True)


def test_svd_rank_block_diagonal():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b[:, 3] = b[:, 0]  # rank 3 block, comparable scale
        whole = np.zeros((7, 7), dtype=complex)
        whole[:3, :3] = a
        whole[3:, 3:] = b
        assert cxla.svd_rank(whole) == cxla.svd_rank(a) + cxla.svd_rank(b)


def test_nullspace_dim():
    assert cxla.nullspace_dim(np.eye(4)) == 0
    assert cxla.nullspace_dim(np.zeros((2, 5))) == 5
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert cxla.nullspace_dim(a) + cxla.svd_rank(a) == cols


def test_rank_and_margin():
    a = np.diag([1.0, 0.5, 1e-12])
    rank, margin = cxla.rank_and_margin(a, 1e-8)
    assert rank == 2
    assert margin == pytest.approx(0.5 / 1e-12, rel=1e-6)
    rank, margin = cxla.rank_and_margin(np.eye(3), 1e-8)
    assert rank == 3 and margin == float("inf")
    rank, margin = cxla.rank_and_margin(np.zeros((2, 2)), 1e-8)
    assert rank == 0 and margin == float("inf")
    # exactly-zero dropped values do not count against the margin
    rank, margin = cxla.rank_and_margin(np.diag([1.0, 0.0]), 1e-8)
    assert rank == 1 and margin == float("inf")


def test_least_squares_step_identity():
    v = np.array([1.0, 2.0, -3.0], dtype=complex)
    assert np.allclose(cxla.least_squares_step(np.eye(3), v), -v)


def test_least_squares_step_zero_matrix():
    step = cxla.least_squares_step(np.zeros((3, 2)), np.ones(3))
    assert np.allclose(step, 0)


def test_least_squares_step_normal_equations():
    rng = np.random.default_rng(8)
    for _ in range(20):
        J = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = cxla.least_squares_step(J, r)
        # J x + r must be orthogonal to range(J)
        assert np.linalg.norm(J.conj().T @ (J @ x + r)) < 1e-10


def test_least_squares_step_shape_error():
    with pytest.raises(ValueError):
        cxla.least_squares_step(np.eye(3), np.ones(2))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        cxla.as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        cxla.as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        cxla.as_matrix([1.0, 2.0])


def test_least_squares_step_matches_truncated_pseudoinverse():
    # one singular value just above the cutoff tol * sigma_max is kept,
    # one just below is dropped
    rng = np.random.default_rng(9)
    tol = cxla.DEFAULT_RANK_TOL
    s = np.array([2.0, 1.0, 0.5, 1.1 * tol * 2.0, 0.9 * tol * 2.0])
    u = random_su(rng, 7)[:, :5]
    v = random_su(rng, 5)
    J = u @ np.diag(s) @ v.conj().T
    r = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    uu, ss, vh = np.linalg.svd(J, full_matrices=False)
    keep = ss > tol * ss[0]
    assert keep.sum() == 4
    expected = -(vh[keep].conj().T @ ((uu[:, keep].conj().T @ r) / ss[keep]))
    x = cxla.least_squares_step(J, r)
    assert np.linalg.norm(x - expected) <= 1e-6 * np.linalg.norm(expected)
    assert np.allclose(cxla.least_squares_step(np.zeros((4, 3)), r[:4]), 0)
    assert cxla.least_squares_step(np.zeros((0, 3)), np.zeros(0)).shape == (3,)
    assert cxla.least_squares_step(np.zeros((3, 0)), r[:3]).shape == (0,)


def test_inverse_stack_matches_members():
    rng = np.random.default_rng(10)
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stack += 3 * np.eye(3)
    inverses = cxla.inverse(stack)
    assert inverses.shape == stack.shape
    for a, inv in zip(stack, inverses):
        assert np.allclose(inv, cxla.inverse(a), rtol=1e-12, atol=1e-14)
    assert cxla.inverse(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(ValueError):
        cxla.inverse(np.zeros((2, 2, 3)))


def test_inverse_stack_names_singular_member():
    stack = np.array([np.eye(2), np.diag([2.0, 0.5]),
                      [[1.0, 2.0], [2.0, 4.0]], np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError, match="matrix 2 of the stack"):
        cxla.inverse(stack)
