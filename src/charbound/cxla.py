"""Dense complex linear algebra kernel.

Matrices are numpy ``complex128`` arrays throughout; this module pins the
conventions the rest of the package relies on: relative SVD rank thresholds,
minimum-norm least-squares steps, and finiteness validation at the boundary.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "as_matrix",
    "check_finite",
    "inverse",
    "singular_values",
    "svd_rank",
    "rank_and_margin",
    "nullspace_dim",
    "least_squares_step",
]

#: Relative singular-value cutoff: sigma > tol * sigma_max counts toward rank.
DEFAULT_RANK_TOL = 1e-8


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    check_finite(a)
    return a


def check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square, numerically nonsingular matrix, or of every
    matrix in a stack of shape (k, n, n).

    One SVD and one inv call serve the whole stack; every member must pass
    sigma_min/sigma_max > DEFAULT_RANK_TOL, and the error names the first
    member of a stack that does not.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"inverse needs a square matrix, got shape {a.shape}")
    s = np.linalg.svd(a, compute_uv=False).reshape(-1, a.shape[-1])
    singular = np.flatnonzero(s[:, -1] <= DEFAULT_RANK_TOL * s[:, 0])
    if singular.size:
        k = singular[0]
        which = "matrix" if a.ndim == 2 else f"matrix {k} of the stack"
        raise np.linalg.LinAlgError(
            f"{which} is singular to tolerance (sigma_min/sigma_max = "
            f"{s[k, -1] / s[k, 0] if s[k, 0] else 0.0:.3e})"
        )
    return np.linalg.inv(a)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values; empty matrices give an empty array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def svd_rank(a: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above tol * sigma_max (relative cutoff).

    The zero matrix has rank 0.  The relative rule keeps rank decisions
    invariant under overall rescaling, which conjugation induces.
    """
    rank, _ = rank_and_margin(a, tol)
    return rank


def rank_and_margin(a: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """(rank, margin) where margin = smallest kept sigma / largest dropped.

    margin is inf when nothing is dropped or the matrix is empty/zero; a
    small margin means the rank decision is sensitive to the tolerance.
    """
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0, float("inf")
    cutoff = tol * s[0]
    kept = s[s > cutoff]
    dropped = s[s <= cutoff]
    rank = int(kept.size)
    if dropped.size == 0 or dropped[0] == 0.0:
        margin = float("inf")
    else:
        margin = float(kept[-1] / dropped[0]) if kept.size else 0.0
    return rank, margin


def nullspace_dim(a: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    a = np.asarray(a, dtype=np.complex128)
    return a.shape[1] - svd_rank(a, tol)


def least_squares_step(J: np.ndarray, residual: np.ndarray,
                       tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Minimum-norm x with J x ~= -residual (LAPACK zgelsd).

    Singular values at or below tol * sigma_max are dropped, the same
    relative cutoff as svd_rank, so rank-deficient systems are handled
    without amplifying noise directions.
    """
    J = np.asarray(J, dtype=np.complex128)
    residual = np.asarray(residual, dtype=np.complex128).reshape(-1)
    if J.shape[0] != residual.shape[0]:
        raise ValueError(
            f"J has {J.shape[0]} rows but residual has length {residual.shape[0]}"
        )
    if J.size == 0:
        return np.zeros(J.shape[1], dtype=np.complex128)
    return np.linalg.lstsq(J, -residual, rcond=tol)[0]
