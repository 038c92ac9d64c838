"""Hypothesis checks at a representation.

Centralizer dimension in the trace-zero Lie algebra, regularity of
commutative (peripheral) subgroups, and irreducibility via the Burnside span
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cxla
from .grouprep import (GroupSpec, Representation, evaluate_word,
                       sl_projections)
from .words import TORUS, GroupPresentation

__all__ = [
    "StructureReport",
    "NonCommutingPeripheralError",
    "centralizer_dim",
    "is_irreducible_burnside",
    "analyze_structure",
]

#: Relative tolerance for the pairwise-commutation precondition of
#: regularity checks.  Certified representations commute far below this.
COMMUTE_TOL = 1e-8


class NonCommutingPeripheralError(ValueError):
    """A torus peripheral subgroup was handed non-commuting images."""


@dataclass(frozen=True, slots=True)
class StructureReport:
    centralizer_dim_full_image: int
    peripheral_centralizer_dims: tuple
    irreducible: bool
    boundary_regular: bool


def centralizer_dim(mats, spec: GroupSpec, tol: float = cxla.DEFAULT_RANK_TOL) -> int:
    """dim of {X in sl(n) : X A_i = A_i X for all i}.

    Column k of the stacked operator holds the vectorized commutators
    [B_k, A_i] = B_k A_i - A_i B_k of the trace-zero basis elements, one
    batched product per side; its nullspace is the centralizer.
    """
    mats = [cxla.as_matrix(m) for m in mats]
    n = spec.n
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"expected ({n}, {n}) matrices, got {m.shape}")
    if not mats:
        return spec.d
    B, _ = sl_projections(n)
    basis = B.T.reshape(1, -1, n, n)
    A = np.array(mats)[:, None]
    op = (basis @ A - A @ basis).transpose(0, 2, 3, 1).reshape(-1, spec.d)
    return cxla.nullspace_dim(op, tol)


def _check_commuting(mats) -> None:
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            a, b = mats[i], mats[j]
            dev = np.linalg.norm(a @ b - b @ a)
            scale = max(1.0, float(np.linalg.norm(a) * np.linalg.norm(b)))
            if dev > COMMUTE_TOL * scale:
                raise NonCommutingPeripheralError(
                    f"peripheral images {i} and {j} do not commute "
                    f"(relative deviation {dev / scale:.3e})"
                )


def _orthonormal_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span, via SVD."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[1])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return rows[:0]
    return vh[s > tol * s[0]]


def is_irreducible_burnside(mats, spec: GroupSpec,
                            tol: float = cxla.DEFAULT_RANK_TOL) -> bool:
    """Burnside criterion: the algebra generated by the inputs is all of
    M_n(C) iff the inputs have no common proper invariant subspace.

    Grows the span of products from {I} union inputs by right-multiplying
    the current span basis by the inputs, re-orthonormalizing each round;
    stabilization is the normal exit, with a hard cap of 2 n^2 rounds.
    """
    mats = [cxla.as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("irreducibility needs at least one matrix")
    n = spec.n
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"expected ({n}, {n}) matrices, got {m.shape}")
    stack = np.array(mats)
    seed_rows = np.vstack([np.eye(n, dtype=np.complex128).reshape(1, -1),
                           stack.reshape(-1, n * n)])
    basis = _orthonormal_rows(seed_rows, tol)
    for _ in range(2 * n * n):
        dim = basis.shape[0]
        if dim == n * n:
            return True
        products = (basis.reshape(dim, 1, n, n) @ stack).reshape(-1, n * n)
        basis = _orthonormal_rows(np.vstack([basis, products]), tol)
        if basis.shape[0] == dim:
            break
    return basis.shape[0] == n * n


def analyze_structure(p: GroupPresentation, rep: Representation,
                      tol: float = cxla.DEFAULT_RANK_TOL) -> StructureReport:
    """Full-image irreducibility plus per-torus regularity.

    boundary_regular is vacuously true with no torus markings.
    """
    cdim = centralizer_dim(rep.images, rep.spec, tol)
    irreducible = is_irreducible_burnside(rep.images, rep.spec, tol)
    peripheral_dims = []
    boundary_regular = True
    for marking in p.peripheral:
        if marking.kind != TORUS:
            continue
        mats = [evaluate_word(w, rep) for w in marking.words]
        _check_commuting(mats)
        pdim = centralizer_dim(mats, rep.spec, tol)
        peripheral_dims.append(pdim)
        if pdim != rep.spec.r + rep.spec.z:
            boundary_regular = False
    return StructureReport(
        centralizer_dim_full_image=cdim,
        peripheral_centralizer_dims=tuple(peripheral_dims),
        irreducible=irreducible,
        boundary_regular=boundary_regular,
    )
