"""Closed-form dimension calculators.

Exact integer arithmetic only; these are the statements being certified,
so no tolerance belongs here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grouprep import GroupSpec

__all__ = [
    "ManifoldData",
    "BoundReport",
    "thurston_bound",
    "sl_n_bound",
    "goldman_dim",
    "hom_to_char_drop",
]


@dataclass(frozen=True, slots=True)
class ManifoldData:
    """Torus boundary count and Euler characteristic of the manifold."""

    torus_count: int
    euler_characteristic: int

    def __post_init__(self):
        if self.torus_count < 0:
            raise ValueError(f"torus count must be >= 0, got {self.torus_count}")


@dataclass(frozen=True, slots=True)
class BoundReport:
    general_bound: int
    formula_used: str
    t: int
    chi: int
    d: int
    r: int
    z: int


def thurston_bound(m: ManifoldData, spec: GroupSpec) -> BoundReport:
    """Lower bound r t - d chi + z for the character-variety dimension."""
    value = spec.r * m.torus_count - spec.d * m.euler_characteristic + spec.z
    return BoundReport(
        general_bound=value,
        formula_used="r*t - d*chi + z",
        t=m.torus_count,
        chi=m.euler_characteristic,
        d=spec.d,
        r=spec.r,
        z=spec.z,
    )


def sl_n_bound(m: ManifoldData, n: int) -> int:
    """(n-1) t - (n^2-1) chi; the SL(n) specialization (z = 0)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return (n - 1) * m.torus_count - (n * n - 1) * m.euler_characteristic


def goldman_dim(g: int, spec: GroupSpec) -> int:
    """(2g-1) d + z: tangent dimension at irreducible genus-g surface
    group representations."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    return (2 * g - 1) * spec.d + spec.z


def hom_to_char_drop(dim_R0: int, spec: GroupSpec) -> int:
    """dim_R0 - d + z: character-variety dimension from the Hom-component
    dimension at irreducible points."""
    if dim_R0 < 0:
        raise ValueError(f"dimension must be >= 0, got {dim_R0}")
    return dim_R0 - spec.d + spec.z
