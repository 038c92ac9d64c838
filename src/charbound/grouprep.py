"""Target-group data and representations of finitely presented groups.

A representation assigns one unimodular n x n complex matrix to each
generator of a presentation.  This module evaluates words under such an
assignment, measures relator residuals, builds the irreducible embedding
SL(2) -> SL(n) on symmetric powers, and draws seeded random representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from . import cxla
from .words import GroupPresentation, Word

__all__ = [
    "GroupSpec",
    "Representation",
    "word_products",
    "evaluate_word",
    "relator_values",
    "relator_residual",
    "sym_power_embedding",
    "random_representation",
    "project_det",
    "sl_basis",
    "sl_coords",
    "sl_projections",
    "adjoint_operator",
]

#: Construction-time sanity cap on |det - 1|.  Deliberately loose: points in
#: a Newton basin or a survey perturbation are still representable; strict
#: unimodularity is enforced where certification needs it.
DET_SANITY_TOL = 0.5


@dataclass(frozen=True)
class GroupSpec:
    """Numerical invariants of the target group SL(n, C).

    d = dimension, r = rank of the semisimple part, z = center dimension.
    Only the SL family is implemented; d, r, z are stored explicitly so
    other reductive targets remain a documented extension point.
    """

    n: int
    family: str = "SL"
    d: int = field(init=False)
    r: int = field(init=False)
    z: int = field(init=False)

    def __post_init__(self):
        if self.family != "SL":
            raise ValueError(f"unsupported group family {self.family!r}; only SL")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        object.__setattr__(self, "d", self.n * self.n - 1)
        object.__setattr__(self, "r", self.n - 1)
        object.__setattr__(self, "z", 0)


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images of one point, immutable after construction.

    images is a read-only (m1, n, n) complex128 copy of the input, dets
    its determinants, and inverses the images' inverses, computed on first
    use by one guarded cxla.inverse call (LinAlgError if any image is
    numerically singular) and kept.  Points compare by identity.
    """

    spec: GroupSpec
    images: np.ndarray
    dets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.spec.n
        mats = [np.asarray(m, dtype=np.complex128) for m in self.images]
        for k, m in enumerate(mats):
            if m.shape != (n, n):
                raise ValueError(
                    f"image {k} has shape {m.shape}, expected ({n}, {n})"
                )
        images = np.array(mats).reshape(-1, n, n)
        cxla.check_finite(images)
        dets = np.linalg.det(images)
        dev = np.abs(dets - 1.0)
        bad = np.flatnonzero(dev > DET_SANITY_TOL)
        if bad.size:
            raise ValueError(f"image {bad[0]} has |det - 1| = "
                             f"{dev[bad[0]]:.3e}; not close to SL({n})")
        images.flags.writeable = False
        dets.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "dets", dets)

    @property
    def num_generators(self) -> int:
        return len(self.images)

    @cached_property
    def inverses(self) -> np.ndarray:
        """Read-only inverses of the images, from one guarded stacked call."""
        inverses = cxla.inverse(self.images)
        inverses.flags.writeable = False
        return inverses

    def conjugate(self, g: np.ndarray) -> "Representation":
        return Representation(self.spec, g @ self.images @ cxla.inverse(g))


def word_products(w: Word, rep):
    """Prefix and suffix products of the letter images along w.

    prefixes[t] is the product of the first t letters and suffixes[t] that
    of the letters from t on, so prefixes[-1] and suffixes[0] are both the
    image of w.  Inverse letters read rep.inverses.  rep may also be a stack
    of S points (images and inverses (S, m1, n, n)); each letter is then
    one batched matmul.  This is the only place that multiplies along a word.
    """
    images = rep.images
    *stack, m1, n, _ = images.shape
    if w.max_index() >= m1:
        raise ValueError(f"word uses generator index {w.max_index()}; "
                         f"representation has {m1} images")
    inverses = rep.inverses if any(s == -1 for _, s in w.letters) else images
    images, inverses = images.swapaxes(0, -3), inverses.swapaxes(0, -3)
    mats = [images[k] if s == 1 else inverses[k] for k, s in w.letters]
    prefixes = np.empty((len(mats) + 1, *stack, n, n), dtype=np.complex128)
    suffixes = np.empty_like(prefixes)
    prefixes[0] = suffixes[-1] = np.eye(n)
    pre, suf = list(prefixes), list(suffixes)
    for t in range(len(mats)):
        np.matmul(pre[t], mats[t], out=pre[t + 1])
    for t in reversed(range(len(mats))):
        np.matmul(mats[t], suf[t + 1], out=suf[t])
    return prefixes, suffixes


def evaluate_word(w: Word, rep: Representation) -> np.ndarray:
    """Product of generator images along the word; empty word -> identity."""
    return word_products(w, rep)[0][-1]


def relator_values(p: GroupPresentation, rep: Representation) -> list:
    """Image of each relator under the representation."""
    return [word_products(rel, rep)[0][-1] for rel in p.relators]


def relator_residual(p: GroupPresentation, rep: Representation) -> float:
    """max over relators of the Frobenius distance of the image from I."""
    eye = np.eye(rep.spec.n)
    return max((float(np.linalg.norm(v - eye))
                for v in relator_values(p, rep)), default=0.0)


def sym_power_embedding(m: np.ndarray, n: int) -> np.ndarray:
    """Action of a 2x2 unimodular matrix on degree-(n-1) binary forms.

    Basis: monomials x^{n-1}, x^{n-2} y, ..., y^{n-1}.  The matrix
    [[a, b], [c, d]] substitutes x -> a x + c y, y -> b x + d y, so the
    assignment is a homomorphism and unipotent inputs give integer output
    matrices.  Result has determinant 1 (det(m)^{(n-1)n/2} for det(m) = 1).
    """
    if n < 2:
        raise ValueError(f"target size must be >= 2, got {n}")
    m = cxla.as_matrix(m)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    det_dev = abs(np.linalg.det(m) - 1.0)
    if det_dev > 1e-8:
        raise ValueError(f"|det - 1| = {det_dev:.3e}; input must be unimodular")
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    deg = n - 1
    out = np.zeros((n, n), dtype=np.complex128)
    for col in range(n):
        # image of x^(deg-col) y^col = (a x + c y)^(deg-col) (b x + d y)^col
        p = deg - col
        for i in range(p + 1):
            ci = comb(p, i) * a ** (p - i) * c ** i
            for j in range(col + 1):
                out[i + j, col] += ci * comb(col, j) * b ** (col - j) * d ** j
    return out


def project_det(m: np.ndarray) -> np.ndarray:
    """Rescale by the principal n-th root of det so the result has det 1;
    a stack of shape (k, n, n) is rescaled member by member."""
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[-1]
    det = np.linalg.det(m)
    if np.any(det == 0):
        raise ValueError("cannot normalize a singular matrix to determinant 1")
    return m / np.exp(np.log(det) / n)[..., None, None]


def random_representation(p: GroupPresentation, spec: GroupSpec,
                          seed: int = 0) -> Representation:
    """Seeded standard-normal complex images, normalized to determinant 1."""
    rng = np.random.default_rng(seed)
    n = spec.n
    images = []
    for _ in range(p.num_generators):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        images.append(project_det(m))
    return Representation(spec, images)


def sl_basis(n: int) -> list:
    """Basis of trace-zero n x n matrices: E_ij (i != j, row-major order),
    then H_k = E_kk - E_{k+1,k+1} for k = 0..n-2."""
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                out.append(e)
    for k in range(n - 1):
        h = np.zeros((n, n), dtype=np.complex128)
        h[k, k] = 1.0
        h[k + 1, k + 1] = -1.0
        out.append(h)
    return out


def sl_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates of a trace-zero matrix in the sl_basis ordering.

    Off-diagonal entries are their own coordinates; the H_k coordinate of a
    diagonal (d_0, ..., d_{n-1}) with zero sum is the partial sum
    d_0 + ... + d_k.
    """
    n = m.shape[0]
    off = [m[i, j] for i in range(n) for j in range(n) if i != j]
    diag = np.cumsum(np.diag(m))[:-1]
    return np.concatenate([np.asarray(off, dtype=np.complex128), diag])


@lru_cache(maxsize=None)
def sl_projections(n: int):
    """(B, C): B maps sl_basis coordinates to row-major vec of the matrix,
    C maps a row-major vec to sl_coords.  C @ B is the identity; the arrays
    are shared and read-only."""
    B = np.column_stack([b.reshape(-1) for b in sl_basis(n)])
    C = np.column_stack([sl_coords(e.reshape(n, n))
                         for e in np.eye(n * n, dtype=np.complex128)])
    B.flags.writeable = False
    C.flags.writeable = False
    return B, C


def adjoint_operator(a: np.ndarray) -> np.ndarray:
    """Matrix of X -> a X a^{-1} on sl(n) in the sl_basis coordinates.

    Row-major vec(a X a^{-1}) = kron(a, a^{-T}) vec(X).
    """
    a = np.asarray(a, dtype=np.complex128)
    B, C = sl_projections(a.shape[0])
    return C @ np.kron(a, cxla.inverse(a).T) @ B
