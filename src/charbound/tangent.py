"""Fox calculus Jacobians, Newton refinement, and tangent-space dimensions.

The differential of the relator evaluation map at a representation is
assembled from Fox derivatives evaluated through the adjoint action; its
nullspace is the cocycle space Z^1 of the group with coefficients in the
Lie algebra.  Tangent directions are measured by left translation: the
perturbation of a generator image A is exp(eps X) A for X trace-zero, and a
word's perturbation is read off as (d/deps rho_eps(w)) rho(w)^{-1}.  This
makes the Jacobian exact at every representation, not only at solutions,
which the finite-difference cross-check exploits.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import cxla
from .grouprep import (GroupSpec, Representation, project_det,
                       relator_residual, relator_values, sl_basis, sl_coords,
                       sl_projections, word_products)
from .structure import centralizer_dim
from .words import (GroupPresentation, Word, free_reduce, invert_word,
                    is_reduced)

__all__ = [
    "TangentReport",
    "NewtonConvergenceError",
    "fox_matrix",
    "relator_jacobian",
    "finite_difference_jacobian",
    "newton_refine",
    "refine_points",
    "tangent_report",
    "random_selftest_pair",
    "fox_selftest_deviation",
    "MARGIN_CERTIFIED",
    "RESIDUAL_CERT_BOUND",
]

#: A rank decision is certified only if kept/dropped singular values are
#: separated by at least this factor.
MARGIN_CERTIFIED = 10.0

#: Residual below which a representation counts as a point of Hom for
#: dimension reporting.
RESIDUAL_CERT_BOUND = 1e-9

DEFAULT_NEWTON_TOL = 1e-12
DEFAULT_NEWTON_MAX_ITER = 50


class NewtonConvergenceError(RuntimeError):
    """Newton refinement failed; carries the last residual seen."""

    def __init__(self, last_residual: float, message: str):
        self.last_residual = last_residual
        super().__init__(f"{message} (last residual {last_residual:.3e})")


@dataclass(frozen=True, slots=True)
class TangentReport:
    """Dimensions at one representation.  All dimensions are complex.

    dim_Z1 = d m1 - jacobian_rank is the cocycle space dimension,
    dim_B1 = d - (centralizer dim of the full image) the coboundaries,
    dim_H1 their difference.  deficiency_floor = d (m1 - m2) is the a
    priori lower bound on dim_Z1 from counting equations.  reliable is
    false when the singular-value margin is below MARGIN_CERTIFIED (the
    rank decision is then sensitive to the cutoff).
    """

    jacobian_rank: int
    dim_Z1: int
    dim_B1: int
    dim_H1: int
    deficiency_floor: int
    singular_values_margin: float
    reliable: bool


def _letters(w: Word):
    """Generators, signs and Fox prefix positions of w's letters; the Fox
    prefix Q_t is the product before a positive letter, through an inverse
    one."""
    gens, signs = np.array(w.letters, dtype=int).reshape(-1, 2).T
    return gens, signs, np.arange(len(gens)) + (signs == -1)


def _kron_sums(gens, signs, lefts, rights, m1: int) -> np.ndarray:
    """n^2 x n^2 m1 block row; block k sums signs[t] kron(lefts[t],
    rights[t]^T) over the letters t of generator k, from one product of
    the stacked vec(L) and vec(R^T) permuted into kron layout.  lefts and
    rights hold one n x n member per letter."""
    n = lefts.shape[-1]
    nn = n * n
    K = np.zeros((nn, nn * m1), dtype=np.complex128)
    L = (lefts * signs[:, None, None]).reshape(-1, nn)
    R = rights.transpose(0, 2, 1).reshape(-1, nn)
    for k in np.unique(gens):
        sel = gens == k
        K[:, k * nn:(k + 1) * nn] = (L[sel].T @ R[sel]).reshape(
            n, n, n, n).transpose(0, 2, 1, 3).reshape(nn, nn)
    return K


def _fox_rows(w: Word, rep: Representation) -> np.ndarray:
    """d x d m1 Fox derivatives of w by every generator, through Ad(rho).

    Block j sums s_t Ad(Q_t) over the letters of generator j, as
    C (sum s_t kron(Q_t, Q_t^{-T})) B, at any representation.  The inverse
    Fox prefixes are suffix products of w^{-1}: no word product is inverted.
    """
    n = rep.spec.n
    d = rep.spec.d
    m1 = rep.num_generators
    B, C = sl_projections(n)
    gens, signs, q = _letters(w)
    prefixes, _ = word_products(w, rep)
    _, inverse_prefixes = word_products(invert_word(w), rep)
    K = _kron_sums(gens, signs, prefixes[q], inverse_prefixes[::-1][q], m1)
    return ((C @ K).reshape(d, m1, n * n) @ B).reshape(d, d * m1)


def fox_matrix(w: Word, gen_index: int, rep: Representation) -> np.ndarray:
    """Fox derivative of w by generator gen_index, evaluated through Ad(rho).

    Returns the d x d operator on trace-zero matrices
        sum over positive occurrences of Ad(rho(prefix before the letter))
      - sum over inverse occurrences of Ad(rho(prefix through the letter)),
    the one-generator block of relator_jacobian's row for w.
    """
    if not is_reduced(w):
        raise ValueError("fox_matrix expects a freely reduced word")
    d = rep.spec.d
    rows = _fox_rows(w, rep)
    return rows[:, gen_index * d:(gen_index + 1) * d]


def relator_jacobian(p: GroupPresentation, rep: Representation) -> np.ndarray:
    """d m2 x d m1 block matrix of Fox derivatives; nullspace = Z^1."""
    d = rep.spec.d
    m1 = p.num_generators
    if not p.relators:
        return np.zeros((0, d * m1), dtype=np.complex128)
    return np.vstack([_fox_rows(rel, rep) for rel in p.relators])


#: S points: images and inverses (S, m1, n, n), dets (S, m1).  word_products
#: reads it like a Representation.
_Points = namedtuple("_Points", "images dets inverses")


def finite_difference_jacobian(p: GroupPresentation, rep: Representation,
                               step: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of the relator map, same layout as
    relator_jacobian.  Perturbs each generator image A to (I + eps X) A
    along trace-zero directions X and right-translates the difference
    quotient by rho(r)^{-1}; even-order errors cancel, so agreement with
    the analytic Jacobian holds at any representation.  All 2 d m1
    perturbed points go through word_products as one stack.
    """
    n, d, m1 = rep.spec.n, rep.spec.d, rep.num_generators
    if not p.relators:
        return np.zeros((0, d * m1), dtype=np.complex128)
    shifts = np.eye(n) + np.multiply.outer([step, -step], sl_basis(n))
    images = np.broadcast_to(rep.images, (2, m1, d, m1, n, n)).copy()
    for j in range(m1):
        images[:, j, :, j] = shifts @ rep.images[j]
    images = images.reshape(-1, m1, n, n)
    points = _Points(images, None, cxla.inverse(
        images.reshape(-1, n, n)).reshape(images.shape))
    rows = []
    for rel, inv in zip(p.relators, cxla.inverse(relator_values(p, rep))):
        plus, minus = word_products(rel, points)[0][-1].reshape(2, -1, n, n)
        rows.append(np.column_stack(
            [sl_coords(q) for q in (plus - minus) / (2.0 * step) @ inv]))
    return np.vstack(rows)


def _newton_state(p: GroupPresentation, points):
    """Residuals of the relator + determinant equations, one per point of a
    _Points stack (one for a Representation), and the relator products."""
    products = [word_products(rel, points) for rel in p.relators]
    eye = np.eye(points.images.shape[-1])
    values = [pre[-1].reshape(-1, *eye.shape) for pre, _ in products]
    devs = np.abs(points.dets - 1.0).reshape(-1, p.num_generators)
    return [max([float(np.linalg.norm(v[i] - eye)) for v in values]
                + dev.tolist()) for i, dev in enumerate(devs)], (products,)


def _ambient_system(p: GroupPresentation, rep, products):
    """Residual vector and Jacobian of the relator + determinant equations
    in ambient coordinates at one point.  Everything is polynomial in the
    entries, so the complex (holomorphic) Newton step is valid.  Letter t
    of a relator contributes s_t kron(Q_t, S_t^T), Q_t its Fox prefix and
    S_t the suffix product after a positive letter, from an inverse one on.
    """
    n = rep.images.shape[-1]
    nn = n * n
    m1 = p.num_generators
    eye = np.eye(n, dtype=np.complex128)
    F = [(prefixes[-1] - eye).reshape(-1) for prefixes, _ in products]
    J = [_kron_sums(g, s, pre[q], suf[q + s], m1)
         for (g, s, q), (pre, suf) in zip(map(_letters, p.relators), products)]
    det_rows = np.zeros((m1, nn * m1), dtype=np.complex128)
    for g, (det, inv) in enumerate(zip(rep.dets, rep.inverses)):
        det_rows[g, g * nn:(g + 1) * nn] = det * inv.T.reshape(-1)
    return np.concatenate(F + [rep.dets - 1.0]), np.vstack(J + [det_rows])


def _guarded(spec: GroupSpec, images, project: bool, live: list, outcomes):
    """(starts still live, their _Points): the iterates (S, m1, n, n) of
    the starts live, rescaled to det 1 after a step (project), checked and
    inverted as one Representation.  If that fails, each is checked alone
    and its error recorded in outcomes."""
    try:
        x = project_det(images) if project else images
        flat = Representation(spec, x.reshape(-1, spec.n, spec.n))
        return live, _Points(x, flat.dets.reshape(x.shape[:-2]),
                             flat.inverses.reshape(x.shape))
    except (ValueError, np.linalg.LinAlgError) as e:
        if len(live) == 1:
            outcomes[live[0]] = e
            return [], None
    ok = [i for i in range(len(live)) if _guarded(
        spec, images[i:i + 1], project, live[i:i + 1], outcomes)[0]]
    return _guarded(spec, images[ok], project, [live[i] for i in ok],
                    outcomes) if ok else ([], None)


def refine_points(p: GroupPresentation, spec: GroupSpec, starts,
                  tol_residual: float = DEFAULT_NEWTON_TOL,
                  max_iter: int = DEFAULT_NEWTON_MAX_ITER) -> list:
    """Newton refinement in lockstep of starts (S, m1, n, n): for each, its
    refined Representation or the error that stopped it.  starts may also
    be one Representation, a stack of one: kept as it is if at tolerance,
    and its own inverse guard raises.  Each point takes minimum-norm
    least-squares steps on its ambient system, every image re-projected to
    determinant 1 after each step; checks, inverse guard, word products
    and stop test are stacked calls.
    """
    if isinstance(starts, Representation):
        outcomes, live = [starts], [0]
        points = _Points(starts.images[None], starts.dets[None],
                         starts.inverses[None])
    else:
        outcomes = [None] * len(starts)
        live, points = _guarded(spec, np.asarray(starts, np.complex128),
                                False, list(range(len(starts))), outcomes)
    for it in range(max_iter + 1):
        if not live:
            break
        res, (products,) = _newton_state(p, points)
        stepped, iterates = [], []
        for i, (k, r) in enumerate(zip(live, res)):
            if r < tol_residual:
                if it or outcomes[k] is None:
                    outcomes[k] = rep = Representation(spec, points.images[i])
                    # fill the cached property: these inverses are guarded
                    rep.__dict__["inverses"] = points.inverses[i]
            elif it == max_iter:
                outcomes[k] = NewtonConvergenceError(
                    r, f"no convergence within {max_iter} iterations")
            else:
                point = _Points(*(a[i] for a in points))
                F, J = _ambient_system(p, point, [(pre[:, i], suf[:, i])
                                                  for pre, suf in products])
                try:
                    step = cxla.least_squares_step(J, F)
                except np.linalg.LinAlgError as e:
                    outcomes[k] = e
                    continue
                stepped.append(k)
                iterates.append(point.images + step.reshape(point.images.shape))
        if not stepped:
            break
        live, points = _guarded(spec, np.array(iterates), True, stepped,
                                outcomes)
    return outcomes


def newton_refine(p: GroupPresentation, rep: Representation,
                  tol_residual: float = DEFAULT_NEWTON_TOL,
                  max_iter: int = DEFAULT_NEWTON_MAX_ITER) -> Representation:
    """Refine rep onto the solution set of the relator equations:
    refine_points on rep as a stack of one.  Raises what stopped it:
    NewtonConvergenceError, or an iterate's ValueError or LinAlgError.
    """
    refined, = refine_points(p, rep.spec, rep, tol_residual, max_iter)
    if isinstance(refined, Exception):
        raise refined
    return refined


def random_selftest_pair(seed: int):
    """Seeded random (presentation, representation) pair for the
    Fox-vs-finite-difference comparison: up to 3 generators, 1 or 2
    relators of length <= 12, n in {2, 3}.  The representation need not
    satisfy the relators; the comparison is valid at any point.

    Images are special-unitary so word products stay at norm O(1); with
    unnormalized draws the products reach ~1e5 and the cancellation noise
    of the difference quotient alone would swamp an absolute threshold.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    num_gens = int(rng.integers(1, 4))
    num_rels = int(rng.integers(1, 3))
    names = tuple("abc"[:num_gens])
    relators = []
    while len(relators) < num_rels:
        length = int(rng.integers(2, 13))
        letters = tuple(
            (int(rng.integers(0, num_gens)), int(rng.choice((1, -1))))
            for _ in range(length)
        )
        w = free_reduce(Word(letters))
        if w:
            relators.append(w)
    p = GroupPresentation(names, tuple(relators))
    images = []
    for _ in range(num_gens):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        images.append(project_det(q))
    rep = Representation(GroupSpec(n=n), images)
    return p, rep


def fox_selftest_deviation(p: GroupPresentation, rep: Representation,
                           step: float = 1e-7) -> float:
    """Max absolute entry deviation between the analytic and
    central-difference Jacobians."""
    analytic = relator_jacobian(p, rep)
    numeric = finite_difference_jacobian(p, rep, step)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric)))


def tangent_report(p: GroupPresentation, rep: Representation,
                   tol: float = cxla.DEFAULT_RANK_TOL, *,
                   centralizer_dim_full_image: "int | None" = None,
                   ) -> TangentReport:
    """Ranks and dimensions at a representation satisfying the relators.

    The rank is decided on the complex Jacobian at the relative cutoff tol;
    a kept/dropped singular value margin below MARGIN_CERTIFIED flags the
    report unreliable.  Reported dimensions are complex dimensions.  A
    caller that already has the full image's centralizer dimension at tol
    passes it as centralizer_dim_full_image instead of recomputing it.
    """
    res = relator_residual(p, rep)
    if res >= RESIDUAL_CERT_BOUND:
        raise ValueError(
            f"relator residual {res:.3e} exceeds the certification bound "
            f"{RESIDUAL_CERT_BOUND:g}; refine the representation first"
        )
    spec = rep.spec
    d = spec.d
    m1 = p.num_generators
    m2 = p.num_relators
    rank, margin = cxla.rank_and_margin(relator_jacobian(p, rep), tol)
    dim_Z1 = d * m1 - rank
    if centralizer_dim_full_image is None:
        centralizer_dim_full_image = centralizer_dim(rep.images, spec, tol)
    dim_B1 = d - centralizer_dim_full_image
    return TangentReport(
        jacobian_rank=rank,
        dim_Z1=dim_Z1,
        dim_B1=dim_B1,
        dim_H1=dim_Z1 - dim_B1,
        deficiency_floor=d * (m1 - m2),
        singular_values_margin=margin,
        reliable=margin >= MARGIN_CERTIFIED,
    )
