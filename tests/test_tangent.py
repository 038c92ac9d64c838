from __future__ import annotations

import numpy as np
import pytest

from charbound import cxla
from charbound.grouprep import (GroupSpec, Representation, adjoint_operator,
                                evaluate_word, random_representation,
                                relator_residual, sl_projections,
                                sym_power_embedding)
from charbound.tangent import (NewtonConvergenceError, _ambient_system,
                               _newton_state, finite_difference_jacobian,
                               fox_matrix,
                               fox_selftest_deviation, newton_refine,
                               random_selftest_pair, relator_jacobian,
                               tangent_report)
from charbound.words import (GroupPresentation, Word, free_reduce, parse_word,
                             surface_presentation)
from conftest import fixture_path, random_sl, random_su
from charbound import load_document

GENS = ("a", "b")
SL2 = GroupSpec(2)
SL3 = GroupSpec(3)


def random_rep(seed, n=2, k=2):
    p = GroupPresentation(tuple("abcd"[:k]))
    return random_representation(p, GroupSpec(n), seed=seed)


def random_reduced_word(rng, num_gens=2, max_len=10) -> Word:
    while True:
        letters = tuple(
            (int(rng.integers(0, num_gens)), int(rng.choice((1, -1))))
            for _ in range(int(rng.integers(1, max_len + 1)))
        )
        w = free_reduce(Word(letters))
        if w:
            return w


def test_fox_base_cases():
    for n in (2, 3):
        rep = random_rep(0, n=n)
        d = n * n - 1
        g = Word(((0, 1),))
        assert np.allclose(fox_matrix(g, 0, rep), np.eye(d))
        assert np.allclose(fox_matrix(g, 1, rep), np.zeros((d, d)))


def test_fox_inverse_letter():
    rep = random_rep(1)
    ginv = Word(((0, -1),))
    expected = -adjoint_operator(np.linalg.inv(rep.images[0]))
    assert np.allclose(fox_matrix(ginv, 0, rep), expected)


def test_fox_product_rule():
    rng = np.random.default_rng(2)
    rep = random_rep(3)
    for _ in range(30):
        u = random_reduced_word(rng)
        v = random_reduced_word(rng)
        uv = free_reduce(Word(u.letters + v.letters))
        for gen in (0, 1):
            lhs = fox_matrix(uv, gen, rep)
            rhs = (fox_matrix(u, gen, rep)
                   + adjoint_operator(evaluate_word(u, rep))
                   @ fox_matrix(v, gen, rep))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1, np.max(np.abs(rhs)))


def test_fox_rejects_unreduced():
    rep = random_rep(4)
    with pytest.raises(ValueError):
        fox_matrix(Word(((0, 1), (0, -1))), 0, rep)


def test_relator_jacobian_free_group():
    rep = random_rep(5, n=3, k=2)
    p = GroupPresentation(GENS)
    J = relator_jacobian(p, rep)
    assert J.shape == (0, 16)


def test_relator_jacobian_trivial_rep_commutator():
    p = GroupPresentation(GENS, (parse_word("abAB", GENS),))
    rep = Representation(SL2, (np.eye(2), np.eye(2)))
    J = relator_jacobian(p, rep)
    # Ad is trivial, so the commutator derivatives cancel exactly
    assert np.max(np.abs(J)) == 0.0
    report = tangent_report(p, rep)
    assert report.dim_Z1 == 6
    assert report.dim_B1 == 0


def test_finite_difference_agreement_small():
    for seed in range(5):
        p, rep = random_selftest_pair(seed)
        assert fox_selftest_deviation(p, rep) < 1e-6


def test_finite_difference_shapes():
    p, rep = random_selftest_pair(12)
    J = relator_jacobian(p, rep)
    F = finite_difference_jacobian(p, rep)
    assert J.shape == F.shape


def test_newton_exact_input_unchanged(fig8_sl2_doc):
    doc = fig8_sl2_doc
    refined = newton_refine(doc.presentation, doc.representation)
    for a, b in zip(refined.images, doc.representation.images):
        assert np.array_equal(a, b)


def test_newton_recovers_from_perturbation(fig8_sl2_doc):
    doc = fig8_sl2_doc
    rng = np.random.default_rng(6)
    noisy = tuple(
        m + 1e-4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for m in doc.representation.images
    )
    rep = Representation(SL2, noisy)
    assert relator_residual(doc.presentation, rep) > 1e-6
    refined = newton_refine(doc.presentation, rep)
    assert relator_residual(doc.presentation, refined) < 1e-12
    assert np.max(np.abs(refined.dets - 1.0)) < 1e-12


def test_newton_far_point_fails(fig8_sl2_doc):
    doc = fig8_sl2_doc
    rep = random_representation(doc.presentation, SL2, seed=7)
    with pytest.raises(NewtonConvergenceError) as info:
        newton_refine(doc.presentation, rep)
    assert info.value.last_residual > 0


def test_newton_basin_guard_none_skips_entry_check(fig8_sl2_doc):
    doc = fig8_sl2_doc
    rng = np.random.default_rng(8)
    noisy = tuple(
        m + 5e-2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for m in doc.representation.images
    )
    rep = Representation(SL2, noisy)
    with pytest.raises(NewtonConvergenceError):
        newton_refine(doc.presentation, rep, basin_guard=1e-3)
    refined = newton_refine(doc.presentation, rep, basin_guard=None)
    assert relator_residual(doc.presentation, refined) < 1e-12


def test_tangent_report_free_groups():
    for n in (2, 3):
        d = n * n - 1
        for k in (2, 3):
            rep = random_rep(9 + k, n=n, k=k)
            p = GroupPresentation(tuple("abcd"[:k]))
            report = tangent_report(p, rep)
            assert report.jacobian_rank == 0
            assert report.dim_Z1 == k * d
            assert report.dim_B1 == d
            assert report.dim_H1 == (k - 1) * d
            assert report.deficiency_floor == k * d
            assert report.reliable is True


def test_tangent_report_trivial_rep_has_no_coboundaries():
    p = GroupPresentation(GENS, (parse_word("abAbaBAbAB", GENS),))
    rep = Representation(SL2, (np.eye(2), np.eye(2)))
    assert tangent_report(p, rep).dim_B1 == 0


def test_tangent_report_requires_solution():
    p = GroupPresentation(GENS, (parse_word("abAB", GENS),))
    rep = random_rep(10)
    with pytest.raises(ValueError):
        tangent_report(p, rep)


def test_tangent_report_figure_eight(fig8_sl2_doc):
    doc = fig8_sl2_doc
    report = tangent_report(doc.presentation, doc.representation)
    assert report.jacobian_rank == 2
    assert report.dim_Z1 == 4
    assert report.dim_B1 == 3
    assert report.dim_H1 == 1
    assert report.deficiency_floor == 3
    assert report.dim_Z1 >= report.deficiency_floor
    assert report.reliable is True
    assert report.singular_values_margin >= 10


def test_tangent_report_stable_under_rerefinement(fig8_sl2_doc):
    doc = fig8_sl2_doc
    p = doc.presentation
    first = newton_refine(p, doc.representation)
    again = newton_refine(p, first)
    a = tangent_report(p, first)
    b = tangent_report(p, again)
    assert (a.jacobian_rank, a.dim_Z1, a.dim_B1, a.dim_H1) == \
        (b.jacobian_rank, b.dim_Z1, b.dim_B1, b.dim_H1)


def test_tangent_dims_conjugation_invariant(fig8_sl2_doc):
    doc = fig8_sl2_doc
    p = doc.presentation
    base = tangent_report(p, doc.representation)
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_sl(rng, 2)
        conj = doc.representation.conjugate(g)
        conj = newton_refine(p, conj)  # conjugation inflates roundoff
        rep = tangent_report(p, conj)
        assert (rep.jacobian_rank, rep.dim_Z1, rep.dim_B1, rep.dim_H1) == \
            (base.jacobian_rank, base.dim_Z1, base.dim_B1, base.dim_H1)


def test_commuting_pair_tangent_dimension():
    # rank-2 Jacobian at a regular semisimple commuting pair: the
    # remaining singular values vanish identically, so the margin is inf
    p = GroupPresentation(GENS, (parse_word("abAB", GENS),))
    rep = Representation(SL2, (np.diag([2.0, 0.5]), np.diag([4.0, 0.25])))
    report = tangent_report(p, rep)
    assert report.dim_Z1 == 4
    assert report.singular_values_margin == float("inf")


def test_complex_rank_is_half_the_realified_rank():
    points = []
    for name in ("figure_eight_sl2", "figure_eight_sl3", "handlebody_f2_sl2"):
        doc = load_document(fixture_path(f"{name}.json"))
        points.append((doc.presentation, doc.representation))
    fig8 = GroupPresentation(GENS, (parse_word("abAbaBAbAB", GENS),))
    a = np.array([[1, 1], [0, 1]])
    b = np.array([[1, 0], [np.exp(-1j * np.pi / 3), 1]])
    for n in (2, 3, 4):
        points.append((fig8, Representation(GroupSpec(n), (
            sym_power_embedding(a, n), sym_power_embedding(b, n)))))
    genus_two = surface_presentation(2)
    for n in (2, 3, 4, 6):
        # images (A, B, B, A) satisfy the genus-2 relator exactly, as in
        # goldman_check
        A, B = random_representation(GroupPresentation(GENS), GroupSpec(n),
                                     seed=n).images
        points.append((genus_two, Representation(GroupSpec(n), (A, B, B, A))))
    for p, rep in points:
        J = relator_jacobian(p, rep)
        realified = np.block([[J.real, -J.imag], [J.imag, J.real]])
        real_rank, _ = cxla.rank_and_margin(realified)
        rank, _ = cxla.rank_and_margin(J)
        assert 2 * rank == real_rank
        assert tangent_report(p, rep).jacobian_rank == rank


def raw_equations(p, images):
    """Relator entries minus the identity, then det - 1 per image, from
    plain products and np.linalg.inv: the map whose derivative Newton's
    ambient Jacobian claims to be."""
    n = images[0].shape[0]
    out = []
    for rel in p.relators:
        value = np.eye(n, dtype=complex)
        for k, s in rel.letters:
            value = value @ (images[k] if s == 1 else np.linalg.inv(images[k]))
        out.append((value - np.eye(n)).reshape(-1))
    out.append(np.array([np.linalg.det(m) for m in images]) - 1.0)
    return np.concatenate(out)


def test_ambient_jacobian_matches_central_differences():
    # holomorphic in the entries, so a real step along each raw entry gives
    # the complex derivative; errors as in fox_selftest_deviation
    rng = np.random.default_rng(21)
    step = 1e-7
    for n in (2, 3, 4):
        for _ in range(3):
            num_gens = int(rng.integers(2, 4))
            relators = []
            while len(relators) < 2:
                w = random_reduced_word(rng, num_gens, max_len=12)
                gens = [k for k, _ in w.letters]
                if len(set(gens)) < len(gens) and any(
                        s == -1 for _, s in w.letters):
                    relators.append(w)
            p = GroupPresentation(tuple("abc"[:num_gens]), tuple(relators))
            images = [random_su(rng, n) for _ in range(num_gens)]
            rep = Representation(GroupSpec(n), tuple(images))
            _, state = _newton_state(p, rep)
            F, J = _ambient_system(p, rep, *state)
            assert np.allclose(F, raw_equations(p, images), atol=1e-12)
            cols = []
            for g in range(num_gens):
                for e in np.eye(n * n):
                    shift = step * e.reshape(n, n)
                    plus, minus = list(images), list(images)
                    plus[g] = images[g] + shift
                    minus[g] = images[g] - shift
                    cols.append((raw_equations(p, plus)
                                 - raw_equations(p, minus)) / (2 * step))
            assert np.max(np.abs(J - np.column_stack(cols))) < 1e-6


def extended_fox_form(p, rep):
    """Sum of s_t C kron(Q_t, Q_t^{-T}) B per generator in np.clongdouble,
    Q_t the prefix before a positive letter and through an inverse one,
    from matmul and kron only; the image inverses are refined by three
    Newton-Schulz steps."""
    n = rep.spec.n
    eye = np.eye(n, dtype=np.clongdouble)
    images = rep.images.astype(np.clongdouble)
    inverses = np.linalg.inv(rep.images).astype(np.clongdouble)
    for _ in range(3):
        inverses = inverses @ (2 * eye - images @ inverses)
    B, C = (m.astype(np.clongdouble) for m in sl_projections(n))
    rows = []
    for rel in p.relators:
        K = np.zeros((rep.num_generators, n * n, n * n), dtype=np.clongdouble)
        Q, Q_inv = eye, eye
        for k, s in rel.letters:
            if s == -1:
                Q, Q_inv = Q @ inverses[k], images[k] @ Q_inv
            K[k] += s * np.kron(Q, Q_inv.T)
            if s == 1:
                Q, Q_inv = Q @ images[k], inverses[k] @ Q_inv
        rows.append(np.hstack([C @ block @ B for block in K]))
    return np.vstack(rows)


def test_relator_jacobian_matches_extended_precision_fox_form():
    # the true sigma_k / sigma_max at these points falls to 6.5e-10 at n = 8
    # and 1.3e-12 at n = 10; an assembly error near it makes the rank gap
    # no evidence of rank
    fig8 = GroupPresentation(GENS, (parse_word("abAbaBAbAB", GENS),))
    a = np.array([[1, 1], [0, 1]])
    b = np.array([[1, 0], [np.exp(-1j * np.pi / 3), 1]])
    for n in range(2, 11):
        rep = Representation(GroupSpec(n), (sym_power_embedding(a, n),
                                            sym_power_embedding(b, n)))
        ref = extended_fox_form(fig8, rep)
        err = (relator_jacobian(fig8, rep) - ref).astype(np.complex128)
        sigma_max = np.linalg.norm(ref.astype(np.complex128), 2)
        assert np.linalg.norm(err, 2) <= 5e-12 * sigma_max, n
