from __future__ import annotations

import numpy as np
import pytest
import sympy

from charbound import cxla
from charbound.grouprep import (GroupSpec, Representation, adjoint_operator,
                                evaluate_word, project_det,
                                random_representation, relator_residual,
                                sl_basis, sl_coords, sym_power_embedding)
from charbound.tangent import relator_jacobian
from charbound.words import GroupPresentation, Word, invert_word, parse_word
from conftest import random_sl

GENS = ("a", "b")
F2 = GroupPresentation(GENS)


def sl2_pair(seed):
    rng = np.random.default_rng(seed)
    return Representation(GroupSpec(2), (random_sl(rng, 2), random_sl(rng, 2)))


def test_group_spec_invariants():
    for n in (2, 3, 4, 5):
        spec = GroupSpec(n)
        assert spec.d == n * n - 1
        assert spec.r == n - 1
        assert spec.z == 0
    with pytest.raises(ValueError):
        GroupSpec(1)
    with pytest.raises(ValueError):
        GroupSpec(3, family="PGL")


def test_representation_validation():
    spec = GroupSpec(2)
    with pytest.raises(ValueError):
        Representation(spec, (np.eye(3),))
    with pytest.raises(ValueError):
        Representation(spec, (2.0 * np.eye(2),))  # det 4, far from SL


def test_representation_owns_a_read_only_copy():
    rng = np.random.default_rng(3)
    mats = [random_sl(rng, 3) for _ in range(2)]
    stack = np.array(mats)
    for data in (mats, stack):
        rep = Representation(GroupSpec(3), data)
        before = rep.images.copy()
        data[0][0, 1] = 7
        data[1][0, 0] = 3
        assert rep.images.shape == (2, 3, 3)
        assert rep.images.dtype == np.complex128
        assert np.array_equal(rep.images, before)
        assert np.allclose(rep.dets, [np.linalg.det(m) for m in before])
        with pytest.raises(ValueError):
            rep.images[1][0, 0] = 3
        with pytest.raises(ValueError):
            rep.dets[0] = 3
        with pytest.raises(ValueError):
            rep.inverses[0][0, 0] = 3


def test_inverses_are_computed_once_per_point(monkeypatch):
    rng = np.random.default_rng(4)
    rep = Representation(GroupSpec(3), [random_sl(rng, 3) for _ in range(2)])
    shapes = []
    original = cxla.inverse

    def counting(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(cxla, "inverse", counting)
    evaluate_word(parse_word("abab", GENS), rep)
    assert shapes == []  # no inverse letter, no inverse
    p = GroupPresentation(GENS, (parse_word("abAB", GENS),))
    for _ in range(3):
        evaluate_word(parse_word("aBAb", GENS), rep)
        relator_residual(p, rep)
    assert shapes == [(2, 3, 3)]
    for _ in range(2):
        relator_jacobian(p, rep)
    assert shapes.count((2, 3, 3)) == 1
    for a, inv in zip(rep.images, rep.inverses):
        assert np.allclose(inv, np.linalg.inv(a), rtol=0, atol=1e-12)


def test_evaluate_word_empty_is_identity():
    rep = sl2_pair(0)
    assert np.allclose(evaluate_word(Word(), rep), np.eye(2))


def test_evaluate_word_homomorphism():
    rng = np.random.default_rng(1)
    rep = sl2_pair(2)
    for _ in range(50):
        letters = tuple(
            (int(rng.integers(0, 2)), int(rng.choice((1, -1))))
            for _ in range(int(rng.integers(0, 10)))
        )
        cut = int(rng.integers(0, len(letters) + 1)) if letters else 0
        w, v = Word(letters[:cut]), Word(letters[cut:])
        whole = evaluate_word(Word(letters), rep)
        split = evaluate_word(w, rep) @ evaluate_word(v, rep)
        assert np.max(np.abs(whole - split)) < 1e-10


def test_evaluate_word_inverse():
    rep = sl2_pair(3)
    rng = np.random.default_rng(4)
    for _ in range(30):
        letters = tuple(
            (int(rng.integers(0, 2)), int(rng.choice((1, -1))))
            for _ in range(int(rng.integers(1, 8)))
        )
        w = Word(letters)
        lhs = evaluate_word(invert_word(w), rep)
        rhs = np.linalg.inv(evaluate_word(w, rep))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_evaluate_word_missing_generator():
    rep = Representation(GroupSpec(2), (np.eye(2),))
    with pytest.raises(ValueError):
        evaluate_word(Word(((1, 1),)), rep)


def test_conjugation_equivariance():
    rng = np.random.default_rng(5)
    rep = sl2_pair(6)
    w = parse_word("abAABab", GENS)
    for _ in range(20):
        g = random_sl(rng, 2)
        conj = rep.conjugate(g)
        lhs = evaluate_word(w, conj)
        rhs = g @ evaluate_word(w, rep) @ np.linalg.inv(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1, np.linalg.norm(rhs))


def test_relator_residual_free_group():
    assert relator_residual(F2, sl2_pair(7)) == 0.0


def test_relator_residual_trivial_rep():
    p = GroupPresentation(GENS, (parse_word("abAbaBAbAB", GENS),))
    rep = Representation(GroupSpec(2), (np.eye(2), np.eye(2)))
    assert relator_residual(p, rep) < 1e-14


def test_relator_residual_commutator():
    p = GroupPresentation(GENS, (parse_word("abAB", GENS),))
    commuting = Representation(GroupSpec(2),
                               (np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])))
    assert relator_residual(p, commuting) < 1e-14
    rep = sl2_pair(8)
    assert relator_residual(p, rep) > 1e-3


def sym_power_oracle(m: np.ndarray, n: int) -> np.ndarray:
    """Symbolic polynomial-substitution expansion, fully independent of the
    binomial-formula implementation."""
    x, y = sympy.symbols("x y")
    a, b, c, d = (sympy.nsimplify(complex(v), rational=False)
                  for v in (m[0, 0], m[0, 1], m[1, 0], m[1, 1]))
    deg = n - 1
    out = np.zeros((n, n), dtype=complex)
    for col in range(n):
        image = sympy.expand((a * x + c * y) ** (deg - col)
                             * (b * x + d * y) ** col)
        poly = sympy.Poly(image, x, y)
        for row in range(n):
            out[row, col] = complex(poly.coeff_monomial(x ** (deg - row)
                                                        * y ** row))
    return out


def test_sym_power_diagonal():
    lam = 1.7
    m = np.diag([lam, 1 / lam])
    assert np.allclose(sym_power_embedding(m, 3),
                       np.diag([lam ** 2, 1.0, lam ** -2]))


def test_sym_power_identity():
    for n in (2, 3, 4, 5):
        assert np.allclose(sym_power_embedding(np.eye(2), n), np.eye(n))


def test_sym_power_unipotent_against_oracle():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    got = sym_power_embedding(m, 3)
    assert np.allclose(got, np.triu(got))
    assert np.allclose(np.diag(got), 1.0)
    assert np.allclose(got, sym_power_oracle(m, 3))


def test_sym_power_against_oracle_various():
    cases = [
        np.array([[1.0, 0.0], [1.0, 1.0]]),
        np.array([[2.0, 1.0], [1.0, 1.0]]),
        np.array([[0.0, -1.0], [1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.5 - 0.8660254037844386j, 1.0]]),
    ]
    for m in cases:
        for n in (2, 3, 4):
            assert np.max(np.abs(sym_power_embedding(m, n)
                                 - sym_power_oracle(m, n))) < 1e-10


def test_sym_power_homomorphism():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5):
        for _ in range(10):
            m1, m2 = random_sl(rng, 2), random_sl(rng, 2)
            lhs = sym_power_embedding(m1 @ m2, n)
            rhs = sym_power_embedding(m1, n) @ sym_power_embedding(m2, n)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1, np.max(np.abs(rhs)))


def test_sym_power_character():
    rng = np.random.default_rng(10)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            lam = np.exp(rng.standard_normal() + 1j * rng.standard_normal())
            m = np.diag([lam, 1 / lam])
            expected = sum(lam ** (n - 1 - 2 * k) for k in range(n))
            assert abs(np.trace(sym_power_embedding(m, n)) - expected) < 1e-8


def test_sym_power_determinant_one():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        m = random_sl(rng, 2)
        assert abs(np.linalg.det(sym_power_embedding(m, n)) - 1.0) < 1e-9


def test_sym_power_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_power_embedding(np.eye(2), 1)
    with pytest.raises(ValueError):
        sym_power_embedding(2.0 * np.eye(2), 3)
    with pytest.raises(ValueError):
        sym_power_embedding(np.eye(3), 3)


def test_random_representation_deterministic():
    a = random_representation(F2, GroupSpec(3), seed=42)
    b = random_representation(F2, GroupSpec(3), seed=42)
    for ma, mb in zip(a.images, b.images):
        assert np.array_equal(ma, mb)


def test_random_representation_det_one():
    for seed in range(10):
        rep = random_representation(F2, GroupSpec(3), seed=seed)
        assert np.max(np.abs(rep.dets - 1.0)) < 1e-12


def test_random_representation_seeds_differ():
    a = random_representation(F2, GroupSpec(2), seed=0)
    b = random_representation(F2, GroupSpec(2), seed=1)
    assert np.max(np.abs(a.images[0] - b.images[0])) > 1e-3


def test_project_det():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(np.linalg.det(project_det(m)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        project_det(np.zeros((2, 2)))


def test_sl_basis_and_coords():
    for n in (2, 3, 4):
        basis = sl_basis(n)
        assert len(basis) == n * n - 1
        for k, b in enumerate(basis):
            assert abs(np.trace(b)) < 1e-15
            coords = sl_coords(b)
            expected = np.zeros(n * n - 1)
            expected[k] = 1.0
            assert np.allclose(coords, expected)


def test_adjoint_operator_identity():
    for n in (2, 3):
        assert np.allclose(adjoint_operator(np.eye(n)), np.eye(n * n - 1))


def test_adjoint_operator_matches_per_basis_definition():
    rng = np.random.default_rng(14)
    for n in range(2, 7):
        a = random_sl(rng, n)
        ainv = np.linalg.inv(a)
        expected = np.column_stack([sl_coords(a @ b @ ainv)
                                    for b in sl_basis(n)])
        got = adjoint_operator(a)
        assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


def test_adjoint_operator_is_multiplicative():
    rng = np.random.default_rng(13)
    for n in (2, 3):
        a, b = random_sl(rng, n), random_sl(rng, n)
        lhs = adjoint_operator(a @ b)
        rhs = adjoint_operator(a) @ adjoint_operator(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1, np.max(np.abs(rhs)))
