from __future__ import annotations

import numpy as np
import pytest

from charbound.grouprep import (GroupSpec, Representation,
                                random_representation)
from charbound.structure import (NonCommutingPeripheralError,
                                 analyze_structure, centralizer_dim,
                                 is_irreducible_burnside)
from charbound.words import TORUS, GroupPresentation, PeripheralSpec, Word
from conftest import fixture_path, random_sl
from charbound import load_document

SL2 = GroupSpec(2)
SL3 = GroupSpec(3)


def test_centralizer_dim_regular_semisimple():
    assert centralizer_dim([np.diag([2.0, 0.5])], SL2) == 1


def test_centralizer_dim_identity():
    assert centralizer_dim([np.eye(2)], SL2) == 3
    assert centralizer_dim([np.eye(3)], SL3) == 8
    assert centralizer_dim([], SL3) == 8


def test_centralizer_dim_regular_unipotent():
    assert centralizer_dim([np.array([[1.0, 1.0], [0.0, 1.0]])], SL2) == 1


def test_centralizer_dim_steinberg_floor():
    # single elements can never have a centralizer smaller than the rank
    rng = np.random.default_rng(0)
    for spec in (SL2, SL3):
        for _ in range(50):
            assert centralizer_dim([random_sl(rng, spec.n)], spec) >= spec.r


def test_centralizer_dim_irreducible_set_is_zero():
    rng = np.random.default_rng(1)
    for spec in (SL2, SL3):
        mats = [random_sl(rng, spec.n), random_sl(rng, spec.n)]
        assert centralizer_dim(mats, spec) == 0


def test_analyze_structure_rejects_noncommuting_torus_images():
    rng = np.random.default_rng(2)
    torus = PeripheralSpec(TORUS, (Word(((0, 1),)), Word(((1, 1),))))
    p = GroupPresentation(("a", "b"), peripheral=(torus,))
    rep = Representation(SL2, (random_sl(rng, 2), random_sl(rng, 2)))
    with pytest.raises(NonCommutingPeripheralError):
        analyze_structure(p, rep)


def test_burnside_examples():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    diag = np.diag([2.0, 0.5])
    assert is_irreducible_burnside([swap, diag], SL2) is True
    assert is_irreducible_burnside([diag], SL2) is False


def test_burnside_single_matrix_always_reducible():
    rng = np.random.default_rng(3)
    for spec in (SL2, SL3):
        for _ in range(20):
            assert is_irreducible_burnside([random_sl(rng, spec.n)], spec) is False


def test_burnside_empty_error():
    with pytest.raises(ValueError):
        is_irreducible_burnside([], SL2)


def common_eigenvector_test(a: np.ndarray, b: np.ndarray,
                            tol: float = 1e-8) -> bool:
    """Brute-force n=2 reducibility oracle: some eigenvector of a is also an
    eigenvector of b.  Returns True when the pair is irreducible."""
    _, vecs = np.linalg.eig(a)
    for k in range(vecs.shape[1]):
        v = vecs[:, k]
        w = b @ v
        if abs(v[0] * w[1] - v[1] * w[0]) <= tol * max(1.0, np.linalg.norm(w)):
            return False
    # defective a: eig returns near-duplicate eigenvectors, both checked
    return True


def test_burnside_agrees_with_eigenvector_oracle():
    rng = np.random.default_rng(4)
    disagreements = 0
    for k in range(100):
        if k % 2 == 0:
            a, b = random_sl(rng, 2), random_sl(rng, 2)
        else:
            # structured reducible: simultaneously triangular, conjugated
            g = random_sl(rng, 2)
            t1 = np.array([[1.5, rng.standard_normal()], [0.0, 1 / 1.5]])
            t2 = np.array([[0.7, rng.standard_normal()], [0.0, 1 / 0.7]])
            ginv = np.linalg.inv(g)
            a, b = g @ t1 @ ginv, g @ t2 @ ginv
        if is_irreducible_burnside([a, b], SL2) != common_eigenvector_test(a, b):
            disagreements += 1
    assert disagreements == 0


def test_structure_outputs_conjugation_invariant():
    rng = np.random.default_rng(5)
    pairs = [
        [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), np.diag([2.0, 0.5])],
        [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])],
        [random_sl(rng, 2), random_sl(rng, 2)],
    ]
    for mats in pairs:
        base_c = centralizer_dim(mats, SL2)
        base_i = is_irreducible_burnside(mats, SL2)
        for _ in range(10):
            g = random_sl(rng, 2)
            ginv = np.linalg.inv(g)
            conj = [g @ m @ ginv for m in mats]
            assert centralizer_dim(conj, SL2) == base_c
            assert is_irreducible_burnside(conj, SL2) == base_i


def fig8_with_rep():
    doc = load_document(fixture_path("figure_eight_sl2.json"))
    return doc.presentation, doc.representation


def test_analyze_structure_figure_eight():
    p, rep = fig8_with_rep()
    report = analyze_structure(p, rep)
    assert report.irreducible is True
    assert report.boundary_regular is True
    assert report.peripheral_centralizer_dims == (1,)
    assert report.centralizer_dim_full_image == 0


def test_analyze_structure_no_boundary_is_vacuously_regular():
    p = GroupPresentation(("a", "b"))
    rep = random_representation(p, SL2, seed=0)
    report = analyze_structure(p, rep)
    assert report.boundary_regular is True
    assert report.peripheral_centralizer_dims == ()
