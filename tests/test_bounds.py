from __future__ import annotations

import numpy as np
import pytest

from charbound.bounds import (ManifoldData, goldman_dim, hom_to_char_drop,
                              sl_n_bound, thurston_bound)
from charbound.grouprep import GroupSpec


def test_thurston_bound_one_cusp():
    m = ManifoldData(torus_count=1, euler_characteristic=0)
    assert thurston_bound(m, GroupSpec(2)).general_bound == 1
    assert thurston_bound(m, GroupSpec(3)).general_bound == 2


def test_thurston_bound_no_torus():
    for n in (2, 3, 4):
        d = n * n - 1
        for chi in range(-5, 3):
            m = ManifoldData(torus_count=0, euler_characteristic=chi)
            assert thurston_bound(m, GroupSpec(n)).general_bound == -d * chi


def test_thurston_bound_echoes_inputs():
    report = thurston_bound(ManifoldData(2, -1), GroupSpec(3))
    assert (report.t, report.chi, report.d, report.r, report.z) == (2, -1, 8, 2, 0)
    assert report.general_bound == 2 * 2 + 8


def test_manifold_data_validation():
    with pytest.raises(ValueError):
        ManifoldData(torus_count=-1, euler_characteristic=0)


def test_sl_n_bound_substitutions():
    assert sl_n_bound(ManifoldData(2, 0), 2) == 2
    assert sl_n_bound(ManifoldData(1, -1), 3) == 10
    with pytest.raises(ValueError):
        sl_n_bound(ManifoldData(1, 0), 1)


def test_sl_n_bound_agrees_with_thurston():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(0, 6))
        chi = int(rng.integers(-8, 4))
        m = ManifoldData(t, chi)
        assert sl_n_bound(m, n) == thurston_bound(m, GroupSpec(n)).general_bound


def test_thurston_bound_affine_in_t_and_chi():
    for n in (2, 3):
        spec = GroupSpec(n)
        for chi in range(-4, 3):
            vals = [thurston_bound(ManifoldData(t, chi), spec).general_bound
                    for t in range(5)]
            diffs = {b - a for a, b in zip(vals, vals[1:])}
            assert diffs == {spec.r}
        for t in range(4):
            vals = [thurston_bound(ManifoldData(t, chi), spec).general_bound
                    for chi in range(-4, 3)]
            diffs = {b - a for a, b in zip(vals, vals[1:])}
            assert diffs == {-spec.d}


def test_goldman_dim():
    assert goldman_dim(2, GroupSpec(2)) == 9
    assert goldman_dim(2, GroupSpec(3)) == 24
    assert goldman_dim(1, GroupSpec(2)) == 3
    with pytest.raises(ValueError):
        goldman_dim(0, GroupSpec(2))


def test_hom_to_char_drop():
    assert hom_to_char_drop(4, GroupSpec(2)) == 1
    assert hom_to_char_drop(10, GroupSpec(3)) == 2
    for a in range(0, 30, 5):
        spec = GroupSpec(3)
        assert hom_to_char_drop(a, spec) + spec.d - spec.z == a
    with pytest.raises(ValueError):
        hom_to_char_drop(-1, GroupSpec(2))


def test_free_group_tightness():
    # handlebody of genus k: t=0, chi = 1-k; the exact dimension
    # k d - d + z meets the bound with equality
    for n in (2, 3):
        spec = GroupSpec(n)
        for k in range(1, 5):
            m = ManifoldData(torus_count=0, euler_characteristic=1 - k)
            bound = thurston_bound(m, spec).general_bound
            exact = k * spec.d - spec.d + spec.z
            assert bound == exact == spec.d * (k - 1)
