"""Deterministic guards on how often the pipeline calls its kernels.

They count calls, never time them, so they hold on any machine: the Newton
and Fox kernels stay free of per-letter Kronecker products, each point's
generator images are inverted in one stacked call shared by all its
readers, survey samples share one guard per Newton state, and a
certification computes the full-image centralizer once.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

from charbound import certify, cxla, load_document, survey
from conftest import fixture_path

tangent = importlib.import_module("charbound.tangent")
structure = importlib.import_module("charbound.structure")


def test_certify_computes_full_image_centralizer_once(fig8_sl3_doc,
                                                      monkeypatch):
    calls = []
    original = structure.centralizer_dim

    def counting(mats, spec, tol=cxla.DEFAULT_RANK_TOL):
        calls.append(len(mats))
        return original(mats, spec, tol)

    monkeypatch.setattr(structure, "centralizer_dim", counting)
    monkeypatch.setattr(tangent, "centralizer_dim", counting)
    certify(fig8_sl3_doc)
    # the full image (two generators), then the peripheral pair
    assert calls == [2, 2]


def test_newton_and_jacobian_kernels_call_counts(monkeypatch):
    kron_callers = []
    original_kron = np.kron

    def counting_kron(a, b):
        kron_callers.append(sys._getframe(1).f_globals.get("__name__"))
        return original_kron(a, b)

    # S: inverse of an (m1, n, n) image stack, R: inverse of one (n, n)
    # matrix, T: one Newton (least-squares) step
    events = []
    inverse_shapes = []
    original_inverse = cxla.inverse

    def counting_inverse(a):
        inverse_shapes.append(np.shape(a))
        events.append("S" if np.ndim(a) == 3 else "R")
        return original_inverse(a)

    original_step = cxla.least_squares_step

    def counting_step(J, residual, tol=cxla.DEFAULT_RANK_TOL):
        events.append("T")
        return original_step(J, residual, tol)

    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(cxla, "inverse", counting_inverse)
    monkeypatch.setattr(cxla, "least_squares_step", counting_step)
    # freshly loaded: a shared document may already hold its inverses
    sl2_doc = load_document(fixture_path("figure_eight_sl2.json"))
    sl3_doc = load_document(fixture_path("figure_eight_sl3.json"))

    certify(sl3_doc)
    # the image stack once (Newton's check, then every later reader); the
    # Fox Jacobian inverts no relator value
    assert inverse_shapes == [(2, 3, 3)]

    del events[:], inverse_shapes[:]
    result = survey(sl2_doc, num_samples=3, seed=1)
    assert not result.errors
    # the samples refine in lockstep: one guard over all three image stacks
    # per state, start and each iterate, then one step per sample; each
    # sample takes the 3 steps it took when it refined alone
    assert "".join(events) == "STTT" * 3 + "S"
    assert set(inverse_shapes) == {(3 * 2, 2, 2)}

    assert not {"charbound.tangent", "charbound.structure"} & set(kron_callers)


def test_finite_difference_oracle_evaluates_one_stack(monkeypatch):
    # three generators, two relators, n = 3: 48 perturbed points
    p, rep = tangent.random_selftest_pair(4)
    rep.inverses  # the point's own guard, shared with the analytic side
    calls = []
    for name in ("det", "svd"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)

    def fox_kernel(*args):
        raise AssertionError("the oracle must stay off the Fox kernel")

    monkeypatch.setattr(tangent, "_kron_sums", fox_kernel)
    tangent.finite_difference_jacobian(p, rep)
    # one guard for all 2 d m1 perturbed points, one for the relator values;
    # no perturbed point is validated on its own
    assert calls == ["svd", "svd"]
