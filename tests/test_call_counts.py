"""Deterministic guards on how often the pipeline calls its kernels.

They count calls, never time them, so they hold on any machine: the Newton
and Fox kernels stay free of per-letter Kronecker products, Newton inverts
its generator images in one stacked call per iteration, and a certification
computes the full-image centralizer once.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

from charbound import certify, cxla, survey

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


def test_newton_and_jacobian_kernels_call_counts(fig8_sl2_doc, fig8_sl3_doc,
                                                 monkeypatch):
    kron_callers = []
    original_kron = np.kron

    def counting_kron(a, b):
        kron_callers.append(sys._getframe(1).f_globals.get("__name__"))
        return original_kron(a, b)

    inverse_shapes = []
    original_inverse = cxla.inverse

    def counting_inverse(a):
        inverse_shapes.append(np.shape(a))
        return original_inverse(a)

    states = []
    original_state = tangent._newton_state

    def counting_state(p, rep):
        start = len(inverse_shapes)
        out = original_state(p, rep)
        states.append((rep.num_generators, rep.spec.n,
                       inverse_shapes[start:]))
        return out

    steps = []
    original_step = cxla.least_squares_step

    def counting_step(J, residual, tol=cxla.DEFAULT_RANK_TOL):
        steps.append(J.shape)
        return original_step(J, residual, tol)

    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(cxla, "inverse", counting_inverse)
    monkeypatch.setattr(cxla, "least_squares_step", counting_step)
    monkeypatch.setattr(tangent, "_newton_state", counting_state)
    certify(fig8_sl3_doc)
    result = survey(fig8_sl2_doc, num_samples=3, seed=1)
    assert not result.errors

    assert not {"charbound.tangent", "charbound.structure"} & set(kron_callers)
    # one certify and three survey samples refine once each; every Newton
    # iteration (one least-squares step) evaluates one more state
    assert len(steps) > 0
    assert len(states) == 4 + len(steps)
    for m1, n, shapes in states:
        assert shapes == [(m1, n, n)]
