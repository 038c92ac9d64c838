from __future__ import annotations

import importlib
import json
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from charbound import cxla
from charbound.certify import (_SCHEMA, BOUND_MET,
                               BOUND_VIOLATION_SUSPECT_INPUT,
                               HYPOTHESES_NOT_MET, SURVEY_NOISE_SCALE,
                               UNRELIABLE, InputDocumentError, certify,
                               document_from_dict, goldman_check,
                               load_document, report_to_dict, survey)
from charbound.grouprep import (GroupSpec, Representation,
                                random_representation, sym_power_embedding)
from charbound.tangent import NewtonConvergenceError
from charbound.words import GroupPresentation
from conftest import fixture_path


def fig8_dict(n=2):
    path = fixture_path(f"figure_eight_sl{n}.json")
    with open(path) as fh:
        return json.load(fh)


def free_doc_dict(images, gens=("a", "b"), n=2):
    return {
        "group": {"family": "SL", "n": n},
        "presentation": {"generators": list(gens), "relators": []},
        "representation": {
            g: [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)]
                for i in range(n)]
            for g, m in zip(gens, images)
        },
    }


def test_load_documents(fig8_sl2_doc, fig8_sl3_doc, handlebody_doc):
    assert fig8_sl2_doc.spec.n == 2
    assert fig8_sl2_doc.presentation.num_relators == 1
    assert fig8_sl2_doc.euler_characteristic == 0
    assert fig8_sl3_doc.spec.n == 3
    assert handlebody_doc.euler_characteristic == -1
    assert handlebody_doc.presentation.torus_count == 0


def test_schema_rejections():
    good = fig8_dict()
    for mutate in [
        lambda d: d.pop("representation"),
        lambda d: d.pop("group"),
        lambda d: d["group"].__setitem__("family", "GL"),
        lambda d: d["group"].__setitem__("n", 1),
        lambda d: d["presentation"].__setitem__("generators", []),
        lambda d: d["peripheral"][0].__setitem__("kind", "sphere"),
        lambda d: d.__setitem__("unexpected", 1),
        lambda d: d.__setitem__("tolerances", {"rank": 0}),
    ]:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(InputDocumentError):
            document_from_dict(doc)


def test_schema_passes_its_metaschema():
    jsonschema.validators.validator_for(_SCHEMA).check_schema(_SCHEMA)


def test_matrix_shape_rejections():
    doc = fig8_dict()
    doc["representation"]["a"] = [[[1, 0]]]
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)
    doc = fig8_dict()
    doc["representation"]["a"][0][0] = [1, 0, 0]
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)
    doc = fig8_dict()
    doc["representation"]["a"][0][0] = 1.0
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)


def test_boolean_matrix_entries_rejected():
    doc = fig8_dict()
    doc["representation"]["a"] = [[[True, 0], [0, 0]], [[0, 0], [True, False]]]
    with pytest.raises(InputDocumentError, match=r"'a', entry \(0,0\)"):
        document_from_dict(doc)


def test_overflowing_matrix_entry_rejected():
    with open(fixture_path("handlebody_f2_sl2.json")) as fh:
        doc = json.load(fh)
    doc["representation"]["a"][0][0] = [10**400, 0]
    with pytest.raises(InputDocumentError, match=r"'a', entry \(0,0\)"):
        document_from_dict(doc)


def test_documents_compare_without_raising():
    first = load_document(fixture_path("figure_eight_sl2.json"))
    second = load_document(fixture_path("figure_eight_sl2.json"))
    assert (first == first) is True
    assert isinstance(first == second, bool)
    assert isinstance(first.representation == second.representation, bool)


def test_certify_guards_ill_conditioned_image_before_refining():
    # sigma_min / sigma_max = 1e-10 is below the inverse guard; with no
    # relators the guard still fails in Newton's first state
    with open(fixture_path("handlebody_f2_sl2.json")) as fh:
        doc = json.load(fh)
    doc["representation"]["a"] = [[[1e5, 0], [0, 0]], [[0, 0], [1e-5, 0]]]
    with pytest.raises(np.linalg.LinAlgError):
        certify(document_from_dict(doc))


def test_representation_keys_must_match_generators():
    doc = fig8_dict()
    doc["representation"]["c"] = doc["representation"]["a"]
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)
    doc = fig8_dict()
    del doc["representation"]["b"]
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)


def test_bad_word_rejected():
    doc = fig8_dict()
    doc["presentation"]["relators"] = ["abq"]
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)


def test_torus_needs_two_words():
    doc = fig8_dict()
    doc["peripheral"][0]["words"] = ["a"]
    with pytest.raises(InputDocumentError):
        document_from_dict(doc)


def test_chi_override_warns_on_disagreement():
    doc = fig8_dict()
    doc["euler_characteristic"] = -1
    with pytest.warns(UserWarning):
        parsed = document_from_dict(doc)
    assert parsed.euler_characteristic == -1
    assert parsed.chi_overridden is True


def test_chi_override_matching_is_silent():
    doc = fig8_dict()
    doc["euler_characteristic"] = 0
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = document_from_dict(doc)
    assert parsed.euler_characteristic == 0


def test_certify_figure_eight_sl2(fig8_sl2_doc):
    report = certify(fig8_sl2_doc)
    assert report.verdict == BOUND_MET
    assert report.dim_X0_estimate == 1
    assert report.bound.general_bound == 1
    assert report.residual < 1e-12
    assert report.structure.irreducible and report.structure.boundary_regular
    # the verdict's inequality, asserted independently
    assert report.dim_X0_estimate >= report.bound.general_bound


def test_certify_figure_eight_sl3(fig8_sl3_doc):
    report = certify(fig8_sl3_doc)
    assert report.verdict == BOUND_MET
    assert report.dim_X0_estimate == 2
    assert report.bound.general_bound == 2
    assert report.structure.peripheral_centralizer_dims == (2,)
    assert report.dim_X0_estimate >= report.bound.general_bound


def test_certify_handlebody(handlebody_doc):
    report = certify(handlebody_doc)
    assert report.verdict == BOUND_MET
    assert report.dim_X0_estimate == 3
    assert report.bound.general_bound == 3
    assert report.residual == 0.0


def sym_power_fig8_dict(n, residual):
    """Figure-eight document at the sym^(n-1) point of the SL(2) holonomy,
    with a document-level residual tolerance."""
    a = np.array([[1, 1], [0, 1]])
    b = np.array([[1, 0], [np.exp(-1j * np.pi / 3), 1]])
    data = fig8_dict(2)
    data["group"]["n"] = n
    data["representation"] = {
        g: [[[float(z.real), float(z.imag)] for z in row]
            for row in sym_power_embedding(m, n)]
        for g, m in (("a", a), ("b", b))
    }
    data["tolerances"] = {"residual": residual}
    return data


def test_certify_caps_residual_target_at_certification_bound():
    # a loose document tolerance still refines below the certification
    # bound, so a point that cannot get there fails in Newton, typed
    for n in (5, 6):
        report = certify(document_from_dict(sym_power_fig8_dict(n, 1e-6)))
        assert report.verdict == BOUND_MET
        assert report.residual < 1e-9
    # sym^7 starts near 2e-8, above the bound, and its round-off floor
    # stays there
    with pytest.raises(NewtonConvergenceError):
        certify(document_from_dict(sym_power_fig8_dict(8, 1e-6)))


def test_certify_reducible_rep_fails_hypotheses():
    images = (np.diag([2.0 + 0j, 0.5]), np.diag([3.0 + 0j, 1 / 3.0]))
    doc = document_from_dict(free_doc_dict(images))
    report = certify(doc)
    assert report.verdict == HYPOTHESES_NOT_MET
    # diagnostics still populated
    assert report.structure.irreducible is False
    assert report.tangent.dim_Z1 == 6
    assert report.dim_X0_estimate == 3


def test_certify_wrong_chi_flags_suspect_input(fig8_sl2_doc):
    data = fig8_dict()
    data["euler_characteristic"] = -1  # wrong for a knot exterior
    with pytest.warns(UserWarning):
        doc = document_from_dict(data)
    report = certify(doc)
    assert report.bound.general_bound == 4
    assert report.dim_X0_estimate == 1
    assert report.verdict == BOUND_VIOLATION_SUSPECT_INPUT


def test_certify_coarse_rank_tol_is_unreliable(fig8_sl2_doc):
    # complex relator Jacobian spectrum here is [12.41, 2, ~0]; a cutoff
    # at 0.2 * 12.41 drops the genuine 2.0, so the margin falls to
    # 12.41 / 2 ~ 6.2 < 10 while the structure checks (whose spectra are
    # better separated) still return the true integers
    doc = replace(fig8_sl2_doc, tol_rank=0.2)
    report = certify(doc)
    assert report.structure.irreducible is True
    assert report.structure.boundary_regular is True
    assert report.tangent.reliable is False
    assert report.verdict == UNRELIABLE


def test_certify_garbage_rank_tol_fails_hypotheses_first(fig8_sl2_doc):
    # once the cutoff is coarse enough to corrupt the span-growth ranks the
    # irreducibility check fails, and the hypothesis verdict takes precedence
    doc = replace(fig8_sl2_doc, tol_rank=0.3)
    report = certify(doc)
    assert report.structure.irreducible is False
    assert report.verdict == HYPOTHESES_NOT_MET


def test_certify_verdict_stable_under_tightened_tol(fig8_sl2_doc, fig8_sl3_doc):
    for doc in (fig8_sl2_doc, fig8_sl3_doc):
        base = certify(doc)
        tight = certify(replace(doc, tol_rank=doc.tol_rank / 10))
        assert tight.verdict in (base.verdict, UNRELIABLE)
        if tight.verdict == base.verdict == BOUND_MET:
            assert tight.dim_X0_estimate == base.dim_X0_estimate


def test_certify_deterministic(fig8_sl2_doc):
    a = certify(fig8_sl2_doc)
    b = certify(fig8_sl2_doc)
    assert a == b


def test_report_to_dict_round_trips_through_json(fig8_sl2_doc):
    report = certify(fig8_sl2_doc)
    payload = report_to_dict(report)
    decoded = json.loads(json.dumps(payload, allow_nan=False))
    assert decoded["verdict"] == BOUND_MET
    assert decoded["tangent"]["dim_H1"] == 1
    assert decoded["bound"]["general_bound"] == 1


def test_survey_figure_eight(fig8_sl2_doc):
    result = survey(fig8_sl2_doc, num_samples=8, seed=5)
    assert result.errors == ()
    assert result.estimate_counts == {1: 8}
    assert all(r.verdict == BOUND_MET for r in result.reports)


def test_survey_deterministic(fig8_sl2_doc):
    a = survey(fig8_sl2_doc, num_samples=4, seed=9)
    b = survey(fig8_sl2_doc, num_samples=4, seed=9)
    assert a.estimate_counts == b.estimate_counts
    assert [r.residual for r in a.reports] == [r.residual for r in b.reports]


def test_survey_free_group_constant(handlebody_doc):
    result = survey(handlebody_doc, num_samples=6, seed=2)
    assert result.estimate_counts == {3: 6}


def test_survey_validates_samples(fig8_sl2_doc):
    with pytest.raises(ValueError):
        survey(fig8_sl2_doc, num_samples=0)


def test_survey_propagates_programming_errors(fig8_sl2_doc, monkeypatch):
    # only numerical failures are recorded per sample; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("programming error")

    # charbound.certify is the function; the module comes from importlib
    monkeypatch.setattr(importlib.import_module("charbound.certify"),
                        "tangent_report", broken)
    with pytest.raises(TypeError):
        survey(fig8_sl2_doc, num_samples=2, seed=0)


def test_survey_lockstep_matches_certifying_each_sample(fig8_sl2_doc,
                                                        monkeypatch):
    # sym^3 of the figure-eight point, with a Newton target near the
    # round-off floor: of these four samples two converge, after 6 and 17
    # steps, and two run out of iterations
    spec = GroupSpec(4)
    point = Representation(spec, tuple(
        sym_power_embedding(m, 4) for m in fig8_sl2_doc.representation.images))
    doc = replace(fig8_sl2_doc, spec=spec, representation=point,
                  tol_residual=1.5e-13)
    steps = []
    original_step = cxla.least_squares_step

    def counting_step(J, residual, tol=cxla.DEFAULT_RANK_TOL):
        steps.append(1)
        return original_step(J, residual, tol)

    monkeypatch.setattr(cxla, "least_squares_step", counting_step)
    result = survey(doc, num_samples=4, seed=3)
    survey_steps = len(steps)

    rng = np.random.default_rng(3)
    reports, errors, alone_steps = [], [], []
    for idx in range(4):
        noisy = tuple(m + SURVEY_NOISE_SCALE * (rng.standard_normal((4, 4))
                                                + 1j * rng.standard_normal((4, 4)))
                      for m in point.images)
        del steps[:]
        try:
            reports.append(certify(replace(
                doc, representation=Representation(spec, noisy))))
        except NewtonConvergenceError as e:
            reports.append(None)
            errors.append((idx, f"{type(e).__name__}: {e}"))
        alone_steps.append(len(steps))
    assert result.reports == tuple(reports)
    assert result.errors == tuple(errors)
    assert survey_steps == sum(alone_steps)
    converged = [k for k, r in zip(alone_steps, reports) if r is not None]
    assert len(set(converged)) == 2 and len(errors) == 2


def test_goldman_check_dimensions():
    for n, expected in ((2, 9), (3, 24)):
        report = goldman_check(2, GroupSpec(n), seed=0)
        assert report.ok is True
        assert report.dim_Z1 == expected == report.expected_dim_Z1
        assert report.residual < 1e-9


def test_goldman_check_higher_genus():
    report = goldman_check(3, GroupSpec(2), seed=1)
    assert report.dim_Z1 == 15 == report.expected_dim_Z1
    assert report.ok is True


def test_goldman_check_validates_genus():
    with pytest.raises(ValueError):
        goldman_check(1, GroupSpec(2))


def test_load_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputDocumentError):
        load_document(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(InputDocumentError):
        load_document(str(arr))
