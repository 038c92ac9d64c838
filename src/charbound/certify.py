"""Certification pipeline and structured input documents.

Ties the other modules together: refine the supplied representation onto
the relator equations, check the hypotheses (irreducibility, boundary
regularity), compute tangent dimensions, evaluate the closed-form bound,
and compare.  The verdict ladder is explicit about what was checked: a
point failing a hypothesis gets HYPOTHESES_NOT_MET with diagnostics intact,
because the bound is simply not asserted there; a reliable, hypothesis-
satisfying point measuring below the bound is flagged as suspect input, not
as a refutation.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import jsonschema
import numpy as np

from . import cxla
from .bounds import (BoundReport, ManifoldData, goldman_dim, hom_to_char_drop,
                     thurston_bound)
from .grouprep import (GroupSpec, Representation, random_representation,
                       relator_residual)
from .structure import (StructureReport, analyze_structure,
                        is_irreducible_burnside)
from .tangent import (DEFAULT_NEWTON_TOL, RESIDUAL_CERT_BOUND,
                      NewtonConvergenceError, TangentReport, newton_refine,
                      tangent_report)
from .words import (GroupPresentation, PeripheralSpec, euler_characteristic,
                    parse_word, surface_presentation)

__all__ = [
    "BOUND_MET",
    "BOUND_VIOLATION_SUSPECT_INPUT",
    "HYPOTHESES_NOT_MET",
    "UNRELIABLE",
    "InputDocumentError",
    "InputDocument",
    "CertReport",
    "SurveyReport",
    "GoldmanReport",
    "load_document",
    "document_from_dict",
    "certify",
    "survey",
    "goldman_check",
    "report_to_dict",
]

BOUND_MET = "BOUND_MET"
BOUND_VIOLATION_SUSPECT_INPUT = "BOUND_VIOLATION_SUSPECT_INPUT"
HYPOTHESES_NOT_MET = "HYPOTHESES_NOT_MET"
UNRELIABLE = "UNRELIABLE"

SURVEY_NOISE_SCALE = 1e-3
GOLDMAN_MAX_ATTEMPTS = 5


class InputDocumentError(ValueError):
    """The input document is malformed or inconsistent."""


_SCHEMA = {
    "type": "object",
    "required": ["group", "presentation", "representation"],
    "additionalProperties": False,
    "properties": {
        "group": {
            "type": "object",
            "required": ["family", "n"],
            "additionalProperties": False,
            "properties": {
                "family": {"const": "SL"},
                "n": {"type": "integer", "minimum": 2},
            },
        },
        "presentation": {
            "type": "object",
            "required": ["generators"],
            "additionalProperties": False,
            "properties": {
                "generators": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 1,
                },
                "relators": {"type": "array", "items": {"type": "string"}},
            },
        },
        "peripheral": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "words"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["torus", "higher-genus"]},
                    "words": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "euler_characteristic": {"type": "integer"},
        "representation": {"type": "object"},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rank": {"type": "number", "exclusiveMinimum": 0},
                "residual": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "seed": {"type": "integer"},
    },
}

#: Built once: jsonschema.validate would re-check _SCHEMA against its
#: metaschema on every call (tests check it once).
_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


@dataclass(frozen=True)
class InputDocument:
    spec: GroupSpec
    presentation: GroupPresentation
    representation: Representation
    euler_characteristic: int
    chi_overridden: bool
    tol_rank: float
    tol_residual: float
    seed: "int | None" = None

    def with_tolerances(self, tol_rank=None, tol_residual=None) -> "InputDocument":
        return InputDocument(
            spec=self.spec,
            presentation=self.presentation,
            representation=self.representation,
            euler_characteristic=self.euler_characteristic,
            chi_overridden=self.chi_overridden,
            tol_rank=self.tol_rank if tol_rank is None else tol_rank,
            tol_residual=self.tol_residual if tol_residual is None else tol_residual,
            seed=self.seed,
        )


@dataclass(frozen=True, slots=True)
class CertReport:
    residual: float
    structure: StructureReport
    tangent: TangentReport
    manifold: ManifoldData
    bound: BoundReport
    dim_X0_estimate: int
    verdict: str


@dataclass(frozen=True, slots=True)
class SurveyReport:
    num_samples: int
    seed: int
    reports: tuple
    errors: tuple
    estimate_counts: dict


@dataclass(frozen=True, slots=True)
class GoldmanReport:
    genus: int
    n: int
    expected_dim_Z1: int
    dim_Z1: int
    residual: float
    margin: float
    attempts: int
    ok: bool


def _parse_matrix(value, n: int, gen: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise InputDocumentError(
            f"representation of {gen!r} must be a {n}x{n} array of [re, im] pairs"
        )
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise InputDocumentError(
                f"representation of {gen!r}, row {i}: expected {n} entries"
            )
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(x, (int, float))
                               and not isinstance(x, bool) for x in entry)):
                raise InputDocumentError(
                    f"representation of {gen!r}, entry ({i},{j}): expected a "
                    f"[re, im] pair, got {entry!r}"
                )
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise InputDocumentError(
                    f"representation of {gen!r}, entry ({i},{j}): too large "
                    f"for a float"
                ) from None
    return out


def document_from_dict(data: dict) -> InputDocument:
    """Validate and assemble an input document from parsed JSON."""
    e = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(document root)"
        raise InputDocumentError(f"at {path}: {e.message}")
    spec = GroupSpec(n=data["group"]["n"])
    gens = tuple(data["presentation"]["generators"])
    try:
        relators = tuple(
            parse_word(text, gens)
            for text in data["presentation"].get("relators", [])
        )
        peripheral = tuple(
            PeripheralSpec(
                kind=item["kind"],
                words=tuple(parse_word(t, gens) for t in item["words"]),
            )
            for item in data.get("peripheral", [])
        )
        presentation = GroupPresentation(gens, relators, peripheral)
    except ValueError as e:
        raise InputDocumentError(str(e)) from None

    rep_data = data["representation"]
    missing = set(gens) - set(rep_data)
    extra = set(rep_data) - set(gens)
    if missing or extra:
        raise InputDocumentError(
            f"representation keys must match the generators exactly; "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    images = tuple(_parse_matrix(rep_data[g], spec.n, g) for g in gens)
    try:
        representation = Representation(spec, images)
    except ValueError as e:
        raise InputDocumentError(str(e)) from None

    chi_formula = euler_characteristic(presentation)
    chi_overridden = "euler_characteristic" in data
    chi = data.get("euler_characteristic", chi_formula)
    if chi_overridden and chi != chi_formula:
        warnings.warn(
            f"explicit euler_characteristic {chi} overrides the deficiency "
            f"formula value {chi_formula}; using {chi}",
            stacklevel=2,
        )
    tolerances = data.get("tolerances", {})
    return InputDocument(
        spec=spec,
        presentation=presentation,
        representation=representation,
        euler_characteristic=chi,
        chi_overridden=chi_overridden,
        tol_rank=tolerances.get("rank", cxla.DEFAULT_RANK_TOL),
        tol_residual=tolerances.get("residual", DEFAULT_NEWTON_TOL),
        seed=data.get("seed"),
    )


def load_document(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputDocumentError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise InputDocumentError(f"{path}: top-level value must be an object")
    return document_from_dict(data)


def _decide_verdict(structure: StructureReport, tangent: TangentReport,
                    estimate: int, bound_value: int) -> str:
    if not (structure.irreducible and structure.boundary_regular):
        return HYPOTHESES_NOT_MET
    if not tangent.reliable:
        return UNRELIABLE
    if estimate >= bound_value:
        return BOUND_MET
    return BOUND_VIOLATION_SUSPECT_INPUT


def _certify_at(doc: InputDocument, rep: Representation,
                basin_guard) -> CertReport:
    p = doc.presentation
    refined = newton_refine(
        p, rep, tol_residual=min(doc.tol_residual, RESIDUAL_CERT_BOUND),
        basin_guard=basin_guard)
    residual = relator_residual(p, refined)
    structure = analyze_structure(p, refined, tol=doc.tol_rank)
    tangent = tangent_report(
        p, refined, tol=doc.tol_rank,
        centralizer_dim_full_image=structure.centralizer_dim_full_image)
    manifold = ManifoldData(
        torus_count=p.torus_count,
        euler_characteristic=doc.euler_characteristic,
    )
    bound = thurston_bound(manifold, doc.spec)
    estimate = hom_to_char_drop(tangent.dim_Z1, doc.spec)
    verdict = _decide_verdict(structure, tangent, estimate, bound.general_bound)
    return CertReport(
        residual=residual,
        structure=structure,
        tangent=tangent,
        manifold=manifold,
        bound=bound,
        dim_X0_estimate=estimate,
        verdict=verdict,
    )


def certify(doc: InputDocument) -> CertReport:
    """Refine, check hypotheses, measure dimensions, compare to the bound."""
    return _certify_at(doc, doc.representation, basin_guard=None)


def survey(doc: InputDocument, num_samples: int, seed: "int | None" = None
           ) -> SurveyReport:
    """Certify noisy copies of the base representation.

    Each sample perturbs the original images with Gaussian noise of scale
    SURVEY_NOISE_SCALE and re-refines (no basin guard; the noise is known
    rough but structured).  A sample that fails numerically (Newton, a
    singular matrix or a rejected value) is recorded, not fatal; any other
    error propagates.  The estimate multiset detects rank instability
    across the component.
    """
    if num_samples < 1:
        raise ValueError(f"need at least one sample, got {num_samples}")
    if seed is None:
        seed = doc.seed if doc.seed is not None else 0
    rng = np.random.default_rng(seed)
    base = doc.representation
    n = doc.spec.n
    reports = []
    errors = []
    counts: dict = {}
    for idx in range(num_samples):
        noisy = tuple(
            m + SURVEY_NOISE_SCALE * (rng.standard_normal((n, n))
                                      + 1j * rng.standard_normal((n, n)))
            for m in base.images
        )
        try:
            rep = Representation(doc.spec, noisy)
            report = _certify_at(doc, rep, basin_guard=None)
        except (NewtonConvergenceError, np.linalg.LinAlgError, ValueError) as e:
            reports.append(None)
            errors.append((idx, f"{type(e).__name__}: {e}"))
            continue
        reports.append(report)
        counts[report.dim_X0_estimate] = counts.get(report.dim_X0_estimate, 0) + 1
    return SurveyReport(
        num_samples=num_samples,
        seed=seed,
        reports=tuple(reports),
        errors=tuple(errors),
        estimate_counts=dict(sorted(counts.items())),
    )


def goldman_check(g: int, spec: GroupSpec, seed: int = 0) -> GoldmanReport:
    """Verify the surface-group tangent dimension (2g-1) d + z at an
    irreducible representation built to satisfy the relator exactly.

    The first two handles get random images (A, B) and (B, A): the two
    commutators are exact mutual inverses.  Further handles get equal
    pairs (C, C), whose commutators are exactly the identity.  A draw that
    comes out reducible (or numerically unusable) is retried with the next
    seed, up to GOLDMAN_MAX_ATTEMPTS.
    """
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    p = surface_presentation(g)
    expected = goldman_dim(g, spec)
    last_error = "no attempt made"
    for attempt in range(GOLDMAN_MAX_ATTEMPTS):
        free = GroupPresentation(p.generator_names)
        draw = random_representation(free, spec, seed + attempt)
        pairs = [0, 1, 1, 0] + [2 * k for k in range(2, g) for _ in range(2)]
        rep = Representation(spec, draw.images[pairs])
        residual = relator_residual(p, rep)
        if residual >= RESIDUAL_CERT_BOUND:
            last_error = f"residual {residual:.3e} too large"
            continue
        if not is_irreducible_burnside(rep.images, spec):
            last_error = "drawn representation is reducible"
            continue
        tangent = tangent_report(p, rep)
        return GoldmanReport(
            genus=g,
            n=spec.n,
            expected_dim_Z1=expected,
            dim_Z1=tangent.dim_Z1,
            residual=residual,
            margin=tangent.singular_values_margin,
            attempts=attempt + 1,
            ok=(tangent.dim_Z1 == expected and tangent.reliable),
        )
    raise RuntimeError(
        f"no usable representation in {GOLDMAN_MAX_ATTEMPTS} attempts "
        f"(last problem: {last_error})"
    )


def _jsonable(value):
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value != value:
            return "nan"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_to_dict(report) -> dict:
    """A report dataclass (CertReport, GoldmanReport, BoundReport, ...) as
    plain JSON-ready data in field order; infinities become "inf"."""
    return _jsonable(asdict(report))
