"""Seeded inputs, operations and output checks of the benchmark workloads.

Every input is generated here from the workload seed, apart from the
three documents read from ``fixtures/``; the program sees only the finished
JSON documents (or the plain arguments of ``goldman_check``).  Expected
answers are closed forms coded in this file, never taken from
``charbound.bounds`` and never a stored copy of earlier output:

* figure-eight knot group at ``sym^(n-1)`` of its holonomy: estimate =
  bound = n - 1 (the local dimension ``(n-1) t`` at symmetric powers of a
  cusped holonomy, Menal-Ferrer & Porti, Osaka J. Math. 2012);
* free group of rank k (handlebody) at SL(2): estimate = bound = d (k - 1);
* genus-g surface group: ``dim Z1 = (2g - 1)(n^2 - 1)``.

Each workload is a list of :class:`Case`; one *operation* is one call of
``Case.call``, a single call into a public entry point of charbound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import charbound as cb

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

FIGURE_EIGHT_RELATOR = "abAbaBAbAB"
FIGURE_EIGHT_PERIPHERAL = ("a", "bABaaBAb")
#: Parabolic holonomy of the figure-eight knot complement; the relator
#: holds exactly for b's lower-left entry exp(-i pi / 3).
FIGURE_EIGHT_A = np.array([[1, 1], [0, 1]], dtype=np.complex128)
FIGURE_EIGHT_B = np.array([[1, 0], [np.exp(-1j * np.pi / 3), 1]],
                          dtype=np.complex128)

CERTIFY_EXACT_NS = (2, 3, 4)
DIAGONAL_CONJUGATOR_SCALE = 3.0
#: n = 4 is left out: its diag(3, 1, 1, 1/3) conjugate starts at about the
#: absolute Newton tolerance 1e-12, so Newton runs 1-50 iterations on half
#: of the seeds and fails on some (2 of seeds 0-299).  certify-exact is
#: the workload without Newton work, and no operation may fail by seed.
DIAGONAL_CONJUGATE_NS = (2, 3)
SURVEY_NS = (2, 3, 4)
SURVEY_SAMPLES = 8
GOLDMAN_GENERA = (2, 4, 8)
GOLDMAN_NS = (2, 3, 4, 6)
LADDER_NS = tuple(range(2, 11))
LADDER_SCALES = (10.0, 100.0, 1000.0)

#: Faults of the scale ladder that fail on every run today, by case label.
#: Only these exception types on these cases count as failed operations;
#: anything else aborts the run.
LADDER_FAULTS = {
    **{f"sym{n}": cb.NewtonConvergenceError for n in range(5, 11)},
    "sl3-diag100": np.linalg.LinAlgError,
    "sl3-diag1000": np.linalg.LinAlgError,
}

#: A refined point must sit on the relators to this residual.
RESIDUAL_LIMIT = 1e-9

#: Input check: a generated image or relator product may miss det 1 or
#: the identity by at most these (Frobenius) distances.  A wrong image
#: misses by order one; round-off on the generated inputs stays below 1e-13
#: for det and reaches 4e-6 for the relator at n = 10.
DET_TOL = 1e-9
RELATOR_TOL = 1e-4


class AbortRun(RuntimeError):
    """An error that is not a named numerical fault: the run is void."""


@dataclass(frozen=True)
class Case:
    """One operation of a workload and how to judge its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    fault: "type | None" = None


# ---------------------------------------------------------------- inputs

def sym_power(m: np.ndarray, n: int) -> np.ndarray:
    """Action of a 2x2 matrix on binary forms of degree n - 1.

    Column j holds the coefficients (in powers of y) of
    (a x + c y)^(n-1-j) (b x + d y)^j, built by polynomial convolution.
    """
    (a, b), (c, d) = m
    cols = []
    for j in range(n):
        poly = np.ones(1, dtype=np.complex128)
        for _ in range(n - 1 - j):
            poly = np.convolve(poly, [a, c])
        for _ in range(j):
            poly = np.convolve(poly, [b, d])
        cols.append(poly)
    return np.column_stack(cols)


def special_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random SU(n) element."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / n)


def diagonal(n: int, s: float) -> np.ndarray:
    """diag(s, 1, ..., 1, 1/s)."""
    entries = np.ones(n, dtype=np.complex128)
    entries[0], entries[-1] = s, 1.0 / s
    return np.diag(entries)


def conjugate(images: dict, g: np.ndarray) -> dict:
    ginv = np.linalg.inv(g)
    return {k: g @ m @ ginv for k, m in images.items()}


def figure_eight_images(n: int) -> dict:
    return {"a": sym_power(FIGURE_EIGHT_A, n), "b": sym_power(FIGURE_EIGHT_B, n)}


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def figure_eight_document(images: dict) -> dict:
    n = images["a"].shape[0]
    return {
        "group": {"family": "SL", "n": n},
        "presentation": {"generators": ["a", "b"],
                         "relators": [FIGURE_EIGHT_RELATOR]},
        "peripheral": [{"kind": "torus",
                        "words": list(FIGURE_EIGHT_PERIPHERAL)}],
        "representation": {k: encode_matrix(m) for k, m in images.items()},
    }


def fixture(name: str) -> str:
    return (FIXTURES / f"{name}.json").read_text(encoding="utf-8")


def validate_document(text: str) -> None:
    """Check a generated document before timing, with numpy alone:
    unimodular images whose products along every relator give I."""
    data = json.loads(text)
    gens = data["presentation"]["generators"]
    images = {g: decode_matrix(data["representation"][g]) for g in gens}
    letters = dict(images)
    letters.update({g.upper(): np.linalg.inv(m) for g, m in images.items()})
    for g, m in images.items():
        if abs(np.linalg.det(m) - 1.0) > DET_TOL:
            raise AbortRun(f"generated image {g} is not unimodular")
    n = data["group"]["n"]
    for rel in data["presentation"].get("relators", []):
        product = np.eye(n, dtype=np.complex128)
        for ch in rel:
            product = product @ letters[ch]
        miss = np.linalg.norm(product - np.eye(n))
        if miss > RELATOR_TOL:
            raise AbortRun(f"generated images miss relator {rel} by {miss:.3e}")


# ---------------------------------------------------------------- checks

def figure_eight_dims(n: int) -> tuple:
    """Closed-form (verdict, estimate, bound, rank, Z1, B1, H1, centralizer
    of the image, peripheral centralizers) at sym^(n-1) of the figure-eight
    holonomy: t = 1, chi = 0, two generators, irreducible image, regular
    cusp."""
    d = n * n - 1
    z1 = d + (n - 1)
    return ("BOUND_MET", n - 1, n - 1, 2 * d - z1, z1, d, z1 - d, 0, (n - 1,))


def free_group_dims(n: int, k: int) -> tuple:
    """Closed form for a free group of rank k (handlebody, chi = 1 - k, no
    cusps) at an irreducible point."""
    d = n * n - 1
    return ("BOUND_MET", d * (k - 1), d * (k - 1), 0, d * k, d, d * (k - 1),
            0, ())


def report_dims(r) -> tuple:
    t, s = r.tangent, r.structure
    return (r.verdict, r.dim_X0_estimate, r.bound.general_bound,
            t.jacobian_rank, t.dim_Z1, t.dim_B1, t.dim_H1,
            s.centralizer_dim_full_image, tuple(s.peripheral_centralizer_dims))


def check_certify(expected: tuple) -> Callable[[object], list]:
    def check(report) -> list:
        problems = []
        got = report_dims(report)
        if got != expected:
            problems.append(f"dimensions {got}, expected {expected}")
        if not report.tangent.reliable:
            problems.append("rank decision reported unreliable")
        if not report.residual < RESIDUAL_LIMIT:
            problems.append(f"residual {report.residual:.3e}")
        return problems
    return check


def check_survey(n: int, samples: int) -> Callable[[object], list]:
    expected = figure_eight_dims(n)

    def check(report) -> list:
        if report.errors:
            raise AbortRun(f"survey recorded failed samples: {report.errors}")
        problems = []
        if report.num_samples != samples or len(report.reports) != samples:
            problems.append(f"{len(report.reports)} samples, expected {samples}")
        for idx, r in enumerate(report.reports):
            problems += [f"sample {idx}: {p}" for p in check_certify(expected)(r)]
        if report.estimate_counts != {n - 1: samples}:
            problems.append(f"estimate counts {report.estimate_counts}")
        return problems
    return check


def check_goldman(g: int, n: int) -> Callable[[object], list]:
    expected = (2 * g - 1) * (n * n - 1)

    def check(report) -> list:
        got = (report.genus, report.n, report.expected_dim_Z1, report.dim_Z1,
               report.ok)
        want = (g, n, expected, expected, True)
        problems = [] if got == want else [f"goldman {got}, expected {want}"]
        if not report.residual < RESIDUAL_LIMIT:
            problems.append(f"residual {report.residual:.3e}")
        return problems
    return check


# ------------------------------------------------------------- workloads

def certify_case(label: str, text: str, expected: tuple,
                 fault: "type | None" = None) -> Case:
    """Parse, validate and certify one document, as `charbound certify`
    does after import."""
    validate_document(text)
    return Case(label, lambda: cb.certify(cb.document_from_dict(json.loads(text))),
                check_certify(expected), fault)


def certify_exact(rng: np.random.Generator) -> list:
    cases = [
        certify_case("fixture-f8-sl2", fixture("figure_eight_sl2"),
                     figure_eight_dims(2)),
        certify_case("fixture-f8-sl3", fixture("figure_eight_sl3"),
                     figure_eight_dims(3)),
        certify_case("fixture-f2-sl2", fixture("handlebody_f2_sl2"),
                     free_group_dims(2, 2)),
    ]
    conjugated = []
    for n in CERTIFY_EXACT_NS:
        images = figure_eight_images(n)
        cases.append(certify_case(f"sym{n}", json.dumps(
            figure_eight_document(images)), figure_eight_dims(n)))
        unitary = conjugate(images, special_unitary(rng, n))
        conjugated.append((n, "su", unitary))
        if n in DIAGONAL_CONJUGATE_NS:
            scaled = conjugate(unitary, diagonal(n, DIAGONAL_CONJUGATOR_SCALE))
            conjugated.append((n, "su-diag", scaled))
    for n, kind, images in conjugated:
        cases.append(certify_case(f"sym{n}-{kind}", json.dumps(
            figure_eight_document(images)), figure_eight_dims(n)))
    return cases


def survey_noisy(rng: np.random.Generator) -> list:
    cases = []
    for n in SURVEY_NS:
        text = json.dumps(figure_eight_document(figure_eight_images(n)))
        validate_document(text)
        doc = cb.document_from_dict(json.loads(text))
        seed = int(rng.integers(2**31))
        cases.append(Case(
            f"survey-sym{n}",
            lambda doc=doc, seed=seed: cb.survey(doc, SURVEY_SAMPLES, seed),
            check_survey(n, SURVEY_SAMPLES)))
    return cases


def goldman_grid(rng: np.random.Generator) -> list:
    cases = []
    for g in GOLDMAN_GENERA:
        for n in GOLDMAN_NS:
            spec = cb.GroupSpec(n=n)
            seed = int(rng.integers(2**31))
            cases.append(Case(
                f"goldman-g{g}-n{n}",
                lambda g=g, spec=spec, seed=seed: cb.goldman_check(g, spec, seed),
                check_goldman(g, n)))
    return cases


def scale_ladder(rng: np.random.Generator) -> list:
    """Seed-independent on purpose: its failing points must fail on every
    run, so none of them depends on the seed."""
    cases = []
    for n in LADDER_NS:
        label = f"sym{n}"
        cases.append(certify_case(label, json.dumps(
            figure_eight_document(figure_eight_images(n))),
            figure_eight_dims(n), LADDER_FAULTS.get(label)))
    base = json.loads(fixture("figure_eight_sl3"))["representation"]
    images = {k: decode_matrix(v) for k, v in base.items()}
    for s in LADDER_SCALES:
        label = f"sl3-diag{s:g}"
        scaled = conjugate(images, diagonal(3, s))
        cases.append(certify_case(label, json.dumps(
            figure_eight_document(scaled)), figure_eight_dims(3),
            LADDER_FAULTS.get(label)))
    return cases


WORKLOADS = {
    "certify-exact": certify_exact,
    "survey-noisy": survey_noisy,
    "goldman-grid": goldman_grid,
    "scale-ladder": scale_ladder,
}


def build(workload: str, seed: int) -> list:
    """Generate and validate the inputs of one workload."""
    return WORKLOADS[workload](np.random.default_rng(seed))
