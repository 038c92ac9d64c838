"""Command-line interface.

Exit codes: 0 = bound met / success, 1 = error or measured dimension below
bound (suspect input), 2 = hypotheses not met, 3 = unreliable numerics.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cxla
from .bounds import ManifoldData, sl_n_bound, thurston_bound
from .certify import (BOUND_MET, BOUND_VIOLATION_SUSPECT_INPUT,
                      HYPOTHESES_NOT_MET, UNRELIABLE, CertReport, certify,
                      goldman_check, load_document, report_to_dict, survey)
from .grouprep import GroupSpec
from .tangent import (DEFAULT_NEWTON_TOL, fox_selftest_deviation,
                      random_selftest_pair)

VERDICT_EXIT = {
    BOUND_MET: 0,
    BOUND_VIOLATION_SUSPECT_INPUT: 1,
    HYPOTHESES_NOT_MET: 2,
    UNRELIABLE: 3,
}

FOX_SELFTEST_THRESHOLD = 1e-6


def _add_global_flags(parser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--tol-rank", type=float, default=default,
                        metavar="X",
                        help="relative singular value cutoff for rank "
                             f"decisions (default {cxla.DEFAULT_RANK_TOL:g})")
    parser.add_argument("--tol-residual", type=float, default=default,
                        metavar="X",
                        help="target residual for Newton refinement "
                             f"(default {DEFAULT_NEWTON_TOL:g})")
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="machine-readable output only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charbound",
        description="Certify dimension lower bounds for SL(n,C) character "
                    "varieties at concrete representations.",
        allow_abbrev=False,
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the closed-form bound",
                             allow_abbrev=False)
    p_bound.add_argument("--n", type=int, required=True, help="SL(n) target")
    p_bound.add_argument("--t", type=int, required=True,
                         help="number of torus boundary components")
    p_bound.add_argument("--chi", type=int, required=True,
                         help="Euler characteristic of the manifold")
    _add_global_flags(p_bound, suppress=True)

    p_cert = sub.add_parser("certify", help="certify one input document",
                          allow_abbrev=False)
    p_cert.add_argument("file", help="JSON input document")
    _add_global_flags(p_cert, suppress=True)

    p_survey = sub.add_parser("survey",
                              help="certify noisy copies of the document's "
                                   "representation",
                              allow_abbrev=False)
    p_survey.add_argument("file", help="JSON input document")
    p_survey.add_argument("--samples", type=int, default=20, metavar="N")
    p_survey.add_argument("--seed", type=int, default=None, metavar="S")
    _add_global_flags(p_survey, suppress=True)

    p_gold = sub.add_parser("goldman-check",
                            help="verify the surface-group tangent dimension "
                                 "at a constructed irreducible point",
                            allow_abbrev=False)
    p_gold.add_argument("--genus", type=int, required=True)
    p_gold.add_argument("--n", type=int, required=True, help="SL(n) target")
    p_gold.add_argument("--seed", type=int, default=0, metavar="S")
    _add_global_flags(p_gold, suppress=True)

    p_fox = sub.add_parser("fox-selftest",
                           help="compare analytic and finite-difference "
                                "Jacobians on random instances",
                           allow_abbrev=False)
    p_fox.add_argument("--pairs", type=int, default=20, metavar="N")
    p_fox.add_argument("--seed", type=int, default=0, metavar="S")
    _add_global_flags(p_fox, suppress=True)
    return parser


def _print_cert_report(report: CertReport, doc) -> None:
    p = doc.presentation
    gens = ",".join(p.generator_names)
    rels = " , ".join(p.render(r) for r in p.relators) or "(none)"
    s = report.structure
    t = report.tangent
    print(f"presentation: <{gens} | {rels}>  (m1={p.num_generators}, "
          f"m2={p.num_relators})")
    print(f"group: SL({doc.spec.n})  d={doc.spec.d} r={doc.spec.r} "
          f"z={doc.spec.z}")
    print(f"residual after refinement: {report.residual:.3e}")
    print(f"irreducible: {_yn(s.irreducible)}   "
          f"boundary regular: {_yn(s.boundary_regular)}   "
          f"peripheral centralizer dims: {list(s.peripheral_centralizer_dims)}")
    print(f"jacobian rank: {t.jacobian_rank}   dim Z1: {t.dim_Z1}   "
          f"dim B1: {t.dim_B1}   dim H1: {t.dim_H1}")
    print(f"singular value margin: {_fmt_margin(t.singular_values_margin)}   "
          f"reliable: {_yn(t.reliable)}")
    print(f"manifold: t={report.manifold.torus_count}  "
          f"chi={report.manifold.euler_characteristic}")
    print(f"bound  r*t - d*chi + z = {report.bound.general_bound}")
    print(f"estimated dim X0 = {report.dim_X0_estimate}")
    print(f"verdict: {report.verdict}")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_margin(margin: float) -> str:
    return "inf" if margin == float("inf") else f"{margin:.3e}"


def _cmd_bound(args) -> int:
    spec = GroupSpec(n=args.n)
    manifold = ManifoldData(torus_count=args.t, euler_characteristic=args.chi)
    report = thurston_bound(manifold, spec)
    agreement = sl_n_bound(manifold, args.n)
    if args.json:
        print(json.dumps({**report_to_dict(report), "sl_n_bound": agreement},
                         indent=2))
    else:
        print(f"SL({args.n}): d={report.d} r={report.r} z={report.z}")
        print(f"bound  r*t - d*chi + z = {report.r}*{report.t} - "
              f"{report.d}*({report.chi}) + {report.z} = {report.general_bound}")
    if agreement != report.general_bound:
        print("internal disagreement between bound formulas", file=sys.stderr)
        return 1
    return 0


def _cmd_certify(args) -> int:
    doc = load_document(args.file).with_tolerances(args.tol_rank,
                                                   args.tol_residual)
    report = certify(doc)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        _print_cert_report(report, doc)
    return VERDICT_EXIT[report.verdict]


def _cmd_survey(args) -> int:
    doc = load_document(args.file).with_tolerances(args.tol_rank,
                                                   args.tol_residual)
    result = survey(doc, args.samples, args.seed)
    if args.json:
        payload = {
            "num_samples": result.num_samples,
            "seed": result.seed,
            "estimate_counts": {str(k): v
                                for k, v in result.estimate_counts.items()},
            "errors": [{"sample": i, "message": m} for i, m in result.errors],
            "verdicts": [r.verdict if r is not None else None
                         for r in result.reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"survey: {result.num_samples} samples, seed {result.seed}")
        for idx, rep in enumerate(result.reports):
            if rep is None:
                continue
            print(f"  sample {idx}: dim X0 estimate {rep.dim_X0_estimate}, "
                  f"{rep.verdict}")
        for idx, msg in result.errors:
            print(f"  sample {idx}: FAILED ({msg})")
        counts = ", ".join(f"{k}: {v}x"
                           for k, v in result.estimate_counts.items())
        print(f"estimate multiset: {{{counts}}}")
    if result.errors:
        return 1
    codes = [VERDICT_EXIT[r.verdict] for r in result.reports]
    for severity in (1, 2, 3):
        if severity in codes:
            return severity
    return 0


def _cmd_goldman(args) -> int:
    spec = GroupSpec(n=args.n)
    report = goldman_check(args.genus, spec, args.seed)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(f"genus {report.genus}, SL({report.n}): expected dim Z1 = "
              f"(2g-1)d + z = {report.expected_dim_Z1}")
        print(f"measured dim Z1 = {report.dim_Z1}   residual "
              f"{report.residual:.3e}   margin {_fmt_margin(report.margin)}")
        print("ok" if report.ok else "MISMATCH")
    return 0 if report.ok else 3


def _cmd_fox_selftest(args) -> int:
    worst = 0.0
    for k in range(args.pairs):
        p, rep = random_selftest_pair(args.seed + k)
        worst = max(worst, fox_selftest_deviation(p, rep))
    ok = worst < FOX_SELFTEST_THRESHOLD
    if args.json:
        print(json.dumps({
            "pairs": args.pairs,
            "seed": args.seed,
            "max_deviation": worst,
            "threshold": FOX_SELFTEST_THRESHOLD,
            "ok": ok,
        }, indent=2))
    else:
        print(f"fox selftest: {args.pairs} random pairs, max deviation "
              f"{worst:.3e} (threshold {FOX_SELFTEST_THRESHOLD:g})")
        print("ok" if ok else "FAILED")
    return 0 if ok else 3


COMMANDS = {
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "survey": _cmd_survey,
    "goldman-check": _cmd_goldman,
    "fox-selftest": _cmd_fox_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
