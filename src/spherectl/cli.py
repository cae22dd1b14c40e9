"""Command-line front end: spherectl.

Every subcommand prints machine-readable output to stdout (JSON by default,
keys sorted, rationals as exact "num/den" strings, never floating point) and
diagnostics to stderr.  Exit codes partition outcomes:

    0  success / Yes / DistinctComponents
    1  No
    2  invalid input
    3  Unknown / Inconclusive / verdict withheld

The env var SPHERECTL_FORMAT overrides the default output format; TSV is
available for census and family reports only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bundle import InvalidBundleError, NEGATIVE, POSITIVE, make_bundle
from .classify import NO, YES, census, gz_family, oriented_diffeomorphic, unoriented_diffeomorphic
from .moduli import DISTINCT_COMPONENTS, infinite_components_report, separation_certificate
from .space import dossier, realized_mu_set, realized_mu_set_unoriented

FORMATS = ("json", "tsv", "pretty")


def _resolve_format(args: argparse.Namespace, tsv_ok: bool = False) -> str:
    fmt = getattr(args, "format", None) or os.environ.get("SPHERECTL_FORMAT") or "json"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    if fmt == "tsv" and not tsv_ok:
        raise ValueError("tsv output is available for census and family reports only")
    return fmt


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_invariants(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    b = make_bundle(args.n, args.k)
    o = NEGATIVE if args.reverse_orientation else POSITIVE
    d = dossier(b, o)
    if fmt == "pretty":
        info = d.to_dict()
        print(f"bundle: euler={info['euler']} k={info['k']}")
        print(f"orientation: {info['orientation']:+d}")
        print(f"cohomology: [{', '.join(info['cohomology'])}]")
        print(f"homotopy sphere: {'yes' if info['is_homotopy_sphere'] else 'no'}")
        print(f"sign_W: {info['sign_W']}")
        print(f"p1sq_W: {info['p1sq_W']}")
        print(f"mu: {info['mu'] if info['mu'] is not None else '-'}")
    else:
        _emit_json(d.to_dict())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    b1 = make_bundle(args.n1, args.k1)
    b2 = make_bundle(args.n2, args.k2)
    decide = unoriented_diffeomorphic if args.unoriented else oriented_diffeomorphic
    verdict = decide(b1, b2)
    payload = {"b1": b1.to_dict(), "b2": b2.to_dict(), "unoriented": args.unoriented}
    payload.update(verdict.to_dict())
    if fmt == "pretty":
        print(f"{verdict.answer} ({verdict.reason})")
    else:
        _emit_json(payload)
    if verdict.answer == YES:
        return 0
    if verdict.answer == NO:
        return 1
    return 3


def _cmd_certify(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    b0 = make_bundle(args.n, args.k0)
    b1 = make_bundle(args.n, args.k1)
    cert = separation_certificate(b0, b1, include_scal=args.scal)
    payload = cert.to_dict(quote_provenance=args.quote_provenance)
    if fmt == "pretty":
        print(f"pair: n={payload['n']} k0={payload['k0']} k1={payload['k1']}")
        print(f"metrics: {payload['metric_labels'][0]} vs {payload['metric_labels'][1]}")
        print(f"sign_X: {payload['sign_X']}")
        print(f"p1sq_X: {payload['p1sq_X']}")
        print(f"ahat: {payload['ahat']}")
        print(f"verdict: {payload['verdict']}")
        print(f"curvature: {' '.join(payload['curvature_classes'])}")
        if args.quote_provenance:
            for step in payload["provenance"]:
                print(f"  - {step}")
    else:
        _emit_json(payload)
    return 0 if cert.verdict == DISTINCT_COMPONENTS else 3


def _cmd_components(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    b = make_bundle(args.n, args.l)
    report = infinite_components_report(b, args.pairs, include_scal=args.scal)
    payload = report.to_dict(quote_provenance=args.quote_provenance)
    if fmt == "pretty":
        if report.banner:
            print(report.banner)
            print(f"curvature: {' '.join(payload['curvature_classes'])}")
        else:
            print("verdict withheld" if report.certified is None else "certification failed")
        print(f"family: {' '.join(str(k) for k in payload['family'])}")
        for cert in payload["certificates"]:
            print(f"  k0={cert['k0']} k1={cert['k1']}: {cert['verdict']} (p1sq_X = {cert['p1sq_X']})")
        print(payload["note"])
    else:
        _emit_json(payload)
    return 0 if report.certified else 3


def _cmd_census(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args, tsv_ok=True)
    report = census(args.n, args.k_from, args.k_to, unoriented=args.unoriented)
    if fmt == "tsv":
        print(report.to_tsv())
    elif fmt == "pretty":
        print(
            f"n={report.n} range=[{report.k_from}, {report.k_to}] "
            f"classes={len(report.classes)} skipped={report.skipped} "
            f"unknown_pairs={report.unknown_pairs_count}"
        )
        for c in report.classes:
            mu = str(c.mu) if c.mu is not None else "-"
            print(f"  k={c.representative}: {c.members_count} members, mu={mu}")
    else:
        _emit_json(report.to_dict())
    return 0


def _cmd_realized_mu(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    values = realized_mu_set_unoriented() if args.unoriented else realized_mu_set()
    ordered = [str(q) for q in sorted(values)]
    if fmt == "pretty":
        for v in ordered:
            print(v)
    else:
        _emit_json({"count": len(ordered), "values": ordered})
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args, tsv_ok=True)
    members = gz_family(make_bundle(args.n, args.l), args.count)
    if fmt == "tsv":
        lines = ["euler\tk"] + [f"{b.euler}\t{b.pont}" for b in members]
        print("\n".join(lines))
    elif fmt == "pretty":
        print(" ".join(str(b.pont) for b in members))
    else:
        _emit_json(
            {
                "n": args.n,
                "l": args.l,
                "step": 112 * args.n,
                "members": [b.to_dict() for b in members],
            }
        )
    return 0


def _add_format_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None, help="output format")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="spherectl",
        description="Exact invariants, classification and moduli-space separation "
        "certificates for linear S^3-bundles over S^4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Invariant dossier for one bundle.")
    p.add_argument("--n", type=int, required=True, help="Euler coefficient (nonzero)")
    p.add_argument("--k", type=int, required=True, help="Pontryagin parameter (p1 = 2k*u)")
    p.add_argument("--reverse-orientation", action="store_true")
    _add_format_option(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="Decide diffeomorphism of two total spaces.")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--unoriented", action="store_true", help="ignore orientations")
    _add_format_option(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("certify", help="Separation certificate for a pair of bundles.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--quote-provenance", action="store_true", help="append the proof-step transcript")
    p.add_argument("--scal", action=argparse.BooleanOptionalAction, default=True,
                   help="also tag the scal>0 moduli space")
    _add_format_option(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("components", help="Pairwise certificates over an arithmetic family.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--quote-provenance", action="store_true")
    p.add_argument("--scal", action=argparse.BooleanOptionalAction, default=True)
    _add_format_option(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("census", help="Partition a parameter window into diffeomorphism classes.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="k_from", type=int, required=True)
    p.add_argument("--to", dest="k_to", type=int, required=True)
    p.add_argument("--unoriented", action="store_true")
    _add_format_option(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("realized-mu", help="All mu values attained by homotopy-sphere bundles.")
    p.add_argument("--unoriented", action="store_true")
    _add_format_option(p)
    p.set_defaults(func=_cmd_realized_mu)

    p = sub.add_parser("family", help="Enumerate the arithmetic family k = l + 112n*j.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    _add_format_option(p)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidBundleError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
