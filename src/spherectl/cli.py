"""Command-line front end: spherectl.

Every subcommand prints machine-readable output to stdout (JSON by default,
keys sorted, rationals as exact "num/den" strings, never floating point) and
diagnostics to stderr.  Exit codes partition outcomes:

    0  success / Yes / DistinctComponents
    1  No
    2  invalid input
    3  Unknown / Inconclusive / verdict withheld
  141  stdout closed by its reader before all output was written (128 + SIGPIPE)

The output format is --format, else the env var SPHERECTL_FORMAT, else JSON;
TSV is available for census and family reports only.  main resolves it once,
before the command does any work, and passes it to the command.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from .bundle import NEGATIVE, POSITIVE, make_bundle
from .classify import NO, UNKNOWN, YES, _census_firsts, _census_rows, _family_ks
from .classify import oriented_diffeomorphic, unoriented_diffeomorphic
from .moduli import DISTINCT_COMPONENTS, INCONCLUSIVE, _SEPARATION_VERDICTS, _components_rows, separation_certificate
from .space import dossier, realized_mu_set, realized_mu_set_unoriented

FORMATS = ("json", "tsv", "pretty")
# the exit code of each verdict, as in the table above
EXIT_CODES = {YES: 0, NO: 1, UNKNOWN: 3, DISTINCT_COMPONENTS: 0, INCONCLUSIVE: 3}

# Upper bounds on the work one invocation may ask for: --pairs P prints
# P(P+1)/2 certificates (125,250 at the limit, up to 221 MiB of JSON with
# --quote-provenance for |l| < 10^12), --count C lists C family members, and a
# census its classes (8 MiB of JSON at the limit).  The digits of the parameters
# are not bounded by those counts, so the estimated output is bounded too:
# 256 MiB admits every --pairs <= 500 report with |l| < 10^12.
MAX_PAIRS = 500
MAX_FAMILY_COUNT = 100_000
MAX_CENSUS_CLASSES = 100_000
MAX_OUTPUT_BYTES = 256 * 2**20


def _check_limit(option: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{option} {value} exceeds the limit of {limit}")


def _check_output_size(items: int, item_bytes: int, *ints: int) -> None:
    """Refuse, before any work, output of items records that each print item_bytes
    of fixed text and the ints in decimal, when it would exceed MAX_OUTPUT_BYTES.

    Digits are bounded from bit_length(): str() of an int is quadratic in its
    length.  One more record stands in for the head and tail of the report.
    """
    # log10(2) < 0.30103, so this bounds the digits; one more byte for the sign
    digits = sum(abs(x).bit_length() * 30103 // 100000 + 2 for x in ints)
    size = (max(items, 0) + 1) * (item_bytes + digits)
    if size > MAX_OUTPUT_BYTES:
        raise ValueError(f"output of about {size} bytes exceeds the limit of {MAX_OUTPUT_BYTES} bytes")


def _resolve_format(args: SimpleNamespace) -> str:
    fmt = args.format or os.environ.get("SPHERECTL_FORMAT") or "json"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    if fmt == "tsv" and args.command not in ("census", "family"):
        raise ValueError("tsv output is available for census and family reports only")
    return fmt


def _cmd_invariants(args: SimpleNamespace, fmt: str) -> int:
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


def _cmd_classify(args: SimpleNamespace, fmt: str) -> int:
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
    return EXIT_CODES[verdict.answer]


def _cmd_certify(args: SimpleNamespace, fmt: str) -> int:
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
    return EXIT_CODES[cert.verdict]


_MARK = "\x00"


def _row_pieces(sample: dict) -> list[str]:
    """The text of sample as an item of a top-level list, led by a comma and a
    newline and cut at each _MARK (see _emit_json).  A field that is _MARK alone
    loses its quotes, so a row gives it as JSON text (an int, null or a quoted
    string); a _MARK inside a longer string keeps the quotes of that string.
    Row values must need no JSON escapes.
    """
    text = ",\n    " + json.dumps(sample, indent=2, sort_keys=True).replace("\n", "\n    ")
    slot = json.dumps(_MARK)[1:-1]
    return text.replace(f'"{slot}"', slot).split(slot)


# the pieces of a census class, cut on first use and kept for the process's later censuses
_census_pieces = functools.cache(lambda: _row_pieces(dict.fromkeys(("members_count", "mu", "representative"), _MARK)))


def _emit_json(payload: dict, key: str | None = None, rows: Iterable[str] = ()) -> None:
    """Print json.dumps(payload, indent=2, sort_keys=True), the one JSON writer of
    every report.  Given a top-level key, the list at that key is written row by
    row from rows, so the report is never held in memory whole.

    The payload is dumped with payload[key] = [] and cut at '"key": []' into a
    head and a tail, written before and after the rows; with no rows it prints
    [], as json.dumps does.  Each row, one write, is the text of one or more items,
    each led by a comma and a newline; the comma of the first row is dropped.

    The items of a report share their keys and most values, so _row_pieces
    dumps one sample item once, with a _MARK in each field that varies, and
    cuts it at the markers into constant pieces c0, c1, ...  With sorted keys an
    item reads c0 v0 c1 v1 ... for its varying values in key order, so an item is
    one f-string and no template is parsed per item.
    """
    text = json.dumps(payload if key is None else {**payload, key: []}, indent=2, sort_keys=True)
    rows = iter(rows)
    first = next(rows, None)
    out = sys.stdout
    if first is None:
        out.write(f"{text}\n")
        return
    head, tail = text.split(f'"{key}": []', 1)
    out.write(f'{head}"{key}": [{first[1:]}')
    out.writelines(rows)
    out.write(f"\n  ]{tail}\n")


def _cmd_components(args: SimpleNamespace, fmt: str) -> int:
    _check_limit("--pairs", args.pairs, MAX_PAIRS)
    b = make_bundle(args.n, args.l)
    pairs = max(args.pairs, 0)
    # the members, then per pair k0, k1 and p1sq_X = q[i] - q[j] = -448(j - i)(k_i + k_j)/1,
    # whose JSON certificate also prints n and the two GZ(k) labels in 460 bytes of
    # fixed text (1770 with the provenance)
    k = max(abs(args.l), abs(args.l + 112 * args.n * pairs))
    items = pairs * (pairs + 1) // 2 + pairs + 1
    if fmt == "pretty":
        _check_output_size(items, 44, k, k, 896 * pairs * k)
    else:
        _check_output_size(items, 1770 if args.quote_provenance else 460, args.n, k, k, k, k, 896 * pairs * k)
    report, rows = _components_rows(b, args.pairs, include_scal=args.scal)
    ks = [str(k) for k in report["family"]]
    if fmt == "pretty":
        if report["banner"]:
            print(report["banner"], f"curvature: {' '.join(report['curvature_classes'])}", sep="\n")
        else:
            print("verdict withheld" if report["certified"] is None else "certification failed")
        print(f"family: {' '.join(ks)}")
        # member i's lines from the pieces [k0=k_i k1=, k_j, verdict, p, /1)], as its JSON certificates below
        inconclusive, distinct = (f": {v} (p1sq_X = " for v in _SEPARATION_VERDICTS)
        for i, ps, zero in rows:
            parts = [f"  k0={ks[i]} k1=", None, distinct, None, "/1)\n"] * len(ps)
            parts[1::5] = ks[i + 1:]
            parts[3::5] = ps
            if zero is not None:
                parts[5 * zero + 2] = inconclusive
            sys.stdout.write("".join(parts))
        print(report["note"])
    else:
        # a certificate reads c0 k_i c1 k_j c2 k_i c3 k_j c4 p c5 verdict c6.  Member i's m certificates
        # are the pieces [c0 k_i c1, k_j, c2 k_i c3, k_j c4, p, c5 "DistinctComponents" c6] repeated m
        # times, the columns k_j, k_j c4 and p (the rows' text, one f-string per pair) filled by slice,
        # the verdict at the row's closed-form zero index patched, and all joined once: the CLI runs no
        # Python code of its own per pair.  The members are text from the head's k, no BundleClass each
        sample = separation_certificate(b, b, args.scal).to_dict(args.quote_provenance)
        sample.update(k0=_MARK, k1=_MARK, metric_labels=[f"GZ({_MARK})"] * 2, p1sq_X=f"{_MARK}/1", verdict=_MARK)
        c0, c1, c2, c3, c4, c5, c6 = _row_pieces(sample)
        heads = [f"{c0}{k}{c1}" for k in ks]
        mids = [f"{c2}{k}{c3}" for k in ks]
        kc4s = [f"{k}{c4}" for k in ks]
        inconclusive, distinct = (f'{c5}"{v}"{c6}' for v in _SEPARATION_VERDICTS)

        def certificates() -> Iterator[str]:
            for (i, ps, zero), head, mid in zip(rows, heads, mids):
                parts = [head, None, mid, None, None, distinct] * len(ps)
                parts[1::6] = ks[i + 1:]
                parts[3::6] = kc4s[i + 1:]
                parts[4::6] = ps
                if zero is not None:
                    parts[6 * zero + 5] = inconclusive
                yield "".join(parts)

        _emit_json(report, "certificates", certificates())
    return EXIT_CODES[DISTINCT_COMPONENTS if report["certified"] else INCONCLUSIVE]


def _cmd_census(args: SimpleNamespace, fmt: str) -> int:
    # a class per first member for n > 1, counted from start and stop (len() of a range
    # overflows); <= 0 for the n and windows that census rejects
    firsts = _census_firsts(args.n, args.k_from, args.k_to)
    classes = (firsts.stop - firsts.start + 1) // 2
    if classes > MAX_CENSUS_CLASSES:
        raise ValueError(f"census of {classes} classes exceeds the limit of {MAX_CENSUS_CLASSES}")
    # each class prints its representative, its member count (at most the window
    # length) and mu in 86, 10 or 27 bytes of fixed text
    k = max(abs(args.k_from), abs(args.k_to))
    _check_output_size(classes, {"json": 86, "tsv": 10, "pretty": 27}[fmt], k, args.k_to - args.k_from + 1)
    head, rows = _census_rows(args.n, args.k_from, args.k_to, args.unoriented)
    classes = len(rows) if args.n == 1 else classes
    # a row (firsts, members_count, mu) prints its representative firsts[0], the count and mu
    out = sys.stdout
    if fmt == "tsv":
        out.write("representative\tmembers_count\tmu\n")
        out.writelines(f"{fs[0]}\t{c}\t{'-' if mu is None else mu}\n" for fs, c, mu in rows)
    elif fmt == "pretty":
        out.write(f"n={head.n} range=[{head.k_from}, {head.k_to}] classes={classes} skipped={head.skipped} "
                  f"unknown_pairs={head.unknown_pairs_count}\n")
        out.writelines(f"  k={fs[0]}: {c} members, mu={'-' if mu is None else mu}\n" for fs, c, mu in rows)
    else:
        c0, c1, c2, c3 = _census_pieces()
        quote = '"{}"'.format
        _emit_json(head.to_dict(), "classes", (
            f"{c0}{c}{c1}{'null' if mu is None else quote(mu)}{c2}{fs[0]}{c3}" for fs, c, mu in rows
        ))
    return 0


def _cmd_realized_mu(args: SimpleNamespace, fmt: str) -> int:
    values = realized_mu_set_unoriented() if args.unoriented else realized_mu_set()
    ordered = [str(q) for q in sorted(values)]
    if fmt == "pretty":
        for v in ordered:
            print(v)
    else:
        _emit_json({"count": len(ordered), "values": ordered})
    return 0


def _cmd_family(args: SimpleNamespace, fmt: str) -> int:
    _check_limit("--count", args.count, MAX_FAMILY_COUNT)
    # each member prints n (not in pretty output) and k in 42, 2 or 1 bytes of fixed text
    k = max(abs(args.l), abs(args.l + 112 * args.n * (args.count - 1)))
    _check_output_size(args.count, {"json": 42, "tsv": 2, "pretty": 1}[fmt], args.n, k)
    base = make_bundle(args.n, args.l)
    ks = _family_ks(base, args.count)
    if fmt == "tsv":
        print("euler\tk")
        sys.stdout.writelines(f"{args.n}\t{k}\n" for k in ks)
    elif fmt == "pretty":
        sys.stdout.writelines(f"{k} " for k in ks[:-1])
        print(ks[-1])
    else:
        c0, c1 = _row_pieces({**base.to_dict(), "k": _MARK})
        _emit_json({"n": args.n, "l": args.l, "step": ks.step}, "members", (f"{c0}{k}{c1}" for k in ks))
    return 0


# Each command's handler, help and options in help-screen order, _FORMAT last, read by
# _build_parser and _recognize.  An option is (name, dest, kind, help): kind int is a required
# int, FORMATS a choice, False a flag and True a --name/--no-name pair that defaults to True.
_FORMAT = ("--format", "format", FORMATS, "output format")
_COMMANDS = {
    "invariants": (_cmd_invariants, "Invariant dossier for one bundle.", (
        ("--n", "n", int, "Euler coefficient (nonzero)"), ("--k", "k", int, "Pontryagin parameter (p1 = 2k*u)"),
        ("--reverse-orientation", "reverse_orientation", False, None))),
    "classify": (_cmd_classify, "Decide diffeomorphism of two total spaces.", (
        ("--n1", "n1", int, None), ("--k1", "k1", int, None), ("--n2", "n2", int, None), ("--k2", "k2", int, None),
        ("--unoriented", "unoriented", False, "ignore orientations"))),
    "certify": (_cmd_certify, "Separation certificate for a pair of bundles.", (
        ("--n", "n", int, None), ("--k0", "k0", int, None), ("--k1", "k1", int, None),
        ("--quote-provenance", "quote_provenance", False, "append the proof-step transcript"),
        ("--scal", "scal", True, "also tag the scal>0 moduli space"))),
    "components": (_cmd_components, "Pairwise certificates over an arithmetic family.", (
        ("--n", "n", int, None), ("--l", "l", int, None),
        ("--pairs", "pairs", int, f"certify every pair among the first PAIRS+1 members (at most {MAX_PAIRS})"),
        ("--quote-provenance", "quote_provenance", False, None), ("--scal", "scal", True, None))),
    "census": (_cmd_census, "Partition a parameter window into diffeomorphism classes.", (
        ("--n", "n", int, None), ("--from", "k_from", int, None),
        ("--to", "k_to", int, f"last k of the window; a census lists at most {MAX_CENSUS_CLASSES} classes "
         f"in at most {MAX_OUTPUT_BYTES} bytes"), ("--unoriented", "unoriented", False, None))),
    "realized-mu": (_cmd_realized_mu, "All mu values attained by homotopy-sphere bundles.", (
        ("--unoriented", "unoriented", False, None),)),
    "family": (_cmd_family, "Enumerate the arithmetic family k = l + 112n*j.", (
        ("--n", "n", int, None), ("--l", "l", int, None),
        ("--count", "count", int, f"number of members to list (at most {MAX_FAMILY_COUNT})"))),
}


@functools.cache
def _spellings(command: str) -> dict[str, tuple]:
    """The (dest, kind) of each spelling of command's options, a flag's kind being the value it stores."""
    rows = (*_COMMANDS[command][2], _FORMAT)
    spellings = {name: (dest, kind or True) for name, dest, kind, _ in rows}
    spellings.update((f"--no-{name[2:]}", (dest, False)) for name, dest, kind, _ in rows if kind is True)
    return spellings


def _recognize(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that parse_args gives argv when argv is a command, then distinct
    options by their full names, as --name=value or --name value, every int among them;
    else None: --help, abbreviations, repeats, -- and usage errors are argparse's."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    spellings, args, tokens = _spellings(argv[0]), {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        dest, kind = spellings.get(name, (None, None))
        flag = isinstance(kind, bool)
        if dest is None or dest in args or flag and eq:
            return None
        if not (flag or eq):
            # argparse reads a token that starts with "-" as an option, unless it is a negative int
            value = next(tokens, "-")  # "-" when no token is left, which argparse rejects too
            if value[:1] == "-" and not value[1:].isdigit():
                return None
        try:
            # int is argparse's type too, and index raises ValueError for a value that is not a choice
            args[dest] = kind if flag else int(value) if kind is int else kind[kind.index(value)]
        except ValueError:
            return None
    rows = (*_COMMANDS[argv[0]][2], _FORMAT)
    if any(kind is int and dest not in args for _, dest, kind, _ in rows):
        return None
    defaults = {dest: kind if isinstance(kind, bool) else None for _, dest, kind, _ in rows}
    return SimpleNamespace(**{**defaults, **args}, command=argv[0], func=_COMMANDS[argv[0]][0])


@functools.cache
def _build_parser():
    """The parser of _COMMANDS, the one source of help and usage-error text, built
    once per process and only for argv that _recognize declines: a well-formed query
    imports neither argparse nor gettext.  parse_args keeps no state between calls."""
    import argparse

    parser = argparse.ArgumentParser(prog="spherectl", description="Exact invariants, classification and "
                                     "moduli-space separation certificates for linear S^3-bundles over S^4.",
                                     epilog=f"components, family and census print at most {MAX_OUTPUT_BYTES} "
                                     "bytes (256 MiB): a request for more exits 2 before any work.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, dest, kind, text in (*options, _FORMAT):
            flag = {"action": argparse.BooleanOptionalAction if kind else "store_true", "default": kind}
            kwargs = {int: {"type": int, "required": True}, FORMATS: {"choices": kind}}.get(kind, flag)
            # set after construction: on 3.10, BooleanOptionalAction appends " (default: ...)" to its help
            p.add_argument(name, dest=dest, **kwargs).help = text
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Parameters are exact ints of any size, so CPython's int<->str digit limit
    # (4300 by default, absent before 3.10.7) is lifted for parsing, computing
    # and rendering, and restored on the way out.  The limit is per interpreter,
    # so two threads must not run main at once.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = (_recognize(sys.argv[1:] if argv is None else argv)
                or _build_parser().parse_args(argv, SimpleNamespace()))
        try:
            code = args.func(args, _resolve_format(args))
            sys.stdout.flush()
            return code
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    except BrokenPipeError:
        # The reader closed stdout early (`spherectl ... | head`); stdout is
        # flushed above so that this surfaces here, not at interpreter exit.
        # Point fd 1 at /dev/null so that the flush at exit stays quiet, and
        # exit as a shell reports a SIGPIPE kill: 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
