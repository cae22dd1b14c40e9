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
from itertools import chain
from types import SimpleNamespace

from .bundle import NEGATIVE, POSITIVE, BundleClass, make_bundle
from .classify import NO, UNKNOWN, YES, CensusClass, CensusReport, _census_firsts, _census_rows, _family_ks
from .classify import oriented_diffeomorphic, unoriented_diffeomorphic
from .moduli import BANNER, DISTINCT_COMPONENTS, INCONCLUSIVE, INFINITUDE_NOTE, INFINITUDE_NOTE_NONPOSITIVE
from .moduli import INFINITUDE_NOTE_OPPOSITE, _CURVATURE_CLASSES, _SEPARATION_VERDICTS, _components_dict
from .moduli import _components_rows, separation_certificate
from .space import _MU_NUM, _MU_NUM_FOLDED, _mu, dossier, realized_mu_set, realized_mu_set_unoriented

FORMATS = ("json", "tsv", "pretty")
# the exit code of each verdict, as in the table above
EXIT_CODES = {YES: 0, NO: 1, UNKNOWN: 3, DISTINCT_COMPONENTS: 0, INCONCLUSIVE: 3}

# Upper bounds on the work of one invocation: --pairs P prints P(P+1)/2 certificates, --count C
# lists C members, a census its classes, and the output, which the parameters' digits also drive.
MAX_PAIRS = 500
MAX_FAMILY_COUNT = 100_000
MAX_CENSUS_CLASSES = 100_000
MAX_OUTPUT_BYTES = 256 * 2**20


def _check_limit(option: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{option} {value} exceeds the limit of {limit}")


def _check_output_size(*parts: tuple[int, ...]) -> None:
    """Refuse, before any work, output over MAX_OUTPUT_BYTES: parts (count, fixed, *ints) of count records
    that each print fixed bytes (see _fixed) and the ints, their digits bounded from bit_length()."""
    size = 0
    for count, fixed, *ints in parts:
        # log10(2) < 0.30103, so this bounds the digits; one more byte for the sign
        size += max(count, 0) * (fixed + sum([abs(x).bit_length() * 30103 // 100000 + 2 for x in ints]))
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
_SLOT = json.dumps(_MARK)[1:-1]  # _MARK in JSON text


def _fixed(text: str | dict, key: str = "") -> int:
    """The bytes of a sample's text, or of _json_frame(text, key) for a payload, less its ints (_MARK)."""
    text = "".join(_json_frame(text, key)) if isinstance(text, dict) else text
    return len(text.replace(f'"{_SLOT}"', "").replace(_SLOT, "").replace(_MARK, "").encode())


def _stand_in(cls: type, **fields) -> SimpleNamespace:
    """An object with the fields of cls, _MARK unless given, on which the to_dict of cls runs."""
    return SimpleNamespace(**{**dict.fromkeys(cls.__slots__, _MARK), **fields})


def _row_pieces(sample: dict) -> list[str]:
    """The text of sample as an item of a top-level list, led by ",\n", cut at each _MARK; a field that
    is _MARK alone loses its quotes, for a row's JSON text.  Row values must need no JSON escapes."""
    text = ",\n    " + json.dumps(sample, indent=2, sort_keys=True).replace("\n", "\n    ")
    return text.replace(f'"{_SLOT}"', _SLOT).split(_SLOT)


def _json_frame(payload: dict, key: str) -> tuple[str, str]:
    """The text that _emit_json writes before and after the rows of payload's list at key."""
    head, tail = json.dumps({**payload, key: []}, indent=2, sort_keys=True).split(f'"{key}": []', 1)
    return f'{head}"{key}": [', f"\n  ]{tail}\n"


def _emit_json(payload: dict, key: str | None = None, rows: Iterable[str] = ()) -> None:
    """Print json.dumps(payload, indent=2, sort_keys=True), the one JSON writer of every report, the list
    at key written from rows around _json_frame, a row being items each led by ",\n" but the first."""
    rows = iter(rows)
    first = next(rows, None)
    out = sys.stdout
    if first is None:
        out.write(f"{json.dumps(payload if key is None else {**payload, key: []}, indent=2, sort_keys=True)}\n")
        return
    head, tail = _json_frame(payload, key)
    out.write(f"{head}{first[1:]}")
    out.writelines(rows)
    out.write(tail)


def _certificates(rows: Iterable, ks: list[str], pieces: list[str] | None) -> Iterator[str]:
    """Member i's certificates in one string per row (i, ps, zero) of _components_rows, pretty lines or
    JSON items of pieces c0 k_i c1 k_j c2 k_i c3 k_j c4 p c5 verdict c6, filled by slice (README)."""
    if pieces is None:
        inconclusive, distinct = (f": {v} (p1sq_X = " for v in _SEPARATION_VERDICTS)
        firsts = [[f"  k0={k} k1=", None, distinct, None, "/1)\n"] for k in ks]
        columns, p_at, verdict = ((1, ks),), 3, 2
    else:
        c0, c1, c2, c3, c4, c5, c6 = pieces
        inconclusive, distinct = (f'{c5}"{v}"{c6}' for v in _SEPARATION_VERDICTS)
        firsts = [[f"{c0}{k}{c1}", None, f"{c2}{k}{c3}", None, None, distinct] for k in ks]
        columns, p_at, verdict = ((1, ks), (3, [f"{k}{c4}" for k in ks])), 4, 5
    width = len(firsts[0])
    for i, ps, zero in rows:
        parts = firsts[i] * len(ps)
        parts[p_at::width] = ps
        for at, texts in columns:
            parts[at::width] = texts[i + 1:]
        if zero is not None:
            parts[width * zero + verdict] = inconclusive
        yield "".join(parts)


def _components_lines(report: dict, ks: list[str]) -> list[str]:
    """The lines of a pretty components report before its certificates; the note follows them."""
    status = ([report["banner"], f"curvature: {' '.join(report['curvature_classes'])}"] if report["banner"]
              else ["verdict withheld" if report["certified"] is None else "certification failed"])
    return [*status, f"family: {' '.join(ks)}"]


@functools.cache
def _components_frame(fmt: str, scal: bool) -> tuple[int, int]:
    """The most fixed bytes of a components report's head and tail over each status and note, and a member's."""
    def size(members, certified, banner, note):
        report = _components_dict(_stand_in(BundleClass), _MARK, [_MARK] * members, [], certified, banner,
                                  _CURVATURE_CLASSES[scal], note)
        lines = "".join(f"{line}\n" for line in (*_components_lines(report, report["family"]), note))
        return _fixed(report if fmt == "json" else lines, "certificates")
    notes = (INFINITUDE_NOTE, INFINITUDE_NOTE_NONPOSITIVE, INFINITUDE_NOTE_OPPOSITE)
    one = max(size(1, *status, note) for status in ((True, BANNER), (False, None), (None, None)) for note in notes)
    return one, size(2, True, BANNER, notes[0]) - size(1, True, BANNER, notes[0])


def _cmd_components(args: SimpleNamespace, fmt: str) -> int:
    _check_limit("--pairs", args.pairs, MAX_PAIRS)
    b = make_bundle(args.n, args.l)
    pieces = None
    if fmt == "json":
        # a certificate is the base's but for k0, k1, p1sq_X and verdict; -n stands in for n < 0
        sample = separation_certificate(*[b if b.euler > 0 else make_bundle(-b.euler, b.pont)] * 2, args.scal)
        sample = sample.to_dict(args.quote_provenance)
        sample.update(k0=_MARK, k1=_MARK, metric_labels=[f"GZ({_MARK})"] * 2, p1sq_X=f"{_MARK}/1", verdict=_MARK)
        pieces = _row_pieces(sample)
    # the head prints at most n, l, pairs and the first member; a certificate k_i, k_j and p, |p| <= 896 pairs k
    pairs = max(args.pairs, 0)
    k = max(abs(args.l), abs(args.l + 112 * args.n * pairs))
    frame, member = _components_frame(fmt, args.scal)
    certificate = max(_fixed(next(_certificates([(0, [_MARK], zero)], [_MARK] * 2, pieces))) for zero in (None, 0))
    ints = (k, k, 896 * pairs * k) if pieces is None else (k, k, k, k, 896 * pairs * k)
    _check_output_size((1, frame, args.n, args.l, pairs, args.l), (pairs, member, k),
                       (pairs * (pairs + 1) // 2, certificate, *ints))
    report, rows = _components_rows(b, args.pairs, include_scal=args.scal)
    ks = [str(k) for k in report["family"]]
    if fmt == "pretty":
        print(*_components_lines(report, ks), sep="\n")
        sys.stdout.writelines(_certificates(rows, ks, None))
        print(report["note"])
    else:
        _emit_json(report, "certificates", _certificates(rows, ks, pieces))
    return EXIT_CODES[DISTINCT_COMPONENTS if report["certified"] else INCONCLUSIVE]


@functools.cache
def _census_text(fmt: str, unoriented: bool, sphere: bool) -> tuple:
    """A census's head from (report, classes), a JSON payload, and texts of rows (firsts, count, mu) in fmt,
    the fixed bytes of its head and tail, and the most of a row over the mu of odd k at n = 1 (sphere)."""
    (c0, c1, c2, c3), quote = _row_pieces(CensusClass.to_dict(_stand_in(CensusClass))), '"{}"'.format
    head, texts = {
        "json": (lambda h, classes: CensusReport.to_dict(h), lambda rows: (
            f"{c0}{c}{c1}{'null' if mu is None else quote(mu)}{c2}{fs[0]}{c3}" for fs, c, mu in rows)),
        "tsv": (lambda h, classes: "representative\tmembers_count\tmu\n", lambda rows: (
            f"{fs[0]}\t{c}\t{'-' if mu is None else mu}\n" for fs, c, mu in rows)),
        "pretty": (lambda h, classes: f"n={h.n} range=[{h.k_from}, {h.k_to}] classes={classes} "
                   f"skipped={h.skipped} unknown_pairs={h.unknown_pairs_count}\n", lambda rows: (
            f"  k={fs[0]}: {c} members, mu={'-' if mu is None else mu}\n" for fs, c, mu in rows)),
    }[fmt]
    mus = {_mu(x) for x in (_MU_NUM_FOLDED if unoriented else _MU_NUM)[1::2]} if sphere else (None,)
    frame = _fixed(head(_stand_in(CensusReport, classes=(), unoriented=unoriented), _MARK), "classes")
    return head, texts, frame, max(_fixed(next(texts([((_MARK,), _MARK, mu)]))) for mu in mus)


def _cmd_census(args: SimpleNamespace, fmt: str) -> int:
    # a class per first member for n > 1, counted from start and stop (len() of a range
    # overflows); <= 0 for the n and windows that census rejects
    firsts = _census_firsts(args.n, args.k_from, args.k_to)
    classes = (firsts.stop - firsts.start + 1) // 2
    if classes > MAX_CENSUS_CLASSES:
        raise ValueError(f"census of {classes} classes exceeds the limit of {MAX_CENSUS_CLASSES}")
    head_text, texts, frame, row_bytes = _census_text(fmt, args.unoriented, args.n == 1)
    # the head prints n, the window, the classes, skipped and unknown pairs, a row k and its member count
    k, window = max(abs(args.k_from), abs(args.k_to)), args.k_to - args.k_from + 1
    _check_output_size((1, frame, args.n, k, k, classes, window, window * window), (classes, row_bytes, k, window))
    head, rows = _census_rows(args.n, args.k_from, args.k_to, args.unoriented)
    text = head_text(head, len(rows) if args.n == 1 else classes)
    if fmt == "json":
        _emit_json(text, "classes", texts(rows))
    else:
        sys.stdout.write(text)
        sys.stdout.writelines(texts(rows))
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


@functools.cache
def _family_text(fmt: str) -> tuple:
    """A family's head(n, l, step), a JSON payload, and member texts(n, ks) in fmt, with the fixed bytes of each."""
    c0, c1, c2 = _row_pieces(BundleClass.to_dict(_stand_in(BundleClass)))
    head, texts = {
        "json": (lambda n, l, step: {"n": n, "l": l, "step": step}, lambda n, ks: (f"{c0}{n}{c1}{k}{c2}" for k in ks)),
        "tsv": (lambda n, l, step: "euler\tk\n", lambda n, ks: (f"{n}\t{k}\n" for k in ks)),
        "pretty": (lambda n, l, step: "", lambda n, ks: chain((f"{k} " for k in ks[:-1]), [f"{ks[-1]}\n"])),
    }[fmt]
    return head, texts, _fixed(head(_MARK, _MARK, _MARK), "members"), _fixed(next(texts(_MARK, [_MARK])))


def _cmd_family(args: SimpleNamespace, fmt: str) -> int:
    _check_limit("--count", args.count, MAX_FAMILY_COUNT)
    head, texts, frame, row_bytes = _family_text(fmt)
    # the head prints n, l and the step 112n, a member n and k
    k = max(abs(args.l), abs(args.l + 112 * args.n * (args.count - 1)))
    _check_output_size((1, frame, args.n, args.l, 112 * args.n), (args.count, row_bytes, args.n, k))
    ks = _family_ks(make_bundle(args.n, args.l), args.count)
    text = head(args.n, args.l, ks.step)
    if fmt == "json":
        _emit_json(text, "members", texts(args.n, ks))
    else:
        sys.stdout.write(text)
        sys.stdout.writelines(texts(args.n, ks))
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
