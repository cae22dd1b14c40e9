"""Command-line front end: spherectl.

Every subcommand prints machine-readable output to stdout (JSON by default,
keys sorted, rationals as exact "num/den" strings, never floating point) and
diagnostics to stderr.  Exit codes partition outcomes:

    0  success / Yes / DistinctComponents
    1  No
    2  invalid input
    3  Unknown / Inconclusive / verdict withheld
   74  stdout cannot take the output, as on a full disk or with fd 1 closed (EX_IOERR)
  141  stdout closed by its reader before all output was written (128 + SIGPIPE)

The output format is --format, else the env var SPHERECTL_FORMAT, else JSON;
TSV is available for census and family reports only.  main resolves it once,
before the command does any work, and passes it to the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import suppress
from itertools import chain
from types import SimpleNamespace

from . import bundle

FORMATS = ("json", "tsv", "pretty")
# the exit code of each verdict, as in the table above
EXIT_CODES = {"Yes": 0, "No": 1, "Unknown": 3, "DistinctComponents": 0, "Inconclusive": 3}

# Upper bounds on the work of one invocation: --pairs P prints P(P+1)/2 certificates, --count C
# lists C members, a census its classes, and the output, which the parameters' digits also drive.
MAX_PAIRS = 500
MAX_FAMILY_COUNT = 100_000
MAX_CENSUS_CLASSES = 100_000
MAX_OUTPUT_BYTES = 256 * 2**20


@functools.cache
def _library(name: str):
    """The library module spherectl.<name>: cli imports bundle alone, and each command the modules it runs
    through this cache, cheaper per query than an import statement (README "Cold start")."""
    return importlib.import_module(f".{name}", __package__)


def _check_limit(option: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{option} {value} exceeds the limit of {limit}")


def _check_output_size(*parts: tuple[int, ...]) -> None:
    """Refuse, before any work, output over MAX_OUTPUT_BYTES: parts (count, fixed, *ints) of count records that
    each print fixed bytes (see _fixed) and the ints, each a bound that is negative where its value may be."""
    size = 0
    for count, fixed, *ints in parts:
        # log10(2) < 0.30103, so this bounds the digits; a sign byte for a negative bound
        size += max(count, 0) * (fixed + sum([abs(x).bit_length() * 30103 // 100000 + 1 + (x < 0) for x in ints]))
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
    o = bundle.NEGATIVE if args.reverse_orientation else bundle.POSITIVE
    info = _library("space").dossier(bundle.make_bundle(args.n, args.k), o).to_dict()
    _emit(info if fmt == "json" else "".join(f"{line}\n" for line in (
        f"bundle: euler={info['euler']} k={info['k']}", f"orientation: {info['orientation']:+d}",
        f"cohomology: [{', '.join(info['cohomology'])}]",
        f"homotopy sphere: {'yes' if info['is_homotopy_sphere'] else 'no'}",
        *(f"{key}: {info[key]}" for key in ("sign_W", "p1sq_W")),
        f"mu: {info['mu'] if info['mu'] is not None else '-'}")))
    return 0


def _cmd_classify(args: SimpleNamespace, fmt: str) -> int:
    classify = _library("classify")
    b1 = bundle.make_bundle(args.n1, args.k1)
    b2 = bundle.make_bundle(args.n2, args.k2)
    decide = classify.unoriented_diffeomorphic if args.unoriented else classify.oriented_diffeomorphic
    verdict = decide(b1, b2)
    payload = {"b1": b1.to_dict(), "b2": b2.to_dict(), "unoriented": args.unoriented}
    payload.update(verdict.to_dict())
    _emit(payload if fmt == "json" else f"{verdict.answer} ({verdict.reason})\n")
    return EXIT_CODES[verdict.answer]


def _cmd_certify(args: SimpleNamespace, fmt: str) -> int:
    b0 = bundle.make_bundle(args.n, args.k0)
    b1 = bundle.make_bundle(args.n, args.k1)
    cert = _library("moduli").separation_certificate(b0, b1, include_scal=args.scal)
    payload = cert.to_dict(quote_provenance=args.quote_provenance)
    _emit(payload if fmt == "json" else "".join(f"{line}\n" for line in (
        f"pair: n={payload['n']} k0={payload['k0']} k1={payload['k1']}",
        f"metrics: {payload['metric_labels'][0]} vs {payload['metric_labels'][1]}",
        *(f"{key}: {payload[key]}" for key in ("sign_X", "p1sq_X", "ahat", "verdict")),
        f"curvature: {' '.join(payload['curvature_classes'])}",
        *(f"  - {step}" for step in payload.get("provenance", ())))))
    return EXIT_CODES[cert.verdict]


_MARK = "\x00"
_SLOT = json.dumps(_MARK)[1:-1]  # _MARK in JSON text


def _fixed(text: str | tuple[str, str] | dict, key: str = "") -> int:
    """The bytes of a sample's text, a frame's two texts or _json_frame(text, key) of a payload, less its ints."""
    text = "".join(_json_frame(text, key) if isinstance(text, dict) else text)
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
    """The text that _emit writes before and after the rows of payload's list at key."""
    head, tail = json.dumps({**payload, key: []}, indent=2, sort_keys=True).split(f'"{key}": []', 1)
    return f'{head}"{key}": [', f"\n  ]{tail}\n"


def _emit(head: str | tuple[str, str] | dict, key: str | None = None, rows: Iterable[str] = (), tail: str = "") -> None:
    """The one writer of every command: a text head, then rows, then tail; a dict head as json.dumps(head, indent=2,
    sort_keys=True), its list at key of rows led by ",\n" in its _json_frame, which a tuple head is, cut before."""
    if sys.stdout is None:  # fd 1 was closed before the run
        raise OSError("stdout is closed")
    if isinstance(head, dict):
        head = _json_frame(head, key) if key else f"{json.dumps(head, indent=2, sort_keys=True)}\n"
    if isinstance(head, tuple):
        (head, tail), rows = head, iter(rows)
        first = next(rows, None)
        head, tail = (head, tail.replace("\n  ]", "]", 1)) if first is None else (f"{head}{first[1:]}", tail)
    sys.stdout.write(head)
    sys.stdout.writelines(rows)
    sys.stdout.write(tail)
    sys.stdout.flush()  # so that a failed write surfaces in main, not at interpreter exit


_emit_json = _emit  # perfbench/layers.py traces the writer by this name, and so each alias of it


def _certificates(rows: Iterable, ks: list[str], pieces: list[str] | None) -> Iterator[str]:
    """Member i's certificates in one string per row (i, ps, zero) of _components_rows, pretty lines or
    JSON items of pieces c0 k_i c1 k_j c2 k_i c3 k_j c4 p c5 verdict c6, filled by slice (README)."""
    verdicts = _library("moduli")._SEPARATION_VERDICTS
    if pieces is None:
        inconclusive, distinct = (f": {v} (p1sq_X = " for v in verdicts)
        firsts = [[f"  k0={k} k1=", None, distinct, None, "/1)\n"] for k in ks]
        columns, p_at, verdict = ((1, ks),), 3, 2
    else:
        c0, c1, c2, c3, c4, c5, c6 = pieces
        inconclusive, distinct = (f'{c5}"{v}"{c6}' for v in verdicts)
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


def _components_text(report: dict, ks: list[str]) -> tuple[str, str]:
    """The text of a pretty components report before and after its certificates."""
    status = (f"{report['banner']}\ncurvature: {' '.join(report['curvature_classes'])}" if report["banner"]
              else "verdict withheld" if report["certified"] is None else "certification failed")
    return f"{status}\nfamily: {' '.join(ks)}\n", f"{report['note']}\n"


@functools.cache
def _components_frame(fmt: str, scal: bool) -> tuple[int, int]:
    """The most fixed bytes of a components report's head and tail over each status and note, and a member's."""
    moduli, member = _library("moduli"), _stand_in(bundle.BundleClass)
    def size(members, certified, banner, note):
        report = moduli.ComponentsReport.to_dict(_stand_in(
            moduli.ComponentsReport, base=member, family=(member,) * members, certificates=(), certified=certified,
            banner=banner, curvature_classes=moduli._CURVATURE_CLASSES[scal], note=note))
        return _fixed(report if fmt == "json" else "".join(_components_text(report, report["family"])),
                      "certificates")
    notes = (moduli.INFINITUDE_NOTE, moduli.INFINITUDE_NOTE_NONPOSITIVE, moduli.INFINITUDE_NOTE_OPPOSITE)
    one = max(size(1, *s, note) for s in ((True, moduli.BANNER), (False, None), (None, None)) for note in notes)
    return one, size(2, True, moduli.BANNER, notes[0]) - size(1, True, moduli.BANNER, notes[0])


def _cmd_components(args: SimpleNamespace, fmt: str) -> int:
    moduli = _library("moduli")
    _check_limit("--pairs", args.pairs, MAX_PAIRS)
    b = bundle.make_bundle(args.n, args.l)
    pieces = None
    if fmt == "json":
        # a certificate is the base's but for k0, k1, p1sq_X and verdict; -n stands in for n < 0
        sample = [b if b.euler > 0 else bundle.make_bundle(-b.euler, b.pont)] * 2
        sample = moduli.separation_certificate(*sample, args.scal).to_dict(args.quote_provenance)
        sample.update(k0=_MARK, k1=_MARK, metric_labels=[f"GZ({_MARK})"] * 2, p1sq_X=f"{_MARK}/1", verdict=_MARK)
        pieces = _row_pieces(sample)
    # the head prints n, l, pairs, a member; a certificate k_i, k_j (m, < 0 if l is), p (any sign, |p| <= 896 pairs k)
    pairs = max(args.pairs, 0)
    k = max(abs(args.l), abs(args.l + 112 * args.n * pairs))
    m, p = -k if args.l < 0 else k, -(896 * pairs * k)
    frame, member = _components_frame(fmt, args.scal)
    certificate = max(_fixed(next(_certificates([(0, [_MARK], zero)], [_MARK] * 2, pieces))) for zero in (None, 0))
    ints = (m, m, p) if pieces is None else (m, m, m, m, p)
    _check_output_size((1, frame, args.n, args.l, pairs, args.l), (pairs, member, m),
                       (pairs * (pairs + 1) // 2, certificate, *ints))
    report, rows = moduli._components_rows(b, args.pairs, include_scal=args.scal)
    ks = [str(k) for k in report["family"]]
    head, tail = (report, "") if fmt == "json" else _components_text(report, ks)
    _emit(head, "certificates", _certificates(rows, ks, pieces), tail)
    return EXIT_CODES[moduli.DISTINCT_COMPONENTS if report["certified"] else moduli.INCONCLUSIVE]


@functools.cache
def _census_text(fmt: str, unoriented: bool, sphere: bool) -> tuple:
    """A census's head from (report, classes), a JSON frame for _emit, and texts of rows (firsts, count, mu) in
    fmt, a run of n > 1 classes joined 32 to a write, the fixed bytes of its head and tail, the most of a row over
    the mu of odd k at n = 1 (sphere), and the most rows: one per such mu at n = 1."""
    classify, space = _library("classify"), _library("space")
    Class, Report = classify.CensusClass, classify.CensusReport
    (c0, c1, c2, c3), quote = _row_pieces(Class.to_dict(_stand_in(Class))), '"{}"'.format
    # the JSON frame, its tail cut as _row_pieces cuts, at n, k_from, k_to, skipped and unknown_pairs_count
    frame, tail = _json_frame(Report.to_dict(_stand_in(Report, classes=(), unoriented=unoriented)), "classes")
    j0, j1, j2, j3, j4, j5 = tail.replace(f'"{_SLOT}"', _SLOT).split(_SLOT)
    # to_tsv of a class of mu _MARK and one of mu None, and print's newline: header t0, row k t1 count t2 mu t3
    tsv = Report.to_tsv(_stand_in(Report, classes=(_stand_in(Class), _stand_in(Class, mu=None)))) + "\n"
    t0, t1, t2, t3, _, no_mu = tsv.split(_MARK)
    dash = no_mu.removeprefix(t2).removesuffix(t3)
    head, row = {
        "json": (lambda h, classes: (frame, f"{j0}{h.n}{j1}{h.k_from}{j2}{h.k_to}{j3}{h.skipped}{j4}"
                                            f"{h.unknown_pairs_count}{j5}"),
                 lambda k, c, mu: f"{c0}{c}{c1}{'null' if mu is None else quote(mu)}{c2}{k}{c3}"),
        "tsv": (lambda h, classes: t0, lambda k, c, mu: f"{k}{t1}{c}{t2}{dash if mu is None else mu}{t3}"),
        "pretty": (lambda h, classes: f"n={h.n} range=[{h.k_from}, {h.k_to}] classes={classes} "
                   f"skipped={h.skipped} unknown_pairs={h.unknown_pairs_count}\n",
                   lambda k, c, mu: f"  k={k}: {c} members, mu={'-' if mu is None else mu}\n"),
    }[fmt]
    def texts(rows):  # an n > 1 row is a run of classes whose texts differ only in their first member
        for firsts, count, mu in rows:
            if mu is not None:
                yield row(firsts[0], count, mu)
            else:
                p, s = row(_MARK, count, None).split(_MARK)
                yield from (f"{p}{(s + p).join(map(str, firsts[i:i + 32]))}{s}" for i in range(0, len(firsts), 32))
    mus = {space._mu(x) for x in (space._MU_NUM_FOLDED if unoriented else space._MU_NUM)[1::2]} if sphere else (None,)
    return (head, texts, _fixed(head(_stand_in(Report, classes=(), unoriented=unoriented), _MARK)),
            max(_fixed(row(_MARK, _MARK, mu)) for mu in mus), len(mus) if sphere else MAX_CENSUS_CLASSES)


def _cmd_census(args: SimpleNamespace, fmt: str) -> int:
    classify = _library("classify")
    # a class per first member for n > 1, counted from start and stop (len() of a range
    # overflows); <= 0 for the n and windows that census rejects
    firsts = classify._census_firsts(args.n, args.k_from, args.k_to)
    classes = (firsts.stop - firsts.start + 1) // 2
    if classes > MAX_CENSUS_CLASSES:
        raise ValueError(f"census of {classes} classes exceeds the limit of {MAX_CENSUS_CLASSES}")
    head_text, texts, frame, row_bytes, most = _census_text(fmt, args.unoriented, args.n == 1)
    # the head prints n, the window, the classes, skipped and unknown pairs, a row k and its member count
    k, window = max(abs(args.k_from), abs(args.k_to)), args.k_to - args.k_from + 1
    _check_output_size((1, frame, args.n, args.k_from, args.k_to, classes, window, window * window),
                       (min(classes, most), row_bytes, -k if args.k_from < 0 else k, window))
    head, rows = classify._census_rows(args.n, args.k_from, args.k_to, args.unoriented)
    _emit(head_text(head, len(rows) if args.n == 1 else classes), "classes", texts(rows))
    return 0


def _cmd_realized_mu(args: SimpleNamespace, fmt: str) -> int:
    space = _library("space")
    values = space.realized_mu_set_unoriented() if args.unoriented else space.realized_mu_set()
    ordered = [str(q) for q in sorted(values)]
    _emit({"count": len(ordered), "values": ordered} if fmt == "json" else "".join(f"{q}\n" for q in ordered))
    return 0


@functools.cache
def _family_text(fmt: str) -> tuple:
    """A family's head(n, l, step), a JSON payload, and member texts(n, ks) in fmt, with the fixed bytes of each."""
    c0, c1, c2 = _row_pieces(bundle.BundleClass.to_dict(_stand_in(bundle.BundleClass)))
    head, texts = {
        "json": (lambda n, l, step: {"n": n, "l": l, "step": step}, lambda n, ks: (f"{c0}{n}{c1}{k}{c2}" for k in ks)),
        "tsv": (lambda n, l, step: "euler\tk\n", lambda n, ks: (f"{n}\t{k}\n" for k in ks)),
        "pretty": (lambda n, l, step: "", lambda n, ks: chain((f"{k} " for k in ks[:-1]), [f"{ks[-1]}\n"])),
    }[fmt]
    return head, texts, _fixed(head(_MARK, _MARK, _MARK), "members"), _fixed(next(texts(_MARK, [_MARK])))


def _cmd_family(args: SimpleNamespace, fmt: str) -> int:
    _check_limit("--count", args.count, MAX_FAMILY_COUNT)
    head, texts, frame, row_bytes = _family_text(fmt)
    # the head prints n, l and the step 112n, a member n and k, negative when l is
    k = max(abs(args.l), abs(args.l + 112 * args.n * (args.count - 1)))
    _check_output_size((1, frame, args.n, args.l, 112 * args.n),
                       (args.count, row_bytes, args.n, -k if args.l < 0 else k))
    ks = bundle._family_ks(bundle.make_bundle(args.n, args.l), args.count)
    _emit(head(args.n, args.l, ks.step), "members", texts(args.n, ks))
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

    class Parser(argparse.ArgumentParser):  # argparse's own writer swallows a failed write of the help text
        def print_help(self, file=None):
            _emit(self.format_help())

        def print_usage(self, file=None):  # argparse reads None as stdout; error() passes a closed stderr as None
            if file is not None:
                super().print_usage(file)

    parser = Parser(prog="spherectl", description="Exact invariants, classification and "
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
        return args.func(args, _resolve_format(args))
    except SystemExit as exc:  # --help and usage errors, whose text argparse has written
        return exc.code
    except ValueError as exc:
        message, code = f"{exc}\n", 2
    except OSError as exc:
        # Stdout failed: its reader closed it early (`spherectl ... | head`), it cannot
        # take the output (`> /dev/full`), or it was closed before the run (`>&-`).
        # Point an open fd 1 at /dev/null so that the flush at exit stays quiet, and
        # exit as a shell reports a SIGPIPE kill, 128 + 13, or else with EX_IOERR.
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141
        message, code = f"cannot write the output: {exc}\n", 74
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    # a message that cannot be written still exits with its code (sys.stderr is None if fd 2 was closed)
    with suppress(AttributeError, OSError):
        sys.stderr.write(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
