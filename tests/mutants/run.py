"""Mutation check: every rule of spherectl must be pinned by a test.

Each mutant changes one site of one module of src/spherectl and runs the
tier-1 suite against it with -x and a fixed hypothesis seed, on a temporary
copy of the package of its own, from an empty working directory.  A mutant is
killed when the suite fails or runs past its limit (deleting an output-size
guard, for instance, lets the suite run for minutes before it fails), and it
survives when the suite passes.  A survivor is live unless it is listed in
KNOWN with the reason it cannot be told apart from the program.

The operators, one site at a time:

  cmp    == <-> !=, < <-> <=, > <-> >=
  arith  + <-> -, * <-> //, % -> //   (binary operators, not augmented ones)
  int    an int literal c -> c + 1
  call   min <-> max
  stmt   a statement in a function body -> pass

A mutant is keyed by (module, source text, operator): the source text is the
mutated statement or expression (for an int literal, the expression holding
it) with its whitespace collapsed, and a key that recurs in a module gets
" #2", " #3", ... in the order of ast.walk.  Line numbers are not part of the
key, so KNOWN survives edits elsewhere; --since uses them only to pick the
mutants whose node spans a line that `git diff -U0 REV` adds or changes in
src/spherectl.  A KNOWN entry that is no longer a mutant is printed as STALE,
and one that a test now kills as KILLED; either fails the run, so that KNOWN
lists exactly the survivors.

Before any mutant, the unmutated package runs the same suite once, with no
time limit, as a control; if it fails, the run stops with exit status 2.  Each
mutant gets LIMIT_FACTOR times the control's seconds, a limit that grows with
a slow machine, where a fixed one would turn every survivor into a timeout.

Stdlib only, on 2 worker processes:

  python tests/mutants/run.py               # every mutant
  python tests/mutants/run.py --sample 40   # 40 mutants drawn with SAMPLE_SEED
  python tests/mutants/run.py --since REV   # the mutants on the lines changed since REV

Exit status 0 when no live mutant survives and no KNOWN entry is STALE or
KILLED, 1 otherwise, 2 when the control fails or git cannot diff against REV.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "spherectl"
TESTS = ROOT / "tests"
MODULES = ("bundle", "exactnum", "space", "classify", "moduli", "cli")
LIMIT_FACTOR = 3
WORKERS = 2
SAMPLE_SEED = 17

CMP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%"}

# (module, source text, operator) -> why no test can kill the mutant
_UNSIGNED_AT_ZERO = ("charges {} a sign byte also at {} = 0, where none prints negative: one byte more per int, "
                     "which only loosens the estimate")
_FARTHER = ("bounds k by l + {}*{} instead of the last {} member: k = max(|l|, |l + x|) grows with x, "
            "so the estimate only grows, by at most a digit per int{}")
KNOWN = {
    ("bundle", "pont - euler", "arith - -> +"): "pont - euler and pont + euler have the same parity",
    ("bundle", "b.euler <= 0", "cmp <= -> <"): "BundleClass has already refused euler == 0",
    ("exactnum", "den < 0", "cmp < -> <="): "den == 0 has already raised ZeroDivisionError",
    ("exactnum", "den < 0", "int"): "den < 1 is den <= 0 for ints, and den == 0 has already raised",
    ("exactnum", "g > 1", "cmp > -> >="): "dividing by g == 1 changes nothing; the test only saves two divisions",
    ("exactnum", "n < 0", "cmp < -> <="): "n is past the digit limit there, so never 0",
    ("exactnum", "n < 0", "int"): "n is past the digit limit there, so never 0, and n < 1 is n <= 0 for ints",
    ("space", "range(112)", "int"): "_MU_NUM[112] is never read: every index is k % 112",
    ("space", "2 * h - 1", "arith - -> +"):
        "k = 2h + 1 over h < 56 runs through -1, 1, ..., 109 instead of 1, ..., 111: the same odd "
        "residues mod 112, where mu has period 112",
    ("space", "o.sign * b.euler < 0", "cmp < -> <="): "sign is +-1 and euler != 0, so the product is never 0",
    ("space", "o.sign * b.euler < 0", "int"): "sign is +-1 and euler != 0, so the product is never 0",
    ("space", "o.sign * b.euler", "arith * -> //"):
        "sign is +-1 and euler != 0, so sign // euler is negative exactly when sign * euler is",
    ("classify", "lambda b: 0", "int"): "the key is a constant, so any constant gives the same verdicts",
    ("classify", "n - k_from", "arith - -> +"): "n - k_from and n + k_from have the same parity",
    ("moduli", "b0.euler <= 0", "cmp <= -> <"): "BundleClass has already refused euler == 0",
    ("cli", "text.split(f'\"{key}\": []', 1)", "int"):
        'the empty list of key occurs once in the report\'s JSON (a " inside a string is escaped), '
        "so a second split finds nothing",
    # Mutants that only loosen the output estimate.  The tests hold it to written <= estimate <=
    # 2 * written + 64 KiB, and these keep it there: each adds at most a byte per int or one head.
    ("cli", "896 * pairs", "int"): "897 pairs k bounds |p| = 448(j - i)|k_i + k_j| <= 896 pairs k too",
    ("cli", "args.l < 0", "cmp < -> <="): _UNSIGNED_AT_ZERO.format("a components member", "l"),
    ("cli", "args.l < 0", "int"): _UNSIGNED_AT_ZERO.format("a components member", "l"),
    ("cli", "args.l < 0 #2", "cmp < -> <="): _UNSIGNED_AT_ZERO.format("a family member", "l"),
    ("cli", "args.l < 0 #2", "int"): _UNSIGNED_AT_ZERO.format("a family member", "l"),
    ("cli", "args.k_from < 0", "cmp < -> <="): _UNSIGNED_AT_ZERO.format("a census row's k", "k_from"),
    ("cli", "args.k_from < 0", "int"): _UNSIGNED_AT_ZERO.format("a census row's k", "k_from"),
    ("cli", "112 * args.n", "int"): "113n bounds the digits of the family's step 112n too",
    ("cli", "112 * args.n #2", "int"): _FARTHER.format("pairs", "113n", "components", ""),
    ("cli", "112 * args.n #3", "int"): _FARTHER.format("(count - 1)", "113n", "family", ""),
    ("cli", "args.count - 1", "arith - -> +"): _FARTHER.format(
        "(count + 1)", "112n", "family", ", but for one member by the digits of 224n, and its row prints n"),
    ("cli", "args.k_to - args.k_from + 1", "int"): "a window one longer bounds the census counts too",
    ("cli", "args.k_to - args.k_from + 1", "arith + -> -"):
        "the window less 2 bounds the census counts too: a class has at most (window + 1)/2 members, "
        "skipped is at most that and the unknown pairs (window^2 - 1)/8, and below a window of 5 each "
        "of them prints 1 digit, which the digit bound of 2 bytes covers",
    ("cli", "(1, frame, args.n, args.l, 112 * args.n)", "int"):
        "counts the family head twice: the head is part of what is written, and its estimate exceeds "
        "it only by a byte or two per int",
    ("cli", "os.close(devnull)", "stmt"):
        "main's failed-write handler closes the spare descriptor just before the process exits, as the SIGPIPE "
        "idiom of the Python docs does (signal module, 'Note on SIGPIPE'); left open, it changes no exit code "
        "and no byte of stdout or stderr",
}


def _text(lines: list[bytes], node: ast.AST) -> str:
    """The source of node with its whitespace collapsed, as ast.get_source_segment reads it from lines,
    the module's source split once, in bytes since the column offsets count UTF-8 bytes.  A node with no
    position, the ast.arguments that holds a default, is unparsed."""
    if not hasattr(node, "lineno"):
        return " ".join(ast.unparse(node).split())
    segment = b"".join(lines[node.lineno - 1:node.end_lineno])
    end = len(segment) - len(lines[node.end_lineno - 1]) + node.end_col_offset
    return " ".join(segment[node.col_offset:end].decode().split())


def _lines(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _function_bodies(fn: ast.FunctionDef):
    """The statement lists of a function body, through compound statements but not into nested defs."""
    pending = [fn.body]
    while pending:
        body = pending.pop(0)
        yield body
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                continue
            pending += [inner for inner in (getattr(stmt, "body", None), getattr(stmt, "orelse", None),
                                            getattr(stmt, "finalbody", None)) if inner]
            pending += [handler.body for handler in getattr(stmt, "handlers", ())]


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _sites(src: str, tree: ast.Module):
    """(operator, source text, apply, lines) for every mutation site of tree, in a fixed order; lines is
    the range of source lines that the mutated node spans."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    lines = src.encode().splitlines(keepends=True)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in CMP:
                    new = CMP[type(op)]
                    where = f" @{j}" if len(node.ops) > 1 else ""
                    yield (f"cmp {SYMBOL[type(op)]} -> {SYMBOL[new]}{where}", _text(lines, node),
                           lambda node=node, j=j, new=new: node.ops.__setitem__(j, new()), _lines(node))
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH:
            new = ARITH[type(node.op)]
            yield (f"arith {SYMBOL[type(node.op)]} -> {SYMBOL[new]}", _text(lines, node),
                   lambda node=node, new=new: setattr(node, "op", new()), _lines(node))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield ("int", _text(lines, parents[node]), lambda node=node: setattr(node, "value", node.value + 1),
                   _lines(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            new = "max" if node.func.id == "min" else "min"
            yield (f"call {node.func.id} -> {new}", _text(lines, node),
                   lambda node=node, new=new: setattr(node.func, "id", new), _lines(node))
        elif isinstance(node, ast.FunctionDef):
            for body in _function_bodies(node):
                for i, stmt in enumerate(body):
                    if not isinstance(stmt, ast.Pass) and not (body is node.body and i == 0 and _is_docstring(stmt)):
                        yield ("stmt", _text(lines, stmt), lambda body=body, i=i: body.__setitem__(i, ast.Pass()),
                               _lines(stmt))


def mutants() -> list[tuple[str, str, str, int, range]]:
    """Every mutant as (module, source text, operator, site index, lines of the mutated node)."""
    out = []
    for module in MODULES:
        src = (PACKAGE / f"{module}.py").read_text()
        tree = ast.parse(src)
        if ast.dump(ast.parse(ast.unparse(tree))) != ast.dump(tree):
            raise SystemExit(f"{module}: ast.unparse does not round-trip, so its mutants would differ elsewhere too")
        seen: dict[tuple[str, str], int] = {}
        for index, (operator, text, _, lines) in enumerate(_sites(src, tree)):
            seen[text, operator] = count = seen.get((text, operator), 0) + 1
            out.append((module, text if count == 1 else f"{text} #{count}", operator, index, lines))
    return out


def mutate(module: str, index: int) -> str:
    """The source of module with its index-th site mutated."""
    src = (PACKAGE / f"{module}.py").read_text()
    tree = ast.parse(src)
    for i, (_, _, apply, _) in enumerate(_sites(src, tree)):
        if i == index:
            apply()
            return ast.unparse(tree) + "\n"
    raise IndexError(f"{module} has no site {index}")


def changed(todo: list, diff: str) -> list:
    """The mutants of todo whose lines include one that diff, the output of `git diff -U0 --no-prefix`, adds
    or changes.  A pure deletion touches the lines on both sides of it."""
    touched: dict[str, set[int]] = {}
    lines: set[int] = set()
    for row in diff.splitlines():
        if row.startswith("+++ "):
            lines = touched.setdefault(row[4:], set())
        elif row.startswith("@@ "):
            first, _, count = row.split()[2][1:].partition(",")
            first, count = int(first), int(count or 1)
            lines.update(range(first, first + count) if count else (first, first + 1))
    return [m for m in todo if not touched.get(f"src/spherectl/{m[0]}.py", set()).isdisjoint(m[4])]


def _test_files(module: str) -> list[str]:
    own = TESTS / f"test_{module}.py"
    rest = sorted(p for p in TESTS.glob("test_*.py") if p != own)
    return [str(p) for p in ([own] if own.exists() else []) + rest]


def _run(test_files: list[str], limit: float | None, module: str | None = None, index: int = 0) -> tuple[str, float]:
    """('killed', 'timeout' or 'survived', seconds) of the suite on its own copy of the package, stopped
    after limit seconds (None: never), with the index-th site of module mutated when a module is given."""
    with tempfile.TemporaryDirectory(prefix="spherectl-mutant-") as tmp:
        package = Path(tmp) / "src" / "spherectl"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        if module is not None:
            (package / f"{module}.py").write_text(mutate(module, index))
        work = Path(tmp) / "work"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               *test_files]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            status = "survived" if proc.wait(timeout=limit) == 0 else "killed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            status = "timeout"
        return status, time.monotonic() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, help=f"run this many mutants, drawn with seed {SAMPLE_SEED}")
    parser.add_argument("--since", metavar="REV", help="run only the mutants on the lines changed since REV")
    args = parser.parse_args(argv)

    todo = mutants()
    stale = sorted(set(KNOWN) - {m[:3] for m in todo})
    for key in stale:
        print(f"STALE    {key[0]}  {key[2]}  {key[1]}: listed in KNOWN but no longer a mutant")
    if args.since is not None:
        git = subprocess.run(["git", "diff", "-U0", "--no-prefix", args.since, "--", "src/spherectl/"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode:
            parser.error(f"--since {args.since}: {git.stderr.strip()}")
        todo = changed(todo, git.stdout)
    if args.sample is not None:
        picked = random.Random(SAMPLE_SEED).sample(range(len(todo)), min(args.sample, len(todo)))
        todo = [todo[i] for i in sorted(picked)]

    status, seconds = _run([str(p) for p in sorted(TESTS.glob("test_*.py"))], None)
    limit = LIMIT_FACTOR * seconds
    print(f"control: the unmutated suite {'passed' if status == 'survived' else 'failed'} in {seconds:.1f} s "
          f"(mutant limit {limit:.0f} s)", flush=True)
    if status != "survived":
        print("control failed: a mutant's run would not show whether a test kills it", file=sys.stderr)
        return 2

    counts = {"killed": 0, "timeout": 0, "known": 0, "live": 0}
    known_killed = 0
    start = time.monotonic()
    with ThreadPoolExecutor(WORKERS) as pool:
        runs = pool.map(lambda m: _run(_test_files(m[0]), limit, m[0], m[3]), todo)
        for (module, text, operator, _, _), (status, seconds) in zip(todo, runs):
            known = (module, text, operator) in KNOWN
            if status == "survived":
                status = "known" if known else "live"
            counts[status] += 1
            known_killed += status == "killed" and known
            if status != "killed" or known:
                print(f"{status.upper():8} {module}  {operator}  {text}  ({seconds:.0f} s)", flush=True)
    what = "mutants" if args.since is None else f"changed sites since {args.since}"
    print(f"{len(todo)} {what} in {time.monotonic() - start:.0f} s: {counts['killed']} killed, "
          f"{counts['timeout']} killed by the {limit:.0f} s limit, {counts['known']} known survivors, "
          f"{counts['live']} live survivors")
    return 1 if counts["live"] or stale or known_killed else 0


if __name__ == "__main__":
    sys.exit(main())
