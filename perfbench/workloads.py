"""Seeded input decks for the four workloads, and how one operation runs.

A deck is a list of operation specs (plain tuples of ints, bools and
strings); the program never sees the seed.  The mix of work in a deck is a
fixed design: blocks of fixed composition, each holding one operation per
size stratum, with every choice that changes how much work an operation does
(a size inside its stratum, n, the format, the partner shape, the bundle
source, the number of digits) drawn from an evenly spread sequence that does
not depend on the seed.  The seed picks the concrete inputs: window starts,
k and l values, pairings and the order inside each block.  Runs under
different seeds therefore do the same amount of work of the same kinds on
different inputs, which keeps medians and tail percentiles steady.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time

CENSUS_BLOCKS, CENSUS_BLOCK = 64, 15
COMPONENTS_BLOCKS, COMPONENTS_BLOCK = 48, 5
API_BLOCKS = 100
CLI_BLOCKS = 32
GOLDEN = (math.sqrt(5) - 1) / 2


class Spread:
    """Evenly spread points in [0, 1), one sequence per named stream.

    Each stream is a golden-ratio (Kronecker) sequence from an offset fixed
    by the stream's name, so every prefix of it covers [0, 1) almost
    uniformly and the sequence is the same under every seed.
    """

    def __init__(self) -> None:
        self.state: dict[str, tuple[float, int]] = {}

    def __call__(self, stream: str) -> float:
        offset, i = self.state.get(stream) or (random.Random(stream).random(), 0)
        self.state[stream] = (offset, i + 1)
        return (offset + i * GOLDEN) % 1.0

    def pick(self, stream: str, options: list | tuple):
        return options[int(self(stream) * len(options))]


def log_stratum(lo: float, hi: float, stratum: int, strata: int, u: float) -> float:
    """Point u of stratum `stratum` of `strata` equal slices of [lo, hi] on a log scale."""
    return math.exp(math.log(lo) + (stratum + u) / strata * (math.log(hi) - math.log(lo)))


def with_parity(k: int, n: int) -> int:
    """The nearest k' >= k with k' == n (mod 2), so (n, k') is a valid bundle."""
    return k + (k - n) % 2


# -- census_sweep -----------------------------------------------------------

def census_deck(seed: int) -> list[tuple]:
    """Specs ("census", n, lo, hi, unoriented, fmt).

    Per block of 15: six oriented and six unoriented n=1 windows, each set
    spanning 10^2..10^5 in six log strata, and three n>1 windows over three
    log strata, n cycling through 2, 3, 5, 7.  Starts are uniform in +-10^6.
    An odd block keeps the median and the 90th percentile off the edges
    between strata.
    """
    rng = random.Random(f"census_sweep/{seed}")
    spread = Spread()
    slots = [(1, False, s, 6) for s in range(6)] + [(1, True, s, 6) for s in range(6)]
    slots += [(None, False, s, 3) for s in range(3)]
    deck = []
    for _ in range(CENSUS_BLOCKS):
        block = []
        for i, (n, unoriented, stratum, strata) in enumerate(slots):
            n = n or spread.pick(f"n/{i}", (2, 3, 5, 7))
            length = round(log_stratum(1e2, 1e5, stratum, strata, spread(f"size/{i}")))
            lo = rng.randint(-10**6, 10**6)
            block.append(("census", n, lo, lo + length - 1, unoriented, spread.pick(f"fmt/{i}", ("json", "tsv"))))
        rng.shuffle(block)
        deck += block
    return deck


def census_argv(spec: tuple) -> list[str]:
    _, n, lo, hi, unoriented, fmt = spec
    argv = ["census", f"--n={n}", f"--from={lo}", f"--to={hi}", f"--format={fmt}"]
    return argv + ["--unoriented"] if unoriented else argv


# -- components_family ------------------------------------------------------

def components_deck(seed: int) -> list[tuple]:
    """Specs ("components", n, l, pairs): per block of five, pairs over five
    log strata of 20..150, n cycling through 1, 2, 3, l uniform in +-10^4
    with n's parity.  With an odd number of strata the median and the 90th
    percentile fall inside a stratum, not on the edge between two."""
    rng = random.Random(f"components_family/{seed}")
    spread = Spread()
    deck = []
    for _ in range(COMPONENTS_BLOCKS):
        block = []
        for stratum in range(COMPONENTS_BLOCK):
            n = spread.pick(f"n/{stratum}", (1, 2, 3))
            pairs = round(log_stratum(20, 150, stratum, COMPONENTS_BLOCK, spread(f"size/{stratum}")))
            block.append(("components", n, with_parity(rng.randint(-10**4, 10**4), n), pairs))
        rng.shuffle(block)
        deck += block
    return deck


def components_argv(spec: tuple) -> list[str]:
    _, n, l, pairs = spec
    return ["components", f"--n={n}", f"--l={l}", f"--pairs={pairs}", "--format=json"]


# -- api_queries and cli_cold share one query generator ---------------------

POOL_N = (1,) * 12 + (2, 2, 3, 3, 5, 5, 7, 7, -1, -1, 2, 3)
FRESH_N = (1, 1, -1, 2, 3, 5, 7, -2)
POSITIVE_N = (1, 1, 2, 3, 5, 7)
# one in twenty bundle queries takes a big k, about half reuse the hot pool
SOURCES = ("big",) + ("hot",) * 10 + ("fresh",) * 9
# The big-k tail stays below about 2,150 digits: above that, valid queries
# are rejected because p1^2 = 4k^2/n is stringified past CPython's
# 4,300-digit int-to-string limit (ROADMAP item 2).  Timed operations must
# not fail, so that defect is measured apart, by bigk_probes, in traced runs.
BIG_DIGITS = (200, 2000)
REJECTED_DIGITS = (2200, 4000)


def _k(rng: random.Random, n: int, digits: int) -> int:
    k = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
    return with_parity(k, n)


def _query(rng: random.Random, spread: Spread, kind: str, pool: list) -> tuple:
    """One spec of the given kind; `spread` chooses its bundle source and size."""
    if kind == "theta7":
        return ("theta7", rng.randrange(28), rng.randrange(28))
    positive = kind in ("certify", "certify_quoted", "family")
    source = spread.pick(f"source/{kind}", SOURCES)
    if source == "hot":
        n, k = spread.pick(f"pool/{kind}", [b for b in pool if b[0] > 0] if positive else pool)
        digits = len(str(abs(k)))
    else:
        n = spread.pick(f"n/{kind}", POSITIVE_N if positive else FRESH_N)
        if source == "big":
            digits = round(log_stratum(*BIG_DIGITS, 0, 1, spread(f"big/{kind}")))
        else:
            digits = 1 + int(30 * spread(f"digits/{kind}"))
        k = _k(rng, n, digits)
    if kind == "dossier":
        return ("dossier", n, k, spread.pick("orientation", (1, -1)))
    if kind in ("oriented", "unoriented", "homeomorphic"):
        shape = spread(f"shape/{kind}")
        if shape < 0.3:  # same class by the 112n congruence
            partner = (n, k + 112 * abs(n) * rng.randint(-50, 50))
        elif shape < 0.5:  # same class by the 2n congruence
            partner = (n, k + 2 * abs(n) * rng.randint(-500, 500))
        elif shape < 0.9:  # same |n|, unrelated k of a similar size
            m = n if shape < 0.78 else -n
            partner = (m, _k(rng, m, max(1, digits + rng.randint(-2, 2))))
        else:  # another Euler class
            m = spread.pick("other_n", (1, 2, 3, 5))
            partner = (m, _k(rng, m, 3))
        return (kind, n, k) + partner
    if kind in ("certify", "certify_quoted"):
        if spread(f"shape/{kind}") < 0.5:  # a family pair
            return (kind, n, k, k + 112 * n * rng.randint(1, 40))
        return (kind, n, k, _k(rng, n, digits))
    if kind == "family":
        return ("family", n, k, rng.randint(1, 8))
    raise ValueError(kind)


API_MIX = ["dossier"] * 8 + ["oriented"] * 8 + ["unoriented"] * 6 + ["homeomorphic"] * 6
API_MIX += ["certify"] * 8 + ["family"] * 2 + ["theta7"] * 2
CLI_MIX = ["dossier"] * 6 + ["oriented"] * 3 + ["unoriented"] * 3 + ["certify"] * 3
CLI_MIX += ["certify_quoted"] * 2 + ["family"] * 3


def query_deck(seed: int, name: str, mix: list[str], blocks: int) -> list[tuple]:
    """Blocks of len(mix) queries over a 24-bundle hot pool.  Per kind, one
    query in twenty takes a k of 200..2000 digits (log scale), about half
    reuse the hot pool and the rest take a fresh k of 1..30 digits."""
    rng = random.Random(f"{name}/{seed}")
    spread = Spread()
    pool = [(n, _k(rng, n, 1 + i % 6)) for i, n in enumerate(POOL_N)]
    deck = []
    for _ in range(blocks):
        block = [_query(rng, spread, kind, pool) for kind in mix]
        rng.shuffle(block)
        deck += block
    return deck


def api_deck(seed: int) -> list[tuple]:
    return query_deck(seed, "api_queries", API_MIX, API_BLOCKS)


def cli_deck(seed: int) -> list[tuple]:
    return query_deck(seed, "cli_cold", CLI_MIX, CLI_BLOCKS)


def bigk_probes(seed: int, count: int = 40) -> list[tuple]:
    """Valid API queries with k of 2,200..4,000 digits (log scale), half
    dossiers and half certificates of unrelated pairs; the current program
    rejects them (see BIG_DIGITS)."""
    rng = random.Random(f"bigk_probes/{seed}")
    probes = []
    for i in range(count):
        n = POSITIVE_N[i % len(POSITIVE_N)]
        digits = round(log_stratum(*REJECTED_DIGITS, i, count, rng.random()))
        k = _k(rng, n, digits)
        probes.append(("dossier", n, k, 1) if i % 2 == 0 else ("certify", n, k, _k(rng, n, digits)))
    return probes


def cli_query_argv(spec: tuple) -> list[str]:
    kind = spec[0]
    if kind == "dossier":
        _, n, k, sign = spec
        argv = ["invariants", f"--n={n}", f"--k={k}"]
        return argv + ["--reverse-orientation"] if sign < 0 else argv
    if kind in ("oriented", "unoriented"):
        _, n1, k1, n2, k2 = spec
        argv = ["classify", f"--n1={n1}", f"--k1={k1}", f"--n2={n2}", f"--k2={k2}"]
        return argv + ["--unoriented"] if kind == "unoriented" else argv
    if kind in ("certify", "certify_quoted"):
        _, n, k0, k1 = spec
        argv = ["certify", f"--n={n}", f"--k0={k0}", f"--k1={k1}"]
        return argv + ["--quote-provenance"] if kind == "certify_quoted" else argv
    if kind == "family":
        _, n, k, count = spec
        return ["family", f"--n={n}", f"--l={k}", f"--count={count}"]
    raise ValueError(kind)


def deck_digest(deck: list[tuple]) -> str:
    h = hashlib.sha256()
    for spec in deck:
        h.update(repr(spec).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- running one operation ----------------------------------------------------

def run_cli_inprocess(cli, argv: list[str]) -> tuple[int, str]:
    """spherectl.cli.main(argv) with stdout captured, as a shell would see it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_api(S, spec: tuple) -> object:
    """One public-API call through the spherectl package, plus its to_dict()."""
    kind = spec[0]
    if kind == "dossier":
        _, n, k, sign = spec
        return S.dossier(S.make_bundle(n, k), S.POSITIVE if sign > 0 else S.NEGATIVE).to_dict()
    if kind in ("oriented", "unoriented", "homeomorphic"):
        decide = {
            "oriented": S.oriented_diffeomorphic,
            "unoriented": S.unoriented_diffeomorphic,
            "homeomorphic": S.homeomorphic,
        }[kind]
        _, n1, k1, n2, k2 = spec
        return decide(S.make_bundle(n1, k1), S.make_bundle(n2, k2)).to_dict()
    if kind == "certify":
        _, n, k0, k1 = spec
        return S.separation_certificate(S.make_bundle(n, k0), S.make_bundle(n, k1)).to_dict()
    if kind == "family":
        _, n, k, count = spec
        return [b.to_dict() for b in S.gz_family(S.make_bundle(n, k), count)]
    if kind == "theta7":
        _, a, b = spec
        e = S.theta7_add(S.Theta7Element.of(a), S.Theta7Element.of(b))
        return {"value": e.value.value, "mu": str(e.mu())}
    raise ValueError(kind)


def program_src(root: str) -> str:
    """root/src, after checking that the spherectl package is there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spherectl", "__init__.py")):
        raise RuntimeError(f"no spherectl package under {src}")
    return src


def child_env(root: str) -> dict:
    """The environment of a child that runs spherectl from root/src."""
    env = {k: v for k, v in os.environ.items() if k not in ("SPHERECTL_FORMAT", "PYTHONPATH")}
    env["PYTHONPATH"] = program_src(root)
    return env


def run_child(argv: list[str], env: dict, cwd: str) -> tuple[int, str, float, float, int]:
    """Run one child to completion: (exit code, stdout, wall s, cpu s, peak RSS KiB).

    The child is reaped with wait4 so that its own CPU time and peak RSS are
    read exactly, without mixing in other children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out = proc.stdout.read()
        proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, out.decode(), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def load_program(root: str) -> dict:
    """Import spherectl afresh from root/src; modules by short name.

    Any spherectl already imported is dropped first, so each call pays the
    package's own import cost again (the standard library stays cached).
    """
    src = program_src(root)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "spherectl" or m.startswith("spherectl.")]:
        del sys.modules[name]
    import importlib

    mods = {"spherectl": importlib.import_module("spherectl"), "cli": importlib.import_module("spherectl.cli")}
    for short in ("exactnum", "bundle", "space", "classify", "moduli"):
        mods[short] = importlib.import_module(f"spherectl.{short}")
    if not os.path.abspath(mods["spherectl"].__file__).startswith(src + os.sep):
        raise RuntimeError(f"spherectl was imported from {mods['spherectl'].__file__}, not {src}")
    return mods
