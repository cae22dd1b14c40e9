"""spherectl benchmark: four seeded single-client closed-loop workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload census_sweep --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics of an untraced run; with
--trace 1 it prints the per-layer metrics of a traced run (see METRICS.md).
Every operation's output is checked against perfbench/oracle.py, which
imports nothing from spherectl.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it, each
starting with "#", are the human-readable report and its reproducibility
record.  `correct` is false when any output disagrees with the oracle;
`failed` also counts operations that raised or exited with an unexpected code
without output (a valid input rejected), so error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from hashlib import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads as W  # noqa: E402

MIN_OPS = 100  # so that at least ten samples lie beyond latency_p90_ms
MAX_WALL_S = 150.0  # a run stops early rather than overrun its time limit
SETUP_REPEATS = 9
TRACE_SHARE = 0.2  # share of --seconds for the untraced reference pass of a traced run
TRACE_MIN_OPS = 20
# Timings are normalized to a core on which _kernel takes REF_KERNEL_S: on a
# shared host the speed of a core drifts by up to 2x over seconds as other
# tenants load its hyperthread sibling, far more than the effects measured.
REF_KERNEL_S = 0.003
# read before pin_to_one_cpu narrows this process's affinity
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
CALIBRATE_EVERY_S = 0.25
SLOW_CORE_LIMIT = 1.7  # a run ends after this many times --seconds of wall time

E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "ratio",
}
# error_rate is printed in the report; in the result line it is failed/attempted.
RESULT_E2E = [name for name in E2E_UNITS if name != "error_rate"]


# -- workloads ----------------------------------------------------------------
# op(mods, spec) returns (exit code or None, stdout or returned value,
# child CPU seconds or None, child peak RSS KiB or None).

class CensusSweep:
    name = "census_sweep"
    in_process = True
    round_ops = W.CENSUS_BLOCK
    deck = staticmethod(W.census_deck)
    warmup = [("census", 1, 1, 223, False, "json"), ("census", 1, 1, 223, True, "tsv"),
              ("census", 3, -500, 500, False, "json")]

    def op(self, mods, spec):
        return W.run_cli_inprocess(mods["cli"], W.census_argv(spec)) + (None, None)

    def check(self, spec, rc, out):
        return oracle.check_census(rc, out, *spec[1:])


class ComponentsFamily:
    name = "components_family"
    in_process = True
    round_ops = W.COMPONENTS_BLOCK
    deck = staticmethod(W.components_deck)
    warmup = [("components", 1, 3, 6), ("components", 2, -110, 6), ("components", 3, 1, 6)]

    def op(self, mods, spec):
        return W.run_cli_inprocess(mods["cli"], W.components_argv(spec)) + (None, None)

    def check(self, spec, rc, out):
        return oracle.check_components(rc, out, *spec[1:])


class ApiQueries:
    name = "api_queries"
    in_process = True
    round_ops = W.API_BLOCKS * len(W.API_MIX)  # the whole deck
    deck = staticmethod(W.api_deck)
    warmup = [("dossier", 1, 3, 1), ("oriented", 1, 3, 1, 115), ("unoriented", 5, 1, 5, 3),
              ("homeomorphic", 2, 2, 3, 1), ("certify", 3, 1, 337), ("family", 3, 1, 4), ("theta7", 5, 27)]

    def op(self, mods, spec):
        return None, W.run_api(mods["spherectl"], spec), None, None

    def check(self, spec, rc, value):
        return oracle.check_api(spec, value)


class CliCold:
    name = "cli_cold"
    in_process = False
    round_ops = len(W.CLI_MIX)
    deck = staticmethod(W.cli_deck)
    warmup = [("dossier", 1, 3, 1), ("oriented", 1, 3, 1, 115)]

    def __init__(self) -> None:
        self.env = W.child_env(ROOT)

    def op(self, mods, spec):
        rc, out, _, cpu, rss = W.run_child([sys.executable, "-m", "spherectl.cli", *W.cli_query_argv(spec)],
                                          self.env, ROOT)
        return rc, out, cpu, rss

    def traced_op(self, spec):
        """The same query in a child that wraps the layers first (child.py)."""
        argv = [sys.executable, os.path.join(HERE, "child.py"), *W.cli_query_argv(spec)]
        rc, out, _, _, _ = W.run_child(argv, self.env, ROOT)
        if rc != 0:
            raise RuntimeError(f"traced child exited {rc}")
        return json.loads(out)

    def check(self, spec, rc, out):
        return oracle.check_cli(spec, rc, out)


WORKLOADS = {w.name: w for w in (CensusSweep, ComponentsFamily, ApiQueries, CliCold)}


# -- measuring ------------------------------------------------------------------

def _kernel() -> int:
    """Fixed pure-Python work that allocates the way spherectl does (tuples,
    strings, ints, a dict of lists, a sort) and faults in fresh memory."""
    items = [(i * 7919 % 10007, str(i), i * i) for i in range(3000)]
    groups: dict[int, list[int]] = {}
    for a, _, b in items:
        groups.setdefault(a % 997, []).append(b // (a + 1))
    items.sort()
    return len(groups) + len(bytearray(1 << 21))


def calibrate() -> tuple[float, float]:
    """Median wall and CPU seconds of three runs of _kernel, which shares
    no code with spherectl: a reading of how fast this core is right now."""
    walls, cpus = [], []
    for _ in range(3):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _kernel()
        cpus.append(time.process_time() - cpu0)
        walls.append(time.perf_counter() - wall0)
    return statistics.median(walls), statistics.median(cpus)


class Tally:
    """Outcome counts and normalized timing of one pass.

    The ops run between two calibration readings form an interval.  Their
    raw times wait until CAL_WINDOW readings after the interval are in; they
    are then scaled by REF_KERNEL_S over the median of the readings from
    CAL_WINDOW before to CAL_WINDOW after it, because a single reading of a
    few-millisecond kernel is itself noisy.  Sums are also kept per round of
    `round_ops` consecutive ops (whole deck blocks).  Latencies go to a
    fixed-size uniform reservoir, so the harness's own memory does not grow
    with the number of ops a run completes (which would leak throughput
    into peak_rss_mb).
    """

    RESERVOIR = 1 << 16
    CAL_WINDOW = 2

    def __init__(self, round_ops: int = 1) -> None:
        self.round_ops = round_ops
        self.rounds: list[tuple[int, int, float, float]] = []  # (ops, successful, wall s, cpu s)
        self.partial_round = [0, 0, 0.0, 0.0]
        self.n = 0
        self.wall_sum = 0.0
        self.speeds: list[float] = []
        self.reference_s = 0.0  # wall time of the pass so far, normalized
        self.latencies = array("d")
        self._rng = random.Random(0)
        self._pending = self._interval()
        self._cals: list[tuple[float, float]] = []  # (wall s, cpu s) of each reading
        self._intervals: list[tuple[array, array, bytearray] | None] = []  # ops after reading i
        self._settled = 0  # intervals settled so far
        self.child_rss_kib = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, wall: float, cpu: float, problem: str | None, wrong: bool) -> None:
        walls, cpus, oks = self._pending
        walls.append(wall)
        cpus.append(cpu)
        oks.append(problem is None)
        if problem is not None:
            self.failed += 1
            self.wrong += wrong
            if len(self.problems) < 5:
                self.problems.append(problem)

    def calibrate(self, cal: tuple[float, float], interval_s: float = 0.0, final: bool = False) -> None:
        """Take a calibration reading and settle every interval whose window
        of readings is complete (all of them when `final`); `interval_s` of
        wall time since the last reading adds to reference_s."""
        last = self._cals[-1] if self._cals else cal
        self.reference_s += interval_s * REF_KERNEL_S / ((last[0] + cal[0]) / 2)
        self.speeds.append(REF_KERNEL_S / cal[0])
        if self._cals:
            self._intervals.append(self._pending)
            self._pending = self._interval()
        self._cals.append(cal)
        h = self.CAL_WINDOW
        while self._settled < len(self._intervals) and (final or self._settled + h < len(self._cals)):
            j = self._settled
            window = self._cals[max(0, j + 1 - h): j + 1 + h]
            wall_scale = REF_KERNEL_S / statistics.median(w for w, _ in window)
            cpu_scale = REF_KERNEL_S / statistics.median(c for _, c in window)
            for wall, cpu, ok in zip(*self._intervals[j]):
                self._settle(wall * wall_scale, cpu * cpu_scale, bool(ok))
            self._intervals[j] = None
            self._settled += 1

    @staticmethod
    def _interval() -> tuple[array, array, bytearray]:
        """Raw wall times, CPU times and success flags of ops awaiting their
        scale, packed so that the harness's memory stays small when the ops
        are microseconds long."""
        return array("d"), array("d"), bytearray()

    def _settle(self, wall: float, cpu: float, ok: bool) -> None:
        self.n += 1
        self.wall_sum += wall
        current = self.partial_round
        current[0] += 1
        current[1] += ok
        current[2] += wall
        current[3] += cpu
        if current[0] == self.round_ops:
            self.rounds.append(tuple(current))
            self.partial_round = [0, 0, 0.0, 0.0]
        if len(self.latencies) < self.RESERVOIR:
            self.latencies.append(wall)
        else:
            slot = self._rng.randrange(self.n)
            if slot < self.RESERVOIR:
                self.latencies[slot] = wall


def run_op(wl, mods, spec, tally: Tally, op=None) -> None:
    """Run, time and check one operation (with `op` in place of wl.op if given)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        rc, out, child_cpu, child_rss = (op or wl.op)(mods, spec)
        error = None
    except Exception as exc:  # the program raised: a failed op, never a crash of the harness
        error = f"{type(exc).__name__}: {str(exc)[:160]}"
    cpu1, wall1 = time.process_time(), time.perf_counter()
    if error is not None:
        tally.record(wall1 - wall0, cpu1 - cpu0, f"{spec[0]} raised {error}", wrong=False)
        return
    if child_rss is not None:
        tally.child_rss_kib = max(tally.child_rss_kib, child_rss)
    with oracle.unlimited_int_digits():
        try:
            problem = wl.check(spec, rc, out)
        except (ValueError, KeyError, TypeError, AttributeError, StopIteration) as exc:
            problem = f"{spec[0]} output unreadable: {type(exc).__name__}: {exc}"[:300]
    # output that is present but disagrees is a wrong answer; a rejection
    # (unexpected exit code with nothing on stdout) is a failure only
    produced = out not in ("", None)
    tally.record(wall1 - wall0, child_cpu if child_cpu is not None else cpu1 - cpu0, problem, wrong=produced)


def run_ops(wl, mods, specs, tally: Tally, op=None, stop=None) -> Tally:
    """Run specs in order, calibrating every CALIBRATE_EVERY_S and at both
    ends; stop(ops done, reference seconds elapsed) may end the pass early."""
    tally.calibrate(calibrate())
    last = time.perf_counter()
    for i, spec in enumerate(specs, 1):
        run_op(wl, mods, spec, tally, op)
        now = time.perf_counter()
        if now - last >= CALIBRATE_EVERY_S:
            tally.calibrate(calibrate(), now - last)
            last = time.perf_counter()
            now = last
        if stop is not None and stop(i, tally.reference_s + (now - last) * tally.speeds[-1]):
            break
    tally.calibrate(calibrate(), final=True)
    return tally


def measure(wl, mods, deck, seconds: float, min_ops: int) -> Tally:
    """Run deck ops in order until `seconds` of reference-core time (see
    REF_KERNEL_S) and `min_ops` have passed, then to the end of the current
    round.  Every run thus covers the same whole blocks of the deck however
    fast the core happens to be."""
    start = time.perf_counter()

    def stop(i: int, reference_s: float) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= min(MAX_WALL_S, SLOW_CORE_LIMIT * seconds):
            return True
        return reference_s >= seconds and i >= min_ops and i % wl.round_ops == 0

    return run_ops(wl, mods, itertools.cycle(deck), Tally(wl.round_ops), stop=stop)


def set_up(wl, seed: int, repeats: int):
    """Import, generate inputs and warm up, `repeats` times; returns the
    median normalized set-up time, the modules and the deck of the last
    repetition."""
    times = []
    for _ in range(repeats):
        before = calibrate()
        t0 = time.perf_counter()
        mods = W.load_program(ROOT) if wl.in_process else None
        deck = wl.deck(seed)
        warm = Tally()
        for spec in wl.warmup:
            run_op(wl, mods, spec, warm)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * REF_KERNEL_S / ((before[0] + calibrate()[0]) / 2))
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.problems[0]}")
    return statistics.median(times), mods, deck


def percentile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of all
    order statistics with Beta(p(n+1), (1-p)(n+1)) weights (taken at each
    sample's midpoint, then normalized).  Unlike a single order statistic it
    does not hinge on the one or two samples nearest the percentile, which
    matters where ops are long and a run holds only about a hundred."""
    xs = sorted(values)
    n, p = len(xs), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(wl, tally: Tally, setup_s: float) -> dict:
    # medians over rounds of whole blocks shrug off bursts of machine noise
    rounds = tally.rounds or [tuple(tally.partial_round)]
    if wl.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = tally.child_rss_kib
    return {
        "throughput_ops_s": statistics.median(ok / wall for _, ok, wall, _ in rounds),
        "latency_p50_ms": percentile(tally.latencies, 50) * 1e3,
        "latency_p90_ms": percentile(tally.latencies, 90) * 1e3,
        "cpu_ms_per_op": statistics.median(cpu / n for n, _, _, cpu in rounds) * 1e3,
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": setup_s,
        "error_rate": tally.failed / tally.n,
    }


def fresh_interpreter_ms(env: dict) -> tuple[float, float]:
    """Medians over 5 children: import of spherectl.cli (timed inside a fresh
    interpreter) and the wall time of a bare `python -c pass`."""
    code = "import time; t = time.perf_counter(); import spherectl.cli; print(time.perf_counter() - t)"
    imports, bare = [], []
    for _ in range(5):
        rc, out, _, _, _ = W.run_child([sys.executable, "-c", code], env, ROOT)
        if rc != 0:
            raise RuntimeError("fresh interpreter could not import spherectl.cli")
        imports.append(float(out) * 1e3)
        bare.append(W.run_child([sys.executable, "-c", "pass"], env, ROOT)[2] * 1e3)
    return statistics.median(imports), statistics.median(bare)


def bigk_rejected_ratio(mods, seed: int) -> float:
    """Share of W.bigk_probes, valid queries with k above the timed big-k
    tail, that the program rejects or answers wrongly, under CPython's
    default int-to-string limit.  Untimed; it keeps ROADMAP item 2 visible."""
    S = (mods or W.load_program(ROOT))["spherectl"]
    probes = W.bigk_probes(seed)
    rejected = 0
    for spec in probes:
        try:
            value = W.run_api(S, spec)
        except ValueError:
            rejected += 1
            continue
        with oracle.unlimited_int_digits():
            rejected += oracle.check_api(spec, value) is not None
    return rejected / len(probes)


def traced(wl, mods, deck, seconds: float, seed: int) -> tuple[Tally, dict, str]:
    """Untraced reference pass, span-traced pass and allocation pass over the
    same operations; returns the traced pass's tally, the per-layer metrics
    and the path the spans were written to."""
    reference = measure(wl, mods, deck, seconds * TRACE_SHARE, TRACE_MIN_OPS)
    ops = [deck[i % len(deck)] for i in range(reference.n)]
    tracer = layers.LayerTracer()
    tally = Tally()
    if wl.in_process:
        def traced_op(mods_, spec):
            out = None
            try:
                result = wl.op(mods_, spec)
                out = result[1]
                return result
            finally:
                tracer.end_op(len(out.encode()) if isinstance(out, str) else 0, oracle.same_manifold)

        tracer.install(mods)
        try:
            run_ops(wl, mods, ops, tally, op=traced_op)
        finally:
            tracer.uninstall()
        alloc = layers.AllocPeaks()
        alloc.install(mods)
        try:
            run_ops(wl, mods, ops, Tally())
        finally:
            alloc.uninstall()
        peaks = alloc.peaks
    else:
        def traced_op(_mods, spec):
            envelope = wl.traced_op(spec)
            tracer.merge(envelope["summary"], envelope["spans"])
            return envelope["rc"], envelope["stdout"], None, None

        run_ops(wl, mods, ops, tally, op=traced_op)
        peaks = {}
    import_ms, interpreter_ms = fresh_interpreter_ms(W.child_env(ROOT))
    extra = {
        "cli.import_ms": import_ms,
        "cli.interpreter_ms": interpreter_ms,
        "exactnum.bigk_rejected_ratio": bigk_rejected_ratio(mods, seed),
        "trace.overhead_ratio": tally.wall_sum / reference.wall_sum,
    }
    metrics = layers.layer_metrics(tracer.summary(), peaks, extra)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.jsonl")
    tracer.write_spans(path)
    return tally, metrics, path


# -- reproducibility record -------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    h = sha256()
    src = os.path.join(ROOT, "src", "spherectl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(wl, seed: int, deck: list, trace: int) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "inputs_digest": W.deck_digest(deck),
        "deck_size": len(deck),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu_model": cpu_model(),
    }


# -- main ---------------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the
    calibration readings describe."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    try:
        wl = WORKLOADS[args.workload]()
        setup_s, mods, deck = set_up(wl, args.seed, SETUP_REPEATS if args.trace == 0 else 1)
        if args.trace == 0:
            tally = measure(wl, mods, deck, args.seconds, MIN_OPS)
            values = end_to_end(wl, tally, setup_s)
            names, units = RESULT_E2E, E2E_UNITS
        else:
            tally, values, spans_path = traced(wl, mods, deck, args.seconds, args.seed)
            print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
            names = [name for name, _, _ in layers.PER_LAYER]
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
    except Exception:  # the program is missing or broken: report, print no result
        traceback.print_exc()
        return 1

    for line in report(wl, args.seed, deck, args.trace, tally, values, names, units):
        print(line)
    return 0


def report(wl, seed: int, deck: list, trace: int, tally: Tally, values: dict, names: list, units: dict) -> list[str]:
    """The report lines, each starting with "#", then the result line."""
    info = record(wl, seed, deck, trace)
    info["samples"] = tally.n
    info["latency_reservoir"] = len(tally.latencies)
    # REF_KERNEL_S over the measured kernel time: above 1 the core ran faster
    # than the reference, and raw times were scaled up by this factor
    info["core_speed_median"] = statistics.median(tally.speeds) if tally.speeds else None
    lines = [f"# spherectl benchmark  workload={wl.name} seed={seed} trace={trace}",
             "# record " + json.dumps(info, sort_keys=True)]
    for name in (E2E_UNITS if trace == 0 else names):
        lines.append(f"#   {name:<48} {values[name]:>14.6g} {units[name]:<8} (n={tally.n})")
    lines.append(f"#   error_rate counts {tally.failed} failed of {tally.n} attempted, "
                 f"{tally.wrong} of them wrong answers")
    lines += [f"#   failure: {problem}" for problem in tally.problems]
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.n,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    return lines + [json.dumps(result)]


if __name__ == "__main__":
    sys.exit(main())
