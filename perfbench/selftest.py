"""Self-test of the benchmark: every workload at a tiny size, plus the oracle.

    python3 perfbench/selftest.py

Checks that an untraced and a traced run of each workload print every
end-to-end and per-layer metric by name with its unit, that BENCHMARK.json
lists the same metrics, that the timed decks keep k below the big-k probes
that the program rejects, and that the oracle rejects deliberately corrupted
outputs (a mu off by 1/28, a wrong p1^2, a flipped verdict) so that they are
counted as wrong answers.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def tiny_deck(name: str, deck: list) -> list:
    """A few of the deck's smallest operations."""
    small = {
        "census_sweep": lambda s: s[3] - s[2] < 3000,
        "components_family": lambda s: s[3] <= 30,
        "api_queries": lambda s: True,
        "cli_cold": lambda s: True,
    }[name]
    return [spec for spec in deck if small(spec)][: 40 if name == "api_queries" else 4]


def check_report(lines: list[str], names: list[str], units: dict) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1, result
    assert list(result["metrics"]) == names, list(result["metrics"])
    for name in names:
        assert result["metrics"][name]["unit"] == units[name], name
        assert any(line.split()[1:2] == [name] and units[name] in line.split() for line in lines[:-1]), name


def run_tiny(name: str, trace: int) -> None:
    wl = run.WORKLOADS[name]()
    _, mods, deck = run.set_up(wl, seed=7, repeats=1)
    deck = tiny_deck(name, deck)
    if trace:
        saved = run.TRACE_MIN_OPS
        run.TRACE_MIN_OPS = len(deck)
        try:
            tally, values, _ = run.traced(wl, mods, deck, 2.0, seed=7)
        finally:
            run.TRACE_MIN_OPS = saved
        names = [n for n, _, _ in layers.PER_LAYER]
        units = {n: u for n, u, _ in layers.PER_LAYER}
    else:
        tally = run.measure(wl, mods, deck, 0.5, len(deck))
        values = run.end_to_end(wl, tally, setup_s=0.01)
        names, units = run.RESULT_E2E, run.E2E_UNITS
    lines = run.report(wl, 7, deck, trace, tally, values, names, units)
    check_report(lines, names, units)
    if not trace:
        for name_ in run.E2E_UNITS:  # error_rate too, in the human-readable lines
            assert any(line.split()[1:2] == [name_] for line in lines), name_
    print(f"ok  {name} trace={trace}: {tally.n} ops, {len(names)} metrics")


def check_benchmark_json() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == run.RESULT_E2E
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    print("ok  BENCHMARK.json matches the metrics the harness prints")


def check_bigk_split() -> None:
    """Timed decks keep k below the rejected range; the probes lie inside it."""
    def digits(spec):
        return max(len(str(abs(x))) for x in spec[1:] if isinstance(x, int))

    for seed in (1, 2, 3):
        for deck in (W.api_deck(seed), W.cli_deck(seed)):
            assert max(map(digits, deck)) <= W.BIG_DIGITS[1] + 2, seed
        assert min(map(digits, W.bigk_probes(seed))) >= W.REJECTED_DIGITS[0], seed
    print("ok  timed decks stay below the big-k probes")


class Corrupting:
    """A workload whose op output is corrupted by `mutate` before checking."""

    def __init__(self, inner, mutate) -> None:
        self.inner, self.mutate = inner, mutate
        self.name, self.in_process = inner.name, inner.in_process

    def op(self, mods, spec):
        rc, out, cpu, rss = self.inner.op(mods, spec)
        return rc, self.mutate(out), cpu, rss

    def check(self, spec, rc, out):
        return self.inner.check(spec, rc, out)


def shift_mu(out: str) -> str:
    """Move the first class's mu by 1/28 in a census JSON report."""
    payload = json.loads(out)
    cls = payload["classes"][0]
    q = oracle.mod1(Fraction(cls["mu"]) + Fraction(1, 28))
    cls["mu"] = oracle.frac_str(q)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_oracle_catches_corruption() -> None:
    spec = ("census", 1, 1, 223, False, "json")
    want = oracle.census(1, 1, 223, False)
    out = json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert oracle.check_census(0, out, *spec[1:]) is None
    assert oracle.check_census(0, shift_mu(out), *spec[1:]) is not None, "mu off by 1/28 not caught"
    tsv = oracle.census_tsv(1, 1, 223, True).replace("\t1/28\n", "\t2/28\n", 1)
    assert oracle.check_census(0, tsv, 1, 1, 223, True, "tsv") is not None

    cert = {"n": 1, "k0": 1, "k1": 113, "metric_labels": ["GZ(1)", "GZ(113)"], "sign_X": 0,
            "p1sq_X": "-51072/1", "ahat": "forced-zero", "verdict": "DistinctComponents",
            "curvature_classes": ["sec>=0", "Ric>0", "scal>0"]}
    assert oracle.check_certificate(cert, 1, 1, 113) is None
    assert oracle.check_certificate(dict(cert, p1sq_X="-51071/1"), 1, 1, 113) is not None
    assert oracle.check_certificate(dict(cert, verdict="Inconclusive"), 1, 1, 113) is not None
    assert oracle.check_api(("oriented", 1, 3, 1, 115), {"answer": "Yes", "reason": "MuInvariantEqual"}) is None
    assert oracle.check_api(("oriented", 1, 3, 1, 117), {"answer": "Yes", "reason": "MuInvariantEqual"})
    assert oracle.check_api(("dossier", 1, 3, 1), dict(oracle.dossier(1, 3, 1), mu="2/28")) is not None

    # through the harness: a corrupted census output is a wrong answer
    inner = run.CensusSweep()
    _, mods, _ = run.set_up(inner, seed=7, repeats=1)
    tally = run.Tally()
    with contextlib.redirect_stdout(io.StringIO()):
        run.run_op(Corrupting(inner, shift_mu), mods, spec, tally)
    assert (tally.failed, tally.wrong) == (1, 1), (tally.failed, tally.wrong, tally.problems)
    print("ok  oracle rejects corrupted outputs and the harness counts them as wrong")


def main() -> int:
    check_benchmark_json()
    check_bigk_split()
    check_oracle_catches_corruption()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            run_tiny(name, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
