"""Per-layer tracing of spherectl from the outside, for the traced run only.

`LayerTracer.install` replaces the public functions and constructors of each
spherectl module with timing wrappers, in every spherectl namespace that
holds them, and `uninstall` puts the originals back; no file of the program
changes.  Each wrapper records a span (id, name, start, end, parent id, op
id).  Self time is computed as the span's duration minus the durations of
its direct child spans.  Counts and times are aggregated exactly for every
call; the raw spans are kept in memory only up to SPAN_CAP (census makes
millions of constructor calls) and written out when the run ends.

Only the layer boundaries are wrapped, so time spent in unwrapped code, such
as Rational arithmetic dunders, counts towards the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

SPAN_CAP = 50_000

# (module, attribute or Class.method, span name, layer).  Constructors are
# wrapped at __init__, which covers field assignment and canonicalization.
WRAPPED = [
    ("exactnum", "Rational.__init__", "exactnum.Rational", "exactnum"),
    ("exactnum", "QmodZ.__init__", "exactnum.QmodZ", "exactnum"),
    ("exactnum", "Residue.__init__", "exactnum.Residue", "exactnum"),
    ("exactnum", "qmodz_add", "exactnum.qmodz_add", "exactnum"),
    ("exactnum", "qmodz_neg", "exactnum.qmodz_neg", "exactnum"),
    ("bundle", "BundleClass.__init__", "bundle.BundleClass", "bundle"),
    ("bundle", "make_bundle", "bundle.make_bundle", "bundle"),
    ("bundle", "reverse_bundle_orientation", "bundle.reverse_bundle_orientation", "bundle"),
    ("bundle", "from_milnor_params", "bundle.from_milnor_params", "bundle"),
    ("space", "cohomology", "space.cohomology", "space"),
    ("space", "is_homotopy_sphere", "space.is_homotopy_sphere", "space"),
    ("space", "p1_squared_W", "space.p1_squared_W", "space"),
    ("space", "mu_invariant", "space.mu_invariant", "space"),
    ("space", "fold_orientation", "space.fold_orientation", "space"),
    ("space", "realized_mu_set", "space.realized_mu_set", "space"),
    ("space", "realized_mu_set_unoriented", "space.realized_mu_set_unoriented", "space"),
    ("space", "dossier", "space.dossier", "space"),
    ("classify", "homeomorphic", "classify.homeomorphic", "classify"),
    ("classify", "oriented_diffeomorphic", "classify.oriented_diffeomorphic", "classify"),
    ("classify", "unoriented_diffeomorphic", "classify.unoriented_diffeomorphic", "classify"),
    ("classify", "gz_family", "classify.gz_family", "classify"),
    ("classify", "theta7_add", "classify.theta7_add", "classify"),
    ("classify", "theta7_neg", "classify.theta7_neg", "classify"),
    ("classify", "census", "classify.census", "classify"),
    ("moduli", "index_forms_dim8", "moduli.index_forms_dim8", "moduli"),
    ("moduli", "deduce_p1sq_zero", "moduli.deduce_p1sq_zero", "moduli"),
    ("moduli", "separation_certificate", "moduli.separation_certificate", "moduli"),
    ("moduli", "infinite_components_report", "moduli.infinite_components_report", "moduli"),
    ("cli", "main", "cli.main", "cli"),
    ("cli", "_emit_json", "cli._emit_json", "render"),
    ("bundle", "BundleClass.to_dict", "render.BundleClass.to_dict", "render"),
    ("space", "SpaceDossier.to_dict", "render.SpaceDossier.to_dict", "render"),
    ("classify", "DiffeoVerdict.to_dict", "render.DiffeoVerdict.to_dict", "render"),
    ("classify", "CensusReport.to_dict", "render.CensusReport.to_dict", "render"),
    ("classify", "CensusReport.to_tsv", "render.CensusReport.to_tsv", "render"),
    ("moduli", "SeparationCertificate.to_dict", "render.SeparationCertificate.to_dict", "render"),
    ("moduli", "ComponentsReport.to_dict", "render.ComponentsReport.to_dict", "render"),
]

DECIDERS = ("classify.homeomorphic", "classify.oriented_diffeomorphic", "classify.unoriented_diffeomorphic")

# name, unit, better; BENCHMARK.json lists the same metrics and METRICS.md
# says which end-to-end metric each one should move.
PER_LAYER = [
    ("exactnum.rational.count", "count/op", "lower"),
    ("exactnum.qmodz.count", "count/op", "lower"),
    ("exactnum.self_ms", "ms/op", "lower"),
    ("exactnum.bigk_rejected_ratio", "ratio", "lower"),
    ("bundle.bundleclass.count", "count/op", "lower"),
    ("bundle.self_ms", "ms/op", "lower"),
    ("space.mu_invariant.count", "count/op", "lower"),
    ("space.mu_invariant.self_ms", "ms/op", "lower"),
    ("space.p1_squared_W.count", "count/op", "lower"),
    ("space.p1_squared_W.self_ms", "ms/op", "lower"),
    ("space.p1_squared_W.distinct_ratio", "ratio", "higher"),
    ("space.dossier.count", "count/op", "lower"),
    ("space.dossier.self_ms", "ms/op", "lower"),
    ("space.fold_orientation.count", "count/op", "lower"),
    ("classify.census.total_ms", "ms/op", "lower"),
    ("classify.census.self_ms", "ms/op", "lower"),
    ("classify.census.peak_alloc_mb", "MB", "lower"),
    ("classify.census.k_visited_per_class", "ratio", "lower"),
    ("classify.decide.count", "count/op", "lower"),
    ("classify.decide.self_ms", "ms/op", "lower"),
    ("classify.decide.unknown_ratio", "ratio", "lower"),
    ("moduli.separation_certificate.count", "count/op", "lower"),
    ("moduli.separation_certificate.self_ms", "ms/op", "lower"),
    ("moduli.separation_certificate.total_ms", "ms/op", "lower"),
    ("moduli.deduce_p1sq_zero.count", "count/op", "lower"),
    ("moduli.infinite_components_report.self_ms", "ms/op", "lower"),
    ("moduli.infinite_components_report.peak_alloc_mb", "MB", "lower"),
    ("moduli.certificates_per_op", "count/op", "lower"),
    ("moduli.distinct_ratio", "ratio", "higher"),
    ("moduli.unconfirmed_same_manifold.count", "count/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("cli.render_ms", "ms/op", "lower"),
    ("cli.stdout_bytes", "B/op", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _resolve(owner: object, dotted: str) -> tuple[object, str]:
    """(object holding the attribute, attribute name) for "f" or "Class.method"."""
    if "." in dotted:
        cls, attr = dotted.split(".")
        return getattr(owner, cls), attr
    return owner, dotted


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set owner.attr; for a module-level function, also every alias that
        from-imports copied into other spherectl modules."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] == "spherectl":
                    targets += [(mod, key) for key, v in vars(mod).items()
                                if v is original and (mod, key) != (owner, attr)]
        for obj, key in targets:
            self._saved.append((obj, key, getattr(obj, key)))
            setattr(obj, key, value)

    def restore(self) -> None:
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()


class LayerTracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [start, time covered by children, id, is render]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op = 0
        self.render_s = 0.0
        self.counters = dict.fromkeys(
            ("unknown", "census_mu_n1", "census_classes_n1", "p1_distinct", "certificates",
             "distinct", "unconfirmed", "stdout_bytes"), 0)
        self._p1_inputs: set = set()
        self._distinct_pairs: list[tuple] = []
        self.patcher = Patcher()

    # -- installing wrappers ------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every WRAPPED target; `modules` maps short names to spherectl modules."""
        for mod_name, dotted, name, layer in WRAPPED:
            if mod_name in modules:
                owner, attr = _resolve(modules[mod_name], dotted)
                self.patcher.replace(owner, attr, self._wrap(name, layer, getattr(owner, attr)))

    def uninstall(self) -> None:
        self.patcher.restore()

    def _wrap(self, name: str, layer: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        render = layer == "render"
        after = {
            "space.p1_squared_W": lambda args, result: self._p1_inputs.add((args[0].euler, args[0].pont)),
            "moduli.separation_certificate": self._after_certificate,
            "moduli.infinite_components_report": self._after_report,
            **dict.fromkeys(DECIDERS, self._after_decide),
        }.get(name)
        census = name == "classify.census"
        mu_stat = self.stats.setdefault("space.mu_invariant", [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, 0.0, self.next_id, render]
            self.next_id += 1
            mu_before = mu_stat[0] if census else 0
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if render and (parent is None or not parent[3]):
                    self.render_s += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], name, start, end, parent[2] if parent else None, self.op))
            if after is not None:
                after(args, result)
            if census and args[0] == 1:
                self.counters["census_mu_n1"] += mu_stat[0] - mu_before
                self.counters["census_classes_n1"] += len(result.classes)
            return result

        return wrapper

    def _after_decide(self, args, result) -> None:
        if result.answer == "Unknown":
            self.counters["unknown"] += 1

    def _after_certificate(self, args, result) -> None:
        if result.verdict == "DistinctComponents":
            b0, b1 = result.pair
            self._distinct_pairs.append((b0.euler, b0.pont, b1.pont))

    def _after_report(self, args, result) -> None:
        self.counters["certificates"] += len(result.certificates)
        self.counters["distinct"] += sum(c.verdict == "DistinctComponents" for c in result.certificates)

    # -- per-op bookkeeping (outside every span) ------------------------------

    def end_op(self, stdout_bytes: int, same_manifold) -> None:
        """Close the op: count distinct p1^2 inputs and, with the oracle's
        `same_manifold(n, k0, k1)`, DistinctComponents issued across manifolds."""
        self.counters["p1_distinct"] += len(self._p1_inputs)
        self._p1_inputs.clear()
        self.counters["unconfirmed"] += sum(not same_manifold(*p) for p in self._distinct_pairs)
        self._distinct_pairs.clear()
        self.counters["stdout_bytes"] += stdout_bytes
        self.op += 1

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Everything needed to compute metrics, as JSON-serialisable data."""
        return {"stats": self.stats, "counters": self.counters, "render_s": self.render_s, "ops": self.op}

    def merge(self, summary: dict, spans: list) -> None:
        """Add a child process's summary and spans (re-keyed to this op)."""
        for name, (calls, total, own) in summary["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for key, value in summary["counters"].items():
            self.counters[key] += value
        self.render_s += summary["render_s"]
        base = self.next_id
        for sid, name, start, end, parent, _ in spans[: max(0, SPAN_CAP - len(self.spans))]:
            self.spans.append((base + sid, name, start, end, None if parent is None else base + parent, self.op))
        self.next_id = base + max((s[0] for s in spans), default=-1) + 1
        self.op += summary["ops"]

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(summary: dict, alloc: dict, extra: dict) -> dict:
    """Per-layer metric values (see PER_LAYER) from a traced pass's summary,
    the allocation pass's peaks, and the harness-measured `extra` values."""
    stats, counters, ops = summary["stats"], summary["counters"], max(1, summary["ops"])

    def calls(*names: str) -> int:
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def own_ms(*names: str) -> float:
        return sum(stats.get(n, (0, 0, 0))[2] for n in names) * 1e3 / ops

    def in_layer(layer: str) -> list[str]:
        return [name for _, _, name, lay in WRAPPED if lay == layer]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decided = calls(*DECIDERS)
    values = {
        "exactnum.rational.count": calls("exactnum.Rational") / ops,
        "exactnum.qmodz.count": calls("exactnum.QmodZ") / ops,
        "exactnum.self_ms": own_ms(*in_layer("exactnum")),
        "bundle.bundleclass.count": calls("bundle.BundleClass") / ops,
        "bundle.self_ms": own_ms(*in_layer("bundle")),
        "space.mu_invariant.count": calls("space.mu_invariant") / ops,
        "space.mu_invariant.self_ms": own_ms("space.mu_invariant"),
        "space.p1_squared_W.count": calls("space.p1_squared_W") / ops,
        "space.p1_squared_W.self_ms": own_ms("space.p1_squared_W"),
        "space.p1_squared_W.distinct_ratio": ratio(counters["p1_distinct"], calls("space.p1_squared_W")),
        "space.dossier.count": calls("space.dossier") / ops,
        "space.dossier.self_ms": own_ms("space.dossier"),
        "space.fold_orientation.count": calls("space.fold_orientation") / ops,
        "classify.census.total_ms": stats.get("classify.census", (0, 0.0, 0))[1] * 1e3 / ops,
        "classify.census.self_ms": own_ms("classify.census"),
        "classify.census.peak_alloc_mb": alloc.get("classify.census", 0) / 2**20,
        "classify.census.k_visited_per_class": ratio(counters["census_mu_n1"], counters["census_classes_n1"]),
        "classify.decide.count": decided / ops,
        "classify.decide.self_ms": own_ms(*DECIDERS),
        "classify.decide.unknown_ratio": ratio(counters["unknown"], decided),
        "moduli.separation_certificate.count": calls("moduli.separation_certificate") / ops,
        "moduli.separation_certificate.self_ms": own_ms("moduli.separation_certificate"),
        "moduli.separation_certificate.total_ms":
            stats.get("moduli.separation_certificate", (0, 0.0, 0))[1] * 1e3 / ops,
        "moduli.deduce_p1sq_zero.count": calls("moduli.deduce_p1sq_zero") / ops,
        "moduli.infinite_components_report.self_ms": own_ms("moduli.infinite_components_report"),
        "moduli.infinite_components_report.peak_alloc_mb":
            alloc.get("moduli.infinite_components_report", 0) / 2**20,
        "moduli.certificates_per_op": counters["certificates"] / ops,
        "moduli.distinct_ratio": ratio(counters["distinct"], counters["certificates"]),
        "moduli.unconfirmed_same_manifold.count": counters["unconfirmed"] / ops,
        "cli.main.self_ms": own_ms("cli.main"),
        "cli.render_ms": summary["render_s"] * 1e3 / ops,
        "cli.stdout_bytes": counters["stdout_bytes"] / ops,
    }
    values.update(extra)
    return values


class AllocPeaks:
    """Wraps the two drivers with tracemalloc and keeps each one's largest
    peak of traced allocations, in bytes.  Used in a pass of its own, because
    tracemalloc slows every allocation."""

    TARGETS = (("classify", "census", "classify.census"),
               ("moduli", "infinite_components_report", "moduli.infinite_components_report"))

    def __init__(self) -> None:
        self.peaks = {name: 0 for _, _, name in self.TARGETS}
        self.patcher = Patcher()

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in self.TARGETS:
            self.patcher.replace(modules[mod_name], attr, self._wrap(name, getattr(modules[mod_name], attr)))

    def uninstall(self) -> None:
        self.patcher.restore()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper
