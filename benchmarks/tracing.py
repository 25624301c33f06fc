"""Per-layer spans and call counts, recorded from outside the program.

`Tracer.install` replaces the listed public functions and methods of the
`animacy` modules with wrappers.  A function is replaced in every module
namespace that binds it (`mbl` imports `score` by name, the package
re-exports the loaders), so no call site is missed.  Span wrappers record
(name, start, end, parent); count wrappers only count, for methods called
too often for a span each.  Spans stay in memory and are written out as
JSON once the round ends.

A span's self time is its duration minus the part covered by its direct
children.  Calls are strictly nested on one thread, so children never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import gc
import json
import time

# (module, attribute path) -> span name
SPANS = {
    ("animacy.taxonomy", "load_taxonomy"): "taxonomy.load",
    ("animacy.corpus", "load_corpus"): "corpus.load",
    ("animacy.enrichment", "accumulate_counts"): "enrichment.accumulate_counts",
    ("animacy.enrichment", "enrich"): "enrichment.enrich",
    ("animacy.enrichment", "dump_statuses"): "enrichment.dump_statuses",
    ("animacy.enrichment", "load_enriched"): "enrichment.load_enriched",
    ("animacy.rules", "classify_np"): "rules.classify_np",
    ("animacy.wsd", "information_content"): "wsd.information_content",
    ("animacy.wsd", "document_weights"): "wsd.document_weights",
    ("animacy.mbl", "extract_features"): "mbl.extract_features",
    ("animacy.mbl", "InstanceStore.__init__"): "mbl.store_build",
    ("animacy.mbl", "knn_classify"): "mbl.knn_classify",
    ("animacy.mbl", "cross_validate"): "mbl.cross_validate",
    ("animacy.evaluation", "score"): "evaluation.score",
    ("animacy.resolution", "inject_errors"): "resolution.inject_errors",
    ("animacy.resolution", "run_harness"): "resolution.run_harness",
    ("animacy.resolution", "sweep"): "resolution.sweep",
    ("animacy.cli", "main"): "cli.main",
}
COUNTS = {
    ("animacy.taxonomy", "Taxonomy.ancestors"): "taxonomy.ancestors",
    ("animacy.enrichment", "EnrichedTaxonomy.resolve_animate"): "enrichment.resolve_animate",
    ("animacy.resolution", "candidate_set"): "resolution.candidate_set",
}
LOADER_SPANS = ("taxonomy.load", "corpus.load", "enrichment.load_enriched")

# Per-layer metric -> (kind, span or count names).  "total" sums span
# durations, "self" sums self times, "calls" counts spans or calls.
METRICS = {
    "taxonomy.load_s": ("total", ("taxonomy.load",)),
    "taxonomy.ancestors_calls": ("calls", ("taxonomy.ancestors",)),
    "corpus.load_s": ("total", ("corpus.load",)),
    "runtime.import_s": ("import", ()),
    "enrichment.accumulate_counts_s": ("total", ("enrichment.accumulate_counts",)),
    "enrichment.enrich_self_s": ("self", ("enrichment.enrich",)),
    "enrichment.resolve_animate_calls": ("calls", ("enrichment.resolve_animate",)),
    "enrichment.statuses_io_s": (
        "total", ("enrichment.dump_statuses", "enrichment.load_enriched")),
    "rules.classify_np_s": ("self", ("rules.classify_np",)),
    "wsd.information_content_s": ("total", ("wsd.information_content",)),
    "wsd.document_weights_s": ("total", ("wsd.document_weights",)),
    "wsd.document_weights_calls": ("calls", ("wsd.document_weights",)),
    "mbl.extract_features_s": ("total", ("mbl.extract_features",)),
    "mbl.store_build_s": ("total", ("mbl.store_build",)),
    "mbl.knn_classify_s": ("total", ("mbl.knn_classify",)),
    "mbl.knn_classify_calls": ("calls", ("mbl.knn_classify",)),
    "mbl.cross_validate_self_s": ("self", ("mbl.cross_validate",)),
    "evaluation.score_s": ("total", ("evaluation.score",)),
    "resolution.inject_errors_s": ("total", ("resolution.inject_errors",)),
    "resolution.run_harness_s": ("self", ("resolution.run_harness",)),
    "resolution.run_harness_calls": ("calls", ("resolution.run_harness",)),
    "resolution.candidate_set_calls": ("calls", ("resolution.candidate_set",)),
    "resolution.sweep_self_s": ("self", ("resolution.sweep",)),
    "cli.self_s": ("self", ("cli.main",)),
    "runtime.gc_s": ("gc", ()),
}


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.import_s = 0.0
        self.gc_ns = 0
        self._gc_start = 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    def install(self, modules, import_s: float) -> None:
        """Wrap every listed callable wherever a module namespace binds it."""
        self.import_s = import_s
        by_name = {m.__name__: m for m in modules}
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for (module_name, path), name in table.items():
                owner, attr = _resolve(by_name[module_name], path)
                original = getattr(owner, attr)
                wrapped = make(name, original)
                if owner is by_name[module_name]:
                    # a module-level function: rebind it everywhere
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapped)
                else:
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _durations(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        calls: dict[str, int] = dict(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child_ns[i]
            calls[name] = calls.get(name, 0) + 1
        return total, own, calls

    def loader_seconds(self) -> float:
        """Time inside the public loaders, counting nested loader calls once."""
        ns = 0
        loaders = set(LOADER_SPANS)
        for name, start, end, parent in self.spans:
            if name in loaders and (parent < 0 or self.spans[parent][0] not in loaders):
                ns += end - start
        return ns / 1e9

    def layer_metrics(self) -> dict[str, float]:
        total, own, calls = self._durations()
        out: dict[str, float] = {}
        for metric, (kind, names) in METRICS.items():
            if kind == "import":
                out[metric] = self.import_s
            elif kind == "gc":
                out[metric] = self.gc_ns / 1e9
            elif kind == "calls":
                out[metric] = sum(calls.get(n, 0) for n in names)
            else:
                table = total if kind == "total" else own
                out[metric] = sum(table.get(n, 0) for n in names) / 1e9
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": self.spans,
                "counts": self.counts,
                "gc_ns": self.gc_ns,
            }, handle)
