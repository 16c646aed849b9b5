"""In-process traced pass: spans around the calls into each ``tfea`` module.

Spans are recorded from outside the package, around calls to its public
functions, so the program itself is unchanged. A pass runs the same steps
as ``tfea analyze`` (load, then per document resolve -> match or greedy ->
derive -> map, then score, build and render), followed by untraced
``analyze_corpus`` runs, serial and parallel, that give the pool speedup.
"""

from __future__ import annotations

import logging
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from tfea.config import AnalysisConfig
from tfea.corpus import load_corpus, load_schema
from tfea.errors import map_errors, total_errors
from tfea.exceptions import ComplexityGuardExceeded
from tfea.matching import count_template_matchings, find_optimal_matching, greedy_matching
from tfea.model import GoldEntity, resolve_document_spans
from tfea.pipeline import CorpusAnalysis, DocumentAnalysis, analyze_corpus
from tfea.reports import build_report, render_json
from tfea.scoring import score_corpus
from tfea.transforms import derive_transformations

MB = 1e6

# Span name -> per-layer metric reporting its summed self time.
SPAN_METRICS = {
    "corpus.load": "corpus.load_s",
    "model.resolve": "model.resolve_s",
    "matching.match": "matching.match_s",
    "matching.greedy": "matching.greedy_s",
    "transforms.derive": "transforms.derive_s",
    "errors.map": "errors.map_s",
    "scoring.score": "scoring.score_s",
    "reports.build": "reports.build_s",
    "reports.render": "reports.render_s",
    "pipeline.serial": "pipeline.serial_s",
    "pipeline.parallel": "pipeline.parallel_s",
}
COUNT_METRICS = (
    "model.mentions_searched",
    "model.mentions_unlocated",
    "matching.pairs_scored",
    "matching.template_matchings",
    "matching.guard_hits",
    "transforms.count",
    "errors.count",
)


class Tracer:
    """Nested spans kept in memory: name, start, end, parent and request id.

    ``overhead_s`` accumulates the tracer's own cost, the bookkeeping
    around every span plus the counting done under ``bookkeeping()``,
    measured directly: a difference between a traced and an untraced run
    would be swamped by the run-to-run spread of a shared machine.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str, request: str | None = None):
        entered = time.perf_counter()
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request if request is not None else (parent["request"] if parent else None),
            "start": None,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        self.overhead_s += record["start"] - entered
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.overhead_s += time.perf_counter() - record["end"]

    @contextmanager
    def bookkeeping(self):
        """Counting done by the benchmark inside a span, charged to overhead."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.overhead_s += time.perf_counter() - started

    def self_times(self, root_id: int) -> dict[str, float]:
        """Summed self time per span name for the spans under one root.

        Spans nest without overlapping siblings, so the covered part of a
        span is the sum of its children's durations.
        """
        covered: dict[int, float] = defaultdict(float)
        members = [s for s in self.spans if s["id"] >= root_id]
        for s in members:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in members:
            totals[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(totals)

    def durations(self, root_id: int, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["id"] >= root_id and s["name"] == name)

    def dump(self) -> list[dict]:
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in self.spans]


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _mentions(template) -> list:
    out = []
    for value in template.role_fillers.values():
        if isinstance(value, str):
            continue
        for item in value:
            out.extend(item.mentions if isinstance(item, GoldEntity) else (item,))
    return out


def _doc_mentions(doc) -> list:
    return [m for t in doc.gold_templates + doc.predicted_templates for m in _mentions(t)]


def _traced_document(tracer: Tracer, doc, schema, config: AnalysisConfig, counts: dict) -> DocumentAnalysis:
    """``pipeline.analyze_document`` step by step, one span per module call."""
    with tracer.span("pipeline.document", request=doc.doc_id):
        with tracer.bookkeeping():
            counts["model.mentions_searched"] += sum(m.span is None for m in _doc_mentions(doc))
        with tracer.span("model.resolve"):
            resolved = resolve_document_spans(doc, config.casefold)
        with tracer.bookkeeping():
            counts["model.mentions_unlocated"] += sum(m.span is None for m in _doc_mentions(resolved))
            pred_count, gold_count = len(doc.predicted_templates), len(doc.gold_templates)
            counts["matching.pairs_scored"] += pred_count * gold_count
        try:
            with tracer.span("matching.match"):
                matching = find_optimal_matching(resolved, schema, config)
            with tracer.bookkeeping():
                counts["matching.template_matchings"] += count_template_matchings(pred_count, gold_count)
        except ComplexityGuardExceeded as exc:
            counts["matching.guard_hits"] += 1
            if config.on_guard == "skip":
                return DocumentAnalysis(doc.doc_id, skipped=True, guard_message=str(exc))
            with tracer.span("matching.greedy"):
                matching = greedy_matching(resolved, schema, config)
        with tracer.span("transforms.derive"):
            log = derive_transformations(resolved, schema, matching, config)
        with tracer.span("errors.map"):
            profile = map_errors(log)
        counts["transforms.count"] += len(log)
        counts["errors.count"] += total_errors(profile)
        return DocumentAnalysis(
            doc.doc_id, approximate=matching.approximate, matching=matching, log=log, profile=profile
        )


def traced_pass(tracer: Tracer, paths: dict[str, Path], config: AnalysisConfig, workers: int):
    """Run one traced pass; return (report bytes, per-layer times, counts).

    ``attributed_s`` in the times is the in-process cost of an analyze run
    (load, per-document pipeline less tracing overhead, build, render); the
    rest of a CLI run's wall time is interpreter start-up, imports and
    writing the report.
    """
    counts: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
    warnings = _WarningCounter()
    tfea_log = logging.getLogger("tfea")
    with tracer.span("trace.pass") as root:
        tfea_log.addHandler(warnings)
        try:
            with tracer.span("corpus.load"):
                schema = load_schema(str(paths["schema"]))
                documents = load_corpus(str(paths["gold"]), str(paths["pred"]), schema, config.casefold)
        finally:
            tfea_log.removeHandler(warnings)
        counts["corpus.warnings"] = warnings.count
        counts["corpus.input_mb"] = sum(p.stat().st_size for p in paths.values()) / MB
        counts["corpus.mentions"] = sum(len(_doc_mentions(d)) for d in documents)

        overhead_before = tracer.overhead_s
        results = [_traced_document(tracer, doc, schema, config, counts)
                   for doc in sorted(documents, key=lambda d: d.doc_id)]
        pipeline_overhead_s = tracer.overhead_s - overhead_before
        pairs = counts["matching.pairs_scored"]
        chosen_pairs = sum(len(d.matching.pairs) for d in results if d.matching is not None)
        counts["matching.pair_yield"] = chosen_pairs / pairs if pairs else 0.0

        analysis = CorpusAnalysis(schema=schema, documents=results)
        with tracer.span("scoring.score"):
            score_corpus(d.matching.role_tallies for d in analysis.analyzed)
        with tracer.span("reports.build"):
            report = build_report(analysis, config, label=paths["pred"].stem, include_errors=True)
        with tracer.span("reports.render"):
            rendered = render_json(report).encode("utf-8")
        counts["reports.bytes"] = len(rendered)

        counts["pipeline.task_bytes"] = sum(len(pickle.dumps((d, schema, config, True))) for d in documents)
        with tracer.span("pipeline.serial"):
            analyze_corpus(documents, schema, config, parallel=1)
        with tracer.span("pipeline.parallel"):
            analyze_corpus(documents, schema, config, parallel=workers)

    times = tracer.self_times(root["id"])
    layer_times = {metric: times.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    layer_times["trace.overhead_s"] = pipeline_overhead_s
    layer_times["pipeline.speedup"] = layer_times["pipeline.serial_s"] / layer_times["pipeline.parallel_s"]
    # What `tfea analyze` does in-process, without the tracing overhead.
    untraced_pipeline_s = tracer.durations(root["id"], "pipeline.document") - pipeline_overhead_s
    layer_times["attributed_s"] = (
        layer_times["corpus.load_s"] + untraced_pipeline_s
        + layer_times["reports.build_s"] + layer_times["reports.render_s"]
    )
    return rendered, layer_times, counts
