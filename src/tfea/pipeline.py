"""Per-document analysis pipeline and corpus-level aggregation.

Documents are independent, so the corpus can be analyzed by a worker
pool; results are merged in doc-id order, which makes the output
identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .config import AnalysisConfig
from .errors import ErrorProfile, map_errors
from .exceptions import ComplexityGuardExceeded
from .matching import MatchIndex, TemplateMatching, find_optimal_matching, greedy_matching
from .model import Document, Schema, resolve_document_spans
from .scoring import Scores, score_corpus, score_document
from .transforms import TransformationLog, derive_transformations


@dataclass
class DocumentAnalysis:
    doc_id: str
    skipped: bool = False
    guard_message: str | None = None
    approximate: bool = False
    matching: TemplateMatching | None = None
    log: TransformationLog | None = None
    profile: ErrorProfile | None = None

    @property
    def scores(self) -> Scores | None:
        return None if self.matching is None else score_document(self.matching)


def analyze_document(
    doc: Document,
    schema: Schema,
    config: AnalysisConfig | None = None,
    derive: bool = True,
) -> DocumentAnalysis:
    """Resolve spans, match, derive transformations, and map errors for one document.

    ``derive=False`` stops after matching, for score-only runs.
    """
    config = config or AnalysisConfig()
    doc = resolve_document_spans(doc, config.casefold)
    index = MatchIndex.for_document(doc, schema, config)
    try:
        matching = find_optimal_matching(doc, schema, config, index)
    except ComplexityGuardExceeded as exc:
        if config.on_guard == "fail":
            raise
        if config.on_guard == "skip":
            return DocumentAnalysis(doc.doc_id, skipped=True, guard_message=str(exc))
        matching = greedy_matching(doc, schema, config, index)
    analysis = DocumentAnalysis(
        doc.doc_id, approximate=matching.approximate, matching=matching
    )
    if derive:
        analysis.log = derive_transformations(doc, schema, matching, config, index)
        analysis.profile = map_errors(analysis.log)
    return analysis


def _worker(task) -> DocumentAnalysis:
    doc, schema, config, derive = task
    return analyze_document(doc, schema, config, derive)


@dataclass
class CorpusAnalysis:
    schema: Schema
    documents: list[DocumentAnalysis] = field(default_factory=list)

    @property
    def analyzed(self) -> list[DocumentAnalysis]:
        return [d for d in self.documents if not d.skipped]

    @property
    def skipped(self) -> list[DocumentAnalysis]:
        return [d for d in self.documents if d.skipped]

    @property
    def profile(self) -> ErrorProfile:
        total = ErrorProfile.empty()
        for doc in self.analyzed:
            if doc.profile is not None:
                total = total + doc.profile
        return total

    @property
    def scores(self) -> Scores:
        return score_corpus(d.matching.role_tallies for d in self.analyzed)


def analyze_corpus(
    documents: Sequence[Document],
    schema: Schema,
    config: AnalysisConfig | None = None,
    parallel: int = 1,
    derive: bool = True,
) -> CorpusAnalysis:
    """Analyze every document, optionally with a process pool."""
    config = config or AnalysisConfig()
    ordered = sorted(documents, key=lambda d: d.doc_id)
    tasks = [(doc, schema, config, derive) for doc in ordered]
    if parallel > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [_worker(task) for task in tasks]
    return CorpusAnalysis(schema=schema, documents=results)
