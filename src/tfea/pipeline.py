"""Per-document analysis pipeline and corpus-level aggregation.

Documents are independent, so ``analyze_each(..., parallel=N)`` splits
the corpus over at most ``N`` processes, the calling one included: no
more than there are documents, CPUs this process may run on, or
``MENTIONS_PER_PROCESS`` mentions (gold-entity and predicted) in the
corpus, and at least one. Below two processes' worth of mentions the run
is the serial one and starts no pool; the mentions are counted only when
the other limits allow two processes. With ``k`` processes the caller
analyzes the shortest doc-id prefix that holds ``mentions // k`` of the
mentions, but leaves at least one document per worker, while a pool of
``k - 1`` workers takes the rest. Each worker receives its share, the
schema, the settings and the per-document function once, when it starts
(inherited under the ``fork`` start method, pickled once per worker
under ``spawn`` and ``forkserver``), and is then sent batches of indices
into that share. Each process applies the per-document function to a
document's analysis right after making it, and only what that returns is
kept and, from a worker, sent back: the CLI passes
``reports.document_row``, so a plain report row of builtins crosses the
pipe, and ``analyze_corpus`` keeps the ``DocumentAnalysis`` records for
library callers. Results are merged in doc-id order, which makes the
output identical for any process count, and an error such as
``ComplexityGuardExceeded`` under ``on_guard="fail"`` reaches the caller
as it would from a serial run: the caller's share comes first, and if it
raises, the batches the pool has not started are cancelled.

The CLI runs with the cyclic garbage collector paused, and each worker
pauses it too (``_start_worker``): nothing here builds reference cycles,
so a collection only rescans the corpus and the results. With it on,
unpickling the pool's results in the parent took about three times as
long.

A pool's start-up (fork, pipes, imports) costs more than a second
process saves on test sets of MUC-4's size, so below the work limit the
run stays serial; README has the measurements behind the limit.
"""

from __future__ import annotations

import gc
import math
import os
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Sequence

from .config import DEBUG, AnalysisConfig, log
from .errors import ErrorProfile, map_errors
from .exceptions import ComplexityGuardExceeded
from .matching import MatchIndex, TemplateMatching, find_optimal_matching, greedy_matching
from .model import Document, Factory, GoldEntity, Schema, record, resolve_document_spans
from .scoring import Scores, score_corpus, score_document
from .transforms import TransformationLog, derive_transformations

# Mentions per process: two processes start from 40,000 (measured in README).
MENTIONS_PER_PROCESS = 20_000


@record
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


# The pool's share of the corpus, the settings and the per-document
# function, in this worker process; set once per worker by
# ``_start_worker``. The parent never writes it.
_worker_job: tuple[list[Document], Schema, AnalysisConfig, bool, Callable] | None = None


def _start_worker(
    documents: list[Document], schema: Schema, config: AnalysisConfig, derive: bool, per_document: Callable
) -> None:
    global _worker_job
    # As in the CLI process: no cycles to collect. Under fork the worker
    # inherits the paused collector; under spawn and forkserver it does not.
    gc.disable()
    _worker_job = (documents, schema, config, derive, per_document)


def _analyze_nth(i: int):
    documents, schema, config, derive, per_document = _worker_job
    return per_document(analyze_document(documents[i], schema, config, derive))


@record
class CorpusAnalysis:
    schema: Schema
    documents: list[DocumentAnalysis] = Factory(list)

    @property
    def analyzed(self) -> list[DocumentAnalysis]:
        return [d for d in self.documents if not d.skipped]

    @property
    def skipped(self) -> list[DocumentAnalysis]:
        return [d for d in self.documents if d.skipped]

    @property
    def profile(self) -> ErrorProfile:
        return sum((d.profile for d in self.analyzed if d.profile is not None), ErrorProfile.empty())

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
    """Analyze every document, in up to ``parallel`` processes counting this one."""
    return CorpusAnalysis(schema, analyze_each(documents, schema, config, _as_is, parallel, derive))


def _as_is(analysis: DocumentAnalysis) -> DocumentAnalysis:
    return analysis


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mention_count(doc: Document) -> int:
    """Every gold-entity mention and every predicted mention of ``doc``."""
    return sum(
        len(item.mentions) if isinstance(item, GoldEntity) else 1
        for template in doc.gold_templates + doc.predicted_templates
        for value in template.role_fillers.values() if not isinstance(value, str) for item in value
    )


def analyze_each(
    documents: Sequence[Document],
    schema: Schema,
    config: AnalysisConfig | None,
    per_document: Callable[[DocumentAnalysis], object],
    parallel: int = 1,
    derive: bool = True,
) -> list:
    """``per_document`` of each document's analysis, in doc-id order.

    ``per_document`` runs in the process that analyzed the document, and
    only what it returns is kept (and sent back from a pool worker). It
    must be a module-level function, so that it pickles by reference.
    The documents are split over at most ``parallel`` processes counting
    this one, one per document, per usable CPU and per ``MENTIONS_PER_PROCESS`` mentions.
    """
    config = config or AnalysisConfig()
    ordered = sorted(documents, key=lambda d: d.doc_id)
    workers = min(parallel, len(ordered), _usable_cpus())
    if workers > 1:
        counts = [_mention_count(doc) for doc in ordered]
        mentions = sum(counts)
        workers = max(1, min(workers, mentions // MENTIONS_PER_PROCESS))
        log(DEBUG, "%d documents, %d mentions: %d process(es)", len(ordered), mentions, workers)
    if workers < 2:
        return [per_document(analyze_document(doc, schema, config, derive)) for doc in ordered]
    # Imported here: a run that starts no pool skips loading multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    # This process analyzes the shortest doc-id prefix that holds its share
    # of the mentions, leaving each of the workers - 1 pool processes a document.
    own = min(bisect_left(list(accumulate(counts)), mentions // workers) + 1, len(ordered) - workers + 1)
    rest = ordered[own:]
    chunksize = math.ceil(len(rest) / (4 * (workers - 1)))
    pool = ProcessPoolExecutor(
        workers - 1, initializer=_start_worker, initargs=(rest, schema, config, derive, per_document)
    )
    try:
        pooled = pool.map(_analyze_nth, range(len(rest)), chunksize=chunksize)
        results = [per_document(analyze_document(doc, schema, config, derive)) for doc in ordered[:own]]
        results += pooled
    finally:
        # On an error, queued chunks are dropped rather than waited for.
        pool.shutdown(cancel_futures=True)
    return results
