"""Pipeline: guard handling, case modes, score-only runs, parallel merge."""

import logging
import multiprocessing
import os
import subprocess
import sys

import pytest

from tfea import pipeline
from tfea.config import AnalysisConfig
from tfea.errors import ErrorType, total_errors
from tfea.exceptions import ComplexityGuardExceeded
from tfea.inject import GenerationParams, InjectionSpec, default_schema, generate_corpus, inject_errors
from tfea.model import Document
from tfea.pipeline import analyze_corpus, analyze_document, analyze_each
from tfea.reports import document_row

from conftest import gold_template, pred_template, span_mention
from support import child_env, fuzzed_corpus, only_builtins, recording_pool, usable_cpus


@pytest.fixture
def small_corpus():
    schema = default_schema()
    gold = generate_corpus(
        GenerationParams(n_docs=4, templates_per_doc=(2, 2), mentions_per_entity=(2, 2)), seed=3
    )
    result = inject_errors(
        gold, schema, InjectionSpec(counts={ErrorType.SPAN_ERROR: 1}), seed=1
    )
    return result.documents, schema, result


class TestGuardModes:
    def test_fail_raises(self, small_corpus):
        documents, schema, _ = small_corpus
        config = AnalysisConfig(max_template_matchings=1, on_guard="fail")
        with pytest.raises(ComplexityGuardExceeded):
            analyze_document(documents[0], schema, config)

    def test_skip_excludes_from_aggregates(self, small_corpus):
        documents, schema, _ = small_corpus
        config = AnalysisConfig(max_template_matchings=1, on_guard="skip")
        analysis = analyze_corpus(documents, schema, config)
        assert len(analysis.skipped) == len(documents)
        assert analysis.scores.overall.precision_denominator == 0
        assert total_errors(analysis.profile) == 0
        assert all(d.guard_message for d in analysis.skipped)

    def test_greedy_fallback_still_analyzes(self, small_corpus):
        documents, schema, result = small_corpus
        config = AnalysisConfig(max_template_matchings=1, on_guard="greedy")
        analysis = analyze_corpus(documents, schema, config)
        assert not analysis.skipped
        assert all(d.approximate for d in analysis.documents)
        # the injected span errors are still found by the greedy matching
        assert analysis.profile.counts[ErrorType.SPAN_ERROR] == result.ledger.counts[ErrorType.SPAN_ERROR]


class TestCaseSensitivity:
    def _doc(self):
        return Document(
            "case",
            "Newcastle county",
            (gold_template(agent=[[span_mention("Newcastle", 0)]]),),
            (pred_template(agent=[span_mention("newcastle", 0)]),),
        )

    def test_default_folds_case(self, two_role_schema):
        analysis = analyze_document(self._doc(), two_role_schema, AnalysisConfig())
        assert analysis.matching.f1 == 1.0
        assert total_errors(analysis.profile) == 0

    def test_case_sensitive_mode_flags_span_error(self, two_role_schema):
        config = AnalysisConfig(case_sensitive=True)
        analysis = analyze_document(self._doc(), two_role_schema, config)
        # same offsets, different surface form: repaired by span alteration
        assert analysis.matching.f1 == 0.0
        assert analysis.profile.counts[ErrorType.SPAN_ERROR] == 1


class TestScoreOnly:
    def test_derive_false_skips_transformations(self, small_corpus):
        documents, schema, _ = small_corpus
        analysis = analyze_corpus(documents, schema, AnalysisConfig(), derive=False)
        assert all(d.log is None and d.profile is None for d in analysis.documents)
        assert analysis.scores.overall.f1 < 1.0
        assert total_errors(analysis.profile) == 0  # empty profile, nothing derived


class TestParallel:
    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        """Each test starts the process counts it names, on a machine with any number of CPUs."""
        usable_cpus(monkeypatch, 64)

    @pytest.fixture(autouse=True)
    def started(self, monkeypatch) -> list[int]:
        """One mention is a process's worth of work, so these tiny corpora reach the pool; the pools started."""
        monkeypatch.setattr(pipeline, "MENTIONS_PER_PROCESS", 1)
        return recording_pool(monkeypatch)

    def test_worker_counts_agree(self, small_corpus, started):
        documents, schema, _ = small_corpus
        config = AnalysisConfig()
        serial = analyze_corpus(documents, schema, config, parallel=1)
        pooled = analyze_corpus(documents, schema, config, parallel=4)
        assert started == [3]
        assert [d.doc_id for d in serial.documents] == [d.doc_id for d in pooled.documents]
        assert serial.profile == pooled.profile
        assert serial.scores == pooled.scores
        assert [d.matching for d in serial.analyzed] == [d.matching for d in pooled.analyzed]

    @pytest.mark.parametrize(
        "config,derive,flag",
        [
            (AnalysisConfig(max_template_matchings=7, on_guard="skip"), True, "skipped"),
            (AnalysisConfig(max_template_matchings=7, on_guard="greedy"), True, "approximate"),
            (AnalysisConfig(), False, None),
        ],
        ids=["skip", "greedy", "score-only"],
    )
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_batches_equal_serial(self, config, derive, flag, workers, started):
        # 11 documents of 0-23 mentions: the parent analyzes the first 9, 5
        # and 4 of them (a prefix holding its share of the mentions), and
        # the pool gets batches of 1
        documents, schema = fuzzed_corpus(1, n_docs=11)
        serial = analyze_corpus(documents, schema, config, derive=derive)
        if flag is not None:
            # the cap sends some documents, not all, to the guard
            assert 0 < sum(getattr(d, flag) for d in serial.documents) < len(documents)
        pooled = analyze_corpus(documents, schema, config, parallel=workers, derive=derive)
        assert len(pooled.documents) == len(serial.documents)
        for ours, theirs in zip(pooled.documents, serial.documents):
            for name in type(theirs).__match_args__:
                assert getattr(ours, name) == getattr(theirs, name), (theirs.doc_id, name)
        # The CLI's path: each document becomes its report row where it is analyzed.
        rows = analyze_each(documents, schema, config, document_row, workers, derive)
        assert rows == [document_row(d) for d in serial.documents]
        assert only_builtins(rows)
        assert started == [workers - 1] * 2
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_documents(self, small_corpus, started):
        """One process per document at most, the parent included: the pool gets one fewer."""
        documents, schema, _ = small_corpus
        serial = analyze_corpus(documents, schema)
        assert analyze_corpus(documents, schema, parallel=16).documents == serial.documents
        assert analyze_corpus(documents, schema, parallel=len(documents)).documents == serial.documents
        assert analyze_corpus(documents[:1], schema, parallel=16).documents == serial.documents[:1]
        assert started == [len(documents) - 1] * 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus,pools", [(3, [2, 1]), (2, [1, 1]), (1, []), (None, [])])
    def test_no_more_workers_than_cpus(self, small_corpus, monkeypatch, started, cpus, pools):
        """One process per CPU this process may run on at most; without a count, one CPU."""
        usable_cpus(monkeypatch, cpus)
        documents, schema, _ = small_corpus
        serial = analyze_corpus(documents, schema)
        assert analyze_corpus(documents, schema, parallel=500).documents == serial.documents
        assert analyze_corpus(documents, schema, parallel=2).documents == serial.documents
        assert started == pools
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("parallel", [2, 3])
    @pytest.mark.parametrize("share", ["parent", "worker"])
    def test_guard_failure_equals_serial(self, share, parallel, started, monkeypatch):
        """Under ``on_guard="fail"`` the pooled run raises the serial run's error and leaves no worker."""
        # Each document is one mention's worth of work, so the parent's share is the first 6 // parallel.
        monkeypatch.setattr(pipeline, "_mention_count", lambda doc: 1)
        config = AnalysisConfig(max_template_matchings=7, on_guard="fail")
        documents, schema = fuzzed_corpus(1, n_docs=11)
        over = []
        for doc in documents:
            try:
                analyze_document(doc, schema, config)
            except ComplexityGuardExceeded:
                over.append(doc)
        under = iter([doc for doc in documents if doc not in over])
        over = iter(over)
        # Six documents, the parent's share first; two of them over the cap,
        # so a run that raised the later one would differ from serial.
        own = 6 // parallel
        failing = (own - 1, own + 1) if share == "parent" else (own + 1, 5)
        corpus = []
        for i in range(6):
            doc = next(over if i in failing else under)
            corpus.append(Document(f"d{i}", doc.text, doc.gold_templates, doc.predicted_templates))
        with pytest.raises(ComplexityGuardExceeded) as serial:
            analyze_corpus(corpus, schema, config)
        assert serial.value.doc_id == f"d{failing[0]}"
        with pytest.raises(ComplexityGuardExceeded) as pooled:
            analyze_corpus(corpus, schema, config, parallel=parallel)
        assert type(pooled.value) is ComplexityGuardExceeded
        assert (str(pooled.value), vars(pooled.value)) == (str(serial.value), vars(serial.value))
        assert started == [parallel - 1]
        assert multiprocessing.active_children() == []

    def test_settings_do_not_leak_between_calls(self, two_role_schema, started):
        base = TestCaseSensitivity()._doc()
        documents = [
            Document(f"case-{i}", base.text, base.gold_templates, base.predicted_templates) for i in range(3)
        ]
        results = []
        for case_sensitive in (False, True):
            config = AnalysisConfig(case_sensitive=case_sensitive)
            serial = analyze_corpus(documents, two_role_schema, config)
            pooled = analyze_corpus(documents, two_role_schema, config, parallel=2)
            assert pooled.documents == serial.documents
            results.append(pooled.scores.overall.f1)
        assert results == [1.0, 0.0]
        assert started == [1, 1]

    @staticmethod
    def _pool_under(start_method: str) -> list[str]:
        """What a child interpreter prints after comparing a pooled run under ``start_method`` with serial."""
        script = (
            "import multiprocessing, pytest\n"
            "from support import fuzzed_corpus, only_builtins, pool_for_any_corpus\n"
            "started = pool_for_any_corpus(pytest.MonkeyPatch(), cpus=2)\n"
            "from tfea.config import AnalysisConfig\n"
            "from tfea.pipeline import analyze_corpus, analyze_each\n"
            "from tfea.reports import document_row\n"
            f"multiprocessing.set_start_method({start_method!r})\n"
            "documents, schema = fuzzed_corpus(1, n_docs=11)\n"
            "config = AnalysisConfig(max_template_matchings=7, on_guard='greedy')\n"
            "serial = analyze_corpus(documents, schema, config)\n"
            "pooled = analyze_corpus(documents, schema, config, parallel=2)\n"
            "assert pooled.documents == serial.documents\n"
            "rows = analyze_each(documents, schema, config, document_row, 2)\n"
            "assert rows == [document_row(d) for d in serial.documents]\n"
            "assert only_builtins(rows)\n"
            "assert multiprocessing.active_children() == []\n"
            "print(multiprocessing.get_start_method(), len(pooled.documents), len(rows), *started)\n"
        )
        env = child_env(os.path.dirname(__file__))
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd="/", capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        return child.stdout.split()

    def test_spawned_workers_equal_serial(self):
        assert self._pool_under("spawn") == ["spawn", "11", "11", "1", "1"]

    def test_forkserver_workers_equal_serial(self):
        # The Linux default from Python 3.14; each worker unpickles its
        # initargs as under spawn.
        assert self._pool_under("forkserver") == ["forkserver", "11", "11", "1", "1"]


class TestPoolSize:
    """``analyze_each`` runs min(parallel, documents, CPUs, mentions // MENTIONS_PER_PROCESS) processes, at least one."""

    M = 6  # MENTIONS_PER_PROCESS here: hand-sized corpora reach each size

    @pytest.fixture(autouse=True)
    def started(self, monkeypatch) -> list[int]:
        usable_cpus(monkeypatch, 64)
        monkeypatch.setattr(pipeline, "MENTIONS_PER_PROCESS", self.M)
        return recording_pool(monkeypatch)

    @staticmethod
    def _document(i: int, n: int) -> Document:
        """Document ``d{i}`` of ``n`` mentions: one gold entity and some predictions."""
        gold = (gold_template(agent=[[span_mention("red fox", 4)] * ((n + 1) // 2)]),) if n else ()
        pred = (pred_template(agent=[span_mention("red fox", 4)] * (n // 2)),) if n > 1 else ()
        return Document(f"d{i}", "the red fox ran", gold, pred)

    def _corpus(self, mentions: int, documents: int = 4) -> list[Document]:
        """``documents`` documents sharing ``mentions`` mentions evenly."""
        return [self._document(i, mentions // documents + (i < mentions % documents)) for i in range(documents)]

    @pytest.mark.parametrize(
        "mentions,parallel,documents,cpus,processes",
        [
            (M - 1, 4, 4, 64, 1),
            (M, 4, 4, 64, 1),
            (2 * M - 1, 4, 4, 64, 1),
            (2 * M, 4, 4, 64, 2),
            (8 * M, 3, 4, 64, 3),  # --parallel binds
            (8 * M, 4, 2, 64, 2),  # documents bind
            (8 * M, 4, 4, 3, 3),  # CPUs bind
        ],
        ids=["M-1", "M", "2M-1", "2M", "parallel", "documents", "cpus"],
    )
    def test_processes(self, two_role_schema, monkeypatch, caplog, started, mentions, parallel, documents, cpus, processes):
        usable_cpus(monkeypatch, cpus)
        corpus = self._corpus(mentions, documents)
        assert sum(map(pipeline._mention_count, corpus)) == mentions
        serial = [document_row(analyze_document(doc, two_role_schema)) for doc in corpus]
        with caplog.at_level(logging.DEBUG, logger="tfea"):
            rows = analyze_each(corpus, two_role_schema, None, document_row, parallel)
        assert rows == serial
        assert started == ([processes - 1] if processes > 1 else [])
        assert caplog.messages == [f"{documents} documents, {mentions} mentions: {processes} process(es)"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "counts,parallel,own",
        [
            ((12, 2, 2, 2, 2, 4), 2, 1),  # the pool's batches are 2, 2 and 1 documents
            ((12, 2, 2, 2, 2, 4), 3, 1),
            ((2, 2, 2, 2, 4, 12), 2, 5),
            ((2, 2, 2, 2, 4, 12), 3, 4),
            ((1, 1, 1, 1, 20), 2, 4),  # each pool process keeps a document
            ((1, 1, 1, 1, 20), 3, 3),
        ],
    )
    def test_caller_share_is_a_prefix_holding_its_mentions(self, two_role_schema, monkeypatch, started, counts, parallel, own):
        """The caller analyzes the shortest doc-id prefix holding ``mentions // processes`` of the mentions."""
        corpus = [self._document(i, n) for i, n in enumerate(counts)]
        assert [pipeline._mention_count(doc) for doc in corpus] == list(counts)
        serial = [document_row(analyze_document(doc, two_role_schema)) for doc in corpus]
        analyzed = []  # by this process; a worker appends to its own copy

        def recording(doc, *args):
            analyzed.append(doc.doc_id)
            return analyze_document(doc, *args)

        monkeypatch.setattr(pipeline, "analyze_document", recording)
        assert analyze_each(corpus, two_role_schema, None, document_row, parallel) == serial
        assert analyzed == [f"d{i}" for i in range(own)]
        assert started == [parallel - 1]
        assert multiprocessing.active_children() == []

    def test_one_process_counts_nothing(self, two_role_schema, monkeypatch, caplog, started):
        """The mentions are counted only when more than one process is possible."""
        monkeypatch.setattr(pipeline, "_mention_count", None)
        corpus = self._corpus(8 * self.M)
        with caplog.at_level(logging.DEBUG, logger="tfea"):
            analyze_each(corpus, two_role_schema, None, document_row, 1)
            analyze_each(corpus[:1], two_role_schema, None, document_row, 4)
            usable_cpus(monkeypatch, 1)
            analyze_each(corpus, two_role_schema, None, document_row, 4)
        assert started == [] and caplog.messages == []


def test_mention_count_is_every_mention_on_both_sides():
    sides = [0, 0]
    for seed in range(50):
        documents, schema = fuzzed_corpus(seed)
        gold = sum(
            len(entity.mentions)
            for doc in documents for template in doc.gold_templates
            for role in schema for entity in template.entities(role.name)
        )
        pred = sum(
            len(template.mentions(role.name))
            for doc in documents for template in doc.predicted_templates for role in schema
        )
        assert sum(map(pipeline._mention_count, documents)) == gold + pred, seed
        sides = [sides[0] + gold, sides[1] + pred]
    assert min(sides) > 0
