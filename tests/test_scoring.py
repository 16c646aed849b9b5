"""Scorer: per-role tallies, conventions, and micro-averaging."""

import pytest

from tfea.config import AnalysisConfig
from tfea.matching import Tally, find_optimal_matching
from tfea.model import Document, resolve_document_spans
from tfea.scoring import score_corpus, score_document

from conftest import gold_template, pred_template, span_mention


class TestTally:
    def test_plain_ratios(self):
        t = Tally(1, 2, 2)
        assert t.precision == 0.5
        assert t.recall == 0.5
        assert t.f1 == pytest.approx(0.5)

    def test_zero_denominator_conventions(self):
        assert Tally(0, 0, 0).precision == 1.0
        assert Tally(0, 0, 0).recall == 1.0
        assert Tally(0, 0, 0).f1 == 1.0
        assert Tally(0, 0, 3).f1 == 0.0
        assert Tally(0, 3, 0).f1 == 0.0


class TestScoreDocument:
    def test_gold_vs_gold(self, two_role_schema):
        doc = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0)]], target=[[span_mention("beta", 6)]]),),
            (pred_template(agent=[span_mention("alpha", 0)], target=[span_mention("beta", 6)]),),
        )
        scores = score_document(find_optimal_matching(doc, two_role_schema))
        assert scores.overall.f1 == 1.0
        for role in ("agent", "target"):
            assert scores.per_role[role].precision == 1.0
            assert scores.per_role[role].recall == 1.0
            assert scores.per_role[role].f1 == 1.0

    def test_half_matched_role(self, two_role_schema):
        # Two predicted fillers, one exact; two gold entities.
        doc = Document(
            "d",
            "alpha beta omega",
            (gold_template(agent=[[span_mention("alpha", 0)], [span_mention("beta", 6)]]),),
            (pred_template(agent=[span_mention("alpha", 0), span_mention("omega", 11)]),),
        )
        doc = resolve_document_spans(doc)
        scores = score_document(find_optimal_matching(doc, two_role_schema))
        agent = scores.per_role["agent"]
        assert (agent.numerator, agent.precision_denominator, agent.recall_denominator) == (1, 2, 2)
        assert agent.precision == 0.5
        assert agent.recall == 0.5
        assert agent.f1 == pytest.approx(0.5)

    def test_vacuous_document(self, two_role_schema):
        doc = Document("d", "nothing here", (), ())
        scores = score_document(find_optimal_matching(doc, two_role_schema))
        assert scores.overall.precision == 1.0
        assert scores.overall.recall == 1.0
        assert scores.overall.f1 == 1.0

    def test_reported_f1_is_matcher_f1(self, two_role_schema):
        doc = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0)], [span_mention("beta", 6)]]),),
            (pred_template(agent=[span_mention("alpha", 0)]),),
        )
        matching = find_optimal_matching(doc, two_role_schema)
        assert score_document(matching).overall.f1 == matching.f1


class TestScoreCorpus:
    def test_single_document_equals_document_scores(self, two_role_schema):
        doc = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0)], [span_mention("beta", 6)]]),),
            (pred_template(agent=[span_mention("alpha", 0)]),),
        )
        matching = find_optimal_matching(doc, two_role_schema)
        corpus = score_corpus([matching.role_tallies])
        single = score_document(matching)
        assert corpus.overall == single.overall
        assert corpus.per_role == single.per_role

    def test_micro_average_sums_tallies(self):
        docs = [{"agent": Tally(1, 2, 2)}, {"agent": Tally(1, 2, 2)}]
        scores = score_corpus(docs)
        assert scores.overall.numerator == 2
        assert scores.overall.precision == 0.5
        assert scores.overall.recall == 0.5
        assert scores.overall.f1 == pytest.approx(0.5)

    def test_one_sided_corpus(self):
        # No predictions anywhere: precision 1.0 by convention, recall 0.
        scores = score_corpus([{"agent": Tally(0, 0, 3)}, {"agent": Tally(0, 0, 2)}])
        assert scores.overall.precision == 1.0
        assert scores.overall.recall == 0.0
        assert scores.overall.f1 == 0.0

    def test_micro_consistency(self):
        docs = [
            {"agent": Tally(1, 2, 3), "target": Tally(2, 2, 2)},
            {"agent": Tally(0, 1, 1)},
        ]
        scores = score_corpus(docs)
        assert scores.overall.numerator == sum(t.numerator for t in scores.per_role.values())
        assert scores.overall.precision_denominator == sum(
            t.precision_denominator for t in scores.per_role.values()
        )
        assert scores.overall.recall_denominator == sum(
            t.recall_denominator for t in scores.per_role.values()
        )

    def test_adding_exact_filler_never_lowers_numerator(self, two_role_schema):
        base = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0)], [span_mention("beta", 6)]]),),
            (pred_template(agent=[span_mention("alpha", 0)]),),
        )
        more = Document(
            "d",
            "alpha beta",
            base.gold_templates,
            (pred_template(agent=[span_mention("alpha", 0), span_mention("beta", 6)]),),
        )
        config = AnalysisConfig()
        before = find_optimal_matching(base, two_role_schema, config).total.numerator
        after = find_optimal_matching(more, two_role_schema, config).total.numerator
        assert after >= before
