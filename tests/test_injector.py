"""Synthetic generation and error injection: determinism, feasibility, ledgers."""

import pytest

from tfea.config import AnalysisConfig
from tfea.errors import ERROR_TYPES, ErrorType, total_errors
from tfea.exceptions import InfeasibleSpec
from tfea.inject import (
    GenerationParams,
    InjectionSpec,
    default_schema,
    generate_corpus,
    inject_errors,
)
from tfea.model import RoleKind, RoleSpec, Schema
from tfea.pipeline import analyze_corpus


@pytest.fixture
def schema():
    return default_schema()


class TestGeneration:
    def test_same_seed_same_corpus(self):
        params = GenerationParams(n_docs=4)
        assert generate_corpus(params, seed=9) == generate_corpus(params, seed=9)

    def test_different_seeds_differ(self):
        params = GenerationParams(n_docs=4)
        assert generate_corpus(params, seed=9) != generate_corpus(params, seed=10)

    def test_zero_templates(self):
        docs = generate_corpus(GenerationParams(n_docs=2, templates_per_doc=(0, 0)), seed=1)
        assert all(doc.gold_templates == () for doc in docs)

    def test_too_many_mentions_for_the_phrase_pool(self):
        """Every mention takes its own phrase; 80 templates need more than there are."""
        with pytest.raises(ValueError, match="doc000: needs more than the 400 mention phrases"):
            generate_corpus(GenerationParams(n_docs=1, templates_per_doc=(80, 80)), seed=0)

    def test_spans_match_text(self, schema):
        params = GenerationParams(n_docs=2, templates_per_doc=(2, 2), entities_per_role=(1, 2))
        for doc in generate_corpus(params, seed=3):
            for template in doc.gold_templates:
                for role in schema.string_fill_roles:
                    for entity in template.entities(role.name):
                        for mention in entity.mentions:
                            assert doc.text[mention.span.start : mention.span.end] == mention.text

    def test_mention_texts_unique_per_document(self, schema):
        params = GenerationParams(n_docs=2, templates_per_doc=(2, 3), entities_per_role=(1, 2))
        for doc in generate_corpus(params, seed=4):
            texts = [
                m.text
                for t in doc.gold_templates
                for role in schema.string_fill_roles
                for e in t.entities(role.name)
                for m in e.mentions
            ]
            assert len(texts) == len(set(texts))


class TestInjection:
    def test_zero_spec_is_gold_equivalent(self, schema):
        gold = generate_corpus(GenerationParams(n_docs=2), seed=6)
        result = inject_errors(gold, schema, InjectionSpec(counts={}), seed=0)
        analysis = analyze_corpus(result.documents, schema)
        assert analysis.scores.overall.f1 == 1.0
        assert total_errors(analysis.profile) == 0
        assert total_errors(result.ledger) == 0

    def test_deterministic(self, schema):
        gold = generate_corpus(GenerationParams(n_docs=2, templates_per_doc=(2, 2)), seed=6)
        spec = InjectionSpec(counts={ErrorType.SPAN_ERROR: 1, ErrorType.MISSING_TEMPLATE: 1})
        first = inject_errors(gold, schema, spec, seed=5)
        second = inject_errors(gold, schema, spec, seed=5)
        assert first.documents == second.documents
        assert first.per_doc == second.per_doc

    def test_single_deletion_ledger(self, schema):
        gold = generate_corpus(GenerationParams(n_docs=1), seed=8)
        result = inject_errors(
            gold, schema, InjectionSpec(counts={ErrorType.MISSING_ROLE_FILLER: 1}), seed=2
        )
        assert result.ledger.counts[ErrorType.MISSING_ROLE_FILLER] == 1
        assert total_errors(result.ledger) == 1
        analysis = analyze_corpus(result.documents, schema)
        assert analysis.profile == result.ledger

    @pytest.mark.parametrize("etype", ERROR_TYPES)
    def test_each_type_round_trips(self, schema, etype):
        params = GenerationParams(
            n_docs=2,
            templates_per_doc=(2, 3),
            entities_per_role=(2, 2),
            mentions_per_entity=(2, 2),
        )
        gold = generate_corpus(params, seed=13)
        result = inject_errors(gold, schema, InjectionSpec(counts={etype: 2}), seed=21)
        analysis = analyze_corpus(result.documents, schema, AnalysisConfig())
        assert analysis.profile == result.ledger
        per_doc = {d.doc_id: d.profile for d in analysis.analyzed}
        assert per_doc == result.per_doc


class TestFeasibility:
    def test_incorrect_role_needs_two_string_roles(self):
        schema = Schema(
            (
                RoleSpec("status", RoleKind.SET_FILL, values=("a", "b")),
                RoleSpec("agent", RoleKind.STRING_FILL),
            )
        )
        params = GenerationParams(n_docs=1, schema=schema)
        gold = generate_corpus(params, seed=1)
        with pytest.raises(InfeasibleSpec) as err:
            inject_errors(gold, schema, InjectionSpec(counts={ErrorType.INCORRECT_ROLE: 1}), seed=1)
        assert "incorrect_role" in str(err.value)

    def test_wrong_template_needs_two_templates(self, schema):
        gold = generate_corpus(GenerationParams(n_docs=1, templates_per_doc=(1, 1)), seed=1)
        with pytest.raises(InfeasibleSpec):
            inject_errors(
                gold,
                schema,
                InjectionSpec(counts={ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER: 1}),
                seed=1,
            )

    def test_duplicate_needs_multi_mention_entity(self, schema):
        gold = generate_corpus(
            GenerationParams(n_docs=1, mentions_per_entity=(1, 1)), seed=1
        )
        with pytest.raises(InfeasibleSpec):
            inject_errors(
                gold, schema, InjectionSpec(counts={ErrorType.DUPLICATE_ROLE_FILLER: 1}), seed=1
            )

    def test_too_many_missing_templates(self, schema):
        gold = generate_corpus(GenerationParams(n_docs=1, templates_per_doc=(1, 1)), seed=1)
        with pytest.raises(InfeasibleSpec):
            inject_errors(
                gold, schema, InjectionSpec(counts={ErrorType.MISSING_TEMPLATE: 2}), seed=1
            )
