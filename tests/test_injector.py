"""Synthetic generation and error injection: determinism, feasibility, ledgers."""

import hashlib

import pytest

from tfea.config import AnalysisConfig
from tfea.corpus import side_to_dict
from tfea.errors import ERROR_TYPES, ErrorType, total_errors
from tfea.exceptions import InfeasibleSpec
from tfea.inject import (
    GenerationParams,
    InjectionSpec,
    default_schema,
    generate_corpus,
    inject_errors,
)
from tfea.model import Document, GoldEntity, Mention, RoleKind, RoleSpec, Schema, Span, Template
from tfea.pipeline import analyze_corpus
from tfea.reports import errors_section, render_json


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


class TestDecoys:
    """Spurious fillers are cut from free text, and never share a gold mention's text."""

    SCHEMA = Schema((RoleSpec("agent", RoleKind.STRING_FILL), RoleSpec("target", RoleKind.STRING_FILL)))

    @staticmethod
    def _document(spans: bool) -> Document:
        # The second "red fox" is free text, but its words are the gold agent's.
        agent = Mention("red fox", Span(0, 7) if spans else None)
        target = Mention("ran far", Span(8, 15) if spans else None)
        template = Template({"agent": (GoldEntity((agent,)),), "target": (GoldEntity((target,)),)})
        return Document("fox", "red fox ran far and the red fox hid", (template,))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spans, count", [(True, 2), (False, 1)], ids=["spans", "text-only"])
    def test_ledger_matches_analysis(self, spans, count, seed):
        spec = InjectionSpec(counts={ErrorType.SPURIOUS_ROLE_FILLER: count})
        result = inject_errors([self._document(spans)], self.SCHEMA, spec, seed=seed)
        assert result.ledger.counts[ErrorType.SPURIOUS_ROLE_FILLER] == count
        assert analyze_corpus(result.documents, self.SCHEMA).profile == result.ledger


class TestSharedText:
    """Two gold entities of one role with the same text are still two fillers."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("etype", [ErrorType.MISSING_ROLE_FILLER, ErrorType.SPAN_ERROR])
    def test_ledger_matches_analysis(self, etype, seed):
        agents = (GoldEntity((Mention("red fox", Span(0, 7)),)), GoldEntity((Mention("red fox", Span(20, 27)),)))
        target = GoldEntity((Mention("ran far", Span(8, 15)),))
        template = Template({"agent": agents, "target": (target,)})
        doc = Document("fox", "red fox ran far and red fox hid away", (template,))
        result = inject_errors([doc], TestDecoys.SCHEMA, InjectionSpec(counts={etype: 1}), seed=seed)
        assert result.ledger.counts[etype] == 1
        assert analyze_corpus(result.documents, TestDecoys.SCHEMA).profile == result.ledger


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

    def test_spurious_filler_needs_a_string_fill_role(self):
        """Raised before any random draw, like the spurious template's check."""
        schema = Schema((RoleSpec("status", RoleKind.SET_FILL, values=("a", "b")),))
        gold = generate_corpus(GenerationParams(n_docs=1, schema=schema), seed=1)
        with pytest.raises(InfeasibleSpec, match="schema has no string-fill role"):
            inject_errors(gold, schema, InjectionSpec(counts={ErrorType.SPURIOUS_ROLE_FILLER: 1}), seed=1)

    def test_too_many_missing_templates(self, schema):
        gold = generate_corpus(GenerationParams(n_docs=1, templates_per_doc=(1, 1)), seed=1)
        with pytest.raises(InfeasibleSpec):
            inject_errors(
                gold, schema, InjectionSpec(counts={ErrorType.MISSING_TEMPLATE: 2}), seed=1
            )


# Pinned injector bytes: the sha256 of the predicted side and the ledger of
# seeded corpora with every error type injected, and of the messages of a few
# infeasible specs. A change to which entity, template, role or decoy an
# injection draws, or to what it writes, fails here.

_WRONG_TEMPLATE_TYPES = {
    ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER,
    ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER,
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE,
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER,
}
_SINGLE_TEMPLATE_TYPES = [
    etype for etype in ERROR_TYPES if etype not in _WRONG_TEMPLATE_TYPES and etype is not ErrorType.MISSING_TEMPLATE
]

PINNED_CORPORA = {
    # name: (generation params, counts per document, seed)
    "all_types_once": (
        GenerationParams(n_docs=3, templates_per_doc=(10, 12), entities_per_role=(1, 3), mentions_per_entity=(1, 3)),
        {etype: 1 for etype in ERROR_TYPES},
        1,
    ),
    "twelve_types_twice": (
        GenerationParams(n_docs=3, templates_per_doc=(3, 4), entities_per_role=(2, 3), mentions_per_entity=(1, 3)),
        {etype: 2 for etype in ERROR_TYPES if etype is not ErrorType.MISSING_TEMPLATE},
        2,
    ),
    "single_template": (
        GenerationParams(n_docs=4, templates_per_doc=(1, 1), entities_per_role=(2, 3), mentions_per_entity=(2, 3)),
        {etype: 1 for etype in _SINGLE_TEMPLATE_TYPES},
        3,
    ),
    "single_template_missing": (
        GenerationParams(n_docs=4, templates_per_doc=(1, 1)),
        {ErrorType.MISSING_TEMPLATE: 1, ErrorType.SPURIOUS_TEMPLATE: 1},
        4,
    ),
}

PINNED_BYTES = {
    ("all_types_once", "pred"): "388ead8d6ba648cb03cdb4cbdebb7d7d521871a13aad11bcd546725233e1732f",
    ("all_types_once", "ledger"): "723da39a3ffc9578ccf3433ad392dcfbbff22726227c2ba2d96f9fb3cd165d0e",
    ("twelve_types_twice", "pred"): "53ce9769ec48a73e2f895cf49babc5009cad0e5be84d3b7177ae6667f4e7d8a1",
    ("twelve_types_twice", "ledger"): "faf454584c5d168c314d2563788e8875fc393345ace172fbd4fe1ef372ad1168",
    ("single_template", "pred"): "357ad66153b914c7018441c5d55e1a9e56737f9e379d7a78a5252e51e6e5af93",
    ("single_template", "ledger"): "e655a72e71299199fc5047346394880f53587c1397056a151990ff10bb2ed479",
    ("single_template_missing", "pred"): "b0a3843ae8fccc8b90e979f8c466c7c551aebd603f4090114c8de3434cde772d",
    ("single_template_missing", "ledger"): "422294d7d62bba18124f5a0258c6644ac24a6d70f5576146f26d04634ee85433",
}

_ONE_STRING_ROLE = Schema(
    (
        RoleSpec("status", RoleKind.SET_FILL, values=("a", "b")),
        RoleSpec("agent", RoleKind.STRING_FILL),
    )
)

INFEASIBLE = (
    # (schema, generation params, counts per document)
    (_ONE_STRING_ROLE, GenerationParams(n_docs=1), {ErrorType.INCORRECT_ROLE: 1}),
    (
        _ONE_STRING_ROLE,
        GenerationParams(n_docs=1, templates_per_doc=(1, 1)),
        {ErrorType.WRONG_TEMPLATE_WRONG_ROLE: 1},
    ),
    (
        _ONE_STRING_ROLE,
        GenerationParams(n_docs=1, templates_per_doc=(2, 2)),
        {ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER: 1},
    ),
    (None, GenerationParams(n_docs=2, templates_per_doc=(1, 1)), {ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER: 1}),
    (None, GenerationParams(n_docs=1, mentions_per_entity=(1, 1)), {ErrorType.DUPLICATE_ROLE_FILLER: 1}),
    (None, GenerationParams(n_docs=1), {ErrorType.SPAN_ERROR: 40}),
    (None, GenerationParams(n_docs=1, templates_per_doc=(1, 1)), {ErrorType.MISSING_TEMPLATE: 2}),
    (None, GenerationParams(n_docs=1, templates_per_doc=(0, 0)), {ErrorType.SPURIOUS_ROLE_FILLER: 1}),
    (None, GenerationParams(n_docs=1, tail_glue_words=0), {ErrorType.SPURIOUS_TEMPLATE: 60}),
)
PINNED_INFEASIBLE = "49d8d4c9dc3abe662955a13e3941bdaccdd91320edb9c74d4368c88f3ad91a29"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, part", sorted(PINNED_BYTES))
def test_injected_corpus_sha256_is_pinned(schema, name, part):
    params, counts, seed = PINNED_CORPORA[name]
    result = inject_errors(generate_corpus(params, seed=seed), schema, InjectionSpec(counts=counts), seed=seed)
    if part == "pred":
        payload = side_to_dict(result.documents, gold=False)
    else:
        payload = errors_section(result.ledger, schema, result.per_doc)
    assert _sha256(render_json(payload)) == PINNED_BYTES[name, part]


def test_infeasible_spec_messages_are_pinned():
    messages = []
    for index, (schema, params, counts) in enumerate(INFEASIBLE):
        schema = schema or default_schema()
        fields = {name: getattr(params, name) for name in type(params).__match_args__}
        gold = generate_corpus(GenerationParams(**{**fields, "schema": schema}), seed=index)
        with pytest.raises(InfeasibleSpec) as err:
            inject_errors(gold, schema, InjectionSpec(counts=counts), seed=index)
        messages.append(str(err.value))
    assert _sha256("\n".join(messages)) == PINNED_INFEASIBLE, messages


@pytest.mark.parametrize("name", sorted(PINNED_CORPORA))
def test_spec_counts_order_does_not_change_the_draws(schema, name):
    """The draw order is fixed in the injector: counts given in reverse give the same predictions and ledger bytes."""
    params, counts, seed = PINNED_CORPORA[name]
    gold = generate_corpus(params, seed=seed)
    outputs = []
    for ordered in (counts, dict(reversed(counts.items()))):
        result = inject_errors(gold, schema, InjectionSpec(counts=ordered), seed=seed)
        pred = render_json(side_to_dict(result.documents, gold=False))
        outputs.append((pred, render_json(errors_section(result.ledger, schema, result.per_doc))))
    assert outputs[0] == outputs[1]
