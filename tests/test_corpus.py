"""Corpus and schema loading, validation warnings, and serialization round trips."""

import json
import logging

import pytest

from support import dump_side
from tfea.corpus import (
    load_corpus,
    load_schema,
    load_side,
    merge_sides,
    schema_from_dict,
    schema_to_dict,
    side_to_dict,
)
from tfea.exceptions import ParseError, SchemaMismatch
from tfea.inject import GenerationParams, default_schema, generate_corpus, inject_errors
from tfea.inject import InjectionSpec
from tfea.model import RoleKind, Span, resolve_document_spans


@pytest.fixture
def schema():
    return default_schema()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSchemaFile:
    def test_round_trip(self, tmp_path, schema):
        path = _write(tmp_path, "schema.json", schema_to_dict(schema))
        assert load_schema(path) == schema

    def test_missing_roles_key(self, tmp_path):
        path = _write(tmp_path, "schema.json", {"rolez": []})
        with pytest.raises(ParseError):
            load_schema(path)

    def test_bad_kind(self, tmp_path):
        path = _write(tmp_path, "schema.json", {"roles": [{"name": "x", "kind": "enum_fill"}]})
        with pytest.raises(ParseError):
            load_schema(path)

    def test_duplicate_role_names(self):
        raw = {"roles": [{"name": "x", "kind": "string_fill"}, {"name": "x", "kind": "string_fill"}]}
        with pytest.raises(ParseError):
            schema_from_dict(raw)

    @pytest.mark.parametrize("key", ["mutli", "value", "Kind", "description"])
    def test_unknown_role_entry_key_is_parse_error(self, tmp_path, key):
        """A misspelled ``multi`` would otherwise load as the default, ``multi=True``."""
        roles = [{"name": "status", "kind": "set_fill", "values": ["a"]}, {"name": "agent", "kind": "string_fill"}]
        roles[1][key] = False
        path = _write(tmp_path, "schema.json", {"roles": roles})
        with pytest.raises(ParseError, match=rf"schema\.json \(role entry 1\): unknown key '{key}'"):
            load_schema(path)

    @pytest.mark.parametrize("key", ["role", "Roles", "version"])
    def test_unknown_schema_key_is_parse_error(self, tmp_path, key):
        path = _write(tmp_path, "schema.json", {"roles": [{"name": "agent", "kind": "string_fill"}], key: []})
        with pytest.raises(ParseError, match=rf"schema\.json: unknown key '{key}'; known: roles"):
            load_schema(path)


class TestCorpusLoading:
    def test_gold_and_pred_shapes(self, tmp_path, schema):
        gold = {
            "d1": {
                "doctext": "an amber archive stood near the twin kiln site",
                "templates": [
                    {
                        "status": "confirmed",
                        "agent": [[{"text": "amber archive", "start": 3, "end": 16}]],
                        "target": [[{"text": "twin kiln"}]],
                    }
                ],
            }
        }
        pred = {
            "d1": {
                "doctext": "an amber archive stood near the twin kiln site",
                "templates": [
                    {
                        "status": "confirmed",
                        "agent": [{"text": "amber archive", "start": 3, "end": 16}],
                        "target": [{"text": "twin kiln"}, {"text": "twin kiln"}],
                    }
                ],
            }
        }
        docs = load_corpus(
            _write(tmp_path, "gold.json", gold), _write(tmp_path, "pred.json", pred), schema
        )
        assert len(docs) == 1
        doc = docs[0]
        entity = doc.gold_templates[0].entities("agent")[0]
        assert entity.mentions[0].span == Span(3, 16)
        assert doc.gold_templates[0].entities("target")[0].mentions[0].span is None
        # duplicate identical strings survive loading
        assert len(doc.predicted_templates[0].mentions("target")) == 2

    def test_unknown_role_is_schema_mismatch(self, tmp_path, schema):
        gold = {"d1": {"doctext": "x", "templates": [{"location": [[{"text": "x"}]]}]}}
        with pytest.raises(SchemaMismatch):
            load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)

    @pytest.mark.parametrize("gold", [True, False])
    def test_schema_mismatch_names_the_file_and_template(self, tmp_path, schema, gold):
        agent = [[{"text": "x"}]] if gold else [{"text": "x"}]
        side = {"d1": {"doctext": "x", "templates": [{"agent": agent}, {"agnt": agent}]}}
        path = _write(tmp_path, "gold.json" if gold else "pred.json", side)
        with pytest.raises(ParseError) as raised:
            load_side(path, schema, gold=gold)
        assert type(raised.value) is SchemaMismatch
        assert (raised.value.path, raised.value.location, raised.value.role) == (path, "doc 'd1' template 1", "agnt")
        assert str(raised.value) == f"{path} (doc 'd1' template 1): role 'agnt' is not defined by the schema"

    @pytest.mark.parametrize("key", ["template", "Templates", "doc_text", "meta"])
    def test_unknown_document_key_is_parse_error(self, tmp_path, schema, key):
        gold = {"d1": {"doctext": "x", "templates": []}, "d2": {"doctext": "y", key: []}}
        with pytest.raises(ParseError, match=f"doc 'd2'.*unknown key '{key}'"):
            load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)

    def test_malformed_filler_is_parse_error(self, tmp_path, schema):
        gold = {"d1": {"doctext": "x", "templates": [{"agent": "not-a-list"}]}}
        with pytest.raises(ParseError):
            load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)

    def test_set_fill_must_be_string(self, tmp_path, schema):
        gold = {"d1": {"doctext": "x", "templates": [{"status": ["confirmed"]}]}}
        with pytest.raises(ParseError):
            load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)

    def test_pred_ids_must_be_subset(self, tmp_path, schema):
        gold = {"d1": {"doctext": "x", "templates": []}}
        pred = {"d2": {"doctext": "x", "templates": []}}
        with pytest.raises(ParseError):
            load_corpus(
                _write(tmp_path, "gold.json", gold), _write(tmp_path, "pred.json", pred), schema
            )

    def test_missing_pred_doc_means_empty_predictions(self, tmp_path, schema):
        gold = {"d1": {"doctext": "x", "templates": []}, "d2": {"doctext": "y", "templates": []}}
        pred = {"d1": {"doctext": "x", "templates": []}}
        docs = load_corpus(
            _write(tmp_path, "gold.json", gold), _write(tmp_path, "pred.json", pred), schema
        )
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs[1].predicted_templates == ()

    def test_bad_declared_span_warns_and_relocates(self, tmp_path, schema, caplog):
        gold = {
            "d1": {
                "doctext": "the amber archive fell",
                "templates": [{"agent": [[{"text": "amber archive", "start": 0, "end": 3}]]}],
            }
        }
        with caplog.at_level(logging.WARNING, logger="tfea"):
            side = load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)
        assert any("re-locating" in message for message in caplog.messages)
        _, templates = side["d1"]
        assert templates[0].entities("agent")[0].mentions[0].span == Span(4, 17)

    def test_out_of_inventory_value_warns(self, tmp_path, schema, caplog):
        gold = {"d1": {"doctext": "x", "templates": [{"status": "implausible"}]}}
        with caplog.at_level(logging.WARNING, logger="tfea"):
            load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)
        assert any("inventory" in message for message in caplog.messages)


class TestSerialization:
    def test_corpus_round_trip(self, tmp_path, schema):
        gold_docs = generate_corpus(GenerationParams(n_docs=3), seed=5)
        result = inject_errors(gold_docs, schema, InjectionSpec(counts={}), seed=1)
        gold_path = str(tmp_path / "gold.json")
        pred_path = str(tmp_path / "pred.json")
        dump_side(result.documents, gold_path, gold=True)
        dump_side(result.documents, pred_path, gold=False)
        reloaded = load_corpus(gold_path, pred_path, schema)
        assert len(reloaded) == len(result.documents)
        by_id = {d.doc_id: d for d in result.documents}
        for doc in reloaded:
            original = by_id[doc.doc_id]
            assert doc.text == original.text
            assert doc.gold_templates == original.gold_templates
            assert doc.predicted_templates == original.predicted_templates

    def test_side_to_dict_shape(self, schema):
        gold_docs = generate_corpus(GenerationParams(n_docs=1), seed=2)
        payload = side_to_dict(gold_docs, gold=True)
        (entry,) = payload.values()
        assert set(entry) == {"doctext", "templates"}
        for template in entry["templates"]:
            for role, filler in template.items():
                if schema.role(role).kind is RoleKind.SET_FILL:
                    assert isinstance(filler, str)
                else:
                    assert isinstance(filler, list)
                    assert all(isinstance(ent, list) for ent in filler)

    def test_merge_warns_on_doctext_mismatch(self, schema, caplog):
        gold_side = {"d1": ("gold text", ())}
        pred_side = {"d1": ("different text", ())}
        with caplog.at_level(logging.WARNING, logger="tfea"):
            docs = merge_sides(gold_side, pred_side)
        assert docs[0].text == "gold text"
        assert any("doctext differs" in message for message in caplog.messages)


class TestAwkwardInputs:
    def test_non_integer_offsets_relocate(self, tmp_path, schema, caplog):
        import logging

        # Offsets are a pair of ints: a null, lone, float or bool offset is
        # invalid and relocated, never truncated by int() or read as no span.
        for offsets in (
            {"start": "x", "end": None},
            {"start": 4},
            {"end": 13},
            {"start": 4.9, "end": 13},
            {"start": True, "end": 13},
        ):
            gold = {
                "d1": {
                    "doctext": "the twin pier fell",
                    "templates": [{"agent": [[{"text": "twin pier", **offsets}]]}],
                }
            }
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tfea"):
                side = load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)
            mention = side["d1"][1][0].entities("agent")[0].mentions[0]
            assert mention.span == Span(4, 13), offsets
            assert "invalid offsets" in caplog.text, offsets

    def test_missing_offsets_resolve_after_load(self, tmp_path, schema, caplog):
        gold = {
            "d1": {
                "doctext": "the twin pier fell",
                "templates": [{"agent": [[{"text": "twin pier", "start": None, "end": None}]]}],
            }
        }
        with caplog.at_level(logging.WARNING, logger="tfea"):
            side = load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)
        assert caplog.text == ""
        (doc,) = merge_sides(side, {})
        assert doc.gold_templates[0].entities("agent")[0].mentions[0].span is None
        resolved = resolve_document_spans(doc)
        assert resolved.gold_templates[0].entities("agent")[0].mentions[0].span == Span(4, 13)

    def test_unicode_text_and_declared_spans(self, tmp_path, schema):
        text = "surto em São Paulo confirmado ontem"
        start = text.find("São Paulo")
        gold = {
            "d1": {
                "doctext": text,
                "templates": [
                    {
                        "agent": [[{"text": "São Paulo", "start": start, "end": start + 9}]],
                        "status": "confirmed",
                    }
                ],
            }
        }
        side = load_side(_write(tmp_path, "gold.json", gold), schema, gold=True)
        mention = side["d1"][1][0].entities("agent")[0].mentions[0]
        assert mention.span == Span(start, start + 9)

    def test_unicode_resolution_and_matching(self, schema):
        from tfea.config import AnalysisConfig
        from tfea.model import Document, GoldEntity, Mention, Template
        from tfea.pipeline import analyze_document

        text = "surto em São Paulo confirmado"
        doc = Document(
            "u1",
            text,
            (Template({"agent": (GoldEntity((Mention("São Paulo"),)),)}),),
            (Template({"agent": (Mention("são paulo"),)}),),
        )
        analysis = analyze_document(doc, schema, AnalysisConfig())
        assert analysis.matching.f1 == 1.0
