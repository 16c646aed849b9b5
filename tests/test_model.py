"""Core model: normalization, exact match, span resolution, type invariants."""

import random
import unicodedata

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import find_normalized_reference, resolve_document_spans_reference
from support import fuzzed_corpus
from tfea.matching import MatchIndex
from tfea.model import (
    Document,
    GoldEntity,
    Mention,
    RoleKind,
    RoleSpec,
    Schema,
    Span,
    Template,
    find_normalized,
    normalize,
    normalizer,
    resolve_document_spans,
    texts_match,
)
from tfea.spans import ScsMode


# Text that each step of ``normalize`` changes: letters in both cases
# (some that case-fold to other lengths or scripts), combining marks that
# NFC composes, and whitespace of every kind.
normalizing_text = st.lists(
    st.one_of(
        st.characters(categories=("Lu", "Ll", "Lt", "Mn", "Me", "Zs", "Zl", "Zp", "Cc")),
        st.sampled_from(["e\u0301", "A\u030a", "\u212b", "ß", "ﬁ", "İ", "\u212a", "\x1c", "\x85", "\u3000"]),
    ),
    max_size=12,
).map("".join)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Shining\n Path ", "shining path"),
            ("Newcastle", "newcastle"),
            ("", ""),
            ("a\t\tb   c", "a b c"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize(raw) == expected

    def test_case_sensitive_mode(self):
        assert normalize("Shining Path", casefold=False) == "Shining Path"

    @given(st.text(max_size=80))
    def test_idempotent(self, s):
        once = normalize(s)
        assert normalize(once) == once

    @given(st.text(max_size=80))
    def test_no_surrounding_whitespace(self, s):
        assert normalize(s) == normalize(s).strip()

    @settings(max_examples=500)
    @given(text=normalizing_text, casefold=st.booleans())
    def test_memo_equals_unmemoized(self, text, casefold):
        expected = normalize(text, casefold=casefold)
        # The first call fills the memo of its setting, a repeat reads it.
        for _ in range(2):
            assert normalizer(casefold)(text) == expected
            assert normalizer(not casefold)(text) == normalize(text, not casefold)


class TestExactMatch:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("Newcastle", "newcastle", True),
            ("shining path", "maoist shining path group", False),
            ("bombing", "attack", False),
        ],
    )
    def test_examples(self, a, b, expected):
        assert texts_match(a, b) is expected

    def test_spans_ignored(self):
        # A mention found at the wrong offset still matches on text.
        entity = GoldEntity((Mention("x", Span(50, 51)),))
        index = MatchIndex([("m", Mention("x", Span(0, 1)))], [("g", 0, entity)], ScsMode.GEOMETRIC, casefold=True)
        assert index.cell("m", "g", 0).exact

    def test_case_sensitive_flag(self):
        assert not texts_match("Newcastle", "newcastle", casefold=False)

    @given(st.text(max_size=40), st.text(max_size=40), st.text(max_size=40))
    def test_equivalence_relation(self, a, b, c):
        assert texts_match(a, a)
        assert texts_match(a, b) == texts_match(b, a)
        if texts_match(a, b) and texts_match(b, c):
            assert texts_match(a, c)


class TestResolveSpan:
    TEXT = "An outbreak of Newcastle disease was confirmed in Newcastle county"

    def _resolve(self, mention: Mention) -> Mention:
        doc = Document("d1", self.TEXT, predicted_templates=(Template({"agent": (mention,)}),))
        return resolve_document_spans(doc).predicted_templates[0].mentions("agent")[0]

    def test_first_occurrence(self):
        assert find_normalized("Newcastle", self.TEXT) == Span(15, 24)

    def test_not_found_keeps_null_span(self):
        assert self._resolve(Mention("acme virus")).span is None

    def test_idempotent_on_present_span(self):
        m = Mention("Newcastle", Span(51, 60))
        assert self._resolve(m) is m

    def test_never_changes_text(self):
        m = Mention("newcastle DISEASE")
        resolved = self._resolve(m)
        assert resolved.text == m.text
        assert resolved.span == Span(15, 32)

    def test_whitespace_flexible(self):
        assert find_normalized("Shining Path", "the shining  path group") == Span(4, 17)

    def test_resolve_document_spans(self):
        doc = Document(
            "d3",
            "alpha beta gamma",
            gold_templates=(Template({"agent": (GoldEntity((Mention("beta"),)),)}),),
            predicted_templates=(
                Template({"agent": (Mention("gamma"), Mention("missing"))}),
            ),
        )
        resolved = resolve_document_spans(doc)
        assert resolved.gold_templates[0].entities("agent")[0].mentions[0].span == Span(6, 10)
        pred = resolved.predicted_templates[0].mentions("agent")
        assert pred[0].span == Span(11, 16)
        assert pred[1].span is None

    @pytest.mark.parametrize("casefold", [True, False])
    def test_resolution_matches_rebuild_everything_reference(self, casefold):
        """Equal to the reference, and only what gains a span is a new object."""
        kept = rebuilt = 0
        for seed in range(80):
            documents, _ = fuzzed_corpus(seed, n_docs=3, max_templates=3)
            rng = random.Random(f"strip:{seed}")
            for doc in map(lambda d: _strip_some_spans(d, rng), documents):
                resolved = resolve_document_spans(doc, casefold)
                assert resolved == resolve_document_spans_reference(doc, casefold)
                for side in ("gold_templates", "predicted_templates"):
                    for before, after in zip(getattr(doc, side), getattr(resolved, side)):
                        for role, value in before.role_fillers.items():
                            if isinstance(value, str) or _mentions(value) != _mentions(after.role_fillers[role]):
                                continue
                            assert after.role_fillers[role] is value
                        if _mentions(before) == _mentions(after):
                            assert after is before
                            kept += 1
                        else:
                            rebuilt += 1
                    if all(m.span is not None for t in getattr(doc, side) for m in _mentions(t)):
                        assert getattr(resolved, side) is getattr(doc, side)
        assert kept > 200 and rebuilt > 100, (kept, rebuilt)


# Characters on which a token scan and the regex could disagree: letters
# that case-fold across scripts (with their ASCII partners), letters whose
# lowercase has another length, a decomposed accent and non-ASCII whitespace.
UNICODE_HAZARDS = [
    "ſ", "s", "\u212a", "k", "ı", "İ", "i", "ß", "e\u0301", "\u00a0", "\u0085", "\u3000", " ",
]
ASCII_WHITESPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"
hazard_text = st.lists(
    st.one_of(st.characters(), st.sampled_from(UNICODE_HAZARDS)), max_size=8
).map("".join)


class TestFindNormalized:
    def test_random_ascii_matches_reference(self):
        rng = random.Random(7)
        letters = "aAbB"
        metas = ".*+([\\"
        alphabet = letters * 4 + ASCII_WHITESPACE + metas
        found = unfound = multi_token = 0
        for case in range(120_000):
            casefold = case % 2 == 0
            doc = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            if doc and rng.random() < 0.5:
                # Cut the mention from the document, so that many cases match.
                i = rng.randrange(len(doc))
                text = doc[i : i + rng.randint(1, 8)]
                text = "".join(c.swapcase() if rng.random() < 0.3 else c for c in text)
            else:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            expected = find_normalized_reference(text, doc, casefold)
            assert find_normalized(text, doc, casefold) == expected, (text, doc, casefold)
            if expected is None:
                unfound += 1
            else:
                found += 1
                multi_token += " " in normalize(text, casefold)
        assert found >= 40_000 and unfound >= 40_000 and multi_token >= 8_000

    @settings(max_examples=500)
    @given(
        text=hazard_text,
        before=hazard_text,
        after=hazard_text,
        recase=st.sampled_from([str, str.upper, str.lower, str.swapcase, str.casefold]),
        casefold=st.booleans(),
    )
    def test_unicode_matches_reference(self, text, before, after, recase, casefold):
        for doc in (before + recase(text) + after, before + after):
            expected = find_normalized_reference(text, doc, casefold)
            assert find_normalized(text, doc, casefold) == expected

    @pytest.mark.parametrize(
        "text,doc,casefold,expected",
        [
            ("STRASSE", "die Straße", True, None),
            ("ſtraße", "the strasse", True, Span(4, 11)),
            ("\u212aelvin", "KELVIN", True, Span(0, 6)),
            ("path", "İ path", True, Span(2, 6)),
            ("a b", "x a\u00a0\u3000b", True, Span(2, 6)),
            ("a b", "a\x1c\x1fb", True, Span(0, 4)),
            ("ab", "a b", True, None),
            ("a b", "ab a b", True, Span(3, 6)),
            ("a b", "a a b", True, Span(2, 5)),
            ("Ab", "ab Ab", False, Span(3, 5)),
            ("a.b", "axb a.b", True, Span(4, 7)),
            ("   ", "a b", True, None),
            # A letter whose case-folded form has another length is still
            # found as written, and the earliest match wins.
            ("Straße", "in der Straße", True, Span(7, 13)),
            ("Straß", "Straße ﬁle", True, Span(0, 5)),
            ("classiﬁcation", "the classiﬁcation task", True, Span(4, 17)),
            ("Straße", "Straße strasse", True, Span(0, 6)),
        ],
    )
    def test_examples(self, text, doc, casefold, expected):
        assert find_normalized(text, doc, casefold) == expected
        assert find_normalized_reference(text, doc, casefold) == expected

    @settings(max_examples=500)
    @given(doc=normalizing_text, cut=st.tuples(st.integers(0, 12), st.integers(0, 12)), casefold=st.booleans())
    def test_cut_of_the_document_is_located(self, doc, cut, casefold):
        """A non-blank NFC cut of an NFC document is found, starting no later than the cut's first letter."""
        doc = unicodedata.normalize("NFC", doc)
        text = doc[min(cut) : max(cut)]
        assume(text.strip() and unicodedata.is_normalized("NFC", text))
        found = find_normalized(text, doc, casefold)
        assert found is not None and found.start <= min(cut) + len(text) - len(text.lstrip()), (text, doc)


class TestTypes:
    def test_span_validation(self):
        with pytest.raises(ValueError):
            Span(5, 3)
        with pytest.raises(ValueError):
            Span(-1, 3)
        assert Span(3, 3).length == 0

    def test_entity_needs_mentions(self):
        with pytest.raises(ValueError):
            GoldEntity(())

    def test_set_fill_role_needs_values(self):
        with pytest.raises(ValueError):
            RoleSpec("status", RoleKind.SET_FILL)

    def test_set_fill_role_is_single(self):
        role = RoleSpec("status", RoleKind.SET_FILL, values=("a", "b"), multi=True)
        assert role.multi is False

    def test_string_fill_role_rejects_values(self):
        with pytest.raises(ValueError):
            RoleSpec("agent", RoleKind.STRING_FILL, values=("x",))

    def test_schema_unique_names(self):
        role = RoleSpec("agent", RoleKind.STRING_FILL)
        with pytest.raises(ValueError):
            Schema((role, role))

    def test_sequence_fields_become_tuples(self):
        role = RoleSpec("status", RoleKind.SET_FILL, values=["a", "b"])
        mentions = (Mention("a"), Mention("b", Span(0, 1)))
        template = Template({})
        # A document holds templates, which hold dicts: it has no hash.
        for make, listed, field, hashable in [
            (lambda v: RoleSpec("status", RoleKind.SET_FILL, values=v), ["a", "b"], "values", True),
            (Schema, [role], "roles", True),
            (GoldEntity, list(mentions), "mentions", True),
            (lambda v: Document("d", "", v), [template], "gold_templates", False),
            (lambda v: Document("d", "", (), v), [template], "predicted_templates", False),
        ]:
            from_list, from_tuple = make(listed), make(tuple(listed))
            assert type(getattr(from_list, field)) is tuple
            assert from_list == from_tuple
            if hashable:
                assert hash(from_list) == hash(from_tuple)
            # A tuple is kept as the same object.
            given_tuple = tuple(listed)
            assert getattr(make(given_tuple), field) is given_tuple


def _mentions(value) -> list[Mention]:
    """The mentions of a template, an entity, or a filler tuple, in order."""
    if isinstance(value, Template):
        return [m for v in value.role_fillers.values() if not isinstance(v, str) for m in _mentions(v)]
    if isinstance(value, GoldEntity):
        return list(value.mentions)
    return [m for item in value for m in _mentions(item)] if isinstance(value, tuple) else [value]


def _strip_some_spans(doc: Document, rng: random.Random) -> Document:
    """The document with about a third of its mentions turned span-less."""

    def strip(mention: Mention) -> Mention:
        return Mention(mention.text) if rng.random() < 0.34 else mention

    def templates(side):
        out = []
        for template in side:
            fillers = {}
            for role, value in template.role_fillers.items():
                if isinstance(value, str) or rng.random() < 0.5:
                    fillers[role] = value
                else:
                    fillers[role] = tuple(
                        GoldEntity(tuple(map(strip, item.mentions))) if isinstance(item, GoldEntity) else strip(item)
                        for item in value
                    )
            out.append(Template(fillers) if rng.random() < 0.7 else template)
        return tuple(out)

    return Document(doc.doc_id, doc.text, templates(doc.gold_templates), templates(doc.predicted_templates))
