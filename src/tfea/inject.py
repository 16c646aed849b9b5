"""Synthetic corpora and controlled error injection.

The generator assembles document text from unique two-word mention
phrases separated by glue words drawn from a disjoint vocabulary, so
every mention is globally unique within its document and every span is
known exactly. The injector then perturbs a canonical-mention copy of
the gold annotations one error at a time, keeping a ledger of exactly
which error counts an analyzer must report. Perturbations never share
targets, so precedence rules cannot reclassify them.

Eight of the thirteen error types copy a gold mention into its own or
another template, in its own or another role, exact or with its span
run over the next word; one table (``_COPIES``) names which, and one
method injects them all. Spurious fillers and spurious templates take
decoy phrases cut from text no gold mention touches, and a decoy never
has a gold mention's text. ``inject_errors(..., seed=0)`` seeds the draws.
"""

from __future__ import annotations

import random
import re
from itertools import product
from typing import Sequence

from .corpus import _check_keys, _decode_object, read_json
from .errors import ErrorProfile, ErrorType
from .exceptions import InfeasibleSpec, ParseError
from .model import (
    Document,
    Factory,
    GoldEntity,
    Mention,
    RoleKind,
    RoleSpec,
    Schema,
    Span,
    Template,
    normalize,
    record,
    resolve_document_spans,
)

MENTION_ADJECTIVES = (
    "amber", "brisk", "coastal", "dusty", "eastern", "fabled", "gilded",
    "hollow", "iron", "jagged", "kindred", "lucid", "mossy", "northern",
    "opal", "pale", "quartz", "rusty", "silent", "twin",
)
MENTION_NOUNS = (
    "archive", "beacon", "canal", "derrick", "estuary", "foundry", "granary",
    "harbor", "inlet", "junction", "kiln", "lagoon", "mill", "nursery",
    "outpost", "pier", "quarry", "reservoir", "steppe", "terrace",
)
GLUE_WORDS = (
    "meanwhile", "officials", "later", "confirmed", "that", "reports", "from",
    "the", "area", "described", "events", "during", "review", "of", "records",
    "nearby", "sources", "noted", "details", "remain", "under", "observation",
)

SPEC_KEYS = ("counts", "seed")
DEFAULT_SET_VALUES = ("confirmed", "possible", "suspected", "pending", "ruled_out", "unverified")


def default_schema() -> Schema:
    return Schema(
        (
            RoleSpec("status", RoleKind.SET_FILL, values=DEFAULT_SET_VALUES),
            RoleSpec("agent", RoleKind.STRING_FILL),
            RoleSpec("target", RoleKind.STRING_FILL),
            RoleSpec("instrument", RoleKind.STRING_FILL),
        )
    )


@record(frozen=True)
class GenerationParams:
    """Shape of a synthetic corpus; ranges are inclusive."""

    n_docs: int = 3
    templates_per_doc: tuple[int, int] = (1, 2)
    entities_per_role: tuple[int, int] = (1, 2)
    mentions_per_entity: tuple[int, int] = (1, 2)
    tail_glue_words: int = 24
    doc_id_prefix: str = "doc"
    schema: Schema = Factory(default_schema)


@record(frozen=True)
class InjectionSpec:
    """Number of each error type to inject into every document."""

    counts: dict[ErrorType, int] = Factory(dict)

    def count(self, etype: ErrorType) -> int:
        return self.counts.get(etype, 0)


def load_spec(path: str, seed: int | None = None) -> tuple[InjectionSpec, int]:
    """The injection spec ``{"counts": {error type: n}, "seed": s}`` in ``path``, and ``seed``, else the spec's."""
    raw = read_json(path, "injection spec", _decode_object)
    if not isinstance(raw, dict):
        raise ParseError(path, "injection spec must be a JSON object")
    _check_keys(path, raw, None, SPEC_KEYS)
    raw_counts = raw.get("counts", {})
    if not isinstance(raw_counts, dict):
        raise ParseError(path, "counts must be a JSON object", "counts")
    _check_keys(path, raw_counts, "counts")
    counts = {}
    for name, count in raw_counts.items():
        where = f"counts '{name}'"
        try:
            etype = ErrorType(name)
        except ValueError as exc:
            known = ", ".join(t.value for t in ErrorType)
            raise ParseError(path, f"unknown error type; known: {known}", where) from exc
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ParseError(path, f"count must be an integer of at least 0, got {count!r}", where)
        counts[etype] = count
    seed = seed if seed is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError(path, f"must be an integer, got {seed!r}", "seed")
    return InjectionSpec(counts=counts), seed


class _TextBuilder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.parts: list[str] = []
        self.length = 0

    def word(self, token: str) -> Span:
        if self.parts:
            self.parts.append(" ")
            self.length += 1
        start = self.length
        self.parts.append(token)
        self.length += len(token)
        return Span(start, self.length)

    def glue(self, low: int = 1, high: int = 2) -> None:
        for _ in range(self.rng.randint(low, high)):
            self.word(self.rng.choice(GLUE_WORDS))

    @property
    def text(self) -> str:
        return "".join(self.parts)


def generate_corpus(params: GenerationParams, seed: int = 0) -> list[Document]:
    """Deterministic gold-only corpus with exact spans for every mention."""
    schema = params.schema
    phrase_pool = [f"{a} {n}" for a, n in product(MENTION_ADJECTIVES, MENTION_NOUNS)]
    documents = []
    for doc_index in range(params.n_docs):
        doc_id = f"{params.doc_id_prefix}{doc_index:03d}"
        rng = random.Random(f"{seed}:gen:{doc_index}")
        phrases = iter(rng.sample(phrase_pool, len(phrase_pool)))
        builder = _TextBuilder(rng)
        builder.glue(2, 4)
        n_templates = rng.randint(*params.templates_per_doc)
        set_choices = {
            role.name: rng.sample(role.values, min(n_templates, len(role.values)))
            for role in schema.set_fill_roles
        }
        templates = []
        for t in range(n_templates):
            fillers: dict = {}
            for role in schema:
                if role.kind is RoleKind.SET_FILL:
                    values = set_choices[role.name]
                    fillers[role.name] = values[t % len(values)]
                    continue
                entities = []
                for _ in range(rng.randint(*params.entities_per_role)):
                    mentions = []
                    for _ in range(rng.randint(*params.mentions_per_entity)):
                        phrase = next(phrases, None)
                        if phrase is None:
                            raise ValueError(f"{doc_id}: needs more than the {len(phrase_pool)} mention phrases")
                        span = builder.word(phrase)
                        mentions.append(Mention(phrase, span))
                        builder.glue()
                    entities.append(GoldEntity(tuple(mentions)))
                if entities:
                    fillers[role.name] = tuple(entities)
            templates.append(Template(fillers))
        for _ in range(params.tail_glue_words):
            builder.word(rng.choice(GLUE_WORDS))
        documents.append(Document(doc_id, builder.text, tuple(templates), ()))
    return documents


@record
class InjectionResult:
    documents: list[Document]
    per_doc: dict[str, ErrorProfile]

    @property
    def ledger(self) -> ErrorProfile:
        return sum(self.per_doc.values(), ErrorProfile.empty())


def _decoy_phrases(doc: Document) -> list[Mention]:
    """Two-word phrases cut from text no gold mention touches, none a gold mention's text.

    A gold mention without a span blocks the span where the analyzer's
    span resolution would locate it.
    """
    gold = [
        mention
        for template in resolve_document_spans(doc).gold_templates
        for value in template.role_fillers.values()
        if not isinstance(value, str)
        for entity in value
        for mention in entity.mentions
    ]
    blocked = [mention.span for mention in gold if mention.span is not None]
    gold_texts = {normalize(mention.text) for mention in gold}
    words = []
    for found in re.finditer(r"\S+", doc.text):
        span = Span(found.start(), found.end())
        if not any(span.overlap(b) > 0 for b in blocked):
            words.append((found.group(), span))
    decoys = []
    i = 0
    while i + 1 < len(words):
        (w1, s1), (w2, s2) = words[i], words[i + 1]
        phrase = f"{w1} {w2}"
        if doc.text[s1.end : s2.start] == " " and normalize(phrase) not in gold_texts:
            decoys.append(Mention(phrase, Span(s1.start, s2.end)))
            i += 2
        else:
            i += 1
    return decoys


# The error types that copy a gold mention into the predictions, each as
# (same template, same role, perturbed span). Written out here rather than
# read from the analyzer's tables: the injector is the analyzer's oracle.
# The key order is part of the draw order (``_DocInjector.run``).
_COPIES = {
    ErrorType.DUPLICATE_ROLE_FILLER: (True, True, False),
    ErrorType.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER: (True, True, True),
    ErrorType.INCORRECT_ROLE: (True, False, False),
    ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER: (True, False, True),
    ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER: (False, True, False),
    ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER: (False, True, True),
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE: (False, False, False),
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER: (False, False, True),
}


class _DocInjector:
    """Applies one document's worth of injections and records the ledger."""

    def __init__(self, doc: Document, schema: Schema, rng: random.Random):
        self.doc = doc
        self.schema = schema
        self.rng = rng
        self.profile = ErrorProfile.empty()
        # Mutable prediction state: the canonical mentions of each gold template's string roles,
        # entity ``e``'s at index ``e`` (``None`` once removed), then the copies and decoys added.
        self.strings: list[dict[str, list[Mention | None]]] = [
            {role.name: [e.canonical for e in template.entities(role.name)] for role in schema.string_fill_roles}
            for template in doc.gold_templates
        ]
        self.removed: set[int] = set()
        self.extra_templates: list[Template] = []
        self.used_entities: set[tuple[int, str, int]] = set()
        self.touched_templates: set[int] = set()
        self.decoys = _decoy_phrases(doc)

    def _take_decoy(self, etype: ErrorType) -> Mention:
        if not self.decoys:
            raise InfeasibleSpec(etype.value, f"document '{self.doc.doc_id}' has no free text left")
        return self.decoys.pop(0)

    def _claim(self, t_index: int, role: str, e_index: int) -> None:
        self.used_entities.add((t_index, role, e_index))
        self.touched_templates.add(t_index)

    def _perturb(self, mention: Mention, etype: ErrorType) -> Mention:
        """Extend a mention's span over the following glue word.

        The result overlaps the original span but normalizes differently,
        which is exactly what a span error needs.
        """
        span = mention.span
        text = self.doc.text
        if span is None or span.end >= len(text) or text[span.end] != " ":
            raise InfeasibleSpec(etype.value, f"mention {mention.text!r} has no room to perturb")
        end = span.end + 1
        while end < len(text) and text[end] != " ":
            end += 1
        return Mention(text[span.start : end], Span(span.start, end))

    def _string_roles(self, etype: ErrorType) -> list[str]:
        names = [r.name for r in self.schema.string_fill_roles]
        if not names:
            raise InfeasibleSpec(etype.value, "schema has no string-fill role to fill")
        return names

    def _other_string_role(self, role: str, etype: ErrorType) -> str:
        names = [r.name for r in self.schema.string_fill_roles if r.name != role]
        if not names:
            raise InfeasibleSpec(etype.value, "schema needs at least two string-fill roles")
        return self.rng.choice(names)

    def _pick_entity(self, etype: ErrorType, min_mentions: int = 1) -> tuple[int, str, int, GoldEntity]:
        candidates = [
            (t_index, role.name, e_index, entity)
            for t_index, template in enumerate(self.doc.gold_templates)
            for role in self.schema.string_fill_roles
            for e_index, entity in enumerate(template.entities(role.name))
            if (t_index, role.name, e_index) not in self.used_entities and len(entity.mentions) >= min_mentions
        ]
        if not candidates:
            raise InfeasibleSpec(etype.value, f"document '{self.doc.doc_id}' has no eligible entity")
        return self.rng.choice(candidates)

    def _other_template(self, t_index: int, etype: ErrorType) -> int:
        others = [i for i in range(len(self.doc.gold_templates)) if i != t_index]
        if not others:
            raise InfeasibleSpec(etype.value, "document needs at least two gold templates")
        return self.rng.choice(others)

    # Each injection leaves every other gold fact intact.

    def replace_filler(self, etype: ErrorType) -> None:
        """Overwrite an entity's canonical mention: perturbed for a span error, removed for a missing filler."""
        t, role, e, entity = self._pick_entity(etype)
        self.strings[t][role][e] = self._perturb(entity.canonical, etype) if etype is ErrorType.SPAN_ERROR else None
        self._claim(t, role, e)
        self.profile.bump(etype, role)

    def inject_copy(self, etype: ErrorType) -> None:
        """Copy a gold mention into its own or another template and role, exact or perturbed.

        A duplicate copies the entity's second mention, so the exact one
        needs two mentions; every other copy is of the canonical mention.
        """
        same_template, same_role, perturbed = _COPIES[etype]
        duplicate = same_template and same_role
        t, role, e, entity = self._pick_entity(etype, 2 if duplicate and not perturbed else 1)
        host_template = t if same_template else self._other_template(t, etype)
        host_role = role if same_role else self._other_string_role(role, etype)
        mention = entity.mentions[1] if duplicate and len(entity.mentions) > 1 else entity.canonical
        self.strings[host_template][host_role].append(self._perturb(mention, etype) if perturbed else mention)
        self._claim(t, role, e)
        self.touched_templates.add(host_template)
        self.profile.bump(etype, role)

    def inject_spurious_filler(self, etype: ErrorType) -> None:
        if not self.doc.gold_templates:
            raise InfeasibleSpec(etype.value, "document has no template to host a spurious filler")
        roles = self._string_roles(etype)
        t = self.rng.randrange(len(self.doc.gold_templates))
        role = self.rng.choice(roles)
        self.strings[t][role].append(self._take_decoy(etype))
        self.touched_templates.add(t)
        self.profile.bump(etype, role)

    def inject_spurious_template(self, etype: ErrorType) -> None:
        role = self._string_roles(etype)[0]
        self.extra_templates.append(Template({role: (self._take_decoy(etype),)}))
        self.profile.bump(etype, fillers=1)

    def inject_missing_template(self, etype: ErrorType) -> None:
        taken = self.touched_templates | self.removed
        candidates = [i for i in range(len(self.doc.gold_templates)) if i not in taken]
        if not candidates:
            raise InfeasibleSpec(etype.value, f"document '{self.doc.doc_id}' has no untouched template")
        t = self.rng.choice(candidates)
        self.removed.add(t)
        self.touched_templates.add(t)
        self.profile.bump(etype, fillers=sum(self.doc.gold_templates[t].filler_row(self.schema)))

    def run(self, spec: InjectionSpec) -> None:
        """Draw the spec's injections in one fixed order, whatever the order of its counts."""
        steps = (
            (ErrorType.SPAN_ERROR, self.replace_filler),
            *((etype, self.inject_copy) for etype in _COPIES),
            (ErrorType.SPURIOUS_ROLE_FILLER, self.inject_spurious_filler),
            (ErrorType.MISSING_ROLE_FILLER, self.replace_filler),
            (ErrorType.SPURIOUS_TEMPLATE, self.inject_spurious_template),
            (ErrorType.MISSING_TEMPLATE, self.inject_missing_template),
        )
        for etype, inject in steps:
            for _ in range(spec.count(etype)):
                inject(etype)

    def predictions(self) -> tuple[Template, ...]:
        templates = []
        for t_index, gold in enumerate(self.doc.gold_templates):
            if t_index in self.removed:
                continue
            fillers: dict = {}
            for role in self.schema:
                if role.kind is RoleKind.SET_FILL:
                    value = gold.set_fill(role.name)
                    if value is not None:
                        fillers[role.name] = value
                else:
                    mentions = tuple(m for m in self.strings[t_index][role.name] if m is not None)
                    if mentions:
                        fillers[role.name] = mentions
            templates.append(Template(fillers))
        return (*templates, *self.extra_templates)


def inject_errors(
    gold_documents: Sequence[Document],
    schema: Schema,
    spec: InjectionSpec,
    seed: int = 0,
) -> InjectionResult:
    """Build predictions with a known error profile from a gold corpus.

    Returns the documents with the predicted side filled in and the
    per-document ledger the analyzer is expected to reproduce exactly.
    """
    documents = []
    per_doc = {}
    for doc in gold_documents:
        # The UTF-8 bytes a str seed is hashed as; "surrogatepass" admits a lone surrogate in the doc id.
        seed_bytes = f"{seed}:inject:{doc.doc_id}".encode("utf-8", "surrogatepass")
        injector = _DocInjector(doc, schema, random.Random(seed_bytes))
        injector.run(spec)
        documents.append(Document(doc.doc_id, doc.text, doc.gold_templates, injector.predictions()))
        per_doc[doc.doc_id] = injector.profile
    return InjectionResult(documents, per_doc)
