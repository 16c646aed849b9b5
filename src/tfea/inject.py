"""Synthetic corpora and controlled error injection.

The generator assembles document text from unique two-word mention
phrases separated by glue words drawn from a disjoint vocabulary, so
every mention is globally unique within its document and every span is
known exactly. The injector then perturbs a canonical-mention copy of
the gold annotations one error at a time, keeping a ledger of exactly
which error counts an analyzer must report. Perturbations never share
targets, so precedence rules cannot reclassify them.
"""

from __future__ import annotations

import random
import re
from itertools import product
from typing import Sequence

from .errors import ErrorProfile, ErrorType
from .exceptions import InfeasibleSpec
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
    record,
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
    seed: int = 0

    def count(self, etype: ErrorType) -> int:
        return self.counts.get(etype, 0)


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
        total = ErrorProfile.empty()
        for profile in self.per_doc.values():
            total = total + profile
        return total


def _gold_spans(doc: Document) -> list[Span]:
    spans = []
    for template in doc.gold_templates:
        for value in template.role_fillers.values():
            if isinstance(value, str):
                continue
            for entity in value:
                for mention in entity.mentions:
                    if mention.span is not None:
                        spans.append(mention.span)
    return spans


def _decoy_phrases(doc: Document) -> list[Mention]:
    """Two-word phrases cut from text regions no gold mention touches."""
    blocked = _gold_spans(doc)
    words = []
    for found in re.finditer(r"\S+", doc.text):
        span = Span(found.start(), found.end())
        if not any(span.overlap(b) > 0 for b in blocked):
            words.append((found.group(), span))
    decoys = []
    i = 0
    while i + 1 < len(words):
        (w1, s1), (w2, s2) = words[i], words[i + 1]
        if doc.text[s1.end : s2.start] == " ":
            decoys.append(Mention(f"{w1} {w2}", Span(s1.start, s2.end)))
            i += 2
        else:
            i += 1
    return decoys


class _DocInjector:
    """Applies one document's worth of injections and records the ledger."""

    def __init__(self, doc: Document, schema: Schema, rng: random.Random):
        self.doc = doc
        self.schema = schema
        self.rng = rng
        self.profile = ErrorProfile.empty()
        # Mutable prediction state: canonical copy of the gold side.
        self.sets: list[dict] = []
        self.strings: list[dict] = []
        self.removed: set[int] = set()
        for template in doc.gold_templates:
            sets: dict = {}
            strings: dict = {}
            for role in schema:
                if role.kind is RoleKind.SET_FILL:
                    value = template.set_fill(role.name)
                    if value is not None:
                        sets[role.name] = value
                else:
                    strings[role.name] = [
                        Mention(e.canonical.text, e.canonical.span)
                        for e in template.entities(role.name)
                    ]
            self.sets.append(sets)
            self.strings.append(strings)
        self.extra_templates: list[dict] = []
        self.used_entities: set[tuple[int, str, int]] = set()
        self.touched_templates: set[int] = set()
        self.decoys = _decoy_phrases(doc)

    def _take_decoy(self, etype: ErrorType) -> Mention:
        if not self.decoys:
            raise InfeasibleSpec(etype.value, f"document '{self.doc.doc_id}' has no free text left")
        return self.decoys.pop(0)

    def _entity_candidates(self, min_mentions: int = 1) -> list[tuple[int, str, int, GoldEntity]]:
        out = []
        for t_index, template in enumerate(self.doc.gold_templates):
            for role in self.schema.string_fill_roles:
                for e_index, entity in enumerate(template.entities(role.name)):
                    key = (t_index, role.name, e_index)
                    if key in self.used_entities:
                        continue
                    if len(entity.mentions) < min_mentions:
                        continue
                    out.append((t_index, role.name, e_index, entity))
        return out

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

    def _replace_canonical(self, t_index: int, role: str, entity: GoldEntity, new: Mention) -> None:
        fillers = self.strings[t_index][role]
        for i, filler in enumerate(fillers):
            if filler.text == entity.canonical.text:
                fillers[i] = new
                return
        raise InfeasibleSpec(
            ErrorType.SPAN_ERROR.value, f"canonical mention of {entity.canonical.text!r} not present"
        )

    def _other_string_role(self, role: str, etype: ErrorType) -> str:
        names = [r.name for r in self.schema.string_fill_roles if r.name != role]
        if not names:
            raise InfeasibleSpec(etype.value, "schema needs at least two string-fill roles")
        return self.rng.choice(names)

    def _pick_entity(self, etype: ErrorType, min_mentions: int = 1):
        candidates = self._entity_candidates(min_mentions)
        if not candidates:
            raise InfeasibleSpec(etype.value, f"document '{self.doc.doc_id}' has no eligible entity")
        return self.rng.choice(candidates)

    def _other_template(self, t_index: int, etype: ErrorType) -> int:
        others = [i for i in range(len(self.doc.gold_templates)) if i != t_index]
        if not others:
            raise InfeasibleSpec(etype.value, "document needs at least two gold templates")
        return self.rng.choice(others)

    # One method per error type; each leaves every other gold fact intact.

    def inject_span_error(self) -> None:
        t, role, e, entity = self._pick_entity(ErrorType.SPAN_ERROR)
        self._replace_canonical(t, role, entity, self._perturb(entity.canonical, ErrorType.SPAN_ERROR))
        self._claim(t, role, e)
        self.profile.bump(ErrorType.SPAN_ERROR, role)

    def inject_duplicate(self) -> None:
        t, role, e, entity = self._pick_entity(ErrorType.DUPLICATE_ROLE_FILLER, min_mentions=2)
        extra = entity.mentions[1]
        self.strings[t][role].append(Mention(extra.text, extra.span))
        self._claim(t, role, e)
        self.profile.bump(ErrorType.DUPLICATE_ROLE_FILLER, role)

    def inject_duplicate_partial(self) -> None:
        etype = ErrorType.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER
        t, role, e, entity = self._pick_entity(etype)
        base = entity.mentions[1] if len(entity.mentions) > 1 else entity.mentions[0]
        self.strings[t][role].append(self._perturb(base, etype))
        self._claim(t, role, e)
        self.profile.bump(etype, role)

    def inject_incorrect_role(self, partial: bool) -> None:
        etype = (
            ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER
            if partial
            else ErrorType.INCORRECT_ROLE
        )
        t, role, e, entity = self._pick_entity(etype)
        host_role = self._other_string_role(role, etype)
        copy = Mention(entity.canonical.text, entity.canonical.span)
        self.strings[t].setdefault(host_role, []).append(
            self._perturb(copy, etype) if partial else copy
        )
        self._claim(t, role, e)
        self.profile.bump(etype, role)

    def inject_wrong_template(self, wrong_role: bool, partial: bool) -> None:
        if wrong_role:
            etype = (
                ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER
                if partial
                else ErrorType.WRONG_TEMPLATE_WRONG_ROLE
            )
        else:
            etype = (
                ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER
                if partial
                else ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER
            )
        t_source, role, e, entity = self._pick_entity(etype)
        t_host = self._other_template(t_source, etype)
        host_role = self._other_string_role(role, etype) if wrong_role else role
        copy = Mention(entity.canonical.text, entity.canonical.span)
        self.strings[t_host].setdefault(host_role, []).append(
            self._perturb(copy, etype) if partial else copy
        )
        self._claim(t_source, role, e)
        self.touched_templates.add(t_host)
        self.profile.bump(etype, role)

    def inject_spurious_filler(self) -> None:
        etype = ErrorType.SPURIOUS_ROLE_FILLER
        hosts = [i for i in range(len(self.doc.gold_templates))]
        if not hosts:
            raise InfeasibleSpec(etype.value, "document has no template to host a spurious filler")
        t = self.rng.choice(hosts)
        role = self.rng.choice([r.name for r in self.schema.string_fill_roles])
        self.strings[t].setdefault(role, []).append(self._take_decoy(etype))
        self.touched_templates.add(t)
        self.profile.bump(etype, role)

    def inject_missing_filler(self) -> None:
        etype = ErrorType.MISSING_ROLE_FILLER
        t, role, e, entity = self._pick_entity(etype)
        fillers = self.strings[t][role]
        self.strings[t][role] = [f for f in fillers if f.text != entity.canonical.text]
        if len(self.strings[t][role]) == len(fillers):
            raise InfeasibleSpec(etype.value, "canonical filler already gone")
        self._claim(t, role, e)
        self.profile.bump(etype, role)

    def inject_spurious_template(self) -> None:
        etype = ErrorType.SPURIOUS_TEMPLATE
        if not self.schema.string_fill_roles:
            raise InfeasibleSpec(etype.value, "schema has no string-fill role to fill")
        role = self.schema.string_fill_roles[0].name
        self.extra_templates.append({role: [self._take_decoy(etype)]})
        self.profile.bump(etype)
        self.profile.spurious_template_role_fillers += 1

    def inject_missing_template(self) -> None:
        etype = ErrorType.MISSING_TEMPLATE
        candidates = [
            i
            for i in range(len(self.doc.gold_templates))
            if i not in self.touched_templates and i not in self.removed
        ]
        if not candidates:
            raise InfeasibleSpec(etype.value, f"document '{self.doc.doc_id}' has no untouched template")
        t = self.rng.choice(candidates)
        self.removed.add(t)
        self.touched_templates.add(t)
        self.profile.bump(etype)
        template = self.doc.gold_templates[t]
        self.profile.missing_template_role_fillers += sum(
            template.filler_counts(self.schema, gold=True).values()
        )

    def run(self, spec: InjectionSpec) -> None:
        plan = (
            (ErrorType.SPAN_ERROR, self.inject_span_error),
            (ErrorType.DUPLICATE_ROLE_FILLER, self.inject_duplicate),
            (ErrorType.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER, self.inject_duplicate_partial),
            (ErrorType.INCORRECT_ROLE, lambda: self.inject_incorrect_role(False)),
            (
                ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER,
                lambda: self.inject_incorrect_role(True),
            ),
            (
                ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER,
                lambda: self.inject_wrong_template(False, False),
            ),
            (
                ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER,
                lambda: self.inject_wrong_template(False, True),
            ),
            (
                ErrorType.WRONG_TEMPLATE_WRONG_ROLE,
                lambda: self.inject_wrong_template(True, False),
            ),
            (
                ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER,
                lambda: self.inject_wrong_template(True, True),
            ),
            (ErrorType.SPURIOUS_ROLE_FILLER, self.inject_spurious_filler),
            (ErrorType.MISSING_ROLE_FILLER, self.inject_missing_filler),
            (ErrorType.SPURIOUS_TEMPLATE, self.inject_spurious_template),
            (ErrorType.MISSING_TEMPLATE, self.inject_missing_template),
        )
        for etype, action in plan:
            for _ in range(spec.count(etype)):
                action()

    def predictions(self) -> tuple[Template, ...]:
        templates = []
        for t_index in range(len(self.doc.gold_templates)):
            if t_index in self.removed:
                continue
            fillers: dict = {}
            for role in self.schema:
                if role.kind is RoleKind.SET_FILL:
                    value = self.sets[t_index].get(role.name)
                    if value is not None:
                        fillers[role.name] = value
                else:
                    mentions = self.strings[t_index].get(role.name, [])
                    if mentions:
                        fillers[role.name] = tuple(mentions)
            templates.append(Template(fillers))
        for extra in self.extra_templates:
            templates.append(Template({role: tuple(v) for role, v in extra.items()}))
        return tuple(templates)


def inject_errors(
    gold_documents: Sequence[Document],
    schema: Schema,
    spec: InjectionSpec,
    seed: int | None = None,
) -> InjectionResult:
    """Build predictions with a known error profile from a gold corpus.

    Returns the documents with the predicted side filled in and the
    per-document ledger the analyzer is expected to reproduce exactly.
    """
    seed = spec.seed if seed is None else seed
    documents = []
    per_doc = {}
    for doc in gold_documents:
        injector = _DocInjector(doc, schema, random.Random(f"{seed}:inject:{doc.doc_id}"))
        injector.run(spec)
        documents.append(
            Document(doc.doc_id, doc.text, doc.gold_templates, injector.predictions())
        )
        per_doc[doc.doc_id] = injector.profile
    return InjectionResult(documents, per_doc)
