"""Loading and serializing the JSON corpus and schema formats.

Corpus files hold one object per document id:

    {"<doc_id>": {"doctext": "...", "templates": [{"<role>": <filler>, ...}]}}

where a filler is a plain string for set-fill roles, a list of entities
(each a list of mention objects) on the gold side, or a flat list of
mention objects on the predicted side. Mention objects are
``{"text": str, "start": int?, "end": int?}``, where ``start`` and ``end``
are given together or not at all.

Declared offsets are checked in this order: a slice ``doctext[start:end]``
equal to ``text`` is accepted; otherwise a slice equal to ``text`` after
``normalize`` is accepted, keeping the declared offsets; otherwise the
mention is relocated to the first normalized occurrence in the document,
with a warning. Offsets that are not a pair of ints with
``0 <= start <= end <= len(doctext)`` are relocated with a warning too.
A mention with no offsets keeps a null span here and is located later
by ``resolve_document_spans``.

A key named twice in one object is a ``ParseError`` naming the object
and the key, at every level (doc id, document entry, template, mention)
and in the schema file: ``json.load`` alone would keep the last value.
So is a document entry key other than ``doctext`` and ``templates``, a
schema key other than ``roles`` and a role entry key other than ``name``,
``kind``, ``values`` and ``multi``: a misspelled ``templates`` would
otherwise load as no templates, and a misspelled ``multi`` as its default.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Mapping

from .config import WARNING, log
from .exceptions import ParseError, SchemaMismatch
from .model import (
    Document,
    GoldEntity,
    Mention,
    RoleKind,
    RoleSpec,
    Schema,
    Span,
    Template,
    find_normalized,
    normalizer,
)

DOCUMENT_KEYS = ("doctext", "templates")
SCHEMA_KEYS = ("roles",)
ROLE_KEYS = ("name", "kind", "values", "multi")


def read_json(path: str, what: str, object_pairs_hook=None):
    """The JSON value in ``path``; any failure to read it is a ``ParseError``.

    ``ValueError`` covers malformed JSON, bytes that are not UTF-8 and an
    integer over the interpreter's digit limit; ``RecursionError`` covers
    nesting too deep for the decoder.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=object_pairs_hook)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(path, f"cannot read {what}: {exc}") from exc


def load_schema(path: str) -> Schema:
    return schema_from_dict(read_json(path, "schema", _decode_object), path=path)


def schema_from_dict(raw: Mapping, path: str = "<schema>") -> Schema:
    if not isinstance(raw, Mapping) or not isinstance(raw.get("roles"), list):
        raise ParseError(path, "schema must be an object with a 'roles' list")
    _check_keys(path, raw, None, SCHEMA_KEYS)
    roles = []
    for i, entry in enumerate(raw["roles"]):
        _check_keys(path, entry, f"role entry {i}", ROLE_KEYS)
        try:
            roles.append(_role_from_dict(entry))
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(path, f"bad role entry {entry!r}: {exc}", f"role entry {i}") from exc
    try:
        return Schema(tuple(roles))
    except ValueError as exc:
        raise ParseError(path, str(exc)) from exc


def _role_from_dict(entry) -> RoleSpec:
    if not isinstance(entry, Mapping):
        raise TypeError("a role entry must be an object")
    name = entry["name"]
    values = [] if entry.get("values") is None else entry["values"]
    multi = entry.get("multi", True)
    if not isinstance(name, str):
        raise TypeError(f"'name' must be a string, got {name!r}")
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"'values' must be a list of strings, got {values!r}")
    if not isinstance(multi, bool):
        raise TypeError(f"'multi' must be true or false, got {multi!r}")
    return RoleSpec(name=name, kind=RoleKind(entry["kind"]), values=tuple(values), multi=multi)


def schema_to_dict(schema: Schema) -> dict:
    roles = []
    for role in schema:
        entry: dict = {"name": role.name, "kind": role.kind.value}
        if role.kind is RoleKind.SET_FILL:
            entry["values"] = list(role.values)
        else:
            entry["multi"] = role.multi
        roles.append(entry)
    return {"roles": roles}


class _SideReader:
    """One pass over the decoded objects of one corpus side.

    The schema becomes a role table once per side, with each set-fill
    inventory normalized into a set; texts go through the memoized
    ``normalizer``, so each distinct text is normalized once per process.
    ``json.load`` decodes every object to a dict, so the shape checks test
    for ``dict`` and ``list``.
    """

    def __init__(self, path: str, schema: Schema, gold: bool, casefold: bool):
        self.path = path
        self.gold = gold
        self.casefold = casefold
        self.normalize = normalizer(casefold)
        # role name -> (set-fill inventory or None for a string-fill role, multi)
        self.roles: dict[str, tuple[frozenset | None, bool]] = {
            role.name: (
                frozenset(map(self.normalize, role.values)) if role.kind is RoleKind.SET_FILL else None,
                role.multi,
            )
            for role in schema
        }

    def template(self, raw, doc_text: str, doc_id: str, index: int) -> Template:
        location = f"doc '{doc_id}' template {index}"
        if not isinstance(raw, dict):
            raise ParseError(self.path, f"template must be an object, got {raw!r}", location)
        _check_keys(self.path, raw, location)
        fillers: dict = {}
        for role_name, value in raw.items():
            role = self.roles.get(role_name)
            if role is None:
                raise SchemaMismatch(self.path, role_name, location)
            inventory, multi = role
            where = f"{location} role '{role_name}'"
            if inventory is not None:
                if not isinstance(value, str):
                    raise ParseError(self.path, f"set-fill filler must be a string, got {value!r}", where)
                if self.normalize(value) not in inventory:
                    log(WARNING, "%s: value %r is not in the role inventory", where, value)
                fillers[role_name] = value
                continue
            if not isinstance(value, list):
                raise ParseError(self.path, f"string-fill filler must be a list, got {value!r}", where)
            if self.gold:
                fillers[role_name] = self.entities(value, doc_text, where)
            else:
                # Duplicate identical strings are preserved so duplicate
                # role filler errors stay observable.
                fillers[role_name] = tuple(self.mention(m, doc_text, where) for m in value)
            if not multi and len(fillers[role_name]) > 1:
                log(WARNING, "%s: multiple fillers for a single-fill role", where)
        return Template(fillers)

    def entities(self, value: list, doc_text: str, where: str) -> tuple[GoldEntity, ...]:
        entities = []
        for ent in value:
            if not isinstance(ent, list) or not ent:
                raise ParseError(self.path, f"gold entity must be a non-empty mention list, got {ent!r}", where)
            entities.append(GoldEntity(tuple(self.mention(m, doc_text, where) for m in ent)))
        seen: set[str] = set()
        for entity in entities:
            for mention in entity.mentions:
                key = self.normalize(mention.text)
                if key in seen:
                    log(WARNING, "%s: mention %r appears in two entities", where, mention.text)
                seen.add(key)
        return tuple(entities)

    def mention(self, raw, doc_text: str, where: str) -> Mention:
        if not isinstance(raw, dict) or "text" not in raw:
            raise ParseError(self.path, "mention must be an object with 'text'", where)
        _check_keys(self.path, raw, where)
        text = raw["text"]
        if not isinstance(text, str):
            raise ParseError(self.path, f"mention text must be a string, got {text!r}", where)
        start, end = raw.get("start"), raw.get("end")
        if start is None and end is None:
            # No offsets at all: resolve_document_spans locates the mention later.
            return Mention(text)
        # Offsets come as a pair of true ints; a lone offset, a float (which
        # int() would truncate) or a bool (which int() turns into 0/1) is invalid.
        if not (type(start) is int and type(end) is int and 0 <= start <= end):
            log(WARNING, "%s: invalid offsets [%r, %r) for %r, re-locating", where, start, end, text)
            return self.relocate(text, doc_text)
        if end > len(doc_text):
            log(WARNING, "%s: span [%d, %d) falls outside the document, re-locating", where, start, end)
            return self.relocate(text, doc_text)
        found = doc_text[start:end]
        if found != text and self.normalize(found) != self.normalize(text):
            log(WARNING, "%s: text %r does not match the document at [%d, %d), re-locating", where, text, start, end)
            return self.relocate(text, doc_text)
        return Mention(text, Span(start, end))

    def relocate(self, text: str, doc_text: str) -> Mention:
        # Declared offsets that disagree with the text are a warning, not a
        # hard error: fall back to searching for the first occurrence.
        return Mention(text, find_normalized(text, doc_text, self.casefold))


class _RepeatedKeys(dict):
    """A decoded JSON object that names some of its keys more than once."""

    def __init__(self, pairs: list, repeated: list[str]):
        super().__init__(pairs)
        self.repeated = repeated


def _decode_object(pairs: list) -> dict:
    # json.load keeps the last value of a repeated key without a word.
    decoded = dict(pairs)
    if len(decoded) == len(pairs):
        return decoded
    counts = Counter(key for key, _ in pairs)
    return _RepeatedKeys(pairs, [key for key in decoded if counts[key] > 1])


def _check_keys(path: str, raw, where: str | None, known: tuple[str, ...] | None = None):
    """``raw``, unless it names a key twice or, when ``known`` is given, a key not in it; ``where`` locates it."""
    if type(raw) is _RepeatedKeys:
        raise ParseError(path, f"key '{raw.repeated[0]}' appears more than once", where)
    if known is not None and isinstance(raw, Mapping):
        for key in raw:
            if key not in known:
                raise ParseError(path, f"unknown key '{key}'; known: {', '.join(known)}", where)
    return raw


def load_side(path: str, schema: Schema, gold: bool, casefold: bool = True) -> dict[str, tuple[str, tuple[Template, ...]]]:
    """Load one side (gold or predicted) of a corpus.

    Returns doc id -> (document text, templates). A doc id given twice,
    a document entry key other than ``doctext`` and ``templates``, a
    ``doctext`` that is not a string, and ``templates`` that is not a
    list of objects are parse errors; an absent ``templates`` is empty.
    """
    raw = read_json(path, "corpus", _decode_object)
    if not isinstance(raw, dict):
        raise ParseError(path, "corpus must be an object keyed by document id")
    repeated = getattr(raw, "repeated", None)
    if repeated:
        raise ParseError(path, "doc id appears more than once", f"doc '{repeated[0]}'")
    reader = _SideReader(path, schema, gold, casefold)
    side: dict[str, tuple[str, tuple[Template, ...]]] = {}
    for doc_id, entry in raw.items():
        where = f"doc '{doc_id}'"
        if not isinstance(entry, dict) or "doctext" not in entry:
            raise ParseError(path, "document entry needs 'doctext'", where)
        _check_keys(path, entry, where, DOCUMENT_KEYS)
        text = entry["doctext"]
        if not isinstance(text, str):
            raise ParseError(path, f"'doctext' must be a string, got {text!r}", where)
        raw_templates = entry.get("templates", [])
        if not isinstance(raw_templates, list):
            raise ParseError(path, f"'templates' must be a list, got {raw_templates!r}", where)
        templates = tuple(reader.template(t, text, doc_id, i) for i, t in enumerate(raw_templates))
        side[doc_id] = (text, templates)
    return side


def merge_sides(
    gold_side: Mapping[str, tuple[str, tuple[Template, ...]]],
    pred_side: Mapping[str, tuple[str, tuple[Template, ...]]],
    pred_path: str = "<predictions>",
) -> list[Document]:
    """Combine the two sides into documents, keyed and ordered by doc id.

    Predicted doc ids must be a subset of gold's; documents without
    predictions get an empty predicted template list.
    """
    unknown = sorted(set(pred_side) - set(gold_side))
    if unknown:
        raise ParseError(pred_path, f"doc ids not present in the gold corpus: {unknown}")
    documents = []
    for doc_id in sorted(gold_side):
        text, gold_templates = gold_side[doc_id]
        pred_entry = pred_side.get(doc_id)
        pred_templates: tuple[Template, ...] = ()
        if pred_entry is not None:
            pred_text, pred_templates = pred_entry
            if pred_text != text:
                log(WARNING, "doc '%s': predicted doctext differs from gold, using gold", doc_id)
        documents.append(Document(doc_id, text, gold_templates, pred_templates))
    return documents


def load_corpus(gold_path: str, pred_path: str, schema: Schema, casefold: bool = True) -> list[Document]:
    gold_side = load_side(gold_path, schema, gold=True, casefold=casefold)
    pred_side = load_side(pred_path, schema, gold=False, casefold=casefold)
    return merge_sides(gold_side, pred_side, pred_path)


def _mention_to_dict(mention: Mention) -> dict:
    out: dict = {"text": mention.text}
    if mention.span is not None:
        out["start"] = mention.span.start
        out["end"] = mention.span.end
    return out


def _template_to_dict(template: Template, gold: bool) -> dict:
    out: dict = {}
    for role, value in template.role_fillers.items():
        if isinstance(value, str):
            out[role] = value
        elif gold:
            out[role] = [[_mention_to_dict(m) for m in ent.mentions] for ent in value]
        else:
            out[role] = [_mention_to_dict(m) for m in value]
    return out


def side_to_dict(documents: list[Document], gold: bool) -> dict:
    out: dict = {}
    for doc in documents:
        templates = doc.gold_templates if gold else doc.predicted_templates
        out[doc.doc_id] = {
            "doctext": doc.text,
            "templates": [_template_to_dict(t, gold) for t in templates],
        }
    return out

