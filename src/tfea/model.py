"""Core data model: documents, schemas, templates, and text canonicalization.

Gold and predicted templates share one shape, but their string-fill
fillers differ: gold roles hold entities (sets of coreferent mentions,
one per real-world referent) while predicted roles hold bare mentions,
since system output carries no coreference structure.
"""

from __future__ import annotations

import operator
import re
import unicodedata
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Mapping


class Factory:
    """A ``record`` field default built anew for each instance, as in ``Factory(dict)``."""

    def __init__(self, make: Callable[[], object]):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


def record(cls=None, *, frozen: bool = False):
    """Class decorator: a slotted class whose fields are its annotations, in order.

    Returns a new class, as ``@dataclass(slots=True)`` does for the same
    flags, with the same behaviour: ``__slots__`` are the fields, so an
    instance has no ``__dict__`` and takes no other attribute; ``__init__``
    (a class attribute is a field's default, which only ``__init__``
    keeps; a ``Factory`` one is called per instance; ``__post_init__`` runs
    last), ``__repr__``, ``__eq__`` on field tuples of one class, and for
    ``frozen`` a field-tuple ``__hash__`` and no assignment; a mutable
    record is unhashable. ``__reduce__`` pickles and copies a record as
    its class and field tuple, so unpickling calls ``__init__`` again.
    Only the methods that name fields are compiled, in one ``exec`` (where
    ``@dataclass`` takes six and imports ``inspect``), and a frozen
    ``__init__`` writes each field through its slot's descriptor.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    kept = {key: value for key, value in cls.__dict__.items() if key not in (*names, "__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__, {**kept, "__slots__": names, "__qualname__": cls.__qualname__})
    ns = {f"_d_{name}": value for name, value in defaults.items()}
    params = [f"{name}=_d_{name}" if name in defaults else name for name in names]
    body = [f"{name} = _d_{name}.make() if {name} is _d_{name} else {name}"
            for name, value in defaults.items() if isinstance(value, Factory)]
    body += [f"_set_{name}(self, {name})" if frozen else f"self.{name} = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "(" + "".join(f"self.{name}," for name in names) + ")"
    theirs = "(" + "".join(f"other.{name}," for name in names) + ")"
    compare = "(self, other):\n if other.__class__ is self.__class__: return {} {} {}\n return NotImplemented"
    methods = {
        "__init__": f"(self, {', '.join(params)}):\n " + "\n ".join(body),
        "__eq__": compare.format(mine, "==", theirs),
        "__reduce__": f"(self): return self.__class__, {mine}",
    }
    if frozen:
        methods["__hash__"] = f"(self): return hash({mine})"
        ns.update({f"_set_{name}": cls.__dict__[name].__set__ for name in names})
        cls.__setattr__ = cls.__delattr__ = _frozen_write
    exec("".join(f"def {method}{code}\n" for method, code in methods.items()), ns)
    for method in methods:
        ns[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, ns[method])
    cls.__init__.__annotations__ = {**annotations, "return": None}
    if not frozen:
        cls.__hash__ = None
    cls.__repr__, cls.__match_args__ = _record_repr, names
    return cls


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _frozen_write(self, name, *value):
    """A frozen record's ``__setattr__`` (called with a value) and ``__delattr__`` (without)."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def normalize(text: str, casefold: bool = True) -> str:
    """Canonicalize a string for exact-match comparison.

    Applies Unicode composition (NFC), trims and collapses whitespace
    runs to single spaces, and case-folds unless ``casefold`` is False.
    Idempotent; a text that is already canonical is returned as itself.
    ``normalizer`` gives its memoized form.
    """
    canonical = " ".join(unicodedata.normalize("NFC", text).split())
    canonical = canonical.casefold() if casefold else canonical
    return text if canonical == text else canonical


_NORMALIZERS = {casefold: lru_cache(maxsize=4096)(partial(normalize, casefold=casefold)) for casefold in (True, False)}


def normalizer(casefold: bool = True) -> Callable[[str], str]:
    """``normalize`` of one setting, memoized per process.

    The loader, span resolution and the matcher normalize every mention
    text through it and share its memo, which is keyed by the text alone
    and keeps the 4,096 most recently used texts of the setting, so a
    long-lived process cannot grow it without bound.
    """
    return _NORMALIZERS[casefold]


def texts_match(a: str, b: str, casefold: bool = True) -> bool:
    return normalize(a, casefold) == normalize(b, casefold)


class RoleKind(str, Enum):
    SET_FILL = "set_fill"
    STRING_FILL = "string_fill"


@record(frozen=True)
class RoleSpec:
    """One role of a template schema.

    Set-fill roles take exactly one value from a fixed inventory;
    string-fill roles take document spans and may allow multiple fillers.
    """

    name: str
    kind: RoleKind
    values: tuple[str, ...] = ()
    multi: bool = True

    def __post_init__(self):
        if type(self.values) is not tuple:
            object.__setattr__(self, "values", tuple(self.values))
        if self.kind is RoleKind.SET_FILL:
            if not self.values:
                raise ValueError(f"set-fill role '{self.name}' needs a value inventory")
            object.__setattr__(self, "multi", False)
        elif self.values:
            raise ValueError(f"string-fill role '{self.name}' cannot list allowed values")


@record(frozen=True)
class Schema:
    """Ordered role list; the order drives matching and transformation detection."""

    roles: tuple[RoleSpec, ...]

    def __post_init__(self):
        if type(self.roles) is not tuple:
            object.__setattr__(self, "roles", tuple(self.roles))
        names = [r.name for r in self.roles]
        if len(set(names)) != len(names):
            raise ValueError("role names must be unique within a schema")

    def __iter__(self):
        return iter(self.roles)

    def __contains__(self, name: str) -> bool:
        return any(r.name == name for r in self.roles)

    def role(self, name: str) -> RoleSpec:
        for r in self.roles:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.roles)

    @property
    def string_fill_roles(self) -> tuple[RoleSpec, ...]:
        return tuple(r for r in self.roles if r.kind is RoleKind.STRING_FILL)

    @property
    def set_fill_roles(self) -> tuple[RoleSpec, ...]:
        return tuple(r for r in self.roles if r.kind is RoleKind.SET_FILL)


@record(frozen=True)
class Span:
    """Half-open character interval [start, end) into a document text."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlap(self, other: "Span") -> int:
        return min(self.end, other.end) - max(self.start, other.start)


@record(frozen=True)
class Mention:
    """A string filler, optionally located in the document by a span."""

    text: str
    span: Span | None = None


@record(frozen=True)
class GoldEntity:
    """A non-empty set of coreferent gold mentions; counts once toward recall."""

    mentions: tuple[Mention, ...]

    def __post_init__(self):
        if type(self.mentions) is not tuple:
            object.__setattr__(self, "mentions", tuple(self.mentions))
        if not self.mentions:
            raise ValueError("an entity needs at least one mention")

    @property
    def canonical(self) -> Mention:
        return self.mentions[0]


@record(frozen=True)
class Template:
    """Role name to filler: a set-fill str, or a tuple of gold entities or predicted mentions; absent means empty."""

    role_fillers: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(self, "role_fillers", dict(self.role_fillers))

    def set_fill(self, role: str) -> str | None:
        value = self.role_fillers.get(role)
        return value if isinstance(value, str) else None

    def entities(self, role: str) -> tuple:
        """The gold entities, or on a predicted template the mentions, filling ``role``; () for none or a set fill."""
        value = self.role_fillers.get(role)
        return tuple(value) if isinstance(value, (tuple, list)) else ()

    mentions = entities

    def filler_row(self, schema: Schema) -> list[int]:
        """Number of fillers of each role, in schema order (1 per set-fill value, 1 per mention/entity)."""
        return [
            int(self.set_fill(role.name) is not None) if role.kind is RoleKind.SET_FILL
            else len(self.mentions(role.name))
            for role in schema
        ]


@record(frozen=True)
class Document:
    """One document with its gold and predicted template lists.

    Either list may be empty; the number of templates is part of what a
    system must predict.
    """

    doc_id: str
    text: str
    gold_templates: tuple[Template, ...] = ()
    predicted_templates: tuple[Template, ...] = ()

    def __post_init__(self):
        for name in ("gold_templates", "predicted_templates"):
            if type(getattr(self, name)) is not tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))


def find_normalized(text: str, doc_text: str, casefold: bool = True) -> Span | None:
    """First occurrence of ``text`` in ``doc_text`` under normalized comparison.

    ``text`` is normalized (NFC, whitespace collapsed, case-folded unless
    ``casefold`` is False) and split into tokens; ``doc_text`` is searched
    as it is, without NFC. The match is the first, by start offset, where
    the tokens occur in order, each pair of neighbours separated by one
    run of any whitespace characters. Letters compare case-insensitively
    unless ``casefold`` is False (the ``case_sensitive`` setting). A match
    may start or end inside a word. Returns None for a blank ``text`` or
    when there is no match.

    ``re.IGNORECASE`` folds one character at a time, so a case-folded
    token in which a letter changed length (``ß`` to ``ss``, ``ﬁ`` to
    ``fi``, ``İ`` to ``i`` and a dot above) no longer finds the letter as
    written. With ``casefold`` on, the tokens of ``normalize(text,
    casefold=False)`` are therefore searched too, and the earlier match
    by ``(start, end)`` wins.

    ASCII inputs are scanned token by token with no regex: there each
    token starts with a non-space character, so a whitespace gap can only
    be the whole run, and ``lower()`` is the regex's case-insensitivity;
    an unfolded letter whose folded form is ASCII matches no ASCII letter
    its folded form does not. Any other input goes through the regex,
    whose ``re.IGNORECASE`` matching (``ſ`` and ``s``, Kelvin sign and
    ``k``) ``lower()`` does not reproduce.
    """
    return _searcher(doc_text, casefold)(text)


def _searcher(doc_text: str, casefold: bool) -> Callable[[str], Span | None]:
    """``find_normalized`` over one document text, prepared once for many searches."""
    hay = None
    if doc_text.isascii():
        hay = doc_text.lower() if casefold else doc_text
    flags = re.IGNORECASE if casefold else 0

    norm, as_written = normalizer(casefold), normalizer(False)

    def find(text: str) -> Span | None:
        key = norm(text)
        if not key:
            return None
        if hay is not None and key.isascii():
            return _scan_tokens(key.split(" "), hay)
        # With casefold off the two keys are equal, and one search runs.
        patterns = {r"\s+".join(map(re.escape, k.split(" "))) for k in (key, as_written(text))}
        found = [m.span() for pattern in patterns if (m := re.search(pattern, doc_text, flags))]
        return Span(*min(found)) if found else None

    return find


def _scan_tokens(tokens: list[str], hay: str) -> Span | None:
    """First span of ``hay`` where ``tokens`` occur separated by whitespace runs."""
    first, rest = tokens[0], tokens[1:]
    start = hay.find(first)
    while start != -1:
        end = start + len(first)
        for token in rest:
            gap = end
            while gap < len(hay) and hay[gap].isspace():
                gap += 1
            if gap == end or not hay.startswith(token, gap):
                break
            end = gap + len(token)
        else:
            return Span(start, end)
        start = hay.find(first, start + 1)
    return None


def resolve_document_spans(doc: Document, casefold: bool = True) -> Document:
    """Return the document with every locatable mention span filled in.

    Only what gains a span is rebuilt: a located mention becomes
    ``Mention(text, span)``, and the entities, filler tuples and templates
    that hold one are new objects. Every other filler tuple, entity and
    template is returned as it is (the same object), and so is the
    document when nothing in it is located. The document text is
    prepared for searching once.
    """
    find = _searcher(doc.text, casefold)

    def locate(mention: Mention) -> Mention:
        if mention.span is not None:
            return mention
        span = find(mention.text)
        return mention if span is None else Mention(mention.text, span)

    def locate_item(item):
        if not isinstance(item, GoldEntity):
            return locate(item)
        mentions = tuple(map(locate, item.mentions))
        if all(map(operator.is_, mentions, item.mentions)):
            return item
        return GoldEntity(mentions)

    def resolve_templates(templates: tuple[Template, ...]) -> tuple[Template, ...]:
        out = []
        for template in templates:
            located = {}
            for role, value in template.role_fillers.items():
                if isinstance(value, str):
                    continue
                items = tuple(map(locate_item, value))
                if type(value) is not tuple or not all(map(operator.is_, items, value)):
                    located[role] = items
            out.append(Template({**template.role_fillers, **located}) if located else template)
        if all(map(operator.is_, out, templates)):
            return templates
        return tuple(out)

    gold = resolve_templates(doc.gold_templates)
    predicted = resolve_templates(doc.predicted_templates)
    if gold is doc.gold_templates and predicted is doc.predicted_templates:
        return doc
    return Document(doc.doc_id, doc.text, gold, predicted)
