"""Deriving and replaying the transformation sequence for a matched document.

The eight transformation kinds rewrite the predicted templates into the
gold templates. Each predicted filler of a matched template pair that is
not an exact match gets the first explanation that holds, in this one
precedence: its own role pairing paired it partially (span error); a
duplicate of an entity that role already matched; the wrong role in the
same template; the right role in another template; the wrong role in
another template; otherwise spurious. Each unmatched gold filler is
introduced. The log is its groups, one per error. Alteration groups (span
fixes, role moves inside a template) come first; the rest follow in
detection order: matched template pairs by predicted index, roles in
schema order, fillers in list order, then unmatched templates.

The replay holds each predicted template as one ``role -> list`` map (a
set-fill value is a one-item list, a consumed filler None, an introduced
filler appended). It removes templates, then fixes spans (consuming the
filler and appending the gold mention), then replays the other groups in
log order, so a role move sees the span fixes of its target role. An edit
of a template, filler or gold entity that does not exist or is already
gone, or a second introduction of one gold entity, raises InconsistentLog.
"""

from __future__ import annotations

from enum import Enum

from .config import AnalysisConfig
from .exceptions import InconsistentLog
from .matching import MatchIndex, TemplateMatching, TemplatePair
from .model import (
    Document,
    GoldEntity,
    Mention,
    RoleKind,
    Schema,
    Span,
    Template,
    record,
    texts_match,
)


class TransformKind(str, Enum):
    ALTER_SPAN = "alter_span"
    ALTER_ROLE = "alter_role"
    REMOVE_DUPLICATE_ROLE_FILLER = "remove_duplicate_role_filler"
    REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER = "remove_cross_template_spurious_role_filler"
    REMOVE_SPURIOUS_ROLE_FILLER = "remove_spurious_role_filler"
    INTRODUCE_ROLE_FILLER = "introduce_role_filler"
    REMOVE_TEMPLATE = "remove_template"
    INTRODUCE_TEMPLATE = "introduce_template"


_REMOVAL_KINDS = {
    TransformKind.REMOVE_DUPLICATE_ROLE_FILLER,
    TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER,
    TransformKind.REMOVE_SPURIOUS_ROLE_FILLER,
}


@record(frozen=True)
class Transformation:
    """One atomic edit.

    The subject is a predicted filler (template index, role, filler
    index); set-fill subjects have no filler index. Targets reference a
    gold template, role, entity, and the concrete mention adopted by
    span alteration or introduction.
    """

    kind: TransformKind
    pred_template: int | None = None
    role: str | None = None
    filler: int | None = None
    pred_text: str | None = None
    pred_span: Span | None = None
    gold_template: int | None = None
    gold_role: str | None = None
    gold_entity: int | None = None
    gold_mention: Mention | None = None
    filler_count: int | None = None


@record(frozen=True)
class TransformationLog:
    """A document's transformation groups, one per error; iterating, ``len`` and ``entries`` see their edits."""

    doc_id: str
    groups: tuple[tuple[Transformation, ...], ...]

    @property
    def entries(self) -> tuple[Transformation, ...]:
        return tuple(self)

    def __iter__(self):
        return (entry for group in self.groups for entry in group)

    def __len__(self):
        return sum(map(len, self.groups))


# The kinds of each stage of the precedence, after any alter-span: 0 own
# partial pair; 1 duplicate (same gold template and role as the pairing);
# 2 same template, another role; 3 another template, same role; 4 both.
_STAGES = (
    (),
    (TransformKind.REMOVE_DUPLICATE_ROLE_FILLER,),
    (TransformKind.ALTER_ROLE,),
    (TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER,),
    (TransformKind.ALTER_ROLE, TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER),
)


def _explain_filler(
    role_rank: dict[str, int],
    index: MatchIndex,
    pair: TemplatePair,
    role_name: str,
    filler_index: int | None,
    mention: Mention,
) -> tuple[Transformation, ...]:
    """The group of edits that explains a predicted filler that is not an exact match.

    Stages follow the module's precedence; plain spurious is last. In one
    loop over the filler's index row, an exact match beats a partial one
    within a stage, then the lowest gold template, role (schema order) and
    entity index wins. A partial match is preceded by an alter-span onto
    the arg-min gold mention (for a partial pair, the pair's ``gold_mention``).

    A mismatched set-fill value comes with ``filler_index`` None and
    ``Mention(value)``; the match index has no rows for set-fill roles,
    so it is always plain spurious, with no filler index or span.
    """
    pairs = pair.role_pairings[role_name] if filler_index is not None else ()
    own = next((p for p in pairs if p.pred_index == filler_index), None)
    if own is not None:
        best = ((0, True, pair.gold_index, role_rank[role_name], own.entity_index), role_name, own.gold_mention)
    else:
        best = None
        matched_entities = [p.entity_index for p in pairs]
        cells = index.row((pair.pred_index, role_name, filler_index))
        for ((gold_index, gold_role), entity_index), match in cells.items():
            stage = 1 + 2 * (gold_index != pair.gold_index) + (gold_role != role_name)
            if stage == 1 and entity_index not in matched_entities:
                continue
            key = (stage, not match.exact, gold_index, role_rank[gold_role], entity_index)
            if best is None or key < best[0]:
                best = (key, gold_role, match.gold_mention)
    subject = dict(
        pred_template=pair.pred_index,
        role=role_name,
        filler=filler_index,
        pred_text=mention.text,
        pred_span=mention.span,
    )
    if best is None:
        return (Transformation(TransformKind.REMOVE_SPURIOUS_ROLE_FILLER, **subject),)
    (stage, partial, gold_index, _, entity_index), gold_role, target = best
    return tuple(
        Transformation(
            kind,
            gold_template=gold_index,
            gold_role=gold_role,
            gold_entity=entity_index,
            gold_mention=target,
            **subject,
        )
        for kind in ((TransformKind.ALTER_SPAN,) if partial else ()) + _STAGES[stage]
    )


def _introduce(pair: TemplatePair, gold_template: Template, role_name: str, entity_index: int | None) -> Transformation:
    """Introduction of a gold filler the pair's prediction lacks; entity index None is the set-fill value."""
    if entity_index is None:
        target = Mention(gold_template.set_fill(role_name))
    else:
        target = gold_template.entities(role_name)[entity_index].canonical
    return Transformation(
        TransformKind.INTRODUCE_ROLE_FILLER,
        pred_template=pair.pred_index,
        role=role_name,
        gold_template=pair.gold_index,
        gold_role=role_name,
        gold_entity=entity_index,
        gold_mention=target,
    )


def derive_transformations(
    doc: Document,
    schema: Schema,
    matching: TemplateMatching,
    config: AnalysisConfig | None = None,
    index: MatchIndex | None = None,
) -> TransformationLog:
    """The transformation groups rewriting the predictions into the gold templates.

    ``index`` is the document's match index, built here when not given.
    """
    config = config or AnalysisConfig()
    if index is None:
        index = MatchIndex.for_document(doc, schema, config)
    role_rank = {role.name: rank for rank, role in enumerate(schema.string_fill_roles)}
    alterations: list[tuple[Transformation, ...]] = []
    removals: list[tuple[Transformation, ...]] = []

    for pair in matching.pairs:
        pred_template = doc.predicted_templates[pair.pred_index]
        gold_template = doc.gold_templates[pair.gold_index]
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                if role.name in pair.matched_set_roles:
                    continue
                value = pred_template.set_fill(role.name)
                unexplained = () if value is None else ((None, Mention(value)),)
                missing = () if gold_template.set_fill(role.name) is None else (None,)
            else:
                pairs = pair.role_pairings[role.name]
                exact = {p.pred_index for p in pairs if p.exact}
                unexplained = [(i, m) for i, m in enumerate(pred_template.mentions(role.name)) if i not in exact]
                paired = {p.entity_index for p in pairs}
                missing = [j for j in range(len(gold_template.entities(role.name))) if j not in paired]
            for filler_index, mention in unexplained:
                group = _explain_filler(role_rank, index, pair, role.name, filler_index, mention)
                (removals if any(t.kind in _REMOVAL_KINDS for t in group) else alterations).append(group)
            removals.extend((_introduce(pair, gold_template, role.name, entity_index),) for entity_index in missing)

    for pred_index in matching.spurious_templates:
        n = sum(doc.predicted_templates[pred_index].filler_row(schema))
        removals.append((Transformation(TransformKind.REMOVE_TEMPLATE, pred_template=pred_index, filler_count=n),))
    for gold_index in matching.missing_templates:
        n = sum(doc.gold_templates[gold_index].filler_row(schema))
        removals.append((Transformation(TransformKind.INTRODUCE_TEMPLATE, gold_template=gold_index, filler_count=n),))

    return TransformationLog(doc.doc_id, tuple(alterations + removals))


def canonical_template(gold_template: Template) -> Template:
    """Reduce a gold template to one canonical mention per entity."""
    fillers: dict = {}
    for role, value in gold_template.role_fillers.items():
        if isinstance(value, str):
            fillers[role] = value
        else:
            fillers[role] = tuple(entity.canonical for entity in value)
    return Template(fillers)


def apply_transformations(
    doc: Document, log: TransformationLog, casefold: bool = True
) -> tuple[Template, ...]:
    """Replay a transformation log over the document's predictions, in the module's replay order.

    The result matches the gold templates up to the choice of canonical
    mention per entity. Besides the faults the module names, an edit with
    no gold mention to adopt and a group that is empty, lists an edit
    twice or edits two subjects raise InconsistentLog: that signals a bug
    in the log producer rather than an expected input condition.
    """
    templates: list[dict | None] = [
        {role: [value] if isinstance(value, str) else list(value) for role, value in t.role_fillers.items()}
        for t in doc.predicted_templates
    ]
    introduced: list[Template] = []
    introduced_entities: set[tuple] = set()

    def at(items, position, kind: type, what: str):
        """``items[position]``, which must exist and be a ``kind``; a consumed or removed item is None."""
        if type(position) is not int or not 0 <= position < len(items) or not isinstance(items[position], kind):
            raise InconsistentLog(f"{log.doc_id}: {what} {position!r} does not exist or is already gone")
        return items[position]

    def predicted(entry: Transformation) -> dict:
        return at(templates, entry.pred_template, dict, "predicted template")

    def gold(entry: Transformation) -> Template:
        return at(doc.gold_templates, entry.gold_template, Template, "gold template")

    def target(entry: Transformation) -> Mention:
        if not isinstance(entry.gold_mention, Mention):
            raise InconsistentLog(f"{log.doc_id}: {entry.kind.value} has no gold mention to adopt")
        return entry.gold_mention

    def consume(entry: Transformation, set_fill: bool) -> list:
        """Consume the subject filler, which must still be there (a set-fill value is at 0); return its role's list."""
        fillers = predicted(entry).get(entry.role, [])
        position = 0 if set_fill else entry.filler
        at(fillers, position, str if set_fill else Mention, f"filler of role '{entry.role}' at")
        fillers[position] = None
        return fillers

    def introduce(template: dict, entry: Transformation) -> None:
        """Append the entry's gold mention to its gold role, unless a filler there already covers the entity."""
        entity = at(gold(entry).entities(entry.gold_role), entry.gold_entity, GoldEntity, "gold entity")
        fillers = template.setdefault(entry.gold_role, [])
        if not any(
            isinstance(f, Mention) and texts_match(f.text, g.text, casefold) for f in fillers for g in entity.mentions
        ):
            fillers.append(target(entry))

    def rank(group: tuple[Transformation, ...]) -> int:
        kinds = {e.kind for e in group}
        return 0 if TransformKind.REMOVE_TEMPLATE in kinds else 1 if kinds == {TransformKind.ALTER_SPAN} else 2

    for group in sorted(log.groups, key=rank):
        kinds = {e.kind for e in group}
        if len(kinds) != len(group) or len({(e.pred_template, e.role, e.filler) for e in group}) != 1:
            raise InconsistentLog(f"{log.doc_id}: a group is empty, lists an edit twice or edits two subjects")
        entry = group[0]
        if TransformKind.REMOVE_TEMPLATE in kinds:
            predicted(entry)
            templates[entry.pred_template] = None
        elif TransformKind.INTRODUCE_TEMPLATE in kinds:
            introduced.append(canonical_template(gold(entry)))
        elif TransformKind.INTRODUCE_ROLE_FILLER in kinds:
            template = predicted(entry)
            if entry.gold_entity is not None:
                introduce(template, entry)
            elif any(f is not None for f in template.get(entry.role, ())):
                raise InconsistentLog(f"{log.doc_id}: introducing set-fill value over an existing one")
            else:
                gold(entry)
                template[entry.role] = [target(entry).text]
            entity = (entry.gold_template, entry.gold_role, entry.gold_entity)
            if entity in introduced_entities:
                raise InconsistentLog(f"{log.doc_id}: gold entity {entity} is introduced twice")
            introduced_entities.add(entity)
        elif kinds == {TransformKind.ALTER_SPAN}:
            consume(entry, set_fill=False).append(target(entry))
        else:
            consume(entry, set_fill=entry.filler is None)
            if TransformKind.ALTER_ROLE in kinds and not kinds & _REMOVAL_KINDS:
                introduce(predicted(entry), next(e for e in group if e.kind is TransformKind.ALTER_ROLE))

    result = []
    for template in templates:
        if template is not None:
            kept = {}
            for role, fillers in template.items():
                if live := [f for f in fillers if f is not None]:
                    kept[role] = live[0] if isinstance(live[0], str) else tuple(live)
            result.append(Template(kept))
    result.extend(introduced)
    return tuple(result)
