"""Deriving and replaying the transformation sequence for a matched document.

The eight transformation kinds rewrite the predicted templates into the
gold templates. Each predicted filler of a matched template pair that is
not an exact match gets the first explanation that holds, in this one
precedence: its own role pairing paired it partially (span error); a
duplicate of an entity that role already matched; the wrong role in the
same template; the right role in another template; the wrong role in
another template; otherwise spurious. Each unmatched gold filler is
introduced. Pure alterations (span fixes, role moves inside a template)
are applied before everything else; the remaining transformations follow
in detection order: matched template pairs by predicted index, roles in
schema order, fillers in list order, then unmatched templates.

The replay holds each predicted template as one ``role -> list`` map (a
set-fill value is a one-item list, a consumed filler None, an introduced
filler appended). Any edit naming a template, filler or gold entity that
does not exist or is already gone raises InconsistentLog.
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


_PRED_FILLER_KINDS = {
    TransformKind.ALTER_SPAN,
    TransformKind.ALTER_ROLE,
    TransformKind.REMOVE_DUPLICATE_ROLE_FILLER,
    TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER,
    TransformKind.REMOVE_SPURIOUS_ROLE_FILLER,
}

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

    def subject_key(self) -> tuple:
        if self.kind in _PRED_FILLER_KINDS:
            return ("pred", self.pred_template, self.role, self.filler)
        if self.kind is TransformKind.INTRODUCE_ROLE_FILLER:
            return ("intro", self.gold_template, self.gold_role, self.gold_entity)
        if self.kind is TransformKind.REMOVE_TEMPLATE:
            return ("remove_template", self.pred_template)
        return ("introduce_template", self.gold_template)


@record(frozen=True)
class TransformationLog:
    doc_id: str
    entries: tuple[Transformation, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def groups(self) -> list[list[Transformation]]:
        """Transformations bucketed by subject, in first-occurrence order.

        A group is the full edit applied to one filler (for example an
        alter-span plus the removal it precedes); each group maps to one
        error type.
        """
        order: dict[tuple, list[Transformation]] = {}
        for entry in self.entries:
            order.setdefault(entry.subject_key(), []).append(entry)
        return list(order.values())


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
) -> list[Transformation]:
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
        return [Transformation(TransformKind.REMOVE_SPURIOUS_ROLE_FILLER, **subject)]
    (stage, partial, gold_index, _, entity_index), gold_role, target = best
    return [
        Transformation(
            kind,
            gold_template=gold_index,
            gold_role=gold_role,
            gold_entity=entity_index,
            gold_mention=target,
            **subject,
        )
        for kind in ((TransformKind.ALTER_SPAN,) if partial else ()) + _STAGES[stage]
    ]


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
    """Transformation sequence rewriting the predictions into the gold templates.

    ``index`` is the document's match index, built here when not given.
    """
    config = config or AnalysisConfig()
    if index is None:
        index = MatchIndex.for_document(doc, schema, config)
    role_rank = {role.name: rank for rank, role in enumerate(schema.string_fill_roles)}
    alterations: list[Transformation] = []
    removals: list[Transformation] = []

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
                if all(t.kind not in _REMOVAL_KINDS for t in group):
                    alterations.extend(group)
                else:
                    removals.extend(group)
            for entity_index in missing:
                removals.append(_introduce(pair, gold_template, role.name, entity_index))

    for pred_index in matching.spurious_templates:
        count = sum(doc.predicted_templates[pred_index].filler_row(schema))
        removals.append(Transformation(TransformKind.REMOVE_TEMPLATE, pred_template=pred_index, filler_count=count))
    for gold_index in matching.missing_templates:
        count = sum(doc.gold_templates[gold_index].filler_row(schema))
        removals.append(Transformation(TransformKind.INTRODUCE_TEMPLATE, gold_template=gold_index, filler_count=count))

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
    """Replay a transformation log over the document's predictions.

    Each predicted template is held as one ``role -> list`` map: a
    set-fill value is a one-item list, a consumed filler becomes None,
    an introduced filler is appended, and a removed template becomes
    None. The result matches the gold templates up to the choice of
    canonical mention per entity. Any edit naming a template, filler or
    gold entity that does not exist or is already gone raises
    InconsistentLog, and so does an edit listed twice or one with no gold
    mention to adopt: that signals a bug in the log producer rather than
    an expected input condition.
    """
    templates: list[dict | None] = [
        {role: [value] if isinstance(value, str) else list(value) for role, value in t.role_fillers.items()}
        for t in doc.predicted_templates
    ]
    introduced: list[Template] = []

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

    def replace_subject(entry: Transformation, set_fill: bool, value: Mention | None) -> None:
        """Put ``value`` in place of the entry's subject filler, which must still be there; a set-fill value is at 0."""
        fillers = predicted(entry).get(entry.role, [])
        position = 0 if set_fill else entry.filler
        at(fillers, position, str if set_fill else Mention, f"filler of role '{entry.role}' at")
        fillers[position] = value

    def introduce(template: dict, entry: Transformation) -> None:
        """Append the entry's gold mention to its gold role, unless a filler there already covers the entity."""
        entity = at(gold(entry).entities(entry.gold_role), entry.gold_entity, GoldEntity, "gold entity")
        fillers = template.setdefault(entry.gold_role, [])
        if not any(
            isinstance(f, Mention) and texts_match(f.text, g.text, casefold) for f in fillers for g in entity.mentions
        ):
            fillers.append(target(entry))

    for group in log.groups():
        entry = group[0]
        kinds = {e.kind for e in group}
        if len(kinds) != len(group):
            raise InconsistentLog(f"{log.doc_id}: an edit of {entry.subject_key()} is listed twice")
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
        elif kinds == {TransformKind.ALTER_SPAN}:
            replace_subject(entry, set_fill=False, value=target(entry))
        else:
            replace_subject(entry, set_fill=entry.filler is None, value=None)
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
