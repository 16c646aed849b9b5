"""Deriving and replaying the transformation sequence for a matched document.

The eight transformation kinds rewrite the predicted templates into the
gold templates. Pure alterations (span fixes on partially matched
fillers, role moves inside a template) are applied before everything
else; the remaining transformations follow in detection order: matched
template pairs by predicted index, roles in schema order, fillers in
list order, then unmatched templates.
"""

from __future__ import annotations

from enum import Enum

from .config import AnalysisConfig
from .exceptions import InconsistentLog
from .matching import MatchIndex, TemplateMatching, TemplatePair
from .model import (
    Document,
    Factory,
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
    filler_counts: dict | None = None

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


# The transformation kinds that explain an unmatched predicted filler,
# by stage, most local first: 0 a duplicate of an entity the role pairing
# already matched (same gold template, same role); 1 the same template,
# another role; 2 another template, the same role; 3 another template,
# another role.
_UNMATCHED_STAGES = (
    (TransformKind.REMOVE_DUPLICATE_ROLE_FILLER,),
    (TransformKind.ALTER_ROLE,),
    (TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER,),
    (TransformKind.ALTER_ROLE, TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER),
)


def _classify_unmatched(
    schema: Schema,
    index: MatchIndex,
    pair: TemplatePair,
    role_name: str,
    filler_index: int,
    mention: Mention,
    matched_entities: list[int],
) -> list[Transformation]:
    """Attribute an unmatched predicted filler to its most local explanation.

    Precedence: duplicate of a matched entity, wrong role in the same
    template, right role in another template, wrong role in another
    template, and finally plain spurious. Within each category an exact
    text match beats a partial span match, then the lowest gold
    template, role (in schema order) and entity index wins. A partial
    match is preceded by an alter-span onto the arg-min gold mention.
    """
    role_rank = {role.name: rank for rank, role in enumerate(schema.string_fill_roles)}
    best = None
    for (gold_index, gold_role), cells in index.row((pair.pred_index, role_name, filler_index)).items():
        stage = 2 * (gold_index != pair.gold_index) + (gold_role != role_name)
        for entity_index, match in cells.items():
            if stage == 0 and entity_index not in matched_entities:
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
    kinds = _UNMATCHED_STAGES[stage]
    return [
        Transformation(
            kind,
            gold_template=gold_index,
            gold_role=gold_role,
            gold_entity=entity_index,
            gold_mention=target,
            **subject,
        )
        for kind in ((TransformKind.ALTER_SPAN,) if partial else ()) + kinds
    ]


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
    alterations: list[Transformation] = []
    removals: list[Transformation] = []

    for pair in matching.pairs:
        pred_template = doc.predicted_templates[pair.pred_index]
        gold_template = doc.gold_templates[pair.gold_index]
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                pred_value = pred_template.set_fill(role.name)
                gold_value = gold_template.set_fill(role.name)
                if (
                    pred_value is not None
                    and gold_value is not None
                    and texts_match(pred_value, gold_value, config.casefold)
                ):
                    continue
                if pred_value is not None:
                    removals.append(
                        Transformation(
                            TransformKind.REMOVE_SPURIOUS_ROLE_FILLER,
                            pred_template=pair.pred_index,
                            role=role.name,
                            pred_text=pred_value,
                        )
                    )
                if gold_value is not None:
                    removals.append(
                        Transformation(
                            TransformKind.INTRODUCE_ROLE_FILLER,
                            pred_template=pair.pred_index,
                            role=role.name,
                            gold_template=pair.gold_index,
                            gold_role=role.name,
                            gold_mention=Mention(gold_value),
                        )
                    )
                continue

            pairing = pair.role_pairings[role.name]
            partial_by_pred = {p.pred_index: p for p in pairing.pairs if not p.exact}
            unmatched = set(pairing.unmatched_pred)
            matched_entities = [p.entity_index for p in pairing.pairs]
            mentions = pred_template.mentions(role.name)
            for filler_index, mention in enumerate(mentions):
                if filler_index in partial_by_pred:
                    mention_pair = partial_by_pred[filler_index]
                    alterations.append(
                        Transformation(
                            TransformKind.ALTER_SPAN,
                            pred_template=pair.pred_index,
                            role=role.name,
                            filler=filler_index,
                            pred_text=mention.text,
                            pred_span=mention.span,
                            gold_template=pair.gold_index,
                            gold_role=role.name,
                            gold_entity=mention_pair.entity_index,
                            gold_mention=mention_pair.gold_mention,
                        )
                    )
                elif filler_index in unmatched:
                    group = _classify_unmatched(
                        schema, index, pair, role.name, filler_index, mention, matched_entities
                    )
                    if all(t.kind not in _REMOVAL_KINDS for t in group):
                        alterations.extend(group)
                    else:
                        removals.extend(group)
            gold_entities = gold_template.entities(role.name)
            for entity_index in pairing.unmatched_gold:
                removals.append(
                    Transformation(
                        TransformKind.INTRODUCE_ROLE_FILLER,
                        pred_template=pair.pred_index,
                        role=role.name,
                        gold_template=pair.gold_index,
                        gold_role=role.name,
                        gold_entity=entity_index,
                        gold_mention=gold_entities[entity_index].canonical,
                    )
                )

    for pred_index in matching.spurious_templates:
        removals.append(
            Transformation(
                TransformKind.REMOVE_TEMPLATE,
                pred_template=pred_index,
                filler_counts=doc.predicted_templates[pred_index].filler_counts(schema, gold=False),
            )
        )
    for gold_index in matching.missing_templates:
        removals.append(
            Transformation(
                TransformKind.INTRODUCE_TEMPLATE,
                gold_template=gold_index,
                filler_counts=doc.gold_templates[gold_index].filler_counts(schema, gold=True),
            )
        )

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


@record
class _TemplateState:
    removed: bool = False
    set_values: dict = Factory(dict)
    slots: dict = Factory(dict)
    extras: dict = Factory(dict)

    @classmethod
    def from_template(cls, template: Template) -> "_TemplateState":
        state = cls()
        for role, value in template.role_fillers.items():
            if isinstance(value, str):
                state.set_values[role] = value
            else:
                state.slots[role] = list(value)
        return state

    def current(self, role: str) -> list[Mention]:
        fillers = [m for m in self.slots.get(role, ()) if m is not None]
        fillers.extend(self.extras.get(role, ()))
        return fillers


def apply_transformations(
    doc: Document, log: TransformationLog, casefold: bool = True
) -> tuple[Template, ...]:
    """Replay a transformation log over the document's predictions.

    The result matches the gold templates up to the choice of canonical
    mention per entity. Raises InconsistentLog when an edit references a
    filler or template that no longer exists, which signals a bug in the
    log producer rather than an expected input condition.
    """
    states = [_TemplateState.from_template(t) for t in doc.predicted_templates]
    introduced: list[Template] = []

    def state_for(entry: Transformation) -> _TemplateState:
        index = entry.pred_template
        if index is None or not 0 <= index < len(states):
            raise InconsistentLog(f"{log.doc_id}: no predicted template {index}")
        state = states[index]
        if state.removed:
            raise InconsistentLog(f"{log.doc_id}: template {index} was already removed")
        return state

    def consume(entry: Transformation) -> None:
        state = state_for(entry)
        if entry.filler is None:
            if entry.role not in state.set_values:
                raise InconsistentLog(
                    f"{log.doc_id}: set-fill value of role '{entry.role}' already consumed"
                )
            del state.set_values[entry.role]
            return
        slots = state.slots.get(entry.role, [])
        if not 0 <= entry.filler < len(slots) or slots[entry.filler] is None:
            raise InconsistentLog(
                f"{log.doc_id}: filler {entry.filler} of role '{entry.role}' already consumed"
            )
        slots[entry.filler] = None

    def introduce(state: _TemplateState, entry: Transformation) -> None:
        """Add the entry's gold mention to its gold role, unless a filler there already covers the entity."""
        entity = doc.gold_templates[entry.gold_template].entities(entry.gold_role)[entry.gold_entity]
        current = state.current(entry.gold_role)
        if not any(texts_match(c.text, gold.text, casefold) for c in current for gold in entity.mentions):
            state.extras.setdefault(entry.gold_role, []).append(entry.gold_mention)

    for group in log.groups():
        kinds = {entry.kind for entry in group}
        if TransformKind.REMOVE_TEMPLATE in kinds:
            state = state_for(group[0])
            state.removed = True
        elif TransformKind.INTRODUCE_TEMPLATE in kinds:
            introduced.append(canonical_template(doc.gold_templates[group[0].gold_template]))
        elif TransformKind.INTRODUCE_ROLE_FILLER in kinds:
            entry = group[0]
            state = state_for(entry)
            if entry.gold_entity is None:
                if entry.role in state.set_values:
                    raise InconsistentLog(
                        f"{log.doc_id}: introducing set-fill value over an existing one"
                    )
                state.set_values[entry.role] = entry.gold_mention.text
            else:
                introduce(state, entry)
        elif kinds & _REMOVAL_KINDS:
            consume(group[0])
        elif TransformKind.ALTER_ROLE in kinds:
            consume(group[0])
            move = next(entry for entry in group if entry.kind is TransformKind.ALTER_ROLE)
            introduce(state_for(move), move)
        else:
            entry = group[0]
            state = state_for(entry)
            slots = state.slots.get(entry.role, [])
            if not 0 <= entry.filler < len(slots) or slots[entry.filler] is None:
                raise InconsistentLog(
                    f"{log.doc_id}: span alteration targets a consumed filler"
                )
            slots[entry.filler] = entry.gold_mention

    result = []
    for state in states:
        if state.removed:
            continue
        fillers: dict = {}
        roles = list(state.set_values) + [r for r in state.slots if r not in state.set_values]
        for role in state.extras:
            if role not in roles:
                roles.append(role)
        for role in roles:
            if role in state.set_values:
                fillers[role] = state.set_values[role]
            else:
                mentions = state.current(role)
                if mentions:
                    fillers[role] = tuple(mentions)
        result.append(Template(fillers))
    result.extend(introduced)
    return tuple(result)
