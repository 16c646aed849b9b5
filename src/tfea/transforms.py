"""Deriving the transformation sequence for a matched document.

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
``tfea.replay`` replays a log.
"""

from __future__ import annotations

from enum import Enum

from .config import AnalysisConfig
from .matching import MatchIndex, TemplateMatching, TemplatePair
from .model import Document, Mention, RoleKind, Schema, Span, Template, record


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
    loop over the filler's index row, where the cell of the filler's own
    partial pair (if any) is stage 0, an exact match beats a partial one
    within a stage, then the lowest gold template, role (schema order) and
    entity index wins. A partial match is preceded by an alter-span onto
    the cell's arg-min gold mention (for the own pair, its ``gold_mention``).

    A mismatched set-fill value comes with ``filler_index`` None and
    ``Mention(value)``; the match index has no rows for set-fill roles,
    so it is always plain spurious, with no filler index or span.
    """
    pairs = pair.role_pairings[role_name] if filler_index is not None else ()
    # Each entity the role pairing matched: True for this filler's own (partial) pair.
    matched = {p.entity_index: p.pred_index == filler_index for p in pairs}
    best = None
    for ((gold_index, gold_role), entity_index), match in index.row((pair.pred_index, role_name, filler_index)).items():
        stage = 1 + 2 * (gold_index != pair.gold_index) + (gold_role != role_name)
        if stage == 1:
            if entity_index not in matched:
                continue
            stage -= matched[entity_index]
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
