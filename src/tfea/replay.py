"""Replaying a transformation log over a document's predictions.

The replay holds each predicted template as one ``role -> list`` map (a
set-fill value is a one-item list, a consumed filler None, an introduced
filler appended). It removes templates, then fixes spans (consuming the
filler and appending the gold mention), then replays the other groups in
log order, so a role move sees the span fixes of its target role. An edit
of a template, filler or gold entity that does not exist or is already
gone, or a second introduction of one gold entity, raises InconsistentLog.
"""

from __future__ import annotations

from .exceptions import InconsistentLog
from .model import Document, GoldEntity, Mention, Template, texts_match
from .transforms import _REMOVAL_KINDS, Transformation, TransformationLog, TransformKind


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
