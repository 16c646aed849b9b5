"""Mapping transformation patterns onto the thirteen error types.

Every transformation group accounts for exactly one error. Fillers
inside removed or introduced templates never count as spurious or
missing role fillers; they go to the two dedicated side tallies so a
template-level mistake is not double-billed as many filler mistakes.
"""

from __future__ import annotations

from enum import Enum

from .exceptions import UnmappableSequence
from .model import Factory, record
from .transforms import Transformation, TransformationLog, TransformKind


class ErrorType(str, Enum):
    SPAN_ERROR = "span_error"
    DUPLICATE_ROLE_FILLER = "duplicate_role_filler"
    DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER = "duplicate_partially_matched_role_filler"
    SPURIOUS_ROLE_FILLER = "spurious_role_filler"
    MISSING_ROLE_FILLER = "missing_role_filler"
    INCORRECT_ROLE = "incorrect_role"
    INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER = "incorrect_role_partially_matched_filler"
    WRONG_TEMPLATE_FOR_ROLE_FILLER = "wrong_template_for_role_filler"
    WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER = (
        "wrong_template_for_partially_matched_role_filler"
    )
    WRONG_TEMPLATE_WRONG_ROLE = "wrong_template_wrong_role"
    WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER = (
        "wrong_template_wrong_role_partially_matched_filler"
    )
    SPURIOUS_TEMPLATE = "spurious_template"
    MISSING_TEMPLATE = "missing_template"


ERROR_TYPES = tuple(ErrorType)

_K = TransformKind
_GROUP_RULES: dict[frozenset, ErrorType] = {
    frozenset({_K.ALTER_SPAN}): ErrorType.SPAN_ERROR,
    frozenset({_K.REMOVE_DUPLICATE_ROLE_FILLER}): ErrorType.DUPLICATE_ROLE_FILLER,
    frozenset(
        {_K.ALTER_SPAN, _K.REMOVE_DUPLICATE_ROLE_FILLER}
    ): ErrorType.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER,
    frozenset({_K.REMOVE_SPURIOUS_ROLE_FILLER}): ErrorType.SPURIOUS_ROLE_FILLER,
    frozenset({_K.INTRODUCE_ROLE_FILLER}): ErrorType.MISSING_ROLE_FILLER,
    frozenset({_K.ALTER_ROLE}): ErrorType.INCORRECT_ROLE,
    frozenset({_K.ALTER_SPAN, _K.ALTER_ROLE}): ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER,
    frozenset(
        {_K.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER}
    ): ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER,
    frozenset(
        {_K.ALTER_SPAN, _K.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER}
    ): ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER,
    frozenset(
        {_K.ALTER_ROLE, _K.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER}
    ): ErrorType.WRONG_TEMPLATE_WRONG_ROLE,
    frozenset(
        {_K.ALTER_SPAN, _K.ALTER_ROLE, _K.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER}
    ): ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER,
    frozenset({_K.REMOVE_TEMPLATE}): ErrorType.SPURIOUS_TEMPLATE,
    frozenset({_K.INTRODUCE_TEMPLATE}): ErrorType.MISSING_TEMPLATE,
}

# Errors are filed under the gold target's role when one exists, so
# per-role recall diagnostics line up with the gold schema.
_GOLD_ROLE_ATTRIBUTION = {
    ErrorType.INCORRECT_ROLE,
    ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER,
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE,
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER,
    ErrorType.MISSING_ROLE_FILLER,
}

# The template-level errors and the side tally that counts their fillers.
_SIDE_TALLIES = {
    ErrorType.SPURIOUS_TEMPLATE: "spurious_template_role_fillers",
    ErrorType.MISSING_TEMPLATE: "missing_template_role_fillers",
}


@record
class ErrorProfile:
    """Error counts per type and role, plus the template-filler side tallies.

    Profiles merge elementwise, with the empty profile as identity, so
    per-document mapping followed by a fold gives the corpus profile.
    """

    counts: dict[ErrorType, int] = Factory(lambda: {etype: 0 for etype in ERROR_TYPES})
    per_role: dict[str, dict[ErrorType, int]] = Factory(dict)
    spurious_template_role_fillers: int = 0
    missing_template_role_fillers: int = 0

    @classmethod
    def empty(cls) -> "ErrorProfile":
        return cls()

    def bump(self, etype: ErrorType, role: str | None = None, n: int = 1, fillers: int = 0) -> None:
        """Count ``n`` errors of ``etype``; a template-level one adds ``fillers`` to its side tally."""
        self.counts[etype] = self.counts.get(etype, 0) + n
        if role is not None:
            role_counts = self.per_role.setdefault(role, {})
            role_counts[etype] = role_counts.get(etype, 0) + n
        side = _SIDE_TALLIES.get(etype)
        if side is not None:
            setattr(self, side, getattr(self, side) + fillers)

    def __add__(self, other: "ErrorProfile") -> "ErrorProfile":
        # Field name to value; the empty profile comes first, so every type is listed, in order.
        merged = {}
        for profile in (ErrorProfile.empty(), self, other):
            fields = {"counts": profile.counts, "per_role": profile.per_role, **side_tallies(profile)}
            add_counts(merged, fields)
        return ErrorProfile(**merged)


def side_tallies(profile: ErrorProfile) -> dict[str, int]:
    """Side-tally name to count, in ``_SIDE_TALLIES`` order."""
    return {name: getattr(profile, name) for name in _SIDE_TALLIES.values()}


def add_counts(total: dict, counts: dict) -> None:
    """Add the numbers of ``counts`` into ``total``, at every depth: the one fold of error counts."""
    for key, value in counts.items():
        if isinstance(value, dict):
            add_counts(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def _group_role(group: list[Transformation], etype: ErrorType) -> str | None:
    if etype in _SIDE_TALLIES:
        return None
    if etype in _GOLD_ROLE_ATTRIBUTION:
        for entry in group:
            if entry.gold_role is not None:
                return entry.gold_role
    return group[0].role


def map_errors(log: TransformationLog) -> ErrorProfile:
    """Fold a transformation log into an error profile.

    Raises UnmappableSequence when a group matches no rule; valid logs
    produced by the transform engine never do.
    """
    profile = ErrorProfile.empty()
    for group in log.groups():
        kinds = [entry.kind for entry in group]
        rule = frozenset(kinds)
        etype = _GROUP_RULES.get(rule)
        if etype is None or len(kinds) != len(rule):
            raise UnmappableSequence(kinds, group[0].subject_key())
        profile.bump(etype, _group_role(group, etype), fillers=group[0].filler_count or 0)
    return profile


def total_errors(profile: ErrorProfile) -> int:
    """Sum of the thirteen error-type counts.

    The side tallies are excluded: a missing or spurious template is one
    decision error regardless of how many fillers it contains.
    """
    return sum(profile.counts.values())
