"""Span comparison scores (SCS) used to rank candidate gold targets.

Both modes return a distance in [0, 1]: 0 for identical spans, 1 for
spans with no positive overlap, strictly between 0 and 1 for partial
overlap. A zero-length operand always scores 1, even against itself.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .model import Mention, Span


class ScsMode(str, Enum):
    ABSOLUTE = "absolute"
    GEOMETRIC = "geometric"


def scs_absolute(x: Span, y: Span) -> float:
    """Offset-distance mode: |Δstart| + |Δend| scaled by the summed lengths.

    The raw ratio is capped at 1 so that widely separated spans saturate;
    without the cap, "1 for non-overlapping spans" would be unsatisfiable.
    """
    total = x.length + y.length
    if total == 0:
        return 1.0
    value = (abs(x.start - y.start) + abs(x.end - y.end)) / total
    return min(1.0, value)


def scs_geometric(x: Span, y: Span) -> float:
    """Disjointedness mode: 1 minus the squared overlap over the length product.

    More sensitive than the absolute mode: small index shifts move the
    score further, which is why it is the default for analysis.
    """
    if x.length == 0 or y.length == 0:
        return 1.0
    si = max(0, x.overlap(y))
    return 1.0 - (si * si) / (x.length * y.length)


def span_score(x: Span, y: Span, mode: ScsMode = ScsMode.GEOMETRIC) -> float:
    if mode is ScsMode.ABSOLUTE:
        return scs_absolute(x, y)
    return scs_geometric(x, y)


def mention_score(a: Mention, b: Mention, mode: ScsMode = ScsMode.GEOMETRIC) -> float:
    """SCS between two mentions; a missing span scores as maximally distant.

    Analysis does not call this: ``matching.MatchIndex`` scores mentions
    against gold entities, with the same treatment of missing spans.
    """
    if a.span is None or b.span is None:
        return 1.0
    return span_score(a.span, b.span, mode)


def best_gold_target(
    mention: Mention,
    candidates: Sequence[Mention],
    mode: ScsMode = ScsMode.GEOMETRIC,
) -> tuple[Mention, float] | None:
    """Candidate with the lowest SCS from ``mention``.

    Ties are broken by earliest document position, then by candidate
    order, so repeated runs pick the same target. Returns None only for
    an empty candidate list.

    Analysis does not call this: ``matching.MatchIndex`` picks each
    span-alteration target, with the same ``(score, start, order)``
    tie-break.
    """
    best = None
    best_key = None
    for index, candidate in enumerate(candidates):
        score = mention_score(mention, candidate, mode)
        position = candidate.span.start if candidate.span is not None else float("inf")
        key = (score, position, index)
        if best_key is None or key < best_key:
            best_key = key
            best = (candidate, score)
    return best
