"""Span comparison scores (SCS) used to rank candidate gold targets.

Both modes return a distance in [0, 1]: 0 for identical spans, 1 for
spans with no positive overlap, strictly between 0 and 1 for partial
overlap. A zero-length operand always scores 1, even against itself.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .model import Span


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


def scs_function(mode: ScsMode) -> Callable[[Span, Span], float]:
    """The SCS function of a mode, for callers that score many span pairs."""
    return scs_absolute if mode is ScsMode.ABSOLUTE else scs_geometric


def span_score(x: Span, y: Span, mode: ScsMode = ScsMode.GEOMETRIC) -> float:
    return scs_function(mode)(x, y)
