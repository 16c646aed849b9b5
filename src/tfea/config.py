"""Analysis configuration shared by the matcher, transform engine, and CLI."""

from __future__ import annotations

from .model import record
from .spans import ScsMode

ON_GUARD_CHOICES = ("skip", "greedy", "fail")

DEFAULT_MAX_TEMPLATE_MATCHINGS = 1_000_000


@record(frozen=True)
class AnalysisConfig:
    """Effective settings for one analysis run.

    ``on_guard`` selects what happens to a document whose matching search
    exceeds a cap: drop it from the aggregates ("skip"), fall back to the
    approximate greedy matcher ("greedy"), or raise ("fail").
    """

    scs_mode: ScsMode = ScsMode.GEOMETRIC
    case_sensitive: bool = False
    max_template_matchings: int = DEFAULT_MAX_TEMPLATE_MATCHINGS
    on_guard: str = "skip"

    def __post_init__(self):
        if self.on_guard not in ON_GUARD_CHOICES:
            raise ValueError(f"on_guard must be one of {ON_GUARD_CHOICES}")

    @property
    def casefold(self) -> bool:
        return not self.case_sensitive
