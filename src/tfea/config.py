"""Analysis configuration shared by the matcher, transform engine, and CLI, and the package's log."""

from __future__ import annotations

import sys

from .model import record
from .spans import ScsMode

ON_GUARD_CHOICES = ("skip", "greedy", "fail")

DEFAULT_MAX_TEMPLATE_MATCHINGS = 1_000_000

DEBUG, WARNING = 10, 30  # logging's level numbers
_pending_setup = None  # see defer_logging


def defer_logging(setup, eager: bool = False) -> None:
    """Call ``setup`` right before ``log``'s first record, or now if ``eager``; ``None`` cancels it."""
    global _pending_setup
    _pending_setup = None if eager else setup
    if eager:
        setup()


def log(level: int, message: str, *args) -> None:
    """Log ``message % args`` on the "tfea" logger; ``logging`` is imported by the first record of WARNING or above."""
    if level < WARNING and "logging" not in sys.modules:
        return  # no handler passes it yet; a setup that may (a TFEA_LOG level) is eager, see defer_logging
    import logging

    if _pending_setup is not None:
        defer_logging(_pending_setup, eager=True)
    logging.getLogger("tfea").log(level, message, *args, stacklevel=2)


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
