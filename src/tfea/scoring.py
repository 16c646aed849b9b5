"""Exact-match precision/recall/F1, micro-averaged over documents."""

from __future__ import annotations

from typing import Iterable, Mapping

from .matching import Tally, TemplateMatching
from .model import record


@record(frozen=True)
class Scores:
    """Per-role and overall tallies; each gives its precision, recall and F1."""

    per_role: dict[str, Tally]
    overall: Tally


def score_document(matching: TemplateMatching) -> Scores:
    """Per-role and overall tallies for one document's chosen matching."""
    return Scores(dict(matching.role_tallies), matching.total)


def score_corpus(per_document: Iterable[Mapping[str, Tally]]) -> Scores:
    """Micro-average: sum tallies across documents, then divide.

    Documents skipped by the complexity guard are simply not passed in.
    """
    merged: dict[str, Tally] = {}
    for role_tallies in per_document:
        for role, tally in role_tallies.items():
            merged[role] = merged.get(role, Tally()) + tally
    return Scores(merged, sum(merged.values(), Tally()))
