"""Optimal template and mention matching.

For each document, the injective partial pairing of predicted to gold
templates with the best exact-match F1 is found by an exact assignment
solve, polynomial in the template counts. Ties on F1 are broken by the
fewest implied errors, then by the lexicographically smallest pair list.
Within a template pair, every role's fillers are paired independently
by the same lex-min assignment core (most exact pairs, then most partial
pairs, then the smallest pair list), so neither level enumerates
pairings. That core, ``tfea.assignment``, keeps only the pairs of cost
0 or less (no other can be optimal), solves each connected component
of them alone, and breaks ties by one walk over all components, since
a zero-cost pair may precede a negative one in another component.

Every pairing question (is this predicted filler an exact or a partial
match of that gold entity?) is answered by one per-document
``MatchIndex``. It normalizes each mention text once per process (through
the memoized ``normalizer``) and records only the cells where a predicted
mention shares a normalized text with an entity or has a span that
intersects one of the entity's spans; the rest, usually the large
majority, are a shared "no match". Leaving them out is exact, not a
heuristic: a disjoint, touching, zero-length or null span scores exactly
1 in both SCS modes, and 1 is never a partial match. The transformation
derivation reads the same cells.

The exact and the greedy matcher share one table of template-pair
scores per document: two ints per pair, the exact-match numerator and
the implied errors. Only the roles that the index links by a cell in
the same role are paired; a pair with no link, usually the large
majority, is scored from its set-fill values and filler counts alone,
and a ``TemplatePair`` is built only for the pairs the matcher keeps.

Denominators are fixed per document (each predicted filler adds one to
the precision denominator, each gold entity or set-fill value adds one
to the recall denominator), so maximizing F1 reduces to maximizing the
shared numerator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping

from .assignment import lexmin_assignment
from .config import AnalysisConfig
from .exceptions import ComplexityGuardExceeded
from .model import Document, Factory, Mention, RoleKind, Schema, Template, normalizer, record
from .spans import ScsMode, scs_function

PARTIAL_THRESHOLD = 1.0
# Python's default cap on converting an int to a string: a longer template
# matching count cannot be printed.
MAX_COUNT_DIGITS = 4300
# Built once: the compiler does not fold a power this large.
_COUNT_LIMIT = 10**MAX_COUNT_DIGITS


def count_template_matchings(pred_count: int, gold_count: int) -> int:
    """Closed-form number of injective partial template pairings.

    Choosing i of the predicted templates and an ordered selection of i
    gold templates gives C(P, i) * G! / (G - i)! options; summing over i
    counts every possible matching, including the empty one.
    """
    if pred_count < 0 or gold_count < 0:
        raise ValueError("template counts must be non-negative")
    return sum(
        math.comb(pred_count, i) * math.perm(gold_count, i)
        for i in range(min(pred_count, gold_count) + 1)
    )


def printable_template_matchings(pred_count: int, gold_count: int) -> int | None:
    """``count_template_matchings``, or None when it has more than MAX_COUNT_DIGITS digits.

    The count is at least ``small!`` (1,559! has 4,303 digits) and
    ``(large - small + 1) ** small``, so these bounds rule most such counts
    out before summing. 2000! is over the limit, and a larger int may not fit
    the float ``lgamma`` takes.
    """
    small, large = sorted((pred_count, gold_count))
    if (
        math.lgamma(min(small, 2000) + 1) / math.log(10) > MAX_COUNT_DIGITS
        or small * math.log10(large - small + 1) > MAX_COUNT_DIGITS
        or (count := count_template_matchings(pred_count, gold_count)) >= _COUNT_LIMIT
    ):
        return None
    return count


@record(frozen=True)
class EntityMatch:
    """How one predicted mention relates to one gold entity."""

    exact: bool
    score: float
    gold_mention: Mention | None


NO_MATCH = EntityMatch(False, 1.0, None)
_NO_CELLS: Mapping = MappingProxyType({})
# One role's cells, (pred filler, entity index) -> match: the preds in order,
# the cells of one pred in any order.
Cells = Mapping[tuple[int, int], EntityMatch]


class MatchIndex:
    """The cells where a predicted mention meets a gold entity.

    A cell is exact when the mention's normalized text equals that of
    one of the entity's mentions (the first such mention is kept), and
    partial when their SCS is below 1; either way its score is the
    minimum SCS over the entity's mentions, and a partial cell keeps the
    arg-min mention by ``(score, span start, mention order)`` as its
    span-alteration target. Every other cell is ``NO_MATCH``.

    Each mention text is normalized once per process (the memoized
    ``normalizer``) and the mode's SCS function is looked up once per
    index. Exact cells come from a dict of normalized gold texts, partial
    cells from the gold spans that intersect the predicted span, found by
    bisecting the spans sorted by start. Skipping every other gold mention
    is exact in both SCS modes: a null span, a zero-length span, and spans
    that are disjoint or only touch all score exactly 1 (in absolute mode,
    disjoint spans have ``|Δstart| + |Δend| >= len(x) + len(y)``, which the
    cap turns into 1).

    ``pred`` yields ``(row, mention)`` and ``gold`` yields ``(group,
    entity index, entity)``; rows and groups are any hashable keys. A row
    is one ``{(group, entity index): match}`` dict, in the order found.
    """

    def __init__(self, pred, gold, mode: ScsMode, casefold: bool):
        scs, norm = scs_function(mode), normalizer(casefold)
        by_text: dict[str, dict[tuple, Mention]] = {}
        spans = []
        for group, entity_index, entity in gold:
            cell = (group, entity_index)
            for order, mention in enumerate(entity.mentions):
                by_text.setdefault(norm(mention.text), {}).setdefault(cell, mention)
                if mention.span is not None:
                    spans.append((mention.span.start, mention.span.end, order, cell, mention))
        spans.sort(key=lambda item: item[0])
        starts = [item[0] for item in spans]
        reach = max((end - start for start, end, *_ in spans), default=0)

        self._rows: dict = {}
        for row, mention in pred:
            exact = by_text.get(norm(mention.text), _NO_CELLS)
            nearest: dict[tuple, tuple] = {}
            x = mention.span
            if x is not None:
                lo = bisect_left(starts, x.start - reach + 1)
                for start, end, order, cell, candidate in spans[lo : bisect_left(starts, x.end)]:
                    if end <= x.start:
                        continue
                    key = (scs(x, candidate.span), start, order)
                    if cell not in nearest or key < nearest[cell][0]:
                        nearest[cell] = (key, candidate)
            cells = {}
            for cell, gold_mention in exact.items():
                cells[cell] = EntityMatch(True, nearest[cell][0][0] if cell in nearest else 1.0, gold_mention)
            for cell, ((score, _, _), target) in nearest.items():
                if cell not in exact and score < PARTIAL_THRESHOLD:
                    cells[cell] = EntityMatch(False, score, target)
            if cells:
                self._rows[row] = cells

    @classmethod
    def for_document(cls, doc: Document, schema: Schema, config: AnalysisConfig) -> "MatchIndex":
        """Index of a document: rows ``(pred template, role, filler)``, groups ``(gold template, role)``."""
        roles = [role.name for role in schema.string_fill_roles]
        pred = [
            ((p, role, i), mention)
            for p, template in enumerate(doc.predicted_templates)
            for role in roles
            for i, mention in enumerate(template.mentions(role))
        ]
        gold = [
            ((g, role), e, entity)
            for g, template in enumerate(doc.gold_templates)
            for role in roles
            for e, entity in enumerate(template.entities(role))
        ]
        return cls(pred, gold, config.scs_mode, config.casefold)

    def items(self):
        """``(row, {(group, entity index): match})`` for every mention with a cell."""
        return self._rows.items()

    def row(self, row) -> Mapping[tuple, EntityMatch]:
        """``(group, entity index) -> match`` over the non-empty cells of one mention."""
        return self._rows.get(row, _NO_CELLS)

    def cell(self, row, group, entity_index: int) -> EntityMatch:
        return self.row(row).get((group, entity_index), NO_MATCH)


@record(frozen=True)
class MentionPair:
    pred_index: int
    entity_index: int
    exact: bool
    score: float
    gold_mention: Mention


_is_exact = attrgetter("exact")


def _build_pairing(index_pairs: tuple[tuple[int, int], ...], cells: Cells) -> tuple[MentionPair, ...]:
    """The pairs of ``index_pairs``; ``cells`` maps ``(pred, entity index)`` to its match."""
    # One loop: a pairing has a few items, and comprehensions would cost
    # more than their work.
    pairs = []
    for i, j in index_pairs:
        match = cells[i, j]
        pairs.append(MentionPair(i, j, match.exact, match.score, match.gold_mention))
    return tuple(pairs)


def _best_role_pairing(cells: Cells, pred_count: int) -> tuple[MentionPair, ...]:
    """The pairing with the most exact pairs, then the most partial pairs.

    Exact pairs are the numerator; each partial pair replaces one
    spurious plus one missing error with a single span error, so at a
    fixed numerator more partials means fewer errors. Ties go to the
    lexicographically smallest pair tuple. With ``K = pred_count`` pairs
    at most, a cost of ``-(K+1)`` per exact cell and ``-1`` per partial
    one orders pairings the same way, so this is one lex-min assignment.
    """
    exact_cost = -(pred_count + 1)
    cost = {cell: exact_cost if match.exact else -1 for cell, match in cells.items()}
    return _build_pairing(lexmin_assignment(cost), cells)


@record(frozen=True)
class Tally:
    """Exact-match counts of one role, template pair, document or corpus.

    The numerator and the two denominators add up with ``+``; precision,
    recall and F1 are derived from them. A zero denominator gives a ratio
    of 1.0 (nothing was expected on that side, so nothing was wrong), so
    a document with no gold and no predictions scores 1.0 while a
    one-sided one scores 0.0.
    """

    numerator: int = 0
    precision_denominator: int = 0
    recall_denominator: int = 0

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(
            self.numerator + other.numerator,
            self.precision_denominator + other.precision_denominator,
            self.recall_denominator + other.recall_denominator,
        )

    @property
    def precision(self) -> float:
        return 1.0 if self.precision_denominator == 0 else self.numerator / self.precision_denominator

    @property
    def recall(self) -> float:
        return 1.0 if self.recall_denominator == 0 else self.numerator / self.recall_denominator

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)


@record(frozen=True)
class TemplatePair:
    """A matched template pair; ``matched_set_roles`` are its set-fill roles with equal normalized values."""

    pred_index: int
    gold_index: int
    role_pairings: dict[str, tuple[MentionPair, ...]] = Factory(dict)  # string-fill role -> pairs, pred order
    matched_set_roles: tuple[str, ...] = ()


@record(frozen=True)
class TemplateMatching:
    """The chosen pairing for one document plus its score bookkeeping."""

    doc_id: str
    pairs: tuple[TemplatePair, ...]
    spurious_templates: tuple[int, ...]
    missing_templates: tuple[int, ...]
    role_tallies: dict[str, Tally]
    total: Tally
    error_tally: int
    approximate: bool = False

    @property
    def f1(self) -> float:
        return self.total.f1


RolePairer = Callable[[Cells, int], tuple[MentionPair, ...]]


@record(frozen=True)
class _PairTable:
    """The scores of every (pred, gold) template pair of one document.

    ``numerators[p][g]`` and ``errors[p][g]`` are the pair's exact-match
    numerator and implied errors, ``set_matches[p, g]`` its set-fill roles
    with equal values (schema order), and ``pred_rows``/``gold_rows`` each
    template's ``filler_row``. Role pairings are kept for linked roles
    only; ``pair`` gives every other role the empty pairing.
    """

    numerators: list[list[int]]
    errors: list[list[int]]
    string_roles: list[tuple[str, int]]  # (role, schema column)
    pred_rows: list[list[int]]
    gold_rows: list[list[int]]
    set_matches: dict[tuple[int, int], list[str]]
    linked: dict[tuple[int, int], dict[str, tuple[MentionPair, ...]]]

    def pair(self, p: int, g: int) -> TemplatePair:
        linked = self.linked.get((p, g), {})
        pairings = {role: linked.get(role, ()) for role, _ in self.string_roles}
        return TemplatePair(p, g, pairings, tuple(self.set_matches.get((p, g), ())))


def _pair_scores(
    doc: Document, schema: Schema, config: AnalysisConfig, index: MatchIndex, pair_role: RolePairer
) -> _PairTable:
    """Score every (pred, gold) template pair of a document.

    A set-fill role scores 1 on equal normalized values; a wrong value costs
    two errors (spurious plus missing), a one-sided value one. A string-fill
    role with ``m`` mentions and ``e`` entities costs ``m + e - 2·exact -
    partial`` under its pairing. Only the roles that the index links, by a
    cell with an entity of the same role, reach ``pair_role(cells, m)``,
    its cells collected in one pass over the index (``_best_role_pairing``
    for the exact matcher, a polynomial solve); a cell in another role only
    feeds incorrect-role detection. Every other role has the empty pairing
    ``()``: an unlinked pair's two ints come from its filler totals and its
    equal set-fill values, found by grouping the gold templates by
    normalized value. The only allocation per pair is the role list of a
    pair that shares a set-fill value.
    """
    set_roles = [role.name for role in schema.set_fill_roles]
    string_roles = [(role.name, k) for k, role in enumerate(schema) if role.kind is RoleKind.STRING_FILL]
    # Rows are lists: a document's rows are freed together, and freed small
    # tuples would stay cached in the interpreter's tuple free lists.
    pred_rows = [t.filler_row(schema) for t in doc.predicted_templates]
    gold_rows = [t.filler_row(schema) for t in doc.gold_templates]

    norm = normalizer(config.casefold)

    def values(template: Template) -> list[str | None]:
        return [None if v is None else norm(v) for v in map(template.set_fill, set_roles)]

    golds_by_value: list[dict[str, list[int]]] = [{} for _ in set_roles]
    for g, template in enumerate(doc.gold_templates):
        for by_value, value in zip(golds_by_value, values(template)):
            if value is not None:
                by_value.setdefault(value, []).append(g)
    gold_sizes = list(map(sum, gold_rows))
    numerators, errors = [], []
    set_matches: dict[tuple[int, int], list[str]] = {}
    for p, (template, pred_size) in enumerate(zip(doc.predicted_templates, map(sum, pred_rows))):
        numerator_row = [0] * len(gold_sizes)
        for role, by_value, value in zip(set_roles, golds_by_value, values(template)):
            for g in by_value.get(value, ()):
                numerator_row[g] += 1
                set_matches.setdefault((p, g), []).append(role)
        numerators.append(numerator_row)
        errors.append([pred_size + gold_size - 2 * n for gold_size, n in zip(gold_sizes, numerator_row)])
    role_cells: dict[tuple[int, int, str], dict[tuple[int, int], EntityMatch]] = {}
    for (p, role, i), cells in index.items():
        for ((g, gold_role), j), match in cells.items():
            if gold_role == role:
                role_cells.setdefault((p, g, role), {})[i, j] = match
    column = dict(string_roles)
    linked: dict[tuple[int, int], dict[str, tuple[MentionPair, ...]]] = {}
    for (p, g, role), cells in role_cells.items():
        pairing = linked.setdefault((p, g), {})[role] = pair_role(cells, pred_rows[p][column[role]])
        exact = sum(map(_is_exact, pairing))
        numerators[p][g] += exact
        # Each exact pair removes two errors, each partial one.
        errors[p][g] -= exact + len(pairing)
    return _PairTable(numerators, errors, string_roles, pred_rows, gold_rows, set_matches, linked)


def _assemble(
    doc: Document, schema: Schema, chosen: tuple[tuple[int, int], ...], table: _PairTable, approximate: bool
) -> TemplateMatching:
    """The matching of the chosen pairs, the only ones that get a ``TemplatePair``."""
    pairs = tuple(table.pair(p, g) for p, g in chosen)
    names = schema.names
    numerators = dict.fromkeys(names, 0)
    for pair in pairs:
        for role in pair.matched_set_roles:
            numerators[role] += 1
        for role, pairing in pair.role_pairings.items():
            numerators[role] += sum(map(_is_exact, pairing))
    # Column sums of the filler rows; the zero row keeps a side with no templates.
    pred_totals = list(map(sum, zip([0] * len(names), *table.pred_rows)))
    gold_totals = list(map(sum, zip([0] * len(names), *table.gold_rows)))
    matched_pred = {p for p, _ in chosen}
    matched_gold = {g for _, g in chosen}
    return TemplateMatching(
        doc_id=doc.doc_id,
        pairs=pairs,
        spurious_templates=tuple(i for i in range(len(doc.predicted_templates)) if i not in matched_pred),
        missing_templates=tuple(j for j in range(len(doc.gold_templates)) if j not in matched_gold),
        role_tallies=dict(zip(names, map(Tally, numerators.values(), pred_totals, gold_totals))),
        total=Tally(sum(numerators.values()), sum(pred_totals), sum(gold_totals)),
        error_tally=sum(table.errors[p][g] - 2 for p, g in chosen) + len(table.pred_rows) + len(table.gold_rows),
        approximate=approximate,
    )


def _optimal_assignment(
    numerators: list[list[int]], errors: list[list[int]], gold_count: int
) -> tuple[tuple[int, int], ...]:
    """The pair tuple minimizing ``(-Σ numerator, Σ errors + P + G - 2|A|, pairs)``.

    Both sums add up over pairs, so one integer cost per pair,
    ``-numerator·M + (errors - 2)`` with ``M`` above any possible spread
    of the error term, orders assignments by the first two keys.
    """
    big = 2 * sum(abs(e - 2) for row in errors for e in row) + 1
    cost = {
        (p, g): w
        for p, (numerator_row, error_row) in enumerate(zip(numerators, errors))
        for g in range(gold_count)
        if (w := -numerator_row[g] * big + error_row[g] - 2) <= 0
    }
    return lexmin_assignment(cost)


def find_optimal_matching(
    doc: Document,
    schema: Schema,
    config: AnalysisConfig | None = None,
    index: MatchIndex | None = None,
) -> TemplateMatching:
    """The F1-optimal matching of one document, by an exact assignment solve.

    Maximizes the exact-match numerator, then minimizes the implied
    errors, then takes the lexicographically smallest pair tuple; the
    search is polynomial in the template counts. Raises
    ComplexityGuardExceeded before scoring any pair when the closed-form
    matching count exceeds its cap. Pairs are scored by ``_pair_scores``
    with ``_best_role_pairing``, the same lex-min assignment one level
    down, so no role pairing is enumerated and no role has a cap.
    ``index`` is the document's match index, built here when not given.
    """
    config = config or AnalysisConfig()
    pred_count = len(doc.predicted_templates)
    gold_count = len(doc.gold_templates)
    total_matchings = printable_template_matchings(pred_count, gold_count)
    if total_matchings is None or total_matchings > config.max_template_matchings:
        shown = f"more than {MAX_COUNT_DIGITS} digits" if total_matchings is None else total_matchings
        raise ComplexityGuardExceeded(doc.doc_id, "template matchings", shown, config.max_template_matchings)
    if index is None:
        index = MatchIndex.for_document(doc, schema, config)
    table = _pair_scores(doc, schema, config, index, _best_role_pairing)
    best = _optimal_assignment(table.numerators, table.errors, gold_count)
    return _assemble(doc, schema, best, table, approximate=False)


def _greedy_role_pairing(cells: Cells, pred_count: int) -> tuple[MentionPair, ...]:
    """Exact pairs first, each pred taking its lowest free entity; then the nearest free span."""
    taken: set[int] = set()
    paired: dict[int, int] = {}
    # The exact cells by (pred, entity), then the rest by (pred, score, entity).
    for _, i, _, j in sorted((not m.exact, i, 0.0 if m.exact else m.score, j) for (i, j), m in cells.items()):
        if i not in paired and j not in taken:
            taken.add(j)
            paired[i] = j
    return _build_pairing(tuple(sorted(paired.items())), cells)


def greedy_matching(
    doc: Document,
    schema: Schema,
    config: AnalysisConfig | None = None,
    index: MatchIndex | None = None,
) -> TemplateMatching:
    """Approximate fallback: accept template pairs by descending pairwise F1.

    Avoids the assignment solves at the cost of optimality; results are
    flagged approximate. A pair's F1 is taken over its own fillers only.
    Pairs are scored by ``_pair_scores``, the table the exact matcher
    uses, with the greedy role pairer on the linked roles.
    """
    config = config or AnalysisConfig()
    if index is None:
        index = MatchIndex.for_document(doc, schema, config)
    table = _pair_scores(doc, schema, config, index, _greedy_role_pairing)
    gold_sizes = list(map(sum, table.gold_rows))
    candidates = []
    for p, pred_size in enumerate(map(sum, table.pred_rows)):
        for g, (gold_size, numerator, errors) in enumerate(zip(gold_sizes, table.numerators[p], table.errors[p])):
            if numerator > 0 or pred_size + gold_size == 0:
                pair_f1 = Tally(numerator, pred_size, gold_size).f1
                candidates.append((-pair_f1, errors, p, g))
    candidates.sort()
    used_pred: set[int] = set()
    used_gold: set[int] = set()
    chosen = []
    for _, _, p, g in candidates:
        if p in used_pred or g in used_gold:
            continue
        used_pred.add(p)
        used_gold.add(g)
        chosen.append((p, g))
    chosen.sort()
    return _assemble(doc, schema, tuple(chosen), table, approximate=True)
