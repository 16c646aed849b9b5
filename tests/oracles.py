"""Independent brute-force oracles the implementation is checked against.

Everything here re-derives results from first principles (plain
recursion, no caching, no shortcuts) so a bug in the library cannot
hide in the test that checks for it.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from itertools import combinations, permutations
from typing import Iterator, Mapping

from tfea import __version__
from tfea.corpus import schema_to_dict
from tfea.errors import ERROR_TYPES, ErrorProfile
from tfea.exceptions import ParseError, SchemaMismatch
from tfea.matching import MentionPair, Tally, TemplateMatching, TemplatePair
from tfea.model import (
    Document,
    GoldEntity,
    Mention,
    RoleKind,
    Schema,
    Span,
    Template,
    find_normalized,
    normalize,
    texts_match,
)
from tfea.reports import TOOL_NAME, _scores_dict, config_echo, transformation_entry
from tfea.spans import ScsMode


def brute_force_matching_count(pred_count: int, gold_count: int) -> int:
    count = 0
    for size in range(min(pred_count, gold_count) + 1):
        for _pred_subset in combinations(range(pred_count), size):
            for _gold_perm in permutations(range(gold_count), size):
                count += 1
    return count


def iter_template_matchings(pred_count: int, gold_count: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every injective partial pairing as a pred-index-sorted pair tuple."""

    def rec(pred_index: int, used: set[int]) -> Iterator[tuple[tuple[int, int], ...]]:
        if pred_index == pred_count:
            yield ()
            return
        for rest in rec(pred_index + 1, used):
            yield rest
        for gold_index in range(gold_count):
            if gold_index in used:
                continue
            used.add(gold_index)
            for rest in rec(pred_index + 1, used):
                yield ((pred_index, gold_index),) + rest
            used.remove(gold_index)

    return rec(0, set())


def find_normalized_reference(text: str, doc_text: str, casefold: bool = True):
    """``model.find_normalized`` by regex: the tokens joined by ``\\s+``.

    With ``casefold`` on, the tokens of the case-folded and of the
    as-written normalized text are both searched under ``re.IGNORECASE``,
    and the earlier match by ``(start, end)`` is returned.
    """
    if not normalize(text, casefold):
        return None
    flags = re.IGNORECASE if casefold else 0
    found = []
    for key in (normalize(text, casefold), normalize(text, casefold=False)):
        match = re.search(r"\s+".join(re.escape(tok) for tok in key.split(" ")), doc_text, flags)
        if match is not None:
            found.append((match.start(), match.end()))
    return Span(*min(found)) if found else None


def _geometric_scs(a, b) -> float:
    if a is None or b is None:
        return 1.0
    len_a, len_b = a.end - a.start, b.end - b.start
    if len_a == 0 or len_b == 0:
        return 1.0
    overlap = max(0, min(a.end, b.end) - max(a.start, b.start))
    return 1.0 - (overlap * overlap) / (len_a * len_b)


def _absolute_scs(a, b) -> float:
    if a is None or b is None:
        return 1.0
    total = (a.end - a.start) + (b.end - b.start)
    if total == 0:
        return 1.0
    return min(1.0, (abs(a.start - b.start) + abs(a.end - b.end)) / total)


def entity_match_reference(mention, entity, mode: ScsMode, casefold: bool):
    """``(exact, score, gold mention)`` of one predicted mention against one entity.

    Straight from the definition, with every entity mention compared:
    exact on the first mention with equal normalized text; the score is
    the minimum SCS; otherwise partial on the arg-min of ``(score, span
    start, mention order)`` when that score is below 1; otherwise no match.
    """
    scs = _absolute_scs if mode is ScsMode.ABSOLUTE else _geometric_scs
    text = normalize(mention.text, casefold)
    exact = [g for g in entity.mentions if normalize(g.text, casefold) == text]
    ranked = sorted(
        (scs(mention.span, g.span), g.span.start if g.span is not None else float("inf"), k)
        for k, g in enumerate(entity.mentions)
    )
    score, _, k = ranked[0]
    if exact:
        return True, score, exact[0]
    if score < 1.0:
        return False, score, entity.mentions[k]
    return False, 1.0, None


def _mention_pairings(cells) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """``(-exact, -partial, pairs)`` of every injective partial pairing over ``cells``.

    ``cells[i][j]`` is ``(exact, score, gold mention)``. A pair is allowed
    only when its cell is exact or scores below 1: disjoint spans carry
    no evidence of a span mistake. Pred ``i`` is first left unpaired,
    then paired with each free allowed entity in index order.
    """
    out = []

    def rec(i: int, used: frozenset, pairs: tuple, exact: int, partial: int):
        if i == len(cells):
            out.append((-exact, -partial, pairs))
            return
        rec(i + 1, used, pairs, exact, partial)
        for j, (is_exact, score, _) in enumerate(cells[i]):
            if j not in used and (is_exact or score < 1.0):
                rec(i + 1, used | {j}, pairs + ((i, j),), exact + is_exact, partial + (not is_exact))

    rec(0, frozenset(), (), 0, 0)
    return out


def _mention_pairing(pairs, cells) -> tuple[MentionPair, ...]:
    return tuple(MentionPair(i, j, *cells[i][j]) for i, j in pairs)


def _reference_cells(pred, gold, mode: ScsMode, casefold: bool):
    return [[entity_match_reference(m, e, mode, casefold) for e in gold] for m in pred]


def enumerate_mention_matchings(pred, gold, mode: ScsMode = ScsMode.GEOMETRIC, casefold: bool = True):
    """Every pairing of mentions to entities, with cells from ``entity_match_reference``."""
    cells = _reference_cells(pred, gold, mode, casefold)
    return [_mention_pairing(pairs, cells) for *_, pairs in _mention_pairings(cells)]


def best_mention_matching_reference(pred, gold, mode: ScsMode, casefold: bool) -> tuple[MentionPair, ...]:
    """Most exact pairs, then most partial pairs, then the smallest ``(pred, entity)`` tuple."""
    cells = _reference_cells(pred, gold, mode, casefold)
    *_, pairs = min(_mention_pairings(cells))
    return _mention_pairing(pairs, cells)


def _pair_allowed(mention, entity, casefold: bool) -> bool:
    for gold_mention in entity.mentions:
        if normalize(mention.text, casefold) == normalize(gold_mention.text, casefold):
            return True
        if _geometric_scs(mention.span, gold_mention.span) < 1.0:
            return True
    return False


def _pair_exact(mention, entity, casefold: bool) -> bool:
    return any(
        normalize(mention.text, casefold) == normalize(g.text, casefold)
        for g in entity.mentions
    )


def _best_role_numerator(mentions, entities, casefold: bool) -> int:
    best = 0

    def rec(i: int, used: frozenset, exact: int):
        nonlocal best
        if i == len(mentions):
            best = max(best, exact)
            return
        rec(i + 1, used, exact)
        for j, entity in enumerate(entities):
            if j in used or not _pair_allowed(mentions[i], entity, casefold):
                continue
            rec(i + 1, used | {j}, exact + int(_pair_exact(mentions[i], entity, casefold)))

    rec(0, frozenset(), 0)
    return best


def role_cells(index, rows, group) -> dict:
    """``(i, entity index) -> match`` over the cells of ``rows[i]`` in ``group``, in row order."""
    return {
        (i, j): match
        for i, row in enumerate(rows)
        for (cell_group, j), match in index.row(row).items()
        if cell_group == group
    }


def pair_scores_reference(doc: Document, schema: Schema, config, index, pair_role) -> dict:
    """``(p, g) -> (numerator, errors, role numerators, role pairings)`` by the full role loop.

    Every string-fill role of every template pair goes through
    ``pair_role``, cells or not, and every set-fill role compares its two
    values by normalizing both. The cells come from the library's
    ``MatchIndex``, which is checked on its own against
    ``entity_match_reference``; this oracle checks only which roles
    may skip the pairer.
    """
    scores = {}
    for p, pred in enumerate(doc.predicted_templates):
        for g, gold in enumerate(doc.gold_templates):
            numerator = errors = 0
            role_numerators, role_pairings = {}, {}
            for role in schema:
                if role.kind is RoleKind.SET_FILL:
                    pv, gv = pred.set_fill(role.name), gold.set_fill(role.name)
                    if pv is not None and gv is not None:
                        same = normalize(pv, config.casefold) == normalize(gv, config.casefold)
                        num, err = (1, 0) if same else (0, 2)
                    else:
                        num, err = 0, int(pv is not None or gv is not None)
                    numerator += num
                    errors += err
                    if num:
                        role_numerators[role.name] = num
                    continue
                mentions, entities = pred.mentions(role.name), gold.entities(role.name)
                cells = role_cells(index, [(p, role.name, i) for i in range(len(mentions))], (g, role.name))
                pairing = pair_role(cells, len(mentions))
                exact = sum(1 for pair in pairing if pair.exact)
                numerator += exact
                if exact:
                    role_numerators[role.name] = exact
                errors += len(mentions) + len(entities) - 2 * exact - (len(pairing) - exact)
                role_pairings[role.name] = pairing
            scores[p, g] = (numerator, errors, role_numerators, role_pairings)
    return scores


def matching_from_reference(doc: Document, schema: Schema, config, index, pair_role, chosen, approximate: bool):
    """The ``TemplateMatching`` of the ``chosen`` pairs, assembled from ``pair_scores_reference``.

    Denominators are counted from the templates, each role adds the
    chosen pairs' role numerators one ``Tally`` at a time, and the error
    tally is the chosen pairs' errors plus one per unmatched template.
    """
    scores = pair_scores_reference(doc, schema, config, index, pair_role)
    preds, golds = doc.predicted_templates, doc.gold_templates

    def fillers(template: Template, role, gold: bool) -> int:
        if role.kind is RoleKind.SET_FILL:
            return int(template.set_fill(role.name) is not None)
        return len(template.entities(role.name) if gold else template.mentions(role.name))

    role_tallies = {
        role.name: Tally(0, sum(fillers(t, role, False) for t in preds), sum(fillers(t, role, True) for t in golds))
        for role in schema
    }
    for pair in chosen:
        for role_name, num in scores[pair][2].items():
            role_tallies[role_name] += Tally(num, 0, 0)
    total = Tally()
    for tally in role_tallies.values():
        total += tally
    matched_pred, matched_gold = {p for p, _ in chosen}, {g for _, g in chosen}
    return TemplateMatching(
        doc_id=doc.doc_id,
        pairs=tuple(TemplatePair(p, g, dict(scores[p, g][3]), tuple(r.name for r in schema.set_fill_roles if r.name in scores[p, g][2])) for p, g in chosen),
        spurious_templates=tuple(p for p in range(len(preds)) if p not in matched_pred),
        missing_templates=tuple(g for g in range(len(golds)) if g not in matched_gold),
        role_tallies=role_tallies,
        total=total,
        error_tally=sum(scores[pair][1] for pair in chosen) + len(preds) + len(golds) - 2 * len(chosen),
        approximate=approximate,
    )


def naive_denominators(doc: Document, schema: Schema, casefold: bool = True):
    p_den = r_den = 0
    for template in doc.predicted_templates:
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                p_den += int(template.set_fill(role.name) is not None)
            else:
                p_den += len(template.mentions(role.name))
    for template in doc.gold_templates:
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                r_den += int(template.set_fill(role.name) is not None)
            else:
                r_den += len(template.entities(role.name))
    return p_den, r_den


def naive_best_f1(doc: Document, schema: Schema, casefold: bool = True):
    """Maximum document F1 over every template and mention matching."""
    preds, golds = doc.predicted_templates, doc.gold_templates
    p_den, r_den = naive_denominators(doc, schema, casefold)

    def pair_numerator(pred: Template, gold: Template) -> int:
        total = 0
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                pv, gv = pred.set_fill(role.name), gold.set_fill(role.name)
                if pv is not None and gv is not None:
                    total += int(normalize(pv, casefold) == normalize(gv, casefold))
            else:
                total += _best_role_numerator(
                    pred.mentions(role.name), gold.entities(role.name), casefold
                )
        return total

    best_numerator = 0
    for size in range(min(len(preds), len(golds)) + 1):
        for pred_subset in combinations(range(len(preds)), size):
            for gold_perm in permutations(range(len(golds)), size):
                numerator = sum(
                    pair_numerator(preds[p], golds[g])
                    for p, g in zip(pred_subset, gold_perm)
                )
                best_numerator = max(best_numerator, numerator)

    precision = 1.0 if p_den == 0 else best_numerator / p_den
    recall = 1.0 if r_den == 0 else best_numerator / r_den
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return best_numerator, p_den, r_den, f1


def _entity_covered_by(mention, entity, casefold: bool) -> bool:
    return any(
        normalize(mention.text, casefold) == normalize(g.text, casefold)
        for g in entity.mentions
    )


def _templates_equivalent(pred: Template, gold: Template, schema: Schema, casefold: bool) -> bool:
    for role in schema:
        if role.kind is RoleKind.SET_FILL:
            pv, gv = pred.set_fill(role.name), gold.set_fill(role.name)
            if (pv is None) != (gv is None):
                return False
            if pv is not None and normalize(pv, casefold) != normalize(gv, casefold):
                return False
            continue
        mentions = pred.mentions(role.name)
        entities = gold.entities(role.name)
        if len(mentions) != len(entities):
            return False

        def bijection(i: int, used: frozenset) -> bool:
            if i == len(mentions):
                return True
            for j, entity in enumerate(entities):
                if j in used or not _entity_covered_by(mentions[i], entity, casefold):
                    continue
                if bijection(i + 1, used | {j}):
                    return True
            return False

        if not bijection(0, frozenset()):
            return False
    return True


def templates_gold_equivalent(
    pred_templates, gold_templates, schema: Schema, casefold: bool = True
) -> bool:
    """Multiset equality of templates up to canonical-mention choice."""
    preds = list(pred_templates)
    golds = list(gold_templates)
    if len(preds) != len(golds):
        return False

    def rec(i: int, used: frozenset) -> bool:
        if i == len(preds):
            return True
        for j in range(len(golds)):
            if j in used:
                continue
            if _templates_equivalent(preds[i], golds[j], schema, casefold):
                if rec(i + 1, used | {j}):
                    return True
        return False

    return rec(0, frozenset())


# The corpus loader and span resolver written the plain way: every check
# made directly, every text normalized where it is compared, and every
# template rebuilt. ``tfea.corpus.load_side`` and
# ``tfea.model.resolve_document_spans`` must agree with these exactly,
# down to the text and order of the WARNING lines.

_log = logging.getLogger("tfea")


def _mention_reference(raw, doc_text: str, path: str, where: str, casefold: bool) -> Mention:
    if not isinstance(raw, Mapping) or "text" not in raw:
        raise ParseError(path, f"mention must be an object with 'text'", where)
    text = raw["text"]
    if not isinstance(text, str):
        raise ParseError(path, f"mention text must be a string, got {text!r}", where)
    start, end = raw.get("start"), raw.get("end")
    if start is None and end is None:
        return Mention(text)
    if not (type(start) is int and type(end) is int and 0 <= start <= end):
        _log.warning("%s: invalid offsets [%r, %r) for %r, re-locating", where, start, end, text)
        return Mention(text, find_normalized(text, doc_text, casefold))
    span = Span(start, end)
    if span.end > len(doc_text):
        _log.warning("%s: span [%d, %d) falls outside the document, re-locating", where, span.start, span.end)
        return Mention(text, find_normalized(text, doc_text, casefold))
    if normalize(doc_text[span.start : span.end], casefold) != normalize(text, casefold):
        _log.warning(
            "%s: text %r does not match the document at [%d, %d), re-locating",
            where,
            text,
            span.start,
            span.end,
        )
        return Mention(text, find_normalized(text, doc_text, casefold))
    return Mention(text, span)


def _template_reference(raw, schema: Schema, gold: bool, doc_text: str, path: str, doc_id: str, index: int, casefold: bool) -> Template:
    if not isinstance(raw, Mapping):
        raise ParseError(path, f"template must be an object, got {raw!r}", f"doc '{doc_id}' template {index}")
    fillers: dict = {}
    for role_name, value in raw.items():
        if role_name not in schema:
            raise SchemaMismatch(path, role_name, f"doc '{doc_id}' template {index}")
        role = schema.role(role_name)
        where = f"doc '{doc_id}' template {index} role '{role_name}'"
        if role.kind is RoleKind.SET_FILL:
            if not isinstance(value, str):
                raise ParseError(path, f"set-fill filler must be a string, got {value!r}", where)
            if not any(texts_match(value, v, casefold) for v in role.values):
                _log.warning("%s: value %r is not in the role inventory", where, value)
            fillers[role_name] = value
            continue
        if not isinstance(value, list):
            raise ParseError(path, f"string-fill filler must be a list, got {value!r}", where)
        if gold:
            entities = []
            for ent in value:
                if not isinstance(ent, list) or not ent:
                    raise ParseError(path, f"gold entity must be a non-empty mention list, got {ent!r}", where)
                entities.append(
                    GoldEntity(tuple(_mention_reference(m, doc_text, path, where, casefold) for m in ent))
                )
            seen: set[str] = set()
            for entity in entities:
                for mention in entity.mentions:
                    key = normalize(mention.text, casefold)
                    if key in seen:
                        _log.warning("%s: mention %r appears in two entities", where, mention.text)
                    seen.add(key)
            fillers[role_name] = tuple(entities)
        else:
            fillers[role_name] = tuple(
                _mention_reference(m, doc_text, path, where, casefold) for m in value
            )
        if not role.multi and len(fillers[role_name]) > 1:
            _log.warning("%s: multiple fillers for a single-fill role", where)
    return Template(fillers)


class _RepeatedKeys(dict):
    def __init__(self, pairs: list, repeated: list[str]):
        super().__init__(pairs)
        self.repeated = repeated


def _decode_object(pairs: list) -> dict:
    decoded = dict(pairs)
    if len(decoded) == len(pairs):
        return decoded
    counts = Counter(key for key, _ in pairs)
    return _RepeatedKeys(pairs, [key for key in decoded if counts[key] > 1])


def load_side_reference(path: str, schema: Schema, gold: bool, casefold: bool = True) -> dict:
    """``tfea.corpus.load_side``: doc id -> (document text, templates)."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_decode_object)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(path, f"cannot read corpus: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ParseError(path, "corpus must be an object keyed by document id")
    repeated = getattr(raw, "repeated", None)
    if repeated:
        raise ParseError(path, "doc id appears more than once", f"doc '{repeated[0]}'")
    side: dict = {}
    for doc_id, entry in raw.items():
        where = f"doc '{doc_id}'"
        if not isinstance(entry, Mapping) or "doctext" not in entry:
            raise ParseError(path, "document entry needs 'doctext'", where)
        for key in entry:
            if key not in ("doctext", "templates"):
                raise ParseError(path, f"unknown key '{key}'; known: doctext, templates", where)
        text = entry["doctext"]
        if not isinstance(text, str):
            raise ParseError(path, f"'doctext' must be a string, got {text!r}", where)
        raw_templates = entry.get("templates", [])
        if not isinstance(raw_templates, list):
            raise ParseError(path, f"'templates' must be a list, got {raw_templates!r}", where)
        side[doc_id] = (
            text,
            tuple(
                _template_reference(t, schema, gold, text, path, doc_id, i, casefold)
                for i, t in enumerate(raw_templates)
            ),
        )
    return side


def resolve_document_spans_reference(doc: Document, casefold: bool = True) -> Document:
    """``tfea.model.resolve_document_spans``, rebuilding every template and entity."""

    def resolve(mention: Mention) -> Mention:
        if mention.span is not None:
            return mention
        span = find_normalized(mention.text, doc.text, casefold)
        return mention if span is None else Mention(mention.text, span)

    def resolve_templates(templates):
        out = []
        for template in templates:
            fillers = {}
            for role, value in template.role_fillers.items():
                if isinstance(value, str):
                    fillers[role] = value
                else:
                    fillers[role] = tuple(
                        GoldEntity(tuple(resolve(m) for m in item.mentions))
                        if isinstance(item, GoldEntity)
                        else resolve(item)
                        for item in value
                    )
            out.append(Template(fillers))
        return tuple(out)

    return Document(
        doc.doc_id,
        doc.text,
        resolve_templates(doc.gold_templates),
        resolve_templates(doc.predicted_templates),
    )


# The dense lex-min assignment the matcher used before it kept only the
# cells that can be optimal and solved each connected component on its
# own: every document padded to one (P+G)-square matrix, one Hungarian
# solve, one tight-cell walk. Frozen here as the reference that
# ``tfea.assignment.lexmin_assignment`` must agree with.

def _dense_min_cost_assignment(cost: list[list[int | None]]) -> tuple[list[int], list[int], list[int]]:
    """Hungarian method on a square integer matrix; ``None`` cells are forbidden.

    Kuhn's method in its O(n³) shortest-augmenting-path form with row
    and column potentials (Jonker–Volgenant; Crouse 2016, doi:10.1109/
    TAES.2016.140952). Returns ``row_of`` (the row
    assigned to each column) and the optimal duals ``u`` and ``v``, which
    satisfy ``u[r] + v[c] <= cost[r][c]`` on every allowed cell with
    equality on the assignment. The caller must ensure a perfect
    assignment over allowed cells exists.
    """
    n = len(cost)
    u = [0] * n
    v = [0] * (n + 1)
    row_of = [-1] * (n + 1)  # column n is the sentinel the new row starts from
    for row in range(n):
        row_of[n] = row
        col = n
        min_slack = [math.inf] * (n + 1)
        way = [n] * (n + 1)
        used = [False] * (n + 1)
        while row_of[col] != -1:
            used[col] = True
            r = row_of[col]
            delta, next_col = math.inf, n
            for c in range(n):
                if used[c]:
                    continue
                w = cost[r][c]
                if w is not None and w - u[r] - v[c] < min_slack[c]:
                    min_slack[c] = w - u[r] - v[c]
                    way[c] = col
                if min_slack[c] < delta:
                    delta, next_col = min_slack[c], c
            for c in range(n + 1):
                if used[c]:
                    u[row_of[c]] += delta
                    v[c] -= delta
                else:
                    min_slack[c] -= delta
            col = next_col
        while col != n:
            row_of[col] = row_of[way[col]]
            col = way[col]
    return row_of[:n], u, v[:n]


def dense_optimal_assignment(
    numerators: list[list[int]], errors: list[list[int]], gold_count: int
) -> tuple[tuple[int, int], ...]:
    """The pair tuple minimizing ``(-Σ numerator, Σ errors + P + G - 2|A|, pairs)``.

    Both sums add up over pairs, so one integer cost per pair,
    ``-numerator·M + (errors - 2)`` with ``M`` above any possible spread
    of the error term, orders assignments by the first two keys.
    """
    big = 2 * sum(abs(e - 2) for row in errors for e in row) + 1
    cost: list[list[int | None]] = [
        [-n * big + e - 2 for n, e in zip(numerator_row, error_row)]
        for numerator_row, error_row in zip(numerators, errors)
    ]
    return dense_lexmin_assignment(cost, gold_count)


def dense_lexmin_assignment(cost: list[list[int | None]], gold_count: int) -> tuple[tuple[int, int], ...]:
    """The pair tuple minimizing ``(Σ cost, pairs)`` over a P×G matrix.

    ``cost[p][g]`` is the cost of pairing pred ``p`` with gold ``g``, or
    ``None`` where that pair is forbidden; an unpaired row or column
    costs 0. Padding to a (P+G)-square matrix lets every pred row take
    its own dummy column and every gold-dummy row take its gold column
    or any dummy column, all at cost 0, so leaving either side unmatched
    is free.

    The optimal assignments are exactly the perfect matchings on the
    cells that are tight under the optimal duals. The lexicographic
    tie-break walks the preds in order: stop once the fixed pairs already
    reach the optimum (the shortest tuple is the smallest), else fix the
    smallest gold that an alternating cycle of tight cells can reroute
    the current assignment onto, else leave the pred unmatched.
    """
    pred_count = len(cost)
    size = pred_count + gold_count
    padded: list[list[int | None]] = [
        row + [0 if j == p else None for j in range(pred_count)] for p, row in enumerate(cost)
    ] + [
        [0 if j == g else None for j in range(gold_count)] + [0] * pred_count
        for g in range(gold_count)
    ]
    row_of, u, v = _dense_min_cost_assignment(padded)
    col_of = [0] * size
    for c, r in enumerate(row_of):
        col_of[r] = c
    optimum = sum(padded[r][col_of[r]] for r in range(size))
    tight = [
        [c for c, w in enumerate(padded[r]) if w is not None and u[r] + v[c] == w]
        for r in range(size)
    ]
    fixed = [False] * size  # columns taken by decided preds
    chosen: list[tuple[int, int]] = []
    reached = 0
    for p in range(pred_count):
        if reached == optimum:
            break
        for g in tight[p]:
            if g >= gold_count or fixed[g]:
                continue
            if g == col_of[p] or _dense_reroute(p, g, tight, row_of, col_of, fixed):
                chosen.append((p, g))
                reached += padded[p][g]
                break
        fixed[col_of[p]] = True
    return tuple(chosen)


def _dense_reroute(
    pred: int,
    gold: int,
    tight: list[list[int]],
    row_of: list[int],
    col_of: list[int],
    fixed: list[bool],
) -> bool:
    """Move ``pred`` onto ``gold`` along an alternating cycle of tight cells.

    Searches from the row now holding ``gold`` for a path that ends at
    the column ``pred`` gives up; on success every row on it shifts one
    column along, which keeps the assignment optimal.
    """
    target = col_of[pred]
    parent = {gold: gold}
    frontier = [gold]
    for col in frontier:
        for nxt in tight[row_of[col]]:
            if fixed[nxt] or nxt in parent:
                continue
            parent[nxt] = col
            if nxt == target:
                while nxt != gold:
                    prev = parent[nxt]
                    row_of[nxt] = row_of[prev]
                    col_of[row_of[nxt]] = nxt
                    nxt = prev
                row_of[gold] = pred
                col_of[pred] = gold
                return True
            frontier.append(nxt)
    return False


def _counts_reference(counts: Mapping) -> dict:
    return {etype.value: counts.get(etype, 0) for etype in ERROR_TYPES}


def _side_tallies_reference(profile: ErrorProfile) -> dict:
    return {
        "spurious_template_role_fillers": profile.spurious_template_role_fillers,
        "missing_template_role_fillers": profile.missing_template_role_fillers,
    }


def build_report_reference(analysis, config, label: str = "system", include_errors: bool = True) -> dict:
    """The report straight from the analysis records: corpus scores and profile by their properties.

    This is how the report was assembled before documents became report
    rows where they are analyzed.
    """
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "label": label,
        "config": config_echo(config),
        "schema": schema_to_dict(analysis.schema),
        "scores": _scores_dict(analysis.scores, analysis.schema),
        "skipped_documents": [{"doc_id": d.doc_id, "reason": d.guard_message} for d in analysis.skipped],
        "approximate_documents": [d.doc_id for d in analysis.documents if d.approximate],
    }
    if include_errors:
        profile = analysis.profile
        per_doc = {d.doc_id: d.profile for d in analysis.analyzed if d.profile is not None}
        report["errors"] = {
            "per_type": _counts_reference(profile.counts),
            "per_role": {
                role: _counts_reference(profile.per_role.get(role, {})) for role in analysis.schema.names
            },
            "side_tallies": _side_tallies_reference(profile),
            "per_doc": {
                doc_id: {"per_type": _counts_reference(p.counts), "side_tallies": _side_tallies_reference(p)}
                for doc_id, p in sorted(per_doc.items())
            },
        }
        report["transformations"] = {
            d.doc_id: [transformation_entry(t) for t in d.log] for d in analysis.analyzed if d.log is not None
        }
    return report
