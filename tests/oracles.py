"""Independent brute-force oracles the implementation is checked against.

Everything here re-derives results from first principles (plain
recursion, no caching, no shortcuts) so a bug in the library cannot
hide in the test that checks for it.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations

from tfea.matching import MentionPair, MentionPairing
from tfea.model import Document, RoleKind, Schema, Span, Template, normalize
from tfea.spans import ScsMode


def brute_force_matching_count(pred_count: int, gold_count: int) -> int:
    count = 0
    for size in range(min(pred_count, gold_count) + 1):
        for _pred_subset in combinations(range(pred_count), size):
            for _gold_perm in permutations(range(gold_count), size):
                count += 1
    return count


def find_normalized_reference(text: str, doc_text: str, casefold: bool = True):
    """``model.find_normalized`` as one regex: the tokens joined by ``\\s+``."""
    tokens = normalize(text, casefold).split(" ")
    if tokens == [""]:
        return None
    pattern = r"\s+".join(re.escape(tok) for tok in tokens)
    flags = re.IGNORECASE if casefold else 0
    found = re.search(pattern, doc_text, flags)
    if found is None:
        return None
    return Span(found.start(), found.end())


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


def _mention_pairing(pairs, cells, gold_count: int) -> MentionPairing:
    paired_pred, paired_gold = {i for i, _ in pairs}, {j for _, j in pairs}
    return MentionPairing(
        tuple(MentionPair(i, j, *cells[i][j]) for i, j in pairs),
        tuple(i for i in range(len(cells)) if i not in paired_pred),
        tuple(j for j in range(gold_count) if j not in paired_gold),
    )


def _reference_cells(pred, gold, mode: ScsMode, casefold: bool):
    return [[entity_match_reference(m, e, mode, casefold) for e in gold] for m in pred]


def enumerate_mention_matchings(pred, gold, mode: ScsMode = ScsMode.GEOMETRIC, casefold: bool = True):
    """Every pairing of mentions to entities, with cells from ``entity_match_reference``."""
    cells = _reference_cells(pred, gold, mode, casefold)
    return [_mention_pairing(pairs, cells, len(gold)) for *_, pairs in _mention_pairings(cells)]


def best_mention_matching_reference(pred, gold, mode: ScsMode, casefold: bool) -> MentionPairing:
    """Most exact pairs, then most partial pairs, then the smallest ``(pred, entity)`` tuple."""
    cells = _reference_cells(pred, gold, mode, casefold)
    *_, pairs = min(_mention_pairings(cells))
    return _mention_pairing(pairs, cells, len(gold))


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
                group = (g, role.name)
                rows = [index.hits((p, role.name, i), group) for i in range(len(mentions))]
                pairing = pair_role(rows, len(entities))
                exact = sum(1 for pair in pairing.pairs if pair.exact)
                numerator += exact
                if exact:
                    role_numerators[role.name] = exact
                errors += len(mentions) + len(entities) - 2 * exact - (len(pairing.pairs) - exact)
                role_pairings[role.name] = pairing
            scores[p, g] = (numerator, errors, role_numerators, role_pairings)
    return scores


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
