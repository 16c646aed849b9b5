"""Matcher: counting formula, enumeration, optimality, guards, greedy fallback."""

import random
from collections import Counter
from functools import lru_cache

import pytest

from oracles import (
    best_mention_matching_reference,
    brute_force_matching_count,
    dense_lexmin_assignment,
    dense_optimal_assignment,
    entity_match_reference,
    enumerate_mention_matchings,
    iter_template_matchings,
    matching_from_reference,
    naive_best_f1,
    naive_denominators,
    pair_scores_reference,
    role_cells,
)
from support import fuzzed_corpus
from tfea.assignment import lexmin_assignment
from tfea.config import AnalysisConfig
from tfea.exceptions import ComplexityGuardExceeded
from tfea.matching import (
    PARTIAL_THRESHOLD,
    MatchIndex,
    Tally,
    _best_role_pairing,
    _build_pairing,
    _greedy_role_pairing,
    _optimal_assignment,
    _pair_scores,
    count_template_matchings,
    find_optimal_matching,
    greedy_matching,
)
from tfea.model import Document, GoldEntity, Mention, RoleKind, RoleSpec, Schema, Span, Template, texts_match
from tfea.spans import ScsMode

from conftest import gold_template, pred_template, span_mention


class TestCountFormula:
    @pytest.mark.parametrize("p,g,expected", [(0, 5, 1), (2, 2, 7), (1, 3, 4)])
    def test_known_values(self, p, g, expected):
        assert count_template_matchings(p, g) == expected

    @pytest.mark.parametrize("p", range(5))
    @pytest.mark.parametrize("g", range(5))
    def test_matches_brute_force(self, p, g):
        assert count_template_matchings(p, g) == brute_force_matching_count(p, g)

    @pytest.mark.parametrize("p", range(5))
    @pytest.mark.parametrize("g", range(5))
    def test_enumeration_count(self, p, g):
        matchings = list(iter_template_matchings(p, g))
        assert len(matchings) == count_template_matchings(p, g)
        assert len(set(matchings)) == len(matchings)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_template_matchings(-1, 2)


class TestMentionMatchings:
    def test_exact_candidate(self):
        pred = [span_mention("newcastle", 57)]
        gold = [GoldEntity((span_mention("Newcastle", 57),))]
        pairings = enumerate_mention_matchings(pred, gold)
        shapes = {tuple((p.pred_index, p.entity_index, p.exact) for p in m) for m in pairings}
        assert shapes == {(), ((0, 0, True),)}

    def test_nothing_to_pair(self):
        gold = [GoldEntity((span_mention("a", 0),)), GoldEntity((span_mention("b", 10),))]
        pairings = enumerate_mention_matchings([], gold)
        assert pairings == [()]

    def test_overlapping_spans_allow_partial(self):
        pred = [Mention("maoist shining path group", Span(100, 125))]
        gold = [GoldEntity((Mention("shining path", Span(107, 119)),))]
        pairings = enumerate_mention_matchings(pred, gold)
        assert len(pairings) == 2
        partial = [m for m in pairings if m]
        assert partial[0][0].exact is False
        assert 0 < partial[0][0].score < 1

    def test_disjoint_spans_not_pairable(self):
        pred = [span_mention("unrelated", 0)]
        gold = [GoldEntity((span_mention("target", 50),))]
        pairings = enumerate_mention_matchings(pred, gold)
        assert pairings == [()]

    def test_role_pairing_matches_enumeration(self):
        """The solved role pairing is the enumerated lex-min on tie-heavy roles."""
        rng = random.Random(4417)
        shapes, cells = Counter(), Counter()
        for _ in range(10_000):
            pred, gold = _random_role(rng)
            mode, casefold = rng.choice(list(ScsMode)), rng.random() < 0.7
            index = MatchIndex(enumerate(pred), ((None, j, e) for j, e in enumerate(gold)), mode, casefold)
            role = role_cells(index, range(len(pred)), None)
            preds, columns = [i for i, _ in role], [j for _, j in role]
            contested = len(set(preds)) < len(preds) or len(set(columns)) < len(columns)
            shapes["contested" if contested else "uncontested"] += 1
            cells.update(
                "exact" if (i, j) in role and role[i, j].exact else "partial" if (i, j) in role else "absent"
                for i in range(len(pred))
                for j in range(len(gold))
            )
            assert _best_role_pairing(role, len(pred)) == best_mention_matching_reference(
                pred, gold, mode, casefold
            ), (pred, gold, mode, casefold)
        assert min(shapes["contested"], shapes["uncontested"]) > 2000, shapes
        assert min(cells["exact"], cells["partial"], cells["absent"]) > 10_000, cells


def _random_role(rng: random.Random) -> tuple[list[Mention], list[GoldEntity]]:
    """Up to six mentions and six entities over a small vocabulary and a 10-character text.

    With one or two words most mentions have several exact cells that
    tie; spans are null, zero-length or 1-3 characters long, so partial
    cells nest, touch and tie on score.
    """
    words = rng.choice((("a",), ("a", "b"), ("a", "b"), tuple("abcdef"), tuple("abcdef")))

    def mention() -> Mention:
        text = rng.choice(words)
        if rng.random() < 0.3:
            text = text.upper()
        roll = rng.random()
        if roll < 0.15:
            return Mention(text)
        start = rng.randint(0, 7)
        return Mention(text, Span(start, start + (0 if roll < 0.25 else rng.randint(1, 3))))

    pred = [mention() for _ in range(rng.randint(0, 6))]
    gold = [GoldEntity(tuple(mention() for _ in range(rng.randint(1, 2)))) for _ in range(rng.randint(0, 6))]
    return pred, gold


_INDEX_SCHEMA = Schema(
    (
        RoleSpec("status", RoleKind.SET_FILL, values=("a",)),
        RoleSpec("agent", RoleKind.STRING_FILL),
        RoleSpec("target", RoleKind.STRING_FILL),
    )
)
_INDEX_ROLES = ("agent", "target")


def _random_index_doc(rng: random.Random) -> Document:
    """A tiny vocabulary in case and whitespace variants, over a 12-character text.

    Spans are null, zero-length, or 1-4 characters long, so texts collide
    across entities and roles, and spans nest, touch and tie on score.
    """

    def text() -> str:
        word = rng.choice(("a", "b", "a b"))
        if rng.random() < 0.3:
            word = word.upper()
        if rng.random() < 0.3:
            word = word.replace(" ", "  ")
        if rng.random() < 0.2:
            word = f" {word}\t"
        return word

    def mention() -> Mention:
        roll = rng.random()
        start = rng.randint(0, 8)
        if roll < 0.15:
            return Mention(text())
        if roll < 0.3:
            return Mention(text(), Span(start, start))
        return Mention(text(), Span(start, start + rng.randint(1, 4)))

    def entity() -> GoldEntity:
        return GoldEntity(tuple(mention() for _ in range(rng.randint(1, 3))))

    gold = [
        Template({"status": "a", **{r: tuple(entity() for _ in range(rng.randint(0, 2))) for r in _INDEX_ROLES}})
        for _ in range(rng.randint(0, 2))
    ]
    pred = [
        Template({"status": "A", **{r: tuple(mention() for _ in range(rng.randint(0, 3))) for r in _INDEX_ROLES}})
        for _ in range(rng.randint(0, 2))
    ]
    return Document("d", " " * 12, tuple(gold), tuple(pred))


def _index_cells(doc: Document):
    """Every (row, mention, group, entity index, entity) cell of a document."""
    for p, pred in enumerate(doc.predicted_templates):
        for role in _INDEX_ROLES:
            for i, mention in enumerate(pred.mentions(role)):
                for g, gold in enumerate(doc.gold_templates):
                    for gold_role in _INDEX_ROLES:
                        for e, entity in enumerate(gold.entities(gold_role)):
                            yield (p, role, i), mention, (g, gold_role), e, entity


class TestMatchIndex:
    def test_cells_equal_reference(self):
        """Every cell, in both SCS modes and both case settings, against the definition."""
        rng = random.Random(1013)
        configs = [
            AnalysisConfig(scs_mode=mode, case_sensitive=case_sensitive)
            for mode in ScsMode
            for case_sensitive in (False, True)
        ]
        seen = {"exact": 0, "partial": 0, "none": 0}
        for _ in range(1000):
            doc = _random_index_doc(rng)
            for config in configs:
                index = MatchIndex.for_document(doc, _INDEX_SCHEMA, config)
                for row, mention, group, e, entity in _index_cells(doc):
                    cell = index.cell(row, group, e)
                    expected = entity_match_reference(mention, entity, config.scs_mode, config.casefold)
                    assert (cell.exact, cell.score, cell.gold_mention) == expected, (
                        config, mention, entity
                    )
                    seen["exact" if cell.exact else "partial" if cell.score < PARTIAL_THRESHOLD else "none"] += 1
        assert min(seen.values()) > 1000, seen

    def test_bare_lists_read_the_same_cells(self):
        pred = [Mention("Shining  Path", Span(0, 12)), Mention("path", Span(8, 12)), Mention("x")]
        gold = [
            GoldEntity((Mention("shining path", Span(20, 32)), Mention("Path", Span(8, 12)))),
            GoldEntity((Mention("the path", Span(4, 12)),)),
        ]
        index = MatchIndex(enumerate(pred), ((None, j, e) for j, e in enumerate(gold)), ScsMode.GEOMETRIC, True)
        for i, mention in enumerate(pred):
            for j, entity in enumerate(gold):
                cell = index.cell(i, None, j)
                assert (cell.exact, cell.score, cell.gold_mention) == entity_match_reference(
                    mention, entity, ScsMode.GEOMETRIC, True
                )
        assert index.row(2) == {}


_PAIR_SCHEMA = Schema(
    (
        RoleSpec("agent", RoleKind.STRING_FILL),
        RoleSpec("status", RoleKind.SET_FILL, values=("a b", "c")),
        RoleSpec("target", RoleKind.STRING_FILL),
        RoleSpec("stage", RoleKind.SET_FILL, values=("a b", "c")),
    )
)


def _random_pair_doc(rng: random.Random) -> Document:
    """Templates over interleaved set-fill and string-fill roles, some empty.

    Set-fill values and mention texts come in case and whitespace
    variants of a tiny vocabulary, so values tie only after normalization
    and mentions often meet entities of another role.
    """

    def variant(word: str) -> str:
        if rng.random() < 0.3:
            word = word.upper()
        if rng.random() < 0.3:
            word = word.replace(" ", "  ")
        if rng.random() < 0.2:
            word = f" {word}\t"
        return word

    def mention() -> Mention:
        text = variant(rng.choice(("a", "b", "a b")))
        if rng.random() < 0.2:
            return Mention(text)
        start = rng.randint(0, 8)
        return Mention(text, Span(start, start + rng.randint(1, 4)))

    def template(gold: bool) -> Template:
        fillers: dict = {}
        if rng.random() < 0.15:
            return Template(fillers)
        for role in _PAIR_SCHEMA:
            if role.kind is RoleKind.SET_FILL:
                if rng.random() < 0.8:
                    fillers[role.name] = variant(rng.choice(role.values))
            elif gold:
                fillers[role.name] = tuple(
                    GoldEntity(tuple(mention() for _ in range(rng.randint(1, 2))))
                    for _ in range(rng.randint(0, 2))
                )
            else:
                fillers[role.name] = tuple(mention() for _ in range(rng.randint(0, 3)))
        return Template(fillers)

    gold = tuple(template(gold=True) for _ in range(rng.randint(0, 3)))
    pred = tuple(template(gold=False) for _ in range(rng.randint(0, 3)))
    return Document("d", " " * 12, gold, pred)


@lru_cache(maxsize=1)
def _pair_score_cases(config: AnalysisConfig | None = None) -> list[tuple[Document, Schema]]:
    """Fuzzed and random documents; given a config, fuzzed ones that tell settings apart, resolved under it."""
    from tfea.model import resolve_document_spans

    cases = []
    for seed in range(300):
        documents, schema = fuzzed_corpus(seed, vary_settings=config is not None)
        casefold = config is None or config.casefold
        cases += [(resolve_document_spans(doc, casefold), schema) for doc in documents]
    rng = random.Random(6061)
    return cases + [(_random_pair_doc(rng), _PAIR_SCHEMA) for _ in range(600)]


def _recorded(pair_role, calls: list):
    """``pair_role`` that logs, per call, whether the role has a cell."""

    def pairer(cells, pred_count):
        calls.append(bool(cells))
        return pair_role(cells, pred_count)

    return pairer


_PAIRERS = {
    "exact": _best_role_pairing,
    "greedy": _greedy_role_pairing,
}


_PAIR_KINDS = ("linked", "cell-less", "other role only", "empty template", "equal after normalizing")


def _pair_kinds(doc: Document, schema: Schema, index: MatchIndex, config: AnalysisConfig):
    """The kinds of template pair a document offers, one entry per pair and kind."""
    same, other = set(), set()
    for (p, role, _), cells in index.items():
        for (g, gold_role), _ in cells:
            (same if gold_role == role else other).add((p, g))
    for p, pred in enumerate(doc.predicted_templates):
        for g, gold in enumerate(doc.gold_templates):
            if (p, g) in same:
                yield "linked"
            else:
                yield "cell-less"
                if (p, g) in other:
                    yield "other role only"
            if not pred.role_fillers or not gold.role_fillers:
                yield "empty template"
            for role in schema.set_fill_roles:
                pv, gv = pred.set_fill(role.name), gold.set_fill(role.name)
                if pv is not None and gv is not None and pv != gv and texts_match(pv, gv, config.casefold):
                    yield "equal after normalizing"


class TestPairScores:
    @pytest.mark.parametrize("case_sensitive", [False, True])
    @pytest.mark.parametrize("mode", list(ScsMode))
    @pytest.mark.parametrize("pairer", sorted(_PAIRERS))
    def test_table_equals_full_role_loop(self, pairer, mode, case_sensitive):
        """Each pair's two ints, and the role numerators and pairings of its ``TemplatePair``, equal the full loop.

        Only unlinked roles skip the pairer, and every one of them does.
        """
        config = AnalysisConfig(scs_mode=mode, case_sensitive=case_sensitive)
        seen = Counter()
        for doc, schema in _pair_score_cases(config):
            index = MatchIndex.for_document(doc, schema, config)
            reference_calls, calls = [], []
            expected = pair_scores_reference(
                doc, schema, config, index, _recorded(_PAIRERS[pairer], reference_calls)
            )
            table = _pair_scores(doc, schema, config, index, _recorded(_PAIRERS[pairer], calls))
            shape = [len(doc.gold_templates)] * len(doc.predicted_templates)
            assert list(map(len, table.numerators)) == list(map(len, table.errors)) == shape, doc
            assert len(expected) == sum(shape), doc
            for (p, g), (numerator, errors, role_numerators, role_pairings) in expected.items():
                pair = table.pair(p, g)
                pair_numerators = dict.fromkeys(pair.matched_set_roles, 1)
                pair_numerators.update(
                    (role, n) for role, pairing in pair.role_pairings.items() if (n := sum(p.exact for p in pairing))
                )
                assert (table.numerators[p][g], table.errors[p][g], pair_numerators) == (
                    numerator, errors, role_numerators
                ), (doc, p, g)
                assert (pair.pred_index, pair.gold_index) == (p, g)
                assert list(pair.role_pairings.items()) == list(role_pairings.items()), (doc, p, g)
            assert all(calls) and len(calls) == sum(reference_calls), doc
            seen.update(_pair_kinds(doc, schema, index, config))
        assert min(seen[kind] for kind in _PAIR_KINDS) > 20, seen

    @pytest.mark.parametrize("matcher", sorted(_PAIRERS))
    def test_matching_equals_one_assembled_from_the_reference(self, matcher):
        """The returned matching equals the chosen pairs assembled from ``pair_scores_reference``."""
        config = AnalysisConfig()
        match = find_optimal_matching if matcher == "exact" else greedy_matching
        chosen_counts = Counter()
        for doc, schema in _pair_score_cases():
            index = MatchIndex.for_document(doc, schema, config)
            matching = match(doc, schema, config, index)
            chosen = tuple((pair.pred_index, pair.gold_index) for pair in matching.pairs)
            expected = matching_from_reference(
                doc, schema, config, index, _PAIRERS[matcher], chosen, approximate=matcher == "greedy"
            )
            assert matching == expected, doc
            assert list(matching.role_tallies.items()) == list(expected.role_tallies.items()), doc
            for pair, reference_pair in zip(matching.pairs, expected.pairs):
                assert list(pair.role_pairings.items()) == list(reference_pair.role_pairings.items()), doc
            chosen_counts[min(len(chosen), 2)] += 1
        assert min(chosen_counts[n] for n in range(3)) > 50, chosen_counts


def _simple_schema():
    return Schema((RoleSpec("agent", RoleKind.STRING_FILL),))


def _doc_2x2_crosswise():
    """Crosswise pairing yields numerator 4, parallel pairing only 2."""
    words = {
        "alpha": 0, "bravo": 10, "carol": 20, "delta": 30,
        "zeta": 40, "yotta": 50,
    }
    text = " " * 60

    def ent(name):
        return GoldEntity((span_mention(name, words[name]),))

    gold = [
        gold_template(agent=[ent("alpha"), ent("bravo"), ent("carol"), ent("delta")]),
        gold_template(agent=[ent("alpha"), ent("bravo"), ent("zeta"), ent("yotta")]),
    ]
    pred = [
        pred_template(agent=[span_mention("alpha", words["alpha"]), span_mention("bravo", words["bravo"])]),
        pred_template(agent=[span_mention("carol", words["carol"]), span_mention("delta", words["delta"])]),
    ]
    return Document("cross", text, tuple(gold), tuple(pred))


class TestOptimalMatching:
    def test_self_analysis(self):
        from support import canonical_predictions, default_schema
        from tfea.inject import GenerationParams, generate_corpus
        from tfea.model import resolve_document_spans

        schema = default_schema()
        for doc in generate_corpus(GenerationParams(n_docs=3), seed=11):
            doc = Document(doc.doc_id, doc.text, doc.gold_templates, canonical_predictions(doc, schema))
            doc = resolve_document_spans(doc)
            matching = find_optimal_matching(doc, schema)
            assert matching.f1 == 1.0
            assert matching.total.numerator == matching.total.precision_denominator
            assert matching.total.numerator == matching.total.recall_denominator
            assert matching.spurious_templates == ()
            assert matching.missing_templates == ()

    def test_one_sided(self, two_role_schema):
        doc = Document("d", "x", (gold_template(agent=[[span_mention("a", 0)]]),), ())
        matching = find_optimal_matching(doc, two_role_schema)
        assert matching.pairs == ()
        assert matching.missing_templates == (0,)
        assert matching.f1 == 0.0

    def test_crosswise_beats_parallel(self):
        doc = _doc_2x2_crosswise()
        schema = _simple_schema()
        matching = find_optimal_matching(doc, schema)
        assert matching.total.numerator == 4
        assert {(p.pred_index, p.gold_index) for p in matching.pairs} == {(0, 1), (1, 0)}
        oracle = naive_best_f1(doc, schema)
        assert matching.f1 == oracle[3]

    def test_optimality_on_fuzz(self):
        config = AnalysisConfig()
        from tfea.model import resolve_document_spans

        for seed in range(25):
            documents, schema = fuzzed_corpus(seed)
            for doc in documents:
                doc = resolve_document_spans(doc)
                matching = find_optimal_matching(doc, schema, config)
                num, p_den, r_den, f1 = naive_best_f1(doc, schema)
                assert matching.total.numerator == num
                assert matching.total.precision_denominator == p_den
                assert matching.total.recall_denominator == r_den
                assert matching.f1 == f1

    def test_denominators_stable_across_matchings(self):
        doc = _doc_2x2_crosswise()
        schema = _simple_schema()
        denominators = naive_denominators(doc, schema)
        for matching in (find_optimal_matching(doc, schema), greedy_matching(doc, schema)):
            assert (matching.total.precision_denominator, matching.total.recall_denominator) == denominators

    def test_deterministic(self):
        doc = _doc_2x2_crosswise()
        schema = _simple_schema()
        assert find_optimal_matching(doc, schema) == find_optimal_matching(doc, schema)

    def test_template_guard_skip_boundary(self):
        schema = _simple_schema()
        gold = [gold_template(agent=[[span_mention("a", 0)]]) for _ in range(4)]
        pred = [pred_template(agent=[span_mention("a", 0)]) for _ in range(4)]
        doc = Document("big", " " * 10, tuple(gold), tuple(pred))
        config = AnalysisConfig(max_template_matchings=10)
        with pytest.raises(ComplexityGuardExceeded) as err:
            find_optimal_matching(doc, schema, config)
        assert "big" in str(err.value)


def _lex_min_by_enumeration(numerators, errors, pred_count, gold_count):
    return min(
        (
            -sum(numerators[p][g] for p, g in assignment),
            sum(errors[p][g] for p, g in assignment)
            + pred_count + gold_count - 2 * len(assignment),
            assignment,
        )
        for assignment in iter_template_matchings(pred_count, gold_count)
    )[2]


class TestAssignmentSolver:
    def test_tie_heavy_tables_match_enumeration(self):
        """Few distinct scores make many optimal assignments tie on both sums."""
        rng = random.Random(20221)
        for _ in range(2500):
            pred_count, gold_count = rng.randint(0, 5), rng.randint(0, 5)
            scores = [[(rng.randint(0, 2), rng.randint(0, 6)) for _ in range(gold_count)] for _ in range(pred_count)]
            numerators = [[numerator for numerator, _ in row] for row in scores]
            errors = [[error for _, error in row] for row in scores]
            assert _optimal_assignment(numerators, errors, gold_count) == _lex_min_by_enumeration(
                numerators, errors, pred_count, gold_count
            ), (pred_count, gold_count, scores)

    def test_dense_role_is_solved_exactly(self):
        """One 8-mention by 8-entity role where every cell is exact: 1,441,729 pairings."""
        mentions = [span_mention("x", 2 * i) for i in range(8)]
        doc = Document(
            "dense", "x " * 8, (gold_template(agent=[[m] for m in mentions]),), (pred_template(agent=mentions),)
        )
        matching = find_optimal_matching(doc, _simple_schema())
        pairing = matching.pairs[0].role_pairings["agent"]
        assert [(p.pred_index, p.entity_index, p.exact) for p in pairing] == [(i, i, True) for i in range(8)]
        assert matching.f1 == 1.0

    def test_twelve_by_twelve_is_solved_exactly(self):
        """Beyond the reach of enumeration (over 10^11 matchings at 12x12)."""
        doc, schema = _injected_document(12)
        config = AnalysisConfig(max_template_matchings=10**30)
        exact = find_optimal_matching(doc, schema, config)
        greedy = greedy_matching(doc, schema, config)
        assert exact.approximate is False
        assert exact.total.numerator >= greedy.total.numerator
        assert exact.f1 >= greedy.f1

    def test_zero_cost_pair_before_another_component(self):
        """A zero-cost pair is taken while a later component can still lower the cost.

        The cells of cost 0 or less are (1, 0) at 0 and (2, 1) below 0,
        two components; solved alone, they give ``()`` and ``((2, 1),)``.
        """
        assert _optimal_assignment([[0, 0], [0, 0], [0, 1]], [[9, 9], [2, 9], [9, 0]], 2) == ((1, 0), (2, 1))

    def test_unpaired_pred_does_not_hold_a_gold(self):
        """Pred 0 is left unpaired while it sits on gold 0's absent cell; gold 0 stays free for pred 1.

        Pinning pred 0 to the column it sat on would block gold 0 and give ``((2, 1),)``.
        """
        assert lexmin_assignment({(0, 1): 0, (1, 0): 0, (2, 0): 0, (2, 1): -2}) == ((1, 0), (2, 1))

    def test_grouped_tables_equal_dense_reference(self):
        """Tables too large to enumerate, with many zero-cost pairs in interleaved components."""
        rng = random.Random(1987)
        seen = Counter()
        for _ in range(300):
            pred_count, gold_count, cells = _grouped_cells(rng)
            numerators = [[0] * gold_count for _ in range(pred_count)]
            errors = [[rng.randint(3, 9) for _ in range(gold_count)] for _ in range(pred_count)]
            for p, g in cells:
                numerators[p][g], errors[p][g] = rng.choice(((0, 1), (0, 2), (0, 2), (0, 2), (0, 3), (1, 4), (1, 2)))
            chosen = _optimal_assignment(numerators, errors, gold_count)
            assert chosen == dense_optimal_assignment(numerators, errors, gold_count), (numerators, errors)
            matched_pred, matched_gold = {p for p, _ in chosen}, {g for _, g in chosen}
            for p, g in cells:
                if (numerators[p][g], errors[p][g]) == (0, 2):
                    free = p not in matched_pred and g not in matched_gold
                    seen["zero taken" if (p, g) in chosen else "zero left free" if free else "zero blocked"] += 1
        assert min(seen.values()) > 100 and len(seen) == 3, seen

    def test_role_shaped_tables_equal_dense_reference(self):
        """Costs of only -(K+1) for an exact and -1 for a partial cell, as ``_best_role_pairing`` passes."""
        rng = random.Random(1938)
        contested = 0
        for _ in range(300):
            pred_count, gold_count, cells = _grouped_cells(rng)
            cost = {cell: rng.choice((-(pred_count + 1), -1)) for cell in sorted(cells)}
            matrix = [[cost.get((p, g)) for g in range(gold_count)] for p in range(pred_count)]
            assert lexmin_assignment(cost) == dense_lexmin_assignment(matrix, gold_count), cost
            contested += len({p for p, _ in cells}) < len(cells)
        assert contested > 200

    def test_order_of_a_preds_cells_does_not_matter(self):
        """Shuffling each pred's cells, preds still in order, leaves the lex-min tuple as it was."""
        rng = random.Random(2417)
        moved = 0
        for _ in range(300):
            pred_count, gold_count, cells = _grouped_cells(rng)
            tables = (
                {cell: rng.choice((0, -1, -2, -2, -3)) for cell in sorted(cells)},
                {cell: rng.choice((-(pred_count + 1), -1)) for cell in sorted(cells)},
            )
            for cost in tables:
                shuffled = _shuffled_within_preds(cost, rng)
                assert lexmin_assignment(shuffled) == lexmin_assignment(cost), cost
                moved += list(shuffled) != list(cost)
        assert moved > 300, moved

    def test_pairers_read_a_roles_cells_in_any_order(self):
        """Both role pairers give one pairing for a role's cells in index order or shuffled within each pred.

        The greedy pairer sorts the cells, so it also takes them fully shuffled.
        """
        rng = random.Random(2418)
        moved = 0
        for _ in range(3000):
            pred, gold = _random_role(rng)
            index = MatchIndex(enumerate(pred), ((None, j, e) for j, e in enumerate(gold)), ScsMode.GEOMETRIC, True)
            cells = role_cells(index, range(len(pred)), None)
            shuffled = _shuffled_within_preds(cells, rng)
            moved += list(shuffled) != list(cells)
            for pair_role in (_best_role_pairing, _greedy_role_pairing):
                assert pair_role(shuffled, len(pred)) == pair_role(cells, len(pred)), cells
            scrambled = rng.sample(list(cells.items()), len(cells))
            assert _greedy_role_pairing(dict(scrambled), len(pred)) == _greedy_role_pairing(cells, len(pred)), cells
        assert moved > 500, moved

    @pytest.mark.parametrize("size", [12, 40])
    def test_large_document_equals_dense_reference(self, size):
        """With the cap lifted, the matching equals the dense solve of the reference pair scores."""
        doc, schema = _injected_document(size)
        config = AnalysisConfig(max_template_matchings=10**100)
        index = MatchIndex.for_document(doc, schema, config)
        scores = pair_scores_reference(doc, schema, config, index, _dense_role_pairing)
        numerators = [[scores[p, g][0] for g in range(size)] for p in range(size)]
        errors = [[scores[p, g][1] for g in range(size)] for p in range(size)]
        chosen = dense_optimal_assignment(numerators, errors, size)
        expected = matching_from_reference(doc, schema, config, index, _dense_role_pairing, chosen, approximate=False)
        assert find_optimal_matching(doc, schema, config, index) == expected


def _grouped_cells(rng: random.Random) -> tuple[int, int, set[tuple[int, int]]]:
    """The shape of a table of up to 20x20 and its in-group cells.

    Preds and golds fall into a few groups at random and a cell can only
    join two of the same group, so the cells that can be optimal form
    components that interleave in pred order.
    """
    pred_count, gold_count = rng.randint(1, 20), rng.randint(1, 20)
    groups = rng.randint(1, 6)
    pred_group = [rng.randrange(groups) for _ in range(pred_count)]
    gold_group = [rng.randrange(groups) for _ in range(gold_count)]
    density = rng.choice((0.2, 0.4, 0.8))
    return pred_count, gold_count, {
        (p, g)
        for p in range(pred_count)
        for g in range(gold_count)
        if pred_group[p] == gold_group[g] and rng.random() < density
    }


def _shuffled_within_preds(cells: dict, rng: random.Random) -> dict:
    """``cells`` with the cells of each pred in a random order, the preds in their first order."""
    by_pred: dict[int, list] = {}
    for item in cells.items():
        by_pred.setdefault(item[0][0], []).append(item)
    return {cell: value for items in by_pred.values() for cell, value in rng.sample(items, len(items))}


def _dense_role_pairing(cells, pred_count: int):
    """``_best_role_pairing`` solved by the dense reference, as wide as the highest entity index in ``cells``."""
    gold_count = 1 + max((j for _, j in cells), default=-1)
    exact_cost = -(pred_count + 1)
    cost = [
        [None if (i, j) not in cells else exact_cost if cells[i, j].exact else -1 for j in range(gold_count)]
        for i in range(pred_count)
    ]
    return _build_pairing(dense_lexmin_assignment(cost, gold_count), cells)


def _injected_document(size: int) -> tuple[Document, Schema]:
    """One generated document of ``size`` gold and ``size`` predicted templates, with injected errors."""
    from support import default_schema
    from tfea.errors import ErrorType
    from tfea.inject import GenerationParams, InjectionSpec, generate_corpus, inject_errors
    from tfea.model import resolve_document_spans

    schema = default_schema()
    gold = generate_corpus(
        GenerationParams(n_docs=1, templates_per_doc=(size, size), entities_per_role=(1, 2)), seed=5
    )
    spec = InjectionSpec(
        counts={
            ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER: 2,
            ErrorType.SPAN_ERROR: 2,
            ErrorType.SPURIOUS_ROLE_FILLER: 2,
        }
    )
    doc = resolve_document_spans(inject_errors(gold, schema, spec, seed=5).documents[0])
    assert len(doc.predicted_templates) == len(doc.gold_templates) == size
    return doc, schema


class TestGreedy:
    def test_fixed_point_on_perfect_predictions(self, two_role_schema):
        doc = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0)]], target=[[span_mention("beta", 6)]]),),
            (pred_template(agent=[span_mention("alpha", 0)], target=[span_mention("beta", 6)]),),
        )
        exact = find_optimal_matching(doc, two_role_schema)
        greedy = greedy_matching(doc, two_role_schema)
        assert greedy.approximate is True
        assert greedy.total == exact.total
        assert [(p.pred_index, p.gold_index) for p in greedy.pairs] == [
            (p.pred_index, p.gold_index) for p in exact.pairs
        ]

    def test_adversarial_case_is_suboptimal(self):
        doc = _doc_2x2_crosswise()
        schema = _simple_schema()
        exact = find_optimal_matching(doc, schema)
        greedy = greedy_matching(doc, schema)
        assert greedy.approximate is True
        assert greedy.total.numerator == 2
        assert exact.total.numerator == 4
        assert greedy.f1 < exact.f1

    def test_never_beats_exhaustive(self):
        from tfea.model import resolve_document_spans

        for seed in range(15):
            documents, schema = fuzzed_corpus(seed)
            for doc in documents:
                doc = resolve_document_spans(doc)
                exact = find_optimal_matching(doc, schema)
                greedy = greedy_matching(doc, schema)
                assert greedy.f1 <= exact.f1 + 1e-12


def test_f1_conventions():
    assert Tally(0, 0, 0).f1 == 1.0
    assert Tally(0, 0, 3).f1 == 0.0
    assert Tally(0, 3, 0).f1 == 0.0
    assert Tally(2, 4, 4).f1 == pytest.approx(0.5)
