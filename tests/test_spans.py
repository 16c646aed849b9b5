"""Span comparison scores: point values, edge rules, and metric properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfea.matching import NO_MATCH, MatchIndex
from tfea.model import GoldEntity, Mention, Span
from tfea.spans import ScsMode, scs_absolute, scs_geometric

spans = st.builds(
    lambda a, b: Span(min(a, b), max(a, b)),
    st.integers(0, 200),
    st.integers(0, 200),
)


class TestAbsolute:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (Span(10, 20), Span(10, 20), 0.0),
            (Span(0, 10), Span(5, 15), 0.5),
            (Span(0, 4), Span(100, 104), 1.0),
        ],
    )
    def test_point_values(self, x, y, expected):
        assert scs_absolute(x, y) == pytest.approx(expected, abs=1e-12)

    def test_cap_is_an_upper_bound(self):
        # The raw ratio for far-apart spans is 200/8 = 25; it must clamp.
        assert scs_absolute(Span(0, 4), Span(100, 104)) == 1.0

    def test_both_zero_length(self):
        assert scs_absolute(Span(3, 3), Span(3, 3)) == 1.0

    def test_one_zero_length(self):
        assert scs_absolute(Span(3, 3), Span(0, 10)) == 1.0


class TestGeometric:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (Span(10, 20), Span(10, 20), 0.0),
            (Span(0, 5), Span(5, 10), 1.0),
            (Span(0, 10), Span(5, 15), 0.75),
            (Span(3, 3), Span(0, 10), 1.0),
            (Span(3, 3), Span(3, 3), 1.0),
        ],
    )
    def test_point_values(self, x, y, expected):
        assert scs_geometric(x, y) == pytest.approx(expected, abs=1e-12)

    def test_partial_overlap_strictly_between(self):
        score = scs_geometric(Span(0, 10), Span(9, 30))
        assert 0.0 < score < 1.0

    def test_monotone_in_overlap(self):
        # Fixed start, growing overlap: the score never increases.
        base = Span(0, 10)
        scores = [scs_geometric(base, Span(0, width)) for width in range(1, 11)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


@pytest.mark.parametrize("scorer", [scs_absolute, scs_geometric])
class TestMetricProperties:
    @given(x=spans, y=spans)
    def test_symmetric_and_in_range(self, scorer, x, y):
        assert scorer(x, y) == scorer(y, x)
        assert 0.0 <= scorer(x, y) <= 1.0

    @given(x=spans)
    def test_identity(self, scorer, x):
        if x.length > 0:
            assert scorer(x, x) == 0.0
        else:
            assert scorer(x, x) == 1.0


@given(x=spans, y=spans)
def test_geometric_disjointness(x, y):
    disjoint = max(0, x.overlap(y)) == 0 or x.length == 0 or y.length == 0
    assert (scs_geometric(x, y) == 1.0) == disjoint


def _cell(mention, entity_mentions):
    """The match-index cell of ``mention`` against one entity of ``entity_mentions``."""
    entity = GoldEntity(tuple(entity_mentions))
    return MatchIndex([("m", mention)], [("g", 0, entity)], ScsMode.GEOMETRIC, casefold=True).cell("m", "g", 0)


class TestBestGoldTarget:
    """The span-alteration target that ``MatchIndex`` keeps for a partial cell."""

    def test_exact_span_wins(self):
        m = Mention("m", Span(5, 15))
        candidates = [Mention("a", Span(0, 10)), Mention("b", Span(5, 15)), Mention("c", Span(20, 30))]
        match = _cell(m, candidates)
        assert match.gold_mention is candidates[1]
        assert match.score == 0.0

    def test_lowest_score_wins(self):
        m = Mention("m", Span(0, 10))
        candidates = [Mention("a", Span(5, 15)), Mention("b", Span(8, 20))]
        match = _cell(m, candidates)
        assert match.gold_mention is candidates[0]
        assert match.score == pytest.approx(0.75, abs=1e-12)

    def test_null_span_scores_one_everywhere(self):
        # A score of 1 is never a partial match, so there is no cell and no target.
        assert _cell(Mention("m"), [Mention("a", Span(3, 9)), Mention("b", Span(30, 40))]) is NO_MATCH
        assert _cell(Mention("m", Span(0, 5)), [Mention("b")]) is NO_MATCH

    def test_tie_breaks_by_position_then_order(self):
        m = Mention("m", Span(5, 15))
        later = Mention("a", Span(10, 20))
        first = Mention("b", Span(0, 10))
        twin = Mention("c", Span(0, 10))
        match = _cell(m, [later, first, twin])
        assert match.score == 0.75
        assert match.gold_mention is first


def test_mode_dispatch():
    from tfea.spans import span_score

    assert span_score(Span(0, 10), Span(5, 15), ScsMode.ABSOLUTE) == 0.5
    assert span_score(Span(0, 10), Span(5, 15), ScsMode.GEOMETRIC) == 0.75
