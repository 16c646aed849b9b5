"""Error mapping: the thirteen-type table, side tallies, and profile algebra."""

import random

import pytest

from support import fuzzed_corpus
from tfea.config import AnalysisConfig
from tfea.errors import ERROR_TYPES, ErrorProfile, ErrorType, map_errors, total_errors
from tfea.exceptions import UnmappableSequence
from tfea.matching import find_optimal_matching
from tfea.model import Mention, Span, resolve_document_spans
from tfea.pipeline import analyze_corpus
from tfea.spans import ScsMode
from tfea.transforms import TransformKind, Transformation, TransformationLog, derive_transformations


def _t(kind, **kw):
    defaults = dict(pred_template=0, role="agent", filler=0, pred_text="x", pred_span=Span(0, 1))
    defaults.update(kw)
    return Transformation(kind, **defaults)


def _log(*groups):
    """A log of ``groups``, each a list of edits."""
    return TransformationLog("d", tuple(map(tuple, groups)))


class TestMappingTable:
    def test_empty_log(self):
        profile = map_errors(_log())
        assert total_errors(profile) == 0
        assert set(profile.counts) == set(ERROR_TYPES)

    def test_singleton_alter_span(self):
        profile = map_errors(_log([_t(TransformKind.ALTER_SPAN, gold_role="agent", gold_mention=Mention("y"))]))
        assert profile.counts[ErrorType.SPAN_ERROR] == 1
        assert profile.per_role["agent"][ErrorType.SPAN_ERROR] == 1

    def test_alter_span_plus_alter_role_is_one_error(self):
        log = _log(
            [
                _t(TransformKind.ALTER_SPAN, gold_role="target", gold_entity=0, gold_mention=Mention("y")),
                _t(TransformKind.ALTER_ROLE, gold_role="target", gold_entity=0, gold_mention=Mention("y")),
            ]
        )
        profile = map_errors(log)
        assert profile.counts[ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER] == 1
        assert profile.counts[ErrorType.SPAN_ERROR] == 0
        assert profile.counts[ErrorType.INCORRECT_ROLE] == 0
        # the gold target role carries the error
        assert profile.per_role["target"][ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER] == 1

    def test_missing_template_side_tally(self):
        log = _log([Transformation(TransformKind.INTRODUCE_TEMPLATE, gold_template=0, filler_count=2)])
        profile = map_errors(log)
        assert profile.counts[ErrorType.MISSING_TEMPLATE] == 1
        assert profile.missing_template_role_fillers == 2
        assert profile.counts[ErrorType.MISSING_ROLE_FILLER] == 0

    def test_spurious_template_side_tally(self):
        log = _log([Transformation(TransformKind.REMOVE_TEMPLATE, pred_template=0, filler_count=2)])
        profile = map_errors(log)
        assert profile.counts[ErrorType.SPURIOUS_TEMPLATE] == 1
        assert profile.spurious_template_role_fillers == 2

    @pytest.mark.parametrize(
        "kinds,expected",
        [
            ((TransformKind.REMOVE_DUPLICATE_ROLE_FILLER,), ErrorType.DUPLICATE_ROLE_FILLER),
            (
                (TransformKind.ALTER_SPAN, TransformKind.REMOVE_DUPLICATE_ROLE_FILLER),
                ErrorType.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER,
            ),
            ((TransformKind.REMOVE_SPURIOUS_ROLE_FILLER,), ErrorType.SPURIOUS_ROLE_FILLER),
            ((TransformKind.ALTER_ROLE,), ErrorType.INCORRECT_ROLE),
            (
                (TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER,),
                ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER,
            ),
            (
                (TransformKind.ALTER_SPAN, TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER),
                ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER,
            ),
            (
                (TransformKind.ALTER_ROLE, TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER),
                ErrorType.WRONG_TEMPLATE_WRONG_ROLE,
            ),
            (
                (
                    TransformKind.ALTER_SPAN,
                    TransformKind.ALTER_ROLE,
                    TransformKind.REMOVE_CROSS_TEMPLATE_SPURIOUS_ROLE_FILLER,
                ),
                ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER,
            ),
        ],
    )
    def test_group_rules(self, kinds, expected):
        entries = [_t(k, gold_role="agent", gold_mention=Mention("y")) for k in kinds]
        profile = map_errors(_log(entries))
        assert profile.counts[expected] == 1
        assert total_errors(profile) == 1

    def test_unmappable_sequence(self):
        """A group no rule maps, one that lists a kind twice, and an empty group; the error names the group."""
        good = [_t(TransformKind.ALTER_SPAN, gold_mention=Mention("y"))]
        for kinds in [
            (TransformKind.ALTER_SPAN, TransformKind.REMOVE_SPURIOUS_ROLE_FILLER),
            (TransformKind.REMOVE_SPURIOUS_ROLE_FILLER, TransformKind.REMOVE_SPURIOUS_ROLE_FILLER),
            (),
        ]:
            bad = _log(good, [_t(kind, gold_mention=Mention("y")) for kind in kinds])
            with pytest.raises(UnmappableSequence, match="group 1 of document 'd'"):
                map_errors(bad)

    def test_each_group_is_one_error(self):
        """Two groups of the same kinds on one filler are two errors: the log's groups are not merged by subject."""
        group = [_t(TransformKind.ALTER_SPAN, gold_role="agent", gold_mention=Mention("y"))]
        profile = map_errors(_log(group, group))
        assert profile.counts[ErrorType.SPAN_ERROR] == 2
        assert total_errors(profile) == 2

    def test_introduce_maps_to_missing(self):
        log = _log(
            [
                Transformation(
                    TransformKind.INTRODUCE_ROLE_FILLER,
                    pred_template=0,
                    role="agent",
                    gold_template=0,
                    gold_role="agent",
                    gold_entity=0,
                    gold_mention=Mention("y"),
                )
            ]
        )
        profile = map_errors(log)
        assert profile.counts[ErrorType.MISSING_ROLE_FILLER] == 1


class TestTotals:
    def test_side_tallies_excluded(self):
        profile = ErrorProfile.empty()
        profile.bump(ErrorType.SPAN_ERROR, "agent", 2)
        profile.bump(ErrorType.MISSING_TEMPLATE)
        profile.missing_template_role_fillers = 3
        assert total_errors(profile) == 3

    def test_matches_field_sum_on_random_profiles(self):
        rng = random.Random(7)
        for _ in range(50):
            profile = ErrorProfile.empty()
            for etype in ERROR_TYPES:
                profile.counts[etype] = rng.randrange(5)
            profile.spurious_template_role_fillers = rng.randrange(5)
            profile.missing_template_role_fillers = rng.randrange(5)
            assert total_errors(profile) == sum(profile.counts[e] for e in ERROR_TYPES)


class TestProfileAlgebra:
    def test_merge_is_elementwise(self):
        a = ErrorProfile.empty()
        a.bump(ErrorType.SPAN_ERROR, "agent")
        a.spurious_template_role_fillers = 1
        a.missing_template_role_fillers = 4
        b = ErrorProfile.empty()
        b.bump(ErrorType.SPAN_ERROR, "agent")
        b.bump(ErrorType.MISSING_ROLE_FILLER, "target")
        b.spurious_template_role_fillers = 2
        b.missing_template_role_fillers = 3
        for merged in (a + b, b + a):
            assert merged.counts[ErrorType.SPAN_ERROR] == 2
            assert merged.counts[ErrorType.MISSING_ROLE_FILLER] == 1
            assert merged.per_role == {
                "agent": {ErrorType.SPAN_ERROR: 2},
                "target": {ErrorType.MISSING_ROLE_FILLER: 1},
            }
            assert merged.spurious_template_role_fillers == 3
            assert merged.missing_template_role_fillers == 7
        # the operands are left as they were
        assert a.per_role == {"agent": {ErrorType.SPAN_ERROR: 1}} and a.spurious_template_role_fillers == 1
        assert b.per_role["agent"] == {ErrorType.SPAN_ERROR: 1} and b.spurious_template_role_fillers == 2

    def test_empty_is_identity(self):
        a = ErrorProfile.empty()
        a.bump(ErrorType.SPURIOUS_ROLE_FILLER, "agent", 3)
        assert (a + ErrorProfile.empty()) == a
        assert (ErrorProfile.empty() + a) == a

    def test_corpus_equals_sum_of_documents(self):
        config = AnalysisConfig()
        for seed in range(10):
            documents, schema = fuzzed_corpus(seed)
            merged = ErrorProfile.empty()
            for doc in documents:
                doc = resolve_document_spans(doc)
                matching = find_optimal_matching(doc, schema, config)
                merged = merged + map_errors(derive_transformations(doc, schema, matching, config))
            # recompute in one pass over all docs, fold in the other order
            refolded = ErrorProfile.empty()
            for doc in reversed(documents):
                doc = resolve_document_spans(doc)
                matching = find_optimal_matching(doc, schema, config)
                refolded = refolded + map_errors(derive_transformations(doc, schema, matching, config))
            assert merged == refolded == analyze_corpus(documents, schema, config).profile


class TestConsistencyWithMatcher:
    @pytest.mark.parametrize("case_sensitive", [False, True])
    @pytest.mark.parametrize("scs_mode", list(ScsMode))
    def test_error_tally_equals_mapped_total(self, scs_mode, case_sensitive):
        config = AnalysisConfig(scs_mode=scs_mode, case_sensitive=case_sensitive)
        for seed in range(20):
            documents, schema = fuzzed_corpus(seed, vary_settings=True)
            for doc in documents:
                doc = resolve_document_spans(doc, config.casefold)
                matching = find_optimal_matching(doc, schema, config)
                profile = map_errors(derive_transformations(doc, schema, matching, config))
                assert matching.error_tally == total_errors(profile)

    def test_zero_errors_iff_perfect_f1(self):
        config = AnalysisConfig()
        for seed in range(20):
            documents, schema = fuzzed_corpus(seed)
            for doc in documents:
                doc = resolve_document_spans(doc)
                matching = find_optimal_matching(doc, schema, config)
                profile = map_errors(derive_transformations(doc, schema, matching, config))
                assert (total_errors(profile) == 0) == (matching.f1 == 1.0)
