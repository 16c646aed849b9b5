"""Transform engine: derivation rules, ordering, and the apply round trip."""

import hashlib
import itertools

import pytest

from oracles import templates_gold_equivalent
from support import fuzzed_corpus
from tfea.config import AnalysisConfig
from tfea.errors import map_errors, total_errors
from tfea.exceptions import InconsistentLog
from tfea.matching import find_optimal_matching, greedy_matching
from tfea.model import Document, Mention, RoleKind, RoleSpec, Schema, Span, resolve_document_spans
from tfea.replay import apply_transformations
from tfea.spans import ScsMode, span_score
from tfea.transforms import TransformKind, Transformation, TransformationLog, derive_transformations

from conftest import gold_template, pred_template, span_mention

ALTERATION_KINDS = {TransformKind.ALTER_SPAN, TransformKind.ALTER_ROLE}
_K = TransformKind


def _analyze(doc, schema, config=None, matcher=find_optimal_matching):
    config = config or AnalysisConfig()
    doc = resolve_document_spans(doc, config.casefold)
    matching = matcher(doc, schema, config)
    return doc, derive_transformations(doc, schema, matching, config)


def _subject(group) -> tuple:
    """What a group edits: one predicted filler, one gold filler it introduces, or one whole template."""
    kinds = {t.kind for t in group}
    t = group[0]
    if _K.INTRODUCE_ROLE_FILLER in kinds:
        return ("introduce", t.gold_template, t.gold_role, t.gold_entity)
    if kinds & {_K.REMOVE_TEMPLATE, _K.INTRODUCE_TEMPLATE}:
        return (t.kind, t.pred_template, t.gold_template)
    return ("filler", t.pred_template, t.role, t.filler)


class TestDerive:
    def test_perfect_predictions_empty_log(self, two_role_schema):
        """A perfect prediction has an empty log; one that pairs only entity 1 of three introduces 0 and 2."""
        doc = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0)]]),),
            (pred_template(agent=[span_mention("alpha", 0)]),),
        )
        _, log = _analyze(doc, two_role_schema)
        assert len(log) == 0
        entities = [[span_mention("alpha", 0)], [span_mention("beta", 6)], [span_mention("gamma", 11)]]
        doc = Document(
            "d", "alpha beta gamma", (gold_template(agent=entities),), (pred_template(agent=[span_mention("beta", 6)]),)
        )
        _, log = _analyze(doc, two_role_schema)
        assert [(t.kind, t.gold_entity) for t in log] == [(_K.INTRODUCE_ROLE_FILLER, 0), (_K.INTRODUCE_ROLE_FILLER, 2)]

    def test_duplicate_filler(self, two_role_schema):
        # A second coreferent mention predicted as its own filler.
        doc = Document(
            "d",
            "the city council met the council adjourned",
            (gold_template(agent=[[span_mention("city council", 4), span_mention("the council", 21)]]),),
            (pred_template(agent=[span_mention("city council", 4), span_mention("the council", 21)]),),
        )
        _, log = _analyze(doc, two_role_schema)
        assert [t.kind for t in log] == [TransformKind.REMOVE_DUPLICATE_ROLE_FILLER]

    def test_wrong_role_inside_template(self, two_role_schema):
        doc = Document(
            "d",
            "mayor spoke to crowd",
            (
                gold_template(
                    agent=[[span_mention("mayor", 0)]],
                    target=[[span_mention("crowd", 15)]],
                ),
            ),
            (
                pred_template(
                    agent=[span_mention("mayor", 0), span_mention("crowd", 15)],
                ),
            ),
        )
        doc, log = _analyze(doc, two_role_schema)
        kinds = [t.kind for t in log]
        # The move comes first; the formally unmatched target entity still
        # yields an introduction, which apply skips once the moved filler
        # covers it.
        assert kinds == [TransformKind.ALTER_ROLE, TransformKind.INTRODUCE_ROLE_FILLER]
        move = log.entries[0]
        assert move.role == "agent"
        assert move.gold_role == "target"
        rewritten = apply_transformations(doc, log)
        assert templates_gold_equivalent(rewritten, doc.gold_templates, two_role_schema)
        assert len(rewritten[0].mentions("target")) == 1

    def test_alter_span_targets_lowest_scs(self, two_role_schema):
        doc = Document(
            "d",
            "the northern harbor authority",
            (
                gold_template(
                    agent=[[span_mention("northern harbor", 4), span_mention("harbor authority", 13)]],
                ),
            ),
            (pred_template(agent=[span_mention("the northern harbor", 0)]),),
        )
        _, log = _analyze(doc, two_role_schema)
        assert [t.kind for t in log] == [TransformKind.ALTER_SPAN]
        # [0,19) overlaps [4,19) more than [13,29)
        assert log.entries[0].gold_mention.text == "northern harbor"

    def test_scs_mode_picks_the_alter_span_target(self, two_role_schema):
        """A predicted span over two mentions of one entity is moved to a different mention in each mode."""
        text = "the mayor of the northern harbor city council met"
        mentions = [span_mention("the mayor", 0), span_mention("the northern harbor", 13)]

        def nearest(span, mode):
            return min(mentions, key=lambda m: (span_score(span, m.span, mode), m.span.start))

        # Every span over both mentions on which the two modes disagree; the
        # first is pinned.
        straddling = (Span(s, e) for s in range(len(text)) for e in range(s + 1, len(text) + 1))
        disputed = [
            span
            for span in straddling
            if all(span.overlap(m.span) > 0 for m in mentions)
            and nearest(span, ScsMode.GEOMETRIC) != nearest(span, ScsMode.ABSOLUTE)
        ]
        assert disputed[0] == Span(0, 25)
        predicted = span_mention(text[:25], 0)
        doc = Document("d", text, (gold_template(agent=[mentions]),), (pred_template(agent=[predicted]),))
        targets = {}
        for mode in ScsMode:
            _, log = _analyze(doc, two_role_schema, AnalysisConfig(scs_mode=mode))
            assert [t.kind for t in log] == [TransformKind.ALTER_SPAN]
            targets[mode] = log.entries[0].gold_mention
        # Geometric: 1 - 9²/(25·9) = 0.64 against 1 - 12²/(25·19) ≈ 0.70.
        # Absolute: (0 + 16)/(25 + 9) ≈ 0.47 against (13 + 7)/(25 + 19) ≈ 0.45.
        assert targets == {ScsMode.GEOMETRIC: mentions[0], ScsMode.ABSOLUTE: mentions[1]}

    @pytest.mark.parametrize("case_sensitive", [False, True])
    def test_set_fill_match_follows_the_matcher(self, case_sensitive):
        """Values equal only after case folding are one match by default and two errors when case counts."""
        schema = Schema(
            (RoleSpec("status", RoleKind.SET_FILL, values=("confirmed",)), RoleSpec("agent", RoleKind.STRING_FILL))
        )
        doc = Document(
            "d",
            "alpha",
            (gold_template(status="confirmed", agent=[[span_mention("alpha", 0)]]),),
            (pred_template(status=" Confirmed ", agent=[span_mention("alpha", 0)]),),
        )
        config = AnalysisConfig(case_sensitive=case_sensitive)
        matching = find_optimal_matching(doc, schema, config)
        log = derive_transformations(doc, schema, matching, config)
        expected = [_K.REMOVE_SPURIOUS_ROLE_FILLER, _K.INTRODUCE_ROLE_FILLER] if case_sensitive else []
        assert [t.kind for t in log] == expected
        assert matching.error_tally == len(expected) == total_errors(map_errors(log))

    def test_alterations_precede_other_transformations(self):
        """Alteration groups come first, and no two groups of a derived log edit the same subject."""
        for seed, shape in itertools.product(range(20), [(2, 3), (6, 5)]):
            documents, schema = fuzzed_corpus(seed, *shape)
            for doc in documents:
                _, log = _analyze(doc, schema)
                alterations = [{t.kind for t in group} <= ALTERATION_KINDS for group in log.groups]
                assert alterations == sorted(alterations, reverse=True), (seed, doc.doc_id)
                subjects = [_subject(group) for group in log.groups]
                assert len(set(subjects)) == len(subjects), (seed, doc.doc_id)

    def test_each_filler_subject_of_limited_kinds(self):
        """Every edit of a group names the group's one subject; no group lists a kind twice or removes two fillers."""
        for seed, shape in itertools.product(range(20), [(2, 3), (6, 5)]):
            documents, schema = fuzzed_corpus(seed, *shape)
            for doc in documents:
                _, log = _analyze(doc, schema)
                for group in log.groups:
                    kinds = [t.kind for t in group]
                    assert len(kinds) == len(set(kinds))
                    assert len([k for k in kinds if k.value.startswith("remove_") and "template" not in k.value]) <= 1
                    assert len({(t.pred_template, t.role, t.filler) for t in group}) == 1

    def test_every_derived_entry_hashes(self):
        for seed in range(20):
            documents, schema = fuzzed_corpus(seed)
            for doc in documents:
                _, log = _analyze(doc, schema)
                for entry in log:
                    hash(entry)


# sha256 over the repr of every field the report drops as well as those it
# keeps, for every entry derived from fuzzed_corpus seeds 0-19, by corpus
# shape ``(n_docs, max_templates)``. The wider shape reaches every group
# kind, the three two-edit groups included. Without ``vary_settings`` the
# fuzzed texts separate neither SCS mode nor case, so each shape has one
# digest.
PINNED_DERIVATIONS = {
    (2, 3): "1cfa18381171d8d59ccd8ec22cfc2e263e3e1c0d00f99a67c6c0e3a72b134d49",
    (6, 5): "660aa91e4266c92939e1a05f906c0043a9a212a5637685821f18596028b0532d",
}


def _derivation_digest(shape, config, vary_settings=False) -> str:
    digest = hashlib.sha256()
    for seed in range(20):
        documents, schema = fuzzed_corpus(seed, *shape, vary_settings=vary_settings)
        for doc in documents:
            _, log = _analyze(doc, schema, config)
            for t in log:
                fields = (t.kind, t.pred_template, t.role, t.filler, t.pred_text, t.pred_span)
                fields += (t.gold_template, t.gold_role, t.gold_entity, t.gold_mention)
                digest.update(repr(fields).encode())
    return digest.hexdigest()


class TestPinnedDerivation:
    @pytest.mark.parametrize("shape", PINNED_DERIVATIONS)
    @pytest.mark.parametrize("scs_mode", list(ScsMode))
    @pytest.mark.parametrize("case_sensitive", [False, True])
    def test_every_entry_is_pinned(self, shape, scs_mode, case_sensitive):
        config = AnalysisConfig(scs_mode=scs_mode, case_sensitive=case_sensitive)
        assert _derivation_digest(shape, config) == PINNED_DERIVATIONS[shape]

    def test_varied_corpus_separates_settings(self):
        """With ``vary_settings`` each setting derives its own entries, so a loop over settings checks each.

        Case separates at every shape. The SCS mode reaches an exact
        matching only through the nearer of two mentions of one gold
        entity that a predicted span overlaps, and the modes rank two
        nested spans alike, so it separates in few entries.
        """
        digests = {
            tuple(
                _derivation_digest(shape, AnalysisConfig(scs_mode=mode, case_sensitive=case), vary_settings=True)
                for shape in PINNED_DERIVATIONS
            )
            for mode in ScsMode
            for case in (False, True)
        }
        assert len(digests) == 4

    def test_partial_pair_beats_an_exact_match_in_another_template(self, two_role_schema):
        """A partially paired filler is a span error even where its text is another template's entity."""
        text = "the northern harbor hailed the crowd and the mayor; the northern harbor closed"
        doc = Document(
            "d",
            text,
            (
                gold_template(
                    agent=[[span_mention("northern harbor", 4)]],
                    target=[[span_mention("crowd", 31)], [span_mention("mayor", 45)]],
                ),
                gold_template(agent=[[span_mention("the northern harbor", 52)]]),
            ),
            (
                pred_template(
                    agent=[span_mention("the northern harbor", 0)],
                    target=[span_mention("crowd", 31), span_mention("mayor", 45)],
                ),
            ),
        )
        _, log = _analyze(doc, two_role_schema)
        assert [t.kind for t in log] == [_K.ALTER_SPAN, _K.INTRODUCE_TEMPLATE]
        span_fix = log.entries[0]
        assert (span_fix.gold_template, span_fix.gold_role, span_fix.gold_entity) == (0, "agent", 0)
        assert span_fix.gold_mention == span_mention("northern harbor", 4)

    def test_set_fill_mismatch_removes_before_it_introduces(self):
        schema = Schema(
            (RoleSpec("status", RoleKind.SET_FILL, values=("confirmed", "denied")), RoleSpec("agent", RoleKind.STRING_FILL))
        )
        doc = Document(
            "d",
            "alpha",
            (gold_template(status="confirmed", agent=[[span_mention("alpha", 0)]]),),
            (pred_template(status="denied", agent=[span_mention("alpha", 0)]),),
        )
        _, log = _analyze(doc, schema)
        assert log.entries == (
            Transformation(_K.REMOVE_SPURIOUS_ROLE_FILLER, pred_template=0, role="status", pred_text="denied"),
            Transformation(
                _K.INTRODUCE_ROLE_FILLER,
                pred_template=0,
                role="status",
                gold_template=0,
                gold_role="status",
                gold_mention=Mention("confirmed"),
            ),
        )


class TestApply:
    def test_empty_log_is_identity(self, two_role_schema):
        pred = (pred_template(agent=[span_mention("alpha", 0)]),)
        doc = Document("d", "alpha", (gold_template(agent=[[span_mention("alpha", 0)]]),), pred)
        out = apply_transformations(doc, TransformationLog("d", ()))
        assert out == pred

    def test_introduce_template_completes_empty_predictions(self, two_role_schema):
        doc = Document(
            "d",
            "alpha beta",
            (gold_template(agent=[[span_mention("alpha", 0), span_mention("beta", 6)]]),),
            (),
        )
        doc, log = _analyze(doc, two_role_schema)
        assert [t.kind for t in log] == [TransformKind.INTRODUCE_TEMPLATE]
        out = apply_transformations(doc, log)
        assert len(out) == 1
        assert out[0].mentions("agent")[0].text == "alpha"

    def test_round_trip_on_fuzz(self):
        """Both corpus shapes, under the exact and the greedy matcher."""
        config = AnalysisConfig()
        matchers = [find_optimal_matching, greedy_matching]
        for seed, shape, matcher in itertools.product(range(40), [(2, 3), (6, 5)], matchers):
            documents, schema = fuzzed_corpus(seed, *shape)
            for doc in documents:
                doc, log = _analyze(doc, schema, config, matcher)
                rewritten = apply_transformations(doc, log)
                assert templates_gold_equivalent(rewritten, doc.gold_templates, schema), (
                    seed,
                    shape,
                    matcher.__name__,
                    doc.doc_id,
                )

    # Each of these documents moves an entity into a role where a span fix
    # of that entity is still to be replayed; replayed in log order, the
    # move adds the entity and the span fix then makes a second copy.
    @pytest.mark.parametrize(
        "seed,shape,doc_id",
        [
            (17, (6, 5), "doc002"),
            (23, (6, 5), "doc000"),
            (81, (6, 5), "doc005"),
            (136, (6, 5), "doc001"),
            (195, (6, 5), "doc004"),
            (233, (2, 3), "doc001"),
            (271, (6, 5), "doc004"),
        ],
        ids=lambda value: "x".join(map(str, value)) if isinstance(value, tuple) else None,
    )
    def test_round_trip_with_a_span_fix_in_a_role_move_target(self, seed, shape, doc_id):
        documents, schema = fuzzed_corpus(seed, *shape)
        doc, log = _analyze(next(d for d in documents if d.doc_id == doc_id), schema)
        assert templates_gold_equivalent(apply_transformations(doc, log), doc.gold_templates, schema)

    def test_role_move_waits_for_a_span_fix_in_its_target_role(self, two_role_schema):
        """The role move is listed first, but only the span fix puts "mayor" in the target role, once."""
        doc = Document(
            "d",
            "the mayor met police",
            (gold_template(agent=[[span_mention("police", 14)]], target=[[span_mention("mayor", 4)]]),),
            (
                pred_template(
                    agent=[span_mention("police", 14), span_mention("mayor", 4)],
                    target=[span_mention("the mayor", 0)],
                ),
            ),
        )
        doc, log = _analyze(doc, two_role_schema)
        assert [[t.kind for t in group] for group in log.groups] == [[_K.ALTER_ROLE], [_K.ALTER_SPAN]]
        (rewritten,) = apply_transformations(doc, log)
        assert rewritten.mentions("target") == (span_mention("mayor", 4),)
        assert rewritten.mentions("agent") == (span_mention("police", 14),)

    def test_inconsistent_log_detected(self, two_role_schema):
        doc = Document(
            "d",
            "alpha",
            (gold_template(agent=[[span_mention("alpha", 0)]]),),
            (pred_template(agent=[span_mention("beta", 0)]),),
        )
        out_of_range = Transformation(
            TransformKind.REMOVE_SPURIOUS_ROLE_FILLER,
            pred_template=0,
            role="agent",
            filler=5,
            pred_text="beta",
        )
        with pytest.raises(InconsistentLog):
            apply_transformations(doc, TransformationLog("d", ((out_of_range,),)))

    def test_edit_inside_removed_template_rejected(self, two_role_schema):
        doc = Document("d", "x", (), (pred_template(agent=[span_mention("a", 0)]),))
        removal = Transformation(TransformKind.REMOVE_TEMPLATE, pred_template=0)
        again = Transformation(
            TransformKind.REMOVE_SPURIOUS_ROLE_FILLER,
            pred_template=0,
            role="agent",
            filler=0,
            pred_text="a",
        )
        with pytest.raises(InconsistentLog):
            apply_transformations(doc, TransformationLog("d", ((removal,), (again,))))


def _edit(kind, **fields):
    """An edit of predicted agent filler 0, "beta", towards gold agent entity 0, "alpha"."""
    defaults = dict(pred_template=0, role="agent", filler=0, pred_text="beta")
    defaults.update(gold_template=0, gold_role="agent", gold_entity=0, gold_mention=Mention("alpha"))
    return Transformation(kind, **{**defaults, **fields})


_SET_FILL = dict(role="status", filler=None, gold_role="status", gold_entity=None, gold_mention=Mention("confirmed"))
_REMOVE_SET_FILL = _edit(_K.REMOVE_SPURIOUS_ROLE_FILLER, **_SET_FILL)
# Each log, a list of groups, names a template, filler or gold entity that
# does not exist or is already gone, introduces one gold entity twice, has
# a group that is empty, lists one edit twice or edits two subjects, or has
# no gold mention to adopt.
MALFORMED_LOGS = {
    "alter span without filler": [[_edit(_K.ALTER_SPAN, filler=None)]],
    "alter role to missing gold template": [[_edit(_K.ALTER_ROLE, gold_template=3)]],
    "alter role to missing gold entity": [[_edit(_K.ALTER_ROLE, gold_entity=2)]],
    "introduce from missing gold template": [[_edit(_K.INTRODUCE_ROLE_FILLER, gold_template=3)]],
    "introduce missing gold entity": [[_edit(_K.INTRODUCE_ROLE_FILLER, gold_entity=5)]],
    "introduce missing gold template": [[_edit(_K.INTRODUCE_TEMPLATE, gold_template=1)]],
    "set-fill removal listed twice": [[_REMOVE_SET_FILL] * 2],
    "template removal listed twice": [[_edit(_K.REMOVE_TEMPLATE)] * 2],
    "template index None": [[_edit(_K.REMOVE_SPURIOUS_ROLE_FILLER, pred_template=None)]],
    "template index out of range": [[_edit(_K.REMOVE_SPURIOUS_ROLE_FILLER, pred_template=4)]],
    "template already removed": [[_edit(_K.REMOVE_TEMPLATE)], [_edit(_K.ALTER_SPAN)]],
    "template removed after an edit": [[_edit(_K.ALTER_SPAN)], [_edit(_K.REMOVE_TEMPLATE)]],
    "filler out of range": [[_edit(_K.REMOVE_SPURIOUS_ROLE_FILLER, filler=-1)]],
    "set-fill value introduced over an existing one": [[_edit(_K.INTRODUCE_ROLE_FILLER, **_SET_FILL)]],
    "alter span to no mention": [[_edit(_K.ALTER_SPAN, gold_mention=None)]],
    "introduce no mention": [[_edit(_K.INTRODUCE_ROLE_FILLER, gold_mention=None)]],
    "introduce no set-fill value": [
        [_REMOVE_SET_FILL],
        [_edit(_K.INTRODUCE_ROLE_FILLER, **{**_SET_FILL, "gold_mention": None})],
    ],
    "one filler edited by two groups": [[_edit(_K.REMOVE_SPURIOUS_ROLE_FILLER)], [_edit(_K.ALTER_SPAN)]],
    "one filler fixed twice": [[_edit(_K.ALTER_SPAN)]] * 2,
    "one entity introduced twice": [[_edit(_K.INTRODUCE_ROLE_FILLER)]] * 2,
    "empty group": [[]],
    "one group, two subjects": [[_edit(_K.ALTER_SPAN), _REMOVE_SET_FILL]],
}
# The same edits without the fault.
WELL_FORMED_LOGS = [
    [[_edit(_K.ALTER_SPAN)]],
    [[_edit(_K.ALTER_ROLE)]],
    [[_edit(_K.INTRODUCE_ROLE_FILLER)]],
    [[_edit(_K.INTRODUCE_TEMPLATE)]],
    [[_edit(_K.REMOVE_TEMPLATE)]],
    [[_edit(_K.REMOVE_SPURIOUS_ROLE_FILLER)]],
    [[_REMOVE_SET_FILL], [_edit(_K.INTRODUCE_ROLE_FILLER, **_SET_FILL)]],
    [[_edit(_K.ALTER_SPAN)], [_edit(_K.INTRODUCE_ROLE_FILLER)]],
    [[_edit(_K.ALTER_SPAN), _edit(_K.REMOVE_DUPLICATE_ROLE_FILLER)], [_REMOVE_SET_FILL]],
]


def _malformed_case_doc() -> Document:
    return Document(
        "d",
        "alpha beta",
        (gold_template(status="confirmed", agent=[[span_mention("alpha", 0)]]),),
        (pred_template(status="denied", agent=[span_mention("beta", 6)]),),
    )


def _grouped_log(groups) -> TransformationLog:
    return TransformationLog("d", tuple(map(tuple, groups)))


@pytest.mark.parametrize("groups", MALFORMED_LOGS.values(), ids=MALFORMED_LOGS)
def test_malformed_log_raises_inconsistent_log(groups):
    with pytest.raises(InconsistentLog):
        apply_transformations(_malformed_case_doc(), _grouped_log(groups))


def test_the_same_edits_without_the_fault_apply():
    for groups in WELL_FORMED_LOGS:
        apply_transformations(_malformed_case_doc(), _grouped_log(groups))
