"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

from __future__ import annotations

import json
import random
import time

from oracles import iter_template_matchings, naive_best_f1, templates_gold_equivalent
from support import dump_side, fuzzed_corpus, pool_for_any_corpus
from tfea.cli import EXIT_OK, main
from tfea.config import AnalysisConfig
from tfea.corpus import load_corpus, load_schema, schema_to_dict
from tfea.errors import ERROR_TYPES, ErrorType, map_errors
from tfea.inject import (
    GenerationParams,
    InjectionSpec,
    default_schema,
    generate_corpus,
    inject_errors,
)
from tfea.matching import count_template_matchings, find_optimal_matching
from tfea.model import Span, resolve_document_spans
from tfea.pipeline import analyze_corpus
from tfea.replay import apply_transformations
from tfea.spans import scs_absolute, scs_geometric
from tfea.transforms import derive_transformations

PRED_SIDE_TYPES = (
    ErrorType.SPAN_ERROR,
    ErrorType.DUPLICATE_ROLE_FILLER,
    ErrorType.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER,
    ErrorType.INCORRECT_ROLE,
    ErrorType.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER,
    ErrorType.WRONG_TEMPLATE_FOR_ROLE_FILLER,
    ErrorType.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER,
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE,
    ErrorType.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER,
    ErrorType.SPURIOUS_ROLE_FILLER,
)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}: {detail}"


def test_self_analysis_is_perfect():
    started = time.perf_counter()
    schema = default_schema()
    failures = []
    for seed in range(50):
        params = GenerationParams(
            n_docs=2,
            templates_per_doc=(seed % 3, 1 + seed % 3),
            entities_per_role=(0, 2),
            mentions_per_entity=(1, 2),
        )
        gold = generate_corpus(params, seed=seed)
        docs = inject_errors(gold, schema, InjectionSpec(counts={}), seed=seed).documents
        analysis = analyze_corpus(docs, schema)
        if analysis.scores.overall.f1 != 1.0:
            failures.append((seed, "f1", analysis.scores.overall.f1))
        if any(analysis.profile.counts[e] != 0 for e in ERROR_TYPES):
            failures.append((seed, "errors", analysis.profile.counts))
    elapsed = time.perf_counter() - started
    _verdict(
        f"self-analysis: 50 corpora, F1=1.0 and zero errors ({elapsed:.1f}s)",
        not failures and elapsed < 10.0,
        str(failures[:3]),
    )


def test_matching_count_formula():
    started = time.perf_counter()
    mismatches = [
        (p, g, len(list(iter_template_matchings(p, g))), count_template_matchings(p, g))
        for p in range(5)
        for g in range(5)
        if len(list(iter_template_matchings(p, g))) != count_template_matchings(p, g)
    ]
    elapsed = time.perf_counter() - started
    _verdict(
        f"matching-count formula: enumeration equals closed form for P,G <= 4 ({elapsed:.2f}s)",
        not mismatches and elapsed < 1.0,
        str(mismatches),
    )


def _bounded_documents(target: int):
    """Fuzzed documents with P, G <= 3 and at most 3 fillers per role."""
    collected = []
    seed = 0
    while len(collected) < target:
        documents, schema = fuzzed_corpus(seed, n_docs=2, max_templates=3)
        for doc in documents:
            if len(doc.predicted_templates) > 3 or len(doc.gold_templates) > 3:
                continue
            role_names = [r.name for r in schema.string_fill_roles]
            pred_ok = all(
                len(t.mentions(r)) <= 3 for t in doc.predicted_templates for r in role_names
            )
            gold_ok = all(
                len(t.entities(r)) <= 3 for t in doc.gold_templates for r in role_names
            )
            if pred_ok and gold_ok:
                collected.append((doc, schema))
        seed += 1
    return collected[:target]


def test_matching_optimality_against_oracle():
    started = time.perf_counter()
    config = AnalysisConfig()
    failures = []
    for doc, schema in _bounded_documents(200):
        doc = resolve_document_spans(doc)
        matching = find_optimal_matching(doc, schema, config)
        numerator, p_den, r_den, f1 = naive_best_f1(doc, schema)
        if (
            matching.total.numerator != numerator
            or matching.total.precision_denominator != p_den
            or matching.total.recall_denominator != r_den
            or matching.f1 != f1
        ):
            failures.append((doc.doc_id, matching.f1, f1))
    elapsed = time.perf_counter() - started
    _verdict(
        f"matching optimality: 200 documents equal the naive oracle ({elapsed:.1f}s)",
        not failures and elapsed < 60.0,
        str(failures[:3]),
    )


def test_scs_properties():
    started = time.perf_counter()
    rng = random.Random(2024)
    failures = 0
    for scorer, geometric in ((scs_absolute, False), (scs_geometric, True)):
        for _ in range(10_000):
            a, b = sorted(rng.randrange(0, 300) for _ in range(2))
            c, d = sorted(rng.randrange(0, 300) for _ in range(2))
            x, y = Span(a, b), Span(c, d)
            forward, backward = scorer(x, y), scorer(y, x)
            if forward != backward or not (0.0 <= forward <= 1.0):
                failures += 1
            identity = scorer(x, x)
            if x.length > 0 and identity != 0.0:
                failures += 1
            if geometric:
                disjoint = x.overlap(y) <= 0 or x.length == 0 or y.length == 0
                if (forward == 1.0) != disjoint:
                    failures += 1
    elapsed = time.perf_counter() - started
    _verdict(
        f"SCS properties: 10,000 pairs per mode ({elapsed:.1f}s)",
        failures == 0 and elapsed < 5.0,
        f"{failures} violations",
    )


def test_scs_point_values():
    started = time.perf_counter()
    geometric = scs_geometric(Span(0, 10), Span(5, 15))
    absolute = scs_absolute(Span(0, 10), Span(5, 15))
    elapsed = time.perf_counter() - started
    ok = abs(geometric - 0.75) <= 1e-12 and abs(absolute - 0.5) <= 1e-12 and elapsed < 1.0
    _verdict(
        "SCS point values: geometric([0,10),[5,15))=0.75, absolute=0.5",
        ok,
        f"geometric={geometric}, absolute={absolute}",
    )


def _partition_identities_hold(doc, schema, matching, profile) -> bool:
    string_roles = [r.name for r in schema.string_fill_roles]
    set_roles = [r.name for r in schema.set_fill_roles]
    exact_pairs = sum(m.exact for p in matching.pairs for r in string_roles for m in p.role_pairings[r])
    matched_entities = sum(len(p.role_pairings[r]) for p in matching.pairs for r in string_roles)
    error_string = sum(
        profile.per_role.get(r, {}).get(t, 0) for r in string_roles for t in PRED_SIDE_TYPES
    )
    spurious_side_string = sum(
        len(doc.predicted_templates[i].mentions(r))
        for i in matching.spurious_templates
        for r in string_roles
    )
    total_pred_string = sum(
        len(t.mentions(r)) for t in doc.predicted_templates for r in string_roles
    )
    if total_pred_string != exact_pairs + error_string + spurious_side_string:
        return False
    total_gold_entities = sum(len(t.entities(r)) for t in doc.gold_templates for r in string_roles)
    missing_string = sum(
        profile.per_role.get(r, {}).get(ErrorType.MISSING_ROLE_FILLER, 0) for r in string_roles
    )
    missing_side_string = sum(
        len(doc.gold_templates[i].entities(r))
        for i in matching.missing_templates
        for r in string_roles
    )
    if total_gold_entities != matched_entities + missing_string + missing_side_string:
        return False
    # set-fill analogues
    correct_set = matching.total.numerator - exact_pairs
    pred_set = sum(
        1 for t in doc.predicted_templates for r in set_roles if t.set_fill(r) is not None
    )
    spurious_set = sum(
        profile.per_role.get(r, {}).get(ErrorType.SPURIOUS_ROLE_FILLER, 0) for r in set_roles
    )
    spurious_side_set = sum(
        1
        for i in matching.spurious_templates
        for r in set_roles
        if doc.predicted_templates[i].set_fill(r) is not None
    )
    if pred_set != correct_set + spurious_set + spurious_side_set:
        return False
    gold_set = sum(1 for t in doc.gold_templates for r in set_roles if t.set_fill(r) is not None)
    missing_set = sum(
        profile.per_role.get(r, {}).get(ErrorType.MISSING_ROLE_FILLER, 0) for r in set_roles
    )
    missing_side_set = sum(
        1
        for i in matching.missing_templates
        for r in set_roles
        if doc.gold_templates[i].set_fill(r) is not None
    )
    return gold_set == correct_set + missing_set + missing_side_set


def test_transformation_round_trip_and_partitions():
    started = time.perf_counter()
    config = AnalysisConfig()
    round_trip_failures = []
    partition_failures = []
    for seed in range(100):  # 100 corpora x 2 documents
        documents, schema = fuzzed_corpus(seed)
        for doc in documents:
            doc = resolve_document_spans(doc)
            matching = find_optimal_matching(doc, schema, config)
            log = derive_transformations(doc, schema, matching, config)
            rewritten = apply_transformations(doc, log)
            if not templates_gold_equivalent(rewritten, doc.gold_templates, schema):
                round_trip_failures.append((seed, doc.doc_id))
            profile = map_errors(log)
            if not _partition_identities_hold(doc, schema, matching, profile):
                partition_failures.append((seed, doc.doc_id))
    elapsed = time.perf_counter() - started
    _verdict(
        f"transformation round trip: 200 fuzzed corpora rewrite to gold ({elapsed:.1f}s)",
        not round_trip_failures and elapsed < 60.0,
        str(round_trip_failures[:3]),
    )
    _verdict(
        "partition identities: prediction and gold side, every fuzzed corpus",
        not partition_failures,
        str(partition_failures[:3]),
    )


def _injection_params(etype: ErrorType, k: int) -> GenerationParams:
    if etype is ErrorType.MISSING_TEMPLATE:
        return GenerationParams(
            n_docs=2,
            templates_per_doc=(k, min(k + 1, 6)),
            entities_per_role=(1, 2),
            mentions_per_entity=(1, 2),
        )
    return GenerationParams(
        n_docs=2,
        templates_per_doc=(2, 3),
        entities_per_role=(2, 2),
        mentions_per_entity=(2, 2),
        tail_glue_words=28,
    )


def _profiles_equal(analysis, result) -> bool:
    if analysis.profile != result.ledger:
        return False
    per_doc = {d.doc_id: d.profile for d in analysis.analyzed}
    return per_doc == result.per_doc


def test_error_injection_round_trips():
    started = time.perf_counter()
    schema = default_schema()
    failures = []
    for etype in ERROR_TYPES:
        for index in range(20):  # 20 corpora per type, k cycling 1..5
            k = (index % 5) + 1
            gold = generate_corpus(_injection_params(etype, k), seed=1000 + index)
            result = inject_errors(gold, schema, InjectionSpec(counts={etype: k}), seed=index)
            analysis = analyze_corpus(result.documents, schema)
            if not _profiles_equal(analysis, result):
                failures.append((etype.value, k, index))
    rng = random.Random(424242)
    mixable = [e for e in ERROR_TYPES if e is not ErrorType.MISSING_TEMPLATE] + [
        ErrorType.MISSING_TEMPLATE
    ]
    for index in range(50):  # mixed, non-confounding specs
        picked = rng.sample(mixable, 3)
        counts = {etype: 1 for etype in picked}
        params = GenerationParams(
            n_docs=2,
            templates_per_doc=(4, 4),
            entities_per_role=(2, 2),
            mentions_per_entity=(2, 2),
            tail_glue_words=28,
        )
        gold = generate_corpus(params, seed=5000 + index)
        result = inject_errors(gold, schema, InjectionSpec(counts=counts), seed=index)
        analysis = analyze_corpus(result.documents, schema)
        if not _profiles_equal(analysis, result):
            failures.append(("mixed", sorted(e.value for e in picked), index))
    elapsed = time.perf_counter() - started
    _verdict(
        f"error-injection round trips: 13 isolated types + 50 mixed specs ({elapsed:.1f}s)",
        not failures and elapsed < 120.0,
        str(failures[:3]),
    )


def test_fixture_two_event_document(fixture_files, muc_schema):
    started = time.perf_counter()
    gold_path, pred_path, schema_path = fixture_files
    schema = load_schema(str(schema_path))
    documents = load_corpus(str(gold_path), str(pred_path), schema)
    analysis = analyze_corpus(documents, schema)
    profile = analysis.profile
    expected = {
        ErrorType.SPAN_ERROR: 1,
        ErrorType.DUPLICATE_ROLE_FILLER: 1,
        ErrorType.INCORRECT_ROLE: 1,
        ErrorType.MISSING_TEMPLATE: 1,
    }
    counts_ok = all(
        profile.counts[etype] == expected.get(etype, 0) for etype in ERROR_TYPES
    )
    roles_ok = (
        profile.per_role.get("Target", {}).get(ErrorType.SPAN_ERROR, 0) == 1
        and profile.per_role.get("PerpInd", {}).get(ErrorType.DUPLICATE_ROLE_FILLER, 0) == 1
        and profile.per_role.get("Weapon", {}).get(ErrorType.INCORRECT_ROLE, 0) == 1
    )
    side_ok = (
        profile.spurious_template_role_fillers == 0
        and profile.missing_template_role_fillers == 3
    )
    overall = analysis.scores.overall
    # hand tally: numerator 4, precision denominator 7, recall denominator 8
    scores_ok = (
        overall.numerator == 4
        and overall.precision_denominator == 7
        and overall.recall_denominator == 8
        and abs(overall.precision - 4 / 7) <= 1e-12
        and abs(overall.recall - 1 / 2) <= 1e-12
        and abs(overall.f1 - 8 / 15) <= 1e-12
    )
    elapsed = time.perf_counter() - started
    _verdict(
        f"fixture: two-event document reports exactly the four seeded errors ({elapsed:.2f}s)",
        counts_ok and roles_ok and side_ok and scores_ok and elapsed < 1.0,
        f"counts={ {e.value: c for e, c in profile.counts.items() if c} }, "
        f"sides=({profile.spurious_template_role_fillers},{profile.missing_template_role_fillers}), "
        f"scores=({overall.numerator},{overall.precision_denominator},{overall.recall_denominator})",
    )


def test_parallel_determinism(tmp_path, monkeypatch):
    # Eight processes asked, one per document (six) taken: a pool of five.
    started = pool_for_any_corpus(monkeypatch)
    schema = default_schema()
    params = GenerationParams(
        n_docs=6, templates_per_doc=(2, 3), entities_per_role=(2, 2), mentions_per_entity=(2, 2)
    )
    gold = generate_corpus(params, seed=77)
    spec = InjectionSpec(
        counts={ErrorType.SPAN_ERROR: 1, ErrorType.DUPLICATE_ROLE_FILLER: 1, ErrorType.MISSING_TEMPLATE: 1}
    )
    result = inject_errors(gold, schema, spec, seed=3)
    gold_path, pred_path = tmp_path / "gold.json", tmp_path / "pred.json"
    schema_path = tmp_path / "schema.json"
    dump_side(result.documents, str(gold_path), gold=True)
    dump_side(result.documents, str(pred_path), gold=False)
    schema_path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    outputs = []
    for workers in ("1", "8"):
        out = tmp_path / f"report-{workers}.json"
        code = main(
            [
                "analyze",
                "--gold", str(gold_path),
                "--pred", str(pred_path),
                "--schema", str(schema_path),
                "--out", str(out),
                "--parallel", workers,
            ]
        )
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    _verdict(
        "determinism: --parallel 1 and --parallel 8 produce byte-identical reports",
        outputs[0] == outputs[1] and started == [5],
        f"reports differ, or pools of {started} workers started",
    )
