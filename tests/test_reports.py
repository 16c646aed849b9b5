"""Report assembly: shapes, zero-filling, rendering determinism, comparison."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import build_report_reference
from support import fuzzed_corpus
from tfea.compare import compare_reports, render_comparison_text
from tfea.config import AnalysisConfig
from tfea.errors import ErrorType
from tfea.exceptions import IncompatibleReports
from tfea.inject import (
    GenerationParams,
    InjectionSpec,
    default_schema,
    generate_corpus,
    inject_errors,
)
from tfea.pipeline import analyze_corpus
from tfea.reports import (
    build_report,
    render_csv,
    render_json,
    render_text,
)
from tfea.spans import ScsMode

TRANSFORMATION_KEYS = {
    "kind",
    "role",
    "pred_text",
    "pred_span",
    "gold_text",
    "gold_role",
    "gold_template_index",
}


@pytest.fixture(scope="module")
def analysis_and_config():
    schema = default_schema()
    params = GenerationParams(
        n_docs=3, templates_per_doc=(3, 4), entities_per_role=(2, 2), mentions_per_entity=(2, 2)
    )
    gold = generate_corpus(params, seed=55)
    spec = InjectionSpec(
        counts={
            ErrorType.SPAN_ERROR: 1,
            ErrorType.INCORRECT_ROLE: 1,
            ErrorType.MISSING_TEMPLATE: 1,
        }
    )
    result = inject_errors(gold, schema, spec, seed=9)
    config = AnalysisConfig()
    return analyze_corpus(result.documents, schema, config), config


@pytest.fixture(scope="module")
def report(analysis_and_config):
    analysis, config = analysis_and_config
    return build_report(analysis, config, label="probe")


class TestReportShape:
    def test_top_level_sections(self, report):
        assert set(report) >= {
            "tool",
            "label",
            "config",
            "schema",
            "scores",
            "errors",
            "transformations",
            "skipped_documents",
            "approximate_documents",
        }
        assert report["tool"]["name"] == "tfea"

    def test_all_types_and_roles_zero_filled(self, report):
        assert len(report["errors"]["per_type"]) == 13
        role_names = [r["name"] for r in report["schema"]["roles"]]
        assert sorted(report["errors"]["per_role"]) == sorted(role_names)
        for counts in report["errors"]["per_role"].values():
            assert len(counts) == 13
        assert sorted(report["scores"]["per_role"]) == sorted(role_names)

    def test_transformation_entries_match_wire_format(self, report):
        entries = [e for doc in report["transformations"].values() for e in doc]
        assert entries
        for entry in entries:
            assert set(entry) <= TRANSFORMATION_KEYS
            assert {"kind", "role", "pred_text", "pred_span"} <= set(entry)
            if entry["pred_span"] is not None:
                start, end = entry["pred_span"]
                assert 0 <= start <= end

    def test_config_echo_excludes_worker_count(self, report):
        # determinism across --parallel values requires this
        assert "parallel" not in report["config"]

    def test_per_doc_errors_sorted(self, report):
        doc_ids = list(report["errors"]["per_doc"])
        assert doc_ids == sorted(doc_ids)


# A cap of 7 admits 2 x 2 templates and sends larger documents to the guard.
REFERENCE_CONFIGS = {
    "default": AnalysisConfig(),
    "absolute-cased": AnalysisConfig(scs_mode=ScsMode.ABSOLUTE, case_sensitive=True),
    "skip": AnalysisConfig(max_template_matchings=7, on_guard="skip"),
    "greedy": AnalysisConfig(max_template_matchings=7, on_guard="greedy"),
}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    setting=st.sampled_from(sorted(REFERENCE_CONFIGS)),
    derive=st.booleans(),
    include_errors=st.booleans(),
)
# Each of these corpora has skipped (or approximate) and fully analyzed documents.
@example(seed=1, setting="skip", derive=True, include_errors=True)
@example(seed=1, setting="greedy", derive=True, include_errors=True)
@example(seed=1, setting="skip", derive=False, include_errors=False)
def test_assembled_report_equals_reference(seed, setting, derive, include_errors):
    """The report assembled from per-document rows equals the one read off the analysis records."""
    config = REFERENCE_CONFIGS[setting]
    documents, schema = fuzzed_corpus(seed, n_docs=6, max_templates=4, vary_settings=True)
    analysis = analyze_corpus(documents, schema, config, derive=derive)
    ours = build_report(analysis, config, "probe", include_errors)
    reference = build_report_reference(analysis, config, "probe", include_errors)
    assert ours == reference
    # The text and CSV renderings also read the order of each section.
    for render in (render_json, render_text, render_csv):
        assert render(ours) == render(reference)


class TestRendering:
    def test_json_rendering_is_stable(self, report):
        assert render_json(report) == render_json(json.loads(render_json(report)))

    def test_csv_one_row_per_role_plus_overall(self, report):
        lines = render_csv(report).strip().splitlines()
        assert lines[0].startswith("role,")
        assert len(lines) == 1 + len(report["schema"]["roles"]) + 1
        assert lines[-1].startswith("overall,")

    def test_text_contains_tables(self, report):
        text = render_text(report)
        assert "error type" in text
        assert "overall" in text
        for etype in report["errors"]["per_type"]:
            assert etype in text


class TestCompare:
    def test_deltas_against_first(self, analysis_and_config):
        analysis, config = analysis_and_config
        a = build_report(analysis, config, label="a")
        b = build_report(analysis, config, label="b")
        comparison = compare_reports([a, b])
        assert comparison["baseline"] == "a"
        for system in comparison["systems"]:
            assert set(system["errors_per_type_delta"].values()) == {0}
        text = render_comparison_text(comparison)
        assert "a" in text and "b" in text

    def test_requires_two_reports(self, report):
        with pytest.raises(IncompatibleReports):
            compare_reports([report])

    def test_score_only_reports_compare_scores(self, analysis_and_config):
        analysis, config = analysis_and_config
        full = build_report(analysis, config, label="full")
        slim = build_report(analysis, config, label="slim", include_errors=False)
        comparison = compare_reports([full, slim])
        assert all("errors_per_type" not in s for s in comparison["systems"])
        assert comparison["systems"][1]["label"] == "slim"
