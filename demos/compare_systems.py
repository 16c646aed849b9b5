"""Comparing the error landscapes of two simulated systems.

System A misses recall (dropped fillers and templates); system B
overgenerates (spurious fillers and duplicates). Their F1 scores are
close, but the per-type error tables tell two very different stories.

Run: python3 demos/compare_systems.py
"""

from tfea import (
    AnalysisConfig,
    ErrorType,
    GenerationParams,
    InjectionSpec,
    analyze_corpus,
    generate_corpus,
    inject_errors,
)
from tfea.compare import compare_reports, render_comparison_text
from tfea.inject import default_schema
from tfea.reports import build_report

schema = default_schema()
params = GenerationParams(
    n_docs=6,
    templates_per_doc=(4, 4),
    entities_per_role=(2, 2),
    mentions_per_entity=(2, 2),
)
gold = generate_corpus(params, seed=8)
config = AnalysisConfig()

recall_misser = InjectionSpec(
    counts={ErrorType.MISSING_ROLE_FILLER: 2, ErrorType.MISSING_TEMPLATE: 1}
)
overgenerator = InjectionSpec(
    counts={
        ErrorType.SPURIOUS_ROLE_FILLER: 2,
        ErrorType.DUPLICATE_ROLE_FILLER: 1,
        ErrorType.SPURIOUS_TEMPLATE: 1,
    }
)

reports = []
for label, spec in (("system-a", recall_misser), ("system-b", overgenerator)):
    result = inject_errors(gold, schema, spec, seed=5)
    analysis = analyze_corpus(result.documents, schema, config)
    reports.append(build_report(analysis, config, label=label))

comparison = compare_reports(reports)
print(render_comparison_text(comparison))

a, b = comparison["systems"]
print("reading the table: both systems lose about the same F1, but")
print(f"  {a['label']} loses it to missing content "
      f"({a['errors_per_type']['missing_role_filler']} missing fillers, "
      f"{a['errors_per_type']['missing_template']} missing templates), while")
print(f"  {b['label']} loses it to invented content "
      f"({b['errors_per_type']['spurious_role_filler']} spurious fillers, "
      f"{b['errors_per_type']['duplicate_role_filler']} duplicates, "
      f"{b['errors_per_type']['spurious_template']} spurious templates).")
