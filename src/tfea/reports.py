"""Report assembly from per-document rows, and rendering (JSON, CSV, text).

Reports are plain dicts rendered with sorted keys so identical inputs
and configuration produce byte-identical files.
"""

from __future__ import annotations

import io
import json
from itertools import islice
from typing import Iterable

from . import __version__
from .config import AnalysisConfig
from .corpus import schema_to_dict
from .errors import ERROR_TYPES, ErrorProfile, add_counts, side_tallies
from .matching import Tally
from .model import Schema
from .pipeline import CorpusAnalysis, DocumentAnalysis
from .scoring import Scores, score_corpus
from .transforms import Transformation

TOOL_NAME = "tfea"


def _triple_dict(tally: Tally) -> dict:
    return {
        "num": tally.numerator,
        "p_den": tally.precision_denominator,
        "r_den": tally.recall_denominator,
        "p": tally.precision,
        "r": tally.recall,
        "f1": tally.f1,
    }


def _scores_dict(scores: Scores, schema: Schema) -> dict:
    return {
        "overall": _triple_dict(scores.overall),
        "per_role": {
            role: _triple_dict(scores.per_role.get(role, Tally())) for role in schema.names
        },
    }


_TYPE_VALUES = tuple((etype, etype.value) for etype in ERROR_TYPES)


def _counts_dict(counts: dict) -> dict:
    # ``counts`` is keyed by ErrorType or by its value: a str enum member hashes and compares as its value.
    return {value: counts.get(etype, 0) for etype, value in _TYPE_VALUES}


def error_counts(profile: ErrorProfile) -> dict:
    """A profile in builtins: counts per type (every type) and per role, keyed by type value, and side tallies."""
    return {
        "per_type": _counts_dict(profile.counts),
        "per_role": {role: {etype.value: n for etype, n in c.items()} for role, c in profile.per_role.items()},
        "side_tallies": side_tallies(profile),
    }


def errors_section(profile: ErrorProfile, schema: Schema, per_doc: dict[str, ErrorProfile]) -> dict:
    return _errors_section(error_counts(profile), schema, {doc_id: error_counts(p) for doc_id, p in per_doc.items()})


def _errors_section(total: dict, schema: Schema, per_doc: dict[str, dict]) -> dict:
    """The errors section from ``error_counts``: the corpus ``total`` and each document's, by doc id."""
    return {
        "per_type": total["per_type"],
        "per_role": {role: _counts_dict(total["per_role"].get(role, {})) for role in schema.names},
        "side_tallies": total["side_tallies"],
        "per_doc": {
            doc_id: {"per_type": counts["per_type"], "side_tallies": counts["side_tallies"]}
            for doc_id, counts in sorted(per_doc.items())
        },
    }


def transformation_entry(transformation: Transformation) -> dict:
    entry = {
        "kind": transformation.kind.value,
        "role": transformation.role,
        "pred_text": transformation.pred_text,
        "pred_span": (
            [transformation.pred_span.start, transformation.pred_span.end]
            if transformation.pred_span is not None
            else None
        ),
    }
    if transformation.gold_mention is not None:
        entry["gold_text"] = transformation.gold_mention.text
    if transformation.gold_role is not None:
        entry["gold_role"] = transformation.gold_role
    if transformation.gold_template is not None:
        entry["gold_template_index"] = transformation.gold_template
    return entry


def config_echo(config: AnalysisConfig) -> dict:
    return {
        "scs_mode": config.scs_mode.value,
        "case_sensitive": config.case_sensitive,
        "max_template_matchings": config.max_template_matchings,
        "on_guard": config.on_guard,
    }


def document_row(analysis: DocumentAnalysis) -> tuple:
    """One document's part of the report in builtins only, made where the document was analyzed.

    The row is (doc id, guard message, approximate, role tallies as
    numerator and denominator triples, ``error_counts``, transformation
    entries), the last three None where the analysis has none.
    """
    matching, profile, log = analysis.matching, analysis.profile, analysis.log
    tallies = errors = entries = None
    if matching is not None:
        tallies = {role: (t.numerator, t.precision_denominator, t.recall_denominator)
                   for role, t in matching.role_tallies.items()}
    if profile is not None:
        errors = error_counts(profile)
    if log is not None:
        entries = [transformation_entry(t) for t in log]
    return analysis.doc_id, analysis.guard_message, analysis.approximate, tallies, errors, entries


def assemble_report(
    rows: Iterable[tuple], schema: Schema, config: AnalysisConfig, label: str, include_errors: bool
) -> dict:
    """The report of ``document_row``s in doc-id order; a row with a guard message is a skipped document."""
    skipped, approximate, tallies, per_doc, transformations = [], [], [], {}, {}
    total = error_counts(ErrorProfile())
    for doc_id, guard_message, approximated, role_tallies, errors, entries in rows:
        if approximated:
            approximate.append(doc_id)
        if guard_message is not None:
            skipped.append({"doc_id": doc_id, "reason": guard_message})
            continue
        tallies.append({role: Tally(*triple) for role, triple in role_tallies.items()})
        if errors is not None:
            per_doc[doc_id] = errors
            add_counts(total, errors)
        if entries is not None:
            transformations[doc_id] = entries
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "label": label,
        "config": config_echo(config),
        "schema": schema_to_dict(schema),
        "scores": _scores_dict(score_corpus(tallies), schema),
        "skipped_documents": skipped,
        "approximate_documents": approximate,
    }
    if include_errors:
        report["errors"] = _errors_section(total, schema, per_doc)
        report["transformations"] = transformations
    return report


def build_report(
    analysis: CorpusAnalysis, config: AnalysisConfig, label: str = "system", include_errors: bool = True
) -> dict:
    return assemble_report(map(document_row, analysis.documents), analysis.schema, config, label, include_errors)


_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, indent=2)
RENDER_BATCH = 4096  # encoder chunks joined at a time


def render_json(report: dict) -> str:
    """``json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)`` and a newline.

    ``json.dumps`` lists every chunk of the encoder (one per key, value and
    indent: tens of thousands on a corpus) before it joins them; joining
    them in batches holds at most one batch of chunks next to the text.
    """
    chunks = _ENCODER.iterencode(report)
    batches = []
    while batch := list(islice(chunks, RENDER_BATCH)):
        batches.append("".join(batch))
    batches.append("\n")
    return "".join(batches)


def render_csv(report: dict) -> str:
    """Scores as CSV, one row per role plus the overall row."""
    import csv  # imported here: the other formats never load it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["role", "num", "p_den", "r_den", "precision", "recall", "f1"])
    scores = report["scores"]
    for role, t in scores["per_role"].items():
        writer.writerow([role, t["num"], t["p_den"], t["r_den"], t["p"], t["r"], t["f1"]])
    t = scores["overall"]
    writer.writerow(["overall", t["num"], t["p_den"], t["r_den"], t["p"], t["r"], t["f1"]])
    return out.getvalue()


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*header))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    return "\n".join(lines)


def render_text(report: dict) -> str:
    lines = [f"{TOOL_NAME} report: {report['label']}"]
    lines.append("config: " + ", ".join(f"{k}={v}" for k, v in sorted(report["config"].items())))
    lines.append("")
    scores = report["scores"]
    rows = []
    for role, t in list(scores["per_role"].items()) + [("overall", scores["overall"])]:
        rows.append([role, f"{t['p']:.4f}", f"{t['r']:.4f}", f"{t['f1']:.4f}", f"{t['num']}/{t['p_den']}/{t['r_den']}"])
    lines.append(_table(rows, ["role", "precision", "recall", "f1", "num/p_den/r_den"]))
    if "errors" in report:
        lines.append("")
        errors = report["errors"]
        error_rows = [[name, str(n)] for table in ("per_type", "side_tallies") for name, n in errors[table].items()]
        lines.append(_table(error_rows, ["error type", "count"]))
    if report["skipped_documents"]:
        lines.append("")
        lines.append("skipped documents:")
        for entry in report["skipped_documents"]:
            lines.append(f"  {entry['doc_id']}: {entry['reason']}")
    return "\n".join(lines) + "\n"
