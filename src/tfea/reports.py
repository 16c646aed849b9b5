"""Report assembly, rendering (JSON, CSV, text), and cross-system comparison.

Reports are plain dicts rendered with sorted keys so identical inputs
and configuration produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import sys

from . import __version__
from .config import AnalysisConfig
from .corpus import _check_keys, _decode_object, read_json, schema_to_dict
from .errors import ERROR_TYPES, ErrorProfile
from .exceptions import IncompatibleReports
from .matching import Tally
from .model import Schema
from .pipeline import CorpusAnalysis
from .scoring import Scores
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


def _counts_dict(counts: dict) -> dict:
    return {etype.value: counts.get(etype, 0) for etype in ERROR_TYPES}


def _side_tallies(profile: ErrorProfile) -> dict:
    return {
        "spurious_template_role_fillers": profile.spurious_template_role_fillers,
        "missing_template_role_fillers": profile.missing_template_role_fillers,
    }


def errors_section(profile: ErrorProfile, schema: Schema, per_doc: dict[str, ErrorProfile]) -> dict:
    return {
        "per_type": _counts_dict(profile.counts),
        "per_role": {
            role: _counts_dict(profile.per_role.get(role, {})) for role in schema.names
        },
        "side_tallies": _side_tallies(profile),
        "per_doc": {
            doc_id: {
                "per_type": _counts_dict(p.counts),
                "side_tallies": _side_tallies(p),
            }
            for doc_id, p in sorted(per_doc.items())
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


def build_report(
    analysis: CorpusAnalysis,
    config: AnalysisConfig,
    label: str = "system",
    include_errors: bool = True,
) -> dict:
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "label": label,
        "config": config_echo(config),
        "schema": schema_to_dict(analysis.schema),
        "scores": _scores_dict(analysis.scores, analysis.schema),
        "skipped_documents": [
            {"doc_id": d.doc_id, "reason": d.guard_message} for d in analysis.skipped
        ],
        "approximate_documents": [d.doc_id for d in analysis.documents if d.approximate],
    }
    if include_errors:
        per_doc = {d.doc_id: d.profile for d in analysis.analyzed if d.profile is not None}
        report["errors"] = errors_section(analysis.profile, analysis.schema, per_doc)
        report["transformations"] = {
            d.doc_id: [transformation_entry(t) for t in d.log]
            for d in analysis.analyzed
            if d.log is not None
        }
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


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
        error_rows = [[etype, str(count)] for etype, count in report["errors"]["per_type"].items()]
        for name, count in report["errors"]["side_tallies"].items():
            error_rows.append([name, str(count)])
        lines.append(_table(error_rows, ["error type", "count"]))
    if report["skipped_documents"]:
        lines.append("")
        lines.append("skipped documents:")
        for entry in report["skipped_documents"]:
            lines.append(f"  {entry['doc_id']}: {entry['reason']}")
    return "\n".join(lines) + "\n"


def load_report(path: str) -> dict:
    """The report in ``path``; an object at any depth that names a key twice is a ``ParseError``."""
    return read_json(path, "report", lambda pairs: _check_keys(path, _decode_object(pairs), None))


def _is_numbers(table, fields: tuple[str, ...] = ()) -> bool:
    """A JSON object whose values are all numbers and that has ``fields``.

    A number is an int or a float within the float range, which the text
    rendering can format with ``:.4f``; NaN and infinities are not numbers.
    """
    return (
        isinstance(table, dict)
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
            for v in table.values()
        )
        and all(name in table for name in fields)
    )


def _compared_names(report) -> tuple | None:
    """The role names and (if present) the error names a comparison reads.

    None when ``report`` is not a report: a section the comparison reads
    is missing or holds something other than numbers, or the label is
    not a string.
    """
    if not isinstance(report, dict) or not isinstance(report.get("label", ""), str):
        return None
    scores = report.get("scores")
    per_role = scores.get("per_role") if isinstance(scores, dict) else None
    if not isinstance(per_role, dict) or not all(
        _is_numbers(triple, ("p", "r", "f1")) for triple in (scores.get("overall"), *per_role.values())
    ):
        return None
    if "errors" not in report:
        return set(per_role), None
    errors = report["errors"]
    if not (
        isinstance(errors, dict)
        and "per_role" in errors
        and _is_numbers(errors.get("per_type"))
        and _is_numbers(errors.get("side_tallies"))
    ):
        return None
    return set(per_role), (set(errors["per_type"]), set(errors["side_tallies"]))


def compare_reports(reports: list[dict]) -> dict:
    """Side-by-side counts and scores, with deltas against the first report."""
    if len(reports) < 2:
        raise IncompatibleReports("need at least two reports to compare")
    names = [_compared_names(r) for r in reports]
    for position, entry in enumerate(names, 1):
        if entry is None:
            raise IncompatibleReports(f"input {position} is not a {TOOL_NAME} report")
    schemas = [r.get("schema") for r in reports]
    if any(s != schemas[0] for s in schemas[1:]):
        raise IncompatibleReports("reports were produced against different schemas")
    if any(roles != names[0][0] for roles, _ in names):
        raise IncompatibleReports("reports score different roles")
    with_errors = all(errors is not None for _, errors in names)
    if with_errors and any(errors != names[0][1] for _, errors in names):
        raise IncompatibleReports("reports count different error types")
    base = reports[0]
    systems = []
    for report in reports:
        entry = {
            "label": report.get("label", "system"),
            "scores": report["scores"],
            "score_deltas": {
                "overall": {
                    key: report["scores"]["overall"][key] - base["scores"]["overall"][key]
                    for key in ("p", "r", "f1")
                },
                "per_role": {
                    role: {
                        key: report["scores"]["per_role"][role][key]
                        - base["scores"]["per_role"][role][key]
                        for key in ("p", "r", "f1")
                    }
                    for role in report["scores"]["per_role"]
                },
            },
        }
        if with_errors:
            entry["errors_per_type"] = report["errors"]["per_type"]
            entry["errors_per_type_delta"] = {
                etype: report["errors"]["per_type"][etype] - base["errors"]["per_type"][etype]
                for etype in report["errors"]["per_type"]
            }
            entry["errors_per_role"] = report["errors"]["per_role"]
            entry["side_tallies"] = report["errors"]["side_tallies"]
            entry["side_tallies_delta"] = {
                key: report["errors"]["side_tallies"][key]
                - base["errors"]["side_tallies"][key]
                for key in report["errors"]["side_tallies"]
            }
        systems.append(entry)
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "baseline": base.get("label", "system"),
        "schema": schemas[0],
        "systems": systems,
    }


def render_comparison_text(comparison: dict) -> str:
    labels = [s["label"] for s in comparison["systems"]]
    lines = [f"{TOOL_NAME} comparison (baseline: {comparison['baseline']})", ""]
    rows = [
        ["f1"] + [f"{s['scores']['overall']['f1']:.4f}" for s in comparison["systems"]],
        ["precision"] + [f"{s['scores']['overall']['p']:.4f}" for s in comparison["systems"]],
        ["recall"] + [f"{s['scores']['overall']['r']:.4f}" for s in comparison["systems"]],
    ]
    lines.append(_table(rows, ["metric"] + labels))
    if all("errors_per_type" in s for s in comparison["systems"]):
        lines.append("")
        error_rows = []
        for etype in comparison["systems"][0]["errors_per_type"]:
            error_rows.append(
                [etype] + [str(s["errors_per_type"][etype]) for s in comparison["systems"]]
            )
        for tally in comparison["systems"][0]["side_tallies"]:
            error_rows.append(
                [tally] + [str(s["side_tallies"][tally]) for s in comparison["systems"]]
            )
        lines.append(_table(error_rows, ["error type"] + labels))
    return "\n".join(lines) + "\n"
