"""Cross-system comparison of saved reports; of the CLI commands, only ``compare`` loads it."""

from __future__ import annotations

import sys

from . import __version__
from .corpus import _check_keys, _decode_object, read_json
from .exceptions import IncompatibleReports
from .reports import TOOL_NAME, _table

_SCORE_KEYS = ("p", "r", "f1")
# The text rendering's metric rows: row name and score key.
_METRIC_ROWS = (("f1", "f1"), ("precision", "p"), ("recall", "r"))
# A system's error tables, each with a delta, by the report's errors table it copies.
_ERROR_TABLES = {"errors_per_type": "per_type", "side_tallies": "side_tallies"}


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
        _is_numbers(triple, _SCORE_KEYS) for triple in (scores.get("overall"), *per_role.values())
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


def _delta(table: dict, base: dict, keys) -> dict:
    """``table[key] - base[key]`` for each of ``keys``: the one subtraction of a comparison."""
    return {key: table[key] - base[key] for key in keys}


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
        scores, base_scores = report["scores"], base["scores"]
        entry = {
            "label": report.get("label", "system"),
            "scores": scores,
            "score_deltas": {
                "overall": _delta(scores["overall"], base_scores["overall"], _SCORE_KEYS),
                "per_role": {
                    role: _delta(triple, base_scores["per_role"][role], _SCORE_KEYS)
                    for role, triple in scores["per_role"].items()
                },
            },
        }
        if with_errors:
            errors, base_errors = report["errors"], base["errors"]
            entry["errors_per_role"] = errors["per_role"]
            for key, table in _ERROR_TABLES.items():
                entry[key] = errors[table]
                entry[f"{key}_delta"] = _delta(errors[table], base_errors[table], errors[table])
        systems.append(entry)
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "baseline": base.get("label", "system"),
        "schema": schemas[0],
        "systems": systems,
    }


def render_comparison_text(comparison: dict) -> str:
    systems = comparison["systems"]
    labels = [s["label"] for s in systems]
    lines = [f"{TOOL_NAME} comparison (baseline: {comparison['baseline']})", ""]
    rows = [[name] + [f"{s['scores']['overall'][key]:.4f}" for s in systems] for name, key in _METRIC_ROWS]
    lines.append(_table(rows, ["metric"] + labels))
    if all("errors_per_type" in s for s in systems):
        lines.append("")
        error_rows = [
            [name] + [str(s[table][name]) for s in systems]
            for table in _ERROR_TABLES
            for name in systems[0][table]
        ]
        lines.append(_table(error_rows, ["error type"] + labels))
    return "\n".join(lines) + "\n"
