"""Self-tests for the benchmark: run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from checks import Invocation, OutputChecker  # noqa: E402
from tfea.cli import main as tfea_main  # noqa: E402
from tfea.reports import render_json  # noqa: E402
from workloads import WORKLOADS, input_files, write_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for workload in WORKLOADS.values():
        first = input_files(workload, seed=7)
        assert input_files(workload, seed=7) == first, workload.name
        other = input_files(workload, seed=8)
        assert other["gold.json"] != first["gold.json"], workload.name
        assert other["pred.json"] != first["pred.json"], workload.name


def _analyze(directory: Path, on_guard: str) -> bytes:
    out = directory / "report.json"
    code = tfea_main([
        "analyze",
        "--gold", str(directory / "gold.json"),
        "--pred", str(directory / "pred.json"),
        "--schema", str(directory / "schema.json"),
        "--on-guard", on_guard,
        "--out", str(out),
    ])
    assert code == 0
    return out.read_bytes()


def test_altered_count_fails_the_ledger_check(tmp_path):
    workload = WORKLOADS["small_docs"]
    write_inputs(workload, seed=3, directory=tmp_path)
    report_bytes = _analyze(tmp_path, workload.on_guard)
    checker = OutputChecker(json.loads((tmp_path / "ledger.json").read_text()))

    assert checker.check(Invocation("analyze", 0, "", report_bytes)) == []
    assert checker.failed_share == 0.0
    assert checker.ledger_match_share == 1.0
    assert checker.exact_doc_share == 1.0

    report = json.loads(report_bytes)
    first_doc = sorted(report["errors"]["per_doc"])[0]
    report["errors"]["per_doc"][first_doc]["per_type"]["span_error"] += 1
    altered = render_json(report).encode("utf-8")

    assert "ledger" in checker.check(Invocation("analyze", 0, "", altered))
    assert checker.failed_share == 0.5
    assert checker.ledger_match_share < 1.0


def test_failures_from_exit_code_and_traceback_are_counted():
    checker = OutputChecker({"per_doc": {}})
    assert checker.check(Invocation("setup", 0, "", b"2\n")) == []
    assert checker.check(Invocation("setup", 1, "", b"2\n")) == ["exit"]
    assert checker.check(Invocation("setup", 0, "Traceback (most recent call last):", b"2\n")) == ["traceback"]
    assert checker.failed_share == 2 / 3


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        {"id": 0, "name": "a", "parent": None, "request": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "request": "d1", "start": 2.0, "end": 5.0},
        {"id": 2, "name": "c", "parent": 1, "request": "d1", "start": 3.0, "end": 4.0},
        {"id": 3, "name": "b", "parent": 0, "request": "d2", "start": 6.0, "end": 7.0},
    ]
    assert tracer.self_times(0) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    declared_layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layers == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = (
        list(run.END_TO_END) + list(run.END_TO_END_PRINTED_ONLY) + list(run.PER_LAYER)
        + list(tracing.SPAN_METRICS) + list(tracing.SPAN_METRICS.values()) + list(tracing.COUNT_METRICS)
        + list(WORKLOADS)
    )
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]
    assert set(tracing.SPAN_METRICS.values()) | set(tracing.COUNT_METRICS) <= set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_templates", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
