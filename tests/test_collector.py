"""The cyclic garbage collector: what the CLI's pause rests on, and that it is undone.

``cli.main`` runs each command with the collector off. That is safe only
while loading and analysis build no reference cycles, so these tests
count what a collection finds after each of them with the collector off.
"""

import gc
import io
import json
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr

import pytest

from support import child_env, dump_side, fuzzed_corpus, pool_for_any_corpus
from tfea import pipeline
from tfea.cli import EXIT_ERROR, EXIT_GUARD, EXIT_OK, main
from tfea.config import AnalysisConfig
from tfea.corpus import load_corpus, schema_to_dict
from tfea.inject import GenerationParams, InjectionSpec, default_schema, generate_corpus, inject_errors
from tfea.pipeline import analyze_corpus

GUARD_CONFIGS = {
    "default": AnalysisConfig(),
    "skip": AnalysisConfig(max_template_matchings=1, on_guard="skip"),
    "greedy": AnalysisConfig(max_template_matchings=1, on_guard="greedy"),
}


@pytest.fixture(autouse=True)
def started(monkeypatch) -> list[int]:
    """The ``--parallel`` runs here start a pool on their tiny corpora; the pools started."""
    return pool_for_any_corpus(monkeypatch)


@contextmanager
def _collector(enabled: bool):
    """Run the block with the collector in the given state, then restore it."""
    was_enabled = gc.isenabled()
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _write_corpus(directory, documents, schema) -> tuple[str, str, str]:
    gold, pred, schema_path = (str(directory / name) for name in ("gold.json", "pred.json", "schema.json"))
    dump_side(documents, gold, gold=True)
    dump_side(documents, pred, gold=False)
    with open(schema_path, "w", encoding="utf-8") as handle:
        json.dump(schema_to_dict(schema), handle)
    return gold, pred, schema_path


@pytest.mark.parametrize("guard", sorted(GUARD_CONFIGS))
def test_load_and_serial_analysis_leave_no_cycles(tmp_path, guard):
    config = GUARD_CONFIGS[guard]
    for seed in range(5):
        documents, schema = fuzzed_corpus(seed, n_docs=4, max_templates=3)
        gold, pred, schema_path = _write_corpus(tmp_path, documents, schema)
        with _collector(enabled=False):
            loaded = load_corpus(gold, pred, schema, config.casefold)
            assert gc.collect() == 0, (guard, seed, "load")
            analysis = analyze_corpus(loaded, schema, config)
            assert gc.collect() == 0, (guard, seed, "analyze")
        assert len(analysis.documents) == len(documents)


def _corpus_files(directory, n_docs: int) -> tuple[str, str, str]:
    schema = default_schema()
    gold_docs = generate_corpus(
        GenerationParams(n_docs=n_docs, templates_per_doc=(1, 3), mentions_per_entity=(1, 2)), seed=7
    )
    documents = inject_errors(gold_docs, schema, InjectionSpec(counts={}), seed=0).documents
    directory.mkdir()
    return _write_corpus(directory, documents, schema)


def _analyze_argv(files, out, *extra) -> list[str]:
    gold, pred, schema = files
    return ["analyze", "--gold", gold, "--pred", pred, "--schema", schema, "--out", str(out), *extra]


def test_cli_garbage_does_not_grow_with_the_corpus(tmp_path):
    """What a whole command leaves for the collector is a constant, not a share of the corpus."""
    small = _corpus_files(tmp_path / "one", 1)
    large = _corpus_files(tmp_path / "forty", 40)
    assert main(_analyze_argv(small, tmp_path / "warm-up.json")) == EXIT_OK
    unreachable = {}
    for name, files in (("one", small), ("forty", large)):
        with _collector(enabled=False):
            assert main(_analyze_argv(files, tmp_path / f"{name}.json")) == EXIT_OK
            unreachable[name] = gc.collect()
    assert unreachable["one"] == unreachable["forty"]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["ok", "parse error", "guard"])
def test_main_restores_the_collector_state(tmp_path, started, enabled, outcome):
    files = _corpus_files(tmp_path / "corpus", 3)
    extra, expected = {
        "ok": ((), EXIT_OK),
        "parse error": (("--config", str(tmp_path / "missing.json")), EXIT_ERROR),
        "guard": (("--parallel", "2", "--max-matchings", "1", "--on-guard", "fail"), EXIT_GUARD),
    }[outcome]
    argv = _analyze_argv(files, tmp_path / "r.json", *extra)
    with _collector(enabled):
        with redirect_stderr(io.StringIO()):
            assert main(argv) == expected
        assert gc.isenabled() is enabled
    assert started == ([1] if outcome == "guard" else [])


def test_analyze_corpus_leaves_the_collector_alone(started):
    documents, schema = fuzzed_corpus(1, n_docs=3)
    for enabled in (True, False):
        with _collector(enabled):
            analyze_corpus(documents, schema, parallel=2)
            assert gc.isenabled() is enabled
    assert started == [1, 1]


def test_pool_worker_start_pauses_the_collector(monkeypatch):
    """Spawned and forkserver workers do not inherit the CLI's paused collector."""
    documents, schema = fuzzed_corpus(0)
    monkeypatch.setattr(pipeline, "_worker_job", None)
    with _collector(enabled=True):
        pipeline._start_worker(documents, schema, AnalysisConfig(), True, pipeline._as_is)
        assert not gc.isenabled()


def test_cli_import_does_not_load_the_injector():
    # Importing the CLI loads neither the injector, nor what only some runs
    # use (csv output, a --parallel pool, report comparison, logging, which
    # loads with the first record, and the replay of a transformation log),
    # nor dataclasses and the inspect module it imports, which the package
    # does not use.
    unused = (
        "dataclasses", "inspect", "csv", "concurrent.futures.process", "tfea.compare", "logging", "tfea.replay"
    )
    probe = (
        "import sys, tfea.cli\n"
        "print('tfea.inject' in sys.modules)\n"
        f"print(*[name for name in {unused!r} if name in sys.modules])\n"
        "from tfea import inject_errors, InjectionSpec\n"
        "print(inject_errors.__module__, InjectionSpec.__module__)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(),
        cwd="/",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False", "tfea.inject", "tfea.inject"]
