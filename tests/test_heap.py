"""Heap bounds of loading, analysis and JSON rendering, on the benchmark's small_docs corpus (400 documents).

Each stage holds about one document's temporary memory, or one more copy
of its output, not a second copy of the corpus: ``load_side`` decodes one
document at a time, ``analyze_each`` drops each document once analyzed
when it holds the only reference to them, and ``render_json`` joins the
encoder's chunks in batches. ``tracemalloc`` measures the Python heap.
"""

from __future__ import annotations

import tracemalloc

import pytest

from support import write_bench_inputs
from tfea.config import AnalysisConfig
from tfea.corpus import load_corpus, load_schema, load_side
from tfea.pipeline import analyze_each
from tfea.reports import assemble_report, document_row, render_json


@pytest.fixture(scope="module")
def small_docs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small_docs")
    write_bench_inputs("small_docs", 0, directory)
    return directory


def _traced(call) -> tuple[object, int, int]:
    """``call()``, with the peak and the current size of the heap it allocated (bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


@pytest.mark.parametrize("side", ["gold", "pred"])
def test_loading_a_side_holds_one_copy_of_its_text_besides_what_it_keeps(small_docs, side):
    """A whole-file decode would hold the JSON tree next to the records: 1.5-2.1x the file's size on top of them."""
    path = small_docs / f"{side}.json"
    schema = load_schema(str(small_docs / "schema.json"))
    loaded, peak, kept = _traced(lambda: load_side(str(path), schema, gold=side == "gold"))
    assert len(loaded) == 400
    assert peak - kept <= 1.2 * path.stat().st_size


def test_analysis_frees_each_document_once_analyzed(small_docs):
    """Given an iterator over the only list, as the CLI passes it, ``analyze_each`` peaks at the corpus's heap.

    The rows replace the documents; holding every document until the end
    would peak at 1.3x the corpus's heap.
    """
    schema = load_schema(str(small_docs / "schema.json"))
    paths = [str(small_docs / f"{side}.json") for side in ("gold", "pred")]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        only = [load_corpus(*paths, schema)]
        corpus = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        rows = analyze_each(iter(only.pop()), schema, AnalysisConfig(), document_row)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(rows) == 400
    assert peak < 1.1 * corpus


def test_rendering_json_holds_two_copies_of_the_text(small_docs):
    """``json.dumps``, which lists every encoder chunk before joining them, peaks at 5.8x the text's length."""
    schema = load_schema(str(small_docs / "schema.json"))
    documents = load_corpus(str(small_docs / "gold.json"), str(small_docs / "pred.json"), schema)
    config = AnalysisConfig()
    report = assemble_report(analyze_each(documents, schema, config, document_row), schema, config, "x", True)
    text, peak, _ = _traced(lambda: render_json(report))
    assert peak <= 2.5 * len(text)
