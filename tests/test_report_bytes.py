"""Pinned report bytes: the sha256 of ``analyze``, ``score`` and ``compare`` output.

Two small seeded corpora go through the CLI in-process: one whose
mentions declare their offsets, and one with text-only mentions that
span resolution has to locate. A change to loading, resolution,
matching, derivation or rendering that alters a single report byte
fails here; the digests are the same under every supported Python.

The same corpora are also pinned with a matching cap of 7, so every
document above 2 x 2 templates goes to the greedy fallback or is
skipped, and as text and CSV reports. ``compare`` is pinned on reports
of the benchmark's wide_templates inputs at seed 0, and so is what each
demo prints.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from support import child_env, fuzzed_corpus
from tfea.cli import EXIT_OK, main
from tfea.corpus import schema_to_dict, side_to_dict

PINNED = {
    ("offsets", "analyze"): "b0c290c9350a639003d515c0a55824bec3a81f61bb40fdaf02d5803871e510a2",
    ("offsets", "score"): "9cb77764d2c8dfdce0177a4b4cd54fe76cd120d76d7513ccaee62c3d2e96899f",
    ("text_only", "analyze"): "75b4a72dc715fb0824a60552f7677f4a91f6f4fce1b6d5fc6f1962cb00a7bfa4",
    ("text_only", "score"): "c32efd89612ed577db42b649b631031700bf40250101780e9cc63825ebf1c30e",
}

# --max-matchings 7 admits 2 x 2 templates (7 matchings) and sends 2 x 3 (13) to --on-guard.
PINNED_GUARDED = {
    ("offsets", "analyze", "greedy"): "02c317e639351c467d69b554ec6dc2362e781f73d349b10ade038919049342c0",
    ("offsets", "score", "greedy"): "90c8ac1ed10127edd6f035e932706e00d5282917ecd68e9132c1df169d484c25",
    ("offsets", "analyze", "skip"): "c3ca5a62625b78ccb3c9177da81baad58e760ee5ce90c1ca321dff05b53e6109",
    ("offsets", "score", "skip"): "a93794940b2a407a99ddc69f305f0774ea91126f87da55688f9cb7d451122641",
    ("text_only", "analyze", "greedy"): "bdd9827ba2707aec4fbf71d3db9ae6f94b593e7bd42e3ca7d974e336ff8b5b91",
    ("text_only", "score", "greedy"): "3fbbf908147a13bd8cd86b8380f6085126fab929831c3e03326ce8e5adf6ec28",
    ("text_only", "analyze", "skip"): "805ad3f08f9ca83eccc3ae0a93d0e093bcb8a495ea43388d3c64f8a0c897fc5c",
    ("text_only", "score", "skip"): "44589fbea97ba00722185c29ffda10b2263436dfe8092b50cac4f53b84ce6c32",
}
PINNED_FORMATS = {
    ("offsets", "text"): "4021a6127d2220cd3c42ff24bcf14204167fe7957653d59c33c9f7af14e998e2",
    ("offsets", "csv"): "65eeb3f143d99e496a622f3f2b7de76dd693fdc969c63ed2ede8b738919e71ec",
    ("text_only", "text"): "1ecd785158c0a9d4c385a0fe6280ef2d2fa3c5ba28cede01c60212fd74d98056",
    ("text_only", "csv"): "7e0b122fa1fb471e5d4aaf41aaaa54d235c0abb190e483cc1afec8b82147aa92",
}

# Reports by name: "analyze" and "score" of the benchmark's predictions,
# "injected" the analyze report of predictions made by ``tfea inject``.
PINNED_COMPARE = {
    (("analyze", "injected"), "json"): "6b6b207caa332c6ee5418e1c3b0edc1e2e25113dc06b4c5367fd21cbb0ec928f",
    (("analyze", "injected"), "text"): "a2686ff7e5578d16c62b029d876d1ade96ebfd3600ac92e44c578dfecf4c0096",
    (("injected", "analyze"), "json"): "cf70ef49e949a9a2dc1f6a2939048fd7ac247e14f6ce2511106263605f422ebb",
    (("injected", "analyze"), "text"): "99fef4b25de8748ce6afae64ab61ba936e0c2dbc69a3b2cded8e34e46c770d08",
    (("analyze", "injected", "score"), "json"): "2a468dd51a6394d02c9d095ba29d8171ff6b7cb77b7e1ab7f5145e6d3f3dec42",
    (("analyze", "injected", "score"), "text"): "e1d87069cb5f8887811e977aee1cfe16862dca7c10d77664b728786ca06b1dd7",
    (("score", "injected", "analyze"), "json"): "8cd7e8ec75cf90b966fb24a5982484e5ec75f6401d4cc3ce4d82a0c5e8f827a3",
    (("score", "injected", "analyze"), "text"): "2782933dcfba56a7cb7bd1f7e7cc9900d63a7edea99a9f24e8ca15e9b0f74317",
}
# What each demo prints, run with -S (no site-packages).
PINNED_DEMOS = {
    "analysis_walkthrough.py": "ca47ad6bdac4e804cec573d892f3b653e89fc19ee2c735b21c8a1ca39bfe372f",
    "compare_systems.py": "5768ce2d266b0534ed98bbdec0cc388c715f85666b4d6eb5e6b2bc81c6cbff4f",
    "injection_roundtrip.py": "1618296c921c056b86fbcaf88aa3ebf3d69c3e63486e0e8860f728f394a8bb4e",
    "span_scores_tour.py": "a466ddb0ee4a1aef3ca2622a0751453e5ebcc152cda31d2ca95f1b24a569fc9a",
}
DEMOS = Path(__file__).resolve().parents[1] / "demos"
INJECTION_SPEC = {"counts": {"span_error": 3, "incorrect_role": 2, "missing_template": 1, "spurious_template": 1}, "seed": 0}


def _strip_offsets(side: dict) -> None:
    for entry in side.values():
        for template in entry["templates"]:
            for value in template.values():
                if isinstance(value, str):
                    continue
                for item in value:
                    for mention in item if isinstance(item, list) else [item]:
                        mention.pop("start", None)
                        mention.pop("end", None)


def _write_corpus(tmp_path, offsets: bool):
    documents, schema = fuzzed_corpus(7 if offsets else 12, n_docs=8, max_templates=4)
    gold = side_to_dict(documents, gold=True)
    pred = side_to_dict(documents, gold=False)
    if not offsets:
        _strip_offsets(gold)
        _strip_offsets(pred)
    paths = tmp_path / "gold.json", tmp_path / "pred.json", tmp_path / "schema.json"
    for path, payload in zip(paths, (gold, pred, schema_to_dict(schema))):
        path.write_text(json.dumps(payload), encoding="utf-8")
    return paths


@pytest.mark.parametrize("corpus, command", sorted(PINNED))
def test_report_sha256_is_pinned(tmp_path, corpus, command):
    assert _report(tmp_path, corpus, command) == PINNED[corpus, command]


def _report(tmp_path, corpus: str, command: str, *flags: str) -> str:
    """The sha256 of the report of ``command`` on ``corpus``; the report stays at ``tmp_path / "report"``."""
    gold, pred, schema = _write_corpus(tmp_path, offsets=corpus == "offsets")
    out = tmp_path / "report"
    argv = [command, "--gold", str(gold), "--pred", str(pred), "--schema", str(schema), "--out", str(out), *flags]
    assert main(argv) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("corpus, command, on_guard", sorted(PINNED_GUARDED))
def test_guarded_report_sha256_is_pinned(tmp_path, corpus, command, on_guard):
    digest = _report(tmp_path, corpus, command, "--max-matchings", "7", "--on-guard", on_guard)
    report = json.loads((tmp_path / "report").read_text(encoding="utf-8"))
    guarded = report["approximate_documents" if on_guard == "greedy" else "skipped_documents"]
    assert guarded, "no document reached the guard"
    assert digest == PINNED_GUARDED[corpus, command, on_guard]


@pytest.mark.parametrize("corpus, fmt", sorted(PINNED_FORMATS))
def test_formatted_report_sha256_is_pinned(tmp_path, corpus, fmt):
    assert _report(tmp_path, corpus, "analyze", "--format", fmt) == PINNED_FORMATS[corpus, fmt]


@pytest.fixture(scope="module")
def compared_reports(tmp_path_factory) -> dict[str, Path]:
    """Report name -> path, for the names of ``PINNED_COMPARE``."""
    directory = tmp_path_factory.mktemp("compare")
    bench = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", bench)
    # Registered before it runs: its dataclasses look their module up by name.
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write_inputs(workloads.WORKLOADS["wide_templates"], 0, directory)
    gold, pred, schema = (str(directory / f"{name}.json") for name in ("gold", "pred", "schema"))
    (directory / "spec.json").write_text(json.dumps(INJECTION_SPEC), encoding="utf-8")
    injected = str(directory / "injected.json")
    assert main(["inject", "--gold", gold, "--schema", schema, "--spec", str(directory / "spec.json"),
                 "--out", injected, "--ledger", str(directory / "injected-ledger.json")]) == EXIT_OK
    reports = {}
    for name, command, predictions in (("analyze", "analyze", pred), ("injected", "analyze", injected),
                                       ("score", "score", pred)):
        reports[name] = directory / f"{name}-report.json"
        argv = [command, "--gold", gold, "--pred", predictions, "--schema", schema, "--label", name]
        assert main([*argv, "--out", str(reports[name])]) == EXIT_OK
    return reports


@pytest.mark.parametrize("names, fmt", sorted(PINNED_COMPARE), ids=lambda value: "-".join(value) if isinstance(value, tuple) else value)
def test_comparison_sha256_is_pinned(tmp_path, compared_reports, names, fmt):
    out = tmp_path / "comparison"
    argv = ["compare", *(str(compared_reports[name]) for name in names), "--format", fmt, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_COMPARE[names, fmt]


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("demo", sorted(PINNED_DEMOS))
def test_demo_output_sha256_is_pinned(tmp_path, demo):
    child = subprocess.run(
        [sys.executable, "-S", str(DEMOS / demo)],
        capture_output=True,
        env=child_env(),
        cwd=tmp_path,
        timeout=120,
    )
    assert child.returncode == 0 and child.stderr == b"", child.stderr.decode(errors="replace")
    assert hashlib.sha256(child.stdout).hexdigest() == PINNED_DEMOS[demo]
