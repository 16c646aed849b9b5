"""Pinned report bytes: the sha256 of ``analyze`` and ``score`` JSON reports.

Two small seeded corpora go through the CLI in-process: one whose
mentions declare their offsets, and one with text-only mentions that
span resolution has to locate. A change to loading, resolution,
matching, derivation or rendering that alters a single report byte
fails here; the digests are the same under every supported Python.

The same corpora are also pinned with a matching cap of 7, so every
document above 2 x 2 templates goes to the greedy fallback or is
skipped, and as text and CSV reports.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from support import fuzzed_corpus
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
