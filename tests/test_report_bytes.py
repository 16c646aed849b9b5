"""Pinned report bytes: the sha256 of ``analyze`` and ``score`` JSON reports.

Two small seeded corpora go through the CLI in-process: one whose
mentions declare their offsets, and one with text-only mentions that
span resolution has to locate. A change to loading, resolution,
matching, derivation or rendering that alters a single report byte
fails here; the digests are the same under every supported Python.
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
    gold, pred, schema = _write_corpus(tmp_path, offsets=corpus == "offsets")
    out = tmp_path / "report.json"
    argv = [command, "--gold", str(gold), "--pred", str(pred), "--schema", str(schema), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[corpus, command]
