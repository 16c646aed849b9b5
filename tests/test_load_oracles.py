"""``load_side`` against the plain reference loader in ``oracles.py``.

Both loaders read the same damaged corpus files and must return equal
sides, raise the same error with the same message, and log the same
WARNING lines in the same order.
"""

from __future__ import annotations

import json
import logging
import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import load_side_reference
from support import fuzzed_corpus, json_values, replace_subtree, subtree_paths
from tfea.corpus import load_side, side_to_dict
from tfea.exceptions import TfeaError
from tfea.model import RoleSpec, Schema

MENTION_DAMAGE = (
    "lone start",
    "lone end",
    "float offset",
    "bool offsets",
    "negative offset",
    "past the end",
    "case variant",
    "whitespace variant",
    "text only",
    "wrong place",
)
OTHER_DAMAGE = ("out of inventory", "inventory variant", "shared mention", "single-fill overflow")


@contextmanager
def _warnings():
    """The tfea WARNING records logged inside the block, as (level, message)."""
    records: list[tuple[str, str]] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: records.append((record.levelname, record.getMessage()))
    logger = logging.getLogger("tfea")
    level = logger.level
    logger.setLevel(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _outcome(loader, path, schema: Schema, gold: bool, casefold: bool):
    with _warnings() as records:
        try:
            result = loader(str(path), schema, gold, casefold)
        except TfeaError as exc:
            result = (type(exc), str(exc))
    return result, records


def _single_fill_instrument(schema: Schema) -> Schema:
    return Schema(
        tuple(
            RoleSpec(role.name, role.kind, role.values, multi=False) if role.name == "instrument" else role
            for role in schema
        )
    )


def _damage_mention(mention: dict, doc_text: str, rng: random.Random, kinds: Counter) -> None:
    if rng.random() < 0.5:
        return
    kind = rng.choice(MENTION_DAMAGE)
    kinds[kind] += 1
    if kind == "lone start":
        mention.pop("end", None)
        mention.setdefault("start", 0)
    elif kind == "lone end":
        mention.pop("start", None)
        mention.setdefault("end", len(mention["text"]))
    elif kind == "float offset":
        mention["start"] = float(mention.get("start", 0))
        mention.setdefault("end", len(mention["text"]))
    elif kind == "bool offsets":
        mention["start"], mention["end"] = False, True
    elif kind == "negative offset":
        mention["start"], mention["end"] = -1, len(mention["text"])
    elif kind == "past the end":
        mention["start"], mention["end"] = len(doc_text) - 1, len(doc_text) + 4
    elif kind == "case variant":
        mention["text"] = mention["text"].upper()
    elif kind == "whitespace variant":
        mention["text"] = " " + mention["text"].replace(" ", " \t ") + "\n"
    elif kind == "text only":
        mention.pop("start", None)
        mention.pop("end", None)
    else:
        mention["start"], mention["end"] = 0, len(mention["text"])


def _damaged_sides(seed: int, kinds: Counter):
    """Gold and predicted payloads of a fuzzed corpus, with every kind of damage."""
    documents, schema = fuzzed_corpus(seed, n_docs=3, max_templates=3)
    rng = random.Random(f"damage:{seed}")
    sides = {gold: side_to_dict(documents, gold=gold) for gold in (True, False)}
    for gold, side in sides.items():
        for entry in side.values():
            for template in entry["templates"]:
                for role, value in template.items():
                    if isinstance(value, str):
                        roll = rng.random()
                        if roll < 0.2:
                            template[role] = "unheard of"
                            kinds["out of inventory"] += 1
                        elif roll < 0.4:
                            template[role] = f"  {value.upper()}\t"
                            kinds["inventory variant"] += 1
                        continue
                    if gold and len(value) > 1 and rng.random() < 0.4:
                        value[1].append(dict(value[0][0]))
                        kinds["shared mention"] += 1
                    for mention in [m for ent in value for m in ent] if gold else value:
                        _damage_mention(mention, entry["doctext"], rng, kinds)
                    if role == "instrument" and len(value) > 1:
                        kinds["single-fill overflow"] += 1
    return sides, _single_fill_instrument(schema)


@pytest.mark.parametrize("casefold", [True, False])
def test_damaged_corpora_load_as_the_reference_loads_them(tmp_path, casefold):
    kinds: Counter = Counter()
    warned = 0
    for seed in range(60):
        sides, schema = _damaged_sides(seed, kinds)
        for gold, payload in sides.items():
            path = tmp_path / "side.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            expected, expected_warnings = _outcome(load_side_reference, path, schema, gold, casefold)
            actual, actual_warnings = _outcome(load_side, path, schema, gold, casefold)
            assert actual == expected, (seed, gold)
            assert actual_warnings == expected_warnings, (seed, gold)
            warned += len(actual_warnings)
    assert min(kinds[kind] for kind in MENTION_DAMAGE + OTHER_DAMAGE) >= 5, kinds
    assert warned > 200


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 30),
    gold=st.booleans(),
    casefold=st.booleans(),
    choices=subtree_paths(),
    value=json_values(),
)
def test_any_damaged_subtree_loads_as_the_reference_loads_it(tmp_path_factory, seed, gold, casefold, choices, value):
    documents, schema = fuzzed_corpus(seed, n_docs=2, max_templates=2)
    payload = replace_subtree(side_to_dict(documents, gold=gold), choices, value)
    path = tmp_path_factory.getbasetemp() / "subtree.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert _outcome(load_side, path, schema, gold, casefold) == _outcome(
        load_side_reference, path, schema, gold, casefold
    )
