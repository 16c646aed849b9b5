"""Seeded benchmark corpora built with ``generate_corpus`` and ``inject_errors``.

Each workload fixes the shape of its corpus (documents, templates per
document, entities per role, mentions per entity and the injected error
plan of every document) independently of the seed. The seed only picks
the words, their order and which entities the injector perturbs, so
runs with different seeds do the same amount of work and a timing spread
across seeds measures the machine, not the corpus.

The analyzer under test only ever sees the three JSON files written by
``write_inputs``; the injection ledger is kept for the output checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from tfea.corpus import side_to_dict, schema_to_dict
from tfea.errors import ErrorProfile, ErrorType as E
from tfea.inject import GenerationParams, InjectionSpec, default_schema, generate_corpus, inject_errors
from tfea.reports import errors_section

# Per-document error plans, applied round-robin by document index. Every
# plan mixes three types that never confound each other (see the mixed
# injection round trip in the acceptance suite).
SINGLE_TEMPLATE_PLANS = (
    (E.SPAN_ERROR, E.DUPLICATE_ROLE_FILLER, E.SPURIOUS_ROLE_FILLER),
    (E.INCORRECT_ROLE, E.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER, E.MISSING_ROLE_FILLER),
    (E.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER, E.SPURIOUS_TEMPLATE, E.SPAN_ERROR),
    (E.MISSING_TEMPLATE, E.SPURIOUS_TEMPLATE),
)
# Wrong-template types need a second gold template to move a filler to.
MULTI_TEMPLATE_PLANS = (
    (E.WRONG_TEMPLATE_FOR_ROLE_FILLER, E.SPAN_ERROR, E.SPURIOUS_ROLE_FILLER),
    (E.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER, E.DUPLICATE_ROLE_FILLER, E.MISSING_ROLE_FILLER),
    (E.WRONG_TEMPLATE_WRONG_ROLE, E.INCORRECT_ROLE, E.SPURIOUS_TEMPLATE),
    (E.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER, E.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER, E.SPURIOUS_ROLE_FILLER),
    (E.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER, E.MISSING_TEMPLATE, E.SPURIOUS_TEMPLATE),
)
# Filler-level errors only, so every document keeps P == G templates and
# the template search size is fixed.
FILLER_PLANS = (
    (E.WRONG_TEMPLATE_FOR_ROLE_FILLER, E.SPAN_ERROR, E.SPURIOUS_ROLE_FILLER),
    (E.WRONG_TEMPLATE_WRONG_ROLE, E.DUPLICATE_ROLE_FILLER, E.MISSING_ROLE_FILLER),
    (E.WRONG_TEMPLATE_FOR_PARTIALLY_MATCHED_ROLE_FILLER, E.INCORRECT_ROLE, E.DUPLICATE_PARTIALLY_MATCHED_ROLE_FILLER),
    (E.WRONG_TEMPLATE_WRONG_ROLE_PARTIALLY_MATCHED_FILLER, E.INCORRECT_ROLE_PARTIALLY_MATCHED_FILLER, E.SPAN_ERROR),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (templates per document, number of such documents), in doc-id order
    groups: tuple[tuple[int, int], ...]
    entities_per_role: int
    mentions_per_entity: int
    plans: tuple[tuple[E, ...], ...]
    single_template_plans: tuple[tuple[E, ...], ...] = ()
    text_only_predictions: bool = False
    on_guard: str = "skip"

    @property
    def n_docs(self) -> int:
        return sum(count for _, count in self.groups)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_docs",
            why="400 MUC-like docs of 1-4 templates, text-only predictions: time spread over "
            "load, span resolution, pair scoring, transforms and report rendering",
            groups=((1, 100), (2, 100), (3, 100), (4, 100)),
            entities_per_role=2,
            mentions_per_entity=2,
            plans=MULTI_TEMPLATE_PLANS,
            single_template_plans=SINGLE_TEMPLATE_PLANS,
            text_only_predictions=True,
        ),
        Workload(
            name="wide_templates",
            why="8 docs of 6-7 templates with offsets: the factorial template search is over "
            "90% of the time and every other layer is near zero",
            groups=((6, 4), (7, 4)),
            entities_per_role=1,
            mentions_per_entity=2,
            plans=FILLER_PLANS,
        ),
        Workload(
            name="guard_overflow",
            why="30 docs of 12-20 templates, all over the 10^6 matching cap, run with "
            "--on-guard greedy: exact_doc_share is 0 and greedy pair scoring dominates",
            groups=tuple((k, 4 if k < 15 else 3) for k in range(12, 21)),
            entities_per_role=2,
            mentions_per_entity=2,
            plans=MULTI_TEMPLATE_PLANS,
            on_guard="greedy",
        ),
    )
}


def _derived_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_corpus(workload: Workload, seed: int):
    """Gold+predicted documents and the per-document injection ledger."""
    schema = default_schema()
    documents = []
    per_doc = {}
    for n_templates, count in workload.groups:
        params = GenerationParams(
            n_docs=count,
            templates_per_doc=(n_templates, n_templates),
            entities_per_role=(workload.entities_per_role,) * 2,
            mentions_per_entity=(workload.mentions_per_entity,) * 2,
            doc_id_prefix=f"t{n_templates:02d}-",
        )
        gold = generate_corpus(params, seed=_derived_seed(workload.name, seed, n_templates))
        plans = workload.single_template_plans if n_templates == 1 else workload.plans
        for plan_index, plan in enumerate(plans):
            bucket = gold[plan_index :: len(plans)]
            spec = InjectionSpec(counts={etype: 1 for etype in plan})
            result = inject_errors(bucket, schema, spec, seed=_derived_seed(workload.name, seed, "inject"))
            documents.extend(result.documents)
            per_doc.update(result.per_doc)
    documents.sort(key=lambda d: d.doc_id)
    return schema, documents, per_doc


def _dumps(payload) -> bytes:
    return (json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode()


def input_files(workload: Workload, seed: int) -> dict[str, bytes]:
    """File name -> bytes for gold, pred and schema, plus the ledger the checks read."""
    schema, documents, per_doc = build_corpus(workload, seed)
    pred = side_to_dict(documents, gold=False)
    if workload.text_only_predictions:
        # Generative extractors emit strings without offsets.
        for entry in pred.values():
            for template in entry["templates"]:
                for value in template.values():
                    if isinstance(value, list):
                        for mention in value:
                            mention.pop("start", None)
                            mention.pop("end", None)
    ledger_total = sum(per_doc.values(), ErrorProfile.empty())
    return {
        "gold.json": _dumps(side_to_dict(documents, gold=True)),
        "pred.json": _dumps(pred),
        "schema.json": _dumps(schema_to_dict(schema)),
        "ledger.json": _dumps(errors_section(ledger_total, schema, per_doc)),
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, str]:
    """Write the generated files and return file name -> sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, data in input_files(workload, seed).items():
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
