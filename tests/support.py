"""Shared builders and the randomized prediction fuzzer used across tests."""

from __future__ import annotations

import concurrent.futures
import json
import os
import random

from hypothesis import strategies as st

import tfea
from tfea import pipeline
from tfea.corpus import side_to_dict
from tfea.inject import _decoy_phrases, default_schema  # noqa: F401
from tfea.model import Document, GoldEntity, Mention, RoleKind, Schema, Span, Template


def child_env(*paths: str, **variables: str) -> dict[str, str]:
    """A bare environment for a child interpreter that imports the same ``tfea`` as this process.

    ``PYTHONPATH`` is the directory ``tfea`` was imported from (``src/`` or
    an install), then ``paths``. ``PYTHONDONTWRITEBYTECODE`` is passed on
    when it is set here, so a run that writes no bytecode starts no child
    that writes some.
    """
    package_root = os.path.dirname(os.path.dirname(tfea.__file__))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join([package_root, *paths]), **variables}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def usable_cpus(monkeypatch, count: int | None) -> None:
    """Make this process see ``count`` usable CPUs; None drops the affinity mask and leaves no CPU count."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def recording_pool(monkeypatch) -> list[int]:
    """The ``max_workers`` of every process pool started from now on."""
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


def pool_for_any_corpus(monkeypatch, cpus: int = 64) -> list[int]:
    """Let ``--parallel`` start a pool on a tiny corpus: ``cpus`` usable CPUs, one mention per process.

    Returns the ``max_workers`` of every pool started from now on.
    """
    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(pipeline, "MENTIONS_PER_PROCESS", 1)
    return recording_pool(monkeypatch)


def only_builtins(value) -> bool:
    """Whether ``value`` is made of str, int, float, bool, None, list, dict and tuple alone: no record, no enum."""
    if type(value) in (list, tuple):
        return all(only_builtins(item) for item in value)
    if type(value) is dict:
        return all(only_builtins(key) and only_builtins(item) for key, item in value.items())
    return type(value) in (str, int, float, bool, type(None))


def dump_side(documents, path, gold: bool) -> None:
    """Write one side of a corpus as the JSON file that ``corpus.load_side`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(side_to_dict(documents, gold), handle, ensure_ascii=False, indent=2, sort_keys=True)


def mention(text: str, start: int | None = None, end: int | None = None) -> Mention:
    if start is None:
        return Mention(text)
    return Mention(text, Span(start, end if end is not None else start + len(text)))


def entity(*mentions: Mention) -> GoldEntity:
    return GoldEntity(tuple(mentions))


def canonical_predictions(doc: Document, schema: Schema) -> tuple[Template, ...]:
    """Gold reduced to one canonical mention per entity."""
    templates = []
    for template in doc.gold_templates:
        fillers: dict = {}
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                value = template.set_fill(role.name)
                if value is not None:
                    fillers[role.name] = value
            else:
                ents = template.entities(role.name)
                if ents:
                    fillers[role.name] = tuple(
                        Mention(e.canonical.text, e.canonical.span) for e in ents
                    )
        templates.append(Template(fillers))
    return tuple(templates)


def _perturb_span(doc: Document, m: Mention, rng: random.Random) -> Mention:
    span = m.span
    if span is None:
        return m
    text = doc.text
    if rng.random() < 0.5 and span.end < len(text) and text[span.end] == " ":
        end = span.end + 1
        while end < len(text) and text[end] != " ":
            end += 1
        return Mention(text[span.start : end], Span(span.start, end))
    head = m.text.split(" ")[0]
    if len(head) < span.length:
        return Mention(head, Span(span.start, span.start + len(head)))
    return m


def mutate_predictions(doc: Document, schema: Schema, seed: int) -> Document:
    """Randomly corrupted predictions covering every error category.

    Starts from a canonical copy of the gold side, then drops, moves,
    duplicates, perturbs, and fabricates fillers and templates.
    """
    rng = random.Random(f"fuzz:{seed}:{doc.doc_id}")
    string_roles = [r.name for r in schema.string_fill_roles]
    decoys = list(_decoy_phrases(doc))
    rng.shuffle(decoys)

    templates: list[dict] = []
    for template in doc.gold_templates:
        if rng.random() < 0.15:
            continue  # missing template
        fillers: dict = {}
        for role in schema:
            if role.kind is RoleKind.SET_FILL:
                value = template.set_fill(role.name)
                if value is None:
                    continue
                roll = rng.random()
                if roll < 0.1:
                    continue  # dropped value
                if roll < 0.2:
                    fillers[role.name] = rng.choice(schema.role(role.name).values)
                else:
                    fillers[role.name] = value
                continue
            kept = []
            for ent in template.entities(role.name):
                m = Mention(ent.canonical.text, ent.canonical.span)
                roll = rng.random()
                if roll < 0.12:
                    continue  # missing filler
                if roll < 0.27:
                    m = _perturb_span(doc, m, rng)
                kept.append(m)
                if rng.random() < 0.12 and len(ent.mentions) > 1:
                    extra = ent.mentions[1]
                    kept.append(Mention(extra.text, extra.span))
                elif rng.random() < 0.06:
                    kept.append(Mention(m.text, m.span))  # verbatim duplicate
            fillers[role.name] = kept
        # move a filler into the wrong role
        if len(string_roles) > 1 and rng.random() < 0.2:
            source, target = rng.sample(string_roles, 2)
            if fillers.get(source):
                fillers.setdefault(target, []).append(fillers[source].pop(rng.randrange(len(fillers[source]))))
        # fabricate a filler: located decoy, or an unlocatable string
        if rng.random() < 0.2:
            target = rng.choice(string_roles)
            if decoys and rng.random() < 0.7:
                fillers.setdefault(target, []).append(decoys.pop())
            else:
                fillers.setdefault(target, []).append(Mention(f"phantom item {rng.randrange(100)}"))
        templates.append(fillers)

    # cross-template copy: a filler that belongs in another template
    if len(doc.gold_templates) > 1 and templates and rng.random() < 0.3:
        source_template = rng.choice(doc.gold_templates)
        role = rng.choice(string_roles)
        ents = source_template.entities(role)
        if ents:
            picked = rng.choice(ents).canonical
            host = rng.choice(templates)
            host_role = rng.choice(string_roles)
            host.setdefault(host_role, []).append(Mention(picked.text, picked.span))

    # spurious template built from decoys
    if rng.random() < 0.15:
        fillers = {}
        if decoys:
            fillers[rng.choice(string_roles)] = [decoys.pop()]
        if rng.random() < 0.5:
            role = rng.choice(schema.set_fill_roles).name if schema.set_fill_roles else None
            if role:
                fillers[role] = rng.choice(schema.role(role).values)
        if fillers:
            templates.append(fillers)

    rng.shuffle(templates)
    built = []
    for fillers in templates:
        cleaned = {}
        for role, value in fillers.items():
            if isinstance(value, str):
                cleaned[role] = value
            elif value:
                order = list(value)
                rng.shuffle(order)
                cleaned[role] = tuple(order)
        built.append(Template(cleaned))
    return Document(doc.doc_id, doc.text, doc.gold_templates, tuple(built))


def _vary_for_settings(doc: Document, seed: int) -> Document:
    """``doc`` with predictions that read differently under each analysis setting.

    About one located predicted mention in five is upper-cased, an exact
    match only when case is folded, and about one in five gets new
    offsets: each end moves by up to its length, the end rightward up to
    twice that, and the text becomes the new slice. Such a span can
    overlap two mentions of one gold entity, and the SCS modes can rank
    either of them nearer.
    """
    rng = random.Random(f"settings:{seed}:{doc.doc_id}")
    text = doc.text

    def vary(m: Mention) -> Mention:
        roll = rng.random()
        if m.span is None or roll >= 0.4:
            return m
        if roll < 0.2:
            return Mention(m.text.upper(), m.span)
        length = m.span.length
        start = max(0, m.span.start + rng.randint(-length, length))
        end = min(len(text), m.span.end + rng.randint(-length, 2 * length))
        return Mention(text[start:end], Span(start, end)) if start < end else m

    templates = tuple(
        Template({role: value if isinstance(value, str) else tuple(map(vary, value)) for role, value in t.role_fillers.items()})
        for t in doc.predicted_templates
    )
    return Document(doc.doc_id, text, doc.gold_templates, templates)


def fuzzed_corpus(seed: int, n_docs: int = 2, max_templates: int = 3, vary_settings: bool = False):
    """A (documents, schema) pair with randomized predictions.

    With ``vary_settings``, some predicted mentions are also re-cased or
    shifted (``_vary_for_settings``), so that analyses under different
    ``case_sensitive`` and ``ScsMode`` settings differ. It draws from its
    own random stream: the corpus without it is unchanged.
    """
    from tfea.inject import GenerationParams, generate_corpus

    schema = default_schema()
    rng = random.Random(f"shape:{seed}")
    params = GenerationParams(
        n_docs=n_docs,
        templates_per_doc=(rng.randint(0, 1), rng.randint(1, max_templates)),
        entities_per_role=(0, 2),
        mentions_per_entity=(1, 2),
    )
    gold = generate_corpus(params, seed=seed)
    documents = [mutate_predictions(doc, schema, seed) for doc in gold]
    if vary_settings:
        documents = [_vary_for_settings(doc, seed) for doc in documents]
    return documents, schema


def replace_subtree(payload, choices: list[int], value):
    """``payload`` with one subtree replaced by ``value``.

    Walks down from the root, taking child ``choice % len(children)`` of
    each object or list for as long as ``choices`` last; the node reached
    (the root itself when ``choices`` is empty) is replaced. An empty
    object or list, or a scalar, ends the walk early.
    """
    if not choices or not isinstance(payload, (dict, list)) or not payload:
        return value
    keys = list(payload) if isinstance(payload, dict) else list(range(len(payload)))
    key = keys[choices[0] % len(keys)]
    payload[key] = replace_subtree(payload[key], choices[1:], value)
    return payload


def subtree_paths():
    """A Hypothesis strategy for ``replace_subtree`` choices, of every depth down to a mention's offsets."""
    return st.integers(0, 8).flatmap(lambda depth: st.lists(st.integers(0, 50), min_size=depth, max_size=depth))


def json_values():
    """A Hypothesis strategy for JSON values, keyed by names the corpus format uses."""
    keys = st.sampled_from(["doctext", "templates", "text", "start", "end", "status", "agent", "target"])
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-3, 200)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=8)
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(keys | st.text(max_size=4), children, max_size=3),
        max_leaves=8,
    )
