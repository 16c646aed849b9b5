"""CLI: subcommands, exit codes, output formats, config precedence."""

import io
import json
import os
import re
from contextlib import redirect_stderr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import child_env, dump_side, json_values, pool_for_any_corpus, replace_subtree, subtree_paths
from tfea.cli import ECHO_LIMIT, EXIT_ERROR, EXIT_GUARD, EXIT_OK, main
from tfea.corpus import schema_to_dict, side_to_dict
from tfea.errors import ErrorType
from tfea.inject import GenerationParams, InjectionSpec, default_schema, generate_corpus, inject_errors
from tfea.matching import count_template_matchings


@pytest.fixture
def corpus_files(tmp_path):
    schema = default_schema()
    gold_docs = generate_corpus(
        GenerationParams(n_docs=3, templates_per_doc=(1, 2), mentions_per_entity=(2, 2)), seed=31
    )
    result = inject_errors(gold_docs, schema, InjectionSpec(counts={}), seed=0)
    gold = tmp_path / "gold.json"
    pred = tmp_path / "pred.json"
    schema_path = tmp_path / "schema.json"
    dump_side(result.documents, str(gold), gold=True)
    dump_side(result.documents, str(pred), gold=False)
    schema_path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    return gold, pred, schema_path


def _analyze_args(gold, pred, schema, out, *extra):
    return [
        "analyze",
        "--gold", str(gold),
        "--pred", str(pred),
        "--schema", str(schema),
        "--out", str(out),
        *extra,
    ]


def _empty_template_files(tmp_path, n):
    """Gold, pred and schema files of one document with ``n`` empty templates a side."""
    side = {"wide": {"doctext": "no mentions here", "templates": [{}] * n}}
    paths = [tmp_path / name for name in ("gold.json", "pred.json", "schema.json")]
    for path, data in zip(paths, (side, side, schema_to_dict(default_schema()))):
        path.write_text(json.dumps(data), encoding="utf-8")
    return paths


# 1,800 templates a side give a matching count of more than 4,300 digits,
# too long for Python to format into the guard message.
TOO_LONG_GUARD_MESSAGE = (
    "document 'wide': template matchings (more than 4300 digits) exceeds the configured cap (1000000)"
)


class TestAnalyze:
    def test_self_analysis_report(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred, schema, out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["scores"]["overall"]["f1"] == 1.0
        assert all(v == 0 for v in report["errors"]["per_type"].values())
        assert report["config"]["scs_mode"] == "geometric"
        assert report["label"] == "pred"
        assert len(report["errors"]["per_type"]) == 13
        for role_counts in report["errors"]["per_role"].values():
            assert len(role_counts) == 13

    @pytest.mark.parametrize("gold_text,pred_text", [("Straße", "Straß"), ("Strasse", "Strass")])
    def test_prediction_cut_from_a_folding_letter_is_a_span_error(self, tmp_path, gold_text, pred_text):
        """``ß`` case-folds to ``ss``; the prediction is still located in the text, as its ASCII twin is."""
        doctext = f"sie wohnt in der {gold_text} am Markt"
        sides = {
            "gold.json": {"d1": {"doctext": doctext, "templates": [{"agent": [[{"text": gold_text}]]}]}},
            "pred.json": {"d1": {"doctext": doctext, "templates": [{"agent": [{"text": pred_text}]}]}},
            "schema.json": {"roles": [{"name": "agent", "kind": "string_fill", "multi": True}]},
        }
        for name, payload in sides.items():
            (tmp_path / name).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(_analyze_args(*(tmp_path / name for name in sides), out)) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert {kind: n for kind, n in report["errors"]["per_type"].items() if n} == {"span_error": 1}
        (transformation,) = report["transformations"]["d1"]
        assert (transformation["kind"], transformation["pred_span"]) == ("alter_span", [17, 17 + len(pred_text)])

    def test_report_json_round_trips_byte_identically(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        out = tmp_path / "report.json"
        main(_analyze_args(gold, pred, schema, out))
        raw = out.read_text(encoding="utf-8")
        assert json.dumps(json.loads(raw), ensure_ascii=False, sort_keys=True, indent=2) + "\n" == raw

    def test_missing_file_exit_code(self, tmp_path, corpus_files):
        gold, _, schema = corpus_files
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, tmp_path / "nope.json", schema, out)) == EXIT_ERROR

    def test_schema_mismatch_exit_code(self, tmp_path, corpus_files):
        gold, pred, _ = corpus_files
        bad_schema = tmp_path / "tiny_schema.json"
        bad_schema.write_text(json.dumps({"roles": [{"name": "other", "kind": "string_fill"}]}))
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred, bad_schema, out)) == EXIT_ERROR

    def test_guard_fail_exit_code(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        out = tmp_path / "report.json"
        code = main(
            _analyze_args(gold, pred, schema, out, "--max-matchings", "1", "--on-guard", "fail")
        )
        assert code == EXIT_GUARD

    def test_guard_skip_lists_documents(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        out = tmp_path / "report.json"
        code = main(
            _analyze_args(gold, pred, schema, out, "--max-matchings", "1", "--on-guard", "skip")
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["skipped_documents"]) > 0

    def test_guard_skip_count_too_long_to_print(self, tmp_path, capsys):
        gold, pred, schema = _empty_template_files(tmp_path, 1800)
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred, schema, out, "--on-guard", "skip")) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["skipped_documents"] == [{"doc_id": "wide", "reason": TOO_LONG_GUARD_MESSAGE}]
        assert "Traceback" not in capsys.readouterr().err

    def test_guard_fail_count_too_long_to_print(self, tmp_path, capsys):
        gold, pred, schema = _empty_template_files(tmp_path, 1800)
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred, schema, out, "--on-guard", "fail")) == EXIT_GUARD
        err = capsys.readouterr().err
        assert f"error: {TOO_LONG_GUARD_MESSAGE}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_guard_greedy_flags_approximate(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        out = tmp_path / "report.json"
        code = main(
            _analyze_args(gold, pred, schema, out, "--max-matchings", "1", "--on-guard", "greedy")
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["approximate_documents"]) > 0
        assert report["scores"]["overall"]["f1"] == 1.0

    @pytest.mark.parametrize("fmt,probe", [("csv", "role,num"), ("text", "error type")])
    def test_other_formats(self, tmp_path, corpus_files, fmt, probe):
        gold, pred, schema = corpus_files
        out = tmp_path / f"report.{fmt}"
        assert main(_analyze_args(gold, pred, schema, out, "--format", fmt)) == EXIT_OK
        assert probe in out.read_text()

    def test_config_file_and_flag_precedence(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scs_mode": "absolute", "label": "from-config"}))
        out = tmp_path / "report.json"
        main(_analyze_args(gold, pred, schema, out, "--config", str(cfg)))
        report = json.loads(out.read_text())
        assert report["config"]["scs_mode"] == "absolute"
        assert report["label"] == "from-config"
        # explicit flag wins over the config file
        main(_analyze_args(gold, pred, schema, out, "--config", str(cfg), "--scs-mode", "geometric"))
        report = json.loads(out.read_text())
        assert report["config"]["scs_mode"] == "geometric"

    @pytest.mark.parametrize(
        "cfg,flags",
        [
            ({"max_matchings": "lots"}, ()),
            ({"max_mention_matchings": 2.5}, ()),
            ({"parallel": "4"}, ()),
            ({"max_matchings": -1}, ()),
            ({"max_mention_matchings": -1}, ()),
            ({"parallel": 0}, ()),
            ({"scs_mode": "fuzzy"}, ()),
            ({"on_guard": "retry"}, ()),
            ({"format": "xml"}, ()),
            ({"case_sensitive": "false"}, ()),
            ({}, ("--parallel", "-1")),
            ({}, ("--max-matchings", "-1")),
            ({"max_mention_matchings": 10}, ()),
            ({"max_matching": 5}, ()),
            ({"label": [1]}, ()),
        ],
        ids=[
            "max_matchings-string",
            "max_mention_matchings-float",
            "parallel-string",
            "max_matchings-negative",
            "max_mention_matchings-negative",
            "parallel-zero",
            "scs_mode-unknown",
            "on_guard-unknown",
            "format-unknown",
            "case_sensitive-string",
            "flag-parallel-negative",
            "flag-max-matchings-negative",
            "max_mention_matchings-retired",
            "max_matching-unknown",
            "label-list",
        ],
    )
    def test_bad_setting_is_parse_error(self, tmp_path, corpus_files, capsys, cfg, flags):
        gold, pred, schema = corpus_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        code = main(_analyze_args(gold, pred, schema, out, "--config", str(config), *flags))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["max_mention_matchings", "max_matching"])
    def test_unknown_setting_names_the_key(self, tmp_path, corpus_files, capsys, key):
        gold, pred, schema = corpus_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"label": "x", key: 5}))
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred, schema, out, "--config", str(config))) == EXIT_ERROR
        assert f"({key}): unknown setting" in capsys.readouterr().err

    def test_repeated_setting_is_parse_error(self, tmp_path, corpus_files, capsys):
        """json.load alone would run with the last value, here geometric."""
        gold, pred, schema = corpus_files
        config = tmp_path / "cfg.json"
        config.write_text('{"scs_mode": "absolute", "scs_mode": "geometric"}')
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred, schema, out, "--config", str(config))) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {config}: key 'scs_mode' appears more than once\n"
        assert not out.exists()

    def test_malformed_corpus_is_parse_error(self, tmp_path, corpus_files, capsys):
        gold, pred, schema = corpus_files
        raw = json.loads(gold.read_text(encoding="utf-8"))
        doc_id = sorted(raw)[0]
        cases = {f"templates={bad!r}": ("templates", bad) for bad in (5, "abc", None, [5])}
        cases["doctext=5"] = ("doctext", 5)
        for name, (field, bad) in cases.items():
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps({**raw, doc_id: {**raw[doc_id], field: bad}}), encoding="utf-8")
            out = tmp_path / "report.json"
            code = main(_analyze_args(broken, pred, schema, out))
            err = capsys.readouterr().err
            assert code == EXIT_ERROR, name
            assert err.startswith("error: ") and f"doc '{doc_id}'" in err, (name, err)
            assert "Traceback" not in err, name
            assert not out.exists(), name
        # A doc id given twice in one file; json.load alone keeps the last.
        entries = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in raw.items()]
        entries.append(f"{json.dumps(doc_id)}: {json.dumps(raw[doc_id])}")
        twice = tmp_path / "twice.json"
        twice.write_text("{" + ", ".join(entries) + "}", encoding="utf-8")
        code = main(_analyze_args(gold, twice, schema, tmp_path / "report.json"))
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and f"doc '{doc_id}'" in err and "more than once" in err
        assert "Traceback" not in err

    def test_unknown_document_key_is_parse_error(self, tmp_path, corpus_files, capsys):
        """A misspelled 'templates' would otherwise load as a document with no templates."""
        gold, pred, schema = corpus_files
        raw = json.loads(pred.read_text(encoding="utf-8"))
        doc_id = sorted(raw)[0]
        raw[doc_id]["template"] = raw[doc_id].pop("templates")
        broken = tmp_path / "misspelled.json"
        broken.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(_analyze_args(gold, broken, schema, out)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"doc '{doc_id}'" in err and "unknown key 'template'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_schema_is_parse_error(self, tmp_path, corpus_files, capsys):
        gold, pred, schema = corpus_files
        roles = json.loads(schema.read_text(encoding="utf-8"))["roles"]
        status, agent = roles[0], roles[1]
        cases = {
            "roles=5": {"roles": 5},
            "name=list": {"roles": [{**agent, "name": ["a"]}, *roles[1:]]},
            "name=5": {"roles": [{**agent, "name": 5}, *roles[1:]]},
            "values=str": {"roles": [{**status, "values": "xy"}, *roles[1:]]},
            "multi=str": {"roles": [roles[0], {**agent, "multi": "no"}, *roles[2:]]},
        }
        for name, raw in cases.items():
            broken = tmp_path / "broken_schema.json"
            broken.write_text(json.dumps(raw), encoding="utf-8")
            out = tmp_path / "report.json"
            code = main(_analyze_args(gold, pred, broken, out))
            err = capsys.readouterr().err
            assert code == EXIT_ERROR, name
            assert err.startswith("error: ") and str(broken) in err, (name, err)
            assert "Traceback" not in err, name
            assert not out.exists(), name
            if name != "roles=5":
                assert "role entry" in err, (name, err)

    @pytest.mark.parametrize("shape", ["template role", "mention text", "doctext", "schema role entry"])
    def test_repeated_key_is_parse_error(self, tmp_path, corpus_files, capsys, shape):
        """json.load alone keeps the last value of a key named twice, at any depth."""
        gold, pred, schema = corpus_files
        raw = json.loads(gold.read_text(encoding="utf-8"))
        doc_id, index, role, entities = next(
            (doc_id, index, role, value)
            for doc_id in sorted(raw)
            for index, template in enumerate(raw[doc_id]["templates"])
            for role, value in template.items()
            if isinstance(value, list) and value
        )
        template = raw[doc_id]["templates"][index]
        # A placeholder key, renamed in the JSON text to the key it repeats.
        twice = "__named_twice__"
        if shape == "template role":
            raw[doc_id]["templates"][index] = {**template, twice: [[{"text": "pier"}]]}
            key, where, broken = role, f"doc '{doc_id}' template {index}", gold
        elif shape == "mention text":
            entities[0][0] = {**entities[0][0], twice: "twin pier"}
            key, where, broken = "text", f"doc '{doc_id}' template {index} role '{role}'", gold
        elif shape == "doctext":
            raw = json.loads(pred.read_text(encoding="utf-8"))
            raw[doc_id] = {**raw[doc_id], twice: raw[doc_id]["doctext"] + " more"}
            key, where, broken = "doctext", f"doc '{doc_id}'", pred
        else:
            raw = json.loads(schema.read_text(encoding="utf-8"))
            raw["roles"][1] = {**raw["roles"][1], twice: "target"}
            key, where, broken = "name", "role entry 1", schema
        named_twice = tmp_path / f"twice_{broken.name}"
        named_twice.write_text(json.dumps(raw).replace(json.dumps(twice), json.dumps(key)), encoding="utf-8")
        paths = {"gold": gold, "pred": pred, "schema": schema, broken.stem: named_twice}
        out = tmp_path / "report.json"
        code = main(_analyze_args(paths["gold"], paths["pred"], paths["schema"], out))
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and f"({where})" in err and f"key '{key}' appears more than once" in err, err
        assert "Traceback" not in err and not out.exists()

    def test_parallel_smoke(self, tmp_path, corpus_files, monkeypatch):
        started = pool_for_any_corpus(monkeypatch)
        gold, pred, schema = corpus_files
        one = tmp_path / "one.json"
        four = tmp_path / "four.json"
        assert main(_analyze_args(gold, pred, schema, one, "--parallel", "1")) == EXIT_OK
        assert main(_analyze_args(gold, pred, schema, four, "--parallel", "4")) == EXIT_OK
        assert one.read_bytes() == four.read_bytes()
        assert started == [2]  # three documents


class TestScore:
    def test_score_skips_errors_section(self, tmp_path, corpus_files):
        gold, pred, schema = corpus_files
        out = tmp_path / "scores.json"
        args = _analyze_args(gold, pred, schema, out)
        args[0] = "score"
        assert main(args) == EXIT_OK
        report = json.loads(out.read_text())
        assert "errors" not in report
        assert "transformations" not in report
        assert report["scores"]["overall"]["f1"] == 1.0


class TestInject:
    def test_inject_then_analyze_matches_ledger(self, tmp_path, corpus_files):
        gold, _, schema = corpus_files
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"counts": {"span_error": 1, "missing_role_filler": 1}}))
        pred_out = tmp_path / "injected.json"
        ledger_out = tmp_path / "ledger.json"
        code = main(
            [
                "inject",
                "--gold", str(gold),
                "--schema", str(schema),
                "--spec", str(spec),
                "--seed", "17",
                "--out", str(pred_out),
                "--ledger", str(ledger_out),
            ]
        )
        assert code == EXIT_OK
        report_out = tmp_path / "report.json"
        assert main(_analyze_args(gold, pred_out, schema, report_out)) == EXIT_OK
        report = json.loads(report_out.read_text())
        ledger = json.loads(ledger_out.read_text())
        assert report["errors"]["per_type"] == ledger["per_type"]
        assert report["errors"]["side_tallies"] == ledger["side_tallies"]
        assert report["errors"]["per_doc"] == ledger["per_doc"]


    @pytest.mark.parametrize(
        "spec",
        [
            [{"span_error": 1}],
            {"counts": [["span_error", 1]]},
            {"counts": {"span_error": None}},
            {"counts": {"span_error": 1}, "seed": "seven"},
        ],
        ids=["list", "counts-list", "count-null", "seed-string"],
    )
    def test_wrong_kind_of_spec_is_parse_error(self, tmp_path, corpus_files, capsys, spec):
        gold, _, schema = corpus_files
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(
            [
                "inject",
                "--gold", str(gold),
                "--schema", str(schema),
                "--spec", str(spec_path),
                "--out", str(tmp_path / "injected.json"),
                "--ledger", str(tmp_path / "ledger.json"),
            ]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "text,entry",
        [
            ('{"counts": {"span_error": 1e400}}', "counts 'span_error'"),
            ('{"counts": {"span_error": -3}}', "counts 'span_error'"),
            ('{"counts": {"span_error": 1.9}}', "counts 'span_error'"),
            ('{"counts": {"span_error": 1.0}}', "counts 'span_error'"),
            ('{"counts": {"span_error": true}}', "counts 'span_error'"),
            ('{"counts": {"span_error": "2"}}', "counts 'span_error'"),
            ('{"counts": {"span_error": 1, "typo_error": 1}}', "counts 'typo_error'"),
        ],
        ids=["overflow", "negative", "fraction", "float", "bool", "string", "unknown-type"],
    )
    def test_count_must_be_a_natural_number(self, tmp_path, corpus_files, capsys, text, entry):
        gold, _, schema = corpus_files
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out = tmp_path / "injected.json"
        code = main(
            [
                "inject",
                "--gold", str(gold),
                "--schema", str(schema),
                "--spec", str(spec_path),
                "--out", str(out),
                "--ledger", str(tmp_path / "ledger.json"),
            ]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"({entry})" in err, err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"counts": {"span_error": 1, "span_error": 0}}', " (counts): key 'span_error' appears more than once"),
            ('{"counts": {"span_error": 1}, "seed": 3, "seed": 4}', ": key 'seed' appears more than once"),
            ('{"counts": {"span_error": 1}, "sed": 3}', ": unknown key 'sed'; known: counts, seed"),
            ('{"span_error": 1}', ": unknown key 'span_error'; known: counts, seed"),
        ],
        ids=["repeated-count", "repeated-seed", "misspelled-seed", "flat-counts"],
    )
    def test_repeated_or_unknown_spec_key_is_parse_error(self, tmp_path, corpus_files, capsys, text, message):
        """json.load alone would inject nothing for the first, and ignore the seed of the third."""
        gold, _, schema = corpus_files
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out = tmp_path / "injected.json"
        code = main(
            [
                "inject",
                "--gold", str(gold),
                "--schema", str(schema),
                "--spec", str(spec_path),
                "--out", str(out),
                "--ledger", str(tmp_path / "ledger.json"),
            ]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {spec_path}{message}\n"
        assert not out.exists()

    def test_spec_without_counts_injects_nothing(self, tmp_path, corpus_files):
        gold, _, schema = corpus_files
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": 3}')
        ledger = tmp_path / "ledger.json"
        argv = ["inject", "--gold", str(gold), "--schema", str(schema), "--spec", str(spec_path),
                "--out", str(tmp_path / "injected.json"), "--ledger", str(ledger)]
        assert main(argv) == EXIT_OK
        assert not any(json.loads(ledger.read_text())["per_type"].values())

    def test_spurious_filler_without_a_string_fill_role(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"roles": [{"name": "status", "kind": "set_fill", "values": ["a", "b"]}]}))
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps({"d1": {"doctext": "the status is known", "templates": [{"status": "a"}]}}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"counts": {"spurious_role_filler": 1}}))
        out = tmp_path / "injected.json"
        code = main(
            [
                "inject",
                "--gold", str(gold),
                "--schema", str(schema),
                "--spec", str(spec),
                "--out", str(out),
                "--ledger", str(tmp_path / "ledger.json"),
            ]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: cannot inject spurious_role_filler: schema has no string-fill role to fill\n"
        assert not out.exists()


class TestCompare:
    def _make_report(self, tmp_path, corpus_files, name, *extra):
        gold, pred, schema = corpus_files
        out = tmp_path / name
        assert main(_analyze_args(gold, pred, schema, out, *extra)) == EXIT_OK
        return out

    def test_self_compare_zero_deltas(self, tmp_path, corpus_files):
        report = self._make_report(tmp_path, corpus_files, "r1.json", "--label", "a")
        out = tmp_path / "cmp.json"
        assert main(["compare", str(report), str(report), "--out", str(out)]) == EXIT_OK
        comparison = json.loads(out.read_text())
        for system in comparison["systems"]:
            assert all(v == 0 for v in system["errors_per_type_delta"].values())
            assert all(v == 0.0 for v in system["score_deltas"]["overall"].values())

    def test_three_reports(self, tmp_path, corpus_files):
        r1 = self._make_report(tmp_path, corpus_files, "r1.json", "--label", "a")
        r2 = self._make_report(tmp_path, corpus_files, "r2.json", "--label", "b")
        r3 = self._make_report(tmp_path, corpus_files, "r3.json", "--label", "c")
        out = tmp_path / "cmp.json"
        assert main(["compare", str(r1), str(r2), str(r3), "--out", str(out)]) == EXIT_OK
        comparison = json.loads(out.read_text())
        assert comparison["baseline"] == "a"
        assert [s["label"] for s in comparison["systems"]] == ["a", "b", "c"]

    def test_incompatible_schemas(self, tmp_path, corpus_files):
        report_path = self._make_report(tmp_path, corpus_files, "r1.json")
        other = json.loads(report_path.read_text())
        other["schema"]["roles"] = other["schema"]["roles"][:1]
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        assert main(["compare", str(report_path), str(other_path)]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "damage",
        [
            lambda report: [report],
            lambda report: {k: v for k, v in report.items() if k != "scores"},
            lambda report: {**report, "scores": {**report["scores"], "overall": "perfect"}},
            lambda report: {**report, "scores": {**report["scores"], "per_role": {}}},
            lambda report: {**report, "errors": []},
            lambda report: {**report, "errors": {**report["errors"], "per_type": {"span_error": 1}}},
        ],
        ids=["list", "no-scores", "overall-not-numbers", "other-roles", "errors-not-object", "other-error-types"],
    )
    def test_non_report_is_incompatible(self, tmp_path, corpus_files, capsys, damage):
        report = self._make_report(tmp_path, corpus_files, "r1.json")
        other = tmp_path / "other.json"
        other.write_text(json.dumps(damage(json.loads(report.read_text()))))
        assert main(["compare", str(report), str(other)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("damage", [{"label": [1]}, {"label": None}, {"scores": {"overall": {"p": 10**400}}}])
    def test_unprintable_field_is_incompatible(self, tmp_path, corpus_files, capsys, fmt, damage):
        report = self._make_report(tmp_path, corpus_files, "r1.json")
        raw = json.loads(report.read_text())
        if "scores" in damage:
            raw["scores"]["overall"]["p"] = damage["scores"]["overall"]["p"]
        else:
            raw.update(damage)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(raw))
        assert main(["compare", str(report), str(other), "--format", fmt]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "where,key,value",
        [("{", "label", '"other"'), ('"overall": {', "f1", "0.5")],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_is_parse_error(self, tmp_path, corpus_files, capsys, where, key, value):
        """json.load would keep the last value of a repeated key and compare the report under it."""
        report = self._make_report(tmp_path, corpus_files, "r1.json")
        text = report.read_text()
        assert where in text and f'"{key}": ' in text
        twice = tmp_path / "twice.json"
        twice.write_text(text.replace(where, f'{where}"{key}": {value}, ', 1))
        assert main(["compare", str(report), str(twice)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {twice}: key '{key}' appears more than once\n"

    def test_text_format(self, tmp_path, corpus_files):
        r1 = self._make_report(tmp_path, corpus_files, "r1.json", "--label", "a")
        out = tmp_path / "cmp.txt"
        assert main(["compare", str(r1), str(r1), "--format", "text", "--out", str(out)]) == EXIT_OK
        assert "error type" in out.read_text()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b'{"x": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
@pytest.mark.parametrize("kind", ["gold", "schema", "config", "spec", "report"])
def test_unreadable_json_is_parse_error(tmp_path, corpus_files, capsys, kind, content):
    """Bytes that json.load rejects with something other than a JSONDecodeError."""
    gold, pred, schema = corpus_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    argv = {
        "gold": _analyze_args(bad, pred, schema, out),
        "schema": _analyze_args(gold, pred, bad, out),
        "config": _analyze_args(gold, pred, schema, out, "--config", str(bad)),
        "spec": ["inject", "--gold", str(gold), "--schema", str(schema), "--spec", str(bad),
                 "--out", str(out), "--ledger", str(tmp_path / "ledger.json")],
        "report": ["compare", str(bad), str(bad), "--out", str(out)],
    }[kind]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: cannot read ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "--gold", "g", "--pred", "p", "--schema", "s", "--parallel", "abc"],
         "argument --parallel: invalid int value: 'abc'"),
        (["score", "--gold", "g", "--pred", "p"], "the following arguments are required: --schema"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["bad-value", "missing-flag", "unknown-command"],
)
def test_usage_error_exits_1(capsys, argv, message):
    """Exit code 2 is the guard's; argparse alone would exit 2 here."""
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: command line: {message}") and captured.err.count("\n") == 1, captured.err


def test_usage_error_echoes_a_short_value_whole(capsys):
    assert main(["analyze", "--gold", "g", "--pred", "p", "--schema", "s", "--parallel", "abc"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: command line: argument --parallel: invalid int value: 'abc'\n"
    # A quoted value of exactly ECHO_LIMIT characters is echoed whole.
    value = "x" * (ECHO_LIMIT - 2)
    assert main(["count-matchings", value, "1"]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: command line: argument pred_count: invalid int value: '{value}'\n"


@pytest.mark.parametrize(
    "argv,prefix,echoed",
    [
        (["count-matchings", "9" * 4400, "1"], "argument pred_count: invalid int value: ", repr("9" * 4400)),
        (["analyze", "--gold", "g", "--pred", "p", "--schema", "s", "--parallel", "9" * 5000],
         "argument --parallel: invalid int value: ", repr("9" * 5000)),
        (["count-matchings", "1", "1", "x" * 300], "unrecognized arguments: ", "x" * 300),
        (["count-matchings", "'" + "x " * 100, "1"], "argument pred_count: invalid int value: ", repr("'" + "x " * 100)),
    ],
    ids=["long-integer", "long-parallel", "long-extra-argument", "long-value-with-blanks"],
)
def test_usage_error_cuts_a_long_value(capsys, argv, prefix, echoed):
    """The value keeps its first ECHO_LIMIT characters, its quote included, and says how many were cut."""
    assert main(argv) == EXIT_ERROR
    cut = len(echoed) - ECHO_LIMIT
    assert capsys.readouterr().err == f"error: command line: {prefix}{echoed[:ECHO_LIMIT]}... ({cut} characters cut)\n"


def test_help_exits_0(capsys):
    """``--help`` is a return code like any other, so the help run ends through the command's own exit."""
    assert main(["analyze", "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tfea analyze") and captured.err == ""


class TestCountMatchings:
    @pytest.mark.parametrize("p,g,expected", [(2, 2, "7"), (0, 5, "1"), (4, 4, "209"), (1, 1, "2")])
    def test_prints_count(self, capsys, p, g, expected):
        assert main(["count-matchings", str(p), str(g)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("p,g,name", [("-1", "2", "pred_count"), ("2", "-3", "gold_count")])
    def test_negative_count_is_parse_error(self, capsys, p, g, name):
        assert main(["count-matchings", p, g]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: command line ({name}): must be at least 0"), err

    def test_long_count_prints_in_full(self, capsys):
        assert main(["count-matchings", "1500", "1500"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == str(count_template_matchings(1500, 1500))
        assert main(["count-matchings", str(10**30), "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == str(10**30 + 1)

    @pytest.mark.parametrize(
        "p,g", [(2000, 2000), (10**30, 10**30), (10**30, 200), (2, 10**2200)], ids=["square", "huge", "wide", "long"]
    )
    def test_count_too_long_to_print_is_an_error(self, capsys, p, g):
        assert main(["count-matchings", str(p), str(g)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the matching count for {p} and {g} has more than 4300 digits\n"


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", ["analyze", "score", "compare", "inject-out", "inject-ledger"])
def test_unwritable_output_is_an_error(tmp_path, corpus_files, capsys, command, target):
    gold, pred, schema = corpus_files
    bad = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    report = tmp_path / "report.json"
    assert main(_analyze_args(gold, pred, schema, report)) == EXIT_OK
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"counts": {"span_error": 1}}))
    inject = ["inject", "--gold", str(gold), "--schema", str(schema), "--spec", str(spec)]
    argv = {
        "analyze": _analyze_args(gold, pred, schema, bad),
        "score": ["score", *_analyze_args(gold, pred, schema, bad)[1:]],
        "compare": ["compare", str(report), str(report), "--out", str(bad)],
        "inject-out": [*inject, "--out", str(bad), "--ledger", str(tmp_path / "ledger.json")],
        "inject-ledger": [*inject, "--out", str(tmp_path / "injected.json"), "--ledger", str(bad)],
    }[command]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: "), err
    assert "Traceback" not in err


def _with_surrogate_doc_id(*paths) -> None:
    """Rename the first document of each corpus file to ``d`` and a lone surrogate, written as a JSON escape."""
    for path in paths:
        side = json.loads(path.read_text(encoding="utf-8"))
        first = next(iter(side))
        path.write_text(json.dumps({"d\ud800" if key == first else key: v for key, v in side.items()}), encoding="utf-8")


@pytest.mark.parametrize("target", ["stdout", "out"])
@pytest.mark.parametrize("source", ["json-escape", "command-line"])
def test_text_utf8_cannot_encode_is_an_error(tmp_path, corpus_files, capsys, source, target):
    """A lone surrogate in the report, from a JSON escape or a command-line byte that is not UTF-8, exits 1.

    The error names the character, and nothing is written: an existing
    ``--out`` file keeps its bytes.
    """
    gold, pred, schema = corpus_files
    argv = ["analyze", "--gold", str(gold), "--pred", str(pred), "--schema", str(schema)]
    if source == "json-escape":
        _with_surrogate_doc_id(gold, pred)
        code = "U+D800"
    else:
        argv += ["--label", os.fsdecode(b"\xff")]
        code = "U+DCFF"
    out = tmp_path / "report.json"
    out.write_text("earlier report\n", encoding="utf-8")
    if target == "out":
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: the output holds {code}, which UTF-8 cannot encode (surrogates not allowed)\n"
    assert captured.out == ""
    assert out.read_text(encoding="utf-8") == "earlier report\n"


def test_inject_writes_neither_output_when_one_cannot_be_encoded(tmp_path, corpus_files, capsys):
    gold, _, schema = corpus_files
    _with_surrogate_doc_id(gold)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"counts": {"span_error": 1}}))
    outputs = [tmp_path / "injected.json", tmp_path / "ledger.json"]
    argv = ["inject", "--gold", str(gold), "--schema", str(schema), "--spec", str(spec)]
    assert main([*argv, "--out", str(outputs[0]), "--ledger", str(outputs[1])]) == EXIT_ERROR
    assert "U+D800, which UTF-8 cannot encode" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("stdout", ["full-device", "closed-pipe", "closed"])
@pytest.mark.parametrize("command", ["analyze", "count-matchings", "help", "analyze-help"])
def test_failing_stdout_is_an_error(corpus_files, command, stdout):
    """A standard output that cannot be written exits 1 with one error line and no traceback.

    It is a full device, a pipe whose reader has closed, or an fd 1 closed
    before the child starts (``sys.stdout`` is None). Help text too, and
    with stdout unbuffered (PYTHONUNBUFFERED) or not.
    """
    import subprocess
    import sys

    gold, pred, schema = corpus_files
    argv = {
        "analyze": ["analyze", "--gold", str(gold), "--pred", str(pred), "--schema", str(schema)],
        "count-matchings": ["count-matchings", "3", "3"],
        "help": ["--help"],
        "analyze-help": ["analyze", "--help"],
    }[command]
    if stdout == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    for variables in ({}, {"PYTHONUNBUFFERED": "1"}):
        if stdout == "full-device":
            sink = os.open("/dev/full", os.O_WRONLY)
        else:
            reader, sink = os.pipe()
            os.close(reader)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "tfea.cli", *argv],
                stdout=sink,
                preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None,
                stderr=subprocess.PIPE,
                env=child_env(**variables),
                cwd="/",
                text=True,
                timeout=120,
            )
        finally:
            os.close(sink)
        assert child.returncode == EXIT_ERROR, (variables, child.stderr)
        assert re.fullmatch(r"error: cannot write standard output: [^\n]+\n", child.stderr), (variables, child.stderr)


# (command, output flag, the flag whose file that output also names)
COLLIDING_PATHS = [
    ("analyze", "--out", "--gold"),
    ("analyze", "--out", "--pred"),
    ("analyze", "--out", "--schema"),
    ("analyze", "--out", "--config"),
    ("score", "--out", "--pred"),
    ("inject", "--out", "--ledger"),
    ("inject", "--out", "--gold"),
    ("inject", "--out", "--schema"),
    ("inject", "--out", "--spec"),
    ("inject", "--ledger", "--gold"),
    ("inject", "--ledger", "--spec"),
    ("compare", "--out", "a compared report"),
]


@pytest.mark.parametrize(
    "command, output, other", COLLIDING_PATHS, ids=[f"{c}:{o}={x}" for c, o, x in COLLIDING_PATHS]
)
def test_output_naming_another_path_is_an_error(tmp_path, corpus_files, capsys, command, output, other):
    """An output that names an input or the other output, here through a symlinked directory, exits 1.

    It is refused before anything is read or written: every file keeps its
    bytes, and none is created.
    """
    gold, pred, schema = corpus_files
    report = tmp_path / "report.json"
    assert main(_analyze_args(gold, pred, schema, report)) == EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "json"}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"counts": {"span_error": 1}}))
    paths = {
        "--gold": gold, "--pred": pred, "--schema": schema, "--config": config, "--spec": spec,
        "--out": tmp_path / "injected.json", "--ledger": tmp_path / "ledger.json", "a compared report": report,
    }
    (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
    paths[output] = tmp_path / "alias" / paths[other].name
    arg = {flag: str(path) for flag, path in paths.items()}
    analysis = ["--gold", arg["--gold"], "--pred", arg["--pred"], "--schema", arg["--schema"], "--out", arg["--out"]]
    argv = {
        "analyze": ["analyze", *analysis, "--config", arg["--config"]],
        "score": ["score", *analysis],
        "inject": ["inject", "--gold", arg["--gold"], "--schema", arg["--schema"], "--spec", arg["--spec"],
                   "--out", arg["--out"], "--ledger", arg["--ledger"]],
        "compare": ["compare", arg["a compared report"], "--out", arg["--out"]],
    }[command]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert main(argv) == EXIT_ERROR
    real = os.path.realpath(paths[other])
    assert capsys.readouterr().err == f"error: command line: {output} and {other} name the same file {real}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


def test_out_of_memory_reading_an_input_names_the_file(corpus_files):
    """A child whose address space runs out while it reads the gold corpus prints one error line and exits 1.

    The limit is set in the child after start-up, at its size then plus
    8 MB: room to run, but not to read a 24 MB gold file.
    """
    import subprocess
    import sys

    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm to size the limit")
    gold, pred, schema = corpus_files
    side = json.loads(gold.read_text(encoding="utf-8"))
    side["huge"] = {"doctext": "x" * (24 << 20), "templates": []}
    gold.write_text(json.dumps(side), encoding="utf-8")
    script = (
        "import os, resource\n"
        "from tfea.cli import run\n"
        "with open('/proc/self/statm') as statm:\n"
        "    size = int(statm.read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (8 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "run()\n"
    )
    argv = ["analyze", "--gold", str(gold), "--pred", str(pred), "--schema", str(schema)]
    child = subprocess.run(
        [sys.executable, "-c", script, *argv], env=child_env(), cwd="/", capture_output=True, text=True, timeout=120
    )
    assert child.returncode == EXIT_ERROR, child.stderr
    assert child.stderr == f"error: {gold}: cannot read corpus: out of memory\n"
    assert child.stdout == ""


def test_out_of_memory_is_an_error(tmp_path, corpus_files, capsys, monkeypatch):
    """Out of memory after the inputs are read is one error line and exit 1, not a traceback."""
    from tfea import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze_each", exhausted)
    gold, pred, schema = corpus_files
    out = tmp_path / "report.json"
    assert main(_analyze_args(gold, pred, schema, out)) == EXIT_ERROR
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_tfea_log_env(tmp_path, corpus_files, monkeypatch):
    monkeypatch.setenv("TFEA_LOG", "DEBUG")
    gold, pred, schema = corpus_files
    out = tmp_path / "report.json"
    assert main(_analyze_args(gold, pred, schema, out)) == EXIT_OK


# What loading _warning_files prints through the CLI.
WARNING_LINES = (
    "WARNING tfea: doc 'd1' template 0 role 'status': value 'implausible' is not in the role inventory\n"
    "WARNING tfea: doc 'd1' template 0 role 'agent': text 'amber archive' does not match the document at [0, 3), "
    "re-locating\n"
)
# Modules that a CLI run which starts no pool and logs nothing does not import.
START_UP_UNUSED = {"logging", "traceback", "tfea.replay", "tfea.inject", "tfea.compare", "concurrent.futures.process"}


def _warning_files(directory) -> list[str]:
    """Gold, pred and schema files whose gold side has a set-fill value outside the inventory and a mention to relocate."""
    text = "the amber archive fell"
    gold = {"d1": {"doctext": text, "templates": [
        {"status": "implausible", "agent": [[{"text": "amber archive", "start": 0, "end": 3}]]}
    ]}}
    pred = {"d1": {"doctext": text, "templates": [{"status": "confirmed", "agent": [{"text": "amber archive"}]}]}}
    paths = [str(directory / f"warning-{name}.json") for name in ("gold", "pred", "schema")]
    for path, data in zip(paths, (gold, pred, schema_to_dict(default_schema()))):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    return paths


def _cli_process(argv: list[str], *flags: str, entry: tuple[str, ...] = ("-m", "tfea.cli"), **variables: str):
    """The finished ``python [flags] -m tfea.cli argv`` child (``entry`` in place of ``-m tfea.cli``), output as bytes."""
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, *flags, *entry, *argv],
        env=child_env(**variables), cwd="/", capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("level,stderr", [(None, WARNING_LINES), ("DEBUG", WARNING_LINES), ("ERROR", "")])
def test_warnings_are_printed_in_the_cli_format(tmp_path, level, stderr):
    """The exact stderr of a run that logs two warnings, at the default level and under TFEA_LOG."""
    gold, pred, schema = _warning_files(tmp_path)
    variables = {} if level is None else {"TFEA_LOG": level}
    child = _cli_process(_analyze_args(gold, pred, schema, tmp_path / "report.json"), **variables)
    assert child.returncode == EXIT_OK
    assert child.stderr == stderr.encode()


# ``main`` in a child that leaves through the interpreter's own exit, teardown included.
MAIN_WITH_TEARDOWN = ("-c", "import sys\nfrom tfea.cli import main\nsys.exit(main())")
EXIT_PATH_CASES = {
    "analyze-json": EXIT_OK, "analyze-text": EXIT_OK, "analyze-csv": EXIT_OK, "score": EXIT_OK,
    "count-matchings": EXIT_OK, "compare": EXIT_OK, "inject": EXIT_OK, "usage-error": EXIT_ERROR,
    "guard-fail": EXIT_GUARD, "warnings": EXIT_OK,
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", EXIT_PATH_CASES)
def test_command_exit_matches_main(tmp_path, corpus_files, case, unbuffered):
    """``python -m tfea.cli``, which skips the interpreter's teardown, writes what ``main`` with the normal exit writes.

    Same stdout (a pipe) and stderr bytes, same exit code and same output
    files, with and without PYTHONUNBUFFERED.
    """
    gold, pred, schema = corpus_files
    inputs = ["--gold", str(gold), "--pred", str(pred), "--schema", str(schema)]
    report = tmp_path / "report.json"
    assert main(_analyze_args(gold, pred, schema, report)) == EXIT_OK
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"counts": {"span_error": 1}}), encoding="utf-8")
    warning_gold, warning_pred, warning_schema = _warning_files(tmp_path)

    def argv(out_dir) -> list[str]:
        out_dir.mkdir()
        return {
            "analyze-json": ["analyze", *inputs],
            "analyze-text": ["analyze", *inputs, "--format", "text"],
            "analyze-csv": ["analyze", *inputs, "--format", "csv"],
            "score": ["score", *inputs],
            "count-matchings": ["count-matchings", "5", "4"],
            "compare": ["compare", str(report), str(report), "--format", "text"],
            "inject": ["inject", "--gold", str(gold), "--schema", str(schema), "--spec", str(spec), "--seed", "3",
                       "--out", str(out_dir / "injected.json"), "--ledger", str(out_dir / "ledger.json")],
            "usage-error": ["analyze", "--gold", str(gold)],
            "guard-fail": ["analyze", *inputs, "--max-matchings", "1", "--on-guard", "fail"],
            "warnings": ["analyze", "--gold", warning_gold, "--pred", warning_pred, "--schema", warning_schema],
        }[case]

    variables = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    runs = {}
    for side, entry in (("main", MAIN_WITH_TEARDOWN), ("command", ("-m", "tfea.cli"))):
        out_dir = tmp_path / side
        child = _cli_process(argv(out_dir), entry=entry, **variables)
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        runs[side] = (child.returncode, child.stdout, child.stderr, files)
    assert runs["main"][0] == EXIT_PATH_CASES[case], runs["main"]
    assert runs["command"] == runs["main"]


def test_pool_run_leaves_no_process_behind(tmp_path, corpus_files):
    """A pooled run ended by ``run`` (``os._exit``) has no process left in its process group, and the serial report."""
    import subprocess
    import sys

    if not hasattr(os, "killpg"):
        pytest.skip("no process groups on this system")
    gold, pred, schema = corpus_files
    serial = tmp_path / "serial.json"
    assert main(_analyze_args(gold, pred, schema, serial)) == EXIT_OK
    pooled = tmp_path / "pooled.json"
    script = (
        "import pytest, support\n"
        "support.pool_for_any_corpus(pytest.MonkeyPatch())\n"
        "from tfea.cli import run\n"
        "run()\n"
    )
    # In a session of its own, the child leads a process group that holds its pool processes too.
    with subprocess.Popen(
        [sys.executable, "-c", script, *_analyze_args(gold, pred, schema, pooled, "--parallel", "3")],
        env=child_env(os.path.dirname(__file__), TFEA_LOG="DEBUG"),
        cwd="/",
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == EXIT_OK, stderr
    assert stdout == ""
    assert re.fullmatch(r"DEBUG tfea: 3 documents, \d+ mentions: 3 process\(es\)\n", stderr), stderr
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
    assert pooled.read_bytes() == serial.read_bytes()


def test_installed_command_runs_what_python_m_runs():
    """``[project.scripts] tfea`` names the function that ``python -m tfea.cli`` runs, so both end alike."""
    from pathlib import Path

    from tfea import cli

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\ntfea = "([^"]+)"$', pyproject, re.MULTILINE)
    entry = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n', Path(cli.__file__).read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert target and entry
    assert target[1] == f"tfea.cli:{entry[1]}"


@pytest.mark.parametrize("command", ["analyze", "score"])
def test_run_that_logs_nothing_skips_unused_modules(tmp_path, corpus_files, command):
    """``python -m tfea.cli`` without warnings or a pool imports neither logging nor other commands' code."""
    gold, pred, schema = corpus_files
    argv = [command, "--gold", str(gold), "--pred", str(pred), "--schema", str(schema), "--out", str(tmp_path / "r")]
    child = _cli_process(argv, "-X", "importtime")
    assert child.returncode == EXIT_OK
    imported = set(re.findall(r"^import time:.*\| +(\S+)$", child.stderr.decode(), re.MULTILINE))
    assert {"tfea", "tfea.corpus", "tfea.pipeline"} <= imported
    assert not imported & START_UP_UNUSED


@pytest.mark.parametrize("logged", [False, True])
def test_logging_setup_after_main_returns(tmp_path, corpus_files, logged):
    """The CLI's log format outlives ``main`` only if ``main`` logged: after a quiet command a later warning prints bare."""
    import subprocess
    import sys

    warning_gold, warning_pred, warning_schema = _warning_files(tmp_path)
    gold, pred, schema = (warning_gold, warning_pred, warning_schema) if logged else corpus_files
    script = (
        "import sys\n"
        "from tfea.cli import main\n"
        "from tfea.corpus import load_corpus, load_schema\n"
        "print(main(sys.argv[1:]), 'logging' in sys.modules)\n"
        f"load_corpus({warning_gold!r}, {warning_pred!r}, load_schema({warning_schema!r}))\n"
        "import logging\n"
        "print(len(logging.getLogger().handlers))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, *_analyze_args(gold, pred, schema, tmp_path / "report.json")],
        env=child_env(), cwd="/", capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"{EXIT_OK} {logged}\n{int(logged)}\n"
    # Without the CLI's handler, Python's last-resort handler prints the bare message.
    assert child.stderr == (WARNING_LINES * 2 if logged else WARNING_LINES.replace("WARNING tfea: ", ""))


def test_fresh_process_determinism(tmp_path, corpus_files):
    """Reports must not depend on interpreter hash randomization."""
    import subprocess
    import sys

    # The child imports the same tfea package as this process; PYTHONHASHSEED
    # is the only other thing that differs.
    gold, pred, schema = corpus_files
    outputs = []
    for seed in ("0", "4242"):
        out = tmp_path / f"hash-{seed}.json"
        env = child_env(PYTHONHASHSEED=seed)
        child = subprocess.run(
            [
                sys.executable, "-m", "tfea.cli",
                "analyze",
                "--gold", str(gold),
                "--pred", str(pred),
                "--schema", str(schema),
                "--out", str(out),
            ],
            env=env,
            cwd="/",
            capture_output=True,
            text=True,
        )
        assert child.returncode == EXIT_OK, child.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _guard_fail_stderr(tmp_path, corpus_files, capfd, workers: str) -> str:
    """What ``analyze --on-guard fail`` writes to stderr, pool workers included; it must exit with the guard code."""
    gold, pred, schema = corpus_files
    argv = _analyze_args(gold, pred, schema, tmp_path / f"report-{workers}.json")
    code = main([*argv, "--parallel", workers, "--max-matchings", "1", "--on-guard", "fail"])
    stderr = capfd.readouterr().err
    assert code == EXIT_GUARD, stderr
    return stderr


def test_parallel_guard_fail_matches_serial(tmp_path, corpus_files, monkeypatch, capfd):
    """A guard error raised in a pool worker exits like the serial run."""
    started = pool_for_any_corpus(monkeypatch)
    stderr = {}
    for workers in ("1", "2"):
        err = _guard_fail_stderr(tmp_path, corpus_files, capfd, workers)
        assert "Traceback" not in err
        stderr[workers] = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(stderr["1"]) == 1
    assert stderr["2"] == stderr["1"]
    assert started == [1]


def test_guard_error_is_printed_once(tmp_path, corpus_files, monkeypatch, capfd):
    """Under --on-guard fail the guard error is the one stderr line, serial and from a pool."""
    started = pool_for_any_corpus(monkeypatch)
    for workers in ("1", "2"):
        lines = _guard_fail_stderr(tmp_path, corpus_files, capfd, workers).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: document '"), (workers, lines)
    assert started == [1]


def _cli_in_child(argv: list[str], setup: str, **variables: str) -> tuple[str, str]:
    """Stdout and stderr of a child interpreter that runs ``setup``, then ``main(argv)``.

    The child prints the exit code and whether ``concurrent.futures.process``,
    the pool's module, was loaded.
    """
    import subprocess
    import sys

    script = (
        f"import sys\n{setup}\n"
        "from tfea.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'concurrent.futures.process' in sys.modules)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=child_env(os.path.dirname(__file__), **variables),
        cwd="/",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout, child.stderr


def test_parallel_below_one_process_of_work_starts_no_pool(tmp_path, corpus_files):
    """``--parallel 4`` on four usable CPUs and a corpus of far fewer mentions than a process's worth runs serially."""
    gold, pred, schema = corpus_files
    serial = tmp_path / "serial.json"
    assert main(_analyze_args(gold, pred, schema, serial, "--parallel", "1")) == EXIT_OK
    out = tmp_path / "four.json"
    stdout, stderr = _cli_in_child(
        _analyze_args(gold, pred, schema, out, "--parallel", "4"),
        "import os\nos.sched_getaffinity = lambda pid: {0, 1, 2, 3}",
        TFEA_LOG="DEBUG",
    )
    assert stdout.split() == [str(EXIT_OK), "False"]
    assert re.fullmatch(r"DEBUG tfea: 3 documents, \d+ mentions: 1 process\(es\)\n", stderr), stderr
    assert out.read_bytes() == serial.read_bytes()


def test_parallel_run_writes_nothing_to_stderr(tmp_path, corpus_files):
    """A pooled run that succeeds is silent at the default log level; TFEA_LOG=DEBUG shows the pool's size."""
    gold, pred, schema = corpus_files
    argv = _analyze_args(gold, pred, schema, tmp_path / "report.json", "--parallel", "2")
    setup = "import pytest, support\nsupport.pool_for_any_corpus(pytest.MonkeyPatch())"
    assert _cli_in_child(argv, setup) == (f"{EXIT_OK} True\n", "")
    stdout, stderr = _cli_in_child(argv, setup, TFEA_LOG="DEBUG")
    assert stdout == f"{EXIT_OK} True\n"
    assert re.fullmatch(r"DEBUG tfea: 3 documents, \d+ mentions: 2 process\(es\)\n", stderr), stderr


def test_schema_mismatch_names_the_predictions_file(tmp_path, corpus_files, capsys):
    gold, pred, schema = corpus_files
    raw = json.loads(pred.read_text(encoding="utf-8"))
    doc_id = sorted(raw)[0]
    raw[doc_id]["templates"][0]["agnt"] = []
    pred.write_text(json.dumps(raw), encoding="utf-8")
    assert main(_analyze_args(gold, pred, schema, tmp_path / "report.json")) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {pred} (doc '{doc_id}' template 0): role 'agnt' is not defined by the schema\n"
    )


def _fuzz_base_sides() -> dict[str, dict]:
    schema = default_schema()
    gold_docs = generate_corpus(
        GenerationParams(n_docs=2, templates_per_doc=(1, 2), mentions_per_entity=(1, 2)), seed=5
    )
    spec = InjectionSpec(counts={ErrorType.SPAN_ERROR: 1, ErrorType.MISSING_ROLE_FILLER: 1})
    documents = inject_errors(gold_docs, schema, spec, seed=3).documents
    return {"gold": side_to_dict(documents, gold=True), "pred": side_to_dict(documents, gold=False)}


def _write_json(directory, name: str, payload) -> str:
    path = directory / f"fuzz-{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _assert_clean_exit(argv: list[str]) -> None:
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_GUARD)
    assert "Traceback" not in stderr.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(side=st.sampled_from(["gold", "pred"]), choices=subtree_paths(), value=json_values())
def test_damaged_corpus_file_exits_cleanly(tmp_path_factory, side, choices, value):
    """One subtree of a valid gold or pred file replaced by random JSON: an exit code, never a traceback."""
    directory = tmp_path_factory.getbasetemp()
    sides = _fuzz_base_sides()
    sides[side] = replace_subtree(sides[side], choices, value)
    paths = {name: _write_json(directory, name, payload) for name, payload in sides.items()}
    schema = _write_json(directory, "schema", schema_to_dict(default_schema()))
    _assert_clean_exit(_analyze_args(paths["gold"], paths["pred"], schema, directory / "fuzz-report.json"))


def _fuzz_base_inputs(directory) -> dict[str, tuple[str, object]]:
    """Valid files of every other input kind, as name -> (path, payload)."""
    sides = _fuzz_base_sides()
    gold = _write_json(directory, "base-gold", sides["gold"])
    pred = _write_json(directory, "base-pred", sides["pred"])
    schema_payload = schema_to_dict(default_schema())
    schema = _write_json(directory, "base-schema", schema_payload)
    report = directory / "fuzz-base-report.json"
    assert main(_analyze_args(gold, pred, schema, report)) == EXIT_OK
    return {
        "gold": (gold, sides["gold"]),
        "pred": (pred, sides["pred"]),
        "schema": (schema, schema_payload),
        "spec": (None, {"counts": {"span_error": 1, "missing_role_filler": 1}, "seed": 3}),
        "config": (
            None,
            {
                "scs_mode": "absolute",
                "case_sensitive": False,
                "max_matchings": 1000,
                "on_guard": "skip",
                "parallel": 1,
                "format": "text",
                "label": "fuzz",
            },
        ),
        "report": (str(report), json.loads(report.read_text(encoding="utf-8"))),
    }


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["schema", "spec", "config", "report"]),
    fmt=st.sampled_from(["json", "text"]),
    choices=subtree_paths(),
    value=json_values(),
)
def test_damaged_input_file_exits_cleanly(tmp_path_factory, kind, fmt, choices, value):
    """The same for the schema, an injection spec, a --config file and a report given to compare."""
    directory = tmp_path_factory.getbasetemp()
    base = _fuzz_base_inputs(directory)
    damaged = _write_json(directory, f"damaged-{kind}", replace_subtree(base[kind][1], choices, value))
    gold, pred, schema, report = (base[name][0] for name in ("gold", "pred", "schema", "report"))
    out = str(directory / "fuzz-out.json")
    argv = {
        "schema": _analyze_args(gold, pred, damaged, out),
        "config": _analyze_args(gold, pred, schema, out, "--config", damaged),
        "spec": ["inject", "--gold", gold, "--schema", schema, "--spec", damaged, "--out", out,
                 "--ledger", str(directory / "fuzz-ledger.json")],
        "report": ["compare", report, damaged, "--format", fmt, "--out", out],
    }[kind]
    _assert_clean_exit(argv)
