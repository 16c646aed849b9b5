"""Command-line interface: analyze, score, inject, compare, count-matchings."""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from pathlib import Path

from .config import DEFAULT_MAX_TEMPLATE_MATCHINGS, ON_GUARD_CHOICES, AnalysisConfig, defer_logging
from .corpus import _check_keys, _decode_object, load_corpus, load_schema, load_side, merge_sides
from .corpus import read_json, side_to_dict
from .exceptions import ComplexityGuardExceeded, ParseError, TfeaError
from .matching import MAX_COUNT_DIGITS, printable_template_matchings
from .pipeline import MENTIONS_PER_PROCESS, analyze_each
from .reports import (
    assemble_report,
    document_row,
    errors_section,
    render_csv,
    render_json,
    render_text,
)
from .spans import ScsMode

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GUARD = 2

SCS_MODE_CHOICES = tuple(mode.value for mode in ScsMode)
FORMAT_CHOICES = ("json", "csv", "text")
OUTPUT_FLAGS = ("out", "ledger")
PATH_FLAGS = (*OUTPUT_FLAGS, "gold", "pred", "schema", "spec", "config", "reports")  # outputs first
CONFIG_KEYS = ("scs_mode", "case_sensitive", "max_matchings", "on_guard", "parallel", "format", "label")
ECHO_LIMIT = 60  # characters kept of each value (quoted, or a run of non-blanks) a usage error echoes


def _setup_logging() -> None:
    import logging

    level = getattr(logging, os.environ.get("TFEA_LOG", "WARNING").upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gold", required=True, help="gold corpus JSON")
    parser.add_argument("--pred", required=True, help="predicted corpus JSON")
    parser.add_argument("--schema", required=True, help="schema JSON")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=FORMAT_CHOICES, default=None)
    parser.add_argument("--scs-mode", choices=SCS_MODE_CHOICES, default=None)
    parser.add_argument("--case-sensitive", action="store_true", default=None)
    parser.add_argument("--max-matchings", type=int, default=None,
                        help="cap on the closed-form matching count; larger documents go to --on-guard")
    parser.add_argument("--on-guard", choices=ON_GUARD_CHOICES, default=None)
    parser.add_argument("--parallel", type=int, default=None,
                        help=f"processes, this one included; at most one per document, per usable CPU and per "
                             f"{MENTIONS_PER_PROCESS:,} mentions (gold and predicted), so a corpus of fewer than "
                             f"{2 * MENTIONS_PER_PROCESS:,} runs serially. The report and exit code (2 under "
                             "--on-guard fail) match a serial run")
    parser.add_argument("--label", default=None, help="system label echoed in the report")
    parser.add_argument("--config", default=None, help="JSON config file (flags win)")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    raw = read_json(path, "config", _decode_object)
    if not isinstance(raw, dict):
        raise ParseError(path, "config must be a JSON object")
    _check_keys(path, raw, None)
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ParseError(path, f"unknown setting; known: {', '.join(CONFIG_KEYS)}", key)
    return raw


def _resolve_settings(args: argparse.Namespace) -> tuple[AnalysisConfig, dict]:
    """Flags beat the config file, which beats the defaults."""
    file_cfg = _load_config_file(args.config)

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    def pick_int(flag_value, key, default, minimum):
        value = pick(flag_value, key, default)
        source = "command line" if flag_value is not None else args.config
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(source, f"must be an integer, got {value!r}", key)
        if value < minimum:
            raise ParseError(source, f"must be at least {minimum}, got {value}", key)
        return value

    def pick_choice(flag_value, key, default, choices):
        value = pick(flag_value, key, default)
        if value not in choices:
            raise ParseError(args.config, f"must be one of {', '.join(choices)}, got {value!r}", key)
        return value

    case_sensitive = pick(args.case_sensitive, "case_sensitive", False)
    if not isinstance(case_sensitive, bool):
        raise ParseError(args.config, f"must be true or false, got {case_sensitive!r}", "case_sensitive")

    config = AnalysisConfig(
        scs_mode=ScsMode(
            pick_choice(args.scs_mode, "scs_mode", ScsMode.GEOMETRIC.value, SCS_MODE_CHOICES)
        ),
        case_sensitive=case_sensitive,
        max_template_matchings=pick_int(
            args.max_matchings, "max_matchings", DEFAULT_MAX_TEMPLATE_MATCHINGS, 0
        ),
        on_guard=pick_choice(args.on_guard, "on_guard", "skip", ON_GUARD_CHOICES),
    )
    extras = {
        "parallel": pick_int(args.parallel, "parallel", 1, 1),
        "format": pick_choice(args.format, "format", "json", FORMAT_CHOICES),
        "label": pick(args.label, "label", None),
    }
    if extras["label"] is not None and not isinstance(extras["label"], str):
        raise ParseError(args.config, f"must be a string, got {extras['label']!r}", "label")
    return config, extras


def _write_output(*outputs: tuple[str, str | None]) -> None:
    """Write each ``(text, out)`` as UTF-8 to the file ``out``, or to stdout (flushed) when ``out`` is None.

    Every text is encoded before anything is opened: a lone surrogate (from
    a JSON escape or a command-line byte) is an error that empties no file.
    """
    try:
        encoded = [(text.encode("utf-8"), out) for text, out in outputs]
    except UnicodeEncodeError as exc:
        char = f"U+{ord(exc.object[exc.start]):04X}"
        raise TfeaError(f"the output holds {char}, which UTF-8 cannot encode ({exc.reason})") from exc
    for data, out in encoded:
        try:
            if out is None:
                if sys.stdout is None:  # fd 1 was closed when the interpreter started
                    raise TfeaError("cannot write standard output: it is closed")
                sys.stdout.flush()
                sys.stdout.buffer.write(data)
                sys.stdout.buffer.flush()
            else:
                Path(out).write_bytes(data)
        except OSError as exc:
            if out is not None:
                raise TfeaError(f"cannot write {out}: {exc.strerror or exc}") from exc
            # The flush of what stayed buffered, by run() or the interpreter's exit, would fail again:
            # it goes to the null device.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise TfeaError(f"cannot write standard output: {exc.strerror or exc}") from exc


def _check_output_paths(args: argparse.Namespace) -> None:
    """An output may name neither an input nor the other output: writing it would lose that file.

    Paths compare as ``os.path.realpath`` resolves them. One it cannot
    resolve (it holds a NUL) names no file, and opening it is the error.
    """
    named = []  # (dest, real path), outputs first
    for dest in PATH_FLAGS:
        value = getattr(args, dest, None)
        for path in [value] if isinstance(value, str) else value or ():
            try:
                named.append((dest, os.path.realpath(path)))
            except ValueError:
                pass
    for i, (dest, real) in enumerate(named):
        for other, other_real in named[i + 1 :]:
            if dest in OUTPUT_FLAGS and real == other_real:
                flags = " and ".join("a compared report" if d == "reports" else f"--{d}" for d in (dest, other))
                raise ParseError("command line", f"{flags} name the same file {real}")


def _analysis_report(args: argparse.Namespace, config: AnalysisConfig, extras: dict, derive: bool) -> dict:
    """Load, analyze and build the report; the corpus is freed before it is rendered.

    Each document becomes its report row in the process that analyzed it,
    so no analysis outlives its document or crosses the ``--parallel`` pool.
    """
    schema = load_schema(args.schema)
    documents = load_corpus(args.gold, args.pred, schema, config.casefold)
    rows = analyze_each(documents, schema, config, document_row, extras["parallel"], derive)
    label = extras["label"] or Path(args.pred).stem
    return assemble_report(rows, schema, config, label, include_errors=derive)


def _run_analysis(args: argparse.Namespace) -> int:
    config, extras = _resolve_settings(args)
    report = _analysis_report(args, config, extras, args.derive)
    renderer = {"json": render_json, "csv": render_csv, "text": render_text}[extras["format"]]
    _write_output((renderer(report), args.out))
    return EXIT_OK


def _cmd_inject(args: argparse.Namespace) -> int:
    # Imported here: analyze, score and the other commands never load the injector.
    from .inject import inject_errors, load_spec

    schema = load_schema(args.schema)
    documents = merge_sides(load_side(args.gold, schema, gold=True), {})
    spec, seed = load_spec(args.spec, args.seed)
    result = inject_errors(documents, schema, spec, seed=seed)
    predictions = render_json(side_to_dict(result.documents, gold=False))
    ledger = render_json(errors_section(result.ledger, schema, result.per_doc))
    _write_output((predictions, args.out), (ledger, args.ledger))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    # Imported here: analyze and score never compile the comparison code.
    from .compare import compare_reports, load_report, render_comparison_text

    reports = [load_report(path) for path in args.reports]
    comparison = compare_reports(reports)
    render = render_comparison_text if args.format == "text" else render_json
    _write_output((render(comparison), args.out))
    return EXIT_OK


def _cmd_count_matchings(args: argparse.Namespace) -> int:
    sizes = {"pred_count": args.pred_count, "gold_count": args.gold_count}
    for name, value in sizes.items():
        if value < 0:
            raise ParseError("command line", f"must be at least 0, got {value}", name)
    count = printable_template_matchings(args.pred_count, args.gold_count)
    if count is None:
        raise TfeaError(f"the matching count for {args.pred_count} and {args.gold_count} "
                        f"has more than {MAX_COUNT_DIGITS} digits")
    _write_output((f"{count}\n", None))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a ``ParseError`` of the command line, not argparse's exit 2 (the guard's code).

    Help goes to stdout through ``_write_output``, so a stdout that fails is
    an error here too (argparse would drop the text without a word).
    """

    def error(self, message: str):
        raise ParseError("command line", re.sub(r"'[^']*'|\"[^\"]*\"|\S+", _shortened, message))

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            _write_output((message, None))
        else:
            super()._print_message(message, file)


def _shortened(found: re.Match) -> str:
    cut = len(found[0]) - ECHO_LIMIT
    return found[0] if cut <= 0 else f"{found[0][:ECHO_LIMIT]}... ({cut} characters cut)"


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tfea",
        description="Transformation-based error analysis for template filling.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="full analysis: scores, errors, transformations")
    _add_analysis_flags(analyze)
    analyze.set_defaults(func=_run_analysis, derive=True)

    score = commands.add_parser("score", help="scores only, skipping transformation derivation")
    _add_analysis_flags(score)
    score.set_defaults(func=_run_analysis, derive=False)

    inject = commands.add_parser("inject", help="inject a known error profile into a gold corpus")
    inject.add_argument("--gold", required=True)
    inject.add_argument("--schema", required=True)
    inject.add_argument("--spec", required=True, help="JSON: {\"counts\": {error_type: n}}")
    inject.add_argument("--seed", type=int, default=None)
    inject.add_argument("--out", required=True, help="predictions output path")
    inject.add_argument("--ledger", required=True, help="expected error profile output path")
    inject.set_defaults(func=_cmd_inject)

    compare = commands.add_parser("compare", help="compare two or more reports")
    compare.add_argument("reports", nargs="+")
    compare.add_argument("--format", choices=("json", "text"), default="json")
    compare.add_argument("--out")
    compare.set_defaults(func=_cmd_compare)

    count = commands.add_parser(
        "count-matchings", help="closed-form template matching count for P and G"
    )
    count.add_argument("pred_count", type=int)
    count.add_argument("gold_count", type=int)
    count.set_defaults(func=_cmd_count_matchings)

    return parser


def main(argv=None) -> int:
    # A run that logs nothing never imports logging; a TFEA_LOG level may
    # pass the records that config.log drops until then, so it sets up now.
    defer_logging(_setup_logging, eager="TFEA_LOG" in os.environ)
    # A command builds no reference cycles, so the cyclic collector would
    # only rescan the live corpus and results while they are built (it
    # made unpickling the --parallel results about three times slower).
    # It is paused for the whole command, not around one stage: collections
    # deferred by a stage would land right after it. The caller's state is
    # restored, for callers that run main in-process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, once its text is written
            return exc.code
        _check_output_paths(args)
        return args.func(args)
    except ComplexityGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except TfeaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    finally:
        defer_logging(None)
        if collecting:
            gc.enable()


def run() -> None:
    """The ``tfea`` command: ``main``, then an exit that skips the interpreter's teardown.

    Freeing every module and object one at a time, for a process about to
    end, took 8-17 ms of each benchmark run on 2 CPUs (``BENCH_31.json``). Skipping it loses nothing, since when
    ``main`` returns: no thread or pool process is alive (``analyze_each``
    shuts its pool down in a ``finally``, which joins the pool's thread and
    processes, and the workers never reach this function); every output
    file is closed (``_write_output`` and ``read_json`` open none that
    outlives the call); and logging's ``StreamHandler`` has flushed each
    record as it was written. What is left in stdout and stderr is flushed
    here.
    """
    code = main()
    if sys.flags.dev_mode:
        # -X dev keeps the normal exit, so that its teardown still reports resources left unclosed.
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
