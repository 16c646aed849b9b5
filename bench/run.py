"""tfea benchmark: seeded corpora through the real CLI, plus a traced in-process pass.

Usage, from the repository root:

    python3 bench/run.py --workload small_docs --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each run generates its inputs from the seed, runs one untimed ``analyze``
as warm-up and reference report, then repeats rounds of
``count-matchings 1 1`` (set-up), ``score``, ``analyze --parallel`` and
``analyze`` subprocesses, interleaved with the frozen ``reference.py``
that every timing of the round is scaled by, until ``--seconds`` have
passed, checking every output. With
``--trace 1`` each round is followed by a traced in-process pass that
gives the per-layer metrics. The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MAX_WORKERS = 4
LAUNCHER_EXIT_TIMEOUT_S = 120
# Nominal time of reference.py. Each timed invocation is scaled by
# REFERENCE_S / mean wall time of the reference runs in its own round, and
# an end-to-end timing is the median of the scaled samples: seconds on a
# machine where the reference takes REFERENCE_S. The CPU speed of a shared
# machine flips by up to 2x, for fractions of a second to minutes, and raw
# medians of runs minutes apart spread past every bound.
REFERENCE_S = 0.2

# name -> (unit, better); the same tables as BENCHMARK.json.
END_TO_END = {
    "analyze_s": ("s", "lower"),
    "score_s": ("s", "lower"),
    "analyze_parallel_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ledger_match_share": ("ratio", "higher"),
}
# Printed, but left out of the result line: both are 0 on a healthy run
# (failed_share everywhere, exact_doc_share on guard_overflow), so they
# have no relative bound; the result line carries attempted/failed.
END_TO_END_PRINTED_ONLY = {
    "failed_share": ("ratio", "lower"),
    "exact_doc_share": ("ratio", "higher"),
}
PER_LAYER = {
    "corpus.load_s": ("s", "lower"),
    "corpus.input_mb": ("MB", "lower"),
    "corpus.mentions": ("count", "lower"),
    "corpus.warnings": ("count", "lower"),
    "model.resolve_s": ("s", "lower"),
    "model.mentions_searched": ("count", "lower"),
    "model.mentions_unlocated": ("count", "lower"),
    "matching.match_s": ("s", "lower"),
    "matching.pairs_scored": ("count", "lower"),
    "matching.template_matchings": ("count", "lower"),
    "matching.guard_hits": ("count", "lower"),
    "matching.greedy_s": ("s", "lower"),
    "matching.pair_yield": ("ratio", "higher"),
    "transforms.derive_s": ("s", "lower"),
    "transforms.count": ("count", "lower"),
    "errors.map_s": ("s", "lower"),
    "errors.count": ("count", "lower"),
    "scoring.score_s": ("s", "lower"),
    "reports.build_s": ("s", "lower"),
    "reports.render_s": ("s", "lower"),
    "reports.bytes": ("B", "lower"),
    "pipeline.serial_s": ("s", "lower"),
    "pipeline.parallel_s": ("s", "lower"),
    "pipeline.speedup": ("x", "higher"),
    "pipeline.task_bytes": ("B", "lower"),
    "cli.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Timed invocation behind each end-to-end timing.
SAMPLED_BY = {
    "analyze_s": "analyze",
    "score_s": "score",
    "analyze_parallel_s": "analyze_parallel",
    "setup_s": "setup",
}
# analyze comes last so that, with --trace 1, it runs right before the
# traced pass it is compared with in cli.unattributed_s.
ROUND = ("setup", "reference", "score", "setup", "reference", "analyze_parallel", "setup", "reference", "analyze")


class Launcher:
    """The small process that spawns and times every CLI invocation (see launch.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=LAUNCHER_EXIT_TIMEOUT_S)
        self.proc.stdout.close()

    def run(self, argv: list[str], stem: Path) -> tuple[int, bytes, str, float, int]:
        """Run one command; return (exit code, stdout, stderr, wall s, peak RSS KiB)."""
        out_path, err_path = stem.with_suffix(".stdout"), stem.with_suffix(".stderr")
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = err_path.read_text(errors="replace")
        return reply["exit"], out_path.read_bytes(), stderr, reply["wall_s"], reply["maxrss_kib"]


def _workers() -> int:
    return max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import Invocation, OutputChecker
    from tfea.config import AnalysisConfig
    from tracing import Tracer, traced_pass
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[name]
    workers = _workers()
    run_dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    print(f"== {name} seed={seed} docs={workload.n_docs} workers={workers} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    for file_name, digest in write_inputs(workload, seed, run_dir).items():
        print(f"input {file_name} sha256={digest}")

    paths = {side: run_dir / f"{side}.json" for side in ("gold", "pred", "schema")}
    checker = OutputChecker(json.loads((run_dir / "ledger.json").read_text()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    common = ["--gold", str(paths["gold"]), "--pred", str(paths["pred"]), "--schema", str(paths["schema"]),
              "--on-guard", workload.on_guard]
    cli = [sys.executable, "-m", "tfea.cli"]
    commands = {
        "setup": [*cli, "count-matchings", "1", "1"],
        "analyze": [*cli, "analyze", *common],
        "score": [*cli, "score", *common],
        "analyze_parallel": [*cli, "analyze", *common, "--parallel", str(workers)],
    }
    samples: dict[str, list[float]] = {kind: [] for kind in commands}  # scaled to REFERENCE_S
    raw_samples: dict[str, list[float]] = {kind: [] for kind in [*commands, "reference"]}
    rss_kib: list[int] = []
    tracer = Tracer()
    layer_samples: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    config = AnalysisConfig(on_guard=workload.on_guard)

    def invoke(launcher: Launcher, kind: str) -> tuple[float, int]:
        if kind == "reference":
            code, _, stderr, wall, maxrss = launcher.run([sys.executable, str(HERE / "reference.py")], run_dir / kind)
            if code != 0:
                raise RuntimeError(f"reference.py failed: {stderr[-300:]}")
            return wall, maxrss
        report_path = run_dir / f"{kind}.report.json"
        report_path.unlink(missing_ok=True)
        command = commands[kind] if kind == "setup" else commands[kind] + ["--out", str(report_path)]
        code, stdout, stderr, wall, maxrss = launcher.run(command, run_dir / kind)
        output = stdout if kind == "setup" else (report_path.read_bytes() if report_path.exists() else b"")
        reasons = checker.check(Invocation(kind, code, stderr, output))
        if reasons:
            print(f"FAILED {kind}: {', '.join(reasons)}; stderr tail: {stderr[-300:]!r}")
        return wall, maxrss

    try:
        with Launcher(env) as launcher:
            # Untimed: compiles the package to bytecode, pulls the inputs into
            # the page cache and gives the reference report the others must match.
            invoke(launcher, "analyze")
            deadline = time.perf_counter() + seconds
            while True:
                walls: dict[str, list[float]] = {}
                for kind in ROUND:
                    wall, maxrss = invoke(launcher, kind)
                    walls.setdefault(kind, []).append(wall)
                    if kind == "analyze":
                        rss_kib.append(maxrss)
                speed = REFERENCE_S / statistics.mean(walls["reference"])
                for kind, values in walls.items():
                    raw_samples[kind].extend(values)
                    if kind != "reference":
                        samples[kind].extend(value * speed for value in values)
                if trace:
                    rendered, times, counts = traced_pass(tracer, paths, config, workers)
                    reasons = checker.check(Invocation("trace", 0, "", rendered))
                    if reasons:
                        print(f"FAILED trace: {', '.join(reasons)}")
                    times["cli.unattributed_s"] = walls["analyze"][-1] - times.pop("attributed_s")
                    for metric, value in times.items():
                        layer_samples.setdefault(metric, []).append(value)
                if time.perf_counter() >= deadline:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    e2e = {metric: statistics.median(samples[kind]) for metric, kind in SAMPLED_BY.items()}
    e2e["peak_rss_mb"] = statistics.median(rss_kib) * 1024 / 1e6
    e2e["ledger_match_share"] = checker.ledger_match_share
    e2e["failed_share"] = checker.failed_share
    e2e["exact_doc_share"] = checker.exact_doc_share
    print(f"report_sha256={checker.report_sha256}")
    print(f"attempted={checker.attempted} failed={checker.failed} {dict(checker.reasons) or ''}")
    print("unscaled wall-time medians (s): "
          + ", ".join(f"{kind}={statistics.median(values):.6f}" for kind, values in raw_samples.items()))
    print(f"end-to-end (timings: median over n invocations, each scaled to a {REFERENCE_S} s reference "
          "round; shares: over n checked):")
    sample_counts = {**{m: len(samples[kind]) for m, kind in SAMPLED_BY.items()}, "peak_rss_mb": len(rss_kib)}
    for metric, (unit, better) in {**END_TO_END, **END_TO_END_PRINTED_ONLY}.items():
        n = sample_counts.get(metric, checker.attempted)
        print(f"  {metric:<22} {e2e[metric]:>12.6f} {unit:<6} {better:<6} n={n}")
    result = {m: {"value": e2e[m], "unit": unit} for m, (unit, _) in END_TO_END.items()}

    if trace:
        layers = {metric: statistics.median(values) for metric, values in layer_samples.items()}
        layers.update(counts)
        trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.dump()))
        print(f"per-layer (timings: median over {len(layer_samples['corpus.load_s'])} traced passes; "
              f"spans in {trace_path.relative_to(ROOT)}):")
        for metric, (unit, better) in PER_LAYER.items():
            print(f"  {metric:<28} {layers[metric]:>14.6f} {unit:<6} {better}")
        result = {m: {"value": layers[m], "unit": unit} for m, (unit, _) in PER_LAYER.items()}

    correct = checker.failed == 0 and checker.ledger_match_share == 1.0
    return {"correct": correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfea" / "__init__.py").is_file():
        print(f"error: the tfea sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in WORKLOADS:
        print(f"error: unknown workload {names[0]!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
