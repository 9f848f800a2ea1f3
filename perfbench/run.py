"""Run one reviewpulse benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Run it from the root of a reviewpulse checkout: the package is imported
from ./src and never from an installed copy, so the command fails (exit 2,
no result line) where ./src/reviewpulse is missing.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(BENCHMARK.json ``end_to_end``); with ``--trace 1`` it carries the
per-layer metrics (``per_layer``) from a traced run, which also runs the
operation untraced to report the tracing overhead. Scratch files live in
./.perfbench and are removed at exit, except the traced run's span dump.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = Path(".perfbench")
GOLDEN = BENCH_DIR / "golden.json"
WORKLOADS = ("sweep", "desk", "wide", "long")
SETUP_SAMPLES = 5

# Operation time is the 90th percentile of a fixed number of operations
# (after one warm-up). Shared 2-CPU VMs switch between a fast and a slow CPU
# speed for seconds to minutes at a time; every run spends some time in the
# slow state, so a high percentile repeats from run to run where the median
# does not, and unlike the maximum it does not hang on one stalled
# operation (README.md). Memory is the rise in peak RSS over the first
# operation, so that its data, not the interpreter and its imports, sets it.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_p90_s", "s"),
    ("peak_rss_growth_mb", "MB"),
)

# (name, unit, better). Every "*_s" layer metric is self time per traced
# operation; together with bench.glue_s they add up to trace.wall_s.
PER_LAYER = (
    ("synth.generate_s", "s", "lower"),
    ("ingest.parse_s", "s", "lower"),
    ("ingest.lines", "count", "higher"),
    ("ingest.rejects", "count", "lower"),
    ("ingest.catalog_s", "s", "lower"),
    ("metrics.score_s", "s", "lower"),
    ("metrics.bodies_scored", "count", "lower"),
    ("metrics.body_repeat_ratio", "ratio", "higher"),
    ("metrics.window_stats_s", "s", "lower"),
    ("metrics.window_stats_calls", "count", "lower"),
    ("metrics.delta_s", "s", "lower"),
    ("detect.series_s", "s", "lower"),
    ("detect.windows_judged", "count", "lower"),
    ("detect.events_nonzero", "count", "lower"),
    ("correlate.pair_s", "s", "lower"),
    ("correlate.pair_calls", "count", "lower"),
    ("correlate.records", "count", "lower"),
    ("correlate.rho_undefined", "count", "lower"),
    ("correlate.runs_s", "s", "lower"),
    ("correlate.runs", "count", "lower"),
    ("correlate.intersect_s", "s", "lower"),
    ("correlate.ces", "count", "lower"),
    ("pipeline.ce_s", "s", "lower"),
    ("summarize.requests_s", "s", "lower"),
    ("summarize.requests", "count", "lower"),
    ("summarize.window_scan_s", "s", "lower"),
    ("summarize.window_scan_calls", "count", "lower"),
    ("pipeline.analyze_self_s", "s", "lower"),
    ("pipeline.run_self_s", "s", "lower"),
    ("pipeline.write_s", "s", "lower"),
    ("pipeline.write_correlations_s", "s", "lower"),
    ("pipeline.summaries_s", "s", "lower"),
    ("pipeline.bytes_written", "bytes", "lower"),
    ("pipeline.bundle_identical", "flag", "higher"),
    ("rss.after_parse_mb", "MB", "lower"),
    ("rss.after_analyze_mb", "MB", "lower"),
    ("rss.after_write_mb", "MB", "lower"),
    ("bench.glue_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("quality.recall", "ratio", "higher"),
    ("quality.clean_rate", "ratio", "higher"),
    ("quality.null_ce_per_pair", "ratio", "lower"),
    ("quality.failed_ratio", "ratio", "lower"),
)

# Cold start of a CLI call: interpreter, package import and the defaults
# every run builds. Prints where the package came from so it can be checked.
SETUP_CODE = """\
import reviewpulse.cli
from reviewpulse.config import MarketConfig
from reviewpulse.sentiment import LexiconScorer
from reviewpulse.summarize import default_template
MarketConfig(); LexiconScorer(); default_template()
print(reviewpulse.__file__)
"""


def package_src() -> Path:
    """Put ./src first on sys.path and check reviewpulse is imported from it."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "reviewpulse" / "__init__.py").is_file():
        print(f"perfbench: {src / 'reviewpulse'} not found; run from a reviewpulse checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import reviewpulse

    if Path(reviewpulse.__file__).resolve().parent != src / "reviewpulse":
        print(f"perfbench: reviewpulse imported from {reviewpulse.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return src


def child_env(src: Path) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def measure_setup(src: Path) -> float:
    """Median wall seconds of fresh-process cold starts (one warm-up discarded)."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=child_env(src), capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed = time.perf_counter() - t0
        if Path(proc.stdout.strip()).resolve().parent != src / "reviewpulse":
            raise RuntimeError(f"cold start imported {proc.stdout.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def emit_in_child(src: Path, workload: str, seed: int, size: str, out: Path) -> dict:
    """Generate the review dump in a child process, so its memory is not ours."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--emit", "--workload", workload,
         "--seed", str(seed), "--size", size, "--out", str(out)],
        env=child_env(src), capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(op: Callable[[int, bool], float], n: int,
                tracer) -> tuple[list[float], list[float], float]:
    """One warm-up operation, then ``n`` timed ones, one at a time.

    ``op(k, traced)`` runs the operation on input ``k`` and returns its wall
    seconds. The warm-up runs input 0; its output is checked but its time
    is not reported. Without a tracer every timed operation is untraced;
    with one, the first half runs untraced and the second half traced, on
    the same inputs. Returns the untraced and the traced walls, and the
    warm-up's peak RSS growth in MiB: the memory of one operation in a
    fresh process, as a CLI run has it. Later operations add allocator
    fragmentation in arena-sized steps, which is not the program's data.
    """
    import spans

    rss_before = spans.rss_mb()
    op(0, False)
    rss_growth = peak_rss_mb() - rss_before
    if tracer is None:
        return [op(k, False) for k in range(n)], [], rss_growth
    untraced = [op(k, False) for k in range(n - n // 2)]
    with tracer.installed():
        traced = [op(k, True) for k in range(n // 2)]
    return untraced, traced, rss_growth


def timed(call: Callable[[], object]) -> tuple[object, float]:
    t0 = time.perf_counter_ns()
    result = call()
    return result, (time.perf_counter_ns() - t0) / 1e9


def report(names: tuple, values: dict[str, float]) -> dict:
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, *_ in names}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}


def golden_entry(workload: str, size: str, seed: int):
    return load_golden().get(workload, {}).get(size, {}).get(str(seed))


def save_golden(workload: str, size: str, seed: int, entry: object) -> None:
    golden = load_golden()
    golden.setdefault(workload, {}).setdefault(size, {})[str(seed)] = entry
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def traced_layers(tracer, selfs: list[tuple[dict[str, float], float]], extra: Counter) -> dict[str, float]:
    """Mean self time and count per traced operation.

    ``selfs`` holds ``spans.self_times`` of each traced operation.
    """
    import spans

    totals: Counter = Counter()
    for op_selfs, _ in selfs:
        for name, seconds in op_selfs.items():
            totals[spans.layer_metric(name)] += seconds
    totals.update(tracer.counts)
    totals.update(extra)
    n = max(len(selfs), 1)
    layers = {k: v / n for k, v in totals.items()}
    layers.update(tracer.gauges)
    layers["trace.wall_s"] = sum(root for _, root in selfs) / n
    return layers


def traced_op(tracer, call: Callable[[], object], extra: Counter,
              selfs: list) -> tuple[object, float, str | None]:
    """Run ``call`` under the tracer; return its result, wall seconds and a span-check error.

    Counts that need a pass over the analysis are taken after the timing ends.
    """
    import spans

    (result, run_id), wall = timed(lambda: tracer.op(call))
    extra.update(analysis_counts(tracer.analysis))
    tracer.analysis = None
    try:
        selfs.append(spans.self_times(tracer.spans, run_id, round(wall * 1e9)))
    except spans.TraceError as exc:
        return result, wall, str(exc)
    return result, wall, None


def write_spans(tracer, workload: str, seed: int) -> None:
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, run_id in tracer.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "run": run_id}) + "\n")


def analysis_counts(analysis) -> Counter:
    """Counts read from a traced run's analysis after its timing has ended."""
    if analysis is None:
        return Counter()
    return Counter({
        "detect.events_nonzero": len(analysis.nonzero_events()),
        "correlate.rho_undefined": sum(1 for r in analysis.correlations if r.rho is None),
        "correlate.ces": len(analysis.ces),
        "summarize.requests": len(analysis.requests),
    })


def wall_p90(walls: list[float]) -> float:
    """90th percentile of the timed operations' walls, never beyond the slowest."""
    return statistics.quantiles(walls, n=10, method="inclusive")[-1]


def repeat_ratio(bodies_scored: float, reviews: float) -> float:
    """1 - bodies scored / reviews; -1 where no sentence is scored (sweep)."""
    return 1 - bodies_scored / reviews if bodies_scored else -1


def op_failures(records: list[tuple[object, object, str | None]], check: Callable) -> dict[int, str]:
    """Failure message per operation index.

    ``records`` holds (input key, output, error) per operation. An
    operation fails if it raised, if ``check`` rejects its output, or if
    its output differs from the first output for the same input.
    """
    first: dict[object, object] = {}
    for key, output, error in records:
        if error is None:
            first.setdefault(key, output)
    failures = {}
    for i, (key, output, error) in enumerate(records):
        problem = error or check(key, output)
        if problem is None and output != first[key]:
            problem = "output differs from the first run on the same input"
        if problem is not None:
            failures[i] = f"operation {i} ({key}): {problem}"
    return failures


def run_sweep(args) -> dict:
    import spans
    import workloads as wl

    size = wl.SIZES["sweep"][args.size]
    seeds = wl.market_seeds(args.seed, size)
    records: list[tuple[int, object, str | None]] = []
    selfs: list[tuple[dict[str, float], float]] = []
    extra: Counter = Counter()
    tracer = spans.Tracer()

    def op(k: int, traced: bool) -> float:
        market = seeds[k % len(seeds)]
        call = lambda: wl.run_market(market, size)  # noqa: E731
        error = None
        try:
            if traced:
                (analysis, n), wall, error = traced_op(tracer, call, extra, selfs)
            else:
                (analysis, n), wall = timed(call)
        except Exception:
            records.append((market, None, traceback.format_exc()))
            return 0.0
        records.append((market, wl.judge_market(analysis, n, size), error))
        return wall

    untraced, traced, rss = closed_loop(op, size.operations(args.seconds),
                                        tracer if args.trace else None)

    outcomes = {m: o for m, o, err in reversed(records) if err is None}
    digests = [outcomes[m].digest if m in outcomes else None for m in seeds]
    golden = golden_entry("sweep", args.size, args.seed)
    expected = dict(zip(seeds, golden or digests))

    def check(market, outcome):
        if outcome.problems:
            return "; ".join(outcome.problems)
        if outcome.digest != expected[market]:
            return "decision digest differs from the golden"
        return None

    failures = op_failures(records, check)
    result = {"attempted": len(records), "failures": failures, "golden": digests}
    if not args.trace:
        result["metrics"] = {"wall_p90_s": wall_p90(untraced), "peak_rss_growth_mb": rss}
        return result

    layers = traced_layers(tracer, selfs, extra)
    firsts = [outcomes[m] for m in seeds if m in outcomes]
    pairs = size.apps * (size.apps - 1) // 2
    layers.update({
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced[:len(traced)]),
        "metrics.body_repeat_ratio": repeat_ratio(
            layers.get("metrics.bodies_scored", 0), statistics.mean(o.reviews for o in firsts)
        ),
        "pipeline.bundle_identical": -1 if golden is None else int(digests == golden),
        "quality.recall": sum(o.hit for o in firsts) / len(firsts),
        "quality.clean_rate": sum(o.clean for o in firsts) / len(firsts),
        "quality.null_ce_per_pair": sum(o.spurious_ces for o in firsts) / (len(firsts) * pairs),
        "quality.failed_ratio": len(failures) / len(records),
    })
    write_spans(tracer, "sweep", args.seed)
    result["metrics"] = layers
    return result


def run_market_pipeline(args, work: Path, src: Path) -> dict:
    import spans
    import workloads as wl
    from reviewpulse import pipeline
    from reviewpulse.config import MarketConfig

    size = wl.SIZES[args.workload][args.size]
    work.mkdir(parents=True)
    data = work / "reviews.jsonl"
    props = emit_in_child(src, args.workload, args.seed, args.size, data)
    config = MarketConfig(seed=args.seed)
    first, repeat = work / "bundle", work / "repeat"
    records: list[tuple[str, object, str | None]] = []
    selfs: list[tuple[dict[str, float], float]] = []
    extra: Counter = Counter()
    tracer = spans.Tracer()

    def op(k: int, traced: bool) -> float:
        # The warm-up writes the bundle checked in full; every later
        # operation writes a fresh directory that must repeat its bytes.
        out = repeat if records else first
        shutil.rmtree(repeat, ignore_errors=True)
        call = lambda: pipeline.run_pipeline(config, [data], out)  # noqa: E731
        error = None
        try:
            if traced:
                res, wall, error = traced_op(tracer, call, extra, selfs)
            else:
                res, wall = timed(call)
        except Exception:
            records.append((args.workload, None, traceback.format_exc()))
            return 0.0
        output = (res.reviews_accepted, res.reviews_rejected, wl.bundle_hashes(out, res.files))
        if traced and wl.bundle_digest(out, config) != wl.bundle_digest(first, config):
            error = error or "traced decisions differ from the untraced run"
        records.append((args.workload, output, error))
        return wall

    untraced, traced, rss = closed_loop(op, size.operations(args.seconds),
                                        tracer if args.trace else None)

    # The first bundle is checked in full; op_failures holds every other
    # run to its bytes.
    golden = golden_entry(args.workload, args.size, args.seed)
    digest = None
    problems = []
    if records[0][2] is None:
        accepted, rejected, files = records[0][1]
        if accepted != props["reviews"]:
            problems.append(f"accepted {accepted} of {props['reviews']} generated reviews")
        if rejected != 0:
            problems.append(f"{rejected} rejects")
        if not wl.ce_readback_matches(first, config):
            problems.append("ce from events.csv + correlations.csv differs from correlated_events.json")
        digest = wl.bundle_digest(first, config)
        if golden is not None and digest != golden["digest"]:
            problems.append("decision digest differs from the golden")
    failures = op_failures(records, lambda key, output: "; ".join(problems) or None)
    result = {"attempted": len(records), "failures": failures,
              "golden": None if digest is None else {"digest": digest, "bundle": records[0][1][2]}}
    if not args.trace:
        result["metrics"] = {"wall_p90_s": wall_p90(untraced), "peak_rss_growth_mb": rss}
        return result

    layers = traced_layers(tracer, selfs, extra)
    layers.update({
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced[:len(traced)]),
        "metrics.body_repeat_ratio": repeat_ratio(
            layers.get("metrics.bodies_scored", 0), props["reviews"]
        ),
        "pipeline.bytes_written": sum(p.stat().st_size for p in first.iterdir()),
        "pipeline.bundle_identical": -1 if golden is None
        else int(result["golden"] is not None and result["golden"]["bundle"] == golden["bundle"]),
        "quality.null_ce_per_pair": layers.get("correlate.ces", 0) / (props["pairs"] * 3),
        "quality.failed_ratio": len(failures) / len(records),
    })
    write_spans(tracer, args.workload, args.seed)
    result["metrics"] = layers
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's decision digest as the golden")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = package_src()
    if args.emit:
        import workloads as wl

        size = wl.SIZES[args.workload][args.size]
        print(json.dumps(wl.emit_input(args.seed, size, args.out)))
        return 0

    setup_s = None if args.trace else measure_setup(src)
    work = SCRATCH / f"run-{os.getpid()}"
    try:
        if args.workload == "sweep":
            result = run_sweep(args)
        else:
            result = run_market_pipeline(args, work, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["failures"])
    for problem in result["failures"].values():
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.record_golden:
        if failed or args.trace:
            sys.exit("perfbench: not recording a golden from a traced or failing run")
        save_golden(args.workload, args.size, args.seed, result["golden"])
    if args.trace:
        metrics = report(PER_LAYER, result["metrics"])
    else:
        metrics = report(END_TO_END, dict(result["metrics"], setup_s=setup_s))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
