"""Record the benchmark's baseline and the scaling probe in baseline.json.

    python3 perfbench/baseline.py

Run from the root of a reviewpulse checkout. For every workload, at seed 0
and BENCHMARK.json's ``run_seconds``, it records the input properties, one
untraced run (end-to-end metrics) and one traced run (per-layer metrics).
The scaling probe, which is not part of the repeated runs, times traced
``wide`` markets at three app counts and traced ``long`` markets at three
span lengths, and reports log-log slopes (median over rounds that each run
all three sizes back to back):

    scale.correlate_apps_exponent   correlate.{pair,runs,intersect} self time vs apps
    scale.detect_span_exponent      detect.series self time vs weeks
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = Path(".perfbench")
SEED = 0
PROBE_ROUNDS = 5
CORRELATE_LAYERS = ("correlate.pair", "correlate.runs", "correlate.intersect")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} trace {trace} failed: {proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def probe(workload: str, sizes: list, seed: int, layers: tuple[str, ...]) -> list[list[float]]:
    """Self seconds of ``layers`` at each size, one list per round.

    Each round runs every size back to back, traced, so that one round sees
    one machine speed.
    """
    import spans
    import workloads as wl
    from reviewpulse import pipeline
    from run import timed
    from reviewpulse.config import MarketConfig

    config = MarketConfig(seed=seed)
    bundle = SCRATCH / "probe-bundle"
    data = [SCRATCH / f"probe-{workload}-{i}.jsonl" for i in range(len(sizes))]
    tracer = spans.Tracer()
    rounds = []
    try:
        for size, path in zip(sizes, data):
            wl.emit_input(seed, size, path)
        with tracer.installed():
            for _ in range(PROBE_ROUNDS):
                seconds = []
                for path in data:
                    (_, run_id), wall = timed(
                        lambda: tracer.op(lambda: pipeline.run_pipeline(config, [path], bundle))
                    )
                    selfs, _ = spans.self_times(tracer.spans, run_id, round(wall * 1e9))
                    seconds.append(sum(selfs.get(name, 0.0) for name in layers))
                rounds.append(seconds)
    finally:
        for path in data:
            path.unlink(missing_ok=True)
        shutil.rmtree(bundle, ignore_errors=True)
    return rounds


def scaling_probe(seed: int) -> dict:
    import workloads as wl

    wide = wl.SIZES["wide"]["full"]
    long = wl.SIZES["long"]["full"]
    apps = [10, 20, 30]
    weeks = [52, 104, 208]
    correlate = probe("wide", [replace(wide, apps=a) for a in apps], seed, CORRELATE_LAYERS)
    detect = probe("long", [replace(long, weeks=w) for w in weeks], seed, ("detect.series",))
    return {
        "scale.correlate_apps_exponent": statistics.median(slope(apps, r) for r in correlate),
        "scale.detect_span_exponent": statistics.median(slope(weeks, r) for r in detect),
        "points": {
            "wide_correlate_s_by_apps": {
                str(a): statistics.median(r[i] for r in correlate) for i, a in enumerate(apps)
            },
            "long_detect_s_by_weeks": {
                str(w): statistics.median(r[i] for r in detect) for i, w in enumerate(weeks)
            },
        },
    }


def input_record(workload: str, seed: int) -> dict:
    import workloads as wl
    from reviewpulse import synth

    size = wl.SIZES[workload]["full"]
    if workload == "sweep":
        reviews, _ = synth.generate(wl.sweep_scenario(wl.market_seeds(seed, size)[0], size))
        return dict(wl.input_properties(reviews, size), markets_per_pass=size.markets)
    reviews, _ = synth.generate(wl.market_scenario(seed, size))
    return wl.input_properties(reviews, size)


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    sys.path.insert(0, str(BENCH_DIR))
    from run import WORKLOADS, package_src

    package_src()
    SCRATCH.mkdir(exist_ok=True)
    started = time.time()
    record = {
        "machine": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        per_layer = bench(workload, SEED, seconds, 1)
        inputs = input_record(workload, SEED)
        # Scoring caches repeats per app, so this is the share of reviews
        # whose body repeats one already scored for the same app. It does
        # not apply where nothing is scored (sweep, -1).
        if per_layer["metrics.body_repeat_ratio"] >= 0:
            inputs["metrics.body_repeat_ratio"] = per_layer["metrics.body_repeat_ratio"]
        record["workloads"][workload] = {
            "inputs": inputs,
            "end_to_end": bench(workload, SEED, seconds, 0),
            "per_layer": per_layer,
        }
        print(f"{workload}: done", file=sys.stderr)
    record["scale"] = scaling_probe(SEED)
    record["elapsed_s"] = time.time() - started
    (BENCH_DIR / "baseline.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(record["scale"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
