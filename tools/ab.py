"""Time one pipeline stage of two versions of reviewpulse in one process.

    python3 tools/ab.py --stage aggregate --workload desk
    python3 tools/ab.py --base HEAD~1 --change HEAD --stage run_pipeline --workload wide --rounds 20

Each side is ``src/reviewpulse`` at a git ref, ``worktree`` (the files on
disk now) or the path of a package directory. It is copied into a
temporary directory under its own name (``ab_base``, ``ab_change``) and
imported from there; the package loads its data through
``resources.files(__package__)``, so each copy reads its own. The input is
the perfbench workload's review dump for the seed, written by
``perfbench/run.py --emit`` in a child process, or a given JSONL file.

Each side builds what the stage takes once (a catalog, an analysis, or
for ``read_stages`` the bundle whose day_sums.csv, events.csv and
correlations.csv it reads through ``pipeline.read_stage``), on its own
code. Per round each side then runs the stage best of k, and the
side that goes first alternates by round. A round's ratio is the change's
best over the base's. The report gives each side's median best, the
median ratio and its interquartile range, the rounds the change was
faster in, a two-sided sign-test p-value, a verdict at the 5% level, and
each side's tracemalloc peak of one call, traced apart from the timed
calls. Fresh-process measures (``ru_maxrss`` growth, cold starts) are out
of its reach.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/reviewpulse"
WORKLOADS = ("desk", "wide", "long")


def export(side: str, root: Path, dest: Path) -> None:
    """Put the package of ``side`` (a git ref, ``worktree`` or a package
    directory) at ``dest``.

    A version that loads its data through ``resources.files("reviewpulse")``
    gets ``__package__`` there instead, so that its copy reads its own.
    """
    if side == "worktree" or Path(side).is_dir():
        source = root / PACKAGE if side == "worktree" else Path(side)
        shutil.copytree(source, dest, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    else:
        tar = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", side, PACKAGE],
                             check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            for member in archive.getmembers():
                if member.isfile():
                    target = dest / Path(member.name).relative_to(PACKAGE)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_bytes(archive.extractfile(member).read())
    for module in dest.glob("*.py"):
        text = module.read_text(encoding="utf-8")
        if 'resources.files("reviewpulse")' in text:
            module.write_text(text.replace('resources.files("reviewpulse")', "resources.files(__package__)"),
                              encoding="utf-8")


def emit_input(root: Path, workload: str, size: str, seed: int, out: Path) -> None:
    """Write the workload's review dump with perfbench's emitter, in a child
    process on the work tree's package."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
    subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--emit", "--workload", workload,
                    "--seed", str(seed), "--size", size, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)


def stage_call(package: str, stage: str, data: Path, seed: int, out: Path) -> Callable[[], object]:
    """The no-argument call of ``stage`` on one side, its inputs built."""
    pipeline = importlib.import_module(f"{package}.pipeline")
    config = importlib.import_module(f"{package}.config").MarketConfig(seed=seed)
    if stage == "run_pipeline":
        return lambda: pipeline.run_pipeline(config, [data], out)
    catalog, rejects = pipeline.load_catalog(config, [data])
    if stage == "load_catalog":
        return lambda: pipeline.load_catalog(config, [data])
    if stage == "aggregate":
        return lambda: pipeline.aggregate(config, catalog)
    if stage == "correlate_stats":
        daily = pipeline.aggregate(config, catalog).daily_stats
        return lambda: pipeline.correlate_stats(config, daily)
    analysis = pipeline.analyze_catalog(config, catalog)
    if stage == "ce_from_reports":
        return lambda: pipeline.ce_from_reports(analysis.nonzero_events(), analysis.runs, config.event_window_days)
    if stage == "summary_requests":
        return lambda: analysis.summary_requests(analysis.ces)
    if stage == "write_bundle":
        return lambda: pipeline.write_bundle(analysis, rejects, out)
    if stage == "read_stages":  # the side's own bundle, written once, read back as the CLI stages read it
        pipeline.write_bundle(analysis, rejects, out)
        metrics, detect, correlate = (importlib.import_module(f"{package}.{name}")
                                      for name in ("metrics", "detect", "correlate"))
        reads = [(metrics.read_day_sums_csv, "day_sums.csv"),
                 (detect.read_events_csv, "events.csv", config.event_window_days, config.sensitivity),
                 (correlate.read_correlations_csv, "correlations.csv", config.correlation_window_days)]
        return lambda: [pipeline.read_stage(parse, out / name, *args) for parse, name, *args in reads]
    raise ValueError(f"unknown stage {stage!r}")


STAGES = ("load_catalog", "aggregate", "correlate_stats", "ce_from_reports", "summary_requests", "write_bundle",
          "read_stages", "run_pipeline")


def best_of(call: Callable[[], object], k: int) -> float:
    gc.collect()
    times = []
    for _ in range(k):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def traced_peak(call: Callable[[], object]) -> float:
    """MiB traced at the peak of one call, above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def sign_test(wins: int, n: int) -> float:
    """Two-sided sign-test p-value of ``wins`` out of ``n`` untied rounds."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, n - wins) + 1))
    return min(1.0, 2 * tail / 2**n)


def compare(base: Callable[[], object], change: Callable[[], object], rounds: int, k: int) -> dict:
    ratios, bests = [], {"base": [], "change": []}
    for r in range(rounds):
        for name in (("base", "change") if r % 2 == 0 else ("change", "base")):
            bests[name].append(best_of(base if name == "base" else change, k))
        ratios.append(bests["change"][-1] / bests["base"][-1])
    wins = sum(ratio < 1 for ratio in ratios)
    untied = sum(ratio != 1 for ratio in ratios)
    p = sign_test(wins, untied)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    verdict = "no difference" if p >= 0.05 else ("faster" if wins > untied - wins else "slower")
    return {"rounds": rounds, "best_of": k, "ratios": [round(x, 4) for x in ratios], "median_ratio": median,
            "iqr": q3 - q1, "change_wins": wins, "p_value": p, "verdict": verdict,
            "median_s": {name: statistics.median(times) for name, times in bests.items()}}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git ref, 'worktree' or package directory (default HEAD)")
    parser.add_argument("--change", default="worktree", help="git ref, 'worktree' or package directory")
    parser.add_argument("--stage", choices=STAGES, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, default="desk")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--input", type=Path, help="review JSONL to use instead of the workload's dump")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--best-of", type=int, default=5)
    parser.add_argument("--root", type=Path, default=ROOT, help="repository the refs and the work tree belong to")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        work = Path(tmp)
        data = args.input
        if data is None:
            data = work / "reviews.jsonl"
            emit_input(args.root, args.workload, args.size, args.seed, data)
        sys.path.insert(0, str(work))
        calls = {}
        for name, side in (("base", args.base), ("change", args.change)):
            export(side, args.root, work / f"ab_{name}")
            calls[name] = stage_call(f"ab_{name}", args.stage, data, args.seed, work / f"out_{name}")
        result = compare(calls["base"], calls["change"], args.rounds, args.best_of)
        result.update({"stage": args.stage, "input": args.workload if args.input is None else str(args.input),
                       "base": args.base, "change": args.change,
                       "peak_mib": {name: round(traced_peak(call), 3) for name, call in calls.items()}})
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
