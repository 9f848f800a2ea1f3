"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Run from the root of a reviewpulse checkout. For each workload and each
``--trace`` value it runs ``perfbench/run.py --size tiny`` and checks that
the result line has exactly the contract's keys, that every metric named
in BENCHMARK.json is printed with its unit, and that no operation failed.
It then checks that the benchmark refuses to run (non-zero exit, no
result line) in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = Path(".perfbench")


def run(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"])
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {proc.stderr.strip()[-500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(wanted) - set(printed))}, extra "
                        f"{sorted(set(printed) - set(wanted))}, units "
                        f"{sorted(n for n in wanted if printed.get(n, wanted[n]) != wanted[n])}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name} is not a number")
        elif not trace and metric["value"] <= 0:
            problems.append(f"end-to-end metric {name} is {metric['value']}")
    return problems


def check_bare_directory(spec_path: Path) -> list[str]:
    bare = SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(spec_path, bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
             "--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without the package: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec_path = Path("BENCHMARK.json")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(spec, workload, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = check_bare_directory(spec_path)
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without src/reviewpulse")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
