"""The benchmark's tracer patches pipeline names by hand; they must exist.

``perfbench/spans.py`` replaces names such as ``pipeline.pair_correlations``
with span-recording wrappers, and its traced mode fails with an
AttributeError when one is missing. These guards run in the test suite, so a
deletion that removes such a name, or a change that moves a layer out of
the tracer's sight, fails here and not only in the benchmark.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_over_the_package(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    with spans.Tracer().installed():
        pass


def test_a_traced_run_still_sees_the_correlation_layer() -> None:
    # A tiny traced wide run (about 1.5 s). The run count is summed over
    # every extract_runs call, and the undefined-rho count is read from the
    # analysis' correlations view after the operation's root span closes,
    # so a span opened there would fail the run.
    command = [sys.executable, "perfbench/run.py", "--workload", "wide", "--size", "tiny",
               "--seed", "0", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"] is True and result["failed"] == 0
    assert metrics["correlate.runs_s"] > 0
    assert metrics["correlate.runs"] == 103
    assert metrics["correlate.rho_undefined"] == 1399
