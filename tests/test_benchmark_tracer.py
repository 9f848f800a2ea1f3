"""The benchmark's tracer patches pipeline names by hand; they must exist.

``perfbench/spans.py`` replaces names such as ``pipeline.pair_correlations``
with span-recording wrappers, and its traced mode fails with an
AttributeError when one is missing. This guard runs in the test suite, so a
deletion that removes such a name fails here and not only in the benchmark.
"""
from __future__ import annotations

from pathlib import Path


def test_benchmark_tracer_installs_over_the_package(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    with spans.Tracer().installed():
        pass
