"""Layer spans for reviewpulse, recorded from outside the package.

The package is not instrumented. Instead, ``Tracer.installed()`` replaces
the public names that ``reviewpulse.pipeline`` (and ``synth``, ``ingest``,
``metrics``) look up at call time with wrappers that record a span per
call: name, start, end, parent span and run id. Spans stay in memory; a
layer's self time is its span time minus the time its child spans cover.
Leaving the context manager puts every original back.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from reviewpulse import ingest, metrics, pipeline, synth

ROOT = "bench.op"
# Share of an operation's time its root span may miss: the wrapper's set-up,
# and a garbage collection that an allocation there may trigger.
WALL_SLACK = 0.02

# (module or class, attribute, span name). The self time of span "x.y" is
# reported as the per-layer metric "x.y_s"; see ``SELF_TIME_METRIC``.
SPANNED: tuple[tuple[object, str, str], ...] = (
    (synth, "generate", "synth.generate"),
    (pipeline, "run_pipeline", "pipeline.run"),
    (pipeline, "read_review_files", "ingest.parse"),
    (pipeline, "build_catalog", "ingest.catalog"),
    (ingest, "build_catalog", "ingest.catalog"),
    (pipeline, "analyze_catalog", "pipeline.analyze"),
    (pipeline, "score_reviews", "metrics.score"),
    (pipeline, "window_stats", "metrics.window_stats"),
    (pipeline, "metric_delta", "metrics.delta"),
    (pipeline, "correlation_points", "metrics.delta"),
    (pipeline, "detect_series", "detect.series"),
    (pipeline, "pair_correlations", "correlate.pair"),
    (pipeline, "ce_from_reports", "pipeline.ce"),
    (pipeline, "extract_runs", "correlate.runs"),
    (pipeline, "detect_correlated_events", "correlate.intersect"),
    (pipeline, "build_requests", "summarize.requests"),
    (pipeline.MarketAnalysis, "window_scored", "summarize.window_scan"),
    (pipeline, "write_bundle", "pipeline.write"),
    (pipeline, "write_correlations_csv", "pipeline.write_correlations"),
    (pipeline, "summary_report_entry", "pipeline.summaries"),
)

SELF_TIME_METRIC = {
    ROOT: "bench.glue_s",
    "pipeline.run": "pipeline.run_self_s",
    "pipeline.analyze": "pipeline.analyze_self_s",
}

# Counts taken from a wrapped call's result, inside its span.
_COUNTED: dict[str, Callable[[Counter, object], None]] = {
    "ingest.parse": lambda c, res: c.update(
        {"ingest.lines": len(res[0]) + len(res[1]), "ingest.rejects": len(res[1])}
    ),
    "metrics.window_stats": lambda c, res: c.update({"metrics.window_stats_calls": 1}),
    "detect.series": lambda c, res: c.update({"detect.windows_judged": len(res)}),
    "correlate.pair": lambda c, res: c.update({"correlate.pair_calls": 1, "correlate.records": len(res)}),
    "correlate.runs": lambda c, res: c.update({"correlate.runs": len(res)}),
    "summarize.window_scan": lambda c, res: c.update({"summarize.window_scan_calls": 1}),
}

# Resident set size is sampled when these spans close.
_RSS_AFTER = {
    "ingest.parse": "rss.after_parse_mb",
    "pipeline.analyze": "rss.after_analyze_mb",
    "pipeline.write": "rss.after_write_mb",
}

_PAGE_MB = resource.getpagesize() / 2**20


def rss_mb() -> float:
    """Current resident set size in MiB (peak so far where /proc is absent)."""
    try:
        return int(Path("/proc/self/statm").read_text().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class TraceError(Exception):
    """Recorded spans do not nest, or do not cover the operation's time."""


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent index or -1, run id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.analysis: pipeline.MarketAnalysis | None = None
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTED.get(name)
        gauge = _RSS_AFTER.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, result)
                if gauge is not None:
                    self.gauges[gauge] = rss_mb()
                if name == "pipeline.analyze":
                    self.analysis = result
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count_calls(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Route the package's layer calls through span-recording wrappers."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in SPANNED]
        saved.append((metrics, "score_review", metrics.score_review))
        try:
            for owner, attr, name in SPANNED:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            # One call per distinct body: score_reviews caches repeats.
            metrics.score_review = self._count_calls(metrics.score_review, "metrics.bodies_scored")
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def op(self, fn: Callable[[], object]) -> tuple[object, int]:
        """Run one operation under a fresh root span; return (result, run id)."""
        self.run_id += 1
        return self._wrap(fn, ROOT)(), self.run_id


def self_times(spans: list[list], run_id: int, wall_ns: int) -> tuple[dict[str, float], float]:
    """Self seconds per span name for one run, and the root span's seconds.

    ``wall_ns`` is the operation's time as measured outside the tracer.
    Raises ``TraceError`` unless every span lies inside its parent, siblings
    do not overlap, and the self times add up to ``wall_ns`` less the
    wrappers' own cost (at most ``WALL_SLACK`` of it, plus 1 ms).
    """
    index = [i for i, s in enumerate(spans) if s[4] == run_id]
    roots = [i for i in index if spans[i][3] == -1]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        raise TraceError(f"run {run_id}: expected one {ROOT} root span, got {len(roots)}")
    child_ns: Counter = Counter()
    last_end: dict[int, int] = {}
    for i in index:
        name, start, end, parent, _ = spans[i]
        if end < start:
            raise TraceError(f"run {run_id}: span {name} ends before it starts")
        if parent == -1:
            continue
        p = spans[parent]
        if p[4] != run_id or start < p[1] or end > p[2]:
            raise TraceError(f"run {run_id}: span {name} is not inside its parent {p[0]}")
        if start < last_end.get(parent, p[1]):
            raise TraceError(f"run {run_id}: span {name} overlaps a sibling under {p[0]}")
        last_end[parent] = end
        child_ns[parent] += end - start
    self_ns: Counter = Counter()
    for i in index:
        name, start, end = spans[i][:3]
        self_ns[name] += end - start - child_ns[i]
    root = spans[roots[0]]
    gap = wall_ns - sum(self_ns.values())
    if not 0 <= gap <= WALL_SLACK * wall_ns + 1_000_000:
        raise TraceError(
            f"run {run_id}: self times add up to {sum(self_ns.values())} ns "
            f"of a {wall_ns} ns operation"
        )
    return {k: v / 1e9 for k, v in self_ns.items()}, (root[2] - root[1]) / 1e9


def layer_metric(span_name: str) -> str:
    return SELF_TIME_METRIC.get(span_name, span_name + "_s")
