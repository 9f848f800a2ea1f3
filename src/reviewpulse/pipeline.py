"""End-to-end orchestration: raw review files to the report bundle.

Stages stay independently runnable (each CLI subcommand reads the previous
stage's report), but ``run_pipeline`` drives them all in memory and writes
the whole bundle:

    rejects.jsonl            per-line parse rejects
    catalog.json             per-app coverage and floor flags
    metrics.csv              event-window metric series (mu, delta)
    metrics_daily.csv        correlation-window metric series
    events.csv               deviation events
    correlations.csv         pairwise correlation classes
    correlated_events.json   correlated events with embedded context
    summary_requests.json    sampled texts and prompt hashes per event
    summaries.json           mock-client summaries (when configured)

Every byte of the bundle is a pure function of the inputs and the config,
seed included; running twice produces identical files.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import MarketConfig
from .correlate import (
    CorrelatedEventRecord,
    CorrelationRecord,
    PairSeries,
    as_pair_series,
    ce_records_to_json,
    detect_correlated_events,
    extract_runs,
    market_correlations,
    pair_correlations,
    write_correlations_csv,
)
from .detect import EventRecord, detect_series, write_events_csv
from .ingest import (
    DatasetError,
    MarketCatalog,
    Reject,
    Review,
    build_catalog,
    catalog_summary,
    parse_reviews,
    rejects_to_jsonl,
)
from .metrics import (
    BodyScore,
    MetricKind,
    ScoredReview,
    TimeWindow,
    WindowStat,
    correlation_points,
    day_sums,
    metric_delta,
    score_reviews,
    utc_midnights,
    window_series,
    window_stats,
    write_metrics_csv,
)
from .sentiment import LexiconScorer, PolarityScorer, load_lexicon
from .summarize import (
    MockSummarizer,
    SummaryRequest,
    build_requests,
    default_template,
    load_template,
    request_report_entry,
    summary_report_entry,
)

# correlation_points, metric_delta and pair_correlations are imported
# though the analysis no longer calls them: every stage function stays
# importable from this module, where tracers such as perfbench/spans.py
# patch stages by name.

__all__ = [
    "BUNDLE_FILES",
    "MarketAnalysis",
    "PipelineResult",
    "analyze_catalog",
    "ce_from_reports",
    "read_review_files",
    "run_pipeline",
]

ALL_METRICS = (MetricKind.COUNT, MetricKind.RATING, MetricKind.POLARITY)

BUNDLE_FILES = (
    "rejects.jsonl",
    "catalog.json",
    "metrics.csv",
    "metrics_daily.csv",
    "events.csv",
    "correlations.csv",
    "correlated_events.json",
    "summary_requests.json",
)


@dataclass(slots=True)
class MarketAnalysis:
    config: MarketConfig
    catalog: MarketCatalog
    span: tuple[date, date] | None
    apps: tuple[str, ...]
    scorer: PolarityScorer
    weekly_stats: dict[tuple[str, MetricKind], list[WindowStat]] = field(default_factory=dict)
    daily_stats: dict[tuple[str, MetricKind], list[WindowStat]] = field(default_factory=dict)
    events: dict[tuple[str, MetricKind], list[EventRecord]] = field(default_factory=dict)
    pair_series: list[PairSeries] = field(default_factory=list)
    ces: list[CorrelatedEventRecord] = field(default_factory=list)
    requests: list[SummaryRequest] = field(default_factory=list)
    # Per-body sentence scores and per-app timestamps, filled as needed.
    bodies: dict[str, BodyScore] = field(default_factory=dict, repr=False)
    timestamps: dict[str, list[datetime]] = field(default_factory=dict, repr=False)

    @property
    def correlations(self) -> list[CorrelationRecord]:
        """Every pair series as per-window records, in report order."""
        return [record for series in self.pair_series for record in series.records()]

    def all_events(self) -> list[EventRecord]:
        out: list[EventRecord] = []
        for key in sorted(self.events, key=lambda k: (k[0], k[1].value)):
            out.extend(self.events[key])
        return out

    def nonzero_events(self) -> list[EventRecord]:
        return [e for e in self.all_events() if e.e != 0]

    def window_scored(self, app_id: str, window: TimeWindow) -> list[ScoredReview]:
        """App reviews inside a window, in canonical order, sentences scored.

        The window's reviews are found by bisection on the app's sorted
        timestamps; only they are scored.
        """
        reviews = self.catalog.reviews[app_id] if app_id in self.apps else ()
        stamps = self.timestamps.get(app_id)
        if stamps is None:
            stamps = self.timestamps[app_id] = [r.timestamp for r in reviews]
        opening = datetime.combine(window.start, time(), tzinfo=timezone.utc)
        lo = bisect_left(stamps, opening)
        hi = bisect_left(stamps, opening + timedelta(days=window.days), lo)
        return score_reviews(reviews[lo:hi], self.scorer, self.config.scales, self.bodies)


def _derive_span(config: MarketConfig, catalog: MarketCatalog, apps: Sequence[str]) -> tuple[date, date] | None:
    starts = [catalog.coverage[a].first for a in apps]
    ends = [catalog.coverage[a].last for a in apps]
    if not starts:
        if config.span_start is not None and config.span_end is not None:
            return config.span_start, config.span_end
        return None
    span_start = config.span_start or min(starts).astimezone(timezone.utc).date()
    span_end = config.span_end or (max(ends).astimezone(timezone.utc).date() + timedelta(days=1))
    if span_start >= span_end:
        return None
    return span_start, span_end


def analyze_catalog(
    config: MarketConfig,
    catalog: MarketCatalog,
    metrics: Sequence[MetricKind] = ALL_METRICS,
) -> MarketAnalysis:
    """Run every analysis stage over an in-memory catalog.

    Each app's reviews are summed per UTC day once; both window grids sum
    from those day sums. Sentences are scored where the polarity metric
    needs them, and for the reviews of correlated-event windows, whose
    summary requests sample sentences by polarity whatever the metric.
    The catalog's reviews must be in canonical order, as ``build_catalog``
    leaves them.
    """
    scorer = LexiconScorer(
        load_lexicon(config.lexicon_path) if config.lexicon_path else None
    )
    apps = tuple(
        a
        for a in catalog.apps
        if not (config.exclude_insufficient and catalog.coverage[a].insufficient)
    )
    span = _derive_span(config, catalog, apps)
    analysis = MarketAnalysis(config=config, catalog=catalog, span=span, apps=apps, scorer=scorer)
    if span is None:
        return analysis

    span_start, span_end = span
    weekly = window_series(span_start, span_end, config.event_window_days)
    daily = window_series(span_start, span_end, config.correlation_window_days)
    baseline_start = config.baseline_start or span_start
    midnights = utc_midnights(span_start, (span_end - span_start).days)

    # Daily points per metric, one row per app, NaN where the mean is missing.
    points: dict[MetricKind, list[list[float]]] = {metric: [] for metric in metrics}
    for app in apps:
        days = day_sums(catalog.reviews[app], midnights, metrics, scorer, config.scales, analysis.bodies)
        for metric in metrics:
            wstats = window_stats(app, days, weekly, metric)
            dstats = window_stats(app, days, daily, metric)
            analysis.weekly_stats[(app, metric)] = wstats
            analysis.daily_stats[(app, metric)] = dstats
            analysis.events[(app, metric)] = detect_series(
                wstats,
                baseline_start,
                config.sensitivity,
                min_baseline=config.min_baseline,
                mode=config.sigma_mode,
            )
            points[metric].append([math.nan if s.mu is None else s.mu for s in dstats])

    for metric in sorted(metrics, key=lambda m: m.value):
        analysis.pair_series.extend(
            market_correlations(
                apps,
                metric,
                np.array(points[metric], dtype=np.float64).reshape(len(apps), len(daily)),
                daily,
                config.lookback_days,
                config.correlation_threshold,
                min_points=config.min_corr_points,
            )
        )

    analysis.ces = ce_from_reports(
        analysis.all_events(), analysis.pair_series, config.event_window_days
    )
    analysis.requests = build_requests(
        analysis.ces, analysis.window_scored, config.sample_size, config.seed
    )
    return analysis


def ce_from_reports(
    events: Iterable[EventRecord],
    correlations: Iterable[CorrelationRecord | PairSeries],
    event_window_days: int,
) -> list[CorrelatedEventRecord]:
    """Correlated events recomputed purely from events plus correlations.

    This is the only path to CE records; the ``ce`` subcommand feeds it
    per-window records from the CSV dumps and gets byte-identical results
    to a full run, which passes whole pair series.
    """
    events_by_series: dict[tuple[str, MetricKind], list[EventRecord]] = {}
    firing: set[tuple[str, MetricKind]] = set()
    for record in events:
        key = (record.app_id, record.metric)
        events_by_series.setdefault(key, []).append(record)
        if record.e != 0:
            firing.add(key)

    ces: list[CorrelatedEventRecord] = []
    for series in sorted(as_pair_series(correlations), key=lambda s: (s.metric.value, s.app_i, s.app_j)):
        key_i = (series.app_i, series.metric)
        key_j = (series.app_j, series.metric)
        if key_i not in firing or key_j not in firing:
            continue  # a CE needs a nonzero event from each app
        runs = extract_runs(series, event_window_days)
        if not runs:
            continue
        ces.extend(detect_correlated_events(events_by_series[key_i], events_by_series[key_j], runs))
    return ces


@dataclass(slots=True)
class PipelineResult:
    out_dir: Path
    files: tuple[str, ...]
    reviews_accepted: int
    reviews_rejected: int
    apps: int
    events_nonzero: int
    correlated_events: int
    summary_requests: int


def read_review_files(
    paths: Sequence[str | Path],
    fmt: str,
    config: MarketConfig,
) -> tuple[list[Review], list[Reject]]:
    """Parse and pool every input file (multi-source inputs concatenate)."""
    reviews: list[Review] = []
    rejects: list[Reject] = []
    for path in paths:
        p = Path(path)
        if not p.is_file():
            raise DatasetError(f"input file not found: {p}")
        try:
            raw = p.read_bytes()
        except OSError as exc:
            raise DatasetError(f"cannot read {p}: {exc}") from exc
        file_reviews, file_rejects = parse_reviews(raw, fmt=fmt, scales=config.scales)
        reviews.extend(file_reviews)
        rejects.extend(file_rejects)
    return reviews, rejects


def _write(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text, encoding="utf-8", newline="")


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_bundle(
    analysis: MarketAnalysis,
    rejects: Sequence[Reject],
    out_dir: str | Path,
) -> PipelineResult:
    """Write every report file for an analysis (reports exist even when empty)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = analysis.config

    _write(out, "rejects.jsonl", rejects_to_jsonl(rejects))
    _write(out, "catalog.json", _json_text(catalog_summary(analysis.catalog)))

    weekly_flat = [s for key in sorted(analysis.weekly_stats, key=lambda k: (k[0], k[1].value)) for s in analysis.weekly_stats[key]]
    daily_flat = [s for key in sorted(analysis.daily_stats, key=lambda k: (k[0], k[1].value)) for s in analysis.daily_stats[key]]
    _write(out, "metrics.csv", write_metrics_csv(weekly_flat))
    _write(out, "metrics_daily.csv", write_metrics_csv(daily_flat))
    _write(out, "events.csv", write_events_csv(analysis.all_events()))
    _write(out, "correlations.csv", write_correlations_csv(analysis.pair_series))
    _write(out, "correlated_events.json", ce_records_to_json(analysis.ces))

    template = (
        load_template(config.prompt_template_path)
        if config.prompt_template_path
        else default_template()
    )
    _write(
        out,
        "summary_requests.json",
        _json_text([request_report_entry(r, template) for r in analysis.requests]),
    )
    files = list(BUNDLE_FILES)
    if config.summarizer == "mock":
        client = MockSummarizer()
        _write(
            out,
            "summaries.json",
            _json_text([summary_report_entry(r, client, template) for r in analysis.requests]),
        )
        files.append("summaries.json")

    return PipelineResult(
        out_dir=out,
        files=tuple(files),
        reviews_accepted=sum(len(v) for v in analysis.catalog.reviews.values()),
        reviews_rejected=len(rejects),
        apps=len(analysis.apps),
        events_nonzero=len(analysis.nonzero_events()),
        correlated_events=len(analysis.ces),
        summary_requests=len(analysis.requests),
    )


def run_pipeline(
    config: MarketConfig,
    inputs: Sequence[str | Path],
    out_dir: str | Path,
    fmt: str = "jsonl",
) -> PipelineResult:
    """Parse inputs, run every stage, and write the report bundle."""
    reviews, rejects = read_review_files(inputs, fmt, config)
    catalog = build_catalog(reviews, monthly_floor=config.monthly_floor)
    analysis = analyze_catalog(config, catalog)
    return write_bundle(analysis, rejects, out_dir)
