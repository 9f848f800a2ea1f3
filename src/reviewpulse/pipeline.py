"""The stage graph: raw review files to the report bundle.

Every stage has one function, called through this module by both the
library and the CLI:

    load_catalog      parse the input files and build the market catalog
    aggregate         sum each app per UTC day, fill both grids' metric series
    series_stats      one grid's metric series of every app, from day sums
    detect_events     deviation events of every event-window series
    correlate_stats   every app pair's correlation series per metric
    ce_from_reports   correlated events from events plus correlation series
    build_requests    summary requests for the correlated events

The one intermediate is each app's ``metrics.DaySums``: integer totals
per UTC day of the span that all apps share. ``aggregate`` builds them from
the reviews, and the ``detect`` and ``correlate`` subcommands read them from
day_sums.csv; both then build their series through ``series_stats``, on the
grid width of the config at hand, so the CLI chain and the library run the
same code after the day sums. Each (app, metric) series is one
``metrics.SeriesStats``: columns over a window grid that all its series
share. ``detect_events`` builds rows only for event windows.

``analyze_catalog`` chains aggregate through the requests in memory, and
``run_pipeline`` adds parsing before and the bundle after. Each CLI
subcommand is a thin adapter: it reads its stage file with ``read_stage``,
calls one stage function and writes through the writers here
(``write_file``, ``write_intake``, ``write_metrics``, ``write_requests``).
This module decides which files a stage writes, the order series are
written in and which prompt template is used. Each file's format is
decided in the module of its records: ``ingest`` (rejects, catalog),
``metrics``, ``detect``, ``correlate`` (correlations, correlated events)
and ``summarize`` (summary requests and summaries). The bundle:

    rejects.jsonl            per-line parse rejects
    catalog.json             per-app coverage and floor flags
    day_sums.csv             per-app, per-day totals: the stage intermediate
    metrics.csv              event-window metric series (mu, delta, n_obs)
    metrics_daily.csv        correlation-window metric series (one grid)
    events.csv               deviation events
    correlations.csv         pairwise correlation classes
    correlated_events.json   correlated events with embedded context
    summary_requests.json    sampled texts and prompt hashes per event
    summaries.json           mock-client summaries (when configured)

The metrics CSVs are reports only: no stage reads them back.
``write_file`` writes a file from text chunks through one handle; the
CSVs of day sums and series (metrics, metrics_daily, correlations) come
one chunk per app or series, so no file's whole text is held. Every byte
of the bundle is a pure function of the inputs and the config, seed
included; running twice produces identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .config import MarketConfig
from .correlate import (
    CorrelatedEventRecord,
    CorrelationRecord,
    PairSeries,
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
    ReviewTable,
    build_catalog,
    catalog_summary,
    json_text,
    parse_reviews,
    rejects_to_jsonl,
)
from .metrics import (
    BodyScore,
    DaySums,
    MetricKind,
    SeriesStats,
    TimeWindow,
    correlation_points,
    day_sums,
    metric_delta,
    score_bodies,
    score_reviews,
    utc_midnights,
    window_series,
    window_stats,
    write_day_sums_csv,
    write_metrics_csv,
)
from .sentiment import LexiconScorer, load_lexicon
from .summarize import (
    MockSummarizer,
    SummaryRequest,
    build_prompt,
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
    "aggregate",
    "analyze_catalog",
    "ce_from_reports",
    "correlate_stats",
    "detect_events",
    "in_report_order",
    "json_text",
    "load_catalog",
    "new_analysis",
    "read_review_files",
    "read_stage",
    "run_pipeline",
    "series_stats",
    "write_bundle",
    "write_file",
    "write_intake",
    "write_metrics",
    "write_requests",
]

ALL_METRICS = (MetricKind.COUNT, MetricKind.RATING, MetricKind.POLARITY)

BUNDLE_FILES = (
    "rejects.jsonl",
    "catalog.json",
    "day_sums.csv",
    "metrics.csv",
    "metrics_daily.csv",
    "events.csv",
    "correlations.csv",
    "correlated_events.json",
    "summary_requests.json",
)

T = TypeVar("T")
SeriesKey = tuple[str, MetricKind]


def in_report_order(by_series: Mapping[SeriesKey, T]) -> list[T]:
    """Every series' value, series ordered by app id, then metric name."""
    return [by_series[key] for key in sorted(by_series, key=lambda k: (k[0], k[1].value))]


@dataclass(slots=True)
class MarketAnalysis:
    config: MarketConfig
    catalog: MarketCatalog
    apps: tuple[str, ...]
    scorer: LexiconScorer
    day_sums: dict[str, DaySums] = field(default_factory=dict)
    weekly_stats: dict[SeriesKey, SeriesStats] = field(default_factory=dict)
    daily_stats: dict[SeriesKey, SeriesStats] = field(default_factory=dict)
    events: dict[SeriesKey, list[EventRecord]] = field(default_factory=dict)
    pair_series: list[PairSeries] = field(default_factory=list)
    ces: list[CorrelatedEventRecord] = field(default_factory=list)
    requests: list[SummaryRequest] = field(default_factory=list)
    # Each scored body's sentence bins (metrics.score_bodies), and no text:
    # aggregate fills it for the polarity metric, and window_scored scores
    # into it only the window bodies it lacks.
    bodies: dict[str, bytes] = field(default_factory=dict, repr=False)

    @property
    def correlations(self) -> list[CorrelationRecord]:
        """Every pair series as per-window records, in report order."""
        return [record for series in self.pair_series for record in series.records()]

    def all_events(self) -> list[EventRecord]:
        return [e for records in in_report_order(self.events) for e in records]

    def nonzero_events(self) -> list[EventRecord]:
        return [e for e in self.all_events() if e.e != 0]

    def window_scored(self, app_id: str, window: TimeWindow) -> list[tuple[str, BodyScore]]:
        """The bodies of the app's reviews inside a window, in canonical
        order, each with its scored sentences.

        The window's bodies are cut from the app's ``body`` column by
        bisection on its stamps; no ``Review`` is built. Their sentence
        bins come from ``bodies``, so a body the day sums scored is not
        scored again.
        """
        if app_id not in self.apps:
            return []
        reviews = self.catalog.reviews[app_id]
        lo, hi = np.searchsorted(reviews.stamp_us, utc_midnights(window.start, window.days)[[0, -1]]).tolist()
        bodies = reviews.body[lo:hi].tolist()
        return list(zip(bodies, score_reviews(bodies, self.scorer, self.bodies)))


def _derive_span(config: MarketConfig, catalog: MarketCatalog, apps: Sequence[str]) -> tuple[date, date] | None:
    """The config's span, its open ends taken from the apps' coverage; None
    when there is no app or the span holds no day."""
    if not apps:
        return None
    span_start = config.span_start or min(catalog.coverage[a].first for a in apps).date()  # coverage stamps are UTC
    span_end = config.span_end or max(catalog.coverage[a].last for a in apps).date() + timedelta(days=1)
    return (span_start, span_end) if span_start < span_end else None


def read_stage(parse: Callable[..., T], path: str | Path, *args: object) -> T:
    """``parse(text, *args)`` over an input or stage file's UTF-8 text.

    A missing or unreadable file, or one that is not UTF-8 or does not
    parse (a count beyond int64 or nesting too deep included), is a dataset
    error.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"input file not found: {p}")
    try:
        text = p.read_bytes().decode("utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{p} is not valid UTF-8: {exc}") from exc
    try:
        return parse(text, *args)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, csv.Error) as exc:
        raise DatasetError(f"{p}: {exc}") from exc


def read_review_files(
    paths: Sequence[str | Path],
    fmt: str,
    config: MarketConfig,
) -> tuple[ReviewTable, list[Reject]]:
    """Parse and pool every input file (multi-source inputs concatenate)."""
    tables: list[ReviewTable] = []
    rejects: list[Reject] = []
    for path in paths:
        file_reviews, file_rejects = read_stage(parse_reviews, path, fmt, config.scales)
        tables.append(file_reviews)
        rejects.extend(file_rejects)
    return ReviewTable.concat(tables), rejects


def load_catalog(
    config: MarketConfig, inputs: Sequence[str | Path], fmt: str = "jsonl"
) -> tuple[MarketCatalog, list[Reject]]:
    """Parse every input file and build the market catalog; rejects beside it."""
    reviews, rejects = read_review_files(inputs, fmt, config)
    return build_catalog(reviews, monthly_floor=config.monthly_floor), rejects


def new_analysis(config: MarketConfig, catalog: MarketCatalog) -> MarketAnalysis:
    """An analysis of the catalog with nothing summed yet: its apps, less
    those flagged insufficient when the config excludes them, and a
    lexicon scorer on the config's lexicon."""
    scorer = LexiconScorer(
        load_lexicon(config.lexicon_path) if config.lexicon_path else None
    )
    apps = tuple(
        a
        for a in catalog.apps
        if not (config.exclude_insufficient and catalog.coverage[a].insufficient)
    )
    return MarketAnalysis(config=config, catalog=catalog, apps=apps, scorer=scorer)


def aggregate(
    config: MarketConfig,
    catalog: MarketCatalog,
    metrics: Sequence[MetricKind] = ALL_METRICS,
) -> MarketAnalysis:
    """A ``new_analysis`` with its event- and correlation-window stats filled.

    Each app's reviews are summed per UTC day of the span once, and the
    analysis keeps those day sums; both window grids sum from them through
    ``series_stats``. Bodies are scored only where the polarity metric
    needs them: every app's distinct bodies in one ``score_bodies`` pass
    before the sums, into the analysis' ``bodies`` memo, which keeps each
    body's sentence bins for the summary requests. The catalog's reviews
    must be in canonical order, as ``build_catalog`` leaves them.
    """
    analysis = new_analysis(config, catalog)
    span = _derive_span(config, catalog, analysis.apps)
    if span is not None:
        midnights = utc_midnights(span[0], (span[1] - span[0]).days)
        if MetricKind.POLARITY in metrics:
            apps_bodies = (catalog.reviews[app].body.tolist() for app in analysis.apps)
            score_bodies(chain.from_iterable(apps_bodies), analysis.scorer, analysis.bodies)
        for app in analysis.apps:
            analysis.day_sums[app] = day_sums(
                catalog.reviews[app], midnights, metrics, analysis.scorer, config.scales, analysis.bodies
            )
    analysis.weekly_stats = series_stats(analysis.day_sums, config.event_window_days, metrics)
    analysis.daily_stats = series_stats(analysis.day_sums, config.correlation_window_days, metrics)
    return analysis


def series_stats(sums: Mapping[str, DaySums], window_days: int,
                 metrics: Sequence[MetricKind] = ALL_METRICS) -> dict[SeriesKey, SeriesStats]:
    """Every app's series of each metric on one grid of ``window_days``-day
    windows over the span that the apps' day sums share."""
    first = next(iter(sums.values()), None)
    grid = [] if first is None else window_series(
        first.start, first.start + timedelta(days=len(first.reviews) - 1), window_days)
    return {(app, metric): window_stats(app, days, grid, metric) for app, days in sums.items() for metric in metrics}


def detect_events(
    config: MarketConfig, weekly_stats: Mapping[SeriesKey, SeriesStats]
) -> dict[SeriesKey, list[EventRecord]]:
    """Deviation events of every event-window series.

    A series' baseline starts at ``config.baseline_start``, or else at its
    first window, which in a full run is the span start.
    """
    return {
        key: detect_series(series.records(), config.baseline_start or series.windows[0].start,
                           config.sensitivity, min_baseline=config.min_baseline, mode=config.sigma_mode)
        if series.windows else []
        for key, series in weekly_stats.items()
    }


def correlate_stats(config: MarketConfig, daily_stats: Mapping[SeriesKey, SeriesStats]) -> list[PairSeries]:
    """Every pair's correlation series, metrics in name order, apps in id order.

    Every app has a series of each metric, all on one window grid, as
    ``series_stats`` leaves them. Each app is one row of ``mu`` points per
    metric, NaN where the mean is missing.
    """
    apps = sorted({app for app, _ in daily_stats})
    grid = next(iter(daily_stats.values())).windows if daily_stats else []
    out: list[PairSeries] = []
    for metric in sorted({metric for _, metric in daily_stats}, key=lambda m: m.value):
        values = np.array([daily_stats[(app, metric)].mu for app in apps])
        out.extend(
            market_correlations(
                apps,
                metric,
                values,
                grid,
                config.lookback_days,
                config.correlation_threshold,
                min_points=config.min_corr_points,
            )
        )
    return out


def analyze_catalog(
    config: MarketConfig,
    catalog: MarketCatalog,
    metrics: Sequence[MetricKind] = ALL_METRICS,
) -> MarketAnalysis:
    """Run every analysis stage over an in-memory catalog.

    Sentences are scored where the polarity metric needs them, and for the
    reviews of correlated-event windows, whose summary requests sample
    sentences by polarity whatever the metric; each distinct body is
    scored once.
    """
    analysis = aggregate(config, catalog, metrics)
    analysis.events = detect_events(config, analysis.weekly_stats)
    analysis.pair_series = correlate_stats(config, analysis.daily_stats)
    analysis.ces = ce_from_reports(
        analysis.nonzero_events(), analysis.pair_series, config.event_window_days
    )
    analysis.requests = build_requests(
        analysis.ces, analysis.window_scored, config.sample_size, config.seed
    )
    return analysis


def ce_from_reports(
    events: Iterable[EventRecord],
    correlations: Iterable[PairSeries],
    event_window_days: int,
) -> list[CorrelatedEventRecord]:
    """Correlated events recomputed purely from events plus correlations.

    Zero events are ignored, so a series takes part only if it fired, and
    a CE's class is its run's sign. This is the only path to CE records;
    the ``ce`` subcommand feeds it the series read back from
    correlations.csv and gets byte-identical results to a full run,
    whether or not events.csv keeps its zero rows.
    """
    events_by_series: dict[SeriesKey, list[EventRecord]] = {}
    for record in events:
        if record.e:
            events_by_series.setdefault((record.app_id, record.metric), []).append(record)

    ces: list[CorrelatedEventRecord] = []
    for series in sorted(correlations, key=lambda s: (s.metric.value, s.app_i, s.app_j)):
        events_i = events_by_series.get((series.app_i, series.metric))
        events_j = events_by_series.get((series.app_j, series.metric))
        if events_i and events_j:
            ces.extend(detect_correlated_events(events_i, events_j, extract_runs(series, event_window_days)))
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


def write_file(out_dir: str | Path, name: str, chunks: Iterable[str]) -> Path:
    """Write one report file from its text chunks, in order, through one
    handle (UTF-8, newlines as given), creating the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(chunks)
    return path


def write_intake(out_dir: str | Path, rejects: Sequence[Reject], catalog: MarketCatalog) -> None:
    """Write rejects.jsonl and catalog.json."""
    write_file(out_dir, "rejects.jsonl", [rejects_to_jsonl(rejects)])
    write_file(out_dir, "catalog.json", [json_text(catalog_summary(catalog))])


def write_metrics(out_dir: str | Path, analysis: MarketAnalysis) -> tuple[int, int]:
    """Write day_sums.csv, metrics.csv and metrics_daily.csv; return the
    series CSVs' row counts."""
    weekly = in_report_order(analysis.weekly_stats)
    daily = in_report_order(analysis.daily_stats)
    write_file(out_dir, "day_sums.csv", write_day_sums_csv(analysis.day_sums))
    write_file(out_dir, "metrics.csv", write_metrics_csv(weekly))
    write_file(out_dir, "metrics_daily.csv", write_metrics_csv(daily))
    return sum(len(s.windows) for s in weekly), sum(len(s.windows) for s in daily)


def write_requests(out_dir: str | Path, config: MarketConfig, requests: Sequence[SummaryRequest]) -> list[Path]:
    """Write summary_requests.json, and summaries.json when the summarizer is
    the mock; return the paths written. Each request's prompt is built once."""
    template = load_template(config.prompt_template_path) if config.prompt_template_path else default_template()
    prompts = [build_prompt(r, template) for r in requests]
    entries = [request_report_entry(r, p) for r, p in zip(requests, prompts)]
    paths = [write_file(out_dir, "summary_requests.json", [json_text(entries)])]
    if config.summarizer == "mock":
        client = MockSummarizer()
        summaries = [summary_report_entry(r, p, client) for r, p in zip(requests, prompts)]
        paths.append(write_file(out_dir, "summaries.json", [json_text(summaries)]))
    return paths


def write_bundle(
    analysis: MarketAnalysis,
    rejects: Sequence[Reject],
    out_dir: str | Path,
) -> PipelineResult:
    """Write every report file for an analysis (reports exist even when empty)."""
    out = Path(out_dir)
    write_intake(out, rejects, analysis.catalog)
    write_metrics(out, analysis)
    write_file(out, "events.csv", [write_events_csv(analysis.all_events())])
    write_file(out, "correlations.csv", write_correlations_csv(analysis.pair_series))
    write_file(out, "correlated_events.json", [ce_records_to_json(analysis.ces)])
    written = write_requests(out, analysis.config, analysis.requests)
    return PipelineResult(
        out_dir=out,
        files=BUNDLE_FILES + tuple(p.name for p in written if p.name not in BUNDLE_FILES),
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
    catalog, rejects = load_catalog(config, inputs, fmt)
    return write_bundle(analyze_catalog(config, catalog), rejects, out_dir)
