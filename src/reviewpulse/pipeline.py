"""The stage graph: raw review files to the report bundle.

Every stage has one function, called through this module by both the
library and the CLI:

    load_catalog      parse the input files and build the market catalog
    aggregate         sum each app per UTC day, fill both grids' metric series
    series_stats      one grid's metric series of every app, from day sums
    detect_events     deviation events of every event-window series
    correlate_stats   every app pair's runs of a nonzero correlation class,
                      per metric, cut from each block of pairs
    ce_from_reports   correlated events from events plus correlation runs,
                      in one join over all pairs (correlate)
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
    correlations.csv         runs of a nonzero correlation class per pair
    correlated_events.json   correlated events with embedded context
    summary_requests.json    sampled texts and prompt hashes per event
    summaries.json           mock-client summaries (when configured)

The metrics CSVs are reports only: no stage reads them back.
``write_file`` writes a file from text chunks through one handle; the
CSVs of day sums, series, events and runs (day_sums, metrics,
metrics_daily, events, correlations) come one chunk per app or series,
so no CSV's whole text is held. Every byte of the bundle is a pure
function of the inputs and the config, seed included; running twice
produces identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .config import MarketConfig
from .correlate import (
    CorrelatedEventRecord,
    CorrelationRecord,
    CorrelationRun,
    PairBlock,
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
    midnight_us,
    parse_reviews,
    rejects_to_jsonl,
    utf8_blocks,
)
from .metrics import (
    BodyBins,
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
    runs: list[CorrelationRun] = field(default_factory=list)
    ces: list[CorrelatedEventRecord] = field(default_factory=list)
    requests: list[SummaryRequest] = field(default_factory=list)
    # Every app's sentence bins (metrics.score_bodies) over the apps' rows,
    # apps in order, and the row each app starts at: aggregate fills both
    # for the polarity metric, and window_scored reads a window body's bins
    # through its row's code. None where nothing was scored.
    body_bins: BodyBins | None = field(default=None, repr=False)
    app_rows: dict[str, int] = field(default_factory=dict, repr=False)
    # Each window body's scored sentences, texts included: window_scored
    # splits a body only when it is not here, and summary_requests empties
    # it when it returns.
    texts: dict[str, BodyScore] = field(default_factory=dict, repr=False, compare=False)

    @property
    def correlations(self) -> list[CorrelationRecord]:
        """Every pair's per-window records, in report order.

        Recomputed from ``daily_stats`` on each call, through the blocks
        that ``correlate_stats`` cuts into runs: the analysis keeps no
        per-window correlation, and the list costs one record per pair and
        window of every metric.
        """
        return [record for block in _pair_blocks(self.config, self.daily_stats) for record in block.records()]

    def all_events(self) -> list[EventRecord]:
        return [e for records in in_report_order(self.events) for e in records]

    def nonzero_events(self) -> list[EventRecord]:
        return [e for e in self.all_events() if e.e != 0]

    def window_scored(self, app_id: str, window: TimeWindow) -> list[tuple[str, BodyScore]]:
        """The bodies of the app's reviews inside a window, in canonical
        order, each with its scored sentences.

        The window's bodies are cut from the app's ``body`` column by
        bisection on its stamps; no ``Review`` is built. A body is split
        once however many windows hold it, and its scored sentences kept in
        ``texts``. Its bins come through its row's code in ``body_bins``,
        so a body the day sums scored is not scored again; without them,
        the window's fresh bodies go through ``score_reviews``.
        """
        if app_id not in self.apps:
            return []
        reviews = self.catalog.reviews[app_id]
        lo, hi = np.searchsorted(reviews.stamp_us, [midnight_us(window.start), midnight_us(window.end)]).tolist()
        bodies = reviews.body[lo:hi].tolist()
        bins, at = self.body_bins, self.app_rows.get(app_id, 0)
        codes = dict.fromkeys(bodies) if bins is None else dict(zip(bodies, bins.code[at + lo : at + hi].tolist()))
        fresh = [body for body in codes if body not in self.texts]
        scored = score_reviews(fresh, self.scorer) if bins is None else bins.scored(fresh, map(codes.__getitem__, fresh))
        self.texts.update(zip(fresh, scored))
        return list(zip(bodies, map(self.texts.__getitem__, bodies)))

    def summary_requests(self, ces: Sequence[CorrelatedEventRecord]) -> list[SummaryRequest]:
        """``build_requests`` for the correlated events over this analysis'
        windows; the sentence texts it splits are dropped when it returns."""
        requests = build_requests(ces, self.window_scored, self.config.sample_size, self.config.seed)
        self.texts.clear()
        return requests


def _derive_span(config: MarketConfig, catalog: MarketCatalog, apps: Sequence[str]) -> tuple[date, date] | None:
    """The config's span, its open ends taken from the apps' coverage; None
    when there is no app or the span holds no day."""
    if not apps:
        return None
    span_start = config.span_start or min(catalog.coverage[a].first for a in apps).date()  # coverage stamps are UTC
    span_end = config.span_end or max(catalog.coverage[a].last for a in apps).date() + timedelta(days=1)
    return (span_start, span_end) if span_start < span_end else None


def _read_file(path: str | Path, consume: Callable[[Iterator[str]], T]) -> T:
    """``consume`` over an input or stage file's UTF-8 text in blocks (``utf8_blocks``).

    A missing or unreadable file, or one that is not UTF-8 or that
    ``consume`` cannot parse (a count beyond int64 or nesting too deep
    included), is a dataset error.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"input file not found: {p}")
    try:
        return consume(_pieces(p))
    except OSError as exc:
        raise DatasetError(f"cannot read {p}: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, csv.Error) as exc:
        raise DatasetError(f"{p}: {exc}") from exc


def _pieces(p: Path) -> Iterator[str]:
    """The file's text as ``utf8_blocks`` reads it. The file is opened
    unbuffered, as each read is ``_READ_BYTES`` long, and is closed once its
    last piece is read, not held through the parse's end-of-file work."""
    with p.open("rb", buffering=0) as stream:
        yield from utf8_blocks(stream, str(p))


def read_stage(parse: Callable[..., T], path: str | Path, *args: object) -> T:
    """``parse(text, *args)`` over a stage file's whole UTF-8 text; a file
    that cannot be read or parsed is a dataset error, as in ``_read_file``."""
    return _read_file(path, lambda texts: parse("".join(texts), *args))


def read_review_files(
    paths: Sequence[str | Path],
    fmt: str,
    config: MarketConfig,
) -> tuple[ReviewTable, list[Reject]]:
    """Parse and pool every input file (multi-source inputs concatenate).

    Each file streams into ``parse_reviews`` in blocks, so no file's whole
    text is held.
    """
    tables: list[ReviewTable] = []
    rejects: list[Reject] = []
    for path in paths:
        file_reviews, file_rejects = _read_file(path, lambda texts: parse_reviews(texts, fmt, config.scales))
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
    needs them: one ``score_bodies`` call over every app's rows, apps in
    order, before the sums. The analysis keeps its column form as
    ``body_bins``, each app's rows read by the app's day sums and the
    summary requests. The catalog's reviews must be in canonical order, as
    ``build_catalog`` leaves them.
    """
    analysis = new_analysis(config, catalog)
    span = _derive_span(config, catalog, analysis.apps)
    if span is not None:
        midnights = utc_midnights(span[0], (span[1] - span[0]).days)
        if MetricKind.POLARITY in metrics:
            bodies = [catalog.reviews[app].body for app in analysis.apps]
            analysis.app_rows = dict(zip(analysis.apps, accumulate(map(len, bodies), initial=0)))
            analysis.body_bins = score_bodies(chain.from_iterable(bodies), analysis.scorer)
        for app in analysis.apps:
            reviews, at = catalog.reviews[app], analysis.app_rows.get(app, 0)
            bins = None if analysis.body_bins is None else analysis.body_bins[at : at + len(reviews)]
            analysis.day_sums[app] = day_sums(reviews, midnights, metrics, config.scales, bins)
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


def _pair_blocks(config: MarketConfig, daily_stats: Mapping[SeriesKey, SeriesStats]) -> Iterator[PairBlock]:
    """Every pair's correlation series in ``market_correlations`` blocks,
    metrics in name order, apps in id order.

    Every app has a series of each metric, all on one window grid, as
    ``series_stats`` leaves them. Each app is one row of ``mu`` points per
    metric, NaN where the mean is missing.
    """
    apps = sorted({app for app, _ in daily_stats})
    grid = next(iter(daily_stats.values())).windows if daily_stats else []
    for metric in sorted({metric for _, metric in daily_stats}, key=lambda m: m.value):
        values = np.array([daily_stats[(app, metric)].mu for app in apps])
        yield from market_correlations(apps, metric, values, grid, config.lookback_days,
                                       config.correlation_threshold, min_points=config.min_corr_points)


def correlate_stats(config: MarketConfig, daily_stats: Mapping[SeriesKey, SeriesStats]) -> list[CorrelationRun]:
    """Every pair's correlation runs, metrics in name order, apps in id
    order, each pair's runs in time order.

    Each ``PairBlock`` is cut into runs by one ``extract_runs`` call and
    dropped before the next block is computed, so no pair's per-window
    series outlives its block.
    """
    return [run for block in _pair_blocks(config, daily_stats) for run in extract_runs(block)]


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
    analysis.runs = correlate_stats(config, analysis.daily_stats)
    analysis.ces = ce_from_reports(analysis.nonzero_events(), analysis.runs, config.event_window_days)
    analysis.requests = analysis.summary_requests(analysis.ces)
    return analysis


def ce_from_reports(
    events: Iterable[EventRecord],
    runs: Iterable[CorrelationRun],
    event_window_days: int,
) -> list[CorrelatedEventRecord]:
    """Correlated events recomputed purely from events plus correlation runs.

    One call of ``detect_correlated_events`` joins every app's events with
    every pair's runs: zero events are ignored, so a pair takes part only
    if both its apps fired, a CE's class is its run's sign, and records go
    in (metric name, app_i, app_j, window start, -ce) order. This is the
    only path to CE records; the ``ce`` subcommand feeds it the runs read
    back from correlations.csv and gets byte-identical results to a full
    run, whether or not events.csv keeps its zero rows.
    """
    return detect_correlated_events(events, runs, event_window_days)


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
    write_file(out, "events.csv", write_events_csv(analysis.all_events()))
    write_file(out, "correlations.csv", write_correlations_csv(analysis.runs))
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
