"""Cross-app correlation and correlated-event detection.

For every app pair and metric, a Pearson correlation is computed at each
correlation window over a trailing lookback of per-window metric points
(pairwise-complete: only dates where both apps have a value). The
correlation is classified against a threshold h:

    +1  rho >= h        (boundary inclusive)
    -1  rho <= -h
     0  otherwise, and whenever rho is undefined

Consecutive windows with the same nonzero class form a run. Each run is
examined only at its first event-window-sized interval: deviation events
of the two apps falling into event windows that overlap that interval are
intersected there. Zero events are ignored. When the same-window
intersection is empty, the test is retried with one app's event taken
from the immediately preceding event window (both single-sided
permutations; never both apps preceding). Events e_i and e_j match when
e_i == sign * e_j, and the correlated event's class is the run's sign.

Pairs are canonical with app_i < app_j, so swapping inputs changes
nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from datetime import date, timedelta
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .detect import EventRecord
from .ingest import json_text
from .metrics import MetricKind, TimeWindow, csv_rows, int64_cells, series_groups, write_series_csv

__all__ = [
    "CORRELATIONS_CSV_COLUMNS",
    "CorrelatedEventRecord",
    "CorrelationRecord",
    "CorrelationRun",
    "DEFAULT_MIN_CORR_POINTS",
    "PairSeries",
    "ce_records_from_json",
    "ce_records_to_json",
    "detect_correlated_events",
    "detect_correlation",
    "extract_runs",
    "market_correlations",
    "pair_correlations",
    "pearson_rho",
    "read_correlations_csv",
    "write_correlations_csv",
]

CORRELATIONS_CSV_COLUMNS = ("app_i", "app_j", "metric", "t0", "rho", "c", "n_points")

DEFAULT_MIN_CORR_POINTS = 8

# Relative variance floor below which a lookback is treated as constant
# (sum-of-squares cancellation noise, not signal).
_REL_VARIANCE_EPS = 1e-12


def pearson_rho(
    xs: Iterable[tuple[date, float]],
    ys: Iterable[tuple[date, float]],
    lookback: tuple[date, date],
    min_points: int = DEFAULT_MIN_CORR_POINTS,
) -> float | None:
    """Pearson correlation over pairwise-complete dates in [lo, hi).

    None when fewer than ``min_points`` dates are shared or either series
    is constant over the shared dates.
    """
    lo, hi = lookback
    x_by_date = {d: v for d, v in xs if lo <= d < hi}
    pairs = sorted((d, x_by_date[d], v) for d, v in ys if lo <= d < hi and d in x_by_date)
    if len(pairs) < max(min_points, 2):
        return None
    xv = [p[1] for p in pairs]
    yv = [p[2] for p in pairs]
    if max(xv) == min(xv) or max(yv) == min(yv):
        return None
    n = len(pairs)
    mx = sum(xv) / n
    my = sum(yv) / n
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    for x, y in zip(xv, yv):
        dx = x - mx
        dy = y - my
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    denom = math.sqrt(sxx * syy)
    if denom == 0.0:
        return None
    return max(-1.0, min(1.0, sxy / denom))


def detect_correlation(rho: float | None, h: float) -> int:
    if rho is None:
        return 0
    if rho >= h:
        return 1
    if rho <= -h:
        return -1
    return 0


@dataclass(frozen=True, slots=True)
class CorrelationRecord:
    app_i: str
    app_j: str
    metric: MetricKind
    window: TimeWindow
    rho: float | None
    c: int
    n_points: int


@dataclass(frozen=True, slots=True, eq=False)
class PairSeries:
    """One pair/metric correlation series over a contiguous window grid.

    Column form of the pair's ``CorrelationRecord`` rows: ``rho`` (float,
    NaN where undefined), ``c`` and ``n_points`` (int) hold one entry per
    window of ``windows``.
    """

    app_i: str
    app_j: str
    metric: MetricKind
    windows: Sequence[TimeWindow]
    rho: np.ndarray
    c: np.ndarray
    n_points: np.ndarray

    def records(self) -> list[CorrelationRecord]:
        return [
            CorrelationRecord(self.app_i, self.app_j, self.metric, window, None if math.isnan(rho) else rho, c, n)
            for window, rho, c, n in zip(
                self.windows, self.rho.tolist(), self.c.tolist(), self.n_points.tolist()
            )
        ]


def _window_bounds(
    dates: np.ndarray, windows: Sequence[TimeWindow], lookback_days: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per window, the index range of ``dates`` (sorted ordinals) in its lookback."""
    starts = np.fromiter((w.start.toordinal() for w in windows), dtype=np.int64, count=len(windows))
    ends = starts + np.fromiter((w.days for w in windows), dtype=np.int64, count=len(windows))
    lo = np.searchsorted(dates, starts - lookback_days, side="left")
    hi = np.searchsorted(dates, ends, side="left")
    return lo, hi


def _correlate_rows(
    x: np.ndarray,
    y: np.ndarray,
    common: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    h: float,
    min_points: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windowed Pearson rho, class and point count for rows of paired series.

    ``x`` and ``y`` are (pairs, dates) arrays over shared sorted dates;
    ``common`` marks where a row has both values. Window ``w`` covers dates
    ``lo[w]:hi[w]``. Prefix sums run over the whole row with zeros outside
    ``common``: adding 0.0 leaves a running sum unchanged, so every sum is
    bit for bit the one taken over the pair's common dates alone, and each
    window costs O(1).
    """
    x = np.where(common, x, 0.0)
    y = np.where(common, y, 0.0)

    def prefix(values: np.ndarray) -> np.ndarray:
        out = np.zeros((values.shape[0], values.shape[1] + 1), dtype=values.dtype)
        np.cumsum(values, axis=1, out=out[:, 1:])
        return out

    def window_sum(values: np.ndarray) -> np.ndarray:
        sums = prefix(values)
        return sums[:, hi] - sums[:, lo]

    n = window_sum(common.astype(np.int64))
    nf = np.where(n > 0, n, 1).astype(np.float64)
    wsx = window_sum(x)
    wsy = window_sum(y)
    wsxx = window_sum(x * x)
    wsyy = window_sum(y * y)
    wsxy = window_sum(x * y)
    vx = np.maximum(wsxx - wsx * wsx / nf, 0.0)
    vy = np.maximum(wsyy - wsy * wsy / nf, 0.0)
    defined = (
        (n >= max(min_points, 2))
        & (vx > _REL_VARIANCE_EPS * np.maximum(wsxx, 1.0))
        & (vy > _REL_VARIANCE_EPS * np.maximum(wsyy, 1.0))
    )
    denom = np.sqrt(np.where(defined, vx * vy, 1.0))
    cov = wsxy - wsx * wsy / nf
    rho = np.clip(np.where(defined, cov / denom, np.nan), -1.0, 1.0)
    c = np.where(defined & (rho >= h), 1, np.where(defined & (rho <= -h), -1, 0))
    return rho, c, n


def pair_correlations(
    app_i: str,
    app_j: str,
    metric: MetricKind,
    points_i: Mapping[date, float],
    points_j: Mapping[date, float],
    windows: Sequence[TimeWindow],
    lookback_days: int,
    h: float,
    min_points: int = DEFAULT_MIN_CORR_POINTS,
) -> list[CorrelationRecord]:
    """Correlation records for one pair/metric over the whole window grid.

    The sweep shares prefix sums over the pair's common dates, so each
    window costs O(1) after an O(n) setup; results match per-window
    ``pearson_rho`` calls.
    """
    if app_j < app_i:
        app_i, app_j = app_j, app_i
        points_i, points_j = points_j, points_i
    dates = sorted(set(points_i) | set(points_j))
    ordinals = np.array([d.toordinal() for d in dates], dtype=np.int64)
    x = np.array([[points_i.get(d, 0.0) for d in dates]], dtype=np.float64)
    y = np.array([[points_j.get(d, 0.0) for d in dates]], dtype=np.float64)
    common = np.array([[d in points_i and d in points_j for d in dates]], dtype=bool)
    lo, hi = _window_bounds(ordinals, windows, lookback_days)
    rho, c, n = _correlate_rows(x, y, common, lo, hi, h, min_points)
    return PairSeries(app_i, app_j, metric, windows, rho[0], c[0], n[0]).records()


# Pairs correlated per block of rows in market_correlations; bounds the
# working arrays at a few MB.
_PAIR_BLOCK = 256


def market_correlations(
    apps: Sequence[str],
    metric: MetricKind,
    values: np.ndarray,
    windows: Sequence[TimeWindow],
    lookback_days: int,
    h: float,
    min_points: int = DEFAULT_MIN_CORR_POINTS,
) -> list[PairSeries]:
    """Every pair's correlation series for one metric, in combinations order.

    ``values[a, w]`` is app ``apps[a]``'s metric point at window ``w`` of
    the grid, NaN where missing; points sit at window starts, as
    ``correlation_points`` keys them. Each series equals what
    ``pair_correlations`` gives for the pair.
    """
    ordinals = np.fromiter((w.start.toordinal() for w in windows), dtype=np.int64, count=len(windows))
    lo, hi = _window_bounds(ordinals, windows, lookback_days)
    valid = ~np.isnan(values)
    pairs = [(i, j) if apps[i] < apps[j] else (j, i) for i, j in combinations(range(len(apps)), 2)]
    series: list[PairSeries] = []
    for at in range(0, len(pairs), _PAIR_BLOCK):
        block = pairs[at : at + _PAIR_BLOCK]
        rows_i = [i for i, _ in block]
        rows_j = [j for _, j in block]
        common = valid[rows_i] & valid[rows_j]
        rho, c, n = _correlate_rows(values[rows_i], values[rows_j], common, lo, hi, h, min_points)
        series.extend(
            PairSeries(apps[i], apps[j], metric, windows, rho[k], c[k], n[k])
            for k, (i, j) in enumerate(block)
        )
    return series


@dataclass(frozen=True, slots=True)
class CorrelationRun:
    """Maximal stretch of consecutive windows with a constant nonzero class."""

    app_i: str
    app_j: str
    metric: MetricKind
    sign: int
    t_start: date
    t_end: date
    first_interval: TimeWindow


def extract_runs(series: PairSeries, event_window_days: int) -> list[CorrelationRun]:
    """Collapse a pair/metric correlation series into its nonzero runs.

    The series must be in window order over a contiguous grid (as
    ``market_correlations`` leaves it). Each run's first interval is the
    event-window-sized span starting at the run start.
    """
    c = series.c
    if not c.any():
        return []
    cuts = (np.flatnonzero(c[1:] != c[:-1]) + 1).tolist()
    firsts = [0, *cuts]
    ends = [*cuts, len(c)]
    runs: list[CorrelationRun] = []
    for first, end, sign in zip(firsts, ends, c[firsts].tolist()):
        if sign == 0:
            continue
        t_start = series.windows[first].start
        runs.append(
            CorrelationRun(
                app_i=series.app_i,
                app_j=series.app_j,
                metric=series.metric,
                sign=sign,
                t_start=t_start,
                t_end=series.windows[end - 1].end,
                first_interval=TimeWindow(t_start, event_window_days),
            )
        )
    return runs


@dataclass(frozen=True, slots=True)
class CorrelatedEventRecord:
    app_i: str
    app_j: str
    metric: MetricKind
    window: TimeWindow
    ce: int
    event_i: EventRecord
    event_j: EventRecord
    run: CorrelationRun


def detect_correlated_events(
    events_i: Sequence[EventRecord],
    events_j: Sequence[EventRecord],
    runs: Sequence[CorrelationRun],
) -> list[CorrelatedEventRecord]:
    """Intersect two apps' events with their correlation runs.

    Zero events are ignored. For each run, every event window overlapping
    the run's first interval is tested. The same-window pairing is tried
    first; if it yields nothing the two single-sided pairings against the
    immediately preceding event window are tried in order (app_i
    preceding, then app_j preceding). A pairing matches when
    ``e_i == run.sign * e_j``, and the CE's class is the run's sign. At
    most one record survives per (event window, class); when several runs
    would duplicate one, the earliest-starting run wins.
    """
    by_start_i = {r.window.start: r for r in events_i if r.e}
    by_start_j = {r.window.start: r for r in events_j if r.e}
    # Every pairing takes one app's event from the tested window itself.
    grid = sorted({r.window for by_start in (by_start_i, by_start_j) for r in by_start.values()})
    starts = [w.start for w in grid]
    longest = timedelta(days=max((w.days for w in grid), default=0))

    found: dict[tuple[date, int], CorrelatedEventRecord] = {}
    for run in sorted(runs, key=lambda r: (r.t_start, r.t_end, r.sign)):
        first = run.first_interval
        # Only windows starting in (first.start - longest, first.end) can overlap.
        lo = bisect_right(starts, first.start - longest)
        hi = bisect_left(starts, first.end, lo)
        for window in grid[lo:hi]:
            if not window.overlaps(first):
                continue
            same_i = by_start_i.get(window.start)
            same_j = by_start_j.get(window.start)
            prev_start = window.start - timedelta(days=window.days)
            candidates = (
                (same_i, same_j),
                (by_start_i.get(prev_start), same_j),
                (same_i, by_start_j.get(prev_start)),
            )
            for e_i, e_j in candidates:
                if e_i is None or e_j is None or e_i.e != run.sign * e_j.e:
                    continue
                key = (window.start, run.sign)
                if key not in found:
                    found[key] = CorrelatedEventRecord(
                        app_i=run.app_i,
                        app_j=run.app_j,
                        metric=run.metric,
                        window=window,
                        ce=run.sign,
                        event_i=e_i,
                        event_j=e_j,
                        run=run,
                    )
                break
    return sorted(found.values(), key=lambda r: (r.window.start, -r.ce))


def write_correlations_csv(correlations: Iterable[PairSeries]) -> Iterator[str]:
    """The correlations.csv text as chunks: a header, then every series' rows.

    Rows are grouped per pair series, in window order, with the series in
    the order given, one chunk per series (``write_series_csv``). An
    undefined rho is written empty, any other with ``repr``.
    """
    return write_series_csv(
        CORRELATIONS_CSV_COLUMNS,
        (((s.app_i, s.app_j, s.metric.value), s.windows, s.rho, s.c, s.n_points) for s in correlations),
        lambda w: w.start.isoformat(),
    )


def read_correlations_csv(text: str, window_days: int) -> list[PairSeries]:
    """Pair series from the CSV dump, one per (app_i, app_j, metric).

    Series come in the order their first row appears, each holding its
    rows in file order. A series whose windows are not consecutive
    ``window_days`` windows in time order, or whose ``c`` is not -1, 0 or
    1, is a ValueError naming its pair: runs are read off that grid. A
    ``c`` or ``n_points`` that is not an integer, or is beyond int64, is a
    ValueError naming its pair and line.
    """
    rows = [
        ((app_i, app_j, MetricKind(metric)), TimeWindow(date.fromisoformat(t0), window_days),
         math.nan if rho == "" else float(rho),
         *int64_cells((c, n), line, f"correlations of ({app_i}, {app_j}, {metric})"))
        for line, (app_i, app_j, metric, t0, rho, c, n) in csv_rows(text, CORRELATIONS_CSV_COLUMNS, "correlations")
    ]
    label = "correlations of ({0}, {1}, {2.value})"
    out: list[PairSeries] = []
    for key, (windows, rhos, cs, ns) in series_groups(rows, label).items():
        if not set(cs) <= {-1, 0, 1}:
            raise ValueError(f"{label.format(*key)}: c must be -1, 0 or 1, got {sorted(set(cs))}")
        out.append(PairSeries(*key, windows, np.array(rhos), np.array(cs, dtype=np.int64), np.array(ns, dtype=np.int64)))
    return out


def _event_from_dict(data: Mapping) -> EventRecord:
    return EventRecord(
        app_id=str(data["app_id"]),
        metric=MetricKind(data["metric"]),
        window=TimeWindow(date.fromisoformat(data["window_start"]), int(data["window_days"])),
        e=int(data["e"]),
        a=None if data["a"] is None else float(data["a"]),
        sigma=None if data["sigma"] is None else float(data["sigma"]),
        k=float(data["k"]),
        baseline_n=int(data["baseline_n"]),
        warmup=bool(data["warmup"]),
    )


def ce_records_from_json(text: str) -> list[CorrelatedEventRecord]:
    payload = json.loads(text)
    records: list[CorrelatedEventRecord] = []
    for item in payload:
        run = item["run"]
        records.append(
            CorrelatedEventRecord(
                app_i=str(item["app_i"]),
                app_j=str(item["app_j"]),
                metric=MetricKind(item["metric"]),
                window=TimeWindow(date.fromisoformat(item["window_start"]), int(item["window_days"])),
                ce=int(item["ce"]),
                event_i=_event_from_dict(item["event_i"]),
                event_j=_event_from_dict(item["event_j"]),
                run=CorrelationRun(
                    app_i=str(item["app_i"]),
                    app_j=str(item["app_j"]),
                    metric=MetricKind(item["metric"]),
                    sign=int(run["sign"]),
                    t_start=date.fromisoformat(run["t_start"]),
                    t_end=date.fromisoformat(run["t_end"]),
                    first_interval=TimeWindow(
                        date.fromisoformat(run["first_interval_start"]),
                        int(run["first_interval_days"]),
                    ),
                ),
            )
        )
    return records


def _event_to_dict(record: EventRecord) -> dict:
    return {
        "app_id": record.app_id,
        "metric": record.metric.value,
        "window_start": record.window.start.isoformat(),
        "window_days": record.window.days,
        "e": record.e,
        "a": record.a,
        "sigma": record.sigma,
        "k": record.k,
        "baseline_n": record.baseline_n,
        "warmup": record.warmup,
    }


def ce_records_to_json(records: Iterable[CorrelatedEventRecord]) -> str:
    payload = [
        {
            "app_i": r.app_i,
            "app_j": r.app_j,
            "metric": r.metric.value,
            "window_start": r.window.start.isoformat(),
            "window_days": r.window.days,
            "ce": r.ce,
            "event_i": _event_to_dict(r.event_i),
            "event_j": _event_to_dict(r.event_j),
            "run": {
                "sign": r.run.sign,
                "t_start": r.run.t_start.isoformat(),
                "t_end": r.run.t_end.isoformat(),
                "first_interval_start": r.run.first_interval.start.isoformat(),
                "first_interval_days": r.run.first_interval.days,
            },
        }
        for r in records
    ]
    return json_text(payload)
