"""Cross-app correlation and correlated-event detection.

For every app pair and metric, a Pearson correlation is computed at each
correlation window over a trailing lookback of per-window metric points
(pairwise-complete: only dates where both apps have a value). The
correlation is classified against a threshold h:

    +1  rho >= h        (boundary inclusive)
    -1  rho <= -h
     0  otherwise, and whenever rho is undefined

Consecutive windows with the same nonzero class form a run, and the runs
are all that correlations.csv holds and the CE stage reads. Correlated
events come from one join over all pairs, driven by the windows where an
app fired: for each (metric, event window) with a nonzero event, the
candidate pairs join an app that fired there with one that fired there or
in the window just before, and only those pairs' runs whose first
interval (the event-window-sized span from the run's start) overlaps the
window are read. Zero events are ignored. The pairings are tried in order:
the same window for both apps, then app_i's event from the immediately
preceding event window, then app_j's (never both apps preceding). Events
e_i and e_j match when e_i == sign * e_j, the correlated event's class is
the run's sign, and per pair the earliest run is kept for each (window, sign).

Pairs are correlated a block at a time: a ``PairBlock`` holds one metric's
windowed rho, class and point count for a block of pairs, one row a pair,
as the kernel computes them, and ``extract_runs`` cuts a block into runs.

Pairs are canonical with app_i < app_j, so swapping inputs changes
nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from datetime import date, timedelta
from itertools import combinations, groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .detect import EventRecord
from .ingest import json_text
from .metrics import MetricKind, TimeWindow, csv_prefixes, follow_problem, series_rows

__all__ = [
    "CORRELATIONS_CSV_COLUMNS",
    "CorrelatedEventRecord",
    "CorrelationRecord",
    "CorrelationRun",
    "DEFAULT_MIN_CORR_POINTS",
    "PairBlock",
    "ce_records_from_json",
    "ce_records_to_json",
    "detect_correlated_events",
    "extract_runs",
    "market_correlations",
    "pair_correlations",
    "read_correlations_csv",
    "write_correlations_csv",
]

CORRELATIONS_CSV_COLUMNS = ("app_i", "app_j", "metric", "sign", "t_start", "t_end")

DEFAULT_MIN_CORR_POINTS = 8

# Relative variance floor below which a lookback is treated as constant
# (sum-of-squares cancellation noise, not signal).
_REL_VARIANCE_EPS = 1e-12


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
class PairBlock:
    """One metric's correlation series of a block of pairs over one
    contiguous window grid, as ``_correlate_rows`` returns them.

    Row ``k`` is the pair ``(app_i[k], app_j[k])``: ``rho`` (float, NaN
    where undefined), ``c`` (int8 from ``market_correlations``) and
    ``n_points`` (int) hold one row per pair and one column per window of
    ``windows``.
    """

    metric: MetricKind
    windows: Sequence[TimeWindow]
    app_i: Sequence[str]
    app_j: Sequence[str]
    rho: np.ndarray
    c: np.ndarray
    n_points: np.ndarray

    def records(self) -> list[CorrelationRecord]:
        """Every row's ``CorrelationRecord``s, rows in order and each in window order."""
        return [
            CorrelationRecord(app_i, app_j, self.metric, window, None if math.isnan(rho) else rho, c, n)
            for app_i, app_j, rhos, cs, ns in zip(
                self.app_i, self.app_j, self.rho.tolist(), self.c.tolist(), self.n_points.tolist()
            )
            for window, rho, c, n in zip(self.windows, rhos, cs, ns)
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
    c = np.where(defined & (rho >= h), 1, np.where(defined & (rho <= -h), -1, 0)).astype(np.int8)
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
    window costs O(1) after an O(n) setup; results match the Pearson
    correlation of each window's lookback taken from its definition.
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
    return PairBlock(metric, windows, (app_i,), (app_j,), rho, c, n).records()


# Cells (pairs x grid windows) correlated per block in market_correlations.
# _correlate_rows holds about 100 B a cell, so a block's working arrays stay
# near 1 MiB whatever the app count or span.
_PAIR_CELLS = 2**13


def market_correlations(
    apps: Sequence[str],
    metric: MetricKind,
    values: np.ndarray,
    windows: Sequence[TimeWindow],
    lookback_days: int,
    h: float,
    min_points: int = DEFAULT_MIN_CORR_POINTS,
) -> Iterator[PairBlock]:
    """Every pair's correlation series for one metric, in combinations order,
    one ``PairBlock`` at a time.

    ``values[a, w]`` is app ``apps[a]``'s metric point at window ``w`` of
    the grid, NaN where missing; points sit at window starts, as
    ``correlation_points`` keys them. Each row equals what
    ``pair_correlations`` gives for its pair. A block holds the pairs of
    ``_PAIR_CELLS`` cells and is computed only when asked for, so a caller
    that drops each block before taking the next holds one at a time; each
    row's sums are its own, so the block size never changes a bit of a
    result.
    """
    ordinals = np.fromiter((w.start.toordinal() for w in windows), dtype=np.int64, count=len(windows))
    lo, hi = _window_bounds(ordinals, windows, lookback_days)
    valid = ~np.isnan(values)
    pairs = [(i, j) if apps[i] < apps[j] else (j, i) for i, j in combinations(range(len(apps)), 2)]
    step = max(1, _PAIR_CELLS // max(1, len(windows)))
    for at in range(0, len(pairs), step):
        block = pairs[at : at + step]
        rows_i = [i for i, _ in block]
        rows_j = [j for _, j in block]
        common = valid[rows_i] & valid[rows_j]
        rho, c, n = _correlate_rows(values[rows_i], values[rows_j], common, lo, hi, h, min_points)
        yield PairBlock(metric, windows, [apps[i] for i in rows_i], [apps[j] for j in rows_j], rho, c, n)


class CorrelationRun(NamedTuple):
    """Maximal stretch of consecutive windows with a constant nonzero class,
    from the start of its first window to the end of its last. A named
    tuple, since one is built per run of every pair."""

    app_i: str
    app_j: str
    metric: MetricKind
    sign: int
    t_start: date
    t_end: date


def extract_runs(block: PairBlock) -> list[CorrelationRun]:
    """Every nonzero run of the block's pairs, rows in order and each row's
    runs in time order.

    The block's class matrix is cut in one array pass: a run starts at
    window ``d`` where ``c[d] != 0`` and ``c[d] != c[d - 1]``, and ends
    where the next window's class differs. Dates are read from the grid at
    run edges only, and objects are built per run only. The grid is
    contiguous, so a run ends where the window after it starts, or at the
    grid's end: the runs share the grid's date objects.
    """
    c, windows = block.c, block.windows
    changed = c[:, 1:] != c[:, :-1]
    opens, closes = c != 0, c != 0
    opens[:, 1:] &= changed
    closes[:, :-1] &= changed
    rows, firsts = np.nonzero(opens)
    lasts = np.nonzero(closes)[1]
    final = len(windows) - 1
    grid_end = windows[final].end if windows else None
    keys = rows.tolist()
    return list(map(CorrelationRun, [block.app_i[k] for k in keys], [block.app_j[k] for k in keys],
                    [block.metric] * len(keys), c[rows, firsts].tolist(), [windows[k].start for k in firsts.tolist()],
                    [windows[k + 1].start if k < final else grid_end for k in lasts.tolist()]))


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
    first_interval: TimeWindow


def detect_correlated_events(
    events: Iterable[EventRecord],
    runs: Iterable[CorrelationRun],
    event_window_days: int,
) -> list[CorrelatedEventRecord]:
    """Every pair's correlated events, in one join of all apps' events with
    all pairs' correlation runs.

    Zero events are ignored, and so is every run of a pair whose two apps
    did not both fire in its metric. The join starts from each (metric,
    event window) where some app fired. Its candidate pairs join an app
    that fired there with an app that fired there or in the window just
    before; the only runs read are a candidate pair's runs whose first
    interval, the ``event_window_days`` days from ``t_start``, overlaps
    the window, found by bisecting the pair's runs in (t_start, t_end,
    sign) order. The pairings are tried in order: both events from the
    window, then app_i's from the window before with app_j's from the
    window, then app_i's from the window with app_j's from the window
    before; never both from before. A pairing matches when
    ``e_i == run.sign * e_j``, and the CE's class is the run's sign. At
    most one record is kept per pair, metric, window and class: the one of
    the earliest run, whose first matching pairing gives its event pair.
    Records go in (metric name, app_i, app_j, window start, -ce) order, so
    no input order and no hash seed changes them.
    """
    fired: dict[tuple[MetricKind, date], dict[str, EventRecord]] = {}
    for event in events:
        if event.e:
            fired.setdefault((event.metric, event.window.start), {})[event.app_id] = event
    series = {(metric, app) for (metric, _), apps in fired.items() for app in apps}
    runs_by_pair: dict[tuple[MetricKind, str, str], list[CorrelationRun]] = {}
    for run in runs:
        if (run.metric, run.app_i) in series and (run.metric, run.app_j) in series:
            runs_by_pair.setdefault((run.metric, run.app_i, run.app_j), []).append(run)
    for pair_runs in runs_by_pair.values():
        pair_runs.sort(key=itemgetter(4, 5, 3))
    reach = timedelta(days=event_window_days)
    found: list[CorrelatedEventRecord] = []
    for (metric, start), same in fired.items():
        window = next(iter(same.values())).window
        before = fired.get((metric, start - timedelta(days=window.days)), {})
        for app_i, app_j in {(a, b) if a < b else (b, a) for a in same for b in (*same, *before) if a != b}:
            pair_runs = runs_by_pair.get((metric, app_i, app_j), [])
            lo = bisect_right(pair_runs, start - reach, key=itemgetter(4))
            hi = bisect_left(pair_runs, window.end, lo, key=itemgetter(4))
            pairings = ((same.get(app_i), same.get(app_j)), (before.get(app_i), same.get(app_j)),
                        (same.get(app_i), before.get(app_j)))
            # The earliest run of each sign whose first interval overlaps the window.
            earliest = {run.sign: run for run in reversed(pair_runs[lo:hi])}
            for run in earliest.values():
                for e_i, e_j in pairings:
                    if e_i is not None and e_j is not None and e_i.e == run.sign * e_j.e:
                        found.append(CorrelatedEventRecord(app_i, app_j, metric, window, run.sign, e_i, e_j, run,
                                                           TimeWindow(run.t_start, event_window_days)))
                        break
    return sorted(found, key=lambda r: (r.metric.value, r.app_i, r.app_j, r.window.start, -r.ce))


def write_correlations_csv(runs: Sequence[CorrelationRun]) -> Iterator[str]:
    """The correlations.csv text as chunks: the header, then one chunk per
    pair series of one row per run, runs in the order given. Each day's ISO
    text is formatted once."""
    header, prefix = csv_prefixes(CORRELATIONS_CSV_COLUMNS)
    yield header
    iso = {day: day.isoformat() for day in {r.t_start for r in runs} | {r.t_end for r in runs}}
    for (app_i, app_j, metric), group in groupby(runs, key=itemgetter(0, 1, 2)):
        key = prefix(app_i, app_j, metric.value)
        yield "".join([f"{key}{sign},{iso[start]},{iso[end]}\n" for _, _, _, sign, start, end in group])


def _run_problem(sign: int, t_start: date, t_end: date, window_days: int, prev: CorrelationRun | None) -> str | None:
    """Why a run read back cannot stand after ``prev``, the previous run of
    its pair and metric; None when it can."""
    if sign not in (-1, 1):
        return f"sign must be 1 or -1, got {sign}"
    if t_end <= t_start:
        return f"t_end {t_end} is not after t_start {t_start}"
    if (t_end - t_start).days % window_days:
        return f"{(t_end - t_start).days} days are not whole {window_days}-day windows"
    if prev is None:
        return None
    if t_start == prev.t_end and sign == prev.sign:
        return f"the run from {t_start} touches the run from {prev.t_start} with the same sign"
    return follow_problem("run", t_start, prev.t_start, prev.t_end, window_days)


def read_correlations_csv(text: str, window_days: int) -> list[CorrelationRun]:
    """Correlation runs from the CSV dump, in file order.

    A row that ``series_rows`` refuses is a ValueError naming its pair and
    line. So is a pair that is not canonical (``app_i`` not before
    ``app_j``, a self-pair included), and a run whose sign is not 1 or -1,
    whose ``t_end`` is not after its ``t_start``, or whose span is not a
    whole number of ``window_days`` windows; and one that touches the
    previous run of its pair and metric with the same sign, or that
    ``follow_problem`` refuses after it.
    """
    runs: list[CorrelationRun] = []
    last: dict[tuple, CorrelationRun] = {}
    for line, label, key, (sign, t_start, t_end), _ in series_rows(text, CORRELATIONS_CSV_COLUMNS, "correlations"):
        if key[0] >= key[1]:
            raise ValueError(f"{label}, CSV line {line}: app_i {key[0]!r} is not before app_j {key[1]!r}")
        problem = _run_problem(sign, t_start, t_end, window_days, last.get(key))
        if problem is not None:
            raise ValueError(f"{label}, CSV line {line}: {problem}")
        last[key] = CorrelationRun(*key, sign, t_start, t_end)
        runs.append(last[key])
    return runs


def _field(data: object, at: str, key: str, *types: type) -> Any:
    """``data[key]`` when ``data`` is a JSON object holding ``key`` as one
    of ``types``, as ``json.loads`` gives them (so a bool is no int); a
    ValueError naming the field, ``at`` before ``key``, otherwise."""
    if type(data) is not dict or key not in data:
        raise ValueError(f"no field {at}{key}")
    if type(data[key]) not in types:
        names = " or ".join({type(None): "null", dict: "an object"}.get(t, t.__name__) for t in types)
        raise ValueError(f"{at}{key} must be {names}, got {data[key]!r}")
    return data[key]


def _day(data: object, at: str, key: str) -> date:
    text = _field(data, at, key, str)
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"{at}{key} is not an ISO date: {text!r}") from None


def _event_from_dict(item: dict, side: str, app_id: str, metric: str) -> EventRecord:
    """The record's event ``side``, which must be of ``app_id`` and ``metric``."""
    data, at = _field(item, "", side, dict), f"{side}."
    if (_field(data, at, "app_id", str), _field(data, at, "metric", str)) != (app_id, metric):
        raise ValueError(f"{side} is of ({data['app_id']}, {data['metric']}), not ({app_id}, {metric})")
    number = (int, float)
    return EventRecord(
        app_id, MetricKind(metric), TimeWindow(_day(data, at, "window_start"), _field(data, at, "window_days", int)),
        _field(data, at, "e", int), _field(data, at, "a", *number, type(None)),
        _field(data, at, "sigma", *number, type(None)), _field(data, at, "k", *number),
        _field(data, at, "baseline_n", int), _field(data, at, "warmup", bool),
    )


def _ce_from_dict(item: object) -> CorrelatedEventRecord:
    app_i, app_j, metric = (_field(item, "", key, str) for key in ("app_i", "app_j", "metric"))
    kind = MetricKind(metric)
    window = TimeWindow(_day(item, "", "window_start"), _field(item, "", "window_days", int))
    ce, run = _field(item, "", "ce", int), _field(item, "", "run", dict)
    sign, t_start = _field(run, "run.", "sign", int), _day(run, "run.", "t_start")
    if sign not in (-1, 1) or ce != sign:
        raise ValueError(f"ce {ce} and run.sign {sign} must be the same 1 or -1")
    first = TimeWindow(_day(run, "run.", "first_interval_start"), _field(run, "run.", "first_interval_days", int))
    if first != TimeWindow(t_start, window.days):
        raise ValueError(f"run.first_interval ({first.start}, {first.days}) is not ({t_start}, {window.days}), "
                         "the run's start and the window's days")
    return CorrelatedEventRecord(
        app_i, app_j, kind, window, ce,
        _event_from_dict(item, "event_i", app_i, metric), _event_from_dict(item, "event_j", app_j, metric),
        CorrelationRun(app_i, app_j, kind, sign, t_start, _day(run, "run.", "t_end")), first,
    )


def ce_records_from_json(text: str) -> list[CorrelatedEventRecord]:
    """Correlated events from their JSON dump, in file order.

    Each field is read only as the JSON type that ``ce_records_to_json``
    writes, and dates only as ISO text. A record is also refused when its
    ``ce`` or run sign is not 1 or -1, or the two differ; when an event's
    app or metric is not the record's; or when its first interval is not
    the run's start and the window's days. A refusal is a ValueError naming
    the record's position and the field.
    """
    payload = json.loads(text)
    if type(payload) is not list:
        raise ValueError(f"correlated events must be a JSON list, got {type(payload).__name__}")
    records: list[CorrelatedEventRecord] = []
    for n, item in enumerate(payload):
        try:
            records.append(_ce_from_dict(item))
        except ValueError as exc:
            raise ValueError(f"correlated event {n}: {exc}") from None
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
                "first_interval_start": r.first_interval.start.isoformat(),
                "first_interval_days": r.first_interval.days,
            },
        }
        for r in records
    ]
    return json_text(payload)
