"""Windowed per-app metric series.

Three metrics are tracked per app: review count, mean normalised rating,
and mean sentence polarity (both on the shared 0..4 scale). Series are
built over a contiguous grid of fixed-length UTC-day windows; each window
carries its average ``mu`` and the window-over-window difference ``delta``
against the immediately preceding window.

Missing is an explicit state: a window with no observations has no mean
for rating/polarity (the count metric is simply 0 there), and a delta is
missing whenever either side is. Nothing is imputed.

The analysis sums each app's reviews per UTC day of the span once
(``day_sums``): int64 prefix sums over the days of reviews, normalised
ratings, sentence polarities and scored sentences. Every window grid takes
its totals from those, so a window mean is one integer total over one
integer count on any grid. The day sums are the one intermediate between
stages: ``write_day_sums_csv`` writes them as one row per app and day, and
``read_day_sums_csv`` reads them back exactly.

Sentences are scored by one kernel, ``LexiconScorer.sentence_bins``,
called only by ``score_bodies``: it fills one memo that maps each distinct
body to its sentence bins, one byte (0..4) per sentence in
``split_sentences`` order. The day sums take each body's sentence count
and polarity total from those bytes; the correlated events' windows zip
them with the sentences' texts (``score_reviews``, one ``score_review``
per body), so a body the day sums scored is not scored again.

A series is held as columns (``SeriesStats``) over a window grid that all
series of the grid share; ``WindowStat`` rows are built only at the edges.
A series CSV is written as text chunks, one per series, so no file's whole
text is held. The metrics CSVs are reports; no stage reads them back.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ingest import DAY_US, RatingScale, Review, ReviewTable, ScaleMap, csv_line_writer, midnight_us, utc_datetime
from .sentiment import LexiconScorer, split_sentences

__all__ = [
    "BodyScore",
    "DAY_SUMS_CSV_COLUMNS",
    "METRICS_CSV_COLUMNS",
    "DaySums",
    "MetricKind",
    "SeriesStats",
    "TimeWindow",
    "correlation_points",
    "csv_rows",
    "check_grid",
    "day_sums",
    "float_cells",
    "int64_cells",
    "metric_delta",
    "normalize_rating",
    "read_day_sums_csv",
    "score_bodies",
    "score_review",
    "score_reviews",
    "series_cells",
    "series_groups",
    "utc_midnights",
    "window_series",
    "window_stats",
    "WindowStat",
    "write_day_sums_csv",
    "write_metrics_csv",
    "write_series_csv",
]

METRICS_CSV_COLUMNS = ("app_id", "metric", "t0", "w", "mu", "delta", "n_obs")
DAY_SUMS_CSV_COLUMNS = ("app_id", "t0", "reviews", "rating", "polarity", "sentences")


class MetricKind(str, Enum):
    COUNT = "count"
    RATING = "rating"
    POLARITY = "polarity"


@dataclass(frozen=True, slots=True, order=True)
class TimeWindow:
    """Half-open span of whole UTC days: [start, start + days)."""

    start: date
    days: int

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.days)

    def contains(self, ts: datetime) -> bool:
        day = ts.astimezone(timezone.utc).date()
        return self.start <= day < self.end

    def overlaps(self, other: "TimeWindow") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class WindowStat:
    app_id: str
    metric: MetricKind
    window: TimeWindow
    mu: float | None
    delta: float | None
    n_obs: int


@dataclass(frozen=True, slots=True, eq=False)
class SeriesStats:
    """One app/metric series in column form over a contiguous window grid
    that all series of the grid share: ``mu`` and ``delta`` (float, NaN
    where missing) and ``n_obs`` (int) hold one entry per window."""

    app_id: str
    metric: MetricKind
    windows: Sequence[TimeWindow]
    mu: np.ndarray
    delta: np.ndarray
    n_obs: np.ndarray

    def records(self) -> list[WindowStat]:
        return [
            WindowStat(self.app_id, self.metric, w, None if math.isnan(mu) else mu, None if math.isnan(d) else d, n)
            for w, mu, d, n in zip(self.windows, self.mu.tolist(), self.delta.tolist(), self.n_obs.tolist())
        ]


def normalize_rating(raw: int, scale: RatingScale) -> int:
    """Map a raw rating onto the five bins 0..4 (nearest bin, ties up).

    A 1..5 scale maps as raw - 1; other scales map affinely, e.g. 7 on a
    0..10 scale lands in bin 3.
    """
    if not scale.contains(raw):
        raise ValueError(f"rating {raw} outside scale [{scale.lo}, {scale.hi}]")
    span = scale.hi - scale.lo
    return int((raw - scale.lo) * 4 / span + 0.5)


def window_series(t_start: date, t_end: date, days: int) -> list[TimeWindow]:
    """Contiguous windows of ``days`` days covering [t_start, t_end).

    A trailing span shorter than ``days`` is dropped rather than emitted
    short. An empty or too-short span yields no windows.
    """
    if days < 1:
        raise ValueError(f"window length must be >= 1 day, got {days}")
    count = (t_end - t_start).days // days
    return [TimeWindow(t_start + timedelta(days=i * days), days) for i in range(count)]


# Scored sentences of one body, (index, text, polarity) each.
BodyScore = list[tuple[int, str, int]]


def score_review(body: str, bins: Sequence[int]) -> BodyScore:
    """One body's scored sentences: ``split_sentences``' texts zipped with
    the body's sentence bins. A count of bins other than the count of
    sentences is a ValueError."""
    texts = split_sentences(body)
    if len(texts) != len(bins):
        raise ValueError(f"{len(bins)} sentence bins for a body of {len(texts)} sentences")
    return list(zip(range(len(texts)), texts, bins))


def score_reviews(bodies: Sequence[str], scorer: LexiconScorer, memo: dict[str, bytes]) -> list[BodyScore]:
    """Each body's scored sentences, in the order given: ``score_review`` of
    the body and its bins in ``memo``, which ``score_bodies`` first fills
    with the bodies it lacks. No ``Review`` or rating is built."""
    score_bodies(bodies, scorer, memo)
    return [score_review(body, memo[body]) for body in bodies]


# Bodies per LexiconScorer.sentence_bins call. A block bounds the words held
# at once and keeps the kernel's arrays above 1 KiB: numpy keeps the memory
# of a freed array under that size for reuse, so many small calls, one per
# app, would leave heap behind for every array size they used.
SCORE_BLOCK = 1024


def score_bodies(bodies: Iterable[str], scorer: LexiconScorer, memo: dict[str, bytes]) -> None:
    """Put each body that ``memo`` does not hold yet into it, as its
    sentence bins: one byte (0..4) per sentence, in ``split_sentences``
    order. ``SCORE_BLOCK`` bodies are scored per ``scorer.sentence_bins``
    call; this is the kernel's one caller."""
    fresh = list(set(bodies).difference(memo))
    # One table sized for every fresh body before the first block: a memo
    # regrown block by block leaves its old tables between the kernel's
    # arrays, and that fragmented heap can keep a run's freed memory from
    # going back to the system when the run ends.
    scored = dict.fromkeys(fresh)
    for i in range(0, len(fresh), SCORE_BLOCK):
        block = fresh[i : i + SCORE_BLOCK]
        bins, owner = scorer.sentence_bins(block)
        cuts = np.searchsorted(owner, np.arange(len(block) + 1)).tolist()
        joined = bins.astype(np.uint8).tobytes()
        scored.update(zip(block, map(joined.__getitem__, map(slice, cuts, cuts[1:]))))
    memo.update(scored)


@dataclass(frozen=True, slots=True)
class DaySums:
    """One app's reviews summed per UTC day of a span, as prefix sums.

    Day ``d`` of the span is ``start + d``. ``reviews[d]`` counts the app's
    reviews on the span's days before day ``d``, so it holds one entry per
    day and one more. ``rating``, ``polarity`` and ``sentences`` are int64
    prefix sums over the same days of the normalised rating, the sentence
    polarity total and the number of scored sentences; each is None when its
    metric was not asked for. Any grid of whole-day windows inside the span
    sums from these in integer arithmetic.
    """

    start: date
    reviews: np.ndarray
    rating: np.ndarray | None = None
    polarity: np.ndarray | None = None
    sentences: np.ndarray | None = None


def utc_midnights(start: date, n_days: int) -> np.ndarray:
    """The UTC midnights opening days ``start`` .. ``start + n_days``, as
    int64 microseconds since the epoch."""
    return midnight_us(start) + np.arange(n_days + 1, dtype=np.int64) * DAY_US


def _prefix(values: Sequence[int] | np.ndarray) -> np.ndarray:
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _normalized_ratings(reviews: ReviewTable, scales: ScaleMap) -> np.ndarray:
    """Each review's rating on the 0..4 bins, under its source's scale."""
    out = np.empty(len(reviews), dtype=np.int64)
    for source in set(reviews.source.tolist()):
        rows = reviews.source == source
        raw = reviews.raw_rating[rows]
        values = sorted(set(raw.tolist()))  # np.unique would import numpy.ma, 0.5 MB
        scale = scales.for_source(source)
        bins = np.array([normalize_rating(v, scale) for v in values], dtype=np.int64)
        out[rows] = bins[np.searchsorted(values, raw)]
    return out


def day_sums(
    reviews: Sequence[Review],
    midnights: np.ndarray,
    metrics: Collection[MetricKind],
    scorer: LexiconScorer,
    scales: ScaleMap,
    memo: dict[str, bytes],
) -> DaySums:
    """Day sums of one app's reviews (sorted by timestamp) over a span.

    ``reviews`` is the app's ``ReviewTable``; any other sequence goes
    through ``ReviewTable.from_reviews``. ``midnights`` comes from
    ``utc_midnights``; each day is cut from the stamps by bisection.
    Ratings are normalised and bodies scored only for the span's reviews
    and the metrics asked for. ``memo`` keeps each distinct body's sentence
    bins, and no sentence text; the span's bodies that it does not hold yet
    go through ``score_bodies``.
    """
    table = ReviewTable.from_reviews(reviews)
    cuts = np.searchsorted(table.stamp_us, midnights, side="left")
    table = table[cuts[0] : cuts[-1]]  # the span's reviews
    cuts -= cuts[0]
    rating = polarity = sentences = None
    if MetricKind.RATING in metrics:
        rating = _prefix(_normalized_ratings(table, scales))[cuts]
    if MetricKind.POLARITY in metrics:
        bodies = table.body.tolist()
        score_bodies(bodies, scorer, memo)
        bins = list(map(memo.__getitem__, bodies))
        sentences = _prefix(np.fromiter(map(len, bins), dtype=np.int64, count=len(bins)))[cuts]
        polarity = _prefix(np.frombuffer(b"".join(bins), dtype=np.uint8))[sentences]
    return DaySums(utc_datetime(int(midnights[0])).date(), cuts, rating, polarity, sentences)


def window_stats(
    app_id: str,
    days: DaySums,
    windows: Sequence[TimeWindow],
    metric: MetricKind,
) -> SeriesStats:
    """The series over a contiguous grid, mu and delta filled.

    ``days`` holds the app's day sums. A window's mean is its integer total
    over its observation count, so it is the same on every grid; the delta
    is mu minus the previous window's mu, NaN where either is missing.
    """
    width = windows[0].days if windows else 1
    first = (windows[0].start - days.start).days if windows else 0
    bounds = slice(first, first + len(windows) * width + 1, width)
    if first < 0 or len(days.reviews[bounds]) != len(windows) + 1:
        raise ValueError(f"windows from {windows[0].start} run outside the day sums")
    n_obs = np.diff(days.reviews[bounds])
    if metric is MetricKind.COUNT:
        mu = n_obs.astype(np.float64)
    elif metric is MetricKind.RATING or metric is MetricKind.POLARITY:
        sums = days.rating if metric is MetricKind.RATING else days.polarity
        if sums is None:
            raise ValueError(f"day sums were built without {metric.value} totals")
        if metric is MetricKind.POLARITY:
            n_obs = np.diff(days.sentences[bounds])
        # Below 2**53 each int64 is an exact float64, so this is the rounded t / n.
        mu = np.divide(np.diff(sums[bounds]), n_obs, out=np.full(len(n_obs), np.nan), where=n_obs > 0)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return SeriesStats(app_id, metric, windows, mu, np.diff(mu, prepend=np.nan), n_obs)


def check_grid(windows: Sequence[TimeWindow], label: str) -> None:
    """Refuse windows that are not consecutive windows of one length in
    time order (a gap, a step back, a repeat or a change of length) with a
    ValueError naming ``label``."""
    for prev, window in zip(windows, windows[1:]):
        if window.start != prev.end:
            raise ValueError(f"{label}: window {window.start} does not follow {prev.start}")
        if window.days != prev.days:
            raise ValueError(f"{label}: window {window.start} is {window.days} days, not {prev.days}")


def metric_delta(stats: Sequence[WindowStat]) -> list[WindowStat]:
    """Fill deltas: mu minus the previous window's mu, where both exist.

    The input must be one app/metric series in window order over a
    contiguous grid; the first window's delta is always missing.
    """
    check_grid([s.window for s in stats], "series")
    prevs = [None, *(s.mu for s in stats)]
    return [replace(s, delta=None if s.mu is None or p is None else s.mu - p) for s, p in zip(stats, prevs)]


def correlation_points(stats: Sequence[WindowStat]) -> dict[date, float]:
    """Window averages keyed by window start, for correlation lookbacks."""
    return {s.window.start: s.mu for s in stats if s.mu is not None}


def write_series_csv(
    columns: Sequence[str],
    series: Iterable[tuple[Sequence[str], Sequence[TimeWindow], np.ndarray, np.ndarray, np.ndarray]],
    cell: Callable[[TimeWindow], str],
) -> Iterator[str]:
    """A series CSV as text chunks: the header, then one chunk per series
    (leading fields, windows, three value arrays) of one row per window:
    the fields, ``cell(window)`` and the values, a float written with
    ``repr`` and NaN empty. The fields are quoted once per series, by the
    header's ``csv`` dialect, and a grid's cells are formatted once for the
    consecutive series that share it. Nothing is built before it is asked
    for, so a writer holds one series' text at a time."""
    parts: list[str] = []
    writer = csv_line_writer(parts)
    writer.writerow(columns)
    yield parts.pop()
    grid, cells = None, []
    for fields, windows, *values in series:
        if windows is not grid:
            grid, cells = windows, [cell(w) for w in windows]
        writer.writerow((*fields, ""))
        prefix = parts.pop()[:-1]  # the quoted fields and a trailing comma
        x, y, z = ([repr(v) if v == v else "" for v in a.tolist()] if a.dtype.kind == "f" else a.tolist()
                   for a in values)  # NaN != NaN
        yield "".join([f"{prefix}{t0},{p},{q},{r}\n" for t0, p, q, r in zip(cells, x, y, z)])


def write_metrics_csv(series: Iterable[SeriesStats]) -> Iterator[str]:
    """The metrics CSV as text chunks: a header, then every series' rows in
    window order, one chunk per series."""
    return write_series_csv(
        METRICS_CSV_COLUMNS,
        (((s.app_id, s.metric.value), s.windows, s.mu, s.delta, s.n_obs) for s in series),
        lambda w: f"{w.start.isoformat()},{w.days}",
    )


def write_day_sums_csv(sums: Mapping[str, DaySums]) -> Iterator[str]:
    """The day sums CSV as text chunks: the header, then one chunk per app
    of one row per day of its span, holding that day's totals; a total that
    was not summed is left empty. Each app id is quoted once, and the day
    cells are formatted once per span."""
    parts: list[str] = []
    csv_line_writer(parts).writerows([DAY_SUMS_CSV_COLUMNS, *((app, "") for app in sums)])
    day_cells = functools.cache(lambda start, n: [(start + timedelta(days=d)).isoformat() for d in range(n)])
    yield parts[0]
    for prefix, days in zip([line[:-1] for line in parts[1:]], sums.values()):  # "app," without its newline
        cells = day_cells(days.start, len(days.reviews) - 1)
        totals = ([""] * len(cells) if a is None else np.diff(a).tolist()
                  for a in (days.reviews, days.rating, days.polarity, days.sentences))
        yield "".join([f"{prefix}{t0},{n},{r},{p},{s}\n" for t0, n, r, p, s in zip(cells, *totals)])


def csv_rows(text: str, columns: Sequence[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """A report CSV's rows after its header, each with the line it ends on.

    Blank lines are skipped; a header other than ``columns`` is a ValueError.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != tuple(columns):
        raise ValueError(f"bad {what} CSV header: {header!r}")
    return ((reader.line_num, row) for row in reader if row)


def int64_cells(cells: Iterable[str], line: int, label: str) -> list[int]:
    """One CSV row's integer cells. A cell that is not an integer, or is
    beyond int64, is a ValueError naming ``label`` and the row's line."""
    values = []
    for cell in cells:
        try:
            value = int(cell)
        except ValueError:
            raise ValueError(f"{label}, CSV line {line}: {cell!r} is not an integer") from None
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{label}, CSV line {line}: {cell} is beyond int64")
        values.append(value)
    return values


def series_cells(row: list[str], columns: Sequence[str], line: int, what: str) -> tuple[str, tuple, date, list[str]]:
    """One series CSV row cut at its ``t0`` cell: the series label (``what``
    and the key cells), the key cells before ``t0`` (a ``metric`` cell as
    its ``MetricKind``), the day ``t0`` names and the cells after it. A row
    of another length than ``columns``, a metric that is no ``MetricKind``
    or a ``t0`` that is no ISO date is a ValueError naming the series and
    the row's line."""
    at = columns.index("t0")
    key = row[:at]
    label = f"{what} of ({', '.join(key)})"
    try:
        if len(row) != len(columns):
            raise ValueError(f"expected {len(columns)} cells, got {len(row)}")
        if columns[at - 1] == "metric":
            key[-1] = MetricKind(key[-1])
        return label, tuple(key), date.fromisoformat(row[at]), row[at + 1 :]
    except ValueError as exc:
        raise ValueError(f"{label}, CSV line {line}: {exc}") from None


def float_cells(cells: Iterable[str], line: int, label: str) -> list[float | None]:
    """One CSV row's float cells, an empty one None. A cell that does not
    parse as a float is a ValueError naming ``label`` and the row's line."""
    values: list[float | None] = []
    for cell in cells:
        try:
            values.append(None if cell == "" else float(cell))
        except ValueError:
            raise ValueError(f"{label}, CSV line {line}: {cell!r} is not a number") from None
    return values


def series_groups(rows: Iterable[tuple], label: str) -> dict[Hashable, list[list]]:
    """Series CSV rows, each (key, window, *values), grouped per key.

    Series come in first-row order, each as its list of windows and one
    list per value, in file order. Every series' windows must pass
    ``check_grid``, which names it by ``label.format(*key)``.
    """
    groups: dict[Hashable, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row[1:])
    columns = {key: [list(column) for column in zip(*group)] for key, group in groups.items()}
    for key, (windows, *_) in columns.items():
        check_grid(windows, label.format(*key))
    return columns


def read_day_sums_csv(text: str) -> dict[str, DaySums]:
    """Day sums from the CSV dump, keyed by app in first-row order.

    ``series_groups`` refuses an app's days with a gap, a repeat or a step
    back, and every app must hold the first app's span. A row that
    ``series_cells`` refuses, or a total that is not an integer (an empty
    one included) or is beyond int64, is a ValueError naming its app and
    line; so is a negative total, or a running sum beyond int64.
    """
    rows = []
    for line, row in csv_rows(text, DAY_SUMS_CSV_COLUMNS, "day sums"):
        label, key, t0, totals = series_cells(row, DAY_SUMS_CSV_COLUMNS, line, "day sums")
        rows.append((key, TimeWindow(t0, 1), *int64_cells(totals, line, label)))
    out: dict[str, DaySums] = {}
    for (app,), (days, *totals) in series_groups(rows, "day sums of ({0})").items():
        prefixes = [_prefix(np.array(t, dtype=np.int64)) for t in totals]
        if any((s[1:] < s[:-1]).any() for s in prefixes):
            raise ValueError(f"day sums of ({app}): a total is negative or sums beyond int64")
        sums = out[app] = DaySums(days[0].start, *prefixes)
        first = next(iter(out.values()))
        if (sums.start, len(sums.reviews)) != (first.start, len(first.reviews)):
            raise ValueError(f"day sums of ({app}): days from {sums.start} are not the first app's span")
    return out
