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
called only by ``score_bodies``, in blocks bounded by body text. It
returns the bins in column form (``BodyBins``): one code per body, naming
its distinct body, and each distinct body's bins, one byte (0..4) per
sentence in ``split_sentences`` order. The day sums gather each row's
sentence count and polarity total from the app's rows; the correlated
events' windows read a body's bins through its row's code and zip them
with the sentences' texts (``BodyBins.scored``, one ``score_review`` per
body), so a body the day sums scored is not scored again.

A series is held as columns (``SeriesStats``) over a window grid that all
series of the grid share; ``WindowStat`` rows are built only at the edges.

The series-CSV form of the stage files (day sums, metrics, events and
correlation runs) is stated here once. A series CSV is written as text
chunks, the header and then one chunk per series, so no file's whole text
is held; ``csv_prefixes`` gives every writer its header and quotes each
series' key cells once. ``series_rows`` is the one reader: it reads each
cell after the key by its column's type, and takes a number only in the
form the writers write it. The metrics CSVs are reports; no stage reads
them back.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass, replace
from datetime import date, timedelta
from enum import Enum
from itertools import count
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ingest import DAY_US, RatingScale, ReviewTable, ScaleMap, csv_line_writer, midnight_us, utc_datetime
from .sentiment import LexiconScorer, split_sentences

__all__ = [
    "BodyBins",
    "BodyScore",
    "DAY_SUMS_CSV_COLUMNS",
    "METRICS_CSV_COLUMNS",
    "DaySums",
    "MetricKind",
    "SeriesStats",
    "TimeWindow",
    "correlation_points",
    "csv_prefixes",
    "day_sums",
    "follow_problem",
    "metric_delta",
    "normalize_rating",
    "read_day_sums_csv",
    "score_bodies",
    "score_review",
    "score_reviews",
    "series_rows",
    "utc_midnights",
    "window_series",
    "window_stats",
    "WindowStat",
    "write_day_sums_csv",
    "write_metrics_csv",
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


def score_reviews(bodies: Sequence[str], scorer: LexiconScorer) -> list[BodyScore]:
    """Each body's scored sentences, in the order given: ``score_review`` of
    the body and its bins from ``score_bodies``. No ``Review`` or rating is
    built."""
    scores = score_bodies(bodies, scorer)
    return scores.scored(bodies, scores.code.tolist())


@dataclass(frozen=True, slots=True, eq=False)
class BodyBins:
    """The sentence bins of a list of bodies, in column form.

    ``code`` holds one int64 per body, the index of its distinct body; the
    distinct bodies are numbered in order of first occurrence. Distinct body
    ``k``'s bins are ``bins[first[k]:first[k + 1]]``, one byte (0..4) per
    sentence in ``split_sentences`` order. Indexing by a slice or an array
    of rows gives those rows' codes over the same distinct bodies.
    """

    code: np.ndarray
    first: np.ndarray
    bins: bytes

    def __getitem__(self, rows: slice | np.ndarray) -> "BodyBins":
        return BodyBins(self.code[rows], self.first, self.bins)

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each row's bins start in the second array, with one entry
        more, and every row's bins, row after row."""
        start = self.first[self.code]
        at = _prefix(self.first[self.code + 1] - start)
        index = np.repeat(start - at[:-1], np.diff(at)) + np.arange(at[-1])
        return at, np.frombuffer(self.bins, dtype=np.uint8)[index]

    def scored(self, bodies: Sequence[str], codes: Iterable[int]) -> list[BodyScore]:
        """``score_review`` of each body with the bins of its distinct body,
        whose code ``codes`` gives in the bodies' order. The offsets are read
        as ints through a memoryview, and each body's bins are a slice of
        ``bins``, the form that zips fastest."""
        first = memoryview(self.first)
        return [score_review(body, self.bins[first[k] : first[k + 1]]) for body, k in zip(bodies, codes)]


# Characters of body text per LexiconScorer.sentence_bins call: a block ends
# after the body that reaches it. It bounds the words held at once, however
# long the bodies, and keeps the kernel's arrays above 1 KiB: numpy keeps the
# memory of a freed array under that size for reuse, so many small calls
# would leave heap behind for every array size they used.
SCORE_BLOCK = 16384


def score_bodies(bodies: Iterable[str], scorer: LexiconScorer) -> BodyBins:
    """The bodies' sentence bins (``BodyBins``), one code per body.

    The bodies are read once, into one dict that keeps each distinct body's
    first row; a body's code is the rank of its first row among those. The
    dict tells bodies that share a hash apart by comparing them, so no code
    depends on the hash seed. Each distinct body goes through
    ``scorer.sentence_bins`` once, in blocks of ``SCORE_BLOCK`` characters;
    this is the kernel's one caller.
    """
    first: dict[str, int] = {}
    rows_first = np.fromiter(map(first.setdefault, bodies, count()), dtype=np.int64)
    firsts = np.fromiter(first.values(), dtype=np.int64, count=len(first))  # ascending
    distinct = list(first)
    del first  # before the kernel's blocks
    code = np.searchsorted(firsts, rows_first)
    del rows_first, firsts
    chars = _prefix(np.fromiter(map(len, distinct), dtype=np.int64, count=len(distinct)))  # text before each
    counts, bins = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint8)]
    lo = 0
    while lo < len(distinct):
        hi = int(np.searchsorted(chars, chars[lo] + SCORE_BLOCK))  # the block ends after the body reaching the bound
        block = distinct[lo:hi]
        block_bins, owner = scorer.sentence_bins(block)
        counts.append(np.bincount(owner, minlength=len(block)))
        bins.append(block_bins.astype(np.uint8))
        lo = hi
    return BodyBins(code, _prefix(np.concatenate(counts)), np.concatenate(bins).tobytes())


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
    table: ReviewTable,
    midnights: np.ndarray,
    metrics: Collection[MetricKind],
    scales: ScaleMap,
    bins: BodyBins | None = None,
) -> DaySums:
    """Day sums of one app's reviews (sorted by timestamp) over a span.

    ``table`` is the app's ``ReviewTable``. ``midnights`` comes from
    ``utc_midnights``; each day is cut from the stamps by bisection.
    Ratings are normalised only for the span's reviews and the metrics
    asked for. The polarity metric takes ``bins``, the sentence bins of the
    app's rows (``score_bodies`` of their bodies, or the app's slice of
    them), and gathers the span's rows from it.
    """
    cuts = np.searchsorted(table.stamp_us, midnights, side="left")
    span = slice(int(cuts[0]), int(cuts[-1]))
    table = table[span]  # the span's reviews
    cuts -= cuts[0]
    rating = polarity = sentences = None
    if MetricKind.RATING in metrics:
        rating = _prefix(_normalized_ratings(table, scales))[cuts]
    if MetricKind.POLARITY in metrics:
        at, values = bins[span].gather()
        sentences = at[cuts]
        polarity = _prefix(values)[sentences]
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


def follow_problem(what: str, start: date, prev_start: date, prev_end: date, window_days: int) -> str | None:
    """Why a ``what`` from ``start`` cannot follow the previous one of its
    series, from ``prev_start`` to ``prev_end``, on a grid of
    ``window_days``-day windows: it comes before it, overlaps or repeats
    it, or leaves its grid. None when it can; a gap of whole windows is
    allowed."""
    if start < prev_start:
        return f"the {what} from {start} comes before the {what} from {prev_start}"
    if start < prev_end:
        return f"the {what} from {start} overlaps the {what} from {prev_start}"
    if (start - prev_end).days % window_days:
        return f"the {what} from {start} is off the grid of the {what} from {prev_start}"
    return None


def metric_delta(stats: Sequence[WindowStat]) -> list[WindowStat]:
    """Fill deltas: mu minus the previous window's mu, where both exist.

    The input must be one app/metric series in window order over a
    contiguous grid; the first window's delta is always missing. Windows
    that are not consecutive windows of one length in time order (a gap, a
    step back, a repeat or a change of length) are a ValueError.
    """
    windows = [s.window for s in stats]
    for prev, window in zip(windows, windows[1:]):
        if window.start != prev.end:
            raise ValueError(f"series: window {window.start} does not follow {prev.start}")
        if window.days != prev.days:
            raise ValueError(f"series: window {window.start} is {window.days} days, not {prev.days}")
    prevs = [None, *(s.mu for s in stats)]
    return [replace(s, delta=None if s.mu is None or p is None else s.mu - p) for s, p in zip(stats, prevs)]


def correlation_points(stats: Sequence[WindowStat]) -> dict[date, float]:
    """Window averages keyed by window start, for correlation lookbacks."""
    return {s.window.start: s.mu for s in stats if s.mu is not None}


def csv_prefixes(columns: Sequence[str]) -> tuple[str, Callable[..., str]]:
    """A series CSV's header line, and the function that quotes one series'
    key cells once, in the header's ``csv`` dialect (``csv_line_writer``),
    into the prefix of each of its rows: the quoted cells and a trailing
    comma. The writers format the cells after the key themselves."""
    parts: list[str] = []
    writer = csv_line_writer(parts)
    writer.writerow(columns)

    def prefix(*key: str) -> str:
        writer.writerow((*key, ""))
        return parts.pop()[:-1]

    return parts.pop(), prefix


def write_metrics_csv(series: Iterable[SeriesStats]) -> Iterator[str]:
    """The metrics CSV as text chunks: the header, then one chunk per series
    of one row per window, in window order: a float written with ``repr``
    and NaN empty. A grid's window cells are formatted once for the
    consecutive series that share it. Nothing is built before it is asked
    for, so a writer holds one series' text at a time."""
    header, prefix = csv_prefixes(METRICS_CSV_COLUMNS)
    yield header
    grid, cells = None, []
    for s in series:
        if s.windows is not grid:
            grid, cells = s.windows, [f"{w.start.isoformat()},{w.days}" for w in s.windows]
        key = prefix(s.app_id, s.metric.value)
        mu, delta = ([repr(v) if v == v else "" for v in a.tolist()] for a in (s.mu, s.delta))  # NaN != NaN
        yield "".join([f"{key}{t0},{m},{d},{n}\n" for t0, m, d, n in zip(cells, mu, delta, s.n_obs.tolist())])


def write_day_sums_csv(sums: Mapping[str, DaySums]) -> Iterator[str]:
    """The day sums CSV as text chunks: the header, then one chunk per app
    of one row per day of its span, holding that day's totals; a total that
    was not summed is left empty. The day cells are formatted once per
    span."""
    header, prefix = csv_prefixes(DAY_SUMS_CSV_COLUMNS)
    day_cells = functools.cache(lambda start, n: [(start + timedelta(days=d)).isoformat() for d in range(n)])
    yield header
    for app, days in sums.items():
        key = prefix(app)
        cells = day_cells(days.start, len(days.reviews) - 1)
        totals = ([""] * len(cells) if a is None else np.diff(a).tolist()
                  for a in (days.reviews, days.rating, days.polarity, days.sentences))
        yield "".join([f"{key}{t0},{n},{r},{p},{s}\n" for t0, n, r, p, s in zip(cells, *totals)])


# Numbers are read only as the writers write them: an int64 cell is ASCII
# digits with an optional leading "-", and a float cell is what ``repr``
# writes, an ASCII decimal with an optional exponent, or an infinity or NaN
# (which a reader then refuses by its own rule). ``int`` and ``float``
# alone would also take "1_0", "+1", " 4 " and non-ASCII digits.
_FLOAT = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|(?i:inf|infinity|nan))")


def _int64(cell: str) -> int:
    if not (cell.isascii() and cell.removeprefix("-").isdigit()):
        raise ValueError(f"{cell!r} is not an integer")
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{cell} is beyond int64")
    return value


def _float_or_empty(cell: str) -> float | None:
    if cell == "":
        return None
    if _FLOAT.fullmatch(cell) is None:
        raise ValueError(f"{cell!r} is not a number")
    return float(cell)


# How ``series_rows`` reads a cell after the key, by its column: a day
# (ISO), a float or empty, the text as written; every other column is int64.
_CELL_READERS: dict[str, Callable[[str], object]] = {
    "t0": date.fromisoformat, "t_start": date.fromisoformat, "t_end": date.fromisoformat,
    "a": _float_or_empty, "sigma": _float_or_empty, "warmup": str}


def series_rows(text: str, columns: Sequence[str], what: str) -> Iterator[tuple[int, str, tuple, list, list[str]]]:
    """A series CSV's rows after its header, each typed and cut after its key.

    Each row comes as the line it ends on, its series label (``what`` and
    the key cells), its key (the cells through ``metric``, that one as its
    ``MetricKind``, or the first cell where there is no metric column), its
    cells after the key, each read by its column's type in
    ``_CELL_READERS``, and the row's cells as written. Blank lines are
    skipped; a header other than ``columns`` is a ValueError. So is a row
    of another length than ``columns``, a metric that is no ``MetricKind``,
    a date that is not ISO, a cell that is not an int64 or a float as the
    writers write them, or an int64 beyond its range; these name the
    series and the row's line.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != tuple(columns):
        raise ValueError(f"bad {what} CSV header: {header!r}")
    at = columns.index("metric") + 1 if "metric" in columns else 1
    readers = [_CELL_READERS.get(name, _int64) for name in columns[at:]]
    cells_key = None
    for row in reader:
        if not row:
            continue
        if row[:at] != cells_key:  # a series' rows come together: its label and key are made once
            cells_key, label, key = row[:at], f"{what} of ({', '.join(row[:at])})", None
        try:
            if len(row) != len(columns):
                raise ValueError(f"expected {len(columns)} cells, got {len(row)}")
            key = key or ((*row[: at - 1], MetricKind(row[at - 1])) if at > 1 else (row[0],))
            cells = [read(cell) for read, cell in zip(readers, row[at:])]
        except ValueError as exc:
            raise ValueError(f"{label}, CSV line {reader.line_num}: {exc}") from None
        yield reader.line_num, label, key, cells, row


def read_day_sums_csv(text: str) -> dict[str, DaySums]:
    """Day sums from the CSV dump, keyed by app in first-row order.

    An app's days with a gap, a repeat or a step back are refused as
    ``metric_delta`` refuses a series' windows, from the days' ordinals,
    and every app must hold the first app's span. A row that
    ``series_rows`` refuses, an empty total included, is a ValueError
    naming its app and line; so is a negative total, or a running sum
    beyond int64.
    """
    rows: dict[str, list[tuple]] = {}
    for _, _, (app,), cells, _ in series_rows(text, DAY_SUMS_CSV_COLUMNS, "day sums"):
        rows.setdefault(app, []).append(cells)
    out: dict[str, DaySums] = {}
    for app, group in rows.items():
        days, *totals = zip(*group)
        off_grid = np.flatnonzero(np.diff(np.fromiter(map(date.toordinal, days), np.int64, len(days))) != 1)
        if len(off_grid):
            raise ValueError(f"day sums of ({app}): window {days[off_grid[0] + 1]} does not follow {days[off_grid[0]]}")
        prefixes = [_prefix(np.array(t, dtype=np.int64)) for t in totals]
        if any((s[1:] < s[:-1]).any() for s in prefixes):
            raise ValueError(f"day sums of ({app}): a total is negative or sums beyond int64")
        sums = out[app] = DaySums(days[0], *prefixes)
        first = next(iter(out.values()))
        if (sums.start, len(sums.reviews)) != (first.start, len(first.reviews)):
            raise ValueError(f"day sums of ({app}): days from {sums.start} are not the first app's span")
    return out
