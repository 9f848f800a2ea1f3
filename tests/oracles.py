"""Reference oracles: the plainest statement of a rule, one row at a time.

``parse_reviews_by_row`` validates one record at a time, each rule in
order, and dedups one key at a time. ``reviewpulse.ingest.parse_reviews``
checks the same rules a column at a time over blocks of lines; the
property tests hold the two to the same table, rejects and order.

``SentenceScorer`` scores one sentence at a time: each token's stemmed
valence, flipped by a negator up to two tokens before it, summed and
folded into a bin. ``score_sentences`` and ``score_review`` split and
score a body through any ``PolarityScorer``, marking a sentence whose
scorer fails unscored. The tests hold ``LexiconScorer.sentence_bins``, the
package's one scoring kernel, to them sentence for sentence.

``metric_mu`` averages one window's ``ScoredReview``s (``scored_reviews``
builds them one review at a time); the tests hold the day sums' window
means to it.

``pearson_rho`` and ``detect_correlation`` correlate and classify one
window from its definition, and ``baseline_sigma`` takes one baseline's
standard deviation; the tests hold the package's column sweeps to them.
``extract_runs`` cuts one pair's plain class row into its runs, one window
at a time; the tests hold the package's block run cutter to it.

``write_events_csv`` writes the events CSV one ``csv.writer`` row a
record, every cell quoted as the writer decides; the tests hold the
package's per-series events writer to it byte for byte.
``window_contains`` tests one instant against a window's UTC days, and
``all_reviews`` pools a catalog's per-app tables; the package calls
neither.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from reviewpulse.correlate import DEFAULT_MIN_CORR_POINTS, CorrelationRun
from reviewpulse.detect import DEFAULT_MIN_BASELINE, EVENTS_CSV_COLUMNS, EventRecord, _check_mode, _Moments
from reviewpulse.ingest import (
    REVIEW_FIELDS,
    DatasetError,
    MarketCatalog,
    Reject,
    Review,
    ReviewTable,
    ScaleMap,
    csv_line_writer,
    parse_timestamp,
)
from reviewpulse.metrics import MetricKind, TimeWindow, normalize_rating
from reviewpulse.sentiment import NEGATION_WINDOW, NEGATORS, _lookup, default_lexicon, split_sentences


class _RecordError(Exception):
    """One record failed validation (reason in args[0])."""


def _record_review(record: dict | _RecordError, scales: ScaleMap) -> Review:
    """A valid record as a review; the first rule it fails raises."""
    if isinstance(record, _RecordError):
        raise record
    for name in REVIEW_FIELDS:
        if name not in record or record[name] is None:
            raise _RecordError(f"missing-field:{name}")
    for name in ("review_id", "app_id", "body", "source"):
        if not isinstance(record[name], str):
            raise _RecordError(f"bad-field:{name}: expected string")
    for name in ("review_id", "app_id", "source"):
        if not record[name].strip():
            raise _RecordError(f"bad-field:{name}: empty")

    ts_raw = record["timestamp"]
    if not isinstance(ts_raw, str):
        raise _RecordError("bad-timestamp: expected string")
    try:
        ts = parse_timestamp(ts_raw)
    except ValueError as exc:
        raise _RecordError(f"bad-timestamp: {exc}") from exc

    rating_raw = record["rating"]
    if isinstance(rating_raw, bool) or not isinstance(rating_raw, int):
        raise _RecordError(f"bad-rating: {rating_raw!r} is not an integer")
    scale = scales.for_source(record["source"])
    if not scale.contains(rating_raw):
        raise _RecordError(f"out-of-range-rating: {rating_raw} not in [{scale.lo}, {scale.hi}]")
    return Review(record["review_id"], record["app_id"], ts, rating_raw, record["body"], record["source"])


def parse_reviews_by_row(
    text: str, fmt: str = "jsonl", scales: ScaleMap | None = None
) -> tuple[ReviewTable, list[Reject]]:
    """``parse_reviews`` over str input, one record at a time."""
    scales = scales or ScaleMap()
    records = _jsonl_records(text.split("\n")) if fmt == "jsonl" else _csv_records(text)
    reviews: list[Review] = []
    rejects: list[Reject] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, record in records:
        try:
            review = _record_review(record, scales)
        except _RecordError as exc:
            rejects.append(Reject(line_no, str(exc)))
            continue
        key = (review.source, review.review_id)
        first = seen.setdefault(key, line_no)
        if first != line_no:
            rejects.append(Reject(line_no, f"duplicate: ({key[0]}, {key[1]}) first seen at line {first}"))
            continue
        reviews.append(review)
    return ReviewTable.from_reviews(reviews), rejects


def _jsonl_records(lines: Sequence[str]) -> Iterator[tuple[int, dict | _RecordError]]:
    """Each non-blank line's object, or the error that keeps it from being one."""
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_no, _RecordError(f"invalid-json: {exc.msg}")
            continue
        except (ValueError, RecursionError) as exc:
            yield line_no, _RecordError(f"invalid-json: {exc}")
            continue
        yield line_no, record if isinstance(record, dict) else _RecordError("not-an-object")


def _csv_records(text: str) -> Iterator[tuple[int, dict | _RecordError]]:
    """Each non-blank CSV record after the header, with the physical line it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return
    if sorted(header) != sorted(REVIEW_FIELDS):
        raise DatasetError(f"bad CSV header {header!r}")
    end = reader.line_num
    for row in reader:
        line_no, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            yield line_no, _RecordError(f"bad-row: expected {len(header)} fields, got {len(row)}")
            continue
        record = dict(zip(header, row))
        rating_text = record["rating"].strip()
        try:
            record["rating"] = int(rating_text)
        except ValueError:
            record = _RecordError(f"bad-rating: {rating_text!r} is not an integer")
        yield line_no, record


_TOKEN = re.compile(r"[a-z0-9']+")


class ScorerError(Exception):
    """A polarity scorer failed or returned something outside 0..4."""


@dataclass(frozen=True, slots=True)
class Sentence:
    """One sentence of a review body. ``polarity`` is None when unscored."""

    review_id: str
    index: int
    text: str
    polarity: int | None


def bin_valence(valence: int) -> int:
    if valence <= -2:
        return 0
    if valence >= 2:
        return 4
    return valence + 2


@runtime_checkable
class PolarityScorer(Protocol):
    name: str

    def score(self, text: str) -> int:
        """Return the polarity bin (0..4) for one sentence."""


class SentenceScorer:
    """The lexicon rule one sentence at a time; the packaged lexicon is the
    default."""

    name = "lexicon"

    def __init__(self, lexicon: Mapping[str, int] | None = None) -> None:
        self._lexicon = default_lexicon() if lexicon is None else lexicon

    def valence(self, text: str) -> int:
        tokens = _TOKEN.findall(text.lower())
        total = 0
        for i, token in enumerate(tokens):
            value = _lookup(self._lexicon, token)
            if value == 0:
                continue
            if not NEGATORS.isdisjoint(tokens[max(0, i - NEGATION_WINDOW) : i]):
                value = -value
            total += value
        return total

    def score(self, text: str) -> int:
        return bin_valence(self.valence(text))


def score_polarity(sentence: str, scorer: PolarityScorer) -> int:
    """Score one sentence, enforcing the 0..4 contract on the result."""
    value = scorer.score(sentence)
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= 4:
        raise ScorerError(f"scorer {scorer.name!r} returned {value!r}, expected an int in 0..4")
    return value


def score_sentences(body: str, scorer: PolarityScorer) -> list[tuple[int, str, int | None]]:
    """Split and score a review body as (index, text, polarity) tuples.

    A scorer failure marks its sentence unscored (polarity None).
    """
    scored: list[tuple[int, str, int | None]] = []
    for index, text in enumerate(split_sentences(body)):
        try:
            polarity: int | None = score_polarity(text, scorer)
        except Exception:
            polarity = None
        scored.append((index, text, polarity))
    return scored


def score_review(review_id: str, body: str, scorer: PolarityScorer) -> list[Sentence]:
    """Split and score a review body; scorer failures mark sentences unscored."""
    return [
        Sentence(review_id, index, text, polarity)
        for index, text, polarity in score_sentences(body, scorer)
    ]


@dataclass(frozen=True, slots=True)
class ScoredReview:
    """A review with its normalised rating and scored sentences attached."""

    review: Review
    rating_value: int
    sentences: tuple[Sentence, ...]


def scored_reviews(reviews: Sequence[Review], scorer: PolarityScorer) -> list[ScoredReview]:
    """Each review with its normalised rating (default scales) and its
    body's sentences, scored one at a time."""
    scales = ScaleMap()
    return [
        ScoredReview(
            review=review,
            rating_value=normalize_rating(review.raw_rating, scales.for_source(review.source)),
            sentences=tuple(score_review(review.review_id, review.body, scorer)),
        )
        for review in reviews
    ]


def metric_mu(reviews_in_window: Sequence[ScoredReview], metric: MetricKind) -> float | None:
    """Window average for one metric; None when there is nothing to average.

    Count is the number of reviews (never missing), rating the mean
    normalised rating over reviews, polarity the flat mean over all scored
    sentences in the window (reviews with more sentences weigh more).
    """
    if metric is MetricKind.COUNT:
        return float(len(reviews_in_window))
    if metric is MetricKind.RATING:
        values = [r.rating_value for r in reviews_in_window]
    elif metric is MetricKind.POLARITY:
        values = [s.polarity for r in reviews_in_window for s in r.sentences if s.polarity is not None]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return sum(values) / len(values) if values else None


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


def extract_runs(
    c: Sequence[int], windows: Sequence[TimeWindow], key: tuple[str, str, MetricKind]
) -> list[CorrelationRun]:
    """Collapse one pair/metric's class row into its nonzero runs.

    ``c[w]`` is the class at ``windows[w]``, in window order over a
    contiguous grid; ``key`` is the pair's ``(app_i, app_j, metric)``.
    """
    runs: list[CorrelationRun] = []
    first = 0
    for w in range(1, len(c) + 1):
        if w == len(c) or c[w] != c[first]:
            if c[first] != 0:
                runs.append(CorrelationRun(*key, int(c[first]), windows[first].start, windows[w - 1].end))
            first = w
    return runs


def baseline_sigma(
    deltas: Sequence[float],
    min_baseline: int = DEFAULT_MIN_BASELINE,
    mode: str = "population",
) -> float | None:
    """Standard deviation of the baseline deltas; None while too few.

    Population form by default (the baseline is treated as the complete
    history, not a sample); ``mode="sample"`` switches to the n-1 form,
    which then needs at least two deltas. The value is the exact standard
    deviation of the deltas, correctly rounded; a NaN or infinite delta is
    a ValueError.
    """
    _check_mode(mode)
    if len(deltas) < min_baseline:
        return None
    moments = _Moments()
    for delta in deltas:
        moments.add(delta)
    return moments.sigma(mode)


def write_events_csv(records: Iterable[EventRecord]) -> str:
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(EVENTS_CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.app_id,
                r.metric.value,
                r.window.start.isoformat(),
                r.e,
                "" if r.a is None else repr(r.a),
                "" if r.sigma is None else repr(r.sigma),
                r.baseline_n,
                "true" if r.warmup else "false",
            ]
        )
    return "".join(lines)


def window_contains(window: TimeWindow, ts: datetime) -> bool:
    day = ts.astimezone(timezone.utc).date()
    return window.start <= day < window.end


def all_reviews(catalog: MarketCatalog) -> ReviewTable:
    return ReviewTable.concat(catalog.reviews[app] for app in catalog.apps)
