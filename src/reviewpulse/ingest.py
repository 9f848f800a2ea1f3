"""Review dataset parsing, validation, and per-app cataloguing.

Input records arrive as JSONL or CSV with the fields ``review_id``,
``app_id``, ``timestamp``, ``rating``, ``body``, ``source``. Malformed
records never abort a run: each one becomes a :class:`Reject` carrying its
line number and a machine-readable reason, and parsing continues. Only an
unreadable stream (missing file, undecodable bytes, unusable CSV header)
raises :class:`DatasetError`.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import MAXYEAR, datetime, timezone
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "REVIEW_FIELDS",
    "AppCoverage",
    "DatasetError",
    "MarketCatalog",
    "RatingScale",
    "Reject",
    "Review",
    "ScaleMap",
    "build_catalog",
    "catalog_summary",
    "parse_reviews",
    "parse_timestamp",
    "rejects_to_jsonl",
    "serialize_reviews",
]

REVIEW_FIELDS = ("review_id", "app_id", "timestamp", "rating", "body", "source")


class DatasetError(Exception):
    """The input stream cannot be read as a dataset at all."""


@dataclass(frozen=True, slots=True)
class RatingScale:
    """Inclusive integer bounds for raw ratings from one source."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"rating scale needs lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, raw: int) -> bool:
        return self.lo <= raw <= self.hi


@dataclass(frozen=True, slots=True)
class ScaleMap:
    """Per-source rating scales with a fallback default (1..5)."""

    default: RatingScale = RatingScale(1, 5)
    per_source: Mapping[str, RatingScale] = field(default_factory=dict)

    def for_source(self, source: str) -> RatingScale:
        return self.per_source.get(source, self.default)


@dataclass(frozen=True, slots=True)
class Review:
    """One accepted review. ``timestamp`` is always timezone-aware UTC."""

    review_id: str
    app_id: str
    timestamp: datetime
    raw_rating: int
    body: str
    source: str


@dataclass(frozen=True, slots=True)
class Reject:
    line_no: int
    reason: str


class _RecordError(Exception):
    """Internal: one record failed validation (reason in args[0])."""


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp, requiring an explicit UTC offset.

    Timezone-less values are rejected rather than guessed at; everything is
    normalised to UTC so that window membership is unambiguous.
    """
    raw = value.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = datetime.fromisoformat(raw)
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no timezone offset")
    return parsed.astimezone(timezone.utc)


def _build_review(record: Mapping[str, object], scales: ScaleMap) -> Review:
    for name in REVIEW_FIELDS:
        if name not in record or record[name] is None:
            raise _RecordError(f"missing-field:{name}")

    str_fields = {}
    for name in ("review_id", "app_id", "body", "source"):
        value = record[name]
        if not isinstance(value, str):
            raise _RecordError(f"bad-field:{name}: expected string")
        str_fields[name] = value
    for name in ("review_id", "app_id", "source"):
        if not str_fields[name].strip():
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
    scale = scales.for_source(str_fields["source"])
    if not scale.contains(rating_raw):
        raise _RecordError(
            f"out-of-range-rating: {rating_raw} not in [{scale.lo}, {scale.hi}]"
        )

    return Review(
        review_id=str_fields["review_id"],
        app_id=str_fields["app_id"],
        timestamp=ts,
        raw_rating=rating_raw,
        body=str_fields["body"],
        source=str_fields["source"],
    )


def _as_text(source: str | bytes) -> str:
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"input is not valid UTF-8: {exc}") from exc


def parse_reviews(
    source: str | bytes,
    fmt: str = "jsonl",
    scales: ScaleMap | None = None,
) -> tuple[list[Review], list[Reject]]:
    """Parse a review stream into accepted reviews plus per-line rejects.

    Duplicate ``(source, review_id)`` pairs keep the first occurrence; later
    ones are logged as rejects. Line numbers are 1-based and refer to the
    physical input line (the header line counts for CSV, and a CSV record
    is numbered by the line it starts on).
    """
    if scales is None:
        scales = ScaleMap()
    if fmt == "jsonl":
        # Lines end at "\n" alone: serialize_reviews writes U+0085, U+2028
        # and U+2029 unescaped, which str.splitlines would split on; a
        # CRLF line's trailing "\r" is JSON whitespace.
        return _parse_jsonl(_as_text(source).split("\n"), scales)
    if fmt == "csv":
        return _parse_csv(_as_text(source), scales)
    raise ValueError(f"unknown format {fmt!r} (expected 'jsonl' or 'csv')")


def _parse_jsonl(lines: Sequence[str], scales: ScaleMap) -> tuple[list[Review], list[Reject]]:
    reviews: list[Review] = []
    rejects: list[Reject] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            rejects.append(Reject(line_no, f"invalid-json: {exc.msg}"))
            continue
        if not isinstance(record, dict):
            rejects.append(Reject(line_no, "not-an-object"))
            continue
        _accept(record, line_no, scales, seen, reviews, rejects)
    return reviews, rejects


def _csv_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record with the physical line it starts on.

    The csv module finds the record ends itself, so a quoted field keeps
    its "\r\n", "\r", U+2028 or U+0085 as written. A record the csv
    module refuses, such as one whose field exceeds ``csv.field_size_limit()``
    (an unclosed quote early in a large file does), is a DatasetError
    naming the line it starts on.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    end = 0
    try:
        for row in reader:
            yield end + 1, row
            end = reader.line_num
    except csv.Error as exc:
        raise DatasetError(f"CSV record at line {end + 1}: {exc}") from exc


def _parse_csv(text: str, scales: ScaleMap) -> tuple[list[Review], list[Reject]]:
    records = _csv_records(text)
    first = next(records, None)
    if first is None:
        return [], []
    header = first[1]
    if sorted(header) != sorted(REVIEW_FIELDS):
        raise DatasetError(
            f"bad CSV header {header!r}: expected columns {list(REVIEW_FIELDS)}"
        )
    idx = {name: header.index(name) for name in REVIEW_FIELDS}

    reviews: list[Review] = []
    rejects: list[Reject] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, row in records:
        if not row:
            continue
        if len(row) != len(header):
            rejects.append(Reject(line_no, f"bad-row: expected {len(header)} fields, got {len(row)}"))
            continue
        record: dict[str, object] = {name: row[idx[name]] for name in REVIEW_FIELDS}
        rating_text = str(record["rating"]).strip()
        try:
            record["rating"] = int(rating_text)
        except ValueError:
            rejects.append(Reject(line_no, f"bad-rating: {rating_text!r} is not an integer"))
            continue
        _accept(record, line_no, scales, seen, reviews, rejects)
    return reviews, rejects


def _accept(
    record: Mapping[str, object],
    line_no: int,
    scales: ScaleMap,
    seen: dict[tuple[str, str], int],
    reviews: list[Review],
    rejects: list[Reject],
) -> None:
    try:
        review = _build_review(record, scales)
    except _RecordError as exc:
        rejects.append(Reject(line_no, str(exc)))
        return
    key = (review.source, review.review_id)
    first = seen.get(key)
    if first is not None:
        rejects.append(Reject(line_no, f"duplicate: ({review.source}, {review.review_id}) first seen at line {first}"))
        return
    seen[key] = line_no
    reviews.append(review)


def serialize_reviews(reviews: Iterable[Review], fmt: str = "jsonl") -> str:
    """Serialise reviews back to the interchange format (round-trip safe)."""
    if fmt == "jsonl":
        lines = [
            json.dumps(
                {
                    "review_id": r.review_id,
                    "app_id": r.app_id,
                    "timestamp": r.timestamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
                    "rating": r.raw_rating,
                    "body": r.body,
                    "source": r.source,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            for r in reviews
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "csv":
        # With a "\r\n" terminator the writer quotes every field holding a
        # "\r"; given "\n" alone, Python 3.11's writer leaves a bare "\r"
        # unquoted, and reading ends the record there. Rows end in "\n".
        rows: list[str] = []
        sink = SimpleNamespace(write=lambda row: rows.append(row[:-2]))
        writer = csv.writer(sink, lineterminator="\r\n")
        writer.writerow(REVIEW_FIELDS)
        for r in reviews:
            writer.writerow(
                [
                    r.review_id,
                    r.app_id,
                    r.timestamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
                    r.raw_rating,
                    r.body,
                    r.source,
                ]
            )
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected 'jsonl' or 'csv')")


def rejects_to_jsonl(rejects: Iterable[Reject]) -> str:
    lines = [
        json.dumps({"line_no": r.line_no, "reason": r.reason}, ensure_ascii=False)
        for r in rejects
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True, slots=True)
class AppCoverage:
    """Observed time coverage for one app."""

    first: datetime
    last: datetime
    total: int
    monthly_counts: Mapping[str, int]
    months_spanned: int
    monthly_mean: float
    insufficient: bool


@dataclass(frozen=True, slots=True)
class MarketCatalog:
    """All accepted reviews grouped per app, in canonical order.

    Canonical order is ``(timestamp, review_id)``; repeated builds over the
    same inputs produce identical catalogs. Apps below the monthly review
    floor are flagged via coverage, never dropped here.
    """

    apps: tuple[str, ...]
    reviews: Mapping[str, tuple[Review, ...]]
    coverage: Mapping[str, AppCoverage]
    monthly_floor: float
    duplicates_dropped: int

    def all_reviews(self) -> list[Review]:
        out: list[Review] = []
        for app in self.apps:
            out.extend(self.reviews[app])
        return out

    def insufficient_apps(self) -> tuple[str, ...]:
        return tuple(a for a in self.apps if self.coverage[a].insufficient)


def _monthly_counts(timestamps: Sequence[datetime]) -> dict[str, int]:
    """Reviews per UTC calendar month ("YYYY-MM"), months without reviews left out.

    ``timestamps`` must be sorted; each month's count is the distance
    between the bisection points of its first instant and the next month's.
    """
    first = timestamps[0].astimezone(timezone.utc)
    year, month = first.year, first.month
    counts: dict[str, int] = {}
    lo = 0
    while lo < len(timestamps):
        next_year, next_month = (year + 1, 1) if month == 12 else (year, month + 1)
        if next_year > MAXYEAR:
            hi = len(timestamps)
        else:
            boundary = datetime(next_year, next_month, 1, tzinfo=timezone.utc)
            hi = bisect_left(timestamps, boundary, lo)
        if hi > lo:
            counts[f"{year:04d}-{month:02d}"] = hi - lo
        lo = hi
        year, month = next_year, next_month
    return counts


def _months_spanned(first: datetime, last: datetime) -> int:
    a = first.astimezone(timezone.utc)
    b = last.astimezone(timezone.utc)
    return (b.year - a.year) * 12 + (b.month - a.month) + 1


_canonical = attrgetter("timestamp", "review_id")


def build_catalog(reviews: Iterable[Review], monthly_floor: float = 20.0) -> MarketCatalog:
    """Group reviews per app and compute coverage statistics.

    The insufficient-data flag marks apps whose mean monthly review count,
    taken over the calendar months between their first and last review
    (inclusive), falls below ``monthly_floor``.
    """
    seen: dict[str, set[str]] = {}  # review ids per source
    duplicates = 0
    by_app: dict[str, list[Review]] = {}
    for review in reviews:
        ids = seen.get(review.source)
        if ids is None:
            ids = seen[review.source] = set()
        if review.review_id in ids:
            duplicates += 1
            continue
        ids.add(review.review_id)
        app_reviews = by_app.get(review.app_id)
        if app_reviews is None:
            app_reviews = by_app[review.app_id] = []
        app_reviews.append(review)

    apps = tuple(sorted(by_app))
    sorted_reviews: dict[str, tuple[Review, ...]] = {}
    coverage: dict[str, AppCoverage] = {}
    for app in apps:
        ordered = tuple(sorted(by_app[app], key=_canonical))
        timestamps = [r.timestamp for r in ordered]
        sorted_reviews[app] = ordered
        monthly = _monthly_counts(timestamps)
        first = ordered[0].timestamp
        last = ordered[-1].timestamp
        months = _months_spanned(first, last)
        mean = len(ordered) / months
        coverage[app] = AppCoverage(
            first=first,
            last=last,
            total=len(ordered),
            monthly_counts=monthly,
            months_spanned=months,
            monthly_mean=mean,
            insufficient=mean < monthly_floor,
        )

    return MarketCatalog(
        apps=apps,
        reviews=sorted_reviews,
        coverage=coverage,
        monthly_floor=monthly_floor,
        duplicates_dropped=duplicates,
    )


def catalog_summary(catalog: MarketCatalog) -> dict:
    """JSON-ready coverage summary (used by the ingest-check report)."""
    apps = {}
    for app in catalog.apps:
        cov = catalog.coverage[app]
        apps[app] = {
            "first": cov.first.isoformat().replace("+00:00", "Z"),
            "last": cov.last.isoformat().replace("+00:00", "Z"),
            "total": cov.total,
            "months_spanned": cov.months_spanned,
            "monthly_mean": cov.monthly_mean,
            "monthly_counts": dict(cov.monthly_counts),
            "insufficient": cov.insufficient,
        }
    return {
        "apps": apps,
        "app_count": len(catalog.apps),
        "review_count": sum(c.total for c in catalog.coverage.values()),
        "monthly_floor": catalog.monthly_floor,
        "duplicates_dropped": catalog.duplicates_dropped,
        "insufficient_apps": list(catalog.insufficient_apps()),
    }
