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
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "REVIEW_FIELDS",
    "AppCoverage",
    "DAY_US",
    "DatasetError",
    "MarketCatalog",
    "RatingScale",
    "Reject",
    "Review",
    "ReviewTable",
    "ScaleMap",
    "build_catalog",
    "canonical_order",
    "catalog_summary",
    "csv_line_writer",
    "json_text",
    "midnight_us",
    "parse_reviews",
    "parse_timestamp",
    "rejects_to_jsonl",
    "serialize_reviews",
    "utc_datetime",
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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
DAY_US = 86_400_000_000
_COLUMNS = ("review_id", "app_id", "stamp_us", "raw_rating", "body", "source")
_TEXT_COLUMNS = frozenset(("review_id", "app_id", "body", "source"))


def midnight_us(day: date) -> int:
    """The UTC midnight opening ``day``, as microseconds since the epoch."""
    return (day - _EPOCH.date()).days * DAY_US


def utc_datetime(stamp_us: int) -> datetime:
    """The UTC datetime ``stamp_us`` microseconds after the epoch."""
    return _EPOCH + timedelta(microseconds=stamp_us)


def _make_review(review_id: str, app_id: str, stamp_us: int, raw_rating: int, body: str, source: str) -> Review:
    """The one place a table row becomes a ``Review``."""
    return Review(review_id, app_id, utc_datetime(stamp_us), raw_rating, body, source)


def _column(name: str, values: Sequence) -> np.ndarray:
    """A read-only column: int64 for stamps and ratings, str objects otherwise."""
    if name in _TEXT_COLUMNS:
        if isinstance(values, np.ndarray) and values.dtype == object:
            column = values
        else:
            column = np.empty(len(values), dtype=object)
            column[:] = values
    else:
        column = np.asarray(values, dtype=np.int64)
    column.flags.writeable = False
    return column


class ReviewTable(Sequence[Review]):
    """Reviews held as columns, one row per review, in the order given.

    ``stamp_us`` holds each timestamp as int64 UTC microseconds since the
    epoch and ``raw_rating`` the raw rating as int64; ``review_id``,
    ``app_id``, ``body`` and ``source`` are object arrays of str. Every
    column is read-only. Indexing a row builds one ``Review`` with a UTC
    timestamp; slicing and ``take`` return tables over the same strings.
    A table equals any sequence holding equal reviews in the same order.
    """

    __slots__ = _COLUMNS

    def __init__(self, review_id: Sequence[str], app_id: Sequence[str], stamp_us: Sequence[int],
                 raw_rating: Sequence[int], body: Sequence[str], source: Sequence[str]) -> None:
        values = (review_id, app_id, stamp_us, raw_rating, body, source)
        columns = [_column(name, column) for name, column in zip(_COLUMNS, values)]
        if len({len(c) for c in columns}) > 1:
            raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ReviewTable is immutable")

    @classmethod
    def from_reviews(cls, reviews: Iterable[Review]) -> "ReviewTable":
        """The table of ``reviews`` in their order; a table is returned as is.

        Every timestamp must carry a UTC offset: a naive one is a
        ValueError, and any other is stored as the same instant in UTC.
        """
        if isinstance(reviews, ReviewTable):
            return reviews
        columns = _new_columns()
        for r in reviews:
            ts = r.timestamp
            if ts.utcoffset() is None:
                raise ValueError(f"review {r.review_id!r} has a naive timestamp {ts.isoformat()}")
            _append_row(columns, (r.review_id, r.app_id, (ts - _EPOCH) // _MICROSECOND, r.raw_rating, r.body, r.source))
        return cls(*columns)

    @classmethod
    def concat(cls, tables: Iterable["ReviewTable"]) -> "ReviewTable":
        """The rows of every table, one table after another."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]
        if not tables:
            return cls(*_new_columns())
        return cls(*(np.concatenate([getattr(t, name) for t in tables]) for name in _COLUMNS))

    def take(self, rows: np.ndarray) -> "ReviewTable":
        """The table of the given row positions, in their order."""
        return ReviewTable(*(getattr(self, name)[rows] for name in _COLUMNS))

    def __len__(self) -> int:
        return len(self.stamp_us)

    def __getitem__(self, index: int | slice) -> "Review | ReviewTable":
        if isinstance(index, slice):
            return ReviewTable(*(getattr(self, name)[index] for name in _COLUMNS))
        i = range(len(self))[index]  # IndexError and negative indices as for a list
        return _make_review(
            self.review_id[i], self.app_id[i], int(self.stamp_us[i]), int(self.raw_rating[i]), self.body[i], self.source[i]
        )

    def __iter__(self) -> Iterator[Review]:
        return map(_make_review, *(getattr(self, name).tolist() for name in _COLUMNS))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReviewTable):
            return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ReviewTable(<{len(self)} reviews>)"


def _new_columns() -> tuple[list, ...]:
    """Empty lists for (review_id, app_id, stamp_us, raw_rating, body, source)."""
    return tuple([] for _ in _COLUMNS)


def _append_row(columns: tuple[list, ...], row: tuple) -> None:
    # Six lists hold a row in less memory than one tuple per row would.
    for column, value in zip(columns, row):
        column.append(value)


def canonical_order(stamp_us: np.ndarray, review_id: np.ndarray, group: np.ndarray | None = None) -> np.ndarray:
    """Row positions in canonical order: by ``group`` when given, then
    ``(stamp_us, review_id)``.

    A stable sort on the integer keys orders almost every row; only rows
    tied with a neighbour on all of them are sorted again by review id.
    """
    keys = (stamp_us,) if group is None else (stamp_us, group)
    order = np.lexsort(keys)
    if len(order) < 2:
        return order
    sorted_keys = [k[order] for k in keys]
    tied = sorted_keys[0][1:] == sorted_keys[0][:-1]
    if group is not None:
        tied &= sorted_keys[1][1:] == sorted_keys[1][:-1]
    if tied.any():
        in_tie = np.zeros(len(order), dtype=bool)
        in_tie[1:] = tied
        in_tie[:-1] |= tied
        positions = np.flatnonzero(in_tie)
        rows = order[positions]
        ids = review_id[rows]
        # A fixed-width numpy string sorts much faster than str objects, but
        # drops trailing NULs; ids holding a NUL keep the object compare.
        if "\x00" not in "".join(ids.tolist()):
            ids = ids.astype(str)
        order[positions] = rows[np.lexsort((ids, *(k[positions] for k in sorted_keys)))]
    return order


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


def _record_row(record: dict | _RecordError, scales: ScaleMap) -> tuple[str, str, int, int, str, str]:
    """A valid record as a table row: (review_id, app_id, stamp_us, raw_rating, body, source)."""
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
        raise _RecordError(
            f"out-of-range-rating: {rating_raw} not in [{scale.lo}, {scale.hi}]"
        )

    return (
        record["review_id"],
        record["app_id"],
        (ts - _EPOCH) // _MICROSECOND,
        rating_raw,
        record["body"],
        record["source"],
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
) -> tuple[ReviewTable, list[Reject]]:
    """Parse a review stream into a table of accepted reviews plus per-line rejects.

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
        records = _jsonl_records(_as_text(source).split("\n"))
    elif fmt == "csv":
        records = _csv_records(_as_text(source))
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'jsonl' or 'csv')")
    columns = _new_columns()
    rejects: list[Reject] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, record in records:
        try:
            row = _record_row(record, scales)
        except _RecordError as exc:
            rejects.append(Reject(line_no, str(exc)))
            continue
        key = (row[5], row[0])
        first = seen.get(key)
        if first is not None:
            rejects.append(Reject(line_no, f"duplicate: ({row[5]}, {row[0]}) first seen at line {first}"))
            continue
        seen[key] = line_no
        _append_row(columns, row)
    return ReviewTable(*columns), rejects


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
        yield line_no, record if isinstance(record, dict) else _RecordError("not-an-object")


def _csv_records(text: str) -> Iterator[tuple[int, dict | _RecordError]]:
    """Each non-blank CSV record after the header, with the physical line it starts on.

    A record becomes a field mapping with an int rating, or the error that
    keeps it from being one. The csv module finds the record ends itself,
    so a quoted field keeps its "\r\n", "\r", U+2028 or U+0085 as written.
    An unusable header is a DatasetError, and so is a record the csv module
    refuses, such as one whose field exceeds ``csv.field_size_limit()`` (an
    unclosed quote early in a large file does), naming the line it starts on.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    end = 0
    try:
        header = next(reader, None)
        if header is None:
            return
        if sorted(header) != sorted(REVIEW_FIELDS):
            raise DatasetError(
                f"bad CSV header {header!r}: expected columns {list(REVIEW_FIELDS)}"
            )
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
    except csv.Error as exc:
        raise DatasetError(f"CSV record at line {end + 1}: {exc}") from exc


def csv_line_writer(lines: list[str]):
    """A ``csv.writer`` that appends each row to ``lines``, ending in "\n".

    The writer runs with a "\r\n" terminator, so it quotes every field
    holding a "\r"; given "\n" alone, Python 3.11's writer leaves a bare
    "\r" unquoted, and reading ends the record there.
    """
    return csv.writer(SimpleNamespace(write=lambda row: lines.append(row[:-2] + "\n")), lineterminator="\r\n")


def json_text(payload: object) -> str:
    """The indented, key-sorted JSON of a report file, ending in a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _utc_text(ts: datetime) -> str:
    """ISO-8601 text of ``ts`` in UTC, "Z" standing for the offset."""
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def serialize_reviews(reviews: Iterable[Review], fmt: str = "jsonl") -> str:
    """Serialise reviews back to the interchange format (round-trip safe)."""
    rows = ((r.review_id, r.app_id, _utc_text(r.timestamp), r.raw_rating, r.body, r.source) for r in reviews)
    if fmt == "jsonl":
        return _jsonl_text(dict(zip(REVIEW_FIELDS, row)) for row in rows)
    if fmt == "csv":
        lines = []
        writer = csv_line_writer(lines)
        writer.writerow(REVIEW_FIELDS)
        writer.writerows(rows)
        return "".join(lines)
    raise ValueError(f"unknown format {fmt!r} (expected 'jsonl' or 'csv')")


def rejects_to_jsonl(rejects: Iterable[Reject]) -> str:
    return _jsonl_text({"line_no": r.line_no, "reason": r.reason} for r in rejects)


def _jsonl_text(payloads: Iterable[dict]) -> str:
    """One JSON object a line, keys sorted and non-ASCII written as is."""
    return "".join(json.dumps(p, ensure_ascii=False, sort_keys=True) + "\n" for p in payloads)


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
    same inputs produce identical catalogs. Each app's reviews are one
    ``ReviewTable``. Apps below the monthly review floor are flagged via
    coverage, never dropped here.
    """

    apps: tuple[str, ...]
    reviews: Mapping[str, ReviewTable]
    coverage: Mapping[str, AppCoverage]
    monthly_floor: float
    duplicates_dropped: int

    def all_reviews(self) -> ReviewTable:
        return ReviewTable.concat(self.reviews[app] for app in self.apps)

    def insufficient_apps(self) -> tuple[str, ...]:
        return tuple(a for a in self.apps if self.coverage[a].insufficient)


def _coverage(stamp_us: np.ndarray, monthly_floor: float) -> AppCoverage:
    """Coverage of one app's sorted stamps.

    Each UTC calendar month ("YYYY-MM") from the first review's to the last
    one's counts the stamps between its first instant and the next month's;
    months without reviews are left out of ``monthly_counts``.
    """
    first = utc_datetime(int(stamp_us[0]))
    last = utc_datetime(int(stamp_us[-1]))
    months = [
        divmod(m, 12)
        for m in range(first.year * 12 + first.month - 1, last.year * 12 + last.month)
    ]
    cuts = np.searchsorted(stamp_us, [midnight_us(date(y, m + 1, 1)) for y, m in months[1:]], side="left")
    counts = np.diff(cuts, prepend=0, append=len(stamp_us)).tolist()
    total = len(stamp_us)
    mean = total / len(months)
    return AppCoverage(
        first=first,
        last=last,
        total=total,
        monthly_counts={f"{y:04d}-{m + 1:02d}": n for (y, m), n in zip(months, counts) if n},
        months_spanned=len(months),
        monthly_mean=mean,
        insufficient=mean < monthly_floor,
    )


def _first_occurrences(table: ReviewTable) -> ReviewTable:
    """The table without repeated ``(source, review_id)`` keys; the first wins."""
    ids = table.review_id.tolist()
    sources = table.source.tolist()
    keys = ids if len(set(sources)) < 2 else list(zip(sources, ids))
    if len(set(keys)) == len(keys):
        return table
    # Built back to front, so each key keeps its first position.
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return table.take(np.sort(np.fromiter(first.values(), dtype=np.intp, count=len(first))))


def build_catalog(reviews: Iterable[Review], monthly_floor: float = 20.0) -> MarketCatalog:
    """Group reviews per app and compute coverage statistics.

    A ``ReviewTable`` is used as it is; any other iterable goes through
    ``ReviewTable.from_reviews``. Repeated ``(source, review_id)`` keys keep
    their first occurrence. The insufficient-data flag marks apps whose
    mean monthly review count, taken over the calendar months between
    their first and last review (inclusive), falls below ``monthly_floor``.
    """
    table = ReviewTable.from_reviews(reviews)
    unique = _first_occurrences(table)
    app_ids = unique.app_id.tolist()
    apps = tuple(sorted(set(app_ids)))
    position = {app: i for i, app in enumerate(apps)}
    codes = np.fromiter(map(position.__getitem__, app_ids), dtype=np.intp, count=len(app_ids))
    order = canonical_order(unique.stamp_us, unique.review_id, group=codes)
    ordered = unique.take(order)
    bounds = np.searchsorted(codes[order], np.arange(len(apps) + 1)).tolist()
    by_app = {app: ordered[lo:hi] for app, lo, hi in zip(apps, bounds, bounds[1:])}
    return MarketCatalog(
        apps=apps,
        reviews=by_app,
        coverage={app: _coverage(by_app[app].stamp_us, monthly_floor) for app in apps},
        monthly_floor=monthly_floor,
        duplicates_dropped=len(table) - len(unique),
    )


def catalog_summary(catalog: MarketCatalog) -> dict:
    """JSON-ready coverage summary (used by the ingest-check report)."""
    apps = {}
    for app in catalog.apps:
        cov = catalog.coverage[app]
        apps[app] = {
            "first": _utc_text(cov.first),
            "last": _utc_text(cov.last),
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
