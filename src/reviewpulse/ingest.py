"""Review dataset parsing, validation, and per-app cataloguing.

Input records arrive as JSONL or CSV with the fields ``review_id``,
``app_id``, ``timestamp``, ``rating``, ``body``, ``source``. A file is
read in binary blocks and decoded incrementally (``utf8_blocks``), so its
whole text is never held. Malformed records never abort a run: each one
becomes a :class:`Reject` carrying its line number and a machine-readable
reason, and parsing continues. Only an unreadable stream (missing file,
undecodable bytes, unusable CSV header) raises :class:`DatasetError`.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import re
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import chain, compress
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

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
    "utf8_blocks",
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
    """One accepted review, as iterating a ``ReviewTable`` yields its rows.
    ``timestamp`` is always timezone-aware UTC."""

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
# Row columns in REVIEW_FIELDS order; a parsed block holds line numbers after them.
_ID, _APP, _STAMP, _RATING, _BODY, _SOURCE, _LINE = range(7)


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


class ReviewTable:
    """Reviews held as columns, one row per review, in the order given.

    ``stamp_us`` holds each timestamp as int64 UTC microseconds since the
    epoch and ``raw_rating`` the raw rating as int64; ``review_id``,
    ``app_id``, ``body`` and ``source`` are object arrays of str. Every
    column is read-only. ``table[rows]``, with a slice or an array of row
    positions, is the table of those rows over the same strings; a table
    equals only a table with equal columns.

    Iterating builds one ``Review`` a row, with a UTC timestamp: the one
    row view, kept for the benchmark's ``input_properties``, which reads
    ``app_id`` and ``body`` off each row. No stage iterates a table.
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
    def concat(cls, tables: Iterable["ReviewTable"]) -> "ReviewTable":
        """The rows of every table, one table after another."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]
        if not tables:
            return cls(*_transpose(()))
        return cls(*(np.concatenate([getattr(t, name) for t in tables]) for name in _COLUMNS))

    def __len__(self) -> int:
        return len(self.stamp_us)

    def __getitem__(self, rows: slice | np.ndarray) -> "ReviewTable":
        return ReviewTable(*(getattr(self, name)[rows] for name in _COLUMNS))

    def __iter__(self) -> Iterator[Review]:
        return map(_make_review, *(getattr(self, name).tolist() for name in _COLUMNS))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReviewTable):
            return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ReviewTable(<{len(self)} reviews>)"


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
        # A fixed-width numpy string sorts much faster than str objects, in
        # the same order: bytes when every id is ASCII (a quarter of UCS-4;
        # ASCII byte order is code-point order), UCS-4 otherwise. It drops
        # trailing NULs, so ids holding a NUL keep the object compare.
        text = "".join(ids.tolist())
        if "\x00" not in text:
            ids = ids.astype("S" if text.isascii() else "U")
        order[positions] = rows[np.lexsort((ids, *(k[positions] for k in sorted_keys)))]
    return order


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


# Input bytes are read this many at a time, a block's worth: larger reads
# only raise the parse's peak. The text is cut into blocks of about
# _BLOCK_CHARS characters that end at a line end, and CSV records are
# validated _BLOCK_RECORDS at a time.
_READ_BYTES = 1 << 16
_BLOCK_CHARS = 1 << 16
_BLOCK_RECORDS = 512
_SCAN = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\r"  # JSON whitespace, less the "\n" that ends a line
_FIELDS_OF = itemgetter(*REVIEW_FIELDS)
# The common timestamp form, in ASCII digits; numpy would take year 0,
# which datetime refuses.
_STAMP_FORM = (
    r"(?!0000)[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])"
    r"T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]{6})?Z"
)
_STAMP_COLUMN = rf"(?:{_STAMP_FORM}\n)*{_STAMP_FORM}"  # compiled at first use, by re's cache


def utf8_blocks(stream: BinaryIO, name: str) -> Iterator[str]:
    """The stream's text, decoded from binary reads of ``_READ_BYTES`` by one
    incremental UTF-8 decoder, so a character may straddle two reads.

    Bytes that are not UTF-8 are a DatasetError naming ``name`` and their
    position counted from the start of the stream.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    done = 0  # bytes read before ``data``
    while True:
        data = stream.read(_READ_BYTES)
        held = len(decoder.getstate()[0])  # bytes of a character begun in the last read
        try:
            text = decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{name} is not valid UTF-8: {_decode_problem(exc, done - held)}") from exc
        yield text
        if not data:
            return
        done += len(data)


def _decode_problem(exc: UnicodeDecodeError, offset: int) -> str:
    """``str(exc)``, its positions counted from ``offset`` bytes earlier."""
    start = exc.start + offset
    if exc.end - exc.start == 1:
        return f"'{exc.encoding}' codec can't decode byte 0x{exc.object[exc.start]:02x} in position {start}: {exc.reason}"
    return f"'{exc.encoding}' codec can't decode bytes in position {start}-{exc.end - 1 + offset}: {exc.reason}"


def parse_reviews(
    source: str | bytes | Iterable[str],
    fmt: str = "jsonl",
    scales: ScaleMap | None = None,
) -> tuple[ReviewTable, list[Reject]]:
    """Parse a review stream into a table of accepted reviews plus per-line rejects.

    ``source`` is the text, its UTF-8 bytes, or the text in pieces as
    ``utf8_blocks`` reads a file; only a partial last line is carried from
    piece to piece. Duplicate ``(source, review_id)`` pairs keep the first
    occurrence; later ones are logged as rejects. They are found once the
    last block is in, by one hash pass over the whole table
    (``_repeated_keys``, as ``build_catalog`` finds them), so the parse
    keeps no per-row key map: each block keeps only its rows' line numbers,
    as int64. Line numbers are 1-based and refer to the physical input line
    (the header line counts for CSV, and a CSV record is numbered by the
    line it starts on). Rejects come in line order.
    """
    if scales is None:
        scales = ScaleMap()
    if isinstance(source, str):
        texts: Iterable[str] = (source,)
    elif isinstance(source, bytes):
        texts = utf8_blocks(io.BytesIO(source), "input")
    else:
        texts = source
    if fmt not in _LINE_ENDS:
        raise ValueError(f"unknown format {fmt!r} (expected 'jsonl' or 'csv')")
    blocks = (_jsonl_blocks if fmt == "jsonl" else _csv_blocks)(_line_blocks(texts, fmt))
    tables: list[ReviewTable] = []
    line_nos: list[np.ndarray] = []
    rejects: list[Reject] = []
    for columns, block_rejects in blocks:
        table, lines = _accept(columns, block_rejects, scales)
        del columns  # a block's raw fields go before the next block is read, and the last before the concat
        tables.append(table)
        line_nos.append(lines)
        rejects += sorted(block_rejects, key=attrgetter("line_no"))
    table = ReviewTable.concat(tables)
    del tables  # the blocks' columns go before the hash pass
    repeats = _repeated_keys(table)
    if not repeats:
        return table, rejects
    line_of = np.concatenate(line_nos)
    rejects += [Reject(int(line_of[row]), f"duplicate: ({table.source[row]}, {table.review_id[row]}) "
                       f"first seen at line {line_of[first]}") for row, first in repeats]
    return _without(table, [row for row, _ in repeats]), sorted(rejects, key=attrgetter("line_no"))


def _drop(columns: list, reasons: list[str | None], rejects: list[Reject]) -> list:
    """The columns without the rows that have a reason; each of those becomes a reject."""
    if not any(reasons):
        return columns
    rejects += [Reject(line_no, reason) for line_no, reason in zip(columns[_LINE], reasons) if reason]
    keep = [reason is None for reason in reasons]
    return [c[np.array(keep, dtype=bool)] if isinstance(c, np.ndarray) else list(compress(c, keep)) for c in columns]


def _accept(columns: list, rejects: list[Reject], scales: ScaleMap) -> tuple[ReviewTable, np.ndarray]:
    """The block's rows that pass every rule, and their line numbers as int64.

    Each rule is checked over a whole column, and costs work per row only
    when some row fails it. A row is rejected for the first rule it fails,
    in this order: a missing (or null) field, a non-string text field, a
    blank id, a non-string or unparsable timestamp, a non-integer rating, a
    rating outside its source's scale. Repeated keys are ``parse_reviews``'
    to find, once per file.
    """
    types = [set(map(type, column)) for column in columns[:_LINE]]
    for k, name in enumerate(REVIEW_FIELDS):
        if type(None) in types[k]:
            columns = _drop(columns, [f"missing-field:{name}" if v is None else None for v in columns[k]], rejects)
    for k in (_ID, _APP, _BODY, _SOURCE):
        if types[k] != {str}:
            reason = f"bad-field:{REVIEW_FIELDS[k]}: expected string"
            columns = _drop(columns, [None if type(v) is str else reason for v in columns[k]], rejects)
    for k in (_ID, _APP, _SOURCE):
        if not all(map(str.strip, columns[k])):
            reason = f"bad-field:{REVIEW_FIELDS[k]}: empty"
            columns = _drop(columns, [None if v.strip() else reason for v in columns[k]], rejects)
    if types[_STAMP] != {str}:
        reason = "bad-timestamp: expected string"
        columns = _drop(columns, [None if type(v) is str else reason for v in columns[_STAMP]], rejects)
    columns[_STAMP], reasons = _stamps_us(columns[_STAMP])
    columns = _drop(columns, reasons, rejects)
    if types[_RATING] != {int}:
        columns = _drop(
            columns, [None if type(v) is int else f"bad-rating: {v!r} is not an integer" for v in columns[_RATING]], rejects
        )
    scale_of = {source: scales.for_source(source) for source in set(columns[_SOURCE])}
    used = set(scale_of.values())
    if len(used) != 1 or not _within(used.pop(), columns[_RATING]):
        reasons = []
        for rating, source in zip(columns[_RATING], columns[_SOURCE]):
            scale = scale_of[source]
            reasons.append(None if scale.contains(rating) else f"out-of-range-rating: {rating} not in [{scale.lo}, {scale.hi}]")
        columns = _drop(columns, reasons, rejects)
    for k in (_APP, _SOURCE):  # one string object per distinct id: a run keeps these columns
        one_of = dict(zip(columns[k], columns[k]))
        columns[k] = list(map(one_of.__getitem__, columns[k]))
    return ReviewTable(*columns[:_LINE]), np.array(columns[_LINE], dtype=np.int64)


def _within(scale: RatingScale, ratings: Sequence[int]) -> bool:
    return scale.lo <= min(ratings) and max(ratings) <= scale.hi


def _stamps_us(texts: Sequence[str]) -> tuple[Sequence[int], list[str | None]]:
    """Each text's UTC microseconds since the epoch, and per text the reason it is not a timestamp.

    A column of nothing but the common form (``_STAMP_FORM``) converts as
    one array. Otherwise, or if numpy refuses a date such as 29 February
    of a common year, each text goes through ``parse_timestamp``.
    """
    joined = "\n".join(texts)
    if re.fullmatch(_STAMP_COLUMN, joined):
        parts = joined.replace("Z", "").split("\n")
        if len(parts) == len(texts):  # no text held a "\n" of its own
            try:
                return np.array(parts, dtype="datetime64[us]").view(np.int64), [None] * len(parts)
            except ValueError:
                pass
    stamps: list[int] = []
    reasons: list[str | None] = []
    for text in texts:
        try:
            stamps.append((parse_timestamp(text) - _EPOCH) // _MICROSECOND)
            reasons.append(None)
        except ValueError as exc:
            stamps.append(0)
            reasons.append(f"bad-timestamp: {exc}")
    return stamps, reasons


# Where a line ends, as the first and the last line end from a position. A
# JSONL line ends in "\n" alone; a CSV record may also end in a "\r" that no
# "\n" follows, and a "\r" that ends a piece waits for the next piece.
_LINE_ENDS = {
    fmt: (re.compile(end), re.compile(f".*(?:{end})", re.S)) for fmt, end in (("jsonl", r"\n"), ("csv", r"\n|\r(?=[^\n])"))
}


def _line_blocks(texts: Iterable[str], fmt: str) -> Iterator[str]:
    """The text of ``texts`` in blocks that each end just after a line end
    of ``fmt``, but the last: about ``_BLOCK_CHARS`` characters, or more
    when one line is.

    Only what follows a piece's last line end is carried to the next piece,
    in parts that are joined once, so a line longer than a piece is copied
    once, not once per piece.
    """
    first, last = _LINE_ENDS[fmt]
    held: list[str] = []
    for text in texts:
        start = 0
        while found := first.search(text, start + _BLOCK_CHARS) or last.match(text, start):
            end = found.end()
            yield "".join([*held, text[start:end]])
            held, start = [], end
        if start < len(text):
            held.append(text[start:])
    if held:
        yield "".join(held)


def _jsonl_blocks(blocks: Iterable[str]) -> Iterator[tuple[list, list[Reject]]]:
    """Each block's lines, decoded.

    Lines end at "\n" alone: serialize_reviews writes U+0085, U+2028 and
    U+2029 unescaped, which str.splitlines would split on; a CRLF line's
    trailing "\r" is JSON whitespace. A final "\n" ends the text, not a line.
    """
    first_line = 1
    for block in blocks:
        lines = block.split("\n")
        if block.endswith("\n"):
            del lines[-1]
        yield _decode_lines(lines, first_line)
        first_line += len(lines)


def _decode_lines(lines: Sequence[str], first_line: int) -> tuple[list, list[Reject]]:
    """The block's columns of decoded objects, and its lines that are not one.

    A line whose value, read by the C scanner from the line's start, is
    followed only by JSON whitespace is decoded by the scanner alone. Any other
    non-blank line goes to ``json.loads``, whose verdict and message stand;
    a line it cannot decode (an integer past the digit limit or nesting
    past the recursion limit included) is an ``invalid-json`` reject.
    """
    records: list[dict] = []
    line_nos: list[int] = []
    rejects: list[Reject] = []
    for line_no, line in enumerate(lines, first_line):
        try:
            record, end = _SCAN(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line) and (end < 0 or line[end:].strip(_JSON_SPACE)):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                rejects.append(Reject(line_no, f"invalid-json: {exc.msg}"))
                continue
            except (ValueError, RecursionError) as exc:
                rejects.append(Reject(line_no, f"invalid-json: {exc}"))
                continue
        if type(record) is not dict:
            rejects.append(Reject(line_no, "not-an-object"))
            continue
        records.append(record)
        line_nos.append(line_no)
    return [*_fields(records), line_nos], rejects


def _fields(records: list[dict]) -> list:
    """The records' REVIEW_FIELDS columns; an absent field reads as null, and either is missing-field."""
    try:
        return _transpose(list(map(_FIELDS_OF, records)))
    except KeyError:
        return _transpose([tuple(map(record.get, REVIEW_FIELDS)) for record in records])


def _transpose(rows: Sequence[Sequence]) -> list:
    return list(zip(*rows)) if rows else [()] * len(REVIEW_FIELDS)


def _csv_blocks(blocks: Iterable[str]) -> Iterator[tuple[list, list[Reject]]]:
    """The records after the header in blocks of ``_BLOCK_RECORDS``, numbered by the line each starts on.

    A record whose field count is not the header's is a ``bad-row``, and
    one whose rating is not an integer a ``bad-rating``; blank records are
    skipped. The csv module finds the record ends itself in a text stream
    with ``newline=""``, so a quoted field keeps its "\r\n", "\r", U+2028 or
    U+0085 as written; cutting blocks after a line end splits no line. An
    unusable header is a DatasetError, and so is a record the csv module
    refuses, such as one whose field exceeds ``csv.field_size_limit()`` (an
    unclosed quote early in a large file does), naming the line it starts on.
    """
    reader = csv.reader(chain.from_iterable(io.StringIO(block, newline="") for block in blocks))
    end = 0
    try:
        header = next(reader, None)
        if header is None:
            return
        if sorted(header) != sorted(REVIEW_FIELDS):
            raise DatasetError(
                f"bad CSV header {header!r}: expected columns {list(REVIEW_FIELDS)}"
            )
        fields_of = itemgetter(*map(header.index, REVIEW_FIELDS))
        end = reader.line_num
        rows: list[list[str]] = []
        line_nos: list[int] = []
        rejects: list[Reject] = []
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if len(row) == len(header):
                rows.append(row)
                line_nos.append(line_no)
            elif row:
                rejects.append(Reject(line_no, f"bad-row: expected {len(header)} fields, got {len(row)}"))
            if len(rows) == _BLOCK_RECORDS:
                yield _csv_block(rows, line_nos, fields_of, rejects)
                rows, line_nos, rejects = [], [], []
        if rows or rejects:
            yield _csv_block(rows, line_nos, fields_of, rejects)
    except csv.Error as exc:
        raise DatasetError(f"CSV record at line {end + 1}: {exc}") from exc


def _csv_block(
    rows: list[list[str]], line_nos: list[int], fields_of: itemgetter, rejects: list[Reject]
) -> tuple[list, list[Reject]]:
    """The records' columns in REVIEW_FIELDS order with int ratings; a rating that is not one is a reject."""
    columns = [*_transpose(list(map(fields_of, rows))), line_nos]
    texts = list(map(str.strip, columns[_RATING]))
    try:
        columns[_RATING] = list(map(int, texts))
    except ValueError:
        ratings = list(map(_int_or_none, texts))
        reasons = [None if r is not None else f"bad-rating: {t!r} is not an integer" for r, t in zip(ratings, texts)]
        columns[_RATING] = ratings
        columns = _drop(columns, reasons, rejects)
    return columns, rejects


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


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


def serialize_reviews(table: ReviewTable, fmt: str = "jsonl") -> str:
    """Serialise a table's rows back to the interchange format (round-trip
    safe), read from its columns: no ``Review`` is built."""
    stamps = map(_utc_text, map(utc_datetime, table.stamp_us.tolist()))
    rows = zip(table.review_id, table.app_id, stamps, table.raw_rating.tolist(), table.body, table.source)
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


def _repeated_keys(table: ReviewTable) -> list[tuple[int, int]]:
    """Each row whose ``(source, review_id)`` key an earlier row holds, in
    row order, with the first row that holds it.

    Each row's key is hashed into one int64 array (the review id alone when
    every row has one source). A row whose hash no other row shares is a
    first occurrence; only rows that share a hash are compared as keys, in
    row order, so the hash seed reaches no result.
    """
    keys = table.review_id if (table.source == table.source[:1]).all() else zip(table.source, table.review_id)
    hashes = np.fromiter(map(hash, keys), dtype=np.int64, count=len(table))
    ordered = np.sort(hashes)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    first: dict[tuple[str, str], int] = {}
    pairs = [(row, first.setdefault((table.source[row], table.review_id[row]), row))
             for row in np.flatnonzero(np.isin(hashes, shared)).tolist()]
    return [(row, at) for row, at in pairs if at != row]


def _without(table: ReviewTable, rows: list[int]) -> ReviewTable:
    """The table less the given rows, in one index; the table itself when there are none."""
    return table[np.delete(np.arange(len(table)), rows)] if rows else table


def build_catalog(table: ReviewTable, monthly_floor: float = 20.0) -> MarketCatalog:
    """Group a table's reviews per app and compute coverage statistics.

    Repeated ``(source, review_id)`` keys keep their first occurrence. The
    insufficient-data flag marks apps whose mean monthly review count,
    taken over the calendar months between their first and last review
    (inclusive), falls below ``monthly_floor``.
    """
    unique = _without(table, [row for row, _ in _repeated_keys(table)])
    app_ids = unique.app_id.tolist()
    apps = tuple(sorted(set(app_ids)))
    position = {app: i for i, app in enumerate(apps)}
    codes = np.fromiter(map(position.__getitem__, app_ids), dtype=np.intp, count=len(app_ids))
    order = canonical_order(unique.stamp_us, unique.review_id, group=codes)
    ordered = unique[order]
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
    return {
        "apps": {app: {**asdict(cov), "first": _utc_text(cov.first), "last": _utc_text(cov.last)}
                 for app, cov in catalog.coverage.items()},
        "app_count": len(catalog.apps),
        "review_count": sum(c.total for c in catalog.coverage.values()),
        "monthly_floor": catalog.monthly_floor,
        "duplicates_dropped": catalog.duplicates_dropped,
        "insufficient_apps": list(catalog.insufficient_apps()),
    }
