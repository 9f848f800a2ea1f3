"""Reference oracles: the plainest statement of a rule, one row at a time.

``parse_reviews_by_row`` validates one record at a time, each rule in
order, and dedups one key at a time. ``reviewpulse.ingest.parse_reviews``
checks the same rules a column at a time over blocks of lines; the
property tests hold the two to the same table, rejects and order.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterator, Sequence

from reviewpulse.ingest import (
    REVIEW_FIELDS,
    DatasetError,
    Reject,
    Review,
    ReviewTable,
    ScaleMap,
    parse_timestamp,
)


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
