"""Ingestion tests: parsing, rejects, dedup, catalog coverage.

The large-file test checks parse counts against an oracle that scans the
raw lines with nothing but json + datetime, so a parser bug cannot hide
behind its own accounting.
"""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from oracles import all_reviews, parse_reviews_by_row, table_of

from reviewpulse import ingest
from reviewpulse.config import ConfigError, MarketConfig, apply_overrides
from reviewpulse.correlate import CorrelatedEventRecord, CorrelationRun, ce_records_from_json, ce_records_to_json
from reviewpulse.detect import EventRecord
from reviewpulse.ingest import (
    REVIEW_FIELDS,
    DatasetError,
    RatingScale,
    Reject,
    Review,
    ScaleMap,
    build_catalog,
    catalog_summary,
    csv_line_writer,
    parse_reviews,
    parse_timestamp,
    rejects_to_jsonl,
    serialize_reviews,
    utf8_blocks,
)
from reviewpulse.metrics import MetricKind, TimeWindow, read_day_sums_csv
from reviewpulse.synth import scenario_from_dict


def _line(review_id: str, app_id: str = "appA", ts: str = "2024-01-05T10:00:00Z",
          rating: int = 5, body: str = "Fine.", source: str = "store") -> str:
    return json.dumps({
        "review_id": review_id,
        "app_id": app_id,
        "timestamp": ts,
        "rating": rating,
        "body": body,
        "source": source,
    })


def test_empty_input_is_identity() -> None:
    reviews, rejects = parse_reviews("", "jsonl")
    assert len(reviews) == 0 and rejects == []
    reviews, rejects = parse_reviews("", "csv")
    assert len(reviews) == 0 and rejects == []


def test_single_wellformed_line() -> None:
    reviews, rejects = parse_reviews(_line("r1", rating=5), "jsonl")
    assert rejects == []
    assert len(reviews) == 1
    r = next(iter(reviews))
    assert r.raw_rating == 5
    assert r.review_id == "r1"
    assert r.timestamp == datetime(2024, 1, 5, 10, 0, tzinfo=timezone.utc)


def test_timestamp_forms() -> None:
    assert parse_timestamp("2024-01-05T10:00:00Z") == parse_timestamp("2024-01-05T10:00:00+00:00")
    # offsets are normalised to UTC
    assert parse_timestamp("2024-01-05T12:00:00+02:00") == parse_timestamp("2024-01-05T10:00:00Z")
    with pytest.raises(ValueError):
        parse_timestamp("2024-01-05T10:00:00")  # naive
    with pytest.raises(ValueError):
        parse_timestamp("not a date")


def test_thousand_lines_with_three_bad_timestamps_against_line_oracle() -> None:
    rng = random.Random(42)
    lines = []
    for i in range(1000):
        day = rng.randrange(1, 28)
        lines.append(_line(f"r{i:04d}", app_id=f"app{rng.randrange(4)}",
                           ts=f"2024-{rng.randrange(1, 13):02d}-{day:02d}T08:30:00Z",
                           rating=rng.randrange(1, 6)))
    corrupted = (102, 517, 941)  # 1-based line numbers
    for ln in corrupted:
        record = json.loads(lines[ln - 1])
        record["timestamp"] = "sometime last week"
        lines[ln - 1] = json.dumps(record)
    text = "\n".join(lines) + "\n"

    # Oracle: independent scan deciding validity with stdlib only.
    ok = 0
    bad_lines = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        try:
            ts = datetime.fromisoformat(str(record["timestamp"]).replace("Z", "+00:00"))
            valid = ts.tzinfo is not None
        except ValueError:
            valid = False
        if valid:
            ok += 1
        else:
            bad_lines.append(line_no)
    assert ok == 997 and bad_lines == list(corrupted)

    reviews, rejects = parse_reviews(text, "jsonl")
    assert len(reviews) == ok == 997
    assert [r.line_no for r in rejects] == bad_lines
    assert all(r.reason.startswith("bad-timestamp") for r in rejects)


def test_reject_reasons_are_machine_readable() -> None:
    lines = [
        _line("r1"),
        "",
        "{ not json",
        json.dumps(["a", "list"]),
        "   ",
        json.dumps({"app_id": "a", "timestamp": "2024-01-05T10:00:00Z",
                    "rating": 3, "body": "x", "source": "s"}),
        _line("r2", body=7),
        _line("r3", app_id="  "),
        _line("r4", ts="2024-01-05T10:00:00"),
        _line("r5", ts=20240105),
        _line("r6", rating="5"),
        _line("r7", rating=True),
        _line("r8", rating=6),
        _line("r1"),
        _line("r1", source="web"),
    ]
    reviews, rejects = parse_reviews("\n".join(lines) + "\n", "jsonl")
    assert [(r.review_id, r.source) for r in reviews] == [("r1", "store"), ("r1", "web")]
    assert [(r.line_no, r.reason) for r in rejects] == [
        (3, "invalid-json: Expecting property name enclosed in double quotes"),
        (4, "not-an-object"),
        (6, "missing-field:review_id"),
        (7, "bad-field:body: expected string"),
        (8, "bad-field:app_id: empty"),
        (9, "bad-timestamp: timestamp '2024-01-05T10:00:00' has no timezone offset"),
        (10, "bad-timestamp: expected string"),
        (11, "bad-rating: '5' is not an integer"),
        (12, "bad-rating: True is not an integer"),
        (13, "out-of-range-rating: 6 not in [1, 5]"),
        (14, "duplicate: (store, r1) first seen at line 1"),
    ]


def test_duplicate_key_is_source_scoped() -> None:
    text = "\n".join([_line("r1", source="store"), _line("r1", source="web")])
    reviews, rejects = parse_reviews(text, "jsonl")
    assert len(reviews) == 2 and rejects == []


def test_rating_scales_per_source() -> None:
    scales = ScaleMap(default=RatingScale(1, 5), per_source={"web": RatingScale(0, 10)})
    text = "\n".join([_line("r1", rating=7, source="web"), _line("r2", rating=7, source="store")])
    reviews, rejects = parse_reviews(text, "jsonl", scales)
    assert [r.review_id for r in reviews] == ["r1"]
    assert rejects[0].reason.startswith("out-of-range-rating")


def test_csv_round_trip_and_bad_header() -> None:
    src = [
        Review("r1", "appA", datetime(2024, 3, 1, 12, tzinfo=timezone.utc), 4,
               'Has, commas and "quotes".', "store"),
        Review("r2", "appB", datetime(2024, 3, 2, 9, 30, tzinfo=timezone.utc), 1, "Bad!", "store"),
    ]
    for fmt in ("jsonl", "csv"):
        text = serialize_reviews(table_of(src), fmt)
        back, rejects = parse_reviews(text, fmt)
        assert rejects == []
        assert back == table_of(src)
    with pytest.raises(DatasetError):
        parse_reviews("review_id,app_id\nr1,a\n", "csv")


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_jsonl_round_trip_keeps_unicode_line_separators(separator: str) -> None:
    # serialize_reviews writes these unescaped; only "\n" may end a line.
    src = [
        Review("r1", "appA", datetime(2024, 3, 1, 12, tzinfo=timezone.utc), 4,
               f"First{separator}second.", "store"),
        Review("r2", "appB", datetime(2024, 3, 2, 9, 30, tzinfo=timezone.utc), 2, "Plain.", "store"),
    ]
    text = serialize_reviews(table_of(src), "jsonl")
    assert separator in text
    for source in (text, text.encode("utf-8")):
        assert parse_reviews(source, "jsonl") == (table_of(src), [])


def test_jsonl_crlf_file_parses_with_physical_line_numbers() -> None:
    src = [
        Review(f"r{i}", "appA", datetime(2024, 3, 1 + i, 12, tzinfo=timezone.utc), 3, "Fine.", "store")
        for i in range(3)
    ]
    crlf = serialize_reviews(table_of(src), "jsonl").replace("\n", "\r\n")
    assert parse_reviews(crlf.encode("utf-8"), "jsonl") == (table_of(src), [])
    # A bad line keeps its number: CRLF ends one line, not two.
    broken = crlf.replace('"timestamp": "2024-03-02T12:00:00Z"', '"timestamp": "soon"')
    reviews, rejects = parse_reviews(broken, "jsonl")
    assert [r.review_id for r in reviews] == ["r0", "r2"]
    assert [r.line_no for r in rejects] == [2]


def test_csv_row_rejects() -> None:
    rows = [
        "source,rating,review_id,app_id,timestamp,body",  # line 1
        "store,4,r1,appA,2024-01-05T10:00:00Z,ok",
        "",
        "store,x,r2,appA,2024-01-05T10:00:00Z,bad rating",
        "store,4,r3,appA",
        'store,4,r1,appB,2024-01-05T11:00:00Z,"two\nlines"',  # lines 6-7
        "",
        "store, 3 ,r4,appA,2024-01-05T10:00:00Z,spaced rating",
        "store,4,r1,appA,2024-01-05T10:00:00Z,ok,extra",
        "store,9,,appA,2024-01-05T10:00:00Z,empty id",
        "store,4,r5,appA,2024-01-05,naive",
    ]
    reviews, rejects = parse_reviews("\n".join(rows) + "\n", "csv")
    assert [(r.review_id, r.raw_rating) for r in reviews] == [("r1", 4), ("r4", 3)]
    assert [(r.line_no, r.reason) for r in rejects] == [
        (4, "bad-rating: 'x' is not an integer"),
        (5, "bad-row: expected 6 fields, got 4"),
        (6, "duplicate: (store, r1) first seen at line 2"),
        (10, "bad-row: expected 6 fields, got 7"),
        (11, "bad-field:review_id: empty"),
        (12, "bad-timestamp: timestamp '2024-01-05' has no timezone offset"),
    ]


def test_csv_and_jsonl_twins_reject_a_row_for_the_same_first_fault() -> None:
    # Each row has two faults, the second a rating that is no integer; the
    # JSONL twin writes every field as the same JSON string.
    good = {"review_id": "r1", "app_id": "appA", "timestamp": "2024-01-05T10:00:00Z", "rating": "x",
            "body": "b", "source": "store"}
    rows = [{**good, "review_id": " "}, {**good, "app_id": ""}, {**good, "source": ""},
            {**good, "timestamp": "soon"}, {**good, "timestamp": "2024-01-05T10:00:00"}, {**good, "rating": "4.5"}]
    jsonl = "".join(json.dumps(row) + "\n" for row in rows)
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(REVIEW_FIELDS)
    writer.writerows([row[name] for name in REVIEW_FIELDS] for row in rows)
    from_jsonl, from_csv = parse_reviews(jsonl, "jsonl"), parse_reviews("".join(lines), "csv")
    assert len(from_jsonl[0]) == len(from_csv[0]) == 0
    assert [(r.line_no + 1, r.reason) for r in from_jsonl[1]] == [(r.line_no, r.reason) for r in from_csv[1]]
    assert [r.reason.split(":")[0] for r in from_csv[1]] == [
        "bad-field", "bad-field", "bad-field", "bad-timestamp", "bad-timestamp", "bad-rating"]


@pytest.mark.parametrize("separator", ["\r\n", "\r", "\n", "\u2028", "\u0085"])
def test_csv_round_trip_keeps_line_breaks_in_bodies(separator: str) -> None:
    src = [
        Review("r1", "appA", datetime(2024, 3, 1, 12, tzinfo=timezone.utc), 4,
               f"First{separator}second.", "store"),
        Review("r2", "appB", datetime(2024, 3, 2, 9, 30, tzinfo=timezone.utc), 2, "Plain.", "store"),
    ]
    text = serialize_reviews(table_of(src), "csv")
    assert separator in text
    for source in (text, text.encode("utf-8")):
        assert parse_reviews(source, "csv") == (table_of(src), [])


# Arbitrary text, with line breaks, quotes and commas drawn often.
_FIELD_TEXT = st.lists(
    st.one_of(st.sampled_from(["\r\n", "\r", "\n", "\u0085", "\u2028", "\u2029", '"', ","]),
              st.text(max_size=3)),
    max_size=6,
).map("".join)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT.filter(str.strip)), min_size=1, max_size=4),
    st.sampled_from(["jsonl", "csv"]),
)
def test_parse_reads_back_what_serialize_writes(fields: list[tuple[str, str]], fmt: str) -> None:
    src = [
        Review(f"r{i}", app_id, datetime(2024, 3, 1, 12, tzinfo=timezone.utc), 4, body, "store")
        for i, (body, app_id) in enumerate(fields)
    ]
    assert parse_reviews(serialize_reviews(table_of(src), fmt), fmt) == (table_of(src), [])


def test_csv_reject_after_multiline_records_reports_its_physical_line() -> None:
    rows = [
        "app_id,body,rating,review_id,source,timestamp",  # line 1
        'appA,"two\nlines",4,r1,store,2024-01-05T10:00:00Z',  # lines 2-3
        'appA,"three\r\nphysical\rlines",4,r2,store,2024-01-05T10:00:00Z',  # lines 4-6
        "",  # line 7
        "appA,bad rating,x,r3,store,2024-01-05T10:00:00Z",  # line 8
    ]
    reviews, rejects = parse_reviews("\n".join(rows), "csv")
    assert [r.body for r in reviews] == ["two\nlines", "three\r\nphysical\rlines"]
    assert [(r.line_no, r.reason.split(":")[0]) for r in rejects] == [(8, "bad-rating")]


def test_unreadable_csv_record_is_a_dataset_error_naming_its_line() -> None:
    # An unclosed quote on line 3 runs on until the field exceeds the csv
    # module's size limit.
    rows = ["app_id,body,rating,review_id,source,timestamp", "appA,ok,4,r1,store,2024-01-05T10:00:00Z",
            'appA,"unclosed,4,r2,store,2024-01-05T10:00:00Z']
    rows += [f"appA,body {i},4,r{i + 3},store,2024-01-05T10:00:00Z" for i in range(4000)]
    with pytest.raises(DatasetError, match="CSV record at line 3: field larger than field limit"):
        parse_reviews("\n".join(rows), "csv")


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("1" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
        ('{"rating": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits) for integer string conversion"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"a": ' + "[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["huge-integer", "huge-integer-field", "deep-nesting", "deep-nesting-unclosed"],
)
def test_a_line_json_cannot_decode_costs_only_that_line(bad_line: str, message: str) -> None:
    text = "\n".join([_line("r1"), bad_line, _line("r2")]) + "\n"
    reviews, rejects = parse_reviews(text, "jsonl")
    assert [r.review_id for r in reviews] == ["r1", "r2"]
    assert [r.line_no for r in rejects] == [2]
    assert rejects[0].reason.startswith("invalid-json: " + message)


def test_lines_that_join_into_valid_json_are_still_judged_alone() -> None:
    # Joined into one array these decode as three objects; alone, none is one.
    lines = ['{"a":1},{"b":2}', '{"c":[{}', "{}]}"]
    _, rejects = parse_reviews("\n".join(lines), "jsonl")
    assert [(r.line_no, r.reason.split(":")[0]) for r in rejects] == [(n, "invalid-json") for n in (1, 2, 3)]


# (timestamp text, converted by the array path without parse_timestamp?)
_STAMP_CASES = [
    ("2024-02-29T12:00:00Z", True),
    ("2023-02-29T12:00:00Z", False),  # in the common form, but no such day
    ("2000-02-29T00:00:00Z", True),
    ("1900-02-29T00:00:00Z", False),
    ("2024-01-05T23:59:59.999999Z", True),
    ("0001-01-01T00:00:00Z", True),
    ("9999-12-31T23:59:59.999999Z", True),
    ("0000-01-01T00:00:00Z", False),
    ("2024-01-05T24:00:00Z", False),
    ("2024-01-05T23:59:60Z", False),
    ("2024-13-01T00:00:00Z", False),
    ("2024-01-05T10:00:00+00:00", False),
    ("2024-01-05T12:00:00+02:00", False),
    ("2024-01-05T10:00:00z", False),
    ("2024-01-05T10:00:00.5Z", False),
    (" 2024-01-05T10:00:00Z", False),
    ("2024-01-05T10:00:00", False),
    ("２０２４-01-05T10:00:00Z", False),  # fullwidth digits
]


def _parse_timestamp_verdict(text: str) -> tuple[int, str | None]:
    try:
        return (parse_timestamp(text) - ingest._EPOCH) // ingest._MICROSECOND, None
    except ValueError as exc:
        return 0, f"bad-timestamp: {exc}"


@pytest.mark.parametrize("text, by_array", _STAMP_CASES, ids=[t for t, _ in _STAMP_CASES])
def test_timestamp_column_agrees_with_parse_timestamp(text: str, by_array: bool) -> None:
    texts = ["2024-01-05T10:00:00Z", text, "2024-01-05T10:00:00.000001Z"]
    want = [_parse_timestamp_verdict(t) for t in texts]
    stamps, reasons = ingest._stamps_us(texts)
    assert list(zip(map(int, stamps), reasons)) == want
    if by_array:
        with mock.patch.object(ingest, "parse_timestamp", side_effect=AssertionError):
            assert ingest._stamps_us(texts)[0].tolist() == [stamp for stamp, _ in want]


def test_timestamp_column_treats_a_text_holding_a_newline_as_one_text() -> None:
    texts = ["2024-01-05T10:00:00Z\n2024-01-05T10:00:00Z", "2024-01-05T10:00:00Z"]
    _, reasons = ingest._stamps_us(texts)
    assert reasons[0].startswith("bad-timestamp:") and reasons[1] is None


# Field values for the oracle tests: good ones, and bad ones for each rule.
_ABSENT = object()
_GOOD = {
    "review_id": st.sampled_from(["r1", "r2", " r1", "r\u20284"]),
    "app_id": st.sampled_from(["appA", "appB"]),
    "timestamp": st.sampled_from([t for t, _ in _STAMP_CASES if _parse_timestamp_verdict(t)[1] is None]),
    "rating": st.integers(1, 5),
    "body": st.text(st.sampled_from("ab \u0085\u2028\r\t\"\\é😀"), max_size=5),
    "source": st.sampled_from(["store", "web", "web "]),
}
_BAD = {
    "review_id": st.sampled_from(["", "  ", 7]),
    "app_id": st.sampled_from([" ", 3, ["appA"]]),
    "timestamp": st.one_of(st.sampled_from([t for t, _ in _STAMP_CASES] + ["soon", ""]), st.integers()),
    "rating": st.one_of(st.booleans(), st.floats(allow_nan=False), st.sampled_from(["5", 10**30, -(10**30), 0, 6, 10, 11, [5]])),
    "body": st.sampled_from([3, {"a": 1}]),
    "source": st.sampled_from(["\t", ["store"]]),
}


@st.composite
def _record_line(draw: st.DrawFn) -> str:
    bad = draw(st.lists(st.sampled_from(REVIEW_FIELDS), max_size=2))
    record = {}
    for name in REVIEW_FIELDS:
        value = draw(st.one_of(_BAD[name], st.sampled_from([_ABSENT, None])) if name in bad else _GOOD[name])
        if value is not _ABSENT:
            record[name] = value
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    return draw(st.sampled_from([line] * 5 + [" " + line, line + " \t", line + "x", line + ",{}"]))


_OTHER_LINES = st.sampled_from([
    "", "   ", "\t", "\u2028", "\x0c", "{ not json", "[1, 2]", "7", '"x"', "null", "1" * 5000,
    '{"a":1},{"b":2}', '{"c":[{}', "{}]}", "{}",
])


@settings(max_examples=300)
@given(
    st.lists(st.one_of(_record_line(), _record_line(), _OTHER_LINES), max_size=25),
    st.lists(st.sampled_from(["\n", "\r\n"]), min_size=25, max_size=25),
    st.booleans(),
    st.sampled_from([None, ScaleMap(per_source={"web": RatingScale(0, 10)})]),
    st.sampled_from([1, 40, 200, 1 << 16]),
)
def test_jsonl_parse_agrees_with_the_per_row_oracle(lines, endings, bom, scales, block_chars) -> None:
    text = ("\ufeff" if bom else "") + "".join(line + end for line, end in zip(lines, endings))
    with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
        got = parse_reviews(text, "jsonl", scales)
    assert got == parse_reviews_by_row(text, "jsonl", scales)


_GOOD_CSV = {"rating": st.sampled_from(["3", " 4 ", "5", "+2", "1_0"])}
_BAD_CSV = {
    "review_id": st.sampled_from(["", "  "]),
    "app_id": st.just(" "),
    "timestamp": st.sampled_from([t for t, _ in _STAMP_CASES] + ["soon", ""]),
    "rating": st.sampled_from(["x", " x ", "", "3.0", "0", "11", "9" * 5000]),
    "body": _GOOD["body"],  # any text is a body
    "source": st.just("\t"),
}


@st.composite
def _csv_row(draw: st.DrawFn) -> list[str]:
    bad = draw(st.lists(st.sampled_from(REVIEW_FIELDS), max_size=2))
    row = []
    for name in REVIEW_FIELDS:
        good, wrong = _GOOD_CSV.get(name, _GOOD[name]), _BAD_CSV.get(name, _BAD[name])
        row.append(draw(wrong if name in bad else good))
    return draw(st.sampled_from([row] * 6 + [row[:4], row + ["extra"], []]))


@settings(max_examples=200)
@given(
    st.permutations(list(REVIEW_FIELDS)),
    st.lists(_csv_row(), max_size=20),
    st.sampled_from([None, ScaleMap(per_source={"web": RatingScale(0, 10)})]),
    st.sampled_from([1, 3, 512]),
)
def test_csv_parse_agrees_with_the_per_row_oracle(header, rows, scales, block_records) -> None:
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(header)
    order = [REVIEW_FIELDS.index(name) for name in header]
    writer.writerows([[row[i] for i in order] if len(row) == len(REVIEW_FIELDS) else row for row in rows])
    text = "".join(lines)
    with mock.patch.object(ingest, "_BLOCK_RECORDS", block_records):
        got = parse_reviews(text, "csv", scales)
    assert got == parse_reviews_by_row(text, "csv", scales)


def test_duplicates_across_blocks_name_the_first_line() -> None:
    lines = [_line(f"r{i % 3}", source=("store", "web")[i % 2]) for i in range(12)]
    text = "\n".join(lines) + "\n"
    for block_chars in (1, len(lines[0]) * 2, 1 << 16):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            reviews, rejects = parse_reviews(text, "jsonl")
        assert [(r.source, r.review_id) for r in reviews] == [
            ("store", "r0"), ("web", "r1"), ("store", "r2"), ("web", "r0"), ("store", "r1"), ("web", "r2")
        ]
        assert [(r.line_no, r.reason) for r in rejects] == [
            (line_no + 6, f"duplicate: ({r.source}, {r.review_id}) first seen at line {line_no}")
            for line_no, r in enumerate(reviews, start=1)
        ]


def _streamed(text: str, fmt: str, read_bytes: int, block_chars: int = 1 << 16) -> tuple:
    """``parse_reviews`` over the text's UTF-8 bytes, read ``read_bytes`` at a time."""
    with mock.patch.object(ingest, "_READ_BYTES", read_bytes), mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
        return parse_reviews(utf8_blocks(io.BytesIO(text.encode("utf-8")), "input"), fmt)


def _stream_cases() -> dict[str, tuple[str, str, list[int]]]:
    """(text, format, reject line numbers) of inputs whose reads may split a
    line, a CRLF or a multi-byte character anywhere."""
    at = datetime(2024, 3, 1, 12, tzinfo=timezone.utc)
    bodies = ["é€😀 fine", "one\u2028two\u0085three", "x" * 100]
    src = [Review(f"r{i}", "appA", at, 4, body, "store") for i, body in enumerate(bodies)]
    first, second, third = serialize_reviews(table_of(src), "jsonl").split("\n")[:3]
    jsonl = "\r\n".join([first, second, "{ not json", first, third])  # no final newline
    quoted = ["two\r\nlines", "a\nb", "c\rd", "é\u2028€\u0085"]
    csv_src = [Review(f"r{i}", "appA", at, 4, body, "store") for i, body in enumerate(quoted)]
    csv_text = serialize_reviews(table_of(csv_src), "csv") + "bad,row\n"
    return {
        "jsonl-crlf-multibyte-no-final-newline": (jsonl, "jsonl", [3, 4]),
        "jsonl-empty": ("", "jsonl", []),
        "jsonl-blank-line": ("\n", "jsonl", []),
        "csv-quoted-line-breaks": (csv_text, "csv", [9]),
        "csv-empty": ("", "csv", []),
    }


@pytest.mark.parametrize("case", sorted(_stream_cases()))
def test_streamed_reads_equal_the_whole_text_parse(case: str) -> None:
    text, fmt, reject_lines = _stream_cases()[case]
    whole = parse_reviews(text, fmt)
    assert [r.line_no for r in whole[1]] == reject_lines
    for read_bytes in [*range(1, 9), 64]:
        for block_chars in (1, 8, 1 << 16):
            assert _streamed(text, fmt, read_bytes, block_chars) == whole, (read_bytes, block_chars)


@settings(max_examples=100)
@given(
    st.lists(st.one_of(_record_line(), _OTHER_LINES), max_size=12),
    st.lists(st.sampled_from(["\n", "\r\n"]), min_size=12, max_size=12),
    st.booleans(),
    st.sampled_from([1, 2, 3, 7]),
    st.sampled_from([1, 40]),
)
def test_streamed_jsonl_equals_the_whole_text_parse(lines, endings, final_end, read_bytes, block_chars) -> None:
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and not final_end:
        text = text[: -len(endings[len(lines) - 1])]
    assert _streamed(text, "jsonl", read_bytes, block_chars) == parse_reviews(text, "jsonl")


@settings(max_examples=100)
@given(st.lists(_csv_row(), max_size=10), st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 40]))
def test_streamed_csv_equals_the_whole_text_parse(rows, read_bytes, block_chars) -> None:
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(REVIEW_FIELDS)
    writer.writerows(rows)
    text = "".join(lines)
    assert _streamed(text, "csv", read_bytes, block_chars) == parse_reviews(text, "csv")


def test_a_line_longer_than_a_read_is_joined_once() -> None:
    # 62,500 reads of 64 bytes end inside one 4 MB line. Joining the
    # carried part again at every read would copy about 60 G characters.
    long = json.dumps(json.loads(_line("r1")) | {"body": "é" * 2_000_000}, ensure_ascii=False)
    text = "\n".join([_line("r0"), long, _line("r2")]) + "\n"
    start = time.perf_counter()
    got = _streamed(text, "jsonl", 64)
    assert time.perf_counter() - start < 5.0
    assert got == parse_reviews(text, "jsonl")
    assert [len(r.body) for r in got[0]] == [5, 2_000_000, 5]


@pytest.mark.parametrize("read_bytes", [1, 3, 5, 1 << 20])
def test_bytes_that_are_not_utf8_name_their_offset_in_the_whole_input(read_bytes: int) -> None:
    text = serialize_reviews(table_of([Review(f"r{i}", "appA", datetime(2024, 3, 1, tzinfo=timezone.utc), 4, "é€😀" * i,
                                              "store") for i in range(20)]))
    data = text.encode("utf-8")
    for bad in (data[:-2] + b"\xff" + data[-2:], data[:-3] + b"\xe2\x82" + data[-3:], data + b"\xf0\x9f"):
        with pytest.raises(UnicodeDecodeError) as whole:
            bad.decode("utf-8")
        with mock.patch.object(ingest, "_READ_BYTES", read_bytes), pytest.raises(DatasetError) as streamed:
            parse_reviews(bad, "jsonl")
        assert str(streamed.value) == f"input is not valid UTF-8: {whole.value}"


# The two parses of the test below, traced in a fresh process: objects that
# earlier tests leave on the interpreter's free lists would otherwise serve
# some of either parse's allocations untraced, and move the two peaks apart
# by tens of KB.
_PEAKS = """
import sys, tracemalloc
from pathlib import Path
from reviewpulse.config import MarketConfig
from reviewpulse.ingest import parse_reviews
from reviewpulse.pipeline import read_review_files

def peak(read) -> int:
    tracemalloc.start()
    try:
        assert len(read()[0]) == 50_000
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

path = Path(sys.argv[1])
print(peak(lambda: parse_reviews(path.read_bytes().decode("utf-8"), "jsonl")),
      peak(lambda: read_review_files([path], "jsonl", MarketConfig())))
"""


def test_read_review_files_holds_no_whole_file(tmp_path) -> None:
    path = tmp_path / "reviews.jsonl"
    lines = [_line(f"r{i}", app_id=f"app{i % 7}", body=f"Review {i} says the update is fine.") for i in range(50_000)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(ingest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PEAKS, str(path)], env=env, check=True, capture_output=True,
                          text=True, timeout=300)
    whole, streamed = map(int, done.stdout.split())
    assert whole - streamed >= path.stat().st_size


def test_read_review_files_peaks_under_half_the_file_above_its_result(tmp_path) -> None:
    # The parse keeps no per-row key map: above the table it returns, it
    # holds its blocks, one read and the end-of-file concat and hash pass.
    from reviewpulse.config import MarketConfig
    from reviewpulse.pipeline import read_review_files

    path = tmp_path / "reviews.jsonl"
    lines = [_line(f"r{i}", app_id=f"app{i % 7}", body=f"Review {i} says the update is fine.") for i in range(50_000)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        reviews, rejects = read_review_files([path], "jsonl", MarketConfig())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(reviews), rejects) == (50_000, [])
    assert peak - held <= path.stat().st_size / 2


def test_a_csv_file_and_its_jsonl_twin_accept_the_same_ratings() -> None:
    # The JSONL twin holds each rating text as the JSON value it spells, or
    # as a string where it spells none: "+4", "٤", "４", "0_4", and a
    # leading zero ("04", "-04", "00"), are no JSON number, so a JSONL file
    # cannot hold them as one, and CSV refuses them too. "-0" is JSON's 0.
    texts = ["4", " 4 ", "-4", "9", "+4", "٤", "４", "0_4", "4.0", "four", "", "04", "-04", "00", "-0"]
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(REVIEW_FIELDS)
    twin = []
    for i, text in enumerate(texts):
        writer.writerow([f"r{i}", "appA", "2024-01-05T10:00:00Z", text, "Fine.", "store"])
        try:
            rating = json.loads(text)
        except ValueError:
            rating = text
        twin.append(_line(f"r{i}", rating=rating))
    from_csv = parse_reviews("".join(lines), "csv")
    from_jsonl = parse_reviews("\n".join(twin) + "\n", "jsonl")
    assert from_csv[0] == from_jsonl[0]
    assert from_csv[0].raw_rating.tolist() == [4, 4]
    assert [(r.line_no - 1, r.reason.split(":")[0]) for r in from_csv[1]] == [
        (r.line_no, r.reason.split(":")[0]) for r in from_jsonl[1]]
    assert [r.reason for r in from_csv[1] if r.line_no in (6, 7, 8, 9, 13, 14, 15)] == [
        f"bad-rating: {text!r} is not an integer" for text in ("+4", "٤", "４", "0_4", "04", "-04", "00")]


@settings(max_examples=150)
@given(
    st.lists(st.tuples(st.sampled_from(["r0", "r1", "r2", "é"]), st.sampled_from(["store", "web"]), st.booleans()),
             max_size=24),
    st.sampled_from(["jsonl", "csv"]),
    st.sampled_from(["one hash", "three hashes"]),
    st.sampled_from([1, 7, 1 << 16]),
)
def test_parse_duplicates_agree_with_the_per_row_oracle_under_colliding_hashes(rows, fmt, hashing, block) -> None:
    # Equal ids within and across sources, across blocks and reads down to
    # one; some rows fail the scale first, so they are no first occurrence.
    # The fake hashes make rows with different keys share a hash, so only
    # the key compare tells them apart.
    fake = {"one hash": lambda key: 0, "three hashes": lambda key: hash(key) % 3}[hashing]
    at = datetime(2024, 3, 1, 12, tzinfo=timezone.utc)
    reviews = [Review(review_id, "appA", at, 4 if in_scale else 9, f"body {i}", source)
               for i, (review_id, source, in_scale) in enumerate(rows)]
    text = serialize_reviews(table_of(reviews), fmt)
    with mock.patch.object(ingest, "hash", fake, create=True), mock.patch.multiple(
        ingest, _BLOCK_CHARS=block, _BLOCK_RECORDS=block, _READ_BYTES=block
    ):
        got = parse_reviews(text.encode("utf-8"), fmt)
    assert got == parse_reviews_by_row(text, fmt)


def _csv_ending_records_in(end: str) -> str:
    """A CSV whose records end in ``end``, less the last; quoted bodies keep
    their own line breaks, and lines 11 to 13 are rejects."""
    at = datetime(2024, 3, 1, 12, tzinfo=timezone.utc)
    bodies = ["fine", "two\r\nlines", "a\nb", "c\rd", "é😀", "x" * 50]
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(REVIEW_FIELDS)
    writer.writerows((f"r{i}", "appA", "2024-03-01T12:00:00Z", 4, body, "store") for i, body in enumerate(bodies))
    writer.writerows([("bad", "row"), ("r0", "appA", "2024-03-01T12:00:00Z", 4, "again", "store")])
    writer.writerow(("r9", "appA", "2024-03-01T12:00:00Z", "four", "x", "store"))
    writer.writerow(("r7", "appB", at.isoformat(), 5, "last", "web"))
    return end.join(line[:-1] for line in lines)


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_csv_records_ending_in_cr_or_crlf_parse_as_lf_ones(end: str) -> None:
    lf = parse_reviews(_csv_ending_records_in("\n"), "csv")
    assert len(lf[0]) == 7
    assert [(r.line_no, r.reason.split(":")[0]) for r in lf[1]] == [(11, "bad-row"), (12, "duplicate"), (13, "bad-rating")]
    text = _csv_ending_records_in(end)
    assert parse_reviews(text, "csv") == lf
    for read_bytes in [*range(1, 6), 64]:
        for block_chars in (1, 8, 1 << 16):
            assert _streamed(text, "csv", read_bytes, block_chars) == lf, (read_bytes, block_chars)


def test_a_crlf_split_between_pieces_is_one_line() -> None:
    text = _csv_ending_records_in("\r\n")
    whole = parse_reviews(text, "csv")
    cuts = [i + 1 for i in range(len(text)) if text.startswith("\r\n", i)]
    assert len(cuts) > 10
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1):
        for cut in cuts:
            assert parse_reviews(iter([text[:cut], text[cut:]]), "csv") == whole, cut


def test_a_csv_of_bare_cr_records_is_read_in_blocks(tmp_path) -> None:
    # Records that end in "\r" alone end blocks as "\n" ones do, so the
    # file's whole text is never held: both files peak alike.
    from reviewpulse.config import MarketConfig
    from reviewpulse.pipeline import read_review_files

    at = datetime(2024, 3, 1, tzinfo=timezone.utc)
    reviews = [Review(f"r{i}", f"app{i % 7}", at, 4, f"Review {i} says the update is fine.", "store") for i in range(20_000)]
    text = serialize_reviews(table_of(reviews), "csv")

    def peak(end: str) -> int:
        path = tmp_path / f"reviews{len(end)}.csv"
        path.write_text(text.replace("\n", end), encoding="utf-8", newline="")
        tracemalloc.start()
        try:
            assert len(read_review_files([path], "csv", MarketConfig())[0]) == 20_000
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak("\r") - peak("\n")) <= 2**20


def test_rejects_jsonl_shape() -> None:
    text = rejects_to_jsonl([Reject(3, "bad-rating: 'x' is not an integer")])
    entry = json.loads(text)
    assert entry == {"line_no": 3, "reason": "bad-rating: 'x' is not an integer"}


def _review_at(app_id: str, i: int, year: int, month: int, day: int) -> Review:
    return Review(
        review_id=f"{app_id}-{i}",
        app_id=app_id,
        timestamp=datetime(year, month, day, 12, tzinfo=timezone.utc),
        raw_rating=4,
        body="ok.",
        source="store",
    )


def test_zero_reviews_empty_catalog() -> None:
    catalog = build_catalog(table_of([]))
    assert catalog.apps == ()
    assert len(all_reviews(catalog)) == 0
    assert catalog_summary(catalog)["apps"] == {}


def test_insufficient_flag_single_app() -> None:
    # 12 reviews inside one calendar month against a floor of 20/month.
    reviews = [_review_at("appA", i, 2024, 2, 1 + i) for i in range(12)]
    catalog = build_catalog(table_of(reviews), monthly_floor=20.0)
    cov = catalog.coverage["appA"]
    assert cov.total == 12 and cov.months_spanned == 1
    assert cov.insufficient
    assert catalog.insufficient_apps() == ("appA",)


def test_coverage_flags_match_brute_force_monthly_average() -> None:
    rng = random.Random(7)
    reviews: list[Review] = []
    per_app: dict[str, list[Review]] = {}
    for a in range(10):
        app_id = f"app{a:02d}"
        n = rng.choice([3, 5, 12, 19, 20, 21, 40, 60, 100, 250])
        span_months = rng.randrange(1, 14)
        app_reviews = []
        for i in range(n):
            month_off = rng.randrange(span_months)
            year, month = 2023 + (2 + month_off) // 12, 1 + (2 + month_off) % 12
            app_reviews.append(_review_at(app_id, i, year, month, rng.randrange(1, 28)))
        per_app[app_id] = app_reviews
        reviews.extend(app_reviews)
    rng.shuffle(reviews)

    catalog = build_catalog(table_of(reviews), monthly_floor=20.0)
    for app_id, app_reviews in per_app.items():
        # Brute force: calendar months spanned, inclusive of both ends.
        stamps = sorted(r.timestamp for r in app_reviews)
        first, last = stamps[0], stamps[-1]
        months = (last.year - first.year) * 12 + (last.month - first.month) + 1
        mean = len(app_reviews) / months
        cov = catalog.coverage[app_id]
        assert cov.total == len(app_reviews)
        assert cov.months_spanned == months
        assert cov.monthly_mean == pytest.approx(mean)
        assert cov.insufficient == (mean < 20.0)


def test_catalog_orders_reviews_canonically() -> None:
    reviews = [
        _review_at("appB", 2, 2024, 1, 9),
        _review_at("appA", 1, 2024, 1, 5),
        _review_at("appA", 0, 2024, 1, 5),
        _review_at("appB", 3, 2024, 1, 2),
    ]
    catalog = build_catalog(table_of(reviews))
    assert catalog.apps == ("appA", "appB")
    assert [r.review_id for r in catalog.reviews["appA"]] == ["appA-0", "appA-1"]
    assert [r.review_id for r in catalog.reviews["appB"]] == ["appB-3", "appB-2"]


def test_monthly_counts_match_per_review_month_oracle() -> None:
    from datetime import timedelta

    rng = random.Random(31)
    zones = [timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(hours=13))]
    base = datetime(2023, 11, 30, 20, tzinfo=timezone.utc)
    reviews = [
        Review(f"r{i}", "appA", (base + timedelta(hours=rng.randrange(0, 24 * 120))).astimezone(rng.choice(zones)),
               3, "Fine.", "store")
        for i in range(500)
    ]
    cov = build_catalog(table_of(reviews)).coverage["appA"]
    want: dict[str, int] = {}
    for r in reviews:
        ts = r.timestamp.astimezone(timezone.utc)
        key = f"{ts.year:04d}-{ts.month:02d}"
        want[key] = want.get(key, 0) + 1
    assert dict(cov.monthly_counts) == dict(sorted(want.items()))
    assert list(cov.monthly_counts) == sorted(want)


# The one date form every reader takes, and forms that Python 3.11's
# date.fromisoformat also takes (the first two; 3.10's refuses them) or
# that no version takes.
_DATE_FORMS = [("2024-01-04", True), ("20240104", False), ("2024-W01-4", False), ("2024-1-4", False),
               ("2024-01-04T00:00", False), ("\u0662\u0660\u0662\u0664-\u0660\u0661-\u0660\u0664", False)]


def _read_day_sums(text: str) -> object:
    return read_day_sums_csv(f"app_id,t0,reviews,rating,polarity,sentences\na,{text},1,4,2,1\n")


def _read_ce(text: str) -> object:
    day = date(2024, 1, 4)
    event = EventRecord("a", MetricKind.COUNT, TimeWindow(day, 7), 1, 3.0, 1.0, 2.0, 4, False)
    ce = CorrelatedEventRecord("a", "b", MetricKind.COUNT, TimeWindow(day, 7), 1, event, replace(event, app_id="b"),
                               CorrelationRun("a", "b", MetricKind.COUNT, 1, day, day + timedelta(days=7)),
                               TimeWindow(day, 7))
    return ce_records_from_json(ce_records_to_json([ce]).replace('"2024-01-04"', json.dumps(text)), 1)


def _read_scenario(text: str) -> object:
    return scenario_from_dict({"start": text, "n_windows": 1, "apps": []})


def _read_config(text: str) -> object:
    return apply_overrides(MarketConfig(), {"span_start": text})


@pytest.mark.parametrize("read", [_read_day_sums, _read_ce, _read_scenario, _read_config],
                         ids=["stage-csv", "correlated-events", "scenario", "config"])
@pytest.mark.parametrize("text, accepted", _DATE_FORMS, ids=[text for text, _ in _DATE_FORMS])
def test_every_date_reader_takes_only_yyyy_mm_dd(read, text: str, accepted: bool) -> None:
    if accepted:
        read(text)
        assert ingest.iso_date(text) == date(2024, 1, 4)
    else:
        with pytest.raises((ValueError, ConfigError)):
            read(text)
