"""Columnar reviews: the table against lists of ``Review``, the day cuts
against bisection over datetimes, and that a run or a write materialises
no row."""
from __future__ import annotations

import random
import tempfile
import tracemalloc
from bisect import bisect_left
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewpulse import ingest
from reviewpulse.cli import main
from reviewpulse.config import MarketConfig
from reviewpulse.ingest import Review, ReviewTable, ScaleMap, build_catalog, parse_reviews, serialize_reviews
from reviewpulse.metrics import MetricKind, day_sums, utc_midnights
from reviewpulse.pipeline import analyze_catalog, run_pipeline
from reviewpulse.synth import generate, spike_pair_scenario

from oracles import all_reviews, table_of

ZONES = [timezone.utc, timezone(timedelta(hours=-7)), timezone(timedelta(hours=5, minutes=45))]


def _reviews(n: int, seed: int = 3) -> list[Review]:
    rng = random.Random(seed)
    base = datetime(2023, 12, 31, 23, tzinfo=timezone.utc)
    return [
        Review(
            review_id=f"r{i}",
            app_id=rng.choice(["appA", "appB"]),
            timestamp=(base + timedelta(microseconds=rng.randrange(0, 3 * 86_400_000_000))).astimezone(rng.choice(ZONES)),
            raw_rating=rng.randrange(1, 6),
            body=rng.choice(["Fine.", "", "two\nlines", "é\r"]),
            source=rng.choice(["store", "web"]),
        )
        for i in range(n)
    ]


def test_table_round_trips_a_list_of_reviews() -> None:
    reviews = _reviews(200)
    table = table_of(reviews)
    assert len(table) == 200
    assert list(table) == reviews
    assert table == table_of(list(table))
    assert table != table_of(reviews[:-1]) and table != table_of(reviews[::-1]) and table != reviews
    assert table_of([]) == ReviewTable.concat([]) and len(ReviewTable.concat([])) == 0
    assert ReviewTable.concat([table[:50], table[50:]]) == table


def test_non_utc_timestamps_come_back_as_the_same_instant_in_utc() -> None:
    aware = datetime(2024, 3, 1, 1, 30, 0, 7, tzinfo=timezone(timedelta(hours=9)))
    table = table_of([Review("r1", "appA", aware, 4, "Fine.", "store")])
    back = next(iter(table)).timestamp
    assert back == aware
    assert back.tzinfo is timezone.utc
    assert back.isoformat() == "2024-02-29T16:30:00.000007+00:00"


def test_naive_timestamp_is_refused() -> None:
    naive = Review("r1", "appA", datetime(2024, 3, 1, 12), 4, "Fine.", "store")
    with pytest.raises(ValueError, match="naive"):
        table_of([naive])


def test_slices_and_indices_behave_as_on_a_list() -> None:
    reviews = _reviews(23)
    table = table_of(reviews)
    bounds = [None, -30, -23, -5, -1, 0, 1, 7, 22, 23, 40]
    for start in bounds:
        for stop in bounds:
            for step in (None, 1, 2, 5, -1, -3):
                part = table[start:stop:step]
                assert isinstance(part, ReviewTable)
                assert list(part) == reviews[start:stop:step], (start, stop, step)
    for rows in ([], [5, 5, 0], [-1, -23, 22], list(range(22, -1, -1)), [3, -20, 3, -1, 0]):
        part = table[np.array(rows, dtype=np.intp)]
        assert isinstance(part, ReviewTable)
        assert list(part) == [reviews[i] for i in rows], rows
    for rows in ([-24], [0, 23]):
        with pytest.raises(IndexError):
            table[np.array(rows)]
    with pytest.raises(TypeError):
        table[0]  # a row is no table: iterate for Review objects
    with pytest.raises(AttributeError):
        table.stamp_us = np.zeros(23, dtype=np.int64)
    with pytest.raises(ValueError):
        table.stamp_us[0] = 0


def test_catalog_breaks_stamp_ties_by_review_id_as_python_sorts_them() -> None:
    # Ids that are prefixes of others, end in NULs or leave ASCII share one
    # stamp, listed against their order; random ids tie on a few stamps.
    rng = random.Random(11)
    base = datetime(2024, 5, 1, tzinfo=timezone.utc)
    odd = ["a", "a\x00", "a\x00\x00", "a\x01", "ab", "b", "é", "\U0001f600", "a-w001-00001", "a-w001-0001"]
    reviews = [Review(rid, "appA", base, 3, "Fine.", "store") for rid in sorted(odd, reverse=True)]
    reviews += [
        Review(f"r{i}", rng.choice(["appA", "appB"]), base + timedelta(seconds=rng.randrange(4)), 3, "Fine.", "store")
        for i in rng.sample(range(300), 300)
    ]
    catalog = build_catalog(table_of(reviews))
    for app in catalog.apps:
        want = sorted((r for r in reviews if r.app_id == app), key=lambda r: (r.timestamp, r.review_id))
        assert list(catalog.reviews[app]) == want


def test_catalog_keeps_the_first_of_each_source_and_review_id() -> None:
    rng = random.Random(13)
    base = datetime(2024, 5, 1, tzinfo=timezone.utc)
    reviews = [
        Review(f"r{rng.randrange(40)}", rng.choice(["appA", "appB"]), base + timedelta(hours=rng.randrange(2000)),
               rng.randrange(1, 6), f"body {i}.", rng.choice(["store", "web"]))
        for i in range(300)
    ]
    first: dict[tuple[str, str], Review] = {}
    for r in reviews:
        first.setdefault((r.source, r.review_id), r)
    catalog = build_catalog(ReviewTable.concat([table_of(reviews[:100]), table_of(reviews[100:])]))
    assert catalog.duplicates_dropped == len(reviews) - len(first)
    kept = list(all_reviews(catalog))
    assert sorted(kept, key=lambda r: (r.source, r.review_id)) == sorted(first.values(), key=lambda r: (r.source, r.review_id))


# Ids for forced ties: ASCII (NUL included), prefixes of one another,
# non-ASCII and astral code points, and lone surrogates.
_TIE_IDS = st.one_of(
    st.text(st.characters(max_codepoint=0x7F), max_size=5),
    st.sampled_from(["app1", "app10", "app1-", "app", "a\x00", "a\x00\x00", "a\x01", "é", "\U0001f600", "\ud800", "a\udfff"]),
    st.text(max_size=3),
    st.text(st.characters(codec=None, categories=["Cs", "Ll"]), max_size=3),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _TIE_IDS), max_size=30), st.booleans())
def test_canonical_order_with_ties_equals_python_sorted(rows: list[tuple[int, int, str]], grouped: bool) -> None:
    groups = np.array([g for g, _, _ in rows], dtype=np.intp)
    stamps = np.array([stamp for _, stamp, _ in rows], dtype=np.int64)
    ids = np.empty(len(rows), dtype=object)
    ids[:] = [review_id for _, _, review_id in rows]
    order = ingest.canonical_order(stamps, ids, groups if grouped else None)
    key = (lambda i: rows[i]) if grouped else (lambda i: rows[i][1:])
    assert order.tolist() == sorted(range(len(rows)), key=key)


def _first_occurrence_catalog(reviews: list[Review]) -> dict[str, list[Review]]:
    """Each app's reviews, first of each (source, review_id) only, in (timestamp, review_id) order: row by row."""
    first: dict[tuple[str, str], Review] = {}
    for review in reviews:
        first.setdefault((review.source, review.review_id), review)
    kept = [review for review in reviews if first[(review.source, review.review_id)] is review]
    return {
        app: sorted((r for r in kept if r.app_id == app), key=lambda r: (r.timestamp, r.review_id))
        for app in sorted({r.app_id for r in kept})
    }


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from(["r0", "r1", "r10", "é", "r0\x00"]), st.sampled_from(["store", "web"]),
                  st.sampled_from(["appA", "appB"]), st.integers(0, 3)),
        max_size=30,
    ),
    st.booleans(),
    st.sampled_from(["hash", "one hash", "three hashes"]),
)
def test_catalog_keeps_first_occurrences_as_a_per_row_oracle(rows, one_source: bool, hashing: str) -> None:
    # Equal ids within and across sources; the fake hashes make rows with
    # different keys share a hash, so only the key compare tells them apart.
    fake = {"hash": hash, "one hash": lambda key: 0, "three hashes": lambda key: hash(key) % 3}[hashing]
    base = datetime(2024, 5, 1, tzinfo=timezone.utc)
    reviews = [
        Review(review_id, app_id, base + timedelta(hours=hour), 3, f"body {i}.", "store" if one_source else source)
        for i, (review_id, source, app_id, hour) in enumerate(rows)
    ]
    with mock.patch.object(ingest, "hash", fake, create=True):
        catalog = build_catalog(table_of(reviews))
    want = _first_occurrence_catalog(reviews)
    assert catalog.apps == tuple(want)
    assert {app: list(catalog.reviews[app]) for app in catalog.apps} == want
    assert catalog.duplicates_dropped == len(reviews) - sum(map(len, want.values()))


def _traced_peak_above_result(call):
    """``call()``'s result and how far tracemalloc's peak during the call rose above what the result holds."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - held
    finally:
        tracemalloc.stop()


def test_generate_peaks_near_the_table_it_returns() -> None:
    # A spike-pair market (~21k reviews, 80% of them stamp ties): synth
    # frees its row lists before the sort, and tied ids sort as bytes.
    generate(spike_pair_scenario(seed=1, n_apps=3, n_windows=4, spike_window=1))  # warm-up
    (table, _), over = _traced_peak_above_result(lambda: generate(spike_pair_scenario(seed=0)))
    assert len(table) > 20_000
    assert over <= 2 * 2**20


def test_catalog_peaks_near_its_input_and_output() -> None:
    # The input table is built before tracing starts, so the traced peak
    # above the catalog is the catalog's working memory: duplicates are
    # found from an int64 array of key hashes, not from a set of every key.
    build_catalog(generate(spike_pair_scenario(seed=1, n_apps=3, n_windows=4, spike_window=1))[0])  # warm-up
    table, _ = generate(spike_pair_scenario(seed=0))
    catalog, over = _traced_peak_above_result(lambda: build_catalog(table))
    assert catalog.duplicates_dropped == 0 and len(all_reviews(catalog)) == len(table)
    assert over <= 1 * 2**20


def _table(stamps_us: list[int]) -> ReviewTable:
    n = len(stamps_us)
    return ReviewTable([f"r{i:07d}" for i in range(n)], ["appA"] * n, stamps_us, [4] * n, ["Fine."] * n, ["store"] * n)


def _assert_cuts_match_bisect(stamps_us: list[int], start: date, n_days: int) -> None:
    stamps_us = sorted(stamps_us)
    table = _table(stamps_us)
    stamps = [datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=s) for s in stamps_us]
    midnights = [datetime.combine(start, datetime.min.time(), tzinfo=timezone.utc) + timedelta(days=d)
                 for d in range(n_days + 1)]
    days = day_sums(table, utc_midnights(start, n_days), (MetricKind.COUNT,), ScaleMap())
    assert days.start == start
    before = bisect_left(stamps, midnights[0])
    assert days.reviews.tolist() == [bisect_left(stamps, m) - before for m in midnights]


def test_day_cuts_match_bisection_at_and_around_midnight() -> None:
    start = date(2024, 2, 27)
    day_us = 86_400_000_000
    first = (start - date(1970, 1, 1)).days * day_us
    stamps = []
    for d in range(-1, 6):
        midnight = first + d * day_us
        stamps += [midnight, midnight, midnight - 1, midnight + 1, midnight + day_us // 2 + 123_457]
    _assert_cuts_match_bisect(stamps, start, 4)


def test_day_cuts_match_bisection_over_four_years_of_heavy_days() -> None:
    rng = random.Random(5)
    start = date(2021, 1, 1)
    n_days = 4 * 365 + 1
    day_us = 86_400_000_000
    first = (start - date(1970, 1, 1)).days * day_us
    stamps = [first + rng.randrange(-day_us, (n_days + 1) * day_us) for _ in range(5000)]
    for d in rng.sample(range(n_days), 12):  # thousands of reviews on a few days
        stamps += [first + d * day_us + rng.randrange(day_us) for _ in range(3000)]
    _assert_cuts_match_bisect(stamps, start, n_days)


def _reviews_built(monkeypatch) -> list[str]:
    """The ids of the rows that ``ingest._make_review`` turns into a ``Review`` from now on."""
    built = []
    make = ingest._make_review

    def counting(*row):
        built.append(row[0])
        return make(*row)

    monkeypatch.setattr(ingest, "_make_review", counting)
    return built


def test_a_run_builds_no_review_objects(monkeypatch) -> None:
    # Rows stay columns from parse to bundle: the counts-only sweep market
    # and a full analysis, where polarity is scored and CE windows feed
    # summary requests, never turn a table row into a Review.
    built = _reviews_built(monkeypatch)
    reviews, _ = generate(spike_pair_scenario(seed=0))
    catalog = build_catalog(reviews)
    counts = analyze_catalog(MarketConfig(seed=0), catalog, metrics=(MetricKind.COUNT,))
    full = analyze_catalog(MarketConfig(seed=0), catalog)
    assert counts.requests and full.requests
    assert MetricKind.POLARITY in {metric for _, metric in full.daily_stats}
    assert built == []


def test_writing_reviews_builds_no_review_objects(monkeypatch, tmp_path) -> None:
    # serialize_reviews formats the columns, in both formats, and synth
    # writes its market through it.
    built = _reviews_built(monkeypatch)
    table, _ = generate(spike_pair_scenario(seed=2, n_apps=3, n_windows=12, spike_window=6))
    for fmt in ("jsonl", "csv"):
        assert parse_reviews(serialize_reviews(table, fmt), fmt) == (table, [])
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "reviews.jsonl").stat().st_size > 0
    assert built == []


def _bundle(inputs: list[Path], out: Path) -> dict[str, bytes]:
    files = run_pipeline(MarketConfig(seed=4), inputs, out).files
    return {name: (out / name).read_bytes() for name in files}


_MARKET = serialize_reviews(
    generate(spike_pair_scenario(seed=2, n_apps=3, n_windows=12, spike_window=6))[0]
).splitlines(keepends=True)


@settings(max_examples=12)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_bundle_ignores_line_order_and_file_split(seed: int, n_files: int) -> None:
    rnd = random.Random(seed)
    lines = list(_MARKET)
    rnd.shuffle(lines)
    cuts = sorted(rnd.randrange(len(lines) + 1) for _ in range(n_files - 1))
    parts = [lines[a:b] for a, b in zip([0, *cuts], [*cuts, len(lines)])]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        whole = root / "whole.jsonl"
        whole.write_text("".join(_MARKET), encoding="utf-8")
        inputs = []
        for k, part in enumerate(parts):
            inputs.append(root / f"part{k}.jsonl")
            inputs[-1].write_text("".join(part), encoding="utf-8")
        assert _bundle(inputs, root / "split") == _bundle([whole], root / "whole")
