"""Window metrics: rating normalisation, window grids, averages, deltas."""
from __future__ import annotations

import csv
import io
import itertools
import math
import random
import stat
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewpulse.correlate import (
    CORRELATIONS_CSV_COLUMNS,
    CorrelationRun,
    read_correlations_csv,
    write_correlations_csv,
)
from reviewpulse.config import MarketConfig
from reviewpulse.detect import EVENTS_CSV_COLUMNS, detect_series, read_events_csv, write_events_csv
from reviewpulse.ingest import RatingScale, Review, ScaleMap, build_catalog
from reviewpulse.metrics import (
    DAY_SUMS_CSV_COLUMNS,
    DaySums,
    MetricKind,
    SeriesStats,
    TimeWindow,
    WindowStat,
    day_sums,
    metric_delta,
    normalize_rating,
    read_day_sums_csv,
    score_bodies,
    score_review,
    utc_midnights,
    window_series,
    window_stats,
    write_day_sums_csv,
    write_metrics_csv,
)
from reviewpulse.pipeline import aggregate, write_file
from reviewpulse.sentiment import LexiconScorer
from reviewpulse.synth import default_scenario, generate, spike_pair_scenario

from oracles import SentenceScorer, metric_mu, scored_reviews, table_of, window_contains


def _review(i: int, ts: datetime, rating: int = 4, body: str = "ok.", app: str = "appA") -> Review:
    return Review(f"r{i}", app, ts, rating, body, "store")


def _scored(reviews: list[Review]):
    return scored_reviews(reviews, SentenceScorer())


def test_normalize_scale_endpoints() -> None:
    five = RatingScale(1, 5)
    assert normalize_rating(1, five) == 0
    assert normalize_rating(5, five) == 4
    assert normalize_rating(7, RatingScale(0, 10)) == 3


def test_normalize_matches_nearest_bin_table() -> None:
    # Oracle: the nearest of the five evenly spaced bins, ties upward.
    for scale in (RatingScale(1, 5), RatingScale(0, 10), RatingScale(1, 10), RatingScale(0, 100)):
        span = scale.hi - scale.lo
        for raw in range(scale.lo, scale.hi + 1):
            x = (raw - scale.lo) / span
            best = min(range(5), key=lambda b: (abs(x - b / 4), -b))
            assert normalize_rating(raw, scale) == best, (scale, raw)


def test_normalize_rejects_out_of_scale() -> None:
    with pytest.raises(ValueError):
        normalize_rating(6, RatingScale(1, 5))


def test_window_series_short_span_empty() -> None:
    assert window_series(date(2024, 1, 1), date(2024, 1, 6), 7) == []


def test_window_series_year_span() -> None:
    start = date(2023, 1, 1)
    windows = window_series(start, start + timedelta(days=365), 7)
    assert len(windows) == 52  # the 365th day is dropped, not emitted short
    # Oracle: enumerate starts by date arithmetic.
    assert [w.start for w in windows] == [start + timedelta(days=7 * i) for i in range(52)]
    assert all(w.end - w.start == timedelta(days=7) for w in windows)


def test_window_series_52_weeks() -> None:
    start = date(2024, 1, 4)
    windows = window_series(start, start + timedelta(weeks=52), 7)
    assert len(windows) == 52


def test_window_membership_is_utc_half_open() -> None:
    w = TimeWindow(date(2024, 1, 8), 7)
    assert window_contains(w, datetime(2024, 1, 8, 0, 0, tzinfo=timezone.utc))
    assert not window_contains(w, datetime(2024, 1, 15, 0, 0, tzinfo=timezone.utc))
    # 23:30 UTC-3 on the 14th is 02:30 UTC on the 15th: outside.
    eastern = timezone(timedelta(hours=-3))
    assert not window_contains(w, datetime(2024, 1, 14, 23, 30, tzinfo=eastern))


def test_empty_window_aggregates() -> None:
    assert metric_mu([], MetricKind.COUNT) == 0.0
    assert metric_mu([], MetricKind.RATING) is None
    assert metric_mu([], MetricKind.POLARITY) is None


def test_single_review_rating_mean() -> None:
    scored = _scored([_review(0, datetime(2024, 1, 4, tzinfo=timezone.utc), rating=4)])
    assert metric_mu(scored, MetricKind.RATING) == 3.0


def test_rating_mean_matches_naive_summation() -> None:
    rng = random.Random(11)
    base = datetime(2024, 1, 4, tzinfo=timezone.utc)
    reviews = [
        _review(i, base + timedelta(hours=i), rating=rng.randrange(1, 6)) for i in range(200)
    ]
    scored = _scored(reviews)
    mu = metric_mu(scored, MetricKind.RATING)
    # Oracle: independent affine map and plain summation.
    total = sum(int((r.raw_rating - 1) * 4 / 4 + 0.5) for r in reviews)
    assert mu == pytest.approx(total / 200, abs=1e-12)


def test_polarity_mean_is_flat_over_sentences() -> None:
    base = datetime(2024, 1, 4, tzinfo=timezone.utc)
    # Two sentences (4, 0) in one review plus one sentence (2) in another:
    # flat mean is (4+0+2)/3, not the mean of review means.
    scored = _scored([
        _review(0, base, body="excellent, love it! terrible crash."),
        _review(1, base, body="the app."),
    ])
    assert metric_mu(scored, MetricKind.POLARITY) == pytest.approx(6 / 3)


def _stat(i: int, mu: float | None, start: date = date(2024, 1, 4)) -> WindowStat:
    return WindowStat(
        app_id="appA",
        metric=MetricKind.COUNT,
        window=TimeWindow(start + timedelta(days=7 * i), 7),
        mu=mu,
        delta=None,
        n_obs=0 if mu is None else int(mu),
    )


def test_delta_simple_subtraction() -> None:
    stats = metric_delta([_stat(0, 10.0), _stat(1, 50.0)])
    assert stats[0].delta is None
    assert stats[1].delta == 40.0


def test_delta_constant_series_zero() -> None:
    stats = metric_delta([_stat(i, 3.0) for i in range(6)])
    assert [s.delta for s in stats] == [None, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_delta_matches_pairwise_difference_oracle() -> None:
    rng = random.Random(3)
    mus: list[float | None] = [rng.uniform(0, 100) for _ in range(52)]
    for hole in (0, 17, 33):
        mus[hole] = None
    stats = metric_delta([_stat(i, mu) for i, mu in enumerate(mus)])
    for i, stat in enumerate(stats):
        if i == 0 or mus[i] is None or mus[i - 1] is None:
            assert stat.delta is None
        else:
            assert stat.delta == mus[i] - mus[i - 1]


def test_delta_requires_contiguous_grid() -> None:
    gapped = [_stat(0, 1.0), _stat(2, 2.0)]
    with pytest.raises(ValueError):
        metric_delta(gapped)


def test_window_stats_buckets_by_window() -> None:
    start = date(2024, 1, 4)
    base = datetime(2024, 1, 4, tzinfo=timezone.utc)
    reviews = [
        _review(0, base + timedelta(days=1), rating=5),
        _review(1, base + timedelta(days=6, hours=23), rating=1),
        _review(2, base + timedelta(days=7), rating=3),
        _review(3, base - timedelta(seconds=1), rating=4),  # before the grid
    ]
    reviews.sort(key=lambda r: r.timestamp)
    metrics = (MetricKind.COUNT, MetricKind.RATING)
    days = day_sums(table_of(reviews), utc_midnights(start, 14), metrics, ScaleMap())
    windows = window_series(start, start + timedelta(days=14), 7)
    stats = window_stats("appA", days, windows, MetricKind.COUNT)
    assert stats.mu.tolist() == [2.0, 1.0]
    assert stats.n_obs.tolist() == [2, 1]
    assert stats.windows is windows
    rstats = window_stats("appA", days, windows, MetricKind.RATING)
    assert rstats.mu.tolist() == pytest.approx([(4 + 0) / 2, 2.0])
    assert [s.delta for s in rstats.records()] == [None, 0.0]


def _series(app: str, mus: list[float | None], windows: list[TimeWindow]) -> SeriesStats:
    mu = np.array([math.nan if m is None else m for m in mus])
    return SeriesStats(app, MetricKind.COUNT, windows, mu, np.diff(mu, prepend=math.nan),
                       np.array([0 if m is None else 1 for m in mus]))


def test_day_sums_match_per_review_bucketing_oracle() -> None:
    # Oracle: bucket each review by its own UTC day, then average in plain
    # Python. Offsets, polarity mixes and reviews outside the grid included.
    rng = random.Random(21)
    start = date(2024, 1, 4)
    zones = [timezone.utc, timezone(timedelta(hours=-3)), timezone(timedelta(hours=9, minutes=30))]
    bodies = ["excellent app.", "terrible crash. the menu.", "the app.", "good screen. slow update!", ""]
    base = datetime(2024, 1, 4, tzinfo=timezone.utc)
    reviews = [
        _review(i, (base + timedelta(seconds=rng.randrange(-2 * 86400, 30 * 86400))).astimezone(rng.choice(zones)),
                rating=rng.randrange(1, 6), body=rng.choice(bodies))
        for i in range(400)
    ]
    reviews.sort(key=lambda r: (r.timestamp, r.review_id))
    scored = _scored(reviews)
    by_id = {s.review.review_id: s for s in scored}
    all_metrics = (MetricKind.COUNT, MetricKind.RATING, MetricKind.POLARITY)
    bins = score_bodies([r.body for r in reviews], LexiconScorer())
    days = day_sums(table_of(reviews), utc_midnights(start, 28), all_metrics, ScaleMap(), bins)
    for width in (1, 7):
        windows = window_series(start, start + timedelta(days=28), width)
        for metric in all_metrics:
            got = window_stats("appA", days, windows, metric).records()
            prev = None
            for stat, window in zip(got, windows, strict=True):
                inside = [
                    by_id[r.review_id] for r in reviews
                    if window.start <= r.timestamp.astimezone(timezone.utc).date() < window.end
                ]
                assert stat.mu == metric_mu(inside, metric)
                assert stat.delta == (None if stat.mu is None or prev is None else stat.mu - prev)
                prev = stat.mu


@pytest.mark.parametrize("block", [1024, 2], ids=["one-block", "blocks-of-2"])
def test_polarity_day_sums_of_repeated_bodies_match_per_review_oracle(monkeypatch, block: int) -> None:
    # Bodies repeat within each app and across the apps, whose rows are
    # scored by one score_bodies call, as aggregate scores them, and whose
    # day sums each read their app's rows of it; the oracle scores every
    # review on its own.
    monkeypatch.setattr("reviewpulse.metrics.SCORE_BLOCK", block)
    rng = random.Random(33)
    start = date(2024, 1, 4)
    base = datetime(2024, 1, 4, tzinfo=timezone.utc)
    pool = ["excellent app. not good!", "", " \n ", "terrible crash.\nthe menu", "never slow? ok", "good. good."]
    apps = [
        sorted(
            (_review(i, base + timedelta(seconds=rng.randrange(14 * 86400)), body=rng.choice(pool), app=app)
             for i in range(60)),
            key=lambda r: (r.timestamp, r.review_id),
        )
        for app in ("appA", "appB", "appC")
    ]
    bins = score_bodies([r.body for reviews in apps for r in reviews], LexiconScorer())
    for at, reviews in zip(range(0, 180, 60), apps):
        days = day_sums(table_of(reviews), utc_midnights(start, 14), (MetricKind.POLARITY,), ScaleMap(), bins[at : at + 60])
        polarity, sentences = [0] * 15, [0] * 15
        for s in _scored(reviews):
            day = (s.review.timestamp.date() - start).days
            polarity[day + 1] += sum(x.polarity for x in s.sentences)
            sentences[day + 1] += len(s.sentences)
        assert days.polarity.tolist() == list(itertools.accumulate(polarity))
        assert days.sentences.tolist() == list(itertools.accumulate(sentences))
    assert len(bins.first) == len(pool) + 1


def test_aggregate_of_unique_bodies_holds_little_above_its_result() -> None:
    # Four apps of unique 3-sentence bodies, built as the desk benchmark
    # builds its market: 5,311 reviews. With the sentence bins as columns
    # (one code per row) and the kernel's blocks bounded by body text,
    # aggregate's peak stays about 0.41 MiB above what it returns; a memo of
    # one bytes per body, scored in blocks of 1,024 bodies, peaked 1.42 MiB
    # above it here.
    scenario = default_scenario(n_apps=4, n_windows=26, rate=50.0, seed=0)
    scenario = replace(scenario, apps=tuple(replace(a, sentences_per_review=3) for a in scenario.apps))
    catalog = build_catalog(generate(scenario)[0])
    aggregate(MarketConfig(), catalog)  # numpy's and the lexicon's first-use loads
    tracemalloc.start()
    try:
        analysis = aggregate(MarketConfig(), catalog)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bins = [analysis.body_bins[app] for app in analysis.apps]
    assert all(b.first is bins[0].first for b in bins)
    assert sum(len(b.code) for b in bins) == len(bins[0].first) - 1 == 5311
    assert peak - kept < 0.75 * 2**20


def test_score_review_refuses_a_bin_count_other_than_the_sentence_count() -> None:
    body = "Great app. Crashes a lot!\nnot bad"
    assert score_review(body, [4, 0, 3]) == [(0, "Great app.", 4), (1, "Crashes a lot!", 0), (2, "not bad", 3)]
    for bins in ([4, 0], [4, 0, 3, 2], []):
        with pytest.raises(ValueError, match="sentence bins for a body of 3 sentences"):
            score_review(body, bins)
    assert score_review(" \n ", []) == []


def test_window_stats_refuse_windows_outside_the_day_sums() -> None:
    start = date(2024, 1, 4)
    days = day_sums(table_of([]), utc_midnights(start, 14), (MetricKind.COUNT,), ScaleMap())
    with pytest.raises(ValueError):
        window_stats("appA", days, window_series(start, start + timedelta(days=21), 7), MetricKind.COUNT)
    with pytest.raises(ValueError):
        window_stats("appA", days, window_series(start, start + timedelta(days=14), 7), MetricKind.RATING)


@st.composite
def _day_reviews(draw):
    """Per UTC day, each review's normalised rating and sentence polarities."""
    return draw(st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.lists(st.integers(0, 4), max_size=3)), max_size=4),
        min_size=1, max_size=30,
    ))


@given(_day_reviews(), st.integers(0, 6), st.integers(1, 8), st.sampled_from(list(MetricKind)))
def test_window_stats_match_per_window_means_and_round_trip(day_reviews, offset, width, metric) -> None:
    start = date(2024, 1, 4)

    def prefix(values: list[int]) -> np.ndarray:
        return np.array([0, *np.cumsum(values, dtype=np.int64)], dtype=np.int64)

    days = DaySums(
        start,
        prefix([len(day) for day in day_reviews]),
        prefix([sum(rating for rating, _ in day) for day in day_reviews]),
        prefix([sum(sum(pols) for _, pols in day) for day in day_reviews]),
        prefix([sum(len(pols) for _, pols in day) for day in day_reviews]),
    )
    grid_start = start + timedelta(days=min(offset, len(day_reviews)))
    windows = window_series(grid_start, start + timedelta(days=len(day_reviews)), width)
    series = window_stats("appA", days, windows, metric)

    # Oracle: bucket the reviews per window, average in plain Python, then metric_delta.
    oracle = []
    for window in windows:
        first = (window.start - start).days
        inside = [review for day in day_reviews[first : first + width] for review in day]
        if metric is MetricKind.COUNT:
            values = [1] * len(inside)
            mu = float(len(inside))
        else:
            values = [r for r, _ in inside] if metric is MetricKind.RATING else [p for _, ps in inside for p in ps]
            mu = sum(values) / len(values) if values else None
        oracle.append(WindowStat("appA", metric, window, mu, None, len(values)))
    assert series.records() == metric_delta(oracle)

    # The same series from the day sums read back from their CSV.
    back = read_day_sums_csv("".join(write_day_sums_csv({"appA": days})))
    assert window_stats("appA", back["appA"], windows, metric).records() == series.records()


def test_write_file_streams_its_chunks(tmp_path) -> None:
    # About 4 MB in 1,000 generated chunks: no more than a chunk or two may
    # be held at once.
    def chunks():
        for i in range(1000):
            yield f"{i:05d}" + "x" * 4090 + "\n"

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path = write_file(tmp_path, "big.txt", chunks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2**20
    assert path.read_bytes() == "".join(chunks()).encode("utf-8")


def test_write_file_leaves_the_earlier_file_when_a_chunk_fails(tmp_path) -> None:
    # The chunks go to a temporary file that replaces the report only after
    # the last one: a failure part-way leaves the earlier file as it was,
    # and no temporary file beside it.
    path = write_file(tmp_path, "report.csv", ["earlier\n"])

    def chunks():
        yield "x" * 100_000 + "\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        write_file(tmp_path, "report.csv", chunks())
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_write_file_replaces_a_link_by_a_file_with_the_mode_of_a_plain_open(tmp_path) -> None:
    # A report file that is a symbolic link is replaced, not written
    # through, and the new file has the mode a plain open gives it (not the
    # 0600 of a private temporary file).
    plain = tmp_path / "plain.txt"
    plain.write_text("plain\n", encoding="utf-8")
    target = tmp_path / "target.txt"
    target.write_text("target\n", encoding="utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.csv").symlink_to(target)
    path = write_file(tmp_path / "out", "report.csv", ["new\n"])
    assert not path.is_symlink() and path.read_bytes() == b"new\n"
    assert target.read_bytes() == b"target\n"
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_series_csv_files_hold_their_joined_chunks(tmp_path) -> None:
    # An app id holding "," and "\r" stays quoted across chunk boundaries,
    # as app_i and as app_j of a canonical pair.
    windows = window_series(date(2024, 1, 4), date(2024, 1, 25), 7)
    series = [_series("app,\rA", [10.0, None, 1 / 3], windows), _series("appB", [None, 2.0, 2.5], windows)]
    runs = [
        CorrelationRun(a, b, MetricKind.RATING, sign, windows[k].start, windows[k].end)
        for a, b in [("app,\rA", "appB"), ("app", "app\r,C")]
        for k, sign in [(0, 1), (2, -1)]
    ]
    days = np.array([0, 2, 5, 5], dtype=np.int64)
    sums = {app: DaySums(date(2024, 1, 4), days, days, 2 * days, days) for app in ("app,\rA", 'app"B')}
    events = [e for s in series for e in detect_series(s.records(), windows[0].start, k=2.0, min_baseline=1)]
    for name, write, rows in [("metrics.csv", write_metrics_csv, series),
                              ("correlations.csv", write_correlations_csv, runs),
                              ("day_sums.csv", write_day_sums_csv, sums),
                              ("events.csv", write_events_csv, events)]:
        chunks = list(write(rows))
        assert len(chunks) == 3  # the header, then one chunk per series, pair or app
        path = write_file(tmp_path, name, write(rows))
        assert path.read_bytes() == "".join(chunks).encode("utf-8")
    text = (tmp_path / "metrics.csv").read_bytes().decode("utf-8")
    assert [row[0] for row in csv.reader(io.StringIO(text))] == ["app_id", *(s.app_id for s in series for _ in windows)]
    assert list(read_day_sums_csv((tmp_path / "day_sums.csv").read_bytes().decode("utf-8"))) == list(sums)
    text = (tmp_path / "correlations.csv").read_bytes().decode("utf-8")
    assert read_correlations_csv(text, 7) == runs
    text = (tmp_path / "events.csv").read_bytes().decode("utf-8")
    assert read_events_csv(text, 7, k=2.0) == events


def _arrays(days: DaySums) -> list[np.ndarray]:
    return [days.reviews, days.rating, days.polarity, days.sentences]


@given(
    st.lists(st.text(st.sampled_from('ab,"\r\n '), min_size=1, max_size=5), min_size=1, max_size=4, unique=True),
    st.integers(0, 3000),
    st.integers(1, 12),
    st.data(),
)
def test_day_sums_csv_round_trip(apps, offset, n_days, data) -> None:
    # Totals reach 2**58 a day, so the running sums come near int64's top.
    # The rating totals, and the polarity and sentence totals together, may
    # not have been summed, for every app of the file alike; they come back
    # as None.
    start = date(2020, 1, 1) + timedelta(days=offset)
    totals = st.lists(st.integers(0, 2**58), min_size=n_days, max_size=n_days)
    rating, polarity = data.draw(st.booleans()), data.draw(st.booleans())
    sums = {
        app: DaySums(start, *(np.array([0, *np.cumsum(data.draw(totals))], dtype=np.int64) if summed else None
                              for summed in (True, rating, polarity, polarity)))
        for app in apps
    }
    back = read_day_sums_csv("".join(write_day_sums_csv(sums)))
    assert list(back) == apps
    for app, days in sums.items():
        assert back[app].start == start
        for got, want in zip(_arrays(back[app]), _arrays(days), strict=True):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got, want, strict=True)


def test_day_sums_csv_leaves_totals_not_summed_empty() -> None:
    # A count-only analysis has no rating or polarity totals to write. The
    # reader takes the columns empty on every row back as not summed, never
    # as zeros, and so holds the count metric alone.
    days = day_sums(table_of([]), utc_midnights(date(2024, 1, 4), 2), (MetricKind.COUNT,), ScaleMap())
    text = "".join(write_day_sums_csv({"appA": days}))
    assert text.splitlines()[1:] == ["appA,2024-01-04,0,,,", "appA,2024-01-05,0,,,"]
    back = read_day_sums_csv(text)["appA"]
    assert (back.rating, back.polarity, back.sentences) == (None, None, None)
    np.testing.assert_array_equal(back.reviews, days.reviews, strict=True)
    assert back.metrics == days.metrics == (MetricKind.COUNT,)


@pytest.mark.parametrize("row", ["a,2024-01-04,1,2,3,", "a,2024-01-04,1,2,,4"],
                         ids=["polarity-without-sentences", "sentences-without-polarity"])
def test_day_sums_csv_refuses_polarity_and_sentences_apart(row) -> None:
    # The polarity and sentence totals are summed together, so one is never
    # empty where the other is not. (A total empty on some rows only is a
    # case of the CLI's bad day sums test.)
    with pytest.raises(ValueError, match=r"day sums of \(a\), CSV line 2: .*polarity and sentences"):
        read_day_sums_csv(",".join(DAY_SUMS_CSV_COLUMNS) + "\n" + row + "\n")


# One row per stage CSV that holds the cell under test in one typed column;
# the row is otherwise valid, and its cell reads as 1 (or 1.5 in a float column).
_TYPED_CELL_ROWS = {
    "day-sums-total": ("day sums of (a)", lambda c: read_day_sums_csv(
        f"{','.join(DAY_SUMS_CSV_COLUMNS)}\na,2024-01-01,3,{c},0,0\n")["a"].rating[1]),
    "e": ("events of (a, count)", lambda c: read_events_csv(
        f"{','.join(EVENTS_CSV_COLUMNS)}\na,count,2024-01-04,{c},1.5,0.5,4,false\n", 7, k=2.0)[0].e),
    "baseline_n": ("events of (a, count)", lambda c: read_events_csv(
        f"{','.join(EVENTS_CSV_COLUMNS)}\na,count,2024-01-04,1,1.5,0.5,{c},false\n", 7, k=2.0)[0].baseline_n),
    "sign": ("correlations of (a, b, count)", lambda c: read_correlations_csv(
        f"{','.join(CORRELATIONS_CSV_COLUMNS)}\na,b,count,{c},2024-01-01,2024-01-02\n", 1)[0].sign),
    "a": ("events of (a, count)", lambda c: read_events_csv(
        f"{','.join(EVENTS_CSV_COLUMNS)}\na,count,2024-01-04,1,{c},0.5,4,false\n", 7, k=2.0)[0].a),
    "sigma": ("events of (a, count)", lambda c: read_events_csv(
        f"{','.join(EVENTS_CSV_COLUMNS)}\na,count,2024-01-04,1,1.5,{c},4,false\n", 7, k=2.0)[0].sigma),
}


@pytest.mark.parametrize("column", ["day-sums-total", "e", "baseline_n", "sign"])
@pytest.mark.parametrize(
    "cell, accepted",
    [("1", True), ("01", False), ("+1", False), (" 1", False), ("1 ", False), ("0_1", False),
     ("\u0661", False), ("\uff11", False), ("1.0", False)],
    ids=["plain", "leading-zero", "plus", "space-before", "space-after", "underscore", "arabic-indic-digit",
         "fullwidth-digit", "float"],
)
def test_an_integer_cell_is_ascii_digits_with_an_optional_minus(column, cell, accepted) -> None:
    # int() alone takes every refused form here but the float. A leading
    # zero is refused as JSON refuses it: no writer writes one.
    label, read = _TYPED_CELL_ROWS[column]
    if accepted:
        assert read(cell) == 1
    else:
        with pytest.raises(ValueError) as exc:
            read(cell)
        assert str(exc.value) == f"{label}, CSV line 2: {cell!r} is not an integer"


@pytest.mark.parametrize("column", ["a", "sigma"])
@pytest.mark.parametrize(
    "cell, value",
    [("1.5", 1.5), ("1e-05", 1e-05), ("15e-1", None), ("0.15E+01", None), ("+1.5", None), (" 1.5", None),
     ("1.5 ", None), ("0_1.5", None), ("\u0661.5", None), ("01.5", None), (".5", None), ("1.", None),
     ("1e5", None), ("NaN", None), ("Infinity", None)],
    ids=["plain", "repr-exponent", "exponent", "upper-exponent", "plus", "space-before", "space-after",
         "underscore", "arabic-indic-digit", "leading-zero", "no-integer-digit", "no-fraction-digit",
         "exponent-of-a-plain-value", "capital-nan", "infinity-spelled-out"],
)
def test_a_float_cell_is_an_ascii_decimal_as_repr_writes_it(column, cell, value) -> None:
    # float() alone takes every refused form here: a cell is taken only as
    # repr writes its value.
    label, read = _TYPED_CELL_ROWS[column]
    if value is not None:
        assert read(cell) == value
    else:
        with pytest.raises(ValueError) as exc:
            read(cell)
        assert str(exc.value) == f"{label}, CSV line 2: {cell!r} is not a number"


_SPLIT_MARKET = generate(spike_pair_scenario(seed=3, n_apps=3, n_windows=6, spike_window=3))[0]


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1), st.floats(0, 1))
def test_day_sums_of_disjoint_parts_add_up(seed: int, share: float) -> None:
    # Two parts that share no (source, review_id) key, over one fixed span
    # that leaves some reviews out at both ends: the whole's day sums are
    # the elementwise sum of the parts'.
    config = MarketConfig(span_start=date(2024, 1, 6), span_end=date(2024, 2, 10))
    rng = random.Random(seed)
    first = np.array([rng.random() < share for _ in range(len(_SPLIT_MARKET))])
    parts = [_SPLIT_MARKET[np.flatnonzero(first)], _SPLIT_MARKET[np.flatnonzero(~first)]]
    whole, *halves = (aggregate(config, build_catalog(t)).day_sums for t in (_SPLIT_MARKET, *parts))
    assert list(whole) == ["app00", "spike0", "spike1"]
    for app, days in whole.items():
        assert days.reviews[-1] < len(_SPLIT_MARKET.stamp_us[_SPLIT_MARKET.app_id == app])
        summed = [sum(arrays) for arrays in zip(*(_arrays(h[app]) for h in halves if app in h))]
        for got, want in zip(summed, _arrays(days), strict=True):
            np.testing.assert_array_equal(got, want)
