"""Pairwise correlation, runs, and correlated-event intersection.

Oracles here: a from-definition Pearson (plain covariance over the product
of standard deviations), a linear scan for runs, and a brute-force replay
of the intersection rules for correlated events.
"""
from __future__ import annotations

import csv
import io
import math
import random
from collections import Counter
from dataclasses import replace
from datetime import date, timedelta
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewpulse.config import MarketConfig
from reviewpulse.correlate import (
    CORRELATIONS_CSV_COLUMNS,
    CorrelationRecord,
    CorrelationRun,
    PairSeries,
    ce_records_from_json,
    ce_records_to_json,
    detect_correlated_events,
    extract_runs,
    market_correlations,
    pair_correlations,
    read_correlations_csv,
    write_correlations_csv,
)
from reviewpulse.detect import EventRecord
from reviewpulse.ingest import build_catalog
from reviewpulse.metrics import MetricKind, TimeWindow
from reviewpulse.ingest import serialize_reviews
from reviewpulse.pipeline import analyze_catalog, ce_from_reports, run_pipeline, write_bundle
from reviewpulse.synth import generate, spike_pair_scenario

from oracles import detect_correlation, pearson_rho

D0 = date(2024, 1, 4)


def _series(values: list[float], start: date = D0) -> list[tuple[date, float]]:
    return [(start + timedelta(days=i), v) for i, v in enumerate(values)]


def _oracle_rho(pairs: list[tuple[float, float]]) -> float | None:
    n = len(pairs)
    mx = sum(x for x, _ in pairs) / n
    my = sum(y for _, y in pairs) / n
    cov = sum((x - mx) * (y - my) for x, y in pairs) / n
    sdx = math.sqrt(sum((x - mx) ** 2 for x, _ in pairs) / n)
    sdy = math.sqrt(sum((y - my) ** 2 for _, y in pairs) / n)
    if sdx == 0 or sdy == 0:
        return None
    return cov / (sdx * sdy)


def test_self_correlation_is_one() -> None:
    xs = _series([1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0])
    assert pearson_rho(xs, xs, (D0, D0 + timedelta(days=8))) == pytest.approx(1.0)


def test_perfect_anticorrelation_is_minus_one() -> None:
    xs = _series([1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0])
    ys = [(d, -v + 10.0) for d, v in xs]
    assert pearson_rho(xs, ys, (D0, D0 + timedelta(days=8))) == pytest.approx(-1.0)


def test_thousand_random_pairs_match_definition_oracle() -> None:
    rng = random.Random(1234)
    lookback = (D0, D0 + timedelta(days=14))
    for _ in range(1000):
        xs = _series([rng.uniform(-10, 10) for _ in range(14)])
        ys = _series([rng.uniform(-10, 10) for _ in range(14)])
        got = pearson_rho(xs, ys, lookback)
        want = _oracle_rho([(x, y) for (_, x), (_, y) in zip(xs, ys)])
        assert got == pytest.approx(want, abs=1e-9)


def test_too_few_shared_points_is_missing() -> None:
    xs = _series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert pearson_rho(xs, xs, (D0, D0 + timedelta(days=7))) is None  # 7 < 8
    assert pearson_rho(xs, xs, (D0, D0 + timedelta(days=7)), min_points=7) is not None


def test_constant_series_is_missing() -> None:
    xs = _series([5.0] * 10)
    ys = _series([float(i) for i in range(10)])
    assert pearson_rho(xs, ys, (D0, D0 + timedelta(days=10))) is None


def test_classification_sweep_matches_hand_table() -> None:
    sweep = [round(-1.0 + 0.1 * i, 1) for i in range(21)]
    # Hand enumeration at h=0.5: inclusive at both boundaries.
    expected = {
        -1.0: -1, -0.9: -1, -0.8: -1, -0.7: -1, -0.6: -1, -0.5: -1,
        -0.4: 0, -0.3: 0, -0.2: 0, -0.1: 0, 0.0: 0, 0.1: 0, 0.2: 0,
        0.3: 0, 0.4: 0, 0.5: 1, 0.6: 1, 0.7: 1, 0.8: 1, 0.9: 1, 1.0: 1,
    }
    for rho in sweep:
        assert detect_correlation(rho, 0.5) == expected[rho], rho
    assert detect_correlation(None, 0.5) == 0


def _grid(n: int, days: int = 1) -> list[TimeWindow]:
    return [TimeWindow(D0 + timedelta(days=days * i), days) for i in range(n)]


def test_sweep_matches_per_window_calls() -> None:
    rng = random.Random(77)
    pi = {D0 + timedelta(days=i): rng.uniform(0, 50) for i in range(120) if rng.random() > 0.15}
    pj = {D0 + timedelta(days=i): rng.uniform(0, 50) for i in range(120) if rng.random() > 0.15}
    windows = _grid(120)
    records = pair_correlations("a", "b", MetricKind.COUNT, pi, pj, windows, 14, 0.5)
    for record in records:
        lo = record.window.start - timedelta(days=14)
        want = pearson_rho(sorted(pi.items()), sorted(pj.items()), (lo, record.window.end))
        if want is None:
            assert record.rho is None
        else:
            assert record.rho == pytest.approx(want, abs=1e-9)
        assert record.c == detect_correlation(record.rho, 0.5)


def test_pair_order_is_canonical() -> None:
    rng = random.Random(88)
    pi = {D0 + timedelta(days=i): rng.uniform(0, 9) for i in range(40)}
    pj = {D0 + timedelta(days=i): rng.uniform(0, 9) for i in range(40)}
    windows = _grid(40)
    ab = pair_correlations("a", "b", MetricKind.COUNT, pi, pj, windows, 14, 0.5)
    ba = pair_correlations("b", "a", MetricKind.COUNT, pj, pi, windows, 14, 0.5)
    assert ab == ba


def test_positive_affine_transform_preserves_rho() -> None:
    rng = random.Random(101)
    pi = {D0 + timedelta(days=i): rng.uniform(0, 9) for i in range(30)}
    pj = {D0 + timedelta(days=i): rng.uniform(0, 9) for i in range(30)}
    pj_scaled = {d: 3.0 * v + 7.0 for d, v in pj.items()}
    windows = _grid(30)
    plain = pair_correlations("a", "b", MetricKind.COUNT, pi, pj, windows, 14, 0.5)
    scaled = pair_correlations("a", "b", MetricKind.COUNT, pi, pj_scaled, windows, 14, 0.5)
    for p, s in zip(plain, scaled):
        if p.rho is None:
            assert s.rho is None
        else:
            assert s.rho == pytest.approx(p.rho, abs=1e-9)
        assert p.c == s.c


def _corr(idx: int, c: int) -> CorrelationRecord:
    return CorrelationRecord(
        app_i="a", app_j="b", metric=MetricKind.COUNT,
        window=TimeWindow(D0 + timedelta(days=idx), 1),
        rho=None if c == 0 else 0.9 * c, c=c, n_points=14,
    )


def _as_series(records: list[CorrelationRecord]) -> PairSeries:
    """One pair/metric's records, in window order, as a pair series."""
    first = records[0]
    return PairSeries(
        first.app_i, first.app_j, first.metric, [r.window for r in records],
        np.array([math.nan if r.rho is None else r.rho for r in records], dtype=np.float64),
        np.array([r.c for r in records], dtype=np.int64),
        np.array([r.n_points for r in records], dtype=np.int64),
    )


def test_runs_from_short_series() -> None:
    records = [_corr(i, c) for i, c in enumerate([0, 1, 1, 0, -1])]
    runs = extract_runs(_as_series(records), event_window_days=7)
    assert [(r.sign, r.t_start, r.t_end) for r in runs] == [
        (1, D0 + timedelta(days=1), D0 + timedelta(days=3)),
        (-1, D0 + timedelta(days=4), D0 + timedelta(days=5)),
    ]
    assert runs[0].first_interval == TimeWindow(D0 + timedelta(days=1), 7)


def test_all_zero_series_has_no_runs() -> None:
    assert extract_runs(_as_series([_corr(i, 0) for i in range(20)]), 7) == []


def test_runs_match_linear_scan_oracle() -> None:
    rng = random.Random(55)
    signs = [rng.choice([-1, 0, 0, 1]) for _ in range(365)]
    records = [_corr(i, c) for i, c in enumerate(signs)]
    runs = extract_runs(_as_series(records), 7)

    # Oracle: scan for maximal constant nonzero stretches.
    expected = []
    i = 0
    while i < len(signs):
        if signs[i] == 0:
            i += 1
            continue
        j = i
        while j + 1 < len(signs) and signs[j + 1] == signs[i]:
            j += 1
        expected.append((signs[i], D0 + timedelta(days=i), D0 + timedelta(days=j + 1)))
        i = j + 1
    assert [(r.sign, r.t_start, r.t_end) for r in runs] == expected


def _event(app: str, widx: int, e: int) -> EventRecord:
    return EventRecord(
        app_id=app, metric=MetricKind.COUNT,
        window=TimeWindow(D0 + timedelta(days=7 * widx), 7),
        e=e, a=float(e), sigma=1.0, k=2.0, baseline_n=10, warmup=False,
    )


def _run(sign: int, start_day: int, end_day: int) -> CorrelationRun:
    return CorrelationRun(
        app_i="a", app_j="b", metric=MetricKind.COUNT, sign=sign,
        t_start=D0 + timedelta(days=start_day), t_end=D0 + timedelta(days=end_day),
        first_interval=TimeWindow(D0 + timedelta(days=start_day), 7),
    )


def test_no_events_means_no_ce() -> None:
    events_i = [_event("a", w, 0) for w in range(10)]
    events_j = [_event("b", w, 1) for w in range(10)]
    runs = [_run(1, 0, 70)]
    assert detect_correlated_events(events_i, events_j, runs) == []


def test_same_window_agreement_with_positive_run() -> None:
    events_i = [_event("a", w, 1 if w == 4 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 4 else 0) for w in range(10)]
    ces = detect_correlated_events(events_i, events_j, [_run(1, 28, 42)])
    assert len(ces) == 1
    assert ces[0].ce == 1 and ces[0].window == TimeWindow(D0 + timedelta(days=28), 7)
    # A run of class 0 matches nothing, even over two firing events.
    assert detect_correlated_events(events_i, events_j, [_run(0, 28, 42)]) == []


def test_opposite_signs_with_negative_run() -> None:
    events_i = [_event("a", w, 1 if w == 4 else 0) for w in range(10)]
    events_j = [_event("b", w, -1 if w == 4 else 0) for w in range(10)]
    assert detect_correlated_events(events_i, events_j, [_run(1, 28, 42)]) == []
    ces = detect_correlated_events(events_i, events_j, [_run(-1, 28, 42)])
    assert len(ces) == 1 and ces[0].ce == -1


def test_preceding_window_pairings_one_sided_only() -> None:
    # app a fires in window 3, app b in window 4: the (a preceding, b same)
    # pairing applies at window 4.
    events_i = [_event("a", w, 1 if w == 3 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 4 else 0) for w in range(10)]
    ces = detect_correlated_events(events_i, events_j, [_run(1, 28, 42)])
    assert [(c.window.start, c.ce) for c in ces] == [(D0 + timedelta(days=28), 1)]
    assert ces[0].event_i.window.start == D0 + timedelta(days=21)

    # both apps fire only in window 3 and the run starts at window 4:
    # the both-preceding pairing must NOT be applied at window 4, and
    # window 3 itself does not overlap the first interval.
    events_i = [_event("a", w, 1 if w == 3 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 3 else 0) for w in range(10)]
    assert detect_correlated_events(events_i, events_j, [_run(1, 28, 42)]) == []


def _oracle_ces(events_i, events_j, runs):
    """Brute-force replay of the intersection rules on plain dicts."""
    by_i = {r.window.start: r for r in events_i}
    by_j = {r.window.start: r for r in events_j}
    grid = sorted({r.window for r in events_i} | {r.window for r in events_j})

    def match(sign, ei, ej):
        a = ei.e if ei else 0
        b = ej.e if ej else 0
        if a == 0 or b == 0:
            return 0
        if sign == 1 and a == b:
            return 1
        if sign == -1 and a == -b:
            return -1
        return 0

    found = {}
    for run in sorted(runs, key=lambda r: (r.t_start, r.t_end, r.sign)):
        lo, hi = run.first_interval.start, run.first_interval.end
        for w in grid:
            if not (w.start < hi and lo < w.end):  # overlap test
                continue
            prev = w.start - timedelta(days=w.days)
            for ei, ej in ((by_i.get(w.start), by_j.get(w.start)),
                           (by_i.get(prev), by_j.get(w.start)),
                           (by_i.get(w.start), by_j.get(prev))):
                ce = match(run.sign, ei, ej)
                if ce == 0:
                    continue
                found.setdefault((w.start, ce), (w.start, ce, ei.window.start, ej.window.start))
                break
    return sorted(found.values(), key=lambda t: (t[0], -t[1]))


def test_random_fixtures_match_exhaustive_ce_oracle() -> None:
    rng = random.Random(404)
    for _ in range(60):
        events_i = [_event("a", w, rng.choice([-1, 0, 0, 0, 1])) for w in range(52)]
        events_j = [_event("b", w, rng.choice([-1, 0, 0, 0, 1])) for w in range(52)]
        runs = []
        for _ in range(rng.randrange(0, 6)):
            start = rng.randrange(0, 358)
            runs.append(_run(rng.choice([-1, 1]), start, start + rng.randrange(1, 30)))
        got = [
            (r.window.start, r.ce, r.event_i.window.start, r.event_j.window.start)
            for r in detect_correlated_events(events_i, events_j, runs)
        ]
        assert got == _oracle_ces(events_i, events_j, runs)


@st.composite
def _market_reports(draw) -> tuple[list[EventRecord], list[PairSeries]]:
    """Weekly events of every app and daily correlation series of every pair."""
    apps = [f"app{k}" for k in range(draw(st.integers(2, 4)))]
    weeks = draw(st.integers(2, 8))
    metrics = draw(st.lists(st.sampled_from(list(MetricKind)), min_size=1, max_size=2, unique=True))
    days = [TimeWindow(D0 + timedelta(days=d), 1) for d in range(7 * weeks)]
    events: list[EventRecord] = []
    series: list[PairSeries] = []
    for metric in metrics:
        for app in apps:
            signs = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=weeks, max_size=weeks))
            events += [replace(_event(app, w, e), metric=metric) for w, e in enumerate(signs)]
        for i, j in combinations(apps, 2):
            # Runs of one class, each 1..10 days long, cut to the grid.
            runs = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 10)), min_size=1))
            c = np.array(([sign for sign, length in runs for _ in range(length)] * len(days))[: len(days)])
            rho = np.where(c == 0, np.nan, 0.9 * c)
            series.append(PairSeries(i, j, metric, days, rho, c, np.full(len(days), 10)))
    return events, series


@settings(max_examples=200)
@given(_market_reports(), st.randoms(use_true_random=False))
def test_ce_ignores_input_order_and_app_labels(reports, rng) -> None:
    events, series = reports
    ces = ce_from_reports(events, series, 7)
    shuffled_events, shuffled_series = list(events), list(series)
    rng.shuffle(shuffled_events)
    rng.shuffle(shuffled_series)
    assert ce_from_reports(shuffled_events, shuffled_series, 7) == ces
    # Zero events are ignored: the nonzero events alone give the same CEs.
    assert ce_from_reports([e for e in events if e.e], series, 7) == ces

    # Reversing the app order flips every pair: (app_i, app_j) becomes
    # (new app_j, new app_i), and the series itself is symmetric.
    n = len({e.app_id for e in events})
    rename = {f"app{k}": f"app{n - 1 - k}" for k in range(n)}
    flipped = ce_from_reports(
        [replace(e, app_id=rename[e.app_id]) for e in events],
        [replace(s, app_i=rename[s.app_j], app_j=rename[s.app_i]) for s in series],
        7,
    )

    def keys(records, names):
        return Counter((frozenset((names[r.app_i], names[r.app_j])), r.metric, r.window.start, r.ce) for r in records)

    assert keys(flipped, rename) == keys(ces, {a: a for a in rename})


def test_two_app_spiked_market_yields_exactly_one_ce() -> None:
    reviews, labels = generate(spike_pair_scenario(seed=0, n_apps=2))
    analysis = analyze_catalog(
        MarketConfig(seed=0), build_catalog(reviews), metrics=(MetricKind.COUNT,)
    )
    week30 = D0 + timedelta(days=30 * 7)
    assert {(l.app_id, l.sign) for l in labels} == {("spike0", 1), ("spike1", 1)}
    ces = analysis.ces
    assert len(ces) == 1
    only = ces[0]
    assert (only.app_i, only.app_j, only.ce) == ("spike0", "spike1", 1)
    assert only.window.start == week30


def test_correlations_csv_round_trip() -> None:
    records = [_corr(i, c) for i, c in enumerate([0, 1, -1])]
    text = "".join(write_correlations_csv([_as_series(records)]))
    back = read_correlations_csv(text, window_days=1)
    assert [r for s in back for r in s.records()] == records


@pytest.mark.parametrize(
    "cells, refused",
    [
        ("x,1,10", "'x' is not a number"),
        ("0.5,1.0,10", "'1.0' is not an integer"),
        ("0.5,1,ten", "'ten' is not an integer"),
    ],
    ids=["rho-text", "c-float", "n-points-text"],
)
def test_correlations_csv_names_the_line_of_a_bad_numeric_cell(cells: str, refused: str) -> None:
    text = "app_i,app_j,metric,t0,rho,c,n_points\na,b,count,2024-01-01,,0,1\n"
    with pytest.raises(ValueError) as exc:
        read_correlations_csv(text + f"a,b,count,2024-01-02,{cells}\n", window_days=1)
    assert str(exc.value) == f"correlations of (a, b, count), CSV line 3: {refused}"


def _reference_csv(series: list[PairSeries]) -> str:
    """correlations.csv written the plain way: one csv.writer row per window.

    Each row is written with a "\r\n" terminator, so that a field holding a
    bare "\r" is quoted, and then cut back to end in "\n".
    """
    rows = []

    def write(row: list) -> None:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        rows.append(buf.getvalue()[:-2] + "\n")

    write(list(CORRELATIONS_CSV_COLUMNS))
    for s in series:
        for window, rho, c, n in zip(s.windows, s.rho, s.c, s.n_points):
            rho = float(rho)
            write([s.app_i, s.app_j, s.metric.value, window.start.isoformat(),
                   "" if math.isnan(rho) else repr(rho), int(c), int(n)])
    return "".join(rows)


# App ids that need CSV quoting, or not; rho at the edges repr must keep.
_APP_IDS = st.text(
    alphabet=st.sampled_from(["a", "B", "7", ",", '"', "\n", "\r", " ", "\u00e9", "\U0001f600"]), max_size=5
)
_RHOS = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, 1.0, -1.0, 1e-05, -1e-05, 5e-324]),
    st.floats(-1.0, 1.0),
)


@st.composite
def _pair_series(draw) -> list[PairSeries]:
    n = draw(st.integers(0, 12))
    start = D0 + timedelta(days=draw(st.integers(-400, 4000)))
    shared = [TimeWindow(start + timedelta(days=k), 1) for k in range(n)]
    keys = draw(
        st.lists(
            st.tuples(_APP_IDS, _APP_IDS, st.sampled_from([MetricKind.COUNT, MetricKind.RATING])),
            max_size=4,
            unique=True,
        )
    )
    series = []
    for app_i, app_j, metric in keys:
        # Series share one grid object, as market_correlations leaves them, or hold a copy.
        windows = shared if draw(st.booleans()) else list(shared)
        rho = draw(st.lists(_RHOS, min_size=n, max_size=n))
        c = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
        n_points = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
        series.append(
            PairSeries(app_i, app_j, metric, windows, np.array(rho, dtype=np.float64),
                       np.array(c, dtype=np.int64), np.array(n_points, dtype=np.int64))
        )
    return series


@settings(max_examples=300, deadline=None)
@given(_pair_series())
def test_correlations_csv_matches_per_row_writer(series: list[PairSeries]) -> None:
    want = _reference_csv(series)
    text = "".join(write_correlations_csv(series))
    assert text == want
    # App ids holding "\r", "\n", quotes or commas read back as written.
    back = read_correlations_csv(text, window_days=1)
    assert [r for s in back for r in s.records()] == [r for s in series for r in s.records()]


def test_correlations_csv_rewrites_a_pipeline_report_exactly(tmp_path) -> None:
    reviews, _ = generate(spike_pair_scenario(seed=0, n_apps=3))
    dataset = tmp_path / "reviews.jsonl"
    dataset.write_text(serialize_reviews(reviews), encoding="utf-8")
    config = MarketConfig(seed=0)
    run_pipeline(config, [dataset], tmp_path / "out")
    text = (tmp_path / "out" / "correlations.csv").read_text(encoding="utf-8")
    series = read_correlations_csv(text, config.correlation_window_days)
    records = [r for s in series for r in s.records()]
    assert any(r.rho is None for r in records) and any(r.c != 0 for r in records)
    assert "".join(write_correlations_csv(series)) == text


def test_write_bundle_builds_no_correlation_records(tmp_path, monkeypatch) -> None:
    reviews, _ = generate(spike_pair_scenario(seed=0, n_apps=3))
    analysis = analyze_catalog(MarketConfig(seed=0), build_catalog(reviews))

    def refuse(self: PairSeries) -> list[CorrelationRecord]:
        raise AssertionError("the write path built per-window records")

    monkeypatch.setattr(PairSeries, "records", refuse)
    write_bundle(analysis, [], tmp_path)
    lines = (tmp_path / "correlations.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + sum(len(s.windows) for s in analysis.pair_series)


def test_ce_json_round_trip() -> None:
    events_i = [_event("a", w, 1 if w == 4 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 4 else 0) for w in range(10)]
    ces = detect_correlated_events(events_i, events_j, [_run(1, 28, 42)])
    assert ce_records_from_json(ce_records_to_json(ces)) == ces


def test_market_correlations_match_per_pair_sweeps() -> None:
    # Every pair of the all-pairs block must equal its own pair sweep, gaps
    # (missing points) and unsorted app names included.
    rng = random.Random(606)
    apps = ["delta", "alpha", "charlie", "bravo"]
    windows = _grid(90)
    values = [[rng.uniform(0, 20) if rng.random() > 0.1 else math.nan for _ in windows] for _ in apps]
    values[2] = [3.0] * len(windows)  # constant: rho undefined throughout
    series = market_correlations(apps, MetricKind.RATING, np.array(values), windows, 14, 0.5)
    assert len(series) == 6
    for s in series:
        points = {
            a: {w.start: v for w, v in zip(windows, row) if not math.isnan(v)}
            for a, row in zip(apps, values)
        }
        want = pair_correlations(s.app_i, s.app_j, MetricKind.RATING, points[s.app_i], points[s.app_j], windows, 14, 0.5)
        assert s.app_i < s.app_j
        assert s.records() == want
        assert extract_runs(s, 7) == extract_runs(_as_series(want), 7)
