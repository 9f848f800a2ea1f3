"""Pairwise correlation, runs, and correlated-event intersection.

Oracles here: a from-definition Pearson (plain covariance over the product
of standard deviations), a linear scan for runs, the per-row run cutter
of ``oracles.extract_runs``, and a brute-force replay of the intersection
rules for correlated events.
"""
from __future__ import annotations

import csv
import io
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import date, timedelta
from itertools import combinations, groupby, repeat
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewpulse import correlate, pipeline
from reviewpulse.config import MarketConfig
from reviewpulse.correlate import (
    CORRELATIONS_CSV_COLUMNS,
    CorrelatedEventRecord,
    CorrelationRecord,
    CorrelationRun,
    PairBlock,
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
from reviewpulse.metrics import MetricKind, TimeWindow, correlation_points
from reviewpulse.ingest import serialize_reviews
from reviewpulse.pipeline import analyze_catalog, ce_from_reports, run_pipeline, write_bundle
from reviewpulse.synth import default_scenario, generate, spike_pair_scenario

from oracles import detect_correlation, extract_runs as series_runs, pearson_rho
from test_goldens import MARKETS

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


def _as_block(records: list[CorrelationRecord]) -> PairBlock:
    """One pair/metric's records, in window order, as a one-row pair block."""
    first = records[0]
    return PairBlock(
        first.metric, [r.window for r in records], (first.app_i,), (first.app_j,),
        np.array([[math.nan if r.rho is None else r.rho for r in records]], dtype=np.float64),
        np.array([[r.c for r in records]], dtype=np.int64),
        np.array([[r.n_points for r in records]], dtype=np.int64),
    )


def _record_runs(records: list[CorrelationRecord]) -> list[CorrelationRun]:
    """One pair/metric's records, in window order, cut by the per-row oracle."""
    first = records[0]
    return series_runs([r.c for r in records], [r.window for r in records], (first.app_i, first.app_j, first.metric))


def _block_runs(block: PairBlock) -> list[CorrelationRun]:
    """Every row of a pair block cut by the per-row oracle, rows in order."""
    keys = zip(block.app_i, block.app_j, repeat(block.metric))
    return [run for row, key in zip(block.c.tolist(), keys) for run in series_runs(row, block.windows, key)]


def test_runs_from_short_series() -> None:
    records = [_corr(i, c) for i, c in enumerate([0, 1, 1, 0, -1])]
    runs = extract_runs(_as_block(records))
    assert [(r.sign, r.t_start, r.t_end) for r in runs] == [
        (1, D0 + timedelta(days=1), D0 + timedelta(days=3)),
        (-1, D0 + timedelta(days=4), D0 + timedelta(days=5)),
    ]


def test_all_zero_series_has_no_runs() -> None:
    assert extract_runs(_as_block([_corr(i, 0) for i in range(20)])) == []
    empty = np.zeros((0, 20))
    assert extract_runs(PairBlock(MetricKind.COUNT, _grid(20), (), (), empty, empty.astype(np.int8), empty)) == []


def test_runs_match_linear_scan_oracle() -> None:
    rng = random.Random(55)
    signs = [rng.choice([-1, 0, 0, 1]) for _ in range(365)]
    records = [_corr(i, c) for i, c in enumerate(signs)]
    runs = extract_runs(_as_block(records))

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


@st.composite
def _class_matrices(draw) -> PairBlock:
    """A pair block over a grid of 1- or 2-day windows, each class row built
    from runs of one class; rows often start or end in a run, or flip sign
    with no zero between."""
    n = draw(st.integers(0, 30))
    days = draw(st.integers(1, 2))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        pieces = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 6)), min_size=1, max_size=8))
        rows.append(([sign for sign, length in pieces for _ in range(length)] + [0] * n)[:n])
    c = np.array(rows, dtype=np.int8).reshape(len(rows), n)
    return PairBlock(draw(st.sampled_from(list(MetricKind))), _grid(n, days), [f"a{k}" for k in range(len(rows))],
                     [f"b{k}" for k in range(len(rows))], np.where(c == 0, np.nan, 0.9 * c), c, np.full(c.shape, 10))


@settings(max_examples=300, deadline=None)
@given(_class_matrices())
def test_all_pairs_runs_match_the_per_series_oracle(block: PairBlock) -> None:
    assert extract_runs(block) == _block_runs(block)


def test_runs_at_both_grid_edges_and_sign_flips() -> None:
    rows = [[1, 1, -1, -1, 1], [-1, 0, 0, 0, -1], [0, 1, -1, 1, 0], [0, 0, 0, 0, 0]]
    block = PairBlock(MetricKind.COUNT, _grid(5), [f"a{k}" for k in range(len(rows))], ["b"] * len(rows),
                      np.zeros((len(rows), 5)), np.array(rows, dtype=np.int8), np.zeros((len(rows), 5), dtype=np.int64))
    runs = extract_runs(block)
    assert [(r.app_i, r.sign, (r.t_start - D0).days, (r.t_end - D0).days) for r in runs] == [
        ("a0", 1, 0, 2), ("a0", -1, 2, 4), ("a0", 1, 4, 5),
        ("a1", -1, 0, 1), ("a1", -1, 4, 5),
        ("a2", 1, 1, 2), ("a2", -1, 2, 3), ("a2", 1, 3, 4),
    ]
    assert runs == _block_runs(block)


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
    )


def test_no_events_means_no_ce() -> None:
    events_i = [_event("a", w, 0) for w in range(10)]
    events_j = [_event("b", w, 1) for w in range(10)]
    runs = [_run(1, 0, 70)]
    assert detect_correlated_events([*events_i, *events_j], runs, 7) == []


def test_same_window_agreement_with_positive_run() -> None:
    events_i = [_event("a", w, 1 if w == 4 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 4 else 0) for w in range(10)]
    ces = detect_correlated_events([*events_i, *events_j], [_run(1, 28, 42)], 7)
    assert len(ces) == 1
    assert ces[0].ce == 1 and ces[0].window == TimeWindow(D0 + timedelta(days=28), 7)
    assert ces[0].first_interval == TimeWindow(D0 + timedelta(days=28), 7)
    # A run of class 0 matches nothing, even over two firing events.
    assert detect_correlated_events([*events_i, *events_j], [_run(0, 28, 42)], 7) == []


def test_opposite_signs_with_negative_run() -> None:
    events_i = [_event("a", w, 1 if w == 4 else 0) for w in range(10)]
    events_j = [_event("b", w, -1 if w == 4 else 0) for w in range(10)]
    assert detect_correlated_events([*events_i, *events_j], [_run(1, 28, 42)], 7) == []
    ces = detect_correlated_events([*events_i, *events_j], [_run(-1, 28, 42)], 7)
    assert len(ces) == 1 and ces[0].ce == -1


def test_preceding_window_pairings_one_sided_only() -> None:
    # app a fires in window 3, app b in window 4: the (a preceding, b same)
    # pairing applies at window 4.
    events_i = [_event("a", w, 1 if w == 3 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 4 else 0) for w in range(10)]
    ces = detect_correlated_events([*events_i, *events_j], [_run(1, 28, 42)], 7)
    assert [(c.window.start, c.ce) for c in ces] == [(D0 + timedelta(days=28), 1)]
    assert ces[0].event_i.window.start == D0 + timedelta(days=21)

    # both apps fire only in window 3 and the run starts at window 4:
    # the both-preceding pairing must NOT be applied at window 4, and
    # window 3 itself does not overlap the first interval.
    events_i = [_event("a", w, 1 if w == 3 else 0) for w in range(10)]
    events_j = [_event("b", w, 1 if w == 3 else 0) for w in range(10)]
    assert detect_correlated_events([*events_i, *events_j], [_run(1, 28, 42)], 7) == []


def _oracle_ces(events_i, events_j, runs):
    """Brute-force replay of the intersection rules on plain dicts: one
    pair's records, in (window start, -ce) order."""
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
        lo, hi = run.t_start, run.t_start + timedelta(days=7)
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
                record = CorrelatedEventRecord(run.app_i, run.app_j, run.metric, w, ce, ei, ej, run,
                                               TimeWindow(run.t_start, 7))
                found.setdefault((w.start, ce), record)
                break
    return sorted(found.values(), key=lambda r: (r.window.start, -r.ce))


def _market_oracle_ces(events, runs):
    """``_oracle_ces`` applied pair by pair, pairs in (metric name, app_i,
    app_j) order, each given its two apps' events of the metric."""
    by_series, by_pair = {}, {}
    for e in events:
        by_series.setdefault((e.app_id, e.metric), []).append(e)
    for r in runs:
        by_pair.setdefault((r.metric.value, r.app_i, r.app_j), []).append(r)
    return [ce for (_, app_i, app_j), pair_runs in sorted(by_pair.items())
            for ce in _oracle_ces(by_series.get((app_i, pair_runs[0].metric), []),
                                  by_series.get((app_j, pair_runs[0].metric), []), pair_runs)]


def test_random_fixtures_match_exhaustive_ce_oracle() -> None:
    rng = random.Random(404)
    for _ in range(60):
        events_i = [_event("a", w, rng.choice([-1, 0, 0, 0, 1])) for w in range(52)]
        events_j = [_event("b", w, rng.choice([-1, 0, 0, 0, 1])) for w in range(52)]
        runs = []
        for _ in range(rng.randrange(0, 6)):
            start = rng.randrange(0, 358)
            runs.append(_run(rng.choice([-1, 1]), start, start + rng.randrange(1, 30)))
        assert detect_correlated_events([*events_i, *events_j], runs, 7) == _oracle_ces(events_i, events_j, runs)


@st.composite
def _market_reports(draw) -> tuple[list[EventRecord], list[PairBlock]]:
    """Weekly events of every app and one block of daily correlation series
    of every pair per metric."""
    apps = [f"app{k}" for k in range(draw(st.integers(2, 4)))]
    weeks = draw(st.integers(2, 8))
    metrics = draw(st.lists(st.sampled_from(list(MetricKind)), min_size=1, max_size=2, unique=True))
    days = [TimeWindow(D0 + timedelta(days=d), 1) for d in range(7 * weeks)]
    events: list[EventRecord] = []
    blocks: list[PairBlock] = []
    pairs = list(combinations(apps, 2))
    for metric in metrics:
        for app in apps:
            signs = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=weeks, max_size=weeks))
            events += [replace(_event(app, w, e), metric=metric) for w, e in enumerate(signs)]
        rows = []
        for _ in pairs:
            # Runs of one class, each 1..10 days long, cut to the grid.
            runs = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 10)), min_size=1))
            rows.append(([sign for sign, length in runs for _ in range(length)] * len(days))[: len(days)])
        c = np.array(rows, dtype=np.int8)
        blocks.append(PairBlock(metric, days, [i for i, _ in pairs], [j for _, j in pairs],
                                np.where(c == 0, np.nan, 0.9 * c), c, np.full(c.shape, 10)))
    return events, blocks


@settings(max_examples=200)
@given(_market_reports(), st.randoms(use_true_random=False))
def test_ce_ignores_input_order_and_app_labels(reports, rng) -> None:
    events, blocks = reports
    runs = [run for block in blocks for run in extract_runs(block)]
    ces = ce_from_reports(events, runs, 7)
    shuffled_events, shuffled_runs = list(events), list(runs)
    rng.shuffle(shuffled_events)
    rng.shuffle(shuffled_runs)
    assert ce_from_reports(shuffled_events, shuffled_runs, 7) == ces
    # Zero events are ignored: the nonzero events alone give the same CEs.
    assert ce_from_reports([e for e in events if e.e], runs, 7) == ces

    # Reversing the app order flips every pair: (app_i, app_j) becomes
    # (new app_j, new app_i), and the run itself is symmetric.
    n = len({e.app_id for e in events})
    rename = {f"app{k}": f"app{n - 1 - k}" for k in range(n)}
    flipped = ce_from_reports(
        [replace(e, app_id=rename[e.app_id]) for e in events],
        [r._replace(app_i=rename[r.app_j], app_j=rename[r.app_i]) for r in runs],
        7,
    )

    def keys(records, names):
        return Counter((frozenset((names[r.app_i], names[r.app_j])), r.metric, r.window.start, r.ce) for r in records)

    assert keys(flipped, rename) == keys(ces, {a: a for a in rename})


@st.composite
def _crowded_market(draw) -> tuple[list[EventRecord], list[CorrelationRun]]:
    """Weekly events of 3-5 apps over 1-2 metrics, with a week where at
    least three apps fire at once, and random runs of every pair, which
    may overlap each other; one pair gets runs of both signs starting in
    one week."""
    apps = [f"app{k}" for k in range(draw(st.integers(3, 5)))]
    weeks = draw(st.integers(2, 6))
    metrics = draw(st.lists(st.sampled_from(list(MetricKind)), min_size=1, max_size=2, unique=True))
    events: list[EventRecord] = []
    runs: list[CorrelationRun] = []
    for metric in metrics:
        crowded = draw(st.integers(0, weeks - 1))
        for k, app in enumerate(apps):
            signs = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=weeks, max_size=weeks))
            if k < 3:
                signs[crowded] = draw(st.sampled_from([-1, 1]))
            events += [replace(_event(app, w, e), metric=metric) for w, e in enumerate(signs)]
        pairs = list(combinations(apps, 2))
        for pair in pairs:
            drawn = st.tuples(st.sampled_from([-1, 1]), st.integers(0, 7 * weeks - 1), st.integers(1, 20))
            runs += [CorrelationRun(*pair, metric, sign, D0 + timedelta(days=start), D0 + timedelta(days=start + days))
                     for sign, start, days in draw(st.lists(drawn, max_size=4))]
        # Both starts fall in (window start - 7, window start + 7): each run's
        # first interval overlaps the crowded window.
        pair, start = draw(st.sampled_from(pairs)), 7 * crowded + draw(st.integers(-6, 0))
        runs += [CorrelationRun(*pair, metric, sign, D0 + timedelta(days=start + draw(st.integers(0, 6))),
                                D0 + timedelta(days=start + 7)) for sign in (1, -1)]
    return events, runs


@settings(max_examples=300)
@given(_crowded_market(), st.randoms(use_true_random=False))
def test_market_join_matches_the_pair_by_pair_oracle(market, rng) -> None:
    events, runs = market
    rng.shuffle(events)
    rng.shuffle(runs)
    assert detect_correlated_events(events, runs, 7) == _market_oracle_ces(events, runs)


def test_criterion_4_ces_match_the_pair_by_pair_oracle(criterion_4_analyses) -> None:
    for seed, analysis in enumerate(criterion_4_analyses):
        assert analysis.ces == _market_oracle_ces(analysis.all_events(), analysis.runs), seed
    assert sum(len(a.ces) for a in criterion_4_analyses) > len(criterion_4_analyses)


def test_a_subset_of_apps_gets_the_full_analysis_restricted_to_it() -> None:
    # App-subset locality: with the span fixed by the config, an app's
    # events, and a pair's runs and CEs, depend on those apps' reviews
    # alone, so no row of a kernel block and no pair of the CE join leaks
    # into another. Every app draws Poisson counts, so the background pairs
    # correlate too; the subset always keeps the spike pair. Requests are
    # not compared: an event whose CE partner is left out is summarised
    # only in the full run.
    kept_ces = left_out_ces = 0
    for seed in range(8):
        rng = random.Random(seed)
        scenario = spike_pair_scenario(seed=seed, n_apps=rng.randint(4, 8))
        scenario = replace(scenario, apps=tuple(replace(a, count_model="poisson") for a in scenario.apps))
        reviews, _ = generate(scenario)
        config = MarketConfig(seed=seed, span_start=scenario.start,
                              span_end=scenario.start + timedelta(days=7 * scenario.n_windows))
        full = analyze_catalog(config, build_catalog(reviews))
        others = [app for app in full.apps if not app.startswith("spike")]
        kept = {"spike0", "spike1", *rng.sample(others, rng.randint(1, len(others) - 1))}
        part = analyze_catalog(config, build_catalog(reviews[np.flatnonzero(np.isin(reviews.app_id, sorted(kept)))]))
        assert set(part.apps) == kept, seed
        assert part.events == {key: events for key, events in full.events.items() if key[0] in kept}, seed
        assert part.runs == [r for r in full.runs if {r.app_i, r.app_j} <= kept], seed
        assert part.ces == [c for c in full.ces if {c.app_i, c.app_j} <= kept], seed
        kept_ces += len(part.ces)
        left_out_ces += len(full.ces) - len(part.ces)
    assert kept_ces and left_out_ces


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
    records = [_corr(i, c) for i, c in enumerate([0, 1, -1, -1, 0, 1])]
    runs = extract_runs(_as_block(records))
    text = "".join(write_correlations_csv(runs))
    assert text == (
        "app_i,app_j,metric,sign,t_start,t_end\n"
        "a,b,count,1,2024-01-05,2024-01-06\n"
        "a,b,count,-1,2024-01-06,2024-01-08\n"
        "a,b,count,1,2024-01-09,2024-01-10\n"
    )
    assert read_correlations_csv(text, window_days=1) == runs


@pytest.mark.parametrize(
    "cells, refused",
    [
        ("x,2024-01-03,2024-01-04", "'x' is not an integer"),
        ("1.0,2024-01-03,2024-01-04", "'1.0' is not an integer"),
        ("1,2024-01-03,2024-01-0x", "Invalid isoformat string: '2024-01-0x'"),
    ],
    ids=["sign-text", "sign-float", "t-end-not-a-date"],
)
def test_correlations_csv_names_the_line_of_a_bad_numeric_cell(cells: str, refused: str) -> None:
    text = "app_i,app_j,metric,sign,t_start,t_end\na,b,count,1,2024-01-01,2024-01-02\n"
    with pytest.raises(ValueError) as exc:
        read_correlations_csv(text + f"a,b,count,{cells}\n", window_days=1)
    assert str(exc.value) == f"correlations of (a, b, count), CSV line 3: {refused}"


@pytest.mark.parametrize(
    "runs, window_days, refused",
    [
        (["2,01,02"], 1, "CSV line 3: sign must be 1 or -1, got 2"),
        (["0,01,02"], 1, "CSV line 3: sign must be 1 or -1, got 0"),
        (["1,02,02"], 1, "CSV line 3: t_end 2024-01-02 is not after t_start 2024-01-02"),
        (["1,03,02"], 1, "CSV line 3: t_end 2024-01-02 is not after t_start 2024-01-03"),
        (["1,01,04"], 2, "CSV line 3: 3 days are not whole 2-day windows"),
        (["1,05,06", "-1,01,02"], 1, "CSV line 5: the run from 2024-01-01 comes before the run from 2024-01-05"),
        (["1,01,04", "-1,03,05"], 1, "CSV line 5: the run from 2024-01-03 overlaps the run from 2024-01-01"),
        (["1,01,03", "1,01,03"], 1, "CSV line 5: the run from 2024-01-01 overlaps the run from 2024-01-01"),
        (["1,01,03", "1,03,05"], 1,
         "CSV line 5: the run from 2024-01-03 touches the run from 2024-01-01 with the same sign"),
        (["1,01,03", "-1,04,06"], 2, "CSV line 5: the run from 2024-01-04 is off the grid of the run from 2024-01-01"),
    ],
    ids=["sign-two", "sign-zero", "empty", "backwards", "off-grid", "out-of-order", "overlap", "repeat", "touch",
         "gap-off-grid"],
)
def test_correlations_csv_names_the_pair_and_line_of_a_refused_run(runs, window_days, refused) -> None:
    # Runs are checked per pair and metric: another pair's runs around them change nothing.
    others = [f"a,c,count,1,2024-02-{1 + 8 * k:02d},2024-02-{7 + 8 * k:02d}\n" for k in range(3)]
    rows = [others[0]]
    for k, (sign, start, end) in enumerate(r.split(",") for r in runs):
        rows += [f"a,b,count,{sign},2024-01-{start},2024-01-{end}\n", others[k + 1]]
    with pytest.raises(ValueError) as exc:
        read_correlations_csv("app_i,app_j,metric,sign,t_start,t_end\n" + "".join(rows), window_days)
    assert str(exc.value) == f"correlations of (a, b, count), {refused}"


@pytest.mark.parametrize(
    "rows, refused",
    [
        (["a,b,count,1,2024-01-01,2024-01-03", "b,a,count,1,2024-01-01,2024-01-03"],
         "correlations of (b, a, count), CSV line 3: app_i 'b' is not before app_j 'a'"),
        (["a,a,count,1,2024-01-01,2024-01-03"], "correlations of (a, a, count), CSV line 2: app_i 'a' is not before app_j 'a'"),
    ],
    ids=["swapped", "self-pair"],
)
def test_correlations_csv_refuses_a_pair_that_is_not_canonical(rows, refused) -> None:
    # Both orders of one pair over the same days would give two CEs for one
    # pair and window.
    with pytest.raises(ValueError) as exc:
        read_correlations_csv("app_i,app_j,metric,sign,t_start,t_end\n" + "".join(f"{r}\n" for r in rows), 1)
    assert str(exc.value) == refused


def test_correlations_csv_accepts_touching_runs_of_opposite_sign() -> None:
    text = (
        "app_i,app_j,metric,sign,t_start,t_end\n"
        "a,b,count,1,2024-01-01,2024-01-03\n"
        "a,b,count,-1,2024-01-03,2024-01-05\n"
        "a,b,rating,1,2024-01-01,2024-01-03\n"
        "a,b,count,1,2024-01-07,2024-01-09\n"
    )
    runs = read_correlations_csv(text, window_days=2)
    assert [(r.metric.value, r.sign, r.t_start.day, r.t_end.day) for r in runs] == [
        ("count", 1, 1, 3), ("count", -1, 3, 5), ("rating", 1, 1, 3), ("count", 1, 7, 9),
    ]


def _reference_csv(runs: list[CorrelationRun]) -> str:
    """correlations.csv written the plain way: one csv.writer row per run.

    Each row is written with a "\r\n" terminator, so that a field holding a
    bare "\r" is quoted, and then cut back to end in "\n".
    """
    rows = []

    def write(row: list) -> None:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        rows.append(buf.getvalue()[:-2] + "\n")

    write(list(CORRELATIONS_CSV_COLUMNS))
    for r in runs:
        write([r.app_i, r.app_j, r.metric.value, r.sign, r.t_start.isoformat(), r.t_end.isoformat()])
    return "".join(rows)


# App ids that need CSV quoting, or not.
_APP_IDS = st.text(
    alphabet=st.sampled_from(["a", "B", "7", ",", '"', "\n", "\r", " ", "\u00e9", "\U0001f600"]), max_size=5
)


@st.composite
def _correlation_runs(draw) -> tuple[int, list[CorrelationRun]]:
    """A window length and the runs of a few canonical pair series on its
    grid: each run 1..5 windows long, after a gap of 0..3 windows, flipping
    sign where it touches the run before."""
    window_days = draw(st.integers(1, 3))
    pairs = st.lists(_APP_IDS, min_size=2, max_size=2, unique=True).map(sorted)
    keys = draw(
        st.lists(
            st.tuples(pairs, st.sampled_from([MetricKind.COUNT, MetricKind.RATING])).map(lambda k: (*k[0], k[1])),
            max_size=4,
            unique=True,
        )
    )
    runs: list[CorrelationRun] = []
    for app_i, app_j, metric in keys:
        at = D0 + timedelta(days=draw(st.integers(-400, 4000)))
        sign = 0
        for gap, length, flip in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5), st.booleans()))):
            sign = -sign if gap == 0 and sign else draw(st.sampled_from([-1, 1])) if flip or not sign else sign
            start = at + timedelta(days=gap * window_days)
            at = start + timedelta(days=length * window_days)
            runs.append(CorrelationRun(app_i, app_j, metric, sign, start, at))
    return window_days, runs


@settings(max_examples=300, deadline=None)
@given(_correlation_runs())
def test_correlations_csv_matches_per_row_writer(drawn: tuple[int, list[CorrelationRun]]) -> None:
    window_days, runs = drawn
    text = "".join(write_correlations_csv(runs))
    assert text == _reference_csv(runs)
    # App ids holding "\r", "\n", quotes or commas read back as written, and
    # write -> read -> write gives the same bytes.
    back = read_correlations_csv(text, window_days)
    assert back == runs
    assert "".join(write_correlations_csv(back)) == text


def test_correlations_csv_rewrites_a_pipeline_report_exactly(tmp_path) -> None:
    reviews, _ = generate(spike_pair_scenario(seed=0, n_apps=3))
    dataset = tmp_path / "reviews.jsonl"
    dataset.write_text(serialize_reviews(reviews), encoding="utf-8")
    config = MarketConfig(seed=0)
    run_pipeline(config, [dataset], tmp_path / "out")
    text = (tmp_path / "out" / "correlations.csv").read_text(encoding="utf-8")
    runs = read_correlations_csv(text, config.correlation_window_days)
    assert {r.sign for r in runs} == {-1, 1}
    assert "".join(write_correlations_csv(runs)) == text


def test_write_bundle_builds_no_correlation_records(tmp_path, monkeypatch) -> None:
    reviews, _ = generate(spike_pair_scenario(seed=0, n_apps=3))
    analysis = analyze_catalog(MarketConfig(seed=0), build_catalog(reviews))

    def refuse(self: PairBlock) -> list[CorrelationRecord]:
        raise AssertionError("the write path built per-window records")

    monkeypatch.setattr(PairBlock, "records", refuse)
    write_bundle(analysis, [], tmp_path)
    lines = (tmp_path / "correlations.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(analysis.runs) > 1


def _oracle_runs(analysis) -> list[CorrelationRun]:
    """Every pair's runs in report order, each cut by the per-row oracle
    from the pair's own ``pair_correlations`` sweep of the analysis' window
    means, not from the blocks that the analysis correlates."""
    config, stats = analysis.config, analysis.daily_stats
    runs: list[CorrelationRun] = []
    for metric in sorted({m for _, m in stats}, key=lambda m: m.value):
        points = {app: correlation_points(s.records()) for (app, m), s in stats.items() if m is metric}
        for app_i, app_j in combinations(sorted(points), 2):
            records = pair_correlations(app_i, app_j, metric, points[app_i], points[app_j],
                                        stats[(app_i, metric)].windows, config.lookback_days,
                                        config.correlation_threshold, config.min_corr_points)
            runs += _record_runs(records)
    return runs


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_golden_market_ces_match_the_per_series_oracle(market: str) -> None:
    reviews, _ = generate(MARKETS[market]())
    analysis = analyze_catalog(MarketConfig(seed=0), build_catalog(reviews))
    oracle = _oracle_runs(analysis)
    assert analysis.runs == oracle
    assert analysis.ces
    assert ce_from_reports(analysis.nonzero_events(), oracle, 7) == analysis.ces


def test_criterion_4_ces_match_the_per_series_oracle(criterion_4_analyses) -> None:
    for seed, analysis in enumerate(criterion_4_analyses):
        oracle = _oracle_runs(analysis)
        assert analysis.runs == oracle, seed
        assert ce_from_reports(analysis.nonzero_events(), oracle, 7) == analysis.ces, seed


def test_ce_json_round_trip() -> None:
    # A library caller may pass an int k; the writer writes it as given.
    events_i = [_event("a", w, 1 if w == 4 else 0) for w in range(10)]
    events_j = [replace(_event("b", w, 1 if w == 4 else 0), k=2, warmup=True) for w in range(10)]
    ces = detect_correlated_events([*events_i, *events_j], [_run(1, 28, 42)], 7)
    back = ce_records_from_json(ce_records_to_json(ces), 1)
    assert back == ces and len(ces) == 1
    assert type(back[0].event_j.k) is int and type(back[0].event_i.k) is float


def _gapped_market(seed: int, apps: list[str], windows: list[TimeWindow]) -> np.ndarray:
    """Random metric points with about 10% missing; the third app is constant."""
    rng = random.Random(seed)
    values = [[rng.uniform(0, 20) if rng.random() > 0.1 else math.nan for _ in windows] for _ in apps]
    values[2] = [3.0] * len(windows)  # constant: rho undefined throughout
    return np.array(values)


def _pair_sweeps(block: PairBlock, apps: list[str], values: np.ndarray) -> list[list[CorrelationRecord]]:
    """Each row's pair, swept on its own by ``pair_correlations``."""
    points = {
        a: {w.start: v for w, v in zip(block.windows, row.tolist()) if not math.isnan(v)}
        for a, row in zip(apps, values)
    }
    return [pair_correlations(i, j, block.metric, points[i], points[j], block.windows, 14, 0.5)
            for i, j in zip(block.app_i, block.app_j)]


def test_market_correlations_match_per_pair_sweeps() -> None:
    # Every pair of the all-pairs block must equal its own pair sweep, gaps
    # (missing points) and unsorted app names included.
    apps = ["delta", "alpha", "charlie", "bravo"]
    windows = _grid(90)
    values = _gapped_market(606, apps, windows)
    blocks = list(market_correlations(apps, MetricKind.RATING, values, windows, 14, 0.5))
    assert sum(len(block.app_i) for block in blocks) == 6
    for block in blocks:
        wants = _pair_sweeps(block, apps, values)
        assert all(i < j for i, j in zip(block.app_i, block.app_j))
        assert block.records() == [record for want in wants for record in want]
        assert extract_runs(block) == [run for want in wants for run in _record_runs(want)]


def test_pair_blocks_never_change_a_result(monkeypatch) -> None:
    # Blocks of 1, 2, 3 and 4 of the 10 pairs, the last one ragged, must give
    # every series bit for bit as one block of all pairs and each pair's own
    # sweep do.
    apps = ["echo", "delta", "alpha", "charlie", "bravo"]
    windows = _grid(90)
    values = _gapped_market(607, apps, windows)
    kernel = correlate._correlate_rows
    block_rows: list[int] = []

    def counted(x, *args):
        block_rows.append(len(x))
        return kernel(x, *args)

    monkeypatch.setattr(correlate, "_correlate_rows", counted)

    def blocked(pairs_per_block: int) -> list[PairBlock]:
        block_rows.clear()
        monkeypatch.setattr(correlate, "_PAIR_CELLS", pairs_per_block * len(windows))
        return list(market_correlations(apps, MetricKind.RATING, values, windows, 14, 0.5))

    (whole,) = blocked(10)
    assert block_rows == [10]
    for pairs_per_block, rows in [(1, [1] * 10), (2, [2] * 5), (3, [3, 3, 3, 1]), (4, [4, 4, 2])]:
        blocks = blocked(pairs_per_block)
        assert block_rows == rows
        assert [len(block.app_i) for block in blocks] == rows
        at = 0
        for block in blocks:
            rows_of_whole = slice(at, at + len(block.app_i))
            at = rows_of_whole.stop
            assert (block.app_i, block.app_j) == (whole.app_i[rows_of_whole], whole.app_j[rows_of_whole])
            for name in ("rho", "c", "n_points"):
                got, want = getattr(block, name), getattr(whole, name)[rows_of_whole]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (block.app_i, name)
            wants = _pair_sweeps(block, apps, values)
            assert block.records() == [record for want in wants for record in want]
            for rho, want in zip(block.rho, wants):
                assert np.array([math.nan if r.rho is None else r.rho for r in want]).tobytes() == rho.tobytes()
        assert at == len(whole.app_i)


def test_market_correlations_working_set_is_bounded_by_blocks() -> None:
    # 40 apps over 1,456 windows: 780 pairs. What the kernel holds beyond
    # the blocks it returns stays near one block of _PAIR_CELLS cells; blocks
    # of 256 pairs whatever the grid length needed about 36 MiB here.
    rng = np.random.default_rng(0)
    windows = _grid(1456)
    values = rng.uniform(0, 5, (40, len(windows)))
    values[rng.random(values.shape) < 0.1] = np.nan
    apps = [f"app{a:02d}" for a in range(40)]
    tracemalloc.start()
    try:
        blocks = list(market_correlations(apps, MetricKind.RATING, values, windows, 28, 0.5))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(block.app_i) for block in blocks) == 780
    assert peak - kept < 4 * 2**20


def test_analysis_of_30_apps_holds_no_pair_by_window_matrix() -> None:
    # 435 pairs x 3 metrics x 364 windows: per-window series for every pair
    # kept to the end of the analysis peaked at 14.0 MiB here; cutting each
    # block into runs as it is computed keeps the peak near the runs, the
    # window stats and the CEs (4.4 MiB).
    reviews, _ = generate(default_scenario(n_apps=30, seed=0))
    catalog = build_catalog(reviews)
    del reviews
    tracemalloc.start()
    try:
        analysis = analyze_catalog(MarketConfig(seed=0), catalog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(analysis.runs) > 1000
    assert peak <= 6 * 2**20


def test_pair_block_size_never_changes_the_runs(monkeypatch) -> None:
    # Blocks of 1, 2 and 3 of each metric's 10 pairs, the last one ragged,
    # give the runs of one block of all pairs, and every block is cut into
    # runs through the pipeline's extract_runs, once.
    reviews, _ = generate(spike_pair_scenario(seed=0, n_apps=5))
    catalog = build_catalog(reviews)
    whole = analyze_catalog(MarketConfig(seed=0), catalog)
    assert whole.runs
    n_windows = len(next(iter(whole.daily_stats.values())).windows)
    cut = pipeline.extract_runs
    block_pairs: list[int] = []

    def counted(block):
        block_pairs.append(len(block.app_i))
        return cut(block)

    monkeypatch.setattr(pipeline, "extract_runs", counted)
    for pairs_per_block, sizes in [(10, [10]), (1, [1] * 10), (2, [2] * 5), (3, [3, 3, 3, 1])]:
        block_pairs.clear()
        monkeypatch.setattr(correlate, "_PAIR_CELLS", pairs_per_block * n_windows)
        assert analyze_catalog(MarketConfig(seed=0), catalog).runs == whole.runs, pairs_per_block
        assert block_pairs == sizes * 3


def test_runs_are_the_oracle_cut_of_the_correlations_view() -> None:
    reviews, _ = generate(spike_pair_scenario(seed=0))
    analysis = analyze_catalog(MarketConfig(seed=0), build_catalog(reviews))
    records = analysis.correlations
    n_windows = len(next(iter(analysis.daily_stats.values())).windows)
    assert len(records) == 45 * 3 * n_windows
    groups = groupby(records, key=attrgetter("app_i", "app_j", "metric"))
    assert analysis.runs == [run for _, group in groups for run in _record_runs(list(group))]
    assert analysis.runs
