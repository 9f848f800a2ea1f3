"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single CRITERION line so a verbose run reads as a
checklist. Oracles are recomputed from definitions inside this file, never
imported from the code under test.
"""
from __future__ import annotations

import json
import math
import os
import random
import time
from datetime import date, timedelta
from pathlib import Path

import pytest

from reviewpulse.config import MarketConfig
from reviewpulse.correlate import pair_correlations
from reviewpulse.detect import detect_series
from reviewpulse.ingest import build_catalog, parse_reviews, serialize_reviews
from reviewpulse.metrics import (
    MetricKind,
    TimeWindow,
    WindowStat,
    metric_delta,
)
from reviewpulse.pipeline import analyze_catalog, run_pipeline
from reviewpulse.summarize import requests_for_event
from reviewpulse.synth import default_scenario, flat_scenario, generate, spike_pair_scenario

from oracles import detect_correlation, pearson_rho

START = date(2024, 1, 4)


def _passed(n: int, detail: str) -> None:
    print(f"CRITERION {n}: PASS — {detail}")


# --- 1. Pearson oracle equivalence -----------------------------------------


def test_criterion_1_pearson_matches_definition_oracle() -> None:
    rng = random.Random(20240819)
    lookback = (START, START + timedelta(days=14))
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        xs = [(START + timedelta(days=i), rng.uniform(-50, 50)) for i in range(14)]
        ys = [(START + timedelta(days=i), rng.uniform(-50, 50)) for i in range(14)]
        got = pearson_rho(xs, ys, lookback)

        pairs = [(x, y) for (_, x), (_, y) in zip(xs, ys)]
        n = len(pairs)
        mx = sum(x for x, _ in pairs) / n
        my = sum(y for _, y in pairs) / n
        cov = sum((x - mx) * (y - my) for x, y in pairs) / n
        sdx = math.sqrt(sum((x - mx) ** 2 for x, _ in pairs) / n)
        sdy = math.sqrt(sum((y - my) ** 2 for _, y in pairs) / n)
        want = cov / (sdx * sdy)

        assert got is not None
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    _passed(1, f"1000 pairs, max |dev| {worst:.2e}, {elapsed * 1000:.0f} ms")


# --- 2. Delta/sigma oracle equivalence --------------------------------------


def test_criterion_2_delta_and_sigma_match_naive_recomputation() -> None:
    rng = random.Random(52)
    worst_delta = worst_sigma = 0.0
    for _ in range(100):
        mus: list[float | None] = [
            None if rng.random() < 0.08 else rng.uniform(0.0, 100.0) for _ in range(52)
        ]
        raw = [
            WindowStat(
                app_id="app", metric=MetricKind.COUNT,
                window=TimeWindow(START + timedelta(days=7 * i), 7),
                mu=mu, delta=None, n_obs=0,
            )
            for i, mu in enumerate(mus)
        ]
        stats = metric_delta(raw)

        # Naive deltas straight from the series values.
        for i, stat in enumerate(stats):
            if i == 0 or mus[i] is None or mus[i - 1] is None:
                assert stat.delta is None
            else:
                assert stat.delta is not None
                worst_delta = max(worst_delta, abs(stat.delta - (mus[i] - mus[i - 1])))

        # Naive expanding sigma: population stdev of every prior delta.
        events = detect_series(stats, baseline_start=START, k=2.0)
        deltas = [s.delta for s in stats]
        for i, event in enumerate(events):
            prior = [d for d in deltas[:i] if d is not None]
            if len(prior) < 4:
                assert event.sigma is None
            else:
                mean = sum(prior) / len(prior)
                naive = math.sqrt(sum((d - mean) ** 2 for d in prior) / len(prior))
                assert event.sigma is not None
                worst_sigma = max(worst_sigma, abs(event.sigma - naive))
    assert worst_delta <= 1e-12
    assert worst_sigma <= 1e-12
    _passed(2, f"100 series, max delta dev {worst_delta:.2e}, max sigma dev {worst_sigma:.2e}")


# --- 3. Null calibration -----------------------------------------------------


def test_criterion_3_flat_market_stays_silent() -> None:
    for seed in range(20):
        reviews, labels = generate(flat_scenario(seed=seed))
        assert labels == []
        analysis = analyze_catalog(MarketConfig(seed=seed), build_catalog(reviews))
        assert analysis.nonzero_events() == [], seed
        assert analysis.ces == [], seed
    _passed(3, "20 seeds, zero events and zero correlated events")


# --- 4. Injection recall ------------------------------------------------------


def test_criterion_4_spike_pair_recall_and_precision() -> None:
    t0 = time.perf_counter()

    # The rating and polarity channels of this market are provably flat;
    # demonstrate that once at full scope, then sweep seeds on counts.
    reviews, _ = generate(spike_pair_scenario(seed=0))
    full = analyze_catalog(MarketConfig(seed=0), build_catalog(reviews))
    assert [e for e in full.nonzero_events() if e.metric is not MetricKind.COUNT] == []
    assert [c for c in full.correlations if c.metric is not MetricKind.COUNT and c.c != 0] == []

    week30 = START + timedelta(days=30 * 7)
    hits = 0
    spurious_free = 0
    for seed in range(100):
        reviews, _ = generate(spike_pair_scenario(seed=seed))
        analysis = analyze_catalog(
            MarketConfig(seed=seed), build_catalog(reviews), metrics=(MetricKind.COUNT,)
        )
        fired = {
            e.app_id
            for e in analysis.nonzero_events()
            if e.e == 1 and e.window.start == week30
        }
        positive = [c for c in analysis.ces if c.ce == 1]
        if (
            {"spike0", "spike1"} <= fired
            and len(positive) == 1
            and positive[0].window.start == week30
            and (positive[0].app_i, positive[0].app_j) == ("spike0", "spike1")
        ):
            hits += 1
        if all(c.window.start == week30 for c in analysis.ces):
            spurious_free += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 95, f"injected pair recovered in only {hits}/100 seeds"
    assert spurious_free >= 90, f"uninjected weeks clean in only {spurious_free}/100 seeds"
    assert elapsed < 30.0, f"{elapsed:.1f} s"
    _passed(4, f"hits {hits}/100, clean {spurious_free}/100, {elapsed:.1f} s")


# --- 5. Boundary exactness ----------------------------------------------------


def test_criterion_5_thresholds_fire_at_equality() -> None:
    # Event side: baseline deltas [1, -1, 1, -1] give sigma exactly 1.0;
    # the final window's amplitude is exactly 2.0 = k * sigma.
    mus = [10.0, 11.0, 10.0, 11.0, 10.0, 12.0]
    raw = [
        WindowStat(
            app_id="app", metric=MetricKind.COUNT,
            window=TimeWindow(START + timedelta(days=7 * i), 7),
            mu=mu, delta=None, n_obs=0,
        )
        for i, mu in enumerate(mus)
    ]
    events = detect_series(metric_delta(raw), baseline_start=START, k=2.0)
    last = events[-1]
    assert last.sigma == 1.0
    assert last.a == 2.0
    assert last.e == 1

    # Correlation side: x = [1,2,3] and y = [5,4,6] tiled to nine points
    # give rho exactly 0.5 in float arithmetic, meeting h = 0.5.
    days = [START + timedelta(days=i) for i in range(9)]
    points_x = {d: float([1, 2, 3][i % 3]) for i, d in enumerate(days)}
    points_y = {d: float([5, 4, 6][i % 3]) for i, d in enumerate(days)}
    window = TimeWindow(days[-1], 1)
    records = pair_correlations(
        "a", "b", MetricKind.COUNT, points_x, points_y, [window], 14, 0.5
    )
    assert records[0].rho == 0.5  # exact, no tolerance
    assert records[0].c == 1
    assert detect_correlation(0.5, 0.5) == 1
    _passed(5, "a = k·sigma fires +1; rho = h classifies +1")


# --- 6. Determinism -------------------------------------------------------------


def test_criterion_6_identical_runs_produce_identical_bundles(tmp_path) -> None:
    reviews, _ = generate(spike_pair_scenario(seed=5, n_apps=4, n_windows=16, spike_window=10))
    dataset = tmp_path / "reviews.jsonl"
    dataset.write_text(serialize_reviews(reviews, fmt="jsonl"), encoding="utf-8")
    config = MarketConfig(seed=5)
    result_a = run_pipeline(config, [dataset], tmp_path / "a")
    result_b = run_pipeline(config, [dataset], tmp_path / "b")
    assert result_a.files == result_b.files
    for name in result_a.files:
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b, name
    _passed(6, f"{len(result_a.files)} bundle files byte-identical across runs")


# --- 7. Summarization prep -------------------------------------------------------


def test_criterion_7_requests_respect_polarity_and_take_all(tmp_path) -> None:
    from reviewpulse.detect import EventRecord

    window = TimeWindow(START, 7)
    # Five bodies of the event window, each with its (index, text, polarity) sentences.
    scored = [
        (f"review body {i}.", [(j, f"s{i}{j} bin{p}.", p) for j, p in enumerate(bins)])
        for i, bins in enumerate([(0, 4), (1, 3), (2, 2), (3, 0), (4, 1)])
    ]
    event = EventRecord(
        app_id="appA", metric=MetricKind.COUNT, window=window,
        e=1, a=3.0, sigma=1.0, k=2.0, baseline_n=6, warmup=False,
    )

    requests = requests_for_event(event, scored, n=50, master_seed=0)
    assert [r.variant for r in requests] == ["all", "positive", "negative"]
    by_variant = {r.variant: r for r in requests}
    # Take-all: fewer texts than n=50 means every candidate is included.
    assert by_variant["all"].n_sampled == 5 == by_variant["all"].n_available
    assert set(by_variant["positive"].texts) == {"s01 bin4.", "s11 bin3.", "s30 bin3.", "s40 bin4."}
    assert set(by_variant["negative"].texts) == {"s00 bin0.", "s10 bin1.", "s31 bin0.", "s41 bin1."}

    # Sample size is min(n, available) when the pool is larger than n.
    trimmed = requests_for_event(event, scored, n=2, master_seed=0)
    assert all(r.n_sampled == 2 for r in trimmed)
    assert all(r.n_available > 2 for r in trimmed)
    _passed(7, "three variants, polarity-pure pools, min(n, available) sampling")


# --- 8. Desk-scale performance -----------------------------------------------------


def test_criterion_8_two_hundred_thousand_reviews_under_a_minute(tmp_path) -> None:
    reviews, _ = generate(default_scenario(rate=400.0, seed=8))
    assert len(reviews) >= 200_000
    dataset = tmp_path / "reviews.jsonl"
    dataset.write_text(serialize_reviews(reviews, fmt="jsonl"), encoding="utf-8")

    t0 = time.perf_counter()
    result = run_pipeline(MarketConfig(seed=8), [dataset], tmp_path / "out")
    elapsed = time.perf_counter() - t0
    assert result.reviews_accepted == len(reviews)
    assert result.apps == 10
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    _passed(8, f"{result.reviews_accepted} reviews through the full pipeline in {elapsed:.1f} s")


# --- 9. Stretch: real dataset (non-binding) -----------------------------------


def test_criterion_9_real_dataset_divergence_report(tmp_path) -> None:
    path = os.environ.get("REVIEWPULSE_DATASET")
    if not path:
        pytest.skip("set REVIEWPULSE_DATASET to a review dump to run the stretch check")
    fmt = "csv" if path.endswith(".csv") else "jsonl"
    reviews, rejects = parse_reviews(Path(path).read_bytes(), fmt=fmt)
    analysis = analyze_catalog(MarketConfig(), build_catalog(reviews))
    events = len(analysis.nonzero_events())
    count_events = sum(1 for e in analysis.nonzero_events() if e.metric is MetricKind.COUNT)
    ces = len(analysis.ces)
    count_ces = sum(1 for c in analysis.ces if c.metric is MetricKind.COUNT)
    print(
        "CRITERION 9: REPORT — "
        f"events {events} (target 104), correlated events {ces} (target 35), "
        f"count-metric events {count_events} (target 24), "
        f"count-metric correlated events {count_ces} (target 26), "
        f"rejects {len(rejects)}"
    )
