"""Baseline-deviation event detection.

The sigma and series tests recompute everything naively in place: sigma
as a two-pass mean/variance, events by replaying the expanding-baseline
rule step by step.
"""
from __future__ import annotations

import math
import random
import statistics
import sys
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reviewpulse.config import MarketConfig
from reviewpulse.detect import (
    EventRecord,
    detect_series,
    read_events_csv,
    write_events_csv,
)
from reviewpulse.ingest import build_catalog, midnight_us
from reviewpulse.metrics import MetricKind, TimeWindow, WindowStat
from reviewpulse.pipeline import analyze_catalog
from reviewpulse.synth import default_scenario, generate

from oracles import baseline_sigma, write_events_csv as events_csv_by_row

START = date(2024, 1, 4)


def _stats(mus: list[float | None], app: str = "appA") -> list[WindowStat]:
    out = []
    prev: float | None = None
    for i, mu in enumerate(mus):
        delta = None if (i == 0 or mu is None or prev is None) else mu - prev
        out.append(
            WindowStat(
                app_id=app,
                metric=MetricKind.COUNT,
                window=TimeWindow(START + timedelta(days=7 * i), 7),
                mu=mu,
                delta=delta,
                n_obs=0,
            )
        )
        prev = mu
    return out


def _naive_pstdev(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def test_sigma_trivial_values() -> None:
    assert baseline_sigma([0.0, 0.0, 0.0, 0.0]) == 0.0
    assert baseline_sigma([1.0, -1.0, 1.0, -1.0]) == 1.0


def test_sigma_needs_min_baseline() -> None:
    assert baseline_sigma([1.0, 2.0, 3.0]) is None
    assert baseline_sigma([1.0, 2.0, 3.0], min_baseline=3) is not None


def test_sigma_sample_mode() -> None:
    values = [1.0, 2.0, 3.0, 4.0]
    pop = baseline_sigma(values, mode="population")
    samp = baseline_sigma(values, mode="sample")
    assert samp == pytest.approx(pop * math.sqrt(4 / 3))
    with pytest.raises(ValueError):
        baseline_sigma(values, mode="bessel")


def test_sigma_matches_naive_two_pass() -> None:
    rng = random.Random(17)
    for _ in range(100):
        values = [rng.uniform(-50, 50) for _ in range(rng.randrange(4, 60))]
        assert baseline_sigma(values) == pytest.approx(_naive_pstdev(values), abs=1e-12)


def test_flat_series_never_fires() -> None:
    records = detect_series(_stats([5.0] * 20), START, k=2.0)
    assert all(r.e == 0 for r in records)
    # after warm-up the baseline is all zeros: degenerate, not eventful
    assert records[-1].sigma == 0.0 and not records[-1].warmup


def test_warmup_windows_are_flagged_and_quiet() -> None:
    mus = [10.0, 30.0, -10.0, 40.0, 5.0, 20.0]
    records = detect_series(_stats(mus), START, k=0.1)
    # Window 0 has no delta; windows 1..4 accumulate deltas 1..4.
    assert [r.warmup for r in records] == [True, True, True, True, True, False]
    assert all(r.e == 0 for r in records[:5])


def test_five_sigma_injection_fires_exactly_once_with_brute_force_oracle() -> None:
    # Alternating +-1 deltas (sigma exactly 1), one +5 step at window 30,
    # alternation resumed on the shifted level afterwards.
    mus: list[float] = []
    for i in range(40):
        base = 10.0 if i < 30 else 15.0
        mus.append(base + (i % 2))
    stats = _stats(mus)
    records = detect_series(stats, START, k=2.0)

    # Brute force: recompute sigma from scratch at every window.
    deltas_so_far: list[float] = []
    expected: list[int] = []
    for stat in stats:
        a = stat.delta
        sigma = _naive_pstdev(deltas_so_far) if len(deltas_so_far) >= 4 else None
        if a is None or sigma is None or sigma == 0.0:
            expected.append(0)
        elif a >= 2.0 * sigma:
            expected.append(1)
        elif a <= -2.0 * sigma:
            expected.append(-1)
        else:
            expected.append(0)
        if a is not None:
            deltas_so_far.append(a)

    assert [r.e for r in records] == expected
    assert [i for i, r in enumerate(records) if r.e != 0] == [30]
    assert records[30].e == 1


def test_boundary_delta_exactly_k_sigma_fires() -> None:
    # deltas 1,-1,1,-1 give sigma exactly 1.0; the next delta is exactly k.
    mus = [10.0, 11.0, 10.0, 11.0, 10.0, 12.0]
    records = detect_series(_stats(mus), START, k=2.0)
    last = records[-1]
    assert last.sigma == 1.0 and last.a == 2.0
    assert last.e == 1
    down = detect_series(_stats([10.0, 11.0, 10.0, 11.0, 10.0, 8.0]), START, k=2.0)
    assert down[-1].a == -2.0 and down[-1].e == -1


def test_missing_delta_yields_zero_and_skips_baseline() -> None:
    mus: list[float | None] = [10.0, 12.0, None, 11.0, 13.0, 9.0, 30.0]
    records = detect_series(_stats(mus), START, k=2.0)
    by_start = {r.window.start: r for r in records}
    hole = START + timedelta(days=14)
    assert by_start[hole].a is None and by_start[hole].e == 0
    # The two deltas adjacent to the hole are both missing, so after six
    # windows the baseline has seen only 3 deltas: still warming up.
    assert records[-1].baseline_n == 3 and records[-1].warmup


def test_windows_before_baseline_start_are_excluded() -> None:
    # One wild -100 swing before the cut, tame alternation after it.
    mus = [100.0, 0.0, 1.0, 0.0, 1.0, 0.0, 3.0]
    cut = START + timedelta(days=14)
    records = detect_series(_stats(mus), cut, k=2.0)
    assert records[0].window.start == cut
    # With the cut, the baseline at the last window is [1,-1,1,-1]: the
    # wild pre-cut delta never entered, so the +3 step fires.
    assert records[-1].sigma == 1.0 and records[-1].e == 1
    # Without the cut the -100 delta would have drowned it out.
    uncut = detect_series(_stats(mus), START, k=2.0)
    assert uncut[-1].sigma > 10 and uncut[-1].e == 0


def test_detection_is_causal() -> None:
    rng = random.Random(23)
    mus = [rng.uniform(0, 10) for _ in range(30)]
    full = detect_series(_stats(mus), START, k=2.0)
    truncated = detect_series(_stats(mus[:20]), START, k=2.0)
    assert full[:20] == truncated


def test_higher_k_detects_subset() -> None:
    rng = random.Random(29)
    mus = [rng.uniform(0, 100) for _ in range(52)]
    loose = detect_series(_stats(mus), START, k=1.0)
    strict = detect_series(_stats(mus), START, k=3.0)
    fired_loose = {r.window.start for r in loose if r.e != 0}
    fired_strict = {r.window.start for r in strict if r.e != 0}
    assert fired_strict <= fired_loose


def test_events_csv_round_trip() -> None:
    mus = [10.0, 11.0, 10.0, None, 10.0, 13.0, 2.0]
    records = detect_series(_stats(mus), START, k=2.0)
    text = "".join(write_events_csv(records))
    back = read_events_csv(text, window_days=7, k=2.0)
    assert back == records
    with pytest.raises(ValueError):
        read_events_csv("nope\n", window_days=7, k=2.0)


_APP_IDS = st.text(st.sampled_from(',"\r\n a\xe9\u20ac\U0001f600') | st.characters(blacklist_categories=("Cs",)),
                   min_size=1, max_size=4)
_A_OR_SIGMA = st.none() | st.sampled_from([-0.0, 5e-324, 1e308]) | st.floats()
_EVENT_CELLS = st.tuples(st.builds(TimeWindow, st.dates(), st.integers(1, 28)), st.sampled_from([-1, 0, 1]),
                         _A_OR_SIGMA, _A_OR_SIGMA, st.integers(0, 2**63 - 1), st.booleans())


@given(st.lists(st.tuples(_APP_IDS, st.sampled_from(MetricKind), st.lists(_EVENT_CELLS, max_size=6)), max_size=4))
def test_events_csv_writer_matches_the_per_row_writer(series) -> None:
    # Each series' records come together, as a run writes them, and go into
    # one chunk; the text is what one csv.writer row a record writes.
    records = [EventRecord(app, metric, window, e, a, sigma, 2.0, baseline_n, warmup)
               for app, metric, cells in series for window, e, a, sigma, baseline_n, warmup in cells]
    assert "".join(write_events_csv(records)) == events_csv_by_row(records)


@pytest.mark.parametrize(
    "cells, refused",
    [
        ("1.0,,,0,true", "'1.0' is not an integer"),
        ("0,,,x,true", "'x' is not an integer"),
        (f"{2**63},,,0,true", f"{2**63} is beyond int64"),
        ("1,x,0.5,4,false", "'x' is not a number"),
        ("1,1.5,0.5x,4,false", "'0.5x' is not a number"),
        ("0,,,07,true", "'07' is not an integer"),
        ("-01,1.5,0.5,4,false", "'-01' is not an integer"),
    ],
    ids=["e-float", "baseline-n-text", "e-beyond-int64", "a-text", "sigma-text", "baseline-n-leading-zero",
         "e-leading-zero"],
)
def test_events_csv_names_the_line_of_a_bad_numeric_cell(cells: str, refused: str) -> None:
    text = "app_id,metric,t0,e,a,sigma,baseline_n,warmup\na,count,2024-01-04,0,,,0,true\n"
    with pytest.raises(ValueError) as exc:
        read_events_csv(text + f"a,count,2024-01-11,{cells}\n", window_days=7, k=2.0)
    assert str(exc.value) == f"events of (a, count), CSV line 3: {refused}"


@pytest.mark.parametrize(
    "cells, refused",
    [
        ("1,1.5,-0.5,4,false", "sigma -0.5 is negative"),
        ("0,1.5,0.5,-3,false", "baseline_n -3 is negative"),
        ("1,,,4,false", "e 1 without both a and sigma"),
        ("-1,,0.5,4,false", "e -1 without both a and sigma"),
        ("1,-9.0,0.5,4,false", "e 1 is not the sign of a -9.0"),
        ("-1,0.0,0.5,4,false", "e -1 is not the sign of a 0.0"),
    ],
    ids=["negative-sigma", "negative-baseline-n", "fired-without-a-or-sigma", "fired-without-a",
         "e-against-a", "fired-on-zero-a"],
)
def test_events_csv_refuses_an_event_detect_never_writes(cells: str, refused: str) -> None:
    text = "app_id,metric,t0,e,a,sigma,baseline_n,warmup\na,count,2024-01-04,0,,,0,true\n"
    with pytest.raises(ValueError) as exc:
        read_events_csv(text + f"a,count,2024-01-11,{cells}\n", window_days=7, k=2.0)
    assert str(exc.value) == f"events of (a, count), CSV line 3: {refused}"


@pytest.mark.parametrize("k", [math.inf, math.nan, 0.0, -2.0])
def test_events_csv_refuses_a_sensitivity_detect_never_judges_by(k: float) -> None:
    text = "app_id,metric,t0,e,a,sigma,baseline_n,warmup\na,count,2024-01-04,0,,,0,true\n"
    with pytest.raises(ValueError) as exc:
        read_events_csv(text, window_days=7, k=k)
    assert str(exc.value) == f"events of (a, count), CSV line 2: k {k!r} is not finite and > 0"


@pytest.mark.parametrize(
    "t0s, window_days, refused",
    [
        (["01", "01"], 7, "CSV line 5: the window from 2024-01-01 overlaps the window from 2024-01-01"),
        (["01", "03"], 7, "CSV line 5: the window from 2024-01-03 overlaps the window from 2024-01-01"),
        (["08", "01"], 7, "CSV line 5: the window from 2024-01-01 comes before the window from 2024-01-08"),
        (["01", "09"], 7, "CSV line 5: the window from 2024-01-09 is off the grid of the window from 2024-01-01"),
        (["01", "15", "22", "22"], 7, "CSV line 9: the window from 2024-01-22 overlaps the window from 2024-01-22"),
        (["01", "02"], 2, "CSV line 5: the window from 2024-01-02 overlaps the window from 2024-01-01"),
    ],
    ids=["repeat", "overlap", "step-back", "off-grid", "repeat-after-gap", "overlap-2-day"],
)
def test_events_csv_names_the_series_and_line_of_a_refused_window(t0s, window_days, refused) -> None:
    # Windows are checked per series: another series' rows around them change
    # nothing. A gap of whole windows is legal (dropped zero rows; see
    # test_cli.py::test_ce_stage_rebuilds_the_run_output_from_csvs_alone).
    others = [f"y,count,{date(2025, 1, 1) + timedelta(days=14 * k)},0,,,0,true\n" for k in range(5)]
    rows = [others[0]]
    for k, t0 in enumerate(t0s):
        rows += [f"x,count,2024-01-{t0},{(-1) ** k},{3.0 * (-1) ** k},1.0,8,false\n", others[k + 1]]
    with pytest.raises(ValueError) as exc:
        read_events_csv("app_id,metric,t0,e,a,sigma,baseline_n,warmup\n" + "".join(rows), window_days, k=2.0)
    assert str(exc.value) == f"events of (x, count), {refused}"


_DELTA_KINDS = (
    lambda rng: rng.uniform(-50, 50),
    lambda rng: float(rng.randrange(-9, 9)),
    lambda rng: rng.choice([1 / 3, 0.0, -0.0]),
    lambda rng: rng.choice([-1, 1]) * rng.uniform(1, 10) * 10.0 ** rng.randrange(-300, 300),
    lambda rng: rng.choice([-1, 1]) * rng.randrange(1, 2**52) * 5e-324,  # subnormal
)


def test_sigma_is_the_correctly_rounded_exact_standard_deviation() -> None:
    # Oracle: the exact variance as a fraction; the float returned must be
    # the nearest float to its square root (within half an ulp either way).
    # Deltas mix subnormals, magnitudes from 1e-300 to 1e300, integers and
    # signed zeros; on Python 3.11+ statistics.pstdev / stdev are also
    # correctly rounded, so they must agree bit for bit.
    from fractions import Fraction

    rng = random.Random(9)
    for _ in range(1000):
        kinds = rng.sample(_DELTA_KINDS, rng.randrange(1, len(_DELTA_KINDS) + 1))
        values = [rng.choice(kinds)(rng) for _ in range(rng.randrange(4, 40))]
        for mode, ddof, stdlib in (("population", 0, statistics.pstdev), ("sample", 1, statistics.stdev)):
            sigma = baseline_sigma(values, mode=mode)
            exact = [Fraction(v) for v in values]
            mean = sum(exact) / len(exact)
            variance = sum((v - mean) ** 2 for v in exact) / (len(exact) - ddof)
            below = (Fraction(sigma) + Fraction(math.nextafter(sigma, -math.inf))) / 2
            above = (Fraction(sigma) + Fraction(math.nextafter(sigma, math.inf))) / 2
            assert below * below <= variance <= above * above, (values, mode)
            if sys.version_info >= (3, 11):
                assert sigma == stdlib(values), (values, mode)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_delta_is_a_value_error(bad: float) -> None:
    with pytest.raises(ValueError, match="finite"):
        baseline_sigma([1.0, 2.0, bad, 3.0])


# A market whose composition changes mid-span: in default_scenario(n_apps=6,
# seed=0), app05 enters at 2024-07-25 (its earlier reviews are dropped) and
# app04 leaves then (its later ones are dropped). The span is fixed by the
# config, so both apps are series over all 52 weeks.
CHANGE = date(2024, 7, 25)


@pytest.fixture(scope="module")
def entry_and_exit() -> dict[tuple[str, MetricKind, date], EventRecord]:
    reviews, _ = generate(default_scenario(n_apps=6, seed=0))
    cut = midnight_us(CHANGE)
    dropped = (((reviews.app_id == "app05") & (reviews.stamp_us < cut))
               | ((reviews.app_id == "app04") & (reviews.stamp_us >= cut)))
    config = MarketConfig(span_start=date(2024, 1, 4), span_end=date(2025, 1, 2))
    analysis = analyze_catalog(config, build_catalog(reviews[np.flatnonzero(~dropped)]))
    return {(e.app_id, e.metric, e.window.start): e for e in analysis.all_events()}


def test_an_entrant_count_does_not_fire_at_entry_as_its_sigma_is_degenerate(entry_and_exit) -> None:
    # 28 zero deltas before entry give sigma 0.0, which suppresses the event
    # however large the entry's delta.
    entry = entry_and_exit[("app05", MetricKind.COUNT, CHANGE)]
    assert (entry.e, entry.a, entry.sigma, entry.baseline_n, entry.warmup) == (0, 48.0, 0.0, 28, False)
    after = entry_and_exit[("app05", MetricKind.COUNT, CHANGE + timedelta(days=7))]
    assert after.sigma > 0.0 and after.baseline_n == 29


@pytest.mark.parametrize("metric", [MetricKind.RATING, MetricKind.POLARITY])
def test_an_entrant_mean_metric_is_in_warm_up_through_the_window_after_entry(entry_and_exit, metric) -> None:
    # Before entry the app has no mean, so no delta joins its baseline: at
    # entry the delta is missing too, and the window after has a delta but
    # an empty baseline.
    entry = entry_and_exit[("app05", metric, CHANGE)]
    after = entry_and_exit[("app05", metric, CHANGE + timedelta(days=7))]
    assert (entry.e, entry.a, entry.sigma, entry.baseline_n, entry.warmup) == (0, None, None, 0, True)
    assert (after.e, after.sigma, after.baseline_n, after.warmup) == (0, None, 0, True)
    assert after.a is not None


def test_a_leaving_app_count_fires_a_drop_at_exit(entry_and_exit) -> None:
    exit_ = entry_and_exit[("app04", MetricKind.COUNT, CHANGE)]
    assert (exit_.e, exit_.a, exit_.baseline_n, exit_.warmup) == (-1, -43.0, 28, False)
    assert exit_.a <= -exit_.k * exit_.sigma
    later = [e for (app, _, start), e in entry_and_exit.items() if app == "app04" and start > CHANGE]
    assert later and all(e.e == 0 for e in later)


@pytest.mark.parametrize("metric", [MetricKind.RATING, MetricKind.POLARITY])
def test_a_leaving_app_mean_metric_has_a_missing_delta_from_exit_on(entry_and_exit, metric) -> None:
    # The baseline is out of warm-up and not degenerate: the missing delta
    # alone keeps e at 0, and no later window adds to the baseline.
    windows = [e for (app, m, start), e in entry_and_exit.items() if app == "app04" and m is metric and start >= CHANGE]
    assert len(windows) == 23
    for event in windows:
        assert (event.e, event.a, event.baseline_n, event.warmup) == (0, None, 28, False)
        assert event.sigma > 0.0
