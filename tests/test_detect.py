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

import pytest

from reviewpulse.detect import (
    baseline_sigma,
    detect_series,
    read_events_csv,
    write_events_csv,
)
from reviewpulse.metrics import MetricKind, TimeWindow, WindowStat

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
    text = write_events_csv(records)
    back = read_events_csv(text, window_days=7, k=2.0)
    assert back == records
    with pytest.raises(ValueError):
        read_events_csv("nope\n", window_days=7, k=2.0)


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
