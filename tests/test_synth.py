"""Synthetic market generator: labels, distributions, and score round trips."""
from __future__ import annotations

import math
from datetime import date, datetime, timedelta, timezone

import pytest

from reviewpulse.ingest import parse_reviews, serialize_reviews
from reviewpulse.metrics import MetricKind, score_reviews
from reviewpulse.sentiment import LexiconScorer
from reviewpulse.synth import (
    AppSpec,
    Injection,
    Scenario,
    default_scenario,
    flat_scenario,
    generate,
    scenario_from_dict,
    scenario_to_dict,
    spike_pair_scenario,
)


def _one_app_scenario(
    polarity_bin: int | None = None,
    rating: int | None = None,
    injections: tuple[Injection, ...] = (),
    n_windows: int = 3,
    rate: float = 5.0,
) -> Scenario:
    app = AppSpec(
        app_id="solo",
        rate_per_window=rate,
        count_model="constant",
        rating_weights={rating: 1.0} if rating else {4: 1.0},
        polarity_weights={polarity_bin: 1.0} if polarity_bin is not None else {2: 1.0},
    )
    return Scenario(
        start=date(2024, 1, 4), n_windows=n_windows, window_days=7,
        apps=(app,), injections=injections, seed=0,
    )


def test_uninjected_scenario_has_no_labels() -> None:
    _, labels = generate(flat_scenario(n_apps=3, n_windows=4))
    assert labels == []


def test_spike_pair_labels_name_both_apps() -> None:
    _, labels = generate(spike_pair_scenario(seed=0))
    assert {(l.app_id, l.metric, l.window_index, l.sign) for l in labels} == {
        ("spike0", MetricKind.COUNT, 30, 1),
        ("spike1", MetricKind.COUNT, 30, 1),
    }


def test_generation_is_deterministic_per_seed() -> None:
    scenario = spike_pair_scenario(seed=7, n_apps=4, n_windows=10, spike_window=5)
    first, _ = generate(scenario)
    second, _ = generate(scenario)
    assert first == second
    other, _ = generate(spike_pair_scenario(seed=8, n_apps=4, n_windows=10, spike_window=5))
    assert other != first


def test_poisson_totals_stay_near_their_expectation() -> None:
    # Total review count across A apps and W windows at rate L is
    # Poisson(A*W*L): mean 3200, sd ~56.6. All twenty seeds checked in
    # must land inside the 4-sigma band.
    mu = 4 * 20 * 40.0
    sd = math.sqrt(mu)
    for seed in range(20):
        reviews, _ = generate(default_scenario(n_apps=4, n_windows=20, rate=40.0, seed=seed))
        assert abs(len(reviews) - mu) <= 4 * sd, seed


def test_constant_model_publishes_exactly_the_rate() -> None:
    reviews, _ = generate(_one_app_scenario(rate=21.0, n_windows=4))
    assert len(reviews) == 21 * 4
    by_day: dict[date, int] = {}
    for r in reviews:
        by_day[r.timestamp.date()] = by_day.get(r.timestamp.date(), 0) + 1
    assert set(by_day.values()) == {3}  # 21 per 7-day window, evenly spread


def test_timestamps_fall_inside_their_review_id_window() -> None:
    scenario = spike_pair_scenario(seed=3, n_apps=4, n_windows=8, spike_window=5)
    reviews, _ = generate(scenario)
    base = datetime(2024, 1, 4, tzinfo=timezone.utc)
    for r in reviews:
        widx = int(r.review_id.split("-w")[1].split("-")[0])
        lo = base + timedelta(days=7 * widx)
        assert lo <= r.timestamp < lo + timedelta(days=7)


def test_reviews_are_canonically_ordered() -> None:
    reviews, _ = generate(spike_pair_scenario(seed=1, n_apps=4, n_windows=6, spike_window=5))
    keys = [(r.timestamp, r.review_id) for r in reviews]
    assert keys == sorted(keys)


def test_count_spike_multiplies_the_window_rate() -> None:
    inj = Injection(apps=("solo",), window_index=1, kind="count-spike", magnitude=5.0)
    reviews, labels = generate(_one_app_scenario(rate=10.0, injections=(inj,)))
    per_window: dict[int, int] = {}
    for r in reviews:
        widx = int(r.review_id.split("-w")[1].split("-")[0])
        per_window[widx] = per_window.get(widx, 0) + 1
    assert per_window == {0: 10, 1: 50, 2: 10}
    assert [(l.metric, l.sign) for l in labels] == [(MetricKind.COUNT, 1)]


def test_rating_drop_lowers_and_clamps_raw_ratings() -> None:
    inj = Injection(apps=("solo",), window_index=1, kind="rating-drop", magnitude=2.0)
    reviews, labels = generate(_one_app_scenario(rating=3, injections=(inj,)))
    for r in reviews:
        widx = int(r.review_id.split("-w")[1].split("-")[0])
        assert r.raw_rating == (1 if widx == 1 else 3)
    assert [(l.metric, l.sign) for l in labels] == [(MetricKind.RATING, -1)]


def test_every_polarity_bin_survives_the_scoring_round_trip() -> None:
    scorer = LexiconScorer()
    for target in range(5):
        reviews, _ = generate(_one_app_scenario(polarity_bin=target, rate=20.0, n_windows=2))
        scored = score_reviews([r.body for r in reviews], scorer)
        polarities = {p for parts in scored for _, _, p in parts}
        assert polarities == {target}, f"bin {target} scored as {polarities}"


def test_polarity_shift_moves_the_bin_up() -> None:
    inj = Injection(apps=("solo",), window_index=1, kind="polarity-shift", magnitude=1.0)
    reviews, labels = generate(_one_app_scenario(polarity_bin=2, injections=(inj,)))
    scored = score_reviews([r.body for r in reviews], LexiconScorer())
    for r, parts in zip(reviews, scored):
        widx = int(r.review_id.split("-w")[1].split("-")[0])
        want = 3 if widx == 1 else 2
        assert {p for _, _, p in parts} == {want}
    assert [(l.metric, l.sign) for l in labels] == [(MetricKind.POLARITY, 1)]


def test_generated_reviews_survive_serialization() -> None:
    reviews, _ = generate(spike_pair_scenario(seed=2, n_apps=3, n_windows=5, spike_window=3))
    text = serialize_reviews(reviews, fmt="jsonl")
    parsed, rejects = parse_reviews(text, fmt="jsonl")
    assert rejects == []
    assert parsed == reviews


def test_scenario_dict_round_trip() -> None:
    for scenario in (
        default_scenario(n_apps=3, n_windows=5),
        spike_pair_scenario(seed=4),
        flat_scenario(n_apps=2),
    ):
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_invalid_scenarios_are_rejected_with_every_error() -> None:
    bad = Scenario(
        start=date(2024, 1, 4), n_windows=4, window_days=7,
        apps=(
            AppSpec(app_id="a", rate_per_window=-1.0),
            AppSpec(app_id="a", rate_per_window=5.0),
        ),
        injections=(Injection(apps=("ghost",), window_index=9, kind="mystery", magnitude=2.0),),
        seed=0,
    )
    with pytest.raises(ValueError) as err:
        generate(bad)
    message = str(err.value)
    for fragment in (
        "duplicate app ids",
        "rate_per_window must be >= 0",
        "unknown injection kind",
        "outside 0..3",
        "unknown app 'ghost'",
    ):
        assert fragment in message


def test_scenario_from_dict_rejects_missing_fields() -> None:
    with pytest.raises(ValueError, match="bad scenario"):
        scenario_from_dict({"n_windows": 4})


def test_canonical_order_holds_for_any_app_ids() -> None:
    # Equal timestamps across apps go by review_id, also for app ids that
    # are prefixes of one another or come unsorted.
    from dataclasses import replace
    from operator import attrgetter

    base = default_scenario(n_apps=5, n_windows=6, seed=2)
    for names in (["zeta", "alpha", "mid", "b", "a"], ["a", "a-w001", "a!", "ab", "a-"]):
        apps = tuple(
            replace(a, app_id=n, count_model="constant" if k % 2 else "poisson")
            for k, (a, n) in enumerate(zip(base.apps, names))
        )
        reviews, _ = generate(replace(base, apps=apps))
        assert reviews == sorted(reviews, key=attrgetter("timestamp", "review_id"))
