"""Sampling, polarity pools, prompt rendering, and the mock client."""
from __future__ import annotations

import random
from datetime import date
from pathlib import Path

import pytest

from reviewpulse.correlate import CorrelatedEventRecord, CorrelationRun
from reviewpulse.detect import EventRecord
from reviewpulse.ingest import Review
from reviewpulse.metrics import BodyScore, MetricKind, TimeWindow
from reviewpulse.sentiment import LexiconScorer
from reviewpulse.summarize import (
    MockSummarizer,
    build_prompt,
    build_requests,
    call_with_retry,
    derive_seed,
    request_report_entry,
    requests_for_event,
    sample_reviews,
    summary_report_entry,
)

from oracles import window_contains

WINDOW = TimeWindow(date(2024, 8, 1), 7)


def _scored(i: int, polarities: tuple[int, ...], body: str | None = None) -> tuple[str, BodyScore]:
    return body or f"body {i}.", [(j, f"sentence {i}-{j}.", p) for j, p in enumerate(polarities)]


def _event(e: int = 1, app: str = "appA", window: TimeWindow = WINDOW) -> EventRecord:
    return EventRecord(
        app_id=app, metric=MetricKind.COUNT, window=window,
        e=e, a=2.5 * e, sigma=1.0, k=2.0, baseline_n=10, warmup=False,
    )


def test_sampling_takes_everything_when_pool_is_small() -> None:
    items = [f"t{i}" for i in range(30)]
    assert sample_reviews(items, 50, seed=9) == items


def test_sampling_is_an_order_preserving_subset() -> None:
    items = list(range(200))
    picked = sample_reviews(items, 50, seed=3)
    assert len(picked) == 50
    assert picked == sorted(picked)
    assert set(picked) <= set(items)
    assert sample_reviews(items, 50, seed=3) == picked  # same seed, same sample
    assert sample_reviews(items, 50, seed=4) != picked  # nearby seed differs


def test_sampling_inclusion_counts_are_uniform() -> None:
    # 10_000 draws of 50 from 1000. Each item's inclusion count is
    # Binomial(10_000, 0.05): mean 500, sd ~21.8. All 1000 counts must sit
    # inside the 3-sigma band [434.6, 565.4]; checked against master seed 0.
    items = list(range(1000))
    counts = [0] * 1000
    for t in range(10_000):
        for idx in sample_reviews(items, 50, derive_seed(0, "uniformity", t)):
            counts[idx] += 1
    assert min(counts) >= 434.6
    assert max(counts) <= 565.4


def _pools(scored: list[tuple[str, BodyScore]]) -> dict[str, tuple[str, ...]]:
    # n covers every pool, so each request holds its whole pool.
    return {r.variant: r.texts for r in requests_for_event(_event(), scored, n=10_000, master_seed=0)}


def test_polarity_pools_split_at_the_bin_bounds() -> None:
    pools = _pools([_scored(0, (0, 1, 2, 3, 4))])
    assert pools["negative"] == ("sentence 0-0.", "sentence 0-1.")
    assert pools["positive"] == ("sentence 0-3.", "sentence 0-4.")


def test_all_neutral_window_requests_whole_bodies_only() -> None:
    assert list(_pools([_scored(i, (2, 2)) for i in range(5)])) == ["all"]


def test_polarity_pools_match_filter_oracle() -> None:
    rng = random.Random(42)
    scored = [_scored(i, tuple(rng.choice([0, 1, 2, 3, 4]) for _ in range(5))) for i in range(100)]
    sentences = [(text, p) for _, parts in scored for _, text, p in parts]
    pools = _pools(scored)
    assert pools["positive"] == tuple(text for text, p in sentences if p >= 3)
    assert pools["negative"] == tuple(text for text, p in sentences if p <= 1)
    assert pools["all"] == tuple(body for body, _ in scored)


def test_event_with_no_reviews_emits_no_requests() -> None:
    assert requests_for_event(_event(), [], n=50, master_seed=0) == []


def test_variants_draw_from_their_own_pools() -> None:
    scored = [
        _scored(0, (4, 0)),   # one positive + one negative sentence
        _scored(1, (2,)),     # neutral only
        _scored(2, (3, 3)),
    ]
    requests = requests_for_event(_event(), scored, n=50, master_seed=0)
    by_variant = {r.variant: r for r in requests}
    assert list(by_variant) == ["all", "positive", "negative"]
    assert by_variant["all"].texts == ("body 0.", "body 1.", "body 2.")
    assert by_variant["positive"].texts == ("sentence 0-0.", "sentence 2-0.", "sentence 2-1.")
    assert by_variant["negative"].texts == ("sentence 0-1.",)
    assert len({r.seed for r in requests}) == 3  # per-variant seeds differ
    for r in requests:
        assert r.n_available == len(r.texts)  # take-all regime here
        assert r.n_requested == 50


def test_variant_without_material_is_omitted() -> None:
    scored = [_scored(0, (4,)), _scored(1, (3,))]  # nothing negative
    requests = requests_for_event(_event(), scored, n=50, master_seed=0)
    assert [r.variant for r in requests] == ["all", "positive"]


def test_build_requests_dedups_shared_events_and_skips_quiet_sides() -> None:
    run = CorrelationRun(
        app_i="appA", app_j="appB", metric=MetricKind.COUNT, sign=1,
        t_start=WINDOW.start, t_end=WINDOW.end,
    )
    shared = _event(1, "appA")
    other = TimeWindow(date(2024, 8, 8), 7)
    records = [
        CorrelatedEventRecord(
            app_i="appA", app_j="appB", metric=MetricKind.COUNT, window=WINDOW,
            ce=1, event_i=shared, event_j=_event(1, "appB"), run=run, first_interval=WINDOW,
        ),
        CorrelatedEventRecord(
            app_i="appA", app_j="appB", metric=MetricKind.COUNT, window=other,
            ce=1, event_i=shared, event_j=_event(0, "appB", other), run=run, first_interval=WINDOW,
        ),
    ]
    calls: list[tuple[str, date]] = []

    def window_scored(app_id: str, window: TimeWindow) -> list[tuple[str, BodyScore]]:
        calls.append((app_id, window.start))
        return [_scored(0, (4,))]

    requests = build_requests(records, window_scored, n=50, master_seed=0)
    # The shared appA event is fetched once; the e=0 appB event not at all.
    assert calls == [("appA", WINDOW.start), ("appB", WINDOW.start)]
    assert {(r.app_id, r.variant) for r in requests} == {
        ("appA", "all"), ("appA", "positive"),
        ("appB", "all"), ("appB", "positive"),
    }


def test_requests_use_only_text_from_the_event_window() -> None:
    scored = [_scored(i, (4, 0, 2)) for i in range(5)]
    pools = {body for body, _ in scored} | {
        text for _, parts in scored for _, text, _ in parts
    }
    for request in requests_for_event(_event(), scored, n=3, master_seed=1):
        assert set(request.texts) <= pools


def test_prompt_is_deterministic_and_fully_substituted() -> None:
    requests = requests_for_event(_event(), [_scored(0, (4,))], n=50, master_seed=0)
    prompt = build_prompt(requests[0])
    assert prompt == build_prompt(requests[0])
    for placeholder in ("{app}", "{metric}", "{window_start}", "{window_end}",
                        "{variant}", "{n_sampled}", "{reviews}"):
        assert placeholder not in prompt
    assert "appA" in prompt
    assert "2024-08-01" in prompt and "2024-08-08" in prompt
    assert "1. body 0." in prompt


def test_placeholder_text_inside_reviews_is_not_reexpanded() -> None:
    scored = [_scored(0, (2,), body="Weird {app} literal body.")]
    requests = requests_for_event(_event(), scored, n=50, master_seed=0)
    prompt = build_prompt(requests[0])
    assert "Weird {app} literal body." in prompt


def test_prompt_matches_golden_file() -> None:
    from reviewpulse.summarize import SummaryRequest

    request = SummaryRequest(
        app_id="appA",
        metric=MetricKind.COUNT,
        window=WINDOW,
        variant="all",
        texts=(
            "Great update. Love the new menu.",
            "Crashes on launch again.",
            "Works fine overall.",
        ),
        n_requested=50,
        n_available=3,
        seed=derive_seed(0, "summarize", "appA", "count", WINDOW.start, "all"),
    )
    golden = Path(__file__).parent / "data" / "golden_prompt.txt"
    assert build_prompt(request) == golden.read_text(encoding="utf-8")


def test_mock_summarizer_depends_only_on_prompt_bytes() -> None:
    client = MockSummarizer()
    a = client.summarize("one prompt")
    assert a == MockSummarizer().summarize("one prompt")
    assert a != client.summarize("another prompt")
    assert a.startswith("[mock summary ")


class _Flaky:
    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def summarize(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient {self.calls}")
        return f"ok after {self.calls}"


def test_retry_recovers_from_transient_failures() -> None:
    delays: list[float] = []
    client = _Flaky(failures=2)
    out = call_with_retry(client, "p", attempts=3, sleep=delays.append)
    assert out == "ok after 3"
    assert delays == [0.5, 1.0]


def test_retry_reraises_after_exhaustion() -> None:
    delays: list[float] = []
    client = _Flaky(failures=99)
    with pytest.raises(RuntimeError, match="transient 3"):
        call_with_retry(client, "p", attempts=3, sleep=delays.append)
    assert client.calls == 3
    assert delays == [0.5, 1.0]
    with pytest.raises(ValueError):
        call_with_retry(client, "p", attempts=0, sleep=delays.append)


def test_report_entries_carry_the_expected_fields() -> None:
    request = requests_for_event(_event(), [_scored(0, (4,))], n=50, master_seed=0)[0]
    prompt = build_prompt(request)
    entry = request_report_entry(request, prompt)
    assert set(entry) == {
        "event", "variant", "n_requested", "n_available", "n_sampled",
        "seed", "prompt_sha256", "texts",
    }
    assert entry["event"] == {
        "app_id": "appA", "metric": "count",
        "window_start": "2024-08-01", "window_days": 7,
    }
    summary = summary_report_entry(request, prompt, MockSummarizer(), sleep=lambda _: None)
    assert set(summary) == {"event", "variant", "n_sampled", "prompt_sha256", "summary_text"}
    assert summary["prompt_sha256"] == entry["prompt_sha256"]


def test_counts_only_analysis_prepares_the_full_analysis_requests() -> None:
    # Summary requests sample sentences by polarity whatever metric the CE
    # is on, so restricting the analysis to counts must not drop the
    # positive/negative requests a full analysis makes for the same CEs.
    from reviewpulse.config import MarketConfig
    from reviewpulse.ingest import build_catalog
    from reviewpulse.pipeline import analyze_catalog
    from reviewpulse.synth import Injection, default_scenario, generate

    spike = Injection(("app01", "app02"), 30, "count-spike", 5.0)
    catalog = build_catalog(generate(default_scenario(seed=3, injections=(spike,)))[0])
    counts = analyze_catalog(MarketConfig(seed=3), catalog, metrics=(MetricKind.COUNT,))
    full = analyze_catalog(MarketConfig(seed=3), catalog)
    want = [r for r in full.requests if r.metric is MetricKind.COUNT]
    assert {r.variant for r in want} == {"all", "positive", "negative"}
    assert counts.requests == want


def test_full_analysis_keeps_sentence_texts_only_for_ce_windows(monkeypatch) -> None:
    # A polarity run scores each distinct body once, for the day sums, into
    # sentence bins in column form that hold no text: one code per row, in
    # first-occurrence order. The correlated events' windows read their bins
    # through their rows' codes, and only their sentences get texts.
    from collections import Counter

    from reviewpulse import metrics
    from reviewpulse.config import MarketConfig
    from reviewpulse.ingest import build_catalog
    from reviewpulse.metrics import score_reviews
    from reviewpulse.pipeline import MarketAnalysis, analyze_catalog
    from reviewpulse.synth import Injection, default_scenario, generate

    kernel_bodies: Counter = Counter()
    sentence_bins = LexiconScorer.sentence_bins

    def counting(self: LexiconScorer, bodies: list[str]):
        kernel_bodies.update(bodies)
        return sentence_bins(self, bodies)

    asked: list[tuple[str, TimeWindow]] = []
    window_scored = MarketAnalysis.window_scored

    def recording(self: MarketAnalysis, app_id: str, window: TimeWindow) -> list[tuple[str, BodyScore]]:
        asked.append((app_id, window))
        return window_scored(self, app_id, window)

    texted: set[str] = set()
    score_review = metrics.score_review

    def texting(body: str, bins) -> BodyScore:
        texted.add(body)
        return score_review(body, bins)

    monkeypatch.setattr(LexiconScorer, "sentence_bins", counting)
    monkeypatch.setattr(MarketAnalysis, "window_scored", recording)
    monkeypatch.setattr(metrics, "score_review", texting)
    spike = Injection(("app01", "app02"), 30, "count-spike", 5.0)
    config = MarketConfig(seed=3)
    catalog = build_catalog(generate(default_scenario(seed=3, injections=(spike,)))[0])
    analysis = analyze_catalog(config, catalog)
    assert analysis.ces and asked

    all_bodies = {body for app in analysis.apps for body in catalog.reviews[app].body.tolist()}
    assert set(kernel_bodies) == all_bodies
    assert max(kernel_bodies.values()) == 1
    rows = [body for app in analysis.apps for body in catalog.reviews[app].body.tolist()]
    codes: dict[str, int] = {}
    assert analysis.body_bins.code.tolist() == [codes.setdefault(body, len(codes)) for body in rows]
    assert len(analysis.body_bins.first) == len(all_bodies) + 1
    assert type(analysis.body_bins.bins) is bytes

    def in_window(app_id: str, window: TimeWindow) -> list[Review]:
        return [r for r in catalog.reviews[app_id] if window_contains(window, r.timestamp)]

    window_bodies = {r.body for app_id, window in asked for r in in_window(app_id, window)}
    assert texted == window_bodies
    assert len(window_bodies) * 4 < len(all_bodies)

    def rescored(app_id: str, window: TimeWindow) -> list[tuple[str, BodyScore]]:
        bodies = [r.body for r in in_window(app_id, window)]
        return list(zip(bodies, score_reviews(bodies, LexiconScorer())))

    assert analysis.requests == build_requests(analysis.ces, rescored, config.sample_size, config.seed)



def test_summary_requests_split_each_distinct_body_once(monkeypatch) -> None:
    # On the seed-0 wide market (24 apps, 13 weeks) the CE windows hold
    # about 1.7 bodies per distinct body; each distinct one is split once,
    # and no sentence text stays on the analysis afterwards.
    from collections import Counter

    from reviewpulse import metrics
    from reviewpulse.config import MarketConfig
    from reviewpulse.ingest import build_catalog
    from reviewpulse.pipeline import MarketAnalysis, analyze_catalog
    from reviewpulse.synth import default_scenario, generate

    splits: Counter = Counter()
    split_sentences = metrics.split_sentences

    def counting(body: str) -> list[str]:
        splits[body] += 1
        return split_sentences(body)

    window_bodies: list[str] = []
    window_scored = MarketAnalysis.window_scored

    def recording(self: MarketAnalysis, app_id: str, window: TimeWindow) -> list[tuple[str, BodyScore]]:
        scored = window_scored(self, app_id, window)
        window_bodies.extend(body for body, _ in scored)
        return scored

    monkeypatch.setattr(metrics, "split_sentences", counting)
    monkeypatch.setattr(MarketAnalysis, "window_scored", recording)
    catalog = build_catalog(generate(default_scenario(n_apps=24, n_windows=13, rate=40.0, seed=0))[0])
    analysis = analyze_catalog(MarketConfig(), catalog)
    assert analysis.requests
    assert set(splits) == set(window_bodies)
    assert max(splits.values()) == 1
    assert len(window_bodies) > 1.5 * len(splits)
    assert analysis.texts == {}
