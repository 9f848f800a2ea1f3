"""Byte goldens: speed-ups must not change what the program produces.

The sha256 values below were recorded from the implementation before the
columnar analysis path replaced per-review objects; the ``day_sums.csv``
digests were added when that file joined the bundle, and the
``correlations.csv`` digests were recorded again when that file went from
one row per correlation window to one row per correlation run. Each test
regenerates the same input and compares digests, so any change in
generated markets, report bundles or criterion-4 decisions shows up here
by name.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from datetime import date, timedelta

import pytest

from reviewpulse.config import MarketConfig
from reviewpulse.ingest import serialize_reviews
from reviewpulse.pipeline import run_pipeline
from reviewpulse.synth import Injection, Scenario, default_scenario, generate, spike_pair_scenario

SPIKE_WEEK = date(2024, 1, 4) + timedelta(days=30 * 7)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _polarity_market() -> Scenario:
    """Small Poisson market with mixed sentence polarity and one spiked pair."""
    scenario = default_scenario(
        n_apps=4,
        n_windows=26,
        seed=0,
        injections=(Injection(("app01", "app02"), 20, "count-spike", 5.0),),
    )
    return replace(scenario, apps=tuple(replace(a, sentences_per_review=3) for a in scenario.apps))


MARKETS = {
    "spike_pair": lambda: spike_pair_scenario(seed=0),
    "polarity": _polarity_market,
}

MARKET_JSONL = {
    "spike_pair": "581f77289cdfd5b2b05748cee121fc3c80d1b690f6d0c9470690755dfc08cf1a",
    "polarity": "f55e486971cdf6701b0ffd1099dac30fd89644a46516c24bba516bc7a9c39c6a",
}

BUNDLES = {
    "spike_pair": {
        "rejects.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "catalog.json": "e0cb6e112d94f92405c3aa42086ebabf0af735e6da0405e243fc8e58d04d8d54",
        "day_sums.csv": "068e02b323b212af63b85493e1d6b7119ef93a52fb0e58e7e49edc601659b093",
        "metrics.csv": "4528b92ec5e1ed3bb40b2730df5480f4378fe36a6e934d6654a645c92b429179",
        "metrics_daily.csv": "ec1b36171b63d562fdd4f9dd9838915cb6d991089cc501d434ed4795aa43703a",
        "events.csv": "bdf33f081bdab12a6743a0faa1c5113a2c8679d39dbe492d44f502ba301a3909",
        "correlations.csv": "3e2b57292c00c622ad5fe95f1973f5bdd16b115ffe132fc52f2e9e4f938354d5",
        "correlated_events.json": "db0ebf8a7e9bcc17a8a3cf6536a16e7c152695c5a28ac00e5901dad5bef036ca",
        "summary_requests.json": "bbd9fd1aeb2683093a7a3cfe21007f5c95fbe287cdb1fc7c75314d019568e616",
        "summaries.json": "74bd43018badd28ca3fd580e6f0416636b1bc0965967dd4b66fec30f2480db01",
    },
    "polarity": {
        "rejects.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "catalog.json": "c068f24129038ad352de00d7877fd3615492a0af78e8f26b03fd30249650f7ae",
        "day_sums.csv": "7db90922e9edeed6506880adaa9c03bd0547659ad7a3946a063ff2fe5e5421cb",
        "metrics.csv": "3db6e887e208ac787cd2352aa5c02d1c43cbaccf2d7c511f5b080f8a0ffaf6fc",
        "metrics_daily.csv": "42e25397aa7b039d90d8b9c2c99dc8067a145f770e6959d351f5a4adf5290191",
        "events.csv": "f085e84ceb25d044f7ab5e5028ba1ec427b4c57dd3d81798fd9b10b85a6d641a",
        "correlations.csv": "3986f9f0718cb7ea3bfdeee4c9f906699fef89aeebe1c868177008dff59baca0",
        "correlated_events.json": "86d4474f034546a616c9a0d887f16530ec186399fba27dbf567b05978d41b91c",
        "summary_requests.json": "e4424cb5f6363f3c6bccdb8b22bc1357b9890151a162eeef53f66fdf98058967",
        "summaries.json": "3a7d7a0fb276606b8e4f732c5745644db9bcfe02c98f26e52e3f001e22b54860",
    },
}

# Criterion 4's per-seed verdicts over seeds 0..99 ("1" = hit / clean), and
# a digest of every market's nonzero events, CEs and request texts.
CRITERION_4_HITS = (
    "11111111111111111111111111111111111111111111111111"
    "11111111111111111111111111111111011111111111111111"
)
CRITERION_4_CLEAN = (
    "11111111101111110111111111111111111111111111111111"
    "11111111111111111111111011111111011111111111111111"
)
CRITERION_4_DECISIONS = "5ad109da6ba0b06a13acc078969a544768e36c222b9db58883b28f4b94995e7f"


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_generated_market_matches_golden(market: str) -> None:
    reviews, _ = generate(MARKETS[market]())
    assert _sha(serialize_reviews(reviews).encode("utf-8")) == MARKET_JSONL[market]


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_seed0_bundle_matches_golden(market: str, tmp_path) -> None:
    reviews, _ = generate(MARKETS[market]())
    dataset = tmp_path / "reviews.jsonl"
    dataset.write_text(serialize_reviews(reviews), encoding="utf-8")
    result = run_pipeline(MarketConfig(seed=0), [dataset], tmp_path / "out")
    got = {name: _sha((tmp_path / "out" / name).read_bytes()) for name in result.files}
    assert got == BUNDLES[market]


def test_criterion_4_decisions_match_golden(criterion_4_analyses) -> None:
    hits = clean = ""
    decisions = []
    for analysis in criterion_4_analyses:
        fired = {
            e.app_id for e in analysis.nonzero_events() if e.e == 1 and e.window.start == SPIKE_WEEK
        }
        positive = [c for c in analysis.ces if c.ce == 1]
        hit = (
            {"spike0", "spike1"} <= fired
            and len(positive) == 1
            and positive[0].window.start == SPIKE_WEEK
            and (positive[0].app_i, positive[0].app_j) == ("spike0", "spike1")
        )
        hits += "1" if hit else "0"
        clean += "1" if all(c.window.start == SPIKE_WEEK for c in analysis.ces) else "0"
        decisions.append([
            [[e.app_id, e.window.start.isoformat(), e.e] for e in analysis.nonzero_events()],
            [[c.app_i, c.app_j, c.window.start.isoformat(), c.ce] for c in analysis.ces],
            [[q.app_id, q.window.start.isoformat(), q.variant, list(q.texts)] for q in analysis.requests],
        ])
    assert (hits.count("1"), clean.count("1")) == (99, 96)
    assert hits == CRITERION_4_HITS
    assert clean == CRITERION_4_CLEAN
    assert _sha(json.dumps(decisions, separators=(",", ":")).encode("utf-8")) == CRITERION_4_DECISIONS
