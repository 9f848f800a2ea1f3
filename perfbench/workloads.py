"""Workload inputs, operations and output checks for the reviewpulse benchmark.

Every workload is closed loop: one process, one thread, one operation at a
time. An operation is one market (``sweep``) or one ``run_pipeline`` call
from a JSONL dump to the full report bundle (``desk``, ``wide``, ``long``).
Inputs depend only on the workload, its size and the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

from reviewpulse import ingest, pipeline, synth
from reviewpulse.config import MarketConfig
from reviewpulse.correlate import ce_records_to_json, read_correlations_csv
from reviewpulse.detect import read_events_csv
from reviewpulse.metrics import MetricKind

SPIKE_WINDOW = 30  # spike_pair_scenario's injected week (criterion 4)


@dataclass(frozen=True)
class Size:
    apps: int
    weeks: int
    rate: float
    op_s: float  # nominal seconds per operation; sets the operation count
    sentences: int = 1
    markets: int = 0  # sweep only: markets per pass

    def operations(self, seconds: float) -> int:
        """Timed operations in a run of ``seconds``.

        The count comes from the nominal operation time, not a measured one,
        so a faster or slower program runs the same operations and their
        percentile is taken over the same number of samples. A traced run
        splits them in two halves, each covering every sweep market.
        """
        return max(2 * max(self.markets, 1), round(seconds / self.op_s))


# Why each workload exists is recorded in BENCHMARK.json; these are the
# sizes that its "why" lines describe, plus a tiny size for the self-test.
SIZES: dict[str, dict[str, Size]] = {
    "sweep": {"full": Size(apps=10, weeks=52, rate=40.0, op_s=0.5, markets=16),
              "tiny": Size(apps=4, weeks=40, rate=40.0, op_s=0.1, markets=2)},
    "desk": {"full": Size(apps=10, weeks=26, rate=50.0, op_s=1.25, sentences=3),
             "tiny": Size(apps=3, weeks=12, rate=30.0, op_s=0.1, sentences=3)},
    "wide": {"full": Size(apps=24, weeks=13, rate=40.0, op_s=1.5),
             "tiny": Size(apps=6, weeks=12, rate=10.0, op_s=0.1)},
    "long": {"full": Size(apps=3, weeks=208, rate=20.0, op_s=1.25),
             "tiny": Size(apps=3, weeks=40, rate=10.0, op_s=0.1)},
}


def market_seeds(seed: int, size: Size) -> list[int]:
    """Sweep market seeds for one benchmark seed; seed 0 gives criterion 4's first seeds."""
    return [seed * size.markets + i for i in range(size.markets)]


def sweep_scenario(market_seed: int, size: Size) -> synth.Scenario:
    return synth.spike_pair_scenario(
        seed=market_seed, n_apps=size.apps, rate=size.rate, n_windows=size.weeks
    )


def market_scenario(seed: int, size: Size) -> synth.Scenario:
    """Uninjected Poisson market for the pipeline workloads."""
    scenario = synth.default_scenario(
        n_apps=size.apps, n_windows=size.weeks, rate=size.rate, seed=seed
    )
    if size.sentences == 1:
        return scenario
    apps = tuple(replace(a, sentences_per_review=size.sentences) for a in scenario.apps)
    return replace(scenario, apps=apps)


def emit_input(seed: int, size: Size, out: Path) -> dict:
    """Write the workload's review dump and return its input properties."""
    reviews, _ = synth.generate(market_scenario(seed, size))
    out.write_text(ingest.serialize_reviews(reviews), encoding="utf-8")
    return input_properties(reviews, size)


def input_properties(reviews: list, size: Size) -> dict:
    n_apps = len({r.app_id for r in reviews})
    return {
        "reviews": len(reviews),
        "apps": n_apps,
        "pairs": n_apps * (n_apps - 1) // 2,
        "event_windows": size.weeks,
        "daily_windows": size.weeks * 7,
        "distinct_bodies": len({r.body for r in reviews}),
    }


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_digest(analysis: pipeline.MarketAnalysis) -> str:
    """Decision digest of an in-memory analysis: events, CEs, request texts."""
    return _digest(
        {
            "events": [
                [e.app_id, e.metric.value, e.window.start.isoformat(), e.e]
                for e in analysis.nonzero_events()
            ],
            "ces": [
                [c.app_i, c.app_j, c.metric.value, c.window.start.isoformat(), c.ce]
                for c in analysis.ces
            ],
            "requests": [
                [r.app_id, r.metric.value, r.window.start.isoformat(), r.variant, list(r.texts)]
                for r in analysis.requests
            ],
        }
    )


def bundle_digest(bundle: Path, config: MarketConfig) -> str:
    """The same decision digest, read back from a written report bundle."""
    events = read_events_csv(
        (bundle / "events.csv").read_text(encoding="utf-8"),
        config.event_window_days,
        config.sensitivity,
    )
    ces = json.loads((bundle / "correlated_events.json").read_text(encoding="utf-8"))
    requests = json.loads((bundle / "summary_requests.json").read_text(encoding="utf-8"))
    return _digest(
        {
            "events": [
                [e.app_id, e.metric.value, e.window.start.isoformat(), e.e]
                for e in events
                if e.e != 0
            ],
            "ces": [
                [c["app_i"], c["app_j"], c["metric"], c["window_start"], c["ce"]] for c in ces
            ],
            "requests": [
                [r["event"]["app_id"], r["event"]["metric"], r["event"]["window_start"],
                 r["variant"], r["texts"]]
                for r in requests
            ],
        }
    )


def bundle_hashes(bundle: Path, files: tuple[str, ...]) -> dict[str, str]:
    return {name: hashlib.sha256((bundle / name).read_bytes()).hexdigest() for name in files}


def ce_readback_matches(bundle: Path, config: MarketConfig) -> bool:
    """The README's ``ce`` promise: events.csv + correlations.csv rebuild the CEs."""
    events = read_events_csv(
        (bundle / "events.csv").read_text(encoding="utf-8"),
        config.event_window_days,
        config.sensitivity,
    )
    correlations = read_correlations_csv(
        (bundle / "correlations.csv").read_text(encoding="utf-8"),
        config.correlation_window_days,
    )
    rebuilt = ce_records_to_json(
        pipeline.ce_from_reports(events, correlations, config.event_window_days)
    )
    return rebuilt == (bundle / "correlated_events.json").read_text(encoding="utf-8")


@dataclass(frozen=True)
class MarketOutcome:
    """What one sweep market decided, and whether it is well formed."""

    digest: str
    reviews: int
    hit: bool
    clean: bool
    spurious_ces: int
    problems: tuple[str, ...]


def run_market(market_seed: int, size: Size) -> tuple[pipeline.MarketAnalysis, int]:
    """One criterion-4 market: generate, catalog, analyze on counts only."""
    reviews, _ = synth.generate(sweep_scenario(market_seed, size))
    catalog = ingest.build_catalog(reviews)
    analysis = pipeline.analyze_catalog(
        MarketConfig(seed=market_seed), catalog, metrics=(MetricKind.COUNT,)
    )
    return analysis, len(reviews)


def judge_market(analysis: pipeline.MarketAnalysis, n_generated: int, size: Size) -> MarketOutcome:
    """Criterion 4's hit/clean rule for one market, plus structural checks.

    A miss or a spurious CE is a statistical outcome (criterion 4 allows 5
    misses and 10 unclean markets in 100), so it lowers recall or
    clean_rate; only a malformed result is a failed operation.
    """
    spike_week = date(2024, 1, 4) + timedelta(days=SPIKE_WINDOW * 7)
    fired = {
        e.app_id for e in analysis.nonzero_events() if e.e == 1 and e.window.start == spike_week
    }
    positive = [c for c in analysis.ces if c.ce == 1]
    hit = (
        {"spike0", "spike1"} <= fired
        and len(positive) == 1
        and positive[0].window.start == spike_week
        and (positive[0].app_i, positive[0].app_j) == ("spike0", "spike1")
    )
    spurious = sum(1 for c in analysis.ces if c.window.start != spike_week)
    problems = []
    accepted = sum(len(v) for v in analysis.catalog.reviews.values())
    if accepted != n_generated:
        problems.append(f"catalog kept {accepted} of {n_generated} reviews")
    if len(analysis.apps) != size.apps:
        problems.append(f"{len(analysis.apps)} apps analyzed, expected {size.apps}")
    for key, records in analysis.events.items():
        if len(records) != size.weeks:
            problems.append(f"{key[0]}/{key[1].value}: {len(records)} event windows, expected {size.weeks}")
    return MarketOutcome(
        digest=analysis_digest(analysis),
        reviews=n_generated,
        hit=hit,
        clean=spurious == 0,
        spurious_ces=spurious,
        problems=tuple(problems),
    )
