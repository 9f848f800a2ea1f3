"""Settings and fixtures shared by every test module."""

from dataclasses import replace

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    # Property tests draw the same examples on every run, keep no example
    # database and have no per-example deadline, so a slow moment on a
    # loaded machine cannot fail them.
    settings.register_profile("reviewpulse", deadline=None, derandomize=True, database=None)
    settings.load_profile("reviewpulse")


@pytest.fixture(scope="session")
def criterion_4_analyses() -> list:
    """Criterion 4's counts-only analyses of the 100 spike-pair markets
    (seeds 0..99), built once per session for the tests that check their
    results.

    Each keeps what those tests read: events, correlation-window stats
    (the per-pair oracle correlates their means), runs, CEs and summary
    requests. The catalog, day sums and event-window stats are dropped (a
    counts-only analysis keeps no sentence bins), so the session holds well
    under 1 MB a market, not 4 MB.
    ``test_criterion_4_spike_pair_recall_and_precision`` builds its own
    markets, since its wall-clock gate times that work.
    """
    from reviewpulse.config import MarketConfig
    from reviewpulse.ingest import build_catalog
    from reviewpulse.metrics import MetricKind
    from reviewpulse.pipeline import analyze_catalog
    from reviewpulse.synth import generate, spike_pair_scenario

    analyses = []
    for seed in range(100):
        reviews, _ = generate(spike_pair_scenario(seed=seed))
        analysis = analyze_catalog(MarketConfig(seed=seed), build_catalog(reviews), metrics=(MetricKind.COUNT,))
        analyses.append(replace(analysis, catalog=None, day_sums={}, weekly_stats={}))
    return analyses
