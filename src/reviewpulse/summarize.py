"""Summarization preparation for correlated events.

Each event contributing to a correlated-event record yields up to three
summary requests over the review text from that event's own window and
nothing else:

    all       whole review bodies
    positive  sentences with polarity >= 3
    negative  sentences with polarity <= 1

Neutral sentences (polarity 2) are never summarised. Every request samples
uniformly without replacement down to the configured size; when fewer
texts are available than requested, all of them are taken. Sampling seeds
derive from the run seed plus the request identity, so reports are
reproducible byte for byte.

The one summarizer is the bundled deterministic mock, ``mock_summary``:
a pure function of the prompt, so nothing is retried. A live summarizer,
when one is added, must take its credentials from the environment, and
nothing from the environment is ever written into reports.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .correlate import CorrelatedEventRecord, event_entry
from .detect import EventRecord
from .metrics import BodyScore, MetricKind, TimeWindow

__all__ = [
    "SummaryRequest",
    "VARIANTS",
    "build_prompt",
    "build_requests",
    "default_template",
    "derive_seed",
    "mock_summary",
    "requests_for_event",
    "sample_reviews",
]

VARIANTS = ("all", "positive", "negative")

POSITIVE_MIN = 3
NEGATIVE_MAX = 1

_T = TypeVar("_T")

_PLACEHOLDER = re.compile(r"\{(app|metric|window_start|window_end|variant|n_sampled|reviews)\}")


def derive_seed(master: int, *parts: object) -> int:
    """Stable named sub-seed: one run seed fans out to independent streams."""
    text = "|".join([str(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_reviews(items: Sequence[_T], n: int, seed: int) -> list[_T]:
    """Uniform sample without replacement, keeping the input's order.

    When ``n`` covers the whole population the input is returned as is, so
    "take everything available" is exact, not approximate.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if n >= len(items):
        return list(items)
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(items)), n))
    return [items[i] for i in chosen]


@dataclass(frozen=True, slots=True)
class SummaryRequest:
    app_id: str
    metric: MetricKind
    window: TimeWindow
    variant: str
    texts: tuple[str, ...]
    n_requested: int
    n_available: int
    seed: int

    @property
    def n_sampled(self) -> int:
        return len(self.texts)


def requests_for_event(
    event: EventRecord,
    window_scored: Sequence[tuple[str, BodyScore]],
    n: int,
    master_seed: int,
) -> list[SummaryRequest]:
    """Build the all/positive/negative requests for one event's window.

    ``window_scored`` must hold the body of exactly each of the app's
    reviews whose timestamp falls in the event window, in canonical order,
    each with its scored sentences. Variants with nothing to sample are
    omitted.
    """
    sentences = [(text, pol) for _, parts in window_scored for _, text, pol in parts]
    pools: dict[str, list[str]] = {
        "all": [body for body, _ in window_scored],
        "positive": [text for text, pol in sentences if pol >= POSITIVE_MIN],
        "negative": [text for text, pol in sentences if pol <= NEGATIVE_MAX],
    }
    requests: list[SummaryRequest] = []
    for variant in VARIANTS:
        pool = pools[variant]
        if not pool:
            continue
        seed = derive_seed(
            master_seed, "summarize", event.app_id, event.metric.value, event.window.start, variant
        )
        texts = tuple(sample_reviews(pool, n, seed))
        requests.append(
            SummaryRequest(
                app_id=event.app_id,
                metric=event.metric,
                window=event.window,
                variant=variant,
                texts=texts,
                n_requested=n,
                n_available=len(pool),
                seed=seed,
            )
        )
    return requests


def build_requests(
    ce_records: Sequence[CorrelatedEventRecord],
    window_scored: Callable[[str, TimeWindow], Sequence[tuple[str, BodyScore]]],
    n: int,
    master_seed: int,
) -> list[SummaryRequest]:
    """Requests for every event contributing to any correlated-event record.

    An event shared by several records is summarised once: events are
    deduplicated on (app, metric, window start), and each yields its
    variants' requests.
    """
    seen: set[tuple[str, str, object]] = set()
    out: list[SummaryRequest] = []
    for record in ce_records:
        for event in (record.event_i, record.event_j):
            if event.e == 0:
                continue
            key = (event.app_id, event.metric.value, event.window.start)
            if key in seen:
                continue
            seen.add(key)
            scored = window_scored(event.app_id, event.window)
            out.extend(requests_for_event(event, scored, n, master_seed))
    return out


def default_template() -> str:
    ref = resources.files(__package__).joinpath("data/prompt_template.txt")
    return ref.read_text(encoding="utf-8")


def load_template(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8")


def build_prompt(request: SummaryRequest, template: str | None = None) -> str:
    """Render the prompt for a request from a placeholder template.

    Substitution is a single pass over the template, so placeholder-like
    text inside review bodies is never re-expanded.
    """
    if template is None:
        template = default_template()
    numbered = "\n".join(f"{i}. {text}" for i, text in enumerate(request.texts, start=1))
    values = {
        "app": request.app_id,
        "metric": request.metric.value,
        "window_start": request.window.start.isoformat(),
        "window_end": request.window.end.isoformat(),
        "variant": request.variant,
        "n_sampled": str(request.n_sampled),
        "reviews": numbered,
    }
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], template)


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def mock_summary(prompt: str) -> str:
    """The bundled summarizer, offline: its text depends on the prompt's
    bytes and nothing else."""
    return f"[mock summary {prompt_sha256(prompt)[:16]}; {len(prompt.split())} prompt tokens]"


def request_report_entry(request: SummaryRequest, prompt: str) -> dict:
    """A summary_requests.json entry for a request and its built prompt."""
    return {
        "event": event_entry(request.app_id, request.metric, request.window),
        "variant": request.variant,
        "n_requested": request.n_requested,
        "n_available": request.n_available,
        "n_sampled": request.n_sampled,
        "seed": request.seed,
        "prompt_sha256": prompt_sha256(prompt),
        "texts": list(request.texts),
    }


def summary_report_entry(entry: dict, prompt: str) -> dict:
    """A summaries.json entry from a request's summary_requests.json entry
    and its built prompt: the entry without its sample's sizes, seed and
    texts, and the ``mock_summary`` of the prompt."""
    return {**{key: entry[key] for key in ("event", "variant", "n_sampled", "prompt_sha256")},
            "summary_text": mock_summary(prompt)}
