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

Actual model calls sit behind ``SummarizerClient``; the bundled
deterministic mock is the only client the core ships. A live adapter must
take its credentials from the environment, and nothing from the
environment is ever written into reports.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

from .correlate import CorrelatedEventRecord
from .detect import EventRecord
from .metrics import BodyScore, MetricKind, TimeWindow

__all__ = [
    "MockSummarizer",
    "SummarizerClient",
    "SummaryRequest",
    "VARIANTS",
    "build_prompt",
    "build_requests",
    "call_with_retry",
    "default_template",
    "derive_seed",
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
    omitted. Unscored sentences (polarity None) are in no pool.
    """
    sentences = [(text, pol) for _, parts in window_scored for _, text, pol in parts if pol is not None]
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
    ref = resources.files("reviewpulse").joinpath("data/prompt_template.txt")
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


@runtime_checkable
class SummarizerClient(Protocol):
    name: str

    def summarize(self, prompt: str) -> str:
        """Return a summary for the prompt. May raise on transient failure."""


class MockSummarizer:
    """Offline stand-in: output depends on the prompt bytes and nothing else."""

    name = "mock"

    def summarize(self, prompt: str) -> str:
        digest = prompt_sha256(prompt)
        return f"[mock summary {digest[:16]}; {len(prompt.split())} prompt tokens]"


def call_with_retry(
    client: SummarizerClient,
    prompt: str,
    attempts: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Call a client with exponential backoff: three attempts by default,
    waiting 0.5 s after the first failure and doubling the wait after each."""
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            return client.summarize(prompt)
        except Exception as exc:
            last = exc
            if attempt + 1 < attempts:
                sleep(0.5 * 2**attempt)
    assert last is not None
    raise last


def _event_entry(request: SummaryRequest) -> dict:
    return {
        "app_id": request.app_id,
        "metric": request.metric.value,
        "window_start": request.window.start.isoformat(),
        "window_days": request.window.days,
    }


def request_report_entry(request: SummaryRequest, prompt: str) -> dict:
    """A summary_requests.json entry for a request and its built prompt."""
    return {
        "event": _event_entry(request),
        "variant": request.variant,
        "n_requested": request.n_requested,
        "n_available": request.n_available,
        "n_sampled": request.n_sampled,
        "seed": request.seed,
        "prompt_sha256": prompt_sha256(prompt),
        "texts": list(request.texts),
    }


def summary_report_entry(
    request: SummaryRequest,
    prompt: str,
    client: SummarizerClient,
    sleep: Callable[[float], None] = time.sleep,
) -> dict:
    """A summaries.json entry: the client's summary of a request's built prompt."""
    return {
        "event": _event_entry(request),
        "variant": request.variant,
        "n_sampled": request.n_sampled,
        "prompt_sha256": prompt_sha256(prompt),
        "summary_text": call_with_retry(client, prompt, sleep=sleep),
    }
