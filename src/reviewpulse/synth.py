"""Synthetic review market generator.

A scenario describes apps (review rate per window, rating distribution,
sentence polarity mix) plus scripted injections, and generates a full
review dataset with ground-truth labels. Everything is driven by one
scenario seed through named per-app sub-streams, so a scenario generates
the same bytes every time.

Bodies are assembled from the built-in polarity lexicon so that each
sentence lands exactly in its target polarity bin; injected polarity
shifts therefore survive the scoring round trip without noise.

Injection kinds:

    count-spike     multiply the window's review rate by the magnitude
    rating-drop     lower raw ratings in the window by round(magnitude)
    polarity-shift  raise sentence polarity bins in the window by
                    round(magnitude)
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .ingest import ReviewTable, canonical_order, json_date, json_value, midnight_us
from .metrics import MetricKind
from .summarize import derive_seed

__all__ = [
    "AppSpec",
    "Injection",
    "Label",
    "Scenario",
    "default_scenario",
    "flat_scenario",
    "generate",
    "load_scenario",
    "scenario_from_dict",
    "scenario_labels",
    "scenario_to_dict",
    "spike_pair_scenario",
]

SYNTH_SOURCE = "synthetic"

MARKET_START = date(2024, 1, 4)  # the first window of every built-in scenario

INJECTION_KINDS = ("count-spike", "rating-drop", "polarity-shift")

DEFAULT_RATING_WEIGHTS: Mapping[int, float] = {1: 0.10, 2: 0.10, 3: 0.15, 4: 0.25, 5: 0.40}
DEFAULT_POLARITY_WEIGHTS: Mapping[int, float] = {0: 0.10, 1: 0.15, 2: 0.30, 3: 0.25, 4: 0.20}

# Token pools per polarity bin. Valence words come from the built-in
# lexicon; fillers deliberately stay outside it (and outside its stem
# reach) so a generated sentence scores exactly its target bin.
_POS2 = ("excellent", "awesome", "fantastic", "perfect", "amazing")
_POS1 = ("good", "useful", "smooth", "helpful", "nice")
_NEG1 = ("slow", "buggy", "annoying", "confusing", "laggy")
_NEG2 = ("terrible", "awful", "horrible", "useless", "broken")
_FILLER = ("the", "app", "update", "screen", "version", "today", "menu", "again", "overall", "still")


@dataclass(frozen=True, slots=True)
class AppSpec:
    app_id: str
    rate_per_window: float
    count_model: str = "poisson"
    rating_weights: Mapping[int, float] = field(default_factory=lambda: dict(DEFAULT_RATING_WEIGHTS))
    polarity_weights: Mapping[int, float] = field(default_factory=lambda: dict(DEFAULT_POLARITY_WEIGHTS))
    sentences_per_review: int = 1


@dataclass(frozen=True, slots=True)
class Injection:
    apps: tuple[str, ...]
    window_index: int
    kind: str
    magnitude: float


@dataclass(frozen=True, slots=True)
class Label:
    app_id: str
    metric: MetricKind
    window_index: int
    sign: int


@dataclass(frozen=True, slots=True)
class Scenario:
    start: date
    n_windows: int
    apps: tuple[AppSpec, ...]
    window_days: int = 7
    injections: tuple[Injection, ...] = ()
    seed: int = 0


def _proper_weights(weights: Mapping[int, float]) -> bool:
    values = list(weights.values())
    return all(math.isfinite(w) and w >= 0 for w in values) and sum(values) > 0


def _validate(scenario: Scenario) -> None:
    errors: list[str] = []
    if scenario.n_windows < 1:
        errors.append(f"n_windows must be >= 1, got {scenario.n_windows}")
    if scenario.window_days < 1:
        errors.append(f"window_days must be >= 1, got {scenario.window_days}")
    rates = {app.app_id: app.rate_per_window for app in scenario.apps}
    if len(rates) != len(scenario.apps):
        errors.append("duplicate app ids in scenario")
    for app in scenario.apps:
        if not 0 <= app.rate_per_window < math.inf:
            errors.append(f"{app.app_id}: rate_per_window must be >= 0 and finite")
        if app.count_model not in ("poisson", "constant"):
            errors.append(f"{app.app_id}: unknown count model {app.count_model!r}")
        if app.sentences_per_review < 1:
            errors.append(f"{app.app_id}: sentences_per_review must be >= 1")
        if not app.rating_weights or any(not 1 <= r <= 5 for r in app.rating_weights):
            errors.append(f"{app.app_id}: rating weights must cover raw values 1..5")
        elif not _proper_weights(app.rating_weights):
            errors.append(f"{app.app_id}: rating weights must be non-negative with a positive sum")
        if not app.polarity_weights or any(not 0 <= b <= 4 for b in app.polarity_weights):
            errors.append(f"{app.app_id}: polarity weights must cover bins 0..4")
        elif not _proper_weights(app.polarity_weights):
            errors.append(f"{app.app_id}: polarity weights must be non-negative with a positive sum")
    for inj in scenario.injections:
        if inj.kind not in INJECTION_KINDS:
            errors.append(f"unknown injection kind {inj.kind!r}")
        if not 0 <= inj.window_index < scenario.n_windows:
            errors.append(f"injection window {inj.window_index} outside 0..{scenario.n_windows - 1}")
        if not 0 < inj.magnitude < math.inf:
            errors.append(f"injection magnitude must be positive and finite, got {inj.magnitude}")
        for app_id in inj.apps:
            if app_id not in rates:
                errors.append(f"injection targets unknown app {app_id!r}")
    if not errors:  # each window's rate, as _rows draws it, must be one that numpy's Poisson sampler takes
        probe, spikes = np.random.default_rng(0), _by_window(scenario, "count-spike", 1.0, operator.mul)
        for app, where, rate in [*((app, "every window", rate) for app, rate in rates.items()),
                                 *((app, f"window {w}", rates[app] * spike) for (app, w), spike in spikes.items())]:
            try:  # numpy's own check refuses a rate above the installed numpy's limit, or NaN
                probe.poisson(rate)
            except ValueError:
                errors.append(f"{app}: the rate of {where}, {rate}, reaches numpy's Poisson limit")
    if errors:
        raise ValueError("; ".join(errors))


def _by_window(scenario: Scenario, kind: str, start: float, step: Callable[[Any, float], Any]) -> dict:
    """Each (app, window) that injections of ``kind`` hit, with ``step``
    folded over their magnitudes from ``start``, in injection order."""
    folded: dict[tuple[str, int], Any] = {}
    for inj in scenario.injections:
        for app_id in inj.apps if inj.kind == kind else ():
            folded[app_id, inj.window_index] = step(folded.get((app_id, inj.window_index), start), inj.magnitude)
    return folded


def scenario_labels(scenario: Scenario) -> list[Label]:
    """Ground-truth (app, metric, window, sign) labels for the injections."""
    labels: list[Label] = []
    for inj in scenario.injections:
        if inj.kind == "count-spike":
            metric, sign = MetricKind.COUNT, (1 if inj.magnitude > 1 else -1)
        elif inj.kind == "rating-drop":
            metric, sign = MetricKind.RATING, -1
        else:
            metric, sign = MetricKind.POLARITY, 1
        for app_id in inj.apps:
            labels.append(Label(app_id=app_id, metric=metric, window_index=inj.window_index, sign=sign))
    return labels


def _sentence_for_bin(target: int, coin: int, tone: Sequence[int]) -> str:
    """The head of a sentence scoring exactly ``target``, with its trailing space.

    ``coin`` picks between the one-strong-word and two-mild-words phrasings
    at the extreme bins; ``tone`` indexes the valence pools. A neutral
    sentence has an empty head; the filler tail (``_TAILS``) scores 0.
    """
    if target >= 4:
        head = _POS2[tone[0]] if coin == 0 else f"{_POS1[tone[0]]} {_POS1[tone[1]]}"
    elif target == 3:
        head = _POS1[tone[0]]
    elif target == 2:
        return ""
    elif target == 1:
        head = _NEG1[tone[0]]
    else:
        head = _NEG2[tone[0]] if coin == 0 else f"{_NEG1[tone[0]]} {_NEG1[tone[1]]}"
    return f"{head} "


# Every sentence is a head plus a tail: the head is indexed by
# ((target * 2 + coin) * 5 + tone[0]) * 5 + tone[1], the tail by
# fill[0] * 10 + fill[1].
_HEADS = tuple(
    _sentence_for_bin(target, coin, (t0, t1))
    for target in range(5)
    for coin in range(2)
    for t0 in range(5)
    for t1 in range(5)
)
_TAILS = tuple(f"{_FILLER[f0]} {_FILLER[f1]}." for f0 in range(10) for f1 in range(10))
# Exclusive upper bounds of the coin, tone and fill draws.
_PICK_HIGHS = np.array([2, 5, 10])


def _categorical(weights: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and the normalised cumulative distribution over them.

    ``values[cdf.searchsorted(rng.random(n), side="right")]`` draws exactly
    what ``rng.choice(values, size=n, p=weights / weights.sum())`` draws,
    from the same generator state, without its per-call validation.
    """
    values = np.array(sorted(weights), dtype=np.int64)
    p = np.array([weights[v] for v in values], dtype=np.float64)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return values, cdf


def generate(scenario: Scenario) -> tuple[ReviewTable, list[Label]]:
    """Generate the scenario's reviews (canonically ordered) and labels."""
    _validate(scenario)
    # _rows' per-app row lists are freed when it returns, before the sort and index.
    table = _rows(scenario)
    return table[canonical_order(table.stamp_us, table.review_id)], scenario_labels(scenario)


def _rows(scenario: Scenario) -> ReviewTable:
    """The scenario's reviews, app by app, each app's in window order.

    Each app's generator draws per window: its count, then (Poisson only)
    the offsets, ratings, polarity bins, coins, tones and fills. That draw
    order is part of the generated bytes. Everything after the draws runs
    once per app over its concatenated windows.
    """
    spikes = _by_window(scenario, "count-spike", 1.0, operator.mul)
    rating_shift = _by_window(scenario, "rating-drop", 0, lambda shift, magnitude: shift - int(round(magnitude)))
    polarity_shift = _by_window(scenario, "polarity-shift", 0, lambda shift, magnitude: shift + int(round(magnitude)))

    start_us = midnight_us(scenario.start)
    window_seconds = scenario.window_days * 86400
    ids: list[str] = []
    app_ids: list[str] = []
    bodies: list[str] = []
    stamps = [np.empty(0, dtype=np.int64)]
    raws = [np.empty(0, dtype=np.int64)]
    serials: list[str] = []  # "00000", "00001", ..., grown on demand
    for app in scenario.apps:
        app_id = app.app_id
        n_sent = app.sentences_per_review
        rng = np.random.default_rng(derive_seed(scenario.seed, "synth", app_id))
        rating_values, rating_cdf = _categorical(app.rating_weights)
        bin_values, bin_cdf = _categorical(app.polarity_weights)

        windows: list[int] = []
        counts: list[int] = []
        draws: dict[str, list[np.ndarray]] = {k: [] for k in ("seconds", "rating", "bin", "coin", "tone", "fill")}
        for widx in range(scenario.n_windows):
            rate = app.rate_per_window * spikes.get((app_id, widx), 1.0)
            if app.count_model == "poisson":
                count = int(rng.poisson(rate))
            else:
                count = int(round(rate))
            if count == 0:
                continue
            if app.count_model == "poisson":
                offsets = np.sort(rng.integers(0, window_seconds, size=count))
            else:
                offsets = (np.arange(count) * window_seconds) // count
            windows.append(widx)
            counts.append(count)
            draws["seconds"].append(offsets + widx * window_seconds)
            draws["rating"].append(rng.random(count))
            draws["bin"].append(rng.random(count * n_sent))
            # One call for coin, tone and fill draws the same stream as three.
            m = count * n_sent
            picks = rng.integers(0, np.repeat(_PICK_HIGHS, (m, 2 * m, 2 * m)))
            draws["coin"].append(picks[:m])
            draws["tone"].append(picks[m : 3 * m].reshape(m, 2))
            draws["fill"].append(picks[3 * m :].reshape(m, 2))
        if not counts:
            continue
        seconds, u_rating, u_bin, coins, tones, fills = (np.concatenate(draws[k]) for k in draws)

        ratings = rating_values[rating_cdf.searchsorted(u_rating, side="right")]
        shifts = [rating_shift.get((app_id, w), 0) for w in windows]
        if any(shifts):
            ratings = np.minimum(np.maximum(ratings + np.repeat(shifts, counts), 1), 5)
        bins = bin_values[bin_cdf.searchsorted(u_bin, side="right")]
        shifts = [polarity_shift.get((app_id, w), 0) for w in windows]
        if any(shifts):
            bins = np.minimum(np.maximum(bins + np.repeat(shifts, np.multiply(counts, n_sent)), 0), 4)
        heads = (((bins * 2 + coins) * 5 + tones[:, 0]) * 5 + tones[:, 1]).tolist()
        tails = (fills[:, 0] * 10 + fills[:, 1]).tolist()
        sentences = [_HEADS[h] + _TAILS[t] for h, t in zip(heads, tails)]
        if n_sent == 1:
            bodies.extend(sentences)
        else:
            bodies.extend(" ".join(sentences[i : i + n_sent]) for i in range(0, len(sentences), n_sent))

        serials.extend(f"{i:05d}" for i in range(len(serials), max(counts)))
        for widx, count in zip(windows, counts):
            ids.extend(map(f"{app_id}-w{widx:03d}-".__add__, serials[:count]))
        app_ids.extend([app_id] * len(ratings))
        stamps.append(seconds * 1_000_000 + start_us)
        raws.append(ratings)

    return ReviewTable(ids, app_ids, np.concatenate(stamps), np.concatenate(raws), bodies, [SYNTH_SOURCE] * len(ids))


def default_scenario(
    n_apps: int = 10,
    n_windows: int = 52,
    rate: float = 40.0,
    seed: int = 0,
    injections: Sequence[Injection] = (),
) -> Scenario:
    """Template market: Poisson counts with the default mixes, in 7-day windows."""
    apps = tuple(AppSpec(app_id=f"app{i:02d}", rate_per_window=rate) for i in range(n_apps))
    return Scenario(start=MARKET_START, n_windows=n_windows, apps=apps, injections=tuple(injections), seed=seed)


def _one_tone_app(app_id: str, rate: float, count_model: str = "constant") -> AppSpec:
    """An app whose every review has raw rating 4 and polarity bin 2."""
    return AppSpec(app_id, rate, count_model, rating_weights={4: 1.0}, polarity_weights={2: 1.0})


def spike_pair_scenario(
    seed: int = 0,
    n_apps: int = 10,
    rate: float = 40.0,
    spike_window: int = 30,
    n_windows: int = 52,
) -> Scenario:
    """Two noisy apps against a quiet background, spiked 5x together in 7-day windows.

    The last two apps draw Poisson counts; the rest publish at a constant
    rate with a single rating and a single polarity bin, so they can never
    trip a detector. A simultaneous count spike into the noisy pair gives
    them correlated daily counts at the spike window — the one correlated
    event the scenario is built to exhibit.
    """
    quiet = tuple(_one_tone_app(f"app{i:02d}", rate) for i in range(max(0, n_apps - 2)))
    noisy = tuple(_one_tone_app(name, rate, "poisson") for name in ("spike0", "spike1"))
    spike = Injection(apps=("spike0", "spike1"), window_index=spike_window, kind="count-spike", magnitude=5.0)
    return Scenario(start=MARKET_START, n_windows=n_windows, apps=quiet + noisy, injections=(spike,), seed=seed)


def flat_scenario(n_apps: int = 10, n_windows: int = 52, seed: int = 0) -> Scenario:
    """Null market: 21 reviews a 7-day window, one rating, one polarity bin, no injections."""
    apps = tuple(_one_tone_app(f"app{i:02d}", 21.0) for i in range(n_apps))
    return Scenario(start=MARKET_START, n_windows=n_windows, apps=apps, seed=seed)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The scenario's fields as ``asdict`` gives them, ``start`` as ISO text:
    ``json_text`` writes it as ``scenario.json``, key-sorted (the weight keys
    are single digits, so int and str order agree)."""
    return {**asdict(scenario), "start": scenario.start.isoformat()}


def _json(*types: type) -> Callable[[object, str], Any]:
    return lambda value, at: json_value(value, at, *types)


def _float(value: object, at: str) -> float:
    return float(json_value(value, at, int, float))  # an int reads as the float it equals


def _tuple_of(read: Callable[[object, str], Any]) -> Callable[[object, str], tuple]:
    return lambda value, at: tuple(read(item, f"{at}[{n}]") for n, item in enumerate(json_value(value, at, list)))


def _weights(value: object, at: str) -> dict[int, float]:
    """A weight map, its int keys as ``json_text`` writes them: ASCII digits."""
    for key in json_value(value, at, dict):
        if not (key.isascii() and key.isdigit() and str(int(key)) == key):
            raise ValueError(f"{at} key {key!r} is not an integer")
    return {int(key): _float(weight, f"{at}.{key}") for key, weight in value.items()}


# Each field is read by its declared type, as json.loads gives what
# json_text writes. _FIELDS is built at import, so a field type with no
# reader fails there, not on a user's file.
_READ_BY_TYPE: dict[str, Callable[[object, str], Any]] = {
    "int": _json(int),
    "float": _float,
    "str": _json(str),
    "date": json_date,
    "tuple[str, ...]": _tuple_of(_json(str)),
    "Mapping[int, float]": _weights,
    "tuple[AppSpec, ...]": _tuple_of(lambda value, at: _from_dict(AppSpec, value, at)),
    "tuple[Injection, ...]": _tuple_of(lambda value, at: _from_dict(Injection, value, at)),
}
_FIELDS = {cls: {f.name: (_READ_BY_TYPE[f.type], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls)} for cls in (AppSpec, Injection, Scenario)}


def _from_dict(cls: type, data: object, at: str) -> Any:
    """A ``cls`` from the JSON object ``data``, found at ``at``: each key read
    by its field's type, an absent field its default. A key that is no
    field, a missing required field or a value of another type is a
    ValueError naming its path."""
    prefix = f"{at}." if at else ""
    readers = _FIELDS[cls]
    for key in json_value(data, at or "the scenario", dict):
        if key not in readers:
            raise ValueError(f"{prefix}{key} is not a field")
    for name, (_, required) in readers.items():
        if required and name not in data:
            raise ValueError(f"{prefix}{name} is missing")
    return cls(**{key: readers[key][0](value, prefix + key) for key, value in data.items()})


def scenario_from_dict(data: object) -> Scenario:
    """The scenario in ``data`` as ``json.loads`` gives a scenario file,
    validated; a ValueError starting ``bad scenario:`` and naming the
    field otherwise."""
    try:
        scenario = _from_dict(Scenario, data, "")
    except ValueError as exc:
        raise ValueError(f"bad scenario: {exc}") from None
    _validate(scenario)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
