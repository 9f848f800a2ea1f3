"""Deviation events against an expanding delta baseline.

For one app/metric series, each window's delta is judged against the
standard deviation of every delta observed since the baseline start date
and strictly before the window under test. The baseline only ever grows
(it is never a rolling window), so sensitivity stabilises as history
accumulates.

An event is a sign:

    +1  delta >= k * sigma      (boundary inclusive on both sides)
    -1  delta <= -k * sigma
     0  otherwise

Detection is suppressed (event 0) while the baseline holds fewer than
``min_baseline`` deltas (the warm-up, flagged on the record) and when the
baseline is degenerate (sigma == 0, visible as such on the record). A
window with a missing delta also yields 0 and contributes nothing to the
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from itertools import groupby
from math import isfinite, isqrt
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .metrics import MetricKind, TimeWindow, WindowStat, csv_prefixes, follow_problem, series_rows

__all__ = [
    "EVENTS_CSV_COLUMNS",
    "EventRecord",
    "detect_series",
    "event_problem",
    "read_events_csv",
    "write_events_csv",
]

EVENTS_CSV_COLUMNS = ("app_id", "metric", "t0", "e", "a", "sigma", "baseline_n", "warmup")

DEFAULT_MIN_BASELINE = 4


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded to a float (num >= 0, den > 0).

    The integer root is taken with at least 54 bits plus a sticky bit
    (round to odd), so the one final int-to-float rounding is exact to the
    nearest float.
    """
    shift = (num.bit_length() - den.bit_length() - 110) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = isqrt(num // den)
    root |= root * root * den != num
    return root * 2.0**shift if shift >= 0 else root / (1 << -shift)


class _Moments:
    """Exact running count, sum and sum of squares of float deltas.

    Every finite float is an integer over a power of two, so ``total`` and
    ``squares`` are held as Python ints over ``2**shift`` and
    ``2**(2*shift)``, ``shift`` being the largest exponent seen so far.
    """

    __slots__ = ("n", "total", "squares", "shift")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0
        self.squares = 0
        self.shift = 0

    def add(self, x: float) -> None:
        try:
            num, den = x.as_integer_ratio()
        except (ValueError, OverflowError):
            raise ValueError(f"baseline deltas must be finite, got {x!r}") from None
        k = den.bit_length() - 1  # den == 2**k
        if k > self.shift:
            self.total <<= k - self.shift
            self.squares <<= 2 * (k - self.shift)
            self.shift = k
        value = num << (self.shift - k)
        self.n += 1
        self.total += value
        self.squares += value * value

    def sigma(self, mode: str) -> float | None:
        """Correctly rounded standard deviation of the exact deltas.

        The same value ``statistics.pstdev`` / ``stdev`` return on Python
        3.11+, in O(1) per call.
        """
        n = self.n
        ddof = _DDOF[mode]
        if n <= ddof:
            return None
        # n * (n - ddof) * variance is this numerator over 4**shift, exactly.
        return _sqrt_ratio(n * self.squares - self.total * self.total, n * (n - ddof) << 2 * self.shift)


_DDOF = {"population": 0, "sample": 1}


def _check_mode(mode: str) -> None:
    if mode not in _DDOF:
        raise ValueError(f"unknown sigma mode {mode!r} (expected 'population' or 'sample')")


@dataclass(frozen=True, slots=True)
class EventRecord:
    app_id: str
    metric: MetricKind
    window: TimeWindow
    e: int
    a: float | None
    sigma: float | None
    k: float
    baseline_n: int
    warmup: bool


def _event(stat: WindowStat, sigma: float | None, k: float, baseline_n: int, warmup: bool) -> EventRecord:
    a = stat.delta
    if a is None or sigma is None or sigma == 0.0:
        e = 0
    elif a >= k * sigma:
        e = 1
    elif a <= -k * sigma:
        e = -1
    else:
        e = 0
    return EventRecord(stat.app_id, stat.metric, stat.window, e, a, sigma, k, baseline_n, warmup)


def detect_series(
    stats: Sequence[WindowStat],
    baseline_start: date,
    k: float,
    min_baseline: int = DEFAULT_MIN_BASELINE,
    mode: str = "population",
) -> list[EventRecord]:
    """Run detection over one app/metric series in window order.

    Windows starting before ``baseline_start`` are skipped entirely; their
    deltas never enter the baseline. One record is emitted per remaining
    window, warm-up and degenerate ones included (with event 0), so the
    events report covers the whole detection span.
    """
    _check_mode(mode)
    moments = _Moments()
    records: list[EventRecord] = []
    for stat in stats:
        if stat.window.start < baseline_start:
            continue
        n = moments.n
        sigma = moments.sigma(mode) if n >= min_baseline else None
        records.append(_event(stat, sigma, k, n, n < min_baseline))
        if stat.delta is not None:
            moments.add(stat.delta)
    return records


def write_events_csv(records: Iterable[EventRecord]) -> Iterator[str]:
    """The events CSV as text chunks: the header, then one chunk per run of
    consecutive records of one series, one row per record: ``a`` and
    ``sigma`` written with ``repr``, None empty. Nothing is built before it
    is asked for, so a writer holds one series' text at a time."""
    header, prefix = csv_prefixes(EVENTS_CSV_COLUMNS)
    yield header
    for (app, metric), group in groupby(records, key=attrgetter("app_id", "metric")):
        key = prefix(app, metric.value)
        yield "".join([f"{key}{r.window.start.isoformat()},{r.e},{'' if r.a is None else repr(r.a)},"
                       f"{'' if r.sigma is None else repr(r.sigma)},{r.baseline_n},{'true' if r.warmup else 'false'}\n"
                       for r in group])


def event_problem(e: int, a: float | None, sigma: float | None, k: float, baseline_n: int, warmup: bool | None,
                  written: Sequence[str]) -> str | None:
    """Why ``detect_series`` never writes an event of these values; None
    when it may. ``written`` holds the texts of ``e``, ``a``, ``sigma``,
    ``baseline_n`` and ``warmup`` as the file spells them, which the
    message quotes; ``warmup`` is None where its text is no boolean.

    Refused: an ``e`` other than -1, 0 or 1, an ``a`` or ``sigma`` that is
    not finite, a ``warmup`` that is no boolean, a ``k`` that is not finite
    and > 0, a negative ``sigma`` or ``baseline_n``, and a nonzero ``e``
    without both ``a`` and ``sigma`` or of another sign than ``a``.
    """
    e_text, a_text, sigma_text, n_text, warmup_text = written
    if e not in (-1, 0, 1) or not all(x is None or isfinite(x) for x in (a, sigma)) or warmup is None:
        return f"bad e, a, sigma or warmup: {', '.join(map(repr, (e_text, a_text, sigma_text, warmup_text)))}"
    if not (isfinite(k) and k > 0):
        return f"k {k!r} is not finite and > 0"
    if sigma is not None and sigma < 0:
        return f"sigma {sigma_text} is negative"
    if baseline_n < 0:
        return f"baseline_n {n_text} is negative"
    if e and (a is None or sigma is None):
        return f"e {e_text} without both a and sigma"
    if e and not e * a > 0:
        return f"e {e_text} is not the sign of a {a_text}"
    return None


def read_events_csv(text: str | Iterable[str], window_days: int, k: float) -> list[EventRecord]:
    """Rebuild event records from the CSV dump.

    The window length and sensitivity are not CSV columns; they come from
    the same config that produced the dump. A row that ``series_rows``
    refuses is a ValueError naming its series and line. So is a row that
    ``event_problem`` refuses, quoting its cells as written, and a window
    that ``follow_problem`` refuses after the previous window of its
    series: a repeat, an overlap, a step back or a start off that window's
    grid. A gap of whole windows, where zero rows were dropped, is allowed.
    """
    out: list[EventRecord] = []
    last: dict[tuple, TimeWindow] = {}
    for line, label, key, (t0, e, a, sigma, baseline_n, warmup), row in series_rows(text, EVENTS_CSV_COLUMNS, "events"):
        prev = last.get(key)
        problem = event_problem(e, a, sigma, k, baseline_n, warmup, row[3:]) or (
            prev and follow_problem("window", t0, prev.start, prev.end, window_days))
        if problem:
            raise ValueError(f"{label}, CSV line {line}: {problem}")
        last[key] = window = TimeWindow(t0, window_days)
        out.append(EventRecord(*key, window, e, a, sigma, k, baseline_n, warmup))
    return out
