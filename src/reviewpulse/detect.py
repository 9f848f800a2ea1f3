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
from math import isfinite, isqrt
from typing import Iterable, Sequence

from .ingest import csv_line_writer
from .metrics import MetricKind, TimeWindow, WindowStat, csv_rows

__all__ = [
    "EVENTS_CSV_COLUMNS",
    "EventRecord",
    "baseline_sigma",
    "detect_series",
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


def baseline_sigma(
    deltas: Sequence[float],
    min_baseline: int = DEFAULT_MIN_BASELINE,
    mode: str = "population",
) -> float | None:
    """Standard deviation of the baseline deltas; None while too few.

    Population form by default (the baseline is treated as the complete
    history, not a sample); ``mode="sample"`` switches to the n-1 form,
    which then needs at least two deltas. The value is the exact standard
    deviation of the deltas, correctly rounded; a NaN or infinite delta is
    a ValueError.
    """
    _check_mode(mode)
    if len(deltas) < min_baseline:
        return None
    moments = _Moments()
    for delta in deltas:
        moments.add(delta)
    return moments.sigma(mode)


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


def write_events_csv(records: Iterable[EventRecord]) -> str:
    lines: list[str] = []
    writer = csv_line_writer(lines)
    writer.writerow(EVENTS_CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.app_id,
                r.metric.value,
                r.window.start.isoformat(),
                r.e,
                "" if r.a is None else repr(r.a),
                "" if r.sigma is None else repr(r.sigma),
                r.baseline_n,
                "true" if r.warmup else "false",
            ]
        )
    return "".join(lines)


def read_events_csv(text: str, window_days: int, k: float) -> list[EventRecord]:
    """Rebuild event records from the CSV dump.

    The window length and sensitivity are not CSV columns; they come from
    the same config that produced the dump. A row whose ``e`` is not -1, 0
    or 1, whose ``a`` or ``sigma`` is not finite, or whose ``warmup`` is not
    ``true`` or ``false`` is a ValueError naming its line.
    """
    out: list[EventRecord] = []
    for line, (app_id, metric, t0, e, a, sigma, baseline_n, warmup) in csv_rows(text, EVENTS_CSV_COLUMNS, "events"):
        values = [None if v == "" else float(v) for v in (a, sigma)]
        finite = all(isfinite(v) for v in values if v is not None)
        if int(e) not in (-1, 0, 1) or not finite or warmup not in ("true", "false"):
            raise ValueError(f"events CSV line {line}: bad e, a, sigma or warmup: {e!r}, {a!r}, {sigma!r}, {warmup!r}")
        out.append(
            EventRecord(
                app_id=app_id,
                metric=MetricKind(metric),
                window=TimeWindow(date.fromisoformat(t0), window_days),
                e=int(e),
                a=values[0],
                sigma=values[1],
                k=k,
                baseline_n=int(baseline_n),
                warmup=warmup == "true",
            )
        )
    return out
