"""Run configuration: defaults, flat key-value files, validation.

Config files are plain ``key = value`` lines (``#`` comments and blank
lines ignored). Rating scales take ``lo:hi`` values, with per-source
overrides spelled ``scale.<source> = lo:hi``. CLI flags override file
values; everything left unset keeps the documented default. Validation
collects every violation before failing, so a bad file reports all of its
problems at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from datetime import date
from pathlib import Path
from typing import Callable, Mapping

from .correlate import DEFAULT_MIN_CORR_POINTS
from .detect import DEFAULT_MIN_BASELINE
from .ingest import DEFAULT_MONTHLY_FLOOR, RatingScale, ScaleMap, iso_date
from .sentiment import load_lexicon
from .summarize import load_template

__all__ = [
    "ConfigError",
    "MarketConfig",
    "apply_overrides",
    "load_config",
    "parse_config_text",
    "validate_config",
]


class ConfigError(Exception):
    """One or more config violations; ``errors`` lists all of them."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(slots=True)
class MarketConfig:
    event_window_days: int = 7
    correlation_window_days: int = 1
    sensitivity: float = 2.0
    correlation_threshold: float = 0.5
    lookback_days: int = 14
    sample_size: int = 50
    seed: int = 0
    min_baseline: int = DEFAULT_MIN_BASELINE
    min_corr_points: int = DEFAULT_MIN_CORR_POINTS
    monthly_floor: float = DEFAULT_MONTHLY_FLOOR
    exclude_insufficient: bool = False
    sigma_mode: str = "population"
    summarizer: str = "mock"
    baseline_start: date | None = None
    span_start: date | None = None
    span_end: date | None = None
    lexicon_path: str | None = None
    prompt_template_path: str | None = None
    scales: ScaleMap = field(default_factory=ScaleMap)


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {value!r}")
    return value.lower() == "true"


def _parse_finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _none_or(parse: Callable[[str], object]) -> Callable[[str], object]:
    return lambda value: None if value.lower() == "none" else parse(value)


# Each key is parsed by its field's declared type; only ``| None`` types read ``none``.
_PARSE_BY_TYPE = {
    "int": int,
    "float": _parse_finite,
    "bool": _parse_bool,
    "str": str,
    "date | None": _none_or(iso_date),
    "str | None": _none_or(str),
}
_KEY_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(MarketConfig) if f.type in _PARSE_BY_TYPE}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError([f"line {line_no}: expected 'key = value', got {stripped!r}"])
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_scale(value: str) -> RatingScale:
    lo_text, sep, hi_text = value.partition(":")
    if not sep:
        raise ValueError(f"expected 'lo:hi', got {value!r}")
    return RatingScale(int(lo_text.strip()), int(hi_text.strip()))


def apply_overrides(config: MarketConfig, values: Mapping[str, str]) -> MarketConfig:
    """Apply raw string overrides onto a config (collecting all errors)."""
    errors: list[str] = []
    updates: dict[str, object] = {}
    default_scale = config.scales.default
    per_source = dict(config.scales.per_source)

    for key, value in values.items():
        try:
            if key in _KEY_PARSERS:
                updates[key] = _KEY_PARSERS[key](value)
            elif key == "scale.default":
                default_scale = _parse_scale(value)
            elif key.startswith("scale."):
                per_source[key[len("scale.") :]] = _parse_scale(value)
            else:
                errors.append(f"unknown config key {key!r}")
        except (ValueError, TypeError) as exc:
            errors.append(f"{key}: {exc}")

    if errors:
        raise ConfigError(errors)
    return replace(config, **updates, scales=ScaleMap(default_scale, per_source))  # type: ignore[arg-type]


# Each key's bound, in the order violations are listed: the key, its rule
# as the message states it, and the test a value must pass.
_BOUNDS: tuple[tuple[str, str, Callable[[object], bool]], ...] = (
    ("event_window_days", ">= 1", lambda v: v >= 1),
    ("correlation_window_days", ">= 1", lambda v: v >= 1),
    ("sensitivity", "> 0", lambda v: v > 0),
    ("correlation_threshold", "in (0, 1]", lambda v: 0 < v <= 1),
    ("lookback_days", ">= 1", lambda v: v >= 1),
    ("sample_size", ">= 1", lambda v: v >= 1),
    ("min_baseline", ">= 1", lambda v: v >= 1),
    ("min_corr_points", ">= 2", lambda v: v >= 2),
    ("monthly_floor", ">= 0", lambda v: v >= 0),
    ("sigma_mode", "'population' or 'sample'", lambda v: v in ("population", "sample")),
    ("summarizer", "'mock' or 'none'", lambda v: v in ("mock", "none")),
)


def validate_config(config: MarketConfig) -> MarketConfig:
    """Check every constraint; raise ConfigError listing all violations."""
    errors = [f"{key} must be {rule}, got {getattr(config, key)!r}"
              for key, rule, holds in _BOUNDS if not holds(getattr(config, key))]
    if config.span_start is not None and config.span_end is not None:
        if config.span_start >= config.span_end:
            errors.append(
                f"span_start {config.span_start} must precede span_end {config.span_end}"
            )
    # Both files are read in full here, so a bad one fails before any output.
    for key, load in (("lexicon_path", load_lexicon), ("prompt_template_path", load_template)):
        path = getattr(config, key)
        if path is None:
            continue
        if not Path(path).is_file():
            errors.append(f"{key} {path!r} is not a file")
            continue
        try:
            load(path)
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            errors.append(f"{key} {path!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    return config


def load_config(path: str | Path | None, overrides: Mapping[str, str] | None = None) -> MarketConfig:
    """Defaults, then file values, then overrides; validated as a whole."""
    config = MarketConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config {path} is not valid UTF-8: {exc}"]) from exc
        config = apply_overrides(config, parse_config_text(text))
    if overrides:
        config = apply_overrides(config, overrides)
    return validate_config(config)
