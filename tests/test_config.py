"""Config defaults, parsing, precedence, and whole-file validation."""
from __future__ import annotations

import math
from dataclasses import fields
from datetime import date

import pytest

from reviewpulse.config import (
    ConfigError,
    MarketConfig,
    apply_overrides,
    load_config,
    parse_config_text,
    validate_config,
)
from reviewpulse.ingest import RatingScale


def test_documented_defaults() -> None:
    config = MarketConfig()
    assert config.event_window_days == 7
    assert config.correlation_window_days == 1
    assert config.sensitivity == 2.0
    assert config.correlation_threshold == 0.5
    assert config.lookback_days == 14
    assert config.sample_size == 50
    assert config.seed == 0
    assert config.min_baseline == 4
    assert config.min_corr_points == 8
    assert config.monthly_floor == 20.0
    assert config.exclude_insufficient is False
    assert config.sigma_mode == "population"
    assert config.summarizer == "mock"
    validate_config(config)  # defaults must validate


def test_threshold_above_one_is_rejected() -> None:
    with pytest.raises(ConfigError) as err:
        validate_config(MarketConfig(correlation_threshold=1.5))
    assert "correlation_threshold" in str(err.value)
    validate_config(MarketConfig(correlation_threshold=1.0))  # boundary ok


def test_zero_sensitivity_is_rejected() -> None:
    with pytest.raises(ConfigError) as err:
        validate_config(MarketConfig(sensitivity=0.0))
    assert "sensitivity" in str(err.value)


def test_all_violations_reported_at_once() -> None:
    bad = MarketConfig(
        sensitivity=0.0,
        correlation_threshold=2.0,
        sample_size=0,
        sigma_mode="weird",
        span_start=date(2024, 6, 1),
        span_end=date(2024, 1, 1),
    )
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert len(err.value.errors) == 5
    joined = str(err.value)
    for key in ("sensitivity", "correlation_threshold", "sample_size", "sigma_mode", "span_start"):
        assert key in joined


def test_every_bound_is_reported_in_its_order_with_its_value() -> None:
    with pytest.raises(ConfigError) as err:
        load_config(None, {
            "event_window_days": "0", "correlation_window_days": "-1", "sensitivity": "-0.5",
            "correlation_threshold": "1.5", "lookback_days": "0", "sample_size": "0", "min_baseline": "0",
            "min_corr_points": "1", "monthly_floor": "-1", "sigma_mode": "weird", "summarizer": "gpt",
        })
    assert err.value.errors == [
        "event_window_days must be >= 1, got 0",
        "correlation_window_days must be >= 1, got -1",
        "sensitivity must be > 0, got -0.5",
        "correlation_threshold must be in (0, 1], got 1.5",
        "lookback_days must be >= 1, got 0",
        "sample_size must be >= 1, got 0",
        "min_baseline must be >= 1, got 0",
        "min_corr_points must be >= 2, got 1",
        "monthly_floor must be >= 0, got -1.0",
        "sigma_mode must be 'population' or 'sample', got 'weird'",
        "summarizer must be 'mock' or 'none', got 'gpt'",
    ]


@pytest.mark.parametrize(
    "key, rule", [("sensitivity", "> 0"), ("correlation_threshold", "in (0, 1]"), ("monthly_floor", ">= 0")]
)
def test_a_nan_float_bound_is_refused(key: str, rule: str) -> None:
    # The parser refuses a NaN in a file or flag; a config built in code
    # meets the same bound.
    with pytest.raises(ConfigError) as err:
        validate_config(MarketConfig(**{key: math.nan}))
    assert err.value.errors == [f"{key} must be {rule}, got nan"]


def test_key_value_text_parsing() -> None:
    text = """
    # comment
    sensitivity = 3.0

    lookback_days=21
    scale.web = 0:10
    """
    assert parse_config_text(text) == {
        "sensitivity": "3.0",
        "lookback_days": "21",
        "scale.web": "0:10",
    }
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")


def test_unknown_key_and_bad_value_collected_together() -> None:
    with pytest.raises(ConfigError) as err:
        apply_overrides(MarketConfig(), {"mystery": "1", "sample_size": "many"})
    assert len(err.value.errors) == 2


def test_scale_overrides_build_a_scale_map() -> None:
    config = apply_overrides(
        MarketConfig(), {"scale.default": "1:5", "scale.web": "0:10"}
    )
    assert config.scales.default == RatingScale(1, 5)
    assert config.scales.per_source["web"] == RatingScale(0, 10)
    with pytest.raises(ConfigError, match="scale.web"):
        apply_overrides(MarketConfig(), {"scale.web": "ten"})


def test_file_then_cli_override_precedence(tmp_path) -> None:
    path = tmp_path / "run.cfg"
    path.write_text("sensitivity = 3.0\nlookback_days = 21\n", encoding="utf-8")
    config = load_config(path, {"sensitivity": "4.0"})
    assert config.sensitivity == 4.0  # CLI wins
    assert config.lookback_days == 21  # file survives
    assert config.sample_size == 50  # default survives


def test_load_config_validates_merged_result(tmp_path) -> None:
    path = tmp_path / "run.cfg"
    path.write_text("sensitivity = 3.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="correlation_threshold"):
        load_config(path, {"correlation_threshold": "1.5"})
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.cfg")


def test_date_and_none_values_parse() -> None:
    config = apply_overrides(
        MarketConfig(), {"baseline_start": "2024-03-01", "span_end": "none"}
    )
    assert config.baseline_start == date(2024, 3, 1)
    assert config.span_end is None
    with pytest.raises(ConfigError, match="baseline_start"):
        apply_overrides(MarketConfig(), {"baseline_start": "March 1"})
    # A key that is not optional takes "none" as its value.
    assert load_config(None, {"summarizer": "none"}).summarizer == "none"
    with pytest.raises(ConfigError, match="sigma_mode must be 'population' or 'sample', got 'none'"):
        load_config(None, {"sigma_mode": "none"})


def test_missing_referenced_files_fail_validation(tmp_path) -> None:
    with pytest.raises(ConfigError, match="lexicon_path"):
        validate_config(MarketConfig(lexicon_path=str(tmp_path / "nope.tsv")))


def _as_text(value: object) -> str:
    if value is None:
        return "none"
    return str(value).lower() if isinstance(value, bool) else str(value)


# Every key whose type is ``X | None``; only these read ``none`` as unset.
_UNSETTABLE = {"baseline_start", "span_start", "span_end", "lexicon_path", "prompt_template_path"}


def test_override_keys_are_the_config_fields_parsed_by_their_type() -> None:
    names = [f.name for f in fields(MarketConfig) if f.name != "scales"]
    # Every field but scales reads back its own value from text.
    values = MarketConfig(
        event_window_days=14, correlation_window_days=2, sensitivity=2.5, correlation_threshold=0.75,
        lookback_days=21, sample_size=30, seed=7, min_baseline=5, min_corr_points=9, monthly_floor=12.5,
        exclude_insufficient=True, sigma_mode="sample", summarizer="none", baseline_start=date(2024, 3, 1),
        span_start=date(2024, 1, 1), span_end=date(2025, 1, 1), lexicon_path="lex.tsv",
        prompt_template_path="prompt.txt",
    )
    assert apply_overrides(MarketConfig(), {n: _as_text(getattr(values, n)) for n in names}) == values
    config = apply_overrides(MarketConfig(), {"scale.default": "0:4", "scale.web": "0:10"})
    assert (config.scales.default, config.scales.per_source) == (RatingScale(0, 4), {"web": RatingScale(0, 10)})
    with pytest.raises(ConfigError) as err:
        apply_overrides(MarketConfig(), {"scales": "1:5", "scale": "1:5", "Seed": "1"})
    assert err.value.errors == ["unknown config key 'scales'", "unknown config key 'scale'", "unknown config key 'Seed'"]

    for name in names:
        try:
            config = apply_overrides(values, {name: "None"})
        except ConfigError as exc:
            assert name not in _UNSETTABLE
            assert exc.errors[0].startswith(f"{name}: "), exc.errors
            continue
        assert getattr(config, name) == (None if name in _UNSETTABLE else "None"), name
    assert {f.name for f in fields(MarketConfig) if "None" in str(f.type)} == _UNSETTABLE


_FLOAT_KEYS = [f.name for f in fields(MarketConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_float_keys_refuse_values_that_are_not_finite(key: str, value: str) -> None:
    with pytest.raises(ConfigError) as err:
        load_config(None, {key: value})
    assert err.value.errors == [f"{key}: expected a finite number, got {value!r}"]


def test_float_keys_are_the_three_documented_ones() -> None:
    assert _FLOAT_KEYS == ["sensitivity", "correlation_threshold", "monthly_floor"]
