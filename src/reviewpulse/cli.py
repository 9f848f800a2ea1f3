"""Command line interface.

Exit codes: 0 success, 2 config violation (bad config file, flag, or
scenario), 3 fatal dataset error (unreadable input). Per-record problems
never fail a run; they land in rejects.jsonl.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .config import ConfigError, MarketConfig, load_config
from .correlate import (
    PairSeries,
    ce_records_from_json,
    ce_records_to_json,
    market_correlations,
    read_correlations_csv,
    write_correlations_csv,
)
from .detect import detect_series, read_events_csv, write_events_csv
from .ingest import DatasetError, build_catalog, catalog_summary, rejects_to_jsonl
from .metrics import read_metrics_csv, write_metrics_csv
from .pipeline import (
    MarketAnalysis,
    analyze_catalog,
    ce_from_reports,
    read_review_files,
    run_pipeline,
    write_bundle,
)
from .summarize import (
    MockSummarizer,
    build_requests,
    default_template,
    load_template,
    request_report_entry,
    summary_report_entry,
)
from .synth import default_scenario, generate, load_scenario, scenario_to_dict

__all__ = ["main"]

T = TypeVar("T")


class CommandError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _load_cli_config(args: argparse.Namespace) -> MarketConfig:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError([f"--set expects KEY=VALUE, got {item!r}"])
        overrides[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    return load_config(args.config, overrides)


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    reviews, rejects = read_review_files(args.inputs, args.format, config)
    catalog = build_catalog(reviews, monthly_floor=config.monthly_floor)
    out = Path(args.out)
    _write(out, "rejects.jsonl", rejects_to_jsonl(rejects))
    _write(out, "catalog.json", _json_text(catalog_summary(catalog)))
    print(f"accepted {sum(len(v) for v in catalog.reviews.values())} reviews across {len(catalog.apps)} apps, {len(rejects)} rejects")
    print(f"wrote {out / 'rejects.jsonl'} and {out / 'catalog.json'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    reviews, _ = read_review_files(args.inputs, args.format, config)
    catalog = build_catalog(reviews, monthly_floor=config.monthly_floor)
    analysis = analyze_catalog(config, catalog)
    out = Path(args.out)
    weekly = [s for key in sorted(analysis.weekly_stats, key=lambda k: (k[0], k[1].value)) for s in analysis.weekly_stats[key]]
    daily = [s for key in sorted(analysis.daily_stats, key=lambda k: (k[0], k[1].value)) for s in analysis.daily_stats[key]]
    _write(out, "metrics.csv", write_metrics_csv(weekly))
    _write(out, "metrics_daily.csv", write_metrics_csv(daily))
    print(f"wrote {len(weekly)} event-window rows and {len(daily)} correlation-window rows to {out}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    stats = _read_stage(read_metrics_csv, args.metrics)
    series: dict = {}
    for stat in stats:
        series.setdefault((stat.app_id, stat.metric), []).append(stat)
    records = []
    for key in sorted(series, key=lambda k: (k[0], k[1].value)):
        group = sorted(series[key], key=lambda s: s.window.start)
        baseline_start = config.baseline_start or group[0].window.start
        records.extend(
            detect_series(
                group,
                baseline_start,
                config.sensitivity,
                min_baseline=config.min_baseline,
                mode=config.sigma_mode,
            )
        )
    path = _write(Path(args.out), "events.csv", write_events_csv(records))
    nonzero = sum(1 for r in records if r.e != 0)
    print(f"wrote {len(records)} event rows ({nonzero} nonzero) to {path}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    stats = _read_stage(read_metrics_csv, args.metrics_daily)
    apps = sorted({s.app_id for s in stats})
    metrics = sorted({s.metric for s in stats}, key=lambda m: m.value)
    grid = sorted({s.window for s in stats})
    row = {app: i for i, app in enumerate(apps)}
    column = {w.start: i for i, w in enumerate(grid)}
    series: list[PairSeries] = []
    for metric in metrics:
        values = np.full((len(apps), len(grid)), np.nan)
        for stat in stats:
            if stat.metric is metric and stat.mu is not None:
                values[row[stat.app_id], column[stat.window.start]] = stat.mu
        series.extend(
            market_correlations(
                apps,
                metric,
                values,
                grid,
                config.lookback_days,
                config.correlation_threshold,
                min_points=config.min_corr_points,
            )
        )
    path = _write(Path(args.out), "correlations.csv", write_correlations_csv(series))
    rows = sum(len(s.windows) for s in series)
    print(f"wrote {rows} correlation rows to {path}")
    return 0


def _cmd_ce(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    events = _read_stage(read_events_csv, args.events, config.event_window_days, config.sensitivity)
    correlations = _read_stage(read_correlations_csv, args.correlations, config.correlation_window_days)
    ces = ce_from_reports(events, correlations, config.event_window_days)
    path = _write(Path(args.out), "correlated_events.json", ce_records_to_json(ces))
    print(f"wrote {len(ces)} correlated events to {path}")
    return 0


def _cmd_summarize_prep(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    ces = _read_stage(ce_records_from_json, args.correlated_events)
    reviews, _ = read_review_files(args.inputs, args.format, config)
    catalog = build_catalog(reviews, monthly_floor=config.monthly_floor)
    from .sentiment import LexiconScorer, load_lexicon

    scorer = LexiconScorer(load_lexicon(config.lexicon_path) if config.lexicon_path else None)
    # An analysis without windows, used only to score CE windows' reviews.
    windows = MarketAnalysis(config=config, catalog=catalog, span=None, apps=catalog.apps, scorer=scorer)
    requests = build_requests(ces, windows.window_scored, config.sample_size, config.seed)
    template = (
        load_template(config.prompt_template_path)
        if config.prompt_template_path
        else default_template()
    )
    out = Path(args.out)
    path = _write(out, "summary_requests.json", _json_text([request_report_entry(r, template) for r in requests]))
    print(f"wrote {len(requests)} summary requests to {path}")
    if config.summarizer == "mock":
        client = MockSummarizer()
        spath = _write(out, "summaries.json", _json_text([summary_report_entry(r, client, template) for r in requests]))
        print(f"wrote {len(requests)} mock summaries to {spath}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .ingest import serialize_reviews

    if args.scenario is not None:
        try:
            scenario = load_scenario(args.scenario)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise CommandError(f"bad scenario {args.scenario}: {exc}", 2) from exc
    else:
        scenario = default_scenario()
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
    reviews, labels = generate(scenario)
    out = Path(args.out)
    _write(out, "reviews.jsonl", serialize_reviews(reviews, fmt="jsonl"))
    _write(
        out,
        "labels.json",
        _json_text(
            [
                {
                    "app_id": l.app_id,
                    "metric": l.metric.value,
                    "window_index": l.window_index,
                    "sign": l.sign,
                }
                for l in labels
            ]
        ),
    )
    _write(out, "scenario.json", _json_text(scenario_to_dict(scenario)))
    print(f"wrote {len(reviews)} reviews and {len(labels)} labels to {out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    result = run_pipeline(config, args.inputs, args.out, fmt=args.format)
    print(
        f"accepted {result.reviews_accepted} reviews ({result.reviews_rejected} rejects) "
        f"across {result.apps} apps"
    )
    print(
        f"found {result.events_nonzero} events, {result.correlated_events} correlated events, "
        f"{result.summary_requests} summary requests"
    )
    print(f"report bundle in {result.out_dir}: {', '.join(result.files)}")
    return 0


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"input file not found: {p}")
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {p}: {exc}") from exc


def _read_stage(reader: Callable[..., T], path: str, *args: object) -> T:
    """Parse a stage file; one that does not parse is a dataset error."""
    text = _read_text(path)
    try:
        return reader(text, *args)
    except (ValueError, KeyError) as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _add_common(parser: argparse.ArgumentParser, with_seed: bool = True) -> None:
    parser.add_argument("--config", help="config file (flat key = value lines)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable, wins over the file)",
    )
    parser.add_argument("--out", required=True, help="output directory")
    if with_seed:
        parser.add_argument("--seed", type=int, help="override the run seed")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("inputs", nargs="+", help="review dataset file(s)")
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl", help="input format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewpulse",
        description="Detect deviation events and cross-app correlated events in app review streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="parse inputs, report rejects and per-app coverage")
    _add_dataset_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_ingest_check)

    p = sub.add_parser("metrics", help="compute windowed metric series")
    _add_dataset_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("detect", help="detect deviation events from metrics.csv")
    p.add_argument("metrics", help="metrics.csv from the metrics stage")
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("correlate", help="compute pairwise correlations from metrics_daily.csv")
    p.add_argument("metrics_daily", help="metrics_daily.csv from the metrics stage")
    _add_common(p)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("ce", help="intersect events with correlation runs")
    p.add_argument("events", help="events.csv from the detect stage")
    p.add_argument("correlations", help="correlations.csv from the correlate stage")
    _add_common(p)
    p.set_defaults(handler=_cmd_ce)

    p = sub.add_parser("summarize-prep", help="build summary requests for correlated events")
    p.add_argument("correlated_events", help="correlated_events.json from the ce stage")
    _add_dataset_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_summarize_prep)

    p = sub.add_parser("synth", help="generate a synthetic review market")
    p.add_argument("scenario", nargs="?", help="scenario JSON (omit for the default market)")
    _add_common(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("run", help="full pipeline: ingest through summary requests")
    _add_dataset_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 2
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
