"""Command line interface.

Exit codes: 0 success, 2 config violation (bad config file, flag, or
scenario), 3 fatal dataset error (unreadable input). Per-record problems
never fail a run; they land in rejects.jsonl.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .config import ConfigError, MarketConfig, load_config
from .correlate import (
    ce_records_from_json,
    ce_records_to_json,
    read_correlations_csv,
    write_correlations_csv,
)
from .detect import read_events_csv, write_events_csv
from .ingest import DatasetError, serialize_reviews
from .metrics import read_day_sums_csv
from .pipeline import (
    aggregate,
    ce_from_reports,
    correlate_stats,
    detect_events,
    in_report_order,
    json_text,
    load_catalog,
    new_analysis,
    read_stage,
    run_pipeline,
    series_stats,
    write_file,
    write_intake,
    write_metrics,
    write_requests,
)
from .synth import default_scenario, generate, load_scenario, scenario_to_dict

__all__ = ["main"]


def _load_cli_config(args: argparse.Namespace) -> MarketConfig:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError([f"--set expects KEY=VALUE, got {item!r}"])
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return load_config(args.config, overrides)


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    catalog, rejects = load_catalog(config, args.inputs, args.format)
    out = Path(args.out)
    write_intake(out, rejects, catalog)
    print(f"accepted {sum(len(v) for v in catalog.reviews.values())} reviews across {len(catalog.apps)} apps, {len(rejects)} rejects")
    print(f"wrote {out / 'rejects.jsonl'} and {out / 'catalog.json'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    catalog, _ = load_catalog(config, args.inputs, args.format)
    weekly, daily = write_metrics(args.out, aggregate(config, catalog))
    print(f"wrote day sums, {weekly} event-window rows and {daily} correlation-window rows to {Path(args.out)}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    sums = read_stage(read_day_sums_csv, args.day_sums)
    events = detect_events(config, series_stats(sums, config.event_window_days))
    records = [r for series in in_report_order(events) for r in series]
    path = write_file(args.out, "events.csv", write_events_csv(records))
    nonzero = sum(1 for r in records if r.e != 0)
    print(f"wrote {len(records)} event rows ({nonzero} nonzero) to {path}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    sums = read_stage(read_day_sums_csv, args.day_sums)
    runs = correlate_stats(config, series_stats(sums, config.correlation_window_days))
    path = write_file(args.out, "correlations.csv", write_correlations_csv(runs))
    print(f"wrote {len(runs)} correlation runs to {path}")
    return 0


def _cmd_ce(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    events = read_stage(read_events_csv, args.events, config.event_window_days, config.sensitivity)
    runs = read_stage(read_correlations_csv, args.correlations, config.correlation_window_days)
    ces = ce_from_reports(events, runs, config.event_window_days)
    path = write_file(args.out, "correlated_events.json", [ce_records_to_json(ces)])
    print(f"wrote {len(ces)} correlated events to {path}")
    return 0


def _cmd_summarize_prep(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    ces = read_stage(ce_records_from_json, args.correlated_events)
    catalog, _ = load_catalog(config, args.inputs, args.format)
    # Nothing is summed: the analysis only scores the CE windows' reviews.
    analysis = new_analysis(config, catalog)
    requests = analysis.summary_requests(ces)
    paths = write_requests(args.out, config, requests)
    print(f"wrote {len(requests)} summary requests to {paths[0]}")
    for path in paths[1:]:
        print(f"wrote {len(requests)} mock summaries to {path}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        try:
            scenario = load_scenario(args.scenario)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError([f"bad scenario {args.scenario}: {exc}"]) from exc
    else:
        scenario = default_scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    reviews, labels = generate(scenario)
    out = Path(args.out)
    write_file(out, "reviews.jsonl", [serialize_reviews(reviews, fmt="jsonl")])
    write_file(out, "labels.json", [json_text([asdict(label) for label in labels])])
    write_file(out, "scenario.json", [json_text(scenario_to_dict(scenario))])
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (flat key = value lines)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable, wins over the file)",
    )
    parser.add_argument("--out", required=True, help="output directory")
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

    p = sub.add_parser("metrics", help="compute day sums and windowed metric series")
    _add_dataset_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("detect", help="detect deviation events from day_sums.csv")
    p.add_argument("day_sums", help="day_sums.csv from the metrics stage")
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("correlate", help="compute pairwise correlation runs from day_sums.csv")
    p.add_argument("day_sums", help="day_sums.csv from the metrics stage")
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
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the scenario seed")
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
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
