"""Command line interface.

Exit codes: 0 success, 2 config violation (bad config file, flag, or
scenario, or an --out that is a file or lies under one, refused before any
input is read), 3 fatal dataset error (unreadable input). Per-record
problems never fail a run; they land in rejects.jsonl.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .config import ConfigError, MarketConfig, load_config
from .correlate import ce_records_from_json, read_correlations_csv
from .detect import read_events_csv
from .ingest import DatasetError, serialize_reviews
from .metrics import read_day_sums_csv
from .pipeline import (
    aggregate,
    ce_from_reports,
    correlate_stats,
    detect_events,
    json_text,
    load_catalog,
    new_analysis,
    read_stage,
    run_pipeline,
    series_stats,
    write_ces,
    write_events,
    write_file,
    write_intake,
    write_metrics,
    write_requests,
    write_runs,
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


def _cmd_ingest_check(config: MarketConfig, args: argparse.Namespace) -> int:
    catalog, rejects = load_catalog(config, args.inputs, args.format)
    paths = write_intake(args.out, rejects, catalog)
    print(f"accepted {sum(len(v) for v in catalog.reviews.values())} reviews across {len(catalog.apps)} apps, {len(rejects)} rejects")
    print(f"wrote {' and '.join(map(str, paths))}")
    return 0


def _cmd_metrics(config: MarketConfig, args: argparse.Namespace) -> int:
    catalog, _ = load_catalog(config, args.inputs, args.format)
    analysis = aggregate(config, catalog)
    write_metrics(args.out, analysis)
    weekly, daily = (sum(len(s.windows) for s in stats.values())
                     for stats in (analysis.weekly_stats, analysis.daily_stats))
    print(f"wrote day sums, {weekly} event-window rows and {daily} correlation-window rows to {Path(args.out)}")
    return 0


def _cmd_detect(config: MarketConfig, args: argparse.Namespace) -> int:
    sums = read_stage(read_day_sums_csv, args.day_sums)
    events = detect_events(config, series_stats(sums, config.event_window_days))
    [path] = write_events(args.out, events)
    nonzero = sum(r.e != 0 for series in events.values() for r in series)
    print(f"wrote {sum(map(len, events.values()))} event rows ({nonzero} nonzero) to {path}")
    return 0


def _cmd_correlate(config: MarketConfig, args: argparse.Namespace) -> int:
    sums = read_stage(read_day_sums_csv, args.day_sums)
    runs = correlate_stats(config, series_stats(sums, config.correlation_window_days))
    [path] = write_runs(args.out, runs)
    print(f"wrote {len(runs)} correlation runs to {path}")
    return 0


def _cmd_ce(config: MarketConfig, args: argparse.Namespace) -> int:
    events = read_stage(read_events_csv, args.events, config.event_window_days, config.sensitivity)
    runs = read_stage(read_correlations_csv, args.correlations, config.correlation_window_days)
    ces = ce_from_reports(events, runs, config.event_window_days)
    [path] = write_ces(args.out, ces)
    print(f"wrote {len(ces)} correlated events to {path}")
    return 0


def _cmd_summarize_prep(config: MarketConfig, args: argparse.Namespace) -> int:
    ces = read_stage(ce_records_from_json, args.correlated_events, config.correlation_window_days)
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


def _cmd_run(config: MarketConfig, args: argparse.Namespace) -> int:
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


_DAY_SUMS = ("day_sums", "day_sums.csv from the metrics stage")
# One row per subcommand, in --help order: its name and help, the stage
# files it reads (dest and help), whether it reads review files, and its
# handler. synth reads no config and adds its own arguments.
_SUBCOMMANDS = (
    ("ingest-check", "parse inputs, report rejects and per-app coverage", (), True, _cmd_ingest_check),
    ("metrics", "compute day sums and windowed metric series", (), True, _cmd_metrics),
    ("detect", "detect deviation events from day_sums.csv", (_DAY_SUMS,), False, _cmd_detect),
    ("correlate", "compute pairwise correlation runs from day_sums.csv", (_DAY_SUMS,), False, _cmd_correlate),
    ("ce", "intersect events with correlation runs",
     (("events", "events.csv from the detect stage"), ("correlations", "correlations.csv from the correlate stage")),
     False, _cmd_ce),
    ("summarize-prep", "build summary requests for correlated events",
     (("correlated_events", "correlated_events.json from the ce stage"),), True, _cmd_summarize_prep),
    ("synth", "generate a synthetic review market", (), False, _cmd_synth),
    ("run", "full pipeline: ingest through summary requests", (), True, _cmd_run),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewpulse",
        description="Detect deviation events and cross-app correlated events in app review streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, stage_files, reads_reviews, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if handler is _cmd_synth:
            p.add_argument("scenario", nargs="?", help="scenario JSON (omit for the default market)")
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--seed", type=int, help="override the scenario seed")
            continue
        for dest, file_help in stage_files:
            p.add_argument(dest, help=file_help)
        if reads_reviews:
            p.add_argument("inputs", nargs="+", help="review dataset file(s)")
            p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl", help="input format")
        p.add_argument("--config", help="config file (flat key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable, wins over the file)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the run seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        nearest = next(path for path in (out, *out.parents) if path.exists() or path.is_symlink())
        if not nearest.is_dir():
            raise ConfigError([f"--out {args.out}: {nearest} is not a directory"])
        if args.handler is _cmd_synth:
            return _cmd_synth(args)
        return args.handler(_load_cli_config(args), args)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
