"""Command-line surface: exit codes, report bundles, stage plumbing."""
from __future__ import annotations

import csv
import json
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest

from reviewpulse import ingest, pipeline
from reviewpulse.cli import main
from reviewpulse.ingest import serialize_reviews
from reviewpulse.synth import generate, scenario_to_dict, spike_pair_scenario

BUNDLE_FILES = (
    "catalog.json",
    "correlated_events.json",
    "correlations.csv",
    "day_sums.csv",
    "events.csv",
    "metrics.csv",
    "metrics_daily.csv",
    "rejects.jsonl",
    "summaries.json",
    "summary_requests.json",
)


def _small_dataset(tmp_path: Path, **scenario: int) -> Path:
    reviews, _ = generate(spike_pair_scenario(**{"seed": 2, "n_apps": 3, "n_windows": 12, "spike_window": 6, **scenario}))
    path = tmp_path / "reviews.jsonl"
    path.write_text(serialize_reviews(reviews, fmt="jsonl"), encoding="utf-8")
    return path


def test_empty_dataset_yields_empty_reports_and_exit_zero(tmp_path) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(empty), "--out", str(out)]) == 0
    for name in BUNDLE_FILES:
        assert (out / name).is_file(), name
    assert json.loads((out / "correlated_events.json").read_text()) == []
    assert json.loads((out / "summary_requests.json").read_text()) == []
    assert json.loads((out / "summaries.json").read_text()) == []
    assert (out / "rejects.jsonl").read_text() == ""
    # CSVs reduce to their header line.
    for name in ("day_sums.csv", "events.csv", "correlations.csv", "metrics.csv", "metrics_daily.csv"):
        lines = (out / name).read_text().strip().splitlines()
        assert len(lines) == 1, name


def test_same_inputs_give_byte_identical_bundles(tmp_path) -> None:
    dataset = _small_dataset(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(dataset), "--out", str(out_a)]) == 0
    assert main(["run", str(dataset), "--out", str(out_b)]) == 0
    for name in BUNDLE_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_ce_stage_rebuilds_the_run_output_from_csvs_alone(tmp_path) -> None:
    dataset = _small_dataset(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(dataset), "--out", str(out)]) == 0
    ce_out = tmp_path / "ce"
    assert main([
        "ce", str(out / "events.csv"), str(out / "correlations.csv"),
        "--out", str(ce_out),
    ]) == 0
    assert (ce_out / "correlated_events.json").read_bytes() == (
        out / "correlated_events.json"
    ).read_bytes()

    # Zero events are ignored, so dropping events.csv's e == 0 rows changes nothing.
    lines = (out / "events.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    fired = [line for line, row in zip(lines, csv.reader(lines)) if row[3] != "0"]
    assert 1 < len(fired) < len(lines)
    (tmp_path / "fired.csv").write_text("".join(fired), encoding="utf-8")
    fired_out = tmp_path / "fired"
    assert main(["ce", str(tmp_path / "fired.csv"), str(out / "correlations.csv"), "--out", str(fired_out)]) == 0
    assert json.loads((out / "correlated_events.json").read_text()) != []
    assert (fired_out / "correlated_events.json").read_bytes() == (out / "correlated_events.json").read_bytes()


def _chain_matches_run(tmp_path: Path, dataset: Path, settings: list[str]) -> Path:
    """Run the staged subcommands and ``run`` under one config; assert that
    they write the same files, every file of the ``run`` bundle byte for byte."""
    flags = [arg for setting in settings for arg in ("--set", setting)]
    out = tmp_path / "run"
    assert main(["run", str(dataset), "--out", str(out), *flags]) == 0

    staged = tmp_path / "staged"
    assert main(["ingest-check", str(dataset), "--out", str(staged), *flags]) == 0
    assert main(["metrics", str(dataset), "--out", str(staged), *flags]) == 0
    assert main(["detect", str(staged / "day_sums.csv"), "--out", str(staged), *flags]) == 0
    assert main(["correlate", str(staged / "day_sums.csv"), "--out", str(staged), *flags]) == 0
    assert main([
        "ce", str(staged / "events.csv"), str(staged / "correlations.csv"),
        "--out", str(staged), *flags,
    ]) == 0
    assert main([
        "summarize-prep", str(staged / "correlated_events.json"), str(dataset),
        "--out", str(staged), *flags,
    ]) == 0
    names = sorted(path.name for path in out.iterdir())
    assert sorted(path.name for path in staged.iterdir()) == names
    assert set(names) == {*pipeline.BUNDLE_FILES, "summaries.json"}
    for name in names:
        assert (staged / name).read_bytes() == (out / name).read_bytes(), name
    return out


def test_staged_commands_chain_into_the_same_artifacts(tmp_path) -> None:
    out = _chain_matches_run(tmp_path, _small_dataset(tmp_path), [])
    assert len(json.loads((out / "correlated_events.json").read_text())) == 1


def test_staged_commands_chain_under_a_non_default_config(tmp_path) -> None:
    # Sample sigma from a set baseline start, on a two-day correlation grid.
    dataset = _small_dataset(tmp_path, n_apps=4, n_windows=30, spike_window=20)
    settings = [
        "sigma_mode=sample", "baseline_start=2024-02-01", "correlation_window_days=2",
        "lookback_days=20", "min_corr_points=5", "sensitivity=1.5",
    ]
    out = _chain_matches_run(tmp_path, dataset, settings)
    assert len(json.loads((out / "correlated_events.json").read_text())) == 2


def test_staged_commands_chain_under_a_custom_lexicon(tmp_path) -> None:
    # summarize-prep scores each CE window's bodies itself, while run reads
    # the sentence bins its day sums scored. The generated bodies are
    # neutral under the built-in lexicon; this one scores their filler words.
    dataset = _small_dataset(tmp_path)
    lexicon = tmp_path / "fillers.tsv"
    lexicon.write_text("today\t2\nupdate\t-2\nscreen\t1\nversion\t-1\n", encoding="utf-8")
    out = _chain_matches_run(tmp_path, dataset, [f"lexicon_path={lexicon}"])
    default = tmp_path / "default"
    assert main(["run", str(dataset), "--out", str(default)]) == 0
    variants = {entry["variant"] for entry in json.loads((out / "summary_requests.json").read_text())}
    assert variants == {"all", "positive", "negative"}
    for name in ("day_sums.csv", "summary_requests.json"):
        assert (out / name).read_bytes() != (default / name).read_bytes(), name


def test_metrics_runs_only_parse_catalog_and_aggregate(tmp_path, monkeypatch) -> None:
    dataset = _small_dataset(tmp_path)
    out = tmp_path / "run"
    assert main(["run", str(dataset), "--out", str(out)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("metrics ran a later stage")

    for name in ("detect_series", "market_correlations", "build_requests"):
        monkeypatch.setattr(pipeline, name, refuse)
    staged = tmp_path / "staged"
    assert main(["metrics", str(dataset), "--out", str(staged)]) == 0
    for name in ("day_sums.csv", "metrics.csv", "metrics_daily.csv"):
        assert (staged / name).read_bytes() == (out / name).read_bytes(), name


def test_detect_takes_its_window_from_its_own_config(tmp_path) -> None:
    # One day_sums.csv, written under the default 7-day event window, serves
    # a detect run on 14-day windows.
    dataset = _small_dataset(tmp_path, n_windows=30, spike_window=20)
    staged = tmp_path / "staged"
    assert main(["metrics", str(dataset), "--out", str(staged)]) == 0
    detected = tmp_path / "detected"
    flags = ["--set", "event_window_days=14"]
    assert main(["detect", str(staged / "day_sums.csv"), "--out", str(detected), *flags]) == 0
    out = tmp_path / "run"
    assert main(["run", str(dataset), "--out", str(out), *flags]) == 0
    assert (detected / "events.csv").read_bytes() == (out / "events.csv").read_bytes()
    rows = list(csv.DictReader((out / "events.csv").read_text(encoding="utf-8").splitlines()))
    assert (date.fromisoformat(rows[1]["t0"]) - date.fromisoformat(rows[0]["t0"])).days == 14
    assert any(row["e"] != "0" for row in rows)


def test_synthetic_market_run_reports_exactly_the_injected_pair(tmp_path) -> None:
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        json.dumps(scenario_to_dict(spike_pair_scenario(seed=0))), encoding="utf-8"
    )
    synth_out = tmp_path / "synth"
    assert main(["synth", str(scenario_path), "--out", str(synth_out)]) == 0
    for name in ("reviews.jsonl", "labels.json", "scenario.json"):
        assert (synth_out / name).is_file(), name
    labels = json.loads((synth_out / "labels.json").read_text())
    assert {(l["app_id"], l["metric"], l["window_index"], l["sign"]) for l in labels} == {
        ("spike0", "count", 30, 1),
        ("spike1", "count", 30, 1),
    }

    run_out = tmp_path / "run"
    assert main(["run", str(synth_out / "reviews.jsonl"), "--out", str(run_out)]) == 0
    ces = json.loads((run_out / "correlated_events.json").read_text())
    week30 = date(2024, 1, 4).toordinal() + 30 * 7
    assert len(ces) == 1
    only = ces[0]
    assert (only["app_i"], only["app_j"], only["metric"], only["ce"]) == (
        "spike0", "spike1", "count", 1,
    )
    assert date.fromisoformat(only["window_start"]).toordinal() == week30


def test_config_violations_exit_two_with_each_error_on_stderr(tmp_path, capsys) -> None:
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("", encoding="utf-8")
    code = main([
        "run", str(dataset), "--out", str(tmp_path / "out"),
        "--set", "correlation_threshold=1.5", "--set", "sensitivity=0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "correlation_threshold" in err
    assert "sensitivity" in err
    assert err.count("config error:") == 2


@pytest.mark.parametrize("setting", ["monthly_floor=nan", "sensitivity=inf", "correlation_threshold=-inf"])
def test_a_float_key_that_is_not_finite_exits_two(tmp_path, capsys, setting) -> None:
    code = main(["run", str(_small_dataset(tmp_path)), "--out", str(tmp_path / "out"), "--set", setting])
    assert code == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_line_json_cannot_decode_is_one_reject_not_a_failed_run(tmp_path) -> None:
    dataset = _small_dataset(tmp_path)
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("1" * 5000 + "\n" + "[" * 100_000 + "\n" + dataset.read_text(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(mixed), "--out", str(out)]) == 0
    rejects = [json.loads(l) for l in (out / "rejects.jsonl").read_text().splitlines()]
    assert [(r["line_no"], r["reason"].split(":")[0]) for r in rejects] == [(1, "invalid-json"), (2, "invalid-json")]


def test_run_with_summarizer_none_writes_requests_but_no_summaries(tmp_path) -> None:
    out = tmp_path / "out"
    assert main(["run", str(_small_dataset(tmp_path)), "--out", str(out), "--set", "summarizer=none"]) == 0
    assert (out / "summary_requests.json").is_file()
    assert not (out / "summaries.json").exists()


def test_config_file_that_is_not_utf8_exits_two(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    code = main(["run", str(_small_dataset(tmp_path)), "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_app_id_with_a_carriage_return_survives_run_then_ce(tmp_path) -> None:
    # The report CSVs must quote a bare "\r", or ce cannot read them back.
    scenario = spike_pair_scenario(seed=2, n_apps=3, n_windows=12, spike_window=6)
    renamed = {"spike0": "ap\rp01"}
    scenario = replace(
        scenario,
        apps=tuple(replace(a, app_id=renamed.get(a.app_id, a.app_id)) for a in scenario.apps),
        injections=tuple(replace(i, apps=tuple(renamed.get(a, a) for a in i.apps)) for i in scenario.injections),
    )
    dataset = tmp_path / "reviews.jsonl"
    dataset.write_text(serialize_reviews(generate(scenario)[0]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(dataset), "--out", str(out)]) == 0
    ces = json.loads((out / "correlated_events.json").read_text(encoding="utf-8"))
    assert [(c["app_i"], c["app_j"]) for c in ces] == [("ap\rp01", "spike1")]
    ce_out = tmp_path / "ce"
    assert main(["ce", str(out / "events.csv"), str(out / "correlations.csv"), "--out", str(ce_out)]) == 0
    assert (ce_out / "correlated_events.json").read_bytes() == (out / "correlated_events.json").read_bytes()
    staged = tmp_path / "staged"
    assert main(["detect", str(out / "day_sums.csv"), "--out", str(staged)]) == 0
    assert (staged / "events.csv").read_bytes() == (out / "events.csv").read_bytes()


def test_missing_dataset_exits_three(tmp_path, capsys) -> None:
    code = main(["run", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "dataset error:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_input_that_is_not_utf8_exits_three_naming_the_file_and_byte(tmp_path, capsys, monkeypatch, fmt) -> None:
    # The bad byte lies many reads into the file; its position counts from
    # the start of the file, as a whole-file decode gives it.
    reviews, _ = generate(spike_pair_scenario(seed=2, n_apps=3, n_windows=12, spike_window=6))
    data = serialize_reviews(reviews, fmt=fmt).encode("utf-8")
    cut = data.index(b"\n", len(data) // 2) + 1
    data = data[:cut] + b"\xff" + data[cut:]
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    bad = tmp_path / f"bad.{fmt}"
    bad.write_bytes(data)
    monkeypatch.setattr(ingest, "_READ_BYTES", 4096)
    assert main(["run", str(bad), "--format", fmt, "--out", str(tmp_path / "out")]) == 3
    assert f"dataset error: {bad} is not valid UTF-8: {whole.value}" in capsys.readouterr().err
    assert f"position {cut}:" in str(whole.value) and cut > 4096


def test_unreadable_csv_header_exits_three(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what,when\n1,2,3\n", encoding="utf-8")
    code = main(["run", str(bad), "--format", "csv", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "dataset error:" in capsys.readouterr().err


def test_unparsable_stage_file_exits_three(tmp_path, capsys) -> None:
    staged = tmp_path / "staged"
    assert main(["metrics", str(_small_dataset(tmp_path)), "--out", str(staged)]) == 0
    day_sums = staged / "day_sums.csv"
    header, first, *rest = day_sums.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[3] = "nan"
    day_sums.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    assert main(["detect", str(day_sums), "--out", str(staged)]) == 3
    assert "dataset error:" in capsys.readouterr().err
    (staged / "events.csv").write_text("wrong,header\n", encoding="utf-8")
    assert main(["ce", str(staged / "events.csv"), str(day_sums), "--out", str(staged)]) == 3
    # A bare "\r" in an unquoted field, which the csv reader refuses.
    day_sums.write_text(f"{header}\na\rb,2024-01-04,1,3,0,0\n", encoding="utf-8", newline="")
    assert main(["detect", str(day_sums), "--out", str(staged)]) == 3


@pytest.mark.parametrize("command", ["detect", "correlate", "ce", "summarize-prep"])
def test_stage_file_that_is_not_utf8_exits_three(tmp_path, capsys, command) -> None:
    bad = tmp_path / "stage"
    bad.write_bytes(b"\xff\xfe")
    # The stage file comes first; the command fails before reading the rest.
    rest = {"ce": [str(bad)], "summarize-prep": [str(tmp_path / "reviews.jsonl")]}.get(command, [])
    assert main([command, str(bad), *rest, "--out", str(tmp_path / "out")]) == 3
    assert "not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ['{"a": 1}', "[1]"])
def test_correlated_events_that_are_not_a_list_of_objects_exit_three(tmp_path, capsys, payload) -> None:
    ces = tmp_path / "correlated_events.json"
    ces.write_text(payload, encoding="utf-8")
    code = main(["summarize-prep", str(ces), str(_small_dataset(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "dataset error:" in capsys.readouterr().err


def _set(path: str, value: object):
    """A change to a correlated-event record: ``value``, or ``value(record)``, at the dotted ``path``."""
    def change(record: dict) -> None:
        *parents, key = path.split(".")
        at = record
        for parent in parents:
            at = at[parent]
        at[key] = value(record) if callable(value) else value
    return change


@pytest.mark.parametrize(
    "change, field",
    [(_set("event_i.warmup", "false"), "event_i.warmup"), (_set("event_j.e", 1.9), "event_j.e"),
     (_set("ce", 7), "ce 7"), (_set("ce", lambda r: -r["ce"]), "ce -1"), (_set("window_days", "7"), "window_days"),
     (_set("event_j.baseline_n", True), "event_j.baseline_n"), (_set("event_i.k", True), "event_i.k"),
     (_set("event_i.a", "1.5"), "event_i.a"), (_set("run.sign", 3), "run.sign"),
     (_set("run.first_interval_days", 8), "run.first_interval"), (_set("run.t_end", "soon"), "run.t_end"),
     (_set("run.first_interval_start", lambda r: r["run"]["t_end"]), "run.first_interval"),
     (_set("app_i", 5), "app_i"), (_set("event_i.app_id", lambda r: r["app_j"]), "event_i"),
     (_set("event_j.metric", "rating"), "event_j"), (_set("run", [1]), "run"), (lambda r: r.pop("event_j"), "event_j")],
)
def test_correlated_events_the_writer_never_writes_exit_three(tmp_path, capsys, change, field) -> None:
    # The staged chain's one correlated event, each time with one field
    # changed to a form or value that ce_records_to_json never writes.
    dataset = _small_dataset(tmp_path)
    staged = tmp_path / "staged"
    assert main(["run", str(dataset), "--out", str(staged)]) == 0
    records = json.loads((staged / "correlated_events.json").read_text(encoding="utf-8"))
    assert len(records) == 1 and records[0]["run"]["sign"] == 1
    change(records[0])
    ces = tmp_path / "correlated_events.json"
    ces.write_text(json.dumps(records), encoding="utf-8")
    assert main(["summarize-prep", str(ces), str(dataset), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "dataset error:" in err and "correlated event 0: " in err and field in err, err


def test_correlated_events_nested_too_deep_exit_three(tmp_path, capsys) -> None:
    ces = tmp_path / "correlated_events.json"
    ces.write_text("[" * 100_000, encoding="utf-8")
    code = main(["summarize-prep", str(ces), str(_small_dataset(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "dataset error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "e, a, sigma, baseline_n, warmup, refused",
    [("7", "1.5", "0.5", "4", "false", "events of (a, count), CSV line 3"),
     ("1", "nan", "0.5", "4", "false", "events of (a, count), CSV line 3"),
     ("1", "1.5", "inf", "4", "false", "events of (a, count), CSV line 3"),
     ("-1", "-inf", "0.5", "4", "false", "events of (a, count), CSV line 3"),
     ("1", "1.5", "0.5", "4", "yes", "events of (a, count), CSV line 3"),
     ("1.0", "1.5", "0.5", "4", "false", "events of (a, count), CSV line 3: '1.0' is not an integer"),
     ("1", "1.5", "0.5", "x", "false", "events of (a, count), CSV line 3: 'x' is not an integer"),
     ("1", "x", "0.5", "4", "false", "events of (a, count), CSV line 3: 'x' is not a number")],
    ids=["e-out-of-range", "a-nan", "sigma-inf", "a-minus-inf", "warmup-not-boolean", "e-not-integer",
         "baseline-n-not-integer", "a-not-a-number"],
)
def test_bad_events_csv_row_exits_three(tmp_path, capsys, e, a, sigma, baseline_n, warmup, refused) -> None:
    events = tmp_path / "events.csv"
    events.write_text(
        "app_id,metric,t0,e,a,sigma,baseline_n,warmup\n"
        "a,count,2024-01-04,0,,,0,true\n"
        f"a,count,2024-01-11,{e},{a},{sigma},{baseline_n},{warmup}\n",
        encoding="utf-8",
    )
    correlations = tmp_path / "correlations.csv"
    correlations.write_text("app_i,app_j,metric,sign,t_start,t_end\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ce", str(events), str(correlations), "--out", str(out)]) == 3
    assert refused in capsys.readouterr().err
    assert not out.exists()


def test_partial_rejects_still_succeed(tmp_path) -> None:
    dataset = _small_dataset(tmp_path)
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("not json\n" + dataset.read_text(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(mixed), "--out", str(out)]) == 0
    rejects = [json.loads(l) for l in (out / "rejects.jsonl").read_text().splitlines()]
    assert len(rejects) == 1
    assert rejects[0]["line_no"] == 1
    assert rejects[0]["reason"].startswith("invalid-json:")


def test_ingest_check_writes_coverage_reports(tmp_path, capsys) -> None:
    dataset = _small_dataset(tmp_path)
    out = tmp_path / "out"
    assert main(["ingest-check", str(dataset), "--out", str(out)]) == 0
    catalog = json.loads((out / "catalog.json").read_text())
    assert (out / "rejects.jsonl").read_text() == ""
    assert set(catalog["apps"]) == {"app00", "spike0", "spike1"}
    assert "accepted" in capsys.readouterr().out


def test_synth_seed_flag_changes_the_market(tmp_path) -> None:
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        json.dumps(scenario_to_dict(spike_pair_scenario(seed=0, n_apps=3, n_windows=6, spike_window=3))),
        encoding="utf-8",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", str(scenario_path), "--out", str(out_a)]) == 0
    assert main(["synth", str(scenario_path), "--seed", "1", "--out", str(out_b)]) == 0
    assert (out_a / "reviews.jsonl").read_text() != (out_b / "reviews.jsonl").read_text()
    assert json.loads((out_b / "scenario.json").read_text())["seed"] == 1


def test_bad_scenario_file_exits_two(tmp_path, capsys) -> None:
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text('{"n_windows": 0}', encoding="utf-8")
    code = main(["synth", str(scenario_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bad scenario" in capsys.readouterr().err


def test_scenario_nested_too_deep_exits_two(tmp_path, capsys) -> None:
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["synth", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    assert "bad scenario" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["rating_weights", "polarity_weights"])
def test_scenario_weights_that_are_not_a_mapping_exit_two(tmp_path, capsys, field) -> None:
    scenario = scenario_to_dict(spike_pair_scenario(seed=0, n_apps=3, n_windows=6, spike_window=3))
    scenario["apps"][0][field] = [1, 2]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["synth", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad scenario" in err and field in err


@pytest.mark.parametrize("flags", [["--config", "x"], ["--set", "seed=1"]])
def test_synth_takes_no_config(tmp_path, capsys, flags) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["synth", *flags, "--out", str(tmp_path / "d")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "key, content",
    [
        ("lexicon_path", b"good\t1\nbad\tx\n"),
        ("lexicon_path", b"caf\xe9\t1\n"),
        ("prompt_template_path", b"Summarise \xff{reviews}\n"),
    ],
    ids=["lexicon-bad-line", "lexicon-not-utf8", "template-not-utf8"],
)
def test_bad_lexicon_or_template_exits_two_before_writing(tmp_path, capsys, key, content) -> None:
    bad = tmp_path / "bad-file"
    bad.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", str(_small_dataset(tmp_path)), "--out", str(out), "--set", f"{key}={bad}"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "runs, window_days, refused",
    [
        (("1:2:3", "1:1:2"), 1, "CSV line 3: the run from 2024-01-01 comes before the run from 2024-01-02"),
        (("1:1:2", "1:1:2"), 1, "CSV line 3: the run from 2024-01-01 overlaps the run from 2024-01-01"),
        (("1:1:2", "1:2:3"), 1, "CSV line 3: the run from 2024-01-02 touches the run from 2024-01-01 with the same sign"),
        (("1:1:3", "1:4:6"), 2, "CSV line 3: the run from 2024-01-04 is off the grid of the run from 2024-01-01"),
        (("1:1:4",), 2, "CSV line 2: 3 days are not whole 2-day windows"),
        (("1:2:2",), 1, "CSV line 2: t_end 2024-01-02 is not after t_start 2024-01-02"),
        (("2:1:2",), 1, "CSV line 2: sign must be 1 or -1, got 2"),
        (("1.0:1:2",), 1, "CSV line 2: '1.0' is not an integer"),
    ],
    ids=["backwards", "repeat", "touch", "gap", "spacing", "empty", "bad-class", "sign-not-integer"],
)
def test_correlations_off_their_window_grid_exit_three(tmp_path, capsys, runs, window_days, refused) -> None:
    events = tmp_path / "events.csv"
    events.write_text("app_id,metric,t0,e,a,sigma,baseline_n,warmup\n", encoding="utf-8")
    correlations = tmp_path / "correlations.csv"
    rows = [f"a,b,count,{sign},2024-01-{int(start):02d},2024-01-{int(end):02d}\n"
            for sign, start, end in (run.split(":") for run in runs)]
    correlations.write_text("app_i,app_j,metric,sign,t_start,t_end\n" + "".join(rows), encoding="utf-8")
    out = tmp_path / "out"
    flags = ["--set", f"correlation_window_days={window_days}"]
    assert main(["ce", str(events), str(correlations), "--out", str(out), *flags]) == 3
    assert f"correlations of (a, b, count), {refused}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "correlate"])
@pytest.mark.parametrize(
    "rows, refused",
    [
        (("a:01:1", "a:02:1", "a:04:1"), "day sums of (a): window 2024-01-04 does not follow 2024-01-02"),
        (("a:02:1", "a:01:1"), "day sums of (a): window 2024-01-01 does not follow 2024-01-02"),
        (("a:01:1", "a:01:1"), "day sums of (a): window 2024-01-01 does not follow 2024-01-01"),
        (("b:01:1", "b:02:1", "a:02:1", "a:03:1"), "day sums of (a): days from 2024-01-02 are not the first app's span"),
        (("b:01:1", "b:02:1", "a:01:1"), "day sums of (a): days from 2024-01-01 are not the first app's span"),
        (("a:01:1", "a:02:-1"), "day sums of (a): a total is negative or sums beyond int64"),
        (("a:01:1", "a:02:1.5"), "day sums of (a), CSV line 3: '1.5' is not an integer"),
        (("a:01:1", f"a:02:{2**63}"), f"day sums of (a), CSV line 3: {2**63} is beyond int64"),
        (("a:01:1", f"a:02:{2**63 - 1}"), "day sums of (a): a total is negative or sums beyond int64"),
        ((), "bad day sums CSV header"),
    ],
    ids=["gap", "backwards", "repeat", "other-span", "short-span", "negative", "not-integer",
         "beyond-int64", "sum-beyond-int64", "header"],
)
def test_bad_day_sums_exit_three(tmp_path, capsys, command, rows, refused) -> None:
    day_sums = tmp_path / "day_sums.csv"
    lines = []
    for row in rows:
        app, day, total = row.split(":")
        lines.append(f"{app},2024-01-{day},3,{total},0,0\n")
    header = "app_id,t0,reviews,rating,polarity,sentences" if rows else "app_id,metric,t0,w,mu,delta,n_obs"
    day_sums.write_text(header + "\n" + "".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(day_sums), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "dataset error:" in err and refused in err
    assert not out.exists()


_STAGE_HEADERS = {
    "events": "app_id,metric,t0,e,a,sigma,baseline_n,warmup",
    "correlations": "app_i,app_j,metric,sign,t_start,t_end",
    "day_sums": "app_id,t0,reviews,rating,polarity,sentences",
}


@pytest.mark.parametrize(
    "stage, row, refused",
    [
        ("events", "a,stars,2024-01-04,0,,,0,true", "events of (a, stars), CSV line 2: 'stars' is not a valid MetricKind"),
        ("events", "a,count,2024-13-04,0,,,0,true", "events of (a, count), CSV line 2: month must be in 1..12"),
        ("events", "a,count,2024-01-04,0,,,0", "events of (a, count), CSV line 2: expected 8 cells, got 7"),
        ("correlations", "a,b,stars,1,2024-01-04,2024-01-05",
         "correlations of (a, b, stars), CSV line 2: 'stars' is not a valid MetricKind"),
        ("correlations", "a,b,count,1,2024-13-04,2024-01-05",
         "correlations of (a, b, count), CSV line 2: month must be in 1..12"),
        ("correlations", "a,b,count,1,2024-01-04", "correlations of (a, b, count), CSV line 2: expected 6 cells, got 5"),
        ("day_sums", "a,2024-13-04,1,0,0,0", "day sums of (a), CSV line 2: month must be in 1..12"),
        ("day_sums", "a,2024-01-04,1,0,0", "day sums of (a), CSV line 2: expected 6 cells, got 5"),
    ],
    ids=["events-metric", "events-t0", "events-short-row", "correlations-metric", "correlations-t0",
         "correlations-short-row", "day-sums-t0", "day-sums-short-row"],
)
def test_bad_series_key_or_short_row_exits_three_naming_series_and_line(tmp_path, capsys, stage, row,
                                                                         refused) -> None:
    paths = {}
    for name, header in _STAGE_HEADERS.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(header + "\n" + (row + "\n" if name == stage else ""), encoding="utf-8")
    inputs = [paths["day_sums"]] if stage == "day_sums" else [paths["events"], paths["correlations"]]
    command = "detect" if stage == "day_sums" else "ce"
    out = tmp_path / "out"
    assert main([command, *map(str, inputs), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "dataset error:" in err and refused in err
    assert not out.exists()


def test_correlate_refuses_a_day_missing_from_every_app(tmp_path, capsys) -> None:
    staged = tmp_path / "staged"
    assert main(["metrics", str(_small_dataset(tmp_path)), "--out", str(staged)]) == 0
    day_sums = staged / "day_sums.csv"
    lines = day_sums.read_text(encoding="utf-8").splitlines(keepends=True)
    day_sums.write_text("".join(line for line in lines if ",2024-02-10," not in line), encoding="utf-8")
    assert main(["correlate", str(day_sums), "--out", str(tmp_path / "out")]) == 3
    assert "window 2024-02-11 does not follow 2024-02-09" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, header, row",
    [
        ("detect", "app_id,t0,reviews,rating,polarity,sentences", "a,2024-01-01,{n},0,0,0"),
        ("ce", "app_i,app_j,metric,t0,rho,c,n_points", "a,b,count,2024-01-01,0.5,1,{n}"),
    ],
    ids=["detect", "ce"],
)
def test_stage_count_beyond_int64_exits_three(tmp_path, capsys, command, header, row) -> None:
    stage = tmp_path / "stage.csv"
    stage.write_text(f"{header}\n{row.format(n=2**63)}\n", encoding="utf-8")
    events = tmp_path / "events.csv"
    events.write_text("app_id,metric,t0,e,a,sigma,baseline_n,warmup\n", encoding="utf-8")
    inputs = [str(stage)] if command == "detect" else [str(events), str(stage)]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == 3
    assert "dataset error" in capsys.readouterr().err
