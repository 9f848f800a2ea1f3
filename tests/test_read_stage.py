"""``pipeline.read_stage``, the one file reader: the stage files stream into
their parsers in pieces, as review files do, with the verdicts of the
whole text."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest

from reviewpulse import ingest
from reviewpulse.config import MarketConfig
from reviewpulse.correlate import CorrelationRun, ce_records_from_json, read_correlations_csv, write_correlations_csv
from reviewpulse.detect import read_events_csv
from reviewpulse.ingest import DatasetError, serialize_reviews, text_pieces
from reviewpulse.metrics import MetricKind, read_day_sums_csv
from reviewpulse.pipeline import read_stage, run_pipeline
from reviewpulse.synth import generate, spike_pair_scenario

CONFIG = MarketConfig()
READERS = {
    "day_sums.csv": (read_day_sums_csv,),
    "events.csv": (read_events_csv, CONFIG.event_window_days, CONFIG.sensitivity),
    "correlations.csv": (read_correlations_csv, CONFIG.correlation_window_days),
    "correlated_events.json": (ce_records_from_json, CONFIG.correlation_window_days),
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory) -> Path:
    """A run's bundle whose app ids are two, three and four UTF-8 bytes a
    character, so a read may end inside one."""
    scenario = spike_pair_scenario(seed=2, n_apps=3, n_windows=12, spike_window=6)
    renamed = {"app00": "appé", "spike0": "spike€", "spike1": "spike😀"}
    scenario = replace(
        scenario,
        apps=tuple(replace(a, app_id=renamed[a.app_id]) for a in scenario.apps),
        injections=tuple(replace(i, apps=tuple(renamed[a] for a in i.apps)) for i in scenario.injections),
    )
    tmp = tmp_path_factory.mktemp("bundle")
    dataset = tmp / "reviews.jsonl"
    dataset.write_text(serialize_reviews(generate(scenario)[0]), encoding="utf-8")
    result = run_pipeline(CONFIG, [dataset], tmp / "run")
    assert result.correlated_events > 0
    return result.out_dir


def _plain(read: object) -> object:
    """What a stage reader returned, day sums' arrays as lists, for ``==``."""
    if isinstance(read, dict):
        return {app: (s.start, *(a.tolist() for a in (s.reviews, s.rating, s.polarity, s.sentences)))
                for app, s in read.items()}
    return read


@pytest.mark.parametrize("name", sorted(READERS))
def test_streamed_stage_reads_equal_the_whole_text_parse(bundle, name) -> None:
    parse, *args = READERS[name]
    text = (bundle / name).read_text(encoding="utf-8")
    whole = _plain(parse(text, *args))
    assert whole and whole == _plain(parse([text], *args))
    for read_bytes in range(1, 9):
        for block_chars in (1, 8, 1 << 16):
            with mock.patch.multiple(ingest, _READ_BYTES=read_bytes, _BLOCK_CHARS=block_chars):
                assert _plain(read_stage(parse, bundle / name, *args)) == whole, (read_bytes, block_chars)


def test_a_str_is_one_piece() -> None:
    assert text_pieces("a,b\n") == ("a,b\n",)
    pieces = ["a,", "b\n"]
    assert text_pieces(pieces) is pieces


_DAY_SUMS = "app_id,t0,reviews,rating,polarity,sentences\n"


@pytest.mark.parametrize("read_bytes", [1, 2, 1 << 16])
def test_a_bare_carriage_return_in_a_stage_row_is_a_dataset_error(tmp_path, read_bytes) -> None:
    path = tmp_path / "day_sums.csv"
    path.write_bytes(f"{_DAY_SUMS}a,2024-01-01,1,4,2,1\na\rb,2024-01-01,1,4,2,1\n".encode("utf-8"))
    with mock.patch.object(ingest, "_READ_BYTES", read_bytes), pytest.raises(DatasetError) as error:
        read_stage(read_day_sums_csv, path)
    assert "new-line character seen in unquoted field" in str(error.value)


@pytest.mark.parametrize("read_bytes", [1, 2, 1 << 16])
def test_crlf_stage_rows_read_as_lf_rows(tmp_path, read_bytes) -> None:
    text = f"{_DAY_SUMS}a,2024-01-01,1,4,2,1\na,2024-01-02,0,0,0,0\nb,2024-01-01,2,8,4,2\nb,2024-01-02,1,3,1,1\n"
    path = tmp_path / "day_sums.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    with mock.patch.object(ingest, "_READ_BYTES", read_bytes):
        got = read_stage(read_day_sums_csv, path)
    assert list(got) == ["a", "b"]
    assert _plain(got) == _plain(read_day_sums_csv(text))


def test_a_bad_row_before_bytes_that_are_not_utf8_is_the_fault_reported(tmp_path) -> None:
    # The parse reads the pieces as they are decoded, so it meets the bad
    # row first; a reader that decoded the whole file first would report the
    # bytes instead.
    filler = "".join(f"b,{date(2024, 1, 1) + timedelta(days=d)},1,4,2,1\n" for d in range(4000))
    path = tmp_path / "day_sums.csv"
    path.write_bytes(f"{_DAY_SUMS}a,2024-01-01,x,4,2,1\n{filler}".encode("utf-8") + b"\xff\n")
    assert path.stat().st_size - 2 > ingest._READ_BYTES  # the bad byte is beyond the first read
    with pytest.raises(DatasetError) as error:
        read_stage(read_day_sums_csv, path)
    assert str(error.value) == f"{path}: day sums of (a), CSV line 2: 'x' is not an integer"


def test_read_stage_of_correlations_peaks_under_half_the_file_above_its_runs(tmp_path) -> None:
    # 40 apps' 780 pairs, 30 one-day runs each per metric: a 3 MB file.
    apps = [f"app{i:02d}" for i in range(40)]
    days = [date(2024, 1, 1) + timedelta(days=d) for d in range(61)]
    runs = [CorrelationRun(a, b, metric, 1 - 2 * (k % 2), days[2 * k], days[2 * k + 1])
            for metric in sorted(MetricKind, key=lambda m: m.value)
            for i, a in enumerate(apps) for b in apps[i + 1:] for k in range(30)]
    path = tmp_path / "correlations.csv"
    path.write_text("".join(write_correlations_csv(runs)), encoding="utf-8")
    assert path.stat().st_size > 3_000_000
    tracemalloc.start()
    try:
        got = read_stage(read_correlations_csv, path, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == runs
    assert peak - held <= path.stat().st_size / 2
