"""``tools/ab.py``: one stage of two package versions, timed in one process,
on a tiny market."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from reviewpulse.ingest import serialize_reviews
from reviewpulse.synth import default_scenario, generate

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"


def _ab(tmp_path: Path, *args: str) -> dict:
    data = tmp_path / "reviews.jsonl"
    if not data.exists():
        reviews, _ = generate(default_scenario(n_apps=3, n_windows=12, rate=20.0, seed=0))
        data.write_text(serialize_reviews(reviews), encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), "--input", str(data), "--rounds", "8", "--best-of", "2", *args],
                          check=True, capture_output=True, text=True, timeout=300)
    return json.loads(done.stdout)


def test_head_against_head_reads_as_one_version(tmp_path) -> None:
    # A throwaway repository holding the package, so the ref is exported by
    # git archive as for any commit.
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src" / "reviewpulse", repo / "src" / "reviewpulse",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, check=True, capture_output=True)
    result = _ab(tmp_path, "--root", str(repo), "--base", "HEAD", "--change", "HEAD", "--stage", "aggregate")
    assert (result["rounds"], len(result["ratios"]), result["stage"]) == (8, 8, "aggregate")
    assert 0.5 < result["median_ratio"] < 2
    assert 0 <= result["p_value"] <= 1
    peaks = result["peak_mib"]
    assert abs(peaks["change"] - peaks["base"]) <= 0.1 * peaks["base"]


def test_a_delay_in_one_stage_reads_as_slower(tmp_path) -> None:
    # 20 ms added to every aggregate call of the change, a stage that takes
    # a few ms here: the change loses every round.
    delayed = tmp_path / "delayed"
    shutil.copytree(ROOT / "src" / "reviewpulse", delayed, ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = delayed / "pipeline.py"
    text = pipeline.read_text(encoding="utf-8")
    start = "    analysis = new_analysis(config, catalog)\n    span = _derive_span("
    assert text.count(start) == 1
    pipeline.write_text(text.replace(start, '    __import__("time").sleep(0.02)\n' + start), encoding="utf-8")
    result = _ab(tmp_path, "--base", "worktree", "--change", str(delayed), "--stage", "aggregate")
    assert result["change_wins"] == 0
    assert result["verdict"] == "slower" and result["p_value"] < 0.01
    assert result["median_ratio"] > 1.5
