"""The test run's own settings in ``pyproject.toml``."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 10


def test_b_after_it():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path) -> None:
    # Warnings are errors in this suite; one hypothesis raises while it
    # reports a failure must not turn the failure into an internal error.
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
