"""``tools/code_lines.py --against REF``: code lines per module at a git
ref, now, and the change, on a throwaway repository."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# The code-line cap that ROADMAP.md sets for src/reviewpulse.
LINE_CAP = 2595


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   check=True, capture_output=True)


def _table(package: Path, ref: str) -> list[list[str]]:
    done = subprocess.run([sys.executable, str(TOOL), str(package), "--against", ref],
                          check=True, capture_output=True, text=True)
    return [line.split() for line in done.stdout.splitlines()[1:]]


def test_lines_against_a_ref_per_module_and_in_total(tmp_path) -> None:
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1\n# note\ny = 2\n', encoding="utf-8")
    (package / "sub" / "b.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    (package / "gone.py").write_text("z = 3\n", encoding="utf-8")
    (package / "data.txt").write_text("not code\n", encoding="utf-8")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    assert _table(package, "HEAD") == [
        ["2", "2", "+0", "a.py"], ["1", "1", "+0", "gone.py"], ["2", "2", "+0", "sub/b.py"], ["5", "5", "+0", "total"],
    ]
    (package / "a.py").write_text("x = 1\n", encoding="utf-8")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("a = 1\nb = 2\nc = 3\n", encoding="utf-8")
    assert _table(package, "HEAD") == [
        ["2", "1", "-1", "a.py"], ["1", "0", "-1", "gone.py"], ["0", "3", "+3", "new.py"],
        ["2", "2", "+0", "sub/b.py"], ["5", "6", "+1", "total"],
    ]


def test_the_package_stays_within_its_line_cap() -> None:
    done = subprocess.run([sys.executable, str(TOOL)], check=True, capture_output=True, text=True)
    total, name = done.stdout.splitlines()[-1].split()
    assert name == "total" and int(total) <= LINE_CAP, done.stdout
