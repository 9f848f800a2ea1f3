"""Count the code lines of each module of a package, and their total.

A code line is a physical line that holds part of a token other than a
comment, and is not part of a docstring (the string that opens a module,
class or function body). Blank lines, comment lines and docstring lines
are not counted; a line of code that ends in a comment is.

    python3 tools/code_lines.py                 # src/reviewpulse
    python3 tools/code_lines.py path/to/package
    python3 tools/code_lines.py --against REF   # lines at git REF, now, change

With ``--against``, each module's lines at the git ref are read through
``git show REF:path``, so no second checkout is needed; a module that is
missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The physical lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True, text=True).stdout


def lines_now(root: Path) -> dict[str, int]:
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def lines_at(root: Path, ref: str) -> dict[str, int]:
    """Code lines of each module under ``root`` as committed at git ``ref``."""
    names = _git(root, "ls-tree", "-r", "--name-only", ref).splitlines()  # relative to root
    return {name: code_lines(_git(root, "show", f"{ref}:./{name}")) for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code lines per module of a package.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "reviewpulse")
    parser.add_argument("--against", metavar="REF", help="also show each module's lines at this git ref")
    args = parser.parse_args(argv[1:])
    now = lines_now(args.package)
    if args.against is None:
        for name, n in now.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    before = lines_at(args.package, args.against)
    print(f"{args.against[:12]:>12}     now  change")
    rows = [(name, before.get(name, 0), now.get(name, 0)) for name in sorted(before.keys() | now.keys())]
    rows.append(("total", sum(before.values()), sum(now.values())))
    for name, b, n in rows:
        print(f"{b:12d}  {n:6d}  {n - b:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
