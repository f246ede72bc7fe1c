"""List the statements of src/ris_select that a test run never reaches.

Usage, from anywhere:

    python3 tools/unreached.py [PYTEST_ARGS ...]

Runs pytest in this process (by default the whole tests/ directory, as the
tier-1 command does) under sys.settrace and threading.settrace, and records
the line events of frames whose code lives in src/ris_select; every other
frame is left untraced after its call event. Then it prints each executable
statement that never ran as `module:line: text`, and one count line per
module. Code that runs in a child process (a test that spawns the CLI or
the benchmark) is not traced, so its statements show as unreached. The run
is slower than a plain pytest run by the cost of a trace call per Python
call. Standard library and pytest only; the exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ris_select"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                str(REPO / "tests")]
# Statements that compile to no code of their own, so no line event marks them.
_DECLARATIONS = (ast.Global, ast.Nonlocal)


def _docstrings(tree) -> set:
    """ids of the docstring expressions of the module, classes and functions."""
    found = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body \
                and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            found.add(id(body[0]))
    return found


def statement_spans(source: str) -> dict:
    """{first line: last line} of every executable statement in `source`.

    A simple statement spans all its lines. A compound statement (def,
    class, if, for, while, with, try, match) spans its header only: from its
    first decorator, if any, to the line before its body. A line event on any
    line of a span means the statement ran. Docstrings, `global` and
    `nonlocal` are skipped. Statements that share a first line (`if x: y`)
    are one entry.
    """
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _DECLARATIONS) \
                or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if body and isinstance(body, list):
            last = max(first, body[0].lineno - 1)
        else:
            last = node.end_lineno
        spans[first] = max(spans.get(first, first), last)
    return spans


def unreached(source: str, executed) -> list:
    """First lines, in order, of the statements of `source` none of whose
    lines is in the set `executed`."""
    return [first for first, last in sorted(statement_spans(source).items())
            if executed.isdisjoint(range(first, last + 1))]


class LineRecorder:
    """Context manager that records the lines run in files under `root`, in
    every thread started while it is active, as {real path: set of lines}."""

    def __init__(self, root):
        self.root = os.path.realpath(root) + os.sep
        self.lines = defaultdict(set)
        self._paths = {}  # co_filename -> real path under root, or None

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._paths:
            real = os.path.realpath(filename)
            self._paths[filename] = real if real.startswith(self.root) else None
        return self._line if self._paths[filename] else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines[self._paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def report(executed) -> None:
    """Print the unreached statements of every module of the package and a
    count per module."""
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        module = "ris_select" if path.stem == "__init__" else f"ris_select.{path.stem}"
        missed = unreached(source, executed.get(os.path.realpath(path), set()))
        for line in missed:
            print(f"{module}:{line}: {text[line - 1].strip()}")
        counts.append((module, len(missed), len(statement_spans(source))))
    for module, missed, total in counts:
        print(f"{module}: {missed} of {total} statements unreached")


def main() -> int:
    with LineRecorder(PACKAGE) as recorder:
        code = pytest.main(sys.argv[1:] or DEFAULT_ARGS)
    report(recorder.lines)
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
