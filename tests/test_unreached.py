"""tools/unreached.py: the statement finder and the line recorder, on a
synthetic module (the tool itself runs the whole suite, which no test does)."""

import importlib.util
import os
import threading

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "unreached", REPO_ROOT / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)

SYNTHETIC = '''"""Module docstring."""
import functools


@functools.cache
def cached(x):
    """Docstring."""
    global COUNTER
    if x > 0:
        return (x +
                1)
    return 0


def never():
    return 1


class Box:
    """Docstring."""
    size: int = 3

    def grow(self):
        if self.size: self.size += 1
        return self.size
'''


def test_statement_spans_of_a_synthetic_module():
    assert unreached.statement_spans(SYNTHETIC) == {
        2: 2,     # import
        5: 6,     # decorated def: decorator to the line before the docstring
        9: 9,     # if header; `global` and docstrings are not statements
        10: 11,   # a return over two lines
        12: 12,
        15: 15,
        16: 16,
        19: 19,   # class header
        21: 21,   # annotated assignment in the class body
        23: 23,
        24: 24,   # `if x: y` on one line is one entry
        25: 25,
    }


def test_unreached_counts_a_statement_run_on_any_of_its_lines():
    executed = {2, 5, 9, 11, 15, 19, 21, 23}
    assert unreached.unreached(SYNTHETIC, executed) == [12, 16, 24, 25]


def test_recorder_traces_the_module_and_its_threads(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    with unreached.LineRecorder(tmp_path) as recorder:
        spec.loader.exec_module(module)
        assert module.cached(1) == 2
        worker = threading.Thread(target=module.never)
        worker.start()
        worker.join()
    assert list(recorder.lines) == [os.path.realpath(path)]
    executed = recorder.lines[os.path.realpath(path)]
    assert unreached.unreached(SYNTHETIC, executed) == [12, 24, 25]
