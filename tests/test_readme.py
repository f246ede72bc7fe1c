"""README examples run against the current API."""

import re

from conftest import REPO_ROOT


def _python_block(heading: str) -> str:
    """The first python code block under a README section heading."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_quick_start_runs(monkeypatch, capsys):
    # the block loads scenarios/reference.cfg by a relative path
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(_python_block("Library quick start"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["reflective", "transmissive",
                                                      "hybrid"]
