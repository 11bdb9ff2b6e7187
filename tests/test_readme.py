"""The README's examples run as written.

The Python quick start is executed, and every line of the CLI example block
is passed to statpriv.cli.main; each must exit 0. Both run in a temporary
directory, so files the examples write land there.
"""

import re
import shlex
from pathlib import Path

import pytest

from statpriv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
QUICK_START = [code for lang, code in BLOCKS if lang == "python"]
CLI_LINES = [
    line
    for _, code in BLOCKS
    for line in code.splitlines()
    if line.startswith("statpriv ")
]


def test_readme_has_the_examples():
    assert len(QUICK_START) == 1
    assert len(CLI_LINES) == 5


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(QUICK_START[0], str(README), "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_readme_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
