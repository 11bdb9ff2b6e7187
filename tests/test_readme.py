"""The README's examples run as written, and its module table names only
what each module defines.

The Python quick start is executed, and every line of the CLI example block
is passed to statpriv.cli.main; each must exit 0. Both run in a temporary
directory, so files the examples write land there.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from statpriv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "statpriv"
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
    assert len(CLI_LINES) == 4


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(QUICK_START[0], str(README), "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_readme_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


# A row of the module table: | `module` | contents |
TABLE_ROWS = re.findall(r"^\| `(\w+)` +\|(.*)\|?$", README.read_text(), re.M)


def defined_names(module):
    """Names the module's source defines: its top-level functions, classes
    and assignments, and the methods and fields of its classes."""
    names = set()

    def collect(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                collect(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))

    collect(ast.parse((SRC / f"{module}.py").read_text()).body)
    return names


def test_readme_module_table_has_a_row_per_module():
    assert [module for module, _ in TABLE_ROWS] == [
        "dist", "divergence", "sampling", "amplify", "tradeoff", "oracle", "cli",
    ]


@pytest.mark.parametrize("module, contents", TABLE_ROWS, ids=[m for m, _ in TABLE_ROWS])
def test_readme_module_table_names_what_its_module_defines(module, contents):
    # `given_drawn(j)` names given_drawn; `PrivacyCurve.value_at` names both.
    defined = defined_names(module)
    for span in re.findall(r"`([^`]+)`", contents):
        name = re.fullmatch(r"([\w.]+)(\(.*\))?", span)
        assert name, f"{module} row: `{span}` is not a name"
        for part in name.group(1).split("."):
            assert part in defined, f"{module} row: `{span}` is not defined by statpriv.{module}"
