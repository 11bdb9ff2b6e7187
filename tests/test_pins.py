"""Byte-exact regression pins of CLI output.

`tests/data/cli_pins.json` holds, per command, its argv, its stdout and the
files it writes, as the CLI produced them before the eps stretch was written
once (`amplify._stretcher`): the README's CLI lines, a `compare` on the
default eps grid, and the three `figures`. These are regression pins, not
evidence of correctness: they show that the output has not moved, not that
it is right. The oracle and acceptance tests check the values themselves.
"""

import json
from pathlib import Path

import pytest

from statpriv.cli import main

PINS = json.loads((Path(__file__).resolve().parent / "data" / "cli_pins.json").read_text())


def test_pins_cover_the_readme_compare_and_figures():
    names = [pin["name"] for pin in PINS]
    assert names == [
        "readme-curve", "readme-amplify", "readme-figures", "readme-verify", "readme-compare",
        "compare-poisson-default-grid", "figures-fig1", "figures-fig2", "figures-fig3",
    ]


@pytest.mark.parametrize("pin", PINS, ids=[pin["name"] for pin in PINS])
def test_cli_output_is_byte_identical_to_its_pin(pin, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(pin["argv"]) == 0
    assert capsys.readouterr().out == pin["stdout"]
    assert {p.name: p.read_text() for p in sorted(tmp_path.iterdir())} == pin["files"]
