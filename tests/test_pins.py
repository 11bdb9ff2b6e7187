"""Byte-exact regression pins of CLI output.

`tests/data/cli_pins.json` holds, per command, its argv, its stdout and the
files it writes, as the CLI produced them before the eps stretch was written
once (`amplify._stretcher`): the README's CLI lines and the three `figures`.
These are regression pins, not evidence of correctness: they show that the
output has not moved, not that it is right. The oracle and acceptance tests
check the values themselves.

`tests/data/golden_stdout.json` holds, in the same form, the output of the
Poisson sweep and the lattice chain's answer paths as they were before the
chain stopped building every cell's answer: a `poisson-large` benchmark row,
the two- and three-valued Poisson bounds of the CI, two `figures fig2` runs,
a `curve` whose answers merge (means of values 2^-16 apart at 1e11) and one
whose sums are distinct only cell by cell (near 2^52). One value has moved
since: the two-valued Poisson bound at n = 3000 printed its weight charge,
1.5377933342984368e-77, at eps 1, and prints the sum over every size,
2.337571133880179e-145, since the sizes past the swept range take the
data-processing ceiling (amplify._ceiling). The last golden pin, the
benchmark's `verify --max-n 6`, was frozen before the oracle computed each
mass and answer once per law and verify built each n's techniques once.
"""

import json
from pathlib import Path

import pytest

from statpriv.cli import main

DATA = Path(__file__).resolve().parent / "data"
PINS = json.loads((DATA / "cli_pins.json").read_text())
GOLDEN = json.loads((DATA / "golden_stdout.json").read_text())


def test_pins_cover_the_readme_compare_and_figures():
    names = [pin["name"] for pin in PINS]
    assert names == [
        "readme-curve", "readme-amplify", "readme-figures", "readme-verify",
        "figures-fig1", "figures-fig2", "figures-fig3",
    ]


def assert_pinned(pin, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(pin["argv"]) == 0
    assert capsys.readouterr().out == pin["stdout"]
    assert {p.name: p.read_text() for p in sorted(tmp_path.iterdir())} == pin["files"]


@pytest.mark.parametrize("pin", PINS, ids=[pin["name"] for pin in PINS])
def test_cli_output_is_byte_identical_to_its_pin(pin, tmp_path, monkeypatch, capsys):
    assert_pinned(pin, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("pin", GOLDEN, ids=[pin["name"] for pin in GOLDEN])
def test_cli_output_is_byte_identical_to_its_golden_output(pin, tmp_path, monkeypatch, capsys):
    assert_pinned(pin, tmp_path, monkeypatch, capsys)
