"""Benchmark workloads: seed tables, generated CLI arguments, reference checks.

A seed picks one row of a workload's fixed table; the program receives only
the argv built from that row. Every row of a workload does the same amount of
work (see README.md), so the seed varies inputs, never the work.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
MANIFEST = REFS / "manifest.json"

# The oracle agreement bound of the package's acceptance tests: a kernel may
# change roundoff, nothing more.
AGREEMENT_TOL = 1e-12

# Strictly positive dyadic weights on the fixed outcome lattice {0, 1, 2}, so
# the weights print exactly and the state count never depends on the row.
ENUM_WEIGHTS = (
    (0.25, 0.5, 0.25),
    (0.125, 0.5, 0.375),
    (0.5, 0.25, 0.25),
    (0.375, 0.375, 0.25),
    (0.0625, 0.625, 0.3125),
    (0.25, 0.125, 0.625),
)

# Shift of every nonzero point of the 61-point grid 0, 0.05, ..., 3.
EPS_OFFSETS = (0.0005, 0.0125, 0.021, 0.0333, 0.0041, 0.0275)


def shifted_grid(offset: float) -> str:
    return ",".join(
        repr(round(0.05 * i + offset, 10)) if i else "0" for i in range(61)
    )


def wr_gate_argv(offset: float, p: float = 0.5) -> list[str]:
    return [
        "amplify", "--entry", f"bern:{p!r}", "--query", "sum",
        "--technique", "wr:32,2", "--eps", shifted_grid(offset),
    ]


TABLES: dict[str, list[list[str]]] = {
    "enum-curve": [
        [
            "curve", "--entry", f"discrete:0@{a!r},1@{b!r},2@{c!r}",
            "--n", "12", "--query", "sum",
        ]
        for a, b, c in ENUM_WEIGHTS
    ],
    "poisson-large": [
        [
            "amplify", "--entry", "bern:0.5", "--query", "count",
            "--technique", "poisson:1000,0.1", "--eps", shifted_grid(offset),
        ]
        for offset in EPS_OFFSETS
    ],
    "wr-gate": [wr_gate_argv(offset) for offset in EPS_OFFSETS],
    "verify": [["verify", "--max-n", "6"]],
}

WORKLOADS = tuple(TABLES)


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the frozen reference its output must match."""

    workload: str
    row: int
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.workload}-{self.row}"

    @property
    def ref_path(self) -> Path:
        return REFS / f"{self.key}.csv"


def case_for(workload: str, seed: int) -> Case:
    table = TABLES[workload]
    row = seed % len(table)
    return Case(workload, row, tuple(table[row]))


def all_cases() -> list[Case]:
    return [Case(w, row, tuple(argv)) for w in WORKLOADS for row, argv in enumerate(TABLES[w])]


def load_reference(case: Case) -> str:
    """Reference CSV of a case; refuses a reference frozen for other argv."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest.get(case.key) != list(case.argv):
        raise ValueError(f"reference {case.key} was frozen for different arguments")
    return case.ref_path.read_text(encoding="utf-8")


def output_problem(case: Case, reference: str, exit_code: int, out: str) -> str | None:
    """Why a sample's output is wrong, or None when it matches the reference.

    Every number must agree with the reference to AGREEMENT_TOL absolute and
    every other cell must be equal. For verify the row set is compared
    regardless of order, and every row must still pass.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = list(csv.reader(io.StringIO(out)))
    want = list(csv.reader(io.StringIO(reference)))
    if not got or got[0] != want[0]:
        return f"header {got[:1]} differs from {want[0]}"
    got_rows, want_rows = got[1:], want[1:]
    if case.workload == "verify":
        got_rows, want_rows = sorted(got_rows), sorted(want_rows)
        failing = [r for r in got_rows if r[-1] != "1"]
        if failing:
            return f"{len(failing)} verify rows do not pass, first {failing[0]}"
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} rows, reference has {len(want_rows)}"
    for line, (g, w) in enumerate(zip(got_rows, want_rows), 2):
        if len(g) != len(w):
            return f"row {line}: {len(g)} cells, reference has {len(w)}"
        for x, y in zip(g, w):
            if x == y:
                continue
            try:
                close = abs(float(x) - float(y)) <= AGREEMENT_TOL
            except ValueError:
                close = False
            if not close:
                return f"row {line}: {x!r} differs from reference {y!r}"
    return None
