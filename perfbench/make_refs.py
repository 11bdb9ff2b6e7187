"""Freeze the benchmark's reference outputs, or cross-check them against the oracle.

    python3 perfbench/make_refs.py                  # write refs/*.csv and refs/manifest.json
    python3 perfbench/make_refs.py --cross-check    # enum-curve refs against the oracle

Freeze only from a commit whose outputs are trusted: later commits are judged
by agreement with these files. Nothing is written unless every case exits 0.

The cross-check compares each enum-curve reference with
`oracle.brute_force_divergence` maximized over ordered conditioning pairs:
at eps = 0 for the frozen n = 12 reference (about a minute per row), and on
the whole grid for the pipeline at a smaller n the oracle reaches quickly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from workloads import (
    AGREEMENT_TOL,
    ENUM_WEIGHTS,
    MANIFEST,
    REFS,
    ROOT,
    TABLES,
    Case,
    all_cases,
    load_reference,
)

sys.path.insert(0, str(ROOT / "src"))

from statpriv.cli import main as cli_main  # noqa: E402
from statpriv.dist import DatabaseModel, Pmf, condition, sum_query  # noqa: E402
from statpriv.oracle import brute_force_divergence  # noqa: E402
from statpriv.sampling import TemplateDistribution  # noqa: E402


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


def freeze() -> int:
    outputs = {}
    for case in all_cases():
        code, out = run_cli(case.argv)
        if code != 0:
            print(f"{case.key}: exit code {code}; nothing written", file=sys.stderr)
            return 1
        outputs[case] = out
        print(f"{case.key}: {len(out)} bytes")
    REFS.mkdir(exist_ok=True)
    for case, out in outputs.items():
        case.ref_path.write_text(out, encoding="utf-8")
    manifest = {case.key: list(case.argv) for case in outputs}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


def oracle_curve(weights, n: int, grid) -> list[float]:
    """Worst ordered pair of the raw curve, from the oracle's joint enumeration."""
    entry = Pmf.from_pairs(zip((0.0, 1.0, 2.0), weights))
    db = DatabaseModel.iid(entry, n)
    everyone = TemplateDistribution.without_replacement(n, n)
    conditioned = {v: condition(db, 1, v) for v in entry.outcomes}
    return [
        max(
            brute_force_divergence(conditioned[v], conditioned[w], everyone, sum_query(), eps)
            for v in entry.outcomes
            for w in entry.outcomes
            if v != w
        )
        for eps in grid
    ]


def _curve(text: str) -> tuple[list[float], list[float]]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]


def _compare(label: str, got, want) -> bool:
    worst = max(abs(g - w) for g, w in zip(got, want))
    ok = len(got) == len(want) and worst <= AGREEMENT_TOL
    print(f"{label}: max |pipeline - oracle| = {worst:.3g} over {len(want)} points: {'ok' if ok else 'FAIL'}")
    return ok


def cross_check(small_n: int = 7) -> int:
    ok = True
    for row, weights in enumerate(ENUM_WEIGHTS):
        argv = TABLES["enum-curve"][row]
        case = Case("enum-curve", row, tuple(argv))
        grid, values = _curve(load_reference(case))
        n = int(argv[argv.index("--n") + 1])
        ok &= _compare(f"{case.key} reference, n={n}, eps=0", values[:1], oracle_curve(weights, n, grid[:1]))
        small = list(argv)
        small[small.index("--n") + 1] = str(small_n)
        code, out = run_cli(small)
        grid, values = _curve(out)
        ok &= code == 0 and _compare(
            f"{case.key} pipeline, n={small_n}, whole grid", values, oracle_curve(weights, small_n, grid)
        )
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cross-check", action="store_true")
    args = parser.parse_args()
    return cross_check() if args.cross_check else freeze()


if __name__ == "__main__":
    sys.exit(main())
