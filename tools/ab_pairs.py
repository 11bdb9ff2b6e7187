"""Paired A/B runs of the benchmark's workloads on two checkouts.

    python3 tools/ab_pairs.py --parent ../parent --change . --pairs 12 --seed 3 \
        [--workload poisson-large ...] [--out BENCH_<PR>.json]

A pair is one measurement of each side, the side that runs first
alternating from pair to pair. A side's measurement is the median of
SAMPLES untraced samples taken by that checkout's own `perfbench/run.py`
(run_sample: one fresh interpreter through its `perfbench/sample.py`, the
output checked against its frozen reference), with the argv its own
`perfbench/workloads.py` builds for the seed. A pair with a failed sample
on either side is left out of the statistics. Per workload and end-to-end
metric the result gives each side's median and quartiles over the pairs and
the change's wins: the pairs where it reads lower, ties counting for
neither side. --out records each side's commit, so each side must be a git
checkout with no uncommitted change to a tracked file. The benchmark's own
files are read and run, never changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SAMPLES = 3  # per side and pair


class Side:
    """One checkout: its commit and its perfbench/run.py, loaded as its own
    module with its own `workloads` and `tracer`."""

    def __init__(self, name: str, root: Path):
        self.name, self.root = name, root.resolve()
        self.revision = revision(self.root)
        bench = str(self.root / "perfbench")
        shared = ("workloads", "tracer")  # run.py imports these by bare name
        saved = {k: sys.modules.pop(k) for k in shared if k in sys.modules}
        sys.path.insert(0, bench)
        try:
            spec = importlib.util.spec_from_file_location(f"run_{name}", Path(bench) / "run.py")
            self.run = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = self.run  # dataclasses resolve through sys.modules
            spec.loader.exec_module(self.run)
        finally:
            sys.path.remove(bench)
            for k in shared:
                sys.modules.pop(k, None)
            sys.modules.update(saved)

    def measure(self, case, reference: str) -> dict | None:
        """The median of SAMPLES samples' metrics, or None if one failed."""
        runs = [self.run.run_sample(case, reference, False) for _ in range(SAMPLES)]
        for s in runs:
            if s.problem:
                print(f"{self.name} {case.key}: sample failed: {s.problem}", file=sys.stderr)
        if any(s.problem for s in runs):
            return None
        return {m: statistics.median(s.data[m] for s in runs) for m in METRICS}


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by the inclusive method."""
    values = values * 2 if len(values) == 1 else values  # quantiles needs two
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_workload(sides: tuple[Side, Side], workload: str, seed: int, pairs: int) -> dict:
    cases = [s.run.case_for(workload, seed) for s in sides]
    refs = [s.run.load_reference(c) for s, c in zip(sides, cases)]
    kept, failed = [], [0, 0]
    for i in range(pairs):
        pair = [None, None]
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[k] = sides[k].measure(cases[k], refs[k])
            failed[k] += pair[k] is None
        if None not in pair:
            kept.append(pair)
    out = {
        "argv": {s.name: list(c.argv) for s, c in zip(sides, cases)},
        "pairs": len(kept),
        "failed_pairs": {s.name: f for s, f in zip(sides, failed)},
        "metrics": {},
    }
    for m in METRICS:
        if not kept:
            break
        parent, change = ([p[k][m] for p in kept] for k in (0, 1))
        out["metrics"][m] = {
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "change_losses": sum(c > p for p, c in zip(parent, change)),
        }
    return out


def revision(root: Path) -> str | None:
    """The commit checked out at `root`, or None when it is no git checkout
    or a tracked file differs from that commit."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return head if head and git("status", "--porcelain", "--untracked-files=no") == "" else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout measured as the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    ap.add_argument("--workload", action="append", help="a workload name (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=0, help="picks each workload's table row")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="write the result as JSON here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = (Side("parent", args.parent), Side("change", args.change))
    unknown = [f"--{s.name} {s.root}" for s in sides if s.revision is None]
    if args.out and unknown:
        ap.error(f"--out records each side's commit; no clean git checkout at {', '.join(unknown)}")
    names = args.workload or list(sides[1].run.WORKLOADS)
    result = {
        "revisions": {s.name: s.revision for s in sides},
        "seed": args.seed,
        "samples_per_side": SAMPLES,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "workloads": {},
    }
    for name in names:
        row = run_workload(sides, name, args.seed, args.pairs)
        result["workloads"][name] = row
        print(f"{name}: {row['pairs']} pairs, failed pairs {row['failed_pairs']}")
        for m, stats in row["metrics"].items():
            p, c = stats["parent"], stats["change"]
            print(f"  {m:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  change wins {stats['change_wins']} of {row['pairs']}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    failed = any(sum(r["failed_pairs"].values()) for r in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
