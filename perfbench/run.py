"""statpriv benchmark: a closed loop of CLI invocations, one fresh interpreter each.

One workload, as the command in BENCHMARK.json runs it:

    python3 perfbench/run.py --workload enum-curve --seed 3 --seconds 25 --trace 0

All four workloads with their samples interleaved, printed by name and unit:

    python3 perfbench/run.py --workload all --seconds 120 [--trace 1]

Each sample starts one interpreter (sample.py), which imports `statpriv.cli`
and calls `main(argv)` once, as a CLI user does; the next sample starts after
it exits. Every output is checked against its frozen reference in refs/. A
sample fails on a nonzero exit code or a deviating output, and only passing
samples enter the timings. With --trace 0 the end-to-end metrics come from
untraced samples. With --trace 1 traced and untraced samples alternate; the
per-layer metrics come from the traced ones and trace.overhead_s is the
difference of their wall_s medians. The last line printed is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import METRIC_UNITS
from workloads import ROOT, WORKLOADS, Case, case_for, load_reference, output_problem

SAMPLE = Path(__file__).resolve().parent / "sample.py"
SAMPLE_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {**METRIC_UNITS, "cli.out_bytes": "B", "trace.overhead_s": "s"}


@dataclass
class Sample:
    traced: bool
    problem: str | None
    data: dict = field(default_factory=dict)


def run_sample(case: Case, reference: str, traced: bool) -> Sample:
    spec = {"argv": list(case.argv), "trace": traced}
    spec["t0"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(SAMPLE), json.dumps(spec)],
            capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return Sample(traced, f"no result within {SAMPLE_TIMEOUT_S} s")
    if proc.returncode != 0:
        return Sample(traced, f"sample process exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    data = json.loads(proc.stdout)
    return Sample(traced, output_problem(case, reference, data["exit"], data["out"]), data)


def run_loop(pairs: list[tuple[Case, str]], seconds: float, trace: bool) -> list[list[Sample]]:
    """Closed loop for `seconds` over (case, reference) pairs, one sample each per round.

    With `trace`, rounds alternate traced and untraced, and at least one of
    each runs. Returns the samples of each case, in the order given.
    """
    samples: list[list[Sample]] = [[] for _ in pairs]
    deadline = time.monotonic() + seconds
    rounds = 0
    while rounds < (2 if trace else 1) or time.monotonic() < deadline:
        traced = trace and rounds % 2 == 0
        for (case, reference), out in zip(pairs, samples):
            sample = run_sample(case, reference, traced)
            if sample.problem:
                print(f"{case.key}: sample failed: {sample.problem}", file=sys.stderr)
            out.append(sample)
        rounds += 1
    return samples


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Medians over passing untraced samples; over any measured ones if none pass."""
    untraced = [s.data for s in samples if not s.traced and s.data]
    passing = [s.data for s in samples if not s.traced and s.problem is None]
    measured = passing or untraced
    if not measured:
        return {}
    return {name: statistics.median(d[name] for d in measured) for name in END_TO_END_UNITS}


def per_layer(samples: list[Sample]) -> dict[str, float]:
    """Medians over passing traced samples, plus the tracing overhead."""
    traced = [s.data for s in samples if s.traced and s.problem is None]
    if not traced:
        return {}
    out = {
        name: statistics.median(d["layers"][name] for d in traced)
        for name in PER_LAYER_UNITS
        if name in traced[0]["layers"]
    }
    untraced = [s.data["wall_s"] for s in samples if not s.traced and s.problem is None]
    if untraced:
        out["trace.overhead_s"] = statistics.median(d["wall_s"] for d in traced) - statistics.median(untraced)
    return out


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _fmt(value) -> str:
    return f"{value:>14.6g}" if value % 1 else f"{int(value):>14d}"


def report(case: Case, samples: list[Sample], trace: bool) -> dict[str, float]:
    """Print one workload's metrics by name and unit; return them."""
    failed = sum(1 for s in samples if s.problem)
    print(f"{case.workload} (row {case.row}): {len(samples)} samples, {failed} failed")
    if trace:
        metrics, units = per_layer(samples), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(samples), END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:40s} {_fmt(value)} {units[name]}")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"  absent: {', '.join(missing)}")
    walls = [s.data["wall_s"] for s in samples if not s.traced and s.problem is None]
    if not trace and tail(walls):
        pct, value = tail(walls)
        print(f"  {'wall_s p%.0f' % pct:40s} {_fmt(value)} s")
    print(f"  {'fail_frac':40s} {_fmt(failed / len(samples))} ratio")
    return metrics


def result(cases: list[Case], samples: list[list[Sample]], trace: bool) -> dict:
    """Print every case's metrics; return the benchmark's result object."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for case, own in zip(cases, samples):
        for name, value in report(case, own, trace).items():
            key = name if len(cases) == 1 else f"{case.workload}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    every = [s for own in samples for s in own]
    failed = sum(1 for s in every if s.problem)
    return {"correct": failed == 0, "attempted": len(every), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "statpriv" / "cli.py").is_file():
        print(f"no statpriv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    cases = [case_for(w, args.seed) for w in workloads]
    pairs = [(case, load_reference(case)) for case in cases]
    out = result(cases, run_loop(pairs, args.seconds, bool(args.trace)), bool(args.trace))
    if not out["metrics"]:
        print("no sample produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
