"""The benchmark's own tests: BENCHMARK.json, failure accounting, seed
independence of the work, the layer split of the traced run, and the tracer's
tolerance of missing targets.

    python3 -m pytest perfbench -q

Each test starts real sample processes; the whole file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import tracer
from run import END_TO_END_UNITS, PER_LAYER_UNITS, end_to_end, per_layer, result, run_loop, run_sample
from workloads import (
    EPS_OFFSETS,
    ROOT,
    TABLES,
    WORKLOADS,
    Case,
    case_for,
    load_reference,
    output_problem,
    wr_gate_argv,
)

# Counts that must not depend on the seed-table row.
WORK_COUNTS = (
    "dist.states",
    "divergence.hockey_stick.calls",
    "divergence.hockey_stick.outcomes",
    "sampling.templates",
    "oracle.states",
)

# The layer that should hold the largest share of traced self time.
DOMINANT = {
    "enum-curve": ("dist",),
    "poisson-large": ("divergence",),
    "wr-gate": ("amplify", "divergence"),
    "verify": ("oracle",),
}

# Per-layer counts that must be 0 on a workload, by design.
ZERO = {
    "enum-curve": ("oracle.calls", "sampling.apply_template.calls"),
    "poisson-large": ("dist.pushforward.calls", "oracle.calls", "sampling.apply_template.calls"),
    "wr-gate": ("dist.pushforward.calls", "oracle.calls", "amplify.gate_refusals"),
    "verify": (),
}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_failed_samples_count_and_stay_out_of_the_medians():
    verify = case_for("verify", 0)
    gate = case_for("wr-gate", 0)
    fault = Case("verify", 0, (*verify.argv, "--inject-fault"))
    refused = Case("wr-gate", 0, tuple(wr_gate_argv(EPS_OFFSETS[0], p=0.3)))
    cases = [fault, refused]
    samples = run_loop([(c, load_reference(case_for(c.workload, 0))) for c in cases], 0, False)
    assert all(s.problem == "exit code 3" for own in samples for s in own)
    with contextlib.redirect_stdout(io.StringIO()):
        out = result(cases, samples, trace=False)
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 2)

    # A refusal exits before the gate has done its full work; it must not
    # pull the wall_s median down.
    passing = run_sample(gate, load_reference(gate), traced=False)
    assert passing.problem is None
    assert samples[1][0].data["wall_s"] < passing.data["wall_s"]
    mixed = [passing, samples[1][0], samples[1][0]]
    assert end_to_end(mixed)["wall_s"] == passing.data["wall_s"]


def test_an_output_off_by_more_than_the_tolerance_fails():
    case = case_for("enum-curve", 0)
    reference = load_reference(case)
    header, first, *rest = reference.splitlines()
    eps, delta = first.split(",")
    nudged = "\n".join([header, f"{eps},{float(delta) + 1e-9!r}", *rest]) + "\n"
    assert output_problem(case, reference, 0, reference) is None
    assert "differs" in output_problem(case, reference, 0, nudged)
    assert output_problem(case, reference, 3, reference) == "exit code 3"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_row_does_the_same_work_and_the_layer_split_holds(workload):
    counts = []
    for row, argv in enumerate(TABLES[workload]):
        case = Case(workload, row, tuple(argv))
        sample = run_sample(case, load_reference(case), traced=True)
        assert sample.problem is None, sample.problem
        layers = sample.data["layers"]
        assert set(layers) == set(PER_LAYER_UNITS) - {"trace.overhead_s"}
        counts.append({name: layers[name] for name in WORK_COUNTS})
        if row == 0:
            first_case, first = case, sample
    assert all(c == counts[0] for c in counts), counts

    layers = first.data["layers"]
    shares = {layer: layers[f"{layer}.self_s"] for layer in tracer.LAYERS}
    dominant = sum(shares[layer] for layer in DOMINANT[workload])
    others = [t for layer, t in shares.items() if layer not in DOMINANT[workload]]
    assert dominant > max(others), shares
    for name in ZERO[workload]:
        assert layers[name] == 0, name
    if workload != "verify":
        assert layers["oracle.calls"] == 0
    else:
        assert layers["oracle.calls"] > 0 and layers["amplify.gate_refusals"] > 0

    untraced = run_sample(first_case, load_reference(first_case), traced=False)
    assert "trace.overhead_s" in per_layer([first, untraced])


def test_tracer_reports_missing_targets_as_absent():
    sys.path.insert(0, str(ROOT / "src"))
    import statpriv.cli
    import statpriv.sampling

    original = statpriv.sampling.apply_template
    targets = tuple(
        (module, "apply_template_gone" if path == "apply_template" else path, *rest)
        for module, path, *rest in tracer.TARGETS
    ) + (("statpriv.sampling", "NoSuchClass.method", "sampling.no_such", None, ()),)
    tr = tracer.Tracer(targets)
    tr.install()
    try:
        assert statpriv.amplify.hockey_stick_divergence is statpriv.divergence.hockey_stick_divergence
        assert statpriv.amplify.hockey_stick_divergence.__wrapped__ is not None
        with contextlib.redirect_stdout(io.StringIO()):
            assert statpriv.cli.main(["verify", "--max-n", "2"]) == 0
    finally:
        tr.uninstall()
    assert statpriv.sampling.apply_template is original
    assert not hasattr(statpriv.divergence.hockey_stick_divergence, "__wrapped__")
    assert tr.absent == ["sampling.apply_template", "sampling.no_such"]
    summary = tr.summary()
    for name in ("sampling.apply_template.calls", "sampling.apply_template.self_s", "sampling.template_states"):
        assert name not in summary
    assert summary["divergence.hockey_stick.calls"] > 0
    assert summary["oracle.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
