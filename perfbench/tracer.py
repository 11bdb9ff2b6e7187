"""Span tracer that wraps statpriv's public functions from outside the package.

`from .x import f` copies a binding, so a wrapper is rebound under every name
that holds the original in any loaded `statpriv` module. Each call records a
span (name, parent, start, end) in flat arrays kept in memory; `summary`
reduces them at the end to per-layer self times and counts. Self time is a
span's duration minus the time its child spans cover. Counts are computed
from call arguments and return values. A target that no longer exists is
reported in `absent` and its metrics are left out; nothing else breaks.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "dist", "divergence", "sampling", "amplify", "oracle")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _support_size(pmf) -> int:
    return sum(1 for w in pmf.weights if w > 0.0)


def _count_pushforward(counts, args, kwargs, result):
    db = _arg(args, kwargs, 0, "db")
    counts["dist.states"] += math.prod(_support_size(e) for e in db.entries)
    counts["dist.answers"] += len(result.outcomes)


def _count_hockey_stick(counts, args, kwargs, result):
    counts["divergence.hockey_stick.outcomes"] += len(_arg(args, kwargs, 0, "mu").outcomes)


def _count_apply_template(counts, args, kwargs, result):
    db = _arg(args, kwargs, 0, "db")
    t = _arg(args, kwargs, 1, "t")
    if t.indices:
        counts["sampling.template_states"] += math.prod(
            _support_size(db.entries[i - 1]) for i in t.distinct
        )


def _count_templates(counts, args, kwargs, result):
    counts["sampling.templates"] += len(result.items)


def _count_coupling(counts, args, kwargs, result):
    counts["sampling.coupling_pairs"] += len(result)


def _count_oracle(counts, args, kwargs, result):
    # brute_force_divergence enumerates the joint law of each model once.
    technique = _arg(args, kwargs, 2, "technique")
    for i, name in ((0, "db_a"), (1, "db_b")):
        db = _arg(args, kwargs, i, name)
        counts["oracle.states"] += len(technique.items) * len(db.outcome_grid) ** db.n


_TEMPLATE_SOURCES = (
    "without_replacement", "poisson", "with_replacement",
    "given_size", "given_count", "given_drawn", "given_not_drawn",
)

# (module, attribute path, metric prefix, counter, counts the counter makes).
# The layer is the prefix's first component.
TARGETS = (
    ("statpriv.cli", "main", "cli.main", None, ()),
    ("statpriv.dist", "pushforward", "dist.pushforward", _count_pushforward,
     ("dist.states", "dist.answers")),
    ("statpriv.divergence", "hockey_stick_divergence", "divergence.hockey_stick",
     _count_hockey_stick, ("divergence.hockey_stick.outcomes",)),
    ("statpriv.divergence", "privacy_curve", "divergence.privacy_curve", None, ()),
    ("statpriv.divergence", "half_line_check", "divergence.half_line", None, ()),
    ("statpriv.sampling", "apply_template", "sampling.apply_template",
     _count_apply_template, ("sampling.template_states",)),
    ("statpriv.sampling", "sampled_pushforward", "sampling.sampled_pushforward", None, ()),
    ("statpriv.sampling", "sampling_curve", "sampling.sampling_curve", None, ()),
    ("statpriv.sampling", "matched_coupling", "sampling.matched_coupling",
     _count_coupling, ("sampling.coupling_pairs",)),
    *(
        ("statpriv.sampling", f"TemplateDistribution.{name}", f"sampling.{name}",
         _count_templates, ("sampling.templates",))
        for name in _TEMPLATE_SOURCES
    ),
    ("statpriv.amplify", "without_replacement_bound", "amplify.without_replacement_bound", None, ()),
    ("statpriv.amplify", "poisson_bound", "amplify.poisson_bound", None, ()),
    ("statpriv.amplify", "with_replacement_bound", "amplify.with_replacement_bound", None, ()),
    ("statpriv.oracle", "brute_force_divergence", "oracle.brute_force_divergence",
     _count_oracle, ("oracle.states",)),
)

# Per-layer metrics of the traced run: name -> unit. The sample process adds
# cli.out_bytes and run.py adds trace.overhead_s.
METRIC_UNITS = {
    "cli.self_s": "s",
    "dist.self_s": "s",
    "dist.pushforward.calls": "count",
    "dist.pushforward.self_s": "s",
    "dist.states": "count",
    "dist.answers": "count",
    "dist.answers_per_state": "ratio",
    "divergence.self_s": "s",
    "divergence.hockey_stick.calls": "count",
    "divergence.hockey_stick.self_s": "s",
    "divergence.hockey_stick.outcomes": "count",
    "divergence.privacy_curve.calls": "count",
    "divergence.privacy_curve.self_s": "s",
    "divergence.half_line.calls": "count",
    "divergence.half_line.self_s": "s",
    "sampling.self_s": "s",
    "sampling.templates": "count",
    "sampling.apply_template.calls": "count",
    "sampling.apply_template.self_s": "s",
    "sampling.template_states": "count",
    "sampling.sampling_curve.self_s": "s",
    "sampling.sampled_pushforward.self_s": "s",
    "sampling.coupling_pairs": "count",
    "amplify.self_s": "s",
    "amplify.size_terms": "count",
    "amplify.gate_refusals": "count",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.states": "count",
}


class Tracer:
    """Wraps the targets of one process; call `install` once statpriv is imported."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.prefixes: list[str] = []
        self.absent: list[str] = []
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "statpriv" or name.startswith("statpriv."))
        ]
        for module_name, path, prefix, counter, produced in self.targets:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.append(prefix)
                continue
            nid = len(self.prefixes)
            self.prefixes.append(prefix)
            for metric in produced:
                self.counts[metric] += 0  # a present target reports 0, not absent
            if outer:
                # A method or static method: patch the class attribute.
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(fn, nid, counter)
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                self._restore.append((owner, attr, raw))
                continue
            wrapped = self._wrap(raw, nid, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, name, wrapped)
                        self._restore.append((module, name, raw))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, fn, nid, counter):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts, raised = self._stack, self.counts, self.raised
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(counts, args, kwargs, result)
            except BaseException as exc:
                raised[nid, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            return result

        return functools.wraps(fn)(traced)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far; absent ones left out."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        covered = np.bincount(parents + 1, weights=duration, minlength=len(names) + 1)[1:]
        width = len(self.prefixes)
        self_time = np.bincount(names, weights=duration - covered, minlength=width)
        calls = np.bincount(names, minlength=width)
        nid_of = {prefix: i for i, prefix in enumerate(self.prefixes)}

        out: dict[str, float] = dict(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(
                sum(self_time[i] for p, i in nid_of.items() if p.split(".")[0] == layer)
            )
        for prefix, i in nid_of.items():
            out[f"{prefix}.calls"] = int(calls[i])
            out[f"{prefix}.self_s"] = float(self_time[i])
        if "dist.states" in out:
            states = out["dist.states"]
            out["dist.answers_per_state"] = out["dist.answers"] / states if states else 0.0
        if "amplify.poisson_bound" in nid_of:
            out["amplify.size_terms"] = self._calls_under(
                "divergence.privacy_curve", "amplify.poisson_bound"
            )
        if "amplify.with_replacement_bound" in nid_of:
            out["amplify.gate_refusals"] = self.raised[
                nid_of["amplify.with_replacement_bound"], "NotSamplableError"
            ]
        if "oracle.brute_force_divergence" in nid_of:
            out["oracle.calls"] = out["oracle.brute_force_divergence.calls"]
        return {name: out[name] for name in METRIC_UNITS if name in out}

    def _calls_under(self, child: str, ancestor: str) -> int:
        """Spans of `child` that have an `ancestor` span above them."""
        if child not in self.prefixes:
            return 0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        target = self.prefixes.index(ancestor)
        above = parents[names == self.prefixes.index(child)]
        total = 0
        while above.size:
            above = above[above >= 0]
            hit = names[above] == target
            total += int(hit.sum())
            above = parents[above[~hit]]
        return total
