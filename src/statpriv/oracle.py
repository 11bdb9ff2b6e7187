"""Brute-force reference implementations used to validate the pipeline.

Everything here recomputes results from first principles: joint enumeration
over templates and the database realizations of positive probability
(each entry's value from its support, so a fixed entry takes one value;
`budget` counts the pairs), compensated summation and an exhaustive
rejection-set search. Within one law the realizations' masses are computed
once per template probability and the query once per picked sample, while
every pair is still enumerated and added in order. No aggregation code is
shared with the sampling pipeline, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .dist import DatabaseModel, Pmf, Query
from .errors import EnumerationBudgetError
from .sampling import TemplateDistribution

DEFAULT_ORACLE_BUDGET = 10_000_000
TRADEOFF_MAX_SUPPORT = 12  # brute_force_tradeoff scans 2^12 rejection sets at most


class _Kahan:
    """Compensated accumulator."""

    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, v: float) -> None:
        y = v - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def _templates(technique):
    """(number of templates, iterator of (indices, probability)) of a
    technique: its explicit items, or for a whole named technique the
    templates of positive probability enumerated here from its definition,
    not from its classes."""
    n, m, kind = technique.n, technique.param, technique.kind
    if m is None:
        return len(technique.items), ((t.indices, p) for t, p in technique.items)
    if technique.given:
        raise ValueError("the oracle takes whole named techniques, not their views")
    everyone = range(1, n + 1)
    if kind == "with_replacement":
        return n ** m, ((s, 1.0 / n ** m) for s in itertools.product(everyone, repeat=m))
    if kind == "poisson":
        weights = [m ** k * (1.0 - m) ** (n - k) for k in range(n + 1)]
    else:
        weights = [0.0] * m + [1.0 / math.comb(n, m)]
    sizes = [k for k, p in enumerate(weights) if p > 0.0]
    return sum(math.comb(n, k) for k in sizes), (
        (c, weights[k]) for k in sizes for c in itertools.combinations(everyone, k)
    )


@functools.lru_cache(maxsize=32)  # verify asks again for the same laws
def _answer_law(db, technique, q, budget):
    """Joint enumeration of (template, database realization) pairs, as
    (answer, mass) pairs in increasing answer order. Realizations take
    each entry's value from its support, so all have positive probability;
    the budget counts templates times realizations. Template by template,
    in product order, each answer adds its weights to one Kahan sum."""
    count, templates = _templates(technique)
    supports = [e.support for e in db.entries]
    states = count * math.prod(map(len, supports))
    if states > budget:
        raise EnumerationBudgetError(states, budget)
    rows = list(itertools.product(*supports))
    dicts = [e.as_dict for e in db.entries]
    probs = [tuple(map(dict.__getitem__, dicts, row)) for row in rows]
    evaluate, empty, prod = q.evaluator, float(q.empty_answer), math.prod
    masses: dict[float, list[float]] = {}  # one list per template probability
    acc: dict[float, list[float]] = {}  # answer -> [Kahan total, compensation]
    acc_of: dict[tuple, list[float]] = {}  # picked sample -> its answer's sum
    for indices, pt in templates:
        if pt not in masses:
            masses[pt] = [prod(p, start=pt) for p in probs]  # pt * p1 * p2 ..., left to right
        picks = [i - 1 for i in indices]
        if len(picks) == 1:  # a sample is a tuple: slice the one index
            picks = [slice(picks[0], picks[0] + 1)]
        pick = operator.itemgetter(*picks or [slice(0)])  # an empty template picks ()
        for row, v in zip(rows, masses[pt]):
            sample = pick(row)
            k = acc_of.get(sample)
            if k is None:
                # An answer is the float the query returns; equal floats merge.
                a = float(evaluate(sample)) if sample else empty
                k = acc_of[sample] = acc.setdefault(a, [0.0, 0.0])
            total, c = k  # _Kahan.add, inline
            y = v - c
            t = total + y
            k[1] = (t - total) - y
            k[0] = t
    return tuple(sorted((a, k[0]) for a, k in acc.items()))


def brute_force_divergence(
    db_a: DatabaseModel,
    db_b: DatabaseModel,
    technique: TemplateDistribution,
    q: Query,
    eps: float,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> float:
    """Hockey-stick divergence of sampled answers, from the exact joint law."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    if technique.n != db_a.n or technique.n != db_b.n:
        raise ValueError("technique size must match both models")
    law_a = _answer_law(db_a, technique, q, budget)
    law_b = dict(_answer_law(db_b, technique, q, budget))
    scale = math.exp(eps)
    acc = _Kahan()
    for a, wa in law_a:
        wb = law_b.get(a, 0.0)
        diff = wa if wb == 0.0 else wa - scale * wb
        if diff > 0.0:
            acc.add(diff)
    return min(1.0, acc.total)


def brute_force_tradeoff(mu: Pmf, nu: Pmf, alpha: float) -> float:
    """Optimal type II error at type I level alpha, by exhaustive search.

    Scans every rejection subset of the union support (TRADEOFF_MAX_SUPPORT
    outcomes at most), collects the achievable (type I, type II) pairs and
    evaluates at alpha their lower convex envelope, which randomized tests reach.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    union = sorted(set(mu.support) | set(nu.support))
    if len(union) > TRADEOFF_MAX_SUPPORT:
        raise EnumerationBudgetError(2 ** len(union), 2 ** TRADEOFF_MAX_SUPPORT)
    points = []
    for bits in range(2 ** len(union)):
        type1 = _Kahan()
        type2 = _Kahan()
        for i, a in enumerate(union):
            if bits >> i & 1:
                type1.add(nu.prob(a))
            else:
                type2.add(mu.prob(a))
        points.append((type1.total, type2.total))
    points.sort()
    floor: list[tuple[float, float]] = []
    for pt in points:
        if floor and pt[0] == floor[-1][0]:
            if pt[1] < floor[-1][1]:
                floor[-1] = pt
            continue
        floor.append(pt)
    hull: list[tuple[float, float]] = []
    for pt in floor:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 1e-15:
                hull.pop()
            else:
                break
        hull.append(pt)
    a = min(max(alpha, hull[0][0]), hull[-1][0])
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= a <= x1:
            if x1 == x0:
                return min(y0, y1)
            t = (a - x0) / (x1 - x0)
            return y0 + t * (y1 - y0)
    return hull[-1][1]
