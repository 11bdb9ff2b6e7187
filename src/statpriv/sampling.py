"""Sampling templates, technique distributions and sampled privacy curves.

A template is a sequence of 1-based entry indices; repeated indices refer to
one shared draw of that entry. A technique is a distribution over templates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    answer_law,
    answer_pmf,
    condition,
    law_key,
    scan_positions,
)
from .divergence import PrivacyCurve, as_grid, worst_pairs
from .errors import EnumerationBudgetError, ZeroProbabilityError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Template:
    """Index sequence naming which entries to draw."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        for i in self.indices:
            if i < 1:
                raise ValueError(f"indices are 1-based, got {i}")

    @property
    def length(self) -> int:
        return len(self.indices)

    def count(self, j: int) -> int:
        return self.indices.count(j)

    @cached_property
    def distinct(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.indices)))


@dataclass(frozen=True)
class TemplateDistribution:
    """Distribution over templates drawing from entries 1..n.

    `exchangeable` marks distributions invariant under relabeling entries;
    the named constructors set it, conditioned views clear it.
    """

    kind: str
    n: int
    items: tuple[tuple[Template, float], ...]
    exchangeable: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        items = tuple((t, float(p)) for t, p in self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("a technique needs at least one template")
        seen = set()
        for t, p in items:
            if not isinstance(t, Template):
                raise ValueError(f"expected Template, got {type(t).__name__}")
            if t in seen:
                raise ValueError(f"duplicate template {t.indices}")
            seen.add(t)
            if p <= 0.0:
                raise ValueError(f"template probability {p} must be positive")
            for i in t.indices:
                if i > self.n:
                    raise ValueError(f"index {i} exceeds n={self.n}")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"template probabilities sum to {total}, not 1")

    @cached_property
    def _probs(self) -> dict[Template, float]:
        return dict(self.items)

    def prob(self, t: Template) -> float:
        return self._probs.get(t, 0.0)

    @staticmethod
    def without_replacement(n: int, m: int, budget: int = DEFAULT_BUDGET) -> "TemplateDistribution":
        """Uniform distribution over sorted m-subsets of 1..n."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        count = math.comb(n, m)
        if count > budget:
            raise EnumerationBudgetError(count, budget)
        p = 1.0 / count
        items = tuple(
            (Template(combo), p)
            for combo in itertools.combinations(range(1, n + 1), m)
        )
        return TemplateDistribution("without_replacement", n, items, exchangeable=True)

    @staticmethod
    def poisson(n: int, rate: float, budget: int = DEFAULT_BUDGET) -> "TemplateDistribution":
        """Each entry drawn independently with probability `rate`."""
        rate = float(rate)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        count = 2 ** n
        if count > budget:
            raise EnumerationBudgetError(count, budget)
        items = []
        for m in range(n + 1):
            p = rate ** m * (1.0 - rate) ** (n - m)
            if p == 0.0:
                continue
            for combo in itertools.combinations(range(1, n + 1), m):
                items.append((Template(combo), p))
        return TemplateDistribution("poisson", n, tuple(items), exchangeable=True)

    @staticmethod
    def with_replacement(n: int, m: int, budget: int = DEFAULT_BUDGET) -> "TemplateDistribution":
        """m independent uniform draws from 1..n, order kept."""
        if m < 1:
            raise ValueError(f"need m >= 1, got m={m}")
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        count = n ** m
        if count > budget:
            raise EnumerationBudgetError(count, budget)
        p = 1.0 / count
        items = tuple(
            (Template(seq), p)
            for seq in itertools.product(range(1, n + 1), repeat=m)
        )
        return TemplateDistribution("with_replacement", n, items, exchangeable=True)

    def _restrict(self, keep, label: str) -> "TemplateDistribution":
        kept = [(t, p) for t, p in self.items if keep(t)]
        if not kept:
            raise ZeroProbabilityError(f"no templates with {label}")
        mass = math.fsum(p for _, p in kept)
        items = tuple((t, p / mass) for t, p in kept)
        return TemplateDistribution(self.kind, self.n, items)

    def given_size(self, m: int) -> "TemplateDistribution":
        return self._restrict(lambda t: t.length == m, f"length {m}")

    def given_count(self, j: int, k: int) -> "TemplateDistribution":
        return self._restrict(lambda t: t.count(j) == k, f"index {j} drawn {k} times")

    def given_drawn(self, j: int) -> "TemplateDistribution":
        return self._restrict(lambda t: t.count(j) > 0, f"index {j} drawn")

    def given_not_drawn(self, j: int) -> "TemplateDistribution":
        return self._restrict(lambda t: t.count(j) == 0, f"index {j} not drawn")


def apply_template(
    db: DatabaseModel, t: Template, q: Query, budget: int = DEFAULT_BUDGET
) -> Pmf:
    """Answer distribution of q over the entries a template draws.

    This is answer_law on the template: repeated indices share one draw,
    and for a symmetric query a state is a multiset of the drawn values
    (see answer_law). Templates with equal law_key give equal laws, which is
    what every cache of answer laws is keyed by. An empty template yields the
    query's declared empty answer.
    """
    return answer_law(db, t.indices, q, budget)


def sampled_pushforward(
    db: DatabaseModel,
    technique: TemplateDistribution,
    q: Query,
    budget: int = DEFAULT_BUDGET,
) -> Pmf:
    """Mixture of per-template answer distributions under the technique."""
    if technique.n != db.n:
        raise ValueError(f"technique over 1..{technique.n} does not match model size {db.n}")
    cache: dict[tuple, Pmf] = {}

    def pairs():
        for t, p in technique.items:
            key = law_key(db, t.indices, q)
            sub = cache.get(key)
            if sub is None:
                sub = cache[key] = apply_template(db, t, q, budget)
            for a, w in zip(sub.outcomes, sub.weights):
                yield a, p * w

    return answer_pmf(q, pairs())


def sampling_curve(
    db: DatabaseModel,
    q: Query,
    technique: TemplateDistribution,
    j: int,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Expected worst-pair divergence over templates drawing entry j.

    For each epsilon this averages, over the technique conditioned on entry j
    being drawn, the maximal hockey-stick divergence between template answer
    distributions of the model conditioned to j = v versus j = w, maximized
    over ordered pairs (v, w).
    """
    grid = as_grid(grid)
    view = technique.given_drawn(j)
    conditioned = {w: condition(db, j, w) for w in db.outcome_grid}
    cache: dict[tuple, tuple[float, ...]] = {}
    terms: list[list[float]] = [[] for _ in grid]
    for t, p in view.items:
        key = tuple(law_key(cond, t.indices, q) for cond in conditioned.values())
        worst = cache.get(key)
        if worst is None:
            pmfs = {w: apply_template(cond, t, q, budget) for w, cond in conditioned.items()}
            worst = tuple(max(col) for col in zip(*worst_pairs(pmfs, grid).values()))
            cache[key] = worst
        for ts, d in zip(terms, worst):
            ts.append(p * d)
    values = tuple(min(1.0, max(0.0, math.fsum(ts))) for ts in terms)
    return PrivacyCurve(grid, values)


def sampling_curve_max(
    db: DatabaseModel,
    q: Query,
    technique: TemplateDistribution,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Pointwise maximum of sampling_curve over the positions of scan_positions."""
    grid = as_grid(grid)
    positions = scan_positions(db, q, technique.exchangeable)
    curves = [sampling_curve(db, q, technique, j, grid, budget).values for j in positions]
    return PrivacyCurve(grid, tuple(max(col) for col in zip(*curves)))


def matched_coupling(
    drawn: TemplateDistribution, not_drawn: TemplateDistribution, j: int
) -> tuple[tuple[Template, Template, float], ...]:
    """Couple templates drawing entry j with templates avoiding it.

    Returns (template with j, partner without j, joint probability) triples
    whose partners agree with the template outside the slots holding j. When
    every template is injective the single j slot is replaced uniformly by an
    index not already drawn; with repeats each j slot is replaced
    independently and uniformly by another index. Both marginals are exact:
    the first equals `drawn`, the second recovers `not_drawn` after sorting
    partner indices (injective case) or directly (repeat case).

    Both inputs must put all mass on one common template length; mixed
    lengths (Poisson views) are rejected.
    """
    if drawn.n != not_drawn.n:
        raise ValueError("coupled techniques must share n")
    n = drawn.n
    lengths = {t.length for t, _ in drawn.items} | {t.length for t, _ in not_drawn.items}
    if len(lengths) != 1:
        raise ValueError(
            f"coupling needs one common template length, got {sorted(lengths)}"
        )
    for t, _ in drawn.items:
        if t.count(j) == 0:
            raise ValueError(f"template {t.indices} does not draw {j}")
    for t, _ in not_drawn.items:
        if t.count(j) > 0:
            raise ValueError(f"template {t.indices} draws {j}")
    if n < 2:
        raise ValueError("coupling needs a second index to swap in")
    injective = all(len(t.distinct) == t.length for t, _ in drawn.items)
    pairs = []
    for t, p in drawn.items:
        slots = [i for i, idx in enumerate(t.indices) if idx == j]
        if injective:
            avail = [x for x in range(1, n + 1) if x not in t.distinct]
            if not avail:
                raise ValueError(f"no index left to replace {j} in {t.indices}")
            share = p / len(avail)
            for x in avail:
                partner = list(t.indices)
                partner[slots[0]] = x
                pairs.append((t, Template(tuple(partner)), share))
        else:
            others = [x for x in range(1, n + 1) if x != j]
            share = p / len(others) ** len(slots)
            for combo in itertools.product(others, repeat=len(slots)):
                partner = list(t.indices)
                for s, x in zip(slots, combo):
                    partner[s] = x
                pairs.append((t, Template(tuple(partner)), share))
    return tuple(pairs)


@dataclass(frozen=True)
class CouplingSplit:
    """Total variation split mu = (1 - tv) common + tv mu_excess, same for nu."""

    tv: float
    common: Pmf
    mu_excess: Pmf
    nu_excess: Pmf


def maximal_coupling_split(mu: Pmf, nu: Pmf) -> CouplingSplit:
    """Split two pmfs into shared mass and normalized excess parts.

    tv is the total variation distance. When tv is 0 or 1 the unused parts
    are arbitrary and the inputs are returned unchanged in their place.
    """
    union = sorted(set(mu.support) | set(nu.support))
    mins = [(a, min(mu.prob(a), nu.prob(a))) for a in union]
    overlap = math.fsum(w for _, w in mins)
    tv = 1.0 - overlap
    if tv <= 0.0:
        return CouplingSplit(0.0, mu, mu, nu)
    if overlap == 0.0:
        return CouplingSplit(1.0, mu, mu, nu)
    common = Pmf.from_pairs((a, w / overlap) for a, w in mins)
    mu_excess = Pmf.from_pairs((a, (mu.prob(a) - w) / tv) for a, w in mins)
    nu_excess = Pmf.from_pairs((a, (nu.prob(a) - w) / tv) for a, w in mins)
    return CouplingSplit(tv, common, mu_excess, nu_excess)
