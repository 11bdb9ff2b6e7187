"""Sampling templates, technique distributions and sampled privacy curves.

A template is a sequence of 1-based entry indices; repeated indices refer to
one shared draw of that entry. A technique is a distribution over templates,
held as classes of templates that share one answer law (see
TemplateDistribution.classes).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    _Value,
    answer_law,
    answer_pmf,
    binomial_pmf,
    condition,
    law_key,
    scan_positions,
)
from .divergence import PrivacyCurve, as_grid, worst_pairs
from .errors import EnumerationBudgetError, ZeroProbabilityError

PROB_TOL = 1e-12


class Template(_Value):
    """Index sequence naming which entries to draw; TemplateDistribution
    and law_key check that the indices lie in 1..n."""

    indices: tuple[int, ...]

    def __init__(self, indices: tuple[int, ...]):
        self.__dict__["indices"] = indices

    @property
    def length(self) -> int:
        return len(self.indices)

    @cached_property
    def distinct(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.indices)))


class TemplateDistribution(_Value):
    """Distribution over templates drawing from entries 1..n, held as
    (representative template, mass) per class of templates.

    A distribution built from explicit `items` is its own list of classes.
    The named techniques (without_replacement, poisson, with_replacement)
    and their given_drawn views are built in closed form: their `items` are
    the classes when all entries are alike, `classes` those one model tells
    apart. Only these set `param` (m, or the rate for poisson), `given` (the
    positions a view conditions on being drawn at least once) and `budget`,
    which their views get.
    Equality and the hash ignore `budget`.
    """

    kind: str
    n: int
    items: tuple[tuple[Template, float], ...]
    param: float | None = None  # these three only _named sets
    given: tuple[int, ...] = ()
    budget: int = DEFAULT_BUDGET

    def __init__(self, kind: str, n: int, items: tuple[tuple[Template, float], ...]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        items = tuple((t, float(p)) for t, p in items)
        self.__dict__.update(kind=kind, n=n, items=items)
        if not items:
            raise ValueError("a technique needs at least one template")
        for t, p in items:
            if not isinstance(t, Template):
                raise ValueError(f"expected Template, got {type(t).__name__}")
            if not p > 0.0:
                raise ValueError(f"template probability {p} must be positive")
            if t.indices and not 1 <= min(t.indices) <= max(t.indices) <= n:
                raise ValueError(f"template {t.indices} leaves the indices 1..{n}")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"template probabilities sum to {total}, not 1")

    def _key(self) -> tuple:
        return self.kind, self.n, self.items, self.param, self.given

    @property
    def exchangeable(self) -> bool:
        """Invariant under relabeling entries: a whole named technique."""
        return self.param is not None and not self.given

    @staticmethod
    def without_replacement(n: int, m: int, budget: int = DEFAULT_BUDGET) -> "TemplateDistribution":
        """Uniform distribution over sorted m-subsets of 1..n."""
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        return TemplateDistribution._named("without_replacement", n, m, budget)

    @staticmethod
    def poisson(n: int, rate: float, budget: int = DEFAULT_BUDGET) -> "TemplateDistribution":
        """Each entry drawn independently with probability `rate`."""
        rate = float(rate)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        return TemplateDistribution._named("poisson", n, rate, budget)

    @staticmethod
    def with_replacement(n: int, m: int, budget: int = DEFAULT_BUDGET) -> "TemplateDistribution":
        """m independent uniform draws from 1..n, order kept."""
        if m < 1 or n < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        return TemplateDistribution._named("with_replacement", n, m, budget)

    @staticmethod
    def _named(kind, n, param, budget, given=(), label=""):
        items = _classes(kind, n, param, _groups(n, None, given), given, budget)
        if not items:
            raise ZeroProbabilityError(f"no templates with {label}")
        out = TemplateDistribution(kind, n, items)
        out.__dict__.update(param=param, given=given, budget=budget)
        return out

    def classes(
        self, db: DatabaseModel, budget: int = DEFAULT_BUDGET
    ) -> tuple[tuple[Template, float], ...]:
        """(representative, mass) per class of templates with one answer
        law on db for every query, in enumeration order.

        Positions with equal entry pmfs form a group, each position a view
        conditions on a group of its own. A class is a pattern of draws per
        group: the repeats of its distinct indices. Its mass counts its
        templates (hypergeometric or multinomial over the group sizes), with
        the Binomial size weight for poisson; its representative is its
        first template in itertools order. Raises EnumerationBudgetError
        past `budget` classes. Keeps the last model's classes, as Pmf keeps as_dict.
        """
        if self.n != db.n:
            raise ValueError(f"technique over 1..{self.n} does not match model size {db.n}")
        if self.param is None:
            return self.items
        if db.is_iid and len(self.items) <= budget:
            return self.items  # built over these very groups
        if self.__dict__.get("_last_classes", ())[:2] != (db, budget):
            groups = _groups(self.n, db, self.given)
            classes = _classes(self.kind, self.n, self.param, groups, self.given, budget)
            self.__dict__["_last_classes"] = db, budget, classes
        return self.__dict__["_last_classes"][2]

    def given_drawn(self, j: int) -> "TemplateDistribution":
        """The view of the templates that draw entry j at least once."""
        label = f"index {j} drawn"
        if self.param is not None:
            return self._named(self.kind, self.n, self.param, self.budget, (*self.given, j), label)
        items = _conditioned(self.items, (j,))
        if not items:
            raise ZeroProbabilityError(f"no templates with {label}")
        return TemplateDistribution(self.kind, self.n, items)


def _groups(n, db, given):
    """Positions 1..n grouped by entry pmf of db (all alike without db or on
    an i.i.d. db), each position named in `given` alone; groups in order of
    their first position."""
    singled = set(given)
    entries = db.entries if db is not None and not db.is_iid else (None,) * n
    groups: dict[object, list[int]] = {}
    for i, entry in enumerate(entries, 1):
        groups.setdefault(i if i in singled else entry, []).append(i)
    return list(groups.values())


def _conditioned(items, given):
    """The (template, mass) pairs drawing every position of `given`,
    renormalized."""
    kept = [(t, p) for t, p in items if all(j in t.indices for j in given)]
    total = math.fsum(p for _, p in kept)
    return tuple((t, p / total) for t, p in kept) if given else tuple(kept)


def _classes(kind, n, param, groups, given, budget):
    """(Template, mass) per class of a named technique's templates over
    `groups`, conditioned on `given`, in enumeration order."""
    wr = kind == "with_replacement"
    weights = binomial_pmf(n, param) if kind == "poisson" else None
    totals = [k for k, w in enumerate(weights) if w > 0.0] if weights else [param]
    items = []
    for rep, count in _multiset_classes(wr, groups, totals, budget):
        share = count / (n ** len(rep) if wr else math.comb(n, len(rep)))
        mass = share * weights[len(rep)] if weights else share
        if mass > 0.0:
            items.append((Template(rep), mass))
    items.sort(key=lambda item: (item[0].length, item[0].indices))
    return _conditioned(items, given)


def _multiset_classes(wr, groups, totals, budget):
    """(first template, number of templates) per class of templates with
    equal draws per group: per group, the repeats of its distinct indices,
    all 1 without replacement. The patterns are counted first, from their
    generating function: per group of s indices 1 / ((1 - x)...(1 - x^s))
    with repeats (partitions into at most s parts), (1 + x + ... + x^s)
    without. They are then built group by group, keeping those that can
    still reach a length in `totals`."""
    most = max(totals)
    top = most if wr else 1
    ways = [1] + [0] * most
    for pos in groups:
        for part in range(1, min(len(pos), most) + 1) if wr else (1,):
            for c in range(part, most + 1):
                ways[c] += ways[c - part]
        for c in () if wr else range(most, len(pos), -1):
            ways[c] -= ways[c - len(pos) - 1]
    count = sum(ways[c] for c in totals)
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    room = top * sum(map(len, groups))
    patterns: list[tuple[tuple, int]] = [((), 0)]
    for pos in groups:
        room -= top * len(pos)
        patterns = [
            ((*pattern, lam), drawn + c)
            for pattern, drawn in patterns
            for c in range(max(0, totals[0] - drawn - room), min(most - drawn, top * len(pos)) + 1)
            for lam in _partitions(c, top, len(pos))
        ]
    for pattern, drawn in patterns:
        num, den = math.factorial(drawn) if wr else 1, 1
        for pos, lam in zip(groups, pattern):
            num *= math.perm(len(pos), len(lam))
            for r, same in itertools.groupby(lam):
                mult = len(list(same))
                den *= math.factorial(mult) * math.factorial(r) ** mult
        # The first template gives larger repeats to earlier indices.
        rep = [i for pos, lam in zip(groups, pattern) for i, r in zip(pos, lam) for _ in range(r)]
        yield tuple(sorted(rep)), num // den


def _partitions(c, top, most):
    """Partitions of c into at most `most` parts of at most `top`, as
    descending tuples; a run of ones is one step, not one level each."""
    if c == 0 or top == 1:
        if c <= most:
            yield (1,) * c
    elif most > 0:
        for first in range(min(c, top), 0, -1):
            for rest in _partitions(c - first, first, most - 1):
                yield (first, *rest)


def apply_template(
    db: DatabaseModel, t: Template, q: Query, budget: int = DEFAULT_BUDGET
) -> Pmf:
    """Answer distribution of q over the entries a template draws.

    This is answer_law on the template: repeated indices share one draw,
    and a state is a multiset of the drawn values (see answer_law).
    Templates with equal law_key give equal laws, which answer_law's memo
    is keyed by. An empty template yields the query's declared empty answer.
    """
    return answer_law(db, t.indices, q, budget)


def sampled_pushforward(
    db: DatabaseModel,
    technique: TemplateDistribution,
    q: Query,
    budget: int = DEFAULT_BUDGET,
) -> Pmf:
    """Mixture of per-class answer distributions under the technique."""

    def pairs():
        for t, p in technique.classes(db, budget):
            sub = apply_template(db, t, q, budget)
            for a, w in zip(sub.outcomes, sub.weights):
                yield a, p * w

    return answer_pmf(q, pairs())


def drawn_classes(db, q, view, j, grid, budget):
    """(template, mass, law keys, value -> law, value -> worst row) per class
    of `view`, a technique's given_drawn(j), in enumeration order: the
    template's laws on db with entry j conditioned to each outcome grid
    value, their law_keys, and worst_pairs of the laws on `grid`. Classes
    with equal key tuples share one law set and one row set."""
    conditioned = {w: condition(db, j, w) for w in db.outcome_grid}
    shared: dict[tuple, tuple] = {}
    for t, p in view.classes(db, budget):
        keys = tuple(law_key(cond, t.indices) for cond in conditioned.values())
        if keys not in shared:
            laws = {w: apply_template(cond, t, q, budget) for w, cond in conditioned.items()}
            shared[keys] = laws, worst_pairs(laws, grid)
        yield (t, p, keys, *shared[keys])


def drawn_curve(classes, grid) -> PrivacyCurve:
    """Per grid epsilon, the mass-weighted sum over drawn_classes items of
    their worst row entry (the max over conditioning values)."""
    terms: list[list[float]] = [[] for _ in grid]
    for _, p, _, _, rows in classes:
        for ts, d in zip(terms, (max(col) for col in zip(*rows.values()))):
            ts.append(p * d)
    return PrivacyCurve(grid, tuple(min(1.0, max(0.0, math.fsum(ts))) for ts in terms))


def sampling_curve(
    db: DatabaseModel,
    q: Query,
    technique: TemplateDistribution,
    j: int,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Expected worst-pair divergence over templates drawing entry j.

    For each epsilon this averages, over the classes of the technique
    conditioned on entry j being drawn, the maximal hockey-stick divergence
    between template answer distributions of the model conditioned to j = v
    versus j = w, maximized over ordered pairs (v, w): drawn_curve of
    drawn_classes.
    """
    grid = as_grid(grid)
    return drawn_curve(drawn_classes(db, q, technique.given_drawn(j), j, grid, budget), grid)


def sampling_curve_max(
    db: DatabaseModel,
    q: Query,
    technique: TemplateDistribution,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Pointwise maximum of sampling_curve over the positions of scan_positions."""
    grid = as_grid(grid)
    positions = scan_positions(db, technique.exchangeable)
    curves = [sampling_curve(db, q, technique, j, grid, budget).values for j in positions]
    return PrivacyCurve(grid, tuple(max(col) for col in zip(*curves)))


def matched_coupling(
    drawn: TemplateDistribution,
    j: int,
    db: DatabaseModel,
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[Template, Template, float], ...]:
    """Couple the classes of templates drawing entry j with templates
    avoiding it, as (template with j, partner without j, joint probability)
    triples over drawn.classes(db).

    Partners agree with the template outside the slots holding j. When
    every template is injective the single j slot is replaced uniformly by
    an index not already drawn; with repeats each j slot is replaced
    independently and uniformly by another index. A partner stands for all
    partners alike up to relabeling entries within a group (see
    TemplateDistribution.classes) and is the first of them in product
    order. The first marginal is the classes of `drawn`; the partners the
    pairs stand for have the law of the technique's templates that avoid j
    (conditioned as `drawn` is at its other positions), after sorting their
    indices (injective case) or directly. `drawn` must put all mass on one
    template length; mixed lengths (Poisson views) are rejected.
    """
    n = drawn.n
    lengths = {t.length for t, _ in drawn.items}
    if len(lengths) != 1:
        raise ValueError(
            f"coupling needs one common template length, got {sorted(lengths)}"
        )
    for t, _ in drawn.items:
        if j not in t.indices:
            raise ValueError(f"template {t.indices} does not draw {j}")
    if n < 2:
        raise ValueError("coupling needs a second index to swap in")
    injective = all(len(t.distinct) == t.length for t, _ in drawn.items)
    groups = _groups(n, db, (*drawn.given, j))
    pairs = []
    for t, p in drawn.classes(db, budget):
        # The j slots are a with-replacement draw from the other indices:
        # one already drawn (a group of its own, unless injective) or a
        # free one of a group.
        slots = [s for s, i in enumerate(t.indices) if i == j]
        kept = [] if injective else [[i] for i in t.distinct if i != j]
        free = [[i for i in pos if i not in t.distinct] for pos in groups]
        others = [g for g in kept + free if g]
        if not others:
            raise ValueError(f"no index left to replace {j} in {t.indices}")
        width = sum(map(len, others))
        fills = _classes("with_replacement", width, len(slots), others, (), budget)
        for fill, share in fills:
            partner = list(t.indices)
            for s, x in zip(slots, fill.indices):
                partner[s] = x
            pairs.append((t, Template(tuple(partner)), p * share))
        if len(pairs) > budget:
            raise EnumerationBudgetError(f"more than {budget}", budget)
    return tuple(pairs)

class CouplingSplit(_Value):
    """Total variation split mu = (1 - tv) common + tv mu_excess, same for nu."""

    tv: float
    common: Pmf
    mu_excess: Pmf
    nu_excess: Pmf

    def __init__(self, tv: float, common: Pmf, mu_excess: Pmf, nu_excess: Pmf):
        self.__dict__.update(tv=tv, common=common, mu_excess=mu_excess, nu_excess=nu_excess)


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
