"""Finite discrete distributions, product database models and queries.

Positions are 1-based throughout: a model over n entries is indexed 1..n,
matching the convention used by sampling templates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product
from functools import cached_property
from operator import add, lt, mul
from typing import Callable, Iterable, Sequence

from .errors import AlreadyFixedError, EnumerationBudgetError

DEFAULT_BUDGET = 10_000_000
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a finite, strictly increasing outcome grid.

    Zero weights are allowed so that a conditioned entry can stay on the
    common outcome grid of its model; `support` lists the outcomes that
    actually carry mass.
    """

    outcomes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        # Every check iterates in C (map, all, min): a sampling bound builds
        # hundreds of laws, each checked here.
        outcomes = tuple(map(float, self.outcomes))
        weights = tuple(map(float, self.weights))
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", weights)
        if len(outcomes) != len(weights):
            raise ValueError("outcomes and weights must have equal length")
        if not outcomes:
            raise ValueError("a pmf needs at least one outcome")
        if not all(map(math.isfinite, outcomes)):
            raise ValueError(f"non-finite outcome {min(outcomes, key=math.isfinite)}")
        if not all(map(lt, outcomes, outcomes[1:])):
            raise ValueError("outcomes must be strictly increasing")
        if not (all(map(math.isfinite, weights)) and min(weights) >= 0.0):
            bad = next(w for w in weights if not (math.isfinite(w) and w >= 0.0))
            raise ValueError(f"invalid weight {bad}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1")

    @cached_property
    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.outcomes, self.weights))

    @cached_property
    def support(self) -> tuple[float, ...]:
        return tuple(a for a, w in zip(self.outcomes, self.weights) if w > 0.0)

    def prob(self, a: float) -> float:
        return self.as_dict.get(float(a), 0.0)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[float, float]], drop_zero: bool = True) -> "Pmf":
        """Build a pmf from (outcome, weight) pairs, merging equal outcomes.

        Outcomes are kept as given: two merge only when they are the same
        float (0.0 and -0.0 are one outcome, 0.0). Weights are added in the
        order of the pairs.
        """
        acc: dict[float, float] = {}
        for a, w in pairs:
            a += 0.0
            acc[a] = acc.get(a, 0.0) + w
        items = sorted(acc.items())
        if drop_zero:
            items = [(a, w) for a, w in items if w > 0.0]
        if not items:
            raise ValueError("no outcomes with positive weight")
        return Pmf(tuple(a for a, _ in items), tuple(w for _, w in items))

    @staticmethod
    def point(value: float) -> "Pmf":
        return Pmf((float(value) + 0.0,), (1.0,))

    @staticmethod
    def point_on(value: float, outcomes: Sequence[float]) -> "Pmf":
        """One-hot pmf at `value` kept on a wider outcome grid."""
        value = float(value)
        outcomes = tuple(float(a) for a in outcomes)
        if value not in outcomes:
            raise ValueError(f"value {value} is not on the grid {outcomes}")
        return Pmf(outcomes, tuple(1.0 if a == value else 0.0 for a in outcomes))

    @staticmethod
    def bernoulli(p: float) -> "Pmf":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli parameter {p} outside [0, 1]")
        return Pmf((0.0, 1.0), (1.0 - float(p), float(p)))

    @staticmethod
    def mixture(components: Sequence[tuple[float, "Pmf"]]) -> "Pmf":
        """Weighted mixture of pmfs; coefficients must sum to 1."""
        pairs = []
        for coef, pmf in components:
            if coef < 0.0:
                raise ValueError(f"negative mixture coefficient {coef}")
            for a, w in zip(pmf.outcomes, pmf.weights):
                pairs.append((a, coef * w))
        return Pmf.from_pairs(pairs)


@dataclass(frozen=True, eq=False)
class Query:
    """Numeric query over a tuple of entry values.

    The evaluator may assume a nonempty input; `empty_answer` is the declared
    answer for an empty sample. `symmetric` asserts permutation invariance and
    `monotone` coordinatewise monotonicity, both trusted as declared. A
    symmetric query may also give `counts_evaluator`: given the distinct
    values, it returns a function of their counts that gives the evaluator's
    float bit for bit, in time independent of the sample size. Answer laws
    merge two answers exactly when they are the same float, so a counts
    evaluator that rounded differently would split or merge answers the
    released query does not.
    """

    name: str
    evaluator: Callable[[tuple[float, ...]], float]
    monotone: bool
    symmetric: bool = True
    empty_answer: float = 0.0
    counts_evaluator: (
        Callable[[tuple[float, ...]], Callable[[Sequence[int]], float]] | None
    ) = None

    def answer(self, values: tuple[float, ...]) -> float:
        if not values:
            return float(self.empty_answer)
        return float(self.evaluator(values))

    def counts_answer(self, values: tuple[float, ...]) -> Callable[[Sequence[int]], float]:
        """The answer on the multiset that holds values[i] counts[i] times,
        as a function of the counts (not all zero)."""
        if self.counts_evaluator is not None:
            return self.counts_evaluator(values)
        return lambda counts: self.answer(
            tuple(v for v, c in zip(values, counts) for _ in range(c))
        )


def _sum_of_counts(values: tuple[float, ...]) -> Callable[[Sequence[int]], float]:
    """math.fsum of a multiset of `values` from its counts.

    Each value is an integer over a common power of two, so the sum is exact
    in integers and rounded once, as fsum rounds it.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    nums = [n * (den // d) for n, d in ratios]
    return lambda counts: sum(map(mul, counts, nums)) / den


def _positive_count(values: tuple[float, ...]) -> Callable[[Sequence[int]], float]:
    positive = [v > 0.0 for v in values]
    return lambda counts: float(sum(compress(counts, positive)))


def _mean_of_counts(values: tuple[float, ...]) -> Callable[[Sequence[int]], float]:
    total = _sum_of_counts(values)
    return lambda counts: total(counts) / sum(counts)


def sum_query() -> Query:
    return Query(
        "sum",
        lambda values: math.fsum(values),
        monotone=True,
        counts_evaluator=_sum_of_counts,
    )


def count_query() -> Query:
    """Number of strictly positive values in the sample."""
    return Query(
        "count",
        lambda values: float(sum(1 for x in values if x > 0.0)),
        monotone=True,
        counts_evaluator=_positive_count,
    )


def mean_query() -> Query:
    return Query(
        "mean",
        lambda values: math.fsum(values) / len(values),
        monotone=True,
        empty_answer=0.0,
        counts_evaluator=_mean_of_counts,
    )


_QUERIES = {"sum": sum_query, "count": count_query, "mean": mean_query}


def query_by_name(name: str) -> Query:
    try:
        return _QUERIES[name]()
    except KeyError:
        raise ValueError(f"unknown query {name!r}; available: {sorted(_QUERIES)}") from None


@dataclass(frozen=True)
class DatabaseModel:
    """Product distribution over independent entries with a shared outcome grid.

    `fixed` records positions already conditioned to a value. Those entries
    are one-hot pmfs on the common grid, so a conditioned model is still a
    pure product and all operations apply unchanged.
    """

    entries: tuple[Pmf, ...]
    fixed: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("a model needs at least one entry")
        grid = entries[0].outcomes
        for e in entries[1:]:
            if e.outcomes != grid:
                raise ValueError("all entries must share one outcome grid")
        fixed = tuple(sorted((int(j), float(w)) for j, w in self.fixed))
        object.__setattr__(self, "fixed", fixed)
        seen = set()
        for j, w in fixed:
            if not 1 <= j <= len(entries):
                raise ValueError(f"fixed position {j} out of range 1..{len(entries)}")
            if j in seen:
                raise ValueError(f"position {j} fixed twice")
            seen.add(j)
            if entries[j - 1].prob(w) != 1.0:
                raise ValueError(f"entry {j} is not concentrated on its fixed value {w}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def outcome_grid(self) -> tuple[float, ...]:
        return self.entries[0].outcomes

    @cached_property
    def is_iid(self) -> bool:
        return not self.fixed and all(e == self.entries[0] for e in self.entries)

    def entry(self, j: int) -> Pmf:
        if not 1 <= j <= self.n:
            raise ValueError(f"position {j} out of range 1..{self.n}")
        return self.entries[j - 1]

    def is_fixed(self, j: int) -> bool:
        return any(j == pos for pos, _ in self.fixed)

    @staticmethod
    def iid(entry: Pmf, n: int) -> "DatabaseModel":
        if n < 1:
            raise ValueError(f"need at least one entry, got n={n}")
        return DatabaseModel((entry,) * n)


def scan_positions(db: DatabaseModel, q: Query, exchangeable: bool) -> tuple[int, ...]:
    """Positions a worst-pair scan must visit: every position not fixed, or
    with an exchangeable technique and a symmetric query the first of each
    distinct entry pmf, as positions with one pmf are then alike."""
    fixed = {j for j, _ in db.fixed}
    free = [j for j in range(1, db.n + 1) if j not in fixed]
    if exchangeable and q.symmetric:
        free = {db.entries[j - 1]: j for j in reversed(free)}.values()
        return tuple(sorted(free))
    return tuple(free)


def condition(db: DatabaseModel, j: int, w: float) -> DatabaseModel:
    """Fix entry j to outcome w, returning the conditioned model.

    Raises AlreadyFixedError if j was conditioned before and ValueError for a
    position out of range or a value off the common outcome grid.
    """
    if not 1 <= j <= db.n:
        raise ValueError(f"position {j} out of range 1..{db.n}")
    w = float(w)
    if w not in db.outcome_grid:
        raise ValueError(f"value {w} is not on the outcome grid {db.outcome_grid}")
    if db.is_fixed(j):
        raise AlreadyFixedError(f"position {j} is already fixed")
    entries = list(db.entries)
    entries[j - 1] = Pmf.point_on(w, db.outcome_grid)
    return DatabaseModel(tuple(entries), db.fixed + ((j, w),))


# Multinomial weights are built on integer mantissas of this many bits with a
# separate binary exponent. A step of a weight recurrence truncates at most
# 2^-127 relative, so even 2^40 steps stay far below one float ulp, and no
# weight, factorial or power ever leaves the float range before the final
# rounding (to 0.0 when the weight itself underflows).
_PREC = 128
_ONE = 1 << _PREC


def _fixed(m: int, e: int) -> tuple[int, int]:
    """m * 2^e with m shifted to _PREC bits (m > 0)."""
    shift = m.bit_length() - _PREC
    return (m >> shift, e + shift) if shift >= 0 else (m << -shift, e + shift)


def _fixed_pow(num: int, den: int, c: int) -> tuple[int, int]:
    """(num / den) ** c as a fixed mantissa and exponent (num, den > 0)."""
    shift = max(0, _PREC + 1 + den.bit_length() - num.bit_length())
    base = _fixed((num << shift) // den, -shift)
    out = (_ONE, -_PREC)
    while c:
        if c & 1:
            out = _fixed(out[0] * base[0], out[1] + base[1])
        base = _fixed(base[0] * base[0], 2 * base[1])
        c >>= 1
    return out


def _weights(probs: Sequence[float], c: int, m: int | None = None, e: int = 0):
    """(counts, m', e') per vector of len(probs) counts summing to c, first
    count descending, where m' * 2^e' is m * 2^e times the multinomial
    probability c! / prod(counts!) * prod(p ** count) of the counts.

    Without m the start is 1 / S^c, S the exact rational sum of probs, so the
    weights sum to 1: (0.7, 0.3) sums to 1 - 2^-54, and S^n undivided would
    miss WEIGHT_TOL from about n = 18000.

    Along a count j of the first outcome, C(c, j) p^j is a recurrence from
    p^c; with two outcomes left the recurrence also carries the last power.
    """
    if m is None:
        ratios = [p.as_integer_ratio() for p in probs]
        den = max(d for _, d in ratios)
        m, e = _fixed_pow(den, sum(num * (den // d) for num, d in ratios), c)
    p, *rest = probs
    pm, pe = _fixed_pow(*p.as_integer_ratio(), c)
    m, e = _fixed(m * pm, e + pe)
    if not rest:
        yield (c,), m, e
        return
    # From j + 1 to j draws of p the weight changes by (j + 1) / (c - j)
    # times 1 / p, or times q / p when q is the only outcome left.
    num, den = p.as_integer_ratio()
    last = len(rest) == 1
    if last:
        qnum, qden = rest[0].as_integer_ratio()
        up, down = qnum * den, qden * num
    else:
        up, down = den, num
    for j in range(c, -1, -1):
        if j < c:
            # m keeps at least _PREC bits, so shift >= 0.
            bottom = (c - j) * down
            m = (m * (j + 1) * up << bottom.bit_length()) // bottom
            shift = m.bit_length() - _PREC
            m >>= shift
            e += shift - bottom.bit_length()
        if last:
            yield (j, c - j), m, e
        else:
            for tail, tm, te in _weights(rest, c - j, m, e):
                yield (j, *tail), tm, te


def _to_float(m: int, e: int) -> float:
    return math.ldexp(m / _ONE, e + _PREC)


def binomial_pmf(n: int, p: float) -> list[float]:
    """P(M = m) for m = 0..n, M ~ Binomial(n, p), each exact to roundoff at
    any n (see _PREC)."""
    if p in (0.0, 1.0):
        return [float(m == (n if p else 0)) for m in range(n + 1)]
    out = [_to_float(m, e) for _, m, e in _weights((p, 1.0 - p), n)]
    return out[::-1]


def law_key(db: DatabaseModel, indices: Sequence[int], q: Query) -> tuple:
    """Hashable key of answer_law(db, indices, q). answer_law enumerates from
    the key alone, so equal keys give bit-identical laws.

    Each distinct index is a slot: an entry pmf plus the number of times the
    sample repeats it. For a symmetric query the key is the multiset of
    slots, as (pmf, repeat, slots) classes in a fixed order: largest class
    (most states) first, ties broken by repeat, slots and the pmf. On i.i.d.
    entries the templates (1, 2) and (1, 32) share a key. Otherwise the key
    is the slot pmfs in order of first occurrence and the index pattern, each
    index replaced by its slot.
    """
    if indices:
        if min(indices) < 1:
            raise ValueError(f"indices are 1-based, got {min(indices)}")
        if max(indices) > db.n:
            raise ValueError(f"template index {max(indices)} exceeds model size {db.n}")
    entries = db.entries
    if not q.symmetric:
        slot_of = {i: s for s, i in enumerate(dict.fromkeys(indices))}
        return tuple(entries[i - 1] for i in slot_of), tuple(map(slot_of.__getitem__, indices))
    # Plain dicts count about twice as fast as Counter on short templates.
    repeats: dict[int, int] = {}
    for i in indices:
        repeats[i] = repeats.get(i, 0) + 1
    slots: dict[tuple[Pmf, int], int] = {}
    for i, r in repeats.items():
        slot = entries[i - 1], r
        slots[slot] = slots.get(slot, 0) + 1
    classes = [(pmf, r, c) for (pmf, r), c in slots.items()]
    if len(classes) > 1:
        classes.sort(key=_class_order)
    return tuple(classes)


def _class_order(cls):
    pmf, r, c = cls
    return -_class_states(pmf, c), r, c, pmf.outcomes, pmf.weights


def answer_law(
    db: DatabaseModel,
    indices: Sequence[int],
    q: Query,
    budget: int = DEFAULT_BUDGET,
) -> Pmf:
    """Exact answer distribution of q on the sample (x_i for i in indices).

    The x_i are independent draws from the model's entries (1-based), and a
    repeated index reuses one draw. The law is enumerated from
    law_key(db, indices, q). A symmetric query sees only the multiset of the
    sample, so a class of c slots with equal (pmf, repeat) is enumerated as
    the count vectors over its support with multinomial weights; the answer
    comes from the summed count vector (Query.counts_answer). For a
    non-symmetric query every slot is its own class, which is plain ordered
    enumeration.

    A state is one count vector per class; a class of c slots over k support
    points has C(c + k - 1, c) of them. Raises EnumerationBudgetError before
    enumerating when the product over classes exceeds `budget`, and
    ValueError when an answer overflows the float range. The law is built by
    answer_pmf, so answers merge only when they are the same float. An empty
    sample yields the query's declared empty answer.
    """
    key = law_key(db, indices, q)
    if not indices:
        return Pmf.point(q.empty_answer)
    if q.symmetric:
        sizes = [_class_states(pmf, c) for pmf, _, c in key]
        options = [_multiset_options(pmf, r, c) for pmf, r, c in key]
        join = _add_counts
        evaluate = q.counts_answer(key[0][0].outcomes)
    else:
        pmfs, pattern = key
        sizes = [len(pmf.support) for pmf in pmfs]
        options = [
            [((a,), w) for a, w in zip(pmf.outcomes, pmf.weights) if w > 0.0]
            for pmf in pmfs
        ]
        join = tuple.__add__

        def evaluate(sample):
            return q.answer(tuple(map(sample.__getitem__, pattern)))

    states = 1
    for size in sizes:
        states *= size
        if states > budget:
            raise EnumerationBudgetError(states, budget)
    # The first class, the largest for a symmetric query, is streamed; the
    # option lists of the others are kept. A sample is the summed count
    # vector for a symmetric query and the tuple of slot values otherwise.
    heads, *rest = options
    pools = [list(opts) for opts in rest]

    def pairs():
        for head, head_weight in heads:
            for tail in product(*pools):
                sample = head
                weight = head_weight
                for part, w in tail:
                    sample = join(sample, part)
                    weight *= w
                yield evaluate(sample), weight

    return answer_pmf(q, pairs())


def answer_pmf(q: Query, pairs: Iterable[tuple[float, float]]) -> Pmf:
    """The law of q's answers from (answer, weight) pairs, the one place an
    answer law is built: Pmf.from_pairs, so two answers merge exactly when q
    returns the same float for them. A weight that underflowed to 0 keeps
    its answer. An answer beyond the float range, raised while the pairs are
    produced, is a ValueError naming q.
    """
    try:
        return Pmf.from_pairs(pairs, drop_zero=False)
    except OverflowError:
        raise ValueError(
            f"query {q.name!r} overflows: an answer on this model is beyond the float range"
        ) from None


def binomial_laws(db: DatabaseModel, q: Query) -> dict[float, Pmf] | None:
    """The Binomial fast path: conditioning value v -> answer law of q on db
    with one entry fixed to v, for i.i.d. two-valued entries and a symmetric
    query; None otherwise.

    The n - 1 free entries take the high outcome a Binomial number k of
    times. answer_law on the conditioned model streams these n count
    vectors with the same weights and adds the fixed entry's one-hot vector;
    so does this, without building the model or its key, so the laws are
    bit-identical to answer_law's at any n.
    """
    if not (db.is_iid and q.symmetric) or len(db.outcome_grid) != 2:
        return None
    entry = db.entries[0]
    lo, hi = entry.outcomes
    answer = q.counts_answer(entry.outcomes)
    free = list(_multiset_options(entry, 1, db.n - 1))
    return {
        lo: answer_pmf(q, ((answer((a + 1, b)), w) for (a, b), w in free)),
        hi: answer_pmf(q, ((answer((a, b + 1)), w) for (a, b), w in free)),
    }


def _add_counts(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def _class_states(pmf: Pmf, c: int) -> int:
    """Count vectors of c draws over the support of pmf."""
    return math.comb(c + len(pmf.support) - 1, c)


def _multiset_options(pmf: Pmf, repeat: int, c: int):
    """(count vector on the outcome grid, weight) per multiset of c draws
    from pmf, each draw repeated `repeat` times; a lazy iterator."""
    width = len(pmf.weights)
    support = [i for i, w in enumerate(pmf.weights) if w > 0.0]
    if c == 1:
        # A single draw weighs what the entry gives it. Skipping the
        # recurrence set-up keeps the many small templates of a sampling
        # bound cheap.
        for i in support:
            vector = [0] * width
            vector[i] = repeat
            yield tuple(vector), pmf.weights[i]
        return
    probs = [pmf.weights[i] for i in support]
    # A support filling the grid, drawn once, has _weights' counts as vectors.
    spread = len(support) < width or repeat != 1
    for counts, m, e in _weights(probs, c):
        if spread:
            vector = [0] * width
            for i, j in zip(support, counts):
                vector[i] = j * repeat
            counts = tuple(vector)
        yield counts, _to_float(m, e)


def pushforward(db: DatabaseModel, q: Query, budget: int = DEFAULT_BUDGET) -> Pmf:
    """Exact answer distribution of q over the full product model.

    This is answer_law on the template 1..n. For a symmetric query a state
    is a multiset of entry values, C(n + k - 1, n) of them for n i.i.d.
    entries over k support points; otherwise it is an ordered tuple.
    Raises EnumerationBudgetError when the state count exceeds `budget`.
    """
    return answer_law(db, range(1, db.n + 1), q, budget)
