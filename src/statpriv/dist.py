"""Finite discrete distributions, product database models and queries.

Positions are 1-based throughout: a model over n entries is indexed 1..n,
matching the convention used by sampling templates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from itertools import groupby, product, repeat
from functools import cached_property, reduce
from operator import add, itemgetter, lt, mul, or_

from .errors import AlreadyFixedError, EnumerationBudgetError

DEFAULT_BUDGET = 10_000_000
WEIGHT_TOL = 1e-12


class _Value:
    """Base of the frozen value classes, in place of frozen dataclasses,
    whose import (inspect and ast with it) every CLI start would pay. The
    annotated fields, which __init__ puts in self.__dict__, show in repr;
    == (within one class) and the hash, computed once, go by _key()."""

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__annotations__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash(self._key())
        return self.__dict__["_hash"]

    def __getstate__(self):  # the hash of a str or None differs between processes
        return {f: v for f, v in self.__dict__.items() if f != "_hash"}

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__annotations__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Pmf(_Value):
    """Probability mass function on a finite, strictly increasing outcome grid.

    Zero weights are allowed so that a conditioned entry can stay on the
    common outcome grid of its model; `support` lists the outcomes that
    actually carry mass.
    """

    outcomes: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, outcomes: Sequence[float], weights: Sequence[float]):
        # Every check iterates in C (map, all, min): a sampling bound builds
        # hundreds of laws, each checked here.
        outcomes = tuple(map(float, outcomes))
        if 0.0 in outcomes:  # -0.0 is the outcome 0.0, so equal pmfs are one law
            i = outcomes.index(0.0)
            outcomes = (*outcomes[:i], 0.0, *outcomes[i + 1 :])
        weights = tuple(map(float, weights))
        self.__dict__.update(outcomes=outcomes, weights=weights)
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

    def _key(self) -> tuple:  # spelled out: pmfs key the answer-law memo
        return self.outcomes, self.weights

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
            acc[a] = acc.get(a, 0.0) + w
        items = sorted(acc.items())
        if drop_zero:
            items = [(a, w) for a, w in items if w > 0.0]
        if not items:
            raise ValueError("no outcomes with positive weight")
        return Pmf(tuple(a for a, _ in items), tuple(w for _, w in items))

    @staticmethod
    def point(value: float) -> "Pmf":
        return Pmf((value,), (1.0,))

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


class Query(_Value):
    """Numeric query over a tuple of entry values.

    The evaluator may assume a nonempty input and must not depend on the
    order of its input: answer laws are built from the multiset of the
    sample. `empty_answer` is the declared answer for an empty sample. The
    order invariance and `monotone` (coordinatewise monotonicity) are
    trusted as declared.

    A query may declare itself `additive`: given the distinct values, it
    returns an integer score per value and answer(size, total), the answer
    on a sample of that size whose scores add up to `total`. The answer
    must be the evaluator's float bit for bit and nondecreasing in the
    total. Answer laws merge two answers exactly when they are the same
    float, so a declaration that rounded differently would split or merge
    answers the released query does not. Additive queries take the lattice
    chain (lattice_chain) in privacy curves, and counts_answer derives from
    the declaration; other queries answer from a rebuilt sample. Queries
    compare by identity.
    """

    name: str
    evaluator: Callable[[tuple[float, ...]], float]
    monotone: bool
    empty_answer: float
    additive: (
        Callable[[tuple[float, ...]], tuple[Sequence[int], Callable[[int, int], float]]]
        | None
    )

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name, evaluator, monotone, empty_answer=0.0, additive=None):
        self.__dict__.update(name=name, evaluator=evaluator, monotone=monotone)
        self.__dict__.update(empty_answer=empty_answer, additive=additive)

    def answer(self, values: tuple[float, ...]) -> float:
        if not values:
            return float(self.empty_answer)
        return float(self.evaluator(values))

    def counts_answer(self, values: tuple[float, ...]) -> Callable[[Sequence[int]], float]:
        """The answer on the multiset that holds values[i] counts[i] times,
        as a function of the counts (not all zero)."""
        if self.additive is not None:
            scores, answer = self.additive(values)
            return lambda counts: answer(sum(counts), sum(map(mul, counts, scores)))
        return lambda counts: self.answer(
            tuple(v for v, c in zip(values, counts) for _ in range(c))
        )


def _numerators(values: tuple[float, ...]) -> tuple[list[int], int]:
    """Each value as an integer over one common power of two: a sum of
    values is exact in these integers and rounds once, as fsum rounds it."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _additive_sum(values):
    scores, den = _numerators(values)
    return scores, lambda size, total: total / den


def _additive_count(values):
    return [int(v > 0.0) for v in values], lambda size, total: float(total)


def _additive_mean(values):
    scores, den = _numerators(values)
    return scores, lambda size, total: total / den / size


def sum_query() -> Query:
    return Query("sum", lambda values: math.fsum(values), monotone=True, additive=_additive_sum)


def count_query() -> Query:
    """Number of strictly positive values in the sample."""
    return Query(
        "count",
        lambda values: float(sum(1 for x in values if x > 0.0)),
        monotone=True,
        additive=_additive_count,
    )


def mean_query() -> Query:
    return Query(
        "mean",
        lambda values: math.fsum(values) / len(values),
        monotone=True,
        empty_answer=0.0,
        additive=_additive_mean,
    )


_QUERIES = {"sum": sum_query, "count": count_query, "mean": mean_query}


def query_by_name(name: str) -> Query:
    try:
        return _QUERIES[name]()
    except KeyError:
        raise ValueError(f"unknown query {name!r}; available: {sorted(_QUERIES)}") from None


class DatabaseModel(_Value):
    """Product distribution over independent entries with a shared outcome grid.

    `fixed` records positions already conditioned to a value. Those entries
    are one-hot pmfs on the common grid, so a conditioned model is still a
    pure product and all operations apply unchanged.
    """

    entries: tuple[Pmf, ...]
    fixed: tuple[tuple[int, float], ...]

    def __init__(self, entries: Sequence[Pmf], fixed: Iterable[tuple[int, float]] = ()):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a model needs at least one entry")
        grid = entries[0].outcomes
        # One C call with an identity fast path when every entry is one pmf.
        if entries.count(entries[0]) != len(entries):
            for e in entries[1:]:
                if e.outcomes != grid:
                    raise ValueError("all entries must share one outcome grid")
        fixed = tuple(sorted((int(j), float(w)) for j, w in fixed))
        self.__dict__.update(entries=entries, fixed=fixed)
        seen = set()
        for j, w in fixed:
            if not 1 <= j <= len(entries):
                raise ValueError(f"fixed position {j} out of range 1..{len(entries)}")
            if j in seen:
                raise ValueError(f"position {j} fixed twice")
            seen.add(j)
            if entries[j - 1].prob(w) != 1.0:
                raise ValueError(f"entry {j} is not concentrated on its fixed value {w}")

    def _key(self) -> tuple:  # spelled out: models key the oracle's caches
        return self.entries, self.fixed

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def outcome_grid(self) -> tuple[float, ...]:
        return self.entries[0].outcomes

    @cached_property
    def is_iid(self) -> bool:
        return not self.fixed and self.entries.count(self.entries[0]) == self.n

    def is_fixed(self, j: int) -> bool:
        return any(j == pos for pos, _ in self.fixed)

    @staticmethod
    def iid(entry: Pmf, n: int) -> "DatabaseModel":
        if n < 1:
            raise ValueError(f"need at least one entry, got n={n}")
        return DatabaseModel((entry,) * n)


def scan_positions(db: DatabaseModel, exchangeable: bool) -> tuple[int, ...]:
    """Positions a worst-pair scan must visit: every position not fixed, or
    with an exchangeable technique the first of each distinct entry pmf, as
    positions with one pmf are then alike."""
    if exchangeable and db.is_iid:
        return (1,)
    fixed = {j for j, _ in db.fixed}
    free = zip(range(1, db.n + 1), db.entries)
    if fixed:
        free = [(j, pmf) for j, pmf in free if j not in fixed]
    if not exchangeable:
        return tuple(j for j, _ in free)
    # A run of equal pmfs, as in a model built in blocks, is hashed once.
    runs = groupby(free, key=itemgetter(1))
    first = {pmf: j for j, pmf in reversed([next(run) for _, run in runs])}
    return tuple(sorted(first.values()))


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


def law_key(db: DatabaseModel, indices: Sequence[int]) -> tuple:
    """Hashable key of answer_law(db, indices, q) for every query q.
    answer_law enumerates from the key alone, so equal keys give
    bit-identical laws.

    Each distinct index is a slot: an entry pmf plus the number of times the
    sample repeats it. The key is the multiset of slots, as (pmf, repeat,
    slots) classes in a fixed order: largest class (most states) first, ties
    broken by repeat, slots and the pmf. On i.i.d. entries the templates
    (1, 2) and (1, 32) share a key, and so do (1, 2) and (2, 1) on any
    entries.
    """
    if indices:
        if min(indices) < 1:
            raise ValueError(f"indices are 1-based, got {min(indices)}")
        if max(indices) > db.n:
            raise ValueError(f"template index {max(indices)} exceeds model size {db.n}")
    entries = db.entries
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
    law_key(db, indices). A query sees only the multiset of the sample, so
    a class of c slots with equal (pmf, repeat) is enumerated as the count
    vectors over its support with multinomial weights; the answer comes
    from the summed count vector (Query.counts_answer).

    A state is one count vector per class; a class of c slots over k support
    points has C(c + k - 1, c) of them. Raises EnumerationBudgetError before
    enumerating when the product over classes exceeds `budget`, and
    ValueError when an answer overflows the float range. The law is built by
    answer_pmf, so answers merge only when they are the same float. An empty
    sample yields the query's declared empty answer. Past the budget check
    a law is looked up by (law_key, q) in one process-wide memo (see
    MEMO_OUTCOMES) and enumerated only when it is not there.
    """
    key = law_key(db, indices)
    if not indices:
        return Pmf.point(q.empty_answer)
    states = 1
    for pmf, _, c in key:
        states *= _class_states(pmf, c)
        if states > budget:
            raise EnumerationBudgetError(states, budget)
    law = _law_memo.get((key, q))
    if law is None:
        law = _enumerate_law(key, q)
        _remember((key, q), law)
    return law


# answer_law's memo: (law_key, query) -> law, oldest first, holding at most
# MEMO_OUTCOMES outcomes in all (_memo_outcomes); a larger law is not kept.
# Equal keys give bit-identical laws, so a hit is the law a rebuild gives.
MEMO_OUTCOMES = 1 << 15
_law_memo: dict[tuple, Pmf] = {}
_memo_outcomes = 0


def _remember(key: tuple, law: Pmf) -> None:
    global _memo_outcomes
    size = len(law.outcomes)
    if size <= MEMO_OUTCOMES:
        while _memo_outcomes + size > MEMO_OUTCOMES:
            _memo_outcomes -= len(_law_memo.pop(next(iter(_law_memo))).outcomes)
        _law_memo[key] = law
        _memo_outcomes += size


def _enumerate_law(key: tuple, q: Query) -> Pmf:
    """answer_law's multiset kernel on a nonempty law_key."""
    options = [_multiset_options(pmf, r, c) for pmf, r, c in key]
    join = _add_counts
    evaluate = q.counts_answer(key[0][0].outcomes)
    # The first class, the largest, is streamed; the option lists of the
    # others are kept. A sample is the summed count vector.
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
    """The law of q's answers from (answer, weight) pairs in any order, for
    the multiset kernel and sampled_pushforward: Pmf.from_pairs, so two
    answers merge exactly when q returns the same float for them, as in the
    lattice chain's runs. A weight that underflowed to 0 keeps its answer.
    An answer beyond the float range, raised while the pairs are produced,
    is a ValueError naming q.
    """
    try:
        return Pmf.from_pairs(pairs, drop_zero=False)
    except OverflowError:
        raise _overflow(q) from None


def lattice_laws(
    db: DatabaseModel, j: int, q: Query, budget: int = DEFAULT_BUDGET
) -> dict[float, Pmf] | None:
    """Value v -> law of q on db with entry j fixed to v, from lattice_chain
    (None when it is): the answers on the reachable cells shifted by v's
    step. As q is nondecreasing in the total, equal answers are adjacent
    runs and merge in total order: answer_law's outcomes, bit for bit."""
    chain = lattice_chain(db, j, q, budget)
    return None if chain is None else _chain_laws(db, chain)


def _chain_laws(db: DatabaseModel, chain) -> dict[float, Pmf]:
    """lattice_laws of a chain lattice_chain has built."""
    steps, weights, reachable, cells, answers = chain
    masses = [weights[i] for i in reachable]
    at = dict(zip(cells, answers))
    laws = ([at[s + i] for i in reachable] for s in steps)
    return {v: _run_law(a, masses) for v, a in zip(db.outcome_grid, laws)}


def lattice_chain(db: DatabaseModel, j: int, q: Query, budget: int = DEFAULT_BUDGET):
    """The lattice chain of an additive q (see Query) with entry j fixed:
    (steps, weights, reachable, cells, answers); None when q is not additive
    or the chain would build over `budget` cells, for answer_law to take over.

    Scores lie on a lattice of step g, the gcd of the grid's score
    differences; `steps` are the grid's scores in steps above the lowest.
    The m free entries (all but j) are convolved in floats one at a time,
    law(i) = law(i - 1) * entry i, on i * span + 1 cells, so
    span * m(m + 1)/2 + m cells in all: what `budget` counts. `weights` is
    the law divided by its fsum, so weights that sum to 1 only after
    rounding, such as (0.7, 0.3), do not drift. Fixing j to v shifts the
    `reachable` cells by v's step into `cells`, increasing, where `answers`
    are q's floats.

    Error: every term is nonnegative, so each mass is within (2km + 3)u
    relative of the exact law (the entries' weights divided by their
    rational sums), to first order in u = 2^-53, k the largest support of a
    free entry, plus km 2^-1074 per lattice cell from subnormal roundings.
    """
    if q.additive is None:
        return None
    scores, answer = q.additive(db.outcome_grid)
    low = min(scores)
    g = math.gcd(*(s - low for s in scores)) or 1
    steps = tuple((s - low) // g for s in scores)
    free = db.entries[: j - 1] + db.entries[j:]
    m = len(free)
    if max(steps) * (m * (m + 1) // 2) + m > budget:
        return None
    law, reach = _free_law(free, steps)
    # fsum rounds exactly, so order sets only its speed: a law's tail added from
    # the tiny end keeps a partial per binade (14 times slower at m = 1500).
    total = math.fsum(sorted(law, reverse=True))
    reachable = _set_bits(reach)
    cells = _set_bits(reduce(or_, [reach << s for s in steps]))
    base = (m + 1) * low  # the total score on cell c is base + g * c
    dense = isinstance(cells, range)
    totals = range(base, base + g * len(cells), g) if dense else [base + g * c for c in cells]
    try:
        answers = list(map(answer, repeat(m + 1), totals))
    except OverflowError:
        raise _overflow(q) from None
    return steps, [x / total for x in law], reachable, cells, answers


# The one law _free_law remembers: steps -> (entries, law, reachable cells).
_chain_memo: dict = {}


def _free_law(entries: tuple[Pmf, ...], steps: tuple[int, ...]):
    """The chain over `entries` before normalization, and its reachable
    cells as the set bits of an int. The last chain is kept: a request
    that appends entries to it extends it one step per entry, which gives
    bit for bit the law a rebuild from scratch would, so sizes 1, 2, 3, ...
    of one entry cost one step each and only one law is held."""
    done, law, reach = _chain_memo.get(steps, ((), [1.0], 1))
    if entries[: len(done)] != done:
        done, law, reach = (), [1.0], 1
    for entry in entries[len(done):]:
        law, reach = _step(law, reach, entry, steps)
    _chain_memo.clear()
    _chain_memo[steps] = entries, law, reach
    return law, reach


def _set_bits(x: int) -> Sequence[int]:
    """The positions of x's set bits, in increasing order."""
    if not x & (x + 1):  # all set, as for most chains
        return range(x.bit_length())
    return [i for i, bit in enumerate(bin(x)[:1:-1]) if bit == "1"]


def _step(law: list[float], reach: int, entry: Pmf, steps: tuple[int, ...]):
    """law * entry and its reachable cells: per support point of the
    entry, in grid order, its weight times the law shifted by its step."""
    size = len(law)
    out = [0.0] * (size + max(steps))
    (s, w), *rest = ((s, w) for s, w in zip(steps, entry.weights) if w > 0.0)
    out[s : s + size] = [w * x for x in law]
    grown = reach << s
    for s, w in rest:
        out[s : s + size] = [a + w * x for a, x in zip(out[s : s + size], law)]
        grown |= reach << s
    return out, grown


def _run_law(answers: list[float], weights: list[float]) -> Pmf:
    """The law of nondecreasing answers with their weights: equal answers
    are adjacent and merge, their weights summed by fsum."""
    if all(map(lt, answers, answers[1:])):
        return Pmf(answers, weights)
    outcomes, masses = [], []
    for a, run in groupby(zip(answers, weights), key=itemgetter(0)):
        outcomes.append(a)
        masses.append(math.fsum(w for _, w in run))
    return Pmf(outcomes, masses)


def _overflow(q: Query) -> ValueError:
    return ValueError(
        f"query {q.name!r} overflows: an answer on this model is beyond the float range"
    )


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

    This is answer_law on the template 1..n. A state is a multiset of entry
    values, C(n + k - 1, n) of them for n i.i.d. entries over k support
    points. Raises EnumerationBudgetError when the state count exceeds `budget`.
    """
    return answer_law(db, range(1, db.n + 1), q, budget)
