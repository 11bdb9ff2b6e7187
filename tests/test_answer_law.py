"""The answer-law kernels against independent references.

`pushforward` and `apply_template` share one kernel that enumerates multisets
with multinomial weights; `privacy_curve` builds the laws of additive queries
with the lattice chain `lattice_chain`. These tests check the multiset kernel
against a plain ordered enumeration written here, the chain against the
multiset kernel, and the weights of both against exact rational arithmetic.
Every answer is the float the query returns; two answers merge only when
equal.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv.amplify import dp_poisson_bound
from statpriv.dist import (
    DatabaseModel,
    Laws,
    Pmf,
    Query,
    WEIGHT_TOL,
    answer_law,
    binomial_pmf,
    condition,
    count_query,
    lattice_chain,
    law_key,
    mean_query,
    pushforward,
    sum_query,
)
from statpriv import dist
from statpriv.divergence import (
    PrivacyCurve,
    default_eps_grid,
    privacy_curve,
    worst_curve,
    worst_rows,
)
from statpriv.errors import EnumerationBudgetError
from statpriv.sampling import Template, apply_template

TOL = 1e-12

# Not additive: the kernel answers through Query.counts_answer's
# fallback, which rebuilds the sample from the counts.
MAX_QUERY = Query("max", max, monotone=True)
QUERIES = (sum_query(), count_query(), mean_query(), MAX_QUERY)


def ordered_law(db, indices, q):
    """Answer law by enumerating every ordered tuple of the drawn entries."""
    distinct = sorted(set(indices))
    supports = [
        [(a, w) for a, w in zip(db.entries[i - 1].outcomes, db.entries[i - 1].weights) if w > 0.0]
        for i in distinct
    ]
    acc = {}
    for combo in itertools.product(*supports):
        value = dict(zip(distinct, (a for a, _ in combo)))
        weight = math.prod(w for _, w in combo)
        a = q.answer(tuple(value[i] for i in indices))
        acc[a] = acc.get(a, 0.0) + weight
    return acc


def assert_same_law(got, want):
    assert set(got.as_dict) == set(want)
    for a, w in want.items():
        assert abs(got.prob(a) - w) <= TOL, (a, got.prob(a), w)


@st.composite
def models(draw, min_n=1, min_len=0):
    """Models of min_n-4 entries on 2-3 outcomes, with repeated entries and
    conditioned positions, plus a template of min_len-5 indices over them
    with repeats."""
    outcomes = sorted(
        draw(st.sets(st.sampled_from((-2.0, -1.0, 0.0, 0.5, 1.0, 3.0)), min_size=2, max_size=3))
    )

    def entry():
        raw = draw(st.lists(st.integers(0, 4), min_size=len(outcomes), max_size=len(outcomes)))
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        return Pmf(tuple(outcomes), tuple(r / total for r in raw))

    # Two candidate pmfs, so that equal entries (and merged classes) occur.
    pool = [entry(), entry()]
    n = draw(st.integers(min_n, 4))
    db = DatabaseModel(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    for j in draw(st.sets(st.integers(1, n), max_size=2)):
        db = condition(db, j, draw(st.sampled_from(outcomes)))
    indices = tuple(draw(st.lists(st.integers(1, n), min_size=min_len, max_size=5)))
    return db, indices


@settings(max_examples=300)
@given(models(), st.sampled_from(QUERIES))
def test_kernel_matches_ordered_enumeration(model, q):
    db, indices = model
    assert_same_law(apply_template(db, Template(indices), q), ordered_law(db, indices, q))
    assert_same_law(pushforward(db, q), ordered_law(db, tuple(range(1, db.n + 1)), q))


U = 2.0**-53


def chain_bound(db, j):
    """The lattice chain's error bound (see lattice_chain): relative and
    absolute parts for the laws of db with entry j fixed."""
    free = [e for i, e in enumerate(db.entries, 1) if i != j]
    k = max((len(e.support) for e in free), default=1)
    m = len(free)
    return (2 * k * m + 3) * U, k * m * 2.0**-1074


def assert_chain_matches_the_kernel(db, j, q):
    """Chain and multiset kernel on db with entry j fixed to each value: the
    same answer floats bit for bit, masses within the chain's bound (twice
    it, for the kernel's own roundoff and merges), and worst-pair curves
    within what those masses allow: delta(eps) moves by at most the mass
    errors of mu plus e^eps times those of nu, plus its own rounding."""
    laws = lattice_chain(db, j, q)
    chain = laws.pmfs()
    kernel = {w: pushforward(condition(db, j, w), q) for w in db.outcome_grid}
    assert chain.keys() == kernel.keys()
    rel, floor = chain_bound(db, j)
    for w, law in kernel.items():
        assert [a.hex() for a in chain[w].outcomes] == [a.hex() for a in law.outcomes]
        for got, want in zip(chain[w].weights, law.weights):
            assert abs(got - want) <= 2 * rel * want + floor, (w, got, want)
    grid = default_eps_grid()
    cells = max(len(law.outcomes) for law in kernel.values())
    for got, want in zip(worst_rows(laws, grid).values(), worst_rows(Laws(kernel), grid).values()):
        for eps, a, b in zip(grid, got, want):
            scale = 1.0 + math.exp(eps)
            assert abs(a - b) <= (2 * rel + cells * floor) * scale + 4 * U, (eps, a, b)


def test_mean_curve_beyond_ordered_enumeration_matches_the_kernel():
    # The chain builds the mean's laws over 1099 free entries; the multiset
    # kernel enumerates 1100 multisets per conditioned model where ordered
    # enumeration would need 2^1099 states. Its multinomial coefficients
    # exceed the float range.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 1100)
    grid = default_eps_grid()
    q = mean_query()
    mean = privacy_curve(db, q, grid)
    kernel = {w: pushforward(condition(db, 1, w), q) for w in db.outcome_grid}
    assert mean.values[0] > 0.01
    want = worst_curve(Laws(kernel), grid)
    assert max(abs(a - b) for a, b in zip(mean.values, want)) <= TOL
    assert_chain_matches_the_kernel(db, 1, q)


TWO_VALUED_OUTCOMES = (-2.5, -0.7, -0.3, -0.1, 0.0, 0.1, 0.2, 0.3, 1.0, 2.7)
# Three values whose scores share a small lattice; two values always do.
LATTICE_OUTCOMES = (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0)


@st.composite
def lattice_models(draw):
    """Models of 1-12 entries on two decimal or three lattice outcomes,
    i.i.d. or drawn from two pmfs, with the position to fix."""
    if draw(st.booleans()):
        outcomes = draw(st.lists(st.sampled_from(TWO_VALUED_OUTCOMES), min_size=2, max_size=2, unique=True))
    else:
        outcomes = draw(st.lists(st.sampled_from(LATTICE_OUTCOMES), min_size=3, max_size=3, unique=True))
    outcomes.sort()

    def entry():
        raw = draw(st.lists(st.sampled_from((0, 1, 3, 5, 7)), min_size=len(outcomes), max_size=len(outcomes)))
        if not any(raw):
            raw[0] = 1
        return Pmf(tuple(outcomes), tuple(r / sum(raw) for r in raw))

    pool = [entry(), entry()]
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        db = DatabaseModel.iid(pool[0], n)
    else:
        db = DatabaseModel(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    return db, draw(st.integers(1, n))


@settings(max_examples=300)
@given(lattice_models(), st.sampled_from((sum_query(), count_query(), mean_query())))
def test_lattice_chain_matches_the_kernel(model, q):
    db, j = model
    assert_chain_matches_the_kernel(db, j, q)


def test_lattice_chain_needs_an_additive_query_within_the_budget():
    three = DatabaseModel.iid(Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), 4)
    assert lattice_chain(three, 1, MAX_QUERY) is None
    # 3 free entries of span 2 build 2 * (1 + 2 + 3) + 3 = 15 cells.
    assert set(lattice_chain(three, 1, sum_query(), budget=15).pmfs()) == {0.0, 1.0, 2.0}
    assert lattice_chain(three, 1, sum_query(), budget=14) is None
    # Count scores 0, 1, 1: span 1 and 1 + 2 + 3 + 3 = 9 cells.
    assert lattice_chain(three, 1, count_query(), budget=9) is not None
    assert lattice_chain(three, 1, count_query(), budget=8) is None
    unlike = DatabaseModel((Pmf.bernoulli(0.3), Pmf.bernoulli(0.6)))
    assert lattice_chain(unlike, 2, sum_query()).pmfs()[1.0].as_dict == pytest.approx({1.0: 0.7, 2.0: 0.3})
    # Decimal scores with gcd 1 span about 7e15 lattice steps.
    decimal = DatabaseModel.iid(Pmf((0.1, 0.2, 0.3), (0.5, 0.25, 0.25)), 3)
    assert lattice_chain(decimal, 1, sum_query()) is None
    point = lattice_chain(DatabaseModel.iid(Pmf.point(2.0), 3), 1, mean_query())
    assert point.pmfs()[2.0] == Pmf.point(2.0)
    # With no free entry the shift by the values' steps builds span + 1
    # cells: 3 for three values, about 1.1e16 for 0, 0.1 and 0.3.
    one = DatabaseModel.iid(three.entries[0], 1)
    assert lattice_chain(one, 1, sum_query(), budget=3) is not None
    assert lattice_chain(one, 1, sum_query(), budget=2) is None
    assert lattice_chain(DatabaseModel.iid(Pmf.bernoulli(0.3), 1), 1, sum_query()) is not None
    wide = DatabaseModel.iid(Pmf((0.0, 0.1, 0.3), (0.2, 0.3, 0.5)), 1)
    assert lattice_chain(wide, 1, sum_query()) is None


def test_lattice_chain_leaves_a_sparse_lattice_to_the_multiset_kernel():
    # Steps 0, 1 and 2^18: the last step's 2^18 * m + 1 cells hold at most
    # C(m + 2, 2) reachable totals, 21 at m = 5 and 45 at m = 8.
    sparse = Pmf((99999999999.0, 100000000000.0000152587890625, 100000000003.0), (0.3, 0.3, 0.4))
    grid = (0.0, 0.5, 1.0)
    for n in (6, 9):
        db = DatabaseModel.iid(sparse, n)
        assert lattice_chain(db, 1, sum_query()) is None
        # The curve is the one a budget too small for the chain gives.
        want = privacy_curve(db, sum_query(), grid, budget=1000)
        assert privacy_curve(db, sum_query(), grid) == want
    # Dense lattices keep the chain, however long.
    assert lattice_chain(DatabaseModel.iid(Pmf.bernoulli(0.3), 4000), 1, sum_query()) is not None
    three = Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    assert lattice_chain(DatabaseModel.iid(three, 1000), 1, sum_query()) is not None


def test_lattice_chain_extends_its_last_law_bit_for_bit():
    # Sizes 1, 2, ... extend one chain by one entry each; the laws must be
    # the ones a rebuild from scratch gives, and only one law is held.
    entry = Pmf((0.0, 1.0, 3.0), (0.3, 0.6, 0.1))
    for q in (sum_query(), mean_query()):
        extended = [lattice_chain(DatabaseModel.iid(entry, m), 1, q).pmfs() for m in range(1, 40)]
        assert len(dist._chain_memo) == 1
        for m, laws in enumerate(extended, 1):
            dist._chain_memo.clear()
            rebuilt = lattice_chain(DatabaseModel.iid(entry, m), 1, q).pmfs()
            assert {w: bits(law) for w, law in laws.items()} == {w: bits(law) for w, law in rebuilt.items()}
    # a different entry, or fewer entries, starts again
    def laws(n):
        return lattice_chain(DatabaseModel.iid(Pmf.bernoulli(0.3), n), 1, sum_query()).pmfs()

    other = laws(5)
    dist._chain_memo.clear()
    assert other == laws(5)
    assert laws(3) == laws(3)


def exact_lattice_law(weights, m):
    """Exact law of the sum of m draws of values 0..k-1 with these float
    weights divided by their rational sum: integer coefficients of
    (sum of numerators x^i)^m over (sum of numerators)^m."""
    ratios = [w.as_integer_ratio() for w in weights]
    den = max(d for _, d in ratios)
    nums = [n * (den // d) for n, d in ratios]
    law = [1]
    for _ in range(m):
        out = [0] * (len(law) + len(nums) - 1)
        for i, c in enumerate(law):
            for s, w in enumerate(nums):
                out[i + s] += c * w
        law = out
    total = sum(nums) ** m
    return [Fraction(c, total) for c in law]


@pytest.mark.parametrize(
    "weights, m",
    [
        ((0.1, 0.9), 200),
        ((0.3, 0.7), 200),
        ((0.5, 0.5), 200),
        ((0.7, 0.3), 200),
        ((0.1, 0.9), 400),  # masses down to 1e-400: the subnormal floor
        ((0.1, 0.3, 0.6), 200),
        ((0.7, 0.2, 0.1), 200),
        ((0.25, 0.5, 0.25), 200),
        ((0.125, 0.375, 0.5), 150),
    ],
)
def test_lattice_chain_is_within_its_stated_bound_of_the_exact_law(weights, m):
    # Values 0..k-1: each total is one sum, so each mass is one lattice cell.
    entry = Pmf(tuple(map(float, range(len(weights)))), weights)
    db = DatabaseModel.iid(entry, m + 1)
    law = lattice_chain(db, 1, sum_query()).pmfs()[0.0]
    rel, floor = chain_bound(db, 1)
    exact = exact_lattice_law(weights, m)
    assert len(law.outcomes) == len(exact)
    for got, want in zip(law.weights, exact):
        assert abs(Fraction(got) - want) <= rel * want + Fraction(floor), (got, float(want))


@pytest.mark.parametrize("weights", [(0.7, 0.3), (0.1, 0.9)])
def test_lattice_chain_normalizes_weights_that_sum_to_one_only_after_rounding(weights):
    # (0.7, 0.3) sums to 1 - 2^-54 as rationals and (0.1, 0.9) to 1 + 2^-55:
    # undivided, 20000 draws of the first drift by 1.1e-12, past WEIGHT_TOL,
    # and the chain would build 2e8 cells. Lowering the second weight by
    # 2^-44 makes the drift about 2^-44 per draw, so 41 entries (40 free)
    # drift 2.3e-12 undivided; (0.5, 0.5 - 2^-43) does so in 20 draws.
    for entry, n in (
        (Pmf((0.0, 1.0), (weights[0], weights[1] - 2.0**-44)), 41),
        (Pmf((0.0, 1.0), (0.5, 0.5 - 2.0**-43)), 21),
    ):
        for q in (sum_query(), count_query(), mean_query()):
            for law in lattice_chain(DatabaseModel.iid(entry, n), 1, q).pmfs().values():
                assert abs(math.fsum(law.weights) - 1.0) <= WEIGHT_TOL / 10


@st.composite
def lattice_values(draw):
    """2-3 integer or decimal values, each optionally shifted by about 1e11,
    with positive dyadic weights."""
    base = draw(st.sets(st.sampled_from((0, 1, 2, 5, 0.1, 0.2, 0.3, 0.5, 2.7, -0.7, -3)), min_size=2, max_size=3))
    shift = draw(st.sampled_from((0.0, 1e11, 1e11 + 1, 123456789012.5)))
    values = sorted({float(v) + shift for v in base})
    weights = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(values), max_size=len(values)))
    return Pmf(tuple(values), tuple(w / sum(weights) for w in weights))


@settings(max_examples=200)
@given(lattice_values(), st.integers(1, 6), st.sampled_from((sum_query(), count_query(), mean_query())))
def test_every_count_vector_with_one_lattice_total_gives_the_chains_float(entry, m, q):
    # The declaration answers from (size, total score); the released query
    # answers the sample. Every sample with one total must give one float,
    # and the chain's law of m free draws plus a fixed value has exactly
    # those floats as outcomes when it fits the budget. The declared unit
    # is the exact answer's change per score: exact for sum and count, and
    # for mean as rounded once.
    values = entry.outcomes
    scores, _, unit = q.additive(values)
    chain = lattice_chain(DatabaseModel.iid(entry, m + 1), 1, q, budget=10**6)
    laws = chain and chain.pmfs()
    exact = {
        "sum": lambda sample: sum(map(Fraction, sample)),
        "count": lambda sample: Fraction(sum(x > 0.0 for x in sample)),
        "mean": lambda sample: sum(map(Fraction, sample)) / len(sample),
    }[q.name]
    first = None
    for v in values:
        by_total = {}
        for combo in itertools.combinations_with_replacement(range(len(values)), m):
            sample = (v, *(values[i] for i in combo))
            total = scores[values.index(v)] + sum(scores[i] for i in combo)
            by_total.setdefault(total, set()).add(q.answer(sample))
            first = first or (total, exact(sample))
            step = (exact(sample) - first[1]) - (total - first[0]) * Fraction(unit(m + 1))
            assert abs(step) <= (abs(exact(sample) - first[1]) * 2**-52 if q.name == "mean" else 0)
        assert all(len(answers) == 1 for answers in by_total.values()), by_total
        if laws is not None:
            assert set(laws[v].outcomes) == {a for (a,) in by_total.values()}


@st.composite
def shifted_models(draw, power_of_two):
    """An integer-valued entry, n and an integer shift c up to 1e15 with
    n * (c + max outcome) below 2^53, so every sum is an exact float."""
    outcomes = sorted(draw(st.sets(st.integers(0, 6), min_size=2, max_size=3)))
    raw = draw(st.lists(st.integers(1, 4), min_size=len(outcomes), max_size=len(outcomes)))
    entry = Pmf(tuple(map(float, outcomes)), tuple(r / sum(raw) for r in raw))
    n = draw(st.sampled_from((1, 2, 4, 8))) if power_of_two else draw(st.integers(1, 8))
    # every magnitude of c equally often, not mostly small shifts
    size = 10 ** draw(st.sampled_from(range(16)))
    c = min(draw(st.integers(size // 10, size)), (2**53 - 1) // n - outcomes[-1])
    shifted = Pmf(tuple(float(a + c) for a in outcomes), entry.weights)
    return DatabaseModel.iid(entry, n), DatabaseModel.iid(shifted, n)


@settings(max_examples=150)
@given(st.data(), st.sampled_from((sum_query(), mean_query())))
def test_privacy_curve_is_invariant_under_an_integer_shift(data, q):
    # Adding c to every outcome is a bijection on exact sums and, for n a
    # power of two, on exact means: the released answers are relabelled, so
    # the curve must not move by a bit. Merging answers that agree to 12
    # digits fails this from c near 1e11.
    db, shifted = data.draw(shifted_models(power_of_two=q.name == "mean"))
    grid = default_eps_grid()
    assert privacy_curve(shifted, q, grid).values == privacy_curve(db, q, grid).values


def exact_multinomial(counts, probs):
    """Probability of the counts under probs divided exactly by their sum:
    float probabilities such as (0.7, 0.3) sum to 1 only after rounding."""
    coef = math.factorial(sum(counts))
    for c in counts:
        coef //= math.factorial(c)
    total = sum(map(Fraction, probs))
    weight = Fraction(coef)
    for p, c in zip(probs, counts):
        weight *= (Fraction(p) / total) ** c
    return weight


def assert_exact_to_roundoff(got, want, what):
    assert abs(Fraction(got) - want) <= 1e-14 * want, (what, got, float(want))


def test_multiset_weights_are_exact_to_roundoff():
    # On outcomes 0, 1, 64 the sum of 40 draws identifies the count vector.
    e = Pmf((0.0, 1.0, 64.0), (0.2, 0.5, 0.3))
    law = pushforward(DatabaseModel.iid(e, 40), sum_query())
    assert len(law.outcomes) == math.comb(42, 2)
    for a, w in zip(law.outcomes, law.weights):
        high, ones = divmod(int(a), 64)
        counts = (40 - high - ones, ones, high)
        assert_exact_to_roundoff(w, exact_multinomial(counts, e.weights), counts)
    # 1200 draws of two values: coefficients far beyond the float range.
    b = Pmf.bernoulli(0.3)
    law = pushforward(DatabaseModel.iid(b, 1200), count_query())
    assert len(law.outcomes) == 1201
    for m in (0, 1, 360, 600, 900):
        want = exact_multinomial((1200 - m, m), b.weights)
        assert_exact_to_roundoff(law.prob(float(m)), want, m)


def test_binomial_pmf_is_exact_to_roundoff_at_any_n():
    assert binomial_pmf(0, 0.3) == [1.0]
    assert binomial_pmf(1, 0.25) == [0.75, 0.25]
    assert binomial_pmf(2, 0.5) == [0.25, 0.5, 0.25]
    for n, p, ms in (
        (150, 0.3, (0, 45, 150)),
        (1100, 0.5, (100, 550, 1000)),  # coefficient near 2^1096
        (5000, 0.01, (0, 50, 300)),  # powers below the float range
        (50000, 0.5, (24000, 25000)),  # 50000 recurrence steps
    ):
        got = binomial_pmf(n, p)
        assert len(got) == n + 1
        for m in ms:
            want = exact_multinomial((m, n - m), (p, 1.0 - p))
            assert_exact_to_roundoff(got[m], want, (n, p, m))
    # a weight below the float range rounds to 0 instead of raising
    assert binomial_pmf(5000, 0.01)[5000] == 0.0


def test_entry_weights_that_sum_to_one_only_after_rounding_do_not_drift():
    # bern(0.3) stores (0.7, 0.3), 1 - 2^-54 as rationals; 20000 draws of the
    # undivided weights total 1 - 1.1e-12, which Pmf refuses. The lattice
    # chain would build 2e8 cells here, over the default budget, so count
    # and mean both take the multiset kernel.
    db = DatabaseModel.iid(Pmf.bernoulli(0.3), 20000)
    grid = (0.0, 0.05, 0.5)
    count = privacy_curve(db, count_query(), grid)
    mean = privacy_curve(db, mean_query(), grid)
    assert count.values[0] > 0.005
    assert max(abs(a - b) for a, b in zip(mean.values, count.values)) <= TOL
    assert abs(math.fsum(binomial_pmf(20000, 0.3)) - 1.0) <= 1e-15
    assert abs(math.fsum(pushforward(db, mean_query()).weights) - 1.0) <= 1e-15


def test_binomial_pmf_sums_to_one_beyond_float_coefficients():
    for n, p in ((1100, 0.5), (2000, 0.01), (1031, 0.3)):
        assert abs(math.fsum(binomial_pmf(n, p)) - 1.0) <= 1e-13
    ws = binomial_pmf(1100, 0.5)
    assert len(ws) == 1101
    assert abs(math.fsum(ws) - 1.0) <= 1e-13


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            st.integers(1, 50),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda vc: vc[0],
    ),
    st.sampled_from((sum_query(), count_query(), mean_query())),
)
def test_answer_from_counts_equals_answer_on_the_sample(pairs, q):
    pairs.sort()
    values = tuple(v + 0.0 for v, _ in pairs)
    counts = tuple(c for _, c in pairs)
    sample = tuple(v for v, c in zip(values, counts) for _ in range(c))
    assert q.counts_answer(values)(counts) == q.answer(sample)


def test_symmetric_kernel_answers_from_counts():
    # sum, count and mean never see the sample tuple inside the kernel, so a
    # state costs time in the support size, not in the sample size.
    def refuse(values):
        raise AssertionError("the kernel built a sample tuple")

    db = condition(DatabaseModel.iid(Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), 6), 2, 1.0)
    for q in (sum_query(), count_query(), mean_query()):
        blind = Query(q.name, refuse, q.monotone, q.empty_answer, q.additive)
        assert pushforward(db, blind) == pushforward(db, q)
        assert apply_template(db, Template((1, 2, 2, 5)), blind) == apply_template(
            db, Template((1, 2, 2, 5)), q
        )


def test_dp_poisson_bound_beyond_float_coefficients():
    # Every size's stretch of eps 0.5, up to 6.57 at m = 1, lies on the grid.
    curve = PrivacyCurve((0.0, 1.0, 2.0, 8.0), (0.5, 0.2, 0.1, 0.0))
    (got,) = dp_poisson_bound(curve, 1100, 0.5, (0.5,)).values
    assert 0.0 < got <= 0.5


def bits(law):
    return [(a.hex(), w.hex()) for a, w in zip(law.outcomes, law.weights)]


def enumerated(db, indices, q):
    """answer_law's law built anew from the template's key, past the memo."""
    key = law_key(db, indices)
    return dist._enumerate_law(key, q) if key else answer_law(db, indices, q)


@st.composite
def template_pairs(draw):
    """A model and a template as in models(), plus a second template: the
    first with its positions permuted among equal entries (reordered or
    not), flagged as the same law, or a fresh one."""
    db, indices = draw(models(min_n=2, min_len=2))
    if draw(st.booleans()):
        # permute positions within each group of equal entries
        target = {}
        for k in range(1, db.n + 1):
            alike = [i for i in range(1, db.n + 1) if db.entries[i - 1] == db.entries[k - 1]]
            if k == alike[0]:
                target.update(zip(alike, draw(st.permutations(alike))))
        other = tuple(target[i] for i in indices)
        if draw(st.booleans()):
            other = tuple(draw(st.permutations(other)))
        return db, indices, other, True
    return db, indices, tuple(draw(st.lists(st.integers(1, db.n), max_size=5))), False


@settings(max_examples=300)
@given(template_pairs(), st.sampled_from(QUERIES))
def test_equal_law_keys_give_bit_identical_laws(pair, q):
    db, a, b, alike = pair
    key_a, key_b = law_key(db, a), law_key(db, b)
    if alike or sorted(a) == sorted(b):
        # the same law by definition, so the key must be shared
        assert key_a == key_b
    if key_a == key_b:
        assert bits(answer_law(db, a, q)) == bits(enumerated(db, b, q))


def test_law_key_shares_positions_with_equal_entries():
    iid = DatabaseModel.iid(Pmf.bernoulli(0.3), 32)
    assert law_key(iid, (1, 2)) == law_key(iid, (1, 32))
    assert law_key(iid, (1, 2)) != law_key(iid, (1, 1))
    # not i.i.d.: the key is the multiset of slots, so the order is dropped
    db = DatabaseModel((Pmf.bernoulli(0.3), Pmf.bernoulli(0.6)))
    assert law_key(db, (1, 2)) == law_key(db, (2, 1))
    with pytest.raises(ValueError, match="exceeds model size"):
        law_key(db, (1, 3))
    # Three classes tie on their state count; summed in the order the
    # template lists them, these two laws differ in the last bit.
    e, f = Pmf((0.0, 0.5, 1.0), (0.375, 0.375, 0.25)), Pmf((0.0, 0.5, 1.0), (0.0, 4 / 7, 3 / 7))
    db = DatabaseModel((e, e, f))
    a, b = (3, 3, 1, 1, 2), (2, 1, 1, 3, 3)
    assert law_key(db, a) == law_key(db, b)
    for q in (sum_query(), mean_query()):
        assert bits(answer_law(db, a, q)) == bits(enumerated(db, b, q))


@pytest.mark.parametrize(
    "q, indices",
    [(mean_query(), (1, 2, 3)), (sum_query(), (1, 2)), (sum_query(), (1, 1, 2))],
)
def test_an_answer_beyond_the_float_range_is_a_value_error_naming_the_query(q, indices):
    db = DatabaseModel.iid(Pmf((0.0, 1e308), (0.5, 0.5)), 3)
    with pytest.raises(ValueError, match=f"query '{q.name}' overflows"):
        answer_law(db, indices, q)


@settings(max_examples=200)
@given(models(), st.sampled_from(QUERIES))
def test_a_memoized_law_is_a_fresh_enumeration_bit_for_bit(model, q):
    db, indices = model
    law = answer_law(db, indices, q)
    again = answer_law(db, indices, q)
    if indices:
        assert again is law  # held: these laws are far below the bound
        assert dist._law_memo[law_key(db, indices), q] is law
    assert bits(again) == bits(enumerated(db, indices, q))


def test_equal_keys_share_one_memo_entry_across_models(empty_law_memo):
    q = sum_query()
    law = answer_law(DatabaseModel.iid(Pmf.bernoulli(0.3), 32), (1, 2), q)
    assert answer_law(DatabaseModel.iid(Pmf.bernoulli(0.3), 3), (3, 1), q) is law
    assert len(empty_law_memo) == 1


def test_a_negative_zero_outcome_is_zero_so_equal_keys_are_one_law(empty_law_memo):
    # -0.0 == 0.0, so the two grids give equal keys; a query that tells the
    # signs apart must still see the same sample on both.
    sign = Query("sign", lambda values: math.copysign(1.0, values[0]), monotone=False)
    laws = [
        answer_law(DatabaseModel.iid(Pmf((zero, 1.0), (0.5, 0.5)), 2), (1,), sign)
        for zero in (-0.0, 0.0)
    ]
    assert laws[0] is laws[1]
    assert laws[0].outcomes == (1.0,)


def test_a_smaller_budget_still_raises_when_the_memo_holds_the_law(empty_law_memo):
    db = DatabaseModel.iid(Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), 4)
    q = sum_query()
    law = pushforward(db, q)  # C(6, 2) = 15 states
    assert (law_key(db, range(1, 5)), q) in empty_law_memo
    with pytest.raises(EnumerationBudgetError) as err:
        pushforward(db, q, budget=14)
    assert (err.value.states, err.value.budget) == (15, 14)
    assert pushforward(db, q, budget=15) is law


def test_queries_never_share_a_memo_entry(empty_law_memo):
    # Queries compare by identity: two sum queries are two entries, and a
    # query named "sum" that answers otherwise does not see their law.
    db = DatabaseModel.iid(Pmf((0.0, 0.5, 1.0), (0.25, 0.5, 0.25)), 3)
    total, count, other = sum_query(), count_query(), sum_query()
    impostor = Query("sum", max, monotone=True)
    laws = [answer_law(db, (1, 2), q) for q in (total, count, other, impostor)]
    assert len(empty_law_memo) == 4
    assert laws[0].outcomes == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert laws[1].outcomes == (0.0, 1.0, 2.0)
    assert laws[2] is not laws[0] and bits(laws[2]) == bits(laws[0])
    assert laws[3].outcomes == (0.0, 0.5, 1.0)


def test_the_memo_holds_at_most_its_bound_oldest_first(monkeypatch, empty_law_memo):
    monkeypatch.setattr(dist, "MEMO_OUTCOMES", 10)
    q = sum_query()
    entry = Pmf.bernoulli(0.5)

    def held():
        sizes = [len(law.outcomes) for law in empty_law_memo.values()]
        assert dist._memo_outcomes == sum(sizes) <= 10
        return sizes

    for n in (1, 2, 3):  # laws of n + 1 outcomes
        pushforward(DatabaseModel.iid(entry, n), q)
    assert held() == [2, 3, 4]
    pushforward(DatabaseModel.iid(entry, 4), q)
    assert held() == [4, 5]  # the oldest two made room
    big = pushforward(DatabaseModel.iid(entry, 10), q)
    assert len(big.outcomes) == 11 and held() == [4, 5]  # returned, not kept
    for n in range(1, 13):
        pushforward(DatabaseModel.iid(entry, n), q)
        held()
