"""The answer-law kernel against independent references.

`pushforward` and `apply_template` share one kernel that enumerates multisets
with multinomial weights for symmetric queries. These tests check it against
a plain ordered enumeration written here, against the Binomial fast path of
`privacy_curve`, and its weights against exact rational arithmetic. Every
answer is the float the query returns; two answers merge only when equal.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv.amplify import dp_poisson_bound, occurrence_weights
from statpriv.dist import (
    DatabaseModel,
    Pmf,
    Query,
    answer_law,
    binomial_laws,
    binomial_pmf,
    condition,
    count_query,
    law_key,
    mean_query,
    pushforward,
    sum_query,
)
from statpriv.divergence import PrivacyCurve, default_eps_grid, privacy_curve, worst_pairs
from statpriv.sampling import Template, apply_template

TOL = 1e-12

# Not symmetric: the position of every value in the sample matters.
POSITION_WEIGHTED_SUM = Query(
    "position-weighted-sum",
    lambda values: math.fsum((i + 1) * x for i, x in enumerate(values)),
    monotone=True,
    symmetric=False,
)
QUERIES = (sum_query(), count_query(), mean_query(), POSITION_WEIGHTED_SUM)


def ordered_law(db, indices, q):
    """Answer law by enumerating every ordered tuple of the drawn entries."""
    distinct = sorted(set(indices))
    supports = [
        [(a, w) for a, w in zip(db.entry(i).outcomes, db.entry(i).weights) if w > 0.0]
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


def test_mean_curve_beyond_ordered_enumeration_matches_the_kernel():
    # Mean takes the Binomial fast path on 0/1 entries; the kernel enumerates
    # 1100 multisets per conditioned model where ordered enumeration would
    # need 2^1099 states. Its multinomial coefficients exceed the float range.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 1100)
    grid = default_eps_grid()
    q = mean_query()
    mean = privacy_curve(db, q, grid)
    kernel = {w: pushforward(condition(db, 1, w), q) for w in db.outcome_grid}
    assert mean.values[0] > 0.01
    assert mean.values == tuple(max(col) for col in zip(*worst_pairs(kernel, grid).values()))


TWO_VALUED_OUTCOMES = (-2.5, -0.7, -0.3, -0.1, 0.0, 0.1, 0.2, 0.3, 1.0, 2.7)


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from(TWO_VALUED_OUTCOMES), min_size=2, max_size=2, unique=True),
    st.sampled_from((0.3, 0.5, 0.7)),
    st.integers(1, 12),
    st.sampled_from((sum_query(), count_query(), mean_query())),
)
def test_binomial_fast_path_equals_the_kernel_bit_for_bit(outcomes, p, n, q):
    # p goes to the first drawn outcome, the lower or the higher one; the
    # fast path must answer with the query's own floats, as the kernel does.
    first, second = outcomes
    db = DatabaseModel.iid(Pmf.from_pairs([(first, p), (second, 1.0 - p)]), n)
    grid = default_eps_grid()
    fast = binomial_laws(db, q)
    kernel = {w: pushforward(condition(db, 1, w), q) for w in db.outcome_grid}
    assert worst_pairs(fast, grid) == worst_pairs(kernel, grid)
    assert {w: bits(law) for w, law in fast.items()} == {w: bits(law) for w, law in kernel.items()}


def test_binomial_fast_path_needs_two_values_iid_and_a_symmetric_query():
    assert binomial_laws(DatabaseModel.iid(Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), 3), sum_query()) is None
    assert binomial_laws(DatabaseModel((Pmf.bernoulli(0.3), Pmf.bernoulli(0.6))), sum_query()) is None
    assert binomial_laws(DatabaseModel.iid(Pmf.bernoulli(0.3), 3), POSITION_WEIGHTED_SUM) is None
    assert set(binomial_laws(DatabaseModel.iid(Pmf.bernoulli(0.3), 3), mean_query())) == {0.0, 1.0}


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
    # undivided weights total 1 - 1.1e-12, which Pmf refuses. The count takes
    # the Binomial fast path, the mean the multiset kernel.
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
    ws = occurrence_weights(2, 1100)
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
        blind = dataclasses.replace(q, evaluator=refuse)
        assert pushforward(db, blind) == pushforward(db, q)
        assert apply_template(db, Template((1, 2, 2, 5)), blind) == apply_template(
            db, Template((1, 2, 2, 5)), q
        )


def test_dp_poisson_bound_beyond_float_coefficients():
    curve = PrivacyCurve((0.0, 1.0, 2.0), (0.5, 0.2, 0.1))
    got = dp_poisson_bound(curve, 1100, 0.5, 0.5, extrapolate=True)
    assert 0.0 < got <= 0.5


def bits(law):
    return [(a.hex(), w.hex()) for a, w in zip(law.outcomes, law.weights)]


@st.composite
def template_pairs(draw):
    """A model and a template as in models(), plus a second template: the
    first with its positions permuted among equal entries (reordered or
    not), or a fresh one."""
    db, indices = draw(models(min_n=2, min_len=2))
    if draw(st.booleans()):
        # permute positions within each group of equal entries
        target = {}
        for k in range(1, db.n + 1):
            alike = [i for i in range(1, db.n + 1) if db.entry(i) == db.entry(k)]
            if k == alike[0]:
                target.update(zip(alike, draw(st.permutations(alike))))
        other = tuple(target[i] for i in indices)
        if draw(st.booleans()):
            return db, indices, tuple(draw(st.permutations(other))), False
        return db, indices, other, True
    return db, indices, tuple(draw(st.lists(st.integers(1, db.n), max_size=5))), False


@settings(max_examples=300)
@given(template_pairs(), st.sampled_from(QUERIES))
def test_equal_law_keys_give_bit_identical_laws(pair, q):
    db, a, b, order_kept = pair
    key_a, key_b = law_key(db, a, q), law_key(db, b, q)
    if order_kept or (q.symmetric and sorted(a) == sorted(b)):
        # the same law by definition, so the key must be shared
        assert key_a == key_b
    if key_a == key_b:
        assert bits(answer_law(db, a, q)) == bits(answer_law(db, b, q))


def test_law_key_shares_positions_with_equal_entries_and_keeps_order_when_it_matters():
    iid = DatabaseModel.iid(Pmf.bernoulli(0.3), 32)
    assert law_key(iid, (1, 2), sum_query()) == law_key(iid, (1, 32), sum_query())
    assert law_key(iid, (1, 2), sum_query()) != law_key(iid, (1, 1), sum_query())
    assert law_key(iid, (1, 2), POSITION_WEIGHTED_SUM) == law_key(iid, (2, 1), POSITION_WEIGHTED_SUM)
    # not i.i.d.: the position-weighted sum tells (1, 2) from (2, 1)
    db = DatabaseModel((Pmf.bernoulli(0.3), Pmf.bernoulli(0.6)))
    q = POSITION_WEIGHTED_SUM
    assert law_key(db, (1, 2), q) != law_key(db, (2, 1), q)
    assert answer_law(db, (1, 2), q) != answer_law(db, (2, 1), q)
    assert law_key(db, (1, 2), sum_query()) == law_key(db, (2, 1), sum_query())
    with pytest.raises(ValueError, match="exceeds model size"):
        law_key(db, (1, 3), q)
    # Three classes tie on their state count; summed in the order the
    # template lists them, these two laws differ in the last bit.
    e, f = Pmf((0.0, 0.5, 1.0), (0.375, 0.375, 0.25)), Pmf((0.0, 0.5, 1.0), (0.0, 4 / 7, 3 / 7))
    db = DatabaseModel((e, e, f))
    a, b = (3, 3, 1, 1, 2), (2, 1, 1, 3, 3)
    for q in (sum_query(), mean_query()):
        assert law_key(db, a, q) == law_key(db, b, q)
        assert bits(answer_law(db, a, q)) == bits(answer_law(db, b, q))


@pytest.mark.parametrize(
    "q, indices",
    [(mean_query(), (1, 2, 3)), (sum_query(), (1, 2)), (sum_query(), (1, 1, 2))],
)
def test_an_answer_beyond_the_float_range_is_a_value_error_naming_the_query(q, indices):
    db = DatabaseModel.iid(Pmf((0.0, 1e308), (0.5, 0.5)), 3)
    with pytest.raises(ValueError, match=f"query '{q.name}' overflows"):
        answer_law(db, indices, q)
