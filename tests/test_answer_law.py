"""The answer-law kernel against independent references.

`pushforward` and `apply_template` share one kernel that enumerates multisets
with multinomial weights for symmetric queries. These tests check it against
a plain ordered enumeration written here, against the Binomial fast path of
`privacy_curve`, and its weights against exact rational arithmetic.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv.amplify import dp_poisson_bound, occurrence_weights
from statpriv.dist import (
    DatabaseModel,
    Pmf,
    Query,
    binomial_pmf,
    condition,
    count_query,
    mean_query,
    pushforward,
    round_significant,
    sum_query,
)
from statpriv.divergence import PrivacyCurve, default_eps_grid, privacy_curve
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
        a = round_significant(q.answer(tuple(value[i] for i in indices)))
        acc[a] = acc.get(a, 0.0) + weight
    return acc


def assert_same_law(got, want):
    assert set(got.as_dict) == set(want)
    for a, w in want.items():
        assert abs(got.prob(a) - w) <= TOL, (a, got.prob(a), w)


@st.composite
def models(draw):
    """Models of 1-4 entries on 2-3 outcomes, with repeated entries and
    conditioned positions, plus a template over them with repeats."""
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
    n = draw(st.integers(1, 4))
    db = DatabaseModel(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    for j in draw(st.sets(st.integers(1, n), max_size=2)):
        db = condition(db, j, draw(st.sampled_from(outcomes)))
    indices = tuple(draw(st.lists(st.integers(1, n), max_size=5)))
    return db, indices


@settings(max_examples=300)
@given(models(), st.sampled_from(QUERIES))
def test_kernel_matches_ordered_enumeration(model, q):
    db, indices = model
    assert_same_law(apply_template(db, Template(indices), q), ordered_law(db, indices, q))
    assert_same_law(pushforward(db, q), ordered_law(db, tuple(range(1, db.n + 1)), q))


def test_mean_curve_beyond_ordered_enumeration_matches_count_fast_path():
    # On 0/1 entries the mean is a bijective relabelling of the count, so the
    # two curves agree. The count takes the Binomial fast path; the mean
    # takes the kernel, 1100 multisets per conditioned model where ordered
    # enumeration would need 2^1099 states. Its multinomial coefficients
    # exceed the float range.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 1100)
    grid = default_eps_grid()
    mean = privacy_curve(db, mean_query(), grid)
    count = privacy_curve(db, count_query(), grid)
    assert mean.values[0] > 0.01
    assert max(abs(a - b) for a, b in zip(mean.values, count.values)) <= TOL


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
