"""Amplification bounds, the samplability gate, and the DP-style helpers."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv.amplify import (
    NEGLIGIBLE_SIZE_WEIGHT,
    dp_subsample,
    poisson_bound,
    viability_ratio,
    with_replacement_bound,
    without_replacement_bound,
)
import statpriv.amplify
import statpriv.dist
import statpriv.sampling
from statpriv.dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    binomial_pmf,
    condition,
    count_query,
    mean_query,
    scan_positions,
    sum_query,
)
from statpriv.divergence import PrivacyCurve, as_grid, privacy_curve
from statpriv.errors import NotSamplableError
from statpriv.oracle import brute_force_divergence
from statpriv.sampling import TemplateDistribution, sampling_curve

TOL = 1e-12
DOM_TOL = 1e-10
LN2 = math.log(2.0)


def stretch(eps, factor):
    """The eps stretch log(1 + factor (e^eps - 1)) written out; factor 1
    leaves eps as it is."""
    return eps if factor == 1.0 else math.log1p(factor * math.expm1(eps))


def test_without_replacement_two_of_one():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    c = without_replacement_bound(db, sum_query(), 1, (0.0, LN2))
    assert c == PrivacyCurve((0.0, math.log(1.5)), (0.5, 0.5))


def test_without_replacement_full_sample_passthrough():
    # m = n: no amplification, eps' = eps and delta' = the model's own delta
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    c = without_replacement_bound(db, sum_query(), 2, (0.0, 0.5))
    assert c.grid == (0.0, 0.5)
    assert c.values[0] == 0.5


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_without_replacement_dominates_oracle(p, n, m):
    db = DatabaseModel.iid(Pmf.bernoulli(p), n)
    q = sum_query()
    tech = TemplateDistribution.without_replacement(n, m)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    c = without_replacement_bound(db, q, m, (0.0, 0.5, 1.0))
    for eps_prime, delta_prime in zip(c.grid, c.values):
        direct = max(
            brute_force_divergence(hi, lo, tech, q, eps_prime),
            brute_force_divergence(lo, hi, tech, q, eps_prime),
        )
        assert direct <= delta_prime + DOM_TOL


def test_poisson_bound_known_point():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    c = poisson_bound(db, sum_query(), 0.5, (0.0, 0.5))
    assert c.grid == (0.0, 0.5)
    assert abs(c.values[0] - 0.375) <= TOL
    tech = TemplateDistribution.poisson(2, 0.5)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    direct = brute_force_divergence(hi, lo, tech, sum_query(), 0.0)
    assert abs(direct - 0.375) <= TOL  # tight at eps 0 for this model


# The benchmark's poisson-large grid: 0, then 0.05 i + 0.0125 for i = 1..60.
SHIFTED_GRID = (0.0,) + tuple(round(0.05 * i + 0.0125, 10) for i in range(1, 61))


def bits(values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("n, rate, sizes", [(1000, 0.1, 229), (40, 1.0, 1)])
def test_poisson_sweep_stretches_each_size_bit_for_bit(monkeypatch, n, rate, sizes):
    # Each evaluated size m gets stretch(e, n / m) per eps, bit for bit,
    # from one privacy_curve call, on a slice of the grid that shrinks from
    # either end: at n = 1000, rate 0.1 the sweep evaluates 229 of the 596
    # sizes of nonzero weight. Each ceiling scans the chain of the size
    # just evaluated at the stretch of 596, the largest size of nonzero
    # weight. At rate 1 only m = n is evaluated and its grid is the input
    # grid unchanged.
    seen, curves, log = [], [], []
    sampled, curve = statpriv.amplify._sampled_curve_values, statpriv.amplify.privacy_curve
    scan = statpriv.amplify.cell_curve

    def record(db, q, m, grid, budget):
        seen.append((m, grid))
        log.append(m)
        return sampled(db, q, m, grid, budget)

    def counted(*args):
        curves.append(args[0].n)
        return curve(*args)

    def ceiling(chain, grid):  # bern(0.5) count: size m has m cells
        log.append((len(chain.weights), grid))
        return scan(chain, grid)

    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", record)
    monkeypatch.setattr(statpriv.amplify, "privacy_curve", counted)
    monkeypatch.setattr(statpriv.amplify, "cell_curve", ceiling)
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    poisson_bound(db, count_query(), rate, SHIFTED_GRID)
    assert len(seen) == sizes
    assert curves == [m for m, _ in seen]
    lo, hi = 0, len(SHIFTED_GRID)
    for m, grid in seen:
        full = [stretch(e, n / m) for e in SHIFTED_GRID]
        start = full.index(grid[0])
        assert lo <= start and start + len(grid) <= hi, m
        lo, hi = start, start + len(grid)
        assert bits(grid) == bits(full[lo:hi]), m
    top = {float.hex(stretch(e, n / 596)) for e in SHIFTED_GRID}
    ceilings = [(i, entry) for i, entry in enumerate(log) if isinstance(entry, tuple)]
    for i, (m, grid) in ceilings:
        assert [e for e in log[:i] if not isinstance(e, tuple)][-1] == m
        assert set(bits(grid)) <= top
    if rate == 1.0:
        assert seen == [(n, SHIFTED_GRID)] and not ceilings
    else:
        assert 0 < len(ceilings) < 60


def weight_rule(n, rate):
    """size -> weight times m/n for the sizes of weight at least
    NEGLIGIBLE_SIZE_WEIGHT, and the fsum of it over the lighter sizes: the
    weight charge."""
    weights = binomial_pmf(n, rate)
    factors = {m: weights[m] * m / n for m in range(1, n + 1)}
    kept = {m: f for m, f in factors.items() if weights[m] >= NEGLIGIBLE_SIZE_WEIGHT}
    return kept, math.fsum(f for m, f in factors.items() if m not in kept)


def reference_poisson(entry, q, n, rate, grid):
    """poisson_bound with nothing charged: privacy_curve on every size of
    nonzero weight, on its whole stretched grid, summed per eps by fsum."""
    weights = binomial_pmf(n, rate)
    terms = [[] for _ in grid]
    for m in range(1, n + 1):
        if weights[m] > 0.0:
            stretched = tuple(stretch(e, n / m) for e in grid)
            for ts, v in zip(terms, privacy_curve(DatabaseModel.iid(entry, m), q, stretched).values):
                ts.append(weights[m] * m / n * v)
    return tuple(min(1.0, math.fsum(ts)) for ts in terms)


@pytest.mark.parametrize(
    "entry, q, n, rate, grid",
    [
        (Pmf.bernoulli(0.5), count_query(), 1000, 0.1, SHIFTED_GRID),
        (Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), sum_query(), 300, 0.1, None),
        (Pmf.bernoulli(0.3), mean_query(), 300, 0.2, None),
    ],
    ids=["bern-count-1000", "three-valued-sum-300", "bern-mean-300"],
)
def test_share_rule_leaves_poisson_bound_bit_for_bit(monkeypatch, entry, q, n, rate, grid):
    # The share rule skips sizes (fewer are evaluated than the reference's),
    # yet every value is bit for bit the reference's.
    evaluated = []
    sampled = statpriv.amplify._sampled_curve_values

    def record(db, q, m, grid, budget):
        evaluated.append(m)
        return sampled(db, q, m, grid, budget)

    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", record)
    got = poisson_bound(DatabaseModel.iid(entry, n), q, rate, grid).values
    want = reference_poisson(entry, q, n, rate, as_grid(grid))
    assert bits(got) == bits(want)
    assert len(evaluated) < len(weight_rule(n, rate)[0])


def delta_one_cap(n):
    """_ceiling's cap of delta = 1 raised by its slack, from a non-additive
    query on an i.i.d. bern(0.5) model of n entries, and that slack."""
    db, maximum = DatabaseModel.iid(Pmf.bernoulli(0.5), n), Query("max", max, True)
    cap = statpriv.amplify._ceiling(db, maximum, DEFAULT_BUDGET)
    return cap, cap(1, (0.0,))[0]


def test_size_mixture_closes_an_eps_whose_charge_is_zero():
    # Sized values of 0 leave every sum at 0. A cap of 0 proves that no
    # larger size adds anything, so every eps closes after the first size,
    # asking for one cap. A cap of delta = 1 charges the sizes left
    # something, so no eps closes: every size of nonzero weight, 1 to 596,
    # is evaluated on the whole grid, and a cap is asked for before each
    # size after the first. Either way the result is exactly 0.
    n, rate = 1000, 0.1
    assert binomial_pmf(n, rate)[596] > 0.0 == binomial_pmf(n, rate)[597]
    for cap, sizes in ((0.0, 1), (1.0, 596)):
        seen, asked = [], []

        def zeros(m, stretched):
            seen.append((m, len(stretched)))
            return (0.0,) * len(stretched)

        def ceiling(m, eps):
            asked.append(m)
            return [cap] * len(eps)

        got = statpriv.amplify._size_mixture(n, rate, SHIFTED_GRID, zeros, ceiling)
        assert seen == [(m, len(SHIFTED_GRID)) for m in range(1, sizes + 1)]
        assert asked == list(range(1, max(sizes, 2)))
        assert got == (0.0,) * len(SHIFTED_GRID)


def test_share_rule_charges_the_sizes_it_skips(monkeypatch):
    # At a share of 2^-8 the charge shows. With the cap of delta = 1, an eps
    # that closes after size M is charged the mass above M, summed from the
    # largest size down as the sweep rounds it, times the slack: each eps is
    # the fsum of its evaluated terms and that charge, bit for bit. With the
    # lattice cap (poisson_bound on this i.i.d. model) each eps lies between
    # the sum over every size and that charge of delta = 1, below the latter
    # at some eps.
    monkeypatch.setattr(statpriv.amplify, "NEGLIGIBLE_TAIL_SHARE", 2.0 ** -8)
    entry, q, n, rate = Pmf.bernoulli(0.5), count_query(), 300, 0.1
    weights = binomial_pmf(n, rate)
    masses = {m: weights[m] * m / n for m in range(1, n + 1) if weights[m] > 0.0}
    assert weights[1] >= NEGLIGIBLE_SIZE_WEIGHT  # no size below the sweep
    cap, slack = delta_one_cap(n)
    want = reference_poisson(entry, q, n, rate, SHIFTED_GRID)
    evaluated = {}

    def sized(m, grid):  # records size m's values by eps index
        values = privacy_curve(DatabaseModel.iid(entry, m), q, grid).values
        full = [stretch(e, n / m) for e in SHIFTED_GRID]
        evaluated[m] = dict(zip(range(full.index(grid[0]), len(full)), values))
        return values

    def charged_one():
        out = []
        for k in range(len(SHIFTED_GRID)):
            top = max(m for m in evaluated if k in evaluated[m])
            rest = 0.0
            for m in sorted(masses, reverse=True):
                if m > top:
                    rest += masses[m]
            terms = [f * evaluated[m][k] for m, f in masses.items() if m <= top]
            out.append(min(1.0, math.fsum(terms + [rest * slack])))
        return list(itertools.accumulate(out, min))

    got = statpriv.amplify._size_mixture(n, rate, SHIFTED_GRID, sized, cap)
    assert len(evaluated) < len(masses) and got[0] > want[0]
    assert list(got) == charged_one() and all(map(operator.ge, got, want))
    evaluated.clear()
    monkeypatch.setattr(
        statpriv.amplify, "_sampled_curve_values", lambda db, q, m, grid, budget:
        PrivacyCurve(grid, sized(m, grid)))
    got = poisson_bound(DatabaseModel.iid(entry, n), q, rate, SHIFTED_GRID).values
    ones = charged_one()
    assert len(evaluated) < len(masses) and got[0] > want[0]
    assert all(map(operator.le, want, got)) and all(map(operator.le, got, ones))
    assert list(got) != ones


def test_lower_tail_is_decided_on_the_sum_over_every_size():
    # At n = 1200, rate 0.5 the sweep starts above size 1. Where charging
    # the sizes below it delta = 1 moves a sum, they are evaluated: here their
    # values are 1, so the bound is the fsum over every size. Deciding on the
    # sweep's rounded sum plus the rounded tail left it one ulp below.
    n, rate = 1200, 0.5
    weights = binomial_pmf(n, rate)
    assert weights[1] < NEGLIGIBLE_SIZE_WEIGHT

    def value(m):
        return 1.0 if weights[m] < NEGLIGIBLE_SIZE_WEIGHT else 1.593e-61

    def sized(m, stretched):
        return [value(m)] * len(stretched)

    (got,) = statpriv.amplify._size_mixture(n, rate, (0.0,), sized, lambda m, eps: [1.0] * len(eps))
    every = math.fsum(w * m / n * value(m) for m, w in enumerate(weights) if m)
    assert every == 7.965000000000001e-62
    assert got == every


@st.composite
def small_iid_cases(draw):
    """A 2- or 3-valued entry, a query, n <= 300 and a sampling rate."""
    outcomes = sorted(draw(st.sets(st.integers(-2, 3), min_size=2, max_size=3)))
    raw = draw(st.lists(st.integers(1, 4), min_size=len(outcomes), max_size=len(outcomes)))
    entry = Pmf(tuple(map(float, outcomes)), tuple(w / sum(raw) for w in raw))
    q = draw(st.sampled_from((sum_query(), count_query(), mean_query())))
    n = draw(st.integers(20, 300))
    rate = draw(st.sampled_from((0.02, 0.1, 0.3, 0.5, 0.9, 1.0)))
    return entry, q, n, rate


@settings(max_examples=60)
@given(small_iid_cases())
def test_share_rule_is_the_reference_or_one_ulp_above(case):
    entry, q, n, rate = case
    grid = (0.0, 0.3, 1.0, 2.5)
    got = poisson_bound(DatabaseModel.iid(entry, n), q, rate, grid).values
    for g, w in zip(got, reference_poisson(entry, q, n, rate, grid)):
        assert g in (w, math.nextafter(w, math.inf)), (g, w)


@st.composite
def dyadic_iid_cases(draw):
    """A 2- or 3-valued entry of dyadic weights, an additive query and n <= 30."""
    outcomes = sorted(draw(st.sets(st.integers(-2, 3), min_size=2, max_size=3)))
    total = 2 ** draw(st.integers(2, 5))
    size = len(outcomes) - 1
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=size, max_size=size)))
    weights = [(b - a) / total for a, b in zip([0, *cuts], [*cuts, total])]
    entry = Pmf(tuple(map(float, outcomes)), tuple(weights))
    q = draw(st.sampled_from((sum_query(), count_query(), mean_query())))
    return entry, q, draw(st.integers(2, 30))


@settings(max_examples=40)
@given(dyadic_iid_cases())
def test_no_larger_size_exceeds_the_ceiling(case):
    # The data-processing ceiling of size m, its curve raised by the slack,
    # bounds the curve of every larger size at every eps, with no tolerance.
    entry, q, n = case
    grid = (0.0, 0.1, 0.5, 1.0, 2.0)
    ceiling = statpriv.amplify._ceiling(DatabaseModel.iid(entry, n), q, DEFAULT_BUDGET)
    curves = [privacy_curve(DatabaseModel.iid(entry, m), q, grid).values for m in range(1, n + 1)]
    for m in range(1, n):
        cap = ceiling(m, grid)
        assert cap is not None  # small models have distinct answers
        for larger in curves[m:]:
            assert all(d <= c for d, c in zip(larger, cap)), (m, larger, cap)


def test_ceiling_needs_an_iid_model_and_an_additive_query():
    # Otherwise, and for a size whose chain is over the budget, the cap is
    # delta = 1 raised by the slack 1 + 4(2kn + 3)2^-53, k the entry's support.
    ceiling = statpriv.amplify._ceiling
    bern = Pmf.bernoulli(0.5)
    slack = 1.0 + 4 * (2 * 2 * 8 + 3) * 2.0**-53
    maximum = Query("max", max, True)
    two_class = DatabaseModel([bern, Pmf.bernoulli(0.3)] * 4)
    for cap in (
        ceiling(two_class, sum_query(), DEFAULT_BUDGET),
        ceiling(DatabaseModel.iid(bern, 8), maximum, DEFAULT_BUDGET),
        ceiling(DatabaseModel.iid(bern, 8), count_query(), 34),  # size 8 has 35 cells
    ):
        assert cap(8, (0.0, 0.5, 1.0)) == [slack] * 3
    assert ceiling(DatabaseModel.iid(bern, 8), count_query(), 35)(8, (0.0,))[0] < 1.0
    # Means of values 2^-16 apart at 1e11 merge from 2 entries on: their
    # curves are below their cells', which the ceiling takes.
    close = Pmf((1e11, 1e11 + 2.0**-16, 1e11 + 2.0**-15), (0.25, 0.5, 0.25))
    grid = (0.0, 0.5, 1.0)
    cap = ceiling(DatabaseModel.iid(close, 8), mean_query(), DEFAULT_BUDGET)(2, grid)
    for m in range(2, 9):
        merged = privacy_curve(DatabaseModel.iid(close, m), mean_query(), grid).values
        assert all(d <= c for d, c in zip(merged, cap)), (m, merged, cap)
    assert merged != tuple(cap)


def test_weight_floor_charges_no_longer_set_an_iid_bound():
    # bern(0.5) count at poisson:1200,0.5: the sizes of weight below
    # NEGLIGIBLE_SIZE_WEIGHT were charged 1.1068979823482692e-77 at every
    # eps, which was the printed value at eps 2. The light sizes above the
    # heavy ones are now swept and charged the ceiling, and those below are
    # evaluated where their charge would set the value: every eps is the sum
    # over every size.
    entry, q, n, rate, grid = Pmf.bernoulli(0.5), count_query(), 1200, 0.5, (0.0, 1.0, 2.0)
    got = poisson_bound(DatabaseModel.iid(entry, n), q, rate, grid).values
    assert weight_rule(n, rate)[1] == 1.1068979823482692e-77
    assert bits(got) == bits(reference_poisson(entry, q, n, rate, grid))
    assert got[2] == 3.874467616886448e-114


def test_a_two_class_model_is_charged_delta_one_raised_by_the_slack(monkeypatch):
    # A model that is not i.i.d. takes the cap of delta = 1: the bound and
    # the sizes it evaluates are those of the sweep that charged each size
    # left out its mass times 1, frozen here; at n = 60, rate 0.03 it skips
    # sizes by the share, up to the last of nonzero weight.
    evaluated = []
    sampled = statpriv.amplify._sampled_curve_values

    def record(db, q, m, grid, budget):
        evaluated.append(m)
        return sampled(db, q, m, grid, budget)

    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", record)
    db = DatabaseModel([Pmf.bernoulli(0.3)] * 30 + [Pmf.bernoulli(0.6)] * 30)
    got = poisson_bound(db, sum_query(), 0.03, (0.0, 0.5, 1.0, 2.0)).values
    assert bits(got) == [
        "0x1.2b01746d1c86ap-6", "0x1.e80363f5a3502p-7",
        "0x1.e7fc3abd30501p-7", "0x1.e7fc3a91dc5c9p-7",
    ]
    assert evaluated == list(range(1, 28))
    assert weight_rule(60, 0.03)[1] > 0.0


def test_stretcher_is_the_formula_and_passes_the_grid_at_factor_one():
    grid = SHIFTED_GRID + (800.0,)
    stretcher = statpriv.amplify._stretcher(grid)
    assert stretcher(1.0) is grid  # no expm1 taken: e^800 would overflow
    with pytest.raises(OverflowError):
        stretcher(2.0)
    stretcher = statpriv.amplify._stretcher(SHIFTED_GRID)
    for factor in (1000 / 314, 2.0, 1.0 + 2.0 ** -52, 0.5):
        want = [math.log1p(factor * math.expm1(e)) for e in SHIFTED_GRID]
        assert bits(stretcher(factor)) == bits(want)


@pytest.mark.parametrize(
    "grid, message",
    [
        ((-0.5, 0.5), "eps must be finite and nonnegative, got -0.5"),
        ((0.5, 0.0), "epsilon grid must be strictly increasing"),
    ],
)
def test_poisson_bound_refuses_a_bad_grid_before_the_sweep(monkeypatch, grid, message):
    # The wor bound's messages, and no sample size is evaluated first.
    evaluated = []
    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", lambda *a: evaluated.append(a))
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 10)
    with pytest.raises(ValueError, match=f"^{message}$"):
        poisson_bound(db, sum_query(), 0.3, grid)
    assert evaluated == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"^{message}$"):
        without_replacement_bound(db, sum_query(), 3, grid)


@pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 1.0])
def test_poisson_dominates_oracle(rate):
    q = sum_query()
    for n in (2, 3):
        db = DatabaseModel.iid(Pmf.bernoulli(0.3), n)
        tech = TemplateDistribution.poisson(n, rate)
        hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
        curve = poisson_bound(db, q, rate, (0.0, 0.5, 1.0))
        for eps, star in zip(curve.grid, curve.values):
            direct = max(
                brute_force_divergence(hi, lo, tech, q, eps),
                brute_force_divergence(lo, hi, tech, q, eps),
            )
            assert direct <= star + DOM_TOL


def exact_poisson_delta(entry, n, rate):
    """delta(0) of the sum of a Poisson sample at `rate` of n i.i.d. entries,
    entry 1 set to each value in turn, in rationals: the entry's float
    weights normalized exactly, and every value of the other entries and
    every inclusion pattern enumerated."""
    total = sum(map(Fraction, entry.weights))
    weight = {v: Fraction(w) / total for v, w in zip(entry.outcomes, entry.weights)}
    r = Fraction(rate)
    laws = []
    for v in entry.outcomes:
        law = {}
        for others in itertools.product(entry.outcomes, repeat=n - 1):
            mass = math.prod(map(weight.get, others), start=Fraction(1))
            for included in itertools.product((0, 1), repeat=n):
                k = sum(included)
                answer = sum(Fraction(x) for x, i in zip((v, *others), included) if i)
                law[answer] = law.get(answer, 0) + mass * r**k * (1 - r) ** (n - k)
        laws.append(law)
    return max(
        sum(max(a[s] - b.get(s, 0), 0) for s in a) for a, b in itertools.permutations(laws, 2)
    )


# Cases whose float bound lies below the exact delta by less than one ulp:
# the chain's weights and the pair kernel round to nearest, and no proven
# slack raises the printed delta yet (ROADMAP item 4).
POISSON_BELOW_BY_ROUNDING = {(0.3, 2, 0.5), (0.3, 2, 0.1), (0.3, 3, 0.5), (0.5, 2, 0.1)}


@pytest.mark.parametrize("p, n, rate", [
    pytest.param(p, n, rate, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="rounded to nearest, below the exact delta by under one ulp (ROADMAP item 4)",
    )) if (p, n, rate) in POISSON_BELOW_BY_ROUNDING else (p, n, rate)
    for p in (0.3, 0.5) for n in range(1, 7) for rate in (0.1, 0.5)
])
def test_poisson_bound_dominates_the_exact_delta(p, n, rate):
    # No tolerance: the bound's float must not lie below the rational delta.
    entry = Pmf.bernoulli(p)
    exact = exact_poisson_delta(entry, n, rate)
    (got,) = poisson_bound(DatabaseModel.iid(entry, n), sum_query(), rate, (0.0,)).values
    if Fraction(got) + Fraction(math.ulp(got)) < exact:
        pytest.fail(f"{got} is more than one ulp below the exact delta {float(exact)}")
    assert Fraction(got) >= exact


def sampled_bounds(db, q, n, grid):
    """(technique, bound curve) for wor at every m, Poisson at rate 0.5 and
    wr at m = 1, 2 where the samplability gate passes."""
    techniques = TemplateDistribution
    bounds = [
        (techniques.without_replacement(n, m), without_replacement_bound(db, q, m, grid))
        for m in range(1, n + 1)
    ]
    bounds.append((techniques.poisson(n, 0.5), poisson_bound(db, q, 0.5, grid)))
    for m in (1, 2):
        try:
            curve = with_replacement_bound(db, q, m, grid)
        except NotSamplableError:
            continue
        bounds.append((techniques.with_replacement(n, m), curve))
    return bounds


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_interpolated_bound_values_dominate_the_oracle(p):
    # Every delta a bound returns is an upper bound, value_at's between its
    # eps' points too: delta is convex in e^eps, so the chord lies above it.
    q, grid = sum_query(), (0.0, 0.5, 1.0, 2.0)
    kinds = set()
    for n in range(1, 5):
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
        for tech, c in sampled_bounds(db, q, n, grid):
            kinds.add(tech.kind)
            for a, b in zip(c.grid, c.grid[1:]):
                for t in (0.25, 0.5, 0.75):
                    eps = a + t * (b - a)
                    direct = max(
                        brute_force_divergence(hi, lo, tech, q, eps),
                        brute_force_divergence(lo, hi, tech, q, eps),
                    )
                    assert c.value_at(eps) >= direct - DOM_TOL, (tech.kind, n, eps)
    assert kinds == {"without_replacement", "poisson", "with_replacement"}


def test_with_replacement_single_draw_equals_without():
    # one draw with or without replacement is the same technique
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    wr = with_replacement_bound(db, sum_query(), 1, (0.0, LN2))
    wor = without_replacement_bound(db, sum_query(), 1, (0.0, LN2))
    assert wr == wor


def test_with_replacement_needs_monotone_query():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    from statpriv.dist import Query

    scrambled = Query("parity", lambda xs: float(int(sum(xs)) % 2), monotone=False)
    with pytest.raises(ValueError):
        with_replacement_bound(db, scrambled, 1, (0.0,))


def test_with_replacement_gate_refuses_coupled_violation():
    # p=0.3, m=2: the coupled pair (1,2) vs (2,2) compares v+X against 2X
    # and the mean value inequality fails, so the bound must refuse
    db = DatabaseModel.iid(Pmf.bernoulli(0.3), 2)
    with pytest.raises(NotSamplableError) as err:
        with_replacement_bound(db, sum_query(), 2, (0.0, 0.5, 1.0))
    assert err.value.eps == 0.5
    assert "coupled" in str(err.value)
    assert err.value.family == "coupled"


def test_with_replacement_gate_refuses_interleaved_lattice():
    # template (1,2,2): answers v+2X vs w+2X interleave, signs +,-,+,-
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    with pytest.raises(NotSamplableError) as err:
        with_replacement_bound(db, sum_query(), 3, (0.0, 0.5))
    assert err.value.eps == 0.0
    assert err.value.outcome == 2.0
    assert "template=(1, 2, 2)" in str(err.value)
    assert err.value.family == "half_line"


@pytest.mark.parametrize(
    "entry, q, n, m, grid, family, message",
    [
        (
            Pmf.bernoulli(0.3), sum_query(), 6, 3, (0.0, 0.5, 1.0), "half_line",
            "half-line property fails at eps=0.0 with witness outcome 2.0 "
            "(j=1, template=(1, 2, 2), pair=(0.0, 1.0))",
        ),
        (
            Pmf.bernoulli(0.3), count_query(), 6, 3, (0.0, 0.5, 1.0), "half_line",
            "half-line property fails at eps=0.0 with witness outcome 2.0 "
            "(j=1, template=(1, 2, 2), pair=(0.0, 1.0))",
        ),
        (
            Pmf.bernoulli(0.3), sum_query(), 32, 2, None, "coupled",
            "mean value inequality fails at eps=0.05 with witness outcome 1.0 "
            "(j=1, coupled templates (1, 2) and (2, 2), conditioned to 1.0: cross "
            "divergence 0.7 exceeds the same-template ceiling 0.6846186710871927)",
        ),
        (
            Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), sum_query(), 4, 2, None, "coupled",
            "mean value inequality fails at eps=0.05 with witness outcome 1.0 "
            "(j=1, coupled templates (1, 2) and (2, 2), conditioned to 1.0: cross "
            "divergence 0.5 exceeds the same-template ceiling 0.48718222590599397)",
        ),
    ],
)
def test_with_replacement_gate_refusals_are_frozen(entry, q, n, m, grid, family, message):
    # The gate checks each distinct answer law once; the first refusal, its
    # witness and every number in its message must not move.
    with pytest.raises(NotSamplableError) as err:
        with_replacement_bound(DatabaseModel.iid(entry, n), q, m, grid)
    assert (err.value.family, str(err.value)) == (family, message)


@pytest.fixture
def answer_laws_built(monkeypatch, empty_law_memo):
    """The law keys answer_law enumerates, from an empty memo, in order."""
    calls = []
    original = statpriv.dist._enumerate_law

    def counted(key, q):
        calls.append(key)
        return original(key, q)

    monkeypatch.setattr(statpriv.dist, "_enumerate_law", counted)
    return calls


def test_with_replacement_bound_enumerates_each_answer_law_once(answer_laws_built):
    # On 32 i.i.d. entries the 1024 templates of two draws have 6 distinct
    # answer laws: 4 for the drawn classes (1, 1) and (1, 2) with entry 1
    # conditioned to 0 and to 1, which the gate checks and the drawn-view
    # curve sums in one walk, and 2 for their partners (2, 2) and (2, 3).
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 32)
    with_replacement_bound(db, sum_query(), 2)
    assert len(answer_laws_built) == 6


def test_with_replacement_bound_scales_with_classes_not_templates(answer_laws_built):
    # 10^8 templates of two draws from 10000 entries, past the default
    # budget when listed one by one; as classes there are a handful, with
    # the same 6 answer laws as at n = 32. Entry 1 drawn once gives delta
    # 1/2 at every eps, twice delta 1, so delta' = (1/n)(1 - 1/n) + 1/n^2.
    n = 10000
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    c = with_replacement_bound(db, sum_query(), 2, (0.0, 1.0))
    assert len(answer_laws_built) == 6
    assert all(abs(d - 1 / n) <= TOL / n for d in c.values)


@pytest.mark.parametrize("m, built", [(1, 7), (2, 6)])
def test_with_replacement_gate_builds_each_drawn_views_classes_once(monkeypatch, m, built):
    # 40 alternating bern(0.3) and bern(0.6) entries: positions 1 and 2 are
    # scanned. Besides the whole technique, each position builds its drawn
    # view, the view's classes on the model once for the curve's walk and
    # the coupling both, and one partner draw per drawn class (1 at m = 1,
    # 3 at m = 2). At m = 2 the gate refuses position 1's cross pairs.
    calls = []
    original = statpriv.sampling._classes

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(statpriv.sampling, "_classes", counted)
    db = DatabaseModel((Pmf.bernoulli(0.3), Pmf.bernoulli(0.6)) * 20)
    try:
        with_replacement_bound(db, sum_query(), m, (0.0, 0.5, 1.0))
    except NotSamplableError as exc:
        assert (m, exc.family) == (2, "coupled")
    assert len(calls) == built


def drawn_exactly(technique, j, k, db):
    """The classes of technique.given_drawn(j) that draw entry j exactly k
    times, renormalized into an explicit distribution."""
    kept = [(t, p) for t, p in technique.given_drawn(j).classes(db) if t.indices.count(j) == k]
    total = math.fsum(p for _, p in kept)
    return TemplateDistribution("drawn_exactly", technique.n, [(t, p / total) for t, p in kept])


def draw_count_mixture(db, q, n, m, grid):
    """delta' as the mixture over the sensitive entry's draw count k:
    sum over k of P(K = k) times the curve of templates drawing it exactly
    k times, maximized over positions."""
    technique = TemplateDistribution.with_replacement(n, m)
    weights = binomial_pmf(m, 1.0 / n)
    terms = []
    for k in range(1, m + 1):
        if weights[k] == 0.0:
            continue  # no template draws the entry k times
        curves = [
            sampling_curve(db, q, drawn_exactly(technique, j, k, db), j, grid).values
            for j in scan_positions(db, technique.exchangeable)
        ]
        terms.append([weights[k] * max(col) for col in zip(*curves)])
    return [min(1.0, math.fsum(col)) for col in zip(*terms)]


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (5, 2), (32, 2), (1000, 2), (1, 3)])
def test_with_replacement_bound_is_the_draw_count_mixture(n, m):
    # Every class has its exact worst-pair divergence, so P(K >= 1) times
    # the drawn-view curve is the mixture over draw counts up to roundoff.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    grid = (0.0, 0.25, 0.5, 1.0, 2.0)
    c = with_replacement_bound(db, sum_query(), m, grid)
    want = draw_count_mixture(db, sum_query(), n, m, grid)
    assert all(w > 0.0 for w in want)
    for d, w in zip(c.values, want):
        assert abs(d - w) <= 4 * math.ulp(w)


def test_with_replacement_eps_prime_shrinks_by_the_exact_drawn_rate():
    n = 10000
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    drawn = float(1 - Fraction(n - 1, n) ** 2)
    grid = (0.5, 1.0, 2.0)
    for e, eps_prime in zip(grid, with_replacement_bound(db, sum_query(), 2, grid).grid):
        want = math.log1p(drawn * math.expm1(e))
        assert abs(eps_prime - want) <= 1e-14 * want


def test_with_replacement_gate_passes_symmetric_two_of_two():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    c = with_replacement_bound(db, sum_query(), 2, (0.0, 0.5, 1.0))
    q = sum_query()
    tech = TemplateDistribution.with_replacement(2, 2)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    for eps_prime, delta_prime in zip(c.grid, c.values):
        direct = max(
            brute_force_divergence(hi, lo, tech, q, eps_prime),
            brute_force_divergence(lo, hi, tech, q, eps_prime),
        )
        assert direct <= delta_prime + DOM_TOL


def test_with_replacement_single_entry_database():
    # n=1: the entry is drawn every time; answers are point masses m*v
    db = DatabaseModel.iid(Pmf.bernoulli(0.3), 1)
    c = with_replacement_bound(db, sum_query(), 3, (0.0, 1.0))
    assert c == PrivacyCurve((0.0, 1.0), (1.0, 1.0))


def test_with_replacement_count_query():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    c = with_replacement_bound(db, count_query(), 2, (0.0, 0.5))
    q = count_query()
    tech = TemplateDistribution.with_replacement(2, 2)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    for eps_prime, delta_prime in zip(c.grid, c.values):
        direct = max(
            brute_force_divergence(hi, lo, tech, q, eps_prime),
            brute_force_divergence(lo, hi, tech, q, eps_prime),
        )
        assert direct <= delta_prime + DOM_TOL


def test_viability_ratio():
    entry = Pmf.bernoulli(0.5)
    base = privacy_curve(DatabaseModel.iid(entry, 4), count_query(), (0.5,))
    # m = n is the identity: ratio exactly 1
    assert viability_ratio(base, entry, count_query(), 4, 4) == (1.0,)
    (r,) = viability_ratio(base, entry, count_query(), 4, 2)
    assert 0.0 < r < 1.0


def test_viability_ratio_zero_denominator():
    # a single-outcome entry has a flat zero curve: ratio undefined
    entry = Pmf.from_pairs([(0.0, 1.0)])
    base = privacy_curve(DatabaseModel.iid(entry, 2), count_query(), (0.5,))
    with pytest.raises(ZeroDivisionError):
        viability_ratio(base, entry, count_query(), 2, 1)


def test_shrink_epsilon():
    # dp_subsample's eps' is eps shrunk at the sampling rate
    (eps_prime,) = dp_subsample(PrivacyCurve((0.5,), (0.1,)), 0.5).grid
    assert abs(eps_prime - math.log(1.0 + 0.5 * (math.exp(0.5) - 1.0))) <= TOL
    assert dp_subsample(PrivacyCurve((0.7,), (0.1,)), 1.0).grid == (0.7,)
    assert dp_subsample(PrivacyCurve((0.0,), (0.1,)), 0.5).grid == (0.0,)
    # Shrinking at rate r is the one stretch at factor r, bit for bit.
    grid = (0.0, 0.05, 0.7, 1.0, 3.0)
    for rate in (0.5, 0.1, 0.999, 1.0):
        got = dp_subsample(PrivacyCurve(grid, (0.25,) * len(grid)), rate).grid
        assert bits(got) == bits(stretch(e, rate) for e in grid)
        assert bits(got) == bits(math.log1p(rate * math.expm1(e)) for e in grid)
    with pytest.raises(ValueError):
        dp_subsample(PrivacyCurve((-1.0,), (0.1,)), 0.5)
    with pytest.raises(ValueError):
        dp_subsample(PrivacyCurve((1.0,), (0.1,)), 0.0)


def test_dp_subsample():
    amp = dp_subsample(PrivacyCurve((0.5,), (0.1,)), 0.5)
    assert abs(amp.grid[0] - math.log(1.0 + 0.5 * (math.exp(0.5) - 1.0))) <= TOL
    assert abs(amp.values[0] - 0.05) <= TOL
    ident = dp_subsample(PrivacyCurve((0.5,), (0.1,)), 1.0)
    assert ident.grid == (0.5,) and abs(ident.values[0] - 0.1) <= TOL
    grid = (0.0, 0.05, 0.7, 1.0, 3.0)
    for rate in (0.5, 0.1, 0.999, 1.0):
        got = dp_subsample(PrivacyCurve(grid, (0.25,) * len(grid)), rate)
        assert bits(got.grid) == bits(stretch(e, rate) for e in grid)
        assert list(got.values) == [rate * 0.25] * len(grid)
    # A bad grid or delta is refused by the curve itself; a bad rate by dp_subsample.
    for grid, deltas in (
        ((-1.0,), (0.1,)),
        ((math.inf,), (0.1,)),
        ((1.0,), (1.5,)),
        ((1.0, 2.0), (0.1,)),
    ):
        with pytest.raises(ValueError):
            dp_subsample(PrivacyCurve(grid, deltas), 0.5)
    for rate in (0.0, 1.5, -0.5):
        with pytest.raises(ValueError, match="rate must be in"):
            dp_subsample(PrivacyCurve((1.0,), (0.1,)), rate)
    # Adjacent floats whose eps' round to one float: no curve holds both.
    with pytest.raises(ValueError, match="^two eps of the grid shrink to one eps' at rate 0.5$"):
        dp_subsample(PrivacyCurve((0.5, 0.5000000000000001), (0.25, 0.25)), 0.5)
