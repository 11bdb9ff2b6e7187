"""Amplification bounds, the samplability gate, and the DP-style helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv.amplify import (
    NEGLIGIBLE_SIZE_WEIGHT,
    AmplifiedParams,
    dp_poisson_bound,
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
    DatabaseModel,
    Pmf,
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


def test_amplified_params_validation():
    p = AmplifiedParams(0.5, 1.0 + 5e-13)
    assert p.delta_prime == 1.0
    with pytest.raises(ValueError):
        AmplifiedParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        AmplifiedParams(0.5, 1.5)


def test_without_replacement_two_of_one():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    pts = without_replacement_bound(db, sum_query(), 2, 1, (0.0, LN2))
    assert [(p.eps_prime, p.delta_prime) for p in pts] == [
        (0.0, 0.5),
        (math.log(1.5), 0.5),
    ]


def test_without_replacement_full_sample_passthrough():
    # m = n: no amplification, eps' = eps and delta' = the model's own delta
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    pts = without_replacement_bound(db, sum_query(), 2, 2, (0.0, 0.5))
    assert pts[0].eps_prime == 0.0
    assert pts[1].eps_prime == 0.5
    assert pts[0].delta_prime == 0.5


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_without_replacement_dominates_oracle(p, n, m):
    db = DatabaseModel.iid(Pmf.bernoulli(p), n)
    q = sum_query()
    tech = TemplateDistribution.without_replacement(n, m)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    for eps, pt in zip((0.0, 0.5, 1.0), without_replacement_bound(db, q, n, m, (0.0, 0.5, 1.0))):
        direct = max(
            brute_force_divergence(hi, lo, tech, q, pt.eps_prime),
            brute_force_divergence(lo, hi, tech, q, pt.eps_prime),
        )
        assert direct <= pt.delta_prime + DOM_TOL


def test_poisson_bound_known_point():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    c = poisson_bound(db, sum_query(), 2, 0.5, (0.0, 0.5))
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


@pytest.mark.parametrize("n, rate, sizes", [(1000, 0.1, 260), (40, 1.0, 1)])
def test_poisson_sweep_stretches_each_size_bit_for_bit(monkeypatch, n, rate, sizes):
    # Each evaluated size m gets stretch(e, n / m) per eps, bit for
    # bit, from one privacy_curve call, on a suffix of the grid: at n = 1000,
    # rate 0.1 the share rule evaluates 260 of the 314 sizes the weight rule
    # admits, and closes eps from the low end only. At rate 1 only m = n is
    # evaluated and its grid is the input grid unchanged.
    seen, curves = [], []
    sampled, curve = statpriv.amplify._sampled_curve_values, statpriv.amplify.privacy_curve

    def record(db, q, n, m, grid, budget):
        seen.append((m, grid))
        return sampled(db, q, n, m, grid, budget)

    def counted(*args):
        curves.append(args[0].n)
        return curve(*args)

    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", record)
    monkeypatch.setattr(statpriv.amplify, "privacy_curve", counted)
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    poisson_bound(db, count_query(), n, rate, SHIFTED_GRID)
    assert len(seen) == sizes
    assert curves == [m for m, _ in seen]
    lengths = [len(grid) for _, grid in seen]
    assert lengths == sorted(lengths, reverse=True) and lengths[-1] >= 1
    for m, grid in seen:
        suffix = SHIFTED_GRID[len(SHIFTED_GRID) - len(grid):]
        assert bits(grid) == bits(stretch(e, n / m) for e in suffix), m
    if rate == 1.0:
        assert seen == [(n, SHIFTED_GRID)]


def weight_rule(n, rate):
    """size -> weight times m/n for the sizes of weight at least
    NEGLIGIBLE_SIZE_WEIGHT, and the fsum of it over the lighter sizes: the
    weight charge."""
    weights = binomial_pmf(n, rate)
    factors = {m: weights[m] * m / n for m in range(1, n + 1)}
    kept = {m: f for m, f in factors.items() if weights[m] >= NEGLIGIBLE_SIZE_WEIGHT}
    return kept, math.fsum(f for m, f in factors.items() if m not in kept)


def reference_poisson(entry, q, n, rate, grid):
    """poisson_bound without the share rule: privacy_curve on every size of
    weight at least NEGLIGIBLE_SIZE_WEIGHT, on its whole stretched grid, and
    the lighter sizes charged delta = 1 at every eps, summed as
    _size_mixture sums them."""
    kept, tail = weight_rule(n, rate)
    terms = [[] for _ in grid]
    for m, factor in kept.items():
        stretched = tuple(stretch(e, n / m) for e in grid)
        for ts, v in zip(terms, privacy_curve(DatabaseModel.iid(entry, m), q, stretched).values):
            ts.append(factor * v)
    return tuple(min(1.0, math.fsum(ts) + tail) for ts in terms)


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

    def record(db, q, n, m, grid, budget):
        evaluated.append(m)
        return sampled(db, q, n, m, grid, budget)

    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", record)
    got = poisson_bound(DatabaseModel.iid(entry, n), q, n, rate, grid).values
    want = reference_poisson(entry, q, n, rate, as_grid(grid))
    assert bits(got) == bits(want)
    assert len(evaluated) < len(weight_rule(n, rate)[0])


def test_size_mixture_never_closes_an_eps_whose_sum_is_zero():
    # Sized values of 0 leave every sum at 0: every size of weight at least
    # NEGLIGIBLE_SIZE_WEIGHT is evaluated on the whole grid, and the result
    # is the weight charge alone.
    n, rate, seen = 1000, 0.1, []

    def zeros(m, stretched):
        seen.append((m, len(stretched)))
        return (0.0,) * len(stretched)

    got = statpriv.amplify._size_mixture(n, rate, SHIFTED_GRID, zeros)
    kept, tail = weight_rule(n, rate)
    assert seen == [(m, len(SHIFTED_GRID)) for m in kept]
    assert tail > 0.0
    assert got == (tail,) * len(SHIFTED_GRID)


def test_share_rule_charges_the_sizes_it_skips(monkeypatch):
    # At a share of 2^-8 the charge shows: each size skipped at an eps adds
    # its weight times m/n there, delta = 1, and the bound stays above the
    # reference.
    monkeypatch.setattr(statpriv.amplify, "NEGLIGIBLE_TAIL_SHARE", 2.0 ** -8)
    entry, q, n, rate = Pmf.bernoulli(0.5), count_query(), 300, 0.1
    evaluated = {}
    sampled = statpriv.amplify._sampled_curve_values

    def record(db, q, n, m, grid, budget):
        evaluated[m] = values = sampled(db, q, n, m, grid, budget)
        return values

    monkeypatch.setattr(statpriv.amplify, "_sampled_curve_values", record)
    got = poisson_bound(DatabaseModel.iid(entry, n), q, n, rate, SHIFTED_GRID).values
    kept, tail = weight_rule(n, rate)
    want = reference_poisson(entry, q, n, rate, SHIFTED_GRID)
    assert len(evaluated) < len(kept) and got[0] > want[0]
    for k, (g, ref) in enumerate(zip(got, want)):
        terms = []
        for m, factor in kept.items():
            values = evaluated.get(m, ())
            skip = len(SHIFTED_GRID) - len(values)
            terms.append(factor if k < skip else factor * values[k - skip])
        assert g == min(1.0, math.fsum(terms) + tail) >= ref


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
    got = poisson_bound(DatabaseModel.iid(entry, n), q, n, rate, grid).values
    for g, w in zip(got, reference_poisson(entry, q, n, rate, grid)):
        assert g in (w, math.nextafter(w, math.inf)), (g, w)


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


@pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 1.0])
def test_poisson_dominates_oracle(rate):
    q = sum_query()
    for n in (2, 3):
        db = DatabaseModel.iid(Pmf.bernoulli(0.3), n)
        tech = TemplateDistribution.poisson(n, rate)
        hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
        curve = poisson_bound(db, q, n, rate, (0.0, 0.5, 1.0))
        for eps, star in zip(curve.grid, curve.values):
            direct = max(
                brute_force_divergence(hi, lo, tech, q, eps),
                brute_force_divergence(lo, hi, tech, q, eps),
            )
            assert direct <= star + DOM_TOL


def test_with_replacement_single_draw_equals_without():
    # one draw with or without replacement is the same technique
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    wr = with_replacement_bound(db, sum_query(), 2, 1, (0.0, LN2))
    wor = without_replacement_bound(db, sum_query(), 2, 1, (0.0, LN2))
    assert wr == wor


def test_with_replacement_needs_monotone_query():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    from statpriv.dist import Query

    scrambled = Query("parity", lambda xs: float(int(sum(xs)) % 2), monotone=False)
    with pytest.raises(ValueError):
        with_replacement_bound(db, scrambled, 2, 1, (0.0,))


def test_with_replacement_gate_refuses_coupled_violation():
    # p=0.3, m=2: the coupled pair (1,2) vs (2,2) compares v+X against 2X
    # and the mean value inequality fails, so the bound must refuse
    db = DatabaseModel.iid(Pmf.bernoulli(0.3), 2)
    with pytest.raises(NotSamplableError) as err:
        with_replacement_bound(db, sum_query(), 2, 2, (0.0, 0.5, 1.0))
    assert err.value.eps == 0.5
    assert "coupled" in str(err.value)
    assert err.value.family == "coupled"


def test_with_replacement_gate_refuses_interleaved_lattice():
    # template (1,2,2): answers v+2X vs w+2X interleave, signs +,-,+,-
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    with pytest.raises(NotSamplableError) as err:
        with_replacement_bound(db, sum_query(), 2, 3, (0.0, 0.5))
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
            "half-line property fails at eps=0.05 with witness outcome 1.0 "
            "(j=1, coupled templates (1, 2) and (2, 2), conditioned to 1.0: cross "
            "divergence 0.7 exceeds the same-template ceiling 0.6846186710871927)",
        ),
        (
            Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), sum_query(), 4, 2, None, "coupled",
            "half-line property fails at eps=0.05 with witness outcome 1.0 "
            "(j=1, coupled templates (1, 2) and (2, 2), conditioned to 1.0: cross "
            "divergence 0.5 exceeds the same-template ceiling 0.48718222590599397)",
        ),
    ],
)
def test_with_replacement_gate_refusals_are_frozen(entry, q, n, m, grid, family, message):
    # The gate checks each distinct answer law once; the first refusal, its
    # witness and every number in its message must not move.
    with pytest.raises(NotSamplableError) as err:
        with_replacement_bound(DatabaseModel.iid(entry, n), q, n, m, grid)
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
    with_replacement_bound(db, sum_query(), 32, 2)
    assert len(answer_laws_built) == 6


def test_with_replacement_bound_scales_with_classes_not_templates(answer_laws_built):
    # 10^8 templates of two draws from 10000 entries, past the default
    # budget when listed one by one; as classes there are a handful, with
    # the same 6 answer laws as at n = 32. Entry 1 drawn once gives delta
    # 1/2 at every eps, twice delta 1, so delta' = (1/n)(1 - 1/n) + 1/n^2.
    n = 10000
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    points = with_replacement_bound(db, sum_query(), n, 2, (0.0, 1.0))
    assert len(answer_laws_built) == 6
    assert all(abs(p.delta_prime - 1 / n) <= TOL / n for p in points)


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
        with_replacement_bound(db, sum_query(), 40, m, (0.0, 0.5, 1.0))
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
    points = with_replacement_bound(db, sum_query(), n, m, grid)
    want = draw_count_mixture(db, sum_query(), n, m, grid)
    assert all(w > 0.0 for w in want)
    for p, w in zip(points, want):
        assert abs(p.delta_prime - w) <= 4 * math.ulp(w)


def test_with_replacement_eps_prime_shrinks_by_the_exact_drawn_rate():
    n = 10000
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), n)
    drawn = float(1 - Fraction(n - 1, n) ** 2)
    grid = (0.5, 1.0, 2.0)
    for e, p in zip(grid, with_replacement_bound(db, sum_query(), n, 2, grid)):
        want = math.log1p(drawn * math.expm1(e))
        assert abs(p.eps_prime - want) <= 1e-14 * want


def test_with_replacement_gate_passes_symmetric_two_of_two():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    pts = with_replacement_bound(db, sum_query(), 2, 2, (0.0, 0.5, 1.0))
    q = sum_query()
    tech = TemplateDistribution.with_replacement(2, 2)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    for pt in pts:
        direct = max(
            brute_force_divergence(hi, lo, tech, q, pt.eps_prime),
            brute_force_divergence(lo, hi, tech, q, pt.eps_prime),
        )
        assert direct <= pt.delta_prime + DOM_TOL


def test_with_replacement_single_entry_database():
    # n=1: the entry is drawn every time; answers are point masses m*v
    db = DatabaseModel.iid(Pmf.bernoulli(0.3), 1)
    pts = with_replacement_bound(db, sum_query(), 1, 3, (0.0, 1.0))
    assert [p.eps_prime for p in pts] == [0.0, 1.0]
    assert [p.delta_prime for p in pts] == [1.0, 1.0]


def test_with_replacement_count_query():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    pts = with_replacement_bound(db, count_query(), 2, 2, (0.0, 0.5))
    q = count_query()
    tech = TemplateDistribution.with_replacement(2, 2)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    for pt in pts:
        direct = max(
            brute_force_divergence(hi, lo, tech, q, pt.eps_prime),
            brute_force_divergence(lo, hi, tech, q, pt.eps_prime),
        )
        assert direct <= pt.delta_prime + DOM_TOL


def test_viability_ratio():
    entry = Pmf.bernoulli(0.5)
    # m = n is the identity: ratio exactly 1
    assert viability_ratio(entry, count_query(), 4, 4, 0.5) == 1.0
    r = viability_ratio(entry, count_query(), 4, 2, 0.5)
    assert 0.0 < r < 1.0


def test_viability_ratio_zero_denominator():
    # a single-outcome entry has a flat zero curve: ratio undefined
    entry = Pmf.from_pairs([(0.0, 1.0)])
    with pytest.raises(ZeroDivisionError):
        viability_ratio(entry, count_query(), 2, 1, 0.5)


def test_shrink_epsilon():
    # dp_subsample's eps' is eps shrunk at the sampling rate
    (amp,) = dp_subsample((0.5,), (0.1,), 0.5)
    assert abs(amp.eps_prime - math.log(1.0 + 0.5 * (math.exp(0.5) - 1.0))) <= TOL
    (ident,) = dp_subsample((0.7,), (0.1,), 1.0)
    assert ident.eps_prime == 0.7
    (zero,) = dp_subsample((0.0,), (0.1,), 0.5)
    assert zero.eps_prime == 0.0
    # Shrinking at rate r is the one stretch at factor r, bit for bit.
    grid = (0.0, 0.05, 0.7, 1.0, 3.0)
    for rate in (0.5, 0.1, 0.999, 1.0):
        got = dp_subsample(grid, (0.25,) * len(grid), rate)
        assert bits(a.eps_prime for a in got) == bits(stretch(e, rate) for e in grid)
        assert bits(a.eps_prime for a in got) == bits(
            math.log1p(rate * math.expm1(e)) for e in grid
        )
    for eps, rate in ((-1.0, 0.5), (1.0, 0.0)):
        with pytest.raises(ValueError):
            dp_subsample((eps,), (0.1,), rate)


def test_dp_subsample():
    (amp,) = dp_subsample((0.5,), (0.1,), 0.5)
    assert abs(amp.eps_prime - math.log(1.0 + 0.5 * (math.exp(0.5) - 1.0))) <= TOL
    assert abs(amp.delta_prime - 0.05) <= TOL
    (ident,) = dp_subsample((0.5,), (0.1,), 1.0)
    assert ident.eps_prime == 0.5 and abs(ident.delta_prime - 0.1) <= TOL
    grid = (0.0, 0.05, 0.7, 1.0, 3.0)
    for rate in (0.5, 0.1, 0.999, 1.0):
        got = dp_subsample(grid, (0.25,) * len(grid), rate)
        assert bits(a.eps_prime for a in got) == bits(stretch(e, rate) for e in grid)
        assert [a.delta_prime for a in got] == [rate * 0.25] * len(grid)
    for grid, deltas, rate in (
        ((-1.0,), (0.1,), 0.5),
        ((math.inf,), (0.1,), 0.5),
        ((1.0,), (0.1,), 0.0),
        ((1.0,), (1.5,), 0.5),
        ((1.0, 2.0), (0.1,), 0.5),
    ):
        with pytest.raises(ValueError):
            dp_subsample(grid, deltas, rate)


def test_dp_poisson_bound_grid_discipline():
    c = PrivacyCurve((0.0, 1.0, 2.0), (0.5, 0.2, 0.1))
    (got,) = dp_poisson_bound(c, 4, 0.5, (0.5,))
    assert 0.0 < got < 0.5
    assert dp_poisson_bound(c, 4, 0.5, (0.0, 0.5)) == (dp_poisson_bound(c, 4, 0.5, (0.0,))[0], got)
    with pytest.raises(ValueError):
        dp_poisson_bound(c, 4, 0.25, (1.9,))  # stretched eps leaves the grid
    with pytest.raises(ValueError):
        dp_poisson_bound(c, 4, 0.5, (-0.5,))
