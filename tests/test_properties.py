"""Property tests of the pipeline against the brute-force oracle, of the
hockey-stick kernel against its definition, of scan_positions against a
groupby reference, of the trade-off round trips and of the subsampling
operator against the sampled curves it closes.

Random small models (2-3 outcomes in -2..3, n <= 4, sum or count) are drawn
by hypothesis under the derandomized profile of conftest.py. The oracle
enumerates the joint law of template and database from scratch, so it shares
no aggregation code with the pipeline. Lattice models of up to 9 entries
check privacy_curve's shift scan against the per-value scan of its laws.
"""

import inspect
import math
from itertools import groupby
from operator import itemgetter, lt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv import dist, divergence
from statpriv.amplify import (
    dp_subsample,
    poisson_bound,
    with_replacement_bound,
    without_replacement_bound,
)
from statpriv.dist import (
    DatabaseModel,
    Pmf,
    _chain_laws,
    binomial_pmf,
    condition,
    count_query,
    lattice_chain,
    lattice_laws,
    mean_query,
    scan_positions,
    sum_query,
)
from statpriv.divergence import (
    PrivacyCurve,
    _pair_curves,
    default_eps_grid,
    hockey_stick_curve,
    privacy_curve,
    worst_pairs,
)
from statpriv.errors import NotSamplableError
from statpriv.oracle import brute_force_divergence
from statpriv.sampling import Template, TemplateDistribution, sampling_curve_max
from statpriv.tradeoff import (
    conjugate,
    curve_to_tradeoff,
    inverse,
    p_sample,
    subsampling_operator,
    tradeoff_from_pmfs,
    tradeoff_to_delta,
)

AGREEMENT_TOL = 1e-12
DOMINANCE_TOL = 1e-10
GRID = (0.0, 0.5, 1.0)
QUERIES = st.sampled_from((sum_query(), count_query()))


@st.composite
def models(draw, iid):
    """1-4 entries on 2-3 shared outcomes; non-i.i.d. models draw each entry
    from a pool of two pmfs."""
    outcomes = sorted(draw(st.sets(st.integers(-2, 3), min_size=2, max_size=3)))

    def entry():
        raw = draw(st.lists(st.integers(0, 4), min_size=len(outcomes), max_size=len(outcomes)))
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        return Pmf(tuple(float(a) for a in outcomes), tuple(r / total for r in raw))

    n = draw(st.integers(1, 4))
    if iid:
        return DatabaseModel.iid(entry(), n)
    pool = [entry(), entry()]
    return DatabaseModel(tuple(draw(st.sampled_from(pool)) for _ in range(n)))


def oracle_worst_pair(db, technique, q, eps, positions):
    """Largest oracle divergence over positions and ordered value pairs."""
    return max(
        brute_force_divergence(condition(db, j, v), condition(db, j, w), technique, q, eps)
        for j in positions
        for v in db.outcome_grid
        for w in db.outcome_grid
        if v != w
    )


@settings(max_examples=120)
@given(st.booleans().flatmap(models), QUERIES)
def test_privacy_curve_is_the_oracle_worst_pair(db, q):
    # The full template 1..n with probability 1 is the unsampled model; the
    # oracle scans every position, the pipeline only those scan_positions
    # picks.
    full = TemplateDistribution("full", db.n, ((Template(tuple(range(1, db.n + 1))), 1.0),))
    curve = privacy_curve(db, q, GRID)
    for eps, got in zip(GRID, curve.values):
        want = oracle_worst_pair(db, full, q, eps, range(1, db.n + 1))
        assert abs(got - want) <= AGREEMENT_TOL, (eps, got, want)


def assert_dominates(db, technique, q, eps, bound):
    direct = oracle_worst_pair(db, technique, q, eps, (1,))
    assert direct <= bound + DOMINANCE_TOL, (technique.kind, eps, bound, direct)


@settings(max_examples=100)
@given(models(iid=True), QUERIES, st.sampled_from((0.25, 0.5, 1.0)))
def test_amplification_bounds_dominate_the_oracle(db, q, rate):
    n = db.n
    for m in range(1, n + 1):
        technique = TemplateDistribution.without_replacement(n, m)
        for p in without_replacement_bound(db, q, n, m, GRID):
            assert_dominates(db, technique, q, p.eps_prime, p.delta_prime)
    technique = TemplateDistribution.poisson(n, rate)
    curve = poisson_bound(db, q, n, rate, GRID)
    for eps, delta in zip(curve.grid, curve.values):
        assert_dominates(db, technique, q, eps, delta)
    for m in (1, 2):
        try:
            points = with_replacement_bound(db, q, n, m, GRID)
        except NotSamplableError:
            continue  # refused by the gate: the theorem does not apply
        technique = TemplateDistribution.with_replacement(n, m)
        for p in points:
            assert_dominates(db, technique, q, p.eps_prime, p.delta_prime)


@settings(max_examples=100)
@given(models(iid=True), QUERIES, st.integers(1, 3))
def test_with_replacement_bound_is_dp_subsampling_of_the_drawn_view_curve(db, q, m):
    # The gate sums the laws and rows it has checked into the drawn-view
    # curve; that must be sampling_curve_max's curve, bit for bit.
    n = db.n
    try:
        points = with_replacement_bound(db, q, n, m, GRID)
    except NotSamplableError:
        return  # refused by the gate: there is no bound to compare
    curve = sampling_curve_max(db, q, TemplateDistribution.with_replacement(n, m), GRID)
    drawn = min(1.0, math.fsum(binomial_pmf(m, 1.0 / n)[1:]))
    want = dp_subsample(GRID, curve.values, drawn)
    assert [(p.eps_prime.hex(), p.delta_prime.hex()) for p in points] == [
        (p.eps_prime.hex(), p.delta_prime.hex()) for p in want
    ]


@st.composite
def pooled_models(draw):
    """1-8 entries from a pool of two equal but distinct pmfs and a third,
    with any set of positions fixed to a value."""
    pool = (Pmf.bernoulli(0.3), Pmf.bernoulli(0.3), Pmf.bernoulli(0.6))
    n = draw(st.integers(1, 8))
    db = DatabaseModel(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    for j in draw(st.sets(st.integers(1, n), max_size=n)):
        db = condition(db, j, draw(st.sampled_from(db.outcome_grid)))
    return db


def scan_by_groupby(db, exchangeable):
    """The free positions, or with `exchangeable` the first of each group of
    equal pmfs (equal weights on the shared grid)."""
    fixed = {j for j, _ in db.fixed}
    free = [(db.entries[j - 1].weights, j) for j in range(1, db.n + 1) if j not in fixed]
    if not exchangeable:
        return tuple(j for _, j in free)
    groups = groupby(sorted(free), key=itemgetter(0))
    return tuple(sorted(min(j for _, j in group) for _, group in groups))


@settings(max_examples=300)
@given(pooled_models())
def test_scan_positions_is_the_groupby_reference(db):
    for exchangeable in (True, False):
        assert scan_positions(db, exchangeable) == scan_by_groupby(db, exchangeable)
    assert db.is_iid == (not db.fixed and len({e.weights for e in db.entries}) == 1)


@st.composite
def lattice_models(draw):
    """2-3 values on a lattice: small integers and halves, or values 0 to 4
    ulps above 1e11, an ulp being 2^-16 there, so that sums and means of
    them merge. The model is i.i.d. or mixes two pmfs on one grid in any
    arrangement, so the positions scanned vary."""
    ulp = 2.0**-16
    picks, shift = draw(
        st.sampled_from((((-1.0, 0.0, 0.5, 1.0, 3.0), 0.0), ((0.0, ulp, 2 * ulp, 4 * ulp), 1e11)))
    )
    outcomes = tuple(sorted(draw(st.sets(st.sampled_from(picks), min_size=2, max_size=3))))
    outcomes = tuple(shift + v for v in outcomes)

    def entry():
        raw = draw(st.lists(st.integers(0, 4), min_size=len(outcomes), max_size=len(outcomes)))
        if not any(raw):
            raw[-1] = 1
        return Pmf(outcomes, tuple(r / sum(raw) for r in raw))

    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return DatabaseModel.iid(entry(), n)
    pool = entry(), entry()
    return DatabaseModel(tuple(pool[draw(st.integers(0, 1))] for _ in range(n)))


def shift_scan_against_laws(db, q, grid):
    """privacy_curve against the per-value scan of every position's laws,
    bit for bit. Returns whether privacy_curve fell back to those laws,
    which it must do exactly when two cells of a chain share an answer, and
    the `backward` flag of each pair kernel call: a shift scan skips the
    backward direction exactly when the chain's weights are a palindrome,
    and the fallback always takes it."""
    rows = [(0.0,) * len(grid)]
    merges = False
    want_backward = []
    for j in scan_positions(db, exchangeable=True):
        laws = lattice_laws(db, j, q)
        rows.extend(worst_pairs(laws, grid).values())
        steps, weights, _, _, answers = lattice_chain(db, j, q)
        if all(map(lt, answers, answers[1:])):
            shifts = {abs(s - t) for s in steps for t in steps} - {0}
            want_backward += [weights != weights[::-1]] * len(shifts)
        else:
            merges = True
            want_backward += [True] * math.comb(len(laws), 2)
    want = [max(col) for col in zip(*rows)]
    # One counter for lattice_chain under both of its names.
    chains = mock.Mock(wraps=lattice_chain)
    with (
        mock.patch.object(dist, "lattice_chain", chains),
        mock.patch.object(divergence, "lattice_chain", chains),
        mock.patch.object(divergence, "_chain_laws", wraps=_chain_laws) as fallback,
        mock.patch.object(divergence, "_pair_curves", wraps=_pair_curves) as kernel,
    ):
        got = privacy_curve(db, q, grid).values
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert fallback.called == merges
    # The fallback takes the chain the scan has built: one per position.
    assert chains.call_count == len(scan_positions(db, exchangeable=True))
    kernel_args = inspect.signature(_pair_curves).bind
    backward = []
    for call in kernel.call_args_list:
        bound = kernel_args(*call.args, **call.kwargs)
        bound.apply_defaults()
        backward.append(bound.arguments["backward"])
    assert backward == want_backward
    return merges, backward


@settings(max_examples=300)
@given(
    lattice_models(),
    st.sampled_from((sum_query(), count_query(), mean_query())),
    st.sets(st.floats(0.0, 3.0), min_size=1, max_size=6).map(sorted).map(tuple),
)
def test_shift_scan_is_the_per_value_scan_bit_for_bit(db, q, grid):
    shift_scan_against_laws(db, q, grid)


@pytest.mark.parametrize("q", [sum_query(), mean_query()], ids=["sum", "mean"])
def test_merging_answers_take_the_per_value_fallback(q):
    grid = (0.0, 0.5, 1.0)
    merging = Pmf((1e11, 1e11 + 2.0**-16, 1e11 + 2.0**-15), (0.25, 0.5, 0.25))
    assert shift_scan_against_laws(DatabaseModel.iid(merging, 6), q, grid)[0]
    # Sums and means of 0 and 1e11 stay distinct floats: the shift scan runs.
    exact = Pmf((0.0, 1e11), (0.1, 0.9))
    assert not shift_scan_against_laws(DatabaseModel.iid(exact, 30), q, grid)[0]


@pytest.mark.parametrize(
    "entry, q, n, backward",
    [
        # Two values of equal weight: the chain is a palindrome at every n.
        (Pmf.bernoulli(0.5), count_query(), 1000, [False]),
        (Pmf((-1.0, 1.0), (0.5, 0.5)), sum_query(), 200, [False]),
        (Pmf.bernoulli(0.3), count_query(), 200, [True]),
        # The entry is a palindrome, but its chain at n = 300 is not: float
        # addition does not associate, and the two shifts scan both ways.
        (Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), sum_query(), 300, [True, True]),
    ],
    ids=["bern0.5-count", "pm1-sum", "bern0.3-count", "three-valued-sum"],
)
def test_palindromic_chains_scan_one_direction(entry, q, n, backward):
    merges, got = shift_scan_against_laws(DatabaseModel.iid(entry, n), q, default_eps_grid())
    assert not merges
    assert got == backward


# Raw masses before normalization: zeros, masses near 1e-300 (one of them
# below the normal range) and ordinary ones.
RAW_MASSES = st.sampled_from((0.0, 0.0, 1e-300, 3e-300, 1e-310, 1.0, 2.0, 3.0, 7.0))


@st.composite
def pmf_pairs(draw):
    """(mu, nu) with zero weights and tiny masses; nu is mu itself, another
    pmf on mu's outcome range, or one on outcomes disjoint from mu's."""

    def pmf(shift):
        outcomes = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=5)))
        raw = [draw(RAW_MASSES) for _ in outcomes]
        if max(raw) < 1.0:
            raw[0] = 1.0
        total = math.fsum(raw)
        return Pmf(tuple(float(a + shift) for a in outcomes), tuple(r / total for r in raw))

    mu = pmf(0)
    mode = draw(st.sampled_from(("same", "other", "disjoint")))
    return mu, mu if mode == "same" else pmf(10 if mode == "disjoint" else 0)


def hockey_stick_by_definition(mu, nu, eps):
    union = set(mu.outcomes) | set(nu.outcomes)
    scale = math.exp(eps)
    return min(1.0, math.fsum(max(0.0, mu.prob(a) - scale * nu.prob(a)) for a in union))


@settings(max_examples=400)
@given(pmf_pairs(), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=61))
def test_hockey_stick_curve_is_the_definition_bit_for_bit(pair, grid):
    # The grid is unsorted and may repeat an epsilon; up to 61 points, the
    # length of the default grid, all scanned in one pass per direction.
    mu, nu = pair
    want = tuple(hockey_stick_by_definition(mu, nu, eps) for eps in grid)
    assert hockey_stick_curve(mu, nu, tuple(grid)) == want
    assert hockey_stick_curve(nu, mu, tuple(grid)) == tuple(
        hockey_stick_by_definition(nu, mu, eps) for eps in grid
    )


@settings(max_examples=200)
@given(pmf_pairs())
def test_tradeoff_round_trips_bound_the_curve(pair):
    mu, nu = pair
    grid = tuple(0.25 * i for i in range(13))
    values = hockey_stick_curve(mu, nu, grid)
    fn = tradeoff_from_pmfs(mu, nu)
    for eps, delta in zip(grid, values):
        assert abs(1.0 + conjugate(fn, -math.exp(eps)) - delta) <= 1e-9, (eps, delta)
    envelope = curve_to_tradeoff(PrivacyCurve(grid, values))
    for eps, delta in zip(grid, values):
        assert tradeoff_to_delta(envelope, eps) <= delta, (eps, delta)


@settings(max_examples=300)
@given(pmf_pairs(), st.floats(0.0, 1.0))
def test_subsampling_operator_lies_below_both_sampled_curves(pair, p):
    # The operator is the convex closure of min(f_p, f_p^-1), f_p the
    # p-sampled curve: on or below both at every breakpoint of the three.
    fn = tradeoff_from_pmfs(*pair)
    mixed = p_sample(fn, p)
    inv = inverse(mixed)
    op = subsampling_operator(fn, p)
    for x in set(mixed.xs) | set(inv.xs) | set(op.xs):
        assert op(x) <= min(mixed(x), inv(x)), (p, x)
