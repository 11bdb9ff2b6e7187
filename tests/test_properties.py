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

import math
from itertools import combinations, groupby
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv import amplify, divergence
from statpriv.amplify import (
    dp_subsample,
    poisson_bound,
    with_replacement_bound,
    without_replacement_bound,
)
from statpriv.dist import (
    DatabaseModel,
    Laws,
    Pmf,
    Query,
    binomial_pmf,
    condition,
    count_query,
    lattice_chain,
    mean_query,
    scan_positions,
    sum_query,
)
from statpriv.divergence import (
    PrivacyCurve,
    _aligned,
    _pair_curves,
    default_eps_grid,
    hockey_stick_curve,
    privacy_curve,
    worst_rows,
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
        bound = without_replacement_bound(db, q, m, GRID)
        for eps_prime, delta_prime in zip(bound.grid, bound.values):
            assert_dominates(db, technique, q, eps_prime, delta_prime)
    technique = TemplateDistribution.poisson(n, rate)
    curve = poisson_bound(db, q, rate, GRID)
    for eps, delta in zip(curve.grid, curve.values):
        assert_dominates(db, technique, q, eps, delta)
    for m in (1, 2):
        try:
            bound = with_replacement_bound(db, q, m, GRID)
        except NotSamplableError:
            continue  # refused by the gate: the theorem does not apply
        technique = TemplateDistribution.with_replacement(n, m)
        for eps_prime, delta_prime in zip(bound.grid, bound.values):
            assert_dominates(db, technique, q, eps_prime, delta_prime)


@settings(max_examples=100)
@given(models(iid=True), QUERIES, st.integers(1, 3))
def test_with_replacement_bound_is_dp_subsampling_of_the_drawn_view_curve(db, q, m):
    # The gate sums the laws and rows it has checked into the drawn-view
    # curve; that must be sampling_curve_max's curve, bit for bit.
    n = db.n
    try:
        bound = with_replacement_bound(db, q, m, GRID)
    except NotSamplableError:
        return  # refused by the gate: there is no bound to compare
    curve = sampling_curve_max(db, q, TemplateDistribution.with_replacement(n, m), GRID)
    drawn = min(1.0, math.fsum(binomial_pmf(m, 1.0 / n)[1:]))
    want = dp_subsample(curve, drawn)
    assert [x.hex() for x in bound.grid + bound.values] == [
        x.hex() for x in want.grid + want.values
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
    them merge; or integers above 2^51 and halves above 2^48, whose sums
    and means at n <= 9 lie on both sides of the lattice chain's test that
    answers are distinct (within 4 ulps of their step, and past it). The
    model is i.i.d. or mixes two pmfs on one grid in any arrangement, so
    the positions scanned vary."""
    ulp = 2.0**-16
    picks, shift = draw(
        st.sampled_from((
            ((-1.0, 0.0, 0.5, 1.0, 3.0), 0.0),
            ((0.0, ulp, 2 * ulp, 4 * ulp), 1e11),
            ((0.0, 1.0, 2.0, 3.0), 2.0**51),
            ((0.0, 0.5, 1.0, 2.0), 2.0**48),
        ))
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
    which it must do exactly when two cells of a chain share an answer (the
    laws then have fewer outcomes in all than the chain has cells), and the
    direction of each pair kernel call of the shift scans. A shift d of
    weights W scans (W 0^d, 0^d W), "forward", and (0^d W, W 0^d),
    "backward", unless W is a palindrome; the fallback aligns each pair of
    laws once and scans it both ways."""
    rows = [(0.0,) * len(grid)]
    merges = False
    want = []  # (direction, a, b) per pair kernel call
    for j in scan_positions(db, exchangeable=True):
        chain = lattice_chain(db, j, q)
        laws = chain.pmfs()
        rows.extend(worst_rows(Laws(laws), grid).values())
        reachable = {0}  # the cells the free entries' supports reach
        for entry in db.entries[: j - 1] + db.entries[j:]:
            reachable = {r + s for r in reachable for s, w in zip(chain.steps, entry.weights) if w > 0.0}
        cells = {s + i for s in chain.steps for i in reachable}
        answers = set().union(*(law.outcomes for law in laws.values()))
        assert chain.distinct == (len(answers) == len(cells))
        if chain.distinct:
            weights = chain.weights
            for d in {abs(s - t) for s in chain.steps for t in chain.steps} - {0}:
                a, b = weights + [0.0] * d, [0.0] * d + weights
                want.append(("forward", a, b))
                if weights != weights[::-1]:
                    want.append(("backward", b, a))
        else:
            merges = True
            for mu, nu in combinations(laws.values(), 2):
                a, b = _aligned(mu, nu)
                want += [("pair", a, b), ("pair", b, a)]
    values = [max(col) for col in zip(*rows)]
    with (
        mock.patch.object(divergence, "lattice_chain", wraps=lattice_chain) as chains,
        mock.patch.object(divergence, "worst_rows", wraps=worst_rows) as fallback,
        mock.patch.object(divergence, "_pair_curves", wraps=_pair_curves) as kernel,
    ):
        got = privacy_curve(db, q, grid).values
    assert [v.hex() for v in got] == [v.hex() for v in values]
    assert fallback.called == merges
    # The fallback takes the chain the scan has built: one per position.
    assert chains.call_count == len(scan_positions(db, exchangeable=True))
    assert [call.args[:2] for call in kernel.call_args_list] == [(a, b) for _, a, b in want]
    return merges, [direction for direction, _, _ in want if direction != "pair"]


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


def counting(q):
    """q with its additive declaration's answer counted: the copy and the
    list of (size, total) it has been asked."""
    calls = []

    def additive(values):
        scores, answer, unit = q.additive(values)

        def counted(size, total):
            calls.append((size, total))
            return answer(size, total)

        return scores, counted, unit

    return Query(q.name, q.evaluator, q.monotone, q.empty_answer, additive), calls


@pytest.mark.parametrize(
    "q, shift, n, path",
    [
        # Sums of shift and shift + 1: one unit apart before rounding.
        (sum_query(), 2.0**48, 3, "proof"),  # below 2^50, 4 ulps are 0.5
        (sum_query(), 2.0**48, 4, "walk"),  # 4 ulps are 1: distinct, not proved
        (sum_query(), 2.0**51, 2, "walk"),  # integers below 2^53 are exact
        (sum_query(), 2.0**51, 4, "fallback"),  # above 2^53 the ulp is 2
        # Means: 1/n apart, against an ulp of 2^-4 at 2^48.
        (mean_query(), 2.0**48, 3, "proof"),
        (mean_query(), 2.0**48, 4, "walk"),
        (mean_query(), 2.0**48, 32, "fallback"),
    ],
)
def test_near_threshold_chains_take_the_proof_the_walk_or_the_fallback(q, shift, n, path):
    db = DatabaseModel.iid(Pmf((shift, shift + 1.0), (0.5, 0.5)), n)
    assert shift_scan_against_laws(db, q, GRID)[0] == (path == "fallback")
    counted, calls = counting(q)
    privacy_curve(db, counted, GRID)
    # The proof evaluates the two end answers; the walk every one of the
    # n + 1 cells, and the fallback's laws read those answers back.
    assert len(calls) == {"proof": 2, "walk": 2 + n + 1, "fallback": 2 + n + 1}[path]


def test_the_poisson_sweep_evaluates_two_answers_per_chain():
    counted, calls = counting(count_query())
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 1000)
    builder, builds = amplify.lattice_builder, []

    def logged(grid, q):
        build = builder(grid, q)

        def logged_build(free, budget):
            builds.append(len(free) + 1)
            return build(free, budget)

        return logged_build

    with mock.patch.object(amplify, "lattice_builder", logged), \
            mock.patch.object(amplify, "cell_curve", wraps=amplify.cell_curve) as ceilings, \
            mock.patch.object(divergence, "lattice_chain", wraps=lattice_chain) as curves:
        poisson_bound(db, counted, 0.1, default_eps_grid())
    # One chain per evaluated sample size (229), each built once, and 49
    # ceilings, which read the chain kept from the last size: no ceiling
    # builds one (each would be a repeated size), and no privacy_curve does.
    assert (len(builds), len(set(builds)), ceilings.call_count) == (229, 229, 49)
    assert curves.call_count == 0
    assert len(calls) <= 2 * len(builds)


@settings(max_examples=200)
@given(
    st.one_of(st.booleans().flatmap(models), lattice_models()),
    st.sampled_from((sum_query(), count_query(), mean_query(), Query("max", max, True))),
    st.sets(st.floats(0.0, 3.0), min_size=1, max_size=6).map(sorted).map(tuple),
)
def test_privacy_curve_is_the_curve_a_checked_build_gives(db, q, grid):
    # privacy_curve builds its curve without PrivacyCurve's checks of the
    # values; a checked build of the same values must pass and be equal.
    curve = privacy_curve(db, q, grid)
    assert PrivacyCurve(grid, curve.values) == curve
    assert all(type(x) is float for x in curve.grid + curve.values)


@pytest.mark.parametrize(
    "entry, q, n, directions",
    [
        # Two values of equal weight: the chain is a palindrome at every n.
        (Pmf.bernoulli(0.5), count_query(), 1000, ["forward"]),
        (Pmf((-1.0, 1.0), (0.5, 0.5)), sum_query(), 200, ["forward"]),
        (Pmf.bernoulli(0.3), count_query(), 200, ["forward", "backward"]),
        # The entry is a palindrome, but its chain at n = 300 is not: float
        # addition does not associate, and the two shifts scan both ways.
        (Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)), sum_query(), 300, ["forward", "backward"] * 2),
    ],
    ids=["bern0.5-count", "pm1-sum", "bern0.3-count", "three-valued-sum"],
)
def test_palindromic_chains_scan_one_direction(entry, q, n, directions):
    merges, got = shift_scan_against_laws(DatabaseModel.iid(entry, n), q, default_eps_grid())
    assert not merges
    assert got == directions


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
@given(pmf_pairs())
def test_curve_to_tradeoff_lies_below_both_exact_tradeoffs(pair):
    # The envelope of max(H(mu||nu), H(nu||mu)) on the default grid bounds
    # the trade-off of either orientation from below. A difference of
    # piecewise-linear curves peaks at a breakpoint of one of them; 1e-15
    # is roundoff. Chords over sampled alphas put it 2.4e-4 above a true 0.
    mu, nu = pair
    grid = default_eps_grid()
    values = tuple(map(max, hockey_stick_curve(mu, nu, grid), hockey_stick_curve(nu, mu, grid)))
    envelope = curve_to_tradeoff(PrivacyCurve(grid, values))
    exact = tradeoff_from_pmfs(mu, nu), tradeoff_from_pmfs(nu, mu)
    for x in set(envelope.xs).union(*(fn.xs for fn in exact)):
        assert envelope(x) <= min(fn(x) for fn in exact) + 1e-15, x


@st.composite
def wide_pmf_pairs(draw):
    """(mu, nu) on up to 40 shared outcomes, with float weights of every
    size down to subnormal ones."""
    size = draw(st.integers(1, 40))
    raw_weights = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-290), st.just(5e-324))

    def pmf():
        raw = draw(st.lists(raw_weights, min_size=size, max_size=size))
        raw[0] = max(raw[0], 0.5)
        total = math.fsum(raw)
        return Pmf(tuple(map(float, range(size))), tuple(r / total for r in raw))

    return pmf(), pmf()


def tradeoff_by_fsum(mu, nu):
    """The breakpoints of tradeoff_from_pmfs, one fsum per breakpoint over
    the rows in its order."""
    rows = sorted(((a, mu.prob(a), nu.prob(a)) for a in nu.support), key=lambda r: (r[1] / r[2], r[0]))
    xs, ys = [], []
    for k in range(len(rows), -1, -1):
        x = math.fsum(r[2] for r in rows[k:])
        if xs and x == xs[-1]:
            del xs[-1], ys[-1]
        xs.append(x)
        ys.append(math.fsum(r[1] for r in rows[:k]))
    xs[-1] = 1.0
    return tuple(xs), tuple(ys)


@settings(max_examples=400)
@given(st.one_of(pmf_pairs(), wide_pmf_pairs()))
def test_tradeoff_breakpoints_are_fsums_bit_for_bit(pair):
    fn = tradeoff_from_pmfs(*pair)
    assert (fn.xs, fn.ys) == tradeoff_by_fsum(*pair)


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
