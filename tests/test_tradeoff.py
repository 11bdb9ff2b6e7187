"""Trade-off curves: construction, conjugation, inversion, subsampling."""

import itertools
import math
import random

import pytest

from statpriv.dist import DatabaseModel, Pmf, lattice_chain, sum_query
from statpriv.divergence import PrivacyCurve, hockey_stick_divergence, privacy_curve
from statpriv.tradeoff import (
    TradeoffFn,
    conjugate,
    curve_to_tradeoff,
    inverse,
    p_sample,
    subsampled_tradeoff,
    subsampling_operator,
    tradeoff_from_pmfs,
    tradeoff_to_delta,
)

TOL = 1e-12
DUAL_TOL = 1e-9


def pmf(d):
    return Pmf.from_pairs(d.items())


def test_tradeoff_fn_validation():
    fn = TradeoffFn((0.0, 0.25, 1.0), (1.0, 0.25, 0.0))
    assert fn(0.0) == 1.0
    assert fn(0.25) == 0.25
    assert abs(fn(0.625) - 0.125) <= TOL  # interpolation on the last segment
    with pytest.raises(ValueError):
        TradeoffFn((0.0, 1.0), (0.5, 1.0))  # increasing
    with pytest.raises(ValueError):
        TradeoffFn((0.0, 0.5, 1.0), (1.0, 0.9, 0.0))  # concave kink
    with pytest.raises(ValueError):
        TradeoffFn((0.1, 1.0), (1.0, 0.0))  # must start at 0


def test_tradeoff_from_pmfs_symmetric_pair():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    assert fn.xs == (0.0, 0.25, 1.0)
    assert fn.ys == (1.0, 0.25, 0.0)


def test_tradeoff_at_zero_alpha():
    # T(0) = 1 - mu-mass outside nu's support: rejecting nothing is the only
    # test with zero type-I error unless nu leaves a hole
    mu = pmf({0.0: 0.6, 2.0: 0.4})
    nu = pmf({0.0: 1.0})
    fn = tradeoff_from_pmfs(mu, nu)
    assert fn(0.0) == 0.6


def test_duality_on_hand_pair():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    for eps in (0.0, 0.5, math.log(2.5), 2.0):
        want = hockey_stick_divergence(mu, nu, eps)
        got = 1.0 + conjugate(fn, -math.exp(eps))
        assert abs(got - want) <= TOL
    assert hockey_stick_divergence(mu, nu, math.log(2.5)) == 0.125


def test_duality_on_asymmetric_pair():
    mu = pmf({0.0: 0.9, 1.0: 0.1})
    nu = pmf({0.0: 0.4, 1.0: 0.6})
    fn = tradeoff_from_pmfs(mu, nu)
    for eps in (0.0, 0.3, 1.0):
        want = hockey_stick_divergence(mu, nu, eps)
        got = 1.0 + conjugate(fn, -math.exp(eps))
        assert abs(got - want) <= TOL


def test_duality_random_pairs():
    rng = random.Random(20240817)
    for _ in range(60):
        k = rng.randint(2, 6)
        mu_w = [rng.random() for _ in range(k)]
        nu_w = [rng.random() for _ in range(k)]
        mu = pmf({float(i): w / sum(mu_w) for i, w in enumerate(mu_w)})
        nu = pmf({float(i): w / sum(nu_w) for i, w in enumerate(nu_w)})
        fn = tradeoff_from_pmfs(mu, nu)
        for eps in (0.0, 0.5, 1.0):
            want = hockey_stick_divergence(mu, nu, eps)
            got = 1.0 + conjugate(fn, -math.exp(eps))
            assert abs(got - want) <= DUAL_TOL


def test_inverse_and_round_trip():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    inv = inverse(fn)
    # this pair is symmetric, so the curve is its own inverse
    assert inv.xs == fn.xs and inv.ys == fn.ys
    back = inverse(inv)
    assert back.xs == fn.xs and back.ys == fn.ys


def test_inverse_refuses_positive_tail():
    fn = TradeoffFn((0.0, 1.0), (1.0, 0.5))
    with pytest.raises(ValueError):
        inverse(fn)


def test_p_sample():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    ps = p_sample(fn, 0.5)
    assert ps.xs == (0.0, 0.25, 1.0)
    assert ps.ys == (1.0, 0.5, 0.0)
    ident = p_sample(fn, 1.0)
    assert ident.ys == fn.ys


def test_subsampling_operator():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    op = subsampling_operator(fn, 0.5)
    assert op.xs == (0.0, 0.25, 0.5, 1.0)
    assert op.ys == (1.0, 0.5, 0.25, 0.0)
    # subsampling a perfect curve cannot create distinguishability
    perfect = TradeoffFn((0.0, 1.0), (1.0, 0.0))
    assert subsampling_operator(perfect, 0.5).ys == (1.0, 0.0)
    # the envelope dominates the raw p-sampled curve nowhere
    ps = p_sample(fn, 0.5)
    for x in (0.0, 0.1, 0.25, 0.4, 0.5, 0.8, 1.0):
        assert op(x) <= ps(x) + TOL


def test_subsampling_operator_symmetry():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    op = subsampling_operator(tradeoff_from_pmfs(mu, nu), 0.5)
    inv = inverse(op)
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(op(x) - inv(x)) <= TOL


def test_subsampled_tradeoff_matches_operator_at_rate():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    st = subsampled_tradeoff(fn, 4, 2)
    op = subsampling_operator(fn, 0.5)
    assert st.xs == op.xs and st.ys == op.ys
    with pytest.raises(ValueError):
        subsampled_tradeoff(fn, 2, 3)


@pytest.mark.parametrize("n, m", [(10, 5), (100, 50), (100, 10)])
@pytest.mark.parametrize(
    "entry",
    [Pmf.bernoulli(0.5), Pmf.bernoulli(0.3), Pmf((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))],
    ids=["bern0.5", "bern0.3", "three-valued"],
)
def test_subsampling_operator_lies_below_both_sampled_curves(entry, n, m):
    # The operator is the convex closure of min(f_p, f_p^-1). A hull that
    # dropped vertices by an absolute tolerance put chords up to 4.6e-7
    # above that minimum where the values are small (bern(0.3), n = 100,
    # m = 50).
    laws = lattice_chain(DatabaseModel.iid(entry, m), 1, sum_query()).pmfs()
    for v, w in itertools.permutations(laws, 2):
        fn = tradeoff_from_pmfs(laws[v], laws[w])
        mixed = p_sample(fn, m / n)
        inv = inverse(mixed)
        op = subsampled_tradeoff(fn, n, m)
        for x in set(mixed.xs) | set(inv.xs):
            assert op(x) <= min(mixed(x), inv(x)), (v, w, x)


def test_curve_to_tradeoff_round_trip():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    grid = (0.0, 0.25, 0.5, 1.0)
    curve = privacy_curve(db, sum_query(), grid)
    fn = curve_to_tradeoff(curve)
    for eps, want in zip(grid, curve.values):
        got = tradeoff_to_delta(fn, eps)
        # the envelope is exact at its breakpoints, so recovery gives the
        # delta back to roundoff
        assert got <= want + TOL
        assert abs(got - want) <= 1e-15


def test_curve_to_tradeoff_of_randomized_response_bends_once():
    # (1, 0)-DP is randomized response at eps 1: max(1 - e a, (1 - a) / e)
    # crosses itself at a = 1/(1+e), where both lines give 1/(1+e).
    fn = curve_to_tradeoff(PrivacyCurve((1.0,), (0.0,)))
    knee = 1.0 / (1.0 + math.e)
    assert len(fn.xs) == 3
    for got, want in zip(zip(fn.xs, fn.ys), ((0.0, 1.0), (knee, knee), (1.0, 0.0))):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15, (got, want)


def test_tradeoff_to_delta_names_an_eps_too_large_for_e_to_the_eps():
    with pytest.raises(OverflowError, match="eps 800.0 is too large"):
        tradeoff_to_delta(TradeoffFn((0.0, 1.0), (1.0, 0.0)), 800.0)


def test_curve_to_tradeoff_names_an_eps_too_large_for_e_to_the_eps():
    with pytest.raises(OverflowError, match="eps 800.0 is too large"):
        curve_to_tradeoff(PrivacyCurve((0.0, 800.0), (0.5, 0.0)))


def test_tradeoff_to_delta_on_exact_curve():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    fn = tradeoff_from_pmfs(mu, nu)
    assert abs(tradeoff_to_delta(fn, math.log(2.5)) - 0.125) <= TOL
    assert abs(tradeoff_to_delta(fn, 0.0) - 0.5) <= TOL


def test_conjugate_hand_value():
    fn = TradeoffFn((0.0, 1.0), (1.0, 0.0))
    # sup_x (s x - (1 - x)) attained at x = 1 for s > -1
    assert conjugate(fn, -0.5) == -0.5
    assert conjugate(fn, -2.0) == -1.0  # attained at x = 0
