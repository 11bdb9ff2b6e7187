"""Privacy loss, hockey-stick divergence, privacy curves, half-line checker."""

import math
import random

import pytest

from statpriv.dist import DatabaseModel, Pmf, condition, count_query, mean_query, sum_query
from statpriv.divergence import (
    PrivacyCurve,
    default_eps_grid,
    half_line_check,
    hockey_stick_curve,
    hockey_stick_divergence,
    privacy_curve,
    privacy_loss,
)
from statpriv.sampling import TemplateDistribution, sampled_pushforward

TOL = 1e-12
LN2 = math.log(2.0)


def pmf(d):
    return Pmf.from_pairs(d.items())


def test_privacy_loss_values():
    a = pmf({0.0: 0.5, 1.0: 0.5})
    b = pmf({0.0: 0.25, 1.0: 0.75})
    assert abs(privacy_loss(a, b, 0.0) - LN2) <= TOL
    assert abs(privacy_loss(a, b, 1.0) - math.log(0.5 / 0.75)) <= TOL


def test_privacy_loss_conventions():
    a = pmf({0.0: 0.5, 1.0: 0.5})
    b = pmf({0.0: 1.0})
    assert privacy_loss(a, b, 1.0) == math.inf
    assert privacy_loss(b, a, 1.0) == -math.inf
    assert privacy_loss(a, b, 0.0) == math.log(0.5 / 1.0)
    with pytest.raises(ValueError):
        privacy_loss(a, b, 7.0)  # off both supports


def test_hockey_stick_hand_values():
    a = pmf({0.0: 0.5, 1.0: 0.5})
    b = pmf({0.0: 0.5, 2.0: 0.5})
    # eps 0 is total variation
    assert hockey_stick_divergence(a, b, 0.0) == 0.5
    # the positive part sits on outcome 1 alone regardless of eps
    assert hockey_stick_divergence(a, b, 1.0) == 0.5
    assert hockey_stick_divergence(a, a, 0.0) == 0.0


def test_hockey_stick_decreases_in_eps():
    a = pmf({0.0: 0.75, 1.0: 0.25})
    b = pmf({0.0: 0.25, 1.0: 0.75})
    prev = 1.0
    for eps in (0.0, 0.25, 0.5, 1.0, 2.0):
        cur = hockey_stick_divergence(a, b, eps)
        assert cur <= prev + TOL
        prev = cur
    assert hockey_stick_divergence(a, b, math.log(2.5)) == 0.125


def test_hockey_stick_curve_keeps_outcomes_at_the_ratio_boundary():
    # e^eps within a few ulps of mu(0) / nu(0) = 2: the term
    # 0.5 - e^eps * 0.25 is a few ulps above or below 0, and the bisection
    # on nu / mu must still hand every positive one to the exact test.
    a = pmf({0.0: 0.5, 1.0: 0.5})
    b = pmf({0.0: 0.25, 1.0: 0.75})
    grid = [LN2]
    for _ in range(4):
        grid = [math.nextafter(grid[0], 0.0), *grid, math.nextafter(grid[-1], 1.0)]
    values = hockey_stick_curve(a, b, tuple(grid))
    assert values == tuple(max(0.0, 0.5 - math.exp(e) * 0.25) for e in grid)
    assert any(0.0 < v < 1e-15 for v in values) and values[-1] == 0.0


def test_hockey_stick_asymmetry():
    a = pmf({0.0: 0.9, 1.0: 0.1})
    b = pmf({0.0: 0.4, 1.0: 0.6})
    assert hockey_stick_divergence(a, b, 0.3) != hockey_stick_divergence(b, a, 0.3)


def test_default_eps_grid():
    g = default_eps_grid()
    assert g[0] == 0.0
    assert g[-1] == 3.0
    assert len(g) == 61
    assert all(x < y for x, y in zip(g, g[1:]))


def test_privacy_curve_object():
    c = PrivacyCurve((0.0, 1.0, 2.0), (0.5, 0.2, 0.1))
    assert c.value_at(1.0) == 0.2
    # chord in e^eps: 0.5 - 0.3 (sqrt(e) - 1) / (e - 1), above the eps chord 0.35
    want = 0.5 - 0.3 * (math.sqrt(math.e) - 1.0) / (math.e - 1.0)
    assert abs(c.value_at(0.5) - want) <= TOL
    with pytest.raises(ValueError):
        c.value_at(3.0)
    assert c.value_at(3.0, extrapolate=True) == 0.1
    with pytest.raises(ValueError):
        PrivacyCurve((0.0, 1.0), (0.2, 0.5))  # must be nonincreasing
    with pytest.raises(ValueError):
        PrivacyCurve((1.0, 0.0), (0.5, 0.2))  # grid must increase


def test_value_at_bounds_the_curve_between_grid_points():
    # One pair: delta is affine in e^eps, so the chord is exact (0.25 in eps).
    mu, nu = pmf({0.0: 1.0}), pmf({0.0: 0.5, 1.0: 0.5})
    pair = PrivacyCurve((0.0, LN2), tuple(hockey_stick_divergence(mu, nu, e) for e in (0.0, LN2)))
    assert abs(pair.value_at(LN2 / 2) - (1.0 - math.sqrt(0.5))) <= TOL
    # bern(0.3) count, n=5: a chord in eps falls up to 0.0097 below the curve.
    db = DatabaseModel.iid(Pmf.bernoulli(0.3), 5)
    coarse = privacy_curve(db, count_query(), tuple(0.5 * i for i in range(7)))
    dense = privacy_curve(db, count_query(), tuple(round(0.01 * i, 10) for i in range(301)))
    for eps, exact in zip(dense.grid, dense.values):
        assert coarse.value_at(eps) >= exact - 1e-15, eps


def test_value_at_below_the_grid_is_an_upper_bound():
    # delta(0) = 0.8, but delta(0.5) = 0.9 - 0.1 e^0.5 = 0.7351: the first
    # grid value is no bound below the grid. From eps to 0.5 delta drops by
    # at most e^0.5 - e^eps.
    mu, nu = pmf({0.0: 0.9, 1.0: 0.1}), pmf({0.0: 0.1, 1.0: 0.9})
    grid = (0.5, 1.0, 2.0)
    c = PrivacyCurve(grid, tuple(hockey_stick_divergence(mu, nu, e) for e in grid))
    assert abs(hockey_stick_divergence(mu, nu, 0.0) - 0.8) <= TOL
    assert c.value_at(0.0, extrapolate=True) == 1.0
    for eps in (0.0, 0.2, 0.45, 0.49):
        got = c.value_at(eps, extrapolate=True)
        assert got == min(1.0, c.values[0] + math.exp(0.5) - math.exp(eps))
        assert got >= hockey_stick_divergence(mu, nu, eps), eps
    with pytest.raises(ValueError):
        c.value_at(0.0)


def test_privacy_curve_bernoulli_three():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    c = privacy_curve(db, sum_query(), (0.0, LN2, 1.0))
    assert c.values == (0.5, 0.25, 0.25)


def test_privacy_curve_fast_path_matches_generic():
    # counting fast path must agree with the generic product enumeration
    grid = (0.0, 0.3, 1.0)
    for n in (2, 5, 8):
        for p in (0.3, 0.5):
            db = DatabaseModel.iid(Pmf.bernoulli(p), n)
            fast = privacy_curve(db, count_query(), grid)
            slow = privacy_curve(db, mean_query(), grid)
            # mean has no fast path; count equals n * mean scaled answers, so
            # compare count against sum instead, which also bypasses via the
            # same convolution route only on two-valued entries
            direct = privacy_curve(db, sum_query(), grid)
            assert all(abs(x - y) <= TOL for x, y in zip(fast.values, direct.values))
            assert slow.grid == grid


def test_privacy_curve_positionality():
    # one lopsided entry: the worst position must drive the curve
    entries = (Pmf.bernoulli(0.5), Pmf.bernoulli(0.01))
    db = DatabaseModel(entries)
    c = privacy_curve(db, sum_query(), (0.0,))
    d1 = hockey_stick_divergence(
        pmf({1.0: 0.99, 2.0: 0.01}), pmf({0.0: 0.99, 1.0: 0.01}), 0.0
    )
    assert abs(c.values[0] - d1) <= TOL


def test_half_line_check_strict_vs_relaxed():
    a = pmf({0.0: 0.5, 1.0: 0.5})
    b = pmf({0.0: 0.5, 2.0: 0.5})
    # at eps 0 the difference is 0,+,- : strictly-positive set is interior,
    # but the zero at outcome 0 lets a half line be chosen
    strict = half_line_check(a, b, (0.0,))
    assert not strict.ok
    assert strict.eps == 0.0 and strict.outcome == 1.0
    relaxed = half_line_check(a, b, (0.0,), strict=False)
    assert relaxed.ok
    assert relaxed.eps is None and relaxed.outcome is None
    # at eps 1 the difference is -,+,- : genuinely not a half line
    relaxed1 = half_line_check(a, b, (1.0,), strict=False)
    assert not relaxed1.ok
    assert relaxed1.eps == 1.0 and relaxed1.outcome == 2.0


def test_half_line_check_passes_shifted_binomials():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    t = TemplateDistribution.without_replacement(3, 2)
    hi = sampled_pushforward(condition(db, 1, 1.0), t.given_drawn(1), sum_query())
    lo = sampled_pushforward(condition(db, 1, 0.0), t.given_drawn(1), sum_query())
    res = half_line_check(hi, lo, default_eps_grid())
    assert res.ok
    assert bool(res)


def test_single_draw_mean_value_inequality():
    # divergence to the unconditioned mixture never beats the worst
    # conditioned pair when one index is drawn uniformly
    rng = random.Random(7)
    q = sum_query()
    for _ in range(25):
        n = rng.randint(2, 4)
        p = round(rng.uniform(0.1, 0.9), 3)
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        t1 = TemplateDistribution.without_replacement(n, 1)
        full = sampled_pushforward(db, t1, q)
        for eps in (0.0, 0.5, 1.0):
            for v in (0.0, 1.0):
                left = sampled_pushforward(condition(db, 1, v), t1, q)
                lhs = hockey_stick_divergence(left, full, eps)
                rhs = max(
                    hockey_stick_divergence(
                        left, sampled_pushforward(condition(db, 1, w), t1, q), eps
                    )
                    for w in (0.0, 1.0)
                )
                assert lhs <= rhs + TOL
