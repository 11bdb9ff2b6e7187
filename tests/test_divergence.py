"""Hockey-stick divergence, privacy curves, half-line checker."""

import math
import random
import re

import pytest

from statpriv.dist import (
    DatabaseModel,
    Pmf,
    Query,
    condition,
    count_query,
    mean_query,
    sum_query,
)
from statpriv.divergence import (
    PrivacyCurve,
    _pair_curves,
    default_eps_grid,
    half_line_check,
    hockey_stick_curve,
    hockey_stick_divergence,
    privacy_curve,
)
from statpriv.sampling import TemplateDistribution, sampled_pushforward

TOL = 1e-12
LN2 = math.log(2.0)


def pmf(d):
    return Pmf.from_pairs(d.items())


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


def naive_pair(a, b, eps):
    """min(1, fsum of (a - e^eps b)+) per outcome, the definition."""
    scale = math.exp(eps)
    return min(1.0, math.fsum(max(0.0, x - scale * y) for x, y in zip(a, b)))


TINY = 5e-324  # the least subnormal


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75], id="disjoint"),
        pytest.param([0.5, 0.0, 0.5, 0.0], [0.25, 0.0, 0.0, 0.75], id="zero-weights"),
        pytest.param(
            [1.0 - 3 * TINY, 3 * TINY, 2 * TINY, 0.0],
            [1.0 - 5 * TINY, TINY, 3 * TINY, TINY],
            id="subnormal",
        ),
        # Three outcomes share the ratio b / a = 1/2, which e^eps crosses
        # at eps = ln 2, and three the ratio 2 for the other direction.
        pytest.param(
            [0.25, 0.125, 0.0625, 0.03125, 0.0625, 0.09375, 0.375],
            [0.125, 0.0625, 0.03125, 0.0625, 0.125, 0.1875, 0.40625],
            id="equal-ratios",
        ),
    ],
)
def test_pair_kernel_gives_both_directions_of_the_definition_bit_for_bit(a, b):
    grid = [0.0, 0.5, 1.0, 3.0]
    near = [LN2]
    for _ in range(4):
        near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], 1.0)]
    grid = tuple(grid + near)
    # One call scans one direction; the other is the call on (b, a).
    forward, backward = _pair_curves(a, b, grid), _pair_curves(b, a, grid)
    assert [x.hex() for x in forward] == [naive_pair(a, b, e).hex() for e in grid]
    assert [x.hex() for x in backward] == [naive_pair(b, a, e).hex() for e in grid]
    # The kernel's order of outcomes does not matter: the mirror rule of
    # cell_curve reads one direction of a palindrome as the other.
    assert _pair_curves(a[::-1], b[::-1], grid) == forward
    assert _pair_curves(b[::-1], a[::-1], grid) == backward


@pytest.mark.parametrize("eps", [-0.1, -math.inf, math.inf, math.nan])
def test_pair_kernel_refuses_a_negative_or_non_finite_eps(eps):
    # The bad eps first, in the middle and last of the grid; with a second
    # bad eps (-2.0) after it, the message still names the first.
    grids = [(eps,), (eps, 0.5, 1.0), (0.0, eps, 1.0), (0.0, 0.5, eps), (0.0, eps, -2.0)]
    named = rf"finite and nonnegative, got {re.escape(str(eps))}$"
    for grid in grids:
        for a, b in (([0.5, 0.5], [0.25, 0.75]), ([0.25, 0.75], [0.5, 0.5])):
            with pytest.raises(ValueError, match=named):
                _pair_curves(a, b, grid)
        with pytest.raises(ValueError, match=named):
            hockey_stick_curve(pmf({0.0: 1.0}), pmf({1.0: 1.0}), grid)
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        _pair_curves([0.5, 0.5], [0.25, 0.75], (0.0, -2.0, eps))


@pytest.mark.parametrize(
    "grid, values, message",
    [
        ((0.0, -1.0, math.nan), (0.5, 0.4, 0.3), "eps must be finite and nonnegative, got -1.0"),
        ((0.0, math.nan, -1.0), (0.5, 0.4, 0.3), "eps must be finite and nonnegative, got nan"),
        ((0.0, math.inf), (0.5, 0.4), "eps must be finite and nonnegative, got inf"),
        ((0.0, 2.0, 1.0), (0.5, 0.4, 0.3), "strictly increasing"),
        ((0.0, 1.0, 1.0), (0.5, 0.4, 0.3), "strictly increasing"),
        ((0.0, 1.0, 2.0), (0.5, math.nan, 2.0), "delta value nan outside"),
        ((0.0, 1.0, 2.0), (0.5, 2.0, math.nan), "delta value 2.0 outside"),
        ((0.0, 1.0), (1.0 + 2e-12, 0.5), "outside [0, 1]"),
        ((0.0, 1.0), (-math.inf, -math.inf), "delta value -inf outside"),
        ((0.0, 1.0), (0.5, -2e-12), "delta value -2e-12 outside"),
        ((0.0, 1.0, 2.0), (0.5, 0.4, 0.4 + 2e-12), "nonincreasing"),
    ],
)
def test_privacy_curve_names_its_first_fault(grid, values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PrivacyCurve(grid, values)


def test_privacy_curve_takes_values_within_its_tolerance():
    values = (1.0 + 5e-13, 1.0 + 5e-13, 0.4, 0.4 + 5e-13, -5e-13)
    c = PrivacyCurve((0, 1, 2, 3, 4), values)
    assert c.values == values and c.grid == (0.0, 1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "q", [sum_query(), Query("max", max, monotone=True)], ids=["chain", "multiset"]
)
def test_privacy_curve_of_a_one_outcome_entry_is_zero(q):
    # No pair of distinct values to scan: the curve is 0.0 at every eps.
    curve = privacy_curve(DatabaseModel.iid(Pmf.point(1.0), 3), q, (0.0, 0.5, 1.0))
    assert [v.hex() for v in curve.values] == [(0.0).hex()] * 3


@pytest.mark.parametrize(
    "grid, message",
    [
        ((-0.5, 0.0), "eps must be finite and nonnegative, got -0.5"),
        ((0.0, math.nan), "eps must be finite and nonnegative, got nan"),
        ((0.5, 0.0), "epsilon grid must be strictly increasing"),
        ((), "a curve needs at least one grid point"),
    ],
)
@pytest.mark.parametrize("entry", [Pmf.point(1.0), Pmf.bernoulli(0.5)], ids=["point", "bern"])
def test_privacy_curve_words_a_bad_grid_one_way_with_or_without_pairs(entry, grid, message):
    # A one-outcome entry scans no pair, bern(0.5) one: the grid is checked
    # before either, as PrivacyCurve checks it.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        privacy_curve(DatabaseModel.iid(entry, 3), sum_query(), grid)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PrivacyCurve(grid, (0.0,) * len(grid))


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
    for outside in (3.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="outside the curve grid"):
            c.value_at(outside)
    with pytest.raises(ValueError):
        PrivacyCurve((0.5, 1.0), (0.7, 0.2)).value_at(0.0)
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


def test_privacy_curve_bernoulli_three():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    c = privacy_curve(db, sum_query(), (0.0, LN2, 1.0))
    assert c.values == (0.5, 0.25, 0.25)


def test_privacy_curve_fast_path_matches_generic():
    # On 0/1 entries count, sum and mean tell the same samples apart (the
    # mean is the sum over n), so their curves, each built on the lattice
    # chain, must agree.
    grid = (0.0, 0.3, 1.0)
    for n in (2, 5, 8):
        for p in (0.3, 0.5):
            db = DatabaseModel.iid(Pmf.bernoulli(p), n)
            fast = privacy_curve(db, count_query(), grid)
            slow = privacy_curve(db, mean_query(), grid)
            direct = privacy_curve(db, sum_query(), grid)
            assert all(abs(x - y) <= TOL for x, y in zip(fast.values, direct.values))
            assert all(abs(x - y) <= TOL for x, y in zip(slow.values, direct.values))
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
    assert half_line_check(a, b, (0.0,)) is None
    # at eps 1 the difference is -,+,- : genuinely not a half line
    assert half_line_check(a, b, (1.0,)) == (1.0, 2.0)


def test_half_line_check_passes_shifted_binomials():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    t = TemplateDistribution.without_replacement(3, 2)
    hi = sampled_pushforward(condition(db, 1, 1.0), t.given_drawn(1), sum_query())
    lo = sampled_pushforward(condition(db, 1, 0.0), t.given_drawn(1), sum_query())
    assert half_line_check(hi, lo, default_eps_grid()) is None


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
