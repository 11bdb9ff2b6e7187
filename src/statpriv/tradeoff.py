"""Piecewise-linear trade-off curves and their conversions.

A trade-off curve maps a type I error level to the least achievable type II
error when testing one distribution against another. Everything here is
piecewise linear, convex and nonincreasing on [0, 1].
"""

from __future__ import annotations

import bisect
import itertools
import math

from .dist import Pmf, _Value
from .divergence import PrivacyCurve, _exp_grid

HULL_TOL = 1e-12
INVERSE_TOL = 1e-9


class TradeoffFn(_Value):
    """Piecewise-linear trade-off curve given by its breakpoints."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __init__(self, xs: tuple[float, ...], ys: tuple[float, ...]):
        self.__dict__.update(xs=tuple(float(x) for x in xs), ys=tuple(float(y) for y in ys))
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if len(self.xs) < 2:
            raise ValueError("a trade-off curve needs at least two breakpoints")
        if self.xs[0] != 0.0 or self.xs[-1] != 1.0:
            raise ValueError("breakpoints must span [0, 1] exactly")
        for prev, nxt in zip(self.xs, self.xs[1:]):
            if not nxt > prev:
                raise ValueError("breakpoint x values must be strictly increasing")
        for y in self.ys:
            if not -HULL_TOL <= y <= 1.0 + HULL_TOL:
                raise ValueError(f"value {y} outside [0, 1]")
        for prev, nxt in zip(self.ys, self.ys[1:]):
            if nxt > prev + HULL_TOL:
                raise ValueError("values must be nonincreasing")
        for i in range(len(self.xs) - 2):
            x0, x1, x2 = self.xs[i], self.xs[i + 1], self.xs[i + 2]
            y0, y1, y2 = self.ys[i], self.ys[i + 1], self.ys[i + 2]
            if (y2 - y1) * (x1 - x0) < (y1 - y0) * (x2 - x1) - HULL_TOL:
                raise ValueError("breakpoints must be convex")

    def __call__(self, x: float) -> float:
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"argument {x} outside [0, 1]")
        xs, ys = self.xs, self.ys
        i = bisect.bisect_right(xs, x) - 1
        if xs[i] == x:
            return ys[i]
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])


def _lower_hull(points) -> list[tuple[float, float]]:
    """Lower convex hull of `points`, the lowest y kept at each x, by
    monotone chain; a tolerance would drop true vertices where values are
    small, so none is used."""
    hull: list[tuple[float, float]] = []
    for _, same_x in itertools.groupby(sorted(points), key=lambda xy: xy[0]):
        pt = next(same_x)
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) > 0.0:
                break
            hull.pop()
        hull.append(pt)
    return hull


_UNIT = 1 << 1074  # 1.0 in units of 2^-1074, the least subnormal


def _units(w: float) -> int:
    """The float w >= 0 as an exact integer count of 2^-1074."""
    num, den = w.as_integer_ratio()
    return num << (1075 - den.bit_length())


def tradeoff_from_pmfs(mu: Pmf, nu: Pmf) -> TradeoffFn:
    """Optimal testing trade-off distinguishing mu from nu.

    Outcomes carrying nu mass are sorted by mu/nu likelihood ratio and
    accumulated into acceptance sets; type I error is read off nu, type II
    off mu. Randomizing between adjacent sets fills in the line segments.
    Outcomes where only mu puts mass never enter an optimal acceptance set,
    which is why the curve starts at T(0) = 1 - mu(off nu's support).

    This orientation is the one under which 1 + conjugate(T, -e^eps) equals
    hockey_stick_divergence(mu, nu, eps).
    """
    rows = [(a, mu.prob(a), nu.prob(a)) for a in nu.support]
    rows.sort(key=lambda r: (r[1] / r[2], r[0]))
    # Each breakpoint is an exact sum of weights, correctly rounded as fsum
    # rounds it: weights are integer multiples of 2^-1074, summed as ints.
    nu_tails = itertools.accumulate((_units(r[2]) for r in reversed(rows)), initial=0)
    mu_heads = list(itertools.accumulate((_units(r[1]) for r in rows), initial=0))
    xs = []
    ys = []
    for nu_tail, mu_head in zip(nu_tails, reversed(mu_heads)):
        x = nu_tail / _UNIT
        if xs and x == xs[-1]:  # nu mass below one ulp of x: keep the
            del xs[-1], ys[-1]  # larger set, whose type II error is lower
        xs.append(x)
        ys.append(mu_head / _UNIT)
    xs[-1] = 1.0
    return TradeoffFn(tuple(xs), tuple(ys))


def conjugate(fn: TradeoffFn, slope: float) -> float:
    """Convex conjugate sup_x (slope * x - fn(x)), exact at breakpoints."""
    return max(slope * x - y for x, y in zip(fn.xs, fn.ys))


def inverse(fn: TradeoffFn) -> TradeoffFn:
    """Pointwise smallest inverse, again a trade-off curve: the lower hull of
    the breakpoints with x and y swapped, and of (0, 1) and (1, 0).

    Requires fn(1) = 0 up to 1e-9: otherwise the literal inverse jumps to 1
    below fn(1) and stops being convex.
    """
    if fn.ys[-1] > INVERSE_TOL:
        raise ValueError(f"inverse needs fn(1) = 0, got fn(1) = {fn.ys[-1]}")
    swapped = [(min(1.0, max(0.0, y)), x) for x, y in zip(fn.xs, fn.ys)]
    return TradeoffFn(*zip(*_lower_hull([(0.0, 1.0), (1.0, 0.0), *swapped])))


def p_sample(fn: TradeoffFn, p: float) -> TradeoffFn:
    """Mix the curve with blind guessing: p fn(x) + (1 - p)(1 - x)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    ys = tuple(p * y + (1.0 - p) * (1.0 - x) for x, y in zip(fn.xs, fn.ys))
    return TradeoffFn(fn.xs, ys)


def subsampling_operator(fn: TradeoffFn, p: float) -> TradeoffFn:
    """Symmetrized subsampling envelope at rate p.

    Convex closure of the pointwise minimum of p_sample(fn, p) and its
    inverse: the lower hull of that minimum on the union of their
    breakpoints. Between two of them both curves are linear, so the minimum
    is concave there and lies above its chord; a crossing of the two is
    never a vertex.
    """
    mixed = p_sample(fn, p)
    inv = inverse(mixed)
    pts = [(x, min(mixed(x), inv(x))) for x in set(mixed.xs) | set(inv.xs)]
    return TradeoffFn(*zip(*_lower_hull(pts)))


def curve_to_tradeoff(curve: PrivacyCurve) -> TradeoffFn:
    """Trade-off lower envelope implied by a privacy curve: the maximum of 0
    and, for each (eps, delta), the lines 1 - delta - e^eps a and
    e^-eps (1 - delta - a).

    Line c - s a is read as the point (s, c). The upper hull of the points
    holds the leading lines in order of s, and adjacent ones cross at the
    slope of the edge between them; the crossings in (0, 1) are the
    envelope's breakpoints, and its value there is exact to roundoff.
    """
    lines = [(0.0, 0.0)]  # line c - s a as (s, -c), whose lower hull is (s, c)'s upper
    for grow, e, d in zip(_exp_grid(curve.grid), curve.grid, curve.values):
        shrink = math.exp(-e)
        lines += [(grow, d - 1.0), (shrink, -shrink * (1.0 - d))]
    leading = _lower_hull(lines)
    pts = [(a, max(0.0, *(-h - s * a for s, h in leading))) for a in (0.0, 1.0)]
    for (s0, h0), (s1, h1) in zip(leading, leading[1:]):
        a = (h0 - h1) / (s1 - s0)
        if 0.0 < a < 1.0:
            pts.append((a, max(0.0, -h0 - s0 * a, -h1 - s1 * a)))
    return TradeoffFn(*zip(*_lower_hull(pts)))


def tradeoff_to_delta(fn: TradeoffFn, eps: float) -> float:
    """Delta at eps recovered from the trade-off curve by conjugation."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    return min(1.0, max(0.0, 1.0 + conjugate(fn, -_exp_grid((eps,))[0])))


def subsampled_tradeoff(fn: TradeoffFn, n: int, m: int) -> TradeoffFn:
    """Subsampling envelope for m-of-n sampling without replacement."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return subsampling_operator(fn, m / n)
