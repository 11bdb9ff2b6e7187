"""Piecewise-linear trade-off curves and their conversions.

A trade-off curve maps a type I error level to the least achievable type II
error when testing one distribution against another. Everything here is
piecewise linear, convex and nonincreasing on [0, 1].
"""

from __future__ import annotations

import math

from .dist import Pmf, _Value
from .divergence import PrivacyCurve

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
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= x:
                lo = mid
            else:
                hi = mid
        if xs[lo] == x:
            return ys[lo]
        t = (x - xs[lo]) / (xs[hi] - xs[lo])
        return ys[lo] + t * (ys[hi] - ys[lo])


def _lower_hull(points):
    """Lower convex hull of x-sorted points, by monotone chain; a tolerance
    would drop true vertices where values are small, so none is used."""
    cleaned = []
    for x, y in points:
        if cleaned and x == cleaned[-1][0]:
            if y < cleaned[-1][1]:
                cleaned[-1] = (x, y)
            continue
        cleaned.append((x, y))
    hull: list[tuple[float, float]] = []
    for pt in cleaned:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            cross = (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


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
    xs = []
    ys = []
    for k in range(len(rows), -1, -1):
        x = math.fsum(r[2] for r in rows[k:])
        if xs and x == xs[-1]:  # nu mass below one ulp of x: keep the
            del xs[-1], ys[-1]  # larger set, whose type II error is lower
        xs.append(x)
        ys.append(math.fsum(r[1] for r in rows[:k]))
    xs[-1] = 1.0
    return TradeoffFn(tuple(xs), tuple(ys))


def conjugate(fn: TradeoffFn, slope: float) -> float:
    """Convex conjugate sup_x (slope * x - fn(x)), exact at breakpoints."""
    return max(slope * x - y for x, y in zip(fn.xs, fn.ys))


def inverse(fn: TradeoffFn) -> TradeoffFn:
    """Pointwise smallest inverse, again a trade-off curve.

    Requires fn(1) = 0 up to 1e-9: otherwise the literal inverse jumps to 1
    below fn(1) and stops being convex.
    """
    if fn.ys[-1] > INVERSE_TOL:
        raise ValueError(f"inverse needs fn(1) = 0, got fn(1) = {fn.ys[-1]}")
    pts: list[tuple[float, float]] = []
    for x, y in zip(reversed(fn.xs), reversed(fn.ys)):
        y = min(1.0, max(0.0, y))
        if pts and y <= pts[-1][0]:
            pts[-1] = (pts[-1][0], x)
        else:
            pts.append((y, x))
    pts[0] = (0.0, pts[0][1])
    if pts[-1][0] < 1.0:
        pts.append((1.0, 0.0))
    return TradeoffFn(tuple(p[0] for p in pts), tuple(p[1] for p in pts))


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
    inverse, evaluated on the union of their breakpoints plus the crossing
    points between them.
    """
    mixed = p_sample(fn, p)
    inv = inverse(mixed)
    xs = sorted(set(mixed.xs) | set(inv.xs))
    pts = []
    prev = None
    for x in xs:
        f = mixed(x)
        g = inv(x)
        if prev is not None:
            x0, f0, g0 = prev
            d0, d1 = f0 - g0, f - g
            if (d0 > 0.0 > d1) or (d0 < 0.0 < d1):
                xc = x0 + (x - x0) * d0 / (d0 - d1)
                if x0 < xc < x:
                    pts.append((xc, min(mixed(xc), inv(xc))))
        pts.append((x, min(f, g)))
        prev = (x, f, g)
    hull = _lower_hull(pts)
    return TradeoffFn(tuple(p_[0] for p_ in hull), tuple(p_[1] for p_ in hull))


def curve_to_tradeoff(curve: PrivacyCurve, grid_size: int = 1024) -> TradeoffFn:
    """Trade-off lower envelope implied by a privacy curve.

    Takes the maximum of the supporting lines of every (eps, delta) point
    over a uniform alpha grid, then convexifies. Grid sampling can only
    lower the envelope, so the result stays a valid bound.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    lines = [
        (math.exp(e), math.exp(-e), d) for e, d in zip(curve.grid, curve.values)
    ]
    pts = []
    for i in range(grid_size):
        a = i / (grid_size - 1)
        best = 0.0
        for grow, shrink, d in lines:
            t1 = 1.0 - d - grow * a
            if t1 > best:
                best = t1
            t2 = shrink * (1.0 - d - a)
            if t2 > best:
                best = t2
        pts.append((a, best))
    hull = _lower_hull(pts)
    return TradeoffFn(tuple(p[0] for p in hull), tuple(p[1] for p in hull))


def tradeoff_to_delta(fn: TradeoffFn, eps: float) -> float:
    """Delta at eps recovered from the trade-off curve by conjugation."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    return min(1.0, max(0.0, 1.0 + conjugate(fn, -math.exp(eps))))


def subsampled_tradeoff(fn: TradeoffFn, n: int, m: int) -> TradeoffFn:
    """Subsampling envelope for m-of-n sampling without replacement."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return subsampling_operator(fn, m / n)
