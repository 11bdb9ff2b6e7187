"""Hockey-stick divergence and exact privacy curves."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import combinations, repeat
from operator import add, gt, lt

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    _Value,
    _chain_laws,
    condition,
    lattice_chain,
    pushforward,
    scan_positions,
)

CURVE_TOL = 1e-12


def default_eps_grid() -> tuple[float, ...]:
    """Epsilon grid 0 to 3 in steps of 0.05, the package-wide default."""
    return tuple(round(0.05 * i, 10) for i in range(61))


def as_grid(grid: tuple[float, ...] | None) -> tuple[float, ...]:
    """`grid` as a tuple of floats; None gives default_eps_grid()."""
    return default_eps_grid() if grid is None else tuple(map(float, grid))


def hockey_stick_divergence(mu: Pmf, nu: Pmf, eps: float) -> float:
    """sum over outcomes of max(0, mu(a) - e^eps nu(a)), capped at 1.

    At eps = 0 this is the total variation distance.
    """
    return hockey_stick_curve(mu, nu, (eps,))[0]


def hockey_stick_curve(mu: Pmf, nu: Pmf, grid: tuple[float, ...]) -> tuple[float, ...]:
    """hockey_stick_divergence(mu, nu, eps) per eps of `grid`: the pair kernel's first half."""
    return _pair_curves(*_aligned(mu, nu), grid, backward=False)[0]


def _aligned(mu: Pmf, nu: Pmf) -> tuple[list[float], list[float]]:
    """The weights of mu and nu on the union of their outcomes."""
    mud, nud = mu.as_dict, nu.as_dict
    union = mud.keys() | nud.keys()
    return [mud.get(x, 0.0) for x in union], [nud.get(x, 0.0) for x in union]


def _pair_curves(a: list[float], b: list[float], grid: tuple[float, ...], backward=True):
    """The pair kernel: per eps of `grid`, min(1, sum of (a - e^eps b)+) and,
    if `backward`, min(1, sum of (b - e^eps a)+), for weights a, b on one
    outcome list. Sorted once by b / a (inf where a = 0), the positive terms
    of the first sum form a prefix and those of the second a suffix. fsum is
    exactly rounded, so the order of the terms sets only its speed: read
    backwards, the prefix of a unimodal chain runs from its mode to its tail,
    the order in which fsum keeps few partials (see dist.lattice_chain).
    One pass per direction: the grid is checked and exponentiated once, and
    the prefix of length k read backwards is the suffix tail[n - k:]."""
    if not all(map(math.isfinite, grid)) or min(grid, default=0.0) < 0.0:
        bad = next(eps for eps in grid if not 0.0 <= eps < math.inf)
        raise ValueError(f"eps must be finite and nonnegative, got {bad}")
    scales = list(map(math.exp, grid))
    # A row with a = b = 0 sorts last (ratio inf) and adds no term to either sum.
    ratios = [y / x if x else math.inf for x, y in zip(a, b)]
    rows = sorted(zip(ratios, a, b))
    ratios.sort()
    tail, n, fsum = rows[::-1], len(rows), math.fsum
    # x - s * y > 0 implies y / x < 1 / s, y - s * x > 0 that y / x > s; the
    # slack covers rounding, the exact test decides.
    fwd = tuple([min(1.0, fsum([d for _, x, y in tail[n - bisect_right(ratios, (1.0 + 1e-9) / s):]
                                if (d := x - s * y) > 0.0])) for s in scales])
    if not backward:
        return fwd, ()
    return fwd, tuple([min(1.0, fsum([d for _, x, y in rows[bisect_left(ratios, s * (1.0 - 1e-9)):]
                                      if (d := y - s * x) > 0.0])) for s in scales])


class PrivacyCurve(_Value):
    """Delta values of a privacy curve on an increasing epsilon grid."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, grid: tuple[float, ...], values: tuple[float, ...]):
        grid = tuple(map(float, grid))
        values = tuple(map(float, values))
        self.__dict__.update(grid=grid, values=values)
        if len(grid) != len(values):
            raise ValueError("grid and values must have equal length")
        if not grid:
            raise ValueError("a curve needs at least one grid point")
        if not (all(map(math.isfinite, grid)) and min(grid) >= 0.0):
            bad = next(e for e in grid if not 0.0 <= e < math.inf)
            raise ValueError(f"invalid grid epsilon {bad}")
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("epsilon grid must be strictly increasing")
        low, high = -CURVE_TOL, 1.0 + CURVE_TOL
        if not (all(map(math.isfinite, values)) and low <= min(values) and max(values) <= high):
            bad = next(v for v in values if not low <= v <= high)
            raise ValueError(f"delta value {bad} outside [0, 1]")
        if any(map(gt, values[1:], map(add, values, repeat(CURVE_TOL)))):
            raise ValueError("delta values must be nonincreasing in epsilon")

    def value_at(self, eps: float) -> float:
        """Interpolation on the grid, linear in e^eps; epsilons outside the
        grid raise.

        delta is a supremum of the functions mu(S) - e^eps nu(S), so it is
        convex in e^eps and this chord bounds it from above; a chord in eps
        would not.
        """
        eps = float(eps)
        if eps < self.grid[0] or eps > self.grid[-1]:
            raise ValueError(f"eps={eps} outside the curve grid [{self.grid[0]}, {self.grid[-1]}]")
        i = bisect_left(self.grid, eps)
        if i < len(self.grid) and self.grid[i] == eps:
            return self.values[i]
        g0, g1 = self.grid[i - 1], self.grid[i]
        v0, v1 = self.values[i - 1], self.values[i]
        t = math.expm1(eps - g0) / math.expm1(g1 - g0)
        return min(1.0, max(0.0, v0 + t * (v1 - v0)))


def worst_pairs(
    pmfs: dict[float, Pmf], grid: tuple[float, ...]
) -> dict[float, tuple[float, ...]]:
    """The one worst-pair scan: conditioning value v -> per grid epsilon, the
    maximum over w != v of hockey_stick_divergence(pmfs[v], pmfs[w], eps),
    0.0 when there is no other value; one pair kernel call per unordered
    pair gives both its directions."""
    rows = dict.fromkeys(pmfs, (0.0,) * len(grid))
    for (v, mu), (w, nu) in combinations(pmfs.items(), 2):
        forward, backward = _pair_curves(*_aligned(mu, nu), grid)
        rows[v] = tuple(map(max, rows[v], forward))
        rows[w] = tuple(map(max, rows[w], backward))
    return rows


def privacy_curve(
    db: DatabaseModel,
    q: Query,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Worst-pair hockey-stick divergence of conditioned answer distributions.

    For every epsilon on the grid this maximizes
    hockey_stick_divergence(answers | entry j = v, answers | entry j = w, eps)
    over positions j and ordered pairs (v, w) from the outcome grid, scanning
    the positions of scan_positions.

    For sum, count and mean a position's laws are one lattice chain's
    weights shifted by each value's step (dist.lattice_chain): if q's
    answers strictly increase over its cells, one pair kernel call per
    distinct step difference d scans both orders of its pairs; if they merge
    (values 1e11 and 1e11 + 2^-16, say), worst_pairs scans the chain's
    per-value laws (dist.lattice_laws).
    Other queries, and chains over `budget` cells, take the multiset kernel.
    Mirror rule: if the chain's weights W equal W[::-1], the backward terms of
    (W 0^d, 0^d W) are the forward ones mirrored; fsum rounds exactly, so one
    direction is scanned, and gives both bit for bit.
    """
    grid = as_grid(grid)
    if db.fixed:
        raise ValueError("privacy_curve needs a pure product model, got fixed positions")
    rows = []
    for j in scan_positions(db, exchangeable=True):
        chain = lattice_chain(db, j, q, budget)
        if chain is None:
            pmfs = {w: pushforward(condition(db, j, w), q, budget) for w in db.outcome_grid}
        elif all(map(lt, answers := chain[4], answers[1:])):
            steps, weights = chain[:2]
            mirror = weights == weights[::-1]
            for d in {abs(s - t) for s in steps for t in steps} - {0}:
                pair = _pair_curves(weights + [0.0] * d, [0.0] * d + weights, grid, not mirror)
                rows.extend(pair[:1] if mirror else pair)
            continue
        else:
            pmfs = _chain_laws(db, chain)
        rows.extend(worst_pairs(pmfs, grid).values())
    # Rows are never below 0.0, which is also the curve with no pair to scan.
    rows = rows or [(0.0,) * len(grid)]
    return PrivacyCurve(grid, rows[0] if len(rows) == 1 else tuple(map(max, zip(*rows))))


class HalfLineResult(_Value):
    """Outcome of a half-line check; falsy with a witness on failure."""

    ok: bool
    eps: float | None
    outcome: float | None

    def __init__(self, ok: bool, eps: float | None = None, outcome: float | None = None):
        self.__dict__.update(ok=ok, eps=eps, outcome=outcome)

    def __bool__(self) -> bool:
        return self.ok


def half_line_check(mu: Pmf, nu: Pmf, eps_grid: tuple[float, ...] | None = None) -> HalfLineResult:
    """Check that some optimal distinguishing set is a half line.

    For each epsilon on the grid, the outcomes with mu(a) - e^eps nu(a) > 0,
    taken in increasing order over the union support, must form a prefix, a
    suffix or the empty set once the outcomes where the difference is
    exactly 0 may be absorbed into it: only the order of strictly positive
    and strictly negative outcomes matters. That is the condition the
    with-replacement bound needs, since a maximizing set only has to be
    choosable as a half line.

    The first violation is returned as a witness: its epsilon and the
    outcome completing the second sign change. The check is grid-limited;
    epsilons between grid points are not examined.
    """
    union = sorted(set(mu.support) | set(nu.support))
    probs = [(mu.prob(a), nu.prob(a)) for a in union]
    for eps in as_grid(eps_grid):
        scale = math.exp(eps)
        diffs = [pa if qa == 0.0 else pa - scale * qa for pa, qa in probs]
        failure = _sign_change_violation(union, diffs)
        if failure is not None:
            return HalfLineResult(False, eps, failure)
    return HalfLineResult(True)


def _sign_change_violation(union, diffs):
    """Witness outcome at the second sign change, ignoring zeros, else None."""
    previous = 0
    changes = 0
    for i, d in enumerate(diffs):
        sign = 1 if d > 0.0 else -1 if d < 0.0 else 0
        if sign == 0:
            continue
        if previous != 0 and sign != previous:
            changes += 1
            if changes == 2:
                return union[i]
        previous = sign
    return None
