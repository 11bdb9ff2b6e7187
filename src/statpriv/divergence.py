"""Hockey-stick divergence and exact privacy curves."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import combinations, pairwise, repeat
from operator import add, gt, lt

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Laws,
    Pmf,
    Query,
    _Value,
    condition,
    lattice_chain,
    pushforward,
    scan_positions,
)

CURVE_TOL = 1e-12


def default_eps_grid() -> tuple[float, ...]:
    """Epsilon grid 0 to 3 in steps of 0.05, the package-wide default."""
    return tuple(i / 20 for i in range(61))  # round(0.05 * i, 10), bit for bit


def as_grid(grid: tuple[float, ...] | None) -> tuple[float, ...]:
    """`grid` as a tuple of floats; None gives default_eps_grid()."""
    return default_eps_grid() if grid is None else tuple(map(float, grid))


def check_grid(grid: tuple[float, ...], curve: bool = True) -> None:
    """The package's one eps-grid check, first fault first: every eps must
    be finite and nonnegative and, for the grid of a curve, there must be
    one at least and they must strictly increase."""
    if grid and 0.0 <= grid[0] and grid[-1] < math.inf and all(map(lt, grid, grid[1:])):
        return  # one pass for the common case, an increasing valid grid
    if curve and not grid:
        raise ValueError("a curve needs at least one grid point")
    if not all(map(math.isfinite, grid)) or min(grid, default=0.0) < 0.0:
        bad = next(eps for eps in grid if not 0.0 <= eps < math.inf)
        raise ValueError(f"eps must be finite and nonnegative, got {bad}")
    if curve and not all(map(lt, grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly increasing")


def _exp_grid(grid: tuple[float, ...], exp=math.exp) -> list[float]:
    """exp (or expm1) of each eps of `grid`; where some e^eps is no float,
    an OverflowError that names the largest eps."""
    try:
        return list(map(exp, grid))
    except OverflowError:
        raise OverflowError(f"eps {max(grid)} is too large for e^eps to be a float") from None


def hockey_stick_divergence(mu: Pmf, nu: Pmf, eps: float) -> float:
    """sum over outcomes of max(0, mu(a) - e^eps nu(a)), capped at 1.

    At eps = 0 this is the total variation distance.
    """
    return hockey_stick_curve(mu, nu, (eps,))[0]


def hockey_stick_curve(mu: Pmf, nu: Pmf, grid: tuple[float, ...]) -> tuple[float, ...]:
    """hockey_stick_divergence(mu, nu, eps) per eps of `grid`: the pair kernel on their weights."""
    return _pair_curves(*_aligned(mu, nu), grid)


def _aligned(mu: Pmf, nu: Pmf) -> tuple[list[float], list[float]]:
    """The weights of mu and nu on the union of their outcomes."""
    mud, nud = mu.as_dict, nu.as_dict
    union = mud.keys() | nud.keys()
    return [mud.get(x, 0.0) for x in union], [nud.get(x, 0.0) for x in union]


def _pair_curves(a: list[float], b: list[float], grid: tuple[float, ...]) -> tuple[float, ...]:
    """The pair kernel: per eps of `grid`, min(1, sum of (a - e^eps b)+), for
    weights a, b on one outcome list; the other direction is the kernel on
    (b, a). Sorted by b / a (inf where a = 0), the positive terms form a
    prefix. fsum is exactly rounded, so the order of the terms sets only its
    speed: read backwards, the prefix of a unimodal chain runs from its mode
    to its tail, the order in which fsum keeps few partials (see
    dist.lattice_chain). The grid is checked and exponentiated once, and the
    prefix of length k read backwards is the suffix tail[n - k:]. The rows
    with b = 0 lead the sort and add a at every eps: they are summed once,
    and an eps whose cut holds no other row takes that sum as it is."""
    check_grid(grid, curve=False)
    scales = _exp_grid(grid)
    # A row with a = 0 sorts last (ratio inf) and adds no term.
    ratios = [y / x if x else math.inf for x, y in zip(a, b)]
    rows = sorted(zip(ratios, a, b))
    ratios.sort()
    tail, n, fsum = rows[::-1], len(rows), math.fsum
    lone = bisect_right(ratios, 0.0)
    alone = fsum([x for _, x, _ in rows[:lone]])
    # x - s * y > 0 implies y / x < 1 / s; the slack covers rounding, the
    # exact test decides. A sum is capped at 1 by a comparison, not min(),
    # whose call costs a fifth of a short scan.
    return tuple([
        t if (t := alone if (k := bisect_right(ratios, (1.0 + 1e-9) / s)) == lone else
              fsum([d for _, x, y in tail[n - k:] if (d := x - s * y) > 0.0])) < 1.0 else 1.0
        for s in scales
    ])


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
        check_grid(grid)
        low, high = -CURVE_TOL, 1.0 + CURVE_TOL
        if not (all(map(math.isfinite, values)) and low <= min(values) and max(values) <= high):
            bad = next(v for v in values if not low <= v <= high)
            raise ValueError(f"delta value {bad} outside [0, 1]")
        if any(map(gt, values[1:], map(add, values, repeat(CURVE_TOL)))):
            raise ValueError("delta values must be nonincreasing in epsilon")

    @classmethod
    def _built(cls, grid: tuple[float, ...], values: tuple[float, ...]) -> "PrivacyCurve":
        """A curve left unchecked: a float grid check_grid has passed, and
        float values min(1, fsum of nonnegative terms), each term
        nonincreasing in eps, or a maximum of such values."""
        curve = object.__new__(cls)
        curve.__dict__.update(grid=grid, values=values)
        return curve

    def value_at(self, eps: float) -> float:
        """Interpolation on the grid, linear in e^eps; epsilons outside the
        grid raise.

        delta is a supremum of the functions mu(S) - e^eps nu(S), so it is
        convex in e^eps and this chord bounds it from above; a chord in eps
        would not.
        """
        eps = float(eps)
        if not self.grid[0] <= eps <= self.grid[-1]:  # NaN included
            raise ValueError(f"eps={eps} outside the curve grid [{self.grid[0]}, {self.grid[-1]}]")
        i = bisect_left(self.grid, eps)
        if i < len(self.grid) and self.grid[i] == eps:
            return self.values[i]
        g0, g1 = self.grid[i - 1], self.grid[i]
        v0, v1 = self.values[i - 1], self.values[i]
        t = math.expm1(eps - g0) / math.expm1(g1 - g0)
        return min(1.0, max(0.0, v0 + t * (v1 - v0)))


def worst_rows(laws: Laws, grid: tuple[float, ...]) -> dict[float, tuple[float, ...]]:
    """The laws' rows on `grid`: value v -> per eps, the maximum over w != v
    of hockey_stick_divergence(v's law, w's law, eps), 0.0 when there is no
    other value. Each unordered pair is aligned once and the pair kernel
    scans it both ways: (v's weights, w's) for v's row, (w's, v's) for w's."""
    pmfs = laws.pmfs()
    rows = dict.fromkeys(pmfs, (0.0,) * len(grid))
    for (v, mu), (w, nu) in combinations(pmfs.items(), 2):
        a, b = _aligned(mu, nu)
        rows[v] = tuple(map(max, rows[v], _pair_curves(a, b, grid)))
        rows[w] = tuple(map(max, rows[w], _pair_curves(b, a, grid)))
    return rows


def worst_curve(laws: Laws, grid: tuple[float, ...]) -> tuple[float, ...]:
    """The laws' worst-pair curve on `grid`: per eps, the maximum of their
    rows. A chain whose answers are distinct is its cell_curve; one whose
    answers merge (values 1e11 and 1e11 + 2^-16, say) scans its laws."""
    if laws.distinct:
        return cell_curve(laws, grid)
    return _pointwise_max(list(worst_rows(laws, grid).values()))


def cell_curve(chain: Laws, grid: tuple[float, ...]) -> tuple[float, ...]:
    """A chain's worst-pair curve on `grid` over its lattice cells: its
    weights shifted by each value's step. Answers are a function of the
    cells, so this is at least worst_curve's, and equal to it where they are
    distinct. Per distinct step difference d the weights W are padded once
    and the pair kernel scans (W 0^d, 0^d W) and (0^d W, W 0^d). Mirror rule:
    if W equals W[::-1], the second pair is the first read backwards; fsum
    rounds exactly, so the kernel gives it the same curve bit for bit, and
    one call per d scans both orders."""
    weights = chain.weights
    mirror = weights == weights[::-1]
    rows = []
    for d in {abs(s - t) for s in chain.steps for t in chain.steps} - {0}:
        a, b = weights + [0.0] * d, [0.0] * d + weights
        rows.append(_pair_curves(a, b, grid))
        if not mirror:
            rows.append(_pair_curves(b, a, grid))
    return _pointwise_max(rows or [(0.0,) * len(grid)])


def _pointwise_max(rows: list[tuple[float, ...]]) -> tuple[float, ...]:
    """Per column, the largest entry of the nonempty list `rows`."""
    return rows[0] if len(rows) == 1 else tuple(map(max, *rows))


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
    the positions of scan_positions: the maximum over positions of the
    worst_curve of their Laws. For sum, count and mean those are a lattice
    chain (dist.lattice_chain); other queries, and chains over `budget`
    cells, take the multiset kernel. The grid is checked once, here, and the
    values not at all (see PrivacyCurve._built).
    """
    grid = as_grid(grid)
    check_grid(grid)
    if db.fixed:
        raise ValueError("privacy_curve needs a pure product model, got fixed positions")
    rows = []
    for j in scan_positions(db, exchangeable=True):
        laws = lattice_chain(db, j, q, budget) or Laws(
            {w: pushforward(condition(db, j, w), q, budget) for w in db.outcome_grid}
        )
        rows.append(worst_curve(laws, grid))
    return PrivacyCurve._built(grid, _pointwise_max(rows))


def half_line_check(
    mu: Pmf, nu: Pmf, eps_grid: tuple[float, ...] | None = None
) -> tuple[float, float] | None:
    """Check that some optimal distinguishing set is a half line.

    For each epsilon on the grid, the outcomes with mu(a) - e^eps nu(a) > 0,
    taken in increasing order over the union support, must form a prefix, a
    suffix or the empty set once the outcomes where the difference is
    exactly 0 may be absorbed into it: only the order of strictly positive
    and strictly negative outcomes matters. That is the condition the
    with-replacement bound needs, since a maximizing set only has to be
    choosable as a half line.

    Returns None when every epsilon passes, else the first violation in
    grid order as a witness (eps, outcome): the outcome completes the second
    sign change. The check is grid-limited; epsilons between grid points are
    not examined. An eps that check_grid refuses raises its ValueError, and
    an eps whose e^eps is no float an OverflowError that names it.

    Each difference pa - e^eps qa is nonincreasing in e^eps, rounding
    included: bisection finds where on the sorted scales each outcome leaves
    + and enters -, and one sign walk per run between those cuts decides
    every eps of the run.
    """
    grid = as_grid(eps_grid)
    check_grid(grid, curve=False)
    union = sorted(set(mu.support) | set(nu.support))
    probs = [(mu.prob(a), nu.prob(a)) for a in union]
    scales = _exp_grid(grid)
    ordered = sorted(scales)
    cuts = {0, len(ordered)}
    for pa, qa in probs:
        if qa != 0.0:  # s * qa - pa is -(pa - s * qa) exactly: rounding is symmetric
            cuts.add(bisect_left(ordered, 0.0, key=lambda s: s * qa - pa))
            cuts.add(bisect_right(ordered, 0.0, key=lambda s: s * qa - pa))
    failing = {}  # scale -> witness, for the scales of each failing run
    for lo, hi in pairwise(sorted(cuts)):
        scale = ordered[lo]
        diffs = [pa if qa == 0.0 else pa - scale * qa for pa, qa in probs]
        failure = _sign_change_violation(union, diffs)
        if failure is not None:
            failing.update(dict.fromkeys(ordered[lo:hi], failure))
    if not failing:
        return None
    return next((eps, failing[s]) for eps, s in zip(grid, scales) if s in failing)


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
