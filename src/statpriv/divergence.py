"""Hockey-stick divergence, privacy loss and exact privacy curves."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    binomial_laws,
    condition,
    pushforward,
    scan_positions,
)

CURVE_TOL = 1e-12


def default_eps_grid() -> tuple[float, ...]:
    """Epsilon grid 0 to 3 in steps of 0.05, the package-wide default."""
    return tuple(round(0.05 * i, 10) for i in range(61))


def as_grid(grid: tuple[float, ...] | None) -> tuple[float, ...]:
    """`grid` as a tuple of floats; None gives default_eps_grid()."""
    return default_eps_grid() if grid is None else tuple(float(e) for e in grid)


def privacy_loss(mu: Pmf, nu: Pmf, a: float) -> float:
    """Log likelihood ratio log(mu(a) / nu(a)) with the usual conventions.

    0/0 is 0, positive/0 is +inf, 0/positive is -inf. Outcomes listed by
    neither pmf are rejected.
    """
    a = float(a)
    if a not in mu.as_dict and a not in nu.as_dict:
        raise ValueError(f"outcome {a} is outside both outcome grids")
    pa = mu.prob(a)
    qa = nu.prob(a)
    if pa == 0.0 and qa == 0.0:
        return 0.0
    if qa == 0.0:
        return math.inf
    if pa == 0.0:
        return -math.inf
    return math.log(pa / qa)


def hockey_stick_divergence(mu: Pmf, nu: Pmf, eps: float) -> float:
    """sum over outcomes of max(0, mu(a) - e^eps nu(a)), capped at 1.

    At eps = 0 this is the total variation distance.
    """
    return hockey_stick_curve(mu, nu, (eps,))[0]


def hockey_stick_curve(mu: Pmf, nu: Pmf, grid: tuple[float, ...]) -> tuple[float, ...]:
    """hockey_stick_divergence(mu, nu, eps) for every eps of `grid`, in order.

    The outcomes mu puts mass on are sorted once by nu(a) / mu(a) (0 off
    nu's support); those with mu(a) - e^eps nu(a) > 0 form a prefix of that
    order. fsum is exactly rounded, so the order of the terms does not matter.
    """
    nud = nu.as_dict
    pairs = sorted(
        (nud.get(a, 0.0) / wa, wa, nud.get(a, 0.0))
        for a, wa in zip(mu.outcomes, mu.weights)
        if wa > 0.0
    )
    ratios = [r for r, _, _ in pairs]
    out = []
    for eps in grid:
        if eps < 0.0 or not math.isfinite(eps):
            raise ValueError(f"eps must be finite and nonnegative, got {eps}")
        scale = math.exp(eps)
        # wa - scale * wb > 0 implies wb / wa < 1 / scale; the slack covers
        # the rounding of both sides, and the exact test decides.
        k = bisect_right(ratios, (1.0 + 1e-9) / scale)
        terms = [d for _, wa, wb in pairs[:k] if (d := wa - scale * wb) > 0.0]
        out.append(min(1.0, math.fsum(terms)))
    return tuple(out)


@dataclass(frozen=True)
class PrivacyCurve:
    """Delta values of a privacy curve on an increasing epsilon grid."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(e) for e in self.grid))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if not self.grid:
            raise ValueError("a curve needs at least one grid point")
        for e in self.grid:
            if not (math.isfinite(e) and e >= 0.0):
                raise ValueError(f"invalid grid epsilon {e}")
        for prev, nxt in zip(self.grid, self.grid[1:]):
            if not nxt > prev:
                raise ValueError("epsilon grid must be strictly increasing")
        for v in self.values:
            if not (-CURVE_TOL <= v <= 1.0 + CURVE_TOL):
                raise ValueError(f"delta value {v} outside [0, 1]")
        for prev, nxt in zip(self.values, self.values[1:]):
            if nxt > prev + CURVE_TOL:
                raise ValueError("delta values must be nonincreasing in epsilon")

    def value_at(self, eps: float, extrapolate: bool = False) -> float:
        """Interpolation on the grid, linear in e^eps.

        delta is a supremum of the functions mu(S) - e^eps nu(S), so it is
        convex in e^eps and this chord bounds it from above; a chord in eps
        would not. Epsilons outside the grid raise unless `extrapolate` is
        set. Then above the grid the last value is returned, a bound as
        delta is nonincreasing; below it, min(1, values[0] + e^g0 - e^eps)
        for g0 = grid[0], a bound as from eps to g0 each mu(S) - e^eps nu(S)
        drops by (e^g0 - e^eps) nu(S) <= e^g0 - e^eps.
        """
        eps = float(eps)
        if eps < self.grid[0] or eps > self.grid[-1]:
            if not extrapolate:
                raise ValueError(
                    f"eps={eps} outside the curve grid "
                    f"[{self.grid[0]}, {self.grid[-1]}]; "
                    "pass extrapolate=True to extend the curve"
                )
            if eps > self.grid[-1]:
                return self.values[-1]
            return min(1.0, self.values[0] + math.exp(self.grid[0]) - math.exp(eps))
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
    0.0 when there is no other value.
    """
    rows = {}
    for v, mu in pmfs.items():
        curves = [hockey_stick_curve(mu, nu, grid) for w, nu in pmfs.items() if w != v]
        rows[v] = tuple(max(col) for col in zip((0.0,) * len(grid), *curves))
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

    The generic path enumerates conditioned pushforwards once per (j, w).
    Models with i.i.d. two-valued entries take the Binomial fast path
    (dist.binomial_laws) instead: the generic path's laws bit for bit,
    without building a model per conditioning value, so n in the thousands
    stays cheap.
    """
    grid = as_grid(grid)
    if db.fixed:
        raise ValueError("privacy_curve needs a pure product model, got fixed positions")
    fast = binomial_laws(db, q)
    per_position = [fast] if fast is not None else [
        {w: pushforward(condition(db, j, w), q, budget) for w in db.outcome_grid}
        for j in scan_positions(db, exchangeable=True)
    ]
    rows = [row for pmfs in per_position for row in worst_pairs(pmfs, grid).values()]
    return PrivacyCurve(grid, tuple(max(col) for col in zip(*rows)))


@dataclass(frozen=True)
class HalfLineResult:
    """Outcome of a half-line check; falsy with a witness on failure."""

    ok: bool
    eps: float | None = None
    outcome: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def half_line_check(
    mu: Pmf,
    nu: Pmf,
    eps_grid: tuple[float, ...] | None = None,
    strict: bool = True,
) -> HalfLineResult:
    """Check that every optimal distinguishing set is a half line.

    For each epsilon on the grid, the outcomes with mu(a) - e^eps nu(a) > 0,
    taken in increasing order over the union support, must form a prefix, a
    suffix or the empty set. With strict=False, outcomes where the
    difference is exactly 0 may be absorbed into the chosen half line, so
    only the order of strictly positive and strictly negative outcomes
    matters; that weaker condition is the one the with-replacement bound
    needs, since a maximizing set only has to be choosable as a half line.

    The first violation is returned as a witness: its epsilon and the
    outcome completing the second sign change (strict mode: the outcome
    opening the second positive run, or the run start when a single interior
    run touches neither end). The check is grid-limited; epsilons between
    grid points are not examined.
    """
    if eps_grid is None:
        eps_grid = default_eps_grid()
    union = sorted(set(mu.support) | set(nu.support))
    for eps in eps_grid:
        scale = math.exp(float(eps))
        diffs = []
        for a in union:
            pa = mu.prob(a)
            qa = nu.prob(a)
            diffs.append(pa if qa == 0.0 else pa - scale * qa)
        if strict:
            failure = _strict_violation(union, diffs)
        else:
            failure = _sign_change_violation(union, diffs)
        if failure is not None:
            return HalfLineResult(False, float(eps), failure)
    return HalfLineResult(True)


def _strict_violation(union, diffs):
    """Witness outcome if the positive set is no prefix or suffix, else None."""
    positive = [i for i, d in enumerate(diffs) if d > 0.0]
    if not positive:
        return None
    first, last = positive[0], positive[-1]
    contiguous = last - first + 1 == len(positive)
    if contiguous and (first == 0 or last == len(union) - 1):
        return None
    for cur, nxt in zip(positive, positive[1:]):
        if nxt > cur + 1:
            return union[nxt]
    return union[first]


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
