"""Privacy amplification bounds for subsampled queries."""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    binomial_pmf,
    lattice_builder,
    scan_positions,
)
from .divergence import (
    PrivacyCurve,
    _exp_grid,
    _pointwise_max,
    as_grid,
    cell_curve,
    check_grid,
    half_line_check,
    hockey_stick_curve,
    privacy_curve,
    worst_curve,
    worst_rows,
)
from .errors import NotSamplableError
from .sampling import (
    TemplateDistribution,
    apply_template,
    drawn_classes,
    drawn_curve,
    matched_coupling,
    sampling_curve_max,
)

PARAM_TOL = 1e-12
# The Poisson sweep (_size_mixture) starts at the first sample size of at
# least this Binomial weight; the lighter sizes below it are evaluated only
# at the eps whose float their charge of delta = 1 would move. At n=3000,
# rate 0.5 the sweep starts at size 996.
NEGLIGIBLE_SIZE_WEIGHT = 2.0 ** -256
# At each eps, the sizes above the last one evaluated are charged, their mass
# times a proven cap (_ceiling), once that is at most this share of the
# delta summed so far, moving it by at most one ulp; at n=1000, rate 0.1,
# bern(0.5) count, that evaluates 229 of the 596 sizes of nonzero weight.
NEGLIGIBLE_TAIL_SHARE = 2.0 ** -80


def _stretcher(grid: tuple[float, ...]):
    """factor -> log(1 + factor (e^eps - 1)) per eps of the increasing
    `grid`, the package's one eps stretch (factor below 1 shrinks); expm1 is
    taken once per eps, at the first factor other than 1, and factor 1
    returns `grid` itself. A stretch that is no float raises OverflowError."""
    bases = []

    def stretch(factor):
        if factor == 1.0:
            return grid
        if not bases:
            bases.extend(_exp_grid(grid, math.expm1))
        stretched = tuple([math.log1p(factor * x) for x in bases])
        if stretched[-1] == math.inf:
            eps = grid[stretched.index(math.inf)]
            raise OverflowError(f"eps {eps} is too large for its stretch by {factor} to be a float")
        return stretched

    return stretch


def _check_model(db: DatabaseModel) -> None:
    if db.fixed:
        raise ValueError("amplification bounds need a pure product model")


def _sampled_curve_values(db, q, m, grid, budget):
    """Sampled curve for m of db's n entries without replacement, maximized
    over positions: for an i.i.d. model, the privacy curve of m entries."""
    if db.is_iid:
        return privacy_curve(DatabaseModel.iid(db.entries[0], m), q, grid, budget)
    technique = TemplateDistribution.without_replacement(db.n, m, budget)
    return sampling_curve_max(db, q, technique, grid)


def without_replacement_bound(
    db: DatabaseModel,
    q: Query,
    m: int,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Amplified curve for sampling m of db's n entries without replacement,
    indexed by eps'.

    Each grid epsilon gives eps' = log(1 + (m/n)(e^eps - 1)) and delta' = m/n
    times the sampled privacy curve at eps, maximized over positions.
    """
    _check_model(db)
    if not 1 <= m <= db.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={db.n}")
    grid = as_grid(grid)
    return dp_subsample(_sampled_curve_values(db, q, m, grid, budget), m / db.n)


def viability_ratio(
    base: PrivacyCurve,
    entry: Pmf,
    q: Query,
    n: int,
    m: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, ...]:
    """Bound delta at the matched epsilon over the unsampled delta, per eps
    of base.grid.

    `base` is the unsampled curve, privacy_curve(DatabaseModel.iid(entry, n),
    q, grid), built once by callers that take several m. The numerator
    evaluates the m-entry curve at log(1 + (n/m)(e^eps - 1)), the stretch
    that shrinks back to eps, and scales by m/n. Values below 1 mean
    sampling m of n entries improves delta at level eps. Raises
    ZeroDivisionError when `base` is 0 at some eps.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    top = privacy_curve(DatabaseModel.iid(entry, m), q, _stretcher(base.grid)(n / m), budget)
    return tuple((m / n) * t / b for t, b in zip(top.values, base.values))


def poisson_bound(
    db: DatabaseModel,
    q: Query,
    rate: float,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Delta curve for Poisson sampling of db's n entries with inclusion
    probability `rate`.

    Decomposes by realized sample size m: the m-of-n sampled curve at the
    stretched epsilon log(1 + (n/m)(e^eps - 1)) enters with the
    Binomial(n, rate) weight of m, scaled by m/n. The empty sample
    contributes nothing, and sizes of negligible share are charged their
    mass times a proven cap instead of evaluated (see _size_mixture): an
    evaluated size's lattice curve on an i.i.d. model with an additive query
    (_ceiling), else delta = 1.
    The output curve is indexed by the input epsilon. On an i.i.d. model
    with an additive query a size's curve is the worst_curve of its lattice
    chain (_size_chains), privacy_curve's bit for bit; a refused chain, and
    other models and queries, take _sampled_curve_values.
    """
    _check_model(db)
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    grid = as_grid(grid)
    check_grid(grid)
    chain = _size_chains(db, q, budget)

    def sized_values(m, stretched):
        if db.is_iid:  # privacy_curve checks its grid before it builds a chain
            check_grid(stretched)
        laws = chain(m)
        if not laws:
            return _sampled_curve_values(db, q, m, stretched, budget).values
        return worst_curve(laws, stretched)

    ceiling = _ceiling(db, chain)
    return PrivacyCurve(grid, _size_mixture(db.n, rate, grid, sized_values, ceiling))


def _size_chains(db, q, budget):
    """m -> lattice_chain(DatabaseModel.iid(db's entry, m), 1, q, budget), from
    one setup, falsy for other models; the last size's chain is kept."""
    build = db.is_iid and lattice_builder(db.outcome_grid, q)
    entry = db.entries[0]

    @functools.lru_cache(maxsize=1)
    def chain(m):
        return build and build((entry,) * (m - 1), budget)

    return chain


def _ceiling(db, chain):
    """(m, eps) -> values at the eps of `eps` that no size above m has in its
    curve at that eps or above, raised by a slack; size m's chain is chain(m)
    (_size_chains).

    For an i.i.d. db of n entries and an additive query they are the curve
    of size m's lattice cells (cell_curve). Size m + 1's cells
    are size m's convolved with the entry, one Markov kernel applied to both
    laws of each pair, so by post-processing (Dwork & Roth 2014, Prop. 2.1)
    its cells' curve is at most size m's at every eps, and a curve is
    nonincreasing in eps. Answers are a function of the cells, so a size's
    curve, merged answers or not, is at most its cells' curve. Other models
    and queries, and a size whose chain the build refuses (over the budget,
    or sparse), take delta = 1. Each law is within (2kn + 3)u of the exact
    one, k the entry's support; the slack covers that at both sizes
    compared, the rounded masses the values are multiplied by and the
    rounding of the mass they are charged for.
    """
    entry = db.entries[0]
    slack = 1.0 + 4 * (2 * len(entry.outcomes) * db.n + 3) * 2.0**-53

    def ceiling(m, eps):
        laws = chain(m)
        return [slack * d for d in cell_curve(laws, eps)] if laws else [slack] * len(eps)

    return ceiling


def _size_mixture(n, rate, grid, sized_values, ceiling):
    """Sum over sizes m of the Binomial(n, rate) weight of m times m/n times
    sized_values(m, stretched grid), per eps of the float tuple `grid`,
    capped at 1; _stretcher gives each stretched grid, `grid` itself at m = n.
    Sizes go in increasing order, so a sized_values that extends the last
    size's law holds one law at a time, and ceiling asks for the last one.

    A size left out is charged its mass (weight times m/n) times a proven
    cap, so the sum stays an upper bound. ceiling(M, eps) gives, per eps of
    `eps`, a value that no size above M has in its curve at that eps or
    above (_ceiling). The sweep runs from the first size of weight at least
    NEGLIGIBLE_SIZE_WEIGHT (the last of nonzero weight, if none is that
    heavy) to the last of nonzero weight. Before each size, an eps closes
    once the sizes above the last evaluated size M, charged their mass times
    a cap at their smallest stretched eps (the stretch of the largest size),
    are at most NEGLIGIBLE_TAIL_SHARE times its sum so far: that moves the
    sum by at most the share, and a charge of 0 (a cap of 0 proves that no
    larger size adds anything) closes an eps whose sum is 0. Eps close from
    either end of the grid, so each size is evaluated on a slice of its
    stretched grid, and the sweep stops when every eps is closed. A cap
    holds for every size above its own, so each eps keeps the last it got;
    M's own row is at most a new one, so ceiling is asked only where the
    row, times the ratio of the eps's last cap to its row, passes the test.
    The sizes below the sweep are charged delta = 1 where that leaves an
    eps's float as it is, and are evaluated at the other eps, save the
    lowest, whose mass is below the share of the sum. Each eps takes one
    fsum of its terms, largest first, the order in which fsum keeps few
    partials.
    """
    weights, share = binomial_pmf(n, rate), NEGLIGIBLE_TAIL_SHARE
    last = max((m for m in range(1, n + 1) if weights[m] > 0.0), default=n)
    first = next((m for m in range(1, last) if weights[m] >= NEGLIGIBLE_SIZE_WEIGHT), last)
    masses = [w * m / n for m, w in enumerate(weights)]
    factors, below = masses[first : last + 1], masses[1:first]
    # The mass above each size, rounded: it picks the eps to close, and the
    # cap's slack covers its rounding where it is charged.
    left = list(itertools.accumulate(reversed(factors), initial=0.0))[::-1]
    stretch = _stretcher(grid)
    top = stretch(n / last)
    rows: list[tuple[float, ...]] = []  # per evaluated size, 0.0 at the eps it skipped
    running = [0.0] * len(grid)  # each eps's terms summed in order, for the test
    charges = [0.0] * len(grid)  # per eps, what its closing charged
    caps = [math.inf] * len(grid)  # per eps, the last cap asked for
    guess = [1.0] * len(grid)  # per eps, that cap over its size's row

    def ends(lo, hi, rest, cap):
        """[lo, hi) less the eps at either end whose charge, rest * cap(k),
        is at most the share of its sum so far."""
        while lo < hi and rest * cap(lo) <= share * running[lo]:
            lo += 1
        while hi > lo and rest * cap(hi - 1) <= share * running[hi - 1]:
            hi -= 1
        return lo, hi

    def close(i, lo, hi):
        """[lo, hi) less the eps that close before size first + i, each
        charged for that size and every size above it."""
        rest, row = left[i], rows[-1]
        a, b = ends(lo, hi, rest, lambda k: min(caps[k], guess[k] * row[k]))
        ask = [k for k in (*range(lo, a), *range(b, hi)) if rest * caps[k] > share * running[k]]
        for k, cap in zip(ask, ceiling(first + i - 1, [top[k] for k in ask]) if ask else ()):
            caps[k], guess[k] = cap, cap / row[k] if row[k] else 1.0
        a, b = ends(lo, hi, rest, caps.__getitem__)
        for k in (*range(lo, a), *range(b, hi)):
            charges[k] = rest * caps[k]
        return a, b

    lo, hi = 0, len(grid)
    for i, m in enumerate(range(first, last + 1)):
        if rows:
            # Each cap is at least the last row, so an eps that fails the test
            # with the row fails it with its cap: only an end that passes may close.
            row, rest, end = rows[-1], left[i], hi - 1
            if rest * row[lo] <= share * running[lo] or rest * row[end] <= share * running[end]:
                lo, hi = close(i, lo, hi)
                if lo == hi:
                    break
        values = tuple(sized_values(m, stretch(n / m)[lo:hi]))
        rows.append((0.0,) * lo + values + (0.0,) * (len(grid) - hi))
        running[lo:hi] = [r + factors[i] * v for r, v in zip(running[lo:hi], values)]
    terms = [[*map(operator.mul, factors, col), c] for col, c in zip(zip(*rows), charges)]
    sums = [math.fsum(sorted(t, reverse=True)) for t in terms]
    # Below the sweep: an eps is evaluated where charging every size delta = 1
    # would move its float. Rounding is monotone, so where that whole charge
    # leaves the float as it is, any part of it does too.
    needs = [k for k, s in enumerate(sums)
             if below and s < 1.0 and math.fsum(terms[k] + below) != s]
    if needs:
        cum = list(itertools.accumulate(below))  # below[j] is the mass of size j + 1
        skip = {k: bisect.bisect_left(cum, share * sums[k]) for k in needs}
        for j in range(min(skip.values()), len(below)):
            at = [k for k in needs if skip[k] <= j]
            if below[j] > 0.0:
                stretched = stretch(n / (j + 1))
                for k, v in zip(at, sized_values(j + 1, [stretched[k] for k in at])):
                    terms[k].append(below[j] * v)
        for k in needs:
            sums[k] = math.fsum(sorted(terms[k] + below[: skip[k]], reverse=True))
    # delta is nonincreasing in eps, so each eps may take a lower eps's bound:
    # charges taken at different sizes can leave a sum above its left neighbour.
    return tuple(itertools.accumulate((min(1.0, s) for s in sums), min))


def with_replacement_bound(
    db: DatabaseModel,
    q: Query,
    m: int,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Amplified curve for m uniform draws with replacement from db's n
    entries, indexed by eps'.

    Needs a monotone query and the samplability precondition certified by
    _gated_drawn_curve (half-line choosability on same-template pairs, the
    coupled mean value inequality on cross pairs); a failure raises
    NotSamplableError with the witness. The gate and the drawn-view curve
    (sampling_curve_max over the templates that draw the sensitive entry)
    are one walk over the drawn classes: the gate sums the laws and rows it
    checked. The bound is dp_subsample of that curve at the rate P(K >= 1),
    K ~ Binomial(m, 1/n) the entry's draw count: each template class
    carries its exact worst-pair divergence, so the mixture over draw
    counts, sum over k of P(K = k) E[worst | K = k], is
    P(K >= 1) E[worst | K >= 1], the shape of the without-replacement bound.
    """
    _check_model(db)
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if not q.monotone:
        raise ValueError("the with-replacement bound needs a monotone query")
    grid = as_grid(grid)
    technique = TemplateDistribution.with_replacement(db.n, m, budget)
    curve = _gated_drawn_curve(db, q, technique, grid)
    return dp_subsample(curve, min(1.0, math.fsum(binomial_pmf(m, 1.0 / db.n)[1:])))


def _gated_drawn_curve(db, q, technique, grid):
    """The drawn-view curve, sampling_curve_max's, behind the
    samplability precondition over every answer pair the proof compares.

    Per position j, one drawn_classes pass over the given_drawn(j) view
    gives each class's conditioned Laws and their worst_rows, and two
    families are certified on the epsilon grid:

    Same-template pairs: for each template drawing j and ordered
    conditioning values (v, w), some maximizing set of the divergence must
    be choosable as a half line (half_line_check; zero differences count as
    free to include).

    Coupled cross pairs: for each (template with j, partner without j) pair
    from the matched coupling of the same view and each value v, the mean
    value inequality divergence(conditioned v through the template,
    unconditioned through the partner) <= max over w != v of the
    same-template divergence (the template's row v) is verified directly.
    The literal half-line condition routinely fails on these pairs for
    interleaved answer supports even though the inequality the proof
    actually uses holds, so the inequality itself is checked. Both families
    run over classes of templates and class pairs (matched_coupling), in
    the enumeration order of the templates.

    Raises NotSamplableError with a witness and the refused family
    ("half_line" or "coupled") on the first failure.
    """
    outcomes = db.outcome_grid
    curves = []
    for j in scan_positions(db, technique.exchangeable):
        drawn = technique.given_drawn(j)
        terms, by_template = [], {}
        for t, p, laws in drawn_classes(db, q, drawn, j):
            rows, pmfs = worst_rows(laws, grid), laws.pmfs()
            for v, w in itertools.permutations(outcomes, 2):
                witness = half_line_check(pmfs[v], pmfs[w], grid)
                if witness is not None:
                    raise NotSamplableError(
                        *witness,
                        "half_line",
                        context=f"j={j}, template={t.indices}, pair=({v}, {w})",
                    )
            terms.append((p, _pointwise_max(list(rows.values()))))
            by_template[t] = pmfs, rows
        curves.append(drawn_curve(terms, grid).values)
        if db.n < 2:  # no template avoids j: no cross pairs
            continue
        for t_in, t_out, _ in matched_coupling(drawn, j, db):
            lefts, ceilings = by_template[t_in]
            right = apply_template(db, t_out, q, technique.budget)
            for v in outcomes:
                left = lefts[v]
                crosses = hockey_stick_curve(left, right, grid)
                for eps, cross, ceiling in zip(grid, crosses, ceilings[v]):
                    if cross > ceiling + PARAM_TOL:
                        witness = max(
                            left.outcomes,
                            key=lambda a: left.prob(a) - math.exp(eps) * right.prob(a),
                        )
                        raise NotSamplableError(
                            eps,
                            witness,
                            "coupled",
                            context=(
                                f"j={j}, coupled templates {t_in.indices} and "
                                f"{t_out.indices}, conditioned to {v}: cross "
                                f"divergence {cross} "
                                f"exceeds the same-template ceiling {ceiling}"
                            ),
                        )
    return PrivacyCurve(grid, _pointwise_max(curves))


def dp_subsample(curve: PrivacyCurve, rate: float) -> PrivacyCurve:
    """Classic DP subsampling of a delta curve: each (eps, delta) becomes
    (log(1 + rate (e^eps - 1)), rate delta). Refuses a grid whose adjacent
    eps (a few ulps apart) round to one eps'."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    shrunk = _stretcher(curve.grid)(rate)
    if not all(map(operator.lt, shrunk, shrunk[1:])):
        raise ValueError(f"two eps of the grid shrink to one eps' at rate {rate}")
    return PrivacyCurve(shrunk, [rate * d for d in curve.values])
