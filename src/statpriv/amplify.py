"""Privacy amplification bounds for subsampled queries."""

from __future__ import annotations

import itertools
import math

from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    _Value,
    binomial_pmf,
    law_key,
    scan_positions,
)
from .divergence import (
    PrivacyCurve,
    as_grid,
    half_line_check,
    hockey_stick_curve,
    hockey_stick_divergence,
    privacy_curve,
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
# Poisson sample sizes with a smaller Binomial weight are charged delta = 1
# instead of being evaluated (see _size_mixture). For any n below 2^53 the
# charge and the terms it replaces stay below 2^-202 in total, less than one
# ulp of any delta above 2^-150, so such a delta moves by at most one ulp.
# Exact weights never round to 0 before about 2^-1074, so a cut is needed:
# at n=1000, rate 0.1 it admits 314 sizes, against 582 at 2^-1022.
NEGLIGIBLE_SIZE_WEIGHT = 2.0 ** -256
# At each eps, the sizes left once their mass is below this share of the
# delta summed so far are charged delta = 1 (see _size_mixture), moving it
# by at most one ulp; at n=1000, rate 0.1 that evaluates 260 of 314 sizes.
NEGLIGIBLE_TAIL_SHARE = 2.0 ** -80


class AmplifiedParams(_Value):
    """A single (eps', delta') point produced by an amplification bound."""

    eps_prime: float
    delta_prime: float

    def __init__(self, eps_prime: float, delta_prime: float):
        if not (math.isfinite(eps_prime) and eps_prime >= 0.0):
            raise ValueError(f"invalid eps' {eps_prime}")
        if not -PARAM_TOL <= delta_prime <= 1.0 + PARAM_TOL:
            raise ValueError(f"delta' {delta_prime} outside [0, 1]")
        delta_prime = min(1.0, max(0.0, float(delta_prime)))
        self.__dict__.update(eps_prime=eps_prime, delta_prime=delta_prime)


def _stretcher(grid: tuple[float, ...]):
    """factor -> log(1 + factor (e^eps - 1)) per eps of `grid`, the package's
    one eps stretch (factor below 1 shrinks); expm1 is taken once per eps, at
    the first factor other than 1, and factor 1 returns `grid` itself."""
    bases = []

    def stretch(factor):
        if factor == 1.0:
            return grid
        if not bases:
            bases.extend(map(math.expm1, grid))
        return tuple([math.log1p(factor * x) for x in bases])

    return stretch


def _check_eps(grid) -> None:
    bad = next((e for e in grid if not 0.0 <= e < math.inf), None)
    if bad is not None:
        raise ValueError(f"eps must be finite and nonnegative, got {bad}")


def _check_model(db: DatabaseModel, n: int) -> None:
    if n != db.n:
        raise ValueError(f"n={n} does not match the model size {db.n}")
    if db.fixed:
        raise ValueError("amplification bounds need a pure product model")


def _sampled_curve_values(db, q, n, m, grid, budget):
    """Sampled curve for m-of-n without replacement, as a value tuple.

    i.i.d. models collapse to the privacy curve of an m-entry model, which
    for an additive query is built on the lattice chain.
    """
    if db.is_iid:
        return privacy_curve(DatabaseModel.iid(db.entries[0], m), q, grid, budget).values
    technique = TemplateDistribution.without_replacement(n, m, budget)
    return sampling_curve_max(db, q, technique, grid, budget).values


def without_replacement_bound(
    db: DatabaseModel,
    q: Query,
    n: int,
    m: int,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[AmplifiedParams, ...]:
    """Amplified (eps', delta') pairs for m-of-n sampling without replacement.

    For each grid epsilon, eps' = log(1 + (m/n)(e^eps - 1)) and delta' is m/n
    times the sampled privacy curve at eps, maximized over positions.
    """
    _check_model(db, n)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    grid = as_grid(grid)
    return dp_subsample(grid, _sampled_curve_values(db, q, n, m, grid, budget), m / n)


def viability_ratio(
    entry: Pmf,
    q: Query,
    n: int,
    m: int,
    eps: float,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Bound delta at the matched epsilon over the unsampled delta.

    The numerator evaluates the m-entry curve at log(1 + (n/m)(e^eps - 1)),
    the stretch that shrinks back to eps, and scales by m/n. Values below 1
    mean sampling m of n entries improves delta at level eps. Raises
    ZeroDivisionError when the unsampled curve is 0 at eps.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    eps = float(eps)
    _check_eps((eps,))
    base = privacy_curve(DatabaseModel.iid(entry, n), q, (eps,), budget).values[0]
    if base == 0.0:
        raise ZeroDivisionError(f"unsampled curve is 0 at eps={eps}; ratio undefined")
    stretched = _stretcher((eps,))(n / m)
    top = privacy_curve(DatabaseModel.iid(entry, m), q, stretched, budget).values[0]
    return (m / n) * top / base


def poisson_bound(
    db: DatabaseModel,
    q: Query,
    n: int,
    rate: float,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PrivacyCurve:
    """Delta curve for Poisson sampling with inclusion probability `rate`.

    Decomposes by realized sample size m: the m-of-n sampled curve at the
    stretched epsilon log(1 + (n/m)(e^eps - 1)) enters with the
    Binomial(n, rate) weight of m, scaled by m/n. The empty sample
    contributes nothing, and sizes of negligible weight or share are charged
    delta = 1 (see _size_mixture). The output curve is indexed by the input
    epsilon. On an i.i.d. model with an additive query each size's curve is
    one privacy_curve call, and as the sizes come in increasing order each
    call extends the lattice chain of the last by one entry. A two-valued
    entry of equal weights gives palindromic chains, which privacy_curve's
    mirror rule scans in one direction.
    """
    _check_model(db, n)
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    grid = as_grid(grid)

    def sized_values(m, stretched):
        return _sampled_curve_values(db, q, n, m, stretched, budget)

    return PrivacyCurve(grid, _size_mixture(n, rate, grid, sized_values))


def _size_mixture(n, rate, grid, sized_values, charge=True):
    """Sum over sizes m of the Binomial(n, rate) weight of m times m/n times
    sized_values(m, stretched grid), per eps of the float tuple `grid`,
    capped at 1; _stretcher gives each stretched grid, `grid` itself at m = n.
    Sizes go in increasing order, so a sized_values that extends the last
    size's law (privacy_curve's lattice chain) holds one law at a time.

    Two charges replace evaluations by delta = 1, the most a size can
    contribute, so the sum stays an upper bound. A size whose weight is below
    NEGLIGIBLE_SIZE_WEIGHT is charged at every eps, which adds less than
    n * NEGLIGIBLE_SIZE_WEIGHT. Before each size, an eps closes when the
    mass (weight times m/n) of the sizes left is below NEGLIGIBLE_TAIL_SHARE
    times its sum so far: those sizes are charged there, which adds less
    than that share, and an eps whose sum is 0 stays open. Eps close from
    the low end, where delta is largest, so a size is evaluated on a suffix
    of its stretched grid, and the sweep stops when every eps is closed.
    With `charge` off every size is evaluated on the whole grid.
    """
    weights = binomial_pmf(n, rate)
    floor, share = (NEGLIGIBLE_SIZE_WEIGHT, NEGLIGIBLE_TAIL_SHARE) if charge else (0.0, 0.0)
    sized = [(m, weights[m] * m / n) for m in range(1, n + 1) if weights[m] >= floor]
    tail = math.fsum([weights[m] * m / n for m in range(1, n + 1) if weights[m] < floor])
    # The mass of sized[i:]; the close test's rounded sums only pick the eps.
    left = list(itertools.accumulate([f for _, f in reversed(sized)]))[::-1]
    terms: list[list[float]] = [[] for _ in grid]
    stretch = _stretcher(grid)
    lo = 0
    for i, (m, factor) in enumerate(sized):
        while lo < len(grid) and left[i] < share * sum(terms[lo]):
            terms[lo].extend([f for _, f in sized[i:]])
            lo += 1
        if lo == len(grid):
            break
        values = sized_values(m, stretch(n / m)[lo:])
        for ts, v in zip(terms[lo:], values):
            ts.append(factor * v)
    return tuple(min(1.0, math.fsum(ts) + tail) for ts in terms)


def with_replacement_bound(
    db: DatabaseModel,
    q: Query,
    n: int,
    m: int,
    grid: tuple[float, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[AmplifiedParams, ...]:
    """Amplified (eps', delta') pairs for m uniform draws with replacement.

    Needs a monotone query and the samplability precondition certified by
    _gated_drawn_curve (half-line choosability on same-template pairs, the
    coupled mean value inequality on cross pairs); a failure raises
    NotSamplableError with the witness. The gate and the drawn-view curve
    (sampling_curve_max over the templates that draw the sensitive entry)
    are one walk over the drawn classes: the gate sums the laws and rows it
    checked. Each pair is dp_subsample of that curve at the rate P(K >= 1),
    K ~ Binomial(m, 1/n) the entry's draw count: each template class
    carries its exact worst-pair divergence, so the mixture over draw
    counts, sum over k of P(K = k) E[worst | K = k], is
    P(K >= 1) E[worst | K >= 1], the shape of the without-replacement bound.
    """
    _check_model(db, n)
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if not q.monotone:
        raise ValueError("the with-replacement bound needs a monotone query")
    grid = as_grid(grid)
    technique = TemplateDistribution.with_replacement(n, m, budget)
    values = _gated_drawn_curve(db, q, technique, grid, budget)
    return dp_subsample(grid, values, min(1.0, math.fsum(binomial_pmf(m, 1.0 / n)[1:])))


def _gated_drawn_curve(db, q, technique, grid, budget):
    """The drawn-view curve, sampling_curve_max's values, behind the
    samplability precondition over every answer pair the proof compares.

    Per position j, one drawn_classes pass over the given_drawn(j) view
    gives each class's conditioned laws and worst_pairs rows, and two
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
    the enumeration order of the templates; class pairs with equal law keys
    compare the same laws, so each is checked once.

    Raises NotSamplableError with a witness and the refused family
    ("half_line" or "coupled") on the first failure.
    """
    outcomes = db.outcome_grid
    curves = []
    for j in scan_positions(db, technique.exchangeable):
        drawn = technique.given_drawn(j)
        classes = []
        for t, p, keys, laws, rows in drawn_classes(db, q, drawn, j, grid, budget):
            for v, w in itertools.permutations(outcomes, 2):
                res = half_line_check(laws[v], laws[w], grid)
                if not res:
                    raise NotSamplableError(
                        res.eps,
                        res.outcome,
                        "half_line",
                        context=f"j={j}, template={t.indices}, pair=({v}, {w})",
                    )
            classes.append((t, p, keys, laws, rows))
        curves.append(drawn_curve(classes, grid).values)
        if db.n < 2:  # no template avoids j: no cross pairs
            continue
        by_template = {t: (keys, laws, rows) for t, _, keys, laws, rows in classes}
        checked = set()
        for t_in, t_out, _ in matched_coupling(drawn, j, db, budget):
            keys, lefts, ceilings = by_template[t_in]
            key_out = law_key(db, t_out.indices)
            if (keys, key_out) in checked:
                continue
            checked.add((keys, key_out))
            right = apply_template(db, t_out, q, budget)
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
                                f"divergence {hockey_stick_divergence(left, right, eps)} "
                                f"exceeds the same-template ceiling {ceiling}"
                            ),
                        )
    return tuple(max(col) for col in zip(*curves))


def dp_subsample(grid, deltas, rate: float) -> tuple[AmplifiedParams, ...]:
    """Classic DP subsampling per eps of `grid` and its delta:
    (log(1 + rate (e^eps - 1)), rate delta)."""
    grid, deltas = tuple(map(float, grid)), tuple(map(float, deltas))
    _check_eps(grid)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if len(deltas) != len(grid):
        raise ValueError("grid and deltas must have equal length")
    bad = next((d for d in deltas if not 0.0 <= d <= 1.0), None)
    if bad is not None:
        raise ValueError(f"delta {bad} outside [0, 1]")
    return tuple(map(AmplifiedParams, _stretcher(grid)(rate), [rate * d for d in deltas]))


def dp_poisson_bound(
    curve: PrivacyCurve,
    n: int,
    rate: float,
    grid: tuple[float, ...],
) -> tuple[float, ...]:
    """Size-decomposed Poisson bound applied to an arbitrary delta curve, per
    eps of `grid`.

    Evaluates the curve at the stretched epsilons with value_at, whose
    chord in e^eps bounds a delta curve from above between grid points, at
    every size: a lookup costs too little to charge any size instead.
    Stretches beyond the curve's grid raise.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    grid = tuple(map(float, grid))
    _check_eps(grid)

    def value_at(m, stretched):
        return [curve.value_at(e) for e in stretched]

    return _size_mixture(n, rate, grid, value_at, charge=False)
