"""Exact privacy accounting for finite product distributions under subsampling."""

from .amplify import (
    AmplifiedParams,
    dp_poisson_bound,
    dp_subsample,
    poisson_bound,
    viability_ratio,
    with_replacement_bound,
    without_replacement_bound,
)
from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    Query,
    condition,
    count_query,
    mean_query,
    pushforward,
    query_by_name,
    sum_query,
)
from .divergence import (
    HalfLineResult,
    PrivacyCurve,
    default_eps_grid,
    half_line_check,
    hockey_stick_divergence,
    privacy_curve,
)
from .errors import (
    AlreadyFixedError,
    EnumerationBudgetError,
    NotSamplableError,
    ZeroProbabilityError,
)
from .oracle import brute_force_divergence, brute_force_tradeoff
from .sampling import (
    CouplingSplit,
    Template,
    TemplateDistribution,
    apply_template,
    matched_coupling,
    maximal_coupling_split,
    sampled_pushforward,
    sampling_curve,
    sampling_curve_max,
)

# No command of the CLI converts trade-off functions, so `tradeoff` is loaded
# on first use of one of its names rather than on every start.
_TRADEOFF = {
    "TradeoffFn", "conjugate", "curve_to_tradeoff", "inverse", "p_sample", "subsampled_tradeoff",
    "subsampling_operator", "tradeoff_from_pmfs", "tradeoff_to_delta",
}


def __getattr__(name):
    if name in _TRADEOFF:
        from . import tradeoff

        return getattr(tradeoff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
