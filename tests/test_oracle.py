"""Brute-force reference computations used to validate the pipeline."""

import math

import pytest

from statpriv.dist import DatabaseModel, Pmf, condition, sum_query
from statpriv.divergence import hockey_stick_divergence
from statpriv.errors import EnumerationBudgetError
from statpriv.oracle import brute_force_divergence, brute_force_tradeoff
from statpriv.sampling import Template, TemplateDistribution, sampled_pushforward
from statpriv.tradeoff import tradeoff_from_pmfs

TOL = 1e-12


def pmf(d):
    return Pmf.from_pairs(d.items())


def test_brute_force_divergence_matches_pipeline():
    q = sum_query()
    for p in (0.3, 0.5):
        for n in (2, 3):
            db = DatabaseModel.iid(Pmf.bernoulli(p), n)
            hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
            for tech in (
                TemplateDistribution.without_replacement(n, 1),
                TemplateDistribution.without_replacement(n, n),
                TemplateDistribution.poisson(n, 0.5),
                TemplateDistribution.with_replacement(n, 2),
            ):
                for eps in (0.0, 0.5, 1.0):
                    want = hockey_stick_divergence(
                        sampled_pushforward(hi, tech, q),
                        sampled_pushforward(lo, tech, q),
                        eps,
                    )
                    got = brute_force_divergence(hi, lo, tech, q, eps)
                    assert abs(got - want) <= TOL


def test_brute_force_divergence_budget():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    tech = TemplateDistribution.poisson(3, 0.5)
    with pytest.raises(EnumerationBudgetError):
        brute_force_divergence(
            condition(db, 1, 1.0), condition(db, 1, 0.0), tech, sum_query(), 0.0, budget=4
        )


def test_brute_force_divergence_takes_explicit_views_not_named_ones():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    items = ((Template((1,)), 0.5), (Template((2, 3)), 0.25), (Template((1, 3)), 0.25))
    view = TemplateDistribution("explicit", 3, items).given_drawn(1)
    want = hockey_stick_divergence(
        sampled_pushforward(hi, view, sum_query()), sampled_pushforward(lo, view, sum_query()), 0.0
    )
    assert abs(brute_force_divergence(hi, lo, view, sum_query(), 0.0) - want) <= TOL
    with pytest.raises(ValueError):
        brute_force_divergence(
            hi, lo, TemplateDistribution.poisson(3, 0.5).given_drawn(1), sum_query(), 0.0
        )


def test_brute_force_divergence_counts_templates_of_positive_probability():
    # Poisson at rate 1 draws every entry: one template of 2^3 states, not 2^3.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    sure = TemplateDistribution.poisson(3, 1.0)
    assert brute_force_divergence(hi, lo, sure, sum_query(), 0.0, budget=8) == 0.5


def test_brute_force_divergence_rejects_size_mismatch():
    db2 = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    db3 = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    tech = TemplateDistribution.without_replacement(3, 1)
    with pytest.raises(ValueError):
        brute_force_divergence(db2, db3, tech, sum_query(), 0.0)


def test_brute_force_tradeoff_breakpoints():
    mu = pmf({0.0: 0.75, 1.0: 0.25})
    nu = pmf({0.0: 0.25, 1.0: 0.75})
    assert brute_force_tradeoff(mu, nu, 0.0) == 1.0
    assert brute_force_tradeoff(mu, nu, 0.25) == 0.25
    assert brute_force_tradeoff(mu, nu, 1.0) == 0.0
    # between breakpoints the curve interpolates the subset hull
    assert abs(brute_force_tradeoff(mu, nu, 0.1) - 0.7) <= TOL


def test_brute_force_tradeoff_matches_construction():
    mu = pmf({0.0: 0.5, 1.0: 0.3, 2.0: 0.2})
    nu = pmf({0.0: 0.2, 1.0: 0.3, 2.0: 0.5})
    fn = tradeoff_from_pmfs(mu, nu)
    for alpha in (0.0, 0.15, 0.3, 0.5, 0.75, 1.0):
        assert abs(brute_force_tradeoff(mu, nu, alpha) - fn(alpha)) <= TOL


def test_brute_force_tradeoff_support_cap():
    wide = pmf({float(i): 1.0 / 13.0 for i in range(13)})
    with pytest.raises(EnumerationBudgetError):
        brute_force_tradeoff(wide, wide, 0.5)
