"""Templates, technique distributions, sampled curves and couplings."""

import math
from itertools import product

import pytest

from statpriv.dist import DatabaseModel, Pmf, condition, sum_query
from statpriv.divergence import hockey_stick_divergence, privacy_curve
from statpriv.errors import ZeroProbabilityError
from statpriv.sampling import (
    Template,
    TemplateDistribution,
    apply_template,
    matched_coupling,
    maximal_coupling_split,
    sampled_pushforward,
    sampling_curve,
    sampling_curve_max,
)

TOL = 1e-12


def pmf(d):
    return Pmf.from_pairs(d.items())


def test_template_basics():
    t = Template((2, 1, 2))
    assert t.length == 3
    assert t.count(2) == 2
    assert t.distinct == (1, 2)
    with pytest.raises(ValueError):
        Template((0, 1))


def test_without_replacement_support():
    t = TemplateDistribution.without_replacement(3, 2)
    assert t.kind == "without_replacement"
    assert t.exchangeable
    assert [(tt.indices, w) for tt, w in t.items] == [
        ((1, 2), 1 / 3),
        ((1, 3), 1 / 3),
        ((2, 3), 1 / 3),
    ]


def test_poisson_support_includes_empty():
    t = TemplateDistribution.poisson(2, 0.5)
    assert [(tt.indices, w) for tt, w in t.items] == [
        ((), 0.25),
        ((1,), 0.25),
        ((2,), 0.25),
        ((1, 2), 0.25),
    ]
    sure = TemplateDistribution.poisson(2, 1.0)
    assert [(tt.indices, w) for tt, w in sure.items] == [((1, 2), 1.0)]


def test_with_replacement_support():
    t = TemplateDistribution.with_replacement(2, 2)
    assert [(tt.indices, w) for tt, w in t.items] == [
        ((1, 1), 0.25),
        ((1, 2), 0.25),
        ((2, 1), 0.25),
        ((2, 2), 0.25),
    ]
    # uniform over index sequences is invariant under relabeling positions
    assert t.exchangeable


def test_weights_sum_to_one():
    for t in (
        TemplateDistribution.without_replacement(4, 2),
        TemplateDistribution.poisson(3, 0.3),
        TemplateDistribution.with_replacement(3, 3),
    ):
        assert abs(math.fsum(w for _, w in t.items) - 1.0) <= TOL


def test_given_drawn_and_not_drawn():
    t = TemplateDistribution.without_replacement(3, 2)
    drawn = t.given_drawn(1)
    assert [(tt.indices, w) for tt, w in drawn.items] == [((1, 2), 0.5), ((1, 3), 0.5)]
    out = t.given_not_drawn(1)
    assert [(tt.indices, w) for tt, w in out.items] == [((2, 3), 1.0)]
    full = TemplateDistribution.without_replacement(2, 2)
    with pytest.raises(ZeroProbabilityError):
        full.given_not_drawn(1)


def test_given_count():
    t = TemplateDistribution.with_replacement(2, 2)
    one = t.given_count(1, 1)
    assert [(tt.indices, w) for tt, w in one.items] == [((1, 2), 0.5), ((2, 1), 0.5)]
    two = t.given_count(1, 2)
    assert [(tt.indices, w) for tt, w in two.items] == [((1, 1), 1.0)]
    with pytest.raises(ZeroProbabilityError):
        t.given_count(1, 3)


def test_apply_template_repeats_share_one_draw():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    q = sum_query()
    assert apply_template(db, Template((1, 1)), q).as_dict == {0.0: 0.5, 2.0: 0.5}
    assert apply_template(db, Template((1, 2)), q).as_dict == {
        0.0: 0.25,
        1.0: 0.5,
        2.0: 0.25,
    }


def test_apply_empty_template():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    assert apply_template(db, Template(()), sum_query()).as_dict == {0.0: 1.0}


def test_sampled_pushforward_mixture():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    high = condition(db, 1, 1.0)
    t = TemplateDistribution.without_replacement(2, 1)
    # half the mass reads the fixed entry, half the open one
    assert sampled_pushforward(high, t, sum_query()).as_dict == {0.0: 0.25, 1.0: 0.75}


def test_sampling_curve_single_draw():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    t = TemplateDistribution.without_replacement(2, 1)
    c = sampling_curve(db, sum_query(), t.given_drawn(1), 1, (0.0, 0.5))
    # conditioned answers are point masses, so the curve is flat 1
    assert c.values == (1.0, 1.0)


def test_sampling_curve_max_collapses_to_smaller_model():
    # m-of-n sampling of an i.i.d. model with a symmetric query looks
    # exactly like the m-entry model
    grid = (0.0, 0.25, 0.5, 1.0, 2.0)
    q = sum_query()
    for n, m, p in ((3, 2, 0.5), (4, 2, 0.3), (4, 3, 0.5)):
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        tech = TemplateDistribution.without_replacement(n, m)
        got = sampling_curve_max(db, q, tech, grid)
        ref = privacy_curve(DatabaseModel.iid(Pmf.bernoulli(p), m), q, grid)
        assert all(abs(x - y) <= TOL for x, y in zip(got.values, ref.values))


def test_sampling_curve_max_scans_every_position_of_a_conditioned_view():
    # A conditioned view is not exchangeable, so every position is scanned
    # even on an i.i.d. model. Given entry 2 among two draws with
    # replacement from three, the template (2, 2) has probability 1/5 and
    # answers 2 x_2 (distance 1 at eps 0); the other four pair entry 2 with
    # another entry (0.5). Entry 1 is drawn only alongside entry 2.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    q = sum_query()
    view = TemplateDistribution.with_replacement(3, 2).given_drawn(2)
    grid = (0.0, 0.5)
    per_position = [sampling_curve(db, q, view, j, grid).values for j in (1, 2, 3)]
    assert abs(per_position[0][0] - 0.5) <= TOL
    assert abs(per_position[1][0] - 0.6) <= TOL
    got = sampling_curve_max(db, q, view, grid)
    assert got.values == tuple(max(col) for col in zip(*per_position))


def test_matched_coupling_injective():
    t = TemplateDistribution.without_replacement(3, 2)
    triples = matched_coupling(t.given_drawn(1), t.given_not_drawn(1), 1)
    assert [(a.indices, b.indices, w) for a, b, w in triples] == [
        ((1, 2), (3, 2), 0.5),
        ((1, 3), (2, 3), 0.5),
    ]


def _coupling_marginals(triples, symmetric=True):
    left, right = {}, {}
    for a, b, w in triples:
        ka = tuple(sorted(a.indices)) if symmetric else a.indices
        kb = tuple(sorted(b.indices)) if symmetric else b.indices
        left[ka] = left.get(ka, 0.0) + w
        right[kb] = right.get(kb, 0.0) + w
    return left, right


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3)])
def test_matched_coupling_marginals_without_replacement(n, m):
    t = TemplateDistribution.without_replacement(n, m)
    drawn, avoided = t.given_drawn(1), t.given_not_drawn(1)
    left, right = _coupling_marginals(matched_coupling(drawn, avoided, 1))
    want_left = {tuple(sorted(tt.indices)): w for tt, w in drawn.items}
    want_right = {tuple(sorted(tt.indices)): w for tt, w in avoided.items}
    assert set(left) == set(want_left)
    assert all(abs(left[k] - want_left[k]) <= TOL for k in want_left)
    assert set(right) == set(want_right)
    assert all(abs(right[k] - want_right[k]) <= TOL for k in want_right)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3)])
def test_matched_coupling_marginals_with_replacement(n, m):
    t = TemplateDistribution.with_replacement(n, m)
    drawn, avoided = t.given_drawn(1), t.given_not_drawn(1)
    left, right = _coupling_marginals(
        matched_coupling(drawn, avoided, 1), symmetric=False
    )
    want_left = {tt.indices: w for tt, w in drawn.items}
    want_right = {tt.indices: w for tt, w in avoided.items}
    assert all(abs(left[k] - want_left[k]) <= TOL for k in want_left)
    assert abs(math.fsum(right.values()) - 1.0) <= TOL
    assert all(abs(right[k] - want_right[k]) <= TOL for k in want_right)


def test_matched_coupling_rejects_mixed_lengths():
    t = TemplateDistribution.poisson(3, 0.5)
    with pytest.raises(ValueError):
        matched_coupling(t.given_drawn(1), t.given_not_drawn(1), 1)


def test_maximal_coupling_split():
    mu = pmf({0.0: 0.7, 1.0: 0.3})
    nu = pmf({0.0: 0.4, 1.0: 0.6})
    sp = maximal_coupling_split(mu, nu)
    assert abs(sp.tv - 0.3) <= TOL
    assert abs(sp.tv - hockey_stick_divergence(mu, nu, 0.0)) <= TOL
    assert sp.mu_excess.support == (0.0,)
    assert sp.nu_excess.support == (1.0,)
    # the split must reassemble both inputs exactly
    for a in (0.0, 1.0):
        lhs = (1.0 - sp.tv) * sp.common.prob(a) + sp.tv * sp.mu_excess.prob(a)
        assert abs(lhs - mu.prob(a)) <= TOL
        rhs = (1.0 - sp.tv) * sp.common.prob(a) + sp.tv * sp.nu_excess.prob(a)
        assert abs(rhs - nu.prob(a)) <= TOL


def test_maximal_coupling_split_degenerate():
    mu = pmf({0.0: 1.0})
    assert maximal_coupling_split(mu, mu).tv == 0.0
    nu = pmf({1.0: 1.0})
    assert maximal_coupling_split(mu, nu).tv == 1.0
