"""Entry distributions, database models, conditioning and pushforwards."""

import math

import pytest

from statpriv.dist import (
    DatabaseModel,
    Pmf,
    Query,
    condition,
    count_query,
    mean_query,
    pushforward,
    query_by_name,
    scan_positions,
    sum_query,
)
from statpriv.errors import AlreadyFixedError, EnumerationBudgetError

EXACT = 0.0
TOL = 1e-12


def test_pmf_basic():
    p = Pmf.from_pairs([(0.0, 0.25), (1.0, 0.75)])
    assert p.outcomes == (0.0, 1.0)
    assert p.weights == (0.25, 0.75)
    assert p.prob(1.0) == 0.75
    assert p.prob(2.0) == 0.0
    assert p.support == (0.0, 1.0)


def test_pmf_from_pairs_merges_and_drops_zeros():
    p = Pmf.from_pairs(
        [(1.0, 0.25), (1.0 + 1e-15, 0.25), (2.0, 0.125), (-0.0, 0.125), (0.0, 0.125),
         (2.0, 0.125), (3.0, 0.0)]
    )
    # 1.0 + 1e-15 is another float than 1.0, so another outcome
    assert p.outcomes == (0.0, 1.0, 1.0 + 1e-15, 2.0)
    assert p.weights == (0.25, 0.25, 0.25, 0.25)
    assert math.copysign(1.0, p.outcomes[0]) == 1.0  # -0.0 and 0.0 are one outcome, 0.0
    assert math.copysign(1.0, Pmf.point(-0.0).outcomes[0]) == 1.0


def test_pmf_rejects_bad_weights():
    with pytest.raises(ValueError):
        Pmf.from_pairs([(0.0, 0.5), (1.0, 0.6)])
    with pytest.raises(ValueError):
        Pmf.from_pairs([(0.0, -0.1), (1.0, 1.1)])
    with pytest.raises(ValueError):
        Pmf((1.0, 0.0), (0.5, 0.5))  # outcomes must increase


def test_point_and_bernoulli():
    assert Pmf.point(3.0).as_dict == {3.0: 1.0}
    b = Pmf.bernoulli(0.3)
    assert b.as_dict == {0.0: 0.7, 1.0: 0.3}
    on = Pmf.point_on(1.0, (0.0, 1.0, 2.0))
    assert on.outcomes == (0.0, 1.0, 2.0)
    assert on.weights == (0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Pmf.point_on(5.0, (0.0, 1.0))


def test_mixture():
    m = Pmf.mixture([(0.25, Pmf.point(0.0)), (0.75, Pmf.point(1.0))])
    assert m.as_dict == {0.0: 0.25, 1.0: 0.75}


def test_queries():
    assert sum_query().answer((1.0, 2.0, 3.5)) == 6.5
    assert count_query().answer((0.0, 2.0, 0.5)) == 2.0
    assert mean_query().answer((1.0, 3.0)) == 2.0
    assert sum_query().answer(()) == 0.0
    assert query_by_name("count").name == "count"
    with pytest.raises(ValueError):
        query_by_name("median")
    assert sum_query().monotone and count_query().monotone
    # raising one value raises the mean, so mean is monotone too
    assert mean_query().monotone


def test_database_model_iid():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    assert db.n == 3
    assert db.outcome_grid == (0.0, 1.0)
    assert db.is_iid
    assert db.entries[1].as_dict == {0.0: 0.5, 1.0: 0.5}


def test_database_model_mixed_grid_rejected():
    odd = Pmf.from_pairs([(0.0, 0.5), (2.0, 0.5)])
    same = [Pmf.bernoulli(0.5)] * 3
    # The odd grid first, where the other entries all equal each other, or last.
    for entries in ([same[0], odd], [odd] + same, same + [odd]):
        with pytest.raises(ValueError, match="one outcome grid"):
            DatabaseModel(entries)


def test_scan_positions_of_equal_but_distinct_pmfs():
    entries = [Pmf.bernoulli(0.3) for _ in range(5)]
    assert entries[0] is not entries[1] and entries[0] == entries[1]
    db = DatabaseModel(entries)
    assert db.is_iid
    assert scan_positions(db, True) == (1,)
    assert scan_positions(db, False) == (1, 2, 3, 4, 5)


def test_scan_positions_of_a_second_pmf_or_a_fixed_position():
    p, r = Pmf.bernoulli(0.3), Pmf.bernoulli(0.6)
    mixed = DatabaseModel([p, p, r, p, r])
    assert not mixed.is_iid
    assert scan_positions(mixed, True) == (1, 3)
    assert scan_positions(DatabaseModel([r, p, p]), True) == (1, 2)
    iid = DatabaseModel.iid(p, 4)
    assert scan_positions(condition(iid, 1, 1.0), True) == (2,)
    assert scan_positions(condition(iid, 3, 0.0), True) == (1,)
    assert scan_positions(condition(iid, 3, 0.0), False) == (1, 2, 4)
    assert not condition(iid, 3, 0.0).is_iid


def test_condition():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    fixed = condition(db, 1, 1.0)
    assert fixed.is_fixed(1)
    assert not fixed.is_fixed(2)
    assert fixed.entries[0].weights == (0.0, 1.0)
    # the grid survives conditioning, so the model stays a product model
    assert fixed.outcome_grid == db.outcome_grid
    with pytest.raises(AlreadyFixedError):
        condition(fixed, 1, 0.0)
    with pytest.raises(ValueError):
        condition(db, 1, 7.0)
    with pytest.raises(ValueError):
        condition(db, 0, 0.0)


def test_pushforward_sum():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    assert pushforward(db, sum_query()).as_dict == {0.0: 0.25, 1.0: 0.5, 2.0: 0.25}


def test_pushforward_conditioned():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 2)
    high = condition(db, 1, 1.0)
    assert pushforward(high, sum_query()).as_dict == {1.0: 0.5, 2.0: 0.5}


def test_pushforward_merges_collisions():
    # two entries on {-1, 1}: sum hits 0.0 from two orderings
    e = Pmf.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
    db = DatabaseModel.iid(e, 2)
    got = pushforward(db, sum_query()).as_dict
    assert got == {-2.0: 0.25, 0.0: 0.5, 2.0: 0.25}


def test_pushforward_budget():
    # The kernel enumerates multisets: 60 i.i.d. three-valued entries
    # give C(60 + 2, 2) states, not 3^60.
    e = Pmf.from_pairs([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
    db = DatabaseModel.iid(e, 60)
    with pytest.raises(EnumerationBudgetError) as err:
        pushforward(db, sum_query(), budget=1000)
    assert err.value.budget == 1000
    assert err.value.states == math.comb(62, 2)


def test_query_requires_evaluator_name():
    q = Query("twice-sum", lambda xs: 2.0 * math.fsum(xs), monotone=True)
    assert q.answer((1.0, 2.0)) == 6.0
