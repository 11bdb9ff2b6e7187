"""Brute-force reference computations used to validate the pipeline."""

import ast
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv import oracle
from statpriv.dist import DatabaseModel, Pmf, condition, count_query, mean_query, sum_query
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


def test_brute_force_divergence_budget_counts_realizations_of_positive_probability():
    # Entry 1 fixed: 8 Poisson templates times 1 * 2 * 2 realizations, where
    # the whole outcome grid would give 8 * 2^3.
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    hi, lo = condition(db, 1, 1.0), condition(db, 1, 0.0)
    tech = TemplateDistribution.poisson(3, 0.5)
    assert brute_force_divergence(hi, lo, tech, sum_query(), 0.0, budget=32) > 0.0
    with pytest.raises(EnumerationBudgetError, match="needs 32 states") as err:
        brute_force_divergence(hi, lo, tech, sum_query(), 0.0, budget=31)
    assert (err.value.states, err.value.budget) == (32, 31)


def grid_answer_law(db, technique, q):
    """The oracle's joint law over the whole outcome grid: every template
    against every row, rows of probability 0 included."""
    acc = {}
    for indices, pt in oracle._templates(technique)[1]:
        for row in itertools.product(db.outcome_grid, repeat=db.n):
            weight = pt
            for entry, value in zip(db.entries, row):
                weight *= entry.prob(value)
            if indices:
                a = float(q.evaluator(tuple(row[i - 1] for i in indices)))
            else:
                a = float(q.empty_answer)
            acc.setdefault(a, oracle._Kahan()).add(weight)
    return tuple(sorted((a, k.total) for a, k in acc.items()))


def grid_divergence(law_a, law_b, eps):
    """brute_force_divergence's formula on two given laws."""
    law_b = dict(law_b)
    acc = oracle._Kahan()
    for a, wa in law_a:
        wb = law_b.get(a, 0.0)
        diff = wa if wb == 0.0 else wa - math.exp(eps) * wb
        if diff > 0.0:
            acc.add(diff)
    return min(1.0, acc.total)


@st.composite
def oracle_cases(draw):
    """Two models of 1-5 entries on one grid of 2-3 values, each i.i.d. or
    mixing two pmfs, some with a fixed entry, under a named technique or
    explicit items; zero weights put rows of probability 0 on the grid."""
    values = st.sampled_from((-2.0, -1.0, 0.0, 0.5, 1.0, 3.0))
    outcomes = tuple(sorted(draw(st.sets(values, min_size=2, max_size=3))))
    n = draw(st.integers(1, 5))

    def entry():
        raw = draw(st.lists(st.integers(0, 4), min_size=len(outcomes), max_size=len(outcomes)))
        if not any(raw):
            raw[0] = 1
        return Pmf(outcomes, tuple(r / sum(raw) for r in raw))

    def model():
        pool = entry(), entry()
        if draw(st.booleans()):
            db = DatabaseModel.iid(pool[0], n)
        else:
            db = DatabaseModel(tuple(pool[draw(st.integers(0, 1))] for _ in range(n)))
        if draw(st.booleans()):
            db = condition(db, draw(st.integers(1, n)), draw(st.sampled_from(outcomes)))
        return db

    kind = draw(st.sampled_from(("wor", "poisson", "wr", "explicit")))
    if kind == "wor":
        tech = TemplateDistribution.without_replacement(n, draw(st.integers(1, n)))
    elif kind == "poisson":
        tech = TemplateDistribution.poisson(n, draw(st.sampled_from((0.3, 0.5, 0.7, 1.0))))
    elif kind == "wr":
        tech = TemplateDistribution.with_replacement(n, draw(st.integers(1, 2)))
    else:
        picks = st.lists(st.integers(1, n), max_size=3).map(lambda t: Template(tuple(t)))
        templates = draw(st.lists(picks, min_size=1, max_size=3))
        tech = TemplateDistribution("explicit", n, [(t, 1 / len(templates)) for t in templates])
    q = draw(st.sampled_from((sum_query(), count_query(), mean_query())))
    return model(), model(), tech, q


@settings(max_examples=200)
@given(oracle_cases())
def test_answer_law_is_the_grid_enumeration(case):
    db_a, db_b, tech, q = case
    laws = []
    for db in (db_a, db_b):
        got = oracle._answer_law(db, tech, q, oracle.DEFAULT_ORACLE_BUDGET)
        reference = grid_answer_law(db, tech, q)
        want = [(a, w) for a, w in reference if w > 0.0]
        assert [a for a, _ in got] == [a for a, _ in want]
        if all(w > 0.0 for e in db.entries for w in e.weights):
            # No row of probability 0: the same adds in the same order.
            assert [w.hex() for _, w in got] == [w.hex() for _, w in want]
        else:
            # The grid's Kahan also added zeros, which moves its compensation.
            for (_, g), (_, w) in zip(got, want):
                assert abs(g - w) <= 2 * math.ulp(w)
        laws.append(reference)
    for eps in (0.0, 0.5, 1.0):
        got = brute_force_divergence(db_a, db_b, tech, q, eps)
        assert abs(got - grid_divergence(*laws, eps)) <= 1e-15


def loop_answer_law(db, technique, q):
    """The oracle's joint law in its plain form: one generator expression
    and one Kahan add per (template, realization) pair."""
    count, templates = oracle._templates(technique)
    supports = [e.support for e in db.entries]
    rows = [(row, tuple(map(Pmf.prob, db.entries, row))) for row in itertools.product(*supports)]
    acc = {}
    for indices, pt in templates:
        picks = [i - 1 for i in indices]
        for row, probs in rows:
            if picks:
                a = float(q.evaluator(tuple(row[i] for i in picks)))
            else:
                a = float(q.empty_answer)
            k = acc.get(a)
            if k is None:
                k = acc[a] = oracle._Kahan()
            k.add(math.prod(probs, start=pt))
    return tuple(sorted((a, k.total) for a, k in acc.items()))


@settings(max_examples=200)
@given(oracle_cases())
def test_answer_law_is_the_plain_loop_bit_for_bit(case):
    db_a, db_b, tech, q = case
    for db in (db_a, db_b):
        got = oracle._answer_law.__wrapped__(db, tech, q, oracle.DEFAULT_ORACLE_BUDGET)
        want = loop_answer_law(db, tech, q)
        assert [(a.hex(), w.hex()) for a, w in got] == [(a.hex(), w.hex()) for a, w in want]


PIPELINE_KERNELS = {
    "answer_law", "law_key", "MEMO_OUTCOMES", "_law_memo", "_memo_outcomes", "_remember",
    "_enumerate_law", "pushforward", "apply_template", "answer_pmf", "sampled_pushforward",
    "drawn_classes", "binomial_pmf", "_free_law", "_step",
    "hockey_stick_curve", "hockey_stick_divergence", "_aligned", "_pair_curves", "privacy_curve",
    "Laws", "pmfs", "worst_rows", "worst_curve", "cell_curve",
}


def test_the_oracle_uses_none_of_the_pipelines_kernels():
    # Its independence is the evidence: agreement with the pipeline means
    # something only if no answer law, memo or pair scan is shared.
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    shared = {name for name in names if name in PIPELINE_KERNELS or name.startswith("lattice_")}
    assert shared == set()
    # The scan sees the names the oracle does use.
    assert {"_templates", "_Kahan", "TemplateDistribution", "itemgetter"} <= names


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
