"""Templates, technique distributions and their classes, sampled curves and
couplings.

The named techniques are built in closed form as classes of templates. The
tests here enumerate the templates themselves with itertools and exact
rational probabilities, and check the classes, their representatives and
masses, and the coupled class pairs against that enumeration.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statpriv.dist import DatabaseModel, Pmf, condition, law_key, sum_query
from statpriv.divergence import hockey_stick_divergence, privacy_curve
from statpriv.errors import EnumerationBudgetError, ZeroProbabilityError
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
# Relative error allowed on a class mass against its exact value.
MASS_TOL = 1e-15


def pmf(d):
    return Pmf.from_pairs(d.items())


def explicit_templates(technique):
    """(indices, exact probability) of every template of positive mass of a
    whole named technique, in itertools order."""
    n, param = technique.n, technique.param
    everyone = range(1, n + 1)
    if technique.kind == "without_replacement":
        return [(c, Fraction(1, math.comb(n, param))) for c in combinations(everyone, param)]
    if technique.kind == "with_replacement":
        return [(s, Fraction(1, n ** param)) for s in product(everyone, repeat=param)]
    rate = Fraction(param)
    out = []
    for size in range(n + 1):
        p = rate ** size * (1 - rate) ** (n - size)
        out += [(c, p) for c in combinations(everyone, size) if p]
    return out


def explicit_view(technique, given):
    """explicit_templates conditioned on `given`, a list of (j, lo, hi):
    entry j drawn lo to hi times, renormalized exactly."""
    kept = [
        (t, p) for t, p in explicit_templates(technique)
        if all(lo <= t.count(j) <= hi for j, lo, hi in given)
    ]
    total = sum(p for _, p in kept)
    return [(t, p / total) for t, p in kept]


def class_key(indices, db, singled):
    """Which class a template falls in: each distinct index is labeled by
    its entry pmf, or by itself when singled out, and the class is the
    multiset of (label, repeat)."""

    def label(i):
        return ("alone", i) if i in singled else db.entries[i - 1]

    first = list(dict.fromkeys(indices))
    return frozenset(Counter((label(i), indices.count(i)) for i in first).items())


def assert_classes_match_the_templates(technique, given, db):
    """technique.classes(db) against the itertools enumeration: one class
    per class key, represented by its first template, with the exact mass of
    its templates; the mass per law_key agrees too."""
    singled = {j for j, _, _ in given}
    first, exact = {}, {}
    for t, p in explicit_view(technique, given):
        key = class_key(t, db, singled)
        first.setdefault(key, t)
        exact[key] = exact.get(key, 0) + p
    got = technique.classes(db)
    assert [t.indices for t, _ in got] == list(first.values())
    for (t, mass), want in zip(got, exact.values()):
        assert abs(mass - want) <= MASS_TOL * want, (t.indices, mass, float(want))
    per_law, want_law = {}, {}
    for (t, mass), want in zip(got, exact.values()):
        key = law_key(db, t.indices)
        per_law.setdefault(key, []).append(mass)
        want_law[key] = want_law.get(key, 0) + want
    for key, masses in per_law.items():
        assert abs(math.fsum(masses) - want_law[key]) <= MASS_TOL * want_law[key]


def test_template_basics():
    t = Template((2, 1, 2))
    assert t.length == 3
    assert t.distinct == (1, 2)
    for bad in ((0, 1), (1, 3)):
        with pytest.raises(ValueError):
            TemplateDistribution("explicit", 2, ((Template(bad), 1.0),))


def test_without_replacement_support():
    # Alike entries make one class; entry 1 conditioned apart splits it.
    t = TemplateDistribution.without_replacement(3, 2)
    assert t.kind == "without_replacement"
    assert t.exchangeable
    assert [(tt.indices, w) for tt, w in t.items] == [((1, 2), 1.0)]
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    high = condition(db, 1, 1.0)
    assert [(tt.indices, w) for tt, w in t.classes(high)] == [
        ((1, 2), 2 / 3),
        ((2, 3), 1 / 3),
    ]
    # A class of 1200 draws from alike entries is built in one step.
    wide = TemplateDistribution.without_replacement(1500, 1200)
    assert [(tt.indices, w) for tt, w in wide.items] == [(tuple(range(1, 1201)), 1.0)]


def test_poisson_support_includes_empty():
    t = TemplateDistribution.poisson(2, 0.5)
    assert [(tt.indices, w) for tt, w in t.items] == [
        ((), 0.25),
        ((1,), 0.5),
        ((1, 2), 0.25),
    ]
    sure = TemplateDistribution.poisson(2, 1.0)
    assert [(tt.indices, w) for tt, w in sure.items] == [((1, 2), 1.0)]


def test_with_replacement_support():
    t = TemplateDistribution.with_replacement(2, 2)
    assert [(tt.indices, w) for tt, w in t.items] == [((1, 1), 0.5), ((1, 2), 0.5)]
    # uniform over index sequences is invariant under relabeling positions
    assert t.exchangeable
    # Two unlike entries: (1, 2) and (2, 1) are one class, as the answer
    # law does not depend on the order of the draws.
    db = DatabaseModel((Pmf.bernoulli(0.5), Pmf.bernoulli(0.25)))
    assert [(tt.indices, w) for tt, w in t.classes(db)] == [
        ((1, 1), 0.25),
        ((1, 2), 0.5),
        ((2, 2), 0.25),
    ]


def test_weights_sum_to_one():
    db = DatabaseModel((Pmf.bernoulli(0.5),) * 2 + (Pmf.bernoulli(0.25),) * 2)
    for t in (
        TemplateDistribution.without_replacement(4, 2),
        TemplateDistribution.poisson(4, 0.3),
        TemplateDistribution.with_replacement(4, 3),
    ):
        assert abs(math.fsum(w for _, w in t.items) - 1.0) <= TOL
        assert abs(math.fsum(w for _, w in t.classes(db)) - 1.0) <= TOL


def test_given_drawn():
    t = TemplateDistribution.without_replacement(3, 2)
    drawn = t.given_drawn(1)
    assert [(tt.indices, w) for tt, w in drawn.items] == [((1, 2), 1.0)]
    assert not drawn.exchangeable
    assert drawn.given == (1,) and drawn.given_drawn(3).given == (1, 3)
    # One draw never holds entries 1 and 2 both.
    with pytest.raises(ZeroProbabilityError):
        TemplateDistribution.without_replacement(3, 1).given_drawn(1).given_drawn(2)
    # With replacement the drawn view keeps the repeats: of the three
    # sequences drawing entry 1, (1, 1) is one and (1, 2), (2, 1) the other.
    wr = TemplateDistribution.with_replacement(2, 2)
    assert [(tt.indices, w) for tt, w in wr.given_drawn(1).items] == [
        ((1, 1), 1 / 3),
        ((1, 2), 2 / 3),
    ]


def test_explicit_items_are_their_own_classes():
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    items = ((Template((2, 1)), 0.25), (Template((1, 2)), 0.25), (Template((3,)), 0.5))
    t = TemplateDistribution("explicit", 3, items)
    assert t.classes(db) == items
    assert t.given_drawn(1).items == ((Template((2, 1)), 0.5), (Template((1, 2)), 0.5))
    with pytest.raises(ZeroProbabilityError):
        t.given_drawn(1).given_drawn(3)
    # Only the named constructors set the closed-form rule.
    assert t.param is None and t.given == ()
    with pytest.raises(TypeError):
        TemplateDistribution("poisson", 3, items, param=0.5)


def test_budget_counts_classes_not_templates():
    # 10^8 sequences of two draws from 10000 entries are 2 classes, 4 with
    # entry 1 conditioned apart ((1, 1), (1, 2), (2, 2), (2, 3)).
    wide = TemplateDistribution.with_replacement(10000, 2, budget=2)
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 10000)
    assert len(wide.classes(condition(db, 1, 1.0), budget=4)) == 4
    with pytest.raises(EnumerationBudgetError):
        wide.classes(condition(db, 1, 1.0), budget=3)
    # Four draws from 6 alike entries: the 5 partitions of 4. One hundred
    # draws from 100: 190569292 partitions, refused before any is built.
    assert len(TemplateDistribution.with_replacement(6, 4, budget=5).items) == 5
    with pytest.raises(EnumerationBudgetError):
        TemplateDistribution.with_replacement(6, 4, budget=4)
    with pytest.raises(EnumerationBudgetError):
        TemplateDistribution.with_replacement(100, 100)
    # Three of six entries in three pairs of alike ones: 7 count vectors.
    pairs = DatabaseModel(tuple(Pmf.bernoulli(p) for p in (0.2, 0.2, 0.4, 0.4, 0.6, 0.6)))
    three = TemplateDistribution.without_replacement(6, 3)
    assert len(three.classes(pairs, budget=7)) == 7
    with pytest.raises(EnumerationBudgetError):
        three.classes(pairs, budget=6)


def test_views_keep_the_budget_of_their_technique():
    # Four draws from 6 entries, entry 1 conditioned apart: 12 classes are
    # counted, 7 of them draw entry 1.
    with pytest.raises(EnumerationBudgetError) as err:
        TemplateDistribution.with_replacement(6, 4, budget=5).given_drawn(1)
    assert (err.value.states, err.value.budget) == (12, 5)
    view = TemplateDistribution.with_replacement(6, 4, budget=12).given_drawn(1)
    assert len(view.items) == 7


@st.composite
def technique_cases(draw):
    """A model of 1-6 entries drawn from 1-3 pmfs, a named technique over
    it and up to two positions a view conditions on being drawn."""
    ps = draw(st.lists(st.sampled_from((0.25, 0.5, 0.7)), min_size=1, max_size=3))
    pool = [Pmf.bernoulli(p) for p in ps]
    n = draw(st.integers(1, 6))
    db = DatabaseModel(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    kind = draw(st.sampled_from(("without_replacement", "poisson", "with_replacement")))
    if kind == "without_replacement":
        technique = TemplateDistribution.without_replacement(n, draw(st.integers(1, n)))
    elif kind == "poisson":
        technique = TemplateDistribution.poisson(n, draw(st.sampled_from((0.25, 0.3, 0.5, 1.0))))
    else:
        technique = TemplateDistribution.with_replacement(n, draw(st.integers(1, 3)))
    given = [(j, 1, math.inf) for j in draw(st.lists(st.integers(1, n), max_size=2))]
    return db, technique, given


def apply_views(technique, given):
    for j, _, _ in given:
        technique = technique.given_drawn(j)
    return technique


@settings(max_examples=300)
@given(technique_cases())
def test_closed_form_classes_are_the_enumerated_templates(case):
    db, technique, given = case
    try:
        view = apply_views(technique, given)
    except ZeroProbabilityError:
        assert not explicit_view(technique, given)
        return
    assert_classes_match_the_templates(technique, [], db)
    assert_classes_match_the_templates(view, given, db)
    # The budget counts exactly the classes built.
    count = len(technique.classes(db))
    assert len(technique.classes(db, budget=count)) == count
    with pytest.raises(EnumerationBudgetError):
        technique.classes(db, budget=count - 1)


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
    # m-of-n sampling of an i.i.d. model looks exactly like the m-entry
    # model
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
    iid = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    triples = matched_coupling(t.given_drawn(1), 1, iid)
    assert [(a.indices, b.indices, w) for a, b, w in triples] == [((1, 2), (3, 2), 1.0)]
    # Entries 2 and 3 unlike: each template is its own class.
    db = DatabaseModel((Pmf.bernoulli(0.5),) * 2 + (Pmf.bernoulli(0.25),))
    triples = matched_coupling(t.given_drawn(1), 1, db)
    assert [(a.indices, b.indices, w) for a, b, w in triples] == [
        ((1, 2), (3, 2), 0.5),
        ((1, 3), (2, 3), 0.5),
    ]


def explicit_coupling(drawn_templates, j, n):
    """The coupling on explicit templates, with exact probabilities: the
    single j slot of an injective template replaced uniformly by an index
    not drawn, otherwise each j slot independently by any index but j."""
    injective = all(len(set(t)) == len(t) for t, _ in drawn_templates)
    out = []
    for t, p in drawn_templates:
        slots = [s for s, i in enumerate(t) if i == j]
        if injective:
            choices = [(x,) for x in range(1, n + 1) if x not in t]
        else:
            choices = list(product([x for x in range(1, n + 1) if x != j], repeat=len(slots)))
        for values in choices:
            partner = list(t)
            for s, x in zip(slots, values):
                partner[s] = x
            out.append((t, tuple(partner), p / len(choices)))
    return out


COUPLING_MODELS = (
    (Pmf.bernoulli(0.5),) * 4,
    (Pmf.bernoulli(0.5), Pmf.bernoulli(0.25), Pmf.bernoulli(0.5), Pmf.bernoulli(0.25)),
)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3)])
def test_matched_coupling_marginals_without_replacement(n, m):
    assert_coupling_matches_the_templates(TemplateDistribution.without_replacement(n, m))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3)])
def test_matched_coupling_marginals_with_replacement(n, m):
    assert_coupling_matches_the_templates(TemplateDistribution.with_replacement(n, m))


def assert_coupling_matches_the_templates(technique):
    """Class pairs against the explicit coupling, on alike and unlike
    entries: equal joint mass per pair of law keys; the first marginal is
    the classes of the drawn view, the second the templates avoiding j of
    the itertools enumeration, after sorting partners without replacement."""
    n = technique.n
    wr = technique.kind == "with_replacement"
    for entries, j in product(COUPLING_MODELS, range(1, n + 1)):
        db = DatabaseModel(entries[:n])
        drawn = technique.given_drawn(j)
        triples = matched_coupling(drawn, j, db)
        explicit = explicit_coupling(explicit_view(technique, [(j, 1, math.inf)]), j, n)
        got, want = {}, {}
        for a, b, w in triples:
            key = law_key(db, a.indices), law_key(db, b.indices)
            got[key] = got.get(key, 0.0) + w
        for a, b, w in explicit:
            key = law_key(db, a), law_key(db, b)
            want[key] = want.get(key, 0) + w
        assert set(got) == set(want)
        assert all(abs(got[k] - want[k]) <= TOL for k in want)
        left = Counter()
        for a, _, w in triples:
            left[a] += w
        assert all(abs(left[t] - w) <= TOL for t, w in drawn.classes(db))
        right = Counter()
        for _, b, w in triples:
            right[law_key(db, b.indices if wr else tuple(sorted(b.indices)))] += w
        for t, w in explicit_view(technique, [(j, 0, 0)]):
            right[law_key(db, t)] -= w
        assert all(abs(v) <= TOL for v in right.values())


def test_matched_coupling_budget_counts_class_pairs():
    # Two draws from 32 alike entries, entry 1 drawn: 2 classes with 2
    # partner classes each.
    t = TemplateDistribution.with_replacement(32, 2)
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 32)
    drawn = t.given_drawn(1)
    assert len(matched_coupling(drawn, 1, db, budget=4)) == 4
    with pytest.raises(EnumerationBudgetError):
        matched_coupling(drawn, 1, db, budget=3)


def test_matched_coupling_rejects_mixed_lengths():
    t = TemplateDistribution.poisson(3, 0.5)
    db = DatabaseModel.iid(Pmf.bernoulli(0.5), 3)
    with pytest.raises(ValueError):
        matched_coupling(t.given_drawn(1), 1, db)


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
