"""The value classes and the CLI's start-up.

Every result and model type is a frozen value: two objects of one class are
equal, with one hash, when their fields are; assigning a field raises; repr
shows the fields as a frozen dataclass would. Queries alone compare by
identity. The classes share one small base in `statpriv.dist`, so importing
the CLI loads neither `dataclasses` nor the `inspect` machinery it pulls in.
"""

import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from statpriv.amplify import AmplifiedParams
from statpriv.dist import DatabaseModel, Pmf, Query, sum_query
from statpriv.divergence import HalfLineResult, PrivacyCurve
from statpriv.sampling import CouplingSplit, Template, TemplateDistribution
from statpriv.tradeoff import TradeoffFn

SRC = Path(__file__).resolve().parent.parent / "src"

P = "Pmf(outcomes=(0.0, 1.0), weights=(0.25, 0.75))"

# (build a fresh value, build one that differs in a field, repr of the first)
CASES = {
    "Pmf": (lambda: Pmf((0.0, 1.0), (0.25, 0.75)), lambda: Pmf((0.0, 1.0), (0.5, 0.5)), P),
    "DatabaseModel": (
        lambda: DatabaseModel((Pmf((0.0, 1.0), (0.25, 0.75)), Pmf((0.0, 1.0), (0.0, 1.0))), ((2, 1.0),)),
        lambda: DatabaseModel((Pmf((0.0, 1.0), (0.25, 0.75)), Pmf((0.0, 1.0), (0.0, 1.0)))),
        f"DatabaseModel(entries=({P}, Pmf(outcomes=(0.0, 1.0), weights=(0.0, 1.0))), fixed=((2, 1.0),))",
    ),
    "PrivacyCurve": (
        lambda: PrivacyCurve((0.0, 1.0), (0.5, 0.25)),
        lambda: PrivacyCurve((0.0, 1.0), (0.5, 0.125)),
        "PrivacyCurve(grid=(0.0, 1.0), values=(0.5, 0.25))",
    ),
    "HalfLineResult": (
        lambda: HalfLineResult(False, 0.5, 1.0),
        lambda: HalfLineResult(True),
        "HalfLineResult(ok=False, eps=0.5, outcome=1.0)",
    ),
    "AmplifiedParams": (
        lambda: AmplifiedParams(0.5, 0.125),
        lambda: AmplifiedParams(0.5, 0.25),
        "AmplifiedParams(eps_prime=0.5, delta_prime=0.125)",
    ),
    "Template": (lambda: Template((1, 2, 2)), lambda: Template((1, 2)), "Template(indices=(1, 2, 2))"),
    "TemplateDistribution": (
        lambda: TemplateDistribution.without_replacement(3, 2, budget=1000),
        lambda: TemplateDistribution.without_replacement(3, 1, budget=1000),
        "TemplateDistribution(kind='without_replacement', n=3, items=((Template(indices=(1, 2)), 1.0),),"
        " exchangeable=True, param=2, given=(), budget=1000)",
    ),
    "TemplateDistribution.explicit": (
        lambda: TemplateDistribution("explicit", 2, ((Template((1,)), 0.5), (Template((2,)), 0.5))),
        lambda: TemplateDistribution("explicit", 2, ((Template((1,)), 0.5), (Template((2,)), 0.5)), True),
        "TemplateDistribution(kind='explicit', n=2, items=((Template(indices=(1,)), 0.5),"
        " (Template(indices=(2,)), 0.5)), exchangeable=False, param=None, given=(), budget=10000000)",
    ),
    "CouplingSplit": (
        lambda: CouplingSplit(0.5, *(Pmf((0.0, 1.0), (0.25, 0.75)),) * 3),
        lambda: CouplingSplit(0.25, *(Pmf((0.0, 1.0), (0.25, 0.75)),) * 3),
        f"CouplingSplit(tv=0.5, common={P}, mu_excess={P}, nu_excess={P})",
    ),
    "TradeoffFn": (
        lambda: TradeoffFn((0.0, 1.0), (1.0, 0.0)),
        lambda: TradeoffFn((0.0, 0.5, 1.0), (1.0, 0.25, 0.0)),
        "TradeoffFn(xs=(0.0, 1.0), ys=(1.0, 0.0))",
    ),
}

values = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())


def fields(value):
    """Field values as a tuple, in declaration order; budget is not compared."""
    return tuple(getattr(value, f) for f in type(value).__annotations__ if f != "budget")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S skips site, whose .pth files may import anything: this checks the
    # package's own imports.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import statpriv.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "statpriv.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded


@values
def test_equal_fields_make_equal_values_with_equal_hashes(case):
    make, other, _ = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields(a))
    assert {a: 1}[b] == 1
    assert a != other() and fields(a) != fields(other())


def test_values_of_other_classes_never_compare_equal():
    built = [make() for make, _, _ in CASES.values()]
    for a, b in combinations(built, 2):
        if type(a) is not type(b):
            assert a != b and b != a
    for a in built:
        assert a != fields(a)


@values
def test_fields_are_frozen(case):
    value = case[0]()
    hash(value)
    for name in [*type(value).__annotations__, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        if name in vars(value):
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert value == case[0]()


@values
def test_repr_shows_the_fields(case):
    make, _, text = case
    assert repr(make()) == text


@values
def test_a_pickled_value_is_equal_and_rehashed(case):
    value = case[0]()
    hash(value)
    copy = pickle.loads(pickle.dumps(value))
    # A hash of str fields differs between processes: it is not carried.
    assert "_hash" in vars(value) and "_hash" not in vars(copy)
    assert copy == value and hash(copy) == hash(value)


def test_template_distribution_budget_is_not_compared():
    a = TemplateDistribution.poisson(4, 0.5, budget=100)
    b = TemplateDistribution.poisson(4, 0.5, budget=10**6)
    assert (a.budget, b.budget) == (100, 10**6)
    assert a == b and hash(a) == hash(b)
    assert a.given_count(1, 1) == b.given_count(1, 1)
    assert a.given_count(1, 1).budget == 100


def test_queries_compare_by_identity():
    q = sum_query()
    assert q == q and hash(q) == hash(q)
    assert sum_query() != q
    assert len({q, sum_query(), q}) == 2
    assert repr(Query("q", None, True)) == (
        "Query(name='q', evaluator=None, monotone=True, empty_answer=0.0, additive=None)"
    )
    with pytest.raises(AttributeError):
        q.name = "total"


def test_cached_properties_survive_freezing():
    pmf = Pmf((0.0, 1.0, 2.0), (0.5, 0.0, 0.5))
    assert pmf.support == (0.0, 2.0) and pmf.support is pmf.support
    assert Template((3, 1, 3)).distinct == (1, 3)
    assert DatabaseModel.iid(pmf, 3).is_iid
