"""Acceptance gate.

One test per acceptance criterion; each prints a single PASS line with its
measured worst error and runtime, so a -v run reads as a checklist. The
tolerances here are contractual: do not loosen them.
"""

import math
import random
import time
from itertools import product

import pytest

from statpriv.amplify import (
    poisson_bound,
    viability_ratio,
    with_replacement_bound,
    without_replacement_bound,
)
from statpriv.dist import DatabaseModel, Pmf, binomial_pmf, condition, count_query, sum_query
from statpriv.divergence import hockey_stick_divergence, privacy_curve
from statpriv.errors import NotSamplableError
from statpriv.oracle import brute_force_divergence, brute_force_tradeoff
from statpriv.sampling import TemplateDistribution, sampled_pushforward
from statpriv.tradeoff import conjugate, tradeoff_from_pmfs

from statpriv.cli import main as cli_main

AGREEMENT_TOL = 1e-12
DOMINANCE_TOL = 1e-10
DUALITY_TOL = 1e-9
TRADEOFF_TOL = 1e-10
AJC_TOL = 1e-10
TREND_TOL = 1e-9

PS = (0.3, 0.5)
EPS4 = (0.0, 0.5, 1.0, 2.0)
POISSON_RATES = (0.25, 0.5, 0.75)


def _report(num, label, started, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num} [{label}]: PASS in {time.time() - started:.1f}s{extra}")


def _conditioned_pair(db):
    return condition(db, 1, 1.0), condition(db, 1, 0.0)


def _coupling_split(mu, nu):
    """(tv, common, mu_excess, nu_excess): mu = (1 - tv) common + tv mu_excess,
    nu likewise, tv the total variation distance. When tv is 0 or 1 the
    unused parts are mu and nu themselves. Asserts both reassemblies and tv
    against the eps = 0 hockey-stick divergence."""
    union = sorted(set(mu.support) | set(nu.support))
    mins = [(a, min(mu.prob(a), nu.prob(a))) for a in union]
    overlap = math.fsum(w for _, w in mins)
    tv = 1.0 - overlap
    if tv <= 0.0 or overlap == 0.0:
        tv, common, mu_excess, nu_excess = max(tv, 0.0), mu, mu, nu
    else:
        common = Pmf.from_pairs((a, w / overlap) for a, w in mins)
        mu_excess = Pmf.from_pairs((a, (mu.prob(a) - w) / tv) for a, w in mins)
        nu_excess = Pmf.from_pairs((a, (nu.prob(a) - w) / tv) for a, w in mins)
    assert abs(tv - hockey_stick_divergence(mu, nu, 0.0)) <= AGREEMENT_TOL
    for whole, excess in ((mu, mu_excess), (nu, nu_excess)):
        for a in union:
            part = (1.0 - tv) * common.prob(a) + tv * excess.prob(a)
            assert abs(part - whole.prob(a)) <= AGREEMENT_TOL
    return tv, common, mu_excess, nu_excess


def _all_techniques(n):
    for m in range(1, n + 1):
        yield f"wor:{n},{m}", TemplateDistribution.without_replacement(n, m)
    for rate in POISSON_RATES:
        yield f"poisson:{n},{rate}", TemplateDistribution.poisson(n, rate)
    for m in range(1, n + 1):
        yield f"wr:{n},{m}", TemplateDistribution.with_replacement(n, m)


def test_criterion_01_oracle_agreement():
    started = time.time()
    q = sum_query()
    worst = 0.0
    cases = 0
    for p, n in product(PS, (1, 2, 3, 4)):
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        hi, lo = _conditioned_pair(db)
        for label, tech in _all_techniques(n):
            for eps in EPS4:
                for a, b in ((hi, lo), (lo, hi)):
                    pipe = hockey_stick_divergence(
                        sampled_pushforward(a, tech, q),
                        sampled_pushforward(b, tech, q),
                        eps,
                    )
                    ref = brute_force_divergence(a, b, tech, q, eps)
                    diff = abs(pipe - ref)
                    worst = max(worst, diff)
                    cases += 1
                    assert diff <= AGREEMENT_TOL, (
                        f"pipeline {pipe} vs oracle {ref} at {label} p={p} eps={eps}"
                    )
    assert time.time() - started < 30.0
    _report(1, "oracle agreement", started, f"{cases} cases, worst {worst:.2e}")


def test_criterion_02_without_replacement_dominance():
    started = time.time()
    q = sum_query()
    worst = -1.0
    for p, n in product(PS, (1, 2, 3, 4)):
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        hi, lo = _conditioned_pair(db)
        for m in range(1, n + 1):
            tech = TemplateDistribution.without_replacement(n, m)
            bound = without_replacement_bound(db, q, m, EPS4)
            for eps, eps_prime, delta_prime in zip(EPS4, bound.grid, bound.values):
                want = math.log1p((m / n) * math.expm1(eps))
                assert abs(eps_prime - want) <= AGREEMENT_TOL
                direct = max(
                    brute_force_divergence(hi, lo, tech, q, eps_prime),
                    brute_force_divergence(lo, hi, tech, q, eps_prime),
                )
                slack = direct - delta_prime
                worst = max(worst, slack)
                assert slack <= DOMINANCE_TOL, (
                    f"wor n={n} m={m} p={p} eps={eps}: direct {direct} "
                    f"exceeds bound {delta_prime}"
                )
    assert time.time() - started < 30.0
    _report(2, "without-replacement dominance", started, f"worst slack {worst:.2e}")


def test_criterion_03_poisson_dominance():
    started = time.time()
    q = sum_query()
    worst = -1.0
    for p, n, rate in product(PS, (1, 2, 3, 4), POISSON_RATES):
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        hi, lo = _conditioned_pair(db)
        tech = TemplateDistribution.poisson(n, rate)
        curve = poisson_bound(db, q, rate, EPS4)
        for eps, star in zip(curve.grid, curve.values):
            direct = max(
                brute_force_divergence(hi, lo, tech, q, eps),
                brute_force_divergence(lo, hi, tech, q, eps),
            )
            slack = direct - star
            worst = max(worst, slack)
            assert slack <= DOMINANCE_TOL, (
                f"poisson n={n} rate={rate} p={p} eps={eps}: direct {direct} "
                f"exceeds bound {star}"
            )
    assert time.time() - started < 60.0
    _report(3, "poisson dominance", started, f"worst slack {worst:.2e}")


def test_criterion_04_with_replacement_dominance():
    started = time.time()
    q = sum_query()
    ran, refused = [], []
    worst = -1.0
    for p, n, m in product(PS, (1, 2, 3), (1, 2, 3, 4)):
        db = DatabaseModel.iid(Pmf.bernoulli(p), n)
        hi, lo = _conditioned_pair(db)
        tech = TemplateDistribution.with_replacement(n, m)
        try:
            bound = with_replacement_bound(db, q, m, EPS4)
        except NotSamplableError as err:
            refused.append((p, n, m, err.eps, err.outcome))
            continue
        ran.append((p, n, m))
        for eps, eps_prime, delta_prime in zip(EPS4, bound.grid, bound.values):
            direct = max(
                brute_force_divergence(hi, lo, tech, q, eps_prime),
                brute_force_divergence(lo, hi, tech, q, eps_prime),
            )
            slack = direct - delta_prime
            worst = max(worst, slack)
            if slack > DOMINANCE_TOL:
                alt = tuple(
                    math.comb(n, k) * (1 / n) ** k * (1 - 1 / n) ** (m - k)
                    if k <= n
                    else 0.0
                    for k in range(m + 1)
                )
                pytest.fail(
                    f"wr n={n} m={m} p={p} eps={eps}: direct {direct} exceeds "
                    f"bound {delta_prime}; draw-count weights over m draws "
                    f"{binomial_pmf(m, 1.0 / n)} vs the n-indexed alternative {alt}"
                )
    # the single-entry and single-draw columns pass the gate and are the
    # decisive cases: with n-indexed weights the n=1, m>1 bound would be 0
    # against a direct divergence of 1
    for p in PS:
        for m in (1, 2, 3, 4):
            assert (p, 1, m) in ran
        for n in (1, 2, 3):
            assert (p, n, 1) in ran
    assert time.time() - started < 60.0
    _report(
        4,
        "with-replacement dominance",
        started,
        f"{len(ran)} cases ran, {len(refused)} refused by the samplability "
        f"gate, worst slack {worst:.2e}",
    )


def test_criterion_05_duality():
    started = time.time()
    rng = random.Random(1789)
    worst = 0.0
    for _ in range(100):
        k = rng.randint(2, 8)
        mu_w = [rng.random() + 1e-3 for _ in range(k)]
        nu_w = [rng.random() + 1e-3 for _ in range(k)]
        mu = Pmf.from_pairs((float(i), w / math.fsum(mu_w)) for i, w in enumerate(mu_w))
        nu = Pmf.from_pairs((float(i), w / math.fsum(nu_w)) for i, w in enumerate(nu_w))
        fn = tradeoff_from_pmfs(mu, nu)
        for eps in (0.0, 0.5, 1.0):
            want = hockey_stick_divergence(mu, nu, eps)
            got = 1.0 + conjugate(fn, -math.exp(eps))
            diff = abs(got - want)
            worst = max(worst, diff)
            assert diff <= DUALITY_TOL
    assert time.time() - started < 5.0
    _report(5, "conjugation duality", started, f"worst {worst:.2e}")


def test_criterion_06_tradeoff_oracle():
    started = time.time()
    rng = random.Random(6021)
    worst = 0.0
    for _ in range(50):
        k = rng.randint(2, 10)
        mu_w = [rng.random() + 1e-3 for _ in range(k)]
        nu_w = [rng.random() + 1e-3 for _ in range(k)]
        mu = Pmf.from_pairs((float(i), w / math.fsum(mu_w)) for i, w in enumerate(mu_w))
        nu = Pmf.from_pairs((float(i), w / math.fsum(nu_w)) for i, w in enumerate(nu_w))
        fn = tradeoff_from_pmfs(mu, nu)
        alphas = set(fn.xs) | {i / 10.0 for i in range(11)}
        for alpha in sorted(alphas):
            diff = abs(brute_force_tradeoff(mu, nu, alpha) - fn(alpha))
            worst = max(worst, diff)
            assert diff <= TRADEOFF_TOL
    assert time.time() - started < 30.0
    _report(6, "trade-off against subset search", started, f"worst {worst:.2e}")


def test_criterion_07_advanced_joint_convexity():
    started = time.time()
    point = Pmf.from_pairs([(0.0, 1.0)])
    assert _coupling_split(point, point)[0] == 0.0
    assert _coupling_split(point, Pmf.from_pairs([(1.0, 1.0)]))[0] == 1.0
    rng = random.Random(404)
    checked = 0
    worst = -1.0
    while checked < 200:
        k = rng.randint(2, 6)
        mu_w = [rng.random() + 1e-3 for _ in range(k)]
        nu_w = [rng.random() + 1e-3 for _ in range(k)]
        mu = Pmf.from_pairs((float(i), w / math.fsum(mu_w)) for i, w in enumerate(mu_w))
        nu = Pmf.from_pairs((float(i), w / math.fsum(nu_w)) for i, w in enumerate(nu_w))
        tv, common, mu_excess, nu_excess = _coupling_split(mu, nu)
        if not 0.0 < tv < 1.0:
            continue
        checked += 1
        for eps in (0.0, 0.1, 0.5, 1.0):
            eps_prime = math.log1p(tv * math.expm1(eps))
            lhs = hockey_stick_divergence(mu, nu, eps_prime)
            scale = math.exp(eps_prime - eps)
            rhs = tv * (
                (1.0 - scale) * hockey_stick_divergence(mu_excess, common, eps)
                + scale * hockey_stick_divergence(mu_excess, nu_excess, eps)
            )
            slack = lhs - rhs
            worst = max(worst, slack)
            assert slack <= AJC_TOL, (
                f"tv={tv} eps={eps}: lhs {lhs} exceeds rhs {rhs}"
            )
    assert time.time() - started < 5.0
    _report(7, "advanced joint convexity", started, f"200 splits, worst slack {worst:.2e}")


def test_criterion_08_figure2_trend():
    started = time.time()
    entry = Pmf.bernoulli(0.5)
    q = count_query()
    n = 1000
    lams = tuple(round(0.1 * i, 10) for i in range(1, 11))
    rows = {}
    for eps in (0.025, 0.1):
        base = privacy_curve(DatabaseModel.iid(entry, n), q, (eps,))
        ratios = []
        for lam in lams:
            m = min(n, max(1, round(lam * n)))
            ratios.append(viability_ratio(base, entry, q, n, m)[0])
        rows[eps] = ratios
        assert all(r <= 1.0 + TREND_TOL for r in ratios)
        assert abs(ratios[-1] - 1.0) <= TREND_TOL  # identity at full rate
    for small, big in zip(rows[0.025], rows[0.1]):
        assert small >= big - TREND_TOL  # smaller eps amplifies less
    assert time.time() - started < 60.0
    _report(8, "figure 2 trend at n=1000", started)


def test_criterion_09_figure1_trend():
    started = time.time()
    entry = Pmf.bernoulli(0.5)
    q = count_query()
    ns = tuple(range(10, 201, 10))
    for eps in (1.0, 0.3, 0.1):
        deltas = [
            privacy_curve(DatabaseModel.iid(entry, n), q, (eps,)).values[0]
            for n in ns
        ]
        assert all(d > 0.0 for d in deltas)
        drops = [a - b for a, b in zip(deltas, deltas[1:])]
        assert all(d >= -AGREEMENT_TOL for d in drops)
        for d1, d2 in zip(drops, drops[1:]):
            assert d2 <= d1 + AGREEMENT_TOL  # the decrease keeps shrinking
    assert time.time() - started < 30.0
    _report(9, "figure 1 trend", started)


def test_criterion_10_viability_chain():
    started = time.time()
    entry = Pmf.bernoulli(0.5)
    q = count_query()
    for eps in (0.1, 0.5):
        base = privacy_curve(DatabaseModel.iid(entry, 100), q, (eps,))
        for m in (25, 50, 75):
            (r,) = viability_ratio(base, entry, q, 100, m)
            assert 0.0 < r < 1.0, f"m={m} eps={eps}: ratio {r} not below 1"
    assert time.time() - started < 30.0
    _report(10, "viability below one", started)


def test_criterion_11_cli_determinism(tmp_path):
    started = time.time()
    commands = [
        ("curve", "--entry", "bern:0.5", "--n", "3", "--query", "sum",
         "--eps", "0:1:0.25"),
        ("amplify", "--entry", "bern:0.3", "--n", "3", "--query", "sum",
         "--technique", "wor:3,2", "--eps", "0,0.5,1"),
        ("amplify", "--entry", "bern:0.5", "--n", "3", "--query", "sum",
         "--technique", "poisson:3,0.5", "--eps", "0,0.5,1"),
        ("amplify", "--entry", "bern:0.5", "--n", "2", "--query", "sum",
         "--technique", "wr:2,2", "--eps", "0,0.5"),
        ("figures", "fig1", "--entry", "bern:0.5", "--query", "count",
         "--eps", "0.3"),
        ("figures", "fig2", "--entry", "bern:0.5", "--query", "count",
         "--n", "20", "--eps", "0.1"),
        ("figures", "fig3", "--entry", "bern:0.5", "--query", "count",
         "--n", "10", "--eps", "0.1"),
        ("verify", "--max-n", "2"),
    ]
    for idx, argv in enumerate(commands):
        results = []
        for attempt in ("a", "b"):
            sub = tmp_path / f"{idx}{attempt}"
            sub.mkdir()
            out = sub / "out.csv"
            code = cli_main([*argv, "--out", str(out)])
            assert code == 0, f"{argv} exited {code}"
            blobs = sorted(p.name for p in sub.iterdir())
            assert blobs, f"{argv} wrote no files"
            listing = [(name, (sub / name).read_bytes()) for name in blobs]
            assert all(body for _, body in listing)
            results.append(listing)
        assert results[0] == results[1], f"nondeterministic output for {argv}"
    assert time.time() - started < 60.0
    _report(11, "CLI byte determinism", started, f"{len(commands)} commands")
