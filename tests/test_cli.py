"""Command line interface: parsing, outputs, exit codes, determinism."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from statpriv.cli import (
    UsageError,
    main,
    parse_entry,
    parse_eps,
    parse_technique,
    read_config,
)
from statpriv.dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Laws,
    condition,
    lattice_chain,
    pushforward,
    sum_query,
)
from statpriv.divergence import privacy_curve, worst_curve
from statpriv.oracle import brute_force_divergence
from statpriv.sampling import TemplateDistribution


def run(tmp_path, *argv):
    return main(list(argv))


def test_parse_entry():
    assert parse_entry("bern:0.3").as_dict == {0.0: 0.7, 1.0: 0.3}
    assert parse_entry("point:2.5").as_dict == {2.5: 1.0}
    got = parse_entry("discrete:0@0.5,2@0.25,3@0.25").as_dict
    assert got == {0.0: 0.5, 2.0: 0.25, 3.0: 0.25}
    # discrete weights are normalized, so a lone weight of 0.5 is a point mass
    assert parse_entry("discrete:0@0.5").as_dict == {0.0: 1.0}
    for bad in ("bern", "bern:1.5", "gauss:1", "discrete:0@0", "discrete:0@-1,1@2"):
        with pytest.raises(Exception):
            parse_entry(bad)
    # A negative weight is refused by name, not dropped with the zeros.
    for bad, weight in (("discrete:0@-1e-13,1@1", "-1e-13"), ("discrete:0@-0.5,1@0.5,2@1", "-0.5")):
        with pytest.raises(UsageError, match=f"^--entry discrete: weight {weight} is negative$"):
            parse_entry(bad)


def test_parse_entry_normalizes_discrete_weights():
    got = parse_entry("discrete:0@1,1@1,2@1")
    assert got.outcomes == (0.0, 1.0, 2.0)
    assert all(abs(w - 1.0 / 3.0) <= 1e-15 for w in got.weights)
    # weights that already sum to 1 pass through unchanged
    exact = parse_entry("discrete:0@0.125,1@0.5,2@0.375")
    assert exact.weights == (0.125, 0.5, 0.375)
    for zero in ("discrete:0@0,1@0", "discrete:0@-1,1@1"):
        with pytest.raises(UsageError, match="positive total"):
            parse_entry(zero)


def test_discrete_entry_with_unnormalized_weights_runs(tmp_path):
    out = tmp_path / "third.csv"
    code = run(
        tmp_path,
        "curve", "--entry", "discrete:0@1,1@1,2@1", "--n", "3", "--query", "sum",
        "--eps", "0", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().startswith("epsilon,delta\n0,")


def test_poisson_amplify_beyond_float_binomials(tmp_path):
    # C(1100, m) exceeds the float range for m near 550; the size weights
    # must still be computed, not overflow.
    out = tmp_path / "poisson.csv"
    code = run(
        tmp_path,
        "amplify", "--entry", "bern:0.5", "--query", "count",
        "--technique", "poisson:1100,0.01", "--eps", "0.5", "--out", str(out),
    )
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header == "epsilon,eps_prime,delta_prime"
    assert 0.0 < float(row.split(",")[2]) < 1.0


def test_parse_eps():
    assert parse_eps("0.5", DEFAULT_BUDGET) == (0.5,)
    assert parse_eps("0:1:0.5", DEFAULT_BUDGET) == (0.0, 0.5, 1.0)
    assert parse_eps("0,0.25,1", DEFAULT_BUDGET) == (0.0, 0.25, 1.0)
    assert parse_eps("ln2", DEFAULT_BUDGET) == (math.log(2.0),)
    with pytest.raises(Exception):
        parse_eps("1,0.5", DEFAULT_BUDGET)  # must increase
    with pytest.raises(Exception):
        parse_eps("0:1:0", DEFAULT_BUDGET)
    for bad in ("0:inf:1", "0:1:nan", "nan:1:0.5", "inf:inf:1", "inf", "nan", "0,nan", "lninf"):
        with pytest.raises(UsageError, match="--eps"):
            parse_eps(bad, DEFAULT_BUDGET)


def test_parse_technique():
    assert parse_technique("none") == ("none",)
    assert parse_technique("wor:10,3") == ("wor", 10, 3)
    assert parse_technique("poisson:5,0.5") == ("poisson", 5, 0.5)
    assert parse_technique("wr:4,6") == ("wr", 4, 6)
    for bad in ("wor", "wor:1", "bootstrap:3,1", "poisson:5,2.0"):
        with pytest.raises(Exception):
            parse_technique(bad)


def test_read_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nentry=bern:0.5\nn=2\n\nquery=sum\n")
    assert read_config(str(cfg)) == {"entry": "bern:0.5", "n": "2", "query": "sum"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("entry=bern:0.5\nnot a pair\n")
    with pytest.raises(Exception) as err:
        read_config(str(bad))
    assert "2" in str(err.value)  # names the offending line


def test_curve_command(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(
        tmp_path,
        "curve", "--entry", "bern:0.5", "--n", "2", "--query", "sum",
        "--eps", "0:1:0.5", "--out", str(out),
    )
    assert code == 0
    assert out.read_text() == "epsilon,delta\n0,0.5\n0.5,0.5\n1,0.5\n"


def test_curve_rejects_sampling_technique(tmp_path):
    out = tmp_path / "x.csv"
    code = run(
        tmp_path,
        "curve", "--entry", "bern:0.5", "--n", "2", "--query", "sum",
        "--technique", "wor:2,1", "--eps", "0", "--out", str(out),
    )
    assert code == 1


def test_amplify_without_replacement(tmp_path):
    out = tmp_path / "amp.csv"
    code = run(
        tmp_path,
        "amplify", "--entry", "bern:0.5", "--n", "2", "--query", "sum",
        "--technique", "wor:2,1", "--eps", "0,ln2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,eps_prime,delta_prime"
    assert lines[1] == "0,0,0.5"
    assert lines[2].startswith("0.6931471805599453,0.4054651081081644,0.5")


def test_amplify_poisson(tmp_path):
    out = tmp_path / "poisson.csv"
    code = run(
        tmp_path,
        "amplify", "--entry", "bern:0.5", "--n", "2", "--query", "sum",
        "--technique", "poisson:2,0.5", "--eps", "0,0.5", "--out", str(out),
    )
    assert code == 0


def test_amplify_wr_gate_refusal_exit_code(tmp_path):
    out = tmp_path / "wr.csv"
    code = run(
        tmp_path,
        "amplify", "--entry", "bern:0.3", "--n", "2", "--query", "sum",
        "--technique", "wr:2,2", "--eps", "0,0.5,1", "--out", str(out),
    )
    assert code == 3
    assert not out.exists()


def test_budget_exit_code(tmp_path, capsys):
    # Entry 1 is conditioned; the other 59 entries form one class of
    # C(59 + 2, 2) = 1830 multisets.
    out = tmp_path / "big.csv"
    code = run(
        tmp_path,
        "curve", "--entry", "discrete:0@0.25,1@0.5,2@0.25", "--n", "60",
        "--query", "mean", "--eps", "0", "--out", str(out), "--budget", "1000",
    )
    assert code == 2
    assert "needs 1830 states" in capsys.readouterr().err


def kernel_curve(entry, n, grid):
    """The sum's curve from multiset-kernel pushforwards, as floats."""
    db = DatabaseModel.iid(parse_entry(entry), n)
    laws = {w: pushforward(condition(db, 1, w), sum_query()) for w in db.outcome_grid}
    return list(worst_curve(Laws(laws), grid))


def curve_values(capsys, *argv):
    assert main(["curve", "--query", "sum", "--eps", "0,0.5,1", *argv]) == 0
    return [float(row.split(",")[1]) for row in capsys.readouterr().out.splitlines()[1:]]


def test_decimal_entry_beyond_the_lattice_budget_takes_the_multiset_kernel(capsys):
    # 0.1, 0.2 and 0.3 are integers over 2^55 whose differences have gcd 1,
    # so the lattice chain would need about 7e15 cells per entry.
    entry = "discrete:0.1@0.5,0.2@0.25,0.3@0.25"
    assert lattice_chain(DatabaseModel.iid(parse_entry(entry), 8), 1, sum_query()) is None
    got = curve_values(capsys, "--entry", entry, "--n", "8")
    assert got == kernel_curve(entry, 8, (0.0, 0.5, 1.0))


WIDE_AT_ONE = "discrete:0@0.2,0.1@0.3,0.3@0.5"


@pytest.mark.parametrize("argv", [
    ("curve", "--entry", WIDE_AT_ONE, "--n", "1", "--query", "sum"),
    ("amplify", "--entry", WIDE_AT_ONE, "--query", "sum", "--technique", "wor:8,1"),
    ("amplify", "--entry", WIDE_AT_ONE, "--query", "mean", "--technique", "poisson:8,0.3",
     "--budget", "200"),
])
def test_wide_lattice_without_free_entries_takes_the_multiset_kernel(argv, monkeypatch, capsys):
    # With no free entry the chain convolves nothing, but shifting by the
    # steps of scores about 1.1e16 apart would build that many cells.
    one = DatabaseModel.iid(parse_entry(WIDE_AT_ONE), 1)
    assert lattice_chain(one, 1, sum_query()) is None
    assert main(list(argv)) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr("statpriv.divergence.lattice_chain", lambda *args: None)
    monkeypatch.setattr("statpriv.amplify.lattice_builder", lambda *args: None)
    assert main(list(argv)) == 0
    assert got == capsys.readouterr().out
    if argv[0] == "curve":
        rows = [row.split(",") for row in got.splitlines()[1:]]
        grid = tuple(float(eps) for eps, _ in rows)
        assert [float(delta) for _, delta in rows] == kernel_curve(WIDE_AT_ONE, 1, grid)


def test_budget_takes_the_chain_then_the_multiset_kernel_then_refuses(capsys):
    # n = 10 on three values: the chain over 9 free entries of span 2 builds
    # 2 * 45 + 9 = 99 cells; the multiset kernel enumerates C(11, 2) = 55
    # count vectors per conditioned law.
    entry = "discrete:0@0.25,1@0.5,2@0.25"
    argv = ("--entry", entry, "--n", "10")
    chain = curve_values(capsys, *argv, "--budget", "99")
    kernel = curve_values(capsys, *argv, "--budget", "98")
    assert kernel == curve_values(capsys, *argv, "--budget", "55")
    assert kernel == kernel_curve(entry, 10, (0.0, 0.5, 1.0))
    assert max(abs(a - b) for a, b in zip(chain, kernel)) <= 1e-12
    assert main(["curve", "--query", "sum", "--eps", "0", *argv, "--budget", "54"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: enumeration needs 55 states but the budget is 54")
    assert err.count("\n") == 1


def test_usage_exit_code(tmp_path):
    assert run(tmp_path, "curve", "--entry", "bern:2", "--n", "2",
               "--query", "sum", "--eps", "0", "--out", str(tmp_path / "u.csv")) == 1
    assert run(tmp_path, "frobnicate") == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg.csv"
    cfg.write_text(
        f"entry=bern:0.5\nn=2\nquery=sum\neps=0\nout={out}\n"
    )
    code = run(tmp_path, "curve", "--config", str(cfg))
    assert code == 0
    assert out.read_text() == "epsilon,delta\n0,0.5\n"
    # a flag beats the file value
    out2 = tmp_path / "cfg2.csv"
    code = run(tmp_path, "curve", "--config", str(cfg), "--out", str(out2))
    assert code == 0
    assert out2.read_text() == out.read_text()


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("entry=bern:0.5\nnn=2\n")
    assert run(tmp_path, "curve", "--config", str(cfg)) == 1


def test_figures_fig1(tmp_path):
    stem = tmp_path / "fig1.csv"
    code = run(
        tmp_path,
        "figures", "fig1", "--entry", "bern:0.5", "--query", "count",
        "--eps", "0.3", "--out", str(stem),
    )
    assert code == 0
    made = sorted(p.name for p in tmp_path.glob("fig1_eps*.csv"))
    assert made == ["fig1_eps0.3.csv"]
    lines = (tmp_path / "fig1_eps0.3.csv").read_text().splitlines()
    assert lines[0] == "n,delta"
    assert len(lines) == 21  # n = 10..200 step 10


def test_figures_fig2_small(tmp_path):
    stem = tmp_path / "fig2.csv"
    code = run(
        tmp_path,
        "figures", "fig2", "--entry", "bern:0.5", "--query", "count",
        "--n", "20", "--eps", "0.1", "--out", str(stem),
    )
    assert code == 0
    lines = (tmp_path / "fig2_eps0.1.csv").read_text().splitlines()
    assert lines[0] == "lambda,ratio"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert last[0] == "1" and float(last[1]) == 1.0


def test_figures_fig2_builds_the_unsampled_curve_once(tmp_path, monkeypatch):
    built = []

    def counted(db, *args):
        built.append(db.n)
        return privacy_curve(db, *args)

    monkeypatch.setattr("statpriv.cli.privacy_curve", counted)
    monkeypatch.setattr("statpriv.amplify.privacy_curve", counted)
    argv = ("figures", "fig2", "--entry", "bern:0.5", "--query", "count")
    assert run(tmp_path, *argv, "--out", str(tmp_path / "fig2.csv")) == 0
    # The n = 100 curve once for every fraction, then one per sampled size.
    assert built == [100, *range(10, 101, 10)]


@pytest.mark.parametrize("which", ["fig2", "fig3"])
def test_figures_ratio_on_a_flat_curve_exits_1(tmp_path, capsys, which):
    # A point entry has delta 0 at every eps, so the ratio is undefined.
    code = run(
        tmp_path,
        "figures", which, "--entry", "point:1", "--query", "count",
        "--n", "10", "--out", str(tmp_path / "f.csv"),
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: unsampled curve is 0 at eps=0.025; ratio undefined\n"
    )


def test_verify_clean_and_faulty(tmp_path):
    out = tmp_path / "verify.csv"
    assert run(tmp_path, "verify", "--max-n", "2", "--out", str(out)) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "case,quantity,pipeline,oracle,abs_diff,pass"
    assert all(r.endswith(",1") for r in rows[1:])
    bad = tmp_path / "verify_bad.csv"
    assert run(tmp_path, "verify", "--max-n", "2", "--out", str(bad),
               "--inject-fault") == 3
    assert any(r.endswith(",0") for r in bad.read_text().splitlines()[1:])


def test_verify_counts_gate_refusals_on_stderr(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert run(tmp_path, "verify", "--max-n", "4", "--out", str(out)) == 0
    assert capsys.readouterr().err == (
        "verify: the samplability gate refused 3 of 12 with-replacement cases "
        "(half_line 0, coupled 3)\n"
    )
    rows = out.read_text().splitlines()
    assert "wr n=4 m=2 p=0.5 eps=0,wr_dominance,0.25,0.25,0,1" in rows
    assert not any(r.startswith("wr n=4 m=2 p=0.3 eps=0,wr_dominance") for r in rows)


@pytest.mark.parametrize(
    "argv, query",
    [
        (("curve", "--n", "3", "--query", "mean"), "mean"),
        (("amplify", "--n", "3", "--query", "sum", "--technique", "wr:3,2"), "sum"),
    ],
)
def test_answers_beyond_the_float_range_exit_1_naming_the_query(tmp_path, capsys, argv, query):
    out = tmp_path / "out.csv"
    code = run(tmp_path, *argv, "--entry", "discrete:1e308@0.5,0@0.5", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: query '{query}' overflows") and err.count("\n") == 1


def curve_rows(tmp_path, entry, n, eps):
    out = tmp_path / "curve.csv"
    argv = ("curve", "--entry", entry, "--n", str(n), "--query", "sum", "--eps", eps)
    assert run(tmp_path, *argv, "--out", str(out)) == 0
    return out.read_text().splitlines()


@pytest.mark.parametrize("n", [10, 20])
def test_shifting_every_outcome_by_1e11_leaves_the_sum_curve_unchanged(tmp_path, n):
    # Sums of 1e11 and 1e11 + 1 agree to 12 digits but are distinct exact
    # floats, so they must stay distinct answers: a shift is a bijection.
    shifted = curve_rows(tmp_path, "discrete:1e11@0.5,100000000001@0.5", n, "0,1")
    assert shifted == curve_rows(tmp_path, "bern:0.5", n, "0,1")
    assert float(shifted[2].split(",")[1]) > 0.005


def test_two_valued_decimal_entry_takes_the_answers_the_query_releases(tmp_path):
    # fsum tells the 4 sums of three draws of -0.1 / 0.2 apart, as it does
    # the counts of bern(0.3); no merge or split of answers loosens delta.
    rows = curve_rows(tmp_path, "discrete:-0.1@0.7,0.2@0.3", 3, "0,1")
    assert rows == curve_rows(tmp_path, "bern:0.3", 3, "0,1")
    assert [float(r.split(",")[1]) for r in rows[1:]] == [0.49, 0.49]
    entry = parse_entry("discrete:-0.1@0.7,0.2@0.3")
    db = DatabaseModel.iid(entry, 3)
    high, low = condition(db, 1, 0.2), condition(db, 1, -0.1)
    technique = TemplateDistribution.without_replacement(3, 3)
    for eps in (0.0, 1.0):
        oracle = max(
            brute_force_divergence(high, low, technique, sum_query(), eps),
            brute_force_divergence(low, high, technique, sum_query(), eps),
        )
        assert abs(oracle - 0.49) <= 1e-12


@pytest.mark.parametrize("command", ["amplify"])
def test_n_must_match_the_technique_size(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    code = run(
        tmp_path,
        command, "--entry", "bern:0.5", "--n", "7", "--query", "sum",
        "--technique", "poisson:3,0.5", "--eps", "0.5", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --n disagrees with the technique size 3\n"
    assert not out.exists()


def test_figures_rejects_sampling_technique(tmp_path, capsys):
    # A figure sets its own sampling fractions; a technique is refused, not ignored.
    argv = ("figures", "fig1", "--entry", "bern:0.5", "--query", "count", "--eps", "0.3")
    stem = str(tmp_path / "f.csv")
    assert run(tmp_path, *argv, "--technique", "wr:3,2", "--out", stem) == 1
    assert capsys.readouterr().err == (
        "error: figures sets its own sampling; use amplify for techniques\n"
    )
    assert not list(tmp_path.glob("f_eps*.csv"))
    assert run(tmp_path, *argv, "--technique", "none", "--out", stem) == 0
    assert [p.name for p in tmp_path.glob("f_eps*.csv")] == ["f_eps0.3.csv"]


@pytest.mark.parametrize("argv", [
    ("curve", "--entry", "bern:0.5", "--n", "3", "--query", "sum",
     "--eps", "0:1:0.25"),
    ("amplify", "--entry", "bern:0.3", "--n", "3", "--query", "sum",
     "--technique", "wor:3,2", "--eps", "0,0.5"),
    ("amplify", "--entry", "bern:0.5", "--n", "2", "--query", "sum",
     "--technique", "poisson:2,0.5", "--eps", "0,1"),
])
def test_byte_determinism(tmp_path, argv):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(tmp_path, *argv, "--out", str(a)) == 0
    assert run(tmp_path, *argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


COMMON_FLAGS = ("--entry", "--n", "--query", "--technique", "--eps", "--out", "--budget", "--config")
FLAGS = {
    "curve": COMMON_FLAGS,
    "amplify": COMMON_FLAGS,
    "figures": COMMON_FLAGS,
    "verify": ("--max-n", "--out", "--budget"),
}


def test_help_lists_every_flag_of_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command, flags in FLAGS.items():
        section = out[out.index(f"statpriv {command}"):]
        assert all(flag in section for flag in flags)
    assert "--inject-fault" not in out


@pytest.mark.parametrize("command", FLAGS)
@pytest.mark.parametrize("switch", ["-h", "--help"])
def test_command_help_lists_its_flags(capsys, command, switch):
    assert main([command, "--out", "never.csv", switch]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: statpriv")
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  --")] == list(
        FLAGS[command]
    )


def test_flag_equals_value_is_the_same_flag(tmp_path, capsys):
    argv = ("curve", "--entry", "bern:0.3", "--n", "3", "--query", "sum")
    assert main([*argv, "--eps", "0.5"]) == 0
    spaced = capsys.readouterr().out
    assert main([*argv, "--eps=0.5"]) == 0
    assert capsys.readouterr().out == spaced == "epsilon,delta\n0.5,0.49\n"
    # only the first '=' splits: the value may hold more
    assert main(["curve", "--entry=bern:0.5", "--n=2", "--eps=0", f"--out={tmp_path}/a=b.csv"]) == 0
    assert (tmp_path / "a=b.csv").read_text() == "epsilon,delta\n0,0.5\n"


def test_a_repeated_flag_takes_its_last_value(capsys):
    assert main(["curve", "--entry", "bern:2", "--n", "2", "--entry", "bern:0.5", "--eps", "9",
                 "--eps=0,1"]) == 0
    assert capsys.readouterr().out == "epsilon,delta\n0,0.5\n1,0.5\n"


@pytest.mark.parametrize("argv, message", [
    (("curve", "--entry", "bern:0.5", "--n", "2", "--bogus", "1"), "curve: unknown flag --bogus"),
    (("curve", "--n", "2", "--entry"), "curve: --entry needs a value"),
    (("curve", "--entry", "--n", "2"), "curve: --entry needs a value"),
    (("frobnicate",), "unknown command 'frobnicate'"),
    ((), "missing command"),
    (("figures", "--entry", "bern:0.5", "--out", "f.csv"), "figures needs one of fig1, fig2, fig3"),
    (("figures", "fig4", "--entry", "bern:0.5", "--out", "f.csv"), "unexpected argument 'fig4'"),
    (("figures", "fig1", "fig2", "--entry", "bern:0.5"), "unexpected argument 'fig2'"),
    (("curve", "--ent", "bern:0.5", "--n", "2"), "curve: unknown flag --ent"),
    (("curve", "--entry", "bern:0.5", "--n", "2", "--inject-fault"), "unknown flag --inject-fault"),
    (("verify", "--max-n", "2", "--inject-fault=1"), "--inject-fault takes no value"),
    (("verify", "2"), "verify: unexpected argument '2'"),
    (("amplify", "--entry", "bern:0.5", "--technique", "wor:4,2", "--eps", "0.5,0.5000000000000001"),
     "two eps of the grid shrink to one eps' at rate 0.5"),
    (("compare",), "unknown command 'compare'; use one of curve, amplify, figures, verify"),
])
def test_usage_errors_exit_1_with_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not list(tmp_path.iterdir())


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # The console script calls main() with no arguments.
    monkeypatch.setattr("sys.argv", ["statpriv", "curve", "--entry", "bern:0.5", "--n", "2",
                                     "--eps", "0"])
    assert main() == 0
    assert capsys.readouterr().out == "epsilon,delta\n0,0.5\n"
    monkeypatch.setattr("sys.argv", ["statpriv"])
    assert main() == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--entry", "bern:0.5", "--n", "2"],
        ["amplify", "--entry", "bern:0.5", "--technique", "wor:2,1"],
        ["figures", "fig1", "--entry", "bern:0.5", "--out", "f.csv"],
    ],
    ids=["curve", "amplify", "figures"],
)
def test_eps_grid_whose_points_collapse_exits_1(argv, tmp_path, monkeypatch, capsys):
    # The ten points of this grid all round to 0.1: refused like a comma
    # list that does not increase, before figures writes any file.
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--eps", "0.1:0.1000000000001:1e-14"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --eps: grid values must be strictly increasing\n"
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_eps_grid_without_a_finite_point_count_exits_1(capsys):
    # (1e308 - 0) / 1e-308 is inf: the grid is refused before it is built.
    argv = ["curve", "--entry", "bern:0.5", "--n", "2", "--eps", "0:1e308:1e-308"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --eps: grid '0:1e308:1e-308' has no finite number of points\n"
    )
    with pytest.raises(UsageError, match="no finite number of points"):
        parse_eps("0:1:1e-320", DEFAULT_BUDGET)


@pytest.mark.parametrize(
    "eps, bad", [("-0.5,0", "-0.5"), ("0,inf", "inf"), ("ln0.5", "-0.6931471805599453")]
)
def test_a_negative_or_infinite_eps_exits_1_in_the_grid_checks_words(eps, bad, capsys):
    # One wording for a bad eps, the library's (divergence.check_grid).
    assert main(["curve", "--entry", "bern:0.5", "--n", "4", "--query", "sum", "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --eps: eps must be finite and nonnegative, got {bad}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["curve", "--entry", "bern:0.5", "--n", "4", "--eps", "710"], "e^eps"),
        (["amplify", "--entry", "bern:0.5", "--technique", "wor:10,5", "--eps", "710"], "e^eps"),
        (["amplify", "--entry", "bern:0.5", "--technique", "wr:32,2", "--eps", "710"], "e^eps"),
        (["figures", "fig2", "--entry", "bern:0.5", "--eps", "709"], "its stretch by 10.0"),
    ],
)
def test_an_eps_too_large_for_a_float_exits_1_naming_it(argv, err, tmp_path, capsys):
    # e^710 is no float, nor is 709 stretched by fig2's n/m = 10.
    eps = argv[-1]
    assert main([*argv, "--out", str(tmp_path / "f.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: eps {eps}.0 is too large for {err} to be a float\n"
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_the_largest_eps_e_to_which_is_a_float_still_runs(capsys):
    assert main(["curve", "--entry", "bern:0.5", "--n", "4", "--eps", "709"]) == 0
    assert capsys.readouterr().out == "epsilon,delta\n709,0.125\n"
    # Sizes of nonzero weight start at 492: 705 stretches to at most 706.8.
    argv = ["amplify", "--entry", "bern:0.5", "--query", "count", "--technique", "poisson:3000,0.5"]
    assert main([*argv, "--eps", "705"]) == 0
    assert capsys.readouterr().out == "epsilon,eps_prime,delta_prime\n705,705,0\n"


SRC = Path(__file__).resolve().parent.parent / "src"

# main in a child process whose address space is capped at 1 GiB, so a size
# that is built before it is counted fails there, not on the machine.
LIMITED_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "sys.path.insert(0, sys.argv[1]); from statpriv.cli import main; sys.exit(main(sys.argv[2:]))"
)

BUDGET = "more than the budget 10000000; pass a larger --budget\n"

SIZE_REFUSALS = {
    "entries": (("curve", "--n", "1000000000"), "--n: 1000000000 entries"),
    "grid": (
        ("curve", "--n", "3", "--eps", "0:1e15:1e-3"),
        "--eps: 1000000000000000001 grid points",
    ),
    "technique": (
        ("amplify", "--technique", "poisson:1000000000,0.1"),
        "--technique: 1000000000 entries",
    ),
    "draws": (("amplify", "--technique", "wr:2,1000000000"), "--technique: 1000000000 draws"),
    "figures": (("figures", "fig3", "--n", "1000000000", "--out", "x"), "--n: 1000000000 entries"),
}


@pytest.mark.parametrize("argv, what", SIZE_REFUSALS.values(), ids=SIZE_REFUSALS)
def test_sizes_past_the_budget_are_refused_before_they_are_built(argv, what):
    # Built first, each of these exhausts memory or runs for hours.
    command, *rest = argv
    out = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, str(SRC), command, "--entry", "bern:0.5", *rest],
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {what}, {BUDGET}")


def test_a_size_the_budget_admits_but_memory_does_not_exits_2_with_one_line():
    # 2e9 entries are within this --budget; under the 1 GiB cap the model's
    # entry tuple cannot be allocated.
    argv = ("curve", "--entry", "bern:0.5", "--n", "2000000000", "--budget", "10000000000")
    out = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, str(SRC), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: out of memory; pass a lower --budget\n"


def test_sizes_are_counted_against_the_given_budget(capsys):
    base = ("--entry", "bern:0.5", "--budget", "100")
    cases = (
        (("curve", "--n", "101"), "--n: 101 entries"),
        (("curve", "--n", "2", "--eps", "0:1:0.01"), "--eps: 101 grid points"),
        (("amplify", "--technique", "wr:2,101"), "--technique: 101 draws"),
    )
    for (command, *rest), what in cases:
        assert main([command, *base, *rest]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {what}, more than the budget 100; pass a larger --budget\n"
    # At the budget itself the runs go through.
    assert main(["curve", *base, "--n", "100", "--eps", "0:0.99:0.01"]) == 0


def test_n_beyond_the_index_range_exits_1_with_one_line(capsys):
    assert main(["curve", "--entry", "bern:0.5", "--n", "99999999999999999999"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_importing_the_cli_freezes_its_heap():
    # The import's objects sit in the permanent generation, so no collection
    # of them can fall inside main().
    code = (
        "import gc, sys; sys.path.insert(0, sys.argv[1]); import statpriv.cli; "
        "print(gc.get_freeze_count(), gc.get_count()[0])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    frozen, young = map(int, out.stdout.split())
    assert frozen > 0 and young < 100
