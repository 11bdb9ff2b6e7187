"""Command line interface: curves, amplification bounds, figures, verification.

Exit codes: 0 success, 1 usage or parse errors, 2 enumeration budget
exceeded, 3 verification or samplability failures.
"""

from __future__ import annotations

import csv
import gc
import math
import operator
import sys

from .amplify import (
    poisson_bound,
    viability_ratio,
    with_replacement_bound,
    without_replacement_bound,
)
from .dist import (
    DEFAULT_BUDGET,
    DatabaseModel,
    Pmf,
    condition,
    query_by_name,
    sum_query,
)
from .divergence import check_grid, default_eps_grid, hockey_stick_curve, privacy_curve
from .errors import EnumerationBudgetError, NotSamplableError
from .oracle import brute_force_divergence
from .sampling import TemplateDistribution, sampled_pushforward


class UsageError(Exception):
    """Bad flags, bad config or malformed parameter syntax."""


class OverBudget(Exception):
    """A model size or a grid larger than --budget, refused before it is built."""


def _parse_float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"{what}: expected a number, got {token!r}") from None


def _parse_int(token: str, what: str, minimum: int = 1) -> int:
    try:
        value = int(token)
    except ValueError:
        raise UsageError(f"{what}: expected an integer, got {token!r}") from None
    if value < minimum:
        raise UsageError(f"{what}: need at least {minimum}, got {value}")
    return value


def parse_entry(token: str) -> Pmf:
    """bern:p, point:v or discrete:v@w,v@w,...; discrete weights are normalized."""
    name, _, params = token.partition(":")
    if name == "bern":
        p = _parse_float(params, "--entry bern")
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"--entry bern: parameter {p} outside [0, 1]")
        return Pmf.bernoulli(p)
    if name == "point":
        return Pmf.point(_parse_float(params, "--entry point"))
    if name == "discrete":
        pairs = []
        for part in params.split(","):
            value, sep, weight = part.partition("@")
            if not sep:
                raise UsageError(
                    f"--entry discrete: expected value@weight, got {part!r}"
                )
            pairs.append(
                (
                    _parse_float(value, "--entry discrete value"),
                    _parse_float(weight, "--entry discrete weight"),
                )
            )
        total = math.fsum(w for _, w in pairs)
        if not (math.isfinite(total) and total > 0.0):
            raise UsageError(
                f"--entry discrete: weights sum to {total}, need a positive total"
            )
        for _, w in pairs:
            if w < 0.0:
                raise UsageError(f"--entry discrete: weight {w} is negative")
        try:
            return Pmf.from_pairs((v, w / total) for v, w in pairs)
        except ValueError as exc:
            raise UsageError(f"--entry discrete: {exc}") from None
    raise UsageError(f"unknown entry kind {name!r}; use bern, point or discrete")


def _parse_one_eps(token: str) -> float:
    token = token.strip()
    if token.startswith("ln"):
        x = _parse_float(token[2:], "--eps ln")
        if x <= 0.0:
            raise UsageError(f"--eps: ln argument must be positive, got {x}")
        value = math.log(x)
    else:
        value = _parse_float(token, "--eps")
    try:
        check_grid((value,), curve=False)
    except ValueError as exc:
        raise UsageError(f"--eps: {exc}") from None
    return value


def parse_eps(token: str, budget: int) -> tuple[float, ...]:
    """Single value, comma list, start:stop:step grid; ln<x> for log values.
    A start:stop:step grid of more than `budget` points is refused before it
    is built; any grid must strictly increase once its values are rounded."""
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise UsageError(f"--eps: grid needs start:stop:step, got {token!r}")
        start = _parse_float(parts[0], "--eps start")
        stop = _parse_float(parts[1], "--eps stop")
        step = _parse_float(parts[2], "--eps step")
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"--eps: grid needs finite start, stop and step, got {token!r}")
        if step <= 0.0 or stop < start or start < 0.0:
            raise UsageError(f"--eps: bad grid {token!r}")
        points = (stop - start) / step + 1e-9
        if not math.isfinite(points):
            raise UsageError(f"--eps: grid {token!r} has no finite number of points")
        count = _within_budget(int(math.floor(points)) + 1, "--eps", "grid points", budget)
        # 12 significant digits print the grid as typed (0.3, not
        # 0.30000000000000004); a display choice, not a merge of answers.
        values = tuple(float(f"{start + i * step:.12g}") for i in range(count))
    else:
        values = tuple(_parse_one_eps(part) for part in token.split(","))
    if not all(map(operator.lt, values, values[1:])):
        raise UsageError("--eps: grid values must be strictly increasing")
    return values


def parse_technique(token: str):
    """none, wor:n,m, poisson:n,rate or wr:n,m."""
    if token == "none":
        return ("none",)
    name, _, params = token.partition(":")
    parts = params.split(",")
    if name in ("wor", "wr"):
        if len(parts) != 2:
            raise UsageError(f"--technique {name}: expected {name}:n,m")
        n = _parse_int(parts[0], f"--technique {name} n")
        m = _parse_int(parts[1], f"--technique {name} m")
        return (name, n, m)
    if name == "poisson":
        if len(parts) != 2:
            raise UsageError("--technique poisson: expected poisson:n,rate")
        n = _parse_int(parts[0], "--technique poisson n")
        rate = _parse_float(parts[1], "--technique poisson rate")
        if not 0.0 < rate <= 1.0:
            raise UsageError(f"--technique poisson: rate {rate} outside (0, 1]")
        return (name, n, rate)
    raise UsageError(f"unknown technique {name!r}; use none, wor, poisson or wr")


# The flags of curve, amplify and figures (flag -> help); every one but
# --config is also a config key.
_COMMON = {
    "entry": "entry pmf: bern:p, point:v, discrete:v@w,...",
    "n": "number of database entries",
    "query": "query name: count, sum or mean",
    "technique": "none, wor:n,m, poisson:n,rate or wr:n,m",
    "eps": "epsilon: value, comma list or start:stop:step",
    "out": "output CSV path (default stdout)",
    "budget": "enumeration budget: states, lattice cells, model entries, grid points",
    "config": "key=value config file; flags win",
}
_CONFIG_KEYS = tuple(key for key in _COMMON if key != "config")


def read_config(path: str) -> dict[str, str]:
    """key=value lines; # comments and blank lines are skipped."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(
                f"{path}:{lineno}:{len(line) + 1}: expected '=' in {line!r}"
            )
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}:1: unknown key {key!r}")
        if not value:
            raise UsageError(f"{path}:{lineno}:{len(key) + 2}: empty value for {key!r}")
        out[key] = value
    return out


def _require(opts, key: str):
    if opts.get(key) is None:
        raise UsageError(f"missing required option --{key}")
    return opts[key]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    x = float(value)
    if x == math.floor(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _write_csv(path, header, rows):
    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            emit(handle)
    else:
        emit(sys.stdout)


def _common_inputs(opts):
    entry = parse_entry(_require(opts, "entry"))
    q = query_by_name(opts.get("query", "count"))
    budget = _parse_int(opts["budget"], "--budget") if opts.get("budget") else DEFAULT_BUDGET
    return entry, q, budget


def _within_budget(count: int, what: str, unit: str, budget: int) -> int:
    """count, refused before anything of that size is built: past the index
    range as a usage error (exit 1), past the budget as OverBudget (exit 2)."""
    if count > sys.maxsize:
        raise UsageError(f"{what}: {count} {unit} are beyond the index range")
    if count > budget:
        raise OverBudget(
            f"{what}: {count} {unit}, more than the budget {budget}; pass a larger --budget"
        )
    return count


def _check_size(opts, n: int, budget: int) -> None:
    _within_budget(n, "--technique", "entries", budget)
    if opts.get("n") is not None and _parse_int(opts.get("n"), "--n") != n:
        raise UsageError(f"--n disagrees with the technique size {n}")


def _technique(kind: str) -> tuple:
    """parse_technique's kind -> (TemplateDistribution constructor, bound),
    called as constructor(n, param, budget) and bound(db, q, param, grid,
    budget). The names are read at each call, not held in a module-level
    dict, so a wrapper bound to them later, as perfbench's tracer binds its
    spans, is the one that runs."""
    return {
        "wor": (TemplateDistribution.without_replacement, without_replacement_bound),
        "poisson": (TemplateDistribution.poisson, poisson_bound),
        "wr": (TemplateDistribution.with_replacement, with_replacement_bound),
    }[kind]


def cmd_curve(opts) -> int:
    entry, q, budget = _common_inputs(opts)
    n = _within_budget(_parse_int(_require(opts, "n"), "--n"), "--n", "entries", budget)
    technique = parse_technique(opts.get("technique", "none"))
    if technique[0] != "none":
        raise UsageError("curve computes the raw curve; use amplify for techniques")
    grid = parse_eps(opts["eps"], budget) if opts.get("eps") else default_eps_grid()
    curve = privacy_curve(DatabaseModel.iid(entry, n), q, grid, budget)
    _write_csv(
        opts.get("out"),
        ("epsilon", "delta"),
        list(zip(curve.grid, curve.values)),
    )
    return 0


def cmd_amplify(opts) -> int:
    entry, q, budget = _common_inputs(opts)
    technique = parse_technique(_require(opts, "technique"))
    if technique[0] == "none":
        raise UsageError("amplify needs a sampling technique, not none")
    kind, n, param = technique
    if kind == "wr":
        _within_budget(param, "--technique", "draws", budget)
    _check_size(opts, n, budget)
    grid = parse_eps(opts["eps"], budget) if opts.get("eps") else default_eps_grid()
    curve = _technique(kind)[1](DatabaseModel.iid(entry, n), q, param, grid, budget)
    rows = zip(grid, curve.grid, curve.values)  # Poisson keeps eps: eps' = eps
    _write_csv(opts.get("out"), ("epsilon", "eps_prime", "delta_prime"), rows)
    return 0


def _lambda_grid() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 10) for i in range(1, 11))


def _eps_file(stem: str, eps: float) -> str:
    if stem.endswith(".csv"):
        stem = stem[:-4]
    return f"{stem}_eps{_fmt(eps)}.csv"


def cmd_figures(opts) -> int:
    entry, q, budget = _common_inputs(opts)
    if parse_technique(opts.get("technique", "none"))[0] != "none":
        raise UsageError("figures sets its own sampling; use amplify for techniques")
    stem = _require(opts, "out")
    if opts["which"] == "fig1":
        if opts.get("n") is not None:
            raise UsageError("fig1 sweeps its own n = 10, 20, ..., 200; use curve for one n")
        eps_list = parse_eps(opts["eps"], budget) if opts.get("eps") else (0.1, 0.3, 1.0)
        ns = range(10, 201, 10)
        curves = [privacy_curve(DatabaseModel.iid(entry, n), q, eps_list, budget) for n in ns]
        for eps, column in zip(eps_list, zip(*(c.values for c in curves))):
            _write_csv(_eps_file(stem, eps), ("n", "delta"), zip(ns, column))
        return 0
    eps_list = parse_eps(opts["eps"], budget) if opts.get("eps") else (0.025, 0.05, 0.075, 0.1)
    fig2 = opts["which"] == "fig2"
    n = _parse_int(opts.get("n", "100" if fig2 else "20"), "--n")
    n = _within_budget(n, "--n", "entries", budget)
    db = DatabaseModel.iid(entry, n)
    # Both figures divide by the unsampled curve: built once, refused if 0.
    base = privacy_curve(db, q, eps_list, budget)
    if 0.0 in base.values:
        eps = eps_list[base.values.index(0.0)]
        raise UsageError(f"unsampled curve is 0 at eps={eps}; ratio undefined")
    if fig2:
        ms = [min(n, max(1, round(lam * n))) for lam in _lambda_grid()]
        columns = [viability_ratio(base, entry, q, n, m, budget) for m in ms]
    else:
        bounds = [poisson_bound(db, q, lam, eps_list, budget) for lam in _lambda_grid()]
        columns = [map(operator.truediv, bound.values, base.values) for bound in bounds]
    # Every curve covers the whole eps list; a file per eps reads one column.
    for eps, column in zip(eps_list, zip(*columns)):
        _write_csv(_eps_file(stem, eps), ("lambda", "ratio"), zip(_lambda_grid(), column))
    return 0


def cmd_verify(opts) -> int:
    max_n = _parse_int(opts["max-n"], "--max-n", minimum=2) if opts.get("max-n") else 3
    budget = _parse_int(opts["budget"], "--budget") if opts.get("budget") else DEFAULT_BUDGET
    q = sum_query()
    grid = (0.0, 0.5, 1.0)
    ps = (0.3, 0.5)
    rows = []  # (case, quantity, pipeline, oracle, pass)
    faulty = "inject-fault" in opts
    refused = {"half_line": 0, "coupled": 0}
    by_n = {}  # each n's (label, kind, param, technique), built at first use, shared by both p
    for p in ps:
        entry = Pmf.bernoulli(p)
        for n in range(2, max_n + 1):
            db = DatabaseModel.iid(entry, n)
            if n not in by_n:
                cases = [("wor", "m", m) for m in range(1, n + 1)]
                cases += [("poisson", "rate", 0.5), ("wr", "m", 1), ("wr", "m", 2)]
                by_n[n] = [(f"{kind} n={n} {name}={x}", kind, x, _technique(kind)[0](n, x, budget))
                           for kind, name, x in cases]
            high = condition(db, 1, 1.0)
            low = condition(db, 1, 0.0)
            # The pipeline's sampled laws must agree with the oracle's within 1e-12.
            for label, _, _, technique in by_n[n]:
                laws = [sampled_pushforward(given, technique, q) for given in (high, low)]
                for eps, pipe in zip(grid, hockey_stick_curve(*laws, grid)):
                    if faulty:
                        pipe, faulty = -pipe, False
                    oracle = brute_force_divergence(high, low, technique, q, eps, budget)
                    case = f"{label} p={p} eps={_fmt(eps)}"
                    rows.append((case, "divergence", pipe, oracle, abs(pipe - oracle) <= 1e-12))
            # The oracle's delta of the sampled model at each eps' of a bound
            # must not exceed its delta' by more than 1e-10.
            for label, kind, param, technique in by_n[n]:
                try:
                    curve = _technique(kind)[1](db, q, param, grid, budget)
                except NotSamplableError as exc:
                    # The gate refused this model; nothing to compare.
                    refused[exc.family] += 1
                    continue
                for eps, eps_prime, bound in zip(grid, curve.grid, curve.values):
                    direct = max(
                        brute_force_divergence(a, b, technique, q, eps_prime, budget)
                        for a, b in ((high, low), (low, high))
                    )
                    case = f"{label} p={p} eps={_fmt(eps)}"
                    ok = direct <= bound + 1e-10
                    rows.append((case, f"{kind}_dominance", bound, direct, ok))
    _write_csv(
        opts.get("out"),
        ("case", "quantity", "pipeline", "oracle", "abs_diff", "pass"),
        ((case, quantity, x, y, abs(x - y), ok) for case, quantity, x, y, ok in rows),
    )
    wr_cases = len(ps) * sum(kind == "wr" for cases in by_n.values() for _, kind, _, _ in cases)
    families = ", ".join(f"{family} {count}" for family, count in refused.items())
    print(
        f"verify: the samplability gate refused {sum(refused.values())} of "
        f"{wr_cases} with-replacement cases ({families})",
        file=sys.stderr,
    )
    return 0 if all(ok for *_, ok in rows) else 3


# command -> (handler, one-line help, flag -> help, choices of its one
# positional); a flag whose help is None is a hidden switch without a value.
_COMMANDS = {
    "curve": (cmd_curve, "exact privacy curve of an i.i.d. model", _COMMON, ()),
    "amplify": (cmd_amplify, "subsampling amplification bounds", _COMMON, ()),
    "figures": (cmd_figures, "reproduce the figure data as CSV", _COMMON, ("fig1", "fig2", "fig3")),
    "verify": (
        cmd_verify,
        "cross-check the pipeline against the oracle",
        {
            "max-n": "largest model size (default 3)",
            "out": _COMMON["out"],
            "budget": _COMMON["budget"],
            "inject-fault": None,
        },
        (),
    ),
}


def _print_usage(opts) -> int:
    lines = ["usage: statpriv COMMAND [--flag value | --flag=value ...]", "", __doc__ or ""]
    for name in opts["commands"]:
        _, text, flags, choices = _COMMANDS[name]
        lines.append(f"statpriv {name} {'|'.join(choices)}".rstrip() + f": {text}")
        lines += [f"  --{flag:<10} {help}" for flag, help in flags.items() if help]
    print("\n".join(lines))
    return 0


def parse_args(argv) -> tuple:
    """(handler, options) of argv: `--flag value` or `--flag=value`, flag
    names in full, the last of a repeated flag winning over earlier ones and
    over the --config file; -h or --help anywhere gives the usage printer."""
    if not argv:
        raise UsageError(f"missing command; use one of {', '.join(_COMMANDS)}")
    if argv[0] in ("-h", "--help"):
        return _print_usage, {"commands": tuple(_COMMANDS)}
    name = argv[0]
    if name not in _COMMANDS:
        raise UsageError(f"unknown command {name!r}; use one of {', '.join(_COMMANDS)}")
    handler, _, flags, choices = _COMMANDS[name]
    opts = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _print_usage, {"commands": (name,)}
        flag, eq, value = token.partition("=")
        if token in choices and "which" not in opts:
            opts["which"] = token
        elif not flag.startswith("--"):
            raise UsageError(f"{name}: unexpected argument {token!r}")
        elif flag[2:] not in flags:
            raise UsageError(f"{name}: unknown flag {flag}")
        elif flags[flag[2:]] is None:
            if eq:
                raise UsageError(f"{name}: {flag} takes no value")
            opts[flag[2:]] = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise UsageError(f"{name}: {flag} needs a value")
            opts[flag[2:]] = value
    if choices and "which" not in opts:
        raise UsageError(f"{name} needs one of {', '.join(choices)}")
    return handler, {**read_config(opts["config"]), **opts} if opts.get("config") else opts


def main(argv=None) -> int:
    try:
        handler, opts = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationBudgetError, OverBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a size --budget admits but the machine cannot hold
        print("error: out of memory; pass a lower --budget", file=sys.stderr)
        return 2
    except NotSamplableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# Move the objects of the import into the permanent generation: a CLI call
# then starts with an empty first generation, and whether a collection falls
# inside main() depends on the command, not on the size of the modules.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
