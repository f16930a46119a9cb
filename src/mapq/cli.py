"""Command-line front end: reproducible CSV artifacts for the five analyses.

Exit codes are part of the contract: 2 config/parse error, 3 numeric
failure, 4 unstable queue, 5 copula incompatibility.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache

import numpy as np
import yaml

from . import bounds as bd
from . import config as cf
from . import copulas as cp
from . import sim
from .channel import controlled_capacity_process
from .errors import (
    ConfigError,
    DimensionMismatch,
    IncompatibleCopula,
    InconclusiveTail,
    MgfDiverged,
    NoConvergence,
    NoRootInDomain,
    OutOfUnitInterval,
    UnknownExperiment,
    UnstableQueue,
    ZeroMassState,
)
from .laws import DiscretePmf
from .spectral import _stack_ladder, cgf_as, perron

EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_UNSTABLE = 4
EXIT_COPULA = 5

_PARSE_ERRORS = (ConfigError, DimensionMismatch, UnknownExperiment, ValueError)
# LinAlgError and InconclusiveTail are ValueErrors: match them before _PARSE_ERRORS
_NUMERIC_ERRORS = (MgfDiverged, NoConvergence, NoRootInDomain, InconclusiveTail,
                   np.linalg.LinAlgError)
_COPULA_ERRORS = (IncompatibleCopula, OutOfUnitInterval, ZeroMassState)
# libyaml's emitter where PyYAML is built with it; both write yaml.safe_dump's bytes
_SAFE_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _float_list(text):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"numeric list {text!r} names no number")
    return values


def _out_dir(config, args):
    """The output directory, --out or else the config's output.directory, made
    if it is missing; one that cannot be made is a ConfigError naming its source."""
    if args.out is None:
        out, source = config.output_dir, "output.directory"
    else:
        out, source = args.out, "--out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source} {out!r} cannot be made a directory: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectral(config: cf.ExperimentConfig, args) -> int:
    thetas = _float_list(args.theta) if args.theta is not None else [0.0, 0.5, 1.0]
    for theta in thetas:
        if not math.isfinite(theta):
            raise ConfigError(f"--theta must be finite, got {theta}")
    out = _out_dir(config, args)
    # the negated service at theta is the service at -theta, with kappa_dot negated
    kernels = [("arrival", config.arrival, 1.0), ("neg_service", config.service, -1.0)]
    rows = []
    # each kernel's matrices at every theta come from one stack per transform
    for _, kernel, sign in kernels:
        for transform in ("mgf", "tilted_mean"):
            _stack_ladder(kernel, transform, [sign * theta for theta in thetas])
    for theta in thetas:
        # cgf_as names the role in a failure as the root searches do; perron
        # is then a cache hit
        kappa_dots = [sign * cgf_as("arrival" if sign > 0 else "negated service", kernel,
                                    sign * theta, derivative=True)
                      for _, kernel, sign in kernels]
        sols = [perron(kernel, sign * theta) for _, kernel, sign in kernels]
        kappa_sum = sols[0].kappa + sols[1].kappa
        for (role, kernel, _), sol, kappa_dot in zip(kernels, sols, kappa_dots):
            for i, label in enumerate(kernel.state_labels):
                rows.append((theta, role, label, sol.kappa, kappa_dot, kappa_sum,
                             sol.h[i], sol.v[i], kernel.stationary[i]))
    path = os.path.join(out, "spectral.csv")
    _write_csv(path, ("theta", "role", "state", "kappa", "kappa_dot", "kappa_sum",
                      "h", "v", "pi"), rows)
    print(path)
    return 0


def cmd_bounds(config: cf.ExperimentConfig, args) -> int:
    for flag, mode in (("y", "horizon"), ("epsilon", "dcc")):
        if getattr(args, flag) is not None and args.mode != mode:
            raise ConfigError(f"bounds reads --{flag} only with --mode {mode}, "
                              f"not with --mode {args.mode}")
    levels = _float_list(args.levels) if args.levels is not None else [1.0, 2.0, 4.0, 8.0]
    path = os.path.join(_out_dir(config, args), f"bounds_{args.mode}.csv")
    arrival = config.arrival
    if args.mode in ("delay", "backlog"):
        fn = bd.delay_bounds if args.mode == "delay" else bd.backlog_bounds
        reports = fn(arrival, config.service, levels)
        rows = [
            (r.level, r.conditioning, r.lower, r.upper, r.theta_star,
             r.lower != r.lower_raw, r.upper != r.upper_raw)
            for r in reports
        ]
        _write_csv(path, ("level", "conditioning", "lower", "upper", "theta_star",
                          "lower_clamped", "upper_clamped"), rows)
    elif args.mode == "horizon":
        y = 2.0 if args.y is None else args.y
        reports = bd.horizon_delay_bound(arrival, config.service, y, levels)
        rows = [(r.level, r.y, r.theta, r.theta_y, r.y_gamma, r.branch,
                 r.bound, r.bound != r.bound_raw) for r in reports]
        _write_csv(path, ("level", "y", "theta", "theta_y", "y_gamma", "branch",
                          "bound", "clamped"), rows)
    else:  # dcc
        epsilon = 1e-6 if args.epsilon is None else args.epsilon
        reports = bd.dcc_upper(arrival, config.service, levels, epsilon)
        rows = [(level, epsilon, r.value, r.theta_opt, r.asymptotic_cap, r.value_at_root)
                for level, r in zip(levels, reports)]
        _write_csv(path, ("deadline", "epsilon", "value", "theta_opt",
                          "asymptotic_cap", "value_at_root"), rows)
    print(path)
    return 0


def cmd_control(config: cf.ExperimentConfig, args) -> int:
    if config.copulas is None:
        raise ConfigError("control command needs a copulas section")
    out = _out_dir(config, args)
    spec = config.copulas
    # dimensions are planned independently (a product spatial copula)
    plan = [cp.dependence_control(steps, w0) for steps, w0 in zip(spec.temporal, spec.varpi)]
    rows = []
    for d, dim in enumerate(plan):
        for step, p in enumerate(dim.transitions):
            for i in range(p.shape[0]):
                for j in range(p.shape[1]):
                    rows.append((d, step, i, j, p[i, j]))
    csv_path = os.path.join(out, "control_plan.csv")
    _write_csv(csv_path, ("dimension", "step", "from_state", "to_state",
                          "probability"), rows)

    # kernel fragment for the first dimension's first step, directly pluggable
    # into a spectral/service kernel config once increments are filled in
    dim = plan[0]
    p0 = dim.transitions[0]
    n = p0.shape[0]
    fragment = {
        "states": list(range(n)),
        "transition": [[float(x) for x in row] for row in p0],
        "initial_dist": [float(x) for x in dim.initial],
        "increments": [[{"law": "constant", "value": 0.0} for _ in range(n)]
                       for _ in range(n)],
    }
    frag_path = os.path.join(out, "control_kernel.yaml")
    with open(frag_path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.dump({"kernel": fragment}, fh, Dumper=_SAFE_DUMPER, sort_keys=True)
    print(csv_path)
    print(frag_path)
    return 0


def cmd_simulate(config: cf.ExperimentConfig, args) -> int:
    if args.seed is not None:
        cf._check_seed(args.seed, "--seed")
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise ConfigError("simulate needs a seed (config simulation.seed or --seed)")
    metric = args.mode or config.metric
    levels = _float_list(args.levels) if args.levels is not None else list(config.levels)
    out = _out_dir(config, args)
    # the bounds first: an unstable queue exits before the Monte Carlo runs
    bound_map = {}
    theta_star = math.nan
    try:
        fn = bd.delay_bounds if metric == "delay" else bd.backlog_bounds
        reports = fn(config.arrival, config.service, levels)
        for r in reports:
            if r.conditioning == "average":
                bound_map[r.level] = (r.lower, r.upper)
                theta_star = r.theta_star
    except (NoRootInDomain, MgfDiverged):
        pass  # e.g. zero traffic: the tail estimate stands on its own
    estimates = sim.tail_estimate(config.arrival, config.service, levels, config.replications,
                                  config.horizon, seed, metric=metric)

    rows = []
    for e in estimates:
        lo, up = bound_map.get(e.level, (math.nan, math.nan))
        rows.append((e.level, e.p_hat, e.std_err, e.hits, e.replications,
                     e.conclusive, lo, up, theta_star))
    path = os.path.join(out, "tails.csv")
    _write_csv(path, ("level", "p_hat", "std_err", "hits", "replications",
                      "conclusive", "lower", "upper", "theta_star"), rows)
    print(path)

    if config.copulas is not None and config.service_channel is not None:
        spec = config.copulas
        dim = cp.dependence_control(spec.temporal[0], spec.varpi[0])
        corr_rows = []
        for r in range(spec.runs):
            _, c = controlled_capacity_process(dim, config.service_channel,
                                               spec.slots, [int(seed), 1 + r])
            lag1 = float(np.corrcoef(c[:-1], c[1:])[0, 1])
            corr_rows.append((r, 1, lag1, float(c.mean()), spec.slots))
        corr_path = os.path.join(out, "correlation.csv")
        _write_csv(corr_path, ("run", "lag", "correlation", "mean_capacity",
                               "slots"), corr_rows)
        print(corr_path)
    return 0


def _read_pmf(path) -> DiscretePmf:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.shape[1] != 2:
            raise ConfigError(f"{path}: PMF file needs two columns (value, prob)")
        order = np.argsort(data[:, 0])
        return DiscretePmf(tuple(data[order, 0]), tuple(data[order, 1]))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse PMF file {path}: {exc}") from exc


def _read_samples(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse sample file {path}: {exc}") from exc


# ordercheck's modes, each named by the destinations of its flags
_ORDER_MODES = (("pmf_x", "pmf_y"), ("samples_x", "samples_y"), ("experiment",))


def cmd_ordercheck(config, args) -> int:
    given = [mode for mode in _ORDER_MODES if any(getattr(args, d) for d in mode)]
    if len(given) != 1 or not all(getattr(args, d) for d in given[0]):
        flags = [f"--{d.replace('_', '-')}" for mode in given for d in mode if getattr(args, d)]
        raise ConfigError("ordercheck needs exactly one of --pmf-x with --pmf-y, --samples-x "
                          f"with --samples-y, or --experiment; got {', '.join(flags) or 'none'}")
    unused = [f"--{d}" for d in ("seed", "config") if getattr(args, d) is not None]
    if unused and not args.experiment:
        raise ConfigError("ordercheck reads --seed and --config only with --experiment; "
                          f"got {', '.join(unused)}")
    if args.seed is not None:
        cf._check_seed(args.seed, "--seed")
    if args.out is not None:
        _out_dir(config, args)
    lines = []
    if args.pmf_x:
        x = _read_pmf(args.pmf_x)
        y = _read_pmf(args.pmf_y)
        means = sim.means_differ(x, y)
        if means:
            lines.append("verdict: fails")
            lines.append(f"note: means differ ({_fmt(means[0])} vs {_fmt(means[1])})")
        else:
            holds = sim.convex_order_leq(x, y)
            lines.append(f"verdict: {'holds' if holds else 'fails'}")
            lines.append("note: exact stop-loss comparison at all support points")
        lines.append("t,stop_loss_x,stop_loss_y")
        for t in np.union1d(np.asarray(x.support), np.asarray(y.support)):
            lines.append(f"{_fmt(float(t))},{_fmt(sim.stop_loss(x, float(t)))},"
                         f"{_fmt(sim.stop_loss(y, float(t)))}")
    elif args.samples_x:
        x = _read_samples(args.samples_x)
        y = _read_samples(args.samples_y)
        report = sim.supermodular_battery(x, y)
        lines.append(f"verdict: {report.verdict}")
        lines.append(f"note: {report.note}")
        lines.append("statistic,mean_difference,std_err")
        for s in report.statistics:
            lines.append(f"{s.name},{_fmt(s.mean_difference)},{_fmt(s.std_err)}")
    else:
        params = {**(config.experiment if config is not None else {}),
                  "name": args.experiment}
        if args.seed is not None:
            params["seed"] = args.seed
        result = sim.ordering_experiment(params)
        lines.append(f"experiment: {result.name}")
        lines.append(f"verdict: {'holds' if result.direction_holds else 'fails'}")
        lines.append(f"note: {result.detail}")
        lines.append("quantity,decay_rate")
        for k, v in result.decay_rates.items():
            lines.append(f"{k},{_fmt(v)}")
        if result.order_report is not None:
            lines.append(f"battery_verdict: {result.order_report.verdict}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        with open(os.path.join(args.out, "order_report.txt"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point


@cache
def build_parser() -> argparse.ArgumentParser:
    """The mapq parser, built once per process: parse_args gives each call a
    namespace of its own and keeps nothing in the parser."""
    parser = argparse.ArgumentParser(
        prog="mapq",
        description="Tail bounds, dependence control, and simulation for "
                    "Markov additive queues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _COMMANDS}
    for name, p in commands.items():
        p.add_argument("--config", required=name != "ordercheck", help="YAML experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
    commands["spectral"].add_argument("--theta", help="comma-separated theta list; write "
                                      "one that starts below 0 as --theta=-1,0")
    p = commands["bounds"]
    p.add_argument("--levels", help="comma-separated level list (default 1,2,4,8)")
    p.add_argument("--mode", choices=("delay", "backlog", "horizon", "dcc"), default="delay")
    p.add_argument("--y", type=float, help="horizon multiplier, --mode horizon only (default 2)")
    p.add_argument("--epsilon", type=float,
                   help="violation probability, --mode dcc only (default 1e-6)")
    p = commands["simulate"]
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--levels", help="comma-separated level list (overrides config)")
    p.add_argument("--mode", choices=("delay", "backlog"), help="metric (overrides config)")
    p = commands["ordercheck"]
    p.add_argument("--seed", type=int, help="experiment seed (overrides config)")
    p.add_argument("--pmf-x", help="first PMF file (value,prob)")
    p.add_argument("--pmf-y", help="second PMF file")
    p.add_argument("--samples-x", help="first sample matrix CSV")
    p.add_argument("--samples-y", help="second sample matrix CSV")
    p.add_argument("--experiment", help="named ordering experiment")
    return parser


_COMMANDS = {
    "spectral": cmd_spectral,
    "bounds": cmd_bounds,
    "control": cmd_control,
    "simulate": cmd_simulate,
    "ordercheck": cmd_ordercheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out == "":  # not the config's directory: an empty --out= names none
            raise ConfigError("--out must name a directory, got ''")
        config = cf.load_config(args.config) if args.config else None
        return _COMMANDS[args.command](config, args)
    except UnstableQueue as exc:
        print(f"error: unstable queue: arrival rate {exc.arrival_rate} >= "
              f"service rate {exc.service_rate}", file=sys.stderr)
        return EXIT_UNSTABLE
    except _COPULA_ERRORS as exc:
        print(f"error: copula: {exc}", file=sys.stderr)
        return EXIT_COPULA
    except _NUMERIC_ERRORS as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _PARSE_ERRORS as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
