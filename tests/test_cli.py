"""Command-line contract: determinism, CSV shape, exit-code taxonomy."""

import argparse
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import count_calls
from mapq import cli, spectral
from mapq.cli import EXIT_NUMERIC, EXIT_PARSE, build_parser, main


def _run(args):
    return main(args)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_cfg(tmp_path, toy_config_text):
    return _write(tmp_path, "toy.yaml", toy_config_text)


CONTROL_CFG = """\
arrival:
  constant: 1.0
service:
  kernel:
    states: [only]
    transition: [[1.0]]
    increments: [[{law: normal, mean: 3.0, std: 1.4142135623730951}]]
copulas:
  varpi: [0.3, 0.7]
  copula: {family: frechet1, alpha: 0.5}
  horizon: 2
"""


def test_spectral_csv_shows_root_sign_change(tmp_path, toy_cfg):
    out = tmp_path / "o1"
    assert _run(["spectral", "--config", toy_cfg, "--out", str(out),
                 "--theta", "0.5,1.5,2.5"]) == 0
    rows = (out / "spectral.csv").read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    k = header.index("kappa_sum")
    sums = {}
    for line in rows[1:]:
        parts = line.split(",")
        sums[float(parts[0])] = float(parts[k])
    # combined cgf theta(theta - 2): negative below the root at 2, positive above
    assert sums[0.5] < 0 < sums[2.5]
    assert abs(sums[1.5]) < abs(sums[0.5])


def test_spectral_trivial_values(tmp_path, toy_cfg):
    out = tmp_path / "o2"
    assert _run(["spectral", "--config", toy_cfg, "--out", str(out), "--theta", "0,1"]) == 0
    rows = (out / "spectral.csv").read_text(encoding="utf-8").splitlines()[1:]
    for line in rows:
        parts = line.split(",")
        if parts[0] == "0":
            assert float(parts[3]) == pytest.approx(0.0, abs=1e-12)  # kappa
            assert float(parts[6]) == pytest.approx(1.0, abs=1e-9)  # h
        if parts[0] == "1" and parts[1] == "arrival":
            assert float(parts[3]) == pytest.approx(1.0, abs=1e-12)


def test_bounds_csv_and_rerun_identical(tmp_path, toy_cfg):
    out = tmp_path / "o3"
    assert _run(["bounds", "--config", toy_cfg, "--mode", "delay",
                 "--levels", "1,2,4", "--out", str(out)]) == 0
    first = (out / "bounds_delay.csv").read_bytes()
    assert _run(["bounds", "--config", toy_cfg, "--mode", "delay",
                 "--levels", "1,2,4", "--out", str(out)]) == 0
    assert (out / "bounds_delay.csv").read_bytes() == first
    assert b"\r" not in first
    header = first.decode().splitlines()[0].split(",")
    assert header == ["level", "conditioning", "lower", "upper", "theta_star",
                      "lower_clamped", "upper_clamped"]


def test_bounds_horizon_and_dcc_modes(tmp_path, toy_cfg):
    out = tmp_path / "o4"
    assert _run(["bounds", "--config", toy_cfg, "--mode", "horizon",
                 "--levels", "2", "--y", "2", "--out", str(out)]) == 0
    line = (out / "bounds_horizon.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(line[2]) == pytest.approx(1.25, abs=1e-9)
    assert float(line[3]) == pytest.approx(3.125, abs=1e-9)
    assert _run(["bounds", "--config", toy_cfg, "--mode", "dcc",
                 "--levels", "10", "--epsilon", "1e-3", "--out", str(out)]) == 0
    line = (out / "bounds_dcc.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(line[5]) == pytest.approx(0.34538776394910684, rel=1e-9)


def test_unstable_config_exits_4(tmp_path, toy_config_text):
    doc = yaml.safe_load(toy_config_text)
    doc["arrival"]["constant"] = 99.0
    cfg = _write(tmp_path, "unstable.yaml", yaml.safe_dump(doc))
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1"]) == 4


def test_degenerate_root_exits_3(tmp_path):
    cfg = _write(tmp_path, "deg.yaml", """\
arrival: {constant: 1.0}
service:
  kernel:
    states: [only]
    transition: [[1.0]]
    increments: [[{law: constant, value: 2.0}]]
""")
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1"]) == 3


def test_eigensolver_failure_exits_3(tmp_path, toy_cfg, monkeypatch):
    # LinAlgError subclasses ValueError, which alone would map to exit 2
    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(spectral, "_solve_one", failing_solve)
    assert _run(["bounds", "--config", toy_cfg, "--mode", "delay", "--levels", "1",
                 "--out", str(tmp_path)]) == 3


def test_parse_error_exits_2(tmp_path):
    cfg = _write(tmp_path, "broken.yaml", "arrival: {constant: 1.0}\n")
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1"]) == 2
    assert _run(["bounds", "--config", str(tmp_path / "missing.yaml")]) == 2


def test_delay_levels_must_be_whole_slots(tmp_path, toy_cfg):
    doc = {"arrival": _two_state(["on", "off"], _pmf([0.0, 3.0], [0.5, 0.5]),
                                 _pmf([0.0, 1.0], [0.5, 0.5])),
           "service": _two_state(["good", "bad"], _pmf([1.0, 4.0], [0.5, 0.5]),
                                 _pmf([0.5, 3.0], [0.5, 0.5])),
           "simulation": {"seed": 1, "horizon": 5, "replications": 10}}
    cfg = _write(tmp_path, "pairs.yaml", yaml.safe_dump(doc))
    for command in ("bounds", "simulate"):
        assert _run([command, "--config", cfg, "--mode", "delay", "--levels", "2.5",
                     "--out", str(tmp_path)]) == EXIT_PARSE
    assert _run(["bounds", "--config", toy_cfg, "--mode", "delay", "--levels", "-1",
                 "--out", str(tmp_path)]) == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["bounds", "--mode", "dcc", "--levels", "0"],
    ["bounds", "--mode", "dcc", "--levels", "-5"],
    ["bounds", "--mode", "backlog", "--levels", "nan"],
    ["bounds", "--mode", "horizon", "--levels", "-3"],
    ["bounds", "--mode", "horizon", "--levels", "inf"],
    ["simulate", "--mode", "backlog", "--levels", "nan"],
    # a horizon multiplier that is not finite is bad input too, not a failed root search
    ["bounds", "--mode", "horizon", "--y", "nan"],
    ["bounds", "--mode", "horizon", "--y", "inf"],
])
def test_meaningless_levels_exit_2(tmp_path, toy_cfg, argv):
    assert _run(argv + ["--config", toy_cfg, "--out", str(tmp_path)]) == EXIT_PARSE


def test_horizon_equation_without_root_exits_3(tmp_path, capsys):
    # y kappa'^-S + (y - 1) kappa'^A stays below (y - 1) 4 - 3 y < 0 at y = 1.01
    doc = {"arrival": {"kernel": {"states": ["a"], "transition": [[1.0]],
                                  "increments": [[_pmf([0.0, 4.0], [0.5, 0.5])]]}},
           "service": {"kernel": {"states": ["s"], "transition": [[1.0]],
                                  "increments": [[_pmf([3.0, 5.0], [0.5, 0.5])]]}}}
    cfg = _write(tmp_path, "noroot.yaml", yaml.safe_dump(doc))
    assert _run(["bounds", "--config", cfg, "--mode", "horizon", "--y", "1.01",
                 "--out", str(tmp_path)]) == EXIT_NUMERIC
    assert re.search(r"horizon delay equation.*theta=\d", capsys.readouterr().err)


def _nan_after_the_bracket(monkeypatch):
    real = spectral._zeroin

    def zeroin(f, lo, hi, what):
        values = iter([f(lo), f(hi)])
        return real(lambda t: next(values, math.nan), lo, hi, what)

    monkeypatch.setattr(spectral, "_zeroin", zeroin)


@pytest.mark.parametrize("failure, message", [
    (_nan_after_the_bracket, r"is NaN at theta=\d"),
    (lambda monkeypatch: monkeypatch.setattr(spectral, "_MAXITER", 3),
     r"did not converge in 3 steps, at theta=\d"),
], ids=["nan", "iteration-cap"])
def test_root_refinement_failure_exits_3(tmp_path, toy_cfg, monkeypatch, capsys, failure,
                                         message):
    # a NaN value is a numeric failure, not a parse error, and so is running
    # out of steps
    failure(monkeypatch)
    assert _run(["bounds", "--config", toy_cfg, "--mode", "delay", "--levels", "1",
                 "--out", str(tmp_path)]) == EXIT_NUMERIC
    assert re.search(r"combined cgf kappa\^A \+ kappa\^-S " + message, capsys.readouterr().err)


# the n2-constant-frechet1-0 config of the benchmark's analytic pool: a 2-state
# Rayleigh service (26.11 dB and -0.86 dB) under constant traffic
POOL_CFG = """\
arrival: {constant: 57.385116}
service:
  channel:
    bandwidth: 20.0
    snr: [[db:26.11, db:26.11], [db:-0.86, db:-0.86]]
    states: [p0, p1]
  copula: {family: frechet1, alpha: 0.459}
  varpi: [0.5066, 0.49339999999999995]
"""


@pytest.mark.parametrize("argv, one, many", [
    (["--mode", "dcc"], "5", "5,10,20"),
    (["--mode", "horizon"], "2", "2,4,8"),
])
def test_more_levels_make_no_more_eigensolves(tmp_path, monkeypatch, argv, one, many):
    # the levels of one run share the root and, for dcc, the search for the
    # theta of the optimum (the bound is 1/d times a function of theta): every
    # further level reads the solutions the first one kept on the kernels, and
    # dcc solves its theta stacks once for all levels
    cfg = _write(tmp_path, "pool.yaml", POOL_CFG)
    solves = count_calls(monkeypatch, spectral, "_solve_one")
    stacked = count_calls(monkeypatch, np.linalg, "eig")
    counts = []
    for levels in (one, many):
        del solves[:], stacked[:]
        assert _run(["bounds", "--config", cfg, *argv, "--levels", levels,
                     "--out", str(tmp_path)]) == 0
        counts.append((len(solves), len(stacked)))
    assert 0 < counts[1][0] <= counts[0][0]
    assert counts[1][1] <= counts[0][1]
    assert (counts[0][1] > 0) == (argv[1] == "dcc")


def test_dgeev_failure_exits_3(tmp_path, monkeypatch):
    # the two-state service needs LAPACK; dgeev reporting no convergence
    # (info > 0) is a numeric failure
    real = spectral.dgeev

    def failing_dgeev(a, **kwargs):
        *out, _ = real(a, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(spectral, "dgeev", failing_dgeev)
    cfg = _write(tmp_path, "pool.yaml", POOL_CFG)
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1",
                 "--out", str(tmp_path)]) == 3


def test_inconclusive_decay_slope_exits_3(tmp_path, toy_config_text):
    # 20 replications cannot give any level the 50 hits a slope fit needs
    doc = yaml.safe_load(toy_config_text)
    doc["experiment"] = {"replications": 20, "horizon": 10}
    cfg = _write(tmp_path, "tiny.yaml", yaml.safe_dump(doc))
    assert _run(["ordercheck", "--config", cfg, "--experiment",
                 "arrival-vs-constant"]) == EXIT_NUMERIC


def test_importing_the_cli_leaves_scipy_stats_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, mapq.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "False"


def test_importing_the_cli_leaves_scipy_optimize_and_integrate_out():
    # scipy.integrate's quad stays reachable as mapq.laws.quad, which
    # perfbench/tracing.py reads and then patches through the module dict
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, mapq.cli, mapq.laws\n"
            "print([m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.stats')"
            " if m in sys.modules])\n"
            "quad = getattr(mapq.laws, 'quad')\n"
            "print(vars(mapq.laws).get('quad') is quad is sys.modules['scipy.integrate'].quad)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["[]", "True"]


def test_control_reproduces_printed_matrix(tmp_path):
    cfg = _write(tmp_path, "ctl.yaml", CONTROL_CFG)
    out = tmp_path / "o5"
    assert _run(["control", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "control_plan.csv").read_text(encoding="utf-8").splitlines()[1:]
    mat = np.zeros((2, 2))
    for line in rows:
        d, step, i, j, p = line.split(",")
        if step == "0":
            mat[int(i), int(j)] = float(p)
    assert np.allclose(np.round(mat, 4), [[0.4125, 0.5875], [0.2518, 0.7482]])
    fragment = yaml.safe_load((out / "control_kernel.yaml").read_text(encoding="utf-8"))
    assert np.allclose(fragment["kernel"]["transition"], mat, atol=1e-12)
    assert fragment["kernel"]["initial_dist"] == [0.3, 0.7]


CONTROL_KERNEL_3 = """\
kernel:
  increments:
""" + """\
  - - law: constant
      value: 0.0
    - law: constant
      value: 0.0
    - law: constant
      value: 0.0
""" * 3 + """\
  initial_dist:
  - 0.2
  - 0.3
  - 0.5
  states:
  - 0
  - 1
  - 2
  transition:
  - - 0.33749999999999997
    - 0.225
    - 0.4375
  - - 0.15000000000000008
    - 0.41250000000000003
    - 0.43749999999999994
  - - 0.17500000000000004
    - 0.26249999999999996
    - 0.5625
"""


def test_control_kernel_yaml_bytes(tmp_path):
    # libyaml's emitter, where PyYAML has it, writes yaml.safe_dump's bytes
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"]["varpi"] = [0.2, 0.3, 0.5]
    cfg = _write(tmp_path, "ctl3.yaml", yaml.safe_dump(doc))
    out = tmp_path / "o3"
    assert _run(["control", "--config", cfg, "--out", str(out)]) == 0
    written = (out / "control_kernel.yaml").read_bytes()
    assert written == CONTROL_KERNEL_3.encode("utf-8")
    assert yaml.safe_dump(yaml.safe_load(written), sort_keys=True) == CONTROL_KERNEL_3


def test_control_product_copula_rows_equal_varpi(tmp_path):
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"]["copula"] = {"family": "p"}
    cfg = _write(tmp_path, "ctlp.yaml", yaml.safe_dump(doc))
    out = tmp_path / "o6"
    assert _run(["control", "--config", cfg, "--out", str(out)]) == 0
    fragment = yaml.safe_load((out / "control_kernel.yaml").read_text(encoding="utf-8"))
    assert np.allclose(fragment["kernel"]["transition"], [[0.3, 0.7], [0.3, 0.7]])


def test_control_zero_mass_state_exits_5(tmp_path):
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"]["varpi"] = [0.0, 1.0]
    cfg = _write(tmp_path, "ctl0.yaml", yaml.safe_dump(doc))
    assert _run(["control", "--config", cfg, "--out", str(tmp_path / "o7")]) == 5


CHANNEL = {"bandwidth": 20.0, "snr": [[10, 10], [1, 1]], "states": ["hi", "lo"]}


@pytest.mark.parametrize("copula", [{"family": "frechet1", "alpha": 0.5},
                                    {"family": "gauss2", "rho": 0.5}], ids=["frechet1", "gauss2"])
@pytest.mark.parametrize("command", ["control", "spectral"])
def test_nan_state_mass_exits_2(tmp_path, capsys, copula, command):
    doc = yaml.safe_load(CONTROL_CFG)
    if command == "control":
        doc["copulas"].update(varpi=[math.nan, 0.5], copula=copula)
    else:
        doc["service"] = {"channel": CHANNEL, "copula": copula, "varpi": [math.nan, 0.5]}
    cfg = _write(tmp_path, "nanmass.yaml", yaml.safe_dump(doc))
    assert _run([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "state masses sum to nan" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [
    ("arrival", {"constant": math.nan}),
    ("arrival", {"constant": -math.inf}),
    ("service", {"kernel": {"states": ["only"], "transition": [[1.0]], "increments": [
        [{"law": "pmf", "support": [2.0, 4.0], "probs": [math.nan, 0.5]}]]}}),
    ("service", {"channel": {**CHANNEL, "bandwidth": math.nan},
                 "transition": [[0.5, 0.5], [0.5, 0.5]]}),
], ids=["constant-nan", "constant-minus-inf", "probs-nan", "bandwidth-nan"])
@pytest.mark.parametrize("command", ["spectral", "bounds"])
def test_non_finite_law_parameters_exit_2(tmp_path, toy_config_text, capsys, section, value,
                                          command):
    doc = yaml.safe_load(toy_config_text)
    doc[section] = value
    cfg = _write(tmp_path, "nonfinite.yaml", yaml.safe_dump(doc))
    assert _run([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "finite" in capsys.readouterr().err


def test_simulate_deterministic_and_joined_with_bounds(tmp_path, toy_cfg):
    out = tmp_path / "o8"
    assert _run(["simulate", "--config", toy_cfg, "--mode", "backlog",
                 "--out", str(out)]) == 0
    first = (out / "tails.csv").read_bytes()
    assert _run(["simulate", "--config", toy_cfg, "--mode", "backlog",
                 "--out", str(out)]) == 0
    assert (out / "tails.csv").read_bytes() == first
    rows = first.decode().splitlines()
    assert rows[0].split(",")[:2] == ["level", "p_hat"]
    for line in rows[1:]:
        parts = [float(x) for x in line.split(",")]
        level, p_hat, lower, upper = parts[0], parts[1], parts[6], parts[7]
        assert 0.0 <= p_hat <= 1.0 and lower <= upper


def test_simulate_seed_override_changes_output(tmp_path, toy_cfg):
    out_a = tmp_path / "oa"
    out_b = tmp_path / "ob"
    assert _run(["simulate", "--config", toy_cfg, "--out", str(out_a)]) == 0
    assert _run(["simulate", "--config", toy_cfg, "--out", str(out_b),
                 "--seed", "8"]) == 0
    assert (out_a / "tails.csv").read_bytes() != (out_b / "tails.csv").read_bytes()


def test_simulate_requires_seed(tmp_path, toy_config_text):
    doc = yaml.safe_load(toy_config_text)
    del doc["simulation"]["seed"]
    cfg = _write(tmp_path, "noseed.yaml", yaml.safe_dump(doc))
    assert _run(["simulate", "--config", cfg]) == 2


def _pmf(support, probs):
    return {"law": "pmf", "support": support, "probs": probs}


def _two_state(states, row0, row1):
    return {"kernel": {"states": states, "transition": [[0.8, 0.2], [0.3, 0.7]],
                       "increments": [[row0, row1], [row0, row1]]}}


@pytest.mark.parametrize("arrival, labels", [
    ({"constant": 1.0}, {"delay": ["S[good]@0", "S[bad]@0"],
                         "backlog": ["S[good]@0", "S[bad]@0"]}),
    (_two_state(["on", "off"], _pmf([0.0, 3.0], [0.5, 0.5]), _pmf([0.0, 1.0], [0.5, 0.5])),
     {m: [f"A[{a}]@{t},S[{s}]@0" for a in ("on", "off") for s in ("good", "bad")]
      for m, t in (("delay", "d"), ("backlog", "0"))}),
])
def test_bounds_conditioning_column(tmp_path, arrival, labels):
    # a one-state arrival chain has nothing to condition on, so its rows
    # name the service state alone
    doc = {"arrival": arrival,
           "service": _two_state(["good", "bad"], _pmf([1.0, 4.0], [0.5, 0.5]),
                                 _pmf([0.5, 3.0], [0.5, 0.5]))}
    cfg = _write(tmp_path, "pairs.yaml", yaml.safe_dump(doc))
    for mode in ("delay", "backlog"):
        out = tmp_path / mode
        assert _run(["bounds", "--config", cfg, "--mode", mode, "--levels", "1,2",
                     "--out", str(out)]) == 0
        lines = (out / f"bounds_{mode}.csv").read_text(encoding="utf-8").splitlines()[1:]
        # the column sits between the level and five numeric cells; a pair
        # label carries its own comma, unquoted
        got = [",".join(line.split(",")[1:-5]) for line in lines]
        assert got == (labels[mode] + ["average"]) * 2


def test_simulate_zero_traffic_all_zero(tmp_path, toy_config_text):
    doc = yaml.safe_load(toy_config_text)
    doc["arrival"]["constant"] = 0.0
    # nonnegative service so zero arrivals really mean an empty queue
    doc["service"]["kernel"]["increments"] = [[{"law": "constant", "value": 3.0}]]
    doc["simulation"]["levels"] = [0.0, 1.0]
    cfg = _write(tmp_path, "zero.yaml", yaml.safe_dump(doc))
    out = tmp_path / "o9"
    assert _run(["simulate", "--config", cfg, "--mode", "backlog",
                 "--out", str(out)]) == 0
    for line in (out / "tails.csv").read_text(encoding="utf-8").splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_ordercheck_pmf_holds(tmp_path, capsys):
    x = _write(tmp_path, "x.csv", "1,1\n")
    y = _write(tmp_path, "y.csv", "0,0.5\n2,0.5\n")
    assert _run(["ordercheck", "--pmf-x", x, "--pmf-y", y]) == 0
    assert "verdict: holds" in capsys.readouterr().out


def test_ordercheck_pmf_means_1e_10_apart_differ(tmp_path, capsys):
    # every stop-loss row of y dominates x's, yet the means are 1 and 1 + 1e-10
    x = _write(tmp_path, "x.csv", "1,1\n")
    y = _write(tmp_path, "y.csv", "0,0.5\n2.0000000002,0.5\n")
    assert _run(["ordercheck", "--pmf-x", x, "--pmf-y", y]) == 0
    out = capsys.readouterr().out
    assert "verdict: fails\nnote: means differ (1 vs 1.0000000001" in out


def test_ordercheck_samples_and_dimension_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(0)
    u = rng.random((4000, 1))
    como = np.hstack([u, u])
    ind = rng.random((4000, 2))
    xs = _write(tmp_path, "xs.csv", "\n".join(",".join(map(str, r)) for r in ind))
    ys = _write(tmp_path, "ys.csv", "\n".join(",".join(map(str, r)) for r in como))
    assert _run(["ordercheck", "--samples-x", xs, "--samples-y", ys]) == 0
    assert "verdict: holds" in capsys.readouterr().out
    bad = _write(tmp_path, "bad.csv", "\n".join(",".join(map(str, r)) for r in rng.random((50, 3))))
    assert _run(["ordercheck", "--samples-x", xs, "--samples-y", bad]) == 2


def test_ordercheck_needs_inputs():
    assert _run(["ordercheck"]) == 2


def test_spectral_solves_once_per_role_and_theta(tmp_path, monkeypatch):
    # kappa, kappa_dot, h, v and pi of a row all come from one eigensolve
    solves = count_calls(monkeypatch, spectral, "_solve_one")
    doc = {"arrival": _two_state(["on", "off"], _pmf([0.0, 3.0], [0.5, 0.5]),
                                 _pmf([0.0, 1.0], [0.5, 0.5])),
           "service": _two_state(["good", "bad"], _pmf([1.0, 4.0], [0.5, 0.5]),
                                 _pmf([0.5, 3.0], [0.5, 0.5]))}
    cfg = _write(tmp_path, "pairs.yaml", yaml.safe_dump(doc))
    thetas = (-0.1, 0.0, 0.2, 0.4, 0.8)
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path),
                 "--theta=" + ",".join(map(str, thetas))]) == 0
    assert len(solves) == 2 * len(thetas)


def test_ordercheck_experiment_without_config(capsys):
    # an experiment that needs no config runs without one
    assert _run(["ordercheck", "--experiment", "subchannel-aggregation"]) == 0
    assert "experiment: subchannel-aggregation" in capsys.readouterr().out
    # one that needs a service kernel says so with the config exit code
    assert _run(["ordercheck", "--experiment", "arrival-vs-constant"]) == EXIT_PARSE
    assert "'service'" in capsys.readouterr().err


def test_ordercheck_experiment_missing_key_exits_2(tmp_path, toy_cfg, capsys):
    assert _run(["ordercheck", "--config", toy_cfg, "--experiment",
                 "service-dependence-sweep"]) == EXIT_PARSE
    assert "'channel'" in capsys.readouterr().err


# flags each subcommand reads; any other of the thirteen exits 2
_READS = {
    "spectral": {"--config", "--out", "--theta"},
    "bounds": {"--config", "--out", "--levels", "--mode", "--y", "--epsilon"},
    "control": {"--config", "--out"},
    "simulate": {"--config", "--out", "--seed", "--levels", "--mode"},
    "ordercheck": {"--config", "--out", "--seed", "--pmf-x", "--pmf-y", "--samples-x",
                   "--samples-y", "--experiment"},
}
_ALL_FLAGS = set().union(*_READS.values())


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in _READS.items() for flag in sorted(_ALL_FLAGS - reads)
])
def test_unread_flag_exits_2(toy_cfg, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", toy_cfg, flag, "1"])
    assert exc.value.code == EXIT_PARSE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_flag_slots_are_the_ones_read():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
                - {"--help"} for name, p in sub.choices.items()}
    assert declared == _READS
    assert sum(map(len, declared.values())) == 24


def test_consecutive_calls_share_one_parser_and_nothing_else(toy_cfg, monkeypatch, capsys):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "bounds", lambda config, args: seen.append(args) or 0)
    assert main(["bounds", "--config", toy_cfg, "--mode", "dcc", "--levels", "9",
                 "--epsilon", "1e-3"]) == 0
    assert main(["bounds", "--config", toy_cfg]) == 0
    assert (seen[1].mode, seen[1].levels, seen[1].epsilon) == ("delay", None, 1e-6)
    # a rejected flag leaves the next call as it was
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", toy_cfg, "--seed", "1"])
    assert exc.value.code == EXIT_PARSE
    assert main(["bounds", "--config", toy_cfg, "--levels", "2"]) == 0
    assert vars(seen[2]) == {**vars(seen[1]), "levels": "2"}
    assert seen[0] is not seen[1] is not seen[2]


@pytest.mark.parametrize("command", ["spectral", "bounds", "control", "simulate"])
def test_config_commands_require_a_config(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == EXIT_PARSE
    assert "--config" in capsys.readouterr().err


SWEEP_EXPERIMENT = {
    "channel": {"bandwidth": 20, "snr": [[1e4, 1e4], [10, 10]], "states": ["hi", "lo"]},
    "rate": 80, "alphas": [-0.8, 0, 0.8], "levels": [1, 2, 3, 4, 5, 6],
    "replications": 3000, "horizon": 100,
}


def test_service_sweep_runs_from_the_cli(tmp_path, toy_config_text, capsys):
    doc = yaml.safe_load(toy_config_text)
    doc["experiment"] = SWEEP_EXPERIMENT
    cfg = _write(tmp_path, "sweep.yaml", yaml.safe_dump(doc))
    assert _run(["ordercheck", "--config", cfg, "--experiment", "service-dependence-sweep",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "experiment: service-dependence-sweep" in out and "verdict: holds" in out
    assert all(f"alpha={a}," in out for a in (-0.8, 0, 0.8))


@pytest.mark.parametrize("command", ["ordercheck", "spectral"])
def test_bad_experiment_channel_exits_2(tmp_path, toy_config_text, capsys, command):
    # the states list is missing; every command parses the whole document
    doc = yaml.safe_load(toy_config_text)
    doc["experiment"] = {"channel": {"bandwidth": 20, "snr": [[10, 10], [1, 1]]}, "rate": 1.0}
    cfg = _write(tmp_path, "badchan.yaml", yaml.safe_dump(doc))
    extra = {"ordercheck": ["--experiment", "service-dependence-sweep"], "spectral": []}
    assert _run([command, "--config", cfg, "--out", str(tmp_path)] + extra[command]) == EXIT_PARSE
    assert "bad channel config" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [
    ("simulation", {"horizon": 0}),
    ("simulation", {"replications": 2.5}),
    ("simulation", {"metric": "horizon"}),
    ("simulation", [1, 2]),
    ("experiment", "sweep"),
    ("copulas", {"varpi": [0.5, 0.5]}),
    ("experiment", {"replications": 0}),
    ("experiment", {"horizon": 2.5}),
    ("experiment", {"samples": True}),
    ("experiment", {"max_batches": "six"}),
    ("experiment", {"rate": "fast"}),
    ("experiment", {"rate": -1.0}),
    ("experiment", {"rate": float("inf")}),
])
@pytest.mark.parametrize("command", ["simulate", "spectral"])
def test_malformed_section_exits_2(tmp_path, toy_config_text, name, value, command):
    doc = yaml.safe_load(toy_config_text)
    doc[name] = {**doc.get(name, {}), **value} if isinstance(value, dict) else value
    cfg = _write(tmp_path, "bad.yaml", yaml.safe_dump(doc))
    assert _run([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE


STEPS_COPULAS = {"varpi": [0.3, 0.7],
                 "steps": [{"family": "frechet1", "alpha": 0.5}, {"family": "p"}]}


def test_steps_list_sets_the_control_horizon(tmp_path):
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"] = STEPS_COPULAS
    cfg = _write(tmp_path, "steps.yaml", yaml.safe_dump(doc))
    out = tmp_path / "ctl"
    assert _run(["control", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "control_plan.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert sorted({line.split(",")[1] for line in rows}) == ["0", "1"]


def test_steps_list_runs_under_simulate(tmp_path):
    doc = {"arrival": {"constant": 40.0},
           "service": {"channel": {"bandwidth": 20.0, "snr": [["db:40", "db:10"]] * 2,
                                   "states": ["hi", "lo"]},
                       "copula": {"family": "frechet1", "alpha": -0.5}, "varpi": [0.3, 0.7]},
           "copulas": dict(STEPS_COPULAS, slots=200),
           "simulation": {"horizon": 20, "replications": 200, "seed": 1, "levels": [1, 2]}}
    cfg = _write(tmp_path, "steps.yaml", yaml.safe_dump(doc))
    out = tmp_path / "sim"
    assert _run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "correlation.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2 and rows[1].endswith(",200")


BOOL_LABEL_CFG = """\
arrival:
  kernel:
    states: {states}
    transition: [[0.8, 0.2], [0.3, 0.7]]
    increments: [[{{law: constant, value: 0.5}}, {{law: constant, value: 1.0}}],
                 [{{law: constant, value: 0.5}}, {{law: constant, value: 1.0}}]]
service:
  kernel:
    states: [only]
    transition: [[1.0]]
    increments: [[{{law: normal, mean: 3.0, std: 1.4142135623730951}}]]
"""


def test_yaml_boolean_state_labels_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bool.yaml", BOOL_LABEL_CFG.format(states="[on, off]"))
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "quote" in capsys.readouterr().err
    for states, labels in (("['on', 'off']", ["on", "off"]), ("[1, 2]", ["1", "2"])):
        cfg = _write(tmp_path, "labels.yaml", BOOL_LABEL_CFG.format(states=states))
        out = tmp_path / "ok"
        assert _run(["spectral", "--config", cfg, "--out", str(out), "--theta", "0.5"]) == 0
        rows = (out / "spectral.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[2] for line in rows if ",arrival," in line] == labels
