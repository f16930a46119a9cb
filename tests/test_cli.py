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
from mapq import cli, counters, sim, spectral
from mapq.cli import EXIT_NUMERIC, EXIT_PARSE, EXIT_UNSTABLE, build_parser, main


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


@pytest.mark.parametrize("mode, flag", [
    ("delay", "--y"), ("backlog", "--y"), ("dcc", "--y"), (None, "--y"),
    ("delay", "--epsilon"), ("backlog", "--epsilon"), ("horizon", "--epsilon"),
])
def test_bounds_rejects_a_flag_its_mode_ignores(tmp_path, toy_cfg, capsys, mode, flag):
    # --y is read by the horizon mode alone and --epsilon by dcc alone; the
    # default mode is delay
    out = tmp_path / "unwritten"
    argv = ["bounds", "--config", toy_cfg, flag, "0.5", "--out", str(out)]
    assert _run(argv + (["--mode", mode] if mode else [])) == EXIT_PARSE
    needs = "horizon" if flag == "--y" else "dcc"
    assert (f"error: config: bounds reads {flag} only with --mode {needs}, not with --mode "
            f"{mode or 'delay'}\n") == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, flag, default", [("horizon", "--y", "2"),
                                                 ("dcc", "--epsilon", "1e-6")])
def test_bounds_mode_flags_have_their_defaults(tmp_path, toy_cfg, mode, flag, default):
    files = []
    for given in ([flag, default], []):
        out = tmp_path / str(len(files))
        assert _run(["bounds", "--config", toy_cfg, "--mode", mode, "--levels", "2",
                     *given, "--out", str(out)]) == 0
        files.append((out / f"bounds_{mode}.csv").read_bytes())
    assert files[0] == files[1]


def test_unstable_config_exits_4(tmp_path, toy_config_text):
    doc = yaml.safe_load(toy_config_text)
    doc["arrival"]["constant"] = 99.0
    cfg = _write(tmp_path, "unstable.yaml", yaml.safe_dump(doc))
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1"]) == 4


def test_unstable_simulate_exits_4_before_sampling(tmp_path, toy_config_text, monkeypatch):
    doc = yaml.safe_load(toy_config_text)
    doc["arrival"]["constant"] = 3.5
    cfg = _write(tmp_path, "unstable.yaml", yaml.safe_dump(doc))
    calls = count_calls(monkeypatch, sim, "tail_estimate")
    assert _run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_UNSTABLE
    assert calls == []


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


def test_eigensolver_failure_exits_3(tmp_path, toy_config_text, monkeypatch):
    # LinAlgError subclasses ValueError, which alone would map to exit 2; the
    # service has two states, since a one-state kernel is solved in closed form
    doc = yaml.safe_load(toy_config_text)
    doc["service"] = _two_state(["good", "bad"], _pmf([2.0, 4.0], [0.5, 0.5]),
                                _pmf([1.0, 5.0], [0.5, 0.5]))
    cfg = _write(tmp_path, "two_state.yaml", yaml.safe_dump(doc))
    calls = []

    def failing_solve(*args, **kwargs):
        calls.append(args)
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(spectral, "_solve_one", failing_solve)
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1",
                 "--out", str(tmp_path)]) == 3
    assert len(calls) == 1


def test_parse_error_exits_2(tmp_path):
    cfg = _write(tmp_path, "broken.yaml", "arrival: {constant: 1.0}\n")
    assert _run(["bounds", "--config", cfg, "--mode", "delay", "--levels", "1"]) == 2
    assert _run(["bounds", "--config", str(tmp_path / "missing.yaml")]) == 2


NAN_KERNEL_CFG = """\
arrival: {constant: 1.0}
service:
  kernel:
    states: [a, b]
    transition: [[.nan, 1.0], [0.5, 0.5]]
    increments: [[{law: constant, value: 2.0}, {law: constant, value: 2.0}],
                 [{law: constant, value: 2.0}, {law: constant, value: 2.0}]]
"""

NAN_VARPI_CFG = """\
arrival: {constant: 1.0}
service:
  channel:
    bandwidth: 20.0
    snr: [[db:26.11, db:26.11], [db:-0.86, db:-0.86]]
    states: [p0, p1]
  transition: [[0.6, 0.4], [0.3, 0.7]]
  varpi: [.nan, 0.5]
"""


NEGATIVE_INITIAL_CFG = """\
arrival: {constant: 1.0}
service:
  kernel:
    states: [a, b]
    transition: [[0.6, 0.4], [0.3, 0.7]]
    increments: [[{law: constant, value: 2.0}, {law: constant, value: 2.0}],
                 [{law: constant, value: 2.0}, {law: constant, value: 2.0}]]
    initial_dist: [1.5, -0.5]
"""


@pytest.mark.parametrize("text, field", [
    (NAN_KERNEL_CFG, "transition"),
    (NAN_VARPI_CFG, "initial_dist"),
    (NAN_VARPI_CFG.replace("[.nan, 0.5]", "[1.5, -0.5]"), "initial_dist"),
    (NEGATIVE_INITIAL_CFG, "initial_dist"),
], ids=["kernel-transition", "channel-varpi", "channel-varpi-negative",
        "kernel-initial-negative"])
@pytest.mark.parametrize("command", [["spectral"], ["bounds", "--mode", "delay"]],
                         ids=["spectral", "bounds"])
def test_non_finite_kernel_entries_exit_2(tmp_path, capsys, text, field, command):
    # a NaN transition entry used to reach lstsq (exit 3), a NaN varpi gave
    # NaN bounds with exit 0, and a negative varpi entry clamped bounds to 0
    # with exit 0
    cfg = _write(tmp_path, "nan.yaml", text)
    assert _run([command[0], "--config", cfg, *command[1:], "--out", str(tmp_path)]) == EXIT_PARSE
    assert field in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


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
    # a DCC tail probability outside (0, 1), and numeric lists that do not parse
    ["bounds", "--mode", "dcc", "--levels", "5", "--epsilon", "0"],
    ["bounds", "--mode", "dcc", "--levels", "5", "--epsilon", "1.5"],
    ["bounds", "--levels", "1,x"],
    ["spectral", "--theta=0.5,x"],
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
def test_more_levels_make_no_more_eigensolves(tmp_path, argv, one, many):
    # the levels of one run share the root and, for dcc, the search for the
    # theta of the optimum (the bound is 1/d times a function of theta): every
    # further level reads the solutions the first one kept on the kernels, and
    # dcc solves its theta stacks once for all levels
    cfg = _write(tmp_path, "pool.yaml", POOL_CFG)
    counts = []
    for levels in (one, many):
        done = counters.tally()
        assert _run(["bounds", "--config", cfg, *argv, "--levels", levels,
                     "--out", str(tmp_path)]) == 0
        counts.append((done()["scalar_solves"], done()["stacked_matrices"]))
    assert 0 < counts[1][0] <= counts[0][0]
    assert counts[1][1] <= counts[0][1]
    assert (counts[0][1] > 0) == (argv[1] == "dcc")


def test_dgeev_failure_exits_3(tmp_path, monkeypatch):
    # the two-state service needs LAPACK; dgeev not converging, which numpy's
    # eigensolve reports as NaN, is a numeric failure
    real = spectral._eig

    def failing_eig(f):
        return tuple(np.full_like(x, np.nan) for x in real(f))

    monkeypatch.setattr(spectral, "_eig", failing_eig)
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


def test_importing_the_cli_leaves_scipy_optimize_and_integrate_out(tmp_path):
    # in a fresh interpreter: no scipy module loads with the CLI; scipy.integrate's
    # quad stays reachable as mapq.laws.quad, which perfbench/tracing.py reads
    # and then patches through the module dict; a Gaussian copula loads
    # scipy.special on first use
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"]["copula"] = {"family": "gauss2", "rho": 0.5}
    cfg = _write(tmp_path, "gauss2.yaml", yaml.safe_dump(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, mapq.cli, mapq.laws\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n"
            "quad = getattr(mapq.laws, 'quad')\n"
            "print(vars(mapq.laws).get('quad') is quad is sys.modules['scipy.integrate'].quad)\n"
            f"print(mapq.cli.main(['control', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]))\n"
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    # control prints its output paths before main returns 0
    assert out[:2] == ["[]", "True"] and out[-2:] == ["0", "True"]


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


@pytest.mark.parametrize("family, rows", [("m", [[1.0, 0.0], [0.0, 1.0]]),
                                          ("w", [[0.0, 1.0], [1.0, 0.0]])])
def test_control_frechet_bound_copulas_write_their_permutations(tmp_path, family, rows):
    # on the uniform marginal the upper bound M keeps the state, the lower bound W flips it
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"].update(varpi=[0.5, 0.5], copula={"family": family})
    cfg = _write(tmp_path, "ctl.yaml", yaml.safe_dump(doc))
    out = tmp_path / "o8"
    assert _run(["control", "--config", cfg, "--out", str(out)]) == 0
    fragment = yaml.safe_load((out / "control_kernel.yaml").read_text(encoding="utf-8"))
    assert fragment["kernel"]["transition"] == rows


def test_channel_service_without_a_transition_exits_2(tmp_path, toy_config_text, capsys):
    doc = yaml.safe_load(toy_config_text)
    doc["service"] = {"channel": CHANNEL}
    cfg = _write(tmp_path, "chan.yaml", yaml.safe_dump(doc))
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "channel service needs a transition matrix" in capsys.readouterr().err


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
    # an int past the largest double, which float() cannot hold
    ("arrival", {"constant": 10 ** 400}),
], ids=["constant-nan", "constant-minus-inf", "probs-nan", "bandwidth-nan", "constant-400-digits"])
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
    # one row has no standard error
    one = _write(tmp_path, "one.csv", "0.1,0.2\n")
    assert _run(["ordercheck", "--samples-x", one, "--samples-y", one]) == 2
    assert "each needs 2 or more" in capsys.readouterr().err


def test_ordercheck_needs_inputs():
    assert _run(["ordercheck"]) == 2


@pytest.mark.parametrize("extra, named", [
    (["--pmf-y", "y.csv", "--samples-x", "missing.csv"], "--pmf-x, --pmf-y, --samples-x"),
    (["--experiment", "subchannel-aggregation"], "--pmf-x, --experiment"),
    # --seed and --config are read only by --experiment
    (["--pmf-y", "y.csv", "--seed", "3"], "--seed"),
    (["--pmf-y", "y.csv", "--config", "toy.yaml"], "--config"),
], ids=["half-pair-beside-a-pair", "two-modes", "seed-beside-a-pair", "config-beside-a-pair"])
def test_ordercheck_runs_one_complete_mode_only(tmp_path, toy_cfg, capsys, monkeypatch, extra,
                                                named):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "x.csv", "1,1\n")
    _write(tmp_path, "y.csv", "0,0.5\n2,0.5\n")
    assert _run(["ordercheck", "--pmf-x", "x.csv", *extra]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"got {named}\n")


def test_ordercheck_out_writes_the_printed_report(tmp_path, capsys):
    x = _write(tmp_path, "x.csv", "1,1\n")
    y = _write(tmp_path, "y.csv", "0,0.5\n2,0.5\n")
    out = tmp_path / "report"
    assert _run(["ordercheck", "--pmf-x", x, "--pmf-y", y, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (out / "order_report.txt").read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("option, text", [
    ("--pmf-x", "1,0.5,2\n3,0.5,4\n"),  # a PMF file has two columns
    ("--samples-x", "0.1,abc\n0.2,0.3\n"),
    ("--pmf-x", "1,abc\n"),
], ids=["pmf-three-columns", "samples-unparsable", "pmf-unparsable"])
def test_ordercheck_bad_input_file_exits_2(tmp_path, capsys, option, text):
    bad = _write(tmp_path, "bad.csv", text)
    good = _write(tmp_path, "good.csv", "1,1\n" if option == "--pmf-x" else "0.1,0.2\n")
    other = option.replace("-x", "-y")
    assert _run(["ordercheck", option, bad, other, good]) == EXIT_PARSE
    assert "bad.csv" in capsys.readouterr().err


def test_control_without_copulas_section_exits_2(tmp_path, toy_cfg, capsys):
    assert _run(["control", "--config", toy_cfg, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert "copulas section" in capsys.readouterr().err


def test_spectral_solves_once_per_role_and_theta(tmp_path):
    # kappa, kappa_dot, h, v and pi of a row all come from one eigensolve
    done = counters.tally()
    doc = {"arrival": _two_state(["on", "off"], _pmf([0.0, 3.0], [0.5, 0.5]),
                                 _pmf([0.0, 1.0], [0.5, 0.5])),
           "service": _two_state(["good", "bad"], _pmf([1.0, 4.0], [0.5, 0.5]),
                                 _pmf([0.5, 3.0], [0.5, 0.5]))}
    cfg = _write(tmp_path, "pairs.yaml", yaml.safe_dump(doc))
    thetas = (-0.1, 0.0, 0.2, 0.4, 0.8)
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path),
                 "--theta=" + ",".join(map(str, thetas))]) == 0
    assert done()["scalar_solves"] == 2 * len(thetas)


def test_spectral_stacks_each_transform_of_a_kernel_once(tmp_path, capsys, monkeypatch):
    # both transforms of the Rayleigh service at every theta come from one
    # quadrature each; the pmf arrival takes none
    rayleigh = [{"law": "rayleigh", "bandwidth": 2.0, "snr": snr} for snr in (10.0, 1.0)]
    doc = {"arrival": _two_state(["on", "off"], _pmf([0.0, 3.0], [0.5, 0.5]),
                                 _pmf([0.0, 1.0], [0.5, 0.5])),
           "service": _two_state(["good", "bad"], *rayleigh)}
    cfg = _write(tmp_path, "fading.yaml", yaml.safe_dump(doc))
    stacks = count_calls(monkeypatch, cli, "_stack_ladder")
    done = counters.tally()
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path),
                 "--theta=-0.5,0,0.5,1.5"]) == 0
    assert done()["quadrature_calls"] == 2
    # a theta whose arrival transform overflows fails alone, with the scalar
    # message, after the rows before it are solved
    done = counters.tally()
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path),
                 "--theta=0.5,300,1"]) == EXIT_NUMERIC
    assert ("the arrival kernel fails: transform matrix not finite at theta=300.0"
            in capsys.readouterr().err)
    assert done()["scalar_solves"] == 2
    assert [args[1] for args in stacks] == ["mgf", "tilted_mean"] * 4


@pytest.mark.parametrize("theta, code, message", [
    # a non-finite theta is bad input, not a transform that fails to converge
    ("nan", EXIT_PARSE, "--theta must be finite, got nan"),
    ("inf", EXIT_PARSE, "--theta must be finite, got inf"),
    ("-inf", EXIT_PARSE, "--theta must be finite, got -inf"),
    ("0.5,nan", EXIT_PARSE, "--theta must be finite, got nan"),
    # a finite theta whose transform overflows is a numeric failure
    ("1e308", EXIT_NUMERIC, "transform matrix not finite at theta=1e+308"),
])
def test_theta_exit_codes_before_any_solve(tmp_path, toy_cfg, capsys, theta, code, message):
    done = counters.tally()
    assert _run(["spectral", "--config", toy_cfg, "--out", str(tmp_path),
                 "--theta=" + theta]) == code
    assert message in capsys.readouterr().err
    assert done()["scalar_solves"] == 0


@pytest.mark.parametrize("argv", [
    ["bounds", "--mode", "delay", "--levels", ","],
    ["bounds", "--mode", "dcc", "--levels", ","],
    ["simulate", "--levels", ","],
    ["spectral", "--theta=,"],
    # an empty flag is no request for the default list
    ["bounds", "--mode", "delay", "--levels="],
    ["simulate", "--levels="],
    ["spectral", "--theta="],
])
def test_a_list_flag_that_names_no_number_exits_2(tmp_path, toy_cfg, capsys, argv):
    # a header-only CSV would say nothing; the list is bad input
    assert _run(argv + ["--config", toy_cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "names no number" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


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
    # an unset mode flag is None; cmd_bounds gives it its default
    assert (seen[1].mode, seen[1].levels, seen[1].epsilon) == ("delay", None, None)
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
    # a dimension key that would go unread: copula beside steps, or beside dimensions
    ("copulas", {"varpi": [0.3, 0.7], "copula": {"family": "frechet1", "alpha": 0.5},
                 "steps": [{"family": "p"}]}),
    ("copulas", {"copula": {"family": "frechet1", "alpha": 0.5},
                 "dimensions": [{"varpi": [0.3, 0.7], "copula": {"family": "p"}}]}),
    ("simulation", {"seed": "abc"}),
    ("copulas", {"dimensions": [{"copula": {"family": "p"}}]}),
    ("copulas", {"varpi": ["a", "b"], "copula": {"family": "p"}}),
    ("copulas", {"varpi": [0.5, 0.5], "copula": {"family": "gauss2"}}),
    # a value of the wrong type, or a seed that is no whole number >= 0
    ("arrival", {"constant": [1]}),
    ("experiment", {"levels": [1, "x"]}),
    ("experiment", {"levels": 5}),
    ("experiment", {"alphas": 5}),
    ("experiment", {"alphas": ["x"]}),
    ("experiment", {"seed": "x"}),
    ("experiment", {"seed": 1.5}),
    ("simulation", {"seed": 1.5}),
    ("simulation", {"seed": True}),
    ("simulation", {"seed": -1}),
    # a string of state labels is no list of them
    ("service", {"kernel": {"states": "ab", "transition": [[0.5, 0.5], [0.5, 0.5]],
                            "increments": [[{"law": "constant", "value": 3.0}] * 2] * 2}}),
    ("experiment", {"channel": {"bandwidth": 20, "snr": [[10, 10], [1, 1]], "states": "ab"}}),
    # no level to estimate at, a bool or a NaN where a level goes, and a sweep
    # with fewer than two alphas to order
    ("simulation", {"levels": []}),
    ("simulation", {"levels": [True, 2]}),
    ("simulation", {"levels": [float("nan")]}),
    ("experiment", {"alphas": []}),
    ("experiment", {"alphas": [0.5]}),
    ("experiment", {"levels": []}),
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


FIRST_DIMENSION = {"varpi": [0.3, 0.7], "copula": {"family": "frechet1", "alpha": 0.5}}
# this grid copula on the marginal [0.5, 0.5] gives the transition entry -0.2
INCOMPATIBLE_DIMENSION = {"varpi": [0.5, 0.5],
                          "copula": {"family": "grid",
                                     "values": [[0, 0, 0], [0, 0.6, 0.5], [0, 0.5, 1]]}}


def _two_dimension_doc(dimensions):
    return {"arrival": {"constant": 40.0},
            "service": {"channel": {"bandwidth": 20.0, "snr": [["db:40", "db:10"]] * 2,
                                    "states": ["hi", "lo"]},
                        "copula": {"family": "frechet1", "alpha": -0.5}, "varpi": [0.3, 0.7]},
            "copulas": {"dimensions": dimensions, "slots": 200, "runs": 2},
            "simulation": {"horizon": 20, "replications": 200, "seed": 1, "levels": [1, 2]}}


def test_simulate_plans_the_first_copulas_dimension_alone(tmp_path):
    # simulate reads dimension 0 only, so an incompatible later dimension
    # changes none of its files
    files = {}
    for name, dims in (("one", [FIRST_DIMENSION]),
                       ("two", [FIRST_DIMENSION, INCOMPATIBLE_DIMENSION])):
        cfg = _write(tmp_path, f"{name}.yaml", yaml.safe_dump(_two_dimension_doc(dims)))
        out = tmp_path / name
        assert _run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        files[name] = [(out / f).read_bytes() for f in ("tails.csv", "correlation.csv")]
    assert files["one"] == files["two"]


def test_control_names_the_incompatible_entry_as_a_plain_number(tmp_path, capsys):
    doc = _two_dimension_doc([FIRST_DIMENSION, INCOMPATIBLE_DIMENSION])
    cfg = _write(tmp_path, "two.yaml", yaml.safe_dump(doc))
    assert _run(["control", "--config", cfg, "--out", str(tmp_path / "ctl")]) == 5
    err = capsys.readouterr().err
    assert "transition entry -0.19999999999999996 < -1e-9" in err and "np.float64(" not in err


def test_steps_list_of_another_length_than_horizon_fails_at_load(tmp_path, capsys):
    doc = yaml.safe_load(CONTROL_CFG)
    doc["copulas"] = dict(STEPS_COPULAS, horizon=3)
    cfg = _write(tmp_path, "steps3.yaml", yaml.safe_dump(doc))
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "need one copula per step" in capsys.readouterr().err


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


@pytest.mark.parametrize("service", [
    {"kernel": {"states": ["a", "a"], "transition": [[0.5, 0.5], [0.5, 0.5]],
                "increments": [[{"law": "constant", "value": 3.0}] * 2] * 2}},
    {"channel": {**CHANNEL, "states": ["hi", "hi"]}, "transition": [[0.5, 0.5], [0.5, 0.5]]},
], ids=["kernel", "channel"])
def test_duplicate_state_labels_exit_2(tmp_path, toy_config_text, capsys, service):
    # the spectral rows of two states named alike could not be told apart
    doc = yaml.safe_load(toy_config_text)
    doc["service"] = service
    cfg = _write(tmp_path, "dup.yaml", yaml.safe_dump(doc))
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "state labels must be distinct" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, directory, named", [
    (["spectral", "--config", "toy.yaml", "--out="], "cfgdir", "--out"),
    (["ordercheck", "--experiment", "subchannel-aggregation", "--out="], "cfgdir", "--out"),
    (["spectral", "--config", "toy.yaml"], "", "output.directory"),
    (["spectral", "--config", "toy.yaml"], None, "output.directory"),
    (["spectral", "--config", "toy.yaml"], ["a"], "output.directory"),
], ids=["spectral-empty-out", "ordercheck-empty-out", "empty-directory", "null-directory",
        "list-directory"])
def test_an_output_directory_that_names_none_exits_2(tmp_path, toy_config_text, capsys,
                                                     monkeypatch, argv, directory, named):
    # an empty --out= once fell back to the config's directory (or, for
    # ordercheck, wrote no report); "" failed at makedirs, and null and [a]
    # wrote into ./None and ./['a']
    monkeypatch.chdir(tmp_path)
    doc = yaml.safe_load(toy_config_text)
    doc["output"] = {"directory": directory}
    _write(tmp_path, "toy.yaml", yaml.safe_dump(doc))
    assert _run(argv) == EXIT_PARSE
    assert f"error: config: {named} must" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.yaml"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "toy.yaml", "--seed=-1"],
    ["ordercheck", "--experiment", "subchannel-aggregation", "--seed=-1"],
], ids=["simulate", "ordercheck"])
def test_a_negative_seed_flag_exits_2_before_any_draw(tmp_path, toy_cfg, capsys, monkeypatch,
                                                      argv):
    # numpy's "expected non-negative integer" named no flag
    monkeypatch.chdir(tmp_path)
    done = counters.tally()
    assert _run(argv) == EXIT_PARSE
    assert "error: config: --seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert done()["state_draws"] == done()["increment_draws"] == 0


@pytest.mark.parametrize("argv, source", [
    *[(command + ["--config", "plan.yaml", "--out", "afile"], "--out")
      for command in (["spectral"], ["bounds", "--mode", "delay"], ["control"], ["simulate"])],
    *[(command + ["--config", "afile.yaml"], "output.directory")
      for command in (["spectral"], ["bounds", "--mode", "delay"], ["control"], ["simulate"])],
    (["ordercheck", "--experiment", "subchannel-aggregation", "--out", "afile"], "--out"),
], ids=lambda x: x[0] if isinstance(x, list) else x)
def test_an_output_directory_that_cannot_be_made_exits_2_before_any_work(
        tmp_path, toy_config_text, capsys, monkeypatch, argv, source):
    # the directory is an ordinary file: makedirs raised FileExistsError, a
    # traceback and exit 1, after spectral and simulate had computed everything
    # and ordercheck had printed its report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    doc = yaml.safe_load(toy_config_text)
    doc["copulas"] = yaml.safe_load(CONTROL_CFG)["copulas"]
    _write(tmp_path, "plan.yaml", yaml.safe_dump(doc))
    doc["output"] = {"directory": "afile"}
    _write(tmp_path, "afile.yaml", yaml.safe_dump(doc))
    done = counters.tally()
    assert _run(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert err.startswith(f"error: config: {source} 'afile' cannot be made a directory: ")
    assert "Traceback" not in err and out == ""
    assert done() == dict.fromkeys(counters.COUNTS, 0)
    assert (tmp_path / "afile").is_file()


def test_spectral_names_the_negated_service_as_the_root_searches_do(tmp_path, toy_config_text,
                                                                   capsys):
    # the CSV role stays neg_service; a failure names the kernel "negated service"
    doc = yaml.safe_load(toy_config_text)
    doc["service"] = {"kernel": {"states": ["only"], "transition": [[1.0]],
                                 "increments": [[_pmf([-1000.0, 3.0], [0.5, 0.5])]]}}
    cfg = _write(tmp_path, "far.yaml", yaml.safe_dump(doc))
    assert _run(["spectral", "--config", cfg, "--out", str(tmp_path), "--theta", "1"]) == 3
    assert capsys.readouterr().err == ("error: numeric: the negated service kernel fails: "
                                       "transform matrix not finite at theta=-1.0\n")
