"""Config document parsing and round-trip stability."""

import math

import numpy as np
import pytest
import yaml

from conftest import at, count_calls, quadratures
from mapq import counters
from mapq import laws as laws_module
from mapq.config import (
    build_config,
    load_config,
    load_document,
    parse_channel,
    parse_copula,
    parse_kernel,
    parse_law,
)
from mapq.copulas import Frechet, Gaussian2, GridCopula, Product
from mapq.errors import ConfigError
from mapq.laws import Constant, DiscretePmf, Negated, RayleighCapacity, Shifted
from mapq.spectral import transform_matrix


def test_parse_law_variants():
    assert parse_law({"law": "constant", "value": 2}) == Constant(2.0)
    pmf = parse_law({"law": "pmf", "support": [0, 1], "probs": [0.5, 0.5]})
    assert isinstance(pmf, DiscretePmf)
    ray = parse_law({"law": "rayleigh", "bandwidth": 20, "snr": "db:10"})
    assert isinstance(ray, RayleighCapacity) and ray.snr == pytest.approx(10.0)
    neg = parse_law({"law": "negated", "inner": {"law": "constant", "value": 1}})
    assert isinstance(neg, Negated)
    sh = parse_law({"law": "shifted", "inner": {"law": "constant", "value": 1}, "offset": 2})
    assert isinstance(sh, Shifted)
    normal = parse_law({"law": "normal", "mean": 0.0, "std": 1.0, "points": 32})
    assert at(normal.mgf, 0.5) == pytest.approx(math.exp(0.125), rel=1e-10)


def test_parse_law_errors():
    with pytest.raises(ConfigError):
        parse_law({"law": "mystery"})
    with pytest.raises(ConfigError):
        parse_law({"value": 3})
    with pytest.raises(ConfigError):
        parse_law({"law": "pmf", "support": [0], "probs": [0.5]})
    with pytest.raises(ConfigError):
        parse_law({"law": "rayleigh", "bandwidth": 20, "snr": "10dB"})
    # a spread of 0 or below is named, not reported as a support out of order
    for std in (0.0, -0.5):
        with pytest.raises(ConfigError, match="std must be positive"):
            parse_law({"law": "normal", "mean": 1.0, "std": std})


_ONE = {"law": "constant", "value": 1}


@pytest.mark.parametrize("doc, match", [
    ({"law": "constant", "value": True}, "value must be a number, got the YAML boolean True"),
    ({"law": "pmf", "support": [0, True], "probs": [0.5, 0.5]}, "support must be a number"),
    ({"law": "pmf", "support": [0, 1], "probs": [False, 1]}, "probs must be a number"),
    ({"law": "rayleigh", "bandwidth": True, "snr": 10}, "bandwidth must be a number"),
    ({"law": "shifted", "inner": _ONE, "offset": True}, "offset must be a number"),
    ({"law": "normal", "mean": False, "std": 1.0}, "mean must be a number"),
    ({"law": "normal", "mean": 0.0, "std": True}, "std must be a number"),
    ({"law": "normal", "mean": 0.0, "std": 1.0, "points": 2.7},
     r"^normal\.points must be a positive integer, got 2\.7$"),
    ({"law": "normal", "mean": 0.0, "std": 1.0, "points": True}, "got True$"),
    ({"law": "normal", "mean": 0.0, "std": 1.0, "points": "5"}, "got '5'$"),
    ({"law": "normal", "mean": 0.0, "std": 1.0, "points": 0}, "got 0$"),
], ids=["constant-bool", "support-bool", "probs-bool", "bandwidth-bool", "offset-bool",
        "mean-bool", "std-bool", "points-float", "points-bool", "points-string", "points-0"])
def test_a_law_descriptor_checks_its_numbers_instead_of_converting_them(doc, match):
    with pytest.raises(ConfigError, match=match):
        parse_law(doc)


def test_a_law_descriptor_reads_numeric_strings_and_snr_forms():
    # YAML 1.1 reads 1e4 as a string
    assert parse_law({"law": "constant", "value": "1e4"}) == Constant(1e4)
    assert parse_law({"law": "rayleigh", "bandwidth": "20", "snr": "1e4"}) == RayleighCapacity(
        20.0, 1e4)
    assert parse_law({"law": "rayleigh", "bandwidth": 20, "snr": "db:40"}).snr == 1e4
    normal = parse_law({"law": "normal", "mean": "1", "std": 0.5, "points": 7})
    assert len(normal.support) == 7


def test_parse_copula_variants():
    assert isinstance(parse_copula({"family": "p"}), Product)
    f = parse_copula({"family": "frechet", "weights": [0.1, 0.6, 0.3]})
    assert isinstance(f, Frechet)
    g = parse_copula({"family": "gauss2", "rho": 0.4})
    assert isinstance(g, Gaussian2)
    grid = parse_copula({"family": "grid", "values": np.minimum.outer(
        np.linspace(0, 1, 3), np.linspace(0, 1, 3)).tolist()})
    assert isinstance(grid, GridCopula)
    with pytest.raises(ConfigError):
        parse_copula({"family": "unknown"})


def test_parse_kernel_and_exclusivity():
    doc = {
        "arrival": {"constant": 1.0},
        "service": {
            "kernel": {
                "states": ["a", "b"],
                "transition": [[0.5, 0.5], [0.5, 0.5]],
                "increments": [
                    [{"law": "constant", "value": 1}, {"law": "constant", "value": 2}],
                    [{"law": "constant", "value": 1}, {"law": "constant", "value": 2}],
                ],
            }
        },
    }
    cfg = build_config(doc)
    assert cfg.arrival.state_labels == ("const",) and cfg.arrival.law(0, 0) == Constant(1.0)
    assert cfg.service.n_states == 2
    with pytest.raises(ConfigError):
        build_config({"arrival": {}, "service": doc["service"]})
    with pytest.raises(ConfigError):
        build_config({"arrival": {"constant": 1, "kernel": {}}, "service": doc["service"]})
    with pytest.raises(ConfigError):
        build_config({"arrival": {"constant": 1}, "service": {}})


def test_channel_service_with_copula():
    doc = {
        "arrival": {"constant": 10.0},
        "service": {
            "channel": {
                "bandwidth": 20.0,
                "snr": [["db:40", "db:10"], ["db:40", "db:10"]],
                "states": ["hi", "lo"],
            },
            "copula": {"family": "frechet1", "alpha": -0.5},
            "varpi": [0.3, 0.7],
        },
    }
    cfg = build_config(doc)
    assert cfg.service_channel is not None
    assert cfg.service_channel.snr_matrix[0, 0] == pytest.approx(1e4)
    assert np.allclose(cfg.service.transition, [[0.2875, 0.7125], [0.3054, 0.6946]], atol=5e-5)
    assert np.allclose(cfg.service.initial_dist, [0.3, 0.7])


def test_load_config_reads_the_simulation_and_output_sections(tmp_path, toy_config_text):
    path = tmp_path / "cfg.yaml"
    path.write_text(toy_config_text, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.horizon == 120 and cfg.replications == 3000
    assert cfg.output_dir == "out"


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


CHANNEL_CONFIG_TEXT = """\
arrival: {kernel: {states: [on, off], transition: [[0.9, 0.1], [0.2, 0.8]],
  increments: [[{law: constant, value: 2}, {law: pmf, support: [0, 1], probs: [0.5, 0.5]}],
               [{law: shifted, inner: {law: constant, value: 1}, offset: -0.5},
                {law: negated, inner: {law: normal, mean: 1.0, std: 0.5, points: 32}}]]}}
service:
  channel:
    bandwidth: 20.0
    snr: [["db:40", "db:10"], ['db:40', 1.0e-3]]
    states: [hi, lo]
  copula: {family: frechet1, alpha: -0.5}
  varpi: [0.3, 0.7]
simulation: {horizon: 50, replications: 10, seed: ~, levels: [1, 2.5, .5]}
output: {directory: "out dir"}
"""


@pytest.mark.parametrize("which", ["toy", "channel"])
def test_load_config_parses_like_safe_load(tmp_path, toy_config_text, which):
    text = toy_config_text if which == "toy" else CHANNEL_CONFIG_TEXT
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    assert load_document(path) == yaml.safe_load(text)


def test_equal_kernel_cells_share_one_law():
    cell = {"law": "rayleigh", "bandwidth": 20, "snr": "db:10"}
    kernel = parse_kernel({"states": ["a", "b"], "transition": [[0.5, 0.5], [0.5, 0.5]],
                           "increments": [[cell, dict(cell)], [dict(cell), dict(cell)]]})
    # each transform call integrates each distinct law once, in one quadrature
    done = counters.tally()
    transform_matrix(kernel, 0.3)
    assert quadratures(done) == (1, 1)


def test_two_loads_compute_the_hermite_rule_once(tmp_path, monkeypatch):
    path = tmp_path / "cfg.yaml"
    path.write_text("arrival: {constant: 1.0}\nservice:\n  kernel: {states: [s], transition: [[1]],"
                    " increments: [[{law: normal, mean: 1.0, std: 0.5, points: 33}]]}\n",
                    encoding="utf-8")
    rules = count_calls(monkeypatch, np.polynomial.hermite, "hermgauss")
    laws_module._hermite_rule.cache_clear()
    first, second = (load_config(path).service.law(0, 0) for _ in range(2))
    assert len(rules) == 1
    # the law is the uncached rule's, value for value
    nodes, weights = np.polynomial.hermite.hermgauss(33)
    probs = weights / math.sqrt(math.pi)
    expected = DiscretePmf(tuple(1.0 + 0.5 * math.sqrt(2.0) * nodes), tuple(probs / probs.sum()))
    assert first.support == second.support == expected.support
    assert first.probs == second.probs == expected.probs
    assert not laws_module._hermite_rule(33)[0].flags.writeable


def test_yaml_boolean_state_labels_are_rejected():
    # YAML 1.1 reads unquoted on/off as booleans, which would print as 1/0
    channel = yaml.safe_load("{bandwidth: 20, snr: [[10, 10], [1, 1]], states: [on, off]}")
    with pytest.raises(ConfigError, match="quote"):
        parse_channel(channel)
    channel["states"] = ["on", 2]
    assert parse_channel(channel).power_states == ("on", 2)
    kernel = {"states": [True], "transition": [[1.0]],
              "increments": [[{"law": "constant", "value": 1}]]}
    with pytest.raises(ConfigError, match="quote"):
        parse_kernel(kernel)


def test_snr_strings_are_numbers_unless_db_prefixed():
    # YAML 1.1 reads 1e4 (no dot) as the string '1e4'
    channel = yaml.safe_load("{bandwidth: 20, snr: [[1e4, 1.0e+4], ['db:40', 10]], "
                             "states: [hi, lo]}")
    assert channel["snr"][0][0] == "1e4"
    assert parse_channel(channel).snr_matrix[:, 0].tolist() == [1e4, 1e4]
    ray = parse_law({"law": "rayleigh", "bandwidth": 20, "snr": "2.5"})
    assert ray.snr == 2.5
    for bad in ("fast", "nan", "inf", "db:x", "db:4000", None, float("inf")):
        with pytest.raises(ConfigError, match="bad .rayleigh. law descriptor"):
            parse_law({"law": "rayleigh", "bandwidth": 20, "snr": bad})
        channel["snr"][1][1] = bad
        with pytest.raises(ConfigError, match="bad channel config"):
            parse_channel(channel)
