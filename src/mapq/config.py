"""Experiment configuration: YAML schema and constructors for kernels,
channels, copulas, and simulation settings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from . import copulas as cp
from .channel import ChannelSpec, capacity_kernel
from .errors import ConfigError
from .laws import Constant, DiscretePmf, Negated, RayleighCapacity, Shifted, gaussian_quantized
from .spectral import MapKernel, single_state_kernel


def parse_law(doc) -> object:
    try:
        tag = doc["law"]
    except (TypeError, KeyError):
        raise ConfigError(f"increment law needs a 'law' tag: {doc!r}")
    try:
        if tag == "constant":
            return Constant(_real(doc["value"], "value"))
        if tag == "pmf":
            return DiscretePmf(tuple(_real(x, "support") for x in doc["support"]),
                               tuple(_real(x, "probs") for x in doc["probs"]))
        if tag == "rayleigh":
            return RayleighCapacity(_real(doc["bandwidth"], "bandwidth"), _parse_snr(doc["snr"]))
        if tag == "negated":
            return Negated(parse_law(doc["inner"]))
        if tag == "shifted":
            return Shifted(parse_law(doc["inner"]), _real(doc["offset"], "offset"))
        if tag == "normal":
            return gaussian_quantized(_real(doc["mean"], "mean"), _real(doc["std"], "std"),
                                      _count(doc, "points", 96, "normal"))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {tag!r} law descriptor: {exc}") from exc
    raise ConfigError(f"unknown increment law {tag!r}")


def _real(value, key: str) -> float:
    """float(value) for a number or a numeric string (YAML 1.1 reads 1e4 as
    one); a YAML boolean is no number, and raises ValueError naming key."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got the YAML boolean {value!r}")
    return float(value)


def _parse_snr(value) -> float:
    """Linear SNR from a number or a numeric string (YAML 1.1 reads 1e4 as
    one), or from a 'db:<decibels>' string."""
    if isinstance(value, str) and value.startswith("db:"):
        return 10.0 ** (float(value[3:]) / 10.0)
    return float(value)


def _state_labels(labels) -> tuple:
    if not isinstance(labels, list):
        raise ConfigError(f"state labels must be a list, got {labels!r}")
    labels = tuple(labels)
    if any(isinstance(x, bool) for x in labels):
        raise ConfigError(f"state labels {list(labels)} hold a YAML boolean (unquoted "
                          "on/off/yes/no/true/false); quote the label, e.g. 'on'")
    return labels


def parse_kernel(doc) -> MapKernel:
    try:
        states = _state_labels(doc["states"])
        transition = np.asarray(doc["transition"], dtype=float)
        increments = tuple(tuple(map(parse_law, row)) for row in doc["increments"])
        initial = np.asarray(doc.get("initial_dist", np.full(len(states), 1.0 / len(states))),
                             dtype=float)
        return MapKernel(states, transition, increments, initial)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad kernel config: {exc}") from exc


def parse_copula(doc) -> cp.CopulaSpec:
    try:
        family = doc["family"]
        if family == "m":
            return cp.Comonotone()
        if family == "w":
            return cp.Countermonotone()
        if family == "p":
            return cp.Product()
        if family == "frechet":
            w = [float(x) for x in doc["weights"]]
            return cp.Frechet(*w)
        if family == "frechet1":
            return cp.one_param_frechet(float(doc["alpha"]))
        if family == "gauss2":
            return cp.Gaussian2(float(doc["rho"]))
        if family == "grid":
            return cp.GridCopula(np.asarray(doc["values"], dtype=float))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad copula descriptor: {exc}") from exc
    raise ConfigError(f"unknown copula family {doc.get('family')!r}")


def parse_channel(doc) -> ChannelSpec:
    try:
        states = _state_labels(doc["states"])
        snr = np.array([[_parse_snr(x) for x in row] for row in doc["snr"]], dtype=float)
        return ChannelSpec(float(doc["bandwidth"]), snr, states)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad channel config: {exc}") from exc


@dataclass(frozen=True)
class PlanSpec:
    """The `copulas` section: `dependence_control` inputs plus the capacity paths."""

    temporal: tuple  # per dimension: a tuple of one CopulaSpec per plan step
    varpi: tuple  # per dimension: the initial state distribution
    slots: int
    runs: int


@dataclass(frozen=True)
class ExperimentConfig:
    arrival: MapKernel  # a constant rate is the one-state kernel "const"
    service: MapKernel
    service_channel: ChannelSpec | None
    copulas: PlanSpec | None
    experiment: dict  # ordering-experiment parameters, channel and service parsed
    seed: int | None
    horizon: int
    replications: int
    metric: str
    levels: tuple
    output_dir: str


# libyaml's scanner, where built, with the same safe constructor and resolver
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_document(path) -> dict:
    """The YAML mapping at `path`, parsed like `yaml.safe_load`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_SAFE_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


def load_config(path) -> ExperimentConfig:
    return build_config(load_document(path))


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a mapping")
    return section


def _count(section: dict, key: str, default: int, where: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where}.{key} must be a positive integer, got {value!r}")
    return value


def _number(value) -> bool:
    """Whether value is a number as YAML reads one (an int or a float, not a
    bool) that a double holds finitely."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int past the largest double
        return False


def _check_seed(value, where: str) -> None:
    if type(value) is not int or value < 0:
        raise ConfigError(f"{where}.seed must be an integer >= 0, got {value!r}")


def _parse_plan(doc: dict) -> PlanSpec:
    """One controlled dimension, or a `dimensions` list of them, each with a
    `varpi` and either a `copula` or a per-step `steps` list, as `horizon`
    copulas per dimension (a single copula is repeated).  The plan horizon is
    `horizon` if given, else the length of a `steps` list, else 1; a `steps`
    list of another length, or a dimension key beside `dimensions`, raises
    ConfigError."""
    dimensions = doc.get("dimensions")
    if dimensions and not {"varpi", "copula", "steps"}.isdisjoint(doc):
        raise ConfigError("a copulas section with dimensions takes varpi, copula and steps "
                          "in each dimension only")
    temporal, varpi = [], []
    try:
        for dim in dimensions or [doc]:
            if "varpi" not in dim:
                raise ConfigError("each controlled dimension needs a varpi distribution")
            varpi.append(np.asarray(dim["varpi"], dtype=float))
            if "steps" in dim and "copula" in dim:
                raise ConfigError("a controlled dimension takes a copula or a steps list, "
                                  "not both")
            if "steps" in dim:
                temporal.append([parse_copula(d) for d in dim["steps"]])
            elif "copula" in dim:
                temporal.append(parse_copula(dim["copula"]))
            else:
                raise ConfigError("each controlled dimension needs a copula or a steps list")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad copulas section: {exc}") from exc
    steps = next((len(t) for t in temporal if isinstance(t, list)), 1)
    horizon = _count(doc, "horizon", steps, "copulas")
    temporal = tuple(tuple(t) if isinstance(t, list) else (t,) * horizon for t in temporal)
    if any(len(t) != horizon for t in temporal):
        raise ConfigError("need one copula per step (or a single homogeneous one)")
    return PlanSpec(temporal, tuple(varpi), _count(doc, "slots", 1000, "copulas"),
                    _count(doc, "runs", 1, "copulas"))


def build_config(doc: dict) -> ExperimentConfig:
    arrival_doc = doc.get("arrival")
    if not isinstance(arrival_doc, dict) or len({"constant", "kernel"} & set(arrival_doc)) != 1:
        raise ConfigError("arrival must specify exactly one of: constant, kernel")
    if "constant" in arrival_doc:
        rate = arrival_doc["constant"]
        if not _number(rate):
            raise ConfigError(f"arrival.constant must be a finite number, got {rate!r}")
        arrival = single_state_kernel(Constant(float(rate)), label="const")
    else:
        arrival = parse_kernel(arrival_doc["kernel"])

    service_doc = doc.get("service")
    if not isinstance(service_doc, dict) or len({"kernel", "channel"} & set(service_doc)) != 1:
        raise ConfigError("service must specify exactly one of: kernel, channel")
    channel = None
    if "kernel" in service_doc:
        service = parse_kernel(service_doc["kernel"])
    else:
        channel = parse_channel(service_doc["channel"])
        varpi = service_doc.get("varpi")
        if "transition" in service_doc:
            transition = np.asarray(service_doc["transition"], dtype=float)
        elif "copula" in service_doc and varpi is not None:
            transition, _ = cp.transition_from_copula(parse_copula(service_doc["copula"]), varpi)
        else:
            raise ConfigError("channel service needs a transition matrix, or a copula and varpi")
        service = capacity_kernel(transition, channel)
        if varpi is not None:
            service = service.started_at(varpi)

    # the experiment's channel and service parsed; the config's service by default
    experiment = dict(_section(doc, "experiment"))
    # the ordering experiments' whole-number parameters; an absent one keeps its default
    for key in ("replications", "horizon", "samples", "subchannels", "flows", "dimensions",
                "max_batches"):
        _count(experiment, key, 1, "experiment")
    rate = experiment.get("rate", 1.0)
    if not (_number(rate) and rate > 0):
        raise ConfigError(f"experiment.rate must be a positive finite number, got {rate!r}")
    # checked, not converted: the sweep prints each alpha as written; it
    # orders two alphas at least, by the tails at one level at least
    for key, least in (("levels", 1), ("alphas", 2)):
        values = experiment.get(key)
        if key in experiment and not (isinstance(values, list) and len(values) >= least
                                      and all(map(_number, values))):
            raise ConfigError(f"experiment.{key} must be a list of {least} or more finite "
                              f"numbers, got {values!r}")
    if "seed" in experiment:
        _check_seed(experiment["seed"], "experiment")
    if "channel" in experiment:
        experiment["channel"] = parse_channel(experiment["channel"])
    experiment["service"] = (parse_kernel(experiment["service"]) if "service" in experiment
                             else service)
    copulas = _section(doc, "copulas")
    sim_doc = _section(doc, "simulation")
    metric = sim_doc.get("metric", "delay")
    if metric not in ("delay", "backlog"):
        raise ConfigError(f"simulation.metric must be delay or backlog, got {metric!r}")
    seed = sim_doc.get("seed")
    if seed is not None:
        _check_seed(seed, "simulation")
    levels = sim_doc.get("levels", [1, 2, 3, 4])
    if not (isinstance(levels, list) and levels and all(map(_number, levels))):
        raise ConfigError(f"simulation.levels must be a non-empty list of finite numbers, "
                          f"got {levels!r}")
    levels = tuple(map(float, levels))
    return ExperimentConfig(
        arrival=arrival,
        service=service,
        service_channel=channel,
        copulas=_parse_plan(copulas) if copulas else None,
        experiment=experiment,
        seed=seed,
        horizon=_count(sim_doc, "horizon", 1000, "simulation"),
        replications=_count(sim_doc, "replications", 10_000, "simulation"),
        metric=metric,
        levels=levels,
        output_dir=str(_section(doc, "output").get("directory", ".")),
    )
