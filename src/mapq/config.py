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


def _finite(value) -> float | None:
    """_real(value) where that is a finite number, else None: a YAML boolean,
    a non-numeric string, NaN and the infinities are no finite number."""
    try:
        x = _real(value, "")
    except (ValueError, TypeError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def _array(value, key: str) -> np.ndarray:
    """np.asarray(value, dtype=float) for a number or nested lists of them; a
    YAML boolean anywhere in value raises ValueError naming key, by _real's rule."""
    items = [value]
    for item in items:  # grows by the elements of each list it meets
        if isinstance(item, list):
            items.extend(item)
        elif isinstance(item, bool):
            _real(item, key)
    return np.asarray(value, dtype=float)


def _parse_snr(value) -> float:
    """Linear SNR from a number or a numeric string (YAML 1.1 reads 1e4 as
    one), or from a 'db:<decibels>' string."""
    if isinstance(value, str) and value.startswith("db:"):
        return 10.0 ** (float(value[3:]) / 10.0)
    return _real(value, "snr")


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
        transition = _array(doc["transition"], "transition")
        increments = tuple(tuple(map(parse_law, row)) for row in doc["increments"])
        initial = _array(doc.get("initial_dist", np.full(len(states), 1.0 / len(states))),
                         "initial_dist")
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
            w = [_real(x, "weights") for x in doc["weights"]]
            return cp.Frechet(*w)
        if family == "frechet1":
            return cp.one_param_frechet(_real(doc["alpha"], "alpha"))
        if family == "gauss2":
            return cp.Gaussian2(_real(doc["rho"], "rho"))
        if family == "grid":
            return cp.GridCopula(_array(doc["values"], "values"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad copula descriptor: {exc}") from exc
    raise ConfigError(f"unknown copula family {doc.get('family')!r}")


def parse_channel(doc) -> ChannelSpec:
    try:
        states = _state_labels(doc["states"])
        snr = np.array([[_parse_snr(x) for x in row] for row in doc["snr"]], dtype=float)
        return ChannelSpec(_real(doc["bandwidth"], "bandwidth"), snr, states)
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


def _check_seed(value, name: str) -> None:
    """Raise ConfigError naming name ("simulation.seed", "--seed", ...) unless
    value is an int (not a bool) >= 0."""
    if type(value) is not int or value < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")


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
            varpi.append(_array(dim["varpi"], "varpi"))
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
        rate = _finite(arrival_doc["constant"])
        if rate is None:
            raise ConfigError(f"arrival.constant must be a finite number, "
                              f"got {arrival_doc['constant']!r}")
        arrival = single_state_kernel(Constant(rate), label="const")
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
        try:
            varpi = None if varpi is None else _array(varpi, "varpi")
            if "transition" in service_doc:
                transition = _array(service_doc["transition"], "transition")
            elif "copula" in service_doc and varpi is not None:
                transition, _ = cp.transition_from_copula(parse_copula(service_doc["copula"]),
                                                          varpi)
            else:
                raise ConfigError("channel service needs a transition matrix, or a copula and "
                                  "varpi")
            service = capacity_kernel(transition, channel, varpi)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad channel service: {exc}") from exc

    # the experiment's channel and service parsed; the config's service by default
    experiment = dict(_section(doc, "experiment"))
    # the ordering experiments' whole-number parameters; an absent one keeps its default
    for key in ("replications", "horizon", "samples", "subchannels", "flows", "dimensions",
                "max_batches"):
        _count(experiment, key, 1, "experiment")
    if "rate" in experiment:
        rate = _finite(experiment["rate"])
        if not (rate is not None and rate > 0):
            raise ConfigError(f"experiment.rate must be a positive finite number, "
                              f"got {experiment['rate']!r}")
        experiment["rate"] = rate
    # a number is kept as written, since the sweep prints each alpha so, and a
    # numeric string becomes its float; the sweep orders two alphas at least,
    # by the tails at one level at least
    for key, least in (("levels", 1), ("alphas", 2)):
        if key not in experiment:
            continue
        values = experiment[key]
        if not (isinstance(values, list) and len(values) >= least
                and None not in map(_finite, values)):
            raise ConfigError(f"experiment.{key} must be a list of {least} or more finite "
                              f"numbers, got {values!r}")
        experiment[key] = [_finite(x) if isinstance(x, str) else x for x in values]
    if "seed" in experiment:
        _check_seed(experiment["seed"], "experiment.seed")
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
        _check_seed(seed, "simulation.seed")
    levels = sim_doc.get("levels", [1, 2, 3, 4])
    values = tuple(map(_finite, levels)) if isinstance(levels, list) else ()
    if not values or None in values:
        raise ConfigError(f"simulation.levels must be a non-empty list of finite numbers, "
                          f"got {levels!r}")
    directory = _section(doc, "output").get("directory", ".")
    if not (isinstance(directory, str) and directory):
        raise ConfigError(f"output.directory must be a non-empty string, got {directory!r}")
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
        levels=values,
        output_dir=directory,
    )
