"""Experiment configuration: YAML schema and constructors for kernels,
channels, copulas, and simulation settings."""

from __future__ import annotations

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
            return Constant(float(doc["value"]))
        if tag == "pmf":
            return DiscretePmf(tuple(map(float, doc["support"])), tuple(map(float, doc["probs"])))
        if tag == "rayleigh":
            return RayleighCapacity(float(doc["bandwidth"]), _parse_snr(doc["snr"]))
        if tag == "negated":
            return Negated(parse_law(doc["inner"]))
        if tag == "shifted":
            return Shifted(parse_law(doc["inner"]), float(doc["offset"]))
        if tag == "normal":
            return gaussian_quantized(float(doc["mean"]), float(doc["std"]),
                                      int(doc.get("points", 96)))
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad {tag!r} law descriptor: {exc}") from exc
    raise ConfigError(f"unknown increment law {tag!r}")


def _parse_snr(value) -> float:
    if isinstance(value, str):
        if not value.startswith("db:"):
            raise ConfigError(f"string SNR must be 'db:' prefixed, got {value!r}")
        return 10.0 ** (float(value[3:]) / 10.0)
    return float(value)


def parse_kernel(doc) -> MapKernel:
    try:
        states = list(doc["states"])
        transition = np.asarray(doc["transition"], dtype=float)
        # value-equal cells share one law object, and with it one transform memo
        laws = {}
        increments = tuple(tuple(laws.setdefault(law, law) for law in map(parse_law, row))
                           for row in doc["increments"])
        initial = np.asarray(doc.get("initial_dist", np.full(len(states), 1.0 / len(states))),
                             dtype=float)
        return MapKernel(tuple(states), transition, increments, initial)
    except ConfigError:
        raise
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
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad copula descriptor: {exc}") from exc
    raise ConfigError(f"unknown copula family {doc.get('family')!r}")


def parse_channel(doc) -> ChannelSpec:
    try:
        states = tuple(doc["states"])
        snr = np.array([[_parse_snr(x) for x in row] for row in doc["snr"]], dtype=float)
        return ChannelSpec(float(doc["bandwidth"]), snr, states)
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad channel config: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    arrival: MapKernel  # a constant rate is the one-state kernel "const"
    service: MapKernel
    service_channel: ChannelSpec | None
    copulas: list | None  # copula section, kept raw for the control command
    horizon: int | None
    replications: int | None
    seed: int | None
    output_dir: str


# libyaml's scanner, where built, with the same safe constructor and resolver
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_SAFE_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return build_config(doc)


def build_config(doc: dict) -> ExperimentConfig:
    arrival_doc = doc.get("arrival")
    if not isinstance(arrival_doc, dict) or len(
        {"constant", "kernel"} & set(arrival_doc)
    ) != 1:
        raise ConfigError("arrival must specify exactly one of: constant, kernel")
    if "constant" in arrival_doc:
        arrival = single_state_kernel(Constant(float(arrival_doc["constant"])), label="const")
    else:
        arrival = parse_kernel(arrival_doc["kernel"])

    service_doc = doc.get("service")
    if not isinstance(service_doc, dict) or len(
        {"kernel", "channel"} & set(service_doc)
    ) != 1:
        raise ConfigError("service must specify exactly one of: kernel, channel")
    channel = None
    if "kernel" in service_doc:
        service = parse_kernel(service_doc["kernel"])
    else:
        channel = parse_channel(service_doc["channel"])
        if "transition" in service_doc:
            transition = np.asarray(service_doc["transition"], dtype=float)
        elif "copula" in service_doc:
            varpi = np.asarray(service_doc["varpi"], dtype=float)
            transition, _ = cp.transition_from_copula(
                parse_copula(service_doc["copula"]), varpi
            )
        else:
            raise ConfigError("channel service needs a transition matrix or a copula")
        service = capacity_kernel(transition, channel)
        if "varpi" in service_doc:
            varpi = np.asarray(service_doc["varpi"], dtype=float)
            service = MapKernel(service.state_labels, service.transition,
                                service.increments, varpi)

    copulas_doc = doc.get("copulas")

    sim_doc = doc.get("simulation", {}) or {}
    out_doc = doc.get("output", {}) or {}
    seed = sim_doc.get("seed")
    return ExperimentConfig(
        raw=doc,
        arrival=arrival,
        service=service,
        service_channel=channel,
        copulas=copulas_doc,
        horizon=int(sim_doc["horizon"]) if "horizon" in sim_doc else None,
        replications=int(sim_doc["replications"]) if "replications" in sim_doc else None,
        seed=int(seed) if seed is not None else None,
        output_dir=str(out_doc.get("directory", ".")),
    )


def roundtrip(doc: dict) -> dict:
    """Serialize and re-parse; equality is the config stability contract."""
    return yaml.safe_load(yaml.safe_dump(doc, sort_keys=True))
