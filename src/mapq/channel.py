"""Rayleigh-fading channel service kernels and controlled capacity processes.

The fading gain is unit-mean exponential power per slot, drawn i.i.d.;
all temporal dependence in capacity is induced through the power/SNR
state chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import DimensionPlan
from .laws import RayleighCapacity, _rayleigh_capacity
from .sim import _path_states
from .spectral import MapKernel


@dataclass(frozen=True)
class ChannelSpec:
    bandwidth: float
    snr_matrix: np.ndarray  # linear SNR per (source state, destination state)
    power_states: tuple

    def __post_init__(self):
        snr = np.asarray(self.snr_matrix, dtype=float)
        n = len(self.power_states)
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if snr.shape != (n, n):
            raise ValueError(f"snr matrix must be {n}x{n}, got {snr.shape}")
        if not np.all((0 < snr) & (snr < np.inf)):
            raise ValueError("all SNR entries must be positive and finite")
        object.__setattr__(self, "snr_matrix", snr)
        object.__setattr__(self, "power_states", tuple(self.power_states))
        snr.setflags(write=False)


def capacity_kernel(transition, channel: ChannelSpec) -> MapKernel:
    """Markov additive service kernel: increment (i, j) is the Rayleigh
    capacity at the (i, j) entry of the SNR matrix."""
    transition = np.asarray(transition, dtype=float)
    n = len(channel.power_states)
    increments = tuple(tuple(RayleighCapacity(channel.bandwidth, float(snr)) for snr in row)
                       for row in channel.snr_matrix)
    # start the chain at its stationary distribution unless told otherwise
    probe = MapKernel(channel.power_states, transition, increments, np.full(n, 1.0 / n))
    return probe.started_at(probe.stationary)


def controlled_capacity_process(dim: DimensionPlan, channel: ChannelSpec, horizon: int,
                                seed) -> tuple:
    """(state series, capacity series) of the power chain driven by one
    dimension's plan.

    States include the initial state, so the state series has length
    horizon + 1; the SNR of slot t is taken at the realized
    (state_{t-1}, state_t) pair.  Plans shorter than the horizon repeat their
    last matrix.  The horizon is a whole number >= 0.
    """
    n = len(channel.power_states)
    if dim.transitions[0].shape != (n, n):
        raise ValueError("plan dimension does not match power state count")
    rng = np.random.default_rng(seed)
    states = _path_states(dim.transitions, dim.initial, horizon, rng)
    gains = rng.standard_exponential(len(states) - 1)
    return states, _rayleigh_capacity(gains, channel.snr_matrix[states[:-1], states[1:]],
                                      channel.bandwidth)

