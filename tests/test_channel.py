"""Fading-channel service kernels and controlled capacity paths."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_kernel, rayleigh_mean, searchsorted_walk, short_plan_channel
from mapq.channel import ChannelSpec, capacity_kernel, controlled_capacity_process
from mapq.copulas import DimensionPlan, dependence_control, one_param_frechet
from mapq.laws import RayleighCapacity
from mapq.spectral import mean_rate


def test_channel_spec_validation():
    for bandwidth in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ChannelSpec(bandwidth, np.eye(2) + 1.0, ("a", "b"))
    with pytest.raises(ValueError):
        ChannelSpec(20.0, np.ones((3, 3)), ("a", "b"))
    with pytest.raises(ValueError):
        ChannelSpec(20.0, np.array([[1.0, -1.0], [1.0, 1.0]]), ("a", "b"))


@pytest.mark.parametrize("make, match", [
    (lambda channel: controlled_capacity_process(
        dependence_control([one_param_frechet(0.5)], [0.2, 0.3, 0.5]), channel, 10, 1),
     "plan dimension does not match"),
], ids=["three-state-plan"])
def test_channel_helpers_reject_bad_inputs(delay_figure_channel, make, match):
    with pytest.raises(ValueError, match=match):
        make(delay_figure_channel)


def test_capacity_kernel_maps_snr_entries(delay_figure_channel):
    p = np.array([[0.3, 0.7], [0.4, 0.6]])
    k = capacity_kernel(p, delay_figure_channel)
    assert np.array_equal(k.transition, p)
    for i in range(2):
        for j in range(2):
            law = k.law(i, j)
            assert isinstance(law, RayleighCapacity)
            assert law.snr == pytest.approx(delay_figure_channel.snr_matrix[i, j])
    # starts at the stationary distribution of the state chain
    assert np.allclose(k.initial_dist @ p, k.initial_dist, atol=1e-9)


def test_capacity_kernel_mean_rate_mixes_states(delay_figure_channel):
    p = np.array([[0.3, 0.7], [0.3, 0.7]])
    k = capacity_kernel(p, delay_figure_channel)
    hi = rayleigh_mean(20.0, math.exp(0.5))
    lo = rayleigh_mean(20.0, 0.7 * math.exp(0.5))
    assert mean_rate(k) == pytest.approx(0.3 * hi + 0.7 * lo, rel=1e-9)


def test_controlled_capacity_process_reproducible(power_control_channel):
    dim = dependence_control([one_param_frechet(0.5)], np.array([0.3, 0.7]))
    states_a, capacity_a = controlled_capacity_process(dim, power_control_channel, 500, 42)
    states_b, capacity_b = controlled_capacity_process(dim, power_control_channel, 500, 42)
    assert np.array_equal(capacity_a, capacity_b)
    assert np.array_equal(states_a, states_b)
    assert capacity_a.shape == (500,)
    assert states_a.shape == (501,)


def test_controlled_capacity_state_occupancy(power_control_channel):
    dim = dependence_control([one_param_frechet(0.0)], np.array([0.3, 0.7]))
    states, _ = controlled_capacity_process(dim, power_control_channel, 20_000, 3)
    assert np.mean(states[1:] == 0) == pytest.approx(0.3, abs=0.02)


def test_controlled_capacity_states_follow_the_searchsorted_walk(delay_figure_channel):
    # three steps, then the last step's matrix repeats
    dim = dependence_control([one_param_frechet(a) for a in (-0.5, 0.2, 0.8)],
                             np.array([0.3, 0.7]))
    assert len(dim.transitions) == 3
    states, _ = controlled_capacity_process(dim, delay_figure_channel, 400, [5, 1])
    walk = searchsorted_walk(dim.transitions, dim.initial, 400, [5, 1])
    assert states.tolist() == walk


def test_controlled_capacity_states_follow_the_searchsorted_walk_past_a_short_plan():
    # 1609 slots: blocks of 10, the last of 9, all but the first slot on the
    # plan's second matrix
    channel, plan = short_plan_channel()
    for seed in range(4):
        states, _ = controlled_capacity_process(plan, channel, 1609, seed)
        assert states.tolist() == searchsorted_walk(plan.transitions, plan.initial, 1609, seed)


class _TopUniforms:
    """Generator stub: every uniform is the largest double below 1."""

    def choice(self, n, size=None, p=None):
        return 0

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0 ** -53)

    def standard_exponential(self, size=None):
        return np.ones(size)


def test_controlled_capacity_process_stays_in_range_on_short_rows(monkeypatch,
                                                                  power_control_channel):
    # row 0 sums to 1 - 1e-13; a uniform above that sum must land on the last state
    p = np.array([[0.5, 0.5 - 1e-13], [0.5, 0.5]])
    w0 = np.array([1.0, 0.0])
    dim = DimensionPlan((p,), w0)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _TopUniforms())
    states, capacity = controlled_capacity_process(dim, power_control_channel, 3, 0)
    assert states.tolist() == [0, 1, 1, 1]
    assert capacity.tolist() == [20.0 * math.log2(1.0 + 1e4)] + [20.0 * math.log2(11.0)] * 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controlled_capacity_process_holds_no_cdf_per_slot(n):
    # within sample_path's bound of 8n + 16 bytes a slot over 200,000 slots: a
    # CDF stack of n * n float64 per slot took 72 (2 states) and 168 (4)
    if n == 3:
        channel, plan = short_plan_channel()  # two plan steps, the last repeated
    else:
        kernel = random_kernel(np.random.default_rng(n), n)
        channel = ChannelSpec(2.0, np.outer(1.0 + np.arange(n), np.ones(n)), tuple(range(n)))
        plan = DimensionPlan((kernel.transition,), kernel.initial_dist)
    horizon = 200_000
    tracemalloc.start()
    try:
        controlled_capacity_process(plan, channel, horizon, 3)
        peak = tracemalloc.get_traced_memory()[1] / horizon
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 16, peak
