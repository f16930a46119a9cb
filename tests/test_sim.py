"""Queue simulation, tail estimation, and stochastic-order checks."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    frechet_capacity_kernel,
    lattice_backlog,
    lindley_loop,
    random_kernel,
    reversible_lattice_arrival,
    searchsorted_walk,
    short_plan_channel,
)
from mapq import sim as sim_module
from mapq.channel import ChannelSpec, capacity_kernel, controlled_capacity_process
from mapq.copulas import DimensionPlan
from mapq.errors import DimensionMismatch, UnknownExperiment
from mapq.laws import Constant, DiscretePmf, _pinned_cdf
from mapq.sim import (
    convex_order_leq,
    means_differ,
    decay_slope,
    martingale_check,
    ordering_experiment,
    sample_path,
    stop_loss,
    supermodular_battery,
    tail_estimate,
)
from mapq.spectral import MapKernel, single_state_kernel


# ---------------------------------------------------------------------------
# queue recursion


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_lindley_matches_sup_representation(seed):
    rng = np.random.default_rng(seed)
    t_max = int(rng.integers(2, 40))
    a = rng.exponential(1.0, t_max)
    c = rng.exponential(1.2, t_max)
    backlog, _ = lindley_loop(a, c)
    net = a - c
    for t in range(t_max + 1):
        # B(t) = max over window starts of the net increment sum
        brute = max(
            [0.0] + [net[s:t].sum() for s in range(t)]
        )
        assert backlog[t] == pytest.approx(brute, abs=1e-9)


def test_lindley_virtual_delay_definition():
    # arrivals 2/slot, service 1/slot: backlog grows 1/slot, so the work
    # arriving at slot t waits about t/2 extra slots
    a = np.full(10, 2.0)
    c = np.full(10, 1.0)
    backlog, delay = lindley_loop(a, c)
    for t in range(11):
        d = int(delay[t])
        cum_a = np.concatenate(([0.0], np.cumsum(a)))
        served = cum_a[t] - backlog[t]
        assert cum_a[t - d] <= served + 1e-9
        if d > 0:
            assert cum_a[t - d + 1] > served + 1e-9


# ---------------------------------------------------------------------------
# sample paths and tail estimation


def test_sample_path_statistics():
    rng = np.random.default_rng(9)
    k = random_kernel(rng, 2, mean_offset=1.0)
    states, inc = sample_path(k, 5000, 11)
    assert states.shape == (5001,)
    assert inc.shape == (5000,)
    # occupation frequencies close to the stationary law
    pi = k.stationary
    assert np.mean(states == 0) == pytest.approx(pi[0], abs=0.05)


def test_sample_path_deterministic():
    rng = np.random.default_rng(10)
    k = random_kernel(rng, 3)
    s1, i1 = sample_path(k, 200, 5)
    s2, i2 = sample_path(k, 200, 5)
    assert np.array_equal(s1, s2) and np.array_equal(i1, i2)


class _TopUniforms:
    """Generator stub: every uniform is the largest double below 1."""

    def choice(self, n, size=None, p=None):
        return 0 if size is None else np.zeros(size, dtype=np.int64)

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0 ** -53)


def _walk(kernel, replications, horizon, rng, step):
    """States (R, T + 1) and increments (R, T) of `sim._blocks`, blocks joined."""
    blocks = list(sim_module._blocks(kernel, replications, horizon, rng, step))
    assert all(b[1].shape[1] <= step for b in blocks)
    states = np.hstack([blocks[0][0][:, :1]] + [b[0][:, 1:] for b in blocks])
    return states, np.hstack([b[1] for b in blocks])


def test_state_samplers_stay_in_range_on_short_rows(monkeypatch):
    # row 0 sums to 1 - 1e-13, inside the kernel's 1e-12 tolerance; a
    # uniform above that sum must still land on the last state
    p = np.array([[0.5, 0.5 - 1e-13], [0.5, 0.5]])
    laws = ((Constant(1.0), Constant(2.0)), (Constant(3.0), Constant(4.0)))
    kernel = MapKernel(("a", "b"), p, laws, np.array([0.5, 0.5]))
    monkeypatch.setattr(sim_module, "_stream", lambda seed, replication=None: _TopUniforms())
    states, increments = sample_path(kernel, 3, 0)
    assert states.tolist() == [0, 1, 1, 1]
    assert increments.tolist() == [2.0, 4.0, 4.0]
    batched, increments = _walk(kernel, 4, 3, _TopUniforms(), 2)
    assert batched[:, 0].tolist() == [0, 0, 0, 0]
    assert np.all(batched[:, 1:] == 1)
    assert np.all(increments == [2.0, 4.0, 4.0])


def test_state_samplers_never_take_a_zero_probability_transition(monkeypatch):
    # row 0 sums to 1 - 1e-13 and gives state c probability 0: a uniform
    # above that sum lands on b, the row's last positive state
    p = np.array([[0.5, 0.5 - 1e-13, 0.0], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
    laws = tuple(tuple(Constant(3.0 * i + j) for j in range(3)) for i in range(3))
    kernel = MapKernel(("a", "b", "c"), p, laws, np.array([1.0, 0.0, 0.0]))
    monkeypatch.setattr(sim_module, "_stream", lambda seed: _TopUniforms())
    states, increments = sample_path(kernel, 2, 0)
    assert states.tolist() == [0, 1, 2] and increments.tolist() == [1.0, 5.0]
    states, increments = _walk(kernel, 2, 2, _TopUniforms(), 1)
    assert states.tolist() == [[0, 1, 2]] * 2 and increments.tolist() == [[1.0, 5.0]] * 2


class _NoDraws:
    """Generator stub for chains that must draw no state."""

    def choice(self, *args, **kwargs):
        raise AssertionError("drew an initial state")

    def random(self, *args, **kwargs):
        raise AssertionError("drew a uniform")


def test_one_state_chains_draw_no_state(monkeypatch):
    # a constant arrival is a one-state kernel, and like the float rate it
    # replaced it consumes nothing from the stream
    arrival = single_state_kernel(Constant(1.0))
    states, increments = _walk(arrival, 3, 4, _NoDraws(), 3)
    assert states.shape == (3, 5) and not states.any()
    assert np.all(increments == 1.0)
    monkeypatch.setattr(sim_module, "_stream", lambda seed: _NoDraws())
    states, increments = sample_path(arrival, 4, 0)
    assert states.tolist() == [0] * 5 and increments.tolist() == [1.0] * 4
    service = single_state_kernel(Constant(3.0))
    est = tail_estimate(arrival, service, [0, 1], 10, 5, 0, "delay")
    assert [e.hits for e in est] == [0, 0]


def test_block_walk_follows_the_searchsorted_walk_across_uneven_blocks(monkeypatch):
    # one replication walks blocks of 7 slots, the last of 4; constant edge
    # laws draw nothing, so the uniforms replay those of one searchsorted walk
    monkeypatch.setattr(sim_module, "_BLOCK_CELLS", 7)
    p = random_kernel(np.random.default_rng(21), 3).transition
    laws = tuple(tuple(Constant(3.0 * i + j) for j in range(3)) for i in range(3))
    kernel = MapKernel(("a", "b", "c"), p, laws, np.array([0.2, 0.3, 0.5]))
    states, increments = _walk(kernel, 1, 200, np.random.default_rng(8),
                               sim_module._BLOCK_CELLS)
    walk = searchsorted_walk([p], kernel.initial_dist, 200, 8)
    assert states[0].tolist() == walk
    assert increments[0].tolist() == [3.0 * i + j for i, j in zip(walk[:-1], walk[1:])]


@pytest.mark.parametrize("n, cells, concentration", [(16, 7, 2.0), (70, 97, 20.0)])
def test_block_walk_widens_its_state_type_past_fifteen_states(monkeypatch, n, cells,
                                                              concentration):
    # n * n = 256 is the first cell count past one byte, and 70 states go past 64
    k = random_kernel(np.random.default_rng(n), n, concentration=concentration)
    # one replication walks uneven blocks; constant laws numbered by cell draw nothing
    monkeypatch.setattr(sim_module, "_BLOCK_CELLS", cells)
    laws = tuple(tuple(Constant(float(n * i + j)) for j in range(n)) for i in range(n))
    numbered = MapKernel(k.state_labels, k.transition, laws, k.initial_dist)
    states, increments = _walk(numbered, 1, 300, np.random.default_rng(8), cells)
    assert states.dtype == np.uint16
    walk = searchsorted_walk([k.transition], k.initial_dist, 300, 8)
    assert states[0].tolist() == walk
    assert increments[0].tolist() == [n * i + j for i, j in zip(walk[:-1], walk[1:])]
    # the kernel's own 3-atom laws: every increment is an atom of its cell's law
    states, increments = _walk(k, 4, 60, np.random.default_rng(9), cells)
    for src, dst, x in zip(states[:, :-1].ravel(), states[:, 1:].ravel(), increments.ravel()):
        assert x in k.law(src, dst).support


@pytest.mark.parametrize("n", [2, 3, 16, 70])
def test_block_walk_moves_each_chain_by_its_own_cdf_row(n):
    # constant laws draw nothing, so one replication's uniforms replay those of
    # a searchsorted walk; blocks of 7 slots, the last of 1
    k = random_kernel(np.random.default_rng(n), n, concentration=20.0 if n > 30 else 2.0)
    kind = sim_module._state_type(n)
    laws = ((Constant(0.0),) * n,) * n
    kernel = MapKernel(k.state_labels, k.transition, laws, k.initial_dist)
    states, _ = _walk(kernel, 1, 50, np.random.default_rng(8), 7)
    assert states.dtype == kind
    assert states[0].tolist() == searchsorted_walk([k.transition], k.initial_dist, 50, 8)
    # five chains in one walk: chain r moves on column r of each block's (b, R)
    # uniforms by the row of its own state
    states, _ = _walk(kernel, 5, 50, np.random.default_rng(9), 7)
    assert states.dtype == kind
    rng = np.random.default_rng(9)
    start = rng.choice(n, size=5, p=k.initial_dist)
    u = np.vstack([rng.random((min(7, 50 - t), 5)) for t in range(0, 50, 7)])
    cum = _pinned_cdf(k.transition)
    for r in range(5):
        walk = [int(start[r])]
        for t in range(50):
            walk.append(int(np.searchsorted(cum[walk[-1]], u[t, r], side="right")))
        assert states[r].tolist() == walk


def test_successor_tables_take_one_byte_up_to_fifteen_states():
    u = np.random.default_rng(5).random((3, 40))
    for n in range(2, 17):
        p = np.random.default_rng(n).dirichlet(np.ones(n), size=n)
        cum = _pinned_cdf(p)
        table = np.empty(u.shape + (n,), dtype=sim_module._state_type(n))
        sim_module._successors(cum, u, table)
        assert table.itemsize == (1 if n <= 15 else 2)
        expected = [[[np.searchsorted(cum[i], x, side="right") for i in range(n)] for x in row]
                    for row in u]
        assert table.tolist() == expected


def _replayed_traces(arrival, service, replications, horizon, seed):
    """(backlog, delay) traces of each replication, from the block walkers
    replayed on the seed's stream as tail_estimate runs them."""
    stream, step = np.random.default_rng(seed), max(1, sim_module._BLOCK_CELLS // replications)
    blocks = list(zip(*[sim_module._blocks(k, replications, horizon, stream, step)
                        for k in (service, arrival)]))
    c = np.hstack([s[1] for s, _ in blocks])
    a = np.hstack([r[1] for _, r in blocks])
    return [lindley_loop(a[r], c[r]) for r in range(replications)]


def test_block_lindley_matches_the_queue_recursion(monkeypatch):
    # three replications walk blocks of 2 slots, the last of 1; the walkers
    # replayed on the seed's stream give each replication's paths
    monkeypatch.setattr(sim_module, "_BLOCK_CELLS", 7)
    rng = np.random.default_rng(31)
    arrival = random_kernel(rng, 2, mean_offset=4.2)
    service = random_kernel(rng, 3, mean_offset=4.0)
    replications, horizon, seed = 3, 25, 5
    traces = _replayed_traces(arrival, service, replications, horizon, seed)
    ends = [backlog[-1] for backlog, _ in traces]
    assert min(ends) > 0.0 and len(set(np.round(ends, 9))) == replications
    # hits on either side of each end backlog pin every replication within 1e-12
    levels = sorted(end + d for end in ends for d in (-1e-12, 1e-12))
    est = tail_estimate(arrival, service, levels, replications, horizon, seed, "backlog")
    assert [e.hits for e in est] == [sum(end > level for end in ends) for level in levels]
    delays = [0, 3, 4, 5, 6, 8, horizon - 1, horizon, horizon + 4]
    est = tail_estimate(arrival, service, delays, replications, horizon, seed, "delay")
    assert [e.hits for e in est] == [sum(delay[-1] > d for _, delay in traces)
                                     for d in delays]


def test_delay_levels_beyond_the_horizon_count_every_arrival(monkeypatch):
    # one unit arrives per slot and none is served, so B = horizon = 10, and
    # D > d iff B exceeds the arrivals of the last d slots: min(d, 10) of them
    monkeypatch.setattr(sim_module, "_BLOCK_CELLS", 7)
    est = tail_estimate(single_state_kernel(Constant(1.0)), single_state_kernel(Constant(0.0)),
                        [0, 4, 9, 10, 15], 3, 10, 0, "delay")
    assert [e.hits for e in est] == [3, 3, 3, 0, 0]


# (horizon, delays) for blocks of 4 slots (3 replications, 12 cells): the
# window of the last d_max slots reaches past slot 0, is the last block
# exactly, or spans the last two blocks, the last one short
@pytest.mark.parametrize("horizon, delays", [(10, [1, 2, 12]), (9, [0, 1, 11]),
                                             (24, [0, 1, 4]), (26, [2, 4, 5]), (26, [3, 4, 6])])
def test_delay_window_holds_the_arrivals_of_the_last_d_max_slots(monkeypatch, horizon, delays):
    monkeypatch.setattr(sim_module, "_BLOCK_CELLS", 12)
    rng = np.random.default_rng(31)
    arrival = random_kernel(rng, 2, mean_offset=4.2)
    service = random_kernel(rng, 3, mean_offset=4.0)
    traces = _replayed_traces(arrival, service, 3, horizon, 5)
    est = tail_estimate(arrival, service, delays, 3, horizon, 5, "delay")
    assert [e.hits for e in est] == [sum(delay[-1] > d for _, delay in traces) for d in delays]


def test_tail_estimate_of_no_levels_is_empty():
    kernel = random_kernel(np.random.default_rng(4), 2, mean_offset=2.0)
    arrival = single_state_kernel(Constant(1.0))
    for metric in ("backlog", "delay"):
        assert tail_estimate(arrival, kernel, [], 10, 5, 0, metric) == []


def test_tail_estimate_memory_does_not_grow_with_the_horizon(delay_figure_channel):
    service = frechet_capacity_kernel(delay_figure_channel, -0.5)
    arrival = single_state_kernel(Constant(10.0))
    peaks = []
    for horizon in (100, 1000):
        tracemalloc.start()
        try:
            tail_estimate(arrival, service, [1, 4, 8], 25_000, horizon, 7, "delay")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_sample_path_states_follow_the_searchsorted_walk():
    k = random_kernel(np.random.default_rng(21), 3)
    states, _ = sample_path(k, 2000, 8)
    assert states.tolist() == searchsorted_walk([k.transition], k.initial_dist, 2000, 8)


# horizons at the edges of the path walk's blocks of b = isqrt(T) // 4 slots
# (at least 1): 64 is the first with b = 2; 255, 256 and 1600 fill their last
# block, 257 and 1601 put one slot in it, and 399 and 1609 put b - 1
_WALK_HORIZONS = (0, 1, 2, 3, 16, 17, 63, 64, 255, 256, 257, 399, 1600, 1601, 1609, 5000)


@given(st.integers(2, 20), st.sampled_from(_WALK_HORIZONS), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_sample_path_states_follow_the_searchsorted_walk_at_every_block_edge(
        n, horizon, sparse, seed):
    # n = 16 is the first state count whose successor table takes two bytes;
    # sparse rows keep a cycle i -> i + 1 and drop about half the other entries
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=n)
    if sparse:
        p *= rng.random((n, n)) < 0.5
        p[np.arange(n), (np.arange(n) + 1) % n] += 0.5
        p /= p.sum(axis=1, keepdims=True)
    kernel = MapKernel(tuple(range(n)), p, ((Constant(0.0),) * n,) * n, np.full(n, 1.0 / n))
    states, increments = sample_path(kernel, horizon, seed)
    assert states.dtype == np.int64 and states.shape == (horizon + 1,)
    assert states.tolist() == searchsorted_walk([p], kernel.initial_dist, horizon, seed)
    assert increments.shape == (horizon,)


@given(st.integers(2, 6), st.integers(1, 4), st.sampled_from(_WALK_HORIZONS),
       st.integers(0, 2**32 - 1))
def test_controlled_capacity_states_follow_the_searchsorted_walk_of_any_short_plan(
        n, steps, horizon, seed):
    # plans of 1-4 steps end inside a block, at a block edge or past the
    # horizon, and every horizon's last block is padded past it
    rng = np.random.default_rng(seed)
    plan = DimensionPlan(tuple(rng.dirichlet(np.ones(n), size=n) for _ in range(steps)),
                         rng.dirichlet(np.ones(n)))
    snr = rng.uniform(0.5, 10.0, (n, n))
    channel = ChannelSpec(3.0, snr, tuple(range(n)))
    states, capacity = controlled_capacity_process(plan, channel, horizon, seed)
    assert states.tolist() == searchsorted_walk(plan.transitions, plan.initial, horizon, seed)
    # the gains follow the walk's uniforms on the same stream
    replay = np.random.default_rng(seed)
    replay.choice(n, p=plan.initial)
    replay.random(horizon)
    gains = replay.standard_exponential(horizon)
    expected = 3.0 * np.log2(1.0 + snr[states[:-1], states[1:]] * gains)
    assert capacity.tolist() == expected.tolist()


def test_sample_path_walks_a_periodic_chain_exactly():
    laws = ((Constant(0.0), Constant(1.0)), (Constant(2.0), Constant(3.0)))
    kernel = MapKernel(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), laws,
                       np.array([0.5, 0.5]))
    for horizon in _WALK_HORIZONS:
        states, increments = sample_path(kernel, horizon, horizon)
        assert states.tolist() == [(states[0] + t) % 2 for t in range(horizon + 1)]
        assert increments.tolist() == [1.0 + (states[0] + t) % 2 for t in range(horizon)]


@pytest.mark.parametrize("n", [2, 4])
def test_a_path_walk_holds_no_machine_word_per_state_and_slot(n):
    # sample_path's peak stays within that of a walk over a list of the
    # table's T * n successors (8n + 16 bytes a slot), and the walk's own
    # within n + 12: the uniforms, then the table, its walked states in the
    # state type and the int64 path; T * n machine words alone take 8n
    kernel = random_kernel(np.random.default_rng(n), n)
    horizon = 200_000
    peaks = []
    for call in (lambda: sample_path(kernel, horizon, 3),
                 lambda: sim_module._path_states(kernel.transition, kernel.initial_dist,
                                                 horizon, np.random.default_rng(3))):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / horizon)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8 * n + 16 and peaks[1] <= n + 12, peaks


def test_path_samplers_check_the_horizon_before_drawing(monkeypatch, delay_figure_channel):
    monkeypatch.setattr(sim_module, "_stream", lambda seed: _NoDraws())
    kernel = random_kernel(np.random.default_rng(4), 2)
    dim = DimensionPlan((kernel.transition,), kernel.initial_dist)
    for bad in (-1, 2.5, 3.0, "3", None, True, False):
        with pytest.raises(ValueError, match="horizon must be a whole number"):
            sample_path(kernel, bad, 0)
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", lambda seed: _NoDraws())
            with pytest.raises(ValueError, match="horizon must be a whole number"):
                controlled_capacity_process(dim, delay_figure_channel, bad, 0)
    # a horizon of 0 gives the initial state alone
    monkeypatch.undo()
    states, increments = sample_path(kernel, np.int64(0), 5)
    assert states.shape == (1,) and increments.shape == (0,)
    states, capacity = controlled_capacity_process(dim, delay_figure_channel, 0, 5)
    assert states.shape == (1,) and capacity.shape == (0,)


def test_increments_read_the_law_index_off_the_source_state_where_laws_follow_it():
    # each row's moves share one law, as in a capacity kernel whose SNR follows
    # the source state: the law index is the source state, and the draws are
    # those of the cell lookup, value for value
    p = random_kernel(np.random.default_rng(6), 3).transition
    row_laws = [DiscretePmf((i, i + 0.25, i + 0.5), (0.2, 0.5, 0.3)) for i in range(3)]
    kernel = MapKernel(("a", "b", "c"), p, tuple((law,) * 3 for law in row_laws),
                       np.full(3, 1.0 / 3.0))
    assert kernel._law_is_source
    looked_up = MapKernel(kernel.state_labels, p, kernel.increments, kernel.initial_dist)
    looked_up.__dict__["_law_is_source"] = False
    states, _ = _walk(kernel, 40, 30, np.random.default_rng(2), 7)
    src, dst = states[:, :-1], states[:, 1:]
    x = sim_module._increments(kernel, src, dst, np.random.default_rng(3))
    assert x.tolist() == sim_module._increments(looked_up, src, dst,
                                                np.random.default_rng(3)).tolist()
    assert np.all(np.floor(x) == src)
    # one law shared by rows 0 and 2, or a row of two laws: the cell lookup
    shared = row_laws[:2] + row_laws[:1]
    assert not MapKernel(kernel.state_labels, p, tuple((law,) * 3 for law in shared),
                         kernel.initial_dist)._law_is_source
    split = ((row_laws[0], row_laws[1], row_laws[0]),) + kernel.increments[1:]
    assert not MapKernel(kernel.state_labels, p, split, kernel.initial_dist)._law_is_source


def test_samplers_keep_their_draw_order():
    # exact outputs of a 3-state Rayleigh service (nine laws) against a
    # 2-state pmf arrival: any change to the order or arithmetic of the draws
    # moves them; tail_estimate runs 3 blocks, martingale_check 2 chunks
    channel = ChannelSpec(2.0, np.array([[8.0, 5.0, 3.0], [4.0, 2.5, 1.5], [2.0, 1.2, 0.6]]),
                          ("hi", "mid", "lo"))
    service = capacity_kernel(
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]), channel)
    arrival = MapKernel(
        ("calm", "burst"), np.array([[0.9, 0.1], [0.2, 0.8]]),
        ((DiscretePmf((0.0, 2.0), (0.5, 0.5)), DiscretePmf((1.0, 3.0), (0.4, 0.6))),
         (DiscretePmf((2.0, 5.0), (0.5, 0.5)), DiscretePmf((3.0, 6.0), (0.3, 0.7)))),
        np.array([0.5, 0.5]))
    est = tail_estimate(arrival, service, [0.5, 2.0, 5.0, 10.0], 3000, 60, 13, "backlog")
    assert [e.hits for e in est] == [2142, 1888, 1638, 1299]
    est = tail_estimate(arrival, service, [0, 1, 3], 3000, 60, 13, "delay")
    assert [e.hits for e in est] == [2212, 1860, 1400]
    assert martingale_check(service, 0.05, 20, 4000, 29) == (1.0046158884003618,
                                                             0.015180480453781418)
    states, increments = sample_path(service, 5000, 41)
    assert states.dtype == np.int64 and increments.dtype == np.float64
    assert hashlib.sha256(states.tobytes()).hexdigest() == (
        "c0177e2858c0c146afe8d5d38bc9fe6e5313560e43a45fd20d41d94f83cd089d")
    assert hashlib.sha256(increments.tobytes()).hexdigest() == (
        "3a51096b097b9e0615a18b29f90e4839acff750500037f29527ed562afcb7f86")


def test_controlled_capacity_process_keeps_its_draw_order():
    # exact output of a 3-state power chain whose plan is shorter than the horizon
    channel, plan = short_plan_channel()
    states, capacity = controlled_capacity_process(plan, channel, 5000, 41)
    assert states.dtype == np.int64 and capacity.dtype == np.float64
    assert hashlib.sha256(states.tobytes()).hexdigest() == (
        "a258c260392d1d73312fd157ab0a5de9e82b88f476f2f8cc295741bedbde3206")
    assert hashlib.sha256(capacity.tobytes()).hexdigest() == (
        "7786d1cea2566c110bae35c915b551f69dba4b2d96f98cb8ddacc5cd0b405721")


def test_tail_estimate_checks_metric_and_levels_before_drawing(monkeypatch):
    monkeypatch.setattr(sim_module, "_stream", lambda seed: _NoDraws())
    kernel = random_kernel(np.random.default_rng(4), 2, mean_offset=2.0)
    arrival = single_state_kernel(Constant(1.0))
    with pytest.raises(ValueError, match="unknown metric"):
        tail_estimate(arrival, kernel, [1.0], 10, 5, 0, "wait")
    # delay is counted in whole slots: 2.5 used to give the hits of 2
    for bad in (2.5, -1, float("nan")):
        with pytest.raises(ValueError, match="delay level"):
            tail_estimate(arrival, kernel, [1, bad], 10, 5, 0, "delay")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            tail_estimate(arrival, kernel, [1.0, bad], 10, 5, 0, "backlog")
    for replications, horizon in ((0, 5), (10, 0), (-1, 5)):
        with pytest.raises(ValueError, match="replications and horizon"):
            tail_estimate(arrival, kernel, [1.0], replications, horizon, 0, "backlog")


def test_tail_estimate_reproducible_and_monotone(toy_service):
    arrival = single_state_kernel(Constant(1.0))
    est1 = tail_estimate(arrival, toy_service, [1.0, 2.0, 3.0], 20_000, 80, 3, "backlog")
    est2 = tail_estimate(arrival, toy_service, [1.0, 2.0, 3.0], 20_000, 80, 3, "backlog")
    assert [e.p_hat for e in est1] == [e.p_hat for e in est2]
    p = [e.p_hat for e in est1]
    assert p[0] >= p[1] >= p[2]
    assert all(e.replications == 20_000 for e in est1)


def test_tail_estimate_constant_arrival_delay_backlog_link(toy_service):
    # with constant arrivals D > d iff B > lam * d, so the two metrics agree
    lam = 1.0
    arrival = single_state_kernel(Constant(lam))
    d_est = tail_estimate(arrival, toy_service, [2.0], 20_000, 80, 3, "delay")
    b_est = tail_estimate(arrival, toy_service, [2.0 * lam], 20_000, 80, 3, "backlog")
    assert d_est[0].p_hat == pytest.approx(b_est[0].p_hat, abs=1e-12)


def test_tail_estimate_meets_the_exact_lattice_tail():
    # P(B_400 > b) from an empty queue, exact by Lindley's recursion on the
    # lattice (about 2e-36 of the mass above the cap of 600); the estimate lies
    # within 4 binomial standard errors of it at every level
    arrival, service = reversible_lattice_arrival(), single_state_kernel(Constant(2.0))
    pmf, lost = lattice_backlog(arrival, service, 400, 600)
    assert lost < 1e-30
    for est in tail_estimate(arrival, service, [2, 5, 10, 20, 30], 50_000, 400, seed=1):
        p = pmf[:, int(est.level) + 1:].sum()
        assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / est.replications)


def test_zero_traffic_has_zero_backlog():
    # a nonnegative service law drains everything, so zero arrivals mean
    # zero backlog (laws with negative mass can build backlog on their own)
    service = single_state_kernel(Constant(3.0))
    est = tail_estimate(single_state_kernel(Constant(0.0)), service, [0.0, 1.0], 500, 50, 1,
                        "backlog")
    assert est[0].p_hat == 0.0 and est[1].p_hat == 0.0


def test_decay_slope_on_exact_exponential():
    from mapq.sim import TailEstimate

    est = [TailEstimate(b, math.exp(-1.7 * b), 0.0, 1000, 10_000, True) for b in (1, 2, 3)]
    assert decay_slope(est) == pytest.approx(-1.7, abs=1e-12)
    with pytest.raises(ValueError):
        decay_slope(est[:1])


# ---------------------------------------------------------------------------
# martingale


def test_martingale_mean_one_toy(toy_service):
    mean, se = martingale_check(toy_service, 0.2, 20, 50_000, 17)
    assert abs(mean - 1.0) <= 3.0 * se
    assert se < 0.05


def test_martingale_check_needs_two_replications_and_one_slot(monkeypatch, toy_service):
    monkeypatch.setattr(sim_module, "_stream", lambda seed: _NoDraws())
    for replications, horizon in ((0, 5), (1, 5), (10, 0), (10, -1)):
        with pytest.raises(ValueError, match="replications and horizon"):
            martingale_check(toy_service, 0.2, horizon, replications, 0)


def test_tail_and_martingale_take_whole_numbers_before_drawing(monkeypatch, toy_service):
    arrival = single_state_kernel(Constant(1.0))
    # numpy integers are whole numbers: the same estimates as Python ints
    est = tail_estimate(arrival, toy_service, [1.0], np.int64(50), np.int64(8), 3, "backlog")
    assert est == tail_estimate(arrival, toy_service, [1.0], 50, 8, 3, "backlog")
    assert martingale_check(toy_service, 0.2, np.int32(8), np.int64(50), 3) == (
        martingale_check(toy_service, 0.2, 8, 50, 3))
    monkeypatch.setattr(sim_module, "_stream", lambda seed: _NoDraws())
    for replications, horizon in ((10.0, 5), (10, 5.5), (10, 5.0), ("10", 5), (10, None),
                                  (True, 5), (10, True), (False, 5), (10, False)):
        with pytest.raises(ValueError, match="replications and horizon must be whole numbers"):
            tail_estimate(arrival, toy_service, [1.0], replications, horizon, 0, "backlog")
        with pytest.raises(ValueError, match="replications and horizon must be whole numbers"):
            martingale_check(toy_service, 0.2, horizon, replications, 0)


# ---------------------------------------------------------------------------
# convex order


def test_stop_loss_values():
    pmf = DiscretePmf((0.0, 2.0), (0.5, 0.5))
    assert stop_loss(pmf, 1.0) == pytest.approx(0.5)
    assert stop_loss(pmf, -1.0) == pytest.approx(2.0)
    assert stop_loss(pmf, 3.0) == 0.0


def test_convex_order_point_mass_below_any_spread():
    spread = DiscretePmf((0.0, 2.0), (0.5, 0.5))
    point = DiscretePmf((1.0,), (1.0,))
    assert convex_order_leq(point, spread)
    assert not convex_order_leq(spread, point)


def test_convex_order_requires_equal_means():
    x = DiscretePmf((0.0, 1.0), (0.5, 0.5))
    y = DiscretePmf((0.0, 2.0), (0.5, 0.5))
    assert not convex_order_leq(x, y)
    assert means_differ(x, y) == (0.5, 1.0)
    assert means_differ(y, DiscretePmf((1.0,), (1.0,))) is None


# ---------------------------------------------------------------------------
# supermodular battery


def _coupled_uniform_samples(n, m, comonotone, seed):
    rng = np.random.default_rng(seed)
    if comonotone:
        u = np.repeat(rng.random((n, 1)), m, axis=1)
    else:
        u = rng.random((n, m))
    return u


def test_supermodular_battery_detects_comonotone_dominance():
    indep = _coupled_uniform_samples(40_000, 3, False, 1)
    como = _coupled_uniform_samples(40_000, 3, True, 2)
    assert supermodular_battery(indep, como).verdict == "holds"
    assert supermodular_battery(como, indep).verdict == "fails"


def test_supermodular_battery_marginal_precheck():
    rng = np.random.default_rng(3)
    x = rng.random((5000, 2))
    y = rng.random((5000, 2)) * 2.0  # different marginals
    assert supermodular_battery(x, y).verdict == "inconclusive"


def test_supermodular_battery_is_inconclusive_where_no_statistic_is_significant():
    # a sample against itself: equal marginals, and every mean difference 0
    x = np.random.default_rng(5).random((2000, 2))
    report = supermodular_battery(x, x)
    assert report.verdict == "inconclusive"
    assert report.note == "necessary-condition battery, not a decision procedure"
    assert report.statistics and all(s.mean_difference == 0.0 < s.std_err
                                      for s in report.statistics)


def test_supermodular_battery_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        supermodular_battery(np.ones((10, 2)), np.ones((10, 3)))
    # one row has no standard error
    with pytest.raises(DimensionMismatch, match="samples of 10 and 1 rows"):
        supermodular_battery(np.ones((10, 2)), np.ones((1, 2)))


# ---------------------------------------------------------------------------
# ordering experiments


def test_unknown_experiment():
    with pytest.raises(UnknownExperiment):
        ordering_experiment({"name": "nope"})


def test_subchannel_aggregation_experiment():
    r = ordering_experiment({"name": "subchannel-aggregation", "samples": 30_000, "seed": 4})
    assert r.direction_holds
    assert r.order_report.verdict == "holds"


def test_deterministic_multiplexing_experiment():
    r = ordering_experiment({"name": "deterministic-multiplexing", "samples": 30_000, "seed": 5})
    assert r.direction_holds


def test_random_multiplexing_experiment():
    r = ordering_experiment({"name": "random-multiplexing", "samples": 30_000, "seed": 6})
    assert r.direction_holds
