"""Shared fixtures: reference kernels, channels, and config documents."""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import exp1, hyperu

from mapq.channel import ChannelSpec, capacity_kernel
from mapq.copulas import DimensionPlan, one_param_frechet, transition_from_copula
from mapq.laws import Constant, DiscretePmf, gaussian_quantized
from mapq.spectral import MapKernel, single_state_kernel

settings.register_profile("suite", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def toy_service():
    """Single-state service with cgf -3*theta + theta^2 (Gaussian-equivalent)."""
    return single_state_kernel(gaussian_quantized(3.0, math.sqrt(2.0)))


@pytest.fixture(scope="session")
def toy_arrival():
    return single_state_kernel(Constant(1.0), label="const")


@pytest.fixture(scope="session")
def delay_figure_channel():
    """Rayleigh channel of the delay-tail figure: W=20, SNR rows e^0.5 / 0.7e^0.5."""
    s = math.exp(0.5)
    return ChannelSpec(20.0, np.array([[s, s], [0.7 * s, 0.7 * s]]), ("hi", "lo"))


@pytest.fixture(scope="session")
def power_control_channel():
    """High-contrast channel of the power-control figure: SNR rows 1e4 / 10."""
    return ChannelSpec(20.0, np.array([[1e4, 1e4], [10.0, 10.0]]), ("hi", "lo"))


def short_plan_channel():
    """(channel, plan): a 3-state Rayleigh power channel and a plan of two
    matrices, the second with zero entries, which any horizon past 2 slots
    outlasts (its last matrix repeats)."""
    channel = ChannelSpec(2.0, np.array([[8.0, 5.0, 3.0], [4.0, 2.5, 1.5], [2.0, 1.2, 0.6]]),
                          ("hi", "mid", "lo"))
    plan = DimensionPlan((np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]),
                          np.array([[0.1, 0.0, 0.9], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])),
                         np.array([0.2, 0.3, 0.5]))
    return channel, plan


def frechet_capacity_kernel(channel, alpha, varpi=(0.3, 0.7)):
    """Capacity kernel whose state chain realizes a one-parameter Frechet copula."""
    varpi = np.asarray(varpi, dtype=float)
    p, _ = transition_from_copula(one_param_frechet(alpha), varpi)
    k = capacity_kernel(p, channel)
    return MapKernel(k.state_labels, k.transition, k.increments, varpi)


def random_kernel(rng, n, mean_offset=0.0, spread=1.0, concentration=2.0):
    """Random irreducible kernel with 3-atom discrete increments per transition.

    Rows are Dirichlet(concentration) draws, redrawn until every entry
    exceeds 1e-3; past about 30 states that takes a concentration well
    above 2, so that the rows stay near uniform."""
    while True:
        p = rng.dirichlet(np.ones(n) * concentration, size=n)
        if np.all(p > 1e-3):
            break
    laws = tuple(
        tuple(
            DiscretePmf(
                tuple(sorted(mean_offset + spread * rng.normal(0.0, 1.0, 3))),
                (0.3, 0.4, 0.3),
            )
            for _ in range(n)
        )
        for _ in range(n)
    )
    return MapKernel(tuple(f"s{i}" for i in range(n)), p, laws, np.full(n, 1.0 / n))


def searchsorted_walk(transitions, initial_dist, horizon, seed):
    """Reference state walk: one searchsorted per slot on the pinned CDF row,
    with slot t moving by transitions[min(t, len - 1)]."""
    rng = np.random.default_rng(seed)
    state = int(rng.choice(len(initial_dist), p=initial_dist))
    u = rng.random(horizon)
    states = [state]
    for t in range(horizon):
        cum = np.cumsum(transitions[min(t, len(transitions) - 1)][state])
        cum[-1] = 1.0
        state = int(np.searchsorted(cum, u[t], side="right"))
        states.append(state)
    return states


def lindley_loop(a, c):
    """Reference queue recursion, one slot at a time: (backlog, virtual delay)."""
    t_max = len(a)
    backlog = np.zeros(t_max + 1)
    for t in range(t_max):
        backlog[t + 1] = max(backlog[t] + a[t] - c[t], 0.0)
    cum_a = np.concatenate(([0.0], np.cumsum(a)))
    delay = np.zeros(t_max + 1)
    for t in range(t_max + 1):
        served = cum_a[t] - backlog[t]
        # smallest d >= 0 with A(t - d) <= served
        d = 0
        while cum_a[t - d] > served + 1e-12 * max(1.0, cum_a[t]):
            d += 1
        delay[t] = d
    return backlog, delay


def lattice_backlog(arrival, service, slots, cap):
    """(pmf, lost): the exact joint law pmf[i, b] = P(J_T = i, B_T = b), b = 0..cap,
    of the arrival state and the backlog after `slots` slots of Lindley's
    recursion B_t = max(B_{t-1} + A_t - c, 0) from B_0 = 0 and J_0 ~ the arrival's
    initial_dist, and the mass a backlog above cap took out of it.

    A_t is drawn on the move J_{t-1} -> J_t from that edge's law, a DiscretePmf
    of whole values (a Constant is one atom), and the service is one state of
    a whole constant c per slot, Constant(c), so every backlog lies on the
    integers (Lindley 1952; Latouche & Ramaswami 1999)."""
    assert service.n_states == 1
    (rate,) = service.law(0, 0).support
    assert float(rate).is_integer()
    moves = []  # (source, destination, net step a - c, its probability)
    for i, j in zip(*np.nonzero(arrival.transition)):
        law = arrival.law(i, j)
        for a, q in zip(law.support, law.probs):
            assert float(a).is_integer()
            moves.append((i, j, int(a - rate), arrival.transition[i, j] * q))
    pmf = np.zeros((arrival.n_states, cap + 1))
    pmf[:, 0] = arrival.initial_dist
    lost = 0.0
    for _ in range(slots):
        new = np.zeros_like(pmf)
        for i, j, step, q in moves:
            mass = q * pmf[i]
            if step >= 0:
                new[j, step:] += mass[:cap + 1 - step]
                lost += mass[cap + 1 - step:].sum()
            else:  # a backlog of -step or less empties
                new[j, 0] += mass[:1 - step].sum()
                new[j, 1:cap + 1 + step] += mass[1 - step:]
        pmf = new
    return pmf, lost


def reversible_lattice_arrival():
    """Two arrival states, lo and hi, on a symmetric chain with whole arrivals
    (mean 1.6 per slot): pi_i P_ij law_ij is symmetric in (i, j), so the
    chain run backwards in time is the same MAP."""
    on_lo, on_hi, across = (DiscretePmf((0.0, 1.0), (0.7, 0.3)),
                            DiscretePmf((2.0, 5.0), (0.6, 0.4)), Constant(1.0))
    return MapKernel(("lo", "hi"), np.array([[0.8, 0.2], [0.2, 0.8]]),
                     ((on_lo, across), (across, on_hi)), np.array([0.5, 0.5]))


def rayleigh_mean(bandwidth, snr):
    """Closed-form mean of the Rayleigh capacity law: (W/ln2) e^x E1(x), x = 1/snr.

    e^x overflows from x ~ 709, so from x = 100 it is U(1, 1, x) = e^x E1(x),
    which scipy 1.17 resolves within 1.1e-15 there (but only within 5e-10
    for x in [1, 50])."""
    x = 1.0 / snr
    scaled_e1 = math.exp(x) * float(exp1(x)) if x < 100.0 else float(hyperu(1.0, 1.0, x))
    return bandwidth / math.log(2.0) * scaled_e1


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so each call appends its arguments to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def at(transform, theta):
    """A law transform (`law.mgf` or `law.tilted_mean`) at one theta: the entry
    of its call on the one-element array [theta]."""
    return transform(np.array([theta], dtype=float))[0]


def quadratures(done):
    """(quadrature calls, Rayleigh integrations) read from a counters.tally() function."""
    work = done()
    return work["quadrature_calls"], work["rayleigh_integrations"]


@pytest.fixture
def toy_config_text():
    return """\
arrival:
  constant: 1.0
service:
  kernel:
    states: [only]
    transition: [[1.0]]
    increments: [[{law: normal, mean: 3.0, std: 1.4142135623730951}]]
    initial_dist: [1.0]
simulation:
  horizon: 120
  replications: 3000
  seed: 7
  levels: [1, 2]
output:
  directory: out
"""
