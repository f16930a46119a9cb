"""Spectral quantities of Markov additive kernels: eigentriples, cgf, roots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, random_kernel
from mapq import laws as laws_module
from mapq import spectral as spectral_module
from mapq.channel import ChannelSpec, capacity_kernel
from mapq.errors import MgfDiverged, NoConvergence, NoRootInDomain, UnstableQueue
from mapq.laws import Constant, DiscretePmf, gaussian_quantized
from mapq.spectral import (
    MapKernel,
    mean_rate,
    negate,
    perron,
    single_state_kernel,
    stability_root,
    stationary_distribution,
    transform_matrix,
)


def test_kernel_validation():
    with pytest.raises(ValueError):
        MapKernel(("a",), np.array([[0.9]]), ((Constant(1.0),),), np.array([1.0]))
    # reducible chain: state 1 unreachable from state 0
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    laws = ((Constant(0.0),) * 2,) * 2
    with pytest.raises(ValueError):
        MapKernel(("a", "b"), p, laws, np.array([0.5, 0.5]))


def test_single_state_constant_cgf_is_linear():
    # at rate +-400 the transform e^{+-400} lies beyond the range where eig
    # resolves a 1x1 matrix, so perron scales it by a power of two
    for rate, theta in ((2.0, 0.1), (2.0, 1.0), (2.0, 3.0), (400.0, 1.0), (-400.0, 1.0)):
        k = single_state_kernel(Constant(rate))
        assert perron(k, theta).kappa == pytest.approx(rate * theta, rel=1e-12)
        assert perron(k, theta).kappa_dot == pytest.approx(rate, rel=1e-12)


def test_toy_service_cgf_quadratic(toy_service):
    # negated toy service has cgf -3*theta + theta^2
    neg = negate(toy_service)
    for theta in (0.25, 1.0, 2.0, 2.5):
        assert perron(neg, theta).kappa == pytest.approx(-3.0 * theta + theta**2, abs=1e-10)


def test_perron_at_zero_reduces_to_chain_quantities():
    rng = np.random.default_rng(3)
    k = random_kernel(rng, 3)
    sol = perron(k, 0.0)
    assert sol.kappa == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.h, 1.0, atol=1e-9)
    assert np.allclose(sol.v, sol.pi, atol=1e-9)
    assert np.allclose(sol.pi @ k.transition, sol.pi, atol=1e-10)


def test_transform_matrix_entries():
    p = np.array([[0.4, 0.6], [0.2, 0.8]])
    laws = (
        (Constant(1.0), Constant(2.0)),
        (Constant(0.0), Constant(1.0)),
    )
    k = MapKernel(("a", "b"), p, laws, np.array([0.5, 0.5]))
    f = transform_matrix(k, 0.5)
    assert f[0, 1] == pytest.approx(0.6 * math.exp(1.0), rel=1e-14)
    assert f[1, 0] == pytest.approx(0.2, rel=1e-14)


def test_stationary_distribution_fixed_point():
    rng = np.random.default_rng(4)
    k = random_kernel(rng, 4)
    pi = stationary_distribution(k)
    assert np.allclose(pi @ k.transition, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=20)
def test_cgf_properties_on_random_kernels(seed, n):
    rng = np.random.default_rng(seed)
    k = random_kernel(rng, n)
    thetas = np.linspace(-0.6, 0.6, 9)
    vals = [perron(k, t).kappa for t in thetas]
    # passes through the origin
    assert abs(vals[4]) < 1e-12
    # convex along the grid
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert b <= 0.5 * (a + c) + 1e-10
    # analytic derivative matches finite differences
    for t in (-0.3, 0.0, 0.4):
        h = 1e-6
        fd = (perron(k, t + h).kappa - perron(k, t - h).kappa) / (2.0 * h)
        assert perron(k, t).kappa_dot == pytest.approx(fd, rel=1e-5, abs=1e-7)


@given(st.integers(0, 10_000))
@settings(max_examples=20)
def test_negate_is_cgf_reflection_and_involution(seed):
    rng = np.random.default_rng(seed)
    k = random_kernel(rng, 2)
    neg = negate(k)
    for t in (-0.4, 0.2, 0.5):
        assert perron(neg, t).kappa == pytest.approx(perron(k, -t).kappa, abs=1e-12)
    back = negate(neg)
    assert back.increments == k.increments


def test_mean_rate_is_pi_weighted_average():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    laws = (
        (Constant(1.0), Constant(3.0)),
        (Constant(1.0), Constant(3.0)),
    )
    k = MapKernel(("a", "b"), p, laws, np.array([0.5, 0.5]))
    assert mean_rate(k) == pytest.approx(2.0, abs=1e-12)


def test_stability_root_toy(toy_arrival, toy_service):
    root = stability_root(toy_arrival, toy_service)
    assert root.theta_star == pytest.approx(2.0, abs=1e-9)
    assert root.kappa_arrival == pytest.approx(2.0, abs=1e-9)
    assert root.residual <= 1e-10


def test_stability_root_unstable():
    arrival = single_state_kernel(Constant(5.0))
    service = single_state_kernel(DiscretePmf((2.0, 4.0), (0.5, 0.5)))
    with pytest.raises(UnstableQueue) as err:
        stability_root(arrival, service)
    assert err.value.arrival_rate == pytest.approx(5.0)
    assert err.value.service_rate == pytest.approx(3.0)


def test_stability_root_deterministic_queue_has_no_root():
    # constant service above a constant arrival: combined cgf is linear and
    # strictly negative, so no positive recrossing exists
    arrival = single_state_kernel(Constant(1.0))
    service = single_state_kernel(Constant(2.0))
    with pytest.raises(NoRootInDomain):
        stability_root(arrival, service)


def test_periodic_chain_perron_root_and_stability_root():
    # on the period-2 chain the transform has eigenvalues +-lambda with
    # lambda^2 = M01 M10, so kappa(theta) = (log M01 + log M10) / 2 and, for
    # Gaussian edges, theta* = 2(m01 + m10 - 2 lam) / (s01^2 + s10^2)
    m01, m10, s01, s10, lam = 1.5, 2.5, 0.7, 0.9, 1.2
    law01, law10 = gaussian_quantized(m01, s01), gaussian_quantized(m10, s10)
    service = MapKernel(("even", "odd"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                        ((law10, law01), (law10, law01)), np.array([0.5, 0.5]))
    for theta in (-0.2, 0.2):
        sol = perron(service, theta)
        closed = 0.5 * (math.log(law01.mgf(theta)) + math.log(law10.mgf(theta)))
        assert sol.kappa == pytest.approx(closed, abs=1e-12)
        assert np.all(sol.h > 0) and np.all(sol.v > 0)
    root = stability_root(single_state_kernel(Constant(lam)), service)
    closed_root = 2.0 * (m01 + m10 - 2.0 * lam) / (s01 ** 2 + s10 ** 2)
    assert root.theta_star == pytest.approx(closed_root, abs=1e-9)


def test_perron_on_100_states_with_constant_laws():
    # F = e^{c theta} P for every law Constant(c): kappa = c theta and h = 1
    rng = np.random.default_rng(100)
    n, c, theta = 100, 0.7, 1.3
    p = rng.random((n, n)) + 0.01
    p /= p.sum(axis=1, keepdims=True)
    laws = ((Constant(c),) * n,) * n
    k = MapKernel(tuple(range(n)), p, laws, np.full(n, 1.0 / n))
    sol = perron(k, theta)
    assert sol.kappa == pytest.approx(c * theta, rel=1e-12)
    assert np.max(np.abs(sol.h - 1.0)) <= 1e-12
    assert sol.residual <= 1e-10


def test_transform_quadrature_once_per_distinct_law(monkeypatch):
    quad_calls = count_calls(monkeypatch, laws_module, "quad")
    # row-constant SNR: nine cells, three distinct laws
    snr = np.array([[10.0] * 3, [5.0] * 3, [1.0] * 3])
    p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
    k = capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c")))
    transform_matrix(k, 0.2)
    assert len(quad_calls) == 6
    perron(k, 0.2)
    perron(negate(k), -0.2)
    assert len(quad_calls) == 6
    fresh = capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c")))
    assert np.array_equal(transform_matrix(fresh, 0.2), transform_matrix(k, 0.2))
    assert len(quad_calls) == 12


def test_stationary_distribution_is_solved_once_and_read_only(monkeypatch):
    solves = count_calls(monkeypatch, np.linalg, "lstsq")
    k = random_kernel(np.random.default_rng(5), 3)
    pi = stationary_distribution(k)
    assert stationary_distribution(k) is pi and perron(k, 0.4).pi is pi
    assert len(solves) == 1
    with pytest.raises(ValueError):
        pi[0] = 0.5


@pytest.mark.parametrize("lam", [2.999, 2.9995])
def test_stability_root_below_the_first_probe(toy_service, lam):
    # combined cgf theta^2 - (3 - lam) theta: theta* = 3 - lam < 1e-3, so the
    # first probe already lies above the root and the bracket is halved down
    root = stability_root(single_state_kernel(Constant(lam)), toy_service)
    assert root.theta_star == pytest.approx(3.0 - lam, rel=1e-6)
    assert root.kappa_arrival == pytest.approx(lam * (3.0 - lam), rel=1e-6)


def test_stability_root_with_transforms_beyond_1e138():
    # combined cgf 400 theta - 401 theta + theta^2: theta* = 1, where the
    # arrival transform is e^400 and the negated service's about e^-400
    arrival = single_state_kernel(Constant(400.0))
    service = single_state_kernel(gaussian_quantized(401.0, math.sqrt(2.0)))
    assert stability_root(arrival, service).theta_star == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("root", [0.7, 2e-4])
def test_positive_root_finds_closed_form_roots(root):
    # a convex cgf through the origin (bracketed by doubling above 1e-3 and
    # by halving below it) and an increasing derivative equation
    for f in (lambda t: t * t - root * t, lambda t: math.expm1(t - root)):
        assert spectral_module.positive_root(f, "test equation") == pytest.approx(root, rel=1e-12)


@pytest.mark.parametrize("error", [MgfDiverged, NoConvergence])
def test_positive_root_failure_names_the_equation_and_theta(error):
    def f(theta):
        if theta > 0.1:
            raise error("transform left its domain")
        return -theta

    with pytest.raises(NoRootInDomain, match=r"rising equation.*theta=0\.128"):
        spectral_module.positive_root(f, "rising equation")


def test_stability_root_carries_its_solutions_at_theta_star():
    rng = np.random.default_rng(11)
    arrival = random_kernel(rng, 2, mean_offset=1.0, spread=0.5)
    service = random_kernel(rng, 3, mean_offset=2.0, spread=0.5)
    root = stability_root(arrival, service)
    for sol, kernel in ((root.arrival, arrival), (root.neg_service, negate(service))):
        again = perron(kernel, root.theta_star)
        assert sol.theta == root.theta_star
        assert sol.kappa == again.kappa and np.array_equal(sol.h, again.h)
        assert sol.kappa_dot == again.kappa_dot
    assert root.kappa_arrival == root.arrival.kappa
    assert root.residual == abs(root.arrival.kappa + root.neg_service.kappa)


def test_kappa_dot_is_computed_once_and_only_when_read(monkeypatch):
    derivatives = count_calls(monkeypatch, spectral_module, "_transform_derivative")
    k = random_kernel(np.random.default_rng(6), 3)
    sol = perron(k, 0.3)
    assert derivatives == []
    assert sol.kappa_dot == sol.kappa_dot
    assert len(derivatives) == 1
    assert mean_rate(k) == perron(k, 0.0).kappa_dot
