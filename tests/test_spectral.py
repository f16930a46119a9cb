"""Spectral quantities of Markov additive kernels: eigentriples, cgf, roots."""

import inspect
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at, count_calls, quadratures, random_kernel
from mapq import counters
from mapq import laws as laws_module
from mapq import spectral as spectral_module
from mapq.channel import ChannelSpec, capacity_kernel
from mapq.errors import MgfDiverged, NoConvergence, NoRootInDomain, UnstableQueue
from mapq.laws import (
    Constant,
    DiscretePmf,
    Negated,
    RayleighCapacity,
    Shifted,
    gaussian_quantized,
)
from mapq.spectral import (
    MapKernel,
    SpectralSolution,
    _transform_derivative,
    mean_rate,
    perron,
    perron_grid,
    single_state_kernel,
    stability_root,
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


@pytest.mark.parametrize("transition, increments, match", [
    (np.full((3, 3), 1.0 / 3.0), ((Constant(0.0),) * 2,) * 2, "transition must be 2x2"),
    (np.full((2, 2), 0.5), ((Constant(0.0),) * 2, (Constant(0.0),)), "n x n matrix of laws"),
    (np.full((2, 2), 0.5), ((Constant(0.0), 1.0), (Constant(0.0),) * 2), "not an increment law"),
], ids=["transition-3x3", "short-increments-row", "non-law-entry"])
def test_kernel_rejects_a_malformed_layout(transition, increments, match):
    with pytest.raises(ValueError, match=match):
        MapKernel(("a", "b"), transition, increments, np.array([0.5, 0.5]))


def test_kernel_rejects_state_labels_the_outputs_cannot_tell_apart():
    # the CSVs write each label as text, so 1 and "1" are one label
    laws = ((Constant(0.0),) * 2,) * 2
    for labels in (("a", "a"), (1, "1")):
        with pytest.raises(ValueError, match="state labels must be distinct"):
            MapKernel(labels, np.full((2, 2), 0.5), laws, np.array([0.5, 0.5]))
    channel = ChannelSpec(20.0, np.full((2, 2), 10.0), ("hi", "hi"))
    with pytest.raises(ValueError, match="state labels must be distinct"):
        capacity_kernel(np.full((2, 2), 0.5), channel)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_entries(bad):
    # a NaN fails no comparison-style check unless the check is written for it
    laws = ((Constant(0.0),) * 2,) * 2
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    for transition in ([[bad, 1.0], [0.5, 0.5]], [[0.5, 0.5], [bad, -bad]]):
        with pytest.raises(ValueError, match="transition"):
            MapKernel(("a", "b"), np.array(transition), laws, np.array([0.5, 0.5]))
    for initial in ([bad, 0.5], [bad, -bad]):
        with pytest.raises(ValueError, match="initial_dist"):
            MapKernel(("a", "b"), p, laws, np.array(initial))


def test_single_state_constant_cgf_is_linear():
    # at rate +-400 the transform e^{+-400} lies beyond the range where eig
    # resolves a 1x1 matrix, so perron scales it by a power of two
    for rate, theta in ((2.0, 0.1), (2.0, 1.0), (2.0, 3.0), (400.0, 1.0), (-400.0, 1.0)):
        k = single_state_kernel(Constant(rate))
        assert perron(k, theta).kappa == pytest.approx(rate * theta, rel=1e-12)
        assert perron(k, theta).kappa_dot == pytest.approx(rate, rel=1e-12)


def test_one_state_perron_is_closed_form(monkeypatch):
    # kappa = log F, h = v = [1], with no LAPACK call
    done = counters.tally()
    lapack = count_calls(monkeypatch, spectral_module, "_eig")
    k = single_state_kernel(DiscretePmf((-2.0, 0.5, 3.0), (0.2, 0.5, 0.3)))
    for theta in (-3.0, -0.1, 0.0, 0.7, 2.0):
        sol = perron(k, theta)
        assert sol.kappa == math.log(transform_matrix(k, theta)[0, 0])
        assert sol.h.tolist() == sol.v.tolist() == sol.kernel.stationary.tolist() == [1.0]
        assert sol.residual == 0.0
    assert lapack == [] and done()["stacked_matrices"] == 0


def test_one_state_perron_scales_a_huge_transform():
    k = single_state_kernel(Constant(1.0))
    assert math.frexp(transform_matrix(k, 300.0)[0, 0])[1] == 433  # past 2^400: scaled
    assert perron(k, 300.0).kappa == pytest.approx(300.0, rel=1e-15, abs=0.0)


def test_one_state_perron_rejects_an_underflowed_transform():
    k = single_state_kernel(Constant(-1.0))
    assert transform_matrix(k, 800.0)[0, 0] == 0.0
    with pytest.raises(NoConvergence,
                       match=r"nonpositive dominant eigenvalue 0\.0 at theta=800\.0"):
        perron(k, 800.0)


def test_toy_service_cgf_quadratic(toy_service):
    # negated toy service has cgf -3*theta + theta^2, the service's at -theta
    for theta in (0.25, 1.0, 2.0, 2.5):
        assert perron(toy_service, -theta).kappa == pytest.approx(-3.0 * theta + theta**2,
                                                                  abs=1e-10)


def test_perron_at_zero_reduces_to_chain_quantities():
    rng = np.random.default_rng(3)
    k = random_kernel(rng, 3)
    sol = perron(k, 0.0)
    assert sol.kappa == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.h, 1.0, atol=1e-9)
    assert np.allclose(sol.v, sol.kernel.stationary, atol=1e-9)
    assert np.allclose(sol.kernel.stationary @ k.transition, sol.kernel.stationary, atol=1e-10)


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
    pi = k.stationary
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


def _mixed_law(rng):
    """A random DiscretePmf, RayleighCapacity or Shifted law."""
    kind = rng.integers(3)
    if kind == 0:
        return DiscretePmf(tuple(np.sort(rng.normal(0.0, 1.0, 3))), (0.3, 0.4, 0.3))
    law = RayleighCapacity(float(rng.uniform(1.0, 20.0)), float(rng.uniform(0.1, 50.0)))
    return law if kind == 1 else Shifted(law, float(rng.normal(0.0, 5.0)))


@given(st.integers(0, 10_000), st.integers(1, 3), st.floats(-0.3, 0.3))
@settings(max_examples=20)
def test_a_negated_kernel_at_theta_is_the_kernel_at_minus_theta_bit_for_bit(seed, n, theta):
    # the transform of -X at theta is that of X at -theta, law by law, so
    # every quantity of the negated kernel is the plain one's (the
    # derivatives negated) to the bit
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(n, 2.0), size=n)
    laws = tuple(tuple(_mixed_law(rng) for _ in range(n)) for _ in range(n))
    labels = tuple(f"s{i}" for i in range(n))
    k = MapKernel(labels, p, laws, np.full(n, 1.0 / n))
    neg = MapKernel(labels, p, tuple(tuple(map(Negated, row)) for row in laws), np.full(n, 1.0 / n))
    assert transform_matrix(neg, theta).tobytes() == transform_matrix(k, -theta).tobytes()
    assert (_transform_derivative(neg, theta).tobytes()
            == (-_transform_derivative(k, -theta)).tobytes())
    sol, plain = perron(neg, theta), perron(k, -theta)
    assert np.float64(sol.kappa).tobytes() == np.float64(plain.kappa).tobytes()
    assert sol.h.tobytes() == plain.h.tobytes() and sol.v.tobytes() == plain.v.tobytes()
    assert np.float64(sol.kappa_dot).tobytes() == np.float64(-plain.kappa_dot).tobytes()


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
    assert root.arrival.kappa == pytest.approx(2.0, abs=1e-9)
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
        closed = 0.5 * (math.log(at(law01.mgf, theta)) + math.log(at(law10.mgf, theta)))
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


def _row_constant_capacity_kernel():
    """3-state Rayleigh service with nine cells and three distinct laws."""
    snr = np.array([[10.0] * 3, [5.0] * 3, [1.0] * 3])
    p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
    return capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c")))


def test_transform_quadrature_once_per_distinct_law(monkeypatch):
    k = _row_constant_capacity_kernel()
    done = counters.tally()
    # one quadrature call per kernel transform integrates all three laws
    transform_matrix(k, 0.2)
    assert quadratures(done) == (1, 3)
    # the laws keep no values: perron integrates again, then keeps its solution
    perron(k, 0.2)
    perron(k, 0.2)
    assert quadratures(done) == (2, 6)
    fresh = _row_constant_capacity_kernel()
    assert perron(fresh, 0.2).kappa == perron(k, 0.2).kappa
    assert quadratures(done) == (3, 9)
    # a stack of theta takes one integration per distinct law, at either sign
    integrals = count_calls(monkeypatch, laws_module, "_capacity_integrals")
    perron_grid(fresh, [-0.1, -0.2, -0.3])
    assert quadratures(done) == (4, 12)
    assert integrals[-1][0].shape == (3, 3)


def test_mixed_kernel_transform_is_each_laws_own():
    plain, other = RayleighCapacity(20.0, 10.0), RayleighCapacity(5.0, 0.3)
    pmf = DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    shifted = Shifted(RayleighCapacity(20.0, 2.0), -1.5)
    laws = ((plain, Negated(other), pmf), (pmf, shifted, plain), (Negated(other), pmf, shifted))
    p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.0, 0.7]])
    k = MapKernel(("a", "b", "c"), p, laws, np.full(3, 1.0 / 3.0))
    thetas = np.array([-0.7, -0.1, 0.0, 0.05, 0.3])
    done = counters.tally()
    f = transform_matrix(k, thetas)
    # the plain Rayleigh law in the kernel's quadrature; Negated and Shifted
    # integrate their inner laws on their own
    assert quadratures(done) == (3, 3)
    for kind, fn in (("mgf", transform_matrix), ("tilted_mean", _transform_derivative)):
        for t, theta in enumerate(thetas):
            matrix = fn(k, float(theta))
            for i, j in zip(*np.nonzero(p)):
                law_value = getattr(laws[i][j], kind)(float(theta))
                assert matrix[i, j] == p[i, j] * law_value
                if kind == "mgf":
                    assert f[t, i, j] == p[i, j] * law_value
    assert (f[:, 2, 1] == 0.0).all()


def test_entrywise_is_each_cells_product_bit_for_bit():
    # every law class, equal laws as separate objects and a zero-probability
    # cell, on a theta stack with one diverging theta
    rayleigh, pmf = RayleighCapacity(20.0, 3.0), DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    laws = ((Constant(1.0), pmf, Constant(9.0)),
            (Shifted(pmf, 0.5), rayleigh, Negated(RayleighCapacity(5.0, 0.3))),
            (Negated(Negated(RayleighCapacity(20.0, 2.0))), Constant(1.0),
             RayleighCapacity(20.0, 3.0)))
    p = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
    k = MapKernel(("a", "b", "c"), p, laws, np.full(3, 1.0 / 3.0))
    assert k._law_table[0] == (laws[0][0], pmf, laws[1][0], rayleigh, laws[1][2], laws[2][0])
    thetas = np.array([-0.3, 0.0, 0.2, 800.0])
    for kind, fn in (("mgf", transform_matrix), ("tilted_mean", _transform_derivative)):
        expected = np.zeros((len(thetas), 3, 3))
        for i, j in zip(*np.nonzero(p)):
            expected[:, i, j] = p[i, j] * getattr(laws[i][j], kind)(thetas)
        got = spectral_module._entrywise(k, thetas, kind, kind)
        assert got.tobytes() == expected.tobytes()
        assert not np.isfinite(got[-1]).all()
        assert fn(k, 0.2).tobytes() == expected[2].tobytes()
        with pytest.raises(MgfDiverged, match="not finite at theta=800.0"):
            fn(k, 800.0)


def test_stacked_transform_evaluates_each_step_in_one_buffer():
    # 201 theta of a 4-law kernel: the quadrature's peak is at most twice its
    # (law, theta, node) buffer at the finest step it reaches
    snr = np.repeat(np.array([[10.0], [5.0], [1.0], [0.3]]), 4, axis=1)
    k = capacity_kernel(np.full((4, 4), 0.25), ChannelSpec(20.0, snr, tuple("abcd")))
    thetas = -np.linspace(0.5, 40.0, 201)
    transform_matrix(k, thetas)  # builds the node arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        transform_matrix(k, thetas)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    stack = k._rayleigh[0]
    m = stack._level_nodes(len(stack._nodes) - 1)[0].shape[1]
    assert len(stack.snr) == 4
    assert peak <= 2 * 8 * 4 * len(thetas) * m


def test_perron_keeps_its_solutions_on_the_kernel():
    k = _row_constant_capacity_kernel()
    done = counters.tally()

    def work():
        counted = done()
        return counted["scalar_solves"], counted["rayleigh_integrations"]

    sol = perron(k, 0.2)
    assert work() == (1, 3)
    assert perron(k, 0.2) is sol
    assert work() == (1, 3)
    # a solution at another theta is kept beside it
    assert perron(k, -0.2) is perron(k, -0.2)
    assert work() == (2, 6)
    # a value-equal kernel built separately shares nothing
    twin = _row_constant_capacity_kernel()
    again = perron(twin, 0.2)
    assert work() == (3, 9)
    assert done()["quadrature_calls"] == 3  # one quadrature call per kernel transform
    assert again is not sol and again.kappa == sol.kappa
    assert np.array_equal(again.h, sol.h) and np.array_equal(again.v, sol.v)


def test_perron_keeps_no_failure():
    k = _row_constant_capacity_kernel()
    for _ in range(2):
        with pytest.raises(MgfDiverged, match=r"theta=5\.0"):
            perron(k, 5.0)
    service, theta_star = _gate_failing_service()
    for _ in range(2):
        with pytest.raises(NoConvergence):
            perron(service, -4.0 * theta_star)
    assert 5.0 not in k._solutions and -4.0 * theta_star not in service._solutions


def test_perron_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(spectral_module, "_SOLUTION_LIMIT", 3)
    k = random_kernel(np.random.default_rng(15), 3)
    for theta in (0.01, 0.02, 0.03, 0.04, 0.05):
        perron(k, theta)
        assert len(k._solutions) <= 3
    fresh = random_kernel(np.random.default_rng(15), 3)
    assert perron(k, 0.05).kappa == perron(fresh, 0.05).kappa


def test_cached_eigenvectors_are_read_only():
    sol = perron(random_kernel(np.random.default_rng(16), 3), 0.3)
    with pytest.raises(ValueError):
        sol.h[0] = 1.0
    with pytest.raises(ValueError):
        sol.v[0] = 1.0


def test_stationary_distribution_is_solved_once_and_read_only(monkeypatch):
    solves = count_calls(monkeypatch, np.linalg, "lstsq")
    k = random_kernel(np.random.default_rng(5), 3)
    pi = k.stationary
    assert k.stationary is pi and perron(k, 0.4).kernel.stationary is pi
    assert len(solves) == 1
    with pytest.raises(ValueError):
        pi[0] = 0.5


@pytest.mark.parametrize("lam", [2.999, 2.9995])
def test_stability_root_below_the_first_probe(toy_service, lam):
    # combined cgf theta^2 - (3 - lam) theta: theta* = 3 - lam < 1e-3, so the
    # first probe already lies above the root and the bracket is halved down
    root = stability_root(single_state_kernel(Constant(lam)), toy_service)
    assert root.theta_star == pytest.approx(3.0 - lam, rel=1e-6)
    assert root.arrival.kappa == pytest.approx(lam * (3.0 - lam), rel=1e-6)


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


def test_positive_root_names_a_bracket_search_without_a_sign_change():
    # f = -theta stays negative up to 1e-3 * 2^128, and f = theta stays
    # positive down to 1e-3 * 2^-64
    top, bottom = re.escape(str(1e-3 * 2.0 ** 128)), re.escape(str(1e-3 * 2.0 ** -64))
    with pytest.raises(NoRootInDomain, match=f"^falling equation never crossed zero up to "
                                             f"theta={top}$"):
        spectral_module.positive_root(lambda t: -t, "falling equation")
    with pytest.raises(NoRootInDomain, match=f"^rising equation stays nonnegative down to "
                                             f"theta={bottom}$"):
        spectral_module.positive_root(lambda t: t, "rising equation")


def test_zeroin_returns_an_endpoint_where_f_is_exactly_zero():
    # as brentq does, with no step beyond the two endpoint values
    for root in (0.25, 1.0):
        thetas = []
        f = _recording(lambda t: t - root, thetas)
        assert spectral_module._zeroin(f, 0.25, 1.0, "edge equation") == root
        assert thetas == [0.25, 1.0]


def test_stability_root_names_a_root_residual_above_its_gate(monkeypatch):
    # a root search that returns theta = 1, where the toy's combined cgf
    # theta^2 - 2 theta is -1
    monkeypatch.setattr(spectral_module, "positive_root", lambda f, what: 1.0)
    arrival = single_state_kernel(Constant(1.0))
    service = single_state_kernel(gaussian_quantized(3.0, math.sqrt(2.0)))
    with pytest.raises(NoRootInDomain, match=r"^combined cgf kappa\^A \+ kappa\^-S: root "
                                             r"residual \S+ above 1e-10 at theta=1\.0$") as raised:
        stability_root(arrival, service)
    residual = float(str(raised.value).split("residual ")[1].split()[0])
    assert residual == pytest.approx(1.0, rel=1e-12)


def test_an_eigen_residual_above_the_gate_fails_the_solve(monkeypatch):
    # the residual of this kernel at theta = 0.4 is 7.8e-16, above a gate of 0
    kernel = random_kernel(np.random.default_rng(7), 3)
    monkeypatch.setattr(spectral_module, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(NoConvergence, match=r"^eigen residual \S+ above 0\.0 at theta=0\.4$"):
        perron(kernel, 0.4)
    assert kernel._solutions == {}
    stack = perron_grid(kernel, [0.4])
    assert stack.solved.tolist() == [False] and np.isnan(stack.h).all()


def _pmf_service_beyond_the_eigensolve():
    laws = ((DiscretePmf((2.0, 4.8), (0.5, 0.5)),) * 2, (DiscretePmf((0.3, 2.4), (0.5, 0.5)),) * 2)
    return MapKernel(("s0", "s1"), np.array([[0.53, 0.47], [0.28, 0.72]]), laws,
                     np.array([0.5, 0.5]))


@pytest.mark.parametrize("role, arrival, service", [
    # from theta ~ 65 the negated service transform spans more magnitudes
    # than the eigensolve resolves
    ("negated service", lambda: Constant(0.3), _pmf_service_beyond_the_eigensolve),
    # theta* = 1, but e^{800 theta} overflows from theta ~ 0.89
    ("arrival", lambda: Constant(800.0),
     lambda: single_state_kernel(gaussian_quantized(801.0, math.sqrt(2.0)))),
], ids=["negated-service", "arrival"])
def test_stability_root_failure_names_the_kernel_role(role, arrival, service):
    # the service's own argument is -theta
    sign = "-" if role == "negated service" else ""
    with pytest.raises(NoRootInDomain, match=rf"combined cgf .* theta=\d.*where the {role} "
                                             rf"kernel fails: .* theta={sign}\d"):
        stability_root(single_state_kernel(arrival()), service())


def _recording(f, thetas):
    def g(theta):
        thetas.append(theta)
        return f(theta)

    return g


def _refines_as_brentq(monkeypatch, f, what):
    """Whether positive_root refined f as scipy's brentq does on the same
    bracket: the same thetas evaluated, the same root bit for bit.  None
    where the bracket search raised NoRootInDomain before refining."""
    from scipy.optimize import brentq  # the reference; mapq itself never imports it

    real, ours = spectral_module._zeroin, []

    def spy(g, lo, hi, what):
        ours.append((lo, hi))
        return real(_recording(g, ours), lo, hi, what)

    monkeypatch.setattr(spectral_module, "_zeroin", spy)
    try:
        root = spectral_module.positive_root(f, what)
    except NoRootInDomain:
        assert not ours
        return None
    (lo, hi), *evaluated = ours
    theirs = []
    expected = brentq(_recording(f, theirs), lo, hi, xtol=1e-15, rtol=8.9e-16)
    return root.hex() == float(expected).hex() and evaluated == theirs


@pytest.mark.parametrize("root", [0.7, 2e-4])
def test_zeroin_is_brentq_on_closed_form_roots(monkeypatch, root):
    for f in (lambda t: t * t - root * t, lambda t: math.expm1(t - root)):
        assert _refines_as_brentq(monkeypatch, f, "test equation")


def test_zeroin_is_brentq_on_random_kernel_equations(monkeypatch):
    # 36 stable pairs: the stability equation and horizon_delay_bound's
    # derivative equation at y = 2, where its bracket search finds a bracket
    rng = np.random.default_rng(2024)
    pairs = []
    while len(pairs) < 36:
        arrival = random_kernel(rng, 2)
        service = random_kernel(rng, 1 + len(pairs) % 4, mean_offset=0.5)
        if mean_rate(arrival) < mean_rate(service):
            pairs.append((arrival, service))
    horizon = []
    for a, s in pairs:
        assert _refines_as_brentq(monkeypatch, lambda t: perron(a, t).kappa + perron(s, -t).kappa,
                                  "stability equation")
        horizon.append(_refines_as_brentq(
            monkeypatch, lambda t: -2.0 * perron(s, -t).kappa_dot + perron(a, t).kappa_dot,
            "horizon delay equation"))
    assert False not in horizon and horizon.count(True) >= 30


def test_zeroin_is_brentq_where_the_extrapolation_divides_by_zero():
    # values near 1e-160 make the slopes' product dblk * dpre underflow to 0,
    # where brentq.c divides to inf or NaN and bisects; _zeroin takes the
    # ZeroDivisionError branch to the same bisection
    from scipy.optimize import brentq  # the reference; mapq itself never imports it

    def f(theta):
        return 1e-160 * math.expm1(3.0 * (theta - 0.3))

    code = spectral_module._zeroin.__code__
    lines, first = inspect.getsourcelines(code)
    handler = first + next(i for i, line in enumerate(lines) if "except ZeroDivisionError" in line)
    handled = []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == handler + 1:
                handled.append(frame.f_lineno)
            return line
        return line

    ours, theirs = [], []
    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        root = spectral_module._zeroin(_recording(f, ours), 0.0, 1.0, "underflow equation")
    finally:
        sys.settrace(outer)
    expected = brentq(_recording(f, theirs), 0.0, 1.0, xtol=spectral_module._XTOL,
                      rtol=spectral_module._RTOL, maxiter=spectral_module._MAXITER)
    assert ours == theirs and root.hex() == float(expected).hex()
    assert handled


def test_zeroin_names_a_nan_value_and_theta():
    # bracketed on [0.256, 0.512]; the first secant step lands in the NaN gap
    def f(theta):
        return math.nan if 0.26 < theta < 0.5 else theta - 0.3

    with pytest.raises(NoRootInDomain, match=r"gap equation is NaN at theta=0\.\d"):
        spectral_module.positive_root(f, "gap equation")


def test_zeroin_names_the_iteration_cap_and_theta():
    # a triple root: each secant step stays short, but the bracket shrinks
    # too slowly to pass the tolerance test within 100 steps
    thetas = []
    f = _recording(lambda t: (t - 0.3) ** 3, thetas)
    with pytest.raises(NoRootInDomain,
                       match=r"cubic equation did not converge in 100 steps, at theta=0\.\d"):
        spectral_module.positive_root(f, "cubic equation")
    assert len(thetas) == 10 + 2 + 100  # bracket search, the bracket again, one value per step


def test_stability_root_carries_its_solutions_at_theta_star():
    rng = np.random.default_rng(11)
    arrival = random_kernel(rng, 2, mean_offset=1.0, spread=0.5)
    service = random_kernel(rng, 3, mean_offset=2.0, spread=0.5)
    root = stability_root(arrival, service)
    # the service's solution is at -theta*
    for sol, kernel, theta in ((root.arrival, arrival, root.theta_star),
                               (root.service, service, -root.theta_star)):
        # a value-equal kernel keeps no solutions, so this solves theta* again
        fresh = MapKernel(kernel.state_labels, kernel.transition, kernel.increments,
                          kernel.initial_dist)
        again = perron(fresh, theta)
        assert sol.theta == theta
        assert sol.kappa == again.kappa and np.array_equal(sol.h, again.h)
        assert sol.kappa_dot == again.kappa_dot
    assert root.residual == abs(root.arrival.kappa + root.service.kappa)


def test_kappa_dot_is_computed_once_and_only_when_read(monkeypatch):
    derivatives = count_calls(monkeypatch, spectral_module, "_transform_derivative")
    k = random_kernel(np.random.default_rng(6), 3)
    sol = perron(k, 0.3)
    assert derivatives == []
    assert sol.kappa_dot == sol.kappa_dot
    assert len(derivatives) == 1
    # kappa'(0) read from the solution at theta = 0 is the mean rate
    assert perron(k, 0.0).kappa_dot == pytest.approx(mean_rate(k), rel=1e-12)


def test_mean_rate_is_the_stationary_mean_with_no_eigensolve():
    k = random_kernel(np.random.default_rng(12), 3)
    done = counters.tally()
    rate = mean_rate(k)
    assert done()["scalar_solves"] == 0 and k._solutions == {}
    # sum_ij pi_i p_ij E[H_ij], from each law's own tilted mean at 0
    zero = np.zeros(1)
    expected = [[k.transition[i, j] * k.law(i, j).tilted_mean(zero)[0] for j in range(3)]
                for i in range(3)]
    assert rate == float(k.stationary @ np.array(expected).sum(axis=1))
    assert rate == pytest.approx(perron(k, 0.0).kappa_dot, rel=1e-12)


@pytest.mark.parametrize("make", [
    _row_constant_capacity_kernel,
    lambda: random_kernel(np.random.default_rng(30), 3),
    lambda: single_state_kernel(Constant(0.7)),
], ids=["rayleigh", "pmf", "one-state-constant"])
def test_ladder_stack_rows_are_the_scalar_transforms_bit_for_bit(make):
    # the ladder, and the negated ladder that a kernel evaluated at -theta stacks
    for ladder in (spectral_module._LADDER, [-t for t in spectral_module._LADDER]):
        k = make()
        for transform, scalar in (("mgf", transform_matrix),
                                  ("tilted_mean", _transform_derivative)):
            # the first scalar call at the ladder's first point stacks the rest
            scalar(k, ladder[0])
            assert sorted(k._ladder) == sorted((transform, t) for t in ladder[1:])
            k._ladder.clear()
            spectral_module._stack_ladder(k, transform, ladder)
            stacked = dict(k._ladder)
            assert sorted(t for _, t in stacked) == sorted(ladder)
            k._ladder.clear()
            for (_, theta), row in stacked.items():
                assert scalar(k, theta).tobytes() == row.tobytes()
            # a scalar call at a stacked theta returns the stacked row, once
            k._ladder.update(stacked)
            theta = ladder[3]
            assert scalar(k, theta) is stacked[(transform, theta)]
            assert scalar(k, theta) is not stacked[(transform, theta)]
            k._ladder.clear()


def test_ladder_stack_skips_the_transform_matrices_perron_has_solved():
    k = random_kernel(np.random.default_rng(31), 2)
    solved = spectral_module._LADDER[2]
    perron(k, solved)
    spectral_module._stack_ladder(k, "mgf", spectral_module._LADDER)
    assert ("mgf", solved) not in k._ladder and len(k._ladder) == 7
    k._ladder.clear()
    spectral_module._stack_ladder(k, "tilted_mean", spectral_module._LADDER)
    assert ("tilted_mean", solved) in k._ladder


def test_a_diverged_ladder_row_is_left_out_and_its_scalar_call_raises(monkeypatch):
    # e^{6000 theta} overflows from theta = 0.128, the ladder's last point
    k = single_state_kernel(Constant(6000.0))
    top = spectral_module._LADDER[-1]
    with pytest.raises(MgfDiverged) as unstacked:
        transform_matrix(single_state_kernel(Constant(6000.0)), top)
    spectral_module._stack_ladder(k, "mgf", spectral_module._LADDER)
    assert sorted(t for _, t in k._ladder) == list(spectral_module._LADDER[:-1])
    with pytest.raises(MgfDiverged) as stacked:
        transform_matrix(k, top)
    assert str(stacked.value) == str(unstacked.value)
    assert str(stacked.value) == f"transform matrix not finite at theta={top}"
    k._ladder.clear()
    # a root that walks into it fails as it would unstacked, and keeps no row
    failures = []
    for stack in (False, True):
        kernel = single_state_kernel(Constant(6000.0))
        with monkeypatch.context() as m, pytest.raises(NoRootInDomain) as err:
            if not stack:
                m.setattr(spectral_module, "_stack_ladder", lambda *args: None)
            spectral_module.positive_root(lambda t: perron(kernel, t).kappa - 7000.0 * t, "f")
        failures.append(str(err.value))
        assert kernel._ladder == {}
    assert failures[0] == failures[1] and f"theta={top}" in failures[0]


def test_stability_root_on_stacked_ladder_transforms_is_the_unstacked_root(monkeypatch):
    # theta* is about 0.027, so the walk leaves the rows from 0.064 up unread,
    # and they stay on the kernels
    roots = []
    for stack in (True, False):
        arrival = random_kernel(np.random.default_rng(32), 2, mean_offset=30.0, spread=0.5)
        service = _row_constant_capacity_kernel()
        with monkeypatch.context() as m:
            if not stack:
                m.setattr(spectral_module, "_stack_ladder", lambda *args: None)
            roots.append(stability_root(arrival, service))
        # the service, at -theta, keeps the rows of the negated ladder
        for k, sign in ((arrival, 1.0), (service, -1.0)):
            left = dict(k._ladder)
            assert sorted(left) == (sorted(("mgf", sign * t) for t in spectral_module._LADDER[6:])
                                    if stack else [])
            k._ladder.clear()
            for (_, theta), row in left.items():
                assert transform_matrix(k, theta).tobytes() == row.tobytes()
    stacked, unstacked = roots
    assert 0.02 < stacked.theta_star < 0.032
    assert stacked.theta_star == unstacked.theta_star
    for a, b in ((stacked.arrival, unstacked.arrival), (stacked.service, unstacked.service)):
        assert a.kappa == b.kappa and a.h.tobytes() == b.h.tobytes()


def test_stability_root_quadratures_on_a_fresh_capacity_kernel():
    # one for the mean rate, one for the ladder stack and one per Brent step
    service = _row_constant_capacity_kernel()
    done = counters.tally()
    stability_root(single_state_kernel(Constant(30.0)), service)
    assert quadratures(done) == (9, 27)


def test_a_capacity_kernel_family_is_validated_once(monkeypatch):
    checks = count_calls(monkeypatch, MapKernel, "__post_init__")
    k = _row_constant_capacity_kernel()
    assert len(checks) == 1
    started = k.started_at([0.2, 0.3, 0.5])
    assert len(checks) == 1 and started.stationary is k.stationary
    assert started.transition is k.transition and started.increments is k.increments
    assert started.initial_dist.tolist() == [0.2, 0.3, 0.5]
    assert not started.initial_dist.flags.writeable
    with pytest.raises(ValueError, match="initial_dist must be a length-n probability vector"):
        k.started_at([0.2, 0.3, 0.6])


def _gate_failing_service():
    """The 2-state service of test_dcc_upper_backs_off_where_the_eigensolve_fails
    and its theta* against constant arrivals at rate 5.4428; from about -2 theta*
    down perron rejects its eigenpair."""
    m = (5.248, 9.908)
    laws = tuple(
        tuple(DiscretePmf((m[j] - 0.3, m[j], m[j] + 0.3), (0.25, 0.5, 0.25)) for j in range(2))
        for _ in range(2)
    )
    service = MapKernel(("s0", "s1"), np.array([[0.32, 0.68], [0.614, 0.386]]), laws,
                        np.array([0.5, 0.5]))
    theta_star = stability_root(single_state_kernel(Constant(5.4428)), service).theta_star
    return service, theta_star


def test_perron_failures_name_theta():
    service, theta_star = _gate_failing_service()
    theta = -4.0 * theta_star
    with pytest.raises(NoConvergence, match=f"theta={theta}"):
        perron(service, theta)
    stack = perron_grid(service, [theta, -0.5 * theta_star])
    _assert_row_failed(stack, 0, service, NoConvergence, theta)


def _assert_row_is_solution(stack, k, sol):
    assert stack.solved[k] and stack.theta[k] == sol.theta
    np.testing.assert_allclose(stack.h[k], sol.h, rtol=1e-12)


def _assert_row_failed(stack, k, kernel, error, theta):
    """Row k of the stack is NaN at theta, where perron raises `error` naming theta."""
    with pytest.raises(error, match=f"theta={re.escape(str(theta))}"):
        perron(kernel, theta)
    assert stack.theta[k] == theta and not stack.solved[k]
    assert np.isnan(stack.h[k]).all()


@pytest.mark.parametrize("case", ["random", "rayleigh"])
def test_perron_grid_matches_perron_slice_by_slice(case):
    if case == "random":
        kernel = random_kernel(np.random.default_rng(13), 4)
        thetas = np.linspace(-0.8, 0.8, 17)
    else:
        snr = np.array([[300.0] * 3, [20.0] * 3, [0.7] * 3])
        p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
        kernel = capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c")))
        thetas = -np.geomspace(1e-3, 0.5, 21)
    stack = perron_grid(kernel, thetas)
    assert stack.h.shape == (len(thetas), kernel.n_states)
    assert stack.solved.all()
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(kernel, theta))


def test_perron_grid_fails_each_theta_alone():
    service, theta_star = _gate_failing_service()
    # at theta 100 the transforms overflow; -4 theta* fails the residual gate
    thetas = [-0.5 * theta_star, 100.0, -theta_star, -4.0 * theta_star, -1.5 * theta_star]
    got = perron_grid(service, thetas)
    _assert_row_failed(got, 1, service, MgfDiverged, 100.0)
    _assert_row_failed(got, 3, service, NoConvergence, thetas[3])
    for k in (0, 2, 4):
        _assert_row_is_solution(got, k, perron(service, thetas[k]))


def test_perron_grid_makes_one_eig_call_per_stack(monkeypatch):
    # a diverged transform is not solved; every other theta, failing the
    # residual gate or not, is a matrix of the stack's one _eig call, and
    # no scalar solve
    service, theta_star = _gate_failing_service()
    thetas = [-0.5 * theta_star, 100.0, -theta_star, -4.0 * theta_star]
    done = counters.tally()
    lapack = count_calls(monkeypatch, spectral_module, "_eig")
    perron_grid(service, thetas)
    assert len(lapack) == 1 and np.isfinite(lapack[0][0]).all()
    assert len(lapack[0][0]) == done()["stacked_matrices"] == 3 and done()["scalar_solves"] == 0


def test_perron_grid_of_a_one_state_kernel_is_closed_form(monkeypatch):
    # h = [1] for the whole stack, with no eigensolve
    done = counters.tally()
    lapack = count_calls(monkeypatch, spectral_module, "_eig")
    kernel = single_state_kernel(gaussian_quantized(3.0, math.sqrt(2.0)))
    # at rate 400 the transform e^400 is scaled by a power of two first
    thetas = np.array([-1.0, 0.0, 0.4, 2.5])
    stack = perron_grid(kernel, thetas)
    big = perron_grid(single_state_kernel(Constant(400.0)), [1.0])
    assert done()["stacked_matrices"] == 0 and lapack == []
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(kernel, theta))
    assert (stack.h == 1.0).all()
    assert big.solved[0] and big.h[0, 0] == 1.0


def test_one_state_perron_makes_no_eigensolve_call(monkeypatch):
    # perron decides the one-state case itself; a two-state kernel still goes
    # through _solve_one, once per theta
    service, theta_star = _gate_failing_service()
    solves = count_calls(monkeypatch, spectral_module, "_solve_one")
    k = single_state_kernel(DiscretePmf((-2.0, 0.5, 3.0), (0.2, 0.5, 0.3)))
    for theta in (-1.0, 0.0, 0.7):
        sol = perron(k, theta)
        assert not sol.h.flags.writeable and not sol.v.flags.writeable
    assert solves == []
    perron(service, 0.5 * theta_star + 1e-3)
    assert len(solves) == 1


def test_one_state_perron_grid_takes_the_law_transform_alone(monkeypatch):
    # no stacked transform matrix and no batched solve: the stack is p_00 times
    # the law's transform, solved where it is finite and positive
    k = single_state_kernel(DiscretePmf((-2.0, 0.5, 3.0), (0.2, 0.5, 0.3)))
    batched = count_calls(monkeypatch, spectral_module, "_solve_batched")
    entries = count_calls(monkeypatch, spectral_module, "_entrywise")
    thetas = np.array([-400.0, -1.0, 0.0, 0.7, 400.0])
    stack = perron_grid(k, thetas)
    assert batched == [] and entries == []
    assert stack.solved.tolist() == [False, True, True, True, False]
    assert np.isnan(stack.h[[0, 4]]).all() and (stack.h[1:4] == 1.0).all()
    assert stack.h.shape == (5, 1)


def test_two_state_perron_grid_of_finite_matrices_is_one_batched_solve(monkeypatch):
    # an all-finite stack goes to _solve_batched as it is, not as a masked copy
    service, theta_star = _gate_failing_service()
    stacks = []
    monkeypatch.setattr(spectral_module, "transform_matrix",
                        lambda *args: stacks.append(transform_matrix(*args)) or stacks[-1])
    batched = count_calls(monkeypatch, spectral_module, "_solve_batched")
    thetas = np.array([-0.25, -0.5, -1.0]) * theta_star
    stack = perron_grid(service, thetas)
    assert len(batched) == 1 and batched[0][1] is stacks[0] and stack.solved.all()
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(service, theta))


def test_solve_one_checks_h_and_v_as_the_rows_of_one_array():
    # the (2, n) checks give the bits of checking h and v one by one
    rng = np.random.default_rng(38)
    for _ in range(20):
        k = random_kernel(rng, int(rng.integers(2, 6)))
        theta = float(rng.uniform(-0.5, 0.5))
        f = transform_matrix(k, theta)
        sol = spectral_module._solve_one(k, theta, f)
        w, vr, vl = spectral_module._eig(f)
        j = w.real.argmax()
        lam = float(w.real[j])
        h, v = vr[:, j].real, vl[j].real
        h = h * math.copysign(1.0, h.sum())
        v = v * math.copysign(1.0, v.sum())
        residual = max(abs(f @ h - lam * h).max() / (lam * abs(h).max()),
                       abs(v @ f - lam * v).max() / (lam * abs(v).max()))
        h = h / float(k.stationary @ h)
        assert sol.residual == residual and sol.kappa == math.log(lam)
        assert sol.h.tolist() == h.tolist()
        assert sol.v.tolist() == (v / float(v @ h)).tolist()


def test_perron_grid_scales_a_multi_state_stack_by_powers_of_two():
    # the largest entries of F lie near 2^253, 2^508, 2^763 and 2^1017: the last
    # three pass 2^400, and unscaled dgeev fails the residual check there
    p = np.array([[0.4, 0.6], [0.7, 0.3]])
    laws = ((DiscretePmf((340.0, 347.0), (0.5, 0.5)), DiscretePmf((343.0, 350.0), (0.3, 0.7))),
            (DiscretePmf((345.0, 353.0), (0.6, 0.4)), DiscretePmf((341.0, 352.0), (0.5, 0.5))))
    kernel = MapKernel(("a", "b"), p, laws, np.array([0.5, 0.5]))
    thetas = np.array([0.5, 1.0, 1.5, 2.0])
    exponents = np.frexp(transform_matrix(kernel, thetas).max(axis=(1, 2)))[1]
    assert exponents.tolist() == [253, 508, 763, 1017]
    stack = perron_grid(kernel, thetas)
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(kernel, theta))


def test_perron_grid_of_no_theta_is_empty():
    kernel = random_kernel(np.random.default_rng(13), 3)
    stack = perron_grid(kernel, [])
    assert stack.theta.shape == stack.solved.shape == (0,)
    assert stack.h.shape == (0, 3)


def test_perron_grid_where_every_theta_fails():
    service, theta_star = _gate_failing_service()
    # the two large negative theta fail the residual gate, the positive ones overflow
    thetas = [-4.0 * theta_star, 100.0, -6.0 * theta_star, 200.0]
    stack = perron_grid(service, thetas)
    assert not stack.solved.any()
    for k, (theta, error) in enumerate(zip(thetas, (NoConvergence, MgfDiverged) * 2)):
        _assert_row_failed(stack, k, service, error, theta)


def _oracle_perron(kernel, theta):
    """kappa, h and v at theta from scipy's eig with both eigenvector sides,
    normalized as perron normalizes them."""
    from scipy.linalg import eig  # the reference; mapq itself never imports it

    w, vl, vr = eig(transform_matrix(kernel, theta), left=True)
    k = w.real.argmax()
    h = vr[:, k].real / (kernel.stationary @ vr[:, k].real)
    v = vl[:, k].real / (vl[:, k].real @ h)
    return math.log(w[k].real), h, v


def test_perron_matches_scipys_eig_on_random_kernels():
    # kappa and h come from the same LAPACK geev as scipy's; v comes from the
    # inverse of the right eigenvectors, which rounds differently from geev's
    # own left eigenvectors
    rng = np.random.default_rng(27)
    cases = [(random_kernel(np.random.default_rng(seed), 2 + seed % 7), rng.uniform(-1.0, 1.0))
             for seed in range(50)]
    cases.append((random_kernel(np.random.default_rng(70), 70, concentration=20.0), 0.4))
    for kernel, theta in cases:
        sol = perron(kernel, theta)
        kappa, h, v = _oracle_perron(kernel, theta)
        assert sol.kappa == pytest.approx(kappa, rel=1e-13)
        np.testing.assert_allclose(sol.h, h, rtol=1e-13)
        np.testing.assert_allclose(sol.v, v, rtol=1e-12)


def test_perron_grid_mixing_real_and_complex_spectra_matches_perron():
    # a 3-cycle with self-loops: F has a complex non-Perron pair at small
    # theta, and growing distinct diagonal entries make its spectrum real at
    # large theta
    p = np.array([[0.1, 0.9, 0.0], [0.0, 0.1, 0.9], [0.9, 0.0, 0.1]])
    zero = Constant(0.0)
    laws = ((zero, zero, zero), (zero, Constant(1.0), zero), (zero, zero, Constant(2.0)))
    kernel = MapKernel(("a", "b", "c"), p, laws, np.full(3, 1.0 / 3.0))
    thetas = np.array([0.0, 3.0, 1.0, 3.5, 2.0, 4.0])
    complex_pair = [bool(np.iscomplex(np.linalg.eigvals(f)).any())
                    for f in transform_matrix(kernel, thetas)]
    assert complex_pair == [True, False, True, False, True, False]
    stack = perron_grid(kernel, thetas)
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(kernel, theta))


def _fail_dgeev_on(monkeypatch, bad):
    """Make _eig return NaN for the matrix `bad`, alone or in a stack, as
    numpy's eigensolve does where dgeev does not converge."""
    real = spectral_module._eig

    def eig(f):
        out = real(f)
        hit = (f == bad).all(axis=(-2, -1))
        for x in out:
            x[hit] = np.nan
        return out

    monkeypatch.setattr(spectral_module, "_eig", eig)


def test_perron_fails_where_dgeev_does_not_converge(monkeypatch):
    kernel = random_kernel(np.random.default_rng(14), 3)
    _fail_dgeev_on(monkeypatch, transform_matrix(kernel, 0.1))
    with pytest.raises(NoConvergence, match=r"eigensolve failed at theta=0\.1"):
        perron(kernel, 0.1)
    assert 0.1 not in kernel._solutions
    assert isinstance(perron(kernel, 0.2), SpectralSolution)  # another matrix solves


def test_perron_grid_survives_a_failed_stacked_eigensolve(monkeypatch):
    # a matrix of a stack where dgeev does not converge comes back NaN from
    # the stack's one eigensolve, so it fails its theta alone, as perron fails there
    kernel = random_kernel(np.random.default_rng(14), 3)
    thetas = np.array([-0.3, 0.1, 0.4])
    expected = {k: perron(kernel, thetas[k]) for k in (0, 2)}
    _fail_dgeev_on(monkeypatch, transform_matrix(kernel, thetas[1]))
    got = perron_grid(kernel, thetas)
    _assert_row_failed(got, 1, kernel, NoConvergence, 0.1)
    for k, sol in expected.items():
        _assert_row_is_solution(got, k, sol)
    with pytest.raises(NoConvergence) as err:
        perron(kernel, 0.1)
    assert str(err.value) == "eigensolve failed at theta=0.1: eigenpair not finite"
