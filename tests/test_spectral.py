"""Spectral quantities of Markov additive kernels: eigentriples, cgf, roots."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, law_integrations, random_kernel
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
    negate,
    perron,
    perron_grid,
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


def test_one_state_perron_is_closed_form(monkeypatch):
    # kappa = log F, h = v = pi = [1], with no LAPACK call
    lapack = count_calls(monkeypatch, spectral_module, "dgeev")
    stacked = count_calls(monkeypatch, np.linalg, "eig")
    k = single_state_kernel(DiscretePmf((-2.0, 0.5, 3.0), (0.2, 0.5, 0.3)))
    for theta in (-3.0, -0.1, 0.0, 0.7, 2.0):
        sol = perron(k, theta)
        assert sol.kappa == math.log(transform_matrix(k, theta)[0, 0])
        assert sol.h.tolist() == sol.v.tolist() == sol.pi.tolist() == [1.0]
        assert sol.residual == 0.0
    assert lapack == [] and stacked == []


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


def _row_constant_capacity_kernel():
    """3-state Rayleigh service with nine cells and three distinct laws."""
    snr = np.array([[10.0] * 3, [5.0] * 3, [1.0] * 3])
    p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
    return capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c")))


def test_transform_quadrature_once_per_distinct_law(monkeypatch):
    integrals = count_calls(monkeypatch, laws_module, "_capacity_integrals")
    k = _row_constant_capacity_kernel()
    # one quadrature call per kernel transform integrates all three laws
    transform_matrix(k, 0.2)
    assert (len(integrals), law_integrations(integrals)) == (1, 3)
    # the laws keep no values: perron integrates again, then keeps its solution
    perron(k, 0.2)
    perron(k, 0.2)
    assert (len(integrals), law_integrations(integrals)) == (2, 6)
    fresh = _row_constant_capacity_kernel()
    assert perron(fresh, 0.2).kappa == perron(k, 0.2).kappa
    assert (len(integrals), law_integrations(integrals)) == (3, 9)
    # a stack of theta takes one integration per distinct law, negated or not
    perron_grid(negate(fresh), [0.1, 0.2, 0.3])
    assert (len(integrals), law_integrations(integrals)) == (4, 12)
    assert integrals[-1][0].shape == (3, 3)


def test_mixed_kernel_transform_is_each_laws_own(monkeypatch):
    integrals = count_calls(monkeypatch, laws_module, "_capacity_integrals")
    plain, other = RayleighCapacity(20.0, 10.0), RayleighCapacity(5.0, 0.3)
    pmf = DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    shifted = Shifted(RayleighCapacity(20.0, 2.0), -1.5)
    laws = ((plain, Negated(other), pmf), (pmf, shifted, plain), (Negated(other), pmf, shifted))
    p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.0, 0.7]])
    k = MapKernel(("a", "b", "c"), p, laws, np.full(3, 1.0 / 3.0))
    thetas = np.array([-0.7, -0.1, 0.0, 0.05, 0.3])
    f = transform_matrix(k, thetas)
    # the two Rayleigh laws, negated or not, in one quadrature; Shifted keeps its own
    assert sorted(len(args[0]) for args in integrals) == [1, 2]
    for kind, fn in (("mgf", transform_matrix), ("tilted_mean", _transform_derivative)):
        for t, theta in enumerate(thetas):
            matrix = fn(k, float(theta))
            for i, j in zip(*np.nonzero(p)):
                law_value = getattr(laws[i][j], kind)(float(theta))
                assert matrix[i, j] == p[i, j] * law_value
                if kind == "mgf":
                    assert f[t, i, j] == p[i, j] * law_value
    assert (f[:, 2, 1] == 0.0).all()


def test_stacked_transform_evaluates_each_step_in_one_buffer():
    # 201 theta of a 4-law kernel: the quadrature's peak is at most twice its
    # (law, theta, node) buffer at the finest step it reaches
    snr = np.repeat(np.array([[10.0], [5.0], [1.0], [0.3]]), 4, axis=1)
    k = negate(capacity_kernel(np.full((4, 4), 0.25), ChannelSpec(20.0, snr, tuple("abcd"))))
    thetas = np.linspace(0.5, 40.0, 201)
    transform_matrix(k, thetas)  # builds the node arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        transform_matrix(k, thetas)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    stack = k._transform_groups[1]
    m = stack._level_nodes(len(stack._nodes))[0].shape[1]
    assert len(stack.inner) == 4
    assert peak <= 2 * 8 * 4 * len(thetas) * m


def test_perron_keeps_its_solutions_on_the_kernel(monkeypatch):
    solves = count_calls(monkeypatch, spectral_module, "_solve_one")
    integrals = count_calls(monkeypatch, laws_module, "_capacity_integrals")
    k = _row_constant_capacity_kernel()
    sol = perron(k, 0.2)
    assert (len(solves), law_integrations(integrals)) == (1, 3)
    assert perron(k, 0.2) is sol
    assert (len(solves), law_integrations(integrals)) == (1, 3)
    # negate builds the negated kernel once, so its solutions are kept too
    assert negate(k) is negate(k)
    assert perron(negate(k), -0.2) is perron(negate(k), -0.2)
    assert (len(solves), law_integrations(integrals)) == (2, 6)
    # a value-equal kernel built separately shares nothing
    twin = _row_constant_capacity_kernel()
    again = perron(twin, 0.2)
    assert (len(solves), law_integrations(integrals)) == (3, 9)
    assert len(integrals) == 3  # one quadrature call per kernel transform
    assert again is not sol and again.kappa == sol.kappa
    assert np.array_equal(again.h, sol.h) and np.array_equal(again.v, sol.v)


def test_perron_keeps_no_failure():
    k = _row_constant_capacity_kernel()
    for _ in range(2):
        with pytest.raises(MgfDiverged, match=r"theta=5\.0"):
            perron(k, 5.0)
    service, theta_star = _gate_failing_service()
    neg = negate(service)
    for _ in range(2):
        with pytest.raises(NoConvergence):
            perron(neg, 4.0 * theta_star)
    assert 5.0 not in k._solutions and 4.0 * theta_star not in neg._solutions


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
            pairs.append((arrival, negate(service)))
    horizon = []
    for a, s in pairs:
        assert _refines_as_brentq(monkeypatch, lambda t: perron(a, t).kappa + perron(s, t).kappa,
                                  "stability equation")
        horizon.append(_refines_as_brentq(
            monkeypatch, lambda t: 2.0 * perron(s, t).kappa_dot + perron(a, t).kappa_dot,
            "horizon delay equation"))
    assert False not in horizon and horizon.count(True) >= 30


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
    for sol, kernel in ((root.arrival, arrival), (root.neg_service, negate(service))):
        # a value-equal kernel keeps no solutions, so this solves theta* again
        fresh = MapKernel(kernel.state_labels, kernel.transition, kernel.increments,
                          kernel.initial_dist)
        again = perron(fresh, root.theta_star)
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


def test_mean_rate_is_solved_once_per_kernel(monkeypatch):
    solves = count_calls(monkeypatch, spectral_module, "_solve_one")
    k = random_kernel(np.random.default_rng(12), 3)
    assert mean_rate(k) == mean_rate(k) == perron(k, 0.0).kappa_dot
    assert len(solves) == 1  # mean_rate reads perron's solution at theta = 0


def _gate_failing_service():
    """The 2-state service of test_dcc_upper_backs_off_where_the_eigensolve_fails
    and its theta* against constant arrivals at rate 5.4428; from about 2 theta*
    up perron rejects the eigenpair of its negation."""
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
    theta = 4.0 * theta_star
    with pytest.raises(NoConvergence, match=f"theta={theta}"):
        perron(negate(service), theta)
    failure = perron_grid(negate(service), [theta, 0.5 * theta_star]).failure[0]
    assert isinstance(failure, NoConvergence) and f"theta={theta}" in str(failure)


def _assert_row_is_solution(stack, k, sol):
    assert stack.failure[k] is None and stack.theta[k] == sol.theta
    assert stack.kappa[k] == pytest.approx(sol.kappa, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(stack.h[k], sol.h, rtol=1e-12)
    np.testing.assert_allclose(stack.v[k], sol.v, rtol=1e-12)
    assert stack.kappa_dot[k] == pytest.approx(sol.kappa_dot, rel=1e-12, abs=1e-12)


def _assert_row_failed(stack, k, error, theta):
    assert isinstance(stack.failure[k], error) and f"theta={theta}" in str(stack.failure[k])
    assert not stack.solved[k]
    assert np.isnan(stack.kappa[k]) and np.isnan(stack.h[k]).all() and np.isnan(stack.v[k]).all()


@pytest.mark.parametrize("case", ["random", "rayleigh"])
def test_perron_grid_matches_perron_slice_by_slice(case):
    if case == "random":
        kernel = random_kernel(np.random.default_rng(13), 4)
        thetas = np.linspace(-0.8, 0.8, 17)
    else:
        snr = np.array([[300.0] * 3, [20.0] * 3, [0.7] * 3])
        p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
        kernel = negate(capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c"))))
        thetas = np.geomspace(1e-3, 0.5, 21)
    stack = perron_grid(kernel, thetas)
    assert stack.h.shape == stack.v.shape == (len(thetas), kernel.n_states)
    assert stack.solved.all()
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(kernel, theta))


def test_perron_grid_fails_each_theta_alone():
    service, theta_star = _gate_failing_service()
    neg = negate(service)
    # at theta -100 the negated transforms overflow; 4 theta* fails the residual gate
    thetas = [0.5 * theta_star, -100.0, theta_star, 4.0 * theta_star, 1.5 * theta_star]
    got = perron_grid(neg, thetas)
    _assert_row_failed(got, 1, MgfDiverged, -100.0)
    _assert_row_failed(got, 3, NoConvergence, thetas[3])
    for k in (0, 2, 4):
        _assert_row_is_solution(got, k, perron(neg, thetas[k]))


def test_perron_grid_of_a_one_state_kernel_is_closed_form(monkeypatch):
    # kappa = log F, h = v = [1] for the whole stack, with no eigensolve
    stacked = count_calls(monkeypatch, np.linalg, "eig")
    lapack = count_calls(monkeypatch, spectral_module, "dgeev")
    kernel = single_state_kernel(gaussian_quantized(3.0, math.sqrt(2.0)))
    # at rate 400 the transform e^400 is scaled by a power of two first
    thetas = np.array([-1.0, 0.0, 0.4, 2.5])
    stack = perron_grid(kernel, thetas)
    big = perron_grid(single_state_kernel(Constant(400.0)), [1.0])
    assert stacked == [] and lapack == []
    for k, theta in enumerate(thetas):
        _assert_row_is_solution(stack, k, perron(kernel, theta))
    assert (stack.h == 1.0).all() and (stack.v == 1.0).all()
    assert big.kappa[0] == pytest.approx(400.0, rel=1e-12)


def test_perron_grid_of_no_theta_is_empty():
    kernel = random_kernel(np.random.default_rng(13), 3)
    stack = perron_grid(kernel, [])
    assert stack.theta.shape == stack.kappa.shape == stack.kappa_dot.shape == (0,)
    assert stack.h.shape == stack.v.shape == (0, 3)
    assert stack.failure == () and stack.solved.shape == (0,)


def test_perron_grid_where_every_theta_fails():
    service, theta_star = _gate_failing_service()
    neg = negate(service)
    # the two large theta fail the residual gate, the negative ones overflow
    thetas = [4.0 * theta_star, -100.0, 6.0 * theta_star, -200.0]
    stack = perron_grid(neg, thetas)
    assert not stack.solved.any()
    for k, (theta, error) in enumerate(zip(thetas, (NoConvergence, MgfDiverged) * 2)):
        _assert_row_failed(stack, k, error, theta)
    assert np.isnan(stack.kappa_dot).all()


def _fail_dgeev_on(monkeypatch, bad):
    """Make dgeev report no convergence (info > 0) for the matrix `bad`."""
    real = spectral_module.dgeev

    def dgeev(a, **kwargs):
        *out, info = real(a, **kwargs)
        return (*out, 1 if np.array_equal(a, bad) else info)

    monkeypatch.setattr(spectral_module, "dgeev", dgeev)


def test_perron_fails_where_dgeev_does_not_converge(monkeypatch):
    kernel = random_kernel(np.random.default_rng(14), 3)
    _fail_dgeev_on(monkeypatch, transform_matrix(kernel, 0.1))
    with pytest.raises(NoConvergence, match=r"eigensolve failed at theta=0\.1"):
        perron(kernel, 0.1)
    assert 0.1 not in kernel._solutions
    assert isinstance(perron(kernel, 0.2), SpectralSolution)  # another matrix solves


def test_perron_grid_survives_a_failed_stacked_eigensolve(monkeypatch):
    # numpy raises LinAlgError for the whole stack when one slice does not
    # converge; each slice is then solved on its own, and only the bad one fails
    kernel = random_kernel(np.random.default_rng(14), 3)
    thetas = np.array([-0.3, 0.1, 0.4])
    expected = [perron(kernel, t) for t in thetas]
    bad = transform_matrix(kernel, thetas[1])

    def stacked_eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", stacked_eig)
    _fail_dgeev_on(monkeypatch, bad)
    got = perron_grid(kernel, thetas)
    _assert_row_failed(got, 1, NoConvergence, 0.1)
    _assert_row_is_solution(got, 0, expected[0])
    _assert_row_is_solution(got, 2, expected[2])
