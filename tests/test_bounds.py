"""Analytic tail bounds: hand-algebra oracles on the single-state toy and
structural invariants on general kernels."""

import math

import numpy as np
import pytest

from conftest import count_calls, frechet_capacity_kernel, random_kernel
from mapq import bounds as bd
from mapq import spectral as spectral_module
from mapq.errors import NoRootInDomain, UnstableQueue
from mapq.laws import Constant, DiscretePmf, gaussian_quantized
from mapq.spectral import (
    MapKernel,
    negate,
    perron,
    single_state_kernel,
    stability_root,
)


def _average(reports):
    return [r for r in reports if r.conditioning == "average"]


def test_decay_rates_toy(toy_arrival, toy_service):
    delay_rate, backlog_rate = bd.decay_rates(toy_arrival, toy_service)
    assert delay_rate == pytest.approx(2.0, abs=1e-9)
    assert backlog_rate == pytest.approx(2.0, abs=1e-9)


def test_decay_rates_constant_arrival_scaling(toy_service):
    # with arrival Constant(lam), kappa^A(theta) = lam * theta exactly
    for lam in (0.5, 1.0, 2.0):
        arrival = single_state_kernel(Constant(lam))
        delay_rate, theta = bd.decay_rates(arrival, toy_service)
        assert delay_rate == pytest.approx(lam * theta, rel=1e-12)


def test_delay_bounds_toy_hand_algebra(toy_arrival, toy_service):
    # flat eigenvectors: H+ = 1, H- = e^{-2} -> P(D>d) in [e^{-2-2d}, e^{-2d}]
    reports = _average(bd.delay_bounds(toy_arrival, toy_service, [1, 2, 3]))
    for r, d in zip(reports, [1, 2, 3]):
        assert r.upper_raw == pytest.approx(math.exp(-2.0 * d), rel=1e-8)
        assert r.lower_raw == pytest.approx(math.exp(-2.0 - 2.0 * d), rel=1e-8)


def test_backlog_bounds_toy_hand_algebra(toy_arrival, toy_service):
    reports = _average(bd.backlog_bounds(toy_arrival, toy_service, [0.5, 1.5, 3.0]))
    for r, b in zip(reports, [0.5, 1.5, 3.0]):
        assert r.upper_raw == pytest.approx(math.exp(-2.0 * b), rel=1e-8)
        assert r.lower_raw == pytest.approx(math.exp(-2.0 - 2.0 * b), rel=1e-8)


def test_bound_ratio_is_level_independent():
    rng = np.random.default_rng(12)
    service = random_kernel(rng, 2, mean_offset=3.0)
    arrival = single_state_kernel(Constant(0.8 * 3.0))
    reports = _average(bd.delay_bounds(arrival, service, [1, 3, 7, 15]))
    ratios = [r.upper_raw / r.lower_raw for r in reports]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_upper_bound_decay_slope_is_exact():
    rng = np.random.default_rng(13)
    service = random_kernel(rng, 2, mean_offset=3.0)
    arrival = single_state_kernel(Constant(2.0))
    d_range = [2.0, 5.0, 9.0]
    reports = _average(bd.delay_bounds(arrival, service, d_range))
    root = bd.decay_rates(arrival, service)
    for r1, r2 in zip(reports, reports[1:]):
        slope = (math.log(r2.upper_raw) - math.log(r1.upper_raw)) / (r2.level - r1.level)
        assert slope == pytest.approx(-root[0], rel=1e-9)
    b_reports = _average(bd.backlog_bounds(arrival, service, d_range))
    for r1, r2 in zip(b_reports, b_reports[1:]):
        slope = (math.log(r2.upper_raw) - math.log(r1.upper_raw)) / (r2.level - r1.level)
        assert slope == pytest.approx(-root[1], rel=1e-9)


def test_bounds_clamped_to_unit_interval(toy_arrival, toy_service):
    r = _average(bd.delay_bounds(toy_arrival, toy_service, [0]))[0]
    assert 0.0 <= r.lower <= r.upper <= 1.0


def test_horizon_delay_toy_closed_form(toy_arrival, toy_service):
    # y kappa_dot^{-S} = -(y-1) kappa_dot^A with y=2:
    # 2(-3 + 2 theta) = -1 -> theta = 1.25; theta_y = -2(-3.75+1.5625) - 1.25
    r = bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, 4.0)
    assert r.theta == pytest.approx(1.25, abs=1e-9)
    assert r.theta_y == pytest.approx(3.125, abs=1e-9)
    assert r.bound_raw == pytest.approx(math.exp(-4.0 * 3.125), rel=1e-7)


def test_horizon_backlog_toy_closed_form(toy_arrival, toy_service):
    # y (kappa_dot^A + kappa_dot^{-S}) = 1 with y=1: 2 theta - 2 = 1
    r = bd.horizon_backlog_bound(toy_arrival, toy_service, 1.0, 2.0)
    assert r.theta == pytest.approx(1.5, abs=1e-9)
    assert r.theta_y == pytest.approx(2.25, abs=1e-9)


def test_horizon_exponent_is_concave_maximum(toy_arrival, toy_service):
    y = 2.0
    neg = negate(toy_service)
    r = bd.horizon_delay_bound(toy_arrival, toy_service, y, 1.0)
    grid = np.linspace(0.05, 2.45, 49)
    vals = [-y * perron(neg, t).kappa - (y - 1.0) * perron(toy_arrival, t).kappa for t in grid]
    assert r.theta_y >= max(vals) - 1e-9


def test_horizon_exponent_large_y_limits(toy_arrival, toy_service):
    # combined cgf theta^2 - 2 theta: as the horizon multiplier grows, the
    # optimizer theta(y) falls to the cgf minimizer (1) and the per-slot
    # exponent theta_y / y falls to the magnitude of the cgf minimum (1)
    thetas, per_slot = [], []
    for y in (2.0, 5.0, 20.0, 400.0):
        r = bd.horizon_delay_bound(toy_arrival, toy_service, y, 1.0)
        thetas.append(r.theta)
        per_slot.append(r.theta_y / y)
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert all(a > b for a, b in zip(per_slot, per_slot[1:]))
    assert thetas[-1] == pytest.approx(1.0, abs=5e-3)
    assert per_slot[-1] == pytest.approx(1.0, abs=5e-3)


def test_horizon_backlog_identity_at_y_gamma(toy_arrival, toy_service):
    probe = bd.horizon_backlog_bound(toy_arrival, toy_service, 0.5, 1.0)
    r = bd.horizon_backlog_bound(toy_arrival, toy_service, probe.y_gamma, 1.0)
    gamma = bd.decay_rates(toy_arrival, toy_service)[1]
    assert r.theta == pytest.approx(gamma, abs=1e-8)
    assert r.theta_y == pytest.approx(gamma, abs=1e-8)


def test_constant_arrival_backlog_is_rescaled_delay(toy_service):
    lam = 2.0
    arrival = single_state_kernel(Constant(lam))
    b_reports = bd.backlog_bounds(arrival, toy_service, [3.0, 6.0])
    d_reports = bd.delay_bounds(arrival, toy_service, [1.5, 3.0])
    for rb, rd in zip(b_reports, d_reports):
        assert rb.lower == rd.lower and rb.upper == rd.upper
        assert rb.conditioning == rd.conditioning


def test_delay_levels_are_whole_slots(toy_service):
    # P^d of a multi-state arrival chain needs whole d >= 0 (d = -1 used to
    # invert P, and 2.5 to mix P^2 with the decay at 2.5)
    arrival = MapKernel(("on", "off"), np.array([[0.8, 0.2], [0.3, 0.7]]),
                        ((Constant(1.0), Constant(0.0)), (Constant(1.0), Constant(0.0))),
                        np.array([0.5, 0.5]))
    for bad in (2.5, -1, float("inf")):
        with pytest.raises(ValueError, match="whole slots"):
            bd.delay_bounds(arrival, toy_service, [1, bad])
    # a one-state chain has P^d = [1], so any finite d >= 0 is defined
    constant = single_state_kernel(Constant(1.0))
    assert len(bd.delay_bounds(constant, toy_service, [2.5])) == 2
    with pytest.raises(ValueError, match="delay level"):
        bd.delay_bounds(constant, toy_service, [-1])


def test_constant_arrival_unstable(toy_service):
    with pytest.raises(UnstableQueue):
        bd.delay_bounds(single_state_kernel(Constant(3.5)), toy_service, [1])


def test_dcc_toy_value_at_root(toy_arrival, toy_service):
    # flat eigenvectors: bound at theta* = 2 is (-1/(2*10)) log(1e-3)
    r = bd.dcc_upper(toy_arrival, toy_service, 10.0, 1e-3)
    assert r.value_at_root == pytest.approx(-math.log(1e-3) / 20.0, rel=1e-9)
    assert 0.0 <= r.value <= r.value_at_root + 1e-12
    assert r.asymptotic_cap == pytest.approx(1.0, abs=1e-9)


def test_dcc_tightens_as_epsilon_shrinks(toy_arrival, toy_service):
    # a stricter violation probability permits less traffic only in the
    # -log(epsilon) numerator, so the rate bound grows as epsilon shrinks
    vals = [bd.dcc_upper(toy_arrival, toy_service, 10.0, eps).value
            for eps in (1e-2, 1e-4, 1e-6)]
    assert 0.0 <= vals[0] <= vals[1] <= vals[2]


def test_dcc_large_deadline_falls_below_asymptotic_cap(toy_arrival, toy_service):
    r_small = bd.dcc_upper(toy_arrival, toy_service, 1.0, 1e-6)
    r_large = bd.dcc_upper(toy_arrival, toy_service, 1000.0, 1e-6)
    assert r_large.value <= r_large.asymptotic_cap + 1e-12
    assert r_large.value_at_root < r_small.value_at_root


def test_dcc_upper_backs_off_where_the_eigensolve_fails():
    # from 2 theta* up the negated service transform has entries 1e-19 and
    # 1e-35 apart, and perron rejects the eigenpair (NoConvergence); the
    # theta_max probe and the grid treat that like a diverged MGF
    m = (5.248, 9.908)
    laws = tuple(
        tuple(DiscretePmf((m[j] - 0.3, m[j], m[j] + 0.3), (0.25, 0.5, 0.25)) for j in range(2))
        for _ in range(2)
    )
    service = MapKernel(("s0", "s1"), np.array([[0.32, 0.68], [0.614, 0.386]]), laws,
                        np.array([0.5, 0.5]))
    r = bd.dcc_upper(single_state_kernel(Constant(5.4428)), service, 10.0, 1e-3)
    assert math.isfinite(r.value) and math.isfinite(r.value_at_root)
    assert 0.0 <= r.value <= r.value_at_root


def test_constant_dcc_interval_defining_equations(toy_service):
    d, eps = 20.0, 1e-2
    varpi = np.array([1.0])
    lam_lo, lam_hi = bd.constant_dcc_interval(toy_service, d, eps, varpi)
    assert 0.0 < lam_lo <= lam_hi < 3.0
    # each endpoint satisfies its displayed equality at the coupled root
    for lam, endpoint in ((lam_lo, "lo"), (lam_hi, "hi")):
        theta = stability_root(single_state_kernel(Constant(lam)), toy_service).theta_star
        h = perron(negate(toy_service), theta).h
        avg = float(varpi @ h)
        if endpoint == "hi":
            target = (-1.0 / (theta * d)) * math.log(eps * h.min() / avg)
        else:
            target = (-1.0 / (theta * d)) * math.log(
                math.exp(theta * lam) * eps * h.max() / avg
            )
        assert lam == pytest.approx(target, abs=1e-8)
    # single-state service: endpoints differ only via the e^{theta lam} factor,
    # i.e. lam_hi ~= lam_lo (1 + 1/d) up to the slow drift of theta with lam
    assert lam_hi - lam_lo == pytest.approx(lam_lo / d, rel=5e-2)


def test_constant_dcc_interval_widens_with_eigenvector_spread():
    rng = np.random.default_rng(21)
    widths = []
    for spread in (0.2, 1.5):
        service = random_kernel(rng, 2, mean_offset=3.0, spread=spread)
        lam_lo, lam_hi = bd.constant_dcc_interval(service, 20.0, 1e-2, service.initial_dist)
        widths.append(lam_hi - lam_lo)
    assert widths[1] > widths[0]


@pytest.mark.parametrize("case", ["toy", "spread-0.2", "spread-1.5", "rayleigh"])
def test_constant_dcc_interval_solves_each_rate_on_the_negated_service(
        monkeypatch, toy_service, delay_figure_channel, case):
    # each theta of the walk is one eigensolve on the service negated once,
    # and names its own rate -kappa^-S(theta)/theta: no root solve per rate
    rng = np.random.default_rng(21)
    spread_02 = random_kernel(rng, 2, mean_offset=3.0, spread=0.2)
    spread_15 = random_kernel(rng, 2, mean_offset=3.0, spread=1.5)
    rayleigh = frechet_capacity_kernel(delay_figure_channel, 0.5)
    args, expected, max_solves = {  # (service, d, epsilon, varpi), endpoints, eigensolve cap
        "toy": ((toy_service, 20.0, 1e-2, np.array([1.0])),
                (0.07497151550585462, 0.0788239058088085), 2000),
        "spread-0.2": ((spread_02, 20.0, 1e-2, spread_02.initial_dist),
                       (3.08035179280931, 3.0803762062732645), 1000),
        "spread-1.5": ((spread_15, 20.0, 1e-2, spread_15.initial_dist),
                       (2.9022062014910635, 2.904139497685752), 1000),
        "rayleigh": ((rayleigh, 10.0, 1e-3, np.array([0.3, 0.7])),
                     (16.817084046034104, 17.237114838372875), 2000),
    }[case]
    roots = count_calls(monkeypatch, bd, "stability_root")
    negations = count_calls(monkeypatch, bd, "negate")
    solves = count_calls(monkeypatch, spectral_module, "eig")
    interval = bd.constant_dcc_interval(*args)
    assert roots == [] and len(negations) == 1
    assert len(solves) <= max_solves
    assert interval == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("low", [-2.0, -1.0])
def test_constant_dcc_interval_needs_a_positive_mean_service_rate(low):
    service = single_state_kernel(DiscretePmf((low, 1.0), (0.5, 0.5)))
    with pytest.raises(UnstableQueue) as err:
        bd.constant_dcc_interval(service, 5.0, 1e-2, np.array([1.0]))
    assert err.value.arrival_rate == 0.0
    assert err.value.service_rate == pytest.approx((low + 1.0) / 2.0, abs=1e-15)


def test_constant_dcc_interval_endpoint_beyond_the_eigensolve():
    # lambda_hi's bound still exceeds epsilon at theta ~ 36, beyond which the
    # negated transform spans more magnitudes than the eigensolve resolves
    laws = ((DiscretePmf((2.0, 4.8), (0.5, 0.5)),) * 2, (DiscretePmf((0.3, 2.4), (0.5, 0.5)),) * 2)
    service = MapKernel(("s0", "s1"), np.array([[0.53, 0.47], [0.28, 0.72]]), laws,
                        np.array([0.5, 0.5]))
    with pytest.raises(NoRootInDomain, match=r"lambda_hi: .* theta=\d"):
        bd.constant_dcc_interval(service, 5.0, 0.01, np.array([0.5, 0.5]))


@pytest.mark.parametrize("d", [0.0, -5.0, math.inf, math.nan])
def test_dcc_upper_needs_a_finite_positive_deadline(toy_arrival, toy_service, d):
    with pytest.raises(ValueError, match="deadline"):
        bd.dcc_upper(toy_arrival, toy_service, d, 1e-3)


def test_levels_must_be_finite(toy_arrival, toy_service):
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            bd.backlog_bounds(toy_arrival, toy_service, [1.0, level])
        with pytest.raises(ValueError, match="finite"):
            bd.horizon_backlog_bound(toy_arrival, toy_service, 2.0, level)
    # the delay horizon takes real delays d >= 0, whole or not
    for level in (-3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delay level"):
            bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, level)
    assert bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, 2.5).level == 2.5


@pytest.mark.parametrize("fn", [bd.delay_bounds, bd.backlog_bounds])
def test_bounds_solve_nothing_beyond_their_root(monkeypatch, fn):
    # h at theta* comes from the root's own solutions, not a second solve
    rng = np.random.default_rng(8)
    arrival = random_kernel(rng, 2, mean_offset=1.0, spread=0.5)
    service = random_kernel(rng, 2, mean_offset=2.0, spread=0.5)
    solves = count_calls(monkeypatch, spectral_module, "eig")
    stability_root(arrival, service)
    per_root = len(solves)
    fn(arrival, service, [1.0, 2.0])
    assert len(solves) == 2 * per_root
