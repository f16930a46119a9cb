"""Analytic tail bounds: hand-algebra oracles on the single-state toy and
structural invariants on general kernels."""

import math

import numpy as np
import pytest

from conftest import (
    count_calls,
    frechet_capacity_kernel,
    lattice_backlog,
    random_kernel,
    reversible_lattice_arrival,
)
from mapq import bounds as bd
from mapq import counters, spectral
from mapq.channel import ChannelSpec, capacity_kernel
from mapq.copulas import one_param_frechet, transition_from_copula
from mapq.errors import UnstableQueue
from mapq.laws import Constant, DiscretePmf, RayleighCapacity
from mapq.spectral import (
    MapKernel,
    mean_rate,
    perron,
    perron_grid,
    single_state_kernel,
    stability_root,
)


def _average(reports):
    return [r for r in reports if r.conditioning == "average"]


def test_decay_rates_toy(toy_arrival, toy_service):
    root = stability_root(toy_arrival, toy_service)
    assert root.arrival.kappa == pytest.approx(2.0, abs=1e-9)
    assert root.theta_star == pytest.approx(2.0, abs=1e-9)


def test_decay_rates_constant_arrival_scaling(toy_service):
    # with arrival Constant(lam), kappa^A(theta) = lam * theta exactly
    for lam in (0.5, 1.0, 2.0):
        arrival = single_state_kernel(Constant(lam))
        root = stability_root(arrival, toy_service)
        assert root.arrival.kappa == pytest.approx(lam * root.theta_star, rel=1e-12)


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


def _assert_backlog_rows_hold_the_lattice_tail(arrival, service, lost_below):
    """Every backlog_bounds row at b = 2, 5, 10, 20, 30 holds the exact tail of
    the lattice: the stationary law of (arrival state, backlog) by Lindley's
    recursion, 4,000 slots from an empty queue with under `lost_below` of the
    mass above the cap of 600.  A state row bounds P(B > b | J = i), and the
    average row P(B > b)."""
    pmf, lost = lattice_backlog(arrival, service, 4000, 600)
    assert lost < lost_below
    levels = [2, 5, 10, 20, 30]
    exact = {}
    for b in levels:
        tail = pmf[:, b + 1:].sum(axis=1)
        for label, p in zip(arrival.state_labels, tail / pmf.sum(axis=1)):
            exact[b, f"A[{label}]@0,S[s0]@0"] = p
        exact[b, "average"] = tail.sum()
    rows = bd.backlog_bounds(arrival, service, levels)
    assert len(rows) == len(exact)
    held = [(r.level, r.conditioning) for r in rows
            if r.lower <= exact[r.level, r.conditioning] <= r.upper]
    assert held == list(exact)


def test_backlog_bounds_hold_the_exact_lattice_tail_of_a_reversible_arrival():
    # at b = 30 the average row reads 0.0381 <= 0.0624 <= 0.1191
    _assert_backlog_rows_hold_the_lattice_tail(
        reversible_lattice_arrival(), single_state_kernel(Constant(2.0)), 1e-18)


def test_backlog_bounds_hold_the_exact_lattice_tail_of_a_reversible_three_state_arrival():
    # a symmetric chain with law(i, j) = law(j, i) (mean 2.7 per slot) runs
    # backwards in time as the same MAP, so the forward h gives each row
    lo, mid, hi = DiscretePmf((0.0, 1.0), (0.6, 0.4)), DiscretePmf((1.0, 4.0), (0.5, 0.5)), \
        Constant(6.0)
    x01, x02, x12 = Constant(2.0), Constant(3.0), DiscretePmf((0.0, 5.0), (0.5, 0.5))
    p = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
    arrival = MapKernel(("lo", "mid", "hi"), p, ((lo, x01, x02), (x01, mid, x12), (x02, x12, hi)),
                        np.full(3, 1.0 / 3.0))
    _assert_backlog_rows_hold_the_lattice_tail(arrival, single_state_kernel(Constant(3.0)), 1e-15)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: the per-state backlog rows take the "
                   "forward h, where the backlog conditions on the time-reversed chain")
def test_backlog_bounds_hold_the_exact_lattice_tail_of_a_cyclic_arrival():
    # a cyclic chain that brings 3 on 0 -> 1 and 7 on 2 -> 0 is not reversible.
    # The rows A[s0] and A[s1] fall below the exact tail at every level: at
    # b = 30 their upper bounds are 5.38e-6 and 5.69e-6 against 1.53e-5 and 1.27e-5
    c0, c3, c7 = Constant(0.0), Constant(3.0), Constant(7.0)
    p = np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
    arrival = MapKernel(("s0", "s1", "s2"), p, ((c0, c3, c0), (c0, c0, c0), (c7, c0, c0)),
                        np.full(3, 1.0 / 3.0))
    _assert_backlog_rows_hold_the_lattice_tail(arrival, single_state_kernel(Constant(3.0)), 1e-100)


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
    root = stability_root(arrival, service)
    for r1, r2 in zip(reports, reports[1:]):
        slope = (math.log(r2.upper_raw) - math.log(r1.upper_raw)) / (r2.level - r1.level)
        assert slope == pytest.approx(-root.arrival.kappa, rel=1e-9)
    b_reports = _average(bd.backlog_bounds(arrival, service, d_range))
    for r1, r2 in zip(b_reports, b_reports[1:]):
        slope = (math.log(r2.upper_raw) - math.log(r1.upper_raw)) / (r2.level - r1.level)
        assert slope == pytest.approx(-root.theta_star, rel=1e-9)


def test_bounds_clamped_to_unit_interval(toy_arrival, toy_service):
    r = _average(bd.delay_bounds(toy_arrival, toy_service, [0]))[0]
    assert 0.0 <= r.lower <= r.upper <= 1.0


def test_horizon_delay_toy_closed_form(toy_arrival, toy_service):
    # y kappa_dot^{-S} = -(y-1) kappa_dot^A with y=2:
    # 2(-3 + 2 theta) = -1 -> theta = 1.25; theta_y = -2(-3.75+1.5625) - 1.25
    r = bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, [4.0])[0]
    assert r.theta == pytest.approx(1.25, abs=1e-9)
    assert r.theta_y == pytest.approx(3.125, abs=1e-9)
    assert r.bound_raw == pytest.approx(math.exp(-4.0 * 3.125), rel=1e-7)


def test_horizon_backlog_toy_closed_form(toy_arrival, toy_service):
    # y (kappa_dot^A + kappa_dot^{-S}) = 1 with y=1: 2 theta - 2 = 1
    r = bd.horizon_backlog_bound(toy_arrival, toy_service, 1.0, [2.0])[0]
    assert r.theta == pytest.approx(1.5, abs=1e-9)
    assert r.theta_y == pytest.approx(2.25, abs=1e-9)


def test_horizon_exponent_is_concave_maximum(toy_arrival, toy_service):
    y = 2.0
    r = bd.horizon_delay_bound(toy_arrival, toy_service, y, [1.0])[0]
    grid = np.linspace(0.05, 2.45, 49)
    # kappa^{-S}(t) is the service's kappa at -t
    vals = [-y * perron(toy_service, -t).kappa - (y - 1.0) * perron(toy_arrival, t).kappa
            for t in grid]
    assert r.theta_y >= max(vals) - 1e-9


def test_horizon_exponent_large_y_limits(toy_arrival, toy_service):
    # combined cgf theta^2 - 2 theta: as the horizon multiplier grows, the
    # optimizer theta(y) falls to the cgf minimizer (1) and the per-slot
    # exponent theta_y / y falls to the magnitude of the cgf minimum (1)
    thetas, per_slot = [], []
    for y in (2.0, 5.0, 20.0, 400.0):
        r = bd.horizon_delay_bound(toy_arrival, toy_service, y, [1.0])[0]
        thetas.append(r.theta)
        per_slot.append(r.theta_y / y)
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert all(a > b for a, b in zip(per_slot, per_slot[1:]))
    assert thetas[-1] == pytest.approx(1.0, abs=5e-3)
    assert per_slot[-1] == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("fn, lam, rate", [
    (bd.horizon_backlog_bound, 1.0, lambda root: root.theta_star),
    # y_gamma = 2 > 1 against the toy service, where theta* = 1 and kappa^A(theta*) = 2
    (bd.horizon_delay_bound, 2.0, lambda root: root.arrival.kappa),
], ids=["backlog", "delay"])
def test_horizon_identity_at_y_gamma(toy_service, fn, lam, rate):
    # at y = y_gamma the horizon optimizer is theta* and the exponent is the
    # family's asymptotic rate: theta* for backlog, kappa^A(theta*) for delay
    arrival = single_state_kernel(Constant(lam))
    probe = fn(arrival, toy_service, 1.5, [1.0])[0]
    r = fn(arrival, toy_service, probe.y_gamma, [1.0])[0]
    root = stability_root(arrival, toy_service)
    assert r.theta == pytest.approx(root.theta_star, abs=1e-8)
    assert r.theta_y == pytest.approx(rate(root), abs=1e-8)


def test_constant_arrival_backlog_is_rescaled_delay(toy_service):
    lam = 2.0
    arrival = single_state_kernel(Constant(lam))
    b_reports = bd.backlog_bounds(arrival, toy_service, [3.0, 6.0])
    d_reports = bd.delay_bounds(arrival, toy_service, [1.5, 3.0])
    for rb, rd in zip(b_reports, d_reports):
        assert rb.lower == rd.lower and rb.upper == rd.upper
        assert rb.conditioning == rd.conditioning


def test_delay_levels_are_whole_slots(toy_service):
    # a multi-state arrival's rows are conditioned on its state at slot d,
    # so d must be whole slots >= 0
    arrival = MapKernel(("on", "off"), np.array([[0.8, 0.2], [0.3, 0.7]]),
                        ((Constant(1.0), Constant(0.0)), (Constant(1.0), Constant(0.0))),
                        np.array([0.5, 0.5]))
    for bad in (2.5, -1, float("inf")):
        with pytest.raises(ValueError, match="whole slots"):
            bd.delay_bounds(arrival, toy_service, [1, bad])
    # a one-state chain has no state to condition on, so any finite d >= 0 is defined
    constant = single_state_kernel(Constant(1.0))
    assert len(bd.delay_bounds(constant, toy_service, [2.5])) == 2
    with pytest.raises(ValueError, match="delay level"):
        bd.delay_bounds(constant, toy_service, [-1])


def test_delay_rows_are_the_service_factor_times_the_decay():
    # each row, "average" among them, is h+- h^{-S}_j e^{-kappa^A(theta*) d}:
    # the arrival state and its initial distribution drop out
    rng = np.random.default_rng(5)
    service = random_kernel(rng, 2, mean_offset=3.0)
    increments = ((Constant(3.0), Constant(1.0)), (Constant(3.0), Constant(1.0)))
    transition = np.array([[0.8, 0.2], [0.3, 0.7]])
    rows = []
    for initial in ([0.5, 0.5], [0.9, 0.1]):
        arrival = MapKernel(("on", "off"), transition, increments, np.array(initial))
        rows.append(bd.delay_bounds(arrival, service, [0, 1, 3]))
    root = stability_root(arrival, service)
    h_a, h_s = root.arrival.h, root.service.h
    kappa = root.arrival.kappa
    h_plus = (h_a.max() / h_a.min()) / h_s.min()
    h_minus = math.exp(-kappa) * (h_a.min() / h_a.max()) ** 2 / h_s.max()
    service_factor = {f"S[{s}]@0": h for s, h in zip(service.state_labels, h_s)}
    average = float(service.initial_dist @ h_s)
    for r, r_other in zip(*rows):
        assert (r.level, r.conditioning) == (r_other.level, r_other.conditioning)
        factor = service_factor.get(r.conditioning.split(",")[-1], average)
        decay = math.exp(-kappa * r.level)
        for row in (r, r_other):
            assert row.lower_raw == pytest.approx(h_minus * factor * decay, rel=1e-14)
            assert row.upper_raw == pytest.approx(h_plus * factor * decay, rel=1e-14)
    assert len(rows[0]) == 3 * (2 * 2 + 1)


def test_constant_arrival_unstable(toy_service):
    with pytest.raises(UnstableQueue):
        bd.delay_bounds(single_state_kernel(Constant(3.5)), toy_service, [1])


def test_dcc_toy_value_at_root(toy_arrival, toy_service):
    # flat eigenvectors: bound at theta* = 2 is (-1/(2*10)) log(1e-3)
    r = bd.dcc_upper(toy_arrival, toy_service, [10.0], 1e-3)[0]
    assert r.value_at_root == pytest.approx(-math.log(1e-3) / 20.0, rel=1e-9)
    assert 0.0 <= r.value <= r.value_at_root + 1e-12
    assert r.asymptotic_cap == pytest.approx(1.0, abs=1e-9)


def test_dcc_tightens_as_epsilon_shrinks(toy_arrival, toy_service):
    # a stricter violation probability permits less traffic only in the
    # -log(epsilon) numerator, so the rate bound grows as epsilon shrinks
    vals = [bd.dcc_upper(toy_arrival, toy_service, [10.0], eps)[0].value
            for eps in (1e-2, 1e-4, 1e-6)]
    assert 0.0 <= vals[0] <= vals[1] <= vals[2]


def test_dcc_large_deadline_falls_below_asymptotic_cap(toy_arrival, toy_service):
    r_small = bd.dcc_upper(toy_arrival, toy_service, [1.0], 1e-6)[0]
    r_large = bd.dcc_upper(toy_arrival, toy_service, [1000.0], 1e-6)[0]
    assert r_large.value <= r_large.asymptotic_cap + 1e-12
    assert r_large.value_at_root < r_small.value_at_root


def test_dcc_upper_solves_its_grid_in_one_stacked_eigensolve_per_kernel(
        monkeypatch, toy_arrival, toy_service):
    # with a golden-section refinement dcc_upper(toy, [10], 1e-3) made up to 146
    # single-matrix solves: 2 mean rates, 36 for theta*, 2 for a theta_max
    # probe and 106 for the golden section.  The grid and every round of the
    # section search are now one stack per kernel, which a one-state kernel
    # solves in closed form, so only theta* solves one matrix
    grids = count_calls(monkeypatch, bd, "perron_grid")
    arrival = single_state_kernel(toy_arrival.law(0, 0), label="const")
    service = single_state_kernel(toy_service.law(0, 0))
    done = counters.tally()
    r = bd.dcc_upper(arrival, service, [10.0], 1e-3)[0]
    assert done()["scalar_solves"] <= 40
    assert done()["stacked_matrices"] == 0
    sizes = [len(args[1]) for args in grids]
    assert sizes[:2] == [201, 201] and len(sizes) > 2
    assert set(sizes[2:]) == {bd._SECTION_POINTS}
    assert r.value_at_root == pytest.approx(-math.log(1e-3) / 20.0, rel=1e-9)


def test_dcc_upper_shares_one_search_across_deadlines(delay_figure_channel, monkeypatch):
    # only the 1/d factor depends on the deadline, so every deadline has the
    # same theta_opt, and value * d is the one minimum of g
    arrival = single_state_kernel(Constant(10.0))
    service = frechet_capacity_kernel(delay_figure_channel, 0.5)
    grids = count_calls(monkeypatch, bd, "perron_grid")
    reports = bd.dcc_upper(arrival, service, [1.0, 5.0, 20.0], 1e-3)
    searched = len(grids)
    alone = [bd.dcc_upper(arrival, service, [d], 1e-3)[0] for d in (1.0, 5.0, 20.0)]
    assert len(grids) == 4 * searched  # a list of deadlines costs one search
    assert len({r.theta_opt for r in reports + alone}) == 1
    for d, r, single in zip((1.0, 5.0, 20.0), reports, alone):
        assert r == single
        assert r.value * d == pytest.approx(reports[0].value, rel=1e-15)
        assert r.value_at_root * d == pytest.approx(reports[0].value_at_root, rel=1e-15)
    assert 0.0 < reports[0].value <= reports[0].value_at_root


def test_dcc_objective_stack_matches_the_formula_per_theta():
    # g(theta) / d against the bound written per theta from perron; the plain
    # 3-state capacity transform overflows at theta = 5, which gives +inf
    snr = np.array([[300.0] * 3, [20.0] * 3, [0.7] * 3])
    p = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
    arrival = capacity_kernel(p, ChannelSpec(20.0, snr, ("a", "b", "c")))
    service = random_kernel(np.random.default_rng(21), 2, mean_offset=3.0, spread=1.5)
    thetas = np.append(np.geomspace(1e-3, 0.5, 19), 5.0)
    d, eps, varpi = 7.0, 1e-4, service.initial_dist
    got = bd._dcc_objective(thetas, perron_grid(arrival, thetas), perron_grid(service, -thetas),
                            eps, varpi) / d
    for theta, g in zip(thetas[:-1], got[:-1]):
        h_a, h_s = perron(arrival, theta).h, perron(service, -theta).h
        h_plus = (h_a.max() / h_a.min()) / h_s.min()
        expected = float(varpi @ ((-1.0 / (theta * d)) * np.log(eps / (h_plus * h_s))))
        assert g == pytest.approx(expected, rel=1e-13)
    assert got[-1] == math.inf


def test_dcc_upper_backs_off_where_the_eigensolve_fails(monkeypatch):
    # from 2 theta* up the negated service transform has entries 1e-19 and
    # 1e-35 apart, and perron rejects the eigenpair (NoConvergence); the grid
    # treats that like a diverged MGF, g = +inf, so theta_max halves down from
    # 8 theta* until the grid's top point solves
    m = (5.248, 9.908)
    laws = tuple(
        tuple(DiscretePmf((m[j] - 0.3, m[j], m[j] + 0.3), (0.25, 0.5, 0.25)) for j in range(2))
        for _ in range(2)
    )
    service = MapKernel(("s0", "s1"), np.array([[0.32, 0.68], [0.614, 0.386]]), laws,
                        np.array([0.5, 0.5]))
    arrival = single_state_kernel(Constant(5.4428))
    grids = count_calls(monkeypatch, bd, "perron_grid")
    r = bd.dcc_upper(arrival, service, [10.0], 1e-3)[0]
    theta_star = stability_root(arrival, service).theta_star
    # one grid per kernel at each theta_max, the service's at -theta: 8, 4
    # and 2 theta* fail at their top, and the last, theta* itself, has 200 points
    tops = [(len(args[1]), args[1][-1] / theta_star) for args in grids[:8]]
    assert tops == [(n, sign * top) for n, top in ((201, 8.0), (201, 4.0), (201, 2.0), (200, 1.0))
                    for sign in (1.0, -1.0)]
    assert r.value == r.value_at_root == 0.17834516811753576
    assert r.theta_opt == 4.055950779394227


def test_dcc_upper_solves_nothing_beyond_its_root_where_the_grid_top_solves(
        delay_figure_channel, monkeypatch):
    # the grid's top point 8 theta* solves, so no theta_max is halved and no
    # scalar solve runs beside the grid: solvability is read off the grid's g
    arrival = random_kernel(np.random.default_rng(3), 2, mean_offset=1.0, spread=0.5)
    service = capacity_kernel(np.array([[0.3, 0.7], [0.4, 0.6]]), delay_figure_channel)
    theta_star = stability_root(arrival, service).theta_star
    grids = count_calls(monkeypatch, bd, "perron_grid")
    done = counters.tally()
    r = bd.dcc_upper(arrival, service, [10.0], 1e-3)[0]
    assert done()["scalar_solves"] == 0
    assert [args[1][-1] for args in grids[:2]] == [8.0 * theta_star, -8.0 * theta_star]
    assert [len(args[1]) for args in grids].count(201) == 2
    assert r.value == 0.18125100985436265 and r.theta_opt == 17.700403605679398


@pytest.mark.parametrize("d, eps", [(20.0, 1e-2), (10.0, 1e-3), (5.0, 0.05)])
@pytest.mark.parametrize("edge", ["lower", "upper"])
def test_dcc_constant_traffic_edges_are_fixed_points_on_the_toy(toy_service, d, eps, edge):
    # Constant(lam) against the toy service has theta* = 3 - lam and h = [1], so
    # value_at_root = log(1/eps) / ((3 - lam) d): its fixed points are the
    # roots of d lam (3 - lam) = log(1/eps), the edges of the admissible band
    c = math.log(1.0 / eps) / d
    larger = (3.0 + math.sqrt(9.0 - 4.0 * c)) / 2.0
    lam = larger if edge == "upper" else c / larger  # c over the larger root
    r = bd.dcc_upper(single_state_kernel(Constant(lam)), toy_service, [d], eps)[0]
    assert r.value_at_root == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("d", [0.0, -5.0, math.inf, math.nan])
def test_dcc_upper_needs_a_finite_positive_deadline(toy_arrival, toy_service, d):
    with pytest.raises(ValueError, match="deadline"):
        bd.dcc_upper(toy_arrival, toy_service, [d], 1e-3)


def test_levels_must_be_finite(toy_arrival, toy_service):
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            bd.backlog_bounds(toy_arrival, toy_service, [1.0, level])
        with pytest.raises(ValueError, match="finite"):
            bd.horizon_backlog_bound(toy_arrival, toy_service, 2.0, [level])[0]
    # the delay horizon takes real delays d >= 0, whole or not
    for level in (-3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delay level"):
            bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, [level])[0]
    assert bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, [2.5])[0].level == 2.5


@pytest.mark.parametrize("fn", [bd.horizon_delay_bound, bd.horizon_backlog_bound])
def test_horizon_bounds_solve_theta_once_for_every_level(delay_figure_channel, fn):
    # on fresh kernels a level list costs the work of one level and gives the
    # one-level reports; a bad level anywhere in it raises before any solve
    def fresh():
        service = capacity_kernel(np.array([[0.3, 0.7], [0.4, 0.6]]), delay_figure_channel)
        return single_state_kernel(Constant(0.7 * mean_rate(service))), service

    levels = [0.0, 1.0, 2.5, 4.0]
    kernels = fresh()
    done = counters.tally()
    fn(*kernels, 2.0, levels[:1])
    one = done()
    assert one["quadrature_calls"] > 0
    kernels = fresh()
    done = counters.tally()
    reports = fn(*kernels, 2.0, levels)
    assert done() == one
    assert reports == [fn(*kernels, 2.0, [x])[0] for x in levels]
    kernels = fresh()
    done = counters.tally()
    with pytest.raises(ValueError, match="level"):
        fn(*kernels, 2.0, [1.0, 2.0, math.nan])
    assert not any(done().values())


def test_horizon_bound_reads_the_ladder_rows_its_stability_root_left(monkeypatch):
    # the README channel: theta* lies below the ladder's top, so the mgf rows
    # above the bracket stay on the kernels and the horizon walk reads them;
    # it stacks only the derivative's ladder of each kernel
    channel = ChannelSpec(20.0, np.array([[1e4, 1e4], [10.0, 10.0]]), ("hi", "lo"))
    p, _ = transition_from_copula(one_param_frechet(0.5), np.array([0.3, 0.7]))
    service = capacity_kernel(p, channel)
    arrival = single_state_kernel(Constant(60.0))
    stability_root(arrival, service)
    stacks = count_calls(monkeypatch, spectral, "_stack_ladder")
    done = counters.tally()
    r = bd.horizon_delay_bound(arrival, service, 2.0, [4])[0]
    assert [args[1] for args in stacks] == ["tilted_mean", "tilted_mean"]
    assert done()["quadrature_calls"] == 17
    assert r.theta == 0.04403853764961096 and r.bound == 0.36570676001138286


def test_dcc_stacks_no_transform_of_a_constant_arrival(monkeypatch):
    # a one-state arrival's Perron stacks are closed forms: neither the grid
    # nor a section round builds its transform matrices
    channel = ChannelSpec(20.0, np.array([[1e4, 1e4], [10.0, 10.0]]), ("hi", "lo"))
    p, _ = transition_from_copula(one_param_frechet(0.5), np.array([0.3, 0.7]))
    service = capacity_kernel(p, channel)
    arrival = single_state_kernel(Constant(60.0))
    stability_root(arrival, service)
    entries = count_calls(monkeypatch, spectral, "_entrywise")
    r = bd.dcc_upper(arrival, service, [10], 1e-3)[0]
    assert not [args for args in entries
                if args[0] is arrival and isinstance(args[1], np.ndarray)]
    assert r.value == 5.678669618438717 and r.theta_opt == 0.20947326149604462


def test_one_state_rayleigh_root_keeps_one_quadrature_for_its_ladder():
    # the closed-form solve reads F[0, 0] from the transform matrix, so the
    # ladder's stacked rows still serve a one-state Rayleigh service
    service = single_state_kernel(RayleighCapacity(20.0, 100.0))
    arrival = single_state_kernel(Constant(60.0))
    done = counters.tally()
    root = stability_root(arrival, service)
    assert done()["quadrature_calls"] == 8 and done()["quadrature_steps"] == 16
    assert root.theta_star == 0.08244589147567793


@pytest.mark.parametrize("fn", [bd.delay_bounds, bd.backlog_bounds])
def test_bounds_solve_nothing_beyond_their_root(fn):
    # h at theta* comes from the root's own solutions, not a second solve
    rng = np.random.default_rng(8)
    arrival = random_kernel(rng, 2, mean_offset=1.0, spread=0.5)
    service = random_kernel(rng, 2, mean_offset=2.0, spread=0.5)
    done = counters.tally()
    stability_root(arrival, service)  # also solves the two mean rates, once per kernel
    assert done()["scalar_solves"] > 0
    before = done()["scalar_solves"]
    # the kernels keep every solution of the first root search
    stability_root(arrival, service)
    fn(arrival, service, [1.0, 2.0])
    assert done()["scalar_solves"] == before


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_horizon_multiplier_must_be_finite(y):
    # a non-finite y is bad input, rejected before any eigensolve
    arrival = single_state_kernel(Constant(1.0))
    service = single_state_kernel(DiscretePmf((2.0, 4.0), (0.5, 0.5)))
    done = counters.tally()
    with pytest.raises(ValueError, match="horizon multiplier y must be finite"):
        bd.horizon_delay_bound(arrival, service, y, [2.0])[0]
    with pytest.raises(ValueError, match="horizon multiplier y must be finite"):
        bd.horizon_backlog_bound(arrival, service, y, [2.0])[0]
    assert done()["scalar_solves"] == 0
