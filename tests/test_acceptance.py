"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS line on success (failures raise with details).
"""

import math
import time

import numpy as np
import pytest

from conftest import frechet_capacity_kernel, random_kernel
from mapq import bounds as bd
from mapq import sim
from mapq.channel import controlled_capacity_process
from mapq.cli import main as cli_main
from mapq.copulas import (
    Comonotone,
    Countermonotone,
    Gaussian2,
    Product,
    dependence_control,
    frechet_compose,
    frechet_homogeneous,
    one_param_frechet,
    star,
    transition_from_copula,
)
from mapq.laws import Constant, DiscretePmf
from mapq.spectral import mean_rate, perron, single_state_kernel, stability_root


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


CONTROL_CFG = """\
arrival: {{constant: 1.0}}
service:
  kernel:
    states: [only]
    transition: [[1.0]]
    increments: [[{{law: constant, value: 3.0}}]]
copulas:
  varpi: [0.3, 0.7]
  copula: {{family: frechet1, alpha: {alpha}}}
  horizon: 1
"""


def _control_matrix(tmp_path, alpha):
    cfg = tmp_path / f"ctl_{alpha}.yaml"
    cfg.write_text(CONTROL_CFG.format(alpha=alpha), encoding="utf-8")
    out = tmp_path / f"out_{alpha}"
    assert cli_main(["control", "--config", str(cfg), "--out", str(out)]) == 0
    mat = np.zeros((2, 2))
    for line in (out / "control_plan.csv").read_text(encoding="utf-8").splitlines()[1:]:
        _, step, i, j, p = line.split(",")
        if step == "0":
            mat[int(i), int(j)] = float(p)
    return mat


def test_criterion_01_frechet_transition_reproduction(tmp_path):
    t0 = time.perf_counter()
    pos = _control_matrix(tmp_path, 0.5)
    neg = _control_matrix(tmp_path, -0.5)
    elapsed = time.perf_counter() - t0
    assert np.max(np.abs(pos - [[0.4125, 0.5875], [0.2518, 0.7482]])) < 5e-4
    assert np.max(np.abs(neg - [[0.2875, 0.7125], [0.3054, 0.6946]])) < 5e-4
    assert elapsed < 1.0
    _report(1, f"printed control matrices reproduced within 5e-4 in {elapsed:.2f}s")


def test_criterion_02_analytic_root_oracle(toy_arrival, toy_service):
    t0 = time.perf_counter()
    root = stability_root(toy_arrival, toy_service)
    assert root.arrival.kappa == pytest.approx(2.0, abs=1e-9)
    assert root.theta_star == pytest.approx(2.0, abs=1e-9)
    r = bd.horizon_delay_bound(toy_arrival, toy_service, 2.0, [1.0])[0]
    assert r.theta == pytest.approx(1.25, abs=1e-9)
    assert r.theta_y == pytest.approx(3.125, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"theta*=2, rates (2,2), horizon (1.25, 3.125) within 1e-9 in {elapsed:.2f}s")


def test_criterion_03_delay_figure_sandwich(delay_figure_channel):
    service = frechet_capacity_kernel(delay_figure_channel, -0.5)
    levels = [1, 2, 3, 4, 5, 6]
    arrival = single_state_kernel(Constant(10.0))
    est = sim.tail_estimate(arrival, service, levels, 100_000, 1000, 42, "delay")
    reports = {r.level: r for r in bd.delay_bounds(arrival, service, levels)
               if r.conditioning == "average"}
    checked = 0
    for e in est:
        if not e.conclusive:
            continue
        b = reports[e.level]
        assert b.lower - 3 * e.std_err <= e.p_hat <= b.upper + 3 * e.std_err, (
            f"d={e.level}: {e.p_hat} outside [{b.lower}, {b.upper}] +- 3se"
        )
        checked += 1
    assert checked >= 3
    _report(3, f"empirical delay tail inside analytic sandwich at {checked} levels "
               f"(1e5 replications, horizon 1e3)")


def test_criterion_04_decay_rate_slopes(toy_service, delay_figure_channel):
    est = sim.tail_estimate(single_state_kernel(Constant(1.0)), toy_service,
                            [2.0, 2.5, 3.0, 3.5, 4.0], 2_000_000, 60, 123, "backlog")
    slope_toy = sim.decay_slope(est)
    theta_toy = stability_root(single_state_kernel(Constant(1.0)), toy_service).theta_star
    assert abs(slope_toy + theta_toy) / theta_toy < 0.10, slope_toy

    service = frechet_capacity_kernel(delay_figure_channel, -0.5)
    est = sim.tail_estimate(single_state_kernel(Constant(10.0)), service,
                            [10, 15, 20, 25, 30], 100_000, 1000, 7, "backlog")
    slope_fig = sim.decay_slope(est)
    theta_fig = stability_root(single_state_kernel(Constant(10.0)), service).theta_star
    assert abs(slope_fig + theta_fig) / theta_fig < 0.10, slope_fig
    _report(4, f"backlog log-tail slopes {slope_toy:.3f} vs -{theta_toy:.3f} (toy) and "
               f"{slope_fig:.4f} vs -{theta_fig:.4f} (delay figure), both within 10%")


def test_criterion_05_martingale_mean_one():
    rng = np.random.default_rng(5)
    worst = 0.0
    for kidx in range(5):
        kernel = random_kernel(rng, int(rng.integers(2, 4)))
        for theta in (0.05, 0.10, 0.15):
            mean, se = sim.martingale_check(kernel, theta, 20, 100_000, 1000 + kidx)
            z = abs(mean - 1.0) / se
            assert z <= 3.0, (kidx, theta, mean, se)
            worst = max(worst, z)
    _report(5, f"likelihood-ratio mean within 3se of 1 on 5 kernels x 3 thetas "
               f"(worst z={worst:.2f}, T=20, 1e5 replications)")


def test_criterion_06_star_product_identities():
    n = 512
    t = np.linspace(0.0, 1.0, n + 1)
    m, w, p = Comonotone(), Countermonotone(), Product()
    c = one_param_frechet(0.4)
    worst = 0.0
    for lhs, rhs in [(star(m, c, n), c), (star(c, m, n), c),
                     (star(w, w, n), m), (star(p, c, n), p)]:
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.eval_grid(t, t)))))
    assert worst < 1e-3
    h1, h2 = 0.4, 1.1
    c1, c2 = frechet_homogeneous(h1), frechet_homogeneous(h2)
    composed = frechet_compose((c1.w_w, c1.w_m), (c2.w_w, c2.w_m))
    target = frechet_homogeneous(h1 + h2)
    semigroup_err = max(abs(composed[0] - target.w_w), abs(composed[1] - target.w_m))
    assert semigroup_err < 1e-12
    _report(6, f"star identities within {worst:.1e} (<1e-3) at grid 512; "
               f"semigroup composition within {semigroup_err:.1e} (<1e-12)")


def test_criterion_07_copula_extraction_consistency():
    rng = np.random.default_rng(77)
    worst_row = worst_stat = 0.0
    for _ in range(20):
        nn = int(rng.integers(2, 5))
        varpi = np.clip(rng.dirichlet(np.ones(nn) * 3.0), 0.02, None)
        varpi = varpi / varpi.sum()
        cop = Gaussian2(float(rng.uniform(-0.9, 0.9)))
        p, _ = transition_from_copula(cop, varpi)
        worst_row = max(worst_row, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
        worst_stat = max(worst_stat, float(np.max(np.abs(varpi @ p - varpi))))
    assert worst_row < 1e-9 and worst_stat < 1e-9
    varpi = np.array([0.3, 0.7])
    p_prod, _ = transition_from_copula(Product(), varpi)
    assert np.array_equal(p_prod, np.tile(varpi, (2, 1)))
    p_m, _ = transition_from_copula(Comonotone(), varpi)
    assert np.array_equal(p_m, np.eye(2))
    _report(7, f"rows sum to 1 within {worst_row:.1e}, stationarity within "
               f"{worst_stat:.1e}; product/comonotone cases exact")


def test_criterion_08_power_control_correlation_signs(power_control_channel):
    stats = {}
    for tag, rho in (("neg", -0.5), ("pos", 0.5)):
        dim = dependence_control([Gaussian2(rho)], np.array([0.3, 0.7]))
        corrs, means = [], []
        for run in range(100):
            _, c = controlled_capacity_process(
                dim, power_control_channel, 1000, [99, 0 if rho < 0 else 1, run]
            )
            corrs.append(float(np.corrcoef(c[:-1], c[1:])[0, 1]))
            means.append(float(c.mean()))
        corrs, means = np.array(corrs), np.array(means)
        stats[tag] = (corrs.mean(), corrs.std(ddof=1) / 10.0,
                      means.mean(), means.std(ddof=1) / 10.0)
    z_neg = stats["neg"][0] / stats["neg"][1]
    z_pos = stats["pos"][0] / stats["pos"][1]
    assert z_neg < -2.576 and z_pos > 2.576  # two-sided p < 0.01
    mean_gap = abs(stats["neg"][2] - stats["pos"][2])
    se = math.hypot(stats["neg"][3], stats["pos"][3])
    assert mean_gap <= 3.0 * se
    _report(8, f"lag-1 correlation signs match rho (z={z_neg:.0f}/{z_pos:.0f}, p<0.01); "
               f"transient means agree within 3se (gap {mean_gap:.2f} vs {3*se:.2f})")


def _merge_pmf(support, probs):
    support = np.round(np.asarray(support, dtype=float), 9)
    probs = np.asarray(probs, dtype=float)
    uniq = np.unique(support)
    merged = np.array([probs[support == u].sum() for u in uniq])
    merged = merged / merged.sum()
    return DiscretePmf(tuple(uniq), tuple(merged))


def _random_pmf(rng):
    n = int(rng.integers(2, 6))
    support = np.sort(rng.choice(np.arange(-6, 7), size=n, replace=False)).astype(float)
    probs = rng.dirichlet(np.ones(n))
    return _merge_pmf(support, probs)


def _mean_preserving_spread(pmf, rng):
    x = np.array(pmf.support)
    p = np.array(pmf.probs)
    k = int(rng.integers(0, len(x)))
    delta = float(rng.uniform(0.5, 2.0))
    new_x = np.concatenate([np.delete(x, k), [x[k] - delta, x[k] + delta]])
    new_p = np.concatenate([np.delete(p, k), [p[k] / 2.0, p[k] / 2.0]])
    return _merge_pmf(new_x, new_p)


def _brute_force_cx(x, y, tol=1e-9):
    mean_x = float(np.dot(x.support, x.probs))
    mean_y = float(np.dot(y.support, y.probs))
    if abs(mean_x - mean_y) > tol:
        return False
    knots = np.union1d(
        np.union1d(np.asarray(x.support), np.asarray(y.support)),
        np.linspace(min(x.support + y.support) - 1.0, max(x.support + y.support) + 1.0, 101),
    )
    # hinge functions span the convex cone relevant for finite laws; random
    # nonnegative combinations add nothing beyond them but are cheap to check
    for t in knots:
        if sim.stop_loss(x, float(t)) > sim.stop_loss(y, float(t)) + tol:
            return False
    rng = np.random.default_rng(abs(hash((x.support, y.support))) % (2**32))
    for _ in range(20):
        coef = rng.random(len(knots)) * (rng.random(len(knots)) < 0.1)
        ex = sum(c * sim.stop_loss(x, float(t)) for c, t in zip(coef, knots))
        ey = sum(c * sim.stop_loss(y, float(t)) for c, t in zip(coef, knots))
        if ex > ey + 1e-7:
            return False
    return True


def test_criterion_09_convex_order_vs_brute_force():
    rng = np.random.default_rng(909)
    n_holds = 0
    for i in range(200):
        x = _random_pmf(rng)
        if i % 2 == 0:
            y = _mean_preserving_spread(x, rng)
        else:
            y = _random_pmf(rng)
        verdict = sim.convex_order_leq(x, y, tol=1e-9)
        brute = _brute_force_cx(x, y)
        assert verdict == brute, (i, x, y)
        n_holds += int(verdict)
    assert n_holds >= 90  # the constructed spreads must be recognized
    for _ in range(20):
        y = _random_pmf(rng)
        point = DiscretePmf((float(np.dot(y.support, y.probs)),), (1.0,))
        assert sim.convex_order_leq(point, y)
    _report(9, f"checker agrees with brute-force convex sampling on 200 pairs "
               f"({n_holds} holds, no false verdicts); point-mass-at-mean direction verified")


def test_criterion_10_mean_rate_identity():
    rng = np.random.default_rng(5)
    worst_rel = worst_gap = 0.0
    for kidx in range(5):
        kernel = random_kernel(rng, 3, mean_offset=3.0)
        _, increments = sim.sample_path(kernel, 1_000_000, 77 + kidx)
        mu = mean_rate(kernel)
        rel = abs(float(increments.mean()) - mu) / abs(mu)
        assert rel < 0.005, (kidx, rel)
        worst_rel = max(worst_rel, rel)
        for theta in np.linspace(0.05, 0.5, 6):
            gap = perron(kernel, float(theta)).kappa / float(theta) - mu
            assert gap >= -1e-10, (kidx, theta)
            worst_gap = min(worst_gap, gap)
    _report(10, f"kappa'(0) matches T=1e6 empirical average within 0.5% "
                f"(worst {worst_rel:.2%}); kappa(theta)/theta >= mean rate on the grid")


def test_criterion_11_ordering_experiments(toy_service, power_control_channel):
    const_rates, sweep_ok = [], []
    for seed in (10, 11, 12):
        r = sim.ordering_experiment({
            "name": "arrival-vs-constant", "service": toy_service, "rate": 2.4,
            "replications": 60_000, "horizon": 200, "seed": seed,
        })
        assert r.direction_holds, r.decay_rates
        const_rates.append(r.decay_rates)
    for seed in (0, 1, 2):
        r = sim.ordering_experiment({
            "name": "service-dependence-sweep", "channel": power_control_channel,
            "rate": 80.0, "varpi": [0.3, 0.7], "alphas": (-0.8, 0.0, 0.8),
            "levels": [1, 2, 3, 4, 5, 6], "replications": 30_000, "horizon": 300,
            "seed": seed,
        })
        assert r.direction_holds, r.decay_rates
        sweep_ok.append(r.decay_rates)
    _report(11, "constant-vs-bursty and dependence-sweep decay orderings hold "
                "across 3 seeds each")
