"""Monte Carlo queue simulation and empirical stochastic-order checks.

Replications are independent units of work with per-replication random
streams keyed (seed, replication), so results are reproducible and
order-independent across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import ks_2samp

from .errors import DimensionMismatch, LengthMismatch, UnknownExperiment
from .laws import Constant, DiscretePmf
from .spectral import MapKernel, cgf, mean_rate, perron, stability_root


# ---------------------------------------------------------------------------
# sample paths and the queue recursion


def _stream(seed, replication=None):
    if replication is None:
        return np.random.default_rng(seed)
    return np.random.default_rng([int(seed), int(replication)])


def _cumulative_rows(transition: np.ndarray) -> np.ndarray:
    """Row-wise transition CDFs ending at exactly 1.

    Rows may sum to 1 - 1e-12; a uniform draw above that sum would
    otherwise map to the nonexistent state n.
    """
    cum = np.cumsum(transition, axis=1)
    cum[:, -1] = 1.0
    return cum


def sample_path(kernel: MapKernel, horizon: int, seed) -> tuple:
    """(state series, increment series) of one kernel realization.

    States include the initial state, so the state series has length
    horizon + 1; increment t is drawn from the law at the realized
    (state_{t-1}, state_t) pair.
    """
    rng = _stream(seed)
    n = kernel.n_states
    cum = _cumulative_rows(kernel.transition)
    states = np.empty(horizon + 1, dtype=np.int64)
    states[0] = rng.choice(n, p=kernel.initial_dist)
    u = rng.random(horizon)
    for t in range(horizon):
        states[t + 1] = np.searchsorted(cum[states[t]], u[t], side="right")
    increments = np.empty(horizon)
    src, dst = states[:-1], states[1:]
    for i in range(n):
        for j in range(n):
            mask = (src == i) & (dst == j)
            count = int(mask.sum())
            if count:
                increments[mask] = kernel.law(i, j).sample(rng, count)
    return states, increments


@dataclass(frozen=True)
class QueueTrace:
    horizon: int
    arrivals: np.ndarray
    services: np.ndarray
    backlog: np.ndarray  # length horizon + 1, backlog[0] = 0
    virtual_delay: np.ndarray  # length horizon + 1


def lindley(arrival_path, service_path) -> QueueTrace:
    """Reflected queue recursion plus the virtual delay series.

    backlog[t+1] = max(backlog[t] + a(t) - c(t), 0); virtual_delay[t] is
    the smallest d with A(t-d) <= A(t) - B(t).
    """
    a = np.asarray(arrival_path, dtype=float)
    c = np.asarray(service_path, dtype=float)
    if a.shape != c.shape or a.ndim != 1:
        raise LengthMismatch(f"paths have shapes {a.shape} and {c.shape}")
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
    return QueueTrace(t_max, a, c, backlog, delay)


# ---------------------------------------------------------------------------
# batched tail estimation


@dataclass(frozen=True)
class TailEstimate:
    level: float
    p_hat: float
    std_err: float
    hits: int
    replications: int
    conclusive: bool


def _batched_states(kernel, replications, horizon, rng):
    """State matrix (replications, horizon + 1) advanced one slot at a time."""
    n = kernel.n_states
    cum = _cumulative_rows(kernel.transition)
    states = np.empty((replications, horizon + 1), dtype=np.int64)
    states[:, 0] = rng.choice(n, size=replications, p=kernel.initial_dist)
    for t in range(horizon):
        u = rng.random(replications)
        states[:, t + 1] = (u[:, None] > cum[states[:, t]]).sum(axis=1)
    return states


def _batched_increments(kernel, states, rng):
    replications, cols = states.shape
    horizon = cols - 1
    out = np.empty((replications, horizon))
    src, dst = states[:, :-1], states[:, 1:]
    n = kernel.n_states
    for i in range(n):
        for j in range(n):
            mask = (src == i) & (dst == j)
            count = int(mask.sum())
            if count:
                out[mask] = kernel.law(i, j).sample(rng, count)
    return out


def tail_estimate(
    arrival,
    service: MapKernel,
    levels,
    replications: int,
    horizon: int,
    seed,
    metric: str = "backlog",
    min_hits: int = 50,
) -> list:
    """Empirical stationary tail P(B > b) or P(D > d) with binomial errors.

    `arrival` is a MapKernel or a constant rate (bits/slot).  Each
    replication contributes its end-of-horizon observation, taken after the
    queue has relaxed; levels with fewer than `min_hits` exceedances are
    flagged inconclusive.
    """
    rng = _stream(seed)
    constant_rate = None if isinstance(arrival, MapKernel) else float(arrival)
    d_max = int(max(levels)) + 1 if metric == "delay" else 0

    backlog = np.zeros(replications)
    if metric == "delay" and constant_rate is None:
        window = np.zeros((replications, max(d_max, 1)))  # trailing arrivals ring

    service_states = _batched_states(service, replications, horizon, rng)
    if constant_rate is None:
        arrival_states = _batched_states(arrival, replications, horizon, rng)

    for t in range(horizon):
        if constant_rate is None:
            src = arrival_states[:, t]
            dst = arrival_states[:, t + 1]
            a = np.empty(replications)
            for i in range(arrival.n_states):
                for j in range(arrival.n_states):
                    mask = (src == i) & (dst == j)
                    count = int(mask.sum())
                    if count:
                        a[mask] = arrival.law(i, j).sample(rng, count)
        else:
            a = constant_rate
        src = service_states[:, t]
        dst = service_states[:, t + 1]
        c = np.empty(replications)
        for i in range(service.n_states):
            for j in range(service.n_states):
                mask = (src == i) & (dst == j)
                count = int(mask.sum())
                if count:
                    c[mask] = service.law(i, j).sample(rng, count)
        backlog = np.maximum(backlog + a - c, 0.0)
        if metric == "delay" and constant_rate is None:
            window[:, t % d_max] = a

    out = []
    for level in levels:
        if metric == "backlog":
            exceed = backlog > level
        elif metric == "delay":
            d = int(level)
            if constant_rate is not None:
                # with constant arrivals, D > d iff B > lambda * d
                exceed = backlog > constant_rate * d
            else:
                idx = (np.arange(horizon - d, horizon)) % d_max
                trailing = window[:, idx].sum(axis=1) if d > 0 else np.zeros(replications)
                exceed = backlog > trailing
        else:
            raise ValueError(f"unknown metric {metric!r}")
        hits = int(exceed.sum())
        p_hat = hits / replications
        se = math.sqrt(p_hat * (1.0 - p_hat) / replications)
        out.append(TailEstimate(level, p_hat, se, hits, replications, hits >= min_hits))
    return out


def decay_slope(estimates, min_hits: int = 50) -> float:
    """Least-squares slope of log p_hat over the conclusive tail region."""
    pts = [(e.level, math.log(e.p_hat)) for e in estimates if e.hits >= min_hits and 0 < e.p_hat < 1]
    if len(pts) < 2:
        raise ValueError("not enough conclusive levels for a slope fit")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# martingale validation


def martingale_check(kernel: MapKernel, theta: float, horizon: int, replications: int, seed):
    """Sample mean and standard error of L(T) = (h_{J_T}/h_{J_0}) e^{theta S(T) - T kappa}."""
    sol = perron(kernel, theta)
    rng = _stream(seed)
    states = _batched_states(kernel, replications, horizon, rng)
    increments = _batched_increments(kernel, states, rng)
    s_total = increments.sum(axis=1)
    ell = (
        sol.h[states[:, -1]]
        / sol.h[states[:, 0]]
        * np.exp(theta * s_total - horizon * sol.kappa)
    )
    mean = float(ell.mean())
    se = float(ell.std(ddof=1) / math.sqrt(replications))
    return mean, se


# ---------------------------------------------------------------------------
# stochastic order checks


def stop_loss(pmf: DiscretePmf, t: float) -> float:
    """E[(X - t)^+], the decision statistic for discrete convex order."""
    x, p = np.asarray(pmf.support), np.asarray(pmf.probs)
    return float(np.sum(p * np.maximum(x - t, 0.0)))


def convex_order_leq(x: DiscretePmf, y: DiscretePmf, tol: float = 1e-12) -> bool:
    """Exact convex-order test: equal means plus stop-loss dominance at every
    support point of either law (sufficient and necessary for finite laws)."""
    mean_x = float(np.dot(x.support, x.probs))
    mean_y = float(np.dot(y.support, y.probs))
    if abs(mean_x - mean_y) > tol * max(1.0, abs(mean_x), abs(mean_y)):
        return False
    points = np.union1d(np.asarray(x.support), np.asarray(y.support))
    return all(stop_loss(x, t) <= stop_loss(y, t) + tol for t in points)


@dataclass(frozen=True)
class TestFunctionStat:
    name: str
    mean_difference: float  # E[phi(Y)] - E[phi(X)]
    std_err: float


@dataclass(frozen=True)
class OrderReport:
    verdict: str  # holds | fails | inconclusive
    statistics: tuple
    note: str = field(default="")


def _supermodular_functions(samples, quantile_levels):
    """Battery of supermodular test statistics evaluated per sample row."""
    stats = {}
    stats["pairwise_product_sum"] = (
        0.5 * (samples.sum(axis=1) ** 2 - (samples**2).sum(axis=1))
    )
    stats["coordinate_min"] = samples.min(axis=1)
    for q, c in quantile_levels["min_caps"]:
        stats[f"capped_product_q{q:.1f}"] = np.minimum(samples, c).prod(axis=1)
    for q, t in quantile_levels["sum_thresholds"]:
        stats[f"sum_excess_q{q:.1f}"] = np.maximum(samples.sum(axis=1) - t, 0.0)
    return stats


def supermodular_battery(samples_x, samples_y, alpha: float = 0.01) -> OrderReport:
    """Necessary-condition check of X <=_sm Y via a fixed supermodular battery.

    Marginals are compared first (two-sample Kolmogorov-Smirnov at the
    given level, Bonferroni-corrected); if they differ the verdict is
    inconclusive, since the supermodular order fixes marginals.
    """
    x = np.asarray(samples_x, dtype=float)
    y = np.asarray(samples_y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"sample shapes {x.shape} and {y.shape} do not align")
    k = x.shape[1]
    for col in range(k):
        if ks_2samp(x[:, col], y[:, col]).pvalue < alpha / k:
            return OrderReport(
                "inconclusive", (), f"marginal {col} differs (KS at {alpha:.0%}/{k})"
            )

    pooled = np.vstack([x, y])
    quantiles = {
        "min_caps": [(q, float(np.quantile(pooled, q))) for q in np.arange(0.1, 1.0, 0.1)],
        "sum_thresholds": [
            (q, float(np.quantile(pooled.sum(axis=1), q))) for q in np.arange(0.1, 1.0, 0.1)
        ],
    }
    fx = _supermodular_functions(x, quantiles)
    fy = _supermodular_functions(y, quantiles)
    stats = []
    n_pos = n_neg = 0
    for name in fx:
        dx, dy = fx[name], fy[name]
        diff = float(dy.mean() - dx.mean())
        se = math.sqrt(dx.var(ddof=1) / len(dx) + dy.var(ddof=1) / len(dy))
        stats.append(TestFunctionStat(name, diff, se))
        if diff >= 3.0 * se:
            n_pos += 1
        elif diff <= -3.0 * se:
            n_neg += 1
    if n_neg == 0 and n_pos > 0:
        verdict = "holds"
    elif n_pos == 0 and n_neg > 0:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    note = "necessary-condition battery, not a decision procedure"
    return OrderReport(verdict, tuple(stats), note)


# ---------------------------------------------------------------------------
# ordering experiments


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    decay_rates: dict
    order_report: OrderReport | None
    direction_holds: bool
    detail: str


EXPERIMENTS = (
    "arrival-vs-constant",
    "service-dependence-sweep",
    "subchannel-aggregation",
    "deterministic-multiplexing",
    "random-multiplexing",
)


def ordering_experiment(config: dict) -> ExperimentResult:
    """Run one named paired-simulation experiment.

    The verdicts support, but cannot prove, the asymptotic ordering claims
    they mirror; decay estimates are finite-horizon slopes.
    """
    name = config.get("name")
    seed = config.get("seed", 0)
    if name == "arrival-vs-constant":
        return _experiment_arrival_vs_constant(config, seed)
    if name == "service-dependence-sweep":
        return _experiment_service_sweep(config, seed)
    if name == "subchannel-aggregation":
        return _experiment_subchannel(config, seed)
    if name == "deterministic-multiplexing":
        return _experiment_deterministic_multiplexing(config, seed)
    if name == "random-multiplexing":
        return _experiment_random_multiplexing(config, seed)
    raise UnknownExperiment(f"no experiment named {name!r}; known: {EXPERIMENTS}")


def _bursty_arrival(rate, burst_factor=2.0):
    lo = rate / burst_factor
    hi = 2.0 * rate - lo
    p = np.array([[0.9, 0.1], [0.1, 0.9]])
    laws = ((Constant(lo), Constant(lo)), (Constant(hi), Constant(hi)))
    return MapKernel(("calm", "burst"), p, laws, np.array([0.5, 0.5]))


def _experiment_arrival_vs_constant(config, seed):
    service = config["service"]
    rate = config.get("rate", 0.8 * mean_rate(service))
    levels = config.get("levels")
    replications = config.get("replications", 40_000)
    horizon = config.get("horizon", 400)
    bursty = _bursty_arrival(rate)
    if levels is None:
        theta = stability_root(bursty, service).theta_star
        levels = list(np.linspace(0.0, 4.0 / theta, 9)[1:])
    slope_const = decay_slope(
        tail_estimate(rate, service, levels, replications, horizon, seed, "backlog")
    )
    slope_bursty = decay_slope(
        tail_estimate(bursty, service, levels, replications, horizon, seed + 1, "backlog")
    )
    rates = {"constant": -slope_const, "bursty": -slope_bursty}
    holds = rates["constant"] >= rates["bursty"]
    return ExperimentResult(
        "arrival-vs-constant", rates, None, holds,
        "constant arrival should have the largest backlog decay rate",
    )


def _experiment_service_sweep(config, seed):
    from .channel import capacity_kernel
    from .copulas import one_param_frechet, transition_from_copula

    channel = config["channel"]
    rate = config["rate"]
    varpi = config.get("varpi", [0.3, 0.7])
    alphas = config.get("alphas", (-0.5, 0.0, 0.5))
    levels = config.get("levels", list(range(1, 9)))
    replications = config.get("replications", 60_000)
    horizon = config.get("horizon", 400)
    rates = {}
    for alpha in alphas:
        p, _ = transition_from_copula(one_param_frechet(alpha), varpi)
        kernel = capacity_kernel(p, channel)
        est = tail_estimate(rate, kernel, levels, replications, horizon, seed, "delay")
        rates[f"alpha={alpha}"] = -decay_slope(est)
    values = [rates[f"alpha={a}"] for a in alphas]
    holds = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    return ExperimentResult(
        "service-dependence-sweep", rates, None, holds,
        "delay decay rate should decrease as dependence turns positive",
    )


def _coupled_batch(rng, marginal_cdf_inv, m, n_samples, comonotone):
    if comonotone:
        u = rng.random((n_samples, 1))
        u = np.repeat(u, m, axis=1)
    else:
        u = rng.random((n_samples, m))
    return marginal_cdf_inv(u)


def _experiment_subchannel(config, seed):
    rng = _stream(seed)
    n_samples = config.get("samples", 50_000)
    m = config.get("subchannels", 4)
    inv = lambda u: -np.log1p(-u)  # Exp(1) capacities per sub-channel
    indep = _coupled_batch(rng, inv, m, n_samples, comonotone=False)
    como = _coupled_batch(rng, inv, m, n_samples, comonotone=True)
    report = supermodular_battery(indep, como)
    return ExperimentResult(
        "subchannel-aggregation", {}, report, report.verdict == "holds",
        "independent sub-channel capacities <=_sm comonotone ones",
    )


def _experiment_deterministic_multiplexing(config, seed):
    rng = _stream(seed)
    n_samples = config.get("samples", 50_000)
    m = config.get("flows", 4)
    inv = lambda u: np.ceil(4.0 * u)  # per-flow packet counts
    indep = _coupled_batch(rng, inv, m, n_samples, comonotone=False)
    como = _coupled_batch(rng, inv, m, n_samples, comonotone=True)
    report = supermodular_battery(indep, como)
    return ExperimentResult(
        "deterministic-multiplexing", {}, report, report.verdict == "holds",
        "aggregating a comonotone flow set dominates the independent one",
    )


def _experiment_random_multiplexing(config, seed):
    rng = _stream(seed)
    n_samples = config.get("samples", 50_000)
    m = config.get("dimensions", 3)
    max_batches = config.get("max_batches", 6)
    inv = lambda u: np.floor((max_batches + 1) * u)  # batch counts 0..max
    counts_ind = _coupled_batch(rng, inv, m, n_samples, comonotone=False).astype(int)
    counts_com = _coupled_batch(rng, inv, m, n_samples, comonotone=True).astype(int)
    # shared batch sizes, independent of the counts
    sizes = rng.exponential(size=(n_samples, m, max_batches + 1))
    cum = np.cumsum(sizes, axis=2)
    zero = np.zeros((n_samples, m, 1))
    cum = np.concatenate([zero, cum], axis=2)
    take = lambda counts: np.take_along_axis(cum, counts[:, :, None], axis=2)[:, :, 0]
    report = supermodular_battery(take(counts_ind), take(counts_com))
    return ExperimentResult(
        "random-multiplexing", {}, report, report.verdict == "holds",
        "comonotone batch counts dominate independent ones after multiplexing",
    )
