"""Monte Carlo queue simulation and empirical stochastic-order checks.

Each call draws from one stream seeded by its `seed`, so results are
reproducible.  All state sampling goes through one successor rule, the
count of a pinned CDF row's inner entries at or below the uniform
(`laws.count_at_or_below`), and all increment draws through `_increments`,
one draw per distinct law of the kernel's law table (`MapKernel._law_table`,
which the transforms read too).  `tail_estimate` and `martingale_check` walk
their chains with `_blocks`, in blocks of at most `_BLOCK_CELLS`
replication-slots, each slot moving every chain by its own CDF row alone,
so their memory is O(replications x block), not O(replications x horizon).
A single path (`sample_path`, `channel.controlled_capacity_process`) is one
`_path_states` call: the rule over every row gives a table of every state's
successor per uniform (`_successors`), padded to whole blocks of about
sqrt(horizon) / 4 slots and walked in two numpy passes over them, chained
by one Python step per block, with the states of a slot-by-slot walk.

States, successor tables and the cells src * n + dst of a walk are held in
`_state_type(n)`, the smallest unsigned type that holds n * n (one byte up
to 15 states), and each cell's law index in the smallest type that holds
the law count.  The types change no draw: the stream is consumed in the
same order, by the same arithmetic, as with machine-word indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import _delay_level, _finite_level
from .counters import COUNTS
from .errors import (
    ConfigError,
    DimensionMismatch,
    InconclusiveTail,
    UnknownExperiment,
)
from .laws import Constant, DiscretePmf, _pinned_cdf, count_at_or_below
from .spectral import MapKernel, mean_rate, perron, single_state_kernel, stability_root


# ---------------------------------------------------------------------------
# sample paths


# replication-slots per block of `_blocks`
_BLOCK_CELLS = 1 << 16


def _stream(seed):
    return np.random.default_rng(seed)


def _state_type(n: int) -> np.dtype:
    """Smallest unsigned type that holds every cell index src * n + dst."""
    return np.min_scalar_type(n * n)


def _successors(cum, u, out):
    """Write the successor table to `out`, shape u.shape + (n,) in
    `_state_type(n)`: entry i is row i's successor, the first j with
    u < cum[..., i, j], for pinned CDF rows `cum` (a matrix, or a stack
    broadcasting against u).  Each is the count of the row's n - 1 inner
    columns at or below u (`count_at_or_below`, the one successor rule),
    taken over u as a whole in one contiguous column, then stored."""
    n = cum.shape[-1]
    col = np.empty(u.shape, dtype=out.dtype)
    for i in range(n):
        out[..., i] = count_at_or_below((cum[..., i, j] for j in range(n - 1)), u, col)


def _blocks(kernel: MapKernel, replications: int, horizon: int, rng, step: int):
    """Walk `replications` chains of `kernel` over `horizon` slots, `step` slots
    at a time.

    Yields (states (R, b + 1), increments (R, b)) per block of b <= step
    slots, states in `_state_type(n)`; states[:, 0] is the last state of the
    block before.  Each block draws its uniforms as one (b, R) array and its
    increments in one `_increments` call; only the current state vector
    outlives a block.  Each slot moves every chain by its own pinned CDF
    row alone: one `take` gathers the n - 1 inner entries of the rows at
    the chains' states, as n - 1 rows of R, which are counted at or below
    the slot's uniforms (`count_at_or_below`, the successor rule of
    `_successors`).

    A one-state chain draws no state, and one draw fills its increments
    replication by replication, so a chunk of whole-horizon blocks takes
    the same values as one (R, T) draw.  A multi-state chain is walked in
    slot-major (b, R) arrays, which keep every numpy call long when R is
    large and b small, and yields their transposed views.
    """
    n = kernel.n_states
    kind = _state_type(n)
    if n > 1:
        cum = _pinned_cdf(kernel.transition)
        inner = np.ascontiguousarray(cum[:, :-1].T)  # row j: column j of every CDF row
        state = rng.choice(n, size=replications, p=kernel.initial_dist).astype(kind)
        COUNTS["state_draws"] += replications
    for start in range(0, horizon, step):
        b = min(step, horizon - start)
        if n == 1:
            states = np.broadcast_to(kind.type(0), (replications, b + 1))
            yield states, _increments(kernel, states[:, :-1], states[:, 1:], rng)
        else:
            u = rng.random((b, replications))
            COUNTS["state_draws"] += b * replications
            path = np.empty((b + 1, replications), dtype=kind)
            path[0] = state
            for u_t, moved in zip(u, path[1:]):
                state = count_at_or_below(inner.take(state, axis=1), u_t, moved)
            yield path.T, _increments(kernel, path[:-1], path[1:], rng).T


def _path_states(transitions, initial_dist, horizon, rng) -> np.ndarray:
    """State series (horizon + 1) of one path, walked in two passes over the
    successor table of every slot; a one-state chain draws nothing.  The
    horizon is a whole number >= 0, checked before any draw.

    `transitions` is one (n, n) matrix, or a (P, n, n) stack of plan steps,
    slot t moving by step min(t, P - 1); their CDF rows are pinned here, and
    each slot's successors are written into the table in place.

    The table is padded with state 0 to horizon // b + 1 whole blocks of b ~
    sqrt(horizon) / 4 slots.  Pass 1 walks every full block, all but the
    last, from every state at once, one `take` per slot position, which
    gives each block's end state per start state; one Python step per block
    then chains the true start state of each, and pass 2 walks all blocks
    from those at once.  That is 2b numpy steps of a few microseconds and
    horizon / b Python steps of about 0.1 microseconds, in place of horizon
    Python steps, and every state is the one a slot-by-slot walk reaches.
    The walk holds states in the table's `_state_type(n)` and its indices
    for one slot position at a time.
    """
    if not _is_whole(horizon, 0):
        raise ValueError(f"horizon must be a whole number of slots >= 0, got {horizon!r}")
    horizon = int(horizon)
    n = len(initial_dist)
    if n == 1:
        return np.zeros(horizon + 1, dtype=np.int64)
    steps = _pinned_cdf(np.reshape(transitions, (-1, n, n)))
    state = int(rng.choice(n, p=initial_dist))
    u = rng.random(horizon)
    COUNTS["state_draws"] += 1 + horizon
    b = max(1, math.isqrt(horizon) // 4)
    full = horizon // b  # the blocks before the last; the padding fills out the last
    # zeros: the padding past the horizon, walked by pass 2 and left out of the path
    table = np.zeros(((full + 1) * b, n), dtype=_state_type(n))
    head = min(len(steps) - 1, horizon)  # slots before the last step
    _successors(steps[:head], u[:head], table[:head])
    _successors(steps[-1], u[head:], table[head:horizon])
    del u  # the walk holds no uniform
    table = table.ravel()
    stride = b * n  # table entries per block
    # pass 1: the end state of every full block from every start state; the
    # block offsets are spelled out to the full (full, n) shape, since adding
    # a broadcast column costs twice as much, and table[shift:] moves them to
    # the slot position shift / n
    ends = np.tile(np.arange(n, dtype=table.dtype), (full, 1))
    base = np.repeat(np.arange(0, full * stride, stride), n).reshape(full, n)
    cells = np.empty_like(base)
    for shift in range(0, stride, n):
        np.add(base, ends, out=cells)
        ends = table[shift:].take(cells)
    starts = [state]
    for row in ends.tolist():
        state = row[state]
        starts.append(state)
    # pass 2: every block from its start state
    state = np.array(starts, dtype=table.dtype)
    base = np.arange(0, len(starts) * stride, stride)
    cells = np.empty_like(base)
    walked = np.empty((b, len(starts)), dtype=table.dtype)
    for t in range(b):
        np.add(base, state, out=cells)
        state = table[t * n:].take(cells)
        walked[t] = state
    path = np.empty(horizon + 1, dtype=np.int64)
    path[0] = starts[0]
    path[1:] = walked.T.ravel()[:horizon]
    return path


def _increments(kernel: MapKernel, src, dst, rng) -> np.ndarray:
    """Increments of the (src, dst) transitions, any shape: one draw per
    distinct law, in the order of `kernel._law_table`'s `LawStack.laws`, which
    holds every transition the samplers can take (the pinned CDF rows skip
    the others).  Where law g is that of every move out of state g
    (`_law_is_source`, as in a capacity kernel whose SNR follows the source
    state) the law index is src itself; otherwise each cell src * n + dst is
    formed in `_state_type(n)` and reads its law index from the table's
    `law_of`."""
    laws, law_of = kernel._law_table[0].laws, kernel._law_table[2]
    COUNTS["increment_draws"] += src.size
    if len(laws) == 1:  # the one law takes every slot
        return laws[0].sample(rng, src.size).reshape(src.shape)
    if kernel._law_is_source:
        index = src
    else:
        kind = _state_type(kernel.n_states)
        cell = src.astype(kind)
        cell *= kernel.n_states
        cell += dst.astype(kind, copy=False)
        index = law_of.take(cell)
    out = np.empty(index.size)
    for g, law in enumerate(laws):
        at = np.flatnonzero(index == g)  # in row-major order
        if at.size:
            out[at] = law.sample(rng, at.size)
    return out.reshape(index.shape)


def _is_whole(value, least: int) -> bool:
    """Whether value is a whole number (an Integral but no bool: 3.0 is not) >= least."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def sample_path(kernel: MapKernel, horizon: int, seed) -> tuple:
    """(state series, increment series) of one kernel realization.

    States include the initial state, so the state series has length
    horizon + 1; increment t is drawn from the law at the realized
    (state_{t-1}, state_t) pair.  The horizon is a whole number >= 0.
    """
    rng = _stream(seed)
    states = _path_states(kernel.transition, kernel.initial_dist, horizon, rng)
    return states, _increments(kernel, states[:-1], states[1:], rng)


# ---------------------------------------------------------------------------
# batched tail estimation


_MIN_HITS = 50  # exceedances that make a level conclusive, for the flag and the slope fit


@dataclass(frozen=True)
class TailEstimate:
    level: float
    p_hat: float
    std_err: float
    hits: int
    replications: int
    conclusive: bool


def tail_estimate(
    arrival: MapKernel,
    service: MapKernel,
    levels,
    replications: int,
    horizon: int,
    seed,
    metric: str = "backlog",
) -> list:
    """Empirical stationary tail P(B > b) or P(D > d) with binomial errors.

    A constant arrival at rate lam is `single_state_kernel(Constant(lam))`.
    Each replication contributes its end-of-horizon observation, taken after
    the queue has relaxed; levels with fewer than 50 exceedances are
    flagged inconclusive.  Delay levels are whole slots d >= 0: D > d iff
    the backlog exceeds the arrivals of the last d slots.  Replications and
    horizon are whole numbers >= 1, checked before any draw.
    """
    if not (_is_whole(replications, 1) and _is_whole(horizon, 1)):
        raise ValueError(f"replications and horizon must be whole numbers >= 1, got "
                         f"{replications!r}, {horizon!r}")
    replications, horizon = int(replications), int(horizon)
    if metric == "delay":
        d_max = max((int(_delay_level(d)) for d in levels), default=0)
        window = []  # the arrival blocks that reach into the last d_max slots
    elif metric == "backlog":
        levels = [_finite_level(b) for b in levels]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    rng = _stream(seed)
    step = max(1, _BLOCK_CELLS // replications)
    backlog = np.zeros(replications)
    end = 0  # slots walked
    for (_, c), (_, a) in zip(_blocks(service, replications, horizon, rng, step),
                              _blocks(arrival, replications, horizon, rng, step)):
        # B after the block is X_b - min(-B, min_s X_s), X the block's net work;
        # slot-major rows keep every numpy call long on short blocks
        net = np.ascontiguousarray(a.T - c.T)
        # row by row, not np.cumsum(net, axis=0, out=net), the same sums bit for bit:
        # the cumsum took 309 against 31 us at (b, R) = (12, 5500), 364 against 0 at
        # (1, 65536) and 251 against 160 at (180, 362) (timeit, 2-vCPU Linux host)
        for t in range(1, len(net)):
            net[t] += net[t - 1]
        backlog = net[-1] - np.minimum(-backlog, net.min(axis=0))
        end += len(net)
        if metric == "delay" and end > horizon - d_max:
            window.append(a.T)
    if metric == "delay":
        # arrivals of the last d_max slots, slot-major, none before slot 0
        recent = np.concatenate([np.zeros((max(0, d_max - horizon), replications))] + window)
        recent = recent[len(recent) - d_max:]

    out = []
    for level in levels:
        if metric == "backlog":
            exceed = backlog > level
        else:
            exceed = backlog > recent[d_max - int(level):].sum(axis=0)
        hits = int(exceed.sum())
        p_hat = hits / replications
        se = math.sqrt(p_hat * (1.0 - p_hat) / replications)
        out.append(TailEstimate(level, p_hat, se, hits, replications, hits >= _MIN_HITS))
    return out


def decay_slope(estimates) -> float:
    """Least-squares slope of log p_hat over the conclusive tail region."""
    pts = [(e.level, math.log(e.p_hat)) for e in estimates
           if e.hits >= _MIN_HITS and 0 < e.p_hat < 1]
    if len(pts) < 2:
        raise InconclusiveTail(f"not enough conclusive levels for a slope fit: {len(pts)} "
                               f"of {len(estimates)} have {_MIN_HITS}+ hits")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# martingale validation


def martingale_check(kernel: MapKernel, theta: float, horizon: int, replications: int, seed):
    """Sample mean and standard error of L(T) = (h_{J_T}/h_{J_0}) e^{theta S(T) - T kappa},
    over whole numbers of replications >= 2 and slots >= 1, checked before any draw."""
    if not (_is_whole(replications, 2) and _is_whole(horizon, 1)):
        raise ValueError(f"replications and horizon must be whole numbers >= 2 and >= 1, got "
                         f"{replications!r}, {horizon!r}")
    replications, horizon = int(replications), int(horizon)
    sol = perron(kernel, theta)
    rng = _stream(seed)
    s_total = np.zeros(replications)
    first = np.empty(replications, dtype=np.intp)
    last = np.empty(replications, dtype=np.intp)
    # chunks of replications, each walked over the whole horizon
    chunk = max(1, _BLOCK_CELLS // horizon)
    for lo in range(0, replications, chunk):
        hi = min(lo + chunk, replications)
        walk = _blocks(kernel, hi - lo, horizon, rng, max(1, _BLOCK_CELLS // (hi - lo)))
        for k, (states, increments) in enumerate(walk):
            if k == 0:
                first[lo:hi] = states[:, 0]
            s_total[lo:hi] += increments.sum(axis=1)
        last[lo:hi] = states[:, -1]
    ell = sol.h[last] / sol.h[first] * np.exp(theta * s_total - horizon * sol.kappa)
    mean = float(ell.mean())
    se = float(ell.std(ddof=1) / math.sqrt(replications))
    return mean, se


# ---------------------------------------------------------------------------
# stochastic order checks


def stop_loss(pmf: DiscretePmf, t: float) -> float:
    """E[(X - t)^+], the decision statistic for discrete convex order."""
    x, p = np.asarray(pmf.support), np.asarray(pmf.probs)
    return float(np.sum(p * np.maximum(x - t, 0.0)))


def means_differ(x: DiscretePmf, y: DiscretePmf, tol: float = 1e-12):
    """(E[X], E[Y]) if they differ by more than tol relative to the larger of 1
    and their magnitudes, else None; convex order needs equal means."""
    mean_x = float(np.dot(x.support, x.probs))
    mean_y = float(np.dot(y.support, y.probs))
    if abs(mean_x - mean_y) > tol * max(1.0, abs(mean_x), abs(mean_y)):
        return mean_x, mean_y
    return None


def convex_order_leq(x: DiscretePmf, y: DiscretePmf, tol: float = 1e-12) -> bool:
    """Exact convex-order test: equal means plus stop-loss dominance at every
    support point of either law (sufficient and necessary for finite laws)."""
    if means_differ(x, y, tol):
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


_KS_LEVEL = 0.01  # level of supermodular_battery's marginal Kolmogorov-Smirnov check


def supermodular_battery(samples_x, samples_y) -> OrderReport:
    """Necessary-condition check of X <=_sm Y via a fixed supermodular battery.

    Marginals are compared first (two-sample Kolmogorov-Smirnov at level
    _KS_LEVEL, Bonferroni-corrected); if they differ the verdict is
    inconclusive, since the supermodular order fixes marginals.  Each
    sample needs 2 rows at least, for its standard errors.
    """
    x = np.asarray(samples_x, dtype=float)
    y = np.asarray(samples_y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"sample shapes {x.shape} and {y.shape} do not align")
    if min(len(x), len(y)) < 2:
        raise DimensionMismatch(f"samples of {len(x)} and {len(y)} rows: each needs 2 or more")
    # imported here: scipy.stats is slow to import, and only this check needs it
    from scipy.stats import ks_2samp

    k = x.shape[1]
    for col in range(k):
        if ks_2samp(x[:, col], y[:, col]).pvalue < _KS_LEVEL / k:
            return OrderReport(
                "inconclusive", (), f"marginal {col} differs (KS at {_KS_LEVEL:.0%}/{k})"
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


def ordering_experiment(config: dict) -> ExperimentResult:
    """Run one named paired-simulation experiment.

    The verdicts support, but cannot prove, the asymptotic ordering claims
    they mirror; decay estimates are finite-horizon slopes.
    """
    name = config.get("name")
    if name not in EXPERIMENTS:
        raise UnknownExperiment(f"no experiment named {name!r}; known: {tuple(EXPERIMENTS)}")
    return EXPERIMENTS[name](config, config.get("seed", 0))


def _required(config, key):
    """config[key], or ConfigError naming the experiment that needs it."""
    if key not in config:
        raise ConfigError(f"experiment {config.get('name')!r} needs {key!r}")
    return config[key]


def _bursty_arrival(rate):
    lo = rate / 2.0
    hi = 2.0 * rate - lo
    p = np.array([[0.9, 0.1], [0.1, 0.9]])
    laws = ((Constant(lo), Constant(lo)), (Constant(hi), Constant(hi)))
    return MapKernel(("calm", "burst"), p, laws, np.array([0.5, 0.5]))


def _experiment_arrival_vs_constant(config, seed):
    service = _required(config, "service")
    rate = config.get("rate", 0.8 * mean_rate(service))
    levels = config.get("levels")
    replications = config.get("replications", 40_000)
    horizon = config.get("horizon", 400)
    bursty = _bursty_arrival(rate)
    if levels is None:
        theta = stability_root(bursty, service).theta_star
        levels = list(np.linspace(0.0, 4.0 / theta, 9)[1:])
    slope_const = decay_slope(
        tail_estimate(single_state_kernel(Constant(rate)), service, levels, replications,
                      horizon, seed, "backlog")
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

    channel = _required(config, "channel")
    rate = _required(config, "rate")
    varpi = config.get("varpi", [0.3, 0.7])
    alphas = config.get("alphas", (-0.5, 0.0, 0.5))
    levels = config.get("levels", list(range(1, 9)))
    replications = config.get("replications", 60_000)
    horizon = config.get("horizon", 400)
    rates = {}
    for alpha in alphas:
        p, _ = transition_from_copula(one_param_frechet(alpha), varpi)
        kernel = capacity_kernel(p, channel)
        est = tail_estimate(single_state_kernel(Constant(rate)), kernel, levels, replications,
                            horizon, seed, "delay")
        rates[f"alpha={alpha}"] = -decay_slope(est)
    values = [rates[f"alpha={a}"] for a in alphas]
    holds = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    return ExperimentResult(
        "service-dependence-sweep", rates, None, holds,
        "delay decay rate should decrease as dependence turns positive",
    )


def _battery_experiment(name, count_key, count, marginal, detail):
    """Runner comparing `count` independent coordinates with comonotone ones by
    the supermodular battery; `marginal(config, rng, u_ind, u_com)` maps the
    independent uniforms and the shared uniform column, drawn in that order."""

    def run(config, seed):
        rng = _stream(seed)
        n_samples = config.get("samples", 50_000)
        m = config.get(count_key, count)
        u_ind = rng.random((n_samples, m))
        u_com = np.repeat(rng.random((n_samples, 1)), m, axis=1)
        report = supermodular_battery(*marginal(config, rng, u_ind, u_com))
        return ExperimentResult(name, {}, report, report.verdict == "holds", detail)

    return run


def _multiplexed_batches(config, rng, *uniforms):
    """Batch counts 0..max_batches per coordinate, summed over batch sizes that
    are shared by both couplings and drawn after the counts."""
    max_batches = config.get("max_batches", 6)
    counts = [np.floor((max_batches + 1) * u).astype(int) for u in uniforms]
    n_samples, m = uniforms[0].shape
    sizes = rng.standard_exponential((n_samples, m, max_batches + 1))
    cum = np.concatenate([np.zeros((n_samples, m, 1)), np.cumsum(sizes, axis=2)], axis=2)
    return [np.take_along_axis(cum, c[:, :, None], axis=2)[:, :, 0] for c in counts]


EXPERIMENTS = {
    "arrival-vs-constant": _experiment_arrival_vs_constant,
    "service-dependence-sweep": _experiment_service_sweep,
    "subchannel-aggregation": _battery_experiment(
        "subchannel-aggregation", "subchannels", 4,
        lambda config, rng, *u: [-np.log1p(-x) for x in u],  # Exp(1) capacities
        "independent sub-channel capacities <=_sm comonotone ones"),
    "deterministic-multiplexing": _battery_experiment(
        "deterministic-multiplexing", "flows", 4,
        lambda config, rng, *u: [np.ceil(4.0 * x) for x in u],  # per-flow packet counts
        "aggregating a comonotone flow set dominates the independent one"),
    "random-multiplexing": _battery_experiment(
        "random-multiplexing", "dimensions", 3, _multiplexed_batches,
        "comonotone batch counts dominate independent ones after multiplexing"),
}
