"""Analytic delay/backlog tail bounds for Markov additive arrival and service.

All bounds share the positive root theta* of the stability equation
kappa^A(theta) + kappa^{-S}(theta) = 0; the delay tail decays at rate
kappa^A(theta*) and the backlog tail at rate theta*.  Upper and lower
bounds differ only by level-independent constants built from the Perron
eigenvector spreads of the two chains.

The finite-horizon bounds share one exponent: a level x covers y x slots
of service against (y - lag) x slots of arrivals and adds shift theta x, so
theta_y = shift theta - y kappa^{-S}(theta) - (y - lag) kappa^A(theta) at
its maximizer theta; delay takes (shift, lag) = (0, 1), backlog (1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    MapKernel,
    PerronStack,
    cgf_as,
    perron,
    perron_grid,
    positive_root,
    stability_root,
)


@dataclass(frozen=True)
class BoundReport:
    level: float
    lower: float
    upper: float
    theta_star: float
    conditioning: str
    lower_raw: float
    upper_raw: float


@dataclass(frozen=True)
class HorizonBoundReport:
    level: float
    y: float
    theta: float
    theta_y: float
    y_gamma: float
    branch: str
    bound: float
    bound_raw: float


@dataclass(frozen=True)
class DccReport:
    value: float
    theta_opt: float
    asymptotic_cap: float
    value_at_root: float


def _clamp(x):
    return min(max(x, 0.0), 1.0)


def _finite_level(x):
    """x itself if it is finite, else ValueError."""
    if not math.isfinite(x):
        raise ValueError(f"level must be finite, got {x!r}")
    return x


def _delay_level(d, whole: bool = True):
    """d itself if it is finite, >= 0 and (when `whole`) integral, else ValueError."""
    if not (math.isfinite(d) and d >= 0 and (float(d).is_integer() or not whole)):
        kind = "whole" if whole else "finite"
        raise ValueError(f"delay level must be {kind} slots >= 0, got {d!r}")
    return d


def _sandwich_rows(arrival: MapKernel, service: MapKernel, levels, root, f_a,
                   h_minus: float, h_plus: float, rate: float, arrival_time: str) -> list:
    """Per level x: the row h± f_A[i] h^{-S}_j e^{-rate x} of each state pair
    (i, j), arrival state outer, then "average", the pair rows weighted by
    varpi_A[i] varpi_S[j].  A one-state arrival chain (constant traffic among
    them) has nothing to condition on, so its labels name the service state
    alone."""
    labels = [f"S[{ls}]@0" if arrival.n_states == 1 else f"A[{la}]@{arrival_time},S[{ls}]@0"
              for la in arrival.state_labels for ls in service.state_labels]
    pairs = (f_a[:, None] * root.service.h).ravel()
    weights = np.outer(arrival.initial_dist, service.initial_dist).ravel()
    out = []
    for x in levels:
        decay = math.exp(-rate * x)
        lo_x, up_x = h_minus * pairs * decay, h_plus * pairs * decay
        average = ("average", float(np.sum(weights * lo_x)), float(np.sum(weights * up_x)))
        for label, lo, up in [*zip(labels, lo_x, up_x), average]:
            out.append(BoundReport(x, _clamp(lo), _clamp(up), root.theta_star, label, lo, up))
    return out


def delay_bounds(arrival: MapKernel, service: MapKernel, d_range) -> list:
    """Double-sided P(D > d) bounds, per initial-state pair and averaged.

    The conditioning pairs the arrival chain state at slot d with the
    service chain state at time 0.  The bound depends on the service state
    only, through h^{-S}_{J_0}, so the average's arrival weights sum to one.
    A multi-state arrival's rows are conditioned on its state at slot d, so
    its levels are whole slots d >= 0; a one-state arrival chain admits any
    real d >= 0.
    """
    d_range = [_delay_level(d, whole=arrival.n_states > 1) for d in d_range]
    root = stability_root(arrival, service)
    h_a, h_s = root.arrival.h, root.service.h
    kappa = root.arrival.kappa
    h_plus = (h_a.max() / h_a.min()) / h_s.min()
    h_minus = math.exp(-kappa) * (h_a.min() / h_a.max()) ** 2 / h_s.max()
    return _sandwich_rows(arrival, service, d_range, root, np.ones(arrival.n_states),
                          h_minus, h_plus, kappa, "d")


def backlog_bounds(arrival: MapKernel, service: MapKernel, b_range) -> list:
    """Double-sided P(B > b) bounds with factor h^A_{J_0} h^{-S}_{J_0} e^{-theta b}."""
    b_range = [_finite_level(b) for b in b_range]
    root = stability_root(arrival, service)
    h_a, h_s = root.arrival.h, root.service.h
    h_plus = 1.0 / (h_a.min() * h_s.min())
    h_minus = math.exp(-root.arrival.kappa) * h_a.min() / (h_a.max() ** 2 * h_s.max())
    return _sandwich_rows(arrival, service, b_range, root, h_a,
                          h_minus, h_plus, root.theta_star, "0")


def _horizon_rows(arrival: MapKernel, service: MapKernel, y: float, levels, shift: float,
                  lag: float, arrival_top, what: str) -> list:
    """Per level x, h+ (varpi_S h^{-S}) e^{-theta_y x} with h+ = (arrival_top(h^A) /
    min h^A) / min h^{-S}, at the root theta of y kappa'^{-S} + (y - lag) kappa'^A
    = shift (`what`); y_gamma, where theta = theta*, is (shift + lag kappa'^A) /
    (kappa'^A + kappa'^{-S}) at theta*, and the branch is the side of it y lies on."""
    root = stability_root(arrival, service)
    da_g = root.arrival.kappa_dot
    # kappa'^{-S}(theta) = -kappa'^S(-theta)
    y_gamma = (shift + lag * da_g) / (da_g - root.service.kappa_dot)
    theta = positive_root(
        lambda t: (-y * cgf_as("negated service", service, -t, derivative=True)
                   + (y - lag) * cgf_as("arrival", arrival, t, derivative=True) - shift),
        what)
    sol_a, sol_s = perron(arrival, theta), perron(service, -theta)
    theta_y = shift * theta - y * sol_s.kappa - (y - lag) * sol_a.kappa
    h_plus = (arrival_top(sol_a.h) / sol_a.h.min()) / sol_s.h.min()
    factor = float(service.initial_dist @ sol_s.h)
    branch = "short-horizon" if y < y_gamma else "long-horizon-remainder"
    return [HorizonBoundReport(x, y, theta, theta_y, y_gamma, branch, _clamp(raw), raw)
            for x in levels for raw in [h_plus * factor * math.exp(-x * theta_y)]]


def horizon_delay_bound(arrival: MapKernel, service: MapKernel, y: float, d_range) -> list:
    """Finite-horizon delay bounds with horizon multiplier y > 1, one per
    delay d >= 0 of `d_range`, all checked before the one theta solve:
    _horizon_rows with (shift, lag) = (0, 1) and max h^A.  The branch records
    whether the bound applies to P(D(t)>d; t<=yd) (y < y_gamma) or to the
    long-horizon remainder (y > y_gamma)."""
    if not (math.isfinite(y) and y > 1):
        raise ValueError(f"delay horizon multiplier y must be finite and > 1, got {y!r}")
    d_range = [_delay_level(d, whole=False) for d in d_range]
    return _horizon_rows(arrival, service, y, d_range, 0.0, 1.0, np.max,
                         "horizon delay equation y kappa'^-S + (y - 1) kappa'^A")


def horizon_backlog_bound(arrival: MapKernel, service: MapKernel, y: float, b_range) -> list:
    """Finite-horizon backlog bounds with horizon multiplier y > 0, one per
    finite level of `b_range`, all checked before the one theta solve:
    _horizon_rows with (shift, lag) = (1, 0) and varpi_A h^A."""
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"horizon multiplier y must be finite and positive, got {y!r}")
    b_range = [_finite_level(b) for b in b_range]
    return _horizon_rows(arrival, service, y, b_range, 1.0, 0.0,
                         lambda h_a: arrival.initial_dist @ h_a,
                         "horizon backlog equation y (kappa'^A + kappa'^-S) - 1")


# interior points per round of dcc_upper's section search
_SECTION_POINTS = 15


def _dcc_objective(arrival: PerronStack, service: PerronStack, epsilon, varpi_s):
    """g(theta) per theta of the arrival stack, with the service stack at
    -theta, +inf where either kernel's solve failed."""
    h_a, h_s = arrival.h, service.h
    h_plus = (h_a.max(axis=1) / h_a.min(axis=1)) / h_s.min(axis=1)
    g = (-1.0 / arrival.theta) * (np.log(epsilon / (h_plus[:, None] * h_s)) @ varpi_s)
    g[~(arrival.solved & service.solved)] = math.inf
    return g


def dcc_upper(arrival: MapKernel, service: MapKernel, deadlines, epsilon: float):
    """Upper bound on delay-constrained capacity at each deadline, optimized over theta.

    The bound at deadline d is g(theta) / d, where
    g(theta) = -(1/theta) sum_j varpi_j log(epsilon / (h+(theta) h^{-S}_j(theta))),
    h+ = (max h^A / min h^A) / min h^{-S} and varpi is the service initial
    distribution.  Only 1/d depends on the deadline, so one search serves every
    deadline.  g is evaluated on a 200-point log grid on [theta*/100, theta_max]
    with theta* added, one perron_grid call per kernel.  theta_max starts at
    8 theta*; while g is +inf at the grid's top point theta_max (either
    kernel's solve fails there) and theta_max > theta*, it is halved and the
    grid evaluated again.  A section search then refines the grid
    argmin: each round evaluates _SECTION_POINTS equally spaced interior points of
    [a, b] (at first the argmin's grid neighbours) as one stack per kernel and
    keeps the two neighbours of their argmin, until b - a < 1e-12 max(1, b).
    `value` is the least g/d over the grid and the rounds, clamped at 0;
    `theta_opt` is the last round's argmin, and `value_at_root` the bound at
    theta*.  The asymptotic cap kappa^A(theta*)/theta* is reported alongside.

    For constant traffic the capacity edges at (d, epsilon) are the fixed
    points lam = dcc_upper(Constant(lam), S, [d], epsilon)[0].value_at_root;
    on the toy service (cgf -3 theta + theta^2) they are the roots of
    d lam (3 - lam) = log(1/epsilon).

    Returns one DccReport per deadline of the sequence `deadlines`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    for d in deadlines:
        if not (math.isfinite(d) and d > 0):
            raise ValueError(f"deadline must be finite slots > 0, got {d!r}")
    root = stability_root(arrival, service)
    theta_star = root.theta_star

    def objective(thetas):
        return _dcc_objective(perron_grid(arrival, thetas), perron_grid(service, -thetas),
                              epsilon, service.initial_dist)

    theta_max = 8.0 * theta_star
    while True:
        grid = np.geomspace(theta_star / 100.0, theta_max, 200)
        grid = np.unique(np.append(grid, theta_star))
        values = objective(grid)
        # far above theta* the service transform's entries can span more
        # magnitudes than the eigensolve resolves, as in stability_root
        if values[-1] < math.inf or theta_max <= theta_star:
            break
        theta_max *= 0.5
    k = int(np.argmin(values))
    best = values[k]
    at_root = values[int(np.searchsorted(grid, theta_star))]
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    inner = np.arange(1, _SECTION_POINTS + 1) / (_SECTION_POINTS + 1)
    while True:
        points = np.concatenate(([a], a + (b - a) * inner, [b]))
        g = objective(points[1:-1])
        j = int(np.argmin(g))
        best = min(best, g[j])
        theta_opt, a, b = points[j + 1], points[j], points[j + 2]
        if b - a < 1e-12 * max(1.0, b):
            break
    cap = root.arrival.kappa / theta_star
    return [DccReport(max(float(best) / d, 0.0), float(theta_opt), cap, float(at_root) / d)
            for d in deadlines]
