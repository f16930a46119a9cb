"""Analytic delay/backlog tail bounds for Markov additive arrival and service.

All bounds share the positive root theta* of the stability equation
kappa^A(theta) + kappa^{-S}(theta) = 0; the delay tail decays at rate
kappa^A(theta*) and the backlog tail at rate theta*.  Upper and lower
bounds differ only by level-independent constants built from the Perron
eigenvector spreads of the two chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MgfDiverged, NoConvergence, NoFixedPoint, NoRootInDomain, UnstableQueue
from .spectral import (
    MapKernel,
    negate,
    perron,
    positive_root,
    stability_root,
)


@dataclass(frozen=True)
class BoundReport:
    level: float
    lower: float
    upper: float
    theta_star: float
    h_plus: float
    h_minus: float
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


def decay_rates(arrival: MapKernel, service: MapKernel):
    """(delay_rate, backlog_rate) = (kappa^A(theta*), theta*)."""
    root = stability_root(arrival, service)
    return root.kappa_arrival, root.theta_star


def _state_pairs(arrival: MapKernel, service: MapKernel, arrival_time: str):
    """(arrival index, service index, conditioning label) per state pair.

    A one-state arrival chain (constant traffic among them) has nothing to
    condition on, so its labels name the service state alone.
    """
    for ia, la in enumerate(arrival.state_labels):
        for i_s, ls in enumerate(service.state_labels):
            if arrival.n_states == 1:
                yield ia, i_s, f"S[{ls}]@0"
            else:
                yield ia, i_s, f"A[{la}]@{arrival_time},S[{ls}]@0"


def delay_bounds(arrival: MapKernel, service: MapKernel, d_range) -> list:
    """Double-sided P(D > d) bounds, per initial-state pair and averaged.

    The conditioning pairs the arrival chain state at time d with the
    service chain state at time 0; the arrival state distribution at d is
    propagated as varpi_0 P^d.  The bound value itself depends on the
    service state only, through h^{-S}_{J_0}.  Levels are whole slots d >= 0;
    a one-state arrival chain has P^d = [1], so any real d >= 0 is defined.
    """
    d_range = [_delay_level(d, whole=arrival.n_states > 1) for d in d_range]
    root = stability_root(arrival, service)
    h_a, h_s = root.arrival.h, root.neg_service.h
    kappa = root.kappa_arrival
    theta = root.theta_star
    h_plus = (h_a.max() / h_a.min()) / h_s.min()
    h_minus = math.exp(-kappa) * (h_a.min() / h_a.max()) ** 2 / h_s.max()
    out = []
    for d in d_range:
        decay = math.exp(-kappa * d)
        p_a_d = np.linalg.matrix_power(arrival.transition, int(d))
        varpi_a_d = arrival.initial_dist @ p_a_d
        for _, i_s, label in _state_pairs(arrival, service, "d"):
            lo = h_minus * h_s[i_s] * decay
            up = h_plus * h_s[i_s] * decay
            out.append(BoundReport(d, _clamp(lo), _clamp(up), theta, h_plus, h_minus,
                                   label, lo, up))
        weights = np.outer(varpi_a_d, service.initial_dist)
        lo = float(np.sum(weights * (h_minus * h_s[None, :] * decay)))
        up = float(np.sum(weights * (h_plus * h_s[None, :] * decay)))
        out.append(BoundReport(d, _clamp(lo), _clamp(up), theta, h_plus, h_minus,
                               "average", lo, up))
    return out


def backlog_bounds(arrival: MapKernel, service: MapKernel, b_range) -> list:
    """Double-sided P(B > b) bounds with factor h^A_{J_0} h^{-S}_{J_0} e^{-theta b}."""
    b_range = [_finite_level(b) for b in b_range]
    root = stability_root(arrival, service)
    h_a, h_s = root.arrival.h, root.neg_service.h
    h_plus = 1.0 / (h_a.min() * h_s.min())
    h_minus = math.exp(-root.kappa_arrival) * h_a.min() / (h_a.max() ** 2 * h_s.max())
    theta = root.theta_star
    out = []
    for b in b_range:
        decay = math.exp(-theta * b)
        for ia, i_s, label in _state_pairs(arrival, service, "0"):
            factor = h_a[ia] * h_s[i_s] * decay
            lo, up = h_minus * factor, h_plus * factor
            out.append(BoundReport(b, _clamp(lo), _clamp(up), theta, h_plus, h_minus,
                                   label, lo, up))
        weights = np.outer(arrival.initial_dist, service.initial_dist)
        factor = float(np.sum(weights * np.outer(h_a, h_s))) * decay
        lo, up = h_minus * factor, h_plus * factor
        out.append(BoundReport(b, _clamp(lo), _clamp(up), theta, h_plus, h_minus,
                               "average", lo, up))
    return out


def horizon_delay_bound(arrival: MapKernel, service: MapKernel, y: float, d: float) -> HorizonBoundReport:
    """Finite-horizon delay bound with horizon multiplier y > 1.

    theta solves y kappa'^{-S}(theta) = -(y-1) kappa'^A(theta); the branch
    records whether the bound applies to P(D(t)>d; t<=yd) (y < y_gamma) or
    to the long-horizon remainder (y > y_gamma).
    """
    if y <= 1:
        raise ValueError("horizon multiplier y must exceed 1 for the delay bound")
    d = _delay_level(d, whole=False)
    root = stability_root(arrival, service)
    neg_service = root.neg_service.kernel
    da_g = root.arrival.kappa_dot
    ds_g = root.neg_service.kappa_dot
    y_gamma = da_g / (da_g + ds_g)

    theta = positive_root(
        lambda t: y * perron(neg_service, t).kappa_dot + (y - 1) * perron(arrival, t).kappa_dot,
        "horizon delay equation y kappa'^-S + (y - 1) kappa'^A",
    )
    sol_a, sol_s = perron(arrival, theta), perron(neg_service, theta)
    theta_y = -y * sol_s.kappa - (y - 1) * sol_a.kappa
    h_a, h_s = sol_a.h, sol_s.h
    h_plus = (h_a.max() / h_a.min()) / h_s.min()
    factor = float(service.initial_dist @ h_s)
    raw = h_plus * factor * math.exp(-d * theta_y)
    branch = "short-horizon" if y < y_gamma else "long-horizon-remainder"
    return HorizonBoundReport(d, y, theta, theta_y, y_gamma, branch, _clamp(raw), raw)


def horizon_backlog_bound(arrival: MapKernel, service: MapKernel, y: float, b: float) -> HorizonBoundReport:
    """Finite-horizon backlog bound with horizon multiplier y > 0."""
    if y <= 0:
        raise ValueError("horizon multiplier y must be positive")
    b = _finite_level(b)
    root = stability_root(arrival, service)
    neg_service = root.neg_service.kernel
    y_gamma = 1.0 / (root.arrival.kappa_dot + root.neg_service.kappa_dot)

    theta = positive_root(
        lambda t: y * (perron(arrival, t).kappa_dot + perron(neg_service, t).kappa_dot) - 1.0,
        "horizon backlog equation y (kappa'^A + kappa'^-S) - 1",
    )
    sol_a, sol_s = perron(arrival, theta), perron(neg_service, theta)
    theta_y = theta - y * (sol_a.kappa + sol_s.kappa)
    h_a, h_s = sol_a.h, sol_s.h
    h_plus = 1.0 / (h_a.min() * h_s.min())
    factor = float(arrival.initial_dist @ h_a) * float(service.initial_dist @ h_s)
    raw = h_plus * factor * math.exp(-b * theta_y)
    branch = "short-horizon" if y < y_gamma else "long-horizon-remainder"
    return HorizonBoundReport(b, y, theta, theta_y, y_gamma, branch, _clamp(raw), raw)


def _dcc_value(theta, d, epsilon, arrival, neg_service, varpi_s):
    h_a = perron(arrival, theta).h
    h_s = perron(neg_service, theta).h
    h_plus = (h_a.max() / h_a.min()) / h_s.min()
    vals = (-1.0 / (theta * d)) * np.log(epsilon / (h_plus * h_s))
    return float(varpi_s @ vals)


def dcc_upper(arrival: MapKernel, service: MapKernel, d: float, epsilon: float) -> DccReport:
    """Upper bound on delay-constrained capacity, optimized over theta.

    Evaluates the conditional bound averaged over the service initial
    distribution on a 200-point log grid in (0, theta_max) that always
    contains theta*, then refines around the grid argmin by golden-section.
    The asymptotic cap kappa^A(theta*)/theta* is reported alongside.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"deadline must be finite slots > 0, got {d!r}")
    root = stability_root(arrival, service)
    neg_service = root.neg_service.kernel
    varpi_s = service.initial_dist
    theta_star = root.theta_star

    theta_max = 8.0 * theta_star
    while theta_max > theta_star:
        try:
            _dcc_value(theta_max, d, epsilon, arrival, neg_service, varpi_s)
            break
        except (MgfDiverged, NoConvergence):
            # far above theta* the service transform's entries can span more
            # magnitudes than the eigensolve resolves, as in stability_root
            theta_max *= 0.5
    grid = np.geomspace(theta_star / 100.0, theta_max, 200)
    grid = np.unique(np.append(grid, theta_star))
    values = []
    for t in grid:
        try:
            values.append(_dcc_value(t, d, epsilon, arrival, neg_service, varpi_s))
        except (MgfDiverged, NoConvergence):
            values.append(math.inf)
    k = int(np.argmin(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    e = a + inv_phi * (b - a)
    fc = _dcc_value(c, d, epsilon, arrival, neg_service, varpi_s)
    fe = _dcc_value(e, d, epsilon, arrival, neg_service, varpi_s)
    for _ in range(80):
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - inv_phi * (b - a)
            fc = _dcc_value(c, d, epsilon, arrival, neg_service, varpi_s)
        else:
            a, c, fc = c, e, fe
            e = a + inv_phi * (b - a)
            fe = _dcc_value(e, d, epsilon, arrival, neg_service, varpi_s)
        if b - a < 1e-12 * max(1.0, b):
            break
    theta_opt = c if fc < fe else e
    best = min(values[k], fc, fe)
    cap = root.kappa_arrival / theta_star
    at_root = values[int(np.searchsorted(grid, theta_star))]
    return DccReport(max(best, 0.0), float(theta_opt), cap, at_root)


def constant_dcc_interval(service: MapKernel, d: float, epsilon: float, varpi) -> tuple:
    """Two-sided admissible-rate interval (lambda_lo, lambda_hi) for constant traffic.

    Each endpoint solves its bound at equality at the root theta of lambda theta
    + kappa^{-S}(theta) = 0; one eigensolve at theta gives both bounds and the
    rate lambda(theta) = -kappa^{-S}(theta)/theta, which falls from mu at theta = 0.
    A theta walk moves the rate by at most one step of a 400-point log grid on
    [1e-5 mu, mu) and bisects the first sign change in rising rate.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    varpi = np.asarray(varpi, dtype=float)
    neg_service = negate(service)

    def point(theta):  # (theta, lambda, log(bound/epsilon) for lo, for hi)
        sol = perron(neg_service, theta)
        avg = float(varpi @ sol.h) / epsilon
        lam = -sol.kappa / theta if theta > 0 else -sol.kappa_dot
        return (theta, lam, math.log(avg / sol.h.max()) + (1.0 + d) * sol.kappa,
                math.log(avg / sol.h.min()) + d * sol.kappa)

    walk = [point(0.0)]
    mu = walk[0][1]
    if mu <= 0:
        raise UnstableQueue(0.0, mu)
    ratio = (0.999999 / 1e-5) ** (1.0 / 399.0)
    step = 1e-3
    while True:
        try:
            nxt = point(walk[-1][0] + step)
        except (MgfDiverged, NoConvergence) as exc:
            if walk[-1][3] > 0:  # the larger bound, hi's, still exceeds epsilon
                raise NoRootInDomain(f"lambda_hi: the bound exceeds epsilon at "
                                     f"theta={walk[-1][0]}, beyond which {exc}") from exc
            break  # lower rates, out of reach, satisfy both bounds
        if nxt[1] * ratio < walk[-1][1]:
            step *= 0.5
        elif nxt[1] < 1e-5 * mu:
            break
        else:
            walk.append(nxt)
            step *= 2.0

    def solve(k, endpoint):
        violated = [p[k] > 0 for p in walk]
        changes = [i for i in range(len(walk) - 1) if violated[i] != violated[i + 1]]
        if not changes:
            if not violated[0]:
                return 0.999999 * mu  # every stable rate satisfies the bound
            raise NoFixedPoint(f"lambda_{endpoint}: the bound exceeds epsilon at every stable rate")
        lo, hi = walk[changes[-1]], walk[changes[-1] + 1]
        while 0.5 * (lo[0] + hi[0]) not in (lo[0], hi[0]):
            mid = point(0.5 * (lo[0] + hi[0]))
            if (mid[k] > 0) == (lo[k] > 0):
                lo = mid
            else:
                hi = mid
        return lo[1]

    lam_lo = solve(2, "lo")
    lam_hi = solve(3, "hi")
    return min(lam_lo, lam_hi), max(lam_lo, lam_hi)
