"""Bivariate copula families, the Markov star-product, and transition extraction.

The star-product characterizes the Markov property purely in dependence
terms; extracting a transition matrix from a copula and a state
distribution is the engine of the dependence-control loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .errors import IncompatibleCopula, OutOfUnitInterval, ZeroMassState


class CopulaSpec:
    """A bivariate copula, defined once on product lattices of the unit interval."""

    def _grid(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Values on the lattice u x v; every entry of u and v lies in [0, 1]."""
        raise NotImplementedError

    def eval_grid(self, u, v) -> np.ndarray:
        """Values on the product lattice u x v."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        for x in (u, v):
            outside = x[~((0.0 <= x) & (x <= 1.0))]  # NaN is outside too
            if outside.size:
                raise OutOfUnitInterval(f"copula argument {float(outside[0])!r} outside [0, 1]")
        return self._grid(u, v)

    def eval(self, u: float, v: float) -> float:
        """C(u, v): the value on the one-node lattice {u} x {v}."""
        return float(self.eval_grid([u], [v])[0, 0])


@dataclass(frozen=True)
class Comonotone(CopulaSpec):
    """M(u, v) = min(u, v), extremal positive dependence."""

    def _grid(self, u, v):
        return np.minimum.outer(u, v)


@dataclass(frozen=True)
class Countermonotone(CopulaSpec):
    """W(u, v) = max(u + v - 1, 0), extremal negative dependence."""

    def _grid(self, u, v):
        return np.maximum(np.add.outer(u, v) - 1.0, 0.0)


@dataclass(frozen=True)
class Product(CopulaSpec):
    """P(u, v) = u v, independence."""

    def _grid(self, u, v):
        return np.outer(u, v)


@dataclass(frozen=True)
class Frechet(CopulaSpec):
    """Convex combination w_w W + w_p P + w_m M; closed under the star-product."""

    w_w: float
    w_p: float
    w_m: float

    def __post_init__(self):
        w = (self.w_w, self.w_p, self.w_m)
        if any(x < -1e-15 for x in w):
            raise ValueError(f"Frechet weights must be nonnegative, got {w}")
        if not abs(sum(w) - 1.0) <= 1e-12:  # a NaN weight fails this too
            raise ValueError(f"Frechet weights sum to {sum(w)!r}, not 1")

    def _grid(self, u, v):
        w, p, m = (c._grid(u, v) for c in (Countermonotone(), Product(), Comonotone()))
        return self.w_w * w + self.w_p * p + self.w_m * m


def one_param_frechet(alpha: float) -> Frechet:
    """One-parameter Frechet family: alpha near +1/-1 is strong positive/negative
    dependence, alpha near 0 is independence."""
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha!r}")
    w_w = alpha * alpha * (1.0 - alpha) / 2.0
    w_m = alpha * alpha * (1.0 + alpha) / 2.0
    return Frechet(w_w, 1.0 - alpha * alpha, w_m)


def bvn_cdf(a: float, b: float, rho: float) -> float:
    """Bivariate standard normal CDF Phi2(a, b; rho).

    Owen's (1956) closed form through his T function:
    Phi2(a, b; rho) = [Phi(a) + Phi(b)] / 2 - T(a, alpha_a) - T(b, alpha_b) - beta,
    with alpha_a = (b - rho a) / (a sqrt(1 - rho^2)), alpha_b the same with a
    and b swapped, and beta = 1/2 where exactly one of a, b is negative, else 0.
    At a = 0 (b != 0) alpha_a is +-inf and T(0, +-inf) = +-1/4 with the sign
    of b, and likewise at b = 0; at a = b = 0 the value is
    1/4 + asin(rho) / (2 pi).  Within 2.2e-16 absolute of 30-digit values
    for |rho| up to 0.99.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho!r}")
    if a == -math.inf or b == -math.inf:
        return 0.0
    if a == math.inf:
        return float(ndtr(b))
    if b == math.inf:
        return float(ndtr(a))
    if rho == 0.0:
        return float(ndtr(a) * ndtr(b))
    if a == 0.0 and b == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    t_a = math.copysign(0.25, b) if a == 0.0 else owens_t(a, (b - rho * a) / (a * s))
    t_b = math.copysign(0.25, a) if b == 0.0 else owens_t(b, (a - rho * b) / (b * s))
    beta = 0.5 if (a < 0.0) != (b < 0.0) else 0.0
    value = float(0.5 * (ndtr(a) + ndtr(b)) - t_a - t_b - beta)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class Gaussian2(CopulaSpec):
    """Gaussian copula with correlation rho in (-1, 1)."""

    rho: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho!r}")

    def _grid(self, u, v):
        out = Comonotone()._grid(u, v)  # exact on the edges, where every copula is M
        rows = np.flatnonzero((0.0 < u) & (u < 1.0))
        cols = np.flatnonzero((0.0 < v) & (v < 1.0))
        b = ndtri(v[cols])
        for i, a in zip(rows, ndtri(u[rows])):
            out[i, cols] = [bvn_cdf(float(a), float(bj), self.rho) for bj in b]
        return out


@dataclass(frozen=True)
class GridCopula(CopulaSpec):
    """Checkerboard copula: bilinear interpolation of node values on a uniform
    lattice, which preserves the copula axioms."""

    values: np.ndarray  # (N+1) x (N+1) node values, values[i, j] = C(i/N, j/N)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 2:
            raise ValueError("grid values must be a square (N+1) x (N+1) array")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @property
    def grid_n(self):
        return self.values.shape[0] - 1

    def _grid(self, u, v):
        n = self.grid_n
        x, y = np.ix_(u * n, v * n)  # lattice coordinates of the rows and columns
        i = np.minimum(x.astype(int), n - 1)
        j = np.minimum(y.astype(int), n - 1)
        fx, fy = x - i, y - j
        c = self.values
        return (
            (1 - fx) * (1 - fy) * c[i, j]
            + fx * (1 - fy) * c[i + 1, j]
            + (1 - fx) * fy * c[i, j + 1]
            + fx * fy * c[i + 1, j + 1]
        )


def frechet_homogeneous(h: float) -> Frechet:
    """Frechet member of the homogeneous Markov semigroup at lag h >= 0."""
    if h < 0:
        raise ValueError(f"lag must be nonnegative, got {h!r}")
    alpha = math.exp(-2.0 * h) * (1.0 - math.exp(-h)) / 2.0
    beta = math.exp(-2.0 * h) * (1.0 + math.exp(-h)) / 2.0
    return Frechet(alpha, 1.0 - alpha - beta, beta)


def frechet_compose(c1, c2):
    """Star-composition in Frechet weight space: (alpha, beta) pairs in, pair out."""
    a1, b1 = c1
    a2, b2 = c2
    return (b1 * a2 + a1 * b2, a1 * a2 + b1 * b2)


def star(a: CopulaSpec, b: CopulaSpec, grid_n: int = 512) -> GridCopula:
    """Darsow star-product (A * B)(x, y) = int_0^1 dA/dxi(x, xi) dB/dxi(xi, y) dxi.

    Partial derivatives by central differences on the lattice, integral by
    trapezoid; the integrand is bounded by 1 so O(1/N^2) error covers the
    1e-3 family-identity contracts at the default grid.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    t = np.linspace(0.0, 1.0, grid_n + 1)
    grid_a = a.eval_grid(t, t)
    grid_b = b.eval_grid(t, t)
    da = np.gradient(grid_a, t, axis=1)  # d/dxi A(x_i, xi_k)
    db = np.gradient(grid_b, t, axis=0)  # d/dxi B(xi_k, y_j)
    w = np.full(grid_n + 1, 1.0 / grid_n)
    w[0] *= 0.5
    w[-1] *= 0.5
    values = (da * w) @ db
    np.clip(values, 0.0, 1.0, out=values)
    return GridCopula(values)


def transition_from_copula(copula: CopulaSpec, varpi) -> tuple:
    """Extract (P, varpi_next) so the copula couples consecutive state levels.

    Solves sum_{s<=x} varpi(s) P(s, s'<=y) = C(F(x), F(y)) in closed form by
    double differencing of G(x, y) = C(F(x), F(y)); the uniform second
    margin forces row-stochasticity and varpi P = varpi.
    """
    varpi = np.asarray(varpi, dtype=float)
    if np.any(varpi <= 0.0):
        raise ZeroMassState(f"every state needs positive mass, got {varpi.tolist()}")
    levels = np.concatenate(([0.0], np.cumsum(varpi)))
    if not abs(levels[-1] - 1.0) <= 1e-12:  # a NaN or infinite mass fails this too
        raise ValueError(f"state masses sum to {float(levels[-1])!r}, not 1")
    # a cumulative sum may round to 1 +- 2^-52; copulas reject levels above 1
    levels[-1] = 1.0

    # shortcut rows that are exact consequences of the family
    if isinstance(copula, Product):
        return np.tile(varpi, (len(varpi), 1)), varpi.copy()
    if isinstance(copula, Comonotone):
        return np.eye(len(varpi)), varpi.copy()

    g = copula.eval_grid(levels, levels)
    mass = g[1:, 1:] - g[:-1, 1:] - g[1:, :-1] + g[:-1, :-1]
    p = mass / varpi[:, None]
    if np.any(p < -1e-9):
        raise IncompatibleCopula(
            f"copula/marginal pair yields transition entry {p.min()!r} < -1e-9"
        )
    np.clip(p, 0.0, None, out=p)
    row_err = np.max(np.abs(p.sum(axis=1) - 1.0))
    if not row_err <= 1e-9:  # NaN node values fail this too
        raise IncompatibleCopula(f"row sums off by {row_err!r} > 1e-9")
    p = p / p.sum(axis=1, keepdims=True)
    return p, varpi @ p


@dataclass(frozen=True)
class DimensionPlan:
    transitions: tuple  # P_0 .. P_{t-1}
    distributions: tuple  # varpi_0 .. varpi_t


@dataclass(frozen=True)
class ControlPlan:
    horizon: int
    per_dimension: tuple  # of DimensionPlan

    def __post_init__(self):
        for dim in self.per_dimension:
            for j, p in enumerate(dim.transitions):
                if np.max(np.abs(np.sum(p, axis=1) - 1.0)) > 1e-9:
                    raise ValueError(f"step {j} transition is not row-stochastic")
                step = dim.distributions[j] @ p
                if np.max(np.abs(step - dim.distributions[j + 1])) > 1e-12:
                    raise ValueError(f"step {j} distribution update inconsistent")


def dependence_control(temporal_copulas, varpi0, horizon: int) -> ControlPlan:
    """Per-step transition matrices realizing the requested temporal copulas.

    temporal_copulas: per controllable dimension, either one CopulaSpec
    (homogeneous in time) or a sequence of length `horizon`.  Dimensions are
    treated independently (product spatial copula).
    """
    dims = []
    for copulas, w0 in zip(temporal_copulas, varpi0):
        if isinstance(copulas, CopulaSpec):
            copulas = [copulas] * horizon
        if len(copulas) != horizon:
            raise ValueError("need one copula per step (or a single homogeneous one)")
        w = np.asarray(w0, dtype=float)
        transitions = []
        distributions = [w]
        for c in copulas:
            p, w = transition_from_copula(c, w)
            transitions.append(p)
            distributions.append(w)
        dims.append(DimensionPlan(tuple(transitions), tuple(distributions)))
    return ControlPlan(horizon, tuple(dims))


@dataclass(frozen=True)
class GrangerReport:
    max_deviation: float
    grid_n: int


def granger_product_check(joint, temporal_marginal: CopulaSpec, grid_n: int) -> GrangerReport:
    """Sup-norm check of the product-spatial no-Granger identity.

    The identity: the 4-argument copula with the second next-step argument
    saturated equals v1 times the temporal copula of the first coordinate.
    `joint` is a callable (u1, v1, u2, v2) -> value or a 4-d lattice array.
    """
    t = np.linspace(0.0, 1.0, grid_n + 1)
    if callable(joint):
        lhs = np.empty((grid_n + 1,) * 3)
        for i, u1 in enumerate(t):
            for j, v1 in enumerate(t):
                for k, u2 in enumerate(t):
                    lhs[i, j, k] = joint(u1, v1, u2, 1.0)
    else:
        joint = np.asarray(joint, dtype=float)
        if joint.shape != (grid_n + 1,) * 4:
            raise ValueError("lattice joint must be (N+1)^4 with matching grid_n")
        lhs = joint[:, :, :, -1]
    temporal = temporal_marginal.eval_grid(t, t)
    rhs = t[None, :, None] * temporal[:, None, :]
    return GrangerReport(float(np.max(np.abs(lhs - rhs))), grid_n)
