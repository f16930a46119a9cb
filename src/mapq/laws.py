"""Per-transition increment laws and their transform calculus.

Each law knows its moment generating function E[e^{theta X}], the tilted
first moment E[X e^{theta X}] (used for cgf derivatives; at theta = 0 it is
the mean), and how to sample itself.  All laws here are light-tailed: the
MGF is finite on an open interval around every operating theta.

Both transforms take arrays only: a 1-d ndarray of theta gives an array,
non-finite at each theta where the transform diverges, and raises nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .counters import COUNTS

_LN2 = math.log(2.0)


def __getattr__(name):
    # perfbench/tracing.py counts calls to laws.quad (mapq makes none): the
    # name resolves on first access, so only a traced run imports
    # scipy.integrate; it goes with that dead counter (ROADMAP item 1)
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IncrementLaw:
    """Common interface of all increment laws."""

    def mgf(self, theta: np.ndarray) -> np.ndarray:
        """E[e^{theta X}] elementwise for a 1-d ndarray of theta."""
        raise NotImplementedError

    def tilted_mean(self, theta: np.ndarray) -> np.ndarray:
        """E[X e^{theta X}], the derivative of the MGF in theta, elementwise."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class DiscretePmf(IncrementLaw):
    """Finite-support law, P(X = support[k]) = probs[k]; one atom makes it a
    constant (`Constant`), whose sample draws no uniform.  The transforms sum
    the atoms by numpy's add reduction, which starts from +0.0: a negative
    atom's tilted mean that underflows is +0.0, not -0.0."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        # copies, kept read-only as _arrays: a caller's arrays stay writeable
        support = np.array(self.support, dtype=float)
        probs = np.array(self.probs, dtype=float)
        if support.ndim != 1 or support.shape != probs.shape:
            raise ValueError("support and probs must be 1-d and equal length")
        if not (np.isfinite(support).all() and np.isfinite(probs).all()):
            raise ValueError("support and probs must be finite")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "probs", tuple(probs))
        object.__setattr__(self, "_arrays", (support, probs))

    def mgf(self, theta):
        x, p = self._arrays
        with np.errstate(over="ignore"):
            return np.add.reduce(p * np.exp(np.multiply.outer(theta, x)), axis=-1)

    def tilted_mean(self, theta):
        x, p = self._arrays
        with np.errstate(over="ignore", invalid="ignore"):
            return np.add.reduce(p * x * np.exp(np.multiply.outer(theta, x)), axis=-1)

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _pinned_cdf(self._arrays[1])

    @cached_property
    def _inverse(self) -> InverseCdf:
        return InverseCdf(self._cdf)

    def sample(self, rng, size):
        x = self._arrays[0]
        if len(x) == 1:
            return np.full(size, x[0])
        return x.take(self._inverse(rng.random(size)))


def Constant(value: float) -> DiscretePmf:
    """The law of a constant increment `value`: the one-atom DiscretePmf."""
    return DiscretePmf((value,), (1.0,))


def _pinned_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, exactly 1 from each row's last
    positive entry on, for a law's CDF and a chain's transition rows alike:
    probabilities may sum to 1 - 1e-12, and a uniform above that sum must
    land on neither a nonexistent entry nor one of probability 0."""
    cum = np.cumsum(probs, axis=-1)
    n = cum.shape[-1]
    last = n - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(n) >= last[..., None]] = 1.0
    return cum


def count_at_or_below(points, u, out):
    """out = #{j : points[j] <= u} elementwise, for a nonempty iterable of
    arrays or scalars that broadcast against u; returns out.

    On the inner points cdf[:-1] of a nondecreasing CDF that ends at 1 this
    is the CDF's inverse for u in [0, 1), searchsorted(cdf, u, side="right"),
    counted in one compare pass per point."""
    points = iter(points)
    # compares stay bytes (a one-byte count takes the first as is): a cast
    # to a wider type costs a call about a microsecond, as much as a compare
    # of a few thousand elements
    np.less_equal(next(points), u, out=out.view(bool) if out.itemsize == 1 else out)
    for p in points:
        out += np.less_equal(p, u).view(np.uint8)
    return out


# CDFs of up to this many points are inverted by counting, longer ones through
# a guide table
_COUNTED_POINTS = 8


class InverseCdf:
    """Inverse of a nondecreasing CDF of two points or more that ends at
    exactly 1: called on an array of uniforms u in [0, 1), it returns
    searchsorted(cdf, u, side="right") with no binary search per draw.

    Up to _COUNTED_POINTS points the index is counted (`count_at_or_below`).
    A longer CDF goes through a guide table (Chen & Asau 1974; Devroye 1986,
    III.2.4) of K >= 4m cells, K a power of two, so that k = floor(u K) is
    exact and u lies in [k/K, (k+1)/K).  Cell k holds lo[k], the index of
    k/K, and the CDF point there: when no other point falls inside the cell,
    the index of u is lo[k] plus one if u reaches that point.  The draws in
    the at most (m - 1) / 2 cells that hold two points or more, under 1/8 of
    the mass, are searched.
    """

    def __init__(self, cdf):
        self.cdf = cdf
        if len(cdf) > _COUNTED_POINTS:
            self.cells = 1 << (4 * len(cdf) - 1).bit_length()
            edges = np.arange(self.cells + 1) / self.cells
            self.lo = np.searchsorted(cdf, edges[:-1], side="right")
            self.next_point = cdf[self.lo]
            self.crowded = np.searchsorted(cdf, edges[1:], side="left") - self.lo > 1

    def __call__(self, u):
        if len(self.cdf) <= _COUNTED_POINTS:
            return count_at_or_below(self.cdf[:-1], u, np.empty(u.shape, dtype=np.uint8))
        k = (u * self.cells).astype(np.intp)
        index = self.lo.take(k)
        index += self.next_point.take(k) <= u
        far = np.flatnonzero(self.crowded.take(k))
        if far.size:
            index[far] = np.searchsorted(self.cdf, u[far], side="right")
        return index


# The Rayleigh transforms E[(1 + snr G)^n], n = theta W / ln 2, are split at
# g = 1.  On [0, 1] the integrand is taken in s = log(1 + snr g), where the
# power is the exponential e^{n s}, by a tanh-sinh rule; on [1, inf) it is
# taken in g, where e^{-g} is, by an exp-sinh rule g = 1 + e^u, u = (pi/2) sinh t.
# The nodes depend on the law alone, so a stack of laws computes log(1 + snr g)
# and the log weights once per step, for all its laws at once from snr-free
# tables of the step (_de_tables), and a theta costs one exp per node.  The
# step in t halves from 1/8 to 1/512, each step adding only its own nodes,
# until two successive sums agree within _DE_TOL.  With n in [-150, 100] and
# snr in [1e-4, 1e7] the certified values met 30-digit quadrature within
# 3.4e-14 (80 random cases; the floor is the rounding of n log(1 + snr g) at
# large n) and the rule's own 1/512 sums within 5e-14 (7,600 cases); for snr
# in [1e-30, 1e-4] within 1.4e-15.
_DE_STEPS = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512)
_DE_T = ((-3.75, 3.75), (-5.0, 3.25))  # t-ranges of the tanh-sinh and exp-sinh parts
_DE_TOL = 1e-9
# the nodes at the ends of the t-ranges may carry at most this share of the sum
_DE_END = 2.0 ** -60


def _de_ts(lo, hi, level):
    """The t-nodes on [lo, hi] that step _DE_STEPS[level] adds (every node at 0)."""
    h = _DE_STEPS[level]
    k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    return k * h if level == 0 else k[k % 2 == 1] * h


# positions of the t-range ends among the nodes of the first step
_DE_ENDS = np.cumsum([0, len(_de_ts(*_DE_T[0], 0)) - 1, 1, len(_de_ts(*_DE_T[1], 0)) - 1])


@cache
def _de_tables(level):
    """The snr-free parts of the nodes that step _DE_STEPS[level] adds, computed
    once per step: on [0, 1] tau = s / log(1 + snr), cosh(t) and
    log(1 + e^{2u}); on [1, inf) g and its log(weight) - g.  Read-only."""
    t = _de_ts(*_DE_T[0], level)
    u = 0.5 * math.pi * np.sinh(t)
    tables = [1.0 / (1.0 + np.exp(-2.0 * u)), np.cosh(t), np.log1p(np.exp(2.0 * u))]
    t = _de_ts(*_DE_T[1], level)
    u = 0.5 * math.pi * np.sinh(t)  # g = 1 + e^u on [1, inf)
    g = 1.0 + np.exp(u)
    tables += [g, u + np.log(0.5 * math.pi * np.cosh(t)) - g]
    for a in tables:
        a.setflags(write=False)
    return tables


def _de_nodes(snr, level):
    """(L, m) arrays of log(1 + snr_l g) and log(weight) - g at the nodes that
    step _DE_STEPS[level] adds, for the 1-d array snr of L laws.  Each element
    takes the operations of a one-law evaluation, with log(1 + snr) and
    log(1 / snr) from math per law."""
    tau, cosh, log1p_e2u, g, c_inf = _de_tables(level)
    x = 1.0 / snr[:, None]
    s1 = np.array([[math.log1p(v)] for v in snr])
    log_x = np.array([[math.log(1.0 / v)] for v in snr])
    s = s1 * tau  # s = s1 tau on [0, s1]
    log_w = np.log(s1 * math.pi * cosh * tau) - log1p_e2u
    c = s + log_x - x * np.expm1(s) + log_w  # dg = x e^s ds
    lg = np.log1p(snr[:, None] * g)
    return (np.concatenate([s, lg], axis=1),
            np.concatenate([c, np.broadcast_to(c_inf, lg.shape)], axis=1))


def _capacity_integrals(n, nodes, tilted):
    """E[(1 + snr_l G)^n_lt] (or E[log(1 + snr_l G) (1 + snr_l G)^n_lt] if `tilted`),
    G ~ Exp(1), for each pair (l, t) of the (L, T) exponent array n, whose row l
    belongs to a law of snr snr_l: NaN where two successive steps never agree,
    inf where the value overflows.  nodes(level) gives the laws' (L, m) arrays of
    log(1 + snr g) and log(weight) - g at the nodes that step _DE_STEPS[level]
    adds.  Each step is evaluated for every pair in one (L, T, m) buffer, until
    every pair has certified; a pair keeps the sum of the step that certified it."""
    COUNTS["quadrature_calls"] += 1
    COUNTS["rayleigh_integrations"] += n.shape[0]
    out = np.full(n.shape, np.nan)
    pending = np.ones(n.shape, dtype=bool)
    n = n[:, :, None]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for level, h in enumerate(_DE_STEPS):
            COUNTS["quadrature_steps"] += 1
            lg, c = nodes(level)
            lg = lg[:, None, :]
            terms = np.multiply(n, lg)
            terms += c[:, None, :]
            np.exp(terms, out=terms)
            if tilted:
                terms *= lg
            if level == 0:
                total = h * terms.sum(axis=2)
                ends = h * terms[:, :, _DE_ENDS].max(axis=2)
                del terms  # freed before the next step allocates its buffer
                continue
            prev, total = total, 0.5 * total + h * terms.sum(axis=2)
            del terms
            if level == 1:
                # strict, so that a sum of zero (every node underflowed) never certifies
                end_ok = ends < _DE_END * total
            done = (np.abs(total - prev) <= _DE_TOL * total) & end_ok | (total == math.inf)
            certified = done & pending
            out[certified] = total[certified]
            pending &= ~certified
            if not pending.any():
                break
    return out


class LawStack:
    """Laws whose transforms are evaluated together: row g of a transform is
    law g's.  The RayleighCapacity laws are integrated in one
    _capacity_integrals call, on quadrature nodes the stack builds once for
    all of them; every other law is evaluated by its own call."""

    def __init__(self, laws):
        self.laws = tuple(laws)
        self._held = np.array([isinstance(law, RayleighCapacity) for law in self.laws], dtype=bool)
        rayleigh = [law for law, held in zip(self.laws, self._held) if held]
        self.scale = np.array([[law.bandwidth / _LN2] for law in rayleigh])
        self.snr = np.array([law.snr for law in rayleigh])
        self._nodes = []

    def _level_nodes(self, level):
        """(L, m) arrays of log(1 + snr g) and log(weight) - g at the nodes that
        step _DE_STEPS[level] of the quadrature adds, built once per stack for
        all its RayleighCapacity laws at once."""
        while len(self._nodes) <= level:
            self._nodes.append(_de_nodes(self.snr, len(self._nodes)))
        return self._nodes[level]

    def transform(self, kind, thetas):
        """(G, T) array: row g is law g's `kind` ("mgf" or "tilted_mean") at the
        1-d array thetas (a float is one theta), non-finite where it diverges."""
        thetas = np.atleast_1d(thetas)
        out = np.empty((len(self.laws), len(thetas)))
        if len(self.snr):
            tilted = kind == "tilted_mean"
            val = _capacity_integrals(thetas * self.scale, self._level_nodes, tilted)
            out[self._held] = self.scale * val if tilted else val
        for g in np.flatnonzero(~self._held):
            out[g] = getattr(self.laws[g], kind)(thetas)
        return out


@dataclass(frozen=True)
class RayleighCapacity(IncrementLaw):
    """Shannon capacity of a Rayleigh block with unit-mean exponential power gain.

    X = bandwidth * log2(1 + snr * G), G ~ Exp(1).  The MGF E[(1 + snr G)^n],
    n = theta * bandwidth / ln 2, has no closed form for general theta; both
    transforms are integrated by _capacity_integrals for all theta of a call at
    once, as the one-law LawStack.
    """

    bandwidth: float
    snr: float

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if not 0 < self.snr < math.inf:
            raise ValueError(f"snr must be positive and finite, got {self.snr!r}")

    @cached_property
    def _stack(self) -> LawStack:
        """The law as a one-law stack, which keeps its quadrature nodes."""
        return LawStack((self,))

    def mgf(self, theta):
        return self._stack.transform("mgf", theta)[0]

    def tilted_mean(self, theta):
        return self._stack.transform("tilted_mean", theta)[0]

    def sample(self, rng, size):
        # the draws are exponential(size=size)'s, which multiplies them by its scale 1.0
        return _rayleigh_capacity(rng.standard_exponential(size), self.snr, self.bandwidth)


def _rayleigh_capacity(gains, snr, bandwidth):
    """bandwidth * log2(1 + snr * gains), computed in place on the float64 array gains."""
    gains *= snr
    gains += 1.0
    np.log2(gains, out=gains)
    gains *= bandwidth
    return gains


@dataclass(frozen=True)
class Negated(IncrementLaw):
    inner: IncrementLaw

    def mgf(self, theta):
        return self.inner.mgf(-theta)

    def tilted_mean(self, theta):
        return -self.inner.tilted_mean(-theta)

    def sample(self, rng, size):
        return -self.inner.sample(rng, size)


@dataclass(frozen=True)
class Shifted(IncrementLaw):
    inner: IncrementLaw
    offset: float

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError(f"shift offset must be finite, got {self.offset!r}")

    def mgf(self, theta):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(theta * self.offset) * self.inner.mgf(theta)

    def tilted_mean(self, theta):
        with np.errstate(over="ignore", invalid="ignore"):
            shift = np.exp(theta * self.offset)
            return shift * (self.inner.tilted_mean(theta) + self.offset * self.inner.mgf(theta))

    def sample(self, rng, size):
        return self.inner.sample(rng, size) + self.offset


@cache
def _hermite_rule(n_points: int) -> tuple:
    """Gauss-Hermite nodes and weights of n_points, computed once per size; read-only."""
    rule = np.polynomial.hermite.hermgauss(n_points)
    for a in rule:
        a.setflags(write=False)
    return rule


def gaussian_quantized(mean: float, std: float, n_points: int = 96) -> DiscretePmf:
    """Gauss-Hermite quantization of N(mean, std^2).

    The node/weight pairs reproduce E[e^{theta X}] of the exact Gaussian to
    near machine precision for moderate theta, which keeps analytic root
    oracles sharp while staying inside the finite-support law machinery.
    """
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean!r}")
    if not 0 < std < math.inf:
        raise ValueError(f"std must be positive and finite, got {std!r}")
    nodes, weights = _hermite_rule(n_points)
    support = mean + std * math.sqrt(2.0) * nodes
    probs = weights / math.sqrt(math.pi)
    probs = probs / probs.sum()
    return DiscretePmf(tuple(support), tuple(probs))
