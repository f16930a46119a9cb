"""Per-transition increment laws and their transform calculus.

Each law knows its moment generating function E[e^{theta X}], the tilted
first moment E[X e^{theta X}] (used for cgf derivatives), its plain mean,
and how to sample itself.  All laws here are light-tailed: the MGF is
finite on an open interval around every operating theta.

Both transforms take a float or an ndarray of theta.  A float gives a
float and raises MgfDiverged where the transform diverges; an array gives
an array, non-finite at each theta where it diverges, and raises nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.special import exp1, hyperu

from .errors import MgfDiverged

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

    def mgf(self, theta):
        """E[e^{theta X}] for a float theta, or elementwise for an ndarray."""
        raise NotImplementedError

    def tilted_mean(self, theta):
        """E[X e^{theta X}], the derivative of the MGF in theta."""
        raise NotImplementedError

    def mean(self) -> float:
        return self.tilted_mean(0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


def _safe_exp(x):
    """e^x: a float raises MgfDiverged on overflow, an array gives inf there."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(x)
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise MgfDiverged(f"exponent {x} overflows the MGF evaluation") from exc


def _finite(val, theta, what):
    """val as a float for a float theta, raising MgfDiverged unless it is finite;
    an array of theta passes its values through."""
    if isinstance(theta, np.ndarray):
        return val
    val = float(val)
    if not math.isfinite(val):
        raise MgfDiverged(f"{what} at theta={theta}")
    return val


@dataclass(frozen=True)
class Constant(IncrementLaw):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"constant increment must be finite, got {self.value!r}")

    def mgf(self, theta):
        return _safe_exp(theta * self.value)

    def tilted_mean(self, theta):
        return self.value * _safe_exp(theta * self.value)

    def sample(self, rng, size):
        return np.full(size, float(self.value))


@dataclass(frozen=True)
class DiscretePmf(IncrementLaw):
    support: tuple
    probs: tuple

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 1 or support.shape != probs.shape:
            raise ValueError("support and probs must be 1-d and equal length")
        if not (np.isfinite(support).all() and np.isfinite(probs).all()):
            raise ValueError("support and probs must be finite")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "probs", tuple(probs))

    def _arrays(self):
        return np.asarray(self.support), np.asarray(self.probs)

    def mgf(self, theta):
        x, p = self._arrays()
        with np.errstate(over="ignore"):
            val = np.sum(p * np.exp(np.multiply.outer(theta, x)), axis=-1)
        return _finite(val, theta, "discrete MGF overflowed")

    def tilted_mean(self, theta):
        x, p = self._arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            val = np.sum(p * x * np.exp(np.multiply.outer(theta, x)), axis=-1)
        return _finite(val, theta, "tilted mean overflowed")

    @cached_property
    def _cdf(self) -> np.ndarray:
        """Cumulative probabilities ending at exactly 1, so that every uniform
        draw below 1 lands on a support point (probs may sum to 1 - 1e-12)."""
        cdf = np.cumsum(self.probs)
        cdf[-1] = 1.0
        return cdf

    def sample(self, rng, size):
        return np.asarray(self.support)[np.searchsorted(self._cdf, rng.random(size), side="right")]


# The Rayleigh transforms E[(1 + snr G)^n], n = theta W / ln 2, are split at
# g = 1.  On [0, 1] the integrand is taken in s = log(1 + snr g), where the
# power is the exponential e^{n s}, by a tanh-sinh rule; on [1, inf) it is
# taken in g, where e^{-g} is, by an exp-sinh rule g = 1 + e^u, u = (pi/2) sinh t.
# The nodes depend on the law alone, so each law computes log(1 + snr g) and
# the log weights once per step, and a theta costs one exp per node.  The
# step in t halves from 1/8 to 1/512 until two successive sums agree within
# _DE_TOL.  With n in [-150, 100] and snr in [1e-4, 1e7] the certified values
# met 30-digit quadrature within 3.4e-14 (80 random cases; the floor is the
# rounding of n log(1 + snr g) at large n) and the rule's own 1/512 sums
# within 5e-14 (7,600 cases); for snr in [1e-30, 1e-4] within 1.4e-15.
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


def _de_nodes(snr, level):
    """log(1 + snr g) and log(weight) - g at the nodes that step _DE_STEPS[level] adds."""
    x = 1.0 / snr
    s1 = math.log1p(snr)
    t = _de_ts(*_DE_T[0], level)
    u = 0.5 * math.pi * np.sinh(t)
    tau = 1.0 / (1.0 + np.exp(-2.0 * u))  # s = s1 tau on [0, s1]
    log_w = np.log(s1 * math.pi * np.cosh(t) * tau) - np.log1p(np.exp(2.0 * u))
    s = s1 * tau
    lg, c = [s], [s + math.log(x) - x * np.expm1(s) + log_w]  # dg = x e^s ds
    t = _de_ts(*_DE_T[1], level)
    u = 0.5 * math.pi * np.sinh(t)  # g = 1 + e^u on [1, inf)
    g = 1.0 + np.exp(u)
    lg.append(np.log1p(snr * g))
    c.append(u + np.log(0.5 * math.pi * np.cosh(t)) - g)
    return np.concatenate(lg), np.concatenate(c)


def _capacity_integrals(n, nodes, tilted):
    """E[(1 + snr_l G)^n_lt] (or E[log(1 + snr_l G) (1 + snr_l G)^n_lt] if `tilted`),
    G ~ Exp(1), for each pair (l, t) of the (L, T) exponent array n, whose row l
    belongs to a law of snr snr_l: NaN where two successive steps never agree,
    inf where the value overflows.  nodes(level) gives the laws' (L, m) arrays of
    log(1 + snr g) and log(weight) - g at the nodes that step adds (level 1: the
    first two steps).  Each step is evaluated in one (L, T, m) buffer over the
    rows and columns that still hold an uncertified pair; a pair keeps the sums
    of the step that certified it."""
    out = np.full(n.shape, np.nan)
    rows, cols = np.arange(n.shape[0]), np.arange(n.shape[1])
    pending = np.ones(n.shape, dtype=bool)
    n = n[:, :, None]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for level, h in enumerate(_DE_STEPS[1:], start=1):
            lg, c = nodes(level)
            if len(rows) < len(lg):
                lg, c = lg[rows], c[rows]
            lg = lg[:, None, :]
            terms = np.multiply(n, lg)
            terms += c[:, None, :]
            np.exp(terms, out=terms)
            if tilted:
                terms *= lg
            if level == 1:
                first = _DE_ENDS[-1] + 1  # the nodes of step 1/8 come first
                prev = 2.0 * h * terms[:, :, :first].sum(axis=2)
                total = 0.5 * prev + h * terms[:, :, first:].sum(axis=2)
                # strict, so that a sum of zero (every node underflowed) never certifies
                end_ok = 2.0 * h * terms[:, :, _DE_ENDS].max(axis=2) < _DE_END * total
            else:
                prev, total = total, 0.5 * total + h * terms.sum(axis=2)
            del terms  # freed before the next step allocates its buffer
            done = (np.abs(total - prev) <= _DE_TOL * total) & end_ok | (total == math.inf)
            certified = done & pending
            if not certified.any():
                continue
            if total.shape == out.shape and certified.all():
                return total  # every pair certifies at this step
            i, j = np.nonzero(certified)
            out[rows[i], cols[j]] = total[i, j]
            pending ^= certified
            keep_rows, keep_cols = pending.any(axis=1), pending.any(axis=0)
            if not keep_rows.any():
                break
            if not keep_rows.all():
                rows, n, total, end_ok, pending = (
                    a[keep_rows] for a in (rows, n, total, end_ok, pending))
            if not keep_cols.all():
                cols, n, total, end_ok, pending = (
                    a[:, keep_cols] if a.ndim > 1 else a[keep_cols]
                    for a in (cols, n, total, end_ok, pending))
    return out


class RayleighStack:
    """Rayleigh capacity laws, each plain or Negated, whose transforms are
    integrated together: row l of a transform is law l's, at theta for a plain
    law and at -theta inside a Negated one, from one _capacity_integrals call."""

    def __init__(self, laws):
        self.inner = tuple(law.inner if isinstance(law, Negated) else law for law in laws)
        self.sign = np.array([[-1.0 if isinstance(law, Negated) else 1.0] for law in laws])
        self.scale = np.array([[law.bandwidth / _LN2] for law in self.inner])
        self._nodes = []

    @staticmethod
    def holds(law) -> bool:
        """Whether law is a RayleighCapacity, plain or Negated."""
        return isinstance(law.inner if isinstance(law, Negated) else law, RayleighCapacity)

    def _level_nodes(self, level):
        """(L, m) arrays of log(1 + snr g) and log(weight) - g at the nodes that
        `level` of the quadrature adds (level 1: the first two steps), built once
        per stack: a law's own stack computes them, a larger one stacks its
        laws' own."""
        while len(self._nodes) < level:
            k = len(self._nodes) + 1
            if len(self.inner) > 1:
                rows = (law._stack._level_nodes(k) for law in self.inner)
                self._nodes.append(tuple(map(np.concatenate, zip(*rows))))
            else:
                snr = self.inner[0].snr
                pair = (_de_nodes(snr, k) if k > 1 else
                        map(np.concatenate, zip(_de_nodes(snr, 0), _de_nodes(snr, 1))))
                self._nodes.append(tuple(a[None] for a in pair))
        return self._nodes[level - 1]

    def transform(self, kind, thetas):
        """(L, T) array: row l is law l's `kind` ("mgf" or "tilted_mean") at the
        1-d array thetas, non-finite where it diverges."""
        tilted = kind == "tilted_mean"
        # the sign flips exactly, so n and the tilted mean are the plain law's, negated
        val = _capacity_integrals(self.sign * thetas * self.scale, self._level_nodes, tilted)
        return self.sign * (self.scale * val) if tilted else val


@dataclass(frozen=True)
class RayleighCapacity(IncrementLaw):
    """Shannon capacity of a Rayleigh block with unit-mean exponential power gain.

    X = bandwidth * log2(1 + snr * G), G ~ Exp(1).  The MGF E[(1 + snr G)^n],
    n = theta * bandwidth / ln 2, has no closed form for general theta; both
    transforms are integrated by _capacity_integrals for all theta of a call at
    once, as the one-law RayleighStack.
    """

    bandwidth: float
    snr: float

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if not 0 < self.snr < math.inf:
            raise ValueError(f"snr must be positive and finite, got {self.snr!r}")

    @cached_property
    def _stack(self) -> RayleighStack:
        """The law as a one-law stack, which keeps its quadrature nodes."""
        return RayleighStack((self,))

    def _transform(self, kind, theta):
        val = self._stack.transform(kind, np.atleast_1d(np.asarray(theta, dtype=float)))[0]
        if isinstance(theta, np.ndarray):
            return val
        why = "overflows a double" if val[0] == math.inf else "quadrature did not converge"
        return _finite(val[0], theta, f"capacity {kind} {why}")

    def mgf(self, theta):
        return self._transform("mgf", theta)

    def tilted_mean(self, theta):
        return self._transform("tilted_mean", theta)

    def mean(self):
        # closed form: (W/ln2) e^x E1(x), x = 1/snr.  e^x overflows from x ~ 709,
        # so from x = 100 it is U(1, 1, x) = e^x E1(x), which scipy 1.17 resolves
        # within 1.1e-15 there (but only within 5e-10 for x in [1, 50])
        x = 1.0 / self.snr
        scaled_e1 = math.exp(x) * float(exp1(x)) if x < 100.0 else float(hyperu(1.0, 1.0, x))
        return self.bandwidth / _LN2 * scaled_e1

    def sample(self, rng, size):
        # bandwidth * log2(1 + snr * g), computed in place on the draws
        c = rng.exponential(size=size)
        c *= self.snr
        c += 1.0
        np.log2(c, out=c)
        c *= self.bandwidth
        return c


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
        return _safe_exp(theta * self.offset) * self.inner.mgf(theta)

    def tilted_mean(self, theta):
        shift = _safe_exp(theta * self.offset)
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
    nodes, weights = _hermite_rule(n_points)
    support = mean + std * math.sqrt(2.0) * nodes
    probs = weights / math.sqrt(math.pi)
    probs = probs / probs.sum()
    return DiscretePmf(tuple(support), tuple(probs))
