"""Per-transition increment laws and their transform calculus.

Each law knows its moment generating function E[e^{theta X}], the tilted
first moment E[X e^{theta X}] (used for cgf derivatives), its plain mean,
and how to sample itself.  All laws here are light-tailed: the MGF is
finite on an open interval around every operating theta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import exp1

from .errors import MgfDiverged

_LN2 = math.log(2.0)
_QUAD_TOL = 1e-10
# a law's transform memo is cleared when full, so a long-lived process stays bounded
_MEMO_LIMIT = 4096


class IncrementLaw:
    """Common interface of all increment laws."""

    def mgf(self, theta: float) -> float:
        raise NotImplementedError

    def tilted_mean(self, theta: float) -> float:
        """E[X e^{theta X}], the derivative of the MGF in theta."""
        raise NotImplementedError

    def mean(self) -> float:
        return self.tilted_mean(0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise MgfDiverged(f"exponent {x} overflows the MGF evaluation") from exc


@dataclass(frozen=True)
class Constant(IncrementLaw):
    value: float

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
            val = float(np.sum(p * np.exp(theta * x)))
        if not math.isfinite(val):
            raise MgfDiverged(f"discrete MGF overflowed at theta={theta}")
        return val

    def tilted_mean(self, theta):
        x, p = self._arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(np.sum(p * x * np.exp(theta * x)))
        if not math.isfinite(val):
            raise MgfDiverged(f"tilted mean overflowed at theta={theta}")
        return val

    def sample(self, rng, size):
        x, p = self._arrays()
        idx = np.searchsorted(np.cumsum(p), rng.random(size), side="right")
        return x[np.minimum(idx, len(x) - 1)]


@dataclass(frozen=True)
class RayleighCapacity(IncrementLaw):
    """Shannon capacity of a Rayleigh block with unit-mean exponential power gain.

    X = bandwidth * log2(1 + snr * G), G ~ Exp(1).  The MGF integrand
    e^{-g} (1 + snr*g)^{theta*bandwidth/ln2} is smooth with sub-exponential
    decay; there is no closed form for general theta.  Each integral is
    computed once per (transform, theta) for the life of the law object;
    failures are not remembered.
    """

    bandwidth: float
    snr: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.snr < math.inf:
            raise ValueError(f"snr must be positive and finite, got {self.snr!r}")

    def _exponent(self, theta):
        return theta * self.bandwidth / _LN2

    def _integrate(self, kind, theta, f):
        key = (kind, theta)
        val = self._memo.get(key)
        if val is not None:
            return val
        split = 1.0 / self.snr
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                lo, _ = quad(f, 0.0, split, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
                hi, _ = quad(f, split, np.inf, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
            except (IntegrationWarning, OverflowError) as exc:
                raise MgfDiverged(
                    f"capacity MGF quadrature failed at theta={theta}"
                ) from exc
        val = lo + hi
        if not math.isfinite(val):
            raise MgfDiverged(f"capacity MGF not finite at theta={theta}")
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = val
        return val

    def mgf(self, theta):
        n = self._exponent(theta)
        return self._integrate("mgf", theta,
                               lambda g: math.exp(-g + n * math.log1p(self.snr * g)))

    def tilted_mean(self, theta):
        n = self._exponent(theta)
        scale = self.bandwidth / _LN2

        def f(g):
            lg = math.log1p(self.snr * g)
            return scale * lg * math.exp(-g + n * lg)

        return self._integrate("tilted_mean", theta, f)

    def mean(self):
        # closed form: (W/ln2) e^{1/snr} E1(1/snr)
        inv = 1.0 / self.snr
        return self.bandwidth / _LN2 * math.exp(inv) * float(exp1(inv))

    def sample(self, rng, size):
        g = rng.exponential(size=size)
        return self.bandwidth * np.log2(1.0 + self.snr * g)


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

    def mgf(self, theta):
        return _safe_exp(theta * self.offset) * self.inner.mgf(theta)

    def tilted_mean(self, theta):
        shift = _safe_exp(theta * self.offset)
        return shift * (self.inner.tilted_mean(theta) + self.offset * self.inner.mgf(theta))

    def sample(self, rng, size):
        return self.inner.sample(rng, size) + self.offset


def gaussian_quantized(mean: float, std: float, n_points: int = 96) -> DiscretePmf:
    """Gauss-Hermite quantization of N(mean, std^2).

    The node/weight pairs reproduce E[e^{theta X}] of the exact Gaussian to
    near machine precision for moderate theta, which keeps analytic root
    oracles sharp while staying inside the finite-support law machinery.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_points)
    support = mean + std * math.sqrt(2.0) * nodes
    probs = weights / math.sqrt(math.pi)
    probs = probs / probs.sum()
    return DiscretePmf(tuple(support), tuple(probs))
