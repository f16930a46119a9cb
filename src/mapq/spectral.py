"""Markov additive kernels and their Perron-Frobenius spectral quantities.

A kernel couples a finite irreducible Markov chain with per-transition
increment laws.  The transform matrix at theta has entries
p_ij * E[e^{theta X}] under the (i, j) law; its log spectral radius is the
cumulant generating function kappa(theta) of the additive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eig
from scipy.optimize import brentq

from .errors import MgfDiverged, NoConvergence, NoRootInDomain, UnstableQueue
from .laws import IncrementLaw, Negated


@dataclass(frozen=True)
class MapKernel:
    state_labels: tuple
    transition: np.ndarray
    increments: tuple  # tuple of tuples of IncrementLaw, indexed (source, dest)
    initial_dist: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        w = np.asarray(self.initial_dist, dtype=float)
        n = len(self.state_labels)
        if p.shape != (n, n):
            raise ValueError(f"transition must be {n}x{n}, got {p.shape}")
        if np.any(p < 0):
            raise ValueError("transition entries must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if w.shape != (n,) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("initial_dist must be a length-n probability vector")
        if len(self.increments) != n or any(len(row) != n for row in self.increments):
            raise ValueError("increments must be an n x n matrix of laws")
        for row in self.increments:
            for law in row:
                if not isinstance(law, IncrementLaw):
                    raise ValueError(f"not an increment law: {law!r}")
        if not _irreducible(p):
            raise ValueError("transition matrix must be irreducible")
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "increments", tuple(tuple(r) for r in self.increments))
        object.__setattr__(self, "initial_dist", w)
        self.transition.setflags(write=False)
        self.initial_dist.setflags(write=False)

    @property
    def n_states(self):
        return len(self.state_labels)

    def law(self, i, j) -> IncrementLaw:
        return self.increments[i][j]

    @cached_property
    def stationary(self) -> np.ndarray:
        """Stationary distribution of the chain, solved once per kernel; read-only."""
        p = self.transition
        n = p.shape[0]
        if n == 1:
            pi = np.array([1.0])
        else:
            # left null space of (P - I), with the normalization row appended
            a = np.vstack([p.T - np.eye(n), np.ones(n)])
            b = np.zeros(n + 1)
            b[-1] = 1.0
            pi, *_ = np.linalg.lstsq(a, b, rcond=None)
            pi = np.clip(pi, 0.0, None)
            pi = pi / pi.sum()
        pi.setflags(write=False)
        return pi


def _irreducible(p: np.ndarray) -> bool:
    # breadth-first reachability on the support graph, both directions
    n = p.shape[0]
    adj = p > 0
    for mat in (adj, adj.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(mat[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    frontier.append(j)
        if not seen.all():
            return False
    return True


def single_state_kernel(law: IncrementLaw, label="s0") -> MapKernel:
    return MapKernel((label,), np.array([[1.0]]), ((law,),), np.array([1.0]))


@dataclass(frozen=True)
class SpectralSolution:
    theta: float
    kappa: float
    h: np.ndarray
    v: np.ndarray
    pi: np.ndarray
    residual: float
    kernel: MapKernel = field(compare=False, repr=False)

    @cached_property
    def kappa_dot(self) -> float:
        """kappa'(theta) = v . F_hat'[theta] . h * e^{-kappa(theta)}, on first read."""
        fprime = _transform_derivative(self.kernel, self.theta)
        return float(self.v @ fprime @ self.h) * math.exp(-self.kappa)


@dataclass(frozen=True)
class StabilityRoot:
    theta_star: float
    residual: float
    arrival: SpectralSolution
    neg_service: SpectralSolution

    @property
    def kappa_arrival(self) -> float:
        return self.arrival.kappa


def _entrywise(kernel: MapKernel, theta: float, transform: str, what: str) -> np.ndarray:
    """Matrix of p_ij * law_ij.<transform>(theta) over the positive p_ij."""
    n = kernel.n_states
    p = kernel.transition
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if p[i, j] > 0:
                out[i, j] = p[i, j] * getattr(kernel.law(i, j), transform)(theta)
    if not np.all(np.isfinite(out)):
        raise MgfDiverged(f"{what} not finite at theta={theta}")
    return out


def transform_matrix(kernel: MapKernel, theta: float) -> np.ndarray:
    """F_hat[theta] with entries p_ij * mgf_{H_ij}(theta)."""
    return _entrywise(kernel, theta, "mgf", "transform matrix")


def _transform_derivative(kernel: MapKernel, theta: float) -> np.ndarray:
    """Entrywise theta-derivative: p_ij * E[X e^{theta X}]."""
    return _entrywise(kernel, theta, "tilted_mean", "transform derivative")


def stationary_distribution(kernel: MapKernel) -> np.ndarray:
    """The kernel's stationary distribution (cached on the kernel; read-only)."""
    return kernel.stationary


def perron(kernel: MapKernel, theta: float) -> SpectralSolution:
    """Dominant eigentriple of the transform matrix at theta.

    h and v are scaled so that pi . h = 1 and v . h = 1; at theta = 0 this
    reduces to h = ones and v = pi.
    """
    f = transform_matrix(kernel, theta)
    # eig returns a wrong eigenvalue once entries pass about 1e138 (or fall
    # below 1e-138): scale F exactly by a power of two far from 1 and add it
    # back to kappa; ldexp by 0 leaves every other matrix's bits unchanged
    e = math.frexp(f.max())[1]
    e = e if abs(e) > 400 else 0
    f = np.ldexp(f, -e)
    # the Perron root of a nonnegative irreducible matrix has the largest
    # real part; on a periodic chain -lambda ties with it in modulus
    eigvals, left, right = eig(f, left=True, right=True)
    k = int(np.argmax(eigvals.real))
    lam = float(eigvals[k].real)
    h = right[:, k].real
    v = left[:, k].real
    if lam <= 0:
        raise NoConvergence(f"nonpositive dominant eigenvalue {lam!r}")
    if np.sum(h) < 0:
        h = -h
    if np.sum(v) < 0:
        v = -v
    if np.any(h <= 0) or np.any(v <= 0):
        raise NoConvergence("Perron eigenvectors are not strictly positive")
    pi = stationary_distribution(kernel)
    h = h / float(pi @ h)
    v = v / float(v @ h)
    residual = max(
        float(np.max(np.abs(f @ h - lam * h)) / (lam * np.max(np.abs(h)))),
        float(np.max(np.abs(v @ f - lam * v)) / (lam * np.max(np.abs(v)))),
    )
    if residual > 1e-10:
        raise NoConvergence(f"eigen residual {residual!r} above 1e-10")
    return SpectralSolution(theta, math.log(lam) + e * math.log(2.0), h, v, pi, residual, kernel)


def mean_rate(kernel: MapKernel) -> float:
    """Long-run mean increment per slot: kappa'(0) = sum_ij pi_i p_ij E[H_ij]."""
    return perron(kernel, 0.0).kappa_dot


def negate(kernel: MapKernel) -> MapKernel:
    """Sign-flip every increment law; kappa of negate(k) at theta is kappa of k at -theta."""
    increments = tuple(
        tuple(law.inner if isinstance(law, Negated) else Negated(law) for law in row)
        for row in kernel.increments
    )
    return MapKernel(kernel.state_labels, kernel.transition, increments, kernel.initial_dist)


def positive_root(f, what: str) -> float:
    """The one positive root of a cgf equation f that is negative just above 0:
    bracketed by doubling from 1e-3 (halving below it when f(1e-3) > 0), then
    refined by brentq.  A transform that diverges or an eigensolve that fails
    first raises NoRootInDomain naming `what` and theta."""

    def value(theta):
        try:
            return f(theta)
        except (MgfDiverged, NoConvergence) as exc:
            # far out a service transform underflows to a zero eigenvalue or
            # spans more magnitudes than the eigensolve resolves
            raise NoRootInDomain(f"{what}: no root below theta={theta}, where {exc}") from exc

    lo, hi = 0.0, 1e-3
    for _ in range(128):
        if value(hi) > 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoRootInDomain(f"{what} never crossed zero up to theta={hi}")
    if lo == 0.0:
        # the root lies below 1e-3: halve towards the origin until f is
        # negative; at theta = 0 a cgf is exactly 0, the trivial root
        for _ in range(64):
            lo = 0.5 * hi
            if value(lo) < 0:
                break
            hi = lo
        else:
            raise NoRootInDomain(f"{what} stays nonnegative down to theta={lo}")
    return float(brentq(value, lo, hi, xtol=1e-15, rtol=8.9e-16))


# largest |kappa^A + kappa^{-S}| accepted at the root
_ROOT_RESIDUAL_TOL = 1e-10


def stability_root(arrival: MapKernel, service: MapKernel) -> StabilityRoot:
    """Positive root theta* of kappa^A(theta) + kappa^{-S}(theta) = 0.

    kappa is convex through the origin with negative drift at a stable
    queue, so there is at most one positive root.
    """
    drift_a = mean_rate(arrival)
    drift_s = mean_rate(service)
    if drift_a >= drift_s:
        raise UnstableQueue(drift_a, drift_s)
    neg_service = negate(service)
    solutions = []

    def f(theta):
        solutions[:] = perron(arrival, theta), perron(neg_service, theta)
        return solutions[0].kappa + solutions[1].kappa

    theta = positive_root(f, "combined cgf kappa^A + kappa^-S")
    residual = abs(f(theta))
    if residual > _ROOT_RESIDUAL_TOL:
        raise NoRootInDomain(f"combined cgf kappa^A + kappa^-S: root residual {residual!r} "
                             f"above {_ROOT_RESIDUAL_TOL} at theta={theta}")
    return StabilityRoot(theta, residual, *solutions)
