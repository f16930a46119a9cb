"""Markov additive kernels and their Perron-Frobenius spectral quantities.

A kernel couples a finite irreducible Markov chain with per-transition
increment laws.  The transform matrix at theta has entries
p_ij * E[e^{theta X}] under the (i, j) law; its log spectral radius is the
cumulant generating function kappa(theta) of the additive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import _compute_lwork

from .errors import MgfDiverged, NoConvergence, NoRootInDomain, UnstableQueue
from .laws import IncrementLaw, Negated, RayleighStack

# a kernel's perron solutions are cleared at this many, so a long-lived process stays bounded
_SOLUTION_LIMIT = 4096


@dataclass(frozen=True)
class MapKernel:
    state_labels: tuple
    transition: np.ndarray
    increments: tuple  # tuple of tuples of IncrementLaw, indexed (source, dest)
    initial_dist: np.ndarray
    # perron's solutions by theta, filled on success only
    _solutions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @cached_property
    def _law_groups(self) -> dict:
        """Rows and columns of the positive transitions per distinct law: equal
        laws, separate objects or not, are grouped once per kernel."""
        groups = {}
        for i, j in zip(*np.nonzero(self.transition > 0)):
            groups.setdefault(self.law(i, j), []).append((i, j))
        return {law: np.transpose(cells) for law, cells in groups.items()}

    @cached_property
    def _law_of_cell(self) -> np.ndarray:
        """Index in `_law_groups` of each positive transition's law, by cell
        i * n + j, in the smallest unsigned type that holds the index; the
        other cells hold 0.  Read-only."""
        n = self.n_states
        law_of = np.zeros(n * n, dtype=np.min_scalar_type(len(self._law_groups)))
        for g, (rows, cols) in enumerate(self._law_groups.values()):
            law_of[rows * n + cols] = g
        law_of.setflags(write=False)
        return law_of

    @cached_property
    def _transform_groups(self) -> tuple:
        """(others, stack, cells): (law, rows, cols, p_ij) per law of `_law_groups`
        that is not a Rayleigh capacity law; the Rayleigh laws, negated or not,
        as one RayleighStack (None if there are none); and (rows, cols, p_ij)
        per law of the stack."""
        p = self.transition
        others, rayleigh, cells = [], [], []
        for law, (rows, cols) in self._law_groups.items():
            if RayleighStack.holds(law):
                rayleigh.append(law)
                cells.append((rows, cols, p[rows, cols]))
            else:
                others.append((law, rows, cols, p[rows, cols]))
        return others, RayleighStack(rayleigh) if rayleigh else None, cells

    @cached_property
    def negated(self) -> MapKernel:
        """The kernel with every increment law sign-flipped, built once per kernel."""
        increments = tuple(
            tuple(law.inner if isinstance(law, Negated) else Negated(law) for law in row)
            for row in self.increments
        )
        return MapKernel(self.state_labels, self.transition, increments, self.initial_dist)


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
class PerronStack:
    """perron at every theta of a stack, as arrays: row k of kappa (T,), h (T, n)
    and v (T, n) is the solution at theta[k], NaN where failure[k] holds the
    MgfDiverged or NoConvergence that perron raises there."""

    theta: np.ndarray
    kappa: np.ndarray
    h: np.ndarray
    v: np.ndarray
    failure: tuple
    kernel: MapKernel = field(compare=False, repr=False)

    @property
    def solved(self) -> np.ndarray:
        return np.array([f is None for f in self.failure], dtype=bool)

    @cached_property
    def kappa_dot(self) -> np.ndarray:
        """kappa'(theta) per row, from one stacked transform derivative on first read."""
        fprime = _transform_derivative(self.kernel, self.theta)
        return (self.v[:, None, :] @ fprime @ self.h[:, :, None])[:, 0, 0] * np.exp(-self.kappa)


@dataclass(frozen=True)
class StabilityRoot:
    theta_star: float
    residual: float
    arrival: SpectralSolution
    neg_service: SpectralSolution

    @property
    def kappa_arrival(self) -> float:
        return self.arrival.kappa


def _entrywise(kernel: MapKernel, theta, transform: str, what: str) -> np.ndarray:
    """Matrix of p_ij * law_ij.<transform>(theta) over the positive p_ij, with one
    quadrature for all of the kernel's Rayleigh laws and one transform call per
    other distinct law.

    For an array of theta it is the stack of those matrices, non-finite at a
    theta where a transform diverges; a float theta raises MgfDiverged there.
    """
    stack = isinstance(theta, np.ndarray)
    thetas = theta if stack else np.array([theta], dtype=float)
    n = kernel.n_states
    out = np.zeros((len(thetas), n, n))
    others, rayleigh, cells = kernel._transform_groups
    for law, rows, cols, p in others:
        out[:, rows, cols] = p * getattr(law, transform)(thetas)[:, None]
    if rayleigh is not None:
        for (rows, cols, p), val in zip(cells, rayleigh.transform(transform, thetas)):
            out[:, rows, cols] = p * val[:, None]
    if stack:
        return out
    if not np.isfinite(out).all():
        raise MgfDiverged(f"{what} not finite at theta={theta}")
    return out[0]


def transform_matrix(kernel: MapKernel, theta) -> np.ndarray:
    """F_hat[theta] with entries p_ij * mgf_{H_ij}(theta); a stack for an array of theta."""
    return _entrywise(kernel, theta, "mgf", "transform matrix")


def _transform_derivative(kernel: MapKernel, theta: float) -> np.ndarray:
    """Entrywise theta-derivative: p_ij * E[X e^{theta X}]."""
    return _entrywise(kernel, theta, "tilted_mean", "transform derivative")


def stationary_distribution(kernel: MapKernel) -> np.ndarray:
    """The kernel's stationary distribution (cached on the kernel; read-only)."""
    return kernel.stationary


# entries beyond 2^400 (or below 2^-400) are scaled by a power of two first
_EXP_LIMIT = 400
# largest relative residual of either Perron eigenpair that perron accepts
_RESIDUAL_TOL = 1e-10
_TINY = np.finfo(float).tiny

dgeev, _dgeev_lwork = get_lapack_funcs(("geev", "geev_lwork"), dtype=np.float64)


@cache
def _geev_lwork(n: int) -> int:
    """The dgeev workspace size that scipy's eig queries for an n x n matrix."""
    return _compute_lwork(_dgeev_lwork, n, compute_vl=True, compute_vr=True)


def _failure(theta, lam, positive, residual):
    """The NoConvergence naming theta and the first Perron check that the
    largest real eigenvalue lam, the sign of its eigenvectors or their relative
    residual fails, or None where all three pass."""
    if lam <= 0:
        return NoConvergence(f"nonpositive dominant eigenvalue {lam!r} at theta={theta}")
    if not positive:
        return NoConvergence(f"Perron eigenvectors are not strictly positive at theta={theta}")
    if not residual <= _RESIDUAL_TOL:
        return NoConvergence(f"eigen residual {residual!r} above {_RESIDUAL_TOL} at theta={theta}")
    return None


def _gate(kernel, pi, theta, lam, e, h, v, positive, residual):
    """The SpectralSolution at theta from the largest real eigenvalue lam of F
    scaled by 2^-e and its sign-fixed eigenvectors h and v, or the
    NoConvergence naming theta and the first check they fail."""
    failure = _failure(theta, lam, positive, residual)
    if failure is not None:
        return failure
    h = h / float(pi @ h)
    v = v / float(v @ h)
    h.setflags(write=False)
    v.setflags(write=False)
    return SpectralSolution(theta, math.log(lam) + e * math.log(2.0), h, v, pi, residual, kernel)


def _solve_one(kernel: MapKernel, theta, f: np.ndarray):
    """SpectralSolution or NoConvergence naming theta from the one finite
    transform matrix f at theta: one dgeev call gives both eigenvector sides,
    and a one-state kernel needs none (kappa = log F, h = v = pi = [1])."""
    pi = stationary_distribution(kernel)
    # LAPACK's geev returns a wrong eigenvalue once entries pass about 1e138
    # (or fall below 1e-138): scale F exactly by a power of two far from 1
    # and add it back to kappa
    e = math.frexp(f.max())[1]
    if abs(e) <= _EXP_LIMIT:
        e = 0
    else:
        f = np.ldexp(f, -e)
    if len(f) == 1:
        return _gate(kernel, pi, theta, float(f[0, 0]), e, np.ones(1), np.ones(1), True, 0.0)
    wr, _, vl, vr, info = dgeev(f, compute_vl=True, compute_vr=True, lwork=_geev_lwork(len(f)))
    if info:
        return NoConvergence(f"eigensolve failed at theta={theta}: dgeev info {info}")
    # the Perron root of a nonnegative irreducible matrix has the largest
    # real part; on a periodic chain -lambda ties with it in modulus.  Column
    # k of vr and of vl holds the real part of its eigenvectors (a complex
    # pair keeps it in the first of its two columns, which argmax picks);
    # their sign is arbitrary, and multiplying by -1 is exact
    k = int(wr.argmax())
    lam = float(wr[k])
    h = vr[:, k] * math.copysign(1.0, vr[:, k].sum())
    v = vl[:, k] * math.copysign(1.0, vl[:, k].sum())
    # relative residuals of both eigenpairs, which scaling h or v leaves
    # unchanged; lam <= 0 fails anyway, so dividing by at least the smallest
    # normal double (times a unit vector's max entry) is safe
    scale = max(lam, _TINY)
    residual = float(np.maximum(abs(f @ h - lam * h).max() / (scale * abs(h).max()),
                                abs(v @ f - lam * v).max() / (scale * abs(v).max())))
    return _gate(kernel, pi, theta, lam, e, h, v, h.min() > 0 and v.min() > 0, residual)


def _solve_batched(kernel: MapKernel, thetas, f):
    """(kappa, h, v, failures) at every matrix of the stack f, with _solve_one's
    scaling, pick, checks and normalization as array operations over the stack:
    one batched numpy eig of F and one of F^T, and none for a one-state kernel
    (kappa = log F, h = v = [1]).  A failed row holds NaN and its NoConvergence;
    raises LinAlgError when numpy rejects the stack."""
    e = np.frexp(f.max(axis=(1, 2)))[1]
    e[np.abs(e) <= _EXP_LIMIT] = 0
    # ldexp by 0 leaves every other matrix's bits unchanged
    scaled = np.ldexp(f, -e[:, None, None]) if e.any() else f
    t, n = f.shape[:2]
    if n == 1:
        lam = scaled[:, 0, 0]
        h = v = np.ones((t, 1))
        positive = np.ones(t, dtype=bool)
        residual = np.zeros(t)
    else:
        w, right = np.linalg.eig(scaled)
        wl, left = np.linalg.eig(np.swapaxes(scaled, 1, 2))
        rows = np.arange(t)
        k = w.real.argmax(axis=1)
        lam = w.real[rows, k]
        hv = np.stack((right[rows, :, k].real, left[rows, :, wl.real.argmax(axis=1)].real))
        hv *= np.copysign(1.0, hv.sum(axis=2))[:, :, None]
        positive = hv.min(axis=(0, 2)) > 0
        h, v = hv
        scale = np.maximum(lam, _TINY)
        residual = np.maximum(
            abs((scaled @ h[:, :, None])[:, :, 0] - lam[:, None] * h).max(axis=1)
            / (scale * abs(h).max(axis=1)),
            abs((v[:, None, :] @ scaled)[:, 0, :] - lam[:, None] * v).max(axis=1)
            / (scale * abs(v).max(axis=1)),
        )
    # _failure's checks over the whole stack; it words the failures
    ok = (lam > 0) & positive & (residual <= _RESIDUAL_TOL)
    bad = np.flatnonzero(~ok)
    failures = [None] * t
    for k, *args in zip(bad.tolist(), thetas[bad].tolist(), lam[bad].tolist(),
                        positive[bad].tolist(), residual[bad].tolist()):
        failures[k] = _failure(*args)
    # a failed row is NaN before any arithmetic, which keeps it silent
    kappa = np.log(np.where(ok, lam, np.nan)) + e * math.log(2.0)
    h = np.where(ok[:, None], h, np.nan)
    h = h / (h @ kernel.stationary)[:, None]
    v = np.where(ok[:, None], v, np.nan)
    return kappa, h, v / (v * h).sum(axis=1)[:, None], failures


def _solve_each(kernel: MapKernel, thetas, f):
    """_solve_batched's (kappa, h, v, failures) from one _solve_one call per matrix."""
    t, n = f.shape[:2]
    kappa, h, v = np.full(t, np.nan), np.full((t, n), np.nan), np.full((t, n), np.nan)
    failures = [_solve_one(kernel, theta, m) for theta, m in zip(thetas.tolist(), f)]
    for k, sol in enumerate(failures):
        if isinstance(sol, SpectralSolution):
            kappa[k], h[k], v[k] = sol.kappa, sol.h, sol.v
            failures[k] = None
    return kappa, h, v, failures


def perron(kernel: MapKernel, theta: float) -> SpectralSolution:
    """Dominant eigentriple of the transform matrix at theta, solved once per
    (kernel, theta) and kept on the kernel.

    h and v are scaled so that pi . h = 1 and v . h = 1, and are read-only;
    at theta = 0 this reduces to h = ones and v = pi.
    """
    sol = kernel._solutions.get(theta)
    if sol is None:
        sol = _solve_one(kernel, theta, transform_matrix(kernel, theta))
        if isinstance(sol, NoConvergence):
            raise sol
        if len(kernel._solutions) >= _SOLUTION_LIMIT:
            kernel._solutions.clear()
        kernel._solutions[theta] = sol
    return sol


def perron_grid(kernel: MapKernel, thetas) -> PerronStack:
    """perron at every theta of `thetas` as one PerronStack, from one
    transform_matrix call for the whole stack and one batched eigensolve of it;
    it neither reads nor fills perron's cache.

    A theta fails alone: its failure is the MgfDiverged or NoConvergence that
    perron raises there.  When numpy rejects the stack, which it does for one
    bad slice, each matrix is solved by _solve_one.
    """
    thetas = np.asarray(thetas, dtype=float)
    f = transform_matrix(kernel, thetas)
    finite = np.isfinite(f).all(axis=(1, 2))
    t, n = f.shape[:2]
    kappa, h, v = np.full(t, np.nan), np.full((t, n), np.nan), np.full((t, n), np.nan)
    try:
        kappa[finite], h[finite], v[finite], failures = _solve_batched(
            kernel, thetas[finite], f[finite])
    except np.linalg.LinAlgError:
        kappa[finite], h[finite], v[finite], failures = _solve_each(
            kernel, thetas[finite], f[finite])
    solved = iter(failures)
    failure = tuple(next(solved) if ok else MgfDiverged(f"transform matrix not finite at theta={x}")
                    for x, ok in zip(thetas.tolist(), finite.tolist()))
    return PerronStack(thetas, kappa, h, v, failure, kernel)


def mean_rate(kernel: MapKernel) -> float:
    """Long-run mean increment per slot: kappa'(0) = sum_ij pi_i p_ij E[H_ij]."""
    return perron(kernel, 0.0).kappa_dot


def negate(kernel: MapKernel) -> MapKernel:
    """Sign-flip every increment law; kappa of negate(k) at theta is kappa of k at -theta.
    The negated kernel is built once per kernel, so its solutions are kept too."""
    return kernel.negated


# brentq's tolerances, as positive_root passed them, and scipy's default iteration cap
_XTOL, _RTOL, _MAXITER = 1e-15, 8.9e-16, 100


def _zeroin(f, lo, hi, what: str) -> float:
    """Brent's zeroin (Brent 1973, ch. 4) on a bracket where f changes sign,
    step for step as scipy's brentq runs it (scipy/optimize/Zeros/brentq.c):
    the same choice between inverse interpolation, extrapolation and
    bisection, and the same convergence test, so every theta it evaluates and
    the root it returns are brentq's bit for bit.  A NaN value, or no
    convergence in _MAXITER steps, raises NoRootInDomain naming `what` and theta."""

    def at(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NoRootInDomain(f"{what} is NaN at theta={x}")
        return fx

    xpre, xcur = lo, hi
    fpre, fcur = at(xpre), at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless the secant or the parabola steps short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C divides to inf or NaN there, which fails the test below too
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = at(xcur)
    raise NoRootInDomain(f"{what} did not converge in {_MAXITER} steps, at theta={xcur}")


def positive_root(f, what: str) -> float:
    """The one positive root of a cgf equation f that is negative just above 0:
    bracketed by doubling from 1e-3 (halving below it when f(1e-3) > 0), then
    refined by Brent's zeroin (_zeroin).  A transform that diverges or an
    eigensolve that fails first raises NoRootInDomain naming `what` and theta,
    as do a NaN value and a refinement that does not converge."""

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
    return _zeroin(value, lo, hi, what)


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

    def f(theta):
        return perron(arrival, theta).kappa + perron(neg_service, theta).kappa

    theta = positive_root(f, "combined cgf kappa^A + kappa^-S")
    residual = abs(f(theta))
    if residual > _ROOT_RESIDUAL_TOL:
        raise NoRootInDomain(f"combined cgf kappa^A + kappa^-S: root residual {residual!r} "
                             f"above {_ROOT_RESIDUAL_TOL} at theta={theta}")
    return StabilityRoot(theta, residual, perron(arrival, theta), perron(neg_service, theta))
