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
from numpy.linalg import _umath_linalg

from .counters import COUNTS
from .errors import MgfDiverged, NoConvergence, NoRootInDomain, UnstableQueue
from .laws import IncrementLaw, RayleighCapacity, RayleighStack

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
    # transform matrices by (transform, theta) stacked ahead of their scalar
    # calls (_stack_ladder); each stays until the scalar call at its theta takes it
    _ladder: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        n = len(self.state_labels)
        # as the CSVs write them, so that 1 and "1" are one label too
        if len({str(x) for x in self.state_labels}) < n:
            raise ValueError(f"state labels must be distinct, got {list(self.state_labels)}")
        if p.shape != (n, n):
            raise ValueError(f"transition must be {n}x{n}, got {p.shape}")
        # written so that NaN fails each check
        if not np.all((p >= 0) & (p < np.inf)):
            raise ValueError("transition entries must be nonnegative and finite")
        if not np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        w = _initial_dist(self.initial_dist, n)
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
    def _law_table(self) -> tuple:
        """(laws, cells, law_of, p, cell_law), built once per kernel: the
        distinct laws of the positive transitions in row-major order of first
        use (equal laws, separate objects or not, are one law); the positive
        cells i * n + j in row-major order; the index in `laws` of each cell's
        law, 0 at the other cells, in the smallest unsigned type that holds the
        law count; and the per-cell terms, the transition and the law index at
        the positive cells.  The arrays are read-only."""
        n = self.n_states
        cells = np.flatnonzero(self.transition > 0)
        index = {}
        codes = [index.setdefault(self.law(*divmod(c, n)), len(index)) for c in cells.tolist()]
        law_of = np.zeros(n * n, dtype=np.min_scalar_type(len(index)))
        law_of[cells] = codes
        arrays = cells, law_of, self.transition.take(cells), law_of[cells]
        for a in arrays:
            a.setflags(write=False)
        return tuple(index), *arrays

    @cached_property
    def _law_is_source(self) -> bool:
        """Whether law g of `_law_table` is that of every positive transition
        out of state g, so that a transition's law index is its source state."""
        _, cells, _, _, cell_law = self._law_table
        return bool((cell_law == cells // self.n_states).all())

    @cached_property
    def _rayleigh(self) -> tuple:
        """(stack, held, others): the RayleighCapacity laws of `_law_table` as
        one RayleighStack (None if there are none), a bool per law of the
        table that marks them, and the indices of the other laws."""
        laws = self._law_table[0]
        held = np.array([isinstance(law, RayleighCapacity) for law in laws])
        stack = RayleighStack([laws[g] for g in np.flatnonzero(held)]) if held.any() else None
        return stack, held, np.flatnonzero(~held).tolist()

    def started_at(self, initial_dist) -> MapKernel:
        """This kernel with another initial distribution, which is validated; the
        chain and the laws are not validated again, and the stationary array
        is shared."""
        w = _initial_dist(initial_dist, self.n_states)
        w.setflags(write=False)
        kernel = object.__new__(MapKernel)
        kernel.__dict__.update(state_labels=self.state_labels, transition=self.transition,
                               increments=self.increments, initial_dist=w,
                               _solutions={}, _ladder={}, stationary=self.stationary)
        return kernel


def _initial_dist(w, n: int) -> np.ndarray:
    """w as a float array if it is a length-n probability vector, else ValueError."""
    w = np.asarray(w, dtype=float)
    # written so that NaN fails each check
    nonnegative_finite = np.all((w >= 0) & (w < np.inf))
    if w.shape != (n,) or not (nonnegative_finite and abs(w.sum() - 1.0) <= 1e-12):
        raise ValueError("initial_dist must be a length-n probability vector")
    return w


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
    residual: float
    kernel: MapKernel = field(compare=False, repr=False)

    @cached_property
    def kappa_dot(self) -> float:
        """kappa'(theta) = v . F_hat'[theta] . h * e^{-kappa(theta)}, on first read."""
        fprime = _transform_derivative(self.kernel, self.theta)
        return float(self.v @ fprime @ self.h) * math.exp(-self.kappa)


@dataclass(frozen=True)
class PerronStack:
    """perron's h at every theta of a stack: row k of h (T, n) is the solution
    at theta[k], and solved[k] is False, with row k all NaN, exactly where
    perron raises MgfDiverged or NoConvergence at theta[k]."""

    theta: np.ndarray
    h: np.ndarray
    solved: np.ndarray


@dataclass(frozen=True)
class StabilityRoot:
    """The root theta* and both kernels' solutions there: `arrival` at theta*,
    `service` at -theta*.  kappa^{-S}(theta) is kappa^S(-theta), so
    service.kappa is kappa^{-S}(theta*) and service.h is h^{-S}; but
    service.kappa_dot is kappa'^S(-theta*), which is -kappa'^{-S}(theta*)."""

    theta_star: float
    residual: float
    arrival: SpectralSolution
    service: SpectralSolution


def _entrywise(kernel: MapKernel, theta, transform: str, what: str) -> np.ndarray:
    """Matrix of p_ij * law_ij.<transform>(theta) over the positive p_ij, with one
    quadrature for all of the kernel's Rayleigh laws and one transform call per
    other distinct law, scattered to the cells by their law index.

    For an array of theta it is the stack of those matrices, non-finite at a
    theta where a transform diverges; a float theta raises MgfDiverged there,
    and takes the matrix stacked for it if there is one: the first float call
    at +-_LADDER[0] stacks its transform's whole ladder, of theta's sign,
    first (_stack_ladder).
    """
    stack = isinstance(theta, np.ndarray)
    if not stack:
        if abs(theta) == _LADDER[0] and (transform, theta) not in kernel._ladder:
            _stack_ladder(kernel, transform, np.copysign(_LADDER, theta))
        stacked = kernel._ladder.pop((transform, theta), None)
        if stacked is not None:
            return stacked
    thetas = theta if stack else np.array([theta], dtype=float)
    laws, cells, _, p, cell_law = kernel._law_table
    rayleigh, held, others = kernel._rayleigh
    vals = np.empty((len(laws), len(thetas)))  # row g: law g's transform
    if rayleigh is not None:
        vals[held] = rayleigh.transform(transform, thetas)
    for g in others:
        vals[g] = getattr(laws[g], transform)(thetas)
    n = kernel.n_states
    out = np.zeros((len(thetas), n, n))
    out.reshape(len(thetas), n * n)[:, cells] = p * vals[cell_law].T
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


# entries beyond 2^400 (or below 2^-400) are scaled by a power of two first
_EXP_LIMIT = 400
# largest relative residual of either Perron eigenpair that perron accepts
_RESIDUAL_TOL = 1e-10
_TINY = np.finfo(float).tiny


def _eig(f: np.ndarray):
    """(w, vr, vl) of the matrix or stack f from numpy's LAPACK gufuncs: the
    complex eigenvalues, right eigenvectors (columns of vr, geev's) and left
    eigenvectors (rows of vl = vr^-1).  A matrix whose eigensolve or inverse
    fails comes back NaN, and the other matrices of a stack are unaffected;
    the public np.linalg.eig raises LinAlgError for the whole stack there,
    and its wrapping costs several times the gufunc call on a 2x2 matrix."""
    with np.errstate(invalid="ignore"):
        w, vr = _umath_linalg.eig(f, signature="d->DD")
        return w, vr, _umath_linalg.inv(vr, signature="D->D")


def _check(theta, failed, lam, positive, residual):
    """Raise the NoConvergence naming theta and the first Perron check that
    fails: a non-finite eigensolve, the largest real eigenvalue lam, the sign
    of its eigenvectors or their relative residual."""
    if failed:
        raise NoConvergence(f"eigensolve failed at theta={theta}: eigenpair not finite")
    if lam <= 0:
        raise NoConvergence(f"nonpositive dominant eigenvalue {lam!r} at theta={theta}")
    if not positive:
        raise NoConvergence(f"Perron eigenvectors are not strictly positive at theta={theta}")
    if not residual <= _RESIDUAL_TOL:
        raise NoConvergence(f"eigen residual {residual!r} above {_RESIDUAL_TOL} at theta={theta}")


def _scaled(f: np.ndarray):
    """(f, e): f exactly as it is with e = 0, or, where its largest entry lies
    beyond 2^_EXP_LIMIT (or below 2^-_EXP_LIMIT), f scaled by 2^-e with e its
    binary exponent.  LAPACK's geev returns a wrong eigenvalue once entries
    pass about 1e138 (or fall below 1e-138); e goes back into kappa."""
    e = math.frexp(f.max())[1]
    return (f, 0) if abs(e) <= _EXP_LIMIT else (np.ldexp(f, -e), e)


def _solve_one(kernel: MapKernel, theta, f: np.ndarray) -> SpectralSolution:
    """SpectralSolution at theta from the one finite transform matrix f of a
    kernel of two states or more: one _eig call gives both eigenvector sides,
    which are checked as the rows of one (2, n) array.  Raises the
    NoConvergence of the first check of _check that fails.

    The Perron root of a nonnegative irreducible matrix has the largest real
    part; on a periodic chain -lambda ties with it in modulus.  Its
    eigenvectors are real up to rounding, so their real parts are kept."""
    COUNTS["scalar_solves"] += 1
    f, e = _scaled(f)
    w, vr, vl = _eig(f)
    k = w.real.argmax()
    lam = float(w.real[k])
    hv = np.array([vr[:, k].real, vl[k].real])  # rows h and v
    if not np.isfinite(hv).all():
        _check(theta, True, lam, False, math.nan)
    # the eigenvectors' sign is arbitrary, and multiplying by -1 is exact
    hv *= np.copysign(1.0, hv.sum(axis=1))[:, None]
    h, v = hv
    # relative residuals of both eigenpairs, which scaling h or v leaves
    # unchanged; lam <= 0 fails anyway, so dividing by at least the smallest
    # normal double (times a unit vector's max entry) is safe
    scale = max(lam, _TINY)
    residual = float((abs(np.array([f @ h, v @ f]) - lam * hv).max(axis=1)
                      / (scale * abs(hv).max(axis=1))).max())
    _check(theta, False, lam, hv.min() > 0, residual)
    h = h / float(kernel.stationary @ h)
    v = v / float(v @ h)
    h.setflags(write=False)
    v.setflags(write=False)
    return SpectralSolution(theta, math.log(lam) + e * math.log(2.0), h, v, residual, kernel)


def _solve_batched(kernel: MapKernel, f):
    """(h, ok) at every matrix of the stack f, whose kernel has two states or
    more: _solve_one's scaling and Perron pick, with one _eig call for the
    whole stack, and its sign fix and checks as array operations over the
    stack.  ok is False where a row fails a check of _check, and h is
    normalized to pi . h = 1 where ok and NaN elsewhere."""
    e = np.frexp(f.max(axis=(1, 2)))[1]
    e[np.abs(e) <= _EXP_LIMIT] = 0
    # ldexp by 0 leaves every other matrix's bits unchanged
    scaled = np.ldexp(f, -e[:, None, None]) if e.any() else f
    t = len(f)
    COUNTS["stacked_matrices"] += t
    w, vr, vl = _eig(scaled)
    rows = np.arange(t)
    k = w.real.argmax(axis=1)
    lam = w.real[rows, k]
    hv = np.stack([vr[rows, :, k].real, vl[rows, k].real])
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
    # a row whose eigensolve failed is NaN and fails every check; each failed
    # row is NaN before the normalization, which keeps it silent
    ok = (lam > 0) & positive & (residual <= _RESIDUAL_TOL)
    h = np.where(ok[:, None], h, np.nan)
    return h / (h @ kernel.stationary)[:, None], ok


# h = v = [1]: the Perron vectors of every one-state kernel
_ONE = np.ones(1)
_ONE.setflags(write=False)


def perron(kernel: MapKernel, theta: float) -> SpectralSolution:
    """Dominant eigentriple of the transform matrix at theta, solved once per
    (kernel, theta) and kept on the kernel: by _solve_one, or for a one-state
    kernel in closed form, kappa = log F (scaled as _solve_one scales it),
    h = v = [1] and residual 0, with no eigensolve.

    h and v are scaled so that pi . h = 1 and v . h = 1, pi the kernel's
    stationary law, and are read-only; at theta = 0 this reduces to h = ones
    and v = pi.
    """
    sol = kernel._solutions.get(theta)
    if sol is None:
        f = transform_matrix(kernel, theta)
        if kernel.n_states > 1:
            sol = _solve_one(kernel, theta, f)
        else:
            COUNTS["scalar_solves"] += 1
            f, e = _scaled(f)
            lam = float(f[0, 0])
            _check(theta, False, lam, True, 0.0)
            sol = SpectralSolution(theta, math.log(lam) + e * math.log(2.0), _ONE, _ONE, 0.0,
                                   kernel)
        if len(kernel._solutions) >= _SOLUTION_LIMIT:
            kernel._solutions.clear()
        kernel._solutions[theta] = sol
    return sol


def cgf_as(role: str, kernel: MapKernel, theta: float, derivative: bool = False) -> float:
    """kappa(theta), or kappa'(theta) with `derivative`, from perron; a transform
    that diverges or an eigensolve that fails names the kernel's role in the
    equation ("arrival" or "negated service")."""
    try:
        sol = perron(kernel, theta)
        return sol.kappa_dot if derivative else sol.kappa
    except (MgfDiverged, NoConvergence) as exc:
        raise type(exc)(f"the {role} kernel fails: {exc}") from exc


def perron_grid(kernel: MapKernel, thetas) -> PerronStack:
    """perron's h at every theta of `thetas` as one PerronStack, from one
    transform_matrix call for the whole stack and one _solve_batched call for
    its finite matrices; it neither reads nor fills perron's cache.  A
    one-state kernel's stack is p_00 times its law's transform, solved in
    closed form: h = [1] wherever that is finite and positive.

    A theta fails alone, as an unsolved NaN row: a non-finite transform matrix
    or a failed check of _check.  Only perron words the error at a theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    if kernel.n_states == 1:
        m = kernel.transition[0, 0] * kernel.law(0, 0).mgf(thetas)
        solved = np.isfinite(m) & (m > 0)
        return PerronStack(thetas, np.where(solved, 1.0, np.nan)[:, None], solved)
    f = transform_matrix(kernel, thetas)
    finite = np.isfinite(f).all(axis=(1, 2))
    if finite.all():
        return PerronStack(thetas, *_solve_batched(kernel, f))
    h, solved = np.full(f.shape[:2], np.nan), np.zeros(len(f), dtype=bool)
    h[finite], solved[finite] = _solve_batched(kernel, f[finite])
    return PerronStack(thetas, h, solved)


def mean_rate(kernel: MapKernel) -> float:
    """Long-run mean increment per slot, sum_ij pi_i p_ij E[H_ij], from the
    transform derivative at theta = 0; it is kappa'(0), with no eigensolve."""
    return float(kernel.stationary @ _transform_derivative(kernel, 0.0).sum(axis=1))


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


# the first points of positive_root's bracket ladder 1e-3 * 2^k (doubling is
# exact), whose transforms a kernel computes as one stack (_entrywise); a
# kernel evaluated at -theta, as the service is, stacks them negated
_LADDER = tuple(1e-3 * 2.0 ** k for k in range(8))


def _stack_ladder(kernel: MapKernel, transform: str, thetas):
    """Put the kernel's `transform` matrices ("mgf" or "tilted_mean") at
    `thetas` (positive_root's _LADDER points, of either sign) on its _ladder map,
    from one _entrywise stack: the finite ones, and no transform matrix of a
    theta that perron has solved.  The scalar call at such a theta returns
    the stacked matrix, which equals its own bit for bit; a non-finite one is
    not kept, so that call raises as it would unstacked."""
    thetas = np.array([t for t in thetas if transform != "mgf" or t not in kernel._solutions])
    if len(thetas):
        rows = _entrywise(kernel, thetas, transform, transform)
        kernel._ladder.update(((transform, float(t)), row) for t, row in zip(thetas, rows)
                              if np.isfinite(row).all())


def positive_root(f, what: str) -> float:
    """The one positive root of a cgf equation f that is negative just above 0:
    bracketed by doubling from 1e-3 (halving below it when f(1e-3) > 0), then
    refined by Brent's zeroin (_zeroin).  A transform that diverges or an
    eigensolve that fails first raises NoRootInDomain naming `what` and theta,
    as do a NaN value and a refinement that does not converge.

    Starting at _LADDER[0], it stacks each kernel's ladder there (_entrywise),
    at -_LADDER for a kernel that f evaluates at -theta."""

    def value(theta):
        try:
            return f(theta)
        except (MgfDiverged, NoConvergence) as exc:
            # far out a service transform underflows to a zero eigenvalue or
            # spans more magnitudes than the eigensolve resolves
            raise NoRootInDomain(f"{what}: no root below theta={theta}, where {exc}") from exc

    lo, hi = 0.0, _LADDER[0]
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
    """Positive root theta* of kappa^A(theta) + kappa^{-S}(theta) = 0, with
    kappa^{-S}(theta) = kappa^S(-theta): the transform of -S at theta is that
    of S at -theta, law by law.

    kappa is convex through the origin with negative drift at a stable
    queue, so there is at most one positive root.
    """
    drift_a = mean_rate(arrival)
    drift_s = mean_rate(service)
    if drift_a >= drift_s:
        raise UnstableQueue(drift_a, drift_s)

    def f(theta):
        return cgf_as("arrival", arrival, theta) + cgf_as("negated service", service, -theta)

    theta = positive_root(f, "combined cgf kappa^A + kappa^-S")
    residual = abs(f(theta))
    if residual > _ROOT_RESIDUAL_TOL:
        raise NoRootInDomain(f"combined cgf kappa^A + kappa^-S: root residual {residual!r} "
                             f"above {_ROOT_RESIDUAL_TOL} at theta={theta}")
    return StabilityRoot(theta, residual, perron(arrival, theta), perron(service, -theta))
