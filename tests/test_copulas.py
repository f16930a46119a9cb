"""Copula families, the star-product, and transition extraction."""

import builtins
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from conftest import count_calls
from mapq import copulas as copulas_module
from mapq.copulas import (
    Comonotone,
    Countermonotone,
    CopulaSpec,
    Frechet,
    Gaussian2,
    GridCopula,
    Product,
    bvn_cdf,
    dependence_control,
    frechet_compose,
    frechet_homogeneous,
    one_param_frechet,
    star,
    transition_from_copula,
)
from mapq.errors import IncompatibleCopula, OutOfUnitInterval, ZeroMassState

FAMILIES = [
    Comonotone(),
    Countermonotone(),
    Product(),
    one_param_frechet(0.5),
    one_param_frechet(-0.7),
    Gaussian2(0.6),
    Gaussian2(-0.4),
    star(Comonotone(), one_param_frechet(0.4), 64),
]
FAMILY_IDS = [type(c).__name__ + repr(getattr(c, "rho", getattr(c, "w_m", ""))) for c in FAMILIES]

unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("cop", FAMILIES, ids=FAMILY_IDS)
@given(u=unit, v=unit)
def test_copula_axioms(cop, u, v):
    # uniform margins and groundedness
    assert cop.eval_grid([u], [0.0])[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert cop.eval_grid([0.0], [v])[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert cop.eval_grid([u], [1.0])[0, 0] == pytest.approx(u, abs=1e-7)
    assert cop.eval_grid([1.0], [v])[0, 0] == pytest.approx(v, abs=1e-7)
    # Frechet-Hoeffding envelope
    val = cop.eval_grid([u], [v])[0, 0]
    assert max(u + v - 1.0, 0.0) - 1e-7 <= val <= min(u, v) + 1e-7


@pytest.mark.parametrize("cop", FAMILIES, ids=FAMILY_IDS)
@given(u1=unit, u2=unit, v1=unit, v2=unit)
def test_copula_two_increasing(cop, u1, u2, v1, v2):
    a, b = sorted((u1, u2))
    c, d = sorted((v1, v2))
    mass = (cop.eval_grid([b], [d])[0, 0] - cop.eval_grid([a], [d])[0, 0]
            - cop.eval_grid([b], [c])[0, 0] + cop.eval_grid([a], [c])[0, 0])
    assert mass >= -1e-7


def test_out_of_unit_interval_raises():
    with pytest.raises(OutOfUnitInterval):
        Product().eval_grid([1.2], [0.5])


@pytest.mark.parametrize("cop", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2.0 ** -52, math.nan])
def test_eval_grid_rejects_lattice_entries_outside_unit_interval(cop, bad):
    inside = np.array([0.0, 0.5, 1.0])
    for u, v in ((np.append(inside, bad), inside), (inside, np.insert(inside, 1, bad))):
        with pytest.raises(OutOfUnitInterval, match="outside"):
            cop.eval_grid(u, v)


def test_gaussian_lattice_edges_are_exact_and_only_inner_cells_integrate(monkeypatch):
    calls = count_calls(monkeypatch, copulas_module, "bvn_cdf")
    g = Gaussian2(0.6).eval_grid([0.0, 0.3, 1.0], [1.0, 0.7, 0.0])
    inner = bvn_cdf(float(ndtri(0.3)), float(ndtri(0.7)), 0.6)
    assert np.array_equal(g, [[0.0, 0.0, 0.0], [0.3, inner, 0.0], [1.0, 0.7, 0.0]])
    assert calls == [(float(ndtri(0.3)), float(ndtri(0.7)), 0.6)]


def test_a_gaussian_grid_imports_nothing_once_scipy_special_is_loaded(monkeypatch):
    Gaussian2(0.6).eval_grid([0.3], [0.7])
    imports = count_calls(monkeypatch, builtins, "__import__")
    Gaussian2(0.6).eval_grid([0.0, 0.3, 0.5, 1.0], [0.2, 0.7])
    assert bvn_cdf(0.4, -0.2, 0.5) > 0.0
    assert imports == []


def test_one_param_frechet_weights():
    c = one_param_frechet(0.5)
    assert c.w_w == pytest.approx(0.0625)
    assert c.w_p == pytest.approx(0.75)
    assert c.w_m == pytest.approx(0.1875)
    with pytest.raises(ValueError):
        one_param_frechet(1.5)
    with pytest.raises(ValueError):
        Frechet(math.nan, 0.5, 0.5)


@pytest.mark.parametrize("make, match", [
    (lambda: Frechet(-0.1, 0.6, 0.5), "nonnegative"),
    (lambda: Gaussian2(1.0), "rho must lie in"),
    (lambda: bvn_cdf(0.1, 0.2, -1.0), "rho must lie in"),
    (lambda: GridCopula(np.zeros((2, 3))), "square"),
    (lambda: frechet_homogeneous(-1), "lag must be nonnegative"),
    (lambda: star(Product(), Product(), grid_n=32), "grid_n must be at least 64"),
], ids=["frechet-negative-weight", "gaussian-rho-1", "bvn-rho-minus-1", "grid-2x3",
        "homogeneous-negative-lag", "star-coarse-grid"])
def test_copula_constructors_reject_bad_parameters(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_bvn_cdf_reference_values():
    # independence and symmetry checks against the univariate normal
    assert bvn_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert bvn_cdf(math.inf, 0.3, 0.5) == pytest.approx(0.61791142218895256, abs=1e-9)
    assert bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-9)  # classic closed form
    # Phi2(0,0;rho) = 1/4 + arcsin(rho)/(2 pi)
    for rho in (-0.9, -0.3, 0.7):
        exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.8])
def test_bvn_cdf_at_an_infinite_limit_is_exact(rho):
    # a = -inf leaves no mass, and b = +inf leaves the marginal Phi(a)
    assert bvn_cdf(-math.inf, 0.3, rho) == 0.0
    assert bvn_cdf(0.3, math.inf, rho) == float(ndtr(0.3))


LATTICE = np.linspace(-3.0, 3.0, 7)  # holds 0, where alpha_a or alpha_b is infinite


@pytest.mark.parametrize("rho", [-0.99, -0.9, -0.3, 0.3, 0.9, 0.99])
def test_bvn_cdf_at_the_origin_is_the_arcsine_law(rho):
    assert abs(bvn_cdf(0.0, 0.0, rho) - (0.25 + math.asin(rho) / (2.0 * math.pi))) <= 4e-16


@pytest.mark.parametrize("rho", [-0.99, -0.9, -0.5, 0.3, 0.8, 0.99])
def test_bvn_cdf_reflection_identity(rho):
    # (X, Y) and (X, -Y): Phi2(a, b; rho) + Phi2(a, -b; -rho) = Phi(a)
    for a in LATTICE:
        for b in LATTICE:
            total = bvn_cdf(a, b, rho) + bvn_cdf(a, -b, -rho)
            assert abs(total - float(ndtr(a))) <= 5e-16, (a, b)


@pytest.mark.parametrize("rho", [-0.8, -0.5, -0.1, 0.1, 0.5, 0.8])
def test_bvn_cdf_matches_the_tetrachoric_integral(rho):
    # Phi(a) Phi(b) + int_0^rho phi2(a, b; r) dr, integrated adaptively
    from scipy.integrate import quad

    for a in LATTICE:
        for b in LATTICE:
            def density(r):
                om = 1.0 - r * r
                return math.exp(-(a * a - 2.0 * r * a * b + b * b) / (2.0 * om)) / (
                    2.0 * math.pi * math.sqrt(om))

            corr, _ = quad(density, 0.0, rho, epsabs=1e-10, epsrel=1e-10, limit=200)
            assert abs(bvn_cdf(a, b, rho) - (ndtr(a) * ndtr(b) + corr)) <= 1e-15, (a, b)


def test_gaussian_copula_diagonal_value():
    c = Gaussian2(0.5)
    u = 0.5
    assert c.eval_grid([u], [u])[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert (Gaussian2(-0.99).eval_grid([0.5], [0.5])[0, 0]
            < Gaussian2(0.99).eval_grid([0.5], [0.5])[0, 0])


def test_grid_copula_interpolates_nodes():
    t = np.linspace(0.0, 1.0, 5)
    vals = np.minimum.outer(t, t)
    g = GridCopula(vals)
    assert g.eval_grid([0.5], [0.75])[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert g.eval_grid([0.3], [0.3])[0, 0] == pytest.approx(
        Comonotone().eval_grid([0.3], [0.3])[0, 0], abs=0.25 / 4)


def test_star_identities_moderate_grid():
    n = 256
    t = np.linspace(0.0, 1.0, n + 1)
    m, w, p, c = Comonotone(), Countermonotone(), Product(), one_param_frechet(0.4)
    for lhs, rhs in [
        (star(m, c, n), c),
        (star(c, m, n), c),
        (star(w, w, n), m),
        (star(p, c, n), p),
    ]:
        err = np.max(np.abs(lhs.values - rhs.eval_grid(t, t)))
        assert err < 2e-3


def test_frechet_semigroup_closed_form():
    h1, h2 = 0.3, 0.9
    c1 = frechet_homogeneous(h1)
    c2 = frechet_homogeneous(h2)
    composed = frechet_compose((c1.w_w, c1.w_m), (c2.w_w, c2.w_m))
    target = frechet_homogeneous(h1 + h2)
    assert composed[0] == pytest.approx(target.w_w, abs=1e-12)
    assert composed[1] == pytest.approx(target.w_m, abs=1e-12)


@dataclass(frozen=True)
class LatticeSpy(CopulaSpec):
    """The product copula, keeping every lattice it is evaluated on."""

    lattices: list = field(default_factory=list)

    def _grid(self, u, v):
        self.lattices.append((u.copy(), v.copy()))
        return np.outer(u, v)


def test_transition_extraction_validates_masses():
    spy = LatticeSpy()
    transition_from_copula(spy, [0.3, 0.7])
    assert [u.tolist() for u, _ in spy.lattices] == [[0.0, 0.3, 1.0]]
    # masses must sum to 1 within 1e-12, a NaN or infinite mass included
    for varpi in ([0.5, 0.4], [math.nan, 0.5], [math.inf, 0.5]):
        for cop in (spy, Product(), Comonotone(), one_param_frechet(0.5), Gaussian2(0.3)):
            with pytest.raises(ValueError, match="sum to"):
                transition_from_copula(cop, varpi)


def test_transition_extraction_levels_end_at_exactly_one():
    # 0.56 + 0.33 + 0.11 sums to 1 + 2^-52 in floating point
    spy = LatticeSpy()
    transition_from_copula(spy, [0.56, 0.33, 0.11])
    assert spy.lattices[0][0][-1] == 1.0 and spy.lattices[0][1][-1] == 1.0
    assert transition_from_copula(Gaussian2(0.3), [0.56, 0.33, 0.11])[0].shape == (3, 3)
    # a distribution propagated by this plan used to reach the copula as 1 + 2^-52
    dim = dependence_control([Gaussian2(0.21)] * 3, [0.05, 0.75, 0.2])
    for p in dim.transitions:
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_transition_extraction_printed_matrices():
    p_pos, _ = transition_from_copula(one_param_frechet(0.5), [0.3, 0.7])
    assert np.allclose(p_pos, [[0.4125, 0.5875], [0.2518, 0.7482]], atol=5e-5)
    p_neg, _ = transition_from_copula(one_param_frechet(-0.5), [0.3, 0.7])
    assert np.allclose(p_neg, [[0.2875, 0.7125], [0.3054, 0.6946]], atol=5e-5)


def test_transition_extraction_exact_families():
    varpi = np.array([0.2, 0.3, 0.5])
    p, nxt = transition_from_copula(Product(), varpi)
    assert np.array_equal(p, np.tile(varpi, (3, 1)))
    p, _ = transition_from_copula(Comonotone(), varpi)
    assert np.array_equal(p, np.eye(3))
    assert np.allclose(nxt, varpi)


@given(st.integers(0, 5_000))
@settings(max_examples=25)
def test_transition_extraction_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    varpi = rng.dirichlet(np.ones(n) * 3.0)
    varpi = np.clip(varpi, 0.02, None)
    varpi = varpi / varpi.sum()
    cop = [one_param_frechet(float(rng.uniform(-0.9, 0.9))), Gaussian2(float(rng.uniform(-0.9, 0.9)))][seed % 2]
    p, nxt = transition_from_copula(cop, varpi)
    assert np.all(p >= 0.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
    # the uniform second margin forces stationarity of the same marginal
    assert np.max(np.abs(varpi @ p - varpi)) < 1e-9
    assert np.allclose(nxt, varpi, atol=1e-9)


def test_transition_extraction_positive_dependence_monotone():
    # the weight balance w_m - w_w = alpha^3, so self-transition mass grows
    # with alpha on the positive half of the family; near alpha = 0^- the
    # quadratic product-weight term dominates, so no claim is made there
    alphas = np.linspace(0.0, 0.9, 7)
    p00 = [transition_from_copula(one_param_frechet(a), [0.3, 0.7])[0][0, 0] for a in alphas]
    assert all(x <= y + 1e-12 for x, y in zip(p00, p00[1:]))
    strong_neg = transition_from_copula(one_param_frechet(-0.9), [0.3, 0.7])[0][0, 0]
    assert strong_neg < p00[0] < p00[-1]


def test_countermonotone_extraction_is_still_stochastic():
    # any genuine copula yields nonnegative masses by 2-increasingness;
    # the extremal negative case routes all mass off the diagonal
    p, _ = transition_from_copula(Countermonotone(), [0.3, 0.7])
    assert p[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_transition_extraction_errors():
    with pytest.raises(ZeroMassState):
        transition_from_copula(Product(), [0.0, 1.0])
    # a grid "copula" violating 2-increasingness demands negative mass
    bad = GridCopula(np.array([[0.0, 0.0, 0.0], [0.0, 0.55, 0.5], [0.0, 0.5, 1.0]]))
    with pytest.raises(IncompatibleCopula):
        transition_from_copula(bad, [0.5, 0.5])
    nan_node = GridCopula(np.array([[0.0, 0.0, 0.0], [0.0, math.nan, 0.5], [0.0, 0.5, 1.0]]))
    with pytest.raises(IncompatibleCopula):
        transition_from_copula(nan_node, [0.5, 0.5])


def test_dependence_control_plan_consistency():
    dim0 = dependence_control([one_param_frechet(0.5)] * 2, np.array([0.3, 0.7]))
    dim1 = dependence_control([Product(), Comonotone()], np.array([0.5, 0.5]))
    assert len(dim0.transitions) == len(dim1.transitions) == 2
    # homogeneous copula with its stationary marginal: time-invariant matrices
    assert np.allclose(dim0.transitions[0], dim0.transitions[1], atol=1e-12)
    # varpi_0 pushed through both steps stays the stationary marginal
    w = dim0.initial
    for p in dim0.transitions:
        w = w @ p
    assert np.allclose(w, [0.3, 0.7], atol=1e-9)
