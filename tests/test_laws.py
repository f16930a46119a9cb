"""Increment-law transforms: closed forms, the Rayleigh rule, and sampling."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expn, gamma, gammaincc, gammaln

from conftest import at, quadratures, rayleigh_mean
from mapq import counters
from mapq import laws as laws_module
from mapq.errors import MgfDiverged
from mapq.laws import (
    Constant,
    DiscretePmf,
    InverseCdf,
    LawStack,
    Negated,
    RayleighCapacity,
    Shifted,
    gaussian_quantized,
)
from mapq.spectral import perron, single_state_kernel


def test_constant_mgf_and_mean():
    law = Constant(2.0)
    assert at(law.mgf, 1.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert at(law.tilted_mean, 0.0) == 2.0
    assert at(law.tilted_mean, 0.5) == pytest.approx(2.0 * math.exp(1.0), rel=1e-15)


def test_constant_overflow_is_inf():
    assert at(Constant(1.0).mgf, 1e9) == math.inf


def test_a_constant_is_a_one_atom_pmf():
    law = Constant(2.5)
    assert isinstance(law, DiscretePmf)
    assert law.support == (2.5,) and law.probs == (1.0,)


@pytest.mark.parametrize("v", [0.0, 3.0, -2.0, 2.5])
def test_constant_transforms_are_the_closed_forms_bit_for_bit(v):
    # e^{theta v} overflows and underflows at the ends of thetas
    thetas = np.array([-1e3, -400.0, -1.0, 0.0, 0.7, 1.0, 400.0, 1e3])
    with np.errstate(over="ignore"):
        mgf, tilted = np.exp(thetas * v), v * np.exp(thetas * v)
    law = Constant(v)
    assert law.mgf(thetas).tobytes() == mgf.tobytes()
    # + 0.0 turns the -0.0 of an underflowed negative v into +0.0 and leaves
    # every other value alone (see the next test)
    assert law.tilted_mean(thetas).tobytes() == (tilted + 0.0).tobytes()


def test_an_underflowed_tilted_mean_of_a_negative_constant_is_plus_zero():
    theta = np.array([400.0])
    assert np.signbit(-2.0 * np.exp(theta * -2.0))  # the one term is -0.0
    value = Constant(-2.0).tilted_mean(theta)
    assert value.tolist() == [0.0] and not np.signbit(value).any()


@pytest.mark.parametrize("law", [Constant(2.5), DiscretePmf((4.0,), (1.0,))],
                         ids=["constant", "one-atom-pmf"])
def test_a_one_atom_law_samples_without_drawing(law):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    x = law.sample(rng, 4)
    assert x.dtype == np.float64 and x.tolist() == [law.support[0]] * 4
    assert rng.bit_generator.state == state


def test_discrete_pmf_keeps_read_only_copies_of_the_arrays_it_is_built_from():
    support, probs = np.array([0.0, 1.0]), np.array([0.25, 0.75])
    law = DiscretePmf(support, probs)
    assert support.flags.writeable and probs.flags.writeable
    assert "_arrays" in vars(law)  # set on construction
    assert not any(a.flags.writeable for a in law._arrays)
    support[0] = -1.0
    assert law._arrays[0].tolist() == [0.0, 1.0] and law.support == (0.0, 1.0)


# one law of each class, with a theta at which its transforms diverge
DIVERGING = {
    "constant": (Constant(2.0), 1e9),
    "discrete-pmf": (DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3)), 1e3),
    "rayleigh": (RayleighCapacity(20.0, 10.0), 5.0),
    "negated": (Negated(RayleighCapacity(20.0, 10.0)), -5.0),
    "shifted": (Shifted(gaussian_quantized(1.0, 0.5, 48), 4.0), 200.0),
}


@pytest.mark.parametrize("name", DIVERGING)
def test_a_diverging_theta_is_non_finite_and_leaves_the_others_alone(name):
    law, diverging = DIVERGING[name]
    thetas = np.array([-0.5, 0.0, diverging, 0.02, 0.3])
    for kind in ("mgf", "tilted_mean"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor does it warn
            values = getattr(law, kind)(thetas)
        assert values.shape == thetas.shape
        assert not np.isfinite(values[2])
        for theta, value in zip(np.delete(thetas, 2), np.delete(values, 2)):
            assert math.isfinite(value) and value == at(getattr(law, kind), theta)


def test_shifted_transforms_stay_quiet_where_the_shift_factor_underflows():
    # e^{-1.5 * 800} underflows to 0 against an infinite inner transform
    law = Shifted(DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3)), -1.5)
    inner = law.inner
    thetas = np.array([800.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mgf, tilted = law.mgf(thetas), law.tilted_mean(thetas)
        with pytest.raises(MgfDiverged):
            perron(single_state_kernel(law), 800.0)
    assert not np.isfinite(mgf[0]) and not np.isfinite(tilted[0])
    shift = math.exp(-1.5)
    assert mgf[1] == pytest.approx(shift * at(inner.mgf, 1.0), rel=1e-15)
    expected = shift * (at(inner.tilted_mean, 1.0) - 1.5 * at(inner.mgf, 1.0))
    assert tilted[1] == pytest.approx(expected, rel=1e-15)


def test_discrete_pmf_validation():
    with pytest.raises(ValueError):
        DiscretePmf((0.0, 1.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        DiscretePmf((1.0, 0.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        DiscretePmf((0.0, 1.0), (-0.1, 1.1))
    with pytest.raises(ValueError, match="equal length"):
        DiscretePmf((0, 1), (1,))


@pytest.mark.parametrize("make", [
    lambda: Constant(math.nan),
    lambda: Constant(-math.inf),
    lambda: DiscretePmf((0.0, math.nan), (0.5, 0.5)),
    lambda: DiscretePmf((0.0, 1.0), (math.nan, 0.5)),
    lambda: Shifted(Constant(1.0), math.inf),
    lambda: RayleighCapacity(math.nan, 10.0),
    lambda: RayleighCapacity(math.inf, 10.0),
    lambda: gaussian_quantized(math.nan, 1.0),
    lambda: gaussian_quantized(1.0, math.inf),
], ids=["constant-nan", "constant-minus-inf", "support-nan", "probs-nan", "offset-inf",
        "bandwidth-nan", "bandwidth-inf", "normal-mean-nan", "normal-std-inf"])
def test_non_finite_law_parameters_are_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_discrete_pmf_mgf_closed_form():
    law = DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    theta = 0.7
    expected = 0.2 + 0.5 * math.exp(0.7) + 0.3 * math.exp(2.1)
    assert at(law.mgf, theta) == pytest.approx(expected, rel=1e-14)
    expected_tilted = 0.5 * math.exp(0.7) + 0.9 * math.exp(2.1)
    assert at(law.tilted_mean, theta) == pytest.approx(expected_tilted, rel=1e-14)


def test_discrete_pmf_sampler_frequencies():
    law = DiscretePmf((1.0, 2.0, 5.0), (0.25, 0.5, 0.25))
    rng = np.random.default_rng(0)
    x = law.sample(rng, 200_000)
    for value, prob in zip(law.support, law.probs):
        assert np.mean(x == value) == pytest.approx(prob, abs=5e-3)


class _TopUniforms:
    """Generator stub: every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


def test_discrete_pmf_sample_lands_on_the_last_point_whatever_the_sum_rounds_to():
    # the probabilities sum to 1 -/+ 1e-13, inside the 1e-12 tolerance
    for last in (0.3 - 1e-13, 0.3 + 1e-13):
        law = DiscretePmf((1.0, 2.0, 5.0), (0.3, 0.4, last))
        assert law.sample(_TopUniforms(), 3).tolist() == [5.0, 5.0, 5.0]


def test_discrete_pmf_never_draws_an_atom_of_probability_zero():
    # the positive atoms sum to about 1 - 1e-12 and the atoms after them have
    # probability 0: a uniform above that sum lands on the last positive atom,
    # both where the CDF is counted (3 points) and where it is guided (12)
    counted = DiscretePmf((0.0, 1.0, 2.0), (0.5, 0.5 - 1e-12, 0.0))
    assert counted.sample(_TopUniforms(), 3).tolist() == [1.0, 1.0, 1.0]
    guided = DiscretePmf(tuple(range(12)), (0.1,) * 8 + (0.2 - 5e-13, 0.0, 0.0, 0.0))
    assert guided.sample(_TopUniforms(), 3).tolist() == [8.0, 8.0, 8.0]


@st.composite
def _pmf_probs(draw):
    """Probabilities of 2 to 120 points, short (counted) and long (guided),
    some with zero-probability atoms (repeated CDF values), some scaled to
    sum to about 1 - 1e-12."""
    m = draw(st.one_of(st.integers(2, laws_module._COUNTED_POINTS),
                       st.integers(laws_module._COUNTED_POINTS + 1, 120)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.full(m, draw(st.sampled_from([0.05, 1.0, 5.0]))))
    if draw(st.booleans()):
        p[rng.random(m) < 0.3] = 0.0
        p[rng.integers(m)] += 1e-3
        p /= p.sum()
    if draw(st.booleans()):  # the sum of its rounded terms must stay inside 1e-12 of 1
        p *= (1.0 - 0.999e-12) / p.sum()
    return p


@given(_pmf_probs(), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_inverse_cdf_is_searchsorted_on_the_right(probs, seed):
    # u at every CDF point and its neighbours, cell edges of the guide table,
    # and random draws, all in [0, 1)
    law = DiscretePmf(tuple(np.arange(len(probs), dtype=float)), tuple(probs))
    cdf = law._cdf
    u = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        np.arange(1024) / 1024, np.random.default_rng(seed).random(2000)))
    u = u[u < 1.0]
    index = InverseCdf(cdf)(u)
    assert index.tolist() == np.searchsorted(cdf, u, side="right").tolist()
    # sample draws one uniform per value and returns the support point it inverts to
    x = law.sample(np.random.default_rng(seed), 500)
    u = np.random.default_rng(seed).random(500)
    assert x.tolist() == [law.support[i] for i in np.searchsorted(cdf, u, side="right")]


def test_discrete_pmf_sum_message_names_a_plain_number():
    with pytest.raises(ValueError) as err:
        DiscretePmf((1.0, 2.0), (0.5, 0.6))
    assert str(err.value) == "probabilities sum to 1.1, not 1"


@given(st.floats(-0.4, 0.4), st.floats(0.5, 5.0), st.floats(0.2, 2.0))
def test_tilted_mean_is_mgf_derivative(theta, mean, std):
    law = gaussian_quantized(mean, std, 48)
    h = 1e-6
    fd = (at(law.mgf, theta + h) - at(law.mgf, theta - h)) / (2.0 * h)
    assert at(law.tilted_mean, theta) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gaussian_quantized_matches_exact_gaussian_mgf():
    mean, std = 3.0, math.sqrt(2.0)
    law = gaussian_quantized(mean, std)
    for theta in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0):
        exact = math.exp(theta * mean + 0.5 * (std * theta) ** 2)
        assert at(law.mgf, theta) == pytest.approx(exact, rel=1e-12)
    assert at(law.tilted_mean, 0.0) == pytest.approx(mean, abs=1e-12)


def test_rayleigh_capacity_mean_closed_form_vs_quadrature():
    law = RayleighCapacity(20.0, math.exp(0.5))
    # tilted_mean at 0 integrates E[X] numerically; rayleigh_mean is the closed form
    assert rayleigh_mean(20.0, math.exp(0.5)) == pytest.approx(at(law.tilted_mean, 0.0),
                                                               rel=1e-9)
    assert at(law.mgf, 0.0) == pytest.approx(1.0, rel=1e-10)


def test_rayleigh_capacity_mgf_monotone_in_snr():
    lo = RayleighCapacity(20.0, 1.0)
    hi = RayleighCapacity(20.0, 10.0)
    assert at(hi.mgf, 0.05) > at(lo.mgf, 0.05)
    assert at(hi.mgf, -0.05) < at(lo.mgf, -0.05)


def test_rayleigh_capacity_sampling_mean():
    law = RayleighCapacity(20.0, math.exp(0.5))
    rng = np.random.default_rng(1)
    x = law.sample(rng, 400_000)
    assert x.mean() == pytest.approx(rayleigh_mean(20.0, math.exp(0.5)), rel=5e-3)


def test_negated_and_shifted_wrappers():
    base = DiscretePmf((1.0, 2.0), (0.5, 0.5))
    neg = Negated(base)
    assert at(neg.mgf, 0.3) == pytest.approx(at(base.mgf, -0.3), rel=1e-15)
    assert at(neg.tilted_mean, 0.0) == pytest.approx(-at(base.tilted_mean, 0.0), rel=1e-15)
    sh = Shifted(base, 4.0)
    assert at(sh.mgf, 0.3) == pytest.approx(math.exp(1.2) * at(base.mgf, 0.3), rel=1e-14)
    assert at(sh.tilted_mean, 0.0) == pytest.approx(at(base.tilted_mean, 0.0) + 4.0,
                                                    rel=1e-12)
    rng = np.random.default_rng(2)
    assert np.all(neg.sample(rng, 100) < 0)
    assert np.all(sh.sample(rng, 100) >= 5.0)


def test_rayleigh_call_integrates_once_and_is_inf_on_overflow():
    law = RayleighCapacity(20.0, 10.0)
    done = counters.tally()
    assert at(law.mgf, 0.3) == at(law.mgf, 0.3)
    # one integration of the one law per call; the law keeps no values
    assert quadratures(done) == (2, 2)
    assert at(law.mgf, 5.0) == math.inf
    assert quadratures(done) == (3, 3)


RAYLEIGH_SNRS = [0.01, 0.3, 1.0, 10.0, 300.0, 1e4, 1e6]


@pytest.mark.parametrize("snr", RAYLEIGH_SNRS)
def test_rayleigh_mgf_matches_exponential_integral_closed_form(snr):
    # at bandwidth ln 2 the exponent n = theta W / ln 2 is theta itself, and for
    # n = -k the MGF E[(1 + snr G)^-k] is (1/snr) e^{1/snr} E_k(1/snr)
    law = RayleighCapacity(math.log(2.0), snr)
    for k in (1, 3, 10, 30, 100):
        closed = (1.0 / snr) * math.exp(1.0 / snr) * expn(k, 1.0 / snr)
        assert at(law.mgf, -float(k)) == pytest.approx(closed, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("snr", RAYLEIGH_SNRS)
def test_rayleigh_mgf_matches_incomplete_gamma_closed_form(snr):
    # E[(1 + snr G)^n] = snr^n e^{1/snr} Gamma(n + 1, 1/snr); it must be inf
    # exactly where that exceeds the largest double
    law = RayleighCapacity(math.log(2.0), snr)
    for n in (-0.5, 0.5, 1.4, 5.0, 20.0, 60.0):
        upper = gammaincc(n + 1.0, 1.0 / snr)
        log_value = n * math.log(snr) + 1.0 / snr + gammaln(n + 1.0) + math.log(upper)
        if log_value > math.log(sys.float_info.max):
            assert at(law.mgf, n) == math.inf
            continue
        closed = snr ** n * math.exp(1.0 / snr) * gamma(n + 1.0) * upper
        assert at(law.mgf, n) == pytest.approx(closed, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("snr", RAYLEIGH_SNRS)
def test_rayleigh_tilted_mean_at_zero_is_the_closed_form_mean(snr):
    law = RayleighCapacity(20.0, snr)
    assert at(law.tilted_mean, 0.0) == pytest.approx(rayleigh_mean(20.0, snr), rel=1e-13)


@pytest.mark.parametrize("snr", [1e-3, 1e-6])
def test_rayleigh_mean_below_minus_28_db(snr):
    # e^{1/snr} overflows a double here while E1(1/snr) underflows; the mean
    # (W/ln2) e^x E1(x), x = 1/snr, has the asymptotic series
    # (W/ln2) sum_k (-1)^k k! snr^{k+1}, whose terms after k = 5 are below 1e-15
    law = RayleighCapacity(20.0, snr)
    series = sum((-1) ** k * math.factorial(k) * snr ** (k + 1) for k in range(6))
    assert rayleigh_mean(20.0, snr) == pytest.approx(20.0 / math.log(2.0) * series, rel=1e-14)
    assert rayleigh_mean(20.0, snr) == pytest.approx(at(law.tilted_mean, 0.0), rel=1e-13)


def test_rayleigh_array_call_equals_the_scalar_calls():
    thetas = np.array([-3.0, -0.4, -0.05, 0.0, 0.02, 0.3, 5.0])
    for snr in (0.5, 40.0, 2e3):
        law = RayleighCapacity(20.0, snr)
        for kind in ("mgf", "tilted_mean"):
            values = getattr(law, kind)(thetas)
            assert values.shape == thetas.shape
            for theta, value in zip(thetas, values):
                # a one-theta call of a fresh law gives the same double, and
                # the same non-finite mark at a diverged theta
                scalar = getattr(RayleighCapacity(20.0, snr), kind)
                assert np.array_equal([at(scalar, theta)], [value], equal_nan=True)


def _certifying_step(law, theta, tilted):
    """The quadrature step at which the law's transform at theta certifies (or stops)."""
    levels = []

    def nodes(level):
        levels.append(level)
        return law._stack._level_nodes(level)

    laws_module._capacity_integrals(np.array([[theta * law.bandwidth / math.log(2.0)]]),
                                    nodes, tilted)
    return levels[-1]


def _assert_rows_are_the_laws_own(laws, thetas):
    """Each row of the stack's transforms equals its law's own call: equal as
    doubles (so bit for bit, no value being zero), NaN at the same pairs."""
    stack = LawStack(laws)
    for kind in ("mgf", "tilted_mean"):
        rows = stack.transform(kind, thetas)
        assert rows.shape == (len(laws), len(thetas))
        for row, law in zip(rows, laws):
            assert np.array_equal(row, getattr(law, kind)(thetas), equal_nan=True)
    return stack


def test_rayleigh_stack_equals_the_per_law_quadrature():
    rng = np.random.default_rng(14)
    laws = [RayleighCapacity(bandwidth, 10.0 ** rng.uniform(-4.0, 7.0))
            for bandwidth in (1.0, 20.0, math.log(2.0), 3.7, 20.0, 180.0, 20.0, 1.0)]
    # both signs of theta, each theta also negated (a stack at -theta is how
    # a negated service is evaluated), and exponents from a few thousandths
    # to past overflow
    thetas = np.concatenate([rng.uniform(-4.0, 4.0, 40), [-1e-3, 0.0, 2e-3]])
    _assert_rows_are_the_laws_own(laws, thetas)
    _assert_rows_are_the_laws_own(laws, -thetas)
    # the stack's pairs certify at different steps
    steps = {_certifying_step(law, theta, tilted)
             for law in laws for theta in thetas[::4] for tilted in (False, True)}
    assert len(steps) >= 3


def test_rayleigh_stack_pairs_certify_at_their_own_steps():
    # one law needs a finer step at every theta than the other (found by
    # _certifying_step), so each column holds pairs certified at different steps
    laws = (RayleighCapacity(20.0, 1e-4), RayleighCapacity(20.0, 10.0))
    thetas = np.array([-2.0, 0.4, 1.0, 3.0])
    for theta in thetas:
        assert _certifying_step(laws[0], theta, False) != _certifying_step(laws[1], theta, False)
    _assert_rows_are_the_laws_own(laws, thetas)
    _assert_rows_are_the_laws_own(laws[::-1], thetas[::-1])


def test_rayleigh_stack_keeps_a_nan_and_an_overflowed_pair_apart():
    laws = (RayleighCapacity(20.0, 10.0), RayleighCapacity(5.0, 0.3))
    thetas = np.array([0.3, np.nan, 10.0, -50.0, 50.0])
    stack = _assert_rows_are_the_laws_own(laws, thetas)
    mgf = stack.transform("mgf", thetas)
    # a NaN theta never certifies; theta = 10 overflows the first law alone,
    # and 50 both, which every other pair survives
    assert np.isnan(mgf[:, 1]).all()
    assert mgf[0, 2] == math.inf and (mgf[:, 4] == math.inf).all()
    assert np.isfinite(mgf[:, [0, 3]]).all() and np.isfinite(mgf[1, 2])


def _one_law_nodes(snr, step):
    """The nodes of one law at quadrature step `step`, evaluated one law at a
    time: the oracle of LawStack's node rows."""
    x = 1.0 / snr
    s1 = math.log1p(snr)
    t = laws_module._de_ts(*laws_module._DE_T[0], step)
    u = 0.5 * math.pi * np.sinh(t)
    tau = 1.0 / (1.0 + np.exp(-2.0 * u))
    log_w = np.log(s1 * math.pi * np.cosh(t) * tau) - np.log1p(np.exp(2.0 * u))
    s = s1 * tau
    lg, c = [s], [s + math.log(x) - x * np.expm1(s) + log_w]
    t = laws_module._de_ts(*laws_module._DE_T[1], step)
    u = 0.5 * math.pi * np.sinh(t)
    g = 1.0 + np.exp(u)
    lg.append(np.log1p(snr * g))
    c.append(u + np.log(0.5 * math.pi * np.cosh(t)) - g)
    return np.concatenate(lg), np.concatenate(c)


def test_stack_nodes_are_each_laws_own_bit_for_bit():
    snrs = (1e-30, 1e-4, 1.0, 300.0, 1e7)
    stack = LawStack([RayleighCapacity(20.0, snr) for snr in snrs])
    steps = len(laws_module._DE_STEPS)
    # level k holds the nodes that step k adds, and nothing else
    for level in range(steps):
        rows = stack._level_nodes(level)
        for l, snr in enumerate(snrs):
            for got, want in zip(rows, _one_law_nodes(snr, level)):
                assert got[l].tobytes() == want.tobytes()
    assert len(stack._nodes) == steps


def test_a_stack_of_every_law_class_is_each_laws_own_bit_for_bit():
    pmf = DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    laws = (pmf, Constant(2.0), Shifted(pmf, 0.5), Negated(RayleighCapacity(5.0, 0.3)),
            RayleighCapacity(20.0, 10.0), RayleighCapacity(20.0, 3.0))
    stack = LawStack(laws)
    thetas = np.array([-0.7, 0.0, 0.3, 800.0])  # every law but the negated one diverges at 800
    for kind in ("mgf", "tilted_mean"):
        done = counters.tally()
        rows = stack.transform(kind, thetas)
        # one quadrature for both plain Rayleigh rows, and one for the
        # negated law's inner law, which integrates on its own one-law stack
        assert quadratures(done) == (2, 3)
        for row, law in zip(rows, laws):
            assert row.tobytes() == getattr(law, kind)(thetas).tobytes()
        assert not np.isfinite(rows[:, -1]).all() and np.isfinite(rows[3]).all()
