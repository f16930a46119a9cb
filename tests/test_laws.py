"""Increment-law transforms: closed forms, quadrature, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import count_calls
from mapq import laws as laws_module
from mapq.errors import MgfDiverged
from mapq.laws import (
    Constant,
    DiscretePmf,
    Negated,
    RayleighCapacity,
    Shifted,
    gaussian_quantized,
)


def test_constant_mgf_and_mean():
    law = Constant(2.0)
    assert law.mgf(1.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert law.mean() == 2.0
    assert law.tilted_mean(0.5) == pytest.approx(2.0 * math.exp(1.0), rel=1e-15)


def test_constant_overflow_raises():
    with pytest.raises(MgfDiverged):
        Constant(1.0).mgf(1e9)


def test_discrete_pmf_validation():
    with pytest.raises(ValueError):
        DiscretePmf((0.0, 1.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        DiscretePmf((1.0, 0.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        DiscretePmf((0.0, 1.0), (-0.1, 1.1))


def test_discrete_pmf_mgf_closed_form():
    law = DiscretePmf((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    theta = 0.7
    expected = 0.2 + 0.5 * math.exp(0.7) + 0.3 * math.exp(2.1)
    assert law.mgf(theta) == pytest.approx(expected, rel=1e-14)
    expected_tilted = 0.5 * math.exp(0.7) + 0.9 * math.exp(2.1)
    assert law.tilted_mean(theta) == pytest.approx(expected_tilted, rel=1e-14)


def test_discrete_pmf_sampler_frequencies():
    law = DiscretePmf((1.0, 2.0, 5.0), (0.25, 0.5, 0.25))
    rng = np.random.default_rng(0)
    x = law.sample(rng, 200_000)
    for value, prob in zip(law.support, law.probs):
        assert np.mean(x == value) == pytest.approx(prob, abs=5e-3)


@given(st.floats(-0.4, 0.4), st.floats(0.5, 5.0), st.floats(0.2, 2.0))
def test_tilted_mean_is_mgf_derivative(theta, mean, std):
    law = gaussian_quantized(mean, std, 48)
    h = 1e-6
    fd = (law.mgf(theta + h) - law.mgf(theta - h)) / (2.0 * h)
    assert law.tilted_mean(theta) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gaussian_quantized_matches_exact_gaussian_mgf():
    mean, std = 3.0, math.sqrt(2.0)
    law = gaussian_quantized(mean, std)
    for theta in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0):
        exact = math.exp(theta * mean + 0.5 * (std * theta) ** 2)
        assert law.mgf(theta) == pytest.approx(exact, rel=1e-12)
    assert law.mean() == pytest.approx(mean, abs=1e-12)


def test_rayleigh_capacity_mean_closed_form_vs_quadrature():
    law = RayleighCapacity(20.0, math.exp(0.5))
    # tilted_mean at 0 integrates E[X] numerically; mean() is the closed form
    assert law.mean() == pytest.approx(law.tilted_mean(0.0), rel=1e-9)
    assert law.mgf(0.0) == pytest.approx(1.0, rel=1e-10)


def test_rayleigh_capacity_mgf_monotone_in_snr():
    lo = RayleighCapacity(20.0, 1.0)
    hi = RayleighCapacity(20.0, 10.0)
    assert hi.mgf(0.05) > lo.mgf(0.05)
    assert hi.mgf(-0.05) < lo.mgf(-0.05)


def test_rayleigh_capacity_sampling_mean():
    law = RayleighCapacity(20.0, math.exp(0.5))
    rng = np.random.default_rng(1)
    x = law.sample(rng, 400_000)
    assert x.mean() == pytest.approx(law.mean(), rel=5e-3)


def test_negated_and_shifted_wrappers():
    base = DiscretePmf((1.0, 2.0), (0.5, 0.5))
    neg = Negated(base)
    assert neg.mgf(0.3) == pytest.approx(base.mgf(-0.3), rel=1e-15)
    assert neg.mean() == pytest.approx(-base.mean(), rel=1e-15)
    sh = Shifted(base, 4.0)
    assert sh.mgf(0.3) == pytest.approx(math.exp(1.2) * base.mgf(0.3), rel=1e-14)
    assert sh.mean() == pytest.approx(base.mean() + 4.0, rel=1e-12)
    rng = np.random.default_rng(2)
    assert np.all(neg.sample(rng, 100) < 0)
    assert np.all(sh.sample(rng, 100) >= 5.0)


def test_rayleigh_transforms_are_memoized_per_law_object(monkeypatch):
    calls = count_calls(monkeypatch, laws_module, "quad")
    law = RayleighCapacity(20.0, 10.0)
    mgf, tilted = law.mgf(0.3), law.tilted_mean(0.3)
    assert len(calls) == 4  # two quad integrals per transform
    assert law.mgf(0.3) == mgf and law.tilted_mean(0.3) == tilted
    assert Negated(law).mgf(-0.3) == mgf
    assert len(calls) == 4
    # a value-equal law built separately shares nothing and integrates again
    twin = RayleighCapacity(20.0, 10.0)
    assert twin == law and hash(twin) == hash(law)
    assert twin.mgf(0.3) == mgf and twin.tilted_mean(0.3) == tilted
    assert len(calls) == 8


def test_rayleigh_memo_keeps_no_failure_and_stays_bounded(monkeypatch):
    calls = count_calls(monkeypatch, laws_module, "quad")
    law = RayleighCapacity(20.0, 10.0)
    for expected in (2, 4):
        with pytest.raises(MgfDiverged):
            law.mgf(5.0)
        assert len(calls) == expected
    assert law._memo == {}
    monkeypatch.setattr(laws_module, "_MEMO_LIMIT", 3)
    for theta in (0.01, 0.02, 0.03, 0.04, 0.05):
        law.mgf(theta)
        assert len(law._memo) <= 3
    assert law.mgf(0.05) == RayleighCapacity(20.0, 10.0).mgf(0.05)
