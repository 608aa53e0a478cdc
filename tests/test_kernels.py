import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from parkde.kernels import Kernel, from_name
from parkde.quadrature import Grid, integrate

SQRT_PI = math.sqrt(math.pi)


def test_gaussian_constants():
    k = from_name("gaussian")
    assert k(0.0) == pytest.approx(0.3989423, abs=5e-8)
    assert k.moment(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert k.k2 == pytest.approx(1.0, rel=1e-12)
    assert k.moment(3) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
    assert k.roughness == pytest.approx(1.0 / (2.0 * SQRT_PI), rel=1e-12)
    assert k.roughness == pytest.approx(0.2820948, abs=5e-8)


def test_epanechnikov_constants():
    k = from_name("epanechnikov")
    assert k(0.0) == pytest.approx(0.75, rel=1e-12)
    assert k(1.0) == 0.0
    assert k(1.5) == 0.0
    # |t|, t^2, |t|^3 moments of (3/4)(1 - t^2) on [-1, 1]
    assert k.moment(1) == pytest.approx(0.375, rel=1e-12)
    assert k.k2 == pytest.approx(0.2, rel=1e-12)
    assert k.moment(3) == pytest.approx(0.125, rel=1e-12)
    assert k.roughness == pytest.approx(0.6, rel=1e-12)


def test_from_name_is_cached_and_validates():
    assert from_name("gaussian") is from_name("gaussian")
    with pytest.raises(ValueError):
        from_name("tricube")


def test_kernel_integrates_to_one():
    # support-fitted grids keep the epanechnikov kink on a grid node
    for name, g in (
        ("gaussian", Grid(-9.0, 9.0, 4001)),
        ("epanechnikov", Grid(-1.0, 1.0, 4001)),
    ):
        k = from_name(name)
        assert integrate(k, g) == pytest.approx(1.0, abs=1e-9)


@given(st.floats(-8.0, 8.0))
def test_kernel_symmetry(t):
    for name in ("gaussian", "epanechnikov"):
        k = from_name(name)
        assert k(t) == pytest.approx(k(-t), abs=1e-15)


def test_gaussian_derivatives_match_finite_differences():
    k = from_name("gaussian")
    eps = 1e-5
    for t in (-1.7, -0.3, 0.0, 0.9, 2.4):
        fd1 = (k(t + eps) - k(t - eps)) / (2 * eps)
        fd2 = (k(t + eps) - 2 * k(t) + k(t - eps)) / eps**2
        assert k.deriv(t, 1) == pytest.approx(fd1, abs=1e-9)
        assert k.deriv(t, 2) == pytest.approx(fd2, abs=1e-5)


def test_epanechnikov_rejects_derivatives():
    k = from_name("epanechnikov")
    assert not k.smooth
    with pytest.raises(ValueError):
        k.deriv(0.3, 2)


def test_gaussian_autocorrelation_closed_form():
    # K_2(z) = exp(-z^2/4) / (2 sqrt(pi)) for the gaussian kernel
    k = from_name("gaussian")
    for z in (0.0, 0.5, 1.0, 2.5):
        expected = math.exp(-z * z / 4.0) / (2.0 * SQRT_PI)
        assert k.autocorrelation(z) == pytest.approx(expected, rel=1e-10)


def test_epanechnikov_autocorrelation_frozen_values():
    # 3 (2-|z|)^3 (z^2 + 6|z| + 4) / 160 on |z| <= 2, checked against a
    # brute-force convolution of the kernel with itself
    k = from_name("epanechnikov")
    assert k.autocorrelation(0.0) == pytest.approx(0.6, rel=1e-12)
    assert k.autocorrelation(0.5) == pytest.approx(0.458789062500, rel=1e-9)
    assert k.autocorrelation(1.0) == pytest.approx(0.206250000000, rel=1e-9)
    assert k.autocorrelation(2.0) == 0.0
    assert k.autocorrelation(2.3) == 0.0


@pytest.mark.parametrize("name", ["gaussian", "epanechnikov"])
def test_autocorrelation_matches_numeric_convolution(name):
    k = from_name(name)
    g = Grid(-9.0, 9.0, 16001)
    for z in (0.0, 0.4, 1.3):
        direct = integrate(lambda s: k(s) * k(s - z), g)
        # simpson converges slowly across the epanechnikov kinks
        assert k.autocorrelation(z) == pytest.approx(direct, abs=2e-6)


def test_autocorrelation_at_zero_is_roughness():
    for name in ("gaussian", "epanechnikov"):
        k = from_name(name)
        assert k.autocorrelation(0.0) == pytest.approx(k.roughness, rel=1e-12)


def test_kernel_method_accessors():
    k = from_name("gaussian")
    assert k(0.0) == 1.0 / math.sqrt(2.0 * math.pi)
    assert k.moment(2) == k.k2
    assert k.autocorrelation(0.7) == math.exp(-0.25 * 0.49) / (2.0 * SQRT_PI)


def test_moment_order_bounds():
    k = from_name("gaussian")
    with pytest.raises(ValueError):
        k.moment(4)
    with pytest.raises(ValueError):
        k.moment(-1)
