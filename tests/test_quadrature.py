import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfklab.quadrature import (
    beta_half_half_quad,
    simpson_weights,
    sqrt_singular_quad,
    trapezoid_weights,
)


def test_trapezoid_weights_integrate_linear():
    w = trapezoid_weights(11, 0.1)
    x = np.linspace(0, 1, 11)
    assert np.dot(w, 2 * x + 1) == pytest.approx(2.0, abs=1e-14)


def test_simpson_weights_exact_on_cubics():
    w = simpson_weights(9, 0.125)
    x = np.linspace(0, 1, 9)
    assert np.dot(w, x**3) == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(ValueError):
        simpson_weights(8, 0.1)


@pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
def test_beta_identity(delta):
    # int_0^d dw / sqrt((d - w) w) = B(1/2, 1/2) = pi, for every interval length
    assert abs(beta_half_half_quad(delta) - math.pi) <= 1e-6


def test_sqrt_singular_upper_closed_forms():
    val = sqrt_singular_quad(lambda s: 1.0 / np.sqrt(1.0 - s), 0.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-10)
    val = sqrt_singular_quad(lambda s: s / np.sqrt(1.0 - s), 0.0, 1.0)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-7)


def test_sqrt_singular_lower_matches_upper_by_symmetry():
    up = sqrt_singular_quad(lambda s: np.cos(s) / np.sqrt(2.0 - s), 0.0, 2.0, singular="upper")
    lo = sqrt_singular_quad(lambda s: np.cos(2.0 - s) / np.sqrt(s), 0.0, 2.0, singular="lower")
    assert up == pytest.approx(lo, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_sqrt_singular_polynomial_oracle(a, b):
    # int_0^1 (a + b s)/sqrt(1-s) ds = 2a + 4b/3
    val = sqrt_singular_quad(lambda s: (a + b * s) / np.sqrt(1.0 - s), 0.0, 1.0)
    assert val == pytest.approx(2.0 * a + 4.0 * b / 3.0, abs=1e-6)

