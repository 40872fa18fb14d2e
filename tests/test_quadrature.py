import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import fresnel

from mfklab.quadrature import beta_half_half_quad, sqrt_tau_rule, trapezoid_weights


def test_trapezoid_weights_integrate_linear():
    w = trapezoid_weights(11, 0.1)
    x = np.linspace(0, 1, 11)
    assert np.dot(w, 2 * x + 1) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
def test_beta_identity(delta):
    # int_0^d dw / sqrt((d - w) w) = B(1/2, 1/2) = pi, for every interval length
    assert abs(beta_half_half_quad(delta) - math.pi) <= 1e-14


def test_sqrt_singular_upper_closed_forms():
    # int_0^1 ds / sqrt(1 - s) = 2 and int_0^1 s ds / sqrt(1 - s) = 4/3, in tau = 1 - s
    w, wt = sqrt_tau_rule(0.0, 1.0)
    tau = w * w
    assert np.dot(wt, 1.0 / np.sqrt(tau)) == pytest.approx(2.0, abs=1e-14)
    assert np.dot(wt, (1.0 - tau) / np.sqrt(tau)) == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_sqrt_singular_lower_matches_upper_by_symmetry():
    # int_0^2 cos(s) / sqrt(2 - s) ds in tau = 2 - s against int_0^2 cos(2 - s) / sqrt(s) ds
    # in tau = s: one integral, and its Fresnel closed form
    w, wt = sqrt_tau_rule(0.0, np.sqrt(2.0))
    s = 2.0 - w * w
    up = np.dot(wt, np.cos(s) / np.sqrt(2.0 - s))
    s = w * w
    lo = np.dot(wt, np.cos(2.0 - s) / np.sqrt(s))
    assert up == pytest.approx(lo, abs=1e-9)
    S, C = fresnel(2.0 / np.sqrt(np.pi))
    assert lo == pytest.approx(np.sqrt(2.0 * np.pi) * (np.cos(2.0) * C + np.sin(2.0) * S),
                               abs=1e-13)


def test_sqrt_tau_rule_takes_arrays_of_bounds():
    # one call over the pieces [0, 1], [1, 2], [2, 4] of tau is three calls
    lo, hi = np.sqrt([0.0, 1.0, 2.0]), np.sqrt([1.0, 2.0, 4.0])
    w, wt = sqrt_tau_rule(lo, hi)
    assert w.shape == wt.shape == (3, 32)
    for i in range(3):
        w_i, wt_i = sqrt_tau_rule(lo[i], hi[i])
        assert np.array_equal(w[i], w_i) and np.array_equal(wt[i], wt_i)
    assert np.all((w > lo[:, None]) & (w < hi[:, None]))  # interior nodes only
    assert wt.sum() == pytest.approx(4.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_sqrt_singular_polynomial_oracle(a, b):
    # int_0^1 (a + b s)/sqrt(1-s) ds = 2a + 4b/3, in tau = 1 - s
    w, wt = sqrt_tau_rule(0.0, 1.0)
    s = 1.0 - w * w
    val = np.dot(wt, (a + b * s) / np.sqrt(1.0 - s))
    assert val == pytest.approx(2.0 * a + 4.0 * b / 3.0, abs=1e-12)
