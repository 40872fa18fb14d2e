import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfklab.problems import (
    GaussianDensity,
    ProblemSpec,
    apply_generator,
    check_constants,
    preset,
    smooth_test_functions,
)


def test_generator_quadratic():
    prob = preset("heat", nu=1.0)
    phi = lambda x: float(np.sum(np.asarray(x) ** 2))
    assert apply_generator(prob, phi, 0.3, 0.5) == pytest.approx(1.0, abs=1e-5)


def test_generator_pure_drift():
    prob = ProblemSpec("drifted", 1.0, 1.0,
                       b=lambda t, x, z: np.zeros_like(np.asarray(z, dtype=float)),
                       Lambda=lambda t, x, z: np.zeros_like(np.asarray(z, dtype=float)),
                       u0=GaussianDensity(), M_b=0, M_Lambda=0, L_b=0, L_Lambda=0,
                       z_max=1.0, b0=1.0)
    phi = lambda x: float(np.sum(np.asarray(x)))
    # second derivative vanishes, drift term contributes phi' = 1
    assert apply_generator(prob, phi, 0.0, 2.0) == pytest.approx(1.0, abs=1e-6)


def test_heat_preset_constants():
    prob = preset("heat", u0_var=0.04)
    assert (prob.M_b, prob.M_Lambda, prob.L_b, prob.L_Lambda) == (0, 0, 0, 0)
    x = np.linspace(-1, 1, 5)
    assert np.all(prob.b(0.1, x, x) == 0)


def test_burgers_preset_drift():
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    z = np.array([-10.0, -1.0, 0.0, 2.0, 10.0])
    vals = prob.b(0.0, z, z)
    clipped = np.clip(z, -prob.z_max, prob.z_max)
    assert np.allclose(vals, clipped / 2.0)
    assert prob.M_b == pytest.approx(prob.z_max / 2.0)
    assert prob.L_b == 0.5
    # default ceiling is twice the dominated sup of the initial density
    assert prob.z_max == pytest.approx(2.0 * prob.u0.max_value * math.sqrt(2.0), rel=1e-6)


def test_exponential_growth_preset():
    prob = preset("exponential_growth", lam=0.5)
    z = np.linspace(-3, 3, 7)
    assert np.all(prob.Lambda(0.2, z, z) == 0.5)
    assert prob.M_Lambda == 0.5
    assert prob.L_Lambda == 0.0


def test_logistic_preset_is_nonlinear():
    prob = preset("logistic_fkpp", lam=0.4, z_max=2.0)
    assert prob.Lambda(0.0, 0.0, np.array([0.0]))[0] == pytest.approx(0.4)
    assert prob.Lambda(0.0, 0.0, np.array([1.0]))[0] == pytest.approx(0.0)
    assert prob.Lambda(0.0, 0.0, np.array([5.0]))[0] == pytest.approx(0.4 * (1 - 2.0))
    assert prob.L_Lambda == pytest.approx(0.4)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset("advection")


@pytest.mark.parametrize("name", ["heat", "exponential_growth", "burgers", "logistic_fkpp"])
def test_declared_constants_hold_under_sampling(name):
    prob = preset(name)
    result = check_constants(prob, n_samples=10_000, seed=5)
    assert result["violations"] == {}


def test_declared_bound_checked_over_the_whole_horizon():
    # |b| = 2 > M_b = 1 only in the second half of [0, T]
    zero = lambda t, x, z: np.zeros_like(np.asarray(z, dtype=float))
    late = lambda t, x, z: np.full_like(np.asarray(z, dtype=float), 2.0 if t > 0.5 else 0.5)
    prob = ProblemSpec("late_drift", 1.0, 1.0, late, zero, GaussianDensity(), M_b=1.0,
                       M_Lambda=0.0, L_b=0.0, L_Lambda=0.0, z_max=1.0)
    assert check_constants(prob, n_samples=1000)["violations"] == {"M_b": 2.0}


def test_gaussian_density_consistency():
    g = GaussianDensity(0.3, 0.25)
    x = np.linspace(-3, 3, 2001)
    # pdf integrates the cdf
    assert np.trapezoid(g.pdf(x), x) == pytest.approx(g.cdf(3.0) - g.cdf(-3.0), abs=1e-8)
    assert g.max_value == pytest.approx(g.pdf(0.3), rel=1e-12)
    rng = np.random.Generator(np.random.Philox(key=0))
    s = g.sample(rng, 200_000)
    assert s.mean() == pytest.approx(0.3, abs=0.01)
    assert s.var() == pytest.approx(0.25, abs=0.01)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0), st.floats(min_value=-8.0, max_value=8.0))
def test_burgers_drift_lipschitz_property(z1, z2):
    prob = preset("burgers")
    b1 = prob.b(0.0, 0.0, np.array([z1]))[0]
    b2 = prob.b(0.0, 0.0, np.array([z2]))[0]
    assert abs(b1 - b2) <= prob.L_b * abs(z1 - z2) + 1e-12
    assert abs(b1) <= prob.M_b + 1e-12


def test_basket_derivatives_match_finite_differences():
    h = 1e-6
    x = np.linspace(-2, 2, 9)
    for tf in smooth_test_functions():
        fd1 = (tf.f(x + h) - tf.f(x - h)) / (2 * h)
        fd2 = (tf.f(x + h) - 2 * tf.f(x) + tf.f(x - h)) / h**2
        assert np.allclose(tf.df(x), fd1, atol=1e-7)
        assert np.allclose(tf.d2f(x), fd2, atol=1e-3)


def test_generator_analytic_agrees_with_stencil():
    prob = preset("heat", nu=2.0)
    for tf in smooth_test_functions():
        for x in (-0.7, 0.0, 1.3):
            analytic = apply_generator(prob, tf, 0.0, x)
            stencil = apply_generator(prob, tf.f, 0.0, x, h_fd=1e-5)
            assert stencil == pytest.approx(analytic, abs=5e-5)


@pytest.mark.parametrize("mean, var", [(0.0, 0.04), (-1.3, 2.5), (0.7, 1e-6)])
def test_sample_is_the_shifted_scaled_normals_bit_for_bit(mean, var):
    density = GaussianDensity(mean, var)
    got = density.sample(np.random.default_rng(11), 1000)
    want = mean + density.std * np.random.default_rng(11).standard_normal(1000)
    assert got.tobytes() == want.tobytes()
