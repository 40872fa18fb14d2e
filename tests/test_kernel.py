import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mfklab.grids import GridSpec
from mfklab.kernel import (
    KernelModel,
    apply_grad_smooth,
    apply_mean_smooth,
    convolve_full,
    mean_weights,
    smooth_weights,
    stencil_spectrum,
)
from mfklab.problems import GaussianDensity, UniformDensity


@pytest.fixture(scope="module")
def unit_kernel():
    return KernelModel(1.0, T=1.0)


def test_eval_p_standard_normal(unit_kernel):
    assert unit_kernel.eval_p(0.0, 0.0, 1.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)


def test_eval_p_drift_shifts_mean():
    k = KernelModel(1.0, b0=1.0, T=1.0)
    assert k.eval_p(0.0, 0.0, 1.0, 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)


def test_eval_p_rejects_bad_times(unit_kernel):
    with pytest.raises(ValueError):
        unit_kernel.eval_p(0.5, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        unit_kernel.eval_p(0.7, 0.0, 0.2, 0.0)


def test_grad_p_vanishes_at_mode(unit_kernel):
    assert unit_kernel.eval_grad_p(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_grad_p_analytic_value(unit_kernel):
    # (x - x0)/(a dt) * p at x = 1
    expect = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert unit_kernel.eval_grad_p(0.0, 0.0, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)


def test_grad_p_matches_finite_difference(unit_kernel):
    # centered difference in x0 at short horizon
    h = 1e-6
    fd = (unit_kernel.eval_p(0.0, h, 0.01, 0.2) - unit_kernel.eval_p(0.0, -h, 0.01, 0.2)) / (2 * h)
    grad = unit_kernel.eval_grad_p(0.0, 0.0, 0.01, 0.2)
    assert grad == pytest.approx(fd, rel=1e-6)


def test_normalization_on_fine_grid(unit_kernel):
    x = np.linspace(-10, 10, 4001)
    for t in (0.05, 0.3, 1.0):
        p = unit_kernel.eval_p(0.0, 0.3, t, x)
        assert abs(np.trapezoid(p, x) - 1.0) <= 1e-8


def test_gradient_integrates_to_zero(unit_kernel):
    x = np.linspace(-10, 10, 4001)
    g = unit_kernel.eval_grad_p(0.0, 0.0, 0.5, x)
    assert abs(np.trapezoid(g, x)) <= 1e-10


def test_derived_constants_unit_diffusion(unit_kernel):
    # analytic maximization gives c_u = 1/(4 nu) and C_u = max(sqrt 2, 2/sqrt(nu e))
    assert unit_kernel.c_u == pytest.approx(0.25, rel=1e-12)
    assert unit_kernel.C_u == pytest.approx(math.sqrt(2.0), rel=1e-6)


@pytest.mark.parametrize("a", [1.0, 4.0])
def test_verify_bounds_derived_constants(a):
    k = KernelModel(a, T=1.0)
    worst_p, worst_g = k.verify_bounds(10_000, seed=11)
    assert worst_p <= 1.0
    assert worst_g <= 1.0


def test_stale_constants_fail_after_scaling():
    base = KernelModel(1.0, T=1.0)
    stale = KernelModel(4.0, T=1.0, constants=(base.C_u, base.c_u))
    worst_p, _ = stale.verify_bounds(2_000, seed=13)
    assert worst_p > 1.0  # a scaled by 4 invalidates the old witnesses
    fresh = KernelModel(4.0, T=1.0)
    worst_p, worst_g = fresh.verify_bounds(2_000, seed=13)
    assert worst_p <= 1.0 and worst_g <= 1.0


def test_grad_ratio_degenerate_at_mode(unit_kernel):
    # gradient vanishes at the mode, so the ratio is 0 <= 1
    g = unit_kernel.eval_grad_p(0.0, 0.5, 1.0, 0.5)
    assert abs(g) == 0.0


def test_chapman_kolmogorov_constant(unit_kernel):
    assert unit_kernel.chapman_kolmogorov_residual(0.0, 0.5, 1.0, 0.0, 0.0, 256) <= 1e-8
    assert unit_kernel.chapman_kolmogorov_residual(0.0, 0.5, 1.0, 0.0, 2.0, 256) <= 1e-8


def test_chapman_kolmogorov_rejects_unordered(unit_kernel):
    with pytest.raises(ValueError):
        unit_kernel.chapman_kolmogorov_residual(0.5, 0.2, 1.0, 0.0, 0.0)


class TestCellWeights:
    """The discrete smoothing operators against brute-force quadrature."""

    n = 31
    R = 3.0

    def _setup(self):
        dx = 2 * self.R / (self.n - 1)
        x = np.linspace(-self.R, self.R, self.n)
        f = np.exp(-(x**2)) * (1 + 0.3 * np.sin(3 * x))
        return dx, x, f

    def test_mean_weights_match_quadrature(self):
        dx, x, f = self._setup()
        sigma, beta = 0.4, 0.15
        out = np.convolve(f, mean_weights(sigma, beta, dx, self.n))[self.n - 1 : 2 * self.n - 1]

        def pc(y):
            j = int(round((y + self.R) / dx))
            return f[j] if 0 <= j < self.n else 0.0

        G = lambda z: math.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        for i in (4, 15, 25):
            lo, hi = x[i] - dx / 2, x[i] + dx / 2
            val = quad(
                lambda xx: quad(lambda y: G(xx - y - beta) * pc(y), -self.R - dx, self.R + dx,
                                limit=300)[0],
                lo, hi, limit=100,
            )[0] / dx
            assert out[i] == pytest.approx(val, abs=1e-9)

    def test_grad_weights_match_quadrature(self):
        dx, x, f = self._setup()
        sigma, beta = 0.4, 0.15
        out = apply_grad_smooth(f, sigma, beta, dx)
        xs = np.concatenate(([-self.R - dx], x, [self.R + dx]))
        fs = np.concatenate(([0.0], f, [0.0]))

        def flin(y):
            return float(np.interp(y, xs, fs, left=0.0, right=0.0))

        G = lambda z: math.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        h = 1e-6
        for i in (4, 15, 25):
            lo, hi = x[i] - dx / 2, x[i] + dx / 2
            # integral of d_x0 p times f_lin equals minus the smoothed slope
            val = quad(
                lambda xx: quad(
                    lambda y: -G(xx - y - beta) * (flin(y + h) - flin(y - h)) / (2 * h),
                    -self.R - dx, self.R + dx, limit=300,
                )[0],
                lo, hi, limit=100,
            )[0] / dx
            assert out[i] == pytest.approx(val, abs=1e-7)

    def test_slope_corrected_weights_fourth_order(self):
        errs = []
        from scipy.special import ndtr

        for n in (101, 201):
            R = 6.0
            dx = 2 * R / (n - 1)
            x = np.linspace(-R, R, n)
            edges = np.concatenate((x - dx / 2, [R + dx / 2]))
            cm = np.diff(ndtr(edges / 0.2)) / dx
            out = apply_mean_smooth(cm, 0.3, 0.0, dx)
            sd1 = math.sqrt(0.04 + 0.09)
            target = np.diff(ndtr(edges / sd1)) / dx
            errs.append(float(np.abs(out - target).sum() * dx))
        assert errs[1] <= errs[0] / 12.0  # fourth-order drop under halving

    def test_identity_and_difference_limits(self):
        dx = 0.1
        f = np.sin(np.linspace(0, 3, 25))
        assert np.abs(apply_mean_smooth(f, 1e-9, 0.0, dx) - f).max() <= 1e-7
        grad = apply_grad_smooth(f, 1e-9, 0.0, dx)
        fp = np.concatenate((f[1:], [0.0]))
        fm = np.concatenate(([0.0], f[:-1]))
        assert np.abs(grad + (fp - fm) / (2 * dx)).max() <= 1e-12

    def test_smooth_weights_row_sum_one(self):
        w = smooth_weights(0.5, 0.1, 0.05, 400)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("weights", [mean_weights, smooth_weights])
def test_weights_mirror_exactly_without_drift(weights):
    # the weights are even in the offset at beta = 0, and evaluating them on
    # the tail side keeps them mirror images bit for bit
    w = weights(0.3, 0.0, 0.05, 200)
    assert np.array_equal(w, w[::-1])


def test_smooth_weights_sum_on_long_lattice():
    # 3400 cells reach 34 sigma either side: far tail weights must be ~0, not
    # round-off of size eps |c| / dx that sums to about eps n^2
    assert abs(smooth_weights(1.0, 0.0, 0.01, 3400).sum() - 1.0) <= 1e-12


# Both properties hold up to round-off in the closed-form weights: over 400
# random draws from these ranges the worst errors seen were 5e-14 (sums) and
# 2e-14 (linear data), so each is bounded at 1e-9 with room to spare.
@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.2),
)
def test_smooth_weights_sum_to_one_property(sigma, beta, dx):
    # the lattice reaches 8 sigma + |beta| + dx on either side
    n = int(np.ceil((8 * sigma + abs(beta)) / dx)) + 2
    assert abs(smooth_weights(sigma, beta, dx, n).sum() - 1.0) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.2),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_smooth_weights_exact_on_linear_data_property(sigma, beta, dx, c0, c1):
    # the edge cell's central slope reads the zero outside the box, so the
    # exact cells lie 8 sigma + |beta| plus that one cell inside the edge
    margin = 8 * sigma + abs(beta) + dx
    n = 2 * int(np.ceil(margin / dx)) + 5
    R = 0.5 * (n - 1) * dx
    x = np.linspace(-R, R, n)
    out = apply_mean_smooth(c0 + c1 * x / R, sigma, beta, dx)
    inner = R - np.abs(x) >= margin
    assert np.abs(out - (c0 + c1 * (x - beta) / R))[inner].max() <= 1e-9


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("m", [1, 5])
def test_convolve_full_bit_identical_to_fftconvolve(m, n):
    # the shapes the library convolves: a row by a kernel, a space-time block
    # by a stencil (growth and drift), slab data broadcast against a stencil
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(m * 100 + n)
    cases = [((n,), (2 * n - 1,)), ((m, n), (m, 2 * n - 1)), ((m, n + 1), (m, 2 * n)),
             ((1, n), (m, 2 * n - 1))]
    for data_shape, stencil_shape in cases:
        data = rng.standard_normal(data_shape)
        stencil = rng.standard_normal(stencil_shape)
        ref = fftconvolve(data, stencil)
        assert np.array_equal(convolve_full(data, stencil), ref)
        assert np.array_equal(convolve_full(data, stencil_spectrum(stencil, data_shape)), ref)


def test_convolve_full_rejects_mismatched_operands():
    with pytest.raises(ValueError, match="dimensionality"):
        convolve_full(np.ones(4), np.ones((2, 7)))
    with pytest.raises(ValueError, match="spectrum built for shape"):
        convolve_full(np.ones((3, 4)), stencil_spectrum(np.ones((3, 7)), (3, 5)))


def test_convolve_initial_gaussian_closed_form(unit_kernel):
    grid = GridSpec(R=7.0, n_x=512, n_t=1, T=1.0)
    out = unit_kernel.convolve_initial(GaussianDensity(0.0, 0.04), 0.0, 1.0, grid)
    mid = np.argmin(np.abs(grid.x_nodes()))
    assert out[mid] == pytest.approx(0.391213, abs=1e-4)  # cell mean vs point value


def test_convolve_initial_preserves_indicator_mass(unit_kernel):
    grid = GridSpec(R=8.0, n_x=801, n_t=1, T=1.0)
    out = unit_kernel.convolve_initial(UniformDensity(-1.0, 1.0), 0.0, 0.5, grid)
    assert np.abs(out).sum() * grid.dx == pytest.approx(1.0, abs=1e-3)
    assert out.sum() * grid.dx == pytest.approx(1.0, abs=1e-9)


def test_convolve_initial_norm_bounds(unit_kernel):
    grid = GridSpec(R=7.0, n_x=512, n_t=1, T=1.0)
    phi = GaussianDensity(0.3, 0.09)
    out = unit_kernel.convolve_initial(phi, 0.1, 0.6, grid)
    assert np.abs(out).sum() * grid.dx <= 1.0 + 1e-9
    assert np.abs(out).max() <= unit_kernel.C_u * phi.max_value + 1e-9


def test_convolve_initial_rejects_degenerate_times(unit_kernel):
    grid = GridSpec(R=7.0, n_x=64, n_t=1, T=1.0)
    with pytest.raises(ValueError):
        unit_kernel.convolve_initial(GaussianDensity(), 0.5, 0.5, grid)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.8),
    st.floats(min_value=0.05, max_value=0.99),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_kernel_domination_property(s, frac, x0, x):
    k = KernelModel(1.0, T=1.0)
    t = s + frac * (1.0 - s)
    p = k.eval_p(s, x0, t, x)
    assert p >= 0.0
    assert p <= k.C_u * k.q_density(s, x0, t, x) * (1.0 + 1e-9)
