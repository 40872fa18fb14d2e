import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr as scipy_ndtr

from mfklab import kernel
from mfklab.kernel import (
    KernelModel,
    apply_grad_smooth,
    apply_mean_smooth,
    apply_spectra,
    gap_spectra,
    ndtr,
    slope_kernel_weights,
    smooth_symbols,
    smooth_weight_rows,
    smooth_weights,
    staggered_slopes,
)


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
        for n in (101, 201):
            R = 6.0
            dx = 2 * R / (n - 1)
            x = np.linspace(-R, R, n)
            edges = np.concatenate((x - dx / 2, [R + dx / 2]))
            cm = np.diff(scipy_ndtr(edges / 0.2)) / dx
            out = apply_mean_smooth(cm, 0.3, 0.0, dx)
            sd1 = math.sqrt(0.04 + 0.09)
            target = np.diff(scipy_ndtr(edges / sd1)) / dx
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


def _mp_ndtr(x):
    with mpmath.workdps(40):
        return mpmath.ncdf(mpmath.mpf(float(x)))


_RNG = np.random.default_rng(2024)
_LOWER = np.concatenate((np.linspace(-37.5, 0.0, 751), _RNG.uniform(-37.5, 0.0, 750)))
_UPPER = np.concatenate((np.linspace(0.0, 9.0, 751), _RNG.uniform(0.0, 9.0, 750)))


def test_ndtr_relative_error_on_the_lower_side():
    got = ndtr(_LOWER)
    truth = [_mp_ndtr(x) for x in _LOWER]
    assert max(abs(g - t) / t for g, t in zip(got, truth)) <= 1e-13
    # scipy's own ndtr rounds x^2 before its exp and is 2.3e-13 off at -37.5
    assert np.all(np.abs(got - scipy_ndtr(_LOWER)) <= 5e-13 * scipy_ndtr(_LOWER))


def test_ndtr_absolute_error_on_the_upper_side():
    got = ndtr(_UPPER)
    assert max(abs(g - _mp_ndtr(x)) for g, x in zip(got, _UPPER)) <= 2.3e-16
    assert np.abs(got - scipy_ndtr(_UPPER)).max() <= 4e-16


def test_ndtr_band_edges_and_zero():
    assert ndtr(0.0) == 0.5
    below = np.array([-np.inf, -1e300, -100.0, -39.0])
    above = np.array([9.0, 9.5, 100.0, 1e300, np.inf])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert np.all(ndtr(below) == 0.0)
        assert np.all(ndtr(above) == 1.0)
        assert ndtr(np.linspace(-38.99, 8.99, 10_001)).min() >= 0.0
    assert np.isnan(ndtr(np.nan))
    assert isinstance(ndtr(0.3), np.floating) and ndtr(np.ones((2, 3))).shape == (2, 3)


# The three-term per-point formulas the lattice-shared weights replaced: each
# CDF term evaluated on its own, at -|c|, with scipy's ndtr.
def _j_oracle(z, sigma):
    u = np.asarray(z, dtype=float) / sigma
    return sigma * (u * scipy_ndtr(u) + np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi))


def _j3_oracle(z, sigma):
    u = np.asarray(z, dtype=float) / sigma
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    return sigma**2 * (0.5 * ((u * u + 1.0) * scipy_ndtr(u) + u * pdf))


def _triangle_oracle(c, sigma, dx):
    c = -np.abs(c)
    return _j_oracle(c + dx, sigma) - 2.0 * _j_oracle(c, sigma) + _j_oracle(c - dx, sigma)


def _mean_oracle(sigma, beta, dx, n):
    return _triangle_oracle(np.arange(-(n - 1), n) * dx - beta, sigma, dx) / dx


def _smooth_oracle(sigma, beta, dx, n):
    h = 0.5 * dx
    c = np.arange(-n, n + 1) * dx - beta

    def k1int(cc):
        cc = -np.abs(cc)
        return (-h * (_j_oracle(cc - h, sigma) + _j_oracle(cc + h, sigma))
                + _j3_oracle(cc + h, sigma) - _j3_oracle(cc - h, sigma))

    S = (k1int(c + h) - k1int(c - h)) / dx
    return _mean_oracle(sigma, beta, dx, n) + (S[2:] - S[:-2]) / (2.0 * dx)


def _slope_oracle(sigma, beta, dx, n):
    m = np.arange(-n, n)
    return -np.diff(_triangle_oracle((m + 0.5) * dx - beta, sigma, dx)) / (dx * dx)


@pytest.mark.parametrize("n", [3, 64, 512])
@pytest.mark.parametrize("sigma", [0.01, 0.1, 1.0])
def test_lattice_weights_match_the_per_point_formula(sigma, n):
    # one CDF per lattice point, the other side by the psi identities, against
    # three CDF terms per point.  The second differences of both lose about
    # eps (sigma / dx)^2 of the peak, so sigma / dx stays at 4 or below here;
    # the next test takes the finer spacings to mpmath
    for cells_per_sigma in (0.25, 1.0, 4.0):
        dx = sigma / cells_per_sigma
        for beta in (0.0, 0.4 * sigma, -2.0 * sigma):
            for weights, oracle in ((smooth_weights, _smooth_oracle),
                                    (slope_kernel_weights, _slope_oracle)):
                got, ref = weights(sigma, beta, dx, n), oracle(sigma, beta, dx, n)
                assert got.shape == ref.shape == (2 * n - 1,)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_weights_at_fine_spacing_are_no_further_from_mpmath():
    # at sigma / dx = 32 (sigma = 1 on the 512-node box of R = 8) both forms
    # are about 5e-11 of the peak off the exact weights; the lattice-shared
    # ones must stay within that of the per-point formula's distance
    sigma, beta, dx, n = 1.0, 0.013, 16.0 / 511.0, 512
    offsets = range(-60, 61, 7)

    def j(z, k):
        u = z / sigma
        pdf, cdf = mpmath.npdf(u), mpmath.ncdf(u)
        return sigma * (u * cdf + pdf) if k == 2 else sigma**2 * ((u * u + 1) * cdf + u * pdf) / 2

    def tri(c):
        return j(c + dx, 2) - 2 * j(c, 2) + j(c - dx, 2)

    def k1int(c):
        h = dx / 2
        return -h * (j(c - h, 2) + j(c + h, 2)) + j(c + h, 3) - j(c - h, 3)

    def exact(name, m):
        c = m * dx - beta
        if name == "slope":
            return -(tri(c + dx / 2) - tri(c - dx / 2)) / dx**2

        def S(cc):
            return (k1int(cc + dx / 2) - k1int(cc - dx / 2)) / dx
        return tri(c) / dx + (S(c + dx) - S(c - dx)) / (2 * dx)

    with mpmath.workdps(40):
        sigma, beta, dx = mpmath.mpf(sigma), mpmath.mpf(beta), mpmath.mpf(dx)
        for name, weights, oracle in (("smooth", smooth_weights, _smooth_oracle),
                                      ("slope", slope_kernel_weights, _slope_oracle)):
            truth = np.array([float(exact(name, m)) for m in offsets])
            idx = np.array(offsets) + n - 1
            got = weights(float(sigma), float(beta), float(dx), n)
            ref = oracle(float(sigma), float(beta), float(dx), n)
            peak = np.abs(ref).max()
            err_got, err_ref = np.abs(got[idx] - truth).max(), np.abs(ref[idx] - truth).max()
            assert err_got <= max(err_ref, 1e-13 * peak), name


def test_weight_rows_are_the_scalar_weights():
    # the slab build takes all Simpson nodes of a gap as rows
    sigmas, betas = np.array([1e-3, 0.02, 0.3, 1.0]), np.array([0.0, 0.01, -0.2, 0.5])
    dx, n = 0.05, 40
    rows = smooth_weight_rows(sigmas, betas, dx, n), slope_kernel_weights(sigmas, betas, dx, n)
    for k, (s, b) in enumerate(zip(sigmas, betas)):
        assert np.array_equal(rows[0][k], smooth_weights(s, b, dx, n))
        assert np.array_equal(rows[1][k], slope_kernel_weights(s, b, dx, n))


@pytest.mark.parametrize("n", [512, 129])
@pytest.mark.parametrize("rows, one_row, width", [
    (smooth_weight_rows, smooth_weights, lambda n: 2 * n + 3),
    (slope_kernel_weights, slope_kernel_weights, lambda n: 2 * n + 2),
], ids=["smooth", "slope"])
def test_weight_rows_in_blocks_are_the_one_row_weights(rows, one_row, width, n):
    # three whole blocks of rows and a remainder, against one call per row
    step = kernel._BLOCK // width(n)
    k = 3 * step + step // 2
    rng = np.random.default_rng(n)
    sigmas, betas, dx = rng.uniform(1e-3, 1.0, k), rng.uniform(-0.5, 0.5, k), 8.0 / n
    built = rows(sigmas, betas, dx, n)
    assert built.shape == (k, 2 * n - 1) and built.flags.c_contiguous
    assert np.array_equal(built, np.array([one_row(s, b, dx, n)
                                           for s, b in zip(sigmas, betas)]))


@pytest.mark.parametrize("beta_dx", [0.0, 0.37, -2.6])
@pytest.mark.parametrize("n", [64, 65, 512])
def test_smooth_symbols_are_the_spectra_of_the_weight_rows(n, beta_dx):
    # the closed-form spectra against gap_spectra of the physical rows, for
    # sigma / dx from 0.05 (28 aliases each side) to 40, or to n / 9 where
    # the box would cut the Gaussian off, in one call, so the wide rows skip
    # the aliases only the narrow ones take.  The physical rows' second
    # differences lose digits as sigma / dx grows: the row error relative to
    # the row's peak reads at most 1.63e-15 max(1, (sigma / dx)^2), 2.3e-12 at
    # sigma = 40 dx
    dx = 16.0 / n
    ratios = np.geomspace(0.05, min(40.0, n / 9), 16)
    sigmas = ratios * dx
    betas = np.full_like(sigmas, beta_dx * dx)
    ref = gap_spectra(smooth_weight_rows(sigmas, betas, dx, n))
    got = smooth_symbols(sigmas, betas, dx, n)
    assert got.shape == ref.shape == (len(sigmas), n + 1)
    assert got.dtype == (float if beta_dx == 0.0 else complex)
    err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
    assert np.all(err <= 2e-15 * np.maximum(1.0, ratios**2))


def test_sigma_beta_takes_an_array_of_end_times():
    model = KernelModel(0.7, b0=0.3, T=1.0)
    t = np.arange(1, 65) / 64.0
    sigma, beta = model.sigma_beta(0.0, t)
    assert np.array_equal(sigma, [model.sigma_beta(0.0, float(ti))[0] for ti in t])
    assert np.array_equal(beta, [model.sigma_beta(0.0, float(ti))[1] for ti in t])
    for method in (model.variance, model.mean_shift, model.sigma_beta):
        with pytest.raises(ValueError, match="need 0 <= s < t <= T"):
            method(0.0, np.append(t, 1.5))
        with pytest.raises(ValueError, match="need 0 <= s < t <= T"):
            method(0.0, np.append(0.0, t))


@pytest.mark.parametrize("weights", [smooth_weights])
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


@pytest.mark.parametrize("n", [16, 17, 257, 512])
@pytest.mark.parametrize("m", [1, 5])
def test_convolve_full_bit_identical_to_fftconvolve(m, n):
    # apply_spectra, the library's one x-convolution, against scipy's full
    # convolution (the name is kept from the full-convolution helper it
    # replaced, which matched fftconvolve bit for bit; apply_spectra uses its
    # own circular length 2n, so it matches to rounding). The shapes the library
    # convolves: a row by one kernel row (the KDE), a row by a stack of m
    # stencils (the slab data), and a stack by a stack row by row, each on its
    # window.  The last case checks the gradient weights, whose slope
    # difference is folded in, against the unfolded by-parts weights applied
    # to staggered slopes
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(m * 1000 + n)
    dx = 0.3
    row, kern = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
    data, stack = rng.standard_normal((m, n)), rng.standard_normal((m, 2 * n - 1))
    sigmas, betas = rng.uniform(0.1, 2.0, m), rng.uniform(-0.5, 0.5, m)
    folded = np.array([slope_kernel_weights(s, b, dx, n) for s, b in zip(sigmas, betas)])
    offsets = (np.arange(-n, n) + 0.5) * dx
    unfolded = np.array([-_triangle_oracle(offsets - b, s, dx) / dx
                         for s, b in zip(sigmas, betas)])
    cases = [
        (apply_spectra(gap_spectra(kern), row), fftconvolve(row, kern)[n - 1 : 2 * n - 1]),
        (apply_spectra(gap_spectra(stack), row),
         fftconvolve(row[None, :], stack)[:, n - 1 : 2 * n - 1]),
        (apply_spectra(gap_spectra(stack), data),
         fftconvolve(data, stack, axes=-1)[:, n - 1 : 2 * n - 1]),
        (apply_spectra(gap_spectra(folded), data),
         fftconvolve(staggered_slopes(data, dx), unfolded, axes=-1)[:, n : 2 * n]),
    ]
    for got, ref in cases:
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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
