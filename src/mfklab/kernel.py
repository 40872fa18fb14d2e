"""Gaussian fundamental solutions of the one-dimensional linear Fokker-Planck flow.

For a space-independent diffusion coefficient a(t) > 0 and a constant base
drift b0, the transition kernel of d/dt nu = L* nu is exactly Gaussian:

    p(s, x0, t, x) = N(x; x0 + b0 (t - s), int_s^t a(r) dr).

This module evaluates p and its x0-derivative, derives domination constants
(C_u, c_u) such that p <= C_u q and |d_x0 p| <= C_u q / sqrt(t-s) with q a
normalized Gaussian of variance (t-s)/(2 c_u), checks normalization
and the Chapman-Kolmogorov composition, and provides the exactly integrated
cell-weight operators used by the grid solver:

* mean smoothing  -- maps source cell averages to target cell averages of
  int p(s, x0, t, x) f(x0) dx0, exact when f is piecewise constant on cells;
* gradient smoothing -- target cell averages of int d_x0 p(s, x0, t, x) f(x0)
  dx0, computed by parts against the piecewise-linear interpolant of f, exact
  for that interpolant.  Both stay well-conditioned as t - s -> 0, where the
  first tends to the identity and the second to a centered difference.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import ndtr

from .grids import GridSpec, cell_means_from_cdf

_SQRT2PI = np.sqrt(2.0 * np.pi)

# Gauss-Legendre rule reused for coefficient time integrals.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def _gaussian(x, mean: float, var: float):
    """Density of N(mean, var) at x."""
    sd = np.sqrt(var)
    return normal_pdf((np.asarray(x, dtype=float) - mean) / sd) / sd


def _psi(u):
    """Second antiderivative of the standard normal pdf: psi' = Phi, psi'' = phi."""
    u = np.asarray(u, dtype=float)
    return u * ndtr(u) + normal_pdf(u)


def _second_antiderivative(z, sigma):
    """J(z) = int_{-inf}^z Phi(y / sigma) dy = sigma * psi(z / sigma)."""
    if sigma == 0.0:
        return np.maximum(z, 0.0)
    return sigma * _psi(np.asarray(z, dtype=float) / sigma)


def _triangle_smoothed(c, sigma, dx):
    """F(c) = J(c+dx) - 2 J(c) + J(c-dx): the Gaussian CDF integrated over a
    width-dx target cell and a width-dx source cell at center offset c."""
    return (
        _second_antiderivative(c + dx, sigma)
        - 2.0 * _second_antiderivative(c, sigma)
        + _second_antiderivative(c - dx, sigma)
    )


def mean_weights(sigma: float, beta: float, dx: float, n: int) -> np.ndarray:
    """Cell-average-to-cell-average convolution weights, offsets m = i - j.

    Laid out as w[m + n - 1] for m in [-(n-1), n-1]; rows and columns sum to 1
    up to Gaussian tail mass outside the lattice.  Exact for sources that are
    piecewise constant on cells.
    """
    m = np.arange(-(n - 1), n)
    return _triangle_smoothed(m * dx - beta, sigma, dx) / dx


def _psi2(u):
    """Third antiderivative of the standard normal pdf."""
    u = np.asarray(u, dtype=float)
    return 0.5 * ((u * u + 1.0) * ndtr(u) + u * normal_pdf(u))


def _third_antiderivative(z, sigma):
    if sigma == 0.0:
        zp = np.maximum(z, 0.0)
        return 0.5 * zp * zp
    return sigma**2 * _psi2(np.asarray(z, dtype=float) / sigma)


def smooth_weights(sigma: float, beta: float, dx: float, n: int) -> np.ndarray:
    """Slope-corrected smoothing weights (same layout as mean_weights).

    Cell averages alone lose the in-cell linear variation of the source,
    leaving an O(dx^2/12) first-moment error that compounds across chained
    smoothings.  These weights are exact for the piecewise-linear source
    reconstruction with central slopes (f_{j+1} - f_{j-1}) / (2 dx) matching
    the given cell means; the slope stencil is folded into the weight vector,
    so application stays one convolution.  Row and column sums remain 1.
    """
    h = 0.5 * dx
    # K1int is the c-antiderivative of K1(c) = int_{-h}^{h} G(c - z) z dz,
    # the response of the kernel to the in-cell linear part of the source.
    m_ext = np.arange(-n, n + 1)  # extended lattice for the slope fold
    c = m_ext * dx - beta

    def k1int(cc):
        return (
            -h * (_second_antiderivative(cc - h, sigma) + _second_antiderivative(cc + h, sigma))
            + _third_antiderivative(cc + h, sigma)
            - _third_antiderivative(cc - h, sigma)
        )

    S = (k1int(c + h) - k1int(c - h)) / dx
    base = mean_weights(sigma, beta, dx, n)
    # conv(central_slopes(f), S) == conv(f, folded) with the fold below
    folded = (S[2:] - S[:-2]) / (2.0 * dx)
    return base + folded


def slope_kernel_weights(sigma: float, beta: float, dx: float, n: int) -> np.ndarray:
    """Weights applied to the staggered slope array of a field (length n + 1).

    Output cell i of the gradient-kernel operator is sum_k s_k w[i - k + n]
    with w[m + n] = -F((m + 1/2) dx - beta) / dx for m in [-n, n-1].  In the
    sigma -> 0 limit this reduces to minus the centered difference.
    """
    m = np.arange(-n, n)
    return -_triangle_smoothed((m + 0.5) * dx - beta, sigma, dx) / dx


def staggered_slopes(values: np.ndarray, dx: float) -> np.ndarray:
    """Slopes of the piecewise-linear interpolant along the last axis,
    zero-extended outside the box (length n + 1 per row)."""
    return np.diff(values, axis=-1, prepend=0.0, append=0.0) / dx


def apply_mean_smooth(values: np.ndarray, sigma: float, beta: float, dx: float) -> np.ndarray:
    n = values.shape[-1]
    w = smooth_weights(sigma, beta, dx, n)
    return fftconvolve(values, w)[..., n - 1 : 2 * n - 1]


def apply_grad_smooth(values: np.ndarray, sigma: float, beta: float, dx: float) -> np.ndarray:
    n = values.shape[-1]
    s = staggered_slopes(values, dx)
    w = slope_kernel_weights(sigma, beta, dx, n)
    return fftconvolve(s, w)[..., n : 2 * n]


class KernelModel:
    """Gaussian kernel of the linear flow, with derived domination constants.

    Parameters
    ----------
    a : diffusion coefficient a(t) > 0; a float (constant) or a callable
        t -> float
    b0 : constant base drift; None means 0
    T : time horizon; constants are derived to hold over [0, T]
    a_integral : optional exact antiderivative (s, t) -> int_s^t a(r) dr of a
        callable a; defaults to Gauss-Legendre quadrature
    constants : optional (C_u, c_u) override, bypassing the derivation
    """

    def __init__(self, a, b0=None, T=1.0, a_integral=None, constants=None):
        if T <= 0:
            raise ValueError("T must be positive")
        self.T = float(T)
        self.b0 = 0.0 if b0 is None else float(b0)
        if callable(a):
            self._a_fn = lambda t: float(a(t))
            self._a_int = a_integral if a_integral is not None else self._gl_integral
            self.time_homogeneous = False
        else:
            a = float(a)
            self._a_fn = lambda t: a
            self._a_int = lambda s, t: (t - s) * a
            self.time_homogeneous = True
        self._check_ellipticity()
        if constants is not None:
            self.C_u, self.c_u = float(constants[0]), float(constants[1])
        else:
            self.C_u, self.c_u = self._derive_constants()

    # -- coefficient plumbing -------------------------------------------------

    def _gl_integral(self, s, t):
        mid, half = 0.5 * (s + t), 0.5 * (t - s)
        out = 0.0
        for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
            out += wi * self._a_fn(mid + half * xi)
        return half * out

    def _check_ellipticity(self):
        for t in np.linspace(0.0, self.T, 9):
            if self._a_fn(t) <= 0:
                raise ValueError(f"diffusion coefficient not positive at t={t}")

    # -- kernel moments -------------------------------------------------------

    def variance(self, s: float, t: float) -> float:
        """int_s^t a(r) dr, the variance of p(s, x0, t, .)."""
        self._check_times(s, t)
        var = float(self._a_int(s, t))
        if var <= 0:
            raise ValueError("accumulated variance not positive definite")
        return var

    def mean_shift(self, s: float, t: float) -> float:
        self._check_times(s, t)
        return (t - s) * self.b0

    def sigma_beta(self, s: float, t: float):
        """(std, drift shift) of p(s, x0, t, .) about x0."""
        return np.sqrt(self.variance(s, t)), self.mean_shift(s, t)

    def _check_times(self, s, t):
        if not (0.0 <= s < t <= self.T + 1e-12):
            raise ValueError(f"need 0 <= s < t <= T, got s={s}, t={t}")

    # -- pointwise evaluation -------------------------------------------------

    def eval_p(self, s: float, x0: float, t: float, x):
        """Kernel density p(s, x0, t, x); x may be an array."""
        out = _gaussian(x, x0 + self.mean_shift(s, t), self.variance(s, t))
        return float(out) if np.ndim(x) == 0 else out

    def eval_grad_p(self, s: float, x0: float, t: float, x):
        """Derivative of p with respect to x0: (x - mean) p / variance."""
        mean, var = x0 + self.mean_shift(s, t), self.variance(s, t)
        out = (np.asarray(x, dtype=float) - mean) / var * _gaussian(x, mean, var)
        return float(out) if np.ndim(x) == 0 else out

    def q_density(self, s: float, x0: float, t: float, x):
        """Comparison density: Gaussian centered at x0 with variance (t-s)/(2 c_u)."""
        self._check_times(s, t)
        out = _gaussian(x, x0, (t - s) / (2.0 * self.c_u))
        return float(out) if np.ndim(x) == 0 else out

    # -- domination constants -------------------------------------------------

    def _probe_pairs(self):
        fracs = np.concatenate((np.geomspace(1e-6, 0.1, 8), np.linspace(0.15, 1.0, 8)))
        starts = np.linspace(0.0, 1.0, 9)
        for f in fracs:
            dt = f * self.T
            for s0 in starts:
                s = s0 * (self.T - dt)
                yield s, s + dt

    def _derive_constants(self):
        if self.time_homogeneous:
            pairs = [(0.0, self.T)]
        else:
            pairs = list(self._probe_pairs())
        c_u = 1.0 / (4.0 * max(self.variance(s, t) / (t - s) for s, t in pairs))
        C_u = 0.0
        for s, t in pairs:
            dt = t - s
            var = self.variance(s, t)
            # density ratio p/q maximized at the mode
            K = np.sqrt(dt / (2.0 * c_u * var))
            # maximization of sqrt(dt) |x - mean| p / (var q)
            m = 1.0 / var - 2.0 * c_u / dt
            C_u = max(C_u, K, np.sqrt(dt) * K / (var * np.sqrt(m * np.e)))
        return C_u * (1.0 + 1e-9), c_u

    def verify_bounds(self, sample_count: int, seed: int):
        """Worst observed ratios p/(C_u q) and |grad p| sqrt(t-s)/(C_u q).

        Both are <= 1 when (C_u, c_u) witness the Gaussian domination bounds;
        a ratio above 1 is a verification failure reported to the caller, not
        an exception.
        """
        rng = np.random.Generator(np.random.Philox(key=seed))
        rate = max(self.variance(s, t) / (t - s) for s, t in self._probe_pairs())
        worst_p = 0.0
        worst_g = 0.0
        for _ in range(sample_count):
            s = rng.uniform(0.0, self.T)
            t = s + (self.T - s) * rng.uniform() ** 2
            if t <= s + 1e-12 * self.T:
                continue
            x0 = rng.uniform(-1.0, 1.0)
            z = rng.uniform(-6.0, 6.0) * np.sqrt(rate * (t - s))
            x = x0 + self.mean_shift(s, t) + z
            q = self.q_density(s, x0, t, x)
            worst_p = max(worst_p, self.eval_p(s, x0, t, x) / (self.C_u * q))
            g = abs(self.eval_grad_p(s, x0, t, x))
            worst_g = max(worst_g, g * np.sqrt(t - s) / (self.C_u * q))
        return worst_p, worst_g

    # -- composition and smoothing --------------------------------------------

    def chapman_kolmogorov_residual(self, s, t, r, x0, y, quad_nodes: int = 256) -> float:
        """|p(s,x0,r,y) - int p(s,x0,t,x) p(t,x,r,y) dx| by the trapezoid rule."""
        if not (0.0 <= s < t < r <= self.T + 1e-12):
            raise ValueError(f"need 0 <= s < t < r <= T, got {(s, t, r)}")
        c1 = x0 + self.mean_shift(s, t)
        c2 = y - self.mean_shift(t, r)
        var2 = self.variance(t, r)
        spread = 8.0 * np.sqrt(max(self.variance(s, t), var2))
        x = np.linspace(min(c1, c2) - spread, max(c1, c2) + spread, quad_nodes)
        # p(t, x, r, y) as a function of x is the Gaussian N(x; y - shift, var)
        integrand = self.eval_p(s, x0, t, x) * _gaussian(x, c2, var2)
        return abs(self.eval_p(s, x0, r, y) - float(np.trapezoid(integrand, x)))

    def convolve_initial(self, phi, r: float, t: float, grid: GridSpec) -> np.ndarray:
        """Kernel-smoothed field u0_hat(r, phi)(t, .) as cell averages on the grid.

        phi is a density object with a cdf or an array of cell averages.
        Satisfies ||result||_L1 <= ||phi||_L1 and ||result||_inf <= C_u
        ||phi||_inf up to box-truncation tails.
        """
        if t <= r:
            raise ValueError("need t > r")
        source = phi if isinstance(phi, np.ndarray) else cell_means_from_cdf(phi.cdf, grid)
        return apply_mean_smooth(source, *self.sigma_beta(r, t), grid.dx)


def kernel_for(problem, constants=None) -> KernelModel:
    """Kernel of the linear part of a problem (a = Phi Phi^T, drift b0)."""
    return KernelModel(problem.a_fn(), b0=problem.b0_fn(), T=problem.T,
                       constants=constants)
