"""Gaussian fundamental solutions of the linear Fokker-Planck flow.

For space-independent coefficients a(t) (symmetric positive definite) and
b0(t), the transition kernel of d/dt nu = L* nu is exactly Gaussian:

    p(s, x0, t, x) = N(x; x0 + int_s^t b0(r) dr, int_s^t a(r) dr).

This module evaluates p and its x0-gradient, derives domination constants
(C_u, c_u) such that p <= C_u q and |grad_x0 p| <= C_u q / sqrt(t-s) with q a
normalized Gaussian of per-axis variance (t-s)/(2 c_u), checks normalization
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

from typing import Callable

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import ndtr

from .grids import GridSpec, cell_means_from_cdf, cell_means_from_pdf

_SQRT2PI = np.sqrt(2.0 * np.pi)

# Gauss-Legendre rule reused for coefficient time integrals.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


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


def _as_points(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if d != 1:
            raise ValueError("scalar point only valid for d = 1")
        return x.reshape(1, 1)
    if x.ndim == 1:
        if d == 1:
            return x.reshape(-1, 1)
        if x.shape[0] == d:
            return x.reshape(1, d)
        raise ValueError(f"cannot interpret shape {x.shape} as points in R^{d}")
    if x.shape[-1] != d:
        raise ValueError(f"last axis must have length d={d}")
    return x.reshape(-1, d)


class KernelModel:
    """Gaussian kernel of the linear flow, with derived domination constants.

    Parameters
    ----------
    d : spatial dimension
    a : diffusion matrix a(t); a float (isotropic constant), a (d, d) array
        (constant), or a callable t -> (d, d) array
    b0 : base drift b0(t); None, a (d,) array, or a callable t -> (d,) array
    T : time horizon; constants are derived to hold over [0, T]
    a_integral, b0_integral : optional exact antiderivative callables
        (s, t) -> integral over [s, t]; defaults to Gauss-Legendre quadrature
        for callable coefficients
    constants : optional (C_u, c_u) override, bypassing the derivation
    """

    def __init__(self, d, a, b0=None, T=1.0, a_integral=None, b0_integral=None,
                 constants=None):
        if d < 1:
            raise ValueError("d must be a positive integer")
        if T <= 0:
            raise ValueError("T must be positive")
        self.d = int(d)
        self.T = float(T)
        self._a_fn, self._a_int, self.time_homogeneous = self._setup_matrix(a, a_integral)
        self._b0_fn, self._b0_int, b0_const = self._setup_drift(b0, b0_integral)
        self.time_homogeneous = self.time_homogeneous and b0_const
        self._check_ellipticity()
        if constants is not None:
            self.C_u, self.c_u = float(constants[0]), float(constants[1])
        else:
            self.C_u, self.c_u = self._derive_constants()

    # -- coefficient plumbing -------------------------------------------------

    def _setup_matrix(self, a, a_integral):
        d = self.d
        if np.isscalar(a):
            mat = float(a) * np.eye(d)
            return (lambda t: mat), (lambda s, t: (t - s) * mat), True
        if isinstance(a, np.ndarray):
            mat = 0.5 * (a + a.T)
            if mat.shape != (d, d):
                raise ValueError(f"constant diffusion must be ({d}, {d})")
            return (lambda t: mat), (lambda s, t: (t - s) * mat), True
        if callable(a):
            fn = lambda t: np.atleast_2d(np.asarray(a(t), dtype=float))
            if a_integral is None:
                a_integral = lambda s, t: self._gl_integral(fn, s, t, (d, d))
            return fn, a_integral, False
        raise TypeError("a must be a float, an ndarray or a callable")

    def _setup_drift(self, b0, b0_integral):
        d = self.d
        if b0 is None:
            zero = np.zeros(d)
            return (lambda t: zero), (lambda s, t: zero), True
        if isinstance(b0, (int, float)):
            vec = float(b0) * np.ones(d)
            return (lambda t: vec), (lambda s, t: (t - s) * vec), True
        if isinstance(b0, np.ndarray):
            vec = b0.reshape(d)
            return (lambda t: vec), (lambda s, t: (t - s) * vec), True
        if callable(b0):
            fn = lambda t: np.asarray(b0(t), dtype=float).reshape(d)
            if b0_integral is None:
                b0_integral = lambda s, t: self._gl_integral(fn, s, t, (d,))
            return fn, b0_integral, False
        raise TypeError("b0 must be None, a float, an ndarray or a callable")

    @staticmethod
    def _gl_integral(fn, s, t, shape):
        mid, half = 0.5 * (s + t), 0.5 * (t - s)
        out = np.zeros(shape)
        for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
            out += wi * np.asarray(fn(mid + half * xi))
        return half * out

    def _check_ellipticity(self):
        for t in np.linspace(0.0, self.T, 9):
            ev = np.linalg.eigvalsh(self._a_fn(t))
            if ev.min() <= 0:
                raise ValueError(f"diffusion matrix not positive definite at t={t}")

    # -- kernel moments -------------------------------------------------------

    def covariance(self, s: float, t: float) -> np.ndarray:
        self._check_times(s, t)
        return np.atleast_2d(self._a_int(s, t))

    def mean_shift(self, s: float, t: float) -> np.ndarray:
        self._check_times(s, t)
        return np.asarray(self._b0_int(s, t)).reshape(self.d)

    def sigma_beta(self, s: float, t: float):
        """Scalar (std, drift shift) for d = 1."""
        if self.d != 1:
            raise ValueError("sigma_beta is a d = 1 accessor")
        var = float(self.covariance(s, t)[0, 0])
        if var <= 0:
            raise ValueError("accumulated covariance not positive definite")
        return np.sqrt(var), float(self.mean_shift(s, t)[0])

    def _check_times(self, s, t):
        if not (0.0 <= s < t <= self.T + 1e-12):
            raise ValueError(f"need 0 <= s < t <= T, got s={s}, t={t}")

    # -- pointwise evaluation -------------------------------------------------

    def eval_p(self, s: float, x0, t: float, x):
        """Kernel density p(s, x0, t, x); x may be batched with last axis d."""
        cov = self.covariance(s, t)
        mean = _as_points(x0, self.d)[0] + self.mean_shift(s, t)
        pts = _as_points(x, self.d)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("accumulated covariance not positive definite") from None
        z = np.linalg.solve(chol, (pts - mean).T)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        logp = -0.5 * (z**2).sum(axis=0) - 0.5 * (self.d * np.log(2.0 * np.pi) + logdet)
        out = np.exp(logp)
        shape = np.shape(x)[:-1] if np.ndim(x) > 1 else (np.shape(x) if self.d == 1 else ())
        return out.reshape(shape) if shape else float(out[0])

    def eval_grad_p(self, s: float, x0, t: float, x):
        """Gradient of p with respect to x0: Sigma^{-1} (x - mean) * p."""
        cov = self.covariance(s, t)
        mean = _as_points(x0, self.d)[0] + self.mean_shift(s, t)
        pts = _as_points(x, self.d)
        p = np.atleast_1d(self.eval_p(s, x0, t, x))
        grad = np.linalg.solve(cov, (pts - mean).T).T * p.reshape(-1, 1)
        if np.ndim(x) <= 1 and self.d > 1:
            return grad[0]
        shape = np.shape(x)[:-1] if np.ndim(x) > 1 else np.shape(x)
        if self.d == 1:
            out = grad[:, 0].reshape(shape)
            return float(out) if out.ndim == 0 else out
        return grad.reshape(shape + (self.d,))

    def q_density(self, s: float, x0, t: float, x):
        """Comparison density: isotropic Gaussian with per-axis variance (t-s)/(2 c_u)."""
        self._check_times(s, t)
        var = (t - s) / (2.0 * self.c_u)
        pts = _as_points(x, self.d)
        z2 = ((pts - _as_points(x0, self.d)[0]) ** 2).sum(axis=1)
        out = np.exp(-0.5 * z2 / var) / (2.0 * np.pi * var) ** (self.d / 2.0)
        shape = np.shape(x)[:-1] if np.ndim(x) > 1 else (np.shape(x) if self.d == 1 else ())
        return out.reshape(shape) if shape else float(out[0])

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
        rate_max = 0.0
        for s, t in pairs:
            ev = np.linalg.eigvalsh(self.covariance(s, t))
            rate_max = max(rate_max, ev.max() / (t - s))
        c_u = 1.0 / (4.0 * rate_max)
        C_u = 0.0
        for s, t in pairs:
            dt = t - s
            ev = np.linalg.eigvalsh(self.covariance(s, t))
            # density ratio p/q maximized at the mode
            K = np.prod(np.sqrt(dt / (2.0 * c_u * ev)))
            C_u = max(C_u, K)
            # per-axis maximization of sqrt(dt) |Sigma^{-1} z| p / q
            m = 1.0 / ev - 2.0 * c_u / dt
            grad_K = np.sqrt(dt) * K / (ev * np.sqrt(m * np.e))
            C_u = max(C_u, grad_K.max())
        return C_u * (1.0 + 1e-9), c_u

    def verify_bounds(self, sample_count: int, seed: int):
        """Worst observed ratios p/(C_u q) and |grad p| sqrt(t-s)/(C_u q).

        Both are <= 1 when (C_u, c_u) witness the Gaussian domination bounds;
        a ratio above 1 is a verification failure reported to the caller, not
        an exception.
        """
        rng = np.random.Generator(np.random.Philox(key=seed))
        rate = max(
            np.linalg.eigvalsh(self.covariance(s, t)).max() / (t - s)
            for s, t in self._probe_pairs()
        )
        worst_p = 0.0
        worst_g = 0.0
        for _ in range(sample_count):
            s = rng.uniform(0.0, self.T)
            t = s + (self.T - s) * rng.uniform() ** 2
            if t <= s + 1e-12 * self.T:
                continue
            x0 = rng.uniform(-1.0, 1.0, self.d)
            z = rng.uniform(-6.0, 6.0, self.d) * np.sqrt(rate * (t - s))
            x = x0 + self.mean_shift(s, t) + z
            q = float(np.atleast_1d(self.q_density(s, x0, t, x))[0])
            p = float(np.atleast_1d(self.eval_p(s, x0, t, x))[0])
            g = float(np.linalg.norm(np.atleast_1d(self.eval_grad_p(s, x0, t, x))))
            worst_p = max(worst_p, p / (self.C_u * q))
            worst_g = max(worst_g, g * np.sqrt(t - s) / (self.C_u * q))
        return worst_p, worst_g

    # -- composition and smoothing --------------------------------------------

    def chapman_kolmogorov_residual(self, s, t, r, x0, y, quad_nodes: int = 256) -> float:
        """|p(s,x0,r,y) - int p(s,x0,t,x) p(t,x,r,y) dx| by tensor trapezoid."""
        if not (0.0 <= s < t < r <= self.T + 1e-12):
            raise ValueError(f"need 0 <= s < t < r <= T, got {(s, t, r)}")
        if self.d > 2:
            raise NotImplementedError("composition check implemented for d <= 2")
        x0v = _as_points(x0, self.d)[0]
        yv = _as_points(y, self.d)[0]
        c1 = x0v + self.mean_shift(s, t)
        c2 = yv - self.mean_shift(t, r)
        spread = 8.0 * np.sqrt(max(
            np.linalg.eigvalsh(self.covariance(s, t)).max(),
            np.linalg.eigvalsh(self.covariance(t, r)).max(),
        ))
        lo = np.minimum(c1, c2) - spread
        hi = np.maximum(c1, c2) + spread
        axes = [np.linspace(lo[i], hi[i], quad_nodes) for i in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        first = np.atleast_1d(self.eval_p(s, x0, t, pts))
        # p(t, x, r, y) as a function of x is the Gaussian N(x; y - shift, cov)
        second = np.atleast_1d(self._gaussian_at(pts, c2, self.covariance(t, r)))
        vals = (first * second).reshape([quad_nodes] * self.d)
        integral = vals
        for i in range(self.d):
            integral = np.trapezoid(integral, axes[self.d - 1 - i], axis=-1)
        return abs(self.eval_p(s, x0, r, y) - float(integral))

    def _gaussian_at(self, pts, mean, cov):
        chol = np.linalg.cholesky(np.atleast_2d(cov))
        z = np.linalg.solve(chol, (pts - mean).T)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        return np.exp(-0.5 * (z**2).sum(axis=0) - 0.5 * (self.d * np.log(2 * np.pi) + logdet))

    def convolve_initial(self, phi, r: float, t: float, grid: GridSpec) -> np.ndarray:
        """Kernel-smoothed field u0_hat(r, phi)(t, .) as cell averages on the grid.

        phi may be a density object (cdf preferred, pdf fallback), a plain
        callable density, or an array of cell averages.  Satisfies
        ||result||_L1 <= ||phi||_L1 and ||result||_inf <= C_u ||phi||_inf up
        to box-truncation tails.
        """
        if t <= r:
            raise ValueError("need t > r")
        if self.d != 1:
            raise NotImplementedError("grid smoothing is implemented for d = 1")
        if isinstance(phi, np.ndarray):
            source = phi
        elif hasattr(phi, "cdf"):
            source = cell_means_from_cdf(phi.cdf, grid)
        elif callable(phi):
            source = cell_means_from_pdf(phi, grid)
        else:
            raise TypeError("phi must be an array, a density object or a callable")
        sigma, beta = self.sigma_beta(r, t)
        return apply_mean_smooth(source, sigma, beta, grid.dx)


def kernel_for(problem, constants=None) -> KernelModel:
    """Kernel of the linear part of a problem (a = Phi Phi^T, drift b0)."""
    return KernelModel(
        problem.d,
        problem.a_fn(),
        b0=problem.b0_fn(),
        T=problem.T,
        constants=constants,
    )
