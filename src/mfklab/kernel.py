"""Gaussian fundamental solutions of the one-dimensional linear Fokker-Planck flow.

For a constant diffusion coefficient a > 0 and a constant base drift b0, the
transition kernel of d/dt nu = L* nu is exactly Gaussian:

    p(s, x0, t, x) = N(x; x0 + b0 (t - s), a (t - s)).

This module evaluates p and its x0-derivative, derives domination constants
(C_u, c_u) such that p <= C_u q and |d_x0 p| <= C_u q / sqrt(t-s) with q a
normalized Gaussian of variance (t-s)/(2 c_u), checks normalization
and the Chapman-Kolmogorov composition, and provides the exactly integrated
cell-weight operators used by the grid solver:

* smoothing (smooth_weights) -- maps source cell averages to target cell
  averages of int p(s, x0, t, x) f(x0) dx0, exact for the piecewise-linear
  reconstruction of f with central slopes;
* gradient smoothing (slope_kernel_weights) -- target cell averages of
  int d_x0 p(s, x0, t, x) f(x0) dx0, computed by parts against the
  piecewise-linear interpolant of f, exact for that interpolant.  Both stay
  well-conditioned as t - s -> 0, where the first tends to the identity and
  the second to a centered difference.

Both are value stencils: 2n - 1 weights over the offsets of n cell means.
The gradient weights fold the interpolant's slope difference in, as the
smoothing weights fold in their slope correction, so no operator reads a
slope array.  The slab solver integrates its sources with these two builders
only.  Every weight is a difference of normal-CDF antiderivatives on a
lattice of offsets; each builder evaluates the CDF and the pdf once per
lattice point, on the tail side, and takes all its differences from those
values.

The slab solver smooths its data (mild.prepare_slab) without building
smoothing weights: smooth_symbols gives their spectra in closed form, by
Poisson summation of the Gaussian's Fourier symbol over a few aliases, and
smooth_weight_rows is its oracle.  The interval-integrated rows reach the
kernel at zero width, where the alias sum converges too slowly, so they
stay on the builders.

The normal CDF, ndtr, is this module's own numpy erfc series, so no run
imports scipy; problems, particles and oracles take it from here.

Row-wise work runs in blocks of about _BLOCK = 2^14 lattice points: the
builders take their rows max(1, _BLOCK // lattice length) at a time into one
preallocated output, and oracles.exact_cell_means takes its Gaussian levels
max(1, _BLOCK // (n_x + 1)) at a time, so ndtr, which takes its input whole,
gets at most _BLOCK values from it.  Each builder makes some forty passes
over its lattice, so a block keeps those passes in cache and its temporaries
bounded: many rows in one call then cost less than one call per row, with no
more peak memory than one block's temporaries.  Rows are elementwise, so the
blocks change no bit of the result.  The block size is decided here only.

Every convolution takes one path, along x only, through numpy.fft at the
circular length L = 2 n: gap_spectra transforms a stack of stencils once, and
apply_spectra transforms the n-node sources, multiplies and transforms back,
keeping a window that no wrapped-around term reaches.  The slab sweep
(mild._sweep), the one product causal in the level gap, applies the same
spectra one source level at a time.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import irfft, rfft

_SQRT2PI = np.sqrt(2.0 * np.pi)

# lattice points per block of row-wise or flat work (see the module docstring)
_BLOCK = 1 << 14

# P(t) = erfcx(z) / t, t = 2 / (2 + z), in powers of y = 4t - 2: a 28-term
# Chebyshev fit in mpmath, rewritten in the power basis by scripts/fit_ndtr.py
_NDTR_POLY = (
    0.5107913526210115, 0.17179017110345263, 0.03493401156950672,
    0.002277639469180312, -0.0006722081840447728, -0.00010123726668707854,
    2.4145406704025682e-05, 3.270687760128803e-06, -1.2950654203885173e-06,
    -3.3565893739353394e-08, 7.054233458436077e-08, -8.337078384148292e-09,
    -2.6484514816628653e-09, 9.838916615024592e-10, -3.4351604829058375e-11,
    -5.556664545907538e-11, 1.52728055765596e-11, -2.3336178937337568e-14,
    -1.0892798705421895e-12, 3.1454397413605944e-13, -1.6195987713752429e-15,
    -2.746651981914341e-14, 6.924148903896591e-15, 7.574396931535171e-16,
    -5.808327571113264e-16, 3.66107712691622e-17, 1.7958381765907463e-17,
    -2.5249045749238645e-18,
)

# the band of x outside which Phi(x) rounds to the double 0 or 1
_NDTR_LO, _NDTR_HI = -39.0, 9.0
# exp(-a_r^2 / 2) at a_r = k / 16, k < 16 * 39: a_r^2 is exact
_EXP_SIXTEENTHS = np.exp(-0.5 * np.square(np.arange(16 * 39 + 1) / 16.0))


def _gauss_tail(a):
    """(exp(-a^2 / 2), Q(a)) for an array a in [0, 39), with Q(a) = 1 - Phi(a)
    the upper tail of the standard normal.

    Q(a) = t / 2 * exp(-a^2 / 2) * P(t), t = 2 / (2 + a / sqrt 2), with P the
    erfc series _NDTR_POLY (in the form of W. J. Cody, Math. Comp. 23 (1969)
    631-637), summed by Horner's rule.  The exponent is split at a_r, a rounded
    down to 1/16: exp(-a_r^2 / 2) is a table entry and exp(-(a - a_r)(a +
    a_r) / 2) has a small argument, so the rounding of a^2, which would cost
    a relative a^2 eps, never enters.
    """
    k = np.floor(16.0 * a)
    a_r = k / 16.0
    g = np.exp((a_r - a) * (a + a_r) * 0.5) * _EXP_SIXTEENTHS[k.astype(np.intp)]
    z = a * np.sqrt(0.5)
    t = 2.0 / (2.0 + z)
    # y = 4t - 2 formed from 1 - t = z / (2 + z), whose rounding is relative
    # to 1 - t: near a = 0 the series then reads z to far better than t's ulp
    y = 2.0 - 4.0 * z / (2.0 + z)
    p = np.full_like(a, _NDTR_POLY[-1])
    for c in _NDTR_POLY[-2::-1]:
        p *= y
        p += c
    return g, 0.5 * t * g * p


def ndtr(x):
    """Standard normal CDF Phi(x), elementwise.

    On the band -39 < x < 9 it is Q(-x) for x < 0 and 1 - Q(x) for x >= 0,
    with Q from _gauss_tail; the error is below 1e-13 relative for x <= 0 and
    2.3e-16 absolute for x >= 0.  Outside the band Phi rounds to the doubles
    0 and 1, which it returns.
    """
    x = np.asarray(x, dtype=float)
    out = np.clip(x, 0.0, 1.0, out=np.empty(x.shape))  # NaN stays NaN
    band = (x > _NDTR_LO) & (x < _NDTR_HI)
    xb = x[band]
    q = _gauss_tail(np.abs(xb))[1]
    out[band] = np.where(xb < 0.0, q, 1.0 - q)
    return out[()]


def normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def _gaussian(x, mean: float, var: float):
    """Density of N(mean, var) at x."""
    sd = np.sqrt(var)
    return normal_pdf((np.asarray(x, dtype=float) - mean) / sd) / sd


def _tail_antiderivatives(p, sigma):
    """J = sigma psi(u) and J3 = sigma^2 psi2(u) on the tail side u = -|p| / sigma
    of each lattice point p, from one CDF and one pdf value per point.

    psi(u) = u Phi(u) + phi(u) and psi2(u) = ((u^2 + 1) Phi(u) + u phi(u)) / 2
    are the second and third antiderivatives of the standard normal pdf; the
    other side follows from psi(u) = u + psi(-u) and
    psi2(u) = (u^2 + 1) / 2 - psi2(-u).  Beyond the band |u| < 39 both are 0,
    as their doubles are.  sigma is a scalar or broadcasts against p's leading
    axes (sigma > 0 on every path: KernelModel rejects a <= 0 and s >= t).
    """
    a = np.abs(p) / sigma
    band = a < -_NDTR_LO
    ab = a[band]
    g, q = _gauss_tail(ab)
    pdf = g / _SQRT2PI
    psi, psi2 = np.zeros_like(a), np.zeros_like(a)
    psi[band] = pdf - ab * q
    psi2[band] = 0.5 * ((ab * ab + 1.0) * q - ab * pdf)
    return sigma * psi, sigma * sigma * psi2


def _second_difference(p, J):
    """F(c) = J(c + dx) - 2 J(c) + J(c - dx) at the inner points c = p[..., 1:-1]
    of a lattice p of step dx, from the tail values J of _tail_antiderivatives:
    the Gaussian CDF integrated over a width-dx target cell and a width-dx
    source cell at center offset c, so F / dx is the plain cell-mean weight.

    F is even, so for c >= 0 it is the second difference of J(-p) = J + max(-p, 0),
    and for c < 0 that of J(p) = J + max(p, 0): each side's large linear part
    vanishes beyond one step of 0, and the difference cancels no large terms.
    """
    def d2(v):  # the outer pair summed first, so that mirrored lattices mirror bitwise
        return (v[..., 2:] + v[..., :-2]) - 2.0 * v[..., 1:-1]

    return np.where(p[..., 1:-1] >= 0.0, d2(J + np.maximum(-p, 0.0)),
                    d2(J + np.maximum(p, 0.0)))


def _lattice(lo: int, hi: int, shift: float, dx: float, beta):
    """Offsets (m + shift) dx - beta for m in [lo, hi), one row per beta."""
    return (np.arange(lo, hi) + shift) * dx - np.asarray(beta, dtype=float)[..., None]


def _in_row_blocks(block, sigma, beta, dx: float, n: int, width: int) -> np.ndarray:
    """The (..., 2n - 1) rows of block for sigma and beta broadcast together,
    written into one output max(1, _BLOCK // width) rows at a time, width
    being the lattice length of one row: block(sigma, beta, dx, n, out) fills
    out with the rows of the 1-D blocks sigma and beta.  The blocks are the
    private block functions, not the public builders, so a wrapper on a
    public name (perfbench's tracer spans) counts one call per call."""
    sigma, beta = np.broadcast_arrays(np.asarray(sigma, dtype=float),
                                      np.asarray(beta, dtype=float))
    out = np.empty(sigma.shape + (2 * n - 1,))
    rows, sigma, beta = out.reshape(-1, 2 * n - 1), sigma.reshape(-1), beta.reshape(-1)
    step = max(1, _BLOCK // width)
    for i in range(0, len(sigma), step):
        block(sigma[i : i + step], beta[i : i + step], dx, n, rows[i : i + step])
    return out


def _smooth_block(sigma, beta, dx: float, n: int, out: np.ndarray) -> None:
    """smooth_weight_rows of one block of rows, written into out."""
    sigma = sigma[:, None]
    h = 0.5 * dx
    # one CDF per point of the lattice m dx - beta, m in [-n-1, n+1]: the cell
    # weights read m in [-n, n] and the slope fold one point more on each side
    p = _lattice(-n - 1, n + 2, 0.0, dx, beta)
    J, J3 = _tail_antiderivatives(p, sigma)
    base = _second_difference(p[..., 1:-1], J[..., 1:-1]) / dx
    # K1int is the c-antiderivative of K1(c) = int_{-h}^{h} G(c - z) z dz, the
    # response of the kernel to the in-cell linear part of the source, at the
    # midpoints c = p + h: -h (J(c - h) + J(c + h)) + J3(c + h) - J3(c - h).
    # It is even (psi2(u) = (u^2 + 1)/2 - psi2(-u)), so c >= 0 reads J and J3
    # at -p, where the far points are tail values
    cubic = 0.5 * (p * p + sigma * sigma) - J3
    lo, up = slice(None, -1), slice(1, None)

    def k1int(J_side, J3_side, sign):
        return (-h * (J_side[..., lo] + J_side[..., up])
                + sign * (J3_side[..., up] - J3_side[..., lo]))

    k1 = np.where(p[..., :-1] + h >= 0.0,
                  k1int(J + np.maximum(-p, 0.0), np.where(p < 0.0, cubic, J3), -1.0),
                  k1int(J + np.maximum(p, 0.0), np.where(p > 0.0, cubic, J3), 1.0))
    S = np.diff(k1, axis=-1) / dx
    # conv(central_slopes(f), S) == conv(f, folded) with the fold below
    np.add(base, (S[..., 2:] - S[..., :-2]) / (2.0 * dx), out=out)


def smooth_weight_rows(sigma, beta, dx: float, n: int) -> np.ndarray:
    """smooth_weights for arrays sigma and beta of one shape (k,): its (k, 2n - 1)
    rows, built in blocks of rows (_in_row_blocks).  A run builds only the
    growth rows with it; the slab-data smoothing rows are smooth_symbols'
    oracle."""
    return _in_row_blocks(_smooth_block, sigma, beta, dx, n, 2 * n + 3)


def smooth_weights(sigma: float, beta: float, dx: float, n: int) -> np.ndarray:
    """Slope-corrected smoothing weights, laid out as w[m + n - 1] for the
    offsets m = i - j in [-(n-1), n-1] of target cell i and source cell j.

    Cell averages alone lose the in-cell linear variation of the source,
    leaving an O(dx^2/12) first-moment error that compounds across chained
    smoothings.  These weights are exact for the piecewise-linear source
    reconstruction with central slopes (f_{j+1} - f_{j-1}) / (2 dx) matching
    the given cell means; the slope stencil is folded into the weight vector,
    so application stays one convolution.  Row and column sums remain 1.

    sigma is a scalar: this is one row of smooth_weight_rows, which builds
    every smoothing row a run uses, so only tests and the tracer call it.
    """
    return smooth_weight_rows(sigma, beta, dx, n)


# aliases k + 2 pi j / dx are summed while exp(-sigma^2 k_j^2 / 2) may reach this
_ALIAS_TOL = 1e-17


def smooth_symbols(sigma, beta, dx: float, n: int) -> np.ndarray:
    """gap_spectra(smooth_weight_rows(sigma, beta, dx, n)) in closed form: the
    (k, n + 1) spectra of the slope-corrected cell-mean smoothing for arrays
    sigma and beta of one shape (k,).

    At k = pi q / (n dx), q = 0..n, the lattice sum of the weights is, by
    Poisson summation, the sum over aliases k_j = k + 2 pi j / dx of the
    Gaussian symbol exp(-sigma^2 k_j^2 / 2 - i k_j beta) times
    sinc^2(x_j) + (sin(k dx) / dx) sinc(x_j) (sinc(x_j) - cos(x_j)) / k_j,
    with x_j = k_j dx / 2: the two cell averages, and the in-cell linear part
    read through the central slope, whose symbol sin(k dx) / dx the lattice
    fold makes alias-free.  (-1)^q is gap_spectra's one-node delay.  The
    sum keeps, for each row, the aliases with exp(-sigma^2 ((2 |j| - 1) pi /
    dx)^2 / 2) >= _ALIAS_TOL, one alias at a time into one (k, n + 1) array.
    Alias j touches only the rows narrow enough to need it: a slab's sigma
    grows like the square root of the gap, so at small sigma_1 / dx the many
    aliases fall on few rows.

    The weights are the infinite lattice's, periodized at L = 2 n: they
    differ from the physical rows by the Gaussian's mass beyond n dx, a
    box-truncation tail.  With beta = 0 the rows are even and the spectra
    real, returned as a real array; otherwise each alias takes its phase.
    """
    sigma, beta = np.broadcast_arrays(np.asarray(sigma, dtype=float),
                                      np.asarray(beta, dtype=float))
    shape, sigma, beta = sigma.shape, sigma.reshape(-1), beta.reshape(-1)
    real = not np.any(beta)
    q = np.arange(n + 1)
    k = np.pi * q / (n * dx)
    # alias j has |k_j| >= (2 |j| - 1) pi / dx; row i needs it while
    # (2 |j| - 1) <= reach[i]
    reach = np.sqrt(-2.0 * np.log(_ALIAS_TOL)) * dx / (np.pi * sigma)
    n_alias = int(np.floor((reach.max() + 1.0) / 2.0))
    delay, slope = np.where(q % 2, -1.0, 1.0), np.sin(k * dx) / dx
    out = np.zeros((sigma.size, n + 1), dtype=float if real else complex)
    for j in range(-n_alias, n_alias + 1):
        rows = np.flatnonzero(reach >= 2 * abs(j) - 1)
        kj = k + 2.0 * np.pi * j / dx
        x = 0.5 * dx * kj
        s = np.sinc(x / np.pi)
        fold = np.divide(s - np.cos(x), kj, out=np.zeros_like(kj), where=kj != 0.0)
        term = np.exp(np.multiply.outer(-0.5 * np.square(sigma[rows]), np.square(kj)))
        term *= delay * s * (s + slope * fold)
        if not real:
            term = term * np.exp(-1j * np.multiply.outer(beta[rows], kj))
        out[rows] += term
    return out.reshape(shape + (n + 1,))


def _slope_block(sigma, beta, dx: float, n: int, out: np.ndarray) -> None:
    """slope_kernel_weights of one block of rows, written into out."""
    p = _lattice(-n - 1, n + 1, 0.5, dx, beta)
    F = _second_difference(p, _tail_antiderivatives(p, sigma[:, None])[0])
    np.divide(-np.diff(F, axis=-1), dx * dx, out=out)


def slope_kernel_weights(sigma, beta, dx: float, n: int) -> np.ndarray:
    """Gradient-kernel weights on cell means (the layout of smooth_weights).

    By parts, output cell i is sum_k s_k b[i - k] over the staggered slopes
    s_k = (f_k - f_{k-1}) / dx of the zero-extended field, with
    b[m] = -F((m + 1/2) dx - beta) / dx for m in [-n, n-1].  The slope
    difference is folded in, w[m] = (b[m] - b[m-1]) / dx, so application is
    one convolution with the cell means.  In the sigma -> 0 limit this
    reduces to minus the centered difference.  sigma and beta may be arrays
    of one shape (k,), giving (k, 2n - 1) rows, built in blocks of rows
    (_in_row_blocks).
    """
    return _in_row_blocks(_slope_block, sigma, beta, dx, n, 2 * n + 2)


def staggered_slopes(values: np.ndarray, dx: float) -> np.ndarray:
    """Slopes of the piecewise-linear interpolant along the last axis,
    zero-extended outside the box (length n + 1 per row): the unfolded form
    of slope_kernel_weights' source, kept as its cross-check."""
    return np.diff(values, axis=-1, prepend=0.0, append=0.0) / dx


def gap_spectra(stencil: np.ndarray) -> np.ndarray:
    """The spectra apply_spectra and the slab sweep (mild._sweep) multiply
    sources by, for a (..., 2n - 1) stack of value stencils: a slab
    operator's level gaps, one kernel row, or the physical slab-data
    smoothing rows, the oracle of smooth_symbols.  Returns the complex
    (..., n + 1) rfft rows at the circular length L = 2n.

    A full convolution of n values with 2n - 1 weights holds the n-node
    output on [n - 1, 2n - 1); the spectra are delayed by one node, moving it
    to [n, 2n).  The delayed convolution reaches at most node 3n - 2, so at
    the circular length L = 2n every term that wraps around lands at node
    n - 2 or below, outside the window.
    """
    length = stencil.shape[-1] + 1
    delay = np.exp(-2j * np.pi * np.arange(length // 2 + 1) / length)
    return rfft(stencil, length) * delay


def apply_spectra(spec: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Convolution along x of n-node sources src (..., n) with the stencils
    whose gap_spectra are spec (..., n + 1), on the n-node window; the two
    stacks broadcast against each other.  One rfft, one product, one irfft.
    """
    n = src.shape[-1]
    return irfft(rfft(src, 2 * n) * spec, 2 * n)[..., n : 2 * n]


def apply_mean_smooth(values: np.ndarray, sigma: float, beta: float, dx: float) -> np.ndarray:
    """One smoothing of cell means (smooth_weights); only tests and the tracer call it."""
    return apply_spectra(gap_spectra(smooth_weights(sigma, beta, dx, values.shape[-1])), values)


def apply_grad_smooth(values: np.ndarray, sigma: float, beta: float, dx: float) -> np.ndarray:
    """One gradient smoothing of cell means (slope_kernel_weights through
    apply_spectra).  Only tests call it: the run path applies the drift
    weights as slab spectra (mild.build_slab_stencils)."""
    return apply_spectra(gap_spectra(slope_kernel_weights(sigma, beta, dx, values.shape[-1])),
                         values)


class KernelModel:
    """Gaussian kernel of the linear flow, with derived domination constants.

    Parameters
    ----------
    a : constant diffusion coefficient a > 0
    b0 : constant base drift
    T : time horizon; constants are derived to hold over [0, T]
    constants : optional (C_u, c_u) override, bypassing the derivation
    """

    def __init__(self, a: float, b0: float = 0.0, T: float = 1.0, constants=None):
        if T <= 0:
            raise ValueError("T must be positive")
        self.T = float(T)
        self.a = float(a)
        self.b0 = float(b0)
        if not self.a > 0:
            raise ValueError(f"diffusion coefficient not positive: a={self.a}")
        if constants is not None:
            self.C_u, self.c_u = float(constants[0]), float(constants[1])
        else:
            self.C_u, self.c_u = self._derive_constants()

    # -- kernel moments -------------------------------------------------------

    def variance(self, s, t):
        """(t - s) a, the variance of p(s, x0, t, .); s or t may be arrays of
        start or end times, giving one variance each."""
        self._check_times(s, t)
        var = (t - s) * self.a
        return float(var) if np.ndim(var) == 0 else var

    def mean_shift(self, s, t):
        self._check_times(s, t)
        return (t - s) * self.b0

    def sigma_beta(self, s, t):
        """(std, drift shift) of p(s, x0, t, .) about x0; s or t may be arrays."""
        return np.sqrt(self.variance(s, t)), self.mean_shift(s, t)

    def _check_times(self, s, t):
        if not (np.all((0.0 <= s) & (s < t)) and np.all(t <= self.T + 1e-12)):
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

    def _derive_constants(self):
        dt = self.T
        var = self.variance(0.0, self.T)
        c_u = 1.0 / (4.0 * (var / dt))
        # density ratio p/q maximized at the mode
        K = np.sqrt(dt / (2.0 * c_u * var))
        # maximization of sqrt(dt) |x - mean| p / (var q)
        m = 1.0 / var - 2.0 * c_u / dt
        C_u = max(K, np.sqrt(dt) * K / (var * np.sqrt(m * np.e)))
        return C_u * (1.0 + 1e-9), c_u

    def verify_bounds(self, sample_count: int, seed: int):
        """Worst observed ratios p/(C_u q) and |grad p| sqrt(t-s)/(C_u q).

        Both are <= 1 when (C_u, c_u) witness the Gaussian domination bounds;
        a ratio above 1 is a verification failure reported to the caller, not
        an exception.
        """
        rng = np.random.Generator(np.random.Philox(key=seed))
        worst_p = 0.0
        worst_g = 0.0
        for _ in range(sample_count):
            s = rng.uniform(0.0, self.T)
            t = s + (self.T - s) * rng.uniform() ** 2
            if t <= s + 1e-12 * self.T:
                continue
            x0 = rng.uniform(-1.0, 1.0)
            z = rng.uniform(-6.0, 6.0) * np.sqrt(self.a * (t - s))
            x = x0 + self.mean_shift(s, t) + z
            q = self.q_density(s, x0, t, x)
            worst_p = max(worst_p, self.eval_p(s, x0, t, x) / (self.C_u * q))
            g = abs(self.eval_grad_p(s, x0, t, x))
            worst_g = max(worst_g, g * np.sqrt(t - s) / (self.C_u * q))
        return worst_p, worst_g

    # -- composition ----------------------------------------------------------

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


def kernel_for(problem) -> KernelModel:
    """Kernel of the linear part of a problem (a = Phi^2, drift b0)."""
    return KernelModel(problem.Phi**2, b0=problem.b0, T=problem.T)
