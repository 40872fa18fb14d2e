"""Deterministic quadrature helpers.

The composite trapezoid rule on uniform nodes, and one rule for integrals
with an inverse-square-root endpoint singularity: with tau the distance to
the singular endpoint, the substitution tau = w**2 maps g(tau) dtau to the
integrand 2 w g(w**2) dw, bounded where g ~ 1/sqrt(tau), which a
Gauss-Legendre rule in w then integrates.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre nodes per interval of sqrt_tau_rule
_N_GL = 32


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for n uniformly spaced nodes."""
    if n < 2:
        raise ValueError("trapezoid rule needs at least 2 nodes")
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def sqrt_tau_rule(lo, hi):
    """Nodes w and weights of int_{lo^2}^{hi^2} g(tau) dtau = int_lo^hi 2 w g(w^2) dw.

    lo and hi broadcast; the result holds _N_GL Gauss-Legendre nodes in w on
    [lo, hi] along a new last axis, and the weights carry the 2 w Jacobian,
    so sum(weights * g(w**2)) is the integral.  The nodes are interior, so g
    is never evaluated at tau = lo^2 or hi^2.
    """
    x, wx = np.polynomial.legendre.leggauss(_N_GL)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    w = 0.5 * (hi + lo) + half * x
    return w, 2.0 * w * half * wx


def beta_half_half_quad(delta: float) -> float:
    """Quadrature of int_0^delta ds / sqrt((delta - s) s); the exact value is pi.

    The integrand is symmetric about delta / 2, so this is twice the half
    over [0, delta / 2], taken in w = sqrt(s).
    """
    w, wt = sqrt_tau_rule(0.0, np.sqrt(0.5 * delta))
    s = w * w
    return 2.0 * float(np.dot(wt, 1.0 / np.sqrt((delta - s) * s)))
