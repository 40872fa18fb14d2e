"""Deterministic quadrature helpers.

Composite Newton-Cotes rules on uniform nodes, and integrals with
inverse-square-root endpoint singularities handled by the substitution
s = b - w**2 (resp. s = a + w**2), which maps g(s)/sqrt(b - s) to the bounded
integrand 2*g(b - w**2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for n uniformly spaced nodes."""
    if n < 2:
        raise ValueError("trapezoid rule needs at least 2 nodes")
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; n must be odd and >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def sqrt_singular_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n: int = 4097,
    singular: str = "upper",
) -> float:
    """Integrate f over [a, b] where f blows up like an inverse square root.

    singular: "upper" for f ~ g/sqrt(b-s), "lower" for f ~ g/sqrt(s-a), "both"
    to split at the midpoint and substitute on each half.  f must accept an
    ndarray of interior points; the singular endpoints are never evaluated.
    """
    if singular == "both":
        mid = 0.5 * (a + b)
        return sqrt_singular_quad(f, a, mid, n, "lower") + sqrt_singular_quad(
            f, mid, b, n, "upper"
        )
    if singular not in ("upper", "lower"):
        raise ValueError("singular must be 'upper', 'lower' or 'both'")
    # composite midpoint in w: the substituted integrand 2 w f is bounded but
    # may be nonzero at w = 0 (f carrying a second singularity), so no
    # endpoint is ever evaluated
    W = np.sqrt(b - a)
    h = W / n
    w = (np.arange(n) + 0.5) * h
    s = b - w**2 if singular == "upper" else a + w**2
    return float(np.dot(2.0 * w * h, f(s)))


def beta_half_half_quad(delta: float, n: int = 4097) -> float:
    """Quadrature of int_0^delta dw / sqrt((delta - w) * w); the exact value is pi."""
    return sqrt_singular_quad(
        lambda s: 1.0 / np.sqrt((delta - s) * s), 0.0, delta, n=n, singular="both"
    )

