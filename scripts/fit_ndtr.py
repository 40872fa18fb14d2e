"""Fit the series of the standard normal CDF in mfklab.kernel.

    python3 scripts/fit_ndtr.py

kernel writes the upper tail Q(a) = 1 - Phi(a), a >= 0, as

    Q(a) = t / 2 * exp(-a^2 / 2) * P(t),   t = 2 / (2 + a / sqrt 2),

so that P(t) = erfcx(z) / t with z = a / sqrt 2 (erfcx the scaled
complementary error function): 1 at t = 1 (a = 0), 1 / (2 sqrt pi) at t = 0
(a -> inf).  The form is that of W. J. Cody, Math. Comp. 23 (1969) 631-637,
and of the erfc(z) = t exp(-z^2 + series) routines descended from it, with
the series taken in P itself so that the kernel needs one exp per value.

P is fitted as a Chebyshev series in 2t - 1 on t in [0, 1], by interpolation
at _NODES = 96 points of the first kind in mpmath at 50 digits, truncated to
_TERMS = 28.  The kernel evaluates it by Horner's rule in y = 4t - 2, so the
script rewrites the truncated series in powers of y, exactly, before
rounding to float64: on |y| <= 2 the terms' magnitudes sum to about 1.03
while P >= 0.28, so the power form loses nothing to cancellation.  The
constant term is then nudged by the rounding residual of the float64 sum at
y = 2 (t = 1), so that the kernel's ndtr(0) is exactly 0.5.  The script
prints the table in the layout of kernel._NDTR_POLY, the largest dropped
Chebyshev coefficient and the float64 series' largest relative error.

Nothing imports this script at run time; the accuracy gate is
tests/test_kernel.py, which checks ndtr against mpmath itself.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

_TERMS = 28
_NODES = 96


def series_target(t):
    """P(t) = erfcx(z) / t, z = 2 / t - 2 (t = 2 / (2 + z))."""
    if t == 0:
        return 1 / (2 * mp.sqrt(mp.pi))
    z = 2 / t - 2
    return mp.erfc(z) * mp.exp(z * z) / t


def chebyshev_fit(nodes: int):
    """Interpolation coefficients c_k, P(t) = sum_k c_k T_k(2t - 1), with the
    first coefficient not halved."""
    xs = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / nodes) for j in range(nodes)]
    fs = [series_target((x + 1) / 2) for x in xs]
    coeffs = []
    for k in range(nodes):
        s = mp.fsum(f * mp.cos(mp.pi * k * (j + mp.mpf(1) / 2) / nodes)
                    for j, f in enumerate(fs))
        coeffs.append(s * (1 if k == 0 else 2) / nodes)
    return coeffs


def powers_of_y(cheb):
    """a_j with sum_k c_k T_k(y / 2) = sum_j a_j y^j, in exact arithmetic:
    T_0 = 1, T_1 = y / 2, T_{k+1} = y T_k - T_{k-1} in the variable y / 2."""
    basis = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1) / 2]]
    while len(basis) < len(cheb):
        up = [mp.mpf(0)] + basis[-1]
        down = basis[-2] + [mp.mpf(0)] * (len(up) - len(basis[-2]))
        basis.append([u - d for u, d in zip(up, down)])
    out = [mp.mpf(0)] * len(cheb)
    for c, poly in zip(cheb, basis):
        for j, b in enumerate(poly):
            out[j] += c * b
    return out


def horner(coeffs, y):
    """The kernel's float64 sum: sum_j a_j y^j, highest power first."""
    p = coeffs[-1]
    for a in coeffs[-2::-1]:
        p = p * y + a
    return p


def main() -> None:
    mp.mp.dps = 50
    cheb = chebyshev_fit(_NODES)
    coeffs = [float(a) for a in powers_of_y(cheb[:_TERMS])]
    coeffs[0] += 1.0 - horner(coeffs, 2.0)  # P(1) = 1 in float64: ndtr(0) = 0.5
    assert horner(coeffs, 2.0) == 1.0
    print("_NDTR_POLY = (")
    for i in range(0, len(coeffs), 3):
        print("    " + " ".join(f"{c!r}," for c in coeffs[i : i + 3]))
    print(")")
    dropped = max(abs(float(c)) for c in cheb[_TERMS:])
    print(f"# largest dropped Chebyshev coefficient: {dropped:.3e}")
    # the float64 series against P itself on [0, 1]
    worst = max(float(abs(horner(coeffs, 4.0 * t - 2.0) - series_target(mp.mpf(t)))
                      / series_target(mp.mpf(t))) for t in np.linspace(0.0, 1.0, 2001))
    print(f"# largest relative error of the float64 series at 2001 points: {worst:.2e}")


if __name__ == "__main__":
    main()
