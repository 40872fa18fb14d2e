"""Arbitrate the two scalings of the explicit Burgers expectation formula.

The closed-form solution of u_t = (nu/2) u_xx - u u_x circulates in two
spellings that coincide only at nu = 1: argument x + nu B_t with exponent
U0/nu^2, and argument x + sqrt(nu) B_t with exponent U0/nu.  This experiment
compares both against the conservative finite-volume reference across
viscosities and prints which one tracks it.
"""

import numpy as np

from mfklab.grids import GridSpec
from mfklab.oracles import burgers_fd_reference, burgers_expectation_formula
from mfklab.problems import GaussianDensity
from mfklab.quadrature import trapezoid_weights


def main():
    u0 = GaussianDensity(0.0, 0.04)
    t = 0.5
    print(f"{'nu':>5} {'nu_squared':>12} {'cole_hopf':>12}   (l1 vs finite-volume, t={t})")
    for nu, R in ((0.5, 8.0), (1.0, 8.0), (2.0, 10.0), (4.0, 12.0)):
        grid = GridSpec(R=R, n_x=512, n_t=16, T=t, tau=t)
        ref = burgers_fd_reference(u0, nu, grid, refine=4)
        x = grid.x_nodes()
        w = trapezoid_weights(grid.n_x, grid.dx)
        k = grid.time_index(t)
        errs = {}
        for variant in ("nu_squared", "cole_hopf"):
            vals = burgers_expectation_formula(u0, nu, t, x, variant=variant)
            errs[variant] = float(np.dot(w, np.abs(vals - ref.values[k])))
        print(f"{nu:5.2f} {errs['nu_squared']:12.3e} {errs['cole_hopf']:12.3e}")
    print("\nthe sqrt(nu)-argument / nu-exponent scaling is the one that solves "
          "u_t = (nu/2) u_xx - u u_x; the other corresponds to viscosity nu^2")


if __name__ == "__main__":
    main()
