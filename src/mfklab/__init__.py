"""mfklab: a solver laboratory for McKean-Feynman-Kac equations.

Two independent realizations of the same object -- the bounded mild solution
of a nonconservative semilinear Fokker-Planck equation and the weighted
particle system coupled to it -- cross-validated against closed-form and
finite-volume oracles.
"""

from .grids import Field, GridSpec
from .kernel import KernelModel, kernel_for
from .mild import (
    SolveReport,
    estimate_slab_tau,
    picard_map,
    solve,
    solve_linearized,
    solve_slab,
    weak_residual,
)
from .oracles import burgers_cell_means, burgers_fd_reference, exp_mass_oracle, heat_oracle
from .particles import (
    DensityEstimate,
    ParticleEnsemble,
    density_estimate,
    simulate_frozen,
    solve_selfconsistent,
    weighted_functional,
)
from .problems import (
    GaussianDensity,
    ProblemSpec,
    SmoothTestFunction,
    apply_generator,
    preset,
    smooth_test_functions,
)

__all__ = [
    "Field",
    "GridSpec",
    "KernelModel",
    "kernel_for",
    "SolveReport",
    "estimate_slab_tau",
    "picard_map",
    "solve",
    "solve_linearized",
    "solve_slab",
    "weak_residual",
    "burgers_cell_means",
    "burgers_fd_reference",
    "exp_mass_oracle",
    "heat_oracle",
    "DensityEstimate",
    "ParticleEnsemble",
    "density_estimate",
    "simulate_frozen",
    "solve_selfconsistent",
    "weighted_functional",
    "GaussianDensity",
    "ProblemSpec",
    "SmoothTestFunction",
    "apply_generator",
    "preset",
    "smooth_test_functions",
]

__version__ = "0.1.0"
