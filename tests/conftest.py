import pytest

from mfklab.mild import plan_grid, solve
from mfklab.oracles import burgers_fd_reference
from mfklab.problems import preset

ACCEPTANCE_TOL = 1e-8


@pytest.fixture(scope="session")
def burgers_setup():
    """Converged Burgers mild solve shared by the solver-side criteria."""
    problem = preset("burgers", nu=1.0, u0_var=0.04)
    grid = plan_grid(problem, R=8.0, n_x=512, n_t_min=1024)
    import time

    t0 = time.perf_counter()
    u, report = solve(problem, grid)
    wall = time.perf_counter() - t0
    return {"problem": problem, "grid": grid, "u": u,
            "report": report, "wall": wall, "tol": ACCEPTANCE_TOL}


@pytest.fixture(scope="session")
def burgers_reference(burgers_setup):
    """Finite-volume reference on the same grid."""
    import time

    t0 = time.perf_counter()
    ref = burgers_fd_reference(burgers_setup["problem"].u0, 1.0,
                               burgers_setup["grid"], refine=4)
    return {"ref": ref, "wall": time.perf_counter() - t0}
