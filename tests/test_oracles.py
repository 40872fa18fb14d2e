import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfklab
from mfklab.grids import GridSpec
from mfklab.oracles import (
    _restrict,
    _restriction_stencil,
    burgers_fd_reference,
    burgers_expectation_formula,
    exp_mass_oracle,
    heat_oracle,
)
from mfklab.problems import GaussianDensity
from mfklab.quadrature import trapezoid_weights


def test_heat_oracle_values():
    # exact closed form: N(0, 1.04) at 0 is 1/sqrt(2 pi 1.04) = 0.3911951
    assert heat_oracle(0.0, 0.04, 1.0, 1.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi * 1.04), rel=1e-12)
    assert heat_oracle(0.0, 0.04, 1.0, 1.0, 0.0) == pytest.approx(0.391213, abs=1e-4)
    assert heat_oracle(0.0, 0.04, 1.0, 0.0, 0.0) == pytest.approx(1.994711, abs=1e-6)
    assert heat_oracle(0.0, 0.04, 1.0, 0.7, 0.9) == heat_oracle(0.0, 0.04, 1.0, 0.7, -0.9)


def test_heat_oracle_rejects_degenerate():
    with pytest.raises(ValueError):
        heat_oracle(0.0, 0.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        heat_oracle(0.0, 0.04, -1.0, 0.5, 0.0)


def test_exp_mass_values():
    assert exp_mass_oracle(0.5, 1.0) == pytest.approx(1.648721, abs=1e-6)
    assert exp_mass_oracle(0.0, 3.7) == 1.0
    assert exp_mass_oracle(-0.5, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestBurgersFormula:
    u0 = GaussianDensity(0.0, 0.04)

    def test_short_time_limit_returns_initial_density(self):
        x = np.linspace(-1, 1, 9)
        vals = burgers_expectation_formula(self.u0, 1.0, 1e-10, x)
        assert np.abs(vals - self.u0.pdf(x)).max() <= 1e-6

    def test_node_flip_consistency_at_origin(self):
        # for symmetric u0 the two expectations are invariant under flipping
        # the sign of every Gaussian quadrature node
        xg, wg = np.polynomial.hermite.hermgauss(200)
        t, nu = 0.5, 1.0
        for sgn in (1.0, -1.0):
            shift = sgn * math.sqrt(2 * t) * xg
            expo = -self.u0.cdf(shift) / nu
            expo -= expo.max()
            wts = wg * np.exp(expo)
            val = float((wts * self.u0.pdf(shift)).sum() / wts.sum())
            if sgn > 0:
                ref = val
        assert val == pytest.approx(ref, rel=1e-12)
        direct = burgers_expectation_formula(self.u0, nu, t, 0.0)
        assert direct == pytest.approx(ref, rel=1e-12)

    def test_translation_consistency(self):
        shifted = GaussianDensity(0.7, 0.04)
        x = np.linspace(-0.5, 0.5, 5)
        base = burgers_expectation_formula(self.u0, 1.0, 0.3, x)
        moved = burgers_expectation_formula(shifted, 1.0, 0.3, x + 0.7)
        assert np.abs(base - moved).max() <= 1e-10

    def test_finite_volume_arbitrates_the_scaling(self):
        # the sqrt(nu)-argument / nu-exponent (Cole-Hopf) scaling solves
        # u_t = (nu/2) u_xx - u u_x, checked away from nu = 1, where the
        # nu-argument / nu^2-exponent spelling would solve another equation
        nu = 2.0
        grid = GridSpec(R=8.0, n_x=512, n_t=16, T=0.5)
        ref = burgers_fd_reference(self.u0, nu, grid, refine=4)
        x = grid.x_nodes()
        w = trapezoid_weights(grid.n_x, grid.dx)
        k = grid.time_index(0.5)
        ch = burgers_expectation_formula(self.u0, nu, 0.5, x)
        err_ch = float(np.dot(w, np.abs(ch - ref.values[k])))
        assert err_ch <= 5e-3

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            burgers_expectation_formula(self.u0, 1.0, 0.0, 0.0)


class TestFdReference:
    u0 = GaussianDensity(0.0, 0.04)

    def test_mass_conserved_to_machine_level(self):
        grid = GridSpec(R=8.0, n_x=256, n_t=16, T=0.5)
        ref = burgers_fd_reference(self.u0, 1.0, grid, refine=4)
        masses = [ref.mass(k) for k in range(grid.n_t + 1)]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10

    def test_diffusion_dominated_regime_approaches_heat(self):
        # the gap to pure heat evolution is the first-order advective drift,
        # about sqrt(t)/(2 sqrt(pi nu)) in center of mass: 4.2e-2 at nu = 5,
        # shrinking like 1/nu
        errs = {}
        for nu, R in ((5.0, 10.0), (20.0, 16.0)):
            grid = GridSpec(R=R, n_x=512, n_t=8, T=0.25)
            ref = burgers_fd_reference(self.u0, nu, grid, refine=4)
            x = grid.x_nodes()
            w = trapezoid_weights(grid.n_x, grid.dx)
            k = grid.time_index(0.25)
            errs[nu] = float(np.dot(w, np.abs(ref.values[k] - heat_oracle(0.0, 0.04, nu, 0.25, x))))
        assert errs[5.0] <= 5e-2
        assert errs[20.0] <= 1.3e-2
        assert errs[20.0] < errs[5.0] / 3.0

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=2.0),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=64, max_value=128),
        st.integers(min_value=1, max_value=8),
    )
    def test_mass_conserved_property(self, nu, refine, n_x, n_t):
        # at T = 0.25 the mass outside [-7, 7] is below round-off, so the
        # restriction's truncated boundary windows lose none of it
        grid = GridSpec(R=8.0, n_x=n_x, n_t=n_t, T=0.25)
        ref = burgers_fd_reference(self.u0, nu, grid, refine=refine)
        masses = [ref.mass(k) for k in range(grid.n_t + 1)]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10

    def test_self_convergence_under_refinement(self):
        grid = GridSpec(R=8.0, n_x=256, n_t=8, T=0.5)
        a = burgers_fd_reference(self.u0, 1.0, grid, refine=4)
        b = burgers_fd_reference(self.u0, 1.0, grid, refine=8)
        w = trapezoid_weights(grid.n_x, grid.dx)
        worst = max(
            float(np.dot(w, np.abs(a.values[k] - b.values[k])))
            for k in range(grid.n_t + 1)
        )
        assert worst <= 1e-3

    def test_step_budget_guard(self):
        grid = GridSpec(R=8.0, n_x=2048, n_t=64, T=1.0)
        with pytest.raises(RuntimeError, match="stability"):
            burgers_fd_reference(self.u0, 1.0, grid, refine=8, max_steps=1000)

    def test_unstable_step_breaks_the_maximum_principle(self):
        grid = GridSpec(R=8.0, n_x=256, n_t=16, T=0.5)
        with pytest.raises(FloatingPointError, match=r"maximum principle at level 1 .*cfl \(now 1.2\)"):
            burgers_fd_reference(self.u0, 1.0, grid, refine=4, cfl=1.2)

    def test_nan_state_breaks_the_maximum_principle(self):
        class Spike:  # u^2 overflows in the first step, so the state turns NaN
            @staticmethod
            def cdf(x):
                return 1e200 * np.clip(np.asarray(x) + 0.5, 0.0, 1.0)

        grid = GridSpec(R=8.0, n_x=64, n_t=4, T=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"at level 1 .*u in \[nan, nan\]"):
                burgers_fd_reference(Spike(), 1.0, grid, refine=2, cfl=1e300)

    def test_identical_across_blas_threads(self):
        script = (
            "import sys\n"
            "from mfklab.grids import GridSpec\n"
            "from mfklab.oracles import burgers_fd_reference\n"
            "from mfklab.problems import GaussianDensity\n"
            "grid = GridSpec(R=8.0, n_x=256, n_t=8, T=0.5)\n"
            "ref = burgers_fd_reference(GaussianDensity(0.0, 0.04), 1.0, grid, refine=4)\n"
            "sys.stdout.buffer.write(ref.values.tobytes())\n"
        )
        src = str(Path(mfklab.__file__).resolve().parents[1])
        fields = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, check=True, timeout=300)
            fields.append(proc.stdout)
        assert len(fields[0]) == 9 * 256 * 8
        assert fields[0] == fields[1]


def _restrict_by_cells(fine, refine, n_coarse):
    """Per-cell overlap average, one coarse cell at a time: the oracle for _restrict."""
    if refine == 1:
        return fine.copy()
    half = refine // 2
    out = np.empty(n_coarse)
    for j in range(n_coarse):
        c = refine * j
        lo = max(c - half, 0)
        hi = min(c + half, len(fine) - 1)
        w = np.ones(hi - lo + 1)
        if refine % 2 == 0:  # even refine: the outermost fine cells overlap halfway
            if lo == c - half:
                w[0] = 0.5
            if hi == c + half:
                w[-1] = 0.5
        out[j] = np.dot(w, fine[lo : hi + 1]) / w.sum()
    return out


def _restrict_padded(fine, refine):
    return _restrict(*_restriction_stencil(np.pad(fine, refine // 2), refine))


@pytest.mark.parametrize("refine", [1, 2, 3, 4, 8])
def test_restrict_matches_per_cell_overlap(refine):
    n_coarse = 37
    rng = np.random.default_rng(refine)
    # large values at both ends, so the truncated boundary cells carry weight
    fine = rng.uniform(0.5, 2.0, refine * (n_coarse - 1) + 1)
    fine[:refine] *= 10.0
    fine[-refine:] *= 10.0
    got = _restrict_padded(fine, refine)
    want = _restrict_by_cells(fine, refine, n_coarse)
    assert got.shape == (n_coarse,)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(fine).max()


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 5, 8]),
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_restrict_preserves_mass(refine, n_coarse, seed):
    # fine data vanishing on the cells the boundary windows touch
    fine = np.random.default_rng(seed).uniform(-1.0, 1.0, refine * (n_coarse - 1) + 1)
    fine[:refine] = 0.0
    fine[-refine:] = 0.0
    coarse = _restrict_padded(fine, refine)
    dx_fine = 1.0 / (len(fine) - 1)
    fine_mass = float(trapezoid_weights(len(fine), dx_fine) @ fine)
    coarse_mass = float(trapezoid_weights(n_coarse, refine * dx_fine) @ coarse)
    assert abs(coarse_mass - fine_mass) <= 1e-13 * np.abs(fine).sum() * dx_fine
