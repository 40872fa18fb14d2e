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
from mfklab import oracles
from mfklab.grids import GridSpec, cell_means_from_cdf
from mfklab.oracles import (
    burgers_cell_means,
    burgers_fd_reference,
    exact_cell_means,
    exp_mass_oracle,
    heat_oracle,
)
from mfklab.problems import GaussianDensity, preset
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


def test_exact_cell_means_per_preset():
    grid = GridSpec(R=8.0, n_x=257, n_t=4, T=1.0)
    growth = exact_cell_means(preset("exponential_growth", lam=0.5), grid, [4, 0])
    assert growth.sum(axis=1) * grid.dx == pytest.approx([math.exp(0.5), 1.0], rel=1e-12)
    # the rate is read from the problem's coefficient: the preset default, or lam
    for problem, rate in ((preset("exponential_growth"), 0.5),
                          (preset("exponential_growth", lam=-0.3), -0.3)):
        mass = exact_cell_means(problem, grid, [4]).sum() * grid.dx
        assert mass == pytest.approx(math.exp(rate), rel=1e-12)
    burgers = preset("burgers")
    rows = exact_cell_means(burgers, grid, [0, 2])
    assert np.array_equal(rows[0], cell_means_from_cdf(burgers.u0.cdf, grid))
    assert np.array_equal(rows[1], burgers_cell_means(burgers.u0, 1.0, 0.5, grid))
    with pytest.raises(ValueError, match="logistic_fkpp"):
        exact_cell_means(preset("logistic_fkpp"), grid, [1])


@pytest.mark.parametrize("name", ["heat", "exponential_growth"])
def test_exact_cell_means_batched_are_the_per_level_rows(name):
    # every level in one broadcast CDF, against one Gaussian density per level
    problem = preset(name)
    grid = GridSpec(R=7.0, n_x=512, n_t=64, T=problem.T)
    levels = [0, 1, 17, 32, 63, 64]
    nu, lam = problem.Phi**2, float(problem.Lambda(0.0, 0.0, 0.0))
    expect = np.array([cell_means_from_cdf(GaussianDensity(problem.u0.mean,
                                                           problem.u0.var + nu * t).cdf, grid)
                       * exp_mass_oracle(lam, t) for t in grid.times()])
    assert np.array_equal(exact_cell_means(problem, grid, levels), expect[levels])
    # all 65 levels span three blocks of 31: each seam level is checked
    assert np.array_equal(exact_cell_means(problem, grid, range(65)), expect)


class TestBurgersFormula:
    u0 = GaussianDensity(0.0, 0.04)
    grid = GridSpec(R=8.0, n_x=512, n_t=1024, T=1.0, n_slabs=256)

    def test_short_time_limit_returns_initial_density(self):
        # the distance to u0's cell means is t times the L1 norm of u_t: 12.8 t
        w = trapezoid_weights(self.grid.n_x, self.grid.dx)
        initial = cell_means_from_cdf(self.u0.cdf, self.grid)
        for t in (3e-5, 1e-4, 1e-3):
            cells = burgers_cell_means(self.u0, 1.0, t, self.grid)
            assert float(np.dot(w, np.abs(cells - initial))) <= 13.0 * t

    def test_translation_consistency(self):
        # a shift by 7 cells moves the cells by 7 places, though the split of
        # exp(-U0/nu) stays at 0
        grid = GridSpec(R=3.5, n_x=71, n_t=1, T=1.0)
        base = burgers_cell_means(self.u0, 1.0, 0.3, grid)
        moved = burgers_cell_means(GaussianDensity(0.7, 0.04), 1.0, 0.3, grid)
        assert np.abs(base[:-7] - moved[7:]).max() <= 1e-12

    def test_wide_and_offcentre_u0(self):
        # sd 0.6, moved by 3: the rule's interval follows u0 inside the box
        grid = GridSpec(R=8.0, n_x=161, n_t=1, T=1.0)
        base = burgers_cell_means(GaussianDensity(0.0, 0.36), 1.0, 0.3, grid)
        moved = burgers_cell_means(GaussianDensity(3.0, 0.36), 1.0, 0.3, grid)
        assert abs(base.sum() * grid.dx - 1.0) <= 1e-12
        assert np.abs(base[:-30] - moved[30:]).max() <= 1e-12

    def test_mass_is_one_up_to_box_tails(self):
        for t in (0.25, 1.0):
            cells = burgers_cell_means(self.u0, 1.0, t, self.grid)
            assert abs(cells.sum() * self.grid.dx - 1.0) <= 1e-13

    def test_two_resolutions_agree(self, monkeypatch):
        # the panels the rule picks at each t (0.4: 8 across u0's mass) against
        # panels half as wide
        rule, widths = oracles._panel_width, []

        def picked(s, mass):
            widths.append(rule(s, mass))
            return widths[-1]

        monkeypatch.setattr(oracles, "_panel_width", picked)
        coarse = [burgers_cell_means(self.u0, 1.0, t, self.grid) for t in (0.25, 0.5, 1.0)]
        assert widths == [16 * oracles._CH_PANEL] * 3
        monkeypatch.setattr(oracles, "_panel_width", lambda s, mass: 0.5 * rule(s, mass))
        for t, cells in zip((0.25, 0.5, 1.0), coarse):
            fine = burgers_cell_means(self.u0, 1.0, t, self.grid)
            assert np.abs(fine - cells).max() <= 1e-13

    @pytest.mark.parametrize("nu, bound", [(0.1, 2e-11), (1.0, 2e-13), (2.0, 2e-13)])
    def test_panels_sized_to_the_kernel_match_the_fixed_fine_rule(self, nu, bound, monkeypatch):
        # u0 centred, off-centre and far off-centre, narrow to wide, from the
        # short-time floor to t = 1; measured at most 1.5e-11 at nu = 0.1 and
        # 1.2e-13 at nu = 1 and 2 (round-off of the log differences)
        grid = GridSpec(R=8.0, n_x=256, n_t=1, T=1.0)
        cases = [(GaussianDensity(mean, var), t) for mean in (0.0, 0.7, 3.0)
                 for var in (0.0025, 0.04, 0.36)
                 for t in np.geomspace((0.2 * oracles._CH_PANEL) ** 2 / nu, 1.0, 6)]
        rule, picks = oracles._panel_width, []  # (width, whether 5 sqrt(nu t) binds)

        def picked(s, mass):
            picks.append((rule(s, mass), 5.0 * s < mass / oracles._CH_MASS_PANELS))
            return picks[-1][0]

        monkeypatch.setattr(oracles, "_panel_width", picked)
        with monkeypatch.context() as fixed:
            fixed.setattr(oracles, "_CH_MASS_PANELS", 10**9)
            fine = [burgers_cell_means(u0, nu, t, grid) for u0, t in cases]
        assert {width for width, _ in picks} == {oracles._CH_PANEL}  # the fixed fine rule
        picks.clear()
        for (u0, t), ref in zip(cases, fine):
            assert np.abs(burgers_cell_means(u0, nu, t, grid) - ref).max() <= bound
        assert {binds for _, binds in picks} == {True, False}  # each limit binds in some case
        assert max(width for width, _ in picks) >= 16 * oracles._CH_PANEL

    def test_small_nu_accepted_within_its_rounding_of_the_fixed_fine_rule(self, monkeypatch):
        # nu = 0.03 at T/4: 128 nodes give a rounding bound of 1.6e-7, so the
        # rule accepts; 2048 fixed fine nodes give 2.1e-6, which it would
        # refuse.  Measured 2.1e-9 apart
        limit = oracles._CH_ROUNDING
        cells = burgers_cell_means(self.u0, 0.03, 0.25, self.grid)
        monkeypatch.setattr(oracles, "_CH_MASS_PANELS", 10**9)
        monkeypatch.setattr(oracles, "_CH_ROUNDING", math.inf)
        fine = burgers_cell_means(self.u0, 0.03, 0.25, self.grid)
        assert np.abs(cells - fine).max() <= limit

    def test_finite_volume_arbitrates_the_scaling(self):
        # the sqrt(nu)-argument / nu-exponent (Cole-Hopf) scaling solves
        # u_t = (nu/2) u_xx - u u_x, checked away from nu = 1, where the
        # nu-argument / nu^2-exponent spelling would solve another equation
        nu = 2.0
        grid = GridSpec(R=8.0, n_x=512, n_t=16, T=0.5)
        ref = burgers_fd_reference(self.u0, nu, grid, refine=4)
        w = trapezoid_weights(grid.n_x, grid.dx)
        k = grid.time_index(0.5)
        ch = burgers_cell_means(self.u0, nu, 0.5, grid)
        err_ch = float(np.dot(w, np.abs(ch - ref.values[k])))
        assert err_ch <= 5e-3

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="sqrt"):
            burgers_cell_means(self.u0, 1.0, 0.0, self.grid)
        with pytest.raises(ValueError, match="sqrt"):  # the rule would not resolve the kernel
            burgers_cell_means(self.u0, 1.0, 1e-6, self.grid)

    @pytest.mark.parametrize("u0, nu, t, match", [
        (GaussianDensity(7.5, 0.04), 1.0, 0.5, r"outside the grid box \[-8, 8\]"),
        # theta falls to e^{-1/nu} right of the mass, where its closed-form
        # terms cancel against the integral: at nu = 0.001 it underflows, at
        # 0.01 the cancellation leaves it <= 0, at 0.025 its rounding bound
        # in a cell average is 6.0e-6 (1.6e-7 at 0.03, which passes)
        (u0, 0.001, 1.0, "nu = 0.001 is too small for the exact rule"),
        (u0, 0.01, 1.0, "nu = 0.01 is too small for the exact rule"),
        (u0, 0.025, 0.25, "nu = 0.025 is too small for the exact rule"),
    ], ids=["mass-outside-box", "nu-0.001", "nu-0.01", "nu-0.025"])
    def test_rejects_inputs_outside_the_rule(self, u0, nu, t, match):
        with pytest.raises(ValueError, match=match):
            burgers_cell_means(u0, nu, t, self.grid)


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
        # zero-flux outer edges of the box hold all of it
        grid = GridSpec(R=8.0, n_x=n_x, n_t=n_t, T=0.25)
        ref = burgers_fd_reference(self.u0, nu, grid, refine=refine)
        masses = [ref.mass(k) for k in range(grid.n_t + 1)]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10

    @pytest.mark.parametrize("refine", [1, 2, 3, 4, 8])
    def test_starts_from_exact_cells(self, refine):
        # the sub-cells tile the cells, so level 0 is the exact cell averages
        # of u0 up to the rounding of the sub-cell edges
        grid = GridSpec(R=8.0, n_x=128, n_t=1, T=0.25)
        ref = burgers_fd_reference(self.u0, 1.0, grid, refine=refine)
        exact = cell_means_from_cdf(self.u0.cdf, grid)
        w = trapezoid_weights(grid.n_x, grid.dx)
        assert float(np.dot(w, np.abs(ref.values[0] - exact))) <= 1e-14

    def test_matches_exact_cells(self, burgers_reference):
        # measured 7.73e-6, 5.75e-6 and 4.17e-6 at refine 4 on 512x1024
        ref = burgers_reference["ref"]
        grid = ref.grid
        w = trapezoid_weights(grid.n_x, grid.dx)
        for t in (0.25, 0.5, 1.0):
            exact = burgers_cell_means(self.u0, 1.0, t, grid)
            assert float(np.dot(w, np.abs(ref.values[grid.time_index(t)] - exact))) <= 1e-5

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
            "from mfklab.oracles import burgers_cell_means, burgers_fd_reference\n"
            "from mfklab.problems import GaussianDensity\n"
            "grid = GridSpec(R=8.0, n_x=256, n_t=8, T=0.5)\n"
            "u0 = GaussianDensity(0.0, 0.04)\n"
            "ref = burgers_fd_reference(u0, 1.0, grid, refine=4)\n"
            "sys.stdout.buffer.write(ref.values.tobytes())\n"
            "sys.stdout.buffer.write(burgers_cell_means(u0, 1.0, 0.5, grid).tobytes())\n"
        )
        src = str(Path(mfklab.__file__).resolve().parents[1])
        fields = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, check=True, timeout=300)
            fields.append(proc.stdout)
        assert len(fields[0]) == 10 * 256 * 8
        assert fields[0] == fields[1]
