"""Mutation checks: each known fault, put back into a copy of the tree, must
fail the tests named for it.

    python3 scripts/mutants.py

Each entry of MUTANTS gives a file, the exact old text, the new text and the
tests (pytest node ids, a test function standing for all its parameter
cases) that must fail.  For each entry the script copies the working tree
(src, tests, scripts, perfbench, configs and pyproject.toml) to a temporary
directory, replaces the old text, which must occur exactly once, runs the
named tests there in one pytest process, and reports the entry killed when
every named test fails.  A test that passes is a survivor.  An entry whose
old text is gone or repeated fails at once, before anything runs, so the
list has to follow every refactor of the code it mutates.  The exit status
is 0 only when every mutant is killed.

The run takes about 25 s, so tier-1 does not run it; it checks only
that every entry still applies (tests/test_mutants.py).  A change to the
mild or particle path runs it and quotes its output in CHANGES.md.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "scripts", "perfbench", "configs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


KERNEL, MILD, ORACLES = "src/mfklab/kernel.py", "src/mfklab/mild.py", "src/mfklab/oracles.py"
HARNESS = "src/mfklab/harness.py"
SYMBOLS_ORACLE = "tests/test_kernel.py::test_smooth_symbols_are_the_spectra_of_the_weight_rows"
FINE_RULE = ("tests/test_oracles.py::TestBurgersFormula::"
             "test_panels_sized_to_the_kernel_match_the_fixed_fine_rule")
RELEASED = "tests/test_harness.py::test_particle_runs_release_the_field_levels_they_do_not_read"

MUTANTS = (
    Mutant("symbol without the slope fold", KERNEL,
           "term *= delay * s * (s + slope * fold)", "term *= delay * s * s",
           (SYMBOLS_ORACLE,
            "tests/test_mild.py::test_slab_stencils_are_the_spectra_of_the_slab_weights")),
    Mutant("symbol without aliases", KERNEL,
           "n_alias = int(np.floor((reach.max() + 1.0) / 2.0))", "n_alias = 0",
           (SYMBOLS_ORACLE,
            "tests/test_mild.py::test_slab_stencils_are_the_spectra_of_the_slab_weights")),
    Mutant("symbol drops each row's last aliases", KERNEL,
           "rows = np.flatnonzero(reach >= 2 * abs(j) - 1)",
           "rows = np.flatnonzero(reach >= 4 * abs(j) - 1)",
           (SYMBOLS_ORACLE,)),
    Mutant("symbol phase of the wrong sign", KERNEL,
           "np.exp(-1j * np.multiply.outer(beta[rows], kj))",
           "np.exp(1j * np.multiply.outer(beta[rows], kj))",
           (SYMBOLS_ORACLE, "tests/test_mild.py::test_base_drift_shifts_the_heat_solution")),
    Mutant("symbol without the one-node delay", KERNEL,
           "delay, slope = np.where(q % 2, -1.0, 1.0), np.sin(k * dx) / dx",
           "delay, slope = 1.0, np.sin(k * dx) / dx",
           (SYMBOLS_ORACLE, "tests/test_mild.py::test_slab_data_smoothing_gaussian_closed_form",
            "tests/test_mild.py::TestSolve::test_heat_matches_oracle")),
    Mutant("sources one gap late", MILD,
           "acc[ell - 1:] += spec[: m - ell + 1]", "acc[ell:] += spec[: m - ell]",
           ("tests/test_mild.py::test_slab_operator_matches_per_level_sums",
            "tests/test_mild.py::test_solve_matches_the_2d_convolution_sweep")),
    Mutant("sweep reads a stale copy of state.v", MILD,
           "v, u0hat = state.v, state.u0hat", "v, u0hat = state.v.copy(), state.u0hat",
           ("tests/test_mild.py::test_in_place_sweep_is_the_fixed_point_of_m_sweeps",)),
    Mutant("picard_map run in place", MILD,
           "return _sweep(state, problem, np.zeros_like(state.v))",
           "return _sweep(state, problem, state.v)",
           ("tests/test_mild.py::test_slab_operator_matches_per_level_sums",
            "tests/test_mild.py::test_solve_matches_the_2d_convolution_sweep")),
    Mutant("Cole-Hopf panels not capped at 5 sqrt(nu t)", ORACLES,
           "while 2.0 * h <= min(5.0 * s, mass / _CH_MASS_PANELS):",
           "while 2.0 * h <= mass / _CH_MASS_PANELS:",
           (FINE_RULE,)),
    Mutant("Cole-Hopf panels without the floor of panels across the mass", ORACLES,
           "while 2.0 * h <= min(5.0 * s, mass / _CH_MASS_PANELS):",
           "while 2.0 * h <= 5.0 * s:",
           (FINE_RULE, "tests/test_oracles.py::TestBurgersFormula::test_two_resolutions_agree")),
    Mutant("Cole-Hopf panels across the remainder's support, not u0's mass", ORACLES,
           "h = _panel_width(s, mass)", "h = _panel_width(s, 2 * support * _CH_PANEL)",
           (FINE_RULE,)),
    Mutant("row blocks of the weight builders drop their last row", KERNEL,
           "block(sigma[i : i + step], beta[i : i + step], dx, n, rows[i : i + step])",
           "block(sigma[i : i + step - 1], beta[i : i + step - 1], dx, n, rows[i : i + step - 1])",
           ("tests/test_kernel.py::test_weight_rows_in_blocks_are_the_one_row_weights",)),
    Mutant("Gaussian level blocks of the exact cells drop their last level", ORACLES,
           "block = gauss_rows[i : i + step]", "block = gauss_rows[i : i + step - 1]",
           ("tests/test_oracles.py::test_exact_cell_means_batched_are_the_per_level_rows",)),
    Mutant("frozen march reads the field one level late", HARNESS,
           "Field(steps, u.values[:: grid.n_t // steps.n_t].copy())",
           "Field(steps, np.roll(u.values, -1, axis=0)[:: grid.n_t // steps.n_t].copy())",
           ("tests/test_harness.py::test_frozen_battery_is_that_of_the_whole_field",)),
    Mutant("frozen levels kept as a view of the whole field", HARNESS,
           "u.values[:: grid.n_t // steps.n_t].copy()", "u.values[:: grid.n_t // steps.n_t]",
           (RELEASED,)),
    Mutant("closure compared with the level before T", HARNESS,
           "u_T = u.values[-1:].copy()", "u_T = u.values[-2:-1].copy()",
           ("tests/test_harness.py::test_mckean_distance_is_to_the_last_level_of_the_field",)),
    Mutant("whole field kept alive through the closure", HARNESS,
           "u_T = u.values[-1:].copy()\n        del u\n", "u_T = u.values[-1:].copy()\n",
           (RELEASED,)),
)


def check_applies(mutant: Mutant, root: Path = ROOT) -> None:
    """Raise ValueError unless the mutant's old text occurs exactly once."""
    count = (root / mutant.path).read_text().count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name!r}: its old text occurs {count} times "
                         f"in {mutant.path}, not once")


def _failed(output: str, test: str) -> bool:
    """Whether pytest's -rf summary lists the test, or any of its parameter cases."""
    return re.search(rf"^FAILED {re.escape(test)}(\[| |$)", output, re.M) is not None


def run(mutant: Mutant) -> list[str]:
    """The named tests that pass with the mutant applied: its survivors."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for entry in TREE:
            src = ROOT / entry
            if src.is_dir():
                shutil.copytree(src, copy / entry, ignore=ignore)
            else:
                shutil.copy2(src, copy / entry)
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 0: all passed, 1: some failed
        raise RuntimeError(f"mutant {mutant.name!r}: pytest exited {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return [test for test in mutant.tests if not _failed(proc.stdout, test)]


def main() -> int:
    for mutant in MUTANTS:
        check_applies(mutant)
    survived = 0
    for mutant in MUTANTS:
        survivors = run(mutant)
        survived += bool(survivors)
        verdict = ("SURVIVED " + ", ".join(survivors) if survivors
                   else f"killed by all {len(mutant.tests)} named tests")
        print(f"{mutant.name} ({mutant.path}): {verdict}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
