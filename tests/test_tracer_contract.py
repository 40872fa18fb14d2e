"""The benchmark tracer (perfbench/tracer.py) wraps mfklab functions by name.

Renaming or removing one of those names breaks `perfbench/run.py --trace 1`
only, so this test installs the tracer as the benchmark child does and runs a
little of each traced path.  It runs in a subprocess because the tracer
replaces module attributes for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mfklab

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import SPANS, Tracer

tracer = Tracer()
tracer.install_counters()
tracer.install(SPANS)

from mfklab import harness, oracles
from mfklab.grids import GridSpec
from mfklab.problems import GaussianDensity

oracles.burgers_fd_reference(GaussianDensity(0.0, 0.04), 1.0, GridSpec(8.0, 64, 4, 0.25), refine=2)
config = harness.RunConfig.from_file(sys.argv[2])
status = harness.run(config)
if sys.argv[3:] == ["picard"]:  # mild.solve never sweeps: one Picard slab, perturbed
    from mfklab import mild
    from mfklab.grids import cell_means_from_cdf
    from mfklab.problems import preset
    problem = preset(config.preset_name, **config.problem_params)
    grid = mild.plan_grid(problem, config.R, config.n_x, config.n_t)
    mild.solve_slab(0.0, cell_means_from_cdf(problem.u0.cdf, grid), problem, grid,
                    mild.build_slab_stencils(problem, grid), perturb=0.1)
print(json.dumps({"status": status, "layers": tracer.layer_metrics()}))
"""


def _traced_validate(tmp_path, preset, R, n_x, n_t, picard=False):
    """Layer metrics of a traced `validate` run of the preset; with picard,
    the script also iterates the preset's first slab from a perturbed start."""
    cfg = tmp_path / f"{preset}.cfg"
    cfg.write_text(f"experiment = validate\nproblem.preset = {preset}\ngrid.R = {R}\n"
                   f"grid.n_x = {n_x}\ngrid.n_t = {n_t}\nout = {tmp_path}/out\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mfklab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(cfg),
                           *(["picard"] if picard else [])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    return result["layers"]


def test_tracer_wraps_live_names(tmp_path):
    layers = _traced_validate(tmp_path, "heat", 7.0, 128, 8)
    assert layers["oracles._restrict.calls"] > 0
    assert layers["oracles.burgers_fd_reference.calls"] == 1
    assert layers["harness.run.calls"] == 1
    assert layers["harness.RunConfig.from_file.calls"] == 1
    assert layers["mild.solve.calls"] == 1


def test_tracer_traces_the_drift_path(tmp_path):
    # heat has no drift: only a Burgers run reaches the gradient weights
    layers = _traced_validate(tmp_path, "burgers", 8.0, 128, 16, picard=True)
    assert layers["kernel.slope_kernel_weights.calls"] > 0
    assert layers["mild.picard_map.calls"] > 0
