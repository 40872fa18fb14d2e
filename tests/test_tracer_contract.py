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
print(json.dumps({"status": status, "layers": tracer.layer_metrics()}))
"""


def test_tracer_wraps_live_names(tmp_path):
    cfg = tmp_path / "heat.cfg"
    cfg.write_text("experiment = validate\nproblem.preset = heat\ngrid.R = 7.0\n"
                   f"grid.n_x = 128\ngrid.n_t = 8\nout = {tmp_path}/out\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mfklab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    layers = result["layers"]
    assert layers["oracles._restrict.calls"] > 0
    assert layers["oracles.burgers_fd_reference.calls"] == 1
    assert layers["harness.run.calls"] == 1
    assert layers["harness.RunConfig.from_file.calls"] == 1
    assert layers["mild.solve.calls"] == 1
