"""The benchmark child (perfbench/child.py) reads the fields' CSV summaries.

Its `read_field_levels` takes the rows of `field.csv` and `mckean_field.csv`
as (k + 1) levels of n_x nodes, k a multiple of 4, and reads the levels k/4,
k/2, 3k/4 and k.  The five-level summary must give it the field's quarter
levels and T, which this test holds against the rows of the `.npy` files on a
small `validate` and a small `simulate-mckean` run.  The child is imported in
a subprocess because importing it pins thread counts in os.environ.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfklab.harness import RunConfig, run

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from child import read_field_levels

levels = {}
for path, n_x in json.loads(sys.argv[2]):
    t, u = read_field_levels(Path(path), n_x)
    levels[path] = [t.tolist(), u.tolist()]
print(json.dumps(levels))
"""

CONFIGS = {
    "validate": ("problem.preset = heat\ngrid.R = 7.0\ngrid.n_x = 128\ngrid.n_t = 16\n",
                 ["field"]),
    "simulate-mckean": ("problem.preset = burgers\ngrid.R = 8.0\ngrid.n_x = 64\n"
                        "grid.n_t = 16\nparticles.N = 2000\nparticles.dt = 0.0625\n",
                        ["field", "mckean_field"]),
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_child_reads_the_quarter_levels_of_the_field(tmp_path, kind):
    text, names = CONFIGS[kind]
    out = tmp_path / "out"
    assert run(RunConfig.from_text(f"experiment = {kind}\n{text}out = {out}\n")) == 0
    fields = {name: np.load(out / f"{name}.npy", allow_pickle=False) for name in names}
    wanted = [[str(out / f"{name}.csv"), u.shape[1]] for name, u in fields.items()]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
                           json.dumps(wanted)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    read = json.loads(proc.stdout)
    for name, u in fields.items():
        n_t = u.shape[0] - 1
        quarters = [n_t // 4, n_t // 2, 3 * n_t // 4, n_t]
        times, values = read[str(out / f"{name}.csv")]
        assert times == np.linspace(0.0, 1.0, n_t + 1)[quarters].tolist()  # T = 1 in both
        assert np.array_equal(values, u[quarters])
