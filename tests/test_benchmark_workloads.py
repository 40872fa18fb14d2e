"""The benchmark's own checks on its four workloads, run here too.

perfbench/child.py runs one workload through the CLI and marks it `ok` only
when the run exits 0, its gated quantity `err_ref` is within the config's
tolerance and its fields are within MAX_DU_TOL = 1e-9 of the recorded
perfbench/reference.  A change that moves an answer then fails here, not
only when the benchmark runs.  Each workload runs in its own process, as the
benchmark runs it, and never with --record.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["heat-validate", "burgers-validate", "frozen-battery",
                                      "mckean-closure"])
def test_benchmark_workload_is_ok(tmp_path, workload):
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           "--workload", workload, "--out", str(tmp_path / "out"),
                           "--result", str(result)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    checks = json.loads(result.read_text())
    assert checks["ok"], checks
