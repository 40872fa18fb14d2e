"""Run one benchmark workload in this (fresh) process and check its outputs.

    python3 perfbench/child.py --workload NAME --out DIR --result FILE [--trace]
    python3 perfbench/child.py --workload NAME --out DIR --record

The experiment runs through `mfklab.cli.main`, exactly as `mfklab <kind>
--config ... --seed ... --threads 1` would.  Afterwards the child reads the
CSV artifacts back and derives:

* err_ref: the number the experiment gates on (worst per-time L1 against the
  oracle, max |z| of the battery, or L1 distance to the mild solution at T),
  with the config's own tolerance;
* max_du: max |difference| of the output fields at the compared levels (the
  quarter times and T) against the reference recorded in perfbench/reference;
* a SHA-256 digest of every CSV artifact.

`--record` stores the current outputs as the new reference instead.
The result file is JSON, read by run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: multi-threaded dot products sum in
# another order, and the closure's artifacts then differ in the last digits.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MFKLAB_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_DU_TOL = 1e-9  # absolute: admits round-off, not a changed answer

# name -> (experiment kind, particle seed passed via --seed; validate ignores it)
WORKLOADS = {
    "heat-validate": ("validate", 1234),
    "burgers-validate": ("validate", 1234),
    "frozen-battery": ("simulate-frozen", 1000),
    "mckean-closure": ("simulate-mckean", 7000),
}
# artifacts whose values at the compared levels are checked against the reference
FIELD_ARTIFACTS = {
    "heat-validate": ("field.csv",),
    "burgers-validate": ("field.csv",),
    "frozen-battery": ("field.csv",),
    "mckean-closure": ("field.csv", "mckean_field.csv"),
}


def config_path(workload: str) -> Path:
    return HERE / "workloads" / f"{workload}.cfg"


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.npz"


def _read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def read_field_levels(path: Path, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Times and values (4, n_x) of a `t,x1,u` artifact at the quarter levels and T."""
    rows = _read_lines(path)[1:]
    n_t = len(rows) // n_x - 1
    if n_t < 4 or len(rows) != (n_t + 1) * n_x or n_t % 4:
        raise ValueError(f"{path.name}: {len(rows)} rows do not form a field on {n_x} nodes")
    levels = [n_t // 4, n_t // 2, 3 * n_t // 4, n_t]
    times = np.array([float(rows[k * n_x].split(",", 1)[0]) for k in levels])
    values = np.array([[float(r.rsplit(",", 1)[1]) for r in rows[k * n_x : (k + 1) * n_x]]
                       for k in levels])
    return times, values


def read_outputs(workload: str, out: Path, config) -> dict:
    """Arrays compared against the reference: field levels and battery estimates."""
    arrays = {}
    for name in FIELD_ARTIFACTS[workload]:
        t, u = read_field_levels(out / name, config.n_x)
        arrays[f"{name}:t"] = t
        arrays[f"{name}:u"] = u
    if workload == "frozen-battery":
        rows = [r.split(",") for r in _read_lines(out / "functionals.csv")[1:]]
        arrays["functionals.csv:estimate"] = np.array([float(r[4]) for r in rows])
    return arrays


def err_ref(workload: str, out: Path, config) -> tuple[float, float]:
    """(value, tolerance) of the quantity the experiment gates on."""
    kind = WORKLOADS[workload][0]
    if kind == "validate":
        rows = [[float(v) for v in r.split(",")] for r in _read_lines(out / "comparison.csv")[1:]]
        T = rows[-1][0]
        wanted = config.compare_times
        picked = [l1 for t, l1, _ in rows
                  if (t > 0 if not wanted else any(abs(t - w) <= 1e-9 * T for w in wanted))]
        if not picked:
            raise ValueError("no comparison rows at the compared times")
        return max(picked), config.compare_l1
    if kind == "simulate-frozen":
        z = [float(r.rsplit(",", 1)[1]) for r in _read_lines(out / "functionals.csv")[1:]]
        return max(abs(v) for v in z), config.compare_z
    # simulate-mckean: trapezoid L1 distance at T between the particle and mild fields
    _, rec = read_field_levels(out / "mckean_field.csv", config.n_x)
    _, mild = read_field_levels(out / "field.csv", config.n_x)
    dx = 2.0 * config.R / (config.n_x - 1)
    w = np.full(config.n_x, dx)
    w[0] = w[-1] = 0.5 * dx
    return float(np.dot(w, np.abs(rec[-1] - mild[-1]))), config.compare_l1


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(out.glob("*.csv"))}


def max_du(arrays: dict, reference: dict) -> float:
    if set(arrays) != set(reference):
        raise ValueError(f"outputs {sorted(arrays)} differ from reference {sorted(reference)}")
    worst = 0.0
    for key, ref in reference.items():
        if arrays[key].shape != ref.shape:
            raise ValueError(f"{key}: shape {arrays[key].shape}, reference {ref.shape}")
        worst = max(worst, float(np.abs(arrays[key] - ref).max()))
    return worst


def run_workload(workload: str, out: Path, trace: bool, record: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import mfklab.cli  # noqa: E402 -- the import is part of the measured set-up

    from tracer import CONFIG_LOAD, ROOT as ROOT_SPAN, SPANS, Tracer

    tracer = Tracer()
    if trace:
        tracer.install_counters()
        tracer.install(SPANS)
    else:
        tracer.install([ROOT_SPAN, CONFIG_LOAD])
    kind, seed = WORKLOADS[workload]
    argv = [kind, "--config", str(config_path(workload)), "--out", str(out),
            "--seed", str(seed), "--threads", "1"]
    result = {"workload": workload, "ok": False}
    try:
        rc = mfklab.cli.main(argv)
    except Exception:  # an exception is a failed run, reported, never dropped
        result["error"] = traceback.format_exc(limit=4)
        return result
    finally:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["rc"] = rc
    result["setup_end"] = tracer.last_end.get(CONFIG_LOAD[0])
    result["wall_s"] = tracer.stats[ROOT_SPAN[0]][1]
    if trace:
        result["layers"] = tracer.layer_metrics()
    # re-read (untimed) for the grid size and the tolerances the checks use
    config = mfklab.cli.RunConfig.from_text(config_path(workload).read_text())
    arrays = read_outputs(workload, out, config)
    if record:
        np.savez_compressed(reference_path(workload), **arrays)
    with np.load(reference_path(workload), allow_pickle=False) as ref:
        result["max_du"] = max_du(arrays, dict(ref))
    result["err_ref"], result["err_tol"] = err_ref(workload, out, config)
    result["digests"] = digests(out)
    result["ok"] = (rc == 0 and result["err_ref"] <= result["err_tol"]
                    and result["max_du"] <= MAX_DU_TOL)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.out, args.trace, args.record)
    except Exception:
        result = {"workload": args.workload, "ok": False,
                  "error": traceback.format_exc(limit=4)}
    text = json.dumps(result, indent=1)
    if args.result is not None:
        args.result.write_text(text)
    else:
        print(text)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
