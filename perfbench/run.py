"""mfklab experiment benchmark: whole experiments, timed as users run them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh single-threaded process (perfbench/child.py) that
runs one experiment through the mfklab CLI and checks its outputs.  Runs are
sequential.  Repetitions start until --seconds have passed (at least one); when
fewer than three ran, set-up-only probes bring the set-up samples to three.

--trace 0 reports the end-to-end metrics (medians over repetitions):
wall_s (harness.run), setup_s (process start through imports and config
load), peak_rss_mb and err_ref (the quantity the experiment gates on).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, with trace_overhead_s = traced minus
untraced wall_s, max_du and fail_frac.

Every repetition is checked: exit status 0, err_ref within the config's own
tolerance, max |du| of the output fields against perfbench/reference within
1e-9, and artifact digests identical across repetitions.  A repetition that
fails any check counts in `failed`; none is dropped.  The workloads are fixed
experiments (their particle seeds are part of the definition, so outputs can
be checked against the committed reference); --seed names the run and is
echoed, it does not change the inputs.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import ROOT, WORKLOADS, config_path  # also pins the thread counts

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 60  # a repetition takes about 12 s on 2 cores
MIN_SETUPS = 3
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import time, mfklab.cli; "
               "mfklab.cli.RunConfig.from_file(sys.argv[2]); print(time.perf_counter())")


def setup_probe(workload: str) -> float:
    """Seconds from launch through `import mfklab.cli` and the config load."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"),
                           str(config_path(workload))],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def repetition(workload: str, work: Path, index: int, trace: bool) -> dict:
    out = work / f"rep{index}"
    result_file = work / f"rep{index}.json"
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--out", str(out),
           "--result", str(result_file)] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        status, output = proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:]
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        status, output = f"timeout after {CHILD_TIMEOUT_S} s", ""
    try:
        result = json.loads(result_file.read_text())
    except (OSError, ValueError):
        result = {"ok": False, "error": "no result"}
    if status != 0 or not result["ok"]:
        result["ok"] = False
        sys.stderr.write(f"repetition {index} failed (exit {status}): "
                         f"{result.get('error', '')}\n{output}\n")
    if result.get("setup_end") is not None:
        result["setup_s"] = result["setup_end"] - t0
    result["trace"] = trace
    shutil.rmtree(out, ignore_errors=True)
    return result


def measure(workload: str, seconds: float, trace: bool, work: Path):
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline or (trace and len(reps) < 2):
        reps.append(repetition(workload, work, len(reps), trace and len(reps) % 2 == 1))
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(setup_probe(workload))
    return reps, setups


def _median(reps, key):
    """Median over the repetitions that measured `key`, failed ones included."""
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(reps, setups) -> dict:
    return {
        "wall_s": (_median(reps, "wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_median(reps, "peak_rss_mb"), "MB"),
        "err_ref": (_median(reps, "err_ref"), "1"),
    }


def per_layer(reps) -> dict:
    traced = [r for r in reps if "layers" in r]
    plain = [r for r in reps if not r["trace"]]
    units = {"calls": "count", "s": "s", "self_s": "s", "distinct_frac": "ratio",
             "sweeps_per_slab": "count", "bytes": "B", "step_rate": "1/s",
             "trajectory_mb": "MB_computed"}
    out = {}
    for name in (traced[0]["layers"] if traced else ()):
        value = statistics.median(r["layers"][name] for r in traced)
        out[name] = (value, units[name.rsplit(".", 1)[1]])
    out["trace_overhead_s"] = (_median(traced, "wall_s") - _median(plain, "wall_s"), "s")
    out["max_du"] = (max((r["max_du"] for r in reps if "max_du" in r), default=0.0), "abs")
    out["fail_frac"] = (sum(not r["ok"] for r in reps) / len(reps), "ratio")
    return out


def report(workload: str, seed: int, reps, metrics) -> dict:
    """Human-readable lines on stdout, then the result object."""
    failed = sum(not r["ok"] for r in reps)
    digest_sets = {json.dumps(r.get("digests"), sort_keys=True) for r in reps if r["ok"]}
    deterministic = len(digest_sets) <= 1
    for i, r in enumerate(reps):
        print(f"{workload} seed={seed} rep={i} trace={int(r['trace'])} ok={r['ok']} "
              f"wall_s={r.get('wall_s', float('nan')):.4f} "
              f"setup_s={r.get('setup_s', float('nan')):.4f} "
              f"err_ref={r.get('err_ref', float('nan')):.17g} "
              f"max_du={r.get('max_du', float('nan')):.3g} digests={r.get('digests')}")
    if not deterministic:
        print(f"{workload}: artifact digests differ between repetitions")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload}: {len(reps)} repetitions, {failed} failed")
    return {"correct": failed == 0 and deterministic, "attempted": len(reps), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mfklab" / "cli.py").is_file():
        print(f"mfklab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reps, setups = measure(args.workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = per_layer(reps) if args.trace else end_to_end(reps, setups)
    print(f"{args.workload}: {len(setups)} set-up samples")
    print(json.dumps(report(args.workload, args.seed, reps, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
