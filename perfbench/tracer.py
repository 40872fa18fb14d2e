"""In-process span tracer that wraps mfklab functions where callers find them.

mfklab modules import each other's functions by name (`from .kernel import
smooth_weights`), so a span must replace the attribute in every module that
holds the same function object, not only in the defining module.  Methods are
replaced on their class.  Spans nest through a stack: a span's self time is
its duration minus the durations of the spans it directly contains, so the
self times under the root span add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (metric prefix, defining module, attribute); dotted attributes are methods.
ROOT = ("harness.run", "mfklab.harness", "run")
CONFIG_LOAD = ("harness.RunConfig.from_file", "mfklab.harness", "RunConfig.from_file")
LAYERS = [
    ("mild.solve", "mfklab.mild", "solve"),
    ("mild.build_slab_stencils", "mfklab.mild", "build_slab_stencils"),
    ("kernel.smooth_weights", "mfklab.kernel", "smooth_weights"),
    ("kernel.slope_kernel_weights", "mfklab.kernel", "slope_kernel_weights"),
    ("mild.prepare_slab", "mfklab.mild", "prepare_slab"),
    ("kernel.apply_mean_smooth", "mfklab.kernel", "apply_mean_smooth"),
    ("mild.picard_map", "mfklab.mild", "picard_map"),
    ("oracles.burgers_fd_reference", "mfklab.oracles", "burgers_fd_reference"),
    ("oracles._restrict", "mfklab.oracles", "_restrict"),
    ("harness.compare_fields", "mfklab.harness", "compare_fields"),
    ("harness.write_field_csv", "mfklab.harness", "write_field_csv"),
    ("particles.simulate_frozen", "mfklab.particles", "simulate_frozen"),
    ("grids.Field.lookup", "mfklab.grids", "Field.lookup"),
    ("particles.weighted_functional", "mfklab.particles", "weighted_functional"),
    ("particles.solve_selfconsistent", "mfklab.particles", "solve_selfconsistent"),
    ("particles._binned_kde", "mfklab.particles", "_binned_kde"),
    ("particles.silverman_bandwidth", "mfklab.particles", "silverman_bandwidth"),
    ("grids.GridSpec.nearest_node", "mfklab.grids", "GridSpec.nearest_node"),
]
SPANS = [ROOT, CONFIG_LOAD] + LAYERS
STEPPERS = ("particles.simulate_frozen", "particles.solve_selfconsistent")


def _replace(module_name: str, attr: str, make_wrapper) -> None:
    """Swap `attr` for make_wrapper(original) wherever mfklab code looks it up."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, meth, make_wrapper(raw))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if (name == "mfklab" or name.startswith("mfklab.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


class Tracer:
    """Spans keyed by metric prefix: calls, inclusive and self seconds."""

    def __init__(self):
        self.stats = {}  # prefix -> [calls, inclusive_s, self_s]
        self.last_end = {}  # prefix -> perf_counter at the latest return
        self._stack = []  # child seconds accumulated per open span
        self._depth = {}
        self.sw_keys = set()
        self.sw_calls = 0
        self.slab_solves = 0
        self.csv_bytes = 0
        self.particle_steps = 0
        self.trajectory_bytes = 0

    def install(self, spans) -> None:
        for prefix, module_name, attr in spans:
            self.stats[prefix] = [0, 0.0, 0.0]
            self._depth[prefix] = 0
            _replace(module_name, attr, functools.partial(self._span, prefix))

    def install_counters(self) -> None:
        """Argument and result counters for the derived per-layer metrics."""
        _replace("mfklab.kernel", "smooth_weights", self._count_smooth_weights)
        _replace("mfklab.mild", "solve_slab", self._count_slab)
        _replace("mfklab.harness", "write_field_csv", self._count_csv)
        for name in ("simulate_frozen", "solve_selfconsistent"):
            _replace("mfklab.particles", name, self._count_steps)

    def _span(self, prefix, fn):
        stats, depth, stack, clock = self.stats[prefix], self._depth, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[prefix] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                children = stack.pop()
                depth[prefix] -= 1
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[2] += elapsed - children
                if depth[prefix] == 0:  # recursion counts once in the inclusive time
                    stats[1] += elapsed
                self.last_end[prefix] = t1
        return wrapper

    def _count_smooth_weights(self, fn):
        @functools.wraps(fn)
        def wrapper(sigma, beta, dx, n):
            self.sw_calls += 1
            self.sw_keys.add((float(sigma), float(beta), float(dx), int(n)))
            return fn(sigma, beta, dx, n)
        return wrapper

    def _count_slab(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.slab_solves += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_csv(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.csv_bytes += os.path.getsize(path)
            return result
        return wrapper

    def _count_steps(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            ensemble = result[0] if isinstance(result, tuple) else result
            levels, n = ensemble.positions.shape
            self.particle_steps += (levels - 1) * n
            # positions and log-weights, float64 each
            self.trajectory_bytes = max(self.trajectory_bytes, 2 * levels * n * 8)
            return result
        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer values, keyed by metric name (units live in BENCHMARK.json)."""
        out = {}
        for prefix, (calls, incl, self_s) in self.stats.items():
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.s"] = incl
            out[f"{prefix}.self_s"] = self_s
        out["kernel.smooth_weights.distinct_frac"] = (
            len(self.sw_keys) / self.sw_calls if self.sw_calls else 0.0)
        sweeps = self.stats["mild.picard_map"][0]
        out["mild.sweeps_per_slab"] = sweeps / self.slab_solves if self.slab_solves else 0.0
        out["harness.write_field_csv.bytes"] = self.csv_bytes
        stepper_s = sum(self.stats[p][2] for p in STEPPERS)
        out["particles.step_rate"] = self.particle_steps / stepper_s if stepper_s > 0 else 0.0
        out["particles.trajectory_mb"] = self.trajectory_bytes / 1e6
        return out
