"""Per-layer tracing from outside the program.

While a Tracer is active, each public function of acsplit's grid, vector,
matrix and harness modules is replaced by a wrapper that records a span
(name, start, end, parent).  A function is replaced under every name a
caller looks it up by: `strang_step_vec` finds `heat_propagate` in
`acsplit.vector`, and the benchmark finds `run_experiment` in `acsplit`.
Calls to `numpy.linalg.svd` are counted.  Everything is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "grid": (
        "forward_transform", "inverse_transform", "heat_propagate",
        "dissipation_quadratic", "dirichlet_energy",
    ),
    "vector": (
        "nonlinear_propagate_vec", "strang_step_vec", "strang_evolve_vec",
        "g_potential_vec", "modified_energy_vec", "standard_energy_vec",
        "sup_magnitude", "smooth_random_ic", "smooth_deterministic_ic",
    ),
    "matrix": (
        "nonlinear_propagate_mat", "strang_step_mat", "strang_evolve_mat",
        "g_potential_mat", "modified_energy_mat", "standard_energy_mat",
        "sup_frobenius", "polar_ic",
    ),
    "harness": (
        "load_config", "build_initial", "run_experiment", "convergence_study",
        "write_snapshot", "read_snapshot",
    ),
}
NAMESPACES = ("acsplit", "acsplit.grid", "acsplit.vector", "acsplit.matrix", "acsplit.harness")

MONITORS = {
    "vector": ("modified_energy_vec", "standard_energy_vec", "g_potential_vec", "sup_magnitude"),
    "matrix": ("modified_energy_mat", "standard_energy_mat", "g_potential_mat", "sup_frobenius"),
}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list = []
        self.svd_calls = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return wrapper

    def _counted_svd(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.svd_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [importlib.import_module(name) for name in NAMESPACES]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"acsplit.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._span(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        self._replace(mod, attr, wrapped)
        self._replace(np.linalg, "svd", self._counted_svd(np.linalg.svd))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path):
        """Spans as JSON lines: name, start and end in s from the first span, parent index."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


def layer_metrics(
    spans, svd_calls: int, steps: int, wall_s: float, snapshot_bytes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as (value, unit), for one traced operation of
    `steps` time steps that wrote `snapshot_bytes` of snapshot files.

    A span's self time is its duration minus that of its direct children.
    The root span is the operation itself; `harness.uncovered` is the wall
    time that no other span's self time covers, so the per-layer self times
    and it add up to the traced wall time.
    """
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_t = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for idx, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        if parent >= 0:
            own = end - start - child[idx]
            self_t[name] += own
            layer_self[name.split(".")[0]] += own

    def per_call_ms(name):
        return 1e3 * incl[name] / calls[name] if calls[name] else 0.0

    def self_ms_per_step(layer, names):
        return 1e3 * sum(self_t[f"{layer}.{n}"] for n in names) / steps

    covered = sum(layer_self.values())
    writes = calls["harness.write_snapshot"]
    out = {
        "grid.heat_propagate.calls_per_step": (calls["grid.heat_propagate"] / steps, "count"),
        "grid.heat_propagate.ms_per_call": (per_call_ms("grid.heat_propagate"), "ms"),
        "grid.forward_transform.calls_per_step": (calls["grid.forward_transform"] / steps, "count"),
        "grid.forward_transform.ms_per_call": (per_call_ms("grid.forward_transform"), "ms"),
        "grid.quadratic_forms.ms_per_step": (
            self_ms_per_step("grid", ("dissipation_quadratic", "dirichlet_energy")), "ms"
        ),
        "vector.nonlinear_propagate_vec.ms_per_call": (
            per_call_ms("vector.nonlinear_propagate_vec"), "ms"
        ),
        "vector.monitors.ms_per_step": (self_ms_per_step("vector", MONITORS["vector"]), "ms"),
        "matrix.nonlinear_propagate_mat.ms_per_call": (
            per_call_ms("matrix.nonlinear_propagate_mat"), "ms"
        ),
        "matrix.g_potential_mat.ms_per_call": (per_call_ms("matrix.g_potential_mat"), "ms"),
        "matrix.svd.calls_per_step": (svd_calls / steps, "count"),
        "matrix.monitors.ms_per_step": (self_ms_per_step("matrix", MONITORS["matrix"]), "ms"),
        "harness.write_snapshot.ms_per_call": (per_call_ms("harness.write_snapshot"), "ms"),
        "harness.write_snapshot.mb_per_call": (snapshot_bytes / 1e6 / writes if writes else 0.0, "MB"),
        "harness.build_initial.s": (incl["harness.build_initial"], "s"),
        "harness.uncovered.ms_per_step": (1e3 * (wall_s - covered) / steps, "ms"),
        "trace.wall_ms_per_step": (1e3 * wall_s / steps, "ms"),
    }
    for layer, total in layer_self.items():
        out[f"{layer}.self_ms_per_step"] = (1e3 * total / steps, "ms")
    return out
