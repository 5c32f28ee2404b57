"""Run one acsplit benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: acsplit is imported from its `src/`.  With
`--trace 0` the run times whole operations for about S seconds, corrected
for the host's speed (hostclock.py), and reports the end-to-end metrics; with `--trace 1` it reports the per-layer metrics of
traced operations.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Progress goes to stderr.
"""

import os

# one compute thread; acsplit reads this only before numpy is first imported
os.environ["ACSPLIT_NUM_THREADS"] = "1"

import argparse
import dataclasses
import functools
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
SETUP_BRACKET = 8  # reference steps timed right before and right after each probe

sys.path.insert(0, str(SRC))
try:
    import acsplit
except ImportError as e:
    sys.exit(f"run.py: cannot import acsplit from {SRC}: {e}")
if not Path(acsplit.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"run.py: acsplit was imported from {acsplit.__file__}, not from {SRC}")

import workloads  # noqa: E402  (after acsplit, so numpy loads with one thread)
from hostclock import HostClock, on_reference_host, reference_samples  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Attempts operations of one workload and keeps count of their outcomes."""

    def __init__(self, wl, cfg, config_path: Path):
        self.wl, self.cfg, self.config_path = wl, cfg, config_path
        self.steps = workloads.op_steps(acsplit, wl, cfg, config_path)
        self.attempted = self.failed = 0
        self.correct = True
        self.clock: HostClock | None = None  # None: raw wall seconds

    def run(self, cfg, alloc: bool = False) -> tuple[float, list[str]]:
        """Operate once on `cfg` and check the output.  Returns the seconds
        the operation took (on the reference host when `clock` is set), or
        with `alloc` the peak bytes tracemalloc saw during it, and the checks
        it failed.  Checks are neither timed nor traced for allocations."""
        if cfg.out_dir is not None:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
        operate = functools.partial(workloads.operate, acsplit, self.wl, cfg, self.config_path)
        if alloc:
            tracemalloc.start()
            try:
                result = operate()
                measure = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        elif self.clock is not None:
            result, raw, measure = self.clock.time(operate)
            log(f"{self.wl.name}: {raw:.4f} s on the host, {len(self.clock.samples)} reference "
                f"steps, median {1e3 * statistics.median(self.clock.samples):.3f} ms")
        else:
            t0 = time.perf_counter()
            result = operate()
            measure = time.perf_counter() - t0
        return measure, workloads.violations(self.wl, cfg, result)

    def checked(self, cfg, alloc: bool = False) -> float | None:
        """`run`'s measure, or None when the operation raised or failed a
        check, either of which makes the whole run incorrect."""
        try:
            measure, bad = self.run(cfg, alloc)
        except Exception:
            log(traceback.format_exc())
            self.correct = False
            return None
        if bad:
            log(f"{self.wl.name}: check failed: " + "; ".join(bad))
            self.correct = False
            return None
        return measure

    def attempt(self) -> float | None:
        """One counted operation of the workload: its seconds, or None when
        it raised or failed a check."""
        self.attempted += 1
        seconds = self.checked(self.cfg)
        if seconds is None:
            self.failed += 1
        return seconds

    def snapshot_bytes(self) -> int:
        if self.cfg.out_dir is None:
            return 0
        return sum(p.stat().st_size for p in Path(self.cfg.out_dir).glob("snap_*.snap"))


def setup_seconds(config_path: Path) -> float:
    """Median over fresh processes of import + load_config + grid + initial
    field, each converted to the reference host by the reference steps timed
    around it."""
    times = []
    for _ in range(SETUP_PROBES):
        before = reference_samples(SETUP_BRACKET)
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples = before + reference_samples(SETUP_BRACKET)
        times.append(on_reference_host(json.loads(out.stdout.splitlines()[-1])["setup_s"], samples))
    return statistics.median(times)


def first_interval(runner: Runner):
    """The workload's config cut to its first snapshot interval and one step
    more, for passes that need the kinds of work an operation does but not
    its length.  A study is not cut."""
    cfg = runner.cfg
    if runner.wl.kind == "trajectory":
        cfg = dataclasses.replace(cfg, steps=cfg.snapshot_every + 1)
    return cfg


def peak_alloc_mb(runner: Runner) -> float | None:
    """Peak MB allocated during an operation, in a pass of its own that is
    not counted among the attempted operations.  A trajectory's working set
    is the same at every step, so the pass runs only its first interval,
    which builds the field, takes monitored steps and writes snapshots."""
    peak = runner.checked(first_interval(runner), alloc=True)
    return None if peak is None else peak / 1e6


def timed(runner: Runner, seconds: float) -> dict:
    peak = peak_alloc_mb(runner)  # the process's first operation; also warms caches
    setup = setup_seconds(runner.config_path)
    runner.clock = HostClock()
    walls = []
    start = time.perf_counter()
    while True:
        wall = runner.attempt()
        if wall is not None:
            walls.append(wall)
            log(f"{runner.wl.name}: operation {len(walls)} took {wall:.4f} s on the reference host")
        if time.perf_counter() - start >= seconds:
            break
    node_steps = runner.cfg.n**runner.cfg.d * runner.steps
    metrics = {"setup_s": (setup, "s")}
    if peak is not None:
        metrics["peak_alloc_mb"] = (peak, "MB")
    if walls:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["node_steps_per_s"] = (statistics.median(node_steps / w for w in walls), "1/s")
    return metrics


def monitored_over_bare(wl, cfg) -> float:
    """ms per step of run_experiment (no snapshots) over ms per step of the
    fused strang_evolve_*, on the same grid, initial field and tau."""
    cfg = dataclasses.replace(cfg, steps=wl.ratio_steps, out_dir=None, snapshot_every=0)
    grid = acsplit.TorusGrid(cfg.d, cfg.n)
    u0 = acsplit.build_initial(cfg, grid)
    evolve = acsplit.strang_evolve_vec if cfg.model == "vector" else acsplit.strang_evolve_mat
    t0 = time.perf_counter()
    acsplit.run_experiment(cfg, u0)
    t1 = time.perf_counter()
    evolve(grid, u0, cfg.tau, cfg.steps)
    return (t1 - t0) / (time.perf_counter() - t1)


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Pairs of an untraced and a traced operation for about `seconds`; the
    per-layer figures are medians over the traced ones.  An uncounted pass
    over the first interval warms caches first, as the allocation pass does
    in a timed run."""
    runner.checked(first_interval(runner))
    per_op, walls, untraced = [], [], []
    start = time.perf_counter()
    while True:
        wall = runner.attempt()
        if wall is not None:
            untraced.append(wall)
        with Tracer() as tracer:
            wall = runner.attempt()
        if wall is not None:
            walls.append(wall)
            per_op.append(
                layer_metrics(
                    tracer.spans, tracer.svd_calls, runner.steps, wall,
                    runner.snapshot_bytes(),
                )
            )
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(spans_path)
    if not untraced or not per_op:
        return {}
    metrics = {
        name: (statistics.median(op[name][0] for op in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(untraced), "s")
    metrics["harness.monitored_over_bare"] = (monitored_over_bare(runner.wl, runner.cfg), "ratio")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**32  # the initial-condition generator takes non-negative seeds
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.txt"
    config_path.write_text(wl.config_text(seed, run_dir / "snapshots"))
    cfg = acsplit.load_config(config_path)
    runner = Runner(wl, cfg, config_path)
    try:
        if args.trace:
            metrics = traced(runner, args.seconds, run_dir / "spans.jsonl")
        else:
            metrics = timed(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir / "snapshots", ignore_errors=True)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
