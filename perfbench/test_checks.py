"""Each benchmark check accepts correct output and rejects a perturbed one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import acsplit  # noqa: E402
import checks  # noqa: E402
import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STAR_TIMES = [0.2 * i for i in range(9)] + [1.61]
STAR_COUNTS = [4723, 4543, 4295, 3779, 2991, 2005, 911, 0, 0, 0]


def _fields(model, d=2, n=16, m=2):
    grid = acsplit.TorusGrid(d, n)
    if model == "vector":
        return grid, acsplit.smooth_random_ic(grid, m, 2.0, seed=3)
    return grid, acsplit.smooth_random_mat_ic(grid, m, 1.3, seed=3)


@pytest.mark.parametrize("model,d,m", [("vector", 2, 2), ("vector", 3, 3), ("matrix", 2, 2), ("matrix", 1, 3)])
def test_reference_step_matches_acsplit(model, d, m):
    grid, u = _fields(model, d, 8 if d == 3 else 16, m)
    step = acsplit.strang_step_vec if model == "vector" else acsplit.strang_step_mat
    for tau in (0.01, 1.0):
        assert checks.step_violation(u, step(grid, u, tau), tau, model, d) is None


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_step_check_rejects_perturbed_field(model):
    grid, u = _fields(model)
    last = acsplit.strang_step_vec(grid, u, 0.01) if model == "vector" else acsplit.strang_step_mat(grid, u, 0.01)
    last[3, 5, ...] += 1e-9
    assert "reference step" in checks.step_violation(u, last, 0.01, model, 2)


def test_vector_max_principle():
    assert checks.vector_max_principle_violation([2.0, 1.6, 1.2, 1.0, 1.0]) is None
    assert checks.vector_max_principle_violation([0.5, 0.9, 1.0]) is None
    assert checks.vector_max_principle_violation([2.0, 1.6, 1.7]) is not None
    assert checks.vector_max_principle_violation([0.5, 1.0, 1.0 + 1e-9]) is not None


def test_frobenius_bound():
    assert checks.frobenius_violation([math.sqrt(2), 1.3, 1.0], 2) is None
    assert checks.frobenius_violation([math.sqrt(2), math.sqrt(2) + 1e-9], 2) is not None


def test_dissipation_flags():
    assert checks.dissipation_violation([True] * 5) is None
    assert checks.dissipation_violation([True, True, False, True]) is not None


def test_star_collapse_accepts_measured_counts():
    assert checks.star_collapse_violation(STAR_TIMES, STAR_COUNTS) is None


@pytest.mark.parametrize(
    "counts,rule",
    [
        ([4723, 4543, 4543, 3779, 2991, 2005, 911, 0, 0, 0], "did not fall"),
        ([4723, 4543, 4295, 3779, 2991, 2005, 911, 0, 0, 12], "re-formed"),
        ([4723, 4543, 4295, 3779, 2991, 2005, 911, 300, 20, 0], "not gone"),
        ([0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "no det > 0 region"),
    ],
)
def test_star_collapse_rejects_bad_history(counts, rule):
    assert rule in checks.star_collapse_violation(STAR_TIMES, counts)


def test_det_positive_count():
    grid = acsplit.TorusGrid(2, 16)
    star = acsplit.polar_ic(grid, "star")
    assert checks.det_positive_count(star) == np.count_nonzero(acsplit.det_sign_field(star) > 0)
    field = np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy()
    assert checks.det_positive_count(field) == 16 * 16
    field[3, 4, 1] *= -1.0
    assert checks.det_positive_count(field) == 16 * 16 - 1


def test_rates():
    assert checks.rates_violation([2.00004, 2.0002]) is None
    assert checks.rates_violation([1.7, 2.0]) is not None
    assert checks.rates_violation([2.0, 2.2]) is not None
    assert checks.rates_violation([math.nan, 2.0]) is not None


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_snapshot_reader_matches_acsplit(tmp_path, model):
    grid, u = _fields(model, m=3)
    path = tmp_path / "x.snap"
    acsplit.write_snapshot(path, u, model=model, grid=grid, m=3, tau=0.01, step=7)
    step, field = checks.read_snapshot(path)
    assert step == 7 and np.array_equal(field, u)


@pytest.mark.parametrize("model,ic", [("vector", "smooth"), ("matrix", "smooth")])
def test_trajectory_checks_reject_perturbed_snapshot(tmp_path, model, ic):
    wl = workloads.Workload(name="tiny", kind="trajectory", config="", ratio_steps=1)
    cfg = acsplit.RunConfig(
        model=model, d=2, n=16, m=2, tau=0.05, steps=5, ic=ic,
        ic_params={"sup": 1.2}, out_dir=str(tmp_path), snapshot_every=4,
    )
    trace = acsplit.run_experiment(cfg)
    assert workloads.violations(wl, cfg, trace) == []

    last = tmp_path / "snap_000005.snap"
    raw = bytearray(last.read_bytes())
    payload = np.frombuffer(raw, dtype="<f8", offset=len(raw) - 8 * 16 * 16 * (2 if model == "vector" else 4))
    payload[10] += 1e-9
    last.write_bytes(raw)
    found = workloads.violations(wl, cfg, trace)
    assert any("reference step" in v for v in found), found


def test_trajectory_checks_reject_bad_trace(tmp_path):
    wl = workloads.Workload(name="tiny", kind="trajectory", config="", ratio_steps=1)
    cfg = acsplit.RunConfig(
        model="vector", d=2, n=16, m=2, tau=0.05, steps=5, ic="smooth",
        ic_params={"sup": 2.0}, out_dir=str(tmp_path), snapshot_every=4,
    )
    trace = acsplit.run_experiment(cfg)
    rows = list(trace.rows)
    rows[2] = rows[2]._replace(sup_norm=rows[1].sup_norm + 1e-6)
    rows[3] = rows[3]._replace(dissipation_ok=False)
    found = workloads.violations(wl, cfg, acsplit.EnergyTrace(rows))
    assert any("step 2" in v for v in found), found
    assert any("modified energy rose" in v for v in found), found


def test_convergence_checks_reject_bad_rates():
    wl = workloads.WORKLOADS["converge_ladder"]
    report = acsplit.ConvergenceReport(taus=[1.0, 0.5, 0.25], errors=[4.0, 1.0, 0.5], rates=[2.0, 1.0],
                                       reference_tau=0.25 / 64, t_final=1.0)
    assert workloads.violations(wl, None, report)


def test_op_steps_come_from_the_config(tmp_path):
    counts = {}
    for name, wl in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(wl.config_text(1, tmp_path / "snaps"))
        counts[name] = workloads.op_steps(acsplit, wl, acsplit.load_config(path), path)
    # the ladder: rungs of 32, 64 and 128 steps and the 8192-step reference
    assert counts == {"matrix_star_monitored": 161, "vector3d_monitored": 21,
                      "converge_ladder": 32 + 64 + 128 + 8192}


def test_a_raising_operation_makes_the_run_incorrect(tmp_path, monkeypatch):
    import run

    def boom(*args):
        raise acsplit.InvariantViolation("non-finite field")

    wl = workloads.WORKLOADS["vector3d_monitored"]
    path = tmp_path / "config.txt"
    path.write_text(wl.config_text(1, tmp_path / "snaps"))
    runner = run.Runner(wl, acsplit.load_config(path), path)
    monkeypatch.setattr(workloads, "operate", boom)
    assert runner.checked(runner.cfg) is None and not runner.correct
    runner.correct = True
    assert runner.attempt() is None and not runner.correct
    assert (runner.attempted, runner.failed) == (1, 1)


def test_tracer_spans_add_up_and_wrappers_are_undone():
    grid, u = _fields("vector")
    _, a = _fields("matrix")
    original = acsplit.grid.heat_propagate
    with tracing.Tracer() as tracer:
        assert acsplit.vector.heat_propagate is not original
        t0 = time.perf_counter()
        acsplit.strang_step_vec(grid, u, 0.01)
        wall = time.perf_counter() - t0
        acsplit.strang_step_mat(grid, a, 0.01)
    assert acsplit.vector.heat_propagate is original and acsplit.matrix.heat_propagate is original
    assert tracer.svd_calls == 1

    vec_spans = [s for s in tracer.spans if s[1] < tracer.spans[0][2]]  # the vector step's
    names = [s[0] for s in vec_spans]
    assert names.count("grid.heat_propagate") == 2 and names.count("vector.nonlinear_propagate_vec") == 1
    assert [s[3] for s in vec_spans] == [-1, 0, 0, 0]
    m = tracing.layer_metrics(vec_spans, 0, 1, wall, 0)
    total = sum(m[f"{layer}.self_ms_per_step"][0] for layer in tracing.LAYERS)
    assert total + m["harness.uncovered.ms_per_step"][0] == pytest.approx(m["trace.wall_ms_per_step"][0])
    assert m["grid.heat_propagate.calls_per_step"][0] == 2


def test_host_clock_leaves_out_its_samples_and_scales_by_them():
    def work():
        u = np.ones((64, 64, 2))
        return sum(float(checks.strang_step(u, 0.01, "vector", 2).sum()) for _ in range(1000))

    clock = hostclock.HostClock()
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    result, own, scaled = clock.time(work)
    wall = time.perf_counter() - t0
    assert result == work()
    assert len(clock.samples) >= 5 and signal.getsignal(signal.SIGALRM) is before
    assert own == pytest.approx(wall - sum(clock.samples), abs=1e-3)
    assert scaled == pytest.approx(
        own * hostclock.REFERENCE_STEP_S * statistics.fmean(1 / s for s in clock.samples)
    )
