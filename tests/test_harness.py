import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import acsplit.matrix
import acsplit.tensor
import acsplit.vector
from acsplit import cli, harness, verify
from acsplit.grid import TorusGrid
from acsplit.oracle import integrate_matrix_ode
from acsplit.harness import (
    ConfigError,
    EnergyTrace,
    InvariantViolation,
    RunConfig,
    SnapshotFormatError,
    TRACE_HEADER,
    build_initial,
    build_run_config,
    convergence_study,
    parse_config_text,
    read_snapshot,
    run_experiment,
    snapshot_info,
    write_snapshot,
)
from acsplit.matrix import polar_ic
from acsplit.vector import smooth_random_ic
from acsplit.verify import verify_suite


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text():
    raw = parse_config_text(
        """
        # a comment
        model = vector
        tau = 1/3200   # fraction syntax
        steps=10
        """
    )
    assert raw == {"model": "vector", "tau": "1/3200", "steps": "10"}


def test_parse_config_rejects_garbage_and_duplicates():
    with pytest.raises(ConfigError):
        parse_config_text("model vector")
    with pytest.raises(ConfigError):
        parse_config_text("model=vector\nmodel=matrix")


def test_build_run_config_full():
    cfg = build_run_config(
        {
            "model": "matrix",
            "d": "2",
            "n": "32",
            "m": "2",
            "tau": "1/100",
            "steps": "5",
            "ic": "smooth:sup=1.2,kcut=3",
            "seed": "9",
            "out_dir": "runs",
            "snapshot_every": "5",
            "threshold_policy": "ignore",
        }
    )
    assert cfg.tau == pytest.approx(0.01)
    assert cfg.ic == "smooth"
    assert cfg.ic_params == {"sup": 1.2, "kcut": 3}


def test_build_run_config_errors():
    with pytest.raises(ConfigError):
        build_run_config({})  # model required
    with pytest.raises(ConfigError):
        build_run_config({"model": "vector", "bogus_key": "1"})
    with pytest.raises(ConfigError):
        build_run_config({"model": "scalar"})
    with pytest.raises(ConfigError):
        build_run_config({"model": "vector", "n": "7"})
    with pytest.raises(ConfigError):
        build_run_config({"model": "vector", "d": "4"})
    with pytest.raises(ConfigError):
        build_run_config({"model": "vector", "tau": "0"})
    with pytest.raises(ConfigError):
        build_run_config({"model": "vector", "ic": "no_such_ic"})
    with pytest.raises(ConfigError):
        build_run_config({"model": "vector", "threshold_policy": "abort"})
    for bad in (
        {"tau": "nan"},
        {"tau": "inf"},
        {"tau": "1/0"},
        {"ic": "smooth:sup=inf"},
        {"ic": "smooth:sup=nan"},
        {"ic": "smooth:kcut=-3"},
        {"seed": "-1"},
        {"ic": "smooth:sup=1,sup=2"},
    ):
        with pytest.raises(ConfigError):
            build_run_config({"model": "vector", **bad})


def test_config_text_gives_field_or_config_error():
    # any config text on a valid grid gives an initial field of the config's
    # shape, built from the ic parameters as written, or ConfigError; never
    # another exception, and never a parameter silently overridden
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    item = st.tuples(
        st.sampled_from(["sup", "kcut", "magnitude", "lo", "hi", "bogus"]),
        st.sampled_from(["0", "1", "2", "2.5", "1/3", "-1", "nan", "1e3", "x", ""]),
    ).map("=".join)

    @st.composite
    def config_texts(draw):
        model = draw(st.sampled_from(["vector", "matrix"]))
        registry = harness.MODELS[model].ics
        ic = draw(st.sampled_from(sorted(registry) + ["bogus"]))
        params = draw(st.lists(item, max_size=3))
        ic += ":" + ",".join(params) if params else ""
        d, n, m = draw(st.integers(1, 3)), draw(st.sampled_from([4, 6, 8])), draw(st.integers(1, 3))
        return model, d, n, m, ic, f"model={model}\nd={d}\nn={n}\nm={m}\nic={ic}\ntau=0.1\n"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
    @hypothesis.given(config_texts())
    def check(drawn):
        model, d, n, m, ic, text = drawn
        try:
            cfg = build_run_config(parse_config_text(text))
            u = build_initial(cfg, TorusGrid(cfg.d, cfg.n))
        except ConfigError:
            return
        assert u.shape == (n,) * d + (m,) * harness.MODELS[model].axes
        for written in filter(None, ic.partition(":")[2].split(",")):
            key, value = written.split("=", 1)
            assert cfg.ic_params[key] == harness._parse_number(value), (ic, cfg.ic_params)

    check()


def test_ic_parameters_are_floats_however_spelled():
    for ic in ("smooth:sup=1,kcut=3", "smooth:sup=1.0,kcut=3.0", "smooth:sup=2/2,kcut=6/2"):
        params = build_run_config({"model": "vector", "ic": ic}).ic_params
        assert params == {"sup": 1.0, "kcut": 3.0}
        assert all(type(v) is float for v in params.values()), (ic, params)


def test_threshold_policy_enforce_rejects_large_tau():
    # the run refuses the step, before it builds the initial field
    with pytest.raises(ConfigError, match="threshold_policy=enforce"):
        run_experiment(RunConfig(model="matrix", tau=1.0, threshold_policy="enforce"))
    # inside the bound it constructs fine
    RunConfig(model="matrix", tau=0.01, threshold_policy="enforce")


def test_threshold_policy_warn_emits_warning():
    cfg = RunConfig(
        model="matrix", d=1, n=8, m=2, tau=1.0, steps=1, ic="smooth", seed=0,
        threshold_policy="warn",
    )
    with pytest.warns(RuntimeWarning, match="dissipation"):
        run_experiment(cfg)


def test_threshold_policy_ignore_is_silent():
    import warnings

    cfg = RunConfig(
        model="matrix", d=1, n=8, m=2, tau=1.0, steps=1, ic="smooth", seed=0,
        threshold_policy="ignore",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(cfg)


def test_polar_ic_requires_m2():
    with pytest.raises(ConfigError):
        cfg = RunConfig(model="matrix", d=2, n=8, m=3, tau=0.01, steps=0, ic="polar_star")
        build_initial(cfg, TorusGrid(2, 8))
    for d, ic in ((3, "polar_star"), (1, "polar_stripe")):
        cfg = RunConfig(model="matrix", d=d, n=8, m=2, tau=0.01, steps=0, ic=ic)
        with pytest.raises(ConfigError, match="d = 2"):
            build_initial(cfg, TorusGrid(d, 8))


def test_config_keys_are_run_config_fields():
    # every RunConfig field but ic_params is a config key, read by its type
    cfg = build_run_config({"model": "vector", "d": "1", "n": "8", "m": "3", "tau": "1/8",
                            "steps": "2", "ic": "zero", "seed": "4", "out_dir": "runs",
                            "snapshot_every": "1", "threshold_policy": "ignore"})
    assert cfg == RunConfig(model="vector", d=1, n=8, m=3, tau=0.125, steps=2, ic="zero",
                            seed=4, out_dir="runs", snapshot_every=1, threshold_policy="ignore")
    assert build_run_config({"model": "vector", "out_dir": ""}) == RunConfig(model="vector")
    with pytest.raises(ConfigError, match="ic_params"):
        build_run_config({"model": "vector", "ic_params": "sup=1"})


def test_load_convergence_config(tmp_path):
    path = tmp_path / "ladder.cfg"
    path.write_text("model=vector\nd=1\nn=8\ntau_ladder = 1/10, 1/20,\nt_final=0.5\n")
    cfg, ladder, t_final = harness.load_convergence_config(path)
    assert (cfg, ladder, t_final) == (RunConfig(model="vector", d=1, n=8), [0.1, 0.05], 0.5)
    for text in ("model=vector\nt_final=1\n", "model=vector\ntau_ladder=1/x\nt_final=1\n"):
        path.write_text(text)
        with pytest.raises(ConfigError):
            harness.load_convergence_config(path)


# ---------------------------------------------------------------------------
# trace


def test_trace_csv_round_trip():
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=3, ic="smooth", seed=1)
    trace = run_experiment(cfg)
    text = trace.to_csv()
    assert text.splitlines()[0] == TRACE_HEADER
    back = EnergyTrace.from_csv(text)
    assert back.rows == trace.rows  # full round-trip precision


def test_trace_csv_refuses_a_row_of_the_wrong_width():
    text = TRACE_HEADER + "\n0,0.0,1.0,1.0,0.0,0.5,1\n"
    assert EnergyTrace.from_csv(text).rows[0].dissipation_ok
    with pytest.raises(ValueError):
        EnergyTrace.from_csv(text.replace(",1\n", "\n"))


def test_trace_rows_and_flags():
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=4, ic="smooth", seed=2)
    trace = run_experiment(cfg)
    assert [r.step for r in trace.rows] == [0, 1, 2, 3, 4]
    assert trace.rows[0].dissipation_ok  # no predecessor to violate
    assert trace.rows[2].time == pytest.approx(0.2)
    assert all(r.delta_e == abs(r.energy_modified - r.energy_standard) for r in trace.rows)
    assert trace.dissipation_all_ok


def test_zero_field_energies_constant():
    cfg = RunConfig(model="vector", d=2, n=8, m=2, tau=0.1, steps=3, ic="zero", seed=0)
    trace = run_experiment(cfg)
    grid_volume = (2 * np.pi) ** 2
    for r in trace.rows:
        assert r.energy_standard == pytest.approx(0.25 * grid_volume, rel=1e-13)
        assert r.sup_norm == 0.0
    assert trace.dissipation_all_ok


def test_dissipation_flag_fires_on_forced_increase(monkeypatch):
    # replace the energy with a strictly increasing counter: every step after
    # the first must be flagged
    counter = {"v": 0.0}

    def fake_energy(grid, u, tau):
        counter["v"] += 1.0
        return counter["v"]

    monkeypatch.setattr(acsplit.matrix, "modified_energy_mat", fake_energy)
    cfg = RunConfig(model="matrix", d=1, n=8, m=2, tau=0.01, steps=3, ic="smooth", seed=3)
    trace = run_experiment(cfg)
    flags = [r.dissipation_ok for r in trace.rows]
    assert flags == [True, False, False, False]
    assert not trace.dissipation_all_ok


def test_nonfinite_field_reported_with_step():
    from acsplit.harness import InvariantViolation

    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=2, ic="zero", seed=0)
    bad = np.full((8, 2), np.nan)
    with pytest.raises(InvariantViolation, match="step 0"):
        run_experiment(cfg, initial=bad)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip(tmp_path):
    grid = TorusGrid(2, 8)
    rng = np.random.Generator(np.random.Philox(4))
    u = rng.standard_normal(grid.shape + (2, 2))
    path = tmp_path / "field.snap"
    write_snapshot(path, u, model="matrix", grid=grid, m=2, tau=0.05, step=7)
    meta, back = read_snapshot(path)
    assert np.array_equal(back, u)
    assert meta["model"] == "matrix"
    assert (meta["d"], meta["n"], meta["m"]) == (2, 8, 2)
    assert meta["tau"] == 0.05
    assert meta["step"] == 7


def test_snapshot_layout_components_slowest(tmp_path):
    # header then raw little-endian float64 with component axes leading
    grid = TorusGrid(1, 4)
    u = np.arange(8, dtype=np.float64).reshape(4, 2)
    path = tmp_path / "v.snap"
    write_snapshot(path, u, model="vector", grid=grid, m=2, tau=0.1, step=0)
    blob = path.read_bytes()
    payload = blob.split(b"end\n", 1)[1]
    disk = np.frombuffer(payload, dtype="<f8").reshape(2, 4)
    assert np.array_equal(disk, u.T)


def test_snapshot_header_follows_the_key_table(tmp_path):
    # numpy scalars are written as plain numbers, which the reader parses
    grid = TorusGrid(1, 4)
    path = tmp_path / "v.snap"
    write_snapshot(path, np.zeros((4, 2)), model="vector", grid=grid, m=np.int64(2),
                   tau=np.float64(0.1), step=np.int64(3))
    lines = path.read_bytes().split(b"end\n", 1)[0].decode("ascii").splitlines()
    assert lines[0] == "ACSPLIT-SNAPSHOT v1"
    assert [line.split("=")[0] for line in lines[1:]] == list(harness.SNAPSHOT_KEYS)
    meta, _ = read_snapshot(path)
    assert {k: meta[k] for k in harness.SNAPSHOT_KEYS} == {
        "model": "vector", "d": 1, "n": 4, "m": 2, "tau": 0.1, "step": 3, "endian": "little",
        "dtype": "float64", "layout": "components-slowest"}


@pytest.mark.parametrize("model, shape", [("vector", (8, 8, 2, 2)), ("vector", (4, 4, 2)),
                                          ("matrix", (8, 8, 2)), ("matrix", (8, 8, 3, 3))])
def test_write_snapshot_refuses_a_field_of_another_shape(tmp_path, model, shape):
    # a field whose shape is not the model's on this grid and m would be
    # written as a file the reader refuses
    path = tmp_path / "bad.snap"
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        write_snapshot(path, np.zeros(shape), model=model, grid=TorusGrid(2, 8), m=2, tau=0.1,
                       step=0)
    assert not path.exists()


def test_write_snapshot_refuses_a_negative_step(tmp_path):
    # the reader refuses step < 0, so the writer refuses it before it opens the file
    path = tmp_path / "bad.snap"
    with pytest.raises(ValueError, match=re.escape("step must be >= 0, got -3")):
        write_snapshot(path, np.zeros((8, 2)), model="vector", grid=TorusGrid(1, 8), m=2, tau=0.1,
                       step=-3)
    assert not path.exists()


def test_snapshot_info_stats(tmp_path):
    grid = TorusGrid(1, 8)
    u = smooth_random_ic(grid, 2, 0.9, seed=5)
    path = tmp_path / "v.snap"
    write_snapshot(path, u, model="vector", grid=grid, m=2, tau=0.1, step=3)
    info = snapshot_info(path)
    assert info["sup_norm"] == pytest.approx(0.9, rel=1e-12)
    assert info["min_entry"] == pytest.approx(float(u.min()))
    assert info["max_entry"] == pytest.approx(float(u.max()))


def test_snapshot_corruption_detected(tmp_path):
    grid = TorusGrid(1, 8)
    u = np.zeros((8, 2))
    path = tmp_path / "v.snap"
    write_snapshot(path, u, model="vector", grid=grid, m=2, tau=0.1, step=0)
    blob = path.read_bytes()
    (tmp_path / "trunc.snap").write_bytes(blob[:-16])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot(tmp_path / "trunc.snap")
    (tmp_path / "junk.snap").write_bytes(b"not a snapshot\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(tmp_path / "junk.snap")
    (tmp_path / "v2.snap").write_bytes(blob.replace(b"ACSPLIT-SNAPSHOT v1", b"ACSPLIT-SNAPSHOT v2", 1))
    with pytest.raises(SnapshotFormatError, match="version"):
        read_snapshot(tmp_path / "v2.snap")
    # header geometry the reader must refuse before it sizes the payload
    for tag, edits in {
        "m0": {b"m=2": b"m=0"},
        "n0": {b"n=8": b"n=0"},
        "d5": {b"d=1": b"d=5"},
        "n3": {b"n=8": b"n=3"},
        "huge": {b"d=1": b"d=3", b"n=8": b"n=2097152", b"m=2": b"m=3"},
    }.items():
        bad = blob
        for old, new in edits.items():
            bad = bad.replace(b"\n" + old + b"\n", b"\n" + new + b"\n", 1)
        assert bad != blob
        (tmp_path / f"{tag}.snap").write_bytes(bad)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(tmp_path / f"{tag}.snap")
    (tmp_path / "nomodel.snap").write_bytes(blob.replace(b"model=vector\n", b"", 1))
    with pytest.raises(SnapshotFormatError, match="model"):
        read_snapshot(tmp_path / "nomodel.snap")
    (tmp_path / "long.snap").write_bytes(blob + bytes(8))
    with pytest.raises(SnapshotFormatError, match="trailing"):
        read_snapshot(tmp_path / "long.snap")


def test_snapshot_header_geometry_property(tmp_path):
    # any header geometry and payload length gives either a field of the
    # header's shape or SnapshotFormatError, never another exception
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "p.snap"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
    @hypothesis.given(
        model=st.sampled_from(["vector", "matrix"]),
        d=st.integers(-1, 5),
        n=st.integers(-2, 10),
        m=st.integers(-1, 3),
        extra=st.integers(-3, 3),
    )
    def check(model, d, n, m, extra):
        axes = harness.MODELS[model].axes
        count = max(m, 0) ** axes * max(n, 0) ** max(d, 0)
        header = (
            f"ACSPLIT-SNAPSHOT v1\nmodel={model}\nd={d}\nn={n}\nm={m}\ntau=0.1\n"
            "step=0\nendian=little\ndtype=float64\nlayout=components-slowest\nend\n"
        )
        payload = np.arange(max(count + extra, 0), dtype="<f8").tobytes()
        path.write_bytes(header.encode("ascii") + payload)
        try:
            meta, values = read_snapshot(path)
        except SnapshotFormatError:
            return
        assert d in (1, 2, 3) and n >= 4 and n % 2 == 0 and m >= 1 and extra == 0
        assert values.shape == (n,) * d + (m,) * axes
        assert np.array_equal(np.moveaxis(values, range(d), range(axes, axes + d)).ravel(),
                              np.arange(count))

    check()


def test_read_snapshot_returns_the_disk_array_components_slowest(tmp_path, peak_field_sizes):
    grid = TorusGrid(3, 32)
    u = np.random.Generator(np.random.Philox(13)).standard_normal(grid.shape + (3,))
    path = tmp_path / "big.snap"
    write_snapshot(path, u, model="vector", grid=grid, m=3, tau=0.1, step=0)
    _, back = read_snapshot(path)
    assert np.array_equal(back, u)
    # the spatial-first view of the array read from disk, not a copy of it
    assert back.flags.writeable and min(back.strides[3:]) > max(back.strides[:3])
    peak = peak_field_sizes(lambda: read_snapshot(path), u.nbytes)
    assert peak <= 1.1, peak


def test_snapshot_cadence(tmp_path):
    cfg = RunConfig(
        model="vector", d=1, n=8, m=2, tau=0.1, steps=7, ic="smooth", seed=6,
        out_dir=str(tmp_path / "run"), snapshot_every=3,
    )
    run_experiment(cfg)
    names = sorted(p.name for p in (tmp_path / "run").glob("*.snap"))
    # multiples of 3 plus the final step
    assert names == ["snap_000000.snap", "snap_000003.snap", "snap_000006.snap", "snap_000007.snap"]


# ---------------------------------------------------------------------------
# determinism / restart


def test_runs_are_bit_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = RunConfig(
            model="matrix", d=2, n=16, m=2, tau=0.05, steps=4, ic="smooth", seed=11,
            out_dir=str(tmp_path / tag), snapshot_every=4,
        )
        run_experiment(cfg)
        outs.append(
            (
                (tmp_path / tag / "trace.csv").read_bytes(),
                (tmp_path / tag / "snap_000004.snap").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_restart_equals_uninterrupted_run(tmp_path):
    base = dict(model="vector", d=2, n=16, m=2, tau=0.05, ic="smooth", seed=12)
    run_experiment(
        RunConfig(steps=8, out_dir=str(tmp_path / "full"), snapshot_every=8, **base)
    )
    run_experiment(
        RunConfig(steps=4, out_dir=str(tmp_path / "a"), snapshot_every=4, **base)
    )
    resumed = dict(base, ic=f"snapshot:{tmp_path / 'a' / 'snap_000004.snap'}")
    run_experiment(
        RunConfig(steps=4, out_dir=str(tmp_path / "b"), snapshot_every=4, **resumed)
    )
    _, full = read_snapshot(tmp_path / "full" / "snap_000008.snap")
    _, chained = read_snapshot(tmp_path / "b" / "snap_000004.snap")
    assert np.max(np.abs(full - chained)) <= 1e-12


def test_snapshot_geometry_mismatch_rejected(tmp_path):
    grid = TorusGrid(1, 8)
    u = np.zeros((8, 2))
    path = tmp_path / "v.snap"
    write_snapshot(path, u, model="vector", grid=grid, m=2, tau=0.1, step=0)
    cfg = RunConfig(model="vector", d=1, n=16, m=2, tau=0.1, steps=1, ic=f"snapshot:{path}")
    with pytest.raises(ConfigError, match="geometry"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# the stepping pipeline shared by run_experiment and strang_evolve_*

PIPELINE_CASES = {
    "vector3d": dict(model="vector", d=3, n=8, m=3, tau=0.05, steps=5, ic="smooth", seed=5,
                     ic_params={"sup": 1.5}),
    "matrix_star": dict(model="matrix", d=2, n=16, m=2, tau=0.01, steps=5, ic="polar_star"),
}


def _monitors_and_evolve(cfg):
    """The model's sup norm, standard and modified energy, and bare evolve."""
    return harness.MODELS[cfg.model].lookup("sup", "energy_standard", "energy_modified", "evolve")


@pytest.mark.parametrize("model,name", [
    ("vector", "nonlinear_propagate_vec"), ("vector", "strang_evolve_vec"),
    ("vector", "sup_magnitude"), ("vector", "standard_energy_vec"), ("vector", "modified_energy_vec"),
    ("matrix", "nonlinear_propagate_mat"), ("matrix", "strang_evolve_mat"),
    ("matrix", "sup_frobenius"), ("matrix", "standard_energy_mat"), ("matrix", "modified_energy_mat"),
])
def test_model_functions_are_looked_up_at_run_time(monkeypatch, model, name):
    # a function replaced on its public name is the one a run (or, for the
    # bare evolve, a convergence study) calls: the mutant tests rely on it
    module = getattr(acsplit, model)
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    cfg = RunConfig(model, d=1, n=8, m=2, tau=0.01, steps=2, ic="smooth")
    if name.startswith("strang_evolve"):
        convergence_study(cfg, [0.01, 0.005], 0.01)
    else:
        run_experiment(cfg)
    assert calls


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_trace_columns_equal_public_monitors_on_snapshots(tmp_path, case):
    cfg = RunConfig(out_dir=str(tmp_path), snapshot_every=1, **PIPELINE_CASES[case])
    trace = run_experiment(cfg)
    grid = TorusGrid(cfg.d, cfg.n)
    sup, e_std, e_mod, _ = _monitors_and_evolve(cfg)
    std_tol = 1e-13 * abs(trace.rows[0].energy_standard)
    mod_tol = 1e-13 * abs(trace.rows[0].energy_modified)
    for row in trace.rows:
        _, u = read_snapshot(tmp_path / f"snap_{row.step:06d}.snap")
        assert row.sup_norm == sup(u)
        assert abs(row.energy_standard - e_std(grid, u)) <= std_tol
        assert abs(row.energy_modified - e_mod(grid, u, cfg.tau)) <= mod_tol


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_final_snapshot_is_bitwise_strang_evolve(tmp_path, case):
    cfg = RunConfig(out_dir=str(tmp_path), snapshot_every=100, **PIPELINE_CASES[case])
    run_experiment(cfg)
    grid = TorusGrid(cfg.d, cfg.n)
    evolve = _monitors_and_evolve(cfg)[3]
    _, final = read_snapshot(tmp_path / f"snap_{cfg.steps:06d}.snap")
    assert np.array_equal(final, evolve(grid, build_initial(cfg, grid), cfg.tau, cfg.steps))


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_transforms_per_step(monkeypatch, case):
    # one forward real transform per step, and two inverse ones when
    # monitored (u_{n+1} and u~_{n+1}) or one when bare, plus one pair for
    # the initial field; the heat step, the complex transforms and the
    # reference step are not used
    cfg = RunConfig(**PIPELINE_CASES[case])
    grid = TorusGrid(cfg.d, cfg.n)
    u0 = build_initial(cfg, grid)
    counts = {}

    def counted(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapper

    def tripwire(*args, **kwargs):
        raise AssertionError("not part of the pipeline")

    for name in ("rfftn", "irfftn", "irfft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    for owner, name in ((acsplit.grid, "heat_propagate"), (acsplit.grid, "forward_transform"),
                        (acsplit.tensor, "strang_step"), (acsplit.vector, "strang_step_vec"),
                        (acsplit.matrix, "strang_step_mat")):
        monkeypatch.setattr(owner, name, tripwire)

    def tally():
        # an inverse is the one call that yields the real field: irfftn, or
        # irfft after d - 1 in-place complex ifft passes
        inverses = counts.pop("irfftn", 0) + counts.pop("irfft", 0)
        assert counts.pop("ifft", 0) == (cfg.d - 1) * inverses
        return {"inverse": inverses, **counts}

    steps = cfg.steps
    run_experiment(cfg, u0)
    assert tally() == {"rfftn": steps + 1, "inverse": 2 * steps + 1}  # 3 per step
    counts.clear()
    _monitors_and_evolve(cfg)[3](grid, u0, cfg.tau, steps)
    assert tally() == {"rfftn": steps + 1, "inverse": steps + 1}  # 2 per step


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_monitored_step_reads_its_spectrum_once(monkeypatch, case):
    # both energies of a step share one pass over its spectrum (the record's
    # quadratic_forms), and the standard energy reads its first member
    cfg = RunConfig(**PIPELINE_CASES[case])
    grid = TorusGrid(cfg.d, cfg.n)
    u0 = build_initial(cfg, grid)
    e_std = _monitors_and_evolve(cfg)[1](grid, u0)  # a field: dirichlet_energy, not the pair
    real, passes = acsplit.grid._spectral_sums, []

    def counted(*args):
        passes.append(len(args) - 2)  # the symbols it weighs
        return real(*args)

    monkeypatch.setattr(acsplit.grid, "_spectral_sums", counted)
    trace = run_experiment(cfg, u0)
    assert passes == [2] * (cfg.steps + 1)
    assert trace.rows[0].energy_standard == pytest.approx(e_std, rel=1e-13, abs=0.0)


GRAM_CASES = {**PIPELINE_CASES, "matrix3": dict(model="matrix", d=2, n=8, m=3, tau=0.01, steps=3,
                                                 ic="smooth", seed=2)}


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_monitored_step_makes_each_gram_once(monkeypatch, case):
    # the sup norm and the standard potential share the field's Gram matrices
    # (the record's gram), and the modified potential and the next flow share
    # u~_n's (its u_tilde_gram) behind one _checked; the 2 x 2 kernels take
    # singular values instead, and a bare step makes no field Gram
    cfg = RunConfig(**GRAM_CASES[case])
    grid = TorusGrid(cfg.d, cfg.n)
    u0 = build_initial(cfg, grid)
    names, counts = ("_field_gram", "_kernel_gram", "_checked"), {}
    for name in names:
        def counted(a, real=getattr(acsplit.tensor, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return real(a)

        monkeypatch.setattr(acsplit.tensor, name, counted)
    closed_form = cfg.m == 2 and cfg.model == "matrix"
    for run, states, field_grams in ((lambda: run_experiment(cfg, u0), cfg.steps + 1, 1),
                                     (lambda: _monitors_and_evolve(cfg)[3](
                                         grid, u0, cfg.tau, cfg.steps), cfg.steps, 0)):
        counts.clear()
        run()
        assert counts == {name: n for name, n in zip(names, (
            field_grams * states, 0 if closed_form else states, states)) if n}


def _monitored_run_peak(peak_field_sizes, cfg: RunConfig) -> float:
    """Peak bytes tracemalloc sees in a warm run_experiment, in field sizes."""
    u0 = build_initial(cfg, TorusGrid(cfg.d, cfg.n))
    return peak_field_sizes(lambda: run_experiment(cfg, u0), u0.nbytes)


def test_monitored_run_peak_memory(peak_field_sizes):
    # the run holds u~_n, not the previous step's field or spectrum, makes u~_n
    # in place on the spectrum it then drops, and the sup norm reads the field's
    # Gram, a third of the field here: a step peaks at 3.66 field sizes, at the
    # field's inverse transform (the spectrum, the transform's work buffer and
    # the field, and the run's half-lattice arrays).  Making u~_n on a spectrum
    # of its own reads 4.66, a second reference to the record's spectrum 4.60,
    # and a squared copy of the field for the sup norm 3.93
    cfg = RunConfig(model="vector", d=3, n=32, m=3, tau=0.02, steps=4, ic="smooth", seed=1)
    peak = _monitored_run_peak(peak_field_sizes, cfg)
    assert peak <= 3.85, peak


def test_monitored_2x2_run_peak_memory(peak_field_sizes):
    # the 2 x 2 flow and potential reuse their quarter-field buffers and u~_n
    # is made on the record's spectrum, so the step peaks where the field's
    # Gram matrices, one buffer that the sup norm reads and the standard
    # potential turns into (A^T A - I)^2 in place, sit beside the field and
    # the spectrum: 3.96 field sizes.  The Gram and A^T A - I in two buffers
    # read 4.96
    cfg = RunConfig(model="matrix", d=2, n=64, m=2, tau=0.01, steps=4, ic="polar_star",
                    threshold_policy="enforce")
    peak = _monitored_run_peak(peak_field_sizes, cfg)
    assert peak <= 1.01 * 3.960, peak


def test_monitored_3x3_run_peak_memory(peak_field_sizes):
    # 3 x 3 matrices take the flow through the Gram eigenvectors (eigh), which
    # scales A V in place and writes (A V) V^T into one output: the step peaks
    # at 4.19 field sizes, in the flow (u~_n, V, A V and the output; u~_n's
    # Gram goes right after eigh) and in the modified energy (the field, u~_n,
    # its Gram and eigvalsh's output).  The standard potential's one Gram
    # buffer reads 3.45, where two buffers read 4.44, and a flow that keeps
    # the eigenvalues and makes a product buffer reads 5.85
    cfg = RunConfig(model="matrix", d=2, n=64, m=3, tau=0.01, steps=4, ic="smooth", seed=1)
    peak = _monitored_run_peak(peak_field_sizes, cfg)
    assert peak <= 1.01 * 4.186, peak


@pytest.mark.parametrize("model, m", [("vector", 3), ("matrix", 2), ("matrix", 3)])
def test_runs_never_write_the_callers_field(model, m):
    # the step-0 record holds the caller's field as given; what is made in
    # place (u~_0 on the spectrum, the flows' buffers) is the run's own
    cfg = RunConfig(model=model, d=2, n=16, m=m, tau=0.01, steps=3, ic="smooth", seed=4)
    u = build_initial(cfg, TorusGrid(cfg.d, cfg.n))
    for layout in (np.ascontiguousarray, lambda a: a):  # components fastest, and slowest
        given = layout(u)
        before = given.tobytes()
        run_experiment(cfg, initial=given)
        (evolve,) = harness.MODELS[model].lookup("evolve")
        evolve(TorusGrid(cfg.d, cfg.n), given, cfg.tau, cfg.steps)
        assert given.tobytes() == before


def test_large_tau_runs_stay_finite():
    # expm1(2 tau) overflows beyond tau ~ 354; the flow and the potential
    # must not, and S_N(tau) tends to the polar factor
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, m, tau, sup in (("matrix", 2, 400.0, math.sqrt(2)), ("vector", 2, 1000.0, 1.0)):
            cfg = RunConfig(model=model, d=1, n=16, m=m, tau=tau, steps=3, ic="smooth", seed=0,
                            threshold_policy="ignore")
            trace = run_experiment(cfg)
            assert trace.dissipation_all_ok
            assert all(np.isfinite(trace.column(c)).all() for c in ("energy_standard", "energy_modified"))
            assert trace.rows[-1].sup_norm == pytest.approx(sup, rel=1e-12)


def test_a_huge_tau_runs_without_warnings():
    # at tau = 1e308 the heat symbol's exponent -tau |k|^2 / 2 is -inf off
    # k = 0: the symbol is exactly 0 there, and no overflow is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(TorusGrid(1, 16).heat_multiplier(5e307, 1), [1.0] + [0.0] * 8)
        for model in ("vector", "matrix"):
            cfg = RunConfig(model=model, d=1, n=16, m=2, tau=1e308, steps=1, ic="smooth",
                            threshold_policy="ignore")
            trace = run_experiment(cfg)
            assert trace.rows[-1].time == 1e308 and trace.dissipation_all_ok


def test_runs_leave_the_grid_phase_unbuilt(monkeypatch):
    # only forward_transform/inverse_transform read the phase factor, and no
    # run calls them; a fresh grid builds it only when asked
    grids = []

    def fresh_grid(d, n):
        grids.append(TorusGrid(d, n))
        return grids[-1]

    monkeypatch.setattr(harness, "TorusGrid", fresh_grid)
    cfg = RunConfig(**PIPELINE_CASES["vector3d"])
    run_experiment(cfg)
    bare = TorusGrid(cfg.d, cfg.n)
    acsplit.vector.strang_evolve_vec(bare, build_initial(cfg, grids[0]), cfg.tau, cfg.steps)
    assert len(grids) == 1
    assert "_phase" not in vars(grids[0]) and "_phase" not in vars(bare)
    fresh = TorusGrid(cfg.d, cfg.n)
    assert np.array_equal(fresh._phase, (-1.0) ** np.sum(np.indices(fresh.shape), axis=0))


def test_nonfinite_energy_after_step_0_is_an_invariant_violation(monkeypatch):
    real = acsplit.vector.standard_energy_vec
    calls = []

    def energy(grid, u):
        calls.append(None)
        return real(grid, u) if len(calls) == 1 else math.inf

    monkeypatch.setattr(acsplit.vector, "standard_energy_vec", energy)
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=2, ic="smooth")
    with pytest.raises(InvariantViolation, match="energy_standard at step 1"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_constant_unit_ic_zero_error():
    # a spatially constant orthonormal-frame field is a fixed point at any tau
    cfg = RunConfig(model="matrix", d=1, n=8, m=2, tau=0.1, steps=1, ic="identity")
    with pytest.warns(RuntimeWarning, match="exceeds 0.43"):  # the tau = 0.1 rung
        rep = convergence_study(cfg, [0.1, 0.05], 0.2)
    assert max(rep.errors) <= 1e-13


def test_convergence_second_order_rates(monkeypatch):
    real = acsplit.vector.strang_evolve_vec
    runs = {}

    def recording(grid, u, tau, steps):
        out = real(grid, u, tau, steps)
        runs[tau] = out.copy()  # the study combines its reference runs in place
        return out

    monkeypatch.setattr(acsplit.vector, "strang_evolve_vec", recording)
    cfg = RunConfig(
        model="vector", d=1, n=16, m=2, tau=0.01, steps=1,
        ic="smooth_deterministic", ic_params={"magnitude": 2.0}, seed=0,
    )
    finest = 1 / 160
    rep = convergence_study(cfg, [1 / 40, 1 / 80, finest], 0.1)
    assert rep.reference_tau == pytest.approx(finest / 8)
    for rate in rep.rates:
        assert 1.75 <= rate <= 2.25
    # halving tau divides the error by about 4
    assert 3.3 <= rep.errors[0] / rep.errors[1] <= 4.7
    text = rep.format()
    assert "tau" in text and "rate" in text

    # the Richardson reference, rebuilt from the study's two reference runs,
    # agrees with the same scheme at (finest tau)/64 far below the finest
    # rung's error, so its own error does not show in the rates
    assert sorted(runs) == sorted([finest / 8, finest / 4, finest, 1 / 80, 1 / 40])
    ref = (4.0 * runs[finest / 8] - runs[finest / 4]) / 3.0
    grid = TorusGrid(cfg.d, cfg.n)

    def norm(diff):
        return np.sqrt(grid.cell_volume * np.sum(diff**2))

    assert rep.errors[-1] == pytest.approx(norm(runs[finest] - ref), rel=1e-12)
    fine = real(grid, build_initial(cfg, grid), finest / 64, 1024)
    assert norm(fine - ref) <= 1e-3 * rep.errors[-1]


def test_convergence_refuses_a_bad_ladder_before_any_run(monkeypatch):
    # the coarsest rung does not divide t_final: refused before the reference runs
    calls = []
    real = acsplit.vector.strang_evolve_vec
    monkeypatch.setattr(acsplit.vector, "strang_evolve_vec",
                        lambda *args: calls.append(None) or real(*args))
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=1, ic="smooth")
    with pytest.raises(ConfigError, match="t_final = 0.05 is not an integer multiple of tau = 0.04"):
        convergence_study(cfg, [0.04, 0.02, 0.01], 0.05)
    # the rungs pass, but the reference step (finest tau)/8 has no finite 1/tau
    with pytest.raises(ConfigError, match=r"reference step tau_ref = \(finest tau\)/8 must be finite"):
        convergence_study(cfg, [8e-308, 4e-308], 8e-308)
    assert calls == []


def test_convergence_ladder_validation():
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=1, ic="smooth")
    with pytest.raises(ConfigError, match="factors of 2"):
        convergence_study(cfg, [0.1, 0.03], 0.2)
    with pytest.raises(ConfigError, match="two entries"):
        convergence_study(cfg, [0.1], 0.2)
    with pytest.raises(ConfigError, match="integer multiple"):
        convergence_study(cfg, [0.1, 0.05], 0.13)
    with pytest.raises(ConfigError, match="finite and > 0"):
        convergence_study(cfg, [math.nan, 0.05], 0.2)


# ---------------------------------------------------------------------------
# verify registry


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_check_passes(name, check_result):
    ok, detail = check_result(name)
    assert ok, f"{name}: {detail}"


def test_check_names_in_order():
    assert list(verify.CHECKS) == [
        "core/transform-round-trip", "core/parseval", "core/half-lattice-round-trip",
        "core/heat-sup-contraction", "core/heat-mean-preservation",
        "core/quadratic-form-small-tau-limit",
        "vector/max-principle", "vector/nonlinear-semigroup", "vector/norm-identity",
        "vector/modified-energy-monotone", "vector/closed-form-vs-rk4",
        "vector/potential-gradient-vs-fd", "vector/rotation-equivariance",
        "vector/concavity-inequality", "vector/second-order-rate",
        "vector/energy-gap-linear-in-tau",
        "matrix/max-principle", "matrix/nonlinear-semigroup", "matrix/closed-form-vs-rk4",
        "matrix/orthogonal-fixed-point", "matrix/orthogonal-equivariance",
        "matrix/frobenius-ball-invariance", "matrix/modified-energy-monotone",
        "matrix/taylor-inequality", "matrix/svd-reconstruction",
        "matrix/projection-orthogonality", "matrix/second-order-rate",
        "matrix/energy-gap-linear-in-tau", "matrix/star-defect-collapses",
        "harness/determinism", "harness/restart-consistency",
    ]


def test_verify_suite_scopes_by_name_prefix(monkeypatch):
    def raising():
        raise RuntimeError("stub broke")

    names = ("core/a", "vector/b", "matrix/c", "harness/d", "core/e")
    stubs = {name: lambda: (True, "stub") for name in names}
    stubs["matrix/f"] = raising
    monkeypatch.setattr(verify, "CHECKS", stubs)
    report = verify_suite("matrix")
    assert [r.name for r in report.results] == ["core/a", "matrix/c", "core/e", "matrix/f"]
    assert re.fullmatch(r"FAIL  matrix/f  \(\d+\.\d\ds\)  raised RuntimeError: stub broke",
                        report.format_lines()[3])
    assert [r.name for r in verify_suite("vector").results] == ["core/a", "vector/b", "core/e"]
    assert [r.name for r in verify_suite("all").results] == list(stubs)


def test_half_lattice_check_fails_on_a_misweighted_zero_plane(monkeypatch):
    # the plane k_last = 0 holds its conjugates already: weighting it 2, like
    # the inner planes, breaks Parseval
    check = verify.CHECKS["core/half-lattice-round-trip"]
    assert check()[0]
    real = TorusGrid._wr.func

    def misweighted(grid):
        wr = real(grid)
        wr[..., 0] = 2.0
        return wr

    monkeypatch.setattr(TorusGrid, "_wr", property(misweighted))
    ok, detail = check()
    assert not ok and float(re.search(r"Parseval rel defect (\S+)", detail)[1]) > 1e-12, detail


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_merged_checks_fail_on_a_perturbed_flow(monkeypatch, model):
    # each merged body passes the true flow and fails one that breaks its
    # property: a scaled flow leaves the ball and the RK4 solution, a shifted
    # one is neither equivariant nor a semigroup
    real = acsplit.tensor.nonlinear_propagate

    def scaled(a, t):
        return real(a, t) * (1.0 + 1e-6)

    def shifted(a, t):
        return real(a, t) + 1e-6

    shape = (3, 1) if model == "vector" else (3, 3)
    oracle = integrate_matrix_ode  # the vector ODE on m x 1 matrices
    cases = [
        (verify._semigroup, shifted, (shape, 1.0, 0, 10, (0.4, 0.6, 1.0))),
        (verify._closed_form, scaled, (oracle, (shape + (2.0,),), 10, 0, (0.25,))),
        (verify._equivariance, shifted, (shape, 1.0, 0, 0.7, 1e-12, "x")),
    ]
    for body, bad, args in cases:
        assert body(real, *args)[0] and not body(bad, *args)[0], body.__name__
    # the potential inequality holds at its weight (1/2 for a column, 1 for a
    # matrix inside the step bound) and fails at w = 0, which is concavity of G
    rng = np.random.Generator(np.random.Philox(0))
    radius, w, tau = ((2.0, 0.5, 0.01) if model == "vector"
                      else (math.sqrt(3), 1.0, 0.5 * verify._threshold_tau(3)))
    u0, u1 = (verify._in_ball(rng, rng.standard_normal((1000,) + shape), radius) for _ in "ab")
    assert acsplit.tensor._inequality_slack(u0, u1 - u0, tau, w) >= -1e-10
    assert acsplit.tensor._inequality_slack(u0, u1 - u0, tau, 0.0) < 0
    # the derivative check fails a gradient off by 1e-4
    fd_args = ([shape + (tau,)], 20, 0, (1.0, 1.0))
    assert verify._gradient_fd(*fd_args) <= 1e-6
    real_gradient = acsplit.tensor.gradient
    monkeypatch.setattr(acsplit.tensor, "gradient", lambda a, t: real_gradient(a, t) * (1 + 1e-4))
    assert verify._gradient_fd(*fd_args) > 1e-6
    args = (model, ((2, 1.0),), (1000.0,), 2, 0)
    assert verify._max_principle(*args)[0]
    monkeypatch.setattr(acsplit.tensor, "nonlinear_propagate", scaled)
    assert not verify._max_principle(*args)[0]


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_rate_check_fails_on_first_order_splitting(monkeypatch, model):
    # Lie splitting S_N(tau) S_L(tau) is first order: the rate body reads about 1
    module = acsplit.vector if model == "vector" else acsplit.matrix
    flow = acsplit.vector.nonlinear_propagate_vec if model == "vector" else acsplit.tensor.nonlinear_propagate

    def lie_evolve(grid, u, tau, steps):
        for _ in range(steps):
            u = flow(acsplit.grid.heat_propagate(grid, u, tau), tau)
        return u

    monkeypatch.setattr(module, f"strang_evolve_{model[:3]}", lie_evolve)
    ok, detail = verify.CHECKS[f"{model}/second-order-rate"]()
    rates = [float(r) for r in re.findall(r"\d\.\d{4}", detail)]
    assert not ok and rates and all(0.9 <= r <= 1.1 for r in rates), detail


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_energy_gap_check_fails_on_a_gap_that_does_not_shrink(monkeypatch, model):
    # a tau-independent offset on the modified energy, large against the
    # O(tau) gap, keeps the gap O(1): halving tau leaves it about the same
    module = acsplit.vector if model == "vector" else acsplit.matrix
    name = f"modified_energy_{model[:3]}"
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda grid, a, tau: real(grid, a, tau) + 100.0)
    ok, detail = verify.CHECKS[f"{model}/energy-gap-linear-in-tau"]()
    ratios = [float(r) for r in re.findall(r"\d\.\d{4}", detail)]
    assert not ok and len(ratios) == 2 and all(r > 0.65 for r in ratios), detail


def test_verify_scope_validation():
    with pytest.raises(ConfigError):
        verify_suite("everything")


def test_verify_vector_scope_never_touches_matrix_module(monkeypatch):
    tripped = []

    def tripwire(*a, **k):
        tripped.append(True)
        raise AssertionError("matrix op invoked in vector scope")

    for name in dir(acsplit.matrix):
        if not name.startswith("_") and callable(getattr(acsplit.matrix, name)):
            monkeypatch.setattr(acsplit.matrix, name, tripwire)
    report = verify_suite("vector")
    assert not tripped
    assert report.passed, "\n".join(report.format_lines())


def test_trace_predicates_match_stepwise_loop():
    # the verify helpers read whole trace columns; the per-step loop they
    # replaced gives the same numbers, bit for bit
    cfg = RunConfig(model="vector", d=1, n=16, m=2, tau=0.5, steps=6, ic="smooth", seed=8,
                    ic_params={"sup": 1.5})
    trace = run_experiment(cfg)
    sups = [r.sup_norm for r in trace.rows]
    energies = [r.energy_modified for r in trace.rows]
    assert verify._worst_sup_excess(trace, 1.0) == max(
        s - max(1.0, p) for p, s in zip(sups, sups[1:])
    )
    assert verify._relative_rises(trace).tolist() == [
        (e - p) / abs(p) for p, e in zip(energies, energies[1:])
    ]


def test_vector_max_principle_check_fails_on_growing_sup(monkeypatch):
    # the check reads the sup norm through run_experiment's trace, so a
    # monitor that overshoots by 0.1 per call must fail it
    real = acsplit.vector.sup_magnitude
    calls = {"n": 0}

    def growing_sup(u):
        calls["n"] += 1
        return real(u) + 0.1 * calls["n"]

    monkeypatch.setattr(acsplit.vector, "sup_magnitude", growing_sup)
    ok, detail = verify.CHECKS["vector/max-principle"]()
    assert not ok
    assert detail == "worst sup excess +4.01e-01; whole-run excess +2.70e+00"


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_max_principle_check_fails_on_a_creeping_sup(monkeypatch, model):
    # a sup norm 5e-13 higher at each row keeps every one-step excess within
    # 1e-12 but ends the run 1e-12 above its start: the whole-run bound fails
    module, name = ((acsplit.vector, "sup_magnitude") if model == "vector"
                    else (acsplit.matrix, "sup_frobenius"))
    real, calls = getattr(module, name), []

    def creeping(u):
        calls.append(1)
        return real(u) + 5e-13 * len(calls)

    monkeypatch.setattr(module, name, creeping)
    floor = 1.0 if model == "vector" else math.sqrt(2)
    ok, detail = verify._max_principle(model, ((2, floor),), (1000.0,), 3, 0)
    step, whole = (float(x) for x in re.findall(r"[+-]\d\.\d\de[+-]\d\d", detail))
    assert not ok and step <= 1e-12 < whole, detail


def _rising_energy():
    counter = {"v": 0.0}

    def fake_energy(grid, u, tau):
        counter["v"] += 1.0
        return counter["v"]

    return fake_energy


def test_vector_energy_check_fails_on_rising_energy(monkeypatch):
    monkeypatch.setattr(acsplit.vector, "modified_energy_vec", _rising_energy())
    report = verify_suite("vector")
    failed = [r.name for r in report.results if not r.ok]
    # the gap check reads the same modified energy
    assert failed == ["vector/modified-energy-monotone", "vector/energy-gap-linear-in-tau"], (
        "\n".join(report.format_lines()))


def test_matrix_energy_check_counts_rising_energy(monkeypatch):
    monkeypatch.setattr(acsplit.matrix, "modified_energy_mat", _rising_energy())
    ok, (ran, skipped, bad) = _dissipation_counts()
    assert not ok and (ran, skipped) == (2, 2)
    assert bad > 0


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_energy_check_fails_on_an_energy_that_never_drops(monkeypatch, model):
    # no step rises, but a certified trajectory must end below where it started
    module = acsplit.vector if model == "vector" else acsplit.matrix
    monkeypatch.setattr(module, f"modified_energy_{model[:3]}", lambda grid, a, tau: 1.0)
    ok, detail = verify._energy_monotone(model, [(0.01, "smooth", 0, {})], 2)
    assert not ok and detail.endswith("0 dissipation-flag failures, worst rel increase "
                                      "+0.00e+00, 1 ending no lower than they start"), detail


@pytest.mark.parametrize("model", ["vector", "matrix"])
def test_energy_check_fails_on_a_nan_rise(monkeypatch, model):
    # a NaN is no rise below the tolerance: the step fails in either model
    candidates = [(0.01, "smooth", 0, {})]
    assert verify._energy_monotone(model, candidates, 2)[0]
    monkeypatch.setattr(verify, "_relative_rises", lambda trace: np.array([-1.0, np.nan]))
    ok, detail = verify._energy_monotone(model, candidates, 2)
    assert not ok
    assert detail.startswith("1 certified trajectories, 0 skipped by threshold, "
                             "1 dissipation-flag failures"), detail


def test_vector_energy_check_counts_every_trajectory():
    ok, detail = verify.CHECKS["vector/modified-energy-monotone"]()
    assert ok
    assert detail.startswith("12 certified trajectories, 0 skipped by threshold, "
                             "0 dissipation-flag failures, worst rel increase"), detail


def _dissipation_counts():
    ok, detail = verify.CHECKS["matrix/modified-energy-monotone"]()
    m = re.search(r"(\d+) certified trajectories, (\d+) skipped by threshold, (\d+) dissipation-flag failures", detail)
    assert m, detail
    return ok, tuple(int(g) for g in m.groups())


def test_dissipation_check_gates_on_threshold(monkeypatch):
    # stock bound: the tau = 1 candidates are outside and must be skipped
    ok, (ran, skipped, bad) = _dissipation_counts()
    assert ok and (ran, skipped, bad) == (2, 2, 0)
    # an inflated bound admits the tau = 1 candidates, so the monitor now
    # actually exercises the uncertified regime (where, by measurement, the
    # energy still decreases; a genuine increase would flip the flags)
    monkeypatch.setattr(acsplit.matrix, "DISSIPATION_THRESHOLD", 43.0)
    ok, (ran, skipped, bad) = _dissipation_counts()
    assert (ran, skipped) == (4, 0)
    assert ok and bad == 0


@pytest.mark.parametrize(
    "counts, rule",
    [
        ([4723, 4295, 2991, 0, 0, 0], None),
        ([4723, 4723, 2991, 0, 0, 0], "does not strictly decrease"),
        ([4723, 4295, 0, 12, 0, 0], "re-forms"),
        ([4723, 4295, 2991, 911, 100, 50], "never collapses"),
        ([0, 0, 0, 0, 0, 0], "empty at the first snapshot"),
        ([4723, 0, 0, 0, 0, 0], "partly shrunk"),
    ],
    ids=["measured", "plateau", "re-nucleation", "no-collapse", "empty-start",
         "instant-wipe-out"],
)
def test_star_collapse_predicate_on_synthetic_counts(counts, rule):
    violation = verify._star_collapse_violation(counts)
    assert rule in (violation or "") if rule else violation is None, violation


@pytest.mark.parametrize("name, mutant, rule", [
    ("det_sign_field", lambda real: lambda u: np.ones(u.shape[:-2]), "does not strictly decrease"),
    ("sup_frobenius", lambda real: lambda u: real(u) + 1e-9, "Frobenius sup excess +1.00e-09"),
], ids=["region-never-shrinks", "sup-above-the-bound"])
def test_star_check_fails_on_a_mutant(monkeypatch, name, mutant, rule):
    monkeypatch.setattr(acsplit.matrix, name, mutant(getattr(acsplit.matrix, name)))
    ok, detail = verify.CHECKS["matrix/star-defect-collapses"]()
    assert not ok and rule in detail, detail


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_run_ok(tmp_path, capsys):
    # run ignores well-formed convergence keys (a malformed one is refused)
    cfg = _write_cfg(
        tmp_path,
        f"model=vector\nd=1\nn=8\nm=2\ntau=0.1\nsteps=3\nic=smooth\nseed=1\n"
        f"out_dir={tmp_path / 'out'}\nsnapshot_every=3\ntau_ladder=1/10,1/20\nt_final=1/2\n",
    )
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "dissipation flags: all ok" in out
    assert (tmp_path / "out" / "trace.csv").exists()


def test_smooth_ic_keeps_fractional_kcut():
    # |k|^2 = 5 (k = (1, 2)) lies inside kcut = 2.5 and outside kcut = 2
    grid = TorusGrid(2, 16)
    k2 = grid.wavenumbers_squared

    def shell_amplitude(ic):
        cfg = build_run_config({"model": "vector", "d": "2", "n": "16", "m": "2", "ic": ic})
        u = build_initial(cfg, grid)
        coeffs = np.abs(np.fft.fftn(u, axes=(0, 1)))
        return coeffs[k2 == 5].max() / coeffs.max()

    assert shell_amplitude("smooth:kcut=2.5") > 1e-3
    assert shell_amplitude("smooth:kcut=2") < 1e-12


def test_smooth_ic_takes_any_kcut(tmp_path, capsys):
    # kcut * kcut is inf for a huge kcut: the whole band, as for any kcut
    # beyond the grid's largest |k|
    grid = TorusGrid(1, 8)

    def field(kcut):
        cfg = build_run_config({"model": "vector", "d": "1", "n": "8", "m": "2",
                                "ic": f"smooth:kcut={kcut}"})
        return build_initial(cfg, grid)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(field("1e300"), field("100"))
        cfg = _write_cfg(tmp_path, "model=vector\nd=1\nn=8\nm=2\nsteps=1\nic=smooth:kcut=1e300\n")
        assert cli.main(["run", cfg]) == 0
    assert "dissipation flags: all ok" in capsys.readouterr().out


def test_cli_run_flag_failure_exit_2(tmp_path, monkeypatch, capsys):
    counter = {"v": 0.0}

    def fake_energy(grid, u, tau):
        counter["v"] += 1.0
        return counter["v"]

    monkeypatch.setattr(acsplit.matrix, "modified_energy_mat", fake_energy)
    cfg = _write_cfg(
        tmp_path, "model=matrix\nd=1\nn=8\nm=2\ntau=0.01\nsteps=2\nic=smooth\nseed=1\n"
    )
    assert cli.main(["run", cfg]) == 2
    assert "dissipation flag failed" in capsys.readouterr().err


def test_cli_converge_ok(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "model=vector\nd=1\nn=16\nm=2\nic=smooth_deterministic:magnitude=2\nseed=0\n"
        "tau_ladder=1/40,1/80,1/160\nt_final=0.1\n",
    )
    assert cli.main(["converge", cfg]) == 0
    out = capsys.readouterr().out
    assert "rate" in out and "reference" in out


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m acsplit` is the `acsplit` command, with no install needed
    cfg = _write_cfg(
        tmp_path,
        "model=vector\nd=1\nn=16\nm=2\nic=smooth_deterministic:magnitude=2\nseed=0\n"
        "tau_ladder=1/40,1/80,1/160\nt_final=0.1\n",
    )
    src = str(Path(acsplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "acsplit", "converge", cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("# reference solution:")
    assert "tau_ref = (finest tau)/8 = 0.00078125" in done.stdout and done.stderr == ""


_LADDER_BEYOND_BOUND = "d=1\nn=8\nm=2\nic=zero\ntau_ladder=1,1/2\nt_final=1\n"


def test_cli_converge_judges_the_rungs_not_the_tau_key(tmp_path, capsys):
    # tau = 1 is beyond the bound but unused; both rungs are inside it
    cfg = _write_cfg(tmp_path, "model=matrix\nd=1\nn=8\nm=2\ntau=1\nthreshold_policy=enforce\n"
                               "ic=identity\ntau_ladder=1/100,1/200\nt_final=1/10\n")
    assert cli.main(["converge", cfg]) == 0
    captured = capsys.readouterr()
    assert "rate" in captured.out and captured.err == ""


def test_cli_converge_warn_warns_per_rung_beyond_the_bound(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model=matrix\nthreshold_policy=warn\n" + _LADDER_BEYOND_BOUND)
    with pytest.warns(RuntimeWarning, match="dissipation is not guaranteed") as caught:
        assert cli.main(["converge", cfg]) == 0
    assert len(caught) == 2  # both rungs, tau = 1 and 1/2, are beyond it
    assert "rate" in capsys.readouterr().out


@pytest.mark.parametrize("model, policy", [("matrix", "ignore"), ("vector", "enforce"),
                                           ("vector", "warn")])
def test_cli_converge_silent_when_the_policy_does_not_apply(tmp_path, capsys, model, policy):
    cfg = _write_cfg(tmp_path, f"model={model}\nthreshold_policy={policy}\n" + _LADDER_BEYOND_BOUND)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["converge", cfg]) == 0
    assert "rate" in capsys.readouterr().out


def test_cli_info(tmp_path, capsys):
    grid = TorusGrid(1, 8)
    u = np.zeros((8, 2))
    path = tmp_path / "v.snap"
    write_snapshot(path, u, model="vector", grid=grid, m=2, tau=0.1, step=5)
    assert cli.main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "model = vector" in out
    assert "step = 5" in out
    assert "sup_norm = 0.0" in out


@pytest.mark.parametrize("entry", [1e154, 1e200])
def test_cli_info_prints_inf_above_the_sup_limit(tmp_path, capsys, entry):
    # finite entries whose pointwise norm exceeds sqrt(float64 max): inf, no warning
    path = tmp_path / "big.snap"
    write_snapshot(path, np.full((8, 2), entry), model="vector", grid=TorusGrid(1, 8), m=2,
                   tau=0.1, step=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"max_entry = {entry}" in out and "sup_norm = inf" in out


def test_every_written_snapshot_reads(tmp_path):
    rng = np.random.Generator(np.random.Philox(14))
    path = tmp_path / "f.snap"
    for model in harness.MODELS:
        for d in (1, 2, 3):
            for m in (1, 2, 3):
                grid = TorusGrid(d, 4)
                u = rng.standard_normal(grid.shape + (m,) * harness.MODELS[model].axes)
                write_snapshot(path, u, model=model, grid=grid, m=m, tau=0.1, step=2)
                meta, back = read_snapshot(path)
                assert np.array_equal(back, u) and meta["layout"] == "components-slowest"


def test_cli_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: acsplit")


def test_cli_verify_exit_codes(monkeypatch, capsys):
    # dispatch and exit codes on stub checks; test_check_passes runs the real ones
    monkeypatch.setattr(verify, "CHECKS", {"core/a": lambda: (True, "stub"),
                                           "vector/b": lambda: (True, "stub"),
                                           "matrix/c": lambda: (False, "stub failed")})
    assert cli.main(["verify", "vector"]) == 0
    out = capsys.readouterr().out
    assert "core/a" in out and "vector/b" in out and "matrix/" not in out
    assert out.endswith("OK: 2/2 checks passed\n")
    assert cli.main(["verify", "matrix"]) == 2
    out = capsys.readouterr().out
    assert re.search(r"^FAIL  matrix/c  \(\d+\.\d\ds\)  stub failed$", out, re.M), out
    assert out.endswith("FAILED: 1/2 checks passed\n")


_TOO_LARGE = "model={}\nd=1\nn=16\nm=2\nic=smooth:sup={}\nsteps=1\n"
_LADDER_KEYS_BASE = "model=vector\nd=1\nn=8\nsteps=2\n"
_LAYOUT_LINE = b"layout=components-slowest\n"

# (id, argv with {path} for the input file, the input: None for no file, config
# text or raw bytes, or an (old, new) edit of a valid snapshot; exit code, message)
_REFUSALS = [
    ("usage-bad-scope", "verify core", None, 1,
     "error: acsplit verify: argument scope: invalid choice: 'core'"),
    ("usage-no-command", "", None, 1, "error: acsplit: the following arguments are required"),
    ("usage-run-no-config", "run", None, 1,
     "error: acsplit run: the following arguments are required: config"),
    ("usage-unknown-command", "bogus", None, 1,
     "error: acsplit: argument command: invalid choice: 'bogus'"),
    ("usage-extra-argument", "run a b", None, 1, "error: acsplit: unrecognized arguments: b"),
    ("run-bad-grid", "run {path}", "model=vector\nn=7\n", 1, "n must be even and >= 4, got 7"),
    ("run-polar-needs-d2", "run {path}", "model=matrix\nd=3\nn=8\nm=2\nic=polar_star\nsteps=1\n",
     1, "polar initial data requires d = 2"),
    ("run-duplicate-ic-parameter", "run {path}",
     "model=vector\nd=1\nn=8\nm=2\nic=smooth:sup=1,sup=2\nsteps=1\n", 1,
     "duplicate ic parameter 'sup'"),
    # an unknown ic parameter names the ic and what it takes, not a Python function
    ("run-unknown-ic-parameter-zero", "run {path}", "model=vector\nd=1\nn=8\nm=2\nic=zero:foo=1\n",
     1, "error: ic 'zero' has no parameter 'foo'; it takes none"),
    ("run-unknown-ic-parameter-polar-star", "run {path}",
     "model=matrix\nd=2\nn=8\nm=2\nic=polar_star:sup=1\nsteps=1\n", 1,
     "error: ic 'polar_star' has no parameter 'sup'; it takes none"),
    ("run-unknown-ic-parameter-smooth", "run {path}", "model=vector\nd=1\nn=8\nm=2\nic=smooth:foo=1\n",
     1, "error: ic 'smooth' has no parameter 'foo'; it takes sup, kcut"),
    ("run-bad-tau-ladder", "run {path}", _LADDER_KEYS_BASE + "tau_ladder=not a number\n", 1,
     "error: bad number"),
    ("run-bad-t-final", "run {path}", _LADDER_KEYS_BASE + "t_final=garbage\n", 1,
     "error: bad number"),
    ("run-nonfinite-tau", "run {path}", "model=vector\nd=1\nn=16\nm=2\nic=zero\ntau=nan\nsteps=2\n",
     1, "bad number 'nan': not finite"),
    # 1/tau overflows, and the energies divide by tau
    ("run-tau-too-small", "run {path}", "model=vector\nd=1\nn=16\nm=2\ntau=3e-309\nsteps=2\n", 1,
     "error: tau must be finite and > 0 with a finite 1/tau, got 3e-309"),
    ("converge-tau-too-small", "converge {path}",
     _LADDER_KEYS_BASE + "tau_ladder=6e-309, 3e-309\nt_final=6e-309\n", 1,
     "error: tau_ladder entry must be finite and > 0 with a finite 1/tau, got 3e-309"),
    # the rungs pass, but the reference step (finest tau)/8 = 5e-309 has no finite 1/tau
    ("converge-reference-step-too-small", "converge {path}",
     _LADDER_KEYS_BASE + "tau_ladder=8e-308, 4e-308\nt_final=8e-308\n", 1,
     "error: tau_ladder reference step tau_ref = (finest tau)/8 must be finite and > 0 with a "
     "finite 1/tau, got 5e-309"),
    # the default 100 steps of 1e308 end at t = inf
    ("run-end-time-overflows", "run {path}", "model=vector\nd=1\nn=16\nm=2\ntau=1e308\n", 1,
     "error: steps * tau = 100 * 1e+308 must be finite and >= 0, got inf"),
    # 100000^3 float64 nodes (7 PiB): numpy refuses the first array at once
    ("run-oversized-grid", "run {path}", "model=vector\nd=3\nn=100000\nm=3\nic=zero\nsteps=1\n", 1,
     "error: out of memory"),
    ("run-snapshot-every-without-out-dir", "run {path}", "model=vector\nd=1\nn=8\nsnapshot_every=5\n",
     1, "error: snapshot_every needs out_dir"),
    ("run-missing-config", "run {path}", None, 3, "No such file or directory"),
    ("converge-missing-keys", "converge {path}", "model=vector\n", 1,
     "converge needs tau_ladder (comma-separated) and t_final keys"),
    ("converge-enforce-beyond-bound", "converge {path}",
     "model=matrix\nthreshold_policy=enforce\n" + _LADDER_BEYOND_BOUND, 1,
     "error: threshold_policy=enforce requires m e^tau (e^{2tau}-1) <= 0.43; margin = -"),
    # 1.6e19 reference steps: more than an index can count, refused before the run
    ("converge-too-many-steps", "converge {path}", _LADDER_KEYS_BASE + "tau_ladder=0.1, 0.05\nt_final=1e17\n",
     1, "error: t_final = 1e+17 takes 16000000000000000000 steps of tau = 0.00625"),
    # t_final / tau overflows to inf steps
    ("converge-step-count-overflows", "converge {path}",
     _LADDER_KEYS_BASE + "tau_ladder=0.2, 0.1\nt_final=1e308\n", 1,
     "error: t_final = 1e+308 takes inf steps of tau = 0.2: too many"),
    # finite entries whose pointwise squared norm overflows, and a finite sup
    # norm whose standard energy (the squared Gram matrix) overflows: a config
    # error that names the limit, not an overflow warning and an invariant failure
    *((f"{command}-field-too-large-to-square-{model}", command + " {path}",
       _TOO_LARGE.format(model, "1e200") + "tau_ladder=1/40,1/80\nt_final=0.1\n", 1,
       "error: initial field too large: sup_norm overflows for a pointwise norm above about "
       "1.341e+154") for command in ("run", "converge") for model in ("vector", "matrix")),
    *((f"run-energy-too-large-{model}", "run {path}",
       _TOO_LARGE.format(model, "1e100") + "threshold_policy=ignore\n", 1,
       "error: initial field too large: energy_standard overflows for a pointwise norm above "
       "about 1.158e+77") for model in ("vector", "matrix")),
    # the same rule in both commands, also where the standard energy's spectrum
    # overflows to inf and its zero weight at k = 0 makes it NaN
    *((f"{command}-energy-too-large{where}-{model}", command + " {path}",
       _TOO_LARGE.format(model, sup) + "tau_ladder=1/40,1/80\nt_final=0.1\n", 1,
       "error: initial field too large: energy_standard overflows for a pointwise norm above "
       "about 1.158e+77")
      for command, where, sup in (("converge", "", "1e100"), ("run", "-near-the-sup-limit", "1e154"),
                                  ("converge", "-near-the-sup-limit", "1e154"))
      for model in ("vector", "matrix")),
    ("info-missing-file", "info {path}", None, 3, "No such file or directory"),
    ("info-not-a-snapshot", "info {path}", b"garbage\n", 3, "not a snapshot file"),
    ("info-bad-geometry", "info {path}", (b"\nm=2\n", b"\nm=0\n"), 3,
     "bad snapshot geometry: m must be >= 1, got 0"),
    ("info-other-layout", "info {path}", (_LAYOUT_LINE, b"layout=other\n"), 3,
     "unsupported snapshot encoding: layout"),
    ("info-no-layout", "info {path}", (_LAYOUT_LINE, b""), 3,
     "unsupported snapshot encoding: layout"),
    ("info-unknown-key", "info {path}", (b"\nend\n", b"\nextra=1\nend\n"), 3,
     "unknown or repeated snapshot header key 'extra'"),
    ("info-nonfinite-tau", "info {path}", (b"\ntau=0.1\n", b"\ntau=nan\n"), 3,
     "snapshot tau must be finite and > 0 with a finite 1/tau, got nan"),
    ("info-nonpositive-tau", "info {path}", (b"\ntau=0.1\n", b"\ntau=-1.0\n"), 3,
     "snapshot tau must be finite and > 0 with a finite 1/tau, got -1.0"),
    ("info-negative-step", "info {path}", (b"\nstep=0\n", b"\nstep=-7\n"), 3,
     "bad snapshot step: must be >= 0, got -7"),
]


@pytest.mark.parametrize("argv, content, code, message",
                         [pytest.param(*row, id=name) for name, *row in _REFUSALS])
def test_cli_refuses_bad_input(tmp_path, capsys, argv, content, code, message):
    # the boundary contract: the documented exit code, one stderr line that
    # names the problem, nothing on stdout, no traceback and no warning
    path = tmp_path / "input"
    if isinstance(content, tuple):
        write_snapshot(path, np.zeros((8, 2)), model="vector", grid=TorusGrid(1, 8), m=2, tau=0.1,
                       step=0)
        blob = path.read_bytes()
        assert blob.count(content[0]) == 1
        path.write_bytes(blob.replace(*content))
    elif content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([arg.format(path=path) for arg in argv.split()]) == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith({1: "error: ", 3: "i/o error: "}[code]), err
    assert message in err, err
