import math
import re

import numpy as np
import pytest

import acsplit.matrix
from acsplit import cli
from acsplit.grid import TorusGrid
from acsplit.harness import (
    ConfigError,
    EnergyTrace,
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
    verify_suite,
    write_snapshot,
    _check_mat_energy_monotone,
)
from acsplit.matrix import polar_ic
from acsplit.vector import smooth_random_ic


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
    ):
        with pytest.raises(ConfigError):
            build_run_config({"model": "vector", **bad})


def test_threshold_policy_enforce_rejects_large_tau():
    with pytest.raises(ConfigError):
        RunConfig(model="matrix", tau=1.0, threshold_policy="enforce")
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


# ---------------------------------------------------------------------------
# trace


def test_trace_csv_round_trip():
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=3, ic="smooth", seed=1)
    trace = run_experiment(cfg)
    text = trace.to_csv()
    assert text.splitlines()[0] == TRACE_HEADER
    back = EnergyTrace.from_csv(text)
    assert back.rows == trace.rows  # full round-trip precision


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
# convergence study


def test_convergence_constant_unit_ic_zero_error():
    # a spatially constant orthonormal-frame field is a fixed point at any tau
    cfg = RunConfig(model="matrix", d=1, n=8, m=2, tau=0.1, steps=1, ic="identity")
    rep = convergence_study(cfg, [0.1, 0.05], 0.2)
    assert max(rep.errors) <= 1e-13


def test_convergence_second_order_rates():
    cfg = RunConfig(
        model="vector", d=1, n=16, m=2, tau=0.01, steps=1,
        ic="smooth_deterministic", ic_params={"magnitude": 2.0}, seed=0,
    )
    rep = convergence_study(cfg, [1 / 40, 1 / 80, 1 / 160], 0.1)
    assert rep.reference_tau == pytest.approx((1 / 160) / 64)
    for rate in rep.rates:
        assert 1.75 <= rate <= 2.25
    # halving tau divides the error by about 4
    assert 3.3 <= rep.errors[0] / rep.errors[1] <= 4.7
    text = rep.format()
    assert "tau" in text and "rate" in text


def test_convergence_ladder_validation():
    cfg = RunConfig(model="vector", d=1, n=8, m=2, tau=0.1, steps=1, ic="smooth")
    with pytest.raises(ConfigError, match="factors of 2"):
        convergence_study(cfg, [0.1, 0.03], 0.2)
    with pytest.raises(ConfigError, match="two entries"):
        convergence_study(cfg, [0.1], 0.2)
    with pytest.raises(ConfigError, match="integer multiple"):
        convergence_study(cfg, [0.1, 0.05], 0.13)


# ---------------------------------------------------------------------------
# verify suite


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


def test_verify_matrix_scope_passes():
    report = verify_suite("matrix")
    assert report.passed, "\n".join(report.format_lines())
    names = [r.name for r in report.results]
    assert any(n.startswith("matrix/") for n in names)
    assert not any(n.startswith("vector/") for n in names)


def _dissipation_counts():
    ok, detail = _check_mat_energy_monotone()
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


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_run_ok(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        f"model=vector\nd=1\nn=8\nm=2\ntau=0.1\nsteps=3\nic=smooth\nseed=1\n"
        f"out_dir={tmp_path / 'out'}\nsnapshot_every=3\n",
    )
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "dissipation flags: all ok" in out
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_run_bad_config_exit_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model=vector\nn=7\n")
    assert cli.main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_nonfinite_tau_exit_1_without_traceback(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model=vector\nd=1\nn=16\nm=2\nic=zero\ntau=nan\nsteps=2\n")
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_cli_usage_error_exit_1(capsys):
    # argparse's own exit code 2 would collide with the invariant-failure code
    assert cli.main(["verify", "core"]) == 1


def test_cli_run_missing_config_exit_3(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 3


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


def test_cli_converge_missing_keys_exit_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model=vector\n")
    assert cli.main(["converge", cfg]) == 1


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


def test_cli_info_missing_file_exit_3(tmp_path):
    assert cli.main(["info", str(tmp_path / "ghost.snap")]) == 3


def test_cli_info_corrupt_file_exit_3(tmp_path):
    p = tmp_path / "bad.snap"
    p.write_bytes(b"garbage\n")
    assert cli.main(["info", str(p)]) == 3


def test_cli_verify_vector_scope_exit_0(capsys):
    assert cli.main(["verify", "vector"]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out
    assert "vector/max-principle" in out
