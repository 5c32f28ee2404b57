"""The benchmark's workloads: their inputs, one operation each, and the
checks each operation's output must pass.

An operation is one trajectory (`run_experiment`) or one convergence study
(`convergence_study`), called through acsplit's public API on a config file
read with `load_config`.  Only `vector3d_monitored` draws from the seed; the
star and the ladder are the paper's deterministic data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "trajectory" (run_experiment) or "convergence" (convergence_study)
    config: str  # config file text; {seed} and {out_dir} are filled in per run
    ratio_steps: int  # steps of the monitored and bare runs behind monitored_over_bare

    def config_text(self, seed: int, out_dir: Path) -> str:
        return self.config.format(seed=seed, out_dir=out_dir)


# snapshot_every and steps leave the last two snapshots one step apart
# (160, 161 and 20, 21), so the last step can be replayed from the files.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="matrix_star_monitored",
            kind="trajectory",
            config=(
                "model = matrix\nd = 2\nn = 128\nm = 2\ntau = 0.01\nsteps = 161\n"
                "ic = polar_star\nsnapshot_every = 20\nthreshold_policy = enforce\n"
                "out_dir = {out_dir}\n"
            ),
            ratio_steps=40,
        ),
        Workload(
            name="vector3d_monitored",
            kind="trajectory",
            config=(
                "model = vector\nd = 3\nn = 64\nm = 3\ntau = 0.02\nsteps = 21\n"
                "ic = smooth:sup=2.0,kcut=4\nseed = {seed}\nsnapshot_every = 10\n"
                "out_dir = {out_dir}\n"
            ),
            ratio_steps=10,
        ),
        Workload(
            name="converge_ladder",
            kind="convergence",
            config=(
                "model = vector\nd = 2\nn = 64\nm = 2\ntau = 1/12800\nsteps = 128\n"
                "ic = smooth_deterministic:magnitude=5.0\n"
                "tau_ladder = 1/3200, 1/6400, 1/12800\nt_final = 1/100\n"
            ),
            ratio_steps=128,
        ),
    )
}


def ladder(acsplit, config_path) -> tuple[list[float], float]:
    """The tau ladder and t_final keys of a convergence config."""
    raw = acsplit.harness.parse_config_text(Path(config_path).read_text())
    taus = [float(Fraction(s)) for s in raw["tau_ladder"].split(",")]
    return taus, float(Fraction(raw["t_final"]))


def op_steps(acsplit, wl: Workload, cfg, config_path) -> int:
    """Time steps one operation takes, summed over every run it makes: a
    trajectory's steps, or each rung's and the reference's at (finest tau)/64."""
    if wl.kind != "convergence":
        return cfg.steps
    taus, t_final = ladder(acsplit, config_path)
    return sum(round(t_final / tau) for tau in taus + [taus[-1] / 64])


def operate(acsplit, wl: Workload, cfg, config_path):
    """One operation: the trajectory's trace or the convergence report."""
    if wl.kind == "convergence":
        taus, t_final = ladder(acsplit, config_path)
        return acsplit.convergence_study(cfg, taus, t_final)
    return acsplit.run_experiment(cfg)


def violations(wl: Workload, cfg, result) -> list[str]:
    """Every check the operation's output fails; empty when it passes."""
    if wl.kind == "convergence":
        return [v for v in [checks.rates_violation(result.rates)] if v]
    found = []
    rows = result.rows
    if len(rows) != cfg.steps + 1:
        found.append(f"trace has {len(rows)} rows, expected {cfg.steps + 1}")
    sups = [r.sup_norm for r in rows]
    if cfg.model == "vector":
        found.append(checks.vector_max_principle_violation(sups))
    else:
        found.append(checks.frobenius_violation(sups, cfg.m))
    found.append(checks.dissipation_violation([r.dissipation_ok for r in rows]))

    snaps = [checks.read_snapshot(p) for p in sorted(Path(cfg.out_dir).glob("snap_*.snap"))]
    steps = [step for step, _ in snaps]
    expected = sorted(set(range(0, cfg.steps, cfg.snapshot_every)) | {cfg.steps})
    if steps != expected:
        return [v for v in found if v] + [f"snapshot steps {steps}, expected {expected}"]
    for step, field in snaps:
        sup = float(checks.pointwise_norm(field, cfg.model).max())
        if not math.isclose(sup, sups[step], rel_tol=1e-12):
            found.append(f"step {step}: trace sup {sups[step]!r} != field sup {sup!r}")
    found.append(
        checks.step_violation(snaps[-2][1], snaps[-1][1], cfg.tau, cfg.model, cfg.d)
        if steps[-1] - steps[-2] == 1
        else "last two snapshots are not one step apart"
    )
    # the peak-allocation pass stops short of the star's extinction
    if cfg.ic == "polar_star" and cfg.steps * cfg.tau >= checks.STAR_GONE_BY:
        found.append(
            checks.star_collapse_violation(
                [step * cfg.tau for step in steps],
                [checks.det_positive_count(field) for _, field in snaps],
            )
        )
    return [v for v in found if v]
