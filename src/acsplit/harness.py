"""Experiment driver: configuration ingestion, initial-condition registry,
trajectory runs with energy traces and snapshots, the convergence-study
fitter, and the self-check suite behind `acsplit verify`.

On-disk formats
---------------
Energy trace: CSV with header
    step,time,energy_standard,energy_modified,delta_e,sup_norm,dissipation_ok
one row per step including step 0; floats are written with full round-trip
precision; dissipation_ok is 1/0 and is 0 exactly where the modified energy
increased by more than the relative tolerance 1e-10.

Snapshot: an ASCII header
    ACSPLIT-SNAPSHOT v1
    key=value ...
    end
followed by the raw field as little-endian float64, C order, with the
component/entry axes slowest-varying (a vector field is stored as (m, N, ..),
a matrix field as (m, m, N, ..)).

Config file: flat key=value lines; `#` starts a comment.  Keys: model, d, n,
m, tau, steps, ic, seed, out_dir, snapshot_every, threshold_policy, and for
the convergence subcommand tau_ladder, t_final.  tau values accept fractions
("1/3200").  The ic key is a registry name with optional parameters, e.g.
`ic=smooth:sup=0.8,kcut=4`, or `ic=snapshot:<path>` to resume from a file.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import matrix as mat
from . import tensor
from . import vector as vec
from .grid import (
    TorusGrid,
    dissipation_quadratic,
    dirichlet_energy,
    forward_transform,
    heat_propagate,
    inverse_transform,
)
from .oracle import OracleConfig, integrate_matrix_ode, integrate_vector_ode

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "RunConfig",
    "TraceRow",
    "EnergyTrace",
    "ConvergenceReport",
    "CheckResult",
    "VerifyReport",
    "parse_config_text",
    "load_config",
    "build_initial",
    "run_experiment",
    "convergence_study",
    "verify_suite",
    "write_snapshot",
    "read_snapshot",
    "snapshot_info",
]

# relative tolerance for the per-step dissipation flag
DISSIPATION_REL_TOL = 1e-10

SNAPSHOT_MAGIC = "ACSPLIT-SNAPSHOT"
SNAPSHOT_VERSION = 1
TRACE_HEADER = "step,time,energy_standard,energy_modified,delta_e,sup_norm,dissipation_ok"

# number of component axes after the d spatial axes of each model's fields
COMPONENT_AXES = {"vector": 1, "matrix": 2}


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 1)."""


class InvariantViolation(RuntimeError):
    """A monitored runtime invariant failed (CLI exit code 2)."""


class SnapshotFormatError(OSError):
    """Unreadable or corrupt snapshot file (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """One trajectory run.  ic is a registry name (see VECTOR_ICS/MATRIX_ICS)
    or 'snapshot:<path>'; ic_params are its keyword parameters."""

    model: str
    d: int = 2
    n: int = 64
    m: int = 2
    tau: float = 0.01
    steps: int = 100
    ic: str = ""
    ic_params: dict = dc_field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None
    snapshot_every: int = 0
    threshold_policy: str = "warn"

    def __post_init__(self):
        if self.model not in ("vector", "matrix"):
            raise ConfigError(f"model must be 'vector' or 'matrix', got {self.model!r}")
        if self.d not in (1, 2, 3):
            raise ConfigError(f"d must be 1, 2, or 3, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigError(f"n must be even and >= 4, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key, value in self.ic_params.items():
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"ic parameter {key} must be finite and >= 0, got {value}")
        if self.threshold_policy not in ("enforce", "warn", "ignore"):
            raise ConfigError(
                f"threshold_policy must be enforce/warn/ignore, got {self.threshold_policy!r}"
            )
        if not self.ic:
            self.ic = "smooth" if self.model == "vector" else "polar_star"
        if not self.ic.startswith("snapshot:"):
            registry = VECTOR_ICS if self.model == "vector" else MATRIX_ICS
            if self.ic not in registry:
                raise ConfigError(
                    f"unknown initial condition {self.ic!r} for {self.model} model; "
                    f"known: {', '.join(sorted(registry))}"
                )
        if self.model == "matrix" and self.threshold_policy == "enforce":
            check = mat.threshold_check(self.tau, self.m)
            if not check.satisfied:
                raise ConfigError(
                    "threshold_policy=enforce requires m e^tau (e^{2tau}-1) <= "
                    f"{mat.DISSIPATION_THRESHOLD}; margin = {check.margin:.4g}"
                )


def _parse_number(s: str) -> float:
    """Parser for finite floats that also accepts fraction syntax like 1/3200."""
    s = s.strip()
    try:
        value = float(Fraction(s)) if "/" in s else float(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad number {s!r}") from e
    if not math.isfinite(value):
        raise ConfigError(f"bad number {s!r}: not finite")
    return value


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines into a dict; '#' comments and blank lines skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


_RUN_KEYS = {
    "model", "d", "n", "m", "tau", "steps", "ic", "seed",
    "out_dir", "snapshot_every", "threshold_policy",
}
_CONVERGE_KEYS = {"tau_ladder", "t_final"}


def _parse_ic(text: str) -> tuple[str, dict]:
    """'name' or 'name:k=v,k=v' or 'snapshot:<path>' -> (name, params)."""
    if text.startswith("snapshot:"):
        return text, {}
    name, _, rest = text.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"bad ic parameter {item!r} in {text!r}")
            k, v = item.split("=", 1)
            try:
                num = _parse_number(v)
            except ConfigError as e:
                raise ConfigError(f"bad ic parameter value {v!r} in {text!r}") from e
            params[k.strip()] = int(num) if num == int(num) and "." not in v and "/" not in v else num
    return name.strip(), params


def build_run_config(raw: dict[str, str]) -> RunConfig:
    unknown = set(raw) - _RUN_KEYS - _CONVERGE_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "model" not in raw:
        raise ConfigError("config key 'model' is required")
    ic_name, ic_params = _parse_ic(raw.get("ic", ""))
    try:
        return RunConfig(
            model=raw["model"],
            d=int(raw.get("d", "2")),
            n=int(raw.get("n", "64")),
            m=int(raw.get("m", "2")),
            tau=_parse_number(raw.get("tau", "0.01")),
            steps=int(raw.get("steps", "100")),
            ic=ic_name,
            ic_params=ic_params,
            seed=int(raw.get("seed", "0")),
            out_dir=raw.get("out_dir") or None,
            snapshot_every=int(raw.get("snapshot_every", "0")),
            threshold_policy=raw.get("threshold_policy", "warn"),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad config value: {e}") from e


def load_config(path: str | os.PathLike) -> RunConfig:
    text = Path(path).read_text()
    return build_run_config(parse_config_text(text))


# ---------------------------------------------------------------------------
# initial conditions

# registry entries take (grid, m, seed, **params)
def _shared_ics(axes: int, default_sup: Callable[[int], float]) -> dict[str, Callable]:
    """The entries both models have, on fields with `axes` component axes of size m."""
    return {
        "zero": lambda grid, m, seed: np.zeros(grid.shape + (m,) * axes),
        "smooth": lambda grid, m, seed, sup=None, kcut=4: tensor.smooth_random_ic(
            grid, (m,) * axes, default_sup(m) if sup is None else sup, seed, int(kcut)
        ),
    }


VECTOR_ICS: dict[str, Callable] = {
    **_shared_ics(COMPONENT_AXES["vector"], lambda m: 0.8),
    "random_direction": lambda grid, m, seed, magnitude=0.8: vec.random_direction_ic(
        grid, m, magnitude, seed
    ),
    "smooth_deterministic": lambda grid, m, seed, magnitude=0.8: vec.smooth_deterministic_ic(
        grid, m, magnitude
    ),
}

MATRIX_ICS: dict[str, Callable] = {
    **_shared_ics(COMPONENT_AXES["matrix"], math.sqrt),
    "identity": lambda grid, m, seed: np.broadcast_to(
        np.eye(m), grid.shape + (m, m)
    ).copy(),
    "polar_star": lambda grid, m, seed: _require_m2(grid, m, "star"),
    "polar_stripe": lambda grid, m, seed: _require_m2(grid, m, "stripe"),
    "split_noise": lambda grid, m, seed, lo=0.05, hi=300.0: mat.split_amplitude_mat_ic(
        grid, m, lo, hi, seed
    ),
}


def _require_m2(grid: TorusGrid, m: int, variant: str) -> np.ndarray:
    if m != 2:
        raise ConfigError(f"polar initial data requires m = 2, got m = {m}")
    return mat.polar_ic(grid, variant)


def build_initial(cfg: RunConfig, grid: TorusGrid) -> np.ndarray:
    """Materialize cfg.ic on the grid (registry entry or snapshot file)."""
    if cfg.ic.startswith("snapshot:"):
        meta, values = read_snapshot(cfg.ic[len("snapshot:"):])
        if meta["model"] != cfg.model or meta["d"] != cfg.d or meta["n"] != cfg.n or meta["m"] != cfg.m:
            raise ConfigError(
                "snapshot geometry does not match config: "
                f"snapshot has model={meta['model']} d={meta['d']} n={meta['n']} m={meta['m']}"
            )
        return values
    registry = VECTOR_ICS if cfg.model == "vector" else MATRIX_ICS
    try:
        return registry[cfg.ic](grid, cfg.m, cfg.seed, **cfg.ic_params)
    except TypeError as e:
        raise ConfigError(f"bad parameters for ic {cfg.ic!r}: {e}") from e


# ---------------------------------------------------------------------------
# trace / snapshot IO


class TraceRow(NamedTuple):
    step: int
    time: float
    energy_standard: float
    energy_modified: float
    delta_e: float
    sup_norm: float
    dissipation_ok: bool


@dataclass
class EnergyTrace:
    rows: list[TraceRow]

    @property
    def dissipation_all_ok(self) -> bool:
        return all(r.dissipation_ok for r in self.rows)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=np.float64)

    def to_csv(self) -> str:
        lines = [TRACE_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.step},{r.time!r},{r.energy_standard!r},{r.energy_modified!r},"
                f"{r.delta_e!r},{r.sup_norm!r},{1 if r.dissipation_ok else 0}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "EnergyTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != TRACE_HEADER:
            raise ValueError("missing or wrong trace header")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            rows.append(
                TraceRow(
                    step=int(parts[0]),
                    time=float(parts[1]),
                    energy_standard=float(parts[2]),
                    energy_modified=float(parts[3]),
                    delta_e=float(parts[4]),
                    sup_norm=float(parts[5]),
                    dissipation_ok=parts[6].strip() == "1",
                )
            )
        return cls(rows)


def write_snapshot(
    path: str | os.PathLike,
    values: np.ndarray,
    *,
    model: str,
    grid: TorusGrid,
    m: int,
    tau: float,
    step: int,
) -> None:
    """Write a field snapshot: ASCII header, then little-endian float64 with
    component/entry axes slowest-varying."""
    if model not in COMPONENT_AXES:
        raise ValueError(f"unknown model {model!r}")
    values = np.asarray(values, dtype=np.float64)
    components = range(grid.d, values.ndim)
    disk = np.moveaxis(values, components, range(len(components)))
    header = (
        f"{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n"
        f"model={model}\n"
        f"d={grid.d}\n"
        f"n={grid.n}\n"
        f"m={m}\n"
        f"tau={tau!r}\n"
        f"step={step}\n"
        "endian=little\n"
        "dtype=float64\n"
        "layout=components-slowest\n"
        "end\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # the buffer itself, not a bytes copy of it: one copy of the field at most
        fh.write(np.ascontiguousarray(disk, dtype="<f8").data)


def _read_snapshot_header(fh) -> dict:
    first = fh.readline().decode("ascii", errors="replace").rstrip("\n")
    if not first.startswith(SNAPSHOT_MAGIC):
        raise SnapshotFormatError(f"not a snapshot file (magic line {first!r})")
    if first != f"{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}":
        raise SnapshotFormatError(
            f"unsupported snapshot version {first!r}; expected v{SNAPSHOT_VERSION}"
        )
    version = first.split("v")[-1]
    meta: dict = {"version": version}
    while True:
        line = fh.readline()
        if not line:
            raise SnapshotFormatError("truncated snapshot header")
        line = line.decode("ascii", errors="replace").rstrip("\n")
        if line == "end":
            break
        if "=" not in line:
            raise SnapshotFormatError(f"bad header line {line!r}")
        k, v = line.split("=", 1)
        meta[k] = v
    try:
        meta["d"] = int(meta["d"])
        meta["n"] = int(meta["n"])
        meta["m"] = int(meta["m"])
        meta["tau"] = float(meta["tau"])
        meta["step"] = int(meta["step"])
    except (KeyError, ValueError) as e:
        raise SnapshotFormatError(f"incomplete snapshot header: {e}") from e
    if meta.get("endian") != "little" or meta.get("dtype") != "float64":
        raise SnapshotFormatError("unsupported snapshot encoding")
    return meta


def read_snapshot(path: str | os.PathLike) -> tuple[dict, np.ndarray]:
    """Read a snapshot; returns (header dict, field with spatial axes first)."""
    with open(path, "rb") as fh:
        meta = _read_snapshot_header(fh)
        d, n, m = meta["d"], meta["n"], meta["m"]
        if meta["model"] not in COMPONENT_AXES:
            raise SnapshotFormatError(f"unknown model {meta['model']!r}")
        k = COMPONENT_AXES[meta["model"]]
        disk_shape = (m,) * k + (n,) * d
        count = int(np.prod(disk_shape))
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise SnapshotFormatError(
                f"truncated snapshot payload: expected {count * 8} bytes, got {len(raw)}"
            )
        if fh.read(1):
            raise SnapshotFormatError("trailing bytes after snapshot payload")
    disk = np.frombuffer(raw, dtype="<f8").reshape(disk_shape).astype(np.float64)
    return meta, np.ascontiguousarray(np.moveaxis(disk, range(k), range(d, d + k)))


def snapshot_info(path: str | os.PathLike) -> dict:
    """Header plus basic field statistics, for `acsplit info`."""
    meta, values = read_snapshot(path)
    meta = dict(meta)
    meta["min_entry"] = float(values.min())
    meta["max_entry"] = float(values.max())
    # the pointwise Frobenius norm, with the component axes read as m x q matrices
    fields = values.reshape(values.shape[: meta["d"]] + (meta["m"], -1))
    meta["sup_norm"] = tensor.sup_norm(fields)
    return meta


# ---------------------------------------------------------------------------
# trajectory driver


def _model_ops(model: str):
    if model == "vector":
        return (
            vec.strang_step_vec,
            vec.sup_magnitude,
            vec.standard_energy_vec,
            vec.modified_energy_vec,
        )
    return (
        mat.strang_step_mat,
        mat.sup_frobenius,
        mat.standard_energy_mat,
        mat.modified_energy_mat,
    )


def run_experiment(cfg: RunConfig, initial: np.ndarray | None = None) -> EnergyTrace:
    """Step the configured model, recording the energy trace each step and
    writing trace/snapshot files when out_dir is set.

    The dissipation flag of row n is false iff the modified energy rose above
    the previous row's by more than the relative tolerance 1e-10.  The
    threshold policy applies to the matrix model only: 'enforce' refuses a
    config beyond the bound (at construction), 'warn' emits a warning and
    proceeds, 'ignore' proceeds silently.
    """
    grid = TorusGrid(cfg.d, cfg.n)
    u = build_initial(cfg, grid) if initial is None else np.asarray(initial, dtype=np.float64)
    expected = grid.shape + (cfg.m,) * COMPONENT_AXES[cfg.model]
    if u.shape != expected:
        raise ConfigError(f"initial field shape {u.shape} != expected {expected}")

    if cfg.model == "matrix" and cfg.threshold_policy == "warn":
        check = mat.threshold_check(cfg.tau, cfg.m)
        if not check.satisfied:
            warnings.warn(
                f"m e^tau (e^(2 tau)-1) exceeds {mat.DISSIPATION_THRESHOLD} "
                f"(margin {check.margin:.4g}); modified-energy dissipation is "
                "not guaranteed at this step size",
                RuntimeWarning,
                stacklevel=2,
            )

    step_fn, sup_fn, e_std_fn, e_mod_fn = _model_ops(cfg.model)

    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def snap(step_idx: int, field: np.ndarray):
        if out_dir is None or cfg.snapshot_every <= 0:
            return
        if step_idx % cfg.snapshot_every == 0 or step_idx == cfg.steps:
            write_snapshot(
                out_dir / f"snap_{step_idx:06d}.snap",
                field,
                model=cfg.model,
                grid=grid,
                m=cfg.m,
                tau=cfg.tau,
                step=step_idx,
            )

    rows: list[TraceRow] = []

    def record(step_idx: int, field: np.ndarray, prev_mod: float | None) -> float:
        sup = sup_fn(field)
        if not np.isfinite(sup):
            raise InvariantViolation(f"non-finite field values at step {step_idx}")
        e_std = e_std_fn(grid, field)
        e_mod = e_mod_fn(grid, field, cfg.tau)
        ok = True
        if prev_mod is not None:
            ok = e_mod <= prev_mod + DISSIPATION_REL_TOL * abs(prev_mod)
        rows.append(
            TraceRow(
                step=step_idx,
                time=step_idx * cfg.tau,
                energy_standard=e_std,
                energy_modified=e_mod,
                delta_e=abs(e_mod - e_std),
                sup_norm=sup,
                dissipation_ok=ok,
            )
        )
        return e_mod

    prev = record(0, u, None)
    snap(0, u)
    for n in range(1, cfg.steps + 1):
        u = step_fn(grid, u, cfg.tau)
        prev = record(n, u, prev)
        snap(n, u)

    trace = EnergyTrace(rows)
    if out_dir is not None:
        (out_dir / "trace.csv").write_text(trace.to_csv())
    return trace


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceReport:
    taus: list[float]
    errors: list[float]
    rates: list[float]
    reference_tau: float
    t_final: float
    norm: str = "cell-weighted l2: sqrt((2 pi / n)^d * sum_nodes |diff|^2)"

    def format(self) -> str:
        lines = [
            f"# reference solution: same scheme at tau_ref = (finest tau)/64 = {self.reference_tau!r}",
            f"# error norm: {self.norm}",
            f"# t_final = {self.t_final!r}",
            f"{'tau':>14}  {'l2 error':>14}  {'rate':>8}",
        ]
        for i, (t, e) in enumerate(zip(self.taus, self.errors)):
            rate = f"{self.rates[i - 1]:8.4f}" if i > 0 else " " * 8
            lines.append(f"{t:14.8g}  {e:14.6e}  {rate}")
        return "\n".join(lines)


def _steps_for(t_final: float, tau: float) -> int:
    steps = t_final / tau
    rounded = round(steps)
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, rounded):
        raise ConfigError(
            f"t_final = {t_final} is not an integer multiple of tau = {tau}"
        )
    return int(rounded)


def convergence_study(
    cfg: RunConfig, tau_ladder: list[float], t_final: float
) -> ConvergenceReport:
    """Errors and observed orders against a fine-step reference.

    The reference is the same splitting run at tau_ref = (finest ladder
    tau)/64.  The ladder must decrease by exact factors of 2 and t_final must
    be an integer multiple of every ladder step and of the reference step.
    Errors are reported in the cell-weighted l2 norm at t_final.
    """
    if len(tau_ladder) < 2:
        raise ConfigError("tau_ladder needs at least two entries")
    taus = [float(t) for t in tau_ladder]
    if any(t <= 0 for t in taus):
        raise ConfigError("tau_ladder entries must be > 0")
    for a, b in zip(taus, taus[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ConfigError(
                f"tau_ladder must decrease by exact factors of 2; got {a} -> {b}"
            )
    ref_tau = taus[-1] / 64.0
    grid = TorusGrid(cfg.d, cfg.n)
    u0 = build_initial(cfg, grid)
    evolve = vec.strang_evolve_vec if cfg.model == "vector" else mat.strang_evolve_mat

    ref = evolve(grid, u0, ref_tau, _steps_for(t_final, ref_tau))
    w = grid.cell_volume
    errors = []
    for t in taus:
        u = evolve(grid, u0, t, _steps_for(t_final, t))
        errors.append(float(np.sqrt(w * np.sum((u - ref) ** 2))))
    # a fixed-point initial state gives zero error at every tau; the rate is
    # undefined there, not infinite
    rates = [
        float(np.log2(errors[i] / errors[i + 1])) if errors[i + 1] > 0.0 else math.nan
        for i in range(len(errors) - 1)
    ]
    return ConvergenceReport(
        taus=taus, errors=errors, rates=rates, reference_tau=ref_tau, t_final=t_final
    )


# ---------------------------------------------------------------------------
# verify suite


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass
class VerifyReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def format_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"{status}  {r.name}  ({r.seconds:.2f}s)  {r.detail}")
        lines.append(
            f"{'OK' if self.passed else 'FAILED'}: "
            f"{sum(r.ok for r in self.results)}/{len(self.results)} checks passed"
        )
        return lines


def _random_orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diagonal(r))


# each check returns (ok, detail)

def _check_core_roundtrip():
    grid = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.Philox(10))
    f = rng.standard_normal(grid.shape)
    back = inverse_transform(grid, forward_transform(grid, f))
    err = np.max(np.abs(back - f)) / np.max(np.abs(f))
    g1 = TorusGrid(1, 16)
    c = forward_transform(g1, np.cos(g1.nodes))
    mode_err = max(abs(c[1] - 0.5), abs(c[-1] - 0.5))
    ok = err <= 1e-12 and mode_err <= 1e-12
    return ok, f"round-trip rel err {err:.2e}; cos(x) mode defect {mode_err:.2e}"


def _check_core_parseval():
    grid = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.Philox(11))
    f = rng.standard_normal(grid.shape)
    lhs = grid.cell_volume * np.sum(f * f)
    c = forward_transform(grid, f)
    rhs = grid.volume * np.sum(c.real**2 + c.imag**2)
    err = abs(lhs - rhs) / abs(lhs)
    return err <= 1e-12, f"Parseval rel defect {err:.2e}"


def _check_core_heat_contraction():
    # band-limited random data: the discrete kernel's small negative lobes on
    # under-resolved scales make rough data overshoot slightly (see README)
    grid = TorusGrid(2, 32)
    worst = -np.inf
    for i, t in enumerate((0.01, 1.0, 10.0)):
        f = vec.smooth_random_ic(grid, 1, 1.0, seed=20 + i, kcut=4)[..., 0]
        growth = np.max(np.abs(heat_propagate(grid, f, t))) - np.max(np.abs(f))
        worst = max(worst, growth)
    return worst <= 1e-12, f"worst sup-norm growth {worst:+.2e}"


def _check_core_heat_mean():
    grid = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.Philox(21))
    f = rng.standard_normal(grid.shape)
    worst = max(
        abs(np.mean(heat_propagate(grid, f, t)) - np.mean(f)) for t in (0.01, 1.0, 10.0)
    )
    return worst <= 1e-13, f"worst mean drift {worst:.2e}"


def _check_core_quadratic_limit():
    grid = TorusGrid(2, 32)
    f = vec.smooth_random_ic(grid, 1, 1.0, seed=22, kcut=3)[..., 0]
    c = forward_transform(grid, f)
    target = dirichlet_energy(grid, c)
    defects = [
        abs(dissipation_quadratic(grid, c, t) / (2.0 * t) - target) for t in (1e-2, 1e-3)
    ]
    ratio = defects[0] / defects[1]
    ok = 5.0 <= ratio <= 20.0
    return ok, f"O(tau) defect ratio at tau 1e-2/1e-3: {ratio:.2f} (expect ~10)"


def _check_vec_max_principle():
    grid = TorusGrid(2, 32)
    worst = -np.inf
    for sup0 in (0.8, 2.0):
        for tau in (1e-4, 0.1, 1.0, 10.0):
            u = vec.smooth_random_ic(grid, 2, sup0, seed=30, kcut=4)
            s_prev = vec.sup_magnitude(u)
            for _ in range(25):
                u = vec.strang_step_vec(grid, u, tau)
                s = vec.sup_magnitude(u)
                worst = max(worst, s - max(1.0, s_prev))
                s_prev = s
    return worst <= 1e-12, f"worst sup excess {worst:+.2e}"


def _check_vec_sn_semigroup():
    rng = np.random.Generator(np.random.Philox(31))
    w = rng.standard_normal((500, 3)) * 2.0
    a = vec.nonlinear_propagate_vec(vec.nonlinear_propagate_vec(w, 0.3), 0.9)
    b = vec.nonlinear_propagate_vec(w, 1.2)
    err = np.max(np.abs(a - b))
    return err <= 1e-12, f"S_N(0.9)S_N(0.3) vs S_N(1.2): max err {err:.2e}"


def _check_vec_norm_identity():
    rng = np.random.Generator(np.random.Philox(32))
    w = rng.standard_normal((10_000, 3)) * 1.5
    t = 0.7
    nsq = np.sum(w * w, axis=-1)
    predicted = np.exp(2 * t) * nsq / (np.expm1(2 * t) * nsq + 1.0)
    got = np.sum(vec.nonlinear_propagate_vec(w, t) ** 2, axis=-1)
    err = np.max(np.abs(got - predicted) / np.maximum(1.0, predicted))
    return err <= 1e-12, f"norm identity max rel err {err:.2e}"


def _check_vec_energy_monotone():
    grid = TorusGrid(2, 32)
    worst = -np.inf
    cases = [
        ("smooth", lambda: vec.smooth_random_ic(grid, 2, 2.0, seed=33, kcut=4)),
        ("white-noise", lambda: vec.random_direction_ic(grid, 2, 0.8, seed=34)),
    ]
    for _, make in cases:
        for tau in (1e-4, 0.1, 1.0, 10.0):
            u = make()
            e_prev = vec.modified_energy_vec(grid, u, tau)
            for _ in range(20):
                u = vec.strang_step_vec(grid, u, tau)
                e = vec.modified_energy_vec(grid, u, tau)
                worst = max(worst, (e - e_prev) / abs(e_prev))
                e_prev = e
    return worst <= DISSIPATION_REL_TOL, f"worst relative energy increase {worst:+.2e}"


def _check_vec_oracle():
    rng = np.random.Generator(np.random.Philox(35))
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        w = rng.standard_normal((250, 3))
        w *= (3.0 * rng.random((250, 1))) / np.linalg.norm(w, axis=-1, keepdims=True)
        ref = integrate_vector_ode(w, t)
        err = np.max(np.abs(vec.nonlinear_propagate_vec(w, t) - ref))
        worst = max(worst, err)
    return worst <= 1e-8, f"closed form vs RK4 max err {worst:.2e} (1000 cases)"


def _check_vec_gradient_fd():
    rng = np.random.Generator(np.random.Philox(36))
    h = 1e-5
    worst = 0.0
    for tau in (0.01, 1.0):
        for _ in range(50):
            w = rng.standard_normal(3) * 1.5
            g = vec.g_gradient_vec(w, tau)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (vec.g_potential_vec(w + e, tau) - vec.g_potential_vec(w - e, tau)) / (2 * h)
                worst = max(worst, abs(fd - g[i]))
    return worst <= 1e-6, f"gradient vs central differences: max abs err {worst:.2e}"


def _check_vec_equivariance():
    rng = np.random.Generator(np.random.Philox(37))
    r = _random_orthogonal(rng, 3)
    w = rng.standard_normal((200, 3)) * 2.0
    a = vec.nonlinear_propagate_vec(w @ r.T, 0.8)
    b = vec.nonlinear_propagate_vec(w, 0.8) @ r.T
    err = np.max(np.abs(a - b))
    return err <= 1e-13, f"rotation equivariance max err {err:.2e}"


def _check_vec_concavity():
    rng = np.random.Generator(np.random.Philox(38))
    ok = True
    for tau in (0.01, 1.0):
        u = rng.standard_normal((10_000, 3))
        v = rng.standard_normal((10_000, 3))
        u *= (2.0 * rng.random((10_000, 1))) / np.linalg.norm(u, axis=-1, keepdims=True)
        v *= (2.0 * rng.random((10_000, 1))) / np.linalg.norm(v, axis=-1, keepdims=True)
        ok = ok and vec.concavity_inequality_check_vec(u, v, tau)
    return ok, "concavity inequality on 2x10^4 random pairs"


def _check_mat_max_principle():
    grid = TorusGrid(2, 32)
    worst = -np.inf
    for m in (2, 3):
        for tau in (0.01, 0.1, 1.0, 10.0):
            u = mat.smooth_random_mat_ic(grid, m, math.sqrt(m), seed=40, kcut=4)
            s_prev = mat.sup_frobenius(u)
            for _ in range(20):
                u = mat.strang_step_mat(grid, u, tau)
                s = mat.sup_frobenius(u)
                worst = max(worst, s - max(math.sqrt(m), s_prev))
                s_prev = s
    return worst <= 1e-12, f"worst Frobenius sup excess {worst:+.2e}"


def _check_mat_sn_semigroup():
    rng = np.random.Generator(np.random.Philox(41))
    a = rng.standard_normal((300, 3, 3))
    x = mat.nonlinear_propagate_mat(mat.nonlinear_propagate_mat(a, 0.4), 0.6)
    y = mat.nonlinear_propagate_mat(a, 1.0)
    err = np.max(np.abs(x - y))
    return err <= 1e-12, f"S_N(0.6)S_N(0.4) vs S_N(1.0): max err {err:.2e}"


def _check_mat_oracle():
    rng = np.random.Generator(np.random.Philox(42))
    worst = 0.0
    cases = 0
    for m in (2, 3, 4):
        for t in (0.25, 1.0):
            a = rng.standard_normal((167, m, m))
            norms = np.sqrt(np.sum(a * a, axis=(-2, -1), keepdims=True))
            a *= (2.0 * math.sqrt(m) * rng.random((167, 1, 1))) / norms
            ref = integrate_matrix_ode(a, t)
            err = np.max(np.abs(mat.nonlinear_propagate_mat(a, t) - ref))
            worst = max(worst, err)
            cases += a.shape[0]
    return worst <= 1e-8, f"closed form vs RK4 max err {worst:.2e} ({cases} cases)"


def _check_mat_fixed_point():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(43))
    q = _random_orthogonal(rng, 3)
    u = np.broadcast_to(q, grid.shape + (3, 3)).copy()
    worst = max(
        np.max(np.abs(mat.strang_step_mat(grid, u, tau) - u)) for tau in (0.01, 1.0, 10.0)
    )
    return worst <= 1e-14, f"constant orthogonal drift {worst:.2e}"


def _check_mat_equivariance():
    rng = np.random.Generator(np.random.Philox(44))
    q = _random_orthogonal(rng, 3)
    r = _random_orthogonal(rng, 3)
    a = rng.standard_normal((200, 3, 3))
    x = mat.nonlinear_propagate_mat(q @ a @ r, 0.7)
    y = q @ mat.nonlinear_propagate_mat(a, 0.7) @ r
    err = np.max(np.abs(x - y))
    return err <= 1e-12, f"orthogonal equivariance max err {err:.2e}"


def _check_mat_frobenius_bound():
    rng = np.random.Generator(np.random.Philox(45))
    m = 3
    b = rng.standard_normal((10_000, m, m))
    norms = np.sqrt(np.sum(b * b, axis=(-2, -1), keepdims=True))
    b *= (math.sqrt(m) * rng.random((10_000, 1, 1))) / norms
    out = mat.nonlinear_propagate_mat(b, 0.5)
    worst = np.max(np.sqrt(np.sum(out * out, axis=(-2, -1)))) - math.sqrt(m)
    return worst <= 1e-12, f"max ||S_N B||_F - sqrt(m) = {worst:+.2e} on 10^4 draws"


def _check_mat_energy_monotone():
    """Modified-energy dissipation wherever the step-size bound certifies it.

    Candidate trajectories at several tau are filtered by threshold_check;
    runs whose tau violates the bound are skipped, since the bound is
    sufficient-only and promises nothing there.  Raising
    DISSIPATION_THRESHOLD admits the large-tau candidates, so the monitor
    then actually exercises the uncertified regime; the detail string
    reports certified/skipped/failed counts either way.
    """
    grid = TorusGrid(2, 32)
    m = 2
    candidates = [
        (0.01, "polar_star", lambda: mat.polar_ic(grid, "star")),
        (0.01, "polar_stripe", lambda: mat.polar_ic(grid, "stripe")),
        (1.0, "split_noise", lambda: mat.split_amplitude_mat_ic(grid, m, 0.05, 300.0, seed=46)),
        (1.0, "polar_star", lambda: mat.polar_ic(grid, "star")),
    ]
    worst = -np.inf
    ran = 0
    skipped = 0
    bad_steps = 0
    for tau, _, make in candidates:
        if not mat.threshold_check(tau, m).satisfied:
            skipped += 1
            continue
        ran += 1
        u = make()
        e_prev = mat.modified_energy_mat(grid, u, tau)
        for _ in range(30):
            u = mat.strang_step_mat(grid, u, tau)
            e = mat.modified_energy_mat(grid, u, tau)
            rel = (e - e_prev) / abs(e_prev)
            worst = max(worst, rel)
            if rel > DISSIPATION_REL_TOL:
                bad_steps += 1
            e_prev = e
    ok = bad_steps == 0 and ran > 0
    return ok, (
        f"{ran} certified trajectories, {skipped} skipped by threshold, "
        f"{bad_steps} dissipation-flag failures, worst rel increase {worst:+.2e}"
    )


def _check_mat_taylor():
    rng = np.random.Generator(np.random.Philox(47))
    ok = True
    fd_worst = 0.0
    for m in (2, 3):
        tau_max = 0.9 * _threshold_tau(m)
        for _ in range(5):
            tau = float(rng.uniform(0.1, 1.0)) * tau_max
            u0 = rng.standard_normal((1000, m, m))
            n0 = np.sqrt(np.sum(u0 * u0, axis=(-2, -1), keepdims=True))
            u0 *= (math.sqrt(m) * rng.random((1000, 1, 1))) / n0
            target = rng.standard_normal((1000, m, m))
            nt = np.sqrt(np.sum(target * target, axis=(-2, -1), keepdims=True))
            target *= (math.sqrt(m) * rng.random((1000, 1, 1))) / nt
            h = target - u0
            ok = ok and mat.taylor_inequality_check(u0, h, tau)
        # derivative vs central differences on a few single matrices
        for _ in range(20):
            tau = 0.5 * tau_max
            u0 = rng.standard_normal((m, m)) * 0.4
            h = rng.standard_normal((m, m)) * 0.3
            eps = 1e-5
            fd = (
                mat.g_potential_mat(u0 + eps * h, tau)
                - mat.g_potential_mat(u0 - eps * h, tau)
            ) / (2 * eps)
            fd_worst = max(fd_worst, abs(fd - float(mat.g_trace_derivative(u0, h, tau))))
    ok = ok and fd_worst <= 1e-6
    return ok, f"10^4 admissible draws; h'(0) vs FD max err {fd_worst:.2e}"


def _check_mat_svd_reconstruction():
    # A = (A V) V^T through the Gram eigenvectors V that the flow uses, where
    # A V = U diag(sigma) is the scaled left factor of the SVD
    rng = np.random.Generator(np.random.Philox(48))
    a = rng.standard_normal((2000, 3, 3)) * 3.0
    rec = tensor._gram_function(a, np.ones_like)
    fro = np.sqrt(np.sum(a * a, axis=(-2, -1)))
    res = np.sqrt(np.sum((rec - a) ** 2, axis=(-2, -1))) / (1.0 + fro)
    worst = float(np.max(res))
    return worst <= 1e-12, f"worst reconstruction residual through A^T A {worst:.2e}"


def _check_mat_projection():
    grid = TorusGrid(2, 16)
    u = mat.polar_ic(grid, "star")
    out = mat.projection_split_step(grid, u, 0.05)
    gram = tensor._gram(out) - np.eye(2)
    worst = float(np.max(np.sqrt(np.sum(gram * gram, axis=(-2, -1)))))
    return worst <= 1e-10, f"max ||U^T U - I||_F after projection step {worst:.2e}"


def _check_harness_determinism(tmp_base: Path):
    cfg_kwargs = dict(
        model="vector", d=2, n=16, m=2, tau=0.05, steps=5, ic="smooth",
        seed=7, snapshot_every=5,
    )
    payloads = []
    for tag in ("a", "b"):
        out = tmp_base / f"det_{tag}"
        cfg = RunConfig(out_dir=str(out), **cfg_kwargs)
        run_experiment(cfg)
        payloads.append(
            ((out / "trace.csv").read_bytes(), (out / "snap_000005.snap").read_bytes())
        )
    ok = payloads[0] == payloads[1]
    return ok, "identical config+seed gives bit-identical trace and snapshot"


def _check_harness_restart(tmp_base: Path):
    out = tmp_base / "restart"
    base = dict(model="matrix", d=2, n=16, m=2, tau=0.05, steps=6, ic="polar_star", seed=3)
    cfg_full = RunConfig(out_dir=str(out / "full"), snapshot_every=6, **base)
    run_experiment(cfg_full)
    half = dict(base, steps=3)
    cfg_a = RunConfig(out_dir=str(out / "a"), snapshot_every=3, **half)
    run_experiment(cfg_a)
    cfg_b = RunConfig(
        out_dir=str(out / "b"), snapshot_every=3,
        **{**half, "ic": f"snapshot:{out / 'a' / 'snap_000003.snap'}"},
    )
    run_experiment(cfg_b)
    _, full_final = read_snapshot(out / "full" / "snap_000006.snap")
    _, chained_final = read_snapshot(out / "b" / "snap_000003.snap")
    err = float(np.max(np.abs(full_final - chained_final)))
    return err <= 1e-12, f"2k-step run vs k+k chained via snapshot: max diff {err:.2e}"


def verify_suite(scope: str = "all", tmp_dir: str | None = None) -> VerifyReport:
    """Run the fixed-seed property checks for the requested scope.

    scope 'vector' runs the shared spectral checks plus the vector-model
    checks (no matrix-module work); 'matrix' the spectral plus matrix-model
    checks; 'all' everything including the harness IO checks.
    """
    if scope not in ("vector", "matrix", "all"):
        raise ConfigError(f"scope must be vector/matrix/all, got {scope!r}")
    core = [
        ("core/transform-round-trip", _check_core_roundtrip),
        ("core/parseval", _check_core_parseval),
        ("core/heat-sup-contraction", _check_core_heat_contraction),
        ("core/heat-mean-preservation", _check_core_heat_mean),
        ("core/quadratic-form-small-tau-limit", _check_core_quadratic_limit),
    ]
    vec_checks = [
        ("vector/max-principle", _check_vec_max_principle),
        ("vector/nonlinear-semigroup", _check_vec_sn_semigroup),
        ("vector/norm-identity", _check_vec_norm_identity),
        ("vector/modified-energy-monotone", _check_vec_energy_monotone),
        ("vector/closed-form-vs-rk4", _check_vec_oracle),
        ("vector/potential-gradient-vs-fd", _check_vec_gradient_fd),
        ("vector/rotation-equivariance", _check_vec_equivariance),
        ("vector/concavity-inequality", _check_vec_concavity),
    ]
    mat_checks = [
        ("matrix/max-principle", _check_mat_max_principle),
        ("matrix/nonlinear-semigroup", _check_mat_sn_semigroup),
        ("matrix/closed-form-vs-rk4", _check_mat_oracle),
        ("matrix/orthogonal-fixed-point", _check_mat_fixed_point),
        ("matrix/orthogonal-equivariance", _check_mat_equivariance),
        ("matrix/frobenius-ball-invariance", _check_mat_frobenius_bound),
        ("matrix/modified-energy-monotone", _check_mat_energy_monotone),
        ("matrix/taylor-inequality", _check_mat_taylor),
        ("matrix/svd-reconstruction", _check_mat_svd_reconstruction),
        ("matrix/projection-orthogonality", _check_mat_projection),
    ]
    checks: list[tuple[str, Callable]] = list(core)
    if scope in ("vector", "all"):
        checks += vec_checks
    if scope in ("matrix", "all"):
        checks += mat_checks
    if scope == "all":
        import tempfile

        base = Path(tmp_dir) if tmp_dir else Path(tempfile.mkdtemp(prefix="acsplit_verify_"))
        checks += [
            ("harness/determinism", lambda: _check_harness_determinism(base)),
            ("harness/restart-consistency", lambda: _check_harness_restart(base)),
        ]
    results = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append(CheckResult(name, bool(ok), detail, time.perf_counter() - start))
    return VerifyReport(results)


def _threshold_tau(m: int) -> float:
    """Largest tau with m e^tau (e^{2 tau} - 1) <= threshold, by bisection."""
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if m * math.exp(mid) * math.expm1(2.0 * mid) <= mat.DISSIPATION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return lo
