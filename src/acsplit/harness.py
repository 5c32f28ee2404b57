"""Experiment driver: configuration ingestion, initial-condition registry,
trajectory runs with energy traces and snapshots, and the convergence-study
fitter.  The self-check suite behind `acsplit verify` is acsplit.verify.

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
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import matrix as mat
from . import tensor
from . import vector as vec
from .grid import TorusGrid

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "RunConfig",
    "TraceRow",
    "EnergyTrace",
    "ConvergenceReport",
    "parse_config_text",
    "load_config",
    "build_initial",
    "run_experiment",
    "convergence_study",
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
            if k.strip() in params:
                raise ConfigError(f"duplicate ic parameter {k.strip()!r} in {text!r}")
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
            grid, (m,) * axes, default_sup(m) if sup is None else sup, seed, kcut
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
    "polar_star": lambda grid, m, seed: _polar_ic(grid, m, "star"),
    "polar_stripe": lambda grid, m, seed: _polar_ic(grid, m, "stripe"),
    "split_noise": lambda grid, m, seed, lo=0.05, hi=300.0: mat.split_amplitude_mat_ic(
        grid, m, lo, hi, seed
    ),
}


def _polar_ic(grid: TorusGrid, m: int, variant: str) -> np.ndarray:
    if m != 2 or grid.d != 2:
        raise ConfigError(f"polar initial data requires d = 2 and m = 2, got d = {grid.d}, m = {m}")
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
            rows.append(TraceRow(int(parts[0]), *map(float, parts[1:6]), parts[6].strip() == "1"))
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
    if meta["d"] not in (1, 2, 3) or meta["n"] < 4 or meta["n"] % 2 or meta["m"] < 1:
        raise SnapshotFormatError(
            f"bad snapshot geometry d={meta['d']} n={meta['n']} m={meta['m']}: "
            "need d in 1..3, even n >= 4 and m >= 1"
        )
    if meta.get("model") not in COMPONENT_AXES:
        raise SnapshotFormatError(f"unknown model {meta.get('model')!r}")
    return meta


def read_snapshot(path: str | os.PathLike) -> tuple[dict, np.ndarray]:
    """Read a snapshot; returns (header dict, field with spatial axes first)."""
    with open(path, "rb") as fh:
        meta = _read_snapshot_header(fh)
        d, n, m = meta["d"], meta["n"], meta["m"]
        k = COMPONENT_AXES[meta["model"]]
        disk_shape = (m,) * k + (n,) * d
        size = 8 * math.prod(disk_shape)
        # the header's size against the file's, before anything is allocated
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise SnapshotFormatError(
                f"truncated snapshot payload: expected {size} bytes, got {left}"
            )
        if left > size:
            raise SnapshotFormatError("trailing bytes after snapshot payload")
        # straight into the array, so the field is held at most twice: here
        # and in the spatial-axes-first copy
        disk = np.empty(disk_shape, dtype="<f8")
        got = fh.readinto(disk.data)
        if got != size:
            raise SnapshotFormatError(
                f"truncated snapshot payload: expected {size} bytes, got {got}"
            )
    fields = np.moveaxis(disk, range(k), range(d, d + k))
    return meta, np.ascontiguousarray(fields, dtype=np.float64)


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


def _finite_sup(sup_fn: Callable, field: np.ndarray, step: int) -> float:
    """sup_fn(field), refused when it is not finite: at step 0 from finite
    entries the field is too large to square (the sup norm and the flow's
    Gram product both do), a ConfigError; otherwise an InvariantViolation."""
    with np.errstate(over="ignore"):  # an overflowing square reads as inf, refused below
        sup = sup_fn(field)
    if math.isfinite(sup):
        return sup
    if step == 0 and np.all(np.isfinite(field)):
        raise ConfigError("initial field too large: a pointwise norm above "
                          f"{math.sqrt(np.finfo(np.float64).max):.4g} overflows when squared")
    raise InvariantViolation(f"non-finite field values at step {step}")


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

    # the model's flow and monitors, looked up by module name at each run
    if cfg.model == "vector":
        flow, sup_fn, e_std_fn, e_mod_fn = (vec.nonlinear_propagate_vec, vec.sup_magnitude,
                                            vec.standard_energy_vec, vec.modified_energy_vec)
    else:
        flow, sup_fn, e_std_fn, e_mod_fn = (mat.nonlinear_propagate_mat, mat.sup_frobenius,
                                            mat.standard_energy_mat, mat.modified_energy_mat)
    # one pipeline with strang_evolve_*; the monitors read each step's record
    states = tensor._strang_states(grid, u, cfg.tau, flow)
    del u

    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows: list[TraceRow] = []

    def record(step_idx: int, state: tensor.StepRecord, prev_mod: float | None) -> float:
        sup = _finite_sup(sup_fn, state.field, step_idx)
        e_std = e_std_fn(grid, state)
        e_mod = e_mod_fn(grid, state, cfg.tau)
        if out_dir is not None and cfg.snapshot_every > 0 and (
            step_idx % cfg.snapshot_every == 0 or step_idx == cfg.steps
        ):
            write_snapshot(out_dir / f"snap_{step_idx:06d}.snap", state.field, model=cfg.model,
                           grid=grid, m=cfg.m, tau=cfg.tau, step=step_idx)
        ok = prev_mod is None or e_mod <= prev_mod + DISSIPATION_REL_TOL * abs(prev_mod)
        rows.append(TraceRow(step_idx, step_idx * cfg.tau, e_std, e_mod, abs(e_mod - e_std), sup, ok))
        return e_mod

    # next(states) straight into record: no record is held past its step
    prev = None
    for n in range(cfg.steps + 1):
        prev = record(n, next(states), prev)

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
    _finite_sup(tensor.sup_norm, u0.reshape(grid.shape + (cfg.m, -1)), 0)
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
