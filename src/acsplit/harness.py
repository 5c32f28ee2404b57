"""Experiment driver: configuration ingestion, initial-condition registry,
trajectory runs with energy traces and snapshots, and the convergence-study
fitter.  The self-check suite behind `acsplit verify` is acsplit.verify.

Each file format has one definition here, which writes, reads and checks it:

Config file: flat key=value lines; `#` starts a comment.  The keys are
RunConfig's fields (ic_params excepted), parsed by each field's type with the
field's default, and for the convergence subcommand _CONVERGE_KEYS (tau_ladder,
t_final).  Numbers accept fractions ("1/3200").  The ic key is a registry name
with optional float parameters, e.g. `ic=smooth:sup=0.8,kcut=4`, or
`ic=snapshot:<path>` to resume from a file.

Energy trace: CSV whose header is TraceRow's field names (TRACE_HEADER), one
row per step including step 0; floats are written with full round-trip
precision; dissipation_ok is 1/0 and is 0 exactly where the modified energy
increased by more than the relative tolerance 1e-10.

Snapshot: an ASCII header
    ACSPLIT-SNAPSHOT v1
    key=value ...   (the keys of SNAPSHOT_KEYS, in that order, and no others)
    end
followed by the raw field as little-endian float64, C order, with the
component/entry axes slowest-varying (a vector field is stored as (m, N, ..),
a matrix field as (m, m, N, ..)).
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import warnings
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Callable, ClassVar, NamedTuple, get_type_hints

import numpy as np

from . import matrix as mat
from . import tensor
from . import vector as vec
from .grid import TorusGrid, _check_time, geometry_error

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "RunConfig",
    "TraceRow",
    "EnergyTrace",
    "ConvergenceReport",
    "parse_config_text",
    "load_config",
    "load_convergence_config",
    "build_initial",
    "run_experiment",
    "convergence_study",
    "write_snapshot",
    "read_snapshot",
    "snapshot_info",
]

# relative tolerance for the per-step dissipation flag
DISSIPATION_REL_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 1)."""


class InvariantViolation(RuntimeError):
    """A monitored runtime invariant failed (CLI exit code 2)."""


class SnapshotFormatError(OSError):
    """Unreadable or corrupt snapshot file (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# configuration


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


# a config value's parser, by the annotated type of its RunConfig field
_PARSERS: dict[object, Callable[[str], object]] = {
    str: str, int: int, float: _parse_number, str | None: lambda s: s or None,
}
# the keys only the convergence subcommand reads, with their parsers
_CONVERGE_KEYS: dict[str, Callable[[str], object]] = {
    "tau_ladder": lambda s: [_parse_number(t) for t in s.split(",") if t.strip()],
    "t_final": _parse_number,
}


@dataclass
class RunConfig:
    """One trajectory run, and the schema of a config file: each field but
    ic_params is a key.  ic is a name in its model's registry (see MODELS) or
    'snapshot:<path>'; ic_params are its keyword parameters."""

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
        if self.model not in MODELS:
            raise ConfigError(f"model must be {' or '.join(map(repr, MODELS))}, got {self.model!r}")
        if why := geometry_error(self.d, self.n, self.m):
            raise ConfigError(why)
        _check_time(self.tau, error=ConfigError)
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        end = self.steps * self.tau if self.steps <= sys.float_info.max else math.inf
        _check_time(end, f"steps * tau = {self.steps} * {self.tau}", zero_ok=True, error=ConfigError)
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.snapshot_every and not self.out_dir:
            raise ConfigError("snapshot_every needs out_dir")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key, value in self.ic_params.items():
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"ic parameter {key} must be finite and >= 0, got {value}")
        if self.threshold_policy not in ("enforce", "warn", "ignore"):
            raise ConfigError(
                f"threshold_policy must be enforce/warn/ignore, got {self.threshold_policy!r}"
            )
        model = MODELS[self.model]
        self.ic = self.ic or model.default_ic
        if not self.ic.startswith("snapshot:") and self.ic not in model.ics:
            raise ConfigError(
                f"unknown initial condition {self.ic!r} for {self.model} model; "
                f"known: {', '.join(sorted(model.ics))}"
            )


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
            params[k.strip()] = num
    return name.strip(), params


def build_run_config(raw: dict[str, str]) -> RunConfig:
    """The RunConfig of a config file's key=value pairs: each value is parsed
    by its field's type, and a key left out takes the field's default.  The
    convergence keys are parsed and dropped, so `run` refuses a malformed one."""
    parsers = {k: _PARSERS[t] for k, t in get_type_hints(RunConfig).items() if t in _PARSERS}
    unknown = set(raw) - set(parsers) - set(_CONVERGE_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "model" not in raw:
        raise ConfigError("config key 'model' is required")
    try:
        for key in _CONVERGE_KEYS.keys() & raw.keys():
            _CONVERGE_KEYS[key](raw[key])
        values = {key: parsers[key](text) for key, text in raw.items() if key in parsers}
        values["ic"], values["ic_params"] = _parse_ic(values.get("ic", ""))
        return RunConfig(**values)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad config value: {e}") from e


def load_config(path: str | os.PathLike) -> RunConfig:
    return build_run_config(parse_config_text(Path(path).read_text()))


def load_convergence_config(path: str | os.PathLike) -> tuple[RunConfig, list[float], float]:
    """A convergence config file: its RunConfig, tau ladder and t_final."""
    raw = parse_config_text(Path(path).read_text())
    if not raw.keys() >= _CONVERGE_KEYS.keys():
        raise ConfigError("converge needs tau_ladder (comma-separated) and t_final keys")
    ladder, t_final = (parse(raw[key]) for key, parse in _CONVERGE_KEYS.items())
    return build_run_config(raw), ladder, t_final


# ---------------------------------------------------------------------------
# initial conditions

# registry entries take (grid, m, seed) and their parameters by name
def _shared_ics(axes: int, default_sup: Callable[[int], float]) -> dict[str, Callable]:
    """The entries both models have, on fields with `axes` component axes of size m."""
    return {
        "zero": lambda grid, m, seed: np.zeros(grid.shape + (m,) * axes),
        "smooth": lambda grid, m, seed, sup=None, kcut=4: tensor.smooth_random_ic(
            grid, (m,) * axes, default_sup(m) if sup is None else sup, seed, kcut
        ),
    }


VECTOR_ICS: dict[str, Callable] = {
    **_shared_ics(1, lambda m: 0.8),
    "random_direction": lambda grid, m, seed, magnitude=0.8: vec.random_direction_ic(
        grid, m, magnitude, seed
    ),
    "smooth_deterministic": lambda grid, m, seed, magnitude=0.8: vec.smooth_deterministic_ic(
        grid, m, magnitude
    ),
}

MATRIX_ICS: dict[str, Callable] = {
    **_shared_ics(2, math.sqrt),
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


class Model(NamedTuple):
    """One model's facts.  `lookup` finds its functions by name when a run or check starts."""

    axes: int  # component axes after the d spatial axes: m x q values, q = m^(axes - 1)
    module: ModuleType
    ics: dict[str, Callable]
    default_ic: str
    step_bound: bool  # whether threshold_check's 0.43 bound judges tau
    sup_label: str
    functions: dict[str, str]  # role -> name in module: a test's mutant set there runs

    def lookup(self, *roles: str) -> list[Callable]:
        return [getattr(self.module, self.functions[role]) for role in roles]


MODELS = {
    "vector": Model(1, vec, VECTOR_ICS, "smooth", False, "sup", dict(
        flow="nonlinear_propagate_vec", evolve="strang_evolve_vec", sup="sup_magnitude",
        energy_standard="standard_energy_vec", energy_modified="modified_energy_vec")),
    "matrix": Model(2, mat, MATRIX_ICS, "polar_star", True, "Frobenius sup", dict(
        flow="nonlinear_propagate_mat", evolve="strang_evolve_mat", sup="sup_frobenius",
        energy_standard="standard_energy_mat", energy_modified="modified_energy_mat")),
}


def build_initial(cfg: RunConfig, grid: TorusGrid) -> np.ndarray:
    """Materialize cfg.ic on the grid (registry entry or snapshot file)."""
    if cfg.ic.startswith("snapshot:"):
        meta, values = read_snapshot(cfg.ic[len("snapshot:"):])
        shared = ("model", "d", "n", "m")
        if any(meta[k] != getattr(cfg, k) for k in shared):
            raise ConfigError("snapshot geometry does not match config: snapshot has "
                              + " ".join(f"{k}={meta[k]}" for k in shared))
        return values
    make = MODELS[cfg.model].ics[cfg.ic]
    try:
        return make(grid, cfg.m, cfg.seed, **cfg.ic_params)
    except TypeError as e:  # only here is the signature read: a valid ic runs the call alone
        takes = list(inspect.signature(make).parameters)[3:]
        if not (unknown := [k for k in cfg.ic_params if k not in takes]):
            raise
        raise ConfigError(f"ic {cfg.ic!r} has no parameter {', '.join(map(repr, unknown))}; "
                          f"it takes {', '.join(takes) or 'none'}") from e


# ---------------------------------------------------------------------------
# trace / snapshot IO


class TraceRow(NamedTuple):
    """One step of a run, and the schema of trace.csv: one column per field."""

    step: int
    time: float
    energy_standard: float
    energy_modified: float
    delta_e: float
    sup_norm: float
    dissipation_ok: bool


TRACE_HEADER = ",".join(TraceRow._fields)
# how a trace cell is written and read, by the annotated type of its field
_CELLS = {int: (str, int), float: (repr, float),
          bool: (lambda ok: "1" if ok else "0", lambda s: s.strip() == "1")}
_TRACE_WRITE, _TRACE_READ = zip(*(_CELLS[kind] for kind in get_type_hints(TraceRow).values()))


@dataclass
class EnergyTrace:
    rows: list[TraceRow]

    @property
    def dissipation_all_ok(self) -> bool:
        return all(r.dissipation_ok for r in self.rows)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=np.float64)

    def to_csv(self) -> str:
        rows = (",".join(write(value) for write, value in zip(_TRACE_WRITE, r)) for r in self.rows)
        return "\n".join([TRACE_HEADER, *rows]) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "EnergyTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != TRACE_HEADER:
            raise ValueError("missing or wrong trace header")
        rows = [zip(_TRACE_READ, ln.split(","), strict=True) for ln in lines[1:]]
        return cls([TraceRow(*(read(cell) for read, cell in row)) for row in rows])


SNAPSHOT_MAGIC = "ACSPLIT-SNAPSHOT"
SNAPSHOT_VERSION = 1
# the snapshot header's keys in file order, each with the type its value is
# parsed to; `acsplit info` prints them in this order
SNAPSHOT_KEYS = {"model": str, "d": int, "n": int, "m": int, "tau": float, "step": int,
                 "endian": str, "dtype": str, "layout": str}
# the encoding lines, which the writer writes and a reader requires as written
_ENCODING = {"endian": "little", "dtype": "float64", "layout": "components-slowest"}


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
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    _check_time(tau)  # the reader's rules, so that what is written can be read
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    values = np.asarray(values, dtype=np.float64)
    expected = grid.shape + (m,) * MODELS[model].axes
    if values.shape != expected:
        raise ValueError(f"field shape {values.shape} is not the {model} field shape {expected}")
    disk = np.moveaxis(values, range(grid.d, values.ndim), range(values.ndim - grid.d))
    meta = {"model": model, "d": grid.d, "n": grid.n, "m": m, "tau": tau, "step": step,
            **_ENCODING}
    header = [f"{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}"] + [f"{k}={meta[k]}" for k in SNAPSHOT_KEYS]
    with open(path, "wb") as fh:
        fh.write("\n".join(header + ["end\n"]).encode("ascii"))
        # the buffer itself, not a bytes copy of it: no copy for a pipeline
        # field, whose component axes are already slowest (see acsplit.grid)
        fh.write(np.ascontiguousarray(disk, dtype="<f8").data)


def _read_snapshot_header(fh) -> dict:
    first = fh.readline().decode("ascii", errors="replace").rstrip("\n")
    if not first.startswith(SNAPSHOT_MAGIC):
        raise SnapshotFormatError(f"not a snapshot file (magic line {first!r})")
    if first != f"{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}":
        raise SnapshotFormatError(
            f"unsupported snapshot version {first!r}; expected v{SNAPSHOT_VERSION}"
        )
    meta: dict = {"version": str(SNAPSHOT_VERSION)}
    for raw in iter(fh.readline, b""):
        line = raw.decode("ascii", errors="replace").rstrip("\n")
        if line == "end":
            break
        if "=" not in line:
            raise SnapshotFormatError(f"bad header line {line!r}")
        k, v = line.split("=", 1)
        if k not in SNAPSHOT_KEYS or k in meta:
            raise SnapshotFormatError(f"unknown or repeated snapshot header key {k!r}")
        meta[k] = v
    else:
        raise SnapshotFormatError("truncated snapshot header")
    try:  # the numeric keys are required
        meta.update({k: kind(meta[k]) for k, kind in SNAPSHOT_KEYS.items() if kind is not str})
    except (KeyError, ValueError) as e:
        raise SnapshotFormatError(f"incomplete snapshot header: {e}") from e
    _check_time(meta["tau"], "snapshot tau", error=SnapshotFormatError)
    if meta["step"] < 0:
        raise SnapshotFormatError(f"bad snapshot step: must be >= 0, got {meta['step']}")
    if bad := [k for k, v in _ENCODING.items() if meta.get(k) != v]:
        raise SnapshotFormatError(f"unsupported snapshot encoding: {', '.join(bad)}")
    if why := geometry_error(meta["d"], meta["n"], meta["m"]):
        raise SnapshotFormatError(f"bad snapshot geometry: {why}")
    if meta.get("model") not in MODELS:
        raise SnapshotFormatError(f"unknown model {meta.get('model')!r}")
    return meta


def read_snapshot(path: str | os.PathLike) -> tuple[dict, np.ndarray]:
    """Read a snapshot; returns (header dict, field with spatial axes first)."""
    with open(path, "rb") as fh:
        meta = _read_snapshot_header(fh)
        d, n, m = meta["d"], meta["n"], meta["m"]
        k = MODELS[meta["model"]].axes
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
        # straight into the array, which the field then is: its spatial-first
        # view has the pipeline's component-axes-slowest order (see acsplit.grid)
        disk = np.empty(disk_shape, dtype="<f8")
        got = fh.readinto(disk.data)
        if got != size:
            raise SnapshotFormatError(
                f"truncated snapshot payload: expected {size} bytes, got {got}"
            )
    fields = np.moveaxis(disk, range(k), range(d, d + k))
    return meta, fields.astype(np.float64, copy=False)


def snapshot_info(path: str | os.PathLike) -> dict:
    """Header plus basic field statistics, for `acsplit info`."""
    meta, values = read_snapshot(path)
    meta["min_entry"] = float(values.min())
    meta["max_entry"] = float(values.max())
    # the pointwise Frobenius norm, with the component axes read as m x q matrices
    fields = values.reshape(values.shape[: meta["d"]] + (meta["m"], -1))
    with np.errstate(over="ignore"):  # inf above sqrt(float64 max), as README says
        meta["sup_norm"] = tensor.sup_norm(fields)
    return meta


# ---------------------------------------------------------------------------
# trajectory driver


def _finite_values(step: int, field: np.ndarray, grid: TorusGrid,
                   quantities: dict[str, Callable[[], float]]) -> list[float]:
    """Each quantity's value, computed in order and refused when it is not
    finite: at step 0 from finite entries the field is too large for it, a
    ConfigError naming the pointwise norm above which it overflows; otherwise
    an InvariantViolation."""
    big = np.finfo(np.float64).max
    # the sup norm squares the pointwise norm, the standard potential squares
    # the Gram matrix, the modified energy squares spectra summed over n^d nodes
    limits = {"sup_norm": math.sqrt(big), "energy_standard": big**0.25,
              "energy_modified": math.sqrt(big) / grid.n**grid.d}
    values = []
    for name, compute in quantities.items():
        # an overflow reads as inf, and inf times a zero weight as NaN: refused below
        with np.errstate(over="ignore", invalid="ignore"):
            values.append(compute())
        if not math.isfinite(values[-1]):
            if step == 0 and np.all(np.isfinite(field)):
                raise ConfigError(f"initial field too large: {name} overflows for a pointwise "
                                  f"norm above about {limits[name]:.4g}")
            raise InvariantViolation(f"non-finite {name} at step {step}")
    return values


def _judge_step_size(cfg: RunConfig, tau: float) -> None:
    """cfg's threshold policy on a step tau beyond the bound, for a model that
    has one: 'enforce' refuses it, 'warn' warns and proceeds, 'ignore' proceeds."""
    if not MODELS[cfg.model].step_bound or cfg.threshold_policy == "ignore":
        return
    if (check := mat.threshold_check(tau, cfg.m)).satisfied:
        return
    if cfg.threshold_policy == "enforce":
        raise ConfigError("threshold_policy=enforce requires m e^tau (e^{2tau}-1) <= "
                          f"{mat.DISSIPATION_THRESHOLD}; margin = {check.margin:.4g}")
    warnings.warn(f"m e^tau (e^(2 tau)-1) exceeds {mat.DISSIPATION_THRESHOLD} (margin "
                  f"{check.margin:.4g}); modified-energy dissipation is not guaranteed "
                  "at this step size", RuntimeWarning, stacklevel=3)


def run_experiment(cfg: RunConfig, initial: np.ndarray | None = None) -> EnergyTrace:
    """Step the configured model, recording the energy trace each step and
    writing trace/snapshot files when out_dir is set.

    The dissipation flag of row n is false iff the modified energy rose above
    the previous row's by more than the relative tolerance 1e-10.  A matrix
    step beyond the threshold bound is judged by cfg's threshold policy.
    """
    _judge_step_size(cfg, cfg.tau)
    grid = TorusGrid(cfg.d, cfg.n)
    u = build_initial(cfg, grid) if initial is None else np.asarray(initial, dtype=np.float64)
    expected = grid.shape + (cfg.m,) * MODELS[cfg.model].axes
    if u.shape != expected:
        raise ConfigError(f"initial field shape {u.shape} != expected {expected}")

    flow, sup_fn, e_std_fn, e_mod_fn = MODELS[cfg.model].lookup(
        "flow", "sup", "energy_standard", "energy_modified")
    # one pipeline with strang_evolve_*; the monitors read each step's record,
    # the sup norm and the standard energy sharing its Gram matrices
    states = tensor._strang_states(grid, u, cfg.tau, flow)
    del u

    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows: list[TraceRow] = []
    for n in range(cfg.steps + 1):
        state = next(states)
        sup, e_std, e_mod = _finite_values(n, state.field, grid, {
            "sup_norm": lambda: sup_fn(state),
            "energy_standard": lambda: e_std_fn(grid, state),
            "energy_modified": lambda: e_mod_fn(grid, state, cfg.tau),
        })
        if out_dir is not None and cfg.snapshot_every > 0 and (
            n % cfg.snapshot_every == 0 or n == cfg.steps
        ):
            write_snapshot(out_dir / f"snap_{n:06d}.snap", state.field, model=cfg.model,
                           grid=grid, m=cfg.m, tau=cfg.tau, step=n)
        prev = rows[-1].energy_modified if rows else e_mod  # step 0 has no rise
        ok = e_mod <= prev + DISSIPATION_REL_TOL * abs(prev)
        rows.append(TraceRow(n, n * cfg.tau, e_std, e_mod, abs(e_mod - e_std), sup, ok))
        del state  # no record is held past its step

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
    norm: ClassVar[str] = "cell-weighted l2: sqrt((2 pi / n)^d * sum_nodes |diff|^2)"
    reference: ClassVar[str] = "(4 u(tau_ref) - u(2 tau_ref)) / 3, u(t) the same scheme at step t"

    def format(self) -> str:
        lines = [
            f"# reference solution: {self.reference}; tau_ref = (finest tau)/"
            f"{self.taus[-1] / self.reference_tau:g} = {self.reference_tau!r}",
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
    if steps > sys.maxsize:  # also where t_final / tau overflows to inf
        raise ConfigError(f"t_final = {t_final} takes {steps:.0f} steps of tau = {tau}: too many")
    rounded = round(steps)
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, rounded):
        raise ConfigError(f"t_final = {t_final} is not an integer multiple of tau = {tau}")
    return rounded


def convergence_study(
    cfg: RunConfig, tau_ladder: list[float], t_final: float
) -> ConvergenceReport:
    """Errors and observed orders against a Richardson reference.

    The reference is (4 u(tau_ref) - u(2 tau_ref)) / 3, where u(t) is the
    same splitting run with step t and tau_ref = (finest ladder tau)/8.
    Strang splitting is symmetric, so on smooth data its global error has
    only even powers of tau: the combination cancels the tau^2 term and is
    fourth-order accurate, far below the ladder's second-order errors.  The
    star defect jumps at t = 0, and the scheme is second order on it only
    from smaller steps on (README, "Config files").  The ladder must
    decrease by exact factors of 2 and t_final must be an integer multiple
    of every ladder step and of both reference steps; every step, the
    reference's too, and every step count is checked before anything runs.
    Errors are reported in the cell-weighted l2 norm at t_final.  Each
    ladder step is judged by cfg's threshold policy, as a run would be.
    """
    if len(tau_ladder) < 2:
        raise ConfigError("tau_ladder needs at least two entries")
    taus = [float(t) for t in tau_ladder]
    ref_tau = taus[-1] / 8.0
    for t in taus:
        _check_time(t, "tau_ladder entry", error=ConfigError)
    for name, t in (("tau_ref = (finest tau)/8", ref_tau), ("2 tau_ref", 2.0 * ref_tau)):
        _check_time(t, f"tau_ladder reference step {name}", error=ConfigError)
    _check_time(t_final, "t_final", zero_ok=True, error=ConfigError)
    for a, b in zip(taus, taus[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ConfigError(f"tau_ladder must decrease by exact factors of 2; got {a} -> {b}")
    rung_steps = [_steps_for(t_final, t) for t in taus]
    fine_steps, coarse_steps = (_steps_for(t_final, t) for t in (ref_tau, 2.0 * ref_tau))
    for t in taus:
        _judge_step_size(cfg, t)
    grid = TorusGrid(cfg.d, cfg.n)
    u0 = build_initial(cfg, grid)
    # admitted as `run` admits a field, by the monitors of its step 0
    run_experiment(replace(cfg, tau=taus[-1], steps=0, out_dir=None, snapshot_every=0,
                           threshold_policy="ignore"), u0)
    (evolve,) = MODELS[cfg.model].lookup("evolve")

    # combined in place: no more fields are held than while a rung runs
    ref = evolve(grid, u0, ref_tau, fine_steps)
    coarse = evolve(grid, u0, 2.0 * ref_tau, coarse_steps)
    ref *= 4.0
    ref -= coarse
    ref /= 3.0
    del coarse
    w = grid.cell_volume
    errors = []
    for t, steps in zip(taus, rung_steps):
        u = evolve(grid, u0, t, steps)
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
