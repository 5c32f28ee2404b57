"""The self-check registry behind `acsplit verify`: CHECKS, one ordered table
of fixed-seed property checks, each returning (ok, detail).  A check's scope
is its name prefix (core/, vector/, matrix/, harness/).  Entries look the
model functions up in their modules when they run, so a function replaced at
run time is the one checked.  The vector and matrix twins of a property
share one body; its vector rows pass m x 1 matrices to acsplit.tensor.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import grid as spectral
from . import matrix as mat
from . import tensor
from . import vector as vec
from .grid import TorusGrid
from .harness import (DISSIPATION_REL_TOL, MODELS, ConfigError, EnergyTrace, RunConfig,
                      convergence_study, read_snapshot, run_experiment)
from .oracle import integrate_matrix_ode

__all__ = ["CHECKS", "CheckResult", "VerifyReport", "verify_suite"]


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


def _in_ball(rng, a: np.ndarray, radius: float) -> np.ndarray:
    """`a`, each draw a[i] rescaled in place to a uniform random norm in [0, radius)."""
    axes = tuple(range(1, a.ndim))
    norms = np.sqrt(np.sum(a * a, axis=axes, keepdims=True))
    a *= (radius * rng.random(a.shape[:1] + (1,) * len(axes))) / norms
    return a


def _trajectory(model: str, m: int, tau: float, steps: int, ic: str, seed: int, **ic_params):
    """The monitored run of `acsplit run` on a 32^2 grid, any tau without a warning."""
    return run_experiment(RunConfig(model, d=2, n=32, m=m, tau=tau, steps=steps, ic=ic,
                                    ic_params=ic_params, seed=seed, threshold_policy="ignore"))


def _worst_sup_excess(trace: EnergyTrace, floor: float) -> float:
    """Worst one-step sup_{n+1} - max(floor, sup_n) along the trace."""
    sup = trace.column("sup_norm")
    return float(np.max(sup[1:] - np.maximum(floor, sup[:-1])))


def _relative_rises(trace: EnergyTrace) -> np.ndarray:
    """One-step relative rises (E_{n+1} - E_n) / |E_n| of the modified energy."""
    energy = trace.column("energy_modified")
    return np.diff(energy) / np.abs(energy[:-1])


def _threshold_tau(m: int) -> float:
    """Largest tau that satisfies mat.threshold_check, by bisection."""
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mat.threshold_check(mid, m).satisfied:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# check bodies; each returns (ok, detail)


def _roundtrip():
    grid = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.Philox(10))
    f = rng.standard_normal(grid.shape)
    back = spectral.inverse_transform(grid, spectral.forward_transform(grid, f))
    err = np.max(np.abs(back - f)) / np.max(np.abs(f))
    g1 = TorusGrid(1, 16)
    c = spectral.forward_transform(g1, np.cos(g1.nodes))
    mode_err = max(abs(c[1] - 0.5), abs(c[-1] - 0.5))
    ok = err <= 1e-12 and mode_err <= 1e-12
    return ok, f"round-trip rel err {err:.2e}; cos(x) mode defect {mode_err:.2e}"


def _parseval():
    grid = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.Philox(11))
    f = rng.standard_normal(grid.shape)
    lhs = grid.cell_volume * np.sum(f * f)
    c = spectral.forward_transform(grid, f)
    rhs = grid.volume * np.sum(c.real**2 + c.imag**2)
    err = abs(lhs - rhs) / abs(lhs)
    return err <= 1e-12, f"Parseval rel defect {err:.2e}"


def _half_lattice_roundtrip():
    # the pair the runs use, and Parseval with the half lattice's mode weights
    # _wr, through the sum every quadratic form takes
    rng = np.random.Generator(np.random.Philox(12))
    trip = parseval = 0.0
    for d in (1, 2, 3):
        grid = TorusGrid(d, 16)
        f = rng.standard_normal(grid.shape + (2,))
        h = spectral.half_spectrum(grid, f)
        trip = max(trip, np.max(np.abs(spectral.half_inverse(grid, h) - f)) / np.max(np.abs(f)))
        lhs = grid.cell_volume * np.sum(f * f)
        parseval = max(parseval, abs(spectral._spectral_sums(grid, h, np.ones_like)[0] - lhs) / lhs)
    ok = trip <= 1e-12 and parseval <= 1e-12
    return ok, f"d = 1, 2, 3: round-trip rel err {trip:.2e}; Parseval rel defect {parseval:.2e}"


def _heat_contraction():
    # band-limited random data: the discrete kernel's small negative lobes on
    # under-resolved scales make rough data overshoot slightly (see README)
    grid = TorusGrid(2, 32)
    worst = -np.inf
    for i, t in enumerate((0.01, 1.0, 10.0)):
        f = vec.smooth_random_ic(grid, 1, 1.0, seed=20 + i, kcut=4)[..., 0]
        growth = np.max(np.abs(spectral.heat_propagate(grid, f, t))) - np.max(np.abs(f))
        worst = max(worst, growth)
    return worst <= 1e-12, f"worst sup-norm growth {worst:+.2e}"


def _heat_mean():
    grid = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.Philox(21))
    f = rng.standard_normal(grid.shape)
    worst = max(
        abs(np.mean(spectral.heat_propagate(grid, f, t)) - np.mean(f)) for t in (0.01, 1.0, 10.0)
    )
    return worst <= 1e-13, f"worst mean drift {worst:.2e}"


def _quadratic_limit():
    grid = TorusGrid(2, 32)
    f = vec.smooth_random_ic(grid, 1, 1.0, seed=22, kcut=3)[..., 0]
    c = spectral.half_spectrum(grid, f)
    target = spectral.dirichlet_energy(grid, c)
    defects = [
        abs(spectral.dissipation_quadratic(grid, c, t) / (2.0 * t) - target) for t in (1e-2, 1e-3)
    ]
    ratio = defects[0] / defects[1]
    ok = 5.0 <= ratio <= 20.0
    return ok, f"O(tau) defect ratio at tau 1e-2/1e-3: {ratio:.2f} (expect ~10)"


def _max_principle(model: str, cases, taus, steps: int, seed: int):
    """Monitored runs from smooth data of each (m, sup) in `cases` at each tau:
    the sup norm never rises above max(sqrt(q), its previous value), nor over
    the whole run above max(sqrt(q), its initial value)."""
    worst = whole = -np.inf
    for m, sup0 in cases:
        floor = math.sqrt(m ** (MODELS[model].axes - 1))
        for tau in taus:
            trace = _trajectory(model, m, tau, steps, "smooth", seed, sup=sup0, kcut=4)
            sup = trace.column("sup_norm")
            worst = max(worst, _worst_sup_excess(trace, floor))
            whole = max(whole, float(np.max(sup) - max(floor, sup[0])))
    return worst <= 1e-12 and whole <= 1e-12, (
        f"worst {MODELS[model].sup_label} excess {worst:+.2e}; whole-run excess {whole:+.2e}")


def _semigroup(flow, shape, scale: float, seed: int, count: int, times):
    """S_N(t) S_N(s) = S_N(s + t) on `count` normal draws of m x q matrices."""
    s, t, total = times
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((count,) + shape) * scale
    err = np.max(np.abs(flow(flow(a, s), t) - flow(a, total)))
    return err <= 1e-12, f"S_N({t})S_N({s}) vs S_N({total}): max err {err:.2e}"


def _closed_form(flow, oracle, cases, count: int, seed: int, times):
    """The flow against the RK4 oracle on `count` draws per time from each
    m x q ball of `cases` (m, q, radius)."""
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for m, q, radius in cases:
        for t in times:
            a = _in_ball(rng, rng.standard_normal((count, m, q)), radius)
            worst = max(worst, np.max(np.abs(flow(a, t) - oracle(a, t))))
    drawn = len(cases) * len(times) * count
    return worst <= 1e-8, f"closed form vs RK4 max err {worst:.2e} ({drawn} cases)"


def _equivariance(flow, shape, scale: float, seed: int, t: float, tol: float, label: str):
    """S_N(t)(Q A R) = Q S_N(t)(A) R for random orthogonal Q, R on 200 draws."""
    m, q = shape
    rng = np.random.Generator(np.random.Philox(seed))
    left = _random_orthogonal(rng, m)
    # a single column has no right factor to rotate by: draw none
    right = _random_orthogonal(rng, q) if q > 1 else np.eye(1)
    a = rng.standard_normal((200,) + shape) * scale
    err = np.max(np.abs(flow(left @ a @ right, t) - left @ flow(a, t) @ right))
    return err <= tol, f"{label} equivariance max err {err:.2e}"


def _vec_norm_identity():
    rng = np.random.Generator(np.random.Philox(32))
    w = rng.standard_normal((10_000, 3)) * 1.5
    nsq = np.sum(w * w, axis=-1)
    err = 0.0
    for t in (0.7, 0.01, 0.5, 1.0, 10.0):
        predicted = np.exp(2 * t) * nsq / (np.expm1(2 * t) * nsq + 1.0)
        got = np.sum(vec.nonlinear_propagate_vec(w, t) ** 2, axis=-1)
        err = max(err, np.max(np.abs(got - predicted) / np.maximum(1.0, predicted)))
    return err <= 1e-12, f"norm identity max rel err {err:.2e} at t = 0.7, 0.01, 0.5, 1, 10"


def _energy_monotone(model: str, candidates, steps: int):
    """Modified-energy dissipation on the monitored runs at m = 2 of the
    candidates (tau, ic, seed, params) that the step-size bound certifies:
    every vector tau, and a matrix tau when threshold_check passes.  The
    matrix bound is sufficient-only, so runs beyond it are skipped; raising
    DISSIPATION_THRESHOLD admits them.  A step fails unless its relative rise
    is at most the tolerance, so a NaN rise fails, and a trajectory fails
    unless it ends strictly below where it started."""
    traces = [
        _trajectory(model, 2, tau, steps, ic, seed, **params)
        for tau, ic, seed, params in candidates
        if not MODELS[model].step_bound or mat.threshold_check(tau, 2).satisfied
    ]
    rises = [_relative_rises(trace) for trace in traces]
    worst = max((float(r.max()) for r in rises), default=-np.inf)
    bad_steps = sum(int(np.sum(~(r <= DISSIPATION_REL_TOL))) for r in rises)
    not_lower = sum(not e[-1] < e[0] for e in (t.column("energy_modified") for t in traces))
    return bad_steps == 0 and not_lower == 0 and len(rises) > 0, (
        f"{len(rises)} certified trajectories, {len(candidates) - len(rises)} skipped by "
        f"threshold, {bad_steps} dissipation-flag failures, worst rel increase {worst:+.2e}, "
        f"{not_lower} ending no lower than they start"
    )


def _second_order_rate(model: str, cases):
    """Observed orders of convergence_study on 16^2 grids, for each case
    (m, ic, seed, ic params, tau ladder, t_final): all in [1.8, 2.1].  Ladders
    beyond the matrix step-size bound are refused."""
    rates = [
        rate
        for m, ic, seed, params, ladder, t_final in cases
        for rate in convergence_study(
            RunConfig(model, d=2, n=16, m=m, tau=ladder[0], ic=ic, ic_params=params, seed=seed,
                      threshold_policy="enforce"), ladder, t_final).rates
    ]
    ok = all(1.8 <= r <= 2.1 for r in rates)  # a NaN rate fails
    return ok, f"observed orders {', '.join(f'{r:.4f}' for r in rates)}; band [1.8, 2.1]"


def _energy_gap(model: str, seed: int):
    """The abstract's O(tau) gap between the modified and the standard energy:
    max delta_e(tau/2) / max delta_e(tau) along monitored runs to t = 0.1 at
    m = 2 from smooth data, at tau = 1e-2 and 1e-3, in the band [0.35, 0.65]
    around the 1/2 of a gap linear in tau.  Every tau is inside the matrix
    step-size bound."""
    def max_gap(tau):
        trace = _trajectory(model, 2, tau, round(0.1 / tau), "smooth", seed)
        return float(np.max(trace.column("delta_e")))

    taus = (1e-2, 1e-3)
    ratios = [max_gap(tau / 2) / max_gap(tau) for tau in taus]
    ok = all(0.35 <= r <= 0.65 for r in ratios)  # a NaN ratio fails
    return ok, ("max delta_e(tau/2) / max delta_e(tau): "
                + ", ".join(f"{r:.4f} at tau = {tau:g}" for r, tau in zip(ratios, taus))
                + "; band [0.35, 0.65]")


def _gradient_fd(cases, count: int, seed: int, scales) -> float:
    """Worst |<grad G(A), H> - (G(A + eps H) - G(A - eps H)) / (2 eps)|, eps = 1e-5,
    with G tensor.potential, over `count` normal draws per case (m, q, tau) of
    m x q matrices A and H, scaled by `scales`."""
    rng = np.random.Generator(np.random.Philox(seed))
    eps, worst = 1e-5, 0.0
    for m, q, tau in cases:
        a, h = (rng.standard_normal((count, m, q)) * scale for scale in scales)
        fd = (tensor.potential(a + eps * h, tau) - tensor.potential(a - eps * h, tau)) / (2 * eps)
        exact = np.sum(tensor.gradient(a, tau) * h, axis=(-2, -1))
        worst = max(worst, float(np.max(np.abs(fd - exact))))
    return worst


def _vec_gradient_fd():
    worst = _gradient_fd([(3, 1, tau) for tau in (0.01, 1.0)], 150, 36, (1.5, 1.0))
    return worst <= 1e-6, f"gradient vs central differences: max abs err {worst:.2e}"


def _vec_concavity():
    rng = np.random.Generator(np.random.Philox(38))
    ok = True
    for tau in (0.01, 1.0):
        u = rng.standard_normal((10_000, 3))
        v = rng.standard_normal((10_000, 3))
        u = _in_ball(rng, u, 2.0)
        v = _in_ball(rng, v, 2.0)
        ok = ok and vec.concavity_inequality_check_vec(u, v, tau)
    return ok, "concavity inequality on 2x10^4 random pairs"


def _mat_fixed_point():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(43))
    q = _random_orthogonal(rng, 3)
    u = np.broadcast_to(q, grid.shape + (3, 3)).copy()
    worst = max(
        np.max(np.abs(mat.strang_step_mat(grid, u, tau) - u)) for tau in (0.01, 1.0, 10.0)
    )
    return worst <= 1e-14, f"constant orthogonal drift {worst:.2e}"


def _mat_frobenius_bound():
    rng = np.random.Generator(np.random.Philox(45))
    m = 3
    b = _in_ball(rng, rng.standard_normal((10_000, m, m)), math.sqrt(m))
    out = mat.nonlinear_propagate_mat(b, 0.5)
    worst = np.max(np.sqrt(np.sum(out * out, axis=(-2, -1)))) - math.sqrt(m)
    # draws inside and outside the ball: ||S_N(t) A||_F <= max(sqrt(k), ||A||_F)
    excess = -np.inf
    for t in (0.01, 0.5, 1.0, 10.0):
        k = 2 if t < 1.0 else 3
        a = rng.standard_normal((2500, k, k)) * rng.uniform(0.0, 1.2, (2500, 1, 1))
        after, before = np.linalg.norm([mat.nonlinear_propagate_mat(a, t), a], axis=(-2, -1))
        excess = max(excess, np.max(after - np.maximum(math.sqrt(k), before)))
    ok = worst <= 1e-12 and excess <= 1e-12
    return ok, (f"max ||S_N B||_F - sqrt(m) = {worst:+.2e} on 10^4 draws; "
                f"max ||S_N A||_F - max(sqrt(m), ||A||_F) = {excess:+.2e} on 10^4 more")


def _mat_taylor():
    rng = np.random.Generator(np.random.Philox(47))
    ok = True
    for m in (2, 3):
        tau_max = 0.9 * _threshold_tau(m)
        for _ in range(5):
            tau = float(rng.uniform(0.1, 1.0)) * tau_max
            u0 = _in_ball(rng, rng.standard_normal((1000, m, m)), math.sqrt(m))
            target = _in_ball(rng, rng.standard_normal((1000, m, m)), math.sqrt(m))
            ok = ok and mat.taylor_inequality_check(u0, target - u0, tau)
    # the derivative h'(0) = <grad G(U0), H> against central differences
    fd_worst = _gradient_fd([(m, m, 0.45 * _threshold_tau(m)) for m in (2, 3)]
                            + [(2, 2, 0.1), (2, 2, 1.0)], 20, 49, (0.4, 0.3))
    ok = ok and fd_worst <= 1e-6
    return ok, f"10^4 admissible draws; h'(0) vs FD max err {fd_worst:.2e}"


def _mat_svd_reconstruction():
    # A = (A V) V^T through the Gram eigenvectors V that the flow uses, where
    # A V = U diag(sigma) is the scaled left factor of the SVD
    rng = np.random.Generator(np.random.Philox(48))
    a = rng.standard_normal((2000, 3, 3)) * 3.0
    rec = tensor._gram_function(a, np.ones_like)
    fro = np.sqrt(np.sum(a * a, axis=(-2, -1)))
    res = np.sqrt(np.sum((rec - a) ** 2, axis=(-2, -1))) / (1.0 + fro)
    worst = float(np.max(res))
    return worst <= 1e-12, f"worst reconstruction residual through A^T A {worst:.2e}"


def _mat_projection():
    grid = TorusGrid(2, 16)
    u = mat.polar_ic(grid, "star")
    out = mat.projection_split_step(grid, u, 0.05)
    gram = tensor._gram(out) - np.eye(2)
    worst = float(np.max(np.sqrt(np.sum(gram * gram, axis=(-2, -1)))))
    return worst <= 1e-10, f"max ||U^T U - I||_F after projection step {worst:.2e}"


def _star_collapse_violation(counts):
    """Return the rule of shrink-then-vanish that `counts` breaks, or None.

    `counts` are det > 0 node counts at increasing snapshot times.  The star's
    rotation region must start non-empty, strictly shrink while it exists,
    stay gone once gone, be gone at the last snapshot, and be seen partly
    shrunk at some intermediate snapshot (not wiped out in one interval).
    """
    if counts[0] <= 0:
        return "the det>0 region is empty at the first snapshot"
    for i, (a, b) in enumerate(zip(counts, counts[1:])):
        if a > 0 and not b < a:
            return f"the count does not strictly decrease from snapshot {i} to {i + 1}"
        if a == 0 and b != 0:
            return f"the region re-forms at snapshot {i + 1} after vanishing"
    if counts[-1] != 0:
        return "the region never collapses (count nonzero at the last snapshot)"
    if not any(0 < c < counts[0] for c in counts[1:-1]):
        return "no intermediate snapshot sees the region partly shrunk"
    return None


def _mat_star_collapse():
    # the paper's star defect on a grid that resolves it: on 32^2 the heat
    # kernel's lobes at the discontinuity lift the star above sqrt(2)
    with tempfile.TemporaryDirectory(prefix="acsplit_verify_") as tmp:
        trace = run_experiment(RunConfig("matrix", d=2, n=128, m=2, tau=0.01, steps=300,
                                         ic="polar_star", threshold_policy="enforce",
                                         out_dir=tmp, snapshot_every=40))
        counts = [int(np.sum(mat.det_sign_field(read_snapshot(path)[1]) > 0))
                  for path in sorted(Path(tmp).glob("snap_*.snap"))]
    excess = float(np.max(trace.column("sup_norm"))) - math.sqrt(2)
    violation = _star_collapse_violation(counts)
    return excess <= 1e-12 and violation is None, (
        f"Frobenius sup excess {excess:+.2e}; det>0 counts at t = 0, 0.4, ..., 2.8, 3: {counts}"
        + (f"; {violation}" if violation else ""))


def _harness_determinism():
    cfg_kwargs = dict(model="vector", d=2, n=16, m=2, tau=0.05, steps=5, ic="smooth", seed=7,
                      snapshot_every=5)
    payloads = []
    with tempfile.TemporaryDirectory(prefix="acsplit_verify_") as tmp:
        for tag in ("a", "b"):
            out = Path(tmp) / f"det_{tag}"
            run_experiment(RunConfig(out_dir=str(out), **cfg_kwargs))
            payloads.append(
                ((out / "trace.csv").read_bytes(), (out / "snap_000005.snap").read_bytes())
            )
    ok = payloads[0] == payloads[1]
    return ok, "identical config+seed gives bit-identical trace and snapshot"


def _harness_restart():
    base = dict(model="matrix", d=2, n=16, m=2, tau=0.05, steps=6, ic="polar_star", seed=3)
    half = dict(base, steps=3)
    with tempfile.TemporaryDirectory(prefix="acsplit_verify_") as tmp:
        out = Path(tmp)
        run_experiment(RunConfig(out_dir=str(out / "full"), snapshot_every=6, **base))
        run_experiment(RunConfig(out_dir=str(out / "a"), snapshot_every=3, **half))
        run_experiment(RunConfig(
            out_dir=str(out / "b"), snapshot_every=3,
            **{**half, "ic": f"snapshot:{out / 'a' / 'snap_000003.snap'}"},
        ))
        _, full_final = read_snapshot(out / "full" / "snap_000006.snap")
        _, chained_final = read_snapshot(out / "b" / "snap_000003.snap")
    err = float(np.max(np.abs(full_final - chained_final)))
    return err <= 1e-12, f"2k-step run vs k+k chained via snapshot: max diff {err:.2e}"


# ---------------------------------------------------------------------------
# the registry, in report order

CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "core/transform-round-trip": _roundtrip,
    "core/parseval": _parseval,
    "core/half-lattice-round-trip": _half_lattice_roundtrip,
    "core/heat-sup-contraction": _heat_contraction,
    "core/heat-mean-preservation": _heat_mean,
    "core/quadratic-form-small-tau-limit": _quadratic_limit,
    "vector/max-principle": lambda: _max_principle(
        "vector", ((2, 0.8), (2, 2.0)), (1e-4, 0.1, 1.0, 10.0, 100.0, 1000.0), 25, 30),
    "vector/nonlinear-semigroup":
        lambda: _semigroup(tensor.nonlinear_propagate, (3, 1), 2.0, 31, 500, (0.3, 0.9, 1.2)),
    "vector/norm-identity": _vec_norm_identity,
    "vector/modified-energy-monotone": lambda: _energy_monotone("vector", [
        (tau, ic, seed, params) for ic, seed, params in (
            ("smooth", 33, {"sup": 2.0, "kcut": 4}), ("random_direction", 34, {"magnitude": 0.8}),
            ("smooth", 33, {"sup": 0.8, "kcut": 4}))
        for tau in (1e-4, 0.1, 1.0, 10.0)], 20),
    "vector/closed-form-vs-rk4": lambda: _closed_form(
        tensor.nonlinear_propagate, integrate_matrix_ode, ((3, 1, 3.0),), 250, 35,
        (0.1, 0.5, 1.0, 2.0)),
    "vector/potential-gradient-vs-fd": _vec_gradient_fd,
    "vector/rotation-equivariance":
        lambda: _equivariance(tensor.nonlinear_propagate, (3, 1), 2.0, 37, 0.8, 1e-13, "rotation"),
    "vector/concavity-inequality": _vec_concavity,
    "vector/second-order-rate": lambda: _second_order_rate("vector", [
        (2, "smooth_deterministic", 0, {"magnitude": 5.0}, [1 / 200, 1 / 400, 1 / 800], 0.05),
        (3, "smooth", 39, {"sup": 2.0, "kcut": 3}, [1 / 100, 1 / 200, 1 / 400], 0.1)]),
    "vector/energy-gap-linear-in-tau": lambda: _energy_gap("vector", 51),
    "matrix/max-principle": lambda: _max_principle(
        "matrix", ((2, math.sqrt(2)), (3, math.sqrt(3))), (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0),
        20, 40),
    "matrix/nonlinear-semigroup":
        lambda: _semigroup(mat.nonlinear_propagate_mat, (3, 3), 1.0, 41, 300, (0.4, 0.6, 1.0)),
    "matrix/closed-form-vs-rk4": lambda: _closed_form(
        mat.nonlinear_propagate_mat, integrate_matrix_ode,
        [(m, m, 2.0 * math.sqrt(m)) for m in (2, 3, 4)], 167, 42, (0.25, 1.0)),
    "matrix/orthogonal-fixed-point": _mat_fixed_point,
    "matrix/orthogonal-equivariance":
        lambda: _equivariance(mat.nonlinear_propagate_mat, (3, 3), 1.0, 44, 0.7, 1e-12, "orthogonal"),
    "matrix/frobenius-ball-invariance": _mat_frobenius_bound,
    "matrix/modified-energy-monotone": lambda: _energy_monotone("matrix", [
        (0.01, "polar_star", 46, {}), (0.01, "polar_stripe", 46, {}),
        (1.0, "split_noise", 46, {"lo": 0.05, "hi": 300.0}), (1.0, "polar_star", 46, {})], 30),
    "matrix/taylor-inequality": _mat_taylor,
    "matrix/svd-reconstruction": _mat_svd_reconstruction,
    "matrix/projection-orthogonality": _mat_projection,
    "matrix/second-order-rate": lambda: _second_order_rate("matrix", [
        (2, "smooth", 50, {"sup": 2.0, "kcut": 3}, [1 / 100, 1 / 200, 1 / 400], 0.1)]),
    "matrix/energy-gap-linear-in-tau": lambda: _energy_gap("matrix", 52),
    "matrix/star-defect-collapses": _mat_star_collapse,
    "harness/determinism": _harness_determinism,
    "harness/restart-consistency": _harness_restart,
}

# the name prefixes each scope runs
_SCOPES = {**{model: ("core/", f"{model}/") for model in MODELS}, "all": ("",)}


def verify_suite(scope: str = "all") -> VerifyReport:
    """Run the registry's checks of the requested scope, in table order.

    scope 'vector' runs the core/ and vector/ checks (no matrix-module
    work), 'matrix' the core/ and matrix/ checks, 'all' every check
    including the harness/ IO checks.  A check that raises is a failed check.
    """
    if scope not in _SCOPES:
        raise ConfigError(f"scope must be {'/'.join(_SCOPES)}, got {scope!r}")
    results = []
    for name, check in CHECKS.items():
        if not name.startswith(_SCOPES[scope]):
            continue
        start = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append(CheckResult(name, bool(ok), detail, time.perf_counter() - start))
    return VerifyReport(results)
