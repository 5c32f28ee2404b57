"""Correctness checks for the benchmark, written apart from acsplit.

Everything here uses numpy only: a one-step Strang reference with its own
wavenumbers and transforms, a snapshot reader, and the paper's properties
as predicates.  Each predicate returns None when the property holds and a
one-line description of the first violation otherwise.
"""

from __future__ import annotations

import math

import numpy as np

# tolerances from the paper's guarantees as acsplit states them
SUP_SLACK = 1e-12
STEP_REL_TOL = 1e-12
RATE_RANGE = (1.8, 2.1)
# the star's rotation region vanishes between t = 1.2 and 1.4 at n = 128, tau = 0.01
STAR_GONE_BY = 1.6


# ---------------------------------------------------------------------------
# one-step Strang reference


def heat(u: np.ndarray, t: float, d: int) -> np.ndarray:
    """e^{t Lap} on the 2 pi-periodic grid through a complex fftn."""
    n = u.shape[0]
    k = np.fft.fftfreq(n, 1.0 / n)
    k2 = np.zeros((n,) * d)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        k2 = k2 + (k**2).reshape(shape)
    mult = np.exp(-t * k2).reshape(k2.shape + (1,) * (u.ndim - d))
    axes = tuple(range(d))
    return np.fft.ifftn(np.fft.fftn(u, axes=axes) * mult, axes=axes).real


def flow_vec(w: np.ndarray, t: float) -> np.ndarray:
    """Closed-form S_N(t) w = e^t w / sqrt((e^{2t} - 1) |w|^2 + 1)."""
    nsq = np.sum(w * w, axis=-1, keepdims=True)
    return math.exp(t) * w / np.sqrt(math.expm1(2.0 * t) * nsq + 1.0)


def flow_mat(a: np.ndarray, t: float) -> np.ndarray:
    """S_N(t) A = e^t A (c A^T A + I)^{-1/2}, c = e^{2t} - 1, through eigh."""
    m = a.shape[-1]
    gram = np.swapaxes(a, -1, -2) @ a
    evals, vecs = np.linalg.eigh(math.expm1(2.0 * t) * gram + np.eye(m))
    inv_sqrt = (vecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return math.exp(t) * (a @ inv_sqrt)


def strang_step(u: np.ndarray, tau: float, model: str, d: int) -> np.ndarray:
    """S_L(tau/2) S_N(tau) S_L(tau/2) u."""
    flow = flow_vec if model == "vector" else flow_mat
    return heat(flow(heat(u, 0.5 * tau, d), tau), 0.5 * tau, d)


def step_violation(prev, last, tau: float, model: str, d: int) -> str | None:
    """`last` must be one Strang step of `prev`, to round-off."""
    ref = strang_step(prev, tau, model, d)
    err = float(np.max(np.abs(ref - last))) / max(1.0, float(np.max(np.abs(ref))))
    if not err <= STEP_REL_TOL:
        return f"last step differs from the reference step by {err:.3e} (tol {STEP_REL_TOL:g})"
    return None


# ---------------------------------------------------------------------------
# snapshots


def read_snapshot(path) -> tuple[int, np.ndarray]:
    """Parse an ACSPLIT-SNAPSHOT v1 file into (step, field with spatial axes first)."""
    with open(path, "rb") as fh:
        if not fh.readline().startswith(b"ACSPLIT-SNAPSHOT v1"):
            raise ValueError(f"{path}: not a v1 snapshot")
        meta = {}
        for line in iter(fh.readline, b""):
            line = line.decode("ascii").strip()
            if line == "end":
                break
            key, _, val = line.partition("=")
            meta[key] = val
        raw = fh.read()
    d, n, m = int(meta["d"]), int(meta["n"]), int(meta["m"])
    comps = (m,) if meta["model"] == "vector" else (m, m)
    disk = np.frombuffer(raw, dtype="<f8").reshape(comps + (n,) * d)
    field = np.moveaxis(disk, tuple(range(len(comps))), tuple(range(-len(comps), 0)))
    return int(meta["step"]), field


def pointwise_norm(u: np.ndarray, model: str) -> np.ndarray:
    """|u(x)| for vectors, ||U(x)||_F for matrices."""
    axes = (-1,) if model == "vector" else (-2, -1)
    return np.sqrt(np.sum(u * u, axis=axes))


def det_positive_count(u: np.ndarray) -> int:
    """Nodes where det U = ad - bc > 0, for a 2 x 2 matrix field."""
    det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    return int(np.count_nonzero(det > 0))


# ---------------------------------------------------------------------------
# the paper's properties


def vector_max_principle_violation(sups) -> str | None:
    """sup |u^{n+1}| <= max(1, sup |u^n|) + 1e-12 at every step."""
    for n in range(1, len(sups)):
        bound = max(1.0, sups[n - 1]) + SUP_SLACK
        if not sups[n] <= bound:
            return f"step {n}: sup {sups[n]!r} > max(1, {sups[n - 1]!r}) + {SUP_SLACK:g}"
    return None


def frobenius_violation(sups, m: int) -> str | None:
    """sup ||U^n||_F <= sqrt(m) + 1e-12 at every step (initial data on the ball)."""
    bound = math.sqrt(m) + SUP_SLACK
    for n, s in enumerate(sups):
        if not s <= bound:
            return f"step {n}: sup ||U||_F = {s!r} exceeds sqrt({m})"
    return None


def dissipation_violation(flags) -> str | None:
    """Every per-step modified-energy flag holds."""
    bad = [n for n, ok in enumerate(flags) if not ok]
    if bad:
        return f"modified energy rose at steps {bad[:10]}"
    return None


def star_collapse_violation(times, counts, t_gone: float = STAR_GONE_BY) -> str | None:
    """The det > 0 region starts non-empty, shrinks strictly while it exists,
    never re-forms, and is gone by t_gone."""
    if not counts or counts[0] <= 0:
        return f"no det > 0 region at the start: counts {counts}"
    for (ta, a), (tb, b) in zip(zip(times, counts), zip(times[1:], counts[1:])):
        if a > 0 and not b < a:
            return f"det > 0 count did not fall from t={ta:g} to t={tb:g}: {a} -> {b}"
        if a == 0 and b != 0:
            return f"det > 0 region re-formed at t={tb:g}: {b} nodes"
    late = [c for t, c in zip(times, counts) if t >= t_gone - 1e-9]
    if not late or any(late):
        return f"det > 0 region not gone by t={t_gone:g}: counts {counts}"
    return None


def rates_violation(rates) -> str | None:
    """Observed convergence orders lie in [1.8, 2.1]."""
    lo, hi = RATE_RANGE
    if not rates or not all(lo <= r <= hi for r in rates):
        return f"observed rates {rates} outside [{lo}, {hi}]"
    return None
