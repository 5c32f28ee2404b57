"""Matrix-valued Allen-Cahn model  dU/dt = Lap(U) + U - U U^T U  on m x m fields.

A matrix field, shape grid.shape + (m, m), is the tensorial model of
acsplit.tensor with q = m columns.  The pointwise flow

    S_N(t) A = ((e^{2t} - 1) A A^T + I)^{-1/2} e^t A = e^t A ((e^{2t} - 1) A^T A + I)^{-1/2}

maps each singular value sigma -> e^t sigma / sqrt((e^{2t} - 1) sigma^2 + 1)
and keeps the singular vectors.  It is computed in closed form for m = 2 and
from the eigenvectors of A^T A for m >= 3, with no singular value
decomposition and no matrix square root.  Orthogonal matrices are fixed points; the
Frobenius ball of radius sqrt(m) is forward invariant.  The modified energy,
with the trace potential sum_i G(sigma_i^2), is nonincreasing along the
splitting when m e^tau (e^{2 tau} - 1) <= 0.43 (sufficient, not claimed
necessary).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor
from .grid import TorusGrid, _check_time, heat_propagate
from .tensor import INEQUALITY_SLACK

__all__ = [
    "DISSIPATION_THRESHOLD",
    "ThresholdResult",
    "nonlinear_propagate_mat",
    "strang_step_mat",
    "strang_evolve_mat",
    "g_potential_mat",
    "g_trace_derivative",
    "modified_energy_mat",
    "standard_energy_mat",
    "sup_frobenius",
    "threshold_check",
    "taylor_inequality_check",
    "projection_split_step",
    "det_sign_field",
    "polar_ic",
    "smooth_random_mat_ic",
    "split_amplitude_mat_ic",
]

# sufficient bound on m e^tau (e^{2 tau} - 1) for modified-energy dissipation
DISSIPATION_THRESHOLD = 0.43


class ThresholdResult(NamedTuple):
    satisfied: bool
    margin: float


def _tr_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product Tr(a b^T) = sum_ij a_ij b_ij over trailing axes."""
    return np.sum(a * b, axis=(-2, -1))


def nonlinear_propagate_mat(a: np.ndarray, t: float) -> np.ndarray:
    """Exact flow of U' = U - U U^T U, of matrices or a tensor.StepRecord's U~;
    see tensor.nonlinear_propagate."""
    return tensor.nonlinear_propagate(a, t)


def strang_step_mat(grid: TorusGrid, u: np.ndarray, tau: float) -> np.ndarray:
    """One splitting step of the matrix model; see tensor.strang_step."""
    return tensor.strang_step(grid, u, tau, nonlinear_propagate_mat)


def strang_evolve_mat(
    grid: TorusGrid, u: np.ndarray, tau: float, steps: int
) -> np.ndarray:
    """`steps` fused splitting steps of the matrix model; see tensor.strang_evolve."""
    return tensor.strang_evolve(grid, u, tau, steps, nonlinear_propagate_mat)


def g_potential_mat(a: np.ndarray, tau: float) -> np.ndarray:
    """Trace potential sum_i G(sigma_i(A)^2), of matrices or a tensor.StepRecord's
    U~; see tensor.potential."""
    return tensor.potential(a, tau)


def g_trace_derivative(u0: np.ndarray, h: np.ndarray, tau: float) -> np.ndarray:
    """Directional derivative h'(0) of s -> trace potential of (U0 + s H):

    h'(0) = (1/tau) Tr(U0 H^T)
            - (e^tau/tau) Tr((I + (e^{2 tau}-1) U0 U0^T)^{-1/2} U0 H^T),

    the Frobenius product of H with the potential's gradient at U0.
    """
    return _tr_prod(tensor.gradient(u0, tau), np.asarray(h, dtype=np.float64))


def modified_energy_mat(grid: TorusGrid, u: np.ndarray, tau: float) -> float:
    """Modified energy at U_tilde = S_L(tau/2) U, for the PRE-half-step U (or
    its tensor.StepRecord), with the additive constant (m/4) (2 pi)^d; see
    tensor.modified_energy."""
    return tensor.modified_energy(grid, u, tau, g_potential_mat)


def standard_energy_mat(grid: TorusGrid, u: np.ndarray) -> float:
    """Standard energy E(U) = int (1/2)||grad U||_F^2 + (1/4)||U^T U - I||_F^2 dx,
    of a field or a tensor.StepRecord."""
    return tensor.standard_energy(grid, u)


def sup_frobenius(u: np.ndarray) -> float:
    """Max over nodes of the pointwise Frobenius norm ||U(x)||_F, of a field or
    a tensor.StepRecord."""
    return tensor.sup_norm(u)


def threshold_check(tau: float, m: int) -> ThresholdResult:
    """Sufficient dissipation bound: satisfied iff m e^tau (e^{2 tau}-1) <= 0.43.

    margin = threshold - m e^tau (e^{2 tau} - 1); negative when violated.
    """
    _check_time(tau)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    with np.errstate(over="ignore"):  # inf beyond tau ~ 236, far past the bound
        value = m * np.exp(tau) * np.expm1(2.0 * tau)
    margin = float(DISSIPATION_THRESHOLD - value)
    return ThresholdResult(satisfied=margin >= 0.0, margin=margin)


def taylor_inequality_check(u0: np.ndarray, h: np.ndarray, tau: float) -> bool:
    """Check  -h'(0) <= h(0) - h(1) + ||H||_F^2 / tau  for the trace potential
    along phi(s) = U0 + s H.

    Preconditions (raised on violation): ||U0||_F <= sqrt(m),
    ||U0 + H||_F <= sqrt(m), and m e^tau (e^{2 tau} - 1) <= 0.43.
    Accepts batches over leading axes; true iff the inequality holds with
    slack >= -1e-10 everywhere: the tensorial inequality with w = 1.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    m = u0.shape[-1]
    root_m = np.sqrt(m) * (1.0 + 1e-12)
    if np.any(np.sqrt(_tr_prod(u0, u0)) > root_m):
        raise ValueError("||U0||_F exceeds sqrt(m)")
    if np.any(np.sqrt(_tr_prod(u0 + h, u0 + h)) > root_m):
        raise ValueError("||U0 + H||_F exceeds sqrt(m)")
    if not threshold_check(tau, m).satisfied:
        raise ValueError("m e^tau (e^{2 tau} - 1) exceeds the 0.43 bound")
    return tensor._inequality_slack(u0, h, tau, 1.0) >= -INEQUALITY_SLACK


def projection_split_step(grid: TorusGrid, u: np.ndarray, tau: float) -> np.ndarray:
    """Projection splitting baseline: full heat step, then pointwise polar
    projection A -> U V^T onto the nearest orthogonal matrix.

    tau = 0 performs the bare projection.  A pointwise singular matrix
    (sigma_min <= 1e-12) has no well-defined projection; reported with the
    offending node's index.
    """
    _check_time(tau, zero_ok=True)
    a = heat_propagate(grid, np.asarray(u, dtype=np.float64), tau)
    w, s, vt = np.linalg.svd(a)
    smin = s[..., -1]
    if np.any(smin <= 1e-12):
        node = tuple(int(i) for i in np.unravel_index(int(np.argmin(smin)), smin.shape))
        raise ValueError(
            f"singular pointwise matrix at node {node}: sigma_min = {smin[node]:.3e}"
        )
    return w @ vt


def det_sign_field(u: np.ndarray) -> np.ndarray:
    """Sign of det U(x) per node, in {-1, 0, +1}."""
    return np.sign(np.linalg.det(np.asarray(u, dtype=np.float64)))


def polar_ic(grid: TorusGrid, variant: str) -> np.ndarray:
    """Piecewise rotation/reflection initial data on the 2D torus (m = 2).

    variant "star":   rotation branch where r < 0.6 pi + 0.12 pi sin(6 theta),
                      reflection elsewhere; angle field alpha = (pi/2) sin(x+y).
    variant "stripe": rotation branch where |x| > 0.5 pi |sin(1.25 y)| + 0.4 pi,
                      reflection elsewhere; angle field alpha = y.

    Rotation = [[cos a, -sin a], [sin a, cos a]] (det +1);
    reflection = [[cos a, sin a], [sin a, -cos a]] (det -1).
    Every node is orthogonal, so ||U0(x)||_F = sqrt(2).
    """
    if grid.d != 2:
        raise ValueError(f"polar initial data requires d = 2, got d = {grid.d}")
    x, y = grid.meshes()
    if variant == "star":
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        rotation = r < 0.6 * np.pi + 0.12 * np.pi * np.sin(6.0 * theta)
        alpha = 0.5 * np.pi * np.sin(x + y)
    elif variant == "stripe":
        rotation = np.abs(x) > 0.5 * np.pi * np.abs(np.sin(1.25 * y)) + 0.4 * np.pi
        alpha = y
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'star' or 'stripe'")
    ca, sa = np.cos(alpha), np.sin(alpha)
    u = np.empty(grid.shape + (2, 2))
    u[..., 0, 0] = ca
    u[..., 1, 0] = sa
    u[..., 0, 1] = np.where(rotation, -sa, sa)
    u[..., 1, 1] = np.where(rotation, ca, -ca)
    return u


def smooth_random_mat_ic(
    grid: TorusGrid, m: int, sup_target: float, seed: int, kcut: float = 4
) -> np.ndarray:
    """Seeded band-limited random matrix field; see tensor.smooth_random_ic."""
    return tensor.smooth_random_ic(grid, (m, m), sup_target, seed, kcut)


def split_amplitude_mat_ic(
    grid: TorusGrid, m: int, lo: float, hi: float, seed: int
) -> np.ndarray:
    """White-noise matrix field with amplitude `lo` on the first half of the
    leading axis and `hi` on the second half.

    Deliberately rough, far-from-equilibrium data used to stress the
    dissipation monitor in step-size regimes the sufficient bound does not
    certify.  (Measured so far: the modified energy decreases even here.)
    """
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.standard_normal(grid.shape + (m, m))
    half = grid.n // 2
    u[:half] *= lo
    u[half:] *= hi
    return u
