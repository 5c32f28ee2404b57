"""Vector-valued Allen-Cahn model  du/dt = Lap(u) + u - |u|^2 u.

A vector field, shape grid.shape + (m,), is the tensorial model of
acsplit.tensor on m x 1 matrices: for U = u, U U^T U = |u|^2 u and the Gram
matrix U^T U is |u|^2.  The functions here pass u[..., None] to acsplit.tensor
and drop the axis on return; a tensor.StepRecord they pass as it is, since a
record reads one component axis as m x 1 itself.  The pointwise flow is

    S_N(t) w = e^t w / sqrt((e^{2t} - 1) |w|^2 + 1),

and the modified energy, with the potential G = tensor.g_scalar evaluated at
lam = |u|^2, is nonincreasing along the splitting for every tau > 0.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .grid import TorusGrid, _check_time, heat_propagate  # noqa: F401  (still importable from here)
from .tensor import INEQUALITY_SLACK, g_scalar  # noqa: F401  (still importable from here)

__all__ = [
    "nonlinear_propagate_vec",
    "strang_step_vec",
    "strang_evolve_vec",
    "g_potential_vec",
    "g_gradient_vec",
    "modified_energy_vec",
    "standard_energy_vec",
    "sup_magnitude",
    "concavity_inequality_check_vec",
    "random_direction_ic",
    "smooth_random_ic",
    "smooth_deterministic_ic",
]


def _columns(w):
    """The vectors `w` as m x 1 matrices, or the tensor.StepRecord `w` as it is."""
    return w if isinstance(w, tensor.StepRecord) else np.asarray(w)[..., None]


def nonlinear_propagate_vec(w: np.ndarray, t: float) -> np.ndarray:
    """Exact flow of u' = (1 - |u|^2) u on the last axis of `w`, or on a
    tensor.StepRecord's u~, into whose buffer it writes; it preserves
    direction and fixes the unit sphere."""
    return tensor.nonlinear_propagate(_columns(w), t)[..., 0]


def strang_step_vec(grid: TorusGrid, u: np.ndarray, tau: float) -> np.ndarray:
    """One splitting step of the vector model; see tensor.strang_step."""
    return tensor.strang_step(grid, u, tau, nonlinear_propagate_vec)


def strang_evolve_vec(
    grid: TorusGrid, u: np.ndarray, tau: float, steps: int
) -> np.ndarray:
    """`steps` fused splitting steps of the vector model; see tensor.strang_evolve."""
    return tensor.strang_evolve(grid, u, tau, steps, nonlinear_propagate_vec)


def g_potential_vec(w: np.ndarray, tau: float) -> np.ndarray:
    """Potential G(|w|^2) at a vector (or field of vectors, or a
    tensor.StepRecord's u~)."""
    return tensor.potential(_columns(w), tau)


def g_gradient_vec(w: np.ndarray, tau: float) -> np.ndarray:
    """Gradient (w/tau) (1 - e^tau / sqrt(1 + expm1(2 tau) |w|^2)) of g_potential_vec."""
    return tensor.gradient(np.asarray(w)[..., None], tau)[..., 0]


def modified_energy_vec(grid: TorusGrid, u: np.ndarray, tau: float) -> float:
    """Modified energy at u_tilde = S_L(tau/2) u, for the PRE-half-step u (or
    its tensor.StepRecord), with the additive constant (2 pi)^d / 4; see
    tensor.modified_energy."""
    return tensor.modified_energy(grid, u, tau, tensor.potential)


def standard_energy_vec(grid: TorusGrid, u: np.ndarray) -> float:
    """Standard energy E(u) = int (1/2)|grad u|^2 + (1/4)(|u|^2 - 1)^2 dx, of a
    field or a tensor.StepRecord."""
    return tensor.standard_energy(grid, u)


def sup_magnitude(u: np.ndarray) -> float:
    """Max over nodes of the pointwise euclidean magnitude |u(x)|, of a field
    or a tensor.StepRecord."""
    return tensor.sup_norm(_columns(u))


def concavity_inequality_check_vec(u: np.ndarray, v: np.ndarray, tau: float) -> bool:
    """Check  -<grad G(u), v - u>  <=  G(u) - G(v) + |v - u|^2 / (2 tau).

    `u`, `v` are m-vectors or batches of them (last axis = components).
    True iff the inequality holds with slack >= -1e-10 everywhere: the
    tensorial inequality with w = 1/2 on m x 1 columns.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return tensor._inequality_slack(u[..., None], (v - u)[..., None], tau, 0.5) >= -INEQUALITY_SLACK


def random_direction_ic(
    grid: TorusGrid, m: int, magnitude: float, seed: int
) -> np.ndarray:
    """Per-node uniformly random directions at fixed magnitude.

    Draws an i.i.d. standard normal m-vector per node and rescales to the
    requested magnitude; a node whose raw draw is exactly zero stays zero.
    Deterministic per seed (counter-based generator).
    """
    _check_time(magnitude, "magnitude", zero_ok=True)
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal(grid.shape + (m,))
    norm = np.sqrt(np.sum(raw * raw, axis=-1, keepdims=True))
    scale = np.divide(magnitude, norm, out=np.zeros_like(norm), where=norm > 0)
    return raw * scale


def smooth_random_ic(
    grid: TorusGrid, m: int, sup_target: float, seed: int, kcut: float = 4
) -> np.ndarray:
    """Seeded band-limited random field; see tensor.smooth_random_ic."""
    return tensor.smooth_random_ic(grid, (m,), sup_target, seed, kcut)


def smooth_deterministic_ic(
    grid: TorusGrid, m: int, magnitude: float = 0.8
) -> np.ndarray:
    """Deterministic smooth field for reproducible convergence studies.

    Component i is the product over axes a of cos/sin(x_a) with the trig
    function alternating by (i + a) mod 2; in 2D with m = 2 this is
    (cos x sin y, sin x cos y).  The whole field is scaled so the sup of the
    pointwise magnitude equals `magnitude`.
    """
    _check_time(magnitude, "magnitude", zero_ok=True)
    meshes = grid.meshes()
    comps = []
    for i in range(m):
        c = np.ones(grid.shape)
        for a, xa in enumerate(meshes):
            c = c * (np.cos(xa) if (i + a) % 2 == 0 else np.sin(xa))
        comps.append(c)
    u = np.stack(comps, axis=-1)
    sup = sup_magnitude(u)
    if sup == 0:
        return u
    return u * (magnitude / sup)
