"""Tensorial Allen-Cahn model  dU/dt = Lap(U) + U - U U^T U  on m x q matrix fields.

Both models of the package are this one equation on fields of shape
grid.shape + (m, q): q = 1 is the vector model (for U = u, U U^T U = |u|^2 u)
and q = m the matrix model.  A step is the splitting
U^{n+1} = S_L(tau/2) S_N(tau) S_L(tau/2) U^n, with S_L the heat semigroup
acting entry-wise and S_N the exact pointwise flow

    S_N(t) A = e^t A (c A^T A + I)^{-1/2},   c = e^{2t} - 1,

the push-through form of (c A A^T + I)^{-1/2} e^t A.  All pointwise algebra
goes through the q x q Gram matrix A^T A: for q = 1 it is the scalar |a|^2 and
the work is elementwise; for q >= 2 its eigenvectors V give
A f(A^T A) = (A V) f(Lambda) V^T, with Lambda_i = sigma_i(A)^2.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# called through the module, so that wrappers installed on acsplit.grid at
# run time (the benchmark's per-layer tracer) see these calls
from . import grid as spectral
from .grid import TorusGrid

# slack floor for the concavity and Taylor inequality checks
INEQUALITY_SLACK = 1e-10


def g_scalar(lam: np.ndarray, tau: float) -> np.ndarray:
    """Potential G as a function of lam = |w|^2 (or a squared singular value).

    Algebraically equal to

        lam/(2 tau) - e^tau/(tau (e^{2 tau} - 1)) (sqrt(1 + (e^{2 tau} - 1) lam) - 1)

    but evaluated in the factored form

        (lam/tau) (1/2 - e^tau / (1 + sqrt(1 + expm1(2 tau) lam)))

    which has no subtractive cancellation for small tau or small lam.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    lam = np.asarray(lam, dtype=np.float64)
    root = np.sqrt(1.0 + np.expm1(2.0 * tau) * lam)
    return (lam / tau) * (0.5 - np.exp(tau) / (1.0 + root))


def _gram(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2) @ a


def _gram_function(a: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A fn(A^T A), with the scalar function fn acting on the Gram eigenvalues."""
    if a.shape[-1] == 1:  # the 1 x 1 Gram matrix is its own eigenvalue
        return a * fn(_gram(a))
    _, v = np.linalg.eigh(_gram(a))
    av = a @ v
    # the eigenvalues as squared column norms of A V: nonnegative, and accurate
    # relative to each sigma_i rather than only to the largest, which keeps
    # the flow at large t as accurate as a singular value decomposition
    lam = np.sum(av * av, axis=-2, keepdims=True)
    return (av * fn(lam)) @ np.swapaxes(v, -1, -2)


def nonlinear_propagate(a: np.ndarray, t: float) -> np.ndarray:
    """S_N(t) A on the trailing m x q axes.  It keeps the right singular
    vectors (hence the rank) and fixes matrices with orthonormal columns."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite values in input field")
    if t == 0:
        return a.copy()  # skip the eigendecomposition's last-ulp noise
    c = np.expm1(2.0 * t)
    return _gram_function(a, lambda lam: np.exp(t) / np.sqrt(c * lam + 1.0))


def strang_step(
    grid: TorusGrid, u: np.ndarray, tau: float, flow: Callable, with_intermediate: bool
):
    """One step S_L(tau/2) S_N(tau) S_L(tau/2), `flow` being the model's S_N
    on its own field shape.  With `with_intermediate`, returns (new field,
    u_tilde), u_tilde = S_L(tau/2) u being where the modified energy lives."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    u_tilde = spectral.heat_propagate(grid, u, 0.5 * tau)
    u_next = spectral.heat_propagate(grid, flow(u_tilde, tau), 0.5 * tau)
    if with_intermediate:
        return u_next, u_tilde
    return u_next


def strang_evolve(
    grid: TorusGrid, u: np.ndarray, tau: float, steps: int, flow: Callable
) -> np.ndarray:
    """`steps` splitting steps, the same as iterating strang_step, with the
    adjacent half heat steps between two flows fused into one full step;
    this halves the transforms of long energy-free runs."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return np.array(u, copy=True)
    u = spectral.heat_propagate(grid, u, 0.5 * tau)
    for n in range(steps):
        u = flow(u, tau)
        u = spectral.heat_propagate(grid, u, tau if n < steps - 1 else 0.5 * tau)
    return u


def potential(a: np.ndarray, tau: float) -> np.ndarray:
    """Trace potential sum_i G(lambda_i) over the eigenvalues of A^T A: the trace of
    (1/(2 tau)) A A^T - (e^tau/(tau c)) ((I + c A A^T)^{1/2} - I), c = e^{2 tau} - 1.
    It is invariant under A -> Q A R for orthogonal Q, R."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] == 1:
        lam = _gram(a)[..., 0]
    else:  # clipped at 0: round-off can make the smallest slightly negative
        lam = np.maximum(np.linalg.eigvalsh(_gram(a)), 0.0)
    return np.sum(g_scalar(lam, tau), axis=-1)


def gradient(a: np.ndarray, tau: float) -> np.ndarray:
    """Gradient of `potential` in A:  (A - e^tau A (I + expm1(2 tau) A^T A)^{-1/2}) / tau."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    a = np.asarray(a, dtype=np.float64)
    c = np.expm1(2.0 * tau)
    return _gram_function(a, lambda lam: (1.0 - np.exp(tau) / np.sqrt(1.0 + c * lam)) / tau)


def modified_energy(
    grid: TorusGrid, a: np.ndarray, tau: float, potential_fn: Callable
) -> float:
    """Modified energy, nonincreasing along the splitting, at A~ = S_L(tau/2) A
    for the PRE-half-step field A, with potential_fn the model's trace potential:

        int (1/(2 tau)) <(e^{-tau Lap} - 1) A~, A~> + potential_fn(A~) dx + (q/4) (2 pi)^d.

    The quadratic part is (2 pi)^d sum_k (1 - e^{-tau |k|^2}) |A_hat_k|^2 on the
    coefficients of A itself, so the growing symbol e^{+tau|k|^2} never
    appears; the constant aligns it with the standard energy as tau -> 0.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    coeffs = spectral.forward_transform(grid, a)
    quad = spectral.dissipation_quadratic(grid, coeffs, tau) / (2.0 * tau)
    a_tilde = spectral.heat_propagate(grid, a, 0.5 * tau)
    pot = grid.cell_volume * float(np.sum(potential_fn(a_tilde, tau)))
    return quad + pot + 0.25 * a.shape[-1] * grid.volume


def standard_energy(grid: TorusGrid, a: np.ndarray) -> float:
    """Standard energy int (1/2)||grad A||_F^2 + (1/4)||A^T A - I||_F^2 dx."""
    a = np.asarray(a, dtype=np.float64)
    q = a.shape[-1]
    coeffs = spectral.forward_transform(grid, a)
    gram = _gram(a)
    gram[..., range(q), range(q)] -= 1.0
    pot = 0.25 * grid.cell_volume * float(np.sum(gram * gram))
    return spectral.dirichlet_energy(grid, coeffs) + pot


def sup_norm(a: np.ndarray) -> float:
    """Max over nodes of the pointwise Frobenius norm ||A(x)||_F."""
    a = np.asarray(a)
    return float(np.sqrt(np.max(np.sum(a * a, axis=(-2, -1)))))


def smooth_random_ic(
    grid: TorusGrid, shape: tuple[int, ...], sup_target: float, seed: int, kcut: int = 4
) -> np.ndarray:
    """Seeded random field with component axes `shape` ((m, q), or (m,) for a
    vector field), band-limited to |k|^2 <= kcut^2 and scaled so the sup of
    the pointwise Frobenius norm equals sup_target.  Band-limiting keeps the
    discrete heat kernel's small negative lobes, which rough data shows at
    small tau, out of stepwise sup-norm checks.
    """
    if sup_target < 0:
        raise ValueError("sup_target must be >= 0")
    if kcut < 0:
        raise ValueError(f"kcut must be >= 0, got {kcut}")
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.standard_normal(grid.shape + tuple(shape))
    coeffs = np.fft.fftn(raw, axes=grid.spatial_axes)
    keep = grid.wavenumbers_squared <= kcut**2
    coeffs *= keep.reshape(keep.shape + (1,) * len(shape))
    u = np.fft.ifftn(coeffs, axes=grid.spatial_axes).real
    sup = sup_norm(u.reshape(grid.shape + (shape[0], -1)))
    if sup == 0:
        return u
    return u * (sup_target / sup)
