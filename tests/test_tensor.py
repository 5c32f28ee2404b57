import math

import numpy as np
import pytest

from acsplit import tensor, vector
from acsplit.grid import TorusGrid

SHAPES = [(1, 1), (3, 1), (2, 2), (3, 3), (4, 4)]
TIMES = [0.01, 1.0, 10.0]
KINDS = ["random", "rank-deficient", "norm-up-to-300"]
EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# reference: the same maps through the singular value decomposition


def _svd_map(a, fn):
    """U diag(fn(sigma)) V^T for A = U diag(sigma) V^T."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return (u * fn(s)[..., None, :]) @ vt


def _flow_ref(a, t):
    return _svd_map(a, lambda s: math.exp(t) * s / np.sqrt(math.expm1(2 * t) * s**2 + 1.0))


def _gradient_ref(a, tau):
    c = math.expm1(2 * tau)
    return _svd_map(a, lambda s: (s / tau) * (1.0 - math.exp(tau) / np.sqrt(1.0 + c * s**2)))


def _potential_ref(a, tau):
    s = np.linalg.svd(a, compute_uv=False)
    return np.sum(tensor.g_scalar(s**2, tau), axis=-1)


def _inputs(kind, m, q, count=200):
    rng = np.random.Generator(np.random.Philox(100 * KINDS.index(kind) + 10 * m + q))
    if kind == "rank-deficient":  # rank q - 1: the zero matrix for q = 1
        x = rng.standard_normal((count, m, q - 1))
        y = rng.standard_normal((count, q, q - 1))
        return x @ np.swapaxes(y, -1, -2)
    a = rng.standard_normal((count, m, q))
    if kind == "norm-up-to-300":  # Frobenius norms uniform in [0, 300], as split_noise
        norms = np.sqrt(np.sum(a * a, axis=(-2, -1), keepdims=True))
        a *= 300.0 * rng.random((count, 1, 1)) / norms
    return a


def _worst_excess(got, ref, slack=0.0):
    """Largest per-matrix max-abs difference minus its tolerance
    1e-12 max(1, |ref|) + slack; positive means a failure."""
    axes = tuple(range(1, ref.ndim))
    diff = np.max(np.abs(got - ref), axis=axes)
    size = np.max(np.abs(ref), axis=axes)
    return float(np.max(diff - 1e-12 * np.maximum(1.0, size) - slack))


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m,q", SHAPES)
def test_kernels_match_svd_reference(m, q, kind, t):
    a = _inputs(kind, m, q)
    flow_slack = pot_slack = 0.0
    if t > 1.0 and q > 1:
        # At t = 10 the maps are ill-conditioned at sigma = 0: the flow's
        # slope there is e^t, and the potential's slope in lambda = sigma^2 is
        # -(e^t - 1)/(2t).  On rank-deficient A the SVD reference is itself
        # off from a 50-digit computation by about eps e^t sigma_1.  The Gram
        # eigenvectors put round-off of about eps sigma_1^2 / sigma_{q-1} into
        # A V, and the Gram eigenvalues about eps ||A||_F^2; over 2 x 10^4
        # draws per case the differences stayed under 6.3 and 0.8 of the
        # units below, which the slack multiplies by 16 and 4.
        s = np.linalg.svd(a, compute_uv=False)
        fro_sq = np.sum(a * a, axis=(-2, -1))
        flow_slack = 16 * EPS * math.exp(t) * s[:, 0] ** 2 / s[:, q - 2]
        pot_slack = 4 * EPS * math.exp(t) / t * fro_sq
    assert _worst_excess(tensor.nonlinear_propagate(a, t), _flow_ref(a, t), flow_slack) <= 0
    # the gradient is (A - S_N(t) A) / t
    assert _worst_excess(tensor.gradient(a, t), _gradient_ref(a, t), flow_slack / t) <= 0
    pot = tensor.potential(a, t)[:, None]
    assert _worst_excess(pot, _potential_ref(a, t)[:, None], pot_slack) <= 0


# ---------------------------------------------------------------------------
# the vector model is the tensor model on m x 1 fields


def test_vector_wrappers_equal_tensor_functions_on_column_view():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(4))
    u = rng.standard_normal(grid.shape + (3,)) * 1.5
    col = u[..., None]
    tau = 0.05
    flow = tensor.nonlinear_propagate(col, tau)[..., 0]
    assert np.array_equal(vector.nonlinear_propagate_vec(u, tau), flow)
    assert np.array_equal(vector.g_potential_vec(u, tau), tensor.potential(col, tau))
    assert np.array_equal(vector.g_gradient_vec(u, tau), tensor.gradient(col, tau)[..., 0])
    assert vector.sup_magnitude(u) == tensor.sup_norm(col)
    assert vector.standard_energy_vec(grid, u) == tensor.standard_energy(grid, col)
    assert vector.modified_energy_vec(grid, u, tau) == tensor.modified_energy(
        grid, col, tau, tensor.potential
    )
    step = tensor.strang_step(grid, col, tau, tensor.nonlinear_propagate, False)
    assert np.array_equal(vector.strang_step_vec(grid, u, tau), step[..., 0])
    evolved = tensor.strang_evolve(grid, col, tau, 3, tensor.nonlinear_propagate)
    assert np.array_equal(vector.strang_evolve_vec(grid, u, tau, 3), evolved[..., 0])
    field = tensor.smooth_random_ic(grid, (3, 1), 0.9, seed=5, kcut=3)
    assert np.array_equal(vector.smooth_random_ic(grid, 3, 0.9, seed=5, kcut=3), field[..., 0])


def test_smooth_ic_rejects_negative_kcut():
    with pytest.raises(ValueError, match="kcut"):
        tensor.smooth_random_ic(TorusGrid(1, 8), (2, 1), 1.0, seed=0, kcut=-3)
