import inspect
import math
import os
import re
import warnings

import numpy as np
import pytest

from acsplit import grid as spectral
from acsplit import matrix, tensor, vector
from acsplit.grid import TorusGrid
from acsplit.harness import ConfigError, RunConfig, convergence_study, run_experiment, write_snapshot
from acsplit.oracle import OracleConfig, integrate_matrix_ode, integrate_vector_ode

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
# the closed-form 2 x 2 kernel at its corners

# A 2 x 2 matrix has equal singular values exactly when it is a scaled
# rotation (R = 0) or a scaled reflection (Q = 0).
CORNERS = ["scaled-rotation", "scaled-reflection", "rank-1", "zero"]


def _corner_inputs(kind, count=50):
    """2 x 2 matrices A and lam = sigma_1(A)^2, for which S_N(t) A = f(lam) A
    exactly, since A^T A is lam I or has rank 1."""
    rng = np.random.Generator(np.random.Philox(60 + CORNERS.index(kind)))
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    c, s = np.cos(theta), np.sin(theta)
    scale = rng.uniform(0.0, 3.0, count)
    if kind == "scaled-rotation":
        a = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    elif kind == "scaled-reflection":
        a = np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2)
    elif kind == "rank-1":  # eighths of small integers: det A is exactly 0
        x, y = rng.integers(-8, 9, (2, count, 2)) / 8.0
        return x[:, :, None] * y[:, None, :], np.sum(x * x, -1) * np.sum(y * y, -1)
    else:
        scale = np.zeros(count)
        a = np.zeros((count, 2, 2))
    return scale[:, None, None] * a, scale * scale


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "single"])
@pytest.mark.parametrize("t", [0.01, 1.0, 10.0, 1000.0])
@pytest.mark.parametrize("kind", CORNERS)
def test_closed_form_2x2_kernel_at_its_corners(kind, t, batched):
    a, lam = _corner_inputs(kind)
    if not batched:
        a, lam = a[7], lam[7]

    def flow_factor(x):
        return tensor._flow_factor(x, t)

    slack = 0.0
    if kind == "rank-1":
        # sigma_2 of the SVD and of A V is round-off of about eps sigma_1,
        # which the flow's slope e^t at 0 magnifies (see
        # test_kernels_match_svd_reference); at t = 1000 it maps to O(1), and
        # only the exact reference applies
        slack = 16 * EPS * math.exp(t) * np.sqrt(lam) if t <= 10 else np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tensor.nonlinear_propagate(a, t).reshape(-1, 2, 2)
        pot = np.reshape(tensor.potential(a, t), (-1, 1))
    exact = flow_factor(lam)[..., None, None] * a
    assert _worst_excess(got, exact.reshape(-1, 2, 2)) <= 0
    svd_ref = _svd_map(a, lambda s: s * flow_factor(s * s))
    for ref in (svd_ref, tensor._gram_function(a, flow_factor)):
        assert _worst_excess(got, ref.reshape(-1, 2, 2), slack) <= 0
    g_ref = (1 if kind == "rank-1" else 2) * tensor.g_scalar(lam, t)
    assert _worst_excess(pot, np.reshape(g_ref, (-1, 1))) <= 0


def test_2x2_runs_need_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 2 x 2 field went through numpy.linalg")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    trace = run_experiment(RunConfig(model="matrix", d=2, n=16, m=2, tau=0.01, steps=3))
    assert len(trace.rows) == 4 and trace.dissipation_all_ok
    u = matrix.polar_ic(TorusGrid(2, 8), "stripe")
    assert np.all(np.isfinite(matrix.g_trace_derivative(0.5 * u, u, 0.01)))


# ---------------------------------------------------------------------------
# the 2 x 2 kernel at the ends of the float64 range, where the squares in
# Q = sqrt(e^2 + h^2) and R = sqrt(f^2 + g^2) underflow or come near overflow

EXTREMES = ["tiny-1e-300", "tiny-1e-160", "conformal-1e-160", "anticonformal-1e-160", "near-bound"]


def _from_parts(e, h, f, g):
    """2 x 2 matrices [[e, -h], [h, e]] + [[f, g], [g, -f]]."""
    return np.stack([np.stack([e + f, g - h], -1), np.stack([g + h, e - f], -1)], -2)


def _extreme_inputs(kind, count=40):
    rng = np.random.Generator(np.random.Philox(70 + EXTREMES.index(kind)))
    if kind.startswith("tiny"):
        return rng.standard_normal((count, 2, 2)) * float(kind[5:])
    x, y = rng.standard_normal((2, count))
    zero = np.zeros(count)
    # one part of order 1 and the other of order 1e-160, each entry holding
    # only one of them, so that rounding loses neither
    if kind == "conformal-1e-160":
        return np.concatenate([_from_parts(zero, 1e-160 * x, y, zero),
                               _from_parts(1e-160 * x, zero, zero, y)])
    if kind == "anticonformal-1e-160":
        return np.concatenate([_from_parts(y, zero, zero, 1e-160 * x),
                               _from_parts(zero, y, 1e-160 * x, zero)])
    # 0.99 of the refusal bound sqrt(max / 8): random draws, a scaled rotation
    # and a scaled reflection with every entry that large
    a = rng.standard_normal((count, 2, 2))
    a /= np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    a = np.concatenate([a, [[[1.0, -1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, -1.0]]]])
    return 0.99 * math.sqrt(np.finfo(np.float64).max / 8) * a


# t >= 1: at smaller t the potential's lam / t term overflows near the bound
@pytest.mark.parametrize("t", [1.0, 10.0])
@pytest.mark.parametrize("kind", EXTREMES)
def test_2x2_kernel_at_the_ends_of_the_float_range(kind, t):
    a = _extreme_inputs(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, pot = tensor.nonlinear_propagate(a, t), tensor.potential(a, t)
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(pot))
    # sigma(A) = c sigma(A / c), c the largest entry: no under- or overflow
    c = np.max(np.abs(a), axis=(-2, -1))
    u, s, vt = np.linalg.svd(a / c[:, None, None])
    s *= c[:, None]
    if kind.startswith("tiny"):  # S_N(t) A = e^t A (1 + O(sigma^2)), and sigma^2 < 1e-300
        ref = math.exp(t) * a
    else:
        ref = (u * (s * tensor._flow_factor(s * s, t))[:, None, :]) @ vt
    err = np.max(np.abs(got - ref), axis=(-2, -1))
    assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=(-2, -1)))
    pot_ref = np.sum(tensor.g_scalar(s * s, t), axis=-1)
    assert _worst_excess(pot[:, None], pot_ref[:, None]) <= 0


def test_unbatched_inputs_run_as_a_batch_of_one():
    # the 2 x 2 kernels and g_scalar are in-place ufunc chains, and out= needs
    # arrays where 0-d operands give scalars: one matrix, or one lam, runs as a
    # batch of one and comes back with the type and bits it has in the batch
    for a in ([[1.0, 2.0], [0.5, -1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [0.5, 1.0]]):
        a = np.array(a)
        for fn in (tensor.nonlinear_propagate, tensor.potential):
            one, batch = fn(a, 0.1), fn(a[None], 0.1)[0]
            assert type(one) is type(batch) and one.tobytes() == batch.tobytes()
    assert not np.signbit(tensor.potential(np.zeros((2, 2)), 0.1))  # 0.0, not G(0) + G(0) = -0.0
    for lam in (0.0, 2.5, np.float64(2.5), np.array(2.5)):
        g = tensor.g_scalar(lam, 1000.0)
        assert isinstance(g, np.float64) and g.tobytes() == tensor.g_scalar([lam], 1000.0)[0].tobytes()
    assert tensor.g_scalar(0.0, 1000.0) == 0.0


# ---------------------------------------------------------------------------
# the standard potential (1/4)||A^T A - I||_F^2 = (1/4) sum_i (sigma_i^2 - 1)^2


@pytest.mark.parametrize("kind", ["random", "near-orthogonal", "rank-deficient"])
@pytest.mark.parametrize("m,q", [(3, 1), (2, 2), (3, 3)])
def test_standard_potential_is_the_singular_value_sum(monkeypatch, m, q, kind):
    monkeypatch.setattr("acsplit.grid.dirichlet_energy", lambda grid, spectrum: 0.0)
    grid = TorusGrid(2, 8)
    shape = grid.shape + (m, q)
    rng = np.random.Generator(np.random.Philox(90 + 10 * m + q))
    if kind == "random":
        u = rng.standard_normal(shape) * 1.5
    elif kind == "rank-deficient":  # rank q - 1: the zero field for q = 1
        x = rng.standard_normal(grid.shape + (m, q - 1))
        u = x @ np.swapaxes(rng.standard_normal(grid.shape + (q, q - 1)), -1, -2)
    else:  # orthonormal columns (the star's data for 2 x 2), moved by 1e-3
        base = matrix.polar_ic(grid, "star") if m == q == 2 else np.linalg.qr(rng.standard_normal(shape))[0]
        u = base + 1e-3 * rng.standard_normal(shape)
    s = np.linalg.svd(u, compute_uv=False)
    expected = 0.25 * grid.cell_volume * np.sum((s * s - 1.0) ** 2)
    assert tensor.standard_energy(grid, u) == pytest.approx(expected, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the kernel against the RK4 oracle


def test_kernel_matches_rk4_oracle_on_random_shapes():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # 2000 substeps per unit time keep RK4's own error below 1e-13 here
    oracle = OracleConfig(substeps_per_unit_time=2000)

    @st.composite
    def cases(draw):
        # a batch of 8 normal directions of shape (m, q), scaled to one norm
        m = draw(st.integers(1, 4))
        q = draw(st.sampled_from(sorted({1, m})))
        rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
        a = rng.standard_normal((8, m, q))
        a *= draw(st.floats(0.0, 3.0)) / np.sqrt(np.sum(a * a, axis=(-2, -1), keepdims=True))
        return a, draw(st.floats(0.0, 2.0))

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        a, t = case
        err = np.max(np.abs(tensor.nonlinear_propagate(a, t) - integrate_matrix_ode(a, t, oracle)))
        assert err <= 1e-8, (a.shape, t, err)

    check()


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
    step = tensor.strang_step(grid, col, tau, tensor.nonlinear_propagate)
    assert np.array_equal(vector.strang_step_vec(grid, u, tau), step[..., 0])
    evolved = tensor.strang_evolve(grid, col, tau, 3, tensor.nonlinear_propagate)
    assert np.array_equal(vector.strang_evolve_vec(grid, u, tau, 3), evolved[..., 0])
    field = tensor.smooth_random_ic(grid, (3, 1), 0.9, seed=5, kcut=3)
    assert np.array_equal(vector.smooth_random_ic(grid, 3, 0.9, seed=5, kcut=3), field[..., 0])


def test_smooth_ic_rejects_negative_kcut():
    with pytest.raises(ValueError, match="kcut"):
        tensor.smooth_random_ic(TorusGrid(1, 8), (2, 1), 1.0, seed=0, kcut=-3)


# ---------------------------------------------------------------------------
# large t: the overflow-free forms


@pytest.mark.parametrize("tau", np.logspace(-4, 1, 21))
def test_overflow_free_forms_match_the_direct_ones(tau):
    # the direct forms e^t / sqrt(expm1(2t) lam + 1) and e^tau / (1 + root),
    # which overflow beyond tau ~ 354, against the forms the kernel uses
    lam = np.concatenate([[0.0], np.logspace(-12, 5, 400)])
    factor = math.exp(tau) / np.sqrt(math.expm1(2 * tau) * lam + 1.0)
    assert np.all(np.abs(tensor._flow_factor(lam, tau) - factor) <= 8 * EPS * factor)
    x = math.exp(tau) / (1.0 + np.sqrt(1.0 + math.expm1(2 * tau) * lam))
    direct = (lam / tau) * (0.5 - x)
    assert np.all(np.abs(tensor.g_scalar(lam, tau) - direct) <= 8 * EPS * (lam / tau) * np.maximum(x, 0.5))


def test_flow_at_large_t_is_the_polar_factor():
    import warnings

    rng = np.random.Generator(np.random.Philox(7))
    a = rng.standard_normal((3, 3))
    u, _, vt = np.linalg.svd(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.max(np.abs(tensor.nonlinear_propagate(a, 500.0) - u @ vt)) <= 1e-12
        # a zero column stays zero, G(0) stays 0, and nothing is inf or nan
        assert np.array_equal(tensor.nonlinear_propagate(np.zeros((4, 2, 2)), 500.0), np.zeros((4, 2, 2)))
        w = np.array([[0.0, 0.0], [3e-3, -4e-3]])[..., None]
        out = tensor.nonlinear_propagate(w, 1000.0)[..., 0]
        assert np.array_equal(out[0], [0.0, 0.0]) and np.allclose(out[1], [0.6, -0.8], rtol=1e-15)
        assert tensor.g_scalar(0.0, 1000.0) == 0.0 and np.isfinite(tensor.g_scalar(2.0, 1000.0))
        assert np.all(np.isfinite(tensor.gradient(a, 1000.0)))


@pytest.mark.parametrize("a", [np.diag([1e160, 1e-160]), [[3e160, 1e159], [2e159, 4e160]],
                               np.diag([1e160, 1.0, 1e-160]), [[1e160], [0.0]]],
                         ids=["2x2-diagonal", "2x2-full", "3x3-diagonal", "column"])
def test_kernels_refuse_entries_whose_squares_overflow(a):
    # beyond the bound a squared singular value or a Gram entry overflows, and
    # the flow sent the 1e160 singular value to 0 (not about 7.106) or gave NaN
    a = np.asarray(a)
    m, q = a.shape
    bound = math.sqrt(np.finfo(np.float64).max / (2 * m * q))
    for fn in (tensor.nonlinear_propagate, tensor.potential):
        with pytest.raises(ValueError, match=re.escape(f"{bound:.4g}")):
            fn(a, 0.01)
        with pytest.raises(ValueError, match=re.escape(f"{bound:.4g}")):
            fn(-a, 0.01)
    # just inside it the entrywise kernels give the limit of S_N on a rank-1
    # matrix, e^t A / sqrt(expm1(2t) ||A||_F^2), and the potential is never NaN
    if m == 2:
        b = np.full((m, q), (1.0 - 1e-12) * bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tensor.nonlinear_propagate(b, 0.01)
        limit = 1.0 / math.sqrt(-math.expm1(-0.02) * m * q)
        assert np.allclose(out, limit, rtol=1e-12, atol=0.0)
        with np.errstate(over="ignore"):
            assert not np.isnan(tensor.potential(b, 0.01))


# ---------------------------------------------------------------------------
# times: every function of a time or a step refuses NaN and infinities by name,
# with grid._check_time's one rule: a time is finite and >= 0, a step finite
# and > 0 with a finite 1/tau


def _star(grid):
    return matrix.polar_ic(grid, "star")


_STUDY = RunConfig(model="vector", d=1, n=8, m=2, ic="smooth")

# name: (kind, call) for each public function with a tau, t or t_final
# parameter, and the tensor functions behind them; name:parameter where a
# function has two
TIMED = {
    "heat_propagate": ("time", lambda grid, u, t: spectral.heat_propagate(grid, u, t)),
    "dissipation_quadratic": ("step", lambda grid, u, t: spectral.dissipation_quadratic(
        grid, spectral.half_spectrum(grid, u), t)),
    "g_scalar": ("step", lambda grid, u, t: tensor.g_scalar(u, t)),
    "nonlinear_propagate": ("time", lambda grid, u, t: tensor.nonlinear_propagate(u, t)),
    "strang_step": ("step", lambda grid, u, t: tensor.strang_step(
        grid, u, t, tensor.nonlinear_propagate)),
    "strang_evolve": ("step", lambda grid, u, t: tensor.strang_evolve(
        grid, u, t, 2, tensor.nonlinear_propagate)),
    "strang_evolve_vec": ("step", lambda grid, u, t: vector.strang_evolve_vec(grid, u[..., 0], t, 2)),
    "gradient": ("step", lambda grid, u, t: tensor.gradient(u, t)),
    "modified_energy": ("step", lambda grid, u, t: tensor.modified_energy(grid, u, t, tensor.potential)),
    "nonlinear_propagate_vec": ("time", lambda grid, u, t: vector.nonlinear_propagate_vec(u[..., 0], t)),
    "nonlinear_propagate_mat": ("time", lambda grid, u, t: matrix.nonlinear_propagate_mat(_star(grid), t)),
    "integrate_vector_ode": ("time", lambda grid, u, t: integrate_vector_ode(u[..., 0], t)),
    "integrate_matrix_ode": ("time", lambda grid, u, t: integrate_matrix_ode(_star(grid), t)),
    "projection_split_step": ("time", lambda grid, u, t: matrix.projection_split_step(
        grid, _star(grid), t)),
    "convergence_study": ("time", lambda grid, u, t: convergence_study(_STUDY, [0.1, 0.05], t)),
    "convergence_study:tau_ladder": ("step", lambda grid, u, t: convergence_study(
        _STUDY, [t, t / 2], 0.4)),
    "strang_step_vec": ("step", lambda grid, u, t: vector.strang_step_vec(grid, u[..., 0], t)),
    "strang_step_mat": ("step", lambda grid, u, t: matrix.strang_step_mat(grid, _star(grid), t)),
    "strang_evolve_mat": ("step", lambda grid, u, t: matrix.strang_evolve_mat(grid, _star(grid), t, 2)),
    "g_potential_vec": ("step", lambda grid, u, t: vector.g_potential_vec(u[..., 0], t)),
    "g_potential_mat": ("step", lambda grid, u, t: matrix.g_potential_mat(_star(grid), t)),
    "g_gradient_vec": ("step", lambda grid, u, t: vector.g_gradient_vec(u[..., 0], t)),
    "g_trace_derivative": ("step", lambda grid, u, t: matrix.g_trace_derivative(
        _star(grid), _star(grid), t)),
    "modified_energy_vec": ("step", lambda grid, u, t: vector.modified_energy_vec(grid, u[..., 0], t)),
    "modified_energy_mat": ("step", lambda grid, u, t: matrix.modified_energy_mat(grid, _star(grid), t)),
    "concavity_inequality_check_vec": ("step", lambda grid, u, t: vector.concavity_inequality_check_vec(
        u[..., 0], u[..., 0], t)),
    "taylor_inequality_check": ("step", lambda grid, u, t: matrix.taylor_inequality_check(
        _star(grid), 0.0 * _star(grid), t)),
    "threshold_check": ("step", lambda grid, u, t: matrix.threshold_check(t, 2)),
    "RunConfig": ("step", lambda grid, u, t: RunConfig(model="vector", tau=t)),
    "write_snapshot": ("step", lambda grid, u, t: write_snapshot(
        os.devnull, u[..., 0], model="vector", grid=grid, m=2, tau=t, step=0)),
}
_RULE = {"time": ">= 0", "step": "> 0 with a finite 1/tau"}
_NAMES = "tau|t|t_final|heat propagation time|tau_ladder entry"


def test_every_public_function_of_a_time_is_in_the_table():
    import acsplit

    functions = {name: obj for name in acsplit.__all__ if callable(obj := getattr(acsplit, name))
                 and not (isinstance(obj, type) and issubclass(obj, Exception))}
    timed = {name for name, obj in functions.items()
             if {"tau", "t", "t_final"} & inspect.signature(obj).parameters.keys()}
    # a report holds the times convergence_study judged and judges none itself
    assert timed - {"ConvergenceReport"} <= {key.split(":")[0] for key in TIMED}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(TIMED))
def test_nonfinite_times_are_refused_by_name(name, t):
    grid = TorusGrid(2, 8)
    u = tensor.smooth_random_ic(grid, (2, 1), 0.8, seed=3)
    kind, call = TIMED[name]
    with pytest.raises(ValueError, match=rf"^({_NAMES}) must be finite and {_RULE[kind]}, got {t}$"):
        call(grid, u, t)


@pytest.mark.parametrize("t", [5e-324, np.float64(5e-324)], ids=["float", "float64"])
@pytest.mark.parametrize("name", sorted(TIMED))
def test_the_least_subnormal_is_a_time_but_not_a_step(name, t):
    # 1/5e-324 is inf, and the modified energy divides by the step; an
    # np.float64's reciprocal would warn of the overflow
    grid = TorusGrid(2, 8)
    u = tensor.smooth_random_ic(grid, (2, 1), 0.8, seed=3)
    kind, call = TIMED[name]
    if kind == "step":
        with pytest.raises(ValueError, match=rf"^({_NAMES}) must be finite and {_RULE[kind]}, got 5e-324$"):
            call(grid, u, t)
    elif name == "convergence_study":  # admitted as a time, but no ladder step divides it
        with pytest.raises(ConfigError, match=r"^t_final = 5e-324 is not an integer multiple of tau = 0.1$"):
            call(grid, u, t)
    else:
        assert np.all(np.isfinite(call(grid, u, t)))


# ---------------------------------------------------------------------------
# the stepping pipeline's records


def test_pipeline_records_hold_field_spectrum_and_half_heat_state():
    from acsplit.grid import heat_propagate

    grid = TorusGrid(2, 16)
    u = tensor.smooth_random_ic(grid, (2, 1), 0.8, seed=10)
    tau = 0.2
    states = tensor._strang_states(grid, u, tau, tensor.nonlinear_propagate)
    for n in range(3):
        record = next(states)
        field = record.field
        assert field.shape == u.shape
        assert np.max(np.abs(record.u_tilde - heat_propagate(grid, field, 0.5 * tau))) <= 1e-14
        assert np.max(np.abs(record.spectrum - np.fft.rfftn(field, axes=(0, 1)))) <= 1e-12
        assert np.array_equal(field, tensor.strang_evolve(grid, u, tau, n, tensor.nonlinear_propagate))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_record_pair_is_the_two_public_forms(d):
    # the record's one pass gives what dirichlet_energy and dissipation_quadratic
    # give on the same spectrum, in that order
    grid, tau = TorusGrid(d, 8), 0.3
    record = tensor.StepRecord(grid, tau, field=tensor.smooth_random_ic(grid, (2, 2), 1.0, seed=d))
    dirichlet, dissipation = record.quadratic_forms
    assert dirichlet == pytest.approx(spectral.dirichlet_energy(grid, record.spectrum), rel=1e-13, abs=0.0)
    assert dissipation == pytest.approx(
        spectral.dissipation_quadratic(grid, record.spectrum, tau), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# memory order: the pipeline's arrays keep their component axes slowest

LAYOUT_SHAPES = [(3,), (3, 1), (2, 2), (3, 3)]
# each shape on a 16^2 and an 8^3 grid
LAYOUT_CASES = [pytest.param(TorusGrid(d, n), shape, id=str(shape) if d == 2 else f"d3-{shape}")
                for d, n in ((2, 16), (3, 8)) for shape in LAYOUT_SHAPES]


def _flow_for(shape):
    return vector.nonlinear_propagate_vec if len(shape) == 1 else tensor.nonlinear_propagate


def _components_slowest(a, d):
    """Every component axis longer than 1 has a larger stride than every spatial axis."""
    return all(s > max(a.strides[:d]) for s, size in zip(a.strides[d:], a.shape[d:]) if size > 1)


@pytest.mark.parametrize("grid, shape", LAYOUT_CASES)
def test_pipeline_keeps_component_axes_slowest(grid, shape):
    tau = 0.05
    u = np.ascontiguousarray(tensor.smooth_random_ic(grid, shape, 0.8, seed=11))
    assert not _components_slowest(u, grid.d)  # C order: components fastest
    states = tensor._strang_states(grid, u, tau, _flow_for(shape))
    first = next(states)
    assert first.field is u  # the caller's field, not a copy
    assert _components_slowest(first.spectrum, grid.d) and _components_slowest(first.u_tilde, grid.d)
    record = next(states)
    for a in (record.spectrum, record.u_tilde, record.field):
        assert _components_slowest(a, grid.d)
    # the flow keeps the order (at t = 0 too, where it copies), and gives on the
    # strided view what it gives on a C-ordered copy
    w, flow = record.u_tilde, _flow_for(shape)
    assert _components_slowest(flow(w, tau), grid.d) and _components_slowest(flow(w, 0.0), grid.d)
    assert np.array_equal(flow(w, tau), flow(np.ascontiguousarray(w), tau))


@pytest.mark.parametrize("order", ["C", "F", "sliced"])
@pytest.mark.parametrize("grid, shape", LAYOUT_CASES)
def test_evolve_matches_iterated_steps_in_any_memory_order(grid, shape, order):
    tau, flow = 0.05, _flow_for(shape)
    fine = tensor.smooth_random_ic(TorusGrid(grid.d, 2 * grid.n), shape, 0.9, seed=12)
    coarse = fine[(slice(None, None, 2),) * grid.d]
    u = {"C": np.ascontiguousarray, "F": np.asfortranarray, "sliced": lambda a: a}[order](coarse)
    want = u
    for _ in range(4):
        want = tensor.strang_step(grid, want, tau, flow)
    assert np.max(np.abs(tensor.strang_evolve(grid, u, tau, 4, flow) - want)) <= 1e-13


@pytest.mark.parametrize("shape", LAYOUT_SHAPES, ids=str)
def test_flow_and_potential_of_a_record_are_those_of_its_u_tilde(shape):
    # bitwise, whether u~'s Gram was made by the potential (as a monitored step
    # makes it) or is made by the flow (as a bare step does), and at t = 0
    grid, tau = TorusGrid(2, 16), 0.05
    flow, potential = ((vector.nonlinear_propagate_vec, vector.g_potential_vec) if len(shape) == 1
                       else (tensor.nonlinear_propagate, tensor.potential))
    u = tensor.smooth_random_ic(grid, shape, 0.9, seed=13)
    for monitored in (False, True):
        record = tensor.StepRecord(grid, tau, field=u)
        w = record.u_tilde
        if monitored:
            assert np.array_equal(potential(record, tau), potential(w, tau))
        assert np.array_equal(flow(record, tau), flow(w, tau))
        assert np.array_equal(flow(record, 0.0), flow(w, 0.0))
        assert np.array_equal(flow(record, tau), flow(w, tau))  # its Gram made again


@pytest.mark.parametrize("shape", LAYOUT_SHAPES, ids=str)
def test_sup_norm_of_a_record_is_that_of_its_field(shape):
    grid = TorusGrid(2, 16)
    sup = vector.sup_magnitude if len(shape) == 1 else tensor.sup_norm
    u = tensor.smooth_random_ic(grid, shape, 0.9, seed=14)
    record = tensor.StepRecord(grid, 0.05, field=u)
    # a record's sup norm sums each Gram diagonal, a field's adds its squares
    # plane by plane: the same for one column, within 1 ulp for matrices
    if len(shape) == 1 or shape[-1] == 1:
        assert sup(record) == sup(record.field)
    else:
        assert abs(sup(record) - sup(record.field)) <= np.spacing(sup(record.field))
    squares = np.sum(u.reshape(grid.shape + (-1,)) ** 2, axis=-1)
    assert sup(record) == pytest.approx(math.sqrt(np.max(squares)), rel=4 * EPS, abs=0.0)
    # the standard energy consumes the Gram the sup norm made, and gives what it
    # gives on a record of its own
    assert tensor.standard_energy(grid, record) == tensor.standard_energy(grid, u)
    assert "gram" not in vars(record)


def test_bare_evolve_peak_memory_in_field_sizes(peak_field_sizes):
    # the bare pipeline never copies the caller's field: on a warm 64^2 x 2
    # grid it peaks at 3.80 field sizes (spectra, u~, flow temporaries); a
    # copy of the field per run reads about 4.39
    grid = TorusGrid(2, 64)
    u = vector.smooth_random_ic(grid, 2, 0.9, seed=1)
    peak = peak_field_sizes(lambda: vector.strang_evolve_vec(grid, u, 0.01, 5), u.nbytes)
    assert peak <= 1.01 * 3.803, peak
