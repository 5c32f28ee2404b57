import math

import numpy as np
import pytest

from acsplit.grid import TorusGrid, forward_transform
from acsplit.matrix import (
    DISSIPATION_THRESHOLD,
    det_sign_field,
    g_potential_mat,
    modified_energy_mat,
    nonlinear_propagate_mat,
    polar_ic,
    projection_split_step,
    smooth_random_mat_ic,
    split_amplitude_mat_ic,
    standard_energy_mat,
    strang_evolve_mat,
    strang_step_mat,
    sup_frobenius,
    taylor_inequality_check,
    threshold_check,
)
from acsplit.vector import g_scalar, nonlinear_propagate_vec


def _rand_orth(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diagonal(r))


def _fro(a):
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# nonlinear propagator


def test_propagator_identity_at_zero_time():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nonlinear_propagate_mat(a, 0.0), a)


def test_propagator_fixes_orthogonal_matrices():
    rng = np.random.Generator(np.random.Philox(20))
    for m in (2, 3):
        q = _rand_orth(rng, m)
        for t in (0.1, 1.0, 10.0):
            assert np.max(np.abs(nonlinear_propagate_mat(q, t) - q)) <= 1e-14


def test_propagator_independent_of_svd_branch():
    # degenerate singular values: a multiple of an orthogonal matrix, where
    # the SVD factors are wildly non-unique but the product map is not
    rng = np.random.Generator(np.random.Philox(25))
    q = _rand_orth(rng, 3)
    a = 1.7 * q
    out = nonlinear_propagate_mat(a, 0.6)
    # closed form for sigma equal across the spectrum: same scalar on q
    f = math.exp(0.6) * 1.7 / math.sqrt(math.expm1(1.2) * 1.7**2 + 1.0)
    assert np.max(np.abs(out - f * q)) <= 1e-13


def test_propagator_rank_one_outer_product():
    # on a a^T the flow stays rank one: closed form
    # e^t (1 + (e^{2t}-1) |a|^4)^{-1/2} a a^T
    rng = np.random.Generator(np.random.Philox(26))
    t = 0.8
    for norm in (0.5, 1.0, 2.0):
        a = rng.standard_normal(3)
        a *= norm / np.linalg.norm(a)
        outer = np.outer(a, a)
        expected = math.exp(t) / math.sqrt(1.0 + math.expm1(2 * t) * norm**4) * outer
        got = nonlinear_propagate_mat(outer, t)
        assert np.max(np.abs(got - expected)) <= 1e-13
        # the outer product of the propagated vector is a DIFFERENT object
        # unless |a| = 1: the two flows agree only on the unit sphere
        v = nonlinear_propagate_vec(a, t)
        if norm == 1.0:
            assert np.max(np.abs(got - np.outer(v, v))) <= 1e-13
        else:
            assert np.max(np.abs(got - np.outer(v, v))) > 1e-3


def test_propagator_rejects_nonfinite():
    with pytest.raises(ValueError):
        nonlinear_propagate_mat(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)


# ---------------------------------------------------------------------------
# potential


def test_potential_zero_matrix():
    assert abs(float(g_potential_mat(np.zeros((2, 2)), 0.1))) <= 1e-15


def test_potential_orthogonal_value_and_small_tau_limit():
    rng = np.random.Generator(np.random.Philox(27))
    q = _rand_orth(rng, 2)
    for tau in (0.01, 0.5):
        assert float(g_potential_mat(q, tau)) == pytest.approx(
            2.0 * float(g_scalar(np.array(1.0), tau)), rel=1e-12
        )
    # g(1) + 1/4 vanishes even faster than the O(tau) envelope: lam = 1 is
    # the minimum, where the linear-in-tau term drops out and O(tau^2) remains
    d1 = abs(float(g_scalar(np.array(1.0), 1e-2)) + 0.25)
    d2 = abs(float(g_scalar(np.array(1.0), 1e-3)) + 0.25)
    assert 50.0 <= d1 / d2 <= 200.0


def test_potential_invariant_under_orthogonal_factors():
    rng = np.random.Generator(np.random.Philox(28))
    a = rng.standard_normal((50, 3, 3))
    q = _rand_orth(rng, 3)
    r = _rand_orth(rng, 3)
    assert np.max(np.abs(g_potential_mat(q @ a @ r, 0.3) - g_potential_mat(a, 0.3))) <= 1e-12


# ---------------------------------------------------------------------------
# threshold and Taylor inequality


def test_threshold_boundary_location():
    # solve m e^tau (e^{2 tau} - 1) = 0.43 for m = 2 by bisection
    m = 2
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if m * math.exp(mid) * math.expm1(2 * mid) <= DISSIPATION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    tau_star = lo
    assert 0.05 < tau_star < 0.15
    assert threshold_check(tau_star * 0.999, m).satisfied
    assert not threshold_check(tau_star * 1.001, m).satisfied
    assert threshold_check(tau_star * 0.999, m).margin > 0
    assert threshold_check(tau_star * 1.001, m).margin < 0


def test_threshold_rejected_for_large_tau_even_scalar():
    assert not threshold_check(10.0, 1).satisfied


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold_check(0.0, 2)
    with pytest.raises(ValueError):
        threshold_check(0.1, 0)


def test_taylor_inequality_precondition_errors():
    m = 2
    tau = 0.02
    u0 = np.eye(m) * 1.5  # Frobenius norm > sqrt(2)
    with pytest.raises(ValueError):
        taylor_inequality_check(u0, np.zeros((m, m)), tau)
    u0 = np.eye(m) * 0.5
    h = np.eye(m) * 2.0  # endpoint escapes the ball
    with pytest.raises(ValueError):
        taylor_inequality_check(u0, h, tau)
    with pytest.raises(ValueError):
        taylor_inequality_check(u0, np.zeros((m, m)), 1.0)  # tau out of range


# ---------------------------------------------------------------------------
# energies


def test_modified_energy_constant_orthogonal():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(31))
    q = _rand_orth(rng, 2)
    u = np.broadcast_to(q, grid.shape + (2, 2)).copy()
    tau = 0.01
    expected = grid.volume * (2.0 * float(g_scalar(np.array(1.0), tau)) + 0.5)
    assert modified_energy_mat(grid, u, tau) == pytest.approx(expected, rel=1e-12)


def test_standard_energy_values():
    grid = TorusGrid(2, 8)
    rng = np.random.Generator(np.random.Philox(32))
    q = _rand_orth(rng, 2)
    u = np.broadcast_to(q, grid.shape + (2, 2)).copy()
    assert abs(standard_energy_mat(grid, u)) <= 1e-13
    z = np.zeros(grid.shape + (2, 2))
    assert standard_energy_mat(grid, z) == pytest.approx(0.5 * grid.volume, rel=1e-13)


def test_evolve_matches_repeated_steps():
    grid = TorusGrid(2, 16)
    u0 = smooth_random_mat_ic(grid, 2, 1.0, seed=34)
    tau, steps = 0.05, 6
    fused = strang_evolve_mat(grid, u0, tau, steps)
    u = u0.copy()
    for _ in range(steps):
        u = strang_step_mat(grid, u, tau)
    assert np.max(np.abs(fused - u)) <= 1e-12


# ---------------------------------------------------------------------------
# projection baseline


def test_projection_fixes_constant_orthogonal():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(35))
    q = _rand_orth(rng, 2)
    u = np.broadcast_to(q, grid.shape + (2, 2)).copy()
    out = projection_split_step(grid, u, 0.3)
    assert np.max(np.abs(out - u)) <= 1e-13


def test_projection_bare_polar_at_zero_tau():
    grid = TorusGrid(2, 8)
    a = np.broadcast_to(np.diag([2.0, 0.5]), grid.shape + (2, 2)).copy()
    out = projection_split_step(grid, a, 0.0)
    assert np.max(np.abs(out - np.eye(2))) <= 1e-13


def test_projection_output_is_orthogonal():
    grid = TorusGrid(2, 16)
    u = polar_ic(grid, "star")
    out = projection_split_step(grid, u, 0.05)
    swap = tuple(range(out.ndim - 2)) + (out.ndim - 1, out.ndim - 2)
    gram = out.transpose(swap) @ out
    gram[..., range(2), range(2)] -= 1.0
    assert np.max(_fro(gram)) <= 1e-10


def test_projection_singular_node_reported():
    grid = TorusGrid(2, 8)
    u = np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy()
    u[3, 5] = 0.0
    with pytest.raises(ValueError, match=r"node \(3, 5\)"):
        projection_split_step(grid, u, 0.0)


# ---------------------------------------------------------------------------
# determinant sign and initial conditions


def test_det_sign_examples():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    field = np.stack([rot, refl])
    assert np.array_equal(det_sign_field(field), np.array([1.0, -1.0]))


def test_polar_ic_orthogonal_everywhere():
    grid = TorusGrid(2, 32)
    for variant in ("star", "stripe"):
        u = polar_ic(grid, variant)
        assert np.max(np.abs(_fro(u) - math.sqrt(2))) <= 1e-12
        swap = (0, 1, 3, 2)
        gram = u.transpose(swap) @ u
        gram[..., range(2), range(2)] -= 1.0
        assert np.max(_fro(gram)) <= 1e-12


def test_polar_ic_star_regions():
    grid = TorusGrid(2, 32)
    u = polar_ic(grid, "star")
    sign = det_sign_field(u)
    i0 = 16  # node at x = y = 0: inside the star, rotation branch
    assert sign[i0, i0] == 1.0
    assert np.max(np.abs(u[i0, i0] - np.eye(2))) <= 1e-14  # alpha(0,0) = 0
    assert sign[0, 0] == -1.0  # corner (-pi, -pi) lies outside: reflection


def test_polar_ic_stripe_regions():
    grid = TorusGrid(2, 32)
    u = polar_ic(grid, "stripe")
    sign = det_sign_field(u)
    assert sign[0, 16] == 1.0  # x = -pi, y = 0: |x| beyond the band, rotation
    assert sign[16, 16] == -1.0  # origin: reflection branch


def test_polar_ic_validation():
    with pytest.raises(ValueError):
        polar_ic(TorusGrid(1, 8), "star")
    with pytest.raises(ValueError):
        polar_ic(TorusGrid(2, 8), "blob")


def test_smooth_random_mat_ic_scaled_and_band_limited():
    grid = TorusGrid(2, 32)
    u = smooth_random_mat_ic(grid, 2, 1.2, seed=36, kcut=4)
    assert sup_frobenius(u) == pytest.approx(1.2, rel=1e-12)
    c = forward_transform(grid, u)
    mask = grid.wavenumbers_squared > 16.0
    assert np.max(np.abs(c[mask])) <= 1e-14


def test_split_amplitude_ic_structure():
    grid = TorusGrid(2, 8)
    u = split_amplitude_mat_ic(grid, 2, 0.5, 100.0, seed=37)
    assert np.array_equal(u, split_amplitude_mat_ic(grid, 2, 0.5, 100.0, seed=37))
    base = split_amplitude_mat_ic(grid, 2, 1.0, 1.0, seed=37)
    assert np.max(np.abs(u[:4] - 0.5 * base[:4])) <= 1e-14
    assert np.max(np.abs(u[4:] - 100.0 * base[4:])) <= 1e-12
