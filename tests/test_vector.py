import numpy as np
import pytest

from acsplit.grid import TorusGrid
from acsplit.vector import (
    g_gradient_vec,
    g_scalar,
    modified_energy_vec,
    nonlinear_propagate_vec,
    random_direction_ic,
    smooth_deterministic_ic,
    smooth_random_ic,
    standard_energy_vec,
    strang_evolve_vec,
    strang_step_vec,
    sup_magnitude,
)


def _g_scalar_raw(lam, tau):
    # unfactored textbook form, numerically fragile near lam = 0 but an
    # independent cross-check of the implemented expression
    e2m1 = np.expm1(2 * tau)
    return lam / (2 * tau) - np.exp(tau) / (tau * e2m1) * (np.sqrt(1 + e2m1 * lam) - 1)


# ---------------------------------------------------------------------------
# nonlinear propagator


def test_propagator_identity_at_zero_time():
    w = np.array([0.3, -1.2])
    assert np.array_equal(nonlinear_propagate_vec(w, 0.0), w)


def test_propagator_unit_sphere_invariant():
    rng = np.random.Generator(np.random.Philox(1))
    w = rng.standard_normal((100, 3))
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    for t in (0.1, 1.0, 10.0):
        assert np.max(np.abs(nonlinear_propagate_vec(w, t) - w)) <= 1e-13


def test_propagator_rejects_nonfinite():
    with pytest.raises(ValueError):
        nonlinear_propagate_vec(np.array([np.inf, 0.0]), 0.1)


# ---------------------------------------------------------------------------
# potential


def test_g_scalar_matches_unfactored_form():
    lam = np.array([0.0, 1e-8, 0.3, 1.0, 2.5, 1e6])
    # the raw form loses ~tau^-1 digits to cancellation, so the comparison
    # tolerance tracks the oracle's own conditioning, not the implementation's
    for tau, tol in ((1e-3, 1e-9), (0.1, 1e-12), (1.0, 1e-13)):
        a = g_scalar(lam, tau)
        b = _g_scalar_raw(lam, tau)
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= tol


def test_g_scalar_minimum_at_one():
    for tau in (0.01, 0.5, 2.0):
        g1 = g_scalar(np.array(1.0), tau)
        for lam in (0.5, 0.9, 1.1, 2.0):
            assert g_scalar(np.array(lam), tau) > g1


def test_g_scalar_approaches_quartic_well():
    # G(lam) + 1/4 -> (lam-1)^2/4 with O(tau) defect
    lam = np.array(0.49)  # |w| = 0.7
    target = 0.25 * (lam - 1.0) ** 2
    defects = [abs(g_scalar(lam, tau) + 0.25 - target) for tau in (1e-2, 1e-3, 1e-4)]
    assert 5.0 <= defects[0] / defects[1] <= 20.0
    assert 5.0 <= defects[1] / defects[2] <= 20.0


def test_gradient_vanishes_on_unit_sphere():
    # the potential's minimum sits at |w| = 1 for every tau, so the gradient
    # is zero there
    w = np.array([0.6, -0.8])
    for tau in (1e-3, 0.1, 1.0):
        assert np.max(np.abs(g_gradient_vec(w, tau))) <= 1e-13


# ---------------------------------------------------------------------------
# energies


def test_modified_energy_constant_field():
    grid = TorusGrid(2, 16)
    c = np.array([0.48, -0.64])  # |c| = 0.8
    u = np.broadcast_to(c, grid.shape + (2,)).copy()
    tau = 0.1
    expected = grid.volume * (float(_g_scalar_raw(np.array(0.64), tau)) + 0.25)
    assert modified_energy_vec(grid, u, tau) == pytest.approx(expected, rel=1e-12)


def test_modified_energy_zero_field_is_vacuum_constant():
    grid = TorusGrid(2, 16)
    u = np.zeros(grid.shape + (2,))
    assert modified_energy_vec(grid, u, 0.1) == pytest.approx(0.25 * grid.volume, rel=1e-13)


def test_standard_energy_values():
    g1 = TorusGrid(1, 32)
    x = g1.nodes
    u = np.stack([np.cos(x), np.sin(x)], axis=-1)  # |u| = 1, pure gradient
    assert standard_energy_vec(g1, u) == pytest.approx(np.pi, rel=1e-12)
    g2 = TorusGrid(2, 8)
    assert standard_energy_vec(g2, np.zeros(g2.shape + (2,))) == pytest.approx(
        0.25 * g2.volume, rel=1e-13
    )
    c = np.array([0.6, 0.8])
    u = np.broadcast_to(c, g2.shape + (2,)).copy()
    assert abs(standard_energy_vec(g2, u)) <= 1e-13


# ---------------------------------------------------------------------------
# stepping


def test_step_constant_unit_field_fixed():
    grid = TorusGrid(2, 16)
    c = np.array([0.6, 0.8])
    u = np.broadcast_to(c, grid.shape + (2,)).copy()
    out = strang_step_vec(grid, u, 0.5)
    assert np.max(np.abs(out - u)) <= 1e-14


def test_evolve_matches_repeated_steps():
    grid = TorusGrid(2, 16)
    u0 = smooth_random_ic(grid, 2, 1.5, seed=11)
    tau, steps = 0.05, 7
    fused = strang_evolve_vec(grid, u0, tau, steps)
    u = u0.copy()
    for _ in range(steps):
        u = strang_step_vec(grid, u, tau)
    assert np.max(np.abs(fused - u)) <= 1e-12


def test_evolve_zero_steps_is_copy():
    grid = TorusGrid(1, 8)
    u0 = smooth_random_ic(grid, 2, 1.0, seed=12)
    out = strang_evolve_vec(grid, u0, 0.1, 0)
    assert np.array_equal(out, u0)
    assert out is not u0


# ---------------------------------------------------------------------------
# initial conditions


def test_random_direction_ic_properties():
    grid = TorusGrid(2, 16)
    u = random_direction_ic(grid, 3, 0.8, seed=13)
    mags = np.linalg.norm(u, axis=-1)
    assert np.max(np.abs(mags - 0.8)) <= 1e-12
    again = random_direction_ic(grid, 3, 0.8, seed=13)
    assert np.array_equal(u, again)
    other = random_direction_ic(grid, 3, 0.8, seed=14)
    assert not np.array_equal(u, other)


def test_smooth_random_ic_band_limited_and_scaled():
    from acsplit.grid import forward_transform

    grid = TorusGrid(2, 32)
    u = smooth_random_ic(grid, 2, 0.8, seed=15, kcut=4)
    assert sup_magnitude(u) == pytest.approx(0.8, rel=1e-12)
    c = forward_transform(grid, u)
    mask = grid.wavenumbers_squared > 16.0
    assert np.max(np.abs(c[mask])) <= 1e-14


def test_smooth_deterministic_ic_structure():
    grid = TorusGrid(2, 16)
    u = smooth_deterministic_ic(grid, 2, 0.8)
    x, y = grid.meshes()
    expected0 = np.cos(x) * np.sin(y)
    expected1 = np.sin(x) * np.cos(y)
    scale = 0.8 / sup_magnitude(np.stack([expected0, expected1], axis=-1))
    assert np.max(np.abs(u[..., 0] - scale * expected0)) <= 1e-13
    assert np.max(np.abs(u[..., 1] - scale * expected1)) <= 1e-13
    assert sup_magnitude(u) == pytest.approx(0.8, rel=1e-12)
