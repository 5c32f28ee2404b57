import numpy as np
import pytest

from acsplit.oracle import OracleConfig, integrate_matrix_ode, integrate_vector_ode


def test_config_validation():
    OracleConfig(substeps_per_unit_time=100)
    with pytest.raises(ValueError):
        OracleConfig(substeps_per_unit_time=0)


def test_substep_count_scales_with_time():
    cfg = OracleConfig(substeps_per_unit_time=1000)
    assert cfg.substeps(1.0) == 1000
    assert cfg.substeps(0.25) == 250
    assert cfg.substeps(1e-9) == 1  # never zero


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        integrate_vector_ode(np.ones(3), -0.1)
    with pytest.raises(ValueError):
        integrate_matrix_ode(np.eye(2), -0.1)


def test_zero_time_is_copy():
    a = np.ones(3)
    out = integrate_vector_ode(a, 0.0)
    assert np.array_equal(out, a)
    assert out is not a


def test_zero_time_copy_keeps_the_memory_order():
    # a components-slowest field, as the pipeline lays it out, stays so
    a = np.moveaxis(np.arange(32.0).reshape(2, 2, 8), (0, 1), (1, 2))
    out = integrate_matrix_ode(a, 0.0)
    assert np.array_equal(out, a) and out.strides == a.strides


def test_vector_fixed_points():
    # 0 and any unit vector are equilibria of w' = (1 - |w|^2) w
    z = integrate_vector_ode(np.zeros(3), 2.0)
    assert np.max(np.abs(z)) <= 1e-14
    w = np.array([0.6, 0.8, 0.0])
    out = integrate_vector_ode(w, 2.0)
    assert np.max(np.abs(out - w)) <= 1e-10


def test_matrix_fixed_points():
    q = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation: U = U U^T U
    out = integrate_matrix_ode(q, 1.5)
    assert np.max(np.abs(out - q)) <= 1e-10
    z = integrate_matrix_ode(np.zeros((2, 2)), 1.5)
    assert np.max(np.abs(z)) <= 1e-14


def test_vector_norm_evolution():
    # |w(t)|^2 solves the scalar logistic equation; closed form is known
    w0 = np.array([1.5, 0.0])
    t = 0.8
    out = integrate_vector_ode(w0, t)
    n0 = np.sum(w0**2)
    expected = np.exp(2 * t) * n0 / (np.expm1(2 * t) * n0 + 1.0)
    assert np.sum(out**2) == pytest.approx(expected, rel=1e-10)


def test_rk4_order_by_substep_halving():
    # defect against a much finer reference shrinks ~16x per halving of h,
    # once h is small enough for the leading error term to dominate
    rng = np.random.Generator(np.random.Philox(11))
    w = rng.standard_normal((50, 3)) * 0.7
    t = 1.0
    ref = integrate_vector_ode(w, t, OracleConfig(substeps_per_unit_time=4096))
    e1 = np.sqrt(np.mean((integrate_vector_ode(w, t, OracleConfig(substeps_per_unit_time=64)) - ref) ** 2))
    e2 = np.sqrt(np.mean((integrate_vector_ode(w, t, OracleConfig(substeps_per_unit_time=128)) - ref) ** 2))
    assert 16 * 0.7 <= e1 / e2 <= 16 * 1.3


def test_matrix_rk4_order_by_substep_halving():
    rng = np.random.Generator(np.random.Philox(12))
    a = rng.standard_normal((30, 2, 2)) * 0.7
    t = 1.0
    ref = integrate_matrix_ode(a, t, OracleConfig(substeps_per_unit_time=4096))
    e1 = np.sqrt(np.mean((integrate_matrix_ode(a, t, OracleConfig(substeps_per_unit_time=64)) - ref) ** 2))
    e2 = np.sqrt(np.mean((integrate_matrix_ode(a, t, OracleConfig(substeps_per_unit_time=128)) - ref) ** 2))
    assert 16 * 0.7 <= e1 / e2 <= 16 * 1.3


def test_matrix_frobenius_ball_preserved():
    rng = np.random.Generator(np.random.Philox(13))
    m = 3
    a = rng.standard_normal((500, m, m))
    norms = np.sqrt(np.sum(a * a, axis=(-2, -1), keepdims=True))
    a *= np.sqrt(m) * rng.random((500, 1, 1)) / norms
    out = integrate_matrix_ode(a, 1.0)
    out_norms = np.sqrt(np.sum(out * out, axis=(-2, -1)))
    assert np.max(out_norms) <= np.sqrt(m) + 1e-8
