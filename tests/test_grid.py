import numpy as np
import pytest

from acsplit.grid import (
    TorusGrid,
    _components_slowest,
    dirichlet_energy,
    dissipation_quadratic,
    forward_transform,
    half_inverse,
    half_spectrum,
    heat_propagate,
    inverse_transform,
)
from acsplit.tensor import StepRecord


def test_grid_validation():
    TorusGrid(1, 4)
    TorusGrid(3, 8)
    with pytest.raises(ValueError):
        TorusGrid(0, 8)
    with pytest.raises(ValueError):
        TorusGrid(4, 8)
    with pytest.raises(ValueError):
        TorusGrid(2, 7)
    with pytest.raises(ValueError):
        TorusGrid(2, 2)


def test_nodes_and_measures():
    grid = TorusGrid(2, 8)
    assert grid.nodes[0] == pytest.approx(-np.pi)
    assert np.allclose(np.diff(grid.nodes), 2 * np.pi / 8)
    # last node stops one spacing short of +pi (periodic wrap)
    assert grid.nodes[-1] == pytest.approx(np.pi - 2 * np.pi / 8)
    assert grid.cell_volume == pytest.approx((2 * np.pi / 8) ** 2)
    assert grid.volume == pytest.approx((2 * np.pi) ** 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_transform_round_trip(d):
    grid = TorusGrid(d, 8)
    rng = np.random.Generator(np.random.Philox(d))
    f = rng.standard_normal(grid.shape + (2,))
    back = inverse_transform(grid, forward_transform(grid, f))
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


def test_cosine_coefficients():
    grid = TorusGrid(1, 16)
    c = forward_transform(grid, np.cos(grid.nodes))
    assert abs(c[1] - 0.5) <= 1e-14
    assert abs(c[-1] - 0.5) <= 1e-14
    rest = np.delete(c, [1, 15])
    assert np.max(np.abs(rest)) <= 1e-14


def test_forward_transform_rejects_nonfinite():
    grid = TorusGrid(1, 8)
    f = np.zeros(8)
    f[3] = np.nan
    with pytest.raises(ValueError):
        forward_transform(grid, f)


def test_shape_mismatch_rejected():
    grid = TorusGrid(2, 8)
    with pytest.raises(ValueError):
        forward_transform(grid, np.zeros((8, 10)))
    with pytest.raises(ValueError):
        heat_propagate(grid, np.zeros((4, 8)), 0.1)


def test_heat_identity_at_zero_time():
    grid = TorusGrid(1, 8)
    f = np.sin(grid.nodes)
    out = heat_propagate(grid, f, 0.0)
    assert np.array_equal(out, f)
    assert out is not f


def test_heat_negative_time_rejected():
    grid = TorusGrid(1, 8)
    with pytest.raises(ValueError):
        heat_propagate(grid, np.zeros(8), -0.1)


def test_heat_cosine_eigenfunction():
    grid = TorusGrid(1, 16)
    f = np.cos(grid.nodes)
    out = heat_propagate(grid, f, 1.0)
    assert np.max(np.abs(out - np.exp(-1.0) * f)) <= 1e-13


def test_heat_constant_fixed_point():
    grid = TorusGrid(2, 8)
    f = np.full(grid.shape, 0.7)
    assert np.max(np.abs(heat_propagate(grid, f, 3.0) - 0.7)) <= 1e-14


def test_heat_semigroup():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(3))
    f = rng.standard_normal(grid.shape)
    a = heat_propagate(grid, heat_propagate(grid, f, 0.3), 0.7)
    b = heat_propagate(grid, f, 1.0)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_heat_preserves_mean():
    grid = TorusGrid(2, 16)
    rng = np.random.Generator(np.random.Philox(5))
    f = rng.standard_normal(grid.shape) + 2.0
    for t in (0.01, 1.0, 10.0):
        assert abs(np.mean(heat_propagate(grid, f, t)) - np.mean(f)) <= 1e-14 * abs(
            np.mean(f)
        ) + 1e-15


def test_heat_propagate_peak_memory(peak_field_sizes):
    # the spectrum half_spectrum makes is multiplied and inverted in place:
    # 2.24 field sizes on 32^3 x 3 (the half spectrum, the field made from it
    # and the heat symbol); a product buffer beside the spectrum reads 3.31
    grid = TorusGrid(3, 32)
    u = np.random.Generator(np.random.Philox(5)).standard_normal(grid.shape + (3,))
    before = u.tobytes()
    peak = peak_field_sizes(lambda: heat_propagate(grid, u, 0.01), u.nbytes)
    assert peak <= 2.35, peak
    assert u.tobytes() == before


def test_quadratic_form_hand_value():
    # two modes at k = +-1, |c|^2 = 1/4 each: (2 pi) * 2 * (1/4) * (1 - e^-1)
    grid = TorusGrid(1, 16)
    c = forward_transform(grid, np.cos(grid.nodes))
    expected = 2 * np.pi * 2 * 0.25 * (1.0 - np.exp(-1.0))
    assert dissipation_quadratic(grid, c, 1.0) == pytest.approx(expected, rel=1e-13)


def test_quadratic_form_constant_is_zero():
    grid = TorusGrid(2, 8)
    c = forward_transform(grid, np.full(grid.shape, 1.3))
    assert abs(dissipation_quadratic(grid, c, 0.5)) <= 1e-14


def test_quadratic_form_rejects_bad_tau():
    grid = TorusGrid(1, 8)
    c = forward_transform(grid, np.cos(grid.nodes))
    with pytest.raises(ValueError):
        dissipation_quadratic(grid, c, 0.0)
    with pytest.raises(ValueError):
        dissipation_quadratic(grid, c, -1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadratic_forms_from_the_half_spectrum(d):
    # white noise has energy on every plane; weights 2, and 1 on the planes
    # k_last = 0 and n/2, make the half spectrum's forms the full ones
    grid = TorusGrid(d, 8)
    u = np.random.Generator(np.random.Philox(d)).standard_normal(grid.shape + (3, 2))
    full, half = forward_transform(grid, u), half_spectrum(grid, u)
    assert half.shape == (8,) * (d - 1) + (5, 3, 2)
    assert np.max(np.abs(half_inverse(grid, half) - u)) <= 1e-14
    for tau in (0.01, 1.0, 10.0):
        assert dissipation_quadratic(grid, half, tau) == pytest.approx(
            dissipation_quadratic(grid, full, tau), rel=1e-13
        )
    assert dirichlet_energy(grid, half) == pytest.approx(dirichlet_energy(grid, full), rel=1e-13)


@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_spectrum_is_rfftn(d, shape):
    # the real pass and the d - 1 in-place complex passes, in rfftn's order,
    # give rfftn's sums bitwise, from a field with its components fastest (C
    # order) or slowest (a pipeline field), laid out components slowest
    grid = TorusGrid(d, 8)
    u = np.random.Generator(np.random.Philox(d)).standard_normal(grid.shape + shape)
    slowest = _components_slowest(grid.shape, shape, np.float64)
    slowest[...] = u
    for given in (u, slowest):
        got = half_spectrum(grid, given)
        assert np.array_equal(got, np.fft.rfftn(given, axes=grid.spatial_axes))
        assert min(got.strides[d:], default=np.inf) > max(got.strides[:d])


@pytest.mark.parametrize("heat", [False, True], ids=["bare", "multiplier"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_inverse_is_irfftn_and_leaves_the_spectrum(d, heat):
    # with the heat multiplier, the inverse is a record's u~_n at tau = 0.6,
    # made in place on the record's own spectrum of the given field
    grid = TorusGrid(d, 8)
    u = np.random.Generator(np.random.Philox(d)).standard_normal(grid.shape + (3, 2))
    spectrum, given = half_spectrum(grid, u), u.copy()
    kept = spectrum.copy()
    mult = grid.heat_multiplier(0.3, spectrum.ndim) if heat else None
    want = np.fft.irfftn(spectrum if mult is None else spectrum * mult, s=grid.shape,
                         axes=grid.spatial_axes)
    got = StepRecord(grid, 0.6, field=u).u_tilde if heat else half_inverse(grid, spectrum)
    assert np.array_equal(got, want)
    assert np.array_equal(spectrum, kept) and np.array_equal(u, given)
    assert min(got.strides[d:]) > max(got.strides[:d])  # components slowest


@pytest.mark.parametrize("heat", [False, True], ids=["bare", "multiplier"])
@pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 3)], ids=str)
@pytest.mark.parametrize("d", [2, 3])
def test_half_inverse_by_rows_is_irfftn(d, shape, heat):
    # each row of the first component axis is inverted on its own, and every
    # line transform gives what irfftn gives on the whole spectrum; so does a
    # record's u~_n (the heat multiplier at tau = 0.6), inverted whole in place
    grid = TorusGrid(d, 16)
    u = np.random.Generator(np.random.Philox(d)).standard_normal(grid.shape + shape)
    spectrum = half_spectrum(grid, u)
    mult = grid.heat_multiplier(0.3, spectrum.ndim) if heat else None
    want = np.fft.irfftn(spectrum if mult is None else spectrum * mult, s=grid.shape,
                         axes=grid.spatial_axes)
    got = StepRecord(grid, 0.6, spectrum=spectrum).u_tilde if heat else half_inverse(grid, spectrum)
    assert np.array_equal(got, want)


def test_half_inverse_peak_memory(peak_field_sizes):
    # one row's work buffer beside the field: 1.35 field sizes on 32^3 x 3
    # (the field and a third of the half spectrum), where a full copy of the
    # spectrum read 2.06
    grid = TorusGrid(3, 32)
    u = np.random.Generator(np.random.Philox(8)).standard_normal(grid.shape + (3,))
    spectrum = half_spectrum(grid, u)
    peak = peak_field_sizes(lambda: half_inverse(grid, spectrum), u.nbytes)
    assert peak <= 1.01 * 1.354, peak


def test_half_inverse_peak_memory_at_d1(peak_field_sizes):
    # d = 1 runs no complex pass, so the bare spectrum goes to irfft uncopied:
    # the field alone, 1.00 field size on 2^16 x 3, where a copy read 2.00
    grid = TorusGrid(1, 2**16)
    u = np.random.Generator(np.random.Philox(7)).standard_normal(grid.shape + (3,))
    spectrum = half_spectrum(grid, u)
    kept = spectrum.copy()
    peak = peak_field_sizes(lambda: half_inverse(grid, spectrum), u.nbytes)
    assert peak <= 1.1, peak
    assert np.array_equal(spectrum, kept)


def test_quadratic_forms_pass_peak_memory(peak_field_sizes):
    # one pass over a 32^3 x 3 half spectrum for both forms makes the mode
    # power once and weights it in place, and each symbol is made in one
    # buffer: 0.36 field sizes (the power and one symbol), where the
    # dissipation symbol's two temporaries read 0.53 and each form alone 0.71
    from acsplit.grid import _form_symbols, _spectral_sums

    grid = TorusGrid(3, 32)
    u = np.random.Generator(np.random.Philox(6)).standard_normal(grid.shape + (3,))
    spectrum = half_spectrum(grid, u)
    symbols = _form_symbols(0.02)
    peak = peak_field_sizes(lambda: _spectral_sums(grid, spectrum, *symbols), u.nbytes)
    assert peak <= 1.01 * 0.357, peak


def test_dirichlet_energy_cosine():
    # (1/2) integral of sin^2 = pi/2
    grid = TorusGrid(1, 16)
    c = forward_transform(grid, np.cos(grid.nodes))
    assert dirichlet_energy(grid, c) == pytest.approx(np.pi / 2, rel=1e-13)


def test_dirichlet_energy_matches_finite_differences():
    # central-difference quadrature converges to the spectral value at O(N^-2)
    def fd_value(n):
        grid = TorusGrid(2, n)
        x, y = grid.meshes()
        f = np.exp(np.cos(x)) * np.sin(2 * y)
        gx = (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * 2 * np.pi / n)
        gy = (np.roll(f, -1, 1) - np.roll(f, 1, 1)) / (2 * 2 * np.pi / n)
        fd = 0.5 * grid.cell_volume * np.sum(gx**2 + gy**2)
        spectral = dirichlet_energy(grid, forward_transform(grid, f))
        return abs(fd - spectral)

    d32, d64 = fd_value(32), fd_value(64)
    assert 2.5 <= d32 / d64 <= 6.0
