"""Periodic grid bookkeeping, discrete Fourier transforms, the heat semigroup,
and the Fourier-side quadratic forms shared by both Allen-Cahn models.

Conventions
-----------
The domain is the 2*pi-periodic torus [-pi, pi]^d with d in {1, 2, 3} and N
uniform nodes per axis, x_j = -pi + 2*pi*j/N.  Wavenumbers are the integers
k in {-N/2, ..., N/2 - 1} per axis.  Spectral coefficients are normalized so

    u_hat[k] = N^{-d} * sum_j u(x_j) exp(-i k . x_j),

which makes u_hat[0] the spatial mean and gives the Parseval identity

    w * sum_j |u(x_j)|^2 = (2*pi)^d * sum_k |u_hat[k]|^2,   w = (2*pi/N)^d.

Fields are plain numpy arrays whose d leading axes are the spatial axes; any
trailing axes (vector components, matrix entries) ride along untouched.

Memory order: half_spectrum lays its result out with the trailing axes
slowest in memory under the same spatial-first shape, so that every transform
runs over contiguous planes.  The inverse transform, ufuncs, empty_like and
einsum keep the order of their input, so a field made from such a spectrum
has it too; this is also the snapshot files' order.  half_inverse makes the
field one row of the first component axis at a time, in one work buffer of a
row (a copy of the spectrum's row) on which every complex pass acts in place,
and each row's real pass writes that row of the field; at d = 1 there is no
complex pass, and the spectrum goes to the real pass uncopied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TorusGrid",
    "geometry_error",
    "forward_transform",
    "inverse_transform",
    "half_spectrum",
    "half_inverse",
    "heat_propagate",
    "dissipation_quadratic",
    "dirichlet_energy",
]


def geometry_error(d: int, n: int, m: int = 1) -> str | None:
    """Why a field with d spatial axes of n points and component axes of size
    m is not on a grid, or None if it is."""
    if d not in (1, 2, 3):
        return f"d must be 1, 2 or 3, got {d}"
    if n < 4 or n % 2 != 0:
        return f"n must be even and >= 4, got {n}"
    if m < 1:
        return f"m must be >= 1, got {m}"
    return None


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [-pi, pi]^d with n points per axis; d and n
    obey geometry_error."""

    d: int
    n: int

    def __post_init__(self):
        if why := geometry_error(self.d, self.n):
            raise ValueError(why)

    def _wavenumbers(self, half: bool = False) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumbers broadcast to the lattice; half: the last axis holds 0..n/2."""
        k1 = (np.fft.fftfreq(self.n) * self.n).astype(np.float64)
        return np.ix_(*[k1] * (self.d - 1), np.arange(self.n // 2 + 1.0) if half else k1)

    # derived lattice arrays, each made on first use: |k|^2 on the full and
    # the half lattice, the half lattice's mode weights and the phase factor
    @cached_property
    def wavenumbers_squared(self) -> np.ndarray:
        """|k|^2 on the full wavenumber lattice, shape self.shape."""
        return sum(ki**2 for ki in self._wavenumbers())

    @cached_property
    def _k2r(self) -> np.ndarray:
        return sum(ki**2 for ki in self._wavenumbers(half=True))

    @cached_property
    def _wr(self) -> np.ndarray:
        # a half-lattice mode stands for itself and its conjugate -k, except on
        # the planes k_last = 0 and n/2, which hold both already: one weight
        # per k_last, broadcast over the other axes
        wr = np.full(self.n // 2 + 1, 2.0)
        wr[[0, -1]] = 1.0
        return wr

    @cached_property
    def _phase(self) -> np.ndarray:
        # (-1)^(k_1 + ... + k_d): the phase factor between numpy's
        # j=0-at-origin DFT and coefficients anchored at x_0 = -pi
        return 1.0 - 2.0 * (sum(self._wavenumbers()) % 2)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(self.d))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight per node; integral of 1 equals (2*pi)^d."""
        return (2.0 * np.pi / self.n) ** self.d

    @property
    def volume(self) -> float:
        return (2.0 * np.pi) ** self.d

    @property
    def nodes(self) -> np.ndarray:
        """1D node coordinates -pi + 2*pi*j/n, shared by every axis."""
        return -np.pi + 2.0 * np.pi * np.arange(self.n) / self.n

    def meshes(self) -> tuple[np.ndarray, ...]:
        """d coordinate arrays of shape self.shape ('ij' indexing)."""
        return tuple(np.meshgrid(*([self.nodes] * self.d), indexing="ij"))

    def _broadcast(self, mult: np.ndarray, field_ndim: int) -> np.ndarray:
        """Reshape a spectral multiplier to broadcast over trailing axes."""
        return mult.reshape(mult.shape + (1,) * (field_ndim - self.d))

    def heat_multiplier(self, t: float, field_ndim: int) -> np.ndarray:
        """The heat symbol e^{-t|k|^2} on the half lattice, for half spectra of
        fields with `field_ndim` axes."""
        with np.errstate(over="ignore"):  # -t|k|^2 is -inf at a huge t, and the symbol 0
            return self._broadcast(np.exp(-t * self._k2r), field_ndim)

    def band_mask(self, kcut: float, field_ndim: int) -> np.ndarray:
        """True where |k|^2 <= kcut^2 on the half lattice, shaped as heat_multiplier."""
        # kcut * kcut is inf for a huge kcut, where kcut**2 raises
        return self._broadcast(self._k2r <= kcut * kcut, field_ndim)


def _check_field(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[: grid.d] != grid.shape:
        raise ValueError(
            f"field shape {values.shape} does not start with grid shape {grid.shape}"
        )
    return values


def forward_transform(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Normalized DFT coefficients u_hat[k] = N^{-d} sum_j u(x_j) e^{-ik.x_j}.

    Trailing (non-spatial) axes are transformed independently.  Raises on
    non-finite input.
    """
    values = _check_field(grid, values)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in field")
    coeffs = np.fft.fftn(values, axes=grid.spatial_axes) / grid.n**grid.d
    return coeffs * grid._broadcast(grid._phase, coeffs.ndim)


def inverse_transform(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of forward_transform; returns the real part of the node values."""
    coeffs = _check_field(grid, coeffs)
    shifted = coeffs * grid._broadcast(grid._phase, coeffs.ndim)
    values = np.fft.ifftn(shifted, axes=grid.spatial_axes) * grid.n**grid.d
    return values.real


def _components_slowest(spatial: tuple[int, ...], trailing: tuple[int, ...], dtype) -> np.ndarray:
    """An empty array of shape spatial + trailing, the trailing axes slowest in memory."""
    k, d = len(trailing), len(spatial)
    return np.empty(trailing + spatial, dtype).transpose(tuple(range(k, k + d)) + tuple(range(k)))


def half_spectrum(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Unnormalized DFT sums of a real field on the half lattice k_last in 0..n/2
    (numpy's rfftn over the spatial axes, pass by pass); the other half is their
    complex conjugate.  The trailing axes are slowest in memory (see Memory order)."""
    values = _check_field(grid, values)
    out = _components_slowest(grid._k2r.shape, values.shape[grid.d:], np.complex128)
    np.fft.rfft(values, axis=grid.d - 1, out=out)
    for ax in reversed(grid.spatial_axes[:-1]):  # rfftn's complex passes, in place
        np.fft.fft(out, axis=ax, out=out)
    return out


def half_inverse(grid: TorusGrid, spectrum: np.ndarray) -> np.ndarray:
    """The real field whose half_spectrum is `spectrum`, which is never written.
    Made one row of the first component axis at a time (see Memory order),
    each line transform as irfftn makes it."""
    d = grid.d
    field = _components_slowest(grid.shape, spectrum.shape[d:], np.float64)
    rows = [(slice(None),) * d + i for i in np.ndindex(spectrum.shape[d:d + 1])]
    work = np.empty_like(spectrum[rows[0]]) if d > 1 else None  # else nothing writes a row
    for row in rows:
        line = spectrum[row]
        if work is not None:
            np.copyto(work, line)
            line = work
        _half_inverse_in_place(grid, line, out=field[row])
    return field


def _half_inverse_in_place(
    grid: TorusGrid, spectrum: np.ndarray, multiplier=None, out=None
) -> np.ndarray:
    """half_inverse(grid, spectrum * multiplier), made on `spectrum`'s buffer,
    overwriting it, and written into `out` if given."""
    if multiplier is not None:
        spectrum *= multiplier
    for ax in grid.spatial_axes[:-1]:  # irfftn's complex passes, in place
        spectrum = np.fft.ifft(spectrum, axis=ax, out=spectrum)
    return np.fft.irfft(spectrum, n=grid.n, axis=grid.d - 1, out=out)


def _check_time(t: float, name: str = "tau", zero_ok: bool = False, error=ValueError) -> None:
    """The package's one rule, refusing with `error`: a time (zero_ok), or an initial
    condition's amplitude, is finite and >= 0, a step finite and > 0 with a finite
    1/tau (the modified energy divides by it)."""
    t = float(t)  # a float's 1/t is inf where an np.float64's warns of overflow
    if not (0 <= t < np.inf if zero_ok else 0 < t < np.inf and 1.0 / t < np.inf):  # NaN fails
        raise error(f"{name} must be finite and {'>= 0' if zero_ok else '> 0 with a finite 1/tau'}"
                    f", got {t}")


def heat_propagate(grid: TorusGrid, values: np.ndarray, t: float) -> np.ndarray:
    """Heat semigroup e^{t*Laplacian}: multiplier e^{-t|k|^2} per coefficient.

    Applied componentwise over any trailing axes.  The k = 0 multiplier is
    exactly 1, so the spatial mean is preserved.  Requires a finite t >= 0.
    """
    _check_time(t, "heat propagation time", zero_ok=True)
    values = _check_field(grid, values)
    if t == 0:
        return np.array(values, copy=True)
    coeffs = half_spectrum(grid, values)
    return _half_inverse_in_place(grid, coeffs, grid.heat_multiplier(t, coeffs.ndim))


def _spectral_sums(grid: TorusGrid, coeffs: np.ndarray, *symbols) -> list[float]:
    """(2*pi)^d sum_k symbol(|k|^2) |u_hat[k]|^2 per symbol, trailing axes summed,
    from the coefficients of forward_transform or from a field's half_spectrum."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    # the mode power sum_c |c_k|^2, once, in any memory order and without a copy
    flat = coeffs.reshape(coeffs.shape[: grid.d] + (-1,))
    power = np.einsum("...i,...i->...", flat.real, flat.real)
    power += np.einsum("...i,...i->...", flat.imag, flat.imag)
    if coeffs.shape[: grid.d] == grid._k2r.shape:  # half lattice, unnormalized
        power *= grid._wr
        k2, scale = grid._k2r, grid.volume / float(grid.n) ** (2 * grid.d)
    else:
        _check_field(grid, coeffs)
        k2, scale = grid.wavenumbers_squared, grid.volume
    return [scale * float(np.vdot(symbol(k2), power)) for symbol in symbols]


def _form_symbols(tau: float) -> tuple:
    """The symbols of dirichlet_energy and of dissipation_quadratic at tau, each
    made in one buffer."""
    _check_time(tau)

    def dissipation(k2: np.ndarray) -> np.ndarray:  # -expm1(-tau |k|^2)
        w = np.multiply(k2, -tau)
        return np.negative(np.expm1(w, out=w), out=w)

    return (lambda k2: 0.5 * k2), dissipation


def dissipation_quadratic(grid: TorusGrid, coeffs: np.ndarray, tau: float) -> float:
    """Quadratic form (2*pi)^d sum_k (1 - e^{-tau|k|^2}) |u_hat[k]|^2.

    `coeffs` must be the coefficients of the PRE-half-step field u (or its
    half_spectrum): with u_tilde = e^{(tau/2) Laplacian} u this equals the
    nonnegative form integral of <(e^{-tau*Laplacian} - 1) u_tilde, u_tilde>,
    without ever evaluating the growing symbol e^{+tau|k|^2}.  Trailing axes
    are summed (componentwise scalar forms add).  Uses expm1 so that small
    tau suffers no cancellation.
    """
    return _spectral_sums(grid, coeffs, _form_symbols(tau)[1])[0]


def dirichlet_energy(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """Gradient energy (1/2) * (2*pi)^d * sum_k |k|^2 |u_hat[k]|^2, from the
    coefficients or the half_spectrum.

    Equals (1/2) * integral |grad u|^2 for the trigonometric interpolant.
    Trailing axes are summed.
    """
    return _spectral_sums(grid, coeffs, lambda k2: 0.5 * k2)[0]
