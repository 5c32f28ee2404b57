"""Tensorial Allen-Cahn model  dU/dt = Lap(U) + U - U U^T U  on m x q matrix fields.

Both models of the package are this one equation on fields of shape
grid.shape + (m, q): q = 1 is the vector model (for U = u, U U^T U = |u|^2 u)
and q = m the matrix model.  A step is the splitting
U^{n+1} = S_L(tau/2) S_N(tau) S_L(tau/2) U^n, with S_L the heat semigroup
acting entry-wise and S_N the exact pointwise flow

    S_N(t) A = e^t A (c A^T A + I)^{-1/2},   c = e^{2t} - 1,

the push-through form of (c A A^T + I)^{-1/2} e^t A.  Where it can, the pointwise
algebra is entrywise: for q = 1 the Gram matrix A^T A is the scalar |a|^2, and
a 2 x 2 matrix has its singular values in closed form (_singular_values).  Other
shapes go through the Gram eigenvectors V: A f(A^T A) = (A V) f(Lambda) V^T,
with Lambda_i = sigma_i(A)^2.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable

import numpy as np

# called through the module, so that wrappers installed on acsplit.grid at
# run time (the benchmark's per-layer tracer) see these calls
from . import grid as spectral
from .grid import TorusGrid

# slack floor for the concavity and Taylor inequality checks (_inequality_slack)
INEQUALITY_SLACK = 1e-10
# floor for e^{-t} terms that underflow at large t: it keeps the closed forms
# finite where lam = 0 and moves them by less than rounding where lam > 1e-291
_TINY = np.finfo(np.float64).tiny


def g_scalar(lam: np.ndarray, tau: float) -> np.ndarray:
    """Potential G as a function of lam = |w|^2 (or a squared singular value).

    Algebraically equal to

        lam/(2 tau) - e^tau/(tau (e^{2 tau} - 1)) (sqrt(1 + (e^{2 tau} - 1) lam) - 1)

    but evaluated in the factored form

        (lam/tau) (1/2 - 1 / (e^{-tau} + sqrt(e^{-2 tau} - expm1(-2 tau) lam)))

    which has no subtractive cancellation for small tau or small lam, and
    no overflow at large tau.
    """
    spectral._check_time(tau)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim == 0:  # out= needs arrays, and ufuncs give scalars on 0-d operands
        return g_scalar(lam[None], tau)[0]
    w = np.multiply(lam, math.expm1(-2.0 * tau))  # the factored form, in one buffer
    w = np.sqrt(np.subtract(math.exp(-2.0 * tau), w, out=w), out=w)
    w = np.divide(1.0, np.add(w, max(math.exp(-tau), _TINY), out=w), out=w)
    return np.multiply(np.subtract(0.5, w, out=w), lam / tau, out=w)


def _flow_factor(lam: np.ndarray, t: float) -> np.ndarray:
    """e^t / sqrt(expm1(2t) lam + 1), the flow's factor on a squared singular
    value, as 1 / sqrt(-expm1(-2t) lam + e^{-2t}) so that nothing overflows."""
    return 1.0 / np.sqrt(-math.expm1(-2.0 * t) * lam + max(math.exp(-2.0 * t), _TINY))


def _checked(a) -> np.ndarray:
    """`a` as float64, refused (ValueError) unless its entries are finite and at
    most sqrt(float64 max / (2 m q)) in magnitude, which keeps every squared
    singular value and Gram entry of an m x q matrix finite."""
    a = np.asarray(a, dtype=np.float64)
    bound = math.sqrt(np.finfo(np.float64).max / (2 * a.shape[-2] * a.shape[-1]))
    # two reductions, no temporary; a NaN entry makes both NaN and fails
    if not (-bound <= a.min(initial=0.0) and a.max(initial=0.0) <= bound):
        raise ValueError(f"entries must be finite and at most {bound:.4g} in magnitude, "
                         "or A^T A can overflow")
    return a


def _gram(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2) @ a


def _column_norms_sq(a: np.ndarray) -> np.ndarray:
    """The squared column norms of A, the diagonal of A^T A, in the memory
    order of `a` (a batched matmul would make it components-fastest)."""
    return np.einsum("...ij,...ij->...j", a, a)


def _field_gram(a: np.ndarray) -> np.ndarray:
    """A^T A of every m x q matrix of a field, in the field's memory order.
    Not _gram: the standard potential has always summed this einsum's entries,
    and a matmul Gram differs from it in the last bits."""
    return np.einsum("...ki,...kj->...ij", a, a)


def _kernel_gram(a: np.ndarray) -> np.ndarray:
    """What the flow and the potential read of A^T A: the squared column norm
    (shape ... x 1) for q = 1, else A^T A.  The 2 x 2 closed forms read none:
    they take the singular values (_singular_values)."""
    return _column_norms_sq(a) if a.shape[-1] == 1 else _gram(a)


def _gram_function(
    a: np.ndarray, fn: Callable[[np.ndarray], np.ndarray], gram: np.ndarray | None = None
) -> np.ndarray:
    """A fn(A^T A), with the scalar function fn acting on the Gram eigenvalues;
    `gram` is _kernel_gram(a), made here if not given, which the call consumes."""
    if gram is None:
        gram = _kernel_gram(a)
    if a.shape[-1] == 1:  # the 1 x 1 Gram matrix is its own eigenvalue
        factor = fn(gram[..., None, :])
        del gram  # before the product is made
        return a * factor
    v = np.linalg.eigh(gram).eigenvectors
    del gram  # before A V is made
    av = a @ v
    # the eigenvalues as squared column norms of A V: nonnegative, and accurate
    # relative to each sigma_i rather than only to the largest, which keeps
    # the flow at large t as accurate as a singular value decomposition
    av *= fn(_column_norms_sq(av)[..., None, :])
    return np.matmul(av, np.swapaxes(v, -1, -2), out=np.empty_like(a))


def _parts(a: np.ndarray, k: int, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """(e, h) for k = 0 or (f, g) for k = 1, into `out`, of 2 x 2 matrices A = conformal
    part [[e, -h], [h, e]] + anticonformal part [[f, g], [g, -f]]."""
    p, b, c, d = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    x = (np.subtract if k else np.add)(p, d, out=out[0])
    y = (np.add if k else np.subtract)(c, b, out=out[1])
    return np.multiply(x, 0.5, out=x), np.multiply(y, 0.5, out=y)


def _singular_values(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Q, R, s1, s2) of 2 x 2 matrices: with Q = |(e, h)| and R = |(f, g)| (_parts), each
    made in place of its parts, the singular values are s1 = Q + R and the signed
    s2 = det A / s1 (0 where s1 is).  Q = sqrt(e^2 + h^2) costs a quarter of hypot,
    and _checked's cap sqrt(max / 8) on the entries keeps e^2 + h^2 below max / 4.
    Below about 1e-154 the squares underflow and Q and R lose relative accuracy, not
    absolute (about 1e-161), which moves the flow by no more than that beside its
    factor e^t."""
    p, b, c, d = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    q, r = (np.sqrt(np.add(np.multiply(x, x, out=x), np.multiply(y, y, out=y), out=x), out=x)
            for x, y in (_parts(a, k) for k in (0, 1)))
    det = p * d  # after Q and R, in place: four quarter planes live at most
    det -= b * c
    s1 = q + r
    np.divide(det, s1, out=det, where=s1 > 0)
    det[s1 == 0] = 0.0
    return q, r, s1, det


def _flow_2x2(a: np.ndarray, t: float) -> np.ndarray:
    """S_N(t) A = alpha conf(A) + beta anti(A) on 2 x 2 matrices, alpha and beta being
    the divided differences of the singular values' map s -> s f(s^2) at (s1, -s2)
    and (s1, s2): alpha = f1 + 2 R p and beta = f1 - 2 Q p, p = k f1^2 (s2 f2) f2 / (f1 + f2),
    f_i = _flow_factor(s_i^2, t), k = -expm1(-2t).  Nothing divides by Q or R, and no
    factor of p exceeds 1/tiny, so nothing overflows."""
    q, r, s1, s2 = _singular_values(a)
    f1, f2 = _flow_factor(s1 * s1, t), _flow_factor(s2 * s2, t)
    p = np.multiply(f1, -math.expm1(-2.0 * t))
    p *= f1
    p *= np.multiply(s2, f2, out=s2)
    p *= np.divide(f2, np.add(f1, f2, out=s2), out=s2)
    alpha = np.add(f1, np.multiply(np.multiply(r, 2.0, out=r), p, out=r), out=r)
    beta = np.subtract(f1, np.multiply(np.multiply(q, 2.0, out=q), p, out=q), out=q)
    del s1, s2, f1, f2  # each temporary is a quarter of the field: reuse or free it
    out = np.empty_like(a)  # the parts are made last, in the output's planes
    e, h = _parts(a, 0, (out[..., 0, 0], out[..., 0, 1]))
    f, g = _parts(a, 1, (out[..., 1, 1], out[..., 1, 0]))
    for x, y, cx, cy in ((e, f, alpha, beta), (g, h, beta, alpha)):  # cx x +- cy y, in p
        y *= cy
        np.add(np.multiply(cx, x, out=p), y, out=x)
        np.subtract(p, y, out=y)
    return out


def nonlinear_propagate(a, t: float) -> np.ndarray:
    """S_N(t) A on the trailing m x q axes, or on a StepRecord's u~_n as m x q
    matrices (its Gram, if made, the flow consumes).  It keeps the right
    singular vectors (hence the rank) and fixes matrices with orthonormal columns."""
    spectral._check_time(t, "t", zero_ok=True)
    state = a if isinstance(a, StepRecord) else None
    a = _checked(a) if state is None else state.u_tilde_matrices
    if t == 0:
        return a.copy(order="K")  # skip the eigendecomposition's last-ulp noise
    if a.shape[-2:] == (2, 2):  # one matrix as a batch of one, as in g_scalar
        return _flow_2x2(a[None], t)[0] if a.ndim == 2 else _flow_2x2(a, t)
    # handed straight on, so that _gram_function holds the only reference
    return _gram_function(a, lambda lam: _flow_factor(lam, t),
                          None if state is None else state._take("u_tilde_gram"))


def strang_step(grid: TorusGrid, u: np.ndarray, tau: float, flow: Callable) -> np.ndarray:
    """One step S_L(tau/2) S_N(tau) S_L(tau/2), `flow` being the model's S_N
    on its own field shape: the plain composition, as a reference."""
    spectral._check_time(tau)
    u_tilde = spectral.heat_propagate(grid, u, 0.5 * tau)
    return spectral.heat_propagate(grid, flow(u_tilde, tau), 0.5 * tau)


class StepRecord:
    """A state u_n of a splitting run with step tau, as the run holds it: the
    field, its half spectrum (grid.half_spectrum) and u~_n = S_L(tau/2) u_n,
    where the modified energy lives, and two pointwise passes: the field's
    Gram matrices A^T A (gram), and u~_n as m x q matrices, refused once by
    _checked, with the Gram the kernels read of them (_kernel_gram).  Each is
    made from what is known on first use and then kept, except that u~_n made
    once the field is known is made on the spectrum's buffer and consumes it,
    the standard energy consumes gram and the flow u~_n's Gram: a later read
    makes them again.  A given field is never written.  The spectrum has its
    component axes slowest in memory (grid's Memory order), and so have u~_n
    and a field made from it; a given field keeps its own order.  The energy,
    potential, sup norm and flow functions take a record or a field; the
    energies first turn a field into a record."""

    def __init__(self, grid: TorusGrid, tau: float | None, **known):
        self.grid, self.tau = grid, tau
        self.__dict__.update(known)  # field, spectrum or u_tilde, and a shared half_heat

    @cached_property
    def half_heat(self) -> np.ndarray:
        return self.grid.heat_multiplier(0.5 * self.tau, self.spectrum.ndim)

    @cached_property
    def field(self) -> np.ndarray:
        return spectral.half_inverse(self.grid, self.spectrum)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return spectral.half_spectrum(self.grid, self.field)

    @cached_property
    def u_tilde(self) -> np.ndarray:
        if "field" not in vars(self):
            return spectral.half_inverse(self.grid, self.spectrum, self.half_heat)
        return self._consume_spectrum()

    @cached_property
    def quadratic_forms(self) -> list[float]:
        """[dirichlet_energy, dissipation_quadratic at tau] of the spectrum, in one pass."""
        return spectral._spectral_sums(self.grid, self.spectrum, *spectral._form_symbols(self.tau))

    @cached_property
    def gram(self) -> np.ndarray:
        """The field's Gram matrices A^T A, which sup_norm reads and standard_energy consumes."""
        return _field_gram(_matrices(self.grid, self.field))

    @cached_property
    def u_tilde_matrices(self) -> np.ndarray:
        """u~_n as m x q matrices (a view), refused as _checked refuses."""
        return _checked(_matrices(self.grid, self.u_tilde))

    @cached_property
    def u_tilde_gram(self) -> np.ndarray:
        """_kernel_gram of u~_n, which the potential reads and the flow consumes."""
        return _kernel_gram(self.u_tilde_matrices)

    def _take(self, name: str):
        """The member `name`, made if it is not known, which the record then drops."""
        value = getattr(self, name)
        del self.__dict__[name]
        return value

    def _consume_spectrum(self) -> np.ndarray:
        """u~_n made on the spectrum's buffer, which the record then drops."""
        half, spectrum = self.half_heat, self.spectrum
        del self.spectrum
        return spectral._half_inverse_in_place(self.grid, spectrum, half)

    def _flow_input(self):
        """What a flow reads of this state: u~_n alone, as a record that keeps
        the checked matrices and the Gram a monitor made of it, or as the array
        where none did (a bare step, to which a record would add only call
        overhead).  u~_n not made yet is made on the spectrum's buffer."""
        u_tilde = self.u_tilde if "u_tilde" in vars(self) else self._consume_spectrum()
        if "u_tilde_matrices" not in vars(self):
            return u_tilde
        known = {k: v for k, v in vars(self).items() if k in ("u_tilde_matrices", "u_tilde_gram")}
        return StepRecord(self.grid, self.tau, u_tilde=u_tilde, **known)


def _strang_states(grid: TorusGrid, u: np.ndarray, tau: float, flow: Callable):
    """The records of u_0 = u, u_1, ... along the splitting run with step tau.

    A step transforms S_N(tau) u~_n once into h; u_{n+1} and u~_{n+1} are the
    inverse transforms of e^{-tau|k|^2/2} h and e^{-tau|k|^2} h, made when a
    consumer or the next step first asks for them: 3 transforms per
    monitored step, 2 per bare one.  Between steps the generator holds only
    the current record, and during a step only u~_n, which the flow is handed
    as a record when the monitors made its checked matrices and Gram
    (StepRecord._flow_input); the consumer should not keep a record past the
    next step.

    Memory order: u is kept as given, never copied.  Every half_spectrum has
    the component axes slowest in memory, and the inverse transforms, products
    and flows keep that order.
    """
    state = StepRecord(grid, tau, field=u)
    del u
    half = state.half_heat
    while True:
        yield state
        w = state._flow_input()
        state = None  # drops the field and the spectrum
        w = flow(w, tau)  # drops u~_n
        w = spectral.half_spectrum(grid, w)  # drops S_N(tau) u~_n
        w *= half
        state = StepRecord(grid, tau, spectrum=w, half_heat=half)
        del w  # the spectrum is the record's alone: consuming it frees it


def strang_evolve(
    grid: TorusGrid, u: np.ndarray, tau: float, steps: int, flow: Callable
) -> np.ndarray:
    """`steps` splitting steps, the same as iterating strang_step, through the
    run's pipeline (_strang_states) with nothing monitored: the half heat
    steps between two flows take one transform pair."""
    spectral._check_time(tau)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return np.array(u, copy=True)
    states = _strang_states(grid, np.asarray(u, dtype=np.float64), tau, flow)
    return next(itertools.islice(states, steps, None)).field


def potential(a, tau: float) -> np.ndarray:
    """Trace potential sum_i G(lambda_i) over the eigenvalues of A^T A: the trace of
    (1/(2 tau)) A A^T - (e^tau/(tau c)) ((I + c A A^T)^{1/2} - I), c = e^{2 tau} - 1,
    on the trailing m x q axes or on a StepRecord's u~_n (whose Gram it reads).
    It is invariant under A -> Q A R for orthogonal Q, R."""
    state = a if isinstance(a, StepRecord) else None
    a = _checked(a) if state is None else state.u_tilde_matrices
    if a.shape[-2:] == (2, 2):
        if a.ndim == 2:
            return potential(a[None], tau)[0]
        s1, s2 = _singular_values(a)[2:]
        pot = 0 + g_scalar(np.multiply(s1, s1, out=s1), tau)  # 0 + G(0) is 0.0, G(0) is -0.0
        del s1
        return np.add(pot, g_scalar(np.multiply(s2, s2, out=s2), tau), out=pot)
    gram = _kernel_gram(a) if state is None else state.u_tilde_gram
    # for q > 1 its eigenvalues, clipped at 0: round-off can make the smallest slightly negative
    lam = gram if a.shape[-1] == 1 else np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return np.sum(g_scalar(lam, tau), axis=-1)


def gradient(a: np.ndarray, tau: float) -> np.ndarray:
    """Gradient of `potential` in A:  (A - e^tau A (I + expm1(2 tau) A^T A)^{-1/2}) / tau."""
    spectral._check_time(tau)
    a = np.asarray(a, dtype=np.float64)
    return (a - nonlinear_propagate(a, tau)) / tau


def _inequality_slack(u0: np.ndarray, h: np.ndarray, tau: float, w: float) -> float:
    """Least slack of  -<grad G(U0), H>  <=  G(U0) - G(U0 + H) + w ||H||_F^2 / tau
    over a batch of m x q pairs (U0, H), G the trace potential: w = 1/2 on
    m x 1 columns is the vector concavity bound, w = 1 the matrix Taylor bound."""
    lhs = -np.sum(gradient(u0, tau) * h, axis=(-2, -1))
    rhs = potential(u0, tau) - potential(u0 + h, tau) + w * np.sum(h * h, axis=(-2, -1)) / tau
    return float(np.min(rhs - lhs, initial=np.inf))


def _record(grid: TorusGrid, a, tau: float | None = None) -> StepRecord:
    """`a` if it is a StepRecord (of a run with step tau), else the record of the field `a`."""
    if not isinstance(a, StepRecord):
        return StepRecord(grid, tau, field=np.asarray(a, dtype=np.float64))
    if tau is not None and a.tau != tau:
        raise ValueError(f"record of a run with tau = {a.tau}, not {tau}")
    return a


def _matrices(grid: TorusGrid, a: np.ndarray) -> np.ndarray:
    """The field's values as m x q matrices; one component axis reads as m x 1."""
    return a.reshape(a.shape[: grid.d + 1] + (-1,))


def modified_energy(grid: TorusGrid, a, tau: float, potential_fn: Callable) -> float:
    """Modified energy, nonincreasing along the splitting, at A~ = S_L(tau/2) A
    for the PRE-half-step field A (or its StepRecord), with potential_fn the
    model's trace potential, which is handed the record (read at A~):

        int (1/(2 tau)) <(e^{-tau Lap} - 1) A~, A~> + potential_fn(A~) dx + (q/4) (2 pi)^d.

    The quadratic part is (2 pi)^d sum_k (1 - e^{-tau |k|^2}) |A_hat_k|^2 on the
    spectrum of A itself, so the growing symbol e^{+tau|k|^2} never
    appears; the constant aligns it with the standard energy as tau -> 0.
    """
    spectral._check_time(tau)
    state = _record(grid, a, tau)
    quad = state.quadratic_forms[1] / (2.0 * tau)
    pot = grid.cell_volume * float(np.sum(potential_fn(state, tau)))
    return quad + pot + 0.25 * state.u_tilde_matrices.shape[-1] * grid.volume


def standard_energy(grid: TorusGrid, a) -> float:
    """Standard energy int (1/2)||grad A||_F^2 + (1/4)||A^T A - I||_F^2 dx, of a
    field or a StepRecord, from the record's Gram matrices for every shape, which
    it turns into A^T A - I and then its squares in place."""
    state = _record(grid, a)
    dev = state._take("gram")
    dev -= np.eye(dev.shape[-1])
    pot = 0.25 * grid.cell_volume * float(np.sum(np.multiply(dev, dev, out=dev)))
    del dev  # the Gram buffer goes before the spectral pass; a plain field has no pair
    quad = state.quadratic_forms if state.tau else [spectral.dirichlet_energy(grid, state.spectrum)]
    return quad[0] + pot


def sup_norm(a) -> float:
    """Max over nodes of the pointwise Frobenius norm ||A(x)||_F of m x q
    matrices, or of a StepRecord's field: there the root of the largest trace
    of the record's Gram matrices, which the record keeps for standard_energy."""
    if isinstance(a, StepRecord):
        return float(np.sqrt(np.max(np.trace(a.gram, axis1=-2, axis2=-1))))
    a = np.asarray(a)  # squares added plane by plane, as np.sum adds a pipeline field's
    total, square = np.zeros(a.shape[:-2]), np.empty(a.shape[:-2])
    for i, j in itertools.product(*map(range, a.shape[-2:])):
        total += np.multiply(a[..., i, j], a[..., i, j], out=square)
    return float(np.sqrt(np.max(total)))


def smooth_random_ic(
    grid: TorusGrid, shape: tuple[int, ...], sup_target: float, seed: int, kcut: float = 4
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
    coeffs = spectral.half_spectrum(grid, rng.standard_normal(grid.shape + tuple(shape)))
    u = spectral.half_inverse(grid, coeffs, grid.band_mask(kcut, coeffs.ndim))
    sup = sup_norm(u.reshape(grid.shape + (shape[0], -1)))
    if sup == 0:
        return u
    return u * (sup_target / sup)
