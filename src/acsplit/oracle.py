"""Brute-force reference integrator for the pointwise nonlinear flows.

Classical fixed-step RK4 on U' = U - U U^T U, the vector ODE being the same
on m x 1 columns: independent ground truth for the closed-form propagators,
sharing no code or formulas with the steppers (which use the closed form
through the Gram matrix).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import _check_time

__all__ = ["OracleConfig", "integrate_vector_ode", "integrate_matrix_ode"]


@dataclass(frozen=True)
class OracleConfig:
    """Fixed-step classical RK4 settings.

    substeps_per_unit_time: step density; the actual substep count for a
    horizon t is ceil(substeps_per_unit_time * t), at least 1.
    """

    substeps_per_unit_time: int = 2000

    def __post_init__(self):
        if self.substeps_per_unit_time < 1:
            raise ValueError("substeps_per_unit_time must be >= 1")

    def substeps(self, t: float) -> int:
        count = self.substeps_per_unit_time * t
        if not count <= sys.maxsize:  # also where the product is inf or NaN
            raise ValueError(f"t = {t} takes {count:.0f} RK4 substeps of "
                             f"1/{self.substeps_per_unit_time}: too many")
        return max(1, math.ceil(count))


def _rk4(y0: np.ndarray, t: float, nsub: int, rhs) -> np.ndarray:
    h = t / nsub
    y = np.array(y0, dtype=np.float64, copy=True)
    for _ in range(nsub):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def integrate_vector_ode(
    a: np.ndarray, t: float, cfg: OracleConfig = OracleConfig()
) -> np.ndarray:
    """RK4 solution of u' = (1 - |u|^2) u at time t, from u(0) = a.

    `a` may carry leading batch axes; the last axis is the vector component
    axis and each batch entry evolves independently.  For a column U = u,
    U U^T U = |u|^2 u, so this is integrate_matrix_ode on m x 1 matrices.
    """
    return integrate_matrix_ode(np.asarray(a)[..., None], t, cfg)[..., 0]


def integrate_matrix_ode(
    a: np.ndarray, t: float, cfg: OracleConfig = OracleConfig()
) -> np.ndarray:
    """RK4 solution of U' = U - U U^T U at time t, from U(0) = a.

    `a` may carry leading batch axes; the trailing two axes are the m x q
    matrix axes.
    """
    _check_time(t, "t", zero_ok=True)
    a = np.asarray(a, dtype=np.float64)
    if t == 0:
        return a.copy(order="K")
    # the q x q Gram matrix U^T U first: for a column it is the scalar |u|^2
    return _rk4(a, t, cfg.substeps(t), lambda u: u - u @ (np.swapaxes(u, -1, -2) @ u))
