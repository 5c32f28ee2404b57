"""Pseudo-spectral Strang-splitting solvers for vector- and matrix-valued
Allen-Cahn flows on the periodic torus [-pi, pi]^d, d <= 3.

Both models are one tensorial model on m x q matrix fields (q = 1 for
vectors, q = m for matrices) and split each step into a half heat step, an
exactly solvable nonlinear flow, and another half heat step.  The package
also carries the monitoring machinery (maximum-principle and modified-energy
diagnostics), an RK4 cross-check oracle, and an experiment harness with a
CLI.
"""

# Thread-count override: honored only if this runs before numpy is first
# imported, since the BLAS/FFT pools read these at load time.
import os as _os
import types as _types

_threads = _os.environ.get("ACSPLIT_NUM_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os

__version__ = "0.1.0"

from .grid import (
    TorusGrid,
    dirichlet_energy,
    dissipation_quadratic,
    forward_transform,
    heat_propagate,
    inverse_transform,
)
from .oracle import OracleConfig, integrate_matrix_ode, integrate_vector_ode
from .tensor import g_scalar
from .vector import (
    concavity_inequality_check_vec,
    g_gradient_vec,
    g_potential_vec,
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
from .matrix import (
    DISSIPATION_THRESHOLD,
    det_sign_field,
    g_potential_mat,
    g_trace_derivative,
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
from .harness import (
    ConfigError,
    ConvergenceReport,
    EnergyTrace,
    InvariantViolation,
    RunConfig,
    VerifyReport,
    build_initial,
    convergence_study,
    load_config,
    read_snapshot,
    run_experiment,
    snapshot_info,
    verify_suite,
    write_snapshot,
)

# the names imported above are the package's API; importing them also binds
# the submodules, which are left out
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
