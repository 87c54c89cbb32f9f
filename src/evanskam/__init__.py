"""Exponential-averaging cell problems on the space-time torus.

Solves the time-periodic minimization of the exponential average of
u_t + H(z, P + grad u) for the mechanical Hamiltonian family, producing the
minimizing pair (u, m), the effective constant hbar, effective
Hamiltonian/Lagrangian tables with convex-duality certificates, and
Mather-measure diagnostics with sharpness-limit trend studies checked against
a classical one-dimensional cell-problem oracle.
"""

from .effective import (
    EffectiveTable,
    LegendreTable,
    convexity_check,
    legendre_transform,
    rotation_consistency,
    sweep_P,
)
from .evans_solver import (
    LipschitzCertificate,
    SolveResult,
    SolverConfig,
    gradient,
    hbar_bounds,
    linearized_el_apply,
    lipschitz_bound,
    minimize,
    objective,
)
from .hamiltonians import (
    ChiParams,
    FourierSpec,
    FourierTerm,
    HamiltonianTable,
    MechanicalHamiltonian,
    NyquistError,
    chi_bound,
    drift_diffusion,
    hamiltonian_from_json,
    hamiltonian_to_json,
)
from .mather_limits import (
    KSweepReport,
    MatherDiagnostics,
    holonomy_residual,
    k_sweep,
    mather_diagnostics,
    pendulum_reference,
)
from .mfg_diagnostics import MfgResidualReport, mfg_residuals, minmax_upper_bound
from .torus_grid import (
    ScalarField,
    TorusGrid,
    read_field,
    write_field,
)

__version__ = "0.1.0"

__all__ = [
    "TorusGrid",
    "ScalarField",
    "read_field",
    "write_field",
    "FourierSpec",
    "FourierTerm",
    "MechanicalHamiltonian",
    "HamiltonianTable",
    "ChiParams",
    "NyquistError",
    "drift_diffusion",
    "chi_bound",
    "hamiltonian_to_json",
    "hamiltonian_from_json",
    "SolverConfig",
    "SolveResult",
    "LipschitzCertificate",
    "objective",
    "gradient",
    "linearized_el_apply",
    "minimize",
    "hbar_bounds",
    "lipschitz_bound",
    "MfgResidualReport",
    "mfg_residuals",
    "minmax_upper_bound",
    "EffectiveTable",
    "LegendreTable",
    "sweep_P",
    "legendre_transform",
    "convexity_check",
    "rotation_consistency",
    "MatherDiagnostics",
    "KSweepReport",
    "mather_diagnostics",
    "holonomy_residual",
    "k_sweep",
    "pendulum_reference",
]
