"""Certification of a solve against the coupled mean-field-game system.

The minimizing pair (u, m) must satisfy, on the grid,

    u_t + H(z, P + grad u) = (1/k) log m + hbar        (pointwise identity)
    m_t + div(H_p m) = 0                               (transport)
    mean u = 0,  mean m = 1.

The first line holds by construction of the softmax density, so its sup-norm
residual is a regression tripwire for normalization bugs; the transport
residual is the same array as the solver gradient and is reported in the
mean-square norm the solver stopped in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evans_solver import SolveResult, SolverConfig, evaluate_state
from .hamiltonians import MechanicalHamiltonian
from .torus_grid import ScalarField, TorusGrid

__all__ = ["MfgResidualReport", "mfg_residuals", "minmax_upper_bound"]

CSV_COLUMNS = ("hjb_residual", "transport_residual", "mean_u", "mass_m", "sup_excess")


@dataclass(frozen=True)
class MfgResidualReport:
    hjb_residual: float
    transport_residual: float
    mean_u: float
    mass_m: float
    sup_excess: float

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    def csv_row(self) -> list[float]:
        return [getattr(self, name) for name in CSV_COLUMNS]


def mfg_residuals(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    result: SolveResult,
) -> MfgResidualReport:
    """Residuals of the discrete mean-field-game system for a solve."""
    if result.u.grid != grid or result.m.grid != grid:
        raise ValueError("result fields live on a different grid")
    st = evaluate_state(ham, grid, config, result.u)
    m = result.m.values
    # log of stored m; entries that underflowed to zero are clamped at the
    # smallest positive double (k <= 1e6 keeps this unreachable in practice)
    log_m = np.log(np.maximum(m, np.finfo(float).tiny))
    hjb = float(np.max(np.abs(st.f - log_m / config.k - result.hbar)))
    transport = grid.deriv(m, ham.d, config.method)
    for i in range(ham.d):
        transport = transport + grid.deriv(m * st.w[i], i, config.method)
    return MfgResidualReport(
        hjb_residual=hjb,
        transport_residual=grid.norm(transport),
        mean_u=result.u.mean(),
        mass_m=result.m.mean(),
        sup_excess=float(np.max(st.f)) - result.hbar,
    )


def minmax_upper_bound(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    u: ScalarField | np.ndarray,
    P=None,
    method: str = "spectral",
) -> float:
    """max_z (u_t + H(z, P + grad u)): an upper bound for the effective constant.

    Any C^1 candidate gives a bound; feeding computed minimizers along a
    sharpness sweep tightens it.  Shift invariant, so u need not be zero-mean.
    """
    cfg = SolverConfig(k=1.0, P=None if P is None else tuple(np.atleast_1d(P)), method=method)
    return float(np.max(evaluate_state(ham, grid, cfg, u).f))
