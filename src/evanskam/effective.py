"""Effective Hamiltonian tables over momentum shifts and their convex duals.

hbar(P) is the optimal value of the shifted minimization; the table also
records the rotation vector Q(P) = mean(m * H_p), which is the derivative of
hbar in P, so convexity of the table, monotonicity of Q, and agreement of Q
with finite differences of hbar are all checkable certificates.  The discrete
Legendre transform is an exhaustive max over table entries (tables are small;
correctness over speed).
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .evans_solver import SolveResult, SolverConfig, minimize
from .hamiltonians import MechanicalHamiltonian
from .torus_grid import TorusGrid

__all__ = [
    "NonconvexTableError",
    "EffectiveTable",
    "LegendreTable",
    "ConvexityReport",
    "sweep_P",
    "legendre_transform",
    "convexity_check",
    "rotation_consistency",
    "write_effective_csv",
    "write_legendre_csv",
]


class NonconvexTableError(ValueError):
    """A table violated midpoint convexity beyond tolerance."""


@dataclass(eq=False)
class EffectiveTable:
    """hbar and rotation vectors per momentum shift at one sharpness k."""

    k: float
    P_grid: np.ndarray  # (n, d)
    hbar: np.ndarray  # (n,)
    Q: np.ndarray  # (n, d)
    converged: np.ndarray  # (n,) bool

    @property
    def d(self) -> int:
        return self.P_grid.shape[1]

    def __len__(self) -> int:
        return self.P_grid.shape[0]


@dataclass(eq=False)
class LegendreTable:
    """Discrete convex conjugate of an effective table on a velocity grid."""

    k: float
    Q_grid: np.ndarray  # (n, d)
    lbar: np.ndarray  # (n,)


@dataclass(frozen=True)
class ConvexityReport:
    max_violation: float
    min_second_difference: float
    worst_index: int


def _as_points(values, d: int | None = None) -> np.ndarray:
    pts = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"expected a list of momentum vectors, got shape {pts.shape}")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"momentum vectors have dimension {pts.shape[1]}, expected {d}")
    return pts


def _solve_entry(args) -> SolveResult:
    ham, grid, cfg = args
    return minimize(ham, grid, cfg)


def sweep_P(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    k: float,
    P_values,
    config: SolverConfig | None = None,
    jobs: int = 1,
) -> EffectiveTable:
    """Solve across a momentum grid and tabulate hbar(P) and Q(P).

    Entries warm-start from the neighboring P by default.  ``jobs > 1``
    switches to independent cold starts in a process pool; cold-start values
    must agree with the warm-started chain to solver accuracy, which the test
    suite checks.  Failed entries are flagged and the sweep continues.
    """
    base = config if config is not None else SolverConfig(k=k)
    if base.k != k:
        base = replace(base, k=k)
    pts = _as_points(P_values, ham.d)
    n = pts.shape[0]
    hbar = np.full(n, np.nan)
    Q = np.full((n, ham.d), np.nan)
    converged = np.zeros(n, dtype=bool)

    def record(i: int, res: SolveResult) -> None:
        hbar[i] = res.hbar
        Q[i] = res.rotation
        converged[i] = res.converged

    if jobs > 1:
        tasks = [(ham, grid, replace(base, P=tuple(pts[i]))) for i in range(n)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for i, res in enumerate(pool.map(_solve_entry, tasks)):
                record(i, res)
    else:
        warm = None
        for i in range(n):
            res = minimize(ham, grid, replace(base, P=tuple(pts[i])), warm_start=warm)
            record(i, res)
            warm = res.u
    return EffectiveTable(k=k, P_grid=pts, hbar=hbar, Q=Q, converged=converged)


def convexity_check(values) -> ConvexityReport:
    """Midpoint-convexity violation and strict-convexity margin on a uniform grid.

    Violation is max_i [f_i - (f_{i-1} + f_{i+1})/2] (nonpositive for convex
    data); the margin is the smallest second difference, strictly positive for
    strictly convex tables.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise ValueError("convexity check needs a 1-d table with at least 3 entries")
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    violations = -0.5 * second
    worst = int(np.argmax(violations))
    return ConvexityReport(
        max_violation=float(np.max(violations)),
        min_second_difference=float(np.min(second)),
        worst_index=worst + 1,
    )


def _check_table_convex(table: EffectiveTable, tol: float) -> None:
    if table.d == 1:
        rep = convexity_check(table.hbar)
        if rep.max_violation > tol:
            i = rep.worst_index
            raise NonconvexTableError(
                f"midpoint convexity violated by {rep.max_violation:.3e} at entries "
                f"({i - 1}, {i}, {i + 1}): P={table.P_grid[i - 1 : i + 2, 0].tolist()}, "
                f"hbar={table.hbar[i - 1 : i + 2].tolist()}"
            )
        return
    # d = 2 tables arrive row-major on a rectangular grid; check axis-wise
    # second differences over each grid line.
    pts = table.P_grid
    n0 = len(np.unique(pts[:, 0]))
    n1 = len(pts) // n0
    grid_vals = table.hbar.reshape(n0, n1)
    for axis in range(2):
        second = np.diff(grid_vals, n=2, axis=axis)
        if second.size and float(np.max(-0.5 * second)) > tol:
            raise NonconvexTableError(f"midpoint convexity violated along axis {axis}")


def legendre_transform(table: EffectiveTable, Q_values, convexity_tol: float = 1e-7) -> LegendreTable:
    """Discrete Legendre transform lbar(Q) = max_P [P.Q - hbar(P)].

    The input table must be convex (checked first); applying the transform
    twice recovers the table up to grid resolution, since convex functions
    are biconjugate.
    """
    _check_table_convex(table, convexity_tol)
    Q_pts = _as_points(Q_values, table.d)
    scores = Q_pts @ table.P_grid.T - table.hbar[None, :]
    return LegendreTable(k=table.k, Q_grid=Q_pts, lbar=np.max(scores, axis=1))


def biconjugate(table: EffectiveTable, convexity_tol: float = 1e-7) -> np.ndarray:
    """Transform twice against the table's own grids; returns hbar** on P_grid."""
    leg = legendre_transform(table, table.Q, convexity_tol)
    scores = table.P_grid @ leg.Q_grid.T - leg.lbar[None, :]
    return np.max(scores, axis=1)


def rotation_consistency(table: EffectiveTable) -> tuple[float, np.ndarray]:
    """Stored rotation vectors vs centered differences of hbar over P (d = 1).

    Returns the max discrepancy over interior entries together with the
    per-entry values; truncation of the centered difference dominates for
    smooth tables.
    """
    if table.d != 1:
        raise ValueError("rotation consistency is defined for d=1 tables")
    if len(table) < 3:
        raise ValueError("need at least 3 entries")
    P = table.P_grid[:, 0]
    fd = (table.hbar[2:] - table.hbar[:-2]) / (P[2:] - P[:-2])
    disc = np.abs(table.Q[1:-1, 0] - fd)
    return float(np.max(disc)), disc


# -- serialization -------------------------------------------------------------


def write_effective_csv(table: EffectiveTable, path, sidecar: dict | None = None) -> None:
    d = table.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"P{i}" for i in range(d)] + ["hbar"] + [f"Q{i}" for i in range(d)] + ["converged"])
        for i in range(len(table)):
            writer.writerow(
                [repr(float(v)) for v in table.P_grid[i]]
                + [repr(float(table.hbar[i]))]
                + [repr(float(v)) for v in table.Q[i]]
                + [int(table.converged[i])]
            )
    if sidecar is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump({"k": table.k, **sidecar}, fh, sort_keys=True, indent=2)
            fh.write("\n")


def write_legendre_csv(table: LegendreTable, path) -> None:
    d = table.Q_grid.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"Q{i}" for i in range(d)] + ["lbar"])
        for i in range(table.Q_grid.shape[0]):
            writer.writerow([repr(float(v)) for v in table.Q_grid[i]] + [repr(float(table.lbar[i]))])
