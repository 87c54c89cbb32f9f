"""Effective Hamiltonian tables over momentum shifts and their convex duals.

hbar(P) is the optimal value of the shifted minimization; the table also
records the rotation vector Q(P) = mean(m * H_p), which is the derivative of
hbar in P, so convexity of the table, monotonicity of Q, and agreement of Q
with finite differences of hbar are all checkable certificates.  The discrete
Legendre transform is an exhaustive max over table entries (tables are small;
correctness over speed).
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .evans_solver import SolveResult, SolverConfig, _solve_grid, minimize
from .hamiltonians import MechanicalHamiltonian, _is_finite_number, check_nyquist
from .torus_grid import TorusGrid, write_table

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

# Largest midpoint-convexity violation the Legendre transform accepts.
_CONVEXITY_TOL = 1e-7


class NonconvexTableError(ValueError):
    """A table violated midpoint convexity beyond tolerance."""


@dataclass(eq=False)
class EffectiveTable:
    """hbar and rotation vectors per momentum shift at one sharpness k, and each entry's ``SolveResult.metadata()``."""

    k: float
    P_grid: np.ndarray  # (n, d)
    hbar: np.ndarray  # (n,)
    Q: np.ndarray  # (n, d)
    records: list[dict]

    @property
    def converged(self) -> np.ndarray:
        """Each entry's converged flag, as an (n,) bool array."""
        return np.array([rec["converged"] for rec in self.records], dtype=bool)

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


# Each kind of point list: the noun of its shape refusals, and its refusal of a non-number.
_POINT_KINDS = {"P": ("momentum", "P must be None or finite numbers"), "Q": ("velocity", "Q must be finite numbers")}


def _as_points(values, d: int, kind: str = "P") -> np.ndarray:
    """``values`` as (n, d) rows of momenta (``kind`` "P") or velocities ("Q"), refused in the kind's words.

    Every entry is checked before any is converted.  A value that is not a
    nonempty list of rows of d entries (a string, a dict, a ragged list)
    raises ValueError naming the shape; a row with a boolean, a string, a
    list or a non-finite entry raises ValueError(the kind's refusal, row),
    the row shown as a float array where all its entries are floats.
    """
    noun, refusal = _POINT_KINDS[kind]
    given = np.asarray(values, dtype=object)  # a ragged list gives a 1-d array of lists
    if given.ndim == 1:
        given = given[:, None]
    if given.ndim != 2 or len(given) == 0:
        raise ValueError(f"expected a nonempty list of {noun} vectors, got shape {given.shape}")
    if given.shape[1] != d:
        raise ValueError(f"{noun} vectors have dimension {given.shape[1]}, expected {d}")
    for row in given:
        if not all(map(_is_finite_number, row)):
            shown = row.astype(float) if all(isinstance(v, float) for v in row) else row.tolist()
            raise ValueError(f"{refusal}, got {shown!r}")
    return given.astype(float)


def _secant_coefficient(P0: list[float], P1: list[float], P2: list[float]) -> float:
    """c = <P2 - P1, P1 - P0> / |P1 - P0|^2: the step to P2 measured along the step to P1.

    1 on a uniform line; at most 0 where the path turns back or stands still.
    """
    along = norm2 = 0.0
    for a, b, c in zip(P0, P1, P2):
        along += (c - b) * (b - a)
        norm2 += (b - a) * (b - a)
    return along / norm2 if norm2 > 0.0 else 0.0


def _chain(ham: MechanicalHamiltonian, grid: TorusGrid, base: SolverConfig, pts: np.ndarray) -> list[SolveResult]:
    """Solve ``pts`` in order on ``_solve_grid(ham, grid)``: the first entry cold, the second from the first's u.

    Entry i+1 starts from the secant predictor u_i + c*(u_i - u_{i-1}), c from
    ``_secant_coefficient`` (1 on a uniform 1-d grid): u_P is smooth in P, so the
    predictor is O(dP^2) from the solution where u_i is O(dP) off.  Where the path
    turns back or stands still (c <= 0, as at a 2-d raster's row ends), from u_i.
    """
    plane, rows = _solve_grid(ham, grid), pts.tolist()
    results: list[SolveResult] = []
    u_prev = u = None
    for i in range(len(pts)):
        start = u
        if u_prev is not None:
            c = _secant_coefficient(rows[i - 2], rows[i - 1], rows[i])
            if c > 0.0:
                start = u + c * (u - u_prev)
        results.append(minimize(ham, plane, replace(base, P=pts[i]), warm_start=start))
        u_prev, u = u, results[-1].u.values
    return results


def sweep_P(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    k: float,
    P_values,
    config: SolverConfig | None = None,
    jobs: int = 1,
) -> EffectiveTable:
    """Solve across a momentum grid as one ``_chain`` and tabulate hbar(P) and Q(P).

    ``jobs > 1`` cuts the grid into ``min(jobs, n)`` contiguous slices and runs
    a ``_chain`` on each in a process pool of at most ``os.cpu_count()``
    workers: each slice's rows equal a serial sweep of that slice bit for bit,
    on any machine.  Failed entries are flagged and the sweep continues.
    Every entry runs at ``k``, read as ``SolverConfig`` reads it.  A Nyquist
    violation on ``grid`` (``check_nyquist``), then a malformed k, P or
    ``jobs`` (anything but a positive integer, booleans included), raises
    ValueError before any solve.
    """
    check_nyquist(ham, grid)
    base = replace(config, k=k) if config is not None else SolverConfig(k=k)
    pts = _as_points(P_values, ham.d)
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs > 1:
        # imported here: the process pool drags in multiprocessing, which
        # every CLI process would otherwise pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        slices = np.array_split(pts, min(jobs, len(pts)))
        with ProcessPoolExecutor(max_workers=min(len(slices), os.cpu_count() or 1)) as pool:
            results = [res for part in pool.map(partial(_chain, ham, grid, base), slices) for res in part]
    else:
        results = _chain(ham, grid, base, pts)
    records = [res.metadata() for res in results]
    return EffectiveTable(k=base.k, P_grid=pts, hbar=np.array([rec["hbar"] for rec in records]),
                          Q=np.array([res.rotation for res in results]), records=records)


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


def _convexity_grid(P_grid: np.ndarray) -> tuple[int, ...]:
    """Shape of the uniform product grid that the convexity check reads ``P_grid`` as.

    d = 1 needs at least 3 entries; d = 2 a row-major rectangular grid,
    P[i*n1 + j] = (a_i, b_j).  Each axis must be uniformly spaced: every step
    within a relative 1e-9 of the first, which is nonzero.  Raises
    ValueError otherwise.
    """
    if P_grid.shape[1] == 1:
        if len(P_grid) < 3:
            raise ValueError("the convexity check needs a P_grid of at least 3 entries")
        shape, lines = (len(P_grid),), [P_grid[:, 0]]
    else:
        n0 = len(np.unique(P_grid[:, 0]))
        n1 = len(P_grid) // n0
        rect = P_grid.reshape(n0, n1, 2) if n0 * n1 == len(P_grid) else None
        if rect is None or np.any(rect[:, :, 0] != rect[:, :1, 0]) or np.any(rect[:, :, 1] != rect[:1, :, 1]):
            raise ValueError("the convexity check needs a d = 2 P_grid that is a row-major rectangular grid")
        shape, lines = (n0, n1), [rect[:, 0, 0], rect[0, :, 1]]
    for axis, line in enumerate(lines):
        steps = np.diff(line)
        if steps.size and not (steps[0] != 0.0 and np.all(np.abs(steps - steps[0]) <= 1e-9 * abs(steps[0]))):
            raise ValueError(f"the convexity check needs a uniformly spaced P_grid (axis {axis} is not)")
    return shape


def _check_table_convex(table: EffectiveTable) -> None:
    """Raise the first ``convexity_check`` violation over ``_CONVEXITY_TOL`` on a grid line (axis 0 first)."""
    shape = _convexity_grid(table.P_grid)
    entries = np.arange(len(table)).reshape(shape)
    for axis, n in enumerate(shape):
        if n < 3:
            continue
        for line in np.moveaxis(entries, axis, -1).reshape(-1, n):
            rep = convexity_check(table.hbar[line])
            if rep.max_violation > _CONVEXITY_TOL:
                i = line[rep.worst_index - 1 : rep.worst_index + 2]
                raise NonconvexTableError(
                    f"midpoint convexity violated by {rep.max_violation:.3e} at entries "
                    f"{tuple(i.tolist())}: P={table.P_grid[i].squeeze().tolist()}, "
                    f"hbar={table.hbar[i].tolist()}"
                )


def legendre_transform(table: EffectiveTable, Q_values) -> LegendreTable:
    """Discrete Legendre transform lbar(Q) = max_P [P.Q - hbar(P)].

    The input table must be convex to ``_CONVEXITY_TOL`` (checked first);
    applying the transform twice recovers the table up to grid resolution,
    since convex functions are biconjugate.
    """
    _check_table_convex(table)
    Q_pts = _as_points(Q_values, table.d, "Q")
    scores = Q_pts @ table.P_grid.T - table.hbar[None, :]
    return LegendreTable(k=table.k, Q_grid=Q_pts, lbar=np.max(scores, axis=1))


def biconjugate(table: EffectiveTable) -> np.ndarray:
    """Transform twice against the table's own grids; returns hbar** on P_grid."""
    leg = legendre_transform(table, table.Q)
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
    """P0.., hbar, Q0.., converged per entry, then the rest of each entry's record; k goes to the sidecar."""
    d = table.d
    write_table(
        path,
        [f"P{i}" for i in range(d)] + ["hbar"] + [f"Q{i}" for i in range(d)] + ["converged"],
        ([*P, hbar, *Q, rec["converged"]] for P, hbar, Q, rec in zip(table.P_grid, table.hbar, table.Q, table.records)),
        None if sidecar is None else {"k": table.k, **sidecar},
        records=table.records, shown=("P", "k"),
    )


def write_legendre_csv(table: LegendreTable, path) -> None:
    d = table.Q_grid.shape[1]
    write_table(path, [f"Q{i}" for i in range(d)] + ["lbar"], ([*q, lbar] for q, lbar in zip(table.Q_grid, table.lbar)))
