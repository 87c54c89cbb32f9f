"""Mather-measure diagnostics and sharpness-limit studies.

The minimizing measure concentrates on the graph v = H_p(z, P + grad u) with
marginal m, so every integral against it reduces to an integral against m;
the measure itself is never materialized.  Diagnostics check the action and
entropy identities and the holonomy constraint; the k-sweep records the
trends that the sharp limit prescribes (entropy over k vanishing, the
second-order residual of the formal limit equation shrinking, uniformly
bounded gradients), and a classical one-dimensional cell-problem oracle
provides the reference value of the limiting effective constant for
autonomous potentials.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .evans_solver import SolveResult, SolverConfig, evaluate_state, minimize
from .hamiltonians import FourierSpec, MechanicalHamiltonian
from .torus_grid import TorusGrid

__all__ = [
    "MatherDiagnostics",
    "KSweepReport",
    "mather_diagnostics",
    "holonomy_residual",
    "holonomy_test_fields",
    "aronsson_residual",
    "k_sweep",
    "classical_reference",
    "pendulum_reference",
]


@dataclass(frozen=True)
class MatherDiagnostics:
    """Action, entropy and rotation of the minimizing measure of one solve.

    ``identity_gap`` is |action + entropy/k + hbar - P.Q|; integrating the
    holonomy constraint with the minimizer itself as test function shows the
    gap is bounded by ||u|| times the transport residual, hence vanishes at
    discrete critical points.
    """

    k: float
    action: float
    entropy: float
    entropy_over_k: float
    rotation: np.ndarray
    sup_excess: float
    identity_gap: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "action": self.action,
            "entropy": self.entropy,
            "entropy_over_k": self.entropy_over_k,
            "rotation": [float(q) for q in self.rotation],
            "sup_excess": self.sup_excess,
            "identity_gap": self.identity_gap,
            "converged": self.converged,
        }


def mather_diagnostics(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    result: SolveResult,
) -> MatherDiagnostics:
    """Action integral, entropy and rotation vector of the solve's measure.

    The entropy uses the closed form k * mean(m * (f - hbar)) rather than
    m log m, which is exact by the pointwise identity and immune to underflow
    where m is negligible.
    """
    if result.u.grid != grid or result.m.grid != grid:
        raise ValueError("result fields live on a different grid")
    P = config.momentum(ham.d)
    st = evaluate_state(ham, grid, config, result.u)
    m = result.m.values
    k = config.k

    # L(z, H_p) with velocity H_p = w: |w|^2/2 - lam*eta.w - lam*V
    L = -np.broadcast_to(st.hog.V, grid.shape).astype(float)
    for i in range(ham.d):
        L = L + 0.5 * st.w[i] ** 2 - st.hog.eta[i] * st.w[i]
    action = grid.integrate(m * L)
    entropy = k * grid.integrate(m * (st.f - result.hbar))
    rotation = np.array([grid.integrate(m * st.w[i]) for i in range(ham.d)])
    gap = abs(action + entropy / k + result.hbar - float(P @ rotation))
    return MatherDiagnostics(
        k=k,
        action=action,
        entropy=entropy,
        entropy_over_k=entropy / k,
        rotation=rotation,
        sup_excess=float(np.max(st.f)) - result.hbar,
        identity_gap=gap,
        converged=result.converged,
    )


def holonomy_test_fields(grid: TorusGrid, count: int = 20) -> list[np.ndarray]:
    """A fixed battery of low-frequency trigonometric test functions."""
    if grid.d == 1:
        freq_list = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1), (1, 2), (2, -1), (2, 2)]
    else:
        freq_list = [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
            (0, 1, 1), (1, 1, 1), (2, 0, 0), (0, 2, 0), (1, -1, 0),
        ]
    coords = grid.coords()
    fields = []
    for freq in freq_list:
        phase = sum((2.0 * np.pi * k) * c for k, c in zip(freq, coords))
        phase = np.broadcast_to(np.asarray(phase), grid.shape)
        fields.append(np.cos(phase))
        fields.append(np.sin(phase))
        if len(fields) >= count:
            break
    return fields[:count]


def holonomy_residual(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    result: SolveResult,
    test_fields: list[np.ndarray] | None = None,
) -> float:
    """max_j |mean(m * (phi_j_t + grad phi_j . H_p))| over the test battery.

    Each term equals mean(gradient * phi_j) by skew-adjointness, so the
    residual is bounded by the test-field norms times the transport residual.
    """
    if test_fields is None:
        test_fields = holonomy_test_fields(grid)
    st = evaluate_state(ham, grid, config, result.u)
    m = result.m.values
    worst = 0.0
    for phi in test_fields:
        val = grid.deriv(phi, ham.d, config.method)
        for i in range(ham.d):
            val = val + grid.deriv(phi, i, config.method) * st.w[i]
        worst = max(worst, abs(grid.integrate(m * val)))
    return worst


def aronsson_residual(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> float:
    """Sup norm of the formal sharp-limit equation applied to a minimizer.

    The residual  u_tt + 2 H_p . grad u_t + D^2u(H_p, H_p) + H_t + H_x . H_p
    equals -(1/k) * (laplacian of u, for the mechanical family) at exact
    critical points, so it shrinks along sharpness sweeps.
    """
    st = evaluate_state(ham, grid, config, u)
    hog, u = st.hog, st.u
    d = ham.d
    ut = st.ut
    res = grid.deriv2(u, d)  # u_tt
    for i in range(d):
        res = res + 2.0 * st.w[i] * grid.deriv(ut, i, config.method)
    for i in range(d):
        for j in range(d):
            if i == j:
                dij = grid.deriv2(u, i)
            else:
                dij = grid.deriv(grid.deriv(u, i, config.method), j, config.method)
            res = res + dij * st.w[i] * st.w[j]
    H_t = np.broadcast_to(hog.V_t, grid.shape).astype(float)
    for i in range(d):
        H_t = H_t + st.w[i] * hog.eta_prime[i]
    res = res + H_t
    for i in range(d):
        res = res + hog.gradV[i] * st.w[i]
    return float(np.max(np.abs(res)))


@dataclass(eq=False)
class KSweepRow:
    k: float
    hbar: float
    entropy_over_k: float
    sup_excess_pos: float
    lip_norm: float
    aronsson_residual: float
    converged: bool


@dataclass(eq=False)
class KSweepReport:
    rows: list[KSweepRow]
    hbar_ref: float | None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def k_sweep(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    P,
    k_list,
    config: SolverConfig | None = None,
) -> KSweepReport:
    """Warm-started sweep over increasing sharpness values.

    Per k the report records hbar, entropy over k, the positive part of the
    sup excess computed as (1/k) log(max m), the gradient sup norm, and the
    sharp-limit equation residual.  When the Hamiltonian is one-dimensional,
    autonomous and drift-free, the classical cell-problem value is attached
    as the reference.
    """
    ks = [float(k) for k in k_list]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_list must be strictly increasing")
    base = config if config is not None else SolverConfig(k=ks[0])
    P_tuple = tuple(np.atleast_1d(np.asarray(P, dtype=float)))
    rows: list[KSweepRow] = []
    warm = None
    for k in ks:
        cfg = replace(base, k=k, P=P_tuple, k_continuation=False)
        res = minimize(ham, grid, cfg, warm_start=warm)
        warm = res.u
        diag = mather_diagnostics(ham, grid, cfg, res)
        sup_pos = max(0.0, math.log(float(np.max(res.m.values))) / k)
        rows.append(
            KSweepRow(
                k=k,
                hbar=res.hbar,
                entropy_over_k=diag.entropy_over_k,
                sup_excess_pos=sup_pos,
                lip_norm=res.lip_norm,
                aronsson_residual=aronsson_residual(ham, grid, cfg, res.u),
                converged=res.converged,
            )
        )

    return KSweepReport(rows=rows, hbar_ref=classical_reference(ham, P_tuple[0]))


def write_ksweep_csv(report: KSweepReport, path, sidecar: dict | None = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "hbar", "entropy_over_k", "sup_excess_pos", "lip_norm", "aronsson_residual", "converged"])
        for r in report.rows:
            writer.writerow(
                [repr(float(r.k)), repr(float(r.hbar)), repr(float(r.entropy_over_k)),
                 repr(float(r.sup_excess_pos)), repr(float(r.lip_norm)),
                 repr(float(r.aronsson_residual)), int(r.converged)]
            )
    if sidecar is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump({"hbar_ref": report.hbar_ref, **sidecar}, fh, sort_keys=True, indent=2)
            fh.write("\n")


def classical_reference(ham: MechanicalHamiltonian, P: float) -> float | None:
    """Classical cell-problem value of ``ham`` at momentum P, when it applies.

    The oracle covers d = 1 with zero drift eta and a time-independent
    potential; it is evaluated on lam*V.  Returns None for any other
    Hamiltonian.
    """
    if ham.d != 1 or not all(spec.is_zero() for spec in ham.eta) or ham.V.depends_on(1):
        return None
    scaled = FourierSpec.build(1, [(t.freq[:1], ham.lam * t.cos, ham.lam * t.sin) for t in ham.V.terms])
    return pendulum_reference(scaled, float(P))


def pendulum_reference(V: FourierSpec, P: float, n_quad: int = 10_000, tol: float = 1e-10) -> float:
    """Classical cell-problem value for H = p^2/2 + V(x) on the circle.

    Independent of the variational solver: below the critical momentum
    P* = integral sqrt(2*(max V - V)) the value is max V; above it, the unique
    E >= max V with integral sqrt(2*(E - V)) = |P|, found by bisection over a
    midpoint-rule quadrature.
    """
    if V.nvars == 2:
        if V.depends_on(1):
            raise ValueError("reference requires a time-independent potential")
        V = FourierSpec.build(1, [(t.freq[:1], t.cos, t.sin) for t in V.terms])
    elif V.nvars != 1:
        raise ValueError("reference requires a one-dimensional potential")

    x_mid = (np.arange(n_quad) + 0.5) / n_quad
    Vq = np.asarray(V.evaluate(x_mid), dtype=float) + np.zeros(n_quad)
    # include the uniform nodes so band-limited maxima land exactly
    V_nodes = np.asarray(V.evaluate(np.arange(n_quad) / n_quad), dtype=float) + np.zeros(n_quad)
    v_max = float(max(np.max(Vq), np.max(V_nodes)))

    def momentum_of(E: float) -> float:
        return float(np.mean(np.sqrt(2.0 * np.maximum(E - Vq, 0.0))))

    p_crit = momentum_of(v_max)
    p_abs = abs(float(P))
    if p_abs <= p_crit:
        return v_max
    hi = v_max + 0.5 * p_abs**2 + 1.0
    return float(brentq(lambda E: momentum_of(E) - p_abs, v_max, hi, xtol=tol))
