"""Mather-measure diagnostics and sharpness-limit studies.

The minimizing measure concentrates on the graph v = H_p(z, P + grad u) with
marginal m, so every integral against it reduces to an integral against m;
the measure itself is never materialized.  Diagnostics check the action and
entropy identities and the holonomy constraint; the k-sweep records the
trends that the sharp limit prescribes (entropy over k vanishing, the
residual of the formal limit equation shrinking, uniformly bounded
gradients), and a classical one-dimensional cell-problem oracle provides the
reference value of the limiting effective constant for autonomous
potentials.  The holonomy test and the limit equation apply the solver
state's transport derivative T = D_t + H_p . grad, the latter twice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evans_solver import SolveResult, SolverConfig, _on_solve_grid, _solve_grid, evaluate_state, minimize
from .hamiltonians import FourierSpec, MechanicalHamiltonian, check_nyquist
from .torus_grid import TorusGrid, write_table

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

# Midpoint-rule nodes of the quadrature in ``pendulum_reference``, and the
# width of the bracket at which its bisection stops.
_N_QUAD = 10_000
_TOL = 1e-10


@dataclass(frozen=True)
class MatherDiagnostics:
    """Action, entropy and rotation of the minimizing measure of one solve.

    ``identity_gap`` is |action + entropy/k + hbar - P.Q|; integrating the
    holonomy constraint with the minimizer itself as test function shows the
    gap is bounded by ||u|| times the transport residual, hence vanishes at
    discrete critical points.  ``sup_excess`` = max f - hbar is (1/k) log(max m) up to rounding.
    """

    action: float
    entropy: float
    entropy_over_k: float
    rotation: np.ndarray
    sup_excess: float
    identity_gap: float


def mather_diagnostics(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    result: SolveResult,
) -> MatherDiagnostics:
    """Action integral, entropy and rotation vector of the solve's measure, weighted by the stored ``result.m``.

    H_p and f are re-derived from ``result.u``.  The entropy uses the closed
    form k * mean(m * (f - hbar)) rather than m log m, which is exact by the
    pointwise identity and immune to underflow where m is negligible.  An
    autonomous solve is constant in t, so it is evaluated on the one time
    plane it ran on (``_on_solve_grid``).  ``k_sweep`` reports each row's
    entropy over k and sup excess from this function.
    """
    plane, k, hbar = _solve_grid(ham, grid), config.k, result.hbar
    st = evaluate_state(ham, plane, config, _on_solve_grid(plane, grid, result))
    m = _on_solve_grid(plane, grid, result.m)
    action = plane.integrate(m * st.table.L(st.w))  # L(z, v) at the velocity v = H_p
    entropy = k * plane.integrate(m * (st.f - hbar))
    rotation = np.array([plane.integrate(m * wi) for wi in st.w])
    gap = abs(action + entropy / k + hbar - float(st.P @ rotation))
    return MatherDiagnostics(action, entropy, entropy / k, rotation, float(np.max(st.f)) - hbar, gap)


def holonomy_test_fields(grid: TorusGrid) -> list[np.ndarray]:
    """A fixed battery of 20 low-frequency test functions: one-term ``FourierSpec``s, cos then sin of 10 frequencies."""
    if grid.d == 1:
        freq_list = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1), (1, 2), (2, -1), (2, 2)]
    else:
        freq_list = [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
            (0, 1, 1), (1, 1, 1), (2, 0, 0), (0, 2, 0), (1, -1, 0),
        ]
    coords = grid.coords()
    return [
        FourierSpec.build(grid.n_axes, [term]).evaluate(*coords)
        for freq in freq_list
        for term in ((freq, 1.0, 0.0), (freq, 0.0, 1.0))
    ]


def holonomy_residual(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    result: SolveResult,
) -> float:
    """max_j |mean(m * (phi_j_t + grad phi_j . H_p))| over the test battery: the stored m, H_p from ``result.u``.

    Each term equals mean(gradient * phi_j) by skew-adjointness, so the
    residual is bounded by the test-field norms times the transport residual.
    """
    st = evaluate_state(ham, grid, config, result)
    m = result.m.values
    return max(abs(grid.integrate(m * st.transport(phi))) for phi in holonomy_test_fields(grid))


def aronsson_residual(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> float:
    """Sup norm of the formal sharp-limit equation applied to a minimizer.

    The residual  T(T u) + H_t + H_x . H_p, with the transport derivative
    T = D_t + H_p . grad and H_p frozen, expands to
    u_tt + 2 H_p . grad u_t + D^2u(H_p, H_p) + H_t + H_x . H_p.  It equals
    -(1/k) * (laplacian of u, for the mechanical family) at exact critical
    points, so it shrinks along sharpness sweeps.  Every second derivative
    is a product of first-derivative matrices, which drop the Nyquist mode
    of u that the solve does not determine.  The sum is
    sum_b v_b * T(D_b u) with v = (H_p, 1).
    """
    st = evaluate_state(ham, grid, config, u)
    res = sum(vb * st.transport(du) for vb, du in zip([*st.w, 1.0], [*st.du, st.ut]))
    res = st.table.drift(st.w, res)  # + H_t + H_x . H_p
    return float(np.max(np.abs(res)))


@dataclass(eq=False)
class KSweepRow:
    """One reported k: its solve's ``SolveResult.metadata()`` and diagnostics; sup_excess_pos = max(0, sup_excess)."""

    record: dict
    entropy_over_k: float
    sup_excess_pos: float
    aronsson_residual: float


@dataclass(eq=False)
class KSweepReport:
    rows: list[KSweepRow]
    hbar_ref: float | None


def _read_k_list(k_list) -> list[float]:
    """``k_list`` as floats, each k read as ``SolverConfig`` reads k (a finite, positive number).

    A value that is not a list, tuple or 1-d array, or a k that is not a
    number (a nested list included), raises ValueError, as does a list that
    is empty or not strictly increasing.
    """
    given = k_list.tolist() if isinstance(k_list, np.ndarray) else k_list
    if not isinstance(given, (list, tuple)):
        raise ValueError(f"k_list must be a list of numbers, got {k_list!r}")
    ks = [SolverConfig(k=k).k for k in given]
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_list must be nonempty and strictly increasing")
    return ks


def k_sweep(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    P,
    k_list,
    config: SolverConfig | None = None,
) -> KSweepReport:
    """Warm-started sweep over increasing sharpness values.

    Each k starts from the solve at the previous one (``minimize`` with that
    ``SolveResult``), which climbs the unreported doubling rungs 2, 4, ...
    times the previous k below k first: one warm stage over a wider jump in
    k can run out of Newton steps.

    Per k the report records the solve's ``metadata()``, whose iterations
    count the unreported rungs' steps too, then entropy over k and the
    positive part of the sup excess from ``mather_diagnostics`` and the
    sharp-limit equation residual from ``aronsson_residual``.  The solves
    and both certificates run on ``_solve_grid(ham, grid)``, one time plane
    for an autonomous Hamiltonian.  When the Hamiltonian is one-dimensional,
    autonomous and drift-free, the classical cell-problem value is attached
    as the reference.  A Nyquist violation on ``grid`` (``check_nyquist``),
    then a malformed k list (``_read_k_list``) or P, is refused before any
    solve.
    """
    check_nyquist(ham, grid)
    plane, ks = _solve_grid(ham, grid), _read_k_list(k_list)
    base = replace(config if config is not None else SolverConfig(k=ks[0]), P=P)
    rows: list[KSweepRow] = []
    res = None
    for k in ks:
        cfg = replace(base, k=k)
        res = minimize(ham, plane, cfg, warm_start=res)
        diag = mather_diagnostics(ham, plane, cfg, res)
        rows.append(KSweepRow(res.metadata(), diag.entropy_over_k, max(0.0, diag.sup_excess),
                              aronsson_residual(ham, plane, cfg, res)))

    return KSweepReport(rows=rows, hbar_ref=classical_reference(ham, base.momentum(ham.d)[0]))


def write_ksweep_csv(report: KSweepReport, path, sidecar: dict | None = None) -> None:
    """The columns named below per row, then each other field of its record but P (the CLI's sidecar holds P)."""
    records = [r.record for r in report.rows]
    write_table(
        path,
        ["k", "hbar", "entropy_over_k", "sup_excess_pos", "lip_norm", "aronsson_residual", "converged"],
        (
            [rec["k"], rec["hbar"], r.entropy_over_k, r.sup_excess_pos, rec["lip_norm"], r.aronsson_residual, rec["converged"]]
            for r, rec in zip(report.rows, records)
        ),
        None if sidecar is None else {"hbar_ref": report.hbar_ref, **sidecar},
        records=records, shown=("P",),
    )


def classical_reference(ham: MechanicalHamiltonian, P: float) -> float | None:
    """Classical cell-problem value of ``ham`` at momentum P, when it applies.

    The oracle covers d = 1 with zero drift eta and a time-independent
    potential.  Returns None for any other Hamiltonian.
    """
    if ham.d != 1 or not all(spec.is_zero() for spec in ham.eta) or ham.V.depends_on(1):
        return None
    return pendulum_reference(ham.V, float(P))


def pendulum_reference(V: FourierSpec, P: float) -> float:
    """Classical cell-problem value for H = p^2/2 + V(x) on the circle.

    Independent of the variational solver: below the critical momentum
    P* = integral sqrt(2*(max V - V)) the value is max V; above it, the unique
    E >= max V with integral sqrt(2*(E - V)) = |P|, found by bisection over a
    midpoint-rule quadrature of ``_N_QUAD`` nodes, to a bracket of ``_TOL``
    or of the float spacing at the root, whichever is wider.
    """
    if V.nvars == 2:
        if V.depends_on(1):
            raise ValueError("reference requires a time-independent potential")
        V = FourierSpec.build(1, [(t.freq[:1], t.cos, t.sin) for t in V.terms])
    elif V.nvars != 1:
        raise ValueError("reference requires a one-dimensional potential")

    x_mid = (np.arange(_N_QUAD) + 0.5) / _N_QUAD
    Vq = np.asarray(V.evaluate(x_mid), dtype=float) + np.zeros(_N_QUAD)
    # include the uniform nodes so band-limited maxima land exactly
    V_nodes = np.asarray(V.evaluate(np.arange(_N_QUAD) / _N_QUAD), dtype=float) + np.zeros(_N_QUAD)
    v_max = float(max(np.max(Vq), np.max(V_nodes)))

    def momentum_of(E: float) -> float:
        return float(np.mean(np.sqrt(2.0 * np.maximum(E - Vq, 0.0))))

    p_crit = momentum_of(v_max)
    p_abs = abs(float(P))
    if p_abs <= p_crit:
        return v_max
    lo, hi = v_max, v_max + 0.5 * p_abs**2 + 1.0
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # _TOL below the float spacing at the root
            break
        if momentum_of(mid) < p_abs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
