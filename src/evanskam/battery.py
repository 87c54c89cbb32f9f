"""Named invariant battery behind the ``check`` command.

Each check is small enough to run on a 16x16 grid in well under a second;
the whole battery stays below ten seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evans_solver as es
from .effective import convexity_check
from .evans_solver import SolverConfig, hbar_bounds, lipschitz_bound, minimize
from .hamiltonians import (
    ChiParams,
    FourierSpec,
    HamiltonianTable,
    MechanicalHamiltonian,
    chi_bound,
    drift_diffusion,
)
from .mfg_diagnostics import mfg_residuals, minmax_upper_bound
from .torus_grid import TorusGrid

__all__ = ["CheckResult", "run_battery"]

# Largest frequency per axis of the terms of ``_random_field``.
_MAX_FREQ = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _battery_hamiltonian() -> MechanicalHamiltonian:
    eta = FourierSpec.build(1, [((1,), 0.7, 0.0)])
    V = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((1, 1), 0.0, 0.25)])
    return MechanicalHamiltonian(d=1, eta=(eta,), V=V)


def _random_field(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    # kept band-limited and O(1) in gradient so objective values stay O(1);
    # the 1e-13 shift-invariance threshold assumes that scale
    coords = grid.coords()
    out = grid.zeros()
    for _ in range(6):
        kx = int(rng.integers(-_MAX_FREQ, _MAX_FREQ + 1))
        kt = int(rng.integers(-_MAX_FREQ, _MAX_FREQ + 1))
        amp = float(rng.normal(scale=0.05))
        phase = 2.0 * np.pi * (kx * coords[0] + kt * coords[-1]) + float(rng.uniform(0, 2 * np.pi))
        out = out + amp * np.cos(phase)
    return grid.project_zero_mean(out)


def _sample_points(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points z in [0, 1)^2 and momenta p in [-2, 2), drawn z then p point by point, stacked as (2, n) and (1, n)."""
    draws = [(rng.uniform(0, 1, size=2), rng.uniform(-2, 2, size=1)) for _ in range(n)]
    return np.array([z for z, _ in draws]).T, np.array([p for _, p in draws]).T


def run_battery(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    grid = TorusGrid(1, 16, 16)
    ham = _battery_hamiltonian()
    cfg = SolverConfig(k=4.0)
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    x, t = grid.coords()

    # 1. spectral exactness on a band-limited field
    f = np.broadcast_to(np.sin(2 * np.pi * x) * np.cos(4 * np.pi * t), grid.shape)
    exact = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(4 * np.pi * t)
    err = float(np.max(np.abs(grid.deriv(f, 0) - exact)))
    check("spectral-exactness", err <= 1e-12, f"max error {err:.2e}")

    # 2. derivative mean annihilation
    g0 = _random_field(grid, rng) + 1.3
    worst = max(abs(grid.integrate(grid.deriv(g0, a))) for a in (0, 1))
    check("derivative-mean-annihilation", worst <= 1e-13, f"max |mean| {worst:.2e}")

    # 3. skew-adjointness of the derivative
    a_f, b_f = _random_field(grid, rng), _random_field(grid, rng)
    worst = 0.0
    for axis in (0, 1):
        lhs = grid.inner(b_f, grid.deriv(a_f, axis))
        rhs = -grid.inner(a_f, grid.deriv(b_f, axis))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    check("spectral-adjointness", worst <= 1e-12, f"max relative defect {worst:.2e}")

    # 4. band-limited quadrature
    q = grid.integrate(np.broadcast_to(np.cos(2 * np.pi * x) ** 2, grid.shape))
    check("quadrature-band-limited", abs(q - 0.5) <= 1e-15, f"|mean - 0.5| = {abs(q - 0.5):.2e}")

    # 5. zero-mean projection idempotence
    p1 = grid.project_zero_mean(g0)
    p2 = grid.project_zero_mean(p1)
    defect = float(np.max(np.abs(p1 - p2))) + abs(float(np.mean(p1)))
    check("zero-mean-projection", defect <= 1e-14, f"defect {defect:.2e}")

    # 6. Hamiltonian derivatives vs centered finite differences, one table per stack of points
    z, p = _sample_points(rng, 100)
    h = 1e-6

    def H_at(z_s):
        table = HamiltonianTable(ham, z_s)
        return table.H(table.H_p(p))

    base = HamiltonianTable(ham, z)
    w = base.H_p(p)
    fd_p = (base.H(base.H_p(p + h)) - base.H(base.H_p(p - h))) / (2 * h)
    e_x, e_t = np.array([[h], [0.0]]), np.array([[0.0], [h]])
    fd_x = (H_at(z + e_x) - H_at(z - e_x)) / (2 * h)
    fd_t = (H_at(z + e_t) - H_at(z - e_t)) / (2 * h)
    scale = 1.0 + np.abs(base.H(w))
    worst = max(
        float(np.max(np.abs(w[0] - fd_p) / scale)),
        float(np.max(np.abs(base.gradV[0] - fd_x) / scale)),
        float(np.max(np.abs(base.H_t(w) - fd_t) / scale)),
    )
    check("hamiltonian-derivatives", worst <= 1e-7, f"max relative defect {worst:.2e}")

    # 7. diffusion factorization a = sigma sigma^T
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(0, 1, size=2)
        q_vec = rng.uniform(-3, 3, size=2)
        k_val = float(rng.uniform(0.5, 64.0))
        a_mat, sigma, _ = drift_diffusion(ham, k_val, z, q_vec)
        worst = max(worst, float(np.max(np.abs(a_mat - sigma @ sigma.T))))
    check("diffusion-factorization", worst <= 1e-14, f"max |a - sigma sigma^T| {worst:.2e}")

    # 8. drift independent of k for the mechanical family
    worst = 0.0
    for _ in range(20):
        z = rng.uniform(0, 1, size=2)
        q_vec = rng.uniform(-3, 3, size=2)
        b1 = drift_diffusion(ham, 1.0, z, q_vec)[2]
        b2 = drift_diffusion(ham, 1e6, z, q_vec)[2]
        worst = max(worst, abs(b1 - b2))
    check("drift-k-independence", worst == 0.0, f"max |b(1) - b(1e6)| {worst:.2e}")

    # 9. Fenchel equality at v = H_p
    z, p = _sample_points(rng, 50)
    table = HamiltonianTable(ham, z)
    w = table.H_p(p)
    worst = float(np.max(np.abs(table.L(w) + table.H(w) - p[0] * w[0])))
    check("fenchel-equality", worst <= 1e-12, f"max |L + H - p.v| {worst:.2e}")

    # 10. Fenchel inequality over a velocity grid: one row of velocities per point
    z, p = (a[..., None] for a in _sample_points(rng, 10))
    table = HamiltonianTable(ham, z)
    w = table.H_p(p)
    v_grid = w[0] + np.arange(-1.0, 1.0001, 0.01)
    lo = float(np.min(table.L([v_grid]) + table.H(w) - p[0] * v_grid))
    check("fenchel-grid-inequality", -1e-9 <= lo <= 1e-3, f"min grid gap {lo:.2e}")

    # 11. drift bound chi fitted and verified at every momentum on the refined mesh
    try:
        chi = chi_bound(ham, grid)
        chi_ok = True
        check("chi-bound-verification", True, f"c={chi.c:.4f}, d0={chi.d0:.4f}")
    except Exception as exc:  # noqa: BLE001 - report any verification failure
        chi = ChiParams(c=0.0, d0=0.0)
        chi_ok = False
        check("chi-bound-verification", False, str(exc))

    # 12. objective shift invariance
    u_rand = _random_field(grid, rng)
    J0, _ = es.objective(ham, grid, cfg, u_rand)
    J1, _ = es.objective(ham, grid, cfg, u_rand + 3.7)
    check("objective-shift-invariance", abs(J1 - J0) <= 1e-13, f"|J(u+c) - J(u)| = {abs(J1 - J0):.2e}")

    # 13. objective convexity along a segment
    u1, u2 = _random_field(grid, rng), _random_field(grid, rng)
    Ju1, _ = es.objective(ham, grid, cfg, u1)
    Ju2, _ = es.objective(ham, grid, cfg, u2)
    worst = -np.inf
    for theta in np.linspace(0.0, 1.0, 11):
        Jmix, _ = es.objective(ham, grid, cfg, theta * u1 + (1 - theta) * u2)
        worst = max(worst, Jmix - (theta * Ju1 + (1 - theta) * Ju2))
    check("objective-convexity", worst <= 1e-10, f"max chord defect {worst:.2e}")

    # 14. analytic gradient vs directional finite differences of J
    u0 = _random_field(grid, rng)
    g_arr = es.gradient(ham, grid, cfg, u0).values
    worst = 0.0
    for _ in range(5):
        v = _random_field(grid, rng)
        step = 1e-5
        Jp, _ = es.objective(ham, grid, cfg, u0 + step * v)
        Jm, _ = es.objective(ham, grid, cfg, u0 - step * v)
        fd = (Jp - Jm) / (2 * step)
        an = grid.inner(g_arr, v)
        worst = max(worst, abs(an - fd) / (1.0 + abs(fd)))
    check("gradient-finite-difference", worst <= 1e-6, f"max relative defect {worst:.2e}")

    # 15/16/17. linearized operator: symmetry, constants in the null space, positivity
    v1, v2 = _random_field(grid, rng), _random_field(grid, rng)
    Av1 = es.linearized_el_apply(ham, grid, cfg, u0, v1).values
    Av2 = es.linearized_el_apply(ham, grid, cfg, u0, v2).values
    b12 = grid.inner(v2, Av1)
    b21 = grid.inner(v1, Av2)
    check("operator-symmetry", abs(b12 - b21) <= 1e-10 * (1 + abs(b12)), f"|B(v,w)-B(w,v)| = {abs(b12 - b21):.2e}")
    const_out = float(np.max(np.abs(es.linearized_el_apply(ham, grid, cfg, u0, np.ones(grid.shape)).values)))
    check("operator-null-constants", const_out <= 1e-13, f"max |L 1| = {const_out:.2e}")
    _, m_field = es.objective(ham, grid, cfg, u0)
    st_m = m_field.values
    du0 = [grid.deriv(u0, 0)]
    w0 = [cfg.momentum(1)[0] + du0[0] + ham.eta[0].evaluate(t)]
    dv = grid.deriv(v1, 0)
    vt = grid.deriv(v1, 1)
    quad_direct = grid.integrate(st_m * (cfg.k * (vt + w0[0] * dv) ** 2 + dv**2)) / cfg.k
    bvv = grid.inner(v1, Av1)
    rel = abs(bvv - quad_direct) / (1.0 + abs(quad_direct))
    check("operator-positivity", bvv >= -1e-12 and rel <= 1e-9, f"B(v,v)={bvv:.3e}, assembly defect {rel:.2e}")

    # 18. the solver's f against the Legendre form u_t + p.w - L(w), p = P + grad u, w = H_p(p),
    # at random iterates; its own generator leaves every other check's draws as they were
    state_rng = np.random.default_rng((seed, 18))
    state_cfg = SolverConfig(k=4.0, P=(0.37,))
    table = HamiltonianTable(ham, grid.coords())
    worst = 0.0
    for _ in range(4):
        u_s = _random_field(grid, state_rng)
        f_s = es.evaluate_state(ham, grid, state_cfg, u_s).f
        p_s = [state_cfg.momentum(1)[0] + grid.deriv(u_s, 0)]
        w_s = table.H_p(p_s)
        legendre = grid.deriv(u_s, 1) + p_s[0] * w_s[0] - table.L(w_s)
        worst = max(worst, float(np.max(np.abs(f_s - legendre)) / np.max(np.abs(legendre))))
    check("state-legendre-identity", worst <= 1e-13, f"max relative |f - (u_t + p.w - L)| {worst:.2e}")

    # 19. solve + effective-constant bounds
    res = minimize(ham, grid, cfg)
    lo_b, hi_b = hbar_bounds(ham, grid)
    check(
        "hbar-jensen-bounds",
        res.converged and lo_b - 1e-9 <= res.hbar <= hi_b + 1e-9,
        f"hbar={res.hbar:.6f} in [{lo_b:.3f}, {hi_b:.3f}], converged={res.converged}",
    )

    # 20. mean-field-game certificates of the solve
    rep = mfg_residuals(ham, grid, cfg, res)
    ok = (
        rep.hjb_residual <= 1e-10
        and rep.transport_residual <= cfg.grad_tol
        and abs(rep.mass_m - 1.0) <= 1e-10
        and abs(rep.mean_u) <= 1e-12
        and float(np.min(res.m.values)) > 0.0
    )
    check("mfg-certificates", ok, f"hjb={rep.hjb_residual:.2e}, transport={rep.transport_residual:.2e}, mass defect={abs(rep.mass_m-1):.2e}")

    # 21. min-max upper bound dominates the soft average
    ub = minmax_upper_bound(ham, grid, res.u)
    check("minmax-dominates-hbar", ub >= res.hbar - 1e-9, f"upper={ub:.6f} vs hbar={res.hbar:.6f}")

    # 22. Lipschitz certificate covers the computed minimizer
    cert = lipschitz_bound(chi)
    check(
        "lipschitz-certificate",
        chi_ok and cert.monitor(res.lip_norm),
        f"lip_norm={res.lip_norm:.4f} vs K={cert.K:.4f}",
    )

    # 23. convexity margin of a quadratic table
    repc = convexity_check(0.5 * np.arange(-1.0, 1.0001, 0.25) ** 2)
    check(
        "convexity-check-quadratic",
        repc.max_violation <= 1e-12 and abs(repc.min_second_difference - 0.25**2) <= 1e-12,
        f"violation={repc.max_violation:.2e}, margin={repc.min_second_difference:.4e}",
    )

    return results

