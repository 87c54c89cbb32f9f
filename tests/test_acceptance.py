"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Each criterion prints
``ACCEPTANCE <n> <name>: PASS|FAIL`` before asserting, so a red criterion is
still reported with its measured values.

Known red: criterion 6's rotation-vector clause.  The independent
constant-flux oracle (conftest.flux_oracle_hbar, which never touches the
torus solver) puts the truncation error of a step-0.1 centered difference
of hbar_16 at 3.5e-2 near the transition at |P| = 4/pi, where the effective
Hamiltonian is forming a corner, so the demanded 5e-3 is not attainable by
any solver.  All other clauses of criterion 6 pass.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import (
    mixed_hamiltonian,
    pendulum_hamiltonian,
    t1_hamiltonian,
    t1_minimizer,
    trivial_hamiltonian,
)
from evanskam.effective import biconjugate, convexity_check, legendre_transform, rotation_consistency, sweep_P
from evanskam.evans_solver import (
    SolverConfig,
    gradient,
    hbar_bounds,
    linearized_el_apply,
    lipschitz_bound,
    minimize,
    objective,
)
from evanskam.hamiltonians import ChiParams, chi_bound, drift_diffusion
from evanskam.mather_limits import holonomy_residual, k_sweep, mather_diagnostics
from evanskam.mfg_diagnostics import mfg_residuals
from evanskam.torus_grid import ScalarField, TorusGrid


def report(number: int, name: str, clauses: list[tuple[str, bool, str]], runtime: float, limit: float) -> None:
    ok = all(passed for _, passed, _ in clauses) and runtime < limit
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({runtime:.1f}s)")
    for label, passed, detail in clauses:
        print(f"    [{'ok' if passed else 'XX'}] {label}: {detail}")
    if runtime >= limit:
        print(f"    [XX] runtime: {runtime:.1f}s exceeds {limit:.0f}s")
    assert ok, f"criterion {number} failed: " + "; ".join(
        f"{label} ({detail})" for label, passed, detail in clauses if not passed
    )


def random_direction(grid, rng, max_freq=6):
    coords = grid.coords()
    out = grid.zeros()
    for _ in range(6):
        freqs = [int(rng.integers(-max_freq, max_freq + 1)) for _ in range(grid.n_axes)]
        phase = sum((2 * np.pi * f) * c for f, c in zip(freqs, coords))
        out = out + float(rng.normal(scale=0.2)) * np.cos(np.asarray(phase) + float(rng.uniform(0, 7)))
    return grid.project_zero_mean(out)


# -- shared battery of named solves (criteria 3, 8, 9) --------------------------


@pytest.fixture(scope="module")
def battery():
    cases = [
        ("trivial", trivial_hamiltonian(), TorusGrid(1, 32, 32), SolverConfig(k=8.0)),
        ("drift-P0", t1_hamiltonian(), TorusGrid(1, 32, 64), SolverConfig(k=8.0)),
        ("drift-P1", t1_hamiltonian(), TorusGrid(1, 32, 64), SolverConfig(k=8.0, P=(1.0,))),
        ("pendulum-k4", pendulum_hamiltonian(), TorusGrid(1, 64, 16), SolverConfig(k=4.0)),
        ("pendulum-k8-P1.2", pendulum_hamiltonian(), TorusGrid(1, 64, 16), SolverConfig(k=8.0, P=(1.2,))),
        ("pendulum-k16-P2", pendulum_hamiltonian(), TorusGrid(1, 64, 16), SolverConfig(k=16.0, P=(2.0,))),
        ("pendulum-k64-P2", pendulum_hamiltonian(), TorusGrid(1, 64, 16), SolverConfig(k=64.0, P=(2.0,))),
        ("mixed-k4", mixed_hamiltonian(), TorusGrid(1, 32, 32), SolverConfig(k=4.0, P=(0.5,))),
    ]
    out = []
    for name, ham, grid, cfg in cases:
        res = minimize(ham, grid, cfg)
        out.append((name, ham, grid, cfg, res))
    return out


def test_criterion_1_gradient_consistency():
    t0 = time.perf_counter()
    grid = TorusGrid(1, 32, 32)
    ham = pendulum_hamiltonian()
    cfg = SolverConfig(k=4.0)
    rng = np.random.default_rng(2024)
    u = random_direction(grid, rng)
    g = gradient(ham, grid, cfg, u).values
    worst = 0.0
    for _ in range(5):
        v = random_direction(grid, rng)
        step = 1e-5
        Jp, _ = objective(ham, grid, cfg, u + step * v)
        Jm, _ = objective(ham, grid, cfg, u - step * v)
        fd = (Jp - Jm) / (2 * step)
        an = grid.inner(g, v)
        worst = max(worst, abs(an - fd) / (1.0 + abs(fd)))
    runtime = time.perf_counter() - t0
    report(
        1,
        "gradient-consistency",
        [("relative error vs central differences <= 1e-6", worst <= 1e-6, f"max {worst:.2e}")],
        runtime,
        5.0,
    )


def test_criterion_2_exact_solvable_cases():
    t0 = time.perf_counter()
    clauses = []

    grid0 = TorusGrid(1, 32, 32)
    res0 = minimize(trivial_hamiltonian(), grid0, SolverConfig(k=8.0))
    clauses.append(
        ("free case hbar = 0 +- 1e-10", res0.converged and abs(res0.hbar) <= 1e-10, f"hbar={res0.hbar:.2e}")
    )

    grid = TorusGrid(1, 64, 64)
    for P, expected in ((0.0, 0.25), (1.0, 0.75)):
        res = minimize(t1_hamiltonian(), grid, SolverConfig(k=8.0, P=(P,)))
        exact = np.broadcast_to(t1_minimizer(P, grid.n_t), grid.shape)
        aligned = res.u.values - grid.integrate(res.u.values - exact)
        u_err = float(np.max(np.abs(aligned - exact)))
        ok = res.converged and abs(res.hbar - expected) <= 1e-8 and u_err <= 1e-8
        clauses.append(
            (
                f"drift case P={P}: hbar = {expected} +- 1e-8 and sup|u - analytic| <= 1e-8",
                ok,
                f"hbar={res.hbar:.10f}, u_err={u_err:.2e}",
            )
        )
    report(2, "exact-solvable-cases", clauses, time.perf_counter() - t0, 30.0)


def test_criterion_3_hbar_jensen_bounds(battery):
    t0 = time.perf_counter()
    clauses = []
    for name, ham, grid, cfg, res in battery:
        lo, hi = hbar_bounds(ham, grid, P=cfg.momentum(ham.d))
        ok = (not res.converged) or (lo - 1e-9 <= res.hbar <= hi + 1e-9)
        clauses.append(
            (f"{name}: min H <= hbar <= max H(z, P)", ok, f"{lo:.4f} <= {res.hbar:.4f} <= {hi:.4f}, converged={res.converged}")
        )
    all_converged = all(res.converged for _, _, _, _, res in battery)
    clauses.append(("battery solves converged", all_converged, f"{sum(r.converged for *_, r in battery)}/{len(battery)}"))
    report(3, "hbar-jensen-bounds", clauses, time.perf_counter() - t0, 120.0)


def test_criterion_4_autonomous_reduction():
    t0 = time.perf_counter()
    ham = pendulum_hamiltonian()
    clauses = []
    for P in (0.0, 1.7):
        res_t = minimize(ham, TorusGrid(1, 64, 64), SolverConfig(k=8.0, P=(P,)))
        res_a = minimize(ham, TorusGrid(1, 64, 1), SolverConfig(k=8.0, P=(P,)))
        diff = abs(res_t.hbar - res_a.hbar)
        clauses.append(
            (
                f"P={P}: |hbar(64x64) - hbar(64x1)| <= 1e-6",
                res_t.converged and res_a.converged and diff <= 1e-6,
                f"diff={diff:.2e}",
            )
        )
    report(4, "autonomous-reduction", clauses, time.perf_counter() - t0, 60.0)


def test_criterion_5_operator_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    ham = mixed_hamiltonian()

    worst_fact = 0.0
    for _ in range(100):
        z = rng.uniform(0, 1, size=2)
        q = rng.uniform(-3, 3, size=2)
        k_val = float(rng.uniform(0.5, 64.0))
        a, sigma, _ = drift_diffusion(ham, k_val, z, q)
        worst_fact = max(worst_fact, float(np.max(np.abs(a - sigma @ sigma.T))))

    grid = TorusGrid(1, 16, 16)
    cfg = SolverConfig(k=4.0)
    u = random_direction(grid, rng, max_freq=3)
    worst_sym = 0.0
    min_quad = np.inf
    for _ in range(5):
        v = random_direction(grid, rng, max_freq=3)
        w = random_direction(grid, rng, max_freq=3)
        Av = linearized_el_apply(ham, grid, cfg, u, v).values
        Aw = linearized_el_apply(ham, grid, cfg, u, w).values
        Bvw = grid.inner(w, Av)
        Bwv = grid.inner(v, Aw)
        worst_sym = max(worst_sym, abs(Bvw - Bwv) / (1.0 + abs(Bvw)))
        min_quad = min(min_quad, grid.inner(v, Av))
    const_image = float(np.max(np.abs(linearized_el_apply(ham, grid, cfg, u, np.ones(grid.shape)).values)))

    clauses = [
        ("a - sigma sigma^T = 0 to 1e-14 at 100 samples", worst_fact <= 1e-14, f"max {worst_fact:.2e}"),
        ("bilinear form symmetric to 1e-10 relative", worst_sym <= 1e-10, f"max {worst_sym:.2e}"),
        ("constants in the null space", const_image <= 1e-13, f"max |L 1| = {const_image:.2e}"),
        ("B(v, v) >= -1e-12", min_quad >= -1e-12, f"min {min_quad:.2e}"),
    ]
    report(5, "operator-certificates", clauses, time.perf_counter() - t0, 5.0)


def test_criterion_6_duality_suite():
    t0 = time.perf_counter()
    ham = pendulum_hamiltonian()
    grid = TorusGrid(1, 64, 8)
    P_grid = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    # tight inner tolerance: the strictness margin of hbar_16 at the flat
    # bottom is ~5e-14 (independent flux oracle), so entry values must be
    # resolved well below 1e-12; every entry still meets the 1e-9 contract
    cfg = SolverConfig(k=16.0, grad_tol=1e-11)
    table = sweep_P(ham, grid, 16.0, P_grid, config=cfg)

    # the sweep runs at 1e-11 to resolve the flat-branch margin; the solver
    # contract level (1e-9) is certified by spot re-solves at the ends/center
    recheck = [
        minimize(ham, grid, SolverConfig(k=16.0, P=(float(P),), grad_tol=1e-9)).converged
        for P in (P_grid[0], 0.0, P_grid[-1])
    ]
    grad_ok = all(recheck)

    conv = convexity_check(table.hbar)
    leg = legendre_transform(table, np.round(np.arange(-1.6, 1.6001, 0.1), 10))
    back = biconjugate(table)
    interior = slice(2, -2)
    bic_dev = float(np.max(np.abs(back[interior] - table.hbar[interior])))
    fy = table.hbar[None, :] + leg.lbar[:, None] - leg.Q_grid @ table.P_grid.T
    fy_min = float(fy.min())
    rot_disc, _ = rotation_consistency(table)

    clauses = [
        ("entries meet the 1e-9 gradient contract", grad_ok and np.all(np.isfinite(table.hbar)), f"spot checks {recheck}"),
        ("midpoint-convexity violation <= 1e-6", conv.max_violation <= 1e-6, f"{conv.max_violation:.2e}"),
        ("strictness margin > 0", conv.min_second_difference > 0, f"{conv.min_second_difference:.2e}"),
        ("biconjugate deviation <= 1e-2 (interior)", bic_dev <= 1e-2, f"{bic_dev:.2e}"),
        ("Fenchel-Young >= -1e-9", fy_min >= -1e-9, f"min {fy_min:.2e}"),
        (
            "rotation vs centered-difference derivative <= 5e-3",
            rot_disc <= 5e-3,
            f"{rot_disc:.4f} (flux oracle: truncation alone is 3.5e-2 at the transition; unattainable as specified)",
        ),
    ]
    report(6, "duality-suite", clauses, time.perf_counter() - t0, 300.0)


def test_criterion_7_limit_trends():
    t0 = time.perf_counter()
    ham = pendulum_hamiltonian()
    grid = TorusGrid(1, 128, 128)
    rep = k_sweep(ham, grid, (0.0,), [4, 8, 16, 32, 64])
    hbar = np.array([r.record["hbar"] for r in rep.rows])
    s_over_k = np.abs([r.entropy_over_k for r in rep.rows])
    aron = np.array([r.aronsson_residual for r in rep.rows])
    lip = np.array([r.record["lip_norm"] for r in rep.rows])
    sup_pos = np.array([r.sup_excess_pos for r in rep.rows])

    ref = rep.hbar_ref
    clauses = [
        ("classical oracle value is 1", ref == pytest.approx(1.0, abs=1e-9), f"{ref}"),
        ("hbar(64) in [0.8, 1 + 1e-6]", 0.8 <= hbar[-1] <= 1.0 + 1e-6, f"{hbar[-1]:.6f}"),
        ("|S/k| at 64 < at 8 and <= 0.05", s_over_k[-1] < s_over_k[1] and s_over_k[-1] <= 0.05, f"{s_over_k[1]:.4f} -> {s_over_k[-1]:.4f}"),
        # at P = 0 the exact minimizer is u = 0 for every k, so the residual
        # sits at the floating-point floor for all k; the strict decrease is
        # then vacuous and is certified on the noncollapsed branch below
        (
            "Aronsson residual at 64 < at 8 (or both at the zero floor)",
            aron[-1] < aron[1] or (aron[-1] <= 1e-12 and aron[1] <= 1e-12),
            f"{aron[1]:.2e} -> {aron[-1]:.2e}",
        ),
        ("lip_norm variation <= 10%", float(np.max(lip) - np.min(lip)) <= 0.10 * max(float(np.max(lip)), 1e-30) + 1e-30, f"range [{np.min(lip):.2e}, {np.max(lip):.2e}]"),
        ("sup_excess+ nonincreasing within 20%", bool(np.all(np.diff(sup_pos) <= 0.2 * sup_pos[:-1] + 1e-12)), f"{[round(float(s), 4) for s in sup_pos]}"),
    ]

    # supplementary non-degenerate branch: P = 2 has a nontrivial minimizer,
    # so the second-order residual is genuinely nonzero and must shrink
    grid2 = TorusGrid(1, 64, 8)
    rep2 = k_sweep(ham, grid2, (2.0,), [8, 64])
    aron2 = np.array([r.aronsson_residual for r in rep2.rows])
    clauses.append(
        ("supplementary P=2: residual at 64 < at 8 (nonzero)", aron2[1] < aron2[0] and aron2[0] > 1e-6, f"{aron2[0]:.2e} -> {aron2[1]:.2e}")
    )
    report(7, "limit-trends", clauses, time.perf_counter() - t0, 600.0)


def test_criterion_8_mfg_certification(battery):
    t0 = time.perf_counter()
    clauses = []
    worst = {"hjb": 0.0, "transport": 0.0, "mass": 0.0, "gap": 0.0, "holonomy": 0.0}
    for name, ham, grid, cfg, res in battery:
        if not res.converged or cfg.grad_tol > 1e-9:
            continue
        repm = mfg_residuals(ham, grid, cfg, res)
        diag = mather_diagnostics(ham, grid, cfg, res)
        hol = holonomy_residual(ham, grid, cfg, res)
        worst["hjb"] = max(worst["hjb"], repm.hjb_residual)
        worst["transport"] = max(worst["transport"], repm.transport_residual)
        worst["mass"] = max(worst["mass"], abs(repm.mass_m - 1.0))
        worst["gap"] = max(worst["gap"], diag.identity_gap)
        worst["holonomy"] = max(worst["holonomy"], hol)
    clauses.append(("hjb residual <= 1e-10", worst["hjb"] <= 1e-10, f"max {worst['hjb']:.2e}"))
    clauses.append(("transport residual <= 1e-9", worst["transport"] <= 1e-9, f"max {worst['transport']:.2e}"))
    clauses.append(("mass = 1 +- 1e-10", worst["mass"] <= 1e-10, f"max defect {worst['mass']:.2e}"))
    clauses.append(("action identity gap <= 1e-7", worst["gap"] <= 1e-7, f"max {worst['gap']:.2e}"))
    clauses.append(("holonomy residual <= 1e-7", worst["holonomy"] <= 1e-7, f"max {worst['holonomy']:.2e}"))

    # negative control: perturbing the minimizer must break holonomy
    name, ham, grid, cfg, res = next(c for c in battery if c[0] == "pendulum-k8-P1.2")
    x = grid.coords()[0]
    bad_u = grid.project_zero_mean(res.u.values + 0.1 * np.broadcast_to(np.sin(2 * np.pi * x), grid.shape))
    _, bad_m = objective(ham, grid, cfg, bad_u)
    bad = dataclasses.replace(res, u=ScalarField(grid, bad_u), m=bad_m, converged=False)
    bad_hol = holonomy_residual(ham, grid, cfg, bad)
    clauses.append(("negative control (perturbed u) > 1e-3", bad_hol > 1e-3, f"{bad_hol:.2e}"))
    report(8, "mfg-certification", clauses, time.perf_counter() - t0, 120.0)


def test_criterion_9_lipschitz_certificate(battery):
    t0 = time.perf_counter()
    cert_slope = lipschitz_bound(ChiParams(c=1.0, d0=0.0))
    cert_zero = lipschitz_bound(ChiParams(c=0.0, d0=0.0))
    clauses = [
        ("K = e - 1 +- 1e-6 for chi(s) = s", abs(cert_slope.K - (math.e - 1.0)) <= 1e-6, f"K={cert_slope.K:.9f}"),
        ("K = 1 +- 1e-6 for chi = 0", abs(cert_zero.K - 1.0) <= 1e-6, f"K={cert_zero.K:.9f}"),
    ]
    worst_ratio = 0.0
    for name, ham, grid, cfg, res in battery:
        cert = lipschitz_bound(chi_bound(ham, grid))
        worst_ratio = max(worst_ratio, res.lip_norm / cert.K)
        if not cert.monitor(res.lip_norm):
            clauses.append((f"{name}: lip_norm within 1.1 K", False, f"{res.lip_norm:.3f} vs K={cert.K:.3f}"))
    clauses.append(("solver lip_norm <= 1.1 K across the battery", worst_ratio <= 1.1, f"max ratio {worst_ratio:.3f}"))
    report(9, "lipschitz-certificate", clauses, time.perf_counter() - t0, 60.0)
