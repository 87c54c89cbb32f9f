import numpy as np
import pytest

from conftest import (
    mixed_hamiltonian,
    pendulum_hamiltonian,
    t1_hamiltonian,
    trivial_hamiltonian,
)
from evanskam.evans_solver import SolverConfig, minimize, objective
from evanskam.hamiltonians import FourierSpec
from evanskam.mather_limits import (
    aronsson_residual,
    classical_reference,
    holonomy_residual,
    holonomy_test_fields,
    k_sweep,
    mather_diagnostics,
    pendulum_reference,
    write_ksweep_csv,
)
from evanskam.mfg_diagnostics import mfg_residuals
from evanskam.torus_grid import ScalarField, TorusGrid


class TestMatherDiagnostics:
    def test_trivial_case(self):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=8.0)
        res = minimize(trivial_hamiltonian(), grid, cfg)
        diag = mather_diagnostics(trivial_hamiltonian(), grid, cfg, res)
        assert diag.action == pytest.approx(0.0, abs=1e-12)
        assert diag.entropy == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(diag.rotation, 0.0, atol=1e-12)
        assert diag.identity_gap <= 1e-12

    def test_analytic_drift_closed_forms(self):
        # m = 1, action = mean(eta^2/2 - eta^2) = -1/4, entropy = 0, hbar = 1/4
        grid = TorusGrid(1, 32, 64)
        cfg = SolverConfig(k=8.0)
        ham = t1_hamiltonian()
        res = minimize(ham, grid, cfg)
        diag = mather_diagnostics(ham, grid, cfg, res)
        assert diag.action == pytest.approx(-0.25, abs=1e-9)
        assert diag.entropy == pytest.approx(0.0, abs=1e-9)
        assert diag.identity_gap <= 1e-9

    def test_identity_gap_bounded_by_transport_residual(self):
        # gap = |mean(gradient * u)| <= ||g|| ||u|| by the adjoint pairing
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0, P=(1.2,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        rep = mfg_residuals(ham, grid, cfg, res)
        diag = mather_diagnostics(ham, grid, cfg, res)
        u_norm = grid.norm(res.u.values)
        assert diag.identity_gap <= 10.0 * max(rep.transport_residual * max(u_norm, 1.0), 1e-15)
        assert diag.identity_gap <= 1e-7

    def test_entropy_lower_bound(self):
        # pointwise y log y >= -1/e transfers to the node mean
        grid = TorusGrid(1, 32, 32)
        ham = pendulum_hamiltonian()
        for k in (4.0, 8.0, 32.0):
            cfg = SolverConfig(k=k)
            res = minimize(ham, grid, cfg)
            diag = mather_diagnostics(ham, grid, cfg, res)
            assert diag.entropy >= -1.0 / np.e - 1e-9

    def test_entropy_matches_m_log_m(self):
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0, P=(0.8,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        diag = mather_diagnostics(ham, grid, cfg, res)
        m = res.m.values
        direct = grid.integrate(m * np.log(np.maximum(m, np.finfo(float).tiny)))
        assert diag.entropy == pytest.approx(direct, abs=1e-9)

    def test_rotation_reported(self):
        grid = TorusGrid(1, 32, 8)
        cfg = SolverConfig(k=8.0, P=(2.0,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        diag = mather_diagnostics(ham, grid, cfg, res)
        assert diag.rotation.shape == (1,)
        assert diag.rotation[0] > 0.5  # steep branch moves


class TestHolonomy:
    def test_battery_size_and_means(self):
        grid = TorusGrid(1, 16, 16)
        fields = holonomy_test_fields(grid)
        assert len(fields) == 20
        for phi in fields:
            assert phi.shape == grid.shape

    def test_trivial(self):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=8.0)
        res = minimize(trivial_hamiltonian(), grid, cfg)
        assert holonomy_residual(trivial_hamiltonian(), grid, cfg, res) <= 1e-12

    def test_converged_solve_small_residual(self):
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0, P=(1.5,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        assert res.converged
        assert holonomy_residual(ham, grid, cfg, res) <= 1e-7

    def test_perturbed_candidate_fails(self):
        # negative control: breaking the minimizer must break holonomy
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0, P=(1.5,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        x = grid.coords()[0]
        bad_u = res.u.values + 0.1 * np.broadcast_to(np.sin(2 * np.pi * x), grid.shape)
        _, bad_m = objective(ham, grid, cfg, bad_u)
        bad = type(res)(
            u=ScalarField(grid, grid.project_zero_mean(bad_u)),
            hbar=res.hbar,
            m=bad_m,
            rotation=res.rotation,
            grad_norm=res.grad_norm,
            lip_norm=res.lip_norm,
            iterations=res.iterations,
            converged=False,
            k=cfg.k,
            P=res.P,
            lam=res.lam,
            epsilon=0.0,
            method="spectral",
        )
        assert holonomy_residual(ham, grid, cfg, bad) > 1e-3


class TestAronsson:
    def test_zero_for_flat_analytic_case(self):
        grid = TorusGrid(1, 32, 64)
        cfg = SolverConfig(k=8.0)
        ham = t1_hamiltonian()
        res = minimize(ham, grid, cfg)
        assert aronsson_residual(ham, grid, cfg, u=res.u.values) <= 1e-8

    def test_scales_like_inverse_k(self):
        # at exact critical points the residual is |laplacian u| / k
        grid = TorusGrid(1, 64, 8)
        ham = pendulum_hamiltonian()
        vals = {}
        warm = None
        for k in (8.0, 64.0):
            cfg = SolverConfig(k=k, P=(2.0,))
            res = minimize(ham, grid, cfg, warm_start=warm)
            warm = res.u
            lap = grid.deriv2(res.u.values, 0) + grid.deriv2(res.u.values, 1)
            vals[k] = (aronsson_residual(ham, grid, cfg, u=res.u.values), float(np.max(np.abs(lap))) / k)
        for k, (r, pred) in vals.items():
            assert r == pytest.approx(pred, rel=1e-5)
        assert vals[64.0][0] < vals[8.0][0]


class TestKSweep:
    def test_trivial_all_zero(self):
        grid = TorusGrid(1, 16, 16)
        rep = k_sweep(trivial_hamiltonian(), grid, (0.0,), [4, 8, 16])
        for row in rep.rows:
            assert row.converged
            assert row.hbar == pytest.approx(0.0, abs=1e-12)
            assert row.entropy_over_k == pytest.approx(0.0, abs=1e-12)
            assert row.aronsson_residual <= 1e-10

    def test_analytic_drift_k_independent(self):
        grid = TorusGrid(1, 32, 64)
        rep = k_sweep(t1_hamiltonian(), grid, (0.0,), [4, 8, 16])
        for row in rep.rows:
            assert row.converged
            assert row.hbar == pytest.approx(0.25, abs=1e-8)
            assert abs(row.entropy_over_k) <= 1e-9
            assert row.aronsson_residual <= 1e-8
        assert rep.hbar_ref is None  # drift present, no classical reference

    def test_pendulum_trends_and_reference(self):
        grid = TorusGrid(1, 64, 8)
        rep = k_sweep(pendulum_hamiltonian(), grid, (0.0,), [4, 8, 16, 32, 64])
        assert rep.hbar_ref == pytest.approx(1.0, abs=1e-9)
        hbar = rep.column("hbar")
        assert np.all(np.diff(hbar) > 0)
        assert hbar[-1] > 0.8
        s_over_k = np.abs(rep.column("entropy_over_k"))
        assert s_over_k[-1] < s_over_k[1]
        sup_pos = rep.column("sup_excess_pos")
        assert np.all(sup_pos >= -1e-15)
        assert np.all(np.diff(sup_pos) <= 0.2 * sup_pos[:-1] + 1e-12)

    def test_increasing_k_required(self):
        grid = TorusGrid(1, 16, 16)
        with pytest.raises(ValueError):
            k_sweep(trivial_hamiltonian(), grid, (0.0,), [8, 4])

    def test_csv_output(self, tmp_path):
        grid = TorusGrid(1, 16, 16)
        rep = k_sweep(trivial_hamiltonian(), grid, (0.0,), [4, 8])
        path = tmp_path / "ks.csv"
        write_ksweep_csv(rep, path, sidecar={"P": [0.0]})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("k,hbar,entropy_over_k")
        assert len(lines) == 3
        assert (tmp_path / "ks.csv.json").exists()


class TestPendulumReference:
    def test_free_potential_quadratic(self):
        V = FourierSpec.zero(1)
        for P in (0.0, 0.5, 2.0):
            assert pendulum_reference(V, P) == pytest.approx(0.5 * P**2, abs=1e-9)

    def test_flat_branch_is_max_V(self):
        V = FourierSpec.build(1, [((1,), 1.0, 0.0)])
        assert pendulum_reference(V, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert pendulum_reference(V, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_critical_momentum_branch_agreement(self):
        # P* = integral 2 |sin(pi x)| dx = 4/pi; both branches give max V there
        V = FourierSpec.build(1, [((1,), 1.0, 0.0)])
        p_star = 4.0 / np.pi
        assert pendulum_reference(V, p_star) == pytest.approx(1.0, abs=1e-6)
        assert pendulum_reference(V, p_star + 1e-3) > 1.0

    def test_monotone_above_critical(self):
        V = FourierSpec.build(1, [((1,), 1.0, 0.0)])
        vals = [pendulum_reference(V, P) for P in (1.5, 2.0, 3.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_accepts_time_independent_2d_spec(self):
        V = FourierSpec.build(2, [((1, 0), 1.0, 0.0)])
        assert pendulum_reference(V, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_time_dependence(self):
        V = FourierSpec.build(2, [((1, 1), 1.0, 0.0)])
        with pytest.raises(ValueError):
            pendulum_reference(V, 0.0)

    def test_classical_reference_scales_and_gates(self):
        V = FourierSpec.build(1, [((1,), 0.5, 0.0)])
        assert classical_reference(pendulum_hamiltonian().with_lambda(0.5), 2.0) == pendulum_reference(V, 2.0)
        assert classical_reference(t1_hamiltonian(), 0.0) is None
        assert classical_reference(mixed_hamiltonian(), 0.0) is None

    def test_limit_of_sharpness_sweep_approaches_reference(self):
        # hbar_k from the solver climbs toward the classical value
        grid = TorusGrid(1, 64, 4)
        ref = pendulum_reference(FourierSpec.build(1, [((1,), 1.0, 0.0)]), 2.0)
        warm = None
        errs = []
        for k in (8.0, 64.0):
            res = minimize(pendulum_hamiltonian(), grid, SolverConfig(k=k, P=(2.0,)), warm_start=warm)
            warm = res.u
            errs.append(abs(res.hbar - ref))
        assert errs[1] < errs[0]
        assert errs[1] <= 0.01
