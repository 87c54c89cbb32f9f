import numpy as np
import pytest

from conftest import pendulum_hamiltonian, t1_hamiltonian, trivial_hamiltonian
from evanskam.evans_solver import SolverConfig, minimize
from evanskam.mather_limits import mather_diagnostics
from evanskam.mfg_diagnostics import mfg_residuals, minmax_upper_bound
from evanskam.torus_grid import TorusGrid


class TestMfgResiduals:
    def test_trivial_solve_all_zero(self):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=8.0)
        res = minimize(trivial_hamiltonian(), grid, cfg)
        rep = mfg_residuals(trivial_hamiltonian(), grid, cfg, res)
        assert rep.hjb_residual <= 1e-12
        assert rep.transport_residual <= 1e-12
        assert abs(rep.mass_m - 1.0) <= 1e-12
        assert abs(rep.mean_u) <= 1e-12
        assert rep.sup_excess == pytest.approx(0.0, abs=1e-12)

    def test_analytic_case_residuals(self):
        grid = TorusGrid(1, 64, 64)
        cfg = SolverConfig(k=8.0)
        ham = t1_hamiltonian()
        res = minimize(ham, grid, cfg)
        rep = mfg_residuals(ham, grid, cfg, res)
        assert rep.hjb_residual <= 1e-10
        assert rep.transport_residual <= 1e-10

    def test_transport_residual_is_final_gradient_norm(self):
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0, P=(1.5,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        rep = mfg_residuals(ham, grid, cfg, res)
        assert res.converged
        assert rep.transport_residual <= cfg.grad_tol
        assert rep.transport_residual == pytest.approx(res.grad_norm, rel=1e-10, abs=1e-15)

    def test_certificates_reevaluate_with_the_callers_config(self):
        # certificates re-derive H_p from result.u with the config they are
        # given, so a result paired with the wrong momentum must fail them
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0, P=(1.5,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        assert mfg_residuals(ham, grid, cfg, res).transport_residual <= cfg.grad_tol
        assert np.array_equal(res.rotation, mather_diagnostics(ham, grid, cfg, res).rotation)
        wrong = SolverConfig(k=8.0, P=(1.0,))
        assert mfg_residuals(ham, grid, wrong, res).transport_residual > 1e-2
        assert mather_diagnostics(ham, grid, wrong, res).identity_gap > 1e-2

    def test_hjb_identity_is_construction(self):
        # (1/k) log m equals u_t + H - hbar by the softmax normalization, so
        # the sup-norm residual is a tripwire, not an accuracy statement
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=16.0, P=(0.7,))
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        rep = mfg_residuals(ham, grid, cfg, res)
        assert rep.hjb_residual <= 1e-10

    def test_sup_excess_equals_log_max_m_over_k(self):
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=8.0)
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, cfg)
        rep = mfg_residuals(ham, grid, cfg, res)
        assert rep.sup_excess == pytest.approx(np.log(np.max(res.m.values)) / cfg.k, abs=1e-10)
        assert rep.sup_excess >= 0.0

    def test_grid_mismatch_rejected(self):
        grid = TorusGrid(1, 16, 16)
        other = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=4.0)
        res = minimize(trivial_hamiltonian(), grid, cfg)
        with pytest.raises(ValueError):
            mfg_residuals(trivial_hamiltonian(), other, cfg, res)

    def test_json_and_csv_forms(self):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=4.0)
        res = minimize(trivial_hamiltonian(), grid, cfg)
        rep = mfg_residuals(trivial_hamiltonian(), grid, cfg, res)
        obj = rep.to_json_dict()
        assert set(obj) == {"hjb_residual", "transport_residual", "mean_u", "mass_m", "sup_excess"}
        assert rep.csv_row() == [obj[k] for k in ("hjb_residual", "transport_residual", "mean_u", "mass_m", "sup_excess")]


class TestMinmaxUpperBound:
    def test_zero_candidate_pendulum(self):
        grid = TorusGrid(1, 32, 32)
        val = minmax_upper_bound(pendulum_hamiltonian(), grid, grid.zeros())
        assert val == pytest.approx(1.0)  # max V

    def test_zero_candidate_with_momentum(self):
        grid = TorusGrid(1, 16, 16)
        val = minmax_upper_bound(trivial_hamiltonian(), grid, grid.zeros(), P=[1.5])
        assert val == pytest.approx(0.5 * 1.5**2)

    def test_shift_invariant(self):
        grid = TorusGrid(1, 32, 32)
        ham = pendulum_hamiltonian()
        u = minimize(ham, grid, SolverConfig(k=8.0, P=(1.3,))).u
        a = minmax_upper_bound(ham, grid, u, P=[1.3])
        b = minmax_upper_bound(ham, grid, u.values + 2.2, P=[1.3])
        assert a == pytest.approx(b, abs=1e-12)

    def test_dominates_hbar(self):
        grid = TorusGrid(1, 32, 32)
        ham = pendulum_hamiltonian()
        for P in (0.0, 1.0, 2.0):
            res = minimize(ham, grid, SolverConfig(k=16.0, P=(P,)))
            ub = minmax_upper_bound(ham, grid, res.u, P=[P])
            assert ub >= res.hbar - 1e-9

    def test_tightens_along_sharpness_and_brackets_reference(self):
        # minimizers at growing k push the candidate bound toward the limit,
        # and the bound brackets the classical value from above
        from evanskam.hamiltonians import FourierSpec
        from evanskam.mather_limits import pendulum_reference

        grid = TorusGrid(1, 64, 4)
        ham = pendulum_hamiltonian()
        ref = pendulum_reference(FourierSpec.build(1, [((1,), 1.0, 0.0)]), 2.0)
        vals = []
        warm = None
        for k in (4.0, 16.0, 64.0):
            res = minimize(ham, grid, SolverConfig(k=k, P=(2.0,)), warm_start=warm)
            warm = res.u
            ub = minmax_upper_bound(ham, grid, res.u, P=[2.0])
            assert res.hbar <= ub + 1e-9
            assert ub >= ref - 0.05
            vals.append(ub)
        assert vals[2] <= vals[0] + 1e-9
        assert ref <= vals[2] <= ref + 0.2
