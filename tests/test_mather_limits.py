import re
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from conftest import (
    assert_bitwise,
    mixed_hamiltonian,
    pendulum_hamiltonian,
    t1_hamiltonian,
    tc1_hamiltonian,
    trivial_hamiltonian,
    weighted,
)
from evanskam import mather_limits
from evanskam.effective import sweep_P
from evanskam.evans_solver import SolverConfig, minimize, objective
from evanskam.hamiltonians import FourierSpec, MechanicalHamiltonian, NyquistError
from evanskam.mather_limits import (
    KSweepRow,
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


def row_values(row):
    """Every value of a k-sweep row: its record's, then its diagnostics'."""
    return [*row.record.values(), *(getattr(row, f.name) for f in fields(row)[1:])]


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

    @pytest.mark.parametrize("shape", [(1, 16, 16), (2, 8, 4)], ids=["16x16", "8x8x4"])
    def test_fields_equal_the_hand_built_battery(self, shape):
        grid = TorusGrid(*shape)
        if grid.d == 1:
            freq_list = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1), (1, 2), (2, -1), (2, 2)]
        else:
            freq_list = [
                (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                (0, 1, 1), (1, 1, 1), (2, 0, 0), (0, 2, 0), (1, -1, 0),
            ]
        reference = []
        for freq in freq_list:
            phase = sum((2.0 * np.pi * k) * c for k, c in zip(freq, grid.coords()))
            phase = np.broadcast_to(np.asarray(phase), grid.shape)
            reference += [np.cos(phase), np.sin(phase)]
        fields = holonomy_test_fields(grid)
        assert len(fields) == len(reference) == 20
        for phi, ref in zip(fields, reference):
            assert_bitwise(phi, ref)

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
        bad = replace(res, u=ScalarField(grid, grid.project_zero_mean(bad_u)), m=bad_m, converged=False)
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
            u = res.u.values
            lap = grid.deriv(grid.deriv(u, 0), 0) + grid.deriv(grid.deriv(u, 1), 1)
            vals[k] = (aronsson_residual(ham, grid, cfg, u=res.u.values), float(np.max(np.abs(lap))) / k)
        for k, (r, pred) in vals.items():
            assert r == pytest.approx(pred, rel=1e-5)
        assert vals[64.0][0] < vals[8.0][0]


    @pytest.mark.parametrize("k", [4.0, 64.0])
    def test_blind_to_the_nyquist_mode_of_u(self, k):
        # the solve does not determine u's Nyquist mode, so the residual must
        # not see it: a second derivative that kept it would scale it by
        # (pi*n_x)^2
        grid = TorusGrid(1, 128, 128)
        ham, cfg = pendulum_hamiltonian(), SolverConfig(k=k, P=(2.0,))
        res = minimize(ham, grid, cfg)
        assert res.converged
        nyquist = 1e-12 * (-1.0) ** np.arange(grid.n_x)[:, None]
        base = aronsson_residual(ham, grid, cfg, u=res.u.values)
        assert abs(aronsson_residual(ham, grid, cfg, u=res.u.values + nyquist) - base) <= 1e-10


class TestKSweep:
    def test_trivial_all_zero(self):
        grid = TorusGrid(1, 16, 16)
        rep = k_sweep(trivial_hamiltonian(), grid, (0.0,), [4, 8, 16])
        for row in rep.rows:
            assert row.record["converged"]
            assert row.record["hbar"] == pytest.approx(0.0, abs=1e-12)
            assert row.entropy_over_k == pytest.approx(0.0, abs=1e-12)
            assert row.aronsson_residual <= 1e-10

    @pytest.mark.parametrize(
        "k_list", [[], [8, 4], [4, 4], np.array([8.0, 4.0])], ids=["empty", "decreasing", "repeated", "array"]
    )
    def test_k_list_must_be_nonempty_and_increasing(self, k_list):
        # an empty list used to raise IndexError from ks[0]
        with pytest.raises(ValueError, match="k_list must be nonempty and strictly increasing"):
            k_sweep(pendulum_hamiltonian(), TorusGrid(1, 16, 8), (0.0,), k_list)

    def test_analytic_drift_k_independent(self):
        grid = TorusGrid(1, 32, 64)
        rep = k_sweep(t1_hamiltonian(), grid, (0.0,), [4, 8, 16])
        for row in rep.rows:
            assert row.record["converged"]
            assert row.record["hbar"] == pytest.approx(0.25, abs=1e-8)
            assert abs(row.entropy_over_k) <= 1e-9
            assert row.aronsson_residual <= 1e-8
        assert rep.hbar_ref is None  # drift present, no classical reference

    def test_pendulum_trends_and_reference(self):
        grid = TorusGrid(1, 64, 8)
        rep = k_sweep(pendulum_hamiltonian(), grid, (0.0,), [4, 8, 16, 32, 64])
        assert rep.hbar_ref == pytest.approx(1.0, abs=1e-9)
        hbar = np.array([r.record["hbar"] for r in rep.rows])
        assert np.all(np.diff(hbar) > 0)
        assert hbar[-1] > 0.8
        s_over_k = np.abs([r.entropy_over_k for r in rep.rows])
        assert s_over_k[-1] < s_over_k[1]
        sup_pos = np.array([r.sup_excess_pos for r in rep.rows])
        assert np.all(sup_pos >= -1e-15)
        assert np.all(np.diff(sup_pos) <= 0.2 * sup_pos[:-1] + 1e-12)

    def test_wide_k_jump_climbs_doubling_rungs(self):
        # one warm stage from k = 8 to 128 stopped unconverged (hbar
        # 0.9904566501 against 0.9904425011 cold); the unreported rungs 16,
        # 32 and 64 carry it
        ham, grid = tc1_hamiltonian(), TorusGrid(1, 16, 16)
        rep = k_sweep(ham, grid, (0.0,), [8, 128])
        assert [row.record["k"] for row in rep.rows] == [8.0, 128.0]
        assert all(row.record["converged"] for row in rep.rows)
        cold = minimize(ham, grid, SolverConfig(k=128.0, P=(0.0,)))
        assert cold.converged
        assert abs(rep.rows[-1].record["hbar"] - cold.hbar) <= 1e-9

    def test_rungs_match_the_public_chain(self):
        # the reported rows equal those of public solves at every doubling
        # rung, each warm-started from the last solve's u; a row's iterations
        # count the Newton steps of its unreported rungs too
        ham, grid = tc1_hamiltonian(), TorusGrid(1, 16, 16)
        rep = k_sweep(ham, grid, (0.0,), [8, 128])
        chain = []
        for k in (8.0, 16.0, 32.0, 64.0, 128.0):
            warm = chain[-1].u if chain else None
            chain.append(minimize(ham, grid, SolverConfig(k=k, P=(0.0,)), warm_start=warm))
        steps = (chain[0].iterations, sum(res.iterations for res in chain[1:]))
        for row, res, iterations in zip(rep.rows, (chain[0], chain[-1]), steps):
            cfg = SolverConfig(k=res.k, P=(0.0,))
            diag = mather_diagnostics(ham, grid, cfg, res)
            expected = KSweepRow(
                record={**res.metadata(), "iterations": iterations},
                entropy_over_k=diag.entropy_over_k,
                sup_excess_pos=max(0.0, diag.sup_excess),
                aronsson_residual=aronsson_residual(ham, grid, cfg, res.u),
            )
            assert row.record.keys() == expected.record.keys()
            for x, y in zip(row_values(row), row_values(expected), strict=True):
                assert_bitwise(x, y)

    def test_autonomous_rows_match_full_grid_diagnostics(self):
        # the rows and mather_diagnostics both evaluate an autonomous result
        # on the one time plane the solve ran on, so the public certificates
        # on the full grid give the rows' bits
        ham, grid, P = pendulum_hamiltonian(), TorusGrid(1, 128, 128), (2.0,)
        rep = k_sweep(ham, grid, P, [4, 32])
        res = None
        for row in rep.rows:
            cfg = SolverConfig(k=row.record["k"], P=P)
            res = minimize(ham, grid, cfg, warm_start=res)
            diag = mather_diagnostics(ham, grid, cfg, res)
            expected = KSweepRow(
                record=res.metadata(),
                entropy_over_k=diag.entropy_over_k,
                sup_excess_pos=max(0.0, diag.sup_excess),
                aronsson_residual=aronsson_residual(ham, grid, cfg, res.u),
            )
            assert row.record.keys() == expected.record.keys()
            for x, y in zip(row_values(row), row_values(expected), strict=True):
                assert_bitwise(x, y)

    def test_solves_pass_plane_results(self, monkeypatch):
        # each k warm-starts from the last result as it came back, on the one plane
        calls = []
        solve = mather_limits.minimize

        def recording(ham, grid, config, warm_start=None):
            calls.append((grid, warm_start))
            return solve(ham, grid, config, warm_start=warm_start)

        monkeypatch.setattr(mather_limits, "minimize", recording)
        k_sweep(pendulum_hamiltonian(), TorusGrid(1, 32, 16), (1.0,), [4, 8, 16])
        plane = TorusGrid(1, 32, 1)
        assert [grid for grid, _ in calls] == [plane] * 3
        assert calls[0][1] is None
        assert all(start.u.grid == start.m.grid == plane for _, start in calls[1:])

    def test_grid_of_another_dimension_refused(self):
        with pytest.raises(NyquistError, match="^grid dimension 2 does not match Hamiltonian d=1$"):
            k_sweep(pendulum_hamiltonian(), TorusGrid(2, 8, 4), (0.0,), [4, 8])

    def test_zero_amplitude_time_frequency_is_autonomous(self):
        # a term 0 * cos(2 pi (x + 3t)) leaves H the pendulum's: on the plane
        # too, where frequency 3 in t would be above the Nyquist limit
        V = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((1, 3), 0.0, 0.0)])
        ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)
        grid, cfg = TorusGrid(1, 32, 8), SolverConfig(k=8.0, P=(1.0,))

        def outputs(h):
            rows = k_sweep(h, grid, (1.0,), [4, 8]).rows
            diag = mather_diagnostics(h, grid, cfg, minimize(h, grid, cfg))
            table = sweep_P(h, grid, 8.0, [0.5, 1.0], config=cfg)
            return [*(x for row in rows for x in row_values(row)), *astuple(diag), table.hbar, table.Q]

        for x, y in zip(outputs(ham), outputs(pendulum_hamiltonian()), strict=True):
            assert_bitwise(x, y)

    @pytest.mark.parametrize(
        "k_list, shown",
        [(["4", "8"], "'4'"), ([4, True], "True"), ([4, np.nan], "nan"), ([4, np.inf], "inf"), ([[4, 8]], "[4, 8]")],
        ids=["strings", "boolean", "nan", "infinite", "nested"],
    )
    def test_malformed_k_refused_before_any_solve(self, monkeypatch, k_list, shown):
        # read as SolverConfig reads k: the parent ran "4" and "8" as 4 and 8,
        # and refused a non-finite k only after solving the ks before it
        calls = []
        monkeypatch.setattr(mather_limits, "minimize", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError) as info:
            k_sweep(pendulum_hamiltonian(), TorusGrid(1, 16, 4), (0.5,), k_list)
        assert info.type is ValueError
        assert str(info.value) == f"k must be a finite number, got {shown}"
        assert calls == []

    @pytest.mark.parametrize(
        "k_list, message",
        [
            (4, "k_list must be a list of numbers, got 4"),
            ("48", "k_list must be a list of numbers, got '48'"),
            ([0, 4], "k must be positive, got 0.0"),
        ],
        ids=["number", "string", "zero"],
    )
    def test_k_list_read_as_solver_config_reads_k(self, monkeypatch, k_list, message):
        # one reader for k_sweep and the CLI's limit.k_list: a list of ks, each read as SolverConfig reads k
        calls = []
        monkeypatch.setattr(mather_limits, "minimize", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            k_sweep(pendulum_hamiltonian(), TorusGrid(1, 16, 4), (0.5,), k_list)
        assert calls == []

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
        assert lines[0] == "k,hbar,entropy_over_k,sup_excess_pos,lip_norm,aronsson_residual,converged,grad_norm,iterations"
        assert len(lines) == 3
        assert [line.split(",")[-1] for line in lines[1:]] == [str(r.record["iterations"]) for r in rep.rows]
        assert (tmp_path / "ks.csv.json").exists()


class TestPendulumReference:
    def test_free_potential_quadratic(self):
        V = FourierSpec.zero(1)
        for P in (0.0, 0.5, 2.0):
            assert pendulum_reference(V, P) == pytest.approx(0.5 * P**2, abs=1e-9)

    def test_bisection_honours_tol(self):
        # V = 0: the root of sqrt(2E) = P is E = P^2/2, bracketed to within _TOL = 1e-10
        assert pendulum_reference(FourierSpec.zero(1), 2.0) == pytest.approx(2.0, abs=1e-10)

    def test_bisection_stops_at_the_float_spacing(self):
        # at E = 2e6 the float spacing, 2.3e-10, exceeds _TOL: only the guard
        # mid in (lo, hi) ends the loop
        assert pendulum_reference(FourierSpec.zero(1), 2e3) == 2e6

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

    def test_rejects_a_potential_of_three_variables(self):
        V = FourierSpec.build(3, [((1, 0, 0), 1.0, 0.0)])
        with pytest.raises(ValueError, match=r"^reference requires a one-dimensional potential$"):
            pendulum_reference(V, 0.0)

    def test_classical_reference_scales_and_gates(self):
        V = FourierSpec.build(1, [((1,), 0.5, 0.0)])
        assert classical_reference(weighted(pendulum_hamiltonian(), 0.5), 2.0) == pendulum_reference(V, 2.0)
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
