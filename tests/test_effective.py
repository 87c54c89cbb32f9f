import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assert_bitwise,
    flux_oracle_dhbar,
    flux_oracle_hbar,
    pendulum_hamiltonian,
    separable_2d,
    t1_hamiltonian,
    tc1_hamiltonian,
    trivial_hamiltonian,
)
from evanskam import effective, evans_solver
from evanskam.effective import (
    EffectiveTable,
    NonconvexTableError,
    biconjugate,
    convexity_check,
    legendre_transform,
    rotation_consistency,
    sweep_P,
    write_effective_csv,
    write_legendre_csv,
)
from evanskam.evans_solver import SolverConfig, minimize
from evanskam.hamiltonians import NyquistError
from evanskam.torus_grid import TorusGrid


def exact_records(k, P_grid, hbar):
    """Per-entry records as ``SolveResult.metadata()`` lays them out, for a table built by hand: exact solves."""
    return [
        {"k": k, "P": P, "hbar": h, "grad_norm": 0.0, "lip_norm": 0.0, "iterations": 0, "converged": True}
        for P, h in zip(np.asarray(P_grid).tolist(), np.asarray(hbar).tolist())
    ]


def quadratic_table(step=0.1, span=3.0):
    P = np.round(np.arange(-span, span + step / 2, step), 12)
    return EffectiveTable(
        k=8.0, P_grid=P[:, None], hbar=0.5 * P**2, Q=P[:, None].copy(), records=exact_records(8.0, P[:, None], 0.5 * P**2)
    )


class TestSweep:
    def test_free_case_closed_form(self):
        grid = TorusGrid(1, 16, 16)
        tab = sweep_P(trivial_hamiltonian(), grid, 8.0, [-1.0, 0.0, 1.0])
        assert np.all(tab.converged)
        assert np.allclose(tab.hbar, [0.5, 0.0, 0.5], atol=1e-10)
        assert np.allclose(tab.Q[:, 0], [-1.0, 0.0, 1.0], atol=1e-9)

    def test_drift_case_closed_form(self):
        # hbar(P) = P^2/2 + 1/4 and Q(P) = P since the drift averages to zero
        grid = TorusGrid(1, 32, 64)
        P_vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        tab = sweep_P(t1_hamiltonian(), grid, 8.0, P_vals)
        assert np.all(tab.converged)
        assert np.max(np.abs(tab.hbar - (0.5 * P_vals**2 + 0.25))) <= 1e-8
        assert np.max(np.abs(tab.Q[:, 0] - P_vals)) <= 1e-8

    def test_pendulum_against_flux_oracle(self):
        grid = TorusGrid(1, 64, 4)
        P_vals = np.array([0.0, 1.0, 1.5, 2.0])
        tab = sweep_P(pendulum_hamiltonian(), grid, 16.0, P_vals)
        assert np.all(tab.converged)
        for P, hb, q in zip(P_vals, tab.hbar, tab.Q[:, 0]):
            assert hb == pytest.approx(flux_oracle_hbar(16.0, float(P)), abs=5e-7)
            assert q == pytest.approx(flux_oracle_dhbar(16.0, float(P)), abs=2e-5)

    def test_pendulum_p2_in_band_and_near_reference(self):
        from evanskam.mather_limits import pendulum_reference
        from evanskam.hamiltonians import FourierSpec

        grid = TorusGrid(1, 64, 8)
        tab = sweep_P(pendulum_hamiltonian(), grid, 16.0, [2.0])
        ref = pendulum_reference(FourierSpec.build(1, [((1,), 1.0, 0.0)]), 2.0)
        assert 1.0 <= tab.hbar[0] <= 0.5 * 4.0 + 1.0
        assert abs(tab.hbar[0] - ref) <= 0.15

    def test_parallel_cold_start_matches_sequential(self):
        grid = TorusGrid(1, 32, 8)
        ham = pendulum_hamiltonian()
        P_vals = [-0.6, 0.0, 0.6]
        seq = sweep_P(ham, grid, 8.0, P_vals)
        par = sweep_P(ham, grid, 8.0, P_vals, jobs=2)
        assert np.max(np.abs(seq.hbar - par.hbar)) <= 1e-8

    def test_parallel_slices_equal_serial_sweeps_of_each_slice(self, tmp_path):
        # jobs = 2 cuts five entries into the contiguous slices [0, 3) and [3, 5);
        # every written column, each record's grad_norm and iterations included, matches
        ham, grid = pendulum_hamiltonian(), TorusGrid(1, 32, 8)
        P_vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        par = sweep_P(ham, grid, 8.0, P_vals, jobs=2)
        seq, tail = sweep_P(ham, grid, 8.0, P_vals), sweep_P(ham, grid, 8.0, P_vals[3:])
        assert par.converged.all()
        assert_bitwise(par.hbar[:3], seq.hbar[:3])
        assert_bitwise(par.Q[:3], seq.Q[:3])
        assert_bitwise(par.hbar[3:], tail.hbar)
        assert_bitwise(par.Q[3:], tail.Q)
        assert par.records == seq.records[:3] + tail.records
        lines = {}
        for name, table in (("par", par), ("seq", seq), ("tail", tail)):
            write_effective_csv(table, tmp_path / f"{name}.csv")
            lines[name] = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines["par"][0].endswith(",grad_norm,lip_norm,iterations")
        assert lines["par"] == lines["seq"][:4] + lines["tail"][1:]

    def test_one_entry_per_slice_solves_cold(self):
        # more jobs than entries: min(jobs, n) slices of one entry, each started cold
        ham, grid = pendulum_hamiltonian(), TorusGrid(1, 32, 8)
        P_vals = [-1.0, -0.5, 0.0, 0.5, 1.0]
        par = sweep_P(ham, grid, 8.0, P_vals, jobs=6)
        cold = [minimize(ham, grid, SolverConfig(k=8.0, P=(P,))) for P in P_vals]
        assert_bitwise(par.hbar, [res.hbar for res in cold])
        assert_bitwise(par.Q, [res.rotation for res in cold])
        assert_bitwise(par.converged, [res.converged for res in cold])

    @pytest.mark.parametrize("cpus", [2, None], ids=["two-cpus", "unknown-count"])
    def test_workers_capped_at_the_cpu_count(self, monkeypatch, cpus):
        # the pool opens at most os.cpu_count() workers (one where the count
        # is unknown) and keeps min(jobs, n) slices, so no machine changes a
        # row; the recording pool maps in this process and starts none
        import concurrent.futures

        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        ham, grid = pendulum_hamiltonian(), TorusGrid(1, 32, 8)
        P_vals = [-1.0, -0.5, 0.0, 0.5, 1.0]
        par = sweep_P(ham, grid, 8.0, P_vals, jobs=4096)
        assert opened == [cpus or 1]
        cold = [minimize(ham, grid, SolverConfig(k=8.0, P=(P,))) for P in P_vals]
        assert_bitwise(par.hbar, [res.hbar for res in cold])
        assert_bitwise(par.Q, [res.rotation for res in cold])

    def test_time_coupled_serial_sweep_matches_cold_solves(self):
        # a secant start worse than u = 0 starts cold: without that rule 6 of
        # these 9 entries stopped unconverged, each failure feeding the next
        # predictor (hbar up to 49.79 against 0.92-0.98 cold)
        ham, grid, cfg = tc1_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=16.0, grad_tol=1e-9)
        P_vals = np.linspace(-1.0, 1.0, 9)
        tab = sweep_P(ham, grid, 16.0, P_vals, config=cfg)
        assert tab.converged.all()
        cold = [minimize(ham, grid, replace(cfg, P=(P,))) for P in P_vals]
        assert all(res.converged for res in cold)
        assert np.max(np.abs(tab.hbar - [res.hbar for res in cold])) <= 1e-9
        assert np.max(np.abs(tab.Q[:, 0] - [res.rotation[0] for res in cold])) <= 1e-9

    @pytest.mark.parametrize(
        "P0, P1, P2, c",
        [
            ((-0.2,), (-0.1,), (0.0,), 1.0),
            ((0.0,), (0.2,), (0.3,), 0.5),
            ((0.0,), (1.0,), (0.0,), -1.0),
            ((0.5,), (0.5,), (1.0,), 0.0),  # P1 repeats P0: no direction to extend
            ((-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), -1.0),  # a row-major raster turning to its next row
        ],
        ids=["uniform", "half-step", "reversal", "repeated", "raster-turn"],
    )
    def test_secant_coefficient(self, P0, P1, P2, c):
        assert effective._secant_coefficient(np.array(P0), np.array(P1), np.array(P2)) == pytest.approx(c, abs=1e-12)

    def test_secant_coefficient_has_the_bits_of_the_vector_formula(self):
        # d = 1: one product per inner product, so the float loop rounds as numpy's @ does
        for P0, P1, P2 in np.random.default_rng(5).normal(size=(200, 3, 1)):
            prev = P1 - P0
            expected = float((P2 - P1) @ prev) / float(prev @ prev)
            assert_bitwise(effective._secant_coefficient(P0.tolist(), P1.tolist(), P2.tolist()), expected)

    @staticmethod
    def recorded_calls(monkeypatch):
        calls = []
        solve = effective.minimize

        def recording(ham, grid, config, warm_start=None):
            calls.append((grid, config.momentum(1)[0], warm_start))
            return solve(ham, grid, config, warm_start=warm_start)

        monkeypatch.setattr(effective, "minimize", recording)
        return calls

    def test_serial_sweep_calls_effective_minimize_once_per_entry(self, monkeypatch):
        # perfbench's sweep-1d times each entry by swapping effective.minimize
        calls = self.recorded_calls(monkeypatch)
        P_vals = [0.0, 0.25, 0.5, 0.25]
        sweep_P(pendulum_hamiltonian(), TorusGrid(1, 32, 8), 4.0, P_vals)
        assert [P for _, P, _ in calls] == P_vals

    @pytest.mark.parametrize("ham, shape", [(pendulum_hamiltonian, (1, 32, 8)), (tc1_hamiltonian, (1, 16, 16))])
    def test_chain_solves_and_starts_on_the_solve_grid(self, monkeypatch, ham, shape):
        calls = self.recorded_calls(monkeypatch)
        sweep_P(ham(), TorusGrid(*shape), 4.0, [0.0, 0.25, 0.5])
        plane = evans_solver._solve_grid(ham(), TorusGrid(*shape))
        assert all(grid == plane for grid, _, _ in calls)
        assert calls[0][2] is None and all(start.shape == plane.shape for _, _, start in calls[1:])

    def test_grid_of_another_dimension_refused(self):
        with pytest.raises(NyquistError, match="^grid dimension 2 does not match Hamiltonian d=1$"):
            sweep_P(pendulum_hamiltonian(), TorusGrid(2, 8, 4), 4.0, [0.0, 0.5])

    @pytest.mark.parametrize(
        "P_vals, secant", [([0.0, 0.5, 1.0, 1.25], True), ([0.0, 0.5, 0.25, 0.5], False)], ids=["onward", "zigzag"]
    )
    def test_warm_starts(self, monkeypatch, P_vals, secant):
        # entry 1 starts from u_0; later entries from u_i + c*(u_i - u_{i-1})
        # while the path goes on (c > 0), from u_i where it turns back; the
        # dyadic P values make c exact in any order of operations
        starts, results = [], []
        solve = effective.minimize

        def recording(*args, warm_start=None):
            starts.append(warm_start)
            results.append(solve(*args, warm_start=warm_start))
            return results[-1]

        monkeypatch.setattr(effective, "minimize", recording)
        sweep_P(pendulum_hamiltonian(), TorusGrid(1, 32, 8), 8.0, P_vals)
        u = [res.u.values for res in results]
        assert starts[0] is None
        assert np.array_equal(starts[1], u[0])
        for i in (2, 3):
            c = (P_vals[i] - P_vals[i - 1]) / (P_vals[i - 1] - P_vals[i - 2])
            expected = u[i - 1] + c * (u[i - 1] - u[i - 2]) if secant else u[i - 1]
            assert np.array_equal(starts[i], expected)

    @pytest.mark.parametrize(
        "ham, shape, k, P_vals",
        [
            (pendulum_hamiltonian, (1, 128, 1), 256.0, np.linspace(-2.0, 2.0, 41)),
            (tc1_hamiltonian, (1, 16, 16), 64.0, [1.2, 1.4, 1.6]),
        ],
        ids=["pendulum-128-k256", "tc1-k64"],
    )
    def test_no_entry_ends_worse_than_its_cold_solve(self, ham, shape, k, P_vals):
        # at large k Newton can wander from a secant start for all max_newton steps where the
        # cold ladder converges: most often just past 4/pi on the pendulum, and at P = 1.6 on tc1
        grid = TorusGrid(*shape)
        tab = sweep_P(ham(), grid, k, P_vals)
        assert np.all(tab.converged)
        cold = [minimize(ham(), grid, SolverConfig(k=k, P=(float(P),))).hbar for P in P_vals]
        assert np.max(np.abs(tab.hbar - cold)) <= 1e-12

    def test_resolved_entry_is_its_cold_solve(self, monkeypatch):
        results = []
        solve = effective.minimize

        def recording(*args, warm_start=None):
            results.append(solve(*args, warm_start=warm_start))
            return results[-1]

        monkeypatch.setattr(effective, "minimize", recording)
        ham, grid = tc1_hamiltonian(), TorusGrid(1, 16, 16)
        sweep_P(ham, grid, 64.0, [1.2, 1.4, 1.6])
        res, cold = results[-1], minimize(ham, grid, SolverConfig(k=64.0, P=(1.6,)))
        for x, y in ((res.u.values, cold.u.values), (res.m.values, cold.m.values), (res.hbar, cold.hbar)):
            assert_bitwise(x, y)
        # the secant start is one stage at k = 64, stopped at max_newton; then the cold solve
        assert res.iterations == SolverConfig(k=64.0).max_newton + cold.iterations

    def test_failed_entries_flagged_sweep_continues(self):
        grid = TorusGrid(1, 32, 8)
        cfg = SolverConfig(k=16.0, max_newton=1)
        tab = sweep_P(pendulum_hamiltonian(), grid, 16.0, [0.0, 2.0], config=cfg)
        assert bool(tab.converged[0])  # P = 0 solves immediately
        assert not bool(tab.converged[1])
        assert np.all(np.isfinite(tab.hbar))

    def test_nonfinite_momentum_refused_with_its_row(self):
        # the entry's P reaches SolverConfig as a row of the momentum grid
        with pytest.raises(ValueError) as info:
            sweep_P(pendulum_hamiltonian(), TorusGrid(1, 16, 4), 4.0, [0.1, np.nan, 0.3])
        assert info.type is ValueError
        assert str(info.value) == "P must be None or finite numbers, got array([nan])"

    @pytest.mark.parametrize(
        "ham, shape, P_vals, shown",
        [
            (pendulum_hamiltonian, (1, 16, 4), [True, False, True], "[True]"),
            (pendulum_hamiltonian, (1, 16, 4), ["0.5", "1.0", "1.5"], "['0.5']"),
            (pendulum_hamiltonian, (1, 16, 4), [0.1, np.inf, 0.3], "array([inf])"),
            (separable_2d, (2, 8, 2), [[0.1, 0.2], [0.3, True]], "[0.3, True]"),
        ],
        ids=["booleans", "strings", "infinite", "boolean-in-a-row"],
    )
    def test_malformed_momenta_refused_before_any_solve(self, monkeypatch, ham, shape, P_vals, shown):
        # read as SolverConfig reads P: the parent solved True as 1.0 and
        # "0.5" as 0.5, and raised at an infinite entry after solving the first
        calls = self.recorded_calls(monkeypatch)
        with pytest.raises(ValueError) as info:
            sweep_P(ham(), TorusGrid(*shape), 4.0, P_vals)
        assert info.type is ValueError
        assert str(info.value) == f"P must be None or finite numbers, got {shown}"
        assert calls == []

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.5, 2.0, "2", None])
    def test_jobs_must_be_a_positive_integer(self, monkeypatch, jobs):
        # read as --jobs is read: 0, -1 and True used to run serially and 2.5 two slices
        calls = self.recorded_calls(monkeypatch)
        with pytest.raises(ValueError) as info:
            sweep_P(pendulum_hamiltonian(), TorusGrid(1, 16, 4), 4.0, [0.0, 0.5, 1.0], jobs=jobs)
        assert info.type is ValueError
        assert str(info.value) == f"jobs must be a positive integer, got {jobs!r}"
        assert calls == []

    def test_entries_run_at_the_k_argument_not_the_config_k(self, monkeypatch):
        calls = []
        solve = effective.minimize

        def recording(ham, grid, config, warm_start=None):
            calls.append((config.k, config.grad_tol))
            return solve(ham, grid, config, warm_start=warm_start)

        monkeypatch.setattr(effective, "minimize", recording)
        ham, grid, P_vals = pendulum_hamiltonian(), TorusGrid(1, 32, 8), [0.0, 0.5, 1.0]
        table = sweep_P(ham, grid, 4.0, P_vals, config=SolverConfig(k=8.0, grad_tol=1e-10))
        assert table.k == 4.0
        assert calls == [(4.0, 1e-10)] * 3
        same = sweep_P(ham, grid, 4.0, P_vals, config=SolverConfig(k=4.0, grad_tol=1e-10))
        assert_bitwise(table.hbar, same.hbar)
        assert_bitwise(table.Q, same.Q)

    def test_symmetry_in_momentum(self):
        # V even in x and no drift: the sweep is even in P
        grid = TorusGrid(1, 32, 8)
        tab = sweep_P(pendulum_hamiltonian(), grid, 8.0, [-1.5, 1.5])
        assert abs(tab.hbar[0] - tab.hbar[1]) <= 1e-8
        assert abs(tab.Q[0, 0] + tab.Q[1, 0]) <= 1e-7

    def test_rotation_zero_at_origin(self):
        grid = TorusGrid(1, 32, 8)
        tab = sweep_P(pendulum_hamiltonian(), grid, 8.0, [0.0])
        assert abs(tab.Q[0, 0]) <= 1e-8

    def test_monotone_rotation(self):
        grid = TorusGrid(1, 32, 8)
        tab = sweep_P(pendulum_hamiltonian(), grid, 8.0, np.arange(-2.0, 2.01, 0.5))
        assert np.all(np.diff(tab.Q[:, 0]) >= -1e-6)

    def test_d2_coarse_sweep(self):
        # row-major 2-d momentum grid on a small torus; free case closed form
        from evanskam.hamiltonians import FourierSpec, MechanicalHamiltonian

        ham = MechanicalHamiltonian(d=2, eta=(FourierSpec.zero(1),) * 2, V=FourierSpec.zero(3))
        grid = TorusGrid(2, 8, 8)
        P_pts = np.array([[a, b] for a in (-0.5, 0.5) for b in (-0.5, 0.5)])
        tab = sweep_P(ham, grid, 4.0, P_pts)
        assert np.all(tab.converged)
        assert np.allclose(tab.hbar, 0.25, atol=1e-9)
        assert np.allclose(tab.Q, P_pts, atol=1e-8)
        leg = legendre_transform(tab, np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert leg.lbar.shape == (2,)


class TestConvexityCheck:
    def test_quadratic(self):
        rep = convexity_check(0.5 * np.arange(-3, 3.01, 0.1) ** 2)
        assert rep.max_violation <= 1e-12
        assert rep.min_second_difference == pytest.approx(0.01, abs=1e-12)

    def test_absolute_value_kink(self):
        P = np.arange(-2.0, 2.01, 0.5)
        rep = convexity_check(np.abs(P))
        assert rep.max_violation <= 0.0 + 1e-15
        assert rep.min_second_difference == pytest.approx(0.0, abs=1e-15)

    def test_nonconvex_detected(self):
        rep = convexity_check(np.array([0.0, 1.0, 0.0]))
        assert rep.max_violation == pytest.approx(1.0)
        assert rep.min_second_difference == pytest.approx(-2.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            convexity_check([1.0, 2.0])


class TestLegendre:
    def test_self_dual_quadratic(self):
        tab = quadratic_table()
        Q = np.round(np.arange(-2.0, 2.001, 0.1), 12)
        leg = legendre_transform(tab, Q)
        assert np.max(np.abs(leg.lbar - 0.5 * Q**2)) <= 5e-3

    def test_biconjugate_recovers_interior(self):
        tab = quadratic_table()
        back = biconjugate(tab)
        interior = np.abs(tab.P_grid[:, 0]) <= 2.0  # rotation range covers |P| <= 3 slopes only partly
        assert np.max(np.abs(back[interior] - tab.hbar[interior])) <= 1e-2

    def test_drift_case_dual(self):
        # dual of P^2/2 + 1/4 is Q^2/2 - 1/4
        grid = TorusGrid(1, 32, 64)
        P_vals = np.round(np.arange(-2.0, 2.001, 0.1), 12)
        tab = sweep_P(t1_hamiltonian(), grid, 8.0, P_vals)
        Q = np.round(np.arange(-1.0, 1.001, 0.1), 12)
        leg = legendre_transform(tab, Q)
        assert np.max(np.abs(leg.lbar - (0.5 * Q**2 - 0.25))) <= 5e-3

    def test_fenchel_young_on_tables(self):
        tab = quadratic_table()
        Q = np.round(np.arange(-2.0, 2.001, 0.1), 12)
        leg = legendre_transform(tab, Q)
        gaps = tab.hbar[None, :] + leg.lbar[:, None] - leg.Q_grid @ tab.P_grid.T
        assert float(gaps.min()) >= -1e-9

    @pytest.mark.parametrize(
        "Q, message",
        [
            ([0.0, np.nan], "Q must be finite numbers, got array([nan])"),
            ([0.0, True], "Q must be finite numbers, got [True]"),
            ([[0.0, 0.0]], "velocity vectors have dimension 2, expected 1"),
        ],
        ids=["nan", "boolean", "dimension"],
    )
    def test_malformed_velocities_refused_naming_Q(self, Q, message):
        # the momentum reader serves Q too; the parent returned a NaN lbar for
        # the NaN and called a Q of the wrong dimension a momentum vector
        with pytest.raises(ValueError) as info:
            legendre_transform(quadratic_table(), Q)
        assert info.type is ValueError
        assert str(info.value) == message

    def test_nonconvex_table_rejected_with_triple(self):
        P = np.array([-1.0, 0.0, 1.0])
        hbar = np.array([0.0, 1.0, 0.0])
        tab = EffectiveTable(k=4.0, P_grid=P[:, None], hbar=hbar, Q=P[:, None], records=exact_records(4.0, P[:, None], hbar))
        with pytest.raises(NonconvexTableError) as err:
            legendre_transform(tab, [0.0])
        assert str(err.value) == (
            "midpoint convexity violated by 1.000e+00 at entries (0, 1, 2): P=[-1.0, 0.0, 1.0], hbar=[0.0, 1.0, 0.0]"
        )


class TestConvexityGrid:
    @staticmethod
    def table(P):
        P = np.asarray(P, dtype=float).reshape(len(P), -1)
        hbar = 0.5 * np.sum(P**2, axis=1)
        return EffectiveTable(k=4.0, P_grid=P, hbar=hbar, Q=P.copy(), records=exact_records(4.0, P, hbar))

    @pytest.mark.parametrize(
        "P",
        [
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # column-major
        ],
        ids=["non-rectangular", "column-major"],
    )
    def test_d2_grid_must_be_row_major_rectangular(self, P):
        with pytest.raises(ValueError, match="rectangular"):
            legendre_transform(self.table(P), [[0.0, 0.0]])

    def test_d2_nonconvex_table_rejected_with_triple(self):
        # P1 in {-1, 0, 1} x P2 in {-1, 0, 1, 2}, row-major; entry 5 is P = (0, 0)
        tab = self.table([[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0, 2.0)])
        tab.hbar[5] += 2.0
        with pytest.raises(NonconvexTableError) as err:
            legendre_transform(tab, [[0.0, 0.0]])
        assert str(err.value) == (
            "midpoint convexity violated by 1.500e+00 at entries (1, 5, 9): "
            "P=[[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], hbar=[0.5, 2.0, 0.5]"
        )

    @pytest.mark.parametrize("P", [[-1.0, 0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]]])
    def test_grid_must_be_uniformly_spaced(self, P):
        with pytest.raises(ValueError, match="uniformly spaced"):
            legendre_transform(self.table(P), [[0.0] * np.asarray(P).reshape(len(P), -1).shape[1]])

    @pytest.mark.parametrize("shift", [-0.04, 0.0, 0.03])
    def test_shifted_rounded_grids_pass(self, shift):
        # the criterion-6 grid moved by a seed offset, as the benchmark sweeps it
        P = np.round(np.arange(-2.0, 2.0001, 0.1), 10) + shift
        leg = legendre_transform(self.table(P), [0.0, 0.5])
        assert leg.lbar == pytest.approx([0.0, 0.125], abs=5e-3)  # the dual Q^2/2


class TestRotationConsistency:
    def test_free_case(self):
        tab = quadratic_table()
        disc, _ = rotation_consistency(tab)
        assert disc <= 1e-10

    def test_drift_case(self):
        grid = TorusGrid(1, 32, 64)
        P_vals = np.round(np.arange(-1.0, 1.001, 0.1), 12)
        tab = sweep_P(t1_hamiltonian(), grid, 8.0, P_vals)
        disc, _ = rotation_consistency(tab)
        assert disc <= 1e-6

    def test_pendulum_truncation_dominated(self):
        # the independent flux oracle puts the centered-difference truncation
        # near the transition at 3.5e-2 for k=16, step 0.1; away from the
        # transition band the discrepancy is at the 5e-3 level
        grid = TorusGrid(1, 64, 8)
        P_vals = np.round(np.arange(-2.0, 2.001, 0.1), 12)
        tab = sweep_P(pendulum_hamiltonian(), grid, 16.0, P_vals, config=SolverConfig(k=16.0, grad_tol=1e-10))
        disc, per_entry = rotation_consistency(tab)
        assert disc <= 5e-2
        interior_P = tab.P_grid[1:-1, 0]
        away = np.abs(np.abs(interior_P) - 4.0 / np.pi) > 0.45
        assert np.max(per_entry[away]) <= 5e-3

    def test_d1_only(self):
        tab = EffectiveTable(
            k=1.0,
            P_grid=np.zeros((4, 2)),
            hbar=np.zeros(4),
            Q=np.zeros((4, 2)),
            records=exact_records(1.0, np.zeros((4, 2)), np.zeros(4)),
        )
        with pytest.raises(ValueError, match="^rotation consistency is defined for d=1 tables$"):
            rotation_consistency(tab)

    def test_three_entries_needed(self):
        tab = quadratic_table(step=0.5, span=0.25)
        assert len(tab) == 2
        with pytest.raises(ValueError, match="^need at least 3 entries$"):
            rotation_consistency(tab)


class TestCsv:
    def test_effective_round_trip_values(self, tmp_path):
        tab = quadratic_table(step=0.5, span=1.0)
        path = tmp_path / "eff.csv"
        write_effective_csv(tab, path, sidecar={"note": 1})
        lines = path.read_text().splitlines()
        assert lines[0] == "P0,hbar,Q0,converged,grad_norm,lip_norm,iterations"
        assert len(lines) == 1 + len(tab)
        first = lines[1].split(",")
        assert float(first[0]) == tab.P_grid[0, 0]
        assert float(first[1]) == tab.hbar[0]
        assert first[3:] == ["1", "0.0", "0.0", "0"]  # the record's flag, floats and iteration count
        assert (tmp_path / "eff.csv.json").exists()

    def test_legendre_csv(self, tmp_path):
        tab = quadratic_table(step=0.5, span=1.0)
        leg = legendre_transform(tab, [0.0, 0.5])
        path = tmp_path / "leg.csv"
        write_legendre_csv(leg, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "Q0,lbar"
        assert len(lines) == 3
