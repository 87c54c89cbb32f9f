import ast
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_bitwise,
    axes_swapped,
    flux_oracle_hbar,
    mixed3_json,
    mixed_hamiltonian,
    nonseparable_2d,
    pendulum_hamiltonian,
    scaled,
    separable_2d,
    t1_hamiltonian,
    t1_minimizer,
    tc1_hamiltonian,
    tc2_hamiltonian,
    time_reversed,
    trivial_hamiltonian,
)
from evanskam import evans_solver
from evanskam.cli_io import RunConfig
from evanskam.evans_solver import (
    LipschitzCertificate,
    SolveResult,
    SolverConfig,
    evaluate_state,
    gradient,
    hbar_bounds,
    linearized_el_apply,
    lipschitz_bound,
    minimize,
    objective,
)
from evanskam.hamiltonians import (
    ChiParams,
    FourierSpec,
    HamiltonianTable,
    MechanicalHamiltonian,
    NyquistError,
    check_nyquist,
    chi_bound,
    hamiltonian_from_json,
)
from evanskam.effective import sweep_P
from evanskam.mather_limits import aronsson_residual, holonomy_residual, k_sweep, mather_diagnostics
from evanskam.mfg_diagnostics import mfg_residuals
from evanskam.torus_grid import GridError, ScalarField, TorusGrid


def random_zero_mean(grid, rng, max_freq=4, n_terms=6, scale=0.2):
    coords = grid.coords()
    out = grid.zeros()
    for _ in range(n_terms):
        freqs = [int(rng.integers(-max_freq, max_freq + 1)) for _ in range(grid.n_axes)]
        phase = sum((2 * np.pi * k) * c for k, c in zip(freqs, coords))
        out = out + float(rng.normal(scale=scale)) * np.cos(np.asarray(phase) + float(rng.uniform(0, 7)))
    return grid.project_zero_mean(out)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(k=0.0)
        with pytest.raises(ValueError):
            SolverConfig(k=1.0, grad_tol=0.0)

    def test_no_differentiation_method(self):
        # one discretization: neither the config nor the result names a method
        assert "method" not in {f.name for f in fields(SolverConfig)} | {f.name for f in fields(SolveResult)}
        with pytest.raises(TypeError):
            SolverConfig(k=1.0, method="spectral")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", math.nan),
            ("k", math.inf),
            ("grad_tol", math.nan),
            ("max_newton", 2.5),
            ("max_newton", True),
            ("max_newton", "5"),
            # Python counts booleans as integers; P takes finite numbers only
            ("k", True),
            ("grad_tol", True),
            ("P", True),
            ("P", (0.5, True)),
            ("P", np.array([True])),
            ("P", (math.nan,)),
            ("P", [math.inf]),
            ("P", -math.inf),
            ("max_newton", 0),
        ],
    )
    def test_malformed_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"k": 1.0, field: value})

    def test_well_formed_fields_accepted(self):
        cfg = SolverConfig(k=8, max_newton=np.int64(5))
        assert (cfg.k, cfg.max_newton) == (8, 5)

    def test_numbers_stored_in_one_representation(self):
        # k and grad_tol as floats, max_newton as an int: k = np.int64(16) used
        # to make json.dumps of the solve's metadata raise TypeError
        given = [(16, 1e-9, 60), (np.int64(16), np.float64(1e-9), 60.0), (16.0, 1e-9, np.int64(60))]
        cfgs = [SolverConfig(k=k, P=0.5, grad_tol=tol, max_newton=n) for k, tol, n in given]
        assert all((type(c.k), type(c.grad_tol), type(c.max_newton)) == (float, float, int) for c in cfgs)
        assert all(c == cfgs[0] for c in cfgs)
        assert len({hash(c) for c in cfgs}) == 1
        grid = TorusGrid(1, 16, 1)
        assert len({json.dumps(minimize(pendulum_hamiltonian(), grid, c).metadata()) for c in cfgs}) == 1

    def test_momentum_resolution(self):
        cfg = SolverConfig(k=1.0)
        assert np.array_equal(cfg.momentum(2), np.zeros(2))
        cfg1 = SolverConfig(k=1.0, P=0.5)
        assert np.array_equal(cfg1.momentum(1), [0.5])
        with pytest.raises(ValueError):
            cfg1.momentum(2)

    def test_equal_momenta_compare_and_hash_equal(self):
        cfgs = [SolverConfig(k=1.0, P=p) for p in (0.5, [0.5], (0.5,), np.array([0.5]), np.float64(0.5))]
        assert all(cfg.P == (0.5,) and type(cfg.P[0]) is float for cfg in cfgs)
        assert all(cfg == cfgs[0] for cfg in cfgs)
        assert len({hash(cfg) for cfg in cfgs}) == 1

    def test_nested_P_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"P must be None or finite numbers, got \[\[0.5\]\]"):
            SolverConfig(k=1.0, P=[[0.5]])


class TestObjective:
    def test_trivial_zero(self):
        grid = TorusGrid(1, 16, 16)
        for k in (1.0, 8.0, 1e6):
            J, m = objective(trivial_hamiltonian(), grid, SolverConfig(k=k), grid.zeros())
            assert J == 0.0
            assert np.max(np.abs(m.values - 1.0)) <= 1e-14

    def test_constant_momentum_shift(self):
        grid = TorusGrid(1, 16, 16)
        J, m = objective(trivial_hamiltonian(), grid, SolverConfig(k=8.0, P=(1.5,)), grid.zeros())
        assert J == pytest.approx(0.5 * 1.5**2, abs=1e-14)
        assert np.max(np.abs(m.values - 1.0)) <= 1e-12

    def test_analytic_flat_case(self):
        # u with u_t = 1/4 - eta^2/2 makes the integrand constant: J = 1/4, m = 1
        grid = TorusGrid(1, 32, 64)
        u = np.broadcast_to(t1_minimizer(0.0, grid.n_t), grid.shape)
        J, m = objective(t1_hamiltonian(), grid, SolverConfig(k=8.0), u)
        assert J == pytest.approx(0.25, abs=1e-13)
        assert np.max(np.abs(m.values - 1.0)) <= 1e-11

    def test_large_k_no_overflow(self):
        grid = TorusGrid(1, 16, 16)
        J, m = objective(pendulum_hamiltonian(), grid, SolverConfig(k=1e6), grid.zeros())
        assert math.isfinite(J)
        assert np.all(np.isfinite(m.values))
        assert J == pytest.approx(1.0, abs=1e-4)  # (1/k) log mean e^{kV} -> max V

    def test_shift_invariance(self, rng):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=4.0)
        u = random_zero_mean(grid, rng)
        J0, _ = objective(mixed_hamiltonian(), grid, cfg, u)
        J1, _ = objective(mixed_hamiltonian(), grid, cfg, u + 3.7)
        assert abs(J1 - J0) <= 1e-13

    def test_convexity_along_segments(self, rng):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=4.0)
        ham = mixed_hamiltonian()
        for _ in range(3):
            u1 = random_zero_mean(grid, rng)
            u2 = random_zero_mean(grid, rng)
            J1, _ = objective(ham, grid, cfg, u1)
            J2, _ = objective(ham, grid, cfg, u2)
            for theta in np.linspace(0, 1, 11):
                Jm, _ = objective(ham, grid, cfg, theta * u1 + (1 - theta) * u2)
                assert Jm <= theta * J1 + (1 - theta) * J2 + 1e-10

    def test_mass_normalization(self):
        grid = TorusGrid(1, 16, 16)
        local = np.random.default_rng(42)
        for _ in range(5):
            u = random_zero_mean(grid, local)
            _, m = objective(mixed_hamiltonian(), grid, SolverConfig(k=16.0), u)
            assert abs(m.mean() - 1.0) <= 1e-12
            assert np.min(m.values) > 0.0

    def test_nonfinite_rejected(self):
        grid = TorusGrid(1, 8, 8)
        bad = grid.zeros()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            objective(trivial_hamiltonian(), grid, SolverConfig(k=1.0), bad)

    def test_nyquist_rejected(self):
        V = FourierSpec.build(2, [((9, 0), 1.0, 0.0)])
        ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)
        grid = TorusGrid(1, 16, 16)
        with pytest.raises(NyquistError):
            objective(ham, grid, SolverConfig(k=1.0), grid.zeros())


class TestGradient:
    def test_trivial_zero(self):
        grid = TorusGrid(1, 16, 16)
        g = gradient(trivial_hamiltonian(), grid, SolverConfig(k=8.0), grid.zeros())
        assert np.max(np.abs(g.values)) == 0.0

    def test_zero_mean_exactly(self, rng):
        grid = TorusGrid(1, 16, 16)
        g = gradient(mixed_hamiltonian(), grid, SolverConfig(k=8.0), random_zero_mean(grid, rng))
        assert abs(g.mean()) <= 1e-14 * (1.0 + float(np.max(np.abs(g.values))))

    def test_matches_finite_differences(self, rng):
        # oracle: central finite difference of J along random directions
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=4.0)
        ham = pendulum_hamiltonian()
        u = random_zero_mean(grid, rng)
        g = gradient(ham, grid, cfg, u).values
        for _ in range(5):
            v = random_zero_mean(grid, rng)
            step = 1e-5
            Jp, _ = objective(ham, grid, cfg, u + step * v)
            Jm, _ = objective(ham, grid, cfg, u - step * v)
            fd = (Jp - Jm) / (2 * step)
            an = grid.inner(g, v)
            assert abs(an - fd) <= 1e-6 * (1 + abs(fd))

    def test_vanishes_at_analytic_minimizer(self):
        grid = TorusGrid(1, 64, 64)
        u = np.broadcast_to(t1_minimizer(0.0, grid.n_t), grid.shape)
        g = gradient(t1_hamiltonian(), grid, SolverConfig(k=8.0), u)
        assert np.max(np.abs(g.values)) <= 1e-10


class TestTransport:
    @pytest.mark.parametrize("case", ["tc1-16x16", "tc2-8x8x8", "mixed-16x16", "pendulum-32x8"])
    def test_flux_divergence_is_minus_the_adjoint(self, rng, case):
        # mean(y * T x) = -mean(x * (y_t + div(y w))), since every D is skew;
        # relative to the Cauchy-Schwarz bound on mean(y * T x).  White-noise
        # x and y overlap in every Fourier mode, so no term of T can hide.
        ham, grid = {"tc1-16x16": (tc1_hamiltonian(), TorusGrid(1, 16, 16)),
                     "tc2-8x8x8": (tc2_hamiltonian(), TorusGrid(2, 8, 8)),
                     "mixed-16x16": (mixed_hamiltonian(), TorusGrid(1, 16, 16)),
                     "pendulum-32x8": (pendulum_hamiltonian(), TorusGrid(1, 32, 8))}[case]
        st = evaluate_state(ham, grid, SolverConfig(k=8.0), random_zero_mean(grid, rng))
        for _ in range(3):
            x, y = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
            Tx = st.transport(x)
            lhs, rhs = grid.inner(y, Tx), -grid.inner(x, st.flux_divergence(y))
            assert abs(lhs - rhs) <= 1e-13 * grid.norm(y) * grid.norm(Tx)


class TestLinearizedOperator:
    def test_constants_in_null_space(self, rng):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=4.0)
        u = random_zero_mean(grid, rng)
        out = linearized_el_apply(mixed_hamiltonian(), grid, cfg, u, np.ones(grid.shape))
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_symmetry(self, rng):
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=4.0)
        ham = mixed_hamiltonian()
        u = random_zero_mean(grid, rng)
        for _ in range(3):
            v = random_zero_mean(grid, rng)
            w = random_zero_mean(grid, rng)
            Bvw = grid.inner(w, linearized_el_apply(ham, grid, cfg, u, v).values)
            Bwv = grid.inner(v, linearized_el_apply(ham, grid, cfg, u, w).values)
            assert abs(Bvw - Bwv) <= 1e-10 * (1 + abs(Bvw))

    def test_positivity_and_assembled_form(self, rng):
        # oracle: assemble mean(m (k (v_t + H_p . grad v)^2 + |grad v|^2)) / k
        # directly; the d = 2 case has the cross terms of three axes
        for ham, grid, cfg in (
            (mixed_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=4.0)),
            (tc2_hamiltonian(), TorusGrid(2, 8, 8), SolverConfig(k=4.0, P=(0.5, 0.2))),
        ):
            d = ham.d
            u = random_zero_mean(grid, rng)
            _, m = objective(ham, grid, cfg, u)
            t = grid.coords()[-1]
            w = [cfg.momentum(d)[i] + grid.deriv(u, i) + ham.eta[i].evaluate(t) for i in range(d)]
            for _ in range(5):
                v = random_zero_mean(grid, rng)
                Bvv = grid.inner(v, linearized_el_apply(ham, grid, cfg, u, v).values)
                dv = [grid.deriv(v, i) for i in range(d)]
                transport = grid.deriv(v, d) + sum(wi * g for wi, g in zip(w, dv))
                direct = grid.integrate(m.values * (cfg.k * transport**2 + sum(g**2 for g in dv))) / cfg.k
                assert Bvv >= -1e-12
                assert abs(Bvv - direct) <= 1e-9 * (1 + abs(direct))

    def test_hessian_scale_at_critical_point(self):
        # at a critical point, k * B(v, v) equals the second difference of J
        grid = TorusGrid(1, 32, 32)
        cfg = SolverConfig(k=4.0)
        ham = t1_hamiltonian()
        u = np.broadcast_to(t1_minimizer(0.0, grid.n_t), grid.shape).copy()
        rng = np.random.default_rng(7)
        v = random_zero_mean(grid, rng)
        Bvv = grid.inner(v, linearized_el_apply(ham, grid, cfg, u, v).values)
        h = 1e-4
        J0, _ = objective(ham, grid, cfg, u)
        Jp, _ = objective(ham, grid, cfg, u + h * v)
        Jm, _ = objective(ham, grid, cfg, u - h * v)
        second = (Jp - 2 * J0 + Jm) / h**2
        assert abs(cfg.k * Bvv - second) <= 1e-5 * (1 + abs(second))


class TestMinimize:
    def test_trivial_immediate(self):
        grid = TorusGrid(1, 16, 16)
        res = minimize(trivial_hamiltonian(), grid, SolverConfig(k=8.0))
        assert res.converged
        assert res.iterations <= 1
        assert res.hbar == pytest.approx(0.0, abs=1e-12)
        assert abs(res.u.mean()) <= 1e-12
        assert abs(res.m.mean() - 1.0) <= 1e-12

    @pytest.mark.parametrize("P,expected", [(0.0, 0.25), (1.0, 0.75)])
    def test_analytic_drift_case(self, P, expected):
        grid = TorusGrid(1, 64, 64)
        res = minimize(t1_hamiltonian(), grid, SolverConfig(k=8.0, P=(P,)))
        assert res.converged
        assert res.hbar == pytest.approx(expected, abs=1e-8)
        exact = np.broadcast_to(t1_minimizer(P, grid.n_t), grid.shape)
        aligned = res.u.values - grid.integrate(res.u.values - exact)
        assert np.max(np.abs(aligned - exact)) <= 1e-8

    def test_pendulum_bounds_and_certificates(self):
        grid = TorusGrid(1, 64, 64)
        ham = pendulum_hamiltonian()
        res = minimize(ham, grid, SolverConfig(k=8.0))
        lo, hi = hbar_bounds(ham, grid)
        assert res.converged
        assert lo - 1e-9 <= res.hbar <= hi + 1e-9
        assert -1.0 <= res.hbar <= 1.0
        assert res.grad_norm <= 1e-8

    def test_metadata_has_no_lambda(self):
        res = minimize(pendulum_hamiltonian(), TorusGrid(1, 16, 1), SolverConfig(k=4.0))
        assert set(res.metadata()) == {
            "k", "P", "hbar", "grad_norm", "lip_norm", "iterations", "converged"
        }

    def test_json_lambda_solves_the_scaled_hamiltonian(self):
        # "lambda": 0.75 is the three-term Hamiltonian with every coefficient times 0.75, bit for bit
        grid, cfg = TorusGrid(1, 16, 16), SolverConfig(k=8.0, P=(0.5,))
        res = minimize(hamiltonian_from_json(mixed3_json(0.75)), grid, cfg)
        ref = minimize(scaled(hamiltonian_from_json(mixed3_json(1.0)), 0.75), grid, cfg)
        assert res.converged and ref.converged
        assert_bitwise(res.u.values, ref.u.values)
        assert_bitwise(res.hbar, ref.hbar)
        assert res.iterations == ref.iterations

    def test_pendulum_matches_flux_oracle(self):
        # independent constant-flux oracle for the autonomous reduction
        grid = TorusGrid(1, 64, 4)
        res = minimize(pendulum_hamiltonian(), grid, SolverConfig(k=16.0, P=(2.0,)))
        ref = flux_oracle_hbar(16.0, 2.0)
        assert res.converged
        assert res.hbar == pytest.approx(ref, abs=5e-7)

    def test_large_k_matches_flux_oracle(self):
        ham, grid = pendulum_hamiltonian(), TorusGrid(1, 128, 1)
        res = minimize(ham, grid, SolverConfig(k=64.0, P=(2.0,)))
        assert res.converged
        assert abs(res.hbar - flux_oracle_hbar(64.0, 2.0)) <= 1e-10

    def test_solve_config_matches_the_flux_oracle(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "pendulum_solve.json"
        run = RunConfig(json.loads(path.read_text()))
        assert run.grid.shape == (64, 16)
        res = minimize(run.ham, run.grid, run.solver)
        assert res.converged
        assert abs(res.hbar - flux_oracle_hbar(16.0, 2.0)) <= 1e-12

    def test_pendulum_above_256_nodes_matches_flux_oracle(self):
        # one plane of 320 nodes takes the dense block step: PCG with the
        # Fourier surrogate stopped unconverged at 5.1e-6 after 72 steps
        res = minimize(pendulum_hamiltonian(), TorusGrid(1, 320, 8), SolverConfig(k=16.0, P=(0.3,)))
        assert res.converged
        assert abs(res.hbar - flux_oracle_hbar(16.0, 0.3)) <= 1e-12

    def test_separable_2d_matches_two_1d_solves(self):
        # V = V1(x) + V2(y), eta = 0: J splits over the axes, so hbar is the
        # sum of the 1-d values and Q the pair of 1-d rotation numbers.  The
        # 18^2 plane (324 nodes) takes the dense block step too; PCG with
        # the Fourier surrogate stopped unconverged at 4.9e-6 after 127 steps
        for n_x in (16, 18):
            res = minimize(separable_2d(), TorusGrid(2, n_x, 4), SolverConfig(k=16.0, P=(0.3, 0.1)))
            assert res.converged, n_x
            parts = []
            for amplitude, P in ((1.0, 0.3), (0.5, 0.1)):
                V = FourierSpec.build(2, [((1, 0), amplitude, 0.0)])
                ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)
                part = minimize(ham, TorusGrid(1, n_x, 4), SolverConfig(k=16.0, P=(P,)))
                assert part.converged
                parts.append(part)
            assert abs(res.hbar - sum(part.hbar for part in parts)) <= 1e-12
            assert np.max(np.abs(res.rotation - [part.rotation[0] for part in parts])) <= 1e-9

    @pytest.mark.parametrize("P", [0.1, 1.5], ids=["flat", "rotational"])
    def test_separable_part_matches_the_scaled_flux_oracle(self, P):
        # the cos(2 pi y)/2 part of the separable case: u = sqrt(a)*v gives
        # hbar_k(P; a*V) = a*hbar_{k*a}(P/sqrt(a); V), here with a = 1/2 and
        # V = cos(2 pi x), which the flux oracle solves (measured 0.0 at P = 0.1,
        # 2.2e-16 at P = 1.5, where |P| is past the branch point 0.9)
        V = FourierSpec.build(2, [((1, 0), 0.5, 0.0)])
        ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)
        res = minimize(ham, TorusGrid(1, 64, 1), SolverConfig(k=16.0, P=(P,), grad_tol=1e-11))
        assert res.converged
        assert abs(res.hbar - 0.5 * flux_oracle_hbar(8.0, P * math.sqrt(2.0))) <= 1e-12

    def test_autonomous_reduction(self):
        ham = pendulum_hamiltonian()
        cfg = SolverConfig(k=8.0, P=(1.7,))
        res_2d = minimize(ham, TorusGrid(1, 64, 64), cfg)
        res_1d = minimize(ham, TorusGrid(1, 64, 1), cfg)
        assert res_2d.converged and res_1d.converged
        assert abs(res_2d.hbar - res_1d.hbar) <= 1e-6

    def test_warm_start_skips_homotopy(self):
        grid = TorusGrid(1, 32, 32)
        ham = pendulum_hamiltonian()
        cold = minimize(ham, grid, SolverConfig(k=8.0, P=(1.5,)))
        warm = minimize(ham, grid, SolverConfig(k=8.0, P=(1.5,)), warm_start=cold.u)
        assert warm.converged
        assert warm.iterations <= 1
        assert warm.hbar == pytest.approx(cold.hbar, abs=1e-10)

    @pytest.mark.parametrize(
        "make_start, error, message",
        [
            (lambda: np.full((16, 4), np.nan), GridError, "field values must be finite"),
            (lambda: np.zeros((16, 2)), GridError, "field shape (16, 2) does not match grid (16, 4)"),
            (
                lambda: minimize(pendulum_hamiltonian(), TorusGrid(1, 32, 4), SolverConfig(k=4.0, P=(0.5,))),
                ValueError,
                "result fields live on a different grid",
            ),
        ],
        ids=["nan", "shape", "other-grid-result"],
    )
    def test_warm_start_refusals(self, make_start, error, message):
        # the type and the message of each refusal, before any Newton step
        grid, cfg = TorusGrid(1, 16, 4), SolverConfig(k=4.0, P=(0.5,))
        with pytest.raises(ValueError) as info:
            minimize(pendulum_hamiltonian(), grid, cfg, warm_start=make_start())
        assert info.type is error
        assert str(info.value) == message

    def test_k_continuation_agrees(self):
        # the cold solve climbs 4, 8, 16, 32; the warm one jumps from 4 to 32
        grid = TorusGrid(1, 32, 32)
        ham, cfg = pendulum_hamiltonian(), SolverConfig(k=32.0, P=(1.8,))
        cont = minimize(ham, grid, cfg)
        direct = minimize(ham, grid, cfg, warm_start=minimize(ham, grid, replace(cfg, k=4.0)).u)
        assert cont.converged and direct.converged
        assert abs(cont.hbar - direct.hbar) <= 1e-9

    def test_nonconvergence_flagged(self):
        grid = TorusGrid(1, 32, 32)
        res = minimize(pendulum_hamiltonian(), grid, SolverConfig(k=16.0, P=(2.0,), max_newton=1))
        assert not res.converged
        assert np.all(np.isfinite(res.u.values))

    def test_d2_solve(self):
        eta = (FourierSpec.build(1, [((1,), 1.0, 0.0)]), FourierSpec.zero(1))
        ham = MechanicalHamiltonian(d=2, eta=eta, V=FourierSpec.zero(3))
        grid = TorusGrid(2, 12, 16)
        res = minimize(ham, grid, SolverConfig(k=4.0))
        # same closed form as d=1: hbar = mean |eta|^2 / 2 = 1/4
        assert res.converged
        assert res.hbar == pytest.approx(0.25, abs=1e-8)

    def test_lip_norm_is_max_gradient_magnitude(self):
        grid = TorusGrid(1, 64, 64)
        res = minimize(t1_hamiltonian(), grid, SolverConfig(k=8.0))
        du = grid.deriv(res.u.values, 0)
        ut = grid.deriv(res.u.values, 1)
        assert res.lip_norm == pytest.approx(float(np.sqrt(np.max(du**2 + ut**2))), abs=1e-12)


class TestHbarBounds:
    def test_free_particle(self):
        ham = trivial_hamiltonian()
        grid = TorusGrid(1, 16, 16)
        assert hbar_bounds(ham, grid) == (0.0, 0.0)
        lo, hi = hbar_bounds(ham, grid, P=[2.0])
        assert (lo, hi) == (0.0, 2.0)

    def test_pendulum(self):
        lo, hi = hbar_bounds(pendulum_hamiltonian(), TorusGrid(1, 16, 16))
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(1.0)


def barrier_integral(chi: ChiParams, K: float) -> float:
    """g(a) = integral_a^K 2 du / (chi(u) + 1) at a = ``_A_RATIO`` * K: the definition ``lipschitz_bound``'s K must meet."""
    a, c, d0 = evans_solver._A_RATIO * K, chi.c, chi.d0
    if c > 0:
        return (2.0 / c) * math.log((c * K + d0 + 1.0) / (c * a + d0 + 1.0))
    return 2.0 * (K - a) / (d0 + 1.0)


class TestLipschitzBound:
    def test_zero_chi(self):
        chi = ChiParams(c=0.0, d0=0.0)
        cert = lipschitz_bound(chi)
        assert cert.K == pytest.approx(1.0, abs=1e-6)
        assert cert.K > evans_solver._A_RATIO * cert.K > 0
        assert barrier_integral(chi, cert.K) >= 2.0

    def test_unit_slope(self):
        # closed form: 2 log((K+1)/(a+1)) = 2 with a -> 0 gives K = e - 1
        cert = lipschitz_bound(ChiParams(c=1.0, d0=0.0))
        assert cert.K == pytest.approx(math.e - 1.0, abs=1e-6)

    def test_offset_only(self):
        cert = lipschitz_bound(ChiParams(c=0.0, d0=1.0))
        assert cert.K == pytest.approx(2.0, abs=1e-6)

    def test_steep_slope_below_limit_is_finite(self):
        # c = 20 sits just below log(1/a_ratio) = 20.72 at a_ratio = 1e-9
        chi = ChiParams(c=20.0, d0=0.0)
        cert = lipschitz_bound(chi)
        assert math.isfinite(cert.K)
        assert barrier_integral(chi, cert.K) >= 2.0

    @pytest.mark.parametrize("c", [21.0, 25.0, 800.0])
    def test_no_certificate_beyond_limit(self, c):
        # a = a_ratio*K grows with K, so g(a) < 2 for every K once a_ratio*e^c >= 1
        with pytest.raises(ValueError, match=f"c={c}"):
            lipschitz_bound(ChiParams(c=c, d0=0.0))

    def test_refusals(self):
        with pytest.raises(ValueError, match=r"^chi parameters must be nonnegative$"):
            ChiParams(c=-1.0, d0=0.0)
        with pytest.raises(ValueError, match=r"^certificate requires K > 0$"):
            LipschitzCertificate(K=0.0)

    def test_monitor_on_solver_battery(self):
        # the named mechanical cases converge to 1e-9 across the full k range;
        # the strongly time-coupled mixed case is checked separately below,
        # where double precision limits the attainable gradient norm
        grid = TorusGrid(1, 32, 32)
        cases = [
            (pendulum_hamiltonian(), 0.0),
            (pendulum_hamiltonian(), 2.0),
            (t1_hamiltonian(), 0.0),
            (t1_hamiltonian(), 1.0),
        ]
        for ham, P in cases:
            cert = lipschitz_bound(chi_bound(ham, grid))
            for k in (4.0, 16.0, 64.0):
                res = minimize(ham, grid, SolverConfig(k=k, P=(P,)))
                assert res.converged, (P, k, res.grad_norm)
                assert cert.monitor(res.lip_norm), (P, k, res.lip_norm, cert.K)

    def test_monitor_on_stiff_mixed_case(self):
        # conditioning of the Newton system scales like the dynamic range of
        # m, so 1e-9 is reachable at k=4 but not beyond; the gradient bound
        # monitor must hold wherever the solve lands
        grid = TorusGrid(1, 32, 32)
        ham = mixed_hamiltonian()
        cert = lipschitz_bound(chi_bound(ham, grid))
        res4 = minimize(ham, grid, SolverConfig(k=4.0, P=(0.5,)))
        assert res4.converged
        assert cert.monitor(res4.lip_norm)
        res8 = minimize(ham, grid, SolverConfig(k=8.0, P=(0.5,), grad_tol=1e-5))
        assert res8.converged
        assert cert.monitor(res8.lip_norm)


class TestTimeCoupledRegression:
    # hbar from dense direct inner solves of the same Newton loop; with the
    # m-blind Fourier surrogate alone the solves stalled at gradient norms
    # 3e-5 and 6e-4, and PCG with the scaled one stops at 6e-5 at k = 16
    @pytest.mark.parametrize("k, hbar", [(8.0, 0.8014873205), (16.0, 0.9000883414)])
    def test_tc1_converges_to_the_dense_reference(self, k, hbar):
        res = minimize(tc1_hamiltonian(), TorusGrid(1, 32, 16), SolverConfig(k=k, P=(0.0,), grad_tol=1e-9))
        assert res.converged, res.grad_norm
        assert abs(res.hbar - hbar) <= 1e-9


class TestTimeReversal:
    """hbar_k(-P) of the time-reversed Hamiltonian is hbar_k(P), and its rotation is -Q: an oracle for the time axis."""

    @pytest.mark.parametrize(
        "shape", [(1, 32, 16), (1, 33, 15), (1, 64, 16)], ids=["dense-32x16", "dense-33x15", "pcg-64x16"]
    )
    def test_tc1_reversed_in_time(self, shape):
        grid, cfg = TorusGrid(*shape), SolverConfig(k=8.0, P=(0.3,))
        res = minimize(tc1_hamiltonian(), grid, cfg)
        rev = minimize(time_reversed(tc1_hamiltonian()), grid, replace(cfg, P=(-0.3,)))
        assert res.converged and rev.converged
        assert abs(rev.hbar - res.hbar) <= 1e-12
        assert np.max(np.abs(rev.rotation + res.rotation)) <= 10 * cfg.grad_tol

    def test_tc2_reversed_in_time(self):
        # d = 2 time-coupled on 1,331 space-time nodes, above the dense cap
        # (measured: |dhbar| 0, |Q + Q~| 1.0e-16, 21 Newton steps each)
        grid, cfg = TorusGrid(2, 11, 11), SolverConfig(k=8.0, P=(0.5, 0.2))
        assert evans_solver._step_solve(grid) is evans_solver._pcg_block
        res = minimize(tc2_hamiltonian(), grid, cfg)
        rev = minimize(time_reversed(tc2_hamiltonian()), grid, replace(cfg, P=(-0.5, -0.2)))
        assert res.converged and rev.converged
        assert abs(rev.hbar - res.hbar) <= 1e-12
        assert np.max(np.abs(rev.rotation + res.rotation)) <= 10 * cfg.grad_tol


class TestNonseparable2d:
    """Oracles for a d = 2 potential that does not split over the axes, where two 1-d solves say nothing."""

    @pytest.mark.parametrize("n_x, step", [(16, "_dense_block"), (23, "_pcg_block")], ids=["dense-16", "pcg-23"])
    def test_axes_swapped(self, n_x, step):
        # hbar_k(P2, P1) of the swapped Hamiltonian is hbar_k(P1, P2), and Q
        # comes back reversed (measured: |dhbar| 0 and 2.2e-16, |dQ| 1.2e-16
        # and 7.7e-13)
        grid, cfg = TorusGrid(2, n_x, 1), SolverConfig(k=8.0, P=(0.5, 0.2))
        assert evans_solver._step_solve(grid) is getattr(evans_solver, step)
        res = minimize(nonseparable_2d(), grid, cfg)
        swapped = minimize(axes_swapped(nonseparable_2d()), grid, replace(cfg, P=(0.2, 0.5)))
        assert res.converged and swapped.converged
        assert abs(swapped.hbar - res.hbar) <= 1e-12
        assert np.max(np.abs(swapped.rotation[::-1] - res.rotation)) <= 10 * cfg.grad_tol

    def test_potential_scaling(self):
        # u = sqrt(a)*v gives hbar_k(P; a*V) = a*hbar_{k*a}(P/sqrt(a); V) and
        # Q_k(P; a*V) = sqrt(a)*Q_{k*a}(P/sqrt(a); V); a = 4 keeps P/2 and 4V
        # exact in binary (measured: 3.2e-13 in hbar, 6.8e-12 in Q)
        grid, cfg = TorusGrid(2, 16, 1), SolverConfig(k=4.0, P=(0.5, 0.2))
        res = minimize(scaled(nonseparable_2d(), 4.0), grid, cfg)
        ref = minimize(nonseparable_2d(), grid, replace(cfg, k=16.0, P=(0.25, 0.1)))
        assert res.converged and ref.converged
        assert abs(res.hbar / 4.0 - ref.hbar) <= 1e-12
        assert np.max(np.abs(res.rotation - 2.0 * ref.rotation)) <= 10 * cfg.grad_tol


class TestOddGrids:
    """Odd sizes on every step path; on an odd axis D's only null mode is the constant, so u is determined."""

    def test_flux_step_on_a_33_node_plane(self):
        # an autonomous solve runs on its one plane: 33 x 7 gives the bits of 33 x 1
        cfg = SolverConfig(k=16.0, P=(2.0,))
        assert evans_solver._step_solve(TorusGrid(1, 33, 1)) is evans_solver._flux_block
        plane = minimize(pendulum_hamiltonian(), TorusGrid(1, 33, 1), cfg)
        full = minimize(pendulum_hamiltonian(), TorusGrid(1, 33, 7), cfg)
        assert plane.converged and full.converged
        assert_bitwise(full.hbar, plane.hbar)
        assert_bitwise(full.u.values, np.repeat(plane.u.values, 7, axis=1))
        assert abs(plane.hbar - flux_oracle_hbar(16.0, 2.0)) <= 1e-6

    def test_dense_block_on_tc1_33x15(self):
        # within 3e-6 of the 64x32 value, where 32x16 is 3.0e-6 off
        grid = TorusGrid(1, 33, 15)
        assert evans_solver._step_solve(grid) is evans_solver._dense_block
        res = minimize(tc1_hamiltonian(), grid, SolverConfig(k=16.0, P=(0.0,)))
        assert res.converged, res.grad_norm
        assert abs(res.hbar - 0.900091333177) <= 3e-6

    def test_pcg_on_drift_33x33(self):
        grid = TorusGrid(1, 33, 33)
        assert evans_solver._step_solve(grid) is evans_solver._pcg_block
        res = minimize(t1_hamiltonian(), grid, SolverConfig(k=8.0, P=(0.3,)))
        assert res.converged
        assert abs(res.hbar - (0.3**2 / 2 + 0.25)) <= 1e-10

    def test_dense_block_on_tc2_7_cubed(self):
        grid = TorusGrid(2, 7, 7)
        assert evans_solver._step_solve(grid) is evans_solver._dense_block
        assert minimize(tc2_hamiltonian(), grid, SolverConfig(k=4.0, P=(0.5, 0.2))).converged

    @pytest.mark.parametrize(
        "shape, low, high", [((33, 15), 0.0, 1e-5), ((32, 16), 0.99e-3, 1.01e-3)], ids=["33x15", "32x16"]
    )
    def test_a_perturbed_solve_returns_only_on_an_odd_grid(self, shape, low, high):
        # 1e-3 (-1)^j is D's null Nyquist mode on an even x axis, and an ordinary mode on an odd one
        grid, cfg = TorusGrid(1, *shape), SolverConfig(k=16.0, P=(0.0,))
        res = minimize(tc1_hamiltonian(), grid, cfg)
        kicked = res.u.values + 1e-3 * (-1.0) ** np.arange(shape[0])[:, None]
        again = minimize(tc1_hamiltonian(), grid, cfg, warm_start=kicked)
        assert res.converged and again.converged
        moved = again.u.values - res.u.values
        assert low <= np.max(np.abs(moved - moved.mean())) <= high


def continuation_chain(ham, grid, cfg):
    """The public solves that a cold start's k ladder stands for: cold at k = 4, then warm at 8, 16, ... and cfg.k."""
    ks = [4.0]
    while 2.0 * ks[-1] < cfg.k:
        ks.append(2.0 * ks[-1])
    chain = []
    for k in [*ks, cfg.k]:
        warm = chain[-1].u if chain else None
        chain.append(minimize(ham, grid, replace(cfg, k=k), warm_start=warm))
    return chain


class TestKContinuation:
    @pytest.mark.parametrize(
        "ham, grid, k, P, max_newton, rungs_converged",
        [
            (pendulum_hamiltonian, TorusGrid(1, 64, 16), 64.0, (2.0,), 60, True),
            (pendulum_hamiltonian, TorusGrid(1, 32, 8), 20.0, (1.0,), 60, True),
            (tc1_hamiltonian, TorusGrid(1, 16, 16), 64.0, (0.0,), 60, True),
            (separable_2d, TorusGrid(2, 16, 4), 32.0, (0.3, 0.1), 60, True),
            # the cap stops earlier solves short, and the one at the target k still converges
            (pendulum_hamiltonian, TorusGrid(1, 64, 16), 64.0, (2.0,), 4, False),
            # the cap stops the solve at the target k short as well
            (tc1_hamiltonian, TorusGrid(1, 16, 16), 64.0, (0.0,), 5, False),
        ],
        ids=["pendulum-k64", "pendulum-k20", "tc1-k64", "separable-2d", "capped-rungs", "capped"],
    )
    def test_matches_the_public_chain(self, monkeypatch, ham, grid, k, P, max_newton, rungs_converged):
        cfg = SolverConfig(k=k, P=P, max_newton=max_newton)
        res = minimize(ham(), grid, cfg)
        if not rungs_converged:
            # a public warm solve stopped at the cap is solved again cold, a rung of the
            # ladder is not: here every such re-solve loses and adds no step
            lost = replace(res, grad_norm=math.inf, iterations=0)
            monkeypatch.setattr(evans_solver, "minimize", lambda ham, grid, config: lost)
        chain = continuation_chain(ham(), grid, cfg)
        final = chain[-1]
        for x, y in (
            (res.u.values, final.u.values),
            (res.m.values, final.m.values),
            (res.hbar, final.hbar),
            (res.rotation, final.rotation),
            (res.grad_norm, final.grad_norm),
            (res.lip_norm, final.lip_norm),
        ):
            assert_bitwise(x, y)
        assert res.iterations == sum(r.iterations for r in chain)
        assert res.converged == final.converged
        assert all(r.converged for r in chain[:-1]) == rungs_converged

    @staticmethod
    def recorded_ks(monkeypatch):
        ks = []
        stage = evans_solver._newton_stage

        def recording(st):
            ks.append(st.cfg.k)
            return stage(st)

        monkeypatch.setattr(evans_solver, "_newton_stage", recording)
        return ks

    def test_no_ladder_at_or_below_k4(self, monkeypatch):
        ham, grid = pendulum_hamiltonian(), TorusGrid(1, 32, 8)
        ks = self.recorded_ks(monkeypatch)
        for k in (2.0, 4.0):
            assert minimize(ham, grid, SolverConfig(k=k, P=(1.0,))).converged
        assert ks == [2.0, 4.0]

    def test_warm_start_takes_no_ladder(self, monkeypatch):
        ham, grid, cfg = pendulum_hamiltonian(), TorusGrid(1, 32, 8), SolverConfig(k=32.0, P=(1.0,))
        warm = minimize(ham, grid, replace(cfg, k=16.0)).u
        ks = self.recorded_ks(monkeypatch)
        assert minimize(ham, grid, cfg, warm_start=warm).converged
        assert ks == [32.0]
        minimize(ham, grid, cfg)
        assert ks[1:] == [4.0, 8.0, 16.0, 32.0]

    def test_solve_result_start_climbs_from_its_k(self, monkeypatch):
        ham, grid, cfg = tc1_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=128.0, P=(0.0,))
        warm = minimize(ham, grid, replace(cfg, k=8.0))
        ks = self.recorded_ks(monkeypatch)
        assert minimize(ham, grid, cfg, warm_start=warm).converged
        assert ks == [16.0, 32.0, 64.0, 128.0]

    @pytest.mark.parametrize("k_warm", [32.0, 64.0], ids=["at-target", "above-target"])
    def test_solve_result_start_at_or_above_target_takes_no_ladder(self, monkeypatch, k_warm):
        ham, grid, cfg = pendulum_hamiltonian(), TorusGrid(1, 32, 8), SolverConfig(k=32.0, P=(1.0,))
        warm = minimize(ham, grid, replace(cfg, k=k_warm))
        ks = self.recorded_ks(monkeypatch)
        assert minimize(ham, grid, cfg, warm_start=warm).converged
        assert ks == [32.0]

    @pytest.mark.parametrize(
        "ham, grid", [(pendulum_hamiltonian, TorusGrid(1, 32, 8)), (tc1_hamiltonian, TorusGrid(1, 16, 16))],
        ids=["pendulum", "tc1"],
    )
    def test_guard_sends_a_bad_start_up_the_cold_ladder(self, monkeypatch, ham, grid):
        # the P = -1 minimizer raises J at P = 1 above J at u = 0 at the
        # first rung's k = 16, so the solve starts cold instead
        cfg = SolverConfig(k=128.0, P=(1.0,))
        warm = minimize(ham(), grid, replace(cfg, k=8.0, P=(-1.0,)))
        ks = self.recorded_ks(monkeypatch)
        res = minimize(ham(), grid, cfg, warm_start=warm)
        assert ks == [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        assert res.converged
        assert_bitwise(res.u.values, minimize(ham(), grid, cfg).u.values)

    @pytest.mark.parametrize("k, max_total, max_entry", [(16.0, 640, 18), (64.0, 880, 28)], ids=["k16", "k64"])
    def test_cold_criterion_6_entries(self, k, max_total, max_entry):
        # every entry of the criterion-6 grid solved cold, from u = 0 up
        # the k ladder: 632 Newton steps at k = 16 (at most 18 per
        # entry) and 878 at k = 64 (at most 28); the lam homotopy this
        # replaced took 1,150 (32) and 3,194 (106)
        grid, cfg = TorusGrid(1, 64, 8), SolverConfig(k=k, grad_tol=1e-10)
        steps = []
        for P in np.round(np.arange(-2.0, 2.0001, 0.1), 10):
            res = minimize(pendulum_hamiltonian(), grid, replace(cfg, P=(P,)))
            assert res.converged, (P, res.grad_norm)
            steps.append(res.iterations)
        assert sum(steps) <= max_total
        assert max(steps) <= max_entry


class TestTimePlane:
    """Autonomous solves run on one time plane; time-dependent ones on the caller's grid."""

    @staticmethod
    def recorded_grids(monkeypatch):
        grids = []
        stage = evans_solver._newton_stage

        def recording(st):
            grids.append(st.grid)
            return stage(st)

        monkeypatch.setattr(evans_solver, "_newton_stage", recording)
        return grids

    def test_solves_on_one_plane_and_returns_the_callers_grid(self, monkeypatch):
        grids = self.recorded_grids(monkeypatch)
        grid = TorusGrid(1, 32, 8)
        res = minimize(pendulum_hamiltonian(), grid, SolverConfig(k=8.0, P=(1.0,)))
        assert {g.n_t for g in grids} == {1}
        assert res.u.grid == grid and res.m.grid == grid
        assert res.u.values.shape == res.m.values.shape == grid.shape
        assert np.all(res.u.values == res.u.values[:, :1])

    def test_time_mean_never_raises_the_objective(self):
        # J is convex and invariant under time shifts for an autonomous
        # Hamiltonian, so J(mean_t u) <= J(u): the routing to one plane rests on this
        rng = np.random.default_rng(11)
        cases = [(pendulum_hamiltonian(), TorusGrid(1, 32, 8), (0.7,)), (separable_2d(), TorusGrid(2, 8, 6), (0.3, 0.1))]
        for ham, grid, P in cases:
            cfg = SolverConfig(k=8.0, P=P)
            for _ in range(5):
                u = random_zero_mean(grid, rng)
                assert np.ptp(u - u.mean(axis=-1, keepdims=True)) > 0.1
                mean = np.broadcast_to(u.mean(axis=-1, keepdims=True), grid.shape)
                assert objective(ham, grid, cfg, mean)[0] <= objective(ham, grid, cfg, u)[0] + 1e-14

    def test_time_dependent_warm_start_runs_on_one_plane(self, monkeypatch):
        # it starts from its time mean: the minimizer is constant in t
        grid, cfg = TorusGrid(1, 32, 8), SolverConfig(k=8.0, P=(1.0,))
        cold = minimize(pendulum_hamiltonian(), grid, cfg)
        grids = self.recorded_grids(monkeypatch)
        minimize(pendulum_hamiltonian(), grid, cfg, warm_start=cold.u)
        t = grid.coords()[1]
        res = minimize(pendulum_hamiltonian(), grid, cfg, warm_start=cold.u.values + 1e-3 * np.cos(2 * np.pi * t))
        assert [g.n_t for g in grids] == [1, 1]
        assert res.converged
        assert np.all(res.u.values == res.u.values[:, :1])
        assert abs(res.hbar - cold.hbar) <= 1e-10

    def test_time_dependent_hamiltonian_takes_the_full_grid(self, monkeypatch):
        grids = self.recorded_grids(monkeypatch)
        minimize(tc1_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=4.0))
        assert {g.n_t for g in grids} == {16}

    def test_zero_amplitude_time_frequency_is_autonomous(self, monkeypatch):
        # frequency 3 in t is above the Nyquist limit of one plane, but a
        # zero coefficient makes V independent of t
        V = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((1, 3), 0.0, 0.0)])
        ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)
        grid, cfg = TorusGrid(1, 32, 8), SolverConfig(k=8.0, P=(1.0,))
        grids = self.recorded_grids(monkeypatch)
        res = minimize(ham, grid, cfg)
        assert {g.n_t for g in grids} == {1}
        assert res.converged
        assert res.hbar == minimize(pendulum_hamiltonian(), grid, cfg).hbar

    def test_one_plane_takes_no_time_derivative(self, monkeypatch):
        axes = []
        deriv = TorusGrid.deriv

        def counting(grid, values, axis):
            axes.append((grid.n_t, axis == grid.d))
            return deriv(grid, values, axis)

        monkeypatch.setattr(TorusGrid, "deriv", counting)
        res = minimize(pendulum_hamiltonian(), TorusGrid(1, 64, 8), SolverConfig(k=16.0, P=(0.5,)))
        assert res.converged
        assert axes and set(axes) == {(1, False)}

    @pytest.mark.parametrize("n_t", [1, 8])
    def test_plane_state_forms_no_time_derivative(self, n_t):
        # the Lipschitz norm and the Aronsson residual read st.du, which on
        # the plane TorusGrid(1, 32, 1), the solve grid for either caller's
        # grid, holds D_x u alone
        ham, cfg = pendulum_hamiltonian(), SolverConfig(k=8.0, P=(1.0,))
        grid = TorusGrid(1, 32, n_t)
        plane = evans_solver._solve_grid(ham, grid)
        assert plane == TorusGrid(1, 32, 1)
        res = minimize(ham, grid, cfg)
        u = ScalarField(plane, res.u.values[..., :1])
        st = evaluate_state(ham, plane, cfg, u)
        assert len(st.du) == len(st.v) == 1 and st.du[0].shape == st.f.shape == plane.shape
        assert res.lip_norm == float(np.sqrt(np.max(st.du[0] ** 2)))
        assert math.isfinite(aronsson_residual(ham, plane, cfg, u))


    def test_field_constant_in_t_moves_to_its_first_plane_bit_for_bit(self, rng):
        # a time mean of 128 equal columns misses the column in most nodes;
        # the rule adds the mean of exact zeros to it
        grid, v = TorusGrid(1, 64, 128), rng.normal(size=(64, 1))
        full = v.repeat(128, axis=-1)
        assert np.any(np.add.reduce(full, -1, keepdims=True) / 128 != v)
        plane = evans_solver._solve_grid(pendulum_hamiltonian(), grid)
        on_plane = evans_solver._on_solve_grid(plane, grid, full)
        assert plane == TorusGrid(1, 64, 1)
        assert_bitwise(on_plane, v)

    def test_time_dependent_field_moves_to_its_time_mean(self, rng):
        grid = TorusGrid(2, 6, 8)
        v = rng.normal(size=grid.shape)
        plane = evans_solver._solve_grid(separable_2d(), grid)
        on_plane = evans_solver._on_solve_grid(plane, grid, v)
        assert plane == TorusGrid(2, 6, 1)
        assert np.max(np.abs(on_plane - v.mean(axis=-1, keepdims=True))) <= 1e-15

    def test_result_moves_as_its_u(self):
        ham, grid, cfg = pendulum_hamiltonian(), TorusGrid(1, 32, 8), SolverConfig(k=8.0, P=(1.0,))
        res = minimize(ham, grid, cfg)
        plane = evans_solver._solve_grid(ham, grid)
        u = evans_solver._on_solve_grid(plane, grid, res)
        assert plane == TorusGrid(1, 32, 1)
        assert_bitwise(u, res.u.values[:, :1])
        assert_bitwise(evans_solver._on_solve_grid(plane, grid, res.m), res.m.values[:, :1])
        with pytest.raises(ValueError, match="result fields live on a different grid"):
            evans_solver._on_solve_grid(plane, TorusGrid(1, 32, 4), res)

    @pytest.mark.parametrize("ham, shape", [(pendulum_hamiltonian, (1, 32, 1)), (tc1_hamiltonian, (1, 16, 16))])
    def test_solve_grid_passes_through(self, ham, shape):
        # a one-plane grid, and any grid of a time-dependent Hamiltonian, is its own solve grid
        grid = TorusGrid(*shape)
        res = minimize(ham(), grid, SolverConfig(k=4.0))
        plane = evans_solver._solve_grid(ham(), grid)
        u = evans_solver._on_solve_grid(plane, grid, res)
        assert plane is grid and res.u.grid == res.m.grid == grid
        assert_bitwise(u, res.u.values)

    def test_repeated_warm_start_starts_from_its_plane(self):
        # a plane warm start and its repeat over 128 time nodes give the same solve, bit for bit
        ham, plane, grid = pendulum_hamiltonian(), TorusGrid(1, 64, 1), TorusGrid(1, 64, 128)
        u = minimize(ham, plane, SolverConfig(k=16.0, P=(1.9,))).u.values
        cfg = SolverConfig(k=16.0, P=(2.0,))
        on_plane = minimize(ham, plane, cfg, warm_start=u)
        full = minimize(ham, grid, cfg, warm_start=u.repeat(128, axis=-1))
        assert on_plane.iterations == full.iterations > 0
        assert on_plane.hbar == full.hbar
        assert_bitwise(full.u.values, on_plane.u.values.repeat(128, axis=-1))
        assert_bitwise(full.m.values, on_plane.m.values.repeat(128, axis=-1))


class TestGridTable:
    """One cached, read-only HamiltonianTable per (Hamiltonian, grid): solves, states and certificates share it."""

    @staticmethod
    def count_tables(monkeypatch):
        evans_solver._grid_table.cache_clear()
        built = []
        init = HamiltonianTable.__init__

        def counting(self, ham, coords):
            built.append(np.broadcast_shapes(*(np.shape(c) for c in coords)))
            init(self, ham, coords)

        monkeypatch.setattr(HamiltonianTable, "__init__", counting)
        return built

    @staticmethod
    def certify(ham, grid, cfg, res):
        mfg_residuals(ham, grid, cfg, res)
        holonomy_residual(ham, grid, cfg, res)
        mather_diagnostics(ham, grid, cfg, res)
        aronsson_residual(ham, grid, cfg, res)

    def test_time_coupled_solve_and_certificates_build_one_table(self, monkeypatch):
        built = self.count_tables(monkeypatch)
        ham, grid, cfg = tc1_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=8.0)
        self.certify(ham, grid, cfg, minimize(ham, grid, cfg))
        assert built == [grid.shape]

    def test_autonomous_solve_builds_the_plane_and_the_full_grid(self, monkeypatch):
        built = self.count_tables(monkeypatch)
        ham, grid, cfg = pendulum_hamiltonian(), TorusGrid(1, 64, 16), SolverConfig(k=8.0, P=(1.0,))
        self.certify(ham, grid, cfg, minimize(ham, grid, cfg))
        assert built == [(64, 1), grid.shape]

    def test_k_sweep_reads_the_plane_table_of_its_solves(self, monkeypatch):
        built = self.count_tables(monkeypatch)
        k_sweep(pendulum_hamiltonian(), TorusGrid(1, 128, 128), (0.0,), [4, 8, 16, 32, 64])
        assert built == [(128, 1)]

    def test_state_table_is_read_only(self):
        grid = TorusGrid(1, 16, 16)
        st = evaluate_state(tc1_hamiltonian(), grid, SolverConfig(k=4.0), grid.zeros())
        with pytest.raises(ValueError):
            st.table.V[0, 0] = 1.0


def test_other_modules_import_only_public_solver_names():
    # the solve plane and the move onto it are the only private names another module reads
    allowed = {*evans_solver.__all__, "_solve_grid", "_on_solve_grid"}
    reached = [
        (path.name, alias.name)
        for path in sorted(Path(evans_solver.__file__).parent.glob("*.py"))
        if path.name != "evans_solver.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "evans_solver"
        for alias in node.names
        if alias.name not in allowed
    ]
    assert reached == []


def aliased_pendulum() -> MechanicalHamiltonian:
    """V = cos(2 pi 9x): frequency 9 is at or above Nyquist on 16 nodes, on any time axis."""
    return MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=FourierSpec.build(2, [((9, 0), 1.0, 0.0)]))


def nyquist_refusal(ham, grid) -> str | None:
    try:
        check_nyquist(ham, grid)
    except NyquistError as exc:
        return str(exc)
    return None


class TestNyquistGate:
    """Each entry point refuses through ``check_nyquist`` before it reads P or u.

    ``minimize``, ``evaluate_state`` and ``hbar_bounds`` reach it through
    ``_grid_table``; ``sweep_P`` and ``k_sweep`` call it on the caller's grid.
    """

    # each call also passes a malformed P, field or k, which the pendulum refuses on its own
    CALLS = {
        "minimize-P": lambda ham, grid: minimize(ham, grid, SolverConfig(k=4.0, P=(0.1, 0.2))),
        "minimize-warm-start": lambda ham, grid: minimize(ham, grid, SolverConfig(k=4.0), warm_start=np.zeros(3)),
        "evaluate-state-P": lambda ham, grid: evaluate_state(ham, grid, SolverConfig(k=4.0, P=(0.1, 0.2)), grid.zeros()),
        "evaluate-state-u": lambda ham, grid: evaluate_state(ham, grid, SolverConfig(k=4.0), np.zeros(3)),
        "hbar-bounds-P": lambda ham, grid: hbar_bounds(ham, grid, P="0.5"),
        "sweep-P-infinite": lambda ham, grid: sweep_P(ham, grid, 4.0, [0.1, np.inf]),
        "sweep-P-dimension": lambda ham, grid: sweep_P(ham, grid, 4.0, [[0.1, 0.2]]),
        "k-sweep-P": lambda ham, grid: k_sweep(ham, grid, (0.1, 0.2), [4, 8]),
        "k-sweep-ks": lambda ham, grid: k_sweep(ham, grid, (0.1,), ["4", "8"]),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_refused_before_a_malformed_argument_on_every_call(self, name):
        call, grid = self.CALLS[name], TorusGrid(1, 16, 8)
        with pytest.raises(ValueError) as info:
            call(pendulum_hamiltonian(), grid)
        assert not isinstance(info.value, NyquistError)
        evans_solver._grid_table.cache_clear()
        for _ in range(2):  # lru_cache keeps no exception: the second call is refused too
            with pytest.raises(NyquistError, match="^V has frequency 9 on axis 0, at or above Nyquist for n=16$"):
                call(aliased_pendulum(), grid)

    def test_time_dependent_solve_gated_on_the_callers_grid(self):
        with pytest.raises(NyquistError, match=r"^eta\[0\] has temporal frequency 1, at or above Nyquist for n_t=2$"):
            minimize(tc1_hamiltonian(), TorusGrid(1, 16, 2), SolverConfig(k=4.0))

    @pytest.mark.parametrize("shape", [(1, 2, 8), (1, 4, 2), (1, 8, 4), (1, 16, 8), (2, 2, 4), (2, 4, 2), (2, 8, 8)])
    def test_autonomous_plane_passes_exactly_where_the_grid_does(self, shape):
        # minimize gates on its solve plane; an autonomous Hamiltonian has no
        # frequency in t, so the plane refuses with the grid's own message
        const_eta = FourierSpec.build(1, [((0,), 0.4, 0.0), ((3,), 0.0, 0.0)])
        hams = [
            pendulum_hamiltonian(),
            aliased_pendulum(),
            MechanicalHamiltonian(d=1, eta=(const_eta,), V=FourierSpec.build(2, [((3, 0), 1.0, 0.0), ((1, 5), 0.0, 0.0)])),
            separable_2d(),
            MechanicalHamiltonian(d=2, eta=(const_eta,) * 2, V=FourierSpec.build(3, [((1, 2, 0), 0.5, 0.0)])),
        ]
        grid = TorusGrid(*shape)
        outcomes = []
        for ham in hams:
            plane = evans_solver._solve_grid(ham, grid)
            assert plane.n_t == 1
            outcomes.append(nyquist_refusal(ham, grid))
            assert nyquist_refusal(ham, plane) == outcomes[-1]
        assert any(outcomes)
