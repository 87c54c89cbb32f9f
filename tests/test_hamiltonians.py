import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import (
    assert_bitwise,
    mixed3_json,
    mixed_hamiltonian,
    pendulum_hamiltonian,
    scaled,
    t1_hamiltonian,
    tc2_hamiltonian,
    trivial_hamiltonian,
    weighted,
)
from evanskam.evans_solver import SolverConfig, evaluate_state
from evanskam.hamiltonians import (
    ChiVerificationError,
    FourierSpec,
    HamiltonianTable,
    MechanicalHamiltonian,
    NyquistError,
    _refinement,
    check_nyquist,
    chi_bound,
    drift_diffusion,
    hamiltonian_from_json,
    hamiltonian_to_json,
)
from evanskam.torus_grid import TorusGrid


def H_at(ham, z, p):
    """H at one point (z, p), from a one-point table."""
    table = HamiltonianTable(ham, z)
    return table.H(table.H_p(p))


class TestFourierSpec:
    def test_evaluate_and_partial(self):
        spec = FourierSpec.build(2, [((1, 2), 0.5, -1.5)])
        x = np.array([0.1, 0.7])
        t = np.array([0.3, 0.2])
        phase = 2 * np.pi * (x + 2 * t)
        assert np.allclose(spec.evaluate(x, t), 0.5 * np.cos(phase) - 1.5 * np.sin(phase))
        dspec = spec.partial(1)
        exact = 4 * np.pi * (-0.5 * np.sin(phase) - 1.5 * np.cos(phase))
        assert np.allclose(dspec.evaluate(x, t), exact)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            FourierSpec.build(1, [((1, 2), 1.0, 0.0)])
        spec = FourierSpec.build(2, [((1, 0), 1.0, 0.0)])
        with pytest.raises(ValueError):
            spec.evaluate(np.zeros(3))
        for axis in (-1, 2):
            with pytest.raises(ValueError, match=f"^axis {axis} out of range for arity 2$"):
                spec.partial(axis)

    def test_max_freq_and_depends_on(self):
        spec = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((2, -3), 0.0, 1.0)])
        assert spec.max_abs_freq() == (2, 3)
        assert spec.depends_on(1)
        assert not FourierSpec.build(2, [((1, 0), 1.0, 0.0)]).depends_on(1)

    def test_json_round_trip(self):
        spec = FourierSpec.build(2, [((1, 0), 1.0, 0.5), ((0, 2), -0.25, 0.0)])
        back = FourierSpec.from_json_obj(spec.to_json_obj(), 2)
        assert back == spec


class TestMechanicalHamiltonian:
    @pytest.mark.parametrize(
        "d, eta_arities, V_arity, message",
        [
            (3, (1, 1, 1), 4, "spatial dimension must be 1 or 2, got 3"),
            (2, (1,), 3, "expected 2 eta components, got 1"),
            (1, (2,), 2, "eta components must be functions of time alone"),
            (1, (1,), 3, "V must have arity d+1=2, got 3"),
        ],
        ids=["dimension", "eta-count", "eta-arity", "V-arity"],
    )
    def test_malformed_parts_refused(self, d, eta_arities, V_arity, message):
        eta = tuple(FourierSpec.zero(a) for a in eta_arities)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MechanicalHamiltonian(d=d, eta=eta, V=FourierSpec.zero(V_arity))


class TestEvaluate:
    """H, H_p = w, H_x = grad V and H_t at single points, read from one-point tables."""

    def test_free_particle(self):
        table = HamiltonianTable(trivial_hamiltonian(), [0.3, 0.6])
        w = table.H_p([1.0])
        assert table.H(w) == pytest.approx(0.5)
        assert w[0] == pytest.approx(1.0)
        assert table.gradV[0] == 0.0 and table.H_t(w) == 0.0

    def test_drift_at_origin(self):
        # derivative oracle: H_t = (p + eta) * eta'(0) = 1 * (-2 pi sin 0) = 0
        table = HamiltonianTable(t1_hamiltonian(), [0.0, 0.0])
        w = table.H_p([0.0])
        assert table.H(w) == pytest.approx(0.5)
        assert w[0] == pytest.approx(1.0)
        assert table.H_t(w) == pytest.approx(0.0, abs=1e-14)

    def test_potential_gradient(self):
        # H_x = -2 pi sin(pi/2) = -2 pi at x = 1/4
        table = HamiltonianTable(pendulum_hamiltonian(), [0.25, 0.0])
        assert table.H(table.H_p([1.0])) == pytest.approx(0.5)
        assert table.gradV[0] == pytest.approx(-2 * np.pi)

    def test_derivatives_match_finite_differences(self, rng):
        h = 1e-6
        for ham in (mixed_hamiltonian(), tc2_hamiltonian()):
            d = ham.d
            for _ in range(100):
                z = rng.uniform(0, 1, size=d + 1)
                p = rng.uniform(-2, 2, size=d)
                table = HamiltonianTable(ham, z)
                w = table.H_p(p)
                scale = 1.0 + abs(table.H(w))
                for a, step in enumerate(h * np.eye(d)):
                    fd_p = (H_at(ham, z, p + step) - H_at(ham, z, p - step)) / (2 * h)
                    assert abs(w[a] - fd_p) / scale <= 1e-7
                # x (and y for d = 2), then t
                for a, step in enumerate(h * np.eye(d + 1)):
                    fd_z = (H_at(ham, z + step, p) - H_at(ham, z - step, p)) / (2 * h)
                    exact = table.H_t(w) if a == d else table.gradV[a]
                    assert abs(exact - fd_z) / scale <= 1e-7

    def test_lambda_scaling(self):
        ham = weighted(pendulum_hamiltonian(), 0.5)  # "lambda": 0.5 in the JSON object
        assert H_at(ham, [0.0, 0.0], [0.0]) == pytest.approx(0.5)  # 0.5 * V(0) = 0.5

    def test_d2(self):
        eta = (FourierSpec.build(1, [((1,), 1.0, 0.0)]), FourierSpec.zero(1))
        V = FourierSpec.build(3, [((1, 0, 0), 1.0, 0.0)])
        table = HamiltonianTable(MechanicalHamiltonian(d=2, eta=eta, V=V), [0.0, 0.0, 0.0])
        w = table.H_p([0.0, 0.0])
        assert table.H(w) == pytest.approx(0.5 + 1.0)
        assert np.allclose(w, [1.0, 0.0])


class TestPointwiseMatchesGrid:
    """One-point tables give, node by node and bit for bit, what the solver and the certificates read from the grid."""

    @pytest.mark.parametrize(
        "ham, grid, P",
        [
            # the Hamiltonian of the check battery
            (mixed_hamiltonian(), TorusGrid(1, 16, 16), (0.3,)),
            (tc2_hamiltonian(), TorusGrid(2, 8, 8), (0.5, 0.2)),
        ],
        ids=["battery-16x16", "tc2-8x8x8"],
    )
    def test_evaluate_lagrangian_and_drift_match_the_state(self, ham, grid, P, rng):
        u = grid.project_zero_mean(0.1 * rng.normal(size=grid.shape))
        st = evaluate_state(ham, grid, SolverConfig(k=4.0, P=P), u)
        d = ham.d
        coords = [np.broadcast_to(c, grid.shape) for c in grid.coords()]
        fields = {
            "H_p": np.stack(st.w),
            "H": st.table.H(st.w),
            "f": st.f,
            "L": st.table.L(st.w),
            "drift": st.table.drift(st.w),
        }
        pointwise = {name: np.zeros_like(f) for name, f in fields.items()}
        for idx in np.ndindex(grid.shape):
            z = [c[idx] for c in coords]
            p = [P[i] + st.du[i][idx] for i in range(d)]
            table = HamiltonianTable(ham, z)
            w = table.H_p(p)
            pointwise["H_p"][(slice(None), *idx)] = w
            pointwise["H"][idx] = table.H(w)
            pointwise["f"][idx] = table.H(w, st.du[d][idx])  # f = u_t + H
            pointwise["L"][idx] = table.L(w)
            pointwise["drift"][idx] = drift_diffusion(ham, 4.0, z, [*p, st.du[d][idx]])[2]
        for name, field in fields.items():
            assert_bitwise(pointwise[name], field)


class TestLagrangian:
    def test_free_case(self):
        assert HamiltonianTable(trivial_hamiltonian(), [0.2, 0.9]).L([2.0]) == pytest.approx(2.0)

    def test_closed_form_value(self):
        # L(0, 0, v=2) = 2 - eta(0)*2 - V(0) = 2 - 2 - 1 = -1
        eta = FourierSpec.build(1, [((1,), 1.0, 0.0)])
        V = FourierSpec.build(2, [((1, 0), 1.0, 0.0)])
        ham = MechanicalHamiltonian(d=1, eta=(eta,), V=V)
        assert HamiltonianTable(ham, [0.0, 0.0]).L([2.0]) == pytest.approx(-1.0)

    def test_fenchel_equality(self, rng):
        ham = mixed_hamiltonian()
        for _ in range(50):
            z = rng.uniform(0, 1, size=2)
            p = rng.uniform(-3, 3, size=1)
            table = HamiltonianTable(ham, z)
            w = table.H_p(p)
            gap = table.L(w) + table.H(w) - p[0] * w[0]
            assert abs(gap) <= 1e-12

    def test_fenchel_inequality_on_grid(self, rng):
        ham = mixed_hamiltonian()
        for _ in range(10):
            z = rng.uniform(0, 1, size=2)
            p = rng.uniform(-2, 2, size=1)
            table = HamiltonianTable(ham, z)
            w = table.H_p(p)
            v_grid = w[0] + np.arange(-1.0, 1.0001, 0.01)
            gaps = table.L([v_grid]) + table.H(w) - p[0] * v_grid
            assert -1e-9 <= gaps.min() <= 1e-3


class TestDriftDiffusion:
    def test_trivial_block_structure(self):
        ham = trivial_hamiltonian()
        for k in (1.0, 10.0):
            a, sigma, b = drift_diffusion(ham, k, [0.1, 0.2], [0.0, 0.0])
            assert np.allclose(a, np.diag([1.0 / k, 1.0]))
            assert b == 0.0
            assert np.allclose(a, sigma @ sigma.T)

    def test_factorization_identity(self, rng):
        ham = mixed_hamiltonian()
        for _ in range(100):
            z = rng.uniform(0, 1, size=2)
            q = rng.uniform(-3, 3, size=2)
            k = float(rng.uniform(0.2, 100))
            a, sigma, _ = drift_diffusion(ham, k, z, q)
            assert np.max(np.abs(a - sigma @ sigma.T)) <= 1e-14
            assert np.min(np.linalg.eigvalsh(a)) > 0

    def test_drift_value_and_k_independence(self):
        # b = H_x * H_p = -2 pi sin(pi/2) * 1 = -2 pi at x = 1/4, p = 1
        ham = pendulum_hamiltonian()
        for k in (1.0, 100.0):
            _, _, b = drift_diffusion(ham, k, [0.25, 0.0], [1.0, 0.3])
            assert b == pytest.approx(-2 * np.pi)

    def test_drift_k_independence_random(self, rng):
        ham = mixed_hamiltonian()
        for _ in range(20):
            z = rng.uniform(0, 1, size=2)
            q = rng.uniform(-3, 3, size=2)
            b1 = drift_diffusion(ham, 1.0, z, q)[2]
            b2 = drift_diffusion(ham, 1e6, z, q)[2]
            assert b1 == b2

    def test_nonpositive_k_rejected(self):
        # k = inf made a singular a (1/k = 0), k = nan NaN entries in a and sigma
        for k in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="k must be a finite positive number"):
                drift_diffusion(trivial_hamiltonian(), k, [0.0, 0.0], [0.0, 0.0])


class TestChiBound:
    def test_trivial(self):
        chi = chi_bound(trivial_hamiltonian(), TorusGrid(1, 8, 8))
        assert chi.c == 0.0 and chi.d0 == 0.0

    def test_pendulum_closed_form(self):
        # max |grad V| = 2 pi attained at grid points, V_t = 0, eta = 0
        chi = chi_bound(pendulum_hamiltonian(), TorusGrid(1, 16, 16))
        assert chi.c == pytest.approx(2 * np.pi, abs=1e-12)
        assert chi.d0 == pytest.approx(0.0, abs=1e-12)

    def test_drift_closed_form(self):
        # max|eta'| = 2 pi, d0 = 2 pi * max|eta| = 2 pi
        chi = chi_bound(t1_hamiltonian(), TorusGrid(1, 16, 16))
        assert chi.c == pytest.approx(2 * np.pi, abs=1e-12)
        assert chi.d0 == pytest.approx(2 * np.pi, abs=1e-12)

    def test_bound_holds_on_samples(self, rng):
        ham = mixed_hamiltonian()
        grid = TorusGrid(1, 16, 16)
        chi = chi_bound(ham, grid)
        for _ in range(200):
            z = rng.uniform(0, 1, size=2)
            q = rng.uniform(-8, 8, size=2)
            _, _, b = drift_diffusion(ham, 4.0, z, q)
            assert abs(b) <= chi(float(np.linalg.norm(q))) + 1e-9

    def test_violated_bound_raises_with_the_sample(self, monkeypatch):
        # a drift of 100 everywhere exceeds the trivial Hamiltonian's bound chi = 0 at the first sample
        monkeypatch.setattr(HamiltonianTable, "drift", lambda table, w: np.full(np.shape(table.V_t), 100.0))
        with pytest.raises(ChiVerificationError) as info:
            chi_bound(trivial_hamiltonian(), TorusGrid(1, 8, 8))
        assert str(info.value).startswith("|b| = 100.0 exceeds chi(|q|) = 0.0 at z=(0.0, 0.0), q=[")

    def test_violated_slope_raises_with_the_node(self, monkeypatch):
        # an extra slope of 3 along axis 0 leaves b(q = 0) alone, so only the
        # slope inequality sees it: |db/dq| = 2 pi + 3 where grad V = 2 pi
        drift = HamiltonianTable.drift
        monkeypatch.setattr(
            HamiltonianTable, "drift", lambda table, w: drift(table, w) + 3.0 * (w[0] - table.eta[0])
        )
        with pytest.raises(ChiVerificationError) as info:
            chi_bound(pendulum_hamiltonian(), TorusGrid(1, 16, 16))
        assert str(info.value) == f"|db/dq| = {2 * np.pi + 3.0} exceeds c = {2 * np.pi} at z=(0.75, 0.0)"

    def test_refinement_beyond_the_budget_is_the_grid_itself(self):
        # 600^2 nodes exceed the refinement budget already at factor 1
        grid = TorusGrid(2, 600, 1)
        assert _refinement(grid) is grid

    def test_shrunken_bound_is_violated(self):
        # negative control: a deliberately undersized chi fails on a sample the
        # fitted one covers, so the verification inequality has teeth
        from evanskam.hamiltonians import ChiParams

        ham = pendulum_hamiltonian()
        chi = chi_bound(ham, TorusGrid(1, 16, 16))
        bad = ChiParams(c=chi.c * 0.01, d0=0.0)
        q = np.array([5.0, 0.0])
        _, _, b = drift_diffusion(ham, 4.0, [0.25, 0.0], q)
        s = float(np.linalg.norm(q))
        assert abs(b) <= chi(s) + 1e-9
        assert abs(b) > bad(s)


class TestNyquist:
    def test_accepts_resolved_content(self):
        check_nyquist(mixed_hamiltonian(), TorusGrid(1, 16, 16))

    def test_rejects_high_frequency(self):
        V = FourierSpec.build(2, [((9, 0), 1.0, 0.0)])
        ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)
        with pytest.raises(NyquistError):
            check_nyquist(ham, TorusGrid(1, 16, 16))

    def test_rejects_time_dependence_on_collapsed_grid(self):
        with pytest.raises(NyquistError):
            check_nyquist(t1_hamiltonian(), TorusGrid(1, 16, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(NyquistError):
            check_nyquist(trivial_hamiltonian(), TorusGrid(2, 8, 8))

    def test_zero_amplitude_terms_carry_no_frequency(self):
        # as in depends_on: such a term adds nothing to H, so nothing aliases
        V = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((9, 3), 0.0, 0.0)])
        eta = FourierSpec.build(1, [((5,), 0.0, 0.0)])
        assert V.max_abs_freq() == (1, 0) and eta.max_abs_freq() == (0,)
        for grid in (TorusGrid(1, 16, 8), TorusGrid(1, 16, 1)):
            check_nyquist(MechanicalHamiltonian(d=1, eta=(eta,), V=V), grid)


class TestJson:
    def test_round_trip(self):
        ham = mixed_hamiltonian()
        assert hamiltonian_from_json(hamiltonian_to_json(ham)) == ham
        # the weight is folded into the coefficients when the object is read
        assert weighted(ham, 0.75) == scaled(ham, 0.75)
        assert hamiltonian_from_json(hamiltonian_to_json(weighted(ham, 0.75))) == scaled(ham, 0.75)

    def test_schema_shape(self):
        obj = hamiltonian_to_json(t1_hamiltonian())
        assert set(obj) == {"d", "eta", "V"}
        assert obj["eta"][0][0] == {"freq": [1], "cos": 1.0, "sin": 0.0}

    def test_invalid_lambda_rejected(self):
        obj = hamiltonian_to_json(trivial_hamiltonian())
        obj["lambda"] = 1.5
        with pytest.raises(ValueError):
            hamiltonian_from_json(obj)

    def test_wrong_number_of_eta_components_rejected(self):
        obj = hamiltonian_to_json(trivial_hamiltonian())
        obj["eta"] = [[], []]
        with pytest.raises(ValueError, match=r"^expected 1 eta components, got 2$"):
            hamiltonian_from_json(obj)


class TestLambdaFold:
    """A config's "lambda" scales eta and V when it is read; the Hamiltonian carries no weight of its own."""

    def test_fields_are_d_eta_V(self):
        assert [f.name for f in fields(MechanicalHamiltonian)] == ["d", "eta", "V"]

    def test_default_weight_keeps_the_coefficients(self):
        obj = mixed3_json(1.0)
        del obj["lambda"]
        assert hamiltonian_from_json(obj) == hamiltonian_from_json(mixed3_json(1.0))

    def test_chi_bound_is_the_scaled_instance_bound(self):
        grid = TorusGrid(1, 16, 16)
        full = chi_bound(hamiltonian_from_json(mixed3_json(1.0)), grid)
        chi = chi_bound(hamiltonian_from_json(mixed3_json(0.3)), grid)
        assert chi == chi_bound(scaled(hamiltonian_from_json(mixed3_json(1.0)), 0.3), grid)
        assert chi.c <= full.c and chi.d0 <= full.d0
