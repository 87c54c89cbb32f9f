"""The Newton step's inner solve: the solve (st, mu, r) -> s that ``_step_solve`` picks for the solve grid.

On a one-plane 1-d solve grid the map is the flux step (``_flux_block``):
the damped Gauss-Newton system D^T diag(q) D s = r in closed form, with
q = m*(k*w^2 + 1) + kappa*mu, at every n_x.  Any other solve grid of at
most ``_BLOCK_MAX_NODES`` nodes gets the dense block (``_dense_block``), a
direct solve with the operator plus mu; autonomous d = 2 Hamiltonians are
solved on one time plane, where it spans the spatial axes, and a grid with
n_t > 1 gets the whole space-time operator.  Larger solve grids get
``_pcg_block``, PCG with the Fourier surrogate scaled to the operator's
exact diagonal.  The maps r -> s below fix (st, mu) of the direct
solves.  The dense block and PCG's matrix-free apply are one writer,
``_operator_apply``, given the derivative columns or a field's
derivatives; ``damped_operator`` below calls it as PCG does.  Autonomous
states below are therefore built on ``_solve_grid(ham, grid)``.  A direct
solve whose step has no descent slope, a singular block's NaN step
included, ends the stage with ``LineSearchError``.
"""

import json
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_hamiltonian, pendulum_hamiltonian, separable_2d, tc1_hamiltonian, tc2_hamiltonian
from evanskam import effective, evans_solver
from evanskam.battery import _battery_hamiltonian
from evanskam.cli_io import RunConfig
from evanskam.effective import sweep_P
from evanskam.evans_solver import (
    _BLOCK_MAX_NODES,
    LineSearchError,
    SolverConfig,
    _along,
    _dense_block,
    _flux_block,
    _fourier_surrogate,
    _newton_coefficients,
    _operator_apply,
    _pcg_block,
    _solve_grid,
    _step_solve,
    evaluate_state,
    minimize,
)
from evanskam.hamiltonians import FourierSpec, MechanicalHamiltonian
from evanskam.torus_grid import TorusGrid, antiderivative_matrix, derivative_matrix


def coefficients(st):
    """The Newton coefficients c_ab at the state, the ones ``_pcg_block`` builds."""
    return _newton_coefficients(st)


def damped_operator(grid, cfg, st, mu):
    return coefficient_operator(grid, coefficients(st), mu)


def coefficient_operator(grid, coef, mu):
    return lambda v: _operator_apply(coef, [grid.deriv(v, b) for b in range(len(coef))], grid.deriv) + mu * v


def solved_state(ham, grid, cfg):
    """(solve grid, cfg, state of the solution there): the grid is the one ``minimize`` runs on."""
    res = minimize(ham, grid, cfg)
    assert res.converged
    plane = _solve_grid(ham, grid)
    return plane, cfg, evaluate_state(ham, plane, cfg, res.u.values[..., : plane.n_t])


def clamped_state():
    # k*(f - max f) reaches about -2800, far below exp underflow: m sits at
    # the smallest positive normal on most of the torus
    grid = _solve_grid(pendulum_hamiltonian(), TorusGrid(1, 64, 8))
    cfg = SolverConfig(k=16.0, P=(0.2,))
    u = 3.0 * np.cos(2 * np.pi * grid.coords()[0]) * np.ones(grid.shape)
    st = evaluate_state(pendulum_hamiltonian(), grid, cfg, grid.project_zero_mean(u))
    assert np.min(st.m) < 1e-300
    return grid, cfg, st


def states():
    yield clamped_state()
    grid = TorusGrid(1, 32, 16)
    cfg = SolverConfig(k=8.0, P=(0.5,))
    u = 0.1 * np.sin(2 * np.pi * (grid.coords()[0] + grid.coords()[1]))
    yield grid, cfg, evaluate_state(mixed_hamiltonian(), grid, cfg, grid.project_zero_mean(u))
    yield solved_state(pendulum_hamiltonian(), TorusGrid(1, 64, 8), SolverConfig(k=16.0, P=(-0.1,), grad_tol=1e-11))


def one_plane_1d(grid):
    return grid.d == 1 and grid.n_t == 1


def block(grid, cfg, st, mu):
    """The direct solve of a Newton step on ``grid``, as ``_step_solve`` picks it, as a map r -> s."""
    solve = _step_solve(grid)
    assert solve is not _pcg_block
    return partial(solve, st, mu)


def block_operator(grid, cfg, st, mu):
    """The damped operator that ``block`` inverts.

    On one plane in 1-d it is D^T diag(q) D with q = m*(k*w^2 + 1) +
    kappa*mu, kappa = (D+^T D+)_00; elsewhere the Newton operator plus mu.
    """
    if not one_plane_1d(grid):
        return damped_operator(grid, cfg, st, mu)
    D, Dp = derivative_matrix(grid.n_x), antiderivative_matrix(grid.n_x)
    q = st.m * (cfg.k * st.w[0] ** 2 + 1.0) + np.sum(Dp[:, 0] ** 2) * mu
    return lambda v: D.T @ (q * (D @ v))


def random_zero_mean(rng, grid):
    return grid.project_zero_mean(rng.standard_normal(grid.shape))


def alternating(grid):
    """The Nyquist mode (-1)^j of a 1-d grid, constant in t."""
    return (-1.0) ** np.arange(grid.n_x)[:, None] * np.ones(grid.shape)


def check_symmetric_positive(rng, grid, M):
    for _ in range(3):
        x, y = random_zero_mean(rng, grid), random_zero_mean(rng, grid)
        xMy, Mxy = grid.inner(x, M(y)), grid.inner(M(x), y)
        assert abs(xMy - Mxy) <= 1e-12 * grid.norm(x) * grid.norm(M(y))
        assert grid.inner(x, M(x)) > 0.0


def check_positive(rng, grid, M):
    # an LU solve is not symmetric to rounding, so only positivity is checked
    for _ in range(3):
        x = random_zero_mean(rng, grid)
        assert grid.inner(x, M(x)) > 0.0


def check_exact(rng, grid, cfg, st, mus=(1e-9, 1e-4, 1.0)):
    """The map inverts ``block_operator`` on time-independent zero-mean fields, Nyquist-free on one plane in 1-d."""
    spatial = (grid.n_x,) * grid.d + (1,)
    for mu in mus:
        A = block_operator(grid, cfg, st, mu)
        M = block(grid, cfg, st, mu)
        for _ in range(3):
            if one_plane_1d(grid):
                v = nyquist_free_field(rng, grid)
            else:
                v = grid.project_zero_mean(rng.standard_normal(spatial) * np.ones(grid.shape))
            r = A(v)
            assert grid.norm(A(M(r)) - r) <= 1e-8 * grid.norm(r)


def check_block_and_surrogate(rng, grid, cfg, st, mu):
    """The block map is positive (symmetric too on one plane in 1-d) and exact at mu; the surrogate is symmetric and positive."""
    (check_symmetric_positive if one_plane_1d(grid) else check_positive)(rng, grid, block(grid, cfg, st, mu))
    check_exact(rng, grid, cfg, st, mus=(mu,))
    check_symmetric_positive(rng, grid, _fourier_surrogate(grid, coefficients(st), mu))


class TestSymmetricPositive:
    @pytest.mark.parametrize("mu", [1e-11, 1e-4, 1.0])
    def test_symmetric_and_positive_on_zero_mean_fields(self, rng, mu):
        for grid, cfg, st in states():
            check_block_and_surrogate(rng, grid, cfg, st, mu)

    def test_constants_not_amplified(self):
        # constants are never part of a residual, but round-off puts them
        # there; like the surrogate, whose null-mode bins are zero, the block
        # must not return them scaled by 1/mu.  The flux step drops the
        # Nyquist mode too.
        for grid, cfg, st in states():
            fields = [np.ones(grid.shape)] + ([alternating(grid)] if one_plane_1d(grid) else [])
            for M in (block(grid, cfg, st, 1e-11), _fourier_surrogate(grid, coefficients(st), 1e-11)):
                for x in fields:
                    assert grid.norm(M(x)) <= grid.norm(x)


def nyquist_free_field(rng, grid):
    """A random zero-mean field with no content on the Nyquist bin of any axis (a one-node axis has none)."""
    spec = np.fft.fftn(rng.standard_normal(grid.shape))
    for axis, n in enumerate(grid.shape):
        if n > 1:
            spec[(slice(None),) * axis + (n // 2,)] = 0.0
    spec.flat[0] = 0.0
    return np.real(np.fft.ifftn(spec))


@pytest.mark.parametrize("mu", [1e-11, 1e-4, 1.0])
@pytest.mark.parametrize(
    "grid, P", [(TorusGrid(1, 16, 16), (0.5,)), (TorusGrid(2, 8, 8), (0.5, 0.2))], ids=["d1-16x16", "d2-8x8x8"]
)
def test_surrogate_inverts_the_constant_coefficient_operator(rng, grid, P, mu):
    # V = eta = 0 at u = 0 gives m = 1 and H_p = P everywhere: every
    # coefficient is its own node mean, so the surrogate is the exact inverse
    # of the damped operator on every mode the spectral derivative keeps
    d = grid.d
    ham = MechanicalHamiltonian(d=d, eta=(FourierSpec.zero(1),) * d, V=FourierSpec.zero(d + 1))
    cfg = SolverConfig(k=4.0, P=P)
    st = evaluate_state(ham, grid, cfg, grid.zeros())
    A, M = damped_operator(grid, cfg, st, mu), _fourier_surrogate(grid, coefficients(st), mu)
    for _ in range(3):
        v = nyquist_free_field(rng, grid)
        assert grid.norm(M(A(v)) - v) <= 1e-11 * grid.norm(v)


@pytest.mark.parametrize("mu", [1e-11, 1e-4, 1.0])
@pytest.mark.parametrize("grid", [TorusGrid(1, 33, 31), TorusGrid(2, 23, 1)], ids=["spacetime-33x31", "plane-23x23"])
def test_surrogate_is_the_inverse_for_constant_coefficients(rng, grid, mu):
    # F is A with every coefficient at its node mean: for constant fields of
    # any symmetric positive-definite c_ab it is A itself, and on an all-odd
    # grid every zero-mean field is in D's range, where the surrogate inverts it
    n_axes = grid.n_axes if grid.n_t > 1 else grid.d
    for _ in range(3):
        B = rng.standard_normal((n_axes, n_axes))
        C = B @ B.T + 0.1 * np.eye(n_axes)
        coef = [[np.full(grid.shape, C[a, b]) for b in range(n_axes)] for a in range(n_axes)]
        A, M = coefficient_operator(grid, coef, mu), _fourier_surrogate(grid, coef, mu)
        v = random_zero_mean(rng, grid)
        assert grid.norm(M(A(v)) - v) <= 1e-10 * grid.norm(v)


class TestTimeMeanBlockExact:
    @pytest.mark.parametrize("n_t, P", [(1, -0.1), (8, -0.1), (8, 0.3), (1, 0.0), (8, 0.0)])
    def test_inverse_on_time_independent_fields_1d(self, rng, n_t, P):
        cfg = SolverConfig(k=16.0, P=(P,), grad_tol=1e-10)
        check_exact(rng, *solved_state(pendulum_hamiltonian(), TorusGrid(1, 64, n_t), cfg))

    def test_inverse_on_time_independent_fields_2d(self, rng):
        check_exact(rng, *solved_state(separable_2d(), TorusGrid(2, 8, 4), SolverConfig(k=8.0, P=(0.3, 0.1))))

    def test_inverse_at_the_clamp(self, rng):
        check_exact(rng, *clamped_state())


@pytest.mark.parametrize(
    "ham, grid",
    [(separable_2d, TorusGrid(2, 24, 2)), (mixed_hamiltonian, TorusGrid(1, 32, 32))],
    ids=["one-plane-24x24", "spacetime-32x32"],
)
def test_no_block_above_the_cap(ham, grid):
    # one cap for either kind of solve grid
    grid = _solve_grid(ham(), grid)
    assert grid.n_nodes > _BLOCK_MAX_NODES
    assert _step_solve(grid) is _pcg_block


@pytest.mark.parametrize(
    "shape, solve",
    [
        ((1, 64, 1), _flux_block),
        ((1, 1024, 1), _flux_block),
        ((2, 22, 1), _dense_block),
        ((1, 32, 16), _dense_block),
        ((2, 24, 1), _pcg_block),
        ((1, 64, 16), _pcg_block),
        ((2, 12, 12), _pcg_block),
    ],
    ids=["flux-64", "flux-1024", "dense-484", "dense-512", "pcg-576", "pcg-1024", "pcg-1728"],
)
def test_step_solve_picks_by_the_solve_grid(shape, solve):
    # either side of each boundary: the flux step has no cap, the dense
    # block stops at the cap on one plane and in space-time alike
    assert _step_solve(TorusGrid(*shape)) is solve


class TestAtTheCap:
    # one plane of 512 nodes, the dense cap, with m down to about 6e-10 and
    # a damping near the Newton loop's floor: the flux step, which has no
    # cap, must stay symmetric, positive and exact
    @pytest.fixture(scope="class")
    def cap_state(self):
        grid, cfg, st = solved_state(pendulum_hamiltonian(), TorusGrid(1, 512, 8), SolverConfig(k=16.0, P=(0.3,)))
        assert grid.n_nodes == _BLOCK_MAX_NODES
        return grid, cfg, st

    def test_symmetric_and_positive(self, rng, cap_state):
        check_block_and_surrogate(rng, *cap_state, mu=1e-11)

    def test_inverse_on_time_independent_fields(self, rng, cap_state):
        check_exact(rng, *cap_state, mus=(1e-11, 1e-4))


def test_block_steps_where_m_underflows(rng):
    # m down to 5.7e-306 over whole x-ranges: at mu = 1e-11 the space-time
    # block still gives a finite descent step, exact to 1.3e-15 relative
    # (measured), and the surrogate stays symmetric and positive
    grid = TorusGrid(1, 32, 16)
    cfg = SolverConfig(k=16.0)
    u = 3.0 * np.cos(2 * np.pi * grid.coords()[0]) * np.ones(grid.shape)
    st = evaluate_state(mixed_hamiltonian(), grid, cfg, grid.project_zero_mean(u))
    assert grid.n_nodes <= _BLOCK_MAX_NODES
    assert np.min(st.m) < 1e-300
    g = -st.flux_divergence(st.m)
    step = block(grid, cfg, st, 1e-11)(-g)
    assert np.isfinite(step).all()
    assert grid.inner(g, step) < 0.0
    assert grid.norm(damped_operator(grid, cfg, st, 1e-11)(step) + g) <= 1e-12 * grid.norm(g)
    check_symmetric_positive(rng, grid, _fourier_surrogate(grid, coefficients(st), 1e-11))


def test_failed_factor_raises_line_search_error(monkeypatch):
    # a block whose LU raises (the NaN step), a step that is not finite, or
    # an ascent step has no descent slope: the first Newton step raises,
    # with no second step path (PCG or -g) in its place
    def singular(A, b):
        raise np.linalg.LinAlgError("Singular matrix")

    def overflowing(A, r):
        return np.full(r.shape, np.nan)

    def ascending(A, r):
        return -r  # the gradient g itself: slope |g|^2 > 0

    counts = pcg_iterations(monkeypatch)
    for owner, name, failing in (
        (np.linalg, "solve", singular),
        (evans_solver, "_block_solve", overflowing),
        (evans_solver, "_block_solve", ascending),
    ):
        monkeypatch.setattr(owner, name, failing)
        with pytest.raises(LineSearchError, match=r"^the Newton step is not a descent direction \(grad_norm=\d\.\d{3}e[+-]\d+\)$"):
            minimize(_battery_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=4.0))
    assert counts == []


def test_overlong_descent_step_raises_line_search_error(monkeypatch):
    # a step 1e30 times -g has a descent slope, but J rises at every trial
    # until backtracking passes alpha = 1e-12: the stage raises
    monkeypatch.setattr(evans_solver, "_step_solve", lambda grid: lambda st, mu, r: 1e30 * r)
    message = r"^no descent along the Newton direction \(grad_norm=\d\.\d{3}e[+-]\d+\); "
    with pytest.raises(LineSearchError, match=message):
        minimize(pendulum_hamiltonian(), TorusGrid(1, 16, 1), SolverConfig(k=4.0, P=(0.5,)))


def test_criterion_6_grid_converges_everywhere():
    # the flat branch |P| <= 0.4, where m spans about 1e-13 to 10, used to
    # leave entries unconverged at the CG cap
    P_grid = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    cfg = SolverConfig(k=16.0, grad_tol=1e-11)
    table = sweep_P(pendulum_hamiltonian(), TorusGrid(1, 64, 8), 16.0, P_grid, config=cfg)
    assert table.converged.tolist() == [True] * 41


@pytest.fixture(scope="module")
def shifted_criterion_6_grids():
    """(P grid, table, the sweep's solve records) of each of the nine seed shifts of the benchmark's sweep.

    Built the same way: the shifted grid is not re-rounded, which would
    change the solves.
    """
    base = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    cfg = SolverConfig(k=16.0, grad_tol=1e-11)
    solve, records = effective.minimize, []

    def recording(*args, **kwargs):
        records.append(solve(*args, **kwargs))
        return records[-1]

    effective.minimize = recording
    try:
        sweeps = []
        for j in range(-4, 5):
            P_grid = base + 0.01 * j
            table = sweep_P(pendulum_hamiltonian(), TorusGrid(1, 64, 8), 16.0, P_grid, config=cfg)
            sweeps.append((P_grid, table, records[-len(P_grid) :]))
    finally:
        effective.minimize = solve
    return sweeps


def test_shifted_criterion_6_grids_stop_only_at_the_known_floor(shifted_criterion_6_grids):
    # with direct steps and a stall limit of 6 no entry stops at the floor
    unconverged = set()
    for P_grid, table, _ in shifted_criterion_6_grids:
        unconverged |= {round(float(P), 2) for P in P_grid[~table.converged]}
    assert unconverged == set()


def test_shifted_criterion_6_entries_carry_no_nyquist_mode(shifted_criterion_6_grids):
    # the flux step never puts the alternating mode, which J cannot see,
    # into u; with the dense block warm starts carried up to 1.1e-4 of it
    amplitudes = [
        abs(np.mean(res.u.values * alternating(res.u.grid)))
        for _, _, records in shifted_criterion_6_grids
        for res in records
    ]
    assert len(amplitudes) == 369
    assert max(amplitudes) <= 1e-12


def test_secant_started_criterion_6_sweep_newton_steps(monkeypatch):
    # every entry after the second starts from the secant predictor, whose
    # error is O(dP^2) against the previous u's O(dP): 252 Newton steps and
    # 8 for the worst warm entry with the previous u, 188 and 7 with the
    # predictor, 17 of them for the cold first entry up the k ladder
    steps = []
    solve = effective.minimize

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps.append(res.iterations)
        return res

    monkeypatch.setattr(effective, "minimize", counting)
    P_grid = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    cfg = SolverConfig(k=16.0, grad_tol=1e-11)
    table = sweep_P(pendulum_hamiltonian(), TorusGrid(1, 64, 8), 16.0, P_grid, config=cfg)
    assert table.converged.all()
    assert len(steps) == 41
    assert sum(steps) <= 250
    assert max(steps[1:]) <= 12


def residual_field(rng, grid):
    """A random zero-mean field in the range of the derivative operators.

    The derivative annihilates the constant and the alternating mode of
    every axis, so no residual has a component on their products.  There the
    damped operator is mu alone, and A(M(r)) would return the round-off of
    A's own applies amplified by 1/mu.
    """
    spec = np.fft.fftn(rng.standard_normal(grid.shape))
    null = np.ones(grid.shape, bool)
    for axis, n in enumerate(grid.shape):
        shp = [1] * grid.n_axes
        shp[axis] = n
        null = null & np.isin(np.arange(n), (0, n // 2)).reshape(shp)
    spec[null] = 0.0
    return np.real(np.fft.ifftn(spec))


SPACETIME_CASES = {
    "tc1": (tc1_hamiltonian, TorusGrid(1, 16, 16), SolverConfig(k=8.0, P=(0.0,))),
    "mixed": (mixed_hamiltonian, TorusGrid(1, 16, 16), SolverConfig(k=4.0, P=(0.5,))),
    "d2": (tc2_hamiltonian, TorusGrid(2, 8, 4), SolverConfig(k=8.0, P=(0.5, 0.2))),
    "large-k": (tc1_hamiltonian, TorusGrid(1, 16, 16), SolverConfig(k=64.0, P=(0.0,))),
}


class TestSpacetimeBlockExact:
    @pytest.fixture(scope="class", params=sorted(SPACETIME_CASES))
    def case(self, request):
        ham, grid, cfg = SPACETIME_CASES[request.param]
        return request.param, *solved_state(ham(), grid, cfg)

    @pytest.mark.parametrize("mu", [1e-11, 1e-4, 1.0])
    def test_inverse_on_residual_fields(self, rng, case, mu):
        name, grid, cfg, st = case
        assert grid.n_nodes <= _BLOCK_MAX_NODES
        if name == "large-k":
            assert np.min(st.m) <= 1e-30
        A, M = damped_operator(grid, cfg, st, mu), block(grid, cfg, st, mu)
        for _ in range(3):
            r = residual_field(rng, grid)
            assert grid.norm(A(M(r)) - r) <= 1e-8 * grid.norm(r)

    def test_autonomous_state_on_a_full_grid(self, rng):
        # minimize never builds one (``_solve_grid``), but the block keys on
        # the grid alone: a full grid gets the space-time inverse
        grid = TorusGrid(1, 16, 16)
        cfg = SolverConfig(k=4.0, P=(0.5,))
        st = evaluate_state(pendulum_hamiltonian(), grid, cfg, grid.zeros())
        A, M = damped_operator(grid, cfg, st, 1.0), partial(_dense_block, st, 1.0)
        for _ in range(3):
            r = residual_field(rng, grid)
            assert grid.norm(A(M(r)) - r) <= 1e-8 * grid.norm(r)


def pcg_iterations(monkeypatch) -> list[int]:
    """The iteration count of every ``_pcg`` call from here on, in call order."""
    counts = []
    pcg = evans_solver._pcg

    def counting(*args, **kwargs):
        step, iterations = pcg(*args, **kwargs)
        counts.append(iterations)
        return step, iterations

    monkeypatch.setattr(evans_solver, "_pcg", counting)
    return counts


def test_battery_solve_takes_no_cg(monkeypatch):
    # the 16x16 time-coupled solve of the check command: every Newton step
    # is one direct block solve
    counts = pcg_iterations(monkeypatch)
    res = minimize(_battery_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=4.0))
    assert res.converged
    assert res.iterations > 0
    assert counts == []


def test_criterion_6_sweep_takes_no_cg(monkeypatch):
    counts = pcg_iterations(monkeypatch)
    P_grid = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    cfg = SolverConfig(k=16.0, grad_tol=1e-11)
    table = sweep_P(pendulum_hamiltonian(), TorusGrid(1, 64, 8), 16.0, P_grid, config=cfg)
    assert table.converged.all()
    assert counts == []


def test_one_plane_1d_solve_above_the_cap_takes_the_flux_step(monkeypatch):
    # the flux step has no cap: the pendulum on 1,024 nodes runs no CG and
    # reaches the 256-node value (the surrogate's PCG took 73 steps and
    # stopped unconverged at 1.6e-6)
    counts = pcg_iterations(monkeypatch)
    cfg = SolverConfig(k=16.0, P=(0.5,), grad_tol=1e-9)
    fine = minimize(pendulum_hamiltonian(), TorusGrid(1, 1024, 1), cfg)
    assert fine.converged
    assert fine.iterations <= 20
    assert counts == []
    coarse = minimize(pendulum_hamiltonian(), TorusGrid(1, 256, 1), cfg)
    assert abs(fine.hbar - coarse.hbar) <= 1e-12


def test_one_plane_solve_above_the_cap_runs_pcg(monkeypatch):
    # separable 24^2 x 4 solves on one plane of 576 nodes, above the cap:
    # every Newton step is one PCG solve with the surrogate
    counts = pcg_iterations(monkeypatch)
    res = minimize(separable_2d(), TorusGrid(2, 24, 4), SolverConfig(k=4.0, P=(0.3, 0.1)))
    assert _solve_grid(separable_2d(), TorusGrid(2, 24, 4)).n_nodes == 576
    assert res.converged
    assert len(counts) == res.iterations > 0
    assert min(counts) >= 1


def test_solve_above_the_cap_runs_pcg(monkeypatch):
    # the drift config's 64x64 grid is time-coupled, far above the cap:
    # every Newton step runs PCG with the surrogate
    path = Path(__file__).resolve().parents[1] / "configs" / "drift_solve.json"
    run = RunConfig(json.loads(path.read_text()))
    assert run.grid.n_nodes > _BLOCK_MAX_NODES
    counts = pcg_iterations(monkeypatch)
    res = minimize(run.ham, run.grid, run.solver)
    assert res.converged
    assert len(counts) == res.iterations
    assert min(counts) >= 1


def test_pcg_on_a_zero_right_hand_side():
    # a zero right-hand side is solved by the zero step at once, with no apply
    def never(_):
        raise AssertionError("applied")

    grid = TorusGrid(1, 8, 4)
    x, iterations = evans_solver._pcg(never, never, grid.zeros(), grid, 1e-8)
    assert iterations == 0
    assert np.array_equal(x, grid.zeros())


def test_pcg_stops_where_curvature_is_lost():
    # an operator that returns zeros has no curvature along the first
    # direction: CG keeps the zero iterate, after 0 iterations, silently
    grid = TorusGrid(1, 8, 4)
    b = grid.project_zero_mean(np.cos(2 * np.pi * grid.coords()[0]) * np.ones(grid.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, iterations = evans_solver._pcg(np.zeros_like, lambda r: r, b, grid, 1e-8)
    assert iterations == 0
    assert np.array_equal(x, grid.zeros())


def test_dense_block_is_the_operator_on_unit_fields(monkeypatch):
    # the block is _operator_apply on the derivative columns, PCG's apply is
    # it on a field's derivatives: only the derivative kernels differ, so
    # each column matches the apply to the unit field to rounding
    blocks = []
    monkeypatch.setattr(evans_solver, "_block_solve", lambda A, r: blocks.append(A.copy()))
    cases = [
        (tc1_hamiltonian(), TorusGrid(1, 16, 16), SolverConfig(k=8.0, P=(0.0,))),
        (separable_2d(), TorusGrid(2, 12, 1), SolverConfig(k=8.0, P=(0.3, 0.1))),
    ]
    for ham, grid, cfg in cases:
        u = 0.3 * np.sin(2 * np.pi * (grid.coords()[0] + grid.coords()[-1])) * np.ones(grid.shape)
        st = evaluate_state(ham, grid, cfg, grid.project_zero_mean(u))
        _dense_block(st, 1e-3, grid.zeros())
        A, apply = blocks[-1], damped_operator(grid, cfg, st, 1e-3)
        assert A.shape == (grid.n_nodes, grid.n_nodes)
        for j, unit in enumerate(np.eye(grid.n_nodes)):
            col = apply(unit.reshape(grid.shape)).ravel()
            assert np.linalg.norm(A[:, j] - col) <= 1e-12 * np.linalg.norm(col)


@pytest.mark.parametrize(
    "ham, shape, P, hbar",
    [
        (tc1_hamiltonian, (1, 64, 16), (0.0,), 0.801487320595),
        (tc1_hamiltonian, (1, 256, 16), (0.0,), 0.801487320595),
        (tc2_hamiltonian, (2, 12, 12), (0.5, 0.2), 1.103260369473),
        (tc2_hamiltonian, (2, 16, 16), (0.5, 0.2), 1.104972240508),
    ],
    ids=["tc1-64x16", "tc1-256x16", "tc2-12x12x12", "tc2-16x16x16"],
)
def test_scaled_surrogate_converges_above_the_cap(monkeypatch, ham, shape, P, hbar):
    # m spans decades at k = 8: with coefficients frozen at m = 1 the
    # surrogate's CG stalled at its cap and these solves ended unconverged
    # after 69-99 Newton steps; scaled to the operator's diagonal they take
    # 17-28 steps (the tc1 references are the 64x16 value)
    counts = pcg_iterations(monkeypatch)
    res = minimize(ham(), TorusGrid(*shape), SolverConfig(k=8.0, P=P))
    assert res.converged
    assert len(counts) == res.iterations > 0
    assert abs(res.hbar - hbar) <= 1e-9


def parity_fields(grid):
    """The constant and the products of the sign fields (-1)^j of every set of even axes: D's null modes."""
    fields = [np.ones(grid.shape)]
    for axis, n in enumerate(grid.shape):
        if n % 2 == 0:
            sign = (-1.0) ** np.arange(n).reshape([-1 if i == axis else 1 for i in range(grid.n_axes)])
            fields += [f * sign for f in fields]
    return fields


@pytest.mark.parametrize("shape", [(1, 64, 16), (1, 33, 31)], ids=["even-64x16", "odd-33x31"])
def test_scaled_surrogate_above_the_cap_is_symmetric_positive(rng, shape):
    # m at the clamp over whole x-ranges, where the scaling s reaches
    # sqrt(diag F / mu): the map stays symmetric and positive, and returns
    # no null mode of D (the constant; on even axes the sign fields) scaled
    grid = TorusGrid(*shape)
    assert grid.n_nodes > _BLOCK_MAX_NODES
    cfg = SolverConfig(k=16.0, P=(0.3,))
    u = 3.0 * np.cos(2 * np.pi * grid.coords()[0]) * np.ones(grid.shape)
    st = evaluate_state(mixed_hamiltonian(), grid, cfg, grid.project_zero_mean(u))
    assert np.min(st.m) < 1e-300
    fields = parity_fields(grid)
    assert len(fields) == (4 if shape[1] % 2 == 0 else 1)
    for mu in (1e-11, 1e-4, 1.0):
        M = _fourier_surrogate(grid, coefficients(st), mu)
        check_symmetric_positive(rng, grid, M)
        for x in fields:
            assert grid.norm(M(x)) <= grid.norm(x)


def four_projection_surrogate(grid, coef, mu):
    """The surrogate written as Pi s Pi F^-1 Pi s Pi: F's DC bin set to one, Pi the parity-class means."""
    d = grid.d
    cbar = [[grid.integrate(c) for c in row] for row in coef]
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in grid.shape[:d]] + [np.fft.rfftfreq(grid.n_t, d=1.0 / grid.n_t)]
    xi = [2.0 * np.pi * f.reshape([-1 if i == a else 1 for i in range(d + 1)]) for a, f in enumerate(freqs)]
    sym = mu + sum(c * xi[a] * xi[b] for a, row in enumerate(cbar) for b, c in enumerate(row))
    sym.flat[0] = 1.0
    inv, axes = 1.0 / sym, tuple(range(d + 1))
    diag_A = mu + sum(_along(derivative_matrix(grid.shape[a]) ** 2, coef[a][a], a) for a in range(len(coef)))
    s = np.sqrt(np.mean(diag_A) / diag_A)
    split, halves = [], []
    for n in grid.shape:
        halves.append(len(split))
        split += [n // 2, 2] if n % 2 == 0 else [n]

    def parity_free(x):
        y = x.reshape(split)
        return (y - y.mean(axis=tuple(halves), keepdims=True)).reshape(grid.shape)

    def apply_inverse(r):
        x = np.fft.irfftn(np.fft.rfftn(parity_free(s * parity_free(r)), axes=axes) * inv, s=grid.shape, axes=axes)
        return parity_free(s * parity_free(x))

    return apply_inverse


@pytest.mark.parametrize("mu", [1e-11, 1e-4, 1.0])
@pytest.mark.parametrize(
    "ham, shape, P",
    [
        (tc1_hamiltonian, (1, 64, 16), (0.0,)),
        (tc1_hamiltonian, (1, 33, 31), (0.0,)),
        (tc1_hamiltonian, (1, 33, 32), (0.0,)),
        (tc1_hamiltonian, (1, 32, 33), (0.0,)),
        (tc1_hamiltonian, (1, 16, 3), (0.0,)),
        (tc2_hamiltonian, (2, 12, 12), (0.5, 0.2)),
        (separable_2d, (2, 24, 1), (0.5, 0.2)),
        (separable_2d, (2, 23, 1), (0.5, 0.2)),
    ],
    ids=["tc1-64x16", "tc1-33x31", "tc1-33x32", "tc1-32x33", "tc1-16x3", "tc2-12x12x12", "separable-24", "separable-23"],
)
def test_surrogate_is_the_four_projection_map(rng, ham, shape, P, mu):
    # D's null modes are the bins at frequency 0 or Nyquist on every axis,
    # so zeroing those bins of F^-1 is Pi F^-1 Pi: the two inner projections
    # and the DC special case say nothing more, on either parity of any axis
    grid = TorusGrid(*shape)
    cfg = SolverConfig(k=8.0, P=P)
    u = np.sin(2 * np.pi * (grid.coords()[0] + grid.coords()[-1])) * np.ones(grid.shape)
    st = evaluate_state(ham(), grid, cfg, grid.project_zero_mean(u))
    coef = coefficients(st)
    M, reference = _fourier_surrogate(grid, coef, mu), four_projection_surrogate(grid, coef, mu)
    for _ in range(3):
        r = rng.standard_normal(grid.shape)
        assert grid.norm(M(r) - reference(r)) <= 1e-13 * grid.norm(reference(r))
