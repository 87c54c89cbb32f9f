"""Minimization of the exponential cell-problem objective on the torus.

The objective is the log-stabilized exponential average

    J[u] = (1/k) * log mean( exp(k * (u_t + H(z, P + grad u))) )

over zero-mean fields u.  The log transform keeps every k <= 1e6 finite
(max subtraction inside) and makes the optimal value the effective constant
hbar directly; its softmax weights are the density m with unit mass.

Every derivative, the dense block's included, is the grid's circulant
matrix per axis (``torus_grid.derivative_matrix``), exactly skew, so the
discrete gradient of J is literally the discrete transport residual
-(m_t + div(m H_p)); driving the gradient norm below grad_tol therefore
certifies the discrete mean-field-game system at that tolerance.  The
transport derivative T = D_t + H_p . grad and its adjoint form are written
once, on the evaluated state (``_State.transport`` and
``_State.flux_divergence``), for the gradient and every certificate.

Newton steps use the positive-semidefinite linearized critical-point
operator (the Gauss-Newton choice: the softmax covariance rank-one term is
dropped, so the operator equals the true Hessian at critical points).  One
function, ``_step_solve``, picks the damped solve of every step from the
solve grid alone, a map of the evaluated state.  On a one-plane 1-d grid,
at any n, D^T diag(c) D is diagonal in the flux y = D s up to D's null
modes, and a step is two matvecs with the antiderivative D+.  On other small
grids it is one direct solve with a dense block; larger grids run conjugate
gradients on the zero-mean subspace, preconditioned by a Fourier surrogate:
the operator with every coefficient at its node mean, scaled to the
operator's exact diagonal.  The dense block and the matrix-free apply are
one function, ``_operator_apply``.  J is convex at every k, so a cold start
needs no homotopy in the Hamiltonian: it climbs a doubling ladder in k from
u = 0, each stage warm-started from the last, and a solve warm-started from
another solve climbs the same ladder from that solve's k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .hamiltonians import (ChiParams, HamiltonianTable, MechanicalHamiltonian, _finite_float, _is_finite_number,
                           _json_integer, check_nyquist)
from .torus_grid import ScalarField, TorusGrid, antiderivative_matrix, derivative_matrix

__all__ = [
    "SolverConfig",
    "SolveResult",
    "LipschitzCertificate",
    "LineSearchError",
    "objective",
    "gradient",
    "linearized_el_apply",
    "minimize",
    "evaluate_state",
    "hbar_bounds",
    "lipschitz_bound",
]

# The cap on CG iterations per Newton step.
_CG_MAX = 500
# Consecutive stalled Newton steps after which a stage stops unconverged.
# At the rounding floor every step redraws a gradient of about 1e-11, the
# size of the criterion-6 grad_tol, so a short limit stops steep sweep
# entries by rounding luck.  Over the nine shifted criterion-6 grids (369
# secant-started entries, direct steps), every limit from 3 to 6
# leaves none unconverged; with FFT derivatives 3 left 11, 5 left one.
_STALL_LIMIT = 6
_TINY = np.finfo(float).tiny
# The inner radius a = K * _A_RATIO of the barrier integral that sets the
# Lipschitz certificate's K, and the slack its monitor allows a computed
# gradient bound over K.
_A_RATIO = 1e-9
_MONITOR_SLACK = 0.10


class LineSearchError(RuntimeError):
    """A Newton step that is not a descent direction, or backtracking that found a genuine increase along one.

    The objective is convex and the damped Newton operator positive definite,
    so a step whose slope inner(g, step) is not negative (NaN included), a
    dense block that is exactly singular, or an increase along a descent
    direction signals a broken operator or gradient, not a hard problem.
    """


@dataclass(frozen=True)
class SolverConfig:
    """Controls for one minimization run.

    ``P`` is the constant momentum shift (one entry per spatial axis); the
    shift enters as grad u -> P + grad u, which keeps every iterate periodic.
    Given as None, a number or a flat sequence, it is stored as None or a
    tuple of floats.  ``k`` and ``grad_tol`` are stored as floats and
    ``max_newton`` as an int (16.0 counts as 16; 16.5, strings and booleans
    are refused), so equal configs compare and hash equal and every field
    is JSON-ready.
    The solve minimizes the plain objective J with the spectral derivative
    (``torus_grid.derivative_matrix``); the CG cap is a module constant.
    """

    k: float
    P: tuple[float, ...] | float | None = None
    grad_tol: float = 1e-9
    max_newton: int = 60

    def __post_init__(self) -> None:
        for name, parse in (("k", _finite_float), ("grad_tol", _finite_float), ("max_newton", _json_integer)):
            object.__setattr__(self, name, parse(getattr(self, name), name))
        if self.P is not None:
            object.__setattr__(self, "P", _momentum_tuple(self.P))
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")

    def momentum(self, d: int) -> np.ndarray:
        P = np.zeros(d) if self.P is None else np.array(self.P)
        if P.shape != (d,):
            raise ValueError(f"P has shape {P.shape}, expected ({d},)")
        return P


def _momentum_tuple(P) -> tuple[float, ...]:
    """P, a number or a flat sequence of finite numbers, as a tuple of floats; ValueError otherwise.

    A tuple of finite floats (a parsed P, as ``replace`` passes it on) and
    a 1-d float64 array of finite values (a sweep's row) skip the parse
    through an object array: they give the floats it gives.
    """
    floats = tuple(P.tolist()) if isinstance(P, np.ndarray) and P.dtype == np.float64 and P.ndim == 1 else P
    if type(floats) is tuple and all(type(p) is float and math.isfinite(p) for p in floats):
        return floats
    arr = np.asarray(P, dtype=object)
    if arr.ndim > 1 or not all(map(_is_finite_number, arr.ravel())):
        raise ValueError(f"P must be None or finite numbers, got {P!r}")
    return tuple(float(p) for p in arr.ravel())


@dataclass(eq=False)
class SolveResult:
    """Minimizer, effective constant and certificates of one solve.

    ``rotation`` is the rotation vector mean(m * H_p) of the final iterate,
    the P-derivative of hbar.
    """

    u: ScalarField
    hbar: float
    m: ScalarField
    rotation: np.ndarray
    grad_norm: float
    lip_norm: float
    iterations: int
    converged: bool
    k: float
    P: np.ndarray

    def metadata(self) -> dict:
        return {
            "k": self.k,
            "P": [float(p) for p in self.P],
            "hbar": self.hbar,
            "grad_norm": self.grad_norm,
            "lip_norm": self.lip_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class LipschitzCertificate:
    """A priori gradient bound K derived from the linear drift bound chi by ``lipschitz_bound``.

    K is the smallest value (up to a 1e-10 relative nudge) such that the
    barrier integral g(a) = integral_a^K 2 du / (chi(u) + 1) reaches 2 with
    a = K * ``_A_RATIO``.  Solutions of the critical-point equation satisfy
    max|Du| <= K in the continuum, so the certificate is a monitor of
    computed minimizers, not an assumption: the ``check`` battery's solve
    and the tests hold ``SolveResult.lip_norm`` against it.
    """

    K: float

    def __post_init__(self) -> None:
        if not self.K > 0:
            raise ValueError("certificate requires K > 0")

    def monitor(self, lip_norm: float) -> bool:
        """True when a computed gradient bound sits within the certified K, up to ``_MONITOR_SLACK``."""
        return lip_norm <= self.K * (1.0 + _MONITOR_SLACK)


# -- Hamiltonian data tabulated on a grid -------------------------------------


def _is_autonomous(ham: MechanicalHamiltonian) -> bool:
    return not ham.V.depends_on(ham.d) and not any(spec.depends_on(0) for spec in ham.eta)


@lru_cache(maxsize=8)
def _grid_table(ham: MechanicalHamiltonian, grid: TorusGrid) -> HamiltonianTable:
    """``ham`` tabulated on ``grid`` after ``check_nyquist``, the solver's one Nyquist gate; read-only and shared."""
    check_nyquist(ham, grid)
    table = HamiltonianTable(ham, grid.coords())
    for arr in (*table.eta, *table.eta_prime, table.V, *table.gradV, table.V_t):
        arr.flags.writeable = False
    return table


class _State:
    """Everything derived from one iterate u: derivatives, momenta, J, m.

    The state keeps what it was evaluated with: the grid's HamiltonianTable
    ``table`` (f = u_t + H comes from its ``H``), the config ``cfg`` (its k)
    and the momentum ``P``; ``at`` evaluates another iterate with them.  On
    one time plane u_t is exactly zero: it is neither computed nor stored,
    and ``ut`` reads as zeros.
    """

    __slots__ = ("grid", "table", "cfg", "P", "u", "du", "_ut", "w", "f", "J", "m")

    def __init__(self, grid: TorusGrid, table: HamiltonianTable, cfg: SolverConfig, P: np.ndarray, u: np.ndarray):
        d = table.d
        self.grid, self.table, self.cfg, self.P, self.u = grid, table, cfg, P, u
        self.du = [grid.deriv(u, a) for a in range(d)]
        self._ut = grid.deriv(u, d) if grid.n_t > 1 else None
        self.w = table.H_p([P[i] + self.du[i] for i in range(d)])
        self.f = table.H(self.w, self._ut)  # w has the grid's shape, so f has it too
        self.J, self.m = _softmax(grid, cfg.k, self.f)

    def at(self, u: np.ndarray, cfg: SolverConfig | None = None) -> _State:
        """The state of u's zero-mean projection with this state's grid, table and P, at ``cfg`` (default its own)."""
        return _State(self.grid, self.table, self.cfg if cfg is None else cfg, self.P, self.grid.project_zero_mean(u))

    @property
    def ut(self) -> np.ndarray:
        return np.zeros(self.grid.shape) if self._ut is None else self._ut

    def transport(self, x: np.ndarray) -> np.ndarray:
        """T x = x_t + sum_i w_i * D_i x, the derivative along the momenta w = H_p (no x_t on one time plane)."""
        grid = self.grid
        out = grid.deriv(x, grid.d) if grid.n_t > 1 else None
        for i, wi in enumerate(self.w):
            term = grid.deriv(x, i) * wi
            out = term if out is None else out + term
        return out

    def flux_divergence(self, y: np.ndarray) -> np.ndarray:
        """y_t + div(y w) = -T^T y, the transport derivative's adjoint form (no y_t on one time plane).

        At y = m it is the transport residual of the mean-field-game system,
        and minus the gradient of J.
        """
        grid = self.grid
        out = grid.deriv(y, grid.d) if grid.n_t > 1 else None
        for i, wi in enumerate(self.w):
            term = grid.deriv(y * wi, i)
            out = term if out is None else out + term
        return out

    def grad_sq(self) -> np.ndarray:
        """|Du|^2 over the space-time axes."""
        sq = 0.0 if self._ut is None else self._ut**2  # 0.0 + g**2 has the bits of g**2
        for g in self.du:
            sq = sq + g**2
        return sq


def _softmax(grid: TorusGrid, k: float, f: np.ndarray) -> tuple[float, np.ndarray]:
    """J = (1/k) log mean(exp(k*f)), shifted by max f, and the weights m with mean one."""
    fmax = float(np.maximum.reduce(f, None))
    # clamp at the smallest positive normal: keeps m strictly positive
    # even where exp underflows, at no visible cost to the mass
    weights = np.maximum(np.exp(k * (f - fmax)), _TINY)
    Z = grid.integrate(weights)
    return fmax + math.log(Z) / k, weights / Z


def _newton_coefficients(grid: TorusGrid, k: float, m: np.ndarray, w: list[np.ndarray]) -> list[list[np.ndarray]]:
    """The coefficient fields c_ab of the Newton operator sum_ab D_a^T diag(c_ab) D_b.

    c_ab = m*(k*v_a*v_b + delta_ab*[a spatial]) with v = (w, 1), w = H_p:
    k*T^T diag(m) T for the transport derivative T = D_t + sum_i diag(w_i) D_i,
    plus sum_i D_i^T diag(m) D_i.  The axes are the solve grid's: the spatial
    ones alone on one time plane, where D_t is zero, every space-time axis
    otherwise.
    """
    d, v = grid.d, [*w, 1.0]
    axes = range(grid.n_axes if grid.n_t > 1 else d)
    return [[m * (k * v[a] * v[b] + float(a == b and a < d)) for b in axes] for a in axes]


def _operator_apply(coef: list[list[np.ndarray]], dv: list[np.ndarray], deriv) -> np.ndarray:
    """-sum_a D_a(sum_b c_ab * dv_b), the Newton operator of ``coef`` applied to the derivatives dv_b = D_b v.

    ``deriv(x, a)`` is D_a x: ``grid.deriv`` on a field v matrix-free (PCG,
    ``linearized_el_apply``), ``_along`` on the ``_derivative_columns``
    stacks for the dense block, where v runs over the unit fields.  D is
    skew, so this is sum_ab D_a^T c_ab D_b v, written once.  With
    ``_newton_coefficients`` at the iterate it is the Gauss-Newton Hessian
    of J: its quadratic form is mean(m * (k*(v_t + H_p.grad v)^2 +
    |grad v|^2)) for the mechanical family, k times the normalized operator
    exposed publicly.  The sums accumulate in place, into the first term's
    arrays.
    """
    for a, row in enumerate(coef):
        flux = row[0] * dv[0]
        for c, g in zip(row[1:], dv[1:]):
            flux += c * g
        out = deriv(flux, a) if a == 0 else np.add(out, deriv(flux, a), out=out)
    return np.negative(out, out=out)


@lru_cache(maxsize=4)
def _derivative_columns(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Each D_b over the axes of ``shape`` as a column stack: ``cols[b][..., j]`` = D_b e_j."""
    N = math.prod(shape)
    unit = np.eye(N).reshape(shape + (N,))
    cols = [_along(derivative_matrix(n), unit, b) for b, n in enumerate(shape)]
    for arr in cols:
        arr.flags.writeable = False  # shared by every caller through the cache
    return cols


def _along(D: np.ndarray, X: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(D, X, axes=(1, axis)), 0, axis)


def _assemble(shape: tuple[int, ...], coef: list[list[np.ndarray]], mu: float) -> np.ndarray:
    """Dense sum_ab D_a^T diag(coef[a][b]) D_b + mu over the axes of ``shape``: ``_operator_apply`` on every unit field.

    Each coefficient carries a trailing unit axis for the columns.  Each
    term costs O(N^2 * n_a) through the column stacks, not O(N^3).
    """
    N = math.prod(shape)
    A = _operator_apply(coef, _derivative_columns(shape), lambda x, a: _along(derivative_matrix(shape[a]), x, a))
    A = A.reshape(N, N)
    np.einsum("ii->i", A)[:] += mu
    return A


def _block_solve(A: np.ndarray):
    """Solve map of a damped Newton block A = mu + (symmetric positive semidefinite), overwriting A.

    Constants are an eigenvector of A with eigenvalue mu and never part of a
    residual, so they are lifted to the mean diagonal (the solve on
    zero-mean fields is unchanged).  A is then equilibrated by its diagonal,
    B = s A s with s = diag^-1/2, and shifted by a round-off 1e-14.  The
    returned map is one LU solve with B, which is not symmetric to rounding;
    it raises ``LinAlgError`` where B is exactly singular.
    """
    diag = np.einsum("ii->i", A)  # a writable view of A's diagonal
    A += diag.sum() / diag.size / diag.size  # the mean diagonal over N, with np.mean's bits
    s = 1.0 / np.sqrt(diag)
    A *= s[:, None]
    A *= s
    diag += 1e-14

    def solve(r: np.ndarray) -> np.ndarray:
        return (s * np.linalg.solve(A, s * r.ravel())).reshape(r.shape)

    return solve


def _dense_block(st: _State, mu: float):
    """Exact solve with the damped Newton operator as one dense block, for small solve grids.

    The operator is A = sum_ab D_a^T diag(c_ab) D_b + mu over the axes of the
    solve grid (``_newton_coefficients``).  The Newton step is this map
    applied to -g, with no CG iteration.
    """
    coef = _newton_coefficients(st.grid, st.cfg.k, st.m, st.w)
    shape = st.grid.shape[: len(coef)]
    return _block_solve(_assemble(shape, [[c.reshape(shape + (1,)) for c in row] for row in coef], mu))


@lru_cache(maxsize=8)
def _flux_kappa(n: int) -> float:
    """kappa = (D+^T D+)_00 on n nodes, the weight ``_flux_block`` gives the damping in flux coordinates."""
    Dp = antiderivative_matrix(n)
    return float(Dp[:, 0] @ Dp[:, 0])


def _flux_block(st: _State, mu: float):
    """Exact solve with the damped Newton operator on a one-plane 1-d solve grid, in flux coordinates.

    There the operator is D^T diag(c) D with c = m*(k*w^2 + 1), and in the
    flux y = D s it is diagonal, up to the null modes of D: the constant and,
    for even n, the Nyquist mode, which together span the constants on the
    even and on the odd nodes.  The damping is kappa*mu*|D s|^2 with
    kappa = (D+^T D+)_00, the diagonal of mu*|s|^2 written in y.  The map
    solves D^T diag(q) D s = r with q = c + kappa*mu: q y = h - a with
    h = (D^T)+ r and one constant a per parity of node (one in all on an odd
    n_x), the 1/q-weighted mean of h there, which puts y in the range of D;
    then s = D+ y.  Where q spans more decades than a double holds, h - a
    cancels and leaves y off that range, which a second pass restores.
    That is two matvecs with D+ and O(n) work, at every n, with kappa
    computed once per n (``_flux_kappa``); the map is symmetric, returns
    zero-mean, Nyquist-free steps and drops the null modes of r.
    """
    n = st.grid.n_x
    Dp, kappa = antiderivative_matrix(n), _flux_kappa(n)
    parities = 2 - n % 2
    # -1/q carries the sign of (D^T)+ = -D+; the weighted means of h/q read
    # the same with -1/q in place of 1/q, bit for bit
    nqinv = -1.0 / (_newton_coefficients(st.grid, st.cfg.k, st.m, st.w)[0][0] + kappa * mu).reshape(-1, parities)
    nqinv_sum = np.add.reduce(nqinv, 0)

    def solve(r: np.ndarray) -> np.ndarray:
        y = np.dot(Dp, r).reshape(-1, parities) * nqinv  # h/q
        for _ in range(2):
            y -= np.add.reduce(y, 0) / nqinv_sum * nqinv
        return np.dot(Dp, y.reshape(r.shape))

    return solve


def _pcg_block(st: _State, mu: float):
    """Inexact solve with the damped Newton operator: PCG with the scaled Fourier surrogate, matrix-free.

    The operator is ``_operator_apply`` of the coefficients at the iterate on
    the derivatives of each CG direction, plus mu; the surrogate is read off
    the same coefficients.  CG stops at the inexact-Newton forcing term
    min(0.1, sqrt(mu)), which is sqrt(grad_norm) for mu = min(1, grad_norm).
    """
    coef = _newton_coefficients(st.grid, st.cfg.k, st.m, st.w)
    forcing = min(0.1, math.sqrt(mu))
    surrogate = _fourier_surrogate(st.grid, coef, mu)

    def apply_damped(v: np.ndarray) -> np.ndarray:
        return _operator_apply(coef, [st.grid.deriv(v, b) for b in range(len(coef))], st.grid.deriv) + mu * v

    return lambda r: _pcg(apply_damped, surrogate, r, st.grid, forcing)[0]


# Largest solve grid, in nodes, on which ``_step_solve`` picks the dense block.
_BLOCK_MAX_NODES = 512


def _step_solve(grid: TorusGrid):
    """The solve map (st, mu) -> (r -> s) of every Newton step on the solve grid ``grid``, the state's grid.

    A one-plane 1-d grid takes ``_flux_block``, at every size.  Other grids
    of at most ``_BLOCK_MAX_NODES`` nodes take ``_dense_block`` (one LU per
    step), larger ones ``_pcg_block``.  At 512 the 1-d time-coupled case on
    32x16 converges in 11 (k = 8) and 37 (k = 16) Newton steps, where PCG
    with the scaled surrogate takes 20 and stops unconverged after 80; at
    1024 the factor costs 32x32 problems more than the surrogate's CG
    iterations do (drift only: 0.02 s -> 0.93 s).
    """
    if grid.d == 1 and grid.n_t == 1:
        return _flux_block
    return _dense_block if grid.n_nodes <= _BLOCK_MAX_NODES else _pcg_block


def _fourier_surrogate(grid: TorusGrid, coef: list[list[np.ndarray]], mu: float):
    """Approximate inverse of the damped Newton operator A of ``coef``, the preconditioner of ``_pcg_block``.

    F is A with every coefficient c_ab at its node mean cbar_ab: mu +
    sum_ab cbar_ab*xi_a*xi_b, diagonal in Fourier space, which captures the
    transport anisotropy that otherwise throttles the inner solve.  F^-1 is
    scaled to A's exact diagonal, which follows m where it spans decades:
    diag A = mu + sum_a (D_a o D_a)^T c_aa along axis a (the cross terms
    a != b meet D's zero diagonal), and as every column of D_a o D_a has one
    sum, diag F is the node mean of diag A.  With s = sqrt(diag F / diag A)
    the map is Pi s Fhat^-1 s Pi.  Pi subtracts the mean of each node-parity
    class (the zero-mean projection on an all-odd grid), which removes D's
    null modes, the Fourier modes at frequency 0 or Nyquist on every axis;
    Fhat^-1 is F^-1 with their bins zeroed, exactly Pi F^-1 Pi.  Left in, s
    would carry them into and out of F^-1, which scales them by about 1/mu.
    The map is symmetric and positive on the range, at one rfftn/irfftn
    pair and two projections per apply.
    """
    d = grid.d
    cbar = [[grid.integrate(c) for c in row] for row in coef]
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in grid.shape[:d]] + [np.fft.rfftfreq(grid.n_t, d=1.0 / grid.n_t)]
    xi = [2.0 * np.pi * f.reshape([-1 if i == a else 1 for i in range(d + 1)]) for a, f in enumerate(freqs)]
    # every pair of the solve grid's axes has a term: F's symbol spans the rfftn bins
    inv = 1.0 / (mu + sum(c * xi[a] * xi[b] for a, row in enumerate(cbar) for b, c in enumerate(row)))
    # D's null modes are the bins at frequency 0 or Nyquist on every axis: zeroing them is Pi F^-1 Pi
    inv[np.ix_(*[[0, n // 2] if n % 2 == 0 else [0] for n in grid.shape])] = 0.0
    axes = tuple(range(d + 1))
    diag_A = mu + sum(_along(derivative_matrix(grid.shape[a]) ** 2, row[a], a) for a, row in enumerate(coef))
    s = np.sqrt(grid.integrate(diag_A) / diag_A)
    # every even axis n split as (n/2, 2): the means over the half-axes are the parity classes' means
    split, halves = [], []
    for n in grid.shape:
        halves.append(len(split))
        split += [n // 2, 2] if n % 2 == 0 else [n]
    halves, class_size = tuple(halves), math.prod(split[h] for h in halves)

    def parity_free(x: np.ndarray) -> np.ndarray:
        y = x.reshape(split)
        return (y - np.add.reduce(y, halves, keepdims=True) / class_size).reshape(grid.shape)

    def apply_inverse(r: np.ndarray) -> np.ndarray:
        x = np.fft.irfftn(np.fft.rfftn(s * parity_free(r), axes=axes) * inv, s=grid.shape, axes=axes)
        return parity_free(s * x)

    return apply_inverse


def _pcg(apply_op, apply_minv, b: np.ndarray, grid: TorusGrid, rel_tol: float):
    """Preconditioned conjugate gradients in the node-mean inner product, ``_pcg_block``'s inner solve.

    The operator and the preconditioner (the Fourier surrogate) map
    zero-mean fields to zero-mean fields; starting from zero, every iterate
    stays in the subspace, where the operator is positive definite.  The
    preconditioner is applied at the top of an iteration, so the residual
    that meets ``rel_tol`` or the cap is never preconditioned.
    """
    x = np.zeros_like(b)
    r = b.copy()
    b2 = grid.inner(b, b)
    it = 0
    while it < _CG_MAX and grid.inner(r, r) > rel_tol**2 * b2:
        z = apply_minv(r)
        rz_new = grid.inner(r, z)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        Ap = apply_op(p)
        pAp = grid.inner(p, Ap)
        if pAp <= 0.0 or rz <= 0.0:
            break  # curvature lost to roundoff: keep the current iterate
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
    return grid.project_zero_mean(x), it


# -- public operations ---------------------------------------------------------


def _as_array(grid: TorusGrid, u) -> np.ndarray:
    """The values of a field u on ``grid``, or of a solve's u whose u and m both live on ``grid``."""
    if isinstance(u, SolveResult):
        if u.u.grid != grid or u.m.grid != grid:
            raise ValueError("result fields live on a different grid")
        u = u.u
    return ScalarField(grid, getattr(u, "values", u)).values


def evaluate_state(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> _State:
    """Evaluate the iterate u: derivatives, momenta H_p, f = u_t + H, J and m.

    u is a field, or a ``SolveResult`` whose u and m must both live on
    ``grid``.  The state reads the grid's cached, read-only table
    (``_grid_table``, checked before u and P), the one a solve on ``grid``
    read; certificates call this with the result and their own Hamiltonian
    and config, so a result paired with the wrong ones shows.
    """
    table, arr = _grid_table(ham, grid), _as_array(grid, u)
    return _State(grid, table, config, config.momentum(ham.d), arr)


def objective(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> tuple[float, ScalarField]:
    """Value of J at u together with the softmax density m (mean one)."""
    st = evaluate_state(ham, grid, config, u)
    return st.J, ScalarField(grid, st.m)


def gradient(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> ScalarField:
    """First variation of J: the discrete transport residual -(m_t + div(m H_p)).

    Exactly zero-mean, and mean(g*v) equals the directional derivative of J
    along v up to rounding, by skew-adjointness of the discrete derivative.
    """
    st = evaluate_state(ham, grid, config, u)
    return ScalarField(grid, -st.flux_divergence(st.m))


def linearized_el_apply(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u, v) -> ScalarField:
    """Apply the normalized linearized critical-point operator at u to v.

    The induced bilinear form B(v, w) = mean(w * apply(v)) is symmetric and
    positive semidefinite with B(v, v) = mean(m * (k*(v_t + H_p.grad v)^2
    + grad v . H_pp grad v)) / k; constants are its null space.  At critical
    points the form is the Hessian of J divided by k.
    """
    st = evaluate_state(ham, grid, config, u)
    coef = _newton_coefficients(grid, config.k, st.m, st.w)
    v = _as_array(grid, v)
    out = _operator_apply(coef, [grid.deriv(v, b) for b in range(len(coef))], grid.deriv) / config.k
    return ScalarField(grid, out)


def hbar_bounds(ham: MechanicalHamiltonian, grid: TorusGrid, P=None) -> tuple[float, float]:
    """Grid version of min_z min_p H <= hbar <= max_z H(z, P).

    With the momentum shift the solve targets the shifted Hamiltonian
    H(z, P + .), whose value at zero momentum is H(z, P); the pointwise
    minimum over p is V regardless of P.  The table is checked before P.
    """
    table = _grid_table(ham, grid)
    P = SolverConfig(k=1.0, P=P).momentum(ham.d)
    return float(np.min(table.V)), float(np.max(table.H(table.H_p(P))))


# -- Newton / continuation driver ----------------------------------------------


def _newton_stage(st: _State):
    """Damped Newton at the k of ``st.cfg`` from ``st``, the stage's zero-mean start: (state, grad_norm, iterations).

    The gradient is taken at the top of every iterate, the last included.
    A step is the map ``_step_solve(st.grid)`` applied to -g; where that map
    raises ``LinAlgError`` or gives a step whose slope inner(g, step) is not
    negative, the stage raises ``LineSearchError``.  Line-search trials are
    ``st.at`` the trial u.
    The loop stops at ``grad_tol``, after ``max_newton`` steps or after
    ``_STALL_LIMIT`` consecutive stalled steps, each of which neither lowers
    J beyond rounding nor halves the gradient norm.
    """
    grid, cfg = st.grid, st.cfg
    solve = _step_solve(grid)
    iterations = stalled = 0
    prev_grad_norm = math.inf
    while True:
        # r = -g, minus the gradient: every use below reads g through it,
        # with the bits of g (a negation is exact and sums round symmetrically)
        r = st.flux_divergence(st.m)
        grad_norm = grid.norm(r)
        if grad_norm <= cfg.grad_tol or iterations == cfg.max_newton or stalled >= _STALL_LIMIT:
            return st, grad_norm, iterations
        # Levenberg damping proportional to the gradient norm: bounds the
        # worst-conditioned directions in the global phase and vanishes near
        # the solution, so local quadratic convergence is untouched.
        mu = min(1.0, grad_norm)
        try:
            step = solve(st, mu)(r)  # the line search projects it
        except np.linalg.LinAlgError:  # a dense block exactly singular
            step = None
        # the slope inner(g, step); a NaN in the step reaches the sum
        slope = math.nan if step is None else -grid.inner(r, step)
        if not slope < 0.0:
            raise LineSearchError(f"the Newton step is not a descent direction (grad_norm={grad_norm:.3e})")
        alpha = 1.0
        # Armijo backtracking; the small additive floor absorbs rounding when
        # objective differences drop below representable resolution.
        floor = 1e-14 * (1.0 + abs(st.J))
        while True:
            trial = st.u + step if alpha == 1.0 else st.u + alpha * step  # 1.0 * step has the bits of step
            accepted = st.at(trial)
            if accepted.J <= st.J + 1e-4 * alpha * slope + floor:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                raise LineSearchError(
                    f"no descent along the Newton direction (grad_norm={grad_norm:.3e}); "
                    "the objective is convex, so this indicates an operator/gradient bug"
                )
        # stall: objective changes below representable resolution AND the
        # gradient no longer shrinking means the double-precision floor of
        # this configuration is reached (a plummeting gradient with flat J is
        # the healthy quadratic endgame and must not trigger this)
        no_descent = st.J - accepted.J <= floor
        no_grad_progress = grad_norm >= 0.5 * prev_grad_norm
        stalled = stalled + 1 if (no_descent and no_grad_progress) else 0
        prev_grad_norm = grad_norm
        st = accepted
        iterations += 1


def _solve_grid(ham: MechanicalHamiltonian, grid: TorusGrid) -> TorusGrid:
    """The grid the Newton loop runs on: one time plane for autonomous Hamiltonians.

    For an autonomous Hamiltonian J is convex and invariant under time
    shifts, so J(mean_t u) <= J(u) and the minimizer is constant in t
    (Evans, Calc. Var. PDE 17, 2003).  Such solves run on one plane,
    ``TorusGrid(d, n_x, 1)``; all others, and one-plane grids, on ``grid`` itself.
    """
    if grid.n_t == 1 or not _is_autonomous(ham):
        return grid
    return TorusGrid(grid.d, grid.n_x, 1)


def _on_solve_grid(plane: TorusGrid, grid: TorusGrid, x) -> np.ndarray:
    """The field x of ``grid`` moved to ``plane``, the ``_solve_grid`` of ``grid`` that the caller holds.

    x is a field, or a ``SolveResult`` (its u), as ``_as_array`` reads it.
    The move is v0 + mean_t(x - v0), v0 the first time plane of x: exactly
    v0 where x is constant in t, as a solve's u and m are, its time mean
    otherwise.
    """
    v = _as_array(grid, x)
    if plane is not grid:
        v = v[..., :1] + np.add.reduce(v - v[..., :1], -1, keepdims=True) / grid.n_t
    return v


def minimize(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    warm_start: SolveResult | ScalarField | np.ndarray | None = None,
) -> SolveResult:
    """Minimize J over zero-mean fields and return the full solve record.

    The solve is one list of Newton stages, each started from the last: the
    doubling ladder k = 2*k0, 4*k0, ... below ``config.k``, then
    ``config.k``.  A cold start climbs it from u = 0 with k0 = 2, so at
    ``config.k`` <= 4 it has no ladder.  A ``SolveResult`` warm start climbs
    it from that result's u with k0 = its k, and a field warm start is the
    one stage at ``config.k``.  Where J at a warm start exceeds J at u = 0,
    at the first stage's k, the solve starts cold instead, because such a
    start (a secant predictor that overshoots, say) can need more than
    ``max_newton`` steps.  A warm-started solve whose last stage stops at
    ``max_newton`` steps above ``grad_tol`` (Newton can wander from a far
    start at large k where the cold ladder converges) is solved again cold,
    and the result with the lower gradient norm is kept; its ``iterations``
    count both solves.  ``converged`` is grad_norm <= ``grad_tol`` at the
    end of the last stage, the only one at ``config.k``.  Autonomous solves
    run on one time plane (``_solve_grid``), whose table is checked before P
    and the warm start (it passes exactly where ``grid`` does), a warm start
    moved there by ``_on_solve_grid``, and return u and m repeated over the
    time axis of ``grid``.  Outside its Newton steps a warm-started solve
    evaluates the start's state, J at u = 0 for the guard, the gradient that
    ends each stage, and the result's rotation and Lipschitz norm.
    """
    plane = _solve_grid(ham, grid)
    table = _grid_table(ham, plane)
    P = config.momentum(ham.d)
    stages = [config]
    k0 = warm_start.k if isinstance(warm_start, SolveResult) else 2.0 if warm_start is None else config.k
    rung = 2.0 * k0
    while rung < config.k:
        stages.insert(-1, replace(config, k=rung))
        rung *= 2.0
    u = plane.zeros() if warm_start is None else plane.project_zero_mean(_on_solve_grid(plane, grid, warm_start))
    st = _State(plane, table, stages[0], P, u)
    # f at u = 0 has the bits _State gives it, and table.V gives it the plane's shape
    if warm_start is not None and st.J > _softmax(plane, stages[0].k, table.H(table.H_p(P)))[0]:
        return minimize(ham, grid, config)
    st, grad_norm, iters = _newton_stage(st)
    iterations = iters
    for cfg in stages[1:]:
        st, grad_norm, iters = _newton_stage(st.at(st.u, cfg))
        iterations += iters
    if warm_start is not None and iters == config.max_newton and grad_norm > config.grad_tol:
        cold = minimize(ham, grid, config)
        iterations += cold.iterations
        if cold.grad_norm < grad_norm:
            return replace(cold, iterations=iterations)
    u, m = (st.u, st.m) if plane is grid else (st.u.repeat(grid.n_t, axis=-1), st.m.repeat(grid.n_t, axis=-1))
    return SolveResult(
        u=ScalarField(grid, u),
        hbar=st.J,
        m=ScalarField(grid, m),
        # the node mean of m*H_p on the solve grid, the bits that mather_diagnostics gives
        rotation=np.array([plane.integrate(st.m * wi) for wi in st.w]),
        grad_norm=grad_norm,
        lip_norm=math.sqrt(np.maximum.reduce(st.grad_sq(), None)),
        iterations=iterations,
        converged=grad_norm <= config.grad_tol,
        k=config.k,
        P=P,
    )


def lipschitz_bound(chi: ChiParams) -> LipschitzCertificate:
    """Smallest K whose barrier integral reaches 2 from a = K*_A_RATIO, nudged up by 1e-10.

    With a = _A_RATIO*K, g(a) = 2 has a closed form for linear chi(s) = c*s + d0:
        c > 0:  K = (d0 + 1) * (e^c - 1) / (c * (1 - _A_RATIO*e^c))
        c = 0:  K = (d0 + 1) / (1 - _A_RATIO)
    Because a scales with K, no root exists once _A_RATIO*e^c >= 1, that is
    c >= log(1/_A_RATIO); a ValueError is raised there.
    """
    c, d0 = chi.c, chi.d0
    if c > 0:
        margin = 1.0 - _A_RATIO * math.exp(c) if c < -math.log(_A_RATIO) else 0.0
        if not margin > 0.0:
            raise ValueError(f"no Lipschitz certificate for c={c} at a_ratio={_A_RATIO}: needs c < log(1/a_ratio)")
        K = (d0 + 1.0) * math.expm1(c) / (c * margin)
    else:
        K = (d0 + 1.0) / (1.0 - _A_RATIO)
    K += 1e-10 * (1.0 + K)  # land on the >= 2 side of the root
    return LipschitzCertificate(K=K)
