"""Minimization of the exponential cell-problem objective on the torus.

The objective is the log-stabilized exponential average

    J[u] = (1/k) * log mean( exp(k * (u_t + H(z, P + grad u))) )

over zero-mean fields u.  The log transform keeps every k <= 1e6 finite
(max subtraction inside) and makes the optimal value the effective constant
hbar directly; its softmax weights are the density m with unit mass.

Because the spectral derivative is exactly skew-adjoint in the node-mean
inner product, the discrete gradient of J is literally the discrete
transport residual -(m_t + div(m H_p)); driving the gradient norm below
grad_tol therefore certifies the discrete mean-field-game system at that
tolerance.

Newton steps use the positive-semidefinite linearized critical-point
operator (the Gauss-Newton choice: the softmax covariance rank-one term is
dropped, so the operator equals the true Hessian at critical points), solved
by conjugate gradients restricted to the zero-mean subspace; a homotopy in
the Hamiltonian weight lam, warm-started stage by stage from u = 0, reaches
stiff configurations, and an optional outer doubling continuation in k is
available for sharp runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .hamiltonians import ChiParams, MechanicalHamiltonian, check_nyquist
from .torus_grid import ScalarField, TorusGrid

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

DEFAULT_LAMBDA_SCHEDULE = (0.0, 0.25, 0.5, 0.75, 1.0)


class LineSearchError(RuntimeError):
    """Backtracking found a genuine increase along a Newton direction.

    The objective is convex and the search direction is a descent direction,
    so this signals a broken operator or gradient, not a hard problem.
    """


@dataclass(frozen=True)
class SolverConfig:
    """Controls for one minimization run.

    ``P`` is the constant momentum shift (one entry per spatial axis); the
    shift enters as grad u -> P + grad u, which keeps every iterate periodic.
    ``epsilon`` adds an optional Tikhonov term eps/2 * mean|Du|^2; the default
    0 solves the plain objective and results record whether it was needed.
    """

    k: float
    P: tuple[float, ...] | float | None = None
    grad_tol: float = 1e-9
    max_newton: int = 60
    lambda_schedule: tuple[float, ...] = DEFAULT_LAMBDA_SCHEDULE
    cg_tol: float = 1e-12
    cg_max: int = 500
    epsilon: float = 0.0
    method: str = "spectral"
    dealias: bool = False
    k_continuation: bool = False

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.grad_tol <= 0 or self.cg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1 or self.cg_max < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        sched = tuple(float(s) for s in self.lambda_schedule)
        if not sched or any(b <= a for a, b in zip(sched, sched[1:])) or sched[-1] != 1.0:
            raise ValueError("lambda_schedule must be strictly increasing in [0,1] and end at 1")
        if any(s < 0.0 for s in sched):
            raise ValueError("lambda_schedule entries must be nonnegative")
        object.__setattr__(self, "lambda_schedule", sched)
        if self.method not in ("spectral", "central4"):
            raise ValueError(f"unknown differentiation method {self.method!r}")

    def momentum(self, d: int) -> np.ndarray:
        if self.P is None:
            return np.zeros(d)
        P = np.atleast_1d(np.asarray(self.P, dtype=float))
        if P.shape != (d,):
            raise ValueError(f"P has shape {P.shape}, expected ({d},)")
        return P


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
    lam: float
    epsilon: float
    method: str

    def metadata(self) -> dict:
        return {
            "k": self.k,
            "P": [float(p) for p in self.P],
            "lambda": self.lam,
            "hbar": self.hbar,
            "grad_norm": self.grad_norm,
            "lip_norm": self.lip_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "epsilon": self.epsilon,
            "method": self.method,
        }


@dataclass(frozen=True)
class LipschitzCertificate:
    """A priori gradient bound K derived from the linear drift bound chi.

    K is the smallest value (up to bisection tolerance) such that
    g(a) = integral_a^K 2 du / (chi(u) + 1) reaches 2 with a = K * 1e-9;
    closed forms of g are used for linear chi.  Solutions of the
    critical-point equation satisfy max|Du| <= K in the continuum, so the
    certificate is a monitor for computed minimizers, not an assumption.
    """

    chi: ChiParams
    a: float
    K: float

    def __post_init__(self) -> None:
        if not self.K > self.a > 0:
            raise ValueError("certificate requires K > a > 0")

    def g(self, t: float) -> float:
        c, d0 = self.chi.c, self.chi.d0
        if c > 0:
            return (2.0 / c) * math.log((c * self.K + d0 + 1.0) / (c * t + d0 + 1.0))
        return 2.0 * (self.K - t) / (d0 + 1.0)

    def monitor(self, lip_norm: float, slack: float = 0.10) -> bool:
        """True when a computed gradient bound sits within the certified K."""
        return lip_norm <= self.K * (1.0 + slack)


# -- Hamiltonian data tabulated on a grid -------------------------------------


class _HamOnGrid:
    """lam-scaled eta, V and their derivatives broadcast over the grid."""

    def __init__(self, ham: MechanicalHamiltonian, grid: TorusGrid):
        coords = grid.coords()
        t = coords[-1]
        lam = ham.lam
        self.d = ham.d
        self.lam = lam
        self.eta = [lam * spec.evaluate(t) for spec in ham.eta]
        self.eta_prime = [lam * spec.partial(0).evaluate(t) for spec in ham.eta]
        self.V = lam * ham.V.evaluate(*coords)
        self.gradV = [lam * ham.V.partial(a).evaluate(*coords) for a in range(ham.d)]
        self.V_t = lam * ham.V.partial(ham.d).evaluate(*coords)


class _State:
    """Everything derived from one iterate u: derivatives, momenta, J, m.

    ``hog`` is the tabulated Hamiltonian the state was evaluated against.
    """

    __slots__ = ("hog", "u", "du", "ut", "w", "f", "J", "m")

    def __init__(self, grid: TorusGrid, hog: _HamOnGrid, cfg: SolverConfig, P: np.ndarray, u: np.ndarray):
        d = hog.d
        method = cfg.method
        self.hog = hog
        self.u = u
        self.du = [grid.deriv(u, a, method) for a in range(d)]
        self.ut = grid.deriv(u, d, method)
        self.w = [P[i] + self.du[i] + hog.eta[i] for i in range(d)]
        f = self.ut + hog.V
        for wi in self.w:
            f = f + 0.5 * wi**2
        self.f = np.asarray(np.broadcast_to(f, grid.shape))
        k = cfg.k
        fmax = float(np.max(self.f))
        # clamp at the smallest positive normal: keeps m strictly positive
        # even where exp underflows, at no visible cost to the mass
        weights = np.maximum(np.exp(k * (self.f - fmax)), np.finfo(float).tiny)
        Z = float(np.mean(weights))
        self.J = fmax + math.log(Z) / k
        if cfg.epsilon > 0.0:
            sq = self.ut**2
            for g in self.du:
                sq = sq + g**2
            self.J += 0.5 * cfg.epsilon * float(np.mean(sq))
        self.m = weights / Z


def _gradient_arrays(grid: TorusGrid, cfg: SolverConfig, st: _State) -> np.ndarray:
    d = len(st.w)
    method = cfg.method
    g = grid.deriv(st.m, d, method)
    for i in range(d):
        g = g + grid.deriv(st.m * st.w[i], i, method)
    g = -g
    if cfg.epsilon > 0.0:
        for a in range(d + 1):
            g = g - cfg.epsilon * grid.deriv(grid.deriv(st.u, a, method), a, method)
    return g


def _operator_apply(
    grid: TorusGrid,
    cfg: SolverConfig,
    st: _State,
    v: np.ndarray,
    hessian_scale: bool,
    with_epsilon: bool,
) -> np.ndarray:
    """Linearized critical-point operator at the iterate of ``st``.

    With ``hessian_scale`` the result is the Gauss-Newton Hessian of J
    (k times the normalized operator exposed publicly); its quadratic form is
    mean(m * (k*(v_t + H_p.grad v)^2 + |grad v|^2)) for the mechanical family.
    """
    d = len(st.w)
    k = cfg.k
    method = cfg.method
    dv = [grid.deriv(v, a, method) for a in range(d)]
    vt = grid.deriv(v, d, method)
    wv = vt.copy()
    for i in range(d):
        wv = wv + st.w[i] * dv[i]
    mwv = st.m * wv
    out = k * grid.deriv(mwv, d, method)
    for i in range(d):
        out = out + k * grid.deriv(mwv * st.w[i], i, method)
        out = out + grid.deriv(st.m * dv[i], i, method)  # H_pp = identity
    out = -out
    if with_epsilon and cfg.epsilon > 0.0:
        for a in range(d + 1):
            out = out - k * cfg.epsilon * grid.deriv(grid.deriv(v, a, method), a, method)
    if not hessian_scale:
        out = out / k
    return out


def _make_preconditioner(grid: TorusGrid, cfg: SolverConfig, st: "_State", mu: float):
    """Constant-coefficient surrogate of the Newton operator, inverted in Fourier.

    The quadratic form k*mean(m*(v_t + H_p.grad v)^2) + mean(m*|grad v|^2) is
    approximated by freezing m at its mean (one) and H_p at the rotation
    vector; the surrogate k*(k_t + wbar.k_x)^2 + |k_x|^2 + mu is diagonal in
    Fourier space and captures the transport anisotropy that otherwise
    throttles the inner solve.
    """
    d = len(st.w)
    k = cfg.k
    wbar = [grid.integrate(st.m * st.w[i]) for i in range(d)]
    mults = []
    for axis in range(d + 1):
        n = grid.axis_size(axis)
        freq = np.fft.rfftfreq(n, d=1.0 / n) if axis == d else np.fft.fftfreq(n, d=1.0 / n)
        shp = [1] * (d + 1)
        shp[axis] = freq.size
        mults.append(2.0 * np.pi * freq.reshape(shp))
    kt = mults[d]
    transport = kt + sum(wbar[i] * mults[i] for i in range(d))
    spatial = sum(mults[i] ** 2 for i in range(d))
    sym = k * transport**2 + spatial + mu
    if cfg.epsilon > 0.0:
        sym = sym + cfg.k * cfg.epsilon * (spatial + kt**2)
    sym = np.asarray(np.broadcast_to(sym, np.broadcast(*mults).shape)).copy()
    sym.flat[0] = 1.0  # DC bin is never excited (zero-mean subspace)
    inv = 1.0 / sym
    axes = tuple(range(d + 1))

    def apply_inverse(r: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv, s=grid.shape, axes=axes)

    return apply_inverse


def _pcg(apply_op, apply_minv, b: np.ndarray, grid: TorusGrid, rel_tol: float, max_iter: int):
    """Preconditioned conjugate gradients in the node-mean inner product.

    The operator and the preconditioner both map zero-mean fields to
    zero-mean fields; starting from zero, every iterate stays in the
    subspace, where the operator is positive definite.
    """
    x = np.zeros_like(b)
    r = b.copy()
    b2 = grid.inner(b, b)
    if b2 == 0.0:
        return x, 0
    z = apply_minv(r)
    p = z.copy()
    rz = grid.inner(r, z)
    it = 0
    while it < max_iter and grid.inner(r, r) > rel_tol**2 * b2:
        Ap = apply_op(p)
        pAp = grid.inner(p, Ap)
        if pAp <= 0.0 or rz <= 0.0:
            break  # curvature lost to roundoff: keep the current iterate
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = apply_minv(r)
        rz_new = grid.inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return grid.project_zero_mean(x), it


# -- public operations ---------------------------------------------------------


def _as_array(grid: TorusGrid, u) -> np.ndarray:
    arr = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
    arr = grid._check_values(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    return arr


def evaluate_state(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> _State:
    """Evaluate the iterate u: derivatives, momenta H_p, f = u_t + H, J and m.

    The one place outside the Newton loop that tabulates the Hamiltonian and
    assembles H_p = P + grad u + lam*eta; certificates call it with their own
    Hamiltonian and config, so a result paired with the wrong ones shows.
    """
    check_nyquist(ham, grid)
    arr = _as_array(grid, u)
    return _State(grid, _HamOnGrid(ham, grid), config, config.momentum(ham.d), arr)


def objective(
    ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u
) -> tuple[float, ScalarField]:
    """Value of J at u together with the softmax density m (mean one)."""
    st = evaluate_state(ham, grid, config, u)
    return st.J, ScalarField(grid, st.m)


def gradient(ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u) -> ScalarField:
    """First variation of J: the discrete transport residual -(m_t + div(m H_p)).

    Exactly zero-mean, and mean(g*v) equals the directional derivative of J
    along v up to rounding, by skew-adjointness of the discrete derivative.
    """
    st = evaluate_state(ham, grid, config, u)
    return ScalarField(grid, _gradient_arrays(grid, config, st))


def linearized_el_apply(
    ham: MechanicalHamiltonian, grid: TorusGrid, config: SolverConfig, u, v
) -> ScalarField:
    """Apply the normalized linearized critical-point operator at u to v.

    The induced bilinear form B(v, w) = mean(w * apply(v)) is symmetric and
    positive semidefinite with B(v, v) = mean(m * (k*(v_t + H_p.grad v)^2
    + grad v . H_pp grad v)) / k; constants are its null space.  At critical
    points the form is the Hessian of J divided by k.
    """
    st = evaluate_state(ham, grid, config, u)
    out = _operator_apply(grid, config, st, _as_array(grid, v), hessian_scale=False, with_epsilon=False)
    return ScalarField(grid, out)


def hbar_bounds(ham: MechanicalHamiltonian, grid: TorusGrid, P=None) -> tuple[float, float]:
    """Grid version of min_z min_p H <= hbar <= max_z H(z, P).

    With the momentum shift the solve targets the shifted Hamiltonian
    H(z, P + .), whose value at zero momentum is H(z, P); the pointwise
    minimum over p is lam*V regardless of P.  H(z, P) is f at u = 0.
    """
    cfg = SolverConfig(k=1.0, P=None if P is None else tuple(np.atleast_1d(P)))
    st = evaluate_state(ham, grid, cfg, grid.zeros())
    return float(np.min(st.hog.V)), float(np.max(st.f))


# -- Newton / continuation driver ----------------------------------------------


def _newton_stage(grid: TorusGrid, hog: _HamOnGrid, cfg: SolverConfig, P: np.ndarray, u0: np.ndarray):
    u = grid.project_zero_mean(u0)
    if cfg.dealias:
        u = grid.project_zero_mean(grid.dealias(u))
    st = _State(grid, hog, cfg, P, u)
    iterations = 0
    converged = False
    grad_norm = math.inf
    prev_grad_norm = math.inf
    stalled = 0
    for _ in range(cfg.max_newton):
        g = _gradient_arrays(grid, cfg, st)
        grad_norm = grid.norm(g)
        if grad_norm <= cfg.grad_tol:
            converged = True
            break
        # Levenberg damping proportional to the gradient norm: bounds the
        # worst-conditioned directions in the global phase and vanishes near
        # the solution, so local quadratic convergence is untouched.
        mu = min(1.0, grad_norm)
        apply_minv = _make_preconditioner(grid, cfg, st, mu)

        def apply_damped(v: np.ndarray) -> np.ndarray:
            return _operator_apply(grid, cfg, st, v, hessian_scale=True, with_epsilon=True) + mu * v

        forcing = max(cfg.cg_tol, min(0.1, math.sqrt(grad_norm)))
        step, _ = _pcg(apply_damped, apply_minv, -g, grid, forcing, cfg.cg_max)
        slope = grid.inner(g, step)
        if slope >= 0.0:  # roundoff produced a non-descent direction
            step = -g
            slope = -grad_norm**2
        alpha = 1.0
        accepted = None
        # Armijo backtracking; the small additive floor absorbs rounding when
        # objective differences drop below representable resolution.
        floor = 1e-14 * (1.0 + abs(st.J))
        while alpha >= 1e-12:
            u_try = grid.project_zero_mean(u + alpha * step)
            if cfg.dealias:
                u_try = grid.project_zero_mean(grid.dealias(u_try))
            st_try = _State(grid, hog, cfg, P, u_try)
            if st_try.J <= st.J + 1e-4 * alpha * slope + floor:
                accepted = (u_try, st_try)
                break
            alpha *= 0.5
        if accepted is None:
            raise LineSearchError(
                f"no descent along the Newton direction (grad_norm={grad_norm:.3e}); "
                "the objective is convex, so this indicates an operator/gradient bug"
            )
        # stall: objective changes below representable resolution AND the
        # gradient no longer shrinking means the double-precision floor of
        # this configuration is reached (a plummeting gradient with flat J is
        # the healthy quadratic endgame and must not trigger this)
        no_descent = st.J - accepted[1].J <= floor
        no_grad_progress = grad_norm >= 0.5 * prev_grad_norm
        stalled = stalled + 1 if (no_descent and no_grad_progress) else 0
        prev_grad_norm = grad_norm
        u, st = accepted
        iterations += 1
        if stalled >= 3:
            break
    if not converged and iterations > 0:
        g = _gradient_arrays(grid, cfg, st)
        grad_norm = grid.norm(g)
        converged = grad_norm <= cfg.grad_tol
    return u, st, grad_norm, iterations, converged


def _lip_norm(st: _State) -> float:
    sq = st.ut**2
    for g in st.du:
        sq = sq + g**2
    return float(np.sqrt(np.max(sq)))


def minimize(
    ham: MechanicalHamiltonian,
    grid: TorusGrid,
    config: SolverConfig,
    warm_start: ScalarField | np.ndarray | None = None,
) -> SolveResult:
    """Minimize J over zero-mean fields and return the full solve record.

    Cold starts run the homotopy in the Hamiltonian weight over
    ``config.lambda_schedule`` (u = 0 is the exact solution of the first,
    weightless stage); a warm start skips the homotopy and solves at the
    target weight directly.  With ``config.k_continuation`` the target k is
    reached by doubling from 4, warm-starting each solve.
    """
    check_nyquist(ham, grid)
    P = config.momentum(ham.d)

    if config.k_continuation and warm_start is None and config.k > 4.0:
        ks: list[float] = []
        kk = 4.0
        while kk < config.k:
            ks.append(kk)
            kk *= 2.0
        u_prev: ScalarField | None = None
        inner_iters = 0
        for kk in ks:
            res = minimize(ham, grid, replace(config, k=kk, k_continuation=False), warm_start=u_prev)
            u_prev = res.u
            inner_iters += res.iterations
        final = minimize(ham, grid, replace(config, k_continuation=False), warm_start=u_prev)
        final.iterations += inner_iters
        return final

    total_iterations = 0
    all_converged = True
    if warm_start is None:
        u = grid.zeros()
        for s in config.lambda_schedule:
            hog = _HamOnGrid(ham.with_lambda(s * ham.lam), grid)
            u, st, grad_norm, iters, conv = _newton_stage(grid, hog, config, P, u)
            total_iterations += iters
            all_converged = all_converged and conv
    else:
        u0 = _as_array(grid, warm_start)
        hog = _HamOnGrid(ham, grid)
        u, st, grad_norm, iters, conv = _newton_stage(grid, hog, config, P, u0)
        total_iterations += iters
        all_converged = conv

    return SolveResult(
        u=ScalarField(grid, u),
        hbar=st.J,
        m=ScalarField(grid, st.m),
        rotation=np.array([grid.integrate(st.m * wi) for wi in st.w]),
        grad_norm=grad_norm,
        lip_norm=_lip_norm(st),
        iterations=total_iterations,
        converged=all_converged,
        k=config.k,
        P=P,
        lam=ham.lam,
        epsilon=config.epsilon,
        method=config.method,
    )


def lipschitz_bound(chi: ChiParams, a_ratio: float = 1e-9) -> LipschitzCertificate:
    """Smallest K (to 1e-9) whose barrier integral reaches 2 from a = K*a_ratio.

    Closed forms for linear chi(s) = c*s + d0:
        c > 0:  g(a) = (2/c) * log((c*K + d0 + 1) / (c*a + d0 + 1))
        c = 0:  g(a) = 2*(K - a) / (d0 + 1)
    A linear chi always satisfies the divergence condition
    integral^inf ds/(chi(s)+1) = inf, so a root always exists.
    """
    c, d0 = chi.c, chi.d0

    def g_minus_two(K: float) -> float:
        a = a_ratio * K
        if c > 0:
            val = (2.0 / c) * math.log((c * K + d0 + 1.0) / (c * a + d0 + 1.0))
        else:
            val = 2.0 * (K - a) / (d0 + 1.0)
        return val - 2.0

    lo = 1e-12
    hi = 1.0
    while g_minus_two(hi) < 0.0:
        hi *= 2.0
    K = float(brentq(g_minus_two, lo, hi, xtol=1e-12, rtol=8.881784197001252e-16))
    K += 1e-10 * (1.0 + K)  # land on the >= 2 side of the root
    return LipschitzCertificate(chi=chi, a=a_ratio * K, K=K)
