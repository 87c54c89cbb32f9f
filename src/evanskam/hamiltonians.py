"""The mechanical Hamiltonian family and its calculus on the torus.

The family is H(x,t,p) = |p + eta(t)|^2/2 + V(x,t); eta has one
component per spatial axis and depends on time only, V lives on the full
space-time torus.  Both are finite Fourier series rather than callables so
a configuration serializes exactly and runs reproduce bit for bit.  A
config's weight "lambda" in [0,1] scales every coefficient of eta and V
when it is read (``hamiltonian_from_json``); the solver never sees it.

The drift of the equivalent nondivergence form is sublinear: |b(z,q)| is
bounded by a linear function chi(s) = c*s + d0 of |q|, and ``chi_bound``
produces verified (c, d0) for a concrete instance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .torus_grid import TorusGrid

__all__ = [
    "NyquistError",
    "ChiVerificationError",
    "FourierTerm",
    "FourierSpec",
    "MechanicalHamiltonian",
    "ChiParams",
    "HamiltonianTable",
    "drift_diffusion",
    "chi_bound",
    "check_nyquist",
    "hamiltonian_to_json",
    "hamiltonian_from_json",
]


class NyquistError(ValueError):
    """Fourier content at or above the Nyquist frequency of the target grid."""


class ChiVerificationError(RuntimeError):
    """A sampled drift value violated the fitted linear bound."""


@dataclass(frozen=True)
class FourierTerm:
    freq: tuple[int, ...]
    cos: float = 0.0
    sin: float = 0.0


@dataclass(frozen=True)
class FourierSpec:
    """A real trigonometric polynomial in ``nvars`` periodic variables.

    Evaluation is sum_j cos_j * cos(2*pi*k_j.z) + sin_j * sin(2*pi*k_j.z);
    the class is closed under partial differentiation.
    """

    nvars: int
    terms: tuple[FourierTerm, ...] = ()

    def __post_init__(self) -> None:
        for term in self.terms:
            if len(term.freq) != self.nvars:
                raise ValueError(
                    f"term frequency {term.freq} has arity {len(term.freq)}, expected {self.nvars}"
                )

    @staticmethod
    def build(nvars: int, terms: Iterable[tuple[Sequence[int], float, float]]) -> "FourierSpec":
        return FourierSpec(
            nvars, tuple(FourierTerm(tuple(int(f) for f in fr), float(c), float(s)) for fr, c, s in terms)
        )

    @staticmethod
    def zero(nvars: int) -> "FourierSpec":
        return FourierSpec(nvars, ())

    def is_zero(self) -> bool:
        return all(t.cos == 0.0 and t.sin == 0.0 for t in self.terms)

    def evaluate(self, *coords: np.ndarray) -> np.ndarray:
        if len(coords) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinate arrays, got {len(coords)}")
        out = np.zeros(np.broadcast(*coords).shape) if coords else np.zeros(())
        for term in self.terms:
            phase = 0.0
            for k, z in zip(term.freq, coords):
                if k:
                    phase = phase + (2.0 * np.pi * k) * z
            phase = np.asarray(phase) + np.zeros(out.shape)
            out = out + term.cos * np.cos(phase) + term.sin * np.sin(phase)
        return out

    def partial(self, axis: int) -> "FourierSpec":
        """Analytic partial derivative with respect to coordinate ``axis``."""
        if not 0 <= axis < self.nvars:
            raise ValueError(f"axis {axis} out of range for arity {self.nvars}")
        terms = []
        for t in self.terms:
            w = 2.0 * np.pi * t.freq[axis]
            if w != 0.0:
                terms.append(FourierTerm(t.freq, cos=w * t.sin, sin=-w * t.cos))
        return FourierSpec(self.nvars, tuple(terms))

    def max_abs_freq(self) -> tuple[int, ...]:
        """The largest |frequency| per axis over the terms with a nonzero coefficient, as ``depends_on`` reads them."""
        out = [0] * self.nvars
        for t in self.terms:
            if t.cos != 0.0 or t.sin != 0.0:
                for a, k in enumerate(t.freq):
                    out[a] = max(out[a], abs(k))
        return tuple(out)

    def depends_on(self, axis: int) -> bool:
        return any(t.freq[axis] != 0 and (t.cos != 0.0 or t.sin != 0.0) for t in self.terms)

    def to_json_obj(self) -> list:
        return [{"freq": list(t.freq), "cos": t.cos, "sin": t.sin} for t in self.terms]

    @staticmethod
    def from_json_obj(obj: list, nvars: int, what: str = "a Fourier series") -> "FourierSpec":
        """The series of a JSON list of terms {"freq": [nvars integers], "cos": c, "sin": s}.

        A value of the wrong shape, or a term with any other key, raises
        ValueError naming ``what``; a term without "freq" raises KeyError.
        """
        integers = "1 integer" if nvars == 1 else f"{nvars} integers"
        term = f'{{"freq": [{integers}], "cos": c, "sin": s}}'
        if not isinstance(obj, list):
            raise ValueError(f"{what} must be a list of terms {term}, got {obj!r}")
        terms = []
        for t in obj:
            if not isinstance(t, dict):
                raise ValueError(f"each term of {what} must be an object {term}, got {t!r}")
            _json_fields(t, ("freq", "cos", "sin"), f"{what} term")
            if not isinstance(t["freq"], list):
                raise ValueError(f"'freq' of a term of {what} must be a list of {integers}, got {t['freq']!r}")
            freq = [_json_integer(f, "a frequency") for f in t["freq"]]
            terms.append((freq, _finite_float(t.get("cos", 0.0), "cos"), _finite_float(t.get("sin", 0.0), "sin")))
        return FourierSpec.build(nvars, terms)


@dataclass(frozen=True)
class MechanicalHamiltonian:
    """H(x,t,p) = |p + eta(t)|^2/2 + V(x,t).

    Immutable.  The momentum Hessian is the identity, so the family is
    strictly convex and superlinear.
    """

    d: int
    eta: tuple[FourierSpec, ...]
    V: FourierSpec

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.d}")
        if len(self.eta) != self.d:
            raise ValueError(f"expected {self.d} eta components, got {len(self.eta)}")
        for spec in self.eta:
            if spec.nvars != 1:
                raise ValueError("eta components must be functions of time alone")
        if self.V.nvars != self.d + 1:
            raise ValueError(f"V must have arity d+1={self.d + 1}, got {self.V.nvars}")


@dataclass(frozen=True)
class ChiParams:
    """Linear drift bound chi(s) = c*s + d0 with c, d0 >= 0."""

    c: float
    d0: float

    def __post_init__(self) -> None:
        if self.c < 0 or self.d0 < 0:
            raise ValueError("chi parameters must be nonnegative")

    def __call__(self, s):
        return self.c * s + self.d0


class HamiltonianTable:
    """eta, eta', V, grad V and V_t at broadcastable coordinates, and the family's formulas on them.

    ``coords`` are d + 1 arrays, x_1..x_d then t: a grid's open mesh
    (``TorusGrid.coords()``), a stack of sample points, or the components of
    one point.  Momenta and velocities are lists of d components that
    broadcast against them.  The solver, the certificates, the ``check``
    battery, ``drift_diffusion`` and ``chi_bound`` all read H, L and the
    drift here.
    """

    def __init__(self, ham: MechanicalHamiltonian, coords: Sequence[np.ndarray]):
        t = coords[-1]
        self.d = ham.d
        self.eta = [spec.evaluate(t) for spec in ham.eta]
        self.eta_prime = [spec.partial(0).evaluate(t) for spec in ham.eta]
        self.V = ham.V.evaluate(*coords)
        self.gradV = [ham.V.partial(a).evaluate(*coords) for a in range(ham.d)]
        self.V_t = ham.V.partial(ham.d).evaluate(*coords)

    def H_p(self, p) -> list:
        """w = H_p(z, p) = p + eta, per axis."""
        return [p_i + eta_i for p_i, eta_i in zip(p, self.eta)]

    def H(self, w, start=None):
        """start + H = start + V + |w|^2/2 at w = H_p, summed in that order (start: u_t, or None for H)."""
        out = self.V if start is None else start + self.V
        for w_i in w:
            out = out + 0.5 * (w_i * w_i)
        return out

    def H_t(self, w):
        """H_t = V_t + w . eta' at w = H_p."""
        out = self.V_t
        for w_i, e_i in zip(w, self.eta_prime):
            out = out + w_i * e_i
        return out

    def drift(self, w, start=0.0):
        """start + b, b = H_t + H_x . H_p the drift at w = H_p, added term by term."""
        out = start + self.H_t(w)
        for g_i, w_i in zip(self.gradV, w):
            out = out + g_i * w_i
        return out

    def L(self, v):
        """L = |v|^2/2 - eta.v - V, the Legendre transform of H in p; L + H = p.v at v = H_p."""
        out = -self.V
        for v_i, e_i in zip(v, self.eta):
            out = out + 0.5 * (v_i * v_i) - e_i * v_i
        return out


def drift_diffusion(ham: MechanicalHamiltonian, k: float, z, q):
    """Coefficients of the nondivergence form of the critical-point equation.

    Returns ``(a_k, sigma, b)`` with a_k = sigma sigma^T exactly; for the
    mechanical family the momentum-space mixed Hessian vanishes, so the drift
    b = H_t + H_x . H_p carries no k dependence.
    """
    if not (_is_finite_number(k) and k > 0):
        raise ValueError(f"k must be a finite positive number, got {k}")
    d = ham.d
    table = HamiltonianTable(ham, np.asarray(z, dtype=float).reshape(ham.d + 1))
    w = np.array(table.H_p(np.asarray(q, dtype=float).reshape(d + 1)[:d]))
    a = np.zeros((d + 1, d + 1))
    a[:d, :d] = np.eye(d) / k + np.outer(w, w)
    a[:d, d] = a[d, :d] = w
    a[d, d] = 1.0
    sigma = np.zeros((d + 1, d + 1))
    sigma[:d, :d] = np.sqrt(1.0 / k) * np.eye(d)  # (H_pp/k)^(1/2) for identity H_pp
    sigma[:d, d] = w
    sigma[d, d] = 1.0
    return a, sigma, float(table.drift(w))


# Node budget of the refinement on which chi_bound takes its maxima, and the
# number of random momenta its spot-check draws.
_REFINE_BUDGET = 300_000
_CHI_SAMPLES = 64


def _refinement(grid: TorusGrid) -> TorusGrid:
    for factor in (8, 4, 2, 1):
        n_x = grid.n_x * factor
        n_t = grid.n_t * factor if grid.n_t > 1 else 1
        if n_x**grid.d * n_t <= _REFINE_BUDGET:
            return TorusGrid(grid.d, n_x, n_t)
    return grid


def chi_bound(ham: MechanicalHamiltonian, grid: TorusGrid, rng_seed: int = 0) -> ChiParams:
    """Fit and verify a linear bound |b(z,q)| <= c|q| + d0 for the drift.

    The maxima are taken on a dense refinement of ``grid`` (which contains the
    grid nodes).  Scaling (eta, V) by s in [0, 1] scales c by s and d0 by
    at most s, so the bound also covers the Hamiltonian of every s*(eta, V):

        c  = max(|eta'(t)| + |grad V(x,t)|),
        d0 = c * max|eta(t)| + max|V_t(x,t)|.

    The bound is then spot-checked on ``_CHI_SAMPLES`` random q with
    |q| <= 10*(1 + max|eta|) over the refined mesh; a violation raises
    :class:`ChiVerificationError` with the offending sample.
    """
    fine = _refinement(grid)
    coords = fine.coords()
    d = ham.d
    table = HamiltonianTable(ham, coords)

    abs_eta = np.sqrt(sum(e**2 for e in table.eta))
    abs_eta_p = np.sqrt(sum(e**2 for e in table.eta_prime))
    abs_gradV = np.sqrt(sum(g**2 for g in table.gradV))

    c = float(np.max(abs_eta_p + abs_gradV))
    max_eta = float(np.max(abs_eta))
    d0 = c * max_eta + float(np.max(np.abs(table.V_t)))
    params = ChiParams(c=c, d0=d0)

    q_max = 10.0 * (1.0 + max_eta)
    rng = np.random.default_rng(rng_seed)
    dirs = rng.normal(size=(_CHI_SAMPLES, d + 1))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    radii = rng.uniform(0.0, q_max, size=_CHI_SAMPLES)
    tol = 1e-9 * (1.0 + c + d0)
    for q_vec, r in zip(dirs, radii):
        q = r * q_vec
        b = table.drift(table.H_p(q[:d]))
        excess = np.abs(b) - (params(r) + tol)
        if np.any(excess > 0):
            idx = np.unravel_index(int(np.argmax(excess)), fine.shape)
            z = tuple(float(coords[a].ravel()[idx[a]]) for a in range(d + 1))
            raise ChiVerificationError(
                f"|b| = {float(np.abs(b)[idx])} exceeds chi(|q|) = {params(r)} at z={z}, q={q.tolist()}"
            )
    return params


def check_nyquist(ham: MechanicalHamiltonian, grid: TorusGrid) -> None:
    """Reject Hamiltonian Fourier content at or above the grid Nyquist limit."""
    if grid.d != ham.d:
        raise NyquistError(f"grid dimension {grid.d} does not match Hamiltonian d={ham.d}")
    for i, spec in enumerate(ham.eta):
        (kt,) = spec.max_abs_freq() or (0,)
        if 2 * kt >= grid.n_t:
            raise NyquistError(
                f"eta[{i}] has temporal frequency {kt}, at or above Nyquist for n_t={grid.n_t}"
            )
    freqs = ham.V.max_abs_freq()
    for axis, k in enumerate(freqs):
        n = grid.axis_size(axis)
        if 2 * k >= n:
            raise NyquistError(
                f"V has frequency {k} on axis {axis}, at or above Nyquist for n={n}"
            )


def hamiltonian_to_json(ham: MechanicalHamiltonian) -> dict:
    return {
        "d": ham.d,
        "eta": [spec.to_json_obj() for spec in ham.eta],
        "V": ham.V.to_json_obj(),
    }


def _is_finite_number(v) -> bool:
    """A finite real number that fits a float; booleans, which Python counts as integers, are not one."""
    if type(v) is float:  # the common case, without the abstract-class check
        return math.isfinite(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _finite_float(value, what: str) -> float:
    """A finite number (of a JSON config or ``SolverConfig``) as a float; strings, booleans and NaN raise ValueError."""
    if not _is_finite_number(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_integer(value, what: str) -> int:
    """An integral number (16 or 16.0, of a config or ``SolverConfig``) as an int; 16.7, strings and booleans raise ValueError."""
    if not (_is_finite_number(value) and float(value).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_fields(obj: dict, known: Iterable[str], what: str) -> None:
    """Raise ValueError naming every key of the JSON object ``obj`` outside ``known``: no typo is dropped silently."""
    unknown = set(obj) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def hamiltonian_from_json(obj: dict) -> MechanicalHamiltonian:
    """The Hamiltonian of a JSON object.

    The optional weight "lambda" in [0,1] (default 1) multiplies every cos
    and sin coefficient of eta and V; the result carries the scaled series.
    A non-finite, boolean or string number, a lambda outside [0,1], a
    field of the wrong shape or an unknown field raises ValueError naming
    the field; a missing field raises KeyError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f'the block must be an object with "d", "eta", "V" and "lambda", got {obj!r}')
    _json_fields(obj, ("d", "eta", "V", "lambda"), "hamiltonian")
    d = _json_integer(obj["d"], "d")
    eta_obj = obj.get("eta", [[]] * d)
    if not isinstance(eta_obj, list):
        raise ValueError(f"eta must be a list of {d} Fourier series in t (one list of terms per axis), got {eta_obj!r}")
    eta = tuple(FourierSpec.from_json_obj(comp, 1, f"eta[{i}]") for i, comp in enumerate(eta_obj))
    if len(eta) != d:
        raise ValueError(f"expected {d} eta components, got {len(eta)}")
    V = FourierSpec.from_json_obj(obj["V"], d + 1, "V")
    lam = _finite_float(obj.get("lambda", 1.0), "lambda")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0,1], got {lam}")

    def scaled(spec: FourierSpec) -> FourierSpec:
        return FourierSpec(spec.nvars, tuple(FourierTerm(t.freq, lam * t.cos, lam * t.sin) for t in spec.terms))

    return MechanicalHamiltonian(d=d, eta=tuple(map(scaled, eta)), V=scaled(V))
