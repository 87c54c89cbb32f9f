"""Shared fixtures: canonical Hamiltonians and independent oracles.

The flux oracle solves the one-dimensional autonomous critical-point
equation by a completely different route than the package solver: the
equation integrates to w * exp(k*(w^2/2 + V)) = C with constant flux C, so
w(x) follows from scalar Newton iterations per node and C from bisection on
the mean momentum constraint.  It provides reference values of hbar(P) and
its derivative without touching the variational machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq

from evanskam import FourierSpec, MechanicalHamiltonian, hamiltonian_from_json, hamiltonian_to_json


def trivial_hamiltonian() -> MechanicalHamiltonian:
    return MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=FourierSpec.zero(2))


def t1_hamiltonian() -> MechanicalHamiltonian:
    """eta = cos(2 pi t), V = 0: closed-form minimizer and hbar = P^2/2 + 1/4."""
    eta = FourierSpec.build(1, [((1,), 1.0, 0.0)])
    return MechanicalHamiltonian(d=1, eta=(eta,), V=FourierSpec.zero(2))


def pendulum_hamiltonian() -> MechanicalHamiltonian:
    """V = cos(2 pi x), eta = 0: the classical pendulum cell problem."""
    V = FourierSpec.build(2, [((1, 0), 1.0, 0.0)])
    return MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)


def mixed_hamiltonian() -> MechanicalHamiltonian:
    """Time-dependent potential plus drift: exercises every coefficient."""
    eta = FourierSpec.build(1, [((1,), 0.7, 0.0)])
    V = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((1, 1), 0.0, 0.25)])
    return MechanicalHamiltonian(d=1, eta=(eta,), V=V)


def mixed3_json(lam: float) -> dict:
    """A config's Hamiltonian block at weight lam: eta = 0.7 cos(2 pi t), and three terms in V,
    cos(2 pi x) + 0.25 sin(2 pi (x + t)) + 0.3 cos(2 pi (2x + t)).
    """
    return {
        "d": 1,
        "eta": [[{"freq": [1], "cos": 0.7, "sin": 0.0}]],
        "V": [
            {"freq": [1, 0], "cos": 1.0, "sin": 0.0},
            {"freq": [1, 1], "cos": 0.0, "sin": 0.25},
            {"freq": [2, 1], "cos": 0.3, "sin": 0.0},
        ],
        "lambda": lam,
    }


def scaled(ham: MechanicalHamiltonian, s: float) -> MechanicalHamiltonian:
    """The Hamiltonian of s*(eta, V), every coefficient multiplied by s."""

    def times(spec: FourierSpec) -> FourierSpec:
        return FourierSpec.build(spec.nvars, [(t.freq, s * t.cos, s * t.sin) for t in spec.terms])

    return MechanicalHamiltonian(d=ham.d, eta=tuple(map(times, ham.eta)), V=times(ham.V))


def weighted(ham: MechanicalHamiltonian, lam: float) -> MechanicalHamiltonian:
    """``ham`` read back from its JSON object with the weight "lambda": lam."""
    return hamiltonian_from_json({**hamiltonian_to_json(ham), "lambda": lam})


def separable_2d() -> MechanicalHamiltonian:
    """V = cos(2 pi x) + cos(2 pi y)/2, eta = 0: autonomous d = 2."""
    V = FourierSpec.build(3, [((1, 0, 0), 1.0, 0.0), ((0, 1, 0), 0.5, 0.0)])
    return MechanicalHamiltonian(d=2, eta=(FourierSpec.zero(1),) * 2, V=V)


def tc1_hamiltonian() -> MechanicalHamiltonian:
    """V = cos(2 pi x) + 0.3 sin(2 pi (x + t)), eta = cos(2 pi t)/2: time-coupled d = 1."""
    eta = FourierSpec.build(1, [((1,), 0.5, 0.0)])
    V = FourierSpec.build(2, [((1, 0), 1.0, 0.0), ((1, 1), 0.0, 0.3)])
    return MechanicalHamiltonian(d=1, eta=(eta,), V=V)


def tc2_hamiltonian() -> MechanicalHamiltonian:
    """V = cos(2 pi x) + cos(2 pi y)/2 + 0.3 sin(2 pi (x + t)), eta = (cos(2 pi t)/2, 0)."""
    eta = FourierSpec.build(1, [((1,), 0.5, 0.0)])
    V = FourierSpec.build(3, [((1, 0, 0), 1.0, 0.0), ((0, 1, 0), 0.5, 0.0), ((1, 0, 1), 0.0, 0.3)])
    return MechanicalHamiltonian(d=2, eta=(eta, FourierSpec.zero(1)), V=V)


def t1_minimizer(P: float, n_t: int) -> np.ndarray:
    """Zero-mean closed-form minimizer of the t1 case on an n_t time grid."""
    t = np.arange(n_t) / n_t
    u = -P * np.sin(2 * np.pi * t) / (2 * np.pi) - np.sin(4 * np.pi * t) / (16 * np.pi)
    return u - u.mean()


def assert_bitwise(a, b) -> None:
    """Same dtype, shape and bytes.

    Stricter than np.array_equal, which passes a flipped -0.0 and a changed
    NaN payload; either would change a written repr.
    """
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def flux_oracle_hbar(k: float, P: float, n: int = 4096) -> float:
    """Reference hbar(P) for the pendulum from the constant-flux equation."""
    x = (np.arange(n) + 0.5) / n
    V = np.cos(2 * np.pi * x)
    if P == 0.0:
        w = np.zeros(n)
    else:
        sign, Pa = np.sign(P), abs(P)

        def w_of_logC(logC: float) -> np.ndarray:
            w = np.full(n, 0.1)
            for _ in range(200):
                h = np.log(w) + k * w * w / 2 + k * V - logC
                step = h / (1.0 / w + k * w)
                w = np.maximum(w - step, w * 1e-3)
                if np.max(np.abs(step)) < 1e-14:
                    break
            return w

        # log C = log w + k*(w^2/2 + V) grows like k*hbar: the bracket grows with k
        bound = 60.0 + k * (Pa * Pa / 2 + 2.0)
        logC = brentq(lambda lc: float(np.mean(w_of_logC(lc))) - Pa, -bound, bound, xtol=1e-13)
        w = sign * w_of_logC(logC)
    f = 0.5 * w * w + V
    M = float(f.max())
    return M + float(np.log(np.mean(np.exp(k * (f - M))))) / k


def flux_oracle_dhbar(k: float, P: float, step: float = 1e-4) -> float:
    return (flux_oracle_hbar(k, P + step) - flux_oracle_hbar(k, P - step)) / (2 * step)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh generator per test: its draws do not depend on which tests ran before."""
    return np.random.default_rng(12345)
