"""Reference values for the correctness gate, computed without the package solver.

The pendulum H = p^2/2 + cos(2 pi x) has two independent references:

* the constant-flux oracle for the exponential-average problem at finite k:
  the one-dimensional autonomous critical-point equation integrates to
  w * exp(k * (w^2/2 + V)) = C, so w(x) follows from scalar Newton
  iterations per node and C from bisection on the mean-momentum constraint
  (the construction of ``tests/conftest.py``, with a bracket wide enough for
  k = 64 at |P| = 2);
* the classical cell-problem value for k -> infinity: max V below the
  critical momentum, otherwise the E with mean sqrt(2 (E - V)) = |P|.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq


def _pendulum_nodes(n: int) -> np.ndarray:
    x = (np.arange(n) + 0.5) / n
    return np.cos(2 * np.pi * x)


def flux_oracle_hbar(k: float, P: float, n: int = 4096) -> float:
    """hbar_k(P) for the pendulum from the constant-flux equation."""
    V = _pendulum_nodes(n)
    if P == 0.0:
        w = np.zeros(n)
    else:
        Pa = abs(P)

        def w_of_logC(logC: float) -> np.ndarray:
            # log w + k w^2/2 = logC - k V is increasing in w > 0
            rhs = logC - k * V
            w = np.full(n, 0.1)
            for _ in range(400):
                h = np.log(w) + 0.5 * k * w * w - rhs
                step = h / (1.0 / w + k * w)
                w = np.maximum(w - step, w * 1e-3)
                if np.max(np.abs(step)) < 1e-14:
                    break
            return w

        lo = np.log(Pa) - k * (1.0 + 1.0) - 20.0
        hi = np.log(Pa) + k * (0.5 * Pa * Pa + 2.0) + 20.0
        logC = brentq(lambda lc: float(np.mean(w_of_logC(lc))) - Pa, lo, hi, xtol=1e-13)
        w = np.sign(P) * w_of_logC(logC)
    f = 0.5 * w * w + V
    M = float(f.max())
    return M + float(np.log(np.mean(np.exp(k * (f - M))))) / k


def classical_hbar(P: float, n: int = 20_000) -> float:
    """Sharp-limit value of the pendulum cell problem at momentum P."""
    V = _pendulum_nodes(n)
    v_max = 1.0

    def momentum(E: float) -> float:
        return float(np.mean(np.sqrt(2.0 * np.maximum(E - V, 0.0))))

    Pa = abs(P)
    if Pa <= momentum(v_max):
        return v_max
    return float(brentq(lambda E: momentum(E) - Pa, v_max, v_max + 0.5 * Pa * Pa + 1.0, xtol=1e-13))
