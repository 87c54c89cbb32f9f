"""Per-call cost of the public kernels at a workload's grid.

Times ``TorusGrid.deriv``, ``objective``, ``gradient`` and
``linearized_el_apply`` on a seeded random zero-mean iterate.  The iterate
is band-limited (frequencies up to 3 per axis) with standard deviation 0.05,
the scale of the invariant battery's random fields, so the softmax density
stays O(1) and no arithmetic runs on subnormal numbers.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from evanskam import evans_solver


def smooth_field(grid, rng: np.random.Generator, max_freq: int = 3) -> np.ndarray:
    spec = np.fft.fftn(rng.standard_normal(grid.shape))
    for axis, n in enumerate(grid.shape):
        freq = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        shp = [1] * len(grid.shape)
        shp[axis] = n
        spec = spec * (freq <= max_freq).reshape(shp)
    field = np.real(np.fft.ifftn(spec))
    field = field - field.mean()
    return 0.05 * field / field.std()


def per_call_us(fn, batch_s: float = 0.01, batches: int = 15) -> float:
    """Median over batches of the mean per-call time, in microseconds."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def kernel_costs(ham, grid, config, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    u = smooth_field(grid, rng)
    v = smooth_field(grid, rng)
    return {
        "torus_grid.deriv.us": per_call_us(lambda: grid.deriv(u, 0)),
        "evans_solver.objective.us": per_call_us(lambda: evans_solver.objective(ham, grid, config, u)),
        "evans_solver.gradient.us": per_call_us(lambda: evans_solver.gradient(ham, grid, config, u)),
        "evans_solver.el_apply.us": per_call_us(lambda: evans_solver.linearized_el_apply(ham, grid, config, u, v)),
    }
