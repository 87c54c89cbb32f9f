"""Time the derivative, state, apply and Newton-step kernels, a sweep entry and the criterion-6 sweep of source trees.

    python tools/bench_block_step.py NAME=TREE [NAME=TREE ...] [--rounds N] > BENCH_block_step.json

Each TREE is a checkout of this repository.  Every round runs one fresh
interpreter per tree, with BLAS pinned to one thread, and alternates the
order of the trees from round to round.  The child is this script
(``--child``) with TREE's ``src`` as PYTHONPATH, so every tree is timed by
one method, through the internal names it shares with this tree
(``_solve_grid``, ``_step_solve``, ``_newton_stage``, ``_assemble``,
``_newton_coefficients``, ``_operator_apply``).  A child imports TREE's
evanskam and reports loop minima: each number is the least, over
``LOOPS`` loops of about ``LOOP_S``, of the mean time of one call in the loop
(one sweep per loop for the criterion-6 sweep), so a slow phase of the
machine that spans a loop does not set the number:

- for each block case (64 to 1,024 nodes on one time plane of the
  pendulum, 512 and 1,024 space-time nodes of tc1 32x16 and 64x16):
  ``block_s``, the time of one damped Newton step's solve, the map that
  ``evans_solver._step_solve`` picks for the solve grid, built and applied
  to the negative gradient, and ``step``, that map's name (``flux``,
  ``dense`` or ``pcg``).  The map's name sets the split.  ``flux``
  (one-plane 1-d grids): ``matvec_s`` (its two ``np.dot`` matvecs with
  the antiderivative) and ``other_s`` (the rest: coefficients and O(n)
  work).  ``dense``: ``assemble_s`` (``_assemble``), ``lu_solve_s``
  (``np.linalg.solve``) and ``other_s`` (coefficients, equilibration,
  matrix products).  ``pcg``: ``operator_apply_s`` (``_operator_apply``)
  and ``other_s`` (the surrogate's set-up and applies, CG's vector work
  and the first derivatives of each direction, which ``_operator_apply``
  takes as its ``dv`` argument), with ``cg_iterations``, the iterations of
  the solve's ``_pcg`` call, and ``cg_iteration_s``, ``block_s`` over
  them, which set the solve's cost apart from its iteration count.  Each
  case also gives ``newton_step_s``, one whole step of ``_newton_stage``
  (gradient, inner solve, line search) from the same state, and a PCG
  case ``newton_step_cg_iterations``, the iterations of the ``_pcg`` call
  inside that step.  ``block_s`` runs at the case's damping mu, but the
  whole step runs at mu = min(1, grad_norm) with CG's forcing term set by
  that mu, so its inner solve is not the one ``block_s`` times and
  ``newton_step_s`` - ``block_s`` is not the step's overhead;
- for one sweep entry on each grid of ``ENTRY_SHAPES``: ``entry_s``, one
  ``minimize`` of the pendulum at k = 16, P = 1, ``grad_tol`` 1e-11,
  warm-started from the u of its own converged solve on that grid, so that
  it takes ``newton_steps`` = 0 Newton steps: the fixed cost of an entry
  outside its Newton steps.  On 64x8 the call moves the start to the solve
  plane and repeats the result back; on the 64x1 plane, where a sweep's
  chain runs its entries, it does neither;
- for the criterion-6 sweep (41 entries, pendulum 64x8, k = 16,
  ``grad_tol`` 1e-11): its wall time, its Newton steps, and the time per
  Newton step;
- for each grid of ``DERIV_SHAPES``: ``axis<a>_s``, one ``TorusGrid.deriv``
  call along each axis longer than one node;
- for each case of ``STATE_CASES`` (the pendulum on 64x8 and 128x128, the
  grids of perfbench's kernel costs): ``evaluate_state_s``, one
  ``evaluate_state`` call, and ``objective_s``, one ``objective`` call, at
  a smooth iterate; every certificate evaluates one such state;
- for each case of ``APPLY_CASES``: ``apply_s``, one ``_operator_apply``
  of the Newton coefficients at a smooth iterate to a random field, the
  field's first derivatives included.

The report gives, per tree and per number, the median over the rounds and
the range.  Under ``ratios``, for each tree after the first, it gives per
timed number (a key ending in ``_s``) the median over rounds of the ratio
of that tree's number to the first tree's in the same round: both children
of a round run back to back, so a slow phase of the machine that spans a
round moves both sides of its ratio.  Timings depend on the machine and
its load; compare trees only within one report.  The Hamiltonians are
``tools/output_digest.py``'s library cases.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from output_digest import ONE_THREAD, library_hamiltonians

# Timed loops per number, each of about LOOP_S seconds; the criterion-6
# sweep is timed once per loop.
LOOPS, LOOP_S = 7, 0.02
# name: (Hamiltonian, TorusGrid arguments (d, n_x, n_t), k, P, damping mu)
BLOCK_CASES = {
    "spacetime-512": ("tc1", (1, 32, 16), 8.0, 0.0, 1e-6),
    "spacetime-1024": ("tc1", (1, 64, 16), 8.0, 0.0, 1e-6),
    "plane-64": ("pendulum", (1, 64, 8), 16.0, 0.5, 1e-6),
    "plane-128": ("pendulum", (1, 128, 8), 16.0, 0.5, 1e-6),
    "plane-256": ("pendulum", (1, 256, 8), 16.0, 0.5, 1e-6),
    "plane-512": ("pendulum", (1, 512, 8), 16.0, 0.5, 1e-6),
    "plane-1024": ("pendulum", (1, 1024, 8), 16.0, 0.5, 1e-6),
}
# name: TorusGrid arguments (d, n_x, n_t) of a sweep entry
ENTRY_SHAPES = {"64x8": (1, 64, 8), "plane-64x1": (1, 64, 1)}
# name: TorusGrid arguments (d, n_x, n_t)
DERIV_SHAPES = {
    "64x1": (1, 64, 1),
    "128x1": (1, 128, 1),
    "256x1": (1, 256, 1),
    "16x16x8": (2, 16, 8),
    "12x12x12": (2, 12, 12),
    "64x64": (1, 64, 64),
    "32x32x16": (2, 32, 16),
    "128x128": (1, 128, 128),
}
# name: (Hamiltonian, TorusGrid arguments (d, n_x, n_t), k, P), here and in APPLY_CASES
STATE_CASES = {
    "pendulum-64x8": ("pendulum", (1, 64, 8), 16.0, (0.0,)),
    "pendulum-128x128": ("pendulum", (1, 128, 128), 16.0, (2.0,)),
}
APPLY_CASES = {
    "tc1-64x16": ("tc1", (1, 64, 16), 4.0, (0.0,)),
    "tc1-256x16": ("tc1", (1, 256, 16), 4.0, (0.0,)),
    "tc2-12x12x12": ("tc2", (2, 12, 12), 4.0, (0.5, 0.2)),
    "drift-64x64": ("t1", (1, 64, 64), 8.0, (0.3,)),
}


class PhaseClock:
    """Accumulates the time spent inside named callables while installed on their owners."""

    def __init__(self, targets: dict):
        self.targets = targets  # phase name: (owner, attribute)
        self.spent = dict.fromkeys(targets, 0.0)
        self.saved = {}

    def __enter__(self):
        from time import perf_counter

        for name, (owner, attr) in self.targets.items():
            original = getattr(owner, attr)
            self.saved[name] = original

            def timed(*args, _f=original, _name=name, **kwargs):
                start = perf_counter()
                try:
                    return _f(*args, **kwargs)
                finally:
                    self.spent[_name] += perf_counter() - start

            setattr(owner, attr, timed)
        return self

    def __exit__(self, *exc):
        for name, (owner, attr) in self.targets.items():
            setattr(owner, attr, self.saved[name])


def block_case(name: str) -> dict:
    from dataclasses import replace

    import numpy as np

    from evanskam import SolverConfig, TorusGrid, evans_solver

    ham_name, shape, k, P, mu = BLOCK_CASES[name]
    ham = library_hamiltonians()[ham_name]
    grid = evans_solver._solve_grid(ham, TorusGrid(*shape))
    cfg = SolverConfig(k=k, P=P)
    u = grid.project_zero_mean(0.3 * np.sin(2 * np.pi * (grid.coords()[0] + 0.25)) * np.ones(grid.shape))
    st = evans_solver.evaluate_state(ham, grid, cfg, u)
    g = evans_solver.gradient(ham, grid, cfg, u).values
    solve_map = evans_solver._step_solve(grid)
    step = solve_map.__name__.removeprefix("_").removesuffix("_block")
    phases = {
        "flux": {"matvec_s": (np, "dot")},
        "dense": {"assemble_s": (evans_solver, "_assemble"), "lu_solve_s": (np.linalg, "solve")},
        "pcg": {"operator_apply_s": (evans_solver, "_operator_apply")},
    }[step]
    loops = loop_times(lambda: solve_map(st, mu)(-g), phases)
    out = {"nodes": grid.n_nodes, "step": step, "block_s": min(t["total"] for t in loops)}
    for phase in phases:
        out[phase] = min(t[phase] for t in loops)
    out["other_s"] = min(t["total"] - sum(t[phase] for phase in phases) for t in loops)
    if step == "pcg":
        out["cg_iterations"] = pcg_iterations(evans_solver, lambda: solve_map(st, mu)(-g))
        out["cg_iteration_s"] = out["block_s"] / out["cg_iterations"]
    one_step = replace(cfg, max_newton=1)

    def newton_step():
        return evans_solver._newton_stage(st.at(u, one_step))

    out["newton_step_s"] = per_call_s(newton_step)
    if step == "pcg":
        out["newton_step_cg_iterations"] = pcg_iterations(evans_solver, newton_step)
    return out


def pcg_iterations(evans_solver, call) -> int:
    """The iterations of the ``evans_solver._pcg`` calls in one ``call()``, which every tree returns as ``(x, it)``."""
    pcg, counts = evans_solver._pcg, []

    def counting(*args, **kwargs):
        x, it = pcg(*args, **kwargs)
        counts.append(it)
        return x, it

    evans_solver._pcg = counting
    try:
        call()
    finally:
        evans_solver._pcg = pcg
    return sum(counts)


def entry_case(shape: tuple[int, int, int]) -> dict:
    from evanskam import SolverConfig, TorusGrid, evans_solver

    ham, grid = library_hamiltonians()["pendulum"], TorusGrid(*shape)
    cfg = SolverConfig(k=16.0, P=1.0, grad_tol=1e-11)
    u = evans_solver.minimize(ham, grid, cfg).u.values
    steps = evans_solver.minimize(ham, grid, cfg, warm_start=u).iterations
    return {"entry_s": per_call_s(lambda: evans_solver.minimize(ham, grid, cfg, warm_start=u)), "newton_steps": steps}


def criterion6_sweep() -> dict:
    from time import perf_counter

    import numpy as np

    from evanskam import SolverConfig, TorusGrid, effective

    ham, grid = library_hamiltonians()["pendulum"], TorusGrid(1, 64, 8)
    config = SolverConfig(k=16.0, grad_tol=1e-11)
    P_grid = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    solve, steps = effective.minimize, []

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps.append(res.iterations)
        return res

    effective.minimize = counting
    walls = []
    try:
        for _ in range(LOOPS):
            steps.clear()
            start = perf_counter()
            effective.sweep_P(ham, grid, 16.0, P_grid, config=config)
            walls.append(perf_counter() - start)
    finally:
        effective.minimize = solve
    wall = min(walls)
    return {"wall_s": wall, "newton_steps": sum(steps), "s_per_newton_step": wall / sum(steps)}


def loop_times(call, phases: dict | None = None) -> list[dict]:
    """Per loop of about ``LOOP_S``: the mean seconds of one call ("total") and of each ``PhaseClock`` phase in it."""
    from time import perf_counter

    start = perf_counter()
    call()
    number = max(1, int(LOOP_S / max(perf_counter() - start, 1e-7)))
    loops = []
    for _ in range(LOOPS):
        with PhaseClock(phases or {}) as clock:
            start = perf_counter()
            for _ in range(number):
                call()
            total = perf_counter() - start
        loops.append({"total": total / number, **{name: spent / number for name, spent in clock.spent.items()}})
    return loops


def per_call_s(call) -> float:
    """The least, over ``LOOPS`` loops, of the mean time of one call."""
    return min(t["total"] for t in loop_times(call))


def deriv_case(shape: tuple[int, int, int]) -> dict:
    import numpy as np

    from evanskam import TorusGrid

    grid = TorusGrid(*shape)
    u = np.random.default_rng(0).normal(size=grid.shape)
    return {
        f"axis{a}_s": per_call_s(lambda a=a: grid.deriv(u, a)) for a in range(grid.n_axes) if grid.shape[a] > 1
    }


def smooth_iterate(grid):
    import numpy as np

    x, t = grid.coords()[0], grid.coords()[-1]
    return grid.project_zero_mean(0.05 * np.sin(2 * np.pi * (x + t)) * np.ones(grid.shape))


def state_case(name: str) -> dict:
    from evanskam import SolverConfig, TorusGrid, evans_solver

    ham_name, shape, k, P = STATE_CASES[name]
    ham, grid, cfg = library_hamiltonians()[ham_name], TorusGrid(*shape), SolverConfig(k=k, P=P)
    u = smooth_iterate(grid)
    return {
        "nodes": grid.n_nodes,
        "evaluate_state_s": per_call_s(lambda: evans_solver.evaluate_state(ham, grid, cfg, u)),
        "objective_s": per_call_s(lambda: evans_solver.objective(ham, grid, cfg, u)),
    }


def apply_case(name: str) -> dict:
    import numpy as np

    from evanskam import SolverConfig, TorusGrid, evans_solver

    ham_name, shape, k, P = APPLY_CASES[name]
    grid, cfg = TorusGrid(*shape), SolverConfig(k=k, P=P)
    u = smooth_iterate(grid)
    st = evans_solver.evaluate_state(library_hamiltonians()[ham_name], grid, cfg, u)
    coef = evans_solver._newton_coefficients(grid, k, st.m, st.w)
    v = np.random.default_rng(0).normal(size=grid.shape)
    apply_s = per_call_s(
        lambda: evans_solver._operator_apply(coef, [grid.deriv(v, b) for b in range(len(coef))], grid.deriv)
    )
    return {"nodes": grid.n_nodes, "apply_s": apply_s}


def child() -> dict:
    rest = {
        "entry": {name: entry_case(shape) for name, shape in ENTRY_SHAPES.items()},
        "criterion6_sweep": criterion6_sweep(),
        "deriv": {name: deriv_case(shape) for name, shape in DERIV_SHAPES.items()},
        "state": {name: state_case(name) for name in STATE_CASES},
        "operator_apply": {name: apply_case(name) for name in APPLY_CASES},
    }
    # the blocks last, the case both trees take densely first: a tree's own
    # earlier megabyte-sized arrays make malloc serve later ones faster
    # (spacetime-512 read 9-12 ms after the dense plane cases, 15 ms alone)
    return {"blocks": {name: block_case(name) for name in BLOCK_CASES}, **rest}


def paired_ratios(runs: list[dict], base: list[dict]) -> dict:
    """Per timed number (key ending in ``_s``): the median over rounds of ``runs``' value over ``base``'s that round."""

    def merge(values: list, bases: list, key: str):
        if isinstance(values[0], dict):
            bases = [b if isinstance(b, dict) else {} for b in bases]
            merged = {k: merge([v[k] for v in values], [b.get(k) for b in bases], k) for k in values[0]}
            return {k: m for k, m in merged.items() if m not in (None, {})}
        if key.endswith("_s") and all(isinstance(x, float) and x > 0 for x in (*values, *bases)):
            return statistics.median(v / b for v, b in zip(values, bases))
        return None

    return merge(runs, base, "")


def summarize(runs: list[dict]) -> dict:
    """Median and range over the rounds of every number a child reports."""

    def merge(values: list):
        if isinstance(values[0], dict):
            return {key: merge([v[key] for v in values]) for key in values[0]}
        if all(v == values[0] for v in values):
            return values[0]
        return {"median": statistics.median(values), "min": min(values), "max": max(values)}

    return merge(runs)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child()))
        return 0
    rounds = 5
    if "--rounds" in argv:
        i = argv.index("--rounds")
        rounds = int(argv[i + 1])
        argv = argv[:i] + argv[i + 2 :]
    trees = dict(arg.split("=", 1) for arg in argv if "=" in arg)
    if not trees or len(trees) != len(argv) or rounds < 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    names = list(trees)
    runs = {name: [] for name in names}
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            tree = Path(trees[name]).resolve()
            env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child"],
                env=env, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"the run of {name} failed:\n{proc.stderr}", file=sys.stderr, end="")
                return 1
            runs[name].append(json.loads(proc.stdout))
    import numpy as np

    report = {
        "command": "python tools/bench_block_step.py " + " ".join(f"{n}=<tree>" for n in names) + f" --rounds {rounds}",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "rounds": rounds,
        **{name: summarize(runs[name]) for name in names},
        "ratios": {f"{name}/{names[0]}": paired_ratios(runs[name], runs[names[0]]) for name in names[1:]},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
