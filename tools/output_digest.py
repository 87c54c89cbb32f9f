"""Fingerprint every user-visible output of a source tree, for bit-for-bit comparisons.

    python tools/output_digest.py TREE > digest.json

TREE is a checkout of this repository.  The script runs TREE's CLI in a
fresh interpreter per command, with BLAS pinned to one thread, inside a
temporary directory, and prints one JSON object:

- for ``solve`` on both solve configs, ``sweep`` serial and with
  ``--jobs 2`` (two slices, each solved in a worker process), ``limit`` on
  ``configs/pendulum_limit.json`` and ``perfbench/pendulum_limit_p2.json``,
  ``check --seed 0``, ``check --seed 7`` and ``oracle``: the exit code and
  the sha256 of stdout and of every file the command writes (the second
  ``check`` seed shows a change in the battery's draw order);
- for the criterion-6 sweep shifted by 0.01*j, j = -4..4, built as
  ``perfbench`` builds it (base grid plus the shift, not re-rounded): one
  sha256 over the 369 solve records (u, m, hbar, Q, grad_norm, iterations,
  converged; dtype, shape and bytes of each), the total of their Newton
  iterations, so a change in step count shows as its own line, and the
  unconverged P values;
- for the library solves in ``LIBRARY_SOLVES``, cases that no config
  reaches (cold starts up a long k ladder, d = 2 grids, one of them a
  one-plane grid above 256 nodes, and a one-plane and two space-time grids
  above the dense-block cap, which run PCG, a one-plane
  1-d grid of 1,024 nodes, a ``max_newton`` cap, a Hamiltonian read from
  JSON with a "lambda" below 1, odd grid sizes on the flux, dense-block
  and PCG step paths, and PCG on grids with one odd and one even axis,
  either way round, one of them at k = 8, ``pcg-tc1-63x16-k8``, where the
  surrogate's coefficients move the Newton steps most): per solve, the
  sha256 of its record (the fields above plus lip_norm) with its
  iterations and converged flag,
  and one sha256 per certificate of the solve, so that each shows on its
  own: the ``mfg_residuals`` fields, ``holonomy_residual`` and
  ``aronsson_residual``;
- for the library sweeps in ``LIBRARY_SWEEPS`` (one at k = 256, where chained
  warm starts stop at ``max_newton`` and are solved again cold): one sha256
  over hbar, Q and every value of every record, and the total of the
  records' Newton iterations, so a change to that fallback shows as its
  own line;
- for the library k sweeps in ``LIBRARY_K_SWEEPS``, listed ks more than
  twice apart, so the doubling rungs between them run unreported (one
  time-coupled sweep, one autonomous sweep with odd ks): one sha256 per
  reported row over every value of its solve record (``SolveResult.metadata()``,
  in its order) and then every other field of the row, and the reference
  value.

Two trees produce identical output exactly when these results agree to the
bit, so ``diff`` of two digests is the whole comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = [
    "configs/pendulum_solve.json",
    "configs/drift_solve.json",
    "configs/pendulum_sweep.json",
    "configs/pendulum_limit.json",
    "perfbench/pendulum_limit_p2.json",
]
COMMANDS = {
    "solve-pendulum": ["solve", "--config", "configs/pendulum_solve.json", "--out", "out/solve-pendulum"],
    "solve-drift": ["solve", "--config", "configs/drift_solve.json", "--out", "out/solve-drift"],
    "sweep": ["sweep", "--config", "configs/pendulum_sweep.json", "--out", "out/sweep"],
    "sweep-jobs-2": ["sweep", "--config", "configs/pendulum_sweep.json", "--out", "out/sweep-jobs-2", "--jobs", "2"],
    "limit-p0": ["limit", "--config", "configs/pendulum_limit.json", "--out", "out/limit-p0"],
    "limit-p2": ["limit", "--config", "perfbench/pendulum_limit_p2.json", "--out", "out/limit-p2"],
    "check": ["check", "--seed", "0"],
    "check-seed-7": ["check", "--seed", "7"],
    "oracle": ["oracle", "--config", "configs/pendulum_sweep.json"],
}
CRITERION6_FIELDS = ("u", "m", "hbar", "rotation", "grad_norm", "iterations", "converged")
LIBRARY_FIELDS = (*CRITERION6_FIELDS[:5], "lip_norm", *CRITERION6_FIELDS[5:])
# name: (Hamiltonian, TorusGrid arguments (d, n_x, n_t), SolverConfig fields)
LIBRARY_SOLVES = {
    "ladder-pendulum": ("pendulum", (1, 64, 16), dict(k=64.0, P=(2.0,))),
    "ladder-tc1": ("tc1", (1, 16, 16), dict(k=64.0, P=(0.0,))),
    "ladder-tc1-k2048": ("tc1", (1, 16, 16), dict(k=2048.0, P=(0.0,))),
    "ladder-separable-2d": ("separable-2d", (2, 16, 4), dict(k=32.0, P=(0.3, 0.1))),
    # the cap stops earlier rungs short, yet the solve at the target k converges
    "ladder-capped-rungs": ("pendulum", (1, 64, 16), dict(k=64.0, P=(2.0,), max_newton=4)),
    "ladder-capped": ("tc1", (1, 16, 16), dict(k=64.0, P=(0.0,), max_newton=5)),
    "ladder-odd-k": ("pendulum", (1, 32, 8), dict(k=20.0, P=(1.0,))),
    "capped": ("pendulum", (1, 32, 32), dict(k=16.0, P=(2.0,), max_newton=1)),
    "separable-2d": ("separable-2d", (2, 16, 4), dict(k=16.0, P=(0.3, 0.1))),
    # one plane of 324 nodes: converges only with the dense block step
    "separable-2d-18": ("separable-2d", (2, 18, 4), dict(k=16.0, P=(0.3, 0.1))),
    # 1,728 space-time nodes: every Newton step runs PCG with the surrogate
    "pcg-tc2-12": ("tc2", (2, 12, 12), dict(k=4.0, P=(0.5, 0.2))),
    # one plane of 576 nodes, above the dense cap: every Newton step runs PCG
    "pcg-separable-24": ("separable-2d", (2, 24, 4), dict(k=4.0, P=(0.3, 0.1))),
    # 1,024 space-time nodes at k = 8, where m spans decades: PCG with the scaled surrogate
    "pcg-tc1-64x16-k8": ("tc1", (1, 64, 16), dict(k=8.0, P=(0.0,))),
    # an odd spatial and an even time axis at k = 8: the PCG case whose Newton steps hang most on
    # how the surrogate's coefficients are frozen
    "pcg-tc1-63x16-k8": ("tc1", (1, 63, 16), dict(k=8.0, P=(0.0,))),
    # one plane of 1,024 nodes, above the dense cap: the flux step
    "pendulum-1024": ("pendulum", (1, 1024, 1), dict(k=16.0, P=(0.5,))),
    # a config's weight "lambda" = 0.75 on a time-coupled three-term potential
    "mixed-lambda-0.75": ("mixed-lambda-0.75", (1, 16, 16), dict(k=8.0, P=(0.5,))),
    # odd sizes, where D's only null mode is the constant: the flux step, the dense block and PCG
    "odd-pendulum-33x1": ("pendulum", (1, 33, 1), dict(k=16.0, P=(2.0,))),
    "odd-tc1-33x15": ("tc1", (1, 33, 15), dict(k=16.0, P=(0.0,))),
    "odd-t1-33x33": ("t1", (1, 33, 33), dict(k=8.0, P=(0.3,))),
    # one odd and one even axis, where D's null modes are the constant and one sign field: PCG
    "pcg-tc1-33x32-k4": ("tc1", (1, 33, 32), dict(k=4.0, P=(0.0,))),
    "pcg-t1-32x33-k8": ("t1", (1, 32, 33), dict(k=8.0, P=(0.3,))),
}
# name: (Hamiltonian, TorusGrid arguments (d, n_x, n_t), k, P grid as numpy.linspace arguments)
LIBRARY_SWEEPS = {
    "sweep-pendulum-128-k256": ("pendulum", (1, 128, 1), 256.0, (-2.0, 2.0, 41)),
}
# name: (Hamiltonian, TorusGrid arguments (d, n_x, n_t), P, k list)
LIBRARY_K_SWEEPS = {
    "ksweep-tc1": ("tc1", (1, 16, 16), (0.0,), [8, 128]),
    "ksweep-pendulum-odd-k": ("pendulum", (1, 64, 16), (2.0,), [5, 40, 100]),
}
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def value_digest(values) -> str:
    """sha256 over the dtype, shape and bytes of every value (a field's values for a ScalarField)."""
    import numpy as np

    digest = hashlib.sha256()
    for value in values:
        arr = np.asarray(getattr(value, "values", value))
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def record_digest(results, fields: tuple[str, ...]) -> str:
    """sha256 over the dtype, shape and bytes of the named fields of every result."""
    return value_digest(getattr(res, name) for res in results for name in fields)


def library_hamiltonians() -> dict:
    """The Hamiltonians of the library cases, built with the importable evanskam."""
    from evanskam import FourierSpec, MechanicalHamiltonian, hamiltonian_from_json

    zero_eta, pendulum = (FourierSpec.zero(1),), ((1, 0), 1.0, 0.0)
    return {
        "pendulum": MechanicalHamiltonian(d=1, eta=zero_eta, V=FourierSpec.build(2, [pendulum])),
        # eta = cos(2 pi t): hbar = P^2/2 + 1/4 in closed form
        "t1": MechanicalHamiltonian(d=1, eta=(FourierSpec.build(1, [((1,), 1.0, 0.0)]),), V=FourierSpec.zero(2)),
        # V = cos(2 pi x) + 0.3 sin(2 pi (x + t)), eta = cos(2 pi t)/2: time-coupled
        "tc1": MechanicalHamiltonian(
            d=1, eta=(FourierSpec.build(1, [((1,), 0.5, 0.0)]),), V=FourierSpec.build(2, [pendulum, ((1, 1), 0.0, 0.3)])
        ),
        # V = cos(2 pi x) + cos(2 pi y)/2 + 0.3 sin(2 pi (x + t)), eta = (cos(2 pi t)/2, 0)
        "tc2": MechanicalHamiltonian(
            d=2,
            eta=(FourierSpec.build(1, [((1,), 0.5, 0.0)]), FourierSpec.zero(1)),
            V=FourierSpec.build(3, [((1, 0, 0), 1.0, 0.0), ((0, 1, 0), 0.5, 0.0), ((1, 0, 1), 0.0, 0.3)]),
        ),
        "separable-2d": MechanicalHamiltonian(
            d=2, eta=zero_eta * 2, V=FourierSpec.build(3, [((1, 0, 0), 1.0, 0.0), ((0, 1, 0), 0.5, 0.0)])
        ),
        # 0.75 * (eta = 0.7 cos(2 pi t), V = cos(2 pi x) + 0.25 sin(2 pi (x + t)) + 0.3 cos(2 pi (2x + t))),
        # read as a config block is read
        "mixed-lambda-0.75": hamiltonian_from_json({
            "d": 1,
            "eta": [[{"freq": [1], "cos": 0.7, "sin": 0.0}]],
            "V": [
                {"freq": [1, 0], "cos": 1.0, "sin": 0.0},
                {"freq": [1, 1], "cos": 0.0, "sin": 0.25},
                {"freq": [2, 1], "cos": 0.3, "sin": 0.0},
            ],
            "lambda": 0.75,
        }),
    }


def library_solves() -> dict:
    """Solve every case of ``LIBRARY_SOLVES`` with the importable evanskam, and certify each solve."""
    from dataclasses import astuple

    from evanskam import SolverConfig, TorusGrid, minimize
    from evanskam.mather_limits import aronsson_residual, holonomy_residual
    from evanskam.mfg_diagnostics import mfg_residuals

    hams = library_hamiltonians()
    out = {}
    for name, (ham_name, shape, options) in LIBRARY_SOLVES.items():
        ham, grid, config = hams[ham_name], TorusGrid(*shape), SolverConfig(**options)
        try:
            res = minimize(ham, grid, config)
        except Exception:
            print(f"library solve {name!r} failed:", file=sys.stderr)
            raise
        out[name] = {
            "sha256": record_digest([res], LIBRARY_FIELDS),
            "iterations": res.iterations,
            "converged": res.converged,
            "mfg_residuals": value_digest(astuple(mfg_residuals(ham, grid, config, res))),
            "holonomy_residual": value_digest([holonomy_residual(ham, grid, config, res)]),
            "aronsson_residual": value_digest([aronsson_residual(ham, grid, config, res.u)]),
        }
    return out


def library_sweeps() -> dict:
    """Run every case of ``LIBRARY_SWEEPS`` with the importable evanskam; digest each table."""
    import numpy as np

    from evanskam import TorusGrid
    from evanskam.effective import sweep_P

    hams = library_hamiltonians()
    out = {}
    for name, (ham_name, shape, k, span) in LIBRARY_SWEEPS.items():
        tab = sweep_P(hams[ham_name], TorusGrid(*shape), k, np.linspace(*span))
        out[name] = {
            "sha256": value_digest([tab.hbar, tab.Q, *(v for rec in tab.records for v in rec.values())]),
            "newton_iterations": sum(rec["iterations"] for rec in tab.records),
        }
    return out


def library_k_sweeps() -> dict:
    """Run every case of ``LIBRARY_K_SWEEPS`` with the importable evanskam; digest each reported row."""
    from dataclasses import fields

    from evanskam import TorusGrid
    from evanskam.mather_limits import k_sweep

    def row_values(row):
        return [*row.record.values(), *(getattr(row, f.name) for f in fields(row) if f.name != "record")]

    hams = library_hamiltonians()
    out = {}
    for name, (ham_name, shape, P, ks) in LIBRARY_K_SWEEPS.items():
        rep = k_sweep(hams[ham_name], TorusGrid(*shape), P, ks)
        out[name] = {"rows": [value_digest(row_values(row)) for row in rep.rows], "hbar_ref": rep.hbar_ref}
    return out


def criterion6_entries() -> dict:
    """Solve the nine shifted criterion-6 sweeps with the importable evanskam; digest every record."""
    import numpy as np

    from evanskam import FourierSpec, MechanicalHamiltonian, SolverConfig, TorusGrid, effective

    ham = MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=FourierSpec.build(2, [((1, 0), 1.0, 0.0)]))
    grid, config = TorusGrid(1, 64, 8), SolverConfig(k=16.0, grad_tol=1e-11)
    base = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    records = []
    solve = effective.minimize

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        records.append(res)
        return res

    effective.minimize = recording
    try:
        for j in range(-4, 5):
            effective.sweep_P(ham, grid, 16.0, base + 0.01 * j, config=config)
    finally:
        effective.minimize = solve
    return {
        "entries": len(records),
        "sha256": record_digest(records, CRITERION6_FIELDS),
        "newton_iterations": sum(res.iterations for res in records),
        "unconverged_P": [round(float(res.P[0]), 10) for res in records if not res.converged],
    }


def run_commands(tree: Path, env: dict) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for rel in CONFIGS:
            (work / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(tree / rel, work / rel)
        for name, argv in COMMANDS.items():
            proc = subprocess.run(
                [sys.executable, "-m", "evanskam.cli_io", *argv], cwd=work, env=env, capture_output=True, timeout=600
            )
            files = {}
            if "--out" in argv:
                root = work / argv[argv.index("--out") + 1]
                files = {str(p.relative_to(root)): sha256(p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()}
            out[name] = {"exit": proc.returncode, "stdout": sha256(proc.stdout), "files": files}
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--records"]:
        print(json.dumps(
            {"criterion6": criterion6_entries(), "library": library_solves(), "sweeps": library_sweeps(),
             "k_sweeps": library_k_sweeps()}
        ))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    entries = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--records"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if entries.returncode != 0:
        print(f"the solves of {tree} failed:\n{entries.stderr}", file=sys.stderr, end="")
        return 1
    report = {"commands": run_commands(tree, env), **json.loads(entries.stdout)}
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
