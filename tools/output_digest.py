"""Fingerprint every user-visible output of a source tree, for bit-for-bit comparisons.

    python tools/output_digest.py TREE > digest.json

TREE is a checkout of this repository.  The script runs TREE's CLI in a
fresh interpreter per command, with BLAS pinned to one thread, inside a
temporary directory, and prints one JSON object:

- for ``solve`` on both solve configs, ``sweep``, ``limit`` on
  ``configs/pendulum_limit.json`` and ``perfbench/pendulum_limit_p2.json``,
  ``check --seed 0`` and ``oracle``: the exit code and the sha256 of stdout
  and of every file the command writes;
- for the criterion-6 sweep shifted by 0.01*j, j = -4..4, built as
  ``perfbench`` builds it (base grid plus the shift, not re-rounded): one
  sha256 over the 369 solve records (u, m, hbar, Q, grad_norm, iterations,
  converged; dtype, shape and bytes of each) and the unconverged P values.

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
    "limit-p0": ["limit", "--config", "configs/pendulum_limit.json", "--out", "out/limit-p0"],
    "limit-p2": ["limit", "--config", "perfbench/pendulum_limit_p2.json", "--out", "out/limit-p2"],
    "check": ["check", "--seed", "0"],
    "oracle": ["oracle", "--config", "configs/pendulum_sweep.json"],
}
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    digest = hashlib.sha256()
    for res in records:
        for value in (res.u.values, res.m.values, res.hbar, res.rotation, res.grad_norm, res.iterations, res.converged):
            arr = np.asarray(value)
            digest.update(f"{arr.dtype.str}{arr.shape}".encode())
            digest.update(arr.tobytes())
    return {
        "entries": len(records),
        "sha256": digest.hexdigest(),
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
    if argv[:1] == ["--criterion6"]:
        print(json.dumps(criterion6_entries()))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    entries = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--criterion6"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    report = {"commands": run_commands(tree, env), "criterion6": json.loads(entries.stdout)}
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
