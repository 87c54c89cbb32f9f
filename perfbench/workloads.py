"""The workloads: inputs from the seed, one timed pass, the correctness gate.

Each workload loads a different layer, so that a later change has one
workload that uses its mechanism and one that bypasses it:

* ``sweep-1d``  the criterion-6 duality sweep (64x8 pendulum, k=16,
  grad_tol=1e-11): 41 warm-started small solves, preconditioned-CG bound,
  per-call overhead dominates.
* ``cli-1d``    the CLI as users run it, one fresh interpreter per command:
  CG-light, import-bound, the only workload that writes files.

A pass returns the latency of each operation (one ``minimize`` call, or one
CLI process) and the raw outputs; ``gate`` judges those outputs outside the
timed region and returns one ``Outcome`` per operation.  An operation fails
when it ends unconverged, exits with a nonzero code, or fails the gate;
only the gate decides whether the outputs are correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from evanskam import (
    FourierSpec,
    MechanicalHamiltonian,
    SolverConfig,
    TorusGrid,
    cli_io,
    effective,
    evans_solver,
    read_field,
)

from oracles import classical_hbar, flux_oracle_hbar

HERE = Path(__file__).resolve().parent

SWEEP_HBAR_TOL = 5e-7  # tests/test_effective.py against the flux oracle
CONVEXITY_TOL = 1e-6  # criterion 6
FENCHEL_YOUNG_TOL = -1e-9  # criterion 6
DRIFT_HBAR_TOL = 1e-8  # tests/test_effective.py closed-form drift case
CLASSICAL_TOL = 1e-9


def seed_shift(seed: int) -> float:
    """Momentum offset 0.01*j with j = (seed + 4) mod 9 - 4; seed 0 gives 0."""
    return 0.01 * ((seed + 4) % 9 - 4)


@dataclass
class Outcome:
    """Verdict on one operation."""

    latency_s: float
    converged: bool
    correct: bool
    hbar_err: float | None = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return not (self.converged and self.correct)


def spanned(tracer, name, fn, *args, **kwargs):
    """Call ``fn`` inside a span when tracing, directly otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def pendulum() -> MechanicalHamiltonian:
    V = FourierSpec.build(2, [((1, 0), 1.0, 0.0)])
    return MechanicalHamiltonian(d=1, eta=(FourierSpec.zero(1),), V=V)


# -- sweep-1d ---------------------------------------------------------------


class Sweep1D:
    name = "sweep-1d"
    passes_at_45s = 4
    ops_per_pass = 41

    def __init__(self, seed: int, out: Path):
        self.ham = pendulum()
        self.grid = TorusGrid(1, 64, 8)
        self.config = SolverConfig(k=16.0, grad_tol=1e-11)
        base = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
        # Pass k sweeps the grid of seed + k.  Which flat-branch entries
        # stall at the CG cap changes erratically with the shift (CG work
        # spans 40k-60k preconditioner applies over the nine shifts), so one
        # run covers four consecutive shifts.  Counted in preconditioner
        # applies, the interquartile spread over ten seeds of a run's pass
        # work, median entry and tail entry then stays below 8%.  Pass 0 at
        # seed 0 is the criterion-6 sweep.
        self.P_sets = [base + seed_shift(seed + k) for k in range(4)]
        self.Q = np.round(np.arange(-1.6, 1.6001, 0.1), 10)

    def prepare(self) -> None:
        self.references = [[flux_oracle_hbar(16.0, float(p)) for p in P] for P in self.P_sets]

    def warm_up(self) -> None:
        """One untimed cold solve at the first entry of pass 0's grid."""
        P = (float(self.P_sets[0][0]),)
        evans_solver.minimize(self.ham, self.grid, SolverConfig(**{**self.config.__dict__, "P": P}))

    def run_pass(self, k: int = 0, tracer=None) -> dict:
        P = self.P_sets[k % len(self.P_sets)]
        latencies: list[float] = []
        solve = effective.minimize

        def timed(*args, **kwargs):
            t0 = perf_counter()
            res = solve(*args, **kwargs)
            latencies.append(perf_counter() - t0)
            return res

        effective.minimize = timed
        try:
            table = effective.sweep_P(self.ham, self.grid, 16.0, P, config=self.config)
        finally:
            effective.minimize = solve
        out = {"table": table, "latencies": latencies, "reference": self.references[k % len(self.P_sets)]}
        try:
            out.update(spanned(tracer, "effective.duality", self._duality, table))
        except effective.NonconvexTableError as exc:
            out["error"] = str(exc)
        return out

    def _duality(self, table) -> dict:
        conv = effective.convexity_check(table.hbar)
        leg = effective.legendre_transform(table, self.Q)
        effective.biconjugate(table)
        fy = table.hbar[None, :] + leg.lbar[:, None] - leg.Q_grid @ table.P_grid.T
        effective.rotation_consistency(table)
        return {"convexity": conv.max_violation, "fenchel_young": float(fy.min())}

    def gate(self, out: dict) -> list[Outcome]:
        table = out["table"]
        duality_ok = (
            "error" not in out
            and out["convexity"] <= CONVEXITY_TOL
            and out["fenchel_young"] >= FENCHEL_YOUNG_TOL
        )
        detail = "" if duality_ok else "duality certificate failed: " + out.get(
            "error", f"convexity violation {out['convexity']:.2e}, Fenchel-Young min {out['fenchel_young']:.2e}"
        )
        outcomes = []
        for i, lat in enumerate(out["latencies"]):
            err = abs(float(table.hbar[i]) - out["reference"][i])
            outcomes.append(Outcome(lat, bool(table.converged[i]), duality_ok and err <= SWEEP_HBAR_TOL, err, detail))
        return outcomes


# -- cli-1d -----------------------------------------------------------------


class Cli1D:
    name = "cli-1d"
    passes_at_45s = 4
    ops_per_pass = 6

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        limit_p2 = os.path.relpath(HERE / "pendulum_limit_p2.json")
        self.commands = [
            ["solve", "--config", "configs/pendulum_solve.json", "--out", str(out / "pendulum_solve")],
            ["solve", "--config", "configs/drift_solve.json", "--out", str(out / "drift_solve")],
            ["limit", "--config", "configs/pendulum_limit.json", "--out", str(out / "limit_p0")],
            ["limit", "--config", limit_p2, "--out", str(out / "limit_p2")],
            ["check", "--seed", str(seed)],
            ["oracle", "--config", "configs/pendulum_sweep.json"],
        ]
        # what each command parses before it computes
        self.run_configs = [cli_io.RunConfig(json.loads(Path(argv[2]).read_text())) for argv in self.commands if "--config" in argv]
        # the kernel costs use the workload's largest grid, the limit runs'
        self.ham, self.grid, self.config = pendulum(), TorusGrid(1, 128, 128), SolverConfig(k=16.0, P=(2.0,))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))

    def warm_up(self) -> None:
        """Nothing to do: a set-up probe imports the package in a fresh interpreter before each pass."""

    def prepare(self) -> None:
        ks = (4.0, 8.0, 16.0, 32.0, 64.0)
        self.reference = {
            "solve-pendulum": flux_oracle_hbar(16.0, 2.0),
            "limit-0": [flux_oracle_hbar(k, 0.0) for k in ks],
            "limit-2": [flux_oracle_hbar(k, 2.0) for k in ks],
            "classical-0": classical_hbar(0.0),
            "classical-2": classical_hbar(2.0),
        }

    def run_pass(self, k: int = 0, tracer=None, in_process: bool = False) -> dict:
        runs = []
        for argv in self.commands:
            if in_process:
                buf = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = spanned(tracer, "cli_io.main", cli_io.main, argv)
                runs.append((perf_counter() - t0, code, buf.getvalue()))
            else:
                t0 = perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "evanskam.cli_io", *argv],
                    env=self.env, capture_output=True, text=True, timeout=150,
                )
                runs.append((perf_counter() - t0, proc.returncode, proc.stdout))
        return {"runs": runs, "latencies": [r[0] for r in runs]}

    def gate(self, out: dict) -> list[Outcome]:
        checks = [self._solve_pendulum, self._solve_drift, self._limit_p0, self._limit_p2, self._check, self._oracle]
        outcomes = []
        for check, (lat, code, stdout) in zip(checks, out["runs"]):
            try:
                converged, correct, err, detail = check(stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                converged, correct, err, detail = True, False, None, f"unreadable output: {exc!r}"
            # exit 3 is non-convergence (its outputs are still judged); any
            # other nonzero exit is a failed command
            outcomes.append(Outcome(lat, converged and code in (0, 3), correct and code in (0, 3), err, f"exit {code}; {detail}"))
        return outcomes

    def _solved(self, name: str, config: str, expected: float):
        d = self.out / name
        meta = json.loads((d / "solve.json").read_text())
        resid = json.loads((d / "residuals.json").read_text())
        run = cli_io.RunConfig(json.loads(Path(config).read_text()))
        u, m = read_field(d / "u.field.csv"), read_field(d / "m.field.csv")
        # written fields must round-trip: re-evaluating J at the stored u
        # reproduces the stored hbar and m
        J, m_again = evans_solver.objective(run.ham, run.grid, run.solver, u)
        roundtrip = abs(J - meta["hbar"]) <= 1e-12 * (1 + abs(J)) and np.allclose(m_again.values, m.values, rtol=1e-12, atol=0)
        err = abs(meta["hbar"] - expected)
        certified = resid["transport_residual"] <= run.solver.grad_tol
        return meta["converged"] and certified, roundtrip, err, f"hbar={meta['hbar']!r} err={err:.2e}"

    def _solve_pendulum(self, stdout):
        conv, roundtrip, err, detail = self._solved("pendulum_solve", "configs/pendulum_solve.json", self.reference["solve-pendulum"])
        return conv, roundtrip and err <= SWEEP_HBAR_TOL, err, detail

    def _solve_drift(self, stdout):
        # eta = cos(2 pi t), V = 0: hbar = P^2/2 + 1/4 with P = 0
        conv, roundtrip, err, detail = self._solved("drift_solve", "configs/drift_solve.json", 0.25)
        return conv, roundtrip and err <= DRIFT_HBAR_TOL, err, detail

    def _limit(self, name: str, refs: list[float], classical: float):
        path = self.out / name / "ksweep.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        sidecar = json.loads(Path(str(path) + ".json").read_text())
        errs = [abs(float(r[1]) - ref) for r, ref in zip(rows, refs)]
        converged = len(rows) == len(refs) and all(r[6].strip() == "1" for r in rows)
        err = max(errs)
        ref_ok = abs(sidecar["hbar_ref"] - classical) <= CLASSICAL_TOL
        return converged, len(errs) == len(refs) and err <= SWEEP_HBAR_TOL and ref_ok, err, f"max err {err:.2e}"

    def _limit_p0(self, stdout):
        return self._limit("limit_p0", self.reference["limit-0"], self.reference["classical-0"])

    def _limit_p2(self, stdout):
        return self._limit("limit_p2", self.reference["limit-2"], self.reference["classical-2"])

    def _check(self, stdout):
        passed, total = stdout.strip().splitlines()[-1].split()[0].split("/")
        return True, passed == total, None, stdout.strip().splitlines()[-1]

    def _oracle(self, stdout):
        err = abs(float(stdout.strip()) - self.reference["classical-2"])
        return True, err <= CLASSICAL_TOL, err, f"value {stdout.strip()}"


WORKLOADS = {w.name: w for w in (Sweep1D, Cli1D)}
