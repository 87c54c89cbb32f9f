"""Command-line surface: config parsing, run persistence, batch orchestration.

Subcommands: solve, sweep, limit, check, oracle.  Exit codes are scriptable:
0 success, 1 invariant failure, 2 configuration error, 3 non-convergence.
Outputs are deterministic: identical configs produce bit-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .battery import run_battery
from .effective import legendre_transform, sweep_P, write_effective_csv, write_legendre_csv
from .evans_solver import SolverConfig, minimize
from .hamiltonians import NyquistError, check_nyquist, hamiltonian_from_json
from .mather_limits import classical_reference, k_sweep, write_ksweep_csv
from .mfg_diagnostics import mfg_residuals
from .torus_grid import GridError, TorusGrid, write_field

__all__ = ["ConfigError", "RunConfig", "main", "cmd_solve", "cmd_sweep", "cmd_limit", "cmd_check", "cmd_oracle"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _numeric(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{what} must be numeric: {exc}") from exc


class RunConfig:
    """Validated view of a JSON run configuration."""

    def __init__(self, raw: dict, out_override: str | None = None, method_override: str | None = None):
        if not isinstance(raw, dict):
            raise ConfigError("top-level configuration must be a JSON object")
        self.raw = raw
        try:
            self.ham = hamiltonian_from_json(raw["hamiltonian"])
        except KeyError as exc:
            raise ConfigError(f"missing required block {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid hamiltonian block: {exc}") from exc

        grid_block = raw.get("grid")
        if not isinstance(grid_block, dict):
            raise ConfigError("missing required block 'grid'")
        try:
            self.grid = TorusGrid(
                d=int(grid_block["d"]),
                n_x=int(grid_block["n_x"]),
                n_t=int(grid_block["n_t"]),
            )
        except KeyError as exc:
            raise ConfigError(f"grid block missing field {exc}") from exc
        except (GridError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid grid block: {exc}") from exc

        solver_block = dict(self.block("solver", required=False))
        if "k" not in solver_block:
            raise ConfigError("solver block must set k")
        if method_override is not None:
            solver_block["method"] = method_override
        known = set(SolverConfig.__dataclass_fields__)
        unknown = set(solver_block) - known
        if unknown:
            raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
        try:
            if "P" in solver_block and solver_block["P"] is not None:
                solver_block["P"] = tuple(np.atleast_1d(solver_block["P"]))
            if "lambda_schedule" in solver_block:
                solver_block["lambda_schedule"] = tuple(solver_block["lambda_schedule"])
            self.solver = SolverConfig(**solver_block)
            self.solver.momentum(self.ham.d)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid solver block: {exc}") from exc

        try:
            check_nyquist(self.ham, self.grid)
        except NyquistError as exc:
            raise ConfigError(str(exc)) from exc

        out_block = self.block("output", required=False)
        self.out_dir = Path(out_override) if out_override else Path(out_block.get("dir", "."))
        self.field_format = out_block.get("field_format", "csv")
        if self.field_format not in ("csv", "binary"):
            raise ConfigError(f"unknown field_format {self.field_format!r}")

    def block(self, name: str, required: bool = True) -> dict:
        if name not in self.raw:
            if required:
                raise ConfigError(f"missing required block {name!r}")
            return {}
        blk = self.raw[name]
        if not isinstance(blk, dict):
            raise ConfigError(f"block {name!r} must be a JSON object")
        return blk

    def ensure_out_dir(self) -> Path:
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            probe = self.out_dir / ".write-probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            raise ConfigError(f"output directory {self.out_dir} is not writable: {exc}") from exc
        return self.out_dir


def _load_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError("--config PATH is required for this command")
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(raw, out_override=args.out, method_override=args.method)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _field_ext(fmt: str) -> str:
    return "csv" if fmt == "csv" else "bin"


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = cfg.ensure_out_dir()
    result = minimize(cfg.ham, cfg.grid, cfg.solver)
    report = mfg_residuals(cfg.ham, cfg.grid, cfg.solver, result)
    _write_json(out / "solve.json", result.metadata())
    _write_json(out / "residuals.json", report.to_json_dict())
    ext = _field_ext(cfg.field_format)
    write_field(out / f"u.field.{ext}", result.u, cfg.field_format)
    write_field(out / f"m.field.{ext}", result.m, cfg.field_format)
    if not result.converged:
        print(f"solve did not converge: grad_norm={result.grad_norm:.3e}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = cfg.ensure_out_dir()
    block = cfg.block("sweep")
    if "P_grid" not in block:
        raise ConfigError("sweep block must set P_grid")
    P_grid = _numeric(block["P_grid"], "sweep.P_grid")
    table = sweep_P(cfg.ham, cfg.grid, cfg.solver.k, P_grid, config=cfg.solver, jobs=max(1, args.jobs))
    sidecar = {
        "grid": {"d": cfg.grid.d, "n_x": cfg.grid.n_x, "n_t": cfg.grid.n_t},
        "solver": {k: v for k, v in cfg.solver.__dict__.items() if k != "P"},
    }
    write_effective_csv(table, out / "effective_table.csv", sidecar=sidecar)
    if "Q_grid" in block:
        leg = legendre_transform(table, _numeric(block["Q_grid"], "sweep.Q_grid"))
        write_legendre_csv(leg, out / "legendre_table.csv")
    if not bool(np.all(table.converged)):
        bad = np.flatnonzero(~table.converged).tolist()
        print(f"sweep entries did not converge: {bad}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_limit(args) -> int:
    cfg = _load_config(args)
    out = cfg.ensure_out_dir()
    block = cfg.block("limit")
    if "k_list" not in block:
        raise ConfigError("limit block must set k_list")
    k_list = _numeric(block["k_list"], "limit.k_list")
    if k_list.ndim != 1 or k_list.size == 0 or not (k_list[0] > 0 and np.all(np.diff(k_list) > 0)):
        raise ConfigError("limit.k_list must be a nonempty, positive, strictly increasing list")
    P = np.atleast_1d(_numeric(block.get("P", [0.0] * cfg.ham.d), "limit.P"))
    if P.shape != (cfg.ham.d,):
        raise ConfigError(f"limit.P has shape {P.shape}, expected ({cfg.ham.d},)")
    report = k_sweep(cfg.ham, cfg.grid, P, k_list, config=cfg.solver)
    sidecar = {
        "P": list(P),
        "k_list": [float(k) for k in k_list],
        "grid": {"d": cfg.grid.d, "n_x": cfg.grid.n_x, "n_t": cfg.grid.n_t},
    }
    write_ksweep_csv(report, out / "ksweep.csv", sidecar=sidecar)
    if not all(r.converged for r in report.rows):
        bad = [r.k for r in report.rows if not r.converged]
        print(f"k-sweep entries did not converge: {bad}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_battery(seed=args.seed, inject_error=args.inject_error)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed")
    if failed:
        print("failed invariants: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    P = _numeric(cfg.block("oracle", required=False).get("P", 0.0), "oracle.P")
    if P.ndim != 0:
        raise ConfigError("oracle.P must be a single number")
    value = classical_reference(cfg.ham, float(P))
    if value is None:
        raise ConfigError("the classical reference needs d=1, zero drift eta and a time-independent potential")
    print(repr(value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evanskam",
        description="Exponential-averaging cell problems on the space-time torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": (cmd_solve, "minimize once and persist (u, m, hbar) with residual certificates"),
        "sweep": (cmd_sweep, "effective-Hamiltonian table over a momentum grid, plus Legendre dual"),
        "limit": (cmd_limit, "sharpness sweep with limit-trend diagnostics"),
        "check": (cmd_check, "run the named invariant battery"),
        "oracle": (cmd_oracle, "classical cell-problem reference value for autonomous d=1 potentials"),
    }
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--jobs", type=int, default=1, help="parallel cold-start workers for sweep entries")
        p.add_argument("--method", choices=["spectral", "central4"], default=None, help="override differentiation method")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized check batteries")
        if name == "check":
            p.add_argument("--inject-error", default=None, help="test hook: flip a sign inside the named invariant")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, NyquistError, GridError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
