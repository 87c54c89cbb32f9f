"""evanskam benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 45 --trace 0

Load comes from this one process running one operation at a time (a closed
loop with one client); BLAS/OpenMP pools are pinned to one thread.  The
package is imported from ``src/`` and driven only through its public
functions and its CLI.  Seed 0 runs the cases as specified; another seed
shifts the sweep momenta by a multiple of 0.01 (see
``workloads.seed_shift``) and is passed to ``check --seed``.

``--trace 0`` warms up untimed, then runs a fixed number of whole passes,
scaled with ``--seconds`` (at 45: 4 sweep-1d passes over four consecutive
seed shifts and 4 cli-1d passes, about 75 and 25 s at this commit), with the
set-up probes spread between them, and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass, the public-kernel
timings and the import probe, and reports the per-layer metrics; spans go
to ``.bench_out/<run>/spans.jsonl`` when the run ends.

The correctness gate runs after each pass, outside the timed region.  The
last line of standard output is one JSON object with the keys ``correct``
(no output failed the gate), ``attempted``, ``failed`` (operations that
ended unconverged, exited nonzero or failed the gate) and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
PROBES = 4  # fresh interpreters per run; setup_s and import_s are their medians


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sweep-1d", "cli-1d"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int, out: Path, count: int) -> list[dict]:
    probes = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(out)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile of operation latency with ten samples beyond it.

    The samples are pooled over the run's passes.  With fewer than eleven
    in all (a short ``--seconds``) no percentile has ten beyond it, and the
    median is reported instead: the maximum of a handful of samples is too
    noisy to bound.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), f"p50 of {n} samples (fewer than 11)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_and_gate(wl, k: int = 0, **kwargs) -> tuple[float, list]:
    """Time one pass, then judge its outputs outside the timed region."""
    from workloads import Outcome

    t0 = perf_counter()
    try:
        out = wl.run_pass(k, **kwargs)
    except Exception:  # the package raised: every operation of the pass fails, the run goes on
        wall = perf_counter() - t0
        traceback.print_exc()
        return wall, [Outcome(wall, False, False, None, "pass raised") for _ in range(wl.ops_per_pass)]
    wall = perf_counter() - t0
    return wall, wl.gate(out)


def end_to_end(wl, args, out_dir: Path) -> tuple[dict, list]:
    wl.prepare()
    wl.warm_up()
    # the pass count scales with --seconds but not with the code's speed, so
    # that every commit measures the same work and the same tail percentile
    passes = max(1, round(wl.passes_at_45s * args.seconds / 45.0))
    walls, outcomes, setups = [], [], []
    for k in range(passes):
        # set-up probes spread over the run, so that setup_s is a median over
        # its whole length and consecutive passes are measured further apart
        count = PROBES * (k + 1) // passes - PROBES * k // passes
        setups += [p["setup_s"] for p in probe_setup(wl.name, args.seed, out_dir, count)]
        wall, judged = run_and_gate(wl, k)
        walls.append(wall)
        outcomes += judged
    latencies = [o.latency_s for o in outcomes]
    tail_s, tail_label = tail(latencies)
    print(f"passes: {len(walls)}, wall_s per pass: {[round(w, 4) for w in walls]}")
    print(f"op_tail_s: {tail_label}")
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-1d" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "ok_frac": metric(sum(not o.failed for o in outcomes) / len(outcomes), "frac"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return metrics, outcomes


def per_layer(wl, args, out_dir: Path) -> tuple[dict, list]:
    from kernels import kernel_costs
    from tracing import Tracer

    wl.prepare()
    costs = kernel_costs(wl.ham, wl.grid, wl.config, args.seed)
    cli = wl.name == "cli-1d"
    outcomes = []
    if cli:
        _, sub = run_and_gate(wl)
        outcomes += sub
    plain_wall, plain = run_and_gate(wl, in_process=True) if cli else run_and_gate(wl)
    outcomes += plain

    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = run_and_gate(wl, tracer=tracer, in_process=True) if cli else run_and_gate(wl, tracer=tracer)
    finally:
        tracer.uninstall()
    outcomes += traced
    tracer.write(out_dir / "spans.jsonl")

    solves = tracer.attrs("evans_solver.minimize")
    newton = sum(a["iterations"] for a in solves)
    applies = tracer.leaf_calls["numpy.fft.rfftn"]
    errs = [o.hbar_err for o in traced if o.hbar_err is not None]
    n_cmd = len(wl.commands) if cli else 1
    m = {
        "torus_grid.deriv.calls": metric(tracer.leaf_calls["torus_grid.deriv"], "count"),
        "torus_grid.deriv.busy_s": metric(tracer.leaf_busy["torus_grid.deriv"], "s"),
        "torus_grid.deriv.us": metric(costs["torus_grid.deriv.us"], "us"),
        "torus_grid.deriv.bytes_computed": metric(tracer.leaf_bytes["torus_grid.deriv"], "B"),
        "torus_grid.write_field.busy_s": metric(tracer.busy("torus_grid.write_field"), "s"),
        "torus_grid.write_field.bytes": metric(sum(a["bytes"] for a in tracer.attrs("torus_grid.write_field")), "B"),
        "evans_solver.minimize.calls": metric(len(solves), "count"),
        "evans_solver.minimize.busy_s": metric(tracer.busy("evans_solver.minimize"), "s"),
        "evans_solver.minimize.self_s": metric(tracer.self_time("evans_solver.minimize"), "s"),
        "evans_solver.newton_steps": metric(newton, "count"),
        "evans_solver.precond_applies": metric(applies, "count"),
        "evans_solver.cg_iterations": metric(applies - newton, "count"),
        "evans_solver.cg_per_newton": metric((applies - newton) / newton if newton else 0.0, "ratio"),
        "evans_solver.unconverged": metric(sum(not a["converged"] for a in solves), "count"),
        "evans_solver.objective.us": metric(costs["evans_solver.objective.us"], "us"),
        "evans_solver.gradient.us": metric(costs["evans_solver.gradient.us"], "us"),
        "evans_solver.el_apply.us": metric(costs["evans_solver.el_apply.us"], "us"),
        "effective.sweep_P.self_s": metric(tracer.self_time("effective.sweep_P"), "s"),
        "effective.duality.busy_s": metric(tracer.busy("effective.duality"), "s"),
        "mfg_diagnostics.mfg_residuals.calls": metric(tracer.calls("mfg_diagnostics.mfg_residuals"), "count"),
        "mfg_diagnostics.mfg_residuals.busy_s": metric(tracer.busy("mfg_diagnostics.mfg_residuals"), "s"),
        "mather_limits.k_sweep.self_s": metric(tracer.self_time("mather_limits.k_sweep"), "s"),
        "mather_limits.pendulum_reference.busy_s": metric(tracer.busy("mather_limits.pendulum_reference"), "s"),
        "hamiltonians.chi_bound.busy_s": metric(tracer.busy("hamiltonians.chi_bound"), "s"),
        "battery.run_battery.busy_s": metric(tracer.busy("battery.run_battery"), "s"),
        "battery.checks_failed": metric(sum(a["failed"] for a in tracer.attrs("battery.run_battery")), "count"),
        "cli_io.main.busy_s": metric(tracer.busy("cli_io.main") / n_cmd, "s"),
        "cli_io.process_s": metric(
            statistics.fmean(s.latency_s - p.latency_s for s, p in zip(sub, plain)) if cli else 0.0, "s"
        ),
        "evanskam.import_s": metric(
            statistics.median(p["import_s"] for p in probe_setup(wl.name, args.seed, out_dir, PROBES)), "s"
        ),
        "trace.overhead_frac": metric(traced_wall / plain_wall - 1.0, "ratio"),
        "failed_frac": metric(sum(o.failed for o in traced) / len(traced), "ratio"),
        "grad_norm_max": metric(max((a["grad_norm"] for a in solves), default=0.0), "norm"),
        "hbar_err_max": metric(max(errs, default=0.0), "abs"),
    }
    return m, outcomes


def cpu_caches() -> dict:
    """Per-core cache sizes as the kernel reports them for CPU 0."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "caches": cpu_caches(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        # computed from the grids, not measured: the largest real array is
        # 128x128 float64 (128 KiB), its one-axis spectrum 128x65 complex128
        # (130 KiB); every working set fits in L2, so no bandwidth metric is
        # reported and byte counts are computed
        "largest_array_bytes": {"real": 128 * 128 * 8, "spectrum": 128 * 65 * 16},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "evanskam" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of an evanskam checkout (src/evanskam and configs/ are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from workloads import WORKLOADS

    out_dir = Path(".bench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    print("environment:", json.dumps(environment(), sort_keys=True))

    wl = WORKLOADS[args.workload](args.seed, out_dir)
    if args.trace == 0:
        metrics, outcomes = end_to_end(wl, args, out_dir)
    else:
        metrics, outcomes = per_layer(wl, args, out_dir)

    for i, o in enumerate(outcomes):
        if o.failed:
            print(f"op {i} failed: converged={o.converged} correct={o.correct} {o.detail}")
    print(
        json.dumps(
            {
                "correct": all(o.correct for o in outcomes),
                "attempted": len(outcomes),
                "failed": sum(o.failed for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
