"""Repeat the benchmark over seeds and summarise each metric.

Run from the repository root, for example

    python3 perfbench/collect.py --seeds 1-10 --out baseline.json

For every workload it runs ``perfbench/run.py`` once per seed, one run at a
time, with the ``run_seconds`` of ``BENCHMARK.json``, and records each
metric's ten values, median, quartiles (``statistics.quantiles(n=4)``) and
spread (interquartile distance over the median) next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        row["bound"] = bound
        row["spread_within_third_of_bound"] = spread < bound / 3
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,5")
    p.add_argument("--workloads", default=None, help="comma-separated; default every workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import environment

    report = {"environment": environment(), "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return proc.returncode
            *notes, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            print(name, seed, json.dumps(result), flush=True)
            runs.append({**result, "notes": [n for n in notes if not n.startswith("environment:")]})
        metrics = {
            key: summarise([r["metrics"][key]["value"] for r in runs], bounds.get(key))
            for key in runs[0]["metrics"]
        }
        report["workloads"][name] = {
            "seeds": seed_list(args.seeds),
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "notes": [r["notes"] for r in runs],
            "metrics": metrics,
        }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
