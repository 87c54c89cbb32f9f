"""Set-up cost in a fresh interpreter: import evanskam, build one workload.

Run from the repository root as ``python3 perfbench/setup_probe.py WORKLOAD
SEED OUT``; prints ``{"import_s": ..., "setup_s": ...}``.  The clock starts
before ``import evanskam`` (which imports numpy and scipy) and stops once the
workload's Hamiltonian, grid and solver configuration exist.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path[:0] = ["src", str(Path(__file__).resolve().parent)]
import evanskam  # noqa: E402

t_import = perf_counter() - t0
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
t_setup = perf_counter() - t0
print(json.dumps({"import_s": t_import, "setup_s": t_setup, "version": evanskam.__version__}))
