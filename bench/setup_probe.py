"""Time one workload's set-up in a fresh process.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken to import darcyfem and build the problem and the
initial mesh, which every command-line run pays.  ``run.py`` starts this
several times per run and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

from envinfo import pin_blas_threads

pin_blas_threads()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports neither numpy nor darcyfem)

t0 = time.perf_counter()
WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
