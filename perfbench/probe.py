"""Host-speed probe: runs beside the timed workers, on the same CPU.

    python3 perfbench/probe.py CPU

Started by run.py before the first worker and stopped (SIGTERM) after the
last.  Every PERIOD_S it wakes, times one fixed kernel (small symmetric
eigensolves, the same mix of interpreter and LAPACK-call overhead as the
library's trials) and records (start, seconds).  It prints `ready` once
numpy is loaded, and the samples as one JSON list when stopped; it stops
by itself if run.py dies.

On the shared 2-vCPU hosts this was tuned on, a CPU's speed switches
between levels ~1.5x apart for seconds at a time; the probe samples that
speed while the worker runs, so run.py can convert each timed interval to
seconds at a fixed reference speed (KERNEL_REF_S).  It costs the worker
about 3% of the CPU.

The workloads feel a slow spell more than this kernel does: regressed on
the kernel's time, log(pass time) has slope 1.50-1.52 with correlation 0.98
on all three workloads (per-pass data, 45 s of each, probe on the same
CPU).  So a workload's speed is taken as the kernel's speed to the power
SENSITIVITY.  The kernel was picked from five tried for that tight fit;
kernels whose slope was nearer 1 (einsum, list sorting) fitted worse
(correlation 0.77-0.94) and steadied the passes less.
"""

import json
import os
import signal
import sys
import time

PERIOD_S = 0.02
# The kernel's time at the reference speed, a fixed constant: about its
# median at the fast level of a 2-vCPU Xeon (2.1 GHz) VM, numpy with
# OpenBLAS on one thread.
KERNEL_REF_S = 5.7e-4
SENSITIVITY = 1.5


def main() -> int:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {int(sys.argv[1])})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((16, 16))
    matrix = matrix + matrix.T

    def kernel() -> None:
        for _ in range(20):
            np.linalg.eigvalsh(matrix)

    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    kernel()
    print("ready", flush=True)
    samples = []
    while not stopping and os.getppid() == parent:  # also ends if run.py dies
        time.sleep(PERIOD_S)
        t0 = time.monotonic()
        kernel()
        samples.append((t0, time.monotonic() - t0))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
