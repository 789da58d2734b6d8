"""Self-checks of the benchmark: determinism and trace completeness.

    python3 perfbench/selfcheck.py [--seed N]

Determinism: `curvlab sample` on so(7), u(4) and sp(3)+sp(1) gives the same
bytes on two runs with CURVLAB_THREADS=1 and on a run with CURVLAB_THREADS=2,
BLAS pinned to one thread throughout.  The report digests are printed but
not compared with earlier commits, because a change of the sampled streams
is legitimate.  The BLAS-thread comparison of `verify --suite hp` is printed
as information only (see NOTES.md).

Trace completeness: the wrappers are installed where other modules bind the
wrapped functions (criteria.t_hat, decomp.sp_sp1_algebra, ...); then one
traced run per workload (run.py --trace 1), and
* every wrapped function has calls on at least one workload;
* tensor.t_hat has calls on verify-all and none on the other two;
* every per-layer metric of BENCHMARK.json is reported;
* each traced report is byte-identical to its untraced twin (run.py marks
  the run incorrect otherwise).

Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spans  # noqa: E402

SAMPLES = [["--holonomy", "so", "--n", "7"], ["--holonomy", "u", "--m", "4"],
           ["--holonomy", "sp_sp1", "--m", "3"]]


def _cli(argv: list[str], threads: int, blas: int = 1) -> bytes:
    env = {**os.environ, "CURVLAB_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(blas),
           "OMP_NUM_THREADS": str(blas), "MKL_NUM_THREADS": str(blas),
           "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli"] + argv, cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"curvlab {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return proc.stdout


def check_determinism(seed: int) -> list[str]:
    problems = []
    for argv in SAMPLES:
        argv = ["sample"] + argv + ["--seed", str(seed)]
        first, again, threaded = _cli(argv, 1), _cli(argv, 1), _cli(argv, 2)
        label = " ".join(argv)
        print(f"sha256 {hashlib.sha256(first).hexdigest()}  {label}")
        if first != again:
            problems.append(f"{label}: two runs differ")
        if first != threaded:
            problems.append(f"{label}: CURVLAB_THREADS=1 and 2 differ")
    hp = ["verify", "--suite", "hp", "--seed", str(seed)]
    same = _cli(hp, 1, blas=1) == _cli(hp, 1, blas=2)
    print(f"info: verify --suite hp, OpenBLAS 1 vs 2 threads: {'identical' if same else 'bytes differ'}")
    return problems


def check_bindings() -> list[str]:
    """The wrappers reach the names other modules call them by."""
    sys.path.insert(0, str(ROOT / "src"))
    installed = set(spans.install(spans.Tracer()))
    needed = ["criteria.t_hat", "criteria.hp", "criteria.symmetric_eigen", "decomp.sp_sp1_algebra",
              "decomp.complement_mass", "holonomy.to_operator", "cli.SUITES[qk-ratio]"]
    return [f"no wrapper installed at {name}" for name in needed if name not in installed]


def check_trace(seed: int) -> list[str]:
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    seen: set[str] = set()
    for workload in run.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            problems.append(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2][len("detail: "):])
        if not result["correct"]:
            problems.append(f"{workload}: traced run incorrect (identical reports: "
                            f"{detail['identical_reports']}, failures: {detail['failures'][:3]})")
        seen |= set(detail["function_calls"])
        missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
        if missing:
            problems.append(f"{workload}: per-layer metrics not reported: {missing}")
        t_hat = result["metrics"]["tensor.t_hat.calls"]["value"]
        print(f"{workload}: tensor.t_hat.calls = {t_hat}")
        if (t_hat > 0) != (workload == "verify-all"):
            problems.append(f"{workload}: tensor.t_hat.calls = {t_hat}")
    never = sorted(set(spans.wrapped_functions()) - seen)
    if never:
        problems.append(f"wrapped but never called on any workload: {never}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = check_bindings() + check_determinism(args.seed) + check_trace(args.seed)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
