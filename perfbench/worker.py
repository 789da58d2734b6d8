"""One benchmark worker process: set-up, timed passes and output checks.

Started by run.py, one process at a time, pinned with `--cpu` to the CPU
the speed probe samples.  It pins the numeric threads before numpy is
imported, imports curvlab from the checkout's `src/`, runs
the workload's warm-up (that is set-up), then runs timed passes: at least
one, and more while the time budget lasts and `--max-passes` allows.  Every
pass's output is checked against `expected.json`.  The last stdout line is
one JSON object with the timings, the check counts and the sha256 of every
report.  With `--spans PATH` the library is traced and the spans are
written to PATH at exit.
"""

import os

# Before numpy is imported: BLAS threads change the last digits of some
# records, and trial threads are pinned for timed runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CURVLAB_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = ("verify-all", "sample-sweep", "cold-start")

# Bianchi kernels built by the warm-up: the algebras each workload samples from.
WARM_KERNELS = {
    "verify-all": [("u", m) for m in range(2, 5)] + [("sp_sp1", m) for m in range(2, 5)],
    "sample-sweep": [("so", n) for n in range(5, 9)] + [("u", m) for m in range(2, 6)],
    "cold-start": [],
}


def pass_seed(seed: int, index: int) -> int:
    """CLI seed of the index-th pass; a pure function of the benchmark seed."""
    return random.Random(f"curvlab-bench:{seed}:{index}").randrange(2**31)


def _space(tag: str, size: int):
    from curvlab.euclid import generic, kaehler, quaternion_kaehler

    return {"so": generic, "u": kaehler, "sp_sp1": quaternion_kaehler}[tag](size)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, stdout text)."""
    from curvlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# passes: each returns (attempted, failures, report digests)


def verify_pass(seed: int):
    spec = EXPECTED["verify-all"]
    verdicts = spec["verdicts"]
    code, text = _cli(spec["argv"] + ["--seed", str(seed)])
    failures = []
    try:
        records = json.loads(text)["records"]
    except (ValueError, KeyError) as exc:
        return len(verdicts), [f"unreadable report: {exc}"] * len(verdicts), [_sha(text)]
    seen = set()
    for rec in records:
        name = rec["name"]
        seen.add(name)
        if name not in verdicts:
            failures.append(f"{name}: not in the expected-verdict map")
        elif rec["passed"] is not verdicts[name]:
            failures.append(f"{name}: passed={rec['passed']}, expected {verdicts[name]}")
    failures += [f"{name}: missing from the report" for name in verdicts if name not in seen]
    attempted = max(len(records), len(verdicts))
    if code != spec["exit_code"]:
        failures = [f"exit code {code}, expected {spec['exit_code']}"] * attempted
    return attempted, failures, [_sha(text)]


def _row_failure(row: dict, spec: dict) -> str | None:
    values = {}
    for col, cell in row.items():
        if cell in ("true", "false"):
            continue
        try:
            values[col] = float(cell)
        except ValueError:
            return f"{col}={cell!r} is not a number"
        if not math.isfinite(values[col]):
            return f"{col}={cell} is not finite"
    scale = 1.0 + max(abs(values[c]) for c in spec["scale_columns"])
    for check in spec["nonnegative"]:
        total = sum(values[c] for c in check["sum"])
        slack = spec["slack_rel"] * scale ** check["degree"]
        if total < -slack:
            return f"{'+'.join(check['sum'])} = {total:.3e} below -{slack:.1e}"
    return None


def sample_pass(seed: int):
    spec = EXPECTED["sample-sweep"]
    attempted, failures, digests = 0, [], []
    for tag, flag, size in spec["runs"]:
        label = f"sample {tag}({size})"
        code, text = _cli(spec["argv"] + ["--holonomy", tag, flag, str(size), "--seed", str(seed)])
        digests.append(_sha(text))
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != spec["rows_per_run"]:
            attempted += spec["rows_per_run"]
            failures += [f"{label}: exit {code}, {len(rows)} rows"] * spec["rows_per_run"]
            continue
        for row in rows:
            attempted += 1
            why = _row_failure(row, spec)
            if why:
                failures.append(f"{label} trial {row.get('trial')}: {why}")
    return attempted, failures, digests


def cold_pass(seed: int):
    import numpy as np
    from curvlab import decomp, holonomy

    attempted, failures, digests = 0, [], []
    for idx, (tag, size, dim) in enumerate(EXPECTED["cold-start"]["sizes"]):
        attempted += 1
        label = f"{tag}({size})"
        try:
            alg = holonomy.by_name(_space(tag, size), tag)
            got = decomp.curvature_space_dim(alg)
            rm = decomp.random_algebra_curvature(alg, rng=np.random.default_rng([seed, idx]))
        except Exception as exc:  # a build that raises is a failed operation
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        digests.append(hashlib.sha256(rm.components.tobytes()).hexdigest())
        if got != dim:
            failures.append(f"{label}: curvature-space dimension {got}, closed form {dim}")
        elif not np.isfinite(rm.components).all():
            failures.append(f"{label}: sample is not finite")
    return attempted, failures, digests


PASSES = {"verify-all": verify_pass, "sample-sweep": sample_pass, "cold-start": cold_pass}


def warm_up(workload: str):
    from curvlab import decomp, holonomy

    for tag, size in WARM_KERNELS[workload]:
        decomp.curvature_space_dim(holonomy.by_name(_space(tag, size), tag))


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "curvlab_threads": os.environ["CURVLAB_THREADS"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of timed passes; 0 runs the set-up only")
    ap.add_argument("--max-passes", type=int, default=1_000_000)
    ap.add_argument("--spans", default=None, help="trace the library, write spans here")
    ap.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = ap.parse_args()
    if args.cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {args.cpu})

    # perf_counter is CLOCK_MONOTONIC on Linux, the probe's clock: run.py
    # matches these stamps with the probe's samples.
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import curvlab  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    warm_up(args.workload)
    setup_s = time.perf_counter() - start

    begins, walls, cpus, attempted, failures, digests = [], [], [], 0, [], []
    while args.budget > 0 and len(walls) < args.max_passes and (not walls or sum(walls) < args.budget):
        seed = pass_seed(args.seed, len(walls))
        t0, c0 = time.perf_counter(), time.process_time()
        n_ops, fails, sums = PASSES[args.workload](seed)
        begins.append(t0)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        attempted += n_ops
        failures += fails
        digests.append(sums)

    if tracer is not None:
        tracer.dump(args.spans)
    result = {
        "setup_begin": start,
        "setup_s": setup_s,
        "begins": begins,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digests": digests,
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
