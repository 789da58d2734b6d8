"""curvlab benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists):

* verify-all:   `curvlab verify`, all eight suites, default trials, in-process
                through `curvlab.cli.main` after a kernel warm-up;
* sample-sweep: `curvlab sample --condition 2-nonnegative` over so(5..8) and
                u(2..5), kernels already built;
* cold-start:   a fresh process per pass builds algebra, Bianchi kernel and
                one sample for so(4..9), u(2..5), sp(2..5)+sp(1).

Each workload runs as a single closed-loop client: worker processes run one
after the other, and each pass starts when the previous one has finished.
Workers pin BLAS and trial threads to 1.  Every pass's output is checked
(expected verdicts, sample positivity, closed-form dimensions).

--trace 0 prints the end-to-end metrics: wall_s (median pass), setup_s
(median set-up over several processes) and peak_rss_mb.  Both times are in
reference-speed seconds: a probe process on the workers' CPU samples the
host's speed, and each interval is scaled by it (probe.py).  --trace 1 runs one
untraced and one traced pass, prints the per-layer metrics of the traced one
and fails the check if their reports differ in a single byte.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it repeat every metric by name and unit, and give the
environment, the failure fraction and the report digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
WORKLOADS = ("verify-all", "sample-sweep", "cold-start")
SETUP_PROCESSES = 5  # set-ups per run whose median is setup_s
COLD_PASSES = 2  # at least, so that a cold-start median is never one pass
DEADLINE_S = 170.0  # whole run, below the 180 s a run may take
MIN_PROBES = 8  # probe samples behind every converted interval
# The CPU that the workers and the probe share: the last one this process may use.
CPU = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import spans  # noqa: E402


class BenchError(RuntimeError):
    pass


def _worker(args: argparse.Namespace, deadline: float, budget: float,
            max_passes: int | None = None, spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget)]
    if CPU is not None:
        cmd += ["--cpu", str(CPU)]
    if max_passes is not None:
        cmd += ["--max-passes", str(max_passes)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workers(args, deadline) -> tuple[list[dict], list[dict]]:
    """(set-up-only workers, timed workers) of one untraced run."""
    setups = [_worker(args, deadline, budget=0.0) for _ in range(SETUP_PROCESSES - 1)]
    if args.workload != "cold-start":
        return setups, [_worker(args, deadline, budget=float(args.seconds))]
    # every cold pass needs empty caches, so every pass is its own process
    timed: list[dict] = []
    while len(timed) < COLD_PASSES or sum(w["walls"][0] for w in timed) < args.seconds:
        timed.append(_worker(args, deadline, budget=float(args.seconds), max_passes=1))
    return setups, timed


class Probe:
    """The host-speed probe (probe.py) as a context manager: started on the
    workers' CPU, stopped and waited for on every way out."""

    def __enter__(self):
        cmd = [sys.executable, str(HERE / "probe.py"), str(CPU if CPU is not None else 0)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._kill()
            raise BenchError("the speed probe did not start")
        self.samples: list[tuple[float, float]] = []
        return self

    def stop(self) -> list[tuple[float, float]]:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill()
            raise BenchError("the speed probe did not stop") from None
        self.samples = [tuple(s) for s in json.loads(out.strip().splitlines()[-1])]
        return self.samples

    def _kill(self):
        self.proc.kill()
        self.proc.communicate()

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self._kill()

    def reference_seconds(self, begin: float, wall: float) -> float:
        """`wall` seconds from `begin`, converted to seconds at the probe's
        reference speed: wall * mean((KERNEL_REF_S / kernel time) ** SENSITIVITY)
        over the probe samples taken in the interval (the nearest MIN_PROBES
        if fewer), i.e. the work done at the sampled speeds."""
        inside = [c for t, c in self.samples if begin <= t <= begin + wall]
        if len(inside) < MIN_PROBES:
            mid = begin + wall / 2
            inside = [c for t, c in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_PROBES]]
        if not inside:
            raise BenchError("no speed-probe samples")
        return wall * statistics.fmean((probe.KERNEL_REF_S / c) ** probe.SENSITIVITY for c in inside)


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree; the ceiling
    keeps git from finding a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "curvlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _emit(correct, attempted, failed, metrics, detail):
    for name, (value, unit, note) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {note}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


def run_untraced(args, deadline):
    """Set-up and pass times are converted to reference-speed seconds with
    the probe's samples (see probe.py); the raw medians go to `detail`."""
    with Probe() as speed:
        setup_only, timed = _workers(args, deadline)
        samples = speed.stop()
    walls = [speed.reference_seconds(b, t) for w in timed for b, t in zip(w["begins"], w["walls"])]
    setups = [speed.reference_seconds(w["setup_begin"], w["setup_s"]) for w in setup_only + timed]
    rss = [w["peak_rss_mb"] for w in timed]
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes, reference speed"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes, reference speed"),
        "peak_rss_mb": (statistics.median(rss), "MB", f"median of {len(rss)} timed processes"),
    }
    extra = {
        "raw_wall_s": statistics.median(t for w in timed for t in w["walls"]),
        "raw_setup_s": statistics.median(w["setup_s"] for w in setup_only + timed),
        "probe": {"cpu": CPU, "samples": len(samples),
                  "median_s": statistics.median(c for _, c in samples),
                  "reference_s": probe.KERNEL_REF_S},
    }
    return timed, metrics, extra


def run_traced(args, deadline):
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.json"
    plain = _worker(args, deadline, budget=float(args.seconds), max_passes=1)
    traced = _worker(args, deadline, budget=float(args.seconds), max_passes=1, spans_path=spans_path)
    recorded = json.loads(spans_path.read_text())
    layer = spans.layer_metrics(recorded)
    layer["trace.overhead_s"] = traced["walls"][0] - plain["walls"][0]
    units = dict(spans.metric_names())
    metrics = {name: (value, units[name], "") for name, value in layer.items()}
    calls: dict[str, int] = {}
    for *_, function in recorded:
        calls[function] = calls.get(function, 0) + 1
    extra = {"function_calls": calls, "identical_reports": plain["digests"] == traced["digests"]}
    return [plain, traced], metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "curvlab" / "__init__.py").is_file():
        print(f"error: no curvlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            workers, metrics, extra = run_traced(args, deadline)
        else:
            workers, metrics, extra = run_untraced(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = failed == 0 and extra.get("identical_reports", True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_attempted": attempted,
        "fail_frac": failed / attempted if attempted else 1.0,
        "pass_wall_s": [w["walls"] for w in workers],
        "pass_cpu_s": [w["cpus"] for w in workers],
        "failures": [f for w in workers for f in w["failures"]][:20],
        "report_sha256": [w["digests"] for w in workers],
        "env": {**workers[0]["env"], "nproc": os.cpu_count(),
                "git_sha": git_sha(), "src_sha256": source_digest()},
        **extra,
    }
    _emit(correct, attempted, failed, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
