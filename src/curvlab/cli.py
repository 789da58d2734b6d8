"""Command-line front end: verification suites, spectra, decomposition, sweeps.

Reports are deterministic for a fixed (config, seed) pair and byte-identical
across repeated runs and thread counts; wall-clock timing goes to stderr and
is kept out of the serialized report for that reason.  Floats are rendered
with 17 significant digits so reports are diffable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import criteria, decomp, holonomy, tensor
from .euclid import GeometryError, generic, kaehler, quaternion_kaehler

GAP = 1e-6  # eigenvalue clustering threshold, relative to max|eigenvalue|

# Size caps, checked before any work starts; a request above one is a usage
# error (exit 2).  Bianchi kernels grow like n^8 and hat stacks like n^6, so
# these are the sizes the oracle is built and timed for: so(n) up to n = 12,
# u(m) and sp(m)+sp(1) up to m = 6 (n = 24), a Grassmannian of dimension
# p * q at most 24 (4 * MAX_M), and a decompose input file of at most
# 16 MiB, which holds the n^4 components of an n = 24 tensor.
MAX_N = 12  # --n
MAX_M = 6  # --m
MAX_INPUT_BYTES = 1 << 24


# ---------------------------------------------------------------------------
# records and reports


@dataclass
class CheckRecord:
    name: str
    inputs: dict
    expected: object
    actual: object
    tolerance: float | None
    passed: bool


@dataclass
class Report:
    command: str
    config: dict
    records: list = field(default_factory=list)
    wall_seconds: float = 0.0  # stderr only, never serialized

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        ok = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": ok, "failed": len(self.records) - ok}

    def canonical(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "records": [
                {
                    "name": r.name,
                    "inputs": r.inputs,
                    "expected": r.expected,
                    "actual": r.actual,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in self.records
            ],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return _render(self.canonical()) + "\n"

    def to_csv(self) -> str:
        lines = ["name,passed,expected,actual,tolerance,inputs"]
        for r in self.records:
            lines.append(
                ",".join(
                    [
                        _csv_cell(r.name),
                        "true" if r.passed else "false",
                        _csv_cell(_scalar_text(r.expected)),
                        _csv_cell(_scalar_text(r.actual)),
                        _scalar_text(r.tolerance),
                        _csv_cell(_render(r.inputs)),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _plain(x):
    """Strip numpy types so rendering sees plain python values."""
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _render(x) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    x = _plain(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, list):
        return "[" + ", ".join(_render(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in x.items()) + "}"
    raise GeometryError(f"cannot serialize {type(x).__name__}")


def _scalar_text(x) -> str:
    if type(x) is float:
        return "%.17g" % x
    x = _plain(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, (list, dict)):
        return _render(x)
    return str(x)


def _csv_cell(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


# record constructors


def rec_close(name, inputs, expected, actual, rtol) -> CheckRecord:
    ok = bool(abs(actual - expected) <= rtol * (1.0 + abs(expected)))
    return CheckRecord(name, inputs, float(expected), float(actual), rtol, ok)


def rec_leq(name, inputs, actual, bound) -> CheckRecord:
    return CheckRecord(name, inputs, f"<= {bound:g}", float(actual), bound, bool(actual <= bound))


def rec_eq(name, inputs, expected, actual) -> CheckRecord:
    return CheckRecord(name, inputs, _plain(expected), _plain(actual), None, _plain(expected) == _plain(actual))


def rec_bool(name, inputs, passed, expected, actual) -> CheckRecord:
    return CheckRecord(name, inputs, _plain(expected), _plain(actual), None, bool(passed))


def rec_mults(name, inputs, expected, actual, tol) -> CheckRecord:
    """Compare multiplicity tables [[value, count], ...] up to tol in values."""
    ok = len(expected) == len(actual) and all(
        ec == ac and abs(ev - av) <= tol for (ev, ec), (av, ac) in zip(expected, actual)
    )
    return CheckRecord(name, inputs, _plain(expected), _plain(actual), tol, ok)


def _merge_mults(pairs: list[tuple[float, int]], gap: float = GAP) -> list[list]:
    """Merge an expected (value, count) table at the clustering threshold
    of SpectralData.multiplicities."""
    out: list[list] = []
    tol = gap * max((abs(v) for v, _ in pairs), default=0.0)
    for v, c in sorted(pairs):
        if out and v - out[-1][0] <= tol:
            out[-1][1] += c
        else:
            out.append([float(v), int(c)])
    return out


# ---------------------------------------------------------------------------
# config


@dataclass
class RunConfig:
    command: str
    suite: str | None = None
    model: str | None = None
    m: tuple[int, int] | None = None
    n: tuple[int, int] | None = None
    p: int | None = None
    q: int | None = None
    trials: int | None = None
    seed: int = 42
    tol: float | None = None
    format: str = "json"
    out: str | None = None
    holonomy: str | None = None
    condition: str | None = None
    input_path: str | None = None
    threads: int = 1

    def rtol(self, default: float) -> float:
        return self.tol if self.tol is not None else default

    def echo(self) -> dict:
        keep = {}
        for k in ("suite", "model", "m", "n", "p", "q", "trials", "seed", "tol",
                  "holonomy", "condition", "input_path"):
            v = getattr(self, k)
            if v is not None:
                keep[k] = list(v) if isinstance(v, tuple) else v
        return keep


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range 'a..b'; a single value means a degenerate one."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise GeometryError(f"bad range {text!r}, expected 'a' or 'a..b'") from None
    if hi < lo:
        raise GeometryError(f"empty range {text!r}")
    return lo, hi


def _thread_count() -> int:
    raw = os.environ.get("CURVLAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise GeometryError(f"CURVLAB_THREADS must be a positive integer, got {raw!r}")
    return min(threads, os.cpu_count() or 1)


def _trial_map(fn, trials: int, threads: int) -> list:
    if threads <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(trials)))


def _trial_rng(seed: int, tag: int, trial: int) -> np.random.Generator:
    # disjoint streams per (suite instance, trial): the entropy is the tuple
    # itself, so no field spills into another (tags and trials stay < 2^32)
    return np.random.default_rng([seed, tag, trial])


# ---------------------------------------------------------------------------
# verify suites


def suite_hp(cfg: RunConfig) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 4)
    rtol = cfg.rtol(1e-8)
    out = []
    for m in range(lo, hi + 1):
        rm = decomp.hp(m)
        alg = holonomy.by_name(rm.space, "sp")
        op = tensor.to_operator(rm)
        rop = holonomy.project(op, alg)
        inputs = {"m": m}
        out.append(rec_eq(f"hp[{m}].algebra_dim", inputs, m * (2 * m + 1) + 3, alg.dim))
        expected = _merge_mults([(4.0, m * (2 * m + 1)), (4.0 * m, 3)])
        actual = [[v, c] for v, c in rop.spectrum().multiplicities(GAP)]
        out.append(rec_mults(f"hp[{m}].spectrum", inputs, expected, actual, rtol))
        out.append(rec_close(f"hp[{m}].operator_norm_sq", inputs, 16.0 * m * (5 * m + 1), op.norm_sq(), rtol))
        out.append(rec_close(f"hp[{m}].scal", inputs, 16.0 * m * (m + 2), tensor.scalar(rm), rtol))
        out.append(rec_leq(f"hp[{m}].complement_mass", inputs, holonomy.complement_mass(op, alg), 1e-9))
        out.append(rec_leq(f"hp[{m}].invariance_defect", inputs, criteria.invariance_defect(rm, alg), 1e-9))
    return out


def suite_grassmann(cfg: RunConfig) -> list[CheckRecord]:
    rtol = cfg.rtol(1e-8)
    if cfg.p is not None and cfg.q is not None:
        combos = [(cfg.p, cfg.q)]
    else:
        combos = [(p, q) for p, q in itertools.product((2, 3, 4), repeat=2) if p * q <= 16]
    out = []
    for p, q in combos:
        rm = decomp.grassmannian(p, q)
        op = tensor.to_operator(rm)
        d = rm.space.bivector_dim
        kernel = d - q * (q - 1) // 2 - p * (p - 1) // 2
        expected = _merge_mults(
            [(0.0, kernel), (float(p), q * (q - 1) // 2), (float(q), p * (p - 1) // 2)]
        )
        actual = [[v, c] for v, c in op.spectrum().multiplicities(GAP)]
        inputs = {"p": p, "q": q}
        out.append(rec_mults(f"grassmann[{p},{q}].spectrum", inputs, expected, actual, rtol))
        out.append(
            rec_close(f"grassmann[{p},{q}].scal", inputs, float(p * q * (p + q - 2)), tensor.scalar(rm), rtol)
        )
        if p == 4:
            # same number as the quaternionic model family at m = q
            out.append(
                rec_close(f"grassmann[{p},{q}].scal_qk_crosscheck", inputs, 4.0 * q * (q + 2), tensor.scalar(rm), rtol)
            )
    return out


def suite_wolf(cfg: RunConfig) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 5)
    rtol = cfg.rtol(1e-8)
    out = []
    for m in range(lo, hi + 1):
        rm = decomp.wolf(m)
        alg = holonomy.by_name(rm.space, "sp")
        op = tensor.to_operator(rm)
        rop = holonomy.project(op, alg)
        inputs = {"m": m}
        out.append(rec_close(f"wolf[{m}].operator_norm_sq", inputs, 2.0 * m * (7 * m - 4), op.norm_sq(), rtol))
        out.append(rec_close(f"wolf[{m}].scal", inputs, 4.0 * m * (m + 2), tensor.scalar(rm), rtol))
        kernel = 3 * (m - 1) + 3 * m * (m - 1) // 2
        expected = _merge_mults([(0.0, kernel), (4.0, m * (m - 1) // 2), (float(m), 6)])
        actual = [[v, c] for v, c in rop.spectrum().multiplicities(GAP)]
        out.append(rec_mults(f"wolf[{m}].spectrum", inputs, expected, actual, rtol))
        out.append(rec_leq(f"wolf[{m}].complement_mass", inputs, holonomy.complement_mass(op, alg), 1e-9))
        r0_sq = decomp.qk_decompose(rm, alg).parts["hyperkaehler_part"].norm_sq() / 4.0
        out.append(rec_close(f"wolf[{m}].trace_free_norm_sq", inputs, 9.0 * m * (m - 1), r0_sq, rtol))

        hat_direct = criteria.hat_norm_direct(rm, alg)
        hat_formula = criteria.hat_norm_formula(rop).total
        out.append(
            rec_leq(
                f"wolf[{m}].hat_route_gap",
                inputs,
                abs(hat_direct - hat_formula) / (1.0 + abs(hat_direct)),
                1e-8,
            )
        )
        # adjudication of the two published closed forms against the oracle
        cand_proof = 12.0 * m * (m - 1) * (3 * m + 4)
        cand_statement = 36.0 * m * m * (m - 1)
        adjtol = cfg.rtol(1e-7)
        match_proof = abs(hat_direct - cand_proof) <= adjtol * (1.0 + cand_proof)
        match_statement = abs(hat_direct - cand_statement) <= adjtol * (1.0 + cand_statement)
        out.append(rec_close(f"wolf[{m}].hat_candidate_proof", inputs, cand_proof, hat_direct, adjtol))
        out.append(rec_close(f"wolf[{m}].hat_candidate_statement", inputs, cand_statement, hat_direct, adjtol))
        out.append(
            rec_bool(
                f"wolf[{m}].hat_adjudication",
                inputs,
                match_proof ^ match_statement,
                "exactly one candidate matches",
                {
                    "matches_proof_form": match_proof,
                    "matches_statement_form": match_statement,
                    "measured": hat_direct,
                },
            )
        )
        out.append(
            rec_close(f"wolf[{m}].hat_resolved_form", inputs, 36.0 * m * (m - 1) * (m + 2), hat_direct, rtol)
        )
    return out


def suite_weyl_norm(cfg: RunConfig) -> list[CheckRecord]:
    lo, hi = cfg.n or (4, 8)
    trials = cfg.trials or 100
    out = []
    for n in range(lo, hi + 1):
        space = generic(n)
        alg = holonomy.by_name(space, "so")

        def one(trial: int, n=n, space=space, alg=alg) -> tuple[float, float]:
            rm = tensor.random_curvature(space, rng=_trial_rng(cfg.seed, n, trial))
            w = decomp.weyl_decompose(rm).parts["weyl"]
            ratio = 4.0 * criteria.hat_norm_direct(w, alg) / w.norm_sq()
            w_unit = w * (1.0 / np.sqrt(w.norm_sq()))
            return ratio, max(tensor.total_traces(w_unit))

        rows = _trial_map(one, trials, cfg.threads)
        target = 4.0 * (n - 1)
        dev = max(abs(r - target) / target for r, _ in rows)
        inputs = {"n": n, "trials": trials}
        out.append(rec_leq(f"weyl-norm[{n}].ratio_max_rel_dev", inputs, dev, cfg.rtol(1e-8)))
        out.append(rec_leq(f"weyl-norm[{n}].trace_residual_max", inputs, max(t for _, t in rows), 1e-10))
    return out


def suite_bochner_norm(cfg: RunConfig) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 4)
    trials = cfg.trials or 100
    out = []
    for m in range(lo, hi + 1):
        space = kaehler(m)
        alg = holonomy.by_name(space, "u")
        decomp._bianchi_kernel_basis(alg)  # warm the cache before threading

        def one(trial: int, m=m, alg=alg) -> tuple[float, float, float]:
            rm = decomp.random_algebra_curvature(alg, rng=_trial_rng(cfg.seed, m, trial))
            dec = decomp.bochner_decompose(rm)
            b = dec.parts["bochner"]
            ratio = 4.0 * criteria.hat_norm_direct(b, alg) / b.norm_sq()
            b_unit = b * (1.0 / np.sqrt(b.norm_sq()))
            other = decomp.bochner_explicit(rm)
            gap = float(np.abs(b.matrix - other.matrix).max()) / (
                1.0 + float(np.abs(rm.matrix).max())
            )
            return ratio, max(tensor.total_traces(b_unit)), gap

        rows = _trial_map(one, trials, cfg.threads)
        target = 4.0 * (m + 1)
        dev = max(abs(r - target) / target for r, _, _ in rows)
        inputs = {"m": m, "trials": trials}
        out.append(rec_leq(f"bochner-norm[{m}].ratio_max_rel_dev", inputs, dev, cfg.rtol(1e-8)))
        out.append(rec_leq(f"bochner-norm[{m}].trace_residual_max", inputs, max(t for _, t, _ in rows), 1e-10))
        out.append(rec_leq(f"bochner-norm[{m}].route_gap_max", inputs, max(g for _, _, g in rows), 1e-9))
    return out


def suite_qk_ratio(cfg: RunConfig) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 4)
    trials = cfg.trials or 100
    out = []
    for m in range(lo, hi + 1):
        space = quaternion_kaehler(m)
        alg = holonomy.by_name(space, "sp")
        decomp._bianchi_kernel_basis(alg)

        def one(trial: int, m=m, alg=alg) -> float:
            rm = decomp.random_algebra_curvature(alg, rng=_trial_rng(cfg.seed, m, trial))
            hr = criteria.hat_ratio_qk(rm, alg)
            return float("nan") if hr.pure_multiple else hr.ratio

        ratios = [r for r in _trial_map(one, trials, cfg.threads) if not np.isnan(r)]
        inputs = {"m": m, "trials": trials, "nondegenerate": len(ratios)}
        paper_form = (4.0 / 3.0) * (3 * m + 4)
        adjtol = cfg.rtol(1e-7)
        matched = sum(1 for r in ratios if abs(r - paper_form) <= adjtol * paper_form)
        out.append(
            rec_bool(
                f"qk-ratio[{m}].matches_published_form",
                inputs,
                matched == len(ratios),
                f"{len(ratios)}/{len(ratios)} within {adjtol:g} of {paper_form:.10g}",
                {"matched": matched, "mean_ratio": float(np.mean(ratios))},
            )
        )
        spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
        out.append(rec_leq(f"qk-ratio[{m}].constancy_rel_spread", inputs, spread, 1e-8))
        out.append(
            rec_close(f"qk-ratio[{m}].measured_constant", inputs, 4.0 * (m + 2), float(np.mean(ratios)), cfg.rtol(1e-8))
        )
    return out


def suite_tripod(cfg: RunConfig) -> list[CheckRecord]:
    trials = cfg.trials or 500
    rng = np.random.default_rng(cfg.seed)
    out = [
        rec_eq("tripod.zero_at_equal", {}, 0.0, float(criteria.lambda_tripod(1.0, 1.0, 1.0))),
        rec_eq("tripod.basic_value", {}, 2.0, float(criteria.lambda_tripod(0.0, 1.0, 1.0))),
    ]
    sym_dev = 0.0
    chain_violations = 0
    nonneg_violations = 0
    for _ in range(trials):
        a, b, c = rng.standard_normal(3) * 3.0
        vals = [
            criteria.lambda_tripod(*perm)
            for perm in itertools.permutations((a, b, c))
        ]
        scale = 1.0 + max(abs(v) for v in vals)
        sym_dev = max(sym_dev, (max(vals) - min(vals)) / scale)
        # ascending triple with a negative bottom eigenvalue but 2-nonnegative
        lo_val = -abs(rng.standard_normal())
        mid = abs(lo_val) + abs(rng.standard_normal())
        hi_val = mid + abs(rng.standard_normal())
        lam = criteria.lambda_tripod(lo_val, mid, hi_val)
        bound = (lo_val + mid) * (lo_val - hi_val) ** 2 + hi_val * (lo_val - mid) ** 2
        slack = 1e-12 * (1.0 + abs(lam) + abs(bound))
        if not (lam >= bound - slack and bound >= -slack):
            chain_violations += 1
        # generic 2-nonnegative ascending triple
        x = np.sort(rng.standard_normal(3) * 2.0)
        if x[0] + x[1] < 0:
            x = x - (x[0] + x[1]) / 2.0
        if criteria.lambda_tripod(*x) < -1e-12 * (1.0 + float(np.abs(x).max()) ** 3):
            nonneg_violations += 1
    out.append(rec_leq("tripod.symmetry_max_rel_dev", {"trials": trials}, sym_dev, 1e-12))
    out.append(rec_eq("tripod.lower_bound_chain_violations", {"trials": trials}, 0, chain_violations))
    out.append(rec_eq("tripod.2nonneg_violations", {"trials": trials}, 0, nonneg_violations))
    return out


def suite_decomp(cfg: RunConfig) -> list[CheckRecord]:
    trials = cfg.trials or 200
    out = []

    def generic_sample(trial):
        return tensor.random_curvature(generic(6), rng=_trial_rng(cfg.seed, 6, trial))

    ksp = kaehler(3)
    ualg = holonomy.by_name(ksp, "u")
    decomp._bianchi_kernel_basis(ualg)
    qsp = quaternion_kaehler(2)
    qalg = holonomy.by_name(qsp, "sp")
    decomp._bianchi_kernel_basis(qalg)

    def kaehler_sample(trial):
        return decomp.random_algebra_curvature(ualg, rng=_trial_rng(cfg.seed, 17, trial))

    def qk_sample(trial):
        return decomp.random_algebra_curvature(qalg, rng=_trial_rng(cfg.seed, 23, trial))

    def normalize(rm):
        return rm * (1.0 / np.sqrt(rm.norm_sq()))

    def split_stats(rm, decompose, part):
        """Stats of a scalar / traceless-Ricci / part split of a sample."""
        dec = decompose(normalize(rm))
        x = dec.parts[part]
        again = decompose(x)
        idem = float(np.abs(again.parts[part].matrix - x.matrix).max())
        idem = max(idem, np.sqrt(again.parts["scalar_part"].norm_sq()), np.sqrt(again.parts["ric0_part"].norm_sq()))
        return dec.residual(), dec.max_cross_inner(), idem, max(tensor.total_traces(x))

    def qk_stats(trial):
        rm = normalize(qk_sample(trial))
        dec = decomp.qk_decompose(rm, qalg)
        r0 = dec.parts["hyperkaehler_part"]
        return dec.residual(), dec.max_cross_inner(), abs(tensor.scalar(r0))

    split_cols = ("residual", "orthogonality", "idempotence", "trace_residual")
    for label, fn, cols in (
        ("generic", lambda t: split_stats(generic_sample(t), decomp.weyl_decompose, "weyl"), split_cols),
        ("kaehler", lambda t: split_stats(kaehler_sample(t), decomp.bochner_decompose, "bochner"), split_cols),
        ("qk", qk_stats, ("residual", "orthogonality", "scal_trace_free")),
    ):
        rows = _trial_map(fn, trials, cfg.threads)
        inputs = {"type": label, "trials": trials}
        for idx, col in enumerate(cols):
            bound = 1e-10 if col == "trace_residual" else 1e-9
            out.append(rec_leq(f"decomp[{label}].{col}_max", inputs, max(r[idx] for r in rows), bound))
    return out


SUITES = {
    "hp": suite_hp,
    "wolf": suite_wolf,
    "grassmann": suite_grassmann,
    "weyl-norm": suite_weyl_norm,
    "bochner-norm": suite_bochner_norm,
    "qk-ratio": suite_qk_ratio,
    "tripod": suite_tripod,
    "decomp": suite_decomp,
}


def cmd_verify(cfg: RunConfig) -> tuple[Report, int]:
    names = list(SUITES) if cfg.suite in (None, "all") else [cfg.suite]
    for name in names:
        if name not in SUITES:
            raise GeometryError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    report = Report(command="verify", config=cfg.echo())
    start = time.monotonic()
    for name in names:
        report.records.extend(SUITES[name](cfg))
    report.wall_seconds = time.monotonic() - start
    return report, (0 if report.passed else 1)


# ---------------------------------------------------------------------------
# spectrum


def _build_model(cfg: RunConfig):
    """Returns (tensor, algebra or None for full-space spectra)."""
    name = (cfg.model or "").replace("_", "-")
    m = cfg.m[0] if cfg.m else None
    n = cfg.n[0] if cfg.n else None
    if name in ("hp", "wolf"):
        if m is None:
            raise GeometryError(f"spectrum --model {name} needs --m")
        rm = decomp.hp(m) if name == "hp" else decomp.wolf(m)
        return rm, holonomy.by_name(rm.space, "sp")
    if name == "grassmann":
        if cfg.p is None or cfg.q is None:
            raise GeometryError("spectrum --model grassmann needs --p and --q")
        return decomp.grassmannian(cfg.p, cfg.q), None
    if name == "sphere":
        if n is None:
            raise GeometryError("spectrum --model sphere needs --n")
        return decomp.sphere(n), None
    if name == "const-hol":
        if m is None:
            raise GeometryError("spectrum --model const-hol needs --m")
        return decomp.const_hol(m), None
    raise GeometryError(f"unknown model {cfg.model!r}")


def cmd_spectrum(cfg: RunConfig) -> tuple[Report, int]:
    rm, alg = _build_model(cfg)
    op = tensor.to_operator(rm)
    domain = "full"
    if alg is not None:
        op = holonomy.project(op, alg)
        domain = alg.name
    spec = op.spectrum()
    mults = [[v, c] for v, c in spec.multiplicities(GAP)]
    report = Report(command="spectrum", config=cfg.echo())
    report.records.append(
        CheckRecord(
            name=f"spectrum[{cfg.model}]",
            inputs={"domain": domain, "dim": int(op.matrix.shape[0])},
            expected=None,
            actual={"multiplicities": mults, "eigenvalues": [float(v) for v in spec.values]},
            tolerance=None,
            passed=True,
        )
    )
    return report, 0


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(cfg: RunConfig) -> tuple[Report, int]:
    if not cfg.input_path:
        raise GeometryError("decompose needs an input tensor file")
    size = os.path.getsize(cfg.input_path)
    if size > MAX_INPUT_BYTES:
        raise GeometryError(
            f"{cfg.input_path} has {size} bytes, above the cap of {MAX_INPUT_BYTES}"
        )
    rm = tensor.load_tensor(cfg.input_path)
    kind = holonomy.holonomy_kind(cfg.holonomy or rm.space.kind)
    if kind != rm.space.kind:
        raise GeometryError(
            f"tensor carries a {rm.space.kind} structure, cannot decompose as {kind}"
        )

    alg = holonomy.by_name(rm.space, kind)
    if kind == "generic":
        dec = decomp.weyl_decompose(rm)
    elif kind == "kaehler":
        dec = decomp.bochner_decompose(rm)
    else:
        dec = decomp.qk_decompose(rm, alg)
    try:
        preset = criteria.preset_for(alg)
    except GeometryError:
        preset = None

    rop = holonomy.project(tensor.to_operator(rm), alg)
    spec = rop.spectrum()
    crit = None
    if preset is not None:
        # noise-floor slack so exact boundary cases don't flap on rounding
        slack = 1e-12 * (1.0 + float(np.abs(spec.values).max()))
        res = criteria.weighted_criterion(spec.values, preset, tol=slack)
        crit = {"label": preset.label, "k": preset.k, "weight": preset.weight,
                "value": res.value, "satisfied": res.satisfied}

    payload = dec.summary()
    payload["trace_residuals"] = {
        name: tensor.total_traces(part) for name, part in dec.parts.items()
    }
    payload["criterion"] = crit
    if kind == "qk":
        rest_sq = dec.parts["hyperkaehler_part"].norm_sq()
        payload["pure_model"] = bool(rest_sq <= 1e-10 * max(1.0, rm.norm_sq()))

    report = Report(command="decompose", config=cfg.echo())
    report.records.append(
        CheckRecord(
            name=f"decompose[{kind}]",
            inputs={"n": rm.space.n, "structure": rm.space.kind},
            expected=None,
            actual=payload,
            tolerance=None,
            passed=True,
        )
    )
    return report, 0


# ---------------------------------------------------------------------------
# sample


def cmd_sample(cfg: RunConfig) -> tuple[Report, int]:
    kind = holonomy.holonomy_kind(cfg.holonomy or "so")
    if kind == "generic":
        space = generic(cfg.n[0] if cfg.n else 4)
    else:
        m = cfg.m[0] if cfg.m else 2
        space = kaehler(m) if kind == "kaehler" else quaternion_kaehler(m)
    alg = holonomy.by_name(space, kind)
    if alg.dim < 2:
        raise GeometryError(
            f"sample reads the two smallest eigenvalues, {alg.name} has dimension {alg.dim}"
        )
    decomp._bianchi_kernel_basis(alg)
    trials = cfg.trials or 100
    try:
        preset = criteria.preset_for(alg)
    except GeometryError:
        preset = None
    shift = cfg.condition == "2-nonnegative"

    def one(trial: int) -> dict:
        rm = decomp.random_algebra_curvature(alg, rng=_trial_rng(cfg.seed, 3, trial))
        rm = rm * (1.0 / np.sqrt(rm.norm_sq()))
        shift_t = 0.0
        if shift:
            rm, shift_t = criteria.two_nonnegative_shift(rm, alg)
        rop = holonomy.project(tensor.to_operator(rm), alg)
        lam = rop.spectrum().values
        row = {
            "trial": trial,
            "lambda_min_1": float(lam[0]),
            "lambda_min_2": float(lam[1]),
            "lambda_min_3": float(lam[2]) if len(lam) > 2 else float("nan"),
            "lambda_max": float(lam[-1]),
            "curvature_term_self": criteria.curvature_term_self(rop),
        }
        if shift:
            row["shift"] = shift_t
        if preset is not None:
            slack = 1e-12 * (1.0 + float(np.abs(lam).max()))
            res = criteria.weighted_criterion(lam, preset, tol=slack)
            row["criterion_value"] = res.value
            row["criterion_satisfied"] = res.satisfied
        if kind == "qk":
            hr = criteria.hat_ratio_qk(rm, alg)
            row["hat_ratio"] = float("nan") if hr.pure_multiple else hr.ratio
        return row

    rows = _trial_map(one, trials, cfg.threads)
    report = Report(command="sample", config=cfg.echo())
    for row in rows:
        report.records.append(
            CheckRecord(
                name=f"sample[{row['trial']}]",
                inputs={"algebra": alg.name},
                expected=None,
                actual=row,
                tolerance=None,
                passed=True,
            )
        )
    return report, 0


def _sample_csv(report: Report) -> str:
    rows = [r.actual for r in report.records]
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(_scalar_text(row.get(c))) for c in cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args reads it and
    leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="curvlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        p.add_argument("--out", default=None)
        p.add_argument("--m", default=None, help="value or inclusive range a..b")
        p.add_argument("--n", default=None, help="value or inclusive range a..b")
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)

    pv = sub.add_parser("verify", help="run a named check suite")
    common(pv)
    pv.add_argument("--suite", default="all")

    ps = sub.add_parser("spectrum", help="eigenvalue table of a model operator")
    common(ps)
    ps.add_argument("--model", required=True,
                    choices=("hp", "wolf", "grassmann", "sphere", "const-hol"))

    pd = sub.add_parser("decompose", help="decompose a stored tensor")
    common(pd)
    pd.add_argument("input", help="tensor JSON file")
    pd.add_argument("--holonomy", "--algebra", dest="holonomy", default=None)

    pp = sub.add_parser("sample", help="randomized property sweep")
    common(pp, fmt_default="csv")
    pp.add_argument("--holonomy", "--algebra", dest="holonomy", default="so")
    pp.add_argument("--condition", choices=("none", "2-nonnegative"), default="none")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, seed=args.seed, tol=args.tol,
                    format=args.format, out=args.out, threads=_thread_count())
    cfg.m = parse_range(args.m) if args.m else None
    cfg.n = parse_range(args.n) if args.n else None
    for flag, rng, cap in (("--m", cfg.m, MAX_M), ("--n", cfg.n, MAX_N)):
        if rng is not None and rng[1] > cap:
            raise GeometryError(f"{flag} {rng[1]} is above the size cap {cap}")
    for flag, value in (("--p", args.p), ("--q", args.q)):
        if value is not None and value < 1:
            raise GeometryError(f"{flag} must be at least 1")
    if args.p is not None and args.q is not None and args.p * args.q > 4 * MAX_M:
        raise GeometryError(
            f"--p {args.p} --q {args.q} is dimension {args.p * args.q}, above the size cap {4 * MAX_M}"
        )
    cfg.p = args.p
    cfg.q = args.q
    cfg.trials = args.trials
    if cfg.trials is not None and cfg.trials < 1:
        raise GeometryError("--trials must be at least 1")
    if cfg.seed < 0:
        raise GeometryError("--seed must be a non-negative integer")
    cfg.suite = getattr(args, "suite", None)
    cfg.model = getattr(args, "model", None)
    cfg.holonomy = getattr(args, "holonomy", None)
    condition = getattr(args, "condition", None)
    cfg.condition = None if condition in (None, "none") else condition
    cfg.input_path = getattr(args, "input", None)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        start = time.monotonic()
        if cfg.command == "verify":
            report, code = cmd_verify(cfg)
        elif cfg.command == "spectrum":
            report, code = cmd_spectrum(cfg)
        elif cfg.command == "decompose":
            report, code = cmd_decompose(cfg)
        else:
            report, code = cmd_sample(cfg)
        report.wall_seconds = time.monotonic() - start
        if cfg.command == "sample" and cfg.format == "csv":
            text = _sample_csv(report)
        elif cfg.format == "csv":
            text = report.to_csv()
        else:
            text = report.to_json()
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        s = report.summary()
        print(
            f"{cfg.command}: {s['passed']}/{s['total']} checks passed "
            f"in {report.wall_seconds:.2f}s",
            file=sys.stderr,
        )
        return code
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
