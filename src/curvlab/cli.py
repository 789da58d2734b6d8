"""Command-line front end: verification suites, spectra, decomposition, sweeps.

Reports are deterministic for a fixed (config, seed) pair and byte-identical
across repeated runs and BLAS thread counts (main holds numpy's OpenBLAS at
one thread for the command); wall-clock timing goes to stderr and is kept out
of the serialized report for that reason.  Floats are rendered with 17
significant digits so reports are diffable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import criteria, decomp, euclid, holonomy, tensor
from .euclid import EuclideanSpace, GeometryError, generic, kaehler, quaternion_kaehler

GAP = 1e-6  # eigenvalue clustering threshold, relative to max|eigenvalue|
RTOL = 1e-8  # relative tolerance of the closed-form checks
ADJ_TOL = 1e-7  # relative tolerance of matching a published closed form

# Size caps, checked before any work starts; a request above one is a usage
# error (exit 2).  Bianchi kernels grow like n^8 and hat stacks like n^6, so
# these are the sizes the oracle is built and timed for: so(n) up to n = 12,
# u(m) and sp(m)+sp(1) up to m = 6 (n = 24), and a Grassmannian or a
# decompose input of dimension at most 24 (4 * MAX_M, tensor.MAX_FILE_N);
# tensor.load_tensor checks a decompose input's bytes, n and component count.
MAX_N = 12  # --n
MAX_M = 6  # --m
assert tensor.MAX_FILE_N == 4 * MAX_M
MAX_TRIALS = 10**5  # --trials: a sample row holds about 670 B until rendered, 67 MB at the cap


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
    records: list = field(default_factory=list, init=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        ok = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": ok, "failed": len(self.records) - ok}

    def canonical(self) -> dict:
        """The report as the values _render writes, each record its
        CheckRecord fields in declaration order (a view, not a copy)."""
        return {
            "command": self.command,
            "config": self.config,
            "records": [vars(r) for r in self.records],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return _render(self.canonical()) + "\n"

    def to_csv(self) -> str:
        return _csv(("name", "passed", "expected", "actual", "tolerance", "inputs"), map(vars, self.records))


def _render(x) -> str:
    """Deterministic JSON with 17-significant-digit floats, of the python
    values a record holds; anything else, a numpy bool or array among them,
    raises GeometryError."""
    if type(x) is float:
        return "%.17g" % x
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
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in x.items()) + "}"
    raise GeometryError(f"cannot serialize {type(x).__name__}")


# A CSV cell's text by the exact type of its value: the text _render gives a
# python float, bool or int, none of which needs quoting; any other value
# goes through _other_cell.
_CELL_TEXT = {float: "%.17g".__mod__, bool: ("false", "true").__getitem__, int: str}


def _other_cell(value) -> str:
    """The _render text of a value, None empty and a string unquoted, in
    CSV quotes when it holds a comma, a quote or a newline."""
    s = "" if value is None else value if isinstance(value, str) else _render(value)
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv(columns, rows) -> str:
    """The one CSV writer: a header of columns, then each row (a dict) read
    at them, a cell by _CELL_TEXT."""
    cell = _CELL_TEXT.get
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([cell(type(v), _other_cell)(v) for v in map(row.get, columns)]))
    return "\n".join(lines) + "\n"


# record constructors


def _close(actual, expected, rtol):
    """The one rule for a value (or an array of them) matching a closed form."""
    return abs(actual - expected) <= rtol * (1.0 + abs(expected))


def rec_close(name, inputs, expected, actual, rtol) -> CheckRecord:
    return CheckRecord(name, inputs, float(expected), float(actual), rtol, bool(_close(actual, expected, rtol)))


def rec_leq(name, inputs, actual, bound) -> CheckRecord:
    return CheckRecord(name, inputs, f"<= {bound:g}", float(actual), bound, bool(actual <= bound))


def rec_eq(name, inputs, expected, actual) -> CheckRecord:
    return CheckRecord(name, inputs, expected, actual, None, expected == actual)


def rec_bool(name, inputs, passed, expected, actual) -> CheckRecord:
    return CheckRecord(name, inputs, expected, actual, None, bool(passed))


def rec_info(name, inputs, actual) -> CheckRecord:
    """A record that reports values and checks nothing."""
    return CheckRecord(name, inputs, None, actual, None, True)


def rec_mults(name, inputs, expected, actual, tol) -> CheckRecord:
    """Compare multiplicity tables [[value, count], ...] up to tol in values."""
    ok = len(expected) == len(actual) and all(
        ec == ac and abs(ev - av) <= tol for (ev, ec), (av, ac) in zip(expected, actual)
    )
    return CheckRecord(name, inputs, expected, actual, tol, ok)


def _merge_mults(pairs: list[tuple[float, int]]) -> list[list]:
    """Merge an expected (value, count) table at the clustering threshold
    GAP of SpectralData.multiplicities."""
    out: list[list] = []
    pairs = [(v, c) for v, c in pairs if c]  # an eigenvalue the model lacks
    tol = GAP * max((abs(v) for v, _ in pairs), default=0.0)
    for v, c in sorted(pairs):
        if out and v - out[-1][0] <= tol:
            out[-1][1] += c
        else:
            out.append([float(v), int(c)])
    return out


# ---------------------------------------------------------------------------
# config


# The report's config echo: the flags a command was given, in this order,
# with unset ones left out.
ECHO_KEYS = ("suite", "model", "m", "n", "p", "q", "trials", "seed", "holonomy", "condition", "input_path")


def _echo(cfg: argparse.Namespace) -> dict:
    keep = {}
    for k in ECHO_KEYS:
        v = getattr(cfg, k, None)
        if v is not None:
            keep[k] = list(v) if isinstance(v, tuple) else v
    return keep


# The size and trial flags each command selection reads (a verify suite, a
# spectrum model, a sample holonomy kind of holonomy.holonomy_kind), each
# with the least value the selection needs ("p*q" bounds the product of --p
# and --q), None where only _config_from_args's floor of 1 holds.  --seed is
# read by the sampled suites and accepted by every one, as it has a default.
FLAGS = {
    "verify": {
        "hp": {"m": 2}, "wolf": {"m": 2}, "grassmann": {"p": None, "q": None, "p*q": 2},
        "weyl-norm": {"n": 4, "trials": None}, "bochner-norm": {"m": 2, "trials": None},
        "qk-ratio": {"m": 2, "trials": None}, "tripod": {"trials": None}, "decomp": {"trials": None},
    },
    "spectrum": {
        "hp": {"m": 2}, "wolf": {"m": 2}, "const-hol": {"m": 1}, "sphere": {"n": 2},
        "grassmann": {"p": None, "q": None, "p*q": 2},
    },
    "sample": {"generic": {"n": 3, "trials": None}, "kaehler": {"m": 2, "trials": None},
               "qk": {"m": 2, "trials": None}},
}
SELECTOR = {"verify": "suite", "spectrum": "model", "sample": "holonomy"}


def _check_flags(cfg: argparse.Namespace, command: str, names: list[str]):
    """Usage errors, raised before any space, model or algebra is built: a
    size or --trials flag that no selected entry of FLAGS[command] reads,
    one of --p and --q without the other, and a value below an entry's
    least.  spectrum sizes have no defaults, so a model needs every flag it
    reads.  A message names the selection as given, or each suite of
    `verify --suite all` by its name."""
    select = f"{command} --{SELECTOR[command]} "
    given = select + getattr(cfg, SELECTOR[command])
    entries = {(given if len(names) == 1 else select + name): FLAGS[command][name] for name in names}
    m, n, p, q = (getattr(cfg, flag, None) for flag in "mnpq")
    value = {"m": m and m[0], "n": n and n[0], "p": p, "q": q, "p*q": p and q and p * q,
             "trials": getattr(cfg, "trials", None)}  # None: unset
    for flag, v in value.items():
        if v is not None and not any(flag in reads for reads in entries.values()):
            raise GeometryError(f"{given} does not read --{flag}")
    for what, reads in entries.items():
        if command == "spectrum" and any(value[flag] is None for flag in reads):
            raise GeometryError(f"{what} needs {' and '.join(f'--{f}' for f in reads if f != 'p*q')}")
        if "p" in reads and (p is None) != (q is None):
            raise GeometryError(f"{what} needs both --p and --q, or neither")
    for what, reads in entries.items():
        for flag, least in reads.items():
            if None not in (least, value[flag]) and value[flag] < least:
                raise GeometryError(f"{what} needs --{flag} of at least {least}, got {value[flag]}")


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


# One seeded stream per suite instance, numpy.random.default_rng([seed, id,
# size]): the id is fixed per suite, per decomp row and per `sample`
# holonomy kind, and the size is the instance's n or m (3, the triples, for
# tripod).  The triple is the entropy itself, so no field spills into
# another, and as no size is 0 no key is another's with a trailing zero,
# which SeedSequence would not tell apart.  Trial t of an instance is the
# t-th block of draws of its stream, whatever the stacks it is drawn in.
STREAM_IDS = {
    "weyl-norm": 1, "bochner-norm": 2, "qk-ratio": 3, "tripod": 4,
    "decomp[generic]": 5, "decomp[kaehler]": 6, "decomp[qk]": 7,
    "sample[generic]": 8, "sample[kaehler]": 9, "sample[qk]": 10,
}


def _stream(seed: int, instance: str, size: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAM_IDS[instance], size])


def _draws(seed: int, instance: str, size: int, trials: int, per: int, draw):
    """draw(rng, count=...) for each stack of trials 0..trials-1, per at a
    time, from the instance's one stream: a sampler given a count draws one
    stack, so trial t is the t-th block of the stream's draws."""
    rng = _stream(seed, instance, size)
    for lo in range(0, trials, per):
        yield draw(rng, count=min(per, trials - lo))


# ---------------------------------------------------------------------------
# verify suites


def suite_hp(cfg: argparse.Namespace) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 4)
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
        out.append(rec_mults(f"hp[{m}].spectrum", inputs, expected, actual, RTOL))
        out.append(rec_close(f"hp[{m}].operator_norm_sq", inputs, 16.0 * m * (5 * m + 1), op.norm_sq(), RTOL))
        out.append(rec_close(f"hp[{m}].scal", inputs, 16.0 * m * (m + 2), tensor.scalar(rm), RTOL))
        out.append(rec_leq(f"hp[{m}].complement_mass", inputs, holonomy.complement_mass(op, alg), 1e-9))
        out.append(rec_leq(f"hp[{m}].invariance_defect", inputs, criteria.invariance_defect(rm, alg), 1e-9))
    return out


def suite_grassmann(cfg: argparse.Namespace) -> list[CheckRecord]:
    if cfg.p is not None:
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
        out.append(rec_mults(f"grassmann[{p},{q}].spectrum", inputs, expected, actual, RTOL))
        out.append(
            rec_close(f"grassmann[{p},{q}].scal", inputs, float(p * q * (p + q - 2)), tensor.scalar(rm), RTOL)
        )
        if p == 4:
            # same number as the quaternionic model family at m = q
            out.append(
                rec_close(f"grassmann[{p},{q}].scal_qk_crosscheck", inputs, 4.0 * q * (q + 2), tensor.scalar(rm), RTOL)
            )
    return out


def suite_wolf(cfg: argparse.Namespace) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 5)
    out = []
    for m in range(lo, hi + 1):
        rm = decomp.wolf(m)
        alg = holonomy.by_name(rm.space, "sp")
        op = tensor.to_operator(rm)
        rop = holonomy.project(op, alg)
        inputs = {"m": m}
        out.append(rec_close(f"wolf[{m}].operator_norm_sq", inputs, 2.0 * m * (7 * m - 4), op.norm_sq(), RTOL))
        out.append(rec_close(f"wolf[{m}].scal", inputs, 4.0 * m * (m + 2), tensor.scalar(rm), RTOL))
        kernel = 3 * (m - 1) + 3 * m * (m - 1) // 2
        expected = _merge_mults([(0.0, kernel), (4.0, m * (m - 1) // 2), (float(m), 6)])
        actual = [[v, c] for v, c in rop.spectrum().multiplicities(GAP)]
        out.append(rec_mults(f"wolf[{m}].spectrum", inputs, expected, actual, RTOL))
        out.append(rec_leq(f"wolf[{m}].complement_mass", inputs, holonomy.complement_mass(op, alg), 1e-9))
        r0_sq = decomp.qk_decompose(rm).parts["hyperkaehler_part"].norm_sq() / 4.0
        out.append(rec_close(f"wolf[{m}].trace_free_norm_sq", inputs, 9.0 * m * (m - 1), r0_sq, RTOL))

        hat_direct = criteria.hat_norm_direct(rm, alg)
        hat_formula = criteria.hat_norm_formula(rop)
        out.append(
            rec_leq(
                f"wolf[{m}].hat_route_gap",
                inputs,
                abs(hat_direct - hat_formula) / (1.0 + abs(hat_direct)),
                1e-8,
            )
        )
        # adjudication of the two published closed forms against the oracle
        proof = rec_close(f"wolf[{m}].hat_candidate_proof", inputs, 12.0 * m * (m - 1) * (3 * m + 4), hat_direct, ADJ_TOL)
        statement = rec_close(f"wolf[{m}].hat_candidate_statement", inputs, 36.0 * m * m * (m - 1), hat_direct, ADJ_TOL)
        out += [proof, statement]
        out.append(rec_bool(f"wolf[{m}].hat_adjudication", inputs, proof.passed ^ statement.passed,
                            "exactly one candidate matches",
                            {"matches_proof_form": proof.passed, "matches_statement_form": statement.passed,
                             "measured": hat_direct}))
        out.append(
            rec_close(f"wolf[{m}].hat_resolved_form", inputs, 36.0 * m * (m - 1) * (m + 2), hat_direct, RTOL)
        )
    return out


def _columns(stacks) -> list[np.ndarray]:
    """Per-stack tuples of (count,) arrays, joined into one array each."""
    return [np.concatenate(col) for col in zip(*stacks)]


def suite_weyl_norm(cfg: argparse.Namespace) -> list[CheckRecord]:
    lo, hi = cfg.n or (4, 8)
    trials = cfg.trials or 100
    out = []
    for n in range(lo, hi + 1):
        space = generic(n)
        alg = holonomy.by_name(space, "so")

        def stats(rng, count):
            w = decomp.weyl_decompose(tensor.random_curvature(space, rng, count)).parts["weyl"]
            ratio = 4.0 * criteria.hat_norm_direct(w, alg) / w.norm_sq()
            w_unit = w * (1.0 / np.sqrt(w.norm_sq()))
            return ratio, np.max(tensor.total_traces(w_unit), axis=0)

        stacks = _draws(cfg.seed, "weyl-norm", n, trials, holonomy.trial_chunk(space), stats)
        ratios, traces = _columns(stacks)
        target = 4.0 * (n - 1)
        dev = np.max(np.abs(ratios - target) / target)
        inputs = {"n": n, "trials": trials}
        out.append(rec_leq(f"weyl-norm[{n}].ratio_max_rel_dev", inputs, dev, RTOL))
        out.append(rec_leq(f"weyl-norm[{n}].trace_residual_max", inputs, np.max(traces), 1e-10))
    return out


def suite_bochner_norm(cfg: argparse.Namespace) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 4)
    trials = cfg.trials or 100
    out = []
    for m in range(lo, hi + 1):
        space = kaehler(m)
        alg = holonomy.by_name(space, "u")

        def stats(rng, count):
            rm = decomp.random_algebra_curvature(alg, rng, count=count)
            b = decomp.bochner_decompose(rm).parts["bochner"]
            ratio = 4.0 * criteria.hat_norm_direct(b, alg) / b.norm_sq()
            b_unit = b * (1.0 / np.sqrt(b.norm_sq()))
            other = decomp.bochner_explicit(rm)
            gap = np.abs(b.matrix - other.matrix).max(axis=(1, 2)) / (1.0 + np.abs(rm.matrix).max(axis=(1, 2)))
            return ratio, np.max(tensor.total_traces(b_unit), axis=0), gap

        stacks = _draws(cfg.seed, "bochner-norm", m, trials, holonomy.trial_chunk(space), stats)
        ratios, traces, gaps = _columns(stacks)
        target = 4.0 * (m + 1)
        dev = np.max(np.abs(ratios - target) / target)
        inputs = {"m": m, "trials": trials}
        out.append(rec_leq(f"bochner-norm[{m}].ratio_max_rel_dev", inputs, dev, RTOL))
        out.append(rec_leq(f"bochner-norm[{m}].trace_residual_max", inputs, np.max(traces), 1e-10))
        out.append(rec_leq(f"bochner-norm[{m}].route_gap_max", inputs, np.max(gaps), 1e-9))
    return out


def suite_qk_ratio(cfg: argparse.Namespace) -> list[CheckRecord]:
    lo, hi = cfg.m or (2, 4)
    trials = cfg.trials or 100
    out = []
    for m in range(lo, hi + 1):
        space = quaternion_kaehler(m)
        alg = holonomy.by_name(space, "sp")

        def ratio(rng, count):
            return criteria.hat_ratio_qk(decomp.random_algebra_curvature(alg, rng, count=count), alg).ratio

        stacks = _draws(cfg.seed, "qk-ratio", m, trials, holonomy.trial_chunk(space), ratio)
        ratios = np.concatenate(list(stacks))
        ratios = ratios[~np.isnan(ratios)]
        inputs = {"m": m, "trials": trials, "nondegenerate": len(ratios)}
        paper_form = (4.0 / 3.0) * (3 * m + 4)
        matched = int(np.sum(_close(ratios, paper_form, ADJ_TOL)))
        out.append(
            rec_bool(
                f"qk-ratio[{m}].matches_published_form",
                inputs,
                matched == len(ratios),
                f"{len(ratios)}/{len(ratios)} within {ADJ_TOL:g} of {paper_form:.10g}",
                {"matched": matched, "mean_ratio": float(np.mean(ratios))},
            )
        )
        spread = (ratios.max() - ratios.min()) / abs(np.mean(ratios))
        out.append(rec_leq(f"qk-ratio[{m}].constancy_rel_spread", inputs, spread, 1e-8))
        out.append(
            rec_close(f"qk-ratio[{m}].measured_constant", inputs, 4.0 * (m + 2), float(np.mean(ratios)), RTOL)
        )
    return out


def suite_tripod(cfg: argparse.Namespace) -> list[CheckRecord]:
    """lambda on random triples; row t of one (trials, 9) draw holds trial t's three triples."""
    trials = cfg.trials or 500
    z = _stream(cfg.seed, "tripod", 3).standard_normal((trials, 9))
    vals = np.array([criteria.lambda_tripod(*perm) for perm in itertools.permutations((z[:, :3] * 3.0).T)])
    sym_dev = np.max((vals.max(axis=0) - vals.min(axis=0)) / (1.0 + np.abs(vals).max(axis=0)))
    lo_val = -np.abs(z[:, 3])
    mid = np.abs(lo_val) + np.abs(z[:, 4])
    hi_val = mid + np.abs(z[:, 5])
    lam = criteria.lambda_tripod(lo_val, mid, hi_val)
    bound = (lo_val + mid) * (lo_val - hi_val) ** 2 + hi_val * (lo_val - mid) ** 2
    slack = 1e-12 * (1.0 + np.abs(lam) + np.abs(bound))
    chain_violations = int(np.sum(~((lam >= bound - slack) & (bound >= -slack))))
    # generic 2-nonnegative ascending triple
    x = np.sort(z[:, 6:] * 2.0, axis=1)
    low_pair = x[:, 0] + x[:, 1]
    x = np.where(low_pair[:, None] < 0, x - low_pair[:, None] / 2.0, x)
    floor = -1e-12 * (1.0 + np.abs(x).max(axis=1) ** 3)
    nonneg_violations = int(np.sum(criteria.lambda_tripod(*x.T) < floor))
    inputs = {"trials": trials}
    return [
        rec_eq("tripod.zero_at_equal", {}, 0.0, float(criteria.lambda_tripod(1.0, 1.0, 1.0))),
        rec_eq("tripod.basic_value", {}, 2.0, float(criteria.lambda_tripod(0.0, 1.0, 1.0))),
        rec_leq("tripod.symmetry_max_rel_dev", inputs, sym_dev, 1e-12),
        rec_eq("tripod.lower_bound_chain_violations", inputs, 0, chain_violations),
        rec_eq("tripod.2nonneg_violations", inputs, 0, nonneg_violations),
    ]


def suite_decomp(cfg: argparse.Namespace) -> list[CheckRecord]:
    trials = cfg.trials or 200
    out = []
    gsp = generic(6)
    ksp = kaehler(3)
    ualg = holonomy.by_name(ksp, "u")
    qsp = quaternion_kaehler(2)
    qalg = holonomy.by_name(qsp, "sp")

    def normalize(rm):
        return rm * (1.0 / np.sqrt(rm.norm_sq()))

    def split_stats(rm, decompose, part):
        """Per-trial stats of a scalar / traceless-Ricci / part split of a
        stack of samples."""
        dec = decompose(normalize(rm))
        x = dec.parts[part]
        again = decompose(x)
        idem = np.abs(again.parts[part].matrix - x.matrix).max(axis=(1, 2))
        idem = np.max([idem, np.sqrt(again.parts["scalar_part"].norm_sq()), np.sqrt(again.parts["ric0_part"].norm_sq())], axis=0)
        return dec.residual(), dec.max_cross_inner(), idem, np.max(tensor.total_traces(x), axis=0)

    def qk_stats(rm):
        dec = decomp.qk_decompose(normalize(rm))
        r0 = dec.parts["hyperkaehler_part"]
        return dec.residual(), dec.max_cross_inner(), np.abs(tensor.scalar(r0))

    split_cols = ("residual", "orthogonality", "idempotence", "trace_residual")
    for label, space, size, sample, stats, cols in (
        ("generic", gsp, 6, functools.partial(tensor.random_curvature, gsp),
         lambda rm: split_stats(rm, decomp.weyl_decompose, "weyl"), split_cols),
        ("kaehler", ksp, 3, functools.partial(decomp.random_algebra_curvature, ualg),
         lambda rm: split_stats(rm, decomp.bochner_decompose, "bochner"), split_cols),
        ("qk", qsp, 2, functools.partial(decomp.random_algebra_curvature, qalg),
         qk_stats, ("residual", "orthogonality", "scal_trace_free")),
    ):
        stacks = _draws(cfg.seed, f"decomp[{label}]", size, trials, holonomy.trial_chunk(space),
                        lambda rng, count: stats(sample(rng, count=count)))
        inputs = {"type": label, "trials": trials}
        for col, values in zip(cols, _columns(stacks)):
            bound = 1e-10 if col == "trace_residual" else 1e-9
            out.append(rec_leq(f"decomp[{label}].{col}_max", inputs, np.max(values), bound))
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


def cmd_verify(cfg: argparse.Namespace) -> tuple[Report, int]:
    if cfg.suite != "all" and cfg.suite not in SUITES:
        raise GeometryError(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITES)} or all")
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    _check_flags(cfg, "verify", names)  # every selected suite, before the first one runs
    report = Report(command="verify", config=_echo(cfg))
    for name in names:
        report.records.extend(SUITES[name](cfg))
    return report, (0 if report.passed else 1)


# ---------------------------------------------------------------------------
# spectrum


def _build_model(cfg: argparse.Namespace):
    """Returns (tensor, algebra or None for full-space spectra)."""
    if cfg.model == "grassmann":
        return decomp.grassmannian(cfg.p, cfg.q), None
    if cfg.model == "sphere":
        return decomp.sphere(cfg.n[0]), None
    if cfg.model == "const-hol":
        return decomp.const_hol(cfg.m[0]), None
    rm = decomp.hp(cfg.m[0]) if cfg.model == "hp" else decomp.wolf(cfg.m[0])
    return rm, holonomy.by_name(rm.space, "sp")


def cmd_spectrum(cfg: argparse.Namespace) -> tuple[Report, int]:
    _check_flags(cfg, "spectrum", [cfg.model])
    rm, alg = _build_model(cfg)
    op = tensor.to_operator(rm)
    domain = "full"
    if alg is not None:
        op = holonomy.project(op, alg)
        domain = alg.name
    spec = op.spectrum()
    mults = [[v, c] for v, c in spec.multiplicities(GAP)]
    report = Report(command="spectrum", config=_echo(cfg))
    report.records.append(
        rec_info(
            f"spectrum[{cfg.model}]",
            {"domain": domain, "dim": int(op.matrix.shape[0])},
            {"multiplicities": mults, "eigenvalues": [float(v) for v in spec.values]},
        )
    )
    return report, 0


# ---------------------------------------------------------------------------
# decompose


def _preset_criterion(alg):
    """The algebra's preset weighted criterion, as a function of ascending
    eigenvalues (one spectrum or a (T, d) stack) to its CriterionResult; None
    without a preset.  Looked up once per algebra, evaluated once per stack."""
    try:
        preset = criteria.preset_for(alg)
    except GeometryError:
        return None

    def evaluate(values: np.ndarray) -> criteria.CriterionResult:
        # noise-floor slack so exact boundary cases don't flap on rounding
        slack = 1e-12 * (1.0 + np.abs(values).max(axis=-1))
        return criteria.weighted_criterion(values, preset, tol=slack)

    return evaluate


def cmd_decompose(cfg: argparse.Namespace) -> tuple[Report, int]:
    rm = tensor.load_tensor(cfg.input_path)
    kind = rm.space.kind
    alg = holonomy.by_name(rm.space, kind)
    dec = {"generic": decomp.weyl_decompose, "kaehler": decomp.bochner_decompose, "qk": decomp.qk_decompose}[kind](rm)

    evaluate = _preset_criterion(alg)
    crit = None
    if evaluate is not None:
        res = evaluate(holonomy.project(tensor.to_operator(rm), alg).spectrum().values)
        preset = res.criterion
        crit = {"label": preset.label, "k": preset.k, "weight": preset.weight,
                "value": res.value, "satisfied": res.satisfied}

    payload = dec.summary()
    payload["trace_residuals"] = {
        name: tensor.total_traces(part) for name, part in dec.parts.items()
    }
    payload["criterion"] = crit
    if kind == "qk":
        rest_sq = dec.parts["hyperkaehler_part"].norm_sq() / 4.0
        payload["pure_model"] = bool(decomp.pure_multiple(rest_sq, rm.norm_sq() / 4.0))

    report = Report(command="decompose", config=_echo(cfg))
    report.records.append(
        rec_info(f"decompose[{kind}]", {"n": rm.space.n, "structure": kind}, payload)
    )
    return report, 0


# ---------------------------------------------------------------------------
# sample


def _sample_chunk(space: EuclideanSpace) -> int:
    """Trials per stack of `sample`, sized by its operators: about eight
    (T, D, D) stacks are live at once (the draw, its normalized and shifted
    copies, the restriction, its symmetrized copy and its eigenvectors), so
    a stack holds a quarter of holonomy.trial_chunk, which is half of
    _CHUNK_BYTES of operators, rounded up, as a stack's fixed cost (the
    shift, `hat_ratio_qk`, the solves) outweighs a trial more.  The rotated
    structure constants, (T, d, d, d), are the one larger array, and
    `criteria.curvature_term_self` rotates them in sub-chunks of
    HolonomyAlgebra.rotation_trials trials."""
    return -(-holonomy.trial_chunk(space) // 4)


def cmd_sample(cfg: argparse.Namespace) -> tuple[Report, int]:
    kind = holonomy.holonomy_kind(cfg.holonomy)
    _check_flags(cfg, "sample", [kind])
    # --n sizes a generic space, --m the others by their blocks (_check_flags
    # rejects the other one); the defaults are so(4), u(2) and sp(2)+sp(1)
    size = (cfg.n or cfg.m or (4 if kind == "generic" else 2,))[0]
    space = euclid.standard_space(kind, size * euclid._KINDS[kind][1])
    alg = holonomy.by_name(space, kind)
    criterion = _preset_criterion(alg)
    shift = cfg.condition == "2-nonnegative"
    inputs = {"algebra": alg.name}  # one dict, shared by the run's records
    report = Report(command="sample", config=_echo(cfg))
    for rm in _draws(cfg.seed, f"sample[{kind}]", size, cfg.trials or 100, _sample_chunk(space),
                     functools.partial(decomp.random_algebra_curvature, alg)):
        rm = rm * (1.0 / np.sqrt(rm.norm_sq()))
        if shift:
            rm, shift_t = criteria.two_nonnegative_shift(rm, alg)
        rop = holonomy.project(tensor.to_operator(rm), alg)
        lam = rop.spectrum().values
        cols = {
            "lambda_min_1": lam[:, 0],
            "lambda_min_2": lam[:, 1],
            "lambda_min_3": lam[:, 2],
            "lambda_max": lam[:, -1],
            "curvature_term_self": criteria.curvature_term_self(rop),
        }
        if shift:
            cols["shift"] = shift_t
        if criterion is not None:
            res = criterion(lam)
            cols["criterion_value"] = res.value
            cols["criterion_satisfied"] = res.satisfied
        if kind == "qk":
            cols["hat_ratio"] = criteria.hat_ratio_qk(rm, alg).ratio
        # one tolist() per column: the python floats and bools .item() gives per cell
        keys = ("trial", *cols)
        first = len(report.records)
        for values in zip(range(first, first + len(lam)), *(v.tolist() for v in cols.values())):
            report.records.append(
                CheckRecord(f"sample[{values[0]}]", inputs, None, dict(zip(keys, values)), None, True)
            )
    return report, 0


def _sample_csv(report: Report) -> str:
    """The sample rows as CSV, a column per key of a row."""
    return _csv(list(report.records[0].actual), [r.actual for r in report.records])


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args reads it and
    leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="curvlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    size = {"help": "value, or an inclusive range a..b on verify"}
    shared = {"seed": {"type": int, "default": 42}, "m": size, "n": size,
              "p": {"type": int}, "q": {"type": int}, "trials": {"type": int}}

    def flags(p, names, fmt_default="json"):
        """Give a command the shared flags it reads, and --format and --out."""
        for name in names:
            p.add_argument(f"--{name}", **shared[name])
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        p.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run a named check suite")
    flags(pv, ("seed", "m", "n", "p", "q", "trials"))
    pv.add_argument("--suite", default="all")

    ps = sub.add_parser("spectrum", help="eigenvalue table of a model operator")
    flags(ps, ("m", "n", "p", "q"))
    ps.add_argument("--model", required=True,
                    choices=("hp", "wolf", "grassmann", "sphere", "const-hol"))

    pd = sub.add_parser("decompose", help="decompose a stored tensor by its own structure")
    flags(pd, ())
    pd.add_argument("input_path", metavar="input", help="tensor JSON file")

    pp = sub.add_parser("sample", help="randomized property sweep")
    flags(pp, ("seed", "m", "n", "trials"), fmt_default="csv")
    pp.add_argument("--holonomy", "--algebra", dest="holonomy", default="so")
    pp.add_argument("--condition", choices=("none", "2-nonnegative"), default="none")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags before any work starts and return them, with
    --m and --n as (lo, hi) ranges and --condition none as None."""
    for flag, cap in (("m", MAX_M), ("n", MAX_N)):
        text = getattr(args, flag, None)
        if text is None:
            continue
        lo, hi = parse_range(text)
        if hi > cap:
            raise GeometryError(f"--{flag} {hi} is above the size cap {cap}")
        if lo != hi and args.command != "verify":
            raise GeometryError(f"{args.command} takes one value of --{flag}, got the range {text!r}")
        setattr(args, flag, (lo, hi))
    p, q, trials = (getattr(args, flag, None) for flag in ("p", "q", "trials"))
    for flag, value in (("p", p), ("q", q), ("trials", trials)):  # the floor of every count; FLAGS has the rest
        if value is not None and value < 1:
            raise GeometryError(f"--{flag} must be at least 1")
    if p is not None and q is not None and p * q > 4 * MAX_M:
        raise GeometryError(f"--p {p} --q {q} is dimension {p * q}, above the size cap {4 * MAX_M}")
    if trials is not None and trials > MAX_TRIALS:
        raise GeometryError(f"--trials {trials} is above the cap {MAX_TRIALS}")
    if getattr(args, "seed", 0) < 0:
        raise GeometryError("--seed must be a non-negative integer")
    if getattr(args, "condition", None) == "none":
        args.condition = None
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        start = time.monotonic()
        with euclid._one_blas_thread() as held:
            if not held:
                print("note: numpy's OpenBLAS thread count cannot be held; report bytes may "
                      "depend on the BLAS thread count", file=sys.stderr)
            if cfg.command == "verify":
                report, code = cmd_verify(cfg)
            elif cfg.command == "spectrum":
                report, code = cmd_spectrum(cfg)
            elif cfg.command == "decompose":
                report, code = cmd_decompose(cfg)
            else:
                report, code = cmd_sample(cfg)
        wall = time.monotonic() - start
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
            f"in {wall:.2f}s",
            file=sys.stderr,
        )
        return code
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
