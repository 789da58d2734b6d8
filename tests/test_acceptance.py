"""Acceptance gate: one test (and one printed verdict line) per criterion.

Criteria 3 and 4 compare brute-force oracles against published closed forms
for the symmetric-space hat norm and the quaternionic hat ratio.  The oracle
disagrees with both published candidates by a clean polynomial factor, and
the measured laws are pinned by separate regression tests below, so those
two criteria fail with the full adjudication in the assertion message.
"""

import itertools

import numpy as np
import pytest

from curvlab import criteria, decomp, holonomy, tensor
from curvlab.cli import _merge_mults
from curvlab.criteria import (
    curvature_term,
    hat_norm_direct,
    hat_ratio_qk,
    invariance_defect,
    kaehler_preset,
    qk_preset,
    two_nonnegative_shift,
    weyl_preset,
    _rotated_structure,
)
from curvlab.euclid import generic, kaehler, quaternion_kaehler
from curvlab.holonomy import complement_mass, project, so_algebra, sp_sp1_algebra, u_algebra
from curvlab.tensor import scalar, to_operator, total_traces

GAP = 1e-6


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} ({label})\n{detail}"


def _spectrum_matches(op, expected_pairs, tol):
    got = op.spectrum().multiplicities(GAP)
    want = _merge_mults(expected_pairs)
    if len(got) != len(want):
        return False, got
    for (gv, gc), (wv, wc) in zip(got, want):
        if gc != wc or abs(gv - wv) > tol:
            return False, got
    return True, got


def test_criterion_1_hp_model():
    tol = 1e-8
    problems = []
    for m in range(2, 5):
        rm = decomp.hp(m)
        alg = sp_sp1_algebra(rm.space)
        rop = project(to_operator(rm), alg)
        ok_spec, got = _spectrum_matches(
            rop, [(4.0, m * (2 * m + 1)), (4.0 * m, 3)], tol
        )
        norm_ok = abs(to_operator(rm).norm_sq() - 16 * m * (5 * m + 1)) <= tol * (
            1 + 16 * m * (5 * m + 1)
        )
        scal_ok = abs(scalar(rm) - 16 * m * (m + 2)) <= tol * (1 + 16 * m * (m + 2))
        inv = invariance_defect(rm, alg)
        if not (ok_spec and norm_ok and scal_ok and inv <= 1e-9):
            problems.append((m, got, inv))
    _verdict(1, "hp model family (spectrum, norms, invariance)", not problems,
             f"failures: {problems}")


def test_criterion_2_grassmannian_family():
    tol = 1e-8
    problems = []
    for p, q in itertools.product((2, 3, 4), repeat=2):
        if p * q > 16:
            continue
        rm = decomp.grassmannian(p, q)
        op = to_operator(rm)
        d = rm.space.bivector_dim
        kernel = d - q * (q - 1) // 2 - p * (p - 1) // 2
        expected = [
            (0.0, kernel),
            (float(p), q * (q - 1) // 2),
            (float(q), p * (p - 1) // 2),
        ]
        ok_spec, got = _spectrum_matches(op, expected, tol)
        sc = p * q * (p + q - 2)
        ok_scal = abs(scalar(rm) - sc) <= tol * (1 + sc)
        if not (ok_spec and ok_scal):
            problems.append((p, q, got))
    _verdict(2, "real Grassmannian spectra and scalar curvature", not problems,
             f"failures: {problems}")


def test_criterion_3_wolf_hat_adjudication():
    tol_basic = 1e-8
    tol_match = 1e-7
    lines = []
    basics_ok = True
    adjudication_ok = True
    for m in range(2, 6):
        rm = decomp.wolf(m)
        alg = sp_sp1_algebra(rm.space)
        norm = to_operator(rm).norm_sq()
        sc = scalar(rm)
        basics_ok &= abs(norm - 2 * m * (7 * m - 4)) <= tol_basic * (
            1 + 2 * m * (7 * m - 4)
        )
        basics_ok &= abs(sc - 4 * m * (m + 2)) <= tol_basic * (1 + 4 * m * (m + 2))
        measured = hat_norm_direct(rm, alg)
        cand_a = 12.0 * m * (m - 1) * (3 * m + 4)
        cand_b = 36.0 * m * m * (m - 1)
        match_a = abs(measured - cand_a) <= tol_match * (1 + cand_a)
        match_b = abs(measured - cand_b) <= tol_match * (1 + cand_b)
        resolved = 36.0 * m * (m - 1) * (m + 2)
        lines.append(
            f"  m={m}: measured |R^|^2 = {measured:.6f}; "
            f"candidate 12m(m-1)(3m+4) = {cand_a:.0f} ({'match' if match_a else 'no match'}), "
            f"candidate 36m^2(m-1) = {cand_b:.0f} ({'match' if match_b else 'no match'}); "
            f"36m(m-1)(m+2) = {resolved:.0f} "
            f"({'match' if abs(measured - resolved) <= 1e-8 * (1 + resolved) else 'no match'})"
        )
        adjudication_ok &= match_a ^ match_b
    detail = (
        "adjudication: the brute-force hat norm of the quaternionic "
        "symmetric-space operator matches NEITHER published candidate; it "
        "follows the law 36m(m-1)(m+2) at machine precision for every m:\n"
        + "\n".join(lines)
    )
    _verdict(3, "wolf family hat norm matches exactly one published closed form",
             basics_ok and adjudication_ok, detail)


def test_criterion_4_qk_hat_ratio():
    tol = 1e-7
    trials = 100
    lines = []
    all_ok = True
    for m in range(2, 5):
        alg = sp_sp1_algebra(quaternion_kaehler(m))
        published = (4.0 / 3.0) * (3 * m + 4)
        ratios = []
        for trial in range(trials):
            rng = np.random.default_rng((97 << 20) ^ (m << 16) ^ trial)
            rm = decomp.random_algebra_curvature(alg, rng=rng)
            hr = hat_ratio_qk(rm, alg)
            assert not hr.pure_multiple
            ratios.append(hr.ratio)
        matched = sum(1 for r in ratios if abs(r - published) <= tol * published)
        mean = float(np.mean(ratios))
        spread = max(ratios) - min(ratios)
        lines.append(
            f"  m={m}: {matched}/{trials} samples match (4/3)(3m+4) = "
            f"{published:.6f}; measured ratio = {mean:.12f} "
            f"(spread {spread:.2e}), equals 4(m+2) = {4 * (m + 2)}"
        )
        all_ok &= matched == trials
    detail = (
        "adjudication: the hat-to-trace-free ratio is constant on every "
        "sample but equals 4(m+2), not the published (4/3)(3m+4):\n"
        + "\n".join(lines)
    )
    _verdict(4, "quaternionic hat ratio equals the published constant", all_ok, detail)


def test_criterion_5_trace_free_hat_norms():
    rel = 1e-8
    trace_bound = 1e-10
    problems = []
    for n in range(4, 9):
        space = generic(n)
        alg = so_algebra(space)
        target = 4.0 * (n - 1)
        for trial in range(100):
            rng = np.random.default_rng((11 << 20) ^ (n << 12) ^ trial)
            rm = tensor.random_curvature(space, rng=rng)
            w = decomp.weyl_decompose(rm).parts["weyl"]
            ratio = 4.0 * hat_norm_direct(w, alg) / w.norm_sq()
            w_unit = w * (1.0 / np.sqrt(w.norm_sq()))
            if abs(ratio - target) > rel * target or max(
                total_traces(w_unit)
            ) > trace_bound:
                problems.append(("weyl", n, trial, ratio))
    for m in range(2, 5):
        space = kaehler(m)
        alg = u_algebra(space)
        target = 4.0 * (m + 1)
        for trial in range(100):
            rng = np.random.default_rng((13 << 20) ^ (m << 12) ^ trial)
            rm = decomp.random_algebra_curvature(alg, rng=rng)
            b = decomp.bochner_decompose(rm).parts["bochner"]
            ratio = 4.0 * hat_norm_direct(b, alg) / b.norm_sq()
            b_unit = b * (1.0 / np.sqrt(b.norm_sq()))
            if abs(ratio - target) > rel * target or max(
                total_traces(b_unit)
            ) > trace_bound:
                problems.append(("bochner", m, trial, ratio))
    _verdict(5, "hat norms of trace-free parts: 4(n-1) and 4(m+1) laws",
             not problems, f"failures: {problems[:5]}")


def test_criterion_6_positivity_property():
    rel = 1e-8
    reps = [
        so_algebra(generic(5)),
        u_algebra(kaehler(3)),
        sp_sp1_algebra(quaternion_kaehler(2)),
    ]
    problems = []
    for alg in reps:
        for trial in range(500):
            rng = np.random.default_rng((29 << 24) ^ (alg.dim << 16) ^ trial)
            rm = decomp.random_algebra_curvature(alg, rng=rng)
            rm, _ = two_nonnegative_shift(rm, alg)
            op = project(to_operator(rm), alg)
            lam, cp = _rotated_structure(op, None)
            diffs = (lam[:, None] - lam[None, :]) ** 2
            self_route = float(np.einsum("g,ab,gab->", lam, diffs, cp**2))
            scale = float(np.einsum("g,ab,gab->", np.abs(lam), diffs, cp**2))
            ct = curvature_term(op, rm)
            agree_scale = 1.0 + max(abs(self_route), abs(ct.value))
            if self_route < -1e-9 * (1.0 + scale):
                problems.append((alg.name, trial, "negative term", self_route))
            if ct.spread > rel * agree_scale:
                problems.append((alg.name, trial, "two-route", ct.spread))
            if abs(self_route - ct.value) > rel * agree_scale:
                problems.append((alg.name, trial, "three-route",
                                 abs(self_route - ct.value)))
    _verdict(6, "2-nonnegative samples have nonnegative curvature term, "
                "all routes agree", not problems, f"failures: {problems[:5]}")


def test_criterion_7_preset_weights():
    ok = True
    for n in range(4, 12):
        w = weyl_preset(n).weight
        ok &= w == (0.0 if n % 2 else 0.5)
    for m in range(2, 10):
        ok &= kaehler_preset(m).weight == (0.0 if m % 2 else 0.5)
        ok &= qk_preset(m).weight == (1.0 / 6.0 if m % 2 else 2.0 / 3.0)
    _verdict(7, "criterion preset weights evaluate exactly", ok)


def test_criterion_8_decomposition_suite():
    problems = []

    def check(dec, scal_free_part=None):
        if dec.residual() > 1e-9:
            return f"residual {dec.residual():.2e}"
        if dec.max_cross_inner() > 1e-9:
            return f"cross inner {dec.max_cross_inner():.2e}"
        if scal_free_part is not None and abs(scalar(dec.parts[scal_free_part])) > 1e-9:
            return f"scal of {scal_free_part} nonzero"
        return None

    for trial in range(200):
        rng = np.random.default_rng((31 << 20) ^ trial)
        rm = tensor.random_curvature(generic(6), rng=rng)
        rm = rm * (1.0 / np.sqrt(rm.norm_sq()))
        dec = decomp.weyl_decompose(rm)
        w = dec.parts["weyl"]
        err = check(dec, "weyl")
        again = decomp.weyl_decompose(w).parts["weyl"]
        if err is None and np.abs(again.components - w.components).max() > 1e-9:
            err = "weyl not idempotent"
        if err:
            problems.append(("generic", trial, err))

    ualg = u_algebra(kaehler(3))
    for trial in range(200):
        rng = np.random.default_rng((37 << 20) ^ trial)
        rm = decomp.random_algebra_curvature(ualg, rng=rng)
        rm = rm * (1.0 / np.sqrt(rm.norm_sq()))
        dec = decomp.bochner_decompose(rm)
        b = dec.parts["bochner"]
        err = check(dec, "bochner")
        again = decomp.bochner_decompose(b).parts["bochner"]
        if err is None and np.abs(again.components - b.components).max() > 1e-9:
            err = "bochner not idempotent"
        if err:
            problems.append(("kaehler", trial, err))

    qalg = sp_sp1_algebra(quaternion_kaehler(2))
    for trial in range(200):
        rng = np.random.default_rng((41 << 20) ^ trial)
        rm = decomp.random_algebra_curvature(qalg, rng=rng)
        rm = rm * (1.0 / np.sqrt(rm.norm_sq()))
        dec = decomp.qk_decompose(rm, qalg)
        err = check(dec, "hyperkaehler_part")
        if err:
            problems.append(("qk", trial, err))

    _verdict(8, "decomposition residuals, orthogonality, idempotence, "
                "trace-free scalar", not problems, f"failures: {problems[:5]}")


# ---------------------------------------------------------------------------
# regression pins for the measured laws behind the two red criteria


def test_measured_wolf_hat_law():
    for m in range(2, 6):
        rm = decomp.wolf(m)
        alg = sp_sp1_algebra(rm.space)
        measured = hat_norm_direct(rm, alg)
        assert measured == pytest.approx(36.0 * m * (m - 1) * (m + 2), rel=1e-10)
        # trace-free part follows 9m(m-1), so the measured ratio is 4(m+2)
        r0_sq = decomp.qk_decompose(rm, alg).parts["hyperkaehler_part"].norm_sq() / 4.0
        assert r0_sq == pytest.approx(9.0 * m * (m - 1), rel=1e-10)
        assert measured / r0_sq == pytest.approx(4.0 * (m + 2), rel=1e-10)


def test_measured_qk_ratio_law():
    for m in (2, 3):
        alg = sp_sp1_algebra(quaternion_kaehler(m))
        for seed in range(5):
            rm = decomp.random_algebra_curvature(alg, seed=seed)
            hr = hat_ratio_qk(rm, alg)
            assert hr.ratio == pytest.approx(4.0 * (m + 2), rel=1e-9)
