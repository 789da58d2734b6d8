"""Stacks of trials: every per-sample kernel on a (T, D, D) stack equals its
one-trial calls to the bit, a bad trial in a stack is caught with the
message the one-trial check gives, and the verify suites and `sample` run
their kernels once per chunk of trials within the chunk budget."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from conftest import bianchi_sum, pin_note, rotated_kaehler, rotated_structure

from curvlab import cli, criteria, decomp, euclid, holonomy, tensor
from curvlab.euclid import _SYMMETRY_RTOL, GeometryError, _symmetrized, generic, kaehler, quaternion_kaehler
from curvlab.tensor import SymmetryError, to_operator

CASES = {
    **{f"so{n}": (lambda request, n=n: holonomy.so_algebra(generic(n))) for n in range(4, 9)},
    **{f"u{m}": (lambda request, m=m: holonomy.u_algebra(kaehler(m))) for m in range(2, 5)},
    **{f"sp{m}": (lambda request, m=m: holonomy.sp_sp1_algebra(quaternion_kaehler(m))) for m in range(2, 5)},
    "u3_rotated": lambda request: holonomy.u_algebra(rotated_kaehler(3)),
    "u3_swapped": lambda request: request.getfixturevalue("u3_swapped"),
}


def stream(seed: int = 11) -> np.random.Generator:
    return np.random.default_rng(seed)


def trial_count(alg) -> int:
    """Trials that end in a ragged hat chunk: one more than a chunk holds,
    or seven, part of one chunk, where a chunk holds more."""
    return alg.chunk_trials + 1 if alg.chunk_trials < 7 else 7


def sample(alg, rng, count=None):
    """The sampler the suites use on alg: generic tensors on so(n)."""
    if alg.space.kind == "generic":
        return tensor.random_curvature(alg.space, rng, count)
    return decomp.random_algebra_curvature(alg, rng, count=count)


def same(stacked, singles):
    """stacked is the values of singles, stacked on a leading axis, bit for bit."""
    singles = [np.asarray(x, dtype=float) for x in singles]
    return np.array_equal(np.asarray(stacked, dtype=float), np.stack(singles))


def same_parts(stacked, singles):
    assert list(stacked.parts) == list(singles[0].parts)
    for name in stacked.parts:
        assert same(stacked.parts[name].matrix, [d.parts[name].matrix for d in singles]), name
        assert stacked.parts[name].matrix.flags.c_contiguous, name
    for name in stacked.coefficients:
        assert same(np.broadcast_to(stacked.coefficients[name], len(singles)),
                    [d.coefficients[name] for d in singles]), name
    assert same(stacked.residual(), [d.residual() for d in singles])
    assert same(stacked.max_cross_inner(), [d.max_cross_inner() for d in singles])


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_kernels_are_the_one_trial_calls(case, request):
    alg = CASES[case](request)
    trials = trial_count(alg)
    # a stack drawn in one call is the consecutive one-trial draws of the
    # stream, and so is a stack drawn in two calls
    stack = sample(alg, stream(), trials)
    rng = stream()
    singles = [sample(alg, rng) for _ in range(trials)]
    rng = stream()
    split = [sample(alg, rng, 1), sample(alg, rng, trials - 1)]
    assert same(np.concatenate([s.matrix for s in split]), [s.matrix for s in singles])
    assert stack.matrix.shape == (trials,) + singles[0].matrix.shape
    assert same(stack.matrix, [s.matrix for s in singles])

    # traces, norms and multiples
    assert same(tensor.scalar(stack), [tensor.scalar(s) for s in singles])
    assert same(tensor.ricci(stack), [tensor.ricci(s) for s in singles])
    traces = tensor.total_traces(stack)
    for k, column in enumerate(traces):
        assert same(column, [tensor.total_traces(s)[k] for s in singles])
    assert same(stack.norm_sq(), [s.norm_sq() for s in singles])
    assert same(stack.inner(stack), [s.inner(s) for s in singles])
    factors = 1.0 / np.sqrt(stack.norm_sq())
    assert same((stack * factors).matrix, [(s * f).matrix for s, f in zip(singles, factors)])
    ric = tensor.ricci(stack)
    g = np.eye(alg.space.n)
    assert same(tensor._kn_matrix(ric, g), [tensor._kn_matrix(r, g) for r in ric])
    assert same(tensor._pair_outer(ric, g), [tensor._pair_outer(r, g) for r in ric])
    assert same(tensor._pair_outer(g, ric), [tensor._pair_outer(g, r) for r in ric])

    # checks pass on the stack as on each trial
    tensor.check_operator_symmetries(stack.matrix)
    assert same(holonomy.complement_mass(to_operator(stack), alg),
                [holonomy.complement_mass(to_operator(s), alg) for s in singles])

    # hats: every hat formed, chunked over (trial, generator)
    assert same(criteria._hat_row_norms_sq(stack, alg), [criteria._hat_row_norms_sq(s, alg) for s in singles])
    assert same(criteria.hat_norm_direct(stack, alg), [criteria.hat_norm_direct(s, alg) for s in singles])
    assert same(criteria.invariance_defect(stack, alg), [criteria.invariance_defect(s, alg) for s in singles])
    assert same(tensor.t_hat(to_operator(stack), alg), [tensor.t_hat(to_operator(s), alg) for s in singles])

    # decompositions
    kind = alg.space.kind
    if kind == "generic" and alg.space.n >= 4:
        same_parts(decomp.weyl_decompose(stack), [decomp.weyl_decompose(s) for s in singles])
    if kind == "kaehler":
        same_parts(decomp.bochner_decompose(stack), [decomp.bochner_decompose(s) for s in singles])
        assert same(decomp.bochner_explicit(stack).matrix, [decomp.bochner_explicit(s).matrix for s in singles])
    if kind == "qk":
        same_parts(decomp.qk_decompose(stack), [decomp.qk_decompose(s) for s in singles])
        ratio = criteria.hat_ratio_qk(stack, alg)
        ones = [criteria.hat_ratio_qk(s, alg) for s in singles]
        assert same(ratio.hat_norm_sq, [r.hat_norm_sq for r in ones])
        assert same(ratio.trace_free_norm_sq, [r.trace_free_norm_sq for r in ones])
        assert same(ratio.ratio, [r.ratio for r in ones])
        assert not ratio.pure_multiple.any()

    # the spectral routes of `sample`, on the stack's restricted operators
    rop = holonomy.project(to_operator(stack), alg)
    rops = [holonomy.project(to_operator(s), alg) for s in singles]
    spec = rop.spectrum()
    assert same(spec.values, [r.spectrum().values for r in rops])
    assert same(spec.vectors, [r.spectrum().vectors for r in rops])
    assert same(rotated_structure(rop)[1], [rotated_structure(r)[1] for r in rops])
    assert same(criteria.hat_norm_formula(rop), [criteria.hat_norm_formula(r) for r in rops])
    assert same(criteria.curvature_term_self(rop), [criteria.curvature_term_self(r) for r in rops])
    res = cli._preset_criterion(alg)(spec.values)
    ones = [cli._preset_criterion(alg)(r.spectrum().values) for r in rops]
    assert same(res.value, [r.value for r in ones])
    assert same(res.satisfied, [r.satisfied for r in ones])
    assert all(type(r.satisfied) is bool for r in ones)
    shifted, t = criteria.two_nonnegative_shift(stack, alg)
    ones = [criteria.two_nonnegative_shift(s, alg) for s in singles]
    assert same(shifted.matrix, [o[0].matrix for o in ones])
    assert same(t, [o[1] for o in ones])


def test_symmetry_is_checked_per_trial(rng):
    # each trial against its own scale: 1e-9 of asymmetry is inside the
    # tolerance of a trial at scale 1e3, not of one at 1e-3
    def trial(scale, asymmetry):
        m = rng.standard_normal((5, 5))
        m = scale * (m + m.T)
        m[0, 1] += asymmetry
        return m

    good = np.stack([trial(1e-3, 1e-14), trial(1e3, 1e-8)])
    assert same(_symmetrized(good, "solver"), [_symmetrized(m, "solver") for m in good])
    bad = np.stack([trial(1e3, 1e-9), trial(1e-3, 1e-9)])
    _symmetrized(bad[0], "solver")
    for matrix in (bad[1], bad):
        with pytest.raises(GeometryError, match="^matrix is not symmetric$"):
            _symmetrized(matrix, "solver")


def test_count_of_one_is_a_stack_of_one(u3):
    one = decomp.random_algebra_curvature(u3, stream(), count=1)
    assert one.matrix.shape == (1, u3.space.bivector_dim, u3.space.bivector_dim)
    assert np.array_equal(one.matrix[0], decomp.random_algebra_curvature(u3, stream()).matrix)
    assert isinstance(tensor.scalar(decomp.random_algebra_curvature(u3, stream())), float)


# sha256 prefixes of one-tensor draws, identical at one and two BLAS threads
GENERIC5_SEED7 = "31d1c5b975266740"
U3_SEED31 = "3ed6c18a86b5bfb5"


def test_one_tensor_draw_keeps_its_bits(u3):
    # with no count a sampler draws as it did before counts existed: these
    # are the digests of those draws
    def digest(rm):
        return hashlib.sha256(rm.matrix.tobytes()).hexdigest()[:16]

    assert digest(tensor.random_curvature(generic(5), np.random.default_rng(7))) == GENERIC5_SEED7, pin_note()
    assert digest(decomp.random_algebra_curvature(u3, np.random.default_rng([3, 1]))) == U3_SEED31, pin_note()


def test_pure_multiple_in_a_stack(qk2):
    # the model itself is a pure multiple: its ratio is undefined, the
    # others are not
    rest = decomp.random_algebra_curvature(qk2, stream(), count=2)
    stack = tensor.CurvatureTensor(qk2.space, np.concatenate([decomp.hp(2).matrix[None], rest.matrix]))
    ratio = criteria.hat_ratio_qk(stack, qk2)
    assert ratio.pure_multiple.tolist() == [True, False, False]
    assert np.isnan(ratio.ratio[0])
    assert np.array_equal(ratio.ratio[1:], [criteria.hat_ratio_qk(tensor.CurvatureTensor(qk2.space, m), qk2).ratio
                                            for m in rest.matrix])
    assert np.isnan(criteria.hat_ratio_qk(decomp.hp(2), qk2).ratio)


# ---------------------------------------------------------------------------
# a bad trial in a stack is still caught


def _raised(fn, *args):
    with pytest.raises(GeometryError) as info:
        fn(*args)
    return info.type, str(info.value)


def _off_bianchi(mat, rng):
    """mat plus a symmetric perturbation that breaks Bianchi."""
    raw = rng.standard_normal(mat.shape)
    return mat + 1e-3 * (raw + raw.T)


def _off_symmetry(mat, rng):
    out = mat.copy()
    out[0, 1] += 1e-3 * (1.0 + rng.random())
    return out


@pytest.mark.parametrize("bad", [_off_bianchi, _off_symmetry], ids=["off_bianchi", "off_symmetry"])
@pytest.mark.parametrize("at", [0, 3, 4])
def test_bad_trial_raises_its_own_message(bad, at):
    space = generic(6)
    mats = tensor.random_curvature(space, stream(), 5).matrix.copy()
    mats[at] = bad(mats[at], np.random.default_rng(at))
    if at < 4:  # a later bad trial does not change which one is reported
        mats[4] = _off_bianchi(mats[4], np.random.default_rng(9))
    expected = _raised(tensor.check_operator_symmetries, mats[at])
    assert expected[0] is SymmetryError
    assert _raised(tensor.check_operator_symmetries, mats) == expected
    assert _raised(tensor.CurvatureTensor, space, mats) == expected
    for good in range(at):
        tensor.check_operator_symmetries(mats[good])


@pytest.mark.parametrize("case", ["so5", "u3", "sp4"])
def test_bianchi_gather_is_the_rank_four_sum(case, request):
    # the operator gather at the increasing quadruples against bianchi_sum of
    # the scattered array, for a sample and for trials off Bianchi, whose
    # sums are not rounding noise
    alg = CASES[case](request)
    space, n = alg.space, alg.space.n
    good = sample(alg, stream(), 1).matrix[0]
    mats = np.stack([good, _off_bianchi(good, stream(1)), _off_bianchi(good, stream(2))])
    quads = tuple(np.array(list(itertools.combinations(range(n), 4))).T)
    rank_four = [bianchi_sum(tensor._tensor_array_from_matrix(space, mat))[quads] for mat in mats]
    for mat, expected in zip(mats, rank_four):
        assert np.array_equal(tensor._quad_bianchi(mat, n), expected)
    assert np.array_equal(tensor._quad_bianchi(mats, n), np.stack(rank_four))


def test_bianchi_breaking_trial_of_a_large_stack_raises_its_own_message():
    space = quaternion_kaehler(4)
    mats = tensor.random_curvature(space, stream(), 4).matrix.copy()
    mats[2] = _off_bianchi(mats[2], np.random.default_rng(2))
    expected = _raised(tensor.check_operator_symmetries, mats[2])
    assert expected[0] is SymmetryError and expected[1].startswith("first Bianchi identity fails")
    assert _raised(tensor.CurvatureTensor, space, mats) == expected
    for good in (0, 1, 3):
        tensor.check_operator_symmetries(mats[good])


def _nan_entry(mat):
    out = mat.copy()
    out[2, 7] = np.nan
    return out


def _lone_inf(mat):
    # residual and tolerance of this trial are both inf, so no comparison
    # of the two can reject it
    out = mat.copy()
    out[0, 1] = np.inf
    return out


@pytest.mark.parametrize("bad", [_nan_entry, _lone_inf], ids=["nan", "lone_inf"])
def test_non_finite_trial_raises_its_own_message(bad):
    space = generic(5)
    mats = tensor.random_curvature(space, stream(), 3).matrix.copy()
    mats[1] = bad(mats[1])
    expected = _raised(tensor.check_operator_symmetries, mats[1])
    assert expected[0] is SymmetryError and expected[1].startswith("non-finite entry")
    assert _raised(tensor.check_operator_symmetries, mats) == expected
    assert _raised(tensor.CurvatureTensor, space, mats) == expected
    for good in (0, 2):
        tensor.check_operator_symmetries(mats[good])


def test_earlier_bad_trial_comes_before_a_non_finite_one():
    space = generic(5)
    mats = tensor.random_curvature(space, stream(), 3).matrix.copy()
    mats[0] = _off_symmetry(mats[0], np.random.default_rng(0))
    mats[1] = _lone_inf(mats[1])
    expected = _raised(tensor.check_operator_symmetries, mats[0])
    assert expected[1].startswith("not symmetric")
    assert _raised(tensor.check_operator_symmetries, mats) == expected


def test_trial_off_the_complex_structure_is_caught(u3):
    mats = decomp.random_algebra_curvature(u3, stream(), count=4).matrix.copy()
    mats[2] = tensor.random_curvature(u3.space, rng=np.random.default_rng(5)).matrix
    stack = tensor.CurvatureTensor(u3.space, mats)
    one = tensor.CurvatureTensor(u3.space, mats[2])
    for fn in (decomp.bochner_decompose, decomp.bochner_explicit, decomp._check_supported):
        assert _raised(fn, stack) == _raised(fn, one)
        fn(tensor.CurvatureTensor(u3.space, mats[:2]))


def test_trial_off_the_algebra_is_caught(qk2):
    mats = decomp.random_algebra_curvature(qk2, stream(), count=4).matrix.copy()
    mats[1] = tensor.random_curvature(qk2.space, rng=np.random.default_rng(5)).matrix
    stack = tensor.CurvatureTensor(qk2.space, mats)
    one = tensor.CurvatureTensor(qk2.space, mats[1])
    expected = _raised(decomp.qk_decompose, one)
    assert expected[1].startswith("operator leaks off the holonomy algebra")
    assert _raised(decomp.qk_decompose, stack) == expected
    assert _raised(criteria.hat_ratio_qk, stack, qk2) == expected


@pytest.mark.parametrize("count", [None, 3])
def test_values_compare_by_identity(qk2, count):
    # values that hold arrays compare by identity, as algebras do: == over
    # their fields would raise on any array, one trial's or a stack's
    def values(seed):
        rm = decomp.random_algebra_curvature(qk2, np.random.default_rng(seed), count=count)
        rop = holonomy.project(to_operator(rm), qk2)
        result = criteria.weighted_criterion(rop.spectrum().values, criteria.qk_preset(2), 0.0)
        return rm, to_operator(rm), rop, rop.spectrum(), decomp.qk_decompose(rm), result, criteria.hat_ratio_qk(rm, qk2)

    for x, y in zip(values(1), values(2)):
        assert (x == x) is True and (x == y) is False


def _trial_by_trial(check):
    """A check of one matrix, run on each trial of a stack in order."""
    return lambda stack: [check(m) for m in stack]


def _rule_case(name, monkeypatch):
    """(check of a (k, D, D) stack, base trial, (p, q), rtol) for each check
    of the operator-check rule.  The base has max|entry| 1 and no residual,
    and its entry (p, q) is 0, so a delta planted there is a residual of
    exactly delta and the trial's bound is exactly 2 * rtol."""
    so4 = holonomy.so_algebra(generic(4))
    if name == "symmetrized":
        return (lambda stack: _symmetrized(stack, "solver")), np.eye(6), (0, 1), _SYMMETRY_RTOL
    if name == "curvature_array":
        # the file check of the scattered array, planted at pairs (0, 1),
        # (0, 2): the scatter matches, pair interchange is off by delta,
        # Bianchi by delta / 3
        check = _trial_by_trial(
            lambda m: tensor.check_curvature_symmetries(so4.space, tensor._tensor_array_from_matrix(so4.space, m))
        )
        return check, np.eye(6), (0, 1), _SYMMETRY_RTOL
    if name == "operator":
        return tensor.check_operator_symmetries, np.eye(6), (0, 1), _SYMMETRY_RTOL
    # the support check on a Kaehler space (J-invariance) and on a
    # quaternionic one, with a stand-in mass that reads the planted entry: no
    # operator has a complement mass of exactly a given float
    space = kaehler(2) if name == "kaehler_invariance" else quaternion_kaehler(2)
    monkeypatch.setattr(decomp, "complement_mass", lambda op, algebra: np.abs(op.matrix[:, 0, 1]))
    return (lambda stack: decomp._check_supported(tensor._wrap(tensor.CurvatureTensor, space=space, matrix=stack)),
            np.eye(space.bivector_dim), (0, 1), 1e-9)


@pytest.mark.parametrize("name", ["symmetrized", "curvature_array", "operator",
                                  "kaehler_invariance", "qk_leak"])
def test_every_check_keeps_one_rule(name, monkeypatch):
    # trial 0 passes, trial 1 is just over (or exactly at) its bound, and
    # trial 2 holds a NaN: the stack raises trial 1's own message when it is
    # over, passes it at the bound, and fails on the NaN
    check, base, (p, q), rtol = _rule_case(name, monkeypatch)
    bound = 2.0 * rtol

    def stack(delta):
        out = np.stack([base] * 3)
        out[1, p, q] = delta
        out[2, 2, 2] = np.nan
        return out

    over, at = stack(np.nextafter(bound, 1.0)), stack(bound)
    expected = _raised(check, over[1:2])
    assert _raised(check, over) == expected
    check(at[:2])
    expected = _raised(check, at[2:])
    assert _raised(check, at) == expected


def test_stack_shape_is_checked(so5):
    d = so5.space.bivector_dim
    for shape in ((2, 2, d, d), (d, d + 1), (3, d, d + 1)):
        with pytest.raises(SymmetryError):
            tensor.CurvatureTensor(so5.space, np.zeros(shape))


# ---------------------------------------------------------------------------
# the suites run per chunk of trials


SUITE_SIZES = {"weyl-norm": ("--n", "4..6"), "bochner-norm": ("--m", "2..3"),
               "qk-ratio": ("--m", "2..3"), "decomp": (None, None)}


@pytest.mark.parametrize("suite", list(SUITE_SIZES) + ["sample"])
def test_chunking_leaves_the_report_as_it_is(suite, monkeypatch, capsys):
    # chunks of 3 out of 7 trials (a ragged last chunk) against one trial
    # per chunk, and for `sample` rotation sub-chunks of 2 out of each 3 (a
    # ragged last sub-chunk) against one: the same bytes
    if suite == "sample":
        argv = ["sample", "--holonomy", "qk", "--m", "2", "--condition", "2-nonnegative", "--format", "json"]
    else:
        flag, sizes = SUITE_SIZES[suite]
        argv = ["verify", "--suite", suite] + ([flag, sizes] if flag else [])
    reports = []
    for per, sub in ((1, 1), (3, 2)):
        monkeypatch.setattr(holonomy, "trial_chunk", lambda space, per=per: per)
        monkeypatch.setattr(cli, "_sample_chunk", lambda space, per=per: per)
        monkeypatch.setattr(holonomy.HolonomyAlgebra, "rotation_trials", sub)
        cli.main(argv + ["--trials", "7", "--seed", "5"])
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["records"]


@pytest.mark.parametrize("suite", ["weyl-norm", "bochner-norm", "qk-ratio"])
def test_hat_grouping_leaves_the_report_as_it_is(suite, monkeypatch, capsys):
    # hats symmetrized one generator at a time, three at a time (a ragged
    # last group on the 10 generators of so(5), the 16 of u(4) and the 13 of
    # sp(2)+sp(1)) and a whole chunk at once: the bytes of the library's own
    # grouping, whose groups of 2 leave one over in sp(4)+sp(1)'s chunks of 9
    argv = ["verify", "--suite", suite, "--seed", "42"]
    cli.main(argv)
    expected = capsys.readouterr().out
    for group in (property(lambda self: 1), property(lambda self: 3),
                  property(lambda self: min(self.chunk_size, self.dim))):
        monkeypatch.setattr(holonomy.HolonomyAlgebra, "hat_group", group)
        cli.main(argv)
        assert capsys.readouterr().out == expected
    assert json.loads(expected)["records"]


def test_weyl_norm_runs_its_kernels_once_per_chunk(monkeypatch, capsys):
    calls = {"random_curvature": 0, "weyl_decompose": 0}
    for module, name in ((tensor, "random_curvature"), (decomp, "weyl_decompose")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(["verify", "--suite", "weyl-norm"]) == 0
    capsys.readouterr()
    chunks = sum(-(-100 // holonomy.trial_chunk(generic(n))) for n in range(4, 9))
    assert calls == {"random_curvature": chunks, "weyl_decompose": chunks}
    assert chunks <= 10  # not 100 per size


@pytest.mark.parametrize("suite,flag,size,space", [
    (cli.suite_qk_ratio, "m", 4, quaternion_kaehler(4)),
    (cli.suite_weyl_norm, "n", 8, generic(8)),
    (cli.cmd_sample, "n", 8, generic(8)),
    (cli.cmd_sample, "m", 5, kaehler(5)),
    (cli.cmd_sample, "m", 3, quaternion_kaehler(3)),
])
def test_one_chunk_stays_within_the_budget(suite, flag, size, space):
    # one chunk of trials: the draw, the checks, the hats over (trial,
    # generator) and the decomposition within 3 x _CHUNK_BYTES, or one stack
    # of sample's shift, solves and rotated structure constants, whose
    # products go to the reused workspace, within 2 x; the cached constants
    # and the workspace are built outside the trace
    if suite is cli.cmd_sample:
        per, bound = cli._sample_chunk(space), 2
        argv = ["sample", "--holonomy", space.kind, "--condition", "2-nonnegative"]
    else:
        per, bound = holonomy.trial_chunk(space), 3
        argv = ["verify"]
    cfg = cli._config_from_args(cli._build_parser().parse_args(argv + [f"--{flag}", str(size), "--trials", str(per)]))
    suite(cfg)
    tracemalloc.start()
    try:
        suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * holonomy._CHUNK_BYTES, peak / holonomy._CHUNK_BYTES


# ---------------------------------------------------------------------------
# sample runs per stack


def _one_row(alg, criterion, rng, trial, shift) -> dict:
    """One row of `curvlab sample`, computed for one trial alone, its tensor
    the next one-tensor draw of rng: the reference the rows of the stacked
    command must equal."""
    rm = decomp.random_algebra_curvature(alg, rng)
    rm = rm * (1.0 / np.sqrt(rm.norm_sq()))
    shift_t = 0.0
    if shift:
        rm, shift_t = criteria.two_nonnegative_shift(rm, alg)
    rop = holonomy.project(to_operator(rm), alg)
    lam = rop.spectrum().values
    row = {
        "trial": trial,
        "lambda_min_1": float(lam[0]),
        "lambda_min_2": float(lam[1]),
        "lambda_min_3": float(lam[2]),
        "lambda_max": float(lam[-1]),
        "curvature_term_self": criteria.curvature_term_self(rop),
    }
    if shift:
        row["shift"] = shift_t
    if criterion is not None:
        res = criterion(lam)
        row["criterion_value"] = res.value
        row["criterion_satisfied"] = res.satisfied
    if alg.space.kind == "qk":
        row["hat_ratio"] = criteria.hat_ratio_qk(rm, alg).ratio
    return row


@pytest.mark.parametrize("tag,flag,size", [("so", "n", 6), ("u", "m", 3), ("sp", "m", 2)])
@pytest.mark.parametrize("condition", ["2-nonnegative", "none"])
def test_sample_rows_are_the_one_trial_rows(tag, flag, size, condition):
    # one more trial than a stack holds: a full stack and a ragged one
    argv = ["sample", "--holonomy", tag, f"--{flag}", str(size), "--condition", condition, "--seed", "3"]
    cfg = cli._config_from_args(cli._build_parser().parse_args(argv))
    kind = holonomy.holonomy_kind(tag)
    alg = holonomy.by_name(euclid.standard_space(kind, size * euclid._KINDS[kind][1]), kind)
    cfg.trials = cli._sample_chunk(alg.space) + 1
    report, _ = cli.cmd_sample(cfg)
    criterion = cli._preset_criterion(alg)
    rng = cli._stream(3, f"sample[{alg.space.kind}]", size)
    rows = [_one_row(alg, criterion, rng, trial, cfg.condition is not None) for trial in range(cfg.trials)]
    assert cli._render([r.actual for r in report.records]) == cli._render(rows)
