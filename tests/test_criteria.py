import numpy as np
import pytest
from conftest import misplaced_unitary, rotated_kaehler, rotated_quaternionic
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import criteria, decomp, euclid, holonomy, tensor
from curvlab.criteria import (
    curvature_term,
    curvature_term_self,
    hat_norm_direct,
    hat_norm_formula,
    hat_ratio_qk,
    invariance_defect,
    kaehler_preset,
    lambda_tripod,
    preset_for,
    qk_preset,
    two_nonnegative_shift,
    weighted_criterion,
    weyl_preset,
    WeightedCriterion,
    _rotated_structure,
)
from curvlab.euclid import GeometryError, generic, kaehler, quaternion_kaehler, symmetric_eigen
from curvlab.holonomy import project, so_algebra
from curvlab.tensor import to_operator


class TestTripod:
    def test_zero_at_equal(self):
        assert lambda_tripod(3.0, 3.0, 3.0) == 0.0

    def test_known_value(self):
        assert lambda_tripod(0.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_cubic_homogeneity(self):
        a, b, c = 0.3, -1.2, 2.1
        assert lambda_tripod(2 * a, 2 * b, 2 * c) == pytest.approx(
            8 * lambda_tripod(a, b, c)
        )


@settings(max_examples=50, deadline=None)
@given(
    lo=st.floats(-4, 0),
    d1=st.floats(0, 4),
    d2=st.floats(0, 4),
)
def test_tripod_chain_bound(lo, d1, d2):
    # ascending triple, bottom nonpositive, two-smallest sum nonnegative
    a = lo
    b = -lo + d1
    c = b + d2
    lam = lambda_tripod(a, b, c)
    bound = (a + b) * (a - c) ** 2 + c * (a - b) ** 2
    slack = 1e-9 * (1 + abs(lam) + abs(bound))
    assert lam >= bound - slack
    assert bound >= -slack


class TestHatNorms:
    def test_routes_agree_on_wolf(self, wolf2, qk2):
        direct = hat_norm_direct(wolf2, qk2)
        rop = project(to_operator(wolf2), qk2)
        via_formula = hat_norm_formula(rop)
        assert direct == pytest.approx(via_formula.total, rel=1e-12)
        assert via_formula.per_component.sum() == pytest.approx(direct, rel=1e-12)

    def test_routes_agree_on_samples(self, qk2, rng):
        rm = decomp.random_algebra_curvature(qk2, rng=rng)
        direct = hat_norm_direct(rm, qk2)
        rop = project(to_operator(rm), qk2)
        assert direct == pytest.approx(hat_norm_formula(rop).total, rel=1e-9)

    def test_invariant_model_has_zero_hat(self, hp2, qk2):
        assert hat_norm_direct(hp2, qk2) < 1e-20
        assert invariance_defect(hp2, qk2) < 1e-9

    def test_random_tensor_is_not_invariant(self, so5, rng):
        rm = tensor.random_curvature(so5.space, rng=rng)
        assert invariance_defect(rm, so5) > 1e-3


class TestNormConventions:
    """hat_norm_direct and invariance_defect pinned to the component arrays
    of lie_action, so a factor-of-2 or -4 slip shows, and the one reduction
    they read pinned to the diagonal of the hat Gram."""

    @pytest.fixture(params=["so5", "qk2", "u3_swapped"])
    def case(self, request, rng):
        alg = request.getfixturevalue(request.param)
        rm = tensor.random_curvature(alg.space, rng=rng)
        comp_sq = [
            float(np.sum(tensor.lie_action(gen, rm).components ** 2))
            for gen in alg.matrices
        ]
        assert max(comp_sq) > 1e-3
        return rm, alg, comp_sq

    def test_hat_norm_direct_is_quarter_component_sum(self, case):
        rm, alg, comp_sq = case
        assert hat_norm_direct(rm, alg) == pytest.approx(0.25 * sum(comp_sq), rel=1e-12)

    def test_invariance_defect_is_max_component_norm(self, case):
        rm, alg, comp_sq = case
        assert invariance_defect(rm, alg) == pytest.approx(np.sqrt(max(comp_sq)), rel=1e-12)

    def test_reduction_is_gram_diagonal(self, case):
        rm, alg, _ = case
        flat = criteria._hat_flat(rm, alg)
        ref = np.diag(flat @ flat.T)
        got = criteria._hat_norms_sq(flat)
        assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def test_reductions_allocate_no_second_stack():
    # the hat stack at sp(4)+sp(1) is 4.5 MB; squaring it out of place would
    # double the peak
    import tracemalloc

    alg = holonomy.by_name(quaternion_kaehler(4), "sp")
    rm = decomp.random_algebra_curvature(alg, rng=np.random.default_rng(5))
    stack = alg.dim * alg.space.bivector_dim**2 * 8
    for reduce in (criteria.invariance_defect, criteria.hat_norm_direct):
        reduce(rm, alg)  # the algebra's cached blocks are built outside the trace
        tracemalloc.start()
        try:
            reduce(rm, alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stack, (reduce.__name__, peak / stack)


def test_chunked_reductions_hold_no_stack():
    # the hat stack at sp(5)+sp(1) is 16.7 MB; the reductions hold one chunk
    # of hats at a time, at most _CHUNK_BYTES, and the temporaries of one
    import tracemalloc

    alg = holonomy.by_name(quaternion_kaehler(5), "sp")
    rm = decomp.random_algebra_curvature(alg, rng=np.random.default_rng(5))
    for reduce in (criteria.invariance_defect, criteria.hat_norm_direct):
        reduce(rm, alg)  # the algebra's cached blocks are built outside the trace
        tracemalloc.start()
        try:
            reduce(rm, alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * holonomy._CHUNK_BYTES, (reduce.__name__, peak / holonomy._CHUNK_BYTES)


CHUNK_CASES = {
    "u3_swapped": lambda request: holonomy.u_algebra(request.getfixturevalue("u3_swapped_space")),
    "u3_rotated": lambda request: holonomy.u_algebra(rotated_kaehler(3)),
    "u3_misplaced": lambda request: misplaced_unitary(3),
    "qk3": lambda request: holonomy.sp_sp1_algebra(quaternion_kaehler(3)),
}


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_chunked_norms_are_the_stack_norms(case, request, monkeypatch):
    # one generator per chunk: every chunk boundary that can fall does
    monkeypatch.setattr(holonomy, "_CHUNK_BYTES", 1)
    alg = CHUNK_CASES[case](request)
    assert alg.chunk_size == 1
    rm = tensor.random_curvature(alg.space, rng=np.random.default_rng(7))
    ref = criteria._hat_norms_sq(tensor.t_hat(to_operator(rm), alg).reshape(alg.dim, -1))
    got = criteria._hat_row_norms_sq(rm, alg)
    assert np.array_equal(got, ref)
    assert hat_norm_direct(rm, alg) == float(np.sum(ref))
    assert invariance_defect(rm, alg) == 2.0 * float(np.sqrt(ref.max()))


class TestCurvatureTerm:
    def test_routes_and_self_consistency(self, qk2, rng):
        rm = decomp.random_algebra_curvature(qk2, rng=rng)
        rop = project(to_operator(rm), qk2)
        ct = curvature_term(rop, rm)
        assert ct.spread < 1e-10 * (1 + abs(ct.value))
        assert curvature_term_self(rop) == pytest.approx(ct.value, rel=1e-9)

    def test_identity_operator_gives_hat_norm(self, qk2, rng):
        rm = decomp.random_algebra_curvature(qk2, rng=rng)
        ident = tensor.CurvatureOperator(
            qk2.space, np.eye(qk2.dim), algebra=qk2
        )
        ct = curvature_term(ident, rm)
        assert ct.value == pytest.approx(hat_norm_direct(rm, qk2), rel=1e-12)

    def test_linearity_in_operator(self, qk2, rng):
        r1 = decomp.random_algebra_curvature(qk2, rng=rng)
        r2 = decomp.random_algebra_curvature(qk2, rng=rng)
        op1 = project(to_operator(r1), qk2)
        op2 = project(to_operator(r2), qk2)
        combo = tensor.CurvatureOperator(
            qk2.space, op1.matrix + 2.0 * op2.matrix, algebra=qk2
        )
        lhs = curvature_term(combo, r1).value
        rhs = curvature_term(op1, r1).value + 2.0 * curvature_term(op2, r1).value
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_requires_algebra_for_full_operator(self, so5, rng):
        # the algebra comes with the operator: a full-space one is restricted
        # with project first
        rm = tensor.random_curvature(so5.space, rng=rng)
        op = to_operator(rm)
        for route in (lambda: curvature_term(op, rm), lambda: curvature_term_self(op), lambda: hat_norm_formula(op)):
            with pytest.raises(GeometryError, match="restricted to an algebra"):
                route()
        assert np.isfinite(curvature_term(project(op, so5), rm).value)


class TestWeightedCriterion:
    def test_value(self):
        crit = WeightedCriterion(k=2, weight=0.5, label="test")
        res = weighted_criterion(np.array([3.0, -1.0, 0.5, 2.0]), crit, tol=0.0)
        assert res.value == pytest.approx(-1.0 + 0.5 + 0.5 * 2.0)
        assert res.satisfied

    def test_weightless(self):
        crit = WeightedCriterion(k=2, weight=0.0, label="test")
        res = weighted_criterion(np.array([-1.0, -2.0]), crit, tol=0.0)
        assert res.value == pytest.approx(-3.0)
        assert not res.satisfied

    def test_needs_enough_eigenvalues(self):
        crit = WeightedCriterion(k=2, weight=0.5, label="test")
        with pytest.raises(GeometryError):
            weighted_criterion(np.array([1.0, 2.0]), crit, tol=0.0)

    def test_guards(self):
        with pytest.raises(GeometryError):
            WeightedCriterion(k=0, weight=0.5, label="test")
        with pytest.raises(GeometryError):
            WeightedCriterion(k=1, weight=-0.1, label="test")

    def test_k_nonnegative(self):
        # k-nonnegativity is the weighted criterion with weight 0
        lam = np.array([-1.0, 2.0, 3.0])
        assert weighted_criterion(lam, WeightedCriterion(2, 0.0, "2-nonneg"), 0.0).satisfied
        assert not weighted_criterion(lam, WeightedCriterion(1, 0.0, "1-nonneg"), 0.0).satisfied
        with pytest.raises(GeometryError):
            weighted_criterion(lam, WeightedCriterion(4, 0.0, "4-nonneg"), 0.0)


class TestPresets:
    @pytest.mark.parametrize(
        "n,k,w", [(4, 1, 0.5), (5, 2, 0.0), (6, 2, 0.5), (7, 3, 0.0), (8, 3, 0.5)]
    )
    def test_weyl(self, n, k, w):
        crit = weyl_preset(n)
        assert (crit.k, crit.weight) == (k, w)

    @pytest.mark.parametrize(
        "m,k,w", [(2, 1, 0.5), (3, 2, 0.0), (4, 2, 0.5), (5, 3, 0.0)]
    )
    def test_kaehler(self, m, k, w):
        crit = kaehler_preset(m)
        assert (crit.k, crit.weight) == (k, w)

    @pytest.mark.parametrize(
        "m,k,w", [(2, 1, 2.0 / 3.0), (3, 2, 1.0 / 6.0), (4, 2, 2.0 / 3.0), (5, 3, 1.0 / 6.0)]
    )
    def test_qk(self, m, k, w):
        crit = qk_preset(m)
        assert (crit.k, crit.weight) == (k, w)

    def test_small_dimension_guards(self):
        with pytest.raises(GeometryError):
            weyl_preset(3)
        with pytest.raises(GeometryError):
            kaehler_preset(1)
        with pytest.raises(GeometryError):
            qk_preset(1)

    def test_dispatch(self, so5, u3, qk2):
        assert preset_for(so5).label == "weyl(5)"
        assert preset_for(u3).label == "kaehler(3)"
        assert preset_for(qk2).label == "qk(2)"


class TestHatRatio:
    def test_constant_on_samples(self, qk2, rng):
        for _ in range(5):
            rm = decomp.random_algebra_curvature(qk2, rng=rng)
            hr = hat_ratio_qk(rm, qk2)
            assert not hr.pure_multiple
            assert hr.ratio == pytest.approx(16.0, rel=1e-10)

    def test_constant_on_a_rotated_stack(self):
        # every basis row of sp(2)+sp(1) meets every character here
        alg = holonomy.by_name(rotated_quaternionic(2), "sp")
        stack = decomp.random_algebra_curvature(alg, np.random.default_rng(0), count=20)
        ratio = hat_ratio_qk(stack, alg).ratio
        assert ratio.shape == (20,)
        assert np.abs(ratio / 16.0 - 1.0).max() <= 1e-9

    def test_pure_multiple_flag(self, hp2, qk2):
        hr = hat_ratio_qk(hp2, qk2)
        assert hr.pure_multiple
        assert type(hr.ratio) is float and np.isnan(hr.ratio)

    def test_shift_invariance(self, qk2, rng):
        # adding the invariant model changes neither numerator nor denominator
        rm = decomp.random_algebra_curvature(qk2, rng=rng)
        shifted = rm + 3.0 * decomp.hp(2)
        a = hat_ratio_qk(rm, qk2)
        b = hat_ratio_qk(shifted, qk2)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-9)


@pytest.mark.parametrize("m", [6, 7])
class TestQkLawsPastCliRange:
    """The measured laws behind criteria 3 and 4 at sizes `curvlab verify`
    does not reach (cli.MAX_M = 6 caps --m), called through the library."""

    def test_hat_ratio_is_4_m_plus_2(self, m):
        alg = holonomy.by_name(quaternion_kaehler(m), "sp")
        for seed in range(3):
            hr = hat_ratio_qk(decomp.random_algebra_curvature(alg, np.random.default_rng(seed)), alg)
            assert hr.ratio == pytest.approx(4.0 * (m + 2), rel=1e-9)

    def test_wolf_hat_norm(self, m):
        alg = holonomy.by_name(quaternion_kaehler(m), "sp")
        measured = hat_norm_direct(decomp.wolf(m), alg)
        assert measured == pytest.approx(36.0 * m * (m - 1) * (m + 2), rel=1e-10)

    def test_wolf_hyperkaehler_norm(self, m):
        alg = holonomy.by_name(quaternion_kaehler(m), "sp")
        part = decomp.qk_decompose(decomp.wolf(m), alg).parts["hyperkaehler_part"]
        assert to_operator(part).norm_sq() == pytest.approx(9.0 * m * (m - 1), rel=1e-10)


def _swapped(base):
    """base with its structures conjugated by the swap of coordinates 0 and 1."""
    p = np.eye(base.n)[[1, 0, *range(2, base.n)]]
    st = base.structure
    return euclid.EuclideanSpace(base.n, euclid.HolonomyStructure(
        st.kind, *(None if s is None else p @ s @ p.T for s in (st.I, st.J, st.K))))


# the sampled algebras of the shift: the standard so(5..8), u(2..5) and
# sp(2..3)+sp(1), and u(3) and sp(2)+sp(1) on structures off the standard one
_SHIFT_ALGEBRAS = {
    **{f"so{n}": (lambda n=n: (generic(n), "so")) for n in range(5, 9)},
    **{f"u{m}": (lambda m=m: (kaehler(m), "u")) for m in range(2, 6)},
    **{f"sp{m}": (lambda m=m: (quaternion_kaehler(m), "sp")) for m in (2, 3)},
    "u3_swapped": lambda: (_swapped(kaehler(3)), "u"),
    "u3_rotated": lambda: (rotated_kaehler(3), "u"),
    "sp2_swapped": lambda: (_swapped(quaternion_kaehler(2)), "sp"),
}


def _shift_algebra(name):
    return holonomy.by_name(*_SHIFT_ALGEBRAS[name]())


@pytest.mark.parametrize("name", list(_SHIFT_ALGEBRAS))
def test_values_only_solve_matches_full_solve(name):
    alg = _shift_algebra(name)
    for seed in range(5):
        rm = decomp.random_algebra_curvature(alg, np.random.default_rng(seed))
        rop = project(to_operator(rm), alg)
        full = symmetric_eigen(rop.matrix).values
        values = euclid.symmetric_eigenvalues(rop.matrix)
        tol = 1e-12 * (1.0 + float(np.abs(full).max()))
        assert values.shape == full.shape
        assert np.abs(values - full).max() <= tol
        assert abs(criteria._two_smallest_sum(rm, alg) - float(full[:2].sum())) <= tol


@pytest.mark.parametrize("name", list(_SHIFT_ALGEBRAS))
def test_shifted_rows_are_two_nonnegative(name):
    # checked on the full solve of the shifted operator, not on the
    # values-only solve the shift itself reads
    alg = _shift_algebra(name)
    for seed in range(100):
        rm = decomp.random_algebra_curvature(alg, np.random.default_rng(seed))
        shifted, _ = two_nonnegative_shift(rm, alg)
        lam = project(to_operator(shifted), alg).spectrum().values
        assert lam[0] + lam[1] >= -1e-9 * float(np.abs(lam).max())


class TestShift:
    def test_makes_two_nonnegative(self, qk2, rng):
        rm = decomp.random_algebra_curvature(qk2, rng=rng)
        shifted, t = two_nonnegative_shift(rm, qk2)
        lam = project(to_operator(shifted), qk2).spectrum().values
        assert t > 0
        assert lam[0] + lam[1] >= -1e-9

    def test_no_shift_when_already_positive(self, hp2, qk2):
        shifted, t = two_nonnegative_shift(hp2, qk2)
        assert t == 0.0
        assert np.allclose(shifted.components, hp2.components)

    def test_gain_is_cached_per_algebra(self, u3, u3_swapped):
        # the two u(3) share a name, a space kind and a dimension; only their
        # coefficient rows tell them apart
        criteria._shift_gain.cache_clear()
        model = decomp.const_hol(3)
        gains = [criteria._shift_gain(model.space, alg) for alg in (u3, u3_swapped)]
        assert criteria._shift_gain.cache_info().currsize == 2
        for alg, gain in zip((u3, u3_swapped), gains):
            assert gain == criteria._two_smallest_sum(model, alg)
            # and against a second route: the full solve, whose LAPACK path
            # differs, on an operator with highly degenerate eigenvalues
            lam = project(to_operator(model), alg).spectrum().values
            assert abs(gain - lam[:2].sum()) <= 1e-12 * (1.0 + float(np.abs(lam).max()))
            assert criteria._shift_gain(model.space, alg) == gain

    @pytest.mark.parametrize("tag", ["u", "sp", "sp_rotated"])
    def test_shift_uses_the_sample_structure(self, tag):
        # the structures conjugated by the swap of coordinates 0 and 1, and the
        # quaternionic one under a seeded rotation: the standard models are
        # not supported on these algebras
        space = {
            "u": lambda: _swapped(kaehler(3)),
            "sp": lambda: _swapped(quaternion_kaehler(2)),
            "sp_rotated": lambda: rotated_quaternionic(2),
        }[tag]()
        alg = holonomy.by_name(space, tag[:2])
        rm = decomp.random_algebra_curvature(alg, np.random.default_rng(0))
        shifted, t = two_nonnegative_shift(rm, alg)
        assert t > 0
        lam = project(to_operator(shifted), alg).spectrum().values
        assert lam[0] + lam[1] >= -1e-12 * (1.0 + float(np.abs(lam).max()))
        scale = 1.0 + float(np.abs(shifted.matrix).max())
        assert holonomy.complement_mass(to_operator(shifted), alg) <= 1e-13 * scale

    def test_witness_exists_without_shift(self):
        # unshifted samples are not 2-nonnegative, and their self term can be
        # negative beyond rounding: 60 so(4) draws as one stack, the first
        # witness trial 1 (value -142.60, scale 441.80)
        alg = so_algebra(generic(4))
        draws = [decomp.random_algebra_curvature(alg, np.random.default_rng([0, t])) for t in range(60)]
        rm = tensor.CurvatureTensor(alg.space, np.stack([d.matrix for d in draws]))
        rop = project(to_operator(rm), alg)
        value = curvature_term_self(rop)
        scale = np.concatenate([criteria._self_sum(np.abs(lam), diffs, cp_sq)
                                for lam, diffs, cp_sq in criteria._self_term_operands(rop)])
        witnesses = np.flatnonzero(value < -1e-9 * (1.0 + scale))
        assert witnesses.size and witnesses[0] == 1
        assert value[1] == pytest.approx(-142.60, abs=0.01)
        assert scale[1] == pytest.approx(441.80, abs=0.01)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_self_term_is_tripod_sum_over_triples(seed):
    # the self term decomposes into tripod weights of bracket-linked
    # eigenvalue triples: each unordered index triple enters the einsum
    # twice but the explicit pair loop three times, hence the 2/3
    alg = so_algebra(generic(4))
    rng = np.random.default_rng(seed)
    rm = decomp.random_algebra_curvature(alg, rng=rng)
    op = project(to_operator(rm), alg)
    from curvlab.criteria import _rotated_structure

    lam, cp = _rotated_structure(op)
    total = 0.0
    d = alg.dim
    for a in range(d):
        for b in range(a + 1, d):
            for g in range(d):
                total += lambda_tripod(lam[g], lam[a], lam[b]) * cp[a, b, g] ** 2
    expected = curvature_term_self(op)
    assert (2.0 / 3.0) * total == pytest.approx(expected, rel=1e-8, abs=1e-9)


def _rotated_reference(op):
    """The four-operand einsum that the per-slot GEMMs of _rotated_structure
    replace: the structure constants in the eigenbasis of a fresh solve."""
    spec = symmetric_eigen(op.matrix)
    q = spec.vectors
    c = op.algebra.structure_constants
    return spec.values, np.einsum("ai,bj,gk,abg->ijk", q, q, q, c, optimize=True)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: so_algebra(generic(6)),
        lambda: holonomy.u_algebra(kaehler(3)),
        lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(2)),
    ],
    ids=["so6", "u3", "qk2"],
)
def test_gemm_rotation_matches_einsum(builder):
    alg = builder()
    rm = decomp.random_algebra_curvature(alg, np.random.default_rng(11))
    op = project(to_operator(rm), alg)
    lam, cp = _rotated_structure(op)
    ref_lam, ref_cp = _rotated_reference(op)
    assert np.array_equal(lam, ref_lam)
    assert np.abs(cp - ref_cp).max() <= 1e-13 * np.abs(ref_cp).max()
    # the restricted operator's matrix and spectrum are read-only, so the
    # spectrum it keeps cannot go stale
    assert op.spectrum() is op.spectrum()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        op.spectrum().vectors[0, 0] = 1.0
    # a full-space operator still aliases the tensor's matrix
    assert to_operator(rm).matrix is rm.matrix


def test_rotation_products_reuse_one_workspace(u3):
    # the spectral routes rotate each sub-chunk's three products into one
    # per-thread buffer; _rotated_structure returns a fresh array, so the
    # kernels' later calls leave it as it was
    ops = [project(to_operator(decomp.random_algebra_curvature(u3, np.random.default_rng(s))), u3) for s in (1, 2)]
    first = _rotated_structure(ops[0])[1]
    kept = first.copy()
    work = criteria._workspace(holonomy._CHUNK_BYTES // 8)
    assert np.shares_memory(work, criteria._workspace(1))
    for _, _, cp_sq in criteria._self_term_operands(ops[1]):
        assert np.shares_memory(cp_sq, work)
    values = (curvature_term_self(ops[1]), hat_norm_formula(ops[1]).total)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, work)
    assert values == (curvature_term_self(ops[1]), hat_norm_formula(ops[1]).total)
    # three products above the budget are fresh arrays, as before: one trial
    # of so(10) rotates 3 x 0.73 MB
    assert criteria._workspace(holonomy._CHUNK_BYTES // 8 + 1) is None
    big = project(to_operator(decomp.random_algebra_curvature(so_algebra(generic(10)), np.random.default_rng(3))), so_algebra(generic(10)))
    assert 3 * 8 * big.algebra.dim**3 > holonomy._CHUNK_BYTES
    for _, _, cp_sq in criteria._self_term_operands(big):
        assert not np.shares_memory(cp_sq, work)
    lam, cp = _rotated_structure(big)
    ref_lam, ref_cp = _rotated_reference(big)
    assert np.array_equal(lam, ref_lam)
    assert np.abs(cp - ref_cp).max() <= 1e-13 * np.abs(ref_cp).max()


@pytest.mark.parametrize("builder", [
    lambda: so_algebra(generic(7)),
    lambda: so_algebra(generic(8)),
    lambda: holonomy.u_algebra(kaehler(5)),
], ids=["so7", "so8", "u5"])
def test_rotation_sub_chunks_are_the_one_trial_values(builder):
    # two trials more than a rotation sub-chunk holds: a stack that ends in
    # a further sub-chunk (ragged on so(7)), each value the one-trial value
    # to the bit
    alg = builder()
    count = alg.rotation_trials + 2
    rm = decomp.random_algebra_curvature(alg, np.random.default_rng(13), count=count)
    stack = project(to_operator(rm), alg)
    singles = [project(to_operator(tensor.CurvatureTensor(alg.space, m)), alg) for m in rm.matrix]
    hat = hat_norm_formula(stack)
    ones = [hat_norm_formula(op) for op in singles]
    assert np.array_equal(curvature_term_self(stack), [curvature_term_self(op) for op in singles])
    assert np.array_equal(hat.total, [h.total for h in ones])
    assert np.array_equal(hat.per_component, np.stack([h.per_component for h in ones]))
    assert len(set(np.asarray(hat.total).tolist())) == count
