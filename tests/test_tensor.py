import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from conftest import (
    bianchi_project,
    bianchi_sum,
    check_rank_four,
    from_components,
    lie_action,
    rotated_quaternionic,
    save_tensor,
    scattered_action,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import decomp, euclid, holonomy, tensor
from curvlab.euclid import generic
from curvlab.tensor import (
    CurvatureOperator,
    CurvatureTensor,
    SymmetryError,
    check_curvature_symmetries,
    check_operator_symmetries,
    load_tensor,
    random_curvature,
    ricci,
    scalar,
    t_hat,
    to_operator,
    total_traces,
)


class TestSymmetries:
    def test_sphere_passes(self):
        check_curvature_symmetries(generic(4), decomp.sphere(4).components)

    def test_first_pair(self, rng):
        t = rng.standard_normal((4,) * 4)
        with pytest.raises(SymmetryError, match="not antisymmetric in each pair"):
            check_curvature_symmetries(generic(4), t)

    def test_bianchi_detected(self, so5_space, rng):
        # pair-symmetric but with a fully antisymmetric contamination
        e = np.eye(5)
        t = decomp.sphere(5).components.copy()
        anti = np.zeros((5,) * 4)
        for (a, b, c, d), s in (
            ((0, 1, 2, 3), 1.0),
            ((2, 3, 0, 1), 1.0),
            ((1, 2, 0, 3), 1.0),
            ((0, 3, 1, 2), 1.0),
            ((2, 0, 1, 3), 1.0),
            ((1, 3, 2, 0), 1.0),
        ):
            anti[a, b, c, d] += s
            anti[b, a, c, d] -= s
            anti[a, b, d, c] -= s
            anti[b, a, d, c] += s
        with pytest.raises(SymmetryError, match="Bianchi"):
            check_curvature_symmetries(so5_space, t + anti)

    def test_one_residual_at_a_time(self, rng):
        # the scatter is the one n^4 residual, reduced in place
        t = random_curvature(generic(16), rng).components
        tracemalloc.start()
        try:
            check_curvature_symmetries(generic(16), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * t.nbytes

    def test_bianchi_project_idempotent(self, rng):
        m = rng.standard_normal((10, 10))
        m = m + m.T
        sp = generic(5)
        t = tensor._tensor_array_from_matrix(sp, m)
        p = bianchi_project(t)
        assert np.allclose(bianchi_project(p), p)
        assert np.abs(bianchi_sum(p)).max() < 1e-12


class TestKulkarniNomizu:
    def test_metric_square_is_twice_identity(self):
        for n in range(2, 8):
            g_g = tensor._kn_metric(n)
            assert np.array_equal(g_g, 2.0 * np.eye(n * (n - 1) // 2))
            assert not g_g.flags.writeable and tensor._kn_metric(n) is g_g

    def test_output_is_curvature(self, rng):
        sp = generic(4)
        s = rng.standard_normal((4, 4))
        s = s + s.T
        rm = CurvatureTensor(sp, tensor._kn_matrix(s, np.eye(4)))
        check_rank_four(rm.components)

    def test_rejects_skew_input(self, rng):
        # the double product of two antisymmetric forms breaks Bianchi
        sp = generic(4)
        s, t = rng.standard_normal((2, 4, 4))
        with pytest.raises(SymmetryError, match="Bianchi"):
            CurvatureTensor(sp, tensor._kn_matrix(s - s.T, t - t.T))


class TestOperator:
    def test_round_trip(self, rng):
        sp = generic(5)
        rm = random_curvature(sp, rng=rng)
        op = to_operator(rm)
        back = CurvatureTensor(op.space, np.array(op.matrix))
        assert np.array_equal(back.components, rm.components)

    def test_matrix_entries_are_components(self, rng):
        sp = generic(4)
        rm = random_curvature(sp, rng=rng)
        op = to_operator(rm)
        a = tensor._pair_lookup(4)[0, 1]
        b = tensor._pair_lookup(4)[2, 3]
        assert op.matrix[a, b] == pytest.approx(rm.components[0, 1, 2, 3])

    def test_norm_convention_factor(self, rng):
        rm = random_curvature(generic(5), rng=rng)
        assert rm.norm_sq() == pytest.approx(4.0 * to_operator(rm).norm_sq())

    def test_scal_is_twice_trace(self, rng):
        rm = random_curvature(generic(6), rng=rng)
        assert scalar(rm) == pytest.approx(2.0 * np.trace(to_operator(rm).matrix))

    def test_operator_has_no_public_constructor(self, so5, rng):
        # an operator comes only from to_operator or holonomy.project
        rm = random_curvature(so5.space, rng=rng)
        with pytest.raises(TypeError):
            CurvatureOperator(so5.space, rm.matrix, None)
        with pytest.raises(TypeError):
            CurvatureOperator(so5.space, holonomy.project(to_operator(rm), so5).matrix, so5)

    def test_rejects_non_finite_matrix(self):
        # a NaN residual compares false against any tolerance, and a lone inf
        # makes the tolerance inf too: finiteness is checked on its own
        sp = generic(4)
        lone_inf = np.zeros((6, 6))
        lone_inf[0, 1] = np.inf
        for mat in (np.full((6, 6), np.nan), lone_inf):
            with pytest.raises(SymmetryError, match="^non-finite entry"):
                CurvatureTensor(sp, mat)
        with pytest.raises(SymmetryError, match=r"^non-finite entry nan at \(0, 0\)$"):
            check_operator_symmetries(np.full((6, 6), np.nan))
        with pytest.raises(SymmetryError, match=r"^non-finite entry inf at \(0, 1\)$"):
            check_operator_symmetries(lone_inf)

    def test_rejects_non_finite_components(self):
        comps = decomp.sphere(4).components.copy()
        comps[0, 1, 0, 1] = comps[1, 0, 1, 0] = np.nan
        with pytest.raises(SymmetryError, match=r"^non-finite entry nan at \(0, 1, 0, 1\)$"):
            check_curvature_symmetries(generic(4), comps)

    def test_to_operator_does_no_symmetry_scan(self, rng, monkeypatch):
        # the tensor's matrix was validated (or built symmetric) once
        rm = random_curvature(generic(5), rng=rng)

        def scan(*args):
            raise AssertionError("symmetry scan on a wrapped tensor")

        monkeypatch.setattr(tensor, "_first_over", scan)
        op = to_operator(rm)
        assert op.matrix is rm.matrix and op.algebra is None
        assert op.spectrum().values.shape == (10,)


    @pytest.mark.parametrize("factor", [np.nan, np.inf, np.array([1.0, np.nan])], ids=["nan", "inf", "array"])
    def test_non_finite_factor_raises(self, so5, rng, factor):
        # a multiple is built with no scan, so its factor is checked: a NaN
        # or inf would make a tensor of non-finite entries
        rm = random_curvature(so5.space, rng=rng)
        for product in (lambda: rm * factor, lambda: factor * rm):
            with pytest.raises(SymmetryError, match=f"^non-finite factor {re.escape(str(factor))}$"):
                product()

    def test_overflow_raises(self, so5, rng):
        # a finite factor or two finite tensors can still overflow; the
        # result is refused, its first inf named, not built unchecked.  numpy
        # warns of the overflow itself, which is not what is tested here
        rm = random_curvature(so5.space, rng=rng)
        big = rm * (1e308 / np.abs(rm.matrix).max())
        overflows = (lambda: rm * 1e308, lambda: 1e308 * rm, lambda: big + big, lambda: big - big * -1.0,
                     lambda: big * np.ones(2) + big)
        for overflow in overflows:
            with np.errstate(over="ignore"), pytest.raises(SymmetryError, match="^non-finite entry -?inf at "):
                overflow()

    @pytest.mark.parametrize("case", ["dimension", "kind", "structure"])
    def test_arithmetic_across_spaces_raises(self, case, rng, u3_space, u3_swapped_space):
        # a sum or difference lives on its operands' one space, equal by value:
        # across n numpy once failed to broadcast, and across structures the
        # result silently took the left operand's space
        spaces = {"dimension": (generic(5), generic(6)), "kind": (euclid.kaehler(2), generic(4)),
                  "structure": (u3_space, u3_swapped_space)}[case]
        a, b = (decomp.structure_model(space) + random_curvature(space, rng) for space in spaces)
        for x, y in ((a, b), (b, a)):
            names = " and ".join(f"{t.space.kind} R^{t.space.n}" for t in (x, y))
            for combine in (x.__add__, x.__sub__):
                with pytest.raises(euclid.GeometryError, match=re.escape(f"on two spaces do not combine: {names}")):
                    combine(y)


def _generator(alg, rng):
    """Skew matrix of a random element of the algebra."""
    return np.einsum("a,aij->ij", rng.standard_normal(alg.dim), alg.matrices)


class TestLieAction:
    def test_metric_is_invariant(self, so5, rng):
        lg = lie_action(_generator(so5, rng), np.eye(5))
        assert np.abs(lg).max() < 1e-12

    def test_sphere_is_invariant(self, so5, rng):
        rm = decomp.sphere(5)
        assert np.abs(lie_action(_generator(so5, rng), rm).components).max() < 1e-12

    def test_preserves_symmetries(self, so5, rng):
        rm = random_curvature(so5.space, rng=rng)
        check_rank_four(lie_action(_generator(so5, rng), rm).components)

    def test_rank2_derivation(self, so5, rng):
        # L_A acts on a symmetric matrix as minus the symmetrized product
        s = rng.standard_normal((5, 5))
        s = s + s.T
        am = _generator(so5, rng)
        got = lie_action(am, s)
        assert np.allclose(got, -(am.T @ s + s @ am))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lie_action_is_bracket_compatible(seed):
    # L_A L_B - L_B L_A = L_[A,B] on curvature tensors
    sp = generic(4)
    rng = np.random.default_rng(seed)
    rm = random_curvature(sp, rng=rng)
    a, b = (s - s.T for s in rng.standard_normal((2, 4, 4)))
    lhs = lie_action(a, lie_action(b, rm)).components - lie_action(
        b, lie_action(a, rm)
    ).components
    rhs = lie_action(a @ b - b @ a, rm).components
    scale = 1 + np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-9 * scale


class TestHats:
    def test_invariant_tensor_has_zero_hats(self, so5, rng):
        hats = t_hat(to_operator(decomp.sphere(5)), so5)
        assert len(hats) == so5.dim
        assert max(np.abs(h).max() for h in hats) < 1e-12


@pytest.fixture(params=["so5", "u3", "u3_swapped", "qk2"])
def hat_algebra(request):
    return request.getfixturevalue(request.param)


def _close(got, ref, rtol=1e-12):
    return float(np.abs(got - ref).max()) <= rtol * (1.0 + float(np.abs(ref).max()))


class TestOperatorHats:
    """t_hat on bivector operators against lie_action, the slot-by-slot
    single-generator reference, on tensors that are not invariant."""

    def test_operator_hats_match_lie_action(self, hat_algebra, rng):
        rm = random_curvature(hat_algebra.space, rng=rng)
        hats = t_hat(to_operator(rm), hat_algebra)
        d = hat_algebra.space.bivector_dim
        assert hats.shape == (hat_algebra.dim, d, d)
        for b, gen in enumerate(hat_algebra.matrices):
            assert _close(hats[b], to_operator(lie_action(gen, rm)).matrix)

    def test_tensor_hats_match_lie_action(self, hat_algebra, rng):
        # the component arrays scattered from the operator hats are the
        # slot-by-slot action on the component array
        rm = random_curvature(hat_algebra.space, rng=rng)
        hats = t_hat(to_operator(rm), hat_algebra)
        for b, gen in enumerate(hat_algebra.matrices):
            got = tensor._tensor_array_from_matrix(rm.space, hats[b])
            assert _close(got, lie_action(gen, rm).components)

    def test_bivector_action_is_antisymmetric(self, hat_algebra):
        act = scattered_action(hat_algebra)
        assert np.abs(act + act.transpose(0, 2, 1)).max() == 0.0

    def test_restricted_operator_raises(self, hat_algebra, rng):
        rm = random_curvature(hat_algebra.space, rng=rng)
        with pytest.raises(euclid.GeometryError):
            t_hat(holonomy.project(to_operator(rm), hat_algebra), hat_algebra)

    def test_raw_array_is_validated(self, so5, rng):
        # one convention, the operator stack: raw rank-four and rank-two
        # arrays, and tensors, are refused
        rm = random_curvature(so5.space, rng=rng)
        for arg in (rm, rm.components, rm.matrix, np.eye(5)):
            with pytest.raises(euclid.GeometryError, match="full bivector-space operator"):
                t_hat(arg, so5)


class TestTraces:
    def test_sphere_ricci(self):
        rm = decomp.sphere(6)
        assert np.allclose(ricci(rm), 10.0 * np.eye(6))
        assert scalar(rm) == pytest.approx(60.0)

    def test_total_traces_structure_count(self, u3, qk2, rng):
        rm_k = decomp.random_algebra_curvature(u3, rng=rng)
        rm_q = decomp.random_algebra_curvature(qk2, rng=rng)
        assert len(total_traces(rm_k)) == 2
        assert len(total_traces(rm_q)) == 4
        assert len(total_traces(random_curvature(generic(4), rng=rng))) == 1


class TestRandom:
    def test_has_symmetries(self, rng):
        rm = random_curvature(generic(6), rng=rng)
        check_rank_four(rm.components)

    def test_seeded_reproducibility(self):
        a = random_curvature(generic(5), rng=np.random.default_rng(7))
        b = random_curvature(generic(5), rng=np.random.default_rng(7))
        assert np.array_equal(a.components, b.components)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        rm = random_curvature(generic(5), rng=rng)
        path = tmp_path / "t.json"
        save_tensor(rm, path)
        back = load_tensor(path)
        assert back.space == rm.space
        assert np.allclose(back.components, rm.components)

    def test_structure_tag_round_trip(self, tmp_path, qk2, rng):
        rm = decomp.random_algebra_curvature(qk2, rng=rng)
        path = tmp_path / "q.json"
        save_tensor(rm, path)
        back = load_tensor(path)
        assert back.space.kind == "qk"
        assert back.space == rm.space
        assert np.allclose(back.components, rm.components)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 4, "structure": "generic", "components": [0.0, 1.0]}')
        with pytest.raises(euclid.GeometryError):
            load_tensor(path)

    def test_rejects_unknown_structure(self, tmp_path):
        comp = [0.0] * 16
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n": 2, "structure": "octonion", "components": %s}' % comp
        )
        with pytest.raises(euclid.GeometryError):
            load_tensor(path)

    def test_record_is_dropped_before_the_symmetry_check(self, monkeypatch, tmp_path, rng):
        # the parsed record of an n = 16 file holds 65 536 Python floats,
        # about four times the component array; the n^4 check runs with the
        # array alone
        path = tmp_path / "g16.json"
        save_tensor(random_curvature(generic(16), rng=rng), path)
        check, entry = tensor.check_curvature_symmetries, []

        def traced(space, t):
            entry.append((tracemalloc.get_traced_memory()[0], t.nbytes))
            return check(space, t)

        monkeypatch.setattr(tensor, "check_curvature_symmetries", traced)
        tracemalloc.start()
        try:
            load_tensor(path)
        finally:
            tracemalloc.stop()
        [(current, nbytes)] = entry
        assert current <= 2 * nbytes, (current, nbytes)

    def test_load_validates_symmetries(self, tmp_path):
        comp = np.zeros((4, 4, 4, 4))
        comp[0, 1, 0, 1] = 1.0
        path = tmp_path / "asym.json"
        path.write_text(
            '{"n": 4, "structure": "generic", "components": %s}'
            % comp.ravel().tolist()
        )
        with pytest.raises(SymmetryError):
            load_tensor(path)


# ---------------------------------------------------------------------------
# operator storage: pinned to the rank-four references


def _gather(space, arr):
    """Operator entries of a rank-four array, read at increasing pairs."""
    ii, jj = space.pair_rows, space.pair_cols
    return arr[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]


def _kn_array(s, t):
    """Double product of two bilinear forms as a rank-four array: the einsum
    reference for tensor._kn_matrix, the same four products in the same
    order, so the same bits at increasing pairs."""
    return (
        np.einsum("xz,yw->xyzw", s, t)
        - np.einsum("xw,yz->xyzw", s, t)
        + np.einsum("yw,xz->xyzw", s, t)
        - np.einsum("yz,xw->xyzw", s, t)
    )


ALGEBRAS = [("so", n) for n in range(4, 10)] + [("u", m) for m in (2, 3, 4)] + [
    ("sp_sp1", m) for m in (2, 3)
]
@functools.cache
def _algebra(tag, size):
    # size is n for so, the block count m for u and sp_sp1
    kind = holonomy.holonomy_kind(tag)
    return holonomy.by_name(euclid.standard_space(kind, size * euclid._KINDS[kind][1]), tag)


@pytest.fixture(params=ALGEBRAS, ids=[f"{t}{s}" for t, s in ALGEBRAS])
def formula_algebra(request):
    return _algebra(*request.param)


def _symmetric(rng, n):
    s = rng.standard_normal((n, n))
    return s + s.T


def _skew(rng, n):
    s = rng.standard_normal((n, n))
    return s - s.T


class TestOperatorStorage:
    def test_tensor_holds_only_the_operator(self, rng):
        rm = random_curvature(generic(6), rng=rng)
        arrays = [v for v in vars(rm).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(15, 15)]

    def test_to_operator_does_not_copy(self, rng):
        rm = random_curvature(generic(5), rng=rng)
        assert to_operator(rm).matrix is rm.matrix

    def test_components_are_derived(self, rng):
        rm = random_curvature(generic(5), rng=rng)
        comp = rm.components
        assert np.array_equal(_gather(rm.space, comp), rm.matrix)
        comp[0, 1, 0, 1] += 1.0
        assert not np.array_equal(rm.components, comp)

    def test_from_components_round_trip(self, rng):
        rm = random_curvature(generic(5), rng=rng)
        back = check_curvature_symmetries(rm.space, rm.components)
        assert np.array_equal(back.matrix, rm.matrix)

    def test_from_components_validates_slots(self, rng):
        with pytest.raises(SymmetryError, match="not antisymmetric in each pair"):
            check_curvature_symmetries(generic(4), rng.standard_normal((4,) * 4))

    def test_rank_four_array_is_not_an_operator(self):
        with pytest.raises(SymmetryError, match="shape"):
            CurvatureTensor(generic(4), decomp.sphere(4).components)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from([("so", 4), ("so", 5), ("so", 6), ("so", 7), ("u", 3), ("sp_sp1", 2)]),
    kind=st.sampled_from(["asymmetric", "four-form"]),
    factor=st.sampled_from([0.1, 0.8, 1.25, 10.0]),
)
def test_operator_validation_matches_rank_four(seed, base, kind, factor):
    # perturb a valid operator off pair symmetry or off Bianchi by 0.1x or 10x
    # the tolerance, and by 0.8x or 1.25x, which pins the residual's scale;
    # the constructor decides as the rank-four validator does
    rng = np.random.default_rng(seed)
    alg = _algebra(*base)
    space, n = alg.space, alg.space.n
    mat = decomp.random_algebra_curvature(alg, rng=rng).matrix.copy()
    size = factor * 1e-10 * (1.0 + float(np.abs(mat).max())) * rng.choice([-1.0, 1.0])
    if kind == "asymmetric":
        p, q = rng.choice(space.bivector_dim, size=2, replace=False)
        mat[p, q] += size
    else:
        i, j, k, l = np.sort(rng.choice(n, size=4, replace=False))
        for (a, b), (c, d), sign in (((i, j), (k, l), 1), ((i, k), (j, l), -1), ((i, l), (j, k), 1)):
            p, q = tensor._pair_lookup(n)[a, b], tensor._pair_lookup(n)[c, d]
            mat[p, q] += sign * size
            mat[q, p] += sign * size
    try:
        check_rank_four(tensor._tensor_array_from_matrix(space, mat))
        reference_raises = False
    except SymmetryError:
        reference_raises = True
    try:
        CurvatureTensor(space, mat)
        raises = False
    except SymmetryError:
        raises = True
    assert raises == reference_raises == (factor > 1)


def _parity(perm) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _perturbed(t: np.ndarray, kind: str, quad, delta: float) -> np.ndarray:
    """t with the entry of class kind at the distinct indices quad = (a, b,
    c, d) moved by delta, along with its images under the symmetries that
    the class keeps: a slot of one pair alone (first, second), the four
    slots of both pair antisymmetries (interchange), the four-form
    e_a ^ e_b ^ e_c ^ e_d (Bianchi), or T[a, a, c, d] (repeated); or a NaN
    at quad."""
    t = t.copy()
    a, b, c, d = quad
    if kind == "first pair":
        t[a, b, c, d] += delta
    elif kind == "second pair":
        t[a, b, d, c] += delta
    elif kind == "pair interchange":
        for slot, sign in (((a, b, c, d), 1), ((b, a, c, d), -1), ((a, b, d, c), -1), ((b, a, d, c), 1)):
            t[slot] += sign * delta
    elif kind == "Bianchi":
        for perm in itertools.permutations(range(4)):
            t[tuple(quad[p] for p in perm)] += _parity(perm) * delta
    elif kind == "repeated index":
        t[a, a, c, d] += delta
    else:
        t[quad] = np.nan
    return t


def _message(check, *args):
    try:
        check(*args)
    except SymmetryError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("kind", ["first pair", "second pair", "pair interchange", "Bianchi", "repeated index", "NaN"])
def test_file_check_matches_rank_four(n, kind):
    # one class of slot moved off curvature type by 10x and by 0.1x the
    # tolerance: the four-residual reference and the file check both reject,
    # and both accept; a NaN is rejected at any size.  Interchange, Bianchi
    # and a NaN raise the reference's message; an antisymmetry is one class,
    # whose residual reads |delta| at a repeated-index slot, where the
    # reference reads 2|delta|
    space = generic(n)
    rng = np.random.default_rng(100 + n)
    t = random_curvature(space, rng).components
    quad = tuple(int(i) for i in rng.choice(n, size=4, replace=False))
    tol = 1e-10 * (1.0 + np.abs(t).max())
    for factor in (10.0, 0.1):
        bad = _perturbed(t, kind, quad, factor * tol * rng.choice([-1.0, 1.0]))
        reference, got = _message(check_rank_four, bad), _message(check_curvature_symmetries, space, bad)
        if factor < 1 and kind != "NaN":
            assert reference is None and got is None
            assert np.array_equal(check_curvature_symmetries(space, bad).matrix, from_components(space, bad).matrix)
            continue
        assert reference is not None and got is not None
        if kind in ("pair interchange", "Bianchi", "NaN"):
            assert got == reference
        else:
            assert got.startswith("not antisymmetric in each pair, residual")


def _flat_tables(n):
    """Flat indices (xz, yw, xw, yz) into an n x n form, each D x D, at the
    increasing pairs (x, y) (rows) and (z, w) (columns): the table form of
    the pair-row products."""
    rows, cols = np.triu_indices(n, 1)
    x, y, z, w = rows[:, None] * n, cols[:, None] * n, rows[None, :], cols[None, :]
    return x + z, y + w, x + w, y + z


class TestPairIndexFormulas:
    """Pair-index formulas on operators against their einsum references on
    rank-four arrays, 1e-12 relative."""

    def test_kulkarni_nomizu(self, formula_algebra, rng):
        n = formula_algebra.space.n
        space = formula_algebra.space
        sym, skew = _symmetric(rng, n), _skew(rng, n)
        for s, t in ((sym, np.eye(n)), (sym, _symmetric(rng, n)), (skew, _skew(rng, n))):
            got = tensor._kn_matrix(s, t)
            ref = _gather(space, _kn_array(s, t))
            assert _close(got, ref)
            assert np.array_equal(got, ref)

    def test_form_products(self, formula_algebra, rng):
        n = formula_algebra.space.n
        a, b = _skew(rng, n), _skew(rng, n)
        ref = _gather(formula_algebra.space, np.einsum("xy,zw->xyzw", a, b))
        assert _close(tensor._pair_outer(a, b), ref)

    def test_traces(self, formula_algebra, rng):
        rm = decomp.random_algebra_curvature(formula_algebra, rng=rng)
        comp = rm.components
        ric = np.einsum("sxsw->xw", comp)
        assert _close(ricci(rm), ric)
        assert _close(np.array(scalar(rm)), np.array(np.einsum("sxsx->", comp)))
        ref = [np.linalg.norm(ric)] + [
            np.linalg.norm(0.5 * np.einsum("st,stzw->zw", s, comp)) for s in rm.space.structures
        ]
        assert _close(np.array(total_traces(rm)), np.array(ref))

    def test_conjugation(self, formula_algebra, rng):
        # T -> sum_ab S[a, x] S[b, y] T[a, b, z, w] is the operator C M, C the
        # matrix of xi -> S^T mat(xi) S; the Kaehler check uses S = J
        rm = decomp.random_algebra_curvature(formula_algebra, rng=rng)
        space = rm.space
        forms = [rng.standard_normal((space.n, space.n))]
        if space.kind != "generic":
            forms.append(space.J)
        for s in forms:
            ref = _gather(space, np.einsum("ax,by,abzw->xyzw", s, s, rm.components))
            assert _close(tensor._conjugation_on_bivectors(space, s.T) @ rm.matrix, ref)

    @pytest.mark.parametrize("space", ["kaehler", "swapped", "quaternionic", "rotated"])
    def test_conjugation_matches_the_table_form(self, space, u3_swapped_space, rng):
        # the same two products of the same entries, in the same order, as the
        # form read through D x D tables of flat indices: equal bits
        space = {
            "kaehler": euclid.kaehler(3),
            "swapped": u3_swapped_space,
            "quaternionic": euclid.quaternion_kaehler(2),
            "rotated": rotated_quaternionic(2),
        }[space]
        xz, yw, xw, yz = _flat_tables(space.n)
        structs = list(space.structures)
        for s in structs + [s.T for s in structs] + [rng.standard_normal((space.n, space.n))]:
            flat = s.ravel()
            ref = flat[yw] * flat[xz] - flat[yz] * flat[xw]
            assert np.array_equal(tensor._conjugation_on_bivectors(space, s), ref)

    @pytest.mark.parametrize("shapes", [((6, 6), (6, 6)), ((3, 6, 6), (3, 6, 6)), ((6, 6), (3, 6, 6))])
    def test_kn_matrix_matches_the_table_form(self, shapes, rng):
        # the pair-row product reads the entries the D x D tables read, in
        # the same order, and is C-ordered like the tables' gather: equal
        # bits, and reductions over it run in the one-tensor order
        s, t = (rng.standard_normal(shape) for shape in shapes)
        xz, yw, xw, yz = _flat_tables(6)

        def at(a, index):
            return tensor._gather(a, index, 2)

        ref = at(s, xz) * at(t, yw) - at(s, xw) * at(t, yz) + at(s, yw) * at(t, xz) - at(s, yz) * at(t, xw)
        got = tensor._kn_matrix(s, t)
        assert np.array_equal(got, ref)
        assert got.flags.c_contiguous

    def test_bianchi_projection(self, formula_algebra, rng):
        space = formula_algebra.space
        sym = _symmetric(rng, space.bivector_dim)
        got = tensor._bianchi_project_matrix(sym)
        ref = _gather(space, bianchi_project(tensor._tensor_array_from_matrix(space, sym)))
        assert _close(got, ref)
        assert np.array_equal(got, ref)
        check_operator_symmetries(got)
