import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest
from conftest import (
    bianchi_sum,
    check_rank_four,
    grassmannian_reference,
    misplaced_unitary,
    pin_note,
    rotated_kaehler,
    rotated_quaternionic,
    rotation,
    wolf_reference,
)

from curvlab import cli, criteria, decomp, euclid, holonomy, tensor
from curvlab.decomp import (
    _bianchi_kernel_basis,
    bochner_decompose,
    bochner_explicit,
    const_hol,
    curvature_space_dim,
    grassmannian,
    hp,
    qk_decompose,
    random_algebra_curvature,
    sphere,
    weyl_decompose,
    wolf,
)
from curvlab.euclid import GeometryError, generic, kaehler, quaternion_kaehler
from curvlab.tensor import _tensor_array_from_matrix, scalar, to_operator, total_traces


class TestModels:
    def test_sphere_operator(self):
        op = to_operator(sphere(5))
        assert np.allclose(op.matrix, 2.0 * np.eye(10))
        assert scalar(sphere(5)) == pytest.approx(40.0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_sphere_is_exactly_twice_identity(self, n):
        assert np.array_equal(to_operator(sphere(n)).matrix, 2.0 * np.eye(n * (n - 1) // 2))
        assert scalar(sphere(n)) == 2.0 * n * (n - 1)

    def test_const_hol_spectrum(self):
        m = 3
        rm = const_hol(m)
        alg = holonomy.u_algebra(rm.space)
        rop = holonomy.project(to_operator(rm), alg)
        mults = rop.spectrum().multiplicities(1e-6)
        assert [(round(v, 6), c) for v, c in mults] == [
            (2.0, m * m - 1),
            (2.0 * (m + 1), 1),
        ]
        assert scalar(rm) == pytest.approx(4.0 * m * (m + 1))

    def test_models_are_shared_and_read_only(self):
        assert hp(2) is hp(2)
        assert grassmannian(2, 3) is grassmannian(2, 3)
        assert wolf(2) is wolf(2)
        with pytest.raises(ValueError):
            hp(2).components[0, 1, 0, 1] = 1.0
        with pytest.raises(ValueError):
            wolf(2).matrix[0, 0] = 1.0
        for model in (sphere(4), const_hol(2), grassmannian(2, 3), wolf(2)):
            assert not model.components.flags.writeable

    @pytest.mark.parametrize("m", [2, 3])
    def test_standard_models_are_the_structure_models(self, m):
        # one object per model: no second cached copy of the same tensor
        hp.cache_clear()
        const_hol.cache_clear()
        assert hp(m) is decomp.structure_model(quaternion_kaehler(m))
        assert const_hol(m) is decomp.structure_model(kaehler(m))

    def test_results_built_from_models_are_writable(self, qk2):
        before = {id(m): m.matrix.copy() for m in (hp(2), wolf(2))}
        rm = random_algebra_curvature(qk2, np.random.default_rng(3))
        shifted, _ = criteria.two_nonnegative_shift(rm, qk2)
        dec = qk_decompose(rm, qk2)
        wolf_dec = qk_decompose(wolf(2), qk2)
        wolf_shifted, _ = criteria.two_nonnegative_shift(wolf(2), qk2)
        arrays = [shifted.components, wolf_shifted.components] + [
            p.components for p in (*dec.parts.values(), *wolf_dec.parts.values())
        ]
        for arr in arrays:
            assert arr.flags.writeable
            for model in (hp(2), wolf(2)):
                assert not np.shares_memory(arr, model.matrix)
            arr += 1.0
        for model in (hp(2), wolf(2)):
            assert np.array_equal(model.matrix, before[id(model)])

    def test_hp_values(self, hp2):
        assert scalar(hp2) == pytest.approx(128.0)
        assert to_operator(hp2).norm_sq() == pytest.approx(352.0)

    def test_grassmann_scal(self):
        for p, q in ((2, 2), (2, 3), (3, 4)):
            assert scalar(grassmannian(p, q)) == pytest.approx(p * q * (p + q - 2))

    def test_grassmann_symmetric(self):
        # G(p, q) and G(q, p) are the same space up to index relabeling
        a = to_operator(grassmannian(2, 3)).spectrum().values
        b = to_operator(grassmannian(3, 2)).spectrum().values
        assert np.allclose(np.sort(a), np.sort(b))

    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 17) for q in range(1, 17) if 2 <= p * q <= 16]
                             + [(4, 6), (6, 4), (3, 8), (2, 12), (1, 24)])
    def test_grassmannian_is_the_rank_four_formula(self, p, q):
        # tobytes: the sign of every zero counts
        assert grassmannian(p, q).matrix.tobytes() == grassmannian_reference(p, q).matrix.tobytes()

    @pytest.mark.parametrize("m", range(2, 7))
    def test_wolf_is_the_moved_rank_four_array(self, m):
        assert wolf(m).matrix.tobytes() == wolf_reference(m).matrix.tobytes()

    @pytest.mark.parametrize("build, args", [(grassmannian, (4, 6)), (grassmannian, (6, 4)), (wolf, (6,))],
                             ids=["grassmannian-4-6", "grassmannian-6-4", "wolf-6"])
    def test_models_form_no_rank_four_array(self, build, args):
        # the operator formulas peak at a few D x D arrays (D = 276); the
        # rank-four route peaked at about 30 arrays' worth
        grassmannian(6, 4)
        tracemalloc.start()
        try:
            build.__wrapped__(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * 276**2

    def test_wolf_matches_grassmann_spectrum(self, wolf2):
        a = np.sort(to_operator(wolf2).spectrum().values)
        b = np.sort(to_operator(grassmannian(2, 4)).spectrum().values)
        assert np.allclose(a, b)

    def test_wolf_supported_on_algebra(self, wolf2, qk2):
        assert holonomy.complement_mass(to_operator(wolf2), qk2) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_hp_and_wolf_hold_on_a_rotated_frame(self, m):
        # hp(m) and wolf(m) moved by g, C M C^T, keep every closed form of
        # the hp and wolf suites on the structure moved by g
        g = rotation(4 * m, 0)
        space = rotated_quaternionic(m)
        base = quaternion_kaehler(m)
        assert space == euclid.EuclideanSpace(4 * m, "qk", *(g @ s @ g.T for s in (base.I, base.J, base.K)))
        conj = tensor._conjugation_on_bivectors(space, g)
        alg = holonomy.by_name(space, "sp")
        standard = holonomy.by_name(base, "sp")
        for model, hat in ((hp(m), 0.0), (wolf(m), 36.0 * m * (m - 1) * (m + 2))):
            moved = tensor.CurvatureTensor(space, conj @ model.matrix @ conj.T)
            op = to_operator(moved)
            assert holonomy.complement_mass(op, alg) <= 1e-9
            rop = holonomy.project(op, alg)
            mults = rop.spectrum().multiplicities(cli.GAP)
            want = holonomy.project(to_operator(model), standard).spectrum().multiplicities(cli.GAP)
            assert [c for _, c in mults] == [c for _, c in want]
            assert [v for v, _ in mults] == pytest.approx([v for v, _ in want], rel=1e-9, abs=1e-9)
            direct, formula = criteria.hat_norm_direct(moved, alg), criteria.hat_norm_formula(rop)
            assert direct == pytest.approx(hat, rel=1e-9, abs=1e-9)
            assert formula == pytest.approx(hat, rel=1e-9, abs=1e-9)
        transported_hp = conj @ hp(m).matrix @ conj.T
        assert np.allclose(decomp.structure_model(space).matrix, transported_hp, rtol=0, atol=1e-12)


class TestWeyl:
    def test_reconstruction_and_orthogonality(self, rng):
        rm = tensor.random_curvature(generic(6), rng=rng)
        dec = weyl_decompose(rm)
        assert dec.residual() < 1e-12 * (1 + np.abs(rm.components).max())
        assert dec.max_cross_inner() < 1e-10

    def test_weyl_part_is_totally_traceless(self, rng):
        rm = tensor.random_curvature(generic(5), rng=rng)
        w = weyl_decompose(rm).parts["weyl"]
        assert max(total_traces(w)) < 1e-12
        assert abs(scalar(w)) < 1e-12

    def test_idempotent(self, rng):
        rm = tensor.random_curvature(generic(6), rng=rng)
        w = weyl_decompose(rm).parts["weyl"]
        again = weyl_decompose(w)
        assert np.allclose(again.parts["weyl"].components, w.components)

    def test_sphere_has_no_weyl(self):
        dec = weyl_decompose(sphere(6))
        assert dec.parts["weyl"].norm_sq() < 1e-20
        assert dec.parts["ric0_part"].norm_sq() < 1e-20

    def test_needs_dimension_four(self):
        with pytest.raises(GeometryError):
            weyl_decompose(sphere(3))


class TestBochner:
    def test_routes_agree(self, u3, rng):
        rm = random_algebra_curvature(u3, rng=rng)
        via_kn = bochner_decompose(rm).parts["bochner"]
        explicit = bochner_explicit(rm)
        scale = 1 + np.abs(rm.components).max()
        assert np.abs(via_kn.components - explicit.components).max() < 1e-10 * scale

    def test_bochner_part_traceless(self, u3, rng):
        rm = random_algebra_curvature(u3, rng=rng)
        b = bochner_decompose(rm).parts["bochner"]
        assert max(total_traces(b)) < 1e-10

    def test_rejects_non_invariant(self, rng):
        sp = kaehler(3)
        rm = tensor.random_curvature(sp, rng=rng)
        with pytest.raises(GeometryError):
            bochner_decompose(rm)

    def test_rejects_nan(self, u3):
        # a tensor built unchecked: the invariance defect is NaN, which fails
        nan = tensor.CurvatureTensor(u3.space, np.full((15, 15), np.nan), validate=False)
        for route in (bochner_decompose, bochner_explicit):
            with pytest.raises(GeometryError, match="not invariant"):
                route(nan)

    def test_const_hol_has_no_bochner(self):
        dec = bochner_decompose(const_hol(3))
        assert dec.parts["bochner"].norm_sq() < 1e-18
        assert dec.parts["ric0_part"].norm_sq() < 1e-18

    def test_coefficients(self, u3, rng):
        rm = random_algebra_curvature(u3, rng=rng)
        dec = bochner_decompose(rm)
        m = 3
        sc = scalar(rm)
        assert dec.coefficients["scalar"] == pytest.approx(sc / (4 * m * (m + 1)))
        assert dec.coefficients["ricci"] == pytest.approx(1.0 / (2 * (m + 2)))


class TestQK:
    def test_hp_is_pure_model(self, hp2, qk2):
        dec = qk_decompose(hp2, qk2)
        assert dec.parts["hyperkaehler_part"].norm_sq() < 1e-20
        assert dec.coefficients["scalar"] == pytest.approx(1.0)

    def test_wolf_coefficient(self, wolf2, qk2):
        dec = qk_decompose(wolf2, qk2)
        m = 2
        assert dec.coefficients["scalar"] == pytest.approx(
            scalar(wolf2) / (16.0 * m * (m + 2))
        )

    def test_trace_free_part(self, qk2, rng):
        rm = random_algebra_curvature(qk2, rng=rng)
        dec = qk_decompose(rm, qk2)
        r0 = dec.parts["hyperkaehler_part"]
        assert abs(scalar(r0)) < 1e-10
        assert dec.residual() < 1e-12 * (1 + np.abs(rm.components).max())

    def test_rejects_leaky_tensor(self, qk2, rng):
        rm = tensor.random_curvature(qk2.space, rng=rng)
        with pytest.raises(GeometryError, match="leak"):
            qk_decompose(rm, qk2)

    def test_rejects_nan(self, qk2, hp2):
        # a tensor built unchecked: its complement mass is NaN, which leaks
        nan = tensor.CurvatureTensor(qk2.space, hp2.matrix * np.nan, validate=False)
        with pytest.raises(GeometryError, match="leaks off the holonomy algebra"):
            qk_decompose(nan, qk2)


class TestPartChecks:
    """A part that a new formula builds (ric0_part) is checked, and so is a
    sample; a model multiple or a difference of checked tensors is not."""

    @staticmethod
    def _off_bianchi_kn(monkeypatch, n):
        # _kn_matrix plus 1 at (01, 23) and (23, 01): symmetric, with Bianchi
        # sum 1/3 at the quadruple 0 < 1 < 2 < 3
        pair = tensor._pair_lookup(n)
        bump = np.zeros((n * (n - 1) // 2,) * 2)
        bump[pair[0, 1], pair[2, 3]] = bump[pair[2, 3], pair[0, 1]] = 1.0
        kn = decomp._kn_matrix
        monkeypatch.setattr(decomp, "_kn_matrix", lambda s, t: kn(s, t) + bump)

    @pytest.mark.parametrize("count", [None, 3])
    def test_formula_built_part_keeps_its_check(self, monkeypatch, u3, count):
        weyl_in = tensor.random_curvature(generic(5), np.random.default_rng(1), count)
        bochner_in = random_algebra_curvature(u3, np.random.default_rng(2), count=count)
        decomp.structure_model(u3.space)  # the cached model, built unpatched
        for route, rm in ((weyl_decompose, weyl_in), (bochner_decompose, bochner_in)):
            with monkeypatch.context() as patch:
                self._off_bianchi_kn(patch, rm.space.n)
                with pytest.raises(tensor.SymmetryError, match="first Bianchi identity fails"):
                    route(rm)

    @pytest.mark.parametrize("count", [None, 3])
    def test_qk_parts_are_the_model_multiple_and_the_rest(self, monkeypatch, qk2, count):
        rm = random_algebra_curvature(qk2, np.random.default_rng(3), count=count)
        self._off_bianchi_kn(monkeypatch, qk2.space.n)
        dec = qk_decompose(rm, qk2)
        multiple = dec.coefficients["scalar"] * decomp.structure_model(qk2.space)
        assert np.array_equal(dec.parts["hp_multiple"].matrix, multiple.matrix)
        assert np.array_equal(dec.parts["hyperkaehler_part"].matrix, rm.matrix - multiple.matrix)

    def test_checks_per_call(self, monkeypatch, u3, qk2):
        # one check per sample, one per decomposition for its ric0_part,
        # none for the qk parts; the models are cached, built before
        calls = []
        check = tensor.check_operator_symmetries
        monkeypatch.setattr(tensor, "check_operator_symmetries", lambda mat: calls.append(mat) or check(mat))
        cases = (
            (lambda rng: tensor.random_curvature(generic(5), rng, 3), weyl_decompose, 1),
            (lambda rng: random_algebra_curvature(u3, rng, count=3), bochner_decompose, 1),
            (lambda rng: random_algebra_curvature(qk2, rng, count=3), lambda rm: qk_decompose(rm, qk2), 0),
        )
        for draw, route, checks in cases:
            rm = draw(np.random.default_rng(4))
            route(rm)
            calls.clear()
            rm = draw(np.random.default_rng(5))
            assert len(calls) == 1
            route(rm)
            assert len(calls) == 1 + checks


# Saves the sp(5)+sp(1) coefficient rows and a seeded sp(3)+sp(1) sample to
# the .npz path given as its argument.
_THREAD_PROBE = """
import sys
import numpy as np
from curvlab import decomp, holonomy
from curvlab.euclid import quaternion_kaehler

coeff = holonomy.sp_sp1_algebra(quaternion_kaehler(5)).coeff_matrix
rm = decomp.random_algebra_curvature(holonomy.sp_sp1_algebra(quaternion_kaehler(3)), np.random.default_rng(3))
np.savez(sys.argv[1], coeff=coeff, sample=rm.matrix)
"""


class TestKernelSampler:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: holonomy.so_algebra(generic(5)), 50),
            (lambda: holonomy.u_algebra(kaehler(3)), 36),
            (lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(2)), 36),
            (lambda: holonomy.sp_sp1_algebra(rotated_quaternionic(2)), 36),
        ],
    )
    def test_dimensions(self, builder, expected):
        assert curvature_space_dim(builder()) == expected

    def test_generic_dimension_formula(self):
        n = 5
        assert curvature_space_dim(holonomy.so_algebra(generic(n))) == n * n * (
            n * n - 1
        ) // 12

    def test_cache_tells_apart_complex_structures(self, u3, u3_swapped):
        # both algebras are named u(3); their kernels live on different pairs
        random_algebra_curvature(u3, np.random.default_rng(0))
        rm = random_algebra_curvature(u3_swapped, np.random.default_rng(0))
        assert holonomy.complement_mass(to_operator(rm), u3_swapped) < 1e-10
        assert curvature_space_dim(u3_swapped) == 36

    def test_equal_rows_on_two_structures_sample_alike_in_any_order(self):
        # so(6) has the same rows on kaehler(3) and generic(6), but J sets other
        # characters there, so another kernel basis
        on_kaehler, on_generic = (holonomy.so_algebra(s) for s in (kaehler(3), generic(6)))
        _bianchi_kernel_basis.cache_clear()
        first = random_algebra_curvature(on_kaehler, np.random.default_rng(1)).matrix
        _bianchi_kernel_basis.cache_clear()
        random_algebra_curvature(on_generic, np.random.default_rng(1))
        assert np.array_equal(random_algebra_curvature(on_kaehler, np.random.default_rng(1)).matrix, first)

    def test_rebuilt_algebra_hits_cache(self):
        first = _bianchi_kernel_basis(holonomy.u_algebra(kaehler(3)))
        assert _bianchi_kernel_basis(holonomy.u_algebra(kaehler(3))) is first

    def test_samples_have_symmetries(self, qk2, rng):
        rm = random_algebra_curvature(qk2, rng=rng)
        check_rank_four(rm.components)

    def test_samples_supported_on_algebra(self, u3, rng):
        rm = random_algebra_curvature(u3, rng=rng)
        assert holonomy.complement_mass(to_operator(rm), u3) < 1e-10

    def test_seeded_reproducibility(self, qk2):
        a = random_algebra_curvature(qk2, np.random.default_rng(11))
        b = random_algebra_curvature(qk2, np.random.default_rng(11))
        assert np.array_equal(a.components, b.components)

    def test_blas_thread_count_moves_samples_only_at_rounding_level(self, tmp_path):
        src = os.path.dirname(os.path.dirname(decomp.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
            subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(out)], env=env, check=True)
            runs.append(np.load(out))
        one, two = runs
        assert one["coeff"].tobytes() == two["coeff"].tobytes()
        scale = np.abs(one["sample"]).max()
        assert np.abs(one["sample"] - two["sample"]).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "algebra",
        [pytest.param(holonomy.sp_sp1_algebra(quaternion_kaehler(m)), id=f"qk{m}") for m in (3, 4, 5)]
        + [pytest.param(holonomy.u_algebra(kaehler(5)), id="u5")],
    )
    def test_null_rows_are_fixed_by_the_null_space(self, algebra):
        # noise at rounding level in the Gram matrices, as from another BLAS
        # thread count, changes which basis eigh returns of each degenerate
        # null space, but not the rows _null_spaces makes of it
        grams = [g for _, g in decomp._bianchi_blocks(algebra)[0]]
        rng = np.random.default_rng(0)
        noisy = []
        for g in grams:
            e = rng.standard_normal(g.shape)
            noisy.append(g + 1e-15 * np.abs(g).max() * (e + e.transpose(0, 2, 1)))
        for runs, moved_runs in zip(decomp._null_spaces(grams), decomp._null_spaces(noisy)):
            assert len(runs) == len(moved_runs)
            for (blocks, rows), (moved_blocks, moved) in zip(runs, moved_runs):
                assert np.array_equal(blocks, moved_blocks) and rows.shape == moved.shape
                assert np.abs(rows - moved).max() < 1e-9

    def test_so_sampler_spans_curvature_space(self, rng):
        # accumulated samples reach the full generic curvature dimension
        alg = holonomy.so_algebra(generic(4))
        dim = curvature_space_dim(alg)
        mats = []
        for k in range(dim + 5):
            rm = random_algebra_curvature(alg, np.random.default_rng(k))
            mats.append(to_operator(rm).matrix.reshape(-1))
        rank = np.linalg.matrix_rank(np.stack(mats), tol=1e-8)
        assert rank == dim


def _sym_units(d: int) -> np.ndarray:
    """Symmetric d x d units of the packed coordinates, built entrywise.

    Unit s is (a, b), a <= b, in `triu_indices` order: 1 at (a, a), or
    1/sqrt(2) at both (a, b) and (b, a).
    """
    units = []
    for a, b in zip(*np.triu_indices(d)):
        e = np.zeros((d, d))
        e[a, b] = e[b, a] = 1.0 if a == b else np.sqrt(0.5)
        units.append(e)
    return np.stack(units)


def _oracle_constraints(algebra) -> np.ndarray:
    """Unblocked Bianchi constraints in packed coordinates, shape (C(n,4), S).

    Built from rank-four arrays: column s is the Bianchi sum of c^T E_s c at
    the quadruples i < j < k < l.  The cyclic average is a third of the
    library's constraint sum M[ij,kl] + M[jk,il] - M[ik,jl].
    """
    c, n = algebra.coeff_matrix, algebra.space.n
    quads = tuple(np.array(list(itertools.combinations(range(n), 4))).T)
    cols = [
        bianchi_sum(_tensor_array_from_matrix(algebra.space, c.T @ e @ c))[quads]
        for e in _sym_units(algebra.dim)
    ]
    return np.stack(cols, axis=1)


def _svd_kernel_projector(algebra) -> np.ndarray:
    """Projector onto the Bianchi kernel in packed coordinates, from a full SVD
    of the unblocked constraints."""
    _, s, vh = np.linalg.svd(_oracle_constraints(algebra), full_matrices=True)
    null = vh[int(np.sum(s > 1e-10 * s[0])):]
    return null.T @ null


def _dense_basis(algebra) -> np.ndarray:
    """The kernel basis as one dense (k, S) array: the null rows of every
    block of every part scattered to the block's packed positions, in the
    order of parts, blocks and rows.  The library never forms it."""
    size = algebra.dim * (algebra.dim + 1) // 2
    dense = []
    for pos, rows in _bianchi_kernel_basis(algebra):
        for block_pos, block_rows in zip(pos, rows):
            for row in block_rows:
                full = np.zeros(size)
                full[block_pos] = row
                dense.append(full)
    return np.array(dense)


def _array_bytes(obj) -> int:
    """Bytes of the arrays in obj, an array or nested tuples of arrays."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return sum(_array_bytes(item) for item in obj)


def _swapped_kaehler(m: int):
    """kaehler(m) with J conjugated by the swap of coordinates 0 and 1."""
    p = np.eye(2 * m)[[1, 0, *range(2, 2 * m)]]
    return euclid.EuclideanSpace(2 * m, "kaehler", J=p @ kaehler(m).J @ p.T)


# sha256 of each algebra's uncached `_bianchi_kernel_basis` under one BLAS
# thread, as the commands build it: every part's arrays, dtype, shape,
# strides and bytes, in order.  The constraint batches and the closure pass
# may change how they work, never these bytes
KERNEL_SHA256 = {
    "qk4": ("5babdb76fce2997402196573c4661f24a61bafdb885db6926912d43539202f11",
            lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(4))),
    "qk5": ("4db58235ecb18c0fd36bb83ab3375e7da1e078cb9b028883ff16bc92a6c1aab4",
            lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(5))),
    "qk6": ("3fd948975e279ce12d62b5da35914d3fc95ea1189cc57914e8438f64b0e65f82",
            lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(6))),
    "u5": ("496fd7fcd941c28aedc6dbe09dd5865e177c14f0f0e8330c62da3c74758b8dee", lambda: holonomy.u_algebra(kaehler(5))),
}


class TestKernelBasis:
    @pytest.mark.parametrize(
        "tag,space,expected",
        [pytest.param("so", generic(n), n * n * (n * n - 1) // 12, id=f"so{n}")
         for n in range(4, 8)]
        + [pytest.param("u", kaehler(m), (m * (m + 1) // 2) ** 2, id=f"u{m}")
           for m in range(2, 6)]
        + [pytest.param("sp", quaternion_kaehler(m), comb(2 * m + 3, 4) + 1, id=f"qk{m}")
           for m in range(2, 6)],
    )
    def test_closed_form_dimensions(self, tag, space, expected):
        assert curvature_space_dim(holonomy.by_name(space, tag)) == expected

    def test_closed_form_dimension_sp6(self):
        # C(15, 4) + 1: out of tier-1 time for one unblocked Gram (S = 3321)
        alg = holonomy.sp_sp1_algebra(quaternion_kaehler(6))
        assert curvature_space_dim(alg) == comb(15, 4) + 1

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: holonomy.so_algebra(generic(5)),
            lambda: holonomy.so_algebra(generic(6)),
            lambda: holonomy.u_algebra(kaehler(3)),
            lambda: holonomy.u_algebra(_swapped_kaehler(3)),
            lambda: holonomy.u_algebra(rotated_kaehler(3)),
            lambda: misplaced_unitary(3),
            lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(2)),
            lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(3)),
        ],
        ids=["so5", "so6", "u3", "u3_swapped", "u3_rotated", "u3_misplaced", "qk2", "qk3"],
    )
    def test_basis_is_the_svd_null_space(self, builder):
        alg = builder()
        basis = _dense_basis(alg)
        assert basis.shape[0] == curvature_space_dim(alg)
        mats = np.einsum("ks,sab->kab", basis, _sym_units(alg.dim))
        gram = np.einsum("kab,lab->kl", mats, mats)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
        assert np.abs(basis.T @ basis - _svd_kernel_projector(alg)).max() < 1e-10
        c = alg.coeff_matrix
        for s in mats:
            check_rank_four(_tensor_array_from_matrix(alg.space, c.T @ s @ c))

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: holonomy.so_algebra(generic(5)),
            lambda: holonomy.u_algebra(kaehler(3)),
            lambda: holonomy.u_algebra(_swapped_kaehler(3)),
            lambda: holonomy.u_algebra(rotated_kaehler(3)),
            lambda: misplaced_unitary(3),
        ]
        + [(lambda m=m: holonomy.sp_sp1_algebra(quaternion_kaehler(m))) for m in range(2, 6)],
        ids=["so5", "u3", "u3_swapped", "u3_rotated", "u3_misplaced", "qk2", "qk3", "qk4", "qk5"],
    )
    def test_sampler_is_the_dense_product(self, builder):
        # the per-part products scatter what coeffs @ basis gives on the
        # assembled basis, up to the order of the sums
        alg = builder()
        basis = _dense_basis(alg)
        a, b, w = decomp._packed_sym(alg.dim)
        c = alg.coeff_matrix
        for seed in (0, 1):
            x = w * (np.random.default_rng(seed).standard_normal(basis.shape[0]) @ basis)
            s = np.zeros((alg.dim, alg.dim))
            s[a, b] = x
            s[b, a] += x
            ref = c.T @ s @ c
            got = random_algebra_curvature(alg, np.random.default_rng(seed)).matrix
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "builder",
        [lambda: holonomy.so_algebra(generic(6)), lambda: holonomy.u_algebra(kaehler(4)),
         lambda: misplaced_unitary(3), lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(4))],
        ids=["so6", "u4", "u3_misplaced", "qk4"],
    )
    def test_parts_are_read_only_runs_of_blocks(self, builder):
        alg = builder()
        parts = _bianchi_kernel_basis(alg)
        covered = np.concatenate([pos.ravel() for pos, _ in parts])
        # no packed pair is in two blocks; pairs of blocks with no null rows
        # are in none
        assert np.unique(covered).size == covered.size
        assert covered.max() < alg.dim * (alg.dim + 1) // 2
        for pos, rows in parts:
            assert rows.shape[0] == pos.shape[0] and rows.shape[2] == pos.shape[1]
            assert rows.shape[1] >= 1
            assert not pos.flags.writeable and not rows.flags.writeable
            # the sampler's batched product rounds by layout
            assert pos.flags.c_contiguous and rows.flags.c_contiguous
        free_pos, free_rows = parts[-1]
        assert free_pos.shape[1] == 1 and np.array_equal(free_rows, np.ones(free_rows.shape))
        assert curvature_space_dim(alg) == sum(rows.shape[0] * rows.shape[1] for _, rows in parts)

    def test_cached_parts_are_small(self):
        # the dense (k, S) basis at sp(5)+sp(1) is 716 x 1711, 9.8 MB, 8.0%
        # nonzero; the parts hold the null rows of each block and their
        # packed positions
        alg = holonomy.sp_sp1_algebra(quaternion_kaehler(5))
        assert _array_bytes(_bianchi_kernel_basis(alg)) <= 2_000_000

    @pytest.mark.parametrize("name", list(KERNEL_SHA256))
    def test_kernel_bytes_are_pinned(self, name):
        expected, builder = KERNEL_SHA256[name]
        digest = hashlib.sha256()
        with cli._one_blas_thread():
            parts = _bianchi_kernel_basis.__wrapped__(builder())
        for part in parts:
            for a in part:
                digest.update(f"{a.dtype.str} {a.shape} {a.strides}".encode())
                digest.update(a.tobytes())
        assert digest.hexdigest() == expected, pin_note()

    def test_constraint_batches_stay_within_the_budget(self):
        # a batch sized by its rows alone held the gathered factors and a
        # product besides: 4.2 MB at sp(4)+sp(1) for 0.68 MB of Gram matrices
        alg = holonomy.sp_sp1_algebra(quaternion_kaehler(4))
        tracemalloc.start()
        try:
            blocks, _ = decomp._bianchi_blocks(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram_bytes = sum(grams.nbytes for _, grams in blocks)
        assert peak <= gram_bytes + 1.5 * decomp._CHUNK_BYTES, (peak / 1e6, gram_bytes / 1e6)

    def test_uncached_build_peak(self):
        # the dense build at sp(6)+sp(1) peaked at 43.9 MB, its 36 MB (k, S)
        # basis included
        import tracemalloc

        alg = holonomy.sp_sp1_algebra(quaternion_kaehler(6))
        tracemalloc.start()
        try:
            decomp._bianchi_kernel_basis.__wrapped__(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20_000_000, peak / 1e6

    @pytest.mark.parametrize(
        "space,adapted",
        [pytest.param(kaehler(m), True, id=f"u{m}") for m in range(2, 6)]
        + [pytest.param(quaternion_kaehler(m), True, id=f"qk{m}") for m in range(2, 6)]
        + [pytest.param(_swapped_kaehler(3), True, id="u3_swapped"),
           pytest.param(rotated_kaehler(3), False, id="u3_rotated")],
    )
    def test_constructor_rows(self, space, adapted):
        # the commuting block of u(m) or sp(m)+sp(1), then sp(1)'s three forms
        m = space.m
        if space.kind == "kaehler":
            alg, structs, dim = holonomy.u_algebra(space), [space.J], m * m
        else:
            alg, structs, dim = holonomy.sp_sp1_algebra(space), [space.I, space.J, space.K], m * (2 * m + 1)
        c = alg.coeff_matrix
        assert c.shape[0] == dim + (3 if space.kind == "qk" else 0)
        assert np.abs(c @ c.T - np.eye(c.shape[0])).max() <= 1e-12
        assert np.array_equal(euclid._sign_fix(c), c)
        mats = alg.matrices[:dim]
        for s in structs:
            assert np.abs(mats @ s - s @ mats).max() <= 1e-12
        if adapted:
            # each row lies on the pairs of one character: the blocked kernel
            chars = holonomy._pair_characters(space)
            assert all(len(set(chars[row])) == 1 for row in c != 0)
            assert len(set(chars)) > 1

    @staticmethod
    def _constraints(shape, singular_values, seed=0):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((shape[0], shape[0])))[0]
        v = np.linalg.qr(rng.standard_normal((shape[1], shape[1])))[0]
        r = len(singular_values)
        return (u[:, :r] * singular_values) @ v[:, :r].T

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)], ids=["wide", "narrow"])
    def test_null_space_of_gapped_constraints(self, shape, scale):
        # the rank rule is relative: scaling the constraints keeps the rank
        rows = self._constraints(shape, [scale, 0.8 * scale, 0.5 * scale])
        [[(blocks, run_rows)]] = decomp._null_spaces([(rows @ rows.T)[None]])
        assert blocks.tolist() == [0] and run_rows.shape == (1, shape[0] - 3, shape[0])
        # a run of one block is C-ordered like any other
        assert run_rows.flags.c_contiguous
        null = run_rows[0]
        assert np.abs(null @ null.T - np.eye(shape[0] - 3)).max() < 1e-12
        assert np.abs(null @ rows).max() < 1e-12 * scale

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)], ids=["wide", "narrow"])
    def test_singular_value_inside_the_gap_raises(self, shape):
        # sigma = 1e-4 puts a Gram eigenvalue at 1e-8 of the largest
        rows = self._constraints(shape, [1.0, 0.8, 0.5, 1e-4])
        with pytest.raises(GeometryError, match="no clear gap"):
            decomp._null_spaces([(rows @ rows.T)[None]])

    @pytest.mark.parametrize(
        "builder",
        [lambda: holonomy.so_algebra(generic(7)), lambda: holonomy.u_algebra(kaehler(4)),
         lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(4)),
         lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(5))],
        ids=["so7", "u4", "qk4", "qk5"],
    )
    def test_batched_blocks_are_the_whole_blocks(self, builder, monkeypatch):
        # the constraint rows are built in batches of blocks whose working set
        # fits the chunk budget, and a block above it (the 271-row block of
        # sp(5)+sp(1)) alone; one block per batch gives the same Gram
        # matrices, bit for bit
        alg = builder()
        whole, free = decomp._bianchi_blocks(alg)
        monkeypatch.setattr(decomp, "_CHUNK_BYTES", 1)
        single, single_free = decomp._bianchi_blocks(alg)
        assert max(grams.shape[0] for _, grams in whole) > 1
        assert np.array_equal(free, single_free)
        for (pos, grams), (single_pos, single_grams) in zip(whole, single):
            assert np.array_equal(pos, single_pos) and np.array_equal(grams, single_grams)

    def test_degenerate_compressed_form_raises(self):
        # a null space on which diag(sqrt(1), sqrt(2), sqrt(3)) is sqrt(2)
        # times the identity: every basis of it compresses to the same form,
        # so rounding would pick the rows
        s = np.sqrt((np.sqrt(2.0) - 1.0) / (np.sqrt(3.0) - 1.0))
        w = np.array([-s, 0.0, np.sqrt(1.0 - s * s)])
        with pytest.raises(GeometryError, match="not fixed by the compressed form"):
            decomp._null_spaces([np.outer(w, w)[None]])
        # the same null space turned by 1e-3 has a clear gap
        w = np.array([-np.sin(np.arcsin(s) + 1e-3), 0.0, np.cos(np.arcsin(s) + 1e-3)])
        [[(_, null)]] = decomp._null_spaces([np.outer(w, w)[None]])
        assert null.shape == (1, 2, 3) and np.abs(null @ w).max() < 1e-15

    @pytest.mark.parametrize(
        "builder,blocks",
        [
            (lambda: holonomy.so_algebra(generic(6)), 15),
            (lambda: holonomy.u_algebra(kaehler(3)), 4),
            (lambda: holonomy.u_algebra(_swapped_kaehler(3)), 4),
            (lambda: holonomy.u_algebra(rotated_kaehler(3)), 1),
            (lambda: misplaced_unitary(3), 1),
            (lambda: holonomy.sp_sp1_algebra(quaternion_kaehler(3)), 4),
        ],
        ids=["so6", "u3", "u3_swapped", "u3_rotated", "u3_misplaced", "qk3"],
    )
    def test_block_spectra_are_the_unblocked_spectrum(self, builder, blocks):
        alg = builder()
        found, free = decomp._bianchi_blocks(alg)
        assert sum(grams.shape[0] for _, grams in found) == blocks
        spectra = [np.linalg.eigvalsh(grams).ravel() for _, grams in found]
        blocked = np.sort(np.concatenate(spectra + [np.zeros(free.size)]))
        # the oracle's cyclic average is a third of the library's constraint
        oracle = 9.0 * np.linalg.eigvalsh(_oracle_constraints(alg).T @ _oracle_constraints(alg))
        assert blocked.shape == oracle.shape
        assert np.abs(blocked - oracle).max() < 1e-12 * oracle[-1]

    def test_misplaced_algebra_is_one_block(self):
        alg = misplaced_unitary(3)
        chars = holonomy._pair_characters(alg.space)
        support = alg.coeff_matrix != 0
        assert any(len(set(chars[row])) > 1 for row in support)
        found, free = decomp._bianchi_blocks(alg)
        assert [grams.shape for _, grams in found] == [(1, 45, 45)]
        assert free.size == 0

    @staticmethod
    def _gram(eigenvalues, seed=0):
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))[0]
        return (q * eigenvalues) @ q.T

    def test_rank_rule_reads_the_largest_eigenvalue_of_all_blocks(self):
        # a block at rounding level against the other block's scale is null
        loud = self._gram([1.0, 0.5, 0.0])
        quiet = self._gram([1e-20, 4e-21, 1e-21], seed=1)
        [runs] = decomp._null_spaces([np.stack([loud, quiet])])
        assert [(blocks.tolist(), rows.shape) for blocks, rows in runs] == [([0], (1, 1, 3)), ([1], (1, 3, 3))]
        for (_, rows), gram in zip(runs, (loud, quiet)):
            null = rows[0]
            assert np.abs(null @ null.T - np.eye(len(null))).max() < 1e-12
            assert np.abs(null @ gram).max() < 1e-12

    def test_gap_guard_reads_the_largest_eigenvalue_of_all_blocks(self):
        # 1e-8 of the largest eigenvalue overall, though the largest of its block
        loud = self._gram([1.0, 0.5])[None]
        faint = self._gram([1e-8, 1e-8, 0.0], seed=1)[None]
        with pytest.raises(GeometryError, match="no clear gap"):
            decomp._null_spaces([loud, faint])


# ---------------------------------------------------------------------------
# constants built once per dimension, structure or algebra


_CACHE_SPACES = {
    "kaehler2": lambda: kaehler(2),
    "kaehler3": lambda: kaehler(3),
    "kaehler4": lambda: kaehler(4),
    "kaehler3_swapped": lambda: _swapped_kaehler(3),
    "kaehler3_rotated": lambda: rotated_kaehler(3),
    "qk2": lambda: quaternion_kaehler(2),
    "qk3": lambda: quaternion_kaehler(3),
}
_KAEHLER_SPACES = [k for k in _CACHE_SPACES if k.startswith("kaehler")]
_CACHE_ALGEBRAS = {
    "so5": lambda: holonomy.by_name(generic(5), "so"),
    "u3": lambda: holonomy.by_name(kaehler(3), "u"),
    "u3_swapped": lambda: holonomy.by_name(_swapped_kaehler(3), "u"),
    "u3_rotated": lambda: holonomy.by_name(rotated_kaehler(3), "u"),
    "u3_misplaced": lambda: misplaced_unitary(3),
    "qk2": lambda: holonomy.by_name(quaternion_kaehler(2), "sp"),
}


def _kaehler_unit(space):
    """0.5 g(*)g + 0.5 w(*)w + 2 w(x)w, built afresh."""
    g, omega = np.eye(space.n), space.J.T
    return (
        0.5 * tensor._kn_matrix(g, g)
        + 0.5 * tensor._kn_matrix(omega, omega)
        + 2.0 * tensor._pair_outer(omega, omega)
    )


def _project_2d(mat):
    """Bianchi projection of a symmetric operator by 2-D fancy indexing, the
    reference for the flat indices of tensor._bianchi_project_matrix."""
    ij, kl, jk, il, ik, jl = tensor._quad_pairs(tensor._dim_of_pairs(mat.shape[0]))
    a, b, c = mat[ij, kl], mat[jk, il], mat[ik, jl]
    out = mat.copy()
    for p, q, cyc in ((ij, kl, a - c + b), (ik, jl, c - a - b), (il, jk, b + a - c)):
        out[p, q] -= cyc / 3.0
        out[q, p] = out[p, q]
    return out


class TestStructureCaches:
    """Each cached constant is its uncached formula to the bit, read-only,
    and keyed on what it depends on."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_metric_product(self, n, rng):
        g = np.eye(n)
        cached = tensor._kn_metric(n)
        assert np.array_equal(cached, tensor._kn_matrix(g, g))
        assert cached is tensor._kn_metric(n) and not cached.flags.writeable
        rm = tensor.random_curvature(generic(n), rng=rng)
        sc = scalar(rm)
        part = weyl_decompose(rm).parts["scalar_part"].matrix
        assert np.array_equal(part, (sc / (2.0 * n * (n - 1))) * tensor._kn_matrix(g, g))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_flat_projection(self, n, rng):
        for arr in tensor._project_flat(n):
            assert not arr.flags.writeable
        s = rng.standard_normal((n * (n - 1) // 2,) * 2)
        for sym in (s + s.T, np.asfortranarray(s + s.T)):
            assert np.array_equal(tensor._bianchi_project_matrix(sym), _project_2d(sym))

    @pytest.mark.parametrize("name", _KAEHLER_SPACES)
    def test_kaehler_unit(self, name):
        space = _CACHE_SPACES[name]()
        unit = decomp.structure_model(space).matrix
        assert np.array_equal(unit, _kaehler_unit(space))
        assert not unit.flags.writeable
        alg = holonomy.by_name(space, "u")
        rm = random_algebra_curvature(alg, np.random.default_rng(5))
        c1 = scalar(rm) / (4.0 * space.m * (space.m + 1))
        part = bochner_decompose(rm).parts["scalar_part"].matrix
        assert np.array_equal(part, c1 * _kaehler_unit(space))

    @pytest.mark.parametrize("name", _KAEHLER_SPACES)
    def test_kaehler_conjugation(self, name):
        space = _CACHE_SPACES[name]()
        conj = decomp._kaehler_conjugation(space)
        assert np.array_equal(conj, tensor._conjugation_on_bivectors(space, space.J.T))
        assert conj is decomp._kaehler_conjugation(space) and not conj.flags.writeable

    @pytest.mark.parametrize("name", list(_CACHE_SPACES))
    def test_form_rows(self, name):
        space = _CACHE_SPACES[name]()
        rows, cols = space.pair_rows, space.pair_cols
        structs = [space.J] if space.kind == "kaehler" else [space.I, space.J, space.K]
        forms = tensor._form_rows(space)
        assert len(forms) == len(structs)
        for form, s in zip(forms, structs):
            assert np.array_equal(form, s[rows, cols] - s[cols, rows])
            assert not form.flags.writeable
        assert tensor._form_rows(generic(5)) == ()

    @pytest.mark.parametrize("name", list(_CACHE_ALGEBRAS))
    def test_projector(self, name, rng):
        # complement_mass projects through the d x d restriction c M c^T,
        # with no D x D projector; p M p with p = c^T c is the same to rounding
        alg = _CACHE_ALGEBRAS[name]()
        c = alg.coeff_matrix
        p = c.T @ c
        assert not hasattr(alg, "projector")
        m = rng.standard_normal((c.shape[1],) * 2)
        supported = c.T @ (c @ (m + m.T) @ c.T) @ c
        for mat in (m + m.T, supported):
            op = tensor.CurvatureOperator._wrap(alg.space, mat, None)
            mass = holonomy.complement_mass(op, alg)
            assert mass == float(np.linalg.norm(op.matrix - c.T @ (c @ op.matrix @ c.T) @ c))
            by_p = float(np.linalg.norm(op.matrix - p @ op.matrix @ p))
            assert abs(mass - by_p) <= 1e-13 * float(np.linalg.norm(op.matrix))
        assert mass <= 1e-13 * float(np.linalg.norm(supported))

    def test_kaehler_structures_of_one_size_key_apart(self):
        caches = [decomp._kaehler_conjugation, decomp.structure_model, tensor._form_rows]
        for fn in caches:
            fn.cache_clear()
        spaces = [kaehler(3), _swapped_kaehler(3), rotated_kaehler(3)]
        got = [
            (decomp._kaehler_conjugation(s), decomp.structure_model(s).matrix, tensor._form_rows(s)[0])
            for s in spaces
        ]
        for fn in caches:
            assert fn.cache_info().currsize == len(spaces)
        for a, b in itertools.combinations(got, 2):
            assert not any(np.array_equal(x, y) for x, y in zip(a, b))

    def test_caller_arrays_are_copied(self):
        j = np.array(_swapped_kaehler(3).J)
        space = euclid.EuclideanSpace(6, "kaehler", J=j)
        rows = np.array(holonomy.by_name(space, "u").coeff_matrix)
        alg = holonomy.HolonomyAlgebra(space, "u(3)", rows)
        keys = (space.structure_key, alg.key)
        op = tensor.to_operator(decomp.structure_model(generic(6)))
        mass = holonomy.complement_mass(op, alg)

        def built():
            return (
                decomp._kaehler_conjugation(space),
                decomp.structure_model(space).matrix,
                tensor._form_rows(space)[0],
                decomp._bianchi_kernel_basis(alg)[0][1],
            )

        before = built()
        saved = [np.array(arr) for arr in before]
        j_saved, rows_saved = j.copy(), rows.copy()
        j[:] = kaehler(3).J  # another valid complex structure
        rows[[0, 1]] = rows[[1, 0]]
        assert np.array_equal(space.J, j_saved) and np.array_equal(alg.coeff_matrix, rows_saved)
        assert keys == (space.structure_key, alg.key) == (euclid._structure_key(space), holonomy._algebra_key(alg))
        for old, new, arr in zip(before, built(), saved):
            assert new is old and np.array_equal(new, arr)
        # the c-route reads the algebra's own read-only rows
        assert holonomy.complement_mass(op, alg) == mass
        for arr in (space.J, alg.coeff_matrix, kaehler(3).J, quaternion_kaehler(2).K):
            with pytest.raises(ValueError):
                arr[0, 1] = 1.0

    def test_keys_are_built_once_per_object(self, monkeypatch):
        builds = []
        for module, name in ((holonomy, "_algebra_key"), (euclid, "_structure_key")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda obj, original=original: builds.append(obj) or original(obj))
        space = kaehler(3)
        alg = holonomy.u_algebra(space)
        for seed in range(100):
            rm = random_algebra_curvature(alg, np.random.default_rng(seed))
            bochner_decompose(rm)
            total_traces(rm)
            criteria.two_nonnegative_shift(rm, alg)
        assert builds == [alg, space] or builds == [space, alg]
