import ast
import itertools
import pathlib
import sys
import threading
import time

import numpy as np
import pytest
from conftest import rotated_kaehler, rotated_quaternionic, wedge_coeffs
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import euclid, tensor
from curvlab.euclid import (
    GeometryError,
    generic,
    kaehler,
    pair_count,
    quaternion_kaehler,
    standard_space,
    symmetric_eigen,
    symmetric_eigenvalues,
)
from curvlab.holonomy import HolonomyAlgebra, so_algebra


def _vec(rng, n):
    return rng.standard_normal(n)


def _bracket_coeffs(alg, a, b):
    """Coefficients of [a, b] from the structure constants."""
    return np.einsum("a,b,abg->g", a, b, alg.structure_constants)


class TestPairs:
    def test_count(self):
        assert pair_count(5) == 10
        assert pair_count(2) == 1

    def test_lex_order_round_trip(self):
        n = 6
        space = generic(n)
        pairs = list(itertools.combinations(range(n), 2))
        assert list(zip(space.pair_rows.tolist(), space.pair_cols.tolist())) == pairs
        lookup = tensor._pair_lookup(n)
        assert [lookup[i, j] for i, j in pairs] == list(range(pair_count(n)))
        assert [lookup[j, i] for i, j in pairs] == list(range(pair_count(n)))

    def test_shared_tables_are_read_only(self):
        # every space of one dimension reads the same two arrays
        space = generic(5)
        assert generic(5).pair_rows is space.pair_rows
        for arr in (space.pair_rows, space.pair_cols):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestSpaces:
    def test_generic(self):
        sp = generic(4)
        assert sp.n == 4 and sp.kind == "generic"
        assert sp.bivector_dim == 6

    def test_kaehler_structure(self):
        sp = kaehler(3)
        assert sp.n == 6
        j = sp.J
        assert np.allclose(j @ j, -np.eye(6))

    def test_quaternion_relations(self):
        sp = quaternion_kaehler(2)
        i, j, k = sp.I, sp.J, sp.K
        assert np.allclose(i @ i, -np.eye(8))
        assert np.allclose(i @ j, k)
        assert np.allclose(j @ i, -k)
        assert np.allclose(j @ k, i)

    def test_spaces_compare_by_structure(self, u3_swapped_space):
        assert kaehler(3) == kaehler(3) and hash(kaehler(3)) == hash(kaehler(3))
        assert generic(6) == generic(6) and quaternion_kaehler(2) == quaternion_kaehler(2)
        assert len({kaehler(3), kaehler(3), generic(6)}) == 2
        for other in (u3_swapped_space, rotated_kaehler(3), generic(6), kaehler(2)):
            assert other != kaehler(3)

    def test_dimension_guards(self):
        with pytest.raises(GeometryError):
            generic(1)
        with pytest.raises(GeometryError):
            quaternion_kaehler(0)

    @pytest.mark.parametrize("kind, matrices, message", [
        ("kaehler", {"J": kaehler(2).J}, r"structure J has shape \(4, 4\), not \(6, 6\)"),
        ("generic", {"J": kaehler(3).J}, "a generic space holds no structure J"),
        ("kaehler", {"I": kaehler(3).J, "J": kaehler(3).J}, "a kaehler space holds no structure I"),
        ("kaehler", {}, "a kaehler space needs structure J"),
        ("qk", {"I": quaternion_kaehler(2).I, "J": quaternion_kaehler(2).J}, "a qk space needs structure K"),
        ("symplectic", {}, "unknown holonomy kind 'symplectic'"),
    ], ids=["j-size", "generic-j", "kaehler-i", "kaehler-no-j", "qk-no-k", "unknown-kind"])
    def test_a_space_holds_exactly_its_kinds_n_by_n_matrices(self, kind, matrices, message):
        # a mis-sized J once reached by_name and failed there with an
        # IndexError; a stray J on a generic space entered its key
        n = 8 if kind == "qk" else 6
        with pytest.raises(GeometryError, match=message):
            euclid.EuclideanSpace(n, kind, **matrices)

    @pytest.mark.parametrize("case, message", [
        ("j-scaled", "structure J does not square to -identity"),
        ("k-entry", "structure K does not square to -identity"),
        ("k-turned", "quaternion relations fail: IJ != K"),
    ], ids=["j-scaled", "k-entry", "k-turned"])
    def test_structure_checks_hold_their_absolute_tolerance(self, case, message):
        # np.allclose's default rtol = 1e-5 once let an error of 7e-8 to 8e-6
        # through checks stated at atol = 1e-12
        if case == "j-scaled":  # |J^2 + I| = 8e-6
            n, kind, matrices = 4, "kaehler", {"J": kaehler(2).J * (1 + 4e-6)}
        elif case == "k-entry":  # one entry of K off IJ by 4e-6, so K^2 + I is off by as much
            base = quaternion_kaehler(2)
            k = base.K.copy()
            k[0, 3] *= 1 + 4e-6
            n, kind, matrices = 8, "qk", {"I": base.I, "J": base.J, "K": k}
        else:  # K of a rotated frame turned by 1e-7 in one coordinate plane:
            # still a skew square root of -identity, but off IJ by 7e-8
            i, j, k = rotated_quaternionic(2).structures
            c, s = np.cos(1e-7), np.sin(1e-7)
            r = np.eye(8)
            r[:2, :2] = [[c, -s], [s, c]]
            n, kind, matrices = 8, "qk", {"I": i, "J": j, "K": r @ k @ r.T}
        with pytest.raises(GeometryError, match=f"^{message}$"):
            euclid.EuclideanSpace(n, kind, **matrices)

    @pytest.mark.parametrize("build, size, message", [
        (lambda n: euclid.EuclideanSpace(n, "generic"), 4.5, "dimension must be an integer, got 4.5"),
        (generic, 4.0, "dimension must be an integer, got 4.0"),
        (kaehler, 2.0, "block count must be an integer, got 2.0"),
        (quaternion_kaehler, 2.0, "block count must be an integer, got 2.0"),
    ], ids=["space", "generic", "kaehler", "qk"])
    def test_a_non_integer_size_is_rejected(self, build, size, message):
        # a float size once built a space whose bivector_dim was a float,
        # and failed later in by_name or _block_diag with a TypeError
        with pytest.raises(GeometryError, match=message):
            build(size)

    def test_a_numpy_integer_size_is_an_int(self):
        for space in (generic(np.int64(5)), kaehler(np.int32(2)), quaternion_kaehler(np.int64(2))):
            assert type(space.n) is int and type(space.bivector_dim) is int

    def test_generic_holds_no_matrices(self):
        space = generic(4)
        assert (space.kind, space.I, space.J, space.K) == ("generic", None, None, None)
        assert kaehler(2).I is None and kaehler(2).K is None


class TestKinds:
    """The kind table behind EuclideanSpace: structures and standard_space."""

    def test_structures_are_the_held_matrices_in_ijk_order(self, u3_swapped_space):
        assert generic(5).structures == ()
        for space in (kaehler(3), u3_swapped_space, rotated_kaehler(3)):
            assert len(space.structures) == 1 and space.structures[0] is space.J
        for space in (quaternion_kaehler(2), rotated_quaternionic(2)):
            assert len(space.structures) == 3
            assert all(a is b for a, b in zip(space.structures, (space.I, space.J, space.K)))

    @pytest.mark.parametrize("kind, block, build, sizes", [
        ("generic", 1, generic, range(2, 25)),
        ("kaehler", 2, kaehler, range(1, 13)),
        ("qk", 4, quaternion_kaehler, range(2, 7)),
    ], ids=["generic", "kaehler", "qk"])
    def test_standard_space_is_the_kinds_constructor(self, kind, block, build, sizes):
        for size in sizes:
            space = standard_space(kind, block * size)
            assert space == build(size) and (space.kind, space.n) == (kind, block * size)

    @pytest.mark.parametrize("kind, n, message", [
        ("symplectic", 8, "unknown holonomy kind 'symplectic'"),
        ("kaehler", 5, "kaehler structure needs dimension 2m, got 5"),
        ("qk", 6, "qk structure needs dimension 4m, got 6"),
    ], ids=["unknown", "kaehler5", "qk6"])
    def test_standard_space_rejects(self, kind, n, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            standard_space(kind, n)


def test_overlapping_blas_holds_keep_one_thread():
    # builds on several threads hold the pool at once: none may see it
    # restored while its own hold is open, and the last one out restores it
    lib = euclid._openblas()
    assert lib is not None, "numpy bundles no scipy-openblas here"
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    seen, interval, before = [], sys.getswitchinterval(), get()
    start = threading.Barrier(4)

    def hold():
        start.wait(timeout=60)
        for _ in range(1000):
            with euclid._one_blas_thread():
                with euclid._one_blas_thread():
                    time.sleep(0)  # let another thread enter or leave its hold
                    seen.append(get())
                time.sleep(0)
                seen.append(get())

    put(2)
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert (len(seen), set(seen), get()) == (4 * 2000, {1}, 2)
    finally:
        sys.setswitchinterval(interval)
        put(before)


class TestBivectors:
    """The skew-matrix convention of HolonomyAlgebra.matrices, on so(n),
    where the coefficient rows are the lexicographic pair basis."""

    def test_wedge_matrix_action(self, so5, rng):
        x, y, z = (_vec(rng, 5) for _ in range(3))
        mat = np.einsum("a,aij->ij", wedge_coeffs(so5.space, x, y), so5.matrices)
        assert np.allclose(mat @ z, x.dot(z) * y - y.dot(z) * x)
        assert np.allclose(mat, np.outer(y, x) - np.outer(x, y))

    def test_wedge_antisymmetry(self, so5):
        mats = so5.matrices
        assert np.array_equal(mats, -mats.transpose(0, 2, 1))

    def test_matrix_round_trip(self, so5, u3, qk2):
        for alg in (so5, u3, qk2):
            ii, jj = alg.space.pair_rows, alg.space.pair_cols
            assert np.array_equal(alg.matrices[:, jj, ii], alg.coeff_matrix)
            assert np.array_equal(alg.matrices[:, ii, jj], -alg.coeff_matrix)

    def test_inner_matches_matrix_trace(self, so5, u3, rng):
        # half the Frobenius pairing of the matrices is the dot product of
        # the coefficient rows
        for alg in (so5, u3):
            half_frobenius = 0.5 * np.einsum("aij,bij->ab", alg.matrices, alg.matrices)
            assert np.allclose(half_frobenius, alg.coeff_matrix @ alg.coeff_matrix.T)
            assert np.allclose(half_frobenius, np.eye(alg.dim))

    def test_space_mismatch(self, so5_space):
        # coefficient rows must have one entry per pair of the space
        with pytest.raises(GeometryError, match="bivector space"):
            HolonomyAlgebra(so5_space, "bad", np.eye(6))

    def test_basis_bracket(self, so5):
        pair = tensor._pair_lookup(5)
        mats = so5.matrices
        b12, b23, b13 = mats[pair[0, 1]], mats[pair[1, 2]], mats[pair[0, 2]]
        assert np.array_equal(b12 @ b23 - b23 @ b12, -b13)
        assert so5.structure_constants[pair[0, 1], pair[1, 2], pair[0, 2]] == -1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bracket_is_commutator(seed):
    alg = so_algebra(generic(5))
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    am, bm = (np.einsum("a,aij->ij", v, alg.matrices) for v in (a, b))
    lhs = np.einsum("g,gij->ij", _bracket_coeffs(alg, a, b), alg.matrices)
    assert np.allclose(lhs, am @ bm - bm @ am)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_jacobi_identity(seed):
    alg = so_algebra(generic(4))
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(6) for _ in range(3))
    total = (
        _bracket_coeffs(alg, a, _bracket_coeffs(alg, b, c))
        + _bracket_coeffs(alg, b, _bracket_coeffs(alg, c, a))
        + _bracket_coeffs(alg, c, _bracket_coeffs(alg, a, b))
    )
    assert np.abs(total).max() < 1e-10 * (1 + np.abs(total).max(initial=0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_inner_is_ad_invariant(seed):
    # <[c,a],b> + <a,[c,b]> = 0 for the coefficient inner product
    alg = so_algebra(generic(5))
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(10) for _ in range(3))
    val = _bracket_coeffs(alg, c, a) @ b + a @ _bracket_coeffs(alg, c, b)
    norms = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
    assert abs(val) < 1e-9 * (1 + norms)


class TestEigen:
    def test_values_and_reconstruct(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = np.array([-2.0, -2.0, 0.5, 0.5, 0.5, 3.0])
        m = q @ np.diag(lam) @ q.T
        spec = symmetric_eigen(m)
        assert np.allclose(spec.values, lam)
        assert np.allclose((spec.vectors * spec.values) @ spec.vectors.T, m)

    def test_multiplicities(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        m = q @ np.diag([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 4.0, 4.0]) @ q.T
        mults = symmetric_eigen(m).multiplicities(gap=1e-6)
        assert [c for _, c in mults] == [3, 2]

    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(GeometryError):
            symmetric_eigen(rng.standard_normal((4, 4)))

    def test_rejects_nonsquare(self, rng):
        with pytest.raises(GeometryError):
            symmetric_eigen(rng.standard_normal((3, 4)))

    @pytest.mark.parametrize("solver", [symmetric_eigen, symmetric_eigenvalues])
    def test_both_solvers_validate_alike(self, solver, rng):
        name = solver.__name__
        with pytest.raises(GeometryError, match=f"^{name} expects a square matrix$"):
            solver(rng.standard_normal((3, 4)))
        with pytest.raises(GeometryError, match=f"^{name} expects a square matrix$"):
            solver(rng.standard_normal(4))
        with pytest.raises(GeometryError, match="^matrix is not symmetric$"):
            solver(rng.standard_normal((4, 4)))
        m = rng.standard_normal((5, 5))
        m = 100.0 * (m + m.T)
        # asymmetry below rtol * (1 + max|entry|) is accepted, and the
        # symmetric part is what is solved
        skew = np.triu(np.full((5, 5), 1e-9), 1)
        values = solver(m + skew - skew.T)
        values = getattr(values, "values", values)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-10)
        with pytest.raises(GeometryError, match="^matrix is not symmetric$"):
            solver(m + 1e3 * (skew - skew.T))

    @pytest.mark.parametrize("solver", [symmetric_eigen, symmetric_eigenvalues])
    def test_both_solvers_reject_non_finite_input(self, solver):
        # an inf - inf or NaN residual compares false against the tolerance,
        # so these would pass the symmetry test and yield NaN eigenvalues;
        # a RuntimeWarning on the way fails the test (pyproject filterwarnings)
        stack = np.stack([np.eye(3)] * 3)
        stack[1, 0, 2] = np.nan
        for matrix in ([[1.0, np.inf], [np.inf, 1.0]], [[1.0, np.nan], [0.0, 1.0]], stack):
            with pytest.raises(GeometryError, match="^matrix has a non-finite entry$"):
                solver(matrix)

    def test_deterministic_sign(self, rng):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        v1 = symmetric_eigen(m).vectors
        v2 = symmetric_eigen(m.copy()).vectors
        assert np.array_equal(v1, v2)

    def test_sign_convention(self, rng):
        m = rng.standard_normal((7, 7))
        vectors = symmetric_eigen(m + m.T).vectors
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(7)] > 0)

    def test_sign_fix_breaks_ties_at_first_index(self):
        rows = np.array([[-1.0, 1.0, 0.5], [0.5, 1.0, -1.0], [0.0, -2.0, 0.0]])
        fixed = euclid._sign_fix(rows)
        assert np.array_equal(fixed, [[1.0, -1.0, -0.5], [0.5, 1.0, -1.0], [0.0, 2.0, 0.0]])


def test_first_over_is_the_rule():
    # three 2 x 2 trials of max|entry| 1, so each bound is exactly 2 * rtol
    stack = np.stack([np.eye(2)] * 3)
    bound = 2.0 * euclid._SYMMETRY_RTOL
    seen = []

    def planted(residual):
        def residuals(b):
            seen.append(len(b))
            return (np.zeros(len(b)), np.asarray(residual)[: len(b)])
        return residuals

    assert euclid._first_over(stack, planted([0.0, bound, bound])) is None
    assert euclid._first_over(stack, planted([0.0, np.nextafter(bound, 1.0), np.inf])) == (
        1, 1, np.nextafter(bound, 1.0))
    trial, k, value = euclid._first_over(stack, planted([0.0, 0.0, np.nan]))  # a NaN residual is over
    assert (trial, k) == (2, 1) and np.isnan(value)
    # no residual is formed from a non-finite trial or any after it
    stack[1, 0, 1] = np.nan
    seen.clear()
    trial, k, value = euclid._first_over(stack, planted([np.inf, np.inf, np.inf]))
    assert (trial, k, seen) == (0, 1, [1])
    trial, k, value = euclid._first_over(stack, planted([0.0, 0.0, 0.0]))
    assert (trial, k, seen) == (1, None, [1, 1]) and np.isnan(value)
    stack[0, 1, 1] = np.inf
    seen.clear()
    assert euclid._first_over(stack, planted([0.0] * 3))[:2] == (0, None) and seen == []
    # the trial is a matrix over the last two axes, counted in C order; a
    # rank-four array is one trial as its (n^2, n^2) reshape
    assert euclid._first_over(np.zeros((2, 3, 2, 2)), lambda b: (np.arange(6.0).reshape(2, 3),))[:2] == (1, 0)
    assert euclid._first_over(np.zeros((2,) * 4).reshape(4, 4), lambda t: (np.float64(1.0),))[:2] == (0, 0)


def test_shared_builds_once_per_key_across_threads():
    import sys
    import threading

    builds = []

    @euclid._shared
    def build(key):
        builds.append(key)
        return [key]

    workers = 8
    start = threading.Barrier(workers)
    got = [None] * workers

    def call(i):
        start.wait(timeout=10)
        got[i] = build(kaehler(3))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1 and all(g is got[0] for g in got)
    assert build.cache_info().currsize == 1 and build.__wrapped__(1) == [1]
    build.cache_clear()
    assert build.cache_info().currsize == 0


def test_only_euclid_holds_a_cache_lock():
    # build-once constants go through euclid._shared; no other library
    # module keeps a module-level threading lock or a _*_CACHE dict
    src = pathlib.Path(euclid.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "euclid.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                lock = isinstance(node.value, ast.Call) and "Lock" in ast.unparse(node.value.func)
                cache = any(n.startswith("_") and n.endswith("_CACHE") for n in names)
                if lock or cache:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found
