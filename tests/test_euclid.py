import ast
import pathlib

import numpy as np
import pytest
from conftest import rotated_kaehler
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import euclid
from curvlab.euclid import (
    Bivector,
    GeometryError,
    bivector_apply,
    bracket,
    from_matrix,
    generic,
    inner,
    kaehler,
    pair_count,
    pair_index,
    quaternion_kaehler,
    symmetric_eigen,
    symmetric_eigenvalues,
    wedge,
)


def _vec(rng, n):
    return rng.standard_normal(n)


class TestPairs:
    def test_count(self):
        assert pair_count(5) == 10
        assert pair_count(2) == 1

    def test_lex_order_round_trip(self):
        n = 6
        seen = set()
        for i in range(n):
            for j in range(i + 1, n):
                seen.add(pair_index(n, i, j))
        assert seen == set(range(pair_count(n)))

    def test_decreasing_pair_rejected(self):
        with pytest.raises(GeometryError):
            pair_index(5, 3, 1)

    def test_shared_tables_are_read_only(self):
        # every space of one dimension reads the same two arrays
        space = generic(5)
        assert generic(5).pair_rows is space.pair_rows
        for arr in (space.pair_rows, space.pair_cols):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_diagonal_rejected(self):
        with pytest.raises(GeometryError):
            pair_index(5, 2, 2)


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


class TestBivectors:
    def test_wedge_matrix_action(self, so5_space, rng):
        x, y, z = (_vec(rng, 5) for _ in range(3))
        b = wedge(so5_space, x, y)
        expected = x.dot(z) * y - y.dot(z) * x
        assert np.allclose(b.matrix() @ z, expected)
        assert np.allclose(bivector_apply(b, z), expected)

    def test_wedge_antisymmetry(self, so5_space, rng):
        x, y = _vec(rng, 5), _vec(rng, 5)
        assert np.allclose(
            wedge(so5_space, x, y).coeffs, -wedge(so5_space, y, x).coeffs
        )

    def test_matrix_round_trip(self, so5_space, rng):
        b = Bivector(so5_space, rng.standard_normal(10))
        back = from_matrix(so5_space, b.matrix())
        assert np.allclose(back.coeffs, b.coeffs)

    def test_from_matrix_takes_skew_part(self, so5_space, rng):
        m = rng.standard_normal((5, 5))
        skew = 0.5 * (m - m.T)
        assert np.allclose(
            from_matrix(so5_space, m).coeffs, from_matrix(so5_space, skew).coeffs
        )

    def test_inner_matches_matrix_trace(self, so5_space, rng):
        a = Bivector(so5_space, rng.standard_normal(10))
        b = Bivector(so5_space, rng.standard_normal(10))
        assert inner(a, b) == pytest.approx(0.5 * np.trace(a.matrix().T @ b.matrix()))

    def test_norm(self, so5_space):
        coeffs = np.zeros(10)
        coeffs[3] = 2.0
        assert Bivector(so5_space, coeffs).norm() == pytest.approx(2.0)

    def test_arithmetic(self, so5_space, rng):
        a = Bivector(so5_space, rng.standard_normal(10))
        b = Bivector(so5_space, rng.standard_normal(10))
        c = 2.0 * a - b / 2.0
        assert np.allclose(c.coeffs, 2.0 * a.coeffs - 0.5 * b.coeffs)

    def test_space_mismatch(self, so5_space, rng):
        a = Bivector(so5_space, rng.standard_normal(10))
        b = Bivector(generic(4), rng.standard_normal(6))
        with pytest.raises(GeometryError):
            _ = a + b

    def test_basis_bracket(self, so5_space):
        e = np.eye(5)
        b12 = wedge(so5_space, e[0], e[1])
        b23 = wedge(so5_space, e[1], e[2])
        b13 = wedge(so5_space, e[0], e[2])
        got = bracket(b12, b23)
        assert np.allclose(got.coeffs, -b13.coeffs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bracket_is_commutator(seed):
    sp = generic(5)
    rng = np.random.default_rng(seed)
    a = Bivector(sp, rng.standard_normal(10))
    b = Bivector(sp, rng.standard_normal(10))
    lhs = bracket(a, b).matrix()
    rhs = a.matrix() @ b.matrix() - b.matrix() @ a.matrix()
    assert np.allclose(lhs, rhs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_jacobi_identity(seed):
    sp = generic(4)
    rng = np.random.default_rng(seed)
    a, b, c = (Bivector(sp, rng.standard_normal(6)) for _ in range(3))
    total = (
        bracket(a, bracket(b, c)).coeffs
        + bracket(b, bracket(c, a)).coeffs
        + bracket(c, bracket(a, b)).coeffs
    )
    assert np.abs(total).max() < 1e-10 * (1 + np.abs(total).max(initial=0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_inner_is_ad_invariant(seed):
    # <[c,a],b> + <a,[c,b]> = 0 for the coefficient inner product
    sp = generic(5)
    rng = np.random.default_rng(seed)
    a, b, c = (Bivector(sp, rng.standard_normal(10)) for _ in range(3))
    val = inner(bracket(c, a), b) + inner(a, bracket(c, b))
    assert abs(val) < 1e-9 * (1 + a.norm() * b.norm() * c.norm())


class TestEigen:
    def test_values_and_reconstruct(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = np.array([-2.0, -2.0, 0.5, 0.5, 0.5, 3.0])
        m = q @ np.diag(lam) @ q.T
        spec = symmetric_eigen(m)
        assert np.allclose(spec.values, lam)
        assert np.allclose(spec.reconstruct(), m)

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
