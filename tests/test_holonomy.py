import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import closure_defect, lie_action, misplaced_unitary, pin_note, rotated_kaehler, scattered_action, wedge_coeffs

from curvlab import decomp, holonomy, tensor
from curvlab.euclid import (
    EuclideanSpace,
    GeometryError,
    generic,
    kaehler,
    quaternion_kaehler,
)
from curvlab.holonomy import (
    HOLONOMY_TAGS,
    HolonomyAlgebra,
    _commutant_rows,
    by_name,
    complement_mass,
    project,
    so_algebra,
    sp_sp1_algebra,
    u_algebra,
)


# sha256 of each algebra's structure_constants: dtype, shape and bytes,
# taken when construction built them.  They are built on first read now, by
# a second bracket pass over the same products, so the bytes must not move
STRUCTURE_SHA256 = {
    "so8": ("67ec76c6e05da579f9fd090bae9479f340843e8115ab63c37c1dc15cdbde635e", lambda: so_algebra(generic(8))),
    "u5": ("b7ce9fa5a0a5577b2a12e35ec15ab8777db78a0920c2ad06949241c214496042", lambda: u_algebra(kaehler(5))),
    "qk3": ("20a79b54505d42f25e4e08780b094678900550dfe6145518951826fc23fa7b58",
            lambda: sp_sp1_algebra(quaternion_kaehler(3))),
    "qk5": ("5be950163949df32ebc482d7e7a101f358d7862c9708148bdc50fb7e18d0f865",
            lambda: sp_sp1_algebra(quaternion_kaehler(5))),
}


class TestAlgebras:
    def test_so_dim(self, so5):
        assert so5.dim == 10
        assert so5.name == "so(5)"

    def test_u_dim(self, u3):
        assert u3.dim == 9

    def test_sp_sp1_dim(self, qk2):
        assert qk2.dim == 2 * 5 + 3

    def test_orthonormal_basis(self, u3):
        gram = u3.coeff_matrix @ u3.coeff_matrix.T
        assert np.allclose(gram, np.eye(u3.dim))

    def test_closure(self, qk2):
        assert closure_defect(qk2) < 1e-12

    def test_u_elements_commute_with_J(self, u3):
        j = u3.space.J
        for a in u3.matrices:
            assert np.abs(a @ j - j @ a).max() < 1e-12

    def test_span_closed_under_structure_conjugation(self, qk2):
        # the sp(1) omegas act as the structures themselves; commutation
        # with all three only holds for the sp(m) block, so test closure
        # of the span under conjugation instead
        ii, jj = qk2.space.pair_rows, qk2.space.pair_cols
        c = qk2.coeff_matrix
        for s in (qk2.space.I, qk2.space.J, qk2.space.K):
            for a in qk2.matrices:
                conj = (s @ a @ s.T)[jj, ii]
                back = (conj @ c.T) @ c
                assert np.abs(conj - back).max() < 1e-10

    def test_structure_constants_antisymmetric(self, qk2):
        c = qk2.structure_constants
        assert np.abs(c + c.transpose(1, 0, 2)).max() < 1e-12

    def test_structure_constants_match_brackets(self, u3):
        c = u3.structure_constants
        mats = u3.matrices
        for a in range(0, u3.dim, 4):
            for b in range(0, u3.dim, 3):
                comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                back = np.einsum("g,gij->ij", c[a, b], mats)
                assert np.abs(comm - back).max() < 1e-10

    @pytest.mark.parametrize("chunk_bytes", [None, 1], ids=["one_chunk", "one_generator_per_chunk"])
    def test_structure_constants_match_the_einsum_reference(self, qk2, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:  # the bracket pass runs over 13 chunks
            monkeypatch.setattr(holonomy, "_CHUNK_BYTES", chunk_bytes)
            qk2 = sp_sp1_algebra(qk2.space)
            assert qk2.chunk_size == 1
        # every bracket, from the pairwise products of the basis matrices
        mats, ii, jj = qk2.matrices, qk2.space.pair_rows, qk2.space.pair_cols
        prod = np.einsum("aij,bjk->abik", mats, mats)
        brackets = (prod - prod.transpose(1, 0, 2, 3))[:, :, jj, ii]
        reference = np.einsum("abp,gp->abg", brackets, qk2.coeff_matrix)
        assert np.abs(qk2.structure_constants - reference).max() < 1e-14

    @pytest.mark.parametrize("name", list(STRUCTURE_SHA256))
    def test_structure_bytes_are_pinned(self, name):
        expected, builder = STRUCTURE_SHA256[name]
        c = builder().structure_constants
        digest = hashlib.sha256(f"{c.dtype.str} {c.shape}".encode())
        digest.update(c.tobytes())
        assert digest.hexdigest() == expected, pin_note()

    @pytest.mark.parametrize("space", [generic(6), kaehler(3), quaternion_kaehler(2)], ids=["so6", "u3", "qk2"])
    def test_structure_constants_are_built_on_first_read(self, space):
        # building the algebra and its Bianchi kernel checks closure but
        # keeps no (d, d, d) array; the first read builds it, read-only, once
        holonomy._algebra.cache_clear()
        alg = by_name(space, space.kind)
        decomp.curvature_space_dim(alg)
        assert "structure_constants" not in vars(alg)
        c = alg.structure_constants
        assert vars(alg)["structure_constants"] is c and alg.structure_constants is c
        assert not c.flags.writeable
        assert c.shape == (alg.dim,) * 3

    def test_by_name(self, so5_space, u3_space, qk2_space):
        assert by_name(so5_space, "so").dim == 10
        assert by_name(u3_space, "u").dim == 9
        assert by_name(qk2_space, "sp_sp1").dim == 13
        with pytest.raises(GeometryError):
            by_name(so5_space, "u")

    def test_rejects_non_orthonormal(self, so5_space):
        rows = np.zeros((2, 10))
        rows[0, 0] = 1.0
        rows[1, 0] = 1.0
        with pytest.raises(GeometryError):
            HolonomyAlgebra(so5_space, "bad", rows)

    def test_rejects_non_closed(self, so5_space):
        # span{e1^e2, e3^e4, e1^e3} is not a subalgebra of so(5)
        rows = np.zeros((3, 10))
        pair = tensor._pair_lookup(5)
        rows[0, pair[0, 1]] = 1.0
        rows[1, pair[2, 3]] = 1.0
        rows[2, pair[0, 2]] = 1.0
        with pytest.raises(GeometryError):
            HolonomyAlgebra(so5_space, "bad", rows)


    def test_so_build_makes_no_bracket_pass(self, monkeypatch):
        # d = D orthonormal rows span so(n), which is closed; the subalgebras
        # and an outside basis with d < D still check closure
        calls = []
        brackets = HolonomyAlgebra._brackets

        def counted(self, keep):
            calls.append(self.name)
            return brackets(self, keep)

        def refused(self, keep):
            raise AssertionError(f"bracket pass while building {self.name}")

        with monkeypatch.context() as patch:
            patch.setattr(HolonomyAlgebra, "_brackets", refused)
            for n in (2, 5, 8):
                assert so_algebra(generic(n)).dim == n * (n - 1) // 2
            patch.setattr(HolonomyAlgebra, "_brackets", counted)
            u_algebra(kaehler(3))
            sp_sp1_algebra(quaternion_kaehler(2))
            assert calls == ["u(3)", "sp(2)+sp(1)"]
            rows = np.zeros((3, 10))
            pair = tensor._pair_lookup(5)
            rows[[0, 1, 2], [pair[0, 1], pair[2, 3], pair[0, 2]]] = 1.0
            with pytest.raises(GeometryError, match="not closed"):
                HolonomyAlgebra(generic(5), "bad", rows)
            assert calls[2:] == ["bad"]

    def test_closure_pass_reads_each_pair_once(self, monkeypatch):
        # [b, a] = -[a, b], so the closure check of the chunk from generator
        # lo reads partners b >= lo only; with one generator a chunk, every
        # unordered pair is read once and the defect is that of all brackets
        monkeypatch.setattr(holonomy, "_CHUNK_BYTES", 1)
        rows = np.zeros((3, 10))
        pair = tensor._pair_lookup(5)
        rows[[0, 1, 2], [pair[0, 1], pair[2, 3], pair[0, 2]]] = 1.0
        bad = object.__new__(HolonomyAlgebra)  # the unchecked basis {e01, e23, e02}
        bad.space, bad.name, bad.coeff_matrix = generic(5), "bad", rows
        defects = []
        for alg in (sp_sp1_algebra(quaternion_kaehler(2)), bad):
            assert alg.chunk_size == 1
            checked, kept = alg._brackets(keep=False)[1], alg._brackets(keep=True)[1]
            assert checked == pytest.approx(kept, rel=1e-12, abs=1e-15)
            defects.append(checked)
        assert defects[0] < 1e-12 and defects[1] > 0.5
        with pytest.raises(GeometryError, match="not closed"):
            HolonomyAlgebra(generic(5), "bad", rows)


class TestProjection:
    def test_projection_of_supported_operator_is_lossless(self, qk2, hp2):
        op = tensor.to_operator(hp2)
        rop = project(op, qk2)
        assert rop.matrix.shape == (13, 13)
        assert complement_mass(op, qk2) < 1e-12
        assert np.trace(rop.matrix) == pytest.approx(np.trace(op.matrix))

    def test_complement_mass_detects_leak(self, qk2, rng):
        rm = tensor.random_curvature(qk2.space, rng=rng)
        op = tensor.to_operator(rm)
        assert complement_mass(op, qk2) > 1e-3

    def test_project_does_no_symmetry_scan(self, qk2, hp2, monkeypatch):
        # c M c^T is a fresh array: frozen in place, not copied or scanned,
        # both of which live in CurvatureOperator.__post_init__
        def post_init(self):
            raise AssertionError("copy and symmetry scan on a projected operator")

        with monkeypatch.context() as patch:
            patch.setattr(tensor.CurvatureOperator, "__post_init__", post_init)
            rop = project(tensor.to_operator(hp2), qk2)
            assert rop.algebra is qk2 and rop.matrix.shape == (qk2.dim, qk2.dim)
            assert not rop.matrix.flags.writeable
            assert rop.spectrum() is rop.spectrum()
        # a matrix from outside is still copied and scanned
        mat = np.array(rop.matrix)
        outside = tensor.CurvatureOperator(qk2.space, mat, qk2)
        assert outside.matrix is not mat and not outside.matrix.flags.writeable
        assert np.array_equal(outside.spectrum().values, rop.spectrum().values)
        mat[0, 1] += 1e-6
        with pytest.raises(GeometryError, match="not symmetric"):
            tensor.CurvatureOperator(qk2.space, mat, qk2)

    def test_double_restriction_rejected(self, qk2, hp2):
        rop = project(tensor.to_operator(hp2), qk2)
        with pytest.raises(GeometryError):
            project(rop, qk2)

    def test_tensor_is_rejected(self, qk2, hp2):
        # an operator comes in as to_operator(rm); project converts nothing
        for given in (hp2, hp2.matrix):
            with pytest.raises(GeometryError, match="full bivector-space operator"):
                project(given, qk2)

    def test_complement_mass_takes_only_full_operators(self, qk2, hp2, so5):
        # a tensor, a bare matrix and a restricted operator are refused as in
        # project: the tensor's matrix once passed, the restricted operator's
        # 13 rows met numpy's matmul error, and on so(n), where c is the
        # identity, a restricted operator read as mass 0.0
        restricted_so = project(tensor.to_operator(tensor.random_curvature(so5.space, rng=np.random.default_rng(1))), so5)
        for given, alg in ((hp2, qk2), (hp2.matrix, qk2), (project(tensor.to_operator(hp2), qk2), qk2),
                           (restricted_so, so5)):
            with pytest.raises(GeometryError, match="^complement mass needs a full bivector-space operator$"):
                complement_mass(given, alg)


# ---------------------------------------------------------------------------
# quaternionic frames: a reference basis of sp(m)+sp(1), built from wedges


@dataclass(eq=False)
class QuaternionFrame:
    """Distinguished bivector families on a quaternion-Kaehler space, as
    coefficient rows over the lexicographic pairs.

    Indices run over the quaternionic blocks 0..m-1.  The families:

    * omega[L]: the parallel 2-form of the structure L, squared norm 2m;
    * omega_pm[(L, s)]: unit sums/differences of the two halves of omega[L];
    * w[(i, j)]: diagonal real pair rotations, i < j;
    * paired[(L, i, j)]: twisted pair rotations, i < j;
    * diagonal[(L, i)]: traceless single-block rotations;
    * tilde[(L, k)]: the orthonormal completion of the diagonal family
      orthogonal to omega[L], k = 0..m-2.

    w + paired + diagonal is an orthonormal basis of the commuting block of
    sp(m); the omega_pm carry the two sp(1) summands of the symmetric-space
    operator, w the middle eigenvalue, paired + tilde its kernel.
    """

    space: EuclideanSpace
    omega: dict
    omega_pm: dict
    w: dict
    paired: dict
    diagonal: dict
    tilde: dict

    def sp_basis(self) -> list[np.ndarray]:
        m = self.space.m
        out = [self.w[(i, j)] for i in range(m) for j in range(i + 1, m)]
        for L in ("I", "J", "K"):
            out += [self.paired[(L, i, j)] for i in range(m) for j in range(i + 1, m)]
        for L in ("I", "J", "K"):
            out += [self.diagonal[(L, i)] for i in range(m)]
        return out

    def full_basis(self) -> list[np.ndarray]:
        m = self.space.m
        return self.sp_basis() + [self.omega[L] / np.sqrt(2 * m) for L in ("I", "J", "K")]

    def symmetric_space_eigenbasis(self) -> list[tuple[np.ndarray, float]]:
        """Orthonormal eigenbasis, with eigenvalues, of the four-plane
        Grassmannian curvature operator restricted to this algebra."""
        m = self.space.m
        out = [(self.omega_pm[(L, s)], float(m)) for s in ("+", "-") for L in ("I", "J", "K")]
        out += [(self.w[(i, j)], 4.0) for i in range(m) for j in range(i + 1, m)]
        for L in ("I", "J", "K"):
            out += [(self.paired[(L, i, j)], 0.0) for i in range(m) for j in range(i + 1, m)]
        for L in ("I", "J", "K"):
            out += [(self.tilde[(L, k)], 0.0) for k in range(m - 1)]
        return out


def quaternion_frame(space: EuclideanSpace) -> QuaternionFrame:
    m = space.m
    n = space.n
    # cyclic companions: the L-form pairs e ^ Le with Ae ^ Be
    cyc = {"I": ("J", "K"), "J": ("K", "I"), "K": ("I", "J")}
    structs = {"I": space.I, "J": space.J, "K": space.K}

    def unit(i: int) -> np.ndarray:
        v = np.zeros(n)
        v[4 * i] = 1.0
        return v

    omega = {}
    omega_pm = {}
    diagonal = {}
    for L, (A, B) in cyc.items():
        SL, SA, SB = structs[L], structs[A], structs[B]
        first = [wedge_coeffs(space, unit(i), SL @ unit(i)) for i in range(m)]
        second = [wedge_coeffs(space, SA @ unit(i), SB @ unit(i)) for i in range(m)]
        total_first = sum(first[1:], first[0])
        total_second = sum(second[1:], second[0])
        omega[L] = total_first + total_second
        omega_pm[(L, "+")] = (total_first + total_second) / np.sqrt(2 * m)
        omega_pm[(L, "-")] = (total_first - total_second) / np.sqrt(2 * m)
        for i in range(m):
            diagonal[(L, i)] = (first[i] - second[i]) / np.sqrt(2)

    w = {}
    paired = {}
    for i in range(m):
        for j in range(i + 1, m):
            ei, ej = unit(i), unit(j)
            acc = wedge_coeffs(space, ei, ej)
            for L in ("I", "J", "K"):
                acc = acc + wedge_coeffs(space, structs[L] @ ei, structs[L] @ ej)
            w[(i, j)] = acc / 2
            for L, (A, B) in cyc.items():
                SL, SA, SB = structs[L], structs[A], structs[B]
                term = (
                    wedge_coeffs(space, ei, SL @ ej)
                    + wedge_coeffs(space, ej, SL @ ei)
                    - wedge_coeffs(space, SA @ ei, SB @ ej)
                    - wedge_coeffs(space, SA @ ej, SB @ ei)
                )
                paired[(L, i, j)] = term / 2

    # orthonormal completion of the diagonal family inside each L-slice:
    # combination of the first k+1 diagonal elements minus (k+1) times the next
    tilde = {}
    for L in ("I", "J", "K"):
        for k in range(m - 1):
            kk = k + 1
            acc = diagonal[(L, 0)]
            for j in range(1, kk):
                acc = acc + diagonal[(L, j)]
            tilde[(L, k)] = (acc - kk * diagonal[(L, kk)]) / np.sqrt(kk * kk + kk)
    return QuaternionFrame(
        space=space,
        omega=omega,
        omega_pm=omega_pm,
        w=w,
        paired=paired,
        diagonal=diagonal,
        tilde=tilde,
    )


@pytest.fixture(scope="module")
def frame3():
    return quaternion_frame(quaternion_kaehler(3))


class TestQuaternionFrame:

    def test_counts(self, frame3):
        m = 3
        assert len(frame3.omega) == 3
        assert len(frame3.omega_pm) == 6
        assert len(frame3.w) == 3
        assert len(frame3.paired) == 3 * (m * (m - 1) // 2)
        assert len(frame3.diagonal) == 3 * m
        assert len(frame3.tilde) == 3 * (m - 1)

    def test_sp_basis_orthonormal(self, frame3):
        elems = frame3.sp_basis()
        m = 3
        assert len(elems) == m * (2 * m + 1)
        gram = np.array([[a @ b for b in elems] for a in elems])
        assert np.allclose(gram, np.eye(len(elems)))

    def test_full_basis_spans_algebra(self, frame3):
        space = frame3.space
        alg = sp_sp1_algebra(space)
        for el in frame3.full_basis():
            resid = el - alg.coeff_matrix.T @ (alg.coeff_matrix @ el)
            assert np.abs(resid).max() < 1e-10

    @pytest.mark.parametrize("m", range(2, 7))
    def test_sp1_rows_are_the_frame_omegas(self, m):
        # sp_sp1_algebra reads its last three rows off the structures; they
        # are the frame's omega / sqrt(2m) to the bit
        space = quaternion_kaehler(m)
        frame = quaternion_frame(space)
        ref = np.stack([frame.omega[L] / np.sqrt(2 * m) for L in ("I", "J", "K")])
        assert np.array_equal(sp_sp1_algebra(space).coeff_matrix[-3:], ref)

    def test_eigenbasis_diagonalizes_wolf(self):
        m = 3
        rm = decomp.wolf(m)
        alg = sp_sp1_algebra(rm.space)
        rop = project(tensor.to_operator(rm), alg)
        frame = quaternion_frame(rm.space)
        for vec, lam in frame.symmetric_space_eigenbasis():
            coeffs = alg.coeff_matrix @ vec
            resid = rop.matrix @ coeffs - lam * coeffs
            assert np.abs(resid).max() < 1e-10


def _u_invariance(alg):
    j = alg.space.J
    for a in alg.matrices:
        if np.abs(a @ j - j @ a).max() > 1e-10:
            return False
    return True


@pytest.mark.parametrize("m", [2, 3, 4])
def test_u_family(m):
    alg = u_algebra(kaehler(m))
    assert alg.dim == m * m
    assert _u_invariance(alg)


@pytest.mark.parametrize("m", [2, 3])
def test_sp_family(m):
    alg = sp_sp1_algebra(quaternion_kaehler(m))
    assert alg.dim == m * (2 * m + 1) + 3
    assert closure_defect(alg) < 1e-10


def test_so_projection_is_identity(so5):
    rm = tensor.random_curvature(so5.space, rng=np.random.default_rng(3))
    op = tensor.to_operator(rm)
    rop = project(op, so5)
    perm = np.abs(rop.matrix) - np.abs(op.matrix)
    # so(n) is all of the bivector space; only a basis reordering may occur
    assert np.allclose(np.sort(np.linalg.eigvalsh(rop.matrix)),
                       np.sort(np.linalg.eigvalsh(op.matrix)))
    assert complement_mass(op, so5) < 1e-12
    assert perm.shape == op.matrix.shape


def _commutator_map(space, structs):
    # xi -> ([xi, s] for each structure s) on the pair basis, flattened
    pairs = np.arange(space.bivector_dim)
    basis = np.zeros((space.bivector_dim, space.n, space.n))
    basis[pairs, space.pair_rows, space.pair_cols] = 1.0
    basis[pairs, space.pair_cols, space.pair_rows] = -1.0
    return np.concatenate(
        [(basis @ s - s @ basis).reshape(space.bivector_dim, -1).T for s in structs]
    )


@pytest.mark.parametrize("space", [kaehler(3), quaternion_kaehler(2)], ids=["u3", "qk2"])
def test_kernel_rows_sign_convention(space):
    structs = [space.J] if space.kind == "kaehler" else [space.I, space.J, space.K]
    rows = _commutant_rows(space, structs)
    lead = np.argmax(np.abs(rows), axis=1)
    assert np.all(rows[np.arange(rows.shape[0]), lead] > 0)


@pytest.mark.parametrize(
    "tag, m", [("u", m) for m in range(2, 6)] + [("sp_sp1", m) for m in range(2, 6)]
)
def test_kernel_rows_match_full_svd(tag, m):
    # the commutant rows span the null space of the commutator map
    space = kaehler(m) if tag == "u" else quaternion_kaehler(m)
    structs = [space.J] if tag == "u" else [space.I, space.J, space.K]
    mapping = _commutator_map(space, structs)
    rows = _commutant_rows(space, structs)
    dim = m * m if tag == "u" else m * (2 * m + 1)
    assert rows.shape == (dim, space.bivector_dim)
    _, s, vh = np.linalg.svd(mapping, full_matrices=True)
    ref = vh[int(np.sum(s > 1e-8)):]
    assert np.abs(rows.T @ rows - ref.T @ ref).max() <= 1e-12
    assert np.abs(rows @ rows.T - np.eye(dim)).max() <= 1e-12


@pytest.mark.parametrize("tag, kind", sorted(HOLONOMY_TAGS.items()))
def test_every_tag_resolves(tag, kind, so5_space, u3_space, qk2_space):
    space = {"generic": so5_space, "kaehler": u3_space, "qk": qk2_space}[kind]
    expected = {"generic": "so(5)", "kaehler": "u(3)", "qk": "sp(2)+sp(1)"}[kind]
    assert by_name(space, tag).name == expected
    assert by_name(space, tag.upper()).name == expected


def test_tag_aliases():
    groups = {"generic": {"so", "generic", "weyl"}, "kaehler": {"u", "kaehler", "bochner"},
              "qk": {"sp_sp1", "sp", "qk"}}
    assert {k: {t for t, v in HOLONOMY_TAGS.items() if v == k} for k in groups} == groups


def test_unknown_tag_message(so5_space):
    with pytest.raises(GeometryError, match="^unknown holonomy tag 'octonion'$"):
        by_name(so5_space, "octonion")


# ---------------------------------------------------------------------------
# the character-blocked bivector action


def _dense_action(alg) -> np.ndarray:
    """The derivation action of the basis on the pairs, (dim, D, D), by its
    formula -(a[u, x][v = y] - a[v, x][u = y] + [x = u] a[v, y] - [x = v] a[u, y])
    at P = (x, y), P' = (u, v): the reference for the blocks."""
    rows, cols = alg.space.pair_rows, alg.space.pair_cols
    x, y = rows[:, None], cols[:, None]
    u, v = rows[None, :], cols[None, :]
    a = alg.matrices
    act = np.zeros((alg.dim, rows.size, rows.size))
    for sign, mask, first, second in (
        (-1.0, v == y, rows, rows),
        (1.0, u == y, cols, rows),
        (-1.0, x == u, cols, cols),
        (1.0, x == v, rows, cols),
    ):
        p, q = np.nonzero(mask)
        act[:, p, q] += sign * a[:, first[q], second[p]]
    return act


BLOCK_CASES = (
    [pytest.param(lambda n=n: so_algebra(generic(n)), id=f"so{n}") for n in (5, 9, 10, 11, 12)]
    + [pytest.param(lambda m=m: u_algebra(kaehler(m)), id=f"u{m}") for m in (3, 5, 6)]
    + [pytest.param(lambda m=m: sp_sp1_algebra(quaternion_kaehler(m)), id=f"qk{m}") for m in (2, 3, 4, 5)]
    + [pytest.param(lambda: u_algebra(rotated_kaehler(3)), id="u3_rotated"),
       pytest.param(lambda: misplaced_unitary(3), id="u3_misplaced")]
)


# sha256 of each algebra's action_blocks: dtype, shape, strides and bytes of
# every array, in entry order.  Moves with any change to an entry's order,
# a block's rows or columns, or the sign of a stored zero
BLOCKS_SHA256 = {
    "so12": ("710221fa42a6f88c68c288641c419b5bfd991f7e5933ba198e4255727ab7fb8e", lambda: so_algebra(generic(12))),
    "u6": ("4bc47a07eed876aba81e2e3d71d32abe0b540987fd97923ed3b21982e4d79b6b", lambda: u_algebra(kaehler(6))),
    "qk5": ("266a08b8210692d4800e3146767526cd08c01544ad319acb34995b21920b0ae4",
            lambda: sp_sp1_algebra(quaternion_kaehler(5))),
    "u3_rotated": ("54348cb359fbf71c6f101cf17cc67f4609ad76fdc31a318de14e50a34a7157b3",
                   lambda: u_algebra(rotated_kaehler(3))),
    "u3_misplaced": ("54348cb359fbf71c6f101cf17cc67f4609ad76fdc31a318de14e50a34a7157b3", lambda: misplaced_unitary(3)),
}


class TestActionBlocks:
    @pytest.mark.parametrize("builder", BLOCK_CASES)
    def test_blocks_hold_exactly_the_nonzeros_of_the_formula(self, builder):
        alg = builder()
        ref = _dense_action(alg)
        n_pairs = alg.space.bivector_dim
        covered = np.zeros((alg.dim * n_pairs, n_pairs), dtype=int)
        written = []
        for blocks, sources, targets in alg.action_blocks:
            assert not (blocks.flags.writeable or sources.flags.writeable or targets.flags.writeable)
            assert blocks.shape == targets.shape + sources.shape[1:]
            np.add.at(covered, (targets[:, :, None], sources[:, None, :]), 1)
            written.append(targets.ravel())
            # every stored row holds a nonzero of the formula
            assert np.all(np.any(blocks != 0, axis=2))
        written = np.concatenate(written)
        assert np.unique(written).size == written.size  # one write per row of N_a R
        assert covered.max() <= 1
        assert np.array_equal(scattered_action(alg), ref)
        assert np.all(covered.reshape(ref.shape)[ref != 0] == 1)

    @pytest.mark.parametrize("builder", BLOCK_CASES)
    def test_blocked_hats_match_lie_action(self, builder):
        alg = builder()
        rm = tensor.random_curvature(alg.space, rng=np.random.default_rng(11))
        hats = tensor.t_hat(tensor.to_operator(rm), alg)
        d = alg.space.bivector_dim
        assert hats.shape == (alg.dim, d, d)
        gens = range(alg.dim)
        if alg.space.n > 16:
            # one generator per character, and sp(1): the slot-by-slot
            # reference costs about 30 ms per generator here
            gens = sorted(set(np.unique(alg.characters[1], return_index=True)[1]) | {alg.dim - 1})
        scale = 1.0 + float(np.abs(hats).max())
        for b in gens:
            ref = tensor.to_operator(lie_action(alg.matrices[b], rm)).matrix
            assert float(np.abs(hats[b] - ref).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("builder", [lambda: u_algebra(rotated_kaehler(3)), lambda: misplaced_unitary(3)],
                             ids=["u3_rotated", "u3_misplaced"])
    def test_one_block_fallback_is_the_dense_product(self, builder):
        alg = builder()
        assert not np.any(alg.characters[0]) and not np.any(alg.characters[1])
        [(blocks, sources, targets)] = alg.action_blocks
        assert blocks.shape[0] == 1
        assert np.array_equal(sources[0], np.arange(alg.space.bivector_dim))

    def test_blocks_are_few_products(self):
        # one batched product per chunk and block shape, the entries of a
        # chunk consecutive and in chunk order, and no chunk's hats above the
        # budget; u(3) is one chunk, the others span several
        for alg, chunks in ((so_algebra(generic(12)), 6), (u_algebra(kaehler(3)), 1),
                            (u_algebra(kaehler(6)), 2), (sp_sp1_algebra(quaternion_kaehler(5)), 20)):
            n_pairs, size = alg.space.bivector_dim, alg.chunk_size
            assert size * n_pairs**2 * 8 <= holonomy._CHUNK_BYTES
            assert -(-alg.dim // size) == chunks
            seen = []
            for blocks, _, targets in alg.action_blocks:
                chunk = int(targets.min()) // (size * n_pairs)
                assert int(targets.max()) // (size * n_pairs) == chunk
                seen.append((chunk, blocks.shape[1:]))
            assert len(set(seen)) == len(seen)
            assert [c for c, _ in seen] == sorted(c for c, _ in seen)

    @pytest.mark.parametrize("name", list(BLOCKS_SHA256))
    def test_block_bytes_are_pinned(self, name):
        expected, builder = BLOCKS_SHA256[name]
        digest = hashlib.sha256()
        for entry in builder().action_blocks:
            for a in entry:
                digest.update(f"{a.dtype.str} {a.shape} {a.strides}".encode())
                digest.update(a.tobytes())
        assert digest.hexdigest() == expected, pin_note()

    def test_verify_never_reads_the_dense_stack(self, monkeypatch, capsys):
        from curvlab import cli

        # the dense action is a test helper (conftest.scattered_action) only
        assert not hasattr(HolonomyAlgebra, "bivector_action")
        blocks = HolonomyAlgebra.action_blocks
        holonomy._algebra.cache_clear()
        used = []
        monkeypatch.setattr(HolonomyAlgebra, "action_blocks",
                            property(lambda self: used.append(self.name) or blocks.func(self)))
        code = cli.main(["verify", "--m", "2..3", "--n", "4..5", "--trials", "3"])
        capsys.readouterr()
        assert code == 1  # the two standing findings
        assert used  # the pass did compute hats, from the blocks


def test_algebra_builds_fill_no_index_tables():
    # the conjugations that solve the commutant read the structures by pair
    # rows; only tensor._kn_matrix builds the D x D tables of tensor._kn_tables
    tensor._kn_tables.cache_clear()
    for alg in (u_algebra(kaehler(5)), sp_sp1_algebra(quaternion_kaehler(3))):
        decomp._bianchi_kernel_basis.__wrapped__(alg)
    assert tensor._kn_tables.cache_info().currsize == 0


@pytest.mark.parametrize("m,bound_mb", [(5, 10), (7, 32)])
def test_algebra_build_holds_no_bracket_table(m, bound_mb):
    # the bracket pass runs chunk by chunk: the whole (n d)^2 product of the
    # basis matrices would be 10.8 MB at m = 5 and 73 MB at m = 7
    import tracemalloc

    space = quaternion_kaehler(m)
    tracemalloc.start()
    try:
        alg = sp_sp1_algebra(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == m * (2 * m + 1) + 3
    assert peak <= bound_mb * 1e6, peak / 1e6


class TestAlgebraCache:
    def test_algebras_compare_by_key(self, u3_swapped):
        first, again = u_algebra(kaehler(3)), u_algebra(kaehler(3))
        assert first is not again and first == again and hash(first) == hash(again)
        assert u3_swapped != first and u3_swapped.name == first.name
        # equal rows on two structures: the structure sets the characters
        assert so_algebra(kaehler(3)) != so_algebra(generic(6))

    def test_by_name_builds_once_per_structure(self):
        holonomy._algebra.cache_clear()
        p = np.eye(6)[[1, 0, 2, 3, 4, 5]]
        swapped = EuclideanSpace(6, "kaehler", J=p @ kaehler(3).J @ p.T)
        first = by_name(kaehler(3), "u")
        assert by_name(kaehler(3), "bochner") is first  # a fresh equal space, another tag
        other = by_name(swapped, "u")
        assert other is not first and other.name == first.name
        assert by_name(kaehler(3), "so") is not by_name(generic(6), "so")  # the space is part of it
        for alg in (first, other):
            assert "structure_constants" not in vars(alg)  # the read below builds them
            for arr in (alg.coeff_matrix, alg.matrices, alg.structure_constants, *alg.characters):
                assert not arr.flags.writeable

    def test_verify_builds_each_algebra_once(self, monkeypatch, capsys):
        from curvlab import cli

        holonomy._algebra.cache_clear()
        builds = []
        for name in ("so_algebra", "u_algebra", "sp_sp1_algebra"):
            original = getattr(holonomy, name)

            def counted(space, original=original):
                builds.append((original.__name__, space.kind, space.n))
                return original(space)

            monkeypatch.setattr(holonomy, name, counted)
        cli.main(["verify", "--m", "2..3", "--n", "4..5", "--trials", "3"])
        capsys.readouterr()
        assert builds
        assert len(builds) == len(set(builds))

    def test_concurrent_callers_share_one_algebra(self):
        import sys
        import threading

        holonomy._algebra.cache_clear()
        workers = 8  # more than the cores of the hosts this runs on
        start = threading.Barrier(workers)
        got = [None] * workers

        def call(i):
            start.wait(timeout=10)
            got[i] = by_name(quaternion_kaehler(2), "sp")

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
        assert all(alg is got[0] for alg in got) and got[0] is not None
