"""Holonomy subalgebras of the rotation algebra.

Subalgebras are stored as orthonormal coefficient matrices over the
lexicographic bivector basis, with the skew matrices of the rows in
`HolonomyAlgebra.matrices`: the row with coefficient 1 at the pair (i, j)
is the matrix of e_i ^ e_j, which acts by the convention

    (X ^ Y) Z = <X, Z> Y - <Y, Z> X,

so the matrix of X ^ Y is Y X^T - X Y^T, with +1 in row j, column i for
e_i ^ e_j.  Half the Frobenius pairing of the matrices is the dot product of
the coefficient rows, so the lexicographic pair basis is orthonormal.

The unitary and symplectic cases are the commutants of the parallel
structures.  The identity and the structures form a group up to sign, so the
mean of their conjugations on bivectors is the orthogonal projector onto the
commutant, and the basis spans its range.  That works for any admissible
structure, not just the standard one.  Each conjugation keeps the sign-flip
character of a pair (`_pair_characters`), so the projector is solved one
character at a time and every basis row lies on the pairs of one character.
The Bianchi kernel is blocked by that basis, and the hats are computed from
each chunk's dense action on the pairs, cut into blocks by character
(`HolonomyAlgebra.action_blocks`).  Hats, blocks and structure constants are
built by chunks of generators (`HolonomyAlgebra.chunk_size`), so no array of
them scales with the algebra squared.  Construction only checks closure,
once per unordered pair of generators (not for so(n), which is closed): the
(d, d, d) structure constants, which only the spectral routes of `criteria`
read, are built on first read by a bracket pass, so a run that never reads
them never holds them.  At so(24) they are 168 MB, and `curvlab decompose`
of an n = 24 file peaks at about 49.5 MB of RSS.  Algebras compare and hash
by `HolonomyAlgebra.key`; `by_name` builds each once per space and kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .euclid import EuclideanSpace, GeometryError, _one_blas_thread, _shared, _sign_fix
from .tensor import CurvatureOperator, _conjugation_on_bivectors, _freeze, _full_operator, _norm, _value, _wrap

# Chunk budget: hats and brackets are built over contiguous generator ranges
# whose arrays stay within this many bytes (HolonomyAlgebra.chunk_size), so
# neither the (dim, D, D) hat stack nor the (n dim)^2 bracket product is
# formed; a batch of Bianchi constraint blocks holds its whole working set
# under it (decomp._bianchi_blocks), a stack of trials holds at most half of
# it in operators (trial_chunk), the three products that rotate the
# structure constants of a sub-chunk of trials fit it (rotation_trials),
# hats are filled for as many trials at once as it holds (chunk_trials) and
# symmetrized for as many generators as a quarter of it holds (hat_group).
# Small enough that these temporaries come from memory the allocator already
# holds, not from pages faulted in afresh: the sp(4)+sp(1) constraint rows
# built on 4.2 MB take 10.4 ms a call and 3 476 page faults, within the
# budget 4.4 ms and 386, and both about 3 ms when freed memory is kept.
_CHUNK_BYTES = 1 << 20


def trial_chunk(space: EuclideanSpace) -> int:
    """Trials per stack of operators on the space: as many as half of
    _CHUNK_BYTES holds, at least one.  A decomposition holds its source, its
    parts and a check's temporary, about five stacks, so one chunk of trials
    stays within 3 * _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // 2 // (8 * space.bivector_dim**2))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal keys after a stable sort: (order, starts, counts, values).

    Run r is the positions order[starts[r] : starts[r] + counts[r]], all with
    the key values[r]; the values ascend.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([keys.size > 0], ranked[1:] != ranked[:-1])))
    counts = np.diff(np.append(starts, keys.size))
    return order, starts, counts, ranked[starts]


def _pair_characters(space: EuclideanSpace) -> np.ndarray:
    """Sign-flip character of each lexicographic pair, as a uint64 bit set.

    Coordinates x and y are linked when a parallel structure of the space
    (`EuclideanSpace.structures`) has a nonzero (x, y) entry.  A sign vector
    that is constant on each connected component commutes with the
    structures, so it normalizes the holonomy algebra, and it acts on
    e_x ^ e_y by the product of the two signs.  Bit c stands for
    component c; a pair's character is the XOR of its coordinates' bits.
    With more than 64 components every character is 0: one block.
    """
    n = space.n
    link = np.eye(n, dtype=bool)
    for s in space.structures:
        link |= (s != 0) | (s.T != 0)
    label = np.arange(n)
    while True:  # each coordinate takes the smallest label linked to it
        nxt = np.where(link, label[None, :], n).min(axis=1)
        if np.array_equal(nxt, label):
            break
        label = nxt
    comp = (np.cumsum(label == np.arange(n)) - 1)[label]
    if comp.max() >= 64:
        comp[:] = 0
    bits = np.left_shift(np.uint64(1), comp.astype(np.uint64))
    return bits[space.pair_rows] ^ bits[space.pair_cols]


def _commutant_rows(space: EuclideanSpace) -> np.ndarray:
    """Orthonormal rows spanning the bivectors that commute with every
    parallel structure of the space (`EuclideanSpace.structures`), each row
    on the pairs of one character.

    The projector onto the commutant is the mean of the identity and the
    structures' conjugations.  Each conjugation keeps a pair's character, so
    the projector is block diagonal by character, and the rows of a character
    are the eigenvectors of its block with eigenvalue above 1/2.  The
    eigenvalues of a projector are 0 and 1, so 1/2 is a threshold, not a
    tolerance.
    """
    proj = np.eye(space.bivector_dim)
    for s in space.structures:
        proj += _conjugation_on_bivectors(space, s)
    proj /= len(space.structures) + 1
    order, starts, counts, _ = _runs(_pair_characters(space))
    rows = []
    for start, count in zip(starts, counts):
        cols = order[start : start + count]
        w, v = np.linalg.eigh(proj[np.ix_(cols, cols)])
        keep = v[:, w > 0.5].T
        piece = np.zeros((keep.shape[0], space.bivector_dim))
        piece[:, cols] = keep
        rows.append(piece)
    return _sign_fix(np.concatenate(rows))


@dataclass(eq=False)
class HolonomyAlgebra:
    """Lie subalgebra of skew matrices, with an orthonormal bivector basis.

    coeff_matrix has one row per basis element; rows are orthonormal with
    respect to the bivector inner product.  It is a read-only copy of the
    rows given, so `key`, by which algebras compare and hash, stays valid.
    Construction checks closure under the bracket in one pass (`_brackets`)
    that reads each unordered pair of generators once and keeps only the
    defect, or none when d = D (so(n) is closed).  The read-only
    structure_constants c[a, b, g] = <[basis_a, basis_b], basis_g> are built
    on first read, by a bracket pass over all ordered pairs, so they cost
    nothing to a run that never reads them (`curvlab decompose` at n = 24
    peaks at about 49.5 MB).
    """

    space: EuclideanSpace
    name: str
    coeff_matrix: np.ndarray

    def __post_init__(self):
        self.coeff_matrix = np.array(self.coeff_matrix, dtype=float)
        _freeze(self.coeff_matrix)
        d, cols = self.coeff_matrix.shape
        if cols != self.space.bivector_dim:
            raise GeometryError("coefficient rows must live on the bivector space")
        gram = self.coeff_matrix @ self.coeff_matrix.T
        if not np.allclose(gram, np.eye(d), rtol=0.0, atol=1e-9):
            raise GeometryError(f"basis of {self.name} is not orthonormal")
        defect = self._brackets(keep=False)[1] if d < cols else 0.0  # d = D orthonormal rows span so(n)
        if defect > 1e-8:
            raise GeometryError(f"{self.name} is not closed under the bracket ({defect:.2e})")

    @property
    def dim(self) -> int:
        return self.coeff_matrix.shape[0]

    @cached_property
    def key(self) -> tuple:
        """`_algebra_key` of this algebra, built once per object."""
        return _algebra_key(self)

    def __eq__(self, other):
        if not isinstance(other, HolonomyAlgebra):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @cached_property
    def matrices(self) -> np.ndarray:
        """Stack of the skew matrices of the basis, shape (dim, n, n): +coeff
        in row j, column i for the pair (i, j), read-only."""
        n = self.space.n
        ii, jj = self.space.pair_rows, self.space.pair_cols
        mats = np.zeros((self.dim, n, n))
        mats[:, jj, ii] = self.coeff_matrix
        mats[:, ii, jj] = -self.coeff_matrix
        _freeze(mats)
        return mats

    @cached_property
    def characters(self) -> tuple[np.ndarray, np.ndarray]:
        """(pair characters, generator characters), read-only uint64 arrays.

        The pair characters are `_pair_characters`; a generator's character
        is that of the pairs its row lies on.  If any row meets two
        characters, every character is taken as 0, which makes one block of
        everything blocked by them.
        """
        pair_chars = _pair_characters(self.space)
        support = self.coeff_matrix != 0
        gen_chars = pair_chars[np.argmax(support, axis=1)]
        if np.any(support & (pair_chars != gen_chars[:, None])):
            pair_chars, gen_chars = np.zeros_like(pair_chars), np.zeros_like(gen_chars)
        _freeze(pair_chars, gen_chars)
        return pair_chars, gen_chars

    @property
    def chunk_size(self) -> int:
        """Generators per chunk, c * size to (c + 1) * size: its hats
        (size, D, D) and basis products (n, size, n, dim) fit _CHUNK_BYTES,
        unless one generator's do not (sp(7)+sp(1)), then a chunk is one."""
        n, n_pairs = self.space.n, self.space.bivector_dim
        return max(1, _CHUNK_BYTES // (8 * max(n_pairs * n_pairs, n * n * self.dim)))

    @property
    def chunk_trials(self) -> int:
        """Trials whose hats are filled together (`tensor._hat_chunks`): as
        many as _CHUNK_BYTES holds of one chunk's hats, at least one."""
        n_pairs = self.space.bivector_dim
        return max(1, _CHUNK_BYTES // (8 * n_pairs * n_pairs * min(self.chunk_size, self.dim)))

    @property
    def hat_group(self) -> int:
        """Generators whose hats `tensor._hat_chunks` symmetrizes at once: as
        many as a quarter of _CHUNK_BYTES holds for chunk_trials trials, at
        least one, at most a chunk."""
        n_pairs = self.space.bivector_dim
        return max(1, min(self.chunk_size, self.dim, _CHUNK_BYTES // 4 // (8 * n_pairs * n_pairs * self.chunk_trials)))

    @property
    def rotation_trials(self) -> int:
        """Trials whose structure constants the spectral routes of `criteria`
        rotate at once: as many as _CHUNK_BYTES holds of the three (t, d, d, d)
        rotation products, at least one.  A stack of more trials is rotated
        in sub-chunks of this many, the last one ragged."""
        return max(1, _CHUNK_BYTES // (3 * 8 * self.dim**3))

    @cached_property
    def action_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Dense blocks of the derivation action of the basis on the pairs.

        Generator a acts on bivectors by the antisymmetric D x D matrix N_a;
        the hat of a bivector operator R along a is N_a R + (N_a R)^T.  Entry
        (P, P') with P = (x, y), P' = (u, v) is
        -(a[u, x][v = y] - a[v, x][u = y] + [x = u] a[v, y] - [x = v] a[u, y]),
        nonzero only where the pairs share one index.  N_a maps the pairs of
        character chi(P') to those of chi(P') XOR chi_a (`characters`), so a
        row (a, P) reads only the pairs of one source character.  For each
        chunk of generators (`chunk_size`), the dense action (size * D, D) is
        filled from the formula; its rows with a nonzero entry are grouped by
        the character of their first nonzero column, and each group is cut as
        a dense block of those rows by that character's pairs.

        Each entry is (blocks, sources, targets) for `count` blocks of one
        chunk and one block shape (T rows, s pairs): blocks (count, T, s),
        sources (count, s) the sources' pair indices, ascending, targets
        (count, T) the rows a * D + P of the (dim * D, D) view of the hat
        stack, ascending.  Entries run by chunk, then by s, then by T, and
        the blocks of an entry by source character.  Each row with a nonzero
        entry lies in one block, and the other rows are zero.  All arrays are
        read-only.  With every character 0 there is one source: the dense
        action, cut by chunk.
        """
        n_pairs = self.space.bivector_dim
        pair_chars = self.characters[0]
        p_order, p_starts, p_counts, p_values = _runs(pair_chars)
        pair_run = np.searchsorted(p_values, pair_chars)
        # (sign, positions (P, P') of one indicator, the read on P', the read on P)
        pr, pc = self.space.pair_rows, self.space.pair_cols
        x, y, u, v = pr[:, None], pc[:, None], pr[None, :], pc[None, :]
        terms = []
        for sign, mask, first, second in (
            (-1.0, v == y, pr, pr),
            (1.0, u == y, pc, pr),
            (-1.0, x == u, pc, pc),
            (1.0, x == v, pr, pc),
        ):
            p, q = np.nonzero(mask)
            terms.append((sign, p, q, first[q], second[p]))
        size = min(self.chunk_size, self.dim)
        dense, entries = np.zeros((size, n_pairs, n_pairs)), []
        for lo in range(0, self.dim, size):
            gens = self.matrices[lo : lo + size]
            act = dense[: len(gens)]
            for sign, p, q, first, second in terms:
                # + 0.0 stores a zero read as +0.0, not as the -0.0 of its negation
                act[:, p, q] = sign * gens[:, first, second] + 0.0
            flat = act.reshape(-1, n_pairs)
            rows = np.flatnonzero(flat.any(axis=1))
            r_order, r_starts, r_counts, r_runs = _runs(pair_run[np.argmax(flat[rows] != 0, axis=1)])
            widths = p_counts[r_runs]
            s_order, s_starts, s_counts, _ = _runs(widths * (rows.size + 1) + r_counts)
            for start, count in zip(s_starts, s_counts):
                member = s_order[start : start + count]
                sources = p_order[p_starts[r_runs[member]][:, None] + np.arange(widths[member[0]])]
                local = rows[r_order[r_starts[member][:, None] + np.arange(r_counts[member[0]])]]
                entry = (flat[local[:, :, None], sources[:, None, :]], sources, local + lo * n_pairs)
                _freeze(*entry)
                entries.append(entry)
        return entries

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """c[a, b, g] = <[basis_a, basis_b], basis_g>, shape (d, d, d),
        read-only.  Built on first read by the bracket pass that checks
        closure, so its bytes do not depend on when it is read; only the
        spectral routes of `criteria` read it.  The pass runs under one BLAS
        thread (`euclid._one_blas_thread`): at two, sp(4)+sp(1)'s move."""
        with _one_blas_thread():
            consts = self._brackets(keep=True)[0]
        _freeze(consts)
        return consts

    def _brackets(self, keep: bool) -> tuple[np.ndarray | None, float]:
        """(structure constants, closure defect) from the basis matrices,
        one chunk of generators a at a time.  The defect is the largest
        bivector-norm distance of a basis bracket from the span; the
        constants are None unless kept, so a pass that only checks closure
        holds no (d, d, d) array.  [b, a] = -[a, b] has the same distance,
        so that pass brackets the chunk from generator lo with the partners
        b >= lo only: each unordered pair once, or twice within a chunk."""
        d, n = self.dim, self.space.n
        ii, jj = self.space.pair_rows, self.space.pair_cols
        mats, coeffs = self.matrices, self.coeff_matrix
        right = np.ascontiguousarray(mats.transpose(1, 2, 0))  # right[l, k, b] = basis_b[l, k]
        consts, defect = np.empty((d, d, d)) if keep else None, 0.0
        for lo in range(0, d, self.chunk_size):
            size = min(self.chunk_size, d - lo)
            first = 0 if keep else lo
            width = d - first
            # prod[i, a, k, b] = (basis_a basis_b)[i, k] from one GEMM; its
            # transpose is basis_b basis_a, so the bracket is prod minus that
            left = mats[lo : lo + size].transpose(1, 0, 2).reshape(n * size, n)
            prod = (left @ right[:, :, first:].reshape(n, n * width)).reshape(n, size, n, width)
            brackets = (prod[jj, :, ii] - prod[ii, :, jj]).reshape(-1, size * width)  # read off pairs
            del prod
            part = coeffs @ brackets
            if keep:
                consts[lo : lo + size] = part.T.reshape(size, d, d)
            brackets -= coeffs.T @ part
            defect = max(defect, float(np.sqrt(np.sum(np.square(brackets, out=brackets), axis=0)).max()))
        return consts, defect


def _algebra_key(algebra: HolonomyAlgebra) -> tuple:
    """What a result built from an algebra's basis depends on: the space's
    structure key (the structure sets the characters) and the bytes of
    coeff_matrix, never the name, so u(3) on two complex structures, or equal
    rows on two structures, key apart.  Read as `HolonomyAlgebra.key`."""
    return (algebra.space.structure_key, algebra.coeff_matrix.tobytes())


# ---------------------------------------------------------------------------
# constructors


def so_algebra(space: EuclideanSpace) -> HolonomyAlgebra:
    """The full rotation algebra; the bivector basis itself."""
    d = space.bivector_dim
    return HolonomyAlgebra(space, f"so({space.n})", np.eye(d))


def u_algebra(space: EuclideanSpace) -> HolonomyAlgebra:
    """Bivectors commuting with the complex structure J; dimension (n/2)^2."""
    if space.kind != "kaehler":
        raise GeometryError("u_algebra needs a Kaehler space")
    rows = _commutant_rows(space)
    m = space.m
    if rows.shape[0] != m * m:
        raise GeometryError(
            f"unitary algebra has dimension {rows.shape[0]}, expected {m * m}"
        )
    return HolonomyAlgebra(space, f"u({m})", rows)


def sp_sp1_algebra(space: EuclideanSpace) -> HolonomyAlgebra:
    """Symplectic algebra plus the quaternionic line, inside so(4m).

    The first block commutes with all of I, J, K; the last three rows are
    the normalized parallel 2-forms, the structures read as bivectors.  These
    are automatically orthogonal to the commuting block, and like its rows
    they lie on the pairs of one character (0, pairs in a quaternionic 4-plane).
    """
    if space.kind != "qk":
        raise GeometryError("sp_sp1_algebra needs a quaternion-Kaehler space")
    m = space.m
    rows = _commutant_rows(space)
    if rows.shape[0] != m * (2 * m + 1):
        raise GeometryError(
            f"symplectic block has dimension {rows.shape[0]}, expected {m * (2 * m + 1)}"
        )
    pr, pc = space.pair_rows, space.pair_cols
    omegas = np.stack([s[pc, pr] / np.sqrt(2 * m) for s in space.structures])
    return HolonomyAlgebra(space, f"sp({m})+sp(1)", np.vstack([rows, omegas]))


# Short holonomy tags, case-insensitive, and the space kind each one names.
HOLONOMY_TAGS = {
    "generic": "generic", "so": "generic", "weyl": "generic",
    "kaehler": "kaehler", "u": "kaehler", "bochner": "kaehler",
    "qk": "qk", "sp": "qk", "sp_sp1": "qk",
}


def holonomy_kind(name: str) -> str:
    """Space kind of a holonomy tag (HOLONOMY_TAGS), or GeometryError."""
    kind = HOLONOMY_TAGS.get(name.lower())
    if kind is None:
        raise GeometryError(f"unknown holonomy tag {name!r}")
    return kind


def by_name(space: EuclideanSpace, name: str) -> HolonomyAlgebra:
    """Holonomy algebra of a tag: so(n), u(m) or sp(m)+sp(1) by the kind it
    names in HOLONOMY_TAGS.

    The library's one route to an algebra.  Each constructor runs once per
    space and kind (`_algebra`), never per name; the algebra is shared
    between callers and its arrays are read-only.
    """
    return _algebra(space, holonomy_kind(name))


@_shared
def _algebra(space: EuclideanSpace, kind: str) -> HolonomyAlgebra:
    """The constructor of a space kind applied to the space, looked up at
    call time."""
    return {"generic": so_algebra, "kaehler": u_algebra, "qk": sp_sp1_algebra}[kind](space)


# ---------------------------------------------------------------------------
# restriction of operators


def project(op: CurvatureOperator, algebra: HolonomyAlgebra) -> CurvatureOperator:
    """Restrict a full bivector operator to the subalgebra: the one source of
    restricted operators.  A tensor comes in as `tensor.to_operator(rm)`;
    anything else, or an algebra on another R^n, raises GeometryError
    (`tensor._full_operator`).  c M c^T is a fresh array, symmetric to
    rounding, and the spectrum solves its symmetric part: it is frozen in
    place and wrapped (`tensor._wrap`), with no copy and no symmetry scan."""
    _full_operator(op, algebra, "projection needs")
    c = algebra.coeff_matrix
    matrix = c @ op.matrix @ c.T
    _freeze(matrix)
    return _wrap(CurvatureOperator, space=op.space, matrix=matrix, algebra=algebra)


def complement_mass(op: CurvatureOperator, algebra: HolonomyAlgebra):
    """Frobenius norm of the part of a full bivector operator not supported
    on the subalgebra; zero iff the algebra is invariant and the complement
    is annihilated.  A float, or a (T,) array for an operator on a stack of
    trials.  The supported part is c^T (c M c^T) c, through the d x d
    restriction: no D x D projector is formed.  Its input is checked as in
    project."""
    _full_operator(op, algebra, "complement mass needs")
    c = algebra.coeff_matrix
    rest = c.T @ (c @ op.matrix @ c.T) @ c
    np.subtract(op.matrix, rest, out=rest)
    return _value(_norm(rest, 2))
