"""Model curvature tensors and irreducible curvature decompositions.

Models are normalized so the familiar closed forms hold exactly:

* sphere(n):        operator 2 * identity, scalar curvature 2n(n-1);
* const_hol(m):     the unique unitary-invariant tensor with the given
                    scalar curvature on R^{2m};
* hp(m):            symmetric-space operator with eigenvalues {4m, 4, 0},
                    squared operator norm 16m(5m+1), scalar 16m(m+2);
* grassmannian(p,q): plane-Grassmannian tensor, eigenvalues {p, q, 0};
* wolf(m):          grassmannian(m, 4) written on the quaternionic space,
                    restricted spectrum {m, 4, 0} over its holonomy algebra.

Each decomposition routine returns the orthogonal invariant pieces and is
paired with an independent route (explicit formula vs subtraction) that the
test suite plays against each other.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from .euclid import (
    EuclideanSpace,
    GeometryError,
    generic,
    kaehler as kaehler_space,
    quaternion_kaehler,
)
from .holonomy import HolonomyAlgebra, complement_mass, sp_sp1_algebra
from .tensor import (
    CurvatureTensor,
    _kn_matrix,
    _kn_tables,
    _pair_outer,
    _quad_pairs,
    ricci,
    scalar,
    to_operator,
)


# ---------------------------------------------------------------------------
# model spaces


def _read_only(rm: CurvatureTensor) -> CurvatureTensor:
    """Freeze a model that functools.cache shares between all callers."""
    rm.matrix.flags.writeable = False
    return rm


@functools.cache
def sphere(n: int, radius: float = 2**-0.5) -> CurvatureTensor:
    """Round-sphere tensor; the default radius makes the operator 2 * id."""
    if n < 2:
        raise GeometryError("sphere models need dimension at least 2")
    if radius <= 0:
        raise GeometryError("radius must be positive")
    space = generic(n)
    g = np.eye(n)
    return _read_only(CurvatureTensor(space, _kn_matrix(g, g) / (2 * radius**2)))


@functools.cache
def const_hol(m: int, scal: float | None = None) -> CurvatureTensor:
    """Constant-holomorphic-curvature tensor on the standard Kaehler R^{2m}.

    The default scalar curvature 4m(m+1) gives operator eigenvalues
    {2(m+1), 2, 0}.  The trace-free middle and Bochner parts vanish, which
    pins this model as the scalar piece of the unitary decomposition.
    """
    if m < 1:
        raise GeometryError("const_hol needs at least one complex plane")
    space = kaehler_space(m)
    if scal is None:
        scal = 4.0 * m * (m + 1)
    g = np.eye(2 * m)
    omega = space.J.T  # bilinear form of the parallel 2-form
    unit = (
        0.5 * _kn_matrix(g, g)
        + 0.5 * _kn_matrix(omega, omega)
        + 2.0 * _pair_outer(omega, omega)
    )
    return _read_only(CurvatureTensor(space, (scal / (4.0 * m * (m + 1))) * unit))


def _conjugation_on_bivectors(space: EuclideanSpace, s: np.ndarray) -> np.ndarray:
    """Matrix of xi -> s mat(xi) s^T on the pair basis."""
    # entry (xy, zw) is s[y, w] s[x, z] - s[y, z] s[x, w]
    xz, yw, xw, yz = _kn_tables(space.n)
    s = s.ravel()
    return s[yw] * s[xz] - s[yz] * s[xw]


@functools.cache
def hp(m: int) -> CurvatureTensor:
    """Quaternionic projective model: identity plus the three structure
    conjugations plus twice the projections onto the parallel forms."""
    space = quaternion_kaehler(m)
    d = space.bivector_dim
    mat = np.eye(d)
    for s in (space.I, space.J, space.K):
        mat += _conjugation_on_bivectors(space, s)
    from .holonomy import quaternion_frame

    frame = quaternion_frame(space)
    for L in ("I", "J", "K"):
        w = frame.omega[L].coeffs
        mat += 2.0 * np.outer(w, w)
    return _read_only(CurvatureTensor(space, mat))


@functools.cache
def grassmannian(p: int, q: int) -> CurvatureTensor:
    """Curvature tensor of the Grassmannian of p-planes in (p+q)-space.

    The tangent space is the q x p matrices with the trace metric; the basis
    matrix with a one in row i, column a sits at flat index i*p + a.
    """
    if p < 1 or q < 1:
        raise GeometryError("grassmannian needs positive plane dimensions")
    n = p * q
    iq = np.eye(q)
    ip = np.eye(p)
    t8 = (
        -np.einsum("kj,il,ab,cd->iajbkcld", iq, iq, ip, ip)
        + np.einsum("ki,jl,ab,cd->iajbkcld", iq, iq, ip, ip)
        - np.einsum("ij,kl,bc,ad->iajbkcld", iq, iq, ip, ip)
        + np.einsum("ij,kl,ac,bd->iajbkcld", iq, iq, ip, ip)
    )
    return _read_only(CurvatureTensor.from_components(generic(n), t8.reshape(n, n, n, n)))


@functools.cache
def wolf(m: int) -> CurvatureTensor:
    """grassmannian(m, 4) transported onto the quaternion-Kaehler R^{4m}.

    Row i of a tangent matrix feeds the i-th member of the quadruple
    (f, If, Jf, Kf) of block j, so flat index i*m + j maps to coordinate
    4j + i.
    """
    if m < 2:
        raise GeometryError("the four-plane model needs m >= 2")
    base = grassmannian(m, 4).components
    n = 4 * m
    sigma = np.empty(n, dtype=np.intp)
    for i in range(4):
        for j in range(m):
            sigma[4 * j + i] = i * m + j
    space = quaternion_kaehler(m)
    return _read_only(CurvatureTensor.from_components(space, base[np.ix_(sigma, sigma, sigma, sigma)]))


# ---------------------------------------------------------------------------
# decompositions


@dataclass
class CurvatureDecomposition:
    """Orthogonal splitting of a curvature tensor into invariant parts."""

    source: CurvatureTensor
    kind: str
    parts: dict = field(default_factory=dict)
    coefficients: dict = field(default_factory=dict)

    def total(self) -> CurvatureTensor:
        arrays = [p.matrix for p in self.parts.values()]
        return CurvatureTensor(self.source.space, sum(arrays), validate=False)

    def residual(self) -> float:
        """Component-norm distance between the input and the sum of parts,
        twice the Frobenius distance of the operators."""
        return 2.0 * float(np.linalg.norm(self.source.matrix - self.total().matrix))

    def max_cross_inner(self) -> float:
        """Largest pairwise component inner product between distinct parts."""
        vals = [0.0]
        items = list(self.parts.values())
        for a, b in itertools.combinations(items, 2):
            vals.append(abs(a.inner(b)))
        return max(vals)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "coefficients": {k: float(v) for k, v in self.coefficients.items()},
            "part_norms_sq": {k: p.norm_sq() for k, p in self.parts.items()},
            "residual": self.residual(),
            "max_cross_inner": self.max_cross_inner(),
        }


def weyl_decompose(rm: CurvatureTensor) -> CurvatureDecomposition:
    """Scalar + traceless-Ricci + Weyl splitting; needs dimension >= 4."""
    n = rm.space.n
    if n < 4:
        raise GeometryError("the Weyl part only exists in dimension >= 4")
    g = np.eye(n)
    sc = scalar(rm)
    ric0 = ricci(rm) - (sc / n) * g
    scal_arr = (sc / (2.0 * n * (n - 1))) * _kn_matrix(g, g)
    ricci_arr = _kn_matrix(ric0, g) / (n - 2.0)
    weyl_arr = rm.matrix - scal_arr - ricci_arr
    space = rm.space
    return CurvatureDecomposition(
        source=rm,
        kind="generic",
        parts={
            "scalar_part": CurvatureTensor(space, scal_arr),
            "ric0_part": CurvatureTensor(space, ricci_arr),
            "weyl": CurvatureTensor(space, weyl_arr),
        },
        coefficients={"scalar": sc / (2.0 * n * (n - 1)), "ricci": 1.0 / (n - 2.0)},
    )


def _check_kaehler_invariance(rm: CurvatureTensor, rtol: float = 1e-9):
    """Raise unless T[x, y, z, w] = sum_ab J[a, x] J[b, y] T[a, b, z, w]: on
    the operator, M = C M with C the matrix of xi -> J^T mat(xi) J."""
    conj = _conjugation_on_bivectors(rm.space, rm.space.J.T) @ rm.matrix
    scale = 1.0 + float(np.abs(rm.matrix).max(initial=0.0))
    if float(np.abs(rm.matrix - conj).max(initial=0.0)) > rtol * scale:
        raise GeometryError("tensor is not invariant under the complex structure")


def bochner_decompose(rm: CurvatureTensor) -> CurvatureDecomposition:
    """Unitary-invariant splitting on a Kaehler space.

    Parts: the constant-holomorphic piece carrying the scalar curvature, the
    traceless-Ricci piece, and the totally trace-free remainder.  Input must
    be invariant under the complex structure.
    """
    space = rm.space
    if space.kind != "kaehler":
        raise GeometryError("bochner_decompose needs a Kaehler space")
    _check_kaehler_invariance(rm)
    n, m = space.n, space.m
    g = np.eye(n)
    omega = space.J.T
    sc = scalar(rm)
    ric0 = ricci(rm) - (sc / n) * g
    rho0 = space.J.T @ ric0

    c1 = sc / (4.0 * m * (m + 1))
    c2 = 1.0 / (2.0 * (m + 2))
    unit = (
        0.5 * _kn_matrix(g, g)
        + 0.5 * _kn_matrix(omega, omega)
        + 2.0 * _pair_outer(omega, omega)
    )
    middle = c2 * (
        _kn_matrix(ric0, g)
        + _kn_matrix(rho0, omega)
        + 2.0 * _pair_outer(rho0, omega)
        + 2.0 * _pair_outer(omega, rho0)
    )
    scal_arr = c1 * unit
    bochner_arr = rm.matrix - scal_arr - middle
    return CurvatureDecomposition(
        source=rm,
        kind="kaehler",
        parts={
            "scalar_part": CurvatureTensor(space, scal_arr),
            "ric0_part": CurvatureTensor(space, middle),
            "bochner": CurvatureTensor(space, bochner_arr),
        },
        coefficients={"scalar": c1, "ricci": c2},
    )


def bochner_explicit(rm: CurvatureTensor) -> CurvatureTensor:
    """Trace-free part computed from the closed formula with full traces.

    Independent of bochner_decompose: uses the raw Ricci contraction and a
    different constant grouping; agreement of the two routes is a test
    invariant, not a code path.
    """
    space = rm.space
    if space.kind != "kaehler":
        raise GeometryError("bochner_explicit needs a Kaehler space")
    _check_kaehler_invariance(rm)
    n, m = space.n, space.m
    g = np.eye(n)
    omega = space.J.T
    sc = scalar(rm)
    ric = ricci(rm)
    rho = space.J.T @ ric
    c2 = 1.0 / (2.0 * (m + 2))
    c3 = sc / (4.0 * (m + 1) * (m + 2))
    arr = (
        rm.matrix
        - c2
        * (
            _kn_matrix(ric, g)
            + _kn_matrix(rho, omega)
            + 2.0 * _pair_outer(rho, omega)
            + 2.0 * _pair_outer(omega, rho)
        )
        + c3
        * (
            0.5 * _kn_matrix(g, g)
            + 0.5 * _kn_matrix(omega, omega)
            + 2.0 * _pair_outer(omega, omega)
        )
    )
    return CurvatureTensor(space, arr)


def qk_decompose(
    rm: CurvatureTensor, algebra: HolonomyAlgebra | None = None
) -> CurvatureDecomposition:
    """Split a quaternion-Kaehler tensor into the model multiple and the
    trace-free remainder.

    The operator must be supported on the quaternionic holonomy algebra;
    its complement mass is checked against 1e-8 relative.
    """
    space = rm.space
    if space.kind != "qk":
        raise GeometryError("qk_decompose needs a quaternion-Kaehler space")
    if algebra is None:
        algebra = sp_sp1_algebra(space)
    op = to_operator(rm)
    mass = complement_mass(op, algebra)
    if mass > 1e-8 * (1.0 + float(np.abs(op.matrix).max(initial=0.0))):
        raise GeometryError(
            f"operator leaks off the holonomy algebra (mass {mass:.2e})"
        )
    m = space.m
    model = hp(m)
    c = scalar(rm) / (16.0 * m * (m + 2))
    scal_part = c * model
    rest = rm - scal_part
    return CurvatureDecomposition(
        source=rm,
        kind="qk",
        parts={
            "hp_multiple": CurvatureTensor(space, scal_part.matrix),
            "hyperkaehler_part": CurvatureTensor(space, rest.matrix),
        },
        coefficients={"scalar": c},
    )


# ---------------------------------------------------------------------------
# random tensors supported on an algebra


_KERNEL_CACHE: dict = {}
_KERNEL_LOCK = threading.Lock()

# Rank rule of `_null_spaces`: a Gram eigenvalue at or below RANK_RTOL times
# the largest one over all blocks is null.  The Bianchi constraints have
# nonzero singular values of order 1 and null ones at rounding level
# (<= 1e-15), so no eigenvalue may fall inside (GAP_LO, GAP_HI) times the
# largest: there the rule would decide the rank by rounding.
RANK_RTOL = 1e-8
GAP_LO, GAP_HI = 1e-12, 1e-4
# On an algebra that is a sum of character pieces, its coefficients restricted
# to the pairs of one character have singular values 1 and, past the piece's
# dimension, rounding-level ones; those below _ADAPT_TOL count as zero.
_ADAPT_TOL = 1e-10
_BACK_MAP_ROWS = 64  # kernel rows per chunk of the map back to coeff_matrix


@functools.cache
def _packed_sym(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed coordinates x -> sum_s x_s E_s on symmetric d x d matrices.

    s runs over the pairs (a, b), a <= b, in `triu_indices` order, and
    E_s = w_s (e_a e_b^T + e_b e_a^T) with w_s = 1/2 on the diagonal and
    1/sqrt(2) off it, so the E_s are Frobenius-orthonormal.  Returns the
    read-only arrays (a, b, w).
    """
    a, b = np.triu_indices(d)
    w = np.where(a == b, 0.5, np.sqrt(0.5))
    for arr in (a, b, w):
        arr.flags.writeable = False
    return a, b, w


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

    Coordinates x and y are linked when a parallel structure has a nonzero
    (x, y) entry.  A sign vector that is constant on each connected component
    commutes with the structures, so it normalizes the holonomy algebra, and
    it acts on e_x ^ e_y by the product of the two signs.  Bit c stands for
    component c; a pair's character is the XOR of its coordinates' bits.
    With more than 64 components every character is 0: one block.
    """
    n = space.n
    link = np.eye(n, dtype=bool)
    for s in (space.structure.I, space.structure.J, space.structure.K):
        if s is not None:
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


def _adapted_basis(coeff: np.ndarray, chars: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal rows spanning the row space of coeff, each supported on
    the pairs of one character, and their characters.

    The rows of one character span the row space of coeff restricted to its
    pairs.  The algebra is the direct sum of these pieces exactly when their
    dimensions add up to its own; otherwise this returns None.  Characters
    with equally many pairs share one batched SVD.
    """
    d, big_d = coeff.shape
    order, starts, counts, values = _runs(chars)
    rows, row_chars = [], []
    by_size, size_starts, size_counts, sizes = _runs(counts)
    for first, count, size in zip(size_starts, size_counts, sizes):
        runs = by_size[first : first + count]
        cols = order[starts[runs][:, None] + np.arange(size)]
        _, sv, vh = np.linalg.svd(coeff[:, cols].transpose(1, 0, 2), full_matrices=False)
        run, rank = np.nonzero(sv > _ADAPT_TOL)
        piece = np.zeros((run.size, big_d))
        piece[np.arange(run.size)[:, None], cols[run]] = vh[run, rank]
        rows.append(piece)
        row_chars.append(values[runs][run])
    if sum(piece.shape[0] for piece in rows) != d:
        return None
    return np.concatenate(rows), np.concatenate(row_chars)


def _bianchi_blocks(algebra: HolonomyAlgebra):
    """Gram matrices of the Bianchi constraints on Sym^2 of the algebra,
    split into exact blocks.

    Returns (u, blocks, free).  The constraints are written over an adapted
    basis B = u c of the algebra (`_adapted_basis`; u is orthogonal d x d),
    in the packed coordinates of `_packed_sym` over B: the constraint row of
    the packed pair s = (a, b) at the quadruple i < j < k < l is the Bianchi
    sum M[ij,kl] + M[jk,il] - M[ik,jl] of M = B^T E_s B.  B[a] lives on the
    pairs of one character, so the row vanishes at every quadruple whose
    character is not char(a) XOR char(b): the rows of one character meet
    only the quadruples of that character.  blocks lists (positions, grams):
    grams (count, R, R) are the Gram matrices rows @ rows.T of count blocks
    of R rows each, positions (count, R) their packed indices; blocks of one
    shape are built together.  free holds the packed pairs that no quadruple
    constrains.  An algebra that is not a sum of character pieces gets one
    character, so one block.
    """
    space, c = algebra.space, algebra.coeff_matrix
    pair_chars = _pair_characters(space)
    adapted = _adapted_basis(c, pair_chars)
    if adapted is None:
        pair_chars = np.zeros_like(pair_chars)
        adapted = _adapted_basis(c, pair_chars)
    basis, gen_chars = adapted
    pa, pb, w = _packed_sym(algebra.dim)
    quad = _quad_pairs(space.n)
    s_order, s_starts, s_counts, s_values = _runs(gen_chars[pa] ^ gen_chars[pb])
    q_order, q_starts, q_counts, q_values = _runs(pair_chars[quad[0]] ^ pair_chars[quad[1]])
    at = np.searchsorted(q_values, s_values)
    hit = at < q_values.size
    hit[hit] = q_values[at[hit]] == s_values[hit]
    runs = np.flatnonzero(hit)
    shape_order, shape_starts, shape_counts, _ = _runs(
        s_counts[runs] * (q_counts.max(initial=0) + 1) + q_counts[at[runs]]
    )
    blocks = []
    for start, count in zip(shape_starts, shape_counts):
        group = runs[shape_order[start : start + count]]
        pos = s_order[s_starts[group][:, None] + np.arange(s_counts[group[0]])]
        quads = q_order[q_starts[at[group]][:, None] + np.arange(q_counts[at[group[0]]])]
        # basis[:, pair] at the blocks' quadruples is (d, count, K); indexed
        # by (generator, block) it gives contiguous runs of K
        blk = np.arange(group.size)[:, None]
        at_a, at_b = (pa[pos], blk), (pb[pos], blk)
        rows = np.zeros(pos.shape + quads.shape[1:])
        for first, second, accumulate in ((0, 1, np.add), (2, 3, np.add), (4, 5, np.subtract)):
            x, y = basis[:, quad[first][quads]], basis[:, quad[second][quads]]
            accumulate(rows, x[at_a] * y[at_b], out=rows)
            accumulate(rows, x[at_b] * y[at_a], out=rows)
        rows *= w[pos][:, :, None]
        blocks.append((pos, rows @ rows.transpose(0, 2, 1)))
    return basis @ c.T, blocks, s_order[np.repeat(~hit, s_counts)]


def _null_spaces(grams: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Null spaces of blocks of constraints under one rank rule.

    grams[g] has shape (count, R, R): the Gram matrices rows @ rows.T of
    count blocks of R constraint rows.  The null space of a block,
    {x : x @ rows = 0}, is read off `eigh` of its Gram matrix.  One rule
    covers all blocks: an eigenvalue is null when it is at most RANK_RTOL
    times the largest eigenvalue of any block, and GeometryError is raised
    when any eigenvalue lies inside the band (GAP_LO, GAP_HI) times that
    largest one.  Returns, per entry of grams, the orthonormal null rows
    (t, R) and the block of each row (t,).
    """
    spectra = [np.linalg.eigh(g) for g in grams]
    top = max((float(w.max()) for w, _ in spectra if w.size), default=0.0)
    for w, _ in spectra:
        borderline = (w > GAP_LO * top) & (w < GAP_HI * top)
        if borderline.any():
            raise GeometryError(
                f"Bianchi constraint spectrum has no clear gap: eigenvalue "
                f"{w[borderline][0]:.3e} against largest {top:.3e}"
            )
    out = []
    for w, v in spectra:
        owner, col = np.nonzero(w <= RANK_RTOL * top)
        out.append((v[owner, :, col], owner))
    return out


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows, shape (k, S), spanning {x : x @ rows = 0}, rows (S, Q):
    `_null_spaces` of a single block."""
    return _null_spaces([(rows @ rows.T)[None]])[0][0]


def _bianchi_kernel_basis(algebra: HolonomyAlgebra) -> np.ndarray:
    """Orthonormal basis of the symmetric operators on the algebra whose
    full-space extension satisfies the Bianchi identity: shape (k, S), in the
    packed coordinates of `_packed_sym`, S = d(d+1)/2.

    The Bianchi sum of a pair-symmetric array is totally antisymmetric, so
    it vanishes iff it vanishes at strictly increasing index quadruples;
    each quadruple contributes one linear constraint.  The constraints split
    into exact blocks by sign-flip characters (`_bianchi_blocks`), and each
    block's null space comes from `eigh` of its Gram matrix (`_null_spaces`).
    The change to the adapted basis is orthogonal on Sym^2, so the block
    spectra together are the spectrum of the unblocked Gram matrix, and the
    rank rule reads them against their one largest eigenvalue: an eigenvalue
    is null when it is at most RANK_RTOL times the largest, and the build
    raises GeometryError when any eigenvalue lies inside the gap band
    (GAP_LO, GAP_HI) times the largest, so a borderline eigenvalue cannot
    silently change the dimension.  The null rows, plus a unit row for each
    unconstrained packed pair, go back to the packed coordinates of
    coeff_matrix by the congruence X -> u^T X u, _BACK_MAP_ROWS rows at a
    time.  The packed coordinates are Frobenius-orthonormal, so any
    orthonormal basis of the kernel gives the same standard Gaussian on the
    curvature space.
    Cached on what the basis depends on, the dimension and the algebra's
    coefficient rows, so algebras that share a name (u(3) on two complex
    structures) get their own bases.
    """
    space = algebra.space
    key = (space.n, algebra.coeff_matrix.tobytes())
    with _KERNEL_LOCK:
        hit = _KERNEL_CACHE.get(key)
    if hit is not None:
        return hit

    u, blocks, free = _bianchi_blocks(algebra)
    nulls = _null_spaces([grams for _, grams in blocks])
    # the kernel rows over the adapted basis, sparse: row r holds the values
    # val[row_of == r] at the packed indices pos[row_of == r]
    pos = [p[owner] for (p, _), (_, owner) in zip(blocks, nulls)] + [free[:, None]]
    val = [v for v, _ in nulls] + [np.ones((free.size, 1))]
    width = np.concatenate([np.full(p.shape[0], p.shape[1]) for p in pos])
    k = width.size
    row_of = np.repeat(np.arange(k), width)
    pos = np.concatenate([p.ravel() for p in pos])
    val = np.concatenate([v.ravel() for v in val])
    d = algebra.dim
    a, b, w = _packed_sym(d)
    basis = np.empty((k, a.size))
    for lo in range(0, k, _BACK_MAP_ROWS):
        i, j = np.searchsorted(row_of, [lo, lo + _BACK_MAP_ROWS])
        r, p, x = row_of[i:j] - lo, pos[i:j], val[i:j] * w[pos[i:j]]
        sym = np.zeros((min(_BACK_MAP_ROWS, k - lo), d, d))
        sym[r, a[p], b[p]] = x
        sym[r, b[p], a[p]] += x
        basis[lo : lo + _BACK_MAP_ROWS] = (u.T @ sym @ u)[:, a, b] * (2.0 * w)

    with _KERNEL_LOCK:
        _KERNEL_CACHE[key] = basis
    return basis


def curvature_space_dim(algebra: HolonomyAlgebra) -> int:
    """Dimension of the curvature tensors supported on the algebra."""
    return _bianchi_kernel_basis(algebra).shape[0]


def random_algebra_curvature(
    algebra: HolonomyAlgebra,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> CurvatureTensor:
    """Gaussian sample from the curvature tensors supported on the algebra."""
    if rng is None:
        rng = np.random.default_rng(seed)
    basis = _bianchi_kernel_basis(algebra)
    coeffs = rng.standard_normal(basis.shape[0])
    a, b, w = _packed_sym(algebra.dim)
    x = w * (coeffs @ basis)
    s = np.zeros((algebra.dim, algebra.dim))
    s[a, b] = x
    s[b, a] += x
    c = algebra.coeff_matrix
    return CurvatureTensor(algebra.space, c.T @ s @ c)
