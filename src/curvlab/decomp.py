"""Model curvature tensors and irreducible curvature decompositions.

Models are normalized so the familiar closed forms hold exactly:

* sphere(n):        operator 2 * identity, scalar curvature 2n(n-1);
* const_hol(m):     the unique unitary-invariant tensor with scalar
                    curvature 4m(m+1) on R^{2m};
* hp(m):            symmetric-space operator with eigenvalues {4m, 4, 0},
                    squared operator norm 16m(5m+1), scalar 16m(m+2);
* grassmannian(p,q): plane-Grassmannian tensor, eigenvalues {p, q, 0};
* wolf(m):          grassmannian(m, 4) written on the quaternionic space,
                    restricted spectrum {m, 4, 0} over its holonomy algebra.

Each decomposition routine returns the orthogonal invariant pieces and is
paired with an independent route (explicit formula vs subtraction) that the
test suite plays against each other.  On a tensor that holds a (T, D, D)
stack of trials (see `tensor`) every routine runs once for the stack: the
parts are stacks, the coefficients, residuals and cross inner products
(T,) arrays, each trial's entry the one-trial value to the bit, and the
Kaehler-invariance and leak checks hold every trial to euclid._first_over's
rule, which a NaN fails.

random_algebra_curvature samples the curvature tensors supported on a
holonomy algebra from an orthonormal basis of the Bianchi kernel on Sym^2 of
the algebra.  The kernel splits into exact blocks by sign-flip characters,
and it is cached as those blocks: per run of equal blocks, their packed
positions and null rows (`_bianchi_kernel_basis`).  No dense (k, S) basis is
formed; a sample is one batched product per run.  Given a count it draws a
stack of that many trials from the caller's Generator, trial t its t-th
one-tensor draw.

Everything here that depends only on a structure or an algebra is built once
and shared read-only, so a decomposition or a sample computes only what
depends on its input: the models (functools.cache), g (*) g
(`tensor._kn_metric`, per n), and through `euclid._shared`, keyed on the
space or algebra itself, the model of a structure (`structure_model`, whose
matrix is the Kaehler unit of the Bochner routes), the J-conjugation on
bivectors that checks Kaehler invariance (`_kaehler_conjugation`) and the
Bianchi kernel (`_bianchi_kernel_basis`).  Spaces and algebras compare by
value (`EuclideanSpace.structure_key`, `HolonomyAlgebra.key`), never by name.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .euclid import (
    GeometryError,
    _first_over,
    _shared,
    _sign_fix,
    generic,
    kaehler as kaehler_space,
    quaternion_kaehler,
)
from .holonomy import (
    _CHUNK_BYTES,
    HolonomyAlgebra,
    _runs,
    complement_mass,
)
from .tensor import (
    CurvatureTensor,
    _conjugation_on_bivectors,
    _freeze,
    _kn_matrix,
    _kn_metric,
    _lead,
    _norm,
    _pair_lookup,
    _pair_outer,
    _per_trial,
    _quad_pairs,
    _value,
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
def sphere(n: int) -> CurvatureTensor:
    """Round-sphere tensor: g (*) g, whose operator is exactly 2 * id
    (`tensor._kn_metric`, shared read-only)."""
    if n < 2:
        raise GeometryError("sphere models need dimension at least 2")
    return _read_only(CurvatureTensor(generic(n), _kn_metric(n)))


@functools.cache
def const_hol(m: int) -> CurvatureTensor:
    """Constant-holomorphic-curvature tensor on the standard Kaehler R^{2m}.

    Scalar curvature 4m(m+1), operator eigenvalues {2(m+1), 2, 0}.  The
    trace-free middle and Bochner parts vanish, which pins this model as the
    scalar piece of the unitary decomposition.  The same object as
    structure_model(kaehler(m)).
    """
    if m < 1:
        raise GeometryError("const_hol needs at least one complex plane")
    return structure_model(kaehler_space(m))


@functools.cache
def hp(m: int) -> CurvatureTensor:
    """Quaternionic projective model: identity plus the three structure
    conjugations plus twice the projections onto the parallel forms.  The
    same object as structure_model(quaternion_kaehler(m))."""
    return structure_model(quaternion_kaehler(m))


@_shared
def structure_model(space) -> CurvatureTensor:
    """The model of a space's kind on the space's own structure: the round
    sphere, constant holomorphic curvature on its J, or hp on its I, J, K.

    On the standard structures these are sphere(n), const_hol(m) and hp(m).
    The Kaehler model's matrix is the unit 0.5 g(*)g + 0.5 w(*)w + 2 w(x)w
    of the Bochner routes, w the bilinear form of the parallel 2-form; the
    parallel form of each quaternionic structure L is the bivector L[x, y],
    x < y.  Shared per space, read-only.
    """
    if space.kind == "generic":
        return sphere(space.n)
    if space.kind == "kaehler":
        omega = space.J.T
        mat = (
            0.5 * _kn_metric(space.n)
            + 0.5 * _kn_matrix(omega, omega)
            + 2.0 * _pair_outer(omega, omega)
        )
    else:
        mat = np.eye(space.bivector_dim)
        structs = (space.I, space.J, space.K)
        for s in structs:
            mat += _conjugation_on_bivectors(space, s)
        for s in structs:
            mat += 2.0 * _pair_outer(s, s)
    return _read_only(CurvatureTensor(space, mat))


@functools.cache
def grassmannian(p: int, q: int) -> CurvatureTensor:
    """Curvature tensor of the Grassmannian of p-planes in (p+q)-space.

    The tangent space is the q x p matrices with the trace metric; the basis
    matrix with a one in row i, column a sits at flat index x = i*p + a.  The
    operator is (cols (x) cols) C_rows + (rows (x) rows) C_cols: rows[x, y] =
    [i = j], cols[x, y] = [a = b], C_s the conjugation by s on bivectors.
    """
    if p < 1 or q < 1:
        raise GeometryError("grassmannian needs positive plane dimensions")
    space, x = generic(p * q), np.arange(p * q)
    rows, cols = (np.equal.outer(k, k).astype(float) for k in (x // p, x % p))
    mat = (
        _pair_outer(cols, cols) * _conjugation_on_bivectors(space, rows)
        + _pair_outer(rows, rows) * _conjugation_on_bivectors(space, cols)
    )
    return _read_only(CurvatureTensor(space, mat))


@functools.cache
def wolf(m: int) -> CurvatureTensor:
    """grassmannian(m, 4) transported onto the quaternion-Kaehler R^{4m}.

    Row i of a tangent matrix feeds the i-th member of the quadruple
    (f, If, Jf, Kf) of block j, so coordinate 4j + i reads flat index
    sigma = i*m + j, and a pair that sigma reverses reads with sign -1: a
    product, so a zero read reversed is -0.0.
    """
    if m < 2:
        raise GeometryError("the four-plane model needs m >= 2")
    space = quaternion_kaehler(m)
    sigma = np.arange(4 * m).reshape(4, m).T.ravel()
    a, b = sigma[space.pair_rows], sigma[space.pair_cols]
    at, sign = _pair_lookup(4 * m)[a, b], np.where(a < b, 1.0, -1.0)
    return _read_only(CurvatureTensor(space, np.outer(sign, sign) * grassmannian(m, 4).matrix[np.ix_(at, at)]))


# ---------------------------------------------------------------------------
# decompositions


@dataclass
class CurvatureDecomposition:
    """Orthogonal splitting of a curvature tensor into invariant parts."""

    source: CurvatureTensor
    kind: str
    parts: dict
    coefficients: dict

    def total(self) -> CurvatureTensor:
        arrays = [p.matrix for p in self.parts.values()]
        return CurvatureTensor(self.source.space, sum(arrays), validate=False)

    def residual(self):
        """Component-norm distance between the input and the sum of parts,
        twice the Frobenius distance of the operators; per trial on a
        stack."""
        return _value(2.0 * _norm(self.source.matrix - self.total().matrix, 2))

    def max_cross_inner(self):
        """Largest pairwise component inner product between distinct parts;
        per trial on a stack."""
        vals = [0.0]
        items = list(self.parts.values())
        for a, b in itertools.combinations(items, 2):
            vals.append(abs(a.inner(b)))
        return _value(np.max(np.broadcast_arrays(*vals), axis=0))

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
    ric0 = ricci(rm) - _per_trial(sc / n) * g
    scal_part = sphere(n) * (sc / (2.0 * n * (n - 1)))
    ric0_part = CurvatureTensor(rm.space, _kn_matrix(ric0, g) / (n - 2.0))
    return CurvatureDecomposition(
        source=rm,
        kind="generic",
        parts={"scalar_part": scal_part, "ric0_part": ric0_part, "weyl": rm - scal_part - ric0_part},
        coefficients={"scalar": sc / (2.0 * n * (n - 1)), "ricci": 1.0 / (n - 2.0)},
    )


@_shared
def _kaehler_conjugation(space) -> np.ndarray:
    """Matrix of xi -> J^T mat(xi) J on the pair basis, read-only."""
    conj = _conjugation_on_bivectors(space, space.J.T)
    _freeze(conj)
    return conj


def _check_kaehler_invariance(rm: CurvatureTensor):
    """Raise unless T[x, y, z, w] = sum_ab J[a, x] J[b, y] T[a, b, z, w]: on
    the operator, M = C M with C the matrix of xi -> J^T mat(xi) J.  Every
    trial of a stack at 1e-9 by euclid._first_over's rule."""
    conj = _kaehler_conjugation(rm.space)

    def defect(mat):
        moved = conj @ mat
        return (np.abs(np.subtract(mat, moved, out=moved), out=moved).max(axis=(-2, -1)),)

    if _first_over(rm.matrix, defect, 1e-9):
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
    ric0 = ricci(rm) - _per_trial(sc / n) * g
    rho0 = space.J.T @ ric0

    c1 = sc / (4.0 * m * (m + 1))
    c2 = 1.0 / (2.0 * (m + 2))
    middle = c2 * (
        _kn_matrix(ric0, g)
        + _kn_matrix(rho0, omega)
        + 2.0 * _pair_outer(rho0, omega)
        + 2.0 * _pair_outer(omega, rho0)
    )
    scal_part = structure_model(space) * c1
    ric0_part = CurvatureTensor(space, middle)
    return CurvatureDecomposition(
        source=rm,
        kind="kaehler",
        parts={"scalar_part": scal_part, "ric0_part": ric0_part, "bochner": rm - scal_part - ric0_part},
        coefficients={"scalar": c1, "ricci": c2},
    )


def bochner_explicit(rm: CurvatureTensor) -> CurvatureTensor:
    """Trace-free part computed from the closed formula with full traces.

    Independent of bochner_decompose: uses the raw Ricci contraction and a
    different constant grouping; agreement of the two routes is a test
    invariant, not a code path, so it checks its own input for invariance.
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
        + _per_trial(c3) * structure_model(space).matrix
    )
    return CurvatureTensor(space, arr)


def qk_decompose(rm: CurvatureTensor, algebra: HolonomyAlgebra) -> CurvatureDecomposition:
    """Split a quaternion-Kaehler tensor into the model multiple and the
    trace-free remainder.

    The operator must be supported on the quaternionic holonomy algebra:
    its complement mass is checked at 1e-8 by euclid._first_over's rule,
    and the first trial of a stack that leaks is reported.
    """
    space = rm.space
    if space.kind != "qk":
        raise GeometryError("qk_decompose needs a quaternion-Kaehler space")
    leak = _first_over(rm.matrix, lambda m: (
        complement_mass(to_operator(CurvatureTensor(space, m, validate=False)), algebra),), 1e-8)
    if leak:
        raise GeometryError(f"operator leaks off the holonomy algebra (mass {leak[2]:.2e})")
    m = space.m
    model = structure_model(space)
    c = scalar(rm) / (16.0 * m * (m + 2))
    scal_part = c * model
    return CurvatureDecomposition(
        source=rm,
        kind="qk",
        parts={"hp_multiple": scal_part, "hyperkaehler_part": rm - scal_part},
        coefficients={"scalar": c},
    )


def pure_multiple(rest_sq, norm_sq):
    """Whether a quaternionic tensor of squared norm norm_sq is a pure model
    multiple: the squared norm rest_sq of its trace-free part, from
    qk_decompose, is at most 1e-10 max(1, norm_sq).  Both norms in the
    operator convention (component norm / 4); a bool, or (T,) on a stack."""
    return rest_sq <= 1e-10 * np.maximum(1.0, norm_sq)


# ---------------------------------------------------------------------------
# random tensors supported on an algebra


# Rank rule of `_null_spaces`: a Gram eigenvalue at or below RANK_RTOL times
# the largest one over all blocks is null.  The Bianchi constraints have
# nonzero singular values of order 1 and null ones at rounding level
# (<= 1e-15), so no eigenvalue may fall inside (GAP_LO, GAP_HI) times the
# largest: there the rule would decide the rank by rounding.
RANK_RTOL = 1e-8
GAP_LO, GAP_HI = 1e-12, 1e-4
# Floor on the gaps of the compressed form in `_null_spaces`, relative to its
# range sqrt(R) - 1: Gram noise of 1e-15 turns the null rows by about 1e-15
# over the gap, so above it they are fixed to 1e-7.  Worst gap over
# sp(2..7)+sp(1), u(2..6) and so(4..12): 7.4e-8, at sp(7)+sp(1).
FORM_GAP = 1e-8


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


def _bianchi_blocks(algebra: HolonomyAlgebra):
    """Gram matrices of the Bianchi constraints on Sym^2 of the algebra,
    split into exact blocks.

    Returns (blocks, free).  The constraints are written in the packed
    coordinates of `_packed_sym` over the rows c of coeff_matrix: the
    constraint row of the packed pair s = (a, b) at the quadruple
    i < j < k < l is the Bianchi sum M[ij,kl] + M[jk,il] - M[ik,jl] of
    M = c^T E_s c.  The constructors of `holonomy` put each row c[a] on the
    pairs of one character, so the row of s vanishes at every quadruple whose
    character is not char(a) XOR char(b): the rows of one character meet
    only the quadruples of that character.  blocks lists (positions, grams):
    grams (count, R, R) are the Gram matrices rows @ rows.T of count blocks
    of R rows each, positions (count, R) their packed indices; blocks of one
    shape are built together, in batches whose whole working set, not only
    their constraint rows, stays within holonomy._CHUNK_BYTES (a block that
    alone is larger is a batch of one).  Each Gram matrix is the product of
    its own rows whatever the batch, so batching moves no bit.  free holds
    the packed pairs that no quadruple constrains.  The characters are
    `HolonomyAlgebra.characters`: if any row of c meets two characters, every
    character is 0 and there is one block.
    """
    space, c = algebra.space, algebra.coeff_matrix
    pair_chars, gen_chars = algebra.characters
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
        R, K = pos.shape[1], quads.shape[1]
        grams = np.empty((group.size, R, R))
        # a block of a batch holds its rows, a product term and one gathered
        # factor, (R, K) each, and its slices of x and y, (d, K) each
        per = max(1, _CHUNK_BYTES // (8 * K * (3 * R + 2 * algebra.dim)))
        for lo in range(0, group.size, per):
            sub_pos, sub_quads = pos[lo : lo + per], quads[lo : lo + per]
            # c[:, pair] at the blocks' quadruples is (d, count, K); indexed by
            # (generator, block) it gives contiguous runs of K
            blk = np.arange(sub_pos.shape[0])[:, None]
            at_a, at_b = (pa[sub_pos], blk), (pb[sub_pos], blk)
            rows = np.zeros(sub_pos.shape + (K,))
            for first, second, accumulate in ((0, 1, np.add), (2, 3, np.add), (4, 5, np.subtract)):
                x, y = c[:, quad[first][sub_quads]], c[:, quad[second][sub_quads]]
                for left, right in ((at_a, at_b), (at_b, at_a)):
                    term = x[left]
                    term *= y[right]
                    accumulate(rows, term, out=rows)
            rows *= w[sub_pos][:, :, None]
            np.matmul(rows, rows.transpose(0, 2, 1), out=grams[lo : lo + per])
        blocks.append((pos, grams))
    return blocks, s_order[np.repeat(~hit, s_counts)]


def _null_spaces(grams: list[np.ndarray]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Null spaces of blocks of constraints under one rank rule.

    grams[g] has shape (count, R, R): the Gram matrices rows @ rows.T of
    count blocks of R constraint rows.  The null space of a block,
    {x : x @ rows = 0}, is read off `eigh` of its Gram matrix.  One rule
    covers all blocks: an eigenvalue is null when it is at most RANK_RTOL
    times the largest eigenvalue of any block, and GeometryError is raised
    when any eigenvalue lies inside the band (GAP_LO, GAP_HI) times that
    largest one.  A null space of dimension t > 1 is degenerate, so `eigh`
    may return any basis of it, one that moves with the last bits of the
    Gram matrix (the BLAS thread count, say).  Its rows are therefore the
    eigenvectors of the fixed form diag(sqrt(1), ..., sqrt(R)) compressed to
    the null space, a t x t `eigh`, with `_sign_fix` applied: a basis fixed
    by the space alone, up to rounding, as long as the compressed spectrum
    is simple.  The square roots keep it simple where diag(1..R) does not:
    null vectors spread evenly over positions with equal index sums, as in
    the 48-row blocks of sp(4)+sp(1), compress to repeated eigenvalues.
    GeometryError is raised when a compressed spectrum has a gap below
    FORM_GAP times the form's range: there rounding would pick the basis.
    Returns, per entry of grams, its runs of blocks of one null dimension
    t > 0, t ascending: (blocks (count,), C-ordered orthonormal null rows
    (count, t, R)).
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
        # eigh sorts ascending, so a block's null vectors are its first columns
        order, starts, counts, sizes = _runs(np.sum(w <= RANK_RTOL * top, axis=1))
        form = np.sqrt(np.arange(1.0, w.shape[1] + 1))[:, None]
        runs = []
        for start, count, t in zip(starts, counts, sizes):
            if t:
                blocks = order[start : start + count]
                null = v[blocks, :, :t]  # (count, R, t)
                vals, turn = np.linalg.eigh(null.transpose(0, 2, 1) @ (form * null))
                gap = float(np.diff(vals, axis=1).min(initial=np.inf))
                if gap < FORM_GAP * (form[-1, 0] - form[0, 0]):
                    raise GeometryError(f"null basis is not fixed by the compressed form (gap {gap:.3e})")
                # C order, or a one-block run is F-ordered and samples round apart
                rows = np.ascontiguousarray((null @ turn).transpose(0, 2, 1))
                runs.append((blocks, _sign_fix(rows.reshape(-1, w.shape[1])).reshape(rows.shape)))
        out.append(runs)
    return out


@_shared
def _bianchi_kernel_basis(algebra: HolonomyAlgebra) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Orthonormal basis of the symmetric operators on the algebra whose
    full-space extension satisfies the Bianchi identity, as blocks in the
    packed coordinates of `_packed_sym`.

    The Bianchi sum of a pair-symmetric array is totally antisymmetric, so
    it vanishes iff it vanishes at strictly increasing index quadruples;
    each quadruple contributes one linear constraint.  The constraints split
    into exact blocks by sign-flip characters (`_bianchi_blocks`), and each
    block's null space comes from `eigh` of its Gram matrix (`_null_spaces`).
    The blocks partition the packed pairs, so the block spectra together are
    the spectrum of the unblocked Gram matrix, and the rank rule reads them
    against their one largest eigenvalue: an eigenvalue is null when it is
    at most RANK_RTOL times the largest, and the build raises GeometryError
    when any eigenvalue lies inside the gap band (GAP_LO, GAP_HI) times the
    largest, so a borderline eigenvalue cannot silently change the
    dimension.  The packed coordinates are Frobenius-orthonormal, so any
    orthonormal basis of the kernel gives the same standard Gaussian on the
    curvature space.

    Returns a tuple of read-only parts (positions, rows).  A part is a run
    of count blocks of one shape and one null dimension t: positions
    (count, R) are the packed indices of each block, rows (count, t, R) its
    orthonormal null rows.  The last part holds the packed pairs that no
    quadruple constrains, one unit row each (R = t = 1).  In the order of
    the parts, blocks and rows, the rows scattered to their positions are
    the k rows of the basis; k = sum of count * t is the dimension of the
    curvature space, and no dense (k, S) array is formed.
    Shared per algebra, which compares by `HolonomyAlgebra.key` (the space's
    structure and the algebra's coefficient rows), so algebras that share a
    name (u(3) on two complex structures) get their own bases; `__wrapped__`
    is the uncached build.
    """
    blocks, free = _bianchi_blocks(algebra)
    parts = []
    for (pos, _), runs in zip(blocks, _null_spaces([grams for _, grams in blocks])):
        parts.extend((pos[owners], rows) for owners, rows in runs)
    parts.append((free[:, None], np.ones((free.size, 1, 1))))
    _freeze(*(arr for part in parts for arr in part))
    return tuple(parts)


def _kernel_dim(parts) -> int:
    """Rows of the basis that `_bianchi_kernel_basis` returns as parts."""
    return sum(rows.shape[0] * rows.shape[1] for _, rows in parts)


def curvature_space_dim(algebra: HolonomyAlgebra) -> int:
    """Dimension of the curvature tensors supported on the algebra."""
    return _kernel_dim(_bianchi_kernel_basis(algebra))


def random_algebra_curvature(algebra: HolonomyAlgebra, rng, count: int | None = None) -> CurvatureTensor:
    """Gaussian sample from the curvature tensors supported on the algebra,
    drawn from the Generator rng.  A count draws a stack of that many trials
    in one call, trial t the tensor that the t-th of as many one-tensor draws
    from rng would give."""
    parts = _bianchi_kernel_basis(algebra)
    k = _kernel_dim(parts)
    coeffs = rng.standard_normal(k if count is None else (count, k))
    lead, at = coeffs.shape[:-1], _lead(coeffs, 1)
    a, b, w = _packed_sym(algebra.dim)
    # packed pairs of blocks with no null rows stay 0
    x = np.zeros(lead + (a.size,))
    start = 0
    for pos, rows in parts:
        count, t, _ = rows.shape
        x[at + (pos,)] = (coeffs[..., start : start + count * t].reshape(lead + (count, 1, t)) @ rows)[..., 0, :]
        start += count * t
    x *= w
    s = np.zeros(lead + (algebra.dim, algebra.dim))
    s[at + (a, b)] = x
    s += s.swapaxes(-1, -2)  # x + 0 off the diagonal, x + x on it
    c = algebra.coeff_matrix
    return CurvatureTensor(algebra.space, c.T @ s @ c)
