"""Algebraic curvature tensors and their operator form on bivectors.

Conventions, fixed once here and relied on everywhere else:

* a curvature tensor is stored as its bivector operator: the symmetric
  D x D matrix M (D = n(n-1)/2) in the lexicographic pair basis, with
  M[ij, kl] = T[i, j, k, l] for i < j, k < l.  The pair antisymmetries hold
  by construction; pair interchange is the symmetry of M, and the first
  Bianchi identity T[x,y,z,w] + T[y,z,x,w] + T[z,x,y,w] = 0 is checked at
  the C(n,4) increasing quadruples.  Both, and finite entries, are part of
  the type invariant;
* the rank-four component array is derived from M on request.  Rank-four
  arrays that come from outside (files, the Grassmannian formula) are
  validated slot by slot with check_curvature_symmetries before they are
  gathered into an operator;
* the operator of the metric double product g (*) g is twice the identity
  on bivectors;
* squared norms: the component-array norm of a curvature tensor is four
  times the Frobenius norm of its bivector operator.  Functions below say
  which one they return;
* stacks: a CurvatureTensor holds one operator (D, D) or a stack of trials
  (T, D, D), the way one object holds one rotation or many.  Every
  per-sample kernel reads the trailing two axes, so one tensor is the
  one-trial case of the same code: a value is a float for one tensor and a
  (T,) array for a stack, each entry the one-tensor value of its trial to
  the bit (reductions run per trial, in the one-tensor order).  Checks run
  per trial at the one-tensor tolerance and report the first trial that
  fails, with that trial's own message;
* hat components (derivatives along an algebra's basis rotations) are
  computed on bivector operators, H_a = N_a R + (N_a R)^T with N_a the
  action of generator a on the pairs.  N_a R comes from the algebra's
  action_blocks, dense blocks keyed on sign-flip characters, one batched
  product per chunk of generators and block shape; the dense stack of the
  N_a is never formed.  _hat_chunks is the one routine that fills hats, a
  chunk of (trial, generator) pairs at a time, into one reused buffer of
  about holonomy._CHUNK_BYTES.  t_hat copies them into the whole (dim, D, D)
  stack of the H_a of an unrestricted CurvatureOperator, whose squared
  norms are Frobenius norms.  lie_action keeps the slot-by-slot definition,
  on the skew matrix of one generator, as the independent single-generator
  reference.  Hats are reduced only in criteria.

Products, traces and projections act on the operator through pair-index
formulas with index tables cached per dimension.  The rank-four routes
(bianchi_sum, bianchi_project, lie_action) stay as the references the tests
check the pair-index formulas and the hats against.

What depends only on the dimension or the structure is built once and
shared read-only, so per-sample calls touch only the sample: per dimension
(functools.cache) the index tables, the flat indices of the Bianchi sum
and projection (_project_flat) and the operator of g (*) g (_kn_metric); per
space (euclid._shared, so equal structures share one entry) the rows of the
parallel forms that total_traces contracts against (_form_rows).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .euclid import (
    EuclideanSpace,
    GeometryError,
    _SYMMETRY_RTOL,
    _pair_table,
    _shared,
    generic,
    kaehler,
    quaternion_kaehler,
)


class SymmetryError(GeometryError):
    """Raised when an array fails the curvature symmetry validation."""


def _sym_scale(a: np.ndarray) -> float:
    """1 + max|entry|: NaN or inf exactly when an entry is."""
    return 1.0 + float(np.abs(a).max(initial=0.0))


def _non_finite(a: np.ndarray) -> SymmetryError:
    """The error that names the first non-finite entry of a."""
    at = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
    return SymmetryError(f"non-finite entry {a[at]} at {at}")


def _value(x):
    """A one-tensor value as a float; a stack's (T,) array as it is."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _per_trial(x):
    """A value (float, or (T,) array on a stack) as a factor of operators:
    the float itself, or (T, 1, 1)."""
    return x[:, None, None] if isinstance(x, np.ndarray) and x.ndim else x


def _lead(x: np.ndarray, axes: int) -> tuple:
    """Full slices over the leading axes of x, before its last `axes` ones:
    x[_lead(x, 1) + (index,)] is x[..., index] on the fast path of numpy's
    indexing, x[index] for one tensor's array and x[:, index] for a
    stack's."""
    return (slice(None),) * (x.ndim - axes)


def _norm(x: np.ndarray, axes: int) -> np.ndarray:
    """Frobenius norm over the trailing axes of x, per leading index: the
    bits of np.linalg.norm, whose ravel().dot() this batched matmul is."""
    flat = x.reshape(x.shape[: x.ndim - axes] + (-1,))
    return np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])


def _freeze(*arrays: np.ndarray):
    for arr in arrays:
        arr.flags.writeable = False


# ---------------------------------------------------------------------------
# pair-index tables, cached per dimension


@functools.cache
def _pair_lookup(n: int) -> np.ndarray:
    """n x n table whose entry (x, y), x != y, is the index of the pair {x, y}.

    The diagonal holds 0; callers weight it out.
    """
    rows, cols = _pair_table(n)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    _freeze(pair)
    return pair


@functools.cache
def _quad_pairs(n: int) -> np.ndarray:
    """Pair indices (ij, kl, jk, il, ik, jl) at every quadruple i < j < k < l,
    shape (6, C(n,4)), quadruples in `itertools.combinations` order.

    On a symmetric operator M the Bianchi sum at the quadruple is
    (M[ij, kl] + M[jk, il] - M[ik, jl]) / 3, and the Bianchi sum of a
    pair-symmetric array is totally antisymmetric, so these are all of it.
    """
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    pair = _pair_lookup(n)
    out = np.stack(
        [pair[quads[:, x], quads[:, y]] for x, y in ((0, 1), (2, 3), (1, 2), (0, 3), (0, 2), (1, 3))]
    )
    _freeze(out)
    return out


@functools.cache
def _project_flat(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a D x D operator of the slots _bianchi_project_matrix
    writes at every quadruple i < j < k < l: (3, C(n,4)) arrays of
    (ij, kl), (ik, jl), (il, jk) and of their transposes.  The Bianchi sum
    (_quad_bianchi) reads (ij, kl), (jk, il) and (ik, jl) from them."""
    d = n * (n - 1) // 2
    ij, kl, jk, il, ik, jl = _quad_pairs(n)
    first = np.stack([ij * d + kl, ik * d + jl, il * d + jk])
    second = np.stack([kl * d + ij, jl * d + ik, jk * d + il])
    _freeze(first, second)
    return first, second


@functools.cache
def _kn_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices (xz, yw, xw, yz) into an n x n form, each D x D, at the
    increasing pairs (x, y) (rows) and (z, w) (columns)."""
    rows, cols = _pair_table(n)
    x, y = rows[:, None] * n, cols[:, None] * n
    z, w = rows[None, :], cols[None, :]
    out = (x + z, y + w, x + w, y + z)
    _freeze(*out)
    return out


@functools.cache
def _contraction_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat, weight) with T[s, x, s, w] = weight[s, x, w] * M.flat[flat[s, x, w]].

    flat indexes the D x D operator at (pair[s, x], pair[s, w]); weight is
    sign(x - s) * sign(w - s): the sign of reading each slot pair off an
    increasing pair, zero when s repeats an index.
    """
    pair = _pair_lookup(n)
    flat = pair[:, :, None] * (n * (n - 1) // 2) + pair[:, None, :]
    sign = np.sign(np.arange(n)[None, :] - np.arange(n)[:, None]).astype(float)
    weight = sign[:, :, None] * sign[:, None, :]
    _freeze(flat, weight)
    return flat, weight


@functools.cache
def _dim_of_pairs(d: int) -> int:
    """Dimension n with n(n-1)/2 = d, or SymmetryError."""
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * d)) / 2.0))
    if n < 2 or n * (n - 1) // 2 != d:
        raise SymmetryError(f"{d} is not the bivector dimension of any R^n")
    return n


# ---------------------------------------------------------------------------
# symmetry validation and Bianchi projection


def check_curvature_symmetries(t: np.ndarray):
    """Raise SymmetryError unless the rank-four array t is finite and has
    all curvature symmetries plus Bianchi, to _SYMMETRY_RTOL * (1 + max|entry|)."""
    scale = _sym_scale(t)
    if not np.isfinite(scale):
        raise _non_finite(t)
    tol = _SYMMETRY_RTOL * scale
    r = float(np.abs(t + t.transpose(1, 0, 2, 3)).max(initial=0.0))
    if r > tol:
        raise SymmetryError(f"not antisymmetric in the first pair, residual {r:.3e}")
    r = float(np.abs(t + t.transpose(0, 1, 3, 2)).max(initial=0.0))
    if r > tol:
        raise SymmetryError(f"not antisymmetric in the second pair, residual {r:.3e}")
    r = float(np.abs(t - t.transpose(2, 3, 0, 1)).max(initial=0.0))
    if r > tol:
        raise SymmetryError(f"not symmetric under pair interchange, residual {r:.3e}")
    r = float(np.abs(bianchi_sum(t)).max(initial=0.0))
    if r > tol:
        raise SymmetryError(f"first Bianchi identity fails, residual {r:.3e}")


def _quad_bianchi(mat: np.ndarray, n: int) -> np.ndarray:
    """Bianchi sum T[i,j,k,l] + T[k,i,j,l] + T[j,k,i,l], over 3, of the
    tensor with operator mat, at every quadruple i < j < k < l; per trial
    on a stack.  Added in bianchi_sum's order, so it is bianchi_sum of the
    scattered array at the quadruple to the bit."""
    first, second = _project_flat(n)
    return (_gather(mat, first[0], 2) - _gather(mat, first[1], 2) + _gather(mat, second[2], 2)) / 3.0


def check_operator_symmetries(mat: np.ndarray):
    """Raise SymmetryError unless the D x D matrix mat, or every matrix of a
    (T, D, D) stack, is the operator of a curvature tensor: finite,
    symmetric, and Bianchi at the increasing quadruples.

    Same tolerance and messages as check_curvature_symmetries on the array
    scattered from a matrix, whose largest entry is the matrix's; the pair
    antisymmetries of that array hold by construction.  On a stack every
    trial is checked at its own tolerance, and the first trial that fails
    raises the message the check of that trial alone raises.  A non-finite
    entry shows in the largest |entry| of its trial, so finiteness costs one
    np.isfinite over the (T,) peaks, and no residual is formed from it.
    """
    if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
        raise SymmetryError(f"operator must be a square matrix or a stack of them, got shape {mat.shape}")
    n = _dim_of_pairs(mat.shape[-1])
    peak = abs(mat).max(axis=(-2, -1))
    finite = np.isfinite(peak)
    if not finite.all():
        if mat.ndim == 3:
            first = int(np.argmin(finite))
            check_operator_symmetries(mat[:first])  # an earlier trial that fails comes first
            mat = mat[first]
        raise _non_finite(mat)
    tol = _SYMMETRY_RTOL * (1.0 + peak)
    asym = abs(mat - mat.swapaxes(-1, -2)).max(axis=(-2, -1))
    bianchi = abs(_quad_bianchi(mat, n)).max(axis=-1, initial=0.0)
    failed = (asym > tol) | (bianchi > tol)
    if np.count_nonzero(failed):
        t = np.flatnonzero(failed)[0]
        asym, bianchi, tol = (np.atleast_1d(x)[t] for x in (asym, bianchi, tol))
        if asym > tol:
            raise SymmetryError(f"not symmetric under pair interchange, residual {asym:.3e}")
        raise SymmetryError(f"first Bianchi identity fails, residual {bianchi:.3e}")


def bianchi_sum(t: np.ndarray) -> np.ndarray:
    """Cyclic average over the first three slots; zero on curvature tensors."""
    return (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) / 3.0


def bianchi_project(t: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a pair-symmetric array onto Bianchi kernel.

    The cyclic average is itself an orthogonal projection (onto the fully
    antisymmetric part), so subtracting it projects onto curvature type.
    """
    return t - bianchi_sum(t)


def _bianchi_project_matrix(mat: np.ndarray) -> np.ndarray:
    """bianchi_project on the operator of an exactly symmetric matrix, or on
    each matrix of a stack.

    The removed part is the four-form with value b at (ij, kl), -b at
    (ik, jl) and b at (il, jk), b the Bianchi sum at i < j < k < l.  Each
    slot subtracts the cyclic sum in the order bianchi_project adds it at
    that slot, so the result is the same to the last bit.
    """
    first, second = _project_flat(_dim_of_pairs(mat.shape[-1]))
    src = mat.reshape(mat.shape[:-2] + (-1,))
    at = _lead(src, 1)
    a, b, c = src[at + (first[0],)], src[at + (second[2],)], src[at + (first[1],)]  # (ij, kl), (jk, il), (ik, jl)
    out = mat.copy()
    flat = out.reshape(src.shape)  # a view: out is a fresh C-ordered copy
    for pq, qp, cyc in zip(first, second, (a - c + b, c - a - b, b + a - c)):
        flat[at + (pq,)] -= cyc / 3.0
        flat[at + (qp,)] = flat[at + (pq,)]
    return out


# ---------------------------------------------------------------------------
# core types


@dataclass
class CurvatureTensor:
    """Algebraic curvature tensor on a Euclidean space, stored as its
    symmetric bivector operator `matrix` (see the module conventions): one
    (D, D) matrix, or a (T, D, D) stack of trials that every kernel of the
    library reads per trial.

    The matrix is validated with check_operator_symmetries unless validate
    is False: a matrix built by a new formula is checked, a model multiple
    or a linear combination of checked tensors (the arithmetic below) is
    not.  `components` is the rank-four array of one tensor, derived on
    access.
    """

    space: EuclideanSpace
    matrix: np.ndarray
    validate: bool = True

    # an array of per-trial factors times a tensor is the tensor's __rmul__
    __array_ufunc__ = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        d = self.space.bivector_dim
        if self.matrix.ndim not in (2, 3) or self.matrix.shape[-2:] != (d, d):
            raise SymmetryError(f"operator must have shape {(d, d)} or (trials, {d}, {d}), got {self.matrix.shape}")
        if self.validate:
            check_operator_symmetries(self.matrix)

    @classmethod
    def from_components(cls, space: EuclideanSpace, components) -> "CurvatureTensor":
        """Tensor from a rank-four component array, validated slot by slot
        with check_curvature_symmetries and read off at increasing pairs."""
        arr = np.asarray(components, dtype=float)
        n = space.n
        if arr.shape != (n, n, n, n):
            raise SymmetryError(f"components must have shape {(n, n, n, n)}, got {arr.shape}")
        check_curvature_symmetries(arr)
        ii, jj = space.pair_rows, space.pair_cols
        mat = arr[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
        return cls(space, mat, validate=False)

    @property
    def components(self) -> np.ndarray:
        """Rank-four component array scattered from the operator of one
        tensor.

        A new array on each access: writing to it leaves the tensor as it
        is.  Read-only when the operator is (the shared models).
        """
        arr = _tensor_array_from_matrix(self.space, self.matrix)
        arr.flags.writeable = self.matrix.flags.writeable
        return arr

    # linear combinations stay in the symmetry class, skip re-validation
    def __add__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        return CurvatureTensor(self.space, self.matrix + other.matrix, validate=False)

    def __sub__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        return CurvatureTensor(self.space, self.matrix - other.matrix, validate=False)

    def __mul__(self, scalar) -> "CurvatureTensor":
        """A float scales every trial; a (T,) array scales trial t by its
        entry t, and makes a stack of one tensor."""
        return CurvatureTensor(self.space, self.matrix * _per_trial(scalar), validate=False)

    __rmul__ = __mul__

    def norm_sq(self):
        """Component-array squared norm (four times the operator convention)."""
        return _value(4.0 * (self.matrix**2).sum(axis=(-2, -1)))

    def inner(self, other: "CurvatureTensor"):
        """Component-array inner product (four times the Frobenius pairing)."""
        return _value(4.0 * (self.matrix * other.matrix).sum(axis=(-2, -1)))


@dataclass
class CurvatureOperator:
    """Symmetric operator on bivectors, on the full bivector space or
    restricted to a subalgebra.

    A restricted operator (algebra given) acts in the coordinates of the
    algebra's orthonormal basis, on a read-only matrix whose spectrum is
    computed at most once: a copy of one given from outside, checked finite
    and symmetric here, or the product holonomy.project froze in place.  A
    full-space one (algebra None) comes only from to_operator, which aliases
    the tensor's matrix in the lexicographic pair basis.
    """

    space: EuclideanSpace
    matrix: np.ndarray
    algebra: object | None

    def __post_init__(self):
        if self.algebra is None:
            raise GeometryError("an outside matrix needs its algebra: CurvatureOperator(space, matrix, algebra); "
                                "a full-space operator comes from to_operator")
        self.matrix = np.array(self.matrix, dtype=float)
        _freeze(self.matrix)
        d = self.algebra.dim
        if self.matrix.shape != (d, d):
            raise GeometryError(f"operator matrix must be {d} x {d}, got {self.matrix.shape}")
        scale = _sym_scale(self.matrix)
        if not np.isfinite(scale):
            raise _non_finite(self.matrix)
        if float(np.abs(self.matrix - self.matrix.T).max(initial=0.0)) > _SYMMETRY_RTOL * scale:
            raise GeometryError("operator matrix is not symmetric")
        self._spectrum = None  # (matrix, SpectralData) of a restricted operator

    @classmethod
    def _wrap(cls, space: EuclideanSpace, matrix: np.ndarray, algebra=None) -> "CurvatureOperator":
        """An operator on matrix, aliased, with no checks: for a float matrix
        of the right shape that is symmetric by construction.  A restricted
        one (algebra given) freezes matrix in place."""
        op = cls.__new__(cls)
        op.space, op.matrix, op.algebra, op._spectrum = space, matrix, algebra, None
        if algebra is not None:
            _freeze(matrix)
        return op

    def spectrum(self):
        """Eigendecomposition of the matrix, ascending.  A restricted
        operator keeps it, with read-only arrays, and hands out the same
        object on every call."""
        from .euclid import symmetric_eigen

        if self.algebra is None:
            return symmetric_eigen(self.matrix)
        memo = self._spectrum
        if memo is None or memo[0] is not self.matrix:
            spec = symmetric_eigen(self.matrix)
            _freeze(spec.values, spec.vectors)
            memo = self._spectrum = (self.matrix, spec)
        return memo[1]

    def norm_sq(self) -> float:
        """Frobenius squared norm (one quarter of the component convention)."""
        return float(np.sum(self.matrix**2))


# ---------------------------------------------------------------------------
# products and dictionaries


@functools.cache
def _kn_metric(n: int) -> np.ndarray:
    """_kn_matrix(g, g) of the metric g = eye(n), read-only: the operator of
    g (*) g, twice the identity."""
    g = np.eye(n)
    out = _kn_matrix(g, g)
    _freeze(out)
    return out


def _gather(a: np.ndarray, index: np.ndarray, axes: int) -> np.ndarray:
    """a's trailing axes flattened and read at index, per leading index, in
    C order: the layout the one-tensor gather has, so reductions over the
    result run in its order (a[..., index] puts the index axes first)."""
    return a.reshape(a.shape[: a.ndim - axes] + (-1,)).take(index, axis=-1)


def _kn_matrix(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Double product of two bilinear forms at increasing pairs (x, y), (z, w),
    per trial where either is a (T, n, n) stack; curvature symmetries need
    both symmetric or both antisymmetric, and Bianchi only holds in the
    symmetric case."""
    xz, yw, xw, yz = _kn_tables(s.shape[-1])
    return (
        _gather(s, xz, 2) * _gather(t, yw, 2)
        - _gather(s, xw, 2) * _gather(t, yz, 2)
        + _gather(s, yw, 2) * _gather(t, xz, 2)
        - _gather(s, yz, 2) * _gather(t, xw, 2)
    )


def _pair_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator of the array a[x, y] b[z, w] read off at increasing pairs,
    per trial where either is a stack: the product np.outer forms."""
    rows, cols = _pair_table(a.shape[-1])
    at = rows * a.shape[-1] + cols
    return _gather(a, at, 2)[..., :, None] * _gather(b, at, 2)[..., None, :]


def _conjugation_on_bivectors(space: EuclideanSpace, s: np.ndarray) -> np.ndarray:
    """Matrix of xi -> s mat(xi) s^T on the pair basis."""
    # entry (xy, zw) is s[y, w] s[x, z] - s[y, z] s[x, w]
    xz, yw, xw, yz = _kn_tables(space.n)
    s = s.ravel()
    return s[yw] * s[xz] - s[yz] * s[xw]


def to_operator(rm: CurvatureTensor) -> CurvatureOperator:
    """The stored bivector operator, wrapped without a copy.  A tensor's
    matrix is symmetric by the type invariant, so it is not scanned again.
    This is the one source of full-space operators; the constructor builds
    restricted ones from outside matrices, and checks them."""
    return CurvatureOperator._wrap(rm.space, rm.matrix)


def _tensor_array_from_matrix(space: EuclideanSpace, mat: np.ndarray) -> np.ndarray:
    """Scatter a bivector-basis matrix back into rank-four components."""
    n = space.n
    ii, jj = space.pair_rows, space.pair_cols
    r1, c1 = ii[:, None], jj[:, None]
    r2, c2 = ii[None, :], jj[None, :]
    t = np.zeros((n, n, n, n))
    t[r1, c1, r2, c2] = mat
    t[c1, r1, r2, c2] = -mat
    t[r1, c1, c2, r2] = -mat
    t[c1, r1, c2, r2] = mat
    return t


# ---------------------------------------------------------------------------
# derivations


def _lie_array(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivation action of a matrix generator on a rank-2 or rank-4 array.

    Each slot contributes minus the generator contracted into that slot,
    matching the derivative of the pullback along the flow of a.
    """
    if t.ndim == 2:
        return -(np.einsum("sx,sy->xy", a, t) + np.einsum("sy,xs->xy", a, t))
    if t.ndim == 4:
        return -(
            np.einsum("sx,syzw->xyzw", a, t)
            + np.einsum("sy,xszw->xyzw", a, t)
            + np.einsum("sz,xysw->xyzw", a, t)
            + np.einsum("sw,xyzs->xyzw", a, t)
        )
    raise GeometryError(f"lie action supports rank 2 or 4, got rank {t.ndim}")


def lie_action(a: np.ndarray, t):
    """Infinitesimal rotation action of a generator, given as its skew
    matrix (a row of `HolonomyAlgebra.matrices`), on a tensor.

    Accepts a rank-2 or rank-4 ndarray, or a CurvatureTensor; returns the
    same kind.  The action preserves the curvature symmetry class.
    """
    a = np.asarray(a, dtype=float)
    if isinstance(t, CurvatureTensor):
        return CurvatureTensor.from_components(t.space, _lie_array(a, t.components))
    return _lie_array(a, np.asarray(t, dtype=float))


def _hat_chunks(op: CurvatureOperator, algebra):
    """Operator hats H_a = N_a R + (N_a R)^T of op, one operator or a stack
    of trials, by chunks of (trial, generator) pairs: yields (t, lo, hats),
    hats (trials, size, D, D) for the trials from t and the generators from
    lo.  A chunk is the generators of one `algebra.chunk_size` range for
    `algebra.chunk_trials` trials; all chunks are one buffer that the next
    chunk overwrites.

    N_a R is written row by row from the chunk's action_blocks entries, one
    batched product per entry for all the chunk's trials, then symmetrized
    `algebra.hat_group` generators at a time, for all the chunk's trials at
    once, in cache.
    """
    n_pairs = op.space.bivector_dim
    mats = op.matrix.reshape((-1, n_pairs, n_pairs))
    size, per, group = algebra.chunk_size, algebra.chunk_trials, algebra.hat_group
    buffer = np.empty(min(per, len(mats)) * min(size, algebra.dim) * n_pairs * n_pairs)
    turned = np.empty(min(per, len(mats)) * group * n_pairs * n_pairs)
    entries, k = algebra.action_blocks, 0
    for lo in range(0, algebra.dim, size):
        hi, first = min(lo + size, algebra.dim), k
        while k < len(entries) and entries[k][2].flat[0] < hi * n_pairs:
            k += 1
        chunk = [(blocks, sources, targets.ravel() - lo * n_pairs) for blocks, sources, targets in entries[first:k]]
        for t in range(0, len(mats), per):
            sub = mats[t : t + per]
            hats = buffer[: len(sub) * (hi - lo) * n_pairs * n_pairs].reshape(len(sub), hi - lo, n_pairs, n_pairs)
            hats.fill(0.0)
            rows = hats.reshape(len(sub), -1, n_pairs)
            for blocks, sources, targets in chunk:  # N_a R
                rows[:, targets] = (blocks @ sub[:, sources]).reshape(len(sub), -1, n_pairs)
            for g in range(0, hi - lo, group):  # h + h^T in place
                h = hats[:, g : g + group]
                h_t = turned[: h.size].reshape(h.shape)
                np.copyto(h_t, h.transpose(0, 1, 3, 2))
                h += h_t
            yield t, lo, hats


def t_hat(op: CurvatureOperator, algebra) -> np.ndarray:
    """Hat operators H_a = N_a R + (N_a R)^T of an unrestricted operator
    along an algebra's basis rotations: one (dim, D, D) stack in basis order,
    (T, dim, D, D) for a stack of trials, copied chunk by chunk from
    `_hat_chunks`.  Their squared norms are Frobenius norms (operator
    convention).

    Anything else, a restricted operator included (it has lost the
    off-algebra entries its hats need), raises GeometryError.
    """
    if not isinstance(op, CurvatureOperator) or op.algebra is not None:
        raise GeometryError("hat components need a full bivector-space operator")
    n_pairs = op.space.bivector_dim
    hats = np.empty(op.matrix.shape[:-2] + (algebra.dim, n_pairs, n_pairs))
    flat = hats.reshape((-1,) + hats.shape[-3:])
    for t, lo, chunk in _hat_chunks(op, algebra):
        flat[t : t + len(chunk), lo : lo + chunk.shape[1]] = chunk
    return hats


# ---------------------------------------------------------------------------
# traces


def ricci(rm: CurvatureTensor) -> np.ndarray:
    """Contraction over the first slots of each pair, sum_s T[s, x, s, w];
    (n, n), or (T, n, n) on a stack."""
    flat, weight = _contraction_tables(rm.space.n)
    return (weight * _gather(rm.matrix, flat, 2)).sum(axis=-3)


def scalar(rm: CurvatureTensor):
    """Full metric trace; equals twice the trace of the bivector operator."""
    return _value(2.0 * np.trace(rm.matrix, axis1=-2, axis2=-1))


def total_traces(rm: CurvatureTensor) -> list:
    """Norms of the independent first-pair contractions, each a float, or a
    (T,) array on a stack.

    Always contains the Frobenius norm of the Ricci contraction; in the
    presence of complex or quaternionic structures the contractions against
    each parallel form are appended.  All entries vanish on the totally
    trace-free summand of the curvature decomposition.
    """
    out = [_value(_norm(ricci(rm), 2))]
    for form in _form_rows(rm.space):
        # 0.5 sum_{s,t} S[s, t] T[s, t, z, w] at z < w; the n x n contraction
        # is skew, so its Frobenius norm is sqrt(2) times that of these entries
        contr = 0.5 * (form @ rm.matrix)
        out.append(_value(np.sqrt(2.0) * _norm(contr, 1)))
    return out


_FORM_NAMES = {"generic": (), "kaehler": ("J",), "qk": ("I", "J", "K")}


@_shared
def _form_rows(space: EuclideanSpace) -> tuple[np.ndarray, ...]:
    """S[rows, cols] - S[cols, rows] at the increasing pairs for each
    parallel structure S of the space (J, or I, J, K; none on a generic
    space), read-only."""
    rows, cols = space.pair_rows, space.pair_cols
    structs = (getattr(space, name) for name in _FORM_NAMES[space.kind])
    forms = tuple(s[rows, cols] - s[cols, rows] for s in structs)
    _freeze(*forms)
    return forms


# ---------------------------------------------------------------------------
# random generation and serialization


def random_curvature(space: EuclideanSpace, rng, count: int | None = None) -> CurvatureTensor:
    """Random algebraic curvature tensor: a Gaussian symmetric bivector
    operator, Bianchi-projected, drawn from the Generator rng.  A count draws
    a stack of that many trials in one call, trial t the tensor that the
    t-th of as many one-tensor draws from rng would give."""
    d = space.bivector_dim
    raw = rng.standard_normal((d, d) if count is None else (count, d, d))
    return CurvatureTensor(space, _bianchi_project_matrix(0.5 * (raw + raw.swapaxes(-1, -2))))


def tensor_to_dict(rm: CurvatureTensor) -> dict:
    return {
        "n": rm.space.n,
        "structure": rm.space.kind,
        "components": [float(x) for x in rm.components.reshape(-1)],
    }


def _space_for(n: int, structure: str) -> EuclideanSpace:
    if structure == "generic":
        return generic(n)
    if structure == "kaehler":
        if n % 2:
            raise GeometryError(f"kaehler structure needs even dimension, got {n}")
        return kaehler(n // 2)
    if structure == "qk":
        if n % 4:
            raise GeometryError(f"qk structure needs dimension 4m, got {n}")
        return quaternion_kaehler(n // 4)
    raise GeometryError(f"unknown structure tag {structure!r}")


def tensor_from_dict(data: dict) -> CurvatureTensor:
    """Rebuild a tensor from its dictionary form, on the standard space of
    its dimension and structure tag, validating shape and symmetries."""
    try:
        n = int(data["n"])
        structure = str(data["structure"])
        flat = np.asarray(data["components"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed tensor record: {exc}") from exc
    space = _space_for(n, structure)
    if flat.shape != (n**4,):
        raise GeometryError(f"expected {n**4} components, got {flat.shape[0]}")
    return CurvatureTensor.from_components(space, flat.reshape(n, n, n, n))


def save_tensor(rm: CurvatureTensor, path: str):
    with open(path, "w") as fh:
        json.dump(tensor_to_dict(rm), fh)
        fh.write("\n")


def load_tensor(path: str) -> CurvatureTensor:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"invalid tensor file {path}: {exc}") from exc
    return tensor_from_dict(data)
