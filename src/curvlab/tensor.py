"""Algebraic curvature tensors and their operator form on bivectors.

Conventions, fixed once here and relied on everywhere else:

* a curvature tensor is stored as its bivector operator: the symmetric
  D x D matrix M (D = n(n-1)/2) in the lexicographic pair basis, with
  M[ij, kl] = T[i, j, k, l] for i < j, k < l.  The pair antisymmetries hold
  by construction; pair interchange is the symmetry of M, and the first
  Bianchi identity T[x,y,z,w] + T[y,z,x,w] + T[z,x,y,w] = 0 is checked at
  the C(n,4) increasing quadruples.  Both, and finite entries, are part of
  the type invariant, held by the one check rule of euclid._first_over;
* a value is built by its checked constructor or by _wrap (no constructor,
  no check) at one of four trusted sites: _combine, of sums, differences
  and multiples of checked tensors on one space, finite or refused;
  to_operator and holonomy.project, the only builders of a
  CurvatureOperator; and decomp._check_supported, of each finite trial of
  its checked input.  Values compare by identity;
* the rank-four component array is derived from M on request.  Rank-four
  arrays come only from tensor files, and check_curvature_symmetries reads
  them through the operator that every tensor's check runs on;
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
  per trial by that rule and report the first trial that fails, with that
  trial's own message;
* hat components (derivatives along an algebra's basis rotations) are
  computed on bivector operators, H_a = N_a R + (N_a R)^T with N_a the
  action of generator a on the pairs.  N_a R comes from the algebra's
  action_blocks, dense blocks keyed on sign-flip characters, one batched
  product per chunk of generators and block shape; the dense stack of the
  N_a is never formed.  _hat_chunks is the one routine that fills hats, a
  chunk of (trial, generator) pairs at a time, into one reused buffer of
  about holonomy._CHUNK_BYTES.  t_hat copies them into the whole (dim, D, D)
  stack of the H_a of an unrestricted CurvatureOperator, whose squared
  norms are Frobenius norms, for the bilinear route of
  criteria.curvature_term.  Hats are reduced only in criteria.

Products, traces, projections and the models are pair-index formulas on the
operator.  The products of forms (_kn_matrix, _pair_outer,
_conjugation_on_bivectors) read their factors' rows at each pair's indices,
with no D x D table; the traces and the Bianchi sum and projection read
index tables cached per dimension.  The rank-four route
(check_curvature_symmetries, _tensor_array_from_matrix, components) serves
only load_tensor, the one tensor-file reader, and components; the writer and
the slot-by-slot references of the checks, formulas, hats and models are
test helpers, in tests/conftest.py.  A file's tensor lives on
euclid.standard_space of its structure tag and dimension.

What depends only on the dimension or the structure is built once and
shared read-only, so per-sample calls touch only the sample: per dimension
(functools.cache) the pair and contraction tables, the flat indices of the
Bianchi sum and projection (_project_flat) and the operator of g (*) g
(_kn_metric); per space (euclid._shared, so equal structures share one
entry) the rows of the parallel forms that total_traces contracts against
(_form_rows), one per matrix of EuclideanSpace.structures.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .euclid import (
    EuclideanSpace,
    GeometryError,
    _first_over,
    _pair_table,
    _shared,
    standard_space,
)


class SymmetryError(GeometryError):
    """Raised when an array fails the curvature symmetry validation."""


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
    quads = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), 4)), np.intp).reshape(-1, 4)
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


# the file check's residual, then check_operator_symmetries's two
_CURVATURE_CHECKS = ("not antisymmetric in each pair", "not symmetric under pair interchange",
                     "first Bianchi identity fails")


def check_curvature_symmetries(space: EuclideanSpace, t: np.ndarray) -> "CurvatureTensor":
    """The tensor of the (n, n, n, n) array t, read at the increasing pairs,
    or SymmetryError.  t must equal the scatter of that operator by
    euclid._first_over's rule on the (n^2, n^2) reshape (the one n^4 residual,
    reduced in place; a non-finite entry is named at its four indices), and
    construction checks the operator: exactly the curvature symmetries."""
    n, ii, jj = space.n, space.pair_rows, space.pair_cols
    mat = t[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    failed = _first_over(t.reshape(n * n, n * n), lambda a: (  # s - a, written into the scatter s
        np.abs(np.subtract(s := _tensor_array_from_matrix(space, mat).reshape(a.shape), a, out=s), out=s).max(),))
    if failed:
        raise _non_finite(t) if failed[1] is None else SymmetryError(
            f"{_CURVATURE_CHECKS[0]}, residual {failed[2]:.3e}")
    return CurvatureTensor(space, mat)


def _quad_bianchi(mat: np.ndarray, n: int) -> np.ndarray:
    """Bianchi sum T[i,j,k,l] + T[k,i,j,l] + T[j,k,i,l], over 3, of the
    tensor with operator mat, at every quadruple i < j < k < l; per trial
    on a stack, in the order of the rank-four cyclic average over the first
    three slots: that average of the scattered array, to the bit."""
    first, second = _project_flat(n)
    return (_gather(mat, first[0], 2) - _gather(mat, first[1], 2) + _gather(mat, second[2], 2)) / 3.0


def check_operator_symmetries(mat: np.ndarray):
    """Raise SymmetryError unless the D x D matrix mat, or every matrix of a
    (T, D, D) stack, is the operator of a curvature tensor: finite,
    symmetric, and Bianchi at the increasing quadruples, by
    euclid._first_over's rule; the array scattered from a matrix has the
    pair antisymmetries by construction.  On a stack the first trial that
    fails raises the message it raises alone.
    """
    if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
        raise SymmetryError(f"operator must be a square matrix or a stack of them, got shape {mat.shape}")
    n = _dim_of_pairs(mat.shape[-1])
    failed = _first_over(mat, lambda m: (
        abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1)), abs(_quad_bianchi(m, n)).max(axis=-1, initial=0.0)
    ))
    if failed:
        t, k, r = failed
        raise _non_finite(mat.reshape(-1, *mat.shape[-2:])[t]) if k is None else SymmetryError(
            f"{_CURVATURE_CHECKS[1 + k]}, residual {r:.3e}")


def _bianchi_project_matrix(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the Bianchi kernel, t minus the cyclic
    average over its first three slots, of the rank-four array t of an
    exactly symmetric matrix, on that matrix, or on each matrix of a stack.

    The removed part is the four-form with value b at (ij, kl), -b at
    (ik, jl) and b at (il, jk), b the Bianchi sum at i < j < k < l.  Each
    slot subtracts the cyclic sum in the rank-four average's order at that
    slot, so the result is the rank-four projection's to the last bit.
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


def _wrap(cls, **fields):
    """A cls value holding fields, built with no constructor and no check.
    Every call is listed, with why its value needs no check, in
    tests/test_package.py UNCHECKED_BUILDS."""
    out = cls.__new__(cls)
    vars(out).update(fields)
    return out


def _combine(space: EuclideanSpace, matrix: np.ndarray) -> "CurvatureTensor":
    """The tensor on space of a sum, difference or multiple of checked
    operators on it: the one unchecked build of arithmetic.  A sum or
    multiple can overflow, so a non-finite entry raises SymmetryError."""
    if not np.isfinite(matrix).all():
        raise _non_finite(matrix)
    return _wrap(CurvatureTensor, space=space, matrix=matrix)


@dataclass(eq=False)
class CurvatureTensor:
    """Algebraic curvature tensor on a Euclidean space, stored as its
    symmetric bivector operator `matrix` (see the module conventions): one
    (D, D) matrix, or a (T, D, D) stack of trials that every kernel of the
    library reads per trial.

    The constructor always checks the matrix with check_operator_symmetries.
    A sum or difference on one space, or a multiple, of checked tensors (the
    arithmetic below) is built by _combine, with no second scan.
    `components` is the rank-four array of one tensor, derived on access.
    Values compare by identity.
    """

    space: EuclideanSpace
    matrix: np.ndarray

    # an array of per-trial factors times a tensor is the tensor's __rmul__
    __array_ufunc__ = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        d = self.space.bivector_dim
        if self.matrix.ndim not in (2, 3) or self.matrix.shape[-2:] != (d, d):
            raise SymmetryError(f"operator must have shape {(d, d)} or (trials, {d}, {d}), got {self.matrix.shape}")
        check_operator_symmetries(self.matrix)

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

    def _operand(self, other: "CurvatureTensor") -> np.ndarray:
        """other's matrix, or GeometryError unless other is on this space."""
        if other.space != self.space:
            raise GeometryError("tensors on two spaces do not combine: "
                                f"{self.space.kind} R^{self.space.n} and {other.space.kind} R^{other.space.n}")
        return other.matrix

    def __add__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        return _combine(self.space, self.matrix + self._operand(other))

    def __sub__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        return _combine(self.space, self.matrix - self._operand(other))

    def __mul__(self, scalar) -> "CurvatureTensor":
        """A float scales every trial; a (T,) array scales trial t by its
        entry t, and makes a stack of one tensor.  A non-finite factor, or a
        product that overflows, raises SymmetryError."""
        if not np.isfinite(scalar).all():
            raise SymmetryError(f"non-finite factor {scalar}")
        return _combine(self.space, self.matrix * _per_trial(scalar))

    __rmul__ = __mul__

    def norm_sq(self):
        """Component-array squared norm (four times the operator convention)."""
        return _value(4.0 * (self.matrix**2).sum(axis=(-2, -1)))

    def inner(self, other: "CurvatureTensor"):
        """Component-array inner product (four times the Frobenius pairing)."""
        return _value(4.0 * (self.matrix * other.matrix).sum(axis=(-2, -1)))


@dataclass(init=False, eq=False)
class CurvatureOperator:
    """Symmetric operator on bivectors, with no public constructor.  On the
    full bivector space (algebra None) it comes only from to_operator, which
    aliases the tensor's matrix in the lexicographic pair basis; restricted to
    a subalgebra, only from holonomy.project, in the coordinates of the
    algebra's orthonormal basis, on the product project froze in place, with
    its spectrum computed at most once.  Values compare by identity."""

    space: EuclideanSpace
    matrix: np.ndarray
    algebra: object | None

    def spectrum(self):
        """Eigendecomposition of the matrix, ascending.  A restricted
        operator keeps it, with read-only arrays, and hands out the same
        object on every call."""
        from .euclid import symmetric_eigen

        if self.algebra is None:
            return symmetric_eigen(self.matrix)
        memo = getattr(self, "_spectrum", None)  # (matrix, SpectralData)
        if memo is None or memo[0] is not self.matrix:
            spec = symmetric_eigen(self.matrix)
            _freeze(spec.values, spec.vectors)
            memo = self._spectrum = (self.matrix, spec)
        return memo[1]

    def norm_sq(self) -> float:
        """Frobenius squared norm (one quarter of the component convention)."""
        return float(np.sum(self.matrix**2))


def _full_operator(op, algebra, what: str):
    """Raise GeometryError unless op is an unrestricted CurvatureOperator on
    the algebra's R^n; `what` starts the first message with its caller."""
    if not isinstance(op, CurvatureOperator) or op.algebra is not None:
        raise GeometryError(f"{what} a full bivector-space operator")
    if algebra.space.n != op.space.n:
        raise GeometryError(f"{algebra.name} acts on R^{algebra.space.n}, the operator on R^{op.space.n}")


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
    # the columns of s and t at each pair's z and w, read at the rows x and y:
    # no D x D index table.  take keeps every factor C-ordered (s[..., rows]
    # would not be), so reductions over the product run in the one-tensor
    # order; columns first, so the second take copies whole rows
    rows, cols = _pair_table(s.shape[-1])
    sz, sw, tz, tw = (a.take(at, axis=-1) for a in (s, t) for at in (rows, cols))
    return (
        sz.take(rows, axis=-2) * tw.take(cols, axis=-2)
        - sw.take(rows, axis=-2) * tz.take(cols, axis=-2)
        + sw.take(cols, axis=-2) * tz.take(rows, axis=-2)
        - sz.take(cols, axis=-2) * tw.take(rows, axis=-2)
    )


def _pair_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator of the array a[x, y] b[z, w] read off at increasing pairs,
    per trial where either is a stack: the product np.outer forms."""
    rows, cols = _pair_table(a.shape[-1])
    at = rows * a.shape[-1] + cols
    return _gather(a, at, 2)[..., :, None] * _gather(b, at, 2)[..., None, :]


def _conjugation_on_bivectors(space: EuclideanSpace, s: np.ndarray) -> np.ndarray:
    """Matrix of xi -> s mat(xi) s^T on the pair basis."""
    # entry (xy, zw) is s[y, w] s[x, z] - s[y, z] s[x, w], read off the rows
    # of s at each pair's x and y: no D x D index table
    ii, jj = space.pair_rows, space.pair_cols
    sx, sy = s[ii], s[jj]
    return sy[:, jj] * sx[:, ii] - sy[:, ii] * sx[:, jj]


def to_operator(rm: CurvatureTensor) -> CurvatureOperator:
    """The stored bivector operator, wrapped without a copy.  A tensor's
    matrix is symmetric by the type invariant, so it is not scanned again.
    This is the one source of full-space operators."""
    return _wrap(CurvatureOperator, space=rm.space, matrix=rm.matrix, algebra=None)


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
    once, in cache.  Its input is checked as in t_hat (`_full_operator`).
    """
    _full_operator(op, algebra, "hat components need")
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
    off-algebra entries its hats need), or an algebra on another R^n, raises
    GeometryError.
    """
    _full_operator(op, algebra, "hat components need")
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


@_shared
def _form_rows(space: EuclideanSpace) -> tuple[np.ndarray, ...]:
    """S[rows, cols] - S[cols, rows] at the increasing pairs for each
    parallel structure S of the space (`EuclideanSpace.structures`: J, or
    I, J, K; none on a generic space), read-only."""
    rows, cols = space.pair_rows, space.pair_cols
    forms = tuple(s[rows, cols] - s[cols, rows] for s in space.structures)
    _freeze(*forms)
    return forms


# ---------------------------------------------------------------------------
# random generation and the tensor file


def random_curvature(space: EuclideanSpace, rng, count: int | None = None) -> CurvatureTensor:
    """Random algebraic curvature tensor: a Gaussian symmetric bivector
    operator, Bianchi-projected, drawn from the Generator rng.  A count draws
    a stack of that many trials in one call, trial t the tensor that the
    t-th of as many one-tensor draws from rng would give."""
    d = space.bivector_dim
    raw = rng.standard_normal((d, d) if count is None else (count, d, d))
    return CurvatureTensor(space, _bianchi_project_matrix(0.5 * (raw + raw.swapaxes(-1, -2))))


# Caps of a tensor file.  Its bytes are checked before it is read, but do not
# bound n (16 MiB of zeros holds the n^4 components of n = 53, whose so(n)
# structure constants are 21 GB), so the record's n and component count are
# checked before any space, array or algebra is built.  MAX_FILE_N is the
# largest size the CLI builds kernels for (4 * MAX_M).
MAX_FILE_BYTES = 1 << 24
MAX_FILE_N = 24


def _record_array(record) -> tuple[EuclideanSpace, np.ndarray]:
    """The standard space of a tensor record's dimension and structure tag,
    and its components as an (n, n, n, n) array.  A dimension that is not a
    JSON integer or is above MAX_FILE_N, or components other than a list of
    n^4 JSON numbers, raises before any space or array is built."""
    try:
        n, structure, components = record["n"], str(record["structure"]), record["components"]
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed tensor record: {exc}") from exc
    if type(n) is not int:  # not isinstance: json's true is an int to it
        raise GeometryError(f"malformed tensor record: n is a {type(n).__name__}, not an integer")
    if not isinstance(components, list):
        kind = type(components).__name__
        raise GeometryError(f"malformed tensor record: components is a {kind}, not a list")
    if n > MAX_FILE_N:
        raise GeometryError(f"dimension {n} is above the size cap {MAX_FILE_N}")
    if len(components) != n**4:
        raise GeometryError(f"expected {n**4} components, got {len(components)}")
    if not set(map(type, components)) <= {float, int}:
        bad = next(i for i, x in enumerate(components) if type(x) not in (float, int))
        kind = type(components[bad]).__name__
        raise GeometryError(f"malformed tensor record: component {bad} is a {kind}, not a number")
    space = standard_space(structure, n)
    try:
        flat = np.fromiter(components, dtype=float, count=len(components))
    except OverflowError as exc:
        raise GeometryError(f"malformed tensor record: {exc}") from exc
    return space, flat.reshape(n, n, n, n)


def load_tensor(path: str) -> CurvatureTensor:
    """The tensor of a tensor file, {"n", "structure", "components"} in JSON
    with the n^4 components in C order, on the standard space of its tag.
    The caps and the record are checked before any space or array is built,
    the symmetries once the parsed record (n^4 Python floats) is dropped.  A
    file that is not UTF-8 JSON, or is nested too deep, is a GeometryError."""
    size = os.path.getsize(path)
    if size > MAX_FILE_BYTES:
        raise GeometryError(f"{path} has {size} bytes, above the cap of {MAX_FILE_BYTES}")
    with open(path) as fh:
        try:
            record = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8; nesting too deep
            raise GeometryError(f"invalid tensor file {path}: {exc}") from exc
    space, t = _record_array(record)
    del record  # about 12 MB of Python floats at n = 24
    return check_curvature_symmetries(space, t)
