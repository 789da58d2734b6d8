"""Algebraic curvature tensors and their operator form on bivectors.

Conventions, fixed once here and relied on everywhere else:

* a curvature tensor is stored as its bivector operator: the symmetric
  D x D matrix M (D = n(n-1)/2) in the lexicographic pair basis, with
  M[ij, kl] = T[i, j, k, l] for i < j, k < l.  The pair antisymmetries hold
  by construction; pair interchange is the symmetry of M, and the first
  Bianchi identity T[x,y,z,w] + T[y,z,x,w] + T[z,x,y,w] = 0 is checked at
  the C(n,4) increasing quadruples.  Both are part of the type invariant;
* the rank-four component array is derived from M on request.  Rank-four
  arrays that come from outside (files, the Grassmannian formula, raw
  arrays handed to t_hat) are validated slot by slot with
  check_curvature_symmetries before they are gathered into an operator;
* the operator of the metric double product g (*) g is twice the identity
  on bivectors;
* squared norms: the component-array norm of a curvature tensor is four
  times the Frobenius norm of its bivector operator.  Functions below say
  which one they return;
* hat components (derivatives along an algebra's basis rotations) are
  computed on bivector operators, H_a = N_a R + (N_a R)^T with N_a the
  action of generator a on the pairs.  N_a R comes from the algebra's
  action_blocks, dense blocks keyed on sign-flip characters, one batched
  product per chunk of generators and block shape; the dense stack of the
  N_a is never formed.  _hat_chunks is the one routine that fills hats, a
  chunk at a time, into the views of a stack or into one reused buffer.
  t_hat returns the whole (dim, D, D) stack of the H_a, Frobenius
  convention, for an unrestricted CurvatureOperator, and rank-four
  component arrays scattered from it, component convention, for a
  CurvatureTensor.  lie_action keeps the slot-by-slot definition as the
  independent single-generator reference.  Hats are reduced only in
  criteria.

Products, traces and projections act on the operator through pair-index
formulas with index tables cached per dimension.  The rank-four routes
(bianchi_sum, bianchi_project, _lie_array) stay as the references the tests
check the pair-index formulas against.

What depends only on the dimension or the structure is built once and
shared read-only, so per-sample calls touch only the sample: per dimension
(functools.cache) the index tables, the flat indices of the Bianchi
projection (_project_flat) and the operator of g (*) g (_kn_metric); per
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
    Bivector,
    EuclideanSpace,
    GeometryError,
    _pair_table,
    _shared,
    generic,
    kaehler,
    quaternion_kaehler,
)


class SymmetryError(GeometryError):
    """Raised when an array fails the curvature symmetry validation."""


def _sym_scale(a: np.ndarray) -> float:
    return 1.0 + float(np.abs(a).max(initial=0.0))


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
    rows, cols, _ = _pair_table(n)
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
def _quad_flat(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into a D x D operator of (ij, kl), (jk, il), (ik, jl) at
    every quadruple i < j < k < l (see _quad_pairs)."""
    d = n * (n - 1) // 2
    ij, kl, jk, il, ik, jl = _quad_pairs(n)
    out = (ij * d + kl, jk * d + il, ik * d + jl)
    _freeze(*out)
    return out


@functools.cache
def _project_flat(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a D x D operator of the slots _bianchi_project_matrix
    writes at every quadruple i < j < k < l: (3, C(n,4)) arrays of
    (ij, kl), (ik, jl), (il, jk) and of their transposes."""
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
    rows, cols, _ = _pair_table(n)
    x, y = rows[:, None] * n, cols[:, None] * n
    z, w = rows[None, :], cols[None, :]
    out = (x + z, y + w, x + w, y + z)
    _freeze(*out)
    return out


@functools.cache
def _contraction_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pair, weight) with T[s, x, s, w] = weight[s, x, w] * M[pair[s, x], pair[s, w]].

    weight is sign(x - s) * sign(w - s): the sign of reading each slot pair
    off an increasing pair, zero when s repeats an index.
    """
    pair = _pair_lookup(n)
    sign = np.sign(np.arange(n)[None, :] - np.arange(n)[:, None]).astype(float)
    weight = sign[:, :, None] * sign[:, None, :]
    _freeze(weight)
    return pair, weight


@functools.cache
def _dim_of_pairs(d: int) -> int:
    """Dimension n with n(n-1)/2 = d, or SymmetryError."""
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * d)) / 2.0))
    if n < 2 or n * (n - 1) // 2 != d:
        raise SymmetryError(f"{d} is not the bivector dimension of any R^n")
    return n


# ---------------------------------------------------------------------------
# symmetry validation and Bianchi projection


def check_curvature_symmetries(t: np.ndarray, rtol: float = 1e-10):
    """Raise SymmetryError unless the rank-four array t has all curvature
    symmetries plus Bianchi."""
    tol = rtol * _sym_scale(t)
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
    """Bianchi sum T[i,j,k,l] + T[j,k,i,l] + T[k,i,j,l], over 3, of the
    tensor with operator mat, at every quadruple i < j < k < l."""
    f1, f2, f3 = _quad_flat(n)
    flat = mat.ravel()
    return (flat[f1] + flat[f2] - flat[f3]) / 3.0


def check_operator_symmetries(mat: np.ndarray, rtol: float = 1e-10):
    """Raise SymmetryError unless the D x D matrix mat is the operator of a
    curvature tensor: symmetric, and Bianchi at the increasing quadruples.

    Same tolerance and messages as check_curvature_symmetries on the array
    scattered from mat, whose largest entry is mat's; the pair
    antisymmetries of that array hold by construction.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SymmetryError(f"operator must be a square matrix, got shape {mat.shape}")
    n = _dim_of_pairs(mat.shape[0])
    tol = rtol * _sym_scale(mat)
    r = float(np.abs(mat - mat.T).max(initial=0.0))
    if r > tol:
        raise SymmetryError(f"not symmetric under pair interchange, residual {r:.3e}")
    r = float(np.abs(_quad_bianchi(mat, n)).max(initial=0.0))
    if r > tol:
        raise SymmetryError(f"first Bianchi identity fails, residual {r:.3e}")


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
    """bianchi_project on the operator of an exactly symmetric matrix.

    The removed part is the four-form with value b at (ij, kl), -b at
    (ik, jl) and b at (il, jk), b the Bianchi sum at i < j < k < l.  Each
    slot subtracts the cyclic sum in the order bianchi_project adds it at
    that slot, so the result is the same to the last bit.
    """
    first, second = _project_flat(_dim_of_pairs(mat.shape[0]))
    src = mat.ravel()
    a, b, c = src[first[0]], src[second[2]], src[first[1]]  # (ij, kl), (jk, il), (ik, jl)
    out = mat.copy()
    flat = out.ravel()  # a view: out is a fresh C-ordered copy
    for pq, qp, cyc in zip(first, second, (a - c + b, c - a - b, b + a - c)):
        flat[pq] -= cyc / 3.0
        flat[qp] = flat[pq]
    return out


# ---------------------------------------------------------------------------
# core types


@dataclass
class CurvatureTensor:
    """Algebraic curvature tensor on a Euclidean space, stored as its
    symmetric bivector operator `matrix` (see the module conventions).

    The matrix is validated with check_operator_symmetries unless validate
    is False.  `components` is the rank-four array, derived on access.
    """

    space: EuclideanSpace
    matrix: np.ndarray
    validate: bool = True

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        d = self.space.bivector_dim
        if self.matrix.shape != (d, d):
            raise SymmetryError(f"operator must have shape {(d, d)}, got {self.matrix.shape}")
        if self.validate:
            check_operator_symmetries(self.matrix)

    @classmethod
    def from_components(
        cls, space: EuclideanSpace, components, validate: bool = True
    ) -> "CurvatureTensor":
        """Tensor from a rank-four component array, validated slot by slot
        with check_curvature_symmetries and read off at increasing pairs."""
        arr = np.asarray(components, dtype=float)
        n = space.n
        if arr.shape != (n, n, n, n):
            raise SymmetryError(f"components must have shape {(n, n, n, n)}, got {arr.shape}")
        if validate:
            check_curvature_symmetries(arr)
        ii, jj = space.pair_rows, space.pair_cols
        mat = arr[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
        return cls(space, mat, validate=False)

    @property
    def components(self) -> np.ndarray:
        """Rank-four component array scattered from the operator.

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

    def __mul__(self, scalar: float) -> "CurvatureTensor":
        return CurvatureTensor(self.space, self.matrix * float(scalar), validate=False)

    __rmul__ = __mul__

    def __neg__(self) -> "CurvatureTensor":
        return CurvatureTensor(self.space, -self.matrix, validate=False)

    def norm_sq(self) -> float:
        """Component-array squared norm (four times the operator convention)."""
        return 4.0 * float(np.sum(self.matrix**2))

    def inner(self, other: "CurvatureTensor") -> float:
        """Component-array inner product (four times the Frobenius pairing)."""
        return 4.0 * float(np.sum(self.matrix * other.matrix))


@dataclass
class CurvatureOperator:
    """Symmetric operator on bivectors, optionally restricted to a subalgebra.

    With algebra None the matrix acts on the full bivector space in the
    lexicographic pair basis, aliasing the tensor's matrix (to_operator);
    otherwise it acts in the coordinates of the algebra's orthonormal basis,
    on a read-only copy whose spectrum is computed at most once.
    """

    space: EuclideanSpace
    matrix: np.ndarray
    algebra: object | None = None

    def __post_init__(self):
        if self.algebra is None:
            self.matrix = np.asarray(self.matrix, dtype=float)
            d = self.space.bivector_dim
        else:
            self.matrix = np.array(self.matrix, dtype=float)
            _freeze(self.matrix)
            d = self.algebra.dim
        if self.matrix.shape != (d, d):
            raise GeometryError(f"operator matrix must be {d} x {d}, got {self.matrix.shape}")
        if float(np.abs(self.matrix - self.matrix.T).max(initial=0.0)) > 1e-10 * _sym_scale(self.matrix):
            raise GeometryError("operator matrix is not symmetric")
        self._spectrum = None  # (matrix, SpectralData) of a restricted operator

    @classmethod
    def _wrap(cls, space: EuclideanSpace, matrix: np.ndarray) -> "CurvatureOperator":
        """An unrestricted operator on matrix, aliased, with no checks: for a
        float D x D matrix that is symmetric by construction."""
        op = cls.__new__(cls)
        op.space, op.matrix, op.algebra, op._spectrum = space, matrix, None, None
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

    def trace(self) -> float:
        return float(np.trace(self.matrix))


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


def _kn_matrix(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Double product of two bilinear forms at increasing pairs (x, y), (z, w);
    curvature symmetries need both symmetric or both antisymmetric, and
    Bianchi only holds in the symmetric case."""
    xz, yw, xw, yz = _kn_tables(s.shape[0])
    s, t = s.ravel(), t.ravel()
    return s[xz] * t[yw] - s[xw] * t[yz] + s[yw] * t[xz] - s[yz] * t[xw]


def _pair_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator of the array a[x, y] b[z, w] read off at increasing pairs."""
    rows, cols, _ = _pair_table(a.shape[0])
    return np.outer(a[rows, cols], b[rows, cols])


def _conjugation_on_bivectors(space: EuclideanSpace, s: np.ndarray) -> np.ndarray:
    """Matrix of xi -> s mat(xi) s^T on the pair basis."""
    # entry (xy, zw) is s[y, w] s[x, z] - s[y, z] s[x, w]
    xz, yw, xw, yz = _kn_tables(space.n)
    s = s.ravel()
    return s[yw] * s[xz] - s[yz] * s[xw]


def kulkarni_nomizu(space: EuclideanSpace, s: np.ndarray, t: np.ndarray) -> CurvatureTensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms.

    For s = t = g this gives twice the identity operator on bivectors.
    Antisymmetric inputs break the Bianchi identity and are rejected; the
    decomposition code uses the raw operator combination internally where
    such terms cancel against each other.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    n = space.n
    if s.shape != (n, n) or t.shape != (n, n):
        raise GeometryError("forms must be square matrices of the ambient dimension")
    for name, a in (("first", s), ("second", t)):
        if float(np.abs(a - a.T).max(initial=0.0)) > 1e-10 * _sym_scale(a):
            raise GeometryError(f"{name} form is not symmetric")
    return CurvatureTensor(space, _kn_matrix(s, t))


def to_operator(rm: CurvatureTensor) -> CurvatureOperator:
    """The stored bivector operator, wrapped without a copy.  A tensor's
    matrix is symmetric by the type invariant, so it is not scanned again;
    CurvatureOperator(space, matrix) still checks matrices from outside."""
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


def from_operator(op: CurvatureOperator) -> CurvatureTensor:
    """Inverse of to_operator, on a copy of the matrix.  The operator must
    act on the full bivector space and satisfy the Bianchi constraint,
    otherwise SymmetryError."""
    if op.algebra is not None:
        raise GeometryError("from_operator needs a full bivector-space operator")
    return CurvatureTensor(op.space, np.array(op.matrix))


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


def lie_action(gen: Bivector, t):
    """Infinitesimal rotation action of a bivector on a tensor.

    Accepts a rank-2 or rank-4 ndarray, or a CurvatureTensor; returns the
    same kind.  The action preserves the curvature symmetry class.
    """
    a = gen.matrix()
    if isinstance(t, CurvatureTensor):
        return CurvatureTensor.from_components(t.space, _lie_array(a, t.components), validate=False)
    return _lie_array(a, np.asarray(t, dtype=float))


def _hat_chunks(op: CurvatureOperator, algebra, stack: np.ndarray | None = None):
    """Operator hats H_a = N_a R + (N_a R)^T of op by chunks of generators
    (`algebra.chunk_size`), in order: yields (lo, hats), hats (size, D, D).

    N_a R is written row by row from the chunk's action_blocks entries, then
    symmetrized one slice at a time.  The chunks are the views of stack, or
    else all one buffer that the next chunk overwrites.
    """
    n_pairs = op.space.bivector_dim
    size = algebra.chunk_size
    buffer = np.empty((min(size, algebra.dim), n_pairs, n_pairs)) if stack is None else None
    entries, turned, k = algebra.action_blocks, np.empty((n_pairs, n_pairs)), 0
    for lo in range(0, algebra.dim, size):
        hi = min(lo + size, algebra.dim)
        hats = stack[lo:hi] if buffer is None else buffer[: hi - lo]
        hats.fill(0.0)
        rows = hats.reshape(-1, n_pairs)
        while k < len(entries) and entries[k][2].flat[0] < hi * n_pairs:  # N_a R
            blocks, sources, targets = entries[k]
            rows[targets.ravel() - lo * n_pairs] = (blocks @ op.matrix[sources]).reshape(-1, n_pairs)
            k += 1
        for h in hats:  # h + h^T in place, one slice at a time, in cache
            np.copyto(turned, h.T)
            h += turned
        yield lo, hats


def t_hat(t, algebra) -> np.ndarray | list[np.ndarray]:
    """Derivatives of t along an algebra's basis rotations, in basis order.

    * CurvatureOperator on the full bivector space: one (dim, D, D) stack of
      hat operators H_a = N_a R + (N_a R)^T, filled chunk by chunk
      (`_hat_chunks`); squared norms are Frobenius norms (operator
      convention).
    * CurvatureTensor, or a rank-four array validated as one: a list of
      rank-four component arrays, each scattered from the operator hat, so
      its squared norm is four times the Frobenius norm of H_a (component
      convention).
    * rank-two array: a list of rank-two arrays, the derivation per slot.

    A restricted operator has lost the off-algebra entries its hats need and
    raises GeometryError.
    """
    if isinstance(t, CurvatureOperator):
        if t.algebra is not None:
            raise GeometryError("hat components need a full bivector-space operator")
        op = t
    else:
        if not isinstance(t, CurvatureTensor):
            arr = np.asarray(t, dtype=float)
            if arr.ndim == 2:
                return [_lie_array(a, arr) for a in algebra.matrices]
            t = CurvatureTensor.from_components(algebra.space, arr)
        op = to_operator(t)
    hats = np.empty((algebra.dim, op.space.bivector_dim, op.space.bivector_dim))
    for _ in _hat_chunks(op, algebra, hats):
        pass
    if op is t:
        return hats
    return [_tensor_array_from_matrix(op.space, h) for h in hats]


# ---------------------------------------------------------------------------
# traces


def ricci(rm: CurvatureTensor) -> np.ndarray:
    """Contraction over the first slots of each pair, sum_s T[s, x, s, w]."""
    pair, weight = _contraction_tables(rm.space.n)
    gathered = rm.matrix[pair[:, :, None], pair[:, None, :]]
    return (weight * gathered).sum(axis=0)


def scalar(rm: CurvatureTensor) -> float:
    """Full metric trace; equals twice the trace of the bivector operator."""
    return 2.0 * float(np.trace(rm.matrix))


def total_traces(rm: CurvatureTensor) -> list[float]:
    """Norms of the independent first-pair contractions.

    Always contains the Frobenius norm of the Ricci contraction; in the
    presence of complex or quaternionic structures the contractions against
    each parallel form are appended.  All entries vanish on the totally
    trace-free summand of the curvature decomposition.
    """
    out = [float(np.linalg.norm(ricci(rm)))]
    for form in _form_rows(rm.space):
        # 0.5 sum_{s,t} S[s, t] T[s, t, z, w] at z < w; the n x n contraction
        # is skew, so its Frobenius norm is sqrt(2) times that of these entries
        contr = 0.5 * (form @ rm.matrix)
        out.append(float(np.sqrt(2.0) * np.linalg.norm(contr)))
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


def random_curvature(
    space: EuclideanSpace, rng: np.random.Generator | None = None, seed: int | None = None
) -> CurvatureTensor:
    """Random algebraic curvature tensor: a Gaussian symmetric bivector
    operator, Bianchi-projected."""
    if rng is None:
        rng = np.random.default_rng(seed)
    d = space.bivector_dim
    raw = rng.standard_normal((d, d))
    return CurvatureTensor(space, _bianchi_project_matrix(0.5 * (raw + raw.T)))


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


def tensor_from_dict(data: dict, space: EuclideanSpace | None = None) -> CurvatureTensor:
    """Rebuild a tensor from its dictionary form, validating shape and
    symmetries.  A caller-provided space must match the stored metadata."""
    try:
        n = int(data["n"])
        structure = str(data["structure"])
        flat = np.asarray(data["components"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed tensor record: {exc}") from exc
    if space is None:
        space = _space_for(n, structure)
    elif space.n != n or space.kind != structure:
        raise GeometryError(
            f"stored tensor is {structure} in dimension {n}, "
            f"target space is {space.kind} in dimension {space.n}"
        )
    if flat.shape != (n**4,):
        raise GeometryError(f"expected {n**4} components, got {flat.shape[0]}")
    return CurvatureTensor.from_components(space, flat.reshape(n, n, n, n))


def save_tensor(rm: CurvatureTensor, path: str):
    with open(path, "w") as fh:
        json.dump(tensor_to_dict(rm), fh)
        fh.write("\n")


def load_tensor(path: str, space: EuclideanSpace | None = None) -> CurvatureTensor:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"invalid tensor file {path}: {exc}") from exc
    return tensor_from_dict(data, space)
