"""Euclidean spaces with holonomy structure, bivectors, and symmetric spectra.

A bivector lives in the second exterior power of R^n and is stored as its
coefficient vector over the lexicographic basis {e_i ^ e_j : i < j}.  The
identification with skew matrices follows the convention

    (X ^ Y) Z = <X, Z> Y - <Y, Z> X,

so the matrix of X ^ Y is Y X^T - X Y^T and the matrix of e_i ^ e_j has +1 in
row j, column i.  The inner product on bivectors is half the Frobenius pairing
of the skew matrices, which makes the lexicographic basis orthonormal.

Spaces compare and hash by `structure_key`, so what `_shared` builds once per
space is keyed on its structure, never on a name or an object.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Raised when inputs violate a structural precondition."""


# ---------------------------------------------------------------------------
# pair bookkeeping


@functools.cache
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int]]:
    """Read-only index arrays (rows, cols) and lookup for lexicographic pairs
    i < j, shared by every space of dimension n."""
    rows, cols = [], []
    lookup = {}
    for i in range(n):
        for j in range(i + 1, n):
            lookup[(i, j)] = len(rows)
            rows.append(i)
            cols.append(j)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols, lookup


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of e_i ^ e_j (i < j) in the lexicographic bivector basis."""
    _, _, lookup = _pair_table(n)
    try:
        return lookup[(i, j)]
    except KeyError:
        raise GeometryError(f"({i}, {j}) is not an increasing pair below {n}") from None


# ---------------------------------------------------------------------------
# holonomy structures


_KAEHLER_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])

# Quaternionic action on a coordinate block (f, If, Jf, Kf).
_I_BLOCK = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
_J_BLOCK = np.array(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
_K_BLOCK = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)


def _block_diag(block: np.ndarray, copies: int) -> np.ndarray:
    k = block.shape[0]
    out = np.zeros((k * copies, k * copies))
    for i in range(copies):
        out[k * i : k * (i + 1), k * i : k * (i + 1)] = block
    return out


@dataclass(frozen=True, eq=False)
class HolonomyStructure:
    """Parallel complex or quaternionic structure on R^n.

    kind is one of "generic", "kaehler", "qk".  For "kaehler" the field J
    holds an orthogonal complex structure; for "qk" the triple (I, J, K)
    satisfies the quaternion relations with IJ = K.  The structure keeps
    read-only float copies of the matrices it is given, so what a cache keyed
    on them (`_structure_key`) holds cannot go stale.
    """

    kind: str
    I: np.ndarray | None = None
    J: np.ndarray | None = None
    K: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("generic", "kaehler", "qk"):
            raise GeometryError(f"unknown holonomy kind {self.kind!r}")
        for name in ("I", "J", "K"):
            a = getattr(self, name)
            if a is None:
                continue
            a = np.array(a, dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            n = a.shape[0]
            if a.shape != (n, n):
                raise GeometryError(f"structure {name} must be square")
            if not np.allclose(a @ a, -np.eye(n), atol=1e-12):
                raise GeometryError(f"structure {name} does not square to -identity")
            if not np.allclose(a.T, -a, atol=1e-12):
                raise GeometryError(f"structure {name} is not skew (hence not orthogonal)")
        if self.kind == "kaehler" and self.J is None:
            raise GeometryError("kaehler structure requires J")
        if self.kind == "qk":
            if self.I is None or self.J is None or self.K is None:
                raise GeometryError("quaternion-Kaehler structure requires I, J, K")
            if not np.allclose(self.I @ self.J, self.K, atol=1e-12):
                raise GeometryError("quaternion relations fail: IJ != K")


@dataclass(frozen=True, eq=False)
class EuclideanSpace:
    """R^n with the standard metric and an optional holonomy structure;
    spaces are equal, and hash alike, when their `structure_key`s are."""

    n: int
    structure: HolonomyStructure = field(
        default_factory=lambda: HolonomyStructure("generic")
    )

    def __post_init__(self):
        if self.n < 2:
            raise GeometryError("need dimension at least 2 for a bivector basis")
        if self.kind == "kaehler" and self.n % 2:
            raise GeometryError("kaehler spaces have even dimension")
        if self.kind == "qk" and self.n % 4:
            raise GeometryError("quaternion-Kaehler spaces have dimension 4m")

    @property
    def kind(self) -> str:
        return self.structure.kind

    @property
    def m(self) -> int:
        """Block count: n = 2m for kaehler, n = 4m for qk."""
        if self.kind == "kaehler":
            return self.n // 2
        if self.kind == "qk":
            return self.n // 4
        raise GeometryError("block count is only defined with a holonomy structure")

    @property
    def bivector_dim(self) -> int:
        return pair_count(self.n)

    @property
    def pair_rows(self) -> np.ndarray:
        return _pair_table(self.n)[0]

    @property
    def pair_cols(self) -> np.ndarray:
        return _pair_table(self.n)[1]

    @property
    def I(self) -> np.ndarray:
        if self.structure.I is None:
            raise GeometryError("space carries no I structure")
        return self.structure.I

    @property
    def J(self) -> np.ndarray:
        if self.structure.J is None:
            raise GeometryError("space carries no J structure")
        return self.structure.J

    @property
    def K(self) -> np.ndarray:
        if self.structure.K is None:
            raise GeometryError("space carries no K structure")
        return self.structure.K

    @functools.cached_property
    def structure_key(self) -> tuple:
        """`_structure_key` of this space, built once: the structure's
        matrices are read-only copies, so the key cannot change."""
        return _structure_key(self)

    def __eq__(self, other):
        if not isinstance(other, EuclideanSpace):
            return NotImplemented
        return self.structure_key == other.structure_key

    def __hash__(self):
        return hash(self.structure_key)


def _structure_key(space: EuclideanSpace) -> tuple:
    """What a result built from a space's structure depends on: the kind,
    the dimension and the bytes of I, J and K.  Cache keys use it in place
    of a name, so spaces that share a kind and size but not a structure
    (u(3) on two complex structures) get their own entries.  Callers read it
    once per space, as `EuclideanSpace.structure_key`."""
    st = space.structure
    return (space.kind, space.n) + tuple(b"" if s is None else s.tobytes() for s in (st.I, st.J, st.K))


def _shared(fn):
    """functools.cache behind one lock: fn runs once per argument key, and on
    any thread every caller gets the one result stored.  The lock is held
    through a build, so a racing caller waits for it; it is reentrant, so a
    build may call the function again.  cache_clear and cache_info are those
    of the cache, and __wrapped__ is the uncached fn."""
    cached = functools.cache(fn)
    lock = threading.RLock()

    @functools.wraps(fn)
    def shared(*args):
        with lock:
            return cached(*args)

    shared.cache_clear, shared.cache_info = cached.cache_clear, cached.cache_info
    return shared


def generic(n: int) -> EuclideanSpace:
    """R^n with no extra structure (full rotation algebra as holonomy)."""
    return EuclideanSpace(n)


def kaehler(m: int) -> EuclideanSpace:
    """R^{2m} with the standard block complex structure."""
    if m < 1:
        raise GeometryError("kaehler block count must be positive")
    J = _block_diag(_KAEHLER_BLOCK, m)
    return EuclideanSpace(2 * m, HolonomyStructure("kaehler", J=J))


def quaternion_kaehler(m: int) -> EuclideanSpace:
    """R^{4m} with the standard quaternionic triple (I, J, K), IJ = K.

    Coordinates come in quadruples (f, If, Jf, Kf); m >= 2 because the
    four-dimensional case degenerates into a product of rotation planes.
    """
    if m < 2:
        raise GeometryError("quaternion-Kaehler block count must be at least 2")
    return EuclideanSpace(
        4 * m,
        HolonomyStructure(
            "qk",
            I=_block_diag(_I_BLOCK, m),
            J=_block_diag(_J_BLOCK, m),
            K=_block_diag(_K_BLOCK, m),
        ),
    )


# ---------------------------------------------------------------------------
# bivectors


@dataclass
class Bivector:
    """Element of the second exterior power, stored over lexicographic pairs."""

    space: EuclideanSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.bivector_dim,):
            raise GeometryError(
                f"expected {self.space.bivector_dim} coefficients, "
                f"got shape {self.coeffs.shape}"
            )

    def matrix(self) -> np.ndarray:
        """Skew matrix acting on R^n; +coeff in row j, column i for pair (i, j)."""
        n = self.space.n
        a = np.zeros((n, n))
        a[self.space.pair_cols, self.space.pair_rows] = self.coeffs
        a[self.space.pair_rows, self.space.pair_cols] = -self.coeffs
        return a

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "Bivector":
        nrm = self.norm()
        if nrm == 0.0:
            raise GeometryError("cannot normalize the zero bivector")
        return Bivector(self.space, self.coeffs / nrm)

    def __add__(self, other: "Bivector") -> "Bivector":
        self._check_same_space(other)
        return Bivector(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other: "Bivector") -> "Bivector":
        self._check_same_space(other)
        return Bivector(self.space, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Bivector":
        return Bivector(self.space, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Bivector":
        return Bivector(self.space, self.coeffs / float(scalar))

    def __neg__(self) -> "Bivector":
        return Bivector(self.space, -self.coeffs)

    def _check_same_space(self, other: "Bivector"):
        if other.space.n != self.space.n:
            raise GeometryError("bivectors live on spaces of different dimension")


def from_matrix(space: EuclideanSpace, a: np.ndarray) -> Bivector:
    """Bivector whose skew matrix is a; the skew part of a is used."""
    s = 0.5 * (a - a.T)
    return Bivector(space, s[space.pair_cols, space.pair_rows])


def wedge(space: EuclideanSpace, x: np.ndarray, y: np.ndarray) -> Bivector:
    """x ^ y with the action (x ^ y) z = <x, z> y - <y, z> x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (space.n,) or y.shape != (space.n,):
        raise GeometryError("wedge arguments must be vectors of the ambient dimension")
    ii, jj = space.pair_rows, space.pair_cols
    return Bivector(space, x[ii] * y[jj] - x[jj] * y[ii])


def bivector_apply(xi: Bivector, z: np.ndarray) -> np.ndarray:
    """Action of xi on a vector through its skew matrix."""
    z = np.asarray(z, dtype=float)
    if z.shape != (xi.space.n,):
        raise GeometryError("vector has wrong dimension for this bivector")
    return xi.matrix() @ z


def bracket(xi: Bivector, eta: Bivector) -> Bivector:
    """Lie bracket, the commutator of the skew matrices."""
    xi._check_same_space(eta)
    a, b = xi.matrix(), eta.matrix()
    return from_matrix(xi.space, a @ b - b @ a)


def inner(xi: Bivector, eta: Bivector) -> float:
    """Half-Frobenius pairing; the lexicographic pair basis is orthonormal."""
    xi._check_same_space(eta)
    return float(xi.coeffs @ eta.coeffs)


# ---------------------------------------------------------------------------
# symmetric spectra


@dataclass
class SpectralData:
    """Eigendecomposition of a symmetric operator, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray  # columns are orthonormal eigenvectors

    def multiplicities(self, gap: float = 1e-6) -> list[tuple[float, int]]:
        """Cluster eigenvalues; returns (mean, count) pairs.

        Neighbours join a cluster when they differ by at most
        gap * max|eigenvalue|, so an operator and any positive multiple of it
        cluster alike.  No floor: 1 + max|eigenvalue| would leave the gap
        absolute below unit scale.
        """
        out: list[tuple[float, int]] = []
        start = 0
        tol = gap * float(np.abs(self.values).max(initial=0.0))
        for i in range(1, len(self.values) + 1):
            if i == len(self.values) or self.values[i] - self.values[i - 1] > tol:
                chunk = self.values[start:i]
                out.append((float(chunk.mean()), len(chunk)))
                start = i
        return out

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


# relative tolerance of the symmetry scan that both symmetric solvers make
_SYMMETRY_RTOL = 1e-10


def _symmetrized(matrix: np.ndarray, rtol: float, solver: str) -> np.ndarray:
    """0.5 * (M + M^T) of a square matrix M that is symmetric to
    rtol * (1 + max|entry|); raises GeometryError otherwise.  The one
    validation of both symmetric solvers, named solver in its messages."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GeometryError(f"{solver} expects a square matrix")
    scale = 1.0 + float(np.abs(matrix).max(initial=0.0))
    if float(np.abs(matrix - matrix.T).max(initial=0.0)) > rtol * scale:
        raise GeometryError("matrix is not symmetric")
    return 0.5 * (matrix + matrix.T)


def symmetric_eigen(matrix: np.ndarray, rtol: float = _SYMMETRY_RTOL) -> SpectralData:
    """Eigendecomposition of a symmetric matrix with a deterministic sign fix.

    Raises GeometryError for non-square or non-symmetric input (measured
    against rtol * (1 + max|entry|)) and when the solver fails to converge.
    Each eigenvector is normalized so its largest-magnitude entry is positive,
    which pins the output independent of the backing LAPACK build.
    """
    sym = _symmetrized(matrix, rtol, "symmetric_eigen")
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"eigensolver did not converge: {exc}") from exc
    return SpectralData(values=values, vectors=_sign_fix(vectors.T).T)


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, with no eigenvectors.

    The checks of symmetric_eigen at its default tolerance, on a cheaper
    LAPACK path (eigvalsh), so the values agree with
    symmetric_eigen(matrix).values to rounding, not to the bit.  For callers
    that read no eigenvector.
    """
    sym = _symmetrized(matrix, _SYMMETRY_RTOL, "symmetric_eigenvalues")
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"eigensolver did not converge: {exc}") from exc


def _sign_fix(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry (the first one, on ties)
    is positive; returns a new array with the memory layout of rows."""
    lead = np.argmax(np.abs(rows), axis=1)
    flip = rows[np.arange(rows.shape[0]), lead] < 0
    return rows * np.where(flip, -1.0, 1.0)[:, None]
