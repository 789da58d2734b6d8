"""Euclidean spaces, pair bookkeeping and symmetric spectra.

A space is one validated value, `EuclideanSpace(n, kind, I, J, K)`: R^n with
the parallel structures its holonomy kind holds, checked when it is built.
The kinds have one table, `_KINDS`; other modules read a space's structures
as `EuclideanSpace.structures` and build standard spaces by `standard_space`.

The second exterior power of R^n is coordinatized over the lexicographic
pairs {(i, j) : i < j}; `EuclideanSpace.pair_rows` and `pair_cols` list them
in that order.  Coefficient rows over these pairs are the library's one
representation of a bivector, and `holonomy.HolonomyAlgebra.matrices` holds
their skew matrices.

Spaces compare and hash by `structure_key`, so what `_shared` builds once per
space is keyed on its structure, never on a name or an object.  Every check
of an operator in the library raises by one rule, written in `_first_over`.
Builds whose bytes move with the BLAS pool size run under `_one_blas_thread`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised when inputs violate a structural precondition."""


# ---------------------------------------------------------------------------
# pair bookkeeping


@functools.cache
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (rows, cols) of the lexicographic pairs i < j,
    shared by every space of dimension n."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# spaces


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


# The holonomy kinds: the parallel structures each one holds, in I, J, K
# order, and the real dimension of one block, so n = block * m.
_KINDS = {"generic": ("", 1), "kaehler": ("J", 2), "qk": ("IJK", 4)}


def _block_diag(block: np.ndarray, copies: int) -> np.ndarray:
    k = block.shape[0]
    out = np.zeros((k * copies, k * copies))
    for i in range(copies):
        out[k * i : k * (i + 1), k * i : k * (i + 1)] = block
    return out


@dataclass(frozen=True, eq=False)
class EuclideanSpace:
    """R^n with the standard metric and the parallel structure of its kind.

    kind is one of "generic", "kaehler", "qk", and the space holds exactly
    that kind's matrices: none, an orthogonal complex structure J, or a
    triple (I, J, K) with the quaternion relations and IJ = K; a matrix the
    kind does not hold is None.  The space keeps read-only float copies of
    the n x n matrices it is given, so what a cache keyed on them
    (`_structure_key`) holds cannot go stale.  Spaces are equal, and hash
    alike, when their `structure_key`s are.
    """

    n: int
    kind: str
    I: np.ndarray | None = None
    J: np.ndarray | None = None
    K: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "dimension"))
        if self.n < 2:
            raise GeometryError("need dimension at least 2 for a bivector basis")
        if self.kind not in _KINDS:
            raise GeometryError(f"unknown holonomy kind {self.kind!r}")
        for name in "IJK":
            a = getattr(self, name)
            if (a is None) == (name in _KINDS[self.kind][0]):
                raise GeometryError(f"a {self.kind} space {'needs' if a is None else 'holds no'} structure {name}")
            if a is None:
                continue
            a = np.array(a, dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            if a.shape != (self.n, self.n):
                raise GeometryError(f"structure {name} has shape {a.shape}, not {(self.n, self.n)}")
            if not np.allclose(a @ a, -np.eye(self.n), rtol=0.0, atol=1e-12):
                raise GeometryError(f"structure {name} does not square to -identity")
            if not np.allclose(a.T, -a, rtol=0.0, atol=1e-12):
                raise GeometryError(f"structure {name} is not skew (hence not orthogonal)")
        if self.kind == "qk" and not np.allclose(self.I @ self.J, self.K, rtol=0.0, atol=1e-12):
            raise GeometryError("quaternion relations fail: IJ != K")

    @property
    def m(self) -> int:
        """Block count: n = 2m for kaehler, n = 4m for qk."""
        if not self.structures:
            raise GeometryError("block count is only defined with a holonomy structure")
        return self.n // _KINDS[self.kind][1]

    @property
    def structures(self) -> tuple[np.ndarray, ...]:
        """The parallel structures the space holds, in I, J, K order: none on
        a generic space, (J,) on a kaehler one, (I, J, K) on a qk one."""
        return tuple(getattr(self, name) for name in _KINDS[self.kind][0])

    @property
    def bivector_dim(self) -> int:
        return pair_count(self.n)

    @property
    def pair_rows(self) -> np.ndarray:
        return _pair_table(self.n)[0]

    @property
    def pair_cols(self) -> np.ndarray:
        return _pair_table(self.n)[1]

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
    return (space.kind, space.n) + tuple(b"" if s is None else s.tobytes() for s in (space.I, space.J, space.K))


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


def _integer(value, what: str) -> int:
    """value as an int (a numpy integer passes), or GeometryError."""
    try:
        return operator.index(value)
    except TypeError:
        raise GeometryError(f"{what} must be an integer, got {value!r}") from None


def generic(n: int) -> EuclideanSpace:
    """R^n with no extra structure (full rotation algebra as holonomy)."""
    return EuclideanSpace(n, "generic")


def kaehler(m: int) -> EuclideanSpace:
    """R^{2m} with the standard block complex structure."""
    if _integer(m, "block count") < 1:
        raise GeometryError("kaehler block count must be positive")
    J = _block_diag(_KAEHLER_BLOCK, m)
    return EuclideanSpace(2 * m, "kaehler", J=J)


def quaternion_kaehler(m: int) -> EuclideanSpace:
    """R^{4m} with the standard quaternionic triple (I, J, K), IJ = K.

    Coordinates come in quadruples (f, If, Jf, Kf); m >= 2 because the
    four-dimensional case degenerates into a product of rotation planes.
    """
    if _integer(m, "block count") < 2:
        raise GeometryError("quaternion-Kaehler block count must be at least 2")
    return EuclideanSpace(4 * m, "qk", *(_block_diag(block, m) for block in (_I_BLOCK, _J_BLOCK, _K_BLOCK)))


def standard_space(kind: str, n: int) -> EuclideanSpace:
    """The standard space of a kind and dimension: generic(n), kaehler(n / 2)
    or quaternion_kaehler(n / 4).  GeometryError on an unknown kind, or when
    n is not a whole number of the kind's blocks."""
    if kind not in _KINDS:
        raise GeometryError(f"unknown holonomy kind {kind!r}")
    block = _KINDS[kind][1]
    if _integer(n, "dimension") % block:
        raise GeometryError(f"{kind} structure needs dimension {block}m, got {n}")
    return {"generic": generic, "kaehler": kaehler, "qk": quaternion_kaehler}[kind](n // block)


# ---------------------------------------------------------------------------
# BLAS threads


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles (scipy-openblas, 64-bit interface),
    opened once, with its thread count's get and set typed; None when numpy
    carries none, as with another BLAS build.  Loading the file numpy has
    already loaded gives the same library, so its pool is the one numpy's
    products run on."""
    numpy_dir = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


_blas_lock = threading.Lock()
_blas_holds = [0, 1]  # holds open now, and the pool size the first one found


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread and restore its count after; yields
    whether it could (False without the library).  A threaded product splits
    its sums differently, which moves values at rounding level, so only
    under this hold are bytes the same at every OPENBLAS_NUM_THREADS.  Holds
    nest and overlap across threads: the first one in sets the pool to one
    thread, the last one out restores it."""
    lib = _openblas()
    if lib is None:
        yield False
        return
    with _blas_lock:
        if not _blas_holds[0]:
            _blas_holds[1] = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _blas_holds[0] += 1
    try:
        yield True
    finally:
        with _blas_lock:
            _blas_holds[0] -= 1
            if not _blas_holds[0]:
                lib.scipy_openblas_set_num_threads64_(_blas_holds[1])


# ---------------------------------------------------------------------------
# symmetric spectra


@dataclass(eq=False)
class SpectralData:
    """Eigendecomposition of a symmetric operator, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray  # columns are orthonormal eigenvectors

    def multiplicities(self, gap: float) -> list[tuple[float, int]]:
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


# rtol of every symmetry scan, _first_over's unless a caller sets its own
_SYMMETRY_RTOL = 1e-10


def _first_over(a: np.ndarray, residuals, rtol: float = _SYMMETRY_RTOL):
    """The check rule: a trial passes when its entries are finite and each of
    its residuals is at most rtol * (1 + max|entry|), NaN failing.  A trial
    is a matrix over the last two axes; a holds one, or a stack over its
    leading axes in C order.  None when every trial passes, else (trial, k,
    value) of the first that fails: k and value its first residual over, or
    None and NaN when an entry is not finite.  residuals(b) gives each
    residual of the trials of b, a float for one trial or a per-trial array;
    b is a, or the trials before the first non-finite one, so no residual is
    formed from a non-finite entry."""
    scale = 1.0 + abs(a).max(axis=(-2, -1), initial=0.0)  # NaN or inf exactly when an entry is
    finite = np.isfinite(scale)
    if finite.all():
        values = residuals(a)
        if (functools.reduce(np.maximum, values) <= rtol * scale).all():  # the worst is NaN if any is
            return None
        bad = scale.size
    else:
        bad = int(np.argmin(finite.reshape(-1)))
        values = residuals(a.reshape((-1,) + a.shape[-2:])[:bad]) if bad else ()
    tol = rtol * scale.reshape(-1)
    for t, k in itertools.product(range(bad), range(len(values))):
        r = np.reshape(values[k], -1)[t]
        if not r <= tol[t]:
            return t, k, r
    return bad, None, np.nan


def _symmetrized(matrix: np.ndarray, solver: str) -> np.ndarray:
    """0.5 * (M + M^T) of a square matrix M, or of each of a stack, that
    passes the symmetry scan; raises GeometryError otherwise.  The one
    validation of both solvers, named solver in messages."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise GeometryError(f"{solver} expects a square matrix")
    failed = _first_over(matrix, lambda m: (np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0),))
    if failed:
        raise GeometryError("matrix has a non-finite entry" if failed[1] is None else "matrix is not symmetric")
    return 0.5 * (matrix + matrix.swapaxes(-1, -2))


def symmetric_eigen(matrix: np.ndarray) -> SpectralData:
    """Eigendecomposition of a symmetric matrix, or of each of a stack of
    them, with a deterministic sign fix.

    Raises GeometryError for non-square or non-symmetric input (as
    _symmetrized) and when the solver fails to converge.  Each eigenvector
    is normalized so its largest-magnitude entry is positive, which pins the
    output independent of the backing LAPACK build.
    """
    sym = _symmetrized(matrix, "symmetric_eigen")
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"eigensolver did not converge: {exc}") from exc
    return SpectralData(values=values, vectors=_sign_fix(vectors.swapaxes(-1, -2)).swapaxes(-1, -2))


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix or stack, no eigenvectors.

    The checks of symmetric_eigen, on a cheaper LAPACK path (eigvalsh), so
    the values agree with symmetric_eigen(matrix).values to rounding, not to
    the bit.  For callers that read no eigenvector.
    """
    sym = _symmetrized(matrix, "symmetric_eigenvalues")
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"eigensolver did not converge: {exc}") from exc


def _sign_fix(rows: np.ndarray) -> np.ndarray:
    """Flip each row (last axis) so its largest-magnitude entry (the first
    one, on ties) is positive; a new array with the memory layout of rows."""
    lead = np.argmax(np.abs(rows), axis=-1)[..., None]
    return rows * np.where(np.take_along_axis(rows, lead, axis=-1) < 0, -1.0, 1.0)
