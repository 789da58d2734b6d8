"""Algebraic curvature tensors and their operator form on bivectors.

Conventions, fixed once here and relied on everywhere else:

* components T[x, y, z, w] are antisymmetric in (x, y) and in (z, w) and
  symmetric under swapping the two pairs; the first Bianchi identity
  T[x,y,z,w] + T[y,z,x,w] + T[z,x,y,w] = 0 is part of the type invariant;
* the operator dictionary reads matrix entries directly off components at
  increasing index pairs, so the operator of the metric double product
  g (*) g is twice the identity on bivectors;
* squared norms: the component-array norm of a curvature tensor is four
  times the Frobenius norm of its bivector operator.  Functions below say
  which one they return;
* hat components (derivatives along an algebra's basis rotations) are
  computed on bivector operators, H_a = N_a R + (N_a R)^T with N_a the
  algebra's cached bivector_action.  t_hat returns that (dim, D, D) stack,
  Frobenius convention, for an unrestricted CurvatureOperator, and rank-four
  component arrays scattered from it, component convention, for a
  CurvatureTensor.  lie_action keeps the slot-by-slot definition as the
  independent single-generator reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .euclid import (
    Bivector,
    EuclideanSpace,
    GeometryError,
    generic,
    kaehler,
    quaternion_kaehler,
)


class SymmetryError(GeometryError):
    """Raised when an array fails the curvature symmetry validation."""


def _sym_scale(a: np.ndarray) -> float:
    return 1.0 + float(np.abs(a).max(initial=0.0))


# ---------------------------------------------------------------------------
# core types


@dataclass
class CurvatureTensor:
    """Rank-four algebraic curvature tensor on a Euclidean space."""

    space: EuclideanSpace
    components: np.ndarray
    validate: bool = True

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        n = self.space.n
        if self.components.shape != (n, n, n, n):
            raise SymmetryError(
                f"components must have shape {(n, n, n, n)}, "
                f"got {self.components.shape}"
            )
        if self.validate:
            check_curvature_symmetries(self.components)

    # linear combinations stay in the symmetry class, skip re-validation
    def __add__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        return CurvatureTensor(self.space, self.components + other.components, validate=False)

    def __sub__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        return CurvatureTensor(self.space, self.components - other.components, validate=False)

    def __mul__(self, scalar: float) -> "CurvatureTensor":
        return CurvatureTensor(self.space, self.components * float(scalar), validate=False)

    __rmul__ = __mul__

    def __neg__(self) -> "CurvatureTensor":
        return CurvatureTensor(self.space, -self.components, validate=False)

    def norm_sq(self) -> float:
        """Component-array squared norm (four times the operator convention)."""
        return float(np.sum(self.components**2))

    def inner(self, other: "CurvatureTensor") -> float:
        return float(np.sum(self.components * other.components))


@dataclass
class CurvatureOperator:
    """Symmetric operator on bivectors, optionally restricted to a subalgebra.

    With algebra None the matrix acts on the full bivector space in the
    lexicographic pair basis; otherwise it acts in the coordinates of the
    algebra's orthonormal basis.
    """

    space: EuclideanSpace
    matrix: np.ndarray
    algebra: object | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        d = self.algebra.dim if self.algebra is not None else self.space.bivector_dim
        if self.matrix.shape != (d, d):
            raise GeometryError(f"operator matrix must be {d} x {d}, got {self.matrix.shape}")
        if float(np.abs(self.matrix - self.matrix.T).max(initial=0.0)) > 1e-10 * _sym_scale(self.matrix):
            raise GeometryError("operator matrix is not symmetric")

    def spectrum(self):
        from .euclid import symmetric_eigen

        return symmetric_eigen(self.matrix)

    def norm_sq(self) -> float:
        """Frobenius squared norm (one quarter of the component convention)."""
        return float(np.sum(self.matrix**2))

    def trace(self) -> float:
        return float(np.trace(self.matrix))


# ---------------------------------------------------------------------------
# symmetry validation and Bianchi projection


def check_curvature_symmetries(t: np.ndarray, rtol: float = 1e-10):
    """Raise SymmetryError unless t has all curvature symmetries plus Bianchi."""
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


def bianchi_sum(t: np.ndarray) -> np.ndarray:
    """Cyclic average over the first three slots; zero on curvature tensors."""
    return (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) / 3.0


def bianchi_project(t: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a pair-symmetric array onto Bianchi kernel.

    The cyclic average is itself an orthogonal projection (onto the fully
    antisymmetric part), so subtracting it projects onto curvature type.
    """
    return t - bianchi_sum(t)


# ---------------------------------------------------------------------------
# products and dictionaries


def _kn_array(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Double product of two bilinear forms; curvature symmetries need both
    symmetric or both antisymmetric, and Bianchi only holds in the symmetric
    case."""
    return (
        np.einsum("xz,yw->xyzw", s, t)
        - np.einsum("xw,yz->xyzw", s, t)
        + np.einsum("yw,xz->xyzw", s, t)
        - np.einsum("yz,xw->xyzw", s, t)
    )


def kulkarni_nomizu(space: EuclideanSpace, s: np.ndarray, t: np.ndarray) -> CurvatureTensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms.

    For s = t = g this gives twice the identity operator on bivectors.
    Antisymmetric inputs break the Bianchi identity and are rejected; the
    decomposition code uses the raw array combination internally where such
    terms cancel against each other.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    n = space.n
    if s.shape != (n, n) or t.shape != (n, n):
        raise GeometryError("forms must be square matrices of the ambient dimension")
    for name, a in (("first", s), ("second", t)):
        if float(np.abs(a - a.T).max(initial=0.0)) > 1e-10 * _sym_scale(a):
            raise GeometryError(f"{name} form is not symmetric")
    return CurvatureTensor(space, _kn_array(s, t))


def to_operator(rm: CurvatureTensor) -> CurvatureOperator:
    """Symmetric bivector operator with entries read at increasing pairs."""
    ii, jj = rm.space.pair_rows, rm.space.pair_cols
    mat = rm.components[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    return CurvatureOperator(rm.space, mat)


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
    """Inverse of to_operator.  The operator must act on the full bivector
    space and satisfy the Bianchi constraint, otherwise SymmetryError."""
    if op.algebra is not None:
        raise GeometryError("from_operator needs a full bivector-space operator")
    return CurvatureTensor(op.space, _tensor_array_from_matrix(op.space, op.matrix))


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
        return CurvatureTensor(t.space, _lie_array(a, t.components), validate=False)
    return _lie_array(a, np.asarray(t, dtype=float))


def t_hat(t, algebra) -> np.ndarray | list[np.ndarray]:
    """Derivatives of t along an algebra's basis rotations, in basis order.

    * CurvatureOperator on the full bivector space: one (dim, D, D) stack of
      hat operators H_a = N_a R + (N_a R)^T, N_a = algebra.bivector_action[a];
      squared norms are Frobenius norms (operator convention).
    * CurvatureTensor, or any other array validated as one: a list of
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
        arr = t.components if isinstance(t, CurvatureTensor) else np.asarray(t, dtype=float)
        if arr.ndim == 2:
            return [_lie_array(a, arr) for a in algebra.matrices]
        rm = t if isinstance(t, CurvatureTensor) else CurvatureTensor(algebra.space, arr)
        op = to_operator(rm)
    acted = algebra.bivector_action @ op.matrix
    hats = acted + acted.transpose(0, 2, 1)
    if op is t:
        return hats
    return [_tensor_array_from_matrix(op.space, h) for h in hats]


def t_hat_norm_sq(t, algebra) -> float:
    """Total squared norm of the hat components, component-array convention:
    for a curvature tensor, four times the Frobenius norms of its operator
    hats."""
    if isinstance(t, CurvatureTensor):
        return 4.0 * float(np.sum(t_hat(to_operator(t), algebra) ** 2))
    return float(sum(np.sum(h**2) for h in t_hat(t, algebra)))


# ---------------------------------------------------------------------------
# traces


def ricci(rm: CurvatureTensor) -> np.ndarray:
    """Contraction over the first slots of each pair."""
    return np.einsum("sxsw->xw", rm.components)


def scalar(rm: CurvatureTensor) -> float:
    """Full metric trace; equals twice the trace of the bivector operator."""
    return float(np.einsum("sxsx->", rm.components))


def total_traces(rm: CurvatureTensor) -> list[float]:
    """Norms of the independent first-pair contractions.

    Always contains the Frobenius norm of the Ricci contraction; in the
    presence of complex or quaternionic structures the contractions against
    each parallel form are appended.  All entries vanish on the totally
    trace-free summand of the curvature decomposition.
    """
    out = [float(np.linalg.norm(ricci(rm)))]
    structs = []
    if rm.space.kind == "kaehler":
        structs = [rm.space.J]
    elif rm.space.kind == "qk":
        structs = [rm.space.I, rm.space.J, rm.space.K]
    for s in structs:
        contr = 0.5 * np.einsum("st,stzw->zw", s, rm.components)
        out.append(float(np.linalg.norm(contr)))
    return out


# ---------------------------------------------------------------------------
# random generation and serialization


def random_curvature(
    space: EuclideanSpace, rng: np.random.Generator | None = None, seed: int | None = None
) -> CurvatureTensor:
    """Random algebraic curvature tensor: a Gaussian symmetric bivector
    operator pushed through the dictionary and Bianchi-projected."""
    if rng is None:
        rng = np.random.default_rng(seed)
    d = space.bivector_dim
    raw = rng.standard_normal((d, d))
    t = _tensor_array_from_matrix(space, 0.5 * (raw + raw.T))
    return CurvatureTensor(space, bianchi_project(t))


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
    return CurvatureTensor(space, flat.reshape(n, n, n, n))


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
