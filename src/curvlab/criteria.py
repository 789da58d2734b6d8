"""Weighted spectral positivity criteria and curvature terms.

Everything here measures rank-four tensors through their bivector operators:
hat components are the operator hats of tensor.t_hat, and their squared
norms are Frobenius norms, one quarter of the component-array norms used in
the tensor module.  That choice makes the outputs commensurable with
operator Frobenius norms and with the closed-form model constants.

Hats are reduced here and nowhere else: _hat_norms_sq gives the diagonal
of the hat Gram.  hat_norm_direct and invariance_defect read it chunk by
chunk (_hat_row_norms_sq), from one buffer of at most holonomy._CHUNK_BYTES
that tensor._hat_chunks refills, so they never hold the (dim, D, D) stack;
the eigen route of curvature_term reads it on the rotated hats of the whole
stack, whose Gram its bilinear route needs.

The spectral routes (hat_norm_formula, curvature_term_self) read the
restricted operator's own spectrum, which it computes at most once, and
rotate the structure constants into that eigenbasis with three GEMMs, one
per slot (_rotated_structure).  curvature_term makes its own eigensolve, so
its eigen route stays independent of everything else a caller has asked of
the same operator, and its bilinear route needs none.  The 2-nonnegative
shift reads only two-smallest-eigenvalue sums, of the sample and of the
shift model, from a values-only solve (`_two_smallest_sum`); the model's
depends only on the space and the algebra, and is shared per pair of them
(`_shift_gain`, through `euclid._shared`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import qk_decompose, structure_model
from .euclid import EuclideanSpace, GeometryError, _shared, symmetric_eigen, symmetric_eigenvalues
from .holonomy import HolonomyAlgebra, by_name, project
from .tensor import CurvatureOperator, CurvatureTensor, _hat_chunks, t_hat, to_operator


def lambda_tripod(a: float, b: float, c: float) -> float:
    """Symmetric cubic weight of an eigenvalue triple.

    Vanishes when all three values agree; this is the coefficient with which
    a triple of eigenvalues enters the self curvature term.
    """
    return a * (b - c) ** 2 + b * (c - a) ** 2 + c * (a - b) ** 2


# ---------------------------------------------------------------------------
# hat components against an operator


def _resolve(op, algebra):
    """Normalize (operator, algebra) input combinations to a restricted op."""
    if isinstance(op, CurvatureTensor):
        op = to_operator(op)
    if not isinstance(op, CurvatureOperator):
        raise GeometryError("expected a curvature operator or tensor")
    if op.algebra is None:
        if algebra is None:
            raise GeometryError("an algebra is required to restrict the operator")
        return project(op, algebra), algebra
    if algebra is not None and algebra != op.algebra:
        raise GeometryError("operator is already restricted to a different algebra")
    return op, op.algebra


def _hat_operator(t, algebra: HolonomyAlgebra) -> CurvatureOperator:
    """Operator of a tensor, or of a raw rank-four array validated as one."""
    if not isinstance(t, CurvatureTensor):
        t = CurvatureTensor.from_components(algebra.space, t)
    return to_operator(t)


def _hat_flat(t, algebra: HolonomyAlgebra) -> np.ndarray:
    """The operator hat stack of a tensor, one flattened row per generator."""
    return t_hat(_hat_operator(t, algebra), algebra).reshape(algebra.dim, -1)


def _hat_norms_sq(flat: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row of a flattened hat stack, the
    diagonal of its Gram.  Squares flat in place, so the caller gives it up,
    and sums each row pairwise: no second stack is allocated."""
    return np.sum(np.square(flat, out=flat), axis=1)


def _hat_row_norms_sq(t, algebra: HolonomyAlgebra) -> np.ndarray:
    """_hat_norms_sq of the hat stack of t, chunk by chunk in one buffer."""
    out = np.empty(algebra.dim)
    for lo, hats in _hat_chunks(_hat_operator(t, algebra), algebra):
        out[lo : lo + len(hats)] = _hat_norms_sq(hats.reshape(len(hats), -1))
    return out


@dataclass
class CurvatureTerm:
    """Value of the curvature term computed along two independent routes."""

    eigen_route: float
    bilinear_route: float

    @property
    def value(self) -> float:
        return self.eigen_route

    @property
    def spread(self) -> float:
        return abs(self.eigen_route - self.bilinear_route)


def curvature_term(op, t, algebra: HolonomyAlgebra | None = None) -> CurvatureTerm:
    """Pairing of an operator with the hat components of a tensor.

    eigen route: rotate the hats into the operator eigenbasis and weight
    their squared norms by the eigenvalues.  bilinear route: contract the
    operator matrix against the Gram matrix of the hats directly, with no
    eigensolve.  For the identity operator the value is the squared hat norm
    of t in this module's convention.
    """
    op, algebra = _resolve(op, algebra)
    flat = _hat_flat(t, algebra)
    gram = flat @ flat.T
    bilinear = float(np.sum(op.matrix * gram))
    spec = symmetric_eigen(op.matrix)
    eigen = float(spec.values @ _hat_norms_sq(spec.vectors.T @ flat))
    return CurvatureTerm(eigen_route=eigen, bilinear_route=bilinear)


def hat_norm_direct(t, algebra: HolonomyAlgebra) -> float:
    """Brute-force squared hat norm, operator convention: the sum of the
    squared Frobenius norms of the operator hats.  No spectrum and no
    structure constants, so it is independent of hat_norm_formula."""
    return float(np.sum(_hat_row_norms_sq(t, algebra)))


@dataclass
class HatNorm:
    """Squared hat norm of a curvature tensor from structure constants.

    per_component is indexed by the operator eigenbasis (ascending
    eigenvalues), not by the original algebra basis.
    """

    total: float
    per_component: np.ndarray
    eigenvalues: np.ndarray


def _rotated_structure(op, algebra):
    """Spectrum of the restricted operator (its memo, no new eigensolve) and
    the structure constants in its eigenbasis q,
    cp[i, j, k] = sum q[a, i] q[b, j] q[g, k] c[a, b, g].

    One GEMM per slot: each contracts the leading axis of the (d, d*d) view
    with q and appends the rotated axis last, so after three the slots are
    back in order.  No einsum path search on a per-sample route.
    """
    op, algebra = _resolve(op, algebra)
    spec = op.spectrum()
    q = spec.vectors
    d = q.shape[0]
    cp = algebra.structure_constants
    for _ in range(3):
        cp = cp.reshape(d, d * d).T @ q
    return spec.values, cp.reshape(d, d, d)


def hat_norm_formula(op, algebra: HolonomyAlgebra | None = None) -> HatNorm:
    """Squared hat norm of the tensor behind a restricted operator.

    Uses only the operator spectrum and the algebra structure constants:
    each eigenbasis generator contributes the squared eigenvalue differences
    it bridges, weighted by the squared structure constants.  Agrees with
    hat_norm_direct on tensors supported on the algebra.
    """
    lam, cp = _rotated_structure(op, algebra)
    diffs = (lam[:, None] - lam[None, :]) ** 2
    per = np.einsum("ab,gab->g", diffs, cp**2)
    return HatNorm(total=float(per.sum()), per_component=per, eigenvalues=lam)


def _self_term_operands(op, algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, their squared differences, squared rotated structure
    constants): the operands of the self curvature term."""
    lam, cp = _rotated_structure(op, algebra)
    return lam, (lam[:, None] - lam[None, :]) ** 2, cp**2


def _self_term(op, algebra: HolonomyAlgebra | None = None) -> tuple[float, float]:
    """Self curvature term and its scale, the same sum with |eigenvalues|."""
    lam, diffs, cp_sq = _self_term_operands(op, algebra)
    value = float(np.einsum("g,ab,gab->", lam, diffs, cp_sq))
    scale = float(np.einsum("g,ab,gab->", np.abs(lam), diffs, cp_sq))
    return value, scale


def curvature_term_self(op, algebra: HolonomyAlgebra | None = None) -> float:
    """Curvature term of an operator paired with its own hat components,
    evaluated purely from the spectrum and structure constants.  The value
    of `_self_term`, without its scale."""
    lam, diffs, cp_sq = _self_term_operands(op, algebra)
    return float(np.einsum("g,ab,gab->", lam, diffs, cp_sq))


def invariance_defect(t, algebra: HolonomyAlgebra) -> float:
    """Largest component-array norm among the hat components (twice the
    Frobenius norm of the operator hat); zero iff the tensor is invariant
    under the algebra."""
    return 2.0 * float(np.sqrt(_hat_row_norms_sq(t, algebra).max(initial=0.0)))


# ---------------------------------------------------------------------------
# weighted spectral conditions


@dataclass(frozen=True)
class WeightedCriterion:
    """Condition: sum of the k smallest eigenvalues plus weight times the
    next one is nonnegative."""

    k: int
    weight: float
    label: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise GeometryError("criterion needs k >= 1")
        if self.weight < 0:
            raise GeometryError("criterion weight must be nonnegative")


@dataclass
class CriterionResult:
    criterion: WeightedCriterion
    value: float
    satisfied: bool


def weighted_criterion(
    eigenvalues: np.ndarray, crit: WeightedCriterion, tol: float = 0.0
) -> CriterionResult:
    """Evaluate a weighted partial eigenvalue sum on an ascending spectrum."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    needed = crit.k + (1 if crit.weight else 0)
    if lam.shape[0] < needed:
        raise GeometryError(
            f"criterion needs at least {needed} eigenvalues, got {lam.shape[0]}"
        )
    value = float(lam[: crit.k].sum())
    if crit.weight:
        value += crit.weight * float(lam[crit.k])
    return CriterionResult(criterion=crit, value=value, satisfied=value >= -tol)


def k_nonnegative(eigenvalues: np.ndarray, k: int) -> bool:
    """Whether the k smallest eigenvalues have a nonnegative sum."""
    return weighted_criterion(eigenvalues, WeightedCriterion(k, 0.0)).satisfied


def weyl_preset(n: int) -> WeightedCriterion:
    """Threshold for the trace-free part on generic spaces of dimension n."""
    if n < 4:
        raise GeometryError("generic preset needs dimension >= 4")
    return WeightedCriterion(
        k=(n - 1) // 2, weight=(1 + (-1) ** n) / 4, label=f"weyl({n})"
    )


def kaehler_preset(m: int) -> WeightedCriterion:
    """Threshold for the trace-free part on Kaehler spaces, m complex planes."""
    if m < 2:
        raise GeometryError("kaehler preset needs m >= 2")
    return WeightedCriterion(
        k=(m + 1) // 2, weight=(1 + (-1) ** m) / 4, label=f"kaehler({m})"
    )


def qk_preset(m: int) -> WeightedCriterion:
    """Threshold on quaternion-Kaehler spaces, m quaternionic planes."""
    if m < 2:
        raise GeometryError("qk preset needs m >= 2")
    return WeightedCriterion(
        k=(m + 1) // 2, weight=(5 + 3 * (-1) ** m) / 12, label=f"qk({m})"
    )


def preset_for(algebra: HolonomyAlgebra) -> WeightedCriterion:
    kind = algebra.space.kind
    if kind == "generic":
        return weyl_preset(algebra.space.n)
    if kind == "kaehler":
        return kaehler_preset(algebra.space.m)
    return qk_preset(algebra.space.m)


# ---------------------------------------------------------------------------
# quaternion-Kaehler hat ratio


@dataclass
class HatRatio:
    """Squared hat norm against the squared norm of the trace-free part."""

    hat_norm_sq: float
    trace_free_norm_sq: float
    ratio: float | None
    pure_multiple: bool


def hat_ratio_qk(
    rm: CurvatureTensor,
    algebra: HolonomyAlgebra | None = None,
    rtol: float = 1e-10,
) -> HatRatio:
    """Ratio |hat|^2 / |trace-free part|^2 for a quaternionic tensor.

    Operator-convention norms on both sides.  When the trace-free part
    degenerates the tensor is a pure model multiple and the ratio is
    undefined; a nonzero hat norm in that situation is impossible for
    tensors supported on the algebra and raises.
    """
    if algebra is None:
        algebra = by_name(rm.space, "sp")
    hat_sq = hat_norm_direct(rm, algebra)
    dec = qk_decompose(rm, algebra)
    rest_sq = dec.parts["hyperkaehler_part"].norm_sq() / 4.0
    scale = max(1.0, rm.norm_sq() / 4.0)
    if rest_sq <= rtol * scale:
        if hat_sq > 1e-8 * scale:
            raise GeometryError(
                "degenerate trace-free part with nonvanishing hat components"
            )
        return HatRatio(hat_sq, rest_sq, None, True)
    return HatRatio(hat_sq, rest_sq, hat_sq / rest_sq, False)


# ---------------------------------------------------------------------------
# spectral repair and search


def _two_smallest_sum(rm: CurvatureTensor, algebra: HolonomyAlgebra) -> float:
    """lambda_1 + lambda_2 of the tensor's operator restricted to the
    algebra, from a values-only solve: the shift reads no eigenvector."""
    return float(symmetric_eigenvalues(project(to_operator(rm), algebra).matrix)[:2].sum())


@_shared
def _shift_gain(space: EuclideanSpace, algebra: HolonomyAlgebra) -> float:
    """Two-smallest-eigenvalue sum of the space's shift model
    (`decomp.structure_model`) restricted to the algebra, shared per space
    and algebra: both compare by value, so algebras that share a name (u(3)
    on two complex structures) get their own."""
    return _two_smallest_sum(structure_model(space), algebra)


def two_nonnegative_shift(
    rm: CurvatureTensor, algebra: HolonomyAlgebra
) -> tuple[CurvatureTensor, float]:
    """Add the smallest model multiple making the restricted operator
    2-nonnegative.

    The model is the space's own (`decomp.structure_model`), so it is
    supported on the holonomy algebra of that structure and the shifted
    tensor stays in the sampled class.
    The two-smallest-eigenvalue sum is superadditive, which makes the
    straight-line shift sufficient.
    """
    if algebra.dim < 2:
        raise GeometryError("2-nonnegativity needs an algebra of dimension >= 2")
    model = structure_model(rm.space)
    s = _two_smallest_sum(rm, algebra)
    gain = _shift_gain(rm.space, algebra)
    if gain <= 0:
        raise GeometryError("shift model is not strictly 2-positive on the algebra")
    t = max(0.0, -s / gain) * (1.0 + 1e-12)
    return rm + t * model, t


def negative_term_search(
    algebra: HolonomyAlgebra,
    trials: int = 100,
    seed: int = 0,
    shift: bool = False,
) -> dict | None:
    """Look for a sampled tensor whose self curvature term is negative.

    Returns the first witness as a dict with the trial index, term value and
    comparison scale, or None.  With shift=True every sample is first made
    2-nonnegative; the positivity theory says the search must then fail.
    """
    from .decomp import random_algebra_curvature

    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        rm = random_algebra_curvature(algebra, rng=rng)
        if shift:
            rm, _ = two_nonnegative_shift(rm, algebra)
        value, scale = _self_term(project(to_operator(rm), algebra))
        if value < -1e-9 * (1.0 + scale):
            return {"trial": trial, "value": value, "scale": scale}
    return None
