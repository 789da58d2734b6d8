"""Weighted spectral positivity criteria and curvature terms.

Everything here measures curvature tensors through their bivector
operators: hat components are the operator hats of tensor.t_hat, and their
squared norms are Frobenius norms, one quarter of the component-array norms
used in the tensor module.  That choice makes the outputs commensurable with
operator Frobenius norms and with the closed-form model constants.  Tensors
come in as CurvatureTensor objects, never as raw rank-four arrays, and
k-nonnegativity is weighted_criterion with weight 0.

Hats are reduced here and nowhere else: _hat_norms_sq gives the diagonal
of the hat Gram.  hat_norm_direct and invariance_defect read it chunk by
chunk (_hat_row_norms_sq), from one buffer of at most holonomy._CHUNK_BYTES
that tensor._hat_chunks refills, so they never hold the (dim, D, D) stack;
the eigen route of curvature_term reads it on the rotated hats of the whole
stack, whose Gram its bilinear route needs.  The hat norms, hat_ratio_qk,
the spectral routes, the shift and weighted_criterion also take a stack of
trials (see `tensor`): a tensor that holds one, an operator projected from
one, or (T, d) eigenvalues.  Hat chunks then run over (trial, generator)
pairs, and each value is a (T,) array of the one-trial values.  A
degenerate hat ratio (a pure model multiple) is NaN, on a stack as well.

curvature_term and the spectral routes (hat_norm_formula,
curvature_term_self) take a restricted operator (holonomy.project), which
carries its algebra; a full-space one raises.  The spectral routes read the
restricted operator's own spectrum, which it computes at most once, and
rotate the structure constants into that eigenbasis with three GEMMs, one
per slot (_rotate), for a sub-chunk of HolonomyAlgebra.rotation_trials
trials at a time, all three into a workspace each thread reuses
(_self_term_operands); each sub-chunk is reduced before the next, so no
(T, d, d, d) array of a whole stack is formed.  curvature_term makes its
own eigensolve, so its eigen route stays independent of everything else a
caller has asked of the same operator, and its bilinear route needs none.
The 2-nonnegative shift reads only two-smallest-eigenvalue sums, of the
sample and of the shift model, from a values-only solve
(`_two_smallest_sum`); the model's depends only on the space and the
algebra, and is shared per pair of them (`_shift_gain`, through
`euclid._shared`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .decomp import pure_multiple, qk_decompose, structure_model
from .euclid import EuclideanSpace, GeometryError, _shared, symmetric_eigen, symmetric_eigenvalues
from .holonomy import _CHUNK_BYTES, HolonomyAlgebra, project
from .tensor import CurvatureOperator, CurvatureTensor, _hat_chunks, _value, t_hat, to_operator


def lambda_tripod(a: float, b: float, c: float) -> float:
    """Symmetric cubic weight of an eigenvalue triple.

    Vanishes when all three values agree; this is the coefficient with which
    a triple of eigenvalues enters the self curvature term.
    """
    return a * (b - c) ** 2 + b * (c - a) ** 2 + c * (a - b) ** 2


# ---------------------------------------------------------------------------
# hat components against an operator


def _resolve(op) -> HolonomyAlgebra:
    """The algebra of a restricted operator.  A full-space operator raises:
    restrict it with holonomy.project."""
    if not isinstance(op, CurvatureOperator) or op.algebra is None:
        raise GeometryError("expected a curvature operator restricted to an algebra")
    return op.algebra


def _hat_flat(t, algebra: HolonomyAlgebra) -> np.ndarray:
    """The operator hat stack of a tensor, one flattened row per generator."""
    return t_hat(to_operator(t), algebra).reshape(algebra.dim, -1)


def _hat_norms_sq(flat: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row of a flattened hat stack, the
    diagonal of its Gram.  Squares flat in place, so the caller gives it up,
    and sums each row pairwise: no second stack is allocated."""
    return np.sum(np.square(flat, out=flat), axis=-1)


def _hat_row_norms_sq(t, algebra: HolonomyAlgebra) -> np.ndarray:
    """_hat_norms_sq of the hat stack of t, chunk by chunk in one buffer:
    (dim,), or (T, dim) on a stack of trials."""
    out = np.empty(t.matrix.shape[:-2] + (algebra.dim,))
    rows = out.reshape(-1, algebra.dim)
    for trial, lo, hats in _hat_chunks(to_operator(t), algebra):
        rows[trial : trial + len(hats), lo : lo + hats.shape[1]] = _hat_norms_sq(hats.reshape(hats.shape[:2] + (-1,)))
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


def curvature_term(op, t) -> CurvatureTerm:
    """Pairing of a restricted operator with the hat components of a tensor
    along the operator's algebra.

    eigen route: rotate the hats into the operator eigenbasis and weight
    their squared norms by the eigenvalues.  bilinear route: contract the
    operator matrix against the Gram matrix of the hats directly, with no
    eigensolve.  For the identity operator the value is the squared hat norm
    of t in this module's convention.
    """
    flat = _hat_flat(t, _resolve(op))
    gram = flat @ flat.T
    bilinear = float(np.sum(op.matrix * gram))
    spec = symmetric_eigen(op.matrix)
    eigen = float(spec.values @ _hat_norms_sq(spec.vectors.T @ flat))
    return CurvatureTerm(eigen_route=eigen, bilinear_route=bilinear)


def hat_norm_direct(t, algebra: HolonomyAlgebra):
    """Brute-force squared hat norm, operator convention: the sum of the
    squared Frobenius norms of the operator hats; per trial on a stack.  No
    spectrum and no structure constants, so it is independent of
    hat_norm_formula."""
    return _value(np.sum(_hat_row_norms_sq(t, algebra), axis=-1))


@dataclass
class HatNorm:
    """Squared hat norm of a curvature tensor from structure constants.

    per_component is indexed by the operator eigenbasis (ascending
    eigenvalues), not by the original algebra basis.
    """

    total: float | np.ndarray
    per_component: np.ndarray


def _rotate(algebra: HolonomyAlgebra, q: np.ndarray, work: np.ndarray | None) -> np.ndarray:
    """The structure constants of the algebra in each eigenbasis of a (T, d, d)
    stack q, cp[t, i, j, k] = sum q[t, a, i] q[t, b, j] q[t, g, k] c[a, b, g].

    One broadcast GEMM per slot: each contracts the leading slot of the
    (d, d*d) view with q and appends the rotated axis last, so after three
    the slots are back in order.  No einsum path search on a per-sample route.
    With work, product k goes to its k-th third and the result views it;
    without, each product is a fresh array.
    """
    count, d = q.shape[0], q.shape[-1]
    shape = (count, d * d, d)
    size = count * d**3
    cp = algebra.structure_constants.reshape(d, d * d)
    for slot in range(3):
        out = None if work is None else work[slot * size : (slot + 1) * size].reshape(shape)
        cp = np.matmul(cp.swapaxes(-1, -2), q, out=out).reshape(count, d, d * d)
    return cp.reshape(count, d, d, d)


def _rotated_structure(op):
    """Spectrum of the restricted operator (its memo, no new eigensolve) and
    the structure constants of its algebra in its eigenbasis q, per trial on
    a stack (`_rotate`), as a fresh array."""
    spec = op.spectrum()
    d = spec.values.shape[-1]
    cp = _rotate(_resolve(op), spec.vectors.reshape(-1, d, d), None)
    return spec.values, cp.reshape(spec.values.shape[:-1] + (d, d, d))


_scratch = threading.local()


def _workspace(count: int) -> np.ndarray | None:
    """count floats of a buffer of holonomy._CHUNK_BYTES that this thread
    reuses from call to call, so its pages are faulted in once, not on every
    product above the allocator's mmap threshold; None when count floats do
    not fit it.  Its contents are scratch: no value this module returns
    views it."""
    if 8 * count > _CHUNK_BYTES:
        return None
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None:
        buffer = _scratch.buffer = np.empty(_CHUNK_BYTES // 8)
    return buffer[:count]


def _self_term_operands(op):
    """(eigenvalues, their squared differences, squared rotated structure
    constants) of a restricted operator, the operands of the self curvature
    term and of hat_norm_formula, yielded for each sub-chunk of
    HolonomyAlgebra.rotation_trials trials in turn: (t, d), (t, d, d) and
    (t, d, d, d), one trial as t = 1.  The structure constants are rotated
    into this thread's `_workspace` when a sub-chunk's three products fit it,
    so the caller reduces each sub-chunk before it asks for the next."""
    algebra = _resolve(op)
    spec = op.spectrum()
    d = algebra.dim
    lam, q = spec.values.reshape(-1, d), spec.vectors.reshape(-1, d, d)
    per = algebra.rotation_trials
    work = _workspace(3 * min(per, len(q)) * d**3)
    for lo in range(0, len(q), per):
        cp = _rotate(algebra, q[lo : lo + per], work)
        sub = lam[lo : lo + per]
        yield sub, (sub[:, :, None] - sub[:, None, :]) ** 2, np.square(cp, out=cp)


def _per_trial_sum(op, reduce) -> np.ndarray:
    """reduce(lam, diffs, cp_sq) of each sub-chunk of `_self_term_operands`,
    joined on the trial axis and shaped as the operator's trials."""
    parts = [reduce(*operands) for operands in _self_term_operands(op)]
    return np.concatenate(parts).reshape(op.matrix.shape[:-2] + parts[0].shape[1:])


def hat_norm_formula(op) -> HatNorm:
    """Squared hat norm of the tensor behind a restricted operator.

    Uses only the operator spectrum and the algebra structure constants:
    each eigenbasis generator contributes the squared eigenvalue differences
    it bridges, weighted by the squared structure constants.  Agrees with
    hat_norm_direct on tensors supported on the algebra.
    """
    per = _per_trial_sum(op, lambda lam, diffs, cp_sq: np.einsum("...ab,...gab->...g", diffs, cp_sq))
    return HatNorm(total=_value(per.sum(axis=-1)), per_component=per)


def _self_sum(lam: np.ndarray, diffs: np.ndarray, cp_sq: np.ndarray) -> np.ndarray:
    return np.einsum("...g,...ab,...gab->...", lam, diffs, cp_sq)


def curvature_term_self(op) -> float | np.ndarray:
    """Curvature term of a restricted operator paired with its own hat
    components, evaluated purely from the spectrum and structure constants;
    per trial on a stack."""
    return _value(_per_trial_sum(op, _self_sum))


def invariance_defect(t, algebra: HolonomyAlgebra):
    """Largest component-array norm among the hat components (twice the
    Frobenius norm of the operator hat); zero iff the tensor is invariant
    under the algebra.  Per trial on a stack."""
    return _value(2.0 * np.sqrt(_hat_row_norms_sq(t, algebra).max(axis=-1, initial=0.0)))


# ---------------------------------------------------------------------------
# weighted spectral conditions


@dataclass(frozen=True)
class WeightedCriterion:
    """Condition: sum of the k smallest eigenvalues plus weight times the
    next one is nonnegative."""

    k: int
    weight: float
    label: str

    def __post_init__(self):
        if self.k < 1:
            raise GeometryError("criterion needs k >= 1")
        if self.weight < 0:
            raise GeometryError("criterion weight must be nonnegative")


@dataclass
class CriterionResult:
    criterion: WeightedCriterion
    value: float | np.ndarray
    satisfied: bool | np.ndarray


def weighted_criterion(eigenvalues: np.ndarray, crit: WeightedCriterion, tol) -> CriterionResult:
    """Evaluate a weighted partial eigenvalue sum on a spectrum, per row on a
    (T, d) stack (tol a float or (T,)); satisfied when it is at least -tol."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float), axis=-1)
    needed = crit.k + (1 if crit.weight else 0)
    if lam.shape[-1] < needed:
        raise GeometryError(
            f"criterion needs at least {needed} eigenvalues, got {lam.shape[-1]}"
        )
    value = lam[..., : crit.k].sum(axis=-1)
    if crit.weight:
        value = value + crit.weight * lam[..., crit.k]
    satisfied = value >= -tol
    return CriterionResult(crit, _value(value), satisfied if satisfied.ndim else bool(satisfied))


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
    """Squared hat norm against the squared norm of the trace-free part,
    with ratio NaN where decomp.pure_multiple holds.  On a stack of trials
    each field is a (T,) array."""

    hat_norm_sq: float | np.ndarray
    trace_free_norm_sq: float | np.ndarray
    ratio: float | np.ndarray
    pure_multiple: bool | np.ndarray


def hat_ratio_qk(rm: CurvatureTensor, algebra: HolonomyAlgebra) -> HatRatio:
    """Ratio |hat|^2 / |trace-free part|^2 for a quaternionic tensor, or per
    trial for a stack.

    Operator-convention norms on both sides.  When the trace-free part
    degenerates the tensor is a pure model multiple and the ratio is
    undefined, NaN; a nonzero hat norm in that situation is impossible for
    tensors supported on the algebra and raises.
    """
    hat_sq = hat_norm_direct(rm, algebra)
    dec = qk_decompose(rm, algebra)
    rest_sq = dec.parts["hyperkaehler_part"].norm_sq() / 4.0
    norm_sq = rm.norm_sq() / 4.0
    pure = pure_multiple(rest_sq, norm_sq)
    if np.any(pure & (hat_sq > 1e-8 * np.maximum(1.0, norm_sq))):
        raise GeometryError(
            "degenerate trace-free part with nonvanishing hat components"
        )
    ratio = np.where(pure, np.nan, hat_sq / np.where(pure, 1.0, rest_sq))
    return HatRatio(hat_sq, rest_sq, _value(ratio), pure)


# ---------------------------------------------------------------------------
# 2-nonnegative shift


def _two_smallest_sum(rm: CurvatureTensor, algebra: HolonomyAlgebra):
    """lambda_1 + lambda_2 of the tensor's operator restricted to the algebra,
    per trial on a stack, from a values-only solve: reads no eigenvector."""
    return _value(symmetric_eigenvalues(project(to_operator(rm), algebra).matrix)[..., :2].sum(axis=-1))


@_shared
def _shift_gain(space: EuclideanSpace, algebra: HolonomyAlgebra) -> float:
    """Two-smallest-eigenvalue sum of the space's shift model
    (`decomp.structure_model`) restricted to the algebra, shared per space
    and algebra: both compare by value, so algebras that share a name (u(3)
    on two complex structures) get their own."""
    return _two_smallest_sum(structure_model(space), algebra)


def two_nonnegative_shift(rm: CurvatureTensor, algebra: HolonomyAlgebra) -> tuple[CurvatureTensor, float | np.ndarray]:
    """Add the smallest model multiple making the restricted operator
    2-nonnegative; the multiple is a float, or (T,) for a stack of trials,
    each shifted by its own.

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
    t = _value(np.maximum(0.0, -s / gain) * (1.0 + 1e-12))
    return rm + model * t, t

