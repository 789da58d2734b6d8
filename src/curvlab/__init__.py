"""Curvature operators on holonomy algebras.

Layers, bottom up: euclid (spaces, pair bookkeeping, spectra), tensor
(curvature tensors and their bivector operators), holonomy (subalgebras as
coefficient rows and their skew matrices), decomp (models and invariant
decompositions), criteria (hat norms and weighted positivity conditions), cli
(command-line checks).
"""

from .euclid import (
    EuclideanSpace,
    GeometryError,
    SpectralData,
    generic,
    kaehler,
    quaternion_kaehler,
    symmetric_eigen,
)
from .tensor import (
    CurvatureOperator,
    CurvatureTensor,
    SymmetryError,
    load_tensor,
    random_curvature,
    ricci,
    scalar,
    t_hat,
    to_operator,
    total_traces,
)
from .holonomy import (
    HolonomyAlgebra,
    complement_mass,
    project,
    so_algebra,
    sp_sp1_algebra,
    u_algebra,
)
from .decomp import (
    CurvatureDecomposition,
    bochner_decompose,
    bochner_explicit,
    const_hol,
    grassmannian,
    hp,
    qk_decompose,
    random_algebra_curvature,
    sphere,
    weyl_decompose,
    wolf,
)
from .criteria import (
    CriterionResult,
    CurvatureTerm,
    HatRatio,
    WeightedCriterion,
    curvature_term,
    curvature_term_self,
    hat_norm_direct,
    hat_norm_formula,
    hat_ratio_qk,
    invariance_defect,
    kaehler_preset,
    lambda_tripod,
    qk_preset,
    two_nonnegative_shift,
    weighted_criterion,
    weyl_preset,
)

__version__ = "0.1.0"
