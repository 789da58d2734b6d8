"""Curvature operators on holonomy algebras.

Layers, bottom up: euclid (spaces, bivectors, spectra), tensor (curvature
tensors and their bivector operators), holonomy (subalgebras and quaternionic
frames), decomp (models and invariant decompositions), criteria (hat norms
and weighted positivity conditions), cli (command-line checks).
"""

from .euclid import (
    Bivector,
    EuclideanSpace,
    GeometryError,
    SpectralData,
    bivector_apply,
    bracket,
    generic,
    inner,
    kaehler,
    quaternion_kaehler,
    symmetric_eigen,
    wedge,
)
from .tensor import (
    CurvatureOperator,
    CurvatureTensor,
    SymmetryError,
    bianchi_project,
    bianchi_sum,
    from_operator,
    kulkarni_nomizu,
    lie_action,
    load_tensor,
    random_curvature,
    ricci,
    save_tensor,
    scalar,
    t_hat,
    to_operator,
    total_traces,
)
from .holonomy import (
    HolonomyAlgebra,
    QuaternionFrame,
    complement_mass,
    project,
    quaternion_frame,
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
    HatNorm,
    HatRatio,
    WeightedCriterion,
    curvature_term,
    curvature_term_self,
    hat_norm_direct,
    hat_norm_formula,
    hat_ratio_qk,
    invariance_defect,
    k_nonnegative,
    kaehler_preset,
    lambda_tripod,
    negative_term_search,
    qk_preset,
    two_nonnegative_shift,
    weighted_criterion,
    weyl_preset,
)

__version__ = "0.1.0"
