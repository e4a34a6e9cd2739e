"""Numerical deciders for norm equalities and orthogonality of matrix pairs.

The package decides triangle equalities, Pythagoras identities, and the
Birkhoff-James / Roberts / Pythagoras orthogonality relations for dense
complex matrices, cross-certified against closed-form oracles and a minimax
duality for the shifted operator norm.
"""

from .closedforms import (
    RankOnePair,
    RankOneVerdicts,
    corner_block_pair,
    fkm_block,
    fkm_norm,
    hat_function_pair,
    rank_one_classify,
    rank_one_norm,
    rank_persistence,
    weighted_shift_norm,
    weighted_shift_pair,
)
from .config import DEFAULT_CONFIG, DEFAULT_SEED, ToleranceConfig
from .linalg import (
    NonHermitianError,
    NonSquareError,
    Pair,
    ShapeError,
    SpectralDecomposition,
    adjoint,
    hermitian_eig,
    modulus,
    numeric_rank,
    real_part,
    spectral_norm,
)
from .normopt import (
    HypothesisViolation,
    MinLambdaResult,
    bj_lower_bound_check,
    bj_orthogonal,
    m_functional,
    min_lambda_norm,
    sup_m,
)
from .numrange import (
    RangeBoundary,
    range_boundary,
    range_contains,
    support_dips_below,
    support_function,
    support_values,
    zero_unit_vector,
)
from .orthogonality import (
    LatticeProfile,
    OrthogonalityReport,
    StatementResult,
    limit_relations_check,
    norm_additivity_report,
    parallelogram_law_check,
    parallelogram_two_imply_third,
    product_norm_check,
    pythagoras_identity,
    pythagoras_orthogonal,
    pythagoras_via_bj_parallelogram,
    pythagoras_witness_vector,
    roberts_check,
    scaled_pythagoras_report,
    scaled_triangle_persistence,
    triangle_equality,
    triangle_witness,
    unimodular_reduction,
)
from .serialization import (
    MatrixFormatError,
    canonical_json,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)
from .states import (
    DensityState,
    SubspaceProjection,
    ZeroMatrixError,
    evaluate,
    maximizing_set,
    sets_intersect,
    subspace_intersection,
    witness_in_set_with_zero,
)
from .suites import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"
