"""Constructions, encoders and certification tools for PIR and batch codes.

Two code families are provided: multiplicity codes (derivative
evaluations of multivariate polynomials, recovered along lines) and
binary diagonal array codes (one parity per diagonal per slope), plus
binary expansion and replication transforms, linear-algebra
certification of availability claims, and a CLI front end.
"""

from .array_code import (
    ArrayCodeParams,
    ArrayCodeword,
    BatchPlanningError,
    build_rk_batch,
    params_for_dimension,
    diagonal,
    encode_array,
    five_batch_code,
    greedy_slope_set,
    has_weighted_ap,
    pir_sets_for_bit,
    plan_array_batch,
    plan_five_batch,
)
from .batch_mult import (
    BatchParams,
    BatchPlan,
    plan_batch,
    recover_batch,
    validate_batch_params,
)
from .codes import binary_expand, replicate
from .curves import pir_delta_curves
from .gf import CapacityError, Field, is_prime, smallest_prime_above
from .mpoly import (
    DecodeFailure,
    Poly,
    count_degree,
    count_monomials,
    hasse_derivative,
    hermite_interpolate,
    homogeneous_interpolate,
    order_m_evaluation,
)
from .multiplicity import (
    MultCodeParams,
    MultCodeword,
    SystematicView,
    code_profile,
    encode_poly,
    line_samples,
    systematic_encode,
    systematic_view,
)
from .pir import (
    DirectionFamily,
    RecoveryPlan,
    build_direction_families,
    pir_recovery_plans,
    recover_symbol,
)
from .verify import (
    GeneratorMatrix,
    certify_batch,
    certify_pir,
    extract_generator,
    is_recovering_position,
    is_recovering_set,
    min_distance,
)

__all__ = [
    "ArrayCodeParams",
    "ArrayCodeword",
    "BatchParams",
    "BatchPlan",
    "BatchPlanningError",
    "CapacityError",
    "DecodeFailure",
    "DirectionFamily",
    "Field",
    "GeneratorMatrix",
    "MultCodeParams",
    "MultCodeword",
    "Poly",
    "RecoveryPlan",
    "SystematicView",
    "binary_expand",
    "build_direction_families",
    "build_rk_batch",
    "certify_batch",
    "certify_pir",
    "code_profile",
    "params_for_dimension",
    "count_degree",
    "count_monomials",
    "diagonal",
    "encode_array",
    "encode_poly",
    "extract_generator",
    "five_batch_code",
    "greedy_slope_set",
    "has_weighted_ap",
    "hasse_derivative",
    "hermite_interpolate",
    "homogeneous_interpolate",
    "is_prime",
    "is_recovering_position",
    "is_recovering_set",
    "line_samples",
    "min_distance",
    "order_m_evaluation",
    "pir_delta_curves",
    "pir_recovery_plans",
    "pir_sets_for_bit",
    "plan_array_batch",
    "plan_batch",
    "plan_five_batch",
    "recover_batch",
    "recover_symbol",
    "replicate",
    "smallest_prime_above",
    "systematic_encode",
    "systematic_view",
    "validate_batch_params",
]
