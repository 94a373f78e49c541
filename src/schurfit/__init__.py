"""Polynomial regression via Schur polynomials and Vandermonde determinants."""

from .numeric import (
    Scalar,
    ScalarModeError,
    format_scalar,
    parse_scalar,
    scalar_pow,
)
from .partitions import (
    Exponents,
    Partition,
    conjugate,
    lambda_drop,
    lambda_from_degrees,
    staircase,
)
from .symfunc import elem_sym_all, schur, vandermonde
from .regress import (
    BMatrix,
    DataSet,
    FitResult,
    InsufficientDataError,
    NonUniqueSolutionError,
    b_matrix,
    denominator,
    design_matrix,
    fit,
    minor_sum,
    projection_residual,
    pseudoinverse,
)
from .incremental import (
    RegressionState,
    extend_b_matrix,
    init_state,
    update,
)
from .oracle import RankDeficiencyError, gram, solve_normal

__all__ = [
    "BMatrix",
    "DataSet",
    "Exponents",
    "FitResult",
    "InsufficientDataError",
    "NonUniqueSolutionError",
    "Partition",
    "RankDeficiencyError",
    "RegressionState",
    "Scalar",
    "ScalarModeError",
    "b_matrix",
    "conjugate",
    "denominator",
    "design_matrix",
    "elem_sym_all",
    "extend_b_matrix",
    "fit",
    "format_scalar",
    "gram",
    "init_state",
    "lambda_drop",
    "lambda_from_degrees",
    "minor_sum",
    "parse_scalar",
    "projection_residual",
    "pseudoinverse",
    "scalar_pow",
    "schur",
    "solve_normal",
    "staircase",
    "update",
    "vandermonde",
]
