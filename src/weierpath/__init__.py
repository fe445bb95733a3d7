"""Rough-path lifts above vector-valued Weierstrass functions.

Exact closed-form iterated integrals of truncated sums, their limits,
rough-norm and Hoelder diagnostics, convergence-rate measurement, and a
rough differential equation solver, behind a reproducible CSV/JSON CLI.
"""

__version__ = "0.1.0"

from .errors import ParameterError, ToleranceUnreachable
from .weierstrass import (
    Phase,
    TruncationPolicy,
    VectorWeierstrass,
    WeierstrassComponent,
    eval_derivative,
    eval_limit,
    eval_truncated,
    eval_vector,
    validate_component,
)
from .iterated import (
    FrequencyPair,
    LimitResult,
    bound_diagnostics,
    elementary_integral,
    elementary_integral_quadrature,
    iterated_integral_limit,
    iterated_integral_truncated,
)
from .roughpath import (
    ConvergenceReport,
    RoughIncrement,
    RoughNormEstimate,
    area_holder_sup,
    chen_residual,
    convergence_report,
    levy_area,
    lift_limit,
    lift_truncated,
    polyline_signed_area,
    rough_norm,
)
from .holder import ExponentFit, WitnessResult, estimate_exponent, nonconvergence_witness
from .trigseries import (
    TrigSeries,
    TrigTerm,
    cauchy_gap,
    iterated_integral_partial,
    mixed_integral_table,
)
from .rde import (
    BilinearField,
    LinearStateField,
    PathSample,
    RdeProblem,
    ScalarLinearField,
    ZeroField,
    approximation_gap,
    default_ode_step,
    solve_ode_truncated,
    solve_rough,
)

__all__ = [
    "__version__",
    "ParameterError",
    "ToleranceUnreachable",
    "Phase",
    "TruncationPolicy",
    "VectorWeierstrass",
    "WeierstrassComponent",
    "validate_component",
    "eval_truncated",
    "eval_derivative",
    "eval_vector",
    "eval_limit",
    "FrequencyPair",
    "LimitResult",
    "elementary_integral",
    "elementary_integral_quadrature",
    "iterated_integral_truncated",
    "iterated_integral_limit",
    "bound_diagnostics",
    "RoughIncrement",
    "RoughNormEstimate",
    "ConvergenceReport",
    "lift_truncated",
    "lift_limit",
    "chen_residual",
    "levy_area",
    "rough_norm",
    "area_holder_sup",
    "convergence_report",
    "polyline_signed_area",
    "ExponentFit",
    "WitnessResult",
    "estimate_exponent",
    "nonconvergence_witness",
    "TrigSeries",
    "TrigTerm",
    "iterated_integral_partial",
    "cauchy_gap",
    "mixed_integral_table",
    "LinearStateField",
    "BilinearField",
    "ScalarLinearField",
    "ZeroField",
    "RdeProblem",
    "PathSample",
    "solve_ode_truncated",
    "solve_rough",
    "approximation_gap",
    "default_ode_step",
]
