"""Strong-stability-preserving Runge-Kutta methods with SSP-certified dense output.

The package certifies SSP coefficients of methods and of their dense-output
(continuous-extension) formulas, constructs first- and second-order SSP dense
weights, searches for others (answering order 3 with the non-existence
barrier), converts to Shu-Osher implementation form, and integrates with
stored stages for dense evaluation anywhere in a step.
"""

from . import errors
from .certify import (
    CertStatus,
    FeasibilityCheck,
    PolyNonnegReport,
    SspCertificate,
    Violation,
    XineqReport,
    check_xineq,
    compute_certificate,
    dense_ssp_coefficient,
    gamma_at,
    monotonicity_feasible_dense,
    monotonicity_feasible_method,
    poly_nonneg_on_unit,
    resolvent,
    ssp_coefficient,
)
from .construct import (
    LpProblem,
    SearchResult,
    family_tableau,
    first_order_weights,
    lp_search,
    second_order_weights,
)
from .experiments import ConvergenceStudy, convergence_study
from .integrate import Problem, Trajectory, dense_eval_grid, integrate_fixed, step
from .problems import get_problem, linear, quadrature, sinode
from .registry import MethodRegistryEntry, get as get_method
from .shu_osher import (
    ShuOsherDense,
    from_shu_osher,
    shu_osher_step_equivalence,
    to_shu_osher,
)
from .tableau import (
    ButcherTableau,
    DenseWeights,
    EndpointFlags,
    ResidualReport,
    dense_order_residuals,
    endpoint_check,
    method_order_residuals,
    validate_tableau,
)
from .tableau_io import load_tableau_file, save_tableau_file

__version__ = "0.1.0"

__all__ = [
    "ButcherTableau",
    "CertStatus",
    "ConvergenceStudy",
    "DenseWeights",
    "EndpointFlags",
    "FeasibilityCheck",
    "LpProblem",
    "MethodRegistryEntry",
    "PolyNonnegReport",
    "Problem",
    "ResidualReport",
    "SearchResult",
    "ShuOsherDense",
    "SspCertificate",
    "Trajectory",
    "Violation",
    "XineqReport",
    "check_xineq",
    "compute_certificate",
    "convergence_study",
    "dense_eval_grid",
    "dense_order_residuals",
    "dense_ssp_coefficient",
    "endpoint_check",
    "errors",
    "family_tableau",
    "first_order_weights",
    "from_shu_osher",
    "gamma_at",
    "get_method",
    "get_problem",
    "integrate_fixed",
    "linear",
    "load_tableau_file",
    "lp_search",
    "method_order_residuals",
    "monotonicity_feasible_dense",
    "monotonicity_feasible_method",
    "poly_nonneg_on_unit",
    "quadrature",
    "resolvent",
    "save_tableau_file",
    "second_order_weights",
    "shu_osher_step_equivalence",
    "sinode",
    "ssp_coefficient",
    "step",
    "to_shu_osher",
    "validate_tableau",
]
