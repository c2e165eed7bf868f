"""Solver and certification toolkit for one-dimensional phi-Laplacian
boundary value problems (phi(u'))' = f(t, u, u')."""

from .certificates import (BoundaryZero, DegreeResult, GrowthCertificate,
                           InconsistentDerivative, SignCertificate,
                           Verdict, brouwer_degree, check_growth, check_signs,
                           newton_sign_sum, planar_map, winding_number)
from .expr import (EvalDomainError, Expr, ParseError, UnknownIdentifierError,
                   eval_expr, eval_many, parse_expr, variables)
from .function_space import Grid, GridFunction, zero_function
from .homeomorphism import (Homeomorphism, Kind, identity, make_homeomorphism,
                            mean_curvature, parse_phi_config, power,
                            relativistic)
from .operators import (AdmissibilityViolation, BoundedPreconditionError,
                        NoSignChangeError, QphiResult, classic_threepoint_map,
                        dirichlet_map, nemytskii, q_phi,
                        singular_threepoint_map)
from .solver import (NonConvergence, OracleFailure, ProblemClass, ProblemSpec,
                     SolveReport, apply_fixed_point_map, ode_residual,
                     ode_residual_samples, shooting_oracle, solve)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityViolation", "BoundaryZero", "BoundedPreconditionError",
    "DegreeResult", "EvalDomainError", "Expr", "Grid",
    "GridFunction", "GrowthCertificate", "Homeomorphism",
    "InconsistentDerivative", "Kind", "NonConvergence", "NoSignChangeError",
    "OracleFailure", "ParseError", "ProblemClass", "ProblemSpec",
    "QphiResult", "SignCertificate", "SolveReport",
    "UnknownIdentifierError", "Verdict", "apply_fixed_point_map",
    "brouwer_degree", "check_growth", "check_signs",
    "classic_threepoint_map", "dirichlet_map",
    "eval_expr", "eval_many", "identity",
    "make_homeomorphism", "mean_curvature", "nemytskii", "newton_sign_sum",
    "ode_residual", "ode_residual_samples",
    "parse_expr", "parse_phi_config", "planar_map", "power", "q_phi",
    "relativistic", "shooting_oracle",
    "singular_threepoint_map", "solve", "variables",
    "winding_number", "zero_function",
]
