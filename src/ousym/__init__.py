"""Symmetry analysis and exact integration of the Ornstein-Uhlenbeck
process in an external force field.

The package classifies the invariants and simple symmetries of
    dx_i = v_i dt
    dv_i = (F_i(x) - beta_i v_i) dt + mu_i dw_i
exactly for the closed-form force classes, certifies every emitted object
numerically against the determining equations, and uses the symmetries to
integrate the system exactly, cross-checked against Euler-Maruyama.
"""

from .calculus import (ExtendedPoint, derivative, extended_coords,
                       ito_laplacian, ito_laplacian_components, lie_bracket,
                       point, sample_probes, stack_probes)
from .classify import (InvariantSet, SymmetryAlgebra, classify_invariants,
                       classify_symmetries, default_scaling_functions,
                       expdecay_residual_scan, mode_rates,
                       structure_constants)
from .duals import HyperDual, value
from .errors import (ArityMismatch, CertificationFailed, DimensionMismatch,
                     DomainExit, EmptyProbeSet, EvaluationDomainError,
                     ExpressionError, ExpressionSyntaxError, InvalidGrid,
                     NonFiniteEvaluation, NonFiniteResult, NonFiniteState,
                     NonPositiveFriction, NotAnInvariant, NotDiagonalizable,
                     OusymError, UnclassifiableForce, UnknownIdentifier,
                     WrongForceClass, ZeroNoise)
from .expressions import (parse_components, parse_expression,
                          parse_force_expression)
from .integrate import (ConvergenceReport, GBMConvergenceProblem,
                        KozlovConvergenceProblem, OUConvergenceProblem,
                        Path, WienerGrid, coarsen, convergence_study,
                        euler_maruyama, euler_maruyama_ensemble,
                        exact_solve_constant, exact_solve_linear,
                        read_path_csv, sample_wiener,
                        solve_reference_problem, thread_count,
                        write_convergence_csv, write_path_csv)
from .model import (ConstantForce, CustomItoProcess, ExpressionForce,
                    ForceClass, ForceField, LinearForce, OUSystem,
                    build_ou_system, classify_force, default_x_probes,
                    system_from_json, system_to_json)
from .symmetry import (AffineRecord, InvariantCandidate, SymmetryGenerator,
                       affine_invariant_nullspace, f_residual,
                       invariant_residual, max_invariant_residual,
                       max_residuals, scale_by_invariant, sigma_residual,
                       solve_wsym_linear_constraint)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "AffineRecord", "CertificationFailed",
    "ConstantForce", "ConvergenceReport", "CustomItoProcess",
    "DimensionMismatch", "DomainExit", "EmptyProbeSet",
    "EvaluationDomainError", "ExpressionError", "ExpressionForce",
    "ExpressionSyntaxError", "ExtendedPoint", "ForceClass", "ForceField",
    "GBMConvergenceProblem", "HyperDual", "InvalidGrid",
    "InvariantCandidate", "InvariantSet", "KozlovConvergenceProblem",
    "LinearForce", "NonFiniteEvaluation", "NonFiniteResult",
    "NonFiniteState", "NonPositiveFriction", "NotAnInvariant",
    "NotDiagonalizable", "OUConvergenceProblem", "OUSystem", "OusymError",
    "Path", "SymmetryAlgebra", "SymmetryGenerator", "UnclassifiableForce",
    "UnknownIdentifier", "WienerGrid", "WrongForceClass", "ZeroNoise",
    "affine_invariant_nullspace", "build_ou_system", "classify_force",
    "classify_invariants", "classify_symmetries", "coarsen",
    "convergence_study", "default_scaling_functions", "default_x_probes",
    "derivative", "euler_maruyama", "euler_maruyama_ensemble",
    "exact_solve_constant", "exact_solve_linear", "expdecay_residual_scan",
    "extended_coords", "f_residual", "invariant_residual", "ito_laplacian",
    "ito_laplacian_components", "lie_bracket", "max_invariant_residual",
    "max_residuals", "mode_rates", "parse_components", "parse_expression",
    "parse_force_expression", "point", "read_path_csv", "sample_probes",
    "sample_wiener", "scale_by_invariant", "sigma_residual",
    "solve_reference_problem",
    "solve_wsym_linear_constraint", "stack_probes", "structure_constants",
    "system_from_json", "system_to_json", "thread_count", "value",
    "write_convergence_csv", "write_path_csv",
]
