"""Symbolic-numeric workbench for moving-frame geometry.

Builds orthonormal coframes from closed-form metrics, solves the
torsion-free connection, computes curvature (Riemann, Ricci, Weyl), analyses
codimension-1 rigid flows (vorticity and magnitude-gradient invariants,
quotient curvature) and verifies the rigid-flow isometry theorems by
reconstructing the Killing magnitude.  See CONVENTIONS.md for the sign
conventions everything is pinned to.
"""

__version__ = "0.1.0"

from .expression import (Chart, EvalDomainError, Exclusion, Expr, ExprError,
                         ParseError, UndeclaredSymbolError, diff, eval_at,
                         evaluate, evaluate_along, max_abs, parse_exclusion,
                         parse_expr, sample_points, simplify, to_string)
from .exterior import (ChartMismatchError, FormArityError, MatrixForm, PForm,
                       ext_d, form_eval, matrix_curvature, wedge)
from .frames import (Coframe, FrameData, Metric, SingularMetricError,
                     SpaceClassification, antisymmetry_residual, build_coframe,
                     classify_space, curvature_package, reconstruction_residual,
                     solve_connection, torsion_residual)
from .herglotz import (ClosednessError, HerglotzReport, PathError,
                       check_hypotheses, reconstruct_lambda, ricci_flat_check,
                       run_herglotz, scaled_flow_killing_residual)
from .submersion import (FlowData, VanishingFlowError, adapted_coframe,
                         analyze_flow, constraint_residuals,
                         covariant_derivative, flow_invariants, rigidity_test)

__all__ = [
    "__version__",
    "Chart", "Exclusion", "Expr", "parse_expr", "parse_exclusion", "diff",
    "simplify", "eval_at", "evaluate", "evaluate_along", "max_abs", "to_string",
    "sample_points",
    "PForm", "MatrixForm", "wedge", "ext_d", "form_eval", "matrix_curvature",
    "Metric", "Coframe", "FrameData", "SpaceClassification",
    "build_coframe", "solve_connection", "curvature_package", "classify_space",
    "torsion_residual", "antisymmetry_residual", "reconstruction_residual",
    "FlowData", "adapted_coframe", "flow_invariants", "rigidity_test",
    "covariant_derivative", "constraint_residuals", "analyze_flow",
    "HerglotzReport", "check_hypotheses", "reconstruct_lambda",
    "scaled_flow_killing_residual", "ricci_flat_check",
    "run_herglotz",
    "ExprError", "ParseError", "UndeclaredSymbolError", "EvalDomainError",
    "ChartMismatchError", "FormArityError", "SingularMetricError",
    "VanishingFlowError", "ClosednessError", "PathError",
]
