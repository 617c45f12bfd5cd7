"""Delta-invariants and sharp curvature inequalities for pointwise
Lagrangian data in complex space forms.

Sign and normalization conventions live in docs/conventions.md.
"""

from .frames import (CurvatureTensor, MetricFrame, constant_curvature,
                     gram_schmidt, rotate_tensor, scalar_tau,
                     sectional_curvature, tau_subspace)
from .cubic import (CubicForm, LagrangianPointData, gauss_curvature,
                    mean_curvature, point_data_from_json, point_data_to_json,
                    random_cubic_form, rotate_cubic, tau_from_cubic,
                    validate_cubic)
from .delta import (DeltaDiagnostics, DeltaTuple, OptimizerOptions,
                    SubspaceConfig, config_objective, delta_invariant,
                    delta_invariant_batch, delta_value, enumerate_tuples,
                    oracle_delta_dim3, oracle_delta_grid)
from .inequalities import (InequalityReport, InequalityVariant,
                           StructureReport, admissible_variants,
                           bound_report, coefficients,
                           detect_equality_structure, evaluate,
                           select_improved, soundness_audit,
                           synthesize_equality_data)
from .fields import (CompatibilityReport, CubicField, compatibility_report,
                     exotic_s3_field)
from .immersions import (ExtractedData, ImmersionChart, OdeState, Trajectory,
                         clifford_legendrian, cp_equality_chart,
                         equality_graph_function, exotic_s3_horizontal_chart,
                         flat_equality_chart, graph_immersion,
                         horizontality_residual, induced_data_flat,
                         induced_data_horizontal, intrinsic_curvature_fd,
                         lagrangian_residual, legendrian_minimality_residual,
                         ode_family_integrate, trajectory_residuals)
from .gallery import GALLERY, Claim, example_names, mesh_export, run_example

__all__ = [
    # frames
    "CurvatureTensor", "MetricFrame", "constant_curvature", "gram_schmidt",
    "rotate_tensor", "scalar_tau", "sectional_curvature", "tau_subspace",
    # cubic data
    "CubicForm", "LagrangianPointData", "gauss_curvature", "mean_curvature",
    "point_data_from_json", "point_data_to_json", "random_cubic_form",
    "rotate_cubic", "tau_from_cubic", "validate_cubic",
    # delta invariants
    "DeltaDiagnostics", "DeltaTuple", "OptimizerOptions", "SubspaceConfig",
    "config_objective", "delta_invariant", "delta_invariant_batch",
    "delta_value", "enumerate_tuples", "oracle_delta_dim3",
    "oracle_delta_grid",
    # inequalities
    "InequalityReport", "InequalityVariant", "StructureReport",
    "admissible_variants", "bound_report", "coefficients",
    "detect_equality_structure", "evaluate", "select_improved",
    "soundness_audit", "synthesize_equality_data",
    # fields
    "CompatibilityReport", "CubicField", "compatibility_report",
    "exotic_s3_field",
    # immersions
    "ExtractedData", "ImmersionChart", "OdeState", "Trajectory",
    "clifford_legendrian", "cp_equality_chart", "equality_graph_function",
    "exotic_s3_horizontal_chart", "flat_equality_chart", "graph_immersion",
    "horizontality_residual", "induced_data_flat", "induced_data_horizontal",
    "intrinsic_curvature_fd", "lagrangian_residual",
    "legendrian_minimality_residual", "ode_family_integrate",
    "trajectory_residuals",
    # gallery
    "GALLERY", "Claim", "example_names", "mesh_export", "run_example",
]
