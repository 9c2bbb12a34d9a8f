"""The package's public names: any change to the API shows in this file's diff."""

import inspect

import nilflow


def test_public_names():
    names = sorted(k for k, v in vars(nilflow).items() if not k.startswith("_") and not inspect.ismodule(v))
    assert names == [
        "BadNormalization", "BadRate", "Bracket", "BracketFormatError", "ConfigError",
        "ConvergenceReport", "CurvaturePack", "DEFAULT_TOL", "DegreeTooHigh", "DimensionMismatch",
        "EquivalenceReport", "FlowOpts", "FlowTrace", "IdentityReport", "InnerProductTrace",
        "MetricField", "NilflowError", "NotNilpotentError", "NumericalFailure",
        "RiemannTensor", "SingularMatrix", "SolitonCertificate", "StepSizeUnderflow", "TooFewSamples",
        "Type3Report", "VTangent", "ValidationReport", "ZeroBracket",
        "bch_product", "bracket_from_dict", "bracket_to_dict", "central_series_dims", "cointegrate_h",
        "connection_operators", "curvature_pack", "delta", "delta_transpose", "derivation_basis",
        "detect_convergence", "equivalence_report", "filiform", "gl_action", "heisenberg",
        "innerproduct_scal", "integrate_bracket_flow", "integrate_innerproduct_flow",
        "integrate_normalized_flow", "jacobiator_residual", "laplacian_delta",
        "left_translation_differential", "load_bracket", "metric_at", "metric_convergence_distance",
        "metric_field_2step", "metric_field_fit", "moment_map", "nilpotency_degree", "orbit_invariants",
        "pre_einstein_derivation", "random_nilpotent", "random_orthogonal", "random_skew", "random_two_step",
        "rescale_to_norm",
        "ricci_energy", "ricci_energy_gradient", "ricci_form", "ricci_operator", "ricci_sign_check",
        "riemann_at_origin", "save_bracket", "scalar_curvature", "soliton_residual", "sphere_perturbation",
        "trace_from_csv", "translation_jacobian", "type3_certificate", "validate_bracket",
        "verify_flow_identities", "vn_inner",
    ]
