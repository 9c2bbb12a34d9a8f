"""Curvature flows of nilpotent Lie brackets.

The package works on the structure-constant side of left-invariant geometry:
a simply connected nilpotent group with a left-invariant metric is encoded by
its bracket in an orthonormal frame, curvature becomes polynomial algebra in
the structure constants, and the Ricci flow of the metric becomes an ODE on
brackets that is far better conditioned than the PDE it replaces.
"""

from .algebra import (
    DEFAULT_TOL,
    Bracket,
    ValidationReport,
    VTangent,
    bracket_from_dict,
    bracket_to_dict,
    central_series_dims,
    delta,
    delta_transpose,
    derivation_basis,
    gl_action,
    jacobiator_residual,
    load_bracket,
    nilpotency_degree,
    save_bracket,
    validate_bracket,
    vn_inner,
)
from .bch import (
    MetricField,
    bch_product,
    left_translation_differential,
    metric_at,
    metric_convergence_distance,
    metric_field_2step,
    metric_field_fit,
    translation_jacobian,
)
from .curvature import (
    CurvaturePack,
    RiemannTensor,
    connection_operators,
    curvature_pack,
    laplacian_delta,
    moment_map,
    ricci_energy,
    ricci_energy_gradient,
    ricci_form,
    ricci_operator,
    ricci_sign_check,
    riemann_at_origin,
    scalar_curvature,
)
from .exceptions import (
    BadNormalization,
    BadRate,
    BracketFormatError,
    ConfigError,
    DegreeTooHigh,
    DimensionMismatch,
    NilflowError,
    NotNilpotentError,
    NumericalFailure,
    SingularMatrix,
    StepSizeUnderflow,
    TooFewSamples,
    ZeroBracket,
)
from .flow import (
    EquivalenceReport,
    FlowOpts,
    FlowTrace,
    IdentityReport,
    InnerProductTrace,
    Type3Report,
    cointegrate_h,
    equivalence_report,
    innerproduct_scal,
    integrate_bracket_flow,
    integrate_innerproduct_flow,
    integrate_normalized_flow,
    trace_from_csv,
    type3_certificate,
    verify_flow_identities,
)
from .generators import (
    filiform,
    heisenberg,
    random_nilpotent,
    random_orthogonal,
    random_skew,
    random_two_step,
    rescale_to_norm,
    sphere_perturbation,
)
from .soliton import (
    ConvergenceReport,
    SolitonCertificate,
    detect_convergence,
    orbit_invariants,
    pre_einstein_derivation,
    soliton_residual,
)

__version__ = "0.1.0"
