"""Numerical laboratory for a family of pseudo-Riemannian model manifolds
with parallel Weyl tensor.

The chart is I x R x V with metric kappa dt^2 + dt ds + leaf form, where
kappa couples a profile f(t) with a traceless self-adjoint endomorphism A of
a pseudo-Euclidean space V. The package constructs these models, verifies
their curvature identities, realizes their isometry groups and the
symplectic space of transverse solutions, and exposes a scenario-driven
verification CLI (`ecs-lab run`).
"""

from .pseudo_linear import (
    PseudoEuclideanSpace,
    FitBasis,
    NotGenericNilpotent,
    validate_A,
    genericity_test,
    nilpotent_order,
    fit_basis,
    scaling_isometry,
    density_experiment,
)
from .model_geometry import (
    ProfileF,
    HomogeneousProfile,
    PolynomialProfile,
    SumOfPowersProfile,
    ChartPoint,
    ModelManifold,
    CurvaturePack,
    metric_at,
    metric_jet,
    curvature_at,
    curvature_from_jet,
    parallel_weyl_residual,
    nabla_riemann_norm,
    ricci_profile_residuals,
    weyl_tidal_operator,
    olszak_span_check,
)
from .solution_space import (
    solution_at,
    omega,
    omega_matrix,
)
from .isometry_group import (
    SElement,
    IsoElement,
    s_membership,
    sigma_act,
    iso_apply,
    iso_compose,
    iso_inverse,
    iso_identity,
    iso_distance,
    pullback_residual,
    straightening_element,
    classify_holonomy,
)
from .homogeneous import (
    HomogeneousModel,
    spectral_exponents,
    dilation_spectrum_check,
    generator_matrix,
    generator_spectrum_check,
    spectral_split,
    class_map,
    class_map_inverse,
    commute_test,
    transitive_commutation_check,
    conjugation_matrix,
    sample_isometries,
    sample_class,
)
from .geodesics import (
    GeodesicResult,
    geodesic,
    geodesic_closed_form,
    energy_report,
    t_affinity_report,
    affine_transport_residual,
    PolyCurve,
    variation_field,
    terminal_curve_residual,
    affine_defect_residual,
    straightened_axis_residual,
)

__version__ = "0.1.0"
