"""Explicit coupled solutions on ruled surfaces over a curve.

Constructs and independently verifies momentum-profile solutions of a
constant-phase curvature equation coupled to a variable Kaehler metric,
including conical variants, a twisted Kaehler-Einstein reduction, and the
zero / infinite slope limits of the scaled curvature family.
"""

from .coupled import (
    PositivityReport,
    ProfilePoly,
    conical_alpha,
    conical_coefficients,
    eval_phi,
    eval_psi,
    phase_and_radius,
    positivity_certificate,
    scalar_residual,
    smooth_alpha,
)
from .dhym import (
    boundary_targets,
    eval_H,
    solve_dhym,
)
from .errors import (
    DegenerateClassError,
    DhymRuledError,
    DomainError,
    IntegrationError,
    NoSolutionError,
    PoleError,
    PositivityError,
    TkeNotFoundError,
    ValidationError,
)
from .limits import (
    ConvergenceReport,
    ScaledFamily,
    build_family,
    large_radius_check,
    scaled_solution,
    small_radius_check,
    small_radius_constants,
)
from .params import (
    BundleClass,
    CohClass,
    Problem,
    StabilityClass,
    SurfaceParams,
    bfield_alpha,
    canonicalize,
    classify,
    cohomology_classes,
    from_complexified,
    intersection_pairing,
    jy_class,
    make_surface,
    phase_constant,
    pose,
    stability_margin,
)
from .tke import (
    TkeAnalysis,
    analyze,
    beta_asymptote,
    condition_residual,
    solve_beta0,
)

__version__ = "0.1.0"
