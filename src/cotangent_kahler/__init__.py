"""Kahler-Einstein metrics on punctured cotangent bundles of space forms.

The package builds, on the complement of the zero section in the cotangent
bundle of a positively curved space form, the family of metrics

    G = a sqrt(t) g_ij  (horizontal)  +  inverse block  (vertical),
    perturbed radially by a profile v(t) along the momentum,

together with the compatible almost-complex structure, and verifies
numerically that the pair is almost Kahler for every admissible profile,
Kahler exactly at the coupling ``a = sqrt(2c)``, and Einstein exactly on a
two-parameter family of profiles solving a radial Euler equation.

Index convention.  The adapted frame is indexed ``0..2n-1``: ``0..n-1``
are the horizontal fields ``delta_i = d/dq^i + p_k Gamma^k_{ih} d/dp_h``,
``n..2n-1`` the vertical fields ``d/dp_i``.  Each frame object is one
array: the metric ``G`` and ``J`` are ``(2n, 2n)`` (``J e_b = J[a, b]
e_a``), the connection is ``Gamma[a, b, c]`` (``nabla_{e_a} e_b =
Gamma[a, b, c] e_c``), the brackets are ``C[a, b, c]`` (``[e_a, e_b] =
C[a, b, c] e_c``) and the curvature is ``K[a, b, c, d]`` (``K(e_a, e_b)
e_c = K[a, b, c, d] e_d``): the output index is always last.
"""

from .base import BaseGeometry, ModelParams, integrable_coupling, space_form_metric
from .connection import (
    connection_coefficients,
    connection_fiber_derivatives,
    covariant_field_derivative,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    metric_gradient,
    parallel_j_residual,
    torsion_residual,
)
from .curvature import (
    RicciBlocks,
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
    nabla_curvature,
    nabla_curvature_probe,
    odd_slots,
    pair_symmetry_residual,
    ricci_closed_form,
    ricci_from_blocks,
)
from .einstein import (
    einstein_difference,
    einstein_difference_closed_form,
    einstein_residual,
    euler_ode_residual,
    family_einstein_constant,
    fit_einstein_constant,
    gamma_factor,
)
from .errors import (
    ConfigError,
    GeometryError,
    PositivityError,
    SingularMetricError,
    StencilError,
    ZeroSectionError,
)
from .fd import fd_gradient, fd_partial, frame_gradient
from .mtensor import (
    CotangentPoint,
    FiberJets,
    assemble_metric,
    chart_frame,
    energy_density,
    fiber_jets,
    frame_brackets,
)
from .profiles import (
    VProfile,
    constant_profile,
    einstein_profile,
    profile_from_name,
    rational_profile,
    zero_profile,
)
from .structure import (
    assemble_complex_structure,
    canonical_coordinate_form,
    complex_structure_squared_residual,
    coordinate_form,
    dform_residual,
    fundamental_form,
    hermitian_residual,
    nijenhuis_closed_form,
    nijenhuis_core,
    nijenhuis_numeric,
)
from .suites import RunConfig, Sample, Tolerances, run_suite, run_verification, sample_points

__version__ = "0.1.0"
