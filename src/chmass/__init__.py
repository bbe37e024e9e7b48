"""chmass: numerical laboratory for the charged Hawking mass.

Builds the static charged de Sitter (Reissner-Nordstrom-de Sitter) and
charged Nariai model geometries, evaluates the charged Hawking mass and its
first and second variations on slices and perturbed graph surfaces, computes
stability spectra and foliation diagnostics, and verifies the electrostatic
identities and area-charge inequalities -- each formula paired with an
independent numerical oracle.
"""

from .models import (
    CLASS_DEGENERATE,
    CLASS_DOUBLE_INNER,
    CLASS_DOUBLE_OUTER,
    CLASS_GENERIC,
    HorizonStructure,
    ModelParams,
    NariaiParams,
    admissible_window,
    horizon_roots,
    lapse_squared,
    nariai_from_alpha,
    params_from_neck,
    surface_gravity,
)
from .profile import (
    ProfileIntegrationError,
    RadialProfile,
    arclength_from_r,
    curvature_scalars,
    first_integral,
    integrate_profile,
)
from .sphere import (
    ScalarField,
    SphereGrid,
    build_grid,
    c2_norm,
    integrate,
    laplace_beltrami,
    random_c2_field,
)
from .surfaces import (
    GraphSurface,
    SurfaceGeometry,
    area,
    charge,
    charged_hawking_mass,
    induced_geometry,
    slice_hawking_mass,
)
from .spectrum import (
    SpectralReport,
    lambda1_analytic,
    lambda1_discrete,
    laplace_spectrum,
    eigenvalue_area_charge_residual,
    spectral_report,
    stability_window,
)
from .variations import (
    FoliationState,
    LocalMaxReport,
    VariationReport,
    cmc_foliation,
    first_variation,
    local_max_experiment,
    monotonicity_report,
    nariai_flow_diagnostic,
    second_variation_as_printed,
    second_variation_minimal,
    strict_instability_constant,
    variation_report,
    z_functional,
)
from .electrostatics import (
    ElectrostaticReport,
    area_charge_report,
    robinson_shen_residual,
    verify_einstein_maxwell_static,
)

__version__ = "0.1.0"
