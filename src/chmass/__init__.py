"""chmass: numerical laboratory for the charged Hawking mass.

Builds the static charged de Sitter (Reissner-Nordstrom-de Sitter) and
charged Nariai model geometries, evaluates the charged Hawking mass and its
first and second variations on slices and perturbed graph surfaces, computes
stability spectra and foliation diagnostics, and verifies the electrostatic
identities and area-charge inequalities -- each formula paired with an
independent numerical oracle.

``import chmass`` loads no submodule: each exported name is looked up in its
submodule on access (PEP 562), so a caller pays only for what it uses.  The
name is not cached here, so a patch on the submodule's attribute is seen and
undone in one place.
"""

import importlib

_EXPORTS = {  # submodule: the names the package exports from it
    "models": (
        "CLASS_DEGENERATE", "CLASS_DOUBLE_INNER", "CLASS_DOUBLE_OUTER", "CLASS_GENERIC",
        "HorizonStructure", "ModelParams", "NariaiParams", "admissible_window", "horizon_roots",
        "lapse_squared", "nariai_from_alpha", "params_from_neck", "surface_gravity",
    ),
    "profile": (
        "FoliationState", "ProfileIntegrationError", "RadialProfile", "arclength_from_r",
        "cmc_foliation", "curvature_scalars", "integrate_profile", "monotonicity_report",
        "nariai_flow_diagnostic", "slice_hawking_mass",
    ),
    "sphere": (
        "ScalarField", "SphereGrid", "build_grid", "c2_norm", "integrate", "random_c2_field",
    ),
    "surfaces": (
        "GraphSurface", "SurfaceGeometry", "area", "charge", "charged_hawking_mass",
        "induced_geometry",
    ),
    "spectrum": (
        "SpectralReport", "lambda1_analytic", "lambda1_discrete", "laplace_spectrum",
        "eigenvalue_area_charge_residual", "spectral_report", "stability_window",
    ),
    "variations": (
        "LocalMaxReport", "VariationReport", "first_variation", "local_max_experiment",
        "second_variation_as_printed", "second_variation_minimal", "strict_instability_constant",
        "variation_report", "z_functional",
    ),
    "electrostatics": (
        "ElectrostaticReport", "area_charge_report", "robinson_shen_residual",
        "verify_einstein_maxwell_static",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
