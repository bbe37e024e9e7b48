"""Acceptance suite: model arithmetic and property checks with fixed bounds.

Every criterion is a function returning named (value, bound) pairs with
pass = value <= bound; ``run_all`` executes them in order and is shared by
the test suite (tests/test_acceptance.py) and the command line ``verify``
subcommand.  Bounds are part of the contract: nothing scales or
recalibrates them at run time.  Every stack of graphs goes through the
stacked route of ``surfaces``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .electrostatics import (
    area_charge_report,
    robinson_shen_residual,
    verify_einstein_maxwell_static,
)
from .models import (
    CLASS_GENERIC,
    ModelParams,
    admissible_window,
    horizon_roots,
    nariai_from_alpha,
    params_from_neck,
)
from .profile import (
    area_charge_value, cmc_foliation, curvature_scalars, integrate_profile, slice_hawking_mass,
)
from .sphere import (
    ScalarField, _random_c2_stack, build_grid, coeff_index, n_coeffs, random_c2_field,
)
from .spectrum import (
    eigenvalue_area_charge_residual,
    lambda1_analytic,
    lambda1_discrete,
    laplace_spectrum_discrete,
    stability_window,
)
from .surfaces import GraphSurface, _graph_masses, induced_geometry
from .sweeps import sweep_table
from .variations import (
    local_max_experiment,
    second_variation_as_printed,
    second_variation_fd,
    second_variation_minimal,
    variation_report,
    z_functional,
)

__all__ = ["CheckResult", "CriterionResult", "VerificationSummary", "run_all", "CRITERIA"]


@dataclass
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass
class CriterionResult:
    cid: str
    title: str
    checks: list[CheckResult]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class VerificationSummary:
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _flag(ok: bool) -> float:
    # boolean conditions enter the value/bound scheme as 0/1 against 0.5
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def crit_01_nariai_double_root():
    npar = nariai_from_alpha(0.8, 1.0)
    p = ModelParams(npar.m, npar.q, 1.0)
    quartic = p.lam / 3 * 0.8**4 - 0.8**2 + 2 * p.m * 0.8 - p.q**2
    dquartic = 4 * p.lam / 3 * 0.8**3 - 2 * 0.8 + 2 * p.m
    hs = horizon_roots(p)
    expanded = sorted(r for r, k in hs.roots for _ in range(k))
    reference = [-2.11149, 0.51149, 0.8, 0.8]
    root_err = max(abs(a - b) for a, b in zip(expanded, reference))
    return [
        ("quartic value at alpha", abs(quartic), 1e-12),
        ("quartic derivative at alpha", abs(dquartic), 1e-12),
        ("r_minus vs 0.511488", abs(npar.r_minus - 0.511488), 1e-6),
        ("root multiset", root_err, 1e-3),
        ("double multiplicity", _flag(dict(hs.roots).get(hs.r_plus) == 2), 0.5),
    ]


def crit_02_admissible_window():
    lo, hi = admissible_window(0.3, 1.0)
    cls = horizon_roots(ModelParams(0.3191667, 0.3, 1.0)).classification
    return [
        ("m_min vs 0.295146", abs(lo - 0.295146), 1e-6),
        ("m_max vs 0.379473", abs(hi - 0.379473), 1e-6),
        ("interior mass is generic", _flag(cls == CLASS_GENERIC), 0.5),
    ]


def crit_03_profile_conservation():
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    s = np.linspace(-2.0, 2.0, 801)
    drift = float(np.abs(slice_hawking_mass(prof, s) - prof.m).max())
    sc = curvature_scalars(prof, s)
    scalar = float(np.abs(sc["R"] - 2.0 - 2.0 * sc["e2"]).max())
    return [
        ("neck mass vs 0.3191667", abs(prof.m - 0.3191667), 5e-8),
        ("first-integral drift", drift, 1e-8),
        ("scalar-curvature identity", scalar, 1e-7),
    ]


def crit_04_slice_mass_constancy():
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    s0 = np.linspace(-1.8, 1.8, 50)
    # the 50 slices are the graphs of one zero height over a stack of s0; a
    # zero height is band 0, synthesized from its one zero coefficient
    grid = build_grid(32, 64)
    zero = grid.synth_derivs(np.zeros(1))
    quad = _graph_masses(prof, grid, s0[:, None, None], zero, 2.0)
    return [
        ("closed-form slice mass", np.abs(slice_hawking_mass(prof, s0) - prof.m).max(), 1e-8),
        ("quadrature slice mass", np.abs(quad["mch"] - prof.m).max(), 1e-5),
    ]


def crit_05_charge_invariance():
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=1.0, tol=1e-10)
    grid = build_grid(64, 128)
    drawn, scale, _ = _random_c2_stack(grid, range(20), 4, 0.05)
    flux = _graph_masses(prof, grid, 0.0, drawn, 2.0, scale[:, None, None])["charge"]
    return [("flux charge over 20 seeded graphs", np.abs(flux - 0.3).max(), 1e-6)]


def crit_06_spectra():
    grid = build_grid(32, 64)
    gap = laplace_spectrum_discrete(grid, 0.5, 2)[1]
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=1.0, tol=1e-10)
    surf = GraphSurface(prof, 0.0, ScalarField.from_coeffs(grid, np.zeros(1)))
    lam1 = lambda1_discrete(surf)
    lo, hi = stability_window(0.3)
    return [
        ("discrete gap vs 2/a^2 (rel)", abs(gap - 8.0) / 8.0, 1e-3),
        ("lambda1 discrete vs 1.56", abs(lam1 - 1.56), 2e-3),
        ("window lower endpoint", abs(lo - 0.1), 1e-15),
        ("window upper endpoint", abs(hi - 0.9), 1e-15),
    ]


def crit_07_identity_grid():
    _, rows = sweep_table("identity", {"a2": (0.05, 0.95, 100), "q2": (0.0, 0.25, 100)})
    # spot-check the vectorized sweep against the scalar implementation
    a2, q2, res = rows[40 * 100 + 60]
    spot = abs(res - eigenvalue_area_charge_residual(math.sqrt(a2), math.sqrt(q2)))
    return [
        ("max residual on 100x100 grid", max(abs(r[2]) for r in rows), 1e-12),
        ("vectorization spot check", spot, 1e-15),
    ]


def crit_08_first_variation():
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    grid = build_grid(32, 64)
    zero = ScalarField.from_coeffs(grid, np.zeros(1))
    slices = [induced_geometry(GraphSurface(prof, s0, zero)) for s0 in np.linspace(-1.2, 1.2, 7)]
    s0_list = [0.2, -0.35, 0.5, 0.3, -0.45, 0.6, -0.25, 0.4, -0.55, 0.15]
    reports = [
        variation_report(prof, s0, random_c2_field(grid, 400 + i, 4, 0.5), 2e-2)
        for i, s0 in enumerate(s0_list)
    ]
    return [
        ("Z on slices", max(np.abs(z_functional(geom)).max() for geom in slices), 1e-10),
        ("analytic first variation on slices", max(abs(r.first_analytic) for r in reports), 1e-10),
        ("FD convergence order deviation", max(abs(r.first_order - 2.0) for r in reports), 0.4),
    ]


def crit_09_second_variation():
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=1.0, tol=1e-10)
    grid = build_grid(32, 64)
    c = np.zeros(n_coeffs(1))
    c[coeff_index(1, 0)] = 2.0  # L2-normalized on the a = 0.5 slice
    psi = ScalarField.from_coeffs(grid, c)
    analytic = second_variation_minimal(0.5, 0.3, psi)
    fd_dev = max(abs(second_variation_fd(prof, psi, dt) - analytic) for dt in (1e-2, 5e-3))
    one = ScalarField.from_coeffs(grid, [math.sqrt(4.0 * math.pi)])  # c_00 of 1
    return [
        ("value vs -0.760761", abs(analytic + 0.760761), 1e-3),
        ("FD oracle match", fd_dev, max(1e-4, 5 * 1e-2**2)),
        ("constant-speed null", abs(second_variation_minimal(0.5, 0.3, one)), 1e-8),
        (
            "as-printed constant discrepancy vs +0.0243750",
            abs(second_variation_as_printed(0.5, 0.3, one) - 0.024375),
            1e-10,
        ),
    ]


def crit_10_local_max_experiment():
    rep = local_max_experiment(0.5, 0.3, 200, 0.02, 1)
    return [
        ("max mass excess over 200 graphs", rep.max_excess, 1e-9),
        ("max |excess / (d2m/2) - 1| over 200 graphs", rep.max_second_variation_gap, 1e-3),
        ("mass resolution of the largest-excess sample", rep.mass_resolution, 1e-12),
        ("near-equality cases are slices", _flag(rep.all_near_equality_are_slices), 0.5),
    ]


def crit_11_area_charge_equality():
    npar = nariai_from_alpha(0.8, 1.0)
    area_n = 4 * math.pi * 0.8**2
    residual = area_charge_value(area_n, npar.q) - 4 * math.pi
    neck_val = area_charge_value(math.pi, 0.3)
    return [
        ("Nariai equality residual", abs(residual), 1e-12),
        ("RNdS neck value vs 2.44 pi", abs(neck_val - 2.44 * math.pi), 1e-10),
        ("RNdS neck strictly below 4 pi", _flag(neck_val < 4 * math.pi), 0.5),
    ]


def crit_12_foliation():
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    states = cmc_foliation(prof, (-1.5, 1.5), 61)
    mid = min(states, key=lambda st: abs(st.t))
    return [
        ("H'(0) + lambda1", abs(mid.dh_dt + lambda1_analytic(0.5, 0.3)), 1e-8),
        ("evolution-identity residual", max(st.evolution_identity_residual for st in states), 1e-8),
        ("mass drift along foliation", max(abs(st.dmch_dt) for st in states), 1e-7),
    ]


def crit_13_appendix():
    rnds = params_from_neck(0.5, 0.3, 1.0)
    desitter = ModelParams(0.0, 0.0, 1.0)
    nariai = nariai_from_alpha(0.8, 1.0)
    res_worst = 0.0
    for model in (rnds, desitter, nariai):
        rep = verify_einstein_maxwell_static(model, samples=32)
        res_worst = max(res_worst, max(rep.residuals.values()))
    rs_res = robinson_shen_residual(rnds, 0.8, h=1e-4)
    seq = [robinson_shen_residual(rnds, 0.8, h=h) for h in (8e-3, 4e-3, 2e-3)]
    rs_order_dev = max(abs(math.log2(seq[i] / seq[i + 1]) - 2.0) for i in range(2))
    ds_rep = area_charge_report(desitter)
    ds_eq = abs(ds_rep.components[0].bound_lhs - 12 * math.pi)
    rn_rep = area_charge_report(rnds)
    return [
        ("electrostatic residuals (3 models)", res_worst, 1e-8),
        ("Robinson-Shen residual at h=1e-4", rs_res, 1e-6),
        ("Robinson-Shen order deviation", rs_order_dev, 0.4),
        ("de Sitter equality vs 12 pi", ds_eq, 1e-10),
        ("sup |E|^2 vs 1.44", abs(rn_rep.sup_e2 - 1.44), 1e-10),
        ("hypothesis flag is False", _flag(rn_rep.hypothesis_sup_e2_le_lambda is False), 0.5),
        (
            "conclusion holds regardless (5.32 pi)",
            abs(rn_rep.components[0].bound_lhs - 5.32 * math.pi),
            1e-8,
        ),
    ]


CRITERIA = [
    ("01", "Nariai double root data", crit_01_nariai_double_root),
    ("02", "admissible mass window", crit_02_admissible_window),
    ("03", "profile first integral and scalar identity", crit_03_profile_conservation),
    ("04", "slice mass constancy (both paths)", crit_04_slice_mass_constancy),
    ("05", "charge invariance on seeded graphs", crit_05_charge_invariance),
    ("06", "spectra: gap, lambda1, window", crit_06_spectra),
    ("07", "eigenvalue-area-charge identity grid", crit_07_identity_grid),
    ("08", "first variation vs FD oracle", crit_08_first_variation),
    ("09", "second variation vs FD oracle", crit_09_second_variation),
    ("10", "local maximality sampling", crit_10_local_max_experiment),
    ("11", "area-charge equality and strict case", crit_11_area_charge_equality),
    ("12", "CMC foliation diagnostics", crit_12_foliation),
    ("13", "electrostatic system and bounds", crit_13_appendix),
]


def run_all() -> VerificationSummary:
    """Run every acceptance criterion against its fixed bounds."""
    summary = VerificationSummary()
    for cid, title, fn in CRITERIA:
        start = time.perf_counter()
        checks = [
            CheckResult(name, float(value), float(bound), bool(float(value) <= float(bound)))
            for name, value, bound in fn()
        ]
        summary.results.append(
            CriterionResult(cid=cid, title=title, checks=checks,
                            seconds=time.perf_counter() - start)
        )
    return summary
