import dataclasses
import math
import warnings

import numpy as np
import pytest

from chmass import electrostatics, verification
from chmass.electrostatics import (
    area_charge_report,
    robinson_shen_residual,
    verify_einstein_maxwell_static,
)
from chmass.models import ModelParams, admissible_window, nariai_from_alpha, params_from_neck


RNDS = params_from_neck(0.5, 0.3, 1.0)
DESITTER = ModelParams(0.0, 0.0, 1.0)
NARIAI = nariai_from_alpha(0.8, 1.0)


class TestSystemResiduals:
    @pytest.mark.parametrize("model", [RNDS, DESITTER, NARIAI], ids=["rnds", "desitter", "nariai"])
    def test_closed_form_residuals(self, model):
        rep = verify_einstein_maxwell_static(model, samples=32)
        for name, value in rep.residuals.items():
            assert value <= 1e-8, (name, value)

    @pytest.mark.parametrize("model", [RNDS, DESITTER, NARIAI], ids=["rnds", "desitter", "nariai"])
    def test_derivative_double_entry(self, model):
        rep = verify_einstein_maxwell_static(model, samples=32)
        for name, gap in rep.fd_gaps.items():
            assert gap <= 1e-6, (name, gap)

    def test_hypothesis_flags(self):
        assert verify_einstein_maxwell_static(RNDS).hypothesis_sup_e2_le_lambda is False
        assert verify_einstein_maxwell_static(RNDS).sup_e2 == pytest.approx(1.44, abs=1e-10)
        assert verify_einstein_maxwell_static(DESITTER).hypothesis_sup_e2_le_lambda is True
        rep = verify_einstein_maxwell_static(NARIAI)
        assert rep.hypothesis_sup_e2_le_lambda is True
        assert rep.sup_e2 == pytest.approx(0.5625, abs=1e-12)

    def test_nariai_frequency_cancellation(self):
        # Lap V - (|E|^2 - Lambda) V = (-omega^2 - 0.5625 + 1) sin = 0
        assert NARIAI.omega**2 == pytest.approx(0.4375, abs=1e-12)
        rep = verify_einstein_maxwell_static(NARIAI)
        assert rep.residuals["laplace"] <= 1e-12

    def test_degenerate_model_rejected(self):
        with pytest.raises(ValueError):
            verify_einstein_maxwell_static(ModelParams(0.45, 0.1, 1.0))  # above the window

    def test_double_outer_model_params_have_no_static_region(self):
        # the Nariai family entered through plain (m, Q, Lambda): its two
        # outer horizons coincide, so the static interval in r is empty
        with pytest.raises(ValueError, match="no static region between distinct horizons"):
            verify_einstein_maxwell_static(ModelParams(NARIAI.m, NARIAI.q, 1.0))


class TestRobinsonShen:
    def test_rnds_residual_at_reference_step(self):
        assert robinson_shen_residual(RNDS, 0.8, h=1e-4) <= 1e-6

    def test_de_sitter_residual(self):
        assert robinson_shen_residual(DESITTER, 1.0, h=1e-4) <= 1e-5

    def test_nariai_residual(self):
        s_mid = math.pi / (2 * NARIAI.omega)
        assert robinson_shen_residual(NARIAI, s_mid, h=1e-4) <= 1e-6

    @pytest.mark.parametrize(
        "model,point", [(RNDS, 0.8), (NARIAI, math.pi / (2 * NARIAI.omega))],
        ids=["rnds", "nariai"],
    )
    def test_second_order_convergence(self, model, point):
        res = [robinson_shen_residual(model, point, h=h) for h in (8e-3, 4e-3, 2e-3)]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.4)

    def test_horizon_conditioning_guard(self):
        with pytest.raises(ValueError):
            robinson_shen_residual(RNDS, 0.5 + 1e-10, h=1e-4)
        # a Nariai footprint that starts 1e-12 inside the static region,
        # where V = sin(omega s) is about 7e-13
        with pytest.raises(ValueError, match="too close to a horizon"):
            robinson_shen_residual(NARIAI, 3e-4 + 1e-12, h=1e-4)

    def test_non_finite_residual_is_refused(self, monkeypatch):
        # past the conditioning guard, which reads V alone: a NaN charge
        # makes |E|^2 and so the residual NaN
        system = electrostatics._static_system
        monkeypatch.setattr(
            electrostatics, "_static_system",
            lambda model: dataclasses.replace(system(model), q2=math.nan),
        )
        with pytest.raises(ValueError, match="residual is not finite at h = 0.0001"):
            robinson_shen_residual(RNDS, 0.8, h=1e-4)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            robinson_shen_residual(RNDS, 0.8, h=h)

    def test_underflowing_step_raises_without_warning(self):
        # h^2 would underflow to zero; the step floor refuses h first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="below the step floor"):
                robinson_shen_residual(RNDS, 0.8, h=1e-300)

    @pytest.mark.parametrize("h", [1e-160, 1e-8, 6e-6])
    def test_step_below_roundoff_floor_is_refused(self, h):
        # at 1e-160, 0.8 +- h rounds to 0.8 and the residual read exactly 0;
        # at 1e-8 it read 4.5e5: eps/h^3 roundoff, not the identity
        with pytest.raises(ValueError, match=r"h = .* below the step floor 6\.06e-06"):
            robinson_shen_residual(RNDS, 0.8, h=h)

    def test_step_floor_scales_with_the_point(self):
        # the floor is cbrt(eps) max(1, |point|): 1e-5 passes at the RNdS
        # point 0.8 and is refused at de Sitter's r = 1.7, floor 1.03e-5
        assert math.isfinite(robinson_shen_residual(RNDS, 0.8, h=1e-5))
        with pytest.raises(ValueError, match=r"step floor 1\.03e-05"):
            robinson_shen_residual(DESITTER, 1.7, h=1e-5)

    @pytest.mark.parametrize(
        "model,point,h", [(RNDS, 0.8, 1e10), (RNDS, 0.8, 0.2), (DESITTER, 0.1, 0.05),
                          (NARIAI, 0.1, 0.05)],
        ids=["rnds-huge", "rnds-past-horizon", "desitter-past-centre", "nariai-past-end"],
    )
    def test_wide_step_names_h_and_the_stencil(self, model, point, h):
        with pytest.raises(ValueError, match=r"h = .* too wide: the stencil footprint point \+- 3h"):
            robinson_shen_residual(model, point, h=h)


class TestAreaCharge:
    def test_rnds_components(self):
        rep = area_charge_report(RNDS)
        assert rep.kind == "rnds"
        assert len(rep.components) == 2
        inner = rep.components[0]
        assert inner.r == pytest.approx(0.5, abs=1e-9)
        assert inner.k == pytest.approx(0.39, abs=1e-9)
        assert inner.area == pytest.approx(math.pi, abs=1e-8)
        assert inner.euler == 2
        assert inner.bound_lhs == pytest.approx(5.32 * math.pi, abs=1e-8)
        assert inner.satisfied
        assert rep.components[1].satisfied
        assert rep.weighted_sum_lhs <= rep.weighted_sum_rhs
        # hypothesis fails yet the conclusion holds: recorded, not asserted
        assert rep.hypothesis_sup_e2_le_lambda is False
        assert rep.sup_e2 == pytest.approx(1.44, abs=1e-10)

    def test_de_sitter_equality(self):
        rep = area_charge_report(DESITTER)
        assert rep.kind == "desitter"
        [comp] = rep.components
        assert comp.r == pytest.approx(math.sqrt(3.0), abs=1e-10)
        assert comp.bound_lhs - 12 * math.pi == pytest.approx(0.0, abs=1e-10)
        assert rep.hypothesis_sup_e2_le_lambda is True

    def test_nariai_degenerate(self):
        rep = area_charge_report(NARIAI)
        [comp] = rep.components
        assert comp.k <= 1e-8
        assert abs(rep.weighted_sum_lhs) <= 1e-8
        assert abs(rep.weighted_sum_rhs) <= 1e-8
        assert rep.hypothesis_sup_e2_le_lambda is True

    def test_bound_equivalent_to_charge_mass_product(self):
        # Lambda|dN| + 48 pi^2 Q^2/|dN| <= 12 pi  iff  Q^2 <= m r_h, swept
        # over the admissible family
        for q in np.sqrt(np.linspace(0.002, 0.24, 12)):
            lo, hi = admissible_window(q, 1.0)
            for m in np.linspace(lo + 1e-4, hi - 1e-4, 8):
                p = ModelParams(m, q, 1.0)
                rep = area_charge_report(p)
                for comp in rep.components:
                    bound_holds = q**2 <= m * comp.r + 1e-12
                    assert comp.satisfied == bound_holds
                    assert comp.satisfied  # strict on the generic family

    def test_equality_only_in_de_sitter_limit(self):
        # strictly below 12 pi everywhere inside the admissible family
        for q in np.sqrt(np.linspace(0.002, 0.24, 8)):
            lo, hi = admissible_window(q, 1.0)
            for m in np.linspace(lo + 1e-4, hi - 1e-4, 5):
                rep = area_charge_report(ModelParams(m, q, 1.0))
                for comp in rep.components:
                    assert comp.bound_lhs < 12 * math.pi - 1e-6


class TestFamilySweep:
    def test_closed_form_residuals_across_family(self):
        # the exactness of the solution family does not depend on conditioning
        worst = 0.0
        for q2 in (0.01, 0.09, 0.2, 0.245):
            q = math.sqrt(q2)
            lo, hi = admissible_window(q, 1.0)
            for frac in (0.05, 0.5, 0.95):
                p = ModelParams(lo + frac * (hi - lo), q, 1.0)
                rep = verify_einstein_maxwell_static(p, samples=12)
                worst = max(worst, max(rep.residuals.values()))
        assert worst <= 1e-8

    def test_fd_double_entry_away_from_degenerate_corner(self):
        worst = 0.0
        for q2 in (0.01, 0.09, 0.16):
            q = math.sqrt(q2)
            lo, hi = admissible_window(q, 1.0)
            for frac in (0.1, 0.5, 0.9):
                p = ModelParams(lo + frac * (hi - lo), q, 1.0)
                rep = verify_einstein_maxwell_static(p, samples=12)
                worst = max(worst, max(rep.fd_gaps.values()))
        assert worst <= 1e-6

    def test_fd_double_entry_degrades_gracefully_at_corner(self):
        # ultracold corner: interval collapses, sqrt-potential recovery is
        # conditioning-limited; the gap stays bounded while the closed path
        # stays exact
        q = math.sqrt(0.245)
        lo, hi = admissible_window(q, 1.0)
        p = ModelParams(lo + 0.95 * (hi - lo), q, 1.0)
        rep = verify_einstein_maxwell_static(p, samples=12)
        assert max(rep.residuals.values()) <= 1e-8
        assert max(rep.fd_gaps.values()) <= 1e-3


def test_de_sitter_potential_is_pure_trace():
    # space form: Hess V is proportional to the metric, so its tracefree
    # part vanishes in closed form (and E = 0 kills the gradient coupling)
    from chmass.models import lapse_squared, lapse_squared_prime, lapse_squared_second

    for r in (0.4, 0.9, 1.3, 1.6):
        f = lapse_squared(r, DESITTER)
        fp = lapse_squared_prime(r, DESITTER)
        fpp = lapse_squared_second(r, DESITTER)
        v = math.sqrt(f)
        vp = fp / (2 * v)
        vpp = fpp / (2 * v) - fp**2 / (4 * f * v)
        h11 = f * vpp + fp / 2 * vp    # orthonormal radial Hessian component
        h22 = f * vp / r               # orthonormal tangential component
        trace = h11 + 2 * h22
        assert abs(h11 - trace / 3) <= 1e-10
        assert abs(h22 - trace / 3) <= 1e-10


def test_area_charge_report_double_outer_model_params():
    # the Nariai family entered through plain (m, Q, Lambda) parameters
    p = ModelParams(NARIAI.m, NARIAI.q, 1.0)
    rep = area_charge_report(p)
    assert rep.kind == "nariai"
    [comp] = rep.components
    assert comp.k <= 1e-8
    assert comp.r == pytest.approx(0.8, abs=1e-6)


def test_area_charge_report_rejects_degenerate():
    with pytest.raises(ValueError):
        area_charge_report(ModelParams(0.45, 0.1, 1.0))  # above the window


def test_report_carries_divergence_identity_residual():
    for model in (RNDS, DESITTER, NARIAI):
        rep = verify_einstein_maxwell_static(model, samples=8)
        assert rep.robinson_shen_point is not None
        assert robinson_shen_residual(model, rep.robinson_shen_point) <= 1e-5


def _rescale_charge(monkeypatch, factor):
    # the model's V and N stay; only the field |E|^2 = q2/rho^4 is rescaled
    build = electrostatics._static_system

    def rescaled(model):
        system = build(model)
        return dataclasses.replace(system, q2=factor * system.q2)

    monkeypatch.setattr(electrostatics, "_static_system", rescaled)


@pytest.mark.parametrize("model", [RNDS, NARIAI], ids=["rnds", "nariai"])
def test_rescaled_charge_breaks_the_system(monkeypatch, model):
    # mutation control for criterion 13: Q^2 off by 21% must exceed its bound
    _rescale_charge(monkeypatch, 1.21)
    rep = verify_einstein_maxwell_static(model, samples=32)
    assert max(rep.residuals.values()) > 1e-8


def test_crit_13_fails_on_rescaled_charge(monkeypatch):
    name, value, bound = verification.crit_13_appendix()[0]
    assert value <= bound, name
    _rescale_charge(monkeypatch, 1.21)
    name, value, bound = verification.crit_13_appendix()[0]
    assert value > bound, name
