import math

import numpy as np
import pytest

from chmass.models import nariai_from_alpha
from chmass import surfaces, variations
from chmass.profile import integrate_profile
from chmass.sphere import (
    ScalarField,
    SphereGrid,
    build_grid,
    c2_norm,
    coeff_index,
    n_coeffs,
    random_c2_field,
)
from chmass.spectrum import lambda1_analytic
from chmass.surfaces import GraphSurface, induced_geometry
from chmass.variations import (
    area_charge_value,
    cmc_foliation,
    first_variation,
    first_variation_fd,
    local_max_experiment,
    mass_of_scaled_graph,
    monotonicity_report,
    nariai_flow_diagnostic,
    second_variation_as_printed,
    second_variation_fd,
    second_variation_minimal,
    strict_instability_constant,
    variation_report,
    z_functional,
)


@pytest.fixture(scope="module")
def prof():
    return integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


def zero(grid):
    return ScalarField(grid, np.zeros((grid.n_theta, grid.n_phi)))


def harmonic(grid, l, m, scale=1.0):
    c = np.zeros(n_coeffs(max(l, 1)))
    c[coeff_index(l, m)] = scale
    return ScalarField(grid, grid.synthesize(c))


class TestZFunctional:
    def test_vanishes_on_slices(self, prof, grid):
        for s0 in (-1.2, 0.0, 0.45, 1.3):
            geom = induced_geometry(GraphSurface(prof, s0, zero(grid)), force_quadrature=True)
            assert np.abs(z_functional(geom)).max() <= 1e-10

    def test_vanishes_on_nariai_slices(self, grid):
        nprof = integrate_profile(0.8, 0.48, 1.0, s_max=1.0)
        geom = induced_geometry(GraphSurface(nprof, 0.3, zero(grid)), force_quadrature=True)
        assert np.abs(z_functional(geom)).max() <= 1e-10

    def test_integral_nonnegative_on_graphs(self, prof, grid):
        for seed in range(8):
            fld = random_c2_field(grid, 50 + seed, 4, 0.08)
            geom = induced_geometry(GraphSurface(prof, 0.1, fld))
            assert geom.integral(z_functional(geom)) >= -1e-10


class TestFirstVariation:
    def test_slices_are_critical_for_constant_speed(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.6, zero(grid)), force_quadrature=True)
        one = ScalarField(grid, np.ones((32, 64)))
        assert abs(first_variation(geom, one)) <= 1e-10

    def test_minimal_surface_kills_everything(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.0, zero(grid)), force_quadrature=True)
        fld = random_c2_field(grid, 9, 4, 1.0)
        assert abs(first_variation(geom, fld)) <= 1e-12

    def test_fd_adjudication_on_slices(self, prof, grid):
        # ten seeded non-minimal slices: analytic value 0, FD converging at
        # second order (Richardson ratio about 4 under halving)
        s0_list = np.linspace(-0.6, 0.6, 10)
        for i, s0 in enumerate(s0_list):
            if abs(s0) < 1e-9:
                s0 = 0.25
            fld = random_c2_field(grid, 200 + i, 4, 0.5)
            geom = induced_geometry(GraphSurface(prof, s0, zero(grid)), force_quadrature=True)
            analytic = first_variation(geom, fld)
            fd = first_variation_fd(prof, s0, fld, 2e-2)
            assert abs(analytic) <= 1e-10
            assert abs(fd.d_h - analytic) <= 5e-3 * (2e-2) ** 2
            assert fd.order == pytest.approx(2.0, abs=0.4)

    def test_nonzero_value_on_graph_base(self, prof, grid):
        # vertical-family oracle: height speed psi corresponds to normal
        # speed psi / W; agreement then holds to quadrature precision
        base = random_c2_field(grid, 11, 4, 0.05)
        speed = random_c2_field(grid, 12, 4, 0.5)
        surf = GraphSurface(prof, 0.25, base)
        geom = induced_geometry(surf)
        analytic = first_variation(geom, ScalarField(grid, speed.values / geom.w_tilt))

        def mass_at(t):
            s = GraphSurface(prof, 0.25, ScalarField(grid, base.values + t * speed.values))
            return induced_geometry(s, force_quadrature=True).mch

        h = 1e-2
        d1 = (mass_at(h) - mass_at(-h)) / (2 * h)
        d2 = (mass_at(h / 2) - mass_at(-h / 2)) / h
        extrap = (4 * d2 - d1) / 3
        assert abs(analytic) > 1e-4  # genuinely nonzero case
        assert analytic == pytest.approx(extrap, abs=1e-10)

    def test_lambda_coefficient_variant_differs_off_minimal(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.6, zero(grid)), force_quadrature=True)
        one = ScalarField(grid, np.ones((32, 64)))
        printed = first_variation(geom, one, use_lambda_coefficient=True)
        assert abs(printed) > 1e-4  # fails the criticality null test


class TestSecondVariation:
    def test_frozen_harmonic_values(self, grid):
        psi1 = harmonic(grid, 1, 0, scale=2.0)  # L2-normalized on the a = 0.5 slice
        psi2 = harmonic(grid, 2, 1, scale=2.0)
        assert second_variation_minimal(0.5, 0.3, psi1) == pytest.approx(
            -0.7607606279792597, abs=1e-12
        )
        assert second_variation_minimal(0.5, 0.3, psi2) == pytest.approx(
            -6.1020005181432672, abs=1e-12
        )

    def test_consistency_chain(self, grid):
        # equals prefactor * mu_1 (Ric - mu_1) for the normalized l=1 mode
        psi1 = harmonic(grid, 1, 0, scale=2.0)
        mu1 = 2.0 / 0.25
        ric = -lambda1_analytic(0.5, 0.3)
        pref = math.sqrt(math.pi) / (32 * math.pi**1.5)
        assert second_variation_minimal(0.5, 0.3, psi1) == pytest.approx(
            pref * mu1 * (ric - mu1), abs=1e-12
        )

    def test_fd_oracle_match(self, prof, grid):
        psi1 = harmonic(grid, 1, 0, scale=2.0)
        analytic = second_variation_minimal(0.5, 0.3, psi1)
        for dt in (1e-2, 5e-3):
            fd = second_variation_fd(prof, psi1, dt)
            assert abs(fd - analytic) <= max(1e-4, 5 * dt**2)

    def test_constant_null(self, grid):
        one = ScalarField(grid, np.ones((32, 64)))
        assert abs(second_variation_minimal(0.5, 0.3, one)) <= 1e-8

    def test_printed_variant_constant_value(self, grid):
        one = ScalarField(grid, np.ones((32, 64)))
        assert second_variation_as_printed(0.5, 0.3, one) == pytest.approx(
            0.024375, abs=1e-10
        )

    def test_printed_minus_canonical_gap_formula(self, grid):
        # gap = prefactor * (zeta - Lambda)/2 * (-int phi L phi), zeta = 2
        fld = random_c2_field(grid, 77, 4, 1.0)
        a, q = 0.5, 0.3
        gap = second_variation_as_printed(a, q, fld) - second_variation_minimal(a, q, fld)
        coeffs = fld.grid.analyze(fld.values)
        l = np.floor(np.sqrt(np.arange(coeffs.size))).astype(int)
        ric = -lambda1_analytic(a, q)
        int_phi_l_phi = float(((ric - l * (l + 1.0) / a**2) * coeffs**2).sum()) * a**2
        pref = math.sqrt(4 * math.pi * a**2) / (32 * math.pi**1.5)
        assert gap == pytest.approx(pref * 0.5 * (-int_phi_l_phi), abs=1e-12)

    def test_strict_instability_bound(self, grid):
        # mean-zero fields obey d2 m <= -C int phi^2
        C = strict_instability_constant(0.5, 0.3)
        assert C == pytest.approx(0.7607606279792597, abs=1e-12)
        for seed in range(10):
            fld = random_c2_field(grid, 300 + seed, 4, 1.0)
            coeffs = grid.analyze(fld.values)
            coeffs[coeff_index(0, 0)] = 0.0
            mz = ScalarField(grid, grid.synthesize(coeffs))
            val = second_variation_minimal(0.5, 0.3, mz)
            norm2 = 0.25 * float((coeffs**2).sum())
            assert val <= -C * norm2 + 1e-9

    def test_constant_attained_at_l_equals_one(self):
        a, q = 0.5, 0.3
        ric = -lambda1_analytic(a, q)
        pref = math.sqrt(4 * math.pi * a**2) / (32 * math.pi**1.5)
        per_l = [pref * (l * (l + 1) / a**2) * (l * (l + 1) / a**2 - ric) for l in range(1, 8)]
        assert np.argmin(per_l) == 0
        assert np.all(np.diff(per_l) > 0)

    def test_window_required(self):
        with pytest.raises(ValueError):
            strict_instability_constant(1.2, 0.3)


class TestFoliation:
    def test_neck_derivative_equals_minus_lambda1(self, prof):
        states = cmc_foliation(prof, (-0.5, 0.5), 21)
        mid = states[10]
        assert mid.t == 0.0
        assert mid.dh_dt == pytest.approx(-1.56, abs=1e-12)
        assert mid.dh_dt + lambda1_analytic(0.5, 0.3) == pytest.approx(0.0, abs=1e-8)

    def test_mean_curvature_sign_pattern(self, prof):
        states = cmc_foliation(prof, (-0.5, 0.5), 41)
        for st in states:
            if abs(st.t) > 1e-12:
                assert st.h_mean * st.t < 0

    def test_evolution_identity_residual(self, prof):
        states = cmc_foliation(prof, (-0.5, 0.5), 41)
        assert max(st.evolution_identity_residual for st in states) <= 1e-8

    def test_mass_drift(self, prof):
        states = cmc_foliation(prof, (-1.5, 1.5), 61)
        assert max(abs(st.dmch_dt) for st in states) <= 1e-7

    def test_range_guard(self, prof):
        with pytest.raises(ValueError):
            cmc_foliation(prof, (-2.5, 2.5), 11)

    def test_monotonicity_brackets(self, prof):
        states = cmc_foliation(prof, (-1.0, 1.0), 21)
        rep = monotonicity_report(prof, states)
        area = 4 * math.pi * np.array([st.u for st in states]) ** 2
        assert np.abs(rep.bracket_scalar_zeta).max() <= 1e-7
        # Lambda-coefficient variant equals Lambda |Sigma_t|: the recorded gap
        np.testing.assert_allclose(rep.bracket_scalar_printed, area, atol=1e-7)
        assert np.abs(rep.bracket_charge).max() <= 1e-12


class TestExperiments:
    def test_local_max_small(self):
        rep = local_max_experiment(0.5, 0.3, 25, 0.02, 1)
        assert rep.max_excess <= 1e-9
        assert rep.all_near_equality_are_slices

    def test_constant_height_gives_zero_excess(self, prof, grid):
        c = ScalarField(grid, np.full((32, 64), 0.01))
        excess = induced_geometry(
            GraphSurface(prof, 0.0, c), force_quadrature=True
        ).mch - prof.m
        assert abs(excess) <= 1e-8

    def test_taylor_consistency_pure_mode(self, prof, grid):
        # excess of graph(amp psi) matches (amp^2/2) d2m for small amp
        psi = harmonic(grid, 1, 0, scale=2.0)
        amp = 0.01
        excess = mass_of_scaled_graph(prof, 0.0, psi, amp) - prof.m
        predicted = 0.5 * amp**2 * second_variation_minimal(0.5, 0.3, psi)
        assert excess < 0
        assert excess / predicted == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("n_samples, amplitude", [(1, 0.02), (9, 0.02), (25, 0.02), (9, 0.0)])
    def test_local_max_matches_per_graph_reference(self, n_samples, amplitude):
        # sample counts that leave a partial stack; amplitude 0 puts every
        # graph within near_tol of equality
        rep = local_max_experiment(0.5, 0.3, n_samples, amplitude, 7)
        prof = integrate_profile(0.5, 0.3, 1.0, s_max=1.0)
        grid = build_grid(32, 64)
        excess, near = [], []
        for k in range(n_samples):
            sub_seed = int(np.random.SeedSequence([7, k]).generate_state(1)[0])
            fld = random_c2_field(grid, sub_seed, 4, amplitude)
            geom = induced_geometry(GraphSurface(prof, 0.0, fld), force_quadrature=True)
            excess.append(geom.mch - prof.m)
            if excess[-1] >= -1e-9:
                c = grid.analyze(fld.values)
                c[coeff_index(0, 0)] = 0.0
                near.append(c2_norm(ScalarField(grid, grid.synthesize(c))))
        assert abs(rep.max_excess - max(excess)) <= 1e-15
        assert rep.n_near_equality == len(near)
        assert rep.max_nonconstant_c2 == (max(near) if near else 0.0)

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            local_max_experiment(0.5, 0.3, 1, 0.2, 1)

    def test_nariai_flow(self):
        npar = nariai_from_alpha(0.8, 1.0)
        rep = nariai_flow_diagnostic(npar)
        assert abs(rep.equality_residual) <= 1e-12
        assert rep.max_abs_h <= 1e-12
        assert abs(rep.hprime_lhs) <= 1e-10
        assert abs(rep.hprime_rhs) <= 1e-10

    def test_rnds_neck_strict_value(self):
        assert area_charge_value(math.pi, 0.3) == pytest.approx(2.44 * math.pi, abs=1e-10)


class TestScaledGraphOracles:
    """The FD oracles against the per-graph path: one GraphSurface and one
    quadrature geometry per step, as they were computed before the graphs of
    t phi shared phi's transform."""

    @staticmethod
    def per_graph_masses(prof, s0, phi, ts):
        return {
            t: induced_geometry(
                GraphSurface(prof, s0, ScalarField(phi.grid, t * phi.values)),
                force_quadrature=True,
            ).mch
            for t in ts
        }

    @staticmethod
    def first_reference(m, dt):
        # returns value, order and the order's denominator; at s0 = 0 the
        # mass is even in t (u is even), so every difference is 0 and the
        # order is NaN
        d1, d2, d4 = ((m[h] - m[-h]) / (2 * h) for h in (dt, dt / 2, dt / 4))
        num, den = abs(d1 - d2), abs(d2 - d4)
        order = math.log2(num / den) if den > 0 and num > 0 else float("nan")
        return (4 * d2 - d1) / 3, order, den

    @staticmethod
    def assert_order_close(order, ref, tol, den):
        if math.isnan(ref):
            assert math.isnan(order)
        else:
            assert abs(order - ref) <= 4 * tol / (den * math.log(2))

    @staticmethod
    def second_reference(m, dt):
        return (-m[2 * dt] + 16 * m[dt] - 30 * m[0.0] + 16 * m[-dt] - m[-2 * dt]) / (12 * dt**2)

    @pytest.mark.parametrize("n_theta", [32, 128])
    @pytest.mark.parametrize("s0", [0.0, -0.3])
    def test_fd_oracles_match_per_graph_reference(self, prof, n_theta, s0):
        grid = build_grid(n_theta, 2 * n_theta)
        phi = random_c2_field(grid, 408, 4, 0.5)
        dt = 1e-2
        ts = [0.0] + [sign * h for h in (dt / 4, dt / 2, dt, 2 * dt) for sign in (1, -1)]
        m = self.per_graph_masses(prof, s0, phi, ts)
        # eight ulps of error in each mass, carried through each stencil
        dm = 8 * np.spacing(prof.m)
        tol1 = 2 * dm / (dt / 4)
        value, order, den = self.first_reference(m, dt)

        fd = first_variation_fd(prof, s0, phi, dt)
        assert abs(fd.value - value) <= tol1
        self.assert_order_close(fd.order, order, tol1, den)
        for step in (dt, dt / 2):
            tol2 = 64 * dm / (12 * step**2)
            ref = self.second_reference(m, step)
            assert abs(second_variation_fd(prof, phi, step, s0=s0) - ref) <= tol2

        rep = variation_report(prof, s0, phi, dt)
        assert abs(rep.first_fd - value) <= tol1
        self.assert_order_close(rep.first_order, order, tol1, den)
        if s0 == 0.0:
            d2_h, d2_h2 = self.second_reference(m, dt), self.second_reference(m, dt / 2)
            tol2 = 64 * dm / (12 * (dt / 2) ** 2)
            assert abs(rep.second_fd - d2_h2) <= tol2
            assert abs(rep.second_fd_step_gap - abs(d2_h - d2_h2)) <= 2 * tol2
        else:
            assert rep.second_fd is None

    def test_step_leaving_profile_range_raises(self, prof, grid):
        phi = random_c2_field(grid, 5, 4, 0.5)
        t = 1.01 * prof.s_max / np.abs(phi.values).max()
        assert mass_of_scaled_graph(prof, 0.0, phi, 0.99 * t) < prof.m
        with pytest.raises(ValueError, match="leaves the integrated range"):
            mass_of_scaled_graph(prof, 0.0, phi, t)
        with pytest.raises(ValueError, match="leaves the integrated range"):
            second_variation_fd(prof, phi, t / 2)
        with pytest.raises(ValueError, match="leaves the integrated range"):
            variation_report(prof, 0.0, phi, dt=t / 2)

    def test_variation_report_counts(self, prof, grid, monkeypatch):
        # deterministic counting gate: the oracle transforms phi once and the
        # geometry kernel sees each of the 9 distinct t of the stencils once
        phi = random_c2_field(grid, 5, 4, 0.5)
        analyzed, synthesized, kernel_t = [], [], []
        analyze, synth_derivs = SphereGrid.analyze, SphereGrid.synth_derivs
        kernel = surfaces._geometry_from_derivs

        def spy_analyze(self, values, lmax=None):
            analyzed.append(np.array(values))
            return analyze(self, values, lmax)

        def spy_synth_derivs(self, coeffs):
            synthesized.append(coeffs)
            return synth_derivs(self, coeffs)

        def spy_kernel(prof, grid, s0, d, zeta):
            kernel_t.append(float(np.sum(d["f"] * phi.values) / np.sum(phi.values**2)))
            return kernel(prof, grid, s0, d, zeta)

        monkeypatch.setattr(SphereGrid, "analyze", spy_analyze)
        monkeypatch.setattr(SphereGrid, "synth_derivs", spy_synth_derivs)
        monkeypatch.setattr(surfaces, "_geometry_from_derivs", spy_kernel)
        monkeypatch.setattr(variations, "_geometry_from_derivs", spy_kernel)
        dt = 1e-2
        variation_report(prof, 0.0, phi, dt)

        # analysed: the base slice's zero height and its mean curvature, and
        # phi twice: once for the oracle and once for the analytic side (first
        # variation and both closed-form second variations); never a scaled
        # copy t phi
        assert sum(np.array_equal(v, phi.values) for v in analyzed) == 2
        assert len(analyzed) == 4
        # synthesised: base slice, its mean curvature, phi (analytic), phi (oracle)
        assert len(synthesized) == 4
        expected = sorted([0.0] + [s * h for h in (dt / 4, dt / 2, dt, 2 * dt) for s in (1, -1)])
        np.testing.assert_allclose(sorted(kernel_t), expected, rtol=1e-12, atol=1e-15)


def test_instability_constant_positive_across_window():
    # C > 0 exactly when the neck is strictly stable
    from chmass.spectrum import stability_window

    for q in np.sqrt(np.linspace(0.0, 0.24, 8)):
        lo, hi = stability_window(q)
        for a2 in np.linspace(lo + 1e-3, hi - 1e-3, 8):
            assert strict_instability_constant(math.sqrt(a2), q) > 0


def test_metric_evolution_reconstructs_profile(prof):
    # along the foliation the induced metric evolves conformally with rate
    # -H(t), so u(t) = a exp(-(1/2) int_0^t H): reconstruct u from H alone
    t = np.linspace(0.0, 1.2, 2001)
    h = -2.0 * prof.du(t) / prof.u(t)
    integral = np.concatenate([[0.0], np.cumsum((h[1:] + h[:-1]) / 2 * np.diff(t))])
    reconstructed = 0.5 * np.exp(-0.5 * integral)
    assert np.abs(reconstructed - prof.u(t)).max() <= 1e-7
