import math
import re

import numpy as np
import pytest

from chmass.models import nariai_from_alpha
from chmass import variations
from chmass.profile import (
    area_charge_value,
    cmc_foliation,
    integrate_profile,
    monotonicity_report,
    nariai_flow_diagnostic,
)
from chmass.sphere import (
    ScalarField,
    SphereGrid,
    build_grid,
    c2_norm,
    coeff_index,
    n_coeffs,
    random_c2_field,
)
from chmass.spectrum import lambda1_analytic, lambda1_discrete
from chmass.surfaces import GraphSurface, charge, induced_geometry
from chmass.variations import (
    first_variation,
    first_variation_fd,
    local_max_experiment,
    mass_of_scaled_graph,
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
            geom = induced_geometry(GraphSurface(prof, s0, zero(grid)))
            assert np.abs(z_functional(geom)).max() <= 1e-10

    def test_vanishes_on_nariai_slices(self, grid):
        nprof = integrate_profile(0.8, 0.48, 1.0, s_max=1.0)
        geom = induced_geometry(GraphSurface(nprof, 0.3, zero(grid)))
        assert np.abs(z_functional(geom)).max() <= 1e-10

    def test_integral_nonnegative_on_graphs(self, prof, grid):
        for seed in range(8):
            fld = random_c2_field(grid, 50 + seed, 4, 0.08)
            geom = induced_geometry(GraphSurface(prof, 0.1, fld))
            assert geom.integral(z_functional(geom)) >= -1e-10


class TestFirstVariation:
    def test_slices_are_critical_for_constant_speed(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.6, zero(grid)))
        one = ScalarField(grid, np.ones((32, 64)))
        assert abs(first_variation(geom, one)) <= 1e-10

    def test_minimal_surface_kills_everything(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.0, zero(grid)))
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
            geom = induced_geometry(GraphSurface(prof, s0, zero(grid)))
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
            return induced_geometry(s).mch

        h = 1e-2
        d1 = (mass_at(h) - mass_at(-h)) / (2 * h)
        d2 = (mass_at(h / 2) - mass_at(-h / 2)) / h
        extrap = (4 * d2 - d1) / 3
        assert abs(analytic) > 1e-4  # genuinely nonzero case
        assert analytic == pytest.approx(extrap, abs=1e-10)
        # bit for bit: first_variation reads a graph's H over the full band
        # (variation_report's band-0 read of a slice's H gives -1.1e-7 here)
        assert analytic.hex() == "-0x1.f407179b9f57ep-12"

    def test_lambda_coefficient_variant_differs_off_minimal(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.6, zero(grid)))
        one = ScalarField(grid, np.ones((32, 64)))
        printed = first_variation(geom, one, zeta=prof.lam)
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

    @pytest.mark.parametrize("n_steps", [-3, 0, 1])
    def test_step_count_guard(self, prof, n_steps):
        # one step would drop the range's upper end
        with pytest.raises(ValueError, match="n_steps must be at least 2"):
            cmc_foliation(prof, (-0.5, 0.5), n_steps)

    @pytest.mark.parametrize("t_range", [(0.0, 0.0), (0.5, -0.5)])
    def test_empty_or_reversed_range_is_refused(self, prof, t_range):
        # (0, 0) returned n_steps identical t = 0 slices
        with pytest.raises(ValueError, match="t_range must have t0 < t1"):
            cmc_foliation(prof, t_range, 41)

    def test_monotonicity_brackets(self, prof):
        states = cmc_foliation(prof, (-1.0, 1.0), 21)
        rep = monotonicity_report(prof, states)
        area = 4 * math.pi * np.array([st.u for st in states]) ** 2
        assert np.abs(rep.bracket_scalar_zeta).max() <= 1e-7
        # Lambda-coefficient variant equals Lambda |Sigma_t|: the recorded gap
        np.testing.assert_allclose(rep.bracket_scalar_printed, area, atol=1e-7)
        assert np.abs(rep.bracket_charge).max() <= 1e-12


def _spy_ffts(monkeypatch):
    """Count numpy's rfft and irfft calls from here on."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def spy(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return counts


class TestExperiments:
    def test_local_max_small(self):
        rep = local_max_experiment(0.5, 0.3, 25, 0.02, 1)
        assert rep.max_excess <= 1e-9
        assert rep.all_near_equality_are_slices

    def test_constant_height_gives_zero_excess(self, prof, grid):
        c = ScalarField(grid, np.full((32, 64), 0.01))
        excess = induced_geometry(GraphSurface(prof, 0.0, c)).mch - prof.m
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
        # graph within 1e-9 of equality
        rep = local_max_experiment(0.5, 0.3, n_samples, amplitude, 7)
        prof = integrate_profile(0.5, 0.3, 1.0, s_max=1.0)
        grid = build_grid(32, 64)
        excess, near = [], []
        for k in range(n_samples):
            fld = random_c2_field(grid, [7, k], 4, amplitude)
            geom = induced_geometry(GraphSurface(prof, 0.0, fld))
            excess.append(geom.mch - prof.m)
            if excess[-1] >= -1e-9:
                c = grid.analyze(fld.values)
                c[coeff_index(0, 0)] = 0.0
                near.append(c2_norm(ScalarField(grid, grid.synthesize(c))))
        assert abs(rep.max_excess - max(excess)) <= 1e-15
        assert rep.n_near_equality == len(near)
        assert rep.max_nonconstant_c2 == (max(near) if near else 0.0)

    def test_local_max_second_variation_gap(self, monkeypatch):
        # crit 10's draws: the excess is d2m/2 to O(amplitude) against the
        # closed form of the background's Q, and misses crit 10's bound 1e-3
        # against the closed form of Q = 0.31 (the failing control)
        assert local_max_experiment(0.5, 0.3, 200, 0.02, 1).max_second_variation_gap <= 1e-3
        second_variations = variations._second_variations
        monkeypatch.setattr(
            variations, "_second_variations", lambda a, q, c: second_variations(a, 0.31, c)
        )
        assert local_max_experiment(0.5, 0.3, 200, 0.02, 1).max_second_variation_gap > 1e-3

    def test_local_max_mass_resolution(self, monkeypatch):
        # crit 10's mass grid gives the draw grid's masses to roundoff; a rule
        # that returns an 8 x 16 grid misses them by about 1e-11 at the
        # largest-excess sample and fails crit 10's resolution check (the
        # failing control)
        from chmass.verification import crit_10_local_max_experiment

        def resolution():
            (check,) = (c for c in crit_10_local_max_experiment() if "resolution" in c[0])
            return check[1:]

        value, bound = resolution()
        assert value <= 1e-15 < bound
        monkeypatch.setattr(variations, "_mass_grid", lambda grid, lmax, size: build_grid(8, 16))
        value, bound = resolution()
        assert value > bound

    def test_local_max_transform_counts(self, monkeypatch):
        # deterministic counting gate: each draw stack of 8 graphs is
        # derivative-synthesised once for its C^2 normalization, each mass
        # block of 32 graphs once on the mass grid, and the largest-excess
        # sample once more on the draw grid; 40 samples are 5 draw stacks,
        # 2 mass blocks and 1 resolution; every height is band 4, so each
        # synthesis takes the product route and none makes an FFT
        calls = {"analyze": 0, "synthesize": 0, "synth_derivs": 0}
        for name in calls:
            def spy(self, *args, _method=getattr(SphereGrid, name), _name=name, **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(SphereGrid, name, spy)
        ffts = _spy_ffts(monkeypatch)
        local_max_experiment(0.5, 0.3, 40, 0.02, 1)
        assert calls == {"analyze": 0, "synthesize": 0, "synth_derivs": 8}
        assert ffts == {"rfft": 0, "irfft": 0}

    @pytest.mark.parametrize("n_samples, amplitude, n_calls", [(40, 0.02, 8), (9, 0.0, 6)])
    def test_local_max_synthesizes_into_one_set_of_buffers(
        self, monkeypatch, n_samples, amplitude, n_calls
    ):
        # every synthesis of a call (draw stacks, mass blocks, the resolution
        # graph and, at amplitude 0, the near-equality norms) writes into
        # leading views of the same six flat _STACK_NODES buffers
        bases = []
        synth_derivs = SphereGrid.synth_derivs

        def spy(self, coeffs, *, out=None):
            arrays = dict(out)
            got = synth_derivs(self, coeffs, out=out)
            assert all(got[key] is v for key, v in arrays.items())
            bases.append(tuple(v.base for v in got.values()))
            return got

        monkeypatch.setattr(SphereGrid, "synth_derivs", spy)
        local_max_experiment(0.5, 0.3, n_samples, amplitude, 1)
        assert len(bases) == n_calls
        assert all(x is y for b in bases for x, y in zip(b, bases[0], strict=True))
        assert all(b.shape == (variations._STACK_NODES,) for b in bases[0])
        assert len({id(b) for b in bases[0]}) == 6

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            local_max_experiment(0.5, 0.3, 1, 0.2, 1)

    @pytest.mark.parametrize("n_samples, amplitude, error", [
        (4, math.nan, "amplitude must be nonnegative and finite, got nan"),
        (4.5, 0.02, "n_samples must be an integer >= 1, got 4.5"),
        (True, 0.02, "n_samples must be an integer >= 1, got True"),
        (0, 0.02, "n_samples must be an integer >= 1, got 0"),
    ])
    def test_inputs_are_refused_by_name_before_any_draw(
        self, monkeypatch, n_samples, amplitude, error
    ):
        # a NaN amplitude failed as "non-finite s = nan" and 4.5 samples as a
        # TypeError from range
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match=re.escape(error)):
            local_max_experiment(0.5, 0.3, n_samples, amplitude, 1)

    def test_nariai_flow(self):
        npar = nariai_from_alpha(0.8, 1.0)
        rep = nariai_flow_diagnostic(npar)
        assert abs(rep.equality_residual) <= 1e-12
        assert rep.max_abs_h <= 1e-12
        assert abs(rep.hprime_lhs) <= 1e-10
        assert abs(rep.hprime_rhs) <= 1e-10

    @pytest.mark.parametrize("alpha,t_eval", [(0.8, 0.3), (0.75, 0.3), (0.9, 0.45)])
    def test_nariai_flow_matches_accessor_reference(self, alpha, t_eval):
        # the report reads the neck and s = t_eval off one grid evaluation;
        # the reference takes each value from its own accessor call
        npar = nariai_from_alpha(alpha, 1.0)
        rep = nariai_flow_diagnostic(npar, t_eval)
        prof = integrate_profile(npar.alpha, math.sqrt(npar.q2), npar.lam, s_max=max(1.0, 2 * t_eval))
        u0, ut = prof.u(0.0), prof.u(t_eval)
        area_t = 4.0 * math.pi * ut**2
        hprime = -2.0 * prof.ddu(t_eval) / ut + 2.0 * (prof.du(t_eval) / ut) ** 2
        assert rep.area == 4.0 * math.pi * u0**2
        assert rep.hprime_lhs == area_t * hprime * area_t

    def test_rnds_neck_strict_value(self):
        assert area_charge_value(math.pi, 0.3) == pytest.approx(2.44 * math.pi, abs=1e-10)


class TestScaledGraphOracles:
    """The FD oracles against the per-graph path: one GraphSurface and one
    quadrature geometry per step, as they were computed before the graphs of
    t phi shared phi's transform."""

    @staticmethod
    def per_graph_masses(prof, s0, phi, ts):
        return {
            t: induced_geometry(GraphSurface(prof, s0, ScalarField(phi.grid, t * phi.values))).mch
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
        with pytest.raises(ValueError, match="outside integrated range"):
            mass_of_scaled_graph(prof, 0.0, phi, t)
        with pytest.raises(ValueError, match="outside integrated range"):
            second_variation_fd(prof, phi, t / 2)
        with pytest.raises(ValueError, match="outside integrated range"):
            variation_report(prof, 0.0, phi, dt=t / 2)

    def test_variation_report_counts(self, prof, grid, monkeypatch, kernel_calls):
        # deterministic counting gate: phi's coefficients are synthesized once
        # on phi's grid for the analytic side and once on the 16 x 32 grid of
        # _mass_grid for the oracle, nothing is analyzed, and the geometry
        # kernel sees the base slice, the 9 distinct t of the stencils (t = 0
        # included) as one stack on the 16 x 32 grid, and the largest-|t|
        # graph once more on phi's grid for the mass resolution
        phi = random_c2_field(grid, 5, 4, 0.5)
        analyzed, synthesized, kernel_t, kernel_rows = [], [], [], []
        analyze, synth_derivs = SphereGrid.analyze, SphereGrid.synth_derivs

        def spy_analyze(self, values, lmax=None):
            analyzed.append(np.array(values))
            return analyze(self, values, lmax)

        def spy_synth_derivs(self, coeffs):
            synthesized.append((self.n_theta, coeffs))
            return synth_derivs(self, coeffs)

        monkeypatch.setattr(SphereGrid, "analyze", spy_analyze)
        monkeypatch.setattr(SphereGrid, "synth_derivs", spy_synth_derivs)
        ffts = _spy_ffts(monkeypatch)
        dt = 1e-2
        rep = variation_report(prof, 0.0, phi, dt)
        for call in kernel_calls:
            on_grid = call.grid.synthesize(phi.coeffs)
            f = np.broadcast_to(call.heights, np.broadcast_shapes(call.shape, on_grid.shape))
            rows = np.reshape(f, (-1,) + on_grid.shape)  # t of each stack row
            kernel_t.extend(np.sum(rows * on_grid, axis=(1, 2)) / np.sum(on_grid**2))
            kernel_rows.append((call.grid.n_theta, len(rows)))

        # analysed: nothing (1 -> 0); the base slice's H is constant, so its
        # gradient is 0 and it was analysed only to be read as such
        assert analyzed == []
        # synthesised: phi's own coefficients once on each grid (4 -> 2); the
        # base slice's band-0 height is read at one node and its constant H
        # not at all
        assert len(synthesized) == 2
        assert sorted(n for n, c in synthesized if c is phi.coeffs) == [16, 32]
        # FFTs: none (rfft 1 -> 0, the analysis of H); phi takes the product
        # route
        assert ffts == {"rfft": 0, "irfft": 0}
        stencil = [s * h for h in (dt / 4, dt / 2, dt, 2 * dt) for s in (1, -1)]
        expected = sorted([0.0, 0.0, 2 * dt] + stencil)
        np.testing.assert_allclose(sorted(kernel_t), expected, rtol=1e-12, atol=1e-15)
        # the base slice, the 9-graph stencil at n_theta 16 in one call, and
        # the resolution graph at n_theta 32
        assert kernel_rows == [(32, 1), (16, 9), (32, 1)]
        assert 0.0 < rep.mass_resolution <= 1e-15

    def test_variation_report_traced_peak(self, prof):
        # a band-4 phi on 128 x 256 at the neck: the base slice stays one node,
        # so Z, H and the first-variation integrand broadcast against phi's
        # values, and the kernel's temporaries span 2**13-node passes.  The
        # report's tracemalloc peak stays below 6.5 MB.  It is 5.5 MB (8.7 MB
        # while the base slice's node arrays were broadcast to the grid and
        # each kernel temporary spanned a whole graph)
        import tracemalloc

        phi = random_c2_field(build_grid(128, 256), 7919, 4, 0.5)
        tracemalloc.start()
        try:
            variation_report(prof, 0.0, phi, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5e6

    @staticmethod
    def fine_oracle_op(prof):
        """One phi at n_theta 128 adjudicated at s0 = 0 and off the neck, then
        a perturbed graph read twice, for lambda1 and its charge."""
        grid = build_grid(128, 256)
        phi = random_c2_field(grid, 7919, 4, 0.5)
        variation_report(prof, 0.0, phi, dt=1e-2)
        variation_report(prof, -0.3, phi, dt=2e-2)
        surf = GraphSurface(prof, 0.0, ScalarField(grid, 0.1 * phi.values))
        lambda1_discrete(surf)
        charge(surf)

    def test_fine_oracle_op_kernel_nodes(self, prof, kernel_calls):
        # counting gate for fine_oracle_op: each report's base slice (one
        # node: a band-0 height), resolution graph (128 x 256 nodes) and
        # stencil (9 and 6 graphs of 16 x 32) in one kernel call each, and the
        # graph once for lambda1 and its charge; 17 graphs of 128 x 256 before
        # the stencils were summed on the grid of _mass_grid
        self.fine_oracle_op(prof)
        assert len(kernel_calls) == 7
        assert sum(c.nodes for c in kernel_calls) == 3 * 128 * 256 + 2 + 15 * 16 * 32 == 105_986

    def test_fine_oracle_op_ffts(self, prof, monkeypatch):
        # counting gate for fine_oracle_op, which may only fall: the perturbed
        # graph built from values is analysed over the full band (one rfft)
        # and its six partials synthesized on the FFT route (one irfft each),
        # and lambda1's five pencil weights share one rfft; phi and every
        # other height are band <= 4 and make no FFT, and the reports' base
        # slices have a constant H, read with no transform.  rfft 3 -> 2
        # when the reports stopped analysing H (one rfft each) and the
        # pencil's azimuthal sums became one rfft; 18 irfft before H was
        # read at band 0
        ffts = _spy_ffts(monkeypatch)
        self.fine_oracle_op(prof)
        assert ffts == {"rfft": 2, "irfft": 6}

    def test_coefficient_field_is_never_analyzed(self, prof, grid, monkeypatch):
        # a height built from coefficients is read through them: c2_norm,
        # induced_geometry and variation_report analyze nothing (the last
        # analyzed its base slice's constant H once, 1 -> 0)
        c = np.zeros(n_coeffs(3))
        c[coeff_index(2, 1)], c[coeff_index(3, -2)] = 0.02, -0.01
        phi = ScalarField.from_coeffs(grid, c)
        analyzed = []
        analyze = SphereGrid.analyze

        def spy(self, values, lmax=None):
            analyzed.append(np.array(values))
            return analyze(self, values, lmax)

        monkeypatch.setattr(SphereGrid, "analyze", spy)
        c2_norm(phi)
        induced_geometry(GraphSurface(prof, 0.1, phi))
        assert analyzed == []
        variation_report(prof, 0.0, phi, 1e-2)
        assert analyzed == []

    def test_speed_is_read_on_the_geometry_grid(self, prof, grid):
        # a speed is its coefficients: one drawn on a coarser grid gives the
        # first variation of the same coefficients on the geometry's grid
        coarse = random_c2_field(build_grid(16, 32), 8, 4, 0.5)
        geom = induced_geometry(GraphSurface(prof, 0.2, random_c2_field(grid, 9, 4, 0.05)))
        want = first_variation(geom, ScalarField.from_coeffs(grid, coarse.coeffs))
        assert first_variation(geom, coarse) == want != 0.0

    def test_nonfinite_step_is_rejected(self, prof, grid):
        phi = random_c2_field(grid, 5, 4, 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            variation_report(prof, 0.0, phi, dt=float("nan"))

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("inf")])
    def test_nonpositive_step_is_rejected(self, prof, grid, dt):
        phi = random_c2_field(grid, 5, 4, 0.5)
        for oracle in (
            lambda: variation_report(prof, 0.0, phi, dt=dt),
            lambda: first_variation_fd(prof, 0.1, phi, dt),
            lambda: second_variation_fd(prof, phi, dt),
        ):
            with pytest.raises(ValueError, match="dt must be positive"):
                oracle()

    @pytest.mark.parametrize("dt", [1e-320, 1e-200, 1e-160, np.nextafter(2.0**-511, 0.0)])
    def test_step_with_a_subnormal_square_is_rejected(self, prof, grid, dt):
        # the stencils divide by dt^2, which must be a normal float: at
        # 1e-200 it underflows to 0, and at 1e-160 it loses its digits
        phi = random_c2_field(grid, 5, 4, 0.5)
        for oracle in (
            lambda: variation_report(prof, 0.0, phi, dt=dt),
            lambda: first_variation_fd(prof, 0.1, phi, dt),
            lambda: second_variation_fd(prof, phi, dt),
        ):
            with pytest.raises(ValueError, match="dt must be at least 1.49167e-154"):
                oracle()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scaled_stack_is_checked_through_both_extremes(self, prof, grid, sign):
        # phi's extremes differ in size, so for t > 0 the graph of t phi
        # leaves the range through phi's maximum for one sign of phi and
        # through its minimum for the other; one such graph fails the stack
        phi = ScalarField(grid, sign * random_c2_field(grid, 5, 4, 0.5).values)
        lo, hi = phi.values.min(), phi.values.max()
        assert abs(lo) != abs(hi)
        t = prof.s_max / max(abs(lo), abs(hi))
        inside = variations._scaled_masses(prof, grid, 0.0, phi.coeffs, [0.0, 0.99 * t])[0]
        assert inside[0.99 * t] < inside[0.0]
        with pytest.raises(ValueError, match="outside integrated range"):
            variations._scaled_masses(prof, grid, 0.0, phi.coeffs, [0.0, 0.99 * t, 1.01 * t])


# (s0, first_analytic, first_fd, first_order, z_max) of crit 08's ten
# variation reports (phi = random_c2_field(grid, 400 + i, 4, 0.5), drawn from
# default_rng(400 + i); dt 2e-2), with phi read through its band-4 coefficients
# by the separable product route of synth_derivs, in the round sphere's
# orthonormal frame, the profile summed from its pieces' short series, the
# stencils' masses summed on the 16 x 32 grid of _mass_grid, and the
# Laplacian term of the base slice's constant H taken as 0 (the same values
# as when that H was read at band 0)
CRIT_08_REPORTS = [
    (0.2, 6.066268422733478e-20, -1.0639637319324416e-14,
     1.9999893043569554, 1.7763568394002505e-15),
    (-0.35, -1.078849056530934e-19, 4.487151391193341e-14,
     1.9999680515601697, 1.5543122344752192e-15),
    (0.5, -5.730239208893557e-20, -6.013708050052931e-14,
     1.9999683372194148, 2.6506574712925612e-15),
    (0.3, -6.217555505038674e-20, -1.0639637319324416e-14,
     1.9998900542670646, 1.9984014443252818e-15),
    (-0.45, 7.30954412071055e-20, -8.28041339199596e-14,
     1.9999663394823364, 1.5543122344752192e-15),
    (0.6, -3.350352023742606e-20, 1.258252761241844e-13,
     1.9999516811039053, 1.5543122344752192e-15),
    (-0.25, 1.3845676675552699e-19, -4.810966440042345e-14,
     1.999971027171084, 2.213507155346406e-15),
    (0.4, -5.852882085304783e-20, -5.088522196198634e-14,
     1.9998800134054684, 1.3322676295501878e-15),
    (-0.55, -9.988553681945286e-20, 3.700743415417188e-14,
     1.999938179485601, 1.6653345369377348e-15),
    (0.15, 4.7215172326381884e-20, -1.7578531223231646e-14,
     2.0, 2.6645352591003757e-15),
]


def _crit_08_check(name):
    from chmass.verification import crit_08_first_variation

    (check,) = (c for c in crit_08_first_variation() if c[0] == name)
    return check[1:]


def test_crit_08_stencil_mass_resolution(monkeypatch):
    # the stencils' 16 x 32 grid gives phi's grid's masses to roundoff; a rule
    # that returns an 8 x 16 grid misses them by about 1e-11 and fails crit
    # 08's resolution check (the failing control)
    name = "mass resolution of the FD stencils"
    value, bound = _crit_08_check(name)
    assert value <= 1e-15 < bound
    monkeypatch.setattr(variations, "_mass_grid", lambda grid, lmax, size: build_grid(8, 16))
    value, bound = _crit_08_check(name)
    assert value > bound


def test_crit_08_noise_floor():
    # crit 08's ten fields: at its dt = 2e-2 the smallest difference of each
    # order estimate is far above the roundoff floor; at dt = 1e-3 the order
    # check still passes (deviation 0.30 < 0.4) while the floor check fails,
    # and at dt = 1e-4 both fail (the failing controls)
    value, bound = _crit_08_check("FD roundoff floor / least difference")
    assert value <= 1e-4 < bound
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    grid = build_grid(32, 64)
    for dt in (1e-3, 1e-4):
        reports = [
            variation_report(prof, s0, random_c2_field(grid, 400 + i, 4, 0.5), dt)
            for i, (s0, *_) in enumerate(CRIT_08_REPORTS)
        ]
        assert max(r.first_floor_ratio for r in reports) > bound


def test_floor_ratio_reads_the_smaller_difference():
    # m(t) = 0.3 + t + t^3: the central differences are 1 + h^2, so the two
    # differences of the order estimate are 3 dt^2/4 and 3 dt^2/16, and the
    # floor is divided by the smaller; a table with no t^3 term reads inf
    dt = 1e-2
    steps = [sign * h for h in (dt, dt / 2, dt / 4) for sign in (1, -1)]
    fd = variations._first_fd({t: 0.3 + t + t**3 for t in steps}, dt)
    floor = np.finfo(float).eps * (0.3 + dt + dt**3) / dt
    assert fd.floor_ratio == pytest.approx(floor / (3 * dt**2 / 16), rel=1e-6)
    assert variations._first_fd({t: 0.25 + t for t in steps}, dt).floor_ratio == math.inf


def test_crit_08_reports_are_pinned_bitwise():
    # every field bit for bit: a change to the first variation, its FD
    # oracle, the base slice or phi's transforms shows here
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    grid = build_grid(32, 64)
    for i, (s0, *fields) in enumerate(CRIT_08_REPORTS):
        rep = variation_report(prof, s0, random_c2_field(grid, 400 + i, 4, 0.5), 2e-2)
        got = (rep.first_analytic, rep.first_fd, rep.first_order, rep.z_max)
        assert [x.hex() for x in got] == [x.hex() for x in fields], s0
        assert rep.dt == 2e-2 and rep.second_analytic is None


def test_instability_constant_positive_across_window():
    # C > 0 exactly when the neck is strictly stable, and the l = 1 value that
    # C returns minimises prefactor * mu_l (mu_l - Ric) over l = 1..12
    from chmass.spectrum import stability_window

    l = np.arange(1, 13)
    for q in np.sqrt(np.linspace(0.0, 0.24, 8)):
        lo, hi = stability_window(q)
        for a2 in np.linspace(lo + 1e-3, hi - 1e-3, 8):
            a = math.sqrt(a2)
            C = strict_instability_constant(a, q)
            assert C > 0
            mu = l * (l + 1.0) / a**2
            pref = math.sqrt(4 * math.pi * a**2) / (32 * math.pi**1.5)
            per_l = pref * mu * (mu + lambda1_analytic(a, q))
            assert np.argmin(per_l) == 0
            assert C == pytest.approx(per_l[0], rel=1e-14)


def test_metric_evolution_reconstructs_profile(prof):
    # along the foliation the induced metric evolves conformally with rate
    # -H(t), so u(t) = a exp(-(1/2) int_0^t H): reconstruct u from H alone
    t = np.linspace(0.0, 1.2, 2001)
    h = -2.0 * prof.du(t) / prof.u(t)
    integral = np.concatenate([[0.0], np.cumsum((h[1:] + h[:-1]) / 2 * np.diff(t))])
    reconstructed = 0.5 * np.exp(-0.5 * integral)
    assert np.abs(reconstructed - prof.u(t)).max() <= 1e-7
