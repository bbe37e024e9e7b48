import math

import numpy as np
import pytest

from chmass.models import (
    CLASS_DEGENERATE,
    CLASS_DOUBLE_INNER,
    CLASS_DOUBLE_OUTER,
    CLASS_GENERIC,
    HORIZON_TOL,
    MIN_NECK,
    ModelParams,
    admissible_window,
    horizon_roots,
    lapse_squared,
    lapse_squared_prime,
    lapse_squared_second,
    nariai_from_alpha,
    params_from_neck,
    surface_gravity,
)


def test_lapse_flat_and_de_sitter_limits():
    assert lapse_squared(1.0, ModelParams(0.0, 0.0, 0.0)) == 1.0
    assert abs(lapse_squared(math.sqrt(3.0), ModelParams(0.0, 0.0, 1.0))) < 1e-15


def test_lapse_vanishes_at_constructed_neck():
    p = params_from_neck(0.5, 0.3, 1.0)
    assert abs(p.m - 0.3191666666666667) < 1e-15
    assert abs(lapse_squared(0.5, p)) < 1e-7


def test_lapse_is_minus_quartic_over_r_squared():
    p = ModelParams(0.21, 0.17, 0.8)
    r = np.linspace(0.2, 3.0, 50)
    quartic = p.lam / 3.0 * r**4 - r**2 + 2 * p.m * r - p.q**2
    np.testing.assert_allclose(lapse_squared(r, p), -quartic / r**2, rtol=1e-13)


def test_lapse_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        lapse_squared(0.0, ModelParams(0.1, 0.1, 1.0))
    for fn in (lapse_squared_prime, lapse_squared_second):
        for r in (0.0, -0.5):
            with pytest.raises(ValueError, match=f"{fn.__name__} requires r > 0"):
                fn(r, ModelParams(0.1, 0.1, 1.0))


def test_negative_mass_is_refused():
    with pytest.raises(ValueError, match="mass must be nonnegative, got -0.1"):
        ModelParams(-0.1, 0.1, 1.0)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_window_and_nariai_need_positive_lambda(lam):
    with pytest.raises(ValueError, match="admissible_window requires Lambda > 0"):
        admissible_window(0.3, lam)
    with pytest.raises(ValueError, match="nariai_from_alpha requires Lambda > 0"):
        nariai_from_alpha(0.8, lam)


@pytest.mark.parametrize("a", [0.0, -0.5, 1e-78, 1e-170, float("nan")])
def test_neck_constructor_needs_positive_radius(a):
    # below MIN_NECK a^4 is subnormal; at 1e-170 a^2 is 0 and Q^2/a^2 divided by zero
    with pytest.raises(ValueError, match="params_from_neck requires a > 0"):
        params_from_neck(a, 0.3, 1.0)
    assert params_from_neck(MIN_NECK, 0.0).m == 0.5 * MIN_NECK * (1.0 - MIN_NECK**2 / 3.0)


def test_mass_identity_algebraic():
    # m = (r/2)(1 - Lambda r^2/3 + Q^2/r^2 - f(r)) for every r
    p = ModelParams(0.31, 0.22, 1.3)
    for r in (0.3, 0.9, 1.7):
        rhs = 0.5 * r * (1 - p.lam * r**2 / 3 + p.q**2 / r**2 - lapse_squared(r, p))
        assert abs(rhs - p.m) < 1e-14


class TestHorizonRoots:
    def test_nariai_double_outer(self):
        npar = nariai_from_alpha(0.8, 1.0)
        hs = horizon_roots(ModelParams(npar.m, npar.q, 1.0))
        assert hs.classification == CLASS_DOUBLE_OUTER
        roots = dict(hs.roots)
        # mpmath oracle: root sum zero fixes the negative root at -2 alpha - r_minus
        assert abs(hs.r_plus - 0.8) < 1e-6
        assert roots[hs.r_plus] == 2
        assert abs(hs.r_minus - 0.5114877048604001) < 1e-6
        assert min(roots) == pytest.approx(-2.1114877048604, abs=1e-6)

    def test_pure_de_sitter_degenerate(self):
        hs = horizon_roots(ModelParams(0.0, 0.0, 1.0))
        radii = sorted(r for r, _ in hs.roots)
        assert radii == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)], abs=1e-8)
        assert dict(hs.roots)[0.0] == 2
        assert hs.classification == CLASS_DEGENERATE

    def test_generic_roots_match_companion_oracle(self):
        # mpmath polyroots oracle for m = params_from_neck(0.5, 0.3, 1)
        p = params_from_neck(0.5, 0.3, 1.0)
        hs = horizon_roots(p)
        assert hs.classification == CLASS_GENERIC
        radii = [r for r, _ in hs.roots]
        oracle = [-2.005494317620, 0.207432583634, 0.5, 1.298061733987]
        np.testing.assert_allclose(radii, oracle, atol=1e-9)

    def test_quartic_residual_after_polish(self):
        p = params_from_neck(0.5, 0.3, 1.0)
        for r, _ in horizon_roots(p).roots:
            quartic = p.lam / 3 * r**4 - r**2 + 2 * p.m * r - p.q**2
            assert abs(quartic) < 1e-10

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            horizon_roots(ModelParams(0.1, 0.1, 0.0))

    def test_nonfinite_coefficients_are_refused(self):
        # 6 m / Lambda overflows, which the companion matrix cannot take
        with pytest.raises(ValueError, match="non-finite monic coefficients"):
            horizon_roots(ModelParams(1e308, 0.0, 1.0))

    @pytest.mark.parametrize("lam, error", [
        (1e-80, "merged horizon root r = 0.179.* is not a critical point"),
        (1e-300, "is not finite"),
    ])
    def test_roots_that_fail_their_check_are_refused(self, lam, error):
        # at Lambda = 1e-80 the neck root 0.5 is lost among companion entries
        # up to 3e80, and two copies of the root 0.18 merge into a spurious
        # double root; at 1e-300 the roots +-sqrt(3/Lambda) overflow the quartic
        with pytest.raises(ValueError, match=error):
            horizon_roots(params_from_neck(0.5, 0.3, lam))

    def test_double_roots_at_the_window_edges_are_horizons(self):
        # at m_min and m_max two horizons coincide; the companion eigenvalues
        # often come out as a complex pair, whose real part Newton polishing
        # must not leave for a radius where f is no longer zero
        for q2 in np.linspace(1e-4, 0.25, 200)[:-1]:
            q = math.sqrt(q2)
            for m in admissible_window(q):
                p = ModelParams(m, q)
                double = [r for r, k in horizon_roots(p).roots if k == 2]
                assert len(double) == 1, (q2, m)
                assert abs(lapse_squared(double[0], p)) <= HORIZON_TOL, (q2, m)

    def test_neck_radius_is_always_a_root(self):
        for a in np.linspace(0.35, 0.92, 7):
            p = params_from_neck(a, 0.3, 1.0)
            radii = [r for r, _ in horizon_roots(p).roots]
            assert min(abs(r - a) for r in radii) < 1e-8

    def test_small_lambda_keeps_the_neck_root(self):
        # Lambda = 1e-40 is still resolved: the neck is a simple root beside
        # 0.18 and +-sqrt(3/Lambda), and the roots pass their check
        hs = horizon_roots(params_from_neck(0.5, 0.3, 1e-40))
        assert hs.classification == CLASS_GENERIC
        assert abs(hs.r_plus - 0.5) < 1e-8 and abs(hs.r_minus - 0.18) < 1e-8


class TestAdmissibleWindow:
    def test_frozen_values(self):
        lo, hi = admissible_window(0.3, 1.0)
        assert lo == pytest.approx(0.2951459149490487, abs=1e-12)
        assert hi == pytest.approx(0.3794733192202055, abs=1e-12)

    def test_small_charge_limits(self):
        lo, hi = admissible_window(1e-9, 1.0)
        assert lo < 1e-8
        assert hi == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_extremal_charge_collapse(self):
        lo, hi = admissible_window(0.5, 1.0)
        assert lo == pytest.approx(hi, abs=1e-14)
        assert lo == pytest.approx(2.0 / (3.0 * math.sqrt(2.0)), abs=1e-12)

    def test_rejects_zero_and_overlarge_charge(self):
        with pytest.raises(ValueError):
            admissible_window(0.0, 1.0)
        with pytest.raises(ValueError):
            admissible_window(0.6, 1.0)

    def test_interior_masses_are_generic(self):
        lo, hi = admissible_window(0.3, 1.0)
        for frac in (0.05, 0.3, 0.5, 0.7, 0.95):
            m = lo + frac * (hi - lo)
            assert horizon_roots(ModelParams(m, 0.3, 1.0)).classification == CLASS_GENERIC

    def test_endpoint_masses_are_double(self):
        lo, hi = admissible_window(0.3, 1.0)
        assert horizon_roots(ModelParams(lo, 0.3, 1.0)).classification == CLASS_DOUBLE_INNER
        assert horizon_roots(ModelParams(hi, 0.3, 1.0)).classification == CLASS_DOUBLE_OUTER


class TestNariai:
    def test_frozen_values(self):
        npar = nariai_from_alpha(0.8, 1.0)
        assert npar.m == pytest.approx(0.4586666666666667, abs=1e-12)
        assert npar.q2 == pytest.approx(0.2304, abs=1e-12)
        assert npar.r_minus == pytest.approx(0.5114877048604001, abs=1e-12)
        assert npar.omega**2 == pytest.approx(0.4375, abs=1e-12)

    def test_double_root_of_quartic(self):
        for alpha in np.linspace(1 / math.sqrt(2) + 0.02, 0.98, 9):
            npar = nariai_from_alpha(alpha, 1.0)
            p = ModelParams(npar.m, npar.q, 1.0)
            quartic = p.lam / 3 * alpha**4 - alpha**2 + 2 * p.m * alpha - p.q**2
            dquartic = 4 * p.lam / 3 * alpha**3 - 2 * alpha + 2 * p.m
            assert abs(quartic) < 1e-10
            assert abs(dquartic) < 1e-10

    def test_boundaries_rejected(self):
        with pytest.raises(ValueError):
            nariai_from_alpha(1.0, 1.0)  # alpha = 1/sqrt(Lambda): Q^2 = 0
        with pytest.raises(ValueError):
            nariai_from_alpha(1.0 / math.sqrt(2.0), 1.0)  # Q^2 = 1/4 boundary

    def test_consistency_with_neck_constructor(self):
        npar = nariai_from_alpha(0.8, 1.0)
        p = params_from_neck(0.8, 0.48, 1.0)
        assert p.m == pytest.approx(npar.m, abs=1e-12)


class TestSurfaceGravity:
    def test_de_sitter_horizon(self):
        k = surface_gravity(math.sqrt(3.0), ModelParams(0.0, 0.0, 1.0))
        assert k == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-12)

    def test_neck_value(self):
        p = params_from_neck(0.5, 0.3, 1.0)
        assert surface_gravity(0.5, p) == pytest.approx(0.39, abs=1e-12)

    def test_vanishes_at_double_root(self):
        npar = nariai_from_alpha(0.8, 1.0)
        k = surface_gravity(0.8, ModelParams(npar.m, npar.q, 1.0))
        assert k <= 1e-8

    def test_rejects_non_horizon_radius(self):
        p = params_from_neck(0.5, 0.3, 1.0)
        with pytest.raises(ValueError):
            surface_gravity(0.7, p)
