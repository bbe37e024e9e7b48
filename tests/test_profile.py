import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy.integrate import quad, solve_ivp

from chmass import profile
from chmass.models import ModelParams, horizon_roots, params_from_neck
from chmass.profile import (
    ProfileIntegrationError,
    arclength_from_r,
    curvature_scalars,
    integrate_profile,
    profile_rhs,
    slice_hawking_mass,
)


def dop853(a, q, s_max):
    """Dense DOP853 solution of the profile equation at tol 1e-13 (scipy oracle)."""
    sol = solve_ivp(
        lambda s, y: [y[1], profile_rhs(y[0], y[1], q, 1.0)], (0.0, s_max), [a, 0.0],
        method="DOP853", rtol=1e-13, atol=1e-13, dense_output=True,
    )
    assert sol.success
    return sol.sol


@pytest.fixture(scope="module")
def neck_profile():
    return integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)


def test_initial_acceleration_value(neck_profile):
    assert neck_profile.ddu(0.0) == pytest.approx(0.39, abs=1e-12)
    assert profile_rhs(0.5, 0.0, 0.3, 1.0) == pytest.approx(0.39, abs=1e-14)


def test_neck_initial_conditions(neck_profile):
    assert neck_profile.u(0.0) == 0.5
    assert neck_profile.du(0.0) == 0.0
    assert neck_profile.kind == "rnds"


def test_scalar_and_array_state_agree_bitwise(neck_profile):
    # a scalar s takes the same array arithmetic as an array of s, so
    # vectorising a scalar loop keeps its output byte-identical
    s = np.linspace(-2.0, 2.0, 4001)
    u, du, ddu = neck_profile.state(s)
    scalar = np.array([neck_profile.state(x) for x in s])
    assert np.array_equal(scalar, np.column_stack((u, du, ddu)))
    assert all(neck_profile.ddu(x) == want for x, want in zip(s, ddu))


def _chebval_panels(sol, s):
    """(u, u') of a ``_ChebyshevPanels`` at s, each panel summed by numpy's chebval."""
    s = np.asarray(s, dtype=float).ravel()
    panel = np.searchsorted(sol.breaks[1:-1], s, side="right")
    out = np.empty((2, s.size))
    for p in np.unique(panel):
        sel = panel == p
        lo, hi = sol.breaks[p], sol.breaks[p + 1]
        x = 2.0 * (s[sel] - lo) / (hi - lo) - 1.0
        out[:, sel] = chebval(x, sol.coeffs[p]) + sol.offsets[p][:, None]
    return out


@pytest.mark.parametrize(
    "a, q, s_max, tol, panels",
    [(0.5, 0.3, 2.0, 1e-10, 1), (0.3, 0.2, 6.0, 1e-12, 3)],
    ids=["one-panel", "three-panels"],
)
def test_in_place_clenshaw_matches_chebval_bitwise(a, q, s_max, tol, panels):
    sol = integrate_profile(a, q, 1.0, s_max=s_max, tol=tol)._sol
    assert len(sol.coeffs) == panels * profile._PIECES  # collocation panels, cut in pieces
    rng = np.random.default_rng(panels)
    s = np.concatenate([
        rng.uniform(0.0, s_max, 32768),
        sol.breaks,  # panel breaks, 0 and s_max included
        np.nextafter(sol.breaks[1:], 0.0),  # just left of each break
    ])
    assert np.array_equal(sol(s), _chebval_panels(sol, s))
    for point in (np.float64(s_max), np.array(0.7 * s_max), 0.0, sol.breaks[-2]):
        got = sol(point)  # 0-d s: one column
        assert got.shape == (2, 1)
        assert np.array_equal(got, _chebval_panels(sol, point))


@pytest.mark.parametrize(
    "a, q, s_max, tol",
    [(0.5, 0.3, 2.0, 1e-10), (0.3, 0.2, 6.0, 1e-12)],
    ids=["one-panel", "three-panels"],
)
def test_pieces_follow_their_collocation_panels(monkeypatch, a, q, s_max, tol):
    # each piece's short series stays within 16 eps max|c| of its collocation
    # panel's 33-term series (max|c| of that panel), breaks included, and the
    # neck state is exact
    sol = integrate_profile(a, q, 1.0, s_max=s_max, tol=tol)._sol
    monkeypatch.setattr(profile, "_pieces", profile._ChebyshevPanels)
    panels = integrate_profile(a, q, 1.0, s_max=s_max, tol=tol)._sol
    assert np.array_equal(sol.breaks[:: profile._PIECES], panels.breaks)
    rng = np.random.default_rng(7)
    s = np.concatenate([
        rng.uniform(0.0, s_max, 32768),
        sol.breaks,
        np.nextafter(sol.breaks[1:], 0.0),
    ])
    panel = np.searchsorted(panels.breaks[1:-1], s, side="right")
    scale = np.array([np.abs(c).max() for c in panels.coeffs])[panel]
    assert np.all(np.abs(sol(s) - panels(s)) <= 16.0 * np.finfo(float).eps * scale)
    assert np.array_equal(sol(0.0), [[a], [0.0]])


@pytest.mark.parametrize("s_max", [1.0, 2.0])
def test_neck_pieces_are_short(s_max):
    # the cost of the profile at graph nodes; a gate that may only fall
    sol = integrate_profile(0.5, 0.3, 1.0, s_max=s_max, tol=1e-10)._sol
    assert max(len(c) for c in sol.coeffs) <= 12


def test_reflection_symmetry(neck_profile):
    s = np.linspace(0.1, 1.9, 10)
    np.testing.assert_allclose(neck_profile.u(-s), neck_profile.u(s), rtol=0, atol=0)
    np.testing.assert_allclose(neck_profile.du(-s), -neck_profile.du(s), rtol=0, atol=0)


def test_solution_against_high_precision_oracle(neck_profile):
    # mpmath.odefun at dps=25, tol=1e-20
    oracle = {
        0.25: (0.51211600236621577, 0.096353089725849915),
        0.5: (0.54759273804346247, 0.18569189459686275),
        1.0: (0.67649107888157504, 0.31704845168522242),
        2.0: (1.027955784637128, 0.33461441777313163),
    }
    for s, (u_ref, du_ref) in oracle.items():
        assert neck_profile.u(s) == pytest.approx(u_ref, abs=5e-9)
        assert neck_profile.du(s) == pytest.approx(du_ref, abs=5e-9)


def test_first_integral_conservation(neck_profile):
    s = np.linspace(-2.0, 2.0, 801)
    drift = np.abs(slice_hawking_mass(neck_profile, s) - neck_profile.m)
    assert drift.max() <= 1e-8


def test_scalar_curvature_constraint(neck_profile):
    # R - 2 |E|^2 = 2 Lambda pointwise, equivalent to the profile equation
    s = np.linspace(-2.0, 2.0, 201)
    u = neck_profile.u(s)
    R = np.array([curvature_scalars(neck_profile, si)["R"] for si in s])
    assert np.abs(R - 2.0 - 2.0 * 0.09 / u**4).max() <= 1e-7


def test_ode_residual_by_finite_differences(neck_profile):
    # independent of the stored u'' (which is the ODE right-hand side):
    # five-point second difference of the evaluated series u against the RHS.
    # The bound measures the fidelity of the evaluated profile between
    # collocation nodes, not only at them.
    delta = 1e-3
    for s in np.linspace(-1.8, 1.8, 25):
        stencil = s + delta * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        u = neck_profile.u(stencil)
        ddu_fd = (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (12 * delta**2)
        rhs = profile_rhs(u[2], neck_profile.du(s), 0.3, 1.0)
        assert abs(ddu_fd - rhs) <= 1e-6


def test_collocation_agrees_with_dop853(neck_profile):
    # two independent solvers of the same initial value problem must agree
    # (the numerical stand-in for ODE uniqueness)
    other = dop853(0.5, 0.3, 2.0)
    s = np.linspace(-2.0, 2.0, 101)
    assert np.abs(neck_profile.u(s) - other(np.abs(s))[0]).max() <= 1e-7


@pytest.mark.parametrize("s_max, bound, panels", [(6.0, 1e-11, 1), (200.0, 1e-10, 2)])
def test_long_ranges_against_dop853(s_max, bound, panels):
    # s_max 200 spans about 40 periods of u and needs many panels
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=s_max, tol=1e-13)
    assert len(prof._sol.coeffs) >= panels
    s = np.linspace(0.0, s_max, 4001)
    ref = dop853(0.5, 0.3, s_max)(s)
    assert np.abs(prof.u(s) - ref[0]).max() <= bound
    assert np.abs(prof.du(s) - ref[1]).max() <= bound
    assert np.abs(slice_hawking_mass(prof, s) - prof.m).max() <= 1e-13


def test_panel_collapse_reports_last_accepted_node(monkeypatch):
    # a Newton solve that never converges halves the first panel until it is
    # narrower than the minimum width
    monkeypatch.setattr(profile, "_NEWTON_STEPS", 0)
    with pytest.raises(ProfileIntegrationError) as info:
        integrate_profile(0.5, 0.3, 1.0, s_max=2.0)
    assert info.value.last_s == 0.0


@pytest.mark.parametrize("a", [3e-3, 1e-3, 1e-5])
def test_small_strictly_stable_necks_integrate(a):
    # with Q = 0 every a^2 in (0, 1) is a strictly stable neck; a Newton step
    # of 1e-13 a lies below the ulp of u' = O(1) there, so the step
    # tolerance is floored at 16 eps max(1, |y0|)
    prof = integrate_profile(a, 0.0)
    s = np.linspace(-2.0, 2.0, 801)
    assert np.abs(slice_hawking_mass(prof, s) - prof.m).max() <= 1e-13


def test_singular_newton_jacobian_halves_the_panel(monkeypatch, neck_profile):
    # np.linalg.solve raising once makes _newton_panel refuse that panel,
    # which is halved; the integration still completes
    solve, raised = np.linalg.solve, []

    def solve_once_singular(*args):
        if not raised:
            raised.append(True)
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", solve_once_singular)
    prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)
    assert raised == [True]
    s = np.linspace(-2.0, 2.0, 401)
    assert np.abs(slice_hawking_mass(prof, s) - prof.m).max() <= 1e-8
    assert np.abs(prof.u(s) - neck_profile.u(s)).max() <= 1e-9


def test_radius_collapse_reports_the_node_before_it(monkeypatch):
    # a panel whose u falls linearly from a to -a has an exact two-term
    # series, so it passes the tail check and reaches the radius check
    a, returned = 0.5, []

    def collapsing_panel(s0, h, y0, q, lam, step_tol):
        tau = 0.5 * (profile._NODES + 1.0)
        returned.append(y0[0] * (1.0 - 2.0 * tau))
        return returned[-1], np.full_like(tau, -2.0 * y0[0] / h)

    monkeypatch.setattr(profile, "_newton_panel", collapsing_panel)
    with pytest.raises(ProfileIntegrationError, match="radius collapsed") as info:
        integrate_profile(a, 0.3, 1.0, s_max=2.0)
    (u,) = returned
    k = np.flatnonzero(u < 1e-3 * a)[0]
    assert 0 < k and u[k - 1] >= 1e-3 * a
    assert info.value.last_s == 0.5 * 2.0 * (profile._NODES[k - 1] + 1.0)


def test_nariai_profile_is_constant():
    prof = integrate_profile(0.8, 0.48, 1.0, s_max=2.0, tol=1e-10)
    assert prof.kind == "nariai"
    s = np.linspace(-2.0, 2.0, 401)
    assert np.abs(prof.u(s) - 0.8).max() <= 1e-12


def test_uncharged_cylinder_is_constant():
    prof = integrate_profile(1.0, 0.0, 1.0, s_max=1.5, tol=1e-10)
    assert prof.kind == "nariai"
    assert np.abs(prof.u(np.linspace(-1.5, 1.5, 101)) - 1.0).max() <= 1e-12


def test_curvature_scalars_at_neck(neck_profile):
    sc = curvature_scalars(neck_profile, 0.0)
    assert sc["R"] == pytest.approx(4.88, abs=1e-10)          # 2 Lambda + 2 |E|^2
    assert sc["ric_nn"] == pytest.approx(-1.56, abs=1e-10)
    assert sc["k_slice"] == pytest.approx(4.0, abs=1e-12)
    assert sc["h_slice"] == 0.0
    assert sc["a2_slice"] == 0.0


def test_slice_umbilicity_relation(neck_profile):
    for s in (0.4, 1.1):
        sc = curvature_scalars(neck_profile, s)
        assert sc["a2_slice"] == pytest.approx(0.5 * sc["h_slice"] ** 2, abs=1e-15)


def test_electric_field_samples(neck_profile):
    # |E|^2 = Q^2/u^4: 1.2^2 at the a = 0.5 neck, 0.75^2 on the Nariai cylinder
    assert curvature_scalars(neck_profile, 0.0)["e2"] == pytest.approx(1.44, abs=1e-12)
    nariai = integrate_profile(0.8, 0.48, 1.0, s_max=1.0)
    assert curvature_scalars(nariai, 0.5)["e2"] == pytest.approx(0.5625, abs=1e-12)
    uncharged = integrate_profile(1.0, 0.0, 1.0, s_max=1.0)
    assert curvature_scalars(uncharged, 0.3)["e2"] == 0.0


def test_mean_curvature_derivative_matches_central_difference(neck_profile):
    # dh_ds = -2u''/u + 2(u'/u)^2 against a fourth-order difference of h_slice
    s = np.array([-1.3, -0.4, 0.0, 0.7, 1.5])
    step = 1e-3
    h = [curvature_scalars(neck_profile, s + k * step)["h_slice"] for k in (-2, -1, 1, 2)]
    fd = (h[0] - 8.0 * h[1] + 8.0 * h[2] - h[3]) / (12.0 * step)
    np.testing.assert_allclose(curvature_scalars(neck_profile, s)["dh_ds"], fd, rtol=0, atol=1e-9)


class TestArclength:
    def test_round_trip_with_profile(self, neck_profile):
        p = params_from_neck(0.5, 0.3, 1.0)
        s = arclength_from_r(p, 0.7)
        assert s == pytest.approx(1.0727094586295687, abs=1e-8)  # mpmath quad oracle
        assert abs(neck_profile.u(s) - 0.7) <= 1e-6

    def test_vanishes_at_inner_horizon(self):
        p = params_from_neck(0.5, 0.3, 1.0)
        assert arclength_from_r(p, 0.5 + 1e-9) < 1e-4

    def test_strictly_increasing(self):
        p = params_from_neck(0.5, 0.3, 1.0)
        radii = np.linspace(0.55, 1.25, 9)
        values = [arclength_from_r(p, r) for r in radii]
        assert np.all(np.diff(values) > 0)

    def test_domain_errors(self):
        p = params_from_neck(0.5, 0.3, 1.0)
        with pytest.raises(ValueError):
            arclength_from_r(p, 0.4)
        with pytest.raises(ValueError):
            arclength_from_r(p, 1.5)
        npar_like = ModelParams(0.4586666666666667, 0.48, 1.0)  # double outer root
        with pytest.raises(ValueError):
            arclength_from_r(npar_like, 0.7)


class TestErrors:
    def test_range_check(self, neck_profile):
        with pytest.raises(ValueError):
            neck_profile.u(2.5)
        with pytest.raises(ValueError):
            slice_hawking_mass(neck_profile, -2.1)

    def test_nan_arclength_is_refused(self, neck_profile):
        # NaN compares false with the bound, so the check must be "all within"
        nan = float("nan")
        with pytest.raises(ValueError, match="outside integrated range"):
            neck_profile.u(nan)
        with pytest.raises(ValueError, match="outside integrated range"):
            neck_profile.state([0.1, nan])
        with pytest.raises(ValueError, match="outside integrated range"):
            curvature_scalars(neck_profile, nan)

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            integrate_profile(0.5, 0.3, 1.0, tol=1e-4)
        with pytest.raises(ValueError):
            integrate_profile(0.5, 0.3, 1.0, tol=1e-16)

    @pytest.mark.parametrize("s_max", [0.0, -1.0])
    def test_s_max_must_be_positive(self, s_max):
        with pytest.raises(ValueError, match="s_max must be positive"):
            integrate_profile(0.5, 0.3, 1.0, s_max=s_max)

    @pytest.mark.parametrize("s_max", [1e-320, 1e-307, np.nextafter(1e-290, 0.0)])
    def test_s_max_below_the_floor_is_refused(self, s_max):
        # below 1e-290 a collocation panel's arithmetic leaves the normal
        # floats: at 1e-307 Newton overflows, at 1e-320 2/h divides by 0
        with pytest.raises(ValueError, match="s_max must be at least 1e-290"):
            integrate_profile(0.5, 0.3, 1.0, s_max=s_max)

    def test_s_max_at_the_floor_integrates(self):
        prof = integrate_profile(0.5, 0.3, 1.0, s_max=1e-290)
        assert prof.u(1e-290) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("s_max", [np.nextafter(1e4, np.inf), 1e9])
    def test_s_max_above_the_bound_is_refused_before_any_panel(self, monkeypatch, s_max):
        # work and memory grow linearly with s_max, so a range past 1e4 is
        # refused before the first collocation panel is solved
        monkeypatch.setattr(profile, "_newton_panel", lambda *a: pytest.fail("solved a panel"))
        with pytest.raises(ValueError, match=f"at most 10000, got {s_max}"):
            integrate_profile(0.5, 0.3, 1.0, s_max=s_max)

    def test_belly_start_rejected(self):
        # a = 1.5 is the outer root of its induced model: u''(0) < 0
        with pytest.raises(ValueError):
            integrate_profile(1.5, 0.0, 1.0)

    def test_positive_neck_required(self):
        with pytest.raises(ValueError):
            integrate_profile(-0.5, 0.3, 1.0)
        # u^3 underflows to 0 at a = 1e-110: refused, not a ZeroDivisionError
        with pytest.raises(ValueError, match="requires a > 0 with a normal a"):
            integrate_profile(1e-110, 0.0, 1.0)


def test_nariai_first_integral_is_the_nariai_mass():
    prof = integrate_profile(0.8, 0.48, 1.0, s_max=1.5, tol=1e-10)
    for s in (-1.2, 0.0, 0.7, 1.5):
        assert slice_hawking_mass(prof, s) == pytest.approx(0.4586666666666667, abs=1e-12)


def test_arclength_robust_near_horizons():
    # radii within 1e-9 of either horizon must integrate cleanly
    p = params_from_neck(0.5, 0.3, 1.0)
    from chmass.models import horizon_roots

    hs = horizon_roots(p)
    near_cosmo = arclength_from_r(p, hs.r_cosmo * (1 - 1e-9))
    assert np.isfinite(near_cosmo)
    assert near_cosmo > arclength_from_r(p, 1.25)
    assert arclength_from_r(p, hs.r_plus * (1 + 1e-9)) < 1e-3


def deflated_arclength(p, r):
    """quad oracle for s(r): the horizon root is divided out of the quartic by
    synthetic division, and the range is split at the lapse maximum found by
    brentq on f'."""
    from scipy.optimize import brentq

    from chmass.models import lapse_squared_prime

    hs = horizon_roots(p)
    monic = [1.0, 0.0, -3.0 / p.lam, 6.0 * p.m / p.lam, -3.0 * p.q**2 / p.lam]

    def piece(root, sign, radius):
        cubic = [1.0]
        for c in monic[1:-1]:
            cubic.append(c + root * cubic[-1])

        def integrand(eta):
            xi = root + sign * eta * eta
            return 2.0 * xi / math.sqrt(-sign * p.lam / 3.0 * np.polyval(cubic, xi))

        return quad(integrand, 0.0, math.sqrt(abs(radius - root)), epsabs=0.0, epsrel=1e-13,
                    limit=200)[0]

    r_plus, r_c = hs.r_plus, hs.r_cosmo
    r_peak = brentq(lambda x: lapse_squared_prime(x, p), r_plus * (1 + 1e-12), r_c * (1 - 1e-12),
                    xtol=1e-15)
    if r <= r_peak:
        return piece(r_plus, 1.0, r)
    return piece(r_plus, 1.0, r_peak) + piece(r_c, -1.0, r_peak) - piece(r_c, -1.0, r)


# (0.3163, 0.3) sits next to the lower edge of the stability window: r_- is
# within 1.5e-4 of r_+, so the eta integrand varies fastest there (a 64-node
# rule is off by up to 9e-12).  The polished roots carry about 2e-13, and the
# two deflations (factored quartic, synthetic division) then differ by
# 1.2e-12 at r_+(1 + 1e-9) whatever the rule size.
@pytest.mark.parametrize("a, q, rel", [(0.5, 0.3, 1e-12), (0.9, 0.1, 1e-12), (0.3163, 0.3, 2e-12)])
@pytest.mark.parametrize("where", ["r_plus(1 + 1e-9)", "0.25", "0.5", "0.75", "r_c(1 - 1e-9)"])
def test_arclength_against_quad_on_deflated_integrand(a, q, rel, where):
    p = params_from_neck(a, q, 1.0)
    hs = horizon_roots(p)
    r_plus, r_c = hs.r_plus, hs.r_cosmo
    r = {
        "r_plus(1 + 1e-9)": r_plus * (1 + 1e-9),
        "r_c(1 - 1e-9)": r_c * (1 - 1e-9),
    }.get(where) or r_plus + float(where) * (r_c - r_plus)
    ref = deflated_arclength(p, r)
    assert arclength_from_r(p, r) == pytest.approx(ref, rel=rel, abs=1e-15)


def test_arclength_rejects_double_inner_root():
    # at an extremal inner horizon the arclength from r_+ diverges
    q = 0.3
    a = math.sqrt((1.0 - math.sqrt(1.0 - 4.0 * q * q)) / 2.0)
    p = params_from_neck(a, q, 1.0)
    assert horizon_roots(p).classification == "double-inner"
    with pytest.raises(ValueError, match="double-inner"):
        arclength_from_r(p, 0.8)
