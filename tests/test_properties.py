"""Property tests of invariants the transforms and the mass functional claim."""

import functools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chmass.electrostatics import area_charge_report
from chmass.models import ModelParams, admissible_window
from chmass.profile import area_charge_value, integrate_profile, slice_hawking_mass
from chmass.spectrum import stability_window
from chmass.sphere import ScalarField, build_grid, n_coeffs, random_c2_field
from chmass.surfaces import GraphSurface, _graph_masses, _mass_grid, area, charged_hawking_mass

# fixed examples keep tier-1 reproducible; no example database on disk
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@functools.cache
def grid():
    return build_grid(16, 32)


@functools.cache
def prof():
    return integrate_profile(0.5, 0.3, 1.0, s_max=1.0)


@st.composite
def coefficient_stacks(draw):
    lmax = draw(st.integers(0, grid().lmax))
    batch = draw(st.integers(1, 4))
    elements = st.floats(-1.0, 1.0, allow_subnormal=False)
    return draw(arrays(float, (batch, n_coeffs(lmax)), elements=elements))


@PROPERTY
@given(coefficient_stacks())
def test_round_trip_of_band_limited_stacks(coeffs):
    g = grid()
    lmax = int(np.sqrt(coeffs.shape[1])) - 1
    back = g.analyze(g.synthesize(coeffs), lmax=lmax)
    assert back.shape == coeffs.shape
    assert np.abs(back - coeffs).max() <= 1e-13 * max(1.0, np.abs(coeffs).max())


@PROPERTY
@given(
    seed=st.integers(0, 2**31 - 1),
    amplitude=st.floats(0.0, 0.05),
    s0=st.floats(-0.3, 0.3),
    shift=st.integers(1, 31),
)
def test_mass_invariant_under_azimuthal_roll(seed, amplitude, s0, shift):
    # rolling by whole grid columns rotates a band-limited field exactly
    g, p = grid(), prof()
    phi = random_c2_field(g, seed, 4, amplitude)
    rolled = ScalarField(g, np.roll(phi.values, shift, axis=1))
    m = charged_hawking_mass(GraphSurface(p, s0, phi))
    m_rolled = charged_hawking_mass(GraphSurface(p, s0, rolled))
    assert abs(m_rolled - m) <= 1e-13 * abs(m)


@PROPERTY
@given(
    seed=st.integers(0, 2**31 - 1),
    amplitude=st.floats(0.0, 0.5),
    s0=st.floats(-0.3, 0.3),
)
def test_mass_invariant_under_a_quarter_turn_about_x(seed, amplitude, s0):
    # a band-4 height turned by 90 degrees about the x axis is band 4 again:
    # evaluate_at reads it at the turned nodes, where (x, y, z) goes to
    # (x, -z, y), and analyze takes it back; the turned graph is isometric to
    # the first.  With n_theta even no turned node is a pole (the closest is
    # 0.048 rad away).  The charge is left out: it is Q on every graph.
    g, p = build_grid(32, 64), prof()
    th, ph = np.meshgrid(g.theta, g.phi, indexing="ij")
    x, y, z = np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)
    phi = random_c2_field(g, seed, 4, amplitude)
    turned = g.evaluate_at(phi.coeffs, np.arccos(y).ravel(), np.arctan2(-z, x).ravel())[0]
    turned = ScalarField.from_coeffs(g, g.analyze(turned.reshape(th.shape), lmax=4))
    before, after = GraphSurface(p, s0, phi), GraphSurface(p, s0, turned)
    assert abs(charged_hawking_mass(after) - charged_hawking_mass(before)) <= 1e-13 * abs(
        charged_hawking_mass(before))
    assert abs(area(after) - area(before)) <= 1e-13 * area(before)


@PROPERTY
@given(
    seed=st.integers(0, 2**31 - 1),
    lmax=st.integers(1, 8),
    size=st.floats(0.0, 0.05, exclude_min=True),
    s0=st.sampled_from([0.0, 0.55, -0.55]),
)
@example(seed=1, lmax=4, size=0.02, s0=0.0)
@example(seed=0, lmax=4, size=0.05, s0=-0.55)
@example(seed=0, lmax=8, size=0.05, s0=0.55)
def test_mass_grid_resolves_the_sampled_graphs(seed, lmax, size, s0):
    # a band-lmax height of C^2 size <= 0.05, drawn on 64 x 128, has on the
    # grid of _mass_grid (16 x 32 up to band 4, 4 lmax x 8 lmax beyond) the
    # mass of the 64 x 128 grid to roundoff; a larger size or a full-band
    # field keeps the caller's grid
    p, fine = prof(), build_grid(64, 128)
    coeffs = random_c2_field(fine, seed, lmax, size).coeffs
    rule = _mass_grid(fine, lmax, size)
    assert rule.n_theta == max(16, 4 * lmax) and rule.n_phi == 2 * rule.n_theta

    def mass(g):
        return charged_hawking_mass(GraphSurface(p, s0, ScalarField.from_coeffs(g, coeffs)))

    assert abs(mass(rule) - mass(fine)) <= 1e-15
    assert _mass_grid(fine, lmax, math.nextafter(0.05, 1.0)) is fine
    assert _mass_grid(fine, fine.lmax, size) is fine
    assert _mass_grid(rule, lmax, size) is rule


@st.composite
def stable_necks(draw):
    """(a, Q) with a^2 strictly inside stability_window(Q) (Lambda = 1)."""
    q = draw(st.floats(0.0, 0.49))
    lo, hi = stability_window(q)
    u = draw(st.floats(1e-3, 1.0 - 1e-3))
    return math.sqrt(lo + u * (hi - lo)), q


@PROPERTY
@given(stable_necks())
def test_slices_of_a_stable_neck_keep_its_mass_and_charge(neck):
    # crit 04's and 05's bounds on a random neck: the closed-form and the
    # stacked quadrature slice masses stay at m, and the flux charge is Q
    a, q = neck
    p = integrate_profile(a, q, 1.0, s_max=1.0, tol=1e-10)
    s0 = np.linspace(-1.0, 1.0, 9)
    g = grid()
    zero = g.synth_derivs(g.analyze(np.zeros((g.n_theta, g.n_phi))))
    quad = _graph_masses(p, g, s0[:, None, None], zero)
    assert np.abs(slice_hawking_mass(p, s0) - p.m).max() <= 1e-8
    assert np.abs(quad["mch"] - p.m).max() <= 1e-5
    assert np.abs(quad["charge"] - q).max() <= 1e-6


@PROPERTY
@given(stable_necks())
def test_stable_neck_obeys_the_area_charge_inequality(neck):
    a, q = neck
    assert area_charge_value(4.0 * math.pi * a * a, q) <= 4.0 * math.pi


# mass fractions within 1e-9 of the window's edges: near-extremal (m_min, the
# inner and outer horizons merging) and near-Nariai (m_max, the outer and
# cosmological horizons merging).  At Q = 1e-4 and mfrac 1e-9 the two inner
# roots are 5.2e-7 apart; horizon_roots keeps them distinct, since their
# mean fails the |f| <= HORIZON_TOL check that each of them passes.
NEAR_EDGES = st.sampled_from([1e-9, 1.0 - 1e-9])


@PROPERTY
@given(
    q=st.floats(1e-4, 0.4999),
    mfrac=st.one_of(NEAR_EDGES, st.floats(1e-9, 1.0 - 1e-9)),
)
@example(q=0.3, mfrac=1e-9)
@example(q=0.3, mfrac=1.0 - 1e-9)
@example(q=0.4999, mfrac=1e-9)
@example(q=0.4999, mfrac=1.0 - 1e-9)
@example(q=0.01, mfrac=1e-9)
@example(q=0.01, mfrac=1.0 - 1e-9)
@example(q=1e-4, mfrac=1e-9)
def test_every_horizon_obeys_the_area_charge_bound(q, mfrac):
    # Lambda |dN| + 48 pi^2 Q^2 / |dN| <= 12 pi on every horizon sphere of
    # every model inside the admissible mass window (Lambda = 1)
    lo, hi = admissible_window(q, 1.0)
    rep = area_charge_report(ModelParams(lo + mfrac * (hi - lo), q, 1.0))
    assert rep.components
    for c in rep.components:
        assert c.bound_lhs <= 12.0 * math.pi
        assert c.satisfied
