"""Property tests of invariants the transforms and the mass functional claim."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chmass.profile import integrate_profile
from chmass.sphere import ScalarField, build_grid, n_coeffs, random_c2_field
from chmass.surfaces import GraphSurface, charged_hawking_mass

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
