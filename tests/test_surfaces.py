import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from chmass import surfaces
from chmass.profile import (
    RadialProfile, curvature_scalars, integrate_profile, slice_hawking_mass,
)
from chmass.sphere import ScalarField, _random_c2_stack, build_grid, random_c2_field
from chmass.surfaces import (
    GraphSurface,
    _geometry_from_derivs,
    _graph_masses,
    area,
    charge,
    charged_hawking_mass,
    gauss_curvature_brioschi,
    induced_geometry,
)


@pytest.fixture(scope="module")
def prof():
    return integrate_profile(0.5, 0.3, 1.0, s_max=2.0, tol=1e-10)


@pytest.fixture(scope="module")
def wide():
    # room for the height 1 over s0 = 1.2
    return integrate_profile(0.5, 0.3, 1.0, s_max=2.5, tol=1e-10)


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


def zero_field(grid):
    return ScalarField(grid, np.zeros((grid.n_theta, grid.n_phi)))


def _spy_kernel_nodes(monkeypatch):
    """The number of nodes of each geometry-kernel call, in call order."""
    kernel, nodes = surfaces._geometry_from_derivs, []

    def spy(prof, grid, s0, d, **kw):
        nodes.append(d["f"].size)
        return kernel(prof, grid, s0, d, **kw)

    monkeypatch.setattr(surfaces, "_geometry_from_derivs", spy)
    return nodes


class TestSlices:
    @pytest.mark.parametrize("s0", [0.0, -0.7, 1.3])
    def test_zero_height_geometry_is_that_of_the_full_band_route(self, prof, grid, s0):
        # a zero height born as the band-0 zero vector gives every field of
        # the full-band route bit for bit
        geom = induced_geometry(GraphSurface(prof, s0, ScalarField.from_coeffs(grid, np.zeros(1))))
        d = grid.synth_derivs(grid.analyze(np.zeros((grid.n_theta, grid.n_phi))))
        full = _geometry_from_derivs(prof, grid, s0, d)
        for name, want in full.items():
            assert np.array_equal(getattr(geom, name), want), name

    @pytest.mark.parametrize("n_theta", [16, 128])
    @pytest.mark.parametrize("c00", [0.0, math.sqrt(4.0 * math.pi)])
    @pytest.mark.parametrize("s0", [0.0, 0.3, -0.3, 1.2])
    def test_band0_height_is_read_at_one_node(self, wide, monkeypatch, n_theta, c00, s0):
        # a constant height (the zero height, or the height 1 of c00 =
        # sqrt(4 pi)) reaches the kernel as one node; area, charge, mch and
        # every node array equal the full-grid synthesis's bit for bit, as
        # read-only arrays of the grid's shape
        grid = build_grid(n_theta, 2 * n_theta)
        coeffs = np.array([c00])
        full = _geometry_from_derivs(wide, grid, s0, grid.synth_derivs(coeffs))
        nodes = _spy_kernel_nodes(monkeypatch)
        geom = induced_geometry(GraphSurface(wide, s0, ScalarField.from_coeffs(grid, coeffs)))
        assert nodes == [1]
        for name, want in full.items():
            got = getattr(geom, name)
            assert np.array_equal(got, want), name
            if np.ndim(want):
                assert got.shape == (n_theta, 2 * n_theta) and not got.flags.writeable, name

    @pytest.mark.parametrize("n_theta", [16, 128])
    def test_band1_height_is_read_on_the_whole_grid(self, prof, monkeypatch, n_theta):
        # the control: a height with any coefficient beyond c00 is not constant
        # and reaches the kernel on every node
        grid = build_grid(n_theta, 2 * n_theta)
        nodes = _spy_kernel_nodes(monkeypatch)
        phi = ScalarField.from_coeffs(grid, np.array([0.0, 0.0, 0.01, 0.0]))
        geom = induced_geometry(GraphSurface(prof, 0.3, phi))
        assert nodes == [n_theta * 2 * n_theta]
        assert np.ptp(geom.h_mean) > 0.0

    def test_neck_closed_forms(self, prof, grid):
        geom = induced_geometry(GraphSurface(prof, 0.0, zero_field(grid)))
        assert np.all(geom.h_mean == 0.0)
        assert geom.area == pytest.approx(math.pi, abs=1e-12)
        assert np.abs(geom.gauss_k - 4.0).max() <= 1e-12
        assert geom.charge == pytest.approx(0.3, abs=1e-14)
        assert geom.mch == pytest.approx(prof.m, abs=1e-12)

    def test_offset_slice_matches_curvature_scalars(self, prof, grid):
        s0 = 0.7
        geom = induced_geometry(GraphSurface(prof, s0, zero_field(grid)))
        sc = curvature_scalars(prof, s0)
        assert np.abs(geom.h_mean - sc["h_slice"]).max() <= 1e-13
        assert np.abs(geom.a_norm2 - sc["a2_slice"]).max() <= 1e-13
        assert np.abs(geom.gauss_k - sc["k_slice"]).max() <= 1e-10
        assert np.abs(geom.ric_nn - sc["ric_nn"]).max() <= 1e-12

    def test_umbilicity(self, prof, grid):
        for s0 in (-0.9, 0.4, 1.3):
            geom = induced_geometry(GraphSurface(prof, s0, zero_field(grid)))
            assert np.abs(geom.a_norm2 - 0.5 * geom.h_mean**2).max() <= 1e-9

    def test_constant_height_equals_shifted_slice(self, prof, grid):
        # quadrature over the constant height c against the slice closed form at s0 + c
        c = 0.35
        geom = induced_geometry(GraphSurface(prof, 0.2, ScalarField(grid, np.full((32, 64), c))))
        sc = curvature_scalars(prof, 0.2 + c)
        assert geom.area == pytest.approx(4 * math.pi * sc["u"] ** 2, abs=1e-10)
        assert geom.mch == pytest.approx(slice_hawking_mass(prof, 0.2 + c), abs=1e-10)
        assert np.abs(geom.h_mean - sc["h_slice"]).max() <= 1e-10

    def test_sign_coherence_on_expanding_slices(self, prof, grid):
        # u' > 0: mean curvature negative while area grows
        s = 0.8
        ds = 1e-3
        geom = induced_geometry(GraphSurface(prof, s, zero_field(grid)))
        assert prof.du(s) > 0
        assert np.all(geom.h_mean < 0)
        a_plus = area(GraphSurface(prof, s + ds, zero_field(grid)))
        a_minus = area(GraphSurface(prof, s - ds, zero_field(grid)))
        assert a_plus > a_minus

    def test_mass_constancy_both_paths(self, prof, grid):
        for s0 in np.linspace(-1.5, 1.5, 11):
            assert abs(slice_hawking_mass(prof, s0) - prof.m) <= 1e-8
            quad = induced_geometry(GraphSurface(prof, s0, zero_field(grid))).mch
            assert abs(quad - prof.m) <= 1e-5

    def test_nariai_slice_mass(self):
        nprof = integrate_profile(0.8, 0.48, 1.0, s_max=1.0)
        assert slice_hawking_mass(nprof, 0.4) == pytest.approx(0.4586666666666667, abs=1e-10)


def test_flat_round_sphere_has_zero_mass(grid):
    # flat space as a degenerate profile: u(s) = s solves the equation with
    # Lambda = Q = 0, and round spheres carry zero mass at zeta = 0
    class _FlatSol:
        def __call__(self, s):
            s = np.asarray(s, dtype=float)
            return np.stack([s, np.ones_like(s)])

    flat = RadialProfile(
        a=0.0, q=0.0, lam=0.0, m=0.0, kind="rnds", s_max=10.0, tol=1e-10, _sol=_FlatSol(),
    )
    surf = GraphSurface(flat, 1.0, ScalarField(grid, np.zeros((32, 64))))
    assert charged_hawking_mass(surf, zeta=0.0) == pytest.approx(0.0, abs=1e-13)


class TestZeta:
    """zeta enters the mass functional alone: the geometry is taken at 2 Lambda."""

    @pytest.fixture
    def surf(self, prof, grid):
        return GraphSurface(prof, 0.2, random_c2_field(grid, 7, 4, 0.1))

    def test_default_zeta_is_the_geometry_mass(self, prof, surf):
        geom = induced_geometry(surf)
        assert geom.zeta == 2.0 * prof.lam
        assert charged_hawking_mass(surf, 2.0 * prof.lam) == geom.mch
        assert charged_hawking_mass(surf) == geom.mch

    def test_mass_is_affine_in_zeta(self, prof, surf):
        # d m_CH / d zeta = -(2/3) |S|^(3/2) / (16 pi)^(3/2)
        geom = induced_geometry(surf)
        slope = -(2.0 / 3.0) * geom.area**1.5 / (16.0 * math.pi) ** 1.5
        for zeta in (0.0, prof.lam, 3.0):
            want = geom.mch + slope * (zeta - 2.0 * prof.lam)
            assert charged_hawking_mass(surf, zeta) == pytest.approx(want, rel=0, abs=1e-15)

    def test_one_kernel_call_per_surface(self, prof, grid, monkeypatch):
        # lambda1_discrete, charge and the mass at three zeta read one geometry
        from chmass.spectrum import lambda1_discrete
        kernel, calls = surfaces._geometry_from_derivs, []

        def spy(*args, **kw):
            calls.append(kw.get("mass_only", False))
            return kernel(*args, **kw)

        monkeypatch.setattr(surfaces, "_geometry_from_derivs", spy)
        for seed in (1, 2):
            surf = GraphSurface(prof, 0.0, random_c2_field(grid, seed, 4, 0.05))
            lambda1_discrete(surf, lmax=4)
            charge(surf)
            for zeta in (0.0, prof.lam, 2.0 * prof.lam):
                charged_hawking_mass(surf, zeta)
        assert calls == [False, False]


class TestGraphs:
    def test_charge_invariance(self, prof, grid):
        for seed in range(5):
            fld = random_c2_field(grid, seed, 4, 0.05)
            assert charge(GraphSurface(prof, 0.0, fld)) == pytest.approx(0.3, abs=1e-6)

    def test_uncharged_model_zero_charge(self, grid):
        prof0 = integrate_profile(0.9, 0.0, 1.0, s_max=1.0)
        fld = random_c2_field(grid, 3, 4, 0.05)
        assert abs(charge(GraphSurface(prof0, 0.0, fld))) <= 1e-12

    def test_gauss_bonnet(self, prof, grid):
        for seed in (0, 7, 21):
            fld = random_c2_field(grid, seed, 4, 0.1)
            geom = induced_geometry(GraphSurface(prof, 0.1, fld))
            total = geom.integral(geom.gauss_k)
            assert total == pytest.approx(4 * math.pi, abs=1e-6)

    def test_brioschi_cross_check(self, prof, grid):
        # intrinsic coordinate formula vs the ambient Gauss equation
        fld = random_c2_field(grid, 7, 4, 0.05)
        surf = GraphSurface(prof, 0.0, fld)
        geom = induced_geometry(surf)
        ith = [6, 11, 16, 21, 26]
        iph = [3, 17, 33, 41, 55]
        kb = gauss_curvature_brioschi(surf, grid.theta[ith], grid.phi[iph])
        kg = geom.gauss_k[ith, iph]
        assert np.abs(kb - kg).max() <= 1e-6

    def test_area_first_variation_fd(self, prof, grid):
        # d/dt area(graph(t phi)) = - int H phi at t = 0, order-2 convergence.
        # A constant-dominated speed keeps the third t-derivative of the area
        # away from zero so the order measurement sits in the truncation
        # regime rather than roundoff.
        fld = random_c2_field(grid, 5, 4, 0.1)
        speed = ScalarField(grid, 0.4 + fld.values)
        base = GraphSurface(prof, 0.3, zero_field(grid))
        geom = induced_geometry(base)
        target = -geom.integral(geom.h_mean * speed.values)

        def a_of(t):
            return area(GraphSurface(prof, 0.3, ScalarField(grid, t * speed.values)))

        d_h = (a_of(5e-2) - a_of(-5e-2)) / 1e-1
        d_h2 = (a_of(2.5e-2) - a_of(-2.5e-2)) / 5e-2
        assert d_h2 == pytest.approx(target, abs=1e-4)
        order = math.log2(abs(d_h - target) / abs(d_h2 - target))
        assert order == pytest.approx(2.0, abs=0.4)

    def test_mass_decreases_for_random_graphs(self, prof, grid):
        fld = random_c2_field(grid, 11, 4, 0.05)
        surf = GraphSurface(prof, 0.0, fld)
        assert charged_hawking_mass(surf) < prof.m


def test_surface_with_cached_geometry_frees_on_del(prof, grid):
    # the cached geometry holds the grid, not the surface: no reference cycle
    # keeps a surface and its node arrays alive until the cyclic collector
    surf = GraphSurface(prof, 0.0, random_c2_field(grid, 3, 4, 0.05))
    geom = induced_geometry(surf)
    assert geom.grid is grid and induced_geometry(surf) is geom
    ref = weakref.ref(surf)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del surf, geom
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_range_violation_rejected(prof, grid):
    # a surface reads no grid values: its range is checked when it is measured
    surf = GraphSurface(prof, 1.99, ScalarField(grid, np.full((32, 64), 0.1)))
    with pytest.raises(ValueError, match=r"outside integrated range \[-2.0, 2.0\]: \|s\| up to 2.09"):
        induced_geometry(surf)
    with pytest.raises(ValueError, match="outside integrated range"):
        gauss_curvature_brioschi(surf, [1.0], [0.5])


def test_grid_shape_guard(prof, grid):
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((16, 32)))


@pytest.mark.parametrize("n_theta", [32, 128])
def test_stacked_geometry_kernel_matches_induced_geometry(prof, n_theta):
    g = build_grid(n_theta, 2 * n_theta)
    heights = np.stack([random_c2_field(g, seed, 4, 0.1).values for seed in (21, 22, 23)])
    stacked = _geometry_from_derivs(prof, g, 0.1, g.synth_derivs(g.analyze(heights)))
    # a stack changes the shapes of the per-m matrix products, so transforms
    # may differ in the last bit; spectral second derivatives amplify that by
    # about l^2 at the polar rows (see c2_norm), hence n_theta^2 ulps
    tol = n_theta**2 * np.finfo(float).eps
    for i, h in enumerate(heights):
        geom = induced_geometry(GraphSurface(prof, 0.1, ScalarField(g, h)))
        for name, val in stacked.items():
            want = getattr(geom, name)
            assert np.abs(val[i] - want).max() <= tol * np.abs(want).max(), name


def test_stacked_slices_match_per_slice_geometry(prof, grid):
    # a stack of slices is one zero height broadcast against a stack of s0;
    # every scalar equals the per-slice quadrature bit for bit
    s0 = np.linspace(-1.8, 1.8, 11)
    zero = grid.synth_derivs(grid.analyze(np.zeros((32, 64))))
    stacked = _graph_masses(prof, grid, s0[:, None, None], zero)
    for i, s in enumerate(s0):
        geom = induced_geometry(GraphSurface(prof, float(s), zero_field(grid)))
        for name in ("area", "charge", "mch"):
            assert stacked[name][i] == getattr(geom, name), name
    # a scaled stack t phi: the mass-only kernel behind _graph_masses gives
    # the full kernel's scalars bit for bit
    phi = random_c2_field(grid, 5, 4, 0.5).values
    t = np.array([-2e-2, -1e-2, 5e-3, 1e-2, 2e-2])[:, None, None]
    d = grid.synth_derivs(grid.analyze(phi))
    scaled = _graph_masses(prof, grid, 0.0, d, t=t)
    full = _geometry_from_derivs(prof, grid, 0.0, {key: t * v for key, v in d.items()})
    for name in ("area", "charge", "mch"):
        np.testing.assert_array_equal(scaled[name], full[name], err_msg=name)


def test_stack_chunks_bound_the_kernel_and_keep_the_values(prof, grid, monkeypatch):
    # chunks of at most _STACK_NODES nodes (at least one graph each) reach the
    # kernel, each with its graphs' own scales; the chunk size changes no value
    heights = grid.synth_derivs(_random_c2_stack(grid, range(11), 4, 0.05))
    t = np.linspace(-1.5, 1.5, 11)[:, None, None]
    kernel = surfaces._geometry_from_derivs
    rows = []

    def spy(prof, grid, s0, d, **kw):
        rows.append(len(d["f"]))
        return kernel(prof, grid, s0, d, **kw)

    monkeypatch.setattr(surfaces, "_geometry_from_derivs", spy)
    results = {}
    for cap, want in [(1, [1] * 11), (2**14, [8, 3]), (2**20, [11])]:
        monkeypatch.setattr(surfaces, "_STACK_NODES", cap)
        rows.clear()
        results[cap] = _graph_masses(prof, grid, 0.1, heights, t)
        assert rows == want
    for name, values in results[2**14].items():
        np.testing.assert_array_equal(values, results[1][name])
        np.testing.assert_array_equal(values, results[2**20][name])


def test_single_graph_is_not_a_stack(prof, monkeypatch):
    # one 2-D graph with a scalar s0 broadcasts to (n_theta, n_phi): read as a
    # stack it made n_theta kernel calls on the whole graph, so it is refused
    # before any
    grid = build_grid(128, 256)
    d = grid.synth_derivs(random_c2_field(grid, 7919, 4, 0.5).coeffs)
    monkeypatch.setattr(surfaces, "_geometry_from_derivs", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match=r"graph stack of shape \(128, 256\) is not"):
        _graph_masses(prof, grid, 0.25, d)


def test_kernel_pass_size_changes_no_value(prof, monkeypatch):
    # the kernel's elementwise passes (one theta row, the default 2**13
    # weighted nodes, or one pass over the whole call) change no field of the
    # full kernel and no mass of the mass-only one, bit for bit: one graph, a
    # stack with an s0 per graph, a scaled stencil (and _graph_masses on it)
    # and the band-0 node (one node of fields, a whole grid of weights).  The
    # passes are counted, so each size really runs
    fine, coarse = build_grid(128, 256), build_grid(16, 32)
    stencil = coarse.synth_derivs(_random_c2_stack(coarse, [3], 4, 0.5)[0])
    t = np.linspace(-2e-2, 2e-2, 9)[:, None, None]
    cases = {  # grid, s0, d, t, passes of one theta row and of 2**13 nodes
        "graph": (fine, 0.1, fine.synth_derivs(_random_c2_stack(fine, [7], 4, 0.5)[0]),
                  None, 128, 4),
        "stack": (coarse, np.linspace(-0.5, 0.5, 32)[:, None, None],
                  coarse.synth_derivs(_random_c2_stack(coarse, range(32), 4, 0.05)), None, 512, 2),
        "stencil": (coarse, 0.0, stencil, t, 9 * 16, 1),
        "band 0": (fine, 0.3, surfaces._node_derivs(fine, np.zeros(1)), None, 128, 4),
    }
    node_fields, passes = surfaces._node_fields, []

    def spy(*args):
        passes.append(1)
        return node_fields(*args)

    monkeypatch.setattr(surfaces, "_node_fields", spy)
    for name, (g, s0, d, scale, row_passes, default_passes) in cases.items():
        scaled = d if scale is None else {key: scale * v for key, v in d.items()}
        results = []
        for cap, want in [(g.n_phi, row_passes), (2**13, default_passes), (2**30, 1)]:
            monkeypatch.setattr(surfaces, "_PASS_NODES", cap)
            passes.clear()
            calls = [
                _geometry_from_derivs(prof, g, s0, scaled),
                _geometry_from_derivs(prof, g, s0, scaled, mass_only=True),
            ]
            if scale is not None:  # the stencil in one chunk, the kernel's passes
                calls.append(_graph_masses(prof, g, s0, d, scale))
            assert len(passes) == len(calls) * want, (name, cap)
            results.append(calls)
        (full, *masses), *others = results
        assert full["h_mean"].shape == np.broadcast_shapes(np.shape(s0), scaled["f"].shape)
        for other in others:
            for ref, got in zip(results[0], other):
                assert ref.keys() == got.keys()
                for key, v in ref.items():
                    assert v.shape == got[key].shape and np.array_equal(v, got[key]), (name, key)
        for mass, key in itertools.product(masses, ("area", "charge", "mch")):
            assert np.array_equal(mass[key], full[key]), (name, key)


def test_mass_kernel_traced_peak(prof):
    # the mass-only kernel on one 128 x 256 graph holds its three weighted
    # integrands (256 KB each) and one pass of 2**13-node temporaries: its
    # tracemalloc peak stays below 3 MB.  It is 2.2 MB (5.5 MB while each
    # temporary spanned the whole graph)
    import tracemalloc

    grid = build_grid(128, 256)
    d = grid.synth_derivs(random_c2_field(grid, 7919, 4, 0.5).coeffs)
    tracemalloc.start()
    try:
        _geometry_from_derivs(prof, grid, 0.0, d, mass_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_stack_check_rejects_any_graph(prof, grid):
    heights = grid.synth_derivs(_random_c2_stack(grid, range(3), 4, 0.05))
    t = np.array([0.5, -1.0, 2.0])[:, None, None]
    bad = {key: v.copy() for key, v in heights.items()}
    bad["f"][1, 3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _graph_masses(prof, grid, 0.0, bad, t)
    s0 = np.array([0.0, 2.5, 0.0])[:, None, None]
    with pytest.raises(ValueError, match="outside integrated range"):
        _graph_masses(prof, grid, s0, heights, t)


def test_drawn_stack_is_checked_on_the_heights_it_measures(prof, grid):
    # a stencil reaches _graph_masses as its heights' derivative dict and
    # its scales, and the range check reads the scaled heights t d["f"]: a
    # stack just past s_max raises
    drawn = grid.synth_derivs(_random_c2_stack(grid, range(3), 4, 0.05))
    t = np.array([0.5, -1.0, 2.0])[:, None, None]
    reach = prof.s_max / np.abs(t * drawn["f"]).max()
    with pytest.raises(ValueError, match="outside integrated range"):
        _graph_masses(prof, grid, 0.0, drawn, 1.01 * reach * t)
    inside = _graph_masses(prof, grid, 0.0, drawn, 0.99 * reach * t)
    assert np.all(np.isfinite(inside["mch"]))


@pytest.mark.parametrize("n_theta", [32, 64])
def test_drawn_stack_with_its_scales_is_the_scaled_stack(prof, n_theta):
    # scaling each chunk by t gives the masses of the scaled stack bit for
    # bit: the products are the same, taken chunk by chunk
    g = build_grid(n_theta, 2 * n_theta)
    drawn = g.synth_derivs(_random_c2_stack(g, range(5), 4, 0.05))
    t = np.array([-2.0, -0.5, 0.0, 0.7, 1.9])[:, None, None]
    masses = _graph_masses(prof, g, 0.0, drawn, t)
    scaled = _graph_masses(prof, g, 0.0, {key: t * v for key, v in drawn.items()})
    for name in ("area", "charge", "mch"):
        np.testing.assert_array_equal(masses[name], scaled[name], err_msg=name)


def test_scaled_heights_are_checked_not_the_unscaled(prof, grid):
    # unscaled, the three heights reach 0.9, 0.45 and 0.9 of s_max.  A scale
    # of 2.3 carries the second out of the range; one of 2.2 keeps it inside,
    # since each graph is checked on its own scaled heights (2.2 times the
    # largest height of the stack would leave the range)
    drawn = grid.synth_derivs(_random_c2_stack(grid, range(3), 4, 0.05))
    peak = np.abs(drawn["f"]).max(axis=(1, 2), keepdims=True)
    reach = np.array([0.9, 0.45, 0.9])[:, None, None] * prof.s_max
    heights = {key: (reach / peak) * v for key, v in drawn.items()}
    assert np.abs(heights["f"]).max() < prof.s_max
    with pytest.raises(ValueError, match="outside integrated range"):
        _graph_masses(prof, grid, 0.0, heights, np.array([1.0, 2.3, 1.0])[:, None, None])
    inside = _graph_masses(prof, grid, 0.0, heights, np.array([1.0, 2.2, 1.0])[:, None, None])
    assert np.all(np.isfinite(inside["mch"]))


def test_kernel_is_invariant_under_a_rotation_of_the_frame(prof, grid):
    # the kernel reads O(2)-invariant contractions of the frame components:
    # rotating (f1, f2) by R and the Hessian by R h R^T at every node moves
    # neither H, |A|^2 and K nor the masses beyond roundoff.  Seeded nonzonal
    # band-4 draws at C^2 size 0.5 over s0 = 0.2; bounds fixed before the first
    # run: 1e-13 of each field's largest value, 1e-14 relative for m_CH.  A
    # gradient rotated without its Hessian must move H by more than 1e-6.
    d = grid.synth_derivs(_random_c2_stack(grid, range(4), 4, 0.5))
    c, s = math.cos(0.7), math.sin(0.7)
    grad = {"f1": c * d["f1"] - s * d["f2"], "f2": s * d["f1"] + c * d["f2"]}
    hess = {
        "h11": c * c * d["h11"] - 2 * c * s * d["h12"] + s * s * d["h22"],
        "h12": c * s * (d["h11"] - d["h22"]) + (c * c - s * s) * d["h12"],
        "h22": s * s * d["h11"] + 2 * c * s * d["h12"] + c * c * d["h22"],
    }
    base = _geometry_from_derivs(prof, grid, 0.2, d)
    turned = _geometry_from_derivs(prof, grid, 0.2, {**d, **grad, **hess})
    for name in ("h_mean", "a_norm2", "gauss_k"):
        want = base[name]
        assert np.abs(turned[name] - want).max() <= 1e-13 * np.abs(want).max(), name
    np.testing.assert_allclose(turned["mch"], base["mch"], rtol=1e-14, atol=0)
    half = _geometry_from_derivs(prof, grid, 0.2, {**d, **grad})["h_mean"]
    assert np.abs(half - base["h_mean"]).max() > 1e-6 * np.abs(base["h_mean"]).max()
