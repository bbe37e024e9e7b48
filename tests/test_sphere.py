import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chmass
from chmass import sphere
from chmass.sphere import (
    MAX_N_THETA,
    ScalarField,
    SphereGrid,
    _PRODUCT_BAND,
    _blocks,
    _degrees,
    _random_c2_stack,
    _theta_rule,
    build_grid,
    c2_norm,
    coeff_index,
    integrate,
    laplace_beltrami,
    n_coeffs,
    random_c2_field,
    scalar_field_from_dict,
    scalar_field_to_dict,
)


# the keys of a synth_derivs dict: the field, its gradient and its covariant
# Hessian in the round sphere's orthonormal frame
FRAME_KEYS = ("f", "f1", "f2", "h11", "h12", "h22")


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


def field(grid, fn):
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    return ScalarField(grid, np.broadcast_to(fn(th, ph), (grid.n_theta, grid.n_phi)).copy())


def test_weights_sum_to_sphere_area(grid):
    assert abs(grid.w_node.sum() - 4 * math.pi) <= 1e-13


def test_grid_size_validation():
    with pytest.raises(ValueError):
        build_grid(6, 64)
    with pytest.raises(ValueError):
        build_grid(16, 24)  # n_phi below 2 n_theta


def test_integrate_constants_and_zonals(grid):
    assert integrate(field(grid, lambda t, p: np.ones_like(t + p))) == pytest.approx(
        4 * math.pi, abs=1e-13
    )
    assert abs(integrate(field(grid, lambda t, p: np.cos(t) + 0 * p))) <= 1e-14
    assert integrate(field(grid, lambda t, p: np.cos(t) ** 2 + 0 * p)) == pytest.approx(
        4 * math.pi / 3, abs=1e-12
    )


def test_integrate_grid_mismatch():
    g1, g2 = build_grid(16, 32), build_grid(32, 64)
    f = ScalarField(g1, np.ones((16, 32)))
    with pytest.raises(ValueError):
        ScalarField(g2, f.values)


def test_basis_orthonormality(grid):
    # quadrature exactness for products Y_lm Y_l'm' up to l = n_theta / 2
    lmax = 16
    K = n_coeffs(lmax)
    vals = np.stack([grid.synthesize(np.eye(K)[k]) for k in range(K)]).reshape(K, -1)
    gram = vals @ (grid.w_node.ravel()[:, None] * vals.T)
    assert np.abs(gram - np.eye(K)).max() <= 1e-10


@pytest.mark.parametrize("n_theta", [64, 128])
def test_zonal_orthonormality_full_band(n_theta):
    # products up to degree 2 n_theta - 2 are within the rule's exactness, so
    # the Gram error measures the quadrature weights themselves
    g = build_grid(n_theta, 2 * n_theta)
    rows = []
    for l in range(g.lmax + 1):
        c = np.zeros(n_coeffs(g.lmax))
        c[coeff_index(l, 0)] = 1.0
        rows.append(g.synthesize(c).ravel())
    vals = np.stack(rows)
    gram = vals @ (g.w_node.ravel()[:, None] * vals.T)
    assert np.abs(gram - np.eye(g.lmax + 1)).max() <= 3e-14


def test_transform_round_trip(grid):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(n_coeffs(10))
    back = grid.analyze(grid.synthesize(c), lmax=10)
    np.testing.assert_allclose(back, c, atol=1e-12)


def test_parseval(grid):
    rng = np.random.default_rng(4)
    c = rng.standard_normal(n_coeffs(8))
    f = ScalarField(grid, grid.synthesize(c))
    assert integrate(ScalarField(grid, f.values**2)) == pytest.approx(
        float((c**2).sum()), abs=1e-10
    )


class TestLaplace:
    def test_eigenfunctions(self, grid):
        # up to l = n_theta / 2
        for l, m in [(1, 0), (2, 0), (2, 1), (5, -3), (9, 7), (16, 16)]:
            c = np.zeros(n_coeffs(16))
            c[coeff_index(l, m)] = 1.0
            y = ScalarField(grid, grid.synthesize(c))
            lap = laplace_beltrami(y)
            assert np.abs(lap.values + l * (l + 1) * y.values).max() <= 1e-10

    def test_annihilates_constants(self, grid):
        # full-band analysis of a constant leaves roundoff coefficients that
        # the l(l+1) multipliers amplify; 1e-10 is the operator contract
        f = ScalarField(grid, np.full((32, 64), 2.7))
        assert np.abs(laplace_beltrami(f).values).max() <= 1e-10

    def test_symmetry(self, grid):
        f = ScalarField(grid, grid.synthesize(np.random.default_rng(5).standard_normal(n_coeffs(6))))
        g = ScalarField(grid, grid.synthesize(np.random.default_rng(6).standard_normal(n_coeffs(6))))
        lhs = integrate(ScalarField(grid, f.values * laplace_beltrami(g).values))
        rhs = integrate(ScalarField(grid, g.values * laplace_beltrami(f).values))
        assert abs(lhs - rhs) <= 1e-9

    def test_legendre_harmonics(self, grid):
        # closed-form eigenfunctions: cos(theta) and the l = 2 Legendre polynomial
        cth = field(grid, lambda t, p: np.cos(t) + 0 * p)
        assert np.abs(laplace_beltrami(cth).values + 2 * cth.values).max() <= 1e-10
        p2 = field(grid, lambda t, p: (3 * np.cos(t) ** 2 - 1) / 2 + 0 * p)
        assert np.abs(laplace_beltrami(p2).values + 6 * p2.values).max() <= 1e-10


class TestC2Norm:
    def test_zero_field(self, grid):
        assert c2_norm(ScalarField(grid, np.zeros((32, 64)))) == 0.0

    def test_cos_theta_hessian(self):
        # Hess(cos) = -cos * metric: Frobenius norm sqrt(2)|cos|, discrete max
        # approaches sqrt(2) as nodes crowd the poles
        g = build_grid(64, 128)
        cth = ScalarField(g, np.broadcast_to(np.cos(g.theta)[:, None], (64, 128)).copy())
        val = c2_norm(cth)
        assert val == pytest.approx(math.sqrt(2) * np.abs(g.x).max(), abs=1e-9)
        assert val == pytest.approx(math.sqrt(2), abs=2e-3)

    @pytest.mark.parametrize("n_theta", [32, 128])
    def test_cos_theta_hessian_across_grids(self, n_theta):
        # same closed form as above; the polar-row error must stay within
        # 1e-9 from coarse to fine grids
        g = build_grid(n_theta, 2 * n_theta)
        cth = ScalarField(g, np.broadcast_to(np.cos(g.theta)[:, None], (n_theta, 2 * n_theta)).copy())
        assert c2_norm(cth) == pytest.approx(math.sqrt(2) * np.abs(g.x).max(), abs=1e-9)

    def test_homogeneity(self, grid):
        f = random_c2_field(grid, 2, 4, 1.0)
        scaled = ScalarField(grid, -3.5 * f.values)
        assert c2_norm(scaled) == pytest.approx(3.5 * c2_norm(f), rel=1e-13)


def _per_coefficient_stack(grid, seeds, lmax, amplitude):
    """A fixed reference stack: one SeedSequence([seed, l, m + l]), PCG64 and
    Generator per coefficient, normalized to C^2 norm amplitude."""
    coeffs = np.zeros((len(seeds), n_coeffs(lmax)))
    for i, seed in enumerate(seeds):
        for k in range(coeffs.shape[1]):
            l = math.isqrt(k)
            ss = np.random.SeedSequence([int(seed), l, k - l * l])
            coeffs[i, k] = np.random.Generator(np.random.PCG64(ss)).standard_normal()
    d = grid.synth_derivs(coeffs)
    scale = (amplitude / sphere._c2_norms(d))[:, None, None]
    return {key: scale * v for key, v in d.items()}


class TestRandomField:
    def test_determinism(self, grid):
        f1 = random_c2_field(grid, 7, 4, 0.05)
        f2 = random_c2_field(grid, 7, 4, 0.05)
        assert np.array_equal(f1.values, f2.values)

    def test_seed_sensitivity(self, grid):
        f1 = random_c2_field(grid, 7, 4, 0.05)
        f2 = random_c2_field(grid, 8, 4, 0.05)
        assert not np.array_equal(f1.values, f2.values)

    def test_norm_rescaling(self, grid):
        f = random_c2_field(grid, 123, 4, 0.05)
        assert c2_norm(f) == pytest.approx(0.05, abs=1e-10)

    def test_zero_amplitude(self, grid):
        f = random_c2_field(grid, 1, 4, 0.0)
        assert np.all(f.values == 0.0)

    def test_band_limit_guard(self, grid):
        with pytest.raises(ValueError):
            random_c2_field(grid, 1, 9, 0.05)  # lmax > n_theta / 4

    @pytest.mark.parametrize("n_theta, band", [(32, None), (32, 4), (128, 4)])
    def test_stack_partials_are_those_of_its_values(self, n_theta, band):
        # a drawn stack is born as the synth_derivs dict of its coefficients;
        # re-analyzing its values gives the same partials within n_theta^2
        # ulps.  Full-band analysis adds roundoff in the coefficients above the
        # drawn band, which the polar rows amplify (see c2_norm): at n_theta
        # 128 ftt then differs by about 9 n_theta^2 ulps, so there the values
        # are analyzed at the drawn band.  The stack is the fixed reference
        # draw above, not the package's seeded draw: at n_theta 32 the
        # full-band read depends on the draw (0.95 of the bound here).
        g = build_grid(n_theta, 2 * n_theta)
        d = _per_coefficient_stack(g, range(5), 4, 0.05)
        again = g.synth_derivs(g.analyze(d["f"], lmax=band))
        tol = n_theta**2 * np.finfo(float).eps
        assert set(d) == set(again)
        for name, want in again.items():
            assert np.abs(d[name] - want).max() <= tol * np.abs(want).max(), name

    @pytest.mark.parametrize("n_theta", [32, 128])
    def test_stack_coefficients_are_those_of_its_partials(self, n_theta):
        # a stack is its scaled coefficients, which synthesize the drawn
        # coefficients' partials times each draw's scale: both are the same
        # transforms times one scale, so they differ by rounding alone, here
        # within 100 ulps of each array's max
        g = build_grid(n_theta, 2 * n_theta)
        coeffs = _random_c2_stack(g, range(5), 4, 0.05)
        assert coeffs.shape == (5, n_coeffs(4))
        drawn = [np.random.default_rng(seed).standard_normal(n_coeffs(4)) for seed in range(5)]
        d = g.synth_derivs(np.array(drawn))
        scale = 0.05 / sphere._c2_norms(d)
        again = g.synth_derivs(coeffs)
        tol = 100 * np.finfo(float).eps
        for name, v in d.items():
            want = scale[:, None, None] * v
            assert np.abs(again[name] - want).max() <= tol * np.abs(want).max(), name
        # a field is the one-seed stack's scaled coefficients (its values are
        # their synthesis: test_values_are_the_synthesis_of_its_coefficients)
        f = random_c2_field(g, 3, 4, 0.05)
        np.testing.assert_array_equal(f.coeffs, _random_c2_stack(g, [3], 4, 0.05)[0])

    @pytest.mark.parametrize("n_theta", [16, 32, 64, 128])
    def test_values_are_the_synthesis_of_its_coefficients(self, n_theta):
        # a drawn field is built from its coefficients like any other, so its
        # values are one synthesis of the coefficients it carries, bit for bit
        g = build_grid(n_theta, 2 * n_theta)
        for seed in range(5):
            f = random_c2_field(g, seed, 4, 0.05)
            np.testing.assert_array_equal(f.values, g.synthesize(f.coeffs))

    @pytest.mark.parametrize("n_theta", [16, 32, 64, 128])
    def test_norm_is_the_amplitude(self, n_theta):
        # normalized on the partials of its drawn coefficients, the field has
        # C^2 norm amplitude; it carries its band-4 coefficients, so c2_norm
        # reads them back without a full-band re-analysis and agrees to 1e-13
        # relative on every grid
        g = build_grid(n_theta, 2 * n_theta)
        for seed in range(5):
            for amplitude in (0.02, 0.5):
                f = random_c2_field(g, seed, 4, amplitude)
                assert c2_norm(f) == pytest.approx(amplitude, rel=1e-13)


def _raw_draws(monkeypatch, grid, seeds, lmax, amplitude):
    """A stack's scaled coefficients, and the unscaled draw and its partials
    as the stack hands them to synth_derivs."""
    seen = []
    synth_derivs = SphereGrid.synth_derivs

    def spy(self, coeffs):
        seen.append((coeffs, synth_derivs(self, coeffs)))
        return seen[-1][1]

    monkeypatch.setattr(SphereGrid, "synth_derivs", spy)
    coeffs = _random_c2_stack(grid, seeds, lmax, amplitude)
    monkeypatch.undo()
    (raw, d), = seen
    return coeffs, raw, d


def test_draw_is_one_generator_per_seed(grid, monkeypatch):
    # row i is default_rng(seed_i).standard_normal(n), times amplitude over
    # the C^2 norm of its partials, bit for bit
    seeds = [0, 7, np.uint32(2**32 - 1), 2**64, [5, 3]]
    coeffs, raw, d = _raw_draws(monkeypatch, grid, seeds, 4, 0.05)
    for seed, row in zip(seeds, raw):
        np.testing.assert_array_equal(row, np.random.default_rng(seed).standard_normal(25))
    scale = 0.05 / sphere._c2_norms(d)
    np.testing.assert_array_equal(coeffs, scale[:, None] * raw)


def test_band_4_draw_is_the_prefix_of_band_8(monkeypatch):
    g = build_grid(64, 128)
    _, raw4, _ = _raw_draws(monkeypatch, g, [3, [1, 2]], 4, 0.05)
    _, raw8, _ = _raw_draws(monkeypatch, g, [3, [1, 2]], 8, 0.05)
    np.testing.assert_array_equal(raw8[:, : n_coeffs(4)], raw4)


def test_negative_seed_is_refused(grid):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        random_c2_field(grid, -1, 4, 0.05)


class TestFromCoeffs:
    def test_values_are_one_synthesis_and_nothing_is_analyzed(self, grid, monkeypatch):
        c = np.random.default_rng(3).standard_normal(n_coeffs(5))
        monkeypatch.setattr(SphereGrid, "analyze", lambda *a, **k: pytest.fail("analyzed"))
        f = ScalarField.from_coeffs(grid, c)
        np.testing.assert_array_equal(f.values, grid.synthesize(c))
        np.testing.assert_array_equal(f.coeffs, c)
        c[0] = 7.0  # the field keeps its own copy
        assert f.coeffs[0] != 7.0

    def test_values_are_analyzed_once_at_full_band(self, grid):
        values = random_c2_field(grid, 4, 4, 0.05).values
        f = ScalarField(grid, values)
        np.testing.assert_array_equal(f.coeffs, grid.analyze(values))
        assert f.coeffs.size == n_coeffs(grid.lmax)
        values[0, 0] += 1.0  # the field keeps its own copy, which its coeffs describe
        assert f.values[0, 0] != values[0, 0]

    @pytest.mark.parametrize("coeffs, match", [
        (np.array([1.0, np.nan, 0.0, 0.0]), "finite"),
        (np.array([np.inf]), "finite"),
        (np.zeros((2, 4)), "one finite vector"),
        (np.zeros(5), "not \\(lmax \\+ 1\\)\\^2"),
        (np.zeros(n_coeffs(32)), "beyond grid band 31"),
    ])
    def test_refuses_bad_vectors(self, grid, coeffs, match):
        with pytest.raises(ValueError, match=match):
            ScalarField.from_coeffs(grid, coeffs)


def test_json_round_trip(grid):
    f = random_c2_field(grid, 9, 4, 0.03)
    d = scalar_field_to_dict(f)
    g = scalar_field_from_dict(d)
    assert np.allclose(g.values, f.values, atol=0)
    assert (g.grid.n_theta, g.grid.n_phi) == (32, 64)
    with pytest.raises(ValueError):
        scalar_field_from_dict(d, grid=build_grid(16, 32))


def test_analyze_band_and_shape_guards(grid):
    with pytest.raises(ValueError):
        grid.analyze(np.ones((8, 8)))
    with pytest.raises(ValueError):
        grid.analyze(np.ones((32, 64)), lmax=40)
    with pytest.raises(ValueError):
        ScalarField(grid, np.full((32, 64), np.nan))


def test_coefficient_vector_guards(grid):
    # a length that is not (lmax + 1)^2 is refused, not truncated to the
    # largest square; a band above the grid's is refused, not indexed past
    # the tables
    short = np.zeros(10)
    short[9] = 1.0
    for bad in (short, np.ones(n_coeffs(grid.lmax + 1))):
        with pytest.raises(ValueError):
            grid.synthesize(bad)
        with pytest.raises(ValueError):
            grid.synth_derivs(bad)
    with pytest.raises(ValueError):
        grid.evaluate_at(short, 1.0, 0.5)
    with pytest.raises(ValueError):
        grid.basis_with_gradients(grid.lmax + 1)


@pytest.mark.parametrize("n_theta", [32, 128])
def test_evaluate_at_nodes_matches_synth_derivs(n_theta):
    # full-band pointwise sums against the FFT synthesis; four phi columns
    # keep the point tables small at n_theta = 128
    g = build_grid(n_theta, 2 * n_theta)
    c = np.random.default_rng(n_theta).standard_normal(n_coeffs(g.lmax))
    cols = slice(1, None, g.n_phi // 4)
    TH, PH = np.meshgrid(g.theta, g.phi[cols], indexing="ij")
    d = g.synth_derivs(c)
    got = g.evaluate_at(c, TH.ravel(), PH.ravel())
    # evaluate_at returns coordinate partials: f_theta is f1, f_phi is sin(theta) f2
    frame = (d["f"], d["f1"], g.sin_theta[:, None] * d["f2"])
    for val, full in zip(got, frame):
        want = full[:, cols]
        assert np.abs(val.reshape(TH.shape) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_theta", [32, 128])
def test_basis_rows_match_unit_vector_transforms(n_theta):
    g = build_grid(n_theta, 2 * n_theta)
    lmax = 8
    Y, Y1, Y2 = g.basis_with_gradients(lmax)
    for k, e in enumerate(np.eye(n_coeffs(lmax))):
        d = g.synth_derivs(e)
        assert np.abs(Y[k] - g.synthesize(e)).max() <= 1e-13
        assert np.abs(Y[k] - d["f"]).max() <= 1e-13
        assert np.abs(Y1[k] - d["f1"]).max() <= 1e-12
        assert np.abs(Y2[k] - d["f2"]).max() <= 1e-12


@pytest.mark.parametrize("n_theta", [32, 64, 128])
def test_zero_height_is_band_zero(n_theta):
    # the band-0 zero vector synthesizes the partials of the full-band
    # analysis of zero grid values
    g = build_grid(n_theta, 2 * n_theta)
    short = g.synth_derivs(np.zeros(1))
    full = g.synth_derivs(g.analyze(np.zeros((g.n_theta, g.n_phi))))
    assert short.keys() == full.keys()
    for key in full:
        assert short[key].shape == full[key].shape
        assert np.array_equal(short[key], full[key])


@pytest.mark.parametrize("n_theta", [32, 128])
def test_stacked_transforms_match_single_calls(n_theta):
    g = build_grid(n_theta, 2 * n_theta)
    rng = np.random.default_rng(n_theta + 1)
    values = rng.standard_normal((3, g.n_theta, g.n_phi))
    coeffs = rng.standard_normal((3, n_coeffs(g.lmax)))

    def close(stacked, single):
        assert stacked.shape == (3,) + single[0].shape
        for got, want in zip(stacked, single):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    close(g.analyze(values), [g.analyze(v) for v in values])
    close(g.analyze(values, lmax=4), [g.analyze(v, lmax=4) for v in values])
    close(g.synthesize(coeffs), [g.synthesize(c) for c in coeffs])
    d = g.synth_derivs(coeffs)
    single = [g.synth_derivs(c) for c in coeffs]
    for key in FRAME_KEYS:
        close(d[key], [s[key] for s in single])


# The product route sums each frame component in another order than the FFT
# route (per-m theta profiles times the azimuth matrix, against per-m profiles
# through an inverse FFT), so the two agree to roundoff of the field's scale,
# amplified at the polar rows of the Hessian by the m^2 / sin^2(theta)
# cancellation.  Fixed before the first comparison: 256 ulps of each
# component's largest value on the grid.  h12 is exactly 0 at bands 0 and 1
# (on Y_1m, f_theta_phi = cot(theta) f_phi), where both routes leave roundoff
# alone, so there its bound is 256 ulps of the Hessian's largest component.
ROUTE_ULPS = 256


@pytest.mark.parametrize("n_theta", [16, 32, 64, 128])
def test_product_route_matches_fft_route(n_theta):
    # analytic-vs-oracle: random coefficients of every band up to the
    # product cut-off (or the grid band), as one vector and as a stack; all
    # six partials on every row, the polar rows included
    g = build_grid(n_theta, 2 * n_theta)
    rng = np.random.default_rng(n_theta)
    for band in range(min(_PRODUCT_BAND, g.lmax) + 1):
        for lead in ((), (3,)):
            coeffs = rng.standard_normal(lead + (n_coeffs(band),))
            product, fft = g._product_route(coeffs), g._fft_route(coeffs)
            assert list(product) == list(fft) == list(FRAME_KEYS)
            hessian = max(np.abs(fft[key]).max() for key in ("h11", "h12", "h22"))
            for key, want in fft.items():
                assert product[key].shape == want.shape == lead + (g.n_theta, g.n_phi)
                scale = hessian if key == "h12" and band <= 1 else np.abs(want).max()
                bound = ROUTE_ULPS * np.finfo(float).eps * scale
                assert np.abs(product[key] - want).max() <= bound, (band, lead, key)
            assert np.array_equal(g._product_route(coeffs, derivs=False)["f"], product["f"])
            assert np.array_equal(g.synthesize(coeffs), product["f"])


# Identities of the frame Hessian on the round unit sphere, for seeded
# nonzonal band-4 stacks through both synthesis routes.  Bochner: the integral
# of h11^2 + 2 h12^2 + h22^2 is sum c^2 (l^2 (l+1)^2 - l(l+1)), exact in the
# coefficients, and its integrand is a polynomial of degree 8 that every grid
# here integrates exactly.  Trace: h11 + h22 is the synthesis of -l(l+1) c.
# Bounds fixed before the first run: 1e-14 relative for Bochner, 64 ulps of
# the largest Hessian component for the trace; the cot(theta) sign of h22
# flipped must miss Bochner by more than 0.1.
@pytest.mark.parametrize("n_theta", [16, 32, 128])
def test_frame_hessian_identities(n_theta):
    g = build_grid(n_theta, 2 * n_theta)
    c = np.random.default_rng(n_theta).standard_normal((5, n_coeffs(4)))
    lam = _degrees(c.shape[-1]) * (_degrees(c.shape[-1]) + 1.0)
    exact = np.sum(c * c * (lam * lam - lam), axis=-1)
    lap = g.synthesize(-lam * c)
    cot = (g.x / g.sin_theta)[:, None]

    def bochner(d, h22):
        hess2 = d["h11"] ** 2 + 2.0 * d["h12"] ** 2 + h22**2
        return np.abs(np.sum(g.w_node * hess2, axis=(-2, -1)) / exact - 1.0).max()

    for d in (g._product_route(c), g._fft_route(c)):
        assert bochner(d, d["h22"]) <= 1e-14
        assert bochner(d, d["h22"] - 2.0 * cot * d["f1"]) > 0.1
        hess = max(np.abs(d[key]).max() for key in ("h11", "h12", "h22"))
        assert np.abs(d["h11"] + d["h22"] - lap).max() <= 64 * np.finfo(float).eps * hess


def test_routes_refuse_bad_vectors_alike():
    # the CLI prints these messages, so both routes and both public
    # transforms raise the same text: a length that is not (lmax + 1)^2, and a
    # band beyond the grid's below and above the product cut-off
    g = build_grid(16, 32)
    bad = [np.ones(0), np.ones(10), np.ones((2, 10)), np.ones(n_coeffs(16)), np.ones(n_coeffs(20))]
    for coeffs in bad:
        messages = set()
        for route in (g._product_route, g._fft_route, g.synthesize, g.synth_derivs):
            with pytest.raises(ValueError) as err:
                route(coeffs)
            messages.add(str(err.value))
        assert len(messages) == 1, messages


def test_stacked_shape_and_length_guards(grid):
    with pytest.raises(ValueError):
        grid.analyze(np.ones((3, 8, 8)))
    with pytest.raises(ValueError):
        grid.analyze(np.ones(grid.n_phi))
    for bad in (np.ones((3, 10)), np.ones((2, n_coeffs(grid.lmax + 1)))):
        with pytest.raises(ValueError):
            grid.synthesize(bad)
        with pytest.raises(ValueError):
            grid.synth_derivs(bad)


def test_cached_blocks_are_read_only(grid):
    blocks = _blocks(n_coeffs(4), grid.lmax)
    assert _blocks(n_coeffs(4), grid.lmax) is blocks
    for _, _, k, _ in blocks:
        with pytest.raises(ValueError):
            k[0, 0] = 0


def test_grids_of_one_n_theta_share_a_read_only_rule():
    a, b = build_grid(32, 64), build_grid(32, 128)
    assert all(ta is tb for ta, tb in zip(a.tables(), b.tables()))
    assert a.x is b.x and a.w_theta is b.w_theta
    for arr in (*a.tables(), a.x, a.w_theta):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_rule_holds_two_tables():
    # P and D of band n_theta - 1: n_theta (n_theta + 1) / 2 rows of n_theta nodes each
    tables = _theta_rule(32)[2]
    assert len(tables) == 2
    assert sum(t.nbytes for t in tables) == 8 * 32**2 * 33


def test_grid_ceiling_rejects_before_building(monkeypatch):
    before = _theta_rule.cache_info()

    def no_rule(n_theta):
        raise AssertionError(f"built the rule of n_theta = {n_theta}")

    monkeypatch.setattr(sphere, "_theta_rule", no_rule)  # a missed ceiling fails, never allocates
    with pytest.raises(ValueError, match=f"n_theta must be at most {MAX_N_THETA}"):
        build_grid(MAX_N_THETA + 1, 2 * (MAX_N_THETA + 1))
    monkeypatch.undo()
    assert _theta_rule.cache_info().currsize == before.currsize


# closed-form fields of order m = 1, 2, 3 (degrees 1, 2, 4) and their exact
# h11 = f_theta_theta; synth_derivs takes it from the trace identity
# h11 = Lap f - h22, where every m >= 1 term of h22 divides by sin^2(theta)
_H11_FIELDS = {
    "m1": (lambda t, p: np.sin(t) * np.cos(p), lambda t, p: -np.sin(t) * np.cos(p)),
    "m2": (
        lambda t, p: np.sin(t) ** 2 * np.sin(2 * p),
        lambda t, p: 2 * np.cos(2 * t) * np.sin(2 * p),
    ),
    "m3": (
        lambda t, p: np.sin(t) ** 3 * np.cos(t) * np.cos(3 * p),
        lambda t, p: (6 * np.sin(t) * np.cos(t) ** 3 - 10 * np.sin(t) ** 3 * np.cos(t))
        * np.cos(3 * p),
    ),
}


@pytest.mark.parametrize("n_theta", [32, 64, 128])
@pytest.mark.parametrize("name", list(_H11_FIELDS))
def test_h11_of_closed_form_fields_at_every_node(n_theta, name):
    fn, exact = _H11_FIELDS[name]
    g = build_grid(n_theta, 2 * n_theta)
    th, ph = g.theta[:, None], g.phi[None, :]
    h11 = g.synth_derivs(g.analyze(fn(th, ph), lmax=4))["h11"]
    want = exact(th, ph)
    assert np.abs(h11 - want).max() <= n_theta**2 * np.spacing(np.abs(want).max())


def test_import_builds_no_rule():
    # the rule is built on first use; importing the CLI builds none
    code = "import chmass.cli, chmass.sphere as s; print(s._theta_rule.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
