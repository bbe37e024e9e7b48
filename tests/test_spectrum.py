import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import chmass
from chmass.profile import integrate_profile
from chmass.sphere import ScalarField, build_grid, coeff_index, random_c2_field
from chmass import spectrum
from chmass.spectrum import (
    _rayleigh_pencil,
    lambda1_analytic,
    lambda1_discrete,
    laplace_spectrum,
    laplace_spectrum_discrete,
    eigenvalue_area_charge_residual,
    stability_window,
)
from chmass.surfaces import GraphSurface, induced_geometry


@pytest.fixture(scope="module")
def prof():
    return integrate_profile(0.5, 0.3, 1.0, s_max=1.5, tol=1e-10)


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


def neck_surface(prof, grid):
    return GraphSurface(prof, 0.0, ScalarField(grid, np.zeros((32, 64))))


class TestAnalytic:
    def test_values(self):
        assert lambda1_analytic(0.5, 0.3) == pytest.approx(1.56, abs=1e-14)
        assert lambda1_analytic(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert lambda1_analytic(math.sqrt(0.9), 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_equals_twice_neck_acceleration_over_radius(self, prof):
        # independent route: lambda1 = 2 u''(0) / a
        assert lambda1_analytic(0.5, 0.3) == pytest.approx(2 * prof.ddu(0.0) / 0.5, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda1_analytic(0.0, 0.3)

    @pytest.mark.parametrize("a", [[0.5, 0.0, 0.7], [[0.5, 0.6], [0.4, -0.1]]])
    def test_domain_on_arrays(self, a):
        # one a <= 0 anywhere in the array is enough
        with pytest.raises(ValueError, match="requires a > 0"):
            lambda1_analytic(np.array(a), 0.3)

    def test_arrays_broadcast(self):
        a = np.array([0.5, 0.7, 0.9])[:, None]
        q = np.array([0.0, 0.3])
        lam = lambda1_analytic(a, q)
        assert lam.shape == (3, 2)
        # numpy's array power and libm's pow may differ in the last bit
        expected = [[lambda1_analytic(float(x), float(y)) for y in q] for x in a[:, 0]]
        np.testing.assert_allclose(lam, expected, rtol=0, atol=4e-16)


class TestWindow:
    def test_frozen(self):
        lo, hi = stability_window(0.3)
        assert abs(lo - 0.1) <= 1e-15
        assert abs(hi - 0.9) <= 1e-15

    def test_uncharged(self):
        assert stability_window(0.0) == (0.0, 1.0)

    def test_degenerate_point(self):
        lo, hi = stability_window(0.5)
        assert lo == hi == pytest.approx(0.5, abs=1e-15)

    def test_empty(self):
        assert stability_window(0.6) is None

    def test_equivalence_with_lambda1_sign(self):
        # lambda1 > 0 iff a^2 strictly inside the window, on a dense grid
        a2 = np.linspace(0.01, 1.2, 100)
        for q in np.sqrt(np.linspace(0.0, 0.25, 100)):
            w = stability_window(q)
            lam1 = -1.0 + 1.0 / a2 - q**2 / a2**2
            inside = (a2 > w[0] + 1e-12) & (a2 < w[1] - 1e-12)
            assert np.all((lam1 > 0) == inside)

    def test_neck_area_below_eight_pi(self):
        for q in np.sqrt(np.linspace(0.0, 0.24, 20)):
            lo, hi = stability_window(q)
            for a2 in np.linspace(lo + 1e-6, hi - 1e-6, 20):
                assert 4 * math.pi * a2 < 8 * math.pi


class TestDiscrete:
    def test_neck_slice(self, prof, grid):
        val = lambda1_discrete(neck_surface(prof, grid))
        assert val == pytest.approx(1.56, abs=2e-3)

    def test_marginal_cylinder(self, grid):
        prof1 = integrate_profile(1.0, 0.0, 1.0, s_max=1.0)
        val = lambda1_discrete(neck_surface(prof1, grid))
        assert val == pytest.approx(0.0, abs=2e-3)

    def test_minimizer_is_constant_on_slices(self, prof, grid):
        geom = induced_geometry(neck_surface(prof, grid))
        K, M = _rayleigh_pencil(geom, 6, geom.ric_nn + geom.a_norm2)
        vals, vecs = scipy.linalg.eigh(K, M)
        v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        nonconst = np.linalg.norm(np.delete(v, coeff_index(0, 0)))
        assert nonconst <= 1e-6

    def test_rayleigh_monotonicity(self, prof, grid):
        fld = random_c2_field(grid, 4, 4, 0.05)
        surf = GraphSurface(prof, 0.1, fld)
        vals = [lambda1_discrete(surf, lmax=l) for l in (2, 4, 6)]
        assert vals[0] >= vals[1] - 1e-12
        assert vals[1] >= vals[2] - 1e-12

    def test_stability_inequality_random_fields(self, prof, grid):
        # J(phi) >= lambda1 int phi^2 for trial fields in the basis span
        surf = neck_surface(prof, grid)
        geom = induced_geometry(surf)
        lam1 = lambda1_discrete(surf, lmax=6)
        pot = geom.ric_nn + geom.a_norm2
        for seed in range(50):
            fld = random_c2_field(grid, 1000 + seed, 4, 1.0)
            d = grid.synth_derivs(grid.analyze(fld.values))
            j = geom.integral(geom.grad_inner(d, d)) - geom.integral(pot * d["f"] ** 2)
            residual = j - lam1 * geom.integral(d["f"] ** 2)
            assert residual >= -1e-9


class TestLaplaceSpectrum:
    def test_unit_sphere_multiplicities(self):
        assert laplace_spectrum(1.0, 5) == [0.0, 2.0, 2.0, 2.0, 6.0]

    def test_gap_identity(self):
        # spectral gap 2/a^2 equals 8 pi / |Sigma|
        for a in (0.5, 0.8, 1.3):
            gap = laplace_spectrum(a, 2)[1]
            assert gap == pytest.approx(8 * math.pi / (4 * math.pi * a**2), abs=1e-13)

    def test_discrete_oracle(self, grid):
        vals = laplace_spectrum_discrete(grid, 0.5, 9)
        assert abs(vals[0]) <= 1e-10
        assert vals[1] == pytest.approx(8.0, rel=1e-3)
        np.testing.assert_allclose(vals[1:4], 8.0, rtol=1e-8)
        np.testing.assert_allclose(vals[4:9], 24.0, rtol=1e-8)


class TestProp41:
    def test_example_values(self):
        assert abs(eigenvalue_area_charge_residual(0.5, 0.3)) <= 1e-13
        assert abs(eigenvalue_area_charge_residual(0.7, 0.0)) <= 1e-13

    def test_grid_sweep(self):
        worst = 0.0
        for a2 in np.linspace(0.05, 0.95, 100):
            for q2 in np.linspace(0.0, 0.25, 100):
                worst = max(worst, abs(eigenvalue_area_charge_residual(math.sqrt(a2), math.sqrt(q2))))
        assert worst <= 1e-12


def _dense_pencil(geom, lmax, potential):
    """Reference Jacobi pencil assembled from the dense basis_with_gradients."""
    Y, Y1, Y2 = (b.reshape(b.shape[0], -1) for b in geom.grid.basis_with_gradients(lmax))
    w = (geom.grid.w_node * geom.area_element).ravel()

    def form(a, g, b):
        return a @ (g.ravel()[:, None] * b.T)

    stiff = (form(Y1, w * geom.ginv_11.ravel(), Y1) + form(Y1, w * geom.ginv_12.ravel(), Y2)
             + form(Y2, w * geom.ginv_12.ravel(), Y1) + form(Y2, w * geom.ginv_22.ravel(), Y2))
    return stiff - form(Y, w * potential.ravel(), Y), form(Y, w, Y)


# on 16 x 32 at lmax 9, 12 and 15 the azimuthal products reach frequency
# 2 lmax = 18 to 30, above n_phi / 2 = 16, where the Gram forms read the
# weights' real FFT folded
@pytest.mark.parametrize("lmax, n_theta", [
    (6, 32), (6, 128), (8, 32), (8, 128), (9, 16), (12, 16), (15, 16),
])
def test_separable_pencil_matches_dense_basis(prof, n_theta, lmax):
    # a graph with phi-dependent metric and potential, so no azimuthal
    # product vanishes by symmetry
    grid = build_grid(n_theta, 2 * n_theta)
    geom = induced_geometry(GraphSurface(prof, 0.1, random_c2_field(grid, 11, 4, 0.05)))
    potential = geom.ric_nn + geom.a_norm2
    for sep, dense in zip(_rayleigh_pencil(geom, lmax, potential),
                          _dense_pencil(geom, lmax, potential)):
        assert np.abs(sep - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("n_theta", [16, 32, 64, 128])
def test_laplace_spectrum_discrete_matches_closed_form(n_theta):
    # the first 25 eigenvalues (l <= 4) of the default band-8 pencil against
    # l(l+1)/a^2, relative to the gap 2/a^2 for the zero eigenvalue
    grid = build_grid(n_theta, 2 * n_theta)
    worst = 0.0
    for a in (0.3, 0.5, 0.9):
        exact = np.array(laplace_spectrum(a, 25))
        got = np.array(laplace_spectrum_discrete(grid, a, 25))
        worst = max(worst, (np.abs(got - exact) / np.maximum(exact, exact[1])).max())
    assert worst <= 3e-14


def test_jacobi_pencil_traced_peak():
    # the pencil at band 8 on a perturbed 128 x 256 graph holds no array of
    # the nodes times a basis index: its tracemalloc peak stays below 3 MB.
    # It is 2.6 MB, the five stacked weights and their real FFT (2.1 MB
    # while each form summed its own weight against the azimuthal products,
    # 4.1 MB while each Gram matrix contracted all orders in one product,
    # 8.0 MB while it gathered its azimuthal sums per theta row)
    import tracemalloc

    prof = integrate_profile(0.5, 0.3, 1.0, s_max=1.0)
    grid = build_grid(128, 256)
    geom = induced_geometry(GraphSurface(prof, 0.0, random_c2_field(grid, 7919, 4, 0.05)))
    potential = geom.ric_nn + geom.a_norm2
    tracemalloc.start()
    try:
        _rayleigh_pencil(geom, 8, potential)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_gram_forms_do_not_depend_on_the_blas_thread_count():
    # the band-8 and band-12 Gram forms of a nonzonal weight on 32 x 64,
    # 64 x 128 and 128 x 256, from its real FFT's azimuthal sums, are the
    # same bytes at 1 and 2 BLAS threads (one matrix product over all theta
    # rows, in place of a matrix-vector product per row, differed at band 8;
    # one contraction over theta of all azimuthal orders at once differs at
    # band 12)
    code = """if True:
        import hashlib, numpy as np
        from chmass.sphere import _separable_factors, build_grid
        from chmass.spectrum import _azimuthal_sums, _gram
        digest = hashlib.sha256()
        for n in (32, 64, 128):
            g = build_grid(n, 2 * n)
            th, ph = g.theta[:, None], g.phi
            w = g.w_node * (1.0 + 0.3 * np.cos(th) * np.sin(3.0 * ph) + 0.1 * np.cos(ph))
            for lmax in (8, 12):
                factors, col = _separable_factors(n, lmax)
                sums = _azimuthal_sums(np.fft.rfft(w, axis=-1), g.n_phi, lmax)
                for a, b in (("f", "f"), ("f1", "f1"), ("f1", "f2"), ("f2", "f2")):
                    digest.update(_gram(factors, col, sums, a, b).tobytes())
        print(digest.hexdigest())
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmass.__file__)))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_laplace_spectrum_discrete_basis_guard(grid):
    with pytest.raises(ValueError):
        laplace_spectrum_discrete(grid, 0.5, 200, lmax=4)


@pytest.mark.parametrize("lmax", [-1, 2.5])
def test_basis_band_must_be_a_nonnegative_integer(prof, grid, lmax):
    # lmax -1 failed in a reshape and 2.5 with an IndexError
    surf = GraphSurface(prof, 0.1, random_c2_field(grid, 4, 4, 0.05))
    for call in (lambda: grid.basis_with_gradients(lmax), lambda: lambda1_discrete(surf, lmax=lmax),
                 lambda: laplace_spectrum_discrete(grid, 0.5, 1, lmax=lmax)):
        with pytest.raises(ValueError, match="lmax must be an integer >= 0"):
            call()


@pytest.mark.parametrize("k", [0, -2])
def test_eigenvalue_count_must_be_positive(grid, k):
    with pytest.raises(ValueError, match="at least 1"):
        laplace_spectrum(0.5, k)
    with pytest.raises(ValueError, match="at least 1"):
        laplace_spectrum_discrete(grid, 0.5, k)


def _record_pencils(monkeypatch):
    """Record every (stiff, mass) pencil handed to the Cholesky eigensolver."""
    pencils = []
    solve = spectrum._pencil_eigvalsh

    def spy(stiff, mass):
        pencils.append((stiff, mass))
        return solve(stiff, mass)

    monkeypatch.setattr(spectrum, "_pencil_eigvalsh", spy)
    return pencils


@pytest.mark.parametrize("lmax", [4, 8])
def test_lambda1_discrete_matches_scipy_eigh(prof, grid, monkeypatch, lmax):
    pencils = _record_pencils(monkeypatch)
    surf = GraphSurface(prof, 0.1, random_c2_field(grid, 4, 4, 0.05))
    val = lambda1_discrete(surf, lmax=lmax)
    (stiff, mass), = pencils
    ref = scipy.linalg.eigh(stiff, mass, eigvals_only=True)
    assert val == pytest.approx(ref[0], rel=1e-12)
    np.testing.assert_allclose(spectrum._pencil_eigvalsh(stiff, mass), ref,
                               rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_laplace_spectrum_discrete_matches_scipy_eigh(grid, monkeypatch):
    pencils = _record_pencils(monkeypatch)
    vals = laplace_spectrum_discrete(grid, 0.7, 25, lmax=6)
    (stiff, mass), = pencils
    ref = scipy.linalg.eigh(stiff, mass, eigvals_only=True)
    np.testing.assert_allclose(vals, ref[:25], rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("a", [0.0, -0.5])
def test_laplace_spectrum_needs_positive_radius(a):
    with pytest.raises(ValueError, match="laplace_spectrum requires a > 0"):
        laplace_spectrum(a, 3)
