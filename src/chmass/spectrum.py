"""Jacobi-operator spectra and the strict-stability window (Lambda = 1).

The Jacobi operator of a surface is L = Laplace + Ric(nu, nu) + |A|^2; its
first eigenvalue is taken in the quadratic-form convention

    lambda_1 = inf_phi [ int |grad phi|^2 - (Ric(nu,nu) + |A|^2) phi^2 ] / int phi^2,

so strict stability means lambda_1 > 0.  On a minimal slice of neck radius a
the potential is constant and lambda_1 = -1 + 1/a^2 - Q^2/a^4 in closed form;
the discrete path minimizes the same Rayleigh quotient over a spherical
harmonic trial space and must reproduce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralReport",
    "lambda1_analytic",
    "stability_window",
    "lambda1_discrete",
    "laplace_spectrum",
    "laplace_spectrum_discrete",
    "eigenvalue_area_charge_residual",
    "spectral_report",
]


@dataclass
class SpectralReport:
    """Spectral diagnostics of one neck (a, Q)."""

    lambda1_analytic: float
    lambda1_discrete: float
    laplace_eigenvalues: list[float]
    window: tuple[float, float] | None
    identity_residual: float


def lambda1_analytic(a, q):
    """First Jacobi eigenvalue of the minimal slice: -1 + 1/a^2 - Q^2/a^4.

    Constant-potential operator, so the minimizer is the constant function
    and lambda_1 = -Ric(nu, nu).  Lambda = 1 normalization.  ``a`` and ``q``
    may be arrays (numpy broadcasting); scalars give a float.
    """
    if np.any(np.asarray(a) <= 0.0):
        raise ValueError("lambda1_analytic requires a > 0")
    return -1.0 + 1.0 / a**2 - q**2 / a**4


def stability_window(q: float) -> tuple[float, float] | None:
    """Range of a^2 with strictly stable necks (Lambda = 1).

    Returns ((1 - sqrt(1 - 4 Q^2))/2, (1 + sqrt(1 - 4 Q^2))/2), collapsing to
    a point at Q^2 = 1/4 and ``None`` (empty) for Q^2 > 1/4.  Equivalent
    characterization: lambda1_analytic(a, Q) > 0 iff a^4 - a^2 + Q^2 < 0.
    """
    disc = 1.0 - 4.0 * q**2
    if disc < 0.0:
        return None
    d = math.sqrt(disc)
    return (1.0 - d) / 2.0, (1.0 + d) / 2.0


def _azimuthal_sums(G: np.ndarray, n_phi: int, lmax: int) -> np.ndarray:
    """The sums over phi of weights against cos(k phi) and sin(k phi),
    k = 0..2 lmax, from their real FFT G (..., n_theta, n_phi // 2 + 1):
    (..., n_theta, 2 (2 lmax + 1)), the cosine sums first.

    The cosine sum is Re G_k and the sine sum -Im G_k.  A k above n_phi / 2
    reads bin n_phi - k, of which G_k is the conjugate.
    """
    k = np.arange(2 * lmax + 1)
    folded = k > n_phi // 2
    G = G[..., np.where(folded, n_phi - k, k)]
    return np.concatenate([G.real, np.where(folded, G.imag, -G.imag)], axis=-1)


def _gram(factors, col, sums: np.ndarray, a: str, b: str) -> np.ndarray:
    """Quadrature form sum over nodes of g B_i B'_j, for basis components a
    and b ("f", or the frame gradients "f1" and "f2") of
    ``sphere._separable_factors``, from the ``_azimuthal_sums`` of g.

    Separable: each azimuthal function (``sphere._azimuths``, by its name in
    the factors) is amp cos(k phi) or amp sin(k phi), so by product to sum
    its sum against g times another, per theta row, is amp amp' / 2 times
    two signed entries of g's sums, at |k - k'| and k + k' (cosine sums for
    two cosines or two sines, else sine sums).  Then one contraction over
    theta per azimuthal order of a, with b's profiles times their products
    with that order.  The azimuthal products are gathered, not summed, and
    each contraction is one matrix product, so the form does not follow
    BLAS's split of the work between threads.
    """
    from .sphere import _azimuths  # sweeps load spectrum, never sphere
    closed = _azimuths(math.isqrt(col.size) - 1)
    (th_a, name_a), (th_b, name_b) = factors[a], factors[b]
    (amp_a, sin_a), (amp_b, sin_b) = closed[name_a], closed[name_b]
    m = amp_a.size
    k = np.abs(np.arange(m) - m // 2)
    diff = k[:, None] - k
    odd = sin_a[:, None] != sin_b  # a sine times a cosine: the sine sums, from entry m
    half = 0.5 * amp_a[:, None] * amp_b
    # sin a cos b = (sin(a + b) + sin(a - b))/2, cos a sin b = (sin(a + b) - sin(a - b))/2,
    # cos a cos b and sin a sin b = (cos(a - b) +- cos(a + b))/2
    at_diff = half * np.where(odd, np.where(sin_a[:, None], 1.0, -1.0) * np.sign(diff), 1.0)
    at_sum = half * np.where(sin_a[:, None] & sin_b, -1.0, 1.0)
    C = (sums[:, np.abs(diff) + m * odd] * at_diff
         + sums[:, k[:, None] + k + m * odd] * at_sum)  # (theta, p, q)
    out = np.empty((len(col), len(col)))
    for p in range(m):
        rows = np.flatnonzero(col == p)
        out[rows] = th_a[rows] @ (C[:, p, col] * th_b.T)
    return out


def _pencil_eigvalsh(stiff: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric pencil stiff x = lambda mass x.

    With the Cholesky factor mass = L L^T the pencil has the eigenvalues of
    the symmetric matrix L^-1 stiff L^-T.
    """
    lower = np.linalg.cholesky(mass)
    half = np.linalg.solve(lower, stiff)  # L^-1 stiff
    return np.linalg.eigvalsh(np.linalg.solve(lower, half.T))


def _rayleigh_pencil(geom, lmax: int, potential: np.ndarray):
    """Stiffness/mass matrices of the Jacobi form in the harmonic basis."""
    from .sphere import _separable_factors
    grid = geom.grid
    grid._check_band(lmax)
    # the five weights through one FFT: the grad-grad part with the induced
    # inverse metric, both in the sphere's frame, the potential and the mass
    # w.  They and their transform are the pencil's peak, so each is freed as
    # soon as it is read, and the basis is built after them.
    g = np.empty((5,) + potential.shape)
    np.multiply(grid.w_node, geom.area_element, out=g[4])
    for i, v in enumerate((geom.ginv_12, geom.ginv_11, geom.ginv_22, potential)):
        np.multiply(g[4], v, out=g[i])
    G = np.fft.rfft(g, axis=-1)
    del g
    s12, s11, s22, spot, smass = _azimuthal_sums(G, grid.n_phi, lmax)
    del G
    factors, col = _separable_factors(grid.n_theta, lmax)
    cross = _gram(factors, col, s12, "f1", "f2")
    stiff = _gram(factors, col, s11, "f1", "f1") + cross + cross.T
    stiff += _gram(factors, col, s22, "f2", "f2")
    return stiff - _gram(factors, col, spot, "f", "f"), _gram(factors, col, smass, "f", "f")


def lambda1_discrete(surface, lmax: int = 8) -> float:
    """Discrete first Jacobi eigenvalue of a graph surface.

    Minimizes the Rayleigh quotient over spherical harmonics up to ``lmax``,
    with the potential Ric(nu, nu) + |A|^2 evaluated pointwise from the
    ambient closed forms.  Enlarging the trial space can only lower the
    result (variational bound from above).

    The geometry is the surface's cached ``induced_geometry`` (shared with
    ``charge``, ``area`` and ``charged_hawking_mass``).  Each basis function is
    a theta profile times one of 2 lmax + 1 azimuthal functions c cos(k phi)
    or c sin(k phi) (``sphere._separable_factors``, built per call), so the
    five weights of the pencil go through one real FFT over phi, ``_gram``
    reads each product's sum per theta row from two of its entries, and
    contracts over theta one azimuthal order at a time; neither the dense
    basis nor any node-by-index array is built.  An lmax that is not an
    integer from 0 to the grid band raises ValueError.
    """
    from .surfaces import induced_geometry  # graph surfaces only: sweeps never load it
    geom = induced_geometry(surface)
    Kmat, Mmat = _rayleigh_pencil(geom, lmax, geom.ric_nn + geom.a_norm2)
    return float(_pencil_eigvalsh(Kmat, Mmat)[0])


def _check_request(a: float, k: int) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"laplace_spectrum requires a > 0 and finite, got a = {a}")
    if k < 1:
        raise ValueError(f"the number of eigenvalues k must be at least 1, got {k}")


def laplace_spectrum(a: float, k: int) -> list[float]:
    """First k Laplace eigenvalues of the radius-a round sphere.

    Closed form: l(l+1)/a^2 with multiplicity 2l+1.  The spectral gap
    2/a^2 equals 8 pi / |Sigma| with |Sigma| = 4 pi a^2.
    """
    _check_request(a, k)
    out: list[float] = []
    l = 0
    while len(out) < k:
        out.extend([l * (l + 1.0) / a**2] * (2 * l + 1))
        l += 1
    return out[:k]


def laplace_spectrum_discrete(
    grid, a: float, k: int, lmax: int = 8
) -> list[float]:
    """Quadrature-assembled Laplace eigenvalues on the radius-a sphere.

    Discrete oracle for :func:`laplace_spectrum`: Gram matrices of the
    Dirichlet form and the L^2 pairing are built by quadrature in the
    harmonic basis, from one real FFT of the node weights (``_gram``), and
    the generalized eigenproblem is solved densely (Cholesky reduction,
    ``_pencil_eigvalsh``).
    """
    from .sphere import _separable_factors
    _check_request(a, k)
    grid._check_band(lmax)
    factors, col = _separable_factors(grid.n_theta, lmax)
    if k > col.size:
        raise ValueError(f"requested {k} eigenvalues from a basis of size {col.size}")
    sums = _azimuthal_sums(np.fft.rfft(grid.w_node, axis=-1), grid.n_phi, lmax)
    # |grad Y|^2 on radius-a sphere integrates a-independently; mass scales a^2
    stiff = _gram(factors, col, sums, "f1", "f1") + _gram(factors, col, sums, "f2", "f2")
    mass = (a**2) * _gram(factors, col, sums, "f", "f")
    return [float(v) for v in _pencil_eigvalsh(stiff, mass)[:k]]


def eigenvalue_area_charge_residual(a, q):
    """Residual of (lambda_1 + 1)|Sigma| + 16 pi^2 Q^2/|Sigma| - 4 pi.

    Algebraically zero for every (a, Q) at Lambda = 1; the returned value
    measures floating-point cancellation only.  Broadcasts like
    ``lambda1_analytic``.
    """
    lam1 = lambda1_analytic(a, q)
    sigma = 4.0 * math.pi * a**2
    return (lam1 + 1.0) * sigma + 16.0 * math.pi**2 * q**2 / sigma - 4.0 * math.pi


def spectral_report(a: float, q: float, n_theta: int = 32, k: int = 9) -> SpectralReport:
    """Assemble the full spectral diagnostic package for one neck."""
    from .profile import integrate_profile
    from .sphere import ScalarField, build_grid
    from .surfaces import GraphSurface
    grid = build_grid(n_theta, 2 * n_theta)
    prof = integrate_profile(a, q, 1.0, s_max=1.0)
    surf = GraphSurface(prof, 0.0, ScalarField.from_coeffs(grid, np.zeros(1)))
    return SpectralReport(
        lambda1_analytic=lambda1_analytic(a, q),
        lambda1_discrete=lambda1_discrete(surf),
        laplace_eigenvalues=laplace_spectrum_discrete(grid, a, k),
        window=stability_window(q),
        identity_residual=eigenvalue_area_charge_residual(a, q),
    )
