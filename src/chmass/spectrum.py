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


def _gram(factors, col, g: np.ndarray, a: str, b: str) -> np.ndarray:
    """Quadrature form sum over nodes of g B_i B'_j, for basis components a
    and b ("f", or the frame gradients "1" and "2") of
    ``SphereGrid._separable_basis``.

    Separable: g against the (2 lmax + 1)^2 azimuthal products per theta row,
    a's theta profiles multiplied in, then one contraction over theta with b's.
    The azimuthal sums are one matrix-vector product per theta row, whose
    order, unlike that of one matrix product over all rows, does not follow
    BLAS's split of the work between threads.
    """
    (th_a, az_a), (th_b, az_b) = factors[a], factors[b]
    m, n = len(az_a), len(col)
    azz = (az_a[:, None, :] * az_b).reshape(m * m, -1)
    C = np.matmul(azz, g[:, :, None]).reshape(-1, m, m)  # (theta, p, q)
    T = th_b @ (C[:, col] * th_a.T[:, :, None]).reshape(len(g), n * m)  # (j, (i, q))
    return T.reshape(n, n, m)[np.arange(n), :, col].T  # (i, j) at q = col[j]


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
    factors, col = geom.grid._separable_basis(lmax)
    w = geom.grid.w_node * geom.area_element
    # grad-grad part with the induced inverse metric, both in the sphere's frame
    cross = _gram(factors, col, w * geom.ginv_12, "1", "2")
    stiff = _gram(factors, col, w * geom.ginv_11, "1", "1") + cross + cross.T
    stiff += _gram(factors, col, w * geom.ginv_22, "2", "2")
    pot = _gram(factors, col, w * potential, "f", "f")
    return stiff - pot, _gram(factors, col, w, "f", "f")


def lambda1_discrete(surface, lmax: int = 8) -> float:
    """Discrete first Jacobi eigenvalue of a graph surface.

    Minimizes the Rayleigh quotient over spherical harmonics up to ``lmax``,
    with the potential Ric(nu, nu) + |A|^2 evaluated pointwise from the
    ambient closed forms.  Enlarging the trial space can only lower the
    result (variational bound from above).

    The geometry is the surface's cached ``induced_geometry`` (shared with
    ``charge``, ``area`` and ``charged_hawking_mass``).  Each basis function is
    a theta profile times one of 2 lmax + 1 azimuthal functions, so ``_gram``
    sums the weight against azimuthal products per theta row and contracts
    over theta; neither the dense basis nor any node-by-index array is built.
    """
    from .surfaces import induced_geometry  # graph surfaces only: sweeps never load it
    geom = induced_geometry(surface)
    Kmat, Mmat = _rayleigh_pencil(geom, lmax, geom.ric_nn + geom.a_norm2)
    return float(_pencil_eigvalsh(Kmat, Mmat)[0])


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"the number of eigenvalues k must be at least 1, got {k}")


def laplace_spectrum(a: float, k: int) -> list[float]:
    """First k Laplace eigenvalues of the radius-a round sphere.

    Closed form: l(l+1)/a^2 with multiplicity 2l+1.  The spectral gap
    2/a^2 equals 8 pi / |Sigma| with |Sigma| = 4 pi a^2.
    """
    if a <= 0.0:
        raise ValueError("laplace_spectrum requires a > 0")
    _check_k(k)
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
    harmonic basis and the generalized eigenproblem is solved densely
    (Cholesky reduction, ``_pencil_eigvalsh``).
    """
    _check_k(k)
    factors, col = grid._separable_basis(lmax)
    if k > col.size:
        raise ValueError(f"requested {k} eigenvalues from a basis of size {col.size}")
    w = grid.w_node
    # |grad Y|^2 on radius-a sphere integrates a-independently; mass scales a^2
    stiff = _gram(factors, col, w, "1", "1") + _gram(factors, col, w, "2", "2")
    mass = (a**2) * _gram(factors, col, w, "f", "f")
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
