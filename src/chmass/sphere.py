"""Quadrature, harmonic transforms and test fields on the unit two-sphere.

The grid tensors Gauss-Legendre nodes in x = cos(theta) with a uniform,
endpoint-free azimuthal grid, so there are no nodes at the poles and the
quadrature integrates band-limited integrands exactly.  All differential
operators are spectral: fields are analyzed into real orthonormal spherical
harmonics and derivatives are synthesized from precomputed Legendre tables
(values and first derivatives), which keeps every operation pole-free.

Real harmonic conventions: Y_{l,0} = Pbar_{l,0}(x), and for m > 0
Y_{l,+m} = sqrt(2) Pbar_{l,m}(x) cos(m phi), Y_{l,-m} = sqrt(2) Pbar_{l,m}(x)
sin(m phi), with Pbar normalized so the Y are orthonormal in L^2(S^2).
Coefficient vectors are flat with index l^2 + l + m.

``synth_derivs`` returns the gradient and covariant Hessian in the round
metric's orthonormal frame (e_theta, e_phi / sin theta).  Each synthesis route
converts to it once, so the package's sin theta and cot theta factors live
here alone; ``evaluate_at`` keeps coordinate partials.

Synthesis takes one of two routes, chosen by the band L of the coefficients.
At L <= ``_PRODUCT_BAND`` (16) every real harmonic and frame derivative is a
theta profile times one of 2L + 1 azimuthal functions
(``_separable_factors``), so a synthesis is two small products: coefficients
into per-m theta profiles, then those profiles times the (2L + 1) x n_phi
azimuth matrix, with no FFT.  Above that band, and for every analysis,
transforms loop over m alone with one FFT in phi (per-m blocks, Schaeffer
2013, arXiv:1202.6522).  The Legendre tables
of band L are m-major and packed: block m holds rows l = m..L from row
m(L+1) - m(m-1)/2, and ``_blocks`` maps it to the flat indices l^2+l+m
(cos m phi part) and l^2+l-m (sin m phi part).

``analyze``, ``synthesize`` and ``synth_derivs`` take optional leading axes:
grid values (..., n_theta, n_phi) <-> coefficients (..., n_coeffs).  A stack
of fields is transformed together, as extra rows or columns of each matrix
product.

A ``ScalarField`` carries its coefficients, which every operator reads.  Grid
values from outside are analyzed once, on input; heights born as coefficients
(``ScalarField.from_coeffs``, seeded draws) are never analyzed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

__all__ = [
    "SphereGrid",
    "ScalarField",
    "build_grid",
    "integrate",
    "laplace_beltrami",
    "c2_norm",
    "random_c2_field",
    "coeff_index",
    "n_coeffs",
    "scalar_field_to_dict",
    "scalar_field_from_dict",
]


def coeff_index(l: int, m: int) -> int:
    """Flat index of the (l, m) real-harmonic coefficient."""
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    return l * l + l + m


def n_coeffs(lmax: int) -> int:
    return (lmax + 1) ** 2


def _degrees(n: int) -> np.ndarray:
    """Degree l, as a float, of each flat coefficient index k = l^2 + l + m below n."""
    return np.floor(np.sqrt(np.arange(n)))


def _block_start(m, L: int):
    """First row (l = m) of block m in an m-major table of band L."""
    return m * (L + 1) - m * (m - 1) // 2


@functools.lru_cache(maxsize=64)
def _blocks(n: int, L: int | None = None):
    """Per-m blocks (m, rows, k, nrm) of a flat coefficient vector of length n.

    ``rows`` slices rows l = m..lmax of block m of a table of band L (default
    lmax); ``k`` holds their flat indices, cos part l^2+l+m and, for m > 0,
    sin part l^2+l-m; ``nrm`` is the real-harmonic factor (sqrt(2) for m > 0).

    The result is cached on (n, L) and shared by every caller, so it is a
    tuple and each ``k`` is read-only.
    """
    lmax = math.isqrt(n) - 1
    if n < 1 or (lmax + 1) ** 2 != n:
        raise ValueError(f"coefficient vector of length {n} is not (lmax + 1)^2")
    L = lmax if L is None else L
    if lmax > L:
        raise ValueError(f"coefficient band lmax = {lmax} beyond grid band {L}")
    blocks = []
    for m in range(lmax + 1):
        start = _block_start(m, L)
        l = np.arange(m, lmax + 1)
        k = np.stack([l * l + l + m, l * l + l - m])[: 2 if m else 1]
        k.flags.writeable = False
        blocks.append((m, slice(start, start + lmax + 1 - m), k, math.sqrt(2.0) if m else 1.0))
    return tuple(blocks)


def _legendre_tables(lmax: int, x: np.ndarray):
    """Normalized associated Legendre functions Pbar_{l,m}(x) and their first
    x-derivatives, for 0 <= m <= l <= lmax.

    Returns two arrays of shape ((lmax+1)(lmax+2)/2, len(x)) in m-major
    order: block m holds rows l = m..lmax, starting at _block_start(m, lmax).
    Normalization: int_{-1}^{1} Pbar_{l,m}^2 dx = 1/(2 pi); no Condon-Shortley
    phase.  Valid for |x| < 1 (interior nodes only).
    """
    x = np.asarray(x, dtype=float)
    s2 = 1.0 - x * x  # sin^2(theta), strictly positive at interior nodes
    m = np.arange(lmax + 1)
    off = _block_start(m, lmax)
    P = np.zeros((off[-1] + 1, x.size))
    D = np.zeros_like(P)

    # diagonal seeds Pbar_{m,m} = c_m (1-x^2)^{m/2} and their x-derivatives
    c = np.sqrt((2.0 * m[1:] + 1.0) / (2.0 * m[1:]))[:, None]
    P0 = np.full((1, x.size), 1.0 / math.sqrt(4.0 * math.pi))
    P[off] = np.cumprod(np.vstack([P0, c * np.sqrt(s2)]), axis=0)
    mc = m[:, None]
    D[off] = -mc * x * P[off] / s2
    # step k = l - m for every block at once: first the l = m + 1 rows, then
    # the three-term recurrence in l
    i, d = off[:-1], np.sqrt(2.0 * m[:-1] + 3.0)[:, None]
    P[i + 1] = d * x * P[i]
    D[i + 1] = d * (P[i] + x * D[i])
    for k in range(2, lmax + 1):
        mk = m[: lmax + 1 - k]
        l = mk + k
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - mk * mk))[:, None]
        b = -np.sqrt((2.0 * l + 1.0) / (2.0 * l - 3.0)
                     * ((l - 1.0) ** 2 - mk * mk) / (l * l - mk * mk))[:, None]
        i = off[: lmax + 1 - k] + k
        P[i] = a * x * P[i - 1] + b * P[i - 2]
        D[i] = a * (P[i - 1] + x * D[i - 1]) + b * D[i - 2]
    return P, D


def _per_m_profiles(coeffs: np.ndarray, table: np.ndarray, blocks):
    """Zonal profiles (A_m, B_m)(x), m = 0..lmax, of sum c_{lm} T_{lm}(x) trig(m phi).

    ``coeffs`` has shape (..., n_coeffs); returns one array of shape
    (2, lmax + 1, ..., len(x)), with B_0 zero.
    """
    lead = coeffs.shape[:-1]
    coeffs = coeffs.reshape(-1, coeffs.shape[-1])
    AB = np.zeros((2, len(blocks), coeffs.shape[0], table.shape[1]))
    for m, rows, k, nrm in blocks:
        c = coeffs[:, k]  # (field, cos/sin part, l): one row per (field, part)
        prof = (c.reshape(-1, k.shape[1]) @ table[rows]).reshape(c.shape[:2] + (-1,))
        AB[: len(k), m] = nrm * prof.swapaxes(0, 1)
    return AB.reshape(AB.shape[:2] + lead + (-1,))


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], nodes descending.

    The nodes are numpy's ``leggauss`` roots of P_n after one more Newton
    step, which leaves each within about half an ulp of the true root.  The
    weights are recomputed at them as w_i = 2 / ((1 - x_i)(1 + x_i) P_n'(x_i)^2),
    with P_n and P_n' from the three-term recurrence (Swarztrauber 2002,
    SIAM J. Sci. Comput. 24, 945; Hale & Townsend 2013, SIAM J. Sci. Comput.
    35, A652).
    """
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    x = np.polynomial.legendre.leggauss(n)[0][::-1]
    p, dp = legendre(x)
    x = x - p / dp
    p, dp = legendre(x)
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


# largest grid: its cached rule holds 8 * 256^2 * 257 bytes = 135 MB of tables
MAX_N_THETA = 256


@functools.lru_cache(maxsize=4)
def _theta_rule(n_theta: int):
    """(x, w_theta, (P, D)): the Gauss-Legendre rule of ``n_theta`` nodes
    and its full-band Legendre tables (band n_theta - 1) at those nodes.

    Built on first use, then shared by every grid of that n_theta in the
    process, so every array is read-only.  The two tables hold
    8 n_theta^2 (n_theta + 1) bytes, almost all of an entry: 0.27 MB at
    n_theta = 32, 2.1 MB at 64, 16.9 MB at 128.
    """
    x, w_theta = _gauss_legendre(n_theta)
    tables = tuple(_legendre_tables(n_theta - 1, x))
    for a in (x, w_theta, *tables):
        a.flags.writeable = False
    return x, w_theta, tables


# Highest coefficient band synthesized by the separable product route.  Its
# cost grows with the band times the grid, the FFT route's mostly with the
# grid: for stacks of 8 the product route was 2.5-3x faster at band 16 on
# 32 x 64 to 128 x 256 and about even at band 24, and it lost at band 31 on
# 32 x 64 and 64 x 128 (2-vCPU Xeon, numpy 2.4 with OpenBLAS).
_PRODUCT_BAND = 16


def _separable_factors(n_theta: int, n_phi: int, lmax: int):
    """(factors, col): the real harmonics up to lmax and their frame
    derivatives as products of a theta profile and an azimuthal function.

    ``factors`` maps each key of ``synth_derivs`` to (n_coeffs(lmax), n_theta)
    theta profiles, row k those of Y_k = Pbar trig from the rows Pbar and
    Pbar' = dPbar/dx of ``_theta_rule``'s tables, and (2 lmax + 1, n_phi)
    azimuthal functions: trig (sqrt(2) sin(|m| phi) for m < 0, 1,
    sqrt(2) cos(m phi) for m > 0), or dtrig = d trig / dphi for f2 and h12.
    Coefficient k = l^2 + l + m pairs with azimuthal row col[k] = m + lmax.
    The arrays are separate, so a caller that keeps some frees the rest; they
    and the mapping are read-only, as the cached copy is shared.
    """
    x, _, (P, D) = _theta_rule(n_theta)
    s = np.sqrt(1.0 - x**2)
    l = _degrees(n_coeffs(lmax)).astype(int)
    m = np.arange(l.size) - l * l - l
    rows = _block_start(np.abs(m), n_theta - 1) + l - np.abs(m)  # table row of (l, |m|)
    Pk, Dk = P[rows], D[rows]
    lc, mc = l[:, None], m[:, None]
    f1 = -s * Dk
    h22 = -mc * mc * Pk / (s * s) - x * Dk
    az = np.arange(-lmax, lmax + 1)[:, None]
    mphi = np.abs(az) * (2.0 * math.pi * np.arange(n_phi) / n_phi)
    nrm = np.where(az == 0, 1.0, math.sqrt(2.0))
    trig = nrm * np.where(az < 0, np.sin(mphi), np.cos(mphi))
    dtrig = np.abs(az) * nrm * np.where(az < 0, np.cos(mphi), -np.sin(mphi))
    factors = {
        "f": (Pk, trig),
        "f1": (f1, trig),
        "f2": (Pk / s, dtrig),
        "h11": (-lc * (lc + 1.0) * Pk - h22, trig),
        "h12": ((f1 - x * Pk / s) / s, dtrig),
        "h22": (h22, trig),
    }
    col = m + lmax
    for a in (col, trig, dtrig, *(th for th, _ in factors.values())):
        a.flags.writeable = False
    return MappingProxyType(factors), col


# The product route's factors, built on first use and shared by every grid of
# one size: n_coeffs x n_theta profiles and (2 lmax + 1) x n_phi functions of a
# band <= _PRODUCT_BAND (0.19 MB at 128 x 256, band 4).  ``_separable_basis``
# builds its own per call, so the Jacobi pencil's factors do not stay in
# memory after it.
_product_factors = functools.lru_cache(maxsize=16)(_separable_factors)


class SphereGrid:
    """Gauss-Legendre x uniform-phi quadrature grid on the unit sphere.

    Nodes are ordered row-major, theta first (theta ascending, no poles),
    phi_j = 2 pi j / n_phi.  ``w_node`` sums to 4 pi.

    The theta rule and the Legendre tables come from ``_theta_rule``: built
    once per n_theta in a process and shared, read-only, by every grid with
    that n_theta (16.9 MB at n_theta = 128).

    The theta weights come from ``_gauss_legendre``, which recomputes them
    from the Legendre recurrence at the nodes: relative error about 6e-14 at
    n_theta = 64 and 3e-13 at 128, against 40-digit weights.  The weights of
    numpy's ``leggauss`` are not used: their error (1.3e-12 at n_theta = 64,
    1.4e-11 at 128) leaves roundoff in analyzed coefficients that spectral
    derivatives amplify by about l^2 at the outermost rows (see ``c2_norm``).
    """

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 8:
            raise ValueError("n_theta must be at least 8")
        if n_theta > MAX_N_THETA:
            raise ValueError(f"n_theta must be at most {MAX_N_THETA}, got {n_theta}")
        if n_phi < max(16, 2 * n_theta):
            raise ValueError("n_phi must be at least max(16, 2 n_theta)")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.x, self.w_theta, _ = _theta_rule(self.n_theta)  # theta ascending
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sqrt(1.0 - self.x**2)
        self.phi = 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi
        self.w_node = np.outer(self.w_theta, np.full(self.n_phi, 2.0 * math.pi / self.n_phi))
        self.lmax = self.n_theta - 1  # full transform band

    # -- harmonic machinery ------------------------------------------------

    def tables(self):
        """The shared, read-only Legendre tables (P, D) of the grid band."""
        return _theta_rule(self.n_theta)[2]

    def analyze(self, values: np.ndarray, lmax: int | None = None) -> np.ndarray:
        """Forward transform: grid values (..., n_theta, n_phi) -> real
        harmonic coefficients (..., n_coeffs(lmax)).

        Exact for fields band-limited at or below the grid band; higher
        content aliases.
        """
        lmax = self.lmax if lmax is None else int(lmax)
        blocks = _blocks(n_coeffs(lmax), self.lmax)
        values = np.asarray(values, dtype=float)
        if values.shape[-2:] != (self.n_theta, self.n_phi):
            raise ValueError("field shape does not match grid")
        lead = values.shape[:-2]
        P, _ = self.tables()
        G = np.fft.rfft(values.reshape(-1, self.n_theta, self.n_phi), axis=-1)
        G *= 2.0 * math.pi / self.n_phi
        # (theta, m, cos/sin part, field): block m is one matrix product
        WG = self.w_theta[:, None, None, None] * np.stack([G.real, -G.imag]).transpose(2, 3, 0, 1)
        coeffs = np.zeros((WG.shape[-1], n_coeffs(lmax)))
        for m, rows, k, nrm in blocks:
            prod = P[rows] @ WG[:, m, : len(k)].reshape(self.n_theta, -1)
            coeffs[:, k] = nrm * prod.reshape(k.shape[1], len(k), -1).transpose(2, 1, 0)
        return coeffs.reshape(lead + (coeffs.shape[1],))

    def _assemble(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Grid values (..., n_theta, n_phi) from profiles A, B of shape (M, ..., n_theta)."""
        H = np.zeros(A.shape[1:] + (self.n_phi // 2 + 1,), dtype=complex)
        H[..., 0] = A[0] * self.n_phi
        mmax = A.shape[0] - 1
        H[..., 1 : mmax + 1] = np.moveaxis(A[1:] - 1j * B[1:], 0, -1) * (self.n_phi / 2.0)
        return np.fft.irfft(H, n=self.n_phi, axis=-1)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform: coefficients (..., n_coeffs) -> grid values
        (..., n_theta, n_phi), by the route of the coefficients' band (see
        ``synth_derivs``)."""
        return self._route(coeffs)(coeffs, derivs=False)["f"]

    def synth_derivs(self, coeffs: np.ndarray) -> dict:
        """Field, gradient and covariant Hessian on the grid, all spectral.

        Returns a dict of arrays (..., n_theta, n_phi), for coefficients
        (..., n_coeffs), in the round metric's orthonormal frame (e_theta,
        e_phi / sin theta): f, f1 = f_theta, f2 = f_phi / sin(theta), h11 =
        f_theta_theta, h12 = (f_theta_phi - cot(theta) f_phi) / sin(theta) and
        h22 = f_phi_phi / sin^2(theta) + cot(theta) f_theta.  h11 is Lap f - h22
        (the trace identity), with the round-sphere Lap f from -l(l+1) c_lm.

        Coefficients of band L <= ``_PRODUCT_BAND`` take the separable
        product route (``_product_route``: no FFT); higher bands, such as a
        field analyzed over the full band of a grid with n_theta > 17, take
        the per-m FFT route (``_fft_route``).  The two agree to roundoff.
        """
        return self._route(coeffs)(coeffs)

    def _route(self, coeffs: np.ndarray):
        """The synthesis route of a coefficient stack, by its band."""
        band = math.isqrt(coeffs.shape[-1]) - 1
        return self._product_route if band <= _PRODUCT_BAND else self._fft_route

    def _product_route(self, coeffs: np.ndarray, derivs: bool = True) -> dict:
        """``synth_derivs`` (or, without ``derivs``, only its "f") as two
        products: the coefficients into a theta profile per azimuthal
        function, then the profiles times the azimuth matrix."""
        lmax = len(_blocks(coeffs.shape[-1], self.lmax)) - 1
        factors, col = _product_factors(self.n_theta, self.n_phi, lmax)
        c = coeffs.reshape(-1, col.size)
        # row (field, m) of C holds the coefficients of order m in place
        C = np.zeros((c.shape[0], 2 * lmax + 1, col.size))
        C[:, col, np.arange(col.size)] = c
        shape = coeffs.shape[:-1] + (self.n_theta, self.n_phi)
        return {
            key: ((C @ theta).swapaxes(-1, -2) @ azimuth).reshape(shape)
            for key, (theta, azimuth) in factors.items() if derivs or key == "f"
        }

    def _fft_route(self, coeffs: np.ndarray, derivs: bool = True) -> dict:
        """``synth_derivs`` (or, without ``derivs``, only its "f") by per-m
        Legendre blocks and one inverse FFT in phi per output."""
        blocks = _blocks(coeffs.shape[-1], self.lmax)
        P, D = self.tables()
        A, B = _per_m_profiles(coeffs, P, blocks)
        f = self._assemble(A, B)
        if not derivs:
            return {"f": f}
        m = np.arange(len(blocks)).reshape((-1,) + (1,) * coeffs.ndim)
        l = _degrees(coeffs.shape[-1])
        Ax, Bx = _per_m_profiles(coeffs, D, blocks)
        fx = self._assemble(Ax, Bx)
        lap = self._assemble(*_per_m_profiles(-l * (l + 1.0) * coeffs, P, blocks))
        fp = self._assemble(m * B, -m * A)
        fpp = self._assemble(-(m**2) * A, -(m**2) * B)
        fxp = self._assemble(m * Bx, -m * Ax)

        # the coordinate partials into the frame, with f_theta = -s f_x
        s = self.sin_theta[:, None]
        x = self.x[:, None]
        h22 = fpp / (s * s) - x * fx
        return {"f": f, "f1": -s * fx, "f2": fp / s,
                "h11": lap - h22, "h12": -fxp - x * fp / (s * s), "h22": h22}

    def evaluate_at(self, coeffs: np.ndarray, theta, phi):
        """(f, f_theta, f_phi) of a coefficient vector at arbitrary interior points."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        blocks = _blocks(coeffs.size)
        P, D = _legendre_tables(len(blocks) - 1, np.cos(theta))
        m = np.arange(len(blocks))[:, None]
        cosm, sinm = np.cos(m * phi), np.sin(m * phi)
        A, B = _per_m_profiles(coeffs, P, blocks)
        f = np.sum(A * cosm + B * sinm, axis=0)
        Ax, Bx = _per_m_profiles(coeffs, D, blocks)
        ft = -np.sin(theta) * np.sum(Ax * cosm + Bx * sinm, axis=0)
        fp = np.sum(m * (B * cosm - A * sinm), axis=0)
        return f, ft, fp

    def _separable_basis(self, lmax: int):
        """The real harmonics up to lmax and their frame gradients as products
        of a theta profile and an azimuthal function.

        Returns (factors, col).  ``factors`` maps "f" (Y) and the frame
        gradient "1" (dY/dtheta) and "2" (dY/dphi / sin theta) to a pair
        (theta profiles (n_coeffs, n_theta), azimuthal functions
        (2 lmax + 1, n_phi)); basis function k = l^2 + l + m of a component is
        its theta profile k times azimuthal function col[k] = m + lmax.  They
        are the "f", "f1" and "f2" factors of ``_separable_factors``, which
        the product route of ``synth_derivs`` reads too.
        """
        if lmax > self.lmax:
            raise ValueError(f"lmax = {lmax} beyond grid band {self.lmax}")
        factors, col = _separable_factors(self.n_theta, self.n_phi, lmax)
        return {"f": factors["f"], "1": factors["f1"], "2": factors["f2"]}, col

    def basis_with_gradients(self, lmax: int):
        """Values and frame gradients of Y_{lm} up to lmax.

        Returns (Y, Y1, Y2) = (Y, dY/dtheta, dY/dphi / sin theta), each of
        shape (n_coeffs, n_theta, n_phi).
        """
        factors, col = self._separable_basis(lmax)
        return tuple(th[:, :, None] * az[col][:, None, :] for th, az in factors.values())


@dataclass(eq=False)
class ScalarField:
    """Scalar samples on a SphereGrid, stored row-major theta-then-phi, and
    their real harmonic coefficients: ``ScalarField(grid, values)`` analyzes
    the values once, over the full grid band.  ``from_coeffs``, which
    synthesized the values from coefficients, passes those as ``coeffs``."""

    grid: SphereGrid
    values: np.ndarray
    coeffs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)  # a copy: coeffs describe it
        if self.values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        if self.coeffs is None:
            self.coeffs = self.grid.analyze(self.values)

    @classmethod
    def from_coeffs(cls, grid: SphereGrid, coeffs) -> ScalarField:
        """The field of a flat coefficient vector of band L <= the grid band,
        never analyzed: its values are one synthesis of ``coeffs``."""
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be one finite vector")
        return cls(grid, grid.synthesize(coeffs), coeffs)


def build_grid(n_theta: int, n_phi: int) -> SphereGrid:
    """Build the quadrature grid (Gauss-Legendre in cos theta x uniform phi)."""
    return SphereGrid(n_theta, n_phi)


def integrate(f: ScalarField) -> float:
    """Quadrature of f over the unit sphere (solid-angle measure)."""
    return float(np.sum(f.grid.w_node * f.values))


def laplace_beltrami(f: ScalarField) -> ScalarField:
    """Spectral Laplace-Beltrami operator on the unit sphere.

    Exact (to transform accuracy) on the coefficients of f: -l(l+1) c_lm.
    """
    l = _degrees(f.coeffs.size)
    return ScalarField.from_coeffs(f.grid, -l * (l + 1.0) * f.coeffs)


def _c2_norms(d: dict) -> np.ndarray:
    """The C^2 norm of each field of a ``synth_derivs`` dict of shape (..., n_theta, n_phi):
    the max over nodes of |f|, |grad f| and |Hess f|_F, read from the frame
    components as f1^2 + f2^2 and h11^2 + 2 h12^2 + h22^2."""
    grad2 = d["f1"] ** 2 + d["f2"] ** 2
    hess2 = d["h11"] ** 2 + 2.0 * d["h12"] ** 2 + d["h22"] ** 2
    norms = (np.abs(d["f"]), np.sqrt(grad2), np.sqrt(hess2))
    return np.max([v.max(axis=(-2, -1)) for v in norms], axis=0)


def c2_norm(f: ScalarField) -> float:
    """Discrete C^2 norm: max over nodes of |f|, |grad f| and |Hess f|_F.

    Gradient and Hessian are covariant quantities of the round metric,
    evaluated spectrally; the result is a max over grid nodes (the poles
    carry no nodes, so pole suprema are approached but not sampled).

    The partials are synthesized from ``f.coeffs``.  For a field analyzed
    from values, accuracy is set by the polar rows: there the Hessian
    amplifies the analysis roundoff by about l^2 (P_l'(1) = l(l+1)/2 P_l(1)),
    so the error grows with n_theta, which accurate quadrature weights cannot
    prevent (cos theta: about 8e-13, 2e-12 and 9e-11 at n_theta = 32, 64 and
    128).  A field born as coefficients has no analysis roundoff.
    """
    return float(_c2_norms(f.grid.synth_derivs(f.coeffs)))


def random_c2_field(
    grid: SphereGrid, seed: int | list[int], lmax: int, amplitude: float
) -> ScalarField:
    """Deterministic random band-limited field with prescribed C^2 norm.

    The coefficients are ``np.random.default_rng(seed).standard_normal(n)``
    for n = n_coeffs(lmax), in flat l^2 + l + m order, so a band-4 draw is
    the prefix of the band-8 draw of the same seed.  They are scaled so that
    the field's C^2 norm is ``amplitude`` (see ``_random_c2_stack``), and the
    field is ``ScalarField.from_coeffs`` of them: never analyzed, its values
    one synthesis of its coefficients, which ``c2_norm`` reads back to a few
    ulps.
    """
    return ScalarField.from_coeffs(grid, _random_c2_stack(grid, [seed], lmax, amplitude)[0])


def _random_c2_stack(grid: SphereGrid, seeds, lmax: int, amplitude: float) -> np.ndarray:
    """The scaled coefficients of ``random_c2_field``'s draws, one row per
    seed: shape (len(seeds), n_coeffs(lmax)).

    Each seed is a nonnegative integer or a sequence of them, as numpy's
    ``default_rng`` takes it; row i is one ``standard_normal`` draw of its
    own Generator, times amplitude over the C^2 norm of its partials.  The
    drawn coefficients (band lmax) are derivative-synthesized once, as one
    stack, for those norms, and no stack is ever analyzed."""
    if lmax > grid.n_theta / 4:
        raise ValueError("lmax too large for this grid (need lmax <= n_theta/4)")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    for seed in seeds:
        if np.min(seed) < 0:  # the negative entry: sample seeds are [seed, k]
            raise ValueError(f"seed must be a nonnegative integer, got {np.min(seed)}")
    # np.random is loaded on first draw, not when chmass is imported
    coeffs = np.array([np.random.default_rng(s).standard_normal(n_coeffs(lmax)) for s in seeds])
    scale = amplitude / _c2_norms(grid.synth_derivs(coeffs))
    return scale[:, None] * coeffs


def scalar_field_to_dict(f: ScalarField) -> dict:
    """JSON-ready form: {"n_theta", "n_phi", "values" (row-major)}."""
    return {
        "n_theta": f.grid.n_theta,
        "n_phi": f.grid.n_phi,
        "values": [float(v) for v in f.values.ravel()],
    }


def scalar_field_from_dict(d: dict, grid: SphereGrid | None = None) -> ScalarField:
    """Inverse of ``scalar_field_to_dict``; a missing key or a value of the
    wrong JSON type raises a ValueError that names the key."""
    if not isinstance(d, dict):
        raise ValueError(f"scalar field JSON is not an object: {d!r:.40}")
    missing = [key for key in ("n_theta", "n_phi", "values") if key not in d]
    if missing:
        raise ValueError(f"scalar field JSON lacks {', '.join(missing)}")

    def read(key, convert):
        try:
            return convert(d[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"scalar field JSON {key}: {exc}") from None

    nt, np_ = read("n_theta", int), read("n_phi", int)
    values = read("values", lambda v: np.asarray(v, dtype=float))
    if values.size != nt * np_:  # before a grid (and its tables) is built for nt
        raise ValueError(
            f"scalar field has {values.size} values, "
            f"but n_theta * n_phi = {nt} * {np_} = {nt * np_}"
        )
    if grid is None:
        grid = build_grid(nt, np_)
    elif (grid.n_theta, grid.n_phi) != (nt, np_):
        raise ValueError("grid sizes do not match serialized field")
    return ScalarField(grid, values.reshape(nt, np_))
