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
metric's orthonormal frame (e_theta, e_phi / sin theta).  Both synthesis
routes convert to it by ``_frame``, so every sin theta and cot theta factor
of a synthesis lives there; ``evaluate_at`` keeps coordinate partials.

Synthesis takes one of two routes, chosen by the band L of the coefficients.
At L <= ``_PRODUCT_BAND`` (16) every real harmonic and frame derivative is a
theta profile times one of 2L + 1 azimuthal functions
(``_separable_factors``), so a synthesis is two small products: coefficients
into per-m theta profiles, then those profiles times the (2L + 1) x n_phi
azimuth matrix, with no FFT.  Above that band, and for every analysis,
transforms loop over m alone with one FFT in phi (per-m blocks, Schaeffer
2013, arXiv:1202.6522).  The Legendre tables
of band L are m-major and packed: block m holds rows l = m..L from row
m(L+1) - m(m-1)/2, and ``_packed``, the one map of this layout, takes it to
the flat indices l^2+l+m (cos m phi part) and l^2+l-m (sin m phi part).

The tables hold the northern nodes only (Schaeffer 2013): the Gauss nodes
are antisymmetric bit for bit and the recurrence only multiplies by x, so at
node -x Pbar_{l,m} is exactly (-1)^(l-m) times its value at x and Pbar'_{l,m}
is -(-1)^(l-m) times it.

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


@functools.lru_cache(maxsize=16)
def _packed(n: int, L: int | None = None):
    """(lmax, orders, pick, index): where a flat coefficient vector of length
    n = (lmax + 1)^2 sits in an m-major table of band L (default lmax).

    ``orders`` holds per m = 0..lmax a tuple (m, rows, parts, nrm): ``rows``
    slices rows l = m..lmax of block m, ``parts`` is 1 for m = 0 (cos part
    only) and 2 above, ``nrm`` the real-harmonic factor (sqrt(2) for m > 0).
    Flat coefficient k sits at pick[k] = 4 row + 2 part + odd, for the row of
    (l, |m|), part 1 for m < 0 and odd = (l - m) mod 2, the parity in x of
    Pbar_{l,|m|}; index[part, row] is k (0 where there is none).  Cached on
    (n, L) and shared by every caller, so ``orders`` is a tuple and ``pick``
    and ``index`` are read-only.
    """
    lmax = math.isqrt(n) - 1
    if n < 1 or (lmax + 1) ** 2 != n:
        raise ValueError(f"coefficient vector of length {n} is not (lmax + 1)^2")
    L = lmax if L is None else L
    if lmax > L:
        raise ValueError(f"coefficient band lmax = {lmax} beyond grid band {L}")
    orders = tuple((m, slice(_block_start(m, L), _block_start(m, L) + lmax + 1 - m),
                    2 if m else 1, math.sqrt(2.0) if m else 1.0) for m in range(lmax + 1))
    l = _degrees(n).astype(int)
    m = np.arange(n) - l * l - l
    row, part = _block_start(np.abs(m), L) + l - np.abs(m), (m < 0).astype(int)
    index = np.zeros((2, _block_start(L + 1, L)), dtype=int)
    index[part, row] = np.arange(n)
    pick = 4 * row + 2 * part + (l - m) % 2
    for a in (pick, index):
        a.flags.writeable = False
    return lmax, orders, pick, index


def _unfold(north: np.ndarray, south: np.ndarray, n: int) -> np.ndarray:
    """Values along the last axis at all n nodes from those at the ceil(n/2)
    northern ones and at their mirror images -x: node n-1-j is south's j."""
    return np.concatenate([north, south[..., n // 2 - 1 :: -1]], axis=-1)


def _profiles(S: np.ndarray, products, orders, n_x: int) -> np.ndarray:
    """Per-order theta profiles: for each (q, T) of ``products``, the
    coefficient sets S[q] (set, field, part, table row, as ``_packed``'s
    ``index`` gathers them) times table T's rows of each order of ``orders``.
    Returns (m, set, field, part, n_x), zero in the sin part of m = 0."""
    prof = np.zeros((len(orders),) + S.shape[:3] + (n_x,))
    for m, rows, parts, nrm in orders:
        for q, T in products:
            ck = S[q, :, :parts, rows]
            prof[m, q, :, :parts] = nrm * (ck.reshape(-1, ck.shape[-1]) @ T[rows]).reshape(
                ck.shape[:-1] + (-1,))
    return prof


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


# largest grid: its cached rule holds 8 * 256 * 257 * 128 bytes = 67 MB of tables
MAX_N_THETA = 256


@functools.lru_cache(maxsize=4)
def _theta_rule(n_theta: int):
    """(x, w_theta, (P, D)): the Gauss-Legendre rule of ``n_theta`` nodes
    and its full-band Legendre tables (band n_theta - 1) at the northern
    nodes x[:ceil(n_theta / 2)], the equator node last when n_theta is odd.

    The southern rows follow by parity (module docstring, ``_unfold``).
    Built on first use, then shared by every grid of that n_theta in the
    process, so every array is read-only.  The two tables hold
    8 n_theta (n_theta + 1) ceil(n_theta / 2) bytes, almost all of an entry:
    0.14 MB at n_theta = 32, 1.06 MB at 64, 8.45 MB at 128.
    """
    x, w_theta = _gauss_legendre(n_theta)
    tables = tuple(_legendre_tables(n_theta - 1, x[: (n_theta + 1) // 2]))
    for a in (x, w_theta, *tables):
        a.flags.writeable = False
    return x, w_theta, tables


# Highest coefficient band synthesized by the separable product route.  Its
# cost grows with the band times the grid, the FFT route's mostly with the
# grid: for stacks of 8 the product route was 2.5-3x faster at band 16 on
# 32 x 64 to 128 x 256 and about even at band 24, and it lost at band 31 on
# 32 x 64 and 64 x 128 (2-vCPU Xeon, numpy 2.4 with OpenBLAS).
_PRODUCT_BAND = 16


def _azimuths(lmax: int) -> dict:
    """The azimuthal functions of the real harmonics up to lmax in closed form.

    Maps "trig" (sqrt(2) sin(|m| phi) for m < 0, 1, sqrt(2) cos(m phi) for
    m > 0) and "dtrig" = d trig / dphi to (amp, sine): row p = m + lmax is
    amp[p] sin(|m| phi) where sine[p], else amp[p] cos(|m| phi).
    """
    m = np.arange(-lmax, lmax + 1)
    nrm = np.where(m == 0, 1.0, math.sqrt(2.0))
    return {"trig": (nrm, m < 0), "dtrig": (np.abs(m) * nrm * np.where(m < 0, 1.0, -1.0), m > 0)}


@functools.lru_cache(maxsize=16)
def _azimuth_table(lmax: int, n_phi: int):
    """The (2 lmax + 1, n_phi) values at the grid's phi of each ``_azimuths``
    function, shared, read-only, by every grid of one n_phi (0.04 MB at band
    4 and n_phi 256)."""
    mphi = np.abs(np.arange(-lmax, lmax + 1))[:, None] * (2.0 * math.pi * np.arange(n_phi) / n_phi)
    table = {}
    for name, (amp, sine) in _azimuths(lmax).items():
        table[name] = amp[:, None] * np.where(sine[:, None], np.sin(mphi), np.cos(mphi))
        table[name].flags.writeable = False
    return MappingProxyType(table)


def _frame(V, X, lap, m, x, s) -> dict:
    """Each ``synth_derivs`` key's theta profile and the name of its azimuthal
    function ("trig", or "dtrig" = d trig / dphi for f2 and h12), for a field
    V(x) trig(m phi) with X = dV/dx and Laplacian profile lap, at nodes
    x = cos(theta) with s = sin(theta).  Both synthesis routes convert here,
    so every sin theta and cot theta factor of a synthesis is in this function.
    """
    f1 = -s * X
    h22 = -m * m * V / (s * s) - x * X
    return {"f": (V, "trig"), "f1": (f1, "trig"), "f2": (V / s, "dtrig"),
            "h11": (lap - h22, "trig"), "h12": ((f1 - x * V / s) / s, "dtrig"),
            "h22": (h22, "trig")}


def _separable_factors(n_theta: int, lmax: int):
    """(factors, col): the real harmonics up to lmax and their frame
    derivatives as products of a theta profile and an azimuthal function.

    ``factors`` maps each key of ``synth_derivs`` to ``_frame``'s pair:
    (n_coeffs(lmax), n_theta) theta profiles, row k those of Y_k = Pbar trig
    from the rows Pbar and Pbar' = dPbar/dx of ``_theta_rule``'s tables,
    mirrored to the southern nodes with their parity (``_unfold``), and
    the name of an ``_azimuths`` function, whose row col[k] = m + lmax pairs
    with coefficient k = l^2 + l + m.  The arrays are separate, so a caller
    that keeps some frees the rest; all are read-only, as the product
    route's cached copy is shared.
    """
    x, _, (P, D) = _theta_rule(n_theta)
    l = _degrees(n_coeffs(lmax)).astype(int)
    m = np.arange(l.size) - l * l - l
    pick = _packed(l.size, n_theta - 1)[2]  # table row pick // 4, parity pick % 2
    sign, Pk, Dk, lc = 1.0 - 2.0 * (pick[:, None] % 2), P[pick // 4], D[pick // 4], l[:, None]
    Pk, Dk = _unfold(Pk, sign * Pk, n_theta), _unfold(Dk, -sign * Dk, n_theta)
    factors = _frame(Pk, Dk, -lc * (lc + 1.0) * Pk, m[:, None], x, np.sqrt(1.0 - x**2))
    col = m + lmax
    for a in (col, *(th for th, _ in factors.values())):
        a.flags.writeable = False
    return MappingProxyType(factors), col


# The product route's theta profiles, built on first use and shared by every
# grid of one n_theta (0.15 MB at n_theta 128, band 4).  The Jacobi pencil
# and ``basis_with_gradients`` build theirs per call, so neither is kept.
_product_factors = functools.lru_cache(maxsize=16)(_separable_factors)


class SphereGrid:
    """Gauss-Legendre x uniform-phi quadrature grid on the unit sphere.

    Nodes are ordered row-major, theta first (theta ascending, no poles),
    phi_j = 2 pi j / n_phi.  ``w_node`` sums to 4 pi.

    The theta rule and the Legendre tables come from ``_theta_rule``: built
    once per n_theta in a process and shared, read-only, by every grid with
    that n_theta.  The tables hold the ceil(n_theta / 2) northern nodes
    (8.45 MB at n_theta = 128); the southern ones follow by parity.
    n_theta and n_phi are ints (or numpy integers), checked before a rule
    is built.

    The theta weights come from ``_gauss_legendre``, which recomputes them
    from the Legendre recurrence at the nodes: relative error about 6e-14 at
    n_theta = 64 and 3e-13 at 128, against 40-digit weights.  The weights of
    numpy's ``leggauss`` are not used: their error (1.3e-12 at n_theta = 64,
    1.4e-11 at 128) leaves roundoff in analyzed coefficients that spectral
    derivatives amplify by about l^2 at the outermost rows (see ``c2_norm``).
    """

    def __init__(self, n_theta: int, n_phi: int):
        for name, size in (("n_theta", n_theta), ("n_phi", n_phi)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
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
        """The shared, read-only Legendre tables (P, D) of the grid band, northern nodes only."""
        return _theta_rule(self.n_theta)[2]

    def analyze(self, values: np.ndarray, lmax: int | None = None) -> np.ndarray:
        """Forward transform: grid values (..., n_theta, n_phi) -> real
        harmonic coefficients (..., n_coeffs(lmax)).

        Exact for fields band-limited at or below the grid band; higher
        content aliases.
        """
        lmax = self.lmax if lmax is None else lmax
        self._check_band(lmax)
        _, orders, pick, _ = _packed(n_coeffs(lmax), self.lmax)
        values = np.asarray(values, dtype=float)
        if values.shape[-2:] != (self.n_theta, self.n_phi):
            raise ValueError("field shape does not match grid")
        lead = values.shape[:-2]
        P, _ = self.tables()
        n, h = self.n_theta, P.shape[1]
        G = np.fft.rfft(values.reshape(-1, n, self.n_phi), axis=-1)
        G *= 2.0 * math.pi / self.n_phi
        # (m, theta, cos/sin part, field), then (m, north node, part, sum,
        # field): each node plus and minus its mirror (an odd equator has none)
        WG = self.w_theta[:, None, None] * np.stack([G.real, -G.imag], -1).transpose(2, 1, 3, 0)
        EO = np.stack([WG[:, :h], WG[:, :h]], axis=3)
        EO[:, : n // 2, :, 0] += WG[:, h:][:, ::-1]
        EO[:, : n // 2, :, 1] -= WG[:, h:][:, ::-1]
        # (table row, part, sum, field): a row odd in x reads the odd sum
        sums = np.empty((P.shape[0], 2, 2, len(G)))
        for m, rows, parts, nrm in orders:
            prod = P[rows] @ EO[m, :, :parts].reshape(h, -1)
            sums[rows, :parts] = nrm * prod.reshape(-1, parts, 2, len(G))
        coeffs = np.take(sums.reshape(-1, len(G)), pick, axis=0).T
        return np.ascontiguousarray(coeffs).reshape(lead + pick.shape)

    def _assemble(self, A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
        """Grid values (..., n_theta, n_phi), into out if given, from profiles (M, ..., n_theta)."""
        H = np.zeros(A.shape[1:] + (self.n_phi // 2 + 1,), dtype=complex)
        H[..., 0] = A[0] * self.n_phi
        mmax = A.shape[0] - 1
        H[..., 1 : mmax + 1] = np.moveaxis(A[1:] - 1j * B[1:], 0, -1) * (self.n_phi / 2.0)
        return np.fft.irfft(H, n=self.n_phi, axis=-1, out=out)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform: coefficients (..., n_coeffs) -> grid values
        (..., n_theta, n_phi), by the route of the coefficients' band (see
        ``synth_derivs``)."""
        return self._route(coeffs)(coeffs, derivs=False)["f"]

    def synth_derivs(self, coeffs: np.ndarray, *, out: dict | None = None) -> dict:
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
        ``out``, a dict of the six keys with arrays of the result's shape,
        receives the result, bit for bit as without it, and is returned.
        """
        return self._route(coeffs)(coeffs, out=out)

    def _route(self, coeffs: np.ndarray):
        """The synthesis route of a coefficient stack, by its band."""
        band = math.isqrt(coeffs.shape[-1]) - 1
        return self._product_route if band <= _PRODUCT_BAND else self._fft_route

    def _product_route(self, coeffs: np.ndarray, derivs: bool = True, out=None) -> dict:
        """``synth_derivs`` (or, without ``derivs``, only its "f") as two
        products: the coefficients into a theta profile per azimuthal
        function, then the profiles times the azimuth matrix."""
        lmax = _packed(coeffs.shape[-1], self.lmax)[0]
        factors, col = _product_factors(self.n_theta, lmax)
        azimuths = _azimuth_table(lmax, self.n_phi)
        c = coeffs.reshape(-1, col.size)
        # row (field, m) of C holds the coefficients of order m in place
        C = np.zeros((c.shape[0], 2 * lmax + 1, col.size))
        C[:, col, np.arange(col.size)] = c
        shape = coeffs.shape[:-1] + (self.n_theta, 2 * lmax + 1)  # the profiles of each field
        out = dict.fromkeys(factors if derivs else ("f",)) if out is None else out
        for key in out:
            theta, name = factors[key]
            prof = (C @ theta).swapaxes(-1, -2).reshape(shape)
            out[key] = np.matmul(prof, azimuths[name], out=out[key])
        return out

    def _fft_route(self, coeffs: np.ndarray, derivs: bool = True, out=None) -> dict:
        """``synth_derivs`` (or, without ``derivs``, only its "f") by per-m
        Legendre blocks: ``_frame`` converts the profiles of each order, then
        one inverse FFT in phi per output."""
        K = coeffs.shape[-1]
        _, orders, pick, index = _packed(K, self.lmax)
        P, D = self.tables()
        c, sign = coeffs.reshape(-1, K), 1.0 - 2.0 * (pick % 2)
        # the coefficients of V, Lap V (against P) and dV/dx (against D), each
        # unsigned for the north nodes and signed for their mirror images, as
        # (set, field, part, table row)
        sets = [c, sign * c]
        if derivs:
            l = _degrees(K)
            lap = -l * (l + 1.0) * c
            sets += [lap, sign * lap, c, -sign * c]
        S = np.take(np.stack(sets), index, axis=-1)
        products = ((slice(0, 4), P), (slice(4, 6), D))[: 2 if derivs else 1]
        prof = _profiles(S, products, orders, P.shape[1])  # at the north nodes
        # (V / Lap V / dV/dx, A/B part, m, ..., theta)
        prof = _unfold(prof[:, 0::2], prof[:, 1::2], self.n_theta).transpose(1, 3, 0, 2, 4)
        prof = prof.reshape(prof.shape[:3] + coeffs.shape[:-1] + (-1,))
        if not derivs:
            return {"f": self._assemble(*prof[0])}
        m = np.arange(len(orders)).reshape((-1,) + (1,) * coeffs.ndim)
        V, lap, X = prof
        frame = _frame(V, X, lap, m, self.x, self.sin_theta)
        out = dict.fromkeys(frame) if out is None else out
        # d/dphi takes A cos(m phi) + B sin(m phi) to m B cos(m phi) - m A sin(m phi)
        for key, ((A, B), name) in frame.items():
            out[key] = self._assemble(*((A, B) if name == "trig" else (m * B, -m * A)), out[key])
        return out

    def evaluate_at(self, coeffs: np.ndarray, theta, phi):
        """(f, f_theta, f_phi) of a coefficient vector at arbitrary interior points."""
        if np.ndim(coeffs) != 1:
            raise ValueError(f"coefficients must be one vector, got shape {np.shape(coeffs)}")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        lmax, orders, _, index = _packed(coeffs.size)
        P, D = _legendre_tables(lmax, np.cos(theta))
        m = np.arange(lmax + 1)[:, None]
        cosm, sinm = np.cos(m * phi), np.sin(m * phi)
        S = np.take(np.stack([coeffs, coeffs])[:, None], index, axis=-1)  # against P and D
        prof = _profiles(S, ((slice(0, 1), P), (slice(1, 2), D)), orders, theta.size)
        (A, B), (Ax, Bx) = prof[:, :, 0].transpose(1, 2, 0, 3)  # (set, part, m, point)
        f = np.sum(A * cosm + B * sinm, axis=0)
        ft = -np.sin(theta) * np.sum(Ax * cosm + Bx * sinm, axis=0)
        fp = np.sum(m * (B * cosm - A * sinm), axis=0)
        return f, ft, fp

    def _check_band(self, lmax) -> None:
        """Refuse an lmax that is not an integer from 0 to the grid band (ValueError)."""
        if isinstance(lmax, bool) or not isinstance(lmax, (int, np.integer)) or lmax < 0:
            raise ValueError(f"lmax must be an integer >= 0, got {lmax!r}")
        if lmax > self.lmax:
            raise ValueError(f"lmax = {lmax} beyond grid band {self.lmax}")

    def basis_with_gradients(self, lmax: int):
        """Values and frame gradients of Y_{lm} up to lmax.

        Returns (Y, Y1, Y2) = (Y, dY/dtheta, dY/dphi / sin theta), each of
        shape (n_coeffs, n_theta, n_phi): the "f", "f1" and "f2" factors of
        ``_separable_factors``, built for the call.  lmax is checked by
        ``_check_band``.
        """
        self._check_band(lmax)
        factors, col = _separable_factors(self.n_theta, lmax)
        azimuths = _azimuth_table(lmax, self.n_phi)
        return tuple(th[:, :, None] * azimuths[name][col][:, None, :]
                     for th, name in (factors[key] for key in ("f", "f1", "f2")))


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


def _c2_norms(d: dict) -> np.ndarray:
    """The C^2 norm of each field of a ``synth_derivs`` dict of shape (..., n_theta, n_phi):
    the max over nodes of |f|, |grad f| and |Hess f|_F, read from the frame
    components as f1^2 + f2^2 and h11^2 + 2 h12^2 + h22^2 in two scratch arrays;
    max |f| = max(max f, -min f), and sqrt (monotone) is taken of the maxima."""
    a, b, axes = np.empty_like(d["f"]), np.empty_like(d["f"]), (-2, -1)
    grad2 = np.add(np.square(d["f1"], out=a), np.square(d["f2"], out=b), out=a).max(axis=axes)
    np.add(np.square(d["h11"], out=a), np.multiply(2.0, np.square(d["h12"], out=b), out=b), out=a)
    hess2 = np.add(a, np.square(d["h22"], out=b), out=a).max(axis=axes)
    f = np.maximum(d["f"].max(axis=axes), -d["f"].min(axis=axes))
    return np.max([f, np.sqrt(grad2), np.sqrt(hess2)], axis=0)


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


def _random_c2_stack(grid: SphereGrid, seeds, lmax: int, amplitude: float, out=None) -> np.ndarray:
    """The scaled coefficients of ``random_c2_field``'s draws, one row per
    seed: shape (len(seeds), n_coeffs(lmax)).

    Each seed is a nonnegative integer or a sequence of them, as numpy's
    ``default_rng`` takes it; row i is one ``standard_normal`` draw of its
    own Generator, times amplitude over the C^2 norm of its partials.  The
    drawn coefficients (band lmax) are derivative-synthesized once, as one
    stack (into ``out`` if given), for those norms; no stack is analyzed.
    lmax, amplitude and the seeds are checked by name before any draw."""
    grid._check_band(lmax)
    if lmax > grid.n_theta / 4:
        raise ValueError("lmax too large for this grid (need lmax <= n_theta/4)")
    if not 0.0 <= amplitude < math.inf:
        raise ValueError(f"amplitude must be nonnegative and finite, got {amplitude}")
    for seed in seeds:
        if np.min(seed) < 0:  # the negative entry: sample seeds are [seed, k]
            raise ValueError(f"seed must be a nonnegative integer, got {np.min(seed)}")
    # np.random is loaded on first draw, not when chmass is imported
    coeffs = np.array([np.random.default_rng(s).standard_normal(n_coeffs(lmax)) for s in seeds])
    scale = amplitude / _c2_norms(grid.synth_derivs(coeffs, out=out))
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

    def size(v):
        integral = isinstance(v, int) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not integral:
            raise ValueError(f"not an integer: {v!r}")
        return int(v)

    nt, np_ = read("n_theta", size), read("n_phi", size)
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
