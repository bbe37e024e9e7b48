"""Warped-product profiles u(s) and their closed-form geometry.

The metric g = ds^2 + u(s)^2 g_{S^2} solves the static constraint iff

    u'' = (1 - u'^2) / (2u) - (Lambda u^4 + Q^2) / (2 u^3),

with the slice mass

    I(s) = (u/2) (1 - u'^2 - Lambda u^2/3 + Q^2/u^2)

as a first integral.  Profiles solve the initial value problem from the neck
(u, u')(0) = (a, 0) by Chebyshev collocation of the first-order system
(u, v = u'), marched in panels of 33 Chebyshev-Lobatto nodes, and are
extended to negative arclength by the reflection u(-s) = u(s).  Each accepted
panel is then cut into ``_PIECES`` equal pieces, and each piece carries its
own Chebyshev series: the panel series, less the piece's start state,
interpolated at the piece's 33 Lobatto nodes, with its negligible tail
dropped (about 10 terms near the neck).  A graph's nodes span a sliver of
one piece, so the profile there is summed from that piece's short series.

The closed forms of slices live here too: ``slice_hawking_mass`` (the first
integral at zeta = 2 Lambda), ``curvature_scalars``, and what is read from
them alone -- the model CMC foliation (``cmc_foliation``,
``monotonicity_report``) and the area-charge equality on a charged Nariai
cylinder (``nariai_flow_diagnostic``, ``area_charge_value``).

Sign convention (used consistently across the package): the unit normal of a
slice is nu = +d/ds and the mean curvature is H = -2 u'/u, so expanding
slices (u' > 0) have H < 0 while their area grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval, chebvander

from .models import (
    CLASS_GENERIC,
    ModelParams,
    NariaiParams,
    horizon_roots,
    lapse_squared_prime,
    params_from_neck,
)
from .sphere import _gauss_legendre

__all__ = [
    "RadialProfile",
    "ProfileIntegrationError",
    "integrate_profile",
    "slice_hawking_mass",
    "curvature_scalars",
    "FoliationState",
    "MonotonicityReport",
    "NariaiFlowReport",
    "cmc_foliation",
    "monotonicity_report",
    "nariai_flow_diagnostic",
    "area_charge_value",
    "arclength_from_r",
    "profile_rhs",
]

KIND_RNDS = "rnds"
KIND_NARIAI = "nariai"


class ProfileIntegrationError(RuntimeError):
    """Integration stopped before reaching s_max (u -> 0 or panel collapse)."""

    def __init__(self, message: str, last_s: float):
        super().__init__(f"{message} (last valid s = {last_s:.6g})")
        self.last_s = last_s


def profile_rhs(u: float, du: float, q: float, lam: float):
    """Right-hand side u'' of the profile equation."""
    return (1.0 - du**2) / (2.0 * u) - (lam * u**4 + q**2) / (2.0 * u**3)


def _rhs_partials(u, du, q: float, lam: float):
    """Partial derivatives (dF/du, dF/du') of ``profile_rhs``."""
    return (
        -(1.0 - du**2) / (2.0 * u**2) - 0.5 * lam + 1.5 * q**2 / u**4,
        -du / u,
    )


def _lobatto_panel(n: int):
    """Chebyshev-Lobatto nodes x_j = -cos(j pi/n) (ascending on [-1, 1]), the
    first-derivative matrix on them (Trefethen, Spectral Methods in MATLAB,
    ch. 6), and the map from node values to Chebyshev coefficients."""
    j = np.arange(n + 1)
    x = -np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d, np.linalg.inv(chebvander(x, n))


_NODES, _DIFF, _TO_COEFFS = _lobatto_panel(32)
_TAIL = 3  # trailing coefficients whose size bounds a panel's truncation error
_NEWTON_STEPS = 25
_MIN_PANEL = 1e-6  # smallest panel, relative to s_max
# largest s_max, 50 times the widest range the tests integrate (200): work and
# memory grow linearly with s_max (at 2e4: 47,808 pieces, 7.5 s and 156 MB
# peak RSS on a 2-vCPU Xeon VM)
_MAX_S = 1e4
_PIECES = 8  # equal pieces per collocation panel, each with its own series
# a piece drops the trailing coefficients whose absolute sum is at most this
# times its largest |u| or |u'|
_DROP = 4.0 * np.finfo(float).eps
# T_1..T_32 at the 33 Lobatto nodes of each piece, in its panel's coordinate:
# (_PIECES, 33, 32), so that _PIECE_BASIS @ c[1:] is a panel's series there less c[0]
_PIECE_BASIS = chebvander(
    (2.0 * np.arange(_PIECES)[:, None] + _NODES + 1.0) / _PIECES - 1.0, 32
)[..., 1:]
# points per Clenshaw pass: buffers of (2, 8192) floats, 128 KB.  With glibc
# malloc, whole-graph buffers (32768 points at n_theta 128) raised
# oracle_fine's peak RSS by about 0.45 MB over chebval's; 8192-point passes
# run as fast and do not.
_BLOCK = 8192


class _ChebyshevPanels:
    """Piecewise Chebyshev series of (u, u') on [0, s_max].

    Called with arclengths s >= 0 of any shape, returns the stacked (u, u')
    of shape (2, s.size).  Each panel adds the roundoff-sized constant that
    makes its series return the panel's start state exactly at its left end,
    so the neck value u(0) = a is exact.  The panels are either the
    collocation panels (33 terms each) or their pieces (``_pieces``), whose
    coefficient arrays are ragged: a piece keeps only the terms it needs.

    A panel's series is summed by Clenshaw's recurrence in place, ``_BLOCK``
    points at a time: three (2, _BLOCK) buffers rotate through the steps
    and every step writes through ``out=``, where
    ``numpy.polynomial.chebyshev.chebval`` allocates new (2, n) temporaries
    at each step.  The operations and their order are chebval's, so the
    values are bit for bit the same.  Every point's value depends on its s
    alone, whatever the other points of the call.
    """

    def __init__(self, breaks, coeffs, starts):
        self.breaks = np.asarray(breaks)  # panel p spans breaks[p]..breaks[p + 1]
        self.coeffs = coeffs  # per panel a (terms, 2) array, terms >= 2
        self.offsets = [
            np.asarray(y0) - chebval(-1.0, c) for y0, c in zip(starts, coeffs)
        ]

    def _panel(self, p: int, s, out):
        """Panel p's series at s (shape (n,)), written to out (2, n) and returned."""
        lo, hi = self.breaks[p], self.breaks[p + 1]
        c = self.coeffs[p][:, :, None]  # (terms, 2, 1): one column per component
        for start in range(0, s.size, _BLOCK):
            x = 2.0 * (s[start : start + _BLOCK] - lo) / (hi - lo) - 1.0
            x2 = 2.0 * x
            c0 = np.empty((2, x.size))
            c1 = np.empty_like(c0)
            tmp = np.empty_like(c0)
            c0[...] = c[-2]
            c1[...] = c[-1]
            for i in range(3, len(c) + 1):
                # chebval's step: c0, c1 <- c[-i] - c1, c0 + c1 x2
                np.multiply(c1, x2, out=tmp)
                tmp += c0
                np.subtract(c[-i], c1, out=c0)
                c1, tmp = tmp, c1
            np.multiply(c1, x, out=tmp)
            tmp += c0
            np.add(tmp, self.offsets[p][:, None], out=out[:, start : start + _BLOCK])
        return out

    def __call__(self, s):
        s = np.asarray(s, dtype=float).ravel()
        inner = self.breaks[1:-1]
        if s.size:
            first, last = np.searchsorted(inner, (s.min(), s.max()), side="right")
            if first == last:  # the common case: all of s in one panel, no gather
                return self._panel(first, s, np.empty((2, s.size)))
        panel = np.searchsorted(inner, s, side="right")
        out = np.empty((2, s.size))
        for p in np.flatnonzero(np.bincount(panel)):  # the panels present; s is not sorted
            sel = panel == p
            out[:, sel] = self._panel(p, s[sel], np.empty((2, np.count_nonzero(sel))))
        return out


def _pieces(breaks, coeffs, starts) -> _ChebyshevPanels:
    """The collocation panels (``_ChebyshevPanels`` arguments) cut into
    ``_PIECES`` equal pieces, each with its own short series.

    A piece's start state is its panel's value at the piece start; the first
    piece of a panel starts from the panel's own start state, so u(0) = a
    and u'(0) = 0 stay exact.  Its series is the start state plus the
    interpolant (``_TO_COEFFS``) of the panel's series less its value at the
    piece start, at the piece's 33 Lobatto nodes.  Taken without its
    constant, the panel's series is as close to exact at those nodes as
    Clenshaw's sum (``_PIECE_BASIS``), and the transform's roundoff scales
    with how much the piece varies, not with u.  A piece's trailing
    coefficients are dropped while their absolute sum stays at most
    ``_DROP`` times its largest |u| or |u'| (two terms are always kept),
    which bounds what the cut changes.
    """
    piece_breaks, piece_coeffs, piece_starts, scales = [], [], [], []
    for lo, hi, c, y0 in zip(breaks[:-1], breaks[1:], coeffs, starts):
        varying = _PIECE_BASIS @ c[1:]  # (pieces, 33, 2)
        values = varying + (c[0] + (y0 - chebval(-1.0, c)))
        start = values[:, 0]
        start[0] = y0
        c_piece = _TO_COEFFS @ (varying - varying[:, :1])
        # with the start as its constant term the series meets the start within
        # roundoff, so the offset that makes it exact there is exact itself
        c_piece[:, 0] += start
        piece_coeffs.extend(c_piece)
        scales.extend(np.abs(values).max(axis=(1, 2)))
        piece_breaks.extend(np.linspace(lo, hi, _PIECES + 1)[:-1])  # lo exactly
        piece_starts.extend(start)
    size = np.abs(np.array(piece_coeffs)).max(axis=2)  # (pieces, 33)
    tail = np.cumsum(size[:, ::-1], axis=1)[:, ::-1]  # tail[:, k] = size[:, k:].sum()
    terms = np.maximum(2, (tail > _DROP * np.array(scales)[:, None]).sum(axis=1))
    return _ChebyshevPanels(
        piece_breaks + [breaks[-1]],
        [c[:n] for c, n in zip(piece_coeffs, terms)],
        piece_starts,
    )


def _newton_panel(s0: float, h: float, y0, q: float, lam: float, step_tol: float):
    """Collocate u' = v, v' = F(u, v) on [s0, s0 + h] from the state y0 at s0.

    The start node carries y0 exactly; the other 32 nodes carry both
    equations, solved by Newton from the second-order Taylor start.  Returns
    the node values (u, v), or None when Newton does not reach a step of
    ``step_tol`` (the panel is then too wide).
    """
    t = 0.5 * h * (_NODES + 1.0)
    f0 = profile_rhs(y0[0], y0[1], q, lam)
    u = y0[0] + y0[1] * t + 0.5 * f0 * t**2
    v = y0[1] + f0 * t
    d = (2.0 / h) * _DIFF
    n = _NODES.size - 1
    i = np.arange(n)
    jac = np.zeros((2 * n, 2 * n))  # unknowns: u and v at nodes 1..n
    jac[:n, :n] = jac[n:, n:] = d[1:, 1:]
    jac[i, n + i] = -1.0
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            f = profile_rhs(u, v, q, lam)
            res = np.concatenate([(d @ u - v)[1:], (d @ v - f)[1:]])
            f_u, f_v = _rhs_partials(u[1:], v[1:], q, lam)
            jac[n + i, i] = -f_u
            jac[n + i, n + i] = d[i + 1, i + 1] - f_v
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                return None
            u[1:] -= step[:n]
            v[1:] -= step[n:]
            if not (np.all(np.isfinite(step)) and np.all(u > 0.0)):
                return None
            if np.abs(step).max() <= step_tol:
                return u, v
    return None


def _like(values, s):
    """A float for scalar s, else the array."""
    return float(values) if np.ndim(s) == 0 else values


@dataclass(eq=False)
class RadialProfile:
    """Integrated profile as a Chebyshev series, mirrored across the neck."""

    a: float
    q: float
    lam: float
    m: float
    kind: str
    s_max: float
    tol: float
    # callable |s| -> stacked (u, u') of shape (2, n) on [0, s_max]: the
    # piecewise Chebyshev series of the collocation panels
    _sol: object = field(repr=False)

    def _check_range(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all(np.abs(s) <= self.s_max * (1.0 + 1e-12)):  # NaN fails too
            raise ValueError(f"arclength outside integrated range [-{self.s_max}, {self.s_max}]")
        return s

    def _state(self, s, with_ddu: bool = False):
        """(u, u') at arclength s, and u'' too ``with_ddu``: arrays of the
        shape of s (0-d for scalar s).

        A 0-d s takes the same array arithmetic as an array of s, and u'' is
        formed on the flat arrays before they are reshaped, so scalar and
        array calls agree bitwise.
        """
        s = self._check_range(s)
        flat = s.ravel()
        u, du = self._sol(np.abs(flat))
        du = np.sign(flat) * du
        values = (u, du, profile_rhs(u, du, self.q, self.lam)) if with_ddu else (u, du)
        return tuple(x.reshape(s.shape)[()] for x in values)

    def state(self, s):
        """(u, u', u'') at arclength s: u and u'' even in s, u' odd.

        Vectorised over s of any shape (u'' through the profile equation);
        raises ValueError outside [-s_max, s_max] and at NaN.
        """
        return self._state(s, with_ddu=True)

    def u(self, s):
        """Area radius u(s); even in s."""
        return _like(self.state(s)[0], s)

    def du(self, s):
        """u'(s); odd in s."""
        return _like(self.state(s)[1], s)

    def ddu(self, s):
        """u''(s), evaluated through the profile equation; even in s."""
        return _like(self.state(s)[2], s)

    @property
    def params(self) -> ModelParams:
        return ModelParams(m=self.m, q=self.q, lam=self.lam)


def integrate_profile(
    a: float,
    q: float,
    lam: float = 1.0,
    s_max: float = 2.0,
    tol: float = 1e-10,
) -> RadialProfile:
    """Integrate the profile equation from a neck of radius a.

    The first-order system u' = v, v' = F(u, v) is collocated on panels of
    33 Chebyshev-Lobatto nodes and solved by Newton (stopping at a step of
    1e-13 a).  Panels march outward from the neck, each starting from the
    previous panel's end state; a panel is first tried at twice the width of
    the last accepted one (the whole range at the start) and halved until its
    Chebyshev series converges to within ``tol``.

    The accepted panels are then cut into ``_PIECES`` equal pieces
    (``_pieces``), each with its own short series that keeps within
    16 eps max|c| of its panel's series, and the profile is evaluated from
    those: a graph's nodes span a sliver of one piece, and about 10 terms
    there cost a third of the panel's 33.

    Parameters
    ----------
    a : float
        Neck radius; must be a minimal slice of the induced model, i.e.
        u''(0) >= 0 (necks and cylinders, not bellies).
    q, lam : float
        Charge and cosmological constant.
    s_max : float
        Half-width of the integrated arclength range [-s_max, s_max]; in
        (0, 1e4].
    tol : float
        Bound on each panel's trailing Chebyshev coefficients of (u, u'),
        relative to the panel's largest |u| or |u'|; within [1e-14, 1e-6].

    Returns
    -------
    RadialProfile

    Raises
    ------
    ProfileIntegrationError
        If u falls below 1e-3 a at a node, or a panel shrinks below 1e-6 s_max.
    """
    if a <= 0.0:
        raise ValueError("integrate_profile requires a > 0")
    if not (1e-14 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-14, 1e-6]")
    if not 0.0 < s_max <= _MAX_S:
        raise ValueError(f"s_max must be positive and at most {_MAX_S:g}, got {s_max}")
    ddu0 = profile_rhs(a, 0.0, q, lam)
    if ddu0 < -1e-10:
        raise ValueError(
            f"(a, Q, Lambda) = ({a}, {q}, {lam}) starts at a belly (u''(0) = {ddu0:.3e} < 0)"
        )

    breaks, coeffs, starts = [0.0], [], []
    y0 = np.array([a, 0.0])
    width = s_max
    while breaks[-1] < s_max:
        s0 = breaks[-1]
        width = min(width, s_max - s0)
        if width < _MIN_PANEL * s_max:
            raise ProfileIntegrationError("collocation panel width collapsed", s0)
        nodes = _newton_panel(s0, width, y0, q, lam, 1e-13 * a)
        if nodes is not None:
            c = _TO_COEFFS @ np.column_stack(nodes)  # (33, 2)
            scale = np.abs(c).max()
            if np.abs(c[-_TAIL:]).max() > tol * scale:
                nodes = None
        if nodes is None:
            width *= 0.5
            continue
        low = np.flatnonzero(nodes[0] < 1e-3 * a)
        if low.size:
            last = s0 + 0.5 * width * (_NODES[low[0] - 1] + 1.0)
            raise ProfileIntegrationError("profile radius collapsed toward zero", last)
        coeffs.append(c)
        starts.append(y0)
        y0 = np.array([nodes[0][-1], nodes[1][-1]])
        breaks.append(s_max if s_max - s0 - width <= 1e-12 * s_max else s0 + width)
        width *= 2.0

    m = params_from_neck(a, q, lam).m
    # Constant solutions exist exactly when Q^2 = a^2 (1 - Lambda a^2).
    kind = KIND_NARIAI if abs(1.0 - lam * a**2 - q**2 / a**2) <= 1e-12 else KIND_RNDS

    return RadialProfile(
        a=a, q=q, lam=lam, m=m, kind=kind, s_max=s_max, tol=tol,
        _sol=_pieces(breaks, coeffs, starts),
    )


def slice_hawking_mass(prof: RadialProfile, s, zeta: float | None = None):
    """Closed-form charged Hawking mass of the slice at arclength s.

    (u/2)(1 - u'^2 - zeta u^2/6 + Q^2/u^2); for zeta = 2 Lambda (the
    default) this is the first integral of the profile equation and is
    therefore constant in s.
    """
    if zeta is None:
        zeta = 2.0 * prof.lam
    u, du = prof._state(s)
    return _like(0.5 * u * (1.0 - du**2 - zeta * u**2 / 6.0 + prof.q**2 / u**2), s)


def curvature_scalars(prof: RadialProfile, s) -> dict:
    """Closed-form geometry of the slice at arclength s.

    This is the one closed form of slice quantities; the quadrature side is
    ``induced_geometry`` of the zero-height graph over the slice.  Floats for
    scalar s, arrays of the shape of s otherwise.

    Returns
    -------
    dict with keys
        u, du   : area radius u and its arclength derivative u'
        R       : ambient scalar curvature  -4u''/u + 2(1 - u'^2)/u^2
        ric_nn  : ambient Ricci along d/ds   -2u''/u
        k_slice : intrinsic Gauss curvature of the slice, 1/u^2
        h_slice : slice mean curvature, -2u'/u  (nu = +d/ds convention)
        dh_ds   : its arclength derivative, -2u''/u + 2(u'/u)^2
        a2_slice: squared norm of the slice second fundamental form, H^2/2
        e2      : |E|^2 = Q^2/u^4 of the radial field E = (Q/u^2) d/ds
    """
    u, du, ddu = (_like(v, s) for v in prof.state(s))
    h = -2.0 * du / u
    return {
        "u": u,
        "du": du,
        "R": -4.0 * ddu / u + 2.0 * (1.0 - du**2) / u**2,
        "ric_nn": -2.0 * ddu / u,
        "k_slice": 1.0 / u**2,
        "h_slice": h,
        "dh_ds": -2.0 * ddu / u + 2.0 * (du / u) ** 2,
        "a2_slice": 0.5 * h**2,
        "e2": prof.q**2 / u**4,
    }


@dataclass
class FoliationState:
    """One slice of the model CMC foliation (lapse identically one)."""

    t: float
    u: float
    du: float
    h_mean: float
    dh_dt: float
    lambda1: float
    dmch_dt: float
    evolution_identity_residual: float


@dataclass(eq=False)
class MonotonicityReport:
    """Per-slice mass-derivative decomposition along the model foliation.

    ``bracket_scalar_zeta`` is int (R - zeta - 2|E|^2) dsigma, which vanishes
    on the models; ``bracket_scalar_printed`` evaluates the same term with
    Lambda in place of zeta and equals Lambda |Sigma_t| there -- recorded as
    the coefficient discrepancy, never asserted to vanish.
    """

    t: np.ndarray
    dmch_dt: np.ndarray
    bracket_scalar_zeta: np.ndarray
    bracket_scalar_printed: np.ndarray
    bracket_charge: np.ndarray


@dataclass
class NariaiFlowReport:
    """Area-charge equality and flow estimate on an exact Nariai cylinder."""

    alpha: float
    area: float
    q2: float
    area_charge_value: float
    equality_residual: float
    max_abs_h: float
    hprime_lhs: float
    hprime_rhs: float


def cmc_foliation(
    prof: RadialProfile, t_range: tuple[float, float], n_steps: int
) -> list[FoliationState]:
    """Model CMC foliation Sigma(t) = slice at s = t, lapse rho_t = 1.

    Records H(t) = -2u'/u, its t-derivative, the slice Jacobi eigenvalue
    lambda1(t), the mass drift d/dt m_CH (central difference of the
    closed-form slice mass), and the evolution-identity residual
    |H'(t) - (Ric(nu,nu) + |A|^2)|.  The residual pits the integrated u''
    against the model closed form Ric(nu,nu) = -f'(u)/u, so it is not a
    tautology of the integrator.
    """
    if n_steps < 2:  # linspace would drop t1 (one step) or leak numpy's message
        raise ValueError(f"n_steps must be at least 2, got {n_steps}")
    t0, t1 = t_range
    delta = 1e-3
    if max(abs(t0), abs(t1)) + delta > prof.s_max:
        raise ValueError("t range leaves the integrated profile (need slack for FD)")
    t = np.linspace(t0, t1, n_steps)
    sc = curvature_scalars(prof, t)
    ric_model = -lapse_squared_prime(sc["u"], prof.params) / sc["u"]
    jacobi = ric_model + sc["a2_slice"]  # Ric(nu,nu) + |A|^2 = -lambda1
    m_plus, m_minus = slice_hawking_mass(prof, np.stack([t + delta, t - delta]))
    dmch = (m_plus - m_minus) / (2.0 * delta)
    rows = np.column_stack([  # in FoliationState's field order
        t, sc["u"], sc["du"], sc["h_slice"], sc["dh_ds"], -jacobi, dmch,
        np.abs(sc["dh_ds"] - jacobi),
    ])
    return [FoliationState(*map(float, row)) for row in rows]


def monotonicity_report(
    prof: RadialProfile,
    states: list[FoliationState],
    zeta: float | None = None,
) -> MonotonicityReport:
    """Evaluate the mass-derivative decomposition along the foliation.

    All terms are closed-form slice integrals, read off ``curvature_scalars``.
    On the exact models the zeta-form scalar bracket and the charge bracket
    vanish; the Lambda-coefficient scalar bracket equals Lambda |Sigma_t| and
    is reported as the recorded discrepancy.  The umbilicity bracket and the
    mean-lapse terms are not reported: the model slices are umbilic with
    constant lapse, so they are zero by construction.
    """
    if zeta is None:
        zeta = 2.0 * prof.lam
    t = np.array([st.t for st in states])
    sc = curvature_scalars(prof, t)
    area = 4.0 * math.pi * sc["u"] ** 2
    e2 = sc["e2"]
    bracket_zeta = (sc["R"] - zeta - 2.0 * e2) * area
    bracket_printed = (sc["R"] - prof.lam - 2.0 * e2) * area
    bracket_charge = e2 * area - 16.0 * math.pi**2 * prof.q**2 / area
    return MonotonicityReport(
        t=t,
        dmch_dt=np.array([st.dmch_dt for st in states]),
        bracket_scalar_zeta=bracket_zeta,
        bracket_scalar_printed=bracket_printed,
        bracket_charge=bracket_charge,
    )


def area_charge_value(area: float, q: float) -> float:
    """|Sigma| + 16 pi^2 Q^2 / |Sigma| -- at most 4 pi on area-minimizing spheres."""
    return area + 16.0 * math.pi**2 * q**2 / area


def nariai_flow_diagnostic(npar: NariaiParams, t_eval: float = 0.3) -> NariaiFlowReport:
    """Equality case of the area-charge bound on an exact Nariai cylinder.

    Checks |Sigma| + 16 pi^2 Q^2/|Sigma| = 4 pi on the neck, that the
    integrated profile stays exactly cylindrical (H identically 0), and
    evaluates both sides of the flow estimate
    |Sigma_t| H'(t) int (1/rho) <= (16 pi^2 Q^2/|Sigma_0|) int_0^t H |Sigma_s| ds,
    which degenerates to 0 <= 0 there.
    """
    prof = integrate_profile(npar.alpha, math.sqrt(npar.q2), npar.lam, s_max=max(1.0, 2 * t_eval))
    s_grid = np.linspace(0.0, t_eval, 201)
    sc = curvature_scalars(prof, s_grid)
    end = curvature_scalars(prof, t_eval)
    u, h = sc["u"], sc["h_slice"]
    area = 4.0 * math.pi * float(u[0]) ** 2
    value = area_charge_value(area, npar.q)
    area_t = 4.0 * math.pi * end["u"] ** 2
    lhs = area_t * end["dh_ds"] * area_t  # int 1/rho = |Sigma_t| for rho = 1
    kappa = 16.0 * math.pi**2 * npar.q2 / area
    rhs = kappa * np.trapezoid(h * 4.0 * math.pi * u**2, s_grid)
    return NariaiFlowReport(
        alpha=npar.alpha, area=area, q2=npar.q2,
        area_charge_value=value,
        equality_residual=value - 4.0 * math.pi,
        max_abs_h=float(np.max(np.abs(h))),
        hprime_lhs=float(lhs), hprime_rhs=float(rhs),
    )


@functools.lru_cache(maxsize=1)
def _eta_rule():
    """The 96-node Gauss-Legendre rule of ``arclength_from_r``, built on first use."""
    return _gauss_legendre(96)


def _lapse_peak(p: ModelParams, r_plus: float, r_c: float) -> float:
    """The maximum of f on (r_+, r_c): the root there of the quartic
    r^3 f'(r) = -2 Lambda r^4/3 + 2 m r - 2 Q^2 (companion-matrix roots,
    polished by Newton)."""
    g = np.polynomial.Polynomial([-2.0 * p.q**2, 2.0 * p.m, 0.0, 0.0, -2.0 * p.lam / 3.0])
    inside = [z.real for z in g.roots() if abs(z.imag) <= 1e-7 * abs(z) and r_plus < z.real < r_c]
    r = inside[0]
    dg = g.deriv()
    for _ in range(3):
        r -= g(r) / dg(r)
    return r


def arclength_from_r(p: ModelParams, r: float) -> float:
    """Arclength s(r) = int_{r_+}^{r} f^{-1/2} from the neck to radius r.

    With the four horizon roots r_i, f(xi) = -(Lambda/3) prod (xi - r_i) / xi^2.
    Near r_+ the substitution xi = r_+ + eta^2 turns f^{-1/2} dxi into
    2 xi / sqrt((Lambda/3) prod_{i != +} |xi - r_i|) deta: the root is divided
    out in closed form, so the integrand is smooth and free of cancellation.
    Past the lapse maximum the range is mirrored as xi = r_c - eta^2.  Each
    piece is a fixed 96-node Gauss-Legendre rule in eta.

    Parameters
    ----------
    p : ModelParams
        Must have three distinct positive horizons r_- < r_+ < r_c (at a
        double inner root the arclength from r_+ diverges).
    r : float
        Radius strictly inside (r_+, r_c).
    """
    hs = horizon_roots(p)
    if hs.classification != CLASS_GENERIC:
        raise ValueError(
            f"arclength_from_r needs distinct r_- < r_+ < r_c (classification: {hs.classification})"
        )
    r_plus, r_c = hs.r_plus, hs.r_cosmo
    if not (r_plus < r < r_c):
        raise ValueError(f"r = {r} outside the static range ({r_plus}, {r_c})")
    roots = np.array([root for root, _ in hs.roots])
    x, w = _eta_rule()

    def from_root(root: float, sign: float, radius: float) -> float:
        # int of f^-1/2 between root and radius, with xi = root + sign eta^2
        eta_max = math.sqrt(abs(radius - root))
        eta = 0.5 * eta_max * (x + 1.0)
        xi = root + sign * eta**2
        others = np.abs(xi[:, None] - roots[roots != root]).prod(axis=1)
        return 0.5 * eta_max * float(w @ (2.0 * xi / np.sqrt(p.lam / 3.0 * others)))

    r_peak = _lapse_peak(p, r_plus, r_c)
    if r <= r_peak:
        return from_root(r_plus, 1.0, r)
    return from_root(r_plus, 1.0, r_peak) + from_root(r_c, -1.0, r_peak) - from_root(r_c, -1.0, r)
