"""Static Einstein-Maxwell verification and area-charge inequalities.

The two model families are exact electrostatic systems:

* the static charged de Sitter slice g = f^{-1} dr^2 + r^2 g_{S^2} with
  potential V = sqrt(f) and radial field of magnitude |E| = Q/r^2, and
* the charged Nariai cylinder g = ds^2 + alpha^2 g_{S^2} with
  V = sin(omega s) and constant |E| = Q/alpha^2.

This module evaluates the defining system

    Hess V = V (Ric - Lambda g + 2 E^b x E^b - |E|^2 g)
    Lap V  = (|E|^2 - Lambda) V
    div E  = 0,   curl(V E) = 0

componentwise in closed form, with a finite-difference derivative path as the
double-entry partner, plus the divergence (Robinson-Shen type) identity and
the horizon area-charge bounds.  The hypothesis sup |E|^2 <= Lambda of the
area-charge theorems is *reported*, never assumed: the generic family can
violate it at the inner horizon while the conclusion still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import (
    CLASS_DOUBLE_INNER,
    CLASS_DOUBLE_OUTER,
    CLASS_GENERIC,
    ModelParams,
    NariaiParams,
    horizon_roots,
    lapse_squared,
    lapse_squared_prime,
    lapse_squared_second,
    surface_gravity,
)

__all__ = [
    "BoundaryComponent",
    "ElectrostaticReport",
    "verify_einstein_maxwell_static",
    "robinson_shen_residual",
    "area_charge_report",
]


@dataclass
class BoundaryComponent:
    """One horizon sphere of the static region."""

    r: float
    k: float          # surface gravity = constant restriction of |grad V|
    area: float
    euler: int        # Euler characteristic (2: spheres)
    charge: float
    bound_lhs: float  # Lambda |dN| + 48 pi^2 Q^2 / |dN|
    bound_rhs: float  # 12 pi
    satisfied: bool


@dataclass
class ElectrostaticReport:
    """Residuals and area-charge data for one model instance."""

    kind: str
    lam: float
    residuals: dict = field(default_factory=dict)
    fd_gaps: dict = field(default_factory=dict)
    sup_e2: float | None = None
    hypothesis_sup_e2_le_lambda: bool | None = None
    components: list[BoundaryComponent] = field(default_factory=list)
    weighted_sum_lhs: float | None = None
    weighted_sum_rhs: float | None = None
    robinson_shen: float | None = None


# ---------------------------------------------------------------------------
# pointwise residuals of the electrostatic system
# ---------------------------------------------------------------------------


def _rnds_residuals(p: ModelParams, r: np.ndarray, derivs: str, fd_step=2e-4):
    """Componentwise residual magnitudes at radii r (inside the static range).

    ``derivs`` selects how V', V'' are obtained: "closed" uses the exact
    formulas for V = sqrt(f); "fd" differentiates sampled V by five-point
    central stencils of width ``fd_step`` (scalar or per-sample array; the
    caller shrinks it toward the horizons, where the square-root potential
    has unbounded derivatives).
    """
    f = lapse_squared(r, p)
    if np.any(f <= 0):
        raise ValueError("sample outside the static region (f <= 0)")
    fp = lapse_squared_prime(r, p)
    v = np.sqrt(f)
    if derivs == "closed":
        fpp = lapse_squared_second(r, p)
        vp = fp / (2.0 * v)
        vpp = fpp / (2.0 * v) - fp**2 / (4.0 * f * v)
    elif derivs == "fd":
        h = np.broadcast_to(np.asarray(fd_step, dtype=float), r.shape)
        offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        vs = np.sqrt(lapse_squared(r[:, None] + h[:, None] * offsets[None, :], p))
        vp = (vs[:, 0] - 8 * vs[:, 1] + 8 * vs[:, 3] - vs[:, 4]) / (12 * h)
        vpp = (-vs[:, 0] + 16 * vs[:, 1] - 30 * vs[:, 2] + 16 * vs[:, 3] - vs[:, 4]) / (12 * h**2)
    else:  # pragma: no cover
        raise ValueError(derivs)

    e2 = p.q**2 / r**4
    ric_rr = -fp / (r * f)
    ric_tan = 1.0 - f - r * fp / 2.0  # theta-theta coordinate component
    hess_rr = vpp + fp / (2.0 * f) * vp
    hess_tan = r * f * vp
    lap = f * vpp + (2.0 * f / r + fp / 2.0) * vp

    res = {
        "hessian_rr": np.abs(hess_rr - v * (ric_rr - p.lam / f + 2.0 * p.q**2 / (r**4 * f) - e2 / f)),
        "hessian_tangential": np.abs(hess_tan - v * (ric_tan - p.lam * r**2 - e2 * r**2)),
        "laplace": np.abs(lap - (e2 - p.lam) * v),
        # radial ansatz: r^2 |E| / V ... the scaled flux density r^2 E^r/sqrt(f)
        # equals Q identically, so its derivative vanishes termwise
        "div_e": np.zeros_like(r),
        # (V E)^flat = (Q/r^2) dr is exact (= d(-Q/r)), and the angular
        # components vanish identically for the radial ansatz
        "curl_ve": np.zeros_like(r),
    }
    return res


def _nariai_residuals(npar: NariaiParams, s: np.ndarray, derivs: str):
    omega = npar.omega
    v = np.sin(omega * s)
    if np.any(v <= 0):
        raise ValueError("sample outside (0, pi/omega) (V <= 0)")
    if derivs == "closed":
        vp = omega * np.cos(omega * s)
        vpp = -(omega**2) * v
    elif derivs == "fd":
        h = 2e-4
        stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        vs = np.sin(omega * (s[:, None] + stencil[None, :]))
        vp = (vs[:, 0] - 8 * vs[:, 1] + 8 * vs[:, 3] - vs[:, 4]) / (12 * h)
        vpp = (-vs[:, 0] + 16 * vs[:, 1] - 30 * vs[:, 2] + 16 * vs[:, 3] - vs[:, 4]) / (12 * h**2)
    else:  # pragma: no cover
        raise ValueError(derivs)

    a2 = npar.alpha**2
    e2 = npar.q2 / a2**2
    res = {
        # ss-component: Hess_ss = V'', RHS = V(0 - Lambda + 2 e2 - e2)
        "hessian_rr": np.abs(vpp - v * (e2 - npar.lam)),
        # tangential coordinate component: Hess = 0, Ric_theta_theta = 1
        "hessian_tangential": np.abs(v * (1.0 - npar.lam * a2 - npar.q2 / a2) * np.ones_like(s)),
        "laplace": np.abs(vpp - (e2 - npar.lam) * v),
        "div_e": np.zeros_like(s),
        "curl_ve": np.zeros_like(s),
    }
    return res


def verify_einstein_maxwell_static(
    model: ModelParams | NariaiParams, samples: int = 32
) -> ElectrostaticReport:
    """Residuals of the electrostatic system on one exact model.

    Samples the interior of the static region, evaluates every equation of
    the system with closed-form derivatives (reported residuals) and repeats
    the evaluation with finite-difference derivatives; the per-equation gap
    between the two derivative paths is reported alongside (double-entry
    bookkeeping).

    The closed-form residuals are machine-small on every admissible model.
    The FD gaps sit below 1e-6 away from the degenerate corner of the family;
    as the static interval collapses (ultracold limit) the square-root
    potential steepens faster than any fixed-precision difference scheme can
    follow and the best recoverable gap decays to about 1e-4.  The gap is a
    conditioning meter there, not a correctness statement.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if isinstance(model, NariaiParams):
        kind = "nariai"
        lam = model.lam
        span = math.pi / model.omega
        pts = np.linspace(0.05 * span, 0.95 * span, samples)
        closed = _nariai_residuals(model, pts, "closed")
        fd = _nariai_residuals(model, pts, "fd")
        sup_e2 = model.q2 / model.alpha**4
        rs_point = 0.5 * span
    else:
        lam = model.lam
        hs = horizon_roots(model)
        if model.m == 0.0 and model.q == 0.0:
            kind = "desitter"
            r_lo, r_hi = 0.0, max(r for r, _ in hs.positive_roots)
        elif hs.classification in (CLASS_GENERIC, CLASS_DOUBLE_INNER):
            kind = "rnds"
            r_lo, r_hi = hs.r_plus, hs.r_cosmo
        else:
            raise ValueError(
                f"no static region between distinct horizons (classification: {hs.classification})"
            )
        width = r_hi - r_lo
        pts = np.linspace(r_lo + 0.05 * width, r_hi - 0.05 * width, samples)
        # the derivative scale of V = sqrt(f) at a sample is its distance to
        # the nearest horizon; scale each stencil to that distance so margin
        # samples of narrow windows stay truncation-dominated
        dist = np.minimum(pts - r_lo, r_hi - pts)
        fd_step = np.minimum(2e-4, 1e-2 * dist)
        closed = _rnds_residuals(model, pts, "closed")
        fd = _rnds_residuals(model, pts, "fd", fd_step=fd_step)
        sup_e2 = model.q**2 / r_lo**4 if (model.q != 0.0 and r_lo > 0.0) else 0.0
        rs_point = 0.5 * (r_lo + r_hi) if r_lo > 0.0 else 0.6 * r_hi

    return ElectrostaticReport(
        kind=kind,
        lam=lam,
        residuals={k: float(np.max(v)) for k, v in closed.items()},
        fd_gaps={k: float(np.max(np.abs(closed[k] - fd[k]))) for k in closed},
        sup_e2=sup_e2,
        hypothesis_sup_e2_le_lambda=bool(sup_e2 <= lam),
        robinson_shen=robinson_shen_residual(model, rs_point),
    )


# ---------------------------------------------------------------------------
# Robinson-Shen type divergence identity
# ---------------------------------------------------------------------------


def robinson_shen_residual(
    model: ModelParams | NariaiParams, point: float, n: int = 3, h: float = 1e-4
) -> float:
    """Residual of the divergence identity

        div[(1/V)(grad |grad V|^2 - (2 Lap V / n) grad V)]
            = (2/V) |tracefree Hess V|^2 + (2(n-1)/n) <grad |E|^2, grad V>

    at one interior point (radius for the de Sitter family, arclength for
    Nariai).  V and |E|^2 are sampled and *all* derivatives are nested
    three-point central differences over a five-point footprint of width h,
    so the residual converges to zero at second order in h on the exact
    models.

    Raises
    ------
    ValueError
        If V <= 1e-8 somewhere on the stencil (too close to a horizon for
        the 1/V terms to be conditioned).
    """
    if isinstance(model, NariaiParams):
        omega = model.omega
        vfun = lambda s: np.sin(omega * np.asarray(s, dtype=float))
        e2fun = lambda s: np.full_like(np.asarray(s, dtype=float), model.q2 / model.alpha**4)
        grr = lambda s: np.ones_like(np.asarray(s, dtype=float))
        radial_measure = None
    else:
        p = model
        vfun = lambda r: np.sqrt(lapse_squared(np.asarray(r, dtype=float), p))
        e2fun = lambda r: p.q**2 / np.asarray(r, dtype=float) ** 4
        grr = lambda r: lapse_squared(np.asarray(r, dtype=float), p)
        radial_measure = lambda r: np.asarray(r, dtype=float) ** 2 / np.sqrt(
            lapse_squared(np.asarray(r, dtype=float), p)
        )

    def d1(fun, x):
        return (fun(x + h) - fun(x - h)) / (2.0 * h)

    def d2(fun, x):
        return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / (h * h)

    # conditioning guard over the full nested footprint (depth three)
    probe = point + h * np.arange(-3.0, 4.0)
    with np.errstate(invalid="ignore"):
        vprobe = vfun(probe)
    if np.any(~np.isfinite(vprobe)) or np.any(vprobe <= 1e-8):
        raise ValueError("stencil too close to a horizon: V <= 1e-8 on the footprint")

    def lap_v(x):
        if isinstance(model, NariaiParams):
            return d2(vfun, x)
        g = grr(x)
        # Lap V = f V'' + (2 f/r + f'/2) V' for the radial slice metric
        gp = d1(grr, x)
        return g * d2(vfun, x) + (2.0 * g / x + gp / 2.0) * d1(vfun, x)

    def grad_sq(x):
        return grr(x) * d1(vfun, x) ** 2

    def x_radial(x):
        # X = (1/V)(grad|gradV|^2 - (2 LapV/n) grad V), radial component
        return (grr(x) * d1(grad_sq, x) - (2.0 * lap_v(x) / n) * grr(x) * d1(vfun, x)) / vfun(x)

    if isinstance(model, NariaiParams):
        div_x = d1(x_radial, point)
        vpp = d2(vfun, point)
        tracefree_sq = (2.0 / 3.0) * vpp**2
        inner = d1(e2fun, point) * d1(vfun, point)
    else:
        phi_fun = lambda x: radial_measure(x) * x_radial(x)
        div_x = d1(phi_fun, point) / radial_measure(point)
        # orthonormal Hessian components of V on the radial slice metric
        g = grr(point)
        gp = d1(grr, point)
        h11 = g * d2(vfun, point) + gp / 2.0 * d1(vfun, point)
        h22 = g * d1(vfun, point) / point
        t = h11 + 2.0 * h22
        tracefree_sq = (h11 - t / n) ** 2 + 2.0 * (h22 - t / n) ** 2
        inner = g * d1(e2fun, point) * d1(vfun, point)

    rhs = (2.0 / vfun(point)) * tracefree_sq + (2.0 * (n - 1.0) / n) * inner
    return float(abs(div_x - rhs))


# ---------------------------------------------------------------------------
# area-charge inequalities at the horizons
# ---------------------------------------------------------------------------


def _component(r: float, p: ModelParams) -> BoundaryComponent:
    k = surface_gravity(r, p)
    a = 4.0 * math.pi * r**2
    lhs = p.lam * a + 48.0 * math.pi**2 * p.q**2 / a
    return BoundaryComponent(
        r=r, k=k, area=a, euler=2, charge=p.q,
        bound_lhs=lhs, bound_rhs=12.0 * math.pi,
        satisfied=bool(lhs <= 12.0 * math.pi + 1e-12),
    )


def area_charge_report(model: ModelParams | NariaiParams) -> ElectrostaticReport:
    """Horizon data and both area-charge bounds for one model instance.

    Per boundary component i: surface gravity k_i, area, Euler number 2,
    charge, and the single-component bound Lambda|dN_i| + 48 pi^2 Q^2/|dN_i|
    <= 12 pi.  The weighted multi-component form compares
    sum k_i (Lambda |dN_i| + 48 pi^2 Q^2/|dN_i|) with 6 pi sum k_i chi_i.
    The hypothesis flag records whether sup |E|^2 <= Lambda actually holds on
    the static region (it can fail while the conclusions still hold).
    """
    if isinstance(model, NariaiParams):
        p = ModelParams(m=model.m, q=model.q, lam=model.lam)
        comps = [_component(model.alpha, p)]
        kind = "nariai"
        sup_e2 = model.q2 / model.alpha**4
        lam = model.lam
    else:
        p = model
        lam = p.lam
        hs = horizon_roots(p)
        if p.m == 0.0 and p.q == 0.0:
            kind = "desitter"
            comps = [_component(max(r for r, _ in hs.positive_roots), p)]
            sup_e2 = 0.0
        elif hs.classification in (CLASS_GENERIC, CLASS_DOUBLE_INNER):
            kind = "rnds"
            comps = [_component(hs.r_plus, p), _component(hs.r_cosmo, p)]
            sup_e2 = p.q**2 / hs.r_plus**4
        elif hs.classification == CLASS_DOUBLE_OUTER:
            kind = "nariai"
            comps = [_component(hs.r_plus, p)]
            sup_e2 = p.q**2 / hs.r_plus**4
        else:
            raise ValueError(
                f"no horizon boundary to report on (classification: {hs.classification})"
            )

    lhs = sum(c.k * c.bound_lhs for c in comps)
    rhs = 6.0 * math.pi * sum(c.k * c.euler for c in comps)
    return ElectrostaticReport(
        kind=kind,
        lam=lam,
        sup_e2=sup_e2,
        hypothesis_sup_e2_le_lambda=bool(sup_e2 <= lam),
        components=comps,
        weighted_sum_lhs=float(lhs),
        weighted_sum_rhs=float(rhs),
    )
