"""Static Einstein-Maxwell verification and area-charge inequalities.

Both model families are one static electrovacuum ansatz: the warped product
g = dx^2/N(x) + rho(x)^2 g_{S^2} with rho = rho0 + rho1 x, a potential V(x)
and a radial field of magnitude |E|^2 = Q^2/rho^4.

    family                        x    N(x)   rho0, rho1   V
    RNdS, de Sitter (ModelParams) r    f(r)   0, 1         sqrt(f)
    charged Nariai (NariaiParams) s    1      alpha, 0     sin(omega s)

This module evaluates the defining system

    Hess V = V (Ric - Lambda g + 2 E^b x E^b - |E|^2 g)
    Lap V  = (|E|^2 - Lambda) V

componentwise in closed form, with a finite-difference derivative path as the
double-entry partner, plus the divergence (Robinson-Shen type) identity and
the horizon area-charge bounds.  The Maxwell equations div E = 0 and
curl(V E) = 0 hold identically for the ansatz and are not evaluated: the flux
density sqrt(det g) E^x = Q sin(theta) does not depend on x, and
(V E)^b = V Q / (rho^2 sqrt(N)) dx is a function of x times dx, hence exact.
The hypothesis sup |E|^2 <= Lambda of the area-charge theorems is *reported*,
never assumed: the generic family can violate it at the inner horizon while
the conclusion still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
    robinson_shen_point: float | None = None


# ---------------------------------------------------------------------------
# the static ansatz
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StaticSystem:
    """g = dx^2/N + rho^2 g_{S^2}, potential V, |E|^2 = q2/rho^4 on (lo, hi).

    ``params`` is the (m, Q, Lambda) triple whose lapse the horizon data
    read.  An empty interval (lo == hi) is a double outer root: horizon data
    but no static region.
    """

    kind: str
    lo: float
    hi: float
    n: Callable
    n_prime: Callable
    rho0: float
    rho1: float
    v: Callable
    v_derivs: Callable  # closed-form (V', V'')
    q2: float
    lam: float
    params: ModelParams

    def rho(self, x):
        # an ndarray also for scalar x: numpy scalars and arrays round powers
        # differently, and the residuals are compared bit for bit
        return np.asarray(self.rho0 + self.rho1 * x, dtype=float)

    @property
    def horizons(self) -> list[float]:
        """Radii of the boundary spheres: the distinct positive rho at the ends."""
        return sorted({r for r in (float(self.rho(self.lo)), float(self.rho(self.hi))) if r > 0.0})

    @property
    def sup_e2(self) -> float:
        # rho is monotone in x, so |E|^2 peaks on the smallest horizon sphere
        return self.q2 / min(self.horizons) ** 4

    @property
    def rs_point(self) -> float:
        """Robinson-Shen point: the midpoint, or 0.6 hi next to a regular centre."""
        return 0.6 * self.hi if self.rho(self.lo) == 0.0 else 0.5 * (self.lo + self.hi)


def _static_system(model: ModelParams | NariaiParams) -> _StaticSystem:
    """The one place that tells the model families apart."""
    if isinstance(model, NariaiParams):
        omega = model.omega
        return _StaticSystem(
            kind="nariai", lo=0.0, hi=math.pi / omega,
            n=np.ones_like, n_prime=np.zeros_like, rho0=model.alpha, rho1=0.0,
            v=lambda s: np.sin(omega * s),
            v_derivs=lambda s: (omega * np.cos(omega * s), -(omega**2) * np.sin(omega * s)),
            q2=model.q2, lam=model.lam,
            params=ModelParams(m=model.m, q=model.q, lam=model.lam),
        )

    p = model
    hs = horizon_roots(p)
    if p.m == 0.0 and p.q == 0.0:
        kind, lo, hi = "desitter", 0.0, max(r for r, _ in hs.positive_roots)
    elif hs.classification in (CLASS_GENERIC, CLASS_DOUBLE_INNER):
        kind, lo, hi = "rnds", hs.r_plus, hs.r_cosmo
    elif hs.classification == CLASS_DOUBLE_OUTER:
        kind, lo, hi = "nariai", hs.r_plus, hs.r_plus
    else:
        raise ValueError(
            f"no static region between distinct horizons (classification: {hs.classification})"
        )

    def v_derivs(r):
        f, fp = lapse_squared(r, p), lapse_squared_prime(r, p)
        v = np.sqrt(f)
        return fp / (2.0 * v), lapse_squared_second(r, p) / (2.0 * v) - fp**2 / (4.0 * f * v)

    return _StaticSystem(
        kind=kind, lo=lo, hi=hi,
        n=lambda r: lapse_squared(r, p), n_prime=lambda r: lapse_squared_prime(r, p),
        rho0=0.0, rho1=1.0, v=lambda r: np.sqrt(lapse_squared(r, p)), v_derivs=v_derivs,
        q2=p.q**2, lam=p.lam, params=p,
    )


# ---------------------------------------------------------------------------
# pointwise residuals of the electrostatic system
# ---------------------------------------------------------------------------

_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _residuals(system: _StaticSystem, x: np.ndarray, vp: np.ndarray, vpp: np.ndarray) -> dict:
    """Componentwise residual magnitudes at x, given V' and V'' there."""
    n, n_p, rho, r1 = system.n(x), system.n_prime(x), system.rho(x), system.rho1
    v, lam, q2 = system.v(x), system.lam, system.q2
    e2 = q2 / rho**4
    ric_xx = -n_p * r1 / (rho * n)
    ric_tan = 1.0 - n * r1**2 - rho * r1 * n_p / 2.0  # theta-theta coordinate component
    hess_xx = vpp + n_p / (2.0 * n) * vp
    hess_tan = rho * r1 * n * vp
    lap = n * vpp + (2.0 * n * r1 / rho + n_p / 2.0) * vp
    return {
        "hessian_rr": np.abs(hess_xx - v * (ric_xx - lam / n + 2.0 * q2 / (rho**4 * n) - e2 / n)),
        "hessian_tangential": np.abs(hess_tan - v * (ric_tan - lam * rho**2 - e2 * rho**2)),
        "laplace": np.abs(lap - (e2 - lam) * v),
    }


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
    system = _static_system(model)
    lo, hi = system.lo, system.hi
    if not lo < hi:
        raise ValueError(
            f"no static region between distinct horizons (classification: {CLASS_DOUBLE_OUTER})"
        )
    width = hi - lo
    pts = np.linspace(lo + 0.05 * width, hi - 0.05 * width, samples)
    # the derivative scale of V at a sample is its distance to the nearest
    # end (the square-root potential steepens at a horizon); scale each
    # five-point stencil to that distance so margin samples of narrow windows
    # stay truncation-dominated
    h = np.minimum(2e-4, 1e-2 * np.minimum(pts - lo, hi - pts))
    vs = system.v(pts[:, None] + h[:, None] * _STENCIL[None, :])
    fd_vp = (vs[:, 0] - 8 * vs[:, 1] + 8 * vs[:, 3] - vs[:, 4]) / (12 * h)
    fd_vpp = (-vs[:, 0] + 16 * vs[:, 1] - 30 * vs[:, 2] + 16 * vs[:, 3] - vs[:, 4]) / (12 * h**2)
    closed = _residuals(system, pts, *system.v_derivs(pts))
    fd = _residuals(system, pts, fd_vp, fd_vpp)
    sup_e2 = system.sup_e2

    return ElectrostaticReport(
        kind=system.kind,
        lam=system.lam,
        residuals={k: float(np.max(v)) for k, v in closed.items()},
        fd_gaps={k: float(np.max(np.abs(closed[k] - fd[k]))) for k in closed},
        sup_e2=sup_e2,
        hypothesis_sup_e2_le_lambda=bool(sup_e2 <= system.lam),
        robinson_shen_point=system.rs_point,
    )


# ---------------------------------------------------------------------------
# Robinson-Shen type divergence identity
# ---------------------------------------------------------------------------

_CBRT_EPS = math.cbrt(np.finfo(float).eps)  # 6.06e-6


def robinson_shen_residual(
    model: ModelParams | NariaiParams, point: float, h: float = 1e-4
) -> float:
    """Residual of the divergence identity

        div[(1/V)(grad |grad V|^2 - (2 Lap V / n) grad V)]
            = (2/V) |tracefree Hess V|^2 + (2(n-1)/n) <grad |E|^2, grad V>

    at one interior point (radius for the de Sitter family, arclength for
    Nariai).  V, N and |E|^2 are sampled and *all* derivatives are nested
    three-point central differences over a five-point footprint of width h,
    so the residual converges to zero at second order in h on the exact
    models.

    The nested differences carry roundoff of order eps/h^3, which is O(1)
    below h = cbrt(eps) max(1, |point|) (about 6e-6 at |point| <= 1); there
    the residual measures roundoff, or reads exactly 0 once point +- h rounds
    to point, so such steps are refused.

    Raises
    ------
    ValueError
        If h is not finite and positive, if h is below the roundoff floor
        cbrt(eps) max(1, |point|), if the footprint point +- 3h leaves the
        static region, if V <= 1e-8 somewhere on the footprint (too close to
        a horizon for the 1/V terms to be conditioned), or if the residual is
        not finite.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and positive, got {h}")
    floor = _CBRT_EPS * max(1.0, abs(point))
    if h < floor:
        raise ValueError(
            f"h = {h} is below the step floor {floor:.3g} = cbrt(eps) max(1, |point|): "
            "the nested differences would measure roundoff"
        )
    system = _static_system(model)
    lo, hi = point - 3.0 * h, point + 3.0 * h
    if not (system.lo < lo and hi < system.hi):
        raise ValueError(
            f"h = {h} is too wide: the stencil footprint point +- 3h = [{lo:.6g}, {hi:.6g}] "
            f"leaves the static region ({system.lo:.6g}, {system.hi:.6g})"
        )
    n = 3  # spatial dimension
    vfun, nfun, rho, r1 = system.v, system.n, system.rho, system.rho1

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

    def e2fun(x):
        return system.q2 / rho(x) ** 4

    def measure(x):
        # volume density rho^2 / sqrt(N) per unit coordinate x and solid angle
        return rho(x) ** 2 / np.sqrt(nfun(x))

    def lap_v(x):
        g = nfun(x)
        return g * d2(vfun, x) + (2.0 * g * r1 / rho(x) + d1(nfun, x) / 2.0) * d1(vfun, x)

    def grad_sq(x):
        return nfun(x) * d1(vfun, x) ** 2

    def x_radial(x):
        # X = (1/V)(grad|gradV|^2 - (2 LapV/n) grad V), x component
        return (nfun(x) * d1(grad_sq, x) - (2.0 * lap_v(x) / n) * nfun(x) * d1(vfun, x)) / vfun(x)

    with np.errstate(all="ignore"):  # a non-finite residual is refused below
        div_x = d1(lambda x: measure(x) * x_radial(x), point) / measure(point)
        # orthonormal Hessian components of V
        g = nfun(point)
        h11 = g * d2(vfun, point) + d1(nfun, point) / 2.0 * d1(vfun, point)
        h22 = g * r1 * d1(vfun, point) / rho(point)
        t = h11 + 2.0 * h22
        tracefree_sq = (h11 - t / n) ** 2 + 2.0 * (h22 - t / n) ** 2
        inner = g * d1(e2fun, point) * d1(vfun, point)
        rhs = (2.0 / vfun(point)) * tracefree_sq + (2.0 * (n - 1.0) / n) * inner
        residual = float(abs(div_x - rhs))
    if not math.isfinite(residual):
        raise ValueError(f"Robinson-Shen residual is not finite at h = {h}")
    return residual


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
    system = _static_system(model)
    comps = [_component(r, system.params) for r in system.horizons]
    lhs = sum(c.k * c.bound_lhs for c in comps)
    rhs = 6.0 * math.pi * sum(c.k * c.euler for c in comps)
    sup_e2 = system.sup_e2
    return ElectrostaticReport(
        kind=system.kind,
        lam=system.lam,
        sup_e2=sup_e2,
        hypothesis_sup_e2_le_lambda=bool(sup_e2 <= system.lam),
        components=comps,
        weighted_sum_lhs=float(lhs),
        weighted_sum_rhs=float(rhs),
    )
