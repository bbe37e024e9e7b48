"""Warped-product profiles u(s) and their closed-form geometry.

The metric g = ds^2 + u(s)^2 g_{S^2} solves the static constraint iff

    u'' = (1 - u'^2) / (2u) - (Lambda u^4 + Q^2) / (2 u^3),

with the slice mass

    I(s) = (u/2) (1 - u'^2 - Lambda u^2/3 + Q^2/u^2)

as a first integral.  Profiles are integrated as an initial value problem
from the neck (u, u')(0) = (a, 0) and extended to negative arclength by the
reflection u(-s) = u(s).

Sign convention (used consistently across the package): the unit normal of a
slice is nu = +d/ds and the mean curvature is H = -2 u'/u, so expanding
slices (u' > 0) have H < 0 while their area grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .models import (
    CLASS_DOUBLE_INNER,
    CLASS_GENERIC,
    ModelParams,
    horizon_roots,
    lapse_squared,
    lapse_squared_prime,
    params_from_neck,
)

__all__ = [
    "RadialProfile",
    "ElectricFieldSample",
    "ProfileIntegrationError",
    "integrate_profile",
    "first_integral",
    "curvature_scalars",
    "electric_field",
    "arclength_from_r",
    "profile_rhs",
]

KIND_RNDS = "rnds"
KIND_NARIAI = "nariai"


class ProfileIntegrationError(RuntimeError):
    """Integration stopped before reaching s_max (u -> 0 or step collapse)."""

    def __init__(self, message: str, last_s: float):
        super().__init__(f"{message} (last valid s = {last_s:.6g})")
        self.last_s = last_s


def profile_rhs(u: float, du: float, q: float, lam: float):
    """Right-hand side u'' of the profile equation."""
    return (1.0 - du**2) / (2.0 * u) - (lam * u**4 + q**2) / (2.0 * u**3)


def _like(values, s):
    """A float for scalar s, else the array."""
    return float(values) if np.ndim(s) == 0 else values


@dataclass
class ElectricFieldSample:
    """Radial electric field sampled on one slice: E = (Q/u^2) d/ds."""

    q: float
    magnitude: float
    flux: float  # integral of <E, nu> over the slice, equals 4 pi Q


@dataclass(eq=False)
class RadialProfile:
    """Integrated profile with dense output, mirrored across the neck."""

    a: float
    q: float
    lam: float
    m: float
    kind: str
    s_max: float
    tol: float
    samples: np.ndarray  # columns: s, u, u', u''
    _sol: object = field(repr=False)  # scipy dense output on [0, s_max]

    def _check_range(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(np.abs(s) > self.s_max * (1.0 + 1e-12)):
            raise ValueError(f"arclength outside integrated range [-{self.s_max}, {self.s_max}]")
        return s

    def state(self, s):
        """(u, u', u'') at arclength s: u and u'' even in s, u' odd.

        Vectorised over s of any shape (u'' through the profile equation);
        raises ValueError outside [-s_max, s_max].
        """
        s = self._check_range(s)
        u, du = self._sol(np.abs(s).ravel()).reshape((2,) + s.shape)
        du = np.sign(s) * du
        return u, du, profile_rhs(u, du, self.q, self.lam)

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
    method: str = "DOP853",
) -> RadialProfile:
    """Integrate the profile equation from a neck of radius a.

    Parameters
    ----------
    a : float
        Neck radius; must be a minimal slice of the induced model, i.e.
        u''(0) >= 0 (necks and cylinders, not bellies).
    q, lam : float
        Charge and cosmological constant.
    s_max : float
        Half-width of the integrated arclength range [-s_max, s_max].
    tol : float
        Relative and absolute integrator tolerance, within [1e-14, 1e-6].
    method : str
        Any scipy.integrate.solve_ivp explicit scheme with dense output;
        two different step controllers must agree on the solution (the
        numerical stand-in for ODE uniqueness).

    Returns
    -------
    RadialProfile

    Raises
    ------
    ProfileIntegrationError
        If u collapses toward zero or the integrator gives up early.
    """
    if a <= 0.0:
        raise ValueError("integrate_profile requires a > 0")
    if not (1e-14 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-14, 1e-6]")
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")
    ddu0 = profile_rhs(a, 0.0, q, lam)
    if ddu0 < -1e-10:
        raise ValueError(
            f"(a, Q, Lambda) = ({a}, {q}, {lam}) starts at a belly (u''(0) = {ddu0:.3e} < 0)"
        )

    def rhs(s, y):
        return [y[1], profile_rhs(y[0], y[1], q, lam)]

    def collapse(s, y):
        return y[0] - 1e-3 * a

    collapse.terminal = True
    collapse.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, s_max),
        [a, 0.0],
        method=method,
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=collapse,
    )
    if sol.status == 1:  # collapse event fired
        raise ProfileIntegrationError("profile radius collapsed toward zero", sol.t[-1])
    if not sol.success:
        raise ProfileIntegrationError(sol.message, sol.t[-1])

    m = params_from_neck(a, q, lam).m
    # Constant solutions exist exactly when Q^2 = a^2 (1 - Lambda a^2).
    kind = KIND_NARIAI if abs(1.0 - lam * a**2 - q**2 / a**2) <= 1e-12 else KIND_RNDS

    prof = RadialProfile(
        a=a, q=q, lam=lam, m=m, kind=kind, s_max=s_max, tol=tol,
        samples=np.empty((0, 4)), _sol=sol.sol,
    )
    s_grid = np.linspace(-s_max, s_max, 513)
    prof.samples = np.column_stack([s_grid, *prof.state(s_grid)])
    return prof


def first_integral(prof: RadialProfile, s):
    """Slice mass I(s) = (u/2)(1 - u'^2 - Lambda u^2/3 + Q^2/u^2).

    Constant (equal to prof.m) along exact solutions; deviations measure
    integrator error.
    """
    u = prof.u(s)
    du = prof.du(s)
    return 0.5 * u * (1.0 - du**2 - prof.lam * u**2 / 3.0 + prof.q**2 / u**2)


def curvature_scalars(prof: RadialProfile, s) -> dict:
    """Closed-form curvature data of the warped product at arclength s.

    Returns
    -------
    dict with keys
        R       : ambient scalar curvature  -4u''/u + 2(1 - u'^2)/u^2
        ric_nn  : ambient Ricci along d/ds   -2u''/u
        k_slice : intrinsic Gauss curvature of the slice, 1/u^2
        h_slice : slice mean curvature, -2u'/u  (nu = +d/ds convention)
        a2_slice: squared norm of the slice second fundamental form, H^2/2
    """
    u = prof.u(s)
    du = prof.du(s)
    ddu = prof.ddu(s)
    h = -2.0 * du / u
    return {
        "R": -4.0 * ddu / u + 2.0 * (1.0 - du**2) / u**2,
        "ric_nn": -2.0 * ddu / u,
        "k_slice": 1.0 / u**2,
        "h_slice": h,
        "a2_slice": 0.5 * h**2,
    }


def electric_field(prof: RadialProfile, s) -> ElectricFieldSample:
    """Electric field magnitude |E| = |Q|/u(s)^2 and slice flux 4 pi Q."""
    u = prof.u(s)
    return ElectricFieldSample(
        q=prof.q,
        magnitude=abs(prof.q) / u**2,
        flux=4.0 * math.pi * prof.q,
    )


def arclength_from_r(p: ModelParams, r: float) -> float:
    """Arclength s(r) = int_{r_+}^{r} f^{-1/2} from the neck to radius r.

    The inverse-square-root endpoint singularities are absorbed by the
    substitution xi = r_+ + eta^2 (mirrored as xi = r_c - eta^2 past the
    lapse maximum), leaving smooth integrands for scipy.integrate.quad.

    Parameters
    ----------
    p : ModelParams
        Must have distinct horizons r_+ < r_c.
    r : float
        Radius strictly inside (r_+, r_c).
    """
    hs = horizon_roots(p)
    if hs.classification not in (CLASS_GENERIC, CLASS_DOUBLE_INNER):
        raise ValueError(
            f"arclength_from_r needs distinct r_+ < r_c (classification: {hs.classification})"
        )
    r_plus, r_c = hs.r_plus, hs.r_cosmo
    if not (r_plus < r < r_c):
        raise ValueError(f"r = {r} outside the static range ({r_plus}, {r_c})")

    # Split at the lapse maximum so each piece sees only one singular endpoint.
    r_peak = brentq(lambda x: lapse_squared_prime(x, p), r_plus * (1 + 1e-12), r_c * (1 - 1e-12))

    def eta_integrand(root, sign):
        # f(root +/- eta^2) = |f'(root)| eta^2 + O(eta^4); fall back to the
        # linearization where float cancellation at the polished root makes
        # the sampled lapse nonpositive (|eta| below ~1e-7)
        kprime = abs(lapse_squared_prime(root, p))

        def g(eta):
            f = lapse_squared(root + sign * eta * eta, p)
            if f <= 0.0:
                f = kprime * eta * eta
            return 2.0 * eta / math.sqrt(f)

        return g

    def from_inner(radius):
        val, _ = quad(eta_integrand(r_plus, +1.0), 0.0, math.sqrt(radius - r_plus), limit=200)
        return val

    def from_outer(radius):
        # int_{radius}^{r_c} f^-1/2 with xi = r_c - eta^2
        val, _ = quad(eta_integrand(r_c, -1.0), 0.0, math.sqrt(r_c - radius), limit=200)
        return val

    if r <= r_peak:
        return from_inner(r)
    return from_inner(r_peak) + (from_outer(r_peak) - from_outer(r))
