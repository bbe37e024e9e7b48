"""First and second variations of the charged Hawking mass, with oracles.

The canonical first variation is the divergence form

    d/dt m_CH = -(2 |S|^(1/2) / (16 pi)^(3/2)) int (Lap H + Z H) phi,

with the criticality density

    Z = 4 pi/|S| - K - 16 pi^2 Q^2/|S|^2 + (R - zeta)/2
        + (2|A|^2 - (1/|S|) int H^2) / 4,

which vanishes identically on model slices; slices are therefore critical for
every variation speed.  On a minimal slice the canonical second variation is

    d2/dt2 m_CH = (|S|^(1/2) / 32 pi^(3/2)) [ Ric(nu,nu) int |grad phi|^2
                                              - int (Lap phi)^2 ],

with Ric(nu,nu) = 1 - 4 pi/|S| + 16 pi^2 Q^2/|S|^2.

A variant set of coefficients replaces zeta = 2 Lambda by Lambda itself
(``use_lambda_coefficient`` / ``second_variation_as_printed``).  That variant
is *not* used as truth: it fails the constant-speed null test (slices have
constant mass, so constant phi must give zero), and it disagrees with the
finite-difference oracles.  It is kept purely for discrepancy reporting; the
exact gap for any phi is prefactor * (zeta - Lambda)/2 * (-int phi L phi).

Every analytic formula here is adjudicated against central finite differences
of the quadrature mass functional t -> m_CH(graph(t phi)), which in this
warped product realizes the normal variation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import NariaiParams, lapse_squared_prime
from .profile import RadialProfile, integrate_profile
from .sphere import ScalarField, _random_c2_stack, build_grid, c2_norm, coeff_index
from .spectrum import lambda1_analytic, stability_window
from .surfaces import (
    GraphSurface,
    SurfaceGeometry,
    _geometry_from_derivs,
    _graph_geometry,
    induced_geometry,
    slice_hawking_mass,
)

__all__ = [
    "VariationReport",
    "FoliationState",
    "MonotonicityReport",
    "FDDerivative",
    "LocalMaxReport",
    "NariaiFlowReport",
    "z_functional",
    "first_variation",
    "first_variation_fd",
    "second_variation_minimal",
    "second_variation_as_printed",
    "second_variation_fd",
    "strict_instability_constant",
    "cmc_foliation",
    "monotonicity_report",
    "local_max_experiment",
    "nariai_flow_diagnostic",
    "area_charge_value",
    "mass_of_scaled_graph",
    "variation_report",
]


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------


@dataclass
class VariationReport:
    """Analytic-vs-oracle summary for one (slice, speed field) pair."""

    first_analytic: float
    first_fd: float
    first_order: float
    z_max: float
    dt: float
    second_analytic: float | None = None
    second_as_printed: float | None = None
    second_fd: float | None = None
    second_fd_step_gap: float | None = None


@dataclass
class FoliationState:
    """One slice of the model CMC foliation (lapse identically one)."""

    t: float
    u: float
    du: float
    h_mean: float
    dh_dt: float
    lambda1: float
    rho: float
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
class FDDerivative:
    """Central-difference derivative with Richardson order estimate."""

    value: float  # Richardson-extrapolated
    d_h: float
    d_h2: float
    d_h4: float
    order: float


@dataclass
class LocalMaxReport:
    """Seeded sampling experiment around a strictly stable neck."""

    a: float
    q: float
    n_samples: int
    amplitude: float
    seed: int
    max_excess: float
    n_near_equality: int
    max_nonconstant_c2: float
    all_near_equality_are_slices: bool


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


# ---------------------------------------------------------------------------
# pointwise functionals
# ---------------------------------------------------------------------------


def z_functional(geom: SurfaceGeometry, zeta: float | None = None) -> np.ndarray:
    """Criticality density Z evaluated pointwise on the surface.

    Vanishes identically on slices of the model backgrounds (the five terms
    cancel in closed form); its surface integral is nonnegative on tested
    graphs.
    """
    if zeta is None:
        zeta = geom.zeta
    h2_mean = geom.integral(geom.h_mean**2) / geom.area
    return (
        4.0 * math.pi / geom.area
        - geom.gauss_k
        - 16.0 * math.pi**2 * geom.charge**2 / geom.area**2
        + 0.5 * (geom.r_ambient - zeta)
        + 0.25 * (2.0 * geom.a_norm2 - h2_mean)
    )


def first_variation(
    geom: SurfaceGeometry,
    phi: ScalarField,
    zeta: float | None = None,
    use_lambda_coefficient: bool = False,
) -> float:
    """Canonical first variation of m_CH for the *normal* speed field phi.

    Evaluates -(2 sqrt(|S|)/(16 pi)^(3/2)) int (Lap H + Z H) phi, with the
    Laplacian term integrated by parts to int <grad H, grad phi> so only
    first derivatives of H enter.  With ``use_lambda_coefficient`` the
    coefficient zeta in Z is replaced by Lambda (discrepancy-reporting
    variant, see module docstring).

    phi is the speed in the unit-normal direction.  Differentiating the
    vertical graph family height -> height + t psi instead moves points
    along d/ds, which is the normal speed psi / W plus a tangential
    reparametrization; over slices W = 1 and the two families agree exactly.
    """
    grid = geom.grid
    if (phi.grid.n_theta, phi.grid.n_phi) != (grid.n_theta, grid.n_phi):
        raise ValueError("speed field lives on a different grid")
    if use_lambda_coefficient:
        zeta = geom.surface.profile.lam
    return _first_variation(geom, grid.analyze(phi.values), zeta)


def _first_variation(geom: SurfaceGeometry, phi_coeffs: np.ndarray, zeta: float | None) -> float:
    """``first_variation`` from the harmonic coefficients of phi on geom's grid."""
    grid = geom.grid
    z = z_functional(geom, zeta)
    d_h = grid.synth_derivs(grid.analyze(geom.h_mean))
    d_phi = grid.synth_derivs(phi_coeffs)
    lap_term = -geom.integral(geom.grad_inner(d_h, d_phi))
    z_term = geom.integral(z * geom.h_mean * d_phi["f"])
    pref = 2.0 * math.sqrt(geom.area) / (16.0 * math.pi) ** 1.5
    return -pref * (lap_term + z_term)


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------


def _scaled_masses(prof: RadialProfile, s0: float, phi: ScalarField, ts) -> dict:
    """Quadrature masses {t: m_CH(graph(t phi))} over the slice at s0 (oracle path).

    phi is transformed once and each distinct t is evaluated once, from t
    times its spectral partials; every graph is still built as a
    ``GraphSurface``, so the finiteness and range checks run for each t.
    """
    grid = phi.grid
    d = grid.synth_derivs(grid.analyze(phi.values))
    masses = {}
    for t in dict.fromkeys(ts):
        GraphSurface(prof, s0, ScalarField(grid, t * phi.values))
        scaled = {key: t * v for key, v in d.items()}
        masses[t] = float(_geometry_from_derivs(prof, grid, s0, scaled, 2.0 * prof.lam)["mch"])
    return masses


def _first_fd_steps(dt: float):
    return [sign * h for h in (dt, dt / 2.0, dt / 4.0) for sign in (1.0, -1.0)]


def _second_fd_steps(dt: float):
    return [0.0, dt, -dt, 2.0 * dt, -2.0 * dt]


def _first_fd(mass: dict, dt: float) -> FDDerivative:
    """Richardson-checked central differences from a table of masses at ``_first_fd_steps``."""
    d1, d2, d4 = ((mass[h] - mass[-h]) / (2.0 * h) for h in (dt, dt / 2.0, dt / 4.0))
    num, den = abs(d1 - d2), abs(d2 - d4)
    order = math.log2(num / den) if den > 0 and num > 0 else float("nan")
    return FDDerivative(value=(4.0 * d2 - d1) / 3.0, d_h=d1, d_h2=d2, d_h4=d4, order=order)


def _second_fd(mass: dict, dt: float) -> float:
    """Five-point second difference from a table of masses at ``_second_fd_steps``."""
    return (
        -mass[2.0 * dt] + 16.0 * mass[dt] - 30.0 * mass[0.0] + 16.0 * mass[-dt] - mass[-2.0 * dt]
    ) / (12.0 * dt**2)


def mass_of_scaled_graph(
    prof: RadialProfile, s0: float, phi: ScalarField, t: float
) -> float:
    """Quadrature mass of graph(t * phi) over the slice at s0 (oracle path)."""
    return _scaled_masses(prof, s0, phi, [t])[t]


def first_variation_fd(
    prof: RadialProfile, s0: float, phi: ScalarField, dt: float
) -> FDDerivative:
    """Central-difference d/dt m_CH(graph(t phi)) at t = 0.

    Three step sizes (dt, dt/2, dt/4) give a Richardson order estimate;
    ``value`` is the dt/2-vs-dt extrapolation.
    """
    return _first_fd(_scaled_masses(prof, s0, phi, _first_fd_steps(dt)), dt)


def second_variation_fd(
    prof: RadialProfile, phi: ScalarField, dt: float, s0: float = 0.0
) -> float:
    """Five-point stencil for d2/dt2 m_CH(graph(t phi)) at t = 0."""
    return _second_fd(_scaled_masses(prof, s0, phi, _second_fd_steps(dt)), dt)


# ---------------------------------------------------------------------------
# second variation at a minimal slice (harmonic diagonalization)
# ---------------------------------------------------------------------------


def second_variation_minimal(a: float, q: float, phi: ScalarField) -> float:
    """Canonical second variation at the minimal slice of neck radius a.

    (|S|^(1/2)/32 pi^(3/2)) [Ric(nu,nu) int |grad phi|^2 - int (Lap phi)^2]
    with Ric(nu,nu) = -lambda1_analytic(a, Q); exactly zero for constant phi.
    """
    return _second_variation_minimal(a, q, phi.grid.analyze(phi.values))


def _second_variation_minimal(a: float, q: float, coeffs: np.ndarray) -> float:
    """``second_variation_minimal`` from the harmonic coefficients of phi.

    On the radius-a slice, int |grad phi|^2 and int (Lap phi)^2 weight each
    squared coefficient by l(l+1) and l^2 (l+1)^2 / a^2.
    """
    l = np.floor(np.sqrt(np.arange(coeffs.size))).astype(int)
    mu_unit = l * (l + 1.0)
    c2 = coeffs**2
    grad2 = float((mu_unit * c2).sum())
    lap2 = float((mu_unit**2 * c2).sum()) / a**2
    ric = -lambda1_analytic(a, q)
    pref = math.sqrt(4.0 * math.pi * a**2) / (32.0 * math.pi**1.5)
    return pref * (ric * grad2 - lap2)


def second_variation_as_printed(a: float, q: float, phi: ScalarField) -> float:
    """Second variation with the Lambda-coefficient variant (Lambda = 1).

    Evaluates prefactor * [((|S| Lambda - 8 pi)/(2|S|) + 16 pi^2 Q^2/|S|^2)
    int phi L phi - int (L phi)^2].  Not a truth source: nonzero on constant
    phi, contradicting slice mass constancy; the gap to the canonical form is
    prefactor * (zeta - Lambda)/2 * (-int phi L phi) with zeta = 2.
    """
    return _second_variation_as_printed(a, q, phi.grid.analyze(phi.values))


def _second_variation_as_printed(a: float, q: float, coeffs: np.ndarray) -> float:
    """``second_variation_as_printed`` from the harmonic coefficients of phi."""
    area = 4.0 * math.pi * a**2
    ric = -lambda1_analytic(a, q)
    l = np.floor(np.sqrt(np.arange(coeffs.size))).astype(int)
    mu_slice = l * (l + 1.0) / a**2
    c2 = coeffs**2
    int_phi_l_phi = float(((ric - mu_slice) * c2).sum()) * a**2
    int_l_phi_sq = float(((ric - mu_slice) ** 2 * c2).sum()) * a**2
    coefficient = (area * 1.0 - 8.0 * math.pi) / (2.0 * area) + 16.0 * math.pi**2 * q**2 / area**2
    pref = math.sqrt(area) / (32.0 * math.pi**1.5)
    return pref * (coefficient * int_phi_l_phi - int_l_phi_sq)


def strict_instability_constant(a: float, q: float, lmax_scan: int = 12) -> float:
    """Best constant C in d2/dt2 m_CH <= -C int (phi - mean)^2 (Lambda = 1).

    C = min over l >= 1 of prefactor * mu_l (mu_l - Ric(nu,nu)) with
    mu_l = l(l+1)/a^2; the minimum sits at l = 1 because the product is
    increasing in mu_l whenever Ric < 0 < mu_l.  Requires a strictly stable
    neck (a^2 inside the stability window).
    """
    w = stability_window(q)
    if w is None or not (w[0] < a**2 < w[1]):
        raise ValueError(f"a^2 = {a**2} is not strictly inside the stability window {w}")
    ric = -lambda1_analytic(a, q)
    pref = math.sqrt(4.0 * math.pi * a**2) / (32.0 * math.pi**1.5)
    mu = np.arange(1, lmax_scan + 1) * (np.arange(1, lmax_scan + 1) + 1.0) / a**2
    return float(np.min(pref * mu * (mu - ric)))


# ---------------------------------------------------------------------------
# foliation diagnostics
# ---------------------------------------------------------------------------


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
    t0, t1 = t_range
    delta = 1e-3
    if max(abs(t0), abs(t1)) + delta > prof.s_max:
        raise ValueError("t range leaves the integrated profile (need slack for FD)")
    params = prof.params
    states = []
    for t in np.linspace(t0, t1, n_steps):
        u, du, ddu = (float(v) for v in prof.state(t))
        h = -2.0 * du / u
        dh = -2.0 * ddu / u + 2.0 * (du / u) ** 2
        ric_model = -lapse_squared_prime(u, params) / u
        a2 = 2.0 * (du / u) ** 2
        lam1 = -(ric_model + a2)
        dmch = (
            slice_hawking_mass(prof, t + delta) - slice_hawking_mass(prof, t - delta)
        ) / (2.0 * delta)
        states.append(
            FoliationState(
                t=float(t), u=u, du=du, h_mean=h, dh_dt=dh, lambda1=lam1,
                rho=1.0, dmch_dt=dmch, evolution_identity_residual=abs(dh - (ric_model + a2)),
            )
        )
    return states


def monotonicity_report(
    prof: RadialProfile,
    states: list[FoliationState],
    zeta: float | None = None,
) -> MonotonicityReport:
    """Evaluate the mass-derivative decomposition along the foliation.

    All terms are closed-form slice integrals.  On the exact models the
    zeta-form scalar bracket and the charge bracket vanish; the
    Lambda-coefficient scalar bracket equals Lambda |Sigma_t| and is reported
    as the recorded discrepancy.  The umbilicity bracket and the mean-lapse
    terms are not reported: the model slices are umbilic with constant lapse,
    so they are zero by construction.
    """
    if zeta is None:
        zeta = 2.0 * prof.lam
    t = np.array([st.t for st in states])
    u = np.array([st.u for st in states])
    du = np.array([st.du for st in states])
    ddu = prof.ddu(t)
    area = 4.0 * math.pi * u**2
    r_amb = -4.0 * ddu / u + 2.0 * (1.0 - du**2) / u**2
    e2 = prof.q**2 / u**4
    bracket_zeta = (r_amb - zeta - 2.0 * e2) * area
    bracket_printed = (r_amb - prof.lam - 2.0 * e2) * area
    bracket_charge = e2 * area - 16.0 * math.pi**2 * prof.q**2 / area
    return MonotonicityReport(
        t=t,
        dmch_dt=np.array([st.dmch_dt for st in states]),
        bracket_scalar_zeta=bracket_zeta,
        bracket_scalar_printed=bracket_printed,
        bracket_charge=bracket_charge,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# Grid nodes per stacked evaluation in local_max_experiment: 8 graphs at
# n_theta 32, one at n_theta 128.  Three 40-graph runs at n_theta 32 peaked at
# 89 MB RSS with this cap and at 110 MB as one uncapped stack.
_STACK_NODES = 2**14


def local_max_experiment(
    a: float,
    q: float,
    n_samples: int,
    amplitude: float,
    seed: int,
    n_theta: int = 32,
    n_phi: int = 64,
    lmax: int = 4,
    near_tol: float = 1e-9,
) -> LocalMaxReport:
    """Sample random graphs over the neck and test local maximality of m_CH.

    Sample k draws its field from random_c2_field with the derived seed
    SeedSequence([seed, k]).generate_state(1)[0], C^2-amplitude as given.
    Reports the largest mass excess m_CH(graph) - m over all samples and, for
    samples within ``near_tol`` of equality, the largest C^2 norm of the
    nonconstant part of the height (equality should only occur for slices).

    Graphs are drawn, normalized and evaluated in stacks of at most
    ``_STACK_NODES`` grid nodes; each draw depends on its sample alone.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if amplitude > 0.05:
        raise ValueError("experiment calibrated for amplitude <= 0.05")
    w = stability_window(q)
    if w is None or not (w[0] < a**2 < w[1]):
        raise ValueError(f"neck a^2 = {a**2} outside the stability window {w}")
    prof = integrate_profile(a, q, 1.0, s_max=1.0)
    grid = build_grid(n_theta, n_phi)
    seeds = [int(np.random.SeedSequence([int(seed), k]).generate_state(1)[0])
             for k in range(n_samples)]
    stack = max(1, _STACK_NODES // (grid.n_theta * grid.n_phi))
    excess = []
    near = []
    for start in range(0, n_samples, stack):
        heights = _random_c2_stack(grid, seeds[start : start + stack], lmax, amplitude)
        for h in heights:  # each graph passes the checks of the per-graph path
            GraphSurface(prof, 0.0, ScalarField(grid, h))
        mch = _graph_geometry(prof, grid, 0.0, heights, 2.0 * prof.lam)["mch"]
        for h, e in zip(heights, mch - prof.m):
            excess.append(float(e))
            if e >= -near_tol:
                coeffs = grid.analyze(h)
                coeffs[coeff_index(0, 0)] = 0.0
                near.append(c2_norm(ScalarField(grid, grid.synthesize(coeffs))))
    return LocalMaxReport(
        a=a, q=q, n_samples=n_samples, amplitude=amplitude, seed=seed,
        max_excess=max(excess),
        n_near_equality=len(near),
        max_nonconstant_c2=max(near) if near else 0.0,
        all_near_equality_are_slices=all(v <= 1e-6 for v in near),
    )


def area_charge_value(area: float, q: float) -> float:
    """|Sigma| + 16 pi^2 Q^2 / |Sigma| -- at most 4 pi on area-minimizing spheres."""
    return area + 16.0 * math.pi**2 * q**2 / area


def variation_report(
    prof: RadialProfile, s0: float, phi: ScalarField, dt: float = 1e-2
) -> VariationReport:
    """Analytic-vs-oracle summary for the slice at s0 and speed field phi.

    Always carries the first variation (analytic and Richardson-extrapolated
    central difference with measured order) and the pointwise maximum of the
    criticality density on the base slice.  The minimal-slice second
    variation block (canonical, printed-coefficient variant, five-point
    oracle, step-halving gap) is filled only at s0 = 0, where its closed
    form applies.

    The oracles share one mass table: phi is transformed once, each distinct
    t of the union of the stencils is evaluated once (8 scaled graphs at
    s0 = 0 for the first difference and both second differences, 6
    otherwise), and the base slice is the t = 0 entry.  The analytic side
    (first variation and both closed-form second variations) shares one
    analysis of phi of its own, so the oracle stays independent of it.
    """
    base = GraphSurface(prof, s0, ScalarField(phi.grid, np.zeros_like(phi.values)))
    geom = induced_geometry(base, force_quadrature=True)
    ts = _first_fd_steps(dt)
    if s0 == 0.0:
        ts += _second_fd_steps(dt) + _second_fd_steps(dt / 2.0)
    mass = _scaled_masses(prof, s0, phi, [t for t in ts if t != 0.0])
    mass[0.0] = geom.mch
    fd = _first_fd(mass, dt)
    coeffs = phi.grid.analyze(phi.values)
    report = VariationReport(
        first_analytic=_first_variation(geom, coeffs, None),
        first_fd=fd.value,
        first_order=fd.order,
        z_max=float(np.abs(z_functional(geom)).max()),
        dt=dt,
    )
    if s0 == 0.0:
        d2_h = _second_fd(mass, dt)
        d2_h2 = _second_fd(mass, dt / 2.0)
        report.second_analytic = _second_variation_minimal(prof.a, prof.q, coeffs)
        report.second_as_printed = _second_variation_as_printed(prof.a, prof.q, coeffs)
        report.second_fd = d2_h2
        report.second_fd_step_gap = abs(d2_h - d2_h2)
    return report


def nariai_flow_diagnostic(npar: NariaiParams, t_eval: float = 0.3) -> NariaiFlowReport:
    """Equality case of the area-charge bound on an exact Nariai cylinder.

    Checks |Sigma| + 16 pi^2 Q^2/|Sigma| = 4 pi on the neck, that the
    integrated profile stays exactly cylindrical (H identically 0), and
    evaluates both sides of the flow estimate
    |Sigma_t| H'(t) int (1/rho) <= (16 pi^2 Q^2/|Sigma_0|) int_0^t H |Sigma_s| ds,
    which degenerates to 0 <= 0 there.
    """
    prof = integrate_profile(npar.alpha, math.sqrt(npar.q2), npar.lam, s_max=max(1.0, 2 * t_eval))
    area = 4.0 * math.pi * prof.u(0.0) ** 2
    value = area_charge_value(area, npar.q)
    s_grid = np.linspace(0.0, t_eval, 201)
    u = prof.u(s_grid)
    du = prof.du(s_grid)
    h = -2.0 * du / u
    area_t = 4.0 * math.pi * prof.u(t_eval) ** 2
    hprime = -2.0 * prof.ddu(t_eval) / prof.u(t_eval) + 2.0 * (prof.du(t_eval) / prof.u(t_eval)) ** 2
    lhs = area_t * hprime * area_t  # int 1/rho = |Sigma_t| for rho = 1
    kappa = 16.0 * math.pi**2 * npar.q2 / area
    rhs = kappa * np.trapezoid(h * 4.0 * math.pi * u**2, s_grid)
    return NariaiFlowReport(
        alpha=npar.alpha, area=area, q2=npar.q2,
        area_charge_value=value,
        equality_residual=value - 4.0 * math.pi,
        max_abs_h=float(np.max(np.abs(h))),
        hprime_lhs=float(lhs), hprime_rhs=float(rhs),
    )
