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
(``first_variation(..., zeta=Lambda)`` / ``second_variation_as_printed``).
That variant is *not* used as truth: it fails the constant-speed null test
(slices have constant mass, so constant phi must give zero), and it disagrees
with the finite-difference oracles.  It is kept purely for discrepancy
reporting; the exact gap for any phi is
prefactor * (zeta - Lambda)/2 * (-int phi L phi).

Every analytic formula here is adjudicated against central finite differences
of the quadrature mass functional t -> m_CH(graph(t phi)), which in this
warped product realizes the normal variation exactly.  The module also holds
the sampling experiment around a strictly stable neck; the closed-form slice
diagnostics (the CMC foliation, the Nariai equality) are in ``profile``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .profile import RadialProfile, integrate_profile
from .sphere import (
    ScalarField, SphereGrid, _c2_norms, _degrees, _random_c2_stack, build_grid, coeff_index,
)
from .spectrum import lambda1_analytic, stability_window
from .surfaces import (
    _STACK_NODES, SurfaceGeometry, _geometry, _graph_masses, _mass_grid, _node_derivs,
)

__all__ = [
    "VariationReport",
    "FDDerivative",
    "LocalMaxReport",
    "z_functional",
    "first_variation",
    "first_variation_fd",
    "second_variation_minimal",
    "second_variation_as_printed",
    "second_variation_fd",
    "strict_instability_constant",
    "local_max_experiment",
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
    first_floor_ratio: float  # FDDerivative.floor_ratio
    z_max: float
    dt: float
    mass_resolution: float  # |m(stencil grid) - m(phi's grid)| at the largest |t|
    second_analytic: float | None = None
    second_as_printed: float | None = None
    second_fd: float | None = None
    second_fd_step_gap: float | None = None
    second_floor_ratio: float | None = None  # (64/3) eps |m(0)| / dt^2 over the step gap (inf if 0)


@dataclass
class FDDerivative:
    """Central-difference derivative with Richardson order estimate."""

    value: float  # Richardson-extrapolated
    d_h: float
    d_h2: float
    d_h4: float
    order: float
    floor_ratio: float  # eps |m| / dt over min |d_h - d_h2|, |d_h2 - d_h4| (inf if 0)


@dataclass
class LocalMaxReport:
    """Seeded sampling experiment around a strictly stable neck."""

    a: float
    q: float
    n_samples: int
    amplitude: float
    seed: int
    max_excess: float
    # max over samples of |excess / (d2m/2) - 1|, d2m the second variation of
    # the sample's height: the first variation vanishes at the neck, so the
    # excess is d2m/2 up to O(amplitude)
    max_second_variation_gap: float
    # |m(mass grid) - m(draw grid)| of the largest-excess sample: the error of
    # _mass_grid's grid, measured on every run
    mass_resolution: float
    n_near_equality: int
    max_nonconstant_c2: float
    all_near_equality_are_slices: bool


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
) -> float:
    """Canonical first variation of m_CH for the *normal* speed field phi.

    Evaluates -(2 sqrt(|S|)/(16 pi)^(3/2)) int (Lap H + Z H) phi, with the
    Laplacian term integrated by parts to int <grad H, grad phi> so only
    first derivatives of H enter.  ``zeta`` defaults to that of geom;
    zeta = Lambda gives the discrepancy-reporting variant (see module
    docstring).

    phi is the speed in the unit-normal direction.  Differentiating the
    vertical graph family height -> height + t psi instead moves points
    along d/ds, which is the normal speed psi / W plus a tangential
    reparametrization; over slices W = 1 and the two families agree exactly.
    phi is read on geom's grid from its coefficients, of any band up to the
    grid band, and H over the full grid band, so any graph is read whole.
    """
    grid = geom.grid
    d_phi = grid.synth_derivs(phi.coeffs)
    d_h = grid.synth_derivs(grid.analyze(geom.h_mean))
    return _first_variation(geom, d_phi["f"], zeta, geom.integral(geom.grad_inner(d_h, d_phi)))


def _first_variation(geom: SurfaceGeometry, phi: np.ndarray, zeta: float | None,
                     grad_term: float = 0.0) -> float:
    """``first_variation`` from phi's grid values and grad_term = int <grad H,
    grad phi>, which is 0 where H is constant (a slice)."""
    z_term = geom.integral(z_functional(geom, zeta) * geom.h_mean * phi)
    pref = 2.0 * math.sqrt(geom.area) / (16.0 * math.pi) ** 1.5
    return -pref * (z_term - grad_term)


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------


def _scaled_masses(prof: RadialProfile, grid: SphereGrid, s0: float, coeffs, ts):
    """Quadrature masses {t: m_CH(graph(t phi))} over the slice at s0, as one stack of
    the distinct t (oracle path), from phi's coefficients; the grid that summed them,
    ``_mass_grid`` of phi's band and of the stencil's C^2 size (max |t| times phi's
    C^2 norm, read from its partials on the band's grid); and those partials."""
    ts = np.array(list(dict.fromkeys(ts)), dtype=float)
    lmax = math.isqrt(coeffs.size) - 1
    mass_grid = _mass_grid(grid, lmax, 0.0)
    d = mass_grid.synth_derivs(coeffs)
    size = np.abs(ts).max() * _c2_norms(d)
    if mass_grid is not grid and _mass_grid(grid, lmax, size) is grid:
        mass_grid, d = grid, grid.synth_derivs(coeffs)
    mch = _graph_masses(prof, mass_grid, s0, d, ts[:, None, None])["mch"]
    return dict(zip(ts.tolist(), mch.tolist())), mass_grid, d


# the smallest step, 2^-511: the stencils divide by dt^2, normal from here on
_MIN_DT = math.sqrt(sys.float_info.min)


def _check_dt(dt: float) -> None:
    """Refuse a dt that is not finite and at least ``_MIN_DT`` (1.49e-154)."""
    if not (math.isfinite(dt) and dt > 0.0):
        kind = "non-positive" if math.isfinite(dt) else "non-finite"
        raise ValueError(f"dt must be positive and finite, got {kind} dt = {dt}")
    if dt < _MIN_DT:
        raise ValueError(f"dt must be at least {_MIN_DT:.6g} (a normal dt^2), got {dt}")


def _first_fd_steps(dt: float):
    return [sign * h for h in (dt, dt / 2.0, dt / 4.0) for sign in (1.0, -1.0)]


def _second_fd_steps(dt: float):
    return [0.0, dt, -dt, 2.0 * dt, -2.0 * dt]


def _first_fd(mass: dict, dt: float) -> FDDerivative:
    """Richardson-checked central differences from a table of masses at ``_first_fd_steps``."""
    d1, d2, d4 = ((mass[h] - mass[-h]) / (2.0 * h) for h in (dt, dt / 2.0, dt / 4.0))
    num, den = abs(d1 - d2), abs(d2 - d4)
    order = math.log2(num / den) if den > 0 and num > 0 else float("nan")
    ratio = math.ulp(1.0) * abs(mass[dt]) / dt / min(num, den) if min(num, den) > 0 else math.inf
    return FDDerivative((4.0 * d2 - d1) / 3.0, d1, d2, d4, order, ratio)


def _second_fd(mass: dict, dt: float) -> float:
    """Five-point second difference from a table of masses at ``_second_fd_steps``."""
    return (
        -mass[2.0 * dt] + 16.0 * mass[dt] - 30.0 * mass[0.0] + 16.0 * mass[-dt] - mass[-2.0 * dt]
    ) / (12.0 * dt**2)


def mass_of_scaled_graph(
    prof: RadialProfile, s0: float, phi: ScalarField, t: float
) -> float:
    """Quadrature mass of graph(t * phi) over the slice at s0 (oracle path)."""
    return _scaled_masses(prof, phi.grid, s0, phi.coeffs, [t])[0][t]


def first_variation_fd(
    prof: RadialProfile, s0: float, phi: ScalarField, dt: float
) -> FDDerivative:
    """Central-difference d/dt m_CH(graph(t phi)) at t = 0.

    Three step sizes (dt, dt/2, dt/4) give a Richardson order estimate;
    ``value`` is the dt/2-vs-dt extrapolation.
    """
    _check_dt(dt)
    return _first_fd(_scaled_masses(prof, phi.grid, s0, phi.coeffs, _first_fd_steps(dt))[0], dt)


def second_variation_fd(
    prof: RadialProfile, phi: ScalarField, dt: float, s0: float = 0.0
) -> float:
    """Five-point stencil for d2/dt2 m_CH(graph(t phi)) at t = 0."""
    _check_dt(dt)
    return _second_fd(_scaled_masses(prof, phi.grid, s0, phi.coeffs, _second_fd_steps(dt))[0], dt)


# ---------------------------------------------------------------------------
# second variation at a minimal slice (harmonic diagonalization)
# ---------------------------------------------------------------------------


def _minimal_slice(a: float, q: float) -> tuple[float, float]:
    """(prefactor, Ric(nu,nu)) at the minimal slice of neck radius a (Lambda = 1):
    the prefactor |S|^(1/2)/(32 pi^(3/2)) of the second variation and
    Ric(nu,nu) = -lambda1_analytic(a, Q)."""
    return math.sqrt(4.0 * math.pi * a**2) / (32.0 * math.pi**1.5), -lambda1_analytic(a, q)


def _check_strictly_stable(a: float, q: float) -> None:
    w = stability_window(q)
    if w is None or not (w[0] < a**2 < w[1]):
        raise ValueError(f"neck a^2 = {a**2} is not strictly inside the stability window {w}")


def second_variation_minimal(a: float, q: float, phi: ScalarField) -> float:
    """Canonical second variation at the minimal slice of neck radius a.

    (|S|^(1/2)/32 pi^(3/2)) [Ric(nu,nu) int |grad phi|^2 - int (Lap phi)^2]
    with Ric(nu,nu) = -lambda1_analytic(a, Q); exactly zero for constant phi.
    On the radius-a slice, int |grad phi|^2 and int (Lap phi)^2 weight each
    squared coefficient of phi by l(l+1) and l^2 (l+1)^2 / a^2.
    """
    return float(_second_variations(a, q, phi.coeffs))


def _second_variations(a: float, q: float, coeffs) -> np.ndarray:
    """``second_variation_minimal`` of each flat coefficient vector along the
    last axis of coeffs (one row per speed field)."""
    l = _degrees(coeffs.shape[-1])
    mu_unit = l * (l + 1.0)
    c2 = coeffs**2
    grad2 = (mu_unit * c2).sum(axis=-1)
    lap2 = (mu_unit**2 * c2).sum(axis=-1) / a**2
    pref, ric = _minimal_slice(a, q)
    return pref * (ric * grad2 - lap2)


def second_variation_as_printed(a: float, q: float, phi: ScalarField) -> float:
    """Second variation with the Lambda-coefficient variant (Lambda = 1).

    Evaluates prefactor * [((|S| Lambda - 8 pi)/(2|S|) + 16 pi^2 Q^2/|S|^2)
    int phi L phi - int (L phi)^2].  Not a truth source: nonzero on constant
    phi, contradicting slice mass constancy; the gap to the canonical form is
    prefactor * (zeta - Lambda)/2 * (-int phi L phi) with zeta = 2.
    """
    area = 4.0 * math.pi * a**2
    pref, ric = _minimal_slice(a, q)
    l = _degrees(phi.coeffs.size)
    mu_slice = l * (l + 1.0) / a**2
    c2 = phi.coeffs**2
    int_phi_l_phi = float(((ric - mu_slice) * c2).sum()) * a**2
    int_l_phi_sq = float(((ric - mu_slice) ** 2 * c2).sum()) * a**2
    coefficient = (area * 1.0 - 8.0 * math.pi) / (2.0 * area) + 16.0 * math.pi**2 * q**2 / area**2
    return pref * (coefficient * int_phi_l_phi - int_l_phi_sq)


def strict_instability_constant(a: float, q: float) -> float:
    """Best constant C in d2/dt2 m_CH <= -C int (phi - mean)^2 (Lambda = 1).

    C = min over l >= 1 of prefactor * mu_l (mu_l - Ric(nu,nu)) with
    mu_l = l(l+1)/a^2; the minimum sits at l = 1 because the product is
    increasing in mu_l whenever Ric < 0 < mu_l, so C is the l = 1 value.
    Requires a strictly stable neck (a^2 inside the stability window).
    """
    _check_strictly_stable(a, q)
    pref, ric = _minimal_slice(a, q)
    mu = 2.0 / a**2  # mu_1
    return float(pref * mu * (mu - ric))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# The sampling design of local_max_experiment: heights band-limited to l <= 4,
# drawn and C^2-normalized on a 32 x 64 grid, and their masses summed on the
# 16 x 32 grid of _mass_grid, a quarter of the draw grid's nodes (each run
# reports its resolution); a sample within _NEAR_TOL of equality must be a
# slice.
_N_THETA, _N_PHI, _LMAX = 32, 64, 4
_NEAR_TOL = 1e-9


def local_max_experiment(
    a: float,
    q: float,
    n_samples: int,
    amplitude: float,
    seed: int,
) -> LocalMaxReport:
    """Sample random graphs over the neck and test local maximality of m_CH.

    Sample k draws a height with l <= 4 on the 32 x 64 grid as
    random_c2_field does, from the seed [seed, k] (numpy's
    ``default_rng([seed, k])``), at the given C^2 amplitude; its mass is
    summed on the grid of ``_mass_grid`` (16 x 32).
    Reports the largest mass excess m_CH(graph) - m over all samples; the
    largest |excess / (d2m/2) - 1| over all samples, with d2m the closed-form
    ``second_variation_minimal`` of the sample's height (the excess is d2m/2
    up to O(amplitude), since the neck is critical); the mass resolution,
    |m(mass grid) - m(32 x 64)| of the sample with the largest excess, whose
    mass is summed once more on the draw grid; and, for samples within
    ``_NEAR_TOL`` of equality, the largest C^2 norm of the nonconstant part
    of the height on the draw grid (equality should only occur for slices).

    Heights are drawn and normalized in stacks of ``_STACK_NODES`` draw-grid
    nodes (8 graphs), each draw its scaled coefficients, which depend on its
    sample alone.  The masses are summed in blocks of ``_STACK_NODES``
    mass-grid nodes (32 graphs): each block is derivative-synthesized once on
    the mass grid and sent through the mass-only kernel once.  A sample
    within ``_NEAR_TOL`` of equality loses its mean as c_00 = 0, and the C^2
    norms of those samples are read in stacks of 8 graphs, one synthesis each.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if amplitude > 0.05:
        raise ValueError("experiment calibrated for amplitude <= 0.05")
    _check_strictly_stable(a, q)
    prof = integrate_profile(a, q, 1.0, s_max=1.0)
    grid = build_grid(_N_THETA, _N_PHI)
    mass_grid = _mass_grid(grid, _LMAX, amplitude)
    draw = _STACK_NODES // (grid.n_theta * grid.n_phi)
    coeffs = np.concatenate([
        _random_c2_stack(
            grid, [[seed, k] for k in range(start, min(start + draw, n_samples))], _LMAX, amplitude
        )
        for start in range(0, n_samples, draw)
    ])
    block = _STACK_NODES // (mass_grid.n_theta * mass_grid.n_phi)
    mch = np.concatenate([
        _graph_masses(prof, mass_grid, 0.0, mass_grid.synth_derivs(part))["mch"]
        for part in (coeffs[i : i + block] for i in range(0, n_samples, block))
    ])
    excess = mch - prof.m
    half_d2m = 0.5 * _second_variations(a, q, coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf where d2m = 0 != excess
        gap = np.where(excess == half_d2m, 0.0, np.abs(excess / half_d2m - 1.0)).max()
    top = int(np.argmax(excess))
    m_draw = _graph_masses(prof, grid, 0.0, grid.synth_derivs(coeffs[top : top + 1]))["mch"]
    nonconstant = coeffs[excess >= -_NEAR_TOL]
    nonconstant[:, coeff_index(0, 0)] = 0.0
    near = [  # in stacks of `draw` graphs, as they were drawn
        v for i in range(0, len(nonconstant), draw)
        for v in _c2_norms(grid.synth_derivs(nonconstant[i : i + draw])).tolist()
    ]
    return LocalMaxReport(
        a=a, q=q, n_samples=n_samples, amplitude=amplitude, seed=seed,
        max_excess=float(excess[top]),
        max_second_variation_gap=float(gap),
        mass_resolution=abs(float(mch[top] - m_draw[0])),
        n_near_equality=len(near),
        max_nonconstant_c2=max(near) if near else 0.0,
        all_near_equality_are_slices=all(v <= 1e-6 for v in near),
    )


def variation_report(
    prof: RadialProfile, s0: float, phi: ScalarField, dt: float = 1e-2
) -> VariationReport:
    """Analytic-vs-oracle summary for the slice at s0 and speed field phi.

    Always carries the first variation (analytic and Richardson-extrapolated
    central difference with measured order) and the pointwise maximum of the
    criticality density on the base slice.  The minimal-slice second
    variation block (canonical, printed-coefficient variant, five-point
    oracle, step-halving gap, and the stencil's roundoff floor over that
    gap) is filled only at s0 = 0, where its closed form applies.  The floor
    is (64/3) eps |m(0)| / dt^2: eps |m(0)| times the weight sum 64/12 of the
    five-point stencil over the square of its step dt/2, at which the
    reported ``second_fd`` is taken.

    The analytic side and the base slice are read on phi's grid, from one
    synthesis of phi's coefficients (the oracle's, when the stencil is summed
    on phi's grid).  The base slice is a band-0 height, read at one node with
    no transform and kept as a one-node ``SurfaceGeometry`` (not broadcast to
    the grid), so Z, H and the first-variation integrand broadcast against
    phi's values; its H is constant, so the Laplacian term of the first
    variation is 0 and H is neither analyzed nor synthesized.  The oracles
    share one mass table, a stack of each distinct t of the union of the
    stencils (9 scaled graphs at s0 = 0 for the first difference and both
    second differences, t = 0 included; 6 otherwise), summed on the grid of
    ``_scaled_masses``.  When that is coarser than phi's grid, the
    largest-|t| member is summed once more on phi's grid, and
    ``mass_resolution`` is the difference.
    """
    _check_dt(dt)
    grid = phi.grid
    geom = _geometry(prof, grid, s0, _node_derivs(grid, np.zeros(1)), (1, 1))
    ts = _first_fd_steps(dt)
    if s0 == 0.0:
        ts += _second_fd_steps(dt) + _second_fd_steps(dt / 2.0)
    mass, mass_grid, d = _scaled_masses(prof, grid, s0, phi.coeffs, ts)
    d = d if mass_grid is grid else grid.synth_derivs(phi.coeffs)
    top = max(mass, key=abs)
    fine = mass[top] if mass_grid is grid else float(_graph_masses(
        prof, grid, s0, d, np.full((1, 1, 1), top))["mch"][0])
    fd = _first_fd(mass, dt)
    report = VariationReport(
        first_analytic=_first_variation(geom, d["f"], None),
        first_fd=fd.value,
        first_order=fd.order,
        first_floor_ratio=fd.floor_ratio,
        z_max=float(np.abs(z_functional(geom)).max()),
        dt=dt,
        mass_resolution=abs(mass[top] - fine),
    )
    if s0 == 0.0:
        d2_h = _second_fd(mass, dt)
        d2_h2 = _second_fd(mass, dt / 2.0)
        report.second_analytic = second_variation_minimal(prof.a, prof.q, phi)
        report.second_as_printed = second_variation_as_printed(prof.a, prof.q, phi)
        gap = abs(d2_h - d2_h2)
        report.second_fd = d2_h2
        report.second_fd_step_gap = gap
        floor = (64.0 / 3.0) * math.ulp(1.0) * abs(mass[0.0]) / dt**2
        report.second_floor_ratio = floor / gap if gap > 0 else math.inf
    return report
