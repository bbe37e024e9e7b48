"""Parameter space of the static charged de Sitter model family.

A model is the triple (m, Q, Lambda).  It induces the lapse-squared
polynomial

    f(r) = 1 - Lambda r^2 / 3 + Q^2 / r^2 - 2 m / r,

whose positive zeros are the horizon radii.  Multiplying by -r^2 turns the
zero set of f into the quartic

    Lambda/3 r^4 - r^2 + 2 m r - Q^2 = 0,

which this module solves and classifies (generic three-positive-root family,
double outer root = charged Nariai, double inner root, or degenerate).

Conventions: geometric units, Lambda defaults to 1, charge may carry either
sign (only Q^2 enters the geometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "HorizonStructure",
    "NariaiParams",
    "CLASS_GENERIC",
    "CLASS_DOUBLE_OUTER",
    "CLASS_DOUBLE_INNER",
    "CLASS_DEGENERATE",
    "lapse_squared",
    "lapse_squared_prime",
    "lapse_squared_second",
    "horizon_roots",
    "admissible_window",
    "nariai_from_alpha",
    "params_from_neck",
    "surface_gravity",
]

CLASS_GENERIC = "three-distinct-positive"
CLASS_DOUBLE_OUTER = "double-outer"
CLASS_DOUBLE_INNER = "double-inner"
CLASS_DEGENERATE = "other/degenerate"

# Two polished roots r_i, r_j are merged when |r_i - r_j| <= tol * max(1, |r_i|),
# unless both are horizons (HORIZON_TOL) and their mean is not.
DOUBLE_ROOT_TOL = 1e-6

# A radius counts as a horizon when |f(r_h)| is below this.
HORIZON_TOL = 1e-8

# The smallest neck radius.  A neck's mass and its profile equation divide by
# a^2, a^3 and a^4; below this a^4 is subnormal, and it underflows to 0 near
# a = 1e-81 (a^3 near 1e-108, a^2 near 1e-162).
MIN_NECK = float(np.finfo(float).tiny) ** 0.25


@dataclass(frozen=True)
class ModelParams:
    """Mass, charge and cosmological constant of one model metric."""

    m: float
    q: float
    lam: float = 1.0

    def __post_init__(self):
        for name, value in (("Q", self.q), ("Lambda", self.lam), ("m", self.m)):
            if not math.isfinite(value):  # a NaN passes every comparison below
                raise ValueError(f"model parameter {name} must be finite, got {value}")
        if self.m < 0:
            raise ValueError(f"mass must be nonnegative, got {self.m}")


@dataclass(frozen=True)
class HorizonStructure:
    """Real roots of the horizon quartic, with multiplicities and class labels.

    ``roots`` is sorted ascending as (radius, multiplicity) pairs.  The named
    radii r_minus, r_plus, r_cosmo are set when the classification defines
    them and are ``None`` otherwise.
    """

    roots: tuple[tuple[float, int], ...]
    classification: str
    r_minus: float | None
    r_plus: float | None
    r_cosmo: float | None

    @property
    def positive_roots(self) -> tuple[tuple[float, int], ...]:
        return tuple((r, k) for r, k in self.roots if r > 0)


@dataclass(frozen=True)
class NariaiParams:
    """Charged Nariai data derived from the double-root radius alpha.

    Carries the induced mass, squared charge, the remaining inner root, and
    the potential frequency omega with V(s) = sin(omega s).
    """

    alpha: float
    lam: float
    m: float
    q2: float
    r_minus: float
    omega: float

    @property
    def q(self) -> float:
        return math.sqrt(self.q2)


def lapse_squared(r: float, p: ModelParams) -> float:
    """Evaluate f(r) = 1 - Lambda r^2/3 + Q^2/r^2 - 2m/r.

    Parameters
    ----------
    r : float or ndarray
        Radius, strictly positive.
    p : ModelParams

    Returns
    -------
    float or ndarray
        f(r); equals -(Lambda/3 r^4 - r^2 + 2 m r - Q^2) / r^2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("lapse_squared requires r > 0")
    out = 1.0 - p.lam * r**2 / 3.0 + p.q**2 / r**2 - 2.0 * p.m / r
    return float(out) if out.ndim == 0 else out


def lapse_squared_prime(r: float, p: ModelParams) -> float:
    """df/dr = -(2 Lambda/3) r - 2 Q^2/r^3 + 2 m/r^2."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("lapse_squared_prime requires r > 0")
    out = -(2.0 * p.lam / 3.0) * r - 2.0 * p.q**2 / r**3 + 2.0 * p.m / r**2
    return float(out) if out.ndim == 0 else out


def lapse_squared_second(r: float, p: ModelParams) -> float:
    """d^2 f/dr^2 = -2 Lambda/3 + 6 Q^2/r^4 - 4 m/r^3."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("lapse_squared_second requires r > 0")
    out = -2.0 * p.lam / 3.0 + 6.0 * p.q**2 / r**4 - 4.0 * p.m / r**3
    return float(out) if out.ndim == 0 else out


def _quartic(r: np.ndarray, p: ModelParams) -> np.ndarray:
    return p.lam / 3.0 * r**4 - r**2 + 2.0 * p.m * r - p.q**2


def _quartic_prime(r: np.ndarray, p: ModelParams) -> np.ndarray:
    return 4.0 * p.lam / 3.0 * r**3 - 2.0 * r + 2.0 * p.m


@np.errstate(all="ignore")  # the roots' checks refuse what overflows
def horizon_roots(p: ModelParams) -> HorizonStructure:
    """Find and classify all real roots of the horizon quartic.

    Roots come from the companion-matrix eigenvalues of the monic quartic
    r^4 - (3/Lambda) r^2 + (6m/Lambda) r - 3Q^2/Lambda, polished with at most
    five Newton steps each; a step that raises |quartic| is not taken, since
    at a double root one can jump off the root.  Near-coincident roots
    (within DOUBLE_ROOT_TOL relative spacing) are merged into a multiple
    root, unless that would turn horizons into a mean that is none (5e-7
    apart at Q = 1e-4, near m_min).  A ValueError refuses an answer with a
    root that is not finite or a merged root that is not a critical point of
    the quartic (Lambda = 1e-80 at m = 0.34 gives one).

    Parameters
    ----------
    p : ModelParams
        Requires Lambda > 0 and finite monic coefficients.  Degenerate inputs
        are classified, not rejected.

    Returns
    -------
    HorizonStructure
    """
    if p.lam <= 0.0:
        raise ValueError("horizon_roots requires Lambda > 0")
    coeffs = [1.0, 0.0, -3.0 / p.lam, 6.0 * p.m / p.lam, -3.0 * p.q**2 / p.lam]
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"horizon quartic of {p} has non-finite monic coefficients {coeffs[2:]}")
    raw = np.roots(coeffs)  # companion-matrix eigenvalues

    # Keep (numerically) real roots; complex pairs near a double root have
    # spurious imaginary parts of order sqrt(eps).
    real = [z.real for z in raw if abs(z.imag) <= 1e-7 * max(1.0, abs(z))]

    polished = []
    for r in real:
        f = _quartic(r, p)
        for _ in range(5):
            fp = _quartic_prime(r, p)
            if fp == 0.0:
                break
            step = f / fp
            f_next = _quartic(r - step, p)
            if abs(f_next) > abs(f):
                break
            r, f = r - step, f_next
            if abs(step) <= 1e-15 * max(1.0, abs(r)):
                break
        polished.append(r)
    polished.sort()

    # Cluster near-coincident polished roots into multiple roots.
    def is_horizon(r):  # |f(r)| <= HORIZON_TOL, with f = -quartic / r^2
        return abs(_quartic(r, p)) <= HORIZON_TOL * r * r

    clusters: list[list[float]] = []
    for r in polished:
        if clusters and abs(r - clusters[-1][-1]) <= DOUBLE_ROOT_TOL * max(1.0, abs(r)):
            merged = clusters[-1] + [r]
            if is_horizon(np.mean(merged)) or not all(map(is_horizon, merged)):
                clusters[-1].append(r)
                continue
        clusters.append([r])
    means = [np.mean(c) for c in clusters]
    for r, c in zip(means, clusters):
        if not np.isfinite(r):
            raise ValueError(f"horizon root r = {r} of {p} is not finite")
        # a multiple root is critical: q'(r) within DOUBLE_ROOT_TOL of its terms' size
        size = 4.0 * p.lam / 3.0 * abs(r) ** 3 + 2.0 * abs(r) + 2.0 * p.m
        if len(c) > 1 and abs(_quartic_prime(r, p)) > DOUBLE_ROOT_TOL * size:
            raise ValueError(f"merged horizon root r = {r} of {p} is not a critical point")
    roots = tuple((float(r), len(c)) for r, c in zip(means, clusters))

    classification, named = _classify(roots)
    return HorizonStructure(roots=roots, classification=classification, **named)


def _classify(roots):
    pos = [(r, k) for r, k in roots if r > 0.0]
    total_real = sum(k for _, k in roots)
    named = {"r_minus": None, "r_plus": None, "r_cosmo": None}

    if total_real == 4 and len(pos) == 3 and all(k == 1 for _, k in pos):
        named["r_minus"], named["r_plus"], named["r_cosmo"] = (r for r, _ in pos)
        return CLASS_GENERIC, named
    if len(pos) == 2:
        (r_lo, k_lo), (r_hi, k_hi) = pos
        if k_hi == 2 and k_lo == 1:
            named["r_minus"] = r_lo
            named["r_plus"] = named["r_cosmo"] = r_hi
            return CLASS_DOUBLE_OUTER, named
        if k_lo == 2 and k_hi == 1:
            named["r_minus"] = named["r_plus"] = r_lo
            named["r_cosmo"] = r_hi
            return CLASS_DOUBLE_INNER, named
    return CLASS_DEGENERATE, named


def admissible_window(q: float, lam: float = 1.0) -> tuple[float, float]:
    """Mass window (m_min, m_max) with exactly three distinct positive roots.

    Parameters
    ----------
    q : float
        Charge with 0 < Q^2 <= 1/(4 Lambda).  At the extremal charge
        Q^2 = 1/(4 Lambda) the returned window collapses to a point.
    lam : float
        Cosmological constant, positive.

    Returns
    -------
    (m_min, m_max) : tuple of float

    Raises
    ------
    ValueError
        If Q = 0, Lambda <= 0, or Q^2 > 1/(4 Lambda) (window undefined).
    """
    if lam <= 0.0:
        raise ValueError("admissible_window requires Lambda > 0")
    if q == 0.0 or q**2 > 1.0 / (4.0 * lam):
        raise ValueError(
            f"admissible window undefined for Q^2 = {q**2} (need 0 < Q^2 <= {1/(4*lam)})"
        )
    d = math.sqrt(max(1.0 - 4.0 * lam * q**2, 0.0))
    m_min = (2.0 + d) / (3.0 * math.sqrt(2.0 * lam)) * math.sqrt(1.0 - d)
    m_max = (2.0 - d) / (3.0 * math.sqrt(2.0 * lam)) * math.sqrt(1.0 + d)
    return m_min, m_max


def nariai_from_alpha(alpha: float, lam: float = 1.0) -> NariaiParams:
    """Charged Nariai data for a prescribed double root alpha.

    Parameters
    ----------
    alpha : float
        Double-root radius with alpha^2 strictly inside (1/(2 Lambda), 1/Lambda).
    lam : float
        Cosmological constant, positive.

    Returns
    -------
    NariaiParams
        m = alpha (1 - 2/3 Lambda alpha^2), Q^2 = alpha^2 (1 - Lambda alpha^2),
        r_minus = sqrt(3/Lambda - 2 alpha^2) - alpha, and
        omega = sqrt(Lambda - Q^2/alpha^4).
    """
    if lam <= 0.0:
        raise ValueError("nariai_from_alpha requires Lambda > 0")
    a2 = alpha * alpha
    if not (1.0 / (2.0 * lam) < a2 < 1.0 / lam):
        raise ValueError(
            f"alpha^2 = {a2} outside the charged Nariai interval "
            f"({1/(2*lam)}, {1/lam})"
        )
    m = alpha * (1.0 - 2.0 / 3.0 * lam * a2)
    q2 = a2 * (1.0 - lam * a2)
    r_minus = math.sqrt(3.0 / lam - 2.0 * a2) - alpha
    omega = math.sqrt(lam - q2 / a2**2)
    return NariaiParams(alpha=alpha, lam=lam, m=m, q2=q2, r_minus=r_minus, omega=omega)


def params_from_neck(a: float, q: float, lam: float = 1.0) -> ModelParams:
    """Model parameters whose lapse vanishes at the neck radius a.

    Solving f(a) = 0 for the mass gives m = (a/2)(1 - Lambda a^2/3 + Q^2/a^2),
    so a is a horizon radius of the returned parameters by construction.
    """
    if not a >= MIN_NECK:  # NaN fails too
        raise ValueError(
            f"params_from_neck requires a > 0 with a normal a^4 (a >= {MIN_NECK:.6g}), got {a}"
        )
    m = 0.5 * a * (1.0 - lam * a**2 / 3.0 + q**2 / a**2)
    return ModelParams(m=m, q=q, lam=lam)


def surface_gravity(r_h: float, p: ModelParams) -> float:
    """Surface gravity k = |f'(r_h)| / 2 at a horizon radius.

    This is the horizon limit of |grad V| for the potential V = sqrt(f),
    which stays finite as f -> 0 (it vanishes exactly at a double root).

    Raises
    ------
    ValueError
        If r_h is not a root of f within HORIZON_TOL.
    """
    if abs(lapse_squared(r_h, p)) > HORIZON_TOL:
        raise ValueError(
            f"r_h = {r_h} is not a horizon: |f(r_h)| = {abs(lapse_squared(r_h, p)):.3e}"
        )
    return 0.5 * abs(lapse_squared_prime(r_h, p))
