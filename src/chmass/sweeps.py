"""Deterministic parameter sweeps over the (x, y) grid of two axes.

Each check maps its two 1-D axis arrays to rows in row-major order (x outer,
y inner).  ``identity`` is one array expression over the meshgrid; the
horizon-root checks ``areacharge`` and ``window`` evaluate point by point
and import ``models`` and ``electrostatics`` there, so an ``identity`` sweep
loads neither.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .spectrum import eigenvalue_area_charge_residual, stability_window

__all__ = ["SWEEP_CHECKS", "sweep_table", "render_csv", "parse_axis"]

# No sweep builds a pool; the name stays for the benchmark tracer
# (perfbench/spans.py), which patches it with its own traced pool class.
ThreadPoolExecutor = None


def parse_axis(spec: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:count' into an axis triple; ``sweep_table`` checks its values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be lo:hi:count, got {spec!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _axis_values(triple):
    lo, hi, count = triple
    return np.linspace(lo, hi, count)


def _identity_rows(a2: np.ndarray, q2: np.ndarray):
    A2, Q2 = np.meshgrid(a2, q2, indexing="ij")
    with np.errstate(all="ignore"):  # a^4, 4 pi a^2 or Q^2/a^2 can leave the floats
        res = eigenvalue_area_charge_residual(np.sqrt(A2), np.sqrt(Q2))
    bad = np.flatnonzero(~np.isfinite(res))
    if bad.size:
        x, y = A2.flat[bad[0]], Q2.flat[bad[0]]
        raise ValueError(f"check 'identity' has a non-finite residual at a2 = {x:g}, q2 = {y:g}")
    return list(zip(A2.ravel().tolist(), Q2.ravel().tolist(), res.ravel().tolist()))


def _area_charge_row(q2: float, mfrac: float):
    from .electrostatics import area_charge_report
    from .models import ModelParams, admissible_window
    q = math.sqrt(q2)
    lo, hi = admissible_window(q, 1.0)
    m = lo + mfrac * (hi - lo)
    rep = area_charge_report(ModelParams(m, q, 1.0))
    margin = min(c.bound_rhs - c.bound_lhs for c in rep.components)
    ok = 1.0 if all(c.satisfied for c in rep.components) else 0.0
    return (q2, mfrac, m, margin, ok)


def _window_row(q2: float, a2: float):
    # a is a root of its induced model by construction, but it is a *neck*
    # (the middle root r_plus) exactly when a^2 sits in the stability window;
    # outside the window the same radius reappears as r_minus or r_cosmo.
    from .models import CLASS_GENERIC, horizon_roots, params_from_neck
    q = math.sqrt(q2)
    a = math.sqrt(a2)
    w = stability_window(q)
    hs = horizon_roots(params_from_neck(a, q, 1.0))
    is_neck = 1.0 if (
        hs.classification == CLASS_GENERIC and abs(hs.r_plus - a) <= 1e-8 * max(1.0, a)
    ) else 0.0
    stable = 1.0 if (w is not None and w[0] + 1e-12 < a2 < w[1] - 1e-12) else 0.0
    return (q2, a2, is_neck, stable)


def _per_point(row):
    """Rows of a per-point row function over the grid of two axes."""
    return lambda x, y: [row(u, v) for u, v in itertools.product(x.tolist(), y.tolist())]


SWEEP_CHECKS = {
    # check -> (axis names, row columns, (x axis, y axis) -> rows in row-major order)
    "identity": (("a2", "q2"), ("a2", "q2", "residual"), _identity_rows),
    "areacharge": (("q2", "mfrac"), ("q2", "mfrac", "m", "margin", "pass"),
                   _per_point(_area_charge_row)),
    "window": (("q2", "a2"), ("q2", "a2", "neck", "stable"), _per_point(_window_row)),
}

# check -> {axis: (lo, hi)}: the open interval where the check's row function
# is defined.  A neck needs a > 0, and a window row's a = sqrt(a2) needs
# a >= models.MIN_NECK (about 2^-255.5), which every a2 above 2^-511 meets;
# the bound is written out, so that an identity sweep does not load models.
# The admissible mass window needs 0 < Q^2 <= 1/4, but at Q^2 = 1/4 it is a
# single mass whose horizons merge into one triple root; a mass strictly
# inside it has three distinct horizons.
_DOMAINS = {
    "identity": {"a2": (0.0, math.inf)},
    "areacharge": {"q2": (0.0, 0.25), "mfrac": (0.0, 1.0)},
    "window": {"a2": (2.0**-511, math.inf)},
}


def _check_axis(check: str, name: str, lo: float, hi: float, count: int):
    """Reject an axis triple that is not finite bounds and an integer count
    of at least 1, or whose bounds leave the check's domain, naming the axis."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"axis {name} bounds must be finite, got {lo:g}:{hi:g}")
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError(f"axis {name} count must be a positive integer, got {count!r}")
    if min(lo, hi) < 0.0:  # a2 and q2 are squares, mfrac a fraction of the mass window
        raise ValueError(f"axis {name} must be nonnegative, got bounds {lo:g}:{hi:g}")
    d_lo, d_hi = _DOMAINS[check].get(name, (-math.inf, math.inf))
    if not (d_lo < min(lo, hi) and max(lo, hi) < d_hi):
        raise ValueError(
            f"axis {name} must lie in ({d_lo:g}, {d_hi:g}) for check {check!r}, "
            f"got bounds {lo:g}:{hi:g}"
        )


# the most grid points a sweep evaluates (46 times a 150 x 150 grid); a larger
# grid's rows could exhaust memory
_MAX_POINTS = 2**20


def sweep_table(check: str, axes: dict):
    """Evaluate a named check over the grid; returns (header, rows).

    ``axes`` maps each axis name to a (lo, hi, count) triple: finite bounds
    inside the check's domain and an integer count of at least 1.  Rows come
    back in row-major grid order of the check's two axes.  A grid of more
    than ``_MAX_POINTS`` points is refused before any array is built.
    """
    if check not in SWEEP_CHECKS:
        raise ValueError(f"unknown sweep check {check!r} (have {sorted(SWEEP_CHECKS)})")
    axis_names, columns, rows_of = SWEEP_CHECKS[check]
    missing = [name for name in axis_names if name not in axes]
    if missing:
        raise ValueError(f"sweep {check!r} needs axes {axis_names}, missing {missing}")
    for name in axis_names:
        _check_axis(check, name, *axes[name])
    if check == "window":
        # a neck has m >= 0 only while a^4 - 3 a^2 - 3 Q^2 <= 0 (Lambda = 1); that
        # bound on a2 grows with q2, so the smallest q2 on the axis decides.  At
        # the bound itself m = 0 and roundoff can make it negative, so it is out.
        q2_min = min(axes["q2"][:2])
        bound = (3.0 + math.sqrt(9.0 + 12.0 * q2_min)) / 2.0
        if max(axes["a2"][:2]) >= bound:
            raise ValueError(
                f"axis a2 must be below (3 + sqrt(9 + 12 q2))/2 = {bound:g} at the "
                f"smallest q2 = {q2_min:g} for check 'window' (above it the neck has "
                f"negative mass), got bounds {axes['a2'][0]:g}:{axes['a2'][1]:g}"
            )
    nx, ny = (axes[name][2] for name in axis_names)
    if nx * ny > _MAX_POINTS:
        raise ValueError(
            f"sweep grid of {nx} x {ny} = {nx * ny} points exceeds the limit of {_MAX_POINTS} points"
        )
    return columns, rows_of(*(_axis_values(axes[name]) for name in axis_names))


def _fmt(x: float) -> str:
    return format(x + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0


class _Texts(dict):
    """Value -> ``_fmt`` text, stored on first use.  Equal values share a
    text (-0.0 and 0.0 both print "0"); a NaN equals no key and is not stored."""

    def __missing__(self, x):
        text = _fmt(x)
        if x == x:
            self[x] = text
        return text


def _csv(header, rows) -> str:
    """CSV text, floats at 17 significant digits (round-trip exact).

    Each distinct value is formatted once: a sweep repeats every axis value
    along the other axis.
    """
    text = _Texts().__getitem__
    return "\n".join([",".join(header), *(",".join(map(text, row)) for row in rows)]) + "\n"


def render_csv(check: str, axes: dict) -> str:
    """CSV text of a sweep, floats at 17 significant digits."""
    return _csv(*sweep_table(check, axes))
