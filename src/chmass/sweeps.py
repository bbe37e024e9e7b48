"""Deterministic parameter sweeps over pure per-point evaluations.

Grid points are enumerated in row-major axis order and evaluated by a worker
pool; rows are buffered by grid index and emitted in enumeration order, so
the rendered CSV is byte-identical at every parallelism degree.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .models import (
    CLASS_GENERIC,
    ModelParams,
    admissible_window,
    horizon_roots,
    params_from_neck,
)
from .electrostatics import area_charge_report
from .spectrum import eigenvalue_area_charge_residual, stability_window

__all__ = ["SWEEP_CHECKS", "sweep_table", "render_csv", "parse_axis"]


def parse_axis(spec: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:count' into an axis triple."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be lo:hi:count, got {spec!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"axis bounds must be finite, got {spec!r}")
    if count < 1:
        raise ValueError("axis count must be positive")
    return lo, hi, count


def _axis_values(triple):
    lo, hi, count = triple
    return np.linspace(lo, hi, count)


def _identity_row(a2: float, q2: float):
    res = eigenvalue_area_charge_residual(math.sqrt(a2), math.sqrt(q2))
    return (a2, q2, res)


def _area_charge_row(q2: float, mfrac: float):
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
    q = math.sqrt(q2)
    a = math.sqrt(a2)
    w = stability_window(q)
    hs = horizon_roots(params_from_neck(a, q, 1.0))
    is_neck = 1.0 if (
        hs.classification == CLASS_GENERIC and abs(hs.r_plus - a) <= 1e-8 * max(1.0, a)
    ) else 0.0
    stable = 1.0 if (w is not None and w[0] + 1e-12 < a2 < w[1] - 1e-12) else 0.0
    return (q2, a2, is_neck, stable)


SWEEP_CHECKS = {
    # check -> (axis names, row columns, row function)
    "identity": (("a2", "q2"), ("a2", "q2", "residual"), _identity_row),
    "areacharge": (("q2", "mfrac"), ("q2", "mfrac", "m", "margin", "pass"), _area_charge_row),
    "window": (("q2", "a2"), ("q2", "a2", "neck", "stable"), _window_row),
}

# check -> {axis: (lo, hi)}: the open interval where the check's row function
# is defined.  A neck needs a > 0.  The admissible mass window needs
# 0 < Q^2 <= 1/4, but at Q^2 = 1/4 it is a single mass whose horizons merge
# into one triple root; a mass strictly inside it has three distinct horizons.
_DOMAINS = {
    "identity": {"a2": (0.0, math.inf)},
    "areacharge": {"q2": (0.0, 0.25), "mfrac": (0.0, 1.0)},
    "window": {"a2": (0.0, math.inf)},
}


def _check_domain(check: str, name: str, lo: float, hi: float):
    """Reject an axis whose bounds leave the check's domain, naming the axis."""
    if min(lo, hi) < 0.0:  # a2 and q2 are squares, mfrac a fraction of the mass window
        raise ValueError(f"axis {name} must be nonnegative, got bounds {lo:g}:{hi:g}")
    d_lo, d_hi = _DOMAINS[check].get(name, (-math.inf, math.inf))
    if not (d_lo < min(lo, hi) and max(lo, hi) < d_hi):
        raise ValueError(
            f"axis {name} must lie in ({d_lo:g}, {d_hi:g}) for check {check!r}, "
            f"got bounds {lo:g}:{hi:g}"
        )


def sweep_table(check: str, axes: dict, jobs: int = 1):
    """Evaluate a named check over the grid; returns (header, rows).

    Rows come back in deterministic row-major grid order regardless of
    ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if check not in SWEEP_CHECKS:
        raise ValueError(f"unknown sweep check {check!r} (have {sorted(SWEEP_CHECKS)})")
    axis_names, columns, fn = SWEEP_CHECKS[check]
    missing = [name for name in axis_names if name not in axes]
    if missing:
        raise ValueError(f"sweep {check!r} needs axes {axis_names}, missing {missing}")
    for name in axis_names:
        _check_domain(check, name, *axes[name][:2])
    grids = [_axis_values(axes[name]) for name in axis_names]
    points = [(i, vals) for i, vals in enumerate(
        (tuple(float(g[k]) for g, k in zip(grids, idx)))
        for idx in np.ndindex(*[len(g) for g in grids])
    )]
    if not points:
        raise ValueError("empty sweep grid")

    if jobs == 1:
        rows = [fn(*vals) for _, vals in points]
    else:
        buffer = {}
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(fn, *vals): i for i, vals in points}
            for fut, i in futures.items():
                buffer[i] = fut.result()
        rows = [buffer[i] for i in range(len(points))]
    return columns, rows


def render_csv(check: str, axes: dict, jobs: int = 1) -> str:
    """CSV text of a sweep, floats at 17 significant digits."""
    columns, rows = sweep_table(check, axes, jobs)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"
