"""Command-line front end: subcommand dispatch and bit-stable reports.

Every float in JSON and CSV output is serialized with 17 significant digits
(round-trip exact), and sweep rows come in row-major grid order.  Exit codes:
0 success or all checks passed, 1 verification failure, 2 usage error.

A flat ``key = value`` config file (keys equal to long flag names) can seed
any flag; explicitly passed flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .electrostatics import (
    area_charge_report,
    robinson_shen_residual,
    verify_einstein_maxwell_static,
)
from .models import ModelParams, horizon_roots, nariai_from_alpha, params_from_neck
from .profile import integrate_profile
from .sphere import (
    ScalarField,
    build_grid,
    coeff_index,
    n_coeffs,
    scalar_field_from_dict,
    scalar_field_to_dict,
)
from .spectrum import spectral_report
from .surfaces import GraphSurface, induced_geometry, slice_hawking_mass
from .sweeps import parse_axis, render_csv
from .variations import (
    cmc_foliation,
    local_max_experiment,
    nariai_flow_diagnostic,
    variation_report,
)
from .verification import run_all

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# bit-stable serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0


def to_json(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {to_json(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            return "null"  # JSON has no NaN/inf
        return _fmt(obj)
    return json.dumps(obj)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config file support (flags win over config, config over built-in defaults)
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


class _Resolver:
    """Flag > config-file > built-in default, with type conversion."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config
        self.used_keys = set()

    def get(self, key: str, default, cast=float):
        """The flag's value, else the config file's, else ``default``.

        A NaN or infinite float from the flag or the config file is a usage
        error that names the flag.
        """
        self.used_keys.add(key)
        val = getattr(self.args, key, None)
        if val is None and key in self.config:
            raw = self.config[key]
            val = cast(raw) if cast is not None else raw
        if val is None:
            return default
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"{_flag_name(key)} must be finite, got {val}")
        return val

    def require(self, key: str, cast=float):
        val = self.get(key, None, cast)
        if val is None:
            raise ValueError(f"missing required option {_flag_name(key)}")
        return val


def _flag_name(key: str) -> str:
    """The command-line flag of a resolver key ('lam' -> '--lambda')."""
    for flag, dest, _ in _FLOAT_FLAGS + _INT_FLAGS + _STR_FLAGS:
        if dest == key:
            return flag
    return "--" + key.replace("_", "-")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _model_from(g: _Resolver) -> ModelParams:
    neck_a = g.get("neck_a", None)
    lam = g.get("lam", 1.0)
    q = g.get("q", 0.0)
    if neck_a is not None:
        return params_from_neck(neck_a, q, lam)
    return ModelParams(g.require("m"), q, lam)


def cmd_horizons(g: _Resolver) -> int:
    from .models import lapse_squared, surface_gravity

    p = _model_from(g)
    hs = horizon_roots(p)
    gravities = [
        {"r": r, "k": surface_gravity(r, p)}
        for r, _ in hs.roots
        if r > 0 and abs(lapse_squared(r, p)) <= 1e-8
    ]
    payload = {
        "params": {"m": p.m, "q": p.q, "lambda": p.lam},
        "roots": [{"r": r, "multiplicity": k} for r, k in hs.roots],
        "classification": hs.classification,
        "surface_gravities": gravities,
    }
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def cmd_profile(g: _Resolver) -> int:
    prof = integrate_profile(
        g.require("neck_a"), g.get("q", 0.0), g.get("lam", 1.0),
        s_max=g.get("s_max", 2.0), tol=g.get("tol", 1e-10),
    )
    rows = []
    mch = slice_hawking_mass(prof, prof.samples[:, 0])
    for (s, u, du, ddu), mass in zip(prof.samples, mch):
        rows.append(
            (
                s, u, du, ddu,
                -4 * ddu / u + 2 * (1 - du**2) / u**2,
                -2 * ddu / u,
                -2 * du / u,
                mass,
            )
        )
    _emit(_csv(["s", "u", "du", "ddu", "R", "ric_nn", "H", "mch"], rows), g.get("out", None, str))
    return 0


def _surface_from_file(path: str, s_pad: float = 0.5):
    with open(path) as fh:
        payload = json.load(fh)
    base = payload["base"]
    phi = scalar_field_from_dict(payload["phi"])
    s0 = float(base.get("s0", 0.0))
    reach = abs(s0) + float(np.abs(phi.values).max()) + s_pad
    prof = integrate_profile(
        float(base["neck_a"]), float(base.get("q", 0.0)), float(base.get("lambda", 1.0)),
        s_max=max(1.0, reach),
    )
    return GraphSurface(prof, s0, phi)


def _maybe_emit_field(g: _Resolver, field: ScalarField):
    path = g.get("emit_phi", None, str)
    if path:
        with open(path, "w") as fh:
            fh.write(to_json(scalar_field_to_dict(field)) + "\n")


def cmd_mass(g: _Resolver) -> int:
    surf = _surface_from_file(g.require("surface", str))
    zeta = g.get("zeta", None)
    geom = induced_geometry(surf, zeta=zeta, force_quadrature=True)
    payload = {
        "area": geom.area,
        "charge": geom.charge,
        "mch": geom.mch,
        "h_min": float(geom.h_mean.min()),
        "h_max": float(geom.h_mean.max()),
    }
    _maybe_emit_field(g, surf.phi)
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def _require_unit_lambda(g: _Resolver):
    if g.get("lam", 1.0) != 1.0:
        raise ValueError("this subcommand uses the Lambda = 1 normalization")


def cmd_spectrum(g: _Resolver) -> int:
    _require_unit_lambda(g)
    report = spectral_report(
        g.require("neck_a"), g.get("q", 0.0),
        n_theta=int(g.get("grid", 32, int)), k=int(g.get("k", 9, int)),
    )
    payload = {
        "lambda1_analytic": report.lambda1_analytic,
        "lambda1_discrete": report.lambda1_discrete,
        "laplace_eigenvalues": report.laplace_eigenvalues,
        "window": report.window,
        "identity_residual": report.identity_residual,
    }
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def _parse_speed(spec: str, grid) -> ScalarField:
    if spec.startswith("Y:"):
        l_str, m_str = spec[2:].split(",")
        l, m = int(l_str), int(m_str)
        c = np.zeros(n_coeffs(max(l, 1)))
        c[coeff_index(l, m)] = 1.0
        return ScalarField(grid, grid.synthesize(c))
    with open(spec) as fh:
        return scalar_field_from_dict(json.load(fh), grid=grid)


def cmd_variation(g: _Resolver) -> int:
    _require_unit_lambda(g)
    a = g.require("neck_a")
    q = g.get("q", 0.0)
    s0 = g.get("s0", 0.0)
    n = int(g.get("grid", 32, int))
    grid = build_grid(n, 2 * n)
    speed = _parse_speed(g.require("phi", str), grid)
    prof = integrate_profile(a, q, 1.0, s_max=max(1.0, abs(s0) + 0.5))
    report = variation_report(prof, s0, speed, dt=g.get("dt", 1e-2))
    payload = {
        "first_analytic": report.first_analytic,
        "first_fd": report.first_fd,
        "first_fd_order": report.first_order,
        "z_max": report.z_max,
        "dt": report.dt,
    }
    if report.second_analytic is not None:
        payload.update(
            {
                "second_analytic": report.second_analytic,
                "second_as_printed": report.second_as_printed,
                "second_fd": report.second_fd,
                "second_fd_step_gap": report.second_fd_step_gap,
            }
        )
    _maybe_emit_field(g, speed)
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def cmd_foliate(g: _Resolver) -> int:
    a = g.require("neck_a")
    q = g.get("q", 0.0)
    t_max = g.get("t_max", 1.0)
    steps = int(g.get("steps", 41, int))
    prof = integrate_profile(a, q, g.get("lam", 1.0), s_max=t_max + 0.1)
    states = cmc_foliation(prof, (-t_max, t_max), steps)
    rows = [
        (st.t, st.u, st.h_mean, st.dh_dt, st.lambda1, st.dmch_dt) for st in states
    ]
    _emit(_csv(["t", "u", "H", "dH", "lambda1", "dmch"], rows), g.get("out", None, str))
    return 0


def cmd_localmax(g: _Resolver) -> int:
    _require_unit_lambda(g)
    rep = local_max_experiment(
        g.require("neck_a"), g.get("q", 0.0),
        int(g.get("samples", 200, int)), g.get("amp", 0.02),
        int(g.get("seed", 0, int)),
    )
    payload = {
        "a": rep.a, "q": rep.q,
        "n_samples": rep.n_samples, "amplitude": rep.amplitude, "seed": rep.seed,
        "max_excess": rep.max_excess,
        "n_near_equality": rep.n_near_equality,
        "max_nonconstant_c2": rep.max_nonconstant_c2,
        "all_near_equality_are_slices": rep.all_near_equality_are_slices,
    }
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def cmd_electrostatics(g: _Resolver) -> int:
    alpha = g.get("nariai_alpha", None)
    lam = g.get("lam", 1.0)
    if alpha is not None:
        model = nariai_from_alpha(alpha, lam)
        rs_point = math.pi / (2 * model.omega)
    else:
        model = ModelParams(g.require("m"), g.get("q", 0.0), lam)
        hs = horizon_roots(model)
        if model.m == 0.0 and model.q == 0.0:
            rs_point = 0.6 * max(r for r, _ in hs.positive_roots)
        else:
            rs_point = 0.5 * (hs.r_plus + hs.r_cosmo)
    samples = int(g.get("samples", 32, int))
    h = g.get("h", 1e-4)
    system = verify_einstein_maxwell_static(model, samples=samples)
    bounds = area_charge_report(model)
    payload = {
        "kind": system.kind,
        "lambda": system.lam,
        "residuals": system.residuals,
        "fd_gaps": system.fd_gaps,
        "robinson_shen": {"point": rs_point, "h": h,
                          "residual": robinson_shen_residual(model, rs_point, h=h)},
        "sup_e2": bounds.sup_e2,
        "hypothesis_sup_e2_le_lambda": bounds.hypothesis_sup_e2_le_lambda,
        "components": [
            {
                "r": c.r, "k": c.k, "area": c.area, "euler": c.euler, "charge": c.charge,
                "bound_lhs": c.bound_lhs, "bound_rhs": c.bound_rhs,
                "satisfied": c.satisfied,
            }
            for c in bounds.components
        ],
        "weighted_sum_lhs": bounds.weighted_sum_lhs,
        "weighted_sum_rhs": bounds.weighted_sum_rhs,
    }
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def cmd_nariai(g: _Resolver) -> int:
    npar = nariai_from_alpha(g.require("alpha"), g.get("lam", 1.0))
    flow = nariai_flow_diagnostic(npar)
    payload = {
        "alpha": npar.alpha, "lambda": npar.lam,
        "m": npar.m, "q2": npar.q2, "r_minus": npar.r_minus, "omega": npar.omega,
        "area": flow.area,
        "area_charge_value": flow.area_charge_value,
        "equality_residual": flow.equality_residual,
        "max_abs_h": flow.max_abs_h,
        "hprime_lhs": flow.hprime_lhs,
        "hprime_rhs": flow.hprime_rhs,
    }
    _emit(to_json(payload) + "\n", g.get("out", None, str))
    return 0


def cmd_sweep(g: _Resolver) -> int:
    check = g.require("check", str)
    axes = {}
    for name in ("a2", "q2", "mfrac"):
        spec = g.get(name, None, str)
        if spec is not None:
            axes[name] = parse_axis(spec)
    jobs = g.get("jobs", 1, int)  # accepted for compatibility; sweeps run serially
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    text = render_csv(check, axes)
    _emit(text, g.get("out", None, str))
    return 0


def cmd_verify(g: _Resolver) -> int:
    suite = g.get("suite", "all", str)
    if suite != "all":
        raise ValueError(f"unknown suite {suite!r} (only 'all' is defined)")
    summary = run_all(tol_scale=g.get("tol_scale", 1.0))
    if g.get("format", "text", str) == "json":
        payload = [
            {
                "criterion": r.cid,
                "title": r.title,
                "passed": r.passed,
                "seconds": r.seconds,
                "checks": [
                    {"name": c.name, "value": c.value, "bound": c.bound, "passed": c.passed}
                    for c in r.checks
                ],
            }
            for r in summary.results
        ]
        _emit(to_json(payload) + "\n", g.get("out", None, str))
    else:
        lines = []
        for r in summary.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.cid} {r.title} ({r.seconds:.2f}s)")
            for c in r.checks:
                mark = "ok " if c.passed else "BAD"
                lines.append(
                    f"    [{mark}] {c.name}: value={_fmt(c.value)} bound={_fmt(c.bound)}"
                )
        lines.append("overall: " + ("PASS" if summary.all_passed else "FAIL"))
        _emit("\n".join(lines) + "\n", g.get("out", None, str))
    return 0 if summary.all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_COMMANDS = {
    "horizons": cmd_horizons,
    "profile": cmd_profile,
    "mass": cmd_mass,
    "spectrum": cmd_spectrum,
    "variation": cmd_variation,
    "foliate": cmd_foliate,
    "localmax": cmd_localmax,
    "electrostatics": cmd_electrostatics,
    "nariai": cmd_nariai,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}

_FLOAT_FLAGS = [
    ("--m", "m", "mass parameter"),
    ("--q", "q", "electric charge"),
    ("--lambda", "lam", "cosmological constant (default 1)"),
    ("--neck-a", "neck_a", "neck radius (mass induced by the neck constructor)"),
    ("--s0", "s0", "base slice arclength"),
    ("--s-max", "s_max", "half-width of the integrated arclength range"),
    ("--tol", "tol", "profile tolerance: bound on each collocation panel's series tail"),
    ("--dt", "dt", "finite-difference step"),
    ("--t-max", "t_max", "foliation half-range"),
    ("--amp", "amp", "C^2 amplitude of random test fields"),
    ("--zeta", "zeta", "cosmological term of the mass functional (default 2 Lambda)"),
    ("--h", "h", "radial finite-difference step"),
    ("--alpha", "alpha", "Nariai double-root radius"),
    ("--nariai-alpha", "nariai_alpha", "evaluate the Nariai family at this alpha"),
    ("--tol-scale", "tol_scale", "multiply every acceptance bound (diagnostic only)"),
]

_INT_FLAGS = [
    ("--grid", "grid", "polar quadrature size n_theta (n_phi = 2 n_theta)"),
    ("--k", "k", "number of eigenvalues"),
    ("--steps", "steps", "number of foliation slices"),
    ("--samples", "samples", "number of random samples / radial samples"),
    ("--seed", "seed", "base RNG seed"),
    ("--jobs", "jobs", "accepted; sweeps run serially"),
]

_STR_FLAGS = [
    ("--out", "out", "write output to this path instead of stdout"),
    ("--format", "format", "output format for verify: text or json"),
    ("--surface", "surface", "surface JSON path ({base:{...}, phi:{...}})"),
    ("--phi", "phi", "speed field: 'Y:l,m' or a ScalarField JSON path"),
    ("--check", "check", "sweep check name: identity, areacharge or window"),
    ("--a2", "a2", "axis spec lo:hi:count"),
    ("--q2", "q2", "axis spec lo:hi:count"),
    ("--mfrac", "mfrac", "axis spec lo:hi:count"),
    ("--suite", "suite", "verification suite name (all)"),
    ("--config", "config", "flat key = value config file; flags win"),
    ("--emit-phi", "emit_phi", "also write the speed/height field as ScalarField JSON"),
]


def _attach_axis_specs(argv: list[str]) -> list[str]:
    """Join each axis or float flag to a following value with a single minus.

    argparse reads '-0.1:0.9:2' or '-inf' as an unknown flag; '--a2=-0.1:0.9:2'
    and '--alpha=-inf' pass the value through to ``parse_axis`` or the
    resolver's finiteness check.
    """
    joined = {"--a2", "--q2", "--mfrac"} | {flag for flag, _, _ in _FLOAT_FLAGS}
    out: list[str] = []
    for tok in argv:
        single_minus = tok.startswith("-") and not tok.startswith("--")
        if single_minus and out and out[-1] in joined:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chmass",
        description="charged Hawking mass laboratory on static charged de Sitter backgrounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} subcommand")
        for flag, dest, help_text in _FLOAT_FLAGS:
            p.add_argument(flag, dest=dest, type=float, default=None, help=help_text)
        for flag, dest, help_text in _INT_FLAGS:
            p.add_argument(flag, dest=dest, type=int, default=None, help=help_text)
        for flag, dest, help_text in _STR_FLAGS:
            p.add_argument(flag, dest=dest, type=str, default=None, help=help_text)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and return the exit code."""
    argv = _attach_axis_specs(list(sys.argv[1:] if argv is None else argv))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return _COMMANDS[args.command](_Resolver(args, config))
    except (ValueError, OSError, KeyError) as exc:
        print(f"chmass {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
