"""Command-line front end: subcommand dispatch and bit-stable reports.

Every float in JSON and CSV output is serialized with 17 significant digits
(round-trip exact), and sweep rows come in row-major grid order.  Exit codes:
0 success or all checks passed, 1 verification failure, 2 usage or domain
error (an input whose profile cannot be integrated among them).

``_COMMANDS`` declares each subcommand once: its function and the flags it
reads, with their defaults.  A subcommand accepts only those flags plus
``--out`` and ``--config``; an unknown or abbreviated flag is a usage error.
A flat ``key = value`` config file (keys equal to long flag names) can seed
any of a subcommand's flags; explicitly passed flags win, and keys the
subcommand does not read are ignored.  A subcommand returns its report;
``run`` renders it (a string as is, anything else as JSON) and writes it to
``--out`` or stdout.  Each subcommand imports the chmass modules it runs, so
a process loads only those of the subcommand it dispatches.  ``variation``
and ``nariai`` print their reports' own fields, renamed by ``_KEYS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .sweeps import _csv, _fmt, parse_axis, render_csv

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# bit-stable serialization
# ---------------------------------------------------------------------------


def to_json(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (round-trip exact).

    A dataclass instance is rendered as an object of its fields, in order.
    """
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
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


# ---------------------------------------------------------------------------
# flag resolution: flag, then config file, then the subcommand's default
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


_REQUIRED = object()  # default of a flag the subcommand cannot run without
_UNIT_LAMBDA = object()  # default of --lambda where only Lambda = 1 is implemented
_MAX_ROOT = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


def _resolve(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """Each dest of ``defaults``: its flag's value, else the config file's
    (converted to the flag's type), else the default.

    A NaN or infinite float, a --q or --neck-a whose square is not a finite
    float, a --neck-a below ``models.MIN_NECK``, a missing required flag and
    a --lambda other than 1 where only Lambda = 1 is implemented are usage
    errors that name the flag; they are raised in the order of ``defaults``.
    """
    values = {}
    for dest, default in defaults.items():
        flag, typ = _DESTS[dest]
        val = getattr(args, dest)
        if val is None and dest in config:
            val = typ(config[dest])
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"{flag} must be finite, got {val}")
        if dest in ("q", "neck_a") and val is not None and abs(val) > _MAX_ROOT:
            raise ValueError(
                f"{flag} must be at most {_MAX_ROOT:.6g} in magnitude (a finite square), got {val}"
            )
        if dest == "neck_a" and val is not None:
            from .models import MIN_NECK  # each command reading --neck-a loads models
            if not val >= MIN_NECK:
                raise ValueError(f"{flag} must be at least {MIN_NECK:.6g} (a normal a^4), got {val}")
        if default is _UNIT_LAMBDA:
            if val not in (None, 1.0):
                raise ValueError("this subcommand uses the Lambda = 1 normalization")
            val = 1.0
        elif val is None:
            if default is _REQUIRED:
                raise ValueError(f"missing required option {flag}")
            val = default
        values[dest] = val
    return values


# largest --steps (foliation slices) and --samples (localmax graphs,
# electrostatics radial points): a larger count is refused before anything
# is allocated
_MAX_COUNT = 2**16


def _count(v: dict, dest: str) -> int:
    """The count ``v[dest]``, refused above ``_MAX_COUNT`` as a usage error."""
    if v[dest] > _MAX_COUNT:
        raise ValueError(f"{_DESTS[dest][0]} must be at most {_MAX_COUNT}, got {v[dest]}")
    return v[dest]


def _model_from(v: dict, alt: str, build):
    """``build(v[alt])`` when the alternative parameter (--neck-a or
    --nariai-alpha) is given, else the model of --m, --q and --lambda, which
    then needs --m."""
    from .models import ModelParams
    if v[alt] is not None:
        return build(v[alt])
    if v["m"] is None:
        raise ValueError("missing required option --m")
    return ModelParams(v["m"], v["q"], v["lambda"])


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved flags and returns its report
# ---------------------------------------------------------------------------


_KEYS = {"lam": "lambda", "first_order": "first_fd_order"}  # report field: output key


def _fields(report) -> dict:
    """A report dataclass's fields in order, keyed by their output names."""
    return {_KEYS.get(k, k): x for k, x in dataclasses.asdict(report).items()}


def cmd_horizons(v: dict):
    from .models import (
        HORIZON_TOL, horizon_roots, lapse_squared, params_from_neck, surface_gravity,
    )
    p = _model_from(v, "neck_a", lambda a: params_from_neck(a, v["q"], v["lambda"]))
    hs = horizon_roots(p)
    gravities = [  # the roots that surface_gravity accepts as horizons
        {"r": r, "k": surface_gravity(r, p)}
        for r, _ in hs.roots
        if r > 0 and abs(lapse_squared(r, p)) <= HORIZON_TOL
    ]
    return {
        "params": {"m": p.m, "q": p.q, "lambda": p.lam},
        "roots": [{"r": r, "multiplicity": k} for r, k in hs.roots],
        "classification": hs.classification,
        "surface_gravities": gravities,
    }


def cmd_profile(v: dict):
    from .profile import curvature_scalars, integrate_profile, slice_hawking_mass
    prof = integrate_profile(v["neck_a"], v["q"], v["lambda"], s_max=v["s_max"], tol=v["tol"])
    s = np.linspace(-prof.s_max, prof.s_max, 513)
    sc = curvature_scalars(prof, s)
    rows = np.column_stack(
        (s, *prof.state(s), sc["R"], sc["ric_nn"], sc["h_slice"], slice_hawking_mass(prof, s))
    )
    return _csv(["s", "u", "du", "ddu", "R", "ric_nn", "H", "mch"], rows)


def _surface_from_file(path: str, s_pad: float = 0.5):
    from .profile import integrate_profile
    from .sphere import scalar_field_from_dict
    from .surfaces import GraphSurface
    with open(path) as fh:
        payload = json.load(fh)
    missing = [k for k in ("base", "phi") if not isinstance(payload, dict) or k not in payload]
    if missing or not isinstance(payload["base"], dict) or "neck_a" not in payload["base"]:
        raise ValueError(f"surface JSON lacks {', '.join(missing or ['base.neck_a'])}")
    base = payload["base"]

    def number(key, default=None):
        try:
            return float(base.get(key, default))
        except (TypeError, ValueError):
            raise ValueError(f"surface JSON base.{key} is not a number: {base[key]!r:.40}") from None

    try:
        phi = scalar_field_from_dict(payload["phi"])
    except ValueError as exc:
        raise ValueError(f"surface JSON phi: {exc}") from None
    s0 = number("s0", 0.0)
    reach = abs(s0) + float(np.abs(phi.values).max()) + s_pad
    prof = integrate_profile(
        number("neck_a"), number("q", 0.0), number("lambda", 1.0), s_max=max(1.0, reach)
    )
    return GraphSurface(prof, s0, phi)


def _maybe_emit_field(v: dict, field):
    if v["emit_phi"]:
        from .sphere import scalar_field_to_dict
        with open(v["emit_phi"], "w") as fh:
            fh.write(to_json(scalar_field_to_dict(field)) + "\n")


def cmd_mass(v: dict):
    from .surfaces import charged_hawking_mass, induced_geometry
    surf = _surface_from_file(v["surface"])
    geom = induced_geometry(surf)
    _maybe_emit_field(v, surf.phi)
    return {
        "area": geom.area,
        "charge": geom.charge,
        "mch": charged_hawking_mass(surf, v["zeta"]),
        "h_min": float(geom.h_mean.min()),
        "h_max": float(geom.h_mean.max()),
    }


def cmd_spectrum(v: dict):
    if v["grid"] < 9:
        raise ValueError(f"--grid must be at least 9 (the pencils' band is 8), got {v['grid']}")
    from .spectrum import spectral_report
    return spectral_report(v["neck_a"], v["q"], n_theta=v["grid"], k=v["k"])


def _parse_speed(spec: str, grid):
    from .sphere import ScalarField, coeff_index, n_coeffs, scalar_field_from_dict
    if spec.startswith("Y:"):
        try:
            l, m = map(int, spec[2:].split(","))
        except ValueError:
            raise ValueError(
                f"--phi must be 'Y:l,m' (integers l, m) or a ScalarField JSON path, got {spec!r}"
            ) from None
        c = np.zeros(n_coeffs(l))
        c[coeff_index(l, m)] = 1.0
        return ScalarField.from_coeffs(grid, c)
    with open(spec) as fh:
        return scalar_field_from_dict(json.load(fh), grid=grid)


def cmd_variation(v: dict):
    from .profile import integrate_profile
    from .sphere import build_grid
    from .variations import variation_report
    s0, n = v["s0"], v["grid"]
    speed = _parse_speed(v["phi"], build_grid(n, 2 * n))
    prof = integrate_profile(v["neck_a"], v["q"], 1.0, s_max=max(1.0, abs(s0) + 0.5))
    report = variation_report(prof, s0, speed, dt=v["dt"])
    _maybe_emit_field(v, speed)
    # the second-variation block is None away from the minimal slice; the FD
    # order and floor ratios are undefined (nan, inf) where a difference is 0
    undefined_if_nonfinite = ("first_fd_order", "first_floor_ratio", "second_floor_ratio")
    return {
        k: x for k, x in _fields(report).items()
        if x is not None and (k not in undefined_if_nonfinite or math.isfinite(x))
    }


def cmd_foliate(v: dict):
    from .profile import cmc_foliation, integrate_profile
    t_max, steps = v["t_max"], _count(v, "steps")
    if t_max <= 0.0:
        raise ValueError(f"--t-max must be positive, got {t_max}")
    prof = integrate_profile(v["neck_a"], v["q"], v["lambda"], s_max=t_max + 0.1)
    states = cmc_foliation(prof, (-t_max, t_max), steps)
    rows = [
        (st.t, st.u, st.h_mean, st.dh_dt, st.lambda1, st.dmch_dt) for st in states
    ]
    return _csv(["t", "u", "H", "dH", "lambda1", "dmch"], rows)


def cmd_localmax(v: dict):
    if v["amp"] == 0.0:  # a negative amplitude is refused by the experiment
        raise ValueError(f"--amp must be positive (at 0 every sample is the neck), got {v['amp']}")
    from .variations import local_max_experiment
    return local_max_experiment(v["neck_a"], v["q"], _count(v, "samples"), v["amp"], v["seed"])


def cmd_electrostatics(v: dict):
    samples = _count(v, "samples")
    from .electrostatics import (
        area_charge_report, robinson_shen_residual, verify_einstein_maxwell_static,
    )
    from .models import nariai_from_alpha
    model = _model_from(v, "nariai_alpha", lambda alpha: nariai_from_alpha(alpha, v["lambda"]))
    h = v["h"]
    system = verify_einstein_maxwell_static(model, samples=samples)
    bounds = area_charge_report(model)
    return {
        "kind": system.kind,
        "lambda": system.lam,
        "residuals": system.residuals,
        "fd_gaps": system.fd_gaps,
        "robinson_shen": {
            "point": system.robinson_shen_point, "h": h,
            "residual": robinson_shen_residual(model, system.robinson_shen_point, h=h),
        },
        "sup_e2": bounds.sup_e2,
        "hypothesis_sup_e2_le_lambda": bounds.hypothesis_sup_e2_le_lambda,
        "components": bounds.components,
        "weighted_sum_lhs": bounds.weighted_sum_lhs,
        "weighted_sum_rhs": bounds.weighted_sum_rhs,
    }


def cmd_nariai(v: dict):
    from .models import nariai_from_alpha
    from .profile import nariai_flow_diagnostic
    npar = nariai_from_alpha(v["alpha"], v["lambda"])
    # the flow report repeats alpha and q2 of npar, so the keys keep npar's order
    return {**_fields(npar), **_fields(nariai_flow_diagnostic(npar))}


def cmd_sweep(v: dict):
    axes = {name: parse_axis(v[name]) for name in ("a2", "q2", "mfrac") if v[name] is not None}
    if v["jobs"] < 1:  # --jobs is accepted for compatibility; sweeps run serially
        raise ValueError(f"jobs must be at least 1, got {v['jobs']}")
    return render_csv(v["check"], axes)


def cmd_verify(v: dict):
    """Returns (exit code, report): 1 when any criterion fails."""
    if v["format"] not in ("text", "json"):
        raise ValueError(f"--format must be text or json, got {v['format']!r}")
    from .verification import run_all
    summary = run_all()
    code = 0 if summary.all_passed else 1
    if v["format"] == "json":
        return code, [
            {
                "criterion": r.cid, "title": r.title, "passed": r.passed,
                "seconds": r.seconds,
                # margin = value / bound (every bound is positive): a check fails above 1
                "checks": [{**dataclasses.asdict(c), "margin": c.value / c.bound} for c in r.checks],
            }
            for r in summary.results
        ]
    lines = []
    for r in summary.results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.cid} {r.title} ({r.seconds:.2f}s)")
        for c in r.checks:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"    [{mark}] {c.name}: value={_fmt(c.value)} bound={_fmt(c.bound)}")
    lines.append("overall: " + ("PASS" if summary.all_passed else "FAIL"))
    return code, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flag table, subcommand table and parser
# ---------------------------------------------------------------------------

_FLAGS = {  # flag: (dest, type, help)
    "--m": ("m", float, "mass parameter"),
    "--q": ("q", float, "electric charge"),
    "--lambda": ("lambda", float, "cosmological constant (default 1)"),
    "--neck-a": ("neck_a", float, "neck radius (mass induced by the neck constructor)"),
    "--s0": ("s0", float, "base slice arclength"),
    "--s-max": ("s_max", float, "half-width of the integrated arclength range"),
    "--tol": ("tol", float, "profile tolerance: bound on each collocation panel's series tail"),
    "--dt": ("dt", float, "finite-difference step"),
    "--t-max": ("t_max", float, "foliation half-range"),
    "--amp": ("amp", float, "C^2 amplitude of random test fields"),
    "--zeta": ("zeta", float, "cosmological term of the mass functional (default 2 Lambda)"),
    "--h": ("h", float, "radial finite-difference step"),
    "--alpha": ("alpha", float, "Nariai double-root radius"),
    "--nariai-alpha": ("nariai_alpha", float, "evaluate the Nariai family at this alpha"),
    "--grid": ("grid", int, "polar quadrature size n_theta (n_phi = 2 n_theta)"),
    "--k": ("k", int, "number of eigenvalues"),
    "--steps": ("steps", int, "number of foliation slices"),
    "--samples": ("samples", int, "number of random samples / radial samples"),
    "--seed": ("seed", int, "base RNG seed"),
    "--jobs": ("jobs", int, "accepted; sweeps run serially"),
    "--out": ("out", str, "write output to this path instead of stdout"),
    "--format": ("format", str, "output format for verify: text or json"),
    "--surface": ("surface", str, "surface JSON path ({base:{...}, phi:{...}})"),
    "--phi": ("phi", str, "speed field: 'Y:l,m' or a ScalarField JSON path"),
    "--check": ("check", str, "sweep check name: identity, areacharge or window"),
    "--a2": ("a2", str, "axis spec lo:hi:count"),
    "--q2": ("q2", str, "axis spec lo:hi:count"),
    "--mfrac": ("mfrac", str, "axis spec lo:hi:count"),
    "--config": ("config", str, "flat key = value config file; flags win"),
    "--emit-phi": ("emit_phi", str, "also write the speed/height field as ScalarField JSON"),
}

_DESTS = {dest: (flag, typ) for flag, (dest, typ, _) in _FLAGS.items()}

_COMMON = ("out", "config")  # flags of every subcommand

# subcommand: (function, {dest: default}); the order of a defaults dict is the
# order in which its usage errors are reported
_COMMANDS = {
    "horizons": (cmd_horizons, {"neck_a": None, "lambda": 1.0, "q": 0.0, "m": None}),
    "profile": (cmd_profile, {
        "neck_a": _REQUIRED, "q": 0.0, "lambda": 1.0, "s_max": 2.0, "tol": 1e-10,
    }),
    "mass": (cmd_mass, {"surface": _REQUIRED, "zeta": None, "emit_phi": None}),
    "spectrum": (cmd_spectrum, {
        "lambda": _UNIT_LAMBDA, "neck_a": _REQUIRED, "q": 0.0, "grid": 32, "k": 9,
    }),
    "variation": (cmd_variation, {
        "lambda": _UNIT_LAMBDA, "neck_a": _REQUIRED, "q": 0.0, "s0": 0.0, "grid": 32,
        "phi": _REQUIRED, "dt": 1e-2, "emit_phi": None,
    }),
    "foliate": (cmd_foliate, {
        "neck_a": _REQUIRED, "q": 0.0, "t_max": 1.0, "steps": 41, "lambda": 1.0,
    }),
    "localmax": (cmd_localmax, {
        "lambda": _UNIT_LAMBDA, "neck_a": _REQUIRED, "q": 0.0, "samples": 200, "amp": 0.02,
        "seed": 0,
    }),
    "electrostatics": (cmd_electrostatics, {
        "nariai_alpha": None, "lambda": 1.0, "m": None, "q": 0.0, "samples": 32, "h": 1e-4,
    }),
    "nariai": (cmd_nariai, {"alpha": _REQUIRED, "lambda": 1.0}),
    "sweep": (cmd_sweep, {"check": _REQUIRED, "a2": None, "q2": None, "mfrac": None, "jobs": 1}),
    "verify": (cmd_verify, {"format": "text"}),
}


def _attach_axis_specs(argv: list[str]) -> list[str]:
    """Join each axis or float flag to a following value with a single minus.

    argparse reads '-0.1:0.9:2' or '-inf' as an unknown flag; '--a2=-0.1:0.9:2'
    and '--alpha=-inf' pass the value through to ``parse_axis`` or the
    resolver's finiteness check.
    """
    joined = {"--a2", "--q2", "--mfrac"} | {f for f, (_, typ, _) in _FLAGS.items() if typ is float}
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
    for name, (_, defaults) in _COMMANDS.items():
        # no prefix matching: with per-subcommand flags, '--m' would become '--mfrac'
        p = sub.add_parser(name, help=f"{name} subcommand", allow_abbrev=False)
        for flag, (dest, typ, help_text) in _FLAGS.items():
            if dest in defaults or dest in _COMMON:
                p.add_argument(flag, dest=dest, type=typ, help=help_text)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, write the report, and return the exit code."""
    argv = _attach_axis_specs(list(sys.argv[1:] if argv is None else argv))
    args = _build_parser().parse_args(argv)
    fn, defaults = _COMMANDS[args.command]
    try:
        config = _load_config(args.config) if args.config else {}
        values = _resolve(args, config, {**defaults, "out": None})
        report = fn(values)
        code, report = report if isinstance(report, tuple) else (0, report)
        text = report if isinstance(report, str) else to_json(report) + "\n"
        if values["out"]:
            with open(values["out"], "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError, KeyError) as exc:
        print(f"chmass {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
