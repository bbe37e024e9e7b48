"""The three workloads: seeded inputs, one timed op, and its correctness checks.

Every op returns an ``Outcome``: the wall time of the call into ``chmass``
(input generation and checking happen outside the timed region), the units
of work it completed, and its checks as (name, value, bound) triples that
pass when value <= bound.  All bounds are copied unchanged from
``chmass.verification``; boolean conditions enter as 0/1 against 0.5, as
they do there.

Inputs come only from the workload seed: op ``i`` draws from
``numpy.random.default_rng([seed, i])`` (``[seed, cycle]`` for the CLI mix),
so the same seed gives the same inputs and ``chmass`` sees only the values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

NECK_A, NECK_Q = 0.5, 0.3  # the strictly stable neck of criteria 03-10


def _flag(ok: bool) -> float:
    return 0.0 if ok else 1.0


@dataclass
class Outcome:
    seconds: float
    units: int
    checks: list[tuple[str, float, float]] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        # a NaN value fails: NaN <= bound is False
        return self.error is not None or not all(v <= b for _, v, b in self.checks)


def setup_code(n_theta: int, s_max: float) -> str:
    """Source a fresh interpreter runs to time import + grid/tables + profile."""
    return (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import chmass.variations\n"
        "from chmass.profile import integrate_profile\n"
        "from chmass.sphere import build_grid\n"
        f"build_grid({n_theta}, {2 * n_theta}).tables()\n"
        f"integrate_profile({NECK_A}, {NECK_Q}, 1.0, s_max={s_max}, tol=1e-10)\n"
        "print(time.perf_counter() - t0)\n"
    )


class GraphSampling:
    """Batches of seeded random graphs over the neck (criterion 10's experiment)."""

    name = "graph_sampling"
    unit_name = "graphs"
    batch = 40
    n_theta = 32

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> str:
        return setup_code(self.n_theta, 1.0)

    def prepare(self) -> None:
        import chmass.variations

        self.variations = chmass.variations

    def op(self, i: int, in_process: bool = True) -> Outcome:
        batch_seed = int(np.random.default_rng([self.seed, i]).integers(2**31))
        t0 = time.perf_counter()
        rep = self.variations.local_max_experiment(NECK_A, NECK_Q, self.batch, 0.02, batch_seed)
        seconds = time.perf_counter() - t0
        return Outcome(seconds, self.batch, [
            ("max mass excess over the batch", rep.max_excess, 1e-9),
            ("near-equality cases are slices", _flag(rep.all_near_equality_are_slices), 0.5),
            ("every graph sampled", _flag(rep.n_samples == self.batch), 0.5),
        ])


class OracleFine:
    """Analytic-versus-oracle adjudication of one seeded phi at n_theta 128."""

    name = "oracle_fine"
    unit_name = "cases"
    n_theta = 128

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> str:
        return setup_code(self.n_theta, 2.0)

    def prepare(self) -> None:
        import chmass

        self.chmass = chmass

    def op(self, i: int, in_process: bool = True) -> Outcome:
        rng = np.random.default_rng([self.seed, i])
        phi_seed = int(rng.integers(2**31))
        s0 = float(rng.uniform(0.15, 0.6)) * (1.0 if rng.random() < 0.5 else -1.0)
        c = self.chmass
        t0 = time.perf_counter()
        grid = c.build_grid(self.n_theta, 2 * self.n_theta)
        prof = c.integrate_profile(NECK_A, NECK_Q, 1.0, s_max=2.0, tol=1e-10)
        # lmax 4, amplitude 0.5 and the FD steps are criterion 08's and 09's.
        # At higher lmax the C2 normalization leaves |phi| ~ 1e-3 (lmax 32), the
        # FD differences of the order estimate fall to within 10-50x of
        # roundoff, and the order check reads noise (NaN when they tie).
        phi = c.random_c2_field(grid, phi_seed, 4, 0.5)
        second = c.variation_report(prof, 0.0, phi, dt=1e-2)
        first = c.variation_report(prof, s0, phi, dt=2e-2)
        # graph height at criterion 05's amplitude 0.05
        surf = c.GraphSurface(prof, 0.0, c.ScalarField(grid, 0.1 * phi.values))
        lam1 = c.lambda1_discrete(surf)
        flux = c.charge(surf)
        seconds = time.perf_counter() - t0
        # second_fd uses dt/2; criterion 09 bounds both dt and dt/2, and
        # |fd(dt) - analytic| <= |fd(dt/2) - analytic| + step gap
        fd_dev = abs(second.second_fd - second.second_analytic) + second.second_fd_step_gap
        return Outcome(seconds, 1, [
            ("Z on the s0 = 0 slice", second.z_max, 1e-10),
            ("analytic first variation on the s0 = 0 slice", abs(second.first_analytic), 1e-10),
            ("Z on the s0 != 0 slice", first.z_max, 1e-10),
            ("analytic first variation on the s0 != 0 slice", abs(first.first_analytic), 1e-10),
            ("FD convergence order deviation", abs(first.first_order - 2.0), 0.4),
            ("second variation FD oracle match", fd_dev, max(1e-4, 5 * 1e-2**2)),
            ("flux charge of the perturbed graph", abs(flux - NECK_Q), 1e-6),
            ("lambda1 of the perturbed graph is finite", _flag(math.isfinite(lam1)), 0.5),
        ])


# criterion 01: Nariai double root at alpha = 0.8, Lambda = 1
ALPHA_01 = 0.8
M_01 = ALPHA_01 * (1.0 - 2.0 / 3.0 * ALPHA_01**2)
Q_01 = math.sqrt(ALPHA_01**2 * (1.0 - ALPHA_01**2))
ROOTS_01 = [-2.11149, 0.51149, 0.8, 0.8]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _check_horizons(out: str):
    roots = json.loads(out)["roots"]
    expanded = sorted(r["r"] for r in roots for _ in range(r["multiplicity"]))
    err = (max(abs(a - b) for a, b in zip(expanded, ROOTS_01))
           if len(expanded) == len(ROOTS_01) else math.inf)
    double = any(r["multiplicity"] == 2 and abs(r["r"] - ALPHA_01) < 1e-6 for r in roots)
    return [("root multiset vs criterion 01", err, 1e-3),
            ("double multiplicity", _flag(double), 0.5)]


def _check_nariai(out: str):
    return [("Nariai equality residual", abs(json.loads(out)["equality_residual"]), 1e-12)]


def _check_electrostatics(out: str):
    residuals = json.loads(out)["residuals"].values()
    return [("electrostatic residuals", max(residuals), 1e-8)]


def _csv_rows(out: str):
    lines = out.strip().split("\n")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_identity(out: str):
    return [("identity-sweep residual", max(abs(r[2]) for r in _csv_rows(out)), 1e-12)]


def _check_areacharge(out: str):
    return [("areacharge rows pass", _flag(all(r[4] == 1.0 for r in _csv_rows(out))), 0.5)]


def _check_window(out: str):
    # stable must match the closed-form window a^2 in ((1 -+ sqrt(1 - 4Q^2))/2).
    # For Q^2 > 0 a radius inside it is the neck (middle horizon root), except
    # next to an edge, where the neck and its neighbour root come closer than
    # the double-root merge tolerance of horizon_roots and count as one root.
    ok = True
    for q2, a2, neck, stable in _csv_rows(out):
        d = math.sqrt(1.0 - 4.0 * q2)
        margin = min(a2 - (1.0 - d) / 2.0, (1.0 + d) / 2.0 - a2)
        if abs(margin) > 1e-9:
            ok = ok and stable == float(margin > 0)
        if margin > 1e-4:
            ok = ok and neck == 1.0
    return [("window rows match the closed-form window", _flag(ok), 0.5)]


class CliSweeps:
    """``python -m chmass.cli`` subprocesses cycling through a fixed mix."""

    name = "cli_sweeps"
    unit_name = "calls"
    cycle_len = 9

    def __init__(self, seed: int, root: str, env: dict):
        self.seed = seed
        self.env = env
        self.root = root
        self._serial_out: dict[str, str] = {}

    def setup(self) -> None:
        return None  # set-up is a subprocess that only imports chmass.cli

    def prepare(self) -> None:
        import chmass.cli

        self.cli = chmass.cli

    def cycle(self, c: int):
        """The nine (argv, check) pairs of cycle c."""
        rng = np.random.default_rng([self.seed, c])
        a = float(rng.uniform(0.45, 0.65))
        q = float(rng.uniform(0.15, 0.35))
        m = 0.5 * (a - a**3 / 3.0 + q * q / a)  # neck constructor, Lambda = 1
        id_a2 = f"{_fmt(rng.uniform(0.05, 0.1))}:{_fmt(rng.uniform(0.9, 0.95))}:150"
        id_q2 = f"0:{_fmt(rng.uniform(0.2, 0.25))}:150"
        ac_q2 = f"{_fmt(rng.uniform(0.01, 0.05))}:{_fmt(rng.uniform(0.15, 0.2))}:8"
        win_q2 = f"{_fmt(rng.uniform(0.01, 0.05))}:{_fmt(rng.uniform(0.15, 0.2))}:12"
        mix = [
            (["horizons", "--m", _fmt(M_01), "--q", _fmt(Q_01)], _check_horizons),
            (["nariai", "--alpha", "0.8"], _check_nariai),
            (["electrostatics", "--m", _fmt(m), "--q", _fmt(q)], _check_electrostatics),
        ]
        for check, axes, fn in (
            ("identity", ["--a2", id_a2, "--q2", id_q2], _check_identity),
            ("areacharge", ["--q2", ac_q2, "--mfrac", "0.05:0.95:8"], _check_areacharge),
            ("window", ["--q2", win_q2, "--a2", "0.02:0.98:12"], _check_window),
        ):
            for jobs in ("1", "2"):
                mix.append((["sweep", "--check", check, *axes, "--jobs", jobs], fn))
        return mix

    def _call(self, argv, in_process: bool):
        if in_process:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(argv)
            return time.perf_counter() - t0, code, buf.getvalue(), ""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "chmass.cli", *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr

    def op(self, i: int, in_process: bool = False) -> Outcome:
        argv, check = self.cycle(i // self.cycle_len)[i % self.cycle_len]
        seconds, code, out, err = self._call(argv, in_process)
        if code != 0:
            return Outcome(seconds, 1, error=f"exit {code}: {err.strip()[-300:]}")
        checks = check(out)
        if argv[0] == "sweep":
            # jobs 1 and jobs 2 of the same sweep must print byte-identical CSV
            key = " ".join(argv[:-2])
            if argv[-1] == "1":
                self._serial_out[key] = out
            else:
                same = self._serial_out.pop(key, None) == out
                checks.append(("CSV byte-identical at jobs 1 and 2", _flag(same), 0.5))
        return Outcome(seconds, 1, checks)


def make(name: str, seed: int, root: str, env: dict):
    if name == "graph_sampling":
        return GraphSampling(seed)
    if name == "oracle_fine":
        return OracleFine(seed)
    if name == "cli_sweeps":
        return CliSweeps(seed, root, env)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("graph_sampling", "oracle_fine", "cli_sweeps")


def child_env(root: str) -> dict:
    """Environment for chmass subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
