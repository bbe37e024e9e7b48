#!/usr/bin/env python3
"""chmass benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload graph_sampling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30      # every workload, one table

One client process drives ``chmass`` from outside, one op at a time.  With
``--trace 0`` it times the ops and prints the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced ops, prints the per-layer
metrics and the tracing overhead, and writes the spans to ``perfbench/out/``.
Every op's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))

sys.path.insert(0, str(HERE))
import envinfo  # noqa: E402

envinfo.cap_threads(NPROC)  # before numpy is imported

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
OVERRUN_S = 60.0  # stop mid-cycle rather than run this far past --seconds

END_TO_END = {
    "setup_s": "s",
    "call_s_p90": "s",
    "peak_rss_mb": "MB",
}
# printed with the others but not gated.  work_per_s and call_s_p50 move
# with how busy a shared host is: on a 2-vCPU Xeon VM whole runs went about
# 25% faster in its quiet periods, and their spread over ten runs reached
# 0.29-0.30; p90, inside the busy speed, stayed at 0.17 or below.  failed_ratio and error_to_bound
# read 0 or below on healthy code.
REPORT_ONLY = {
    "work_per_s": "1/s",
    "call_s_p50": "s",
    "failed_ratio": "ratio",
    "error_to_bound": "ratio",
}


def load_chmass() -> None:
    """Import chmass from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "chmass" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chmass sources under {src}")
    sys.path.insert(0, str(src))
    import chmass

    if Path(chmass.__file__).resolve().parent != (src / "chmass").resolve():
        sys.exit(f"perfbench: imported chmass from {chmass.__file__}, not {src}")


def measure_setup(wl, env) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters.

    In-process workloads time import + grid/tables + profile inside the
    child; cli_sweeps times the whole child, which only imports chmass.cli.
    """
    code = wl.setup()
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", code or "import chmass.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip()) if code else wall)
    return times


def run_op(wl, i: int, in_process: bool) -> workloads.Outcome:
    t0 = time.perf_counter()
    try:
        return wl.op(i, in_process=in_process)
    except Exception:  # an op that raises is a failed op; the loop goes on
        return workloads.Outcome(time.perf_counter() - t0, 0,
                                 error=traceback.format_exc(limit=3).strip())


def loop(wl, seconds: float, trace: bool, recorder=None):
    """Closed loop: next op after the previous one returns, for ``seconds``.

    Ops run in whole cycles of the workload's mix (whole pairs of cycles
    when tracing, so traced and untraced ops cover the same mix).  Returns
    (outcomes, traced flags).
    """
    period = getattr(wl, "cycle_len", 1) * (2 if trace else 1)
    in_process = trace or wl.name != "cli_sweeps"
    outcomes, traced_flags = [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        if traced:
            recorder.op = i
            recorder.install()
        try:
            out = run_op(wl, i, in_process)
        finally:
            if traced:
                recorder.uninstall()
        if out.failed:
            print(f"op {i} FAILED: {out.error or out.checks}", file=sys.stderr)
        outcomes.append(out)
        traced_flags.append(traced)
        # chmass geometries hold reference cycles (surface <-> cached geometry);
        # collect them between ops so peak RSS does not depend on when the
        # cyclic collector last ran in an earlier op
        gc.collect()
        i += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i % period == 0) or elapsed >= seconds + OVERRUN_S:
            return outcomes, traced_flags


def error_to_bound(outcomes) -> float:
    ratios = [v / b for o in outcomes for _, v, b in o.checks]
    return max((math.inf if math.isnan(r) else r for r in ratios), default=math.nan)


def end_to_end_metrics(wl, outcomes, setup_times) -> dict:
    secs = [o.seconds for o in outcomes]
    failed = sum(o.failed for o in outcomes)
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_sweeps" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(o.units for o in outcomes) / sum(secs),
        "call_s_p50": float(np.percentile(secs, 50)),
        "call_s_p90": float(np.percentile(secs, 90)),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "failed_ratio": failed / len(outcomes),
        "error_to_bound": error_to_bound(outcomes),
    }


def per_layer_metrics(wl, recorder, outcomes, traced_flags, setup_times) -> dict:
    traced = [o.seconds for o, t in zip(outcomes, traced_flags) if t]
    plain = [o.seconds for o, t in zip(outcomes, traced_flags) if not t]
    metrics = spans.layer_metrics(recorder.spans, len(traced))
    metrics["cli.startup_s"] = statistics.median(setup_times) if wl.name == "cli_sweeps" else 0.0
    metrics["trace.overhead_call_s_p50"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def counts_repeat(wl, recorder, traced_flags) -> bool:
    """True when traced ops of the same mix position made identical calls."""
    counts = spans.op_call_counts(recorder.spans)
    cycle = getattr(wl, "cycle_len", 1)
    seen: dict[int, dict] = {}
    for i, traced in enumerate(traced_flags):
        if traced:
            mine = counts.get(i, {})
            if seen.setdefault(i % cycle, mine) != mine:
                return False
    return True


def run_workload(args) -> int:
    load_chmass()
    env = workloads.child_env(str(ROOT))
    wl = workloads.make(args.workload, args.seed, str(ROOT), env)
    print(f"# chmass benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(envinfo.environment(ROOT, NPROC)))
    setup_times = measure_setup(wl, env)
    wl.prepare()
    if wl.name != "cli_sweeps":
        # one untimed op, on op 0's input: a process's first op runs slower
        # (about 8% on oracle_fine), which would weigh on a median of few ops
        run_op(wl, 0, in_process=True)
        gc.collect()
    recorder = spans.Recorder() if args.trace else None
    outcomes, traced_flags = loop(wl, args.seconds, bool(args.trace), recorder)
    failed = sum(o.failed for o in outcomes)

    if args.trace:
        metrics = per_layer_metrics(wl, recorder, outcomes, traced_flags, setup_times)
        units = spans.PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        recorder.dump(spans_path)
        print(f"traced ops: {sum(traced_flags)} of {len(outcomes)}; "
              f"calls per op repeat exactly: {counts_repeat(wl, recorder, traced_flags)}; "
              f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(wl, outcomes, setup_times)
        units = {**END_TO_END, **REPORT_ONLY}
        print(f"ops: {len(outcomes)} ({sum(o.units for o in outcomes)} {wl.unit_name}), "
              f"set-ups: {len(setup_times)}")
    for name, unit in units.items():
        print(f"{name:58s} {metrics[name]:.6g} {unit}")
    gated = units if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in gated.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one table."""
    results, reports = {}, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        reports[name] = lines
    if not args.trace:
        header = f"{'metric':16s}" + "".join(f"{n:>16s}" for n in workloads.WORKLOADS)
        print(header)
        for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
            row = [_report_value(reports[w], name) for w in workloads.WORKLOADS]
            print(f"{name:16s}" + "".join(f"{v:>16s}" for v in row) + f"  {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def _report_value(lines, name: str) -> str:
    for line in lines:
        parts = line.split()
        if parts and parts[0] == name:
            return parts[1]
    return "-"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
