"""In-memory span recorder and the per-layer statistics derived from it.

The recorder wraps public ``chmass`` functions from outside the package:
module functions are replaced in every ``chmass`` module that re-binds them
with ``from .x import y``, methods are replaced on their class.  Each call
records a span (name, start, end, parent span, thread); spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (span name, module, attribute path); methods are "Class.method".
TRACED = [
    ("sphere.analyze", "chmass.sphere", "SphereGrid.analyze"),
    ("sphere.synthesize", "chmass.sphere", "SphereGrid.synthesize"),
    ("sphere.synth_derivs", "chmass.sphere", "SphereGrid.synth_derivs"),
    ("sphere.basis_with_gradients", "chmass.sphere", "SphereGrid.basis_with_gradients"),
    ("sphere.random_c2_field", "chmass.sphere", "random_c2_field"),
    ("sphere.c2_norm", "chmass.sphere", "c2_norm"),
    # the table build behind SphereGrid.tables(); a cached lookup makes no call
    ("sphere.tables", "chmass.sphere", "_legendre_tables"),
    ("surfaces.induced_geometry", "chmass.surfaces", "induced_geometry"),
    ("profile.integrate_profile", "chmass.profile", "integrate_profile"),
    ("spectrum.lambda1_discrete", "chmass.spectrum", "lambda1_discrete"),
    ("variations.local_max_experiment", "chmass.variations", "local_max_experiment"),
    ("variations.variation_report", "chmass.variations", "variation_report"),
    ("variations.first_variation", "chmass.variations", "first_variation"),
    ("variations.first_variation_fd", "chmass.variations", "first_variation_fd"),
    ("variations.second_variation_fd", "chmass.variations", "second_variation_fd"),
    ("models.horizon_roots", "chmass.models", "horizon_roots"),
    ("models.admissible_window", "chmass.models", "admissible_window"),
    ("electrostatics.area_charge_report", "chmass.electrostatics", "area_charge_report"),
    (
        "electrostatics.verify_einstein_maxwell_static",
        "chmass.electrostatics",
        "verify_einstein_maxwell_static",
    ),
    ("sweeps.sweep_table", "chmass.sweeps", "sweep_table"),
    ("sweeps.render_csv", "chmass.sweeps", "render_csv"),
    ("cli.run", "chmass.cli", "run"),
]

WAIT_SPAN = "sweeps.sweep_table.wait"  # time blocked on a pool future's result()
FULL = ("calls", "calls_per_op", "self_s", "ms_p50")
LAYER_STATS = [
    ("sphere.analyze", FULL),
    ("sphere.synthesize", FULL),
    ("sphere.synth_derivs", FULL),
    ("sphere.random_c2_field", FULL),
    ("sphere.c2_norm", FULL),
    ("sphere.basis_with_gradients", FULL),
    ("sphere.tables", ("self_s", "mb_computed")),
    ("surfaces.induced_geometry", FULL + ("transform_ratio",)),
    ("profile.integrate_profile", FULL),
    ("spectrum.lambda1_discrete", FULL),
    ("variations.local_max_experiment", ("self_s",)),
    ("variations.variation_report", FULL),
    ("variations.first_variation", FULL),
    ("variations.first_variation_fd", FULL),
    ("variations.second_variation_fd", FULL),
    ("models.horizon_roots", FULL),
    ("models.admissible_window", FULL),
    ("electrostatics.area_charge_report", FULL),
    ("electrostatics.verify_einstein_maxwell_static", FULL),
    ("sweeps.sweep_table", ("self_s", "wait_s")),
    ("sweeps.render_csv", ("self_s",)),
    ("cli", ("startup_s",)),
    ("cli.run", ("self_s",)),
    ("trace", ("overhead_call_s_p50",)),
]
STAT_UNITS = {
    "calls": "count", "calls_per_op": "count", "self_s": "s", "ms_p50": "ms",
    "mb_computed": "MB", "transform_ratio": "ratio", "wait_s": "s", "startup_s": "s",
    "overhead_call_s_p50": "s",
}
# Per-layer metric name -> unit, in report order.  Every name is printed by
# every traced run; a layer the workload does not exercise reads 0.
PER_LAYER = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in LAYER_STATS for stat in stats}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op", "mb")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.op = op
        self.mb = 0.0


class Recorder:
    """Span recorder that patches ``chmass`` while installed.

    ``op`` is the index of the op being traced; every span records it, so
    counts can be attributed per op also for spans in pool threads.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        for _, module_name, _ in TRACED:  # import now, not inside a timed op
            importlib.import_module(module_name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure_mb: bool = False):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            span = Span(name, stack[-1] if stack else None, rec.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                rec.spans.append(span)
            if measure_mb:
                span.mb = sum(a.nbytes for a in result) / 1e6
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function and the sweep pool's futures."""
        import chmass.sweeps

        for name, module_name, path in TRACED:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, measure_mb=(name == "sphere.tables"))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "chmass" or mod_name.startswith("chmass."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

        rec = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                future.result = rec.wrap(WAIT_SPAN, future.result)
                return future

        self._patch(chmass.sweeps, "ThreadPoolExecutor", TracedPool)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": parent, "thread": s.thread, "op": s.op,
                }) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def op_call_counts(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Calls of each traced function, per op index."""
    counts: dict[int, dict[str, int]] = {}
    for s in spans:
        per_op = counts.setdefault(s.op, {})
        per_op[s.name] = per_op.get(s.name, 0) + 1
    return counts


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced ops.

    calls: calls in all traced ops; calls_per_op: calls / ops (exact, must
    repeat); self_s: self time per op, where self time is a span's duration
    minus the union of its child spans; ms_p50: median call duration.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_time(s: Span) -> float:
        kids = children.get(id(s), [])
        return (s.end - s.start) - _covered((k.start, k.end) for k in kids)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        group = by_name.get(fn, [])
        if stat == "calls":
            out[metric] = float(len(group))
        elif stat == "calls_per_op":
            out[metric] = len(group) / n_ops
        elif stat == "self_s":
            out[metric] = sum(self_time(s) for s in group) / n_ops
        elif stat == "ms_p50":
            out[metric] = statistics.median(
                [1e3 * (s.end - s.start) for s in group]) if group else 0.0
        elif stat == "mb_computed":
            out[metric] = sum(s.mb for s in group) / n_ops
    waits = by_name.get(WAIT_SPAN, [])
    out["sweeps.sweep_table.wait_s"] = sum(s.end - s.start for s in waits) / n_ops
    geoms = by_name.get("surfaces.induced_geometry", [])
    transformed = {
        id(s.parent) for s in by_name.get("sphere.synth_derivs", [])
        if s.parent is not None and s.parent.name == "surfaces.induced_geometry"
    }
    out["surfaces.induced_geometry.transform_ratio"] = (
        sum(id(g) in transformed for g in geoms) / len(geoms) if geoms else 0.0
    )
    return out
