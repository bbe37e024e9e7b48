"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Bounds live in chmass.verification and are fixed; run with ``pytest -s``
to see the per-criterion lines.
"""

import numpy as np
import pytest

from chmass import sphere
from chmass.sphere import SphereGrid
from chmass.verification import CRITERIA, run_all


@pytest.fixture(scope="module")
def summary():
    return run_all()


@pytest.mark.parametrize("index", range(len(CRITERIA)), ids=[c[0] for c in CRITERIA])
def test_criterion(summary, index):
    result = summary.results[index]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid} ({result.title}) in {result.seconds:.2f}s")
    for check in result.checks:
        mark = "ok " if check.passed else "BAD"
        print(f"    [{mark}] {check.name}: value={check.value:.3e} bound={check.bound:.3e}")
    failed = [c for c in result.checks if not c.passed]
    assert not failed, (
        f"criterion {result.cid} failed: "
        + "; ".join(f"{c.name} value={c.value!r} bound={c.bound!r}" for c in failed)
    )


def test_total_runtime(summary):
    total = sum(r.seconds for r in summary.results)
    print(f"acceptance suite wall time: {total:.1f}s")
    assert total < 60.0


# (analyze, synth_derivs, geometry-kernel) calls of each criterion that makes
# any, and the grid nodes it sends through the kernel.  Every stack of graphs
# reaches the kernel in one call, on the grid of surfaces._mass_grid: crit
# 04's 50 slices (band 0) at n_theta 16 (2 calls while stacks were cut into
# chunks of 2**14 grid nodes), crit 05's 20 graphs (drawn at n_theta 64) at
# n_theta 16, crit 09's two 5-graph stencils at n_theta 16 in one call each.
# A band-0 height (a slice) is read at one node with no transform: crit 04's
# slices, crit 06's and crit 08's 7 slices and 10 base slices send one node
# each.  Crit 08's 10 cases each send the base slice, the 6-graph stencil (n_theta 16) and its
# largest-|t| graph re-summed on phi's grid (n_theta 32) in one call each,
# plus its 7 slices.  Crit 10 draws its 200 heights on the 32 x 64
# grid in 25 stacks of 8 and keeps their coefficients; it sums their masses on
# the 16 x 32 grid in 7 blocks of at most 32 graphs (one transform and one
# kernel call each, 200 x 512 nodes), and once more for its largest-excess
# sample on the draw grid (2048 nodes).  A random stack is
# derivative-synthesized once from its drawn coefficients and never analyzed:
# crit 05 draws one stack, crit 08 ten single fields and crit 10 25 stacks.
# Every height is born as coefficients (the seeded draws, the band-0 zero
# heights of crit 04, 06 and 08, crit 09's psi and its constant), and a base
# slice's H is constant, so no criterion analyzes anything; each of crit 08's
# reports synthesizes phi on its grid and on the stencil's.  Counts that fell
# once a band-0 height and a base slice's H were no longer transformed: crit
# 04's and 06's synth_derivs 1 -> 0, crit 08's analyses 10 -> 0 and
# synth_derivs 57 -> 30.
KERNEL_COUNTS = {
    "04": (0, 0, 1, 50),
    "05": (0, 2, 1, 20 * 512),
    "06": (0, 0, 1, 1),
    "08": (0, 30, 37, 7 + 10 * (1 + 6 * 512 + 2048)),
    "09": (0, 2, 2, 10 * 512),
    "10": (0, 33, 8, 200 * 512 + 2048),
}

def test_transform_and_kernel_counts_per_criterion(monkeypatch, kernel_calls):
    # deterministic counting gate for run_all: a per-graph loop shows up as
    # a count that grows with the number of graphs, and a grid finer than the
    # graphs need as a node count that grows with it
    calls = {}

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(SphereGrid, "analyze")
    spy(SphereGrid, "synth_derivs")
    counts = {}
    for cid, _, fn in CRITERIA:
        calls.clear()
        kernel_calls.clear()
        fn()
        if calls or kernel_calls:
            counts[cid] = (
                calls.get("analyze", 0), calls.get("synth_derivs", 0),
                len(kernel_calls), sum(c.nodes for c in kernel_calls),
            )
    assert counts == KERNEL_COUNTS


# numpy Generators each criterion builds: one per seeded field (crit 05's 20
# graphs, crit 08's 10 speed fields, crit 10's 200 samples; 230 in run_all),
# none per coefficient or per sample key
DRAW_COUNTS = {"05": 20, "08": 10, "10": 200}


def test_run_all_draws_one_generator_per_seeded_field(monkeypatch):
    counts = {}
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        counts[cid] = counts.get(cid, 0) + 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for cid, _, fn in CRITERIA:
        fn()
    assert counts == DRAW_COUNTS


def test_run_all_builds_each_legendre_rule_once(monkeypatch):
    # every grid of one n_theta shares one rule: over the suite the Legendre
    # tables are built once per distinct n_theta, at its n_theta / 2 northern nodes
    built = []
    tables = sphere._legendre_tables

    def spy(lmax, x):
        built.append(len(x))
        return tables(lmax, x)

    monkeypatch.setattr(sphere, "_legendre_tables", spy)
    sphere._theta_rule.cache_clear()
    run_all()
    assert sorted(built) == [8, 16, 32]
