"""The benchmark tracer patches chmass names from outside the package.

A renamed function or class attribute breaks ``perfbench/run.py --trace 1``
with an AttributeError; this gate catches it in the test suite, and checks
that uninstalling restores every patched name.
"""

import inspect
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _chmass_namespaces():
    """Every chmass module namespace and every class dict defined in one."""
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if name == "chmass" or name.startswith("chmass."):
            spaces[name] = vars(mod)
            for attr, value in vars(mod).items():
                if inspect.isclass(value) and value.__module__ == name:
                    spaces[f"{name}.{attr}"] = value.__dict__
    return spaces


def _snapshot():
    return {space: dict(ns) for space, ns in _chmass_namespaces().items()}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_install_then_uninstall_restores_every_patched_name(spans):
    rec = spans.Recorder()  # imports every traced module
    before = _snapshot()
    rec.install()
    try:
        patched = {(id(owner), attr) for owner, attr, _ in rec._patches}
        traced = {name for name, _, _ in spans.TRACED}
        assert len(patched) >= len(traced)
        assert any(attr == "ThreadPoolExecutor" for _, attr, _ in rec._patches)
        assert _snapshot() != before
    finally:
        rec.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for space, ns in before.items():
        changed = [attr for attr, value in ns.items() if after[space].get(attr) is not value]
        assert not changed, f"{space}: not restored: {changed}"


def test_package_name_resolved_while_traced_is_restored(spans):
    # the package caches no resolved export, so a name first read while the
    # tracer is installed does not keep the tracer's wrapper after uninstall
    import chmass
    import chmass.profile

    original = chmass.profile.integrate_profile
    assert "integrate_profile" not in vars(chmass)
    rec = spans.Recorder()
    rec.install()
    try:
        assert chmass.integrate_profile is not original
        assert chmass.integrate_profile is chmass.profile.integrate_profile
    finally:
        rec.uninstall()
    assert chmass.integrate_profile is chmass.profile.integrate_profile is original
