import math
from types import SimpleNamespace

import numpy as np
import pytest

from chmass import surfaces


@pytest.fixture
def kernel_calls(monkeypatch):
    """Spy on the geometry kernel: a list that gets one record per call, in
    call order, with its grid, ``shape`` (the broadcast of s0, t and d["f"]),
    ``nodes`` (that shape's size), ``heights`` (t d["f"], or d["f"] without
    t) and ``mass_only``."""
    kernel, calls = surfaces._geometry_from_derivs, []

    def spy(prof, grid, s0, d, t=None, **kw):
        shape = np.broadcast_shapes(np.shape(s0), np.shape(t), d["f"].shape)
        calls.append(SimpleNamespace(
            grid=grid, shape=shape, nodes=math.prod(shape),
            heights=d["f"] if t is None else t * d["f"], mass_only=kw.get("mass_only", False),
        ))
        return kernel(prof, grid, s0, d, t, **kw)

    monkeypatch.setattr(surfaces, "_geometry_from_derivs", spy)
    return calls
