"""Shared fixtures: rebinding a hopfgal function everywhere, and a Kronecker recorder.

The hopfgal modules import one another's functions by name, so a wrapper
must replace a function in every module that binds it. The recorder wraps
``exact_linear.on_legs``, the kernel that applies a map to a block of tensor
legs: every operator on a tensor product that the library builds comes out
of it, ``Mat.kron`` included (two calls through ``exact_linear``, so
rebinding that name there records them too), and its result is the widest
matrix such a step builds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest

from hopfgal import exact_linear


@pytest.fixture
def rebind(monkeypatch):
    """rebind(fn, replacement): bind replacement wherever a hopfgal module binds fn by name."""

    def bind(fn, replacement):
        for name, module in list(sys.modules.items()):
            if name.startswith("hopfgal.") and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, replacement)

    return bind


@dataclass
class KronRecorder:
    """``on_legs`` results built so far: how many, and the widest, max(rows, cols)."""

    calls: int = 0
    widest: int = 0


@pytest.fixture
def kron_recorder(rebind):
    recorder = KronRecorder()
    on_legs = exact_linear.on_legs

    def recording(op, m, before, after):
        out = on_legs(op, m, before, after)
        recorder.calls += 1
        recorder.widest = max(recorder.widest, out.rows, out.cols)
        return out

    rebind(on_legs, recording)
    return recorder
