"""Shared fixtures: rebinding a hopfgal function everywhere, and a Kronecker recorder.

The hopfgal modules import one another's functions by name, so a wrapper
must replace a function in every module that binds it. ``Mat.kron`` calls
``kron_interleaved`` through ``exact_linear``, so rebinding that name there
records it too.
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
    """Kronecker products built so far: how many, and the widest, max(rows, cols)."""

    calls: int = 0
    widest: int = 0


@pytest.fixture
def kron_recorder(rebind):
    recorder = KronRecorder()
    kron = exact_linear.kron_interleaved

    def recording(f, g, f_right, g_right):
        out = kron(f, g, f_right, g_right)
        recorder.calls += 1
        recorder.widest = max(recorder.widest, out.rows, out.cols)
        return out

    rebind(kron, recording)
    return recorder
