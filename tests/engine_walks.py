"""Counting splitting walks: the test helper behind the walk-count tests."""

from __future__ import annotations

from delpezzo.genus0 import _Engine
from delpezzo.orbits import Coeffs


def record_walks(monkeypatch) -> list[Coeffs]:
    """Wrap ``_Engine.pairs``, through which every splitting walk of the
    engine passes, full or half, and return the list of the classes
    walked, as coefficient tuples in call order.  Only the walks started outside a
    count's evaluation (``_Engine.value``) are recorded: the relations walk
    while the engine fills its levels, and the rest are the walks of the
    genus-two moments and of the checks."""
    walks: list[Coeffs] = []
    depth = 0
    real_value, real_pairs = _Engine.value, _Engine.pairs

    def value(self, c):
        nonlocal depth
        depth += 1
        try:
            return real_value(self, c)
        finally:
            depth -= 1

    def pairs(self, c, pinned=0, half=False):
        if not depth:
            walks.append(c)
        return real_pairs(self, c, pinned, half)

    monkeypatch.setattr(_Engine, "value", value)
    monkeypatch.setattr(_Engine, "pairs", pairs)
    return walks
