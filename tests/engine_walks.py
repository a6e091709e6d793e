"""Splitting walks for tests: the engine's full ordered walk of an orbit
key, and the walk counter behind the walk-count tests."""

from __future__ import annotations

from delpezzo.genus0 import _Engine, _engine
from delpezzo.orbits import Coeffs, orbit_key


def ordered_orbit_pairs(surface, beta, table=None):
    """The splittings of the orbit key of ``beta``, one per orbit of the
    permutations of points that fix it, on coefficient tuples.

    Yields ``(weight, deg1, c1, n0(c1), c2, n0(c2))`` with ``weight`` the
    orbit size and ``deg1`` the anticanonical degree of ``c1``.  A sum over
    the ordered splittings of ``beta`` of a summand invariant under
    permuting the points is the weighted sum over these.  The quadric has
    no points, so the key is ``beta`` itself and every weight is 1.  This
    is the engine's full ordered walk, each order of a splitting walked on
    its own; the relations and the genus-two moments read its half walk.
    """
    surface.check_class(beta)
    return _engine(surface, table).pairs(orbit_key(beta.coeffs))


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

    def pairs(self, c, pinned=False, half=False):
        if not depth:
            walks.append(c)
        return real_pairs(self, c, pinned, half)

    monkeypatch.setattr(_Engine, "value", value)
    monkeypatch.setattr(_Engine, "pairs", pairs)
    return walks
