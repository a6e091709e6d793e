"""Blowing up one more point: the test helper behind the blow-down checks."""

from __future__ import annotations

from delpezzo.errors import InvalidClass, RankOverflow
from delpezzo.surface import MAX_BLOWUPS, CurveClass, Surface


def append_coefficient(
    surface: Surface, beta: CurveClass, sigma: int
) -> tuple[Surface, CurveClass]:
    """Blow up one more point and extend ``beta`` by ``m_{k+1} = -sigma``.

    ``sigma = -1`` makes the curve pass through the new point once
    (coefficient 1); ``sigma = 0`` puts the new point off the curve.
    Either way the curve count is unchanged, which is what the blow-down
    tests exercise.  Returns the enlarged surface together with the
    extended class.
    """
    if not surface.is_blowup:
        raise InvalidClass("can only append coefficients on blow-up surfaces")
    if sigma not in (-1, 0):
        raise InvalidClass(f"appended coefficient must come from sigma in {{-1, 0}}, got {sigma}")
    if surface.k >= MAX_BLOWUPS:
        raise RankOverflow(f"cannot blow up more than {MAX_BLOWUPS} points")
    surface.check_class(beta)
    return Surface.blowup(surface.k + 1), CurveClass(beta.coeffs + (-sigma,))
