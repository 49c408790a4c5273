"""Bracketed bisection for monotone scalar equations."""

from __future__ import annotations

from typing import Callable


class BracketError(RuntimeError):
    """Raised when no sign change can be bracketed."""


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    max_expand: int = 60,
) -> tuple[float, float, float, float]:
    """Grow [lo, hi] outward by doubling steps until f changes sign.

    Returns (lo, hi, f(lo), f(hi)) with f(lo)*f(hi) <= 0.
    """
    if lo > hi:
        lo, hi = hi, lo
    flo, fhi = f(lo), f(hi)
    step = max(hi - lo, 1.0)
    for _ in range(max_expand):
        if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            return lo, hi, flo, fhi
        # move whichever end has the same sign as both; try both directions
        lo -= step
        hi += step
        flo, fhi = f(lo), f(hi)
        step *= 2.0
    if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
        return lo, hi, flo, fhi
    raise BracketError(f"no sign change in [{lo}, {hi}] after {max_expand} expansions")


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    xtol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Bisection on [lo, hi] given flo = f(lo), fhi = f(hi), flo*fhi <= 0."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= xtol:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)

