"""Root finding: a safeguarded Newton for strictly decreasing f, and Illinois false position."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

EPS = sys.float_info.epsilon
MAX_ITER = 200  # steps before regula_falsi or newton returns its current estimate
MAX_EXPAND = 30  # doublings before expand_bracket gives up
XTOL = 1e-13  # the absolute tolerance of newton and regula_falsi


class NoRootError(ValueError):
    """No root can be found: no sign change brackets one, or, in a forward
    solve, no admissible leak head balances the boundary heads."""


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float, float, float]:
    """Grow [lo, hi] outward by doubling steps until f changes sign.

    Requires lo <= hi. Returns (lo, hi, f(lo), f(hi)) with f(lo)*f(hi) <= 0.
    """
    flo, fhi = f(lo), f(hi)
    step = max(hi - lo, 1.0)
    for _ in range(MAX_EXPAND):
        if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            return lo, hi, flo, fhi
        # move whichever end has the same sign as both; try both directions
        lo -= step
        hi += step
        flo, fhi = f(lo), f(hi)
        step *= 2.0
    if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
        return lo, hi, flo, fhi
    raise NoRootError(f"no sign change in [{lo}, {hi}] after {MAX_EXPAND} expansions")


def regula_falsi(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in [a, b], fa = f(a), fb = f(b), fa*fb <= 0, by Illinois false position (Dowell and
    Jarratt 1971): an end's value is halved when the end is kept twice in a row. A step bisects
    where false position lands on or past an end, 3 steps left the bracket over half as wide, or
    half of MAX_ITER is spent. Stops at a width of 4 eps |c| + XTOL, which bounds |c - root|."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    below = fa < 0.0  # the sign that a keeps: halving may round fa to 0
    if below == (fb < 0.0):
        raise NoRootError(f"f({a})={fa} and f({b})={fb} have the same sign")
    c, kept, w1, w2, w3 = a, 0, math.inf, math.inf, math.inf  # kept end: -1 a, 1 b; past widths
    for i in range(MAX_ITER):
        width = b - a
        c = a - fa * width / (fb - fa)  # a NaN c bisects too
        if not (a < c < b or b < c < a) or abs(width) > 0.5 * w3 or 2 * i >= MAX_ITER:
            c = 0.5 * a + 0.5 * b
        w3, w2, w1 = w2, w1, abs(width)
        fc = f(c)
        if (fc < 0.0) == below:
            a, fa, fb, kept = c, fc, 0.5 * fb if kept == 1 else fb, 1
        else:
            b, fb, fa, kept = c, fc, 0.5 * fa if kept == -1 else fa, -1
        if not fc or abs(b - a) <= 4.0 * EPS * abs(c) + XTOL:
            return c
    return c


def newton(fdf: Callable[[float], tuple[float, float]], x: float) -> float:
    """Root of a strictly decreasing f by Newton steps from x, fdf(x) = (f, f'). Until points on
    both sides bound the root a step is at most 16 (|x| + 1); then one leaving the bounds or over
    half the last step bisects them (rtsafe, Numerical Recipes 9.4). Where f' is 0 or not finite
    the sign of f picks the side. Stops at f = 0, at bounds 2 tol apart, tol = 2 eps |x| + XTOL/2,
    at a step under tol and the last after a Newton step that halved |f|; or when k = step/(last
    Newton step)^2 repeats, step < 1% of it, k step^2 <= tol."""
    inf, nan, two_eps, half_xtol = math.inf, math.nan, 2.0 * EPS, 0.5 * XTOL
    lo, hi, last, newt, k, f0 = -inf, inf, EPS * abs(x), nan, nan, inf
    for _ in range(MAX_ITER):
        fx, dfx = fdf(x)
        dx = -fx / dfx if 0.0 < abs(dfx) < inf else math.copysign(inf, fx) if fx else 0.0
        tol, k0, k = two_eps * abs(x) + half_xtol, k, abs(dx / newt / newt)
        if dx > 0.0:
            lo = x
        else:
            hi = x
        width = hi - lo
        # a step that left |f| over half its size, or bisected (f0 is NaN), may end where a steep
        # slope, not a near root, makes the next step short; k |newt| = |dx / newt|
        if width <= 2.0 * tol or not fx or abs(fx) <= 0.5 * f0 and abs(dx) <= (
                abs(last) if abs(last) < tol else tol) or (
                k0 <= 2 * k <= 4 * k0 and k * abs(newt) <= 0.01 and k * dx * dx <= tol):
            x = lo if lo > x + dx else x + dx  # min(max(x + dx, lo), hi), operand for operand
            return hi if hi < x else x
        f0 = abs(fx)
        if width == inf:  # no bound on one side yet: the step is at most 16 (|x| + 1)
            up, down = 16 * abs(x) + 16, -16 * abs(x) - 16
            dx = up if up < dx else dx
            last = newt = dx if dx > down else down
        elif lo < x + dx < hi and abs(dx) <= 0.5 * abs(last):
            last = newt = dx
        else:  # bisect
            last, newt, f0 = 0.5 * (lo + hi) - x, nan, nan
        x += last
    return x
