"""Root finding: a safeguarded Newton for strictly decreasing f, and Brent's zeroin."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

EPS = sys.float_info.epsilon
MAX_ITER = 200  # steps before brent or newton returns its current estimate
MAX_EXPAND = 30  # doublings before expand_bracket gives up
XTOL = 1e-13  # the absolute tolerance of newton and brent


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


def brent(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """Brent's zeroin on [a, b] given fa = f(a), fb = f(b), fa*fb <= 0.

    Inverse quadratic interpolation or a secant step where it stays well
    inside the bracket, bisection otherwise (Brent 1973, ch. 4). Stops when
    the bracket's half-width is at most 2 eps |b| + XTOL/2, so the root lies
    within XTOL + 4 eps |b| of the returned b.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NoRootError(f"f({a})={fa} and f({b})={fb} have the same sign")
    # b is the best estimate, c the other end of the bracket, a the previous b
    c, fc = a, fa
    d = e = b - a
    for _ in range(MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * EPS * abs(b) + 0.5 * XTOL
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m  # the last step was tiny or did not shrink |f|: bisect
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # take the step only if it lands less than 3/4 of the way to c and
            # is under half the step before last; else bisect
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb < 0.0) == (fc < 0.0) and fb != 0.0:
            c, fc = a, fa
            d = e = b - a
    return b


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
