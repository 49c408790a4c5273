"""Root finding for monotone scalar equations: safeguarded Newton, Brent's zeroin."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

EPS = sys.float_info.epsilon
MAX_ITER = 200  # steps before brent or newton returns its current estimate
XTOL = 1e-13  # newton's absolute tolerance, and brent's default one


class NoRootError(ValueError):
    """No root can be found: no sign change brackets one, or, in a forward
    solve, no admissible leak head balances the boundary heads."""


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    max_expand: int = 60,
) -> tuple[float, float, float, float]:
    """Grow [lo, hi] outward by doubling steps until f changes sign.

    Requires lo <= hi. Returns (lo, hi, f(lo), f(hi)) with f(lo)*f(hi) <= 0.
    """
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
    raise NoRootError(f"no sign change in [{lo}, {hi}] after {max_expand} expansions")


def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float = XTOL,
) -> float:
    """Brent's zeroin on [a, b] given fa = f(a), fb = f(b), fa*fb <= 0.

    Inverse quadratic interpolation or a secant step where it stays well
    inside the bracket, bisection otherwise (Brent 1973, ch. 4). Stops when
    the bracket's half-width is at most 2 eps |b| + xtol/2, so the root lies
    within xtol + 4 eps |b| of the returned b.
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
        tol = 2.0 * EPS * abs(b) + 0.5 * xtol
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
    """Root of a strictly monotone f by Newton steps from x, fdf(x) = (f, f'). Until points on
    both sides bound the root a step is at most 16 (|x| + 1); then one leaving the bounds or over
    half the last step bisects them (rtsafe, Numerical Recipes 9.4). Brent takes over where f' is
    0 or not finite. Stops at bounds 2 tol apart, tol = 2 eps |x| + XTOL/2, at a step under tol and
    the last; or when k = step/(last Newton step)^2 repeats, step < 1% of it, k step^2 <= tol."""
    lo, hi, last, newt, k = -math.inf, math.inf, EPS * abs(x), math.nan, math.nan
    for _ in range(MAX_ITER):
        fx, dfx = fdf(x)
        if not 0.0 < abs(dfx) < math.inf:
            return brent(f := lambda t: fdf(t)[0], *expand_bracket(f, x, x))
        dx, tol, k0, k = -fx / dfx, 2.0 * EPS * abs(x) + 0.5 * XTOL, k, abs(fx / dfx / newt / newt)
        converged = abs(dx) <= min(tol, abs(last)) or (  # k |newt| = |dx / newt|
            k0 <= 2 * k <= 4 * k0 and k * abs(newt) <= 0.01 and k * dx * dx <= tol)
        lo, hi = (x, hi) if dx > 0.0 else (lo, x)
        if converged or hi - lo <= 2.0 * tol:
            return min(max(x + dx, lo), hi)
        dx = max(-16 * abs(x) - 16, min(dx, 16 * abs(x) + 16)) if hi - lo == math.inf else dx
        is_newton = hi - lo == math.inf or lo < x + dx < hi and abs(dx) <= 0.5 * abs(last)
        last, newt = (dx, dx) if is_newton else (0.5 * (lo + hi) - x, math.nan)
        x += last
    return x
