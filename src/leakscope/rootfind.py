"""Root finding: the safeguarded Newton of the forward solve and the missing-head completion."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

EPS = sys.float_info.epsilon
MAX_ITER = 200  # steps before newton, or sensitivity.regula_falsi, returns its current estimate
XTOL = 1e-13  # the absolute tolerance of newton and sensitivity.regula_falsi


class NoRootError(ValueError):
    """No root can be found: no sign change brackets one, or, in a forward
    solve, no admissible leak head balances the boundary heads."""


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
