"""Forward steady-state solver for a parallel pipe network with one leak.

The coupled flow/head system reduces to one scalar equation in the head at
the leak: the inflow section, outflow section and leak law must balance.
That map is strictly decreasing in the leak head and has a closed-form
slope, so a safeguarded Newton finds the unique solution.

`newton(fdf, x)` takes a strictly decreasing f with its slope, fdf(x) = (f, f'),
and returns a point within XTOL + 4 eps |x| of f's sign change or raises
`NoRootError`; a slope that is 0 or not finite only picks the side. Its second
user is the missing-head completion, `localization.complete_data_point`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .headloss import PipeSet, Value, _check_positive

EPS = sys.float_info.epsilon
MAX_ITER = 200  # steps before newton raises NoRootError; sensitivity.regula_falsi returns a
# point of its bracket instead, which sensitivity._solve_point flags by |f|
XTOL = 1e-13  # the absolute tolerance of newton and sensitivity.regula_falsi


class NoRootError(ValueError):
    """No root can be found: no sign change brackets one, or, in a forward
    solve, no admissible leak head balances the boundary heads."""


class PowerLawLeak(Value):
    """q_leak = C (h_leak - h_y)^beta, defined for h_leak > h_y."""

    __slots__ = ("_C", "_beta", "_h_y")

    def __init__(self, C: float, beta: float, h_y: float = 0.0):
        _check_positive("C", C)
        _check_positive("beta", beta)
        if not math.isfinite(h_y):
            raise ValueError(f"h_y must be finite, got {h_y}")
        self._C, self._beta, self._h_y = C, beta, h_y

    def flow(self, h_leak: float) -> float:
        # clamped at h_y so the solver can probe below; the solved state is
        # rejected afterwards if it lands at h_leak <= h_y
        head = h_leak - self._h_y
        if head <= 0.0:
            return 0.0
        try:
            return self._C * head**self._beta
        except OverflowError:
            raise ValueError(f"{self!r}.flow({h_leak!r}) is beyond the float range") from None


class FixedDemand(Value):
    """Constant leak outflow, independent of pressure."""

    __slots__ = ("_q_leak",)

    def __init__(self, q_leak: float):
        if not (math.isfinite(q_leak) and q_leak >= 0):
            raise ValueError(f"q_leak must be non-negative and finite, got {q_leak}")
        self._q_leak = q_leak

    def flow(self, h_leak: float) -> float:
        return self._q_leak


def SqrtLeak() -> PowerLawLeak:
    """q_leak = sqrt(h_leak)."""
    return PowerLawLeak(C=1.0, beta=0.5, h_y=0.0)


class LeakSpec(Value):
    """Leak in pipe k at relative position x along the pipe."""

    __slots__ = ("_k", "_x", "_leak")

    def __init__(self, k: int, x: float, leak: PowerLawLeak | FixedDemand):
        if not (type(k) is int and k >= 1):  # a float or bool k is not a pipe index
            raise ValueError(f"pipe index k must be an int >= 1, got {k!r}")
        if not 0.0 < x < 1.0:
            raise ValueError(f"relative position x must be in (0,1), got {x}")
        if type(leak) not in (PowerLawLeak, FixedDemand):  # the solve writes their slopes
            raise TypeError(f"leak class {type(leak).__name__} is not PowerLawLeak or FixedDemand")
        self._k, self._x, self._leak = k, x, leak


class HydraulicState(Value):
    """Steady state: the boundary heads, the leak head and the leaking pipe's
    two section flows. Every other pipe carries its law's flow at dh."""

    __slots__ = ("_h_in", "_h_out", "_q_in_k", "_q_out_k", "_h_leak")

    def __init__(self, h_in: float, h_out: float, q_in_k: float, q_out_k: float, h_leak: float):
        self._h_in, self._h_out, self._h_leak = h_in, h_out, h_leak
        self._q_in_k, self._q_out_k = q_in_k, q_out_k

    @property
    def dh(self) -> float:
        return self._h_in - self._h_out

    @property
    def q_leak(self) -> float:
        return self._q_in_k - self._q_out_k


class DataPoint(Value):
    """One simultaneous reading of the four boundary sensors."""

    __slots__ = ("_h_in", "_h_out", "_q_in", "_q_out")

    def __init__(self, h_in: float, h_out: float, q_in: float, q_out: float):
        self._h_in, self._h_out, self._q_in, self._q_out = h_in, h_out, q_in, q_out

    @property
    def dh(self) -> float:
        return self._h_in - self._h_out


def newton(fdf: Callable[[float], tuple[float, float]], x: float) -> float:
    """Newton steps from x on a strictly decreasing f, fdf(x) = (f, f'), end at its root or
    `NoRootError` after MAX_ITER steps. Until points on both sides bound the root a step is at most
    16 (|x| + 1); then one leaving the bounds or over half the last step bisects them (rtsafe,
    Numerical Recipes 9.4). Where f' is 0 or not finite the sign of f picks the side. Stops at
    f = 0, at bounds 2 tol apart, tol = 2 eps |x| + XTOL/2, at a step under tol and the last after
    a Newton step that halved |f|; or when k = step/(last Newton step)^2 repeats, step < 1% of it,
    k step^2 <= tol."""
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
    raise NoRootError(f"newton found no root in {MAX_ITER} steps; the last point was {x}")


def solve_leaky_state(
    pipes: PipeSet, leak: LeakSpec, h_in: float, h_out: float
) -> HydraulicState:
    """Solve the network for given boundary heads and leak.

    Root variable is the head at the leak: the section-flow mismatch
    f(h) = U_k^-1((h_in - h)/x) - U_k^-1((h - h_out)/(1-x)) - g(h)
    is strictly decreasing, so the root is unique. Newton from the zero-leak head
    h_in - x dh takes f' = -1/(x U_k'(q_in)) - 1/((1-x) U_k'(q_out)) - g'(h), with
    the flows and the first two terms from the law's `section_map(x)`. At dh = 0 both
    section heads vanish there, so it starts from the linear-split head
    h_in - x U_k((1-x) g(h_in)), exact for a linear law and a fixed demand, and not
    below min(h_y, h_in), since a root at dh = 0 lies in [min(h_y, h_in), h_in].
    """
    if leak.k > pipes.n:
        raise ValueError(f"leaking pipe {leak.k} out of range 1..{pipes.n}")
    U_k, fn, x = pipes.pipe(leak.k), leak.leak, leak.x
    section, leak_flow = U_k.section_map(x), fn.flow
    beta, h_y = (fn.beta, fn.h_y) if isinstance(fn, PowerLawLeak) else (0.0, -math.inf)

    def mismatch(h: float) -> tuple[float, float]:
        q_in_k, q_out_k, slope = section(h_in - h, h - h_out)
        g = leak_flow(h)
        return q_in_k - q_out_k - g, -slope - (beta * g / (h - h_y) if g else 0.0)

    dh = h_in - h_out
    try:
        h_leak = newton(mismatch, h_in - x * dh if dh else max(
            min(h_y, h_in), h_in - x * U_k.evaluate((1.0 - x) * leak_flow(h_in))))
    except ValueError as exc:  # a law's or the leak's flow beyond the float range
        raise NoRootError(f"no leak head balances the boundary heads: {exc}") from exc

    if h_leak <= h_y:  # a fixed demand's h_y is -inf
        raise NoRootError(
            f"solved leak head {h_leak} does not exceed the leak elevation "
            f"{h_y}; the leak law is inconsistent with these boundary heads"
        )

    q_in_k, q_out_k, _ = section(h_in - h_leak, h_leak - h_out)
    # by position: keywords cost more, and this runs once per state
    return HydraulicState(h_in, h_out, q_in_k, q_out_k, h_leak)


def measure(state: HydraulicState, pipes: PipeSet, leak: LeakSpec) -> DataPoint:
    """The four sensor readings of a state: the leaking pipe's section flows plus the
    other pipes' flow as the all-but-one entry `admittances_excluding(dh)[k - 1]`, which
    every inversion subtracts."""
    through = pipes.admittances_excluding(state.dh)[leak.k - 1]
    # by position: keywords cost more, and this runs once per state
    return DataPoint(state.h_in, state.h_out, state.q_in_k + through, state.q_out_k + through)


class SweepResult(Value):
    """Per-boundary-pair outcomes; failed points carry an error message."""

    __slots__ = ("_points", "_errors")

    def __init__(self, points: tuple[DataPoint | None, ...], errors: dict[int, str]):
        self._points, self._errors = points, errors  # errors: index -> message

    def ok(self) -> list[DataPoint]:
        return [p for p in self._points if p is not None]


def sweep(
    pipes: PipeSet, leak: LeakSpec, boundary_list: list[tuple[float, float]]
) -> SweepResult:
    """Simulate and measure one data point per boundary pair.

    Per-point failures are collected; the sweep itself fails only when no
    point at all could be solved.
    """
    points: list[DataPoint | None] = []
    errors: dict[int, str] = {}
    for idx, (h_in, h_out) in enumerate(boundary_list):
        try:
            state = solve_leaky_state(pipes, leak, h_in, h_out)
            points.append(measure(state, pipes, leak))
        except ValueError as exc:
            points.append(None)
            errors[idx] = str(exc)
    if boundary_list and len(errors) == len(boundary_list):
        raise NoRootError(f"all {len(boundary_list)} boundary pairs failed to solve")
    return SweepResult(points=tuple(points), errors=errors)


def head_profile(
    state: HydraulicState, pipes: PipeSet, leak: LeakSpec, i: int, z: float
) -> float:
    """Head at relative position z along pipe i (piecewise linear)."""
    pipes.pipe(i)  # range check
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"relative position z must be in [0,1], got {z}")
    if i != leak.k:
        return state.h_in - z * state.dh
    x = leak.x
    if z <= x:
        return state.h_in - (z / x) * (state.h_in - state.h_leak)
    return state.h_leak - ((z - x) / (1.0 - x)) * (state.h_leak - state.h_out)
