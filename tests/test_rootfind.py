"""Tests of the forward Newton (`hydraulics.newton`, through `solve_leaky_state` and
the missing head of `complete_data_point`) and of the confusion curves' bracketed
fallback (`sensitivity.expand_bracket` and `sensitivity.regula_falsi`). The file keeps
the name of the `rootfind` module that once held both solvers."""

import math
import sys
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from conftest import simulate_data

from leakscope import (
    FixedDemand,
    LeakSpec,
    Linear,
    PartialDataPoint,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    QuadraticPlusLinear,
    complete_data_point,
    solve_leaky_state,
)
import leakscope
from leakscope import hydraulics, localization, sensitivity
from leakscope.hydraulics import MAX_ITER, XTOL, NoRootError, newton
from leakscope.sensitivity import MAX_EXPAND, expand_bracket, regula_falsi

EPS = sys.float_info.epsilon


def no_call(q):
    raise AssertionError(f"f evaluated at {q}")


def test_root_at_an_end_is_returned_exactly():
    assert regula_falsi(no_call, -0.3, 2.0, 0.0, 5.0) == (-0.3, 0.0)
    assert regula_falsi(no_call, -0.3, 2.0, -5.0, 0.0) == (2.0, 0.0)
    assert regula_falsi(no_call, -0.3, 2.0, 0.0, 0.0) == (-0.3, 0.0)


@pytest.mark.parametrize("fa,fb", [(1.0, 2.0), (-1.0, -2.0), (5e-324, 1.0)])
def test_same_sign_bracket_raises(fa, fb):
    with pytest.raises(NoRootError):
        regula_falsi(no_call, 0.0, 1.0, fa, fb)


def test_one_no_root_error():
    assert leakscope.NoRootError is leakscope.hydraulics.NoRootError is NoRootError
    assert sensitivity.NoRootError is NoRootError
    assert issubclass(NoRootError, ValueError)
    with pytest.raises(NoRootError, match="no sign change"):
        expand_bracket(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_expand_bracket_takes_a_sign_change_on_its_last_expansion():
    # after k doublings the bracket [-1, 1] is [1 - 2**(k + 1), 2**(k + 1) - 1]
    edge = 2.0 ** MAX_EXPAND

    def f(x):
        return 1.0 if x < edge else -1.0

    assert expand_bracket(f, -1.0, 1.0) == (1.0 - 2 * edge, 2 * edge - 1.0, 1.0, -1.0)
    with pytest.raises(NoRootError, match="no sign change"):
        expand_bracket(lambda x: f(0.5 * x), -1.0, 1.0)


class Polynomial:
    """f(t) = scale (t - r_1) ... (t - r_m): each factor keeps the sign of its exact
    difference, and the product does while it neither overflows nor underflows, so f
    changes sign exactly at the roots of odd multiplicity."""

    def __init__(self, scale, roots):
        self.scale, self.roots = scale, roots

    def __call__(self, t):
        value = self.scale
        for r in self.roots:
            value *= t - r
        return value

    def sign_changes(self):
        return [r for r in self.roots if self.roots.count(r) % 2]

    def __repr__(self):
        return f"Polynomial({self.scale!r}, {self.roots!r})"


@st.composite
def bracketed_polynomials(draw):
    """A polynomial with 1 or 3 roots, some of them clustered or repeated, and a
    bracket [a, b] that holds them all."""
    centre = draw(st.floats(-1e3, 1e3) | st.floats(-1e-3, 1e-3))
    spread = st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 1.0, 1e3])
    roots = [centre + draw(spread) * draw(st.floats(-1.0, 1.0))
             for _ in range(draw(st.sampled_from([1, 3])))]
    scale = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    pads = st.floats(1e-12, 1e3) | st.sampled_from([1e-12, 1e-6, 1.0])
    return Polynomial(scale, roots), min(roots) - draw(pads), max(roots) + draw(pads)


@settings(max_examples=500, deadline=None)
@given(problem=bracketed_polynomials())
# a triple root at 0 under a wide bracket, where false position rounds onto an end
@example(problem=(Polynomial(-0.0077, [7.4e-118, 7.2e-265, 4.8e-290]), -615.0, 2.06e-11))
# a double root beside the simple one, where false position crawls along the flat side
@example(problem=(Polynomial(-0.53, [-5.008782500689139, -5.008038639460219,
                                     -5.008038639460219]), -374.5, -4.69))
# a triple root under a bracket so wide that 4 steps a halving overrun MAX_ITER
@example(problem=(Polynomial(-1.0, [1e-12, 1e-12, 1e-12]), 0.0, 365.000000000001))
# f(0) is the least subnormal, which halving once rounded to -0.0 and so to the other side
@example(problem=(Polynomial(2.0, [-1e-12, 0.0625, -2.225073858507e-311]), -1.000000000001, 1.0625))
def test_regula_falsi_lands_on_a_sign_change(problem):
    f, a, b = problem
    fa, fb = f(a), f(b)
    assume(fa and fb)
    calls = []
    c, fc = regula_falsi(lambda t: calls.append(t) or f(t), a, b, fa, fb)
    # the mismatch it returns is f at the root it returns, bit for bit
    assert fc.hex() == f(c).hex()
    delta = XTOL + 4 * EPS * abs(c)
    assert not f(c) or any(abs(c - r) <= delta for r in f.sign_changes())
    # a step bisects where the three before it left the bracket over half as wide, so
    # the bracket halves at least every 4 steps, and every step bisects once half of
    # MAX_ITER is spent, until the bracket is XTOL wide
    halvings = math.ceil(math.log2((b - a) / XTOL))
    assert len(calls) <= min(4 * halvings, MAX_ITER // 2 + halvings)


def test_regula_falsi_bisects_where_false_position_lands_on_an_end():
    # fb is so small beside fa that the false-position point rounds to b itself,
    # whose value is known: the step bisects instead of evaluating b again
    calls = []

    def f(t):
        calls.append(t)
        return 1e-300 if t >= 1.0 else -1e300

    c, _ = regula_falsi(f, 0.0, 1.0, -1e300, 1e-300)
    assert abs(c - 1.0) <= XTOL + 4 * EPS
    assert calls[0] == 0.5


def test_regula_falsi_out_of_steps_returns_a_point_of_the_bracket(monkeypatch):
    monkeypatch.setattr(sensitivity, "MAX_ITER", 3)
    calls = []

    def f(t):
        calls.append(t)
        return math.atan(t - 0.3)

    c, fc = regula_falsi(f, -1e6, 2.0, f(-1e6), f(2.0))
    assert len(calls) == 2 + 3
    assert -1e6 <= c <= 2.0 and c == calls[-1]
    assert fc == f(c) != 0.0


LAWS = st.one_of(
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.floats(0.1, 3.0)),
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.sampled_from([0.5, 1.0, 1.85, 2.0])),
    st.builds(QuadraticPlusLinear, st.floats(1e-3, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(law=LAWS, flow=st.floats(-1e6, 1e6) | st.floats(-1e-9, 1e-9))
def test_root_within_tolerance(law, flow):
    target = law.evaluate(flow)
    root = law.invert(target)

    def f(q):
        return law.evaluate(q) - target

    x, fx = regula_falsi(f, *expand_bracket(f, -1.0, 1.0))
    assert fx == f(x)
    # f changes sign within XTOL + 4 eps |x| of the result
    delta = XTOL + 4 * EPS * abs(x)
    assert f(x - delta) <= 0.0 <= f(x + delta)
    # invert and evaluate each round, which moves the sign change of f off
    # invert(target) by a few ulps; a power law with gamma < 1 magnifies that
    gamma = getattr(law, "gamma", 1.0)
    assert abs(x - root) <= delta + 32 * EPS * abs(root) / min(gamma, 1.0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_fixed_demand_leak_solves(gamma):
    pipes = PipeSet((PowerLaw(0.2, gamma), PowerLaw(0.1, 1.85)))
    x, demand = 0.4, 0.75
    leak = LeakSpec(1, x, FixedDemand(demand))
    state = solve_leaky_state(pipes, leak, 3.0, 1.0)
    U = pipes.pipe(1)
    assert state.q_leak == pytest.approx(demand, abs=1e-12)
    assert 3.0 - state.h_leak == pytest.approx(x * U.evaluate(state.q_in_k), abs=1e-12)
    assert state.h_leak - 1.0 == pytest.approx(
        (1 - x) * U.evaluate(state.q_out_k), abs=1e-12
    )


# the forward solve's Newton, over networks whose leaking pipe takes every law
# family and a head scale up to 1e6
LEAKING_LAWS = st.one_of(
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.sampled_from([0.5, 1.0, 1.85, 2.0, 3.0])),
    st.builds(QuadraticPlusLinear, st.floats(1e-3, 1e3)),
)
LEAKS = st.one_of(
    st.builds(PowerLawLeak, st.floats(1e-3, 1e3), st.floats(0.3, 2.0), st.floats(-1e6, 1e6)),
    st.builds(FixedDemand, st.floats(0.0, 1e3)),
)
HEADS = st.floats(-1e6, 1e6)


def mismatch_and_rounding(pipes, leak, h_in, h_out):
    """The forward mismatch f(h) and EPS times the sum of its terms' sizes."""
    U, x = pipes.pipe(leak.k), leak.x

    def f(h):
        q_in, q_out = U.invert((h_in - h) / x), U.invert((h - h_out) / (1 - x))
        g = leak.leak.flow(h)
        return q_in - q_out - g, EPS * (abs(q_in) + abs(q_out) + g)

    return f


@settings(max_examples=300, deadline=None)
@given(
    law=LEAKING_LAWS,
    x=st.floats(0.01, 0.99),
    fn=LEAKS,
    h_in=HEADS,
    dh=st.just(0.0) | st.floats(-1e6, 1e6),
)
# a start next to both section zeros, whose steep slope once stopped the solve
@example(law=PowerLaw(1.0, 1.85), x=0.5, fn=FixedDemand(1.0), h_in=0.0, dh=6.471743670254779e-217)
# a vanishing slope at the start (gamma < 1), whose first step once overshot to -5e74
@example(law=PowerLaw(1.0, 0.5), x=0.5, fn=FixedDemand(1.0), h_in=0.0, dh=2.3369925908907744e-76)
# halving steps toward a root at a gamma = 0.5 section zero, which once passed for quadratic
@example(law=PowerLaw(1.0, 0.5), x=0.5, fn=FixedDemand(1.57e-83), h_in=0.0, dh=1.57e-83)
# a long first step, whose step ratio once understated the last step's error
@example(law=QuadraticPlusLinear(66.0), x=0.5, fn=PowerLawLeak(36.0, 1.0, 0.0), h_in=0.0, dh=-9.0)
# a bisection at dh = 0 that lands next to both section zeros, where the steep
# slope's short step once passed for convergence
@example(law=PowerLaw(1.0, 2.0), x=0.5, fn=PowerLawLeak(3.0, 1.0, -1.0), h_in=7.25e-179, dh=0.0)
def test_newton_solve_brackets_the_mismatch_root(law, x, fn, h_in, dh):
    pipes, leak, h_out = PipeSet((law, Linear(0.3))), LeakSpec(1, x, fn), h_in - dh
    f = mismatch_and_rounding(pipes, leak, h_in, h_out)
    try:
        h = solve_leaky_state(pipes, leak, h_in, h_out).h_leak
    except NoRootError as exc:
        # only a root at or below the leak elevation, within the tolerance
        assert "does not exceed the leak elevation" in str(exc)
        h = fn.h_y
        value, rounding = f(h + 1e-13 + 4 * EPS * abs(h))
        assert value <= 4 * rounding
        return
    # f changes sign within xtol + 4 eps |h| of the result, as for regula_falsi, up to
    # its own rounding: Newton stops on its step, not on a computed sign change,
    # and where a few ulps of the flows outweigh f's change over that distance,
    # no point resolves the sign change any closer
    delta = 1e-13 + 4 * EPS * abs(h)
    (below, r_below), (above, r_above) = f(h - delta), f(h + delta)
    assert below >= -4 * r_below and above <= 4 * r_above


@pytest.mark.parametrize("dh", [0.0, 2.5])
@pytest.mark.parametrize(
    "law", [PowerLaw(0.3, 0.5), PowerLaw(0.3, 1.0), PowerLaw(0.3, 1.85), QuadraticPlusLinear(0.3)]
)
def test_newton_solve_is_within_tolerance_of_the_oracle(law, dh):
    # each leaking-pipe law family, at dh = 0 and above, for both kinds of leak
    pipes = PipeSet((law, Linear(0.3)))
    leaks = LeakSpec(1, 0.3, PowerLawLeak(2.0, 0.5, -1.0)), LeakSpec(1, 0.8, FixedDemand(0.7))
    for leak in leaks:
        h = solve_leaky_state(pipes, leak, 4.0, 4.0 - dh).h_leak
        exact = oracle.forward_leak_head(pipes, leak, 4.0, 4.0 - dh)
        assert abs(Decimal(h) - exact) <= XTOL + 4 * EPS * abs(h)


@settings(max_examples=100, deadline=None)
@given(law=LEAKING_LAWS, x=st.floats(0.01, 0.99), h_y=HEADS, depth=st.floats(1e-6, 1e3), drop=HEADS)
def test_newton_solve_below_the_leak_elevation_fails(law, x, h_y, depth, drop):
    # both heads below h_y: the zero-leak head, where g = 0, is the root
    h_in = h_y - depth
    assume(h_in < h_y and h_in - drop < h_y)
    leak = LeakSpec(1, x, PowerLawLeak(1.0, 0.5, h_y))
    with pytest.raises(NoRootError, match="does not exceed the leak elevation"):
        solve_leaky_state(PipeSet((law,)), leak, h_in, h_in - drop)


# -- newton takes the steps of its min/max form, to the bit -----------------------


def minmax_newton(fdf, x):
    """`newton` written with builtin min and max and tuple assignments: the reference
    whose evaluation points, and result or exception, `newton` must match to the bit."""
    lo, hi, last, newt, k, f0 = -math.inf, math.inf, EPS * abs(x), math.nan, math.nan, math.inf
    for _ in range(MAX_ITER):
        fx, dfx = fdf(x)
        dx = -fx / dfx if 0.0 < abs(dfx) < math.inf else math.copysign(math.inf, fx) if fx else 0.0
        tol, k0, k = 2.0 * EPS * abs(x) + 0.5 * XTOL, k, abs(dx / newt / newt)
        converged = not fx or abs(fx) <= 0.5 * f0 and abs(dx) <= min(tol, abs(last)) or (
            k0 <= 2 * k <= 4 * k0 and k * abs(newt) <= 0.01 and k * dx * dx <= tol)
        lo, hi = (x, hi) if dx > 0.0 else (lo, x)
        if converged or hi - lo <= 2.0 * tol:
            return min(max(x + dx, lo), hi)
        dx = max(-16 * abs(x) - 16, min(dx, 16 * abs(x) + 16)) if hi - lo == math.inf else dx
        is_newton = hi - lo == math.inf or lo < x + dx < hi and abs(dx) <= 0.5 * abs(last)
        last, newt, f0 = (dx, dx, abs(fx)) if is_newton else (
            0.5 * (lo + hi) - x, math.nan, math.nan)
        x += last
    return x


class Cubic:
    """f = -(a t^3 + b t), t = x - r: strictly decreasing, with a flat root when b = 0."""

    def __init__(self, a, b, r):
        self.a, self.b, self.r = a, b, r

    def __call__(self, x):
        t = x - self.r
        return -(self.a * t * t * t + self.b * t), -(3.0 * self.a * t * t + self.b)

    def __repr__(self):
        return f"Cubic({self.a!r}, {self.b!r}, {self.r!r})"


def _power(base, p):
    try:
        return base**p
    except (OverflowError, ZeroDivisionError):  # past the float range, or 0 to a negative power
        return math.inf


class Power:
    """f = -c sign(t) |t|^p, t = x - r: its slope is unbounded at the root for p < 1."""

    def __init__(self, c, p, r):
        self.c, self.p, self.r = c, p, r

    def __call__(self, x):
        t = x - self.r
        size, rate = _power(abs(t), self.p), _power(abs(t), self.p - 1.0)
        return -self.c * math.copysign(size, t), -self.c * self.p * rate

    def __repr__(self):
        return f"Power({self.c!r}, {self.p!r}, {self.r!r})"


class _Captured(Exception):
    """Not a ValueError, which the solvers catch."""


def newton_call(module, solve, *args):
    """The (fdf, start) that `solve(*args)` hands to `module.newton`."""

    def capture(fdf, x):
        raise _Captured(fdf, x)

    with mock.patch.object(module, "newton", capture):
        try:
            solve(*args)
        except _Captured as call:
            return call.args
    raise AssertionError(f"{solve.__name__} called no newton")


def newton_steps(solver, fdf, glitches, x):
    """The float.hex of every point `solver` evaluates fdf at, then of its result, or the
    type and message of what it raises. `glitches` maps an evaluation's index to the
    (0 for f, 1 for f') and value that replace what fdf returns there."""
    points = []

    def traced(t):
        values = list(fdf(t))
        if len(points) in glitches:
            which, value = glitches[len(points)]
            values[which] = value
        points.append(t.hex())
        return tuple(values)

    try:
        return points, solver(traced, x).hex()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return points, (type(exc), str(exc))


ROOTS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e-300, -1e-300])
COEFFICIENTS = st.just(0.0) | st.floats(1e-3, 1e3)
EXPONENTS = st.floats(0.2, 3.0) | st.sampled_from([0.5, 1.0, 2.0])
SHAPES = st.one_of(
    st.builds(Cubic, COEFFICIENTS, COEFFICIENTS, ROOTS).filter(lambda f: f.a or f.b),
    st.builds(Power, st.floats(1e-3, 1e3), EXPONENTS, ROOTS),
)
STARTS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]) | st.floats(-1e6, 1e6)
# f' of 0, NaN or +-inf, or f of NaN, at chosen evaluations
GLITCHES = st.dictionaries(
    st.integers(0, 12),
    st.tuples(st.just(1), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
    | st.just((0, math.nan)),
    max_size=3,
)


def _missing_head_at_a_zero_section_flow():
    pipes = PipeSet((PowerLaw(0.5, 0.5), PowerLaw(0.5, 0.5)))
    leak, dh = LeakSpec(1, 0.5, FixedDemand(0.0)), 5.960464477539063e-08
    d = simulate_data(pipes, leak, [(dh, 0.0)])[0]
    p = PartialDataPoint(**{**d._asdict(), "h_in": None})
    return newton_call(localization, complete_data_point, pipes, 1, 0.5, p)


@settings(max_examples=400, deadline=None)
@given(problem=st.tuples(SHAPES, STARTS), glitches=GLITCHES)
# the dh = 0 state whose bisection lands next to both section zeros
@example(
    problem=newton_call(
        hydraulics, solve_leaky_state, PipeSet((PowerLaw(1.0, 2.0), Linear(0.3))),
        LeakSpec(1, 0.5, PowerLawLeak(3.0, 1.0, -1.0)), 7.25e-179, 7.25e-179,
    ),
    glitches={},
)
# the missing head where a gamma = 0.5 section flow is 0
@example(problem=_missing_head_at_a_zero_section_flow(), glitches={})
@example(problem=(Cubic(1.0, 0.0, 0.75), 0.75), glitches={})  # a start at the root
@example(problem=(Cubic(1.0, 2.0, 0.75), math.nan), glitches={})
# a NaN step before anything bounds the root, which the 16 (|x| + 1) clamp must keep as
# min and max would: min(NaN, 16) is NaN, and max(-16, NaN) is -16
@example(problem=(Power(2.0, 0.5, 3.0), 1.0), glitches={0: (0, math.nan)})
def test_newton_steps_match_the_minmax_form(problem, glitches):
    fdf, x = problem
    assert newton_steps(newton, fdf, glitches, x) == newton_steps(minmax_newton, fdf, glitches, x)
