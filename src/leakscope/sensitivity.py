"""First-order analysis of the flow-space residual.

Quantifies how the wrong-pipe residual reacts to perturbations of the
hydraulic state: the residual differential, formed from each hypothesis's
section resistances (`_sections`), confusion flow curves along which a wrong
pipe stays plausible, and the zero-head-loss sensitivity formula.

A confusion-curve point solves for the q_in at which the true leak and pipe
i's hypothesis imply the same outflow, by Newton steps on the exact slope
that each hypothesis's `outflow_map`, built by its law once per curve,
returns with each outflow: minus the `SectionResistances.ratio` that
`residual_differential` differences. Each law class's map, in `headloss`,
writes the law's formulas inline, so a point makes no law-method calls.
Where those steps cannot finish, a point falls back to `regula_falsi` on a bracket
that `expand_bracket` grows; both live here, beside their one caller.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .headloss import PipeSet, UnboundedDerivativeError, Value
from .hydraulics import EPS, MAX_ITER, XTOL, DataPoint, LeakSpec, NoRootError
from .localization import _require_outlet

CURVE_TOL = 1e-10  # |residual| at which a confusion-curve point has converged
CURVE_MAX_ITER = 100  # damped Newton steps per point before the bracketed fallback
MAX_EXPAND = 30  # doublings before expand_bracket gives up


class SectionResistances(Value):
    """Slopes of the hypothesized leaking pipe's two sections."""

    __slots__ = ("_R_in", "_R_out")

    def __init__(self, R_in: float, R_out: float):
        self._R_in, self._R_out = R_in, R_out

    @property
    def ratio(self) -> float:
        if self._R_out <= 0.0:
            raise ZeroDivisionError("R_out must be positive for the ratio")
        return self._R_in / self._R_out


class ResidualDifferential(Value):
    """Partials of the flow-space residual w.r.t. q_in and the head loss."""

    __slots__ = ("_d_dqin", "_d_ddh")

    def __init__(self, d_dqin: float, d_ddh: float):
        self._d_dqin, self._d_ddh = d_dqin, d_ddh


class ConfusionFlowCurve(Value):
    """Inflow trajectory along which pipe i cannot be rejected."""

    __slots__ = ("_i", "_dh_grid", "_q_in_conf", "_residual_trace", "_converged")

    def __init__(
        self,
        i: int,
        dh_grid: tuple[float, ...],
        q_in_conf: tuple[float, ...],
        residual_trace: tuple[float, ...],
        converged: tuple[bool, ...],
    ):
        self._i, self._dh_grid, self._q_in_conf = i, dh_grid, q_in_conf
        self._residual_trace, self._converged = residual_trace, converged


def _sections(U_j, x_j: float, G_j: float, d: DataPoint) -> SectionResistances:
    # pipe j carries the measured flows less G_j, the flow through the other pipes
    q_in, q_out = d.q_in - G_j, d.q_out - G_j
    return SectionResistances(x_j * U_j.derivative(q_in), (1.0 - x_j) * U_j.derivative(q_out))


def residual_differential(
    pipes: PipeSet, i: int, x_i: float, k: int, x: float, d: DataPoint
) -> ResidualDifferential:
    """Partials of the pipe-i residual when pipe k at x is truly leaking, at a
    point `d` that both hypotheses explain: R_out is taken at the measured
    q_out, which is each hypothesis's outflow only where the residual is zero."""
    U_i, U_k = pipes.pipe(i), pipes.pipe(k)
    G = pipes.admittances_excluding(d.dh)
    sec_i, sec_k = _sections(U_i, x_i, G[i - 1], d), _sections(U_k, x, G[k - 1], d)
    Gp = pipes.admittance_derivatives_excluding(d.dh)
    d_ddh = (1.0 + Gp[k - 1] * (sec_k.R_in + sec_k.R_out)) / sec_k.R_out - (
        1.0 + Gp[i - 1] * (sec_i.R_in + sec_i.R_out)
    ) / sec_i.R_out
    return ResidualDifferential(d_dqin=sec_i.ratio - sec_k.ratio, d_ddh=d_ddh)


def confusion_flow_curve(
    pipes: PipeSet,
    i: int,
    x_i: float,
    truth: LeakSpec,
    dh_grid: list[float],
    seed_qin: float,
) -> ConfusionFlowCurve:
    """Continuation along dh_grid: at each head loss, solve for the inflow
    that keeps the pipe-i residual at zero under the true leak hypothesis.

    Damped Newton on the mismatch's exact q_in-slope, seeded by the previous
    converged grid point and stopped at |mismatch| <= CURVE_TOL, with Illinois
    false position on an expanding bracket as the fallback where the slope is 0
    or not finite or the steps stall. Non-convergence is flagged per point, not
    fatal.
    """
    k, x = truth.k, truth.x
    U_k, U_i = pipes.pipe(k), pipes.pipe(i)
    _require_outlet(i, x_i)
    outflow_k, outflow_i = U_k.outflow_map(x), U_i.outflow_map(x_i)
    q_vals: list[float] = []
    residuals: list[float] = []
    flags: list[bool] = []
    seed = seed_qin
    for dh in dh_grid:
        G = pipes.admittances_excluding(dh)
        q, res, ok = _solve_point(outflow_k, outflow_i, G[k - 1], G[i - 1], dh, seed)
        q_vals.append(q)
        residuals.append(abs(res))
        flags.append(ok)
        if ok:
            seed = q
    return ConfusionFlowCurve(
        i=i,
        dh_grid=tuple(dh_grid),
        q_in_conf=tuple(q_vals),
        residual_trace=tuple(residuals),
        converged=tuple(flags),
    )


def _solve_point(
    outflow_k, outflow_i, G_k: float, G_i: float, dh: float, seed: float
) -> tuple[float, float, bool]:
    """Damped Newton from `seed` on f(q) = out_k - out_i, the outflow the truth
    would produce minus the outflow hypothesis i expects, on f' = slope_k -
    slope_i, until |f| <= CURVE_TOL.

    A step is halved until |f| shrinks. Where f' is 0 or not finite (a zero
    section flow), or the steps stall, `regula_falsi` on a bracket grown around
    the seed takes over; where no sign change is found, the last Newton q stands,
    flagged unconverged."""
    q = seed
    out_k, slope_k = outflow_k(G_k, dh, q)
    out_i, slope_i = outflow_i(G_i, dh, q)
    fq, slope = out_k - out_i, slope_k - slope_i
    for _ in range(CURVE_MAX_ITER):
        if abs(fq) <= CURVE_TOL or not 0.0 < abs(slope) < math.inf:
            break
        delta = -fq / slope
        # damping: halve until the residual actually shrinks
        for _ in range(50):
            q_new = q + delta
            out_k, slope_k = outflow_k(G_k, dh, q_new)
            out_i, slope_i = outflow_i(G_i, dh, q_new)
            f_new = out_k - out_i
            if abs(f_new) < abs(fq):
                q, fq, slope = q_new, f_new, slope_k - slope_i
                break
            delta *= 0.5
        else:
            break
    if abs(fq) > CURVE_TOL:
        # bracketed fallback around the seed
        def f(t: float) -> float:
            return outflow_k(G_k, dh, t)[0] - outflow_i(G_i, dh, t)[0]

        width = max(1.0, abs(seed))
        try:
            q, fq = regula_falsi(f, *expand_bracket(f, seed - width, seed + width))
        except NoRootError:
            pass
    return q, fq, abs(fq) <= CURVE_TOL


def expand_bracket(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, float, float]:
    """Grow [lo, hi] outward by doubling steps until f changes sign.

    Requires lo <= hi. Returns (lo, hi, f(lo), f(hi)) with f(lo)*f(hi) <= 0.
    """
    flo, fhi = f(lo), f(hi)
    step, expansions = max(hi - lo, 1.0), 0
    while not (flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0)):
        if expansions == MAX_EXPAND:
            raise NoRootError(f"no sign change in [{lo}, {hi}] after {MAX_EXPAND} expansions")
        # move whichever end has the same sign as both; try both directions
        lo, hi, step, expansions = lo - step, hi + step, 2.0 * step, expansions + 1
        flo, fhi = f(lo), f(hi)
    return lo, hi, flo, fhi


def regula_falsi(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, float]:
    """Root c of f in [a, b] and f(c), fa = f(a), fb = f(b), fa*fb <= 0, by Illinois false position
    (Dowell and Jarratt 1971): an end's value is halved when the end is kept twice in a row. A step
    bisects where false position lands on or past an end, 3 steps left the bracket over half as
    wide, or half of MAX_ITER is spent. Stops at a width of 4 eps |c| + XTOL, which bounds
    |c - root|."""
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    below = fa < 0.0  # the sign that a keeps: halving may round fa to 0
    if below == (fb < 0.0):
        raise NoRootError(f"f({a})={fa} and f({b})={fb} have the same sign")
    c, fc, kept, w1, w2, w3 = a, fa, 0, math.inf, math.inf, math.inf  # kept: -1 a, 1 b; past widths
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
            break
    return c, fc


class ZeroDhSensitivity(Value):
    """Residual slope in the head loss at a zero-head-loss state."""

    __slots__ = ("_value", "_distinct_out_resistance", "_nonlinear_section")

    def __init__(
        self,
        value: float,
        distinct_out_resistance: bool,  # R_out,i != R_out,k
        nonlinear_section: bool,  # R_in,i + R_out,i != R_0,i
    ):
        self._value, self._distinct_out_resistance = value, distinct_out_resistance
        self._nonlinear_section = nonlinear_section


def zero_dh_sensitivity(
    pipes: PipeSet, i: int, k: int, x: float, d: DataPoint
) -> ZeroDhSensitivity:
    """Sensitivity of the pipe-i residual to head-loss perturbations at a
    state with zero head loss and mutually proportional loss laws."""
    if not abs(d.dh) <= 1e-12:  # NaN fails too
        raise ValueError(f"requires a zero-head-loss data point, got dh={d.dh}")
    if len({p.shape_key() for p in pipes.pipes}) != 1:
        raise ValueError("requires mutually proportional head loss functions")
    # with zero head loss only the leaking pipe carries flow, and the
    # candidate position in every pipe equals the true x
    U_i, U_k = pipes.pipe(i), pipes.pipe(k)
    G = pipes.admittances_excluding(d.dh)
    sec_i, R_0 = _sections(U_i, x, G[i - 1], d), U_i.derivative(0.0)
    sec_k = _sections(U_k, x, G[k - 1], d)
    if R_0 == 0.0:
        raise UnboundedDerivativeError(
            "zero slope at zero flow: the residual has no finite head-loss "
            "sensitivity at a zero-head-loss state for this loss law"
        )
    value = (1.0 / sec_k.R_out - 1.0 / sec_i.R_out) * (
        1.0 - (sec_i.R_in + sec_i.R_out) / R_0
    )
    return ZeroDhSensitivity(
        value=value,
        distinct_out_resistance=sec_i.R_out != sec_k.R_out,
        nonlinear_section=sec_i.R_in + sec_i.R_out != R_0,
    )

