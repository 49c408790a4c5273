"""First-order analysis of the flow-space residual.

Quantifies how the wrong-pipe residual reacts to perturbations of the
hydraulic state: section resistances, the residual differential, confusion
flow curves along which a wrong pipe stays plausible, and the
zero-head-loss sensitivity formula.
"""

from __future__ import annotations

from .headloss import PipeSet, UnboundedDerivativeError, Value
from .hydraulics import DataPoint, LeakSpec
from .localization import _outflow, _require_outlet
from .rootfind import NoRootError, brent, expand_bracket

CURVE_TOL = 1e-10  # |residual| at which a confusion-curve point has converged
CURVE_MAX_ITER = 100  # damped Newton steps per point before the bracketed fallback


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


def section_resistances(pipes: PipeSet, i: int, x_i: float, d: DataPoint) -> SectionResistances:
    return _sections(pipes.pipe(i), x_i, pipes.admittance_excluding(i, d.dh), d)


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

    Damped Newton seeded by the previous grid point, with Brent's zeroin on
    an expanding bracket as the fallback. Non-convergence is flagged per
    point, not fatal.
    """
    k, x = truth.k, truth.x
    U_k, U_i = pipes.pipe(k), pipes.pipe(i)
    _require_outlet(i, x_i)
    q_vals: list[float] = []
    residuals: list[float] = []
    flags: list[bool] = []
    seed = seed_qin
    for dh in dh_grid:
        G = pipes.admittances_excluding(dh)

        def f(q: float, dh=dh, G_k=G[k - 1], G_i=G[i - 1]) -> float:
            # outflow the truth would produce, minus the outflow hypothesis i expects
            return _outflow(U_k, x, G_k, dh, q) - _outflow(U_i, x_i, G_i, dh, q)

        q, res, ok = _solve_point(f, seed)
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


def _solve_point(f, seed: float) -> tuple[float, float, bool]:
    q = seed
    fq = f(q)
    for _ in range(CURVE_MAX_ITER):
        if abs(fq) <= CURVE_TOL:
            break
        step = 1e-6 * max(1.0, abs(q))
        slope = (f(q + step) - f(q - step)) / (2.0 * step)
        if slope == 0.0:
            break
        delta = -fq / slope
        # damping: halve until the residual actually shrinks
        for _ in range(50):
            q_new = q + delta
            f_new = f(q_new)
            if abs(f_new) < abs(fq):
                q, fq = q_new, f_new
                break
            delta *= 0.5
        else:
            break
    if abs(fq) > CURVE_TOL:
        # bracketed fallback around the seed
        width = max(1.0, abs(seed))
        try:
            bracket = expand_bracket(f, seed - width, seed + width, max_expand=30)
            q = brent(f, *bracket, xtol=1e-13)
            fq = f(q)
        except NoRootError:
            pass
    return q, fq, abs(fq) <= CURVE_TOL


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

