"""Single-data-point leak inference.

Each data point pins down exactly one consistent leak position per pipe.
Two equivalent residuals measure how far a hypothesized (pipe, position)
pair is from explaining the data: one in head space, one in flow space.
"""

from __future__ import annotations

import math
import warnings
from itertools import repeat

from .headloss import HeadLossFn, PipeSet, Value
from .hydraulics import DataPoint, newton


class NoLeakError(ValueError):
    """The data carries no leak to localize: q_in equals q_out, or a pipe's
    two section head losses are equal."""


class LeakCandidate(Value):
    """The unique position in pipe j consistent with one data point."""

    __slots__ = ("_j", "_x_j")

    def __init__(self, j: int, x_j: float):
        self._j, self._x_j = j, x_j


class PartialDataPoint(Value):
    """A data point with exactly one of the four sensors missing."""

    __slots__ = ("_h_in", "_h_out", "_q_in", "_q_out")

    def __init__(
        self,
        h_in: float | None = None,
        h_out: float | None = None,
        q_in: float | None = None,
        q_out: float | None = None,
    ):
        self._h_in, self._h_out, self._q_in, self._q_out = h_in, h_out, q_in, q_out
        self.missing  # raises unless exactly one reading is None

    @property
    def missing(self) -> str:
        """The name of the one sensor without a reading."""
        missing = [name for name, value in self._asdict().items() if value is None]
        if len(missing) != 1:
            raise ValueError(f"exactly one field must be missing, got {missing}")
        return missing[0]


def residual(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Head-space residual of the hypothesis "leak in pipe j at x_j"."""
    U_j = pipes.pipe(j)
    dh = d.dh
    G = pipes.admittances_excluding(dh)[j - 1]
    return (
        dh
        - x_j * U_j.evaluate(d.q_in - G)
        - (1.0 - x_j) * U_j.evaluate(d.q_out - G)
    )


def _position(
    U_j: HeadLossFn, j: int, G: float, dh: float, q_in: float, q_out: float
) -> float:
    """Pipe j's candidate x_j from dh, q_in and q_out, given the flow G through the others."""
    if q_in == q_out:
        raise NoLeakError("q_in equals q_out; no leak position can be inferred")
    head_in = U_j.evaluate(q_in - G)
    head_out = U_j.evaluate(q_out - G)
    if head_in == head_out:
        # a leak flow within rounding of zero: the section losses cannot tell it apart
        raise NoLeakError(
            f"pipe {j}'s two section head losses are equal; no leak position can be inferred"
        )
    x_j = (dh - head_out) / (head_in - head_out)
    if not 0.0 < x_j < 1.0:
        warnings.warn(
            f"candidate position {x_j} for pipe {j} falls outside (0,1); "
            "the data point is not consistent with a single leak",
            stacklevel=3,
        )
    return x_j


def _require_outlet(j: int, x_j: float) -> None:
    """An outflow map divides by 1 - x_j; its callers check x_j once with this."""
    if x_j == 1.0:
        raise ValueError(
            f"position 1 in pipe {j} leaves no outlet section; its outflow cannot be estimated"
        )


def candidate_position(pipes: PipeSet, j: int, d: DataPoint) -> float:
    """The unique x_j in (0,1) zeroing the pipe-j residual."""
    dh = d.dh
    return _position(pipes.pipe(j), j, pipes.admittances_excluding(dh)[j - 1], dh, d.q_in, d.q_out)


def all_candidates(pipes: PipeSet, d: DataPoint) -> list[LeakCandidate]:
    """One leak candidate per pipe, in pipe order."""
    dh = d.dh
    G = pipes.admittances_excluding(dh)
    js = range(1, len(G) + 1)
    # map adds no Python frame, so _position's warning names this function's caller
    x = map(_position, pipes.pipes, js, G, repeat(dh), repeat(d.q_in), repeat(d.q_out))
    return list(map(LeakCandidate, js, x))


def estimate_outflow(
    pipes: PipeSet, j: int, x_j: float, dh: float, q_in: float
) -> float:
    """Outflow implied by (dh, q_in) under the hypothesis (j, x_j)."""
    _require_outlet(j, x_j)
    return pipes.pipe(j).outflow_map(x_j)(pipes.admittances_excluding(dh)[j - 1], dh, q_in)[0]


def residual_bar(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Flow-space residual: measured minus estimated outflow."""
    return d.q_out - estimate_outflow(pipes, j, x_j, d.dh, d.q_in)


def complete_data_point(
    pipes: PipeSet, j: int, x_j: float, p: PartialDataPoint
) -> DataPoint:
    """Fill in the one missing sensor so the pipe-j residual vanishes.

    Flows are closed-form. A head is the root of the residual, which rises with
    dh at the slope 1 + G'(dh) (x_j U_j'(a) + (1 - x_j) U_j'(b)) for the section
    flows a and b, found by Newton on that exact slope, or NoRootError.
    """
    if not 0.0 < x_j < 1.0:
        raise ValueError(f"x_j must be in (0,1), got {x_j}")
    values = p._asdict()
    missing = p.missing
    if missing == "q_out":
        values["q_out"] = estimate_outflow(pipes, j, x_j, p.h_in - p.h_out, p.q_in)
    elif missing == "q_in":
        # the same residual read from the outlet end: x_j -> 1 - x_j, q_in <-> q_out
        values["q_in"] = estimate_outflow(pipes, j, 1.0 - x_j, p.h_in - p.h_out, p.q_out)
    else:
        U_j, sign = pipes.pipe(j), -1.0 if missing == "h_in" else 1.0

        def fdf(h: float) -> tuple[float, float]:
            # the residual with the sign that makes it fall as the head rises
            d = DataPoint(**{**values, missing: h})
            G = pipes.admittances_excluding(d.dh)[j - 1]
            try:
                Gp = pipes.admittance_derivatives_excluding(d.dh)[j - 1]
                slope = 1.0 + Gp * (
                    x_j * U_j.derivative(d.q_in - G) + (1.0 - x_j) * U_j.derivative(d.q_out - G))
            except (ValueError, ZeroDivisionError):  # unbounded, or beyond the float range
                slope = math.inf
            return sign * residual(pipes, j, x_j, d), -slope

        values[missing] = newton(fdf, p.h_out if missing == "h_in" else p.h_in)
    return DataPoint(**values)
