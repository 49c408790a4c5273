"""Single-data-point leak inference.

Each data point pins down exactly one consistent leak position per pipe.
Two equivalent residuals measure how far a hypothesized (pipe, position)
pair is from explaining the data: one in head space, one in flow space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .headloss import HeadLossFn, PipeSet
from .hydraulics import DataPoint
from .rootfind import brent, expand_bracket


class NoLeakError(ValueError):
    """The data carries no leak to localize: q_in equals q_out, or a pipe's
    two section head losses are equal."""


@dataclass(frozen=True)
class LeakCandidate:
    """The unique position in pipe j consistent with one data point."""

    j: int
    x_j: float
    residual_check: float


@dataclass(frozen=True)
class PartialDataPoint:
    """A data point with exactly one of the four sensors missing."""

    h_in: float | None = None
    h_out: float | None = None
    q_in: float | None = None
    q_out: float | None = None

    def __post_init__(self):
        self.missing  # raises unless exactly one reading is None

    @property
    def missing(self) -> str:
        """The name of the one sensor without a reading."""
        missing = [name for name, value in vars(self).items() if value is None]
        if len(missing) != 1:
            raise ValueError(f"exactly one field must be missing, got {missing}")
        return missing[0]


def residual(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Head-space residual of the hypothesis "leak in pipe j at x_j"."""
    U_j = pipes.pipe(j)
    dh = d.dh
    G = pipes.admittance_excluding(j, dh)
    return (
        dh
        - x_j * U_j.evaluate(d.q_in - G)
        - (1.0 - x_j) * U_j.evaluate(d.q_out - G)
    )


def _candidate(U_j: HeadLossFn, j: int, G: float, d: DataPoint) -> LeakCandidate:
    """The pipe-j candidate, given the flow G through all other pipes; its
    residual check reuses the two head losses that gave x_j."""
    if d.q_in == d.q_out:
        raise NoLeakError("q_in equals q_out; no leak position can be inferred")
    dh = d.dh
    head_in = U_j.evaluate(d.q_in - G)
    head_out = U_j.evaluate(d.q_out - G)
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
    return LeakCandidate(
        j=j, x_j=x_j, residual_check=dh - x_j * head_in - (1.0 - x_j) * head_out
    )


def _require_outlet(j: int, x_j: float) -> None:
    """`_outflow` divides by 1 - x_j; its callers check x_j once with this."""
    if x_j == 1.0:
        raise ValueError(
            f"position 1 in pipe {j} leaves no outlet section; its outflow cannot be estimated"
        )


def _outflow(U_j: HeadLossFn, x_j: float, G: float, dh: float, q_in: float) -> float:
    """The pipe-j outflow implied by (dh, q_in), given the flow G through all
    other pipes; x_j must not be 1."""
    head_out = dh / (1.0 - x_j) - (x_j / (1.0 - x_j)) * U_j.evaluate(q_in - G)
    return U_j.invert(head_out) + G


def candidate_position(pipes: PipeSet, j: int, d: DataPoint) -> float:
    """The unique x_j in (0,1) zeroing the pipe-j residual."""
    return _candidate(pipes.pipe(j), j, pipes.admittance_excluding(j, d.dh), d).x_j


def all_candidates(pipes: PipeSet, d: DataPoint) -> list[LeakCandidate]:
    """One leak candidate per pipe, with its residual check."""
    G = pipes.admittances_excluding(d.dh)
    return [_candidate(U_j, j, G[j - 1], d) for j, U_j in enumerate(pipes.pipes, start=1)]


def estimate_outflow(
    pipes: PipeSet, j: int, x_j: float, dh: float, q_in: float
) -> float:
    """Outflow implied by (dh, q_in) under the hypothesis (j, x_j)."""
    _require_outlet(j, x_j)
    return _outflow(pipes.pipe(j), x_j, pipes.admittance_excluding(j, dh), dh, q_in)


def residual_bar(pipes: PipeSet, j: int, x_j: float, d: DataPoint) -> float:
    """Flow-space residual: measured minus estimated outflow."""
    return d.q_out - estimate_outflow(pipes, j, x_j, d.dh, d.q_in)


def complete_data_point(
    pipes: PipeSet, j: int, x_j: float, p: PartialDataPoint
) -> DataPoint:
    """Fill in the one missing sensor so the pipe-j residual vanishes.

    Flows are closed-form; heads need a bracketed root-find on the strictly
    monotone residual.
    """
    if not 0.0 < x_j < 1.0:
        raise ValueError(f"x_j must be in (0,1), got {x_j}")
    values = dict(vars(p))
    missing = p.missing
    if missing == "q_out":
        values["q_out"] = estimate_outflow(pipes, j, x_j, p.h_in - p.h_out, p.q_in)
    elif missing == "q_in":
        # the same residual read from the outlet end: x_j -> 1 - x_j, q_in <-> q_out
        values["q_in"] = estimate_outflow(pipes, j, 1.0 - x_j, p.h_in - p.h_out, p.q_out)
    else:
        def f(h: float) -> float:
            return residual(pipes, j, x_j, DataPoint(**{**values, missing: h}))

        seed = p.h_out if missing == "h_in" else p.h_in
        values[missing] = brent(f, *expand_bracket(f, seed - 1.0, seed + 1.0), xtol=1e-11)
    return DataPoint(**values)
