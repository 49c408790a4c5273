"""Forward steady-state solver for a parallel pipe network with one leak.

The coupled flow/head system reduces to one scalar equation in the head at
the leak: the inflow section, outflow section and leak law must balance.
That map is strictly decreasing in the leak head, so Brent's zeroin on an
expanding bracket finds the unique solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .headloss import PipeSet
from .rootfind import BracketError, brent, expand_bracket


class NoRootError(ValueError):
    """No leak head balances the boundary heads under the leak law."""


@dataclass(frozen=True)
class PowerLawLeak:
    """q_leak = C (h_leak - h_y)^beta, defined for h_leak > h_y."""

    C: float
    beta: float
    h_y: float = 0.0

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def flow(self, h_leak: float) -> float:
        # clamped at h_y so the solver can probe below; the solved state is
        # rejected afterwards if it lands at h_leak <= h_y
        head = h_leak - self.h_y
        if head <= 0.0:
            return 0.0
        return self.C * head**self.beta


@dataclass(frozen=True)
class FixedDemand:
    """Constant leak outflow, independent of pressure."""

    q_leak: float

    def __post_init__(self):
        if self.q_leak < 0:
            raise ValueError(f"q_leak must be non-negative, got {self.q_leak}")

    def flow(self, h_leak: float) -> float:
        return self.q_leak


def SqrtLeak() -> PowerLawLeak:
    """q_leak = sqrt(h_leak)."""
    return PowerLawLeak(C=1.0, beta=0.5, h_y=0.0)


LeakFn = PowerLawLeak | FixedDemand


@dataclass(frozen=True)
class LeakSpec:
    """Leak in pipe k at relative position x along the pipe."""

    k: int
    x: float
    leak: LeakFn

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"pipe index k must be >= 1, got {self.k}")
        if not 0.0 < self.x < 1.0:
            raise ValueError(f"relative position x must be in (0,1), got {self.x}")


@dataclass(frozen=True)
class HydraulicState:
    """Steady state: the boundary heads, the leak head and the leaking pipe's
    two section flows. Every other pipe carries its law's flow at dh."""

    h_in: float
    h_out: float
    q_in_k: float
    q_out_k: float
    h_leak: float

    @property
    def dh(self) -> float:
        return self.h_in - self.h_out

    @property
    def q_leak(self) -> float:
        return self.q_in_k - self.q_out_k


@dataclass(frozen=True)
class DataPoint:
    """One simultaneous reading of the four boundary sensors."""

    h_in: float
    h_out: float
    q_in: float
    q_out: float

    @property
    def dh(self) -> float:
        return self.h_in - self.h_out


def solve_leaky_state(
    pipes: PipeSet, leak: LeakSpec, h_in: float, h_out: float
) -> HydraulicState:
    """Solve the network for given boundary heads and leak.

    Root variable is the head at the leak: the section-flow mismatch
    f(h) = U_k^-1((h_in - h)/x) - U_k^-1((h - h_out)/(1-x)) - g(h)
    is strictly decreasing, so the root is unique.
    """
    if leak.k > pipes.n:
        raise ValueError(f"leaking pipe {leak.k} out of range 1..{pipes.n}")
    U_k = pipes.pipe(leak.k)
    x = leak.x

    def mismatch(h: float) -> float:
        q_in_k = U_k.invert((h_in - h) / x)
        q_out_k = U_k.invert((h - h_out) / (1.0 - x))
        return q_in_k - q_out_k - leak.leak.flow(h)

    lo, hi = min(h_in, h_out), max(h_in, h_out)
    try:
        h_leak = brent(mismatch, *expand_bracket(mismatch, lo, hi), xtol=1e-13)
    except BracketError as exc:
        raise NoRootError(f"no leak head balances the boundary heads: {exc}") from exc
    except OverflowError as exc:
        raise NoRootError(
            "the leak head cannot be bracketed: a section flow leaves the float range"
        ) from exc

    if isinstance(leak.leak, PowerLawLeak) and h_leak <= leak.leak.h_y:
        raise NoRootError(
            f"solved leak head {h_leak} does not exceed the leak elevation "
            f"{leak.leak.h_y}; the leak law is inconsistent with these boundary heads"
        )

    return HydraulicState(
        h_in=h_in,
        h_out=h_out,
        q_in_k=U_k.invert((h_in - h_leak) / x),
        q_out_k=U_k.invert((h_leak - h_out) / (1.0 - x)),
        h_leak=h_leak,
    )


def measure(state: HydraulicState, pipes: PipeSet, leak: LeakSpec) -> DataPoint:
    """Collapse a state into the four boundary sensor readings: the leaking
    pipe's section flows plus the flow through all other pipes at dh."""
    dh = state.dh
    through = sum(p.invert(dh) for i, p in enumerate(pipes.pipes, start=1) if i != leak.k)
    return DataPoint(
        h_in=state.h_in,
        h_out=state.h_out,
        q_in=state.q_in_k + through,
        q_out=state.q_out_k + through,
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-boundary-pair outcomes; failed points carry an error message."""

    points: tuple[DataPoint | None, ...]
    errors: dict[int, str]  # index -> message

    def ok(self) -> list[DataPoint]:
        return [p for p in self.points if p is not None]


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
