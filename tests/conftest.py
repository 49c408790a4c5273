import math

import pytest

from leakscope import (
    DataPoint,
    LeakSpec,
    Linear,
    PipeSet,
    PowerLawLeak,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    measure,
    solve_leaky_state,
)


def simulate_data(pipes, leak, boundaries) -> list[DataPoint]:
    return [
        measure(solve_leaky_state(pipes, leak, h_in, h_out), pipes, leak)
        for h_in, h_out in boundaries
    ]


def outcome(fn, *args):
    """What fn(*args) returns as float.hex, NaN as one value, or the type and
    message of what it raises."""
    try:
        values = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return ["nan" if math.isnan(v) else v.hex() for v in values]


def linspace(lo, hi, n):
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@pytest.fixture
def example1():
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1), SignedQuadratic(0.2)))
    leak = LeakSpec(2, 0.3, SqrtLeak())
    boundaries = [(h, 1.0) for h in linspace(1.5, 6.0, 100)]
    return pipes, leak, boundaries


@pytest.fixture
def example2():
    pipes = PipeSet(
        (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
    )
    leak = LeakSpec(1, 0.65, SqrtLeak())
    return pipes, leak


@pytest.fixture
def example3():
    pipes = PipeSet((Linear(0.1), Linear(0.2), Linear(0.3)))
    leak = LeakSpec(2, 0.3, PowerLawLeak(C=50.0, beta=0.5, h_y=0.0))
    boundaries = [(h, 1.0) for h in linspace(2.0, 10.0, 12)]
    return pipes, leak, boundaries
