import sys

import pytest
from hypothesis import given, settings, strategies as st

from leakscope import (
    FixedDemand,
    LeakSpec,
    PipeSet,
    PowerLaw,
    QuadraticPlusLinear,
    solve_leaky_state,
)
import leakscope
from leakscope.rootfind import NoRootError, brent, expand_bracket

EPS = sys.float_info.epsilon


def no_call(q):
    raise AssertionError(f"f evaluated at {q}")


@pytest.mark.parametrize("xtol", [1e-13, 1e-11])
def test_root_at_an_end_is_returned_exactly(xtol):
    assert brent(no_call, -0.3, 2.0, 0.0, 5.0, xtol=xtol) == -0.3
    assert brent(no_call, -0.3, 2.0, -5.0, 0.0, xtol=xtol) == 2.0
    assert brent(no_call, -0.3, 2.0, 0.0, 0.0, xtol=xtol) == -0.3


@pytest.mark.parametrize("fa,fb", [(1.0, 2.0), (-1.0, -2.0), (5e-324, 1.0)])
def test_same_sign_bracket_raises(fa, fb):
    with pytest.raises(NoRootError):
        brent(no_call, 0.0, 1.0, fa, fb)


def test_one_no_root_error():
    assert leakscope.NoRootError is leakscope.hydraulics.NoRootError is NoRootError
    assert issubclass(NoRootError, ValueError)
    with pytest.raises(NoRootError, match="no sign change"):
        expand_bracket(lambda x: 1.0 + x * x, -1.0, 1.0, max_expand=3)


LAWS = st.one_of(
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.floats(0.1, 3.0)),
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.sampled_from([0.5, 1.0, 1.85, 2.0])),
    st.builds(QuadraticPlusLinear, st.floats(1e-3, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(
    law=LAWS,
    flow=st.floats(-1e6, 1e6) | st.floats(-1e-9, 1e-9),
    xtol=st.sampled_from([1e-13, 1e-11]),
)
def test_root_within_tolerance(law, flow, xtol):
    target = law.evaluate(flow)
    root = law.invert(target)

    def f(q):
        return law.evaluate(q) - target

    x = brent(f, *expand_bracket(f, -1.0, 1.0), xtol=xtol)
    # f changes sign within xtol + 4 eps |x| of the result
    delta = xtol + 4 * EPS * abs(x)
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
