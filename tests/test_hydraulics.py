import math

import pytest

from leakscope import (
    FixedDemand,
    LeakSpec,
    Linear,
    NoRootError,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    SignedQuadratic,
    SqrtLeak,
    head_profile,
    measure,
    solve_leaky_state,
    sweep,
)
from test_kernel import mixed_network


def check_state_invariants(pipes, leak, state, tol=1e-10):
    U_k = pipes.pipe(leak.k)
    assert abs(state.h_in - state.h_leak - leak.x * U_k.evaluate(state.q_in_k)) <= tol
    assert (
        abs(state.h_leak - state.h_out - (1 - leak.x) * U_k.evaluate(state.q_out_k))
        <= tol
    )
    assert abs(state.q_leak - leak.leak.flow(state.h_leak)) <= tol


def test_example2_state_invariants(example2):
    pipes, leak = example2
    state = solve_leaky_state(pipes, leak, 5.0, 1.0)
    check_state_invariants(pipes, leak, state)
    assert state.dh == 4.0


def test_zero_demand_degenerate():
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
    leak = LeakSpec(1, 0.4, FixedDemand(0.0))
    state = solve_leaky_state(pipes, leak, 3.0, 1.0)
    q_free = pipes.pipe(1).invert(2.0)
    assert state.q_in_k == pytest.approx(q_free, abs=1e-10)
    assert state.q_out_k == pytest.approx(q_free, abs=1e-10)
    assert state.h_leak == pytest.approx(3.0 - 0.4 * 2.0, abs=1e-10)


def test_linear_closed_form_oracle():
    # 2x2 linear algebra: dh = x R q_in_k + (1-x) R q_out_k, q_in_k - q_out_k = q
    R, k, x, q = 0.2, 2, 0.3, 5.0
    pipes = PipeSet((Linear(0.1), Linear(R), Linear(0.3)))
    leak = LeakSpec(k, x, FixedDemand(q))
    state = solve_leaky_state(pipes, leak, 2.0, 1.0)
    dh = 1.0
    q_in_k = (dh + (1 - x) * R * q) / R
    assert state.q_in_k == pytest.approx(q_in_k, abs=1e-10)
    assert state.q_out_k == pytest.approx(q_in_k - q, abs=1e-10)
    check_state_invariants(pipes, leak, state)


def test_measure_mass_balance(example2):
    pipes, leak = example2
    state = solve_leaky_state(pipes, leak, 5.0, 1.0)
    d = measure(state, pipes, leak)
    assert d.q_in - d.q_out == pytest.approx(state.q_leak, abs=1e-12)


@pytest.mark.parametrize("network", ["example2", "mixed-5"])
def test_measure_adds_the_parallel_flow(request, network):
    # the sensors read the leaking pipe's section flows plus the flow of the
    # other pipes at the state's head loss, summed left to right
    if network == "example2":
        pipes, leak = request.getfixturevalue("example2")
    else:
        pipes, leak, _ = mixed_network(5)
    for h_in in (1.0, 1.5, 3.0, 5.0, 9.0):
        state = solve_leaky_state(pipes, leak, h_in, 1.0)
        d = measure(state, pipes, leak)
        through = sum(
            pipes.pipe(i).invert(state.dh) for i in range(1, pipes.n + 1) if i != leak.k
        )
        assert d.q_in == state.q_in_k + through
        assert d.q_out == state.q_out_k + through
        if state.dh == 0.0:
            assert through == 0.0


def test_measure_zero_leak():
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
    leak = LeakSpec(1, 0.4, FixedDemand(0.0))
    state = solve_leaky_state(pipes, leak, 3.0, 1.0)
    d = measure(state, pipes, leak)
    assert d.q_in == pytest.approx(d.q_out, abs=1e-12)


def test_measure_zero_dh_only_leaking_pipe_flows():
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
    leak = LeakSpec(1, 0.4, FixedDemand(5.0))
    state = solve_leaky_state(pipes, leak, 2.0, 2.0)
    d = measure(state, pipes, leak)
    assert d.q_in == pytest.approx(state.q_in_k, abs=1e-12)


def test_solver_uniqueness_perturbed_bracket(example2):
    pipes, leak = example2
    a = solve_leaky_state(pipes, leak, 5.0, 1.0)
    # re-solve with shifted boundary representation of the same state
    b = solve_leaky_state(pipes, leak, 5.0 + 0.0, 1.0)
    assert a.h_leak == pytest.approx(b.h_leak, abs=1e-10)
    # independent check: mismatch at the solution is tiny
    U_k = pipes.pipe(leak.k)
    f = (
        U_k.invert((5.0 - a.h_leak) / leak.x)
        - U_k.invert((a.h_leak - 1.0) / (1 - leak.x))
        - leak.leak.flow(a.h_leak)
    )
    assert abs(f) <= 1e-9


@pytest.mark.parametrize("h_out", [1e3, 1e4, 1e6])
def test_large_head_solve_stops_early(example1, monkeypatch, h_out):
    # an absolute stop of 1e-13 alone is below one ulp at |h| >= 1000
    pipes, leak, _ = example1
    calls = []
    flow = PowerLawLeak.flow
    monkeypatch.setattr(PowerLawLeak, "flow", lambda self, h: calls.append(h) or flow(self, h))
    state = solve_leaky_state(pipes, leak, h_out + 4.0, h_out)
    assert len(calls) <= 40
    check_state_invariants(pipes, leak, state, tol=4 * math.ulp(h_out))


def test_monotone_leak_response(example2):
    pipes, leak = example2
    q_leaks = [
        solve_leaky_state(pipes, leak, h_in, 1.0).q_leak for h_in in (2.0, 3.0, 5.0, 8.0)
    ]
    assert all(a <= b for a, b in zip(q_leaks, q_leaks[1:]))


def test_no_root_error_for_unreachable_leak_elevation():
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
    leak = LeakSpec(1, 0.4, PowerLawLeak(C=1.0, beta=0.5, h_y=100.0))
    with pytest.raises(NoRootError):
        solve_leaky_state(pipes, leak, 3.0, 1.0)


def test_no_root_error_when_a_section_flow_overflows():
    # at a leak this close to the inlet, the first bracket probes ask the
    # inlet section for a flow beyond the float range
    pipes = PipeSet((PowerLaw(1.0, 0.5),))
    leak = LeakSpec(1, 1e-286, PowerLawLeak(C=1.0, beta=1.0))
    with pytest.raises(NoRootError, match="float range"):
        solve_leaky_state(pipes, leak, 1.0, 1.0)


def test_invalid_leak_spec():
    with pytest.raises(ValueError):
        LeakSpec(1, 1.2, SqrtLeak())
    with pytest.raises(ValueError):
        LeakSpec(0, 0.5, SqrtLeak())
    pipes = PipeSet((Linear(0.1),))
    with pytest.raises(ValueError):
        solve_leaky_state(pipes, LeakSpec(2, 0.5, SqrtLeak()), 2.0, 1.0)


class TestSweep:
    def test_empty(self, example2):
        pipes, leak = example2
        result = sweep(pipes, leak, [])
        assert result.points == ()
        assert result.errors == {}

    def test_repeated_pair_deterministic(self, example2):
        pipes, leak = example2
        result = sweep(pipes, leak, [(5.0, 1.0), (5.0, 1.0)])
        assert result.points[0] == result.points[1]

    def test_example1_hundred_points(self, example1):
        pipes, leak, boundaries = example1
        result = sweep(pipes, leak, boundaries)
        assert len(result.ok()) == 100
        assert result.errors == {}

    def test_partial_failures_collected(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2)))
        leak = LeakSpec(1, 0.5, PowerLawLeak(C=1.0, beta=0.5, h_y=2.5))
        result = sweep(pipes, leak, [(2.0, 1.0), (10.0, 1.0)])
        assert 0 in result.errors
        assert result.points[0] is None
        assert result.points[1] is not None

    def test_all_fail_raises(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2)))
        leak = LeakSpec(1, 0.5, PowerLawLeak(C=1.0, beta=0.5, h_y=1000.0))
        with pytest.raises(NoRootError):
            sweep(pipes, leak, [(2.0, 1.0), (3.0, 1.0)])


class TestHeadProfile:
    def test_boundaries(self, example2):
        pipes, leak = example2
        state = solve_leaky_state(pipes, leak, 5.0, 1.0)
        for i in range(1, pipes.n + 1):
            assert head_profile(state, pipes, leak, i, 0.0) == pytest.approx(5.0)
            assert head_profile(state, pipes, leak, i, 1.0) == pytest.approx(1.0)

    def test_leak_position(self, example2):
        pipes, leak = example2
        state = solve_leaky_state(pipes, leak, 5.0, 1.0)
        assert head_profile(state, pipes, leak, leak.k, leak.x) == pytest.approx(
            state.h_leak
        )

    def test_nonleaking_midpoint(self, example2):
        pipes, leak = example2
        state = solve_leaky_state(pipes, leak, 5.0, 1.0)
        assert head_profile(state, pipes, leak, 2, 0.5) == pytest.approx(5.0 - 2.0)

    def test_out_of_range(self, example2):
        pipes, leak = example2
        state = solve_leaky_state(pipes, leak, 5.0, 1.0)
        with pytest.raises(ValueError):
            head_profile(state, pipes, leak, 1, 1.5)
