import itertools
import math
import random
import re

import pytest

from leakscope import (
    FixedDemand,
    LeakSpec,
    Linear,
    NoRootError,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    head_profile,
    isolate_by_consistency,
    measure,
    solve_leaky_state,
    sweep,
)
from conftest import linspace
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


def all_but_one(flows, k):
    """The flow through every pipe but pipe k: the flows before k summed from
    the inlet end, plus the flows after k summed from the outlet end."""
    before = after = 0.0
    for q in flows[:k - 1]:
        before += q
    for q in reversed(flows[k:]):
        after += q
    return before + after


@pytest.mark.parametrize("network", ["example2", "mixed-5"])
def test_measure_adds_the_parallel_flow(request, network):
    # the sensors read the leaking pipe's section flows plus the flow of the
    # other pipes at the state's head loss, summed as every inversion sums it
    if network == "example2":
        pipes, leak = request.getfixturevalue("example2")
        leaks = [leak]
    else:
        pipes, leak, _ = mixed_network(5)
        leaks = [LeakSpec(k, leak.x, leak.leak) for k in range(1, pipes.n + 1)]
    for leak, h_in in itertools.product(leaks, (1.0, 1.5, 3.0, 5.0, 9.0)):
        state = solve_leaky_state(pipes, leak, h_in, 1.0)
        d = measure(state, pipes, leak)
        flows = [pipes.pipe(i).invert(state.dh) for i in range(1, pipes.n + 1)]
        through = all_but_one(flows, leak.k)
        assert d.q_in == state.q_in_k + through
        assert d.q_out == state.q_out_k + through
        if state.dh == 0.0:
            assert through == 0.0


@pytest.mark.parametrize("n", [4, 8, 40, 150])
def test_readings_carry_the_parallel_flow_that_inversion_subtracts(monkeypatch, n):
    # a noise-free reading of the true pipe is inverted against the very G it
    # was made with, wherever the leak sits among the pipes
    from leakscope import localization

    subtracted = []

    def position(U_j, j, G, *args):
        subtracted.append(G)
        return _position(U_j, j, G, *args)

    _position = localization._position
    monkeypatch.setattr(localization, "_position", position)
    pipes, leak, _ = mixed_network(n)
    for k in sorted({1, 2, n // 2, n}):
        moved = LeakSpec(k, leak.x, leak.leak)
        for h_in in (1.5, 2.0, 3.0, 5.0, 9.0):
            state = solve_leaky_state(pipes, moved, h_in, 1.0)
            d = measure(state, pipes, moved)
            localization.candidate_position(pipes, k, d)
            G = subtracted.pop()
            assert (d.q_in, d.q_out) == (state.q_in_k + G, state.q_out_k + G), (k, h_in)


@pytest.mark.filterwarnings("ignore:candidate position")
def test_true_pipe_spread_of_a_wide_network_is_rounding():
    # noise-free data: the true pipe's candidates differ by rounding alone, up
    # to 8.55e-13 when the readings' parallel flow was rounded otherwise than G
    for seed in range(5):
        pipes, leak, data = mixed_network(150, seed)
        assert isolate_by_consistency(pipes, data).spreads[leak.k] <= 3e-13, seed


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


def count_leak_law_calls(monkeypatch) -> list[float]:
    # counted on the classes, as the benchmark's tracer counts them
    calls = []
    for cls in (PowerLawLeak, FixedDemand):
        flow = cls.flow
        counted = lambda self, h, flow=flow: calls.append(h) or flow(self, h)  # noqa: E731
        monkeypatch.setattr(cls, "flow", counted)
    return calls


def evaluations_per_solve(networks, grid, calls) -> list[int]:
    counts = []
    for pipes, leak in networks:
        for h_in, h_out in grid:
            before = len(calls)
            try:
                solve_leaky_state(pipes, leak, h_in, h_out)
            except NoRootError:
                pass
            counts.append(len(calls) - before)
    return counts


def test_newton_solve_evaluation_counts(example1, example2, monkeypatch):
    networks = [example1[:2], example2, mixed_network(4)[:2]]
    calls = count_leak_law_calls(monkeypatch)
    # the examples' operating range: 1 + dh over 1, dh from 0.5 to 6
    grid = [(1.0 + dh, 1.0) for dh in linspace(0.5, 6.0, 100)]
    counts = evaluations_per_solve(networks, grid, calls)
    assert sum(counts) / len(counts) <= 5.5 and max(counts) <= 8
    # both flow directions and outlet heads up to 100, where some roots sit next
    # to a zero section flow or the leak elevation and take longest (Brent: 21)
    grid = [(h + dh, h) for h in (1.0, 3.0, 10.0, 100.0) for dh in linspace(-8.0, 8.0, 65)]
    counts = evaluations_per_solve(networks, grid, calls)
    assert sum(counts) / len(counts) <= 5.5 and max(counts) <= 20


def test_zero_dh_solves_take_few_evaluations(monkeypatch):
    # at dh = 0 both section heads vanish at the zero-leak head, so the solve
    # starts from the linear-split head; on these 400 drawn n = 4 networks
    # Brent's zeroin, which took over there before, made 12.2 calls on average
    rng = random.Random(3)
    makers = [
        lambda: SignedQuadratic(rng.uniform(0.02, 0.3)),
        lambda: QuadraticPlusLinear(rng.uniform(0.5, 3.0)),
        lambda: PowerLaw(rng.uniform(0.05, 0.5), 1.85),
        lambda: Linear(rng.uniform(0.05, 0.5)),
    ]
    cases = []
    for _ in range(400):
        pipes = PipeSet(tuple(rng.choice(makers)() for _ in range(4)))
        leak = LeakSpec(
            rng.randint(1, 4), rng.uniform(0.05, 0.95), PowerLawLeak(rng.uniform(0.1, 2.0), 0.5)
        )
        cases.append((pipes, leak, rng.uniform(1.0, 10.0)))
    calls = count_leak_law_calls(monkeypatch)
    counts = []
    for pipes, leak, h in cases:
        before = len(calls)
        solve_leaky_state(pipes, leak, h, h)  # the start's own call counts too
        counts.append(len(calls) - before)
    assert sum(counts) / len(counts) <= 5 and max(counts) <= 8


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


@pytest.mark.parametrize("k", [1.5, 2.0, 0, -1, "2", None, True])
def test_leak_spec_rejects_a_pipe_index_that_is_not_a_positive_int(k):
    # a float k was once accepted, and its sweep raised TypeError from tuple
    # indexing, which the sweep's per-row ValueError handler did not catch; True
    # is an int >= 1 to isinstance, and the scenario reader refuses booleans too
    with pytest.raises(ValueError, match=r"^pipe index k must be an int >= 1, got "):
        LeakSpec(k, 0.5, SqrtLeak())


class _DoubledDemand(FixedDemand):
    """A fixed demand whose own `flow` doubles the base one."""

    __slots__ = ()

    def flow(self, h_leak):
        return 2.0 * super().flow(h_leak)


class _CappedLeak(PowerLawLeak):
    """A power-law leak whose own `flow` is capped at 1, which the solve's
    slope beta g / (h - h_y) would not follow."""

    __slots__ = ()

    def flow(self, h_leak):
        return min(super().flow(h_leak), 1.0)


@pytest.mark.parametrize(
    "leak", [None, _DoubledDemand(0.5), _CappedLeak(1.0, 0.5)], ids=["none", "demand", "power"]
)
def test_leak_spec_refuses_a_leak_of_another_class(leak):
    # the forward solve writes the leak slope of PowerLawLeak and FixedDemand, so a
    # spec refuses any other class, a subclass included, where it is built; None
    # once raised AttributeError in sweep, which its per-row handler did not catch
    message = f"^leak class {type(leak).__name__} is not PowerLawLeak or FixedDemand$"
    with pytest.raises(TypeError, match=message):
        LeakSpec(1, 0.5, leak)
    spec = LeakSpec(1, 0.5, SqrtLeak())
    with pytest.raises(TypeError, match=message):
        spec.replace(leak=leak)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PowerLawLeak(C=INF, beta=0.5), "C must be positive and finite, got inf"),
        (lambda: PowerLawLeak(C=NAN, beta=0.5), "C must be positive and finite, got nan"),
        (lambda: PowerLawLeak(C=0.0, beta=0.5), "C must be positive and finite, got 0.0"),
        (lambda: PowerLawLeak(C=1.0, beta=INF), "beta must be positive and finite, got inf"),
        (lambda: PowerLawLeak(C=1.0, beta=NAN), "beta must be positive and finite, got nan"),
        (lambda: PowerLawLeak(C=1.0, beta=-0.5), "beta must be positive and finite, got -0.5"),
        (lambda: PowerLawLeak(1.0, 0.5, h_y=NAN), "h_y must be finite, got nan"),
        (lambda: PowerLawLeak(1.0, 0.5, h_y=-INF), "h_y must be finite, got -inf"),
        (lambda: FixedDemand(NAN), "q_leak must be non-negative and finite, got nan"),
        (lambda: FixedDemand(INF), "q_leak must be non-negative and finite, got inf"),
        (lambda: FixedDemand(-1.0), "q_leak must be non-negative and finite, got -1.0"),
    ],
)
def test_leak_law_rejects_a_parameter_that_is_not_finite(make, message):
    # an infinite beta once built a law whose solved state broke the leak law,
    # and a NaN parameter spent every bracket expansion before failing
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_leak_law_accepts_finite_edge_parameters():
    assert PowerLawLeak(C=1e-300, beta=1e300, h_y=-1e300).h_y == -1e300
    assert FixedDemand(0.0).q_leak == 0.0


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

    def test_parallel_flow_beyond_the_float_range_reads_inf(self):
        # two near-frictionless pipes carry 1e308 each: their sum is no float
        pipes = PipeSet((Linear(1e-300), Linear(1e-300), QuadraticPlusLinear(1.0)))
        leak = LeakSpec(3, 0.5, SqrtLeak())
        result = sweep(pipes, leak, [(100000001.0, 1.0)])
        assert result.errors == {}
        (d,) = result.points
        assert (d.q_in, d.q_out) == (math.inf, math.inf)

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
