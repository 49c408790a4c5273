"""The per-data-point kernel: every per-pipe quantity that needs the flow
through all other pipes must agree exactly with its one-pipe definition."""

import math
import pickle
import random
import struct
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from conftest import simulate_data

from leakscope import headloss
from leakscope import (
    FixedDemand,
    LeakFitResult,
    LeakSpec,
    Linear,
    PipeSet,
    PowerLaw,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    UnboundedDerivativeError,
    all_candidates,
    apparent_leak_head,
    candidate_position,
    confusion_flow_curve,
    estimate_outflow,
    fit_leak_function,
    isolate_by_consistency,
    isolate_by_leak_fit,
    measure,
    residual_differential,
    solve_leaky_state,
    zero_dh_sensitivity,
)

SIZES = [1, 2, 3, 4, 17, 40]


def mixed_network(n: int, seed: int = 0):
    """n pipes cycling through four law families; the leak sits in a
    power-law pipe (pipe 1 when n is 1)."""
    rng = random.Random(f"mixed:{n}:{seed}")
    makers = [
        lambda: SignedQuadratic(rng.uniform(0.02, 0.3)),
        lambda: QuadraticPlusLinear(rng.uniform(0.5, 3.0)),
        lambda: PowerLaw(rng.uniform(0.05, 0.5), 1.85),
        lambda: Linear(rng.uniform(0.05, 0.5)),
    ]
    pipes = PipeSet(tuple(makers[(i + 2) % 4]() for i in range(n)))
    leak = LeakSpec(1, rng.uniform(0.2, 0.8), SqrtLeak())
    boundaries = [(1.0 + rng.uniform(0.5, 6.0), 1.0) for _ in range(5)]
    return pipes, leak, simulate_data(pipes, leak, boundaries)


def short_grid(nominal):
    """Five head losses around a nominal point: the point, two above, two below."""
    return [nominal.dh * s for s in (1.0, 1.1, 1.25, 0.9, 0.8)]


@pytest.fixture(autouse=True)
def _quiet_out_of_range_candidates():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


@pytest.mark.parametrize("n", SIZES)
def test_all_candidates_match_one_pipe_definitions(n):
    pipes, _, data = mixed_network(n)
    for d in data:
        cands = all_candidates(pipes, d)
        assert [c.j for c in cands] == list(range(1, n + 1))
        for c in cands:
            assert c.x_j == candidate_position(pipes, c.j, d)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("per_pipe_h_y", [False, True])
def test_leak_fit_matches_apparent_leak_head_samples(n, per_pipe_h_y):
    pipes, _, data = mixed_network(n)
    candidates = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    h_y = {j: -0.25 * j for j in candidates} if per_pipe_h_y else 0.0
    fits = {
        j: fit_leak_function(
            [(apparent_leak_head(pipes, j, x_j, d), d.q_in - d.q_out) for d in data],
            h_y=h_y[j] if per_pipe_h_y else h_y,
        )
        for j, x_j in sorted(candidates.items())
    }
    expected = sorted(
        # the one-pipe fit records pipe 0; the set's fit records each pipe's index
        (LeakFitResult(**{**fit._asdict(), "j": j}) for j, fit in fits.items()),
        key=lambda r: (r.negative_head, r.rmse, r.j),
    )
    assert isolate_by_leak_fit(pipes, data, candidates, h_y=h_y) == expected


@pytest.mark.parametrize("n", SIZES)
def test_confusion_residuals_match_outflow_definition(n):
    pipes, leak, data = mixed_network(n)
    nominal = data[0]
    grid = short_grid(nominal)
    k, x = leak.k, leak.x
    for cand in all_candidates(pipes, nominal):
        i, x_i = cand.j, cand.x_j
        curve = confusion_flow_curve(pipes, i, x_i, leak, grid, nominal.q_in)
        for dh, q, res in zip(curve.dh_grid, curve.q_in_conf, curve.residual_trace):
            assert res == abs(
                estimate_outflow(pipes, k, x, dh, q) - estimate_outflow(pipes, i, x_i, dh, q)
            )


laws = st.one_of(
    st.builds(PowerLaw, st.floats(0.01, 10.0), st.sampled_from([0.5, 1.0, 1.85, 2.0, 3.0])),
    st.builds(QuadraticPlusLinear, st.floats(0.01, 10.0)),
)
head_losses = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e12, -1e12]),
    st.floats(-1e12, 1e12),
)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _slope_bits(pipes, dh):
    """The bits of the admittance slopes at dh, or the zero-slope error."""
    try:
        return _bits(pipes.admittance_derivatives_excluding(dh))
    except ZeroDivisionError as exc:  # a law with gamma > 1 at dh = +-0.0
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(laws, min_size=1, max_size=30),
    st.lists(st.one_of(head_losses, st.just(math.nan)), min_size=1, max_size=8),
)
def test_memo_results_match_a_cold_copy_bitwise(pipe_list, dhs):
    pipes = PipeSet(tuple(pipe_list))
    first = [(pipes.flows(dh), pipes.admittances_excluding(dh)) for dh in dhs]
    again = [(pipes.flows(dh), pipes.admittances_excluding(dh)) for dh in dhs]
    warm_slopes = [_slope_bits(pipes, dh) for dh in dhs]  # from the flows in the memo
    cold = PipeSet(pipes.pipes)
    for dh, (flows, sums), (flows_again, sums_again), slopes in zip(dhs, first, again, warm_slopes):
        if not math.isnan(dh):  # another NaN is another key, so a NaN may miss
            assert flows_again is flows and sums_again is sums  # read from the memo
        definition = [p.invert(dh) for p in pipe_list]
        for got in (flows, cold.flows(dh)):
            assert _bits(got) == _bits(definition)
        for got in (sums, cold.admittances_excluding(dh)):
            assert _bits(got) == _bits(headloss._all_but_one(definition))
        assert slopes == _slope_bits(PipeSet(pipes.pipes), dh)  # a new set inverts its laws


def test_signed_zero_head_losses_keep_their_own_flows():
    pipes = PipeSet((SignedQuadratic(0.1), QuadraticPlusLinear(2.0), PowerLaw(0.3, 1.85)))
    assert [math.copysign(1.0, q) for q in pipes.flows(0.0)] == [1.0] * 3
    assert [math.copysign(1.0, q) for q in pipes.flows(-0.0)] == [-1.0] * 3
    assert [math.copysign(1.0, q) for q in pipes.flows(0.0)] == [1.0] * 3


def test_equal_but_distinct_sets_alternate():
    laws_a = (SignedQuadratic(0.1), Linear(0.2))
    a, b = PipeSet(laws_a), PipeSet(laws_a)
    other = PipeSet((Linear(5.0), Linear(7.0)))
    assert a == b and a is not b
    record = pickle.dumps(a), hash(a), repr(a), a.__slots__
    for dh in (1.0, 2.0, 1.0, -3.0, 2.0):
        for pipes in (a, b, other, a):
            assert pipes.flows(dh) == tuple(p.invert(dh) for p in pipes.pipes)
            assert headloss._memo[0] is pipes  # the memo keeps the set it answers for
    assert (pickle.dumps(a), hash(a), repr(a), a.__slots__) == record and a == b
    # the memo keeps the set it answers for alive, so no set built later takes its id
    PipeSet(laws_a).flows(4.0)
    assert other.flows(4.0) == (0.8, 4.0 / 7.0)


def test_memo_is_capped_by_the_floats_it_holds(monkeypatch):
    monkeypatch.setattr(headloss, "_MEMO_FLOATS", 10)
    pipes = PipeSet((Linear(1.0), SignedQuadratic(2.0)))  # 4 floats a head loss
    held = []
    for dh in (1.0, 2.0, 3.0, 4.0, 5.0, 1.0):
        assert pipes.flows(dh) == tuple(p.invert(dh) for p in pipes.pipes)
        assert 4 * len(headloss._memo[1]) <= 10
        held.append(len(headloss._memo[1]))
    assert held == [1, 2, 1, 2, 1, 2]  # cleared when the next head loss would not fit
    wide = PipeSet(tuple(Linear(float(j)) for j in range(1, 7)))  # 12 floats a head loss
    assert wide.admittances_excluding(1.0) == headloss._all_but_one(
        [p.invert(1.0) for p in wide.pipes]
    )
    assert headloss._memo[1] == {}


def test_threads_asking_different_sets_get_their_own_flows():
    # more threads than cores, switched often: no set may read another's entries
    sets = [PipeSet((Linear(t + 1.0), SignedQuadratic(0.1 * (t + 1)))) for t in range(6)]
    head_losses = [0.5 * i for i in range(1, 9)]
    wrong = []

    def ask(pipes):
        for _ in range(200):
            for dh in head_losses:
                if pipes.flows(dh) != tuple(p.invert(dh) for p in pipes.pipes):
                    wrong.append((pipes, dh))

    threads = [threading.Thread(target=ask, args=(pipes,)) for pipes in sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_an_inversion_that_raises_leaves_no_entry():
    pipes = PipeSet((Linear(1.0), PowerLaw(1.0, 0.1)))  # 1e300 ** 10 overflows
    pipes.flows(1.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="beyond the float range"):
            pipes.flows(1e300)
        assert 1e300 not in headloss._memo[1] and 1.0 in headloss._memo[1]


def _assert_slopes_are_all_but_one_sums(pipes, dh):
    """Entry j of the slope tuple is within (n - 1) eps of the exact sum of
    the other pipes' admittance slopes."""
    law_slopes = []
    for p in pipes.pipes:
        try:
            law_slopes.append(p.derivative(p.invert(dh)))
        except UnboundedDerivativeError:
            law_slopes.append(math.inf)
    if 0.0 in law_slopes:
        with pytest.raises(ZeroDivisionError):
            pipes.admittance_derivatives_excluding(dh)
        return
    slopes = [1.0 / s for s in law_slopes]
    got = pipes.admittance_derivatives_excluding(dh)
    assert len(got) == pipes.n
    for j, entry in enumerate(got):
        exact = math.fsum(slopes[:j] + slopes[j + 1:])
        assert abs(entry - exact) <= (pipes.n - 1) * sys.float_info.epsilon * exact


@settings(max_examples=300, deadline=None)
@given(st.lists(laws, min_size=1, max_size=40), head_losses)
def test_admittance_slopes_are_all_but_one_sums(pipe_list, dh):
    _assert_slopes_are_all_but_one_sums(PipeSet(tuple(pipe_list)), dh)


@pytest.mark.parametrize("position", [0, 17, 39])
def test_admittance_slopes_survive_a_dominant_pipe(position):
    # the slope 1e8 of the near-zero resistance swamps the others' 1/3 in any
    # sum that holds it, so subtracting it from the total loses their digits
    pipe_list = [Linear(3.0)] * 39
    pipe_list.insert(position, Linear(1e-8))
    _assert_slopes_are_all_but_one_sums(PipeSet(tuple(pipe_list)), 1.0)


@pytest.fixture
def count_law_calls(monkeypatch):
    """Calls of each law's `invert` and `evaluate`, by method name."""
    calls = dict.fromkeys(("invert", "evaluate"), 0)
    for cls in (PowerLaw, QuadraticPlusLinear):
        for name in calls:
            def counted(self, v, _method=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _method(self, v)
            monkeypatch.setattr(cls, name, counted)
    return calls


def test_isolation_evaluates_each_law_per_term_and_inverts_once_per_head_loss(count_law_calls):
    pipes, _, data = mixed_network(17)
    data = [*data, data[0]]  # a repeated state asks a head loss twice
    n, m, head_losses = pipes.n, len(data), len({d.dh for d in data})
    candidates = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    for isolate, evaluations in (
        (lambda p: isolate_by_consistency(p, data), 2 * n * m),  # both sections of each x_j
        (lambda p: isolate_by_leak_fit(p, data, candidates), n * m),  # each apparent head
    ):
        cold = PipeSet(pipes.pipes)
        for memo, inversions in (("cold", n * head_losses), ("warm", 0)):
            count_law_calls.update(invert=0, evaluate=0)
            isolate(cold)
            assert count_law_calls == {"invert": inversions, "evaluate": evaluations}, memo


def test_all_candidates_inverts_each_pipe_once(count_law_calls):
    pipes, _, data = mixed_network(40)
    cold = PipeSet(pipes.pipes)  # simulate_data's measure filled the memo for pipes
    count_law_calls["invert"] = 0
    all_candidates(cold, data[0])
    assert count_law_calls["invert"] == cold.n
    all_candidates(cold, data[0])
    assert count_law_calls["invert"] == cold.n  # a repeated call inverts nothing


def test_leak_fit_inverts_each_pipe_once_per_point(count_law_calls):
    pipes, _, data = mixed_network(40)
    candidates = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    cold = PipeSet(pipes.pipes)
    count_law_calls["invert"] = 0
    isolate_by_leak_fit(cold, data, candidates)
    assert count_law_calls["invert"] == cold.n * len(data)
    isolate_by_leak_fit(cold, data, candidates)
    assert count_law_calls["invert"] == cold.n * len(data)


def test_measure_localize_and_fit_invert_each_pipe_once_per_head_loss(count_law_calls):
    pipes, leak, _ = mixed_network(40)
    pipes = PipeSet(pipes.pipes)
    # the last two pairs repeat the first head loss, one of them in another state
    boundaries = [(3.0, 1.0), (4.5, 1.0), (6.0, 1.0), (7.5, 1.0), (3.0, 1.0), (4.0, 2.0)]
    # the solve inverts the leaking pipe's law alone, as often as its Newton steps
    states = [solve_leaky_state(pipes, leak, h_in, h_out) for h_in, h_out in boundaries]
    count_law_calls["invert"] = 0
    data = [measure(state, pipes, leak) for state in states]
    candidates = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    for d in data:
        all_candidates(pipes, d)
    isolate_by_leak_fit(pipes, data, candidates)
    assert len({d.dh for d in data}) == 4
    assert count_law_calls["invert"] == pipes.n * 4


def test_confusion_curve_forms_admittances_once_per_grid_point(monkeypatch):
    pipes, leak, data = mixed_network(6)
    nominal = data[0]
    x_2 = all_candidates(pipes, nominal)[1].x_j
    grid = short_grid(nominal)
    calls = [0]

    def counted(self, dh, _admittances=PipeSet.admittances_excluding):
        calls[0] += 1
        return _admittances(self, dh)

    monkeypatch.setattr(PipeSet, "admittances_excluding", counted)
    confusion_flow_curve(pipes, 2, x_2, leak, grid, nominal.q_in)
    assert calls[0] == len(grid)


def test_first_order_partials_invert_each_pipe_once_per_pass(count_law_calls):
    pipes, leak, data = mixed_network(6)
    x_2 = all_candidates(pipes, data[0])[1].x_j
    count_law_calls["invert"] = 0
    residual_differential(pipes, 2, x_2, leak.k, leak.x, data[0])
    assert count_law_calls["invert"] == 0  # the flows and the slopes read the memo
    cold = PipeSet(pipes.pipes)
    count_law_calls["invert"] = 0
    residual_differential(cold, 2, x_2, leak.k, leak.x, data[0])
    assert count_law_calls["invert"] == pipes.n  # the flows, which the slopes then read

    proportional = PipeSet(tuple(QuadraticPlusLinear(0.5 * j) for j in range(1, 7)))
    leak = LeakSpec(1, 0.4, FixedDemand(3.0))
    d0 = measure(solve_leaky_state(proportional, leak, 2.0, 2.0), proportional, leak)
    count_law_calls["invert"] = 0
    zero_dh_sensitivity(proportional, 2, 1, 0.4, d0)
    assert count_law_calls["invert"] == 0  # measure filled the memo at dh = 0
    cold = PipeSet(proportional.pipes)
    zero_dh_sensitivity(cold, 2, 1, 0.4, d0)
    assert count_law_calls["invert"] == proportional.n
