"""The per-data-point kernel: every per-pipe quantity that needs the flow
through all other pipes must agree exactly with its one-pipe definition."""

import random
import struct
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from conftest import simulate_data

from leakscope import (
    LeakSpec,
    Linear,
    PipeSet,
    PowerLaw,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    all_candidates,
    apparent_leak_flow,
    apparent_leak_head,
    candidate_position,
    confusion_flow_curve,
    estimate_outflow,
    fit_leak_function,
    isolate_by_leak_fit,
    residual,
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
            assert c.residual_check == residual(pipes, c.j, c.x_j, d)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("per_pipe_h_y", [False, True])
def test_leak_fit_matches_apparent_leak_head_samples(n, per_pipe_h_y):
    pipes, _, data = mixed_network(n)
    candidates = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    h_y = {j: -0.25 * j for j in candidates} if per_pipe_h_y else 0.0
    expected = sorted(
        (
            fit_leak_function(
                [(apparent_leak_head(pipes, j, x_j, d), apparent_leak_flow(d)) for d in data],
                h_y=h_y[j] if per_pipe_h_y else h_y,
                j=j,
            )
            for j, x_j in sorted(candidates.items())
        ),
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


@settings(max_examples=300, deadline=None)
@given(st.lists(laws, min_size=1, max_size=30), head_losses, st.data())
def test_one_pipe_and_all_pipe_admittances_agree_bitwise(pipe_list, dh, data):
    pipes = PipeSet(tuple(pipe_list))
    j = data.draw(st.integers(1, pipes.n), label="j")
    one = pipes.admittance_excluding(j, dh)
    every = pipes.admittances_excluding(dh)
    assert len(every) == pipes.n
    assert struct.pack("<d", one) == struct.pack("<d", every[j - 1])


@pytest.fixture
def count_inversions(monkeypatch):
    calls = [0]
    for cls in (PowerLaw, QuadraticPlusLinear):
        def counted(self, h, _invert=cls.invert):
            calls[0] += 1
            return _invert(self, h)
        monkeypatch.setattr(cls, "invert", counted)
    return calls


def test_all_candidates_inverts_each_pipe_once(count_inversions):
    pipes, _, data = mixed_network(40)
    count_inversions[0] = 0
    all_candidates(pipes, data[0])
    assert count_inversions[0] == pipes.n


def test_leak_fit_inverts_each_pipe_once_per_point(count_inversions):
    pipes, _, data = mixed_network(40)
    candidates = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    count_inversions[0] = 0
    isolate_by_leak_fit(pipes, data, candidates)
    assert count_inversions[0] == pipes.n * len(data)


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
