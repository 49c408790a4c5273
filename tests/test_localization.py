import pytest

from conftest import simulate_data

from leakscope import (
    DataPoint,
    FixedDemand,
    LeakSpec,
    Linear,
    NoLeakError,
    PartialDataPoint,
    PipeSet,
    SignedQuadratic,
    SqrtLeak,
    all_candidates,
    candidate_position,
    complete_data_point,
    estimate_outflow,
    measure,
    residual,
    residual_bar,
    solve_leaky_state,
)


def test_example2_candidates_paper_values(example2):
    pipes, leak = example2
    d4 = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
    assert candidate_position(pipes, 1, d4) == pytest.approx(0.65, abs=1e-8)
    assert candidate_position(pipes, 2, d4) == pytest.approx(0.63, abs=0.005)
    assert candidate_position(pipes, 3, d4) == pytest.approx(0.64, abs=0.005)
    d1 = simulate_data(pipes, leak, [(2.0, 1.0)])[0]
    assert candidate_position(pipes, 2, d1) == pytest.approx(0.69, abs=0.005)
    assert candidate_position(pipes, 3, d1) == pytest.approx(0.72, abs=0.005)


def test_true_pipe_recovers_exact_position(example1):
    pipes, leak, boundaries = example1
    for d in simulate_data(pipes, leak, boundaries[::20]):
        assert candidate_position(pipes, leak.k, d) == pytest.approx(leak.x, abs=1e-8)


def test_all_candidates_one_per_pipe(example2):
    pipes, leak = example2
    d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
    cands = all_candidates(pipes, d)
    assert [c.j for c in cands] == [1, 2, 3]
    for c in cands:
        assert 0.0 < c.x_j < 1.0
        assert abs(residual(pipes, c.j, c.x_j, d)) <= 1e-9


def test_single_pipe_candidate():
    pipes = PipeSet((SignedQuadratic(0.05),))
    leak = LeakSpec(1, 0.7, SqrtLeak())
    d = simulate_data(pipes, leak, [(4.0, 1.0)])[0]
    assert candidate_position(pipes, 1, d) == pytest.approx(0.7, abs=1e-8)


def test_identical_pipes_same_candidate():
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.05)))
    leak = LeakSpec(1, 0.4, SqrtLeak())
    d = simulate_data(pipes, leak, [(4.0, 1.0)])[0]
    assert candidate_position(pipes, 1, d) == pytest.approx(0.4, abs=1e-8)
    assert candidate_position(pipes, 2, d) == pytest.approx(0.4, abs=1e-8)


def test_no_leak_rejected(example2):
    pipes, _ = example2
    d = DataPoint(5.0, 1.0, 2.0, 2.0)
    with pytest.raises(NoLeakError):
        candidate_position(pipes, 1, d)


def test_equal_section_head_losses_rejected():
    # a zero leak solved to flows one ulp apart, which pipe 1's two section
    # head losses round to the same value
    pipes = PipeSet((Linear(0.1), SignedQuadratic(0.05)))
    d = DataPoint(2.0, -0.002, 26.347716807822543, 26.347716807822547)
    assert d.q_in != d.q_out
    with pytest.raises(NoLeakError, match="pipe 1's two section head losses are equal"):
        all_candidates(pipes, d)


def test_out_of_range_candidate_warns(example2):
    pipes, _ = example2
    # physically inconsistent data: far more outflow than inflow
    d = DataPoint(5.0, 1.0, 50.0, 60.0)
    with pytest.warns(UserWarning) as one:
        candidate_position(pipes, 1, d)
    with pytest.warns(UserWarning) as every:
        all_candidates(pipes, d)
    # each warning names the caller's line, not a line inside leakscope
    assert {w.filename for w in [*one, *every]} == {__file__}


class TestResidual:
    def test_zero_at_truth_and_candidates(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        assert abs(residual(pipes, leak.k, leak.x, d)) <= 1e-9
        for j in range(1, pipes.n + 1):
            x_j = candidate_position(pipes, j, d)
            assert abs(residual(pipes, j, x_j, d)) <= 1e-9

    def test_sign_at_endpoints(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        for j in range(1, pipes.n + 1):
            assert residual(pipes, j, 0.0, d) > 0.0
            assert residual(pipes, j, 1.0, d) < 0.0

    def test_linear_in_position(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        xa, xb, alpha = 0.2, 0.8, 0.3
        mix = alpha * xa + (1 - alpha) * xb
        expected = alpha * residual(pipes, 2, xa, d) + (1 - alpha) * residual(
            pipes, 2, xb, d
        )
        assert residual(pipes, 2, mix, d) == pytest.approx(expected, abs=1e-10)

    def test_grid_search_oracle(self, example2):
        # brute force: |r_j| over an x grid bottoms out at the formula's output
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(4.2, 1.0)])[0]
        step = 1e-4
        for j in range(1, pipes.n + 1):
            grid = [step * i for i in range(1, 10000)]
            best = min(grid, key=lambda x: abs(residual(pipes, j, x, d)))
            assert abs(best - candidate_position(pipes, j, d)) <= 1e-4


class TestEstimateOutflow:
    def test_identity_at_truth(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        est = estimate_outflow(pipes, leak.k, leak.x, d.dh, d.q_in)
        assert est == pytest.approx(d.q_out, abs=1e-9)

    def test_residual_equivalence(self, example2):
        # flow-space residual vanishes exactly where the head-space one does
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        for j in range(1, pipes.n + 1):
            x_j = candidate_position(pipes, j, d)
            assert abs(residual_bar(pipes, j, x_j, d)) <= 1e-9
            assert abs(residual_bar(pipes, j, 0.9 * x_j, d)) > 1e-6 or j == leak.k

    def test_linear_network_wrong_pipe_zero(self, example3):
        pipes, leak, boundaries = example3
        for d in simulate_data(pipes, leak, boundaries):
            for j in range(1, pipes.n + 1):
                x_j = candidate_position(pipes, j, d)
                assert abs(residual_bar(pipes, j, x_j, d)) <= 1e-9
                assert d.q_out == pytest.approx(
                    estimate_outflow(pipes, j, x_j, d.dh, d.q_in), abs=1e-9
                )

    def test_position_one_rejected(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        with pytest.raises(ValueError, match="position 1 in pipe 2 leaves no outlet"):
            residual_bar(pipes, 2, 1.0, d)


class TestCompleteDataPoint:
    def test_missing_flow_identities(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        done = complete_data_point(
            pipes, leak.k, leak.x, PartialDataPoint(d.h_in, d.h_out, d.q_in, None)
        )
        assert done.q_out == pytest.approx(d.q_out, abs=1e-8)
        done = complete_data_point(
            pipes, leak.k, leak.x, PartialDataPoint(d.h_in, d.h_out, None, d.q_out)
        )
        assert done.q_in == pytest.approx(d.q_in, abs=1e-8)

    def test_all_four_cases_zero_residual(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        fields = {"h_in": d.h_in, "h_out": d.h_out, "q_in": d.q_in, "q_out": d.q_out}
        for j in range(1, pipes.n + 1):
            x_j = 0.55  # arbitrary fixed hypothesis
            for missing in fields:
                kwargs = {k: (None if k == missing else v) for k, v in fields.items()}
                done = complete_data_point(pipes, j, x_j, PartialDataPoint(**kwargs))
                assert abs(residual(pipes, j, x_j, done)) <= 1e-9

    def test_linear_missing_head_matches_closed_form(self):
        # linear network: r_j = 0 is itself linear in h_in
        pipes = PipeSet((Linear(0.1), Linear(0.2)))
        leak = LeakSpec(1, 0.5, FixedDemand(3.0))
        d = simulate_data(pipes, leak, [(2.0, 1.0)])[0]
        x_j = candidate_position(pipes, 1, d)
        done = complete_data_point(
            pipes, 1, x_j, PartialDataPoint(None, d.h_out, d.q_in, d.q_out)
        )
        assert done.h_in == pytest.approx(d.h_in, abs=1e-9)

    def test_round_trip_candidate(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        x_j = 0.6
        done = complete_data_point(
            pipes, 2, x_j, PartialDataPoint(d.h_in, d.h_out, d.q_in, None)
        )
        assert candidate_position(pipes, 2, done) == pytest.approx(x_j, abs=1e-8)

    def test_partial_validation(self):
        with pytest.raises(ValueError):
            PartialDataPoint(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(ValueError):
            PartialDataPoint(None, None, 3.0, 4.0)


def test_backflow_state_localizes():
    # zero head loss with an active leak forces q_out_k < 0
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
    leak = LeakSpec(1, 0.4, FixedDemand(5.0))
    state = solve_leaky_state(pipes, leak, 2.0, 2.0)
    assert state.q_out_k < 0.0
    d = measure(state, pipes, leak)
    assert candidate_position(pipes, leak.k, d) == pytest.approx(leak.x, abs=1e-8)
