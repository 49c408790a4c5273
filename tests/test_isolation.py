import math

import pytest

from conftest import simulate_data

from leakscope import (
    DataPoint,
    LeakSpec,
    Linear,
    NoLeakError,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    SignedQuadratic,
    SqrtLeak,
    TooFewPointsError,
    all_candidates,
    apparent_leak_flow,
    apparent_leak_head,
    candidate_position,
    detect_inherent_ambiguity,
    fit_leak_function,
    isolate_by_consistency,
    isolate_by_leak_fit,
    solve_leaky_state,
)


class TestConsistency:
    def test_example1_isolates_pipe2(self, example1):
        pipes, leak, boundaries = example1
        data = simulate_data(pipes, leak, boundaries)
        verdict = isolate_by_consistency(pipes, data)
        assert verdict.isolated
        assert verdict.k_hat == 2
        assert verdict.x_hat == pytest.approx(0.3, abs=1e-6)
        assert verdict.spreads[1] / verdict.spreads[2] >= 1e3
        assert verdict.spreads[3] / verdict.spreads[2] >= 1e3

    def test_all_linear_ambiguous(self, example3):
        pipes, leak, boundaries = example3
        data = simulate_data(pipes, leak, boundaries)
        verdict = isolate_by_consistency(pipes, data)
        assert not verdict.isolated
        assert verdict.candidate_pipes == frozenset({1, 2, 3})
        assert "linear" in verdict.reason

    def test_identical_ambiguous(self):
        pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.05)))
        leak = LeakSpec(1, 0.4, SqrtLeak())
        data = simulate_data(pipes, leak, [(h, 1.0) for h in (2.0, 3.0, 4.0, 5.0)])
        verdict = isolate_by_consistency(pipes, data)
        assert not verdict.isolated
        assert "identical" in verdict.reason

    def test_same_law_spelled_two_ways_is_identical(self):
        pipes = PipeSet((SignedQuadratic(0.05), PowerLaw(0.05, 2.0)))
        assert detect_inherent_ambiguity(pipes) == [((1, 2), "identical")]
        leak = LeakSpec(1, 0.4, SqrtLeak())
        data = simulate_data(pipes, leak, [(h, 1.0) for h in (2.0, 3.0, 4.0, 5.0)])
        verdict = isolate_by_consistency(pipes, data)
        assert not verdict.isolated
        assert "pipes 1-2 identical" in verdict.reason

    def test_too_few_points(self, example1):
        pipes, leak, boundaries = example1
        data = simulate_data(pipes, leak, boundaries[:1])
        with pytest.raises(TooFewPointsError):
            isolate_by_consistency(pipes, data)

    def test_repeated_point_is_one_state(self, example1):
        pipes, leak, boundaries = example1
        d = simulate_data(pipes, leak, boundaries[:1])[0]
        with pytest.raises(TooFewPointsError, match="distinct"):
            isolate_by_consistency(pipes, [d, d])

    def test_no_leak_point_rejected(self, example1):
        pipes, _, _ = example1
        data = [DataPoint(2.0, 1.0, 3.0, 3.0), DataPoint(3.0, 1.0, 4.0, 3.5)]
        with pytest.raises(NoLeakError):
            isolate_by_consistency(pipes, data)


class TestApparentLeak:
    def test_true_pipe_matches_simulator(self, example2):
        pipes, leak = example2
        state = solve_leaky_state(pipes, leak, 5.0, 1.0)
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        got = apparent_leak_head(pipes, leak.k, leak.x, d)
        assert got == pytest.approx(state.h_leak, abs=1e-9)

    def test_linear_offset_identity(self, example3):
        # apparent head differs from the true one by (R_k - R_j) x (1-x) q_leak
        pipes, leak, boundaries = example3
        R = [0.1, 0.2, 0.3]
        for h_in, h_out in boundaries:
            state = solve_leaky_state(pipes, leak, h_in, h_out)
            d = simulate_data(pipes, leak, [(h_in, h_out)])[0]
            for j in range(1, 4):
                x_j = candidate_position(pipes, j, d)
                h_j = apparent_leak_head(pipes, j, x_j, d)
                offset = (R[leak.k - 1] - R[j - 1]) * leak.x * (1 - leak.x) * state.q_leak
                assert h_j - state.h_leak == pytest.approx(offset, abs=1e-10)

    def test_example3_pipe3_goes_negative(self, example3):
        pipes, leak, boundaries = example3
        data = simulate_data(pipes, leak, boundaries)
        x_3 = candidate_position(pipes, 3, data[0])
        heads = [apparent_leak_head(pipes, 3, x_3, d) for d in data]
        assert any(h < 0.0 for h in heads)

    def test_leak_flow(self, example3):
        pipes, leak, boundaries = example3
        for h_in, h_out in boundaries[:3]:
            state = solve_leaky_state(pipes, leak, h_in, h_out)
            d = simulate_data(pipes, leak, [(h_in, h_out)])[0]
            assert apparent_leak_flow(d) == pytest.approx(state.q_leak, abs=1e-12)
            assert apparent_leak_flow(d) > 0.0
        assert apparent_leak_flow(DataPoint(2.0, 1.0, 3.0, 3.0)) == 0.0


class TestFitLeakFunction:
    def test_exact_recovery(self):
        heads = [0.5, 1.0, 2.0, 3.5, 5.0]
        samples = [(h, 50.0 * h**0.5) for h in heads]
        fit = fit_leak_function(samples)
        assert fit.C_j == pytest.approx(50.0, rel=1e-6)
        assert fit.beta_j == pytest.approx(0.5, rel=1e-6)
        assert fit.rmse <= 1e-8
        assert fit.accepted and not fit.negative_head

    def test_negative_head_rejected(self):
        samples = [(-0.5, 10.0), (1.0, 20.0), (2.0, 30.0)]
        fit = fit_leak_function(samples)
        assert fit.negative_head and not fit.accepted

    @pytest.mark.parametrize("scale", [1e-10, 1e10], ids=["exp-overflows", "power-overflows"])
    def test_overflowing_fit_rejected(self, scale):
        # three nearly equal heads fit a huge exponent; exp(log C) or the
        # law at the samples then leaves the float range
        samples = [(scale * h, q) for h, q in ((1.0, 1.0), (1.0001, 10.0), (1.0002, 100.0))]
        fit = fit_leak_function(samples)
        assert fit.rmse == math.inf
        assert not fit.accepted and not fit.negative_head

    def test_degenerate_samples(self):
        with pytest.raises(ValueError):
            fit_leak_function([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError):
            fit_leak_function([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
        with pytest.raises(ValueError, match="positive"):
            fit_leak_function([(1.0, 2.0), (2.0, 0.0), (3.0, 4.0)])


class TestIsolateByLeakFit:
    def test_example3_ranking(self, example3):
        pipes, leak, boundaries = example3
        data = simulate_data(pipes, leak, boundaries)
        frozen = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
        fits = isolate_by_leak_fit(pipes, data, frozen)
        assert [f.j for f in fits] == [2, 1, 3]
        assert fits[0].rmse <= 1e-8
        assert fits[0].C_j == pytest.approx(50.0, rel=1e-6)
        assert fits[0].beta_j == pytest.approx(0.5, rel=1e-6)
        assert fits[1].rmse > 0.0 and not fits[1].negative_head
        assert fits[2].negative_head

    def test_cross_method_agreement(self, example1):
        # a network the consistency check already isolates: the fit agrees
        pipes, _, boundaries = example1
        leak = LeakSpec(2, 0.3, PowerLawLeak(C=1.5, beta=0.6))
        data = simulate_data(pipes, leak, boundaries[::10])
        verdict = isolate_by_consistency(pipes, data)
        assert verdict.isolated and verdict.k_hat == 2
        frozen = {j: verdict.candidate_series[j][0] for j in verdict.spreads}
        fits = isolate_by_leak_fit(pipes, data, frozen)
        assert fits[0].j == 2
        assert fits[0].rmse <= 1e-8

    def test_deterministic_ranking(self, example3):
        pipes, leak, boundaries = example3
        data = simulate_data(pipes, leak, boundaries)
        frozen = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
        a = isolate_by_leak_fit(pipes, data, frozen)
        b = isolate_by_leak_fit(pipes, data, frozen)
        assert a == b

    def test_too_few_points(self, example3):
        pipes, leak, boundaries = example3
        data = simulate_data(pipes, leak, boundaries[:2])
        with pytest.raises(TooFewPointsError):
            isolate_by_leak_fit(pipes, data, {1: 0.3, 2: 0.3, 3: 0.3})
