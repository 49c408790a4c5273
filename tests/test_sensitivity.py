import pytest

from conftest import simulate_data

from leakscope import (
    DataPoint,
    FixedDemand,
    LeakSpec,
    Linear,
    PipeSet,
    QuadraticPlusLinear,
    SignedQuadratic,
    UnboundedDerivativeError,
    candidate_position,
    confusion_flow_curve,
    detect_inherent_ambiguity,
    estimate_outflow,
    measure,
    residual_differential,
    section_resistances,
    solve_leaky_state,
    zero_dh_sensitivity,
)


class TestSectionResistances:
    def test_linear_split(self):
        pipes = PipeSet((Linear(0.1), Linear(0.25)))
        d = DataPoint(3.0, 1.0, 30.0, 25.0)
        sec = section_resistances(pipes, 2, 0.3, d)
        assert sec.R_in == pytest.approx(0.3 * 0.25)
        assert sec.R_out == pytest.approx(0.7 * 0.25)
        assert sec.R_in + sec.R_out == pytest.approx(sec.R_0)

    def test_example2_finite_difference(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        sec = section_resistances(pipes, 1, 0.65, d)
        G = pipes.admittance_excluding(1, d.dh)
        U = pipes.pipe(1)
        eps = 1e-6
        for got, q, frac in (
            (sec.R_in, d.q_in - G, 0.65),
            (sec.R_out, d.q_out - G, 0.35),
        ):
            fd = (U.evaluate(q + eps) - U.evaluate(q - eps)) / (2 * eps)
            assert got == pytest.approx(frac * fd, rel=1e-6)

    def test_zero_dh_proportional_ratios_match(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        leak = LeakSpec(1, 0.4, FixedDemand(3.0))
        state = solve_leaky_state(pipes, leak, 2.0, 2.0)
        d = measure(state, pipes, leak)
        sec1 = section_resistances(pipes, 1, 0.4, d)
        sec2 = section_resistances(pipes, 2, 0.4, d)
        assert sec1.ratio == pytest.approx(sec2.ratio, rel=1e-12)


def _rbar_of(pipes, i, x_i, k, x):
    def f(dh, q_in):
        return estimate_outflow(pipes, k, x, dh, q_in) - estimate_outflow(
            pipes, i, x_i, dh, q_in
        )

    return f


class TestResidualDifferential:
    def test_matches_finite_difference(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        for i in (2, 3):
            x_i = candidate_position(pipes, i, d)
            rd = residual_differential(pipes, i, x_i, leak.k, leak.x, d)
            f = _rbar_of(pipes, i, x_i, leak.k, leak.x)
            eps = 1e-6
            fd_qin = (f(d.dh, d.q_in + eps) - f(d.dh, d.q_in - eps)) / (2 * eps)
            fd_dh = (f(d.dh + eps, d.q_in) - f(d.dh - eps, d.q_in)) / (2 * eps)
            assert rd.d_dqin == pytest.approx(fd_qin, rel=1e-3)
            assert rd.d_ddh == pytest.approx(fd_dh, rel=1e-3)

    def test_linear_pair_vanishes(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2), SignedQuadratic(0.05)))
        leak = LeakSpec(2, 0.3, FixedDemand(4.0))
        d = simulate_data(pipes, leak, [(3.0, 1.0)])[0]
        x_1 = candidate_position(pipes, 1, d)
        rd = residual_differential(pipes, 1, x_1, leak.k, leak.x, d)
        assert rd.d_dqin == pytest.approx(0.0, abs=1e-12)
        assert rd.d_ddh == pytest.approx(0.0, abs=1e-12)

    def test_zero_dh_proportional_qin_partial_vanishes(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        leak = LeakSpec(1, 0.4, FixedDemand(3.0))
        state = solve_leaky_state(pipes, leak, 2.0, 2.0)
        d = measure(state, pipes, leak)
        rd = residual_differential(pipes, 2, 0.4, 1, 0.4, d)
        assert rd.d_dqin == pytest.approx(0.0, abs=1e-12)


class TestConfusionFlows:
    def test_curve_zeroes_residual(self, example2):
        pipes, leak = example2
        nominal = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        grid = [4.0 + 0.05 * s for s in range(-20, 21)]
        grid = sorted(grid, key=lambda v: abs(v - 4.0))
        for i in (2, 3):
            x_i = candidate_position(pipes, i, nominal)
            curve = confusion_flow_curve(pipes, i, x_i, leak, grid, nominal.q_in)
            assert any(curve.converged)
            f = _rbar_of(pipes, i, x_i, leak.k, leak.x)
            for dh, q, ok in zip(curve.dh_grid, curve.q_in_conf, curve.converged):
                if ok:
                    assert abs(f(dh, q)) <= 1e-8

    def test_position_one_rejected(self, example2):
        pipes, leak = example2
        with pytest.raises(ValueError, match="position 1 in pipe 2 leaves no outlet"):
            confusion_flow_curve(pipes, 2, 1.0, leak, [3.0, 4.0], 6.0)

    def test_near_unity_dh_confusion_matches_actual_flow(self, example2):
        pipes, leak = example2
        nominal = simulate_data(pipes, leak, [(2.0, 1.0)])[0]
        grid = [1.0, 1.02, 0.98]
        for i in (2, 3):
            x_i = candidate_position(pipes, i, nominal)
            curve = confusion_flow_curve(pipes, i, x_i, leak, grid, nominal.q_in)
            actual = {
                dh: simulate_data(pipes, leak, [(1.0 + dh, 1.0)])[0].q_in for dh in grid
            }
            for dh, q, ok in zip(curve.dh_grid, curve.q_in_conf, curve.converged):
                if ok:
                    assert q == pytest.approx(actual[dh], abs=0.02)

    def test_tangency_matches_differential(self, example2):
        pipes, leak = example2
        nominal = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        h = 0.01
        for i in (2, 3):
            x_i = candidate_position(pipes, i, nominal)
            rd = residual_differential(pipes, i, x_i, leak.k, leak.x, nominal)
            assert rd.d_dqin != 0.0
            curve = confusion_flow_curve(
                pipes, i, x_i, leak, [4.0, 4.0 + h, 4.0 - h], nominal.q_in
            )
            assert all(curve.converged)
            slope = (curve.q_in_conf[1] - curve.q_in_conf[2]) / (2 * h)
            assert slope == pytest.approx(-rd.d_ddh / rd.d_dqin, rel=1e-2)


class TestZeroDhSensitivity:
    @staticmethod
    def _zero_dh_point(pipes, leak, h0=2.0):
        state = solve_leaky_state(pipes, leak, h0, h0)
        return measure(state, pipes, leak)

    def test_formula_matches_finite_difference(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        leak = LeakSpec(1, 0.4, FixedDemand(3.0))
        d0 = self._zero_dh_point(pipes, leak)
        z = zero_dh_sensitivity(pipes, 2, 1, 0.4, d0)

        def rbar(dh):
            st = solve_leaky_state(pipes, leak, 2.0 + dh, 2.0)
            dd = measure(st, pipes, leak)
            return dd.q_out - estimate_outflow(pipes, 2, 0.4, dd.dh, dd.q_in)

        fd = (rbar(1e-6) - rbar(-1e-6)) / 2e-6
        assert z.value == pytest.approx(fd, rel=1e-3)
        assert z.distinct_out_resistance and z.nonlinear_section

    def test_linear_pipes_zero(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2)))
        leak = LeakSpec(1, 0.5, FixedDemand(3.0))
        d0 = self._zero_dh_point(pipes, leak)
        z = zero_dh_sensitivity(pipes, 2, 1, 0.5, d0)
        assert z.value == 0.0
        assert not z.nonlinear_section

    def test_identical_pipes_zero(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(2.0)))
        leak = LeakSpec(1, 0.5, FixedDemand(3.0))
        d0 = self._zero_dh_point(pipes, leak)
        z = zero_dh_sensitivity(pipes, 2, 1, 0.5, d0)
        assert z.value == 0.0
        assert not z.distinct_out_resistance

    def test_zero_slope_law_rejected(self):
        # pure quadratic laws have no finite zero-flow resistance
        pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
        leak = LeakSpec(1, 0.4, FixedDemand(5.0))
        d0 = self._zero_dh_point(pipes, leak)
        with pytest.raises(UnboundedDerivativeError):
            zero_dh_sensitivity(pipes, 2, 1, 0.4, d0)

    def test_preconditions(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        with pytest.raises(ValueError):
            zero_dh_sensitivity(pipes, 2, 1, 0.4, DataPoint(3.0, 1.0, 5.0, 4.0))
        mixed = PipeSet((QuadraticPlusLinear(2.0), SignedQuadratic(0.1)))
        with pytest.raises(ValueError):
            zero_dh_sensitivity(mixed, 2, 1, 0.4, DataPoint(2.0, 2.0, 5.0, 0.0))


class TestInherentAmbiguity:
    def test_linear_pair_flagged(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2), SignedQuadratic(0.05)))
        assert detect_inherent_ambiguity(pipes) == [((1, 2), "linear")]

    def test_identical_pair_flagged(self):
        pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.05)))
        assert detect_inherent_ambiguity(pipes) == [((1, 2), "identical")]

    def test_example2_clean(self, example2):
        pipes, _ = example2
        assert detect_inherent_ambiguity(pipes) == []
