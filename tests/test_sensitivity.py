import math

import pytest

from conftest import simulate_data

from leakscope import (
    DataPoint,
    FixedDemand,
    LeakSpec,
    Linear,
    PipeSet,
    PowerLaw,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
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
        assert sec.R_in + sec.R_out == pytest.approx(pipes.pipe(2).derivative(0.0))

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

    def test_sublinear_laws_give_finite_slopes(self):
        # gamma < 1 has no finite slope at zero flow, which the sections never need
        pipes, leak = _sublinear_network()
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        for i in (1, 2, 3):
            sec = section_resistances(pipes, i, candidate_position(pipes, i, d), d)
            assert math.isfinite(sec.R_in) and sec.R_in > 0.0
            assert math.isfinite(sec.R_out) and sec.R_out > 0.0

    def test_zero_dh_proportional_ratios_match(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        leak = LeakSpec(1, 0.4, FixedDemand(3.0))
        state = solve_leaky_state(pipes, leak, 2.0, 2.0)
        d = measure(state, pipes, leak)
        sec1 = section_resistances(pipes, 1, 0.4, d)
        sec2 = section_resistances(pipes, 2, 0.4, d)
        assert sec1.ratio == pytest.approx(sec2.ratio, rel=1e-12)


def _sublinear_network():
    pipes = PipeSet((PowerLaw(0.5, 0.8), SignedQuadratic(0.1), PowerLaw(0.3, 0.6)))
    return pipes, LeakSpec(1, 0.4, SqrtLeak())


def _rbar_of(pipes, i, x_i, k, x):
    def f(dh, q_in):
        return estimate_outflow(pipes, k, x, dh, q_in) - estimate_outflow(
            pipes, i, x_i, dh, q_in
        )

    return f


def _assert_differential_matches_finite_difference(pipes, leak, h_in, h_out):
    d = simulate_data(pipes, leak, [(h_in, h_out)])[0]
    for i in (2, 3):
        x_i = candidate_position(pipes, i, d)
        rd = residual_differential(pipes, i, x_i, leak.k, leak.x, d)
        f = _rbar_of(pipes, i, x_i, leak.k, leak.x)
        eps = 1e-6
        fd_qin = (f(d.dh, d.q_in + eps) - f(d.dh, d.q_in - eps)) / (2 * eps)
        fd_dh = (f(d.dh + eps, d.q_in) - f(d.dh - eps, d.q_in)) / (2 * eps)
        assert rd.d_dqin == pytest.approx(fd_qin, rel=1e-3)
        assert rd.d_ddh == pytest.approx(fd_dh, rel=1e-3)


class TestResidualDifferential:
    def test_matches_finite_difference(self, example2):
        _assert_differential_matches_finite_difference(*example2, 5.0, 1.0)

    @pytest.mark.parametrize("h_in, h_out", [(3.0, 1.0), (5.0, 1.0), (8.0, 1.0),
                                             (1.0, 3.0), (1.0, 5.0), (1.0, 8.0)])
    def test_sublinear_laws_match_finite_difference(self, h_in, h_out):
        # the leak is in pipe 1; the flow reverses when h_out exceeds h_in
        _assert_differential_matches_finite_difference(*_sublinear_network(), h_in, h_out)

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

    def test_sublinear_law_rejected(self):
        # a power law with gamma < 1 has no finite slope at zero flow
        pipes = PipeSet((PowerLaw(0.5, 0.8), PowerLaw(1.0, 0.8)))
        leak = LeakSpec(1, 0.4, FixedDemand(3.0))
        d0 = self._zero_dh_point(pipes, leak)
        with pytest.raises(
            UnboundedDerivativeError,
            match=r"^power law with gamma=0\.8 < 1 has unbounded slope at q=0$",
        ):
            zero_dh_sensitivity(pipes, 2, 1, 0.4, d0)

    def test_nan_head_loss_rejected(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        with pytest.raises(ValueError, match=r"^requires a zero-head-loss data point, got dh=nan$"):
            zero_dh_sensitivity(pipes, 2, 1, 0.4, DataPoint(math.nan, 2.0, 3.0, 0.0))

    def test_preconditions(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        with pytest.raises(ValueError):
            zero_dh_sensitivity(pipes, 2, 1, 0.4, DataPoint(3.0, 1.0, 5.0, 4.0))
        mixed = PipeSet((QuadraticPlusLinear(2.0), SignedQuadratic(0.1)))
        with pytest.raises(ValueError):
            zero_dh_sensitivity(mixed, 2, 1, 0.4, DataPoint(2.0, 2.0, 5.0, 0.0))


def _zero_dh_network():
    """The proportional two-pipe network of acceptance criterion 5."""
    pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
    leak = LeakSpec(1, 0.4, FixedDemand(3.0))
    return pipes, leak, measure(solve_leaky_state(pipes, leak, 2.0, 2.0), pipes, leak)


def _first_order_records():
    """(label, record) for every first-order quantity on example2, the
    criterion-5 zero-head-loss network and the sublinear network."""
    example2 = PipeSet(
        (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
    )
    cases = [
        (f"example2 {h_in}", example2, LeakSpec(1, 0.65, SqrtLeak()), h_in, 1.0)
        for h_in in (3.0, 5.0, 6.5)
    ]
    cases += [
        (f"sublinear {h_in}-{h_out}", *_sublinear_network(), h_in, h_out)
        for h_in, h_out in ((5.0, 1.0), (1.0, 5.0))
    ]
    for name, pipes, leak, h_in, h_out in cases:
        d = simulate_data(pipes, leak, [(h_in, h_out)])[0]
        for i in range(1, pipes.n + 1):
            x_i = candidate_position(pipes, i, d)
            yield f"{name} sections {i}", section_resistances(pipes, i, x_i, d)
            yield f"{name} differential {i}", residual_differential(
                pipes, i, x_i, leak.k, leak.x, d
            )
    pipes, leak, d0 = _zero_dh_network()
    for i, k in ((1, 2), (2, 1)):
        yield f"zero-dh sections {i}", section_resistances(pipes, i, 0.4, d0)
        yield f"zero-dh differential {i} {k}", residual_differential(
            pipes, i, 0.4, k, 0.4, d0
        )
        yield f"zero-dh sensitivity {i} {k}", zero_dh_sensitivity(pipes, i, k, 0.4, d0)


def _bits(record):
    return tuple(v.hex() if isinstance(v, float) else v for v in record._asdict().values())


# float.hex of every field of the records above; on networks of at most three
# pipes every summation order of the other pipes rounds alike
FIRST_ORDER_BITS = {
    "example2 3.0 sections 1": ("0x1.c4712dcddd5b7p+1", "0x1.aeb126804a6f7p-1"),
    "example2 3.0 differential 1": ("0x1.4000000000000p-48", "-0x1.0000000000000p-49"),
    "example2 3.0 sections 2": ("0x1.7d2eb1e3fffbfp+2", "0x1.1e3f0c2cc6fecp+1"),
    "example2 3.0 differential 2": ("-0x1.89e72de665f2ep+0", "0x1.aeb223bdb003ap-1"),
    "example2 3.0 sections 3": ("0x1.0e1ddd363c532p+3", "0x1.b875f14454497p+1"),
    "example2 3.0 differential 3": ("-0x1.bfbc1c2e7f198p+0", "0x1.e46505e8590bep-1"),
    "example2 5.0 sections 1": ("0x1.2966754a7d3f3p+2", "0x1.f8f93cd4cc593p-1"),
    "example2 5.0 differential 1": ("-0x1.0000000000000p-49", "0x1.0000000000000p-51"),
    "example2 5.0 sections 2": ("0x1.c1d1a8eb62c71p+2", "0x1.04088354aa11fp+1"),
    "example2 5.0 differential 2": ("-0x1.40782b78a33c4p+0", "0x1.0d447da402888p-1"),
    "example2 5.0 sections 3": ("0x1.3159f7c8749bcp+3", "0x1.d0e4902903302p+1"),
    "example2 5.0 differential 3": ("-0x1.0ac8ca0cfc4d1p+1", "0x1.ba76af48d46a4p-1"),
    "example2 6.5 sections 1": ("0x1.54f55b3211ff8p+2", "0x1.3b58c15eaa604p+0"),
    "example2 6.5 differential 1": ("0x0.0p+0", "0x0.0p+0"),
    "example2 6.5 sections 2": ("0x1.f621ca64dfe2fp+2", "0x1.c5f0d1682b87bp+0"),
    "example2 6.5 differential 2": ("0x1.98b090f585700p-4", "-0x1.52c78d3a35500p-6"),
    "example2 6.5 sections 3": ("0x1.4ac9af28002e8p+3", "0x1.c6afc2d2e753ep+1"),
    "example2 6.5 differential 3": ("-0x1.6a3307de94098p+0", "0x1.07edf84deb9a4p-1"),
    "sublinear 5.0-1.0 sections 1": ("0x1.7fa0b0e6a00c6p-4", "0x1.277e81db255bbp-3"),
    "sublinear 5.0-1.0 differential 1": ("0x1.8000000000000p-52", "-0x1.0000000000000p-46"),
    "sublinear 5.0-1.0 sections 2": ("0x1.14203de5b1316p-1", "0x1.6d4e001a4266cp-1"),
    "sublinear 5.0-1.0 differential 2": ("0x1.b53edd24b41b0p-4", "-0x1.f13013afdeaf0p+1"),
    "sublinear 5.0-1.0 sections 3": ("0x1.9f067811e4a63p-7", "0x1.3cfcbf842b331p-6"),
    "sublinear 5.0-1.0 differential 3": ("0x1.692e1a526fc00p-8", "-0x1.9c155dbcaab00p-3"),
    "sublinear 1.0-5.0 sections 1": ("0x1.8b6711894bfb6p-4", "0x1.219037193e62ep-3"),
    "sublinear 1.0-5.0 differential 1": ("0x1.2000000000000p-47", "-0x1.4000000000000p-42"),
    "sublinear 1.0-5.0 sections 2": ("0x1.ddc5f3dd89813p-2", "0x1.93bd35c39f3d3p-1"),
    "sublinear 1.0-5.0 differential 2": ("-0x1.7506ea51176d8p-4", "0x1.a4cfe954e4900p+1"),
    "sublinear 1.0-5.0 sections 3": ("0x1.a7a9154cdbe84p-7", "0x1.38aa93e1a2b2dp-6"),
    "sublinear 1.0-5.0 differential 3": ("-0x1.58c05d324e800p-8", "0x1.83c08cf941400p-3"),
    "zero-dh sections 1": ("0x1.c05dedf9de390p+1", "0x1.161ff3eaffbafp+2"),
    "zero-dh differential 1 2": ("0x0.0p+0", "0x1.5888358a0707cp-2"),
    "zero-dh sensitivity 1 2": ("0x1.5888358a0707bp-2", True, True),
    "zero-dh sections 2": ("0x1.c05dedf9de390p+2", "0x1.161ff3eaffbafp+3"),
    "zero-dh differential 2 1": ("0x0.0p+0", "-0x1.5888358a0707cp-2"),
    "zero-dh sensitivity 2 1": ("-0x1.5888358a0707bp-2", True, True),
}


def test_first_order_values_are_pinned_bitwise():
    got = {label: _bits(record) for label, record in _first_order_records()}
    assert got == FIRST_ORDER_BITS


@pytest.mark.parametrize("bad", [0, 3])
def test_hypothesis_indices_are_range_checked(bad):
    pipes, leak, d0 = _zero_dh_network()
    for call in (
        lambda: residual_differential(pipes, bad, 0.4, 1, 0.4, d0),
        lambda: residual_differential(pipes, 2, 0.4, bad, 0.4, d0),
        lambda: zero_dh_sensitivity(pipes, bad, 1, 0.4, d0),
        lambda: zero_dh_sensitivity(pipes, 2, bad, 0.4, d0),
    ):
        with pytest.raises(IndexError, match=rf"^pipe index {bad} out of range 1\.\.2$"):
            call()


class TestInherentAmbiguity:
    def test_linear_pair_flagged(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2), SignedQuadratic(0.05)))
        assert detect_inherent_ambiguity(pipes) == [((1, 2), "linear")]

    def test_linear_is_gamma_exactly_one(self):
        linear = PipeSet((PowerLaw(0.3, 1.0), Linear(0.2)))
        assert detect_inherent_ambiguity(linear) == [((1, 2), "linear")]
        assert detect_inherent_ambiguity(PipeSet((PowerLaw(0.3, 1.0000001), Linear(0.2)))) == []

    def test_identical_pair_flagged(self):
        pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.05)))
        assert detect_inherent_ambiguity(pipes) == [((1, 2), "identical")]

    def test_example2_clean(self, example2):
        pipes, _ = example2
        assert detect_inherent_ambiguity(pipes) == []
