import csv
import hashlib
import math
import statistics
import sys
import warnings
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from conftest import simulate_data
from test_kernel import SIZES, mixed_network, short_grid

from leakscope import (
    DataPoint,
    FixedDemand,
    LeakSpec,
    Linear,
    PartialDataPoint,
    PipeSet,
    PowerLaw,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    UnboundedDerivativeError,
    all_candidates,
    apparent_leak_head,
    bundled_scenario,
    candidate_position,
    complete_data_point,
    confusion_flow_curve,
    detect_inherent_ambiguity,
    estimate_outflow,
    measure,
    residual,
    residual_bar,
    residual_differential,
    solve_leaky_state,
    zero_dh_sensitivity,
)
import leakscope
from leakscope import sensitivity
from leakscope.hydraulics import MAX_ITER, XTOL, NoRootError
from leakscope.sensitivity import MAX_EXPAND, expand_bracket, regula_falsi
from leakscope.cli import _nominal_point, main as cli_main
from leakscope.scenario import parse_scenario
from leakscope.localization import _require_outlet

EPS = sys.float_info.epsilon


def _section_resistances(pipes, i, x_i, d):
    """Pipe i's section slopes at x_i, as `residual_differential` forms them."""
    return sensitivity._sections(pipes.pipe(i), x_i, pipes.admittances_excluding(d.dh)[i - 1], d)


class TestSectionResistances:
    def test_linear_split(self):
        pipes = PipeSet((Linear(0.1), Linear(0.25)))
        d = DataPoint(3.0, 1.0, 30.0, 25.0)
        sec = _section_resistances(pipes, 2, 0.3, d)
        assert sec.R_in == pytest.approx(0.3 * 0.25)
        assert sec.R_out == pytest.approx(0.7 * 0.25)
        assert sec.R_in + sec.R_out == pytest.approx(pipes.pipe(2).derivative(0.0))

    def test_example2_finite_difference(self, example2):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        sec = _section_resistances(pipes, 1, 0.65, d)
        G = pipes.admittances_excluding(d.dh)[0]
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
            sec = _section_resistances(pipes, i, candidate_position(pipes, i, d), d)
            assert math.isfinite(sec.R_in) and sec.R_in > 0.0
            assert math.isfinite(sec.R_out) and sec.R_out > 0.0

    def test_zero_dh_proportional_ratios_match(self):
        pipes = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
        leak = LeakSpec(1, 0.4, FixedDemand(3.0))
        state = solve_leaky_state(pipes, leak, 2.0, 2.0)
        d = measure(state, pipes, leak)
        sec1 = _section_resistances(pipes, 1, 0.4, d)
        sec2 = _section_resistances(pipes, 2, 0.4, d)
        assert sec1.ratio == pytest.approx(sec2.ratio, rel=1e-12)

    @pytest.mark.parametrize("R_out", [0.0, -0.0, -2.0])
    def test_ratio_needs_a_positive_outlet_resistance(self, R_out):
        with pytest.raises(ZeroDivisionError, match="R_out must be positive"):
            sensitivity.SectionResistances(1.0, R_out).ratio


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


def _assert_curve_slopes_are_exact(pipes, leak, nominal, grid) -> tuple[int, int]:
    """At every converged point of each pipe's confusion curve through `nominal`,
    each outflow's exact q_in-slope matches a central difference of the outflow
    to 1e-6, and the mismatch's slope is residual_differential's d_dqin.
    Returns the converged points and the outflow slopes checked by differences."""
    k, x = leak.k, leak.x
    points = differenced = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # candidates outside (0,1)
        candidates = all_candidates(pipes, nominal)
    for cand in candidates:
        i, x_i = cand.j, cand.x_j
        curve = confusion_flow_curve(pipes, i, x_i, leak, grid, nominal.q_in)
        for dh, q, ok in zip(curve.dh_grid, curve.q_in_conf, curve.converged):
            if not ok:
                continue
            points += 1
            G = pipes.admittances_excluding(dh)
            h = 1e-6 * max(1.0, abs(q))
            slopes = []
            for j, x_j in ((k, x), (i, x_i)):
                out, slope = pipes.pipe(j).outflow_map(x_j)(G[j - 1], dh, q)
                a, b = q - G[j - 1], out - G[j - 1]
                slopes.append((out, slope))
                # the laws are smooth away from zero flow: difference only where the
                # stencil moves each section flow by under 0.1 % of itself
                if h <= 1e-3 * abs(a) and abs(slope) * h <= 1e-3 * abs(b):
                    fd = (
                        estimate_outflow(pipes, j, x_j, dh, q + h)
                        - estimate_outflow(pipes, j, x_j, dh, q - h)
                    ) / (2.0 * h)
                    assert slope == pytest.approx(fd, rel=1e-6), (i, j, dh, q)
                    differenced += 1
            (out_k, slope_k), (out_i, slope_i) = slopes
            if 0.0 in (q - G[k - 1], q - G[i - 1], out_k - G[k - 1], out_k - G[i - 1]):
                continue  # a zero section flow: no finite section resistance
            rd = residual_differential(pipes, i, x_i, k, x, DataPoint(dh, 0.0, q, out_k))
            # d_dqin takes each R_out at the section flow b = out_k - G_j, which
            # carries the rounding of out_k -+ G_j and, for pipe i, the mismatch;
            # moving b by db moves U_j'(b) by at most |db/b| relative for these laws
            tol = 1e-12 * (abs(slope_k) + abs(slope_i))
            for slope, out, G_j in ((slope_k, out_k, G[k - 1]), (slope_i, out_i, G[i - 1])):
                db = abs(out_k - out) + sys.float_info.epsilon * abs(out_k)
                tol += 2.0 * abs(slope) * db / abs(out_k - G_j)
            assert abs(slope_k - slope_i - rd.d_dqin) <= tol, (i, dh, q)
    return points, differenced


class TestConfusionCurveSlope:
    """The curve solver's exact slope against central differences and the
    first-order layer."""

    @pytest.mark.parametrize("n", SIZES)
    def test_mixed_networks(self, n):
        pipes, leak, data = mixed_network(n)
        points, differenced = _assert_curve_slopes_are_exact(
            pipes, leak, data[0], short_grid(data[0])
        )
        # a few curves pass next to a zero section flow, where differences fail
        assert points > 0 and differenced >= 1.9 * points

    def test_example2_cli_grid(self, example2):
        pipes, leak = example2
        nominal = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        grid = [3.0 + 0.05 * s for s in range(41)]
        for part in (grid[20:], grid[:20][::-1]):
            points, differenced = _assert_curve_slopes_are_exact(pipes, leak, nominal, part)
            assert points > 0 and differenced == 2 * points

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.builds(PowerLaw, st.floats(0.05, 3.0), st.sampled_from([0.5, 1.0, 1.85, 2.0])),
                st.builds(QuadraticPlusLinear, st.floats(0.05, 3.0)),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(0.1, 0.9),
        st.floats(0.5, 6.0),
        st.data(),
    )
    def test_drawn_networks(self, laws, x, dh, data):
        pipes = PipeSet(tuple(laws))
        leak = LeakSpec(data.draw(st.integers(1, pipes.n), label="k"), x, SqrtLeak())
        nominal = simulate_data(pipes, leak, [(1.0 + dh, 1.0)])[0]
        _assert_curve_slopes_are_exact(pipes, leak, nominal, short_grid(nominal))


def test_confusion_curve_evaluation_counts(tmp_path, monkeypatch):
    # mismatch evaluations per point of example2's CLI curves, two outflows each:
    # a curve builds its two outflow maps once, so the calls of those maps count
    calls, builds, fallbacks, points, bracket_solves, returned = [0], [0], [0], [], [], []
    solve, expand = sensitivity._solve_point, sensitivity.expand_bracket
    narrow = sensitivity.regula_falsi

    def counted_builder(outflow_map):
        def counted_outflow_map(law, x_j):
            builds[0] += 1
            outflow = outflow_map(law, x_j)

            def counted_map(*map_args):
                calls[0] += 1
                return outflow(*map_args)

            return counted_map

        return counted_outflow_map

    def counted_expand(*args, **kwargs):
        fallbacks[0] += 1
        return expand(*args, **kwargs)

    def counted_narrow(*args):
        before = calls[0]
        result = narrow(*args)
        bracket_solves.append((len(points), (calls[0] - before) / 2, calls[0]))
        return result

    def counted_solve(outflow_k, outflow_i, G_k, G_i, dh, seed):
        before = calls[0], fallbacks[0]
        result = solve(outflow_k, outflow_i, G_k, G_i, dh, seed)
        points.append(((calls[0] - before[0]) / 2, fallbacks[0] > before[1]))
        returned.append(calls[0])
        return result

    for law in (PowerLaw, QuadraticPlusLinear):
        monkeypatch.setattr(law, "outflow_map", counted_builder(law.outflow_map))
    monkeypatch.setattr(sensitivity, "expand_bracket", counted_expand)
    monkeypatch.setattr(sensitivity, "regula_falsi", counted_narrow)
    monkeypatch.setattr(sensitivity, "_solve_point", counted_solve)
    scenario = str(bundled_scenario("example2"))
    assert cli_main(["confusion", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert len(points) == 3 * 41
    # each of the 3 curves is continued in two halves from the nominal point, and
    # each half builds its two maps, the truth's and pipe i's, once: none per point
    assert builds[0] == 2 * 3 * 2
    # every point evaluates the mismatch at least once; counting map builds,
    # two per curve, would fail here
    assert calls[0] >= 2 * len(points)
    assert statistics.median(e for e, _ in points) <= 5
    newton = [e for e, fell_back in points if not fell_back]
    assert sum(newton) / len(newton) <= 4.5
    # only pipe 2's last point below the nominal head loss, dh 3.0, falls back;
    # test_cli's strict xfail pins where it lands
    assert [n for n, (_, fell_back) in enumerate(points) if fell_back] == [60]
    # its bracket solve, 27 wide: Illinois false position takes 8 mismatch evaluations
    # there, where bisection would take 48
    [(index, evaluations, calls_after)] = bracket_solves
    assert index == 60 and evaluations <= 12
    # the bracket solve returns the mismatch at its root with the root, so the
    # point makes no map call after it
    assert returned[index] == calls_after


def test_a_point_without_a_sign_change_keeps_the_newton_q(monkeypatch):
    # two maps of constant sign and zero slope: Newton stops at once, and the bracket
    # search around the seed finds no sign change, so the seed stands, unconverged
    expansions, expand = [], sensitivity.expand_bracket

    def counted_expand(f, lo, hi):
        expansions.append((lo, hi))
        return expand(f, lo, hi)

    monkeypatch.setattr(sensitivity, "expand_bracket", counted_expand)
    q, res, ok = sensitivity._solve_point(
        lambda G, dh, q: (2.5, 0.0), lambda G, dh, q: (1.0, 0.0), 0.0, 0.0, 3.0, -4.0
    )
    assert (q, res, ok) == (-4.0, 1.5, False)
    assert expansions == [(-8.0, 0.0)]


# -- the bracketed fallback: expand_bracket and regula_falsi ---------------------


def no_call(q):
    raise AssertionError(f"f evaluated at {q}")


def test_root_at_an_end_is_returned_exactly():
    assert regula_falsi(no_call, -0.3, 2.0, 0.0, 5.0) == (-0.3, 0.0)
    assert regula_falsi(no_call, -0.3, 2.0, -5.0, 0.0) == (2.0, 0.0)
    assert regula_falsi(no_call, -0.3, 2.0, 0.0, 0.0) == (-0.3, 0.0)


@pytest.mark.parametrize("fa,fb", [(1.0, 2.0), (-1.0, -2.0), (5e-324, 1.0)])
def test_same_sign_bracket_raises(fa, fb):
    with pytest.raises(NoRootError):
        regula_falsi(no_call, 0.0, 1.0, fa, fb)


def test_one_no_root_error():
    assert leakscope.NoRootError is leakscope.hydraulics.NoRootError is NoRootError
    assert sensitivity.NoRootError is NoRootError
    assert issubclass(NoRootError, ValueError)
    with pytest.raises(NoRootError, match="no sign change"):
        expand_bracket(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_expand_bracket_takes_a_sign_change_on_its_last_expansion():
    # after k doublings the bracket [-1, 1] is [1 - 2**(k + 1), 2**(k + 1) - 1]
    edge = 2.0 ** MAX_EXPAND

    def f(x):
        return 1.0 if x < edge else -1.0

    assert expand_bracket(f, -1.0, 1.0) == (1.0 - 2 * edge, 2 * edge - 1.0, 1.0, -1.0)
    with pytest.raises(NoRootError, match="no sign change"):
        expand_bracket(lambda x: f(0.5 * x), -1.0, 1.0)


class Polynomial:
    """f(t) = scale (t - r_1) ... (t - r_m): each factor keeps the sign of its exact
    difference, and the product does while it neither overflows nor underflows, so f
    changes sign exactly at the roots of odd multiplicity."""

    def __init__(self, scale, roots):
        self.scale, self.roots = scale, roots

    def __call__(self, t):
        value = self.scale
        for r in self.roots:
            value *= t - r
        return value

    def sign_changes(self):
        return [r for r in self.roots if self.roots.count(r) % 2]

    def __repr__(self):
        return f"Polynomial({self.scale!r}, {self.roots!r})"


@st.composite
def bracketed_polynomials(draw):
    """A polynomial with 1 or 3 roots, some of them clustered or repeated, and a
    bracket [a, b] that holds them all."""
    centre = draw(st.floats(-1e3, 1e3) | st.floats(-1e-3, 1e-3))
    spread = st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 1.0, 1e3])
    roots = [centre + draw(spread) * draw(st.floats(-1.0, 1.0))
             for _ in range(draw(st.sampled_from([1, 3])))]
    scale = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    pads = st.floats(1e-12, 1e3) | st.sampled_from([1e-12, 1e-6, 1.0])
    return Polynomial(scale, roots), min(roots) - draw(pads), max(roots) + draw(pads)


@settings(max_examples=500, deadline=None)
@given(problem=bracketed_polynomials())
# a triple root at 0 under a wide bracket, where false position rounds onto an end
@example(problem=(Polynomial(-0.0077, [7.4e-118, 7.2e-265, 4.8e-290]), -615.0, 2.06e-11))
# a double root beside the simple one, where false position crawls along the flat side
@example(problem=(Polynomial(-0.53, [-5.008782500689139, -5.008038639460219,
                                     -5.008038639460219]), -374.5, -4.69))
# a triple root under a bracket so wide that 4 steps a halving overrun MAX_ITER
@example(problem=(Polynomial(-1.0, [1e-12, 1e-12, 1e-12]), 0.0, 365.000000000001))
# f(0) is the least subnormal, which halving once rounded to -0.0 and so to the other side
@example(problem=(Polynomial(2.0, [-1e-12, 0.0625, -2.225073858507e-311]), -1.000000000001, 1.0625))
def test_regula_falsi_lands_on_a_sign_change(problem):
    f, a, b = problem
    fa, fb = f(a), f(b)
    assume(fa and fb)
    calls = []
    c, fc = regula_falsi(lambda t: calls.append(t) or f(t), a, b, fa, fb)
    # the mismatch it returns is f at the root it returns, bit for bit
    assert fc.hex() == f(c).hex()
    delta = XTOL + 4 * EPS * abs(c)
    assert not f(c) or any(abs(c - r) <= delta for r in f.sign_changes())
    # a step bisects where the three before it left the bracket over half as wide, so
    # the bracket halves at least every 4 steps, and every step bisects once half of
    # MAX_ITER is spent, until the bracket is XTOL wide
    halvings = math.ceil(math.log2((b - a) / XTOL))
    assert len(calls) <= min(4 * halvings, MAX_ITER // 2 + halvings)


def test_regula_falsi_bisects_where_false_position_lands_on_an_end():
    # fb is so small beside fa that the false-position point rounds to b itself,
    # whose value is known: the step bisects instead of evaluating b again
    calls = []

    def f(t):
        calls.append(t)
        return 1e-300 if t >= 1.0 else -1e300

    c, _ = regula_falsi(f, 0.0, 1.0, -1e300, 1e-300)
    assert abs(c - 1.0) <= XTOL + 4 * EPS
    assert calls[0] == 0.5


def test_regula_falsi_out_of_steps_returns_a_point_of_the_bracket(monkeypatch):
    monkeypatch.setattr(sensitivity, "MAX_ITER", 3)
    calls = []

    def f(t):
        calls.append(t)
        return math.atan(t - 0.3)

    c, fc = regula_falsi(f, -1e6, 2.0, f(-1e6), f(2.0))
    assert len(calls) == 2 + 3
    assert -1e6 <= c <= 2.0 and c == calls[-1]
    assert fc == f(c) != 0.0


LAWS = st.one_of(
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.floats(0.1, 3.0)),
    st.builds(PowerLaw, st.floats(1e-3, 1e3), st.sampled_from([0.5, 1.0, 1.85, 2.0])),
    st.builds(QuadraticPlusLinear, st.floats(1e-3, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(law=LAWS, flow=st.floats(-1e6, 1e6) | st.floats(-1e-9, 1e-9))
def test_root_within_tolerance(law, flow):
    target = law.evaluate(flow)
    root = law.invert(target)

    def f(q):
        return law.evaluate(q) - target

    x, fx = regula_falsi(f, *expand_bracket(f, -1.0, 1.0))
    assert fx == f(x)
    # f changes sign within XTOL + 4 eps |x| of the result
    delta = XTOL + 4 * EPS * abs(x)
    assert f(x - delta) <= 0.0 <= f(x + delta)
    # invert and evaluate each round, which moves the sign change of f off
    # invert(target) by a few ulps; a power law with gamma < 1 magnifies that
    gamma = getattr(law, "gamma", 1.0)
    assert abs(x - root) <= delta + 32 * EPS * abs(root) / min(gamma, 1.0)



def _closure_solve_point(fdf, seed):
    """`sensitivity._solve_point` written on a closure fdf(q) = (f, f'), for `closure_curve`."""
    q = seed
    fq, slope = fdf(q)
    for _ in range(sensitivity.CURVE_MAX_ITER):
        if abs(fq) <= sensitivity.CURVE_TOL or not 0.0 < abs(slope) < math.inf:
            break
        delta = -fq / slope
        for _ in range(50):
            q_new = q + delta
            f_new, s_new = fdf(q_new)
            if abs(f_new) < abs(fq):
                q, fq, slope = q_new, f_new, s_new
                break
            delta *= 0.5
        else:
            break
    if abs(fq) > sensitivity.CURVE_TOL:

        def f(t):
            return fdf(t)[0]

        width = max(1.0, abs(seed))
        try:
            q, fq = sensitivity.regula_falsi(
                f, *sensitivity.expand_bracket(f, seed - width, seed + width)
            )
        except sensitivity.NoRootError:
            pass
    return q, fq, abs(fq) <= sensitivity.CURVE_TOL


def closure_curve(pipes, i, x_i, truth, dh_grid, seed_qin):
    """`confusion_flow_curve` with a closure built at every grid point: the reference
    whose points, flags and residuals the curve must match to the bit."""
    k, x = truth.k, truth.x
    _require_outlet(i, x_i)
    outflow_k, outflow_i = pipes.pipe(k).outflow_map(x), pipes.pipe(i).outflow_map(x_i)
    q_vals, residuals, flags, seed = [], [], [], seed_qin
    for dh in dh_grid:
        G = pipes.admittances_excluding(dh)

        def fdf(q, dh=dh, G_k=G[k - 1], G_i=G[i - 1]):
            out_k, slope_k = outflow_k(G_k, dh, q)
            out_i, slope_i = outflow_i(G_i, dh, q)
            return out_k - out_i, slope_k - slope_i

        q, res, ok = _closure_solve_point(fdf, seed)
        q_vals.append(q)
        residuals.append(abs(res))
        flags.append(ok)
        if ok:
            seed = q
    return sensitivity.ConfusionFlowCurve(
        i, tuple(dh_grid), tuple(q_vals), tuple(residuals), tuple(flags)
    )


def curve_bits(curve_of, *args):
    """Every point of a curve as float.hex, with its flag, or what building it raises."""
    try:
        curve = curve_of(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return [
        (dh.hex(), q.hex(), res.hex(), ok)
        for dh, q, res, ok in zip(
            curve.dh_grid, curve.q_in_conf, curve.residual_trace, curve.converged
        )
    ]


@st.composite
def mixed_curves(draw):
    """A confusion curve's arguments on a mixed-law network through one of its states."""
    pipes, leak, data = mixed_network(draw(st.integers(1, 6)), draw(st.integers(0, 10**6)))
    nominal = draw(st.sampled_from(data))
    i = draw(st.integers(1, pipes.n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # candidates outside (0,1)
        x_i = candidate_position(pipes, i, nominal)
    scales = draw(st.lists(st.floats(0.3, 2.0), min_size=1, max_size=12))
    return pipes, i, x_i, leak, [nominal.dh * s for s in scales], nominal.q_in


def _example2_across_the_fold():
    # pipe 2 from dh 3.95 down to 2.5: at 3.0 its curve folds and the fallback
    # takes it to the other branch, q_in -7.784
    pipes = PipeSet(
        (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
    )
    leak = LeakSpec(1, 0.65, SqrtLeak())
    nominal = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
    grid = [3.0 + 0.05 * s for s in range(19, -11, -1)]
    return pipes, 2, candidate_position(pipes, 2, nominal), leak, grid, nominal.q_in


@settings(max_examples=100, deadline=None)
@given(mixed_curves())
@example(_example2_across_the_fold())
def test_curve_keeps_the_closure_loops_points(args):
    assert curve_bits(confusion_flow_curve, *args) == curve_bits(closure_curve, *args)


# example2's confusion and residual-sweep CSVs, pinned to the bit: the sha256
# of the float.hex of every q_in_conf and residual cell of confusion.csv, then
# of every rbar_j cell of residual_sweep.csv, in file order and one per line.
# test_golden.py allows 1e-12 and would miss a moved bit.
EXAMPLE2_BITS = "24038121d4ccd99aba5979499862f300326b8d2cce02109fc7c74b3755307176"
# pipe 2's point at dh 3.0, where the bracketed fallback's false position lands
# (q_in -7.784, 4.2e-14 from the 50-digit root), and at the nominal dh 4.0:
# (q_in_conf, residual)
EXAMPLE2_PIPE2_POINTS = {
    "3": ("-0x1.f22c5ef38bce0p+2", "0x1.0000000000000p-49"),
    "4": ("0x1.2e6dad51f3ee0p+1", "0x1.8000000000000p-51"),
}


def test_example2_curves_and_sweep_keep_their_bits(tmp_path):
    scenario = str(bundled_scenario("example2"))
    for command in ("confusion", "residual-sweep"):
        assert cli_main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "confusion.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    with open(tmp_path / "residual_sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert (len(curve), len(sweep)) == (3 * 41, 41)
    cells = [float(row[c]).hex() for row in curve for c in ("q_in_conf", "residual")]
    cells += [float(row[f"rbar_{j}"]).hex() for row in sweep for j in (1, 2, 3)]
    assert hashlib.sha256("\n".join(cells).encode()).hexdigest() == EXAMPLE2_BITS
    pipe2 = {
        row["dh"]: (float(row["q_in_conf"]).hex(), float(row["residual"]).hex())
        for row in curve
        if row["pipe"] == "2" and row["dh"] in EXAMPLE2_PIPE2_POINTS
    }
    assert pipe2 == EXAMPLE2_PIPE2_POINTS


def test_example2_curve_points_are_within_tolerance_of_the_oracle(tmp_path):
    # every converged point of the three CLI curves, the fallback's landing at
    # pipe 2's dh 3.0 included: that point sits on another branch, but it is a
    # root too. A point with |f| <= CURVE_TOL lies within CURVE_TOL/|f'| of a
    # root, doubled for the rounding of f and the curvature, plus 4 eps |q|
    scenario = str(bundled_scenario("example2"))
    assert cli_main(["confusion", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    sc = parse_scenario(scenario)
    _, frozen, _ = _nominal_point(sc)
    k, x = sc.leak.k, sc.leak.x
    with open(tmp_path / "confusion.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["converged"] == "true"]
    assert len(rows) == 3 * 41
    for row in rows:
        i, dh, q = int(row["pipe"]), float(row["dh"]), float(row["q_in_conf"])
        root, slope = oracle.confusion_root(sc.pipes, i, frozen[i - 1], k, x, dh, q)
        # |q - q*| <= 2 CURVE_TOL/|f'| + 4 eps |q|, multiplied through by |f'|: pipe
        # 1 is the truth at its own x, whose mismatch is 0 at every q_in
        eps, curve_tol = Decimal(sys.float_info.epsilon), Decimal(sensitivity.CURVE_TOL)
        tol = 2 * curve_tol + 4 * eps * abs(Decimal(q)) * abs(slope)
        assert abs(Decimal(q) - root) * abs(slope) <= tol, (i, dh, q, root)


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
            yield f"{name} sections {i}", _section_resistances(pipes, i, x_i, d)
            yield f"{name} differential {i}", residual_differential(
                pipes, i, x_i, leak.k, leak.x, d
            )
    pipes, leak, d0 = _zero_dh_network()
    for i, k in ((1, 2), (2, 1)):
        yield f"zero-dh sections {i}", _section_resistances(pipes, i, 0.4, d0)
        yield f"zero-dh differential {i} {k}", residual_differential(
            pipes, i, 0.4, k, 0.4, d0
        )
        yield f"zero-dh sensitivity {i} {k}", zero_dh_sensitivity(pipes, i, k, 0.4, d0)


def _bits(record):
    return tuple(v.hex() if isinstance(v, float) else v for v in record._asdict().values())


# float.hex of every field of the records above; on networks of at most three
# pipes every summation order of the other pipes rounds alike
FIRST_ORDER_BITS = {
    "example2 3.0 sections 1": ("0x1.c4712dcddd5b5p+1", "0x1.aeb126804a6f8p-1"),
    "example2 3.0 differential 1": ("0x1.0000000000000p-49", "-0x1.0000000000000p-51"),
    "example2 3.0 sections 2": ("0x1.7d2eb1e3fffbfp+2", "0x1.1e3f0c2cc6fecp+1"),
    "example2 3.0 differential 2": ("-0x1.89e72de665f36p+0", "0x1.aeb223bdb0042p-1"),
    "example2 3.0 sections 3": ("0x1.0e1ddd363c532p+3", "0x1.b875f14454496p+1"),
    "example2 3.0 differential 3": ("-0x1.bfbc1c2e7f19ep+0", "0x1.e46505e8590c4p-1"),
    "example2 5.0 sections 1": ("0x1.2966754a7d3e8p+2", "0x1.f8f93cd4cc679p-1"),
    "example2 5.0 differential 1": ("0x0.0p+0", "0x0.0p+0"),
    "example2 5.0 sections 2": ("0x1.c1d1a8eb62c4bp+2", "0x1.04088354aa0b2p+1"),
    "example2 5.0 differential 2": ("-0x1.40782b78a3044p+0", "0x1.0d447da4025acp-1"),
    "example2 5.0 sections 3": ("0x1.3159f7c874995p+3", "0x1.d0e4902903288p+1"),
    "example2 5.0 differential 3": ("-0x1.0ac8ca0cfc378p+1", "0x1.ba76af48d4470p-1"),
    "example2 6.5 sections 1": ("0x1.54f55b3211ffap+2", "0x1.3b58c15eaa5fep+0"),
    "example2 6.5 differential 1": ("-0x1.0000000000000p-49", "0x1.8000000000000p-51"),
    "example2 6.5 sections 2": ("0x1.f621ca64dfe30p+2", "0x1.c5f0d1682b890p+0"),
    "example2 6.5 differential 2": ("0x1.98b090f585180p-4", "-0x1.52c78d3a34d40p-6"),
    "example2 6.5 sections 3": ("0x1.4ac9af28002e9p+3", "0x1.c6afc2d2e754cp+1"),
    "example2 6.5 differential 3": ("-0x1.6a3307de940d0p+0", "0x1.07edf84deb9cep-1"),
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
    "zero-dh sections 1": ("0x1.c05dedf9de398p+1", "0x1.161ff3eaffbb4p+2"),
    "zero-dh differential 1 2": ("0x0.0p+0", "0x1.5888358a0707cp-2"),
    "zero-dh sensitivity 1 2": ("0x1.5888358a0707ep-2", True, True),
    "zero-dh sections 2": ("0x1.c05dedf9de398p+2", "0x1.161ff3eaffbb4p+3"),
    "zero-dh differential 2 1": ("0x0.0p+0", "-0x1.5888358a0707cp-2"),
    "zero-dh sensitivity 2 1": ("-0x1.5888358a0707ep-2", True, True),
}


def test_first_order_values_are_pinned_bitwise():
    got = {label: _bits(record) for label, record in _first_order_records()}
    assert got == FIRST_ORDER_BITS


def test_zero_dh_leak_head_is_within_tolerance_of_the_oracle():
    # the zero-dh pins above follow from this leak head, which the forward
    # solve must place within its tolerance of the 50-digit root
    pipes, leak, _ = _zero_dh_network()
    h = solve_leaky_state(pipes, leak, 2.0, 2.0).h_leak
    exact = oracle.forward_leak_head(pipes, leak, 2.0, 2.0)
    assert abs(Decimal(h) - exact) <= 1e-13 + 4 * sys.float_info.epsilon * abs(h)


@pytest.mark.parametrize("bad", [0, 3])
def test_hypothesis_indices_are_range_checked(bad):
    pipes, leak, d0 = _zero_dh_network()
    # the single-point calls index the all-but-one row at bad - 1, which must come after
    # the check: entry -1 of the row would be read silently, and entry 2 raise its own error
    no_q_out = PartialDataPoint(h_in=d0.h_in, h_out=d0.h_out, q_in=d0.q_in)
    no_h_in = PartialDataPoint(h_out=d0.h_out, q_in=d0.q_in, q_out=d0.q_out)
    for call in (
        lambda: residual_differential(pipes, bad, 0.4, 1, 0.4, d0),
        lambda: residual_differential(pipes, 2, 0.4, bad, 0.4, d0),
        lambda: zero_dh_sensitivity(pipes, bad, 1, 0.4, d0),
        lambda: zero_dh_sensitivity(pipes, 2, bad, 0.4, d0),
        lambda: residual(pipes, bad, 0.4, d0),
        lambda: candidate_position(pipes, bad, d0),
        lambda: estimate_outflow(pipes, bad, 0.4, d0.dh, d0.q_in),
        lambda: residual_bar(pipes, bad, 0.4, d0),
        lambda: complete_data_point(pipes, bad, 0.4, no_q_out),
        lambda: complete_data_point(pipes, bad, 0.4, no_h_in),
        lambda: apparent_leak_head(pipes, bad, 0.4, d0),
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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            # a short list, so that pipes repeat a law, spelled either way
            st.sampled_from([
                Linear(0.1), Linear(0.2), PowerLaw(0.1, 1.0), SignedQuadratic(0.1),
                PowerLaw(0.1, 2.0), PowerLaw(0.1, 1.85), QuadraticPlusLinear(1.0),
                QuadraticPlusLinear(2.0),
            ]),
            st.builds(Linear, st.floats(0.01, 1.0)),
            st.builds(QuadraticPlusLinear, st.floats(0.01, 1.0)),
        ),
        min_size=1, max_size=40,
    ))
    def test_matches_the_pairwise_loop(self, laws):
        pipes = PipeSet(laws)
        linear = Linear(1.0).shape_key()
        pairwise = []
        for a in range(1, pipes.n + 1):
            for b in range(a + 1, pipes.n + 1):
                pa, pb = pipes.pipe(a), pipes.pipe(b)
                if pa == pb:
                    pairwise.append(((a, b), "identical"))
                elif pa.shape_key() == pb.shape_key() == linear:
                    pairwise.append(((a, b), "linear"))
        assert detect_inherent_ambiguity(pipes) == pairwise
