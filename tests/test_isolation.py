import math
import warnings
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from conftest import simulate_data

from leakscope import (
    DataPoint,
    FixedDemand,
    IsolationVerdict,
    LeakFitResult,
    LeakSpec,
    Linear,
    NoLeakError,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    TooFewPointsError,
    all_candidates,
    apparent_leak_flow,
    apparent_leak_head,
    bundled_scenario,
    candidate_position,
    detect_inherent_ambiguity,
    fit_leak_function,
    isolate_by_consistency,
    isolate_by_leak_fit,
    parse_scenario,
    residual,
    solve_leaky_state,
    sweep,
)
from leakscope.hydraulics import EPS


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

    @pytest.mark.parametrize(
        "name,eps_spread,fields",
        [
            ("example1", None, dict(isolated=True, k_hat=2)),
            ("linear-ambiguous", None, dict(
                isolated=False, candidate_pipes=frozenset({1, 2}), reason="pipes 1-2 linear",
            )),
            ("identical-pipes", None, dict(
                isolated=False, candidate_pipes=frozenset({1, 2}), reason="pipes 1-2 identical",
            )),
            ("example1", -1.0, dict(
                isolated=False, reason="no pipe has a consistent candidate position",
            )),
        ],
        ids=["isolated", "linear-ambiguous", "identical-pipes", "none-plausible"],
    )
    def test_verdict_fields(self, name, eps_spread, fields):
        sc = parse_scenario(bundled_scenario(name))
        data = sweep(sc.pipes, sc.leak, list(sc.boundary)).ok()
        eps = sc.analysis.eps_spread if eps_spread is None else eps_spread
        series = {
            j: tuple(candidate_position(sc.pipes, j, d) for d in data)
            for j in range(1, sc.pipes.n + 1)
        }
        if fields["isolated"]:
            k_hat = fields["k_hat"]
            fields = {**fields, "x_hat": math.fsum(series[k_hat]) / len(series[k_hat])}
        assert isolate_by_consistency(sc.pipes, data, eps_spread=eps) == IsolationVerdict(
            candidate_series=series,
            spreads={j: max(s) - min(s) for j, s in series.items()},
            **fields,
        )

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

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_too_few_distinct_points_are_counted(self, example1, count):
        # no points, one, and two equal ones that are not the same object
        pipes, leak, boundaries = example1
        d = simulate_data(pipes, leak, boundaries[:1])[0]
        data = [d, d.replace()][:count]
        message = rf"^need at least 2 distinct data points to isolate, got {min(count, 1)}$"
        with pytest.raises(TooFewPointsError, match=message):
            isolate_by_consistency(pipes, data)

    def test_nan_readings_are_told_apart_as_a_set_tells_them(self, example1):
        # a NaN equals only itself: one NaN object read twice is one state, two are two
        pipes, leak, boundaries = example1
        d = simulate_data(pipes, leak, boundaries[:1])[0]
        a, b = d.replace(q_in=float("nan")), d.replace(q_in=float("nan"))
        for same in ([a, a], [a, a.replace()]):
            assert len(set(same)) == 1
            with pytest.raises(TooFewPointsError, match="got 1$"):
                isolate_by_consistency(pipes, same)
        assert len(set([a, b])) == 2
        with pytest.warns(UserWarning, match="candidate position nan"):
            verdict = isolate_by_consistency(pipes, [a, b])
        assert verdict.reason == "no pipe has a consistent candidate position"

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
        with pytest.raises(TooFewPointsError, match="at least 3 samples"):
            fit_leak_function([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(TooFewPointsError, match="3 distinct leak flows"):
            fit_leak_function([(1.0, 2.0), (2.0, 3.0), (3.0, 3.0)])
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

    def test_example3_fit_bits(self):
        # the log-log fit is the closed form of statistics.linear_regression
        # on Python 3.11; these bits hold on 3.10, 3.11 and 3.12
        sc = parse_scenario(bundled_scenario("example3"))
        data = sweep(sc.pipes, sc.leak, list(sc.boundary)).ok()
        frozen = {c.j: c.x_j for c in all_candidates(sc.pipes, data[0])}
        fits = isolate_by_leak_fit(sc.pipes, data, frozen)
        assert [(f.j, f.C_j.hex(), f.beta_j.hex(), f.rmse.hex()) for f in fits] == [
            (2, "0x1.9000000000009p+5", "0x1.0000000000002p-1", "0x1.612e0a0d31a0bp-43"),
            (1, "0x1.ed863d82ae522p+4", "0x1.5244d028707bap-1", "0x1.0543aecd83e7dp-1"),
            (3, "nan", "nan", "inf"),
        ]

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


# -- the column kernels against the per-point and per-pipe definitions ------------


def _verdict_per_point(pipes, data, eps_spread):
    """The consistency verdict from `candidate_position` per (pipe, point), pipe by pipe."""
    distinct = len(set(data))
    if distinct < 2:
        raise TooFewPointsError(f"need at least 2 distinct data points to isolate, got {distinct}")
    series = {
        j: tuple(candidate_position(pipes, j, d) for d in data) for j in range(1, pipes.n + 1)
    }
    spreads = {j: max(s) - min(s) for j, s in series.items()}
    plausible = sorted(j for j, spread in spreads.items() if spread <= eps_spread)
    if len(plausible) == 1:
        k = plausible[0]
        return IsolationVerdict(series, spreads, True, k, math.fsum(series[k]) / len(series[k]))
    pairs = [
        f"pipes {a}-{b} {why}" for (a, b), why in detect_inherent_ambiguity(pipes)
        if a in plausible and b in plausible
    ]
    reason = "; ".join(pairs) or "multiple pipes have consistent candidate positions"
    return IsolationVerdict(
        series, spreads, False, candidate_pipes=frozenset(plausible),
        reason=reason if plausible else "no pipe has a consistent candidate position",
    )


def _fit_one_pipe(samples, h_y, eps_fit, j):
    """The log-log leak fit of one pipe's (head, flow) samples, written out pipe by
    pipe: the checks and float operations that `_fits` must reproduce for each pipe."""
    if len(samples) < 3:
        raise TooFewPointsError(f"need at least 3 samples, got {len(samples)}")
    if len({q for _, q in samples}) < 3:
        raise TooFewPointsError("need at least 3 distinct leak flows")
    if any(h - h_y <= 0.0 for h, _ in samples):
        return LeakFitResult(j, math.nan, math.nan, math.inf, True, False, tuple(samples))
    if any(q <= 0.0 for _, q in samples):
        raise ValueError("leak flows must be positive for a log-log fit")
    log_h = [math.log(h - h_y) for h, _ in samples]
    if max(log_h) == min(log_h):
        raise ValueError("zero variance in log pressure head; fit is degenerate")
    log_q = [math.log(q) for _, q in samples]
    n = len(samples)
    mean_h, mean_q = math.fsum(log_h) / n, math.fsum(log_q) / n
    s_hq = math.fsum((x - mean_h) * (y - mean_q) for x, y in zip(log_h, log_q))
    s_hh = math.fsum((x - mean_h) * (x - mean_h) for x in log_h)
    beta = s_hq / s_hh
    C = rmse = math.inf
    try:
        C = math.exp(mean_q - beta * mean_h)
        rmse = math.sqrt(math.fsum((q - C * (h - h_y) ** beta) ** 2 for h, q in samples) / n)
    except OverflowError:
        pass
    return LeakFitResult(j, C, beta, rmse, False, rmse <= eps_fit, tuple(samples))


def _leak_fit_per_pipe(pipes, data, candidates, h_y, eps_fit=1e-6):
    """`isolate_by_leak_fit` as one fit per pipe of its apparent leak heads."""
    if len(data) < 3:
        raise TooFewPointsError(f"need at least 3 data points, got {len(data)}")
    fits = [
        _fit_one_pipe(
            [(apparent_leak_head(pipes, j, x_j, d), apparent_leak_flow(d)) for d in data],
            h_y[j] if isinstance(h_y, dict) else h_y, eps_fit, j,
        )
        for j, x_j in sorted(candidates.items())
    ]
    return sorted(fits, key=lambda r: (r.negative_head, r.rmse, r.j))


def _outcome(call, *args):
    """The result's repr, which tells -0.0 from 0.0 and shows NaN, or the error raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            return repr(call(*args))
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)


_LAWS = st.one_of(
    st.builds(PowerLaw, st.floats(0.01, 10.0), st.sampled_from([0.5, 1.0, 1.85, 2.0])),
    st.builds(QuadraticPlusLinear, st.floats(0.01, 10.0)),
)
# readings from a short list repeat, so drawn points share flows, heads and head losses
_READINGS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 5.0]), st.floats(-20.0, 20.0))


@st.composite
def _cases(draw):
    """A network of 1-12 mixed laws; 3-30 data points, simulated from a power-law
    leak, so that fits succeed, or drawn reading by reading, so that the checks
    raise or reject; a spread tolerance; a position and leak elevation per pipe."""
    pipes = PipeSet(draw(st.lists(_LAWS, min_size=1, max_size=12)))
    m = draw(st.integers(3, 30))
    positions = draw(st.lists(st.floats(0.01, 0.99), min_size=pipes.n, max_size=pipes.n))
    candidates = dict(enumerate(positions, start=1))
    if draw(st.booleans()):
        leak = LeakSpec(
            draw(st.integers(1, pipes.n)), draw(st.floats(0.05, 0.95)),
            PowerLawLeak(C=draw(st.floats(0.1, 10.0)), beta=draw(st.floats(0.3, 1.5))),
        )
        heads = st.tuples(st.floats(0.0, 6.0), st.floats(0.1, 3.0))
        pairs = draw(st.lists(heads, min_size=m, max_size=m))
        data = simulate_data(pipes, leak, [(h_out + dh, h_out) for dh, h_out in pairs])
        candidates[leak.k] = leak.x
    else:
        data = [DataPoint(*draw(st.tuples(*[_READINGS] * 4))) for _ in range(m)]
    elevations = st.floats(-2.0, 1.0)
    h_y = draw(st.one_of(elevations, st.fixed_dictionaries({j: elevations for j in candidates})))
    return pipes, data, draw(st.sampled_from([1e-6, 1e-3, 1.0])), candidates, h_y


_ONE_LINEAR = PipeSet((Linear(1.0),))  # G = 0: each point's apparent head is h_in - q_in/2


def _one_linear_case(*readings):
    return _ONE_LINEAR, [DataPoint(*r) for r in readings], 1e-6, {1: 0.5}, 0.0


@settings(max_examples=200, deadline=None)
@given(_cases())
@example(_one_linear_case((2.0, 1.0, 3.0, 1.0), (3.0, 1.0, 4.0, 2.0), (4.0, 1.0, 5.0, 2.0)))
@example(_one_linear_case((10.0, 1.0, 3.0, 1.0), (11.0, 1.0, 3.0, 3.0), (12.0, 1.0, 4.0, 1.0)))
@example(_one_linear_case((10.0, 1.0, 3.0, 1.0), (10.0, 1.0, 3.0, 2.0), (10.0, 1.0, 3.0, 0.5)))
@example(_one_linear_case((-5.0, -6.0, 3.0, 1.0), (-4.0, -6.0, 3.0, 2.0), (-3.0, -6.0, 3.0, 0.5)))
@example(_one_linear_case((1e10, 0.0, 0.0, -1.0), (1.0001e10, 0.0, 0.0, -10.0),
                          (1.0002e10, 0.0, 0.0, -100.0)))
def test_isolation_matches_its_per_point_and_per_pipe_definitions(case):
    # the examples: 2 distinct leak flows, a zero leak flow, zero-variance heads,
    # negative heads and a fit that overflows
    pipes, data, eps_spread, candidates, h_y = case
    assert _outcome(isolate_by_consistency, pipes, data, eps_spread) == _outcome(
        _verdict_per_point, pipes, data, eps_spread
    )
    assert _outcome(isolate_by_leak_fit, pipes, data, candidates, h_y) == _outcome(
        _leak_fit_per_pipe, pipes, data, candidates, h_y
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_READINGS, _READINGS), max_size=8),
    st.floats(-2.0, 1.0),
    st.sampled_from([1e-6, 1.0]),
)
@example([(1e10, 1.0), (1.0001e10, 10.0), (1.0002e10, 100.0)], 0.0, 1e-6)  # overflows
@example([(1.0, 1.0), (2.0, 0.0), (3.0, 2.0)], 0.0, 1e-6)  # a zero leak flow
@example([(0.5, 50.0 * 0.5**0.5), (2.0, 50.0 * 2.0**0.5), (5.0, 50.0 * 5.0**0.5)], 0.0, 1e-6)
def test_fit_leak_function_matches_the_one_pipe_fit(samples, h_y, eps_fit):
    assert _outcome(fit_leak_function, samples, h_y, eps_fit) == _outcome(
        _fit_one_pipe, samples, h_y, eps_fit, 0
    )


# -- the paper's impossibility claim on drawn networks ------------------------------

# the laws of tests/test_kernel.py's mixed networks, one strategy per law class
_MIXED = st.one_of(
    st.builds(SignedQuadratic, st.floats(0.02, 0.3)),
    st.builds(QuadraticPlusLinear, st.floats(0.5, 3.0)),
    st.builds(PowerLaw, st.floats(0.05, 0.5), st.just(1.85)),
    st.builds(Linear, st.floats(0.05, 0.5)),
)
_LINEAR_PAIR = st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)).filter(
    lambda R: R[0] != R[1]
).map(lambda R: (Linear(R[0]), Linear(R[1])))


@st.composite
def _hidden_pairs(draw, pairs=st.one_of(_MIXED.map(lambda law: (law, law)), _LINEAR_PAIR)):
    """A pair no data can tell apart, by default an identical pair or a linear pair with
    different R, among 0-8 other mixed pipes; a leak in either pipe of the pair; 3-8
    noise-free states."""
    pair = draw(pairs)
    laws = draw(st.lists(_MIXED, max_size=8))
    a = draw(st.integers(0, len(laws)))
    b = draw(st.integers(a, len(laws)))
    laws[b:b] = [pair[1]]
    laws[a:a] = [pair[0]]
    pair_j = (a + 1, b + 2)
    leak_fn = draw(st.one_of(
        st.builds(PowerLawLeak, C=st.floats(1e-6, 10.0), beta=st.floats(0.3, 1.5)),
        st.builds(FixedDemand, st.floats(1e-6, 10.0)),
    ))
    leak = LeakSpec(draw(st.sampled_from(pair_j)), draw(st.floats(0.05, 0.95)), leak_fn)
    dhs = draw(st.lists(st.floats(0.5, 6.0), min_size=3, max_size=8, unique=True))
    pipes = PipeSet(tuple(laws))
    return pipes, leak, pair_j, simulate_data(pipes, leak, [(1.0 + dh, 1.0) for dh in dhs])


@pytest.mark.filterwarnings("ignore:candidate position")
@settings(max_examples=100, deadline=None)
@given(_hidden_pairs())
def test_a_pair_no_data_can_tell_apart_is_never_isolated(case):
    pipes, leak, pair_j, data = case
    verdict = isolate_by_consistency(pipes, data)
    assert not verdict.isolated
    assert set(pair_j) <= verdict.candidate_pipes, (verdict.spreads, verdict.reason)


@settings(max_examples=100, deadline=None)
@given(
    _hidden_pairs(_LINEAR_PAIR),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=5),
)
def test_a_linear_pairs_residuals_keep_the_ratio_of_their_resistances(case, probes):
    # criterion 4b on drawn networks. With U_a = R_a q, U_b = R_b q and G_0 the flow through
    # the other pipes, G_a = G_0 + dh / R_b, so at every x
    # r_a = dh - R_a (x q_in + (1 - x) q_out - G_a) = R_a (dh / R_a + dh / R_b - m + G_0),
    # m = x q_in + (1 - x) q_out, and r_b is the same with R_b in front: r_a = (R_a/R_b) r_b.
    # The residuals cancel, so the allowance is n eps times the terms they are formed from:
    # dh, and R_a times the flow readings and the flows at dh, of which G is an n-term sum.
    # Over 3,000 drawn cases the difference reached 0.26 of that allowance
    pipes, _, (a, b), data = case
    R_a, R_b = pipes.pipe(a).c, pipes.pipe(b).c
    for d in data:
        flows = math.fsum(map(abs, pipes.flows(d.dh)))
        scale = (1.0 + R_a / R_b) * abs(d.dh) + R_a * (abs(d.q_in) + abs(d.q_out) + 2.0 * flows)
        for x in probes:
            r_a, r_b = residual(pipes, a, x, d), residual(pipes, b, x, d)
            assert abs(r_a - R_a / R_b * r_b) <= pipes.n * EPS * scale, (x, d)


# -- the leak fit against its normal equations ---------------------------------------

# the fit's distance from the 50-digit fit; exp turns ln C's absolute error, which grows
# with |ln C| + beta |mean ln(h - h_y)| up to about 20 here, into C's relative error
BETA_ULPS, C_ULPS = 32, 64


@st.composite
def _leak_fit_samples(draw):
    """3-30 (h, q) samples of a power-law leak q = C (h - h_y)^beta, C in [1e-6, 10],
    beta in [0.3, 1.5], with up to 10% noise on q; the pressure heads h - h_y lie in
    [0.05, 50] and span at least a factor of 2, and at least 3 flows differ."""
    C, beta = draw(st.floats(1e-6, 10.0)), draw(st.floats(0.3, 1.5))
    h_y = draw(st.floats(-10.0, 10.0))
    above = draw(st.lists(st.floats(0.05, 50.0), min_size=3, max_size=30))
    noise = draw(st.lists(st.floats(-0.1, 0.1), min_size=len(above), max_size=len(above)))
    samples = [(h_y + p, C * p**beta * (1.0 + e)) for p, e in zip(above, noise)]
    assume(max(above) >= 2.0 * min(above) and len({q for _, q in samples}) >= 3)
    return samples, h_y


def _ulps(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


@settings(max_examples=100, deadline=None)
@given(_leak_fit_samples(), st.randoms(use_true_random=False))
def test_leak_fit_solves_its_normal_equations_in_any_sample_order(case, rng):
    # the centred closed form rounds each log, each mean and each sum once (fsum), so with
    # the log heads spread over ln 2 or more it stays within a few dozen ulps of the exact
    # fit: at most 12.2 for beta and 29.4 for C over 3,000 drawn cases
    samples, h_y = case
    fit = fit_leak_function(samples, h_y)
    C, beta = oracle.leak_fit(samples, h_y)
    assert _ulps(fit.beta_j, beta) <= BETA_ULPS, (fit.beta_j, beta)
    assert _ulps(fit.C_j, C) <= C_ULPS, (fit.C_j, C)
    # every sum is an fsum, so the order of the samples changes no bit
    shuffled = list(samples)
    rng.shuffle(shuffled)
    again = fit_leak_function(shuffled, h_y)
    assert [again.C_j.hex(), again.beta_j.hex(), again.rmse.hex()] == [
        fit.C_j.hex(), fit.beta_j.hex(), fit.rmse.hex()
    ]
