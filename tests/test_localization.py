import itertools
import math
import re
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from conftest import outcome, simulate_data

from leakscope import (
    DataPoint,
    FixedDemand,
    LeakSpec,
    Linear,
    NoLeakError,
    PartialDataPoint,
    PipeSet,
    PowerLaw,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    all_candidates,
    candidate_position,
    complete_data_point,
    estimate_outflow,
    isolate_by_consistency,
    measure,
    residual,
    residual_bar,
    solve_leaky_state,
)
from leakscope.headloss import HeadLossFn
from leakscope.hydraulics import XTOL

EPS = sys.float_info.epsilon


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
    with pytest.warns(UserWarning) as isolating:
        isolate_by_consistency(pipes, [d, DataPoint(6.0, 1.0, 55.0, 70.0)])
    # one warning per pipe and point, in pipe-major order
    assert [str(w.message).split(" for ")[1][:6] for w in isolating] == [
        f"pipe {j}" for j in (1, 1, 2, 2, 3, 3)
    ]
    # each warning names the caller's line, not a line inside leakscope
    assert {w.filename for w in [*one, *every, *isolating]} == {__file__}


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


def _outflow_per_call(U_j, x_j, G, dh, q_in):
    """The outflow and its q_in-slope with every term formed at each call and the
    law's own `evaluate` and `invert`: the formula that the map of
    `U_j.outflow_map(x_j)` must reproduce bit for bit. Where a power leaves the
    float range the map raises one ValueError naming the law and its inputs."""
    a = q_in - G
    try:
        head_in = U_j.evaluate(a)
        head_out = dh / (1.0 - x_j) - (x_j / (1.0 - x_j)) * head_in
        b = U_j.invert(head_out)
    except ValueError:
        raise ValueError(
            f"{U_j!r}.outflow_map({x_j!r})({G!r}, {dh!r}, {q_in!r}) is beyond the float range"
        ) from None
    if isinstance(U_j, PowerLaw):
        den = a * head_out
        ratio = head_in * b / den if den else math.nan
    else:
        ratio = (2.0 * abs(a) + 1.0) / (2.0 * abs(b) + 1.0)
    return b + G, -x_j / (1.0 - x_j) * ratio


_flows = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-1e6, 1e6),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.builds(
            PowerLaw,
            st.floats(0.01, 100.0),
            st.sampled_from([0.5, 1.0, 1.85, 2.0]) | st.floats(0.3, 3.0),
        ),
        st.builds(QuadraticPlusLinear, st.floats(0.01, 100.0)),
    ),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    _flows,
    _flows,
    _flows,
)
@example(Linear(1.0), 0.5, 0.0, 0.0, 0.0)  # 0/0: a NaN slope
@example(QuadraticPlusLinear(2.0), 0.5, 0.0, 0.0, 0.0)
@example(SignedQuadratic(1.0), 0.25, 1.0, 0.0, 1.0)  # a = 0 on a power law
@example(SignedQuadratic(0.3), 0.5, 0.0, 1.0, 0.7)  # c |a| a rounds unlike c (|a| a)
@example(PowerLaw(1.0, 3.0), 0.5, 0.0, 1.0, 1e200)  # evaluate's power overflows
@example(PowerLaw(1.0, 0.5), 0.5, 0.0, 1e300, 1.0)  # invert's power overflows
@example(PowerLaw(1.0, 1.85), 0.5, 1.0, math.nan, math.inf)
def test_outflow_map_matches_the_per_call_formula(U_j, x_j, G, dh, q_in):
    # the same bits, or the same exception: the map's ValueError where a power
    # leaves the float range
    got = outcome(U_j.outflow_map(x_j), G, dh, q_in)
    assert got == outcome(_outflow_per_call, U_j, x_j, G, dh, q_in)


@pytest.mark.parametrize(
    "law,x_j,dh,a,site,head",
    [
        # the section head U(a) = a^1.85 at a = 1e200
        (PowerLaw(1.0, 1.85), 0.5, 0.0, 1e200, "evaluate", 1e200),
        # the outlet inverse of the head dh / (1 - x_j) = 1e160 at a = 0
        (PowerLaw(1.0, 0.5), 1.0 - 1e-10, 1e150, 0.0, "invert", 1e150 / 1e-10),
    ],
    ids=["section-head", "outlet-inverse"],
)
def test_outflow_map_beyond_the_float_range_names_the_law_and_its_inputs(
    law, x_j, dh, a, site, head
):
    with pytest.raises(ValueError, match=f"{site}.* is beyond the float range"):
        getattr(law, site)(head)  # the case reaches the site it names
    pipes = PipeSet((law, Linear(1.0)))
    G = pipes.admittances_excluding(dh)[0]
    text = f"{law!r}.outflow_map({x_j!r})({G!r}, {dh!r}, {G + a!r}) is beyond the float range"
    with pytest.raises(ValueError, match=re.escape(text)):
        estimate_outflow(pipes, 1, x_j, dh, G + a)


class _Cubic(HeadLossFn):
    """U(q) = c q^3, a law of a class outside the closed set."""

    def __init__(self, c):
        self.c = c

    def evaluate(self, q):
        return self.c * q**3

    def invert(self, h):
        return math.copysign(abs(h / self.c) ** (1.0 / 3.0), h)

    def derivative(self, q):
        return 3.0 * self.c * q * q

    def shape_key(self):
        return ("cubic",)


class _ScaledPowerLaw(PowerLaw):
    """A power law whose own `evaluate` doubles the base formula."""

    __slots__ = ()

    def evaluate(self, q):
        return 2.0 * super().evaluate(q)

    def invert(self, h):
        return super().invert(0.5 * h)


@pytest.mark.parametrize("law", [_Cubic(0.5), _ScaledPowerLaw(0.5, 1.85)], ids=["cubic", "subclass"])
def test_a_pipe_set_refuses_a_law_of_another_class(law):
    # each law's maps write PowerLaw's or QuadraticPlusLinear's formulas, not calls
    # of its methods, so a pipe set refuses any other class, a subclass included,
    # where it is built, before a solve or an outflow could take the law
    message = f"loss law class {type(law).__name__} is not PowerLaw or QuadraticPlusLinear"
    with pytest.raises(TypeError, match=message):
        PipeSet((law, SignedQuadratic(0.1)))
    pipes = PipeSet((Linear(1.0), SignedQuadratic(0.1)))
    with pytest.raises(TypeError, match=message):
        pipes.replace(pipes=(pipes.pipe(1), law))


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

    @pytest.mark.parametrize("x_j", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_position_outside_the_pipe_raises(self, example2, x_j):
        pipes, leak = example2
        d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
        with pytest.raises(ValueError, match=r"^x_j must be in \(0,1\), got "):
            complete_data_point(pipes, 1, x_j, PartialDataPoint(d.h_in, d.h_out, d.q_in, None))

    def test_partial_validation(self):
        with pytest.raises(ValueError):
            PartialDataPoint(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(ValueError):
            PartialDataPoint(None, None, 3.0, 4.0)


# every law family: a power law with gamma < 1, = 1 and > 1, and the
# quadratic-plus-linear law
LAWS = st.one_of(
    st.builds(PowerLaw, st.floats(1e-2, 1e2), st.floats(0.3, 0.95)),
    st.builds(PowerLaw, st.floats(1e-2, 1e2), st.sampled_from([0.5, 1.0, 1.85, 2.0])),
    st.builds(PowerLaw, st.floats(1e-2, 1e2), st.floats(1.05, 3.0)),
    st.builds(QuadraticPlusLinear, st.floats(1e-2, 1e2)),
)


def residual_and_rounding(pipes, j, x_j, p):
    """The pipe-j residual at the missing head h, and EPS times the sizes of its
    terms, with the rounding of the section flows carried by the law's slope."""
    U = pipes.pipe(j)

    def f(h):
        d = DataPoint(**{**p._asdict(), p.missing: h})
        G = pipes.admittances_excluding(d.dh)[j - 1]
        try:
            slopes = x_j * U.derivative(d.q_in - G) + (1 - x_j) * U.derivative(d.q_out - G)
        except ValueError:  # unbounded at a zero section flow
            slopes = math.inf
        heads = x_j * abs(U.evaluate(d.q_in - G)) + (1 - x_j) * abs(U.evaluate(d.q_out - G))
        flows = abs(d.q_in) + abs(d.q_out) + pipes.n * abs(G)
        carried = slopes * flows if flows else 0.0
        return residual(pipes, j, x_j, d), EPS * (abs(d.dh) + heads + carried)

    return f


@settings(max_examples=300, deadline=None)
@given(
    laws=st.lists(LAWS, min_size=1, max_size=4),
    k=st.integers(1, 4),
    j=st.integers(1, 4),
    x=st.floats(0.05, 0.95),
    demand=st.floats(0.0, 10.0),
    h_out=st.floats(-100.0, 100.0),
    dh=st.just(0.0) | st.floats(-1e-6, 1e-6) | st.floats(-10.0, 10.0),
    x_j=st.floats(0.01, 0.99),
    missing=st.sampled_from(["h_in", "h_out"]),
)
# readings at dh = 0, where the other pipe's admittance has no finite slope
@example(
    laws=[SignedQuadratic(1.0), SignedQuadratic(2.0)], k=1, j=2, x=0.5, demand=1.0,
    h_out=1.0, dh=0.0, x_j=0.3, missing="h_in",
)
# a step onto a zero section flow of a gamma < 1 law, where the slope is so
# steep that the next step's shortness once passed for convergence
@example(
    laws=[PowerLaw(0.5, 0.5), PowerLaw(0.5, 0.5)], k=1, j=1, x=0.5, demand=0.0,
    h_out=0.0, dh=5.960464477539063e-08, x_j=0.5, missing="h_in",
)
def test_completed_head_brackets_the_residual_root(
    laws, k, j, x, demand, h_out, dh, x_j, missing
):
    pipes = PipeSet(tuple(laws))
    k, j = 1 + (k - 1) % pipes.n, 1 + (j - 1) % pipes.n
    d = simulate_data(pipes, LeakSpec(k, x, FixedDemand(demand)), [(h_out + dh, h_out)])[0]
    p = PartialDataPoint(**{**d._asdict(), missing: None})
    h = getattr(complete_data_point(pipes, j, x_j, p), missing)
    # the residual rises with dh: with h_in, and against h_out
    f, sign = residual_and_rounding(pipes, j, x_j, p), 1.0 if missing == "h_in" else -1.0
    # the residual changes sign within XTOL + 4 eps |h| of the result, up to
    # its rounding, the contract of the forward solve
    delta = XTOL + 4 * EPS * abs(h)
    (below, r_below), (above, r_above) = f(h - delta), f(h + delta)
    assert sign * below <= 4 * r_below and sign * above >= -4 * r_above


@pytest.mark.parametrize("missing", ["h_in", "h_out"])
@pytest.mark.parametrize("dh", [0.0, 1e-9, 4.0])
def test_completed_head_is_within_tolerance_of_the_oracle(example2, missing, dh):
    pipes, leak = example2
    d = simulate_data(pipes, leak, [(1.0 + dh, 1.0)])[0]
    p = PartialDataPoint(**{**d._asdict(), missing: None})
    for j, x_j in ((1, 0.65), (2, 0.3), (3, 0.9)):
        h = getattr(complete_data_point(pipes, j, x_j, p), missing)
        exact = oracle.completed_head(pipes, j, x_j, p)
        assert abs(Decimal(h) - exact) <= XTOL + 4 * EPS * abs(h)


def test_completed_head_evaluation_counts(example2, monkeypatch):
    # law evaluations per missing head on example2's operating range, two per
    # residual; Brent's zeroin on a grown bracket made 21.2 on average here
    pipes, leak = example2
    calls = []
    evaluate = QuadraticPlusLinear.evaluate
    monkeypatch.setattr(
        QuadraticPlusLinear, "evaluate", lambda self, q: calls.append(q) or evaluate(self, q)
    )
    counts = []
    for d in simulate_data(pipes, leak, [(1.0 + dh, 1.0) for dh in (0.5, 2.0, 4.0, 6.0)]):
        for j, x_j, missing in itertools.product((1, 2, 3), (0.25, 0.55, 0.8), ("h_in", "h_out")):
            before = len(calls)
            complete_data_point(pipes, j, x_j, PartialDataPoint(**{**d._asdict(), missing: None}))
            counts.append(len(calls) - before)
    assert sum(counts) / len(counts) <= 12 and max(counts) <= 16


def test_backflow_state_localizes():
    # zero head loss with an active leak forces q_out_k < 0
    pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
    leak = LeakSpec(1, 0.4, FixedDemand(5.0))
    state = solve_leaky_state(pipes, leak, 2.0, 2.0)
    assert state.q_out_k < 0.0
    d = measure(state, pipes, leak)
    assert candidate_position(pipes, leak.k, d) == pytest.approx(leak.x, abs=1e-8)
