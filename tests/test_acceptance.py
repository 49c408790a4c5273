"""Acceptance gate: one test per criterion, each printing a PASS line."""

import random
import time

import pytest

from conftest import linspace, simulate_data

from leakscope import (
    LeakSpec,
    Linear,
    PartialDataPoint,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    QuadraticPlusLinear,
    SignedQuadratic,
    SqrtLeak,
    all_candidates,
    apparent_leak_head,
    bundled_scenario,
    candidate_position,
    complete_data_point,
    confusion_flow_curve,
    estimate_outflow,
    isolate_by_consistency,
    isolate_by_leak_fit,
    measure,
    residual,
    residual_differential,
    solve_leaky_state,
    zero_dh_sensitivity,
)
from leakscope.cli import main as cli_main

# pipe-1 fit misfit on the bundled Example-3 schedule, frozen from the
# least-squares oracle
EXAMPLE3_PIPE1_RMSE = 0.51028200396253642


def report(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_nonlinear_law(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return SignedQuadratic(rng.uniform(0.02, 0.3))
    if kind == 1:
        return QuadraticPlusLinear(rng.uniform(0.5, 6.0))
    return PowerLaw(rng.uniform(0.3, 3.0), rng.uniform(1.2, 2.6))


def test_criterion_01_round_trip_localization():
    rng = random.Random(20260823)
    start = time.perf_counter()
    for _ in range(50):
        n = rng.randint(2, 5)
        pipes = PipeSet(tuple(_random_nonlinear_law(rng) for _ in range(n)))
        k = rng.randint(1, n)
        x = rng.uniform(0.05, 0.95)
        leak = LeakSpec(k, x, PowerLawLeak(rng.uniform(0.5, 3.0), rng.uniform(0.4, 0.9)))
        d = simulate_data(pipes, leak, [(rng.uniform(2.5, 6.0), 1.0)])[0]
        assert abs(candidate_position(pipes, k, d) - x) <= 1e-8
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0)


def test_criterion_02_example2_candidates():
    start = time.perf_counter()
    pipes = PipeSet(
        (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
    )
    leak = LeakSpec(1, 0.65, SqrtLeak())
    d4 = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
    d1 = simulate_data(pipes, leak, [(2.0, 1.0)])[0]
    ok = (
        abs(candidate_position(pipes, 2, d4) - 0.63) <= 0.005
        and abs(candidate_position(pipes, 3, d4) - 0.64) <= 0.005
        and abs(candidate_position(pipes, 2, d1) - 0.69) <= 0.005
        and abs(candidate_position(pipes, 3, d1) - 0.72) <= 0.005
    )
    report(2, ok and time.perf_counter() - start < 1.0)


def test_criterion_03_example1_isolation(example1):
    pipes, leak, boundaries = example1
    data = simulate_data(pipes, leak, boundaries)
    verdict = isolate_by_consistency(pipes, data)
    ok = (
        verdict.isolated
        and verdict.k_hat == 2
        and abs(verdict.x_hat - 0.3) <= 1e-6
        and verdict.spreads[1] / verdict.spreads[2] >= 1e3
        and verdict.spreads[3] / verdict.spreads[2] >= 1e3
    )
    report(3, ok)


def test_criterion_04_impossibility_suites():
    # (a) identical pipes
    pipes_a = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.05)))
    leak_a = LeakSpec(1, 0.4, SqrtLeak())
    data_a = simulate_data(pipes_a, leak_a, [(h, 1.0) for h in linspace(1.5, 6.0, 20)])
    ok = True
    for d in data_a:
        ok &= abs(residual(pipes_a, 2, leak_a.x, d)) <= 1e-9
        ok &= abs(candidate_position(pipes_a, 2, d) - leak_a.x) <= 1e-8
    ok &= not isolate_by_consistency(pipes_a, data_a).isolated

    # (b) linear pair inside a mixed network
    R = {1: 0.1, 2: 0.2}
    pipes_b = PipeSet((Linear(R[1]), Linear(R[2]), SignedQuadratic(0.05)))
    leak_b = LeakSpec(2, 0.3, SqrtLeak())
    data_b = simulate_data(pipes_b, leak_b, [(h, 1.0) for h in linspace(1.5, 6.0, 20)])
    x_star = candidate_position(pipes_b, 1, data_b[0])
    series = [candidate_position(pipes_b, 1, d) for d in data_b]
    ok &= max(series) - min(series) <= 1e-8
    for d in data_b:
        ok &= abs(residual(pipes_b, 1, x_star, d)) <= 1e-9
        for x_probe in (0.2, 0.5, 0.8):
            lhs = residual(pipes_b, 1, x_probe, d)
            rhs = (R[1] / R[2]) * residual(pipes_b, 2, x_probe, d)
            ok &= abs(lhs - rhs) <= 1e-10
    ok &= not isolate_by_consistency(pipes_b, data_b).isolated
    report(4, ok)


def test_criterion_05_sensitivity_formulas():
    pipes = PipeSet(
        (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
    )
    leak = LeakSpec(1, 0.65, SqrtLeak())
    rng = random.Random(7)
    eps = 1e-6
    ok = True
    for _ in range(10):
        h_in = rng.uniform(3.0, 6.5)
        d = simulate_data(pipes, leak, [(h_in, 1.0)])[0]
        i = rng.choice([2, 3])
        x_i = candidate_position(pipes, i, d)
        rd = residual_differential(pipes, i, x_i, leak.k, leak.x, d)

        def rbar(dh, q_in):
            return estimate_outflow(pipes, leak.k, leak.x, dh, q_in) - estimate_outflow(
                pipes, i, x_i, dh, q_in
            )

        fd_qin = (rbar(d.dh, d.q_in + eps) - rbar(d.dh, d.q_in - eps)) / (2 * eps)
        fd_dh = (rbar(d.dh + eps, d.q_in) - rbar(d.dh - eps, d.q_in)) / (2 * eps)
        ok &= abs(rd.d_dqin - fd_qin) <= 1e-3 * abs(fd_qin)
        ok &= abs(rd.d_ddh - fd_dh) <= 1e-3 * abs(fd_dh)

    # zero-head-loss formula on a proportional network with finite R_0
    from leakscope import FixedDemand

    p0 = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0)))
    lk0 = LeakSpec(1, 0.4, FixedDemand(3.0))
    d0 = measure(solve_leaky_state(p0, lk0, 2.0, 2.0), p0, lk0)
    z = zero_dh_sensitivity(p0, 2, 1, 0.4, d0)

    def rbar0(dh):
        dd = measure(solve_leaky_state(p0, lk0, 2.0 + dh, 2.0), p0, lk0)
        return dd.q_out - estimate_outflow(p0, 2, 0.4, dd.dh, dd.q_in)

    fd0 = (rbar0(eps) - rbar0(-eps)) / (2 * eps)
    ok &= abs(z.value - fd0) <= 1e-3 * abs(fd0)

    # factor-vanishing cases are exactly zero
    p_lin = PipeSet((Linear(0.1), Linear(0.2)))
    lk_lin = LeakSpec(1, 0.5, FixedDemand(3.0))
    d_lin = measure(solve_leaky_state(p_lin, lk_lin, 2.0, 2.0), p_lin, lk_lin)
    ok &= zero_dh_sensitivity(p_lin, 2, 1, 0.5, d_lin).value == 0.0
    p_id = PipeSet((QuadraticPlusLinear(2.0), QuadraticPlusLinear(2.0)))
    lk_id = LeakSpec(1, 0.5, FixedDemand(3.0))
    d_id = measure(solve_leaky_state(p_id, lk_id, 2.0, 2.0), p_id, lk_id)
    ok &= zero_dh_sensitivity(p_id, 2, 1, 0.5, d_id).value == 0.0
    report(5, ok)


def test_criterion_06_confusion_flow_property(example2):
    pipes, leak = example2
    ok = True
    for h_in, nominal_dh, half_width in ((5.0, 4.0, 1.0), (2.0, 1.0, 0.5)):
        nominal = simulate_data(pipes, leak, [(h_in, 1.0)])[0]
        up = [nominal_dh + 0.05 * s for s in range(0, int(half_width / 0.05) + 1)]
        down = [nominal_dh - 0.05 * s for s in range(1, int(half_width / 0.05) + 1)]
        for i in (2, 3):
            x_i = candidate_position(pipes, i, nominal)

            def rbar(dh, q_in, i=i, x_i=x_i):
                return estimate_outflow(
                    pipes, leak.k, leak.x, dh, q_in
                ) - estimate_outflow(pipes, i, x_i, dh, q_in)

            for part in (up, down):
                curve = confusion_flow_curve(pipes, i, x_i, leak, part, nominal.q_in)
                for dh, q, conv in zip(
                    curve.dh_grid, curve.q_in_conf, curve.converged
                ):
                    if conv:
                        ok &= abs(rbar(dh, q)) <= 1e-8

            rd = residual_differential(pipes, i, x_i, leak.k, leak.x, nominal)
            if rd.d_dqin != 0.0:
                h = 0.01
                curve = confusion_flow_curve(
                    pipes, i, x_i, leak,
                    [nominal_dh, nominal_dh + h, nominal_dh - h], nominal.q_in,
                )
                slope = (curve.q_in_conf[1] - curve.q_in_conf[2]) / (2 * h)
                pred = -rd.d_ddh / rd.d_dqin
                ok &= abs(slope - pred) <= 1e-2 * abs(pred)
    report(6, ok)


def test_criterion_07_leak_fit_disambiguation(example3):
    pipes, leak, boundaries = example3
    R = [0.1, 0.2, 0.3]
    data = simulate_data(pipes, leak, boundaries)
    ok = len(data) >= 10
    for (h_in, h_out), d in zip(boundaries, data):
        state = solve_leaky_state(pipes, leak, h_in, h_out)
        for j in range(1, 4):
            x_j = candidate_position(pipes, j, d)
            h_j = apparent_leak_head(pipes, j, x_j, d)
            pred = state.h_leak + (R[leak.k - 1] - R[j - 1]) * leak.x * (
                1 - leak.x
            ) * state.q_leak
            ok &= abs(h_j - pred) <= 1e-10
    frozen = {c.j: c.x_j for c in all_candidates(pipes, data[0])}
    fits = {f.j: f for f in isolate_by_leak_fit(pipes, data, frozen)}
    ok &= fits[3].negative_head and not fits[3].accepted
    ok &= fits[2].rmse <= 1e-8
    ok &= abs(fits[2].C_j - 50.0) <= 1e-6 * 50.0
    ok &= abs(fits[2].beta_j - 0.5) <= 1e-6 * 0.5
    ok &= fits[1].rmse > 0.0
    ok &= abs(fits[1].rmse - EXAMPLE3_PIPE1_RMSE) <= 1e-9 * EXAMPLE3_PIPE1_RMSE
    report(7, ok)


def test_criterion_08_grid_search_oracle(example2):
    pipes, leak = example2
    rng = random.Random(99)
    step = 1e-4
    grid = [step * s for s in range(1, 10000)]
    ok = True
    for _ in range(20):
        d = simulate_data(pipes, leak, [(rng.uniform(2.0, 6.0), 1.0)])[0]
        for j in range(1, pipes.n + 1):
            best = min(grid, key=lambda x: abs(residual(pipes, j, x, d)))
            ok &= abs(best - candidate_position(pipes, j, d)) <= 1e-4
    report(8, ok)


def test_criterion_09_three_sensors_never_refute(example2):
    pipes, leak = example2
    d = simulate_data(pipes, leak, [(5.0, 1.0)])[0]
    fields = {"h_in": d.h_in, "h_out": d.h_out, "q_in": d.q_in, "q_out": d.q_out}
    ok = True
    for j in range(1, pipes.n + 1):
        for x_j in (0.25, 0.55, 0.8):
            for missing in fields:
                kwargs = {k: (None if k == missing else v) for k, v in fields.items()}
                done = complete_data_point(pipes, j, x_j, PartialDataPoint(**kwargs))
                ok &= abs(residual(pipes, j, x_j, done)) <= 1e-9
    report(9, ok)


def test_criterion_10_cli_golden(tmp_path):
    jobs = {
        "example1": ["simulate", "candidates", "isolate", "check"],
        "example2": ["simulate", "candidates", "residual-sweep", "confusion"],
        "example3": ["simulate", "candidates", "leakfit"],
        "linear-ambiguous": ["isolate", "check"],
        "identical-pipes": ["isolate", "check"],
    }
    ok = True
    for name, commands in jobs.items():
        for command in commands:
            a = tmp_path / "a" / name / command
            b = tmp_path / "b" / name / command
            for out in (a, b):
                code = cli_main(
                    [command, "--scenario", str(bundled_scenario(name)), "--out", str(out)]
                )
                ok &= code == 0
            for f in sorted(a.glob("*.csv")):
                ok &= f.read_bytes() == (b / f.name).read_bytes()
    report(10, ok)
