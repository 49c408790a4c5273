"""leakscope benchmark: run one workload from one seed.

    python3 bench/run.py --workload many-states --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports leakscope from
`src/` of that checkout and writes only under `.bench_build/` there. It
prints a readable report and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing. With `--trace 1` they are the per-layer ones: the benchmark wraps
public leakscope functions (see tracing.py) and reports span times and
work counts. The exit code is 1 when an output check fails and 2 when the
checkout has no leakscope source. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

from calibration import SETUP_REFERENCE, reference_probes
from tracing import (
    BRACKET_FALLBACK, DERIVATIVE, ESTIMATE_OUTFLOW, EVALUATE, INVERT, LEAK_FLOW, Tracer,
)
from workloads import CLI_JOBS, WORKLOADS, CliBundled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "leakscope-bench"

SETUP_REPEATS = 9  # fresh processes timed for setup_s, after one warm-up
MIN_LATENCY_SAMPLES = 110  # so that p90 has at least ten samples above it
MIN_PASSES = 3  # throughput is a median over passes
PROBE_REPEATS = 7  # fresh interpreters per cli.* probe
COMPUTE_PASSES = 3  # untraced in-process passes over the bundled jobs

# the end-to-end metric names and what they are called on each workload
ALIASES = {
    "cli-bundled": ("cli_jobs_per_s", "cli_ms"),
    "many-states": ("states_per_s", "state_ms"),
    "wide-network": ("states_per_s", "state_ms"),
    "confusion-dense": ("confusion_points_per_s", "curve_ms"),
}


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


# -- running rounds -------------------------------------------------------------


class Segment:
    """Rounds run back to back for a set time.

    Rounds that took speed probes (see calibration.py) also have their times
    kept scaled to the reference machine, without the time spent probing.
    """

    def __init__(self):
        self.round_s: list[float] = []
        self.round_items: list[int] = []
        self.scales: list[float] = []
        self.latencies_ms: list[float] = []
        self.scaled_latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, wl, first, seconds, min_samples=0, min_rounds=1, tracer=None):
        start = time.perf_counter()
        deadline = start + seconds
        cap = start + max(2 * seconds, seconds + 30)
        r = first
        while True:
            t0 = time.perf_counter()
            rnd = wl.round(r, tracer)
            dt = time.perf_counter() - t0
            if (tracer is not None and tracer.window is None
                    and len(self.round_s) + 1 >= wl.rounds_per_pass):
                tracer.freeze_window()
            wl.check(r, rnd)
            if rnd.probes is not None:
                dt -= rnd.probes.spent_s
                scale = rnd.probes.scale()
                op_scales = rnd.probes.op_scales()
            else:
                scale = 1.0
                op_scales = [scale] * len(rnd.latencies_ms)
            self.round_s.append(dt)
            self.round_items.append(rnd.items)
            self.scales.append(scale)
            self.latencies_ms.extend(rnd.latencies_ms)
            self.scaled_latencies_ms.extend(
                ms * f for ms, f in zip(rnd.latencies_ms, op_scales)
            )
            self.attempted += rnd.attempted
            self.failed += rnd.failed
            r += 1
            now = time.perf_counter()
            if now >= cap or (now >= deadline and len(self.latencies_ms) >= min_samples
                              and len(self.round_s) >= min_rounds):
                return self

    def pass_rates(self, per_pass: int, scaled: bool) -> list[float]:
        """Items per second of each complete pass over the workload's inputs."""
        rates = []
        for p in range(0, len(self.round_s) - per_pass + 1, per_pass):
            seconds = sum(
                dt * (self.scales[i] if scaled else 1.0)
                for i, dt in enumerate(self.round_s[p:p + per_pass], start=p)
            )
            rates.append(sum(self.round_items[p:p + per_pass]) / seconds)
        return rates


def make(name: str, seed: int):
    return WORKLOADS[name](seed, ROOT, WORK)


# -- fresh-process probes -------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True
    )
    return time.perf_counter() - t0, done


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes (import, inputs, objects, files): as
    measured, and scaled by reference processes run around each one."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-probe"]
    timed_child(argv)  # warm-up: compiles bytecode, fills the page cache
    probes = reference_probes(SETUP_REFERENCE)
    raw = []
    for _ in range(SETUP_REPEATS):
        probes.before_op(probes.all_ms[-1] if probes.all_ms else None)
        raw.append(float(timed_child(argv)[1].stdout))
        probes.after_op()
    return raw, [s * f for s, f in zip(raw, probes.op_scales())]


def cli_probes() -> dict[str, float]:
    """Interpreter start, package import and numpy's share of the import."""
    py = sys.executable
    timed_child([py, "-c", "import leakscope"])  # warm-up
    interpreter = [timed_child([py, "-c", "pass"])[0] * 1e3 for _ in range(PROBE_REPEATS)]
    snippet = ("import time; t = time.perf_counter(); import leakscope; "
               "print(time.perf_counter() - t)")
    imports = [float(timed_child([py, "-c", snippet])[1].stdout) * 1e3
               for _ in range(PROBE_REPEATS)]
    numpy_ms = []
    for _ in range(3):
        stderr = timed_child([py, "-X", "importtime", "-c", "import leakscope"])[1].stderr
        cumulative_us = [
            int(line.split("|")[1])
            for line in stderr.splitlines()
            if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"
        ]
        numpy_ms.append(sum(cumulative_us) / 1e3)
    return {
        "cli.interpreter_ms": median(interpreter),
        "cli.import_ms": median(imports),
        "cli.import_numpy_ms": median(numpy_ms),
    }


def parse_ms(L) -> float:
    times = []
    names = [name for name, _ in CLI_JOBS]
    for _ in range(20):
        for name in names:
            path = L.bundled_scenario(name)
            t0 = time.perf_counter()
            L.parse_scenario(path)
            times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(wt: Tracer, bt: Tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer numbers from the workload's tracer `wt`; a layer the
    workload never calls is measured on the bundled CLI jobs (`bt`)."""
    sources = {}

    def pick(layer: str, span: str) -> Tracer:
        use_workload = wt.window["spans"].get(span, (0,))[0] > 0
        sources[layer] = "workload" if use_workload else "bundled CLI jobs"
        return wt if use_workload else bt

    def durations(t: Tracer, span: str) -> list[float]:
        agg = t.aggregates.get(span)
        return agg.durations if agg else []

    def window_calls(t: Tracer, span: str) -> int:
        return t.window["spans"].get(span, (0, None))[0]

    def window_inside(t: Tracer, span: str, counter: int) -> int:
        entry = t.window["spans"].get(span)
        return entry[1][counter] if entry else 0

    m = {}
    t = pick("hydraulics", "solve_leaky_state")
    solves = window_calls(t, "solve_leaky_state")
    m["hydraulics.solve_us.p50"] = median(t.state_us)
    m["hydraulics.solve_us.p90"] = p90(t.state_us)
    m["hydraulics.mismatch_evals_per_solve"] = t.window["counts"][LEAK_FLOW] / solves
    sources["headloss"] = sources["hydraulics"]
    m["headloss.invert_per_state"] = t.window["counts"][INVERT] / solves
    m["headloss.evaluate_per_state"] = t.window["counts"][EVALUATE] / solves
    m["headloss.derivative_calls"] = t.window["counts"][DERIVATIVE]

    t = pick("localization", "all_candidates")
    m["localization.all_candidates_ms.p50"] = median(durations(t, "all_candidates")) * 1e3
    m["localization.invert_per_point"] = (
        window_inside(t, "all_candidates", INVERT) / window_calls(t, "all_candidates")
    )
    m["localization.estimate_outflow_calls"] = t.window["counts"][ESTIMATE_OUTFLOW]

    t = pick("isolation", "isolate_by_consistency")
    m["isolation.consistency_ms"] = median(durations(t, "isolate_by_consistency")) * 1e3
    m["isolation.leak_fit_ms"] = median(durations(t, "isolate_by_leak_fit")) * 1e3
    m["isolation.fit_leak_function_us"] = median(durations(t, "fit_leak_function")) * 1e6

    t = pick("sensitivity", "confusion_flow_curve")
    points = t.window["curve_points"]
    m["sensitivity.curve_ms.p50"] = median(durations(t, "confusion_flow_curve")) * 1e3
    m["sensitivity.f_evals_per_point"] = (
        window_inside(t, "confusion_flow_curve", ESTIMATE_OUTFLOW) / 2 / points
    )
    m["sensitivity.converged_frac"] = t.window["curve_converged"] / points
    m["sensitivity.bracket_fallbacks"] = t.window["counts"][BRACKET_FALLBACK]
    return m, sources


def traced_segment(wl, seconds: float) -> tuple[Segment, Segment, Tracer]:
    """Each round twice, untraced then traced, so that the tracing overhead
    is a ratio of round times taken moments apart."""
    base, traced, tracer = Segment(), Segment(), Tracer()
    deadline = time.perf_counter() + seconds
    r = 0
    while r < wl.rounds_per_pass or time.perf_counter() < deadline:
        base.run(wl, r, 0)
        tracer.install()
        try:
            traced.run(wl, r, 0, tracer=tracer)
        finally:
            tracer.uninstall()
        r += 1
    return base, traced, tracer


# -- report -------------------------------------------------------------------------


UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_ms.p50": "ms",
    "latency_ms.p90": "ms", "peak_rss_mb": "MB",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.import_numpy_ms": "ms",
    "cli.compute_ms.p50": "ms", "scenario.parse_ms": "ms",
    "hydraulics.solve_us.p50": "us", "hydraulics.solve_us.p90": "us",
    "hydraulics.mismatch_evals_per_solve": "count",
    "headloss.invert_per_state": "count", "headloss.evaluate_per_state": "count",
    "headloss.derivative_calls": "count",
    "localization.all_candidates_ms.p50": "ms", "localization.invert_per_point": "count",
    "localization.estimate_outflow_calls": "count",
    "isolation.consistency_ms": "ms", "isolation.leak_fit_ms": "ms",
    "isolation.fit_leak_function_us": "us",
    "sensitivity.curve_ms.p50": "ms", "sensitivity.f_evals_per_point": "count",
    "sensitivity.converged_frac": "frac", "sensitivity.bracket_fallbacks": "count",
    "trace_overhead_frac": "frac",
}


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "leakscope" / "__init__.py").is_file():
        print(f"error: no leakscope source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)

    if args.setup_probe:
        wl = make(args.workload, args.seed)
        t0 = time.perf_counter()
        wl.setup()
        print(time.perf_counter() - t0)
        return 0

    env = environment()
    # candidate positions outside (0,1) warn on every wrong pipe; a caller
    # running thousands of states silences them
    warnings.simplefilter("ignore")
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    wl = make(args.workload, args.seed)
    if args.trace and isinstance(wl, CliBundled):
        wl.in_process = True  # the traced run times cli.main after import
    wl.setup()
    import leakscope as L

    if Path(L.__file__).resolve().parent != (SRC / "leakscope").resolve():
        print(f"error: leakscope imported from {L.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for r in range(wl.rounds_per_pass):  # warm-up
        wl.check(r, wl.round(r))
    # every input has been through the program once; later growth would be
    # the benchmark's own samples
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.probe_ops = not args.trace

    print(f"leakscope benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    problems = wl.problems
    wall: dict[str, float] = {}
    if not args.trace:
        seg = Segment().run(
            wl, wl.rounds_per_pass, args.seconds, min_samples=MIN_LATENCY_SAMPLES,
            min_rounds=MIN_PASSES * wl.rounds_per_pass,
        )
        if isinstance(wl, CliBundled):
            rss_kb = wl.peak_child_rss_kb
        setup_raw, setup_scaled = setup_s
        report = {
            "setup_s": median(setup_scaled),
            "throughput_per_s": median(seg.pass_rates(wl.rounds_per_pass, scaled=True)),
            "latency_ms.p50": median(seg.scaled_latencies_ms),
            "latency_ms.p90": p90(seg.scaled_latencies_ms),
            "peak_rss_mb": rss_kb / 1024,
        }
        wall = {
            "setup_s": median(setup_raw),
            "throughput_per_s": median(seg.pass_rates(wl.rounds_per_pass, scaled=False)),
            "latency_ms.p50": median(seg.latencies_ms),
            "latency_ms.p90": p90(seg.latencies_ms),
            "peak_rss_mb": rss_kb / 1024,
        }
        attempted, failed = seg.attempted, seg.failed
        rate_name, lat_name = ALIASES[args.workload]
        print(f"  {len(seg.round_s)} rounds ({wl.rounds_per_pass} per pass), "
              f"{len(seg.latencies_ms)} latency samples (one per {wl.op}), "
              f"throughput in {wl.item}s per second")
        print(f"  median scale {median(seg.scales):.4f}: times are scaled to the reference "
              "machine of calibration.py; raw wall values beside them")
        for name, value in report.items():
            alias = name.replace("throughput_per_s", rate_name).replace("latency_ms", lat_name)
            print(f"  {name:<20} {value:>14.6g} {UNITS[name]:<5} wall {wall[name]:>12.6g}  {alias}")
        print(f"  {'ops_failed_frac':<20} {failed / max(attempted, 1):>14.6g} frac "
              f"({failed} of {attempted} operations)")
    else:
        base, traced, wt = traced_segment(wl, args.seconds)
        process_layers = cli_probes()
        process_layers["scenario.parse_ms"] = parse_ms(L)
        if isinstance(wl, CliBundled):
            bt, compute_ms = wt, base.latencies_ms
        else:
            cb = CliBundled(args.seed, ROOT, WORK)
            cb.in_process = True
            cb.setup()
            passes = cb.rounds_per_pass
            for r in range(passes):  # warm-up
                cb.check(r, cb.round(r))
            compute = Segment().run(cb, passes, 0, min_rounds=COMPUTE_PASSES * passes)
            compute_ms = compute.latencies_ms
            bt = Tracer()
            bt.install()
            try:
                Segment().run(cb, 0, 0, min_rounds=passes, tracer=bt)
            finally:
                bt.uninstall()
            problems = problems + cb.problems
        process_layers["cli.compute_ms.p50"] = median(compute_ms)
        layers, sources = layer_metrics(wt, bt)
        report = {**process_layers, **layers}
        report["trace_overhead_frac"] = median(
            [t / b for t, b in zip(traced.round_s, base.round_s)]
        ) - 1
        attempted = base.attempted + traced.attempted
        failed = base.failed + traced.failed
        print(f"  {len(traced.round_s)} rounds, each untraced then traced; "
              "counts cover the first traced pass")
        print("  layer sources: " + ", ".join(f"{k}={v}" for k, v in sources.items()))
        for name, value in report.items():
            print(f"  {name:<38} {value:>14.6g} {UNITS[name]}")
        print("  self time by span (workload tracer): calls, total ms, self ms")
        for name, calls, total, self_ms in wt.self_time_table():
            print(f"    {name:<24} {calls:>9} {total:>12.1f} {self_ms:>12.1f}")
        trace_path = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
        wt.dump(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")

    correct = not problems
    for message in problems:
        print(f"  CHECK FAILED {message}")
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"env": env, "args": vars(args), "correct": correct,
                                   "problems": problems, "metrics": report, "wall": wall},
                                  indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in report.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
