"""Seeded inputs, timed rounds and correctness checks of the four workloads.

Every workload runs in rounds, closed-loop with one caller. `round(r)`
does the timed work of one round and returns what `check` needs; `check`
runs outside the timed region and appends to `problems` whatever output
is wrong. Inputs come only from the seed and are built at set-up. A pass
of `rounds_per_pass` rounds covers every input once, so every pass of a
seed does the same work. The in-process workloads spread a pass over
several seeded networks, so that its cost depends little on the seed.

Nothing here imports leakscope at module import time: `setup` does, so
the set-up time of a fresh process (`setup_s`) includes the import.
"""

from __future__ import annotations

import csv
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import CLI_REFERENCE, Probes, reference_probes

BENCH_DIR = Path(__file__).resolve().parent

# the (scenario, command) jobs of acceptance criterion 10
CLI_JOBS = (
    ("example1", ("simulate", "candidates", "isolate", "check")),
    ("example2", ("simulate", "candidates", "residual-sweep", "confusion")),
    ("example3", ("simulate", "candidates", "leakfit")),
    ("linear-ambiguous", ("isolate", "check")),
    ("identical-pipes", ("isolate", "check")),
)
# what the installed `leakscope` console script runs
CLI_SNIPPET = "import sys; from leakscope.cli import main; sys.exit(main())"

# reference CSV comparison: relative 1e-12 plus an absolute floor; the
# confusion residual column is bounded only by the solver tolerance (1e-10)
CSV_REL_TOL = 1e-12
CSV_ABS_FLOOR = 1e-12
CSV_COLUMN_FLOOR = {("confusion.csv", "residual"): 1e-10}

X_TOL = 1e-9  # |x_hat - x| for the isolated pipe
FIT_REL_TOL = 1e-6  # leak-fit C and beta of the true pipe against the truth
CURVE_TOL = 1e-10  # confusion_flow_curve's default tolerance


@dataclass
class Round:
    items: int  # throughput units completed in the round
    latencies_ms: list[float]
    attempted: int
    failed: int
    outputs: object = None
    probes: Probes | None = None  # speed probes taken during the round


@dataclass
class Workload:
    seed: int
    root: Path
    work: Path
    problems: list[str] = field(default_factory=list)

    # throughput unit and timed operation, for the report
    item = "item"
    op = "op"
    # rounds that cover every input once: the warm-up and the counted window
    rounds_per_pass = 1
    # take speed probes around every timed operation (see calibration.py)
    probe_ops = False

    def problem(self, r: int, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"round {r}: {message}")


SIGNED_QUADRATIC, QUADRATIC_PLUS_LINEAR, POWER_LAW, LINEAR = range(4)


def _network(L, rng: random.Random, n: int, leak_fn):
    """n mixed-law pipes and a leak in a power-law pipe.

    One pipe is linear and the others cycle through the three nonlinear
    laws: any two linear pipes are indistinguishable, so a second one would
    make isolation impossible by design. The leaking pipe's law sets how
    much work a solve or a confusion curve takes, and with a leak in a
    linear or quadratic+linear pipe that work varies several-fold from one
    network to the next. With the power law it varies little, so every seed
    costs about the same work.
    """
    kinds = [LINEAR] + [i % 3 for i in range(n - 1)]
    rng.shuffle(kinds)
    pipes = L.PipeSet(tuple(_law(L, rng, kind) for kind in kinds))
    k = rng.choice([j for j, kind in enumerate(kinds, start=1) if kind == POWER_LAW])
    return pipes, L.LeakSpec(k=k, x=rng.uniform(0.2, 0.8), leak=leak_fn)


def _law(L, rng: random.Random, kind: int):
    if kind == SIGNED_QUADRATIC:
        return L.SignedQuadratic(rng.uniform(0.02, 0.2))
    if kind == QUADRATIC_PLUS_LINEAR:
        return L.QuadraticPlusLinear(rng.uniform(0.5, 4.0))
    if kind == POWER_LAW:
        return L.PowerLaw(rng.uniform(0.05, 0.5), 1.85)
    return L.Linear(rng.uniform(0.05, 0.5))


@dataclass
class StateBatch:
    pipes: object
    leak: object
    pairs: list[tuple[float, float]]
    expected_fail: set[int]


class StatePipeline(Workload):
    """Per network: boundary pairs -> solve_leaky_state + measure +
    all_candidates per state -> isolate_by_consistency ->
    isolate_by_leak_fit. Round r runs network r mod `networks`."""

    item = "state"
    op = "state (solve_leaky_state + measure + all_candidates)"
    n_pipes = 4
    networks = 16
    batch_size = 256
    fails_per_batch = 16  # pairs below the leak elevation, which must fail

    @property
    def rounds_per_pass(self) -> int:
        return self.networks

    def setup(self) -> None:
        import leakscope

        L = self.L = leakscope
        rng = random.Random(f"{type(self).__name__}:{self.seed}")
        self.batches = []
        for b in range(self.networks):
            h_y = rng.uniform(0.5, 1.5)
            leak_fn = L.PowerLawLeak(C=rng.uniform(0.3, 1.0), beta=rng.uniform(0.4, 0.6), h_y=h_y)
            pipes, leak = _network(L, rng, self.n_pipes, leak_fn)
            pairs = []
            expected_fail = set(rng.sample(range(self.batch_size), self.fails_per_batch))
            for idx in range(self.batch_size):
                if idx in expected_fail:
                    h_in = h_y - rng.uniform(0.05, 0.3)
                    pairs.append((h_in, h_in - rng.uniform(0.05, 0.5)))
                else:
                    h_out = h_y + rng.uniform(0.5, 3.0)
                    pairs.append((h_out + rng.uniform(0.5, 6.0), h_out))
            self.batches.append(StateBatch(pipes, leak, pairs, expected_fail))

    def round(self, r: int, tracer=None) -> Round:
        L = self.L
        batch = self.batches[r % self.networks]
        pipes, leak = batch.pipes, batch.leak
        clock = time.perf_counter
        data, failed_rows, latencies = [], [], []
        failed = 0
        probes = Probes() if self.probe_ops else None
        for idx, (h_in, h_out) in enumerate(batch.pairs):
            if tracer is not None:
                tracer.op_id = idx
            if probes is not None:
                probes.before_op()
            t0 = clock()
            try:
                state = L.solve_leaky_state(pipes, leak, h_in, h_out)
                d = L.measure(state, pipes, leak)
                L.all_candidates(pipes, d)
            except L.NoRootError:
                failed_rows.append(idx)
                continue
            except Exception:  # noqa: BLE001 - counted as a failed operation
                failed += 1
                continue
            latencies.append((clock() - t0) * 1e3)
            if probes is not None:
                probes.after_op()
            data.append(d)
        verdict = fits = None
        try:
            verdict = L.isolate_by_consistency(pipes, data)
            if probes is not None:
                probes.sample()
            candidates = {j: s[0] for j, s in verdict.candidate_series.items()}
            h_y = {j: leak.leak.h_y for j in candidates}
            fits = L.isolate_by_leak_fit(pipes, data, candidates, h_y=h_y)
        except Exception:  # noqa: BLE001
            failed += 1
        if probes is not None:
            probes.sample()
        n = len(batch.pairs)
        return Round(n, latencies, n + 2, failed, (batch, failed_rows, verdict, fits), probes)

    def check(self, r: int, rnd: Round) -> None:
        batch, failed_rows, verdict, fits = rnd.outputs
        where = f"network {r % self.networks}"
        if set(failed_rows) != batch.expected_fail:
            self.problem(
                r, f"{where}: {len(failed_rows)} rows failed to solve, expected the "
                f"{len(batch.expected_fail)} generated below the leak elevation"
            )
        k, x = batch.leak.k, batch.leak.x
        if verdict is None or not verdict.isolated or verdict.k_hat != k:
            got = None if verdict is None else (verdict.k_hat, verdict.reason[:200])
            self.problem(r, f"{where}: isolation did not pick pipe {k}: {got}")
        elif abs(verdict.x_hat - x) > X_TOL:
            self.problem(r, f"{where}: x_hat {verdict.x_hat!r} is not x {x!r} within {X_TOL}")
        if not fits or fits[0].j != k or not fits[0].accepted:
            self.problem(r, f"{where}: leak fit did not rank pipe {k} first and accepted")
            return
        truth = batch.leak.leak
        for got, want in ((fits[0].C_j, truth.C), (fits[0].beta_j, truth.beta)):
            if abs(got - want) > FIT_REL_TOL * abs(want):
                self.problem(r, f"{where}: leak fit parameter {got!r} is not {want!r}")


class ManyStates(StatePipeline):
    """16 networks of n=4 mixed laws, 256 pairs each, 16 of them below the
    leak elevation."""


class WideNetwork(StatePipeline):
    """One network of n=150 mixed laws, 24 states, no failing pairs."""

    n_pipes = 150
    networks = 1
    batch_size = 24
    fails_per_batch = 0


@dataclass
class ConfusionCase:
    pipes: object
    leak: object
    nominal_dh: float
    grid: list[float]


class ConfusionDense(Workload):
    """Per network: confusion-flow curves for every pipe, both directions,
    on a dense dh grid around a nominal point, plus residual_bar on the same
    grid. Round r runs network r mod `networks`."""

    item = "confusion point"
    op = "confusion_flow_curve (one pipe, one direction)"
    n_pipes = 6
    networks = 32
    grid_steps = 81
    h_out = 1.0
    rounds_per_pass = networks

    def setup(self) -> None:
        import leakscope

        L = self.L = leakscope
        rng = random.Random(f"{type(self).__name__}:{self.seed}")
        self.cases = []
        for b in range(self.networks):
            leak_fn = L.PowerLawLeak(C=rng.uniform(0.5, 2.0), beta=0.5, h_y=0.0)
            pipes, leak = _network(L, rng, self.n_pipes, leak_fn)
            nominal = rng.uniform(3.0, 5.0)
            lo, hi = 0.5 * nominal, 1.5 * nominal
            step = (hi - lo) / (self.grid_steps - 1)
            grid = [lo + i * step for i in range(self.grid_steps)]
            self.cases.append(ConfusionCase(pipes, leak, nominal, grid))
        self.reference_flags: dict[int, tuple] = {}

    def round(self, r: int, tracer=None) -> Round:
        L, h_out = self.L, self.h_out
        case = self.cases[r % self.networks]
        pipes, leak, nominal_dh, grid = case.pipes, case.leak, case.nominal_dh, case.grid
        clock = time.perf_counter
        state = L.solve_leaky_state(pipes, leak, h_out + nominal_dh, h_out)
        nominal = L.measure(state, pipes, leak)
        frozen = {c.j: c.x_j for c in L.all_candidates(pipes, nominal)}
        upper = [dh for dh in grid if dh >= nominal_dh]
        lower = [dh for dh in grid if dh < nominal_dh][::-1]
        curves, latencies = [], []
        attempted = failed = points = 0
        probes = Probes() if self.probe_ops else None
        for i in range(1, pipes.n + 1):
            for part in (upper, lower):
                if tracer is not None:
                    tracer.op_id = attempted
                if probes is not None:
                    probes.before_op()
                attempted += 1
                t0 = clock()
                try:
                    curve = L.confusion_flow_curve(
                        pipes, i, frozen[i], leak, part, seed_qin=nominal.q_in
                    )
                except Exception:  # noqa: BLE001
                    failed += 1
                    continue
                latencies.append((clock() - t0) * 1e3)
                if probes is not None:
                    probes.after_op()
                points += len(part)
                curves.append((i, curve))
        rbars = []
        for dh in grid:
            if probes is not None:
                probes.sample()
            attempted += 1
            try:
                d = L.measure(L.solve_leaky_state(pipes, leak, h_out + dh, h_out), pipes, leak)
                rbars.append((d, [L.residual_bar(pipes, j, frozen[j], d) for j in frozen]))
            except Exception:  # noqa: BLE001
                failed += 1
        return Round(points, latencies, attempted, failed, (frozen, curves, rbars), probes)

    def check(self, r: int, rnd: Round) -> None:
        L = self.L
        b = r % self.networks
        case = self.cases[b]
        pipes, leak = case.pipes, case.leak
        frozen, curves, rbars = rnd.outputs
        flags = tuple(curve.converged for _, curve in curves)
        if self.reference_flags.setdefault(b, flags) != flags:
            self.problem(r, f"network {b}: converged points differ from the first round")
        for i, curve in curves:
            for dh, q, ok in zip(curve.dh_grid, curve.q_in_conf, curve.converged):
                if not ok:
                    continue
                # an independent evaluation of the mismatch the curve zeroes
                mismatch = L.estimate_outflow(pipes, leak.k, leak.x, dh, q) - (
                    L.estimate_outflow(pipes, i, frozen[i], dh, q)
                )
                if not math.isfinite(q) or abs(mismatch) > CURVE_TOL:
                    self.problem(r, f"network {b} pipe {i} dh={dh!r}: flagged converged, "
                                 f"mismatch {mismatch!r}")
                    return
        k = leak.k
        for d, values in rbars:
            if abs(values[k - 1]) > 1e-9 * max(1.0, abs(d.q_out)):
                self.problem(r, f"network {b}: residual_bar of the leaking pipe is "
                             f"{values[k - 1]!r} at dh={d.dh!r}")
                return


class CliBundled(Workload):
    """The 15 bundled (scenario, command) jobs, each a fresh `leakscope`
    process; with `in_process` the jobs call `leakscope.cli.main` instead."""

    item = "CLI job"
    op = "leakscope process, spawn to exit"
    in_process = False
    rounds_per_pass = len([c for _, commands in CLI_JOBS for c in commands])

    def setup(self) -> None:
        import leakscope
        import leakscope.cli

        self.L = leakscope
        scenarios = self.work / "scenarios"
        scenarios.mkdir(parents=True, exist_ok=True)
        self.jobs = []
        for name, commands in CLI_JOBS:
            path = scenarios / f"{name}.json"
            shutil.copyfile(leakscope.bundled_scenario(name), path)
            for command in commands:
                self.jobs.append((name, command, path, self.work / "out" / name / command))
        self.reference = {
            (name, command): {
                f.name: _read_csv(f)
                for f in sorted((BENCH_DIR / "reference" / name / command).glob("*.csv"))
            }
            for name, command, _, _ in self.jobs
        }
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.stderr_path = self.work / "cli_stderr.txt"
        self.peak_child_rss_kb = 0
        self._last_reference = None

    def round(self, r: int, tracer=None) -> Round:
        """Round r runs one job; each pass over the 15 jobs is shuffled."""
        order = list(self.jobs)
        random.Random(f"{self.seed}/{r // len(order)}").shuffle(order)
        name, command, path, out = order[r % len(order)]
        argv = [command, "--scenario", str(path), "--out", str(out)]
        if tracer is not None:
            tracer.op_id = r
        probes = None
        if self.probe_ops:
            probes = reference_probes(CLI_REFERENCE)
            probes.before_op(self._last_reference)
        if self.in_process:
            t0 = time.perf_counter()
            try:
                code = self.L.cli.main(argv)
            except Exception:  # noqa: BLE001
                code = -1
            dt = time.perf_counter() - t0
        else:
            code, dt = self._spawn(argv)
        if probes is not None:
            # the next job's probe before is this one's probe after
            self._last_reference = probes.after_op()
        if code != 0:
            self.problem(r, f"{name} {command} exited with {code}: {self._stderr_tail()}")
            return Round(0, [], 1, 1, [], probes)
        return Round(1, [dt * 1e3], 1, 0, [(name, command, out)], probes)

    def _spawn(self, argv: list[str]) -> tuple[int, float]:
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_SNIPPET, *argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            # wait4 gives this child's own resource usage (peak RSS)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, dt

    def _stderr_tail(self) -> str:
        if self.in_process or not self.stderr_path.exists():
            return ""
        return self.stderr_path.read_text(errors="replace")[-300:].strip()

    def check(self, r: int, rnd: Round) -> None:
        for name, command, out in rnd.outputs:
            reference = self.reference[(name, command)]
            got = sorted(f.name for f in out.glob("*.csv"))
            if got != sorted(reference):
                self.problem(r, f"{name} {command} wrote {got}, expected {sorted(reference)}")
                continue
            for fname, want in reference.items():
                message = _csv_mismatch(fname, _read_csv(out / fname), want)
                if message:
                    self.problem(r, f"{name} {command} {fname}: {message}")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _csv_mismatch(fname: str, got: list[list[str]], want: list[list[str]]) -> str:
    """Empty when every cell matches: floats within tolerance, text exactly."""
    if len(got) != len(want) or got[:1] != want[:1]:
        return f"{len(got)} rows / header {got[:1]}, expected {len(want)} / {want[:1]}"
    header = want[0]
    for row_no, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            return f"row {row_no} has {len(g_row)} cells, expected {len(w_row)}"
        for column, g, w in zip(header, g_row, w_row):
            if g == w:
                continue
            try:
                a, b = float(g), float(w)
            except ValueError:
                return f"row {row_no} {column}: {g!r} != {w!r}"
            floor = CSV_COLUMN_FLOOR.get((fname, column), CSV_ABS_FLOOR)
            if not abs(a - b) <= CSV_REL_TOL * max(abs(a), abs(b)) + floor:
                return f"row {row_no} {column}: {g} differs from reference {w}"
    return ""


WORKLOADS = {
    "cli-bundled": CliBundled,
    "many-states": ManyStates,
    "wide-network": WideNetwork,
    "confusion-dense": ConfusionDense,
}
