"""Machine-speed probes.

On a host whose cores are shared, the same interpreted code can run up to
1.5x slower for a while, in spells from milliseconds to tens of seconds.
Timing a fixed few microseconds of interpreted work next to the measured
code gives that factor. The work imitates leakscope's own code (frozen
dataclass laws, copysign and powers) and calls none of it, so a change to
leakscope cannot move it.

Workloads take a probe just before and just after each timed operation
(see `Workload.probe_ops`). An operation's latency is scaled by the mean of
its two probes, which see the speed it ran at. A round's time is scaled by
the mean of all its probes, which sample the spells the round went through.

Work in a child process (a CLI job, a set-up process) loads an interpreter
and imports modules, and its speed follows the speed of doing that, not the
speed of the parent's interpreted code. Its probe is therefore a reference
process: a fresh interpreter that imports modules.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# reported times are scaled to a machine on which one probe takes this long
PROBE_REFERENCE_MS = 0.0025
# Reference processes, with the time each takes on that machine. A CLI job's
# reference imports stdlib modules that the CLI imports. A set-up process's
# reference imports numpy, whose import is most of `import leakscope`; only
# the reference imports it, so a leakscope without numpy still shows.
CLI_REFERENCE = ((sys.executable, "-c", "import argparse, csv, dataclasses, json"), 50.0)
SETUP_REFERENCE = ((sys.executable, "-c", "import numpy"), 200.0)


@dataclass(frozen=True)
class _Law:
    c: float
    gamma: float

    def invert(self, h: float) -> float:
        return math.copysign((abs(h) / self.c) ** (1.0 / self.gamma), h)

    def evaluate(self, q: float) -> float:
        return math.copysign(self.c * abs(q) ** self.gamma, q)


_LAWS = tuple(_Law(0.1 + 0.01 * i, 1.5 + 0.05 * i) for i in range(8))


def _work() -> float:
    total = 0.0
    for law in _LAWS:
        total += law.evaluate(law.invert(0.7))
    return total


def probe_ms() -> float:
    """Median of three timings of the fixed work, in milliseconds.

    The work runs once untimed first: after a large operation its code and
    data are out of the caches, and only the machine's speed should count.
    """
    _work()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Probes:
    """The probes of one round: one just before and one just after each
    operation. An operation's probe is the mean of its two."""

    def __init__(self, probe=probe_ms, reference_ms: float = PROBE_REFERENCE_MS):
        self.probe = probe
        self.reference_ms = reference_ms
        self.all_ms: list[float] = []
        self.op_ms: list[float] = []
        self.spent_s = 0.0  # wall time spent probing, taken out of the round time
        self._before = 0.0

    def _take(self) -> float:
        t0 = time.perf_counter()
        ms = self.probe()
        self.spent_s += time.perf_counter() - t0
        self.all_ms.append(ms)
        return ms

    def before_op(self, value: float | None = None) -> None:
        """Probe now, or reuse `value`, a probe taken just before."""
        if value is None:
            self._before = self._take()
        else:
            self._before = value
            self.all_ms.append(value)

    def sample(self) -> None:
        """A probe between untimed calls, for the round's mean only."""
        self._take()

    def after_op(self) -> float:
        after = self._take()
        self.op_ms.append((self._before + after) / 2)
        return after

    def scale(self) -> float:
        """Factor that takes the round's time to the reference machine."""
        return self.reference_ms / statistics.fmean(self.all_ms)

    def op_scales(self) -> list[float]:
        return [self.reference_ms / ms for ms in self.op_ms]


def reference_probes(reference) -> Probes:
    """Probes that each run a reference process, spawn to exit."""
    argv, reference_ms = reference

    def run() -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (time.perf_counter() - t0) * 1e3

    return Probes(run, reference_ms)
