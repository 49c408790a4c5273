"""Check that leakscope gives the same bytes under several Python interpreters.

Under each interpreter this runs the 35 CLI jobs (each of the 7 commands on
each of the 5 bundled scenarios, one process a job) and 1,000 `measure` calls
on mixed-law networks of 4 to 150 pipes with the leak in a drawn pipe. It
compares each job's exit code and the sha256 of its stdout, its stderr and
every CSV it writes, and the float.hex of every reading, with the first
interpreter's. Only the standard library is needed.

    python tools/compare_pythons.py PYTHON [PYTHON ...]

Prints one line per interpreter and exits 1 when any differs from the first.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "leakscope" / "scenarios"
COMMANDS = ("simulate", "candidates", "residual-sweep", "confusion", "isolate", "leakfit", "check")
SIZES = (4, 6, 8, 12, 17, 25, 40, 64, 100, 150)
SEEDS, STATES = 5, 20


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_jobs(env: dict[str, str]) -> dict[str, list]:
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS.glob("*.json")):
            for command in COMMANDS:
                out = Path(tmp) / f"{scenario.stem}-{command}"
                done = subprocess.run(
                    [sys.executable, "-m", "leakscope.cli", command,
                     "--scenario", str(scenario), "--out", out.name],
                    cwd=tmp, env=env, capture_output=True, check=False,
                )
                csvs = {p.name: _sha(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
                jobs[out.name] = [done.returncode, _sha(done.stdout), _sha(done.stderr), csvs]
    return jobs


def _readings() -> tuple[int, str]:
    from leakscope import (
        LeakSpec, Linear, PipeSet, PowerLaw, QuadraticPlusLinear, SignedQuadratic, SqrtLeak,
        measure, solve_leaky_state,
    )

    bits, calls = hashlib.sha256(), 0
    for n in SIZES:
        for seed in range(SEEDS):
            rng = random.Random(f"pythons:{n}:{seed}")
            makers = (
                lambda: SignedQuadratic(rng.uniform(0.02, 0.3)),
                lambda: QuadraticPlusLinear(rng.uniform(0.5, 3.0)),
                lambda: PowerLaw(rng.uniform(0.05, 0.5), 1.85),
                lambda: Linear(rng.uniform(0.05, 0.5)),
            )
            pipes = PipeSet(tuple(makers[i % 4]() for i in range(n)))
            leak = LeakSpec(rng.randint(1, n), rng.uniform(0.2, 0.8), SqrtLeak())
            for _ in range(STATES):
                state = solve_leaky_state(pipes, leak, 1.0 + rng.uniform(0.5, 6.0), 1.0)
                d = measure(state, pipes, leak)
                bits.update(f"{d.q_in.hex()} {d.q_out.hex()}\n".encode())
                calls += 1
    return calls, bits.hexdigest()


def _worker() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    sys.path.insert(0, env["PYTHONPATH"])
    calls, readings = _readings()
    digest = {"jobs": _cli_jobs(env), "measure_calls": calls, "readings": readings}
    json.dump([platform.python_version(), digest], sys.stdout)


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tools/compare_pythons.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    digests = []
    for python in pythons:
        done = subprocess.run(
            [python, "-B", __file__, "--worker"], capture_output=True, text=True, check=True
        )
        version, digest = json.loads(done.stdout)
        digests.append(digest)
        differing = sorted(
            job for job, got in digest["jobs"].items() if got != digests[0]["jobs"].get(job)
        )
        codes = sorted({code for code, *_ in digest["jobs"].values()})
        same_readings = digest["readings"] == digests[0]["readings"]
        print(f"{version}: {len(digest['jobs'])} jobs (exit codes {codes}), "
              f"{len(differing)} differ {differing}; {digest['measure_calls']} measure calls, "
              f"readings {'equal' if same_readings else 'DIFFER'} ({digest['readings'][:16]})")
    return int(any(d != digests[0] for d in digests))


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        _worker()
    else:
        sys.exit(main(sys.argv[1:]))
