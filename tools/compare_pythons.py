"""Check that leakscope gives the same bytes under several Python interpreters.

Under each interpreter this runs the 35 CLI jobs (each of the 7 commands on
each of the 5 bundled scenarios, one process a job) and 1,000 `measure` calls
on mixed-law networks of 4 to 150 pipes with the leak in a drawn pipe. At each
measured point it also reads, for every pipe j, `candidate_position`, and
`residual`, `residual_bar` and `apparent_leak_head` at the leak's own position.
Apart from those, it solves four dh = 0 states per network, one of them with a
strong pressure leak. It compares each job's exit code and the sha256 of its
stdout, its stderr and every CSV it writes, the float.hex of every reading and
single-point value, and the float.hex of each dh = 0 state or the text of its
error, with the first interpreter's. Only the standard library is needed.

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
import warnings
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


def _networks():
    """The drawn networks as (n, seed, rng, pipes, leak); rng goes on to draw the states."""
    from leakscope import (
        LeakSpec, Linear, PipeSet, PowerLaw, QuadraticPlusLinear, SignedQuadratic, SqrtLeak,
    )

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
            yield n, seed, rng, pipes, leak


def _readings() -> tuple[int, str, str]:
    from leakscope import (
        apparent_leak_head, candidate_position, measure, residual, residual_bar,
        solve_leaky_state,
    )

    warnings.simplefilter("ignore")  # a wrong pipe's candidate may fall outside (0, 1)
    bits, points, calls = hashlib.sha256(), hashlib.sha256(), 0
    for n, _, rng, pipes, leak in _networks():
        for _ in range(STATES):
            state = solve_leaky_state(pipes, leak, 1.0 + rng.uniform(0.5, 6.0), 1.0)
            d = measure(state, pipes, leak)
            bits.update(f"{d.q_in.hex()} {d.q_out.hex()}\n".encode())
            calls += 1
            for j in range(1, n + 1):
                values = (candidate_position(pipes, j, d), residual(pipes, j, leak.x, d),
                          residual_bar(pipes, j, leak.x, d),
                          apparent_leak_head(pipes, j, leak.x, d))
                points.update(" ".join(v.hex() for v in values).encode() + b"\n")
    return calls, bits.hexdigest(), points.hexdigest()


def _zero_dh() -> str:
    """The dh = 0 solves, drawn apart from `_readings` so its digests do not move: per
    network, the drawn leak at a low, a high and a below-elevation head, and a strong
    pressure leak whose linear-split start falls below its elevation."""
    from leakscope import NoRootError, PowerLawLeak, solve_leaky_state

    digest = hashlib.sha256()
    for n, seed, _, pipes, leak in _networks():
        rng = random.Random(f"pythons:zero-dh:{n}:{seed}")
        strong = leak.replace(leak=PowerLawLeak(rng.uniform(100.0, 1000.0), 2.0, 1.0))
        for spec, h in ((leak, rng.uniform(0.5, 7.0)), (leak, rng.uniform(1e3, 1e6)),
                        (leak, -rng.uniform(0.5, 7.0)), (strong, rng.uniform(1e3, 1e5))):
            try:
                s = solve_leaky_state(pipes, spec, h, h)
                line = f"{s.h_leak.hex()} {s.q_in_k.hex()} {s.q_out_k.hex()}"
            except NoRootError as exc:
                line = str(exc)
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _worker() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    sys.path.insert(0, env["PYTHONPATH"])
    calls, readings, points = _readings()
    digest = {"jobs": _cli_jobs(env), "measure_calls": calls, "readings": readings,
              "single_point": points, "zero_dh": _zero_dh()}
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
        same = {key: "equal" if digest[key] == digests[0][key] else "DIFFER"
                for key in ("readings", "single_point", "zero_dh")}
        print(f"{version}: {len(digest['jobs'])} jobs (exit codes {codes}), "
              f"{len(differing)} differ {differing}; {digest['measure_calls']} measure calls, "
              f"readings {same['readings']} ({digest['readings'][:16]}), "
              f"single-point values {same['single_point']} ({digest['single_point'][:16]}), "
              f"dh = 0 solves {same['zero_dh']} ({digest['zero_dh'][:16]})")
    return int(any(d != digests[0] for d in digests))


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        _worker()
    else:
        sys.exit(main(sys.argv[1:]))
