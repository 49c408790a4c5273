"""Regenerate reference/: the CSVs that each bundled CLI job writes.

    python3 bench/make_reference.py

The cli-bundled workload compares every job's output with these files.
Regenerate them only when a change to the outputs is intended.
"""

from __future__ import annotations

import shutil
import sys

from workloads import BENCH_DIR, CLI_JOBS


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import leakscope.cli

    reference = BENCH_DIR / "reference"
    shutil.rmtree(reference, ignore_errors=True)
    for name, commands in CLI_JOBS:
        scenario = str(leakscope.bundled_scenario(name))
        for command in commands:
            out = reference / name / command
            code = leakscope.cli.main([command, "--scenario", scenario, "--out", str(out)])
            if code != 0:
                print(f"error: {name} {command} exited with {code}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
