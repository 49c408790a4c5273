"""Golden outputs: the bundled CLI jobs against the CSVs in bench/reference/.

Float cells must agree within relative 1e-12 plus an absolute 1e-12 floor
(1e-10 for the confusion residual, which only the solver tolerance
bounds); every other cell must match exactly. The reference files are
only read here; `bench/make_reference.py` regenerates them.
"""

import csv
from pathlib import Path

import pytest

from leakscope import bundled_scenario
from leakscope.cli import main as cli_main

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"

# the (scenario, command) jobs of acceptance criterion 10
JOBS = [
    (name, command)
    for name, commands in {
        "example1": ["simulate", "candidates", "isolate", "check"],
        "example2": ["simulate", "candidates", "residual-sweep", "confusion"],
        "example3": ["simulate", "candidates", "leakfit"],
        "linear-ambiguous": ["isolate", "check"],
        "identical-pipes": ["isolate", "check"],
    }.items()
    for command in commands
]

REL_TOL = 1e-12
ABS_FLOOR = 1e-12
COLUMN_FLOOR = {("confusion.csv", "residual"): 1e-10}


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _mismatches(fname: str, got: list[list[str]], want: list[list[str]]) -> list[str]:
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{len(got)} rows / header {got[:1]}, expected {len(want)} / {want[:1]}"]
    header = want[0]
    problems = []
    for row_no, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            problems.append(f"row {row_no}: {len(g_row)} cells, expected {len(w_row)}")
            continue
        for column, g, w in zip(header, g_row, w_row):
            if g == w:
                continue
            try:
                a, b = float(g), float(w)
            except ValueError:
                problems.append(f"row {row_no} {column}: {g!r} != {w!r}")
                continue
            floor = COLUMN_FLOOR.get((fname, column), ABS_FLOOR)
            if not abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + floor:
                problems.append(f"row {row_no} {column}: {g} differs from {w}")
    return problems


@pytest.mark.parametrize("name,command", JOBS, ids=[f"{n}-{c}" for n, c in JOBS])
def test_cli_matches_reference(tmp_path, name, command):
    reference = REFERENCE / name / command
    expected = sorted(f.name for f in reference.glob("*.csv"))
    assert expected, f"no reference CSVs in {reference}"

    scenario = str(bundled_scenario(name))
    code = cli_main([command, "--scenario", scenario, "--out", str(tmp_path)])
    assert code == 0
    assert sorted(f.name for f in tmp_path.glob("*.csv")) == expected
    for fname in expected:
        problems = _mismatches(fname, _read(tmp_path / fname), _read(reference / fname))
        assert not problems, f"{fname}: " + "; ".join(problems[:5])
