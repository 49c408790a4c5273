import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from leakscope import bundled_scenario, parse_scenario
from leakscope.cli import _COMMANDS, _read_args, main
from leakscope.scenario import Scenario, ScenarioError, load_scenario

NAN = float("nan")
SRC = Path(__file__).resolve().parent.parent / "src"

HEADERS = {
    "simulate.csv": "index,h_in,h_out,dh,q_in,q_out,h_leak,q_leak,q_in_k,q_out_k,error",
    "candidates.csv": "index,h_in,h_out,dh,q_in,q_out,x_1,x_2,x_3,error",
    "residual_sweep.csv": "dh,h_in,h_out,q_in,q_out,rbar_1,rbar_2,rbar_3,error",
    "confusion.csv": "pipe,dh,q_in_conf,residual,converged",
    "isolate_summary.csv": "isolated,k_hat,x_hat,candidate_pipes,reason",
    "isolate_spreads.csv": "pipe,spread,plausible",
    "leakfit_samples.csv": "pipe,index,h_leak_j,q_leak",
    "leakfit_results.csv": "rank,pipe,C,beta,rmse,negative_head,accepted",
    "check.csv": "pipe_a,pipe_b,reason",
}

# which subcommands each bundled scenario supports
APPLICABLE = {
    "example1": ["simulate", "candidates", "isolate", "check"],
    "example2": ["simulate", "candidates", "residual-sweep", "confusion", "isolate", "check"],
    "example3": ["simulate", "candidates", "isolate", "leakfit", "check"],
    "linear-ambiguous": ["simulate", "candidates", "isolate", "leakfit", "check"],
    "identical-pipes": ["simulate", "candidates", "isolate", "check"],
}


def run(command, scenario, out) -> int:
    return main([command, "--scenario", str(scenario), "--out", str(out)])


class TestScenarioParsing:
    def test_bundled_example2(self):
        sc = parse_scenario(bundled_scenario("example2"))
        assert [p.c for p in sc.pipes.pipes] == [2.0, 4.0, 6.0]
        assert sc.leak.k == 1 and sc.leak.x == 0.65
        assert sc.boundary == ((5.0, 1.0), (2.0, 1.0))
        assert sc.analysis.nominal_dh == 4.0

    def test_invalid_x_named(self, tmp_path):
        doc = json.loads(bundled_scenario("example2").read_text())
        doc["leak"]["x"] = 1.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="leak.x"):
            parse_scenario(path)

    def test_invalid_k_named(self, tmp_path):
        doc = json.loads(bundled_scenario("example2").read_text())
        doc["leak"]["k"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="leak.k"):
            parse_scenario(path)

    def test_multiple_violations_all_reported(self, tmp_path):
        doc = json.loads(bundled_scenario("example2").read_text())
        doc["leak"]["k"] = 9
        doc["leak"]["x"] = -0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert len(err.value.problems) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "keys,value,path",
        [
            (("pipes", 0), {"type": "signed_quadratic", "c": "abc"}, "pipes[0].c"),
            (("pipes", 0), 3, "pipes[0]"),
            (("pipes", 0), {"type": "signed_quadratic", "c": NAN}, "pipes[0].c"),
            (("pipes", 0), {"type": ["linear"], "R": 0.1}, "pipes[0].type"),
            (("lengths",), [100.0, 100.0, 120.0], "lengths"),
            (("leak", "x"), "abc", "leak.x"),
            (("leak", "k"), 2.7, "leak.k"),
            (("leak", "fn"), {"type": "power_law_leak", "C": None, "beta": 0.5}, "leak.fn.C"),
            (("leak", "fn"), {"type": "power_law_leak", "C": NAN, "beta": 0.5}, "leak.fn.C"),
            (("boundary",), [["x", 1.0]], "boundary[0][0]"),
            (("boundary", "h_in", "steps"), 0, "boundary.h_in.steps"),
            (("analysis",), {"h_y": [0.0]}, "analysis.h_y"),
            (("analysis",), [], "analysis"),
            ((), [], "scenario"),
            (("analysis", "eps_sprad"), 0.5, "analysis.eps_sprad"),
            (("leak", "X"), 0.9, "leak.X"),
            (("leak", "fn"), {"type": "power_law_leak", "C": 1.0, "beta": 0.5, "hy": 2.0},
             "leak.fn.hy"),
            (("pipes", 1, "R"), 0.1, "pipes[1].R"),
            (("boundary", "h_in", "step"), 100, "boundary.h_in.step"),
        ],
        ids=[
            "non-numeric", "non-object", "nan", "list-type", "lengths", "leak-x",
            "fractional-k", "null-C", "nan-C", "boundary-pair", "zero-steps",
            "short-h_y", "list-analysis", "list-document", "unknown-option",
            "unknown-leak-key", "unknown-leak-fn-key", "unknown-pipe-key",
            "unknown-range-key",
        ],
    )
    def test_bad_pipe_named(self, tmp_path, capsys, keys, value, path):
        doc = json.loads(bundled_scenario("example1").read_text())
        if keys:
            target = doc
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        else:
            doc = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any(p.startswith(path + ":") for p in err.value.problems)
        assert run("simulate", bad, tmp_path / "out") == 2
        assert f"error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "confusion"])
    @pytest.mark.parametrize(
        "key,lo,hi,path",
        [
            ("h_in", -1.7e308, 1.7e308, "boundary.h_in"),
            ("h_out", -1.7e308, 1.7e308, "boundary.h_out"),
            ("dh_grid", -1.7e308, 1.7e308, "analysis.dh_grid"),
            ("dh_grid", 0.0, 1.7e308, "analysis.dh_grid"),  # to - from fits, 2 (to - from) not
        ],
        ids=["boundary-span", "boundary-h_out-span", "dh_grid-span", "dh_grid-spacing"],
    )
    def test_range_spaced_past_the_float_range_named(
        self, tmp_path, capsys, command, key, lo, hi, path
    ):
        # once loaded as nan, inf, inf: (to - from) overflows to inf
        doc = json.loads(bundled_scenario("example2").read_text())
        spec = {"from": lo, "to": hi, "steps": 3}
        if key == "h_in":
            doc["boundary"] = {"h_in": spec, "h_out": 1.0}
        elif key == "h_out":
            doc["boundary"] = {"h_in": 5.0, "h_out": spec}
        else:
            doc["analysis"]["dh_grid"] = spec
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(command, bad, tmp_path / "out") == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == [
            f"error: {path}: spacing 3 values from {lo!r} to {hi!r} overflows the float range"
        ]

    def test_boundary_range_on_the_outlet_head(self, tmp_path):
        doc = json.loads(bundled_scenario("example2").read_text())
        doc["boundary"] = {"h_in": 5.0, "h_out": {"from": 1.0, "to": 2.0, "steps": 3}}
        path = tmp_path / "outlet-range.json"
        path.write_text(json.dumps(doc))
        assert parse_scenario(path).boundary == ((5.0, 1.0), (5.0, 1.5), (5.0, 2.0))

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read file"),
            ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
            ('{"pipes": ' + "9" * 5000 + "}", "4300 digits"),
        ],
        ids=["missing-file", "deep-nesting", "huge-integer"],
    )
    def test_unreadable_file_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario(path)
        assert err.value.problems[0].startswith(f"{path}: ")
        assert run("simulate", path, tmp_path / "out") == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith(f"error: {path}: ")

    def test_utf8_document_read_whatever_the_locale(self, tmp_path):
        # JSON is UTF-8; an ASCII locale must not decide how the file decodes
        doc = json.loads(bundled_scenario("example1").read_text())
        doc.setdefault("analysis", {})["épsilon"] = 1.0
        path = tmp_path / "accent.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = dict(os.environ, LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(SRC))
        code = "import sys; from leakscope.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "check", "--scenario", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True,
        )
        # the ASCII stderr escapes the é of the key it names
        assert (proc.returncode, proc.stderr) == (2, b"error: analysis.\\xe9psilon: unknown key\n")

    def test_utf8_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + bundled_scenario("example2").read_bytes())
        assert parse_scenario(path) == parse_scenario(bundled_scenario("example2"))

    def test_cli_exit_code_on_bad_scenario(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert run("simulate", path, tmp_path / "out") == 2


# JSON-like values; dictionary keys and strings are often the scenario's own
# field and type names, so generated objects reach past the top level
NAMES = st.sampled_from([
    "pipes", "leak", "boundary", "analysis", "type", "c", "R", "gamma",
    "k", "x", "fn", "C", "beta", "h_y", "q_leak", "h_in", "h_out", "from", "to",
    "steps", "eps_spread", "eps_fit", "nominal_dh", "dh_grid", "linear", "power_law",
    "signed_quadratic", "quadratic_plus_linear", "power_law_leak", "fixed_demand", "sqrt",
])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(NAMES | st.text(max_size=4), inner, max_size=5),
    max_leaves=16,
)
EXAMPLE1 = json.loads(bundled_scenario("example1").read_text())

# (path, keys from the document down to the object, the keys it defines)
# for each object reader example1 reaches
READERS = [
    ("", (), {"pipes", "leak", "boundary", "analysis"}),
    ("pipes[0]", ("pipes", 0), {"type", "c"}),
    ("leak", ("leak",), {"k", "x", "fn"}),
    ("leak.fn", ("leak", "fn"), {"type"}),
    ("analysis", ("analysis",), {"eps_spread", "eps_fit", "nominal_dh", "dh_grid", "h_y"}),
    ("boundary", ("boundary",), {"h_in", "h_out"}),
    ("boundary.h_in", ("boundary", "h_in"), {"from", "to", "steps"}),
]


@st.composite
def unknown_keys(draw):
    """example1 with keys its object does not define put into one object,
    and the problems that must name them."""
    path, keys, known = draw(st.sampled_from(READERS))
    extra = draw(st.dictionaries(
        (NAMES | st.text(max_size=4)).filter(lambda key: key not in known),
        JSON, min_size=1, max_size=3,
    ))
    doc = json.loads(json.dumps(EXAMPLE1))
    target = doc
    for key in keys:
        target = target[key]
    target.update(extra)
    prefix = f"{path}." if path else ""
    return doc, [f"{prefix}{key}: unknown key" for key in extra]


# (document, the unknown-key problems it must raise)
DOCUMENTS = (
    (JSON | st.dictionaries(st.sampled_from(sorted(EXAMPLE1)), JSON).map(
        lambda replaced: {**EXAMPLE1, **replaced}
    )).map(lambda doc: (doc, []))
    | unknown_keys()
)


@settings(max_examples=300, deadline=None)
@given(case=DOCUMENTS)
def test_any_document_loads_or_names_a_path(case):
    doc, unknown = case
    try:
        assert isinstance(load_scenario(doc), Scenario)
    except ScenarioError as exc:
        assert exc.problems
        # an unknown key is named as written, whatever its characters
        assert all(
            re.match(r"[\w.\[\]]+: ", problem) or problem.endswith(": unknown key")
            for problem in exc.problems
        )
        assert set(unknown) <= set(exc.problems)
    else:
        assert not unknown


def test_candidates_example1_pattern(tmp_path):
    assert run("candidates", bundled_scenario("example1"), tmp_path) == 0
    lines = (tmp_path / "candidates.csv").read_text().splitlines()
    assert lines[0] == HEADERS["candidates.csv"]
    x1, x2, x3 = [], [], []
    for line in lines[1:]:
        cells = line.split(",")
        x1.append(float(cells[6]))
        x2.append(float(cells[7]))
        x3.append(float(cells[8]))
    assert len(x2) == 100
    assert all(abs(v - 0.3) <= 1e-6 for v in x2)
    assert max(x1) - min(x1) > 1e-4
    assert max(x3) - min(x3) > 1e-4


def test_leakfit_example3_rejects_pipe3(tmp_path):
    assert run("leakfit", bundled_scenario("example3"), tmp_path) == 0
    samples = (tmp_path / "leakfit_samples.csv").read_text().splitlines()
    pipe3_heads = [
        float(line.split(",")[2]) for line in samples[1:] if line.split(",")[0] == "3"
    ]
    assert any(h < 0.0 for h in pipe3_heads)
    results = (tmp_path / "leakfit_results.csv").read_text().splitlines()
    by_pipe = {line.split(",")[1]: line.split(",") for line in results[1:]}
    assert by_pipe["3"][5] == "true"  # negative_head
    assert by_pipe["3"][6] == "false"  # accepted
    assert by_pipe["2"][6] == "true"


def test_simulate_empty_boundary(tmp_path):
    doc = json.loads(bundled_scenario("example2").read_text())
    doc["boundary"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert run("simulate", path, tmp_path / "out") == 0
    assert (tmp_path / "out" / "simulate.csv").read_text() == (
        HEADERS["simulate.csv"] + "\n"
    )


@pytest.mark.parametrize("command", ["residual-sweep", "confusion"])
def test_empty_dh_grid(tmp_path, command):
    # no rows is not a failure, as for simulate on an empty boundary
    doc = json.loads(bundled_scenario("example2").read_text())
    doc["analysis"]["dh_grid"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert run(command, path, tmp_path / "out") == 0
    filename = command.replace("-", "_") + ".csv"
    assert (tmp_path / "out" / filename).read_text() == HEADERS[filename] + "\n"


@pytest.mark.parametrize("command", ["residual-sweep", "confusion"])
def test_missing_dh_grid(tmp_path, capsys, command):
    # no grid at all, unlike an empty one, is an error line and no CSV
    doc = json.loads(bundled_scenario("example2").read_text())
    del doc["analysis"]["dh_grid"]
    path = tmp_path / "no-grid.json"
    path.write_text(json.dumps(doc))
    assert run(command, path, tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: analysis.dh_grid is required for this command"
    ]
    assert not (tmp_path / "out" / (command.replace("-", "_") + ".csv")).exists()


def test_eps_spread_flag_overrides_scenario(tmp_path):
    args = ["--scenario", str(bundled_scenario("example1")), "--out", str(tmp_path)]
    assert main(["isolate", *args, "--eps-spread", "1e-30"]) == 0
    spreads = (tmp_path / "isolate_spreads.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in spreads] == ["false"] * 3
    summary = (tmp_path / "isolate_summary.csv").read_text().splitlines()
    assert summary[1].startswith("false,")


@pytest.mark.parametrize("eps,pipe,accepted", [("1e-15", "2", "false"), ("1.0", "1", "true")])
def test_eps_fit_flag_overrides_scenario(tmp_path, eps, pipe, accepted):
    args = ["--scenario", str(bundled_scenario("example3")), "--out", str(tmp_path)]
    assert main(["leakfit", *args, "--eps-fit", eps]) == 0
    results = (tmp_path / "leakfit_results.csv").read_text().splitlines()
    by_pipe = {line.split(",")[1]: line.split(",") for line in results[1:]}
    assert by_pipe[pipe][6] == accepted


def test_nominal_dh_flag_supplies_missing_value(tmp_path):
    doc = json.loads(bundled_scenario("example2").read_text())
    del doc["analysis"]["nominal_dh"]
    path = tmp_path / "no-nominal.json"
    path.write_text(json.dumps(doc))
    assert run("confusion", path, tmp_path / "missing") == 1
    out = tmp_path / "flag"
    args = ["--scenario", str(path), "--out", str(out), "--nominal-dh", "4.0"]
    assert main(["confusion", *args]) == 0
    assert run("confusion", bundled_scenario("example2"), tmp_path / "bundled") == 0
    assert (out / "confusion.csv").read_bytes() == (
        tmp_path / "bundled" / "confusion.csv"
    ).read_bytes()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the bracketed fallback can land on another branch and flag it converged",
)
def test_confusion_curve_stays_on_its_branch(tmp_path):
    # example2's branch of pipe 2 through the nominal point folds near dh 3.045;
    # at dh 3.0 the fallback lands on q_in -7.784 and flags it converged
    assert run("confusion", bundled_scenario("example2"), tmp_path) == 0
    with open(tmp_path / "confusion.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for pipe in sorted({row["pipe"] for row in rows}):
        q = [
            float(row["q_in_conf"])
            for row in rows
            if row["pipe"] == pipe and row["converged"] == "true"
        ]
        for q_prev, q_next in zip(q, q[1:]):
            assert abs(q_next - q_prev) <= 0.5 * max(1.0, abs(q_prev)), (pipe, q_prev, q_next)


@pytest.mark.parametrize(
    "flag,value,what",
    [
        ("--eps-spread", "nan", "a non-negative finite number"),
        ("--eps-spread", "-1", "a non-negative finite number"),
        ("--eps-fit", "inf", "a non-negative finite number"),
        ("--eps-fit", "-1e-9", "a non-negative finite number"),
        ("--nominal-dh", "nan", "a finite number"),
        ("--nominal-dh", "-inf", "a finite number"),
    ],
    ids=["spread-nan", "spread-negative", "fit-inf", "fit-negative", "nominal-nan", "nominal-inf"],
)
def test_bad_flag_value_rejected(tmp_path, capsys, flag, value, what):
    args = ["--scenario", str(bundled_scenario("example1")), "--out", str(tmp_path / "out")]
    assert main(["isolate", *args, f"{flag}={value}"]) == 2
    got = repr(float(value))
    assert capsys.readouterr().err == f"error: {flag}: expected {what}, got {got}\n"
    assert not (tmp_path / "out").exists()


def test_leakfit_without_data_points(tmp_path, capsys):
    doc = json.loads(bundled_scenario("example3").read_text())
    doc["boundary"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert run("leakfit", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: need at least 3 data points, got 0\n"


@pytest.mark.parametrize("csv_is_directory", [False, True], ids=["out-is-file", "csv-is-directory"])
def test_unwritable_out_named(tmp_path, capsys, csv_is_directory):
    out = tmp_path / "out"
    if csv_is_directory:
        culprit = out / "simulate.csv"
        culprit.mkdir(parents=True)
    else:
        culprit = out
        out.write_text("")
    assert run("simulate", bundled_scenario("example1"), out) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and str(culprit) in err_lines[0]


def test_isolate_identical_pipes_ambiguous(tmp_path):
    assert run("isolate", bundled_scenario("identical-pipes"), tmp_path) == 0
    summary = (tmp_path / "isolate_summary.csv").read_text().splitlines()
    assert summary[1].startswith("false,")
    assert "identical" in summary[1]


def test_check_reports_linear_pair(tmp_path):
    assert run("check", bundled_scenario("linear-ambiguous"), tmp_path) == 0
    assert (tmp_path / "check.csv").read_text().splitlines()[1] == "1,2,linear"


@pytest.mark.parametrize("name", sorted(APPLICABLE))
def test_all_bundled_scenarios_run(name, tmp_path):
    for command in APPLICABLE[name]:
        out = tmp_path / command
        assert run(command, bundled_scenario(name), out) == 0, (name, command)


def test_byte_identical_reruns(tmp_path):
    for name, command, filename in (
        ("example1", "candidates", "candidates.csv"),
        ("example2", "confusion", "confusion.csv"),
        ("example3", "leakfit", "leakfit_results.csv"),
    ):
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        assert run(command, bundled_scenario(name), a) == 0
        assert run(command, bundled_scenario(name), b) == 0
        assert (a / filename).read_bytes() == (b / filename).read_bytes()


def test_headers_pinned(tmp_path):
    produced = {}
    for command in APPLICABLE["example2"]:
        run(command, bundled_scenario("example2"), tmp_path)
    run("leakfit", bundled_scenario("example3"), tmp_path)
    for filename, header in HEADERS.items():
        text = (tmp_path / filename).read_text()
        assert text.splitlines()[0] == header, filename
        produced[filename] = True
    assert len(produced) == len(HEADERS)


def _unreachable_leak(tmp_path, boundary):
    """example2 with a leak elevation some of `boundary` cannot reach."""
    doc = json.loads(bundled_scenario("example2").read_text())
    doc["leak"]["fn"] = {"type": "power_law_leak", "C": 1.0, "beta": 0.5, "h_y": 3.3}
    doc["boundary"] = boundary
    doc["analysis"]["nominal_dh"] = 7.0
    doc["analysis"]["dh_grid"] = {"from": 3.0, "to": 9.0, "steps": 7}
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps(doc))
    return path


def _error_rows(path):
    """The rows of a CSV, and those blank up to a non-empty error column."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[-1] == "error"
    rows = [next(csv.reader([line])) for line in lines[1:]]
    assert all(len(row) == len(header) for row in rows)
    errors = [row for row in rows if row[-1]]
    for row in errors:
        assert "does not exceed the leak elevation 3.3" in row[-1]
        # the boundary columns stay; the solved ones are blank
        width = 3 if header[0] == "dh" else 4
        assert all(row[:width]) and not any(row[width:-1])
    return rows, errors


@pytest.mark.parametrize("command", ["simulate", "candidates"])
@pytest.mark.parametrize(
    "boundary,rows,failed,code",
    [([[5, 1], [3, 1], [8, 1]], 3, 2, 0), ([[5, 1], [3, 1]], 2, 2, 1)],
    ids=["some-fail", "all-fail"],
)
def test_failed_solve_is_an_error_row(tmp_path, command, boundary, rows, failed, code):
    path = _unreachable_leak(tmp_path, boundary)
    assert run(command, path, tmp_path / "out") == code
    got, errors = _error_rows(tmp_path / "out" / f"{command}.csv")
    assert (len(got), len(errors)) == (rows, failed)


def test_residual_sweep_failed_solves_are_error_rows(tmp_path):
    path = _unreachable_leak(tmp_path, [[8, 1]])
    assert run("residual-sweep", path, tmp_path / "out") == 0
    got, errors = _error_rows(tmp_path / "out" / "residual_sweep.csv")
    assert (len(got), len(errors)) == (7, 4)


def _scaled(lo: int, hi: int):
    """Positive numbers from 10**lo to 10**hi, spread evenly over the decades."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(lo, hi - 1))


POSITIVE = _scaled(-6, 6)
HEAD = st.sampled_from([0.0, 1.0, 2.0]) | st.builds(
    lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]), _scaled(-3, 4)
)
PIPE = st.one_of(
    st.fixed_dictionaries({"type": st.just("linear"), "R": POSITIVE}),
    st.fixed_dictionaries({"type": st.just("signed_quadratic"), "c": POSITIVE}),
    st.fixed_dictionaries({"type": st.just("quadratic_plus_linear"), "c": POSITIVE}),
    st.fixed_dictionaries({
        "type": st.just("power_law"),
        "c": POSITIVE,
        "gamma": st.sampled_from([0.5, 1.0, 1.85, 2.0, 3.0]) | st.floats(0.5, 3.0),
    }),
)
LEAK_FN = st.one_of(
    st.fixed_dictionaries({
        "type": st.just("power_law_leak"),
        "C": POSITIVE,
        "beta": st.floats(0.1, 2.0),
        "h_y": HEAD,
    }),
    st.fixed_dictionaries({
        "type": st.just("fixed_demand"), "q_leak": st.just(0.0) | POSITIVE,
    }),
    st.just({"type": "sqrt"}),
)


@st.composite
def valid_documents(draw):
    pipes = draw(st.lists(PIPE, min_size=1, max_size=5))
    return {
        "pipes": pipes,
        "leak": {
            "k": draw(st.integers(1, len(pipes))),
            "x": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            "fn": draw(LEAK_FN),
        },
        "boundary": draw(st.lists(st.tuples(HEAD, HEAD).map(list), max_size=5)),
        "analysis": {
            "nominal_dh": draw(HEAD),
            "dh_grid": draw(st.lists(HEAD, max_size=4)),
        },
    }


COMMANDS = ["simulate", "candidates", "residual-sweep", "confusion", "isolate", "leakfit", "check"]
ANALYSES = ["residual-sweep", "confusion", "isolate", "leakfit"]

# a zero leak whose flows differ by one ulp, which pipe 1's two section
# head losses round away
EQUAL_HEAD_LOSSES = {
    "pipes": [{"type": "linear", "R": 0.1}, {"type": "signed_quadratic", "c": 0.05}],
    "leak": {"k": 2, "x": 0.5, "fn": {"type": "fixed_demand", "q_leak": 0.0}},
    "boundary": [[2.0, -0.002], [3.0, 1.0]],
}
# a zero leak: its data give candidate positions from rounding alone
POSITION_ONE = {
    "pipes": [{"type": "linear", "R": 0.1}, {"type": "linear", "R": 0.1}],
    "leak": {"k": 1, "x": 0.7, "fn": {"type": "fixed_demand", "q_leak": 0.0}},
    "boundary": [],
    "analysis": {"nominal_dh": 0.5, "dh_grid": [0.5, 1.0]},
}
# the true pipe's leak fit overflows
OVERFLOWING_FIT = {
    "pipes": [
        {"type": "linear", "R": 1.4e-06},
        {"type": "power_law", "c": 1400.0, "gamma": 3.0},
        {"type": "linear", "R": 5.2e-05},
        {"type": "quadratic_plus_linear", "c": 1.6},
    ],
    "leak": {
        "k": 4, "x": 0.82, "fn": {"type": "power_law_leak", "C": 200.0, "beta": 0.26, "h_y": 0.83},
    },
    "boundary": [[1.9, -0.32], [1.1, 0.9], [-0.46, 1.4], [2.1, 3.0]],
}
# a leak so near the inlet that bracketing its head overflows a section flow
INLET_LEAK = {
    "pipes": [{"type": "power_law", "c": 1.0, "gamma": 0.5}],
    "leak": {
        "k": 1, "x": 1.0431682246888698e-286,
        "fn": {"type": "power_law_leak", "C": 1.0, "beta": 1.0, "h_y": 0.0},
    },
    "boundary": [],
    "analysis": {"nominal_dh": 0.0, "dh_grid": []},
}
# pipe 1 inverts any head loss to a flow beyond the float range
TINY_C = {
    "pipes": [{"type": "power_law", "c": 1e-300, "gamma": 0.5}, {"type": "linear", "R": 0.1}],
    "leak": {"k": 2, "x": 0.5, "fn": {"type": "sqrt"}},
    "boundary": [[5.0, 1.0], [3.0, 1.0], [4.0, 1.0]],
    "analysis": {"nominal_dh": 2.0, "dh_grid": [1.0, 2.0, 3.0]},
}
# the states solve, but pipe 1's head loss at its candidate flow is beyond the float range
STEEP_POWER = {
    "pipes": [{"type": "power_law", "c": 1.0, "gamma": 60}, {"type": "linear", "R": 0.001}],
    "leak": {"k": 2, "x": 0.5, "fn": {"type": "fixed_demand", "q_leak": 1e6}},
    "boundary": [[5.0, 1.0], [3.0, 1.0], [4.0, 1.0]],
    "analysis": {"nominal_dh": 2.0, "dh_grid": [1.0, 2.0, 3.0]},
}

# two near-frictionless pipes carry 1e308 each: the flow through the pipes
# that do not leak, and so both flow readings, are beyond the float range
OVERFLOWING_READINGS = {
    "pipes": [
        {"type": "linear", "R": 1e-300},
        {"type": "linear", "R": 1e-300},
        {"type": "quadratic_plus_linear", "c": 1.0},
    ],
    "leak": {"k": 3, "x": 0.5, "fn": {"type": "sqrt"}},
    "boundary": [[100000001.0, 1.0]],
    "analysis": {"nominal_dh": 1e8, "dh_grid": [1e8]},
}
# section head losses beyond the float range give pipes 1 and 3 a NaN candidate at
# every row; pipe 3's law inverts the last row's head loss to NaN, so that row reads
# NaN flows and pipe 2's candidate there is NaN too, whichever row comes first
NAN_CANDIDATES = {
    "pipes": [
        {"type": "quadratic_plus_linear", "c": 7.20923081914773e-06},
        {"type": "linear", "R": 56.18790460061973},
        {"type": "quadratic_plus_linear", "c": 1.3677736446636803e-192},
    ],
    "leak": {"k": 2, "x": 0.1, "fn": {"type": "fixed_demand", "q_leak": 3.006105051331784e190}},
    "boundary": [
        [7.49322262898018, 7.49322262898018],
        [7.49322262898018, 7.49322262898018],
        [7.49322262898118, 7.49322262898018],
        [7.718084489274386e160, 7.49322262898018],
    ],
}


@pytest.mark.filterwarnings("ignore:candidate position")
@settings(max_examples=200, deadline=None)
@given(doc=valid_documents())
@example(doc=EQUAL_HEAD_LOSSES)
@example(doc=POSITION_ONE)
@example(doc=OVERFLOWING_FIT)
@example(doc=INLET_LEAK)
@example(doc=TINY_C)
@example(doc=STEEP_POWER)
@example(doc=OVERFLOWING_READINGS)
@example(doc=NAN_CANDIDATES)
def test_no_command_ends_in_a_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = main([command, "--scenario", str(path), "--out", str(Path(tmp) / command)])
            assert code in (0, 1, 2), command


@pytest.mark.filterwarnings("ignore:candidate position")
@pytest.mark.parametrize(
    "doc,command,code,files,error_rows",
    [
        (EQUAL_HEAD_LOSSES, "candidates", 1, ["candidates.csv"], 2),
        (EQUAL_HEAD_LOSSES, "isolate", 1, [], 0),
        (OVERFLOWING_FIT, "leakfit", 0, ["leakfit_results.csv", "leakfit_samples.csv"], 0),
        (INLET_LEAK, "confusion", 1, [], 0),
        (TINY_C, "simulate", 1, ["simulate.csv"], 3),
        (TINY_C, "candidates", 1, ["candidates.csv"], 3),
        *[(TINY_C, command, 1, [], 0) for command in ANALYSES],
        (STEEP_POWER, "simulate", 0, ["simulate.csv"], 0),
        (STEEP_POWER, "candidates", 1, ["candidates.csv"], 3),
        *[(STEEP_POWER, command, 1, [], 0) for command in ANALYSES],
        (OVERFLOWING_READINGS, "simulate", 0, ["simulate.csv"], 0),
        (OVERFLOWING_READINGS, "candidates", 1, ["candidates.csv"], 1),
        *[(OVERFLOWING_READINGS, command, 1, [], 0) for command in ANALYSES],
        (OVERFLOWING_READINGS, "check", 0, ["check.csv"], 0),
    ],
    ids=[
        "equal-losses-candidates", "equal-losses-isolate",
        "overflowing-fit-leakfit", "inlet-leak-confusion",
        "tiny-c-simulate", "tiny-c-candidates", *[f"tiny-c-{command}" for command in ANALYSES],
        "steep-power-simulate", "steep-power-candidates",
        *[f"steep-power-{command}" for command in ANALYSES],
        "overflowing-readings-simulate", "overflowing-readings-candidates",
        *[f"overflowing-readings-{command}" for command in ANALYSES],
        "overflowing-readings-check",
    ],
)
def test_arithmetic_edge_is_an_error_row_or_line(
    tmp_path, capsys, doc, command, code, files, error_rows
):
    assert_error_rows_or_line(tmp_path, capsys, doc, command, code, files, error_rows)


@pytest.mark.parametrize(
    "command,files,error_rows",
    [("residual-sweep", ["residual_sweep.csv"], 2), ("confusion", [], 0)],
    ids=["residual-sweep", "confusion"],
)
def test_candidate_at_position_one_is_an_error_row_or_line(
    tmp_path, capsys, monkeypatch, command, files, error_rows
):
    # simulated data put a candidate at exactly 1 only through the rounding of
    # a zero leak, so the frozen candidates are set to 1 here, not solved for
    from leakscope import localization

    def at_position_one(pipes, d):
        return [localization.LeakCandidate(j, 1.0) for j in range(1, pipes.n + 1)]

    monkeypatch.setattr(localization, "all_candidates", at_position_one)
    errors = assert_error_rows_or_line(
        tmp_path, capsys, POSITION_ONE, command, 1, files, error_rows
    )
    assert errors and all("position 1 in pipe" in error for error in errors)


def assert_error_rows_or_line(tmp_path, capsys, doc, command, code, files, error_rows):
    """Run one command on doc; return its error cells, or its one error line."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(command, path, out) == code
    err_lines = capsys.readouterr().err.splitlines()
    assert sorted(p.name for p in out.iterdir()) == files
    if files:
        assert err_lines == []
    else:
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    if not error_rows:
        return err_lines
    rows = list(csv.reader((out / files[0]).read_text().splitlines()[1:]))
    assert sum(bool(row[-1]) for row in rows) == error_rows == len(rows)
    return [row[-1] for row in rows]


@pytest.mark.filterwarnings("ignore:candidate position")
@pytest.mark.parametrize("order", [1, -1], ids=["rows-in-order", "rows-reversed"])
def test_a_nan_candidate_leaves_its_pipe_undetermined_in_any_row_order(tmp_path, order):
    path = tmp_path / "doc.json"
    doc = {**NAN_CANDIDATES, "boundary": NAN_CANDIDATES["boundary"][::order]}
    path.write_text(json.dumps(doc))
    assert run("isolate", path, tmp_path) == 0
    assert (tmp_path / "isolate_summary.csv").read_text().splitlines()[1] == (
        "false,,,,pipes 1 2 3 undetermined: a candidate position is not finite"
    )
    spreads = (tmp_path / "isolate_spreads.csv").read_text().splitlines()
    assert spreads == ["pipe,spread,plausible", "1,nan,false", "2,nan,false", "3,nan,false"]


def test_overflowing_fit_ranks_before_negative_head(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(OVERFLOWING_FIT))
    assert run("leakfit", path, tmp_path) == 0
    results = list(csv.reader((tmp_path / "leakfit_results.csv").read_text().splitlines()[1:]))
    # rmse and negative_head, by rank
    assert [(row[4] == "inf", row[5]) for row in results] == [
        (False, "false"), (False, "false"), (True, "false"), (True, "true")
    ]


def test_readings_beyond_the_float_range_are_written_as_inf(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(OVERFLOWING_READINGS))
    assert run("simulate", path, tmp_path) == 0
    (row,) = csv.DictReader((tmp_path / "simulate.csv").read_text().splitlines())
    assert (row["q_in"], row["q_out"], row["error"]) == ("inf", "inf", "")


# -- the command line ------------------------------------------------------------


def reference_parser():
    """The argparse parser that read the command line before the CLI's own reader:
    the reference that reader is checked against."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="leakscope",
        description="Leak localization toolkit for parallel pipe networks",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory for CSV files")
    parser.add_argument("--nominal-dh", type=float, default=None,
                        help="head loss of the nominal data point")
    parser.add_argument("--eps-spread", type=float, default=None,
                        help="candidate spread tolerance for isolation")
    parser.add_argument("--eps-fit", type=float, default=None,
                        help="rmse tolerance for leak function fits")
    return parser


def call(fn, *args):
    """fn(*args) with standard output and error captured: (result, stdout, stderr),
    where the result of a SystemExit is ("exit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(*args)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


USAGE = [
    "usage: leakscope [-h] --scenario SCENARIO --out OUT [--nominal-dh NOMINAL_DH]",
    "                 [--eps-spread EPS_SPREAD] [--eps-fit EPS_FIT]",
    "                 {candidates,check,confusion,isolate,leakfit,residual-sweep,simulate}",
]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_is_argparses_text_at_80_columns(flag):
    _, help_text, _ = call(reference_parser().print_help)
    assert help_text.splitlines()[:3] == USAGE
    assert call(main, [flag]) == (0, help_text, "")
    # help ends the reading wherever it stands, even after a malformed word
    assert call(main, ["bogus", "--scen", "x", flag, "--out"]) == (0, help_text, "")


@pytest.mark.parametrize(
    "argv,errors",
    [
        ([], ["a command is required: one of candidates, check, confusion, isolate, "
              "leakfit, residual-sweep, simulate", "--scenario is required", "--out is required"]),
        (["check", "--scenario", "s.json"], ["--out is required"]),
        (["chek", "--scenario", "s.json", "--out", "o"],
         ["command: expected one of candidates, check, confusion, isolate, leakfit, "
          "residual-sweep, simulate, got 'chek'"]),
        (["check", "--scen", "s.json", "--scenario=s.json", "--out", "o"],
         ["--scen: unknown option", "unexpected argument 's.json'"]),
        (["check", "--scenario", "s.json", "--out"], ["--out: expected a value", "--out is required"]),
        (["check", "--scenario", "s.json", "--out", "o", "--eps-fit=abc", "--nominal-dh", ""],
         ["--eps-fit: expected a number, got 'abc'", "--nominal-dh: expected a number, got ''"]),
        (["check", "--scenario", "s.json", "--out", "o", "--", "isolate", "-h"],
         ["unexpected argument 'isolate'", "unexpected argument '-h'"]),
    ],
    ids=["empty", "missing-out", "unknown-command", "abbreviation", "no-value", "not-a-number",
         "after-separator"],
)
def test_malformed_command_line_prints_usage_and_one_error_line_per_problem(
    tmp_path, monkeypatch, argv, errors
):
    monkeypatch.chdir(tmp_path)
    assert call(main, argv) == (2, "", "\n".join(USAGE + [f"error: {e}" for e in errors]) + "\n")
    assert list(tmp_path.iterdir()) == []


SCENARIO = str(bundled_scenario("example2"))
FLAGS = ["--scenario", "--out", "--nominal-dh", "--eps-spread", "--eps-fit"]
ABBREVIATIONS = ["--scen", "--o", "--nominal", "--eps", "--eps-s", "--h"]
VALUES = ["nan", "-1", "1e400", "abc", "", "4.0", "1e-30", "-inf", " 2 ", "1_0", "out",
          "-x", "-h", SCENARIO]
STRAYS = ["stray", "", "-", "-1", "-x", "--x", "--help=x", "simulate", "check", "--"]


def option(flag, value):
    return st.sampled_from([[flag, value], [f"{flag}={value}"]])


@st.composite
def command_lines(draw):
    """Command lines of commands, options in both forms with odd values, abbreviated
    and valueless flags, help, the separator and stray words, in any order; half of
    them hold a command, a scenario and an output directory, so argparse accepts many."""
    values = st.sampled_from(VALUES)
    piece = st.one_of(
        st.sampled_from(sorted(_COMMANDS)).map(lambda word: [word]),
        st.tuples(st.sampled_from(FLAGS + ABBREVIATIONS), values).flatmap(lambda fv: option(*fv)),
        st.sampled_from(FLAGS + ["-h", "--help"] + STRAYS).map(lambda word: [word]),
    )
    pieces = draw(st.lists(piece, max_size=6))
    if draw(st.booleans()):
        pieces += [[draw(st.sampled_from(sorted(_COMMANDS)))], draw(option("--scenario", SCENARIO)),
                   draw(option("--out", draw(st.sampled_from(["out", "nan", "", SCENARIO]))))]
    return [word for p in draw(st.permutations(pieces)) for word in p]


def _bits(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.filterwarnings("ignore:candidate position")
@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["--scenario", SCENARIO, "--out", "out", "check", "--"])
@example(argv=["--", "isolate", "--scenario", SCENARIO, "--out", "out"])
@example(argv=["check", "--out=out", "--scenario", SCENARIO, "--nominal-dh", "-1",
               "--eps-fit= 2 ", "--eps-spread", "1e400", "--out", ""])
@example(argv=["check", "--scen", SCENARIO, "--out", "out"])
def test_any_command_line_reads_as_argparse_read_it(argv):
    parsed, help_text, _ = call(reference_parser().parse_args, argv)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code, out, err = call(main, argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2) and "Traceback" not in err
    if {word.partition("=")[0] for word in argv} & {*ABBREVIATIONS}:
        pass  # argparse takes abbreviations, the reader refuses them
    elif parsed == ("exit", 0):  # argparse printed its help
        assert (code, out) == (0, help_text)
    elif parsed != ("exit", 2):
        problems = []
        args = _read_args(argv, problems)
        assert problems == []
        assert {k: _bits(v) for k, v in args.items()} == {
            k: _bits(v) for k, v in vars(parsed).items()
        }
    if err.startswith("usage: "):  # a malformed command line
        lines = err.splitlines()
        assert code == 2 and lines[:3] == USAGE and lines[3:]
        assert all(line.startswith("error: ") for line in lines[3:])
