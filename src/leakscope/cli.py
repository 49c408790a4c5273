"""Command line front end: scenario JSON in, plot-ready CSV out."""

from __future__ import annotations

import argparse
import csv
import sys
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path

from . import localization, sensitivity
from .hydraulics import measure, solve_leaky_state, sweep
from .isolation import TooFewPointsError, isolate_by_consistency, isolate_by_leak_fit
from .scenario import Scenario, ScenarioError, parse_scenario, read_options
from .sensitivity import confusion_flow_curve, detect_inherent_ambiguity


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_rows(
    sc: Scenario, path: Path, header: list[str], prefixes: list[list], cells
) -> int:
    """Write one row per prefix, whose entries 1 and 2 are h_in and h_out:
    the prefix, the measured q_in and q_out, `cells(state, d)` for the solved
    state and its data point, and an empty error column. A row whose solve
    or cells raise ValueError keeps its prefix, is blank up to the error
    column and carries the message there. Returns the exit code: 1 when there
    were rows and none succeeded, else 0."""
    rows = []
    any_ok = False
    for prefix in prefixes:
        try:
            state = solve_leaky_state(sc.pipes, sc.leak, prefix[1], prefix[2])
            d = measure(state, sc.pipes, sc.leak)
            rows.append(prefix + [d.q_in, d.q_out] + cells(state, d) + [None])
            any_ok = True
        except ValueError as exc:
            rows.append(prefix + [None] * (len(header) - len(prefix) - 1) + [str(exc)])
    _write_csv(path, header, rows)
    return 1 if prefixes and not any_ok else 0


def _boundary_rows(sc: Scenario, path: Path, columns: list[str], cells) -> int:
    """One row per boundary pair."""
    header = ["index", "h_in", "h_out", "dh", "q_in", "q_out", *columns, "error"]
    prefixes = [
        [idx, h_in, h_out, h_in - h_out] for idx, (h_in, h_out) in enumerate(sc.boundary)
    ]
    return _write_rows(sc, path, header, prefixes, cells)


def _cmd_simulate(sc: Scenario, out: Path) -> int:
    return _boundary_rows(
        sc, out / "simulate.csv", ["h_leak", "q_leak", "q_in_k", "q_out_k"],
        lambda state, d: [state.h_leak, state.q_leak, state.q_in_k, state.q_out_k],
    )


def _cmd_candidates(sc: Scenario, out: Path) -> int:
    return _boundary_rows(
        sc, out / "candidates.csv", [f"x_{j}" for j in range(1, sc.pipes.n + 1)],
        lambda state, d: [c.x_j for c in localization.all_candidates(sc.pipes, d)],
    )


def _nominal_point(sc: Scenario):
    """The nominal data point, its candidate per pipe in pipe order (frozen
    for the analysis commands), and the outlet head it was solved at."""
    nominal_dh = sc.analysis.nominal_dh
    if nominal_dh is None:
        raise ScenarioError(["analysis.nominal_dh (or --nominal-dh) is required"])
    h_out = sc.boundary[0][1] if sc.boundary else 1.0
    state = solve_leaky_state(sc.pipes, sc.leak, h_out + nominal_dh, h_out)
    d = measure(state, sc.pipes, sc.leak)
    frozen = [c.x_j for c in localization.all_candidates(sc.pipes, d)]
    return d, frozen, h_out


def _dh_grid(sc: Scenario):
    if sc.analysis.dh_grid is None:
        raise ScenarioError(["analysis.dh_grid is required for this command"])
    return list(sc.analysis.dh_grid)


def _cmd_residual_sweep(sc: Scenario, out: Path) -> int:
    _, frozen, h_out = _nominal_point(sc)
    header = ["dh", "h_in", "h_out", "q_in", "q_out"] + [
        f"rbar_{j}" for j in range(1, sc.pipes.n + 1)
    ] + ["error"]

    def cells(state, d):
        return [
            localization.residual_bar(sc.pipes, j, x_j, d)
            for j, x_j in enumerate(frozen, start=1)
        ]

    prefixes = [[dh, h_out + dh, h_out] for dh in _dh_grid(sc)]
    return _write_rows(sc, out / "residual_sweep.csv", header, prefixes, cells)


def _cmd_confusion(sc: Scenario, out: Path) -> int:
    """Each pipe's curve is continued from the nominal point outward, up the
    grid from nominal_dh and down it below; rows come in grid order."""
    nominal, frozen, _ = _nominal_point(sc)
    grid = sorted(_dh_grid(sc))
    split = bisect_left(grid, sc.analysis.nominal_dh)

    def curve_rows(i: int, x_i: float, part: list[float]) -> list[list]:
        curve = confusion_flow_curve(sc.pipes, i, x_i, sc.leak, part, seed_qin=nominal.q_in)
        return [
            [i, *point]
            for point in zip(part, curve.q_in_conf, curve.residual_trace, curve.converged)
        ]

    rows = []
    for i, x_i in enumerate(frozen, start=1):
        rows += curve_rows(i, x_i, grid[:split][::-1])[::-1] + curve_rows(i, x_i, grid[split:])
    header = ["pipe", "dh", "q_in_conf", "residual", "converged"]
    _write_csv(out / "confusion.csv", header, rows)
    return 0


def _cmd_isolate(sc: Scenario, out: Path) -> int:
    result = sweep(sc.pipes, sc.leak, list(sc.boundary))
    verdict = isolate_by_consistency(sc.pipes, result.ok(), eps_spread=sc.analysis.eps_spread)
    _write_csv(
        out / "isolate_summary.csv",
        ["isolated", "k_hat", "x_hat", "candidate_pipes", "reason"],
        [[
            verdict.isolated,
            verdict.k_hat,
            verdict.x_hat,
            " ".join(str(j) for j in sorted(verdict.candidate_pipes)),
            verdict.reason,
        ]],
    )
    _write_csv(
        out / "isolate_spreads.csv",
        ["pipe", "spread", "plausible"],
        [
            [j, verdict.spreads[j], verdict.spreads[j] <= sc.analysis.eps_spread]
            for j in sorted(verdict.spreads)
        ],
    )
    return 0


def _cmd_leakfit(sc: Scenario, out: Path) -> int:
    result = sweep(sc.pipes, sc.leak, list(sc.boundary))
    data = result.ok()
    if len(data) < 3:
        raise TooFewPointsError(f"need at least 3 data points, got {len(data)}")
    frozen = {c.j: c.x_j for c in localization.all_candidates(sc.pipes, data[0])}
    h_y = (
        {j: sc.analysis.h_y[j - 1] for j in frozen}
        if sc.analysis.h_y is not None
        else 0.0
    )
    fits = isolate_by_leak_fit(sc.pipes, data, frozen, h_y=h_y, eps_fit=sc.analysis.eps_fit)
    _write_csv(
        out / "leakfit_samples.csv",
        ["pipe", "index", "h_leak_j", "q_leak"],
        [
            [r.j, idx, h_leak, q_leak]
            for r in sorted(fits, key=lambda r: r.j)
            for idx, (h_leak, q_leak) in enumerate(r.samples)
        ],
    )
    _write_csv(
        out / "leakfit_results.csv",
        ["rank", "pipe", "C", "beta", "rmse", "negative_head", "accepted"],
        [
            [rank, r.j, r.C_j, r.beta_j, r.rmse, r.negative_head, r.accepted]
            for rank, r in enumerate(fits, start=1)
        ],
    )
    return 0


def _cmd_check(sc: Scenario, out: Path) -> int:
    flagged = detect_inherent_ambiguity(sc.pipes)
    _write_csv(
        out / "check.csv",
        ["pipe_a", "pipe_b", "reason"],
        [[a, b, reason] for (a, b), reason in flagged],
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "candidates": _cmd_candidates,
    "residual-sweep": _cmd_residual_sweep,
    "confusion": _cmd_confusion,
    "isolate": _cmd_isolate,
    "leakfit": _cmd_leakfit,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problems: list[str] = []
    overrides = read_options(vars(args), lambda name: "--" + name.replace("_", "-"), problems)
    try:
        sc = parse_scenario(args.scenario)
    except ScenarioError as exc:
        problems += exc.problems
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    sc = replace(sc, analysis=replace(sc.analysis, **overrides))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](sc, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
