"""Command line front end: scenario JSON in, plot-ready CSV out."""

from __future__ import annotations

import csv
import os
import sys

from .headloss import detect_inherent_ambiguity
from .hydraulics import measure, solve_leaky_state, sweep
from .scenario import Scenario, ScenarioError, parse_scenario, read_options

# Each command imports the layers it runs beyond the forward solve, so a
# process loads only those.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_rows(
    sc: Scenario, path: str, header: list[str], prefixes: list[list], cells
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


def _boundary_rows(sc: Scenario, path: str, columns: list[str], cells) -> int:
    """One row per boundary pair."""
    header = ["index", "h_in", "h_out", "dh", "q_in", "q_out", *columns, "error"]
    prefixes = [
        [idx, h_in, h_out, h_in - h_out] for idx, (h_in, h_out) in enumerate(sc.boundary)
    ]
    return _write_rows(sc, path, header, prefixes, cells)


def _cmd_simulate(sc: Scenario, out: str) -> int:
    return _boundary_rows(
        sc, os.path.join(out, "simulate.csv"), ["h_leak", "q_leak", "q_in_k", "q_out_k"],
        lambda state, d: [state.h_leak, state.q_leak, state.q_in_k, state.q_out_k],
    )


def _cmd_candidates(sc: Scenario, out: str) -> int:
    from .localization import all_candidates

    return _boundary_rows(
        sc, os.path.join(out, "candidates.csv"), [f"x_{j}" for j in range(1, sc.pipes.n + 1)],
        lambda state, d: [c.x_j for c in all_candidates(sc.pipes, d)],
    )


def _nominal_point(sc: Scenario):
    """The nominal data point, its candidate per pipe in pipe order (frozen
    for the analysis commands), and the outlet head it was solved at."""
    from .localization import all_candidates

    nominal_dh = sc.analysis.nominal_dh
    if nominal_dh is None:
        raise ScenarioError(["analysis.nominal_dh (or --nominal-dh) is required"])
    h_out = sc.boundary[0][1] if sc.boundary else 1.0
    state = solve_leaky_state(sc.pipes, sc.leak, h_out + nominal_dh, h_out)
    d = measure(state, sc.pipes, sc.leak)
    frozen = [c.x_j for c in all_candidates(sc.pipes, d)]
    return d, frozen, h_out


def _dh_grid(sc: Scenario):
    if sc.analysis.dh_grid is None:
        raise ScenarioError(["analysis.dh_grid is required for this command"])
    return list(sc.analysis.dh_grid)


def _cmd_residual_sweep(sc: Scenario, out: str) -> int:
    from .localization import residual_bar

    _, frozen, h_out = _nominal_point(sc)
    header = ["dh", "h_in", "h_out", "q_in", "q_out"] + [
        f"rbar_{j}" for j in range(1, sc.pipes.n + 1)
    ] + ["error"]

    def cells(state, d):
        return [
            residual_bar(sc.pipes, j, x_j, d)
            for j, x_j in enumerate(frozen, start=1)
        ]

    prefixes = [[dh, h_out + dh, h_out] for dh in _dh_grid(sc)]
    return _write_rows(sc, os.path.join(out, "residual_sweep.csv"), header, prefixes, cells)


def _cmd_confusion(sc: Scenario, out: str) -> int:
    """Each pipe's curve is continued from the nominal point outward, up the
    grid from nominal_dh and down it below; rows come in grid order."""
    from bisect import bisect_left

    from .sensitivity import confusion_flow_curve

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
    _write_csv(os.path.join(out, "confusion.csv"), header, rows)
    return 0


def _cmd_isolate(sc: Scenario, out: str) -> int:
    from .isolation import isolate_by_consistency

    result = sweep(sc.pipes, sc.leak, list(sc.boundary))
    verdict = isolate_by_consistency(sc.pipes, result.ok(), eps_spread=sc.analysis.eps_spread)
    _write_csv(
        os.path.join(out, "isolate_summary.csv"),
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
        os.path.join(out, "isolate_spreads.csv"),
        ["pipe", "spread", "plausible"],
        [
            [j, verdict.spreads[j], j == verdict.k_hat or j in verdict.candidate_pipes]
            for j in sorted(verdict.spreads)
        ],
    )
    return 0


def _cmd_leakfit(sc: Scenario, out: str) -> int:
    from .isolation import TooFewPointsError, isolate_by_leak_fit
    from .localization import all_candidates

    result = sweep(sc.pipes, sc.leak, list(sc.boundary))
    data = result.ok()
    if len(data) < 3:
        raise TooFewPointsError(f"need at least 3 data points, got {len(data)}")
    frozen = {c.j: c.x_j for c in all_candidates(sc.pipes, data[0])}
    h_y = (
        {j: sc.analysis.h_y[j - 1] for j in frozen}
        if sc.analysis.h_y is not None
        else 0.0
    )
    fits = isolate_by_leak_fit(sc.pipes, data, frozen, h_y=h_y, eps_fit=sc.analysis.eps_fit)
    _write_csv(
        os.path.join(out, "leakfit_samples.csv"),
        ["pipe", "index", "h_leak_j", "q_leak"],
        [
            [r.j, idx, h_leak, q_leak]
            for r in sorted(fits, key=lambda r: r.j)
            for idx, (h_leak, q_leak) in enumerate(r.samples)
        ],
    )
    _write_csv(
        os.path.join(out, "leakfit_results.csv"),
        ["rank", "pipe", "C", "beta", "rmse", "negative_head", "accepted"],
        [
            [rank, r.j, r.C_j, r.beta_j, r.rmse, r.negative_head, r.accepted]
            for rank, r in enumerate(fits, start=1)
        ],
    )
    return 0


def _cmd_check(sc: Scenario, out: str) -> int:
    flagged = detect_inherent_ambiguity(sc.pipes)
    _write_csv(
        os.path.join(out, "check.csv"),
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
_CHOICES = "{" + ",".join(sorted(_COMMANDS)) + "}"


# each option, given as `--flag value` or `--flag=value`: its help text, the
# function that reads its value, and whether it is required
_OPTIONS = {
    "--scenario": ("scenario JSON file", str, True),
    "--out": ("output directory for CSV files", str, True),
    "--nominal-dh": ("head loss of the nominal data point", float, False),
    "--eps-spread": ("candidate spread tolerance for isolation", float, False),
    "--eps-fit": ("rmse tolerance for leak function fits", float, False),
}


def _name(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage() -> str:
    """The usage lines, wrapped at 80 columns as argparse wraps them: the
    options after the program name, then the commands on a line of their own."""
    indent = " " * len("usage: leakscope ")
    lines = ["usage: leakscope [-h]"]
    for flag, (_, _, required) in _OPTIONS.items():
        part = f"{flag} {_name(flag).upper()}"
        part = part if required else f"[{part}]"
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    return "\n".join([*lines, indent + _CHOICES])


def _help() -> str:
    """The help text, laid out as argparse lays it out at 80 columns."""
    rows = [("-h, --help", "show this help message and exit")] + [
        (f"{flag} {_name(flag).upper()}", text) for flag, (text, _, _) in _OPTIONS.items()
    ]
    return "\n".join([
        _usage(), "", "Leak localization toolkit for parallel pipe networks", "",
        "positional arguments:", "  " + _CHOICES, "", "options:",
        *(f"  {inv:20}  {text}" if len(inv) <= 20 else f"  {inv}\n{'':24}{text}"
          for inv, text in rows),
    ])


def _read_args(argv: list[str], problems: list[str]) -> dict | None:
    """The command and each option by its snake-case name, None where not
    given; None for -h or --help. A flag takes the next word as its value,
    whatever it is, and a repeated flag keeps its last value; flags are not
    abbreviated, and every word after `--` is positional. Each problem is
    recorded as one line of `problems`."""
    args = dict.fromkeys(["command", *map(_name, _OPTIONS)])
    positional: list[str] = []
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if word == "--":
            positional.extend(words)
            break
        if not word.startswith("-"):
            positional.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in _OPTIONS:
            problems.append(f"{flag}: unknown option")
        elif not eq and (value := next(words, None)) is None:
            problems.append(f"{flag}: expected a value")
        else:
            try:
                args[_name(flag)] = _OPTIONS[flag][1](value)
            except ValueError:
                problems.append(f"{flag}: expected a number, got {value!r}")
    commands = ", ".join(sorted(_COMMANDS))
    if not positional:
        problems.append(f"a command is required: one of {commands}")
    elif positional[0] in _COMMANDS:
        args["command"] = positional[0]
    else:
        problems.append(f"command: expected one of {commands}, got {positional[0]!r}")
    problems += [f"unexpected argument {word!r}" for word in positional[1:]]
    problems += [f"{flag} is required" for flag, (_, _, required) in _OPTIONS.items()
                 if required and args[_name(flag)] is None]
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit
    code: 0 for help, 2 for a malformed command line or an invalid scenario,
    1 when the command could not run or no row succeeded."""
    problems: list[str] = []
    args = _read_args(sys.argv[1:] if argv is None else argv, problems)
    if args is None:
        print(_help())
        return 0
    if problems:
        print(_usage(), *(f"error: {problem}" for problem in problems), sep="\n", file=sys.stderr)
        return 2
    overrides = read_options(args, lambda name: "--" + name.replace("_", "-"), problems)
    try:
        sc = parse_scenario(args["scenario"])
    except ScenarioError as exc:
        problems += exc.problems
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    sc = sc.replace(analysis=sc.analysis.replace(**overrides))
    try:
        os.makedirs(args["out"], exist_ok=True)
        return _COMMANDS[args["command"]](sc, args["out"])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
