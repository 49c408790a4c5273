"""Scenario file parsing and validation (JSON)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .headloss import HeadLossFn, Linear, PipeSet, PowerLaw, QuadraticPlusLinear, SignedQuadratic
from .hydraulics import FixedDemand, LeakFn, LeakSpec, PowerLawLeak, SqrtLeak


class ScenarioError(ValueError):
    """Parse or validation failure, listing every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class AnalysisOptions:
    eps_spread: float = 1e-6
    eps_fit: float = 1e-6
    nominal_dh: float | None = None
    dh_grid: tuple[float, ...] | None = None
    h_y: tuple[float, ...] | None = None  # per pipe


@dataclass(frozen=True)
class Scenario:
    pipes: PipeSet
    leak: LeakSpec
    boundary: tuple[tuple[float, float], ...]
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)


_PIPE_TYPES = {
    "linear": (Linear, ("R",)),
    "signed_quadratic": (SignedQuadratic, ("c",)),
    "quadratic_plus_linear": (QuadraticPlusLinear, ("c",)),
    "power_law": (PowerLaw, ("c", "gamma")),
}


def _parse_pipe(obj, path: str, problems: list[str]) -> HeadLossFn | None:
    if not isinstance(obj, dict):
        problems.append(f"{path}: expected an object, got {obj!r}")
        return None
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _PIPE_TYPES:
        problems.append(f"{path}.type: unknown head loss type {kind!r}")
        return None
    cls, fields = _PIPE_TYPES[kind]
    kwargs = {}
    for name in fields:
        if name not in obj:
            problems.append(f"{path}.{name}: missing")
            return None
        try:
            value = float(obj[name])
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            problems.append(
                f"{path}.{name}: expected a positive finite number, got {obj[name]!r}"
            )
            return None
        kwargs[name] = value
    return cls(**kwargs)


def _parse_leak_fn(obj: dict, path: str, problems: list[str]) -> LeakFn | None:
    kind = obj.get("type")
    try:
        if kind == "power_law_leak":
            return PowerLawLeak(
                C=float(obj["C"]), beta=float(obj["beta"]),
                h_y=float(obj.get("h_y", 0.0)),
            )
        if kind == "fixed_demand":
            return FixedDemand(q_leak=float(obj["q_leak"]))
        if kind == "sqrt":
            return SqrtLeak()
    except KeyError as exc:
        problems.append(f"{path}.{exc.args[0]}: missing")
        return None
    except ValueError as exc:
        problems.append(f"{path}: {exc}")
        return None
    problems.append(f"{path}.type: unknown leak type {kind!r}")
    return None


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _parse_range(obj: dict) -> list[float]:
    return _linspace(float(obj["from"]), float(obj["to"]), int(obj["steps"]))


def _parse_boundary(obj, problems: list[str]) -> list[tuple[float, float]]:
    if isinstance(obj, list):
        out = []
        for idx, pair in enumerate(obj):
            if not (isinstance(pair, list) and len(pair) == 2):
                problems.append(f"boundary[{idx}]: expected [h_in, h_out]")
                continue
            out.append((float(pair[0]), float(pair[1])))
        return out
    if isinstance(obj, dict):
        try:
            h_in = obj["h_in"]
            h_out = obj["h_out"]
            h_ins = _parse_range(h_in) if isinstance(h_in, dict) else None
            h_outs = _parse_range(h_out) if isinstance(h_out, dict) else None
            if h_ins is not None and h_outs is None:
                return [(h, float(h_out)) for h in h_ins]
            if h_outs is not None and h_ins is None:
                return [(float(h_in), h) for h in h_outs]
            problems.append("boundary: exactly one of h_in/h_out may be a range")
        except KeyError as exc:
            problems.append(f"boundary.{exc.args[0]}: missing")
        return []
    problems.append("boundary: expected a list of pairs or a range spec")
    return []


def load_scenario(doc: dict) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    problems: list[str] = []

    pipe_objs = doc.get("pipes")
    pipes_list: list[HeadLossFn] = []
    if not isinstance(pipe_objs, list) or not pipe_objs:
        problems.append("pipes: expected a non-empty list")
    else:
        for idx, obj in enumerate(pipe_objs):
            p = _parse_pipe(obj, f"pipes[{idx}]", problems)
            if p is not None:
                pipes_list.append(p)

    lengths = doc.get("lengths")
    if lengths is not None:
        lengths = tuple(float(v) for v in lengths)
        if pipes_list and len(lengths) != len(pipes_list):
            problems.append("lengths: must match the number of pipes")
            lengths = None
        elif any(L <= 0 for L in lengths):
            problems.append("lengths: all must be positive")
            lengths = None

    leak_obj = doc.get("leak")
    leak = None
    if not isinstance(leak_obj, dict):
        problems.append("leak: missing or not an object")
    else:
        fn = _parse_leak_fn(leak_obj.get("fn", {}), "leak.fn", problems)
        k = int(leak_obj.get("k", 0))
        x = float(leak_obj.get("x", -1.0))
        if pipes_list and not 1 <= k <= len(pipes_list):
            problems.append(f"leak.k: pipe index {k} out of range 1..{len(pipes_list)}")
        if not 0.0 < x < 1.0:
            problems.append(f"leak.x: relative position {x} not in (0,1)")
        if fn is not None and not problems:
            leak = LeakSpec(k=k, x=x, leak=fn)

    boundary = _parse_boundary(doc.get("boundary", []), problems)

    a = doc.get("analysis", {})
    dh_grid = a.get("dh_grid")
    if isinstance(dh_grid, dict):
        dh_grid = _parse_range(dh_grid)
    h_y = a.get("h_y")
    analysis = AnalysisOptions(
        eps_spread=float(a.get("eps_spread", 1e-6)),
        eps_fit=float(a.get("eps_fit", 1e-6)),
        nominal_dh=float(a["nominal_dh"]) if "nominal_dh" in a else None,
        dh_grid=tuple(dh_grid) if dh_grid is not None else None,
        h_y=tuple(float(v) for v in h_y) if h_y is not None else None,
    )

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        pipes=PipeSet(pipes=tuple(pipes_list), lengths=lengths),
        leak=leak,
        boundary=tuple(boundary),
        analysis=analysis,
    )


def parse_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"])
    return load_scenario(doc)
