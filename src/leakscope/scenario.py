"""Scenario file parsing and validation (JSON)."""

from __future__ import annotations

import json
import math
import os
import sys

from .headloss import Linear, PipeSet, PowerLaw, QuadraticPlusLinear, SignedQuadratic, Value
from .hydraulics import FixedDemand, LeakSpec, PowerLawLeak, SqrtLeak


class ScenarioError(ValueError):
    """Parse or validation failure, listing every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class AnalysisOptions(Value):
    __slots__ = ("_eps_spread", "_eps_fit", "_nominal_dh", "_dh_grid", "_h_y")

    def __init__(
        self,
        eps_spread: float = 1e-6,
        eps_fit: float = 1e-6,
        nominal_dh: float | None = None,
        dh_grid: tuple[float, ...] | None = None,
        h_y: tuple[float, ...] | None = None,  # per pipe
    ):
        self._eps_spread, self._eps_fit, self._nominal_dh = eps_spread, eps_fit, nominal_dh
        self._dh_grid, self._h_y = dh_grid, h_y


class Scenario(Value):
    __slots__ = ("_pipes", "_leak", "_boundary", "_analysis")

    def __init__(
        self,
        pipes: PipeSet,
        leak: LeakSpec,
        boundary: tuple[tuple[float, float], ...],
        analysis: AnalysisOptions = AnalysisOptions(),  # immutable, so one default serves all
    ):
        self._pipes, self._leak, self._boundary, self._analysis = pipes, leak, boundary, analysis


# A rule is (what the value must be, test on the finite float).
FINITE = ("a finite number", lambda v: True)
POSITIVE = ("a positive finite number", lambda v: v > 0)
NON_NEGATIVE = ("a non-negative finite number", lambda v: v >= 0)
UNIT_OPEN = ("a number in (0,1)", lambda v: 0 < v < 1)


def _integer(lo: float, hi: float):
    return (f"an integer in {lo}..{hi}", lambda v: v.is_integer() and lo <= v <= hi)


# a range builds all its values up front, so its size is bounded
STEPS = _integer(1, 1_000_000)

# analysis options that a document or a command line flag may set
_OPTION_RULES = {"eps_spread": NON_NEGATIVE, "eps_fit": NON_NEGATIVE, "nominal_dh": FINITE}

# {type: (constructor, {field: rule}, {optional field: rule})}; a required
# field that is absent or null is reported, an optional one takes the
# constructor's default
_PIPE_TYPES = {
    "linear": (Linear, {"R": POSITIVE}, {}),
    "signed_quadratic": (SignedQuadratic, {"c": POSITIVE}, {}),
    "quadratic_plus_linear": (QuadraticPlusLinear, {"c": POSITIVE}, {}),
    "power_law": (PowerLaw, {"c": POSITIVE, "gamma": POSITIVE}, {}),
}
_LEAK_TYPES = {
    "power_law_leak": (PowerLawLeak, {"C": POSITIVE, "beta": POSITIVE}, {"h_y": FINITE}),
    "fixed_demand": (FixedDemand, {"q_leak": NON_NEGATIVE}, {}),
    "sqrt": (SqrtLeak, {}, {}),
}


def _number(value, path: str, problems: list[str], rule=FINITE) -> float | None:
    """The document value as a finite float passing `rule`, or None after
    recording "<path>: expected <what>, got <value>". Strings and booleans
    are not numbers."""
    what, test = rule
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if finite and test(float(value)):
        return float(value)
    problems.append(f"{path}: expected {what}, got {value!r}")
    return None


def _numbers(values, path: str, problems: list[str], rule=FINITE, n: int | None = None):
    """A list of numbers read by `_number`, with exactly n entries if n is
    given; None after recording the problems."""
    if not isinstance(values, list) or (n is not None and len(values) != n):
        size = "" if n is None else f"{n} "
        problems.append(f"{path}: expected a list of {size}numbers, got {values!r}")
        return None
    out = tuple(_number(v, f"{path}[{i}]", problems, rule) for i, v in enumerate(values))
    return None if None in out else out


def _known(obj: dict, path: str, problems: list[str], keys) -> None:
    """Record "<path>.<key>: unknown key" for every key of `obj` outside
    `keys`; a misspelt key would otherwise run with the default value."""
    prefix = f"{path}." if path else ""
    problems.extend(f"{prefix}{key}: unknown key" for key in obj if key not in keys)


def _object(obj, path: str, problems: list[str], table: dict):
    """Build `constructor(**fields)` for the entry of `table` that the
    object's "type" names; None after recording the problems."""
    if not isinstance(obj, dict):
        problems.append(f"{path}: expected an object, got {obj!r}")
        return None
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in table:
        problems.append(f"{path}.type: expected one of {', '.join(table)}, got {kind!r}")
        return None
    constructor, required, optional = table[kind]
    _known(obj, path, problems, {"type", *required, *optional})
    kwargs = {
        name: _number(obj.get(name), f"{path}.{name}", problems, rule)
        for name, rule in (*required.items(), *optional.items())
        if name in required or obj.get(name) is not None
    }
    return None if None in kwargs.values() else constructor(**kwargs)


def read_options(values: dict, path, problems: list[str]) -> dict:
    """The `_OPTION_RULES` options that `values` sets to something other than
    None, each read by `_number` and named `path(name)` in the problems."""
    return {
        name: _number(values[name], path(name), problems, rule)
        for name, rule in _OPTION_RULES.items()
        if values.get(name) is not None
    }


def _range(obj: dict, path: str, problems: list[str]) -> tuple[float, ...]:
    """`steps` evenly spaced values from `from` to `to` inclusive; a range
    whose spacing overflows, as `to - from` does past the float range, is
    recorded as a problem."""
    _known(obj, path, problems, ("from", "to", "steps"))
    lo = _number(obj.get("from"), f"{path}.from", problems)
    hi = _number(obj.get("to"), f"{path}.to", problems)
    steps = _number(obj.get("steps"), f"{path}.steps", problems, STEPS)
    if None in (lo, hi, steps):
        return ()
    last = int(steps) - 1
    values = tuple(lo + (hi - lo) * i / last for i in range(last + 1)) if last else (lo,)
    if not all(map(math.isfinite, values)):
        problems.append(
            f"{path}: spacing {last + 1} values from {lo!r} to {hi!r} overflows the float range"
        )
        return ()
    return values


def _boundary(obj, problems: list[str]) -> list[tuple[float, float]]:
    if isinstance(obj, list):
        pairs = (_numbers(p, f"boundary[{i}]", problems, n=2) for i, p in enumerate(obj))
        return [pair for pair in pairs if pair is not None]
    if not isinstance(obj, dict):
        problems.append(f"boundary: expected a list of pairs or a range spec, got {obj!r}")
        return []
    _known(obj, "boundary", problems, ("h_in", "h_out"))
    h_in, h_out = obj.get("h_in"), obj.get("h_out")
    if isinstance(h_in, dict) == isinstance(h_out, dict):
        problems.append("boundary: exactly one of h_in/h_out must be a range")
        return []
    if isinstance(h_in, dict):
        h_out = _number(h_out, "boundary.h_out", problems)
        return [(h, h_out) for h in _range(h_in, "boundary.h_in", problems)]
    h_in = _number(h_in, "boundary.h_in", problems)
    return [(h_in, h) for h in _range(h_out, "boundary.h_out", problems)]


def load_scenario(doc: dict) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ScenarioError([f"scenario: expected an object, got {doc!r}"])
    problems: list[str] = []
    _known(doc, "", problems, ("pipes", "leak", "boundary", "analysis"))

    pipe_objs = doc.get("pipes")
    if not isinstance(pipe_objs, list) or not pipe_objs:
        problems.append("pipes: expected a non-empty list")
        pipe_objs = []
    n = len(pipe_objs) or None
    pipes = [_object(p, f"pipes[{i}]", problems, _PIPE_TYPES) for i, p in enumerate(pipe_objs)]

    leak = doc.get("leak")
    if isinstance(leak, dict):
        _known(leak, "leak", problems, ("k", "x", "fn"))
        k = _number(leak.get("k"), "leak.k", problems, _integer(1, n or math.inf))
        x = _number(leak.get("x"), "leak.x", problems, UNIT_OPEN)
        fn = _object(leak.get("fn"), "leak.fn", problems, _LEAK_TYPES)
    else:
        problems.append(f"leak: expected an object, got {leak!r}")

    boundary = _boundary(doc.get("boundary", []), problems)

    a = doc.get("analysis", {})
    if not isinstance(a, dict):
        problems.append(f"analysis: expected an object, got {a!r}")
        a = {}
    _known(a, "analysis", problems, {*_OPTION_RULES, "dh_grid", "h_y"})
    options = read_options(a, lambda name: f"analysis.{name}", problems)
    dh_grid = a.get("dh_grid")
    if isinstance(dh_grid, dict):
        options["dh_grid"] = _range(dh_grid, "analysis.dh_grid", problems)
    elif dh_grid is not None:
        options["dh_grid"] = _numbers(dh_grid, "analysis.dh_grid", problems)
    if a.get("h_y") is not None:
        options["h_y"] = _numbers(a["h_y"], "analysis.h_y", problems, FINITE, n)

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        pipes=PipeSet(pipes=tuple(pipes)),
        leak=LeakSpec(k=int(k), x=x, leak=fn),
        boundary=tuple(boundary),
        analysis=AnalysisOptions(**options),
    )


def parse_scenario(path: str | os.PathLike) -> Scenario:
    """Read, parse, and validate a scenario file. JSON is UTF-8 (RFC 8259),
    so `json.loads` decodes the bytes, whatever the locale's encoding."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read file: {exc.strerror or exc}"])
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"])
    except RecursionError:
        raise ScenarioError([f"{path}: invalid JSON: nested too deeply"])
    except ValueError as exc:  # e.g. an integer literal over the digit limit
        raise ScenarioError([f"{path}: invalid JSON: {exc}"])
    return load_scenario(doc)
