"""Pipe head loss laws, admittance sums over a set of parallel pipes, and
the pipe pairs whose laws no data can tell apart.

All loss laws are odd, strictly increasing bijections of the real line. The law
classes are a closed set, `PowerLaw` and `QuadraticPlusLinear`, whose formulas
are all written here; `PipeSet` refuses any other. `Linear` and
`SignedQuadratic` build the power laws with gamma = 1 and 2, so equal laws
compare equal however spelled. `test_outflow_map_matches_the_per_call_formula`
keeps the outflow maps' inline `evaluate` and `invert` bit for bit equal.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from itertools import accumulate, combinations
from math import copysign, nan, sqrt
from operator import add, attrgetter


class Value:
    """Base of leakscope's immutable records, which behave as frozen dataclasses.

    A subclass names its fields' slots in `__slots__`, each with a leading
    underscore: `__slots__ = ("_c", "_gamma")`. The base puts a read-only
    property under each public name (`c`, `gamma`), so a field refuses
    assignment and deletion, and no instance has a `__dict__`. The `_` slots
    are private to the class: its `__init__` checks its arguments and then
    stores the fields with plain assignments, `self._c, self._gamma = c,
    gamma`, which CPython makes at slot speed because the base hooks no
    assignment, and its methods that run per call read the slots directly.
    Instances compare and hash by their fields within one class and repr as
    `Name(field=value, ...)`. Building a class runs no generated code, which
    keeps the import of leakscope short.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        slots = vars(cls).get("__slots__")
        if not slots:  # a subclass without slots, or with empty ones, keeps its base's fields
            return
        cls._fields = tuple(slot[1:] for slot in slots)  # the public names
        for slot, name in zip(slots, cls._fields):
            assert slot.startswith("_") and not hasattr(cls, name), f"{cls.__name__}.{slot}"
            setattr(cls, name, property(attrgetter(slot)))
        # all fields as one tuple, read at C speed: == and hash run per state
        get = attrgetter(*slots)
        cls._values = get if len(slots) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__class__._values(self) == self.__class__._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks the fields again
        return self.__class__, self.__class__._values(self)

    def _asdict(self) -> dict:
        """The fields by name, in `__slots__` order."""
        return dict(zip(self._fields, self.__class__._values(self)))

    def replace(self, **changes):
        """A copy with `changes` to some fields, checked by `__init__` again."""
        return self.__class__(**{**self._asdict(), **changes})


class UnboundedDerivativeError(ValueError):
    """The loss law has no finite derivative at the requested flow."""


class HeadLossFn:
    """Base of the two loss law classes, `QuadraticPlusLinear` and `PowerLaw`.

    Each writes `evaluate`, a closed-form `invert`, `derivative`, `shape_key`
    (equal keys: laws that differ by a positive factor) and two maps built once
    per leak position. `outflow_map(x_j)`, x_j < 1: (G, dh, q_in) -> the outflow
    implied, given the flow G through the other pipes, and its q_in-slope
    -x_j/(1 - x_j) U'(a)/U'(b) at the section flows a, b (NaN where one is 0).
    `section_map(x)`: (head_in, head_out) -> their section flows, by `invert`,
    and 1/(x U'(q_in)) + 1/((1 - x) U'(q_out)) (NaN where either head is 0).
    """

    __slots__ = ()


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


class QuadraticPlusLinear(HeadLossFn, Value):
    """U(q) = c (q |q| + q)."""

    __slots__ = ("_c",)

    def __init__(self, c: float):
        _check_positive("c", c)
        self._c = c

    def evaluate(self, q: float) -> float:
        return self._c * (q * abs(q) + q)

    def invert(self, h: float) -> float:
        # for h >= 0 solve q^2 + q - h/c = 0, positive branch; odd extension.
        # a / (1/2 + sqrt(1/4 + a)) is (-1 + sqrt(1 + 4a)) / 2 without its
        # cancellation at small a, and it does not overflow at large a
        a = abs(h) / self._c
        q = a / (0.5 + math.sqrt(0.25 + a))
        return math.copysign(q, h)

    def derivative(self, q: float) -> float:
        return self._c * (2.0 * abs(q) + 1.0)

    def shape_key(self) -> tuple:
        return ("quadratic_plus_linear",)

    def outflow_map(self, x_j: float) -> Callable[..., tuple[float, float]]:
        c, w = self._c, 1.0 - x_j
        r, m = x_j / w, -x_j / w

        def outflow(G: float, dh: float, q_in: float) -> tuple[float, float]:
            a = q_in - G
            head_in = c * (a * abs(a) + a)
            head_out = dh / w - r * head_in
            s = abs(head_out) / c
            b = copysign(s / (0.5 + sqrt(0.25 + s)), head_out)
            return b + G, m * ((2.0 * abs(a) + 1.0) / (2.0 * abs(b) + 1.0))

        return outflow

    def section_map(self, x: float) -> Callable[..., tuple[float, float, float]]:
        invert, x1, c = self.invert, 1.0 - x, self._c

        def section(head_in: float, head_out: float) -> tuple[float, float, float]:
            q_in, q_out = invert(head_in / x), invert(head_out / x1)
            s = (1.0 / (x * (2.0 * abs(q_in) + 1.0)) + 1.0 / (x1 * (2.0 * abs(q_out) + 1.0))) / c
            return q_in, q_out, s if head_in and head_out else nan

        return section


class PowerLaw(HeadLossFn, Value):
    """U(q) = c sign(q) |q|^gamma.

    gamma = 2 takes the closed forms c |q| q and sqrt rather than the
    general power, which rounds differently. At gamma = 1 the general
    formulas give exactly c q, h / c and c. A power beyond the float range
    raises ValueError.
    """

    __slots__ = ("_c", "_gamma")

    def __init__(self, c: float, gamma: float):
        _check_positive("c", c)
        _check_positive("gamma", gamma)
        self._c, self._gamma = c, gamma

    def evaluate(self, q: float) -> float:
        gamma = self._gamma
        if gamma == 2.0:
            return self._c * abs(q) * q
        try:
            return math.copysign(self._c * abs(q) ** gamma, q)
        except OverflowError:
            raise ValueError(f"{self!r}.evaluate({q!r}) is beyond the float range") from None

    def invert(self, h: float) -> float:
        gamma = self._gamma
        if gamma == 2.0:
            return math.copysign(math.sqrt(abs(h) / self._c), h)
        try:
            return math.copysign((abs(h) / self._c) ** (1.0 / gamma), h)
        except OverflowError:
            raise ValueError(f"{self!r}.invert({h!r}) is beyond the float range") from None

    def derivative(self, q: float) -> float:
        if q == 0.0 and self._gamma < 1.0:
            raise UnboundedDerivativeError(
                f"power law with gamma={self._gamma} < 1 has unbounded slope at q=0"
            )
        try:
            return self._c * self._gamma * abs(q) ** (self._gamma - 1.0)
        except OverflowError:
            raise ValueError(f"{self!r}.derivative({q!r}) is beyond the float range") from None

    def shape_key(self) -> tuple:
        return ("power", self._gamma)

    def outflow_map(self, x_j: float) -> Callable[..., tuple[float, float]]:
        c, gamma, w = self._c, self._gamma, 1.0 - x_j
        r, m = x_j / w, -x_j / w
        # U'(a)/U'(b) = (U(a)/a)/(U(b)/b) on a power law, from the values at hand
        if gamma == 2.0:

            def outflow(G: float, dh: float, q_in: float) -> tuple[float, float]:
                a = q_in - G
                head_in = c * abs(a) * a
                head_out = dh / w - r * head_in
                b = copysign(sqrt(abs(head_out) / c), head_out)
                den = a * head_out
                return b + G, m * (head_in * b / den if den else nan)

            return outflow
        inv = 1.0 / gamma

        def outflow(G: float, dh: float, q_in: float) -> tuple[float, float]:
            a = q_in - G
            try:
                head_in = copysign(c * abs(a) ** gamma, a)
                head_out = dh / w - r * head_in
                b = copysign((abs(head_out) / c) ** inv, head_out)
            except OverflowError:
                raise ValueError(
                    f"{self!r}.outflow_map({x_j!r})({G!r}, {dh!r}, {q_in!r}) "
                    "is beyond the float range"
                ) from None
            den = a * head_out
            return b + G, m * (head_in * b / den if den else nan)

        return outflow

    def section_map(self, x: float) -> Callable[..., tuple[float, float, float]]:
        invert, x1, gamma = self.invert, 1.0 - x, self._gamma

        def section(head_in: float, head_out: float) -> tuple[float, float, float]:
            q_in, q_out = invert(head_in / x), invert(head_out / x1)
            # 1/(w U'(q)) on a share w of the pipe is q/(gamma head) at head = w U(q)
            s = (q_in / head_in + q_out / head_out) / gamma if head_in and head_out else nan
            return q_in, q_out, s

        return section


def Linear(R: float) -> PowerLaw:
    """U(q) = R q, the power law with gamma = 1."""
    return PowerLaw(R, 1.0)


def SignedQuadratic(c: float) -> PowerLaw:
    """U(q) = c |q| q, the power law with gamma = 2."""
    return PowerLaw(c, 2.0)


class PipeSet(Value):
    """Ordered parallel pipes between a shared inlet and outlet.

    Pipe indices are 1-based throughout the public API.
    """

    __slots__ = ("_pipes",)

    def __init__(self, pipes: tuple[HeadLossFn, ...]):
        pipes = tuple(pipes)
        if len(pipes) < 1:
            raise ValueError("need at least one pipe")
        for p in pipes:
            if type(p) not in (PowerLaw, QuadraticPlusLinear):
                raise TypeError(f"loss law class {type(p).__name__} is not PowerLaw or QuadraticPlusLinear")
        self._pipes = pipes

    @property
    def n(self) -> int:
        return len(self._pipes)

    def pipe(self, j: int) -> HeadLossFn:
        if not 1 <= j <= len(self._pipes):
            raise IndexError(f"pipe index {j} out of range 1..{self.n}")
        return self._pipes[j - 1]

    def admittances_excluding(self, dh: float) -> tuple[float, ...]:
        """Total flow through all pipes except j at head loss dh, for every
        pipe j in pipe order, from the flows of `flows(dh)`."""
        return _flows_and_sums(self, dh)[1]

    def flows(self, dh: float) -> tuple[float, ...]:
        """Every pipe's flow U^-1(dh) at head loss dh, in pipe order. A set
        inverts each pipe once per head loss while no other set is asked."""
        return _flows_and_sums(self, dh)[0]

    def admittance_derivatives_excluding(self, dh: float) -> tuple[float, ...]:
        """Slope in dh of every entry of `admittances_excluding(dh)`: each pipe
        adds 1 / U'(q) at its flow q in `flows(dh)`, or 0 where U' is unbounded.
        A law with zero slope at dh, pipe j's own included, raises ZeroDivisionError."""
        slopes = []
        for p, q in zip(self._pipes, self.flows(dh)):
            try:
                slope = p.derivative(q)
            except UnboundedDerivativeError:
                slope = math.inf  # infinite law slope, zero admittance slope
            if slope == 0.0:
                raise ZeroDivisionError(f"loss law {p} has zero slope at head loss {dh}")
            slopes.append(1.0 / slope)
        return _all_but_one(slopes)


# The last PipeSet asked and a table of its flows and their all-but-one sums,
# by head loss: every layer asks a set about the same head losses. The memo
# holds its set, so no set built later can take that set's id, and it swaps
# set and table in one assignment, so a table only ever holds its own set's
# entries. Each entry holds 2n floats, at most _MEMO_FLOATS in all, so a wide
# set keeps fewer head losses; the table is cleared when full.
_MEMO_FLOATS = 8192
_memo: tuple[PipeSet | None, dict] = (None, {})


def _flows_and_sums(pipes: PipeSet, dh: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    global _memo
    owner, table = _memo
    if owner is not pipes:
        table = {}
        _memo = pipes, table
    key = dh or repr(dh)  # 0.0 == -0.0, but their flows differ in the sign of zero
    entry = table.get(key)
    if entry is None:
        flows = tuple([p.invert(dh) for p in pipes._pipes])
        entry = flows, _all_but_one(flows)
        size = 2 * len(flows)
        if size * (len(table) + 1) > _MEMO_FLOATS:
            table.clear()
        if size <= _MEMO_FLOATS:
            table[key] = entry
    return entry


def _all_but_one(values: Sequence[float]) -> tuple[float, ...]:
    """Entry j: the sum of every value but values[j], the values before j plus
    those after it, so for values of one sign no entry cancels a dominant one."""
    before = accumulate(values, initial=0.0)  # entry j: values before j
    from_j = list(accumulate(reversed(values), initial=0.0))[::-1]  # j: from j on
    return tuple(map(add, before, from_j[1:]))


def detect_inherent_ambiguity(pipes: PipeSet) -> list[tuple[tuple[int, int], str]]:
    """Pipe pairs no amount of data can tell apart.

    Structurally identical laws are indistinguishable, and so are any two
    linear laws regardless of their resistances.
    """
    linear = Linear(1.0).shape_key()
    by_law: dict[HeadLossFn, list[int]] = {}  # laws hash by their fields
    for j, p in enumerate(pipes.pipes, start=1):
        by_law.setdefault(p, []).append(j)
    linears = [j for j, p in enumerate(pipes.pipes, start=1) if p.shape_key() == linear]
    flagged = dict.fromkeys(combinations(linears, 2), "linear")
    for same in by_law.values():  # an identical pair of linear laws is "identical"
        flagged.update(dict.fromkeys(combinations(same, 2), "identical"))
    return sorted(flagged.items())
