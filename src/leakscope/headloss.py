"""Pipe head loss laws, admittance sums over a set of parallel pipes, and
the pipe pairs whose laws no data can tell apart.

All loss laws are odd, strictly increasing bijections of the real line,
so the inverse exists everywhere, and every law inverts in closed form.
There are two law classes: `PowerLaw` and `QuadraticPlusLinear`. `Linear`
and `SignedQuadratic` are constructors for the power laws with gamma = 1
and gamma = 2, so equal laws compare equal however they are spelled.
"""

from __future__ import annotations

import math
from itertools import accumulate
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
        if slots is None:  # a subclass without slots keeps its base's fields
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
    """Base class for odd, strictly increasing flow -> head-loss laws.

    Each law provides `evaluate`, a closed-form `invert`, `derivative` and
    `shape_key`, a canonical shape identifier: two laws with equal keys
    differ by a positive constant factor.
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
        self._pipes = pipes

    @property
    def n(self) -> int:
        return len(self._pipes)

    def pipe(self, j: int) -> HeadLossFn:
        if not 1 <= j <= len(self._pipes):
            raise IndexError(f"pipe index {j} out of range 1..{self.n}")
        return self._pipes[j - 1]

    def admittance_excluding(self, j: int, dh: float) -> float:
        """Total flow through all pipes except j at head loss dh."""
        self.pipe(j)  # range check
        return self.admittances_excluding(dh)[j - 1]

    def admittances_excluding(self, dh: float) -> tuple[float, ...]:
        """Total flow through all pipes except j at head loss dh, for every
        pipe j in pipe order. Each pipe is inverted once."""
        return _all_but_one([p.invert(dh) for p in self._pipes])

    def admittance_derivatives_excluding(self, dh: float) -> tuple[float, ...]:
        """Slope in dh of every entry of `admittances_excluding(dh)`: each pipe
        adds 1 / U'(U^-1(dh)), or 0 where U' is unbounded. A law with zero
        slope at dh, pipe j's own included, raises ZeroDivisionError."""
        slopes = []
        for p in self._pipes:
            try:
                slope = p.derivative(p.invert(dh))
            except UnboundedDerivativeError:
                slope = math.inf  # infinite law slope, zero admittance slope
            if slope == 0.0:
                raise ZeroDivisionError(f"loss law {p} has zero slope at head loss {dh}")
            slopes.append(1.0 / slope)
        return _all_but_one(slopes)


def _all_but_one(values: list[float]) -> tuple[float, ...]:
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
    flagged: list[tuple[tuple[int, int], str]] = []
    for a in range(1, pipes.n + 1):
        for b in range(a + 1, pipes.n + 1):
            pa, pb = pipes.pipe(a), pipes.pipe(b)
            if pa == pb:
                flagged.append(((a, b), "identical"))
            elif pa.shape_key() == pb.shape_key() == linear:
                flagged.append(((a, b), "linear"))
    return flagged
