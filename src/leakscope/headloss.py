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
from operator import attrgetter


class Value:
    """Base of leakscope's immutable records, which behave as frozen dataclasses.

    A subclass names its fields in `__slots__`. Its `__init__` checks its
    arguments and then sets every field with one `self._set(...)` call, which
    takes the values in `__slots__` order. Instances compare and hash by their
    fields within one class, repr as `Name(field=value, ...)`, and refuse
    assignment and deletion. Building a class runs no generated code, which
    keeps the import of leakscope short.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # all fields as one tuple, read at C speed: == and hash run per state
        get = attrgetter(*cls.__slots__)
        cls._values = get if len(cls.__slots__) > 1 else lambda self: (get(self),)
        # the slot descriptors' own setters, which __setattr__ cannot block
        setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

        def _set(self, *values):
            for set_field, value in zip(setters, values):
                set_field(self, value)

        cls._set = _set

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__class__._values(self) == self.__class__._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__; by default they would
        # set the slots through __setattr__, which refuses
        return self.__class__, self.__class__._values(self)

    def _asdict(self) -> dict:
        """The fields by name, in `__slots__` order."""
        return dict(zip(self.__slots__, self.__class__._values(self)))

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

    __slots__ = ("c",)

    def __init__(self, c: float):
        _check_positive("c", c)
        self._set(c)

    def evaluate(self, q: float) -> float:
        return self.c * (q * abs(q) + q)

    def invert(self, h: float) -> float:
        # for h >= 0 solve q^2 + q - h/c = 0, positive branch; odd extension.
        # a / (1/2 + sqrt(1/4 + a)) is (-1 + sqrt(1 + 4a)) / 2 without its
        # cancellation at small a, and it does not overflow at large a
        a = abs(h) / self.c
        q = a / (0.5 + math.sqrt(0.25 + a))
        return math.copysign(q, h)

    def derivative(self, q: float) -> float:
        return self.c * (2.0 * abs(q) + 1.0)

    def shape_key(self) -> tuple:
        return ("quadratic_plus_linear",)


class PowerLaw(HeadLossFn, Value):
    """U(q) = c sign(q) |q|^gamma.

    gamma = 2 takes the closed forms c |q| q and sqrt rather than the
    general power, which rounds differently. At gamma = 1 the general
    formulas give exactly c q, h / c and c. A power beyond the float range
    raises ValueError.
    """

    __slots__ = ("c", "gamma")

    def __init__(self, c: float, gamma: float):
        _check_positive("c", c)
        _check_positive("gamma", gamma)
        self._set(c, gamma)

    def evaluate(self, q: float) -> float:
        gamma = self.gamma
        if gamma == 2.0:
            return self.c * abs(q) * q
        try:
            return math.copysign(self.c * abs(q) ** gamma, q)
        except OverflowError:
            raise ValueError(f"{self!r}.evaluate({q!r}) is beyond the float range") from None

    def invert(self, h: float) -> float:
        gamma = self.gamma
        if gamma == 2.0:
            return math.copysign(math.sqrt(abs(h) / self.c), h)
        try:
            return math.copysign((abs(h) / self.c) ** (1.0 / gamma), h)
        except OverflowError:
            raise ValueError(f"{self!r}.invert({h!r}) is beyond the float range") from None

    def derivative(self, q: float) -> float:
        if q == 0.0 and self.gamma < 1.0:
            raise UnboundedDerivativeError(
                f"power law with gamma={self.gamma} < 1 has unbounded slope at q=0"
            )
        try:
            return self.c * self.gamma * abs(q) ** (self.gamma - 1.0)
        except OverflowError:
            raise ValueError(f"{self!r}.derivative({q!r}) is beyond the float range") from None

    def shape_key(self) -> tuple:
        return ("power", self.gamma)


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

    __slots__ = ("pipes",)

    def __init__(self, pipes: tuple[HeadLossFn, ...]):
        pipes = tuple(pipes)
        if len(pipes) < 1:
            raise ValueError("need at least one pipe")
        self._set(pipes)

    @property
    def n(self) -> int:
        return len(self.pipes)

    def pipe(self, j: int) -> HeadLossFn:
        if not 1 <= j <= self.n:
            raise IndexError(f"pipe index {j} out of range 1..{self.n}")
        return self.pipes[j - 1]

    def admittance_excluding(self, j: int, dh: float) -> float:
        """Total flow through all pipes except j at head loss dh."""
        self.pipe(j)  # range check
        return self.admittances_excluding(dh)[j - 1]

    def admittances_excluding(self, dh: float) -> tuple[float, ...]:
        """Total flow through all pipes except j at head loss dh, for every
        pipe j in pipe order.

        Each pipe is inverted once; entry j adds the prefix sum of the pipes
        before j to the suffix sum of the pipes after it. All flows share the
        sign of dh, so unlike total-minus-own no entry cancels a dominant pipe.
        """
        flows = [p.invert(dh) for p in self.pipes]
        inlet = accumulate(flows, initial=0.0)  # entry i: pipes before i
        outlet = list(accumulate(reversed(flows), initial=0.0))[::-1]  # i: from i on
        return tuple(a + b for a, b in zip(inlet, outlet[1:]))

    def admittance_derivative_excluding(self, j: int, dh: float) -> float:
        """Slope of the admittance sum, via the inverse function rule."""
        self.pipe(j)  # range check
        total = 0.0
        for p in self.pipes[: j - 1] + self.pipes[j:]:
            try:
                slope = p.derivative(p.invert(dh))
            except UnboundedDerivativeError:
                continue  # infinite slope contributes zero admittance slope
            if slope == 0.0:
                raise ZeroDivisionError(
                    f"loss law {p} has zero slope at head loss {dh}"
                )
            total += 1.0 / slope
        return total


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
