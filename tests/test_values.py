"""Value semantics of leakscope's record classes: the repr that error
messages quote, equality and hashing by field within one class, immutability,
copying, and the two helpers that read every field. Each record keeps its
fields in private `_` slots, stored plainly by `__init__`, behind read-only
public properties; the checks below pin that layout, which keeps record
building at slot speed."""

import copy
import importlib
import pickle
import pkgutil
import re

import pytest

import leakscope
from leakscope import (
    ConfusionFlowCurve,
    DataPoint,
    FixedDemand,
    HydraulicState,
    IsolationVerdict,
    LeakCandidate,
    LeakFitResult,
    LeakSpec,
    Linear,
    PartialDataPoint,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    QuadraticPlusLinear,
    Scenario,
    SectionResistances,
    SignedQuadratic,
    SqrtLeak,
    detect_inherent_ambiguity,
)
from leakscope.headloss import Value
from leakscope.hydraulics import SweepResult
from leakscope.scenario import AnalysisOptions
from leakscope.sensitivity import ResidualDifferential, ZeroDhSensitivity

SQRT = "PowerLawLeak(C=1.0, beta=0.5, h_y=0.0)"
POINT = "DataPoint(h_in=3.0, h_out=1.0, q_in=0.5, q_out=0.25)"

# (builder, its exact repr); each builder makes a fresh, equal object
VALUES = {
    "QuadraticPlusLinear": (lambda: QuadraticPlusLinear(2.0), "QuadraticPlusLinear(c=2.0)"),
    "PowerLaw": (lambda: PowerLaw(1e-300, 0.5), "PowerLaw(c=1e-300, gamma=0.5)"),
    "PipeSet": (
        lambda: PipeSet([Linear(0.1), SignedQuadratic(0.2)]),  # a list is kept as a tuple
        "PipeSet(pipes=(PowerLaw(c=0.1, gamma=1.0), PowerLaw(c=0.2, gamma=2.0)))",
    ),
    "PowerLawLeak": (SqrtLeak, SQRT),
    "FixedDemand": (lambda: FixedDemand(0.25), "FixedDemand(q_leak=0.25)"),
    "LeakSpec": (lambda: LeakSpec(2, 0.3, SqrtLeak()), f"LeakSpec(k=2, x=0.3, leak={SQRT})"),
    "HydraulicState": (
        lambda: HydraulicState(3.0, 1.0, 0.5, 0.25, 2.0),
        "HydraulicState(h_in=3.0, h_out=1.0, q_in_k=0.5, q_out_k=0.25, h_leak=2.0)",
    ),
    "DataPoint": (lambda: DataPoint(3.0, 1.0, 0.5, 0.25), POINT),
    "SweepResult": (
        lambda: SweepResult((DataPoint(3.0, 1.0, 0.5, 0.25), None), {1: "no root"}),
        f"SweepResult(points=({POINT}, None), errors={{1: 'no root'}})",
    ),
    "IsolationVerdict": (
        lambda: IsolationVerdict({1: (0.5,)}, {1: 0.0}, True, k_hat=1, x_hat=0.5),
        "IsolationVerdict(candidate_series={1: (0.5,)}, spreads={1: 0.0}, isolated=True, "
        "k_hat=1, x_hat=0.5, candidate_pipes=frozenset(), reason='')",
    ),
    "LeakFitResult": (
        lambda: LeakFitResult(2, 50.0, 0.5, 0.0, False, True, ((1.0, 50.0),)),
        "LeakFitResult(j=2, C_j=50.0, beta_j=0.5, rmse=0.0, negative_head=False, "
        "accepted=True, samples=((1.0, 50.0),))",
    ),
    "LeakCandidate": (
        lambda: LeakCandidate(1, 0.3),
        "LeakCandidate(j=1, x_j=0.3)",
    ),
    "PartialDataPoint": (
        lambda: PartialDataPoint(h_in=3.0, h_out=1.0, q_in=0.5),
        "PartialDataPoint(h_in=3.0, h_out=1.0, q_in=0.5, q_out=None)",
    ),
    "SectionResistances": (
        lambda: SectionResistances(1.0, 2.0),
        "SectionResistances(R_in=1.0, R_out=2.0)",
    ),
    "ResidualDifferential": (
        lambda: ResidualDifferential(0.5, -0.5),
        "ResidualDifferential(d_dqin=0.5, d_ddh=-0.5)",
    ),
    "ConfusionFlowCurve": (
        lambda: ConfusionFlowCurve(1, (1.0,), (2.0,), (0.0,), (True,)),
        "ConfusionFlowCurve(i=1, dh_grid=(1.0,), q_in_conf=(2.0,), "
        "residual_trace=(0.0,), converged=(True,))",
    ),
    "ZeroDhSensitivity": (
        lambda: ZeroDhSensitivity(0.0, True, False),
        "ZeroDhSensitivity(value=0.0, distinct_out_resistance=True, nonlinear_section=False)",
    ),
    "AnalysisOptions": (
        AnalysisOptions,
        "AnalysisOptions(eps_spread=1e-06, eps_fit=1e-06, nominal_dh=None, "
        "dh_grid=None, h_y=None)",
    ),
    "Scenario": (
        lambda: Scenario(
            PipeSet((Linear(0.1),)), LeakSpec(1, 0.5, FixedDemand(1.0)), ((2.0, 1.0),)
        ),
        "Scenario(pipes=PipeSet(pipes=(PowerLaw(c=0.1, gamma=1.0),)), "
        "leak=LeakSpec(k=1, x=0.5, leak=FixedDemand(q_leak=1.0)), boundary=((2.0, 1.0),), "
        "analysis=AnalysisOptions(eps_spread=1e-06, eps_fit=1e-06, nominal_dh=None, "
        "dh_grid=None, h_y=None))",
    ),
}
# classes holding a dict are compared by value but cannot be hashed
UNHASHABLE = {"SweepResult", "IsolationVerdict"}
values = pytest.mark.parametrize("name", list(VALUES))


@values
def test_repr(name):
    make, text = VALUES[name]
    assert repr(make()) == text


@values
def test_equal_values_are_equal(name):
    make, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@values
def test_immutable(name):
    make, text = VALUES[name]
    obj = make()
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(obj, field, 1.0)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1.0
    assert repr(obj) == text


@values
def test_copies_are_equal(name):
    make, _ = VALUES[name]
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj


def test_every_record_class_is_checked():
    # the checks that catch a field stored in the wrong slot run over VALUES,
    # so every record class of the package must be in it
    for module in pkgutil.iter_modules(leakscope.__path__):
        importlib.import_module(f"leakscope.{module.name}")
    records, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("leakscope."):  # not a class a test defines
                records.add(cls.__qualname__)
    assert records == set(VALUES)


@values
def test_init_sets_every_field_in_slot_order(name):
    # each field lives in a private slot behind a read-only property, and
    # __init__ fills the slots with plain stores, which CPython makes at slot
    # speed only while the class keeps object's __setattr__
    obj = VALUES[name][0]()
    cls = type(obj)
    assert cls.__setattr__ is object.__setattr__
    assert not hasattr(obj, "__dict__")
    assert cls._fields == tuple(slot[1:] for slot in cls.__slots__)
    for slot, field in zip(cls.__slots__, cls._fields):
        assert slot.startswith("_")
        assert isinstance(getattr(cls, field), property)
        assert getattr(obj, field) is getattr(obj, slot)  # raises if the slot is unset
    # every argument lands in the slot of its own name: a rebuild from the
    # fields by keyword equals the original
    assert cls(**obj._asdict()) == obj


def test_unequal_values():
    assert PowerLaw(1.0, 2.0) != PowerLaw(1.0, 2.5)
    assert DataPoint(3.0, 1.0, 0.5, 0.25) != DataPoint(3.0, 1.0, 0.5, 0.5)
    assert PartialDataPoint(None, 1.0, 0.5, 0.25) != PartialDataPoint(3.0, None, 0.5, 0.25)


def test_equal_values_of_other_classes_differ():
    assert FixedDemand(0.5) != QuadraticPlusLinear(0.5)
    assert DataPoint(3.0, 1.0, 0.5, None) != PartialDataPoint(3.0, 1.0, 0.5, None)
    assert SectionResistances(1.0, 2.0) != ResidualDifferential(1.0, 2.0)
    assert ResidualDifferential(0.5, -0.5) != PowerLaw(0.5, 0.5) != PowerLawLeak(0.5, 0.5)

    class Steeper(PowerLaw):
        pass

    assert Steeper(1.0, 2.0) != PowerLaw(1.0, 2.0)
    assert Steeper(1.0, 2.0) == Steeper(1.0, 2.0)


def test_empty_slots_keep_the_base_fields():
    # `__slots__ = ()` adds no field, and keeps instances without a `__dict__`;
    # it once raised TypeError from attrgetter() when the class was built
    class Demand(FixedDemand):
        __slots__ = ()

    demand = Demand(0.25)
    assert Demand._fields == ("q_leak",) and not hasattr(demand, "__dict__")
    assert repr(demand).endswith(".Demand(q_leak=0.25)") and demand._asdict() == {"q_leak": 0.25}
    assert demand == Demand(0.25) != FixedDemand(0.25)
    assert copy.copy(demand) == demand and demand.replace(q_leak=0.5) == Demand(0.5)


def test_shorthands_equal_their_power_law():
    assert Linear(0.2) == PowerLaw(0.2, 1.0)
    assert hash(Linear(0.2)) == hash(PowerLaw(0.2, 1.0))
    assert SignedQuadratic(0.05) == PowerLaw(0.05, 2.0)
    assert SqrtLeak() == PowerLawLeak(1.0, 0.5)


def test_keywords_and_defaults():
    assert PowerLawLeak(C=2.0, beta=0.5) == PowerLawLeak(2.0, 0.5, 0.0)
    assert LeakSpec(k=1, x=0.5, leak=FixedDemand(q_leak=1.0)) == LeakSpec(1, 0.5, FixedDemand(1.0))
    partial = PartialDataPoint(q_out=0.25, h_in=3.0, h_out=1.0)
    assert partial == PartialDataPoint(3.0, 1.0, None, 0.25)
    options = AnalysisOptions(eps_fit=1e-3)
    assert (options.eps_spread, options.eps_fit, options.dh_grid) == (1e-6, 1e-3, None)


@pytest.mark.parametrize("missing", ["h_in", "h_out", "q_in", "q_out"])
def test_partial_data_point_missing(missing):
    readings = {"h_in": 3.0, "h_out": 1.0, "q_in": 0.5, "q_out": 0.25, missing: None}
    assert PartialDataPoint(**readings).missing == missing


@pytest.mark.parametrize(
    "readings, named",
    [({}, "[]"), ({"h_in": None, "q_out": None}, "['h_in', 'q_out']")],
)
def test_partial_data_point_needs_one_missing(readings, named):
    readings = {"h_in": 3.0, "h_out": 1.0, "q_in": 0.5, "q_out": 0.25, **readings}
    message = f"exactly one field must be missing, got {named}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PartialDataPoint(**readings)


def test_identical_pairs_are_equal_laws():
    pipes = PipeSet((
        SignedQuadratic(0.1), PowerLaw(0.1, 2.0),
        QuadraticPlusLinear(0.1), QuadraticPlusLinear(0.1),
        Linear(0.3), PowerLaw(0.2, 1.0),
        PowerLaw(0.1, 1.5), PowerLaw(0.1, 1.5000001),
    ))
    assert detect_inherent_ambiguity(pipes) == [
        ((1, 2), "identical"),
        ((3, 4), "identical"),
        ((5, 6), "linear"),
    ]


def test_replace_builds_a_checked_copy():
    law = PowerLaw(1.0, 2.0)
    assert law.replace(gamma=1.0) == Linear(1.0)
    assert law == PowerLaw(1.0, 2.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        law.replace(gamma=0.0)
    assert DataPoint(3.0, 1.0, 0.5, 0.25)._asdict() == {
        "h_in": 3.0, "h_out": 1.0, "q_in": 0.5, "q_out": 0.25
    }
    assert FixedDemand(0.25)._asdict() == {"q_leak": 0.25}
