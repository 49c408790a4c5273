import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from leakscope import (
    Linear,
    PipeSet,
    PowerLaw,
    PowerLawLeak,
    QuadraticPlusLinear,
    SignedQuadratic,
    UnboundedDerivativeError,
)

# test ids spell each law the way it is built: Linear(0.1) is PowerLaw(c=0.1,
# gamma=1.0), and its id stays "Linear(R=0.1)"
ALL_LAWS = {
    "Linear(R=0.1)": Linear(0.1),
    "Linear(R=2.0)": Linear(2.0),
    "SignedQuadratic(c=0.05)": SignedQuadratic(0.05),
    "QuadraticPlusLinear(c=2.0)": QuadraticPlusLinear(2.0),
    "PowerLaw(c=0.7, gamma=1.85)": PowerLaw(0.7, 1.85),
    "PowerLaw(c=1.3, gamma=0.6)": PowerLaw(1.3, 0.6),
}
EPS = sys.float_info.epsilon
law_params = pytest.mark.parametrize("law", list(ALL_LAWS.values()), ids=list(ALL_LAWS))


def test_evaluate_examples():
    assert Linear(0.1).evaluate(10.0) == pytest.approx(1.0)
    assert SignedQuadratic(0.05).evaluate(-2.0) == pytest.approx(-0.2)
    assert QuadraticPlusLinear(2.0).evaluate(1.0) == pytest.approx(4.0)


def test_invert_examples():
    assert Linear(0.2).invert(1.0) == pytest.approx(5.0)
    assert QuadraticPlusLinear(2.0).invert(4.0) == pytest.approx(1.0)
    # positive root of q^2 + q - 1 = 0
    assert QuadraticPlusLinear(4.0).invert(4.0) == pytest.approx(
        (-1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12
    )


def test_derivative_examples():
    assert SignedQuadratic(0.05).derivative(2.0) == pytest.approx(0.2)
    assert QuadraticPlusLinear(2.0).derivative(0.0) == pytest.approx(2.0)
    assert SignedQuadratic(0.05).derivative(0.0) == 0.0


def test_power_law_derivative_at_zero():
    with pytest.raises(UnboundedDerivativeError):
        PowerLaw(1.0, 0.5).derivative(0.0)
    assert PowerLaw(1.0, 2.0).derivative(0.0) == 0.0
    assert PowerLaw(0.3, 1.0).derivative(0.0) == pytest.approx(0.3)


@pytest.mark.parametrize(
    "law,method,arg",
    [
        (PowerLaw(1.0, 60.0), "evaluate", 5e5),
        (PowerLaw(1e-300, 0.5), "invert", 4.0),
        (PowerLaw(1.0, 0.01), "derivative", 1e-320),
        (PowerLawLeak(C=1.0, beta=60.0), "flow", 1e6),
    ],
    ids=["evaluate", "invert", "derivative", "leak-flow"],
)
def test_power_beyond_the_float_range_is_a_value_error(law, method, arg):
    text = f"{law!r}.{method}({arg!r}) is beyond the float range"
    with pytest.raises(ValueError, match=re.escape(text)):
        getattr(law, method)(arg)


def test_invalid_parameters():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Linear(bad)
        with pytest.raises(ValueError):
            SignedQuadratic(bad)
        with pytest.raises(ValueError):
            QuadraticPlusLinear(bad)
        with pytest.raises(ValueError):
            PowerLaw(1.0, bad)


def test_shorthands_are_power_laws():
    assert Linear(0.1) == PowerLaw(0.1, 1.0)
    assert SignedQuadratic(0.05) == PowerLaw(0.05, 2.0)
    assert Linear(0.1).shape_key() == ("power", 1.0) != SignedQuadratic(0.05).shape_key()
    # the gamma = 1 and gamma = 2 closed forms, exactly
    assert SignedQuadratic(0.05).evaluate(-3.0) == 0.05 * 3.0 * -3.0
    assert SignedQuadratic(0.05).invert(-0.2) == -math.sqrt(0.2 / 0.05)
    assert Linear(0.3).invert(0.7) == 0.7 / 0.3


@given(
    q=st.floats(allow_nan=False),
    c=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_linear_general_formulas_exact(q, c):
    # gamma = 1 takes the general power-law formulas, bit for bit c q, h / c, c
    law = Linear(c)
    assert law.evaluate(q).hex() == (c * q).hex()
    assert law.invert(q).hex() == (q / c).hex()
    assert law.derivative(q).hex() == c.hex()


@law_params
@given(q=st.floats(-100.0, 100.0))
def test_inversion_round_trip(law, q):
    assert law.invert(law.evaluate(q)) == pytest.approx(q, abs=1e-10 * max(1.0, abs(q)))


@given(
    q=st.floats(-12.0, 6.0).map(lambda e: 10.0**e),
    negative=st.booleans(),
    c=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)
def test_quadratic_plus_linear_round_trip_relative(q, negative, c):
    # small flows keep their relative accuracy: no cancellation in invert
    q = -q if negative else q
    law = QuadraticPlusLinear(c)
    assert abs(law.invert(law.evaluate(q)) - q) <= 4 * EPS * abs(q)


@law_params
@given(q=st.floats(-100.0, 100.0))
def test_odd_and_zero(law, q):
    assert law.evaluate(0.0) == 0.0
    assert law.evaluate(-q) == pytest.approx(-law.evaluate(q), abs=1e-12)


@law_params
def test_monotone_on_grid(law):
    grid = [-100.0 + 200.0 * i / 400 for i in range(401)]
    vals = [law.evaluate(q) for q in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@law_params
@pytest.mark.parametrize("q", [-7.3, -1.0, 0.5, 2.0, 42.0])
def test_derivative_matches_finite_difference(law, q):
    h = 1e-6 * max(1.0, abs(q))
    fd = (law.evaluate(q + h) - law.evaluate(q - h)) / (2.0 * h)
    d = law.derivative(q)
    assert d == pytest.approx(fd, rel=1e-5, abs=1e-5)


class TestAdmittance:
    def test_linear_sum(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2), Linear(0.3)))
        assert pipes.admittance_excluding(2, 1.0) == pytest.approx(1 / 0.1 + 1 / 0.3)

    def test_zero_at_zero(self):
        pipes = PipeSet((SignedQuadratic(0.05), QuadraticPlusLinear(2.0)))
        assert pipes.admittance_excluding(1, 0.0) == 0.0

    def test_example2_value(self):
        pipes = PipeSet(
            (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
        )
        # quadratic-formula roots of c(q^2+q)=4 for c=4 and c=6
        q2 = (-1.0 + math.sqrt(1.0 + 4.0)) / 2.0
        q3 = (-1.0 + math.sqrt(1.0 + 8.0 / 3.0)) / 2.0
        assert pipes.admittance_excluding(1, 4.0) == pytest.approx(q2 + q3, abs=1e-12)
        assert q2 + q3 == pytest.approx(1.0754, abs=5e-4)

    def test_odd_and_increasing(self):
        pipes = PipeSet((SignedQuadratic(0.05), QuadraticPlusLinear(2.0), Linear(0.4)))
        vals = [pipes.admittance_excluding(1, dh) for dh in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert pipes.admittance_excluding(1, -1.5) == pytest.approx(
            -pipes.admittance_excluding(1, 1.5), abs=1e-12
        )

    def test_index_out_of_range(self):
        pipes = PipeSet((Linear(0.1),))
        with pytest.raises(IndexError):
            pipes.admittance_excluding(2, 1.0)
        with pytest.raises(IndexError):
            pipes.admittance_excluding(0, 1.0)

    def test_derivative_linear(self):
        pipes = PipeSet((Linear(0.1), Linear(0.2), Linear(0.3)))
        for dh in (-1.0, 0.0, 5.0):
            assert pipes.admittance_derivatives_excluding(dh) == pytest.approx(
                (1 / 0.2 + 1 / 0.3, 1 / 0.1 + 1 / 0.3, 1 / 0.1 + 1 / 0.2)
            )

    def test_derivative_quadratic_plus_linear_at_zero(self):
        pipes = PipeSet(
            (QuadraticPlusLinear(2.0), QuadraticPlusLinear(4.0), QuadraticPlusLinear(6.0))
        )
        assert pipes.admittance_derivatives_excluding(0.0) == pytest.approx(
            (1 / 4 + 1 / 6, 1 / 2 + 1 / 6, 1 / 2 + 1 / 4)
        )

    def test_derivative_zero_slope_errors(self):
        pipes = PipeSet((SignedQuadratic(0.05), SignedQuadratic(0.1)))
        with pytest.raises(
            ZeroDivisionError,
            match=r"^loss law PowerLaw\(c=0\.05, gamma=2\.0\) has zero slope at head loss 0\.0$",
        ):
            pipes.admittance_derivatives_excluding(0.0)
        # every entry is formed at once, so pipe 1's own zero slope raises too
        with pytest.raises(ZeroDivisionError, match=r"^loss law PowerLaw\(c=0\.05,"):
            PipeSet((SignedQuadratic(0.05), Linear(0.1))).admittance_derivatives_excluding(0.0)

    def test_derivative_unbounded_law_slope_adds_zero(self):
        # gamma < 1 has unbounded slope at zero flow, so zero admittance slope
        pipes = PipeSet((PowerLaw(1.3, 0.6), Linear(0.5), Linear(0.25)))
        assert pipes.admittance_derivatives_excluding(0.0) == (6.0, 4.0, 2.0)


def test_pipeset_validation():
    with pytest.raises(ValueError):
        PipeSet(())
