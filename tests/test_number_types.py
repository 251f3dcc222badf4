"""Inputs of any number type: the constructors store Python floats and complexes.

Every closed form then runs on floats, whatever the caller passed, and
tier-1's warnings-as-errors setting turns any numpy cast warning into a
failure here.
"""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ncho import (
    DomainError,
    GridSpec,
    NumericRangeError,
    OscillatorParams,
    TwoModeGaussian,
    asymptotic_bounds,
    covariance_blocks,
    es_closed_form,
    simon_es,
)
from ncho.cli import analyze_report

# Fig. 1, then the first three census points (tests/test_oracles.py) in
# units of 1/1000, rounded to ints: every type below holds them exactly.
POINTS = [
    (1, 1, 5, 10, 1), (197, 40, 4015, 19, 478), (290, 17, 1071, 14, 147), (19, 23, 499, 20296, 4)
]
KINDS = [int, np.float64, np.float32, Fraction, Decimal]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("point", POINTS, ids=["fig1", "census0", "census1", "census2"])
def test_any_number_type_gives_the_float_report(point, kind):
    params = OscillatorParams(*map(kind, point))
    assert all(type(v) is float for v in params)
    report = analyze_report(params)
    assert all(type(v) in (float, bool) for v in report.values())
    # json.dumps tells 0.0 from -0.0, which == does not.
    assert json.dumps(report) == json.dumps(analyze_report(OscillatorParams(*map(float, point))))


@pytest.mark.parametrize(
    "function, point",
    [
        (analyze_report, (1, 1, 5, 10, 10**200)),  # theta * theta as an exact int
        (es_closed_form, (1, 10**200, 10**200, 1, 1)),  # alpha1 * m2 as an exact int
        (asymptotic_bounds, (1, 10**200, 10**200, 1, 1)),
    ],
    ids=["analyze_report", "es_closed_form", "asymptotic_bounds"],
)
def test_int_products_beyond_the_float_range_are_range_errors(function, point):
    with pytest.raises(NumericRangeError):
        function(OscillatorParams(*point))


@pytest.mark.parametrize("text", ["1", b"1"], ids=["str", "bytes"])
def test_strings_are_refused(text):
    # float() and complex() would parse them.
    with pytest.raises(DomainError, match="^theta must be nonnegative and finite"):
        OscillatorParams(1, 1, 5, 10, text)
    with pytest.raises(DomainError, match="^coefficients must be finite"):
        TwoModeGaussian(1, 1, text)


def test_int_coefficient_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="alpha=an int beyond the float range"):
        TwoModeGaussian(10**400, 1, 0)


def test_complex64_state_gives_the_python_float_of_the_complex128_state():
    state = TwoModeGaussian(*map(np.complex64, (1, 1.5, 0.25j)))
    assert all(type(v) is complex for v in state)
    e_s = simon_es(covariance_blocks(state))
    assert type(e_s) is float
    assert e_s == simon_es(covariance_blocks(TwoModeGaussian(1, 1.5, 0.25j)))


@pytest.mark.parametrize(
    "error, build",
    [
        (DomainError, lambda: OscillatorParams(Fraction(10**5000), 1, 1, 1, 1)),
        (DomainError, lambda: OscillatorParams(Fraction(1, 10**5000), 1, 1, 1, 1)),
        (DomainError, lambda: TwoModeGaussian(Fraction(10**5000), 1, 0)),
        (DomainError, lambda: GridSpec(extent=Fraction(10**5000))),
    ],
    ids=["huge_fraction", "tiny_fraction", "huge_fraction_coefficient", "huge_fraction_extent"],
)
def test_fraction_too_long_to_print_is_named(error, build):
    # A Fraction of more than 4300 digits cannot be formatted; the message names it.
    with pytest.raises(error, match="a Fraction with a numerator or denominator beyond the float range"):
        build()
