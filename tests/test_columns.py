"""The array path (entanglement_columns) against the scalar functions."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncho import (
    DomainError,
    NumericRangeError,
    OscillatorParams,
    entanglement_columns,
    entanglement_of_formation,
    es_closed_form,
    formation_columns,
    mode_spectrum,
)

COLUMNS = ("sigma1", "sigma2", "e_s", "omega", "e_f")

log_uniform = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
generic = st.tuples(log_uniform, log_uniform, log_uniform, log_uniform, log_uniform)
commutative = generic.map(lambda p: p[:4] + (0.0,))
# Power-of-two masses make a1*m2 == a2*m1 hold exactly in floating point.
power_of_two = st.integers(-3, 3).map(lambda k: 2.0**k)
separable = st.tuples(power_of_two, power_of_two, log_uniform, log_uniform).map(
    lambda t: (t[0], t[1], t[2] * t[0], t[2] * t[1], t[3])
)
rows = st.lists(st.one_of(generic, commutative, separable), min_size=1, max_size=40)


def scalar_row(p: OscillatorParams) -> dict:
    spec = mode_spectrum(p)
    e_s = es_closed_form(p)
    omega, e_f = entanglement_of_formation(e_s)
    return dict(sigma1=spec.sigma1, sigma2=spec.sigma2, e_s=e_s, omega=omega, e_f=e_f)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows)
def test_columns_match_scalar_path(points):
    cols = entanglement_columns(*np.array(points).T)
    for i, point in enumerate(points):
        want = scalar_row(OscillatorParams(*point))
        for k in COLUMNS:
            assert cols[k][i] == pytest.approx(want[k], rel=1e-14, abs=0), (k, point)
        m1, m2, a1, a2, theta = point
        if theta == 0 or a1 * m2 == a2 * m1:
            assert cols["e_s"][i] == 0 and cols["e_f"][i] == 0, point


def exact_d_sigma1(m1, m2, alpha1, alpha2, theta):
    """D and sigma1 from the float inputs in exact rational arithmetic, sigma1 to 40 digits."""
    m1, m2, alpha1, alpha2, theta = map(Fraction, (m1, m2, alpha1, alpha2, theta))
    p, q, s = 2 * alpha1 / m1, 2 * alpha2 / m2, 4 * theta**2 * alpha1 * alpha2
    b, d = p + q + s, (p + q + s) ** 2 - 4 * p * q
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        b_dec, d_dec = (decimal.Decimal(f.numerator) / f.denominator for f in (b, d))
        sigma1 = ((b_dec + d_dec.sqrt()) / 2).sqrt()
    return d, sigma1


@pytest.mark.parametrize(
    "point",
    [(1.0, 1.0, 1.0, 1 + 1e-7, 0.0), (1.0, 1.0, 1.0, 1.00001, 1e-7)],
    ids=["near_isotropic", "small_theta"],
)
def test_near_degenerate_discriminant(point):
    # b^2 - 4c cancels here: the true D is about 4e-14 and 4e-10, against b^2 = 16.
    d, sigma1 = exact_d_sigma1(*point)
    spec = mode_spectrum(OscillatorParams(*point))
    assert abs(Fraction(spec.d) - d) <= 1e-15 * d
    assert abs(decimal.Decimal(spec.sigma1) - sigma1) <= decimal.Decimal(1e-15) * sigma1
    cols = entanglement_columns(*(np.array([v]) for v in point))
    assert (cols["sigma1"][0], cols["sigma2"][0]) == (spec.sigma1, spec.sigma2)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_invalid_row_raises_domain_error(bad):
    with pytest.raises(DomainError, match="theta"):
        entanglement_columns(1.0, 1.0, 5.0, 10.0, np.array([1.0, bad, 2.0]))
    with pytest.raises(DomainError, match="alpha2"):
        entanglement_columns(1.0, 1.0, 5.0, np.array([1.0, 2.0, bad]), 1.0)


def test_overflowing_row_raises_numeric_range_error():
    with pytest.raises(NumericRangeError, match="theta=1e"):
        entanglement_columns(1.0, 1.0, 5.0, 10.0, np.array([1.0, 1e76]))


def test_non_finite_e_s_raises_numeric_range_error():
    # alpha1*m2 and alpha2*m1 underflow to 0 at the second row only.
    with pytest.raises(NumericRangeError, match="E_S is not finite.*m1=1e-200"):
        entanglement_columns(np.array([1.0, 1e-200]), 1e-200, 1e-200, 1e-200, 1.0)


def test_underflowing_sigma2_raises_numeric_range_error():
    # p = 2 alpha1/m1 underflows to 0 at the second row only.
    with pytest.raises(NumericRangeError, match="sigma2 underflows.*m1=4e"):
        entanglement_columns(np.array([1.0, 4e201]), np.array([1.0, 7e148]),
                             np.array([5.0, 6e-126]), np.array([10.0, 3e-294]), np.array([1.0, 1e107]))


def test_positive_e_s_rejected():
    with pytest.raises(DomainError, match="E_S = 1e-09 > 0"):
        formation_columns(np.array([-0.1, 1e-9]))
