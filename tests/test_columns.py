"""The array path (entanglement_columns) against the scalar functions."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncho import (
    DomainError,
    NchoError,
    NumericRangeError,
    OscillatorParams,
    entanglement_columns,
    entanglement_of_formation,
    es_closed_form,
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
# Ints up to 1e25, most of them not exact floats.  Both paths must round
# each input to a float first: an exact int product differs from the
# product of the rounded floats.
big_int = st.integers(1, 10**25)
integral = st.tuples(big_int, big_int, big_int, big_int, st.integers(0, 10**25))
rows = st.lists(st.one_of(generic, commutative, separable, integral), min_size=1, max_size=40)
# theta = 2**53 + 1 is no float, and its exact square does not round to float(theta)**2.
INT_THETA = [(3, 1, 5, 7, 2**53 + 1)]


def scalar_row(p: OscillatorParams) -> dict:
    spec = mode_spectrum(p)
    e_s = es_closed_form(p)
    omega, e_f = entanglement_of_formation(e_s)
    return dict(sigma1=spec.sigma1, sigma2=spec.sigma2, e_s=e_s, omega=omega, e_f=e_f)


def assert_row_matches(cols, i, want, point):
    # The same float operations on both paths; only numpy's log can differ
    # from math.log by an ulp.
    for k in ("sigma1", "sigma2", "e_s", "omega"):
        assert cols[k][i] == want[k], (k, point)
    assert cols["e_f"][i] == pytest.approx(want["e_f"], rel=1e-14, abs=0), point


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows)
@example(INT_THETA)
def test_columns_match_scalar_path(points):
    cols = entanglement_columns(*np.array(points).T)
    for i, point in enumerate(points):
        assert_row_matches(cols, i, scalar_row(OscillatorParams(*point)), point)
        m1, m2, a1, a2, theta = map(float, point)
        if theta == 0 or a1 * m2 == a2 * m1:
            assert cols["e_s"][i] == 0 and cols["e_f"][i] == 0, point


# All five inputs log-uniform over 1e-150...1e150, where b^2 overflows on
# about two rows in five.
wide = st.floats(math.log(1e-150), math.log(1e150)).map(math.exp)
wide_rows = st.lists(st.tuples(wide, wide, wide, wide, wide), min_size=1, max_size=8)

# Row 0's sigma2 underflows (p = 2 alpha1/m1 rounds to 0) and row 1's b^2
# overflows: the scalar chain meets row 0 first.
FIRST_ROW_UNDERFLOWS = [(4e201, 7e148, 6e-126, 3e-294, 1e107), (1.0, 1.0, 5.0, 10.0, 1e76)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_rows)
@example(FIRST_ROW_UNDERFLOWS)
def test_columns_raise_the_first_failing_rows_scalar_error(points):
    wants = []
    for point in points:
        try:
            wants.append(scalar_row(OscillatorParams(*point)))
        except NchoError as exc:
            with pytest.raises(type(exc)) as got:
                entanglement_columns(*np.array(points).T)
            assert str(got.value) == str(exc), points
            return
    cols = entanglement_columns(*np.array(points).T)
    for i, (point, want) in enumerate(zip(points, wants)):
        assert_row_matches(cols, i, want, point)


def test_first_failing_row_decides_the_error():
    with pytest.raises(NumericRangeError, match="sigma2 underflows.*m1=4e"):
        entanglement_columns(*np.array(FIRST_ROW_UNDERFLOWS).T)


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


def test_sigma2_capped_at_sigma1_where_it_rounded_above():
    # Both closed forms rounded sigma2 to 2.390850681848216 here, an ulp
    # above sigma1 = 2.3908506818482156.
    point = (88.58004494632122, 88.58004494632716, 253.1691641327174, 253.16916413273444, 0.0)
    spec = mode_spectrum(OscillatorParams(*point))
    cols = entanglement_columns(*point)
    assert spec.sigma2 <= spec.sigma1 == 2.3908506818482156
    assert cols["sigma2"][0] <= cols["sigma1"][0] == 2.3908506818482156


def nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Commutative points whose modes have alpha/m equal up to a few ulps, where
# sigma1 and sigma2 are the same frequency in two roundings.
near_isotropic = st.builds(
    lambda m, a, scale, ulps: (m, m * scale, a, nudged(a * scale, ulps), 0.0),
    log_uniform, log_uniform, power_of_two, st.integers(-2, 2),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(near_isotropic, min_size=1, max_size=20))
def test_sigma2_never_above_sigma1_near_isotropy(points):
    cols = entanglement_columns(*np.array(points).T)
    for i, point in enumerate(points):
        spec = mode_spectrum(OscillatorParams(*point))
        assert spec.sigma2 <= spec.sigma1 and cols["sigma2"][i] <= cols["sigma1"][i], point


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
