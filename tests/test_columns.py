"""The array path (entanglement_columns) against the scalar functions."""

import math

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


def test_degenerate_rows_are_clamped():
    # At alpha2 = 1 + 7e-9, D = b^2 - 4c rounds to -3.6e-15 before the clamp.
    alpha1, alpha2 = np.array([0.5, 1.0]), np.array([0.5, 1 + 7e-9])
    cols = entanglement_columns(1.0, 1.0, alpha1, alpha2, 0.0)
    for i in range(2):
        spec = mode_spectrum(OscillatorParams(1.0, 1.0, alpha1[i], alpha2[i], 0.0))
        assert spec.degenerate
        assert (cols["sigma1"][i], cols["sigma2"][i]) == (spec.sigma1, spec.sigma2)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_invalid_row_raises_domain_error(bad):
    with pytest.raises(DomainError, match="theta"):
        entanglement_columns(1.0, 1.0, 5.0, 10.0, np.array([1.0, bad, 2.0]))
    with pytest.raises(DomainError, match="alpha2"):
        entanglement_columns(1.0, 1.0, 5.0, np.array([1.0, 2.0, bad]), 1.0)


def test_overflowing_row_raises_numeric_range_error():
    with pytest.raises(NumericRangeError, match="theta=1e"):
        entanglement_columns(1.0, 1.0, 5.0, 10.0, np.array([1.0, 1e76]))


def test_positive_e_s_rejected():
    with pytest.raises(DomainError, match="E_S = 1e-09 > 0"):
        formation_columns(np.array([-0.1, 1e-9]))
