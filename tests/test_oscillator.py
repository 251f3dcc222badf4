"""Bopp shift, normal modes, ground-state exponent and closed-form E_S."""

import decimal
import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncho import (
    AsymptoticBounds,
    CanonicalSystem,
    DomainError,
    ModeSpectrum,
    NumericRangeError,
    OscillatorParams,
    TwoModeGaussian,
    anisotropy_ratio,
    asymptotic_bounds,
    bopp_shift,
    build_h_matrix,
    build_omega_matrix,
    covariance_blocks,
    energy_level,
    entanglement_of_formation,
    es_closed_form,
    ground_state_lambda_closed,
    mode_spectrum,
    simon_es,
)
from ncho.cli import analyze_report
from support import census_params, fig1, log_uniform_params, random_params


# Valid floats, the edges of each field's range and values beyond them.
FIELD_VALUES = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([0, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, sys.float_info.max]),
    st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True),  # subnormal
    st.integers(min_value=1, max_value=10**600),
    st.integers(min_value=2**1024, max_value=10**600).map(lambda n: -n),
)


def field_is_valid(name, v) -> bool:
    """The documented domain, read through exact int and float arithmetic."""
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        return False
    return (v >= 0 if name == "theta" else v > 0) and math.isfinite(v)


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            OscillatorParams(0, 1, 1, 1, 0)
        with pytest.raises(DomainError):
            OscillatorParams(1, 1, -2, 1, 0)
        with pytest.raises(DomainError):
            OscillatorParams(1, 1, 1, 1, -0.1)

    def test_make_and_replace_are_checked(self):
        p = fig1(1.0)
        with pytest.raises(DomainError, match="m1 must be positive"):
            p._replace(m1=-1.0)
        with pytest.raises(DomainError, match="theta must be nonnegative"):
            OscillatorParams._make([1.0, 1.0, 1.0, 1.0, math.nan])
        assert p._replace(theta=2.0) == fig1(2.0)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("huge", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
    def test_int_beyond_the_float_range_is_a_domain_error(self, field, huge):
        # math.isfinite cannot take these, and 10**5000 has too many digits
        # to print.
        values = [1, 1, 1, 1, 0]
        values[field] = huge
        name = OscillatorParams._fields[field]
        with pytest.raises(DomainError, match=f"^{name} must be .* got an int beyond the float range$"):
            OscillatorParams(*values)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.tuples(*[FIELD_VALUES] * 5))
    def test_accepts_exactly_the_valid_fields(self, values):
        names = OscillatorParams._fields
        bad = [name for name, v in zip(names, values) if not field_is_valid(name, v)]
        if not bad:
            p = OscillatorParams(*values)
            assert all(type(a) is float and a == float(v) for a, v in zip(p, values))
            return
        name, v = bad[0], values[names.index(bad[0])]
        huge = isinstance(v, int) and abs(v) > sys.float_info.max
        shown = "an int beyond the float range" if huge else v
        what = "nonnegative" if name == "theta" else "positive"
        with pytest.raises(DomainError) as info:
            OscillatorParams(*values)
        assert str(info.value) == f"{name} must be {what} and finite, got {shown}"

    def test_fields_are_read_only(self):
        p = fig1(1.0)
        with pytest.raises(AttributeError):
            p.m1 = 2.0
        with pytest.raises(AttributeError):
            p.extra = 2.0

    def test_repr_names_every_field(self):
        # NumericRangeError messages embed it; the int field is stored as a float.
        assert repr(OscillatorParams(1.0, 2, alpha1=5.0, alpha2=1e-200, theta=0.5)) == (
            "OscillatorParams(m1=1.0, m2=2.0, alpha1=5.0, alpha2=1e-200, theta=0.5)"
        )

    def test_value_semantics(self):
        p = OscillatorParams(m1=1.0, m2=1.0, alpha1=5.0, alpha2=10.0, theta=1.0)
        assert p == fig1(1.0) and hash(p) == hash(fig1(1.0)) and p != fig1(2.0)
        assert pickle.loads(pickle.dumps(p)) == p
        # A tuple of its fields, in order.
        assert p == (1.0, 1.0, 5.0, 10.0, 1.0) and list(p) == [1.0, 1.0, 5.0, 10.0, 1.0]


class TestBoppShift:
    def test_commutative_limit(self):
        c = bopp_shift(fig1(0.0))
        assert (c.big_m1, c.big_m2) == (1.0, 1.0)
        assert (c.omega1_sq, c.omega2_sq) == (10.0, 20.0)

    def test_fig1_values(self):
        c = bopp_shift(fig1(1.0))
        assert 1 / c.big_m1 == pytest.approx(6.0, rel=1e-15)
        assert 1 / c.big_m2 == pytest.approx(3.5, rel=1e-15)
        assert c.omega1_sq == pytest.approx(60.0, rel=1e-14)
        assert c.omega2_sq == pytest.approx(70.0, rel=1e-14)

    def test_unequal_masses(self):
        c = bopp_shift(OscillatorParams(2, 3, 1, 1, 0.5))
        assert 1 / c.big_m1 == pytest.approx(0.5 + 0.125, rel=1e-15)
        assert 1 / c.big_m2 == pytest.approx(1 / 3 + 0.125, rel=1e-15)

    def test_mass_reconstruction_and_reduction(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_params(rng)
            c = bopp_shift(p)
            assert 1 / c.big_m1 == pytest.approx(
                1 / p.m1 + p.alpha2 * p.theta**2 / 2, rel=1e-14
            )
            assert 1 / c.big_m2 == pytest.approx(
                1 / p.m2 + p.alpha1 * p.theta**2 / 2, rel=1e-14
            )
            assert c.big_m1 <= p.m1 and c.big_m2 <= p.m2
            assert c.omega1_sq * c.big_m1 == pytest.approx(2 * p.alpha1, rel=1e-14)


class TestQuadraticFormMatrices:
    def test_commutative_block_diagonal(self):
        h = build_h_matrix(fig1(0.0))
        np.testing.assert_allclose(h, np.diag([10.0, 1.0, 20.0, 1.0]))

    def test_fig1_entries(self):
        h = build_h_matrix(fig1(1.0))
        np.testing.assert_allclose(np.diag(h), [10.0, 6.0, 20.0, 3.5], rtol=1e-14)
        assert h[0, 3] == h[3, 0] == -5.0
        assert h[1, 2] == h[2, 1] == 10.0
        # M1*w1^2 = 2*alpha1 regardless of theta
        assert h[0, 0] == pytest.approx(10.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = build_h_matrix(random_params(rng))
            assert np.array_equal(h, h.T)

    def test_dynamical_matrix_is_definitional_product(self):
        # i * Sigma_y with Sigma_y = diag(sigma_y, sigma_y); entries are exactly +-1.
        i_sigma_y = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rng = np.random.default_rng(2)
        for p in [fig1(0.0), fig1(1.0)] + [random_params(rng) for _ in range(50)]:
            # i*Sigma_y only moves and negates entries: exact equality expected,
            # down to the sign of each zero (the product gives +0.0).
            om, product = build_omega_matrix(p), i_sigma_y @ build_h_matrix(p)
            assert np.array_equal(om, product)
            assert np.array_equal(np.signbit(om), np.signbit(product))
            assert not np.signbit(om[om == 0]).any()

    def test_unit_commutative_dynamical_matrix(self):
        om = build_omega_matrix(OscillatorParams(1, 1, 0.5, 0.5, 0))
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(om, np.kron(np.eye(2), block))

    def test_fig1_dynamical_entries(self):
        om = build_omega_matrix(fig1(1.0))
        expected = np.array(
            [
                [0, 6, 10, 0],
                [-10, 0, 0, 5],
                [-5, 0, 0, 3.5],
                [0, -10, -20, 0],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(om, expected, rtol=1e-14)

    def test_magnetic_field_form_expands_to_canonical(self):
        # Completing the squares in the "field" form of the Hamiltonian
        # reproduces the canonical quadratic form entry by entry.
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_params(rng)
            c = bopp_shift(p)
            m1, m2, th = c.big_m1, c.big_m2, p.theta
            h_field = np.zeros((4, 4))
            # (p1 + th*M1*a2*x2)^2 / 2M1
            h_field[1, 1] += 1 / m1
            h_field[1, 2] += th * p.alpha2
            h_field[2, 1] += th * p.alpha2
            h_field[2, 2] += th**2 * m1 * p.alpha2**2
            # (p2 - th*M2*a1*x1)^2 / 2M2
            h_field[3, 3] += 1 / m2
            h_field[3, 0] += -th * p.alpha1
            h_field[0, 3] += -th * p.alpha1
            h_field[0, 0] += th**2 * m2 * p.alpha1**2
            # residual quadratic potential
            h_field[0, 0] += m1 * c.omega1_sq - m2 * th**2 * p.alpha1**2
            h_field[2, 2] += m2 * c.omega2_sq - m1 * th**2 * p.alpha2**2
            np.testing.assert_allclose(h_field, build_h_matrix(p), rtol=1e-12, atol=1e-12)

    def test_isotropic_in_field_reduction(self):
        # Equal effective masses and couplings: the matrix takes the
        # single-mode-in-field shape with omega_B = theta*alpha.
        p = OscillatorParams(1, 1, 3, 3, 0.7)
        c = bopp_shift(p)
        assert c.big_m1 == c.big_m2
        wb = p.theta * p.alpha1
        m, wsq = c.big_m1, c.omega1_sq
        expected = np.array(
            [
                [0, 1 / m, wb, 0],
                [-m * wsq, 0, 0, wb],
                [-wb, 0, 0, 1 / m],
                [0, -wb, -m * wsq, 0],
            ]
        )
        np.testing.assert_allclose(build_omega_matrix(p), expected, rtol=1e-14)


class TestModeSpectrum:
    def test_decoupled_modes(self):
        s = mode_spectrum(fig1(0.0))
        assert s.sigma1 == pytest.approx(math.sqrt(20), rel=1e-14)
        assert s.sigma2 == pytest.approx(math.sqrt(10), rel=1e-14)

    def test_underflowing_sigma1_raises(self):
        # b and D underflow to 0, so sigma2 = sqrt(c)/sigma1 would divide by 0.
        with pytest.raises(NumericRangeError, match="sigma1 underflows"):
            mode_spectrum(OscillatorParams(1e200, 1e200, 1e-200, 1e-200, 0.0))

    def test_sigma2_survives_an_underflowing_c(self):
        # c = p*q underflows to 0 here; sigma2 = sqrt(p), the slower mode.
        s = mode_spectrum(OscillatorParams(1, 1.8e16, 1.1e-308, 1, 0))
        assert s.sigma2 == pytest.approx(math.sqrt(2 * 1.1e-308), rel=1e-15)

    def test_underflowing_sigma2_raises(self):
        # p = 2 alpha1/m1 itself underflows to 0.
        with pytest.raises(NumericRangeError, match="sigma2 underflows"):
            mode_spectrum(OscillatorParams(4e201, 7e148, 6e-126, 3e-294, 1e107))

    def test_fig1_spectrum(self):
        s = mode_spectrum(fig1(1.0))
        assert s.b == pytest.approx(230.0, rel=1e-14)
        assert s.c == pytest.approx(200.0, rel=1e-12)
        assert s.d == pytest.approx(52100.0, rel=1e-12)
        assert s.sigma1 == pytest.approx(15.136945600256785, rel=1e-13)
        assert s.sigma2 == pytest.approx(0.9342793451996745, rel=1e-13)

    def test_isotropic_commutative_degeneracy(self):
        s = mode_spectrum(OscillatorParams(1, 1, 0.5, 0.5, 0))
        assert s.d == 0
        assert s.sigma1 == s.sigma2 == pytest.approx(1.0, rel=1e-14)

    def test_vieta_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            s = mode_spectrum(random_params(rng))
            assert s.sigma1**2 + s.sigma2**2 == pytest.approx(s.b, rel=1e-10)
            assert s.sigma1**2 * s.sigma2**2 == pytest.approx(s.c, rel=1e-10)
            assert s.sigma1 >= s.sigma2 > 0


class TestPositionalResults:
    """The oscillator layer builds its results with tuple.__new__, by position."""

    def test_fields_hold_their_quantities(self):
        # Identities that the Fig. 1 values and the Vieta and Omega0 tests
        # leave open; a swapped field fails one of them.
        rng = np.random.default_rng(21)
        for p in [fig1(0.0), fig1(1.0), *(random_params(rng) for _ in range(200))]:
            canon, spec = bopp_shift(p), mode_spectrum(p)
            state, bounds = ground_state_lambda_closed(p, spec), asymptotic_bounds(p)
            built = (
                (canon, CanonicalSystem), (spec, ModeSpectrum),
                (state, TwoModeGaussian), (bounds, AsymptoticBounds),
            )
            for value, cls in built:
                assert type(value) is cls and cls(**value._asdict()) == value
            assert canon.big_m2 * canon.omega2_sq == pytest.approx(2 * p.alpha2, rel=1e-14)
            assert spec.d == pytest.approx((spec.sigma1**2 - spec.sigma2**2) ** 2, rel=1e-10)
            assert bounds.e_f_bound == entanglement_of_formation(bounds.e_s_limit)[1]


class TestEnergyLevels:
    def test_unit_ground_state(self):
        s = mode_spectrum(OscillatorParams(1, 1, 0.5, 0.5, 0))
        assert energy_level(s, 0, 0) == pytest.approx(1.0, rel=1e-14)

    def test_fig1_ground_state(self):
        s = mode_spectrum(fig1(1.0))
        assert energy_level(s, 0, 0) == pytest.approx(8.03561247272823, rel=1e-12)

    def test_excited_level(self):
        s = mode_spectrum(fig1(0.0))
        assert energy_level(s, 1, 2) == pytest.approx(14.613898082920318, rel=1e-13)

    def test_invalid_quantum_numbers(self):
        s = mode_spectrum(fig1(0.0))
        # -10**5000 has too many digits to print.
        for n1, n2 in ((-1, 0), (0, 1.5), (math.inf, 0), (0, math.nan), (-10**5000, 0)):
            with pytest.raises(DomainError):
                energy_level(s, n1, n2)

    @pytest.mark.parametrize("n1", [1e308, 10**400], ids=["float-overflow", "int-beyond-float"])
    def test_overflowing_level_raises_range_error(self, n1):
        # Fig. 1: sigma1*(1e308 + 1/2) is inf, and 10**400 + 0.5 has no float.
        with pytest.raises(NumericRangeError, match="energy level"):
            energy_level(mode_spectrum(fig1(1.0)), n1, 0)


class TestGroundStateLambda:
    def test_commutative_widths(self):
        p = fig1(0.0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        assert state.alpha == pytest.approx(math.sqrt(10), rel=1e-13)
        assert state.beta == pytest.approx(math.sqrt(20), rel=1e-13)
        assert state.gamma == 0
        # With alpha1/m1 > alpha2/m2 the cross term is 0.0 * (y - x); analyze
        # must print 0.0 there, not -0.0.
        swapped = OscillatorParams(1, 1, 10, 5, 0)
        gamma = ground_state_lambda_closed(swapped, mode_spectrum(swapped)).gamma
        assert gamma == 0 and math.copysign(1.0, gamma.imag) == 1.0

    @pytest.mark.parametrize(
        "inputs",
        [
            (3e-274, 5e68, 9e-274, 1e131, 4e-102),  # m2 * M1/M2 underflows
            (4e201, 7e148, 6e-126, 3e-294, 1e107),  # sqrt(c1) + sqrt(c2) underflows
        ],
    )
    def test_underflowing_denominator_raises(self, inputs):
        p = OscillatorParams(*inputs)
        # sigma2 underflows at the second point, so mode_spectrum raises
        # first; no denominator of Lambda reads the spectrum, so a stand-in
        # reaches the same branch.
        spec = ModeSpectrum(b=2.0, c=1.0, d=0.0, sigma1=1.0, sigma2=1.0)
        with pytest.raises(NumericRangeError, match="leave the float range"):
            ground_state_lambda_closed(p, spec)

    def test_isotropic_cross_term_vanishes(self):
        for theta in (0.1, 1.0, 10.0):
            p = OscillatorParams(1, 1, 3, 3, theta)
            state = ground_state_lambda_closed(p, mode_spectrum(p))
            assert state.gamma == 0

    @pytest.mark.parametrize(
        "inputs, expected",
        [
            # 2 sqrt(x y) t (y - x) underflows unless divided by x + y first.
            (
                (4.5e-78, 3.4e43, 2.7e-133, 2.8e-131, 4e-134),
                (1.5588457268119895e-105, 4.3634848458542858e-44, -1.3603999411937653e-282),
            ),
            # t^2 = theta^2 x y overflows.
            (
                (8.2e122, 8.8e133, 1.6e47, 4.1e-111, 5.8e107),
                (2.1052204878220459e-113, 1.1039869374884222e-186, -3.4482758620689657e-108),
            ),
            # Exponents near 1e100.
            (
                (4.1e148, 1.5e99, 1.4e136, 2.5e83, 1.8e-101),
                (1.136693621923251e126, 9.1876218264019845e74, -1.0630770385665509e101),
            ),
        ],
    )
    def test_extreme_scales_match_exact_arithmetic(self, inputs, expected):
        # The expected values come from 60-digit arithmetic.
        p = OscillatorParams(*inputs)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        got = (state.alpha, state.beta, state.gamma.imag)
        assert got == pytest.approx(expected, rel=1e-13, abs=0)

    def test_closed_matches_printed_expressions(self):
        # The implementation uses a cancellation-free rearrangement; check
        # it against the verbatim component formulas on generic inputs.
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_params(rng, theta_low=0.05)
            c = bopp_shift(p)
            s = mode_spectrum(p)
            den = c.big_m2 * (c.omega2_sq + s.sigma1 * s.sigma2) - p.theta**2 * c.big_m1 * p.alpha2**2
            l11 = c.big_m1 * c.big_m2 * s.sigma1 * s.sigma2 * (s.sigma1 + s.sigma2) / den
            l22 = (
                c.big_m2
                * (c.big_m2 * c.omega2_sq - c.big_m1 * p.theta**2 * p.alpha2**2)
                * (s.sigma1 + s.sigma2)
                / den
            )
            l12 = (
                1j
                * c.big_m2
                * (
                    p.theta**3 * c.big_m1 * p.alpha2**2 * p.alpha1
                    - p.theta * c.big_m2 * p.alpha1 * c.omega2_sq
                    + p.theta * c.big_m1 * p.alpha2 * s.sigma1 * s.sigma2
                )
                / den
            )
            state = ground_state_lambda_closed(p, s)
            scale = max(state.alpha, state.beta, abs(state.gamma))
            assert abs(state.alpha - l11) < 1e-9 * scale
            assert abs(state.beta - l22) < 1e-9 * scale
            assert abs(state.gamma - l12) < 1e-9 * scale

    def test_positivity_and_normalizability(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = random_params(rng)
            state = ground_state_lambda_closed(p, mode_spectrum(p))
            assert state.alpha > 0 and state.beta > 0
            assert state.alpha * state.beta - state.gamma.real**2 > 0


class TestGroundStateAsGaussian:
    """ground_state_lambda_closed returns the state as a TwoModeGaussian."""

    def test_cross_coefficient_is_imaginary(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = random_params(rng, theta_low=0.05)
            state = ground_state_lambda_closed(p, mode_spectrum(p))
            assert state.gamma.real == 0

    def test_pipeline_matches_closed_form(self):
        for p in (fig1(1.0), OscillatorParams(1, 2, 3, 3, 1)):
            state = ground_state_lambda_closed(p, mode_spectrum(p))
            assert simon_es(covariance_blocks(state)) == pytest.approx(
                es_closed_form(p), rel=1e-12
            )


class TestSimonClosedForm:
    def test_commutative_is_separable(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_params(rng, theta_high=0.0)
            assert es_closed_form(p) == 0

    def test_fig1_value(self):
        assert es_closed_form(fig1(1.0)) == pytest.approx(-0.005871454297898655, rel=1e-13)

    def test_matched_ratio_is_separable(self):
        for p in (OscillatorParams(1, 4, 1, 4, 2), OscillatorParams(1, 1, 2, 2, 3)):
            assert es_closed_form(p) == 0

    def test_interchange_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_params(rng)
            q = OscillatorParams(p.m2, p.m1, p.alpha2, p.alpha1, p.theta)
            assert es_closed_form(p) == pytest.approx(es_closed_form(q), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 1e-200])
    def test_negative_zero_at_vanishing_theta(self, theta):
        e_s = es_closed_form(fig1(theta))
        assert e_s == 0 and math.copysign(1.0, e_s) == -1.0

    @pytest.mark.parametrize("theta", [1e154, 1.4e154, 1e300])
    def test_saturates_where_theta_squared_overflows(self, theta):
        assert es_closed_form(fig1(theta)) == asymptotic_bounds(fig1(0.0)).e_s_limit

    def test_finite_at_extreme_inputs(self):
        p = OscillatorParams(1.6e22, 8.9e113, 2.2e139, 1e-4, 1e-18)
        with decimal.localcontext(decimal.Context(prec=50)):
            m1, m2, a1, a2, th = map(decimal.Decimal, (p.m1, p.m2, p.alpha1, p.alpha2, p.theta))
            x, y, th2 = (a1 * m2).sqrt(), (a2 * m1).sqrt(), th * th
            exact = -(th2 / 8) * x * y * (x - y) ** 2 / (2 * th2 * x * x * y * y + (x + y) ** 2)
        e_s = es_closed_form(p)
        assert math.isfinite(e_s) and e_s < 0
        assert e_s == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("inputs", [(1e-200,) * 4, (1e200,) * 4, (1e-200, 1e200, 1e200, 1e-200)],
                             ids=["x-and-y-underflow", "x-and-y-overflow", "x-over-y-underflow"])
    def test_non_finite_raises(self, inputs):
        # a1*m2 and a2*m1 leave the float range; E_S was NaN or ZeroDivisionError.
        for theta in (0.0, 1.0):
            with pytest.raises(NumericRangeError, match="E_S is not finite"):
                es_closed_form(OscillatorParams(*inputs, theta))
            with pytest.raises(NumericRangeError, match="E_S is not finite"):
                asymptotic_bounds(OscillatorParams(*inputs, theta))

    def test_extreme_inputs_give_finite_values_or_range_errors(self):
        # Log-uniform over 1e-300..1e300 in all five inputs.
        rng = random.Random(3)
        returned = 0
        for _ in range(20_000):
            p = OscillatorParams(*(10 ** rng.uniform(-300, 300) for _ in range(5)))
            for values in (lambda: [es_closed_form(p)], lambda: asymptotic_bounds(p)):
                try:
                    got = values()
                except NumericRangeError:
                    continue
                returned += 1
                assert all(math.isfinite(v) for v in got), p
        assert returned > 20_000


class TestAsymptoticBounds:
    def test_isotropic_limit(self):
        b = asymptotic_bounds(OscillatorParams(2, 2, 5, 5, 0))
        assert b.e_s_limit == 0 and b.omega0 == 0.5 and b.e_f_bound == 0

    @pytest.mark.parametrize("inputs", [(1, 4, 1, 4), (3, 7, 3, 7), (1e-150, 1e150, 1e-150, 1e150)])
    def test_matched_ratio_limit_is_exactly_zero(self, inputs):
        b = asymptotic_bounds(OscillatorParams(*inputs, 0))
        assert b.e_s_limit == 0 and b.omega0 == 0.5 and b.e_f_bound == 0

    def test_exact_where_x_times_y_overflows(self):
        # 16 x y overflows here, and a limit formed through it read -0.0.
        p = OscillatorParams(1, 1, 1.7e308, 1e307, 0)
        with decimal.localcontext(decimal.Context(prec=60)):
            x = (decimal.Decimal(p.alpha1) * decimal.Decimal(p.m2)).sqrt()
            y = (decimal.Decimal(p.alpha2) * decimal.Decimal(p.m1)).sqrt()
            e_s = -((x - y) ** 2) / (16 * x * y)
            omega0 = (x + y) / (4 * (x * y).sqrt())
        b = asymptotic_bounds(p)
        assert b.e_s_limit == pytest.approx(float(e_s), rel=1e-15)
        assert b.omega0 == pytest.approx(float(omega0), rel=1e-15)
        assert b.e_f_bound == pytest.approx(entanglement_of_formation(float(e_s))[1], rel=1e-15)

    def test_fig1_values(self):
        b = asymptotic_bounds(fig1(1.0))
        assert b.e_s_limit == pytest.approx(-0.007582521472477661, rel=1e-13)
        assert b.omega0 == pytest.approx(0.5075258825641089, rel=1e-13)
        assert b.e_f_bound == pytest.approx(0.044351235568716244, rel=1e-12)

    def test_fig1_saturates_exactly(self):
        # 1/z is far below half an ulp of 2q at theta = 1e10, so E_S rounds
        # to its limit; a second formula for the limit read one ulp lower.
        r = analyze_report(fig1(1e10))
        assert r["e_s"] == r["e_s_limit"] and r["omega"] == r["omega0"]

    @pytest.mark.parametrize(
        "draw",
        [
            census_params,
            lambda: log_uniform_params(30, 30, 20_000),
            lambda: log_uniform_params(300, 300, 20_000),
        ],
        ids=["census", "1e+-30", "1e+-300"],
    )
    def test_report_never_passes_its_own_limits(self, draw):
        # E_S and its limit share every rounding but 1/z + 2q >= 2q, and
        # correctly rounded operations are monotone: no tolerance is needed.
        returned = 0
        for p in draw():
            try:
                r = analyze_report(p)
            except NumericRangeError:
                continue
            returned += 1
            assert r["e_s"] >= r["e_s_limit"] and r["omega"] <= r["omega0"], p
        assert returned >= 2_000

    def test_limit_matches_large_theta(self):
        b = asymptotic_bounds(fig1(1.0))
        assert es_closed_form(fig1(1e6)) == pytest.approx(b.e_s_limit, rel=1e-5)

    def test_omega_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            b = asymptotic_bounds(random_params(rng))
            assert b.omega0**2 - (0.25 - b.e_s_limit) == pytest.approx(0.0, abs=1e-12)

    def test_interchange_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_params(rng)
            q = OscillatorParams(p.m2, p.m1, p.alpha2, p.alpha1, p.theta)
            assert asymptotic_bounds(p).omega0 == pytest.approx(
                asymptotic_bounds(q).omega0, rel=1e-12
            )


class TestAnisotropyRatio:
    def test_fig1(self):
        assert anisotropy_ratio(fig1(1.0)) == pytest.approx(0.5, rel=1e-15)

    def test_isotropic(self):
        assert anisotropy_ratio(OscillatorParams(2, 2, 3, 3, 1)) == 1.0

    def test_generic(self):
        assert anisotropy_ratio(OscillatorParams(2, 1, 4, 1, 0.3)) == pytest.approx(2.0)

    def test_underflowing_denominator_raises(self):
        with pytest.raises(NumericRangeError, match="alpha2/m2 underflows"):
            anisotropy_ratio(OscillatorParams(1.0, 1e200, 1.0, 1e-200, 0.0))

    @pytest.mark.parametrize(
        "inputs",
        [
            (1e200, 1e200, 1e-200, 1e-200),  # both quotients underflow to 0
            (1e-200, 1e-200, 1e200, 1e200),  # both overflow
            (1e10, 1.0, 3e-300, 7e-301),  # alpha1/m1 is subnormal
            (1e-300, 1e300, 1e-10, 1e300),  # alpha2/m2 = 1e-310 and (alpha1/m1)/(alpha2/m2) overflows
        ],
    )
    def test_regrouped_where_a_quotient_leaves_the_range(self, inputs):
        m1, m2, a1, a2 = inputs
        r = anisotropy_ratio(OscillatorParams(m1, m2, a1, a2, 1.0))
        exact = Fraction(a1) * Fraction(m2) / (Fraction(a2) * Fraction(m1))
        assert abs(Fraction(r) - exact) <= 4e-16 * exact

    @pytest.mark.parametrize("inputs", [(1e200, 1.0, 1e-200, 1.0), (1.0, 1.0, 1e300, 1e-300)])
    def test_ratio_out_of_range_raises(self, inputs):
        with pytest.raises(NumericRangeError, match="r leaves the float range"):
            anisotropy_ratio(OscillatorParams(*inputs, 0.0))


class TestMonotoneSaturation:
    def test_formation_entropy_grows_to_bound(self):
        bound = asymptotic_bounds(fig1(1.0)).e_f_bound
        values = []
        for theta in np.arange(0, 10.25, 0.25):
            e_s = es_closed_form(fig1(float(theta)))
            values.append(entanglement_of_formation(e_s)[1])
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v <= bound for v in values)

    @pytest.mark.parametrize("alpha2", [1 + 1e-8, 1 + 1e-6, 1 + 1e-4])
    def test_near_isotropic_entropy_stays_below_bound(self, alpha2):
        # E_S(inf) is ~1e-17 at alpha2 = 1 + 1e-8, where Omega0 rounds to 1/2;
        # E_F and its bound must still come from the same formula.
        bound = asymptotic_bounds(OscillatorParams(1.0, 1.0, 1.0, alpha2, 0.0)).e_f_bound
        for theta in (1.0, 1e3, 1e6):
            e_f = entanglement_of_formation(es_closed_form(OscillatorParams(1.0, 1.0, 1.0, alpha2, theta)))[1]
            assert 0 <= e_f <= bound
