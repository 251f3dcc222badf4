"""Two-mode Gaussian states: normalizability, covariance, E_S and E_F."""

import decimal
import math

import numpy as np
import pytest

from ncho import (
    CovarianceBlocks,
    DomainError,
    NumericRangeError,
    TwoModeGaussian,
    covariance_blocks,
    entanglement_of_formation,
    simon_es,
)
from ncho.gaussian import _formation
from support import random_state


class TestNormalization:
    """The conditions under which a TwoModeGaussian is normalizable."""

    def test_boundary_of_width_determinant_rejected(self):
        with pytest.raises(DomainError, match="Re\\(alpha\\)\\*Re\\(beta\\)"):
            TwoModeGaussian(1, 1, 1)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(DomainError, match="Re\\(alpha\\) > 0"):
            TwoModeGaussian(-1 + 2j, 1, 0)
        with pytest.raises(DomainError, match="Re\\(beta\\) > 0"):
            TwoModeGaussian(1, 0, 0)

    def test_make_and_replace_are_checked(self):
        state = TwoModeGaussian(1, 1, 0.5)
        with pytest.raises(DomainError, match="Re\\(alpha\\)\\*Re\\(beta\\)"):
            state._replace(gamma=1.5)
        with pytest.raises(DomainError, match="Re\\(alpha\\) > 0"):
            TwoModeGaussian._make([-1, 1, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_non_finite_coefficient_rejected(self, name, part, bad):
        # covariance_blocks read such a state as NaN blocks, which simon_es
        # then called too large.
        state = TwoModeGaussian(1.0 + 0.5j, 2.0 - 0.5j, 0.3j)
        good = getattr(state, name)
        value = complex(bad, good.imag) if part == "real" else complex(good.real, bad)
        with pytest.raises(DomainError, match="must be finite"):
            TwoModeGaussian(**{**state._asdict(), name: value})
        with pytest.raises(DomainError, match="must be finite"):
            state._replace(**{name: value})

    def test_large_real_gamma_rejected(self):
        # Re(gamma)^2 leaves the float range, where the float ** raises OverflowError.
        with pytest.raises(DomainError, match="Re\\(alpha\\)\\*Re\\(beta\\)"):
            TwoModeGaussian(1, 1, 1e200)


class TestCovarianceBlocks:
    def test_product_ground_state(self):
        cov = covariance_blocks(TwoModeGaussian(1, 1, 0))
        np.testing.assert_allclose(cov.a_block, [[0.5, 0], [0, 0.5]], atol=1e-15)
        np.testing.assert_allclose(cov.b_block, [[0.5, 0], [0, 0.5]], atol=1e-15)
        np.testing.assert_allclose(cov.c_block, 0, atol=1e-15)
        assert np.linalg.det(cov.a_block) == pytest.approx(0.25, abs=1e-15)

    def test_pure_imaginary_cross_coefficient(self):
        g = 0.3
        cov = covariance_blocks(TwoModeGaussian(1, 1, 1j * g))
        assert cov.a_block[0][0] == pytest.approx(0.5)
        assert cov.c_block[0][0] == 0  # <x1 x2> vanishes with Re(gamma) = 0
        assert np.linalg.det(cov.c_block) == pytest.approx(-g * g / 4, rel=1e-13)

    @pytest.mark.parametrize("gamma", [0j, 4.1e-140j])
    def test_underflowing_width_product(self, gamma):
        # Re(alpha)*Re(beta) = 4.9e-232 is representable, but
        # 2*Re(alpha)*4.9e-232 underflows, so no moment may divide by it.
        a, b = 3.28e-117, 1.49e-115
        cov = covariance_blocks(TwoModeGaussian(a, b, gamma))
        g = gamma.imag
        assert cov.a_block[0][0] == pytest.approx(1 / (2 * a), rel=1e-15)
        assert cov.b_block[0][0] == pytest.approx(1 / (2 * b), rel=1e-15)
        assert cov.a_block[1][1] == pytest.approx(a / 2 + g * g / (2 * b), rel=1e-15)
        assert cov.b_block[1][1] == pytest.approx(b / 2 + g * g / (2 * a), rel=1e-15)
        assert cov.c_block[0][1] == pytest.approx(-g / (2 * a), rel=1e-15)
        assert cov.c_block[1][0] == pytest.approx(-g / (2 * b), rel=1e-15)

    def test_boundary_state_raises_range_error(self):
        # Re(alpha)*Re(beta) - Re(gamma)^2 > 0 in floats, so the state is
        # valid, but |kappa| rounds to 1 and X = Re(A)^-1/2 has no float value.
        state = TwoModeGaussian(1.0292099090649256, 0.3806400175678625, 0.6259061254433378)
        with pytest.raises(NumericRangeError, match="covariance is singular"):
            covariance_blocks(state)

    def test_det_a_equals_det_b(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cov = covariance_blocks(random_state(rng))
            da, db = np.linalg.det(cov.a_block), np.linalg.det(cov.b_block)
            assert da == pytest.approx(db, rel=1e-12)

    def test_block_shapes_validated(self):
        with pytest.raises(DomainError):
            CovarianceBlocks(np.eye(3), np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "block",
        [
            np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 1)), [[0, 0], [0]], [[0, 0]], 0.5, None,
            [[1j, 0], [0, 1]], np.array([[1, 0], [0, 1j]]), [["1", 0], [0, 1]], "ab",
        ],
        ids=[
            "vector", "2x3", "2x2x1", "ragged", "one-row", "scalar", "none",
            "complex", "complex-array", "string-entry", "string",
        ],
    )
    def test_non_2x2_or_non_real_block_rejected(self, block):
        with pytest.raises(DomainError, match="b_block must be a 2x2 matrix of real numbers"):
            CovarianceBlocks(np.eye(2), block, np.zeros((2, 2)))

    def test_entries_are_float_tuples(self):
        built = CovarianceBlocks(
            np.eye(2), [[1, np.int64(2)], (np.float32(0.25), True)], ((0.5, 0), (0, 0.5))
        )
        assert built.b_block == ((1.0, 2.0), (0.25, 1.0))
        for cov in (covariance_blocks(TwoModeGaussian(1, 2 + 1j, 0.3 + 0.2j)), built):
            for block in cov:
                assert type(block) is tuple and len(block) == 2
                assert all(type(row) is tuple and len(row) == 2 for row in block)
                assert all(type(v) is float for row in block for v in row)

    def test_replace_is_checked(self):
        cov = covariance_blocks(TwoModeGaussian(1, 1, 0))
        with pytest.raises(DomainError, match="c_block"):
            cov._replace(c_block=np.zeros(3))
        assert cov._replace(c_block=[[0, 0], [0, 0]]).c_block == ((0.0, 0.0), (0.0, 0.0))


class TestSimonFunctional:
    def test_zero_for_uncoupled_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_state(rng, cross_fraction=0.0)
            state = TwoModeGaussian(state.alpha, state.beta, 0)
            assert abs(simon_es(covariance_blocks(state))) < 1e-15

    def test_real_cross_term(self):
        # gamma = 1/2 on unit widths: E_S = -(1/4)(1/4)/(3/4) = -1/12.
        e_s = simon_es(covariance_blocks(TwoModeGaussian(1, 1, 0.5)))
        assert e_s == pytest.approx(-1 / 12, rel=1e-13)

    def test_imaginary_cross_term(self):
        e_s = simon_es(covariance_blocks(TwoModeGaussian(1, 1, 0.3j)))
        assert e_s == pytest.approx(-0.0225, rel=1e-13)

    def test_matrix_route_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            state = random_state(rng)
            via_matrix = simon_es(covariance_blocks(state))
            g1, g2 = state.gamma.real, state.gamma.imag
            closed = -(g1 * g1 + g2 * g2) / (4 * state.delta_sq)
            if abs(closed) < 1e-4:
                assert via_matrix == pytest.approx(closed, abs=1e-14)
            else:
                assert via_matrix == pytest.approx(closed, rel=1e-10)

    def test_general_blocks_match_the_determinant_identity(self):
        # For V = [[A, C], [C^T, B]], Simon's functional equals
        # det V + 1/16 - |det C|/2 - (det A + det B)/4.  Random SPD V have a
        # nonsymmetric C, which covariance_blocks of a pure state never gives.
        # Both sides round at the size of det A det B >= det V.
        rng = np.random.default_rng(19)
        for _ in range(2000):
            m = rng.normal(size=(4, 4))
            v = m @ m.T + 0.1 * np.eye(4)
            a, b, c = v[:2, :2], v[2:, 2:], v[:2, 2:]
            det_a, det_b = np.linalg.det(a), np.linalg.det(b)
            identity = np.linalg.det(v) + 1 / 16 - abs(np.linalg.det(c)) / 2 - (det_a + det_b) / 4
            assert abs(simon_es(CovarianceBlocks(a, b, c)) - identity) < 1e-13 * (1 + det_a * det_b)

    @pytest.mark.parametrize("nu", [0.5, 0.75, 1.0, 2.5, 10.0])
    def test_thermal_product(self, nu):
        # A = B = nu I and C = 0: E_S = nu^4 + 1/16 - nu^2/2 = (nu^2 - 1/4)^2,
        # exact in floats for these nu.
        thermal = [[nu, 0], [0, nu]]
        cov = CovarianceBlocks(thermal, thermal, [[0, 0], [0, 0]])
        assert simon_es(cov) == (nu * nu - 0.25) ** 2

    def test_never_positive_and_zero_iff_uncoupled(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            state = random_state(rng)
            e_s = simon_es(covariance_blocks(state))
            assert e_s < 1e-14
            if abs(state.gamma) > 1e-3:
                assert e_s < 0


class TestEntanglementOfFormation:
    def test_separable_limit(self):
        omega, e_f = entanglement_of_formation(0.0)
        assert omega == 0.5
        assert e_f == 0.0

    def test_direct_values(self):
        omega, e_f = entanglement_of_formation(-1 / 12)
        assert omega == pytest.approx(math.sqrt(1 / 3), rel=1e-15)
        assert e_f == pytest.approx(0.27823866770789246, rel=1e-13)

        omega, e_f = entanglement_of_formation(-0.005872)
        assert omega == pytest.approx(0.5058379187051916, rel=1e-14)
        assert e_f == pytest.approx(0.0358815660378616, rel=1e-13)

    def test_against_high_precision_evaluation(self):
        with decimal.localcontext(decimal.Context(prec=40)):
            for e_s in (-1 / 12, -0.005872, -1e-8, -3.7):
                om = (decimal.Decimal("0.25") - decimal.Decimal(e_s)).sqrt()
                plus, minus = om + decimal.Decimal("0.5"), om - decimal.Decimal("0.5")
                exact = plus * plus.ln() - minus * minus.ln()
                _, e_f = entanglement_of_formation(e_s)
                assert e_f == pytest.approx(float(exact), rel=1e-12)

    def test_positive_input_rejected(self):
        with pytest.raises(DomainError, match="never positive"):
            entanglement_of_formation(1e-6)

    def test_strictly_increasing_in_entanglement_strength(self):
        values = [entanglement_of_formation(-x)[1] for x in np.linspace(0, 2, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_omega(self):
        # E_F = ln(Omega) + 1 + O(1/Omega^2); the x ln x difference cancelled to 0.
        omegas = np.logspace(8, 300, 200)
        expected = np.log(omegas) + 1
        np.testing.assert_allclose(_formation(omegas, np), expected, rtol=1e-14)
        for omega, want in zip(omegas, expected):
            assert _formation(float(omega), math) == pytest.approx(want, rel=1e-14)
        for omega in (1e8, 1e50, 1e150):
            got_omega, e_f = entanglement_of_formation(-omega * omega)
            assert got_omega == pytest.approx(omega, rel=1e-15)
            assert e_f == pytest.approx(math.log(omega) + 1, rel=1e-14)

    def test_matches_textbook_form(self):
        omegas = 0.5 + np.logspace(-14, math.log10(1e3 - 0.5), 100_000)
        textbook = (omegas + 0.5) * np.log(omegas + 0.5) - (omegas - 0.5) * np.log(omegas - 0.5)
        np.testing.assert_allclose(_formation(omegas, np), textbook, rtol=1e-12)
        for omega in omegas[::997]:
            assert _formation(float(omega), math) == pytest.approx(
                float(_formation(omega, np)), rel=1e-14
            )

    def test_omega_floor(self):
        omega, e_f = entanglement_of_formation(-1e-18)
        assert omega >= 0.5
        assert e_f == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError, match="is not finite"):
            entanglement_of_formation(bad)
