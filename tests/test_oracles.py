"""Numerical oracles: eigen-decomposition, residual, quadrature, bundle."""

import math

import numpy as np
import pytest

from ncho import (
    DomainError,
    GridConfigurationError,
    GridSpec,
    GroundStateLambda,
    OscillatorParams,
    TwoModeGaussian,
    ValidationThresholds,
    build_omega_matrix,
    covariance_blocks,
    gaussian_moment_quadrature,
    ground_state_lambda_closed,
    mode_spectrum,
    numeric_eigenvalues,
    run_validation,
    schrodinger_residual,
)
from ncho.oracles import eigen_max_err, expected_eigenvalues, failing_checks
from support import fig1, random_params

UNIT = OscillatorParams(1, 1, 0.5, 0.5, 0)


def unit_lambda():
    return ground_state_lambda_closed(UNIT, mode_spectrum(UNIT))


class TestGridSpec:
    def test_axis_spacing(self):
        x, h = GridSpec(extent=4.0, points_per_axis=33).axis(1.0)
        assert x[0] == -4.0 and x[-1] == 4.0
        assert h == pytest.approx(8.0 / 32, rel=1e-15)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridConfigurationError):
            GridSpec(points_per_axis=16)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(GridConfigurationError):
            GridSpec(extent=0.0)


class TestNumericEigenvalues:
    def test_unit_oscillator(self):
        evals = numeric_eigenvalues(build_omega_matrix(UNIT))
        np.testing.assert_allclose(evals, [-1j, -1j, 1j, 1j], atol=1e-14)

    def test_fig1(self):
        evals = numeric_eigenvalues(build_omega_matrix(fig1(1.0)))
        expected = [
            -15.136945600256785j,
            -0.9342793451996745j,
            0.9342793451996745j,
            15.136945600256785j,
        ]
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    def test_matches_quartic_roots(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            p = random_params(rng)
            s = mode_spectrum(p)
            evals = numeric_eigenvalues(build_omega_matrix(p))
            assert np.abs(evals - expected_eigenvalues(s)).max() < 1e-10 * s.sigma1
            assert np.abs(evals.real).max() < 1e-10 * s.sigma1

    def test_scaling_linearity(self):
        om = build_omega_matrix(fig1(1.0))
        np.testing.assert_allclose(
            numeric_eigenvalues(3.0 * om), 3.0 * numeric_eigenvalues(om), atol=1e-11
        )

    def test_non_finite_rejected(self):
        bad = np.full((4, 4), np.nan)
        with pytest.raises(DomainError):
            numeric_eigenvalues(bad)

    def test_slow_mode_error_is_not_hidden(self):
        # At theta = 1e8 the dense solver returns |sigma2| ~ 1.02e-9 against
        # the true 1e-8; relative to sigma1 that error would read 1e-16.
        p = fig1(1e8)
        evals = numeric_eigenvalues(build_omega_matrix(p))
        assert eigen_max_err(evals, expected_eigenvalues(mode_spectrum(p))) > 1e-8


class TestSchrodingerResidual:
    def test_unit_oscillator_discretization_error(self):
        r = schrodinger_residual(UNIT, unit_lambda(), GridSpec(8.0, 129))
        assert r == pytest.approx(0.002452080289814484, rel=1e-6)
        r = schrodinger_residual(UNIT, unit_lambda(), GridSpec(8.0, 257))
        assert r == pytest.approx(0.0006140598809002348, rel=1e-6)

    def test_second_order_convergence(self):
        lam = unit_lambda()
        residuals = [
            schrodinger_residual(UNIT, lam, GridSpec(8.0, n)) for n in (65, 129, 257)
        ]
        # n = 65 -> 129 -> 257 halves the spacing each step
        orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.2)

    def test_fig1_residual(self):
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        r = schrodinger_residual(p, lam, GridSpec(8.0, 257))
        assert r == pytest.approx(0.008527317416928595, rel=1e-6)

    def test_detects_corrupted_state(self):
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = GroundStateLambda(lam.lambda11 * 1.05, lam.lambda22, lam.lambda12)
        good_r = schrodinger_residual(p, lam, GridSpec(8.0, 257))
        bad_r = schrodinger_residual(p, bad, GridSpec(8.0, 257))
        assert bad_r > 10 * good_r

    def test_narrow_extent_rejected(self):
        with pytest.raises(GridConfigurationError):
            schrodinger_residual(UNIT, unit_lambda(), GridSpec(4.0, 257))


class TestMomentQuadrature:
    def test_unit_product_state(self):
        cov = gaussian_moment_quadrature(TwoModeGaussian(1, 1, 0), GridSpec())
        assert cov.a_block[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert cov.b_block[1, 1] == pytest.approx(0.5, abs=1e-10)
        assert np.abs(cov.c_block).max() < 1e-9

    def test_imaginary_cross_coefficient(self):
        state = TwoModeGaussian(1, 1, 0.3j)
        quad = gaussian_moment_quadrature(state, GridSpec())
        closed = covariance_blocks(state)
        for name in ("a_block", "b_block", "c_block"):
            np.testing.assert_allclose(
                getattr(quad, name), getattr(closed, name), atol=1e-10
            )

    def test_generic_complex_state(self):
        state = TwoModeGaussian(2 + 1j, 1, 0.5)
        quad = gaussian_moment_quadrature(state, GridSpec())
        closed = covariance_blocks(state)
        for name in ("a_block", "b_block", "c_block"):
            np.testing.assert_allclose(
                getattr(quad, name), getattr(closed, name), atol=1e-10
            )

    def test_under_resolved_grid_rejected(self):
        # widths differ by 400x: 33 points cannot resolve the narrow mode
        state = TwoModeGaussian(400.0, 1.0, 0)
        with pytest.raises(GridConfigurationError):
            gaussian_moment_quadrature(state, GridSpec(8.0, 33))

    def test_strongly_anisotropic_state_resolved(self):
        # 7.6 points per narrow length on the default grid: enough for the
        # spectral derivatives; only the O(h^2) Schrodinger residual fails.
        report = run_validation(OscillatorParams(1, 1, 5, 100, 1))
        assert report.moment_max_err < 1e-9
        assert failing_checks(report) == ["schrodinger_residual"]


class TestRunValidation:
    def test_fig1_passes(self):
        report = run_validation(fig1(1.0))
        assert report.passed
        assert report.eigen_residual < 1e-12
        assert report.schrodinger_residual < 1e-2
        assert report.moment_max_err < 1e-10
        assert report.es_spread < 1e-12

    def test_commutative_passes(self):
        assert run_validation(fig1(0.0)).passed

    def test_corrupted_lambda_fails(self):
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = GroundStateLambda(lam.lambda11 * 1.05, lam.lambda22, lam.lambda12)
        report = run_validation(p, lambda_override=bad)
        assert not report.passed
        assert report.schrodinger_residual > 0.1

    def test_custom_thresholds(self):
        strict = ValidationThresholds(schrodinger=1e-6)
        report = run_validation(fig1(1.0), thresholds=strict)
        assert not report.passed
        assert failing_checks(report) == ["schrodinger_residual"]
