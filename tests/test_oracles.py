"""Numerical oracles: eigen-decomposition, residual, quadrature, bundle."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from ncho import (
    CovarianceBlocks,
    DomainError,
    GridConfigurationError,
    GridSpec,
    GroundStateLambda,
    OscillatorParams,
    TwoModeGaussian,
    bopp_shift,
    build_omega_matrix,
    covariance_blocks,
    gaussian_moment_quadrature,
    ground_state_as_gaussian,
    ground_state_lambda_closed,
    mode_spectrum,
    numeric_eigenvalues,
    run_validation,
    schrodinger_residual,
)
from ncho.oracles import eigen_max_err, expected_eigenvalues, failing_checks, moment_max_err
from support import fft_moment_quadrature, fig1, random_params

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


def _d1(f, h, axis):
    """First derivative, second-order central difference, zero-padded."""
    f = np.moveaxis(f, axis, 0)
    d = np.empty_like(f)
    d[1:-1] = f[2:] - f[:-2]
    d[0] = f[1]
    d[-1] = -f[-2]
    return np.moveaxis(d, 0, axis) / (2 * h)


def _d2(f, h, axis):
    """Second derivative, second-order central difference, zero-padded."""
    f = np.moveaxis(f, axis, 0)
    d = np.empty_like(f)
    d[1:-1] = f[2:] - 2 * f[1:-1] + f[:-2]
    d[0] = f[1] - 2 * f[0]
    d[-1] = -2 * f[-1] + f[-2]
    return np.moveaxis(d, 0, axis) / (h * h)


def stencil_residual(params, lam, grid):
    """The residual's definition: the stencil applied to the sampled psi."""
    canon = bopp_shift(params)
    spec = mode_spectrum(params)
    x, h = grid.axis(1.0 / math.sqrt(min(lam.lambda11, lam.lambda22)))
    x1, x2 = x[:, None], x[None, :]
    l11, l22, l12 = lam.lambda11, lam.lambda22, lam.lambda12
    psi = np.exp(-0.5 * (l11 * x1**2 + l22 * x2**2 + 2 * l12 * x1 * x2))
    h_psi = (
        -_d2(psi, h, 0) / (2 * canon.big_m1)
        - _d2(psi, h, 1) / (2 * canon.big_m2)
        + 0.5 * canon.big_m1 * canon.omega1_sq * x1**2 * psi
        + 0.5 * canon.big_m2 * canon.omega2_sq * x2**2 * psi
        + 1j * params.theta * params.alpha1 * x1 * _d1(psi, h, 1)
        - 1j * params.theta * params.alpha2 * x2 * _d1(psi, h, 0)
    )
    e00 = 0.5 * (spec.sigma1 + spec.sigma2)
    return float(np.linalg.norm(h_psi - e00 * psi) / np.linalg.norm(psi))


def validation_box_points(seed, n):
    """Points of the benchmark's validation box: m, alpha1 in [0.5, 2],
    alpha2/alpha1 in [1/2, 2], theta in [0.05, 0.8], all log-uniform."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points = []
    for _ in range(n):
        a1 = draw(0.5, 2)
        m1, m2 = draw(0.5, 2), draw(0.5, 2)
        points.append(OscillatorParams(m1, m2, a1, a1 * draw(0.5, 2), draw(0.05, 0.8)))
    return points


GRID_BYTES = 257**2 * 8  # one float64 array on the default grid


def traced_peak(oracle, *args):
    """Peak traced allocation of one call to ORACLE, after a warm-up call."""
    oracle(*args)
    tracemalloc.start()
    try:
        oracle(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


RESIDUAL_GRIDS = [GridSpec(8.0, 257), GridSpec(8.0, 65), GridSpec(6.0, 129), GridSpec(6.0, 33)]
STIFF_RATIOS = [1e2, 1e3, 2e3, 1e4, 1e6]


class TestSchrodingerResidual:
    @pytest.mark.parametrize(
        "grid", RESIDUAL_GRIDS, ids=lambda g: f"{g.extent:g}-{g.points_per_axis}"
    )
    def test_matches_stencil_on_validation_box(self, grid):
        for p in validation_box_points(11, 6) + [OscillatorParams(1, 1, 5, 20, 1)]:
            lam = ground_state_lambda_closed(p, mode_spectrum(p))
            corrupted = GroundStateLambda(lam.lambda11, lam.lambda22, lam.lambda12 + 0.3j)
            for state in (lam, corrupted):
                assert schrodinger_residual(p, state, grid) == pytest.approx(
                    stencil_residual(p, state, grid), rel=1e-9
                )

    def test_known_failing_point(self):
        p = OscillatorParams(1, 1, 5, 20, 1)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        assert schrodinger_residual(p, lam, GridSpec()) == pytest.approx(0.0190693069559, rel=1e-9)

    @pytest.mark.parametrize(
        "lam",
        [GroundStateLambda(r, 1.0, 0.5j) for r in STIFF_RATIOS]
        + [GroundStateLambda(1.0, r, 0.5j) for r in STIFF_RATIOS]
        + [GroundStateLambda(1e4, 1.0, 50j), GroundStateLambda(1.0, 1e3, 20j)],
    )
    def test_stiff_states_stay_finite(self, lam):
        # A ratio of psi's shifts overflows from a diagonal ratio of 2e3 on;
        # the last two states add a large cross phase.
        p = fig1(1.0)
        r = schrodinger_residual(p, lam, GridSpec())
        assert math.isfinite(r)
        assert r == pytest.approx(stencil_residual(p, lam, GridSpec()), rel=1e-9)

    def test_memory_stays_below_a_grid_stencil(self):
        # The sampled stencil peaks at 5.4 MB on the default grid.
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        schrodinger_residual(p, lam, GridSpec())
        tracemalloc.start()
        try:
            schrodinger_residual(p, lam, GridSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_closed_form_state_needs_no_grid_array(self):
        # Re(lambda12) = 0, so |psi| separates and the norms come from two
        # thin QRs: the peak stays below one 257^2 float64 grid.
        p = OscillatorParams(1, 1, 5, 20, 1)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        assert lam.lambda12.real == 0
        assert traced_peak(schrodinger_residual, p, lam, GridSpec()) < GRID_BYTES

    def test_cross_weighted_state_is_rejected(self):
        # |psi| does not separate where Re(lambda12) != 0, which no closed
        # form gives.  For some of these states the weight exp(-2 Re(lambda12)
        # x1 x2) leaves the float range on the default grid.
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        states = [GroundStateLambda(lam.lambda11, lam.lambda22, lam.lambda12 + 0.3)]
        states += [GroundStateLambda(1.0, r, -0.3 + 0.5j) for r in STIFF_RATIOS]
        states += [GroundStateLambda(1e4, 1.0, 50.0), GroundStateLambda(1.0, 1e3, 20 + 0.5j)]
        states += [GroundStateLambda(1e6, 1.0, 500.0), GroundStateLambda(1.0, 1e6, -900 + 1j)]
        for state in states:
            with pytest.raises(DomainError, match="does not separate"):
                schrodinger_residual(p, state, GridSpec())

    def test_vanishing_psi_rejected(self):
        # No point of the even 34-point grid is within reach of the narrow
        # envelope, so psi is 0 on the whole grid and has no norm to divide by.
        p = OscillatorParams(1, 1, 1, 160754694, 0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        with pytest.raises(GridConfigurationError, match="underflows to 0"):
            schrodinger_residual(p, lam, GridSpec(8.0, 34))

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


def closed_state(p):
    return ground_state_as_gaussian(ground_state_lambda_closed(p, mode_spectrum(p)))


# The ten distinct second moments as (block, row, column).
TEN_MOMENTS = [
    (block, i, j) for block in ("a_block", "b_block") for i, j in ((0, 0), (0, 1), (1, 1))
] + [("c_block", i, j) for i in (0, 1) for j in (0, 1)]


class TestMomentQuadrature:
    def test_unit_product_state(self):
        cov = gaussian_moment_quadrature(TwoModeGaussian(1, 1, 0), GridSpec())
        assert cov.a_block[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert cov.b_block[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(cov.c_block).max() < 1e-12

    def test_imaginary_cross_coefficient(self):
        state = TwoModeGaussian(1, 1, 0.3j)
        quad = gaussian_moment_quadrature(state, GridSpec())
        closed = covariance_blocks(state)
        for name in ("a_block", "b_block", "c_block"):
            np.testing.assert_allclose(
                getattr(quad, name), getattr(closed, name), atol=1e-12
            )

    def test_generic_complex_state(self):
        # Re(gamma) != 0: the package oracle rejects it, the FFT route does not.
        state = TwoModeGaussian(2 + 1j, 1, 0.5)
        quad = fft_moment_quadrature(state, GridSpec())
        closed = covariance_blocks(state)
        for name in ("a_block", "b_block", "c_block"):
            np.testing.assert_allclose(
                getattr(quad, name), getattr(closed, name), atol=1e-12
            )

    def test_matches_fft_route_on_validation_box(self):
        points = validation_box_points(13, 12) + [
            OscillatorParams(1, 1, 5, 20, 1),
            OscillatorParams(1, 1, 5, 100, 1),
        ]
        for p in points:
            state = closed_state(p)
            for grid in (GridSpec(), GridSpec(8.0, 129)):
                fft = fft_moment_quadrature(state, grid)
                assert moment_max_err(fft, gaussian_moment_quadrature(state, grid)) < 1e-12

    @pytest.mark.parametrize("entry", TEN_MOMENTS, ids=lambda e: f"{e[0][0]}{e[1]}{e[2]}")
    def test_catches_a_wrong_closed_form_entry(self, entry):
        # Re(gamma) != 0 reaches every entry, so the FFT route is the oracle.
        state = TwoModeGaussian(1.3 + 0.4j, 0.8 - 0.6j, 0.5 + 0.7j)
        quad = fft_moment_quadrature(state, GridSpec())
        closed = covariance_blocks(state)
        assert moment_max_err(closed, quad) < 1e-12
        name, i, j = entry
        wrong = {n: getattr(closed, n).copy() for n in ("a_block", "b_block", "c_block")}
        wrong[name][i, j] *= 1 + 1e-6
        if name != "c_block":
            wrong[name][j, i] = wrong[name][i, j]
        assert moment_max_err(CovarianceBlocks(**wrong), quad) > 1e-7

    def test_moment_memory_stays_below_a_complex_grid(self):
        # The FFT route peaked at 5.9 MB on the default grid.
        state = closed_state(fig1(1.0))
        gaussian_moment_quadrature(state, GridSpec())
        tracemalloc.start()
        try:
            gaussian_moment_quadrature(state, GridSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_closed_form_state_needs_no_grid_array(self):
        # Re(gamma) = 0: the sums are outer products of the factors' row sums.
        state = closed_state(fig1(1.0))
        assert state.gamma.real == 0
        assert traced_peak(gaussian_moment_quadrature, state, GridSpec()) < GRID_BYTES

    def test_cross_weighted_state_is_rejected(self):
        # A strongly correlated state (kappa = 0.89) and a real cross coefficient.
        for state in (
            TwoModeGaussian(0.877 - 0.566j, 0.849 + 0.202j, -0.770 + 0.772j),
            TwoModeGaussian(1, 1, 0.5),
        ):
            with pytest.raises(DomainError, match="does not separate"):
                gaussian_moment_quadrature(state, GridSpec())

    @pytest.mark.parametrize(
        "state, grid",
        [
            (TwoModeGaussian(1 + 20j, 1, 0), GridSpec()),  # Im(alpha) widens the momentum spread
            (TwoModeGaussian(1, 1e6, 0.5j), GridSpec()),  # widths differ by 1000x
            (TwoModeGaussian(1e-6, 1, 300j), GridSpec()),  # and a large cross term
            (TwoModeGaussian(400.0, 1.0, 0), GridSpec(8.0, 33)),  # 20x on the smallest grid
        ],
        ids=["wide-momentum", "narrow-x2", "wide-x1", "coarse-grid"],
    )
    def test_each_axis_resolves_its_own_factor(self, state, grid):
        # An axis shared by both factors, sized by the wider one, left the
        # narrow factor or the momentum spread under-resolved here.
        closed = covariance_blocks(state)
        quad = gaussian_moment_quadrature(state, grid)
        assert moment_max_err(closed, quad) < 1e-14
        for name in ("a_block", "b_block"):
            assert getattr(quad, name)[0, 0] == pytest.approx(getattr(closed, name)[0, 0], rel=1e-14)

    def test_strongly_anisotropic_state_resolved(self):
        # Only the O(h^2) Schrodinger residual fails.
        report = run_validation(OscillatorParams(1, 1, 5, 100, 1))
        assert report.moment_max_err < 1e-12
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
        # The state run_validation would feed its residual check, with
        # Lambda11 off by 5 %: far above the check's threshold.
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = GroundStateLambda(lam.lambda11 * 1.05, lam.lambda22, lam.lambda12)
        assert schrodinger_residual(p, bad, GridSpec()) > 0.1

    def test_cross_weighted_lambda_rejected_by_the_oracles(self):
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = GroundStateLambda(lam.lambda11, lam.lambda22, lam.lambda12 + 0.3)
        with pytest.raises(DomainError, match="lambda12"):
            schrodinger_residual(p, bad, GridSpec())
        with pytest.raises(DomainError, match="does not separate"):
            gaussian_moment_quadrature(ground_state_as_gaussian(bad), GridSpec())

    def test_census_never_raises_and_moments_agree(self):
        # The census box: log-uniform masses and stiffnesses over 1e-2...1e2
        # and theta over 1e-3...1e2.  A moment axis shared by both factors
        # refused 251 of these points and missed by up to 3.7e-8 on others.
        rng = random.Random(7)
        worst = 0.0
        for _ in range(2000):
            p = OscillatorParams(*(10 ** rng.uniform(-2, 2) for _ in range(4)), 10 ** rng.uniform(-3, 2))
            worst = max(worst, run_validation(p).moment_max_err)
        assert worst <= 1e-14
