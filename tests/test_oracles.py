"""Numerical oracles: eigen-decomposition, residual, quadrature, bundle."""

import math
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
    ValidationThresholds,
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
from support import fig1, random_params, random_state

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
            corrupted = GroundStateLambda(lam.lambda11, lam.lambda22, lam.lambda12 + 0.3)
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
        + [GroundStateLambda(1.0, r, -0.3 + 0.5j) for r in STIFF_RATIOS]
        + [GroundStateLambda(1e4, 1.0, 50.0), GroundStateLambda(1.0, 1e3, 20 + 0.5j)],
    )
    def test_stiff_states_stay_finite(self, lam):
        # A ratio of psi's shifts overflows from lambda11/lambda22 = 2e3 on,
        # and a weight of exp(-2 Re(lambda12) x1 x2) on the last two states.
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

    def test_cross_weighted_state_keeps_the_grid_route(self):
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        shifted = GroundStateLambda(lam.lambda11, lam.lambda22, lam.lambda12 + 0.3)
        assert schrodinger_residual(p, shifted, GridSpec()) == pytest.approx(
            stencil_residual(p, shifted, GridSpec()), rel=1e-9
        )
        assert traced_peak(schrodinger_residual, p, shifted, GridSpec()) > GRID_BYTES

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


def _fft_len(n):
    """Smallest length >= n with no prime factor above 5, where FFTs are fast."""
    m = n
    while True:
        r = m
        for q in (2, 3, 5):
            while r % q == 0:
                r //= q
        if r == 1:
            return m
        m += 1


def _spectral_d1(f, h):
    """First derivative along axis 0 by FFT, on samples zero-padded to a fast length."""
    n = f.shape[0]
    m = _fft_len(n)
    k = 2 * np.pi * np.fft.fftfreq(m, h)
    if m % 2 == 0:
        k[m // 2] = 0.0  # the Nyquist mode's derivative is not resolved
    spectrum = np.fft.fft(f, m, axis=0)
    spectrum *= 1j * k[:, None]
    return np.fft.ifft(spectrum, axis=0)[:n]


def fft_moment_quadrature(state, grid):
    """The moment definitions on sampled psi, differentiated by FFT."""
    x, h = grid.axis(1.0 / math.sqrt(min(state.alpha.real, state.beta.real)))
    x1, x2 = x[:, None], x[None, :]
    psi = np.exp(-0.5 * (state.alpha * x1**2 + state.beta * x2**2 + 2 * state.gamma * x1 * x2))
    d1 = _spectral_d1(psi, h)
    d2 = _spectral_d1(psi.T, h).T
    density = np.abs(psi) ** 2
    norm = density.sum()
    j1 = (np.conjugate(psi) * d1).imag
    j2 = (np.conjugate(psi) * d2).imag
    x1p1, x2p2 = x @ j1.sum(axis=1) / norm, x @ j2.sum(axis=0) / norm
    return CovarianceBlocks(
        a_block=[[x**2 @ density.sum(axis=1) / norm, x1p1], [x1p1, np.vdot(d1, d1).real / norm]],
        b_block=[[x**2 @ density.sum(axis=0) / norm, x2p2], [x2p2, np.vdot(d2, d2).real / norm]],
        c_block=[
            [x @ density @ x / norm, x @ j2.sum(axis=1) / norm],
            [x @ j1.sum(axis=0) / norm, np.vdot(d1, d2).real / norm],
        ],
    )


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
        state = TwoModeGaussian(2 + 1j, 1, 0.5)
        quad = gaussian_moment_quadrature(state, GridSpec())
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

    def test_matches_fft_route_on_random_states(self):
        # test_07's states at 96 points, 1.49 or more per narrow length.  The
        # position sums agree; the momentum moments differ by up to 1.5e-10,
        # the size of each route's own error (FFT 1.45e-10, exact 1.15e-10).
        rng = np.random.default_rng(107)
        grid = GridSpec(8.0, 96)
        worst_fft = worst_new = 0.0
        for _ in range(50):
            state = random_state(rng)
            closed = covariance_blocks(state)
            fft = fft_moment_quadrature(state, grid)
            quad = gaussian_moment_quadrature(state, grid)
            for name in ("a_block", "b_block", "c_block"):  # <x1^2>, <x2^2>, <x1 x2>
                assert getattr(quad, name)[0, 0] == pytest.approx(
                    getattr(fft, name)[0, 0], rel=1e-12, abs=1e-12 * fft.a_block[0, 0]
                )
            worst_fft = max(worst_fft, moment_max_err(closed, fft))
            worst_new = max(worst_new, moment_max_err(closed, quad))
        assert worst_new <= worst_fft < 1e-9

    @pytest.mark.parametrize("entry", TEN_MOMENTS, ids=lambda e: f"{e[0][0]}{e[1]}{e[2]}")
    def test_catches_a_wrong_closed_form_entry(self, entry):
        state = TwoModeGaussian(1.3 + 0.4j, 0.8 - 0.6j, 0.5 + 0.7j)
        quad = gaussian_moment_quadrature(state, GridSpec())
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

    def test_under_resolved_grid_rejected(self):
        # widths differ by 400x: 33 points cannot resolve the narrow mode
        state = TwoModeGaussian(400.0, 1.0, 0)
        with pytest.raises(GridConfigurationError):
            gaussian_moment_quadrature(state, GridSpec(8.0, 33))

    def test_momentum_width_counts(self):
        # Im(alpha) widens the momentum spread: 0.80 points per narrow length.
        with pytest.raises(GridConfigurationError):
            gaussian_moment_quadrature(TwoModeGaussian(1 + 20j, 1, 0), GridSpec())
        # 1.59 points per narrow length
        state = TwoModeGaussian(1 + 10j, 1, 0)
        quad = gaussian_moment_quadrature(state, GridSpec())
        assert moment_max_err(covariance_blocks(state), quad) < 1e-12

    def test_strongly_anisotropic_state_resolved(self):
        # 6.0 points per narrow length on the default grid, well above the
        # guard; only the O(h^2) Schrodinger residual fails.
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
        p = fig1(1.0)
        lam = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = GroundStateLambda(lam.lambda11 * 1.05, lam.lambda22, lam.lambda12)
        report = run_validation(p, lambda_override=bad)
        assert not report.passed
        assert report.schrodinger_residual > 0.1

    @pytest.mark.parametrize(
        "params, grid",
        [(OscillatorParams(1, 1, 1, 160754694, 0), GridSpec(8.0, 34)),
         (OscillatorParams(1, 1.8e16, 1.1e-308, 1, 0), GridSpec())],
        ids=["psi-vanishes-on-grid", "sigma2-underflows"],
    )
    def test_grid_guards_run_before_any_oracle(self, params, grid):
        # Either oracle alone would divide by zero first: the residual by
        # psi's norm, eigen_max_err by sigma2 = 0.
        with pytest.raises(GridConfigurationError, match="under-resolves"):
            run_validation(params, grid)

    def test_custom_thresholds(self):
        strict = ValidationThresholds(schrodinger=1e-6)
        report = run_validation(fig1(1.0), thresholds=strict)
        assert not report.passed
        assert failing_checks(report) == ["schrodinger_residual"]
