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
    NumericRangeError,
    OscillatorParams,
    TwoModeGaussian,
    bopp_shift,
    build_omega_matrix,
    covariance_blocks,
    gaussian_moment_quadrature,
    ground_state_lambda_closed,
    mode_spectrum,
    numeric_eigenvalues,
    run_validation,
    schrodinger_residual,
)
from ncho import oracles
from ncho.oracles import failing_checks, moment_max_err
from support import fft_moment_quadrature, fig1, random_params

UNIT = OscillatorParams(1, 1, 0.5, 0.5, 0)


def unit_state():
    return ground_state_lambda_closed(UNIT, mode_spectrum(UNIT))


class TestGridSpec:
    def test_axis_spacing(self):
        x, h = GridSpec(extent=4.0, points_per_axis=33).axis(1.0)
        assert x[0] == -4.0 and x[-1] == 4.0
        assert h == pytest.approx(8.0 / 32, rel=1e-15)

    def test_axis_is_a_new_array_on_every_call(self):
        # The unit axis is cached per grid; writing into a returned axis
        # must not reach it, whatever the length.
        grid = GridSpec()
        for length in (1.0, 0.3):
            x, _ = grid.axis(length)
            x[:] = 0.0
            y, h = grid.axis(length)
            assert y[0] == -(8.0 * length) and y[-1] == 8.0 * length
            assert np.array_equal(y, GridSpec().axis(length)[0]) and h == y[1] - y[0] > 0

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
            expected = np.array([-1j * s.sigma1, -1j * s.sigma2, 1j * s.sigma2, 1j * s.sigma1])
            assert np.abs(evals - expected).max() < 1e-10 * s.sigma1
            assert np.abs(evals.real).max() < 1e-10 * s.sigma1

    def test_scaling_linearity(self):
        om = build_omega_matrix(fig1(1.0))
        np.testing.assert_allclose(
            numeric_eigenvalues(3.0 * om), 3.0 * numeric_eigenvalues(om), atol=1e-11
        )

    def test_order_is_that_of_a_stable_sort(self):
        # sorted() by (imag, real) is stable: tied eigenvalues, as the double
        # +-i of UNIT, keep the order of eigvals.
        rng = np.random.default_rng(21)
        matrices = [rng.standard_normal((4, 4)) for _ in range(1000)]
        matrices += [build_omega_matrix(UNIT), np.eye(4), np.diag([2.0, 1.0, 2.0, 1.0])]
        for m in matrices:
            by_key = sorted(np.linalg.eigvals(m), key=lambda z: (z.imag, z.real))
            assert np.array_equal(numeric_eigenvalues(m), np.array(by_key))

    def test_non_finite_rejected(self):
        bad = np.full((4, 4), np.nan)
        with pytest.raises(DomainError):
            numeric_eigenvalues(bad)

    def test_slow_mode_error_is_not_hidden(self):
        # At theta = 1e8 the dense solver returns |sigma2| ~ 1.02e-9 against
        # the true 1e-8; relative to sigma1 that error would read 1e-16.
        assert run_validation(fig1(1e8)).eigen_residual > 1e-8


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


def stencil_residual(params, state, grid):
    """The residual's definition: the stencil applied to the sampled psi."""
    canon = bopp_shift(params)
    spec = mode_spectrum(params)
    x, h = grid.axis(1.0 / math.sqrt(min(state.alpha.real, state.beta.real)))
    x1, x2 = x[:, None], x[None, :]
    psi = np.exp(-0.5 * (state.alpha * x1**2 + state.beta * x2**2 + 2 * state.gamma * x1 * x2))
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
            closed = ground_state_lambda_closed(p, mode_spectrum(p))
            corrupted = closed._replace(gamma=closed.gamma + 0.3j)
            for state in (closed, corrupted):
                assert schrodinger_residual(p, state, grid) == pytest.approx(
                    stencil_residual(p, state, grid), rel=1e-9
                )

    def test_known_failing_point(self):
        p = OscillatorParams(1, 1, 5, 20, 1)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        assert schrodinger_residual(p, state, GridSpec()) == pytest.approx(0.0190693069559, rel=1e-9)

    @pytest.mark.parametrize(
        "lam",
        [TwoModeGaussian(r, 1.0, 0.5j) for r in STIFF_RATIOS]
        + [TwoModeGaussian(1.0, r, 0.5j) for r in STIFF_RATIOS]
        + [TwoModeGaussian(1e4, 1.0, 50j), TwoModeGaussian(1.0, 1e3, 20j)],
    )
    def test_stiff_states_stay_finite(self, lam):
        # A ratio of psi's shifts overflows from a diagonal ratio of 2e3 on;
        # the last two states add a large cross phase.
        p = fig1(1.0)
        r = schrodinger_residual(p, lam, GridSpec())
        assert math.isfinite(r)
        assert r == pytest.approx(stencil_residual(p, lam, GridSpec()), rel=1e-9)

    def test_complex_diagonal_matches_stencil(self):
        # Im(alpha) and Im(beta) make the envelopes complex; |psi| still
        # separates, and its norm is that of |psi|, not of psi^2.
        p = fig1(1.0)
        state = TwoModeGaussian(3 + 2j, 4 - 1j, 0.5j)
        r = schrodinger_residual(p, state, GridSpec())
        assert r == pytest.approx(stencil_residual(p, state, GridSpec()), rel=1e-9)

    def test_memory_stays_below_a_grid_stencil(self):
        # The sampled stencil peaks at 5.4 MB on the default grid.
        p = fig1(1.0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        schrodinger_residual(p, state, GridSpec())
        tracemalloc.start()
        try:
            schrodinger_residual(p, state, GridSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_closed_form_state_needs_no_grid_array(self):
        # Re(lambda12) = 0, so |psi| separates and the norms come from two
        # thin QRs: the peak stays below one 257^2 float64 grid.
        p = OscillatorParams(1, 1, 5, 20, 1)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        assert state.gamma.real == 0
        assert traced_peak(schrodinger_residual, p, state, GridSpec()) < GRID_BYTES

    def test_cross_weighted_state_is_rejected(self):
        # |psi| does not separate where Re(lambda12) != 0, which no closed
        # form gives.  For some of these states the weight exp(-2 Re(lambda12)
        # x1 x2) leaves the float range on the default grid.
        p = fig1(1.0)
        closed = ground_state_lambda_closed(p, mode_spectrum(p))
        states = [closed._replace(gamma=closed.gamma + 0.3)]
        states += [TwoModeGaussian(1.0, r, -0.3 + 0.5j) for r in STIFF_RATIOS]
        states += [TwoModeGaussian(1e4, 1.0, 50.0), TwoModeGaussian(1.0, 1e3, 20 + 0.5j)]
        states += [TwoModeGaussian(1e6, 1.0, 500.0), TwoModeGaussian(1.0, 1e6, -900 + 1j)]
        for state in states:
            with pytest.raises(DomainError, match="does not separate"):
                schrodinger_residual(p, state, GridSpec())

    def test_vanishing_psi_rejected(self):
        # No point of the even 34-point grid is within reach of the narrow
        # envelope, so psi is 0 on the whole grid and has no norm to divide by.
        p = OscillatorParams(1, 1, 1, 160754694, 0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        with pytest.raises(GridConfigurationError, match="underflows to 0"):
            schrodinger_residual(p, state, GridSpec(8.0, 34))

    def test_unit_oscillator_discretization_error(self):
        r = schrodinger_residual(UNIT, unit_state(), GridSpec(8.0, 129))
        assert r == pytest.approx(0.002452080289814484, rel=1e-6)
        r = schrodinger_residual(UNIT, unit_state(), GridSpec(8.0, 257))
        assert r == pytest.approx(0.0006140598809002348, rel=1e-6)

    def test_second_order_convergence(self):
        state = unit_state()
        residuals = [
            schrodinger_residual(UNIT, state, GridSpec(8.0, n)) for n in (65, 129, 257)
        ]
        # n = 65 -> 129 -> 257 halves the spacing each step
        orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.2)

    def test_fig1_residual(self):
        p = fig1(1.0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        r = schrodinger_residual(p, state, GridSpec(8.0, 257))
        assert r == pytest.approx(0.008527317416928595, rel=1e-6)

    def test_detects_corrupted_state(self):
        p = fig1(1.0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = state._replace(alpha=state.alpha * 1.05)
        good_r = schrodinger_residual(p, state, GridSpec(8.0, 257))
        bad_r = schrodinger_residual(p, bad, GridSpec(8.0, 257))
        assert bad_r > 10 * good_r

    def test_narrow_extent_rejected(self):
        with pytest.raises(GridConfigurationError):
            schrodinger_residual(UNIT, unit_state(), GridSpec(4.0, 257))


def closed_state(p):
    return ground_state_lambda_closed(p, mode_spectrum(p))


# The ten distinct second moments as (block, row, column).
TEN_MOMENTS = [
    (block, i, j) for block in ("a_block", "b_block") for i, j in ((0, 0), (0, 1), (1, 1))
] + [("c_block", i, j) for i in (0, 1) for j in (0, 1)]


class TestMomentQuadrature:
    def test_unit_product_state(self):
        cov = gaussian_moment_quadrature(TwoModeGaussian(1, 1, 0), GridSpec())
        assert cov.a_block[0][0] == pytest.approx(0.5, abs=1e-12)
        assert cov.b_block[1][1] == pytest.approx(0.5, abs=1e-12)
        assert max(abs(v) for row in cov.c_block for v in row) < 1e-12

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
        wrong = {n: [list(row) for row in block] for n, block in closed._asdict().items()}
        wrong[name][i][j] *= 1 + 1e-6
        if name != "c_block":
            wrong[name][j][i] = wrong[name][i][j]
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
            assert getattr(quad, name)[0][0] == pytest.approx(getattr(closed, name)[0][0], rel=1e-14)

    def test_strongly_anisotropic_state_resolved(self):
        # Only the O(h^2) Schrodinger residual fails.
        report = run_validation(OscillatorParams(1, 1, 5, 100, 1))
        assert report.moment_max_err < 1e-12
        assert failing_checks(report) == ["schrodinger_residual"]


class TestMomentMaxErr:
    @pytest.mark.parametrize("side", ["closed", "quad"])
    @pytest.mark.parametrize("block", [0, 1, 2], ids=["a_block", "b_block", "c_block"])
    def test_nan_in_any_block_reads_nan(self, side, block):
        # max(0.0, nan) is 0.0, so a plain running maximum would pass this.
        closed = covariance_blocks(closed_state(fig1(1.0)))
        blocks = [[list(row) for row in b] for b in closed]
        blocks[block][1][0] = math.nan
        spoiled = CovarianceBlocks(*blocks)
        pair = (spoiled, closed) if side == "closed" else (closed, spoiled)
        assert math.isnan(moment_max_err(*pair))

    def test_nan_quadrature_fails_validation(self, monkeypatch):
        def spoiled_quadrature(state, grid):
            a_block, b_block, _ = covariance_blocks(state)
            return CovarianceBlocks(a_block, b_block, [[0.0, math.nan], [0.0, 0.0]])

        monkeypatch.setattr(oracles, "gaussian_moment_quadrature", spoiled_quadrature)
        with pytest.raises(NumericRangeError, match="not all finite"):
            run_validation(fig1(1.0))


class TestRunValidation:
    def test_fig1_passes(self):
        report = run_validation(fig1(1.0))
        assert report.passed
        assert report.eigen_residual < 1e-12
        assert report.schrodinger_residual < 1e-2
        assert report.moment_max_err < 1e-10
        assert report.es_spread < 1e-12

    def test_repeated_calls_agree(self):
        # The default grid and its unit axis are shared by every call.
        p = fig1(1.0)
        assert run_validation(p) == run_validation(p)

    def test_commutative_passes(self):
        assert run_validation(fig1(0.0)).passed

    def test_corrupted_lambda_fails(self):
        # The state run_validation would feed its residual check, with
        # Lambda11 off by 5 %: far above the check's threshold.
        p = fig1(1.0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = state._replace(alpha=state.alpha * 1.05)
        assert schrodinger_residual(p, bad, GridSpec()) > 0.1

    def test_cross_weighted_lambda_rejected_by_the_oracles(self):
        p = fig1(1.0)
        state = ground_state_lambda_closed(p, mode_spectrum(p))
        bad = state._replace(gamma=state.gamma + 0.3)
        with pytest.raises(DomainError, match="Re\\(gamma\\)"):
            schrodinger_residual(p, bad, GridSpec())
        with pytest.raises(DomainError, match="does not separate"):
            gaussian_moment_quadrature(bad, GridSpec())

    def test_census_never_raises_and_moments_agree(self):
        # The census box: log-uniform masses and stiffnesses over 1e-2...1e2
        # and theta over 1e-3...1e2.  A moment axis shared by both factors
        # refused 251 of these points and missed by up to 3.7e-8 on others.
        # Simon's functional of the blocks put E_S up to 4.1e-12 off.
        rng = random.Random(7)
        census = [
            OscillatorParams(*(10 ** rng.uniform(-2, 2) for _ in range(4)), 10 ** rng.uniform(-3, 2))
            for _ in range(2000)
        ]
        reports = [run_validation(p) for p in census + [fig1(t) for t in (1.0, 1e4, 1e8, 1e50)]]
        assert max(r.moment_max_err for r in reports[:2000]) <= 1e-14
        assert max(r.es_spread for r in reports) <= 1e-13

    def test_es_check_holds_far_from_unit_scale(self):
        # All five inputs log-uniform over 1e-30...1e30.  Simon's functional
        # of the blocks has terms of order Omega^4 that cancel to E_S ~
        # -Omega^2, and failed the check at 404 of these correct points.
        rng = random.Random(30)
        lo, hi = math.log(1e-30), math.log(1e30)
        for _ in range(1500):
            p = OscillatorParams(*(math.exp(rng.uniform(lo, hi)) for _ in range(5)))
            assert "es_spread" not in failing_checks(run_validation(p)), p

    @pytest.mark.parametrize("inputs", [
        # D underflows to 0: sigma1 and sigma2 off by sqrt(2) - 1 and more.
        (1.3873070370700669e+97, 3.653824510148452e+118, 2.293628973303163e-94,
         1.437776914049651e-59, 3.087002405018137e-07),
        (3.913730146762911e+48, 4.584358244387547e+143, 6.45120013132046e-122,
         4.727215989504145e-97, 2.537929734313242e-69),
        (1.0943682417818424e+127, 3.79388543577869e+30, 1.0143963919114127e-89,
         1.648362798432973e-145, 4.741309165463162e-125),
        (4.468318493639322e+116, 1.1050937460529515e+90, 9.104435319647323e-136,
         5.986034757898519e-127, 5.6230329409366355e-99),
        (6.617193824314222e+55, 4.685518220257393e+133, 7.185639949786004e-141,
         8.706340393264436e-103, 3.659601957157195e-64),
        (6.344353711763409e+56, 6.558096137313872e+66, 1.3190744271500526e-149,
         3.266340190414416e-116, 6.1853121087436556e-37),
        (5.1549416537927265e+146, 3.4413603779222685e+116, 5.254919436714635e-76,
         6.338114028356598e-57, 2.258671436170117e-100),
        (1.8787956349689775e+31, 4.507752917683334e+105, 2.775636058246984e-148,
         3.147550039628858e-61, 2.1274554962288493e-35),
        (1.940925534945017e+99, 2.3236572230527537e+68, 4.040661221491277e-103,
         4.5068849429826745e-142, 7.243690047745862e+17),
        (7.411832806856626e+130, 3.616989563633269e+140, 2.4372533911114787e-122,
         2.421841664102311e-19, 9.894116502861075e-120),
        (1.2474423379970035e+54, 1.2680930433540096e+146, 7.420013103769175e-131,
         1.2378355456840998e-24, 2.5782725948412534e-131),
        (3.3116114004056733e+59, 1.1355510244312727e+53, 2.975084030086742e-149,
         8.146328450994857e-123, 2.376040348593396e+20),
        (3.303054688149353e+89, 1.1871789360496283e+76, 1.0157013655388876e-87,
         2.7017229097881423e-117, 8035139591938834.0),
        (2.579112911315695e+69, 1.6617914643344113e+104, 1.164523286592624e-107,
         1.109016055051602e-127, 6.319333778048049e+33),
        # The spectrum is right, but M1 sqrt(c2) or M2 sqrt(c1) is subnormal:
        # Lambda11, then Lambda22, off by about 1e-3.
        (1.0362519283845784e-111, 1.191172736363242e+101, 1.3517799183468439e-104,
         2.377530671375697e-33, 6.877241149928467e+143),
        (4.1178458808780414e-119, 6.324140793183337e+124, 1.4834539519746885e-81,
         5.285472927347355e-79, 1.396717465299683e-35),
    ])
    def test_es_check_flags_wrong_states(self, inputs):
        """The 16 points of the 1e-150...1e150 draw (1,500 points,
        ``random.Random(150)``, each input exp(uniform(ln 1e-150, ln 1e150))
        in field order) where sigma1, sigma2, Lambda11 or Lambda22 is off
        by more than 1e-10 against 60-digit ``decimal``.  The closed-form
        E_S is right at each, so the state's own E_S disagrees with it;
        Simon's functional of the blocks flagged 5 of the 16.  Once the
        two-invariant kernel of ROADMAP item 3 lands, these states are
        right and this test flips: each point then passes the check.
        """
        assert "es_spread" in failing_checks(run_validation(OscillatorParams(*inputs)))
