"""Independent numerical verification engines.

Three oracles cross-check the closed forms elsewhere in the package
without sharing code paths with them:

* a dense eigen-decomposition of the dynamical matrix against the
  quartic-root mode frequencies,
* a finite-difference application of the canonical Hamiltonian to the
  ground state's grid shift factors (residual of the eigenvalue equation),
* grid quadrature, with FFT derivatives, of the two-mode Gaussian second
  moments against the closed-form covariance entries.

``run_validation`` bundles them, together with a three-path agreement
check of the Simon functional, into a single report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import gaussian, oscillator
from .errors import DomainError, GridConfigurationError
from .gaussian import TwoModeGaussian
from .oscillator import GroundStateLambda, ModeSpectrum, OscillatorParams

MIN_POINTS_PER_AXIS = 33
MIN_RESIDUAL_EXTENT = 6.0
MIN_POINTS_PER_LENGTH = 1.45


@dataclass(frozen=True)
class GridSpec:
    """Square uniform grid, sized in units of the state's characteristic length.

    ``extent`` is the half-width of the grid in characteristic lengths
    (1/sqrt of the smallest real exponent coefficient); the physical
    spacing follows once a concrete state fixes that length.
    """

    extent: float = 8.0
    points_per_axis: int = 257

    def __post_init__(self):
        if not (self.extent > 0):
            raise GridConfigurationError(f"extent must be positive, got {self.extent}")
        if self.points_per_axis < MIN_POINTS_PER_AXIS:
            raise GridConfigurationError(
                f"points_per_axis must be >= {MIN_POINTS_PER_AXIS} "
                f"(got {self.points_per_axis}); below that the discretization "
                "error dominates any physical signal"
            )

    def axis(self, char_length: float) -> tuple[np.ndarray, float]:
        """Physical grid axis and spacing for a given characteristic length."""
        half_width = self.extent * char_length
        x = np.linspace(-half_width, half_width, self.points_per_axis)
        return x, x[1] - x[0]


@dataclass(frozen=True)
class ValidationThresholds:
    """Pass/fail limits for ``run_validation``.

    The Schrodinger threshold reflects the pure O(h^2) discretization
    error of the default 257-point grid.  The moment threshold is set by
    the spectral quadrature's measured worst errors: 2e-14 on the default
    grid over 30 ground states with masses and stiffnesses in [0.5, 2] and
    theta <= 0.8, and 1.5e-10 for 50 random complex states on a 96-point
    grid.  The others are far above the oracle noise floor.
    """

    eigen: float = 1e-8
    schrodinger: float = 1e-2
    moments: float = 1e-8
    es_spread: float = 1e-9


@dataclass(frozen=True)
class ValidationReport:
    eigen_residual: float
    schrodinger_residual: float
    moment_max_err: float
    es_spread: float
    passed: bool
    thresholds: ValidationThresholds = field(default_factory=ValidationThresholds)


def failing_checks(report: ValidationReport) -> list[str]:
    """Names of the checks whose value is not below its threshold."""
    t = report.thresholds
    return [
        name
        for name, value, limit in (
            ("eigen_residual", report.eigen_residual, t.eigen),
            ("schrodinger_residual", report.schrodinger_residual, t.schrodinger),
            ("moment_max_err", report.moment_max_err, t.moments),
            ("es_spread", report.es_spread, t.es_spread),
        )
        if not value < limit
    ]


def numeric_eigenvalues(omega_matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of the dynamical matrix, sorted by (imag, real).

    For a valid oscillator matrix these are {-i*s1, -i*s2, +i*s2, +i*s1}
    with real parts at roundoff level.
    """
    m = np.asarray(omega_matrix, dtype=float)
    if not np.all(np.isfinite(m)):
        raise DomainError("dynamical matrix contains non-finite entries")
    evals = np.linalg.eigvals(m)
    return np.array(sorted(evals, key=lambda z: (z.imag, z.real)))


def expected_eigenvalues(spec: ModeSpectrum) -> np.ndarray:
    """{-i*s1, -i*s2, +i*s2, +i*s1}, in the order of ``numeric_eigenvalues``."""
    return np.array(
        sorted(
            [-1j * spec.sigma1, -1j * spec.sigma2, 1j * spec.sigma2, 1j * spec.sigma1],
            key=lambda z: (z.imag, z.real),
        )
    )


def eigen_max_err(numeric: np.ndarray, expected: np.ndarray) -> float:
    """Worst error of the numeric eigenvalues, each relative to its own modulus.

    A small sigma2 is judged against itself, not against sigma1, so an
    error in the slow mode cannot hide behind the fast one.
    """
    return float(np.max(np.abs(numeric - expected) / np.abs(expected)))


def _shift_factors(lam_kk: float, kappa: float, lam12: complex, x: np.ndarray, h: float):
    """One axis's factors of psi = exp(-lam_kk x^2/2) * ... * exp(-lam12 x1 x2).

    In order: the envelope at the next and the previous point (0 off the
    grid, the stencil's zero padding), at x, and at x times exp(-+ lam12 h x)
    (the cross term as the other coordinate steps +-h).  Each is times
    exp(kappa lam_kk x^2/2) and one exp of its whole exponent, so at most
    exp(kappa h^2 max(lam11, lam22) / (2 (1 - kappa))), or 1 at kappa = 0.
    """
    keep, full = 0.5 * kappa * lam_kk * x * x, 0.5 * lam_kk * x * x
    own, cross = keep - full, lam12 * h * x
    nxt = np.append(np.exp(keep[:-1] - full[1:]), 0.0)
    prv = np.append(0.0, np.exp(keep[1:] - full[:-1]))
    return nxt, prv, np.exp(own), np.exp(own - cross), np.exp(own + cross)


def schrodinger_residual(params: OscillatorParams, lam: GroundStateLambda, grid: GridSpec) -> float:
    """Relative L2 residual of (H - E00) psi00 on the grid.

    The canonical Hamiltonian (kinetic terms, quadratic potential and the
    theta cross term with x*d/dx structure) is discretized with
    second-order central differences on zero-padded samples; the residual
    therefore converges as O(h^2) under grid refinement for the true
    ground state.  The stencil is evaluated exactly through psi's shift
    factors, not on sampled psi: psi at x +- h e_k is exp(-lam12 x1 x2)
    times a row and a column factor (``_shift_factors``), so (H - E00) psi
    is exp(-lam12 x1 x2) times one (N x 6) by (6 x N) product.  The factors
    take kappa = |Re lam12| / sqrt(lam11 lam22) of each diagonal envelope;
    the rest of |exp(-lam12 x1 x2)|^2, exp(-2 (q1 + q2)^2) with q_k =
    sqrt(kappa lam_kk / 2) x_k and q2 signed like Re lam12, weights both norms.
    """
    if grid.extent < MIN_RESIDUAL_EXTENT:
        raise GridConfigurationError(
            f"grid extent must be >= {MIN_RESIDUAL_EXTENT} characteristic lengths "
            f"for a trustworthy residual, got {grid.extent}"
        )
    canon = oscillator.bopp_shift(params)
    spec = oscillator.mode_spectrum(params)
    e00 = 0.5 * (spec.sigma1 + spec.sigma2)

    l11, l22, l12 = lam.lambda11, lam.lambda22, lam.lambda12
    x, h = grid.axis(1.0 / math.sqrt(min(l11, l22)))
    kappa = abs(l12.real) / math.sqrt(l11 * l22)
    nxt1, prv1, own1, plus1, minus1 = _shift_factors(l11, kappa, l12, x, h)
    nxt2, prv2, own2, plus2, minus2 = _shift_factors(l22, kappa, l12, x, h)
    kin1, kin2 = -0.5 / (canon.big_m1 * h * h), -0.5 / (canon.big_m2 * h * h)
    # -theta*(a1 x1 p2 - a2 x2 p1) with p = -i d/dx
    drift1 = 0.5j * params.theta * params.alpha1 / h * x
    drift2 = 0.5j * params.theta * params.alpha2 / h * x
    diag1 = 0.5 * canon.big_m1 * canon.omega1_sq * x * x - 2 * kin1 - 2 * kin2 - e00
    pot2 = 0.5 * canon.big_m2 * canon.omega2_sq * x * x
    # The terms in psi(x1 +- h, x2), psi(x1, x2 +- h) and psi(x1, x2).
    rows = np.column_stack(
        (nxt1, prv1, plus1 * (kin2 + drift1), minus1 * (kin2 - drift1), own1 * diag1, own1)
    )
    cols = np.array(
        (plus2 * (kin1 - drift2), minus2 * (kin1 + drift2), nxt2, prv2, own2, pot2 * own2)
    )
    residual = rows @ cols
    q1 = math.sqrt(0.5 * kappa * l11) * x
    q2 = math.copysign(math.sqrt(0.5 * kappa * l22), l12.real) * x
    root_weight = np.add.outer(q1, q2)  # in place from here: fresh grids cost page faults
    np.exp(np.negative(np.square(root_weight, out=root_weight), out=root_weight), out=root_weight)
    residual *= root_weight
    psi_norm_sq = (own1 * own1) @ np.square(root_weight, out=root_weight) @ (own2 * own2)
    return float(np.sqrt(np.vdot(residual, residual).real / psi_norm_sq))


def _fft_len(n: int) -> int:
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


def _spectral_d1(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative along axis 0 by FFT, exact for band-limited data.

    The samples are zero-padded to a fast FFT length; for data that is zero
    to machine precision at both ends the padded periodic extension is as
    smooth as the unpadded one.
    """
    fft = np.fft
    n = f.shape[0]
    m = _fft_len(n)
    k = 2 * np.pi * fft.fftfreq(m, h)
    if m % 2 == 0:
        k[m // 2] = 0.0  # the Nyquist mode's derivative is not resolved
    spectrum = fft.fft(f, m, axis=0)
    spectrum *= 1j * k[:, None]
    return fft.ifft(spectrum, axis=0)[:n]


def gaussian_moment_quadrature(state: TwoModeGaussian, grid: GridSpec) -> gaussian.CovarianceBlocks:
    """All ten second moments by trapezoidal quadrature on the grid.

    The sampled wave function is differentiated once per axis with FFTs.
    Momentum moments are sums over the two derivative arrays; position and
    x*p moments are weighted row and column sums of |psi|^2 and of the
    probability currents Im(conj(psi) * dpsi).  The sampled Gaussian is zero
    to machine precision at the grid edge, so both the trapezoidal sums and
    the derivatives converge exponentially.

    Requires ``MIN_POINTS_PER_LENGTH`` = 1.45 points per narrow length
    (below).  The default grid gives 0.80 for TwoModeGaussian(1+20j, 1, 0)
    (moment error 1e-2 if run), 1.59 for 1+10j (1.6e-10), at least 10 over
    the benchmark's validation box and 6.0 at (1, 1, 5, 100, 1); test_07's
    96-point grid gives at least 1.49.  Over 775 random complex states at
    1.38 to 1.52 points there, the worst errors were 9.8e-9 from 1.45 points
    up, 7.4e-9 from 1.46 and 3.7e-8 at 1.40.
    """
    ell_wide = 1.0 / math.sqrt(min(state.alpha.real, state.beta.real))
    # The narrow length: sqrt of the smallest eigenvalue of Re(A^-1) for the
    # exponent matrix A, one over the widest spread of |psi|^2 in momentum
    # space, exp(-k^T Re(A^-1) k), which Im(alpha) and Im(beta) widen too.
    det = state.alpha * state.beta - state.gamma * state.gamma
    p, q, r = (state.beta / det).real, (state.alpha / det).real, (state.gamma / det).real
    largest = 0.5 * (p + q) + math.hypot(0.5 * (p - q), r)
    ell_narrow = math.sqrt(max(p * q - r * r, 0.0) / largest)
    x, h = grid.axis(ell_wide)
    if ell_narrow / h < MIN_POINTS_PER_LENGTH:
        raise GridConfigurationError(
            f"grid spacing {h:.4g} under-resolves the narrowest width "
            f"{ell_narrow:.4g}; need >= {MIN_POINTS_PER_LENGTH} points per length"
        )
    x1, x2 = x[:, None], x[None, :]
    psi = np.exp(-0.5 * (state.alpha * x1**2 + state.beta * x2**2 + 2 * state.gamma * x1 * x2))
    d1 = _spectral_d1(psi, h)
    d2 = _spectral_d1(psi.T, h).T
    density = psi.real**2 + psi.imag**2
    norm = density.sum()
    x1x1 = x**2 @ density.sum(axis=1) / norm
    x2x2 = x**2 @ density.sum(axis=0) / norm
    x1x2 = x @ density @ x / norm
    p1p1 = np.vdot(d1, d1).real / norm
    p2p2 = np.vdot(d2, d2).real / norm
    p1p2 = np.vdot(d1, d2).real / norm

    # The currents overwrite psi and its derivatives, which are not needed
    # any more, so this step allocates no further complex grid.
    conj_psi = np.conjugate(psi, out=psi)
    j1 = np.multiply(conj_psi, d1, out=d1).imag
    j2 = np.multiply(conj_psi, d2, out=d2).imag
    # Symmetrized <{x,p}>/2 = Re <psi| x (-i d) |psi> = sum x Im(conj(psi) dpsi).
    x1p1 = x @ j1.sum(axis=1) / norm
    x2p1 = x @ j1.sum(axis=0) / norm
    x1p2 = x @ j2.sum(axis=1) / norm
    x2p2 = x @ j2.sum(axis=0) / norm
    return gaussian.CovarianceBlocks(
        a_block=np.array([[x1x1, x1p1], [x1p1, p1p1]]),
        b_block=np.array([[x2x2, x2p2], [x2p2, p2p2]]),
        c_block=np.array([[x1x2, x1p2], [x2p1, p1p2]]),
    )


def moment_max_err(closed: gaussian.CovarianceBlocks, quad: gaussian.CovarianceBlocks) -> float:
    """Worst relative error of the quadrature moments, floored at 1e-3 of the largest."""
    worst = 0.0
    scale = max(
        np.abs(closed.a_block).max(), np.abs(closed.b_block).max(), np.abs(closed.c_block).max()
    )
    for name in ("a_block", "b_block", "c_block"):
        a = getattr(closed, name)
        b = getattr(quad, name)
        err = np.abs(a - b) / np.maximum(np.abs(a), 1e-3 * scale)
        worst = max(worst, float(err.max()))
    return worst


def run_validation(
    params: OscillatorParams,
    grid: GridSpec | None = None,
    thresholds: ValidationThresholds | None = None,
    lambda_override: GroundStateLambda | None = None,
) -> ValidationReport:
    """Run every oracle against the closed-form pipeline for one parameter set.

    ``lambda_override`` substitutes the ground-state exponent matrix fed to
    the Schrodinger and moment checks; it exists so tests can verify that a
    corrupted state is detected.
    """
    grid = grid or GridSpec()
    thresholds = thresholds or ValidationThresholds()

    spec = oscillator.mode_spectrum(params)
    evals = numeric_eigenvalues(oscillator.build_omega_matrix(params))
    eigen_residual = eigen_max_err(evals, expected_eigenvalues(spec))

    lam = lambda_override or oscillator.ground_state_lambda_closed(params, spec)
    schrod = schrodinger_residual(params, lam, grid)

    state = oscillator.ground_state_as_gaussian(lam)
    closed_cov = gaussian.covariance_blocks(state)
    quad_cov = gaussian_moment_quadrature(state, grid)
    moment_err = moment_max_err(closed_cov, quad_cov)

    es_direct = oscillator.es_closed_form(params)
    es_pipeline = gaussian.simon_es(closed_cov)
    es_numeric = gaussian.simon_es(
        gaussian.covariance_blocks(
            oscillator.ground_state_as_gaussian(oscillator.ground_state_lambda_numeric(params))
        )
    )
    es_scale = max(abs(es_direct), abs(es_pipeline), abs(es_numeric), 1e-5)
    es_spread = (
        max(es_direct, es_pipeline, es_numeric) - min(es_direct, es_pipeline, es_numeric)
    ) / es_scale

    report = ValidationReport(
        eigen_residual=eigen_residual,
        schrodinger_residual=schrod,
        moment_max_err=moment_err,
        es_spread=es_spread,
        passed=False,
        thresholds=thresholds,
    )
    return replace(report, passed=not failing_checks(report))
