"""Independent numerical verification engines.

Three oracles cross-check the closed forms elsewhere in the package
without sharing code paths with them:

* a dense eigen-decomposition of the dynamical matrix against the
  quartic-root mode frequencies,
* a finite-difference application of the canonical Hamiltonian to the
  ground state's grid shift factors (residual of the eigenvalue equation),
* trapezoidal sums of the two-mode Gaussian second moments, with the
  Gaussian's exact derivatives, against the closed-form covariance entries.

Both grid oracles take the factored route, O(N) memory, when |psi|
separates (Re of the cross coefficient is 0, as for every closed-form
ground state), and an N x N weighted grid otherwise; the values agree to
rounding.  ``run_validation`` checks both grids against the state first,
then bundles the oracles, together with a three-path agreement check of
the Simon functional, into a single report.
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
    error of the default 257-point grid.  The moment threshold is far above
    the quadrature's measured worst errors: 2.5e-15 on the default grid
    over 59 ground states of the benchmark's validation box and at
    (1, 1, 5, 10 | 20 | 100, 1), and 1.2e-10 for 50 random complex states
    on a 96-point grid.  The others are far above the oracle noise floor.
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


def _cross_weight(kappa: float, l11: float, l22: float, re_l12: float, x: np.ndarray) -> np.ndarray:
    """The part of |exp(-x^T L x / 2)| on the grid x by x that does not separate.

    With kappa = |re_l12| / sqrt(l11 l22), |psi| is exp(-(1 - kappa)(l11 x1^2
    + l22 x2^2) / 2) times this weight exp(-(q1 + q2)^2), q_k = sqrt(kappa
    l_kk / 2) x_k and q2 signed like re_l12; both factors are at most 1.
    """
    q1 = math.sqrt(0.5 * kappa * l11) * x
    q2 = math.copysign(math.sqrt(0.5 * kappa * l22), re_l12) * x
    weight = np.add.outer(q1, q2)  # in place from here: fresh grids cost page faults
    np.exp(np.negative(np.square(weight, out=weight), out=weight), out=weight)
    return weight


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


def _residual_axis(lam: GroundStateLambda, grid: GridSpec) -> tuple[np.ndarray, float]:
    """The residual's grid axis, in lengths of the state's widest diagonal envelope."""
    if grid.extent < MIN_RESIDUAL_EXTENT:
        raise GridConfigurationError(
            f"grid extent must be >= {MIN_RESIDUAL_EXTENT} characteristic lengths "
            f"for a trustworthy residual, got {grid.extent}"
        )
    return grid.axis(1.0 / math.sqrt(min(lam.lambda11, lam.lambda22)))


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
    take kappa = |Re lam12| / sqrt(lam11 lam22) of each diagonal envelope,
    and the rest of |psi| is ``_cross_weight``.

    Two routes, chosen by kappa alone:

    * kappa = 0, as for every closed-form ground state (Re lam12 = 0):
      |psi| separates and the weight is 1, so no N x N array is formed.
      The product's Frobenius norm is that of the 6 x 6 product of the
      two factors' thin-QR triangles (the unitary factors drop out), and
      |psi|'s norm is a product of two axis sums: O(N) memory, two
      (N x 6) QRs.
    * kappa > 0: the product is formed on the N x N grid and weighted by
      ``_cross_weight`` in both norms, O(N^2) memory and work.

    Raises ``GridConfigurationError`` where the grid is too narrow or psi
    underflows to 0 at every grid point.
    """
    x, h = _residual_axis(lam, grid)
    canon = oscillator.bopp_shift(params)
    spec = oscillator.mode_spectrum(params)
    e00 = 0.5 * (spec.sigma1 + spec.sigma2)

    l11, l22, l12 = lam.lambda11, lam.lambda22, lam.lambda12
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
    if kappa == 0:
        # rows = Q1 T1 and cols^T = Q2 T2, so |rows @ cols|_F = |T1 T2^T|_F.
        core = np.linalg.qr(rows, mode="r") @ np.linalg.qr(cols.T, mode="r").T
        residual_sq = np.vdot(core, core).real
        psi_norm_sq = (own1 @ own1) * (own2 @ own2)
    else:
        residual = rows @ cols
        root_weight = _cross_weight(kappa, l11, l22, l12.real, x)
        residual *= root_weight
        residual_sq = np.vdot(residual, residual).real
        psi_norm_sq = (own1 * own1) @ np.square(root_weight, out=root_weight) @ (own2 * own2)
    if not psi_norm_sq > 0:
        raise GridConfigurationError(
            f"psi underflows to 0 at every point of the {grid.points_per_axis}-point grid"
        )
    return math.sqrt(residual_sq / psi_norm_sq)


def _moment_axis(state: TwoModeGaussian, grid: GridSpec) -> tuple[np.ndarray, float]:
    """The moment grid's axis, after checking that it resolves the state.

    The axis spans ``grid.extent`` wide lengths, 1/sqrt of the smaller real
    diagonal coefficient.  The narrow length is sqrt of the smallest
    eigenvalue of Re(A^-1) for the exponent matrix A, one over the widest
    spread of |psi|^2 in momentum space, exp(-k^T Re(A^-1) k), which
    Im(alpha) and Im(beta) widen too; it needs ``MIN_POINTS_PER_LENGTH``
    grid points.
    """
    ell_wide = 1.0 / math.sqrt(min(state.alpha.real, state.beta.real))
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
    return x, h


def gaussian_moment_quadrature(state: TwoModeGaussian, grid: GridSpec) -> gaussian.CovarianceBlocks:
    """All ten second moments by trapezoidal quadrature on the grid.

    For psi = exp(-x^T A x/2) the derivatives are exact, d_k psi = -(A x)_k psi,
    so the definitions <x_j x_k> = sum x_j x_k |psi|^2, <p_j p_k> =
    Re sum conj(d_j psi) d_k psi and <{x_j, p_k}>/2 = sum x_j Im(conj(psi)
    d_k psi) (over sum |psi|^2) are sums of |psi|^2 times polynomials of
    degree <= 2: <p p> = Re(conj(A) X A) and <x p> = -X Im(A) for the
    position moments X.  All of them follow from the sums S_ab = sum x1^a
    x2^b |psi|^2 over the separable factors of |psi|^2 and the square of
    ``_cross_weight``.  With kappa = |Re gamma| / sqrt(Re alpha Re beta) = 0,
    as for every closed-form ground state, the weight is 1 and S is the
    outer product of the factors' row sums, O(N) work and memory; otherwise
    it is one (3 x N) by (N x N) by (N x 3) product over the weight grid.
    |psi|^2 is zero to machine precision at the grid edge, so the sums
    converge exponentially.

    Requires ``MIN_POINTS_PER_LENGTH`` = 1.45 points per narrow length
    (``_moment_axis``).  The default grid gives 0.80 for
    TwoModeGaussian(1+20j, 1, 0), 1.59 for 1+10j (moment error 5.6e-16), at
    least 10 over the benchmark's validation box and 6.0 at
    (1, 1, 5, 100, 1) (errors <= 2.5e-15); test_07's 96-point grid gives at
    least 1.49 (errors <= 1.2e-10).
    """
    x, _ = _moment_axis(state, grid)
    a1, b1, g1 = state.alpha.real, state.beta.real, state.gamma.real
    kappa = abs(g1) / math.sqrt(a1 * b1)
    powers = np.array((np.ones_like(x), x, x * x))
    rows = powers * np.exp((kappa - 1) * a1 * x * x)
    cols = powers * np.exp((kappa - 1) * b1 * x * x)
    if kappa == 0:
        s = np.outer(rows.sum(1), cols.sum(1))  # s[a, b] = sum x1^a x2^b |psi|^2
    else:
        weight = _cross_weight(kappa, a1, b1, g1, x)
        s = rows @ np.square(weight, out=weight) @ cols.T
    pos = np.array([[s[2, 0], s[1, 1]], [s[1, 1], s[0, 2]]]) / s[0, 0]
    a = np.array([[state.alpha, state.gamma], [state.gamma, state.beta]])
    mom = (a.conj() @ pos @ a).real
    mixed = -pos @ a.imag  # mixed[j, k] = <{x_j, p_k}>/2
    return gaussian.CovarianceBlocks(
        a_block=np.array([[pos[0, 0], mixed[0, 0]], [mixed[0, 0], mom[0, 0]]]),
        b_block=np.array([[pos[1, 1], mixed[1, 1]], [mixed[1, 1], mom[1, 1]]]),
        c_block=np.array([[pos[0, 1], mixed[0, 1]], [mixed[1, 0], mom[0, 1]]]),
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
    lam = lambda_override or oscillator.ground_state_lambda_closed(params, spec)
    state = oscillator.ground_state_as_gaussian(lam)
    # Both grid guards run before any oracle work, so a grid that cannot
    # resolve the state fails with its GridConfigurationError alone.
    _residual_axis(lam, grid)
    _moment_axis(state, grid)

    evals = numeric_eigenvalues(oscillator.build_omega_matrix(params))
    eigen_residual = eigen_max_err(evals, expected_eigenvalues(spec))
    schrod = schrodinger_residual(params, lam, grid)

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
