"""Independent numerical verification engines.

Three oracles cross-check the closed forms elsewhere in the package
without sharing code paths with them:

* a dense eigen-decomposition of the dynamical matrix against the
  quartic-root mode frequencies,
* a finite-difference application of the canonical Hamiltonian to the
  ground state's grid shift factors (residual of the eigenvalue equation),
* trapezoidal sums of the two-mode Gaussian second moments, with the
  Gaussian's exact derivatives, against the closed-form covariance entries.

Both grid oracles work on states whose |psi| separates (the cross
coefficient is purely imaginary, as in every closed-form ground state),
in factored form with O(N) memory; any other state raises ``DomainError``.
The moment sums size each axis from the width of its own factor of
|psi|^2.  ``run_validation`` bundles the oracles on the default grid,
together with a two-path agreement check of the Simon functional, into a
single report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import gaussian, oscillator
from .errors import DomainError, GridConfigurationError, NumericRangeError
from .gaussian import TwoModeGaussian
from .oscillator import GroundStateLambda, ModeSpectrum, OscillatorParams

MIN_POINTS_PER_AXIS = 33
MIN_RESIDUAL_EXTENT = 6.0


@dataclass(frozen=True)
class GridSpec:
    """Square uniform grid, sized in units of the state's characteristic length.

    ``extent`` is the half-width of the grid in characteristic lengths
    (1/sqrt of a real diagonal exponent coefficient: the smaller one for
    both residual axes, each axis's own for the moment sums); the physical
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
    the quadrature's measured worst error, 1.1e-15 on the default grid over
    2,000 ground states with inputs over 1e-2...1e2 and theta over
    1e-3...1e2.  The others are far above the oracle noise floor.
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


def _shift_factors(lam_kk: float, lam12: complex, x: np.ndarray, h: float):
    """One axis's factors of psi = exp(-lam_kk x^2/2) * ... * exp(-lam12 x1 x2).

    In order: the envelope at the next and the previous point (0 off the
    grid, the stencil's zero padding), at x, and at x times exp(-+ lam12 h x)
    (the cross term as the other coordinate steps +-h).  Each is one exp of
    its whole exponent, so none exceeds 1.
    """
    own, cross = -0.5 * lam_kk * x * x, lam12 * h * x
    envelope = np.exp(own)
    nxt, prv = np.append(envelope[1:], 0.0), np.append(0.0, envelope[:-1])
    return nxt, prv, envelope, np.exp(own - cross), np.exp(own + cross)


def _require_separable(cross: complex, name: str) -> None:
    """The grid oracles factor |psi|, which needs a purely imaginary cross coefficient."""
    if cross.real != 0:
        raise DomainError(
            f"Re({name}) = {cross.real} != 0: |psi| does not separate, and no "
            "closed-form ground state has such a cross coefficient"
        )


def _residual_axis(lam: GroundStateLambda, grid: GridSpec) -> tuple[np.ndarray, float]:
    """The residual's grid axis, in lengths of the state's widest diagonal envelope."""
    _require_separable(lam.lambda12, "lambda12")
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
    is exp(-lam12 x1 x2) times one (N x 6) by (6 x N) product.  With
    Re lam12 = 0, as for every closed-form ground state, |exp(-lam12 x1 x2)|
    = 1, so no N x N array is formed: the product's Frobenius norm is that
    of the 6 x 6 product of the two factors' thin-QR triangles (the unitary
    factors drop out), and |psi|'s norm is a product of two axis sums, O(N)
    memory and two (N x 6) QRs.

    Raises ``DomainError`` where Re lam12 != 0, and
    ``GridConfigurationError`` where the grid is too narrow or psi
    underflows to 0 at every grid point.
    """
    x, h = _residual_axis(lam, grid)
    canon = oscillator.bopp_shift(params)
    spec = oscillator.mode_spectrum(params)
    e00 = 0.5 * (spec.sigma1 + spec.sigma2)

    nxt1, prv1, own1, plus1, minus1 = _shift_factors(lam.lambda11, lam.lambda12, x, h)
    nxt2, prv2, own2, plus2, minus2 = _shift_factors(lam.lambda22, lam.lambda12, x, h)
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
    # rows = Q1 T1 and cols^T = Q2 T2, so |rows @ cols|_F = |T1 T2^T|_F.
    core = np.linalg.qr(rows, mode="r") @ np.linalg.qr(cols.T, mode="r").T
    residual_sq = np.vdot(core, core).real
    psi_norm_sq = (own1 @ own1) * (own2 @ own2)
    if not psi_norm_sq > 0:
        raise GridConfigurationError(
            f"psi underflows to 0 at every point of the {grid.points_per_axis}-point grid"
        )
    return math.sqrt(residual_sq / psi_norm_sq)


def gaussian_moment_quadrature(state: TwoModeGaussian, grid: GridSpec) -> gaussian.CovarianceBlocks:
    """All ten second moments by trapezoidal quadrature on the grid.

    For psi = exp(-x^T A x/2) the derivatives are exact, d_k psi = -(A x)_k psi,
    so the definitions <x_j x_k> = sum x_j x_k |psi|^2, <p_j p_k> =
    Re sum conj(d_j psi) d_k psi and <{x_j, p_k}>/2 = sum x_j Im(conj(psi)
    d_k psi) (over sum |psi|^2) are sums of |psi|^2 times polynomials of
    degree <= 2: <p p> = Re(conj(A) X A) and <x p> = -X Im(A) for the
    position moments X.  All of them follow from the sums S_ab = sum x1^a
    x2^b |psi|^2.  Re(gamma) = 0, as for every closed-form ground state, so
    |psi|^2 = exp(-Re(alpha) x1^2) exp(-Re(beta) x2^2) separates and S is
    the outer product of its factors' axis sums, O(N) work and memory.
    Each sum only has to resolve its own factor, so axis k spans
    ``grid.extent`` of that factor's lengths 1/sqrt(Re(A_kk)): 16 points per
    length on the default grid whatever the state, where the trapezoid sums
    of a Gaussian converge exponentially.  Raises ``DomainError`` where
    Re(gamma) != 0.
    """
    _require_separable(state.gamma, "gamma")
    sums = []  # sum x^a exp(-Re(A_kk) x^2) for a = 0, 1, 2, per axis
    for coeff in (state.alpha.real, state.beta.real):
        x, _ = grid.axis(1.0 / math.sqrt(coeff))
        w = np.exp(-coeff * x * x)
        sums.append((w.sum(), x @ w, (x * x) @ w))
    s = np.outer(*sums)  # s[a, b] = sum x1^a x2^b |psi|^2
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


def run_validation(params: OscillatorParams) -> ValidationReport:
    """Run every oracle against the closed-form pipeline for one parameter set.

    The grid oracles run on the default ``GridSpec``.  Raises
    ``NumericRangeError`` where a check's value is not finite, because an
    intermediate of an oracle or of the closed forms it reads left the
    float range.
    """
    # An odd number of points puts x = 0 on the grid, so psi's grid norm is
    # at least 1 and the residual cannot raise GridConfigurationError.
    grid = GridSpec()
    spec = oscillator.mode_spectrum(params)
    lam = oscillator.ground_state_lambda_closed(params, spec)
    state = oscillator.ground_state_as_gaussian(lam)

    # Inputs far from unit scale can overflow or underflow inside numpy;
    # the finiteness check below reports that once, for every check.
    with np.errstate(all="ignore"):
        evals = numeric_eigenvalues(oscillator.build_omega_matrix(params))
        eigen_residual = eigen_max_err(evals, expected_eigenvalues(spec))
        schrod = schrodinger_residual(params, lam, grid)

        closed_cov = gaussian.covariance_blocks(state)
        quad_cov = gaussian_moment_quadrature(state, grid)
        moment_err = moment_max_err(closed_cov, quad_cov)

        es_direct = oscillator.es_closed_form(params)
        es_pipeline = gaussian.simon_es(closed_cov)
        es_spread = abs(es_direct - es_pipeline) / max(abs(es_direct), abs(es_pipeline), 1e-5)
    values = (eigen_residual, schrod, moment_err, es_spread)
    if not all(map(math.isfinite, values)):
        raise NumericRangeError(f"validation checks {values} are not all finite for params {params}")

    report = ValidationReport(
        eigen_residual=eigen_residual,
        schrodinger_residual=schrod,
        moment_max_err=moment_err,
        es_spread=es_spread,
        passed=False,
    )
    return replace(report, passed=not failing_checks(report))
