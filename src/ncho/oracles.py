"""Independent numerical verification engines.

Three oracles cross-check the closed forms elsewhere in the package
without sharing code paths with them:

* a dense eigen-decomposition of the dynamical matrix against the
  quartic-root mode frequencies,
* a finite-difference application of the canonical Hamiltonian to the
  ground state's grid shift factors (residual of the eigenvalue equation),
* trapezoidal sums of the two-mode Gaussian second moments, with the
  Gaussian's exact derivatives, against the closed-form covariance entries.

Both grid oracles take the state as a ``TwoModeGaussian`` and work on
states whose |psi| separates (the cross coefficient gamma is purely
imaginary, as in every closed-form ground state), in factored form with
O(N) memory; any other state raises ``DomainError``.  The residual
treats both axes in one pass of (2, N) arrays, fills its (6, N) row and
column factors in place, and takes one thin QR and one cross phase that
both axes share.  The moment sums size each axis from the width of its
own factor of |psi|^2; in those units each axis sum is a constant of the
grid, summed once per grid, so per state the moments and their
comparison with the closed form are 2x2 algebra on plain floats, with no
numpy call.  ``run_validation``
bundles the oracles on the default grid, together with a check of the
closed-form E_S against the pure-state identity, into a single report.

Importing this module loads ``dataclasses`` but not numpy: numpy loads
with the first array-building call, as in the rest of the package, so
building a ``GridSpec`` or reading a ``ValidationReport`` needs none.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

from . import gaussian, oscillator
from .errors import DomainError, NumericRangeError
from .gaussian import TwoModeGaussian
from .oscillator import OscillatorParams

if TYPE_CHECKING:
    import numpy as np

MIN_POINTS_PER_AXIS = 33
MIN_RESIDUAL_EXTENT = 6.0


@dataclass(frozen=True)
class GridSpec:
    """Square uniform grid, sized in units of the state's characteristic length.

    ``extent`` is the half-width of the grid in characteristic lengths
    (1/sqrt of a real diagonal exponent coefficient: the smaller one for
    both residual axes, each axis's own for the moment sums); the physical
    spacing follows once a concrete state fixes that length.  The unit
    axis u = ``linspace(-extent, extent, points_per_axis)`` and its sums
    sum u^a exp(-u^2), a = 0, 1, 2, are computed once per grid; ``axis``
    scales u into a new array on every call, so the endpoints are exactly
    +-extent times the length.
    """

    extent: float = 8.0
    points_per_axis: int = 257

    def __post_init__(self):
        # Stdlib checks, so that building a grid loads no numpy.  NaN fails
        # both comparisons, and an int above the float range the second.
        # An int of too many digits to print is named, not formatted.
        if not 0 < self.extent <= sys.float_info.max:
            raise DomainError(
                f"extent must be positive and finite, got {gaussian._shown(self.extent)}"
            )
        try:
            enough = operator.index(self.points_per_axis) >= MIN_POINTS_PER_AXIS
        except TypeError:
            enough = False
        if not enough:
            raise DomainError(
                f"points_per_axis must be an integer >= {MIN_POINTS_PER_AXIS} "
                f"(got {gaussian._shown(self.points_per_axis)!r}); below that the "
                "discretization error dominates any physical signal"
            )

    @cached_property
    def _unit_axis(self) -> np.ndarray:
        import numpy as np

        return np.linspace(-self.extent, self.extent, self.points_per_axis)

    @cached_property
    def _unit_sums(self) -> tuple[float, float, float]:
        """sum u^a exp(-u^2) over the unit axis u, for a = 0, 1, 2."""
        import numpy as np

        u = self._unit_axis
        w = np.exp(-u * u)
        return tuple(np.array((w, u * w, u * u * w)).sum(axis=-1).tolist())

    def axis(self, char_length: float) -> tuple[np.ndarray, float]:
        """Physical grid axis and spacing for a given characteristic length."""
        x = self._unit_axis * char_length
        return x, float(x[1] - x[0])


# Each check passes only below its limit.  The Schrodinger limit reflects
# the pure O(h^2) discretization error of the default 257-point grid.  The
# moment limit is far above the quadrature's measured worst error, 1.1e-15
# on the default grid over 2,000 ground states with inputs over 1e-2...1e2
# and theta over 1e-3...1e2; the E_S limit is far above the worst spread
# there, 2e-15.  The eigen limit is far above the solver's noise floor.
_CHECKS = ("eigen_residual", "schrodinger_residual", "moment_max_err", "es_spread")
_THRESHOLDS = namedtuple("Thresholds", "eigen schrodinger moments es_spread")(1e-8, 1e-2, 1e-8, 1e-12)


@dataclass(frozen=True)
class ValidationReport:
    eigen_residual: float
    schrodinger_residual: float
    moment_max_err: float
    es_spread: float
    passed: bool
    thresholds: ClassVar = _THRESHOLDS  # one limit per check, in field order


# run_validation's grid.  An odd number of points puts x = 0 on the grid,
# so psi's grid norm is at least 1 and the residual's underflow check
# cannot fail.
_DEFAULT_GRID = GridSpec()


def failing_checks(report: ValidationReport) -> list[str]:
    """Names of the checks whose value is not below its threshold."""
    return [name for name, limit in zip(_CHECKS, _THRESHOLDS) if not getattr(report, name) < limit]


def numeric_eigenvalues(omega_matrix: np.ndarray) -> list[complex]:
    """Eigenvalues of the dynamical matrix as a list, sorted by (imag, real).

    For a valid oscillator matrix these are {-i*s1, -i*s2, +i*s2, +i*s1}
    with real parts at roundoff level, as Python complexes.  A matrix whose
    eigenvalues are all real gives Python floats, as numpy gives a real array.
    """
    import numpy as np

    m = np.asarray(omega_matrix, dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("dynamical matrix contains non-finite entries")
    # Python complex sorts faster than numpy scalars; np.lexsort costs 0.15 MB of RSS.
    return sorted(np.linalg.eigvals(m).tolist(), key=lambda z: (z.imag, z.real))


def _require_separable(state: TwoModeGaussian) -> None:
    """The grid oracles factor |psi|, which needs a purely imaginary gamma."""
    if state.gamma.real != 0:
        raise DomainError(
            f"Re(gamma) = {state.gamma.real} != 0: |psi| does not separate, and no "
            "closed-form ground state has such a cross coefficient"
        )


def schrodinger_residual(params: OscillatorParams, state: TwoModeGaussian, grid: GridSpec) -> float:
    """Relative L2 residual of (H - E00) psi on the grid, for a candidate ground state psi.

    The canonical Hamiltonian (kinetic terms, quadratic potential and the
    theta cross term with x*d/dx structure) is discretized with
    second-order central differences on zero-padded samples; the residual
    therefore converges as O(h^2) under grid refinement for the true
    ground state.  The stencil is evaluated exactly through psi's shift
    factors, not on sampled psi: psi at x +- h e_k is exp(-gamma x1 x2)
    times a row and a column factor, so (H - E00) psi is exp(-gamma x1 x2)
    times one (N x 6) by (6 x N) product, rows @ cols.  No factor exceeds 1
    in modulus: both axes' envelopes come from one (2, N) exp, and the
    cross factors exp(-+ gamma h x) of a step in the other coordinate are
    the envelopes times one shared phase, exp(-i Im(gamma) h x), or its
    conjugate.  With Re gamma = 0, as for every closed-form ground state,
    |exp(-gamma x1 x2)| = 1, so no N x N array is formed: with the thin QR
    rows = Q T, the product's Frobenius norm is that of T @ cols (Q's
    orthonormal columns drop out), and |psi|'s norm is a product of two
    axis sums: O(N) memory and one (N x 6) QR.

    The grid axis is in lengths of the state's widest diagonal envelope.
    Raises ``DomainError`` where Re gamma != 0, where the grid is too
    narrow, or where psi underflows to 0 at every grid point.
    """
    import numpy as np

    _require_separable(state)
    if grid.extent < MIN_RESIDUAL_EXTENT:
        raise DomainError(
            f"grid extent must be >= {MIN_RESIDUAL_EXTENT} characteristic lengths "
            f"for a trustworthy residual, got {gaussian._shown(grid.extent)}"
        )
    x, h = grid.axis(1.0 / math.sqrt(min(state.alpha.real, state.beta.real)))
    canon = oscillator.bopp_shift(params)
    spec = oscillator.mode_spectrum(params)
    e00 = 0.5 * (spec.sigma1 + spec.sigma2)

    x2 = x * x
    own = np.exp(np.array(((-0.5 * state.alpha,), (-0.5 * state.beta,))) * x2)
    turn = np.exp(-1j * (state.gamma.imag * h) * x)  # exp(-gamma h x), as Re gamma = 0
    plus, minus = own * turn, own * turn.conj()
    kin1, kin2 = -0.5 / (canon.big_m1 * h * h), -0.5 / (canon.big_m2 * h * h)
    # -theta*(a1 x1 p2 - a2 x2 p1) with p = -i d/dx
    drift1 = 0.5j * params.theta * params.alpha1 / h * x
    drift2 = 0.5j * params.theta * params.alpha2 / h * x
    diag1 = 0.5 * canon.big_m1 * canon.omega1_sq * x2 - (2 * kin1 + 2 * kin2 + e00)
    pot2 = 0.5 * canon.big_m2 * canon.omega2_sq * x2
    # The terms in psi(x1 +- h, x2), psi(x1, x2 +- h) and psi(x1, x2).  A
    # shifted envelope is the one at the next or the previous point, 0 off
    # the grid (the stencil's zero padding).
    rows, cols = np.zeros((2, 6, x.size), complex)
    rows[0, :-1], rows[1, 1:], rows[5] = own[0, 1:], own[0, :-1], own[0]
    np.multiply(plus[0], kin2 + drift1, out=rows[2])
    np.multiply(minus[0], kin2 - drift1, out=rows[3])
    np.multiply(own[0], diag1, out=rows[4])
    np.multiply(plus[1], kin1 - drift2, out=cols[0])
    np.multiply(minus[1], kin1 + drift2, out=cols[1])
    cols[2, :-1], cols[3, 1:], cols[4] = own[1, 1:], own[1, :-1], own[1]
    np.multiply(pot2, own[1], out=cols[5])
    core = np.linalg.qr(rows.T, mode="r") @ cols
    residual_sq = np.vdot(core, core).real
    psi_norm_sq = np.vdot(own[0], own[0]).real * np.vdot(own[1], own[1]).real
    if not psi_norm_sq > 0:
        raise DomainError(
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
    the outer product of its factors' axis sums.
    Each sum only has to resolve its own factor, so axis k spans
    ``grid.extent`` of that factor's lengths L_k = 1/sqrt(Re(A_kk)): 16
    points per length on the default grid whatever the state, where the
    trapezoid sums of a Gaussian converge exponentially.  On the grid's unit
    axis u, axis k is L_k u and its weight exp(-Re(A_kk) x^2) is exp(-u^2)
    up to rounding, so its sums are L_k^a sum u^a exp(-u^2): three
    constants of the grid, which it sums once.  Per state the oracle is 2x2
    algebra on plain floats, with no numpy call.  Raises ``DomainError``
    where Re(gamma) != 0.
    """
    _require_separable(state)
    # <x_j x_k> = S_jk/S_00 scales the unit moments u_a = sum u^a exp(-u^2)/sum exp(-u^2).
    s0, s1, s2 = grid._unit_sums
    u1, u2 = s1 / s0, s2 / s0
    l1, l2 = 1 / math.sqrt(state.alpha.real), 1 / math.sqrt(state.beta.real)
    x12 = (l1 * u1) * (l2 * u1)
    pos = ((l1 * (l1 * u2), x12), (x12, l2 * (l2 * u2)))  # no L_k^2 is formed: it can overflow
    a = ((state.alpha, state.gamma), (state.gamma, state.beta))
    r = (0, 1)
    xa = [[pos[j][0] * a[0][k] + pos[j][1] * a[1][k] for k in r] for j in r]  # X A, complex
    mom = [
        [(a[j][0].conjugate() * xa[0][k] + a[j][1].conjugate() * xa[1][k]).real for k in r]
        for j in r
    ]
    mixed = [[-v.imag for v in row] for row in xa]  # mixed[j][k] = <{x_j, p_k}>/2; X is real
    # Every entry is a float, which is all that CovarianceBlocks checks.
    return tuple.__new__(gaussian.CovarianceBlocks, (
        ((pos[0][0], mixed[0][0]), (mixed[0][0], mom[0][0])),
        ((pos[1][1], mixed[1][1]), (mixed[1][1], mom[1][1])),
        ((pos[0][1], mixed[0][1]), (mixed[1][0], mom[0][1])),
    ))


def moment_max_err(closed: gaussian.CovarianceBlocks, quad: gaussian.CovarianceBlocks) -> float:
    """Worst relative error of the quadrature moments, floored at 1e-3 of the largest.

    NaN where an entry of either side is NaN, which ``max`` alone would drop.
    """
    c, q = ([v for block in blocks for row in block for v in row] for blocks in (closed, quad))
    floor = 1e-3 * max(map(abs, c))
    return _worst([abs(a - b) / max(floor, abs(a)) for a, b in zip(c, q)])  # a NaN floor stays first


def _worst(errs: list[float]) -> float:
    """The largest error; NaN where any is NaN, which ``max`` alone would drop."""
    return math.nan if any(map(math.isnan, errs)) else max(errs)


def run_validation(params: OscillatorParams) -> ValidationReport:
    """Run one check per closed form for one parameter set.

    * eigen: the dense eigenvalues against (-i s1, -i s2, i s2, i s1), each
      relative to its own modulus, so an error in the slow mode cannot hide
      behind the fast one;
    * Schrodinger residual and moments: the grid oracles on the default
      ``GridSpec``, against the closed-form state and its covariance;
    * E_S: ``es_closed_form`` against the state's own E_S.  For a pure
      two-mode Gaussian Omega^2 = 1/4 - E_S is the determinant of either
      mode's covariance block (Adesso and Illuminati, J. Phys. A 40, 7821
      (2007)), so at Re gamma = 0 E_S = -(Im gamma)^2 / (4 Re alpha Re
      beta), a square of quotients here so that no product underflows.

    Raises ``NumericRangeError`` where a check's value is not finite,
    because an intermediate of an oracle or of the closed forms it reads
    left the float range.
    """
    import numpy as np

    spec = oscillator.mode_spectrum(params)
    state = oscillator.ground_state_lambda_closed(params, spec)

    # Inputs far from unit scale can overflow or underflow inside numpy;
    # the finiteness check below reports that once, for every check.
    with np.errstate(all="ignore"):
        evals = numeric_eigenvalues(oscillator.build_omega_matrix(params))
        s1, s2 = spec.sigma1, spec.sigma2  # numeric_eigenvalues' order, as s2 <= s1
        expected = (-1j * s1, -1j * s2, 1j * s2, 1j * s1)
        eigen_residual = _worst([abs(z - e) / abs(e) for z, e in zip(evals, expected)])
        schrod = schrodinger_residual(params, state, _DEFAULT_GRID)
        quad_cov = gaussian_moment_quadrature(state, _DEFAULT_GRID)
        moment_err = moment_max_err(gaussian.covariance_blocks(state), quad_cov)

    es_closed = oscillator.es_closed_form(params)
    g = state.gamma.imag / math.sqrt(state.alpha.real) / math.sqrt(state.beta.real)
    es_state = -g * g / 4
    es_spread = abs(es_closed - es_state) / max(abs(es_closed), abs(es_state), sys.float_info.min)
    values = (eigen_residual, schrod, moment_err, es_spread)
    if not all(map(math.isfinite, values)):
        raise NumericRangeError(f"validation checks {values} are not all finite for params {params}")
    return ValidationReport(*values, all(v < limit for v, limit in zip(values, _THRESHOLDS)))
