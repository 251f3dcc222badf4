"""Pure two-mode Gaussian states and their entanglement.

A state is parametrized by the complex coefficients of its exponent,

    psi(x1, x2) = N0 * exp(-(alpha*x1^2 + beta*x2^2 + 2*gamma*x1*x2)/2),

in hbar = 1 oscillator units.  From these coefficients the module computes
the 2x2 covariance blocks of both modes and their cross correlations, the
Simon separability functional E_S, and the Entanglement of Formation E_F
(in nats).  All functions are pure and all values are immutable after
construction.  The covariance blocks are 2x2 tuples of floats, and the
2x2 algebra runs on plain floats: nothing here imports numpy, and the
array path ``oscillator.entanglement_columns`` passes numpy to
``_formation`` itself.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, NumericRangeError

#: Below this distance of Omega from 1/2 the x*ln(x) limit branch is taken.
OMEGA_LIMIT_GUARD = 1e-15

_HUGE = sys.float_info.max


def _number(v, kind):
    """kind(v) for kind float or complex; NaN for text (kind would parse it), an int beyond
    the float range (kind would round one just beyond into it) and what kind refuses."""
    if isinstance(v, (str, bytes, bytearray, memoryview)) or (
        isinstance(v, int) and not -_HUGE <= v <= _HUGE
    ):
        return math.nan
    try:
        return kind(v)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _shown(v):
    """V as an error message shows it: an int beyond the float range, which
    can have too many digits to print, is named instead."""
    if isinstance(v, int) and not -_HUGE <= v <= _HUGE:
        return "an int beyond the float range"
    return v


class TwoModeGaussian(namedtuple("TwoModeGaussian", "alpha beta gamma")):
    """Exponent coefficients of a normalized two-mode Gaussian.

    The constructor stores each coefficient as a Python complex, from any
    number (numpy scalars, ``Fraction`` and ``Decimal`` included); strings
    and ints beyond the float range are refused.  It requires finite parts,
    Re(alpha) > 0, Re(beta) > 0 and Re(alpha)*Re(beta) - Re(gamma)^2 > 0
    so the state is square integrable.  Where Re(gamma) = 0, as for every
    closed-form ground state (whose real alpha and beta stay floats), the
    second and third imply the fourth, and the product, which can
    underflow to 0 for a valid state, is not formed.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma):
        self = tuple.__new__(cls, (_number(v, complex) for v in (alpha, beta, gamma)))
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in self):
            shown = ", ".join(f"{k}={_shown(v)}" for k, v in zip(cls._fields, (alpha, beta, gamma)))
            raise DomainError(f"coefficients must be finite, got {cls.__name__}({shown})")
        alpha, beta, gamma = self
        if not (alpha.real > 0):
            raise DomainError(f"Re(alpha) > 0 violated: Re(alpha) = {alpha.real}")
        if not (beta.real > 0):
            raise DomainError(f"Re(beta) > 0 violated: Re(beta) = {beta.real}")
        if gamma.real != 0 and not (self.delta_sq > 0):
            raise DomainError(f"Re(alpha)*Re(beta) - Re(gamma)^2 > 0 violated: got {self.delta_sq}")
        return self

    # namedtuple's own _make, which _replace calls, would skip these checks.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def delta_sq(self) -> float:
        """Re(alpha)*Re(beta) - Re(gamma)^2, the squared width determinant."""
        g = self.gamma.real
        return self.alpha.real * self.beta.real - g * g  # g * g: inf, not OverflowError


class CovarianceBlocks(namedtuple("CovarianceBlocks", "a_block b_block c_block")):
    """Second-moment blocks of a two-mode state.

    ``a_block`` and ``b_block`` are the symmetric single-mode blocks
    [[<x^2>, <{x,p}/2>], [<{x,p}/2>, <p^2>]]; ``c_block`` holds the cross
    moments [[<x1 x2>, <x1 p2>], [<x2 p1>, <p1 p2>]], each as a 2x2 tuple
    of float rows.  The constructor takes any 2x2 nested sequence of real
    numbers, numpy arrays included.
    """

    __slots__ = ()

    def __new__(cls, a_block, b_block, c_block):
        from numbers import Real

        blocks = []
        for name, block in (("a_block", a_block), ("b_block", b_block), ("c_block", c_block)):
            try:
                (a, b), (c, d) = block
            except (TypeError, ValueError):  # not iterable, or not 2x2
                entries = ()
            else:
                entries = (a, b, c, d)
            if not (entries and all(isinstance(v, Real) for v in entries)):
                raise DomainError(f"{name} must be a 2x2 matrix of real numbers, got {block!r}")
            blocks.append(((float(a), float(b)), (float(c), float(d))))
        return tuple.__new__(cls, blocks)

    _make = classmethod(lambda cls, values: cls(*values))  # checked, as above


def covariance_blocks(state: TwoModeGaussian) -> CovarianceBlocks:
    """All ten second moments of the state, in closed form.

    With A = [[alpha, gamma], [gamma, beta]], the position moments are
    X = Re(A)^-1 / 2, the mixed moments <{x_j, p_k}>/2 are M = -X Im(A), and
    the momentum moments are P = Re(A)/2 + Im(A) X Im(A) = Re(A)/2 - Im(A) M.
    X is written through the correlation kappa = (Re(gamma)/sqrt(Re(alpha)))
    / sqrt(Re(beta)), so Re(alpha)*Re(beta), which can underflow for a
    valid state, is never formed.  Raises ``NumericRangeError`` where
    |kappa| rounds to 1, which would make X singular.
    """
    a1, a2 = state.alpha.real, state.alpha.imag
    b1, b2 = state.beta.real, state.beta.imag
    g1, g2 = state.gamma.real, state.gamma.imag
    ra, rb = math.sqrt(a1), math.sqrt(b1)
    kappa = g1 / ra / rb
    if not abs(kappa) < 1:
        raise NumericRangeError(
            f"Re(gamma)^2 rounds to Re(alpha)*Re(beta): the position covariance is singular for {state}"
        )
    e = (1 - kappa) * (1 + kappa)  # Re(alpha)*Re(beta) - Re(gamma)^2, over Re(alpha)*Re(beta)

    x1x1 = 0.5 / a1 / e
    x2x2 = 0.5 / b1 / e
    x1x2 = -0.5 * kappa / e / ra / rb

    # Symmetrized <{x_j, p_k}>/2 moments.
    x1p1 = -(x1x1 * a2 + x1x2 * g2)
    x1p2 = -(x1x1 * g2 + x1x2 * b2)
    x2p1 = -(x1x2 * a2 + x2x2 * g2)
    x2p2 = -(x1x2 * g2 + x2x2 * b2)

    p1p1 = a1 / 2 - (a2 * x1p1 + g2 * x2p1)
    p2p2 = b1 / 2 - (g2 * x1p2 + b2 * x2p2)
    p1p2 = g1 / 2 - (a2 * x1p2 + g2 * x2p2)

    # Every entry is a float, which is all that CovarianceBlocks checks.
    return tuple.__new__(CovarianceBlocks, (
        ((x1x1, x1p1), (x1p1, p1p1)),
        ((x2x2, x2p2), (x2p2, p2p2)),
        ((x1x2, x1p2), (x2p1, p1p2)),
    ))


def simon_es(cov: CovarianceBlocks) -> float:
    """Simon separability functional from the covariance blocks.

    E_S = det A * det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
          - (det A + det B)/4,

    with J = [[0, 1], [-1, 0]].  J C J = -adj(C)^T and J C^T J = -adj(C),
    so the trace is tr(A adj(C)^T B adj(C)), with adj(C) = [[c22, -c12],
    [-c21, c11]].  E_S >= 0 is necessary and sufficient for separability of
    a bipartite Gaussian state; E_S < 0 means entanglement.  Raises
    ``NumericRangeError`` where E_S is not finite.
    """
    (a11, a12), (a21, a22) = cov.a_block
    (b11, b12), (b21, b22) = cov.b_block
    (c11, c12), (c21, c22) = cov.c_block
    det_a = a11 * a22 - a12 * a21
    det_b = b11 * b22 - b12 * b21
    det_c = c11 * c22 - c12 * c21
    # P = A adj(C)^T and Q = B adj(C); the trace is tr(P Q).
    p11, p12 = a11 * c22 - a12 * c12, a12 * c11 - a11 * c21
    p21, p22 = a21 * c22 - a22 * c12, a22 * c11 - a21 * c21
    q11, q12 = b11 * c22 - b12 * c21, b12 * c11 - b11 * c12
    q21, q22 = b21 * c22 - b22 * c21, b22 * c11 - b21 * c12
    tr = p11 * q11 + p12 * q21 + p21 * q12 + p22 * q22
    s = 0.25 - abs(det_c)
    e_s = det_a * det_b + s * s - tr - 0.25 * (det_a + det_b)  # s * s: inf, not OverflowError
    if not math.isfinite(e_s):
        raise NumericRangeError("Simon functional overflowed; covariance entries too large")
    return e_s


def _formation(omega, xp):
    """E_F at Omega > 1/2, on floats (xp = math) or arrays (xp = numpy).

    ln(Omega + 1/2) + (Omega - 1/2) ln(1 + 1/(Omega - 1/2)) equals the
    textbook difference of x ln x terms, which cancels to 0 at large Omega.
    """
    t = omega - 0.5
    return xp.log(omega + 0.5) + t * xp.log1p(1 / t)


def entanglement_of_formation(e_s: float) -> tuple[float, float]:
    """(Omega, E_F) from the Simon functional of a pure two-mode Gaussian.

    Omega = sqrt(1/4 - E_S) and

        E_F = (Omega + 1/2) ln(Omega + 1/2) - (Omega - 1/2) ln(Omega - 1/2),

    the von Neumann entropy of either reduced mode, in nats.  The
    Omega -> 1/2 limit is taken continuously, so E_F(0) = 0 exactly.
    Raises ``DomainError`` where E_S is positive or not finite.
    """
    if not (-math.inf < e_s <= 0):
        what = f"{e_s} > 0" if 0 < e_s < math.inf else f"{e_s} is not finite"
        raise DomainError(
            f"E_S = {what}: the pure-state Simon functional is finite and never positive; "
            "such a value indicates a broken covariance computation upstream"
        )
    omega = math.sqrt(0.25 - e_s)
    if omega - 0.5 < OMEGA_LIMIT_GUARD:
        return omega, 0.0
    return omega, _formation(omega, math)

