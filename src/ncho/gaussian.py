"""Pure two-mode Gaussian states and their entanglement.

A state is parametrized by the complex coefficients of its exponent,

    psi(x1, x2) = N0 * exp(-(alpha*x1^2 + beta*x2^2 + 2*gamma*x1*x2)/2),

in hbar = 1 oscillator units.  From these coefficients the module computes
the 2x2 covariance blocks of both modes and their cross correlations, the
Simon separability functional E_S, and the Entanglement of Formation E_F
(in nats).  All functions are pure and all values are immutable after
construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import DomainError, NumericRangeError

if TYPE_CHECKING:
    import numpy as np

#: Below this distance of Omega from 1/2 the x*ln(x) limit branch is taken.
OMEGA_LIMIT_GUARD = 1e-15


class TwoModeGaussian(namedtuple("TwoModeGaussian", "alpha beta gamma")):
    """Exponent coefficients of a normalized two-mode Gaussian.

    Requires Re(alpha) > 0, Re(beta) > 0 and
    Re(alpha)*Re(beta) - Re(gamma)^2 > 0 so the state is square
    integrable.  Where Re(gamma) = 0, as for every closed-form ground
    state, the first two imply the third, and the product, which can
    underflow to 0 for a valid state, is not formed.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma):
        self = tuple.__new__(cls, (alpha, beta, gamma))
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
        return self.alpha.real * self.beta.real - self.gamma.real**2


class CovarianceBlocks(namedtuple("CovarianceBlocks", "a_block b_block c_block")):
    """Second-moment blocks of a two-mode state.

    ``a_block`` and ``b_block`` are the symmetric single-mode blocks
    [[<x^2>, <{x,p}/2>], [<{x,p}/2>, <p^2>]]; ``c_block`` holds the cross
    moments [[<x1 x2>, <x1 p2>], [<x2 p1>, <p1 p2>]], each as a 2x2 float
    array.
    """

    __slots__ = ()

    def __new__(cls, a_block, b_block, c_block):
        import numpy as np

        blocks = []
        for name, block in (("a_block", a_block), ("b_block", b_block), ("c_block", c_block)):
            m = np.asarray(block, dtype=float)
            if m.shape != (2, 2):
                raise DomainError(f"{name} must be a 2x2 matrix, got shape {m.shape}")
            blocks.append(m)
        return tuple.__new__(cls, blocks)

    _make = classmethod(lambda cls, values: cls(*values))  # checked, as above


def covariance_blocks(state: TwoModeGaussian) -> CovarianceBlocks:
    """All ten second moments of the state, in closed form.

    The position moments depend only on the real parts of the exponent
    coefficients; the momentum and mixed moments pick up the imaginary
    parts as well.  Raises ``NumericRangeError`` where a denominator
    underflows to 0.
    """
    import numpy as np

    a1, a2 = state.alpha.real, state.alpha.imag
    b1, b2 = state.beta.real, state.beta.imag
    g1, g2 = state.gamma.real, state.gamma.imag
    d2 = state.delta_sq
    if not 2 * a1 * d2 > 0:  # then 2*d2 > 0 too: no denominator below is 0
        raise NumericRangeError(f"covariance denominators underflow to 0 for {state}")

    x1x1 = b1 / (2 * d2)
    x2x2 = a1 / (2 * d2)
    x1x2 = -g1 / (2 * d2)

    p1p1 = (b1 * (a1 * a1 + a2 * a2) - a1 * (g1 * g1 - g2 * g2) - 2 * a2 * g1 * g2) / (2 * d2)
    p2p2 = (a1 * (b1 * b1 + b2 * b2) - b1 * (g1 * g1 - g2 * g2) - 2 * b2 * g1 * g2) / (2 * d2)
    p1p2 = ((a1 * g1 + a2 * g2) * d2 + (a1 * b2 - g1 * g2) * (a1 * g2 - a2 * g1)) / (2 * a1 * d2)

    # Symmetrized <{x,p}>/2 moments.
    x1p1 = (g1 * g2 - a2 * b1) / (2 * d2)
    x2p2 = (g1 * g2 - a1 * b2) / (2 * d2)
    x1p2 = (g1 * b2 - g2 * b1) / (2 * d2)
    x2p1 = (g1 * a2 - g2 * a1) / (2 * d2)

    return CovarianceBlocks(
        a_block=np.array([[x1x1, x1p1], [x1p1, p1p1]]),
        b_block=np.array([[x2x2, x2p2], [x2p2, p2p2]]),
        c_block=np.array([[x1x2, x1p2], [x2p1, p1p2]]),
    )


def simon_es(cov: CovarianceBlocks) -> float:
    """Simon separability functional from the covariance blocks.

    E_S = det A * det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
          - (det A + det B)/4.

    E_S >= 0 is necessary and sufficient for separability of a bipartite
    Gaussian state; E_S < 0 means entanglement.
    """
    import numpy as np

    j = np.array([[0.0, 1.0], [-1.0, 0.0]])  # 2x2 symplectic unit
    a, b, c = cov.a_block, cov.b_block, cov.c_block
    det_a = float(np.linalg.det(a))
    det_b = float(np.linalg.det(b))
    det_c = float(np.linalg.det(c))
    tr = float(np.trace(a @ j @ c @ j @ b @ j @ c.T @ j))
    e_s = det_a * det_b + (0.25 - abs(det_c)) ** 2 - tr - 0.25 * (det_a + det_b)
    if not math.isfinite(e_s):
        raise NumericRangeError("Simon functional overflowed; covariance entries too large")
    return e_s


def _omega(e_s, xp):
    """Omega = sqrt(1/4 - E_S), on floats (xp = math) or arrays (xp = numpy)."""
    return xp.sqrt(0.25 - e_s)


def _formation(omega, xp):
    """E_F at Omega > 1/2, on floats (xp = math) or arrays (xp = numpy).

    ln(Omega + 1/2) + (Omega - 1/2) ln(1 + 1/(Omega - 1/2)) equals the
    textbook difference of x ln x terms, which cancels to 0 at large Omega.
    """
    t = omega - 0.5
    return xp.log(omega + 0.5) + t * xp.log1p(1 / t)


def _positive_es(e_s: float) -> DomainError:
    return DomainError(
        f"E_S = {e_s} > 0: the pure-state Simon functional is never positive; "
        "a positive value indicates a broken covariance computation upstream"
    )


def entanglement_of_formation(e_s: float) -> tuple[float, float]:
    """(Omega, E_F) from the Simon functional of a pure two-mode Gaussian.

    Omega = sqrt(1/4 - E_S) and

        E_F = (Omega + 1/2) ln(Omega + 1/2) - (Omega - 1/2) ln(Omega - 1/2),

    the von Neumann entropy of either reduced mode, in nats.  The
    Omega -> 1/2 limit is taken continuously, so E_F(0) = 0 exactly.
    """
    if e_s > 0:
        raise _positive_es(e_s)
    omega = _omega(e_s, math)
    if omega - 0.5 < OMEGA_LIMIT_GUARD:
        return omega, 0.0
    return omega, _formation(omega, math)


def formation_columns(e_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``entanglement_of_formation`` on an array of E_S values: (Omega, E_F) arrays.

    The same closed forms and the same limit branch; raises the same
    ``DomainError`` if any E_S is positive.
    """
    import numpy as np

    positive = e_s > 0
    if positive.any():
        raise _positive_es(e_s[positive][0])
    omega = _omega(e_s, np)
    limit = omega - 0.5 < OMEGA_LIMIT_GUARD
    # Omega = 3/2 stands in on the limit rows so the logarithms stay finite;
    # their E_F is then set to 0.
    return omega, np.where(limit, 0.0, _formation(np.where(limit, 1.5, omega), np))

