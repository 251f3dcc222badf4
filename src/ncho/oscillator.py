"""Anisotropic harmonic oscillator on a noncommutative plane.

The model starts from H = P1^2/2m1 + P2^2/2m2 + alpha1*X1^2 + alpha2*X2^2
with [X1, X2] = i*theta.  A Bopp shift (X1 = x1 - theta*p2/2,
X2 = x2 + theta*p1/2) maps it onto canonical variables, where it becomes a
coupled quadratic Hamiltonian with effective masses M1, M2 and a
theta-dependent cross term.  This module provides:

* the Bopp-shifted canonical parameters,
* the quadratic-form matrix and the dynamical matrix of the equations of
  motion,
* the normal-mode frequencies sigma1 >= sigma2 and the energy levels,
* the ground-state Gaussian exponent matrix in closed form,
* the closed-form Simon functional and the theta -> infinity bounds.

Everything is in hbar = 1 units; theta carries dimension length^2 but all
inputs are treated as plain numbers.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import gaussian
from .errors import DomainError, NumericRangeError
from .gaussian import _HUGE, TwoModeGaussian, _number, _shown

if TYPE_CHECKING:
    import numpy as np

#: What the float path passes as ``xp`` to the closed-form helpers below, which
#: the array path calls with numpy.  These two-float minimum and maximum are
#: several times faster than the builtins and, like numpy's, keep a NaN in
#: the first argument.
_FLOAT_OPS = SimpleNamespace(
    sqrt=math.sqrt,
    minimum=lambda a, b: b if b < a else a,
    maximum=lambda a, b: b if b > a else a,
)

#: The smallest positive normal float; below it a quotient loses precision.
_TINY = sys.float_info.min


class OscillatorParams(namedtuple("OscillatorParams", "m1 m2 alpha1 alpha2 theta")):
    """Physical inputs: masses, potential stiffnesses and the deformation.

    The stiffnesses enter the Hamiltonian as alpha_i * X_i^2, i.e.
    alpha_i = m_i * omega_i^2 / 2 for the commutative oscillator.  Each field
    is stored as a Python float, from a float, int, ``Fraction``, ``Decimal``
    or numpy scalar; strings and ints beyond the float range are refused.
    """

    __slots__ = ()

    def __new__(cls, m1, m2, alpha1, alpha2, theta):
        given = (m1, m2, alpha1, alpha2, theta)
        # Five floats, as the package passes, need no conversion.  The type test comes
        # first: NEP 50 would compare a numpy float32 with _HUGE in float32, and warn.
        if not type(m1) is type(m2) is type(alpha1) is type(alpha2) is type(theta) is float:
            m1, m2, alpha1, alpha2, theta = map(_number, given, [float] * 5)  # NaN fails below
        if (
            0 < m1 <= _HUGE and 0 < m2 <= _HUGE and 0 < alpha1 <= _HUGE
            and 0 < alpha2 <= _HUGE and 0 <= theta <= _HUGE
        ):
            return tuple.__new__(cls, (m1, m2, alpha1, alpha2, theta))
        for name, v, f in zip(cls._fields, given, (m1, m2, alpha1, alpha2)):
            if not (0 < f <= _HUGE):
                raise DomainError(f"{name} must be positive and finite, got {_shown(v)}")
        raise DomainError(f"theta must be nonnegative and finite, got {_shown(given[4])}")

    # namedtuple's own _make, which _replace calls, would skip these checks.
    _make = classmethod(lambda cls, values: cls(*values))


# The functions below build these results by position with tuple.__new__;
# where a type's constructor checks its fields, the function has made that
# check itself.
CanonicalSystem = namedtuple("CanonicalSystem", "big_m1 big_m2 omega1_sq omega2_sq")
CanonicalSystem.__doc__ = "Bopp-shifted effective masses and squared frequencies."


ModeSpectrum = namedtuple("ModeSpectrum", "b c d sigma1 sigma2")
ModeSpectrum.__doc__ = "Characteristic quartic lambda^4 + b*lambda^2 + c and its mode frequencies."


AsymptoticBounds = namedtuple("AsymptoticBounds", "e_s_limit omega0 e_f_bound")
AsymptoticBounds.__doc__ = "theta -> infinity limits: E_S limit, Omega bound and the E_F bound."


def _canonical(m1, m2, alpha1, alpha2, th2) -> CanonicalSystem:
    """The Bopp shift (see ``bopp_shift``) on floats or arrays; th2 = theta^2."""
    inv_m1 = 1.0 / m1 + alpha2 * th2 / 2.0
    inv_m2 = 1.0 / m2 + alpha1 * th2 / 2.0
    return tuple.__new__(
        CanonicalSystem, (1.0 / inv_m1, 1.0 / inv_m2, 2.0 * alpha1 * inv_m1, 2.0 * alpha2 * inv_m2)
    )


def bopp_shift(params: OscillatorParams) -> CanonicalSystem:
    """Effective masses and frequencies of the canonical Hamiltonian.

    1/M1 = 1/m1 + alpha2*theta^2/2, 1/M2 = 1/m2 + alpha1*theta^2/2 and
    omega_i^2 = 2*alpha_i/M_i.  Positivity is automatic for valid inputs.
    """
    p = params
    return _canonical(p.m1, p.m2, p.alpha1, p.alpha2, p.theta * p.theta)


def build_h_matrix(params: OscillatorParams) -> np.ndarray:
    """Symmetric quadratic-form matrix in the basis (x1, p1, x2, p2).

    H = X^T h X / 2 with diagonal (M1*w1^2, 1/M1, M2*w2^2, 1/M2) and
    couplings -theta*alpha1 at (x1, p2) and +theta*alpha2 at (p1, x2).
    """
    import numpy as np

    c = bopp_shift(params)
    ta1 = params.theta * params.alpha1
    ta2 = params.theta * params.alpha2
    return np.array(
        [
            [c.big_m1 * c.omega1_sq, 0.0, 0.0, -ta1],
            [0.0, 1.0 / c.big_m1, ta2, 0.0],
            [0.0, ta2, c.big_m2 * c.omega2_sq, 0.0],
            [-ta1, 0.0, 0.0, 1.0 / c.big_m2],
        ]
    )


def build_omega_matrix(params: OscillatorParams) -> np.ndarray:
    """Dynamical matrix of the Heisenberg equations, i*Sigma_y*h.

    i*Sigma_y = diag([[0, 1], [-1, 0]], [[0, 1], [-1, 0]]) swaps the rows
    of h (see ``build_h_matrix``) in pairs and negates the second row of
    each pair.  The 16 entries are written out as one array; a negated
    entry is 0.0 - v, so that a zero stays +0.0, as the matrix product gives.
    """
    import numpy as np

    c = bopp_shift(params)
    ta1 = params.theta * params.alpha1
    ta2 = params.theta * params.alpha2
    return np.array((
        0.0, 1.0 / c.big_m1, ta2, 0.0,
        0.0 - c.big_m1 * c.omega1_sq, 0.0, 0.0, ta1,
        0.0 - ta1, 0.0, 0.0, 1.0 / c.big_m2,
        0.0, 0.0 - ta2, 0.0 - c.big_m2 * c.omega2_sq, 0.0,
    )).reshape(4, 4)


def _quartic_b(alpha1, alpha2, th2, canon: CanonicalSystem):
    """b of the quartic lambda^4 + b*lambda^2 + c, on floats or arrays."""
    return canon.omega1_sq + canon.omega2_sq + 2 * th2 * alpha1 * alpha2


def _quartic_p_q_d(m1, m2, alpha1, alpha2, th2):
    """p, q and the discriminant D = b^2 - 4c of the quartic, on floats or arrays.

    With p = 2*alpha1/m1, q = 2*alpha2/m2 and s = 4*theta^2*alpha1*alpha2,
    b = p + q + s and c = p*q, so D = (p - q)^2 + s*(2p + 2q + s): a sum of
    nonnegative terms, which neither cancels nor goes negative near the
    degenerate point p = q, s = 0.  ``mode_spectrum`` checks the range
    only after this runs, so no step may raise ``OverflowError``:
    (p - q) * (p - q) gives inf past the range, where the float ``**`` raises.
    """
    p = 2.0 * alpha1 / m1
    q = 2.0 * alpha2 / m2
    s = th2 * alpha1 * alpha2 * 4.0
    return p, q, (p - q) * (p - q) + s * (2 * p + 2 * q + s)


def _mode_frequencies(b, p, q, d, xp):
    """sigma1 = sqrt((b + sqrt(D))/2) and sigma2 = min(sqrt(p)*sqrt(q)/sigma1, sigma1).

    sigma2 comes from the root product sqrt(c): sqrt((b - sqrt(D))/2)
    cancels badly when c << b^2, while sqrt(p)*sqrt(q) carries no
    cancellation and, unlike c = p*q, no underflow.  The cap keeps
    sigma2 <= sigma1 where the two roundings break it by an ulp.
    """
    sigma1 = xp.sqrt((b + xp.sqrt(d)) / 2)
    return sigma1, xp.minimum(xp.sqrt(p) * xp.sqrt(q) / sigma1, sigma1)


def mode_spectrum(params: OscillatorParams) -> ModeSpectrum:
    """Normal-mode frequencies from the characteristic quartic.

    sigma_{1,2} = sqrt((b +- sqrt(D))/2) with D = b^2 - 4c, which is never
    negative.  Raises ``NumericRangeError`` when theta is so large that b^2
    overflows, or where sigma1 or sigma2 underflows to 0.
    """
    p = params
    th2 = p.theta * p.theta
    b = _quartic_b(p.alpha1, p.alpha2, th2, bopp_shift(p))
    pp, qq, d = _quartic_p_q_d(p.m1, p.m2, p.alpha1, p.alpha2, th2)
    try:
        sigma1, sigma2 = _mode_frequencies(b, pp, qq, d, _FLOAT_OPS)
    except ZeroDivisionError:  # sigma1 underflowed to 0
        sigma1 = sigma2 = 0.0
    _require_spectrum(b, sigma1, sigma2, params)
    return tuple.__new__(ModeSpectrum, (b, pp * qq, d, sigma1, sigma2))


def _require_spectrum(b, sigma1, sigma2, params) -> None:
    """Raise ``NumericRangeError`` where b^2 overflows or sigma2 is not positive.

    sigma2 is never above sigma1, and where sigma1 underflows to 0 it is 0
    or NaN, so its test covers both frequencies; the message names sigma1
    where that is the one that underflowed.
    """
    if not math.isfinite(b * b):  # b * b: inf, not OverflowError
        raise NumericRangeError(f"quartic coefficient b = {b} overflows b^2 for params {params}")
    if not sigma2 > 0:
        name = "sigma2" if sigma1 > 0 else "sigma1"
        raise NumericRangeError(f"mode frequency {name} underflows to 0 for params {params}")


def energy_level(spectrum: ModeSpectrum, n1: int, n2: int) -> float:
    """E(n1, n2) = sigma1*(n1 + 1/2) + sigma2*(n2 + 1/2).

    Raises ``NumericRangeError`` where E is not a finite float.  Neither
    error prints the quantum numbers: an int of thousands of digits cannot
    be converted to a string.
    """
    if not (n1 >= 0 and n2 >= 0 and n1 % 1 == 0 and n2 % 1 == 0):  # NaN and inf fail too
        raise DomainError("quantum numbers must be nonnegative integers")
    try:
        energy = spectrum.sigma1 * (n1 + 0.5) + spectrum.sigma2 * (n2 + 0.5)
    except OverflowError:  # an int quantum number beyond the float range
        energy = math.inf
    if not math.isfinite(energy):
        raise NumericRangeError(
            f"energy level overflows the float range (sigma1 = {spectrum.sigma1}, "
            f"sigma2 = {spectrum.sigma2})"
        )
    return energy


def ground_state_lambda_closed(
    params: OscillatorParams, spectrum: ModeSpectrum
) -> TwoModeGaussian:
    """The ground state psi00 ~ exp(-x^T Lambda x / 2), Lambda in closed form.

    The result is the ``TwoModeGaussian`` with alpha = L11, beta = L22 and
    gamma = L12 = L21: L11 and L22 are real and positive, and L12 is purely
    imaginary and carries all the entanglement.

    The quartic constant c = 4*a1*a2/(m1*m2) has the positive factors
    c1 = w2^2 - th^2 (M1/M2) a2^2 and c2 = w1^2 - th^2 (M2/M1) a1^2, with
    sigma1*sigma2 = sqrt(c1*c2) for every theta.  Substituting 1/M1 and
    1/M2 turns the differences, which cancel at large theta, into the
    products c1 = 2 a2 M1/(m1 M2) and c2 = 2 a1 M2/(m2 M1) used here.
    With them the printed expressions

        L11 = M1 M2 s1 s2 (s1+s2) / [M2(w2^2 + s1 s2) - th^2 M1 a2^2]
        L22 = M2 (M2 w2^2 - M1 th^2 a2^2)(s1+s2) / [...]
        L12 = i M2 (th^3 M1 a2^2 a1 - th M2 a1 w2^2 + th M1 a2 s1 s2) / [...]

    simplify (exactly) to

        L11 = M1 sqrt(c2) (s1+s2) / (sqrt(c1)+sqrt(c2))
        L22 = M2 sqrt(c1) (s1+s2) / (sqrt(c1)+sqrt(c2))
        L12 = 2i sqrt(x y) t (y - x) / ((x + y) (2 + t^2))

    with x = sqrt(a1 m2), y = sqrt(a2 m1) and t = theta sqrt(x y), which
    are used here: they avoid catastrophic cancellation, and L12 vanishes
    identically on the separable surface a1 m2 = a2 m1.  In L12 every
    factor but sqrt(x y) is at most 1 (over t^2 once t > 1), so it leaves
    the float range only where its value does.  Raises
    ``NumericRangeError`` where L11, L22, a1 m2 or a2 m1 is not a positive
    float, or where a denominator of L11 or L22 underflows to 0.
    """
    canon = bopp_shift(params)
    try:
        ratio = canon.big_m1 / canon.big_m2
        c1 = 2 * params.alpha2 * ratio / params.m1
        c2 = 2 * params.alpha1 / (params.m2 * ratio)
        r1, r2 = math.sqrt(c1), math.sqrt(c2)
        sig_sum = spectrum.sigma1 + spectrum.sigma2
        lam11 = canon.big_m1 * r2 * sig_sum / (r1 + r2)
        lam22 = canon.big_m2 * r1 * sig_sum / (r1 + r2)
    except ZeroDivisionError:  # m2*M1/M2 or sqrt(c1) + sqrt(c2) underflowed to 0
        lam11 = lam22 = 0.0  # which the range check below rejects
    xx, yy = params.alpha1 * params.m2, params.alpha2 * params.m1
    if not (
        0 < lam11 < math.inf and 0 < lam22 < math.inf and 0 < xx < math.inf and 0 < yy < math.inf
    ):
        raise NumericRangeError(f"ground-state exponents leave the float range for params {params}")
    x, y = math.sqrt(xx), math.sqrt(yy)
    root = math.sqrt(x) * math.sqrt(y)
    t = params.theta * root
    cross = 1.0 / (params.theta + 2.0 / (t * root)) if t > 1.0 else root * t / (2.0 + t * t)
    # The + 0.0 turns -0.0 (theta = 0 with y < x) into 0.0: under C99
    # mixed-mode rules 2j * -0.0 has the imaginary part -0.0.
    lam12 = 2j * ((y - x) / (x + y) * cross + 0.0)
    # The range check above gives Re alpha > 0 and Re beta > 0, and gamma =
    # 2j * (finite real) has Re gamma = 0: all that TwoModeGaussian checks.
    return tuple.__new__(TwoModeGaussian, (lam11, lam22, lam12))


def _simon(m1, m2, alpha1, alpha2, theta, xp):
    """E_S (see ``es_closed_form``) on floats or arrays.

    With x = sqrt(a1 m2), y = sqrt(a2 m1), u = ((x - y)/(x + y))^2,
    q = x y/(x + y)^2 and z = theta^2 x y, E_S = -(u/8) z/(1 + 2 q z),
    evaluated as -(u/8)/(1/z + 2 q) once z > 1.  No intermediate
    overflows: z = inf gives the theta -> infinity limit -u/(16 q).
    """
    x = xp.sqrt(alpha1 * m2)
    y = xp.sqrt(alpha2 * m1)
    s = x + y
    w = (x - y) / s
    q = (x / s) * (y / s)
    z = theta * (theta * (x * y))
    z_low = xp.minimum(z, 1.0)
    return -(w * w / 8) * z_low / (1.0 / xp.maximum(z, 1.0) + 2 * q * z_low)


def es_closed_form(params: OscillatorParams) -> float:
    """Simon functional of the ground state, directly from the inputs.

    E_S = -(theta^2/8) sqrt(a1 m2 a2 m1) (sqrt(a1 m2) - sqrt(a2 m1))^2
          / [2 theta^2 a1 m2 a2 m1 + (sqrt(a1 m2) + sqrt(a2 m1))^2]

    Never positive; zero exactly when theta = 0 or a1/m1 = a2/m2, and
    finite for every theta.  Raises ``NumericRangeError`` where a1 m2 or
    a2 m1 leaves the float range so far that E_S is not finite.
    """
    return _simon_float(params, params.theta)


def _simon_float(params: OscillatorParams, theta: float) -> float:
    """``_simon`` on the float path at THETA, which may be inf; raises where E_S is not finite."""
    p = params
    try:
        e_s = _simon(p.m1, p.m2, p.alpha1, p.alpha2, theta, _FLOAT_OPS)
    except ZeroDivisionError:  # sqrt(a1 m2) + sqrt(a2 m1), or 1/z + 2 q, underflowed to 0
        e_s = math.nan
    _require_es(e_s, params)
    return e_s


def _require_es(e_s, params) -> None:
    """Raise ``NumericRangeError`` where E_S, or its theta -> infinity limit, is not finite."""
    if not math.isfinite(e_s):
        raise NumericRangeError(
            f"E_S is not finite: alpha1*m2 or alpha2*m1 leaves the float range for params {params}"
        )


def entanglement_columns(m1, m2, alpha1, alpha2, theta) -> dict[str, np.ndarray]:
    """E_S, Omega, E_F, sigma1 and sigma2 on arrays of inputs, one row per element.

    The inputs broadcast against each other.  Each row is what
    ``es_closed_form``, ``entanglement_of_formation`` and ``mode_spectrum``
    give for ``OscillatorParams(m1, m2, alpha1, alpha2, theta)``: the same
    closed forms, with the same range checks.  If any row fails one, the
    whole call raises the error that the scalar chain, ``mode_spectrum``
    then ``es_closed_form``, raises for the first such row.
    """
    import numpy as np

    inputs = (m1, m2, alpha1, alpha2, theta)
    cols = np.broadcast_arrays(*(np.array(v, dtype=float, ndmin=1) for v in inputs))
    # Each input's valid set is an interval, so checking the column minima
    # and maxima checks every row; a NaN reaches both.
    OscillatorParams(*(v.min() for v in cols))
    OscillatorParams(*(v.max() for v in cols))
    m1, m2, alpha1, alpha2, theta = cols

    # Overflow, 0*inf and E_F's 0*log1p(inf) at Omega = 1/2 are caught by
    # the checks below, or reach the output as they do on the float path,
    # which never warns.
    with np.errstate(all="ignore"):
        th2 = theta * theta
        b = _quartic_b(alpha1, alpha2, th2, _canonical(m1, m2, alpha1, alpha2, th2))
        sigma1, sigma2 = _mode_frequencies(b, *_quartic_p_q_d(m1, m2, alpha1, alpha2, th2), np)
        e_s = _simon(m1, m2, alpha1, alpha2, theta, np)
        bad = ~(np.isfinite(b * b) & (sigma2 > 0) & np.isfinite(e_s))
        if bad.any():
            # The checks' conditions cover this mask, so one of them raises.
            i = int(np.argmax(bad))
            params = OscillatorParams(*(v[i] for v in cols))
            _require_spectrum(float(b[i]), float(sigma1[i]), float(sigma2[i]), params)
            _require_es(float(e_s[i]), params)
        omega = np.sqrt(0.25 - e_s)
        e_f = np.where(omega - 0.5 < gaussian.OMEGA_LIMIT_GUARD, 0.0, gaussian._formation(omega, np))
    return {"e_s": e_s, "omega": omega, "e_f": e_f, "sigma1": sigma1, "sigma2": sigma2}


def asymptotic_bounds(params: OscillatorParams) -> AsymptoticBounds:
    """theta -> infinity limits; the theta field of the input is ignored.

    E_S(inf) = -(1/16) (sqrt(a1 m2) - sqrt(a2 m1))^2 / sqrt(a1 m2 a2 m1),
    Omega0 = (sqrt(a1 m2) + sqrt(a2 m1)) / (4 (a1 m2 a2 m1)^(1/4)), and
    the E_F bound is the formation entropy evaluated at Omega0.
    Omega0^2 = 1/4 - E_S(inf) holds identically.  E_S(inf) is
    ``es_closed_form``'s evaluation at theta = inf, where z = inf and
    ``_simon`` reads -u/(16 q); there is no second formula to round
    differently.  Correctly rounded operations are monotone: past z = 1
    E_S and its limit share every rounding up to fl(1/z + 2 q) >= fl(2 q),
    and below it |E_S| <= u/8 <= u/(16 q), so E_S >= E_S(inf) and
    Omega <= Omega0 hold exactly in floats.  Omega0 and the E_F bound come
    from one ``entanglement_of_formation`` call at E_S(inf).  Raises
    ``NumericRangeError`` where E_S(inf) is not finite.
    """
    e_s_limit = _simon_float(params, math.inf)
    omega0, e_f_bound = gaussian.entanglement_of_formation(e_s_limit)
    return tuple.__new__(AsymptoticBounds, (e_s_limit, omega0, e_f_bound))


def anisotropy_ratio(params: OscillatorParams) -> float:
    """Generalized anisotropy r = (alpha1/m1)/(alpha2/m2); r = 1 iff separable for all theta.

    Where a quotient of that grouping is not a normal float, r is formed
    from the inputs' mantissas, whose quotients cannot leave the float
    range, and their exponents.  Raises ``NumericRangeError`` where r itself
    is not a normal float.
    """
    p = params
    u, v = p.alpha1 / p.m1, p.alpha2 / p.m2
    if _TINY <= u <= _HUGE and _TINY <= v <= _HUGE:
        r = u / v
        if _TINY <= r <= _HUGE:
            return r
    (f1, e1), (f2, e2), (g1, k1), (g2, k2) = map(math.frexp, (p.alpha1, p.alpha2, p.m1, p.m2))
    # The mantissas lie in [1/2, 1), so their quotients and product are normal.
    try:
        r = math.ldexp((f1 / g1) * (g2 / f2), e1 - k1 + k2 - e2)
    except OverflowError:
        r = math.inf
    if not _TINY <= r <= _HUGE:
        why = " (alpha2/m2 underflows to 0)" if v == 0 else ""
        raise NumericRangeError(f"r leaves the float range{why} for params {params}")
    return r
