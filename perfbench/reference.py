"""Reference values computed without importing ``ncho``.

Everything here starts from the paper's Hamiltonian
H = P1^2/2m1 + P2^2/2m2 + alpha1*X1^2 + alpha2*X2^2 and its Bopp
substitution X1 = x1 - theta*p2/2, X2 = x2 + theta*p1/2, which makes H a
quadratic form H = xi^T h xi / 2 in xi = (x1, p1, x2, p2).  From h:

* the mode frequencies sigma1 >= sigma2 are the moduli of the eigenvalues
  of J h (Williamson's theorem);
* the ground-state covariance, V_ij = <{xi_i, xi_j}>/2, is
  V = h^{-1/2} |h^{1/2} J h^{1/2}| h^{-1/2} / 2;
* Simon's functional E_S comes from the blocks of V, and E_F from
  Omega = sqrt(1/4 - E_S).

The route shares no formula with the package's closed forms, so agreement
is evidence for both.  All functions take numpy arrays of parameters and
work on every point at once.
"""

from __future__ import annotations

import numpy as np

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J = np.kron(np.eye(2), _J2)


def h_matrix(m1, m2, a1, a2, th) -> np.ndarray:
    """Quadratic-form matrices (n, 4, 4) in the basis (x1, p1, x2, p2).

    alpha1*X1^2 = alpha1*(x1^2 - theta*x1*p2 + theta^2*p2^2/4) and
    alpha2*X2^2 = alpha2*(x2^2 + theta*x2*p1 + theta^2*p1^2/4).
    """
    m1, m2, a1, a2, th = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (m1, m2, a1, a2, th)))
    h = np.zeros(m1.shape + (4, 4))
    h[..., 0, 0] = 2 * a1
    h[..., 1, 1] = 1 / m1 + a2 * th**2 / 2
    h[..., 2, 2] = 2 * a2
    h[..., 3, 3] = 1 / m2 + a1 * th**2 / 2
    h[..., 0, 3] = h[..., 3, 0] = -a1 * th
    h[..., 1, 2] = h[..., 2, 1] = a2 * th
    return h


def _balance(h: np.ndarray) -> np.ndarray:
    """Local symplectic scalings diag(s1, 1/s1, s2, 1/s2) that equalise the
    x and p diagonal entries of each mode; they leave the spectrum and E_S
    unchanged and improve the conditioning of h."""
    s1 = (h[..., 1, 1] / h[..., 0, 0]) ** 0.25
    s2 = (h[..., 3, 3] / h[..., 2, 2]) ** 0.25
    return np.stack([s1, 1 / s1, s2, 1 / s2], axis=-1)


def _sym_power(a: np.ndarray, p: float) -> np.ndarray:
    w, u = np.linalg.eigh(a)
    return (u * w[..., None, :] ** p) @ np.swapaxes(u, -1, -2)


def mode_frequencies(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma1 >= sigma2: each modulus occurs twice among the eigenvalues of J h."""
    d = _balance(h)
    hb = h * d[..., :, None] * d[..., None, :]
    mods = np.sort(np.abs(np.linalg.eigvals(J @ hb)), axis=-1)
    return (mods[..., 2] + mods[..., 3]) / 2, (mods[..., 0] + mods[..., 1]) / 2


def covariance(h: np.ndarray) -> np.ndarray:
    """Ground-state covariance V = h^{-1/2} |h^{1/2} J h^{1/2}| h^{-1/2} / 2."""
    d = _balance(h)
    hb = h * d[..., :, None] * d[..., None, :]
    root = _sym_power(hb, 0.5)
    inv_root = _sym_power(hb, -0.5)
    # i*X is Hermitian with eigenvalues +-sigma; |X| takes their moduli.
    # Working on i*X rather than X^T X keeps the relative error of the small
    # sigma at eps*sigma1/sigma2 instead of its square.
    w, u = np.linalg.eigh(1j * (root @ J @ root))
    abs_x = ((u * np.abs(w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))).real
    vb = inv_root @ abs_x @ inv_root / 2
    vb = (vb + np.swapaxes(vb, -1, -2)) / 2
    # Undo the balancing: V = D V_b D.
    return vb * d[..., :, None] * d[..., None, :]


def simon_es(v: np.ndarray) -> np.ndarray:
    """Simon's separability functional of the covariance blocks A, B, C:

    det A det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J) - (det A + det B)/4.

    Each mode is first brought to its local normal form A = a*I, B = b*I by
    the symplectic maps (det A)^{1/4} A^{-1/2}; the functional is invariant
    under them, and the normal form keeps its terms of order one, so they
    cancel without losing the small result.
    """
    a = v[..., :2, :2]
    b = v[..., 2:, 2:]
    c = v[..., :2, 2:]
    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    sa = _sym_power(a, -0.5) * det_a[..., None, None] ** 0.25
    sb = _sym_power(b, -0.5) * det_b[..., None, None] ** 0.25
    cn = sa @ c @ sb
    na, nb = np.sqrt(det_a), np.sqrt(det_b)
    # With A = a*I and B = b*I the trace term is -a*b*|C|_F^2.
    return (
        det_a * det_b
        + (0.25 - np.abs(np.linalg.det(cn))) ** 2
        - na * nb * np.sum(cn * cn, axis=(-2, -1))
        - (det_a + det_b) / 4
    )


def formation(e_s) -> tuple[np.ndarray, np.ndarray]:
    """Omega = sqrt(1/4 - E_S) and E_F = (O+1/2)ln(O+1/2) - (O-1/2)ln(O-1/2)."""
    omega = np.sqrt(0.25 - np.minimum(np.asarray(e_s, dtype=float), 0.0))
    t = omega - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        e_f = (omega + 0.5) * np.log(omega + 0.5) - np.where(t > 0, t * np.log(t), 0.0)
    return omega, e_f


def limits(m1, m2, a1, a2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta -> infinity values of E_S, Omega and E_F (the paper's saturation)."""
    x = np.sqrt(np.asarray(a1, dtype=float) * m2)
    y = np.sqrt(np.asarray(a2, dtype=float) * m1)
    e_s_inf = -((x - y) ** 2) / (16 * x * y)
    omega0 = np.sqrt(0.25 - e_s_inf)
    return (e_s_inf, omega0) + (formation(e_s_inf)[1],)


def point(m1, m2, a1, a2, th) -> dict[str, np.ndarray]:
    """Every analyze quantity the reference can give, as arrays over the points."""
    h = h_matrix(m1, m2, a1, a2, th)
    s1, s2 = mode_frequencies(h)
    v = covariance(h)
    e_s = simon_es(v)
    omega, e_f = formation(e_s)
    e_s_inf, omega0, e_f_bound = limits(m1, m2, a1, a2)
    # psi ~ exp(-x^T Lambda x / 2) with Lambda12 imaginary gives
    # <x_i^2> = 1/(2 Lambda_ii) and <{x1, p2}>/2 = -Im(Lambda12) <x1^2>.
    lam11 = 1 / (2 * v[..., 0, 0])
    return {
        "sigma1": s1,
        "sigma2": s2,
        "b": s1**2 + s2**2,
        "c": (s1 * s2) ** 2,
        "e00": (s1 + s2) / 2,
        "lambda11": lam11,
        "lambda22": 1 / (2 * v[..., 2, 2]),
        "lambda12_imag": -2 * lam11 * v[..., 0, 3],
        "e_s": e_s,
        "omega": omega,
        "e_f": e_f,
        "e_s_limit": e_s_inf,
        "omega0": omega0,
        "e_f_bound": e_f_bound,
        "big_m1": 1 / h[..., 1, 1],
        "big_m2": 1 / h[..., 3, 3],
        "omega1_sq": h[..., 0, 0] * h[..., 1, 1],
        "omega2_sq": h[..., 2, 2] * h[..., 3, 3],
        "r": (np.asarray(a1, dtype=float) / m1) / (np.asarray(a2, dtype=float) / m2),
    }
