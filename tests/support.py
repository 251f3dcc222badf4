"""Shared helpers for the test suite."""

import math

import numpy as np

from ncho import CovarianceBlocks, OscillatorParams, TwoModeGaussian

FIG1_PARAMS = dict(m1=1.0, m2=1.0, alpha1=5.0, alpha2=10.0)


def fig1(theta: float) -> OscillatorParams:
    return OscillatorParams(theta=theta, **FIG1_PARAMS)


def random_params(rng, theta_low=0.0, theta_high=5.0) -> OscillatorParams:
    return OscillatorParams(
        m1=rng.uniform(0.1, 10.0),
        m2=rng.uniform(0.1, 10.0),
        alpha1=rng.uniform(0.1, 10.0),
        alpha2=rng.uniform(0.1, 10.0),
        theta=rng.uniform(theta_low, theta_high),
    )


def random_state(rng, cross_fraction=0.8) -> TwoModeGaussian:
    """A valid random two-mode Gaussian with complex coefficients."""
    a1 = rng.uniform(0.3, 3.0)
    b1 = rng.uniform(0.3, 3.0)
    g1 = cross_fraction * math.sqrt(a1 * b1) * rng.uniform(-1.0, 1.0)
    return TwoModeGaussian(
        alpha=complex(a1, rng.uniform(-1.0, 1.0)),
        beta=complex(b1, rng.uniform(-1.0, 1.0)),
        gamma=complex(g1, rng.uniform(-1.0, 1.0)),
    )


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
