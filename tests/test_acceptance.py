"""End-to-end acceptance checks.

Each test exercises one headline claim of the package at its stated
tolerance and prints a single PASS/FAIL line so a ``pytest -s`` run reads
as a checklist.
"""

import math
import time

import numpy as np

from ncho import (
    GridSpec,
    OscillatorParams,
    build_omega_matrix,
    covariance_blocks,
    entanglement_of_formation,
    es_closed_form,
    ground_state_lambda_closed,
    mode_spectrum,
    numeric_eigenvalues,
    schrodinger_residual,
    simon_es,
)
from ncho.oracles import moment_max_err
from support import fft_moment_quadrature, fig1, random_params, random_state


def report(number: int, label: str, ok: bool) -> None:
    print(f"acceptance {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def pipeline_es(state) -> float:
    return simon_es(covariance_blocks(state))


def test_01_two_path_es_agreement():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        direct = es_closed_form(p)
        closed = pipeline_es(ground_state_lambda_closed(p, mode_spectrum(p)))
        spread = abs(direct - closed)
        if spread >= 1e-14:  # below that the two paths agree absolutely
            worst = max(worst, spread / max(abs(direct), abs(closed)))
    elapsed = time.perf_counter() - start
    report(1, "two-path E_S agreement", worst < 1e-9 and elapsed < 5.0)


def test_02_separability_iff():
    rng = np.random.default_rng(102)
    ok = True
    # Boundary: theta = 0 with arbitrary anisotropy.
    for _ in range(25):
        p = random_params(rng, theta_high=0.0)
        ok = ok and abs(es_closed_form(p)) < 1e-14
    # Boundary: matched stiffness-to-mass ratios at finite theta.
    for _ in range(25):
        m1 = rng.uniform(0.1, 10.0)
        m2 = rng.uniform(0.1, 10.0)
        a1 = rng.uniform(0.1, 10.0)
        p = OscillatorParams(m1, m2, a1, a1 * m2 / m1, rng.uniform(0.1, 5.0))
        ok = ok and abs(es_closed_form(p)) < 1e-14
    # Interior: both separability conditions fail.
    n = 0
    while n < 200:
        p = random_params(rng, theta_low=0.1)
        x = math.sqrt(p.alpha1 * p.m2)
        y = math.sqrt(p.alpha2 * p.m1)
        if abs(x - y) < 0.05 * max(x, y):
            continue
        n += 1
        ok = ok and es_closed_form(p) < -1e-12
    report(2, "separability iff boundary/interior", ok)


def test_03_theta_sweep_saturation():
    params = [fig1(t) for t in np.linspace(0.0, 10.0, 101)]
    e_f = [entanglement_of_formation(es_closed_form(p))[1] for p in params]
    bound = entanglement_of_formation(
        -(math.sqrt(5) - math.sqrt(10)) ** 2 / (16 * math.sqrt(50))
    )[1]
    ok = e_f[0] == 0.0
    ok = ok and all(b >= a for a, b in zip(e_f, e_f[1:]))
    ok = ok and abs(e_f[-1] - bound) < 0.05 * bound
    # fast initial rise: half the saturation value is reached before theta = 1
    ok = ok and e_f[10] > 0.5 * e_f[-1]
    report(3, "theta sweep monotone saturation", ok)


def test_04_ratio_sweep_symmetry():
    ratios = np.linspace(0.1, 10.0, 100)
    product = 2.0

    def params_at(r):
        a1 = math.sqrt(product * r)
        return OscillatorParams(1.0, 1.0, a1, product / a1, 1.0)

    e_f = {}
    for r in ratios:
        e_f[r] = entanglement_of_formation(es_closed_form(params_at(r)))[1]
    at_one = entanglement_of_formation(es_closed_form(params_at(1.0)))[1]
    ok = at_one < 1e-12
    below = [e_f[r] for r in ratios if r < 1.0 - 1e-9]
    above = [e_f[r] for r in ratios if r > 1.0 + 1e-9]
    ok = ok and all(v > 0 for v in below + above)
    ok = ok and all(a > b for a, b in zip(below, below[1:]))  # decreasing toward 1
    ok = ok and all(b > a for a, b in zip(above, above[1:]))  # increasing past 1
    for r in ratios:
        p = params_at(r)
        swapped = OscillatorParams(p.m2, p.m1, p.alpha2, p.alpha1, p.theta)
        e_f_swap = entanglement_of_formation(es_closed_form(swapped))[1]
        ok = ok and abs(e_f[r] - e_f_swap) < 1e-10
    report(4, "ratio sweep minimum and r<->1/r symmetry", ok)


def test_05_spectrum_oracle():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(500):
        p = random_params(rng)
        s = mode_spectrum(p)
        evals = numeric_eigenvalues(build_omega_matrix(p))
        expected = np.array([-1j * s.sigma1, -1j * s.sigma2, 1j * s.sigma2, 1j * s.sigma1])
        ok = ok and np.abs(evals - expected).max() < 1e-8 * s.sigma1
        ok = ok and abs(s.sigma1**2 + s.sigma2**2 - s.b) < 1e-10 * s.b
        ok = ok and abs(s.sigma1**2 * s.sigma2**2 - s.c) < 1e-10 * s.c
    report(5, "dynamical-matrix spectrum oracle", ok)


def test_06_ground_state_residual():
    p = fig1(1.0)
    state = ground_state_lambda_closed(p, mode_spectrum(p))
    start = time.perf_counter()
    residuals = [
        schrodinger_residual(p, state, GridSpec(extent=6.0, points_per_axis=n))
        for n in (65, 129, 257)
    ]
    elapsed = time.perf_counter() - start
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    ok = residuals[-1] < 5e-3
    ok = ok and all(abs(o - 2.0) < 0.2 for o in orders)
    ok = ok and elapsed < 30.0
    report(6, "Schrodinger residual with O(h^2) convergence", ok)


def test_07_covariance_quadrature():
    rng = np.random.default_rng(107)
    grid = GridSpec(extent=8.0, points_per_axis=96)
    ok = True
    for _ in range(50):
        state = random_state(rng)
        err = moment_max_err(covariance_blocks(state), fft_moment_quadrature(state, grid))
        ok = ok and err < 1e-9
    report(7, "covariance closed forms vs quadrature", ok)


def test_08_isotropic_null_result():
    ok = True
    for m, a in ((1.0, 3.0), (2.5, 0.7), (0.4, 9.0)):
        for theta in (0.1, 1.0, 10.0):
            p = OscillatorParams(m, m, a, a, theta)
            state = ground_state_lambda_closed(p, mode_spectrum(p))
            ok = ok and abs(state.gamma) < 1e-14 * state.alpha
            e_f = entanglement_of_formation(es_closed_form(p))[1]
            ok = ok and abs(e_f) < 1e-14
    report(8, "isotropic case stays unentangled", ok)
