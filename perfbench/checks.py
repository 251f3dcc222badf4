"""Checks of ``ncho`` outputs against ``reference`` and against properties
the method must have.  Each check returns a list of messages, empty when the
output is right.

Tolerances follow the reference's own accuracy, measured over the input
ranges the workloads draw from (see README.md): the reference loses about
eps * sigma1/sigma2, and CSV output keeps 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference

PARAM_KEYS = ("m1", "m2", "alpha1", "alpha2", "theta")

# Relative tolerances against the reference, per analyze quantity.
RTOL = {
    "sigma1": 1e-11, "sigma2": 1e-11, "b": 1e-11, "c": 1e-11, "e00": 1e-11,
    "omega": 1e-11, "e_s_limit": 1e-12, "omega0": 1e-12, "e_f_bound": 1e-12,
    "big_m1": 1e-14, "big_m2": 1e-14, "omega1_sq": 1e-14, "omega2_sq": 1e-14, "r": 1e-14,
}
LAMBDA_TOL = 1e-10  # relative to sqrt(lambda11 * lambda22)
E_S_RTOL, E_S_ATOL = 1e-10, 1e-14
E_F_RTOL, E_F_ATOL = 1e-9, 1e-13
CSV_RTOL = 1e-11  # 12 significant digits


def _bad(name, got, want, tol, where=None) -> list[str]:
    got, want, tol = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (got, want, tol)))
    err = np.abs(got - want)
    bad = ~(err <= tol)  # also catches NaN
    if not bad.any():
        return []
    i = int(np.argmax(np.where(bad, err / np.maximum(tol, 1e-300), -1.0)))
    at = f" at {where[i]}" if where is not None else ""
    return [f"{name}: {bad.sum()} value(s) off, worst {got.flat[i]!r} vs {want.flat[i]!r} (tol {tol.flat[i]:.3g}){at}"]


def exactly_separable(m1, m2, a1, a2, th) -> np.ndarray:
    """theta = 0, or alpha1/m1 = alpha2/m2 holding exactly in floating point."""
    m1, m2, a1, a2, th = (np.asarray(v, dtype=float) for v in (m1, m2, a1, a2, th))
    return (th == 0) | (a1 * m2 == a2 * m1)


def check_reports(params: np.ndarray, reports: list[dict]) -> list[str]:
    """Analyze reports (one per row of ``params``, columns m1 m2 alpha1 alpha2 theta)."""
    if len(reports) != len(params):
        return [f"{len(reports)} reports for {len(params)} points"]
    keys = list(reports[0]) if reports else []
    msgs = []
    for r in reports:
        if list(r) != keys:
            return [f"report keys differ: {list(r)} vs {keys}"]
    col = {k: np.array([r[k] for r in reports], dtype=float) for k in keys}
    m1, m2, a1, a2, th = params.T
    where = [tuple(p) for p in params.tolist()]
    for i, k in enumerate(PARAM_KEYS):
        msgs += _bad(k, col[k], params[:, i], 0.0, where)
    ref = reference.point(m1, m2, a1, a2, th)
    for k, rtol in RTOL.items():
        msgs += _bad(k, col[k], ref[k], rtol * np.abs(ref[k]), where)
    s1, s2 = ref["sigma1"], ref["sigma2"]
    msgs += _bad("d", col["d"], (s1 * s1 - s2 * s2) ** 2, 1e-11 * ref["b"] ** 2, where)
    lam_scale = LAMBDA_TOL * np.sqrt(ref["lambda11"] * ref["lambda22"])
    for k in ("lambda11", "lambda22", "lambda12_imag"):
        msgs += _bad(k, col[k], ref[k], lam_scale, where)
    msgs += _bad("e_s", col["e_s"], ref["e_s"], E_S_RTOL * np.abs(ref["e_s"]) + E_S_ATOL, where)
    msgs += _bad("e_f", col["e_f"], ref["e_f"], E_F_RTOL * np.abs(ref["e_f"]) + E_F_ATOL, where)
    msgs += check_properties(params, col, where)
    sep = exactly_separable(m1, m2, a1, a2, th)
    separable = np.array([r["separable"] for r in reports])
    if (separable != sep).any():
        msgs.append(f"separable verdict wrong at {np.flatnonzero(separable != sep)[:5].tolist()}")
    # On the exactly separable surface E_S, E_F and Lambda12 vanish exactly.
    for k in ("e_s", "e_f", "lambda12_imag"):
        if (col[k][sep] != 0).any():
            msgs.append(f"{k} is not exactly 0 at a separable point")
    return msgs


def check_properties(params: np.ndarray, col: dict, where=None, rtol: float = 1e-11) -> list[str]:
    """Properties every output row must have, whatever the reference says.

    sigma1*sigma2 = 2 sqrt(a1 a2/(m1 m2)), sigma1^2 + sigma2^2 = b (when b
    is reported), Omega^2 = 1/4 - E_S, E_F is the formation entropy at
    that Omega, and e_s_limit <= E_S <= 0 and 0 <= E_F <= e_f_bound.
    """
    m1, m2, a1, a2, th = params.T
    s1, s2 = col["sigma1"], col["sigma2"]
    msgs = _bad("sigma1*sigma2", s1 * s2, 2 * np.sqrt(a1 * a2 / (m1 * m2)), rtol * s1 * s2, where)
    if "b" in col:
        msgs += _bad("sigma1^2+sigma2^2", s1 * s1 + s2 * s2, col["b"], rtol * col["b"], where)
    if (s1 < s2).any():
        msgs.append("sigma1 < sigma2")
    e_s, omega, e_f = col["e_s"], col["omega"], col["e_f"]
    msgs += _bad("omega^2", omega * omega, 0.25 - e_s, rtol * omega * omega, where)
    msgs += _bad("e_f(e_s)", e_f, reference.formation(e_s)[1], 1e-9 * e_f + 1e-13, where)
    e_s_inf, _, e_f_bound = reference.limits(m1, m2, a1, a2)
    if (e_s > 0).any():
        msgs.append(f"E_S > 0 at {np.flatnonzero(e_s > 0)[:5].tolist()}")
    if (e_s < e_s_inf * (1 + rtol) - 1e-15).any():
        msgs.append("E_S below its theta -> infinity limit")
    if (e_f < 0).any() or (e_f > e_f_bound * (1 + rtol) + 1e-15).any():
        msgs.append("E_F outside [0, e_f_bound]")
    return msgs


# -- sweeps -----------------------------------------------------------------

SWEEP_COLUMNS = ("sweep_value", "e_s", "omega", "e_f", "sigma1", "sigma2")


def sweep_params(cfg: dict, values: np.ndarray) -> np.ndarray:
    """Rows m1 m2 alpha1 alpha2 theta of each sweep point, as ``ncho sweep`` defines them."""
    n = len(values)
    if cfg["kind"] == "theta":
        return np.column_stack([np.full(n, cfg["m1"]), np.full(n, cfg["m2"]),
                                np.full(n, cfg["alpha1"]), np.full(n, cfg["alpha2"]), values])
    # alpha1*alpha2 = product with (alpha1/m1)/(alpha2/m2) = value.
    a1 = np.sqrt(cfg["product"] * values * cfg["m1"] / cfg["m2"])
    return np.column_stack([np.full(n, cfg["m1"]), np.full(n, cfg["m2"]), a1,
                            cfg["product"] / a1, np.full(n, cfg["theta"])])


def check_sweep_csv(text: str, cfg: dict) -> list[str]:
    """A ``ncho sweep --format csv`` output against the reference at every row."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
        return [f"bad CSV header {rows[:1]}"]
    try:
        data = np.array(rows[1:], dtype=float)
    except ValueError as exc:
        return [f"unparsable CSV row: {exc}"]
    if data.shape != (cfg["steps"], len(SWEEP_COLUMNS)):
        return [f"CSV shape {data.shape}, expected ({cfg['steps']}, {len(SWEEP_COLUMNS)})"]
    col = dict(zip(SWEEP_COLUMNS, data.T))
    i = np.arange(cfg["steps"])
    values = cfg["start"] + (cfg["stop"] - cfg["start"]) * i / (cfg["steps"] - 1)
    msgs = _bad("sweep_value", col["sweep_value"], values, CSV_RTOL * np.abs(values) + 1e-300)
    params = sweep_params(cfg, values)
    where = [f"row {k}" for k in i]
    ref = reference.point(*params.T)
    for k in ("sigma1", "sigma2", "omega"):
        msgs += _bad(k, col[k], ref[k], CSV_RTOL * np.abs(ref[k]), where)
    msgs += _bad("e_s", col["e_s"], ref["e_s"], (E_S_RTOL + CSV_RTOL) * np.abs(ref["e_s"]) + E_S_ATOL, where)
    msgs += _bad("e_f", col["e_f"], ref["e_f"], (E_F_RTOL + CSV_RTOL) * np.abs(ref["e_f"]) + E_F_ATOL, where)
    msgs += check_properties(params, col, where, rtol=4 * CSV_RTOL)
    sep = exactly_separable(*params.T)
    if (col["e_s"][sep] != 0).any() or (col["e_f"][sep] != 0).any():
        msgs.append("E_S or E_F is not exactly 0 at a separable row")
    if cfg["kind"] == "theta":
        e_f = col["e_f"]
        drop = e_f[:-1] - e_f[1:]
        if (drop > 2 * CSV_RTOL * e_f[:-1]).any():
            msgs.append(f"E_F decreases along the theta sweep at row {int(np.argmax(drop)) + 1}")
    return msgs


# -- spectrum and validate ----------------------------------------------------


def check_spectrum(levels: list, params: tuple, n_max: int) -> list[str]:
    """``ncho spectrum`` JSON: every (n1, n2) up to n_max once, sorted, E = s1(n1+1/2) + s2(n2+1/2)."""
    want = {(a, b) for a in range(n_max + 1) for b in range(n_max + 1)}
    got = [(lv["n1"], lv["n2"]) for lv in levels]
    if len(got) != len(want) or set(got) != want:
        return [f"levels {sorted(got)[:4]}... do not cover 0..{n_max} once each"]
    s1, s2 = (v[0] for v in reference.mode_frequencies(reference.h_matrix(*params)[None]))
    n1 = np.array([a for a, _ in got], dtype=float)
    n2 = np.array([b for _, b in got], dtype=float)
    energy = np.array([lv["energy"] for lv in levels], dtype=float)
    want_e = s1 * (n1 + 0.5) + s2 * (n2 + 0.5)
    msgs = _bad("energy", energy, want_e, RTOL["sigma1"] * want_e)
    if (np.diff(energy) < 0).any():
        msgs.append("levels not sorted by energy")
    return msgs


def check_validation(report, failing: frozenset = frozenset()) -> list[str]:
    """A ``run_validation`` report: finite, non-negative residuals, exactly the
    checks in ``failing`` at or above their thresholds, and a verdict that
    agrees with them."""
    t = report.thresholds
    values = {
        "eigen_residual": (report.eigen_residual, t.eigen),
        "schrodinger_residual": (report.schrodinger_residual, t.schrodinger),
        "moment_max_err": (report.moment_max_err, t.moments),
        "es_spread": (report.es_spread, t.es_spread),
    }
    msgs = [f"{k} = {v!r} is not finite and >= 0" for k, (v, _) in values.items()
            if not (math.isfinite(v) and v >= 0)]
    above = {k for k, (v, lim) in values.items() if not v < lim}
    if above != set(failing):
        msgs.append(f"checks above threshold {sorted(above)}, expected {sorted(failing)}: {values}")
    if report.passed != (not above):
        msgs.append(f"passed={report.passed} disagrees with the residuals {values}")
    return msgs
