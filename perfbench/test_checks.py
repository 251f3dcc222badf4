"""The benchmark's output checks accept ncho's outputs and reject corrupted ones.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import worker
from ncho import OscillatorParams, cli, oracles

HERE = Path(__file__).resolve().parent
FIG1 = (1.0, 1.0, 5.0, 10.0, 1.0)
POINTS = [FIG1, (0.3, 2.0, 0.7, 4.0, 0.2), (1.0, 1.0, 5.0, 10.0, 0.0), (0.5, 2.0, 1.5, 6.0, 3.0)]


def reports(points):
    return [cli.analyze_report(OscillatorParams(*p)) for p in points]


def test_reference_matches_paper_identities():
    m1, m2, a1, a2, th = np.array(POINTS).T
    ref = reference.point(m1, m2, a1, a2, th)
    np.testing.assert_allclose(ref["sigma1"] * ref["sigma2"], 2 * np.sqrt(a1 * a2 / (m1 * m2)), rtol=1e-13)
    h = reference.h_matrix(m1, m2, a1, a2, th)
    # sigma1^2 + sigma2^2 = -tr((J h)^2)/2.
    b = -np.trace(reference.J @ h @ reference.J @ h, axis1=-2, axis2=-1) / 2
    np.testing.assert_allclose(ref["b"], b, rtol=1e-13)
    assert (ref["e_s"] <= 1e-15).all()
    assert abs(ref["e_s"][2]) < 1e-15  # theta = 0
    assert ref["e_s"][0] == pytest.approx(-0.0058714, rel=1e-4)  # the README's Fig. 1 value


def test_analyze_outputs_pass():
    assert checks.check_reports(np.array(POINTS), reports(POINTS)) == []


NUMERIC_KEYS = [k for k, v in reports([FIG1])[0].items() if isinstance(v, float)]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_analyze_rejects_each_corrupted_value(key):
    good = reports(POINTS)
    for row in range(len(POINTS)):
        bad = copy.deepcopy(good)
        v = bad[row][key]
        bad[row][key] = v * (1 + 1e-6) if v != 0 else 1e-6
        assert checks.check_reports(np.array(POINTS), bad), (key, row)


def test_analyze_rejects_wrong_verdict_and_nan():
    bad = reports(POINTS)
    bad[2]["separable"] = False
    assert checks.check_reports(np.array(POINTS), bad)
    bad = reports(POINTS)
    bad[0]["e_f"] = float("nan")
    assert checks.check_reports(np.array(POINTS), bad)


def test_exactly_separable_inputs_are_generated():
    pts = np.array(worker.analyze_points(worker.random.Random(3), 64))
    sep = checks.exactly_separable(*pts.T)
    assert sep.sum() == 8 and (pts[:, 4] == 0).sum() == 4
    assert checks.check_reports(pts, reports(pts.tolist())) == []


def sweep_text(tmp_path, cfg):
    out = tmp_path / "sweep.csv"
    argv = ["sweep"] + [a for k in ("kind", "start", "stop", "steps", "m1", "m2", "alpha1", "alpha2",
                                    "theta", "product")
                        for a in (f"--{k}", str(cfg[k]))]
    assert cli.main(argv + ["--format", "csv", "--output", str(out)]) == 0
    return out.read_text()


THETA = dict(kind="theta", start=0.0, stop=20.0, steps=200, m1=1.0, m2=1.0, alpha1=5.0, alpha2=10.0,
             theta=0.0, product=2.0)
RATIO = dict(kind="ratio", start=0.25, stop=4.0, steps=201, m1=1.0, m2=1.0, alpha1=1.0, alpha2=1.0,
             theta=1.5, product=8.0)


@pytest.mark.parametrize("cfg", [THETA, RATIO], ids=["theta", "ratio"])
def test_sweep_outputs_pass(tmp_path, cfg):
    assert checks.check_sweep_csv(sweep_text(tmp_path, cfg), cfg) == []


def edit_cell(text, row, column, fn):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = fn(cells[column])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column", range(len(checks.SWEEP_COLUMNS)))
def test_sweep_rejects_each_corrupted_column(tmp_path, column):
    text = sweep_text(tmp_path, RATIO)
    bad = edit_cell(text, 37, column, lambda c: repr(float(c) * (1 + 1e-7)))
    assert checks.check_sweep_csv(bad, RATIO)


def test_sweep_rejects_decreasing_e_f_and_bad_shape(tmp_path):
    text = sweep_text(tmp_path, THETA)
    lowered = edit_cell(text, 150, 3, lambda c: repr(float(c) * 0.999))
    assert any("decreases along the theta sweep" in m for m in checks.check_sweep_csv(lowered, THETA))
    positive = edit_cell(text, 0, 1, lambda c: "1e-9")  # E_S > 0 at theta = 0
    assert any("E_S > 0" in m for m in checks.check_sweep_csv(positive, THETA))
    assert checks.check_sweep_csv("\n".join(text.splitlines()[:-1]) + "\n", THETA)
    assert checks.check_sweep_csv(text.replace("sweep_value", "value", 1), THETA)


def spectrum_levels(p, n_max, capsys):
    argv = ["spectrum"] + [a for k, v in zip(checks.PARAM_KEYS, p) for a in (f"--{k}", repr(v))]
    assert cli.main(argv + ["--n-max", str(n_max)]) == 0
    return json.loads(capsys.readouterr().out)


def test_spectrum_check(capsys):
    levels = spectrum_levels(FIG1, 3, capsys)
    assert checks.check_spectrum(levels, FIG1, 3) == []
    bad = copy.deepcopy(levels)
    bad[5]["energy"] *= 1 + 1e-8
    assert checks.check_spectrum(bad, FIG1, 3)
    assert checks.check_spectrum(levels[:-1], FIG1, 3)
    assert checks.check_spectrum(levels[::-1], FIG1, 3)
    assert checks.check_spectrum(levels, FIG1, 2)


def test_validation_check():
    good = oracles.run_validation(OscillatorParams(1.0, 1.5, 1.0, 1.6, 0.5))
    assert checks.check_validation(good) == []
    assert checks.check_validation(good, frozenset({"schrodinger_residual"}))
    import dataclasses

    assert checks.check_validation(dataclasses.replace(good, passed=False))
    assert checks.check_validation(dataclasses.replace(good, moment_max_err=float("nan")))
    known = oracles.run_validation(OscillatorParams(*worker.ValidateOracles.known_failing))
    assert not known.passed
    assert checks.check_validation(known, frozenset({"schrodinger_residual"})) == []


def test_traced_cli_child_counts_calls(tmp_path):
    trace = tmp_path / "trace.json"
    argv = ["analyze"] + [a for k, v in zip(checks.PARAM_KEYS, FIG1) for a in (f"--{k}", repr(v))]
    proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(trace)] + argv,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert checks.check_reports(np.array([FIG1]), [json.loads(proc.stdout)]) == []
    t = json.loads(trace.read_text())
    assert t["ops"] == 1
    assert t["calls"]["cli.main"] == 1 and t["calls"]["cli.analyze_report"] == 1
    assert t["calls"]["oscillator.bopp_shift"] == 3
    assert t["calls"]["gaussian.entanglement_of_formation"] == 2
    assert all(s >= 0 for s in t["self_s"].values())
