"""Command-line interface: subcommands, formats, exit codes."""

import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ncho import (
    NumericRangeError,
    OscillatorParams,
    cli,
    entanglement_of_formation,
    es_closed_form,
    mode_spectrum,
)
from support import fig1


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cold(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run CODE with ARGV in a fresh interpreter that imports ncho from src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)


def exit_code(capsys, *argv):
    """The process exit code of ``ncho ARGV``: argparse rejects bad flags by SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


FIG1_FLAGS = ["--m1", "1", "--m2", "1", "--alpha1", "5", "--alpha2", "10"]
# b, c and D of the quartic, and so sigma1, underflow to 0 here for theta <= 1.
SIGMA1_UNDERFLOW_FLAGS = ["--m1", "1e200", "--m2", "1e200", "--alpha1", "1e-200", "--alpha2", "1e-200"]
RATIO_FLAGS = ["--kind", "ratio", "--start", "0.1", "--stop", "10", "--steps", "100",
               "--theta", "1", "--product", "2"]


def scalar_sweep(flags: list[str]) -> list[dict]:
    """The rows of ``ncho sweep FLAGS``, one OscillatorParams and scalar call chain per row."""
    a = cli.build_parser().parse_args(["sweep", *flags])
    rows = []
    for i in range(a.steps):
        value = a.start + (a.stop - a.start) * i / (a.steps - 1)
        if a.kind == "theta":
            p = OscillatorParams(a.m1, a.m2, a.alpha1, a.alpha2, value)
        else:
            a1 = math.sqrt(a.product * value * a.m1 / a.m2)
            p = OscillatorParams(a.m1, a.m2, a1, a.product / a1, a.theta)
        spec = mode_spectrum(p)
        e_s = es_closed_form(p)
        omega, e_f = entanglement_of_formation(e_s)
        rows.append(dict(sweep_value=value, e_s=e_s, omega=omega, e_f=e_f,
                         sigma1=spec.sigma1, sigma2=spec.sigma2))
    return rows


class TestAnalyze:
    def test_fig1_json(self, capsys):
        code, out, _ = run(capsys, "analyze", *FIG1_FLAGS, "--theta", "1")
        assert code == 0
        report = json.loads(out)
        assert report["sigma1"] == pytest.approx(15.136945600256785, rel=1e-12)
        assert report["sigma2"] == pytest.approx(0.9342793451996745, rel=1e-12)
        assert report["e_s"] == pytest.approx(-0.005871454297898655, rel=1e-10)
        assert report["e_f"] == pytest.approx(0.035878788510967104, rel=1e-10)
        assert report["separable"] is False
        assert report["r"] == pytest.approx(0.5)

    def test_commutative_is_separable(self, capsys):
        code, out, _ = run(capsys, "analyze", *FIG1_FLAGS, "--theta", "0")
        report = json.loads(out)
        assert code == 0
        assert report["e_s"] == 0
        assert report["e_f"] == 0
        assert report["separable"] is True

    def test_isotropic_stays_separable(self, capsys):
        _, out, _ = run(
            capsys, "analyze", "--m1", "1", "--m2", "1",
            "--alpha1", "3", "--alpha2", "3", "--theta", "2",
        )
        report = json.loads(out)
        assert report["e_f"] == 0
        assert report["lambda12_imag"] == 0

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "analyze", *FIG1_FLAGS, "--theta", "1", "--format", "csv")
        assert code == 0
        header, values = out.strip().split("\n")
        cols = dict(zip(header.split(","), values.split(",")))
        assert float(cols["e_s"]) == pytest.approx(-0.005871454297898655, rel=1e-10)
        assert cols["separable"] == "False"

    @pytest.mark.parametrize("theta", ["1e3", "1e6", "1e8", "1e12", "1e50"])
    def test_large_theta(self, capsys, theta):
        code, out, _ = run(capsys, "analyze", *FIG1_FLAGS, "--theta", theta)
        assert code == 0
        report = json.loads(out)
        # sigma1*sigma2 = sqrt(c) = 2 sqrt(alpha1 alpha2 / (m1 m2)) for every theta
        assert report["sigma1"] * report["sigma2"] == pytest.approx(2 * math.sqrt(50), rel=1e-14)

    @pytest.mark.parametrize("theta", ["1e76", "1e160"])
    def test_overflowing_theta_exits_3(self, capsys, theta):
        code, _, err = run(capsys, "analyze", *FIG1_FLAGS, "--theta", theta)
        assert code == 3
        assert "Traceback" not in err

    def test_underflowing_cross_term_is_finite(self, capsys):
        # Lambda12's Bopp-shifted denominator underflows to 0 here; the values
        # are those of exact arithmetic.
        flags = ["--m1", "2.7e143", "--m2", "7.5e130", "--alpha1", "1.8e-145"]
        flags += ["--alpha2", "4.9e-13", "--theta", "9.3e95"]
        code, out, err = run(capsys, "analyze", *flags)
        assert code == 0, err
        report = json.loads(out)
        assert report["lambda11"] == pytest.approx(2.6068452762637697e-162, rel=1e-13, abs=0)
        assert report["lambda22"] == pytest.approx(2.2668657062138921e-102, rel=1e-13, abs=0)
        assert report["lambda12_imag"] == pytest.approx(2.1505376344086022e-96, rel=1e-13, abs=0)

    def test_underflowing_exponent_exits_3(self, capsys):
        # Lambda11 underflows to 0 in the Bopp-shifted closed form.
        flags = ["--m1", "6.8e34", "--m2", "3.7e120", "--alpha1", "6.2e114"]
        flags += ["--alpha2", "2.5e-110", "--theta", "2.9e37"]
        code, err = exit_code(capsys, "analyze", *flags)
        assert code == 3
        assert "numerical failure" in err and "Traceback" not in err

    def test_underflowing_sigma1_exits_3(self, capsys):
        code, err = exit_code(capsys, "analyze", *SIGMA1_UNDERFLOW_FLAGS, "--theta", "0")
        assert code == 3
        assert "sigma1 underflows" in err and "Traceback" not in err

    def test_valid_inputs_raise_only_range_errors(self):
        # Log-uniform over 1e-300..1e300 in all five inputs: each point gives
        # a report or NumericRangeError (exit 3), never an untyped error or a
        # DomainError (exit 2).  r = inf is still returned at some points.
        rng = random.Random(3)
        for _ in range(20_000):
            p = OscillatorParams(*(10 ** rng.uniform(-300, 300) for _ in range(5)))
            try:
                cli.analyze_report(p)
            except NumericRangeError:
                pass

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--theta", "1", "--output", str(target))
        assert code == 0
        assert out == ""
        assert "e_f" in json.loads(target.read_text())


class TestSweep:
    def test_theta_sweep_csv(self, capsys):
        argv = ["sweep", "--kind", "theta", "--start", "0", "--stop", "10",
                "--steps", "41", *FIG1_FLAGS, "--format", "csv"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sweep_value,e_s,omega,e_f,sigma1,sigma2"
        assert len(lines) == 42
        e_f = [float(line.split(",")[3]) for line in lines[1:]]
        assert e_f[0] == 0.0
        assert all(b >= a for a, b in zip(e_f, e_f[1:]))

    def test_deterministic_output(self, capsys):
        argv = ["sweep", "--kind", "theta", "--start", "0", "--stop", "5",
                "--steps", "11", *FIG1_FLAGS, "--format", "csv"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_endpoints_match_analyze(self, capsys):
        argv = ["sweep", "--kind", "theta", "--start", "0.5", "--stop", "2.5",
                "--steps", "2", *FIG1_FLAGS]
        code, out, _ = run(capsys, *argv)
        rows = json.loads(out)
        assert code == 0 and len(rows) == 2
        assert rows[0]["sweep_value"] == 0.5
        assert rows[0]["e_s"] == pytest.approx(es_closed_form(fig1(0.5)), rel=1e-14)
        assert rows[1]["e_s"] == pytest.approx(es_closed_form(fig1(2.5)), rel=1e-14)

    def test_ratio_sweep(self, capsys):
        argv = ["sweep", "--kind", "ratio", "--start", "0.1", "--stop", "10",
                "--steps", "100", "--theta", "1", "--product", "2",
                "--m1", "1", "--m2", "1", "--format", "csv"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        by_r = {float(r[0]): float(r[3]) for r in rows}
        # r = 1 is the separable point of the family
        r_near_one = min(by_r, key=lambda r: abs(r - 1.0))
        assert by_r[r_near_one] == min(by_r.values())

    def test_omega_column_consistent(self, capsys):
        argv = ["sweep", "--kind", "theta", "--start", "0", "--stop", "10",
                "--steps", "21", *FIG1_FLAGS, "--format", "csv"]
        _, out, _ = run(capsys, *argv)
        for line in out.strip().split("\n")[1:]:
            _, e_s, omega, _, _, _ = map(float, line.split(","))
            assert omega**2 == pytest.approx(0.25 - e_s, abs=1e-12)

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--kind", "theta",
                           "--start", "5", "--stop", "1", "--steps", "10")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "theta", "--start", "0", "--stop", "10", "--steps", "41", *FIG1_FLAGS],
            RATIO_FLAGS,
        ],
        ids=["theta", "ratio"],
    )
    def test_csv_matches_scalar_functions(self, capsys, flags):
        _, out, _ = run(capsys, "sweep", *flags, "--format", "csv")
        lines = [cli.SWEEP_HEADER]
        for row in scalar_sweep(flags):
            lines.append(",".join(cli._fmt(row[k]) for k in cli.SWEEP_HEADER.split(",")))
        assert out == "\n".join(lines) + "\n"

    def test_json_matches_scalar_functions(self, capsys):
        _, out, _ = run(capsys, "sweep", *RATIO_FLAGS)
        rows = json.loads(out)
        want = scalar_sweep(RATIO_FLAGS)
        assert [list(r) for r in rows] == [cli.SWEEP_HEADER.split(",")] * len(want)
        assert rows == [pytest.approx(w, rel=1e-14, abs=0) for w in want]

    @pytest.mark.parametrize(
        "flags, code, word",
        [
            (["--kind", "theta", "--start", "-1", "--stop", "1", *FIG1_FLAGS], 2, "theta"),
            (["--kind", "ratio", "--start", "1", "--stop", "1e300", "--product", "1e300"], 2, "alpha"),
            (["--kind", "ratio", "--start", "1", "--stop", "2", "--product", "-2"], 2, "alpha"),
            (["--kind", "theta", "--start", "0", "--stop", "1e200", *FIG1_FLAGS], 3, "overflows"),
            (["--kind", "theta", "--start", "0", "--stop", "1", *SIGMA1_UNDERFLOW_FLAGS], 3, "sigma1"),
        ],
        ids=["negative-theta", "alpha-overflow", "negative-product", "b-squared-overflow",
             "sigma1-underflow"],
    )
    def test_error_contract(self, capsys, flags, code, word):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the array path warns no more than the float path
            got, _, err = run(capsys, "sweep", *flags, "--steps", "7")
        assert got == code
        assert word in err and "Traceback" not in err


class TestSpectrum:
    def test_commutative_unit_levels(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--alpha1", "0.5", "--alpha2", "0.5",
            "--n-max", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n1,n2,energy"
        energies = [float(line.split(",")[2]) for line in lines[1:]]
        assert energies == pytest.approx([1.0, 2.0, 2.0, 3.0])

    def test_level_count(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--n-max", "2", "--theta", "1")
        assert len(json.loads(out)) == 9

    def test_sorted_by_energy(self, capsys):
        _, out, _ = run(capsys, "spectrum", *FIG1_FLAGS, "--theta", "1", "--n-max", "3")
        energies = [row["energy"] for row in json.loads(out)]
        assert energies == sorted(energies)

    def test_negative_n_max_rejected(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--n-max", "-1")
        assert code == 2

    def test_underflowing_sigma1_exits_3(self, capsys):
        code, err = exit_code(capsys, "spectrum", *SIGMA1_UNDERFLOW_FLAGS)
        assert code == 3
        assert "sigma1 underflows" in err and "Traceback" not in err


class TestValidate:
    def test_fig1_passes(self, capsys):
        code, out, _ = run(capsys, "validate", *FIG1_FLAGS, "--theta", "1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_undersized_grid_rejected(self, capsys):
        code, _, err = run(capsys, "validate", "--grid-points", "16")
        assert code == 2
        assert "points_per_axis" in err


class TestPlumbing:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--bogus", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unwritable_output(self, capsys):
        code, _, err = run(capsys, "analyze", "--theta", "1",
                           "--output", "/nonexistent/dir/out.json")
        assert code == 4
        assert "I/O" in err

    def test_config_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1.0, "alpha1": 5.0, "alpha2": 10.0}))
        code, out, _ = run(capsys, "analyze", "--theta", "0", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert report["theta"] == 1.0
        assert report["e_s"] == pytest.approx(-0.005871454297898655, rel=1e-10)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "not_a_flag" in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("analyze", "[1, 2]"),
            ("analyze", '{"theta": 1'),
            ("sweep", '{"steps": 2.5}'),
            ("analyze", '{"command": "bogus"}'),
            ("analyze", '{"theta": true}'),
        ],
    )
    def test_bad_config_exits_2(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--kind", "theta", "--start", "0", "--stop", "1", "--steps", "3"]
        code, err = exit_code(capsys, *argv)
        assert code == 2
        assert "error" in err

    def test_import_needs_no_scipy(self):
        proc = cold("import ncho, sys; assert not any(m.startswith('scipy') for m in sys.modules)")
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_numpy_fft_unloaded(self):
        # numpy loads numpy.fft lazily, and no command uses it.
        proc = cold("import ncho, sys; assert 'numpy.fft' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_cold_path_leaves_numpy_unloaded(self, command):
        # dataclasses would bring inspect, ast, dis and tokenize with it.
        check = (
            "import sys, ncho\n"
            "unwanted = {'numpy', 'dataclasses', 'inspect'}\n"
            "assert not unwanted & set(sys.modules), 'import ncho'\n"
            "from ncho import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "assert not unwanted & set(sys.modules), (sys.argv[1], unwanted & set(sys.modules))\n"
        )
        proc = cold(check, command, *FIG1_FLAGS, "--theta", "1")
        assert proc.returncode == 0, proc.stderr

    def test_every_exported_name_resolves(self):
        check = (
            "import ncho\n"
            "missing = [n for n in ncho.__all__ if getattr(ncho, n, None) is None]\n"
            "assert not missing, missing\n"
            "assert not hasattr(ncho, 'no_such_name')\n"
            "from ncho import run_validation, GridSpec\n"
            "from ncho import *\n"
            "assert run_validation is ncho.oracles.run_validation and GridSpec is ncho.GridSpec\n"
        )
        proc = cold(check)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--kind", "theta", "--start", "0", "--stop", "1", "--steps", "3"],
            ["validate", *FIG1_FLAGS, "--theta", "1"],
        ],
    )
    def test_cold_sweep_and_validate_succeed(self, argv):
        check = (
            "import sys\n"
            "from ncho.cli import entrypoint\n"
            "try:\n"
            "    entrypoint()\n"
            "finally:\n"
            "    assert 'numpy.fft' not in sys.modules, sys.argv[1]\n"
        )
        proc = cold(check, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("[" if argv[0] == "sweep" else "{")

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "analyze", *FIG1_FLAGS, "--theta", "1", "--format", "csv")
        cols = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
        assert float(cols["sigma1"]) == pytest.approx(15.136945600256785, abs=5e-10)
        assert len(cols["sigma1"].replace(".", "").replace("-", "").lstrip("0")) <= 12
