"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncho import (
    NumericRangeError,
    OscillatorParams,
    cli,
    energy_level,
    entanglement_of_formation,
    es_closed_form,
    mode_spectrum,
)
from support import fig1


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name: str):
    """``json.loads`` hook: NaN and Infinity are not JSON."""
    raise ValueError(f"non-finite value {name} in the output")


def interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ARGS that imports ncho from src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def cold(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run CODE with ARGV in a fresh interpreter that imports ncho from src/."""
    return interpreter("-c", code, *argv)


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
# alpha1*m2 and alpha2*m1 underflow to 0, so E_S is 0/0 here.
ES_RANGE_FLAGS = ["--m1", "1e-200", "--m2", "1e-200", "--alpha1", "1e-200", "--alpha2", "1e-200"]
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
            a1 = math.sqrt(a.product) * math.sqrt(value) * (math.sqrt(a.m1) / math.sqrt(a.m2))
            p = OscillatorParams(a.m1, a.m2, a1, a.product / a1, a.theta)
        spec = mode_spectrum(p)
        e_s = es_closed_form(p)
        omega, e_f = entanglement_of_formation(e_s)
        rows.append(dict(sweep_value=value, e_s=e_s, omega=omega, e_f=e_f,
                         sigma1=spec.sigma1, sigma2=spec.sigma2))
    return rows


def per_value_rows(flags: list[str]) -> list[dict]:
    """The rows of ``ncho sweep FLAGS`` from ``sweep_rows``' columns, as dicts of floats."""
    a = cli.build_parser().parse_args(["sweep", *flags])
    cols = cli.sweep_rows(a.kind, a.start, a.stop, a.steps,
                          a.m1, a.m2, a.alpha1, a.alpha2, a.theta, a.product)
    keys = cli.SWEEP_HEADER.split(",")
    return [dict(zip(keys, row)) for row in zip(*(cols[k].tolist() for k in keys))]


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
        # a finite report or NumericRangeError (exit 3), never an untyped
        # error or a DomainError (exit 2).
        rng = random.Random(3)
        for _ in range(20_000):
            p = OscillatorParams(*(10 ** rng.uniform(-300, 300) for _ in range(5)))
            try:
                report = cli.analyze_report(p)
            except NumericRangeError:
                continue
            assert all(math.isfinite(v) for v in report.values()), p
            r = report["r"]
            exact = Fraction(p.alpha1) * Fraction(p.m2) / (Fraction(p.alpha2) * Fraction(p.m1))
            assert r > 0 and abs(Fraction(r) - exact) <= 4e-15 * exact, p

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "theta", "--start", "0", "--stop", "20", "--steps", "10000", *FIG1_FLAGS],
            ["--kind", "ratio", "--start", "0.05", "--stop", "20", "--steps", "10000",
             "--theta", "2", "--product", "10"],
            ["--kind", "theta", "--start", "0", "--stop", "1e-5", "--steps", "11", *FIG1_FLAGS],
        ],
        ids=["theta-10k", "ratio-10k", "tiny-theta"],
    )
    def test_csv_bytes_match_per_value_format(self, capsys, flags):
        code, out, _ = run(capsys, "sweep", *flags, "--format", "csv")
        lines = [cli.SWEEP_HEADER]
        lines += [",".join(cli._fmt(v) for v in row.values()) for row in per_value_rows(flags)]
        assert code == 0 and out == "\n".join(lines) + "\n"

    def test_tiny_theta_sweep_prints_negative_zero_and_exponents(self, capsys):
        # What makes the tiny-theta case above cover more of %.12g.
        _, out, _ = run(capsys, "sweep", "--kind", "theta", "--start", "0", "--stop", "1e-5",
                        "--steps", "11", *FIG1_FLAGS, "--format", "csv")
        first, second = out.split("\n")[1:3]
        assert first.split(",")[1] == "-0" and "e-" in second

    @pytest.mark.parametrize("stop", ["1e-5", "10"])
    def test_json_bytes_match_per_row_dicts(self, capsys, stop):
        flags = ["--kind", "theta", "--start", "0", "--stop", stop, "--steps", "101", *FIG1_FLAGS]
        code, out, _ = run(capsys, "sweep", *flags)
        assert code == 0 and out == json.dumps(per_value_rows(flags), indent=2) + "\n"

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
            (["--kind", "ratio", "--start", "1", "--stop", "1e300", "--product", "1e300", "--m1", "1e20"],
             2, "alpha"),
            (["--kind", "ratio", "--start", "1", "--stop", "2", "--product", "-2"], 2, "alpha"),
            (["--kind", "ratio", "--start", "1", "--stop", "2", "--m1", "-1"], 2, "m1 must"),
            (["--kind", "theta", "--start", "0", "--stop", "1e200", *FIG1_FLAGS], 3, "overflows"),
            (["--kind", "theta", "--start", "0", "--stop", "1", *SIGMA1_UNDERFLOW_FLAGS], 3, "sigma1"),
            (["--kind", "theta", "--start", "0", "--stop", "1", *ES_RANGE_FLAGS], 3, "E_S"),
        ],
        ids=["negative-theta", "alpha-overflow", "negative-product", "negative-mass", "b-squared-overflow",
             "sigma1-underflow", "e-s-range"],
    )
    def test_error_contract(self, capsys, flags, code, word):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the array path warns no more than the float path
            got, _, err = run(capsys, "sweep", *flags, "--steps", "7")
        assert got == code
        assert word in err and "Traceback" not in err

    def test_ratio_sweep_where_product_times_value_underflows(self):
        # product * value = 1e-400, but alpha1 = 1e-200 and alpha2 = 1 on row 1,
        # where theta = 0 makes sigma2 = sqrt(2 alpha1).
        cols = cli.sweep_rows("ratio", 1e-200, 1.0, 3, 1.0, 1.0, 1.0, 1.0, 0.0, 1e-200)
        assert cols["sigma2"][0] == pytest.approx(math.sqrt(2e-200), rel=1e-15, abs=0)
        assert cols["sigma1"][0] == pytest.approx(math.sqrt(2), rel=1e-15)
        code = cli.main(["sweep", "--kind", "ratio", "--start", "1e-200", "--stop", "1", "--steps", "3",
                         "--product", "1e-200", "--output", os.devnull])
        assert code == 0

    @pytest.mark.parametrize("masses", [[], ["--m1", "1e10", "--m2", "1e10"]], ids=["unit", "heavy"])
    def test_ratio_sweep_where_product_times_value_overflows(self, capsys, masses):
        # product * value = 1e320, but alpha1 = 1e155..1e160.  At unit masses the
        # quartic's b = 2 alpha1/m1 overflows b^2, a range failure (exit 3), which
        # is no usage error of the sweep's flags.
        code, out, err = run(capsys, "sweep", "--kind", "ratio", "--start", "1e150", "--stop", "1e160",
                             "--steps", "3", "--product", "1e160", *masses, "--format", "csv")
        assert "must be positive and finite" not in err  # OscillatorParams' alpha1 check
        if masses:
            assert code == 0 and len(out.splitlines()) == 4
            sigma1 = float(out.splitlines()[1].split(",")[4])
            assert sigma1 == pytest.approx(math.sqrt(2e155 / 1e10), rel=1e-11)
        else:
            assert code == 3 and "b^2" in err

    def test_ratio_sweep_range_error_names_its_flags(self, capsys):
        code, _, err = run(capsys, "sweep", "--kind", "ratio", "--start", "1", "--stop", "1e300",
                           "--steps", "7", "--product", "1e300", "--m1", "1e20")
        assert code == 2 and "alpha1 = inf" in err
        assert all(flag in err for flag in ("--start", "--stop", "--product")) and "--alpha1" not in err

    @pytest.mark.parametrize("dest", ["stdout", "output"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "steps",
        [cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1, 2 * cli.BLOCK_ROWS + 3],
        ids=["block-1", "block", "block+1", "2block+3"],
    )
    def test_bytes_across_block_boundaries(self, capsys, tmp_path, steps, fmt, dest):
        flags = ["--kind", "ratio", "--start", "0.05", "--stop", "20", "--steps", str(steps),
                 "--theta", "2", "--product", "10"]
        rows = per_value_rows(flags)
        if fmt == "json":
            want = json.dumps(rows, indent=2) + "\n"
        else:
            lines = [cli.SWEEP_HEADER] + [",".join(cli._fmt(v) for v in r.values()) for r in rows]
            want = "\n".join(lines) + "\n"
        target = tmp_path / "sweep.out"
        argv = ["sweep", *flags, "--format", fmt] + (["--output", str(target)] if dest == "output" else [])
        code, out, _ = run(capsys, *argv)
        got = target.read_text() if dest == "output" else out
        assert code == 0 and got == want
        assert out == "" or dest == "stdout"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_sweep_creates_no_file(self, capsys, tmp_path, fmt):
        # The b-squared-overflow case of the error contract.
        target = tmp_path / "sweep.out"
        code, out, _ = run(capsys, "sweep", "--kind", "theta", "--start", "0", "--stop", "1e200",
                           "--steps", "7", *FIG1_FLAGS, "--format", fmt, "--output", str(target))
        assert code == 3 and out == "" and not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_text_is_held_one_block_at_a_time(self, tmp_path, fmt):
        # 100k rows: 4.8 MB of columns; the whole text would be 8.3 MB (CSV)
        # or 25 MB (JSON), and its Python floats and templates more again.
        target = tmp_path / "sweep.out"
        argv = ["sweep", "--kind", "theta", "--start", "0", "--stop", "20", "--steps", "100000",
                *FIG1_FLAGS, "--format", fmt, "--output", str(target)]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and target.stat().st_size > 8_000_000
        assert peak <= 20e6

    def test_sweep_too_large_for_memory_exits_2(self, capsys):
        # numpy refuses the 7.11 PiB request at once, so nothing is allocated.
        flags = ["--kind", "theta", "--start", "0", "--stop", "1", "--steps", "1000000000000000"]
        code, err = exit_code(capsys, "sweep", *flags)
        assert code == 2
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def percent_g_rows(table: np.ndarray) -> str:
    """The CSV rows of TABLE through ``%.12g``, one value at a time."""
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in table.tolist())


def with_neighbours(values: list[float]) -> list[float]:
    """Each value, the floats one ulp below and above it, and their negatives."""
    near = [y for x in values for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    return near + [-y for y in near]


def kernel_edge_values() -> list[float]:
    exps = range(-323, 308)
    values = [0.0, 5e-324, sys.float_info.min, sys.float_info.max, math.inf, math.nan]
    values += [float(f"1e{k}") for k in exps] + [1e308]
    values += [float(f"9.9999999999995e{k}") for k in exps]
    # The largest 12-digit value below each power of ten: 12-digit rounding
    # must not carry it up to that power.
    values += [float(f"9.99999999999e{k}") for k in exps]
    # (m + 1/2) 10^(e - 11), halfway between two 12-digit values.
    values += [float(f"{m}5e{e - 12}") for m in (100000000000, 120000000000, 314159265358, 999999999999)
               for e in range(-300, 301)]
    # Where %.12g switches between fixed and scientific notation.
    values += [1e-5, 9.99999999999e-5, 1e-4, 0.000123456789012, 1e12, 999999999999.0, 999999999999.5,
               99999999999.5, 0.5, 123.456, 1.5e100, 1.5e-100]
    return with_neighbours(values)


class TestCsvKernel:
    """``cli._g12_csv`` against ``%.12g``, byte for byte."""

    def assert_matches(self, table: np.ndarray):
        got, want = cli._g12_csv(table), percent_g_rows(table)
        bad = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        assert got == want, bad[:5]

    def test_edge_values(self):
        self.assert_matches(np.array(kernel_edge_values()).reshape(-1, 1))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=30)))
    def test_any_float_table(self, rows):
        self.assert_matches(np.array(rows, dtype=float))

    def test_random_bit_patterns_and_halves(self):
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2**64, size=30_000, dtype=np.uint64).view(np.float64)
        halves = (rng.integers(10**11, 10**12, 30_000) + 0.5) * 10.0 ** rng.integers(-280, 280, 30_000)
        for values in (bits, halves, np.nextafter(halves, 0), np.nextafter(halves, np.inf)):
            self.assert_matches(values.reshape(-1, 6))


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

    @pytest.mark.parametrize("n_max", ["1000", "10" * 30])
    def test_n_max_beyond_level_bound_rejected(self, capsys, tmp_path, n_max):
        # (1000 + 1)^2 levels exceed 10^6: refused before any level is built.
        target = tmp_path / "levels.json"
        code, out, err = run(capsys, "spectrum", "--n-max", n_max, "--output", str(target))
        assert code == 2 and out == "" and "n_max + 1" in err and not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_across_block_boundary(self, capsys, fmt):
        # (40 + 1)^2 = 1681 levels: two blocks.
        code, out, _ = run(capsys, "spectrum", *FIG1_FLAGS, "--theta", "1", "--n-max", "40",
                           "--format", fmt)
        spec = mode_spectrum(fig1(1.0))
        levels = sorted((energy_level(spec, n1, n2), n1, n2) for n1 in range(41) for n2 in range(41))
        if fmt == "json":
            want = json.dumps([{"n1": n1, "n2": n2, "energy": e} for e, n1, n2 in levels],
                              indent=2) + "\n"
        else:
            want = "\n".join(["n1,n2,energy"] + [f"{n1},{n2},{cli._fmt(e)}" for e, n1, n2 in levels])
            want += "\n"
        assert code == 0 and out == want

    def test_underflowing_sigma1_exits_3(self, capsys):
        code, err = exit_code(capsys, "spectrum", *SIGMA1_UNDERFLOW_FLAGS)
        assert code == 3
        assert "sigma1 underflows" in err and "Traceback" not in err


class TestValidate:
    def test_fig1_passes(self, capsys):
        code, out, _ = run(capsys, "validate", *FIG1_FLAGS, "--theta", "1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_huge_theta_reports_every_check(self, capsys):
        # The dense eigensolver loses sigma2 here and the grid cannot carry
        # the residual; the report says so instead of exiting 3.
        code, out, err = run(capsys, "validate", *FIG1_FLAGS, "--theta", "1e8")
        assert code == 5
        report = json.loads(out)
        assert list(report) == [
            "eigen_residual", "schrodinger_residual", "moment_max_err", "es_spread", "passed"
        ]
        assert report["eigen_residual"] == pytest.approx(0.898, abs=1e-3)
        assert report["moment_max_err"] < 1e-12 and report["es_spread"] < 1e-12
        assert "eigen_residual, schrodinger_residual above threshold" in err

    @pytest.mark.parametrize(
        "flags, code",
        [(["--m2", "1.8e16", "--alpha1", "1.1e-308"], 0), (["--alpha2", "160754694"], 5)],
        ids=["sigma2-underflowed", "narrow-x2-envelope"],
    )
    def test_extreme_widths_report(self, flags, code):
        # A shared moment axis refused both.  A fresh interpreter, so numpy's
        # warnings reach stderr as they would.
        proc = cold("from ncho.cli import entrypoint; entrypoint()", "validate", *flags)
        assert proc.returncode == code
        report = json.loads(proc.stdout, parse_constant=reject_constant)
        assert report["passed"] is (code == 0)
        assert report["moment_max_err"] < 1e-14
        want = "" if code == 0 else "validation failed: schrodinger_residual above threshold\n"
        assert proc.stderr == want

    @pytest.mark.parametrize(
        "flags, code, failing",
        [
            # Re(alpha)*Re(beta) of the ground state underflows to 0.  E_S =
            # -3.4e91 here, and the dense eig and the residual lose every
            # digit; the state's own E_S agrees with the closed form.
            (["--m1", "2.0525960107252939e-81", "--m2", "2.4766685037342248e-95",
              "--alpha1", "1.3020380541233286e-146", "--alpha2", "4.549805912398335e+25",
              "--theta", "2.0016881072844387e+132"],
             5, "eigen_residual, schrodinger_residual"),
            # Re(alpha)*Re(beta) = 4.9e-232 is representable, but
            # 2*Re(alpha)*(Re(alpha)*Re(beta)) underflows.
            (["--m1", "9.363853846513709e-89", "--m2", "2.7720549198381852e-89",
              "--alpha1", "5.758412595050464e-146", "--alpha2", "4.0191625554700025e-142",
              "--theta", "1.6986222948082652e+92"],
             0, ""),
        ],
        ids=["width-product", "covariance-denominator"],
    )
    def test_underflowing_width_product_reaches_the_checks(self, capsys, flags, code, failing):
        # The covariance blocks never form Re(alpha)*Re(beta), so both
        # points report, and the moments agree with the quadrature.
        got, out, err = run(capsys, "validate", *flags)
        assert got == code
        report = json.loads(out, parse_constant=reject_constant)
        assert report["moment_max_err"] < 1e-14
        assert err == (f"validation failed: {failing} above threshold\n" if failing else "")

    def test_extreme_inputs_end_in_a_documented_outcome(self, capsys):
        # Log-uniform over 1e-150...1e150, theta included.  Every point
        # passes, fails a check with a finite report, or leaves the float
        # range; none is refused as usage, warns or ends in a traceback.
        rng = random.Random(150)
        names = ("--m1", "--m2", "--alpha1", "--alpha2", "--theta")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(500):
                flags = [f"{k}={10 ** rng.uniform(-150, 150)!r}" for k in names]
                code, out, err = run(capsys, "validate", *flags)
                assert code in (0, 3, 5), (flags, err)
                if code != 3:
                    report = json.loads(out, parse_constant=reject_constant)
                    assert report["passed"] is (code == 0), flags


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

    def test_null_config_value_exits_2(self, capsys, tmp_path, monkeypatch):
        # A null must not reach the parser as the string "None", which as
        # --output names a file.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"output": null}')
        code, out, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: configuration key 'output' is null\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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

    def test_deeply_nested_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        code, err = exit_code(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "not valid JSON" in err and "Traceback" not in err

    def test_import_needs_no_scipy(self):
        proc = cold("import ncho, sys; assert not any(m.startswith('scipy') for m in sys.modules)")
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_numpy_fft_unloaded(self):
        # numpy loads numpy.fft lazily, and no command uses it.
        proc = cold("import ncho, sys; assert 'numpy.fft' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["analyze", "spectrum", "library"])
    def test_cold_path_leaves_numpy_unloaded(self, command):
        # dataclasses would bring inspect, ast, dis and tokenize with it.
        # "library" runs the Fig. 1 ground state -> covariance -> E_S chain.
        check = (
            "import sys, ncho\n"
            "unwanted = {'numpy', 'dataclasses', 'inspect'}\n"
            "assert not unwanted & set(sys.modules), 'import ncho'\n"
            "if sys.argv[1] == 'library':\n"
            "    p = ncho.OscillatorParams(1, 1, 5, 10, 1)\n"
            "    state = ncho.ground_state_lambda_closed(p, ncho.mode_spectrum(p))\n"
            "    e_s = ncho.simon_es(ncho.covariance_blocks(state))\n"
            "    assert abs(e_s - ncho.es_closed_form(p)) < 1e-12 * abs(e_s), e_s\n"
            "else:\n"
            "    from ncho import cli\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "assert not unwanted & set(sys.modules), (sys.argv[1], unwanted & set(sys.modules))\n"
        )
        proc = cold(check, command, *FIG1_FLAGS, "--theta", "1")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "first_array",
        ["assert run_validation(ncho.OscillatorParams(1, 1, 5, 10, 1)).passed", "grid._unit_axis"],
        ids=["run_validation", "unit_axis"],
    )
    def test_oracles_load_numpy_with_the_first_array(self, first_array):
        # Every submodule but __main__ (which runs the command) imports
        # without numpy, and so do a grid and failing_checks; the first
        # array-building call loads it.
        check = (
            "import pkgutil, sys, ncho\n"
            "assert not {'numpy', 'dataclasses'} & set(sys.modules), 'import ncho'\n"
            "names = [m.name for m in pkgutil.iter_modules(ncho.__path__) if m.name != '__main__']\n"
            "assert {'cli', 'gaussian', 'oracles', 'oscillator'} <= set(names), names\n"
            "for name in names:\n"
            "    __import__('ncho.' + name)\n"
            "from ncho import GridSpec, ValidationReport, oracles, run_validation\n"
            "grid = GridSpec()\n"
            "report = ValidationReport(0.0, 1.0, 0.0, 0.0, False)\n"
            "assert oracles.failing_checks(report) == ['schrodinger_residual']\n"
            "assert 'numpy' not in sys.modules, 'before the first array'\n"
            f"{first_array}\n"
            "assert 'numpy' in sys.modules\n"
        )
        proc = cold(check)
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

    def test_one_parser_serves_every_call(self, tmp_path):
        # A --config sweep, a plain sweep and analyze in one process, each
        # against a fresh process: nothing of one call may reach the next.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 2.5, "alpha1": 5, "format": "csv", "steps": 7}))
        runs = [
            ["sweep", "--kind", "theta", "--start", "0", "--stop", "3", "--steps", "5", "--config", str(cfg)],
            ["sweep", "--kind", "ratio", "--start", "0.5", "--stop", "2", "--steps", "5"],
            ["analyze"],
        ]
        script = (
            "import json, sys\n"
            "from ncho import cli\n"
            "assert cli.build_parser() is cli.build_parser()\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert cli.main(argv + ['--output', sys.argv[2] + str(i)]) == 0, argv\n"
        )
        proc = cold(script, json.dumps(runs), str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        for i, argv in enumerate(runs):
            fresh = cold("from ncho.cli import entrypoint; entrypoint()", *argv)
            assert fresh.returncode == 0, fresh.stderr
            assert (tmp_path / f"out{i}").read_text() == fresh.stdout, argv
        assert fresh.stdout.startswith("{") and '"theta": 0.0' in fresh.stdout

    @pytest.mark.parametrize("module", ["ncho", "ncho.cli"])
    @pytest.mark.parametrize(
        "argv, code",
        [(["analyze", *FIG1_FLAGS, "--theta", "1"], 0), (["spectrum", "--n-max", "2", "--format", "csv"], 0),
         (["analyze", "--theta", "-1"], 2), (["analyze", "--bogus"], 2)],
        ids=["analyze", "spectrum", "domain-error", "bad-flag"],
    )
    def test_python_dash_m_prints_what_main_prints(self, capsys, module, argv, code):
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # argparse's exit 2
            got = exc.code
        want = capsys.readouterr()
        proc = interpreter("-m", module, *argv)
        assert got == code and (proc.returncode, proc.stdout, proc.stderr) == (code, want.out, want.err)

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "analyze", *FIG1_FLAGS, "--theta", "1", "--format", "csv")
        cols = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
        assert float(cols["sigma1"]) == pytest.approx(15.136945600256785, abs=5e-10)
        assert len(cols["sigma1"].replace(".", "").replace("-", "").lstrip("0")) <= 12


# Odd flag and config values: NaN, infinities, an overflowing literal, -0,
# subnormals and strings that are no number at all.
ODD_VALUES = ["nan", "-nan", "inf", "-inf", "1e309", "-1e309", "-0", "0", "1e-320", "1e-200",
              "1e200", "abc", "", "1,5", "0x10", "None", "[1]", "--theta"]
ODD_CONFIGS = ['{"theta": 1e309}', '{"theta": 1', "[" * 100_000, '{"m1": ' * 100_000, "", "\x00",
               '{"steps": 1e3}', '{"steps": 2.5}', '{"kind": "bogus"}', "null"]
# Size flags stay small so that no example allocates much: at most 200
# sweep rows and (4 + 1)^2 levels.
SIZE_LIMITS = {"--steps": 200, "--n-max": 4}
COMMAND_FLAGS = {
    "analyze": [],
    "sweep": ["--kind", "--start", "--stop", "--steps", "--product"],
    "spectrum": ["--n-max"],
    "validate": [],
}
REQUIRED = {"--kind", "--start", "--stop", "--steps"}
PARAM_FLAGS = ["--m1", "--m2", "--alpha1", "--alpha2", "--theta"]


def mostly(usual, odd):
    """USUAL three times in four, so that most examples get past argparse."""
    return st.one_of(usual, usual, usual, odd)


odd_numbers = st.sampled_from(ODD_VALUES) | st.floats().map(repr)
numbers = mostly(st.sampled_from(["0.5", "1", "2", "5", "10"])
                 | st.floats(-300, 300).map(lambda e: repr(10.0**e)), odd_numbers)
flag_values = {
    "--kind": mostly(st.sampled_from(["theta", "ratio"]), st.just("bogus")),
    "--format": mostly(st.sampled_from(["csv", "json"]), st.just("xml")),
    # Mostly start < stop, so that most sweeps get past the range check.
    "--start": mostly(st.sampled_from(["0", "1e-300", "0.5"]), numbers),
    "--stop": mostly(st.sampled_from(["10", "1e3", "1e300"]), numbers),
    "--output": st.sampled_from(["", "/nonexistent/dir/out"]),
    **{flag: mostly(st.integers(2, top).map(str), st.integers(-2, 1).map(str) | odd_numbers)
       for flag, top in SIZE_LIMITS.items()},
}
# No digits in config strings, so none of them parses as a large size.
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 65), st.floats(),
                        st.text(st.characters(blacklist_categories=("Nd",)), max_size=5))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
config_keys = st.sampled_from(
    ["m1", "m2", "alpha1", "alpha2", "theta", "kind", "start", "stop", "steps", "product",
     "n_max", "n-max", "grid_points", "grid_extent", "format", "command", "bogus", "", "__class__"]
)
config_texts = st.one_of(
    st.dictionaries(config_keys, json_values, max_size=4).map(json.dumps),
    json_values.map(json.dumps),
    st.sampled_from(ODD_CONFIGS),
)


@st.composite
def invocations(draw):
    """An argv for ``cli.main`` and the text of its config file (or None)."""
    command = draw(st.sampled_from([*COMMAND_FLAGS, *COMMAND_FLAGS, "bogus", "--help"]))
    argv = [command]
    for flag in [*PARAM_FLAGS, *COMMAND_FLAGS.get(command, []), "--format", "--output"]:
        if flag in REQUIRED or draw(st.booleans()):
            argv.append(f"{flag}={draw(flag_values.get(flag, numbers))}")
    return argv, draw(st.one_of(st.none(), st.none(), config_texts))


class TestExitCodeContract:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(invocation=invocations())
    def test_only_documented_exit_codes(self, tmp_path, invocation):
        # Any other exception escapes cli.main and fails the test.
        argv, config = invocation
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config, encoding="utf-8")
            argv = [*argv, f"--config={cfg}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: --help or a rejected flag
                assert exc.code in (0, 2), argv
                return
        assert code in (0, 2, 3, 4, 5), argv
        assert "Traceback" not in err.getvalue()
