"""Command-line front-end.

Subcommands:

* ``analyze``  - full single-point report (spectrum, ground state, E_S/E_F).
* ``sweep``    - theta or anisotropy-ratio sweeps written as CSV/JSON rows.
* ``spectrum`` - energy levels up to a maximum quantum number.
* ``validate`` - run the numerical oracles against the closed forms.

CSV sweep values are rendered by a numpy kernel, byte for byte as ``%.12g``
prints them; the argparse parser is built once per process.

Exit codes: 0 success, 2 usage/configuration error (a request too large
for memory included), 3 numerical failure (a quantity leaves the float
range), 4 I/O error, 5 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from . import gaussian, oscillator
from .errors import DomainError, NchoError
from .oscillator import OscillatorParams

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_VALIDATION = 5

SWEEP_HEADER = "sweep_value,e_s,omega,e_f,sigma1,sigma2"
# Rows rendered and written per block: the output text never holds more.
BLOCK_ROWS = 1024
# Most levels ``spectrum`` builds, (n_max + 1)^2.
MAX_LEVELS = 10**6


def _fmt(x: float) -> str:
    """CSV number format: 12 significant digits."""
    return f"{x:.12g}"


@functools.cache
def _g12_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_g12_csv``, built on its first call."""
    import numpy as np

    def words(chunks):  # byte strings as uint64 words, so the byte order plays no part
        return np.frombuffer(b"".join(chunks), np.uint64)

    def mask(p, nd):  # the digits and the point kept of nd significant digits
        return b"".join((b"\xff" if i < max(nd, p + 1) else b"\0")
                        + (b"\xff" if i == p < nd - 1 else b"\0") for i in range(12))

    powers = np.array([float(f"1e{k}") for k in range(-300, 309)])  # correctly rounded
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.full((10**4, 8), ord("."), np.uint8)
    quads[:, ::2] = digits + ord("0")
    sig = ((digits > 0) * np.arange(1, 5)).max(axis=1).astype(np.uint8)  # without trailing zeros
    sig = np.stack([sig, (sig + 4) * (sig > 0), (sig + 8) * (sig > 0)])
    # One row per layout: scientific (point after d0), then fixed with e = -4..11.
    masks = words(mask(p, nd) for p in [0, *range(-4, 12)] for nd in range(13))
    lead = words((s + b"0.000"[:1 - e] * (-4 <= e < 0)).ljust(8, b"\0")
                 for s in (b"", b"-") for e in range(-300, 301))
    tail = words((b"e%+03d" % e * (not -4 <= e < 12)).ljust(8, b"\0") for e in range(-300, 301))
    return powers, quads.view(np.uint64).ravel(), sig, masks.reshape(-1, 3).T.copy(), lead, tail


def _g12_csv(table: np.ndarray) -> str:
    """CSV rows of a 2-D float table, each value exactly as ``_fmt`` prints it.

    Each value x gets e = floor(log10 |x|), exact or one too high, from its
    binary exponent, then y = |x| 10^(11 - e) and m = rint(y), with one
    correction of e where m is outside [1e11, 1e12).  The table power is
    within 1 ulp and y is one product, so |y - y_true| <= 3.3e-4 for
    y < 1e12, and m is y_true rounded to 12 digits unless y lies within
    0.001 of a half.  Those values, the carry boundary (m = 1e11 from
    y <= 99999999999.96: e may be one too high and x round below 10^e), 0,
    non-finite values and |x| outside [1e-290, 1e300] go through ``%.12g``
    itself.  Every value fills five uint64 words: sign and "0.000" lead,
    twelve digits each followed by a point byte, "e+ddd" and separator;
    bytes not printed are 0, and one ``translate`` drops them.
    """
    import numpy as np

    powers, quads, sig, masks, lead, tail = _g12_tables()
    rows, width = table.shape
    x = table.ravel()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        slow = ~((a >= 1e-290) & (a <= 1e300))
        a[slow] = 1.0
        e = (np.frexp(a)[1].astype(np.intp) * 78913) >> 18  # floor(be log10 2), |be| < 1650
        m = np.rint(a * powers[311 - e])  # powers[311 - e] = 10^(11 - e)
        e += m >= 1e12
        e -= m < 1e11
        y = a * powers[311 - e]
        m = np.rint(y)
        slow |= (abs(y - m) >= 0.499) | ((m == 1e11) & (y <= 99999999999.96)) | (m >= 1e12)
        m[slow] = 1e11
        hi, rest = np.divmod(m.astype(np.int64), 10**8)
        groups = (hi, *np.divmod(rest, 10**4))
        nd = np.maximum(np.maximum(sig[0][hi], sig[1][groups[1]]), sig[2][groups[2]])
        layout = np.where((e >= -4) & (e < 12), e + 5, 0) * 13 + nd  # masks' row and column
        out = np.empty((x.size, 5), np.uint64)
        out[:, 0] = lead[e + 300 + 601 * (x < 0)]
        for g, group in enumerate(groups):
            out[:, 1 + g] = quads[group] & masks[g][layout]
        seps = np.frombuffer(b"\0\0\0\0\0,\0\0" * (width - 1) + b"\0\0\0\0\0\n\0\0", np.uint64)
        out[:, 4] = (tail[e + 300].reshape(rows, width) | seps).ravel()
        text = out.view(np.uint8).reshape(-1, 40)
        for i in np.flatnonzero(slow):
            text[i, :37] = np.frombuffer((b"%.12g" % x[i]).ljust(37, b"\0"), np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _param_args(p: argparse.ArgumentParser, alphas: bool = True) -> None:
    p.add_argument("--m1", type=float, default=1.0, help="mass of oscillator 1")
    p.add_argument("--m2", type=float, default=1.0, help="mass of oscillator 2")
    if alphas:
        p.add_argument("--alpha1", type=float, default=1.0, help="stiffness of oscillator 1")
        p.add_argument("--alpha2", type=float, default=1.0, help="stiffness of oscillator 2")
    p.add_argument("--theta", type=float, default=0.0, help="noncommutativity parameter")


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write results to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="json", help="output format")
    p.add_argument("--config", default=None, help="JSON file whose keys override flags")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ncho`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ncho",
        description="Spectrum and noncommutativity-induced entanglement of the "
        "anisotropic oscillator on a noncommutative plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="single-point entanglement report")
    _param_args(p)
    _common_args(p)

    p = sub.add_parser("sweep", help="theta or anisotropy-ratio sweep")
    p.add_argument("--kind", choices=("theta", "ratio"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--product", type=float, default=2.0,
                   help="alpha1*alpha2 held fixed during a ratio sweep")
    _param_args(p)
    _common_args(p)

    p = sub.add_parser("spectrum", help="energy levels up to --n-max")
    p.add_argument("--n-max", type=int, default=2, help="largest quantum number per mode")
    _param_args(p)
    _common_args(p)

    p = sub.add_parser("validate", help="run numerical oracles")
    _param_args(p)
    _common_args(p)

    return parser


def _config_argv(path: str, args: argparse.Namespace) -> list[str]:
    """The config file's keys as ``--key=value`` flags for the parser to check."""
    with open(path) as fh:
        try:
            overrides = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise DomainError(f"configuration file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise DomainError(f"configuration file {path!r} must hold a JSON object")
    flags = []
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise DomainError(f"unknown configuration key {key!r}")
        if value is None:  # it would reach the parser as the string "None"
            raise DomainError(f"configuration key {key!r} is null")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


def _params_from(args: argparse.Namespace) -> OscillatorParams:
    return OscillatorParams(args.m1, args.m2, args.alpha1, args.alpha2, args.theta)


def _write(output: str | None, head: str, blocks: Iterable[str] = (), tail: str = "") -> None:
    """Write HEAD, each rendered text of BLOCKS, then TAIL.

    The output is opened here, after the caller's checks, so a command that
    fails before it writes creates no file.
    """
    fh = open(output, "w") if output else sys.stdout
    try:
        fh.write(head)
        fh.writelines(blocks)
        fh.write(tail)
    finally:
        if output:
            fh.close()


def _table_layout(fmt: str, keys: list[str], csv_row: str) -> tuple[str, str, str, str]:
    """Head, row template, row separator and tail of a table of KEYS.

    The JSON layout is that of ``json.dumps(rows, indent=2)`` over one dict
    per row: for the ints and finite floats of the tables, ``%r`` prints what
    ``json`` prints.
    """
    if fmt == "csv":
        return ",".join(keys) + "\n", csv_row, "\n", "\n"
    fields = ",\n".join(f'    "{k}": %r' for k in keys)
    return "[\n", "  {\n" + fields + "\n  }", ",\n", "\n]\n"


def _templated(row: str, sep: str, blocks: Iterable[list]) -> Iterator[str]:
    """Each block, a flat list of values, through the %-template ROW; rows joined by SEP."""
    width = row.count("%")
    lead = ""
    for values in blocks:
        yield (lead + sep.join([row] * (len(values) // width))) % tuple(values)
        lead = sep


def analyze_report(params: OscillatorParams) -> dict:
    """All analyze quantities as a flat, ordered mapping."""
    canon = oscillator.bopp_shift(params)
    spec = oscillator.mode_spectrum(params)
    state = oscillator.ground_state_lambda_closed(params, spec)
    e_s = oscillator.es_closed_form(params)
    omega, e_f = gaussian.entanglement_of_formation(e_s)
    bounds = oscillator.asymptotic_bounds(params)
    return {
        "m1": params.m1,
        "m2": params.m2,
        "alpha1": params.alpha1,
        "alpha2": params.alpha2,
        "theta": params.theta,
        "big_m1": canon.big_m1,
        "big_m2": canon.big_m2,
        "omega1_sq": canon.omega1_sq,
        "omega2_sq": canon.omega2_sq,
        "b": spec.b,
        "c": spec.c,
        "d": spec.d,
        "sigma1": spec.sigma1,
        "sigma2": spec.sigma2,
        "e00": oscillator.energy_level(spec, 0, 0),
        "lambda11": state.alpha,
        "lambda22": state.beta,
        "lambda12_imag": state.gamma.imag,
        "r": oscillator.anisotropy_ratio(params),
        "e_s": e_s,
        "omega": omega,
        "e_f": e_f,
        "e_s_limit": bounds.e_s_limit,
        "omega0": bounds.omega0,
        "e_f_bound": bounds.e_f_bound,
        "separable": e_s >= 0,
    }


def _render_flat(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    keys = list(report)
    vals = [_fmt(v) if isinstance(v, float) else str(v) for v in report.values()]
    return ",".join(keys) + "\n" + ",".join(vals) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze_report(_params_from(args))
    _write(args.output, _render_flat(report, args.format))
    return EXIT_OK


def sweep_rows(kind: str, start: float, stop: float, steps: int,
               m1: float, m2: float, alpha1: float, alpha2: float,
               theta: float, product: float) -> dict[str, np.ndarray]:
    """Evaluate one sweep as columns, keyed and ordered as the CSV header."""
    import numpy as np

    if steps < 2 or not (start < stop):
        raise DomainError(f"need start < stop and steps >= 2, got [{start}, {stop}] x {steps}")
    if kind == "ratio" and start <= 0:
        raise DomainError("ratio sweeps require start > 0")
    # A negative, NaN or overflowing value becomes an invalid input, which
    # entanglement_columns rejects.
    with np.errstate(all="ignore"):
        value = start + (stop - start) * np.arange(steps) / (steps - 1)
        if kind == "theta":
            theta = value
        else:
            # Fix alpha1*alpha2 = product and set the anisotropy ratio to the
            # sweep value; with r = (a1/m1)/(a2/m2) this pins a1 uniquely.
            alpha1 = np.sqrt(product * value * m1 / m2)
            alpha2 = product / alpha1
    return {"sweep_value": value, **oscillator.entanglement_columns(m1, m2, alpha1, alpha2, theta)}


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    cols = sweep_rows(
        args.kind, args.start, args.stop, args.steps,
        args.m1, args.m2, args.alpha1, args.alpha2, args.theta, args.product,
    )
    keys = SWEEP_HEADER.split(",")
    columns = [cols[k] for k in keys]
    # Each block's rows as one row-major table.
    tables = (np.column_stack([c[lo:lo + BLOCK_ROWS] for c in columns])
              for lo in range(0, args.steps, BLOCK_ROWS))
    if args.format == "csv":
        _write(args.output, SWEEP_HEADER + "\n", map(_g12_csv, tables))
    else:
        head, row, sep, tail = _table_layout("json", keys, "")
        _write(args.output, head, _templated(row, sep, (t.ravel().tolist() for t in tables)), tail)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.n_max < 0 or (args.n_max + 1) ** 2 > MAX_LEVELS:
        raise DomainError(
            f"--n-max must be nonnegative with (n_max + 1)^2 <= {MAX_LEVELS}, got {args.n_max}"
        )
    spec = oscillator.mode_spectrum(_params_from(args))
    n = range(args.n_max + 1)
    levels = sorted((oscillator.energy_level(spec, n1, n2), n1, n2) for n1 in n for n2 in n)
    blocks = ([v for e, n1, n2 in levels[lo:lo + BLOCK_ROWS] for v in (n1, n2, e)]
              for lo in range(0, len(levels), BLOCK_ROWS))
    head, row, sep, tail = _table_layout(args.format, ["n1", "n2", "energy"], "%d,%d,%.12g")
    _write(args.output, head, _templated(row, sep, blocks), tail)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import oracles

    report = oracles.run_validation(_params_from(args))
    _write(args.output, _render_flat(asdict(report), args.format))
    if report.passed:
        return EXIT_OK
    failing = ", ".join(oracles.failing_checks(report))
    print(f"validation failed: {failing} above threshold", file=sys.stderr)
    return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config values go through the parser, so its types and choices
            # apply; appended flags override the command line.
            args = parser.parse_args(argv + _config_argv(args.config, args))
        handler = {
            "analyze": cmd_analyze,
            "sweep": cmd_sweep,
            "spectrum": cmd_spectrum,
            "validate": cmd_validate,
        }[args.command]
        return handler(args)
    except (DomainError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NchoError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
