"""One share of a workload's timed phase, in one fresh process.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE SHARES OUTDIR INDEX

``run.py`` starts this; it is not meant to be run by hand.  The process
imports ``ncho``, builds its inputs from SEED, warms up and prints READY;
the time from its start to that line is one ``setup_s`` sample.  It then
runs whole rounds of operations for SECONDS (one operation in flight,
closed loop) and at least 1/SHARES of the operations the tail percentile
needs, writes each operation's latency to OUTDIR/lat-INDEX.bin, checks the
outputs outside the timed region and prints one JSON line of counts.  With
TRACE 1 the first half of the time runs untraced (OUTDIR/untraced-INDEX.bin)
and the second half with every public ``ncho`` function wrapped by
``tracing``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from ncho import cli, oracles, oscillator  # noqa: E402  (part of the measured set-up)

clock = time.perf_counter
IMPORTTIME_SAMPLES = 3


def src_env() -> dict:
    """The environment for a child interpreter that imports ncho from src/."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def import_times() -> dict[str, float]:
    """Median cumulative import time (ms) of ncho and scipy.linalg, from -X importtime."""
    samples: dict[str, list[float]] = {"ncho": [], "scipy.linalg": []}
    for _ in range(IMPORTTIME_SAMPLES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ncho"], env=src_env(),
                             cwd=ROOT, stderr=subprocess.PIPE, text=True, check=True).stderr
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                seen[parts[2].strip()] = int(parts[1]) / 1e3
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def analyze_points(rng: random.Random, n: int) -> list[tuple]:
    """(m1, m2, alpha1, alpha2, theta) drawn log-uniform; one point in 16 has
    theta = 0 and one in 16 lies exactly on alpha1/m1 = alpha2/m2 (power-of-two
    masses make the equality hold in floating point), so the separable
    branches run too.  theta <= 10 stays where the quartic factors keep 12
    digits (see README.md)."""
    pts = []
    for i in range(n):
        m1, m2 = log_uniform(rng, 0.1, 10), log_uniform(rng, 0.1, 10)
        a1, a2 = log_uniform(rng, 0.1, 10), log_uniform(rng, 0.1, 10)
        th = log_uniform(rng, 0.01, 10)
        if i % 16 == 0:
            th = 0.0
        elif i % 16 == 8:
            m1, m2 = 2.0 ** rng.randint(-3, 3), 2.0 ** rng.randint(-3, 3)
            k = log_uniform(rng, 0.1, 10)
            a1, a2 = k * m1, k * m2
        pts.append((m1, m2, a1, a2, th))
    rng.shuffle(pts)
    return pts


class PointAnalyze:
    """``cli.analyze_report(OscillatorParams(...))`` at one point per operation."""

    round_size = 256
    # p90, as on the other in-process workloads.  About 1 % of these 25 us
    # operations take a timer tick or a host stall, so p99 sits on the edge
    # of that share and moves by a third between runs of the same code.
    tail_pct = 90
    pool_size = 1024

    def __init__(self, seed: int, outdir: Path):
        self.pool = analyze_points(random.Random(seed), self.pool_size)
        self.first: dict[int, dict] = {}
        self.count = [0] * self.pool_size
        self.next = 0

    def round(self):
        start = self.next
        self.next = (start + self.round_size) % self.pool_size
        return range(start, start + self.round_size)

    def op(self, i):
        return cli.analyze_report(oscillator.OscillatorParams(*self.pool[i]))

    def warm_up(self):
        for p in self.pool:
            cli.analyze_report(oscillator.OscillatorParams(*p))

    def record(self, i, out) -> tuple[str | None, list[str]]:
        """(why the operation failed or None, messages on wrong output).

        The first output at each point is checked after the run; every
        repeat must equal it exactly.
        """
        self.count[i] += 1
        if i not in self.first:
            self.first[i] = out
        elif out != self.first[i]:
            return None, [f"point {self.pool[i]}: output differs from its first run"]
        return None, []

    def finish(self) -> tuple[int, list[str]]:
        """(operations whose output is wrong, messages)."""
        import numpy as np
        import checks

        idx = sorted(self.first)
        params = np.array([self.pool[i] for i in idx])
        msgs = checks.check_reports(params, [self.first[i] for i in idx])
        if not msgs:
            return 0, []
        # Find the wrong points one by one; every run of one counts.
        wrong = sum(self.count[i] for k, i in enumerate(idx)
                    if checks.check_reports(params[k:k + 1], [self.first[i]]))
        return wrong, msgs


class SweepFigures:
    """In-process ``ncho sweep --format csv --output FILE`` of 10k rows.

    Theta sweeps at the Fig. 1 parameters (m = 1, 1, alpha = 5, 10) from 0
    to a seeded stop in [10, 30], where E_F is saturated, alternate with
    ratio sweeps (alpha1*alpha2 fixed, r from [0.05, 0.5] to [2, 20]).
    """

    steps = 10000
    tail_pct = 90
    n_configs = 8

    def __init__(self, seed: int, outdir: Path):
        rng = random.Random(seed)
        self.configs = []
        for k in range(self.n_configs):
            if k % 2 == 0:
                cfg = dict(kind="theta", start=0.0, stop=rng.uniform(10, 30),
                           m1=1.0, m2=1.0, alpha1=5.0, alpha2=10.0, theta=0.0, product=2.0)
            else:
                cfg = dict(kind="ratio", start=log_uniform(rng, 0.05, 0.5), stop=log_uniform(rng, 2, 20),
                           m1=1.0, m2=1.0, alpha1=1.0, alpha2=1.0, theta=log_uniform(rng, 0.5, 5),
                           product=log_uniform(rng, 1, 100))
            cfg["steps"] = self.steps
            self.configs.append(cfg)
        self.outdir = outdir
        self.output = str(outdir / "sweep.csv")
        self.argv = []
        for cfg in self.configs:
            argv = ["sweep"]
            for key in ("kind", "start", "stop", "steps", "m1", "m2", "alpha1", "alpha2", "theta", "product"):
                argv += [f"--{key}", cfg[key] if key == "kind" else repr(cfg[key])]
            self.argv.append(argv + ["--format", "csv", "--output", self.output])
        self.digest: dict[int, str] = {}
        self.verdict: dict[int, list[str]] = {}
        self.count = [0] * self.n_configs
        self.next = 0

    def round(self):
        start = self.next
        self.next = (start + 2) % self.n_configs
        return range(start, start + 2)

    def op(self, k):
        return cli.main(self.argv[k])

    def warm_up(self):
        cli.main(self.argv[0])

    def record(self, k, rc):
        if rc != 0:
            return f"sweep {self.configs[k]} exited {rc}", []
        digest = hashlib.sha256(Path(self.output).read_bytes()).hexdigest()
        if k not in self.digest:
            # The first output of each sweep in a run is kept and checked after
            # the timed phase (verdict in first-K.json); later outputs, in this
            # process or the next, must equal it.
            verdict = self.outdir / f"first-{k}.json"
            if verdict.exists():
                kept = json.loads(verdict.read_text())
                self.digest[k], self.verdict[k] = kept["digest"], kept["messages"]
            else:
                self.digest[k] = digest
                os.replace(self.output, self.outdir / f"first-{k}.csv")
        self.count[k] += 1
        if digest != self.digest[k]:
            return None, [f"sweep {k}: output differs from its first run"]
        return None, self.verdict.get(k, [])

    def finish(self):
        import checks

        wrong, msgs = 0, []
        for k in self.digest:
            if k in self.verdict:
                continue
            text = (self.outdir / f"first-{k}.csv").read_text()
            found = [f"sweep {k}: {m}" for m in checks.check_sweep_csv(text, self.configs[k])]
            (self.outdir / f"first-{k}.json").write_text(
                json.dumps({"digest": self.digest[k], "messages": found}))
            wrong += self.count[k] if found else 0
            msgs += found
        return wrong, msgs


class ValidateOracles:
    """``oracles.run_validation`` on the default 257^2 grid.

    Seeded points: m1, m2 in [0.5, 2], alpha1 in [0.5, 2], alpha2/alpha1 in
    [1/2, 2], theta in [0.05, 0.8], where the Schrodinger residual stays
    below half its 1e-2 threshold.  Each round of eight adds one fixed point,
    m = 1, 1, alpha = 5, 20, theta = 1, whose residual of 0.019 fails the
    absolute threshold although the closed forms are right; it does the full
    work and counts as failed.
    """

    per_round = 7
    tail_pct = 90
    pool_rounds = 8
    known_failing = (1.0, 1.0, 5.0, 20.0, 1.0)

    def __init__(self, seed: int, outdir: Path):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(self.per_round * self.pool_rounds):
            a1 = log_uniform(rng, 0.5, 2)
            self.pool.append((log_uniform(rng, 0.5, 2), log_uniform(rng, 0.5, 2), a1,
                              a1 * log_uniform(rng, 0.5, 2), log_uniform(rng, 0.05, 0.8)))
        self.pool.append(self.known_failing)
        self.rounds = 0

    def round(self):
        start = (self.rounds % self.pool_rounds) * self.per_round
        self.rounds += 1
        return list(range(start, start + self.per_round)) + [len(self.pool) - 1]

    def op(self, i):
        return oracles.run_validation(oscillator.OscillatorParams(*self.pool[i]))

    def warm_up(self):
        self.op(0)

    def record(self, i, report):
        import checks

        failing = {"schrodinger_residual"} if self.pool[i] == self.known_failing else set()
        msgs = checks.check_validation(report, frozenset(failing))
        return (None if report.passed else f"validation of {self.pool[i]} did not pass"), msgs

    def finish(self):
        return 0, []


CLI_MAIN = "from ncho.cli import entrypoint; entrypoint()"


class CliCold:
    """A fresh interpreter per operation running the ``ncho`` entry point,
    alternating ``analyze`` and ``spectrum`` with JSON output."""

    n_pairs = 8
    tail_pct = 75
    tracer = None

    def __init__(self, seed: int, outdir: Path):
        rng = random.Random(seed)
        pts = analyze_points(rng, 2 * self.n_pairs)
        self.jobs = []
        for k in range(self.n_pairs):
            self.jobs.append(("analyze", pts[2 * k], None))
            self.jobs.append(("spectrum", pts[2 * k + 1], rng.randint(2, 4)))
        self.env = src_env()
        self.trace_file = None
        self.next = 0

    def argv(self, i):
        kind, p, n_max = self.jobs[i]
        argv = [kind] + [a for k, v in zip(("m1", "m2", "alpha1", "alpha2", "theta"), p)
                         for a in (f"--{k}", repr(v))]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        if self.trace_file:
            return [sys.executable, str(Path(__file__).with_name("cli_child.py")), self.trace_file] + argv
        return [sys.executable, "-c", CLI_MAIN] + argv

    def round(self):
        start = self.next
        self.next = (start + 2) % len(self.jobs)
        return range(start, start + 2)

    def op(self, i):
        return subprocess.run(self.argv(i), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env, cwd=ROOT, text=True)

    def warm_up(self):
        """Nothing beyond the import: each operation is a cold start by design."""

    def record(self, i, proc):
        import numpy as np
        import checks

        kind, p, n_max = self.jobs[i]
        if self.trace_file and os.path.exists(self.trace_file):
            with open(self.trace_file) as fh:
                self.tracer.merge(**json.load(fh))
            os.unlink(self.trace_file)
        if proc.returncode != 0:
            return f"{kind} {p} exited {proc.returncode}: {proc.stderr[-300:]}", []
        try:
            out = json.loads(proc.stdout)
        except ValueError as exc:
            return None, [f"{kind} {p}: bad JSON ({exc})"]
        if kind == "analyze":
            return None, checks.check_reports(np.array([p]), [out])
        return None, checks.check_spectrum(out, p, n_max)

    def finish(self):
        return 0, []


WORKLOADS = {
    "sweep_figures": SweepFigures,
    "point_analyze": PointAnalyze,
    "validate_oracles": ValidateOracles,
    "cli_cold": CliCold,
}


def run_phase(wl, seconds: float, min_ops: int, lat_path: Path, after_op=None) -> dict:
    """Whole rounds until both ``seconds`` have passed and ``min_ops`` are done.

    An operation fails when it raises, exits non-zero or reports failure
    itself, or when its output is wrong; wrong outputs are also listed.
    """
    ops = failed = wrong = 0
    notes: list[str] = []
    buf = array("d")
    with open(lat_path, "wb") as lat:
        end = clock() + seconds
        while clock() < end or ops < min_ops:
            for spec in wl.round():
                t0 = clock()
                try:
                    out = wl.op(spec)
                except Exception as exc:  # counted as a failed operation
                    out = exc
                t1 = clock()
                buf.append(t1 - t0)
                if after_op is not None:
                    after_op()
                if isinstance(out, Exception):
                    why, msgs = f"{spec}: {type(out).__name__}: {out}", []
                else:
                    why, msgs = wl.record(spec, out)
                ops += 1
                failed += bool(why or msgs)
                wrong += bool(msgs)
                if why and why not in notes and len(notes) < 5:
                    notes.append(why)
                notes += msgs[: max(0, 20 - len(notes))]
                if len(buf) >= 1 << 16:
                    buf.tofile(lat)
                    del buf[:]
        buf.tofile(lat)
    return {"attempted": ops, "failed": failed, "wrong": wrong, "notes": notes}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, shares, outdir, index = argv
    seconds, trace, outdir = float(seconds), trace == "1", Path(outdir)
    wl = WORKLOADS[name](int(seed), outdir)
    wl.warm_up()
    print("READY", flush=True)

    # The tail percentile needs ten samples beyond it, over all shares.
    min_ops = math.ceil(math.ceil(10 / (1 - wl.tail_pct / 100)) / int(shares))
    result = {"tail_pct": wl.tail_pct}
    if not trace:
        phase = run_phase(wl, seconds, min_ops, outdir / f"lat-{index}.bin")
    else:
        import tracing

        phase = run_phase(wl, seconds / 2, 1, outdir / f"untraced-{index}.bin")
        tracer = tracing.Tracer()
        if name == "cli_cold":
            wl.tracer, wl.trace_file = tracer, str(outdir / "child_trace.json")
            traced = run_phase(wl, seconds / 2, 1, outdir / f"lat-{index}.bin")
        else:
            tracing.install(tracer)
            traced = run_phase(wl, seconds / 2, 1, outdir / f"lat-{index}.bin", tracer.end_op)
        for key in ("attempted", "failed", "wrong", "notes"):
            phase[key] += traced[key]
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s, "ops": tracer.ops,
                           "grid_points": tracer.grid_points, "import_ms": import_times()}
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    wrong, check_msgs = wl.finish()
    result.update(attempted=phase["attempted"], failed=phase["failed"] + wrong,
                  wrong=phase["wrong"] + wrong, notes=(phase["notes"] + check_msgs)[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
