"""Benchmark of ncho: four closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``ncho`` from ``src/``.  The
workloads, metrics and their bounds are listed in BENCHMARK.json, and
README.md says why each exists.  With ``--trace 0`` a run starts SHARES
fresh ``worker.py`` processes one after another; each sets up (``setup_s``
is the median time from process start to READY) and then runs 1/SHARES of
the timed phase with one operation in flight.  Spreading the samples over
processes averages out what differs between two processes of the same
program (hash seeds, memory layout).  The run reports the end-to-end
metrics over the pooled samples.  With ``--trace 1`` one worker runs the
first half of the time untraced and the second half traced, and the run
reports the per-layer metrics.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHARES = 5
DEADLINE_S = 175.0  # a run must end within 180 s


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


class Worker:
    """A ``worker.py`` process; READY marks the end of its set-up."""

    def __init__(self, args, shares: int, outdir: Path, index: int, deadline: float):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds / shares), str(args.trace), str(shares), str(outdir), str(index)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.stop()
            raise RuntimeError(f"worker did not get ready: {line!r}")

    def result(self) -> dict:
        out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def latencies(paths) -> list[float]:
    data = array("d")
    for path in paths:
        with open(path, "rb") as fh:
            data.frombytes(fh.read())
    return sorted(data)


def end_to_end(results: list[dict], setup: list[float], lat: list[float]) -> tuple[dict, str]:
    """The end-to-end metric values and a line describing the tail sample."""
    n = len(lat)
    tail_pct = results[0]["tail_pct"]
    rank = math.ceil(tail_pct / 100 * n)  # nearest rank
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[rank - 1] * 1e3,
        "ops_per_s": n / math.fsum(lat),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024,
    }
    return values, f"op_tail_ms is p{tail_pct:g} of {n} samples ({n - rank} beyond it)"


def per_layer(names: list[str], res: dict, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer values from the traced half; <module>.<function>.<quantity>."""
    tr = res["trace"]
    values = {}
    for name in names:
        if name.startswith("import."):
            values[name] = tr["import_ms"][{"import.ncho_ms": "ncho", "import.scipy_linalg_ms": "scipy.linalg"}[name]]
        elif name == "trace.overhead_pct":
            base = statistics.median(untraced)
            values[name] = (statistics.median(traced) - base) / base * 100
        else:
            func, quantity = name.rsplit(".", 1)
            calls, self_s = tr["calls"].get(func, 0), tr["self_s"].get(func, 0.0)
            values[name] = {
                "self_us": self_s / calls * 1e6 if calls else 0.0,
                "self_ms": self_s / calls * 1e3 if calls else 0.0,
                "calls_per_op": calls / tr["ops"],
                "grid_points": float(tr["grid_points"]),
            }[quantity]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "ncho" / "__init__.py").is_file():
        print(f"error: no ncho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    outdir = HERE / f".run-{args.workload}-{os.getpid()}"
    outdir.mkdir()
    shares = 1 if args.trace else SHARES
    workers, results = [], []
    try:
        for index in range(shares):
            workers.append(Worker(args, shares, outdir, index, deadline))
            results.append(workers[-1].result())
        lat = latencies(outdir / f"lat-{i}.bin" for i in range(shares))
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(list(units), results[0], latencies([outdir / "untraced-0.bin"]), lat)
            tail_line = None
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values, tail_line = end_to_end(results, [w.setup_s for w in workers], lat)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        for w in workers:
            w.stop()
        shutil.rmtree(outdir, ignore_errors=True)

    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    if tail_line:
        print(tail_line)
    count = {key: sum(r[key] for r in results) for key in ("attempted", "failed", "wrong")}
    print("attempted {attempted} failed {failed} wrong {wrong}".format(**count))
    for note in dict.fromkeys(n for r in results for n in r["notes"]):
        print(f"note: {note}")
    print(json.dumps({
        "correct": count["wrong"] == 0,
        "attempted": count["attempted"],
        "failed": count["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
