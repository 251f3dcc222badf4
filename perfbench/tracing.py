"""Per-layer timing of ``ncho`` from outside the package.

``install`` replaces the public functions of ``ncho.oscillator``,
``ncho.gaussian``, ``ncho.oracles`` and ``ncho.cli`` (and the
``OscillatorParams`` constructor) by wrappers, in every ``ncho`` module
namespace that binds them, so calls made inside the package go through the
wrappers too.  Each call records a span (name, start, end, parent).  Spans
are kept in memory for one operation; ``Tracer.end_op`` folds them into
per-function call counts and self time (duration minus the time covered by
child spans) and frees them, so a long traced run holds one operation's
spans at a time.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("oscillator", "gaussian", "oracles", "cli")

# The cli subcommand handlers, build_parser and the console entry point
# stay unwrapped: their time (argparse, rendering, writing) is the self time
# of cli.main.
SKIP = {"cli": {"build_parser", "entrypoint", "cmd_analyze", "cmd_sweep", "cmd_spectrum", "cmd_validate"}}


def _public_callables(mod):
    """(name, function) for the functions a module defines, plus OscillatorParams."""
    skip = SKIP.get(mod.__name__.rsplit(".", 1)[-1], set())
    for name, obj in vars(mod).items():
        if name.startswith("_") or name in skip:
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if name == "OscillatorParams" or (callable(obj) and not isinstance(obj, type)):
            yield name, obj


class Tracer:
    """Span recorder shared by every wrapper that ``install`` creates."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.grid_points = 0  # of the last gaussian_moment_quadrature call
        self.ops = 0

    def wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([qualname, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def end_op(self) -> None:
        """Fold the spans of one finished operation into the totals."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - covered)
        self.spans.clear()
        self.ops += 1

    def merge(self, calls: dict, self_s: dict, ops: int) -> None:
        """Add totals folded elsewhere (a traced child process)."""
        for name, n in calls.items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in self_s.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        self.ops += ops


def install(tracer: Tracer) -> None:
    """Wrap every public ``ncho`` function; the wrappers stay for the process."""
    modules = [importlib.import_module(f"ncho.{short}") for short in MODULES]
    originals = {}
    for short, mod in zip(MODULES, modules):
        for name, fn in _public_callables(mod):
            originals[id(fn)] = (f"{short}.{name}", fn)

    quad = modules[MODULES.index("oracles")].gaussian_moment_quadrature

    def quad_with_points(state, grid, *args, **kwargs):
        tracer.grid_points = grid.points_per_axis**2
        return quad(state, grid, *args, **kwargs)

    wrappers = {}
    for key, (qualname, fn) in originals.items():
        target = quad_with_points if fn is quad else fn
        wrappers[key] = tracer.wrap(qualname, target)

    for mod in [importlib.import_module("ncho")] + modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and originals[id(obj)][1] is obj:
                setattr(mod, name, wrappers[id(obj)])
