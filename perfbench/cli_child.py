"""The ``ncho`` command line with every public function traced.

    python perfbench/cli_child.py TRACE_JSON ARG...

Runs ``ncho.cli.main(ARG...)`` as the entry point would, then writes the
per-function call counts and self times of this one operation to
TRACE_JSON and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402

tracer = tracing.Tracer()
import ncho.cli  # noqa: E402

tracing.install(tracer)
try:
    code = ncho.cli.main(sys.argv[2:])
finally:
    tracer.end_op()
    with open(sys.argv[1], "w") as fh:
        json.dump({"calls": tracer.calls, "self_s": tracer.self_s, "ops": tracer.ops}, fh)
sys.exit(code)
