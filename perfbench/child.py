"""One traced CLI query in a fresh interpreter, for the traced cli_cold run.

    python perfbench/child.py <spherectl arguments...>

Imports spherectl (PYTHONPATH must name the checkout's src), wraps its layers
with layers.LayerTracer, runs spherectl.cli.main on the arguments with stdout
captured, and prints one JSON envelope: the exit code, the captured stdout,
the tracer's summary and its spans.  The untraced cli_cold run uses
`python -m spherectl.cli` instead; this script exists only to see inside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    mods = workloads.load_program(os.path.dirname(HERE))
    tracer = layers.LayerTracer()
    tracer.install(mods)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = mods["cli"].main(sys.argv[1:])
    finally:
        tracer.uninstall()
    tracer.end_op(len(buf.getvalue().encode()), oracle.same_manifold)
    json.dump({"rc": rc, "stdout": buf.getvalue(), "summary": tracer.summary(), "spans": tracer.spans},
              sys.stdout)


if __name__ == "__main__":
    main()
