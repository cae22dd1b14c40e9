"""What the tests share: a runner of the CLI's main, a recorder of the calls a code path makes,
and a count of the Python trace events it runs."""

from __future__ import annotations

import contextlib
import gc
import io
import sys

from spherectl.cli import main


def run(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv), the code of a SystemExit (--help and argparse's
    usage errors) read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit:
            code = exit.code
    return code, out.getvalue(), err.getvalue()


def record_calls(monkeypatch, owner, name="__init__"):
    """Replace owner.name, through monkeypatch, with a wrapper that still runs the original, and
    return the list of the positional arguments of every later call; on a class, the instance
    is left out, so a constructor's calls read as the values it was built from."""
    calls = []
    original, first = getattr(owner, name), 1 if isinstance(owner, type) else 0

    def recording(*args, **kwargs):
        calls.append(args[first:])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def trace_events(call, filename=None, event=None, limit=None):
    """(call(), the number of sys.settrace events it ran), counting only the frames of code from
    `filename` and only the events named `event`, when given.  With a `limit`, the call is stopped
    with AssertionError as soon as the count passes it, so a call that would run for minutes
    fails at once.  The previous tracer is restored afterwards.  The cyclic collector is off
    meanwhile: a collection runs the gc.callbacks entries (hypothesis keeps one) at points that
    differ from run to run, so with it on, the count of one call is not repeatable."""
    count = 0

    def trace(frame, kind, arg):
        nonlocal count
        if filename is not None and frame.f_code.co_filename != filename:
            return None
        count += event is None or kind == event
        if limit is not None and count > limit:
            raise AssertionError(f"{count} trace events, over the limit of {limit}")
        return trace

    outer, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(outer)
        if collecting:
            gc.enable()
    return result, count
