"""What the cost-model tests share: a recorder of the calls a code path makes, and a count of
the Python trace events it runs."""

from __future__ import annotations

import gc
import sys


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


def trace_events(call, filename=None, event=None):
    """(call(), the number of sys.settrace events it ran), counting only the frames of code from
    `filename` and only the events named `event`, when given.  The previous tracer is restored
    afterwards.  The cyclic collector is off meanwhile: a collection runs the gc.callbacks
    entries (hypothesis keeps one) at points that differ from run to run, so with it on, the
    count of one call is not repeatable."""
    count = 0

    def trace(frame, kind, arg):
        nonlocal count
        if filename is not None and frame.f_code.co_filename != filename:
            return None
        count += event is None or kind == event
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
