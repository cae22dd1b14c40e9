"""What the tests share: a runner of the CLI's main, a runner of a fresh interpreter, a setter of the
int<->str digit limit, a recorder of the calls a code path makes, and a count of the Python trace
events it runs."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import subprocess
import sys

import spherectl
from spherectl.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(spherectl.__file__)))


def run(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter: this one, importing spherectl from this checkout, with
    stdout buffered as by default whatever PYTHONUNBUFFERED says, so that a write into a closed pipe or
    a full device fails where the program flushes, not at the write."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def fresh_interpreter(*argv: str, script: str | None = None, redirect: str = "") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a fresh `python -m spherectl.cli argv`, or `python -c script argv`,
    in child_env().  sh applies redirect, such as "1>&-" or "1>/dev/full", to the child it execs, so the
    child starts with those fds closed or pointed elsewhere."""
    command = [sys.executable, *(("-m", "spherectl.cli") if script is None else ("-c", script)), *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    proc = subprocess.run(command, capture_output=True, text=True, env=child_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@contextlib.contextmanager
def int_str_digits(limit: int):
    """Run the body with CPython's int<->str digit limit set to `limit`, if it has one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


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
