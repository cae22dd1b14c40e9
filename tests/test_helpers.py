from __future__ import annotations

import gc
import sys

import pytest

from helpers import trace_events


def test_trace_events_counts_with_the_collector_off():
    # at threshold 1 every container allocation may start a collection, which would run the
    # callback inside the traced call and add its events to the count; the call returns the
    # phases the callback saw while it ran, not those of collections outside it
    ran = []

    def make_cycles() -> list[str]:
        ran.clear()
        for _ in range(200):
            node = []
            node.append(node)
        return list(ran)

    def callback(phase, info):
        ran.append(phase)

    _, alone = trace_events(make_cycles)
    thresholds = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(1)
    try:
        during, with_callback = trace_events(make_cycles)
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(callback)
    assert during == []
    assert with_callback == alone
    assert gc.isenabled()


def test_trace_events_stops_a_call_once_its_count_passes_the_limit():
    def spin():
        for _ in range(10**6):
            pass

    outer = sys.gettrace()
    with pytest.raises(AssertionError, match="^101 trace events, over the limit of 100$"):
        trace_events(spin, limit=100)
    assert sys.gettrace() is outer
    assert gc.isenabled()
