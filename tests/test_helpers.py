from __future__ import annotations

import gc

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
