"""``repro.obs`` — the unified observability bus.

One streaming event pipeline across the DES kernel, RTOS model, BFM and
campaign layers.  See :mod:`repro.obs.bus` for the architecture and the
zero-cost publishing contract, :mod:`repro.obs.sinks` for the consumption
patterns, and :mod:`repro.obs.replay` for the one reader of stored JSONL
streams.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bus": (
        "TOPICS",
        "Event",
        "EventBus",
        "Shape",
        "Topic",
        "canonical_json",
        "event_to_dict",
    ),
    ".sinks": (
        "Sink",
        "ListSink",
        "CounterSink",
        "StreamingHistogram",
        "JsonlStreamSink",
    ),
})
