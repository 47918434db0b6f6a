"""``JsonlStreamSink`` writes exactly the generic encoder's lines.

The sink renders a declared shape's line once and cuts it around ``t_ms``;
any input the cut does not take must fall back to
``canonical_json(event_to_dict(e))``, so the two agree on every event, not
only on the ones a run publishes.  Each event is streamed twice through one
sink as an :class:`Event`, and twice through another as a :class:`Shape`:
the second shaped line reuses the cut the first one made, if it made one.
"""

import io
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import ExecutionContext
from repro.obs.bus import Event, Shape, canonical_json, event_to_dict
from repro.obs.sinks import JsonlStreamSink


class _Name(str):
    """A ``str`` subclass: equal to its value, but not an exact ``str``."""


ints = st.one_of(
    st.sampled_from([0, 10**18]), st.integers(min_value=-10**18, max_value=10**18))
floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]), st.floats())
numbers = st.one_of(ints, floats, st.booleans())
strings = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\ud800')),
    st.text(max_size=4).map(_Name),
)
contexts = st.one_of(st.sampled_from(list(ExecutionContext)), strings)


def assert_generic(event):
    expected = 2 * (canonical_json(event_to_dict(event)) + "\n")
    stream = io.StringIO()
    with JsonlStreamSink(stream) as sink:
        sink.handle(event)
        sink.handle(event)
    assert stream.getvalue() == expected
    shape = Shape(event.topic, event.kind, event.fields)
    stream = io.StringIO()
    with JsonlStreamSink(stream) as sink:
        sink.handle_shape(shape, event.t_ns)
        sink.handle_shape(shape, event.t_ns)
    assert stream.getvalue() == expected


def exec_event(t_ns, thread, dur_ns, context, energy_nj, label):
    return Event("sched", "exec", t_ns, {
        "thread": thread, "dur_ns": dur_ns, "context": context,
        "energy_nj": energy_nj, "label": label,
    })


@given(t_ns=ints, thread=strings, dur_ns=ints, context=contexts,
       energy_nj=floats, label=strings)
def test_sched_exec_lines_as_published(t_ns, thread, dur_ns, context, energy_nj, label):
    assert_generic(exec_event(t_ns, thread, dur_ns, context, energy_nj, label))


@given(t_ns=numbers, thread=strings, dur_ns=numbers, context=contexts,
       energy_nj=numbers, label=strings)
def test_sched_exec_lines_of_any_numbers(t_ns, thread, dur_ns, context, energy_nj, label):
    assert_generic(exec_event(t_ns, thread, dur_ns, context, energy_nj, label))


@given(t_ns=numbers, kind=st.one_of(
    st.sampled_from(["dispatch", "preempt", "interrupted", "sleep"]),
    strings.filter(lambda kind: kind != "exec")),
    thread=strings)
def test_sched_marker_lines(t_ns, kind, thread):
    assert_generic(Event("sched", kind, t_ns, {"thread": thread}))


@given(t_ns=numbers, kind=strings, name=strings, value=st.one_of(numbers, strings),
       context=contexts)
def test_other_topic_lines(t_ns, kind, name, value, context):
    assert_generic(Event("svc", kind, t_ns, {
        "name": name, "value": value, "ctx": context, "_private": object(),
    }))
