"""Exact work counts of whole runs, measured as Python calls.

Call counts under ``cProfile`` do not depend on the host's speed, so they
can be pinned exactly where a wall-clock bound could not:

* **Constant work per SIM_Wait chunk.**  The paper's S/R figure rests on how
  cheaply ``sim_wait`` turns an annotated budget into simulated time.  A
  run's ``repro.core`` calls are bounded per ``sched/exec`` chunk, and the
  token's firing never hashes an enum member (a Python-level call each).
* **Run isolation.**  A run must do exactly the same work whether it runs
  alone or after another run: no state of run A may leak into run B.
* **One slice, paid once.**  A timed advance costs the DES kernel no call
  of its own, a streamed ``sched`` line renders once per distinct shape,
  no enum member is hashed or read through ``.value`` on the stream path,
  and the LCD widget renders its text only when read.
"""

import cProfile
import enum
import gc
import io
import json
import os
import pstats
import sys
from collections import Counter

import pytest

from repro.campaign.registry import get_scenario
from repro.campaign.runner import run_spec
from repro.perf.bench import REPRO_DIR, profile_run, repro_calls


def _videogame(duration_ms=200):
    return get_scenario("videogame").with_overrides(
        {"gui_enabled": False, "duration_ms": duration_ms}).validate()


#: ``repro.core`` calls per ``sched/exec`` chunk of a 200 ms videogame run
#: (9,164 calls for 1,135 chunks): ``sim_wait``'s resume, its
#: ``_require_running_caller`` and the token's ``fire``, plus dispatch and
#: service-call work.  Resolving a budget anew on each call (no slice
#: plan) reads 15.8; a Python-level ``Transition.__hash__`` per firing and
#: resolving each ``sim_wait_key`` annotation anew read 9.2.
CORE_CALLS_PER_CHUNK = 8.5


def test_sim_wait_chunks_cost_a_constant_number_of_core_calls():
    spec = get_scenario("videogame").with_overrides(
        {"gui_enabled": False, "duration_ms": 200}).validate()
    run_spec(spec, collect_events=False)  # warm-up: caches and lazy imports
    gc.disable()
    try:
        result, stats = profile_run(spec)
    finally:
        gc.enable()
    chunks = result.metrics["gantt_segments"]
    core_calls = sum(repro_calls(stats, "core").values())
    assert chunks > 1000
    assert core_calls <= CORE_CALLS_PER_CHUNK * chunks, (
        f"{core_calls} repro.core calls for {chunks} sched/exec chunks "
        f"({core_calls / chunks:.1f} per chunk)"
    )
    code = enum.Enum.__hash__.__code__
    enum_hash = (code.co_filename, code.co_firstlineno, code.co_name)
    callers = stats.get(enum_hash, (0, 0, 0, 0, {}))[4]
    petri = os.path.join(REPRO_DIR, "core", "petri.py")
    assert not [
        caller for caller in callers if caller[0] == petri and caller[2] == "fire"
    ]


def test_a_firing_makes_one_python_call():
    """A token keys its accumulators by ``Transition.key``, a tuple of
    strings hashed in C: firings of two equal transitions are ``fire``
    calls and nothing else, and they share one S̄ entry."""
    from repro.core.events import ExecutionContext, RunEvent
    from repro.core.petri import PetriToken, Transition

    token = PetriToken("t")
    first, equal = (
        Transition("Ta", RunEvent.CONTINUE, ExecutionContext.TASK)
        for _ in range(2))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for _ in range(50):
            token.fire(first, 10, 1.0)
            token.fire(equal, 10, 1.0)
    finally:
        profiler.disable()
    calls = repro_calls(pstats.Stats(profiler).stats)
    assert calls == {os.path.join("core", "petri.py") + ":fire": 100}
    assert token.characteristic_vector == {"Ta": 100}
    assert token.firings == {first: 100}


ISOLATED_SCENARIOS = [
    "quickstart", "sync-tour", "synthetic-tkernel", "synthetic-rtk", "videogame",
]


@pytest.mark.parametrize("name", ISOLATED_SCENARIOS)
def test_a_run_does_the_same_work_after_another_run(name):
    spec = get_scenario(name)
    # Run A: the next scenario of the list, so every B follows a different A.
    other = ISOLATED_SCENARIOS[
        (ISOLATED_SCENARIOS.index(name) + 1) % len(ISOLATED_SCENARIOS)]
    run_spec(spec, collect_events=False)  # warm-up: caches and lazy imports
    gc.collect()
    _, stats = profile_run(spec)
    alone = repro_calls(stats)
    run_spec(get_scenario(other), collect_events=False)
    gc.collect()
    _, stats = profile_run(spec)
    after = repro_calls(stats)
    differing = {
        key: (alone[key], after[key])
        for key in alone.keys() | after.keys()
        if alone[key] != after[key]
    }
    assert differing == {}, f"{name} after {other}: {differing}"


#: ``repro.sysc`` calls of a 200 ms videogame run, of them those in
#: ``sysc/kernel.py``, and its timed advances.  A timed advance and its
#: bucket drain run inline in ``Simulator.run``'s one scheduler frame, so
#: no kernel call is paid per advance: a helper call per advance adds
#: 1,537, and one per drained bucket adds 934.  The total includes the
#: ``__init__`` of the 333 ``SimTime`` and 12 ``WaitEvent`` values the run
#: constructs; a ``Wait`` or ``ProcessHandle`` costs one counted call.  An
#: SC_THREAD that resumes on every RTC tick adds 1,013, 606 of them in the
#: kernel.
VIDEOGAME_SYSC_CALLS = 10_383
VIDEOGAME_KERNEL_CALLS = 4_918
VIDEOGAME_TIMED_ADVANCES = 1537


def test_videogame_sysc_call_budget():
    spec = _videogame()
    run_spec(spec, collect_events=False)  # warm-up: caches and lazy imports
    gc.disable()
    try:
        result, stats = profile_run(spec)
    finally:
        gc.enable()
    calls = repro_calls(stats, "sysc")
    kernel = os.path.join("sysc", "kernel.py") + ":"
    assert result.metrics["timed_advances"] == VIDEOGAME_TIMED_ADVANCES
    assert sum(calls.values()) == VIDEOGAME_SYSC_CALLS
    assert sum(
        count for key, count in calls.items() if key.startswith(kernel)
    ) == VIDEOGAME_KERNEL_CALLS


def _streamed_profile(spec):
    """Profile a run that streams its ``sched`` events; (stats, lines)."""
    run_spec(spec, collect_events=False, events_stream=io.StringIO())
    stream = io.StringIO()
    profiler = cProfile.Profile()
    gc.disable()
    profiler.enable()
    try:
        run_spec(spec, collect_events=False, events_stream=stream)
    finally:
        profiler.disable()
        gc.enable()
    return pstats.Stats(profiler).stats, stream.getvalue().splitlines()


def test_exec_lines_render_once_per_shape():
    stats, lines = _streamed_profile(_videogame())
    documents = [json.loads(line) for line in lines]
    assert all("topic" not in document for document in documents)  # sched only
    execs = [document for document in documents if document["kind"] == "exec"]
    shapes = {
        (d["thread"], d["context"], d["label"], d["dur_ms"], d["energy_nj"])
        for d in execs
    }
    markers = {
        (d["kind"], d["thread"]) for d in documents if d["kind"] != "exec"}
    encodes = repro_calls(stats, "obs")[
        os.path.join("obs", "bus.py") + ":event_to_dict"]
    assert len(execs) > 10 * len(shapes)
    assert len(documents) - len(execs) > len(markers)
    assert encodes == len(markers) + len(shapes)


#: ``repro.obs`` calls per streamed ``sched`` line of a videogame run:
#: ``Topic.emit_shape`` and ``JsonlStreamSink.handle_shape``.  Differencing
#: a 400 ms and a 200 ms run cancels the setup and the first render of each
#: shape.  An ``Event`` per line (``Topic.emit``, ``Event.__init__``,
#: ``JsonlStreamSink.handle``) reads 3.0.
OBS_CALLS_PER_SCHED_LINE = 2


def test_a_streamed_sched_line_costs_two_obs_calls():
    runs = []
    for duration_ms in (200, 400):
        stats, lines = _streamed_profile(_videogame(duration_ms))
        runs.append((len(lines), sum(repro_calls(stats, "obs").values())))
    (short_lines, short_calls), (long_lines, long_calls) = runs
    assert long_lines - short_lines > 1000
    per_line = (long_calls - short_calls) / (long_lines - short_lines)
    assert per_line <= OBS_CALLS_PER_SCHED_LINE, (
        f"{per_line:g} repro.obs calls per streamed sched line, budget "
        f"{OBS_CALLS_PER_SCHED_LINE}")


def test_no_process_resumes_to_count_rtc_ticks():
    """The RTC's tick count is its clock's posedge count: 200 ms of the
    co-simulation call nothing in ``bfm/rtc.py`` but the one read of
    ``tick_count``.  A counting SC_THREAD resumes once per tick."""
    from repro.app.framework import CoSimulationFramework, FrameworkConfig
    from repro.sysc.time import SimTime

    framework = CoSimulationFramework(FrameworkConfig(gui_enabled=False))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        framework.simulator.run(SimTime.ms(200))
        ticks = framework.bfm.rtc.tick_count
    finally:
        profiler.disable()
    calls = repro_calls(pstats.Stats(profiler).stats, "bfm")
    rtc = os.path.join("bfm", "rtc.py") + ":"
    assert ticks == 201  # the posedges at 0, 1, ..., 200 ms
    assert {key: count for key, count in calls.items() if key.startswith(rtc)} \
        == {rtc + "tick_count": 1}


def _enum_frames_by_caller(run):
    """Count ``Enum.__hash__`` and ``Enum.value`` frames by calling file."""
    targets = {
        enum.Enum.__hash__.__code__,
        enum.Enum.__dict__["value"].fget.__code__,
    }
    enum_file = enum.Enum.__hash__.__code__.co_filename
    callers = Counter()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in targets:
            caller = frame.f_back
            while caller is not None and caller.f_code.co_filename == enum_file:
                caller = caller.f_back
            if caller is not None:
                callers[(frame.f_code.co_name, caller.f_code.co_filename)] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return callers


def test_the_stream_path_never_hashes_or_reads_an_enum_member():
    spec = _videogame()
    run_spec(spec, collect_events=False, events_stream=io.StringIO())
    callers = _enum_frames_by_caller(
        lambda: run_spec(spec, collect_events=False, events_stream=io.StringIO()))
    simapi = os.path.join(REPRO_DIR, "core", "simapi.py")
    obs = os.path.join(REPRO_DIR, "obs", "")
    offending = {
        key: count for key, count in callers.items()
        if key[1] == simapi or key[1].startswith(obs)
    }
    assert offending == {}


def test_lcd_text_renders_at_most_once_per_read():
    from repro.app.framework import CoSimulationFramework, FrameworkConfig
    from repro.sysc.time import SimTime

    framework = CoSimulationFramework(FrameworkConfig(gui_enabled=False))
    widget = framework.widgets.lcd
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        framework.simulator.run(SimTime.ms(200))
        first = widget.last_text
        again = widget.last_text
        rendered = widget.render()
    finally:
        profiler.disable()
    calls = repro_calls(pstats.Stats(profiler).stats)
    reads = calls[os.path.join("app", "widgets.py") + ":last_text"]
    texts = calls[os.path.join("bfm", "peripherals.py") + ":text"]
    assert widget.callback_count > 10
    assert reads == 3
    assert texts <= 1
    assert first == again == framework.bfm.lcd.text()
    assert first[0] in rendered
