"""Budgets of the hot plane: dispatch, scheduler, event streaming and
store puts.

Each test runs one small workload, defined in this module, and every
budget is an exact work count, which trips on any host: SIM_API dispatch
(calls and held bytes per dispatch, see ``test_dispatch_work_budget``)
fails on a ``sorted()`` scan in the scheduler or a per-dispatch
allocation, ready-queue ops (calls and scheduler lines per op, equal at 8
and 64 threads, see ``test_scheduler_op_work_budget``) fail on a level
scan, event streaming (``repro.obs`` calls per streamed ``sched`` line,
see ``test_event_stream_work_budget``) fails when the stream sink renders
a line of a seen shape anew, and store puts (calls, opens, reads and
hashers per put, see ``test_store_put_work_budget``) fail on a re-read
pass.  The kernel's timed and event+timeout waits are budgeted exactly in
``benchmarks/test_obs_bus_overhead.py`` (calls and bytes per wait), the
corpus index build in ``benchmarks/test_corpus_index.py`` (one open and
four ``json.loads`` per entry).  Calibrated wall-clock medians are
perfbench's (``BENCHMARK.json``); exact work counts per layer are
``repro bench``'s (``BENCH_PR<n>.json``).
"""

import cProfile
import gc
import pstats
import sys
import tracemalloc
from typing import Dict

import repro.core.scheduler as scheduler_module
from repro.core.scheduler import PriorityScheduler
from repro.core.simapi import SimApi
from repro.sysc.kernel import Simulator


def _ping_pong(rounds: int):
    """The SIM_API dispatch ping-pong, built but not yet run.

    A high-priority task blocks; a low-priority task wakes it and yields at
    a preemption point.  Every round is two dispatches through the external
    scheduler (grant high, high blocks, grant low), all within delta cycles
    — the workload isolates dispatch machinery from timed-queue costs.
    """
    sim = Simulator("bench-dispatch")
    api = SimApi(sim, scheduler=PriorityScheduler())

    def high_body():
        for _ in range(rounds):
            yield from api.block_current()

    high = api.create_thread("high", high_body, priority=5)

    def low_body():
        for _ in range(rounds):
            api.wakeup(high)
            yield from api.preemption_point()

    low = api.create_thread("low", low_body, priority=20)
    api.start_thread(high)
    api.start_thread(low)
    return sim, api


def dispatch_work(rounds: int) -> Dict[str, int]:
    """Exact work of a *rounds*-round ping-pong: its dispatches, the calls
    ``cProfile`` sees while it runs (Python functions and builtins alike),
    and the traced bytes the run still holds when it ends (GC off)."""
    sim, api = _ping_pong(rounds)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    dispatches = api.dispatch_count
    sim.close()
    calls = sum(stat[1] for stat in pstats.Stats(profiler).stats.values())
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        sim, api = _ping_pong(rounds)
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        held_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    sim.close()
    return {"dispatches": dispatches, "calls": calls, "held_bytes": held_bytes}


class _SchedulerProbe:
    """The minimal thread stand-in the ready-pool schedulers require."""

    __slots__ = ("priority",)

    def __init__(self, priority: int):
        self.priority = priority


def scheduler_op_work(threads: int, rounds: int) -> Dict[str, int]:
    """Exact work of *rounds* rounds of ready-queue ops on the bitmap
    scheduler.  A round is ``2 * threads`` ops: it adds *threads* probes,
    one per priority level, and pops them all.  Returns the calls
    ``cProfile`` sees (Python functions and builtins alike) and the lines
    ``sys.settrace`` sees run in ``repro/core/scheduler.py``, which a
    loop without calls adds to."""
    probes = [_SchedulerProbe(5 + index) for index in range(threads)]

    def drive(scheduler: PriorityScheduler) -> None:
        for _ in range(rounds):
            for probe in probes:
                scheduler.add_ready(probe)
            for _ in probes:
                scheduler.pop_next()

    profiler = cProfile.Profile()
    profiler.enable()
    drive(PriorityScheduler())
    profiler.disable()
    calls = sum(stat[1] for stat in pstats.Stats(profiler).stats.values())

    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    def trace(frame, event, arg):
        if frame.f_code.co_filename == scheduler_module.__file__:
            return count_lines
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        drive(PriorityScheduler())
    finally:
        sys.settrace(previous)
    return {"calls": calls, "lines": lines}


def event_stream_calls(kind: str, lines: int) -> int:
    """``repro.obs`` calls to stream *lines* ``sched`` lines of one shape.

    The path of an observed run: ``Topic.emit_shape`` of a
    :class:`~repro.obs.bus.Shape` built as SIM_API builds it into a
    :class:`~repro.obs.sinks.JsonlStreamSink` over memory, *kind*
    ``"dispatch"`` for marker lines or ``"exec"`` for slices.  A warm-up
    pass first, so the count is of the steady state only.
    """
    import io

    from repro.core.events import ExecutionContext
    from repro.obs.bus import EventBus, Shape
    from repro.obs.sinks import JsonlStreamSink
    from repro.perf.bench import repro_calls

    if kind == "exec":
        fields = {"thread": "t0", "dur_ns": 500,
                  "context": ExecutionContext.TASK, "energy_nj": 1.25,
                  "label": "task:t0"}
    else:
        fields = {"thread": "t0"}

    def stream(count):
        bus = EventBus()
        sink = bus.subscribe(JsonlStreamSink(io.StringIO()), ("sched",))
        topic = bus.topic("sched")
        shape = Shape("sched", kind, fields)
        for index in range(count):
            topic.emit_shape(shape, 1000 * index)
        sink.close()

    stream(lines)
    profiler = cProfile.Profile()
    gc.disable()
    profiler.enable()
    try:
        stream(lines)
    finally:
        profiler.disable()
        gc.enable()
    return sum(repro_calls(pstats.Stats(profiler).stats, "obs").values())


def store_put_work(puts: int, events_per_put: int = 50) -> Dict[str, int]:
    """Exact work of *puts* result-store ``put`` calls into a fresh store.

    Each put files a run document and an *events_per_put*-line JSONL
    stream, digests the bytes it writes and lands the entry with one
    atomic rename — the fixed cost a sweep pays per fresh run.  Returns
    every call ``cProfile`` sees (Python functions and builtins alike),
    the files opened (``io.open``), the reads on them and the SHA-256
    hashers created.
    """
    import shutil
    import tempfile

    from repro.campaign.metrics import RunResult
    from repro.grid.store import ResultStore
    from repro.obs.bus import canonical_json

    events = "".join(
        canonical_json({"topic": "sched", "kind": "exec", "t_ns": 1000 * slot,
                        "thread": "t0", "dur_ns": 500}) + "\n"
        for slot in range(events_per_put)
    ).encode("utf-8")
    runs = [
        RunResult({"name": f"bench/{index:04d}", "kernel": "tkernel",
                   "workload": "generated", "seed": index,
                   "duration_ms": 40.0},
                  {"scenario": f"bench/{index:04d}", "seed": index,
                   "context_switches": 10 + index})
        for index in range(puts)
    ]
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    profiler = cProfile.Profile()
    gc.disable()
    try:
        store = ResultStore(root)
        profiler.enable()
        for run in runs:
            store.put(run, events)
        profiler.disable()
    finally:
        gc.enable()
        shutil.rmtree(root, ignore_errors=True)
    work = {"calls": 0, "opens": 0, "reads": 0, "hashers": 0}
    for (_, _, function), (_, calls, _, _, _) in pstats.Stats(profiler).stats.items():
        work["calls"] += calls
        if function == "<built-in method io.open>":
            work["opens"] += calls
        elif function.startswith("<method 'read"):
            work["reads"] += calls
        elif function == "<built-in method _hashlib.openssl_sha256>":
            work["hashers"] += calls
    return work


#: Calls per dispatch of the ping-pong (Python functions and builtins,
#: CPython 3.11); lower it when the dispatch path gets cheaper.
DISPATCH_CALL_BUDGET = 55

#: ``repro.obs`` calls per streamed ``sched`` line of a shape the sink has
#: already rendered, marker or exec alike: ``Topic.emit_shape`` and
#: ``JsonlStreamSink.handle_shape``.  An ``Event`` per line adds its
#: ``__init__``; rendering the line anew (``event_to_dict``,
#: ``canonical_json``) would add two or three.
STREAMED_LINE_CALLS = 2

#: Calls per result-store ``put`` (Python functions and builtins, CPython
#: 3.11); lower it when the write path gets cheaper.
PUT_CALL_BUDGET = 160

#: Files one ``put`` opens (its staging entry file, written once), reads
#: (none: the digests come from the bytes in hand) and hashers it creates
#: (the spec key and one digest per section).
PUT_OPENS, PUT_READS, PUT_HASHERS = 1, 0, 3

#: ``cProfile`` calls per ready-queue op: ``add_ready`` is itself,
#: ``_queue_for``, ``dict.get`` and ``deque.append``; ``pop_next`` is
#: itself, ``int.bit_length`` and ``deque.popleft``.
SCHEDULER_OP_CALLS = 3.5


def test_dispatch_work_budget():
    """Each extra dispatch costs at most DISPATCH_CALL_BUDGET calls and
    holds no memory.  Differencing two run lengths cancels the fixed setup,
    so both figures are exact: a ``sorted()`` scan in the scheduler adds
    calls, a per-dispatch allocation adds a constructor call or held bytes.
    """
    short, long = dispatch_work(1000), dispatch_work(2000)
    dispatches = long["dispatches"] - short["dispatches"]
    calls = (long["calls"] - short["calls"]) / dispatches
    held = (long["held_bytes"] - short["held_bytes"]) / dispatches
    print(f"\ndispatch: {calls:g} calls, {held:+.2f} bytes held "
          f"(budget {DISPATCH_CALL_BUDGET} calls, < 1 byte)")
    assert dispatches == 2000
    assert calls <= DISPATCH_CALL_BUDGET, (
        f"{calls:g} calls per dispatch exceed the budget of "
        f"{DISPATCH_CALL_BUDGET} — the SIM_API dispatch/scheduler path "
        f"does more work per dispatch"
    )
    assert held < 1, (
        f"each dispatch now holds {held:.1f} bytes — something allocates "
        f"and keeps per-dispatch state"
    )


def test_scheduler_op_work_budget():
    """Each ready-queue op costs exactly SCHEDULER_OP_CALLS calls and the
    same number of scheduler lines at 8 and at 64 threads.  Differencing
    two round counts cancels the setup (the level deques a first round
    creates), so the figures are exact: a level scan adds lines per op
    that grow with the levels in use, and calls too if it calls."""
    per_op = {}
    for threads in (8, 64):
        short, long = scheduler_op_work(threads, 20), scheduler_op_work(
            threads, 40)
        ops = 2 * threads * 20
        per_op[threads] = {key: (long[key] - short[key]) / ops
                           for key in long}
    print(f"\nready-queue op: {per_op} (budget {SCHEDULER_OP_CALLS} calls)")
    assert per_op[8] == per_op[64], (
        f"ready-queue op work grows with the thread count: {per_op} — the "
        f"bitmap scheduler scans its levels"
    )
    assert per_op[64]["calls"] <= SCHEDULER_OP_CALLS, (
        f"{per_op[64]['calls']:g} calls per ready-queue op, budget "
        f"{SCHEDULER_OP_CALLS} — the bitmap scheduler does more work per op"
    )


def test_event_stream_work_budget():
    """Each more marker or exec line of a seen shape costs exactly
    STREAMED_LINE_CALLS ``repro.obs`` calls; differencing two run lengths
    cancels the sink's setup and the first line of the shape."""
    for kind in ("dispatch", "exec"):
        calls = (event_stream_calls(kind, 1024)
                 - event_stream_calls(kind, 512)) / 512
        print(f"\nstreamed {kind} line: {calls:g} obs calls "
              f"(budget {STREAMED_LINE_CALLS})")
        assert calls <= STREAMED_LINE_CALLS, (
            f"a streamed {kind} line of a seen shape costs {calls:g} obs "
            f"calls, budget {STREAMED_LINE_CALLS} — the sink renders it "
            f"anew instead of reusing its shape"
        )


def test_store_put_work_budget():
    """Each more ``put`` opens one file, reads none, hashes the spec and
    its two sections and stays within PUT_CALL_BUDGET calls.
    Differencing two put counts cancels the store's setup, so the figures
    are exact: a re-read pass (reopening the written files to digest them)
    adds opens, reads and calls."""
    short, long = store_put_work(30), store_put_work(60)
    per_put = {key: (long[key] - short[key]) / 30 for key in long}
    print(f"\nstore put: {per_put['calls']:g} calls, {per_put['opens']:g} "
          f"opens, {per_put['reads']:g} reads, {per_put['hashers']:g} hashers "
          f"(budget {PUT_CALL_BUDGET} calls)")
    assert (per_put["opens"], per_put["reads"], per_put["hashers"]) == (
        PUT_OPENS, PUT_READS, PUT_HASHERS), (
        f"a put opens {per_put['opens']:g} files, reads {per_put['reads']:g} "
        f"times and creates {per_put['hashers']:g} hashers — the one-file "
        f"write path now re-reads what it wrote or writes more files"
    )
    assert per_put["calls"] <= PUT_CALL_BUDGET, (
        f"{per_put['calls']:g} calls per put exceed the budget of "
        f"{PUT_CALL_BUDGET} — the store's write path does more work per entry"
    )
