"""Floors and budgets of the hot plane: dispatch, scheduler, event
streaming and store puts.

Each test runs one small workload, defined in this module.  Three paths
have exact work budgets, which trip on any host: SIM_API dispatch (calls
and held bytes per dispatch, see ``test_dispatch_work_budget``) fails on
a ``sorted()`` scan in the scheduler or a per-dispatch allocation, event
streaming (``repro.obs`` calls per streamed ``sched`` line, see
``test_event_stream_work_budget``) fails when the stream sink renders a
line of a seen shape anew, and store puts (calls, opens, reads and
hashers per put, see ``test_store_put_work_budget``) fail on a re-read
pass.  The kernel's timed and event+timeout waits are budgeted exactly in
``benchmarks/test_obs_bus_overhead.py`` (calls and bytes per wait).

The scheduler test asserts a *generous, noise-tolerant* absolute
wall-clock floor: a development host (CPython 3.11) measures ~4,000,000
ready-queue ops/s, ~8x above it, so a slow CI host still passes while a
structural regression lands well below the wire.  The corpus index build
has an exact budget instead (one open and four ``json.loads`` per entry,
``benchmarks/test_corpus_index.py``).  Calibrated wall-clock medians are
perfbench's (``BENCHMARK.json``); exact work counts per layer are
``repro bench``'s (``BENCH_PR<n>.json``).
"""

import cProfile
import gc
import pstats
import time
import tracemalloc
from typing import Dict

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


def bench_scheduler_ops(
    threads: int = 64, rounds: int = 2000, repeats: int = 3
) -> float:
    """Raw ready-queue operations per second of the bitmap scheduler.

    One operation is one ``add_ready`` or one ``pop_next``; the probe set
    spreads over 32 priority levels so the bitmap scan is exercised, not
    just a single deque.
    """
    probes = [_SchedulerProbe(5 + (index % 32)) for index in range(threads)]
    best = 0.0
    for _ in range(repeats):
        scheduler = PriorityScheduler()
        start = time.perf_counter()
        for _ in range(rounds):
            for probe in probes:
                scheduler.add_ready(probe)
            while scheduler.pop_next() is not None:
                pass
        elapsed = time.perf_counter() - start
        best = max(best, 2 * threads * rounds / elapsed)
    return best


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

#: Conservative absolute floor for any plausible host.
SCHEDULER_OPS_FLOOR = 500_000


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


def test_scheduler_ops_floor():
    rate = bench_scheduler_ops(threads=64, rounds=500, repeats=3)
    print(f"\nscheduler ops: {rate:,.0f}/s (floor {SCHEDULER_OPS_FLOOR:,}/s)")
    assert rate > SCHEDULER_OPS_FLOOR, (
        f"ready-queue ops {rate:,.0f}/s fell below the "
        f"{SCHEDULER_OPS_FLOOR:,}/s floor — the bitmap scheduler regressed"
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
