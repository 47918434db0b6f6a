"""Execute one scenario spec in-process and collect its RunResult.

The runner is the only place that knows how to go from a declarative
:class:`~repro.campaign.spec.ScenarioSpec` to a finished
:class:`~repro.campaign.metrics.RunResult`: it builds the scenario through
the registry, runs the simulator for the spec's duration while measuring
host wall-clock time (the Table 2 R measure), then harvests deterministic
metrics (SIM_API counters, kernel statistics, energy, CPU utilisation).

Events flow over the simulator's observability bus, and there is one path
for all of them.  The runner creates the run's simulator itself and
subscribes every sink on its bus *before* the scenario is built, so the
events a builder emits while it wires the workload (an RTK-Spec kernel
dispatches its first task at build time) reach each sink live, in stream
order, like every later event.  SIM_API keeps no history of its own; its
counters count whether or not anyone listens.

A run's stream has one form, the canonical JSONL bytes of the streaming
encoder (:class:`~repro.obs.sinks.JsonlStreamSink`), and one sink writes
them per target:

* ``events_stream=<path | "-" | file>`` — the lines go to that target
  *during* the run, at bounded memory (the result holds no stream),
* otherwise, with ``collect_events=True`` — the lines go to an in-memory
  buffer whose bytes become ``RunResult.events_jsonl``.

With a result store attached the entry is filled from those same bytes;
only a run that also streams to ``events_stream`` gets a second,
in-memory sink for the store.  A run that neither collects, streams nor
fills a store subscribes nothing, so its ``sched`` topic stays disabled.

Extra caller sinks (a :class:`~repro.core.gantt.GanttChart`, event lists,
counters) ride along via ``sinks=`` and see the same complete stream; they
are unsubscribed when the run finishes.

A run's stream, and every artifact stored from it, is the ``sched``
topic.  Every run ends with :meth:`Simulator.close`, once its metrics and
streams are final: no suspended process of a finished run is left for the
cyclic GC to finalise inside a later one.
"""

from __future__ import annotations

import io
import time
from typing import IO, TYPE_CHECKING, Any, Dict, Optional, Sequence, Union

from repro.campaign.metrics import RunResult
from repro.campaign.registry import build_scenario
from repro.campaign.spec import ScenarioSpec, ValidatedSpec
from repro.obs.sinks import JsonlStreamSink
from repro.sweep.hooks import NULL_TELEMETRY, chaos_point, tag_phase
from repro.sysc.kernel import Simulator
from repro.sysc.time import SimTime

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.workload.components import ScenarioBuild


def run_spec(
    spec: ScenarioSpec,
    collect_events: bool = True,
    events_stream: "Optional[Union[str, IO[str]]]" = None,
    sinks: Sequence[Any] = (),
    store: Optional[Any] = None,
    refresh: bool = False,
    telemetry: Any = NULL_TELEMETRY,
    budget: Optional[Any] = None,
) -> RunResult:
    """Run one scenario and return its structured result.

    *spec* is validated first — an invalid one raises
    :class:`~repro.campaign.spec.SpecError` — unless it is a
    :class:`~repro.campaign.spec.ValidatedSpec`, which its caller checked.

    With a grid :class:`~repro.grid.store.ResultStore` attached via *store*,
    the run is served from the cache when a verified entry for the spec
    exists: stored metrics and the stored JSONL stream are replayed
    byte-identically through the requested output mode and no simulation
    happens (``result.cached`` is ``True``).  On a miss — or always, with
    ``refresh=True`` — the run executes normally and the JSONL bytes it
    encoded while running become the new entry's stream, written as they
    are (see the module docstring).  Caller *sinks* want the live
    bus, so providing any disables the cache lookup for that call.  Sweeps
    never pass *store*: a :class:`~repro.sweep.engine.Sweep` looks
    each spec up and stores each fresh run itself.

    *telemetry* (a :class:`~repro.analytics.telemetry.TelemetryRecorder`)
    collects pipeline phase spans — compose/build/run/store on the fresh
    path, lookup/replay on a cache hit.  Spans are host wall clock and never
    touch the run's deterministic artifacts: they go to the recorder
    alone, never onto the bus.  The default null recorder keeps nothing.

    *budget* (a :class:`~repro.sweep.watchdog.RunBudget`) arms a
    watchdog on the simulator's advance hooks: a run exceeding its
    simulated-ns or wall-clock ceiling is cancelled with a
    :class:`~repro.sweep.watchdog.WatchdogTimeout` — the normal
    cleanup path still closes sinks and the simulator, and a cancelled
    run is never stored.
    """
    if spec.__class__ is not ValidatedSpec:
        # The one validation of a run, unless the caller already made it
        # (the sweep's plan, ``repro run``'s loader); the build composes
        # the validated copy without checking it again.
        spec = ValidatedSpec.copy_of(spec.validate())
    if store is not None and not refresh and not sinks:
        with telemetry.span("lookup", scenario=spec.name):
            hit = store.lookup(spec)
        if hit is not None:
            with telemetry.span("replay", scenario=spec.name):
                return hit.replay(
                    collect_events=collect_events, events_stream=events_stream
                )
    keeps_events = collect_events and events_stream is None
    # Every sink attaches before the build: builders may already dispatch
    # threads while they wire the workload.
    simulator = Simulator(spec.name)
    bus = simulator.obs
    stream_sink: Optional[JsonlStreamSink] = None
    try:
        if events_stream is not None:
            stream_sink = bus.subscribe(
                JsonlStreamSink(events_stream, topics=("sched",)))
        memory_sink: Optional[JsonlStreamSink] = None
        if keeps_events or store is not None:
            # Lines are encoded to UTF-8 as they arrive, so the finished
            # stream is one bytes buffer, never also one big str.
            memory = io.BytesIO()
            memory_sink = bus.subscribe(JsonlStreamSink(
                io.TextIOWrapper(memory, encoding="utf-8", newline="\n"),
                topics=("sched",)))
        for sink in sinks:
            bus.subscribe(sink)
        try:
            chaos_point("build", scenario=spec.name)
            build = build_scenario(spec, simulator, telemetry=telemetry)
        except Exception as error:
            tag_phase(error, "build")
            raise
        if budget is not None:
            from repro.sweep.watchdog import Watchdog

            Watchdog(budget).arm(simulator)

        campaign_topic = bus.topic("campaign")
        if campaign_topic.enabled:
            campaign_topic.emit(
                "run_start", simulator.now.nanoseconds,
                scenario=spec.name, kernel=spec.kernel, seed=spec.seed,
            )
        chaos_point("run-start", scenario=spec.name)
        start = time.perf_counter()
        simulator.run(SimTime.ms(spec.duration_ms))
        wall_clock_seconds = time.perf_counter() - start
        telemetry.record("run", wall_clock_seconds, scenario=spec.name)
        if campaign_topic.enabled:
            campaign_topic.emit(
                "run_end", simulator.now.nanoseconds,
                scenario=spec.name, seed=spec.seed,
            )
        metrics = _collect_metrics(spec, build)
        timing = _collect_timing(metrics["simulated_ms"], wall_clock_seconds)
        blob = b""
        if memory_sink is not None:
            memory_sink.close()
            blob = memory.getvalue()
    finally:
        if stream_sink is not None:
            stream_sink.close()
        simulator.close()
    result = RunResult(
        spec=spec.to_dict(),
        metrics=metrics,
        timing=timing,
        events_jsonl=blob if keeps_events else b"",
        events_streamed=stream_sink.lines_written if stream_sink else 0,
    )
    if store is not None:
        with telemetry.span("store", scenario=spec.name):
            store.put(result, blob)
    return result


def _collect_metrics(spec: ScenarioSpec, build: "ScenarioBuild") -> Dict[str, Any]:
    """Deterministic simulation metrics of a finished run."""
    api = build.api
    simulator = build.simulator
    simulated = simulator.now
    idle = api.cpu_idle_time()
    busy_fraction = 0.0
    if simulated.to_ns() > 0:
        busy_fraction = max(0.0, 1.0 - idle.to_ns() / simulated.to_ns())
    kernel_stats = build.kernel_statistics()
    return {
        "scenario": spec.name,
        "kernel": spec.kernel,
        "workload": spec.workload,
        "seed": spec.seed,
        "simulated_ms": simulated.to_ms(),
        "context_switches": api.dispatch_count,
        "preemptions": api.preemption_count,
        "interrupts": api.interrupt_count,
        "sim_waits": api.sim_wait_count,
        "syscall_total": kernel_stats.get("service_call_total", 0),
        "syscalls": kernel_stats.get("service_calls", {}),
        "cpu_utilization": round(busy_fraction, 9),
        "cpu_idle_ms": idle.to_ms(),
        "energy_mj": round(api.total_consumed_energy_mj(), 9),
        "threads": len(api.hashtb),
        "delta_cycles": simulator.stats()["delta_cycles"],
        "timed_advances": simulator.advance_count,
        "gantt_segments": api.segment_count,
        "gantt_markers": api.marker_count,
        "kernel_stats": kernel_stats,
        "workload_metrics": build.workload_metrics(),
    }


def _collect_timing(simulated_ms: float, wall_clock_seconds: float) -> Dict[str, Any]:
    """Host-side (non-deterministic) speed measures: R, R/S and S/R."""
    simulated_seconds = simulated_ms / 1000.0
    return {
        "wall_clock_seconds": wall_clock_seconds,
        "r_over_s": (wall_clock_seconds / simulated_seconds)
        if simulated_seconds else None,
        "s_over_r": (simulated_seconds / wall_clock_seconds)
        if wall_clock_seconds else None,
    }
