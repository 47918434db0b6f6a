"""The discrete-event simulation kernel.

:class:`Simulator` plays the role of the SystemC simulation kernel: it owns
simulated time, the timed event wheel, the delta-cycle machinery and the set
of processes.  The scheduling loop is the classic SystemC one:

1. *Evaluation phase* — run every runnable process until it waits or ends.
2. *Update phase* — apply primitive-channel (signal) update requests.
3. *Delta notification phase* — mature delta notifications; if any process
   became runnable go back to 1 within the same simulation time.
4. *Timed notification phase* — otherwise advance time to the earliest timed
   notification and repeat.

Processes are cooperative generators (see :mod:`repro.sysc.process`).  The
kernel is deliberately single-threaded: determinism is a requirement for the
RTOS model on top (the paper's SIM_API relies on SystemC's deterministic
cooperative scheduling).

The fast core (PR 3)
--------------------

The hot plane operates on plain ``int`` nanoseconds end-to-end;
:class:`~repro.sysc.time.SimTime` appears only at the public API boundary
(``now``, ``run``, ``schedule_callback`` arguments).  Two structural choices
carry the speed:

* **Timestamp buckets over an integer heap.**  Timed activations are grouped
  by their (integer) due time: ``{when_ns: [entries]}`` plus a heap of the
  *distinct* timestamps.  RTOS workloads are tick-aligned — many activations
  share each timestamp — so one heap operation amortises over a whole batch,
  FIFO order within an instant falls out of list append order (no per-entry
  sequence counter), and the same-timestamp batch pop is a plain list scan.
  An entry appended to the live bucket *during* its batch (a zero-delay
  callback) is still executed in that batch, matching the historical heapq
  behaviour.
* **Uniform ``(func, a, b)`` activation entries.**  Timed and delta
  activations both carry two payload slots invoked as ``func(a, b)`` —
  process wakes are ``(sentinel, process, wait_token)``, event
  notifications ``(event._fire, token, None)``, plain callbacks
  ``(self._run_callback, callback, None)`` — so the hot path never allocates
  a nested payload tuple or a closure.

One scheduler frame
-------------------

:meth:`Simulator.run` is the kernel's one scheduler frame: evaluation,
update, delta notification and the timed advance with its bucket drain all
run in its loop, on locals bound once per ``run()`` call, so a timed
advance makes no Python-level call.  An advance is counted
(``advance_count``), published (the ``kernel`` topic's ``advance`` event,
whose ``pending`` counts every queued timed activation, the new instant's
included) and handed to the advance hooks; only then is its bucket drained,
so a hook that raises (the resilience watchdog) leaves the whole bucket
queued.  Every timed wait takes this one path.  The only advance outside
the loop is to a ``run(duration)`` horizon (:meth:`Simulator._advance_to_ns`),
which never drains.

Deterministic choices
---------------------

IEEE 1666-2011 leaves these open.  The kernel makes each one as follows,
and the reference scheduler the tests check it against
(``tests/sysc/reference_kernel.py``) makes the same:

* **Order within a phase.**  An evaluation phase resumes its processes in
  the order they became runnable: registration order at elaboration, then
  the order of the activations, notifications and waiter lists that woke
  them.  An event wakes its waiters in the order they began waiting.  A
  process made runnable *during* an evaluation phase — by an immediate
  ``notify()`` or by registration mid-run — runs in the next evaluation
  phase, after this cycle's update and delta notification phases.
* **FIFO within an instant.**  Timed activations due at one instant run in
  the order they were scheduled, including those scheduled at that instant
  while its bucket drains.  Update requests and delta notifications run in
  request order.
* **Where callbacks run.**  ``schedule_callback`` callbacks, zero delays
  included, are timed activations: they run in the timed phase of their
  instant, outside any process, interleaved with wakes in scheduling
  order.  A zero-delay callback scheduled during evaluation costs one more
  (counted) advance to the same instant.  Cycle hooks run at the start of
  each evaluation phase, after its ``delta`` event; advance hooks at each
  advance, before its drain.
* **Event versus timeout.**  A ``WaitEventTimeout`` ends at whichever comes
  first, its event's notification or its timeout's activation, and the
  other is ignored.  The timeout is a timed activation even at zero delay,
  so a notification in the current instant's delta cycles beats a zero
  timeout.  A timeout due later fires in its instant's drain, before that
  instant's evaluation phases: a timed notification scheduled before the
  timeout wins, and an immediate or delta notification made in that
  instant comes too late.
* **What ``stop()`` means.**  ``stop()`` takes effect after the current
  (or, when called outside evaluation, the next) process resume: the rest
  of that evaluation batch goes back, in order, to the front of the
  runnable list, so the next ``run()`` resumes it first.  The cycle's
  update and delta notification phases still run; then ``run()`` returns,
  with no horizon advance.
* **The horizon of ``run(duration)``.**  ``run(d)`` runs every activation
  due at or before ``now + d``, then advances to ``now + d`` exactly — a
  counted advance with hooks, also when time is already there and later
  activations remain — so the next ``run()`` starts at the horizon.  When
  no activity is left at all it still advances to the horizon, unless
  stopped.  Without a duration ``run()`` returns when no activity is left.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Iterable, Tuple

from repro.obs.bus import EventBus
from repro.sysc.event import SCEvent
from repro.sysc.process import (
    ProcessHandle,
    ProcessState,
    ResumeReason,
    Wait,
    WaitDelta,
    WaitEvent,
    WaitEventTimeout,
    as_sensitivity,
)
from repro.sysc.time import SimTime, ZERO_TIME


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


#: One timed/delta activation ``(func, a, b)``.  ``func`` is either a real
#: callable invoked as ``func(a, b)`` or one of the sentinels below, which
#: the queue drains dispatch on by identity — the wake logic for each
#: sentinel kind exists exactly once, in its drain.
_Entry = Tuple[object, object, object]

#: Sentinel: wake process *a* from a timed wait if token *b* is current.
_TIMED_WAKE = object()
#: Sentinel: wake process *a* from a delta wait if token *b* is current.
_DELTA_WAKE = object()
#: Sentinel: time out process *a*'s event wait if token *b* is current.
_WAIT_TIMEOUT = object()


class _StaticWait:
    """``waiting_on`` of a process in a static wait on several events."""

    @staticmethod
    def remove_waiter(process: ProcessHandle) -> None:
        for event in process.static_sensitivity:
            event.remove_waiter(process)


_STATIC_WAIT = _StaticWait()


class Simulator:
    """A discrete-event simulator with SystemC-like scheduling semantics."""

    def __init__(self, name: str = "sim"):
        self.name = name
        # The int-nanosecond time plane; `now` materialises a SimTime lazily.
        self._now_ns = 0
        self._now_cache: SimTime = ZERO_TIME
        self._delta_count = 0
        self._advance_count = 0
        # Timed activations bucketed by integer due time, with a heap of the
        # distinct timestamps.  Invariant: a timestamp is in the heap exactly
        # while its bucket exists (except the one being drained right now).
        self._timed_buckets: Dict[int, List[_Entry]] = {}
        self._timed_heap: List[int] = []
        self._timed_len = 0
        # Processes runnable in the current evaluation phase; each carries
        # its resume reason in `_resume_reason` (set at wake time).
        self._runnable: List[ProcessHandle] = []
        # Delta-cycle pending activations (event notifications & signal
        # wakes) — same (func, a, b) discipline as the timed plane.
        self._delta_callbacks: List[_Entry] = []
        # Signal/channel update requests for the update phase.
        self._update_requests: List[Callable[[], None]] = []
        self._processes: List[ProcessHandle] = []
        self._process_by_name: Dict[str, ProcessHandle] = {}
        self._running_process: Optional[ProcessHandle] = None
        self._stop_requested = False
        self._started = False
        self._elaborated = False
        # Hooks invoked at the start of every evaluation phase.
        self.cycle_hooks: List[Callable[["Simulator"], None]] = []
        # Hooks invoked after every timed advance, with the new time (the
        # resilience watchdog arms itself here).
        self.advance_hooks: List[Callable[["Simulator", SimTime], None]] = []
        #: The observability bus of this simulation (one per simulator so
        #: concurrent/nested simulations never share instrumentation state).
        self.obs = EventBus()
        self._obs_kernel = self.obs.topic("kernel")
        # Bound method cached once so callback scheduling allocates no
        # fresh method object per request (process wakes use sentinels).
        self._on_run_callback = self._run_callback

    def close(self) -> None:
        """Tear this simulator down.

        Every sink leaves the bus, then every live SC_THREAD generator is
        closed in creation order: their ``finally`` blocks run here, with
        nobody listening, instead of whenever the cyclic GC reaches them —
        which could be in the middle of a later run.  Idempotent.
        """
        self.obs.detach_all()
        for process in self._processes:
            if process.generator is not None:
                process.generator.close()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulation time (a cached boundary object)."""
        cache = self._now_cache
        if cache.nanoseconds != self._now_ns:
            self._now_cache = cache = SimTime(self._now_ns)  # simtime-boundary
        return cache

    @property
    def now_ns(self) -> int:
        """Current simulation time as an integer number of nanoseconds."""
        return self._now_ns

    @property
    def delta_count(self) -> int:
        """Number of delta cycles executed so far."""
        return self._delta_count

    @property
    def advance_count(self) -> int:
        """Number of timed advances executed so far."""
        return self._advance_count

    def get_process(self, name: str) -> ProcessHandle:
        """Look up a process by name."""
        try:
            return self._process_by_name[name]
        except KeyError:
            raise SimulationError(f"no process named {name!r}") from None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def create_event(self, name: str = "") -> SCEvent:
        """Create an event bound to this simulator."""
        return SCEvent(name, simulator=self)

    def register_thread(
        self,
        name: str,
        factory: Callable[[], object],
        sensitivity: "Optional[Iterable[SCEvent] | SCEvent]" = None,
        dont_initialize: bool = False,
    ) -> ProcessHandle:
        """Register an SC_THREAD-style process.

        ``factory`` must be a zero-argument callable returning a generator
        (typically a generator function).  ``sensitivity`` sets the static
        sensitivity list used by argument-less waits (``yield None``).  When
        ``dont_initialize`` is true the process is not made runnable at time
        zero; it waits for its static sensitivity first.
        """
        if name in self._process_by_name:
            raise SimulationError(f"duplicate process name {name!r}")
        handle = ProcessHandle(
            name=name,
            factory=factory,  # type: ignore[arg-type]
            simulator=self,
            static_sensitivity=as_sensitivity(sensitivity),
            dont_initialize=dont_initialize,
        )
        self._processes.append(handle)
        self._process_by_name[name] = handle
        if self._started:
            # Late (dynamic) process creation: elaborate it immediately.
            self._elaborate_process(handle)
        return handle

    def request_update(self, callback: Callable[[], None]) -> None:
        """Queue a primitive-channel update for the update phase."""
        self._update_requests.append(callback)

    # ------------------------------------------------------------------
    # Event scheduling hooks (used by SCEvent)
    # ------------------------------------------------------------------
    def _schedule_event_notification(
        self, event: SCEvent, delay: SimTime, token: object
    ) -> None:
        if delay.nanoseconds <= 0:
            self._delta_callbacks.append((event._fire, token, None))
        else:
            self._schedule_at_ns(
                self._now_ns + delay.nanoseconds, event._fire, token, None
            )

    def schedule_callback(self, delay: "SimTime | int", callback: Callable[[], None]) -> None:
        """Schedule *callback* to run after *delay* of simulated time."""
        delay_ns = delay.nanoseconds if isinstance(delay, SimTime) \
            else SimTime.coerce(delay).nanoseconds
        if delay_ns < 0:
            raise SimulationError("cannot schedule a callback in the past")
        self._schedule_at_ns(
            self._now_ns + delay_ns, self._on_run_callback, callback, None
        )

    def schedule_callback_ns(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Int-nanosecond fast path of :meth:`schedule_callback`."""
        if delay_ns < 0:
            raise SimulationError("cannot schedule a callback in the past")
        self._schedule_at_ns(
            self._now_ns + delay_ns, self._on_run_callback, callback, None
        )

    def _schedule_at_ns(
        self, when_ns: int, func: object, a: object, b: object
    ) -> None:
        """Append a timed activation (internal; *when_ns* must be >= now)."""
        bucket = self._timed_buckets.get(when_ns)
        if bucket is None:
            self._timed_buckets[when_ns] = bucket = []
            heappush(self._timed_heap, when_ns)
        bucket.append((func, a, b))
        self._timed_len += 1

    def _trigger_event(self, event: SCEvent, immediate: bool) -> None:
        """Wake every process waiting on *event*."""
        waiting = event._waiting
        if not waiting:
            return
        if len(waiting) == 1:
            # The dominant notify shape (one suspended thread per run
            # event): wake in place without the _take_waiters list swap.
            process = waiting[0]
            waiting.clear()
            self._wake_process(process, ResumeReason.EVENT, event)
            return
        waiters = event._take_waiters()
        for process in waiters:
            self._wake_process(process, ResumeReason.EVENT, event)

    def _wake_process(
        self, process: ProcessHandle, reason: ResumeReason, event: Optional[SCEvent] = None
    ) -> None:
        if process.state is not ProcessState.WAITING:
            # TERMINATED, or already woken in this phase.
            return
        # Detach from whatever the process was waiting on.
        waiting_on = process.waiting_on
        if waiting_on is not None and waiting_on is not event:
            waiting_on.remove_waiter(process)
        process.waiting_on = None
        process._timeout_token += 1  # invalidate any pending timeout
        process.state = ProcessState.READY
        process._resume_reason = reason
        self._runnable.append(process)

    # Process wakes are queued as (_TIMED_WAKE | _DELTA_WAKE | _WAIT_TIMEOUT,
    # process, token) sentinel entries and handled inline by the queue
    # drains.  Every queued wake carries the process's wait-generation token
    # from scheduling time; throw_into/_wake_process bump the token, so a
    # stale entry surviving in the delta/timed queues can never fire into a
    # *later* wait of the same process.

    @staticmethod
    def _run_callback(callback: Callable[[], None], _unused: object) -> None:
        callback()

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------
    def _elaborate(self) -> None:
        if self._elaborated:
            return
        self._elaborated = True
        for process in list(self._processes):
            self._elaborate_process(process)

    def _elaborate_process(self, process: ProcessHandle) -> None:
        if process.state is ProcessState.TERMINATED:
            # Killed before it ever started (throw_into on a never-started
            # process): elaboration must not resurrect it.
            return
        process.start()
        topic = self._obs_kernel
        if topic.enabled:
            topic.emit("process_start", self._now_ns, process=process.name)
        if process.dont_initialize:
            process.state = ProcessState.WAITING
            self._subscribe_static(process)
        else:
            process.state = ProcessState.READY
            process._resume_reason = ResumeReason.START
            self._runnable.append(process)

    def _subscribe_static(self, process: ProcessHandle) -> None:
        if not process.static_sensitivity:
            raise SimulationError(
                f"process {process.name!r} waits on static sensitivity "
                "but has an empty sensitivity list"
            )
        static = process.static_sensitivity
        for event in static:
            event.add_waiter(process)
        # Whatever ends the wait detaches the process from `waiting_on`: a
        # static wait on several events must leave all of them, or a later
        # notification of one would wake the process out of another wait.
        process.waiting_on = static[0] if len(static) == 1 else _STATIC_WAIT

    # ------------------------------------------------------------------
    # The scheduler
    # ------------------------------------------------------------------
    def run(self, duration: "SimTime | int | None" = None) -> SimTime:
        """Run the simulation.

        With no *duration* the simulation runs until no activity remains or
        :meth:`stop` is called.  With a duration it runs for at most that much
        additional simulated time.  Returns the simulation time reached.

        This is the kernel's one scheduler frame (see the module docstring):
        evaluation, update, delta notification and the timed advance with
        its bucket drain all run in the loop below, on locals bound once per
        call.  No local holds an evaluated batch or a drained bucket past
        its phase, so their entries return to CPython's free lists.
        """
        self._elaborate()
        self._started = True
        self._stop_requested = False
        end_ns: Optional[int] = None
        if duration is not None:
            end_ns = self._now_ns + SimTime.coerce(duration).nanoseconds
        obs_kernel = self._obs_kernel
        buckets = self._timed_buckets
        heap = self._timed_heap
        running = ProcessState.RUNNING
        waiting = ProcessState.WAITING
        ready = ProcessState.READY
        delta_reason = ResumeReason.DELTA
        time_reason = ResumeReason.TIME
        timeout_reason = ResumeReason.TIMEOUT
        timed_wake = _TIMED_WAKE
        delta_wake = _DELTA_WAKE
        wait_timeout = _WAIT_TIMEOUT
        while True:
            if self._runnable:
                # Evaluation phase.
                self._delta_count += 1
                if obs_kernel.enabled:
                    obs_kernel.emit(
                        "delta", self._now_ns,
                        cycle=self._delta_count, runnable=len(self._runnable),
                    )
                if self.cycle_hooks:
                    for hook in self.cycle_hooks:
                        hook(self)
                runnable, self._runnable = self._runnable, []
                now_ns = self._now_ns
                for process in runnable:
                    if process.state is not ready:
                        # Terminated, or thrown into earlier in this
                        # batch and now waiting on something else.
                        continue
                    process.state = running
                    process.resume_count = resume_count = process.resume_count + 1
                    self._running_process = process
                    try:
                        if resume_count != 1:
                            request = process._send(process._resume_reason)
                        else:
                            # First activation: a just-started generator
                            # cannot receive a value; prime it with next().
                            request = next(process.generator)
                    except StopIteration:
                        self._running_process = None
                        self._mark_process_end(process)
                        if self._stop_requested:
                            break
                        continue
                    except BaseException:
                        self._running_process = None
                        raise
                    self._running_process = None
                    if type(request) is Wait:
                        # The dominant request kind, scheduled inline.
                        process.state = waiting
                        duration_ns = request.duration.nanoseconds
                        if duration_ns > 0:
                            when_ns = now_ns + duration_ns
                            bucket = buckets.get(when_ns)
                            if bucket is None:
                                buckets[when_ns] = bucket = []
                                heappush(heap, when_ns)
                            bucket.append(
                                (timed_wake, process, process._timeout_token))
                            self._timed_len += 1
                        else:
                            self._delta_callbacks.append(
                                (delta_wake, process, process._timeout_token))
                    else:
                        self._apply_wait_request(process, request)
                    if self._stop_requested:
                        break
                if self._stop_requested:
                    # The unresumed rest of the batch goes back to the
                    # front, in place: the next run() resumes it first.
                    self._runnable[:0] = runnable[runnable.index(process) + 1:]
                runnable = bucket = None
            # Update phase.
            if self._update_requests:
                updates, self._update_requests = self._update_requests, []
                for update in updates:
                    update()
                updates = None
            # Delta notification phase.
            if self._delta_callbacks:
                callbacks, self._delta_callbacks = self._delta_callbacks, []
                append_runnable = self._runnable.append
                for func, a, b in callbacks:
                    if func is delta_wake:
                        # Delta wake of a process (the common entry kind).
                        if a._timeout_token == b and a.state is waiting:
                            waiting_on = a.waiting_on
                            if waiting_on is not None:
                                waiting_on.remove_waiter(a)
                                a.waiting_on = None
                            a._timeout_token = b + 1
                            a.state = ready
                            a._resume_reason = delta_reason
                            append_runnable(a)
                    else:
                        func(a, b)
                callbacks = None
            if self._stop_requested:
                break
            if self._runnable:
                continue
            # Timed notification phase.
            if not heap:
                break
            when_ns = heap[0]
            if end_ns is not None and when_ns > end_ns:
                # Advance to the horizon (not the event) so advance
                # hooks observe the final interval of the run too.
                self._advance_to_ns(end_ns)
                break
            self._now_ns = when_ns
            self._advance_count += 1
            if obs_kernel.enabled:
                obs_kernel.emit("advance", when_ns, pending=self._timed_len)
            if self.advance_hooks:
                # Before the drain: a hook that raises (the resilience
                # watchdog) leaves the whole bucket queued.
                when = self.now
                for hook in self.advance_hooks:
                    hook(self, when)
            # Drain the bucket of this instant.  Entries appended to it
            # during the drain (zero-delay callbacks) run in this batch.
            heappop(heap)
            bucket = buckets[when_ns]
            append_runnable = self._runnable.append
            index = 0
            try:
                while index < len(bucket):
                    func, a, b = bucket[index]
                    index += 1
                    if func is timed_wake:
                        # Timed wake of a process (the dominant entry kind).
                        if a._timeout_token == b and a.state is waiting:
                            waiting_on = a.waiting_on
                            if waiting_on is not None:
                                waiting_on.remove_waiter(a)
                                a.waiting_on = None
                            a._timeout_token = b + 1
                            a.state = ready
                            a._resume_reason = time_reason
                            append_runnable(a)
                    elif func is wait_timeout:
                        # Event-wait timeout: if the token still matches,
                        # the wait that scheduled it is still active, so
                        # `waiting_on` is exactly its event.  The token is
                        # (historically) not bumped here.
                        if a._timeout_token == b and a.state is waiting:
                            event = a.waiting_on
                            if event is not None:
                                event.remove_waiter(a)
                            a.waiting_on = None
                            a.state = ready
                            a._resume_reason = timeout_reason
                            append_runnable(a)
                    else:
                        func(a, b)
            finally:
                # Keep the queue invariant even when an entry raises:
                # drop the executed prefix, and either retire the bucket
                # or put its unprocessed remainder back under its
                # timestamp, where it stays queued.
                self._timed_len -= index
                if index < len(bucket):
                    del bucket[:index]
                    heappush(heap, when_ns)
                else:
                    del buckets[when_ns]
                bucket = None
        if end_ns is not None and self._now_ns < end_ns and not heap \
                and not self._runnable and not self._stop_requested:
            # Nothing left to do: report the requested horizon anyway.
            self._advance_to_ns(end_ns)
        return self.now

    def stop(self) -> None:
        """Request simulation stop (honoured at the next scheduling point)."""
        self._stop_requested = True

    # -- internal helpers --------------------------------------------------
    def _mark_process_end(self, process: ProcessHandle) -> None:
        """Terminate *process* and publish its lifecycle end event."""
        process._mark_terminated()
        topic = self._obs_kernel
        if topic.enabled:
            topic.emit(
                "process_end", self._now_ns,
                process=process.name, resumes=process.resume_count,
            )

    def _apply_wait_request(self, process: ProcessHandle, request: object) -> None:
        """Suspend *process* on *request*: every request kind but the exact
        ``Wait`` that :meth:`run` schedules inline, and each request a
        process yields while unwinding from :meth:`throw_into`."""
        process.state = ProcessState.WAITING
        if isinstance(request, WaitEvent):
            request.event.add_waiter(process)
            process.waiting_on = request.event
        elif request is None:
            # Argument-less wait: static sensitivity.
            self._subscribe_static(process)
        elif isinstance(request, WaitEventTimeout):
            if request.timeout.nanoseconds < 0:
                raise SimulationError("cannot schedule a callback in the past")
            request.event.add_waiter(process)
            process.waiting_on = request.event
            token = process._timeout_token + 1
            process._timeout_token = token
            self._schedule_at_ns(
                self._now_ns + request.timeout.nanoseconds,
                _WAIT_TIMEOUT, process, token,
            )
        elif isinstance(request, Wait) and request.duration.nanoseconds > 0:
            self._schedule_at_ns(
                self._now_ns + request.duration.nanoseconds,
                _TIMED_WAKE, process, process._timeout_token,
            )
        elif isinstance(request, (Wait, WaitDelta)):
            self._delta_callbacks.append(
                (_DELTA_WAKE, process, process._timeout_token)
            )
        elif isinstance(request, SCEvent):
            # Allow yielding a bare event as shorthand for WaitEvent.
            request.add_waiter(process)
            process.waiting_on = request
        else:
            raise SimulationError(
                f"process {process.name!r} yielded an unsupported wait "
                f"request: {request!r}"
            )

    def throw_into(self, process: ProcessHandle, exception: BaseException) -> None:
        """Raise *exception* inside a waiting process, synchronously.

        The process resumes at its current wait point with the exception
        raised there; any new wait request it yields while unwinding is
        honoured.  Used by RTOS models to force-terminate a task
        (``tk_ter_tsk``) whose body is suspended somewhere in the middle.
        """
        if process.state is ProcessState.TERMINATED:
            return
        if process.state is ProcessState.RUNNING:
            raise SimulationError("cannot throw into the currently running process")
        # Detach the process from whatever it is waiting on.
        if process.waiting_on is not None:
            process.waiting_on.remove_waiter(process)
            process.waiting_on = None
        process._timeout_token += 1
        # Drop any queued activation of this process — in place: the queue
        # drains cache `self._runnable.append`, so the list object must
        # never be swapped out from under a running drain.
        self._runnable[:] = [p for p in self._runnable if p is not process]
        if process.generator is None:
            # Never elaborated/started: there is no body to unwind, the
            # process simply dies (mirrors terminating a dormant task).
            self._mark_process_end(process)
            return
        previous = self._running_process
        self._running_process = process
        process.state = ProcessState.RUNNING
        try:
            request = process.generator.throw(exception)
        except StopIteration:
            self._mark_process_end(process)
            return
        except type(exception):
            # The body let the exception escape entirely: the process dies.
            self._mark_process_end(process)
            return
        finally:
            self._running_process = previous
        self._apply_wait_request(process, request)

    def _advance_to_ns(self, when_ns: int) -> None:
        """Advance to the ``run(duration)`` horizon *when_ns*.

        Counted, published and hooked as an advance of :meth:`run`'s timed
        phase, but it never drains: it is taken only when nothing is due
        at or before the horizon.
        """
        if when_ns < self._now_ns:
            raise SimulationError("time cannot move backwards")
        self._now_ns = when_ns
        self._advance_count += 1
        topic = self._obs_kernel
        if topic.enabled:
            topic.emit("advance", when_ns, pending=self._timed_len)
        if self.advance_hooks:
            when = self.now
            for hook in self.advance_hooks:
                hook(self, when)

    # ------------------------------------------------------------------
    # Convenience helpers for tests & examples
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Kernel-level counters of the run so far (campaign instrumentation)."""
        return {
            "now_ms": self._now_ns / 1_000_000,
            "delta_cycles": float(self._delta_count),
            "processes": float(len(self._processes)),
            "terminated_processes": float(
                sum(1 for p in self._processes if p.state is ProcessState.TERMINATED)
            ),
        }

    def pending_activity(self) -> bool:
        """Whether any runnable process or scheduled activity remains."""
        return bool(self._runnable or self._delta_callbacks or self._timed_buckets)
