"""The sweep engine: one enveloped run loop, in-process or on a pool.

Every sweep is a :class:`Sweep`: :func:`repro.sweep.batch.run_batch` runs
its specs through one, and :func:`repro.sweep.shard.run_shard` runs its
slice through one with the global run indices kept.  :meth:`Sweep.run`
validates the specs, looks each one up in the result store once, executes
the misses — in this process, or over a pool — through the same member
function, whose runs :meth:`Sweep._ingest` files and stores, and returns
the sweep's :class:`~repro.sweep.outputs.BatchResult`.

A sweep's event streams take one route.  With an *events_dir* every run
— fresh, in whichever process runs it, or replayed from the store —
writes its ``sched`` stream to its artifact file there
(:func:`~repro.sweep.outputs.run_events_filename`) while the sweep runs;
without one no stream is kept.  The coordinator names each run's file
once, and the run, its store fill and the outputs manifest share that
path.  A sweep's results never hold a stream, so
its memory does not grow with the number of runs.

Every run is enveloped, so failures are data before a
:class:`ResiliencePolicy` decides what they do to the sweep:

* every run finishes in a structured outcome (``ok`` / ``failed`` /
  ``timed-out`` / ``crashed``) with per-attempt :class:`FailureRecord`\\ s
  destined for the ``failures.jsonl`` sidecar;
* transient failures (worker crash, host I/O, injected transients) retry
  up to ``policy.max_attempts`` attempts in all; persistent ones
  quarantine immediately; watchdog timeouts never retry (a deterministic
  ceiling repeats);
* ``policy.keep_going`` quarantines a failed run and completes the sweep
  over the rest; without it — including the library default,
  :meth:`ResiliencePolicy.strict` — the first failed run aborts the sweep
  with :class:`ResilienceAbort`;
* a store fill that fails for good is best-effort caching: the run stays
  in the sweep and the failure is a non-quarantining record;
* on more than one worker, runs travel to a
  :class:`~concurrent.futures.ProcessPoolExecutor` in groups, and a worker
  dying mid-group triggers *bisection*: the group's members are
  re-dispatched individually, each in its own single-worker pool, so the
  poison spec is isolated precisely and the innocents complete.  A crash
  in isolation is one attempt of that run; its re-dispatch continues the
  attempt count under the same cap.

Retries re-run the identical spec with the same derived seed, so a sweep
whose runs all succeed — after retries or not, in-process or pooled — is
byte-identical to any other execution of it.  The pool is a
``ProcessPoolExecutor`` because it surfaces a SIGKILL-ed worker as
:class:`BrokenProcessPool` instead of hanging.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import repro.campaign.runner as runner  # run_spec looked up per run
from repro.analytics.telemetry import TelemetryRecorder
from repro.campaign.metrics import RunResult
from repro.campaign.spec import ScenarioSpec, SpecError, ValidatedSpec
from repro.sweep.envelope import (
    OUTCOME_OK,
    FailureRecord,
    ResiliencePolicy,
    WorkerCrash,
    is_transient,
)
from repro.sweep.errors import ResilienceAbort
from repro.sweep.hooks import (
    NULL_TELEMETRY,
    chaos_point,
    clear_run_index,
    set_run_index,
    tag_phase,
)
from repro.sweep.outputs import BatchResult, run_events_path
from repro.workload.components import build_modules

Group = List[Tuple[int, ScenarioSpec]]

#: Upper bound on specs per worker payload: groups stay small enough that
#: results keep streaming back for incremental store fills / resume.
MAX_GROUP_SIZE = 32

#: Target payloads per worker when grouping a sweep — enough slack that an
#: unlucky worker with slow runs doesn't straggle the whole pool.
_GROUPS_PER_WORKER = 4

#: Where a container's CPU bandwidth quota lives: cgroup v2's ``cpu.max``
#: (``"<quota> <period>"``, quota ``max`` when unlimited), then cgroup v1's
#: quota/period pair (quota ``-1`` when unlimited).
CGROUP_CPU_QUOTA_FILES: Tuple[Tuple[str, ...], ...] = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def cgroup_cpu_quota() -> Optional[float]:
    """The process's cgroup CPU quota in CPUs, or ``None`` when unlimited.

    Unreadable or malformed files count as no quota.
    """
    for paths in CGROUP_CPU_QUOTA_FILES:
        words: List[str] = []
        try:
            for path in paths:
                with open(path, "r", encoding="ascii") as handle:
                    words += handle.read().split()
            quota, period = (int(word) for word in words)
        except (OSError, ValueError):
            continue
        return quota / period if quota > 0 and period > 0 else None
    return None


def default_workers(run_count: int) -> int:
    """The default parallelism for *run_count* runs.

    One worker per usable core — the process's CPU affinity set where the
    platform has one, capped at ``ceil(quota)`` when a cgroup CPU quota is
    set — and never more workers than runs: on a single-core host (or one
    pinned or throttled to a single CPU) a pool only adds fork and IPC
    cost to the same serial work, so the sweep runs in-process there.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, math.ceil(quota))
    return max(1, min(cpus, run_count))


def compute_chunksize(pending: int, workers: int) -> int:
    """Specs per worker payload for a sweep of *pending* runs.

    Large enough to amortize the per-round-trip IPC cost, small enough
    that results stream back for incremental store fills and that the pool
    load-balances (about :data:`_GROUPS_PER_WORKER` payloads per worker),
    capped at :data:`MAX_GROUP_SIZE`.
    """
    if pending <= 0:
        return 1
    if workers <= 1:
        return pending
    per_worker = -(-pending // (workers * _GROUPS_PER_WORKER))
    return max(1, min(MAX_GROUP_SIZE, per_worker))


def import_build_modules(specs: Iterable[ScenarioSpec]) -> None:
    """Import the modules building *specs* needs: the workload components
    and each spec's kernel and platform modules, read off the spec.

    Pool start sites call this before forking: workers inherit the
    coordinator's modules, so none of them compiles a module again, and
    the coordinator composes nothing.  A spec with an invalid platform is
    skipped; the run that executes it reports the error.
    """
    modules = set()
    for spec in specs:
        try:
            modules.update(build_modules(spec))
        except SpecError:
            continue
    for module in sorted(modules):
        importlib.import_module(module)


class Sweep:
    """One sweep's ledger and its one run loop.

    Holds the result, outcome document and failure records of every run,
    keyed by global run index.  :meth:`run` validates, looks each spec up
    once, executes the misses and returns the :class:`BatchResult`;
    :meth:`_ingest` files every executed run and is the sweep's only store
    fill.  ``policy=None`` is :meth:`ResiliencePolicy.strict`.  With
    *events_dir* (a batch's or a shard's output directory, created when
    missing) every run's events go straight to its artifact file there,
    and a store fill reads that file's bytes back.  ``events_paths`` maps
    each validated run's index to that file (``None`` without
    *events_dir*).
    """

    def __init__(
        self,
        policy: Optional[ResiliencePolicy],
        store: Optional[Any],
        refresh: bool,
        telemetry: Any,
        events_dir: Optional[str] = None,
    ):
        self.slots: Dict[int, RunResult] = {}
        self.outcomes: Dict[int, Dict[str, Any]] = {}
        self.failures: List[FailureRecord] = []
        self.events_paths: Dict[int, Optional[str]] = {}
        self.policy = ResiliencePolicy.strict() if policy is None else policy
        self.store = store
        self.refresh = refresh
        self.telemetry = telemetry
        self.events_dir = events_dir

    # -- bookkeeping ---------------------------------------------------
    def finish(
        self,
        index: int,
        scenario: str,
        result: Optional[RunResult],
        attempts: int,
        records: Sequence[FailureRecord] = (),
    ) -> None:
        """File run *index*'s outcome; a failed run aborts the sweep
        unless the policy keeps going."""
        self.failures.extend(records)
        outcome = OUTCOME_OK if result is not None else records[-1].outcome
        self.outcomes[index] = {
            "index": index, "scenario": scenario,
            "outcome": outcome, "attempts": attempts,
        }
        if result is None:
            events_path = self.events_paths.get(index)
            if events_path is not None:
                # A failed run's partial stream must not look like an
                # artifact to a later merge.
                with contextlib.suppress(OSError):
                    os.remove(events_path)
            if not self.policy.keep_going:
                raise ResilienceAbort(records[-1])
            return
        self.slots[index] = result

    def reject(self, index: int, spec: Any, error: BaseException,
               phase: str) -> None:
        """Quarantine run *index* without retrying: *error* escaped before
        any attempt could run (validation, a failed pool dispatch)."""
        tag_phase(error, phase)
        record = FailureRecord.from_exception(error, spec, attempt=1,
                                              index=index)
        record.quarantined = True
        self.finish(index, record.scenario, None, 1, [record])

    # -- the run loop --------------------------------------------------
    def run(self, runs: Group, workers: Optional[int]) -> BatchResult:
        """Run every ``(index, spec)`` of *runs*; the sweep's result in
        run-index order.

        Each spec is validated here, once: invalid specs quarantine and
        store hits replay; the misses run in this process on one worker,
        else grouped over a pool, as :class:`ValidatedSpec` copies that
        ``run_spec`` does not validate again.  *workers* defaults to one
        per usable core, capped at the number of misses.
        """
        if self.events_dir is not None:
            os.makedirs(self.events_dir, exist_ok=True)
        pending: Group = []
        for index, spec in runs:
            try:
                spec.validate()
            except Exception as error:
                # A spec that cannot validate is persistent by definition.
                self.reject(index, spec, error, "validate")
            else:
                pending.append((index, spec))
                self.events_paths[index] = run_events_path(
                    self.events_dir, index, spec.name)
        if self.store is not None and not self.refresh:
            pending = [(index, spec) for index, spec in pending
                       if not self._replay(index, spec)]
        if workers is None:
            workers = default_workers(len(pending))
        workers = max(1, min(workers, len(pending)))
        if workers == 1:
            options = self._options()
            for index, spec in pending:
                self._ingest([_run_member(
                    ValidatedSpec.copy_of(spec), index,
                    self.events_paths[index], self.policy, options)])
        else:
            self._run_in_pool(pending, workers)
        indices = sorted(self.slots)
        return BatchResult(
            results=[self.slots[index] for index in indices],
            workers=workers,
            indices=indices,
            outcomes=[self.outcomes[index] for index in sorted(self.outcomes)],
            failures=sorted(self.failures, key=lambda record: (
                record.index if record.index is not None else -1,
                record.attempt)),
            event_paths=[] if self.events_dir is None else [
                self.events_paths[index] for index in indices],
        )

    def _replay(self, index: int, spec: ScenarioSpec) -> bool:
        """Serve run *index* from the store; ``False`` on a miss.

        A store problem during lookup or replay is never fatal: the entry
        reads as a miss and the run simply re-simulates.
        """
        try:
            with self.telemetry.span("lookup", run=index):
                hit = self.store.lookup(spec)
            if hit is None:
                return False
            with self.telemetry.span("replay", run=index):
                result = hit.replay(collect_events=False,
                                    events_stream=self.events_paths[index])
        except Exception:
            return False
        self.finish(index, spec.name, result, 0)
        return True

    def _run_in_pool(self, pending: Group, workers: int) -> None:
        """Fan groups out over a pool, bisecting the groups a dying worker
        took down until every run has an outcome."""
        chunk = compute_chunksize(len(pending), workers)
        groups = [pending[at:at + chunk]
                  for at in range(0, len(pending), chunk)]
        import_build_modules(spec for _, spec in pending)
        # Bisection: a worker died somewhere inside each crashed group —
        # re-dispatch every member alone to isolate the poison.  Each
        # member carries the attempts its isolated crashes spent.
        queue = [(member, 0)
                 for group in self._dispatch_shared(groups, workers)
                 for member in group]
        while queue:
            retry = []
            for (index, spec), spent in queue:
                if not self._dispatch_isolated(index, spec, spent):
                    continue
                # Its own single-worker pool died: the blame is precise.
                attempt = spent + 1
                record = FailureRecord.from_exception(WorkerCrash(
                    f"pool worker died while running run {index} ({spec.name})"
                ), spec, attempt=attempt, index=index)
                if attempt < self.policy.max_attempts:
                    self.failures.append(record)
                    retry.append(((index, spec), attempt))
                    continue
                record.quarantined = True
                self.finish(index, spec.name, None, attempt, [record])
            queue = retry

    def _options(self) -> Dict[str, Any]:
        """What :func:`_run_member` needs besides the spec and the policy."""
        return {
            "need_store_events": self.store is not None,
            "telemetry": self.telemetry.enabled,
        }

    def _payload(self, group: Group, spent: int = 0) -> Dict[str, Any]:
        payload = self._options()
        payload["specs"] = [(index, spec.to_dict(), self.events_paths[index])
                            for index, spec in group]
        payload["policy"] = self.policy.to_dict()
        payload["spent"] = spent
        return payload

    def _dispatch_shared(self, groups: List[Group], workers: int) -> List[Group]:
        """Fan *groups* out over one pool; returns the groups that crashed.

        When the pool breaks, every unfinished future reports
        :class:`BrokenProcessPool` — including innocents that merely shared
        the pool with the dying worker — so crashed groups carry no blame
        here; isolation assigns it.
        """
        crashed: List[Group] = []
        with _pool(workers) as executor:
            futures: Dict[Any, Group] = {}
            for at, group in enumerate(groups):
                try:
                    future = executor.submit(_execute_payload,
                                             self._payload(group))
                except BrokenProcessPool:
                    crashed.extend(groups[at:])
                    break
                futures[future] = group
            for future in as_completed(futures):
                group = futures[future]
                try:
                    raws = future.result()
                except BrokenProcessPool:
                    crashed.append(group)
                    continue
                except Exception as error:
                    self._dispatch_failure(group, error)
                    continue
                self._ingest(raws)
        return crashed

    def _dispatch_isolated(self, index: int, spec: ScenarioSpec,
                           spent: int) -> bool:
        """Run one member in its own pool, after *spent* attempts;
        ``True`` if the pool crashed."""
        group = [(index, spec)]
        with _pool(1) as executor:
            future = executor.submit(_execute_payload,
                                     self._payload(group, spent))
            try:
                raws = future.result()
            except BrokenProcessPool:
                return True
            except Exception as error:
                self._dispatch_failure(group, error)
                return False
            self._ingest(raws)
            return False

    def _dispatch_failure(self, group: Group, error: BaseException) -> None:
        # The group's worker call itself failed (bad payload, unpicklable
        # result) before per-member enveloping could run: persistent.
        for index, spec in group:
            self.reject(index, spec, error, "dispatch")

    def _ingest(self, raws: List[Dict[str, Any]]) -> None:
        """File executed runs; the sweep's one store fill, so no two
        workers ever write one entry."""
        for raw in raws:
            index = raw["index"]
            records = [FailureRecord.from_dict(document)
                       for document in raw["records"]]
            if raw["outcome"] != OUTCOME_OK:
                self.finish(index, raw["scenario"], None, raw["attempts"],
                            records)
                continue
            # A stream collected for the store alone stays out of the
            # sweep's results.
            result = RunResult(
                spec=raw["spec"], metrics=raw["metrics"],
                timing=raw["timing"],
                events_streamed=raw["events_streamed"],
            )
            self.telemetry.adopt(raw["telemetry"], run=index)
            if self.store is not None:
                store_failure = self._store_result(result, raw["events_jsonl"],
                                                   index)
                if store_failure is not None:
                    # Store fill is best-effort caching: the run stays in
                    # the aggregate, the failure goes to the sidecar.
                    records.append(store_failure)
            self.finish(index, raw["scenario"], result, raw["attempts"],
                        records)

    def _store_result(self, result: RunResult, events_jsonl: bytes,
                      index: int) -> Optional[FailureRecord]:
        """Store one fresh run, retrying transient failures.

        The entry's stream is the file the run streamed to under the
        sweep's *events_dir*, or without one *events_jsonl*, the bytes the
        run collected for the store.  Returns a (non-quarantining) failure
        record when the fill failed for good — caching is best-effort, so
        the result itself survives.
        """
        scenario = result.metrics.get("scenario", "")
        events_path = self.events_paths[index]
        attempt = 0
        while True:
            attempt += 1
            try:
                chaos_point("store", scenario=scenario, index=index)
                with self.telemetry.span("store", run=index):
                    if events_path is not None:
                        with open(events_path, "rb") as handle:
                            events_jsonl = handle.read()
                    entry = self.store.put(result, events_jsonl)
                chaos_point("stored", scenario=scenario, index=index,
                            entry_path=entry.path)
                return None
            except Exception as error:
                tag_phase(error, "store")
                if is_transient(error) and attempt < self.policy.max_attempts:
                    continue
                return FailureRecord.from_exception(
                    error, result.spec, attempt=attempt, index=index)


@contextlib.contextmanager
def _pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A process pool of *workers*, shut down when the block leaves.

    A block that completes has drained its futures, so the pool is joined:
    its manager thread and workers are gone before the sweep returns,
    leaving none for the interpreter's exit hook, whose write to the
    manager's wakeup pipe races the pipe's close.  A block that raises
    cancels what is pending and does not wait.
    """
    executor = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_pool_context())
    try:
        yield executor
    except BaseException:
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown(wait=True)


def _pool_context():
    """Prefer fork (inherits sys.path, cheap) and fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_payload(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Pool worker entry point: run one group, enveloping per member.

    A member's failure is caught *here*: its raw result ships either the
    run's data (``outcome == "ok"``) or its failure records, so one bad
    member never poisons the group's IPC round trip.  Only a hard process
    death escapes — and the coordinator's bisection handles that.
    """
    policy = ResiliencePolicy.from_dict(payload["policy"])
    return [
        _run_member(ValidatedSpec.from_dict(document), index, events_path,
                    policy, payload, payload["spent"])
        for index, document, events_path in payload["specs"]
    ]


def _run_member(spec: ScenarioSpec, index: int, events_path: Optional[str],
                policy: ResiliencePolicy, options: Dict[str, Any],
                spent: int = 0) -> Dict[str, Any]:
    """Run one sweep member — in the sweep's process or a pool worker —
    through the policy's attempt loop, and describe it for
    :meth:`Sweep._ingest`.

    Attempts are numbered on from the *spent* ones (a crashed isolated
    dispatch's), and a transient failure retries while the total stays
    under ``policy.max_attempts``.  Each failed attempt leaves one
    :class:`FailureRecord`, the last one ``quarantined`` when the run
    never succeeded.  Only :class:`Exception`\\ s are enveloped — a
    ``KeyboardInterrupt`` passes straight through.  Events stream to
    *events_path*, the run's artifact file; without one they are
    collected only for a run bound for the store.  Spans go to a recorder
    of the run's own, adopted under its run index."""
    budget = policy.budget()
    records: List[FailureRecord] = []
    result: Optional[RunResult] = None
    attempt = spent
    while result is None:
        attempt += 1
        set_run_index(index)
        try:
            recorder = (TelemetryRecorder() if options["telemetry"]
                        else NULL_TELEMETRY)
            # A retry reopens the stream path, overwriting the failed
            # attempt's partial stream.
            result = runner.run_spec(
                spec, telemetry=recorder, budget=budget,
                events_stream=events_path,
                collect_events=options["need_store_events"],
            )
        except Exception as error:
            record = FailureRecord.from_exception(
                error, spec, attempt=attempt, index=index)
            records.append(record)
            # Persistent failures — watchdog timeouts among them, whose
            # ceiling a retry would hit at the same advance — never retry.
            if not record.transient or attempt >= policy.max_attempts:
                record.quarantined = True
                break
        finally:
            clear_run_index()
    raw = {
        "index": index,
        "scenario": spec.name,
        "outcome": OUTCOME_OK if result is not None else records[-1].outcome,
        "attempts": attempt,
        "records": [record.to_dict() for record in records],
    }
    if result is not None:
        raw.update({
            "spec": result.spec,
            "metrics": result.metrics,
            "timing": result.timing,
            "events_jsonl": result.events_jsonl,
            "events_streamed": result.events_streamed,
            "telemetry": list(recorder.spans),
        })
    return raw
