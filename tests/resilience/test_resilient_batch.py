"""Sweep-engine failure contracts: byte-identity, quarantine, crash recovery.

Every sweep runs enveloped, so the clean path must be invisible: for the
same spec list, the strict library default (``policy=None``) and the
CLI's keep-going policy — serial and pooled — write **byte-identical**
``aggregate.json`` and per-run event streams.  Under injected faults the
sweep must degrade precisely: poison members quarantine while every other
run completes and aggregates, transient faults retry back to the
byte-identical artifact set, a SIGKILLed pool worker triggers group
bisection plus store-backed resume, and under the strict default the
first failed run aborts the sweep naming it.
"""

import hashlib
import os

import pytest

from repro.campaign.spec import ScenarioSpec, SpecError
from repro.grid.store import ResultStore
from repro.sweep.batch import run_batch
from repro.sweep.chaos import (
    ChaosInjection,
    ChaosInjector,
    chaos_active,
)
from repro.sweep.envelope import (
    OUTCOME_CRASHED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    ResiliencePolicy,
    load_failures,
    write_failures,
)
from repro.sweep.errors import ResilienceAbort
from repro.sweep.outputs import run_events_filename
from repro.sweep.plan import plan_shard
from repro.sweep.shard import merge_shards, run_shard
from repro.workload.families import FamilySpec, expand_family
from tests.grid.entry_files import flip_byte


def _family(count, name="resilience-family"):
    return expand_family(FamilySpec(
        name=name, count=count, seed=11,
        kernels=("tkernel", "rtkspec1"), duration_ms=5.0,
    ))


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _artifact_digests(out_dir, specs, indices=None):
    digests = {"aggregate.json": _digest(os.path.join(out_dir, "aggregate.json"))}
    indices = range(len(specs)) if indices is None else indices
    for index, spec in zip(indices, specs):
        name = run_events_filename(index, spec.name)
        digests[name] = _digest(os.path.join(out_dir, name))
    return digests


class TestCleanPathByteIdentity:
    def test_serial_and_pooled_resilient_match_the_plain_engine(self, tmp_path):
        """The strict default and the keep-going policy, each in-process
        and pooled, write the same bytes."""
        specs = _family(6)
        batches = {}
        for label, policy in (("strict", None),
                              ("resilient", ResiliencePolicy())):
            for workers in (1, 2):
                out = str(tmp_path / f"{label}-{workers}")
                batch = run_batch(specs, workers=workers, policy=policy,
                                  events_dir=out)
                batch.write_outputs(out)
                batches[f"{label}-{workers}"] = batch

        expected = _artifact_digests(str(tmp_path / "strict-1"), specs)
        for label, batch in batches.items():
            assert _artifact_digests(str(tmp_path / label), specs) == expected
            assert all(doc["outcome"] == "ok" for doc in batch.outcomes)
            assert batch.failures == []

    def test_outcomes_cover_every_run_in_index_order(self):
        specs = _family(4)
        batch = run_batch(specs, workers=1, policy=ResiliencePolicy())
        assert [doc["index"] for doc in batch.outcomes] == [0, 1, 2, 3]
        assert batch.indices == [0, 1, 2, 3]


class TestPoisonQuarantine:
    def test_one_poison_member_of_24_quarantines_alone(self, tmp_path):
        specs = _family(24)
        poison = 5
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="build", index=poison),
        ])
        with chaos_active(injector):
            batch = run_batch(specs, workers=1, policy=ResiliencePolicy())
        assert len(batch.results) == 23
        assert batch.indices == [i for i in range(24) if i != poison]
        assert batch.outcomes[poison]["outcome"] == OUTCOME_FAILED
        quarantined = batch.quarantined
        assert len(quarantined) == 1
        assert quarantined[0].index == poison
        assert quarantined[0].phase == "build"
        assert not quarantined[0].transient

        # The survivors' aggregate equals a clean sweep of the 23 healthy
        # specs — failures leave no trace in the deterministic artifacts.
        batch.write_outputs(str(tmp_path / "poisoned"))
        survivors = [spec for i, spec in enumerate(specs) if i != poison]
        clean = run_batch(survivors, workers=1)
        clean.write_outputs(str(tmp_path / "clean"))
        assert _digest(str(tmp_path / "poisoned" / "aggregate.json")) == \
            _digest(str(tmp_path / "clean" / "aggregate.json"))

    def test_fail_fast_aborts_on_the_first_failure(self):
        specs = _family(4)
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="build", index=1),
        ])
        with chaos_active(injector):
            with pytest.raises(ResilienceAbort) as caught:
                run_batch(specs, workers=1,
                          policy=ResiliencePolicy(keep_going=False))
        assert caught.value.record.index == 1

    def test_a_spec_that_fails_validation_quarantines_alone(self):
        specs = _family(3)
        specs[1] = ScenarioSpec(name="invalid", workload="quickstart",
                                duration_ms=-1.0)
        batch = run_batch(specs, workers=1, policy=ResiliencePolicy())
        assert batch.indices == [0, 2]
        assert batch.outcomes[1]["outcome"] == OUTCOME_FAILED
        [record] = batch.quarantined
        assert (record.index, record.phase, record.exception,
                record.attempt) == (1, "validate", "SpecError", 1)

    def test_empty_batch_is_a_spec_error(self):
        with pytest.raises(SpecError):
            run_batch([], policy=ResiliencePolicy())


def _failing_payload(payload):
    raise ValueError("the worker call failed")


class TestDispatchFailure:
    def test_a_failed_worker_call_quarantines_its_group(self, monkeypatch):
        """A pooled group whose worker call raises (anything but a broken
        pool) quarantines every member in the ``dispatch`` phase."""
        import repro.sweep.engine as engine

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(engine, "_execute_payload", _failing_payload)
        batch = run_batch(_family(4), workers=2, policy=ResiliencePolicy())
        assert batch.results == []
        assert [outcome["outcome"] for outcome in batch.outcomes] == \
            [OUTCOME_FAILED] * 4
        assert sorted(record.index for record in batch.quarantined) == \
            [0, 1, 2, 3]
        assert {(record.phase, record.exception)
                for record in batch.quarantined} == {("dispatch", "ValueError")}


class TestBuildAttribution:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
    def test_a_failed_composition_and_a_build_injection_record_build(
            self, workers, tmp_path):
        """``build_scenario`` is each run's only composition lookup, so a
        spec that cannot compose fails in the build phase, like a chaos
        ``build`` injection."""
        specs = _family(3)
        # Validates, but a generated workload without tasks cannot compose.
        specs[1] = ScenarioSpec(name="no-tasks", workload="generated",
                                duration_ms=5.0)
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="build", index=2),
        ])
        with chaos_active(injector):
            batch = run_batch(specs, workers=workers,
                              policy=ResiliencePolicy())
        sidecar = str(tmp_path / "failures.jsonl")
        write_failures(sidecar, batch.failures)
        records, torn = load_failures(sidecar)
        assert torn == 0
        assert [(record["index"], record["phase"], record["exception"])
                for record in records] == [
            (1, "build", "SpecError"), (2, "build", "ChaosError")]
        assert batch.indices == [0]


class TestStrictDefault:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_policy_aborts_naming_the_failed_run(self, workers):
        specs = _family(6)
        poison = 3
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="build", index=poison),
        ])
        with chaos_active(injector):
            with pytest.raises(ResilienceAbort) as caught:
                run_batch(specs, workers=workers)
        record = caught.value.record
        assert record.index == poison
        assert record.attempt == 1 and record.quarantined
        assert f"run {poison} " in str(caught.value)

    def test_no_policy_shard_deletes_the_failed_run_stream(self, tmp_path):
        specs = _family(4)
        poison = 2
        out = tmp_path / "shard"
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="run-start", index=poison),
        ])
        with chaos_active(injector):
            with pytest.raises(ResilienceAbort) as caught:
                run_shard(plan_shard(specs, 1, 0), str(out))
        assert caught.value.record.index == poison
        # The runs before the poison keep their streams; the poison's
        # partial stream is gone, so no merge can mistake it for output.
        for index in range(poison):
            assert (out / run_events_filename(index, specs[index].name)).exists()
        assert not (out / run_events_filename(poison, specs[poison].name)).exists()


class TestTransientRetry:
    def test_retried_sweep_is_byte_identical_to_a_clean_one(self, tmp_path):
        specs = _family(6)
        marker = str(tmp_path / "fired")
        injector = ChaosInjector([
            ChaosInjection(kind="raise-transient", phase="run-start",
                           index=2, once_marker=marker),
        ])
        with chaos_active(injector):
            retried = run_batch(specs, workers=1, policy=ResiliencePolicy(),
                                events_dir=str(tmp_path / "retried"))
        retried.write_outputs(str(tmp_path / "retried"))
        clean = run_batch(specs, workers=1, events_dir=str(tmp_path / "clean"))
        clean.write_outputs(str(tmp_path / "clean"))
        assert _artifact_digests(str(tmp_path / "retried"), specs) == \
            _artifact_digests(str(tmp_path / "clean"), specs)
        assert retried.outcomes[2]["attempts"] == 2
        assert len(retried.failures) == 1
        record = retried.failures[0]
        assert record.transient and not record.quarantined
        assert record.attempt == 1

    def test_persistent_transient_fault_quarantines_at_the_cap(self):
        specs = _family(4)
        injector = ChaosInjector([
            # No once-marker: every attempt fails.
            ChaosInjection(kind="raise-transient", phase="run-start", index=0),
        ])
        with chaos_active(injector):
            batch = run_batch(specs, workers=1,
                              policy=ResiliencePolicy(max_attempts=3))
        assert batch.outcomes[0]["attempts"] == 3
        assert [r.attempt for r in batch.failures] == [1, 2, 3]
        assert [r.quarantined for r in batch.failures] == [False, False, True]


class TestWorkerCrashRecovery:
    def test_one_killed_worker_recovers_to_byte_identity(self, tmp_path):
        # 16 specs on 2 workers → multi-member groups, so the crash
        # takes innocent group members down with it and the bisection path
        # (re-dispatch crashed groups as isolated singles) must recover all.
        specs = _family(16, name="crash-family")
        marker = str(tmp_path / "killed")
        injector = ChaosInjector([
            ChaosInjection(kind="kill-worker", phase="run-start",
                           index=6, once_marker=marker),
        ])
        with chaos_active(injector):
            crashed = run_batch(specs, workers=2, policy=ResiliencePolicy(),
                                events_dir=str(tmp_path / "crashed"))
        crashed.write_outputs(str(tmp_path / "crashed"))
        assert os.path.exists(marker)
        assert len(crashed.results) == 16
        assert all(doc["outcome"] == "ok" for doc in crashed.outcomes)

        clean = run_batch(specs, workers=1, events_dir=str(tmp_path / "clean"))
        clean.write_outputs(str(tmp_path / "clean"))
        assert _artifact_digests(str(tmp_path / "crashed"), specs) == \
            _artifact_digests(str(tmp_path / "clean"), specs)

    def test_persistently_crashing_member_quarantines_with_blame(self):
        specs = _family(12, name="crash-family")
        victim = 4
        injector = ChaosInjector([
            # No once-marker: the victim kills every worker that runs it.
            ChaosInjection(kind="kill-worker", phase="run-start",
                           index=victim),
        ])
        with chaos_active(injector):
            batch = run_batch(specs, workers=2, policy=ResiliencePolicy())
        assert len(batch.results) == 11
        assert batch.outcomes[victim]["outcome"] == OUTCOME_CRASHED
        quarantined = batch.quarantined
        assert len(quarantined) == 1
        assert quarantined[0].index == victim
        assert quarantined[0].exception == "WorkerCrash"

    def test_kill_then_resume_from_store_matches_clean_serial(self, tmp_path):
        # The acceptance scenario: a worker dies mid-sweep, the store keeps
        # the completed runs, and a resumed sweep replays the survivors and
        # simulates only the gap — landing on the byte-identical artifact
        # set of an undisturbed serial run.
        specs = _family(12, name="resume-family")
        store = ResultStore(str(tmp_path / "cache"))
        victim = 7
        injector = ChaosInjector([
            ChaosInjection(kind="kill-worker", phase="run-start",
                           index=victim),
        ])
        with chaos_active(injector):
            first = run_batch(specs, workers=2, store=store,
                              policy=ResiliencePolicy())
        assert len(first.results) == 11
        assert first.outcomes[victim]["outcome"] == OUTCOME_CRASHED

        resumed = run_batch(specs, workers=1, store=store,
                            policy=ResiliencePolicy(),
                            events_dir=str(tmp_path / "resumed"))
        assert len(resumed.results) == 12
        assert resumed.cache_hits == 11  # only the victim simulates
        resumed.write_outputs(str(tmp_path / "resumed"))

        clean = run_batch(specs, workers=1, events_dir=str(tmp_path / "clean"))
        clean.write_outputs(str(tmp_path / "clean"))
        assert _artifact_digests(str(tmp_path / "resumed"), specs) == \
            _artifact_digests(str(tmp_path / "clean"), specs)


    @pytest.mark.parametrize("transient, records, outcome", [
        (False, [("WorkerCrash", 1)], (OUTCOME_OK, 2)),
        (True, [("WorkerCrash", 1), ("TransientChaosError", 2)],
         (OUTCOME_FAILED, 2)),
    ], ids=["crash", "crash-then-transient"])
    def test_attempts_count_on_across_an_isolated_crash(
        self, tmp_path, transient, records, outcome
    ):
        """A crash blamed in isolation is an attempt: the re-dispatched
        run numbers its attempts on from it, under the same cap."""
        specs = _family(8, name="crash-family")
        victim = 3
        # The first kill takes down a shared pool (no blame), the second
        # the victim's own single-worker pool.
        injections = [
            ChaosInjection(kind="kill-worker", phase="run-start", index=victim,
                           once_marker=str(tmp_path / f"killed{n}"))
            for n in range(2)
        ]
        if transient:
            injections.append(ChaosInjection(
                kind="raise-transient", phase="run-start", index=victim,
                once_marker=str(tmp_path / "raised")))
        policy = ResiliencePolicy(max_attempts=2)
        with chaos_active(ChaosInjector(injections)):
            batch = run_batch(specs, workers=2, policy=policy)
        failed = [record for record in batch.failures
                  if record.index == victim]
        attempts = [record.attempt for record in failed]
        summary = batch.outcomes[victim]
        assert [(r.exception, r.attempt) for r in failed] == records
        assert all(a < b for a, b in zip(attempts, attempts[1:]))
        last = attempts[-1] + (summary["outcome"] == OUTCOME_OK)
        assert summary["attempts"] == last
        assert (summary["outcome"], summary["attempts"]) == outcome
        assert summary["attempts"] <= policy.max_attempts
        assert len(batch.results) == 8 - (summary["outcome"] != OUTCOME_OK)


class TestStoreDegradation:
    def test_corrupt_store_entry_is_resimulated_not_fatal(self, tmp_path):
        specs = _family(4)
        store = ResultStore(str(tmp_path / "cache"))
        warm = run_batch(specs, workers=1, store=store,
                         policy=ResiliencePolicy())
        assert len(warm.results) == 4

        # Rot one stored event stream: the verified lookup must treat the
        # entry as a miss and re-simulate instead of raising or replaying
        # bad bytes.
        flip_byte(store.entries()[0][1])

        second = run_batch(specs, workers=1, store=store,
                           policy=ResiliencePolicy())
        assert len(second.results) == 4
        assert second.cache_hits == 3
        assert second.failures == []
        assert warm.aggregate == second.aggregate

    def test_store_fault_has_one_outcome_on_every_path(self, tmp_path):
        """A store fill that fails for good is best-effort caching on the
        serial, pooled and sharded paths alike: the run stays in the
        aggregate, its record does not quarantine, its entry is absent."""
        specs = _family(4)
        victim = 1
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="store", index=victim),
        ])
        aggregates, outcomes, records, stores = {}, {}, {}, {}
        with chaos_active(injector):
            for workers in (1, 2):
                label = f"batch-{workers}"
                stores[label] = ResultStore(str(tmp_path / f"cache-{label}"))
                batch = run_batch(specs, workers=workers, store=stores[label],
                                  policy=ResiliencePolicy())
                batch.write_outputs(str(tmp_path / label))
                aggregates[label] = str(tmp_path / label / "aggregate.json")
                outcomes[label] = [(doc["index"], doc["outcome"])
                                   for doc in batch.outcomes]
                records[label] = [
                    (r.index, r.phase, r.attempt, r.quarantined)
                    for r in batch.failures
                ]
            stores["shard"] = ResultStore(str(tmp_path / "cache-shard"))
            shard_dir = str(tmp_path / "shard")
            document = run_shard(plan_shard(specs, 1, 0), shard_dir,
                                 store=stores["shard"],
                                 policy=ResiliencePolicy())
        merge_shards([shard_dir], str(tmp_path / "merged"))
        aggregates["shard"] = str(tmp_path / "merged" / "aggregate.json")
        assert document["failed"] == 0
        outcomes["shard"] = [(entry["index"], OUTCOME_OK)
                             for entry in document["runs"]]
        sidecar, _torn = load_failures(os.path.join(shard_dir, "failures.jsonl"))
        records["shard"] = [
            (r["index"], r["phase"], r["attempt"], r["quarantined"])
            for r in sidecar
        ]

        assert {label: _digest(path) for label, path in aggregates.items()} \
            == dict.fromkeys(aggregates, _digest(aggregates["batch-1"]))
        for label in aggregates:
            assert outcomes[label] == [(i, OUTCOME_OK) for i in range(4)]
            assert records[label] == [(victim, "store", 1, False)]
            assert [stores[label].lookup(spec) is not None
                    for spec in specs] == [i != victim for i in range(4)]
