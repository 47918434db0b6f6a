"""Batch engine: planning, parallel == serial, artifact writing."""

import json
import os
import threading
from collections import Counter

import pytest

from repro.campaign.metrics import (
    aggregate_metrics,
    canonical_json,
    compare_metrics,
    write_whole_file,
)
from repro.grid.store import ResultStore
from repro.sweep.batch import run_batch
from repro.sweep.envelope import FailureRecord, write_failures
from repro.sweep.outputs import run_events_filename
from repro.sweep.plan import plan_batch


def small_matrix_specs():
    """Four fast runs across two kernels (rtk scenarios are the cheapest)."""
    return plan_batch(
        ["rtk-round-robin", "rtk-priority"],
        matrix={"seed": [1, 2]},
        overrides={"duration_ms": 80.0},
    )


class TestPlanning:
    def test_plan_expands_scenarios_times_matrix(self):
        specs = plan_batch(
            ["quickstart", "sync-tour"], matrix={"seed": [1, 2], "tick_ms": [1, 2]}
        )
        assert len(specs) == 8
        assert len({spec.name for spec in specs}) == 8

    def test_overrides_apply_to_every_run(self):
        specs = small_matrix_specs()
        assert all(spec.duration_ms == 80.0 for spec in specs)


class TestParallelExecution:
    def test_parallel_matches_serial_byte_for_byte(self):
        specs = small_matrix_specs()
        serial = run_batch(specs, workers=1)
        parallel = run_batch(specs, workers=2)
        assert parallel.workers == 2
        assert canonical_json(parallel.deterministic_document()) == \
            canonical_json(serial.deterministic_document())

    def test_results_keep_spec_order(self):
        specs = small_matrix_specs()
        batch = run_batch(specs, workers=2)
        assert [r.metrics["scenario"] for r in batch.results] == \
            [spec.name for spec in specs]

    def test_the_pool_is_joined_when_the_batch_returns(self):
        from concurrent.futures.process import _ExecutorManagerThread

        batch = run_batch(small_matrix_specs(), workers=2)
        assert batch.workers == 2
        assert not [thread for thread in threading.enumerate()
                    if isinstance(thread, _ExecutorManagerThread)]

    def test_workers_capped_by_run_count(self):
        specs = small_matrix_specs()[:1]
        batch = run_batch(specs, workers=16)
        assert batch.workers == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batch([])


class TestAggregation:
    def test_aggregate_sums_and_means(self):
        aggregate = aggregate_metrics(
            [{"a": 2, "nested": {"b": 10}}, {"a": 4, "nested": {"b": 20}}]
        )
        assert aggregate["runs"] == 2
        assert aggregate["total"]["a"] == 6.0
        assert aggregate["mean"]["nested.b"] == 15.0

    def test_missing_keys_average_over_occurrences(self):
        aggregate = aggregate_metrics([{"a": 2}, {"b": 8}])
        assert aggregate["mean"]["a"] == 2.0
        assert aggregate["mean"]["b"] == 8.0

    def test_booleans_are_not_metrics(self):
        aggregate = aggregate_metrics([{"flag": True, "x": 1}])
        assert "flag" not in aggregate["total"]

    def test_compare_aligns_union_of_keys(self):
        rows = compare_metrics({"a": 1, "shared": 5}, {"b": 2, "shared": 7})
        by_key = {row[0]: row for row in rows}
        assert by_key["shared"][3] == 2
        assert by_key["a"][2] == ""  # missing right side
        assert by_key["b"][1] == ""  # missing left side


class TestArtifacts:
    def test_write_outputs(self, tmp_path):
        specs = small_matrix_specs()
        batch = run_batch(specs, workers=2, events_dir=str(tmp_path))
        manifest = batch.write_outputs(str(tmp_path))

        assert len(manifest["events"]) == len(specs)
        for path in manifest["events"]:
            assert os.path.exists(path)
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            assert lines and all(json.loads(line) for line in lines)

        with open(manifest["metrics"], "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["campaign"]["runs"] == len(specs)
        assert len(document["runs"]) == len(specs)
        assert document["aggregate"]["total"]["context_switches"] > 0
        assert document["timing"]["workers"] == 2
        # host timing never leaks into the deterministic sections
        assert "wall_clock_seconds" not in canonical_json(
            {"runs": document["runs"], "aggregate": document["aggregate"]}
        )

    def test_without_events_dir_no_stream_is_written(self, tmp_path):
        batch = run_batch(small_matrix_specs(), workers=1)
        manifest = batch.write_outputs(str(tmp_path))
        assert manifest["events"] == []
        assert sorted(os.listdir(tmp_path)) == ["aggregate.json",
                                                "metrics.json"]
        assert all(result.events_jsonl == b"" for result in batch.results)

    def test_metrics_and_aggregate_files_are_the_canonical_documents(
        self, tmp_path
    ):
        batch = run_batch(small_matrix_specs(), workers=1)
        manifest = batch.write_outputs(str(tmp_path))
        for key, document in (("metrics", batch.document()),
                              ("aggregate", batch.deterministic_document())):
            with open(manifest[key], "r", encoding="utf-8") as handle:
                assert handle.read() == canonical_json(document) + "\n"


class TestEventStreaming:
    """A batch with an events directory streams each run's events to its
    artifact file while it runs, as a shard does; no result holds them."""

    def test_each_file_is_on_disk_before_the_next_run_starts(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.runner as runner_module

        specs = small_matrix_specs()
        paths = [tmp_path / run_events_filename(index, spec.name)
                 for index, spec in enumerate(specs)]
        seen = []
        real_run_spec = runner_module.run_spec

        def watching_run_spec(spec, *args, **kwargs):
            seen.append([path.is_file() and path.stat().st_size > 0
                         for path in paths])
            return real_run_spec(spec, *args, **kwargs)

        monkeypatch.setattr(runner_module, "run_spec", watching_run_spec)
        batch = run_batch(specs, workers=1, events_dir=str(tmp_path))
        assert seen == [[index < k for index in range(len(specs))]
                        for k in range(len(specs))]
        assert all(result.events_jsonl == b"" for result in batch.results)
        assert [result.events_streamed for result in batch.results] == [
            path.read_bytes().count(b"\n") for path in paths]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hits_and_fresh_runs_stream_the_stored_bytes(self, tmp_path,
                                                         workers):
        specs = small_matrix_specs()
        store = ResultStore(str(tmp_path / "cache"))
        cold = run_batch(specs[:2], workers=1, store=store)
        assert all(result.events_jsonl == b"" for result in cold.results)
        out = tmp_path / "out"
        batch = run_batch(specs, workers=workers, store=store,
                          events_dir=str(out))
        assert batch.cache_hits == 2
        assert all(result.events_jsonl == b"" for result in batch.results)
        for index, spec in enumerate(specs):
            artifact = out / run_events_filename(index, spec.name)
            assert artifact.read_bytes() == store.lookup(spec).events_blob

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_run_names_its_events_file_once(self, tmp_path, monkeypatch,
                                                 workers):
        """The coordinator names a run's file once; the run, its store
        fill or replay and the outputs manifest share that path."""
        import repro.sweep.outputs as outputs_module

        specs = small_matrix_specs()
        store = ResultStore(str(tmp_path / "cache"))
        real_filename = outputs_module.run_events_filename
        named = Counter()

        def counting_filename(index, scenario):
            named[index] += 1
            return real_filename(index, scenario)

        monkeypatch.setattr(outputs_module, "run_events_filename",
                            counting_filename)
        for label, hits in (("cold", 0), ("warm", len(specs))):
            named.clear()
            out = tmp_path / label
            batch = run_batch(specs, workers=workers, store=store,
                              events_dir=str(out))
            manifest = batch.write_outputs(str(out))
            assert batch.cache_hits == hits
            assert named == Counter(range(len(specs))), label
            assert manifest["events"] == [
                str(out / real_filename(index, spec.name))
                for index, spec in enumerate(specs)]


class TestInPlaceRewrites:
    """Outputs are rewritten in place (no truncate-to-zero first); an
    existing file of any length ends up holding exactly the new bytes."""

    @pytest.mark.parametrize("old_size", [0, 3, 100_000],
                             ids=["empty", "shorter", "longer"])
    def test_write_events_leaves_exactly_the_new_bytes(self, tmp_path,
                                                       old_size):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"x" * old_size)
        stream = b'{"kind":"exec"}\n' * 50
        write_whole_file(str(path), stream)
        assert path.read_bytes() == stream

        # A store hit replays its verified stream into the artifact file.
        spec = small_matrix_specs()[0]
        store = ResultStore(str(tmp_path / "cache"))
        run_batch([spec], workers=1, store=store)
        artifact = tmp_path / run_events_filename(0, spec.name)
        artifact.write_bytes(b"x" * old_size)
        hit = run_batch([spec], workers=1, store=store,
                        events_dir=str(tmp_path))
        assert hit.cache_hits == 1
        assert artifact.read_bytes() == store.lookup(spec).events_blob

    @pytest.mark.parametrize("old_size", [0, 3, 100_000],
                             ids=["empty", "shorter", "longer"])
    def test_sweep_documents_leave_exactly_the_new_bytes(self, tmp_path,
                                                         old_size):
        batch = run_batch(small_matrix_specs()[:1], workers=1)
        for name in ("metrics.json", "aggregate.json"):
            (tmp_path / name).write_bytes(b"x" * old_size)
        manifest = batch.write_outputs(str(tmp_path))
        for key, document in (("metrics", batch.document()),
                              ("aggregate", batch.deterministic_document())):
            with open(manifest[key], "rb") as handle:
                assert handle.read() == (
                    canonical_json(document) + "\n").encode("utf-8")

    @pytest.mark.parametrize("old_size", [0, 3, 100_000],
                             ids=["empty", "shorter", "longer"])
    def test_failures_sidecar_leaves_exactly_the_new_bytes(self, tmp_path,
                                                           old_size):
        path = tmp_path / "failures.jsonl"
        path.write_bytes(b"x" * old_size)
        records = [FailureRecord(outcome="failed", scenario="a",
                                 spec_hash="1", phase="run", exception="E",
                                 message="m", index=index)
                   for index in range(2)]
        assert write_failures(str(path), records) == 2
        assert path.read_bytes() == "".join(
            canonical_json(record.to_dict()) + "\n" for record in records
        ).encode("utf-8")

    def test_a_failed_write_still_cuts_the_old_tail(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"x" * 1000)

        def failing_write(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", failing_write)
        with pytest.raises(OSError, match="disk full"):
            write_whole_file(str(path), b"new")
        monkeypatch.undo()
        assert path.stat().st_size == 3

    def test_a_device_target_is_written_without_a_length(self):
        write_whole_file(os.devnull, b"streamed to a device\n")
