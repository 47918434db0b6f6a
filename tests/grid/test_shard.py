"""Shard planning, execution, resume, and merge == batch byte-identity."""

import json
import os

import pytest

from repro.grid import GridError, ResultStore
from repro.sweep import (
    merge_shards,
    plan_all_shards,
    plan_batch,
    plan_shard,
    run_batch,
    run_shard,
)
from repro.sweep.outputs import run_events_filename


def sweep_specs():
    """Six fast runs across the two cheap RTK scheduler scenarios."""
    return plan_batch(
        ["rtk-round-robin", "rtk-priority"],
        matrix={"seed": [1, 2, 3]},
        overrides={"duration_ms": 40.0},
    )


class TestPlanning:
    def test_shards_partition_the_sweep(self):
        specs = sweep_specs()
        plans = plan_all_shards(specs, 4)
        seen = sorted(
            index for plan in plans for index, _ in plan.runs
        )
        assert seen == list(range(len(specs)))
        assert all(plan.total == len(specs) for plan in plans)

    def test_round_robin_assignment(self):
        specs = sweep_specs()
        plan = plan_shard(specs, 3, 1)
        assert [index for index, _ in plan.runs] == [1, 4]
        assert all(index % 3 == 1 for index, _ in plan.runs)

    def test_balanced_within_one_run(self):
        specs = sweep_specs()
        sizes = [len(plan) for plan in plan_all_shards(specs, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_the_whole_sweep(self):
        specs = sweep_specs()
        plan = plan_shard(specs, 1, 0)
        assert len(plan) == len(specs)

    def test_invalid_geometry_rejected(self):
        specs = sweep_specs()
        with pytest.raises(GridError):
            plan_shard(specs, 0, 0)
        with pytest.raises(GridError):
            plan_shard(specs, 2, 2)
        with pytest.raises(GridError):
            plan_shard(specs, 2, -1)


class TestShardedSweep:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_merge_is_byte_identical_to_single_host_batch(self, tmp_path, shards):
        specs = sweep_specs()
        batch_dir = tmp_path / "batch"
        batch = run_batch(specs, workers=2, events_dir=str(batch_dir))
        batch.write_outputs(str(batch_dir))

        shard_dirs = []
        for index in range(shards):
            shard_dir = tmp_path / f"shard{index}"
            run_shard(plan_shard(specs, shards, index), str(shard_dir))
            shard_dirs.append(str(shard_dir))
        merged_dir = tmp_path / "merged"
        manifest = merge_shards(shard_dirs, str(merged_dir))
        assert manifest["runs"] == len(specs)

        assert (merged_dir / "aggregate.json").read_bytes() == \
            (batch_dir / "aggregate.json").read_bytes()
        batch_events = sorted(p.name for p in batch_dir.glob("events_*.jsonl"))
        merged_events = sorted(p.name for p in merged_dir.glob("events_*.jsonl"))
        assert merged_events == batch_events
        for name in batch_events:
            assert (merged_dir / name).read_bytes() == \
                (batch_dir / name).read_bytes()

    def test_event_files_carry_global_indices(self, tmp_path):
        specs = sweep_specs()
        plan = plan_shard(specs, 3, 2)
        document = run_shard(plan, str(tmp_path / "s2"))
        expected = [
            run_events_filename(index, spec.name) for index, spec in plan.runs
        ]
        assert [entry["events"] for entry in document["runs"]] == expected
        for name in expected:
            assert (tmp_path / "s2" / name).is_file()

    def test_interrupted_shard_resumes_from_the_store(self, tmp_path):
        specs = sweep_specs()
        store = ResultStore(str(tmp_path / "cache"))
        plan = plan_shard(specs, 2, 0)
        first = run_shard(plan, str(tmp_path / "attempt1"), store=store)
        assert first["executed"] == len(plan) and first["cached"] == 0
        # The "interrupted" output directory is gone; the store is not.
        second = run_shard(plan, str(tmp_path / "attempt2"), store=store)
        assert second["executed"] == 0 and second["cached"] == len(plan)
        for entry in second["runs"]:
            a = (tmp_path / "attempt1" / entry["events"]).read_bytes()
            b = (tmp_path / "attempt2" / entry["events"]).read_bytes()
            assert a == b

    def test_fully_cached_sweep_executes_zero_simulations(self, tmp_path, monkeypatch):
        specs = sweep_specs()
        store = ResultStore(str(tmp_path / "cache"))
        warm = run_batch(specs, workers=1, store=store)
        assert warm.cache_hits == 0

        # Any attempt to build a simulator now is an error: the second sweep
        # must be served entirely from the store.
        import repro.campaign.runner as runner_module

        def forbidden(spec, *args, **kwargs):
            raise AssertionError(f"simulated {spec.name} despite a warm cache")

        monkeypatch.setattr(runner_module, "build_scenario", forbidden)
        cached = run_batch(specs, workers=1, store=store)
        assert cached.cache_hits == len(specs)
        assert canonical(cached) == canonical(warm)

        shard_doc = run_shard(
            plan_shard(specs, 2, 1), str(tmp_path / "shard"), store=store
        )
        assert shard_doc["executed"] == 0

    def test_interrupted_batch_keeps_completed_runs_cached(
        self, tmp_path, monkeypatch
    ):
        specs = sweep_specs()
        store = ResultStore(str(tmp_path / "cache"))

        # "Interrupt" the batch by making the third run's scenario explode.
        import repro.campaign.runner as runner_module

        real_build = runner_module.build_scenario
        doomed = specs[2].name

        def flaky_build(spec, *args, **kwargs):
            if spec.name == doomed:
                raise KeyboardInterrupt
            return real_build(spec, *args, **kwargs)

        monkeypatch.setattr(runner_module, "build_scenario", flaky_build)
        with pytest.raises(KeyboardInterrupt):
            run_batch(specs, workers=1, store=store)
        # The two completed runs were cached incrementally.
        assert store.lookup(specs[0]) is not None
        assert store.lookup(specs[1]) is not None
        assert store.lookup(specs[2]) is None

        monkeypatch.setattr(runner_module, "build_scenario", real_build)
        resumed = run_batch(specs, workers=1, store=store)
        assert resumed.cache_hits == 2

    def test_a_cold_sweep_looks_each_spec_up_once(self, tmp_path, monkeypatch):
        specs = sweep_specs()
        lookups = []
        real_lookup = ResultStore.lookup

        def counting_lookup(store, spec):
            lookups.append(spec)
            return real_lookup(store, spec)

        monkeypatch.setattr(ResultStore, "lookup", counting_lookup)
        run_batch(specs, workers=1, store=ResultStore(str(tmp_path / "b")))
        assert len(lookups) == len(specs)
        lookups.clear()
        run_shard(plan_shard(specs, 1, 0), str(tmp_path / "shard"),
                  store=ResultStore(str(tmp_path / "s")))
        assert len(lookups) == len(specs)

    def test_parallel_batch_fills_and_then_hits_the_store(self, tmp_path):
        specs = sweep_specs()
        store = ResultStore(str(tmp_path / "cache"))
        fresh = run_batch(specs, workers=2, store=store)
        assert fresh.cache_hits == 0
        again = run_batch(specs, workers=2, store=store)
        assert again.cache_hits == len(specs)
        assert canonical(again) == canonical(fresh)


def canonical(batch):
    from repro.obs.bus import canonical_json

    return canonical_json(batch.deterministic_document())


class TestMergeHardening:
    def make_shards(self, tmp_path, shards=2):
        specs = sweep_specs()
        dirs = []
        for index in range(shards):
            shard_dir = tmp_path / f"shard{index}"
            run_shard(plan_shard(specs, shards, index), str(shard_dir))
            dirs.append(str(shard_dir))
        return dirs

    def test_missing_shard_document(self, tmp_path):
        with pytest.raises(GridError, match="cannot read shard metrics file"):
            merge_shards([str(tmp_path / "nope")], str(tmp_path / "out"))

    def test_corrupt_shard_document(self, tmp_path):
        shard_dir = tmp_path / "shard"
        shard_dir.mkdir()
        (shard_dir / "shard.json").write_text("{ truncated")
        with pytest.raises(GridError, match="corrupt shard metrics file"):
            merge_shards([str(shard_dir)], str(tmp_path / "out"))

    def test_wrong_schema_rejected(self, tmp_path):
        shard_dir = tmp_path / "shard"
        shard_dir.mkdir()
        (shard_dir / "shard.json").write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(GridError, match="not a shard metrics document"):
            merge_shards([str(shard_dir)], str(tmp_path / "out"))

    def test_incomplete_sweep_lists_missing_indices(self, tmp_path):
        dirs = self.make_shards(tmp_path, shards=3)
        with pytest.raises(GridError, match="missing run indices"):
            merge_shards(dirs[:2], str(tmp_path / "out"))

    def test_duplicate_run_indices_rejected(self, tmp_path):
        dirs = self.make_shards(tmp_path, shards=2)
        with pytest.raises(GridError, match="appears in both"):
            merge_shards([dirs[0], dirs[0], dirs[1]], str(tmp_path / "out"))

    def test_geometry_mismatch_rejected(self, tmp_path):
        specs = sweep_specs()
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_shard(plan_shard(specs, 2, 0), str(a))
        run_shard(plan_shard(specs, 3, 1), str(b))
        with pytest.raises(GridError, match="shard geometry mismatch"):
            merge_shards([str(a), str(b)], str(tmp_path / "out"))

    def test_missing_event_stream_rejected(self, tmp_path):
        dirs = self.make_shards(tmp_path, shards=2)
        document = json.loads(
            (tmp_path / "shard0" / "shard.json").read_text()
        )
        os.remove(os.path.join(dirs[0], document["runs"][0]["events"]))
        with pytest.raises(GridError, match="missing event stream"):
            merge_shards(dirs, str(tmp_path / "out"))

    def test_no_shards_rejected(self, tmp_path):
        with pytest.raises(GridError, match="no shard directories"):
            merge_shards([], str(tmp_path / "out"))

    def test_a_pretty_printed_document_is_not_canonical(self, tmp_path):
        (shard_dir,) = self.make_shards(tmp_path, shards=1)
        path = os.path.join(shard_dir, "shard.json")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        with pytest.raises(GridError, match=r"not canonical JSON \(run 0\)"):
            merge_shards([shard_dir], str(tmp_path / "out"))


class TestMergeDecodes:
    def test_each_run_document_is_decoded_once(self, tmp_path, monkeypatch):
        """Every JSON decode the merge makes of a shard document is
        recorded with its span; exactly one covers each run document."""
        specs = sweep_specs()
        dirs = []
        for index in range(2):
            dirs.append(str(tmp_path / f"shard{index}"))
            run_shard(plan_shard(specs, 2, index), dirs[-1])
        texts = {}
        for shard_dir in dirs:
            with open(os.path.join(shard_dir, "shard.json"),
                      encoding="utf-8") as handle:
                texts[shard_dir] = handle.read()
        decodes = []
        real = json.JSONDecoder.raw_decode

        def recording(self, text, index=0):
            value, end = real(self, text, index)
            decodes.append((text, index, end))
            return value, end

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording)
        merge_shards(dirs, str(tmp_path / "out"))
        monkeypatch.setattr(json.JSONDecoder, "raw_decode", real)

        runs = 0
        for text in texts.values():
            for entry in json.loads(text)["runs"]:
                run_text = json.dumps(entry["run"], sort_keys=True,
                                      separators=(",", ":"))
                start = text.index(f'"run":{run_text}') + len('"run":')
                end = start + len(run_text)
                covering = [span for span in decodes if span[0] == text
                            and span[1] <= start and end <= span[2]]
                assert len(covering) == 1
                runs += 1
        assert runs == len(specs)
