"""The content-addressed result store: keys, integrity, maintenance."""

import json
import os

import pytest

from repro.campaign import get_scenario, run_spec, spec_hash
from repro.campaign.cli import main
from repro.campaign.metrics import RunResult
from repro.campaign.spec import spec_hash_from_document
from repro.grid import ResultStore, code_fingerprint
from repro.obs.bus import canonical_json
from repro.sweep import plan_shard, run_batch, run_shard
from tests.grid.entry_files import (
    read_sections,
    rewrite_entry,
    to_directory_layout,
)


def cheap_spec(seed=0, duration_ms=30.0):
    return get_scenario("rtk-priority").with_overrides(
        {"duration_ms": duration_ms, "seed": seed}
    ).validate()


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


def forge_metrics(entry, text):
    """Make *entry*'s metrics section hold *text* and record the digest of
    the new bytes in its manifest, as a consistent writer would."""
    rewrite_entry(entry.path, metrics=text.encode("utf-8"))


class TestKeys:
    def test_key_is_sha256_of_canonical_spec_json(self):
        spec = cheap_spec()
        import hashlib

        expected = hashlib.sha256(
            canonical_json(spec.to_dict()).encode("utf-8")
        ).hexdigest()
        assert spec_hash(spec) == expected

    def test_equal_specs_share_a_key_different_specs_do_not(self):
        assert spec_hash(cheap_spec(seed=1)) == spec_hash(cheap_spec(seed=1))
        assert spec_hash(cheap_spec(seed=1)) != spec_hash(cheap_spec(seed=2))

    def test_spec_object_and_document_hash_identically(self, store):
        spec = cheap_spec()
        assert spec_hash(spec) == spec_hash_from_document(spec.to_dict())
        entry = store.put(RunResult(spec.to_dict(), {}), b"")
        assert entry.key == spec_hash(spec)
        assert store.lookup(spec.to_dict()).key == store.lookup(spec).key


class TestRoundTrip:
    def test_fresh_run_populates_then_hit_replays(self, store):
        spec = cheap_spec()
        fresh = run_spec(spec, store=store)
        assert not fresh.cached
        hit = run_spec(spec, store=store)
        assert hit.cached
        assert hit.metrics_json() == fresh.metrics_json()
        assert [canonical_json(e) for e in hit.events] == \
            [canonical_json(e) for e in fresh.events]

    def test_hit_timing_is_marked_cached_without_speed_measures(self, store):
        spec = cheap_spec()
        run_spec(spec, store=store)
        hit = run_spec(spec, store=store)
        assert hit.timing["cached"] is True
        assert hit.timing["r_over_s"] is None
        assert hit.timing["s_over_r"] is None

    def test_refresh_forces_a_simulation_and_rewrites_the_entry(self, store):
        spec = cheap_spec()
        run_spec(spec, store=store)
        refreshed = run_spec(spec, store=store, refresh=True)
        assert not refreshed.cached
        assert store.lookup(spec) is not None

    def test_caller_sinks_disable_the_cache_lookup(self, store):
        from repro.obs.sinks import CounterSink

        spec = cheap_spec()
        run_spec(spec, store=store)
        counter = CounterSink(topics=("sched",))
        live = run_spec(spec, store=store, sinks=[counter])
        assert not live.cached
        assert counter.total() > 0

    def test_streamed_replay_is_byte_identical_to_streamed_fresh_run(
        self, store, tmp_path
    ):
        spec = cheap_spec()
        fresh_path = tmp_path / "fresh.jsonl"
        hit_path = tmp_path / "hit.jsonl"
        run_spec(spec, collect_events=False, events_stream=str(fresh_path),
                 store=store)
        hit = run_spec(spec, collect_events=False, events_stream=str(hit_path),
                       store=store)
        assert hit.cached
        assert hit_path.read_bytes() == fresh_path.read_bytes()
        assert hit.events_streamed == len(hit_path.read_text().splitlines())


class TestIntegrity:
    def test_fingerprint_mismatch_is_a_miss(self, store, tmp_path):
        spec = cheap_spec()
        run_spec(spec, store=store)
        other_code = ResultStore(store.root, fingerprint="0" * 64)
        assert other_code.lookup(spec) is None
        assert ResultStore(store.root).lookup(spec) is not None

    def test_tampered_events_detected_and_recomputed(self, store):
        spec = cheap_spec()
        run_spec(spec, store=store)
        entry = store.lookup(spec)
        _, _, events = read_sections(entry.path)
        rewrite_entry(entry.path, record=False, events=events
                      + b'{"t_ms":0,"thread":"evil","kind":"dispatch"}\n')
        assert store.lookup(spec) is None
        recomputed = run_spec(spec, store=store)
        assert not recomputed.cached
        assert store.lookup(spec) is not None  # entry repaired

    def test_tampered_metrics_detected(self, store):
        spec = cheap_spec()
        run_spec(spec, store=store)
        entry = store.lookup(spec)
        document = json.loads(entry.metrics_text)
        document["metrics"]["context_switches"] = 10**9
        rewrite_entry(entry.path, record=False,
                      metrics=(canonical_json(document) + "\n").encode())
        assert store.lookup(spec) is None

    def test_unparseable_manifest_is_a_miss(self, store):
        spec = cheap_spec()
        run_spec(spec, store=store)
        entry = store.lookup(spec)
        with open(entry.path, "r+b") as handle:
            handle.write(b"{ nope")
        assert store.lookup(spec) is None

    def test_a_stored_spec_other_than_the_looked_up_one_is_a_miss(self, store):
        spec = cheap_spec()
        fresh = run_spec(spec, store=store)
        entry = store.lookup(spec)
        document = json.loads(entry.metrics_text)
        document["spec"]["seed"] += 1
        forge_metrics(entry, canonical_json(document) + "\n")
        assert store.check_entry(entry.key, entry.path)[1] == [
            "the stored spec does not hash to the key"]
        assert store.lookup(spec) is None
        recomputed = run_spec(spec, store=store)
        assert not recomputed.cached
        assert store.lookup(spec).metrics_text == \
            fresh.metrics_json() + "\n"  # entry overwritten

    def test_a_hit_holds_the_looked_up_spec_and_decodes_only_metrics(
        self, store
    ):
        spec = cheap_spec()
        fresh = run_spec(spec, store=store)
        entry = store.lookup(spec)
        assert entry.spec == spec.to_dict()
        assert entry.metrics == fresh.metrics
        hit = entry.replay()
        assert hit.spec is entry.spec
        assert hit.metrics is entry.metrics
        assert hit.metrics_json() == fresh.metrics_json()

    def test_a_malformed_metrics_member_is_refused_and_recomputed(self, store):
        spec = cheap_spec()
        fresh = run_spec(spec, store=store)
        spec_text = canonical_json(spec.to_dict())
        forge_metrics(store.lookup(spec),
                      f'{{"metrics":[1] ,"spec":{spec_text}}}\n')
        assert store.lookup(spec) is None
        # A sweep reads the refused entry as a miss and re-simulates.
        batch = run_batch([spec], workers=1, store=store)
        assert batch.cache_hits == 0
        assert store.lookup(spec).replay().metrics == fresh.metrics

    def test_a_hits_line_count_comes_from_the_verified_stream(
        self, store, tmp_path
    ):
        spec = cheap_spec()
        run_spec(spec, store=store)
        entry = store.lookup(spec)
        lines = entry.events_blob.count(b"\n")
        rewrite_entry(entry.path, events_lines=lines + 7)
        hit = store.lookup(spec).replay(
            events_stream=str(tmp_path / "events.jsonl"))
        assert hit.events_streamed == lines
        shard = run_shard(plan_shard([spec], 1, 0), str(tmp_path / "shard"),
                          store=store)
        assert shard["cached"] == 1
        (entry_document,) = json.loads(
            (tmp_path / "shard" / "shard.json").read_text())["runs"]
        assert entry_document["events_streamed"] == lines

    def test_code_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestMaintenance:
    def test_stats_counts_valid_stale_and_corrupt(self, store):
        run_spec(cheap_spec(seed=1), store=store)
        run_spec(cheap_spec(seed=2), store=store)
        run_spec(cheap_spec(seed=3), store=store)
        # Stale: same layout, other fingerprint.
        entry = store.lookup(cheap_spec(seed=2))
        rewrite_entry(entry.path, fingerprint="f" * 64)
        # Corrupt: damaged events section.
        entry3 = store.lookup(cheap_spec(seed=3))
        rewrite_entry(entry3.path, events=b"garbage\n", record=False)
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["valid"] == 1
        assert stats["stale"] == 1
        assert stats["corrupt"] == 1
        assert stats["bytes"] > 0

    def test_stats_counts_the_verified_streams_lines(self, store):
        run_spec(cheap_spec(seed=1), store=store)
        entry = store.lookup(cheap_spec(seed=1))
        lines = entry.events_blob.count(b"\n")
        assert store.stats()["events_lines"] == lines
        rewrite_entry(entry.path, events_lines=lines + 7)
        assert store.stats()["events_lines"] == lines

    def test_gc_sweeps_unusable_entries_only(self, store):
        run_spec(cheap_spec(seed=1), store=store)
        run_spec(cheap_spec(seed=2), store=store)
        entry = store.lookup(cheap_spec(seed=2))
        rewrite_entry(entry.path, events=b"poison\n", record=False)
        swept = store.gc()
        assert swept == {"removed": 1, "kept": 1, "staging_removed": 0}
        assert store.lookup(cheap_spec(seed=1)) is not None
        assert store.lookup(cheap_spec(seed=2)) is None

    def test_stray_files_in_fanout_dirs_do_not_break_maintenance(self, store):
        run_spec(cheap_spec(seed=1), store=store)
        entry = store.lookup(cheap_spec(seed=1))
        prefix_dir = os.path.dirname(entry.path)
        with open(os.path.join(prefix_dir, ".DS_Store"), "w") as handle:
            handle.write("junk")
        stats = store.stats()
        assert stats["entries"] == 1 and stats["valid"] == 1
        assert store.gc()["kept"] == 1
        assert store.lookup(cheap_spec(seed=1)) is not None
        assert store.clear() == 1

    def test_a_batch_over_a_directory_layout_store_resimulates(
        self, store, tmp_path, capsys
    ):
        """A store the ``repro-grid-store/1`` code filled: each entry is a
        miss, the batch re-simulates it, replaces it with an entry file and
        exits 0; the next batch is all hits and writes the same bytes."""
        argv = ["batch", "--scenario", "rtk-priority", "--matrix",
                "seed=1,2", "--set", "duration_ms=30", "--serial",
                "--cache", store.root]
        assert main(argv + ["--out", str(tmp_path / "fresh")]) == 0
        for _, path in store.entries():
            to_directory_layout(path)
        assert store.stats()["stale"] == 2
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "over-old")]) == 0
        assert "cache: 0 hit(s), 2 simulated" in capsys.readouterr().out
        assert all(os.path.isfile(path) for _, path in store.entries())
        assert store.stats()["valid"] == 2
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert "cache: 2 hit(s), 0 simulated" in capsys.readouterr().out
        for name in ("aggregate.json", "events_000_rtk-priority-seed-1.jsonl",
                     "events_001_rtk-priority-seed-2.jsonl"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "over-old" / name).read_bytes() == fresh
            assert (tmp_path / "warm" / name).read_bytes() == fresh

    def test_clear_empties_the_store(self, store):
        run_spec(cheap_spec(seed=1), store=store)
        run_spec(cheap_spec(seed=2), store=store)
        assert store.clear() == 2
        assert len(store) == 0
        assert store.stats()["entries"] == 0

    def test_put_files_the_given_bytes_as_they_are(self, store):
        blob = b'{"kind":"dispatch","t_ms":0.0,"thread":"a"}\n'
        entry = store.put(RunResult(cheap_spec().to_dict(), {}), blob)
        assert entry.events_blob is blob
        assert read_sections(entry.path)[2] == blob
        assert entry.manifest["events_bytes"] == len(blob)
        assert entry.manifest["events_lines"] == 1
        assert store.lookup(cheap_spec()).events_blob == blob
