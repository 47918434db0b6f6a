"""Store integrity verbs: verify and quarantine-on-repair."""

import json
import os

from repro.grid.store import ResultStore
from repro.sweep.batch import run_batch
from repro.workload.families import FamilySpec, expand_family
from tests.grid.entry_files import flip_byte


def _warm_store(tmp_path, count=3):
    store = ResultStore(str(tmp_path / "cache"))
    specs = expand_family(FamilySpec(
        name="verify-family", count=count, seed=3, duration_ms=5.0,
    ))
    run_batch(specs, workers=1, store=store)
    return store


def _first_entry(store):
    return store.entries()[0][1]


class TestVerify:
    def test_clean_store_verifies_clean(self, tmp_path):
        store = _warm_store(tmp_path)
        report = store.verify()
        assert report["checked"] == 3
        assert report["bad"] == []
        assert report["quarantined"] == 0

    def test_digest_mismatch_is_named_per_section(self, tmp_path):
        store = _warm_store(tmp_path)
        flip_byte(_first_entry(store))
        report = store.verify()
        assert len(report["bad"]) == 1
        problems = report["bad"][0]["problems"]
        assert problems == ["events digest mismatch"]
        assert report["bad"][0]["scenario"]
        # verify alone never mutates the store
        assert store.verify()["checked"] == 3

    def test_unreadable_manifest_is_reported(self, tmp_path):
        store = _warm_store(tmp_path)
        with open(_first_entry(store), "r+b") as handle:
            handle.write(b"{not json")
        report = store.verify()
        assert len(report["bad"]) == 1
        assert any("manifest" in p for p in report["bad"][0]["problems"])

    def test_repair_quarantines_failing_entries(self, tmp_path):
        store = _warm_store(tmp_path)
        flip_byte(_first_entry(store))
        report = store.verify(repair=True)
        assert report["quarantined"] == 1
        assert os.path.isdir(store.quarantine_dir())
        assert len(os.listdir(store.quarantine_dir())) == 1
        # The quarantined entry is invisible to the store from now on.
        after = store.verify()
        assert after["checked"] == 2
        assert after["bad"] == []

    def test_quarantined_entries_resimulate_on_the_next_sweep(self, tmp_path):
        store = _warm_store(tmp_path)
        flip_byte(_first_entry(store))
        store.verify(repair=True)
        specs = expand_family(FamilySpec(
            name="verify-family", count=3, seed=3, duration_ms=5.0,
        ))
        batch = run_batch(specs, workers=1, store=store)
        assert len(batch.results) == 3
        assert batch.cache_hits == 2

    def test_clear_sweeps_the_quarantine_too(self, tmp_path):
        store = _warm_store(tmp_path)
        flip_byte(_first_entry(store))
        store.verify(repair=True)
        store.clear()
        assert not os.path.exists(store.quarantine_dir())
