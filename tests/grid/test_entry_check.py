"""One entry check: every store reader agrees on what a servable entry is.

``ResultStore.check_entry`` is the one decision.  For each kind of damage,
``lookup`` misses, ``stats`` counts the entry stale or corrupt, ``verify``
names it and ``--repair`` quarantines it, ``gc`` removes it and the corpus
index has no row for it — while a clean sibling passes on every path.
"""

import builtins
import json
import os
from collections import Counter

import pytest

from repro.analytics.corpus import build_index, open_index
from repro.campaign import get_scenario, spec_hash
from repro.campaign.cli import main
from repro.campaign.metrics import RunResult
from repro.grid import ResultStore
from repro.obs.bus import canonical_json
from tests.grid.entry_files import (
    append_bytes,
    rewrite_entry,
    to_directory_layout,
)

EVENTS = b"".join(
    (canonical_json({"kind": "exec", "t_ms": slot / 1000, "thread": "t0",
                     "dur_ms": 0.0005, "context": "task", "energy_nj": 1.0,
                     "label": "run"}) + "\n").encode("utf-8")
    for slot in range(4)
)


def spec_document(seed):
    return {"name": f"check/{seed}", "kernel": "tkernel",
            "workload": "generated", "seed": seed, "duration_ms": 40.0}


def put(store, seed):
    return store.put(RunResult(spec_document(seed),
                               {"context_switches": 10 + seed}), EVENTS)


def rewrite_metrics(entry, text):
    """Make the entry's metrics section *text*, its digest recorded again."""
    rewrite_entry(entry.path, metrics=text.encode("utf-8"))


def forge_spec(store, entry):
    document = json.loads(entry.metrics_text)
    document["spec"]["seed"] = 999
    rewrite_metrics(entry, canonical_json(document) + "\n")


def malform_metrics(store, entry):
    spec_text = canonical_json(entry.spec)
    rewrite_metrics(entry, f'{{"metrics":[1],"spec":{spec_text}}}\n')


def nest_metrics(store, entry):
    spec_text = canonical_json(entry.spec)
    depth = 100_000  # past the decoder's recursion limit
    rewrite_metrics(entry, '{"metrics":' + "[" * depth + "]" * depth
                    + f',"spec":{spec_text}}}\n')


def mismatch_events(store, entry):
    rewrite_entry(entry.path, events=EVENTS + b"{}\n", record=False)


def break_manifest(store, entry):
    with open(entry.path, "r+b") as handle:
        handle.write(b"{ nope")


def other_fingerprint(store, entry):
    rewrite_entry(entry.path, fingerprint="0" * 64)


def truncate_events(store, entry):
    size = os.path.getsize(entry.path)
    os.truncate(entry.path, size - len(EVENTS) // 2)


def append_trailing_bytes(store, entry):
    append_bytes(entry.path, b"\n")


def directory_layout(store, entry):
    to_directory_layout(entry.path)


#: Each kind of damage and how ``stats`` classifies the damaged entry.
DAMAGE = {
    "forged-spec-member": (forge_spec, "corrupt"),
    "malformed-metrics-member": (malform_metrics, "corrupt"),
    "too-deep-metrics-member": (nest_metrics, "corrupt"),
    "events-digest-mismatch": (mismatch_events, "corrupt"),
    "unparseable-manifest": (break_manifest, "corrupt"),
    "other-fingerprint": (other_fingerprint, "stale"),
    "missing-events": (truncate_events, "corrupt"),
    "trailing-bytes": (append_trailing_bytes, "corrupt"),
    "parent-layout-directory": (directory_layout, "stale"),
}


def damaged_store(root, kind):
    """A store holding a clean sibling and one entry damaged by *kind*:
    ``(store, clean key, damaged key)``."""
    store = ResultStore(root)
    clean = put(store, 0)
    victim = put(store, 1)
    DAMAGE[kind][0](store, victim)
    return store, clean.key, victim.key


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_every_path_refuses_the_damaged_entry_and_serves_its_sibling(
    tmp_path, kind
):
    store, clean, damaged = damaged_store(str(tmp_path / "store"), kind)
    assert store.lookup(spec_document(1)) is None
    assert store.lookup(spec_document(0)).key == clean

    stats = store.stats()
    assert (stats["entries"], stats["valid"]) == (2, 1)
    assert stats[DAMAGE[kind][1]] == 1
    assert stats["events_lines"] == EVENTS.count(b"\n")

    assert [item["key"] for item in store.verify()["bad"]] == [damaged]

    build_index(store)
    with open_index(store) as index:
        assert index.query(select=["key"])[1] == [(clean,)]

    assert store.gc() == {"removed": 1, "kept": 1, "staging_removed": 0}
    assert store.lookup(spec_document(0)).key == clean

    store, clean, damaged = damaged_store(str(tmp_path / "repair"), kind)
    report = store.verify(repair=True)
    assert [item["key"] for item in report["bad"]] == [damaged]
    assert report["quarantined"] == 1
    assert os.path.lexists(os.path.join(store.quarantine_dir(), damaged))
    assert store.verify() == {"checked": 1, "bad": [], "quarantined": 0}
    assert store.lookup(spec_document(0)).key == clean


def test_maintenance_opens_each_entry_once(tmp_path, monkeypatch):
    store = ResultStore(str(tmp_path / "store"))
    for seed in range(3):
        put(store, seed)
    other_fingerprint(store, store.lookup(spec_document(1)))  # stale
    mismatch_events(store, store.lookup(spec_document(2)))    # corrupt
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        path = os.path.abspath(str(file))
        if path.startswith(store.root + os.sep):
            opened[path] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    entries = {path for _, path in store.entries()}
    for maintenance in (store.stats, store.verify, store.gc):
        opened.clear()
        maintenance()
        assert opened == Counter(entries), maintenance.__name__


def test_run_with_cache_recomputes_a_malformed_entry(tmp_path, capsys):
    spec = get_scenario("rtk-priority").with_overrides(
        {"duration_ms": 30}).validate()  # as ``--set duration_ms=30`` parses
    cache = str(tmp_path / "cache")
    argv = ["run", "rtk-priority", "--set", "duration_ms=30", "--cache", cache]
    assert main(argv) == 0
    store = ResultStore(cache)
    fresh = store.lookup(spec)
    malform_metrics(store, fresh)
    assert store.lookup(spec) is None
    assert main(argv) == 0
    capsys.readouterr()
    repaired = store.lookup(spec)
    assert repaired.key == spec_hash(spec)
    assert repaired.metrics_text == fresh.metrics_text
