"""Cache determinism over the whole registry: replay == fresh, byte for byte.

The acceptance bar for the grid store: for **every** builtin scenario, a
cache-hit replay is byte-identical to the fresh run it stands in for —
metrics JSON and the JSONL event stream alike — and a poisoned entry is
detected through the manifest and transparently recomputed.

Durations are dialled down per scenario (a spec override is just another
spec, so this exercises exactly the production code path) to keep the
full-registry sweep fast.
"""


import pytest

from repro.campaign import get_scenario, run_spec, scenario_names
from repro.grid import ResultStore
from repro.obs.bus import canonical_json
from tests.grid.entry_files import read_sections, rewrite_entry

#: Reduced horizons for the expensive scenarios; everything else is cheap
#: enough to run at a 30 ms window.
FAST_DURATIONS_MS = {
    "videogame": 40.0,
    "cosim-speed": 40.0,
    "energy-profile": 60.0,
    "sync-tour": 60.0,
}


def fast_spec(name):
    duration = FAST_DURATIONS_MS.get(name, 30.0)
    return get_scenario(name).with_overrides(
        {"duration_ms": duration}
    ).validate()


def test_registry_has_the_expected_nine_scenarios():
    assert len(scenario_names()) == 9


@pytest.mark.parametrize("name", sorted(
    [
        "quickstart", "sync-tour", "videogame", "cosim-speed",
        "energy-profile", "rtk-round-robin", "rtk-priority",
        "synthetic-tkernel", "synthetic-rtk",
    ]
))
def test_cache_replay_is_byte_identical(name, tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    spec = fast_spec(name)

    fresh = run_spec(spec, store=store)
    assert not fresh.cached
    hit = run_spec(spec, store=store)
    assert hit.cached

    # Metrics document: byte-identical canonical JSON.
    assert hit.metrics_json() == fresh.metrics_json()

    # Event stream: byte-identical through both output modes.
    assert hit.events_jsonl == fresh.events_jsonl

    streamed_path = tmp_path / "streamed.jsonl"
    streamed = run_spec(
        spec, collect_events=False, events_stream=str(streamed_path),
        store=store,
    )
    assert streamed.cached
    assert streamed_path.read_bytes() == fresh.events_jsonl


@pytest.mark.parametrize("name", ["quickstart", "synthetic-rtk"])
def test_poisoned_entry_is_detected_and_recomputed(name, tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    spec = fast_spec(name)
    fresh = run_spec(spec, store=store)

    # Poison the stored stream; the manifest's digest no longer matches.
    entry = store.lookup(spec)
    _, _, events = read_sections(entry.path)
    rewrite_entry(entry.path, record=False, events=events
                  + b'{"t_ms":9,"thread":"mallory","kind":"dispatch"}\n')
    assert store.lookup(spec) is None

    recomputed = run_spec(spec, store=store)
    assert not recomputed.cached
    assert recomputed.metrics_json() == fresh.metrics_json()

    # The repaired entry serves verified, identical artifacts again.
    hit = run_spec(spec, store=store)
    assert hit.cached
    assert [canonical_json(e) for e in hit.events] == \
        [canonical_json(e) for e in fresh.events]


@pytest.mark.parametrize("name", ["quickstart"])
def test_poisoned_manifest_fingerprint_is_detected(name, tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    spec = fast_spec(name)
    run_spec(spec, store=store)
    rewrite_entry(store.lookup(spec).path, fingerprint="d" * 64)
    assert store.lookup(spec) is None
    recomputed = run_spec(spec, store=store)
    assert not recomputed.cached
    assert store.lookup(spec) is not None
