"""Golden-stream pinning: every refactor of scenario construction is pure.

``golden_streams.json`` holds, per builtin scenario, the SHA-256 of the
JSONL event stream and of the deterministic metrics document produced by
the **pre-refactor** monolithic builders (captured immediately before the
workload plane landed), plus the spec hash.  Every scenario, built from
its spec by its workload component, must reproduce those artifacts
byte-for-byte.

If one of these fails after an intentional behaviour change, regenerate the
golden file with the snippet in its header comment — but know that doing so
also invalidates comparability of stored grid-cache entries and historical
event streams for that scenario.
"""

import hashlib
import io
import json
import os

import pytest

from repro.campaign.registry import get_scenario, scenario_names
from repro.campaign.runner import run_spec
from repro.campaign.spec import spec_hash
from repro.grid.store import ResultStore
from repro.obs.bus import canonical_json
from tests.grid.entry_files import read_sections

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_streams.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_scenario_is_byte_identical_to_pre_refactor_builder(name):
    spec = get_scenario(name)
    golden = GOLDEN[name]

    # The cache key must not have drifted either: a changed hash would
    # silently disconnect every stored result from the scenario.
    assert spec_hash(spec) == golden["spec_hash"]

    result = run_spec(spec)
    events_bytes = "".join(
        canonical_json(event) + "\n" for event in result.events
    ).encode("utf-8")
    assert len(result.events) == golden["events_lines"]
    assert hashlib.sha256(events_bytes).hexdigest() == golden["events_sha256"]
    assert hashlib.sha256(
        result.metrics_json().encode("utf-8")
    ).hexdigest() == golden["metrics_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_streamed_jsonl_is_byte_identical_to_golden(name):
    """The live ``--events-out`` stream — per-shape ``sched`` line memo,
    batched ``writelines`` flushes — must emit exactly the golden bytes,
    not merely equivalent JSON."""
    spec = get_scenario(name)
    golden = GOLDEN[name]
    stream = io.StringIO()
    result = run_spec(spec, collect_events=False, events_stream=stream)
    data = stream.getvalue().encode("utf-8")
    assert result.events_streamed == golden["events_lines"]
    assert data.count(b"\n") == golden["events_lines"]
    assert hashlib.sha256(data).hexdigest() == golden["events_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stored_events_artifact_is_byte_identical_to_golden(name, tmp_path):
    """The store's events section — the run's encoded bytes, filed by
    the single-write ``put`` — must hold exactly the golden bytes, and the
    manifest digests (computed from the bytes as written) must agree."""
    spec = get_scenario(name)
    golden = GOLDEN[name]
    store = ResultStore(str(tmp_path / "store"))
    run_spec(spec, collect_events=False, store=store)
    entry = store.lookup(spec)
    assert entry is not None  # the fresh run must have filled the cache
    _, _, data = read_sections(entry.path)
    assert hashlib.sha256(data).hexdigest() == golden["events_sha256"]
    assert entry.manifest["events_sha256"] == golden["events_sha256"]
    assert entry.manifest["events_lines"] == golden["events_lines"]
    assert entry.manifest["events_bytes"] == len(data)
