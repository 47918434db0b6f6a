"""A run's stream has one form: canonical JSONL bytes, bus to store.

A fresh run encodes each ``sched`` shape once, in its streaming sink, and
its collected bytes, its streamed file and its store entry are the same
bytes.  A cache hit hands ``--out`` the exact JSONL bytes whose digest the
lookup checked: no event line is decoded and no event dict is re-encoded
on the way, the files are read once (a rewrite after the lookup cannot
leak into the replay), and ``RunResult.events`` still decodes on demand
to the same list a fresh run produced.

The run document (``{"spec", "metrics"}``) has one form too: a hit splices
the verified ``metrics.json`` text into ``aggregate.json`` without
encoding the document, and a fresh run encodes it once for both the store
entry and ``aggregate.json``.  A shard splices the same texts into
``shard.json``, and its merge splices them back out.
"""

import io
import json
import os
from collections import Counter

import pytest

import repro.campaign.metrics as metrics_module
import repro.grid.store as store_module
import repro.obs.bus as bus_module
import repro.obs.sinks as sinks_module
import repro.sweep.outputs as outputs_module
import repro.sweep.shard as shard_module
from repro.campaign import get_scenario, run_spec
from repro.campaign.cli import main
from repro.campaign.metrics import RunResult
from repro.campaign.registry import scenario_names
from repro.grid import ResultStore
from repro.obs.bus import canonical_json
from repro.sweep import merge_shards, plan_shard, run_shard
from repro.sweep.batch import run_batch
from tests.grid.entry_files import read_sections, rewrite_entry


def cheap_spec(seed=0):
    return get_scenario("rtk-priority").with_overrides(
        {"duration_ms": 30.0, "seed": seed}
    ).validate()


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


def run_documents_in(obj):
    """Every run document (a dict keyed exactly ``{"spec", "metrics"}``)
    that encoding *obj* would encode, nested ones included."""
    if isinstance(obj, dict):
        if obj.keys() == {"spec", "metrics"}:
            yield obj
            return
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from run_documents_in(item)


def patch_canonical_json(monkeypatch, canonical):
    for module in (bus_module, metrics_module, store_module, outputs_module,
                   shard_module):
        monkeypatch.setattr(module, "canonical_json", canonical)


def poison_event_codecs(monkeypatch):
    """Make any decode of an event line, or encode of an event dict or of
    a document holding a run document, raise.

    Event documents are the only JSON in play carrying a ``t_ms`` key, and
    run documents the only dicts keyed exactly ``{"spec", "metrics"}``, so
    the manifest and the spliced aggregate's members still encode and
    parse normally.
    """
    real_loads = json.loads
    real_canonical = bus_module.canonical_json

    def loads(text, *args, **kwargs):
        probe = text if isinstance(text, str) else bytes(text).decode("utf-8")
        if '"t_ms":' in probe:
            raise AssertionError("an event line was decoded on the hit path")
        return real_loads(text, *args, **kwargs)

    def canonical(obj):
        if isinstance(obj, dict) and "t_ms" in obj:
            raise AssertionError("an event dict was encoded on the hit path")
        if any(run_documents_in(obj)):
            raise AssertionError("a run document was encoded on the hit path")
        return real_canonical(obj)

    monkeypatch.setattr(json, "loads", loads)
    patch_canonical_json(monkeypatch, canonical)


def read_outputs(out_dir):
    """Every artifact of a batch ``--out`` dir, timing dropped from metrics."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            files[name] = handle.read()
    metrics = json.loads(files.pop("metrics.json"))
    metrics.pop("timing")
    files["metrics.json"] = canonical_json(metrics).encode("utf-8")
    return files


@pytest.mark.parametrize("fill", [["--serial"], ["--workers", "2"]],
                         ids=["serial-fill", "pooled-fill"])
def test_warm_batch_writes_the_cold_bytes_without_event_codecs(
    fill, tmp_path, monkeypatch, capsys
):
    from repro.workload import FamilySpec

    family = FamilySpec(name="byte-replay", count=6, seed=21,
                        kernels=("tkernel", "rtkspec2"), duration_ms=8.0)
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(family.to_dict()))
    cache = str(tmp_path / "cache")
    sweep = ["batch", "--family", str(family_path), "--cache", cache]

    assert main(sweep + fill + ["--out", str(tmp_path / "cold")]) == 0
    capsys.readouterr()
    poison_event_codecs(monkeypatch)
    assert main(sweep + ["--out", str(tmp_path / "warm")]) == 0
    assert "6 hit(s), 0 simulated" in capsys.readouterr().out
    monkeypatch.undo()

    cold = read_outputs(tmp_path / "cold")
    warm = read_outputs(tmp_path / "warm")
    assert sorted(cold) == sorted(warm)
    assert sum(name.startswith("events_") for name in cold) == 6
    for name in cold:
        assert warm[name] == cold[name], name


@pytest.mark.parametrize("fill", [["--serial"], ["--workers", "2"]],
                         ids=["serial-fill", "pooled-fill"])
def test_a_cold_fill_encodes_each_run_document_once(fill, tmp_path,
                                                    monkeypatch, capsys):
    """``store.put`` and ``aggregate.json`` share one encoding per run (a
    pooled fill encodes in the coordinator, where the fill happens)."""
    from repro.workload import FamilySpec, expand_family

    family = FamilySpec(name="encode-once", count=5, seed=8,
                        kernels=("tkernel", "rtkspec1"), duration_ms=6.0)
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(family.to_dict()))
    encoded = Counter()
    real_canonical = bus_module.canonical_json

    def canonical(obj):
        for document in run_documents_in(obj):
            encoded[document["metrics"]["scenario"]] += 1
        return real_canonical(obj)

    patch_canonical_json(monkeypatch, canonical)
    out = tmp_path / "out"
    assert main(["batch", "--family", str(family_path), "--cache",
                 str(tmp_path / "cache"), "--out", str(out), *fill]) == 0
    monkeypatch.undo()
    assert "0 hit(s), 5 simulated" in capsys.readouterr().out
    assert encoded == Counter(spec.name for spec in expand_family(family))
    store = ResultStore(str(tmp_path / "cache"))
    runs = json.loads((out / "aggregate.json").read_bytes())["runs"]
    for run in runs:
        stored = store.lookup(run["spec"]).metrics_text
        assert stored == canonical_json(run) + "\n"


def test_a_warm_shard_and_its_merge_encode_no_run_document(store, tmp_path,
                                                          monkeypatch):
    specs = [cheap_spec(seed) for seed in range(4)]
    batch_dir = str(tmp_path / "batch")
    run_batch(specs, workers=1, store=store,
              events_dir=batch_dir).write_outputs(batch_dir)
    real_canonical = bus_module.canonical_json

    def canonical(obj):
        if any(run_documents_in(obj)):
            raise AssertionError("a shard encoded a run document")
        return real_canonical(obj)

    patch_canonical_json(monkeypatch, canonical)
    shard_dirs = [str(tmp_path / f"shard{index}") for index in range(2)]
    for index, shard_dir in enumerate(shard_dirs):
        document = run_shard(plan_shard(specs, 2, index), shard_dir,
                             store=store)
        assert document["cached"] == 2
    merge_shards(shard_dirs, str(tmp_path / "merged"))
    monkeypatch.undo()

    batch = read_outputs(batch_dir)
    merged = read_outputs(tmp_path / "merged")
    assert sum(name.startswith("events_") for name in batch) == 4
    assert merged == batch


def test_replay_serves_the_bytes_verified_at_lookup(store, tmp_path):
    spec = cheap_spec()
    fresh = run_spec(spec, store=store)
    hit = store.lookup(spec)
    assert hit is not None
    _, _, verified = read_sections(hit.path)
    rewrite_entry(hit.path, events=b'{"t_ms":0,"kind":"forged"}\n',
                  record=False)

    replayed = hit.replay()
    assert replayed.events_jsonl == verified
    assert replayed.events == fresh.events
    # A path target already holding a longer file keeps only the new bytes.
    (tmp_path / "streamed.jsonl").write_bytes(b"x" * (2 * len(verified)))
    assert hit.stream_events_to(str(tmp_path / "streamed.jsonl")) == \
        verified.count(b"\n")
    assert (tmp_path / "streamed.jsonl").read_bytes() == verified
    # The forged section is a digest mismatch for the next lookup.
    assert store.lookup(spec) is None


def test_hit_events_decode_lazily_to_the_fresh_list(store, monkeypatch):
    spec = cheap_spec(seed=3)
    fresh = run_spec(spec, store=store)
    poison_event_codecs(monkeypatch)
    hit = run_spec(spec, store=store)
    assert hit.cached
    monkeypatch.undo()
    assert hit.events == fresh.events
    assert hit.events_jsonl == fresh.events_jsonl


def test_stream_events_to_serves_text_and_binary_targets(store, tmp_path):
    spec = cheap_spec()
    run_spec(spec, store=store)
    hit = store.lookup(spec)
    lines = hit.events_blob.count(b"\n")
    text, binary = io.StringIO(), io.BytesIO()
    assert hit.stream_events_to(text) == lines
    assert hit.stream_events_to(binary) == lines
    assert text.getvalue().encode("utf-8") == binary.getvalue() == hit.events_blob


def builtin_specs():
    """Every builtin scenario, shortened to keep the sweep cheap."""
    return [get_scenario(name).with_overrides({"duration_ms": 20.0}).validate()
            for name in scenario_names()]


def test_a_collected_run_encodes_each_sched_event_once(monkeypatch):
    """The run path has one encoder: no ``ListSink`` collects events, and
    each ``sched`` shape goes through ``event_to_dict`` at most once in the
    run's one sink; later events of the shape reuse its rendered line."""
    real_event_to_dict = bus_module.event_to_dict
    shapes = Counter()

    def event_to_dict(event):
        document = real_event_to_dict(event)
        if event.topic == "sched":
            shapes[tuple(sorted(
                (key, value) for key, value in document.items()
                if key != "t_ms"))] += 1
        return document

    def no_list_sink(self, *args, **kwargs):
        raise AssertionError("the run collected into a ListSink")

    for module in (bus_module, sinks_module):
        monkeypatch.setattr(module, "event_to_dict", event_to_dict)
    monkeypatch.setattr(sinks_module.ListSink, "__init__", no_list_sink)
    for spec in builtin_specs():
        shapes.clear()
        assert run_spec(spec).events_jsonl, spec.name
        assert shapes and max(shapes.values()) == 1, spec.name


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_collected_streamed_and_stored_bytes_are_one_stream(workers, tmp_path):
    specs = builtin_specs()
    store = ResultStore(str(tmp_path / "cache"))
    run_batch(specs, workers=workers, store=store)
    streamed = tmp_path / "streamed.jsonl"
    for spec in specs:
        collected = run_spec(spec).events_jsonl
        run_spec(spec, events_stream=str(streamed))
        assert streamed.read_bytes() == collected, spec.name
        assert store.lookup(spec).events_blob == collected, spec.name


class TestRunResultEvents:
    EVENTS = [{"t_ms": 0.0, "thread": "a", "kind": "dispatch"},
              {"t_ms": 1.5, "thread": "b", "kind": "preempt"}]
    BLOB = b"".join((canonical_json(event) + "\n").encode("utf-8")
                    for event in EVENTS)

    def test_a_list_encodes_with_the_single_encoder(self):
        result = run_spec(cheap_spec())
        assert result.events_jsonl == "".join(
            canonical_json(event) + "\n" for event in result.events
        ).encode("utf-8")

    def test_bytes_alone_decode_on_first_access(self):
        result = RunResult(spec={}, metrics={}, events_jsonl=self.BLOB)
        assert result.events == self.EVENTS
        assert result.events_jsonl is self.BLOB

    def test_events_is_a_read_only_view(self):
        result = RunResult(spec={}, metrics={}, events_jsonl=self.BLOB)
        with pytest.raises(AttributeError):
            result.events = []
        with pytest.raises(AttributeError):
            result.events_jsonl = b""
        assert result.events_jsonl is self.BLOB

    def test_default_is_an_empty_stream(self):
        result = RunResult(spec={}, metrics={})
        assert result.events == [] and result.events_jsonl == b""
